//! The bit-sliced stability kernel against the single-pair reference, on
//! random small netlists that use every cell kind (flip-flops with and
//! without enable and reset, ties, and all combinational cells) and on
//! random frame pairs.
//!
//! Each case packs `fill` pairs into kernel calls of at most 64, for fills
//! of 1, 63, 64, 65 and 130: partial lane masks, a full chunk, and full
//! chunks followed by short ones. Net counts range below and above 64, so
//! the tail word of the bitsets is covered too.

use proptest::prelude::*;
use xbound_core::peak_power::stability_words_into;
use xbound_core::stability::{LaneScratch, StabilityOps, CHUNK};
use xbound_logic::{Frame, Lv};
use xbound_netlist::{CellKind, NetId, Netlist};

const FILLS: [usize; 5] = [1, 63, 64, 65, 130];

/// A random netlist: four primary inputs, then one gate per recipe entry
/// (kind, three input picks) driving a fresh net. Combinational gates read
/// only earlier nets, so the netlist is acyclic.
fn netlist(recipe: &[(usize, usize, usize, usize)]) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut nets: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("in{i}"))).collect();
    for (g, &(kind, a, b, c)) in recipe.iter().enumerate() {
        let kind = CellKind::ALL[kind % CellKind::ALL.len()];
        let ins: Vec<NetId> = [a, b, c][..kind.input_count()]
            .iter()
            .map(|&k| nets[k % nets.len()])
            .collect();
        let out = nl.add_net(format!("n{g}"));
        nl.add_gate(kind, format!("g{g}"), &ins, out)
            .expect("fresh gate");
        nets.push(out);
    }
    nl.finalize().expect("acyclic")
}

/// A random frame, mostly known, from a xorshift state.
fn frame(nets: usize, state: &mut u64) -> Frame {
    (0..nets)
        .map(|_| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            match *state % 8 {
                0..=2 => Lv::Zero,
                3..=5 => Lv::One,
                _ => Lv::X,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_stability_matches_the_single_pair_reference(
        recipe in prop::collection::vec((0usize..64, 0usize..512, 0usize..512, 0usize..512), 12..150),
        seed in any::<u64>(),
    ) {
        let nl = netlist(&recipe);
        let ops = StabilityOps::build(&nl);
        let words = ops.words();
        let mut state = seed | 1;
        let mut lanes = LaneScratch::default();
        let (mut batched, mut reference) = (Vec::new(), Vec::new());
        for fill in FILLS {
            // Consecutive frames, as a segment's pairs are; some pairs
            // repeat a frame, so fully known-equal pairs occur too.
            let mut frames = vec![frame(nl.net_count(), &mut state)];
            for i in 0..fill {
                let next = if i % 5 == 4 { frames[i].clone() } else { frame(nl.net_count(), &mut state) };
                frames.push(next);
            }
            let pairs: Vec<(&Frame, &Frame)> = frames.iter().zip(&frames[1..]).collect();
            for (c, chunk) in pairs.chunks(CHUNK).enumerate() {
                ops.chunk_into(chunk, &mut lanes, &mut batched);
                prop_assert_eq!(batched.len(), chunk.len() * words);
                for (p, (prev, cur)) in chunk.iter().enumerate() {
                    stability_words_into(&nl, prev, cur, &mut reference);
                    prop_assert_eq!(
                        &batched[p * words..(p + 1) * words],
                        &reference[..],
                        "fill {}, chunk {}, pair {}", fill, c, p
                    );
                }
            }
        }
    }
}
