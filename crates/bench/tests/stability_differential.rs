//! The bit-sliced stability kernel against the single-pair reference on
//! every X pair of all 14 suite execution trees: each pair of consecutive
//! adjusted frames holding an X, segment-boundary pairs (parent's last
//! frame, segment's first) included, packed 64 to a kernel call in tree
//! order the way Algorithm 2 packs them.

use xbound_core::peak_power::{merge_adjusted_frames, stability_words_into};
use xbound_core::stability::{LaneScratch, StabilityOps, CHUNK};
use xbound_core::{ExploreConfig, SymbolicExplorer, UlpSystem};
use xbound_logic::Frame;

#[test]
fn batched_stability_matches_reference_on_every_suite_x_pair() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");
    let nl = sys.cpu().netlist();
    let ops = StabilityOps::build(nl);
    let words = ops.words();
    let mut lanes = LaneScratch::default();
    let (mut batched, mut reference) = (Vec::new(), Vec::new());
    let (mut total, mut boundary_pairs) = (0usize, 0usize);
    for b in xbound_benchsuite::all() {
        let config = ExploreConfig {
            widen_threshold: b.widen_threshold(),
            ..ExploreConfig::suite_default()
        };
        let program = b.program().expect("assembles");
        let (tree, _) = SymbolicExplorer::new(sys.cpu(), config)
            .explore(&program)
            .expect("explores");
        let adjusted = merge_adjusted_frames(&tree);
        let mut pairs: Vec<(&Frame, &Frame)> = Vec::new();
        for (si, seg) in tree.segments().iter().enumerate() {
            let frames = &adjusted[si];
            let boundary = seg.parent.and_then(|(p, _)| adjusted[p.index()].last());
            let prevs = boundary.into_iter().chain(frames);
            let curs = frames.iter().skip(usize::from(boundary.is_none()));
            for (k, (prev, cur)) in prevs.zip(curs).enumerate() {
                if prev.x_count() > 0 || cur.x_count() > 0 {
                    pairs.push((prev, cur));
                    boundary_pairs += usize::from(k == 0 && boundary.is_some());
                }
            }
        }
        for chunk in pairs.chunks(CHUNK) {
            ops.chunk_into(chunk, &mut lanes, &mut batched);
            for (p, (prev, cur)) in chunk.iter().enumerate() {
                stability_words_into(nl, prev, cur, &mut reference);
                assert!(
                    batched[p * words..(p + 1) * words] == reference[..],
                    "{}: pair {} of the tree differs",
                    b.name(),
                    total + p
                );
            }
            total += chunk.len();
        }
    }
    assert!(total > 10_000, "the suite holds many X pairs ({total})");
    assert!(boundary_pairs > 0, "boundary pairs are covered");
}
