//! The stability analysis of Algorithm 2, compiled into one flat op list
//! per netlist and evaluated either one frame pair at a time or 64 pairs
//! at a time.
//!
//! A net is *stable* across a frame pair `(prev, cur)` when its value
//! provably cannot differ between the two cycles, even if that value is X.
//! Three rules, each individually sound, decide it:
//!
//! * **base** — a net that is concrete and equal in both frames;
//! * **held** — a flip-flop held by its enable (`en = 0` concrete in
//!   `prev`, and reset inactive) keeps its stored value;
//! * **comb** — a combinational gate whose inputs are all stable produces
//!   the same value (ties are constant, so always stable).
//!
//! [`StabilityOps`] is the netlist reduced to exactly what those rules
//! read: held flip-flops `(out, en, rstn?)`, and the combinational gates
//! as `(out, [in; 3], n)` in topological order ([`Netlist::comb_ops`]; a
//! tie has `n = 0`, and an AND over no inputs is true, so ties come out
//! stable by the comb rule itself). The single-pair reference
//! ([`StabilityOps::pair_into`]) and the bit-sliced kernel
//! ([`StabilityOps::chunk_into`]) walk the same list with the same rules:
//! the kernel only swaps the per-net `bool` for a `u64` lane word holding
//! that net's stability in up to 64 independent pairs.

use xbound_logic::{Frame, Lv};
use xbound_netlist::{CellKind, CombOp, NetId, Netlist};

/// Pairs one [`StabilityOps::chunk_into`] call evaluates at once: one
/// bit of a `u64` lane word each.
pub const CHUNK: usize = 64;

/// A flip-flop the held rule may prove stable.
#[derive(Debug, Clone, Copy)]
struct HeldOp {
    out: NetId,
    en: NetId,
    /// Active-low reset, for flip-flops that have one.
    rstn: Option<NetId>,
}

/// The stability rules of one netlist as a flat op list (see the module
/// docs); the combinational part is borrowed from the netlist.
#[derive(Debug, Clone)]
pub struct StabilityOps<'n> {
    nets: usize,
    held: Vec<HeldOp>,
    comb: &'n [CombOp],
    /// Ascending 64-net blocks holding an `en` or `rstn` net of
    /// `held`: the only blocks whose `prev` planes the kernel transposes.
    held_blocks: Vec<usize>,
}

impl<'n> StabilityOps<'n> {
    /// Compiles the rules of `nl`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is not finalized.
    pub fn build(nl: &'n Netlist) -> StabilityOps<'n> {
        let mut held = Vec::with_capacity(nl.sequential_gates().len());
        let mut read = vec![false; nl.net_count().div_ceil(64)];
        for &g in nl.sequential_gates() {
            let gate = nl.gate(g);
            let pin = |k: usize| gate.inputs()[k];
            let rstn = match gate.kind() {
                CellKind::Dffe => None,
                CellKind::Dffre => Some(pin(2)),
                _ => continue,
            };
            let en = pin(1);
            for n in [Some(en), rstn].into_iter().flatten() {
                read[n.index() / 64] = true;
            }
            held.push(HeldOp {
                out: gate.output(),
                en,
                rstn,
            });
        }
        StabilityOps {
            nets: nl.net_count(),
            held,
            comb: nl.comb_ops(),
            held_blocks: (0..read.len()).filter(|&w| read[w]).collect(),
        }
    }

    /// Words per stability bitset (one bit per net).
    pub fn words(&self) -> usize {
        self.nets.div_ceil(64)
    }

    /// The single-pair reference: fills `stable` with one bit per net,
    /// set when the net is stable across `(prev, cur)`.
    ///
    /// # Panics
    ///
    /// Panics if a frame's length differs from the netlist's net count.
    pub fn pair_into(&self, prev: &Frame, cur: &Frame, stable: &mut Vec<u64>) {
        assert_eq!(prev.len(), self.nets, "frame length mismatch");
        // Base rule, all nets at once; the others only add stability.
        prev.known_equal_words_into(cur, stable);
        let bit = |s: &[u64], n: NetId| (s[n.index() / 64] >> (n.index() % 64)) & 1 == 1;
        let set = |s: &mut [u64], n: NetId| s[n.index() / 64] |= 1 << (n.index() % 64);
        for h in &self.held {
            let held = prev.get(h.en.index()) == Lv::Zero
                && h.rstn.map_or(true, |r| prev.get(r.index()) == Lv::One);
            if held {
                set(stable, h.out);
            }
        }
        for c in self.comb {
            if !bit(stable, c.out) && c.ins[..c.n as usize].iter().all(|&i| bit(stable, i)) {
                set(stable, c.out);
            }
        }
    }

    /// The bit-sliced kernel: the stability bitsets of up to [`CHUNK`]
    /// pairs in one walk of the op list. Pair `p`'s bitset lands in
    /// `out[p * words .. (p + 1) * words]` (`out` is resized to
    /// `pairs.len() * words`), bit-identical to [`StabilityOps::pair_into`]
    /// of that pair.
    ///
    /// Each pair's base words are transposed into per-net lane words
    /// (bit `p` = pair `p`), the held and comb rules run once per net as
    /// lane-wise `u64` ops, and the lanes are transposed back.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` holds more than [`CHUNK`] pairs or a frame's
    /// length differs from the netlist's net count.
    pub fn chunk_into(
        &self,
        pairs: &[(&Frame, &Frame)],
        scratch: &mut LaneScratch,
        out: &mut Vec<u64>,
    ) {
        assert!(pairs.len() <= CHUNK, "at most {CHUNK} pairs per chunk");
        let words = self.words();
        let LaneScratch {
            lanes,
            known_zero: kz,
            known_one: k1,
        } = scratch;
        // Rows first (`lanes[w * 64 + p]` = pair `p`'s word `w`, read
        // frame by frame), then one in-place transpose per 64-net block
        // turns them into lanes (`lanes[net]`, bit `p` = pair `p`).
        for buf in [&mut *lanes, &mut *kz, &mut *k1] {
            buf.clear();
            buf.resize(words * 64, 0);
        }
        let tail = match self.nets % 64 {
            0 => u64::MAX,
            t => (1u64 << t) - 1,
        };
        for (p, (prev, cur)) in pairs.iter().enumerate() {
            assert_eq!(prev.len(), self.nets, "frame length mismatch");
            assert_eq!(cur.len(), self.nets, "frame length mismatch");
            let ((pv, pu), (cv, cu)) = (prev.words(), cur.words());
            // Base rule: known and equal in both frames.
            for w in 0..words {
                lanes[w * 64 + p] = !pu[w] & !cu[w] & !(pv[w] ^ cv[w]);
            }
            if let Some(last) = words.checked_sub(1) {
                lanes[last * 64 + p] &= tail;
            }
            for &w in &self.held_blocks {
                kz[w * 64 + p] = pv[w];
                k1[w * 64 + p] = pu[w];
            }
        }
        for block in lanes.chunks_exact_mut(64) {
            transpose64(block.try_into().expect("64 rows"));
        }
        // Held rule: `en` known 0 and `rstn` known 1 in `prev`; `kz` and
        // `k1` hold `prev`'s value and unknown planes until converted.
        for &w in &self.held_blocks {
            let (vals, unks) = (&mut kz[w * 64..(w + 1) * 64], &mut k1[w * 64..(w + 1) * 64]);
            transpose64(vals.try_into().expect("64 rows"));
            transpose64(unks.try_into().expect("64 rows"));
            for (v, u) in vals.iter_mut().zip(unks) {
                (*v, *u) = (!*v & !*u, *v & !*u);
            }
        }
        for h in &self.held {
            let rst_off = h.rstn.map_or(u64::MAX, |r| k1[r.index()]);
            lanes[h.out.index()] |= kz[h.en.index()] & rst_off;
        }
        for c in self.comb {
            // Unused input slots repeat the first input, so the AND over
            // all three is the AND over the first `n`; over none it is
            // all ones.
            let [a, b, d] = c.ins.map(|i| lanes[i.index()]);
            lanes[c.out.index()] |= if c.n == 0 { u64::MAX } else { a & b & d };
        }
        // Back to one bitset per pair.
        out.clear();
        out.resize(pairs.len() * words, 0);
        for (w, block) in lanes.chunks_exact_mut(64).enumerate() {
            transpose64(block.try_into().expect("64 lanes"));
            for (p, &row) in block.iter().take(pairs.len()).enumerate() {
                out[p * words + w] = row;
            }
        }
    }
}

/// Reusable lane buffers of [`StabilityOps::chunk_into`] (one `u64` per
/// net each), so a tree's chunks allocate once.
#[derive(Debug, Default)]
pub struct LaneScratch {
    lanes: Vec<u64>,
    known_zero: Vec<u64>,
    known_one: Vec<u64>,
}

/// In-place transpose of a 64×64 bit matrix: afterwards bit `c` of
/// `m[r]` is what bit `r` of `m[c]` was. Six rounds of block swaps, each
/// exchanging the off-diagonal halves of every `2j × 2j` tile.
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        for tile in m.chunks_exact_mut(2 * j) {
            let (lo, hi) = tile.split_at_mut(j);
            for (a, b) in lo.iter_mut().zip(hi) {
                let t = ((*a >> j) ^ *b) & mask;
                *b ^= t;
                *a ^= t << j;
            }
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_matches_naive() {
        let mut m = [0u64; 64];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for row in &mut m {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *row = x;
        }
        let orig = m;
        transpose64(&mut m);
        for (r, row) in m.iter().enumerate() {
            for (c, col) in orig.iter().enumerate() {
                assert_eq!((row >> c) & 1, (col >> r) & 1, "bit ({r}, {c})");
            }
        }
        transpose64(&mut m);
        assert_eq!(m, orig, "transpose is an involution");
    }
}
