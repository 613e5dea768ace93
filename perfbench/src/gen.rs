//! Seeded input generation: the PRNG, synthetic programs and their
//! one-instruction edits.
//!
//! The program under test only ever sees the generated sources; the seed
//! stays on this side.

/// SplitMix64: tiny, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Data-RAM words no program reads (synthetic programs store only to
/// 0x0200-0x0203), so a store there can change neither a later read nor
/// the control flow.
fn scratch_addr(rng: &mut Rng) -> u16 {
    0x0600 + 2 * rng.below(128) as u16
}

/// A synthetic program over the input port: four input loads, then
/// three seeded blocks of four ALU operations separated by two compares
/// on input-derived registers, each branching around one operation, then
/// two result stores and the final self-loop. The compares fork the
/// execution tree into seven segments; an edit of the tail leaves the
/// segments before the second fork to the memo. The shape is fixed, so
/// every seed's programs cost about the same; the seed picks operations
/// and registers.
pub fn synthetic_source(rng: &mut Rng, id: u64) -> String {
    const JUMPS: [&str; 4] = ["jl", "jge", "jz", "jnz"];
    const BLOCK: usize = 4;
    let mut s = format!("; synthetic program {id}\nmain:\n");
    let inputs = 4;
    for i in 0..inputs {
        s.push_str(&format!(
            "        mov &0x{:04X}, r{}\n",
            0x20 + 2 * i,
            4 + i
        ));
    }
    alu_block(rng, &mut s, BLOCK);
    for f in 0..2 {
        let a = 4 + rng.below(inputs);
        let b = 4 + (a - 4 + 1 + rng.below(inputs - 1)) % inputs;
        s.push_str(&format!(
            "        cmp r{a}, r{b}\n        {} skip{f}\n",
            JUMPS[rng.below(JUMPS.len())]
        ));
        alu_block(rng, &mut s, 1);
        s.push_str(&format!("skip{f}:\n"));
        alu_block(rng, &mut s, BLOCK);
    }
    for k in 0..2 {
        s.push_str(&format!(
            "        mov r{}, &0x{:04X}\n",
            4 + rng.below(8),
            0x0200 + 2 * k
        ));
    }
    s.push_str(SELF_LOOP);
    s
}

const SELF_LOOP: &str = "        jmp $\n";

/// `n` seeded ALU operations on r4-r11.
fn alu_block(rng: &mut Rng, s: &mut String, n: usize) {
    const OPS: [&str; 8] = ["add", "sub", "xor", "and", "bis", "bic", "addc", "subc"];
    const ONE: [&str; 4] = ["rra", "rrc", "swpb", "sxt"];
    for _ in 0..n {
        let dst = 4 + rng.below(8);
        match rng.below(6) {
            0 => s.push_str(&format!("        {} r{dst}\n", ONE[rng.below(ONE.len())])),
            1 => s.push_str(&format!(
                "        {} #0x{:04X}, r{dst}\n",
                OPS[rng.below(OPS.len())],
                rng.next_u64() as u16
            )),
            _ => s.push_str(&format!(
                "        {} r{}, r{dst}\n",
                OPS[rng.below(OPS.len())],
                4 + rng.below(8)
            )),
        }
    }
}

/// A one-instruction edit of a synthetic program: a store of a seeded
/// register to a scratch word, inserted before the final self-loop.
pub fn edit_synthetic(rng: &mut Rng, source: &str) -> String {
    let at = source
        .rfind(SELF_LOOP)
        .expect("synthetic programs end in a self-loop");
    let store = format!(
        "        mov r{}, &0x{:04X}\n",
        4 + rng.below(8),
        scratch_addr(rng)
    );
    format!("{}{store}{}", &source[..at], &source[at..])
}
