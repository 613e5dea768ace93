//! Algorithm 2: input-independent peak power computation.
//!
//! The activity-annotated execution tree contains X values wherever the
//! application could not constrain a net. To bound peak power, the Xs of
//! every pair of consecutive cycles `(c−1, c)` are assigned the values that
//! maximize switching energy in cycle `c`:
//!
//! * `(X, X)` → the cell's **maximum-energy transition** (library lookup);
//! * `(v, X)` → `!v` (force a toggle into cycle `c`);
//! * `(X, v)` → `!v` in `c−1` (same);
//!
//! Because assigning `c−1` to maximize cycle `c` conflicts with maximizing
//! cycle `c−1` itself, two assignments are produced — one maximizing all
//! **even** cycles and one all **odd** cycles — power-analyzed separately,
//! and interleaved into the per-cycle peak-power bound trace. The peak
//! power requirement is the maximum of that trace (paper Fig 10 / §3.2).

pub use crate::stability::StabilityOps;
use crate::stability::{LaneScratch, CHUNK};
use crate::tree::{ExecutionTree, SegmentEnd, SegmentId};
use std::collections::VecDeque;
use xbound_cells::CellLibrary;
use xbound_logic::Frame;
use xbound_netlist::{NetId, Netlist};
use xbound_obs::trace::{SpanGuard, StageSpans};
use xbound_power::{EnergyTrace, PowerAnalyzer, PowerTrace};

/// Cycle parity an assignment maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parity {
    /// Maximize even global cycles.
    Even,
    /// Maximize odd global cycles.
    Odd,
}

impl Parity {
    /// `true` when `cycle` has this parity.
    pub fn matches(self, cycle: u64) -> bool {
        match self {
            Parity::Even => cycle % 2 == 0,
            Parity::Odd => cycle % 2 == 1,
        }
    }
}

/// Per-segment resolved frames for one parity assignment.
#[derive(Debug, Clone)]
pub struct ParityAssignment {
    /// Which parity this assignment maximizes.
    pub parity: Parity,
    /// Per segment: the resolved boundary-previous frame (parent's last
    /// frame, private copy) and the resolved segment frames.
    pub segments: Vec<(Option<Frame>, Vec<Frame>)>,
}

/// The peak-power result for one application.
#[derive(Debug, Clone)]
pub struct PeakPowerResult {
    /// Peak power bound, milliwatts.
    pub peak_mw: f64,
    /// Segment and in-segment cycle of the peak.
    pub peak_at: (SegmentId, usize),
    /// Global cycle index of the peak.
    pub peak_cycle: u64,
    /// Per-segment interleaved peak-power bound traces, milliwatts
    /// (`bound[segment][cycle]`).
    pub bound_mw: Vec<Vec<f64>>,
    /// Power traces of the even assignment, per segment.
    pub even_traces: Vec<PowerTrace>,
    /// Power traces of the odd assignment, per segment.
    pub odd_traces: Vec<PowerTrace>,
}

impl PeakPowerResult {
    /// The bound trace of one segment.
    pub fn segment_bound_mw(&self, id: SegmentId) -> &[f64] {
        &self.bound_mw[id.index()]
    }

    /// Maximum bound at each global cycle across all tree paths (the
    /// envelope used for plotting Fig 11-style traces).
    pub fn envelope_mw(&self, tree: &ExecutionTree) -> Vec<f64> {
        let total = tree
            .segments()
            .iter()
            .map(|s| s.start_cycle + s.len() as u64)
            .max()
            .unwrap_or(0) as usize;
        let mut env = vec![0.0f64; total];
        for (si, seg) in tree.segments().iter().enumerate() {
            for ci in 0..seg.len() {
                let g = seg.global_cycle(ci) as usize;
                env[g] = env[g].max(self.bound_mw[si][ci]);
            }
        }
        env
    }
}

/// Computes per-net *stability* between two consecutive frames: a net is
/// stable when its value provably cannot differ between the two cycles,
/// even if that value is X. Rules (each individually sound):
///
/// * a net whose value is concrete and equal in both frames is stable;
/// * a flip-flop held by its enable (`en = 0` concrete at the earlier
///   cycle, and reset inactive) keeps its stored value — stable even if X;
/// * a combinational gate whose inputs are all stable produces the same
///   value — stable (combinational determinism).
///
/// This removes the dominant pessimism of a naive X assignment: idle
/// X-valued cones (e.g. the hardware-multiplier array between multiplies)
/// cannot toggle, because their registered operands are held.
pub fn stability(nl: &Netlist, prev: &Frame, cur: &Frame) -> Vec<bool> {
    let mut words = Vec::new();
    stability_words_into(nl, prev, cur, &mut words);
    (0..nl.net_count())
        .map(|i| (words[i / 64] >> (i % 64)) & 1 == 1)
        .collect()
}

/// Word-packed form of [`stability`] into a reusable bitset buffer: the
/// single-pair reference of the stability analysis.
///
/// It compiles the netlist's [`StabilityOps`] and evaluates them for one
/// pair ([`StabilityOps::pair_into`]). Algorithm 2 itself evaluates the
/// same op list 64 pairs at a time ([`StabilityOps::chunk_into`]), so
/// there is one rule set, and this function is what the bit-sliced kernel
/// is checked against.
pub fn stability_words_into(nl: &Netlist, prev: &Frame, cur: &Frame, stable: &mut Vec<u64>) {
    StabilityOps::build(nl).pair_into(prev, cur, stable);
}

/// Builds per-segment frame copies with **merge-boundary joins** applied:
/// when a merged path continues in a covering segment, the covering
/// segment's first frame is joined with every merged child's final frame,
/// so the transition into the continuation cycle accounts for *any* of the
/// merged predecessors (join only adds X — conservative).
pub fn merge_adjusted_frames(tree: &ExecutionTree) -> Vec<Vec<Frame>> {
    let mut adjusted: Vec<Vec<Frame>> = tree.segments().iter().map(|s| s.frames.clone()).collect();
    for seg in tree.segments() {
        if let SegmentEnd::Merged { into, .. } = seg.end {
            if let Some(last) = seg.frames.last() {
                if !adjusted[into.index()].is_empty() {
                    adjusted[into.index()][0].join_in_place(last);
                }
            }
        }
    }
    adjusted
}

/// Assigns Xs for one parity over the whole tree.
///
/// Segment-boundary pairs use a private copy of the parent's last frame so
/// sibling paths cannot constrain each other (keeps the bound sound for
/// every path independently). Pairs proved stable by [`stability`] are
/// held (no transition charged); the rest follow the paper's maximizing
/// assignment. Frames come from [`merge_adjusted_frames`], which makes the
/// bound valid for paths that re-enter a segment through a memoization
/// merge.
pub fn assign_parity(
    nl: &Netlist,
    lib: &CellLibrary,
    tree: &ExecutionTree,
    parity: Parity,
) -> ParityAssignment {
    let adjusted = merge_adjusted_frames(tree);
    let both = assign_tree(nl, tree, &adjusted, true, &MaxTransitions::build(nl, lib));
    match parity {
        Parity::Even => both.even,
        Parity::Odd => both.odd,
    }
}

/// Max transition (first, second) per net, by driver cell, packed as
/// word-wide bitplanes for the word-parallel resolve kernel; primary
/// inputs default to (false, true).
///
/// The table is a pure function of *(netlist, library energy ordering)*:
/// it only reads each cell's [`xbound_cells::CellPower::max_transition`]
/// direction, never the energy magnitudes. Build it once per
/// `(netlist, library)` and reuse it across every
/// [`compute_peak_power_shared`] call — in particular across all the
/// voltage/clock corners of an operating-point sweep, since a voltage
/// derate scales rise and fall by the same factor and cannot flip any
/// direction (see [`xbound_cells::CellLibrary::derated`]).
#[derive(Debug, Clone)]
pub struct MaxTransitions {
    first: Vec<u64>,
    second: Vec<u64>,
}

impl MaxTransitions {
    /// Builds the table for `nl` mapped to `lib`.
    pub fn build(nl: &Netlist, lib: &CellLibrary) -> MaxTransitions {
        let words = nl.net_count().div_ceil(64);
        let mut first = vec![0u64; words];
        let mut second = vec![0u64; words];
        for i in 0..nl.net_count() {
            let (a, b) = match nl.driver_of(NetId(i as u32)) {
                Some(g) => lib.power(nl.gate(g).kind()).max_transition(),
                None => (false, true),
            };
            if a {
                first[i / 64] |= 1 << (i % 64);
            }
            if b {
                second[i / 64] |= 1 << (i % 64);
            }
        }
        MaxTransitions { first, second }
    }
}

/// The per-stage spans of one Algorithm 2 run (see
/// [`xbound_obs::trace::StageSpans`]), indexed by the constants below.
type Stages = StageSpans<5>;
const STAGE_NAMES: [&str; 5] = [
    "peak_power.adjust",
    "peak_power.stability",
    "peak_power.assign",
    "power.energy",
    "peak_power.compose",
];
const ADJUST: usize = 0;
const STABILITY: usize = 1;
const ASSIGN: usize = 2;
const ENERGY: usize = 3;
const COMPOSE: usize = 4;

/// One segment's resolved frames for one parity: the boundary-previous
/// frame (the parent's adjusted last frame, private copy) and the
/// segment's frames.
pub(crate) type SegmentFrames = (Option<Frame>, Vec<Frame>);

/// A segment being assigned: both parities' frame copies, and how many
/// of its X pairs still wait for their chunk.
struct OpenSegment {
    si: usize,
    even: SegmentFrames,
    odd: SegmentFrames,
    pending: usize,
}

impl OpenSegment {
    fn parity_mut(&mut self, parity: Parity) -> &mut SegmentFrames {
        match parity {
            Parity::Even => &mut self.even,
            Parity::Odd => &mut self.odd,
        }
    }
}

/// An X pair waiting for its chunk: its open segment (by sequence
/// number), its cycle `ci` (the pair is `(ci − 1, ci)`, or `(boundary,
/// 0)`), the parity it is assigned under, and the pre-assignment frames
/// stability reads.
struct PendingPair<'t> {
    seq: usize,
    ci: usize,
    parity: Parity,
    frames: (&'t Frame, &'t Frame),
}

/// Resolves one X pair of `target` in place under a stability bitset.
fn assign_pair(target: &mut SegmentFrames, ci: usize, stable: &[u64], tr: &MaxTransitions) {
    let (boundary, frames) = target;
    let (prev, cur) = if ci == 0 {
        (boundary.as_mut().expect("boundary pair"), &mut frames[0])
    } else {
        let (a, b) = frames.split_at_mut(ci);
        (&mut a[ci - 1], &mut b[0])
    };
    Frame::assign_x_pair(prev, cur, stable, &tr.first, &tr.second);
}

/// The X-assignment stream of Algorithm 2: segments go in, in order,
/// and come out in the same order with both parity assignments resolved.
///
/// Stability depends only on the pre-assignment (adjusted) frames, so
/// every X pair of a tree is independent. The assigner queues each
/// segment's X pairs and evaluates their stability [`CHUNK`] pairs at a
/// time with the bit-sliced kernel, packing pairs of consecutive segments
/// into one chunk. A segment is handed on as soon as its last pair is
/// assigned, so only the segments with pairs in the queue are held — at
/// most one chunk's worth plus the one being queued.
struct Assigner<'t, 'a> {
    adjusted: &'t [Vec<Frame>],
    ops: Option<&'a StabilityOps<'a>>,
    tr: &'a MaxTransitions,
    open: VecDeque<OpenSegment>,
    /// Sequence number of `open.front()`.
    first_seq: usize,
    next_seq: usize,
    queue: VecDeque<PendingPair<'t>>,
    pairs: Vec<(&'t Frame, &'t Frame)>,
    lanes: LaneScratch,
    bits: Vec<u64>,
}

impl<'t, 'a> Assigner<'t, 'a> {
    /// `ops` = `None` disables the stability rules: every bitset is
    /// empty, so every X pair is charged (the ablation of
    /// [`compute_peak_power_opts`]).
    fn new(
        adjusted: &'t [Vec<Frame>],
        ops: Option<&'a StabilityOps<'a>>,
        tr: &'a MaxTransitions,
    ) -> Assigner<'t, 'a> {
        Assigner {
            adjusted,
            ops,
            tr,
            open: VecDeque::new(),
            first_seq: 0,
            next_seq: 0,
            queue: VecDeque::new(),
            pairs: Vec::with_capacity(CHUNK),
            lanes: LaneScratch::default(),
            bits: Vec::new(),
        }
    }

    /// Queues segment `si`, then assigns every full chunk and hands on
    /// (to `emit`, as `(segment, even, odd)`) every segment that is done.
    fn push(
        &mut self,
        tree: &ExecutionTree,
        si: usize,
        stages: &mut Stages,
        emit: &mut impl FnMut(&mut Stages, usize, SegmentFrames, SegmentFrames),
    ) {
        let seg = &tree.segments()[si];
        let adjusted = self.adjusted;
        let boundary = seg.parent.and_then(|(pid, _)| adjusted[pid.index()].last());
        let frames = &adjusted[si];
        let copy = || (boundary.cloned(), frames.clone());
        let mut os = stages.time(ASSIGN, || OpenSegment {
            si,
            even: copy(),
            odd: copy(),
            pending: 0,
        });
        // Pairs `(ci - 1, ci)`, led by `(boundary, 0)` when there is a
        // parent; a pair with no X needs neither stability nor resolution.
        let first_ci = usize::from(boundary.is_none());
        let prevs = boundary.into_iter().chain(frames);
        for (ci, pair) in (first_ci..).zip(prevs.zip(&frames[first_ci.min(frames.len())..])) {
            if pair.0.x_count() == 0 && pair.1.x_count() == 0 {
                continue;
            }
            let parity = if Parity::Even.matches(seg.global_cycle(ci)) {
                Parity::Even
            } else {
                Parity::Odd
            };
            self.queue.push_back(PendingPair {
                seq: self.next_seq,
                ci,
                parity,
                frames: pair,
            });
            os.pending += 1;
        }
        self.open.push_back(os);
        self.next_seq += 1;
        while self.queue.len() >= CHUNK {
            self.run_chunk(stages);
        }
        self.hand_on(stages, emit);
    }

    /// Assigns the queue's remaining pairs and hands on every segment.
    fn finish(
        mut self,
        stages: &mut Stages,
        emit: &mut impl FnMut(&mut Stages, usize, SegmentFrames, SegmentFrames),
    ) {
        while !self.queue.is_empty() {
            self.run_chunk(stages);
        }
        self.hand_on(stages, emit);
        debug_assert!(self.open.is_empty(), "every segment handed on");
    }

    /// Stability for the first (up to) [`CHUNK`] queued pairs in one
    /// kernel call, then their assignments.
    fn run_chunk(&mut self, stages: &mut Stages) {
        let n = self.queue.len().min(CHUNK);
        let words = self.tr.first.len();
        if let Some(ops) = self.ops {
            self.pairs.clear();
            self.pairs
                .extend(self.queue.iter().take(n).map(|p| p.frames));
            let (pairs, lanes, bits) = (&self.pairs, &mut self.lanes, &mut self.bits);
            stages.time(STABILITY, || ops.chunk_into(pairs, lanes, bits));
        } else {
            self.bits.clear();
            self.bits.resize(n * words, 0);
        }
        let (queue, open, bits, tr) = (&mut self.queue, &mut self.open, &self.bits, self.tr);
        let first_seq = self.first_seq;
        stages.time(ASSIGN, || {
            for (k, p) in queue.drain(..n).enumerate() {
                let os = &mut open[p.seq - first_seq];
                assign_pair(
                    os.parity_mut(p.parity),
                    p.ci,
                    &bits[k * words..(k + 1) * words],
                    tr,
                );
                os.pending -= 1;
            }
        });
    }

    /// Hands on the leading segments whose pairs are all assigned.
    /// Leftover Xs (off-parity positions and cycle 0) hold 0: their
    /// cycles are discarded by the interleaving.
    fn hand_on(
        &mut self,
        stages: &mut Stages,
        emit: &mut impl FnMut(&mut Stages, usize, SegmentFrames, SegmentFrames),
    ) {
        while self.open.front().is_some_and(|os| os.pending == 0) {
            let mut os = self.open.pop_front().expect("front exists");
            self.first_seq += 1;
            stages.time(ASSIGN, || {
                for (boundary, frames) in [&mut os.even, &mut os.odd] {
                    boundary
                        .iter_mut()
                        .chain(frames)
                        .for_each(Frame::resolve_x_to_zero);
                }
            });
            emit(stages, os.si, os.even, os.odd);
        }
    }
}

/// Both parity assignments of a whole tree — the discrete stage of
/// Algorithm 2.
///
/// The assignment depends on the library only through the
/// [`MaxTransitions`] table, which is shared by every voltage derate of a
/// base library. An operating-point sweep therefore resolves the tree's
/// Xs **once per base library** and reuses the frames for every corner;
/// frames are exact logic values, so the reuse cannot perturb a single
/// bit downstream.
#[derive(Debug, Clone)]
pub struct TreeAssignments {
    /// The even-maximizing assignment.
    pub even: ParityAssignment,
    /// The odd-maximizing assignment.
    pub odd: ParityAssignment,
}

/// Resolves both parity assignments over precomputed adjusted frames and
/// a precomputed max-transitions table (the per-base-library stage of a
/// sweep; see [`TreeAssignments`]).
pub fn assign_tree(
    nl: &Netlist,
    tree: &ExecutionTree,
    adjusted: &[Vec<Frame>],
    use_stability: bool,
    tr: &MaxTransitions,
) -> TreeAssignments {
    let mut stages = Stages::new(STAGE_NAMES);
    let ops = use_stability.then(|| stages.time(ADJUST, || StabilityOps::build(nl)));
    let n = tree.segments().len();
    let mut even = Vec::with_capacity(n);
    let mut odd = Vec::with_capacity(n);
    let mut collect = |_: &mut Stages, _, e, o| {
        even.push(e);
        odd.push(o);
    };
    let mut assigner = Assigner::new(adjusted, ops.as_ref(), tr);
    for si in 0..n {
        assigner.push(tree, si, &mut stages, &mut collect);
    }
    assigner.finish(&mut stages, &mut collect);
    TreeAssignments {
        even: ParityAssignment {
            parity: Parity::Even,
            segments: even,
        },
        odd: ParityAssignment {
            parity: Parity::Odd,
            segments: odd,
        },
    }
}

/// Both parity assignments of the single segment `si` (with stability):
/// what the on-demand module breakdown of [`crate::coi`] re-analyzes.
pub(crate) fn assign_segment(
    nl: &Netlist,
    tree: &ExecutionTree,
    adjusted: &[Vec<Frame>],
    si: usize,
    tr: &MaxTransitions,
) -> (SegmentFrames, SegmentFrames) {
    let ops = StabilityOps::build(nl);
    let mut stages = Stages::new(STAGE_NAMES);
    let mut out = None;
    let mut keep = |_: &mut Stages, _, e, o| out = Some((e, o));
    let mut assigner = Assigner::new(adjusted, Some(&ops), tr);
    assigner.push(tree, si, &mut stages, &mut keep);
    assigner.finish(&mut stages, &mut keep);
    out.expect("the segment is handed on")
}

/// Per-segment even/odd **energy** traces of one library — the gate-level
/// stage of Algorithm 2, stopped before the clock enters. Per-cycle
/// totals only ([`EnergyTrace`]).
///
/// Transition energies depend on the (possibly derated) library but not
/// on the clock ([`EnergyTrace`]); a sweep runs this once per distinct
/// library and converts per corner via [`compose_peak_power`].
#[derive(Debug, Clone)]
pub struct TreeEnergyTraces {
    /// Even-assignment energy traces, per segment.
    pub even: Vec<EnergyTrace>,
    /// Odd-assignment energy traces, per segment.
    pub odd: Vec<EnergyTrace>,
}

/// Power-analyzes both assignments into per-segment energy traces under
/// `analyzer`'s library (the per-library stage of a sweep; `analyzer`'s
/// clock is not read — see [`TreeEnergyTraces`]).
pub fn analyze_tree_energy(
    analyzer: &PowerAnalyzer,
    assignments: &TreeAssignments,
) -> TreeEnergyTraces {
    let energy = |asg: &ParityAssignment| {
        asg.segments
            .iter()
            .map(|(boundary, frames)| {
                analyzer.analyze_energy_with_boundary(boundary.as_ref(), frames)
            })
            .collect()
    };
    TreeEnergyTraces {
        even: energy(&assignments.even),
        odd: energy(&assignments.odd),
    }
}

/// Converts shared energy traces at `analyzer`'s clock and composes the
/// peak-power bound — the per-corner stage of a sweep.
///
/// Bit-identical to [`compute_peak_power_shared`] over the same
/// assignments with `analyzer`'s library and clock: the conversion
/// replays the exact float operations of the analyzer's own finish step
/// ([`EnergyTrace::to_power_trace`]), and the composition below is the
/// same code both paths run.
pub fn compose_peak_power(
    tree: &ExecutionTree,
    analyzer: &PowerAnalyzer,
    energy: &TreeEnergyTraces,
) -> PeakPowerResult {
    let convert =
        |traces: &[EnergyTrace]| traces.iter().map(|e| e.to_power_trace(analyzer)).collect();
    compose_bound(tree, convert(&energy.even), convert(&energy.odd))
}

/// Runs Algorithm 2 end-to-end: even/odd assignment, power analysis of
/// both, and interleaving into the peak-power bound.
pub fn compute_peak_power(
    nl: &Netlist,
    lib: &CellLibrary,
    clock_hz: f64,
    tree: &ExecutionTree,
) -> PeakPowerResult {
    compute_peak_power_opts(nl, lib, clock_hz, tree, true)
}

/// [`compute_peak_power`] with the stability analysis optionally disabled
/// (ablation knob; `use_stability = false` is the paper's literal
/// Algorithm 2 without the structural-stability refinement).
pub fn compute_peak_power_opts(
    nl: &Netlist,
    lib: &CellLibrary,
    clock_hz: f64,
    tree: &ExecutionTree,
    use_stability: bool,
) -> PeakPowerResult {
    compute_peak_power_cached(nl, lib, clock_hz, tree, use_stability, None)
}

/// [`compute_peak_power_opts`] with an optional **segment-power
/// composition cache** (incremental re-analysis). Each segment's pair of
/// parity traces is a pure function of `(context, start-cycle parity,
/// boundary frame, adjusted frames)`; on a warm re-analysis the traces of
/// unperturbed segments are replayed from the cache (after exact-equality
/// verification of that whole key) instead of re-running the stability /
/// X-assignment / power-analysis kernels. The composed bound is
/// recomputed from the traces either way, so the result is byte-identical
/// with or without a cache — see `crates/core/tests/incremental.rs`.
pub fn compute_peak_power_cached(
    nl: &Netlist,
    lib: &CellLibrary,
    clock_hz: f64,
    tree: &ExecutionTree,
    use_stability: bool,
    cache: Option<(&crate::memo::SegmentPowerCache, u64)>,
) -> PeakPowerResult {
    let _span = compose_span(lib, clock_hz, tree);
    let mut stages = Stages::new(STAGE_NAMES);
    let (tr, adjusted) = stages.time(ADJUST, || {
        (MaxTransitions::build(nl, lib), merge_adjusted_frames(tree))
    });
    peak_power_staged(
        nl,
        lib,
        clock_hz,
        tree,
        use_stability,
        &tr,
        &adjusted,
        cache,
        stages,
    )
}

/// [`compute_peak_power_cached`] over a **precomputed** max-transitions
/// table and merge-adjusted frames — the per-corner kernel of an
/// operating-point sweep ([`crate::sweep`]).
///
/// Both precomputed inputs are corner-invariant: the adjusted frames
/// depend only on the execution tree, and the table only on the library's
/// per-cell energy *ordering* (preserved by voltage derating). A sweep
/// therefore computes each once and fans this function out per corner;
/// the single-corner entry points above run the same body after computing
/// the same values, so the result is byte-identical either way.
#[allow(clippy::too_many_arguments)]
pub fn compute_peak_power_shared(
    nl: &Netlist,
    lib: &CellLibrary,
    clock_hz: f64,
    tree: &ExecutionTree,
    use_stability: bool,
    tr: &MaxTransitions,
    adjusted: &[Vec<Frame>],
    cache: Option<(&crate::memo::SegmentPowerCache, u64)>,
) -> PeakPowerResult {
    let _span = compose_span(lib, clock_hz, tree);
    let stages = Stages::new(STAGE_NAMES);
    peak_power_staged(
        nl,
        lib,
        clock_hz,
        tree,
        use_stability,
        tr,
        adjusted,
        cache,
        stages,
    )
}

/// The `peak_power_compose` span around one Algorithm 2 run; its stages
/// are child spans ([`Stages`]).
fn compose_span(lib: &CellLibrary, clock_hz: f64, tree: &ExecutionTree) -> SpanGuard {
    xbound_obs::trace::span_args("peak_power_compose", || {
        vec![
            ("library".to_string(), lib.name().to_string()),
            ("clock_hz".to_string(), format!("{clock_hz}")),
            ("segments".to_string(), tree.segments().len().to_string()),
        ]
    })
}

/// The one body of every single-corner Algorithm 2 entry point: cache
/// lookups, the streamed stability and X-assignment of the missed
/// segments, their per-cycle energy, and the composition, each timed
/// into its stage span. `stages` drops (recording the spans) before the
/// caller's parent span does.
#[allow(clippy::too_many_arguments)]
fn peak_power_staged(
    nl: &Netlist,
    lib: &CellLibrary,
    clock_hz: f64,
    tree: &ExecutionTree,
    use_stability: bool,
    tr: &MaxTransitions,
    adjusted: &[Vec<Frame>],
    cache: Option<(&crate::memo::SegmentPowerCache, u64)>,
    mut stages: Stages,
) -> PeakPowerResult {
    // `use_stability` is result-relevant: fold it into the cache context so
    // the ablation path can never stitch stability-refined traces.
    let cache = cache.map(|(c, ctx)| (c, ctx ^ if use_stability { 0 } else { 0x5354_4142 }));
    // A segment's cache key besides the context and its frames: start
    // parity and boundary frame.
    let key = |si: usize| {
        let seg = &tree.segments()[si];
        let boundary = seg.parent.and_then(|(pid, _)| adjusted[pid.index()].last());
        (seg.start_cycle % 2 == 1, boundary)
    };
    let (ops, mut traces) = stages.time(ADJUST, || {
        let ops = use_stability.then(|| StabilityOps::build(nl));
        let traces: Vec<Option<(PowerTrace, PowerTrace)>> = (0..tree.segments().len())
            .map(|si| {
                let (c, ctx) = cache?;
                let (odd_start, boundary) = key(si);
                c.lookup(ctx, odd_start, boundary, &adjusted[si])
            })
            .collect();
        (ops, traces)
    });
    let analyzer = PowerAnalyzer::new(nl, lib, clock_hz);
    let misses: Vec<usize> = (0..traces.len())
        .filter(|&si| traces[si].is_none())
        .collect();
    let mut record = |stages: &mut Stages, si: usize, even: SegmentFrames, odd: SegmentFrames| {
        let energy = |(boundary, frames): &SegmentFrames| {
            analyzer
                .analyze_energy_with_boundary(boundary.as_ref(), frames)
                .to_power_trace(&analyzer)
        };
        let (et, ot) = stages.time(ENERGY, || (energy(&even), energy(&odd)));
        if let Some((c, ctx)) = cache {
            let (odd_start, boundary) = key(si);
            c.record(ctx, odd_start, boundary, &adjusted[si], &et, &ot);
        }
        traces[si] = Some((et, ot));
    };
    let mut assigner = Assigner::new(adjusted, ops.as_ref(), tr);
    for si in misses {
        assigner.push(tree, si, &mut stages, &mut record);
    }
    assigner.finish(&mut stages, &mut record);
    let (even_traces, odd_traces) = traces
        .into_iter()
        .map(|t| t.expect("every segment analyzed or replayed"))
        .unzip();
    stages.time(COMPOSE, || compose_bound(tree, even_traces, odd_traces))
}

/// Interleaves per-segment even/odd traces into the peak-power bound —
/// the one composition loop shared by every Algorithm 2 entry point
/// (single-corner, cached, and sweep), which is what keeps their results
/// byte-identical.
fn compose_bound(
    tree: &ExecutionTree,
    even_traces: Vec<PowerTrace>,
    odd_traces: Vec<PowerTrace>,
) -> PeakPowerResult {
    let mut bound = Vec::with_capacity(tree.segments().len());
    let mut peak = 0.0f64;
    let mut peak_at = (SegmentId(0), 0usize);
    let mut peak_cycle = 0u64;
    for (si, seg) in tree.segments().iter().enumerate() {
        // Per-trace cycle offset: traces with a boundary frame have one
        // extra leading cycle (the trace is longer than the segment by
        // exactly that boundary cycle).
        let off = even_traces[si].cycles() - seg.len();
        let mut seg_bound = Vec::with_capacity(seg.len());
        for ci in 0..seg.len() {
            let gc = seg.global_cycle(ci);
            // The bound for a cycle is the larger of the even- and
            // odd-maximizing assignments. The paper interleaves by parity;
            // taking the max additionally keeps the per-cycle bound valid
            // for paths that reach this segment through a memoization merge
            // with the opposite parity (loop bodies of odd length).
            let p = even_traces[si].per_cycle_mw()[ci + off]
                .max(odd_traces[si].per_cycle_mw()[ci + off]);
            seg_bound.push(p);
            if p > peak {
                peak = p;
                peak_at = (SegmentId(si as u32), ci);
                peak_cycle = gc;
            }
        }
        bound.push(seg_bound);
    }
    PeakPowerResult {
        peak_mw: peak,
        peak_at,
        peak_cycle,
        bound_mw: bound,
        even_traces,
        odd_traces,
    }
}

/// Peak-energy computation over the execution tree.
///
/// Total energy of a path is the sum of per-cycle peak-power bounds times
/// the clock period; the peak energy requirement is the maximum over all
/// root-to-halt paths. Merges (memoization edges) make the graph cyclic for
/// input-dependent loops; the value iteration below walks the graph for a
/// bounded number of rounds — exact when it converges (DAG) and otherwise
/// bounded by `max_rounds` (callers supply the loop bound per the paper's
/// §3.3: static analysis or user input).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakEnergyResult {
    /// Peak energy bound over a full execution, joules.
    pub peak_energy_j: f64,
    /// Cycles of the maximizing path.
    pub cycles: u64,
    /// Normalized peak energy (J/cycle) — the paper's Fig 15b/17 metric.
    pub npe_j_per_cycle: f64,
    /// `true` if the value iteration converged (no unbounded loop left).
    pub converged: bool,
}

/// Computes peak energy via value iteration (see [`PeakEnergyResult`]).
pub fn compute_peak_energy(
    tree: &ExecutionTree,
    peak: &PeakPowerResult,
    clock_hz: f64,
    max_rounds: u64,
) -> PeakEnergyResult {
    let _span = xbound_obs::trace::span("peak_energy");
    let period = 1.0 / clock_hz;
    let n = tree.segments().len();
    // Per-segment local energy (J) and cycle count.
    let local: Vec<(f64, u64)> = (0..n)
        .map(|si| {
            let e: f64 = peak.bound_mw[si].iter().map(|mw| mw * 1e-3 * period).sum();
            (e, tree.segments()[si].len() as u64)
        })
        .collect();
    // Value iteration: E[s] = local(s) + max over successors.
    let succ: Vec<Vec<usize>> = (0..n)
        .map(|si| match &tree.segments()[si].end {
            SegmentEnd::Halt | SegmentEnd::Truncated => Vec::new(),
            SegmentEnd::Fork {
                taken, not_taken, ..
            } => vec![taken.index(), not_taken.index()],
            SegmentEnd::Merged { into, .. } => vec![into.index()],
        })
        .collect();
    let mut e = vec![(0.0f64, 0u64); n];
    let mut converged = false;
    for _ in 0..max_rounds {
        let mut changed = false;
        for si in (0..n).rev() {
            let best = succ[si]
                .iter()
                .map(|&t| e[t])
                .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
                .unwrap_or((0.0, 0));
            let cand = (local[si].0 + best.0, local[si].1 + best.1);
            if cand.0 > e[si].0 + 1e-18 {
                e[si] = cand;
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    let (energy, cycles) = e[tree.root().index()];
    PeakEnergyResult {
        peak_energy_j: energy,
        cycles,
        npe_j_per_cycle: if cycles > 0 {
            energy / cycles as f64
        } else {
            0.0
        },
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{ForkChoice, Segment};
    use xbound_logic::{Frame, Lv};
    use xbound_netlist::rtl::Rtl;

    /// A 3-net design standing in for the paper's Fig 10/3.2 example.
    fn toy() -> Netlist {
        let mut r = Rtl::new("toy");
        let a = r.input_bit("a");
        let b = r.input_bit("b");
        let g1 = r.and(a, b);
        let g2 = r.or(a, b);
        let g3 = r.xor(g1, g2);
        r.output_bit("g1", g1);
        r.output_bit("g2", g2);
        r.output_bit("g3", g3);
        r.finish().expect("builds")
    }

    fn frame_of(nl: &Netlist, vals: &[(usize, Lv)]) -> Frame {
        let mut f = Frame::new(nl.net_count());
        for &(i, v) in vals {
            f.set(i, v);
        }
        f
    }

    fn single_segment_tree(nl: &Netlist, rows: &[Vec<Lv>]) -> ExecutionTree {
        let mut tree = ExecutionTree::new();
        let frames: Vec<Frame> = rows
            .iter()
            .map(|row| {
                frame_of(
                    nl,
                    &row.iter()
                        .enumerate()
                        .map(|(i, v)| (i, *v))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        tree.push(Segment {
            parent: None,
            start_cycle: 0,
            frames,
            end: SegmentEnd::Halt,
        });
        tree
    }

    #[test]
    fn fig_3_2_style_assignment_rules() {
        use Lv::{One, Zero, X};
        let nl = toy();
        let lib = xbound_cells::CellLibrary::ulp65();
        // Nine cycles of overlapping Xs on every net (paper Fig 10 shape).
        let n = nl.net_count();
        let rows: Vec<Vec<Lv>> = vec![
            vec![Zero; n],
            vec![Zero; n],
            vec![One; n],
            vec![X; n],
            vec![X; n],
            vec![X; n],
            vec![Zero; n],
            vec![Zero; n],
            vec![Zero; n],
        ];
        let tree = single_segment_tree(&nl, &rows);
        for parity in [Parity::Even, Parity::Odd] {
            let asg = assign_parity(&nl, &lib, &tree, parity);
            let (_, frames) = &asg.segments[0];
            // No X left anywhere.
            for (c, f) in frames.iter().enumerate() {
                for i in 0..f.len() {
                    assert!(f.get(i).is_known(), "cycle {c} net {i} still X");
                }
            }
            // Every target-parity cycle whose pair had X on a driven net
            // shows a transition on that net (the forced-toggle rule).
            for c in 1..rows.len() {
                if !parity.matches(c as u64) {
                    continue;
                }
                #[allow(clippy::needless_range_loop)] // indexes three parallel rows
                for i in 0..n {
                    let had_x = rows[c][i] == X || rows[c - 1][i] == X;
                    let driven = nl.driver_of(xbound_netlist::NetId(i as u32)).is_some();
                    if had_x && driven {
                        assert_ne!(
                            frames[c - 1].get(i),
                            frames[c].get(i),
                            "cycle {c} net {i}: X pair must be assigned a toggle"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn x_pairs_take_max_energy_transition() {
        use Lv::X;
        let nl = toy();
        let lib = xbound_cells::CellLibrary::ulp65();
        let n = nl.net_count();
        let rows = vec![vec![X; n], vec![X; n]];
        let tree = single_segment_tree(&nl, &rows);
        let asg = assign_parity(&nl, &lib, &tree, Parity::Odd);
        let (_, frames) = &asg.segments[0];
        for i in 0..n {
            if let Some(g) = nl.driver_of(xbound_netlist::NetId(i as u32)) {
                let (first, second) = lib.power(nl.gate(g).kind()).max_transition();
                assert_eq!(frames[0].get(i), Lv::from_bool(first), "net {i} first");
                assert_eq!(frames[1].get(i), Lv::from_bool(second), "net {i} second");
            }
        }
    }

    #[test]
    fn stability_holds_for_enabled_registers() {
        use Lv::{One, Zero, X};
        let mut r = Rtl::new("t");
        let d = r.input("d", 4);
        let en = r.input_bit("en");
        let (h, q) = r.reg("held", 4);
        r.reg_next_en(h, &d, en);
        r.output("q", &q);
        let nl = r.finish().expect("builds");
        let en_net = nl.find_net("en").expect("net");
        let rstn = nl.find_net("rstn").expect("net");
        let q0 = nl.find_net("top/held_q[0]").expect("net");
        // en = 0 in the earlier frame, reset inactive, q = X in both:
        // held -> stable.
        let mut prev = Frame::new_all_x(nl.net_count());
        prev.set(en_net.index(), Zero);
        prev.set(rstn.index(), One);
        let mut cur = Frame::new_all_x(nl.net_count());
        cur.set(en_net.index(), One);
        cur.set(rstn.index(), One);
        let st = stability(&nl, &prev, &cur);
        assert!(st[q0.index()], "held register is stable");
        // en = X: not provably held.
        prev.set(en_net.index(), X);
        let st = stability(&nl, &prev, &cur);
        assert!(!st[q0.index()], "unknown enable is not stable");
    }

    #[test]
    fn ablation_charges_what_stability_holds() {
        use Lv::{One, Zero};
        let mut r = Rtl::new("t");
        let d = r.input("d", 4);
        let en = r.input_bit("en");
        let (h, q) = r.reg("held", 4);
        r.reg_next_en(h, &d, en);
        r.output("q", &q);
        let nl = r.finish().expect("builds");
        let net = |name: &str| nl.find_net(name).expect("net").index();
        // Cycle 1 (odd): the register is held by `en = 0`, its value X.
        let mut prev = Frame::new_all_x(nl.net_count());
        prev.set(net("en"), Zero);
        prev.set(net("rstn"), One);
        let mut cur = prev.clone();
        cur.set(net("en"), One);
        let mut tree = ExecutionTree::new();
        tree.push(Segment {
            parent: None,
            start_cycle: 0,
            frames: vec![prev, cur],
            end: SegmentEnd::Halt,
        });
        let adjusted = merge_adjusted_frames(&tree);
        let tr = MaxTransitions::build(&nl, &xbound_cells::CellLibrary::ulp65());
        let q0 = net("top/held_q[0]");
        let toggles = |use_stability| {
            let asg = assign_tree(&nl, &tree, &adjusted, use_stability, &tr);
            let frames = &asg.odd.segments[0].1;
            frames[0].get(q0) != frames[1].get(q0)
        };
        assert!(!toggles(true), "a held register is not charged");
        assert!(toggles(false), "the ablation charges every X pair");
    }

    #[test]
    fn stability_propagates_through_combinational_cones() {
        use Lv::{One, Zero};
        let nl = toy();
        let a = nl.find_net("a").expect("net");
        let b = nl.find_net("b").expect("net");
        let rstn = nl.find_net("rstn").expect("net");
        // Concrete, equal inputs across the pair: whole cone stable even
        // though the frame values of internal nets are X.
        let mut prev = Frame::new_all_x(nl.net_count());
        prev.set(a.index(), One);
        prev.set(b.index(), Zero);
        prev.set(rstn.index(), One);
        let cur = prev.clone();
        let st = stability(&nl, &prev, &cur);
        for (i, stable) in st.iter().enumerate().take(nl.net_count()) {
            assert!(stable, "net {i} should be stable");
        }
    }

    #[test]
    fn merge_adjusted_frames_joins_child_into_owner() {
        use Lv::{One, Zero};
        let nl = toy();
        let mut tree = ExecutionTree::new();
        let n = nl.net_count();
        let rows: Vec<Vec<Lv>> = vec![vec![Zero; n]; 2];
        let root = {
            let frames: Vec<Frame> = rows.iter().map(|r0| r0.iter().copied().collect()).collect();
            tree.push(Segment {
                parent: None,
                start_cycle: 0,
                frames,
                end: SegmentEnd::Halt, // patched below
            })
        };
        let owner = tree.push(Segment {
            parent: Some((root, ForkChoice::Taken)),
            start_cycle: 2,
            frames: vec![Frame::new(n), Frame::new(n)],
            end: SegmentEnd::Halt,
        });
        let merged_frame = {
            let mut f = Frame::new(n);
            f.set(0, One); // differs from owner's first frame
            f
        };
        let merged = tree.push(Segment {
            parent: Some((root, ForkChoice::NotTaken)),
            start_cycle: 2,
            frames: vec![merged_frame],
            end: SegmentEnd::Merged {
                into: owner,
                at_pc: 0,
                widened: false,
            },
        });
        tree.get_mut(root).end = SegmentEnd::Fork {
            branch_pc: 0,
            taken: owner,
            not_taken: merged,
        };
        let adjusted = merge_adjusted_frames(&tree);
        // Owner's first frame: net 0 joined (0 vs 1 -> X).
        assert_eq!(adjusted[owner.index()][0].get(0), Lv::X);
        // Other nets agree -> unchanged.
        assert_eq!(adjusted[owner.index()][0].get(1), Lv::Zero);
        // Merged child's own frames untouched.
        assert_eq!(adjusted[merged.index()][0].get(0), Lv::One);
    }

    #[test]
    fn peak_energy_value_iteration_on_a_dag() {
        let nl = toy();
        use Lv::Zero;
        let n = nl.net_count();
        let rows = vec![vec![Zero; n]; 4];
        let tree = single_segment_tree(&nl, &rows);
        let lib = xbound_cells::CellLibrary::ulp65();
        let peak = compute_peak_power(&nl, &lib, 1.0e6, &tree);
        let e = compute_peak_energy(&tree, &peak, 1.0e6, 100);
        assert!(e.converged, "single segment converges");
        assert_eq!(e.cycles, 4);
        // All-zero frames: energy is the per-cycle floor times 4 cycles.
        assert!(e.peak_energy_j > 0.0);
    }
}
