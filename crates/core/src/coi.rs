//! Cycles-of-interest (COI) analysis — paper §3.5 / Fig 14.
//!
//! For the cycles where the peak-power bound spikes, reports **which
//! instruction** was in the machine (and in which pipeline phase) and the
//! **per-module power breakdown**, identifying the culprit
//! instruction/module pairs that software optimizations should target.
//!
//! The bound path of Algorithm 2 keeps per-cycle totals only, so the
//! breakdown is recomputed on demand: the winning segment is re-assigned
//! under the winning parity, and that one segment gets the full
//! per-module power analysis.

use crate::peak_power::{self, MaxTransitions, PeakPowerResult};
use crate::tree::{ExecutionTree, SegmentId};
use xbound_cpu::{Cpu, State};
use xbound_logic::XWord;
use xbound_msp430::isa::{decode, Instr};
use xbound_power::PowerAnalyzer;

/// One cycle of interest.
#[derive(Debug, Clone)]
pub struct CycleOfInterest {
    /// Where in the tree the spike occurs.
    pub segment: SegmentId,
    /// Cycle within the segment.
    pub cycle: usize,
    /// Global cycle index.
    pub global_cycle: u64,
    /// Peak-power bound at this cycle, milliwatts.
    pub power_mw: f64,
    /// FSM phase during the cycle.
    pub state: Option<State>,
    /// The in-flight instruction (decoded from IR), if decodable.
    pub instr: Option<Instr>,
    /// Per-module power breakdown, `(module, mW)`, descending.
    pub breakdown: Vec<(String, f64)>,
}

/// Finds the `k` highest-power cycles of the bound trace (at most one per
/// distinct global cycle) and annotates them. `peak` must be the
/// stability-refined bound of `tree` (as [`crate::CoAnalysis`] computes
/// it), and `analyzer` bound to the library and clock it was computed
/// under.
pub fn cycles_of_interest(
    cpu: &Cpu,
    analyzer: &PowerAnalyzer,
    tree: &ExecutionTree,
    peak: &PeakPowerResult,
    k: usize,
) -> Vec<CycleOfInterest> {
    let nl = cpu.netlist();
    let adjusted = peak_power::merge_adjusted_frames(tree);
    let tr = MaxTransitions::build(nl, analyzer.library());
    let mut all: Vec<(f64, SegmentId, usize)> = Vec::new();
    for (si, seg) in tree.segments().iter().enumerate() {
        for ci in 0..seg.len() {
            all.push((peak.bound_mw[si][ci], SegmentId(si as u32), ci));
        }
    }
    all.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite power"));
    let mut seen_cycles = std::collections::HashSet::new();
    let mut out = Vec::new();
    for (p, sid, ci) in all {
        let seg = tree.segment(sid);
        let gc = seg.global_cycle(ci);
        if !seen_cycles.insert(gc) {
            continue;
        }
        let frame = &seg.frames[ci];
        // FSM state from the frame.
        let mut state = None;
        for (i, &net) in cpu.io().states.iter().enumerate() {
            if frame.get(net.index()) == xbound_logic::Lv::One {
                state = Some(State::ALL[i]);
                break;
            }
        }
        // Instruction from IR.
        let mut ir = XWord::ZERO;
        for (b, &net) in cpu.io().ir.iter().enumerate() {
            ir.set_bit(b, frame.get(net.index()));
        }
        let instr = ir
            .to_u16()
            .and_then(|w| decode(&[w, 0, 0], 0).ok())
            .map(|(i, _)| i);
        // Module breakdown of the parity assignment that produced this
        // bound (the larger of the two, matching the bound itself),
        // re-assigned and fully analyzed.
        let off = usize::from(tree.boundary_prev(sid).is_some());
        let et = &peak.even_traces[sid.index()];
        let ot = &peak.odd_traces[sid.index()];
        let even_wins = et.per_cycle_mw().get(ci + off) >= ot.per_cycle_mw().get(ci + off);
        let (even, odd) = peak_power::assign_segment(nl, tree, &adjusted, sid.index(), &tr);
        let (boundary, frames) = if even_wins { even } else { odd };
        let trace = analyzer.analyze_with_boundary(boundary.as_ref(), &frames);
        debug_assert_eq!(
            trace.per_cycle_mw()[ci + off],
            p,
            "re-analysis reproduces the bound"
        );
        let breakdown = trace.module_breakdown_at(ci + off);
        out.push(CycleOfInterest {
            segment: sid,
            cycle: ci,
            global_cycle: gc,
            power_mw: p,
            state,
            instr,
            breakdown,
        });
        if out.len() >= k {
            break;
        }
    }
    out
}

/// Formats a COI report like the paper's Fig 14 caption data.
pub fn format_report(cois: &[CycleOfInterest]) -> String {
    let mut s = String::new();
    for coi in cois {
        s.push_str(&format!(
            "COI {} ({:.4} mW) state={} instr={}\n",
            coi.global_cycle,
            coi.power_mw,
            coi.state.map(|st| st.name()).unwrap_or("?"),
            coi.instr
                .map(|i| i.to_string())
                .unwrap_or_else(|| "?".to_string()),
        ));
        for (m, p) in coi.breakdown.iter().take(4) {
            if *p > 0.0 {
                s.push_str(&format!("    {m:<14} {p:.4} mW\n"));
            }
        }
    }
    s
}
