//! The module breakdown of a cycle of interest is recomputed on demand:
//! the bound path keeps per-cycle totals only. Each breakdown must equal
//! the per-module figures of a full power analysis of the re-assigned
//! winning segment at that cycle, and sum to the cycle's dynamic power.

use xbound_core::peak_power::{assign_tree, merge_adjusted_frames, MaxTransitions};
use xbound_core::{CoAnalysis, ExploreConfig, UlpSystem};

#[test]
fn coi_breakdowns_match_full_analysis_of_the_winning_segment() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");
    let b = xbound_benchsuite::by_name("tHold").expect("suite has tHold");
    let analysis = CoAnalysis::new(&sys)
        .config(ExploreConfig {
            widen_threshold: b.widen_threshold(),
            ..ExploreConfig::suite_default()
        })
        .energy_rounds(b.energy_rounds())
        .run(&b.program().expect("assembles"))
        .expect("analyzes");
    let tree = analysis.tree();
    assert!(analysis.stats().forks > 0, "tHold forks");
    let peak = analysis.peak_power();
    let nl = sys.cpu().netlist();
    let analyzer = sys.analyzer();
    let adjusted = merge_adjusted_frames(tree);
    let assignments = assign_tree(
        nl,
        tree,
        &adjusted,
        true,
        &MaxTransitions::build(nl, sys.library()),
    );

    let cois = analysis.cycles_of_interest(3);
    assert_eq!(cois.len(), 3);
    for coi in &cois {
        let si = coi.segment.index();
        let at = coi.cycle + usize::from(tree.boundary_prev(coi.segment).is_some());
        // The winning parity, as the bound takes it.
        let even_wins =
            peak.even_traces[si].per_cycle_mw()[at] >= peak.odd_traces[si].per_cycle_mw()[at];
        let winner = if even_wins {
            &assignments.even
        } else {
            &assignments.odd
        };
        let (boundary, frames) = &winner.segments[si];
        let full = analyzer.analyze_with_boundary(boundary.as_ref(), frames);
        assert_eq!(full.per_cycle_mw()[at], coi.power_mw, "same cycle power");
        assert_eq!(coi.breakdown, full.module_breakdown_at(at));
        let modules: f64 = coi.breakdown.iter().map(|(_, mw)| mw).sum();
        let dynamic = coi.power_mw - analyzer.floor_mw();
        assert!(dynamic > 0.0);
        assert!(
            (modules - dynamic).abs() <= 1e-9 * dynamic.max(1.0),
            "global cycle {}: modules sum to {modules} mW, dynamic power is {dynamic} mW",
            coi.global_cycle
        );
    }
}
