//! Differential test: batched symbolic exploration against the scalar
//! explorer on the real MSP430 benchmark suite.
//!
//! The acceptance bar of the lane-generic engine refactor: for every
//! benchmark, the [`xbound_core::SymbolicExplorer`]'s `ExecutionTree`
//! (segment shapes, parents, every per-cycle `Frame`), the deterministic
//! `ExploreStats`, and the downstream peak-power table must be
//! **bit-identical** between the 1-lane reference (the historical scalar
//! explorer) and any lane width.

use xbound_core::peak_power::compute_peak_power;
use xbound_core::{ExecutionTree, ExploreConfig, ExploreStats, SymbolicExplorer, UlpSystem};

fn explore_config(bench: &xbound_benchsuite::Benchmark, lanes: usize) -> ExploreConfig {
    ExploreConfig {
        widen_threshold: bench.widen_threshold(),
        max_total_cycles: 5_000_000,
        lanes,
        ..ExploreConfig::default()
    }
}

fn assert_trees_identical(name: &str, cfg: &str, a: &ExecutionTree, b: &ExecutionTree) {
    assert_eq!(
        a.segments().len(),
        b.segments().len(),
        "{name} {cfg}: segment count"
    );
    for (i, (sa, sb)) in a.segments().iter().zip(b.segments()).enumerate() {
        assert_eq!(
            sa.start_cycle, sb.start_cycle,
            "{name} {cfg}: seg {i} start"
        );
        assert_eq!(sa.parent, sb.parent, "{name} {cfg}: seg {i} parent");
        assert_eq!(sa.end, sb.end, "{name} {cfg}: seg {i} end");
        assert_eq!(sa.frames, sb.frames, "{name} {cfg}: seg {i} frames");
    }
}

fn assert_stats_identical(name: &str, cfg: &str, a: &ExploreStats, b: &ExploreStats) {
    assert_eq!(
        a.deterministic(),
        b.deterministic(),
        "{name} {cfg}: deterministic stats"
    );
}

/// Every benchmark at the default lane width (8), plus the peak-power
/// table downstream.
#[test]
fn all_benchmarks_explore_identically_at_8_lanes() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");
    for bench in xbound_benchsuite::all() {
        let program = bench.program().expect("assembles");
        let reference = SymbolicExplorer::new(sys.cpu(), explore_config(bench, 1))
            .explore(&program)
            .expect("reference explores");
        let batched = SymbolicExplorer::new(sys.cpu(), explore_config(bench, 8))
            .explore(&program)
            .expect("batched explores");
        assert_trees_identical(bench.name(), "8 lanes", &reference.0, &batched.0);
        assert_stats_identical(bench.name(), "8 lanes", &reference.1, &batched.1);
        let peak_ref = compute_peak_power(
            sys.cpu().netlist(),
            sys.library(),
            sys.clock_hz(),
            &reference.0,
        );
        let peak_batched = compute_peak_power(
            sys.cpu().netlist(),
            sys.library(),
            sys.clock_hz(),
            &batched.0,
        );
        assert_eq!(
            peak_ref.peak_mw,
            peak_batched.peak_mw,
            "{}: peak-power bound diverged",
            bench.name()
        );
        assert_eq!(
            peak_ref.peak_at,
            peak_batched.peak_at,
            "{}: peak location diverged",
            bench.name()
        );
        assert_eq!(
            peak_ref.bound_mw,
            peak_batched.bound_mw,
            "{}: per-cycle peak-power table diverged",
            bench.name()
        );
    }
}

/// Fork-heavy benchmarks across the lane matrix: lanes ∈ {8, 64}
/// against the 1-lane reference.
#[test]
fn fork_heavy_benchmarks_explore_identically_across_matrix() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");
    for name in ["binSearch", "tHold", "div"] {
        let bench = xbound_benchsuite::by_name(name).expect("exists");
        let program = bench.program().expect("assembles");
        let reference = SymbolicExplorer::new(sys.cpu(), explore_config(bench, 1))
            .explore(&program)
            .expect("reference explores");
        assert!(
            reference.1.forks > 0,
            "{name} must fork for this test to mean anything"
        );
        for lanes in [8usize, 64] {
            let cfg = format!("{lanes} lanes");
            let got = SymbolicExplorer::new(sys.cpu(), explore_config(bench, lanes))
                .explore(&program)
                .expect("explores");
            assert_trees_identical(name, &cfg, &reference.0, &got.0);
            assert_stats_identical(name, &cfg, &reference.1, &got.1);
            assert_eq!(got.1.batch.lanes, lanes as u64, "{name} {cfg}: lane record");
        }
    }
}
