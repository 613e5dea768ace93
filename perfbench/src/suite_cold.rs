//! `suite_cold`: the 14 suite programs analysed cold, one at a time, in a
//! seeded order per pass. No memo, no cache, default configuration.
//!
//! The traced run measures the same loop untraced and traced (the
//! difference is the tracing overhead), then runs the staged pass: the
//! public stage functions of exploration and Algorithm 2 called one by
//! one under the benchmark's own spans, with the result asserted
//! byte-identical to `CoAnalysis`.

use crate::gen::Rng;
use crate::spans::{check_trace, Spans};
use crate::{
    counter_growth, expected_bounds, named_counters, record_counters, suite_config, Args, Outcome,
    Passes, Setup, Work, NAMED_COUNTERS, SETUPS_PER_GAP,
};
use std::time::Instant;
use xbound_core::peak_power::{
    analyze_tree_energy, assign_tree, compose_peak_power, merge_adjusted_frames,
    stability_words_into, MaxTransitions,
};
use xbound_core::summary::bounds_line;
use xbound_core::{compute_peak_energy, Analysis, BoundsReport, CoAnalysis, SymbolicExplorer};
use xbound_obs::trace;

/// The benchmark's stage spans, in pipeline order, with the per-layer
/// metric each one feeds.
const STAGES: [(&str, &str); 7] = [
    ("bench.explore", "activity.explore_ms"),
    ("bench.adjust", "peak_power.adjust_ms"),
    ("bench.max_transitions", "peak_power.max_transitions_ms"),
    ("bench.assign", "peak_power.assign_ms"),
    ("bench.energy", "power.energy_ms"),
    ("bench.compose", "peak_power.compose_ms"),
    ("bench.peak_energy", "peak_power.peak_energy_ms"),
];

/// Algorithm 2's stages: everything between exploration and peak energy.
const ALGORITHM2: [&str; 5] = [
    "bench.adjust",
    "bench.max_transitions",
    "bench.assign",
    "bench.energy",
    "bench.compose",
];

/// The memo's registry counters. No memo is attached here, so none may
/// grow; one never registered has not grown.
const MEMO_COUNTERS: [(&str, &str); 4] = [
    ("memo.hits", "xbound_memo_hits_total"),
    ("memo.misses", "xbound_memo_misses_total"),
    ("memo.power_hits", "xbound_memo_power_hits_total"),
    ("memo.power_misses", "xbound_memo_power_misses_total"),
];

pub fn run(args: &Args) -> Result<Outcome, String> {
    let expected = expected_bounds()?;
    let (setup, (), mut out) = Setup::start(SETUPS_PER_GAP, || Ok(()))?;
    let mut rng = Rng::new(args.seed);
    let memo_before = named_counters(&MEMO_COUNTERS);
    if !args.trace {
        let run = cold_loop(&setup, &expected, &mut rng, args.seconds, &mut out)?;
        out.e2e.insert("bounds_per_s", run.bounds_per_s());
        if let Some(mb) = run.peak_rss_mb {
            out.e2e.insert("peak_rss_mb", mb);
        }
        out.latencies(&run.latencies);
        out.passes = run.passes;
        spot_check(&setup, &run.last, &mut out)?;
        no_memo(&memo_before, &mut out);
        return Ok(out);
    }
    let third = args.seconds / 3.0;
    let untraced = cold_loop(&setup, &expected, &mut rng, third, &mut out)?;
    trace::enable();
    let traced = cold_loop(&setup, &expected, &mut rng, third, &mut out)?;
    out.layer.insert(
        "trace.overhead_bounds_per_s",
        traced.bounds_per_s() - untraced.bounds_per_s(),
    );
    out.notes.push(format!(
        "bounds_per_s untraced {:.3} over {} passes, traced {:.3} over {} passes",
        untraced.bounds_per_s(),
        untraced.passes,
        traced.bounds_per_s(),
        traced.passes
    ));
    staged(&setup, &expected, &traced.last, &mut rng, third, &mut out)?;
    spot_check(&setup, &traced.last, &mut out)?;
    no_memo(&memo_before, &mut out);
    Ok(out)
}

/// Checks that the run left the memo counters where they were, and
/// records them; the memo ratios are 0 with no lookups, and a stitched
/// segment needs a memo hit.
fn no_memo(before: &[Option<u64>], out: &mut Outcome) {
    let growth: Vec<u64> = counter_growth(&MEMO_COUNTERS, before)
        .into_iter()
        .map(|g| g.unwrap_or(0))
        .collect();
    out.check(growth.iter().all(|&g| g == 0), || {
        format!("memo counters grew without a memo: {growth:?} (hits, misses, power hits, power misses)")
    });
    let [hits, misses, power_hits, power_misses] = growth[..] else {
        unreachable!("four memo counters")
    };
    let ratio = |h: u64, m: u64| h as f64 / (h + m).max(1) as f64;
    let n = out.passes.max(1) as f64;
    for (metric, v) in [
        ("memo.hits", hits as f64 / n),
        ("memo.misses", misses as f64 / n),
        ("memo.hit_ratio", ratio(hits, misses)),
        ("memo.stitched_segments", 0.0),
        ("memo.power_hit_ratio", ratio(power_hits, power_misses)),
    ] {
        out.layer.insert(metric, v);
    }
}

/// What one closed loop of cold analyses measured.
struct ColdRun<'s> {
    latencies: Vec<f64>,
    bounds: u64,
    /// Median pass duration.
    pass_s: f64,
    passes: usize,
    /// Median per-pass peak resident memory, MiB, when measurable.
    peak_rss_mb: Option<f64>,
    /// The last analysis of each program, for the checks.
    last: Vec<Option<Analysis<'s>>>,
}

impl ColdRun<'_> {
    /// Bounds per second of the median pass.
    fn bounds_per_s(&self) -> f64 {
        self.bounds as f64 / self.passes as f64 / self.pass_s
    }
}

/// Analyses the suite cold in seeded order, pass after pass, until
/// `seconds` have passed; every report is checked against the expected
/// bounds outside the per-operation timer.
fn cold_loop<'s>(
    setup: &'s Setup,
    expected: &std::collections::BTreeMap<String, String>,
    rng: &mut Rng,
    seconds: f64,
    out: &mut Outcome,
) -> Result<ColdRun<'s>, String> {
    let suite = xbound_benchsuite::all();
    let mut run = ColdRun {
        latencies: Vec::new(),
        bounds: 0,
        pass_s: 0.0,
        passes: 0,
        peak_rss_mb: None,
        last: (0..suite.len()).map(|_| None).collect(),
    };
    let mut passes = Passes::new(seconds);
    while passes.another() {
        let mut order: Vec<usize> = (0..suite.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let b = &suite[i];
            let t0 = Instant::now();
            let result = CoAnalysis::new(&setup.sys)
                .config(suite_config(b.widen_threshold()))
                .energy_rounds(b.energy_rounds())
                .run(&setup.programs[i]);
            let dt = t0.elapsed().as_secs_f64();
            match result {
                Ok(a) => {
                    run.bounds += 1;
                    run.latencies.push(dt);
                    let line = bounds_line(b.name(), &BoundsReport::from_analysis(&a));
                    let ok = expected.get(b.name()) == Some(&line);
                    out.check(ok, || format!("{}: bounds differ: {line}", b.name()));
                    run.last[i] = Some(a);
                }
                Err(e) => out.check(false, || format!("{}: {e}", b.name())),
            }
        }
        passes.finish_then(|| out.sample_setups(SETUPS_PER_GAP, || Ok(())))?;
    }
    run.passes = passes.done;
    run.pass_s = passes.median_s();
    run.peak_rss_mb = passes.median_peak_rss_mb();
    Ok(run)
}

/// Power-dominance spot check per program: every stress input set's
/// measured trace must stay under the program's bound.
fn spot_check(
    setup: &Setup,
    last: &[Option<Analysis<'_>>],
    out: &mut Outcome,
) -> Result<(), String> {
    for (i, b) in xbound_benchsuite::all().iter().enumerate() {
        let Some(a) = &last[i] else {
            continue;
        };
        let inputs = b.stress_inputs();
        let checks = a
            .validate_population(&setup.programs[i], &inputs, b.max_concrete_cycles(), 0, 0)
            .map_err(|e| format!("{}: validation runs: {e}", b.name()))?;
        let sound = checks.iter().all(|c| c.is_sound());
        out.check(sound, || format!("{}: power dominance violated", b.name()));
    }
    Ok(())
}

/// The staged pass, traced: each public stage of exploration and
/// Algorithm 2 under its own span, whole passes until `seconds` have
/// passed (at least one). Stage times are span self times per pass.
fn staged(
    setup: &Setup,
    expected: &std::collections::BTreeMap<String, String>,
    co_analysis: &[Option<Analysis<'_>>],
    rng: &mut Rng,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let suite = xbound_benchsuite::all();
    let sys = &setup.sys;
    let nl = sys.cpu().netlist();
    let analyzer = sys.analyzer();
    let mut passes = Passes::new(seconds);
    let mut work = Work::default();
    let mut x_pairs = 0u64;
    let before = named_counters(&NAMED_COUNTERS);
    let mut stable = Vec::new();
    while passes.another() {
        let _pass = trace::span("bench.pass");
        let mut order: Vec<usize> = (0..suite.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let b = &suite[i];
            let explored = {
                let _s = trace::span("bench.explore");
                SymbolicExplorer::new(sys.cpu(), suite_config(b.widen_threshold()))
                    .explore(&setup.programs[i])
            };
            let (tree, stats) = match explored {
                Ok(t) => t,
                Err(e) => {
                    out.check(false, || format!("{}: staged exploration: {e}", b.name()));
                    continue;
                }
            };
            let adjusted = {
                let _s = trace::span("bench.adjust");
                merge_adjusted_frames(&tree)
            };
            let tr = {
                let _s = trace::span("bench.max_transitions");
                MaxTransitions::build(nl, sys.library())
            };
            let assignments = {
                let _s = trace::span("bench.assign");
                assign_tree(nl, &tree, &adjusted, true, &tr)
            };
            let energy = {
                let _s = trace::span("bench.energy");
                analyze_tree_energy(&analyzer, &assignments)
            };
            let peak = {
                let _s = trace::span("bench.compose");
                compose_peak_power(&tree, &analyzer, &energy)
            };
            let peak_energy = {
                let _s = trace::span("bench.peak_energy");
                compute_peak_energy(&tree, &peak, sys.clock_hz(), b.energy_rounds())
            };
            let line = bounds_line(
                b.name(),
                &BoundsReport::from_parts(&tree, &stats, &peak, &peak_energy),
            );
            let direct = co_analysis[i]
                .as_ref()
                .map(|a| bounds_line(b.name(), &BoundsReport::from_analysis(a)));
            let ok = expected.get(b.name()) == Some(&line) && direct.as_ref() == Some(&line);
            out.check(ok, || {
                format!("{}: staged bounds differ from CoAnalysis: {line}", b.name())
            });
            // Stability on its own: every adjusted frame pair of the tree
            // (segment boundaries included) that holds an X.
            let _s = trace::span("bench.stability");
            for (si, seg) in tree.segments().iter().enumerate() {
                let frames = &adjusted[si];
                let boundary = seg.parent.and_then(|(p, _)| adjusted[p.index()].last());
                let prevs = boundary.into_iter().chain(frames.iter());
                for (prev, cur) in prevs.zip(frames.iter().skip(usize::from(boundary.is_none()))) {
                    if prev.x_count() > 0 || cur.x_count() > 0 {
                        stability_words_into(nl, prev, cur, &mut stable);
                        x_pairs += 1;
                    }
                }
            }
            work.add(&stats, tree.segments().len() as u64);
        }
        passes.finish_then(|| out.sample_setups(SETUPS_PER_GAP, || Ok(())))?;
    }
    let n = passes.done as f64;
    record_counters(
        out,
        &NAMED_COUNTERS,
        &counter_growth(&NAMED_COUNTERS, &before),
        n,
    );
    work.record(out, n);
    out.layer.insert("peak_power.x_pairs", x_pairs as f64 / n);

    let trace_path = crate::ScratchDir::new("trace")?;
    let doc = check_trace(
        &trace_path.0.join("trace.json"),
        &[
            "bench.explore",
            "bench.assign",
            "bench.stability",
            "co_analysis",
            "explore",
        ],
    )?;
    out.check(true, String::new);
    let spans = Spans::parse(&doc)?;
    out.complete_trace(&spans);
    let selfs = spans.self_ms(|name| name.starts_with("bench."));
    let per_pass = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / n;
    for (span, metric) in STAGES {
        out.layer.insert(metric, per_pass(span));
    }
    out.layer
        .insert("peak_power.stability_ms", per_pass("bench.stability"));
    let analysis_ms: f64 = STAGES.iter().map(|(s, _)| per_pass(s)).sum();
    let algorithm2_ms: f64 = ALGORITHM2.iter().map(|s| per_pass(s)).sum();
    out.layer
        .insert("peak_power.share", algorithm2_ms / analysis_ms);
    out.layer.insert(
        "activity.ns_per_cycle",
        per_pass("bench.explore") * 1e6 / (work.cycles as f64 / n),
    );
    out.passes = passes.done;
    out.notes.push(format!(
        "staged pass: {} passes; per pass explore {:.1} ms, Algorithm 2 {:.1} ms ({:.1}%), analysis {:.1} ms",
        passes.done,
        per_pass("bench.explore"),
        algorithm2_ms,
        100.0 * algorithm2_ms / analysis_ms,
        analysis_ms
    ));
    Ok(())
}
