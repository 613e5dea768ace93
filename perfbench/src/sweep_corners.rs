//! `sweep_corners`: the default 8-corner operating-point sweep over each
//! suite program through `run_sweep`, programs in a seeded order per
//! pass, corner fan-out at its default. One exploration serves eight
//! corners, so Algorithm 2's per-library energy stage and the per-corner
//! composition dominate.
//!
//! Checks: every program's nominal corner against the expected bounds,
//! and one seeded (program, corner) against a single-corner `CoAnalysis`
//! at that corner.

use crate::gen::Rng;
use crate::spans::check_trace;
use crate::{
    counter_growth, expected_bounds, named_counters, record_counters, suite_config, Args, Outcome,
    Passes, Setup, Work, NAMED_COUNTERS, SETUPS_PER_GAP,
};
use std::time::Instant;
use xbound_core::summary::bounds_line;
use xbound_core::sweep::{run_sweep, SweepAnalysis, SweepSpec};
use xbound_core::{BoundsReport, CoAnalysis, UlpSystem};
use xbound_obs::trace;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let expected = expected_bounds()?;
    let (setup, (), mut out) = Setup::start(SETUPS_PER_GAP, || Ok(()))?;
    if args.trace {
        trace::enable();
    }
    let suite = xbound_benchsuite::all();
    let spec = SweepSpec::suite_default();
    let mut rng = Rng::new(args.seed);
    let mut latencies = Vec::new();
    let mut bounds = 0u64;
    let (mut explore_s, mut corner_s) = (0.0f64, 0.0f64);
    let (mut tree_reuse, mut tables, mut trace_reuse) = (0u64, 0u64, 0u64);
    let mut work = Work::default();
    let mut last: Vec<Option<SweepAnalysis>> = suite.iter().map(|_| None).collect();
    let before = named_counters(&NAMED_COUNTERS);
    let mut passes = Passes::new(args.seconds);
    while passes.another() {
        let mut order: Vec<usize> = (0..suite.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let b = &suite[i];
            let t0 = Instant::now();
            let result = {
                let _s = trace::span("bench.sweep");
                run_sweep(
                    setup.sys.cpu(),
                    &spec,
                    &setup.programs[i],
                    suite_config(b.widen_threshold()),
                    b.energy_rounds(),
                    0,
                )
            };
            let dt = t0.elapsed().as_secs_f64();
            match result {
                Ok(s) => {
                    latencies.push(dt);
                    bounds += s.corners.len() as u64;
                    // The first corner is the paper's target, the one the
                    // expected bounds hold.
                    let line = bounds_line(b.name(), &s.corners[0].report);
                    let ok = expected.get(b.name()) == Some(&line)
                        && s.corners.len() == spec.corners().len();
                    out.check(ok, || {
                        format!("{}: nominal corner differs: {line}", b.name())
                    });
                    explore_s += s.stats.explore_seconds;
                    corner_s += s.corners.iter().map(|c| c.seconds).sum::<f64>();
                    tree_reuse += s.stats.tree_reuse_hits;
                    tables += s.stats.tables_built;
                    trace_reuse += s.stats.trace_reuse_hits;
                    work.add(&s.explore, s.corners[0].report.segments);
                    last[i] = Some(s);
                }
                Err(e) => out.check(false, || format!("{}: sweep failed: {e}", b.name())),
            }
        }
        passes.finish_then(|| out.sample_setups(SETUPS_PER_GAP, || Ok(())))?;
    }
    // Per second of the median pass.
    let per_pass = |n: u64| n as f64 / passes.done as f64 / passes.median_s();
    out.e2e.insert("bounds_per_s", per_pass(bounds));
    if let Some(mb) = passes.median_peak_rss_mb() {
        out.e2e.insert("peak_rss_mb", mb);
    }
    out.latencies(&latencies);
    out.passes = passes.done;

    // One seeded corner against an independent single-corner analysis.
    let bi = rng.below(suite.len());
    let ci = rng.below(spec.corners().len());
    if let Some(s) = &last[bi] {
        let b = &suite[bi];
        let corner = &spec.corners()[ci];
        let sys = UlpSystem::new(setup.sys.cpu().clone(), corner.library(), corner.clock_hz());
        let direct = CoAnalysis::new(&sys)
            .config(suite_config(b.widen_threshold()))
            .energy_rounds(b.energy_rounds())
            .run(&setup.programs[bi])
            .map(|a| BoundsReport::from_analysis(&a).to_json());
        let swept = s.corners[ci].report.to_json();
        let ok = direct.as_ref() == Ok(&swept);
        out.check(ok, || {
            format!(
                "{} @ {}: sweep corner differs from a single-corner run",
                b.name(),
                corner.label()
            )
        });
        out.notes
            .push(format!("sampled corner: {} @ {}", b.name(), corner.label()));
    }

    if args.trace {
        let dir = crate::ScratchDir::new("trace")?;
        check_trace(
            &dir.0.join("trace.json"),
            &["bench.sweep", "sweep", "sweep_corner"],
        )?;
        out.check(true, String::new);
    }
    let n = passes.done as f64;
    record_counters(
        &mut out,
        &NAMED_COUNTERS,
        &counter_growth(&NAMED_COUNTERS, &before),
        n,
    );
    work.record(&mut out, n);
    for (metric, v) in [
        ("sweep.explore_ms", explore_s * 1e3),
        ("sweep.corner_ms", corner_s * 1e3),
        ("sweep.tree_reuse", tree_reuse as f64),
        ("sweep.tables_built", tables as f64),
        ("sweep.trace_reuse", trace_reuse as f64),
    ] {
        out.layer.insert(metric, v / n);
    }
    out.notes.push(format!(
        "per pass: {:.1} ms shared exploration, {:.1} ms corner passes; {} corners per sweep",
        explore_s * 1e3 / n,
        corner_s * 1e3 / n,
        spec.corners().len()
    ));
    Ok(out)
}
