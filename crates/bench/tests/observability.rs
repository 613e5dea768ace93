//! Observability guard: tracing must never perturb result bytes, and
//! the traces it produces must be structurally valid.
//!
//! The whole check lives in **one** `#[test]` because
//! [`xbound_obs::trace::enable`] is process-global and one-way: the
//! untraced reference bounds must be computed before tracing turns on,
//! and a sibling test running concurrently in the same binary would
//! race that ordering.

use xbound_core::jsonin::Json;
use xbound_core::{par, summary, BoundsReport, CoAnalysis, ExploreConfig, UlpSystem};

/// Canonical full-suite bound lines — the exact bytes `suite_summary
/// --bounds` writes — with the suite fanned out over `threads` workers
/// and each exploration batched `lanes` wide.
fn suite_bounds(sys: &UlpSystem, threads: usize, lanes: usize) -> String {
    let lines = par::par_map(
        threads,
        xbound_benchsuite::all().iter().collect(),
        |_, bench| {
            let program = bench.program().expect("assembles");
            let a = CoAnalysis::new(sys)
                .config(ExploreConfig {
                    widen_threshold: bench.widen_threshold(),
                    lanes,
                    ..ExploreConfig::suite_default()
                })
                .energy_rounds(bench.energy_rounds())
                .run(&program)
                .expect("analyzes");
            summary::bounds_line(bench.name(), &BoundsReport::from_analysis(&a)) + "\n"
        },
    );
    lines.concat()
}

#[test]
fn tracing_is_invisible_in_result_bytes_and_traces_are_well_formed() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");

    // Untraced reference first — must precede `enable()`.
    assert!(
        !xbound_obs::trace::enabled(),
        "tracing must be off for the reference run (XBOUND_TRACE leaked into the test env?)"
    );
    let reference = suite_bounds(&sys, 1, 1);

    xbound_obs::trace::enable();
    for (threads, lanes) in [(1, 1), (1, 8), (3, 1), (3, 8)] {
        let traced = suite_bounds(&sys, threads, lanes);
        assert_eq!(
            traced, reference,
            "traced bounds diverged at threads={threads} lanes={lanes}"
        );
    }

    // The runs above recorded real spans; now validate the exported
    // Chrome trace document.
    assert!(xbound_obs::trace::event_count() > 0, "no events recorded");
    let doc = xbound_obs::trace::chrome_trace_json();
    let v = Json::parse(&doc).expect("trace parses as JSON");
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Per-event shape + collect per-tid spans and thread labels.
    let mut spans: std::collections::BTreeMap<u64, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    let mut labels: Vec<String> = Vec::new();
    let mut names: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(1));
        let name = e.get("name").and_then(Json::as_str).expect("name");
        match ph {
            "M" => {
                assert_eq!(name, "thread_name");
                let label = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("metadata label");
                labels.push(label.to_string());
            }
            "X" => {
                let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
                let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0 && ts.is_finite() && dur.is_finite());
                spans.entry(tid).or_default().push((ts, ts + dur));
                names.insert(name.to_string());
            }
            "i" => {
                let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
                assert!(ts >= 0.0 && ts.is_finite());
                names.insert(name.to_string());
            }
            other => panic!("unexpected phase `{other}`"),
        }
    }

    // The instrumented pipeline stages must all have fired.
    for expected in [
        "co_analysis",
        "explore",
        "peak_power_compose",
        "peak_power.adjust",
        "peak_power.stability",
        "peak_power.assign",
        "power.energy",
        "peak_power.compose",
        "peak_energy",
    ] {
        assert!(names.contains(expected), "no `{expected}` span in trace");
    }
    // The 3-thread runs fanned the suite out over the worker pool: its
    // workers must appear as labeled threads in the trace.
    assert!(
        labels.iter().any(|l| l.starts_with("xbound-par-")),
        "no pool worker thread label in {labels:?}"
    );

    // Spans must nest properly per thread (sort by start, longest
    // first; every span fits inside the enclosing open span).
    for (tid, list) in &mut spans {
        list.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for &(start, end) in list.iter() {
            while let Some(&(_, open_end)) = stack.last() {
                if start >= open_end - 1e-3 {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open_start, open_end)) = stack.last() {
                assert!(
                    start >= open_start - 1e-3 && end <= open_end + 1e-3,
                    "tid {tid}: span [{start}, {end}] straddles [{open_start}, {open_end}]"
                );
            }
            stack.push((start, end));
        }
    }
}
