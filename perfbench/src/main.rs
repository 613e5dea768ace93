//! Seeded end-to-end and per-layer benchmark of the xbound co-analysis.
//!
//! ```text
//! python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each is there):
//!
//! * `suite_cold` — the 14 suite programs analysed cold, one at a time;
//! * `sweep_corners` — the default 8-corner operating-point sweep;
//! * `service_mix` — an open loop of `analyze` requests into an
//!   in-process daemon.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` a separately traced run carries the per-layer split.
//! Every output the program produces is checked; the process exits
//! non-zero on any wrong byte.

mod gen;
mod service_mix;
mod spans;
mod stamp;
mod stats;
mod suite_cold;
mod sweep_corners;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use xbound_core::jsonout::JsonWriter;
use xbound_core::{ExploreConfig, ExploreStats, UlpSystem};
use xbound_msp430::Program;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("bounds_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
/// Times and counts are per pass of the workload (see each workload);
/// a layer the workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("cpu.build_ms", "ms"),
    ("msp430.assemble_ms", "ms"),
    ("activity.explore_ms", "ms"),
    ("activity.ns_per_cycle", "ns"),
    ("activity.cycles", "count"),
    ("activity.forks", "count"),
    ("activity.merges", "count"),
    ("activity.widenings", "count"),
    ("sim.gate_passes", "count"),
    ("activity.steals", "count"),
    ("activity.steal_failures", "count"),
    ("activity.idle_wakeups", "count"),
    ("peak_power.adjust_ms", "ms"),
    ("peak_power.max_transitions_ms", "ms"),
    ("peak_power.stability_ms", "ms"),
    ("peak_power.assign_ms", "ms"),
    ("power.energy_ms", "ms"),
    ("peak_power.compose_ms", "ms"),
    ("peak_power.peak_energy_ms", "ms"),
    ("peak_power.x_pairs", "count"),
    ("peak_power.segments", "count"),
    ("peak_power.share", "fraction"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.hit_ratio", "fraction"),
    ("memo.stitched_segments", "count"),
    ("memo.power_hit_ratio", "fraction"),
    ("sweep.explore_ms", "ms"),
    ("sweep.corner_ms", "ms"),
    ("sweep.tree_reuse", "count"),
    ("sweep.tables_built", "count"),
    ("sweep.trace_reuse", "count"),
    ("server.hit_rtt_ms", "ms"),
    ("cache.hit_ratio", "fraction"),
    ("sched.coalesced", "count"),
    ("sched.analyses_run", "count"),
    ("sched.queue_wait_ms", "ms"),
    ("sched.job_ms", "ms"),
    ("loadgen.late_p95_ms", "ms"),
    ("trace.overhead_bounds_per_s", "1/s"),
];

/// Registry counters read by name, so a deleted mechanism reads
/// "absent" instead of breaking the build: (metric, registry name).
pub type Counters = [(&'static str, &'static str)];

/// The explorer's scheduling counters.
pub const NAMED_COUNTERS: [(&str, &str); 4] = [
    ("sim.gate_passes", "xbound_explore_gate_passes_total"),
    ("activity.steals", "xbound_explore_steals_total"),
    (
        "activity.steal_failures",
        "xbound_explore_steal_failures_total",
    ),
    ("activity.idle_wakeups", "xbound_explore_idle_wakeups_total"),
];

/// Set-ups taken back to back before a closed loop, and again after each
/// of its passes.
pub const SETUPS_PER_GAP: usize = 3;

/// Canonical bounds of the 14 suite programs at the commit that added
/// this benchmark, byte for byte as `suite_summary --bounds` writes them.
const EXPECTED_BOUNDS: &str = include_str!("../expected_bounds.jsonl");

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Per-layer metrics whose source no longer exists.
    pub absent: Vec<&'static str>,
    /// Operations attempted and failed (wrong bytes, error reply, panic).
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Complete passes over the workload's operation set.
    pub passes: usize,
    /// Extra stamp fields (offered rate, latency limit, ...).
    pub stamp: Vec<(&'static str, String)>,
    /// Set when the measurement itself is unusable (the load generator
    /// fell behind, the tracer dropped events); no result is printed then.
    pub invalid: Option<String>,
    /// Every set-up's timings; `setup_s` is their median.
    pub setups: Vec<SetupTimes>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    /// Takes `n` more set-ups, each built from scratch and dropped, with
    /// the workload's own set-up work `extend`. The host's speed drifts
    /// over seconds, so set-ups spread through the run (between passes)
    /// give a steadier median than set-ups back to back.
    pub fn sample_setups<T>(
        &mut self,
        n: usize,
        mut extend: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        for _ in 0..n {
            let (_, _, times) = Setup::timed(Instant::now(), &mut extend)?;
            self.setups.push(times);
        }
        Ok(())
    }

    /// Records the set-up timings: `setup_s` and the two build layers.
    fn record_setups(&mut self) {
        let times = &self.setups;
        let col = |f: fn(&SetupTimes) -> f64| times.iter().map(f).collect::<Vec<_>>();
        self.e2e
            .insert("setup_s", stats::median(&col(|t| t.total_s)));
        self.layer
            .insert("cpu.build_ms", stats::median(&col(|t| t.build_ms)));
        self.layer
            .insert("msp430.assemble_ms", stats::median(&col(|t| t.assemble_ms)));
    }

    /// Marks the run invalid when the tracer's rings overwrote events:
    /// the figures taken from the trace would then silently miss spans.
    pub fn complete_trace(&mut self, spans: &spans::Spans) {
        if spans.dropped > 0 {
            self.invalid = Some(format!("the trace dropped {} events", spans.dropped));
        }
    }

    /// Records closed-loop latency samples (seconds) as p50/p95 in ms.
    pub fn latencies(&mut self, samples_s: &[f64]) {
        let ms: Vec<f64> = samples_s.iter().map(|s| s * 1e3).collect();
        self.e2e.insert("latency_p50_ms", stats::median(&ms));
        self.e2e
            .insert("latency_p95_ms", stats::quantile(&ms, 0.95));
        self.notes.push(format!(
            "latency samples: {} ({} beyond p95)",
            ms.len(),
            stats::beyond(&ms, 0.95)
        ));
    }
}

/// Process start, for the first set-up's "process start until ready".
fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// The system and the assembled suite — the set-up every workload shares.
pub struct Setup {
    pub sys: UlpSystem,
    pub programs: Vec<Program>,
}

/// How long one set-up took.
pub struct SetupTimes {
    /// From the set-up's start (process start for the first) until
    /// ready, including the workload's own set-up work.
    pub total_s: f64,
    pub build_ms: f64,
    pub assemble_ms: f64,
}

impl Setup {
    fn new() -> Result<(Setup, f64, f64), String> {
        let t0 = Instant::now();
        let sys = UlpSystem::openmsp430_class().map_err(|e| format!("system build: {e}"))?;
        let t1 = Instant::now();
        let programs = xbound_benchsuite::all()
            .iter()
            .map(|b| b.program().map_err(|e| format!("{}: {e}", b.name())))
            .collect::<Result<Vec<_>, _>>()?;
        let t2 = Instant::now();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        Ok((Setup { sys, programs }, ms(t1 - t0), ms(t2 - t1)))
    }

    /// One set-up plus the workload's own set-up work `extend`, timed
    /// from `started` until ready.
    fn timed<T>(
        started: Instant,
        extend: impl FnOnce() -> Result<T, String>,
    ) -> Result<(Setup, T, SetupTimes), String> {
        let (setup, build_ms, assemble_ms) = Setup::new()?;
        let extra = extend()?;
        let times = SetupTimes {
            total_s: started.elapsed().as_secs_f64(),
            build_ms,
            assemble_ms,
        };
        Ok((setup, extra, times))
    }

    /// `n` set-ups, each built from scratch after the previous one was
    /// dropped, the first timed from process start. Returns the last
    /// set-up, its extension and the outcome that holds every timing.
    pub fn start<T>(
        n: usize,
        mut extend: impl FnMut() -> Result<T, String>,
    ) -> Result<(Setup, T, Outcome), String> {
        let mut out = Outcome::default();
        let mut started = process_start();
        loop {
            let (setup, extra, times) = Setup::timed(started, &mut extend)?;
            out.setups.push(times);
            if out.setups.len() >= n {
                return Ok((setup, extra, out));
            }
            // The previous set-up goes before the next one starts.
            drop((setup, extra));
            started = Instant::now();
        }
    }
}

/// The suite configuration the drivers and the service use: suite
/// defaults plus the program's widening threshold. Thread, lane and
/// engine knobs stay at their defaults.
pub fn suite_config(widen_threshold: u32) -> ExploreConfig {
    ExploreConfig {
        widen_threshold,
        ..ExploreConfig::suite_default()
    }
}

/// Expected canonical bounds line per suite program name.
pub fn expected_bounds() -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    for line in EXPECTED_BOUNDS.lines() {
        let json = xbound_obs::jsonin::Json::parse(line).map_err(|e| e.to_string())?;
        let name = json
            .get("name")
            .and_then(xbound_obs::jsonin::Json::as_str)
            .ok_or("expected-bounds line without a name")?;
        out.insert(name.to_string(), line.to_string());
    }
    if out.len() != xbound_benchsuite::all().len() {
        return Err("expected-bounds file does not cover the suite".to_string());
    }
    Ok(out)
}

/// Reads the named registry counters from the metrics snapshot;
/// `None` for a counter not registered (yet, or any more).
pub fn named_counters(names: &Counters) -> Vec<Option<u64>> {
    let snap = xbound_obs::jsonin::Json::parse(&xbound_obs::metrics::snapshot_json())
        .expect("metrics snapshot is JSON");
    names
        .iter()
        .map(|(_, reg)| snap.get(reg).and_then(xbound_obs::jsonin::Json::as_u64))
        .collect()
}

/// The named counters' growth since `before`. Instruments register on
/// first use, so one missing from `before` started from zero.
pub fn counter_growth(names: &Counters, before: &[Option<u64>]) -> Vec<Option<u64>> {
    named_counters(names)
        .into_iter()
        .zip(before)
        .map(|(now, then)| now.map(|n| n - then.unwrap_or(0)))
        .collect()
}

/// Records counter growth per pass; a counter the program no longer
/// registers reads "absent".
pub fn record_counters(out: &mut Outcome, names: &Counters, growth: &[Option<u64>], passes: f64) {
    for ((metric, _), g) in names.iter().zip(growth) {
        match g {
            Some(g) => {
                out.layer.insert(metric, *g as f64 / passes);
            }
            None => out.absent.push(metric),
        }
    }
}

/// Deterministic work counts summed over a run's analyses.
#[derive(Default)]
pub struct Work {
    pub cycles: u64,
    forks: u64,
    merges: u64,
    widenings: u64,
    segments: u64,
}

impl Work {
    pub fn add(&mut self, stats: &ExploreStats, segments: u64) {
        let (cycles, forks, merges, widenings) = stats.deterministic();
        self.cycles += cycles;
        self.forks += forks;
        self.merges += merges;
        self.widenings += widenings;
        self.segments += segments;
    }

    /// Records the counts per pass.
    pub fn record(&self, out: &mut Outcome, passes: f64) {
        for (metric, v) in [
            ("activity.cycles", self.cycles),
            ("activity.forks", self.forks),
            ("activity.merges", self.merges),
            ("activity.widenings", self.widenings),
            ("peak_power.segments", self.segments),
        ] {
            out.layer.insert(metric, v as f64 / passes);
        }
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too once the last run's directory is gone.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// Paces whole passes over a workload's operation set, so every run
/// measures the same mix: a pass starts only while the time left holds
/// one more pass as long as the mean so far. The first always runs.
pub struct Passes {
    start: Instant,
    seconds: f64,
    pub done: usize,
    /// Seconds each finished pass took.
    pub times: Vec<f64>,
    /// Peak resident memory of each finished pass, MiB; empty when the
    /// kernel cannot reset the peak.
    peaks_mb: Vec<f64>,
    last: Instant,
}

impl Passes {
    pub fn new(seconds: f64) -> Passes {
        stats::reset_peak_rss();
        let now = Instant::now();
        Passes {
            start: now,
            seconds,
            done: 0,
            times: Vec::new(),
            peaks_mb: Vec::new(),
            last: now,
        }
    }

    /// Marks a pass finished, then runs `gap` outside every pass's time.
    pub fn finish_then(&mut self, gap: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
        self.times.push(self.last.elapsed().as_secs_f64());
        self.peaks_mb.push(stats::peak_rss_mb());
        self.done += 1;
        let result = gap();
        if !stats::reset_peak_rss() {
            self.peaks_mb.clear();
        }
        self.last = Instant::now();
        result
    }

    /// The median pass duration, seconds.
    pub fn median_s(&self) -> f64 {
        stats::median(&self.times)
    }

    /// The median over passes of each pass's peak resident memory, MiB.
    /// One process-wide peak hinges on how the threads of one pass
    /// happened to overlap (sweep_corners read 96-121 MiB between runs);
    /// the median pass does not. `None` when the peak cannot be reset.
    pub fn median_peak_rss_mb(&self) -> Option<f64> {
        (self.peaks_mb.len() == self.done).then(|| stats::median(&self.peaks_mb))
    }

    pub fn another(&self) -> bool {
        let elapsed = self.elapsed_s();
        self.done == 0 || elapsed * (self.done + 1) as f64 / self.done as f64 <= self.seconds
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn emit(args: &Args, out: &Outcome) -> bool {
    let correct = out.failed == 0;
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let values = if args.trace { &out.layer } else { &out.e2e };
    println!(
        "stamp {}",
        stamp::stamp(
            &args.workload,
            args.seed,
            args.seconds as u64,
            args.trace,
            out.passes,
            &out.stamp,
        )
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for e in &out.errors {
        println!("# FAILED: {e}");
    }
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_bool("correct", correct);
    w.field_u64("attempted", out.attempted);
    w.field_u64("failed", out.failed);
    w.key("metrics");
    w.begin_object();
    for (name, unit) in catalogue {
        let measured = values.get(name).copied();
        let value = measured.filter(|v| v.is_finite()).unwrap_or(0.0);
        let mark = if out.absent.contains(name) {
            " (absent)"
        } else if measured.is_none() {
            " (not reached by this workload)"
        } else if measured != Some(value) {
            " (undefined)"
        } else {
            ""
        };
        println!("{name} = {value} {unit}{mark}");
        w.key(name);
        w.begin_object();
        w.field_f64("value", value);
        w.field_str("unit", unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "error_rate = {error_rate} fraction ({} of {} operations)",
        out.failed, out.attempted
    );
    println!("{}", w.finish());
    correct
}

fn main() {
    process_start();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload suite_cold|sweep_corners|service_mix --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "suite_cold" => suite_cold::run,
        "sweep_corners" => sweep_corners::run,
        "service_mix" => service_mix::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some(why) = &out.invalid {
        eprintln!("perfbench: run invalid, no result reported: {why}");
        std::process::exit(3);
    }
    out.record_setups();
    // The closed loops report their median pass's peak; where the peak
    // cannot be reset, the whole process's peak stands in.
    out.e2e
        .entry("peak_rss_mb")
        .or_insert_with(stats::peak_rss_mb);
    // On the closed loops a wrong byte fails the run, so in a passing run
    // every operation is good: goodput is bounds_per_s there.
    if let Some(&b) = out.e2e.get("bounds_per_s") {
        out.e2e.entry("goodput_rps").or_insert(b);
    }
    if !emit(&args, &out) {
        std::process::exit(1);
    }
}
