//! Reading the run's own Chrome trace back: per-name span totals, self
//! times, and validation with the repository's `trace_check` binary.

use std::collections::BTreeMap;
use std::path::Path;
use xbound_obs::jsonin::Json;

/// One complete span: `(name, start_us, dur_us)`.
type Span = (String, f64, f64);

/// The complete (`X`) spans of the trace, per thread.
pub struct Spans {
    by_tid: BTreeMap<u64, Vec<Span>>,
    /// Events the tracer's per-thread rings overwrote.
    pub dropped: u64,
}

impl Spans {
    pub fn parse(doc: &str) -> Result<Spans, String> {
        let json = Json::parse(doc).map_err(|e| format!("trace is not JSON: {e}"))?;
        let events = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("trace has no traceEvents")?;
        let mut by_tid: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        for e in events {
            if e.get("ph").and_then(Json::as_str) != Some("X") {
                continue;
            }
            let field = |k: &str| e.get(k).and_then(Json::as_f64);
            let (Some(name), Some(tid), Some(ts), Some(dur)) = (
                e.get("name").and_then(Json::as_str),
                e.get("tid").and_then(Json::as_u64),
                field("ts"),
                field("dur"),
            ) else {
                return Err("malformed span event".to_string());
            };
            by_tid
                .entry(tid)
                .or_default()
                .push((name.to_string(), ts, dur));
        }
        for spans in by_tid.values_mut() {
            // Parents first: earlier start, then longer duration.
            spans.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite")
                    .then(b.2.partial_cmp(&a.2).expect("finite"))
            });
        }
        let dropped = json
            .get("dropped_events")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        Ok(Spans { by_tid, dropped })
    }

    /// Every duration of spans named `name`, milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.by_tid
            .values()
            .flatten()
            .filter(|s| s.0 == name)
            .map(|s| s.2 / 1e3)
            .collect()
    }

    /// Total milliseconds of spans named `child` lying inside a span
    /// named `parent` on the same thread.
    pub fn within_ms(&self, parent: &str, child: &str) -> f64 {
        let mut total = 0.0;
        for spans in self.by_tid.values() {
            let outer: Vec<(f64, f64)> = spans
                .iter()
                .filter(|s| s.0 == parent)
                .map(|s| (s.1, s.1 + s.2))
                .collect();
            total += spans
                .iter()
                .filter(|s| s.0 == child)
                .filter(|s| outer.iter().any(|&(a, b)| s.1 >= a && s.1 + s.2 <= b))
                .map(|s| s.2)
                .sum::<f64>();
        }
        total / 1e3
    }

    /// Self time per span name, milliseconds, over the spans whose names
    /// `keep` accepts: a span's duration minus the part its kept child
    /// spans cover. Spans the filter rejects are transparent, so the
    /// benchmark's own layer spans nest by themselves even where the
    /// program records spans of its own inside them.
    pub fn self_ms(&self, keep: impl Fn(&str) -> bool) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for spans in self.by_tid.values() {
            // Stack of (end_us, index into `selfs`).
            let mut stack: Vec<(f64, usize)> = Vec::new();
            let mut selfs: Vec<(&str, f64)> = Vec::new();
            for (name, ts, dur) in spans.iter().filter(|s| keep(&s.0)) {
                while stack.last().is_some_and(|&(end, _)| end <= *ts) {
                    stack.pop();
                }
                if let Some(&(_, parent)) = stack.last() {
                    selfs[parent].1 -= dur;
                }
                selfs.push((name, *dur));
                stack.push((ts + dur, selfs.len() - 1));
            }
            for (name, us) in selfs {
                *out.entry(name.to_string()).or_default() += us / 1e3;
            }
        }
        out
    }
}

/// Writes the trace collected so far to `path` and validates it with
/// the `trace_check` binary built next to this one, requiring every name
/// in `expect`.
pub fn check_trace(path: &Path, expect: &[&str]) -> Result<String, String> {
    let doc = xbound_obs::trace::chrome_trace_json();
    std::fs::write(path, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let checker = exe.with_file_name("trace_check");
    let mut cmd = std::process::Command::new(&checker);
    cmd.arg(path);
    for name in expect {
        cmd.args(["--expect", name]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("run {}: {e}", checker.display()))?;
    if !out.status.success() {
        return Err(format!(
            "trace_check rejected the trace: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(doc)
}
