//! Order statistics over measured samples.

/// The `q`-quantile (`0 <= q <= 1`) by linear interpolation between
/// closest ranks; `0.0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above the `q`-quantile — the reporting
/// rule asks for at least ten beyond the highest percentile reported.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let t = quantile(samples, q);
    samples.iter().filter(|&&x| x > t).count()
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// one (Linux `clear_refs` 5), so `peak_rss_mb` then reads the peak since
/// this call. `false` when the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
