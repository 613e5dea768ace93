//! The machine and configuration stamp printed with every result.

use xbound_core::jsonout::JsonWriter;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "absent".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "absent".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// directly; "absent" outside a git checkout.
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "absent".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "absent".to_string())
}

/// A knob's setting, read as a string so a deleted knob reads "unset"
/// rather than breaking the build.
fn env_knob(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unset".to_string())
}

/// One compact JSON object: host, toolchain, commit, run configuration
/// and the engine and parallelism knobs the program resolved.
pub fn stamp(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    passes: usize,
    extra: &[(&str, String)],
) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_u64(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    w.field_str("cpu", &cpu_model());
    w.field_str("rustc", &rustc_version());
    w.field_str("git_sha", &git_sha());
    w.field_str("workload", workload);
    w.field_u64("seed", seed);
    w.field_u64("seconds", seconds);
    w.field_bool("trace", trace);
    w.field_u64("passes", passes as u64);
    w.field_str("engine", xbound_core::sim_engine_name());
    for knob in [
        "XBOUND_THREADS",
        "XBOUND_EXPLORE_LANES",
        "XBOUND_LANES",
        "XBOUND_SPECULATION_WINDOW",
        "XBOUND_MEMO",
    ] {
        w.field_str(knob, &env_knob(knob));
    }
    for (k, v) in extra {
        w.field_str(k, v);
    }
    w.end_object();
    w.finish()
}
