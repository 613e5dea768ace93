//! Minimal scoped worker-pool helpers (std-only, no external deps).
//!
//! Everything here is deliberately deterministic: [`par_map`] preserves
//! input order in its output regardless of which worker finishes first, so
//! callers produce identical artifacts at any thread count — including the
//! degenerate single-core case where the pool collapses to a plain loop.
//!
//! This module also resolves the two batching knobs of the suite drivers:
//! worker counts ([`resolve_threads`], `XBOUND_THREADS`) and concrete-run
//! lane widths ([`resolve_lanes`], `XBOUND_LANES`) — parallelism ×
//! bit-parallelism.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Upper bound on auto-detected worker counts ("a small worker pool").
pub const MAX_AUTO_THREADS: usize = 8;

/// Default lane width for batched concrete simulation.
pub const DEFAULT_LANES: usize = 32;

static AUTO_THREADS: OnceLock<usize> = OnceLock::new();

/// Resolves a thread-count knob.
///
/// `0` means *auto*: the `XBOUND_THREADS` environment variable if set to a
/// positive integer, otherwise [`std::thread::available_parallelism`],
/// capped at [`MAX_AUTO_THREADS`]. Any positive value is used as-is.
///
/// The auto resolution (environment lookup + parallelism probe) runs once
/// per process and is cached; every later `resolve_threads(0)` call is a
/// plain atomic load. Drivers that want to report the effective worker
/// count (e.g. `suite_summary --json`) can therefore call this freely.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    *AUTO_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("XBOUND_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_AUTO_THREADS)
    })
}

/// Resolves the batched concrete-simulation lane-width knob.
///
/// `0` means *auto*: the `XBOUND_LANES` environment variable if set to a
/// positive integer, otherwise [`DEFAULT_LANES`]; the result is clamped
/// to `1..=`[`xbound_logic::MAX_LANES`] (one bit per lane in a `u64`
/// plane pair). Results are bit-identical at any lane width; the knob
/// only trades memory for gate-pass sharing.
pub fn resolve_lanes(requested: usize) -> usize {
    let lanes = if requested > 0 {
        requested
    } else if let Ok(v) = std::env::var("XBOUND_LANES") {
        v.trim().parse::<usize>().unwrap_or(0)
    } else {
        0
    };
    let lanes = if lanes == 0 { DEFAULT_LANES } else { lanes };
    lanes.clamp(1, xbound_logic::MAX_LANES)
}

/// Default lane width for batched symbolic exploration.
///
/// Narrower than [`DEFAULT_LANES`]: the DFS frontier rarely exposes more
/// than a handful of pending branches at once, and (unlike concrete
/// populations, which run in lock-step from one reset) branches sit at
/// different program points, so their dirty cones overlap less — 8 lanes
/// captures nearly all of the measured pass sharing. Fixed: execution
/// trees, exploration statistics, and every downstream peak-power table
/// are bit-identical at any width.
pub const DEFAULT_EXPLORE_LANES: usize = 8;

/// Renders a panic payload for re-raising with job context (shared by
/// [`par_map_labeled`] and the co-analysis service's job workers).
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Order-preserving parallel map over `items` with a scoped worker pool.
///
/// `f` receives `(index, item)` and may run on any worker; the result
/// vector is indexed like the input. `threads` follows
/// [`resolve_threads`] (`0` = auto). With one thread (or one item) no
/// threads are spawned at all.
///
/// # Panics
///
/// A panicking `f` propagates to the caller with the failing item's index
/// in the message (`par_map: job 3 panicked: ...`) rather than a bare
/// scope-join panic; remaining queued jobs are abandoned. Use
/// [`par_map_labeled`] to name the failing item (e.g. its benchmark).
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map_labeled(threads, items, |_, _| String::new(), f)
}

/// [`par_map`] with a label for panic diagnostics: `label(index, &item)`
/// is evaluated before the item is consumed and appears in the propagated
/// panic message when that job panics
/// (`par_map: job 2 (binSearch) panicked: ...`).
pub fn par_map_labeled<T, R, F, L>(threads: usize, items: Vec<T>, label: L, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    L: Fn(usize, &T) -> String + Sync,
{
    let n = items.len();
    let threads = resolve_threads(threads).min(n.max(1));
    let run_caught = |i: usize, x: T| -> Result<R, (usize, String, String)> {
        let lbl = label(i, &x);
        catch_unwind(AssertUnwindSafe(|| f(i, x)))
            .map_err(|p| (i, lbl, payload_message(p.as_ref())))
    };
    let raise = |(i, lbl, msg): (usize, String, String)| -> ! {
        if lbl.is_empty() {
            panic!("par_map: job {i} panicked: {msg}")
        } else {
            panic!("par_map: job {i} ({lbl}) panicked: {msg}")
        }
    };
    if threads <= 1 {
        let mut out = Vec::with_capacity(n);
        for (i, x) in items.into_iter().enumerate() {
            match run_caught(i, x) {
                Ok(r) => out.push(r),
                Err(ctx) => raise(ctx),
            }
        }
        return out;
    }
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let failed = AtomicBool::new(false);
    let panics: Mutex<Vec<(usize, String, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for w in 0..threads {
            // Named so observability tooling (trace thread tracks, OS
            // profilers) can tell pool workers apart.
            std::thread::Builder::new()
                .name(format!("xbound-par-{w}"))
                .spawn_scoped(s, || loop {
                    if failed.load(Ordering::Relaxed) {
                        break; // abandon remaining jobs after a failure
                    }
                    let job = queue.lock().expect("queue lock").pop_front();
                    let Some((i, x)) = job else { break };
                    match run_caught(i, x) {
                        Ok(r) => results.lock().expect("results lock")[i] = Some(r),
                        Err(ctx) => {
                            failed.store(true, Ordering::Relaxed);
                            panics.lock().expect("panic lock").push(ctx);
                        }
                    }
                })
                .expect("spawn pool worker");
        }
    });
    let mut panics = panics.into_inner().expect("pool joined");
    if !panics.is_empty() {
        panics.sort_by_key(|(i, _, _)| *i);
        raise(panics.swap_remove(0));
    }
    results
        .into_inner()
        .expect("pool joined")
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(4, (0..100).collect::<Vec<i32>>(), |i, x| {
            assert_eq!(i as i32, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i32>>());
    }

    #[test]
    fn par_map_single_thread_matches() {
        let a = par_map(1, vec![1, 2, 3], |_, x| x + 1);
        let b = par_map(3, vec![1, 2, 3], |_, x| x + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn resolve_threads_prefers_explicit() {
        assert_eq!(resolve_threads(5), 5);
        assert!(resolve_threads(0) >= 1);
        assert!(resolve_threads(0) <= MAX_AUTO_THREADS);
    }

    #[test]
    fn resolve_threads_auto_is_cached() {
        // The auto resolution must be stable within a process: repeated
        // calls return the cached value without re-reading the env.
        assert_eq!(resolve_threads(0), resolve_threads(0));
    }

    #[test]
    fn resolve_lanes_clamps_to_word_width() {
        assert_eq!(resolve_lanes(1), 1);
        assert_eq!(resolve_lanes(200), xbound_logic::MAX_LANES);
        assert!(resolve_lanes(0) >= 1);
        assert!(resolve_lanes(0) <= xbound_logic::MAX_LANES);
    }

    fn catch_message(job: impl FnOnce() + Send) -> String {
        let err = catch_unwind(AssertUnwindSafe(job)).expect_err("must panic");
        payload_message(err.as_ref())
    }

    #[test]
    fn panics_carry_item_index_and_label() {
        for threads in [1, 4] {
            let msg = catch_message(|| {
                let names = ["alpha", "beta", "gamma"];
                let _ = par_map_labeled(
                    threads,
                    vec![0usize, 1, 2],
                    |i, _| names[i].to_string(),
                    |_, x| {
                        if x == 1 {
                            panic!("boom {x}");
                        }
                        x
                    },
                );
            });
            assert!(
                msg.contains("job 1") && msg.contains("beta") && msg.contains("boom 1"),
                "missing context at {threads} threads: {msg}"
            );
        }
    }

    #[test]
    fn unlabeled_panics_carry_index() {
        let msg = catch_message(|| {
            let _ = par_map(2, vec![1, 2, 3], |_, x: i32| {
                if x == 3 {
                    panic!("bad item");
                }
                x
            });
        });
        assert!(msg.contains("job 2") && msg.contains("bad item"), "{msg}");
    }
}
