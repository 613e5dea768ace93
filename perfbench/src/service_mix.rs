//! `service_mix`: an open loop of `analyze` requests at one fixed offered
//! rate into an in-process daemon with a fresh cache directory.
//!
//! The seeded stream mixes exact repeats of programs the daemon has seen
//! (bound-cache hits), one-instruction edits of seen synthetic programs
//! (memo-assisted misses: the edit sits past both forks) and synthetic
//! first-sight programs (cold). The warm set is the 14 suite programs
//! and 16 synthetic ones, analysed during set-up. Only synthetic
//! programs are edited: there is no suite-edit class, so this workload
//! does not show how a suite edit's long miss queues behind others. The
//! schedule is fixed before the run: request `k` is due at `k / RATE`
//! seconds and goes out on connection `k % 2`, and the misses are spread
//! evenly through it (which kind each is, is seeded). One thread sends on
//! time, one receives, so a slow reply never delays a send; latency runs
//! from the due time. (Linux: the receiver waits in `poll(2)`.)
//!
//! After the run every reply is compared byte for byte with the direct
//! path: the canonical reply built from a cold `CoAnalysis` of the same
//! program (the expected bounds for unedited suite programs).

use crate::gen::{edit_synthetic, synthetic_source, Rng};
use crate::spans::{check_trace, Spans};
use crate::{
    counter_growth, named_counters, record_counters, suite_config, Args, Outcome, ScratchDir,
    Setup, NAMED_COUNTERS,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};
use xbound_core::jsonout::JsonWriter;
use xbound_core::{BoundsReport, CoAnalysis};
use xbound_obs::jsonin::Json;
use xbound_obs::trace;
use xbound_service::cache::{bounds_from_json, KeyMaterial};
use xbound_service::protocol::{analyze_response, op_request, DEFAULT_ENERGY_ROUNDS};
use xbound_service::server::{Server, ServiceConfig};

/// Offered rate, requests per second. On a 2-core Xeon a mix with 15 %
/// misses kept its p95 under the limit below up to roughly 200/s (seed 1:
/// 55 ms at 120/s, 80-230 ms at 180-240/s). The rate sits at a fifth of
/// that, not at 70 %: a hit waits for a CPU while a miss's exploration
/// holds both, and the p50 lands where that wait begins. With 15 %
/// misses at 60/s, misses kept the CPUs busy 41 % of the time, hits' p90
/// was 7-9 ms, and in slow host periods p50 swung from 0.4 to 1.0 ms
/// between runs; at 40/s they were busy 22 % of the time and hits' p90
/// was 2 ms.
const RATE: f64 = 40.0;
/// The p95 latency limit; `goodput_rps` counts replies within it.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// A run whose generator sent its p95 request later than this after its
/// due time fell behind the schedule; it is reported invalid.
const LATE_LIMIT_MS: f64 = 10.0;
/// Shares of first-sight synthetic programs and of edits of seen ones in
/// the stream; the rest are exact repeats of seen programs. These are
/// assumptions, not a measured traffic shape: no source describes how
/// often designers resend, edit or add programs. They were chosen so
/// that, with 10 % misses, the p95 is the misses' median, clear of the
/// step from hits (well under 1 ms) to misses (tens of ms) and where the
/// misses' latencies are densest, and so that few hits wait behind a
/// miss (the p50 is the hits' 56th percentile).
const FIRST_SIGHT_SHARE: f64 = 0.05;
const EDIT_SHARE: f64 = 0.05;
/// Synthetic programs in the warm set, beside the 14 suite programs.
const WARM_SYNTHETIC: u64 = 16;
/// Set-ups (daemon start plus warm-up) before the open loop, and after
/// it: the median spans the run's drift in host speed.
const SETUPS_BEFORE: usize = 1;
const SETUPS_AFTER: usize = 2;
/// Connections, served by two load-generator threads (sender, receiver).
const CONNECTIONS: usize = 2;

/// One distinct program the stream can send.
struct Source {
    source: String,
    widen_threshold: u32,
    energy_rounds: u64,
    /// Suite program name, for unedited suite programs.
    suite: Option<&'static str>,
}

impl Source {
    fn request(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field_str("op", "analyze");
        w.field_str("source", &self.source);
        w.field_u64("widen_threshold", u64::from(self.widen_threshold));
        w.field_u64("energy_rounds", self.energy_rounds);
        w.end_object();
        w.finish()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Repeat,
    Edit,
    FirstSight,
}

/// One scheduled request.
struct Planned {
    source: usize,
    kind: Kind,
    due: Duration,
}

/// The daemon and its two client connections; shuts the daemon down
/// and waits for it when dropped.
struct Daemon {
    server: Option<Server>,
    conns: Vec<TcpStream>,
    _dir: ScratchDir,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let dir = ScratchDir::new("cache")?;
        let server = Server::start(ServiceConfig {
            cache_dir: Some(dir.0.clone()),
            ..ServiceConfig::default()
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        let conns = (0..CONNECTIONS)
            .map(|_| TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        for c in &conns {
            c.set_nodelay(true).map_err(|e| e.to_string())?;
        }
        Ok(Daemon {
            server: Some(server),
            conns,
            _dir: dir,
        })
    }

    /// One request, one reply, on connection 0.
    fn call(&self, line: &str) -> Result<String, String> {
        let mut c = &self.conns[0];
        c.set_read_timeout(None).map_err(|e| e.to_string())?;
        writeln!(c, "{line}").map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        BufReader::new(c)
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        Ok(reply.trim_end().to_string())
    }

    fn stats(&self) -> Result<Json, String> {
        Json::parse(&self.call(&op_request("stats"))?).map_err(|e| format!("stats reply: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.call(&op_request("shutdown"));
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.join();
        }
    }
}

/// Set-up: the daemon, the warm set (the 14 suite programs, analysed
/// once so repeats can hit), and the seeded stream.
struct Prepared {
    daemon: Daemon,
    /// Every distinct program: the warm set first, then the stream's.
    sources: Vec<Source>,
    warm: usize,
    plan: Vec<Planned>,
}

fn prepare(seed: u64, seconds: f64) -> Result<Prepared, String> {
    let mut rng = Rng::new(seed);
    let defaults = xbound_core::ExploreConfig::default();
    let synthetic = |source: String| Source {
        source,
        widen_threshold: defaults.widen_threshold,
        energy_rounds: DEFAULT_ENERGY_ROUNDS,
        suite: None,
    };
    let mut sources: Vec<Source> = xbound_benchsuite::all()
        .iter()
        .map(|b| Source {
            source: b.source().to_string(),
            widen_threshold: b.widen_threshold(),
            energy_rounds: b.energy_rounds(),
            suite: Some(b.name()),
        })
        .collect();
    for id in 0..WARM_SYNTHETIC {
        sources.push(synthetic(synthetic_source(&mut rng, id)));
    }
    let daemon = Daemon::start()?;
    // Warm-up: the warm set over both connections, pipelined.
    for (k, s) in sources.iter().enumerate() {
        writeln!(&daemon.conns[k % CONNECTIONS], "{}", s.request()).map_err(|e| e.to_string())?;
    }
    for (k, conn) in daemon.conns.iter().enumerate() {
        let mut reader = BufReader::new(conn);
        for _ in (k..sources.len()).step_by(CONNECTIONS) {
            let mut reply = String::new();
            reader.read_line(&mut reply).map_err(|e| e.to_string())?;
            if !reply.starts_with("{\"ok\": true") {
                return Err(format!("warm-up reply: {reply}"));
            }
        }
    }
    let warm = sources.len();
    let n = (RATE * seconds).round() as usize;
    let n_first = (n as f64 * FIRST_SIGHT_SHARE).round() as usize;
    let n_edit = (n as f64 * EDIT_SHARE).round() as usize;
    let mut misses: Vec<Kind> = (0..n_first + n_edit)
        .map(|k| {
            if k < n_first {
                Kind::FirstSight
            } else {
                Kind::Edit
            }
        })
        .collect();
    rng.shuffle(&mut misses);
    // Request `k` is a miss when it carries the running miss count past
    // an integer: misses come at even spacing, so two never overlap by
    // chance and the latencies do not hinge on how the seed clusters them.
    let share = misses.len() as f64 / n as f64;
    let mut misses = misses.into_iter();
    let kinds: Vec<Kind> = (0..n)
        .map(|k| {
            if ((k + 1) as f64 * share).floor() > (k as f64 * share).floor() {
                misses.next().unwrap_or(Kind::Repeat)
            } else {
                Kind::Repeat
            }
        })
        .collect();
    // Synthetic programs the daemon has seen: the bases of edits.
    let mut bases: Vec<usize> = (warm - WARM_SYNTHETIC as usize..warm).collect();
    let mut plan = Vec::with_capacity(n);
    for (k, kind) in kinds.into_iter().enumerate() {
        let source = match kind {
            Kind::Repeat => rng.below(sources.len()),
            Kind::Edit => {
                let base = bases[rng.below(bases.len())];
                let edited = edit_synthetic(&mut rng, &sources[base].source);
                sources.push(synthetic(edited));
                bases.push(sources.len() - 1);
                sources.len() - 1
            }
            Kind::FirstSight => {
                sources.push(synthetic(synthetic_source(
                    &mut rng,
                    WARM_SYNTHETIC + k as u64,
                )));
                bases.push(sources.len() - 1);
                sources.len() - 1
            }
        };
        plan.push(Planned {
            source,
            kind,
            due: Duration::from_secs_f64(k as f64 / RATE),
        });
    }
    Ok(Prepared {
        daemon,
        sources,
        warm,
        plan,
    })
}

/// What came back for one request.
struct Reply {
    line: String,
    /// Offsets from the start of the run.
    sent: Duration,
    received: Duration,
}

/// Sends the plan on time from the calling thread while one receiver
/// thread collects the replies. The sender sleeps until each request is
/// due; the receiver blocks in `poll(2)` on both connections. Neither
/// spins, so the load generator takes no CPU from the daemon it measures,
/// and every timestamp is taken when its event happens.
fn drive(
    conns: &[TcpStream],
    plan: &[Planned],
    lines: &[String],
    start: Instant,
) -> Result<Vec<(usize, Reply)>, String> {
    for c in conns {
        c.set_nonblocking(true).map_err(|e| e.to_string())?;
    }
    // Per connection, the requests in flight: (request index, sent at).
    let (txs, rxs): (Vec<_>, Vec<_>) = conns.iter().map(|_| mpsc::channel()).unzip();
    let abort = AtomicBool::new(false);
    let result = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(conns, rxs, plan.len(), start, &abort));
        let sent = send_all(conns, plan, lines, txs, start);
        if sent.is_err() {
            abort.store(true, Ordering::SeqCst);
        }
        let received = receiver.join().expect("reply receiver thread");
        sent.and(received)
    });
    for c in conns {
        c.set_nonblocking(false).map_err(|e| e.to_string())?;
    }
    result
}

fn send_all(
    conns: &[TcpStream],
    plan: &[Planned],
    lines: &[String],
    inflight: Vec<Sender<(usize, Duration)>>,
    start: Instant,
) -> Result<(), String> {
    for (k, p) in plan.iter().enumerate() {
        std::thread::sleep(p.due.saturating_sub(start.elapsed()));
        let c = k % conns.len();
        inflight[c]
            .send((k, start.elapsed()))
            .map_err(|_| "the reply receiver stopped")?;
        let bytes = format!("{}\n", lines[k]).into_bytes();
        let mut at = 0;
        while at < bytes.len() {
            match (&conns[c]).write(&bytes[at..]) {
                Ok(n) => at += n,
                // A full send buffer: the wait shows as lateness.
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(200))
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
    }
    Ok(())
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

fn receive(
    conns: &[TcpStream],
    inflight: Vec<Receiver<(usize, Duration)>>,
    total: usize,
    start: Instant,
    abort: &AtomicBool,
) -> Result<Vec<(usize, Reply)>, String> {
    let mut readers: Vec<BufReader<&TcpStream>> = conns.iter().map(BufReader::new).collect();
    let mut bufs = vec![String::new(); conns.len()];
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let mut replies = Vec::with_capacity(total);
    let deadline = Instant::now() + Duration::from_secs(150);
    while replies.len() < total {
        if abort.load(Ordering::SeqCst) {
            return Err("the sender failed".to_string());
        }
        if Instant::now() > deadline {
            return Err("replies still missing after 150 s".to_string());
        }
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` pollfd records, laid out as the C struct, and every
        // descriptor in it belongs to a stream borrowed for this call.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, 100) };
        if ready < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                continue;
            }
            return Err(format!("poll: {e}"));
        }
        for (c, fd) in fds.iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            loop {
                match readers[c].read_line(&mut bufs[c]) {
                    Ok(_) if bufs[c].ends_with('\n') => {
                        let received = start.elapsed();
                        let (k, sent) = inflight[c]
                            .recv()
                            .map_err(|_| "a reply without a request")?;
                        let line = bufs[c].trim_end().to_string();
                        bufs[c].clear();
                        replies.push((
                            k,
                            Reply {
                                line,
                                sent,
                                received,
                            },
                        ));
                    }
                    Ok(_) => return Err("the daemon closed a connection".to_string()),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("receive: {e}")),
                }
            }
        }
    }
    Ok(replies)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (setup, prepared, mut out) =
        Setup::start(SETUPS_BEFORE, || prepare(args.seed, args.seconds))?;
    let Prepared {
        daemon,
        sources,
        warm,
        plan,
    } = prepared;
    let lines: Vec<String> = plan.iter().map(|p| sources[p.source].request()).collect();
    let before = daemon.stats()?;
    let counters_before = named_counters(&NAMED_COUNTERS);
    if args.trace {
        trace::enable();
    }
    let mut replies = drive(&daemon.conns, &plan, &lines, Instant::now())?;
    // The daemon explores in this process, so the registry counters grown
    // over the run are its exploration's.
    let counters = counter_growth(&NAMED_COUNTERS, &counters_before);
    replies.sort_by_key(|(k, _)| *k);
    let window = replies
        .iter()
        .map(|(_, r)| r.received)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let after = daemon.stats()?;
    let trace_doc = if args.trace {
        let dir = ScratchDir::new("trace")?;
        Some(check_trace(
            &dir.0.join("trace.json"),
            &["request", "queue_wait", "analyze_job", "co_analysis"],
        )?)
    } else {
        None
    };
    drop(daemon);

    // The direct path for every distinct program sent.
    let expected = direct_replies(&setup, &sources)?;
    let mut latencies = Vec::with_capacity(replies.len());
    let mut hit_rtts = Vec::new();
    let mut lates = Vec::with_capacity(replies.len());
    let mut good = 0u64;
    // When each program's first reply arrived; the warm set's came in
    // during set-up.
    let mut answered: BTreeMap<usize, Duration> = (0..warm).map(|i| (i, Duration::ZERO)).collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for (k, r) in &replies {
        let p = &plan[*k];
        let latency_ms = ms(r.received - p.due);
        let ok = expected.get(p.source) == Some(&r.line);
        out.check(ok, || {
            format!(
                "request {k}: reply differs from the direct path: {}",
                r.line
            )
        });
        latencies.push(latency_ms);
        lates.push(ms(r.sent.saturating_sub(p.due)));
        if ok && latency_ms <= LATENCY_LIMIT_MS {
            good += 1;
        }
        // A repeat sent after its program's first reply arrived is a
        // bound-cache hit.
        if p.kind == Kind::Repeat && answered.get(&p.source).is_some_and(|t| *t <= r.sent) {
            hit_rtts.push(ms(r.received - r.sent));
        }
        answered.entry(p.source).or_insert(r.received);
    }
    let late_p95 = crate::stats::quantile(&lates, 0.95);
    out.e2e
        .insert("bounds_per_s", replies.len() as f64 / window);
    out.e2e.insert("goodput_rps", good as f64 / window);
    out.e2e
        .insert("latency_p50_ms", crate::stats::median(&latencies));
    out.e2e
        .insert("latency_p95_ms", crate::stats::quantile(&latencies, 0.95));
    out.notes.push(format!(
        "latency samples: {} ({} beyond p95), from the due time",
        latencies.len(),
        crate::stats::beyond(&latencies, 0.95)
    ));
    out.passes = 1;
    let count = |kind| plan.iter().filter(|p| p.kind == kind).count();
    out.notes.push(format!(
        "offered {RATE} req/s over {CONNECTIONS} connections for {:.1} s: {} repeats, {} edits, {} first-sight; {} within the {LATENCY_LIMIT_MS} ms limit",
        plan.last().map_or(0.0, |p| p.due.as_secs_f64()),
        count(Kind::Repeat),
        count(Kind::Edit),
        count(Kind::FirstSight),
        good
    ));
    out.stamp.push(("offered_rps", format!("{RATE}")));
    out.stamp
        .push(("latency_limit_ms", format!("{LATENCY_LIMIT_MS}")));
    out.stamp.push((
        "service_workers",
        after
            .get("workers")
            .and_then(Json::as_u64)
            .map_or("absent".to_string(), |w| w.to_string()),
    ));

    let delta = |k: &str| -> Option<f64> {
        Some(after.get(k)?.as_u64()? as f64 - before.get(k)?.as_u64()? as f64)
    };
    let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    let mut layer = |metric: &'static str, v: Option<f64>| match v {
        Some(v) => {
            out.layer.insert(metric, v);
        }
        None => out.absent.push(metric),
    };
    let cache_hits = delta("cache_hits_memory")
        .zip(delta("cache_hits_disk"))
        .map(|(m, d)| m + d);
    layer(
        "cache.hit_ratio",
        cache_hits
            .zip(delta("cache_misses"))
            .map(|(h, m)| ratio(h, m)),
    );
    layer("sched.coalesced", delta("coalesced"));
    layer("sched.analyses_run", delta("analyses_run"));
    layer("memo.hits", delta("memo_hits"));
    layer("memo.misses", delta("memo_misses"));
    layer(
        "memo.hit_ratio",
        delta("memo_hits")
            .zip(delta("memo_misses"))
            .map(|(h, m)| ratio(h, m)),
    );
    layer("memo.stitched_segments", delta("memo_stitched_segments"));
    layer(
        "memo.power_hit_ratio",
        delta("memo_power_hits")
            .zip(delta("memo_power_misses"))
            .map(|(h, m)| ratio(h, m)),
    );
    layer("server.hit_rtt_ms", Some(crate::stats::median(&hit_rtts)));
    layer("loadgen.late_p95_ms", Some(late_p95));
    if let Some(doc) = trace_doc {
        let spans = Spans::parse(&doc)?;
        layer(
            "sched.queue_wait_ms",
            Some(crate::stats::median(&spans.durations_ms("queue_wait"))),
        );
        layer(
            "sched.job_ms",
            Some(crate::stats::median(&spans.durations_ms("analyze_job"))),
        );
        out.complete_trace(&spans);
        out.check(true, String::new);
    }
    record_counters(&mut out, &NAMED_COUNTERS, &counters, 1.0);
    // The peak of the workload itself: the set-ups sampled after it start
    // fresh daemons in a heap the run has fragmented.
    out.e2e.insert("peak_rss_mb", crate::stats::peak_rss_mb());
    out.sample_setups(SETUPS_AFTER, || prepare(args.seed, args.seconds))?;
    if late_p95 > LATE_LIMIT_MS {
        out.invalid = Some(format!(
            "the load generator fell behind: p95 send lateness {late_p95:.2} ms > {LATE_LIMIT_MS} ms"
        ));
    }
    Ok(out)
}

/// The canonical `analyze` reply of the direct path for every source:
/// the expected bounds for unedited suite programs, a cold memo-less
/// `CoAnalysis` (on two threads) for everything else.
fn direct_replies(setup: &Setup, sources: &[Source]) -> Result<Vec<String>, String> {
    let expected = crate::expected_bounds()?;
    let sys = &setup.sys;
    let reply = |s: &Source| -> Result<String, String> {
        let program = xbound_msp430::assemble(&s.source).map_err(|e| e.to_string())?;
        let config = suite_config(s.widen_threshold);
        let key = KeyMaterial::new(sys, &program, &config, s.energy_rounds).hex();
        let report = match s.suite {
            Some(name) => {
                let line = expected
                    .get(name)
                    .ok_or("suite program without expected bounds")?;
                let json = Json::parse(line).map_err(|e| e.to_string())?;
                bounds_from_json(json.get("bounds").ok_or("expected line without bounds")?)?
            }
            None => CoAnalysis::new(sys)
                .config(config)
                .energy_rounds(s.energy_rounds)
                .run(&program)
                .map(|a| BoundsReport::from_analysis(&a))
                .map_err(|e| e.to_string())?,
        };
        Ok(analyze_response(&key, &report))
    };
    let half = sources.len() / 2;
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| sources[half..].iter().map(reply).collect::<Vec<_>>());
        let mine: Vec<_> = sources[..half].iter().map(reply).collect();
        (mine, other.join().expect("direct-path thread"))
    });
    a.into_iter()
        .chain(b)
        .map(|r| r.or_else(|e| Ok(format!("direct path failed: {e}"))))
        .collect()
}
