//! The co-analysis service: a long-running daemon that amortizes,
//! caches, and deduplicates X-based peak power / energy analyses.
//!
//! The paper's bounds are *per-application* artifacts — every new binary
//! (or recompile) needs a fresh co-analysis. A tool server handling that
//! workload from many users should not pay full exploration cost per
//! invocation, so this crate wraps the [`xbound_core`] pipeline in:
//!
//! * a **content-addressed bound cache** ([`cache`]): results keyed by
//!   the hash of *(program image bytes, cell library, operating point,
//!   exploration knobs, energy rounds)*, held in a capacity-bounded
//!   in-memory LRU and persisted on disk so restarts are warm;
//! * a **job scheduler** ([`sched`]): a bounded queue feeding a worker
//!   pool, with single-flight deduplication — N concurrent identical
//!   requests run exactly one underlying analysis;
//! * a **line-delimited JSON protocol** ([`protocol`]) served over
//!   `std::net` TCP ([`server`]) by the `xbound-serve` daemon and spoken
//!   by the `xbound-client` CLI.
//!
//! The correctness contract is byte-identity: a daemon round-trip
//! returns exactly the bytes the direct [`xbound_core::CoAnalysis`] path
//! produces (canonical [`xbound_core::BoundsReport`] JSON), whether the
//! answer was computed fresh, coalesced onto an in-flight job, or
//! replayed from the memory or disk cache — at any worker count. `crates/service/tests/` and the CI service smoke job assert
//! this against `suite_summary --bounds`.
//!
//! ```text
//! xbound-serve --port 4517 --cache-dir results/cache --workers 4 &
//! xbound-client --port 4517 suite mult tea8
//! xbound-client --port 4517 stats
//! xbound-client --port 4517 shutdown
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod json;
pub mod protocol;
pub mod sched;
pub mod server;

pub use cache::{BoundCache, CacheHit, KeyMaterial};
pub use sched::{AnalyzeOutcome, Scheduler, Served};
pub use server::{Server, Service, ServiceConfig};
