//! # dosn-obs — the workspace observability plane
//!
//! LibreSocial's framework treats monitoring as a first-class component of
//! a P2P OSN, and the DOSN survey calls out quality-of-service measurement
//! as the gap in most prototypes. This crate closes that gap for the
//! workspace: one shared, std-only layer that every other crate can depend
//! on (it depends on nothing itself) providing
//!
//! * [`Registry`] — a process-wide or per-network table of typed
//!   instruments addressed by hierarchical dotted labels
//!   (`net.read_post.quorum`, `crypto.schnorr.verify`,
//!   `store.get.repair`):
//!   monotonic [`Counter`]s, last-value [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s;
//! * [`Histogram`] — a 65-bucket power-of-two latency/size histogram with
//!   exact count/sum/min/max and bounded-error p50/p95/p99 extraction,
//!   cheap to merge across nodes (the fix for the old
//!   latency-summing `Metrics::merge`);
//! * [`Timer`] — a scoped guard that records elapsed wall microseconds
//!   into a histogram when dropped;
//! * [`RunReport`] — a schema-versioned, deterministically ordered
//!   machine-readable JSON report every bench experiment emits, which is
//!   what lets CI gate on perf regressions (`dosn-bench gate`) instead of
//!   treating `BENCH_*.json` as write-only artifacts;
//! * [`names`] — the single declaration point for every metric-name string
//!   used in the workspace, so a typo'd name fails at test time instead of
//!   silently creating a dead counter.
//!
//! ```
//! use dosn_obs::{Registry, RunReport};
//!
//! let reg = Registry::new();
//! reg.counter("net.posts").add(3);
//! reg.histogram("net.post").record(850);
//! {
//!     let _t = reg.timer("net.read_post.quorum"); // records µs on drop
//! }
//! println!("{}", reg.fmt_table());
//!
//! let mut report = RunReport::new("E13 smoke", true);
//! report.set_headline("posts_per_sec", 1234.5, true, 0.30);
//! report.record_registry(&reg);
//! let json = report.to_json();
//! assert_eq!(RunReport::from_json(&json).unwrap().to_json(), json);
//! ```

#![forbid(unsafe_code)]

pub mod hist;
pub mod names;
pub mod registry;
pub mod report;

pub use hist::{Histogram, Summary};
pub use registry::{Counter, Gauge, HistHandle, Registry, Snapshot, Timer};
pub use report::{Headline, ReportError, RunReport, Value, SCHEMA};
