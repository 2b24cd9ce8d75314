//! # kmatch-obs — zero-overhead solver observability
//!
//! The fast engines carry no event hooks in their hot loops (the paper's
//! event traces come from the reference solvers), so the paper's cost
//! quantities — Theorem 3's `(k−1)·n²` proposal bound, Irving's
//! phase-1/phase-2 operation counts — need another way out. This crate
//! provides it the standard production way: cheap always-on counters and
//! histograms with a compile-time zero-cost off switch.
//!
//! * [`Metrics`] — the one observer hook set engines are generic over,
//!   monomorphized per observer: counter hooks, span hooks
//!   (recorded by `kmatch-trace`) and phase hooks (published by
//!   `kmatch-forensics`), each a no-op by default. The [`NoMetrics`] unit
//!   impl erases every call site (the default solver entry points use it,
//!   so their codegen is unchanged), while [`SolverMetrics`] is a plain
//!   struct of `u64` counters plus [`Log2Histogram`]s — increments only,
//!   no locks, no atomics, no allocation. Observers compose as a pair:
//!   `(&mut a, &mut b)` is a `Metrics` that feeds both.
//! * [`BatchRegistry`] — the shard/merge discipline for the parallel batch
//!   front-ends: each worker accumulates into a private [`SolverMetrics`]
//!   shard and the shards are merged under one short lock **after** the
//!   batch completes, keeping the hot path free of synchronization.
//! * [`Clock`] — monotonic time injected at the front-end ([`StdClock`]
//!   in production, [`ManualClock`] in tests) so the engines themselves
//!   never read a clock.
//! * [`RunReport`] — the structured per-run artifact (instance shape,
//!   seed, outcome, counters, timing percentiles) the CLI and the bench
//!   emitters write, serialized to JSON or Prometheus text exposition
//!   format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod histogram;
pub mod memory;
pub mod metrics;
pub mod phase;
pub mod prom;
pub mod registry;
pub mod report;

pub use clock::{Clock, ManualClock, StdClock};
pub use histogram::Log2Histogram;
pub use memory::{current_rss_bytes, peak_rss_bytes};
pub use metrics::{Metrics, NoMetrics, SolverMetrics};
pub use prom::{
    escape_label_value, label_pair, unescape_label_value, write_family_header, write_rss_gauges,
};
pub use registry::{BatchRegistry, ExecutionRecord};
pub use report::{
    ExecutorSection, LaneReport, OverheadReport, RunReport, TimingSummary, RUN_REPORT_SCHEMA,
};
