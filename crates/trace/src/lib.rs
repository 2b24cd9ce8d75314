//! Span-based execution timelines for the kmatch solvers.
//!
//! The observability layer (`kmatch-obs`) answers *how much* — counters
//! and histograms over a whole run. This crate answers *where the time
//! went inside one solve*: the engines emit begin/end/instant events at
//! their real phase boundaries (GS proposal rounds, Irving phase 1/2,
//! binding edges, batch chunks, cache lookups) through the span hooks of
//! [`kmatch_obs::Metrics`], and the recorders here turn those events into
//! timelines that export to Chrome trace-event JSON (loadable in Perfetto
//! or `chrome://tracing`) or a self-describing `kmatch.trace/v1`
//! document.
//!
//! There is no separate span interface: a recorder is a `Metrics`
//! observer that overrides only the span hooks, and it rides beside a
//! metrics shard as a pair, `(&mut shard, &mut recorder)`. Counter
//! observers keep the span hooks' empty defaults, so the un-traced hot
//! paths compile to exactly the code they were before spans existed —
//! proven by the counting-allocator suites in `kmatch-gs` and
//! `kmatch-roommates`.
//!
//! Two recorders are provided:
//!
//! - [`TraceRecorder`] — an unbounded event log for bounded runs you
//!   intend to export in full;
//! - [`FlightRecorder`] — a fixed-capacity ring buffer, preallocated at
//!   construction and overwriting the oldest event when full (zero
//!   steady-state allocation), keeping the *last N* events so a failed
//!   or slow run can be dumped post-hoc like an aircraft flight
//!   recorder.
//!
//! The flight recorder stores its events in an [`EventRing`], the one
//! keep-last-N buffer of the workspace: the operator plane's `/trace`
//! ring is the same type behind a mutex.
//!
//! Recorders sample their own injected [`Clock`](kmatch_obs::Clock) — the
//! engines stay clock-free, and a shared
//! [`ManualClock`](kmatch_obs::ManualClock) makes timelines
//! deterministic under test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod recorder;
mod ring;

pub use export::{
    chrome_trace_names, to_chrome_json, to_trace_json, validate_chrome_json, validate_trace_json,
    TraceTrack, TRACE_SCHEMA,
};
pub use event::{check_well_formed, EventKind, TraceEvent};
pub use recorder::{FlightRecorder, TraceRecorder};
pub use ring::EventRing;

/// The span/instant name taxonomy. Every instrumentation site in the
/// workspace uses one of these `&'static str` constants, so exporters,
/// CI smoke checks, and tests can match on them without stringly-typed
/// drift.
pub mod span {
    /// Whole bipartite deferred-acceptance solve (arg = `n`).
    pub const GS_SOLVE: &str = "gs.solve";
    /// One GS proposal round (arg = round number, 1-based).
    pub const GS_ROUND: &str = "gs.round";
    /// Instant: warm resolve replayed the held execution unchanged (arg =
    /// re-run proposers, always 0).
    pub const GS_WARM_RESOLVE: &str = "gs.warm.resolve";
    /// Instant: warm resolve fell back to a cold solve (arg = a
    /// [`reason`](crate::reason) code).
    pub const GS_WARM_FALLBACK: &str = "gs.warm.fallback";
    /// Whole stable-roommates solve (arg = `n`).
    pub const IRVING_SOLVE: &str = "irving.solve";
    /// Irving phase 1: proposal/threshold tightening (arg = `n`).
    pub const IRVING_PHASE1: &str = "irving.phase1";
    /// Irving phase 2: building the arena of phase-1 survivors, then
    /// rotation elimination (arg = `n`).
    pub const IRVING_PHASE2: &str = "irving.phase2";
    /// Instant: roommates warm resolve replayed the stored execution.
    pub const IRVING_WARM_RESOLVE: &str = "irving.warm.resolve";
    /// Instant: roommates warm resolve fell back to a cold solve (arg =
    /// a [`reason`](crate::reason) code).
    pub const IRVING_WARM_FALLBACK: &str = "irving.warm.fallback";
    /// One spanning-tree binding edge in a k-partite bind (arg = edge
    /// index in tree order).
    pub const BIND_EDGE: &str = "bind.edge";
    /// A binding edge the incremental binder re-solved (arg = edge
    /// index).
    pub const BIND_EDGE_DIRTY: &str = "bind.edge.dirty";
    /// A binding edge the incremental binder reused from cache (arg =
    /// edge index).
    pub const BIND_EDGE_CLEAN: &str = "bind.edge.clean";
    /// One parallel-batch chunk (arg = chunk/worker id).
    pub const BATCH_CHUNK: &str = "batch.chunk";
    /// Instant: content-addressed solve cache hit.
    pub const CACHE_HIT: &str = "cache.hit";
    /// Instant: content-addressed solve cache miss.
    pub const CACHE_MISS: &str = "cache.miss";
}

/// Warm-resolve fallback reason codes, carried as the `arg` of
/// [`span::GS_WARM_FALLBACK`] / [`span::IRVING_WARM_FALLBACK`] instants.
pub mod reason {
    /// No previous execution to warm-start from (first solve).
    pub const COLD_START: u64 = 0;
    /// The instance size changed since the stored execution.
    pub const SIZE_MISMATCH: u64 = 1;
    /// No solve footer was recorded (roommates: prior run predates the
    /// footer, or the workspace was reset).
    pub const NO_FOOTER: u64 = 2;
    /// A delta reached a part of some preference row the held execution
    /// probed — the live prefix of a roommates row, a GS proposer's
    /// consumed prefix, or the order of a GS responder's suitors — so a
    /// replay would be unsound.
    pub const PREFIX_MISS: u64 = 3;
}
