//! # kmatch-ops — the live operator plane
//!
//! Everything `kmatch-obs` and `kmatch-trace` measure exists, until this
//! crate, only as a post-run file snapshot. `kmatch-ops` turns the same
//! substrate into *live* operator surfaces for a running process — the
//! operator half of the planned `kmatchd` daemon (ROADMAP item 2),
//! shipped and validated before the service front-end lands:
//!
//! * [`http`] — a std-only HTTP/1.1 server (hand-rolled on `std::net`,
//!   no external deps) exposing `GET /metrics` (Prometheus text),
//!   `/healthz`, `/report`, `/trace`, and `/logs?n=K`.
//! * [`window`] — a [`Clock`](kmatch_obs::Clock)-injected rolling window
//!   of cumulative metric snapshots answering rate-over-last-window and
//!   windowed-quantile queries, deterministic under
//!   [`ManualClock`](kmatch_obs::ManualClock).
//! * [`log`] — a bounded structured JSONL log (`kmatch.log/v1`) with
//!   repeat rate-limiting.
//! * [`watchdog`] — a deterministic stall detector over per-worker
//!   progress heartbeats; stalls degrade `/healthz` and emit log events.
//! * [`state`] — [`OpsState`], the one `Arc`-shared object composing all
//!   of the above plus the cumulative
//!   [`BatchRegistry`](kmatch_obs::BatchRegistry) and the `/trace` ring:
//!   a mutex-held [`EventRing`](kmatch_trace::EventRing), the same
//!   keep-last-N buffer each worker's flight recorder writes, fed by the
//!   recorders the serve loop's batch workers carry.
//! * [`signal`] — a SIGINT latch for graceful `kmatch serve` shutdown.
//!
//! The crate does not `forbid(unsafe_code)` like its siblings: the
//! SIGINT latch declares the POSIX `signal(2)` symbol directly (the
//! workspace vendors no `libc`), and that one call site is the crate's
//! entire unsafe surface.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod forensics;
pub mod http;
pub mod log;
pub mod signal;
pub mod state;
pub mod watchdog;
pub mod window;

pub use forensics::ForensicsPlane;
pub use http::{serve, OpsServer, ServerConfig};
pub use log::{Level, LogRecord, OpsLog, LOG_SCHEMA};
pub use signal::{arm_sigint, sigint_received, trip_shutdown};
pub use state::{OpsConfig, OpsState, PROGRESS_SCHEMA};
pub use watchdog::{StallEvent, WatchdogConfig, WatchdogCore};
pub use window::{RollingWindow, WindowDelta};
