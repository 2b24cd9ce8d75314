//! # kmatch-forensics — live progress probes, sampling profiler,
//! postmortem bundles
//!
//! The operator plane (`kmatch-ops`) answers *what the solver did*;
//! this crate answers *where it is right now* and *why it died*:
//!
//! * [`WorkerProbe`] / [`ProbeSet`] — one seqlock lane per worker (safe
//!   Rust, individual atomics) holding phase/round/proposals/cut/attempt
//!   and the open-span stack, which the lane's [`Probed`] observer
//!   ([`ProbeSet::observer`]) keeps current. Engines stay untouched
//!   beyond their one `Metrics` parameter: [`Probed`] is a `Metrics`
//!   observer that folds the hook stream, riding beside the worker's
//!   metrics shard as a pair, `(&mut shard, &mut probed)`.
//! * [`SamplerCore`] / [`start_sampler`] — the sampling profiler, which
//!   folds the lanes' span stacks into collapsed span-stacks
//!   (`GET /profile`).
//! * [`bundle_json`] / [`validate_bundle`] — `kmatch.postmortem/v1`
//!   crash/stall artifacts, written atomically, re-validated from disk
//!   by `kmatch postmortem validate`.
//!
//! Layering: depends only on `kmatch-obs` (the `Metrics` hook set, span
//! hooks included, and phase ids) and `kmatch-trace` (`TraceEvent`).
//! `kmatch-ops` mounts this crate's state behind its HTTP endpoints;
//! engines never see it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod probe;
pub mod probed;
pub mod profiler;

pub use bundle::{
    bundle_json, inspect_summary, validate_bundle, write_bundle_atomic, BundleInputs,
    POSTMORTEM_SCHEMA,
};
pub use probe::{NameTable, ProbeSet, ProgressSnapshot, WorkerProbe, MAX_DEPTH, SNAPSHOT_RETRIES};
pub use probed::{Probed, PUBLISH_EVERY};
pub use profiler::{
    start_sampler, ProfileAggregate, SamplerCore, SamplerHandle, SharedProfile, PROFILE_SCHEMA,
};
