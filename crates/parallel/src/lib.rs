//! # kmatch-parallel — parallel binding execution and PRAM cost models
//!
//! §IV-C of the paper: "pairwise matching in the original GS algorithm is
//! difficult to parallelize … However, parallelization at the binding tree
//! level is feasible." Two bindings can run concurrently when their gender
//! pairs are disjoint, so a parallel plan is an edge coloring of the
//! binding tree (see `kmatch_graph::schedule`).
//!
//! This crate provides:
//!
//! * [`steal`] — the deterministic work-stealing executor every parallel
//!   path runs on, re-exported from `kmatch-exec` (which sits below the
//!   engines, so the roommates engine splits its own walks on it too):
//!   fine-grained task chunks on per-worker deques, seeded victim order
//!   (`KMATCH_STEAL_SEED`), task-id-ordered reduction so outputs and
//!   merged metrics are byte-identical for any thread count and steal
//!   schedule, and per-worker lane accounting for the straggler section
//!   of run reports. One runner drives it for every front-end below;
//!   one thread is its serial case.
//! * [`solve_batch_with`] — the one metered batch front-end, generic over
//!   the sealed [`Engine`] trait: the caller's `worker(w)` closure builds
//!   worker `w`'s workspace (a `GsWorkspace`, a `RoommatesWorkspace`)
//!   together with whatever observers it carries — a `FlightRecorder`
//!   for per-worker timelines ([`ChunkTrace::from_workers`] reads them
//!   back), a progress probe lane for live forensics, or
//!   none.
//! * [`executor`] — the binding executor: independent `GS(i, j)` bindings
//!   (all at once, or each schedule round) run as executor tasks. Its
//!   output is bit-identical to the sequential Algorithm 1 (GS is
//!   deterministic per edge and edges touch disjoint data), which the
//!   tests enforce.
//! * [`batch`] — GS throughput front-ends: [`solve_batch_stealing`]
//!   (unobserved) and [`solve_batch_stealing_metered`] fan many
//!   independent bipartite instances across the workers, giving each
//!   worker one reusable `GsWorkspace` so the per-instance allocation
//!   cost is just the returned matchings; [`cached`] serves repeats from
//!   a solve cache.
//! * [`roommates`] — the unobserved front-end for Irving's
//!   stable-roommates solver (one reusable `RoommatesWorkspace` per
//!   worker, at a thread budget of 1 so its own walks never add
//!   threads), feeding the solvability sweeps.
//! * [`pram`] — the paper's own cost model, implemented as an explicit
//!   simulator: EREW round accounting reproducing Corollary 1
//!   (`≤ Δ·n²` iterations with `k − 1` processors), the 2-round even–odd
//!   path schedule of Corollary 2 / Fig. 4, and the `⌈log₂ Δ⌉`-round data
//!   replication that lets EREW emulate CREW.
//!
//! The host machine for this reproduction has a single core, so wall-clock
//! speedups are reported by the PRAM model (the paper's metric) while the
//! stealing executor is validated for correctness and scales on real
//! multicore hardware.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cached;
pub mod executor;
pub mod pram;
pub mod roommates;
mod runner;
pub mod scratch;
pub mod steal;

pub use batch::{batch_stats, solve_batch_stealing, solve_batch_stealing_metered, ChunkTrace};
pub use cached::{solve_batch_cached, CachedBatchOutcome};
pub use executor::{parallel_bind, parallel_bind_scheduled, ParallelBindingOutcome};
pub use pram::{crew_cost, erew_cost, replication_rounds, PramCost, PramModel};
pub use runner::{solve_batch_with, Engine};
pub use scratch::WorkerScratch;
pub use steal::{
    default_threads, steal_seed, StealReport, WorkerLane, STEAL_SEED_ENV, TASKS_PER_WORKER,
};
