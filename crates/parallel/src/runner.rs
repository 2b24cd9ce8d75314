//! The one batch runner behind every front-end of this crate.
//!
//! A batch is `len` independent items, each solved by an engine
//! workspace ([`Engine`]): bipartite instances by a [`GsWorkspace`],
//! roommates instances by a [`RoommatesWorkspace`], binding edges by a
//! [`crate::WorkerScratch`]. [`run_batch`] splits the items into
//! contiguous task ranges on the stealing executor ([`crate::steal`]),
//! gives each worker one workspace for its lifetime and each task one
//! metrics shard, and returns the outcomes in item order. A workspace
//! may carry worker-lifetime observers — a span recorder, a live span
//! register, a progress probe — as `(workspace, observer)`, and those
//! see every hook the task's shard sees. [`solve_batch_with`] is the one
//! public metered front-end over it: the caller picks the observers by
//! what its `worker` closure builds. A bare workspace with a `NoMetrics`
//! shard is the same engine instantiation as the engine's plain `solve`.

use std::ops::Range;

use kmatch_gs::{GsOutcome, GsWorkspace};
use kmatch_obs::{BatchRegistry, Clock, Metrics, SolverMetrics, StdClock};
use kmatch_prefs::{PrefOracle, RoommatesOracle};
use kmatch_roommates::{RoommatesOutcome, RoommatesWorkspace};
use kmatch_trace::span;

use crate::steal::{run_tasks, task_layout, StealReport};

mod sealed {
    /// Only this crate's workspaces, alone or paired with observers, are
    /// batch engines.
    pub trait Sealed {}

    impl Sealed for kmatch_gs::GsWorkspace {}
    impl Sealed for kmatch_roommates::RoommatesWorkspace {}
    impl Sealed for crate::WorkerScratch {}
    impl<E: Sealed, S: kmatch_obs::Metrics + Send> Sealed for (E, S) {}
}

/// A reusable workspace that solves one batch item of type `P`.
///
/// The trait is sealed. Its implementors are [`GsWorkspace`] (any
/// [`PrefOracle`]), [`RoommatesWorkspace`] (any [`RoommatesOracle`]; a
/// batch worker solves at a thread budget of 1, so a batch never runs
/// more threads than it was given), [`crate::WorkerScratch`] (binding
/// edges), and `(E, S)`: an engine `E` carrying a worker-lifetime
/// observer `S`, which sees every hook right after the task's metrics
/// shard. Observers nest outward, so
/// `(((ws, probe), register), recorder)` hands each hook to the shard,
/// then the recorder, the register and the probe.
pub trait Engine<P: ?Sized>: sealed::Sealed + Send {
    /// What one solve returns.
    type Outcome: Send;

    /// Solve `item`, reporting to the observer `obs`.
    fn run<M: Metrics>(&mut self, item: &P, obs: &mut M) -> Self::Outcome;

    /// Open (`Some(task)`) or close (`None`) a task's `batch.chunk` span
    /// on `obs` and on the observers this workspace carries.
    fn chunk<M: Metrics>(&mut self, obs: &mut M, task: Option<u64>) {
        match task {
            Some(t) => obs.span_begin(span::BATCH_CHUNK, t),
            None => obs.span_end(span::BATCH_CHUNK),
        }
    }
}

impl<P: PrefOracle> Engine<P> for GsWorkspace {
    type Outcome = GsOutcome;

    fn run<M: Metrics>(&mut self, inst: &P, obs: &mut M) -> GsOutcome {
        self.solve_metered(inst, obs)
    }
}

impl<P: RoommatesOracle> Engine<P> for RoommatesWorkspace {
    type Outcome = RoommatesOutcome;

    fn run<M: Metrics>(&mut self, inst: &P, obs: &mut M) -> RoommatesOutcome {
        // The workspace's own walks stay on the worker's thread.
        self.set_threads(1);
        self.solve_metered(inst, obs)
    }
}

impl<P: ?Sized, E: Engine<P>, S: Metrics + Send> Engine<P> for (E, S) {
    type Outcome = E::Outcome;

    fn run<M: Metrics>(&mut self, item: &P, obs: &mut M) -> E::Outcome {
        self.0.run(item, &mut (obs, &mut self.1))
    }

    fn chunk<M: Metrics>(&mut self, obs: &mut M, task: Option<u64>) {
        self.0.chunk(&mut (obs, &mut self.1), task);
    }
}

/// Solve `instances` with `threads` workers and steal seed `seed`, worker
/// `w` solving through the workspace `worker(w)` builds — bare, or
/// carrying the observers the caller wants as nested `(engine, observer)`
/// pairs: a [`FlightRecorder`](kmatch_trace::FlightRecorder) for a
/// per-worker timeline, a `kmatch_forensics` register lane and `Probed`
/// progress probe for live forensics.
///
/// Each executor *task* solves into its own thread-private
/// [`SolverMetrics`] shard (plain `u64` increments, no atomics or locks
/// on the hot path); the shards are absorbed into `registry` in task-id
/// order after the join, and the run's execution record is stored beside
/// them, so the merged metrics are byte-identical for any steal schedule.
/// Per-solve wall time is sampled from `clock` at the front-end, keeping
/// the engines clock-free. Every task is wrapped in a `batch.chunk` span
/// (arg = task id) that the workers' observers see.
///
/// Returns the outcomes in input order — byte-identical to a serial
/// solve loop for **any** `threads`/`seed` — the workers in worker order,
/// so the caller can read back what their observers recorded (see
/// [`crate::ChunkTrace::from_workers`]), and the executor's report.
/// `threads <= 1` or a single instance runs as one task on the calling
/// thread; an empty batch builds no worker and runs no task.
///
/// ```
/// use kmatch_obs::{BatchRegistry, StdClock};
/// use kmatch_parallel::{solve_batch_with, ChunkTrace};
/// use kmatch_prefs::gen::uniform::uniform_roommates;
/// use kmatch_roommates::RoommatesWorkspace;
/// use kmatch_trace::FlightRecorder;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let batch: Vec<_> = (0..32).map(|_| uniform_roommates(16, &mut rng)).collect();
/// let (registry, clock) = (BatchRegistry::new(), StdClock::new());
/// let (outcomes, workers, report) = solve_batch_with(&batch, 2, 0, &registry, &clock, |_| {
///     (RoommatesWorkspace::new(), FlightRecorder::new(&clock, 1 << 12))
/// });
/// assert_eq!(outcomes.len(), 32);
/// assert_eq!(registry.take().solves, 32);
/// assert_eq!(ChunkTrace::from_workers(workers).len(), report.lanes.len());
/// ```
pub fn solve_batch_with<P, W, C>(
    instances: &[P],
    threads: usize,
    seed: u64,
    registry: &BatchRegistry,
    clock: &C,
    worker: impl Fn(usize) -> W + Sync,
) -> (Vec<W::Outcome>, Vec<W>, StealReport)
where
    P: Sync,
    W: Engine<P>,
    C: Clock + Sync,
{
    let run = run_batch(
        instances.len(),
        |i| &instances[i],
        threads,
        seed,
        clock,
        worker,
        |_| SolverMetrics::new(),
    );
    absorb(registry, run.shards, &run.report);
    (run.outcomes, run.workers, run.report)
}

/// What [`run_batch`] returns.
pub(crate) struct BatchRun<O, M, W> {
    /// Outcomes in item order.
    pub outcomes: Vec<O>,
    /// One metrics shard per task, in task-id order.
    pub shards: Vec<M>,
    /// Each worker's workspace (and the observers it carries), in worker
    /// order.
    pub workers: Vec<W>,
    /// The executor's account of the run.
    pub report: StealReport,
}

/// Solve items `0..len` (`item(i)` is the i-th) with `threads` workers
/// and steal seed `seed`.
///
/// `worker(w)` builds worker `w`'s workspace; `shard(w)` builds a fresh
/// metrics shard for each task worker `w` runs. Every task is wrapped in
/// a `batch.chunk` span whose arg is the task id, and each solve's wall
/// time is read from `clock` only when the shard's `M::ENABLED`. With
/// `threads <= 1` or at most one item the batch is one task on the
/// calling thread and the report is the serial one. An empty batch
/// builds no worker and runs no task: its report has `task_count` 0 and
/// one idle lane for the calling thread (0 tasks, 0 busy time).
pub(crate) fn run_batch<'a, P, W, M, C>(
    len: usize,
    item: impl Fn(usize) -> &'a P + Sync,
    threads: usize,
    seed: u64,
    clock: &C,
    worker: impl Fn(usize) -> W + Sync,
    shard: impl Fn(usize) -> M + Sync,
) -> BatchRun<W::Outcome, M, W>
where
    P: 'a + Sync + ?Sized,
    W: Engine<P>,
    M: Metrics + Send,
    C: Clock + Sync,
{
    let task = |w: usize, ws: &mut W, t: usize, range: Range<usize>| {
        let mut metrics = shard(w);
        ws.chunk(&mut metrics, Some(t as u64));
        let outs: Vec<W::Outcome> = range
            .map(|i| {
                let t0 = if M::ENABLED { clock.now_ns() } else { 0 };
                let out = ws.run(item(i), &mut metrics);
                if M::ENABLED {
                    metrics.solve_ns(clock.now_ns().saturating_sub(t0));
                }
                out
            })
            .collect();
        ws.chunk(&mut metrics, None);
        (outs, metrics)
    };
    if len == 0 {
        return BatchRun {
            outcomes: Vec::new(),
            shards: Vec::new(),
            workers: Vec::new(),
            report: StealReport::idle(seed),
        };
    }
    if threads <= 1 || len == 1 {
        let wall = StdClock::new();
        let t0 = wall.now_ns();
        let mut ws = worker(0);
        let (outcomes, metrics) = task(0, &mut ws, 0, 0..len);
        let report = StealReport::serial(seed, wall.now_ns().saturating_sub(t0));
        return BatchRun {
            outcomes,
            shards: vec![metrics],
            workers: vec![ws],
            report,
        };
    }
    let (chunk, task_count) = task_layout(len, threads);
    let (per_task, states, report) = run_tasks(
        task_count,
        threads,
        seed,
        |w| (w, worker(w)),
        |(w, ws), t| task(*w, ws, t, t * chunk..((t + 1) * chunk).min(len)),
    );
    let mut outcomes = Vec::with_capacity(len);
    let mut shards = Vec::with_capacity(task_count);
    for (_, (outs, metrics)) in per_task {
        outcomes.extend(outs);
        shards.push(metrics);
    }
    BatchRun {
        outcomes,
        shards,
        workers: states.into_iter().map(|(_, ws)| ws).collect(),
        report,
    }
}

/// Absorb a run's shards into `registry` in task-id order and record how
/// the run executed.
pub(crate) fn absorb(
    registry: &BatchRegistry,
    shards: impl IntoIterator<Item = SolverMetrics>,
    report: &StealReport,
) {
    for shard in shards {
        registry.absorb(shard);
    }
    registry.record_execution(report.to_execution_record());
}
