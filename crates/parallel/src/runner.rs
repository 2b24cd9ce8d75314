//! The one batch runner behind every front-end of this crate.
//!
//! A batch is `len` independent items, each solved by an engine
//! workspace ([`Engine`]): bipartite instances by a [`GsWorkspace`],
//! roommates instances by a [`RoommatesWorkspace`], binding edges by a
//! [`crate::WorkerScratch`]. [`run_batch`] splits the items into
//! contiguous task ranges on the stealing executor ([`crate::steal`]),
//! gives each worker one workspace and one span sink for its lifetime and
//! each task one metrics shard, and returns the outcomes in item order.
//! The public front-ends differ only in the sinks they hand it; with
//! `NoMetrics`/`NoSpans` a solve is the same engine instantiation as the
//! engine's plain `solve`.

use std::ops::Range;

use kmatch_gs::{GsOutcome, GsWorkspace};
use kmatch_obs::{BatchRegistry, Clock, Metrics, SolverMetrics, StdClock};
use kmatch_prefs::{PrefOracle, RoommatesOracle};
use kmatch_roommates::{RoommatesOutcome, RoommatesWorkspace};
use kmatch_trace::{span, SpanSink};

use crate::steal::{run_tasks, task_layout, StealReport};

/// A reusable workspace that solves one batch item of type `P`.
pub(crate) trait Engine<P: ?Sized>: Send {
    /// What one solve returns.
    type Outcome: Send;

    /// Solve `item`, reporting to `metrics` and `spans`.
    fn run<M: Metrics, S: SpanSink>(
        &mut self,
        item: &P,
        metrics: &mut M,
        spans: &mut S,
    ) -> Self::Outcome;
}

impl<P: PrefOracle> Engine<P> for GsWorkspace {
    type Outcome = GsOutcome;

    fn run<M: Metrics, S: SpanSink>(
        &mut self,
        inst: &P,
        metrics: &mut M,
        spans: &mut S,
    ) -> GsOutcome {
        self.solve_spanned(inst, metrics, spans)
    }
}

impl<P: RoommatesOracle> Engine<P> for RoommatesWorkspace {
    type Outcome = RoommatesOutcome;

    fn run<M: Metrics, S: SpanSink>(
        &mut self,
        inst: &P,
        metrics: &mut M,
        spans: &mut S,
    ) -> RoommatesOutcome {
        self.solve_spanned(inst, metrics, spans)
    }
}

/// What [`run_batch`] returns.
pub(crate) struct BatchRun<O, M, S> {
    /// Outcomes in item order.
    pub outcomes: Vec<O>,
    /// One metrics shard per task, in task-id order.
    pub shards: Vec<M>,
    /// Each worker's span sink, in worker order.
    pub spans: Vec<S>,
    /// The executor's account of the run.
    pub report: StealReport,
}

/// Solve items `0..len` (`item(i)` is the i-th) with `threads` workers
/// and steal seed `seed`.
///
/// `worker(w)` builds worker `w`'s workspace and span sink; `shard(w)`
/// builds a fresh metrics shard for each task worker `w` runs. Every task
/// is wrapped in a `batch.chunk` span whose arg is the task id, and each
/// solve's wall time is read from `clock` only when `M::ENABLED`. With
/// `threads <= 1` or at most one item the batch is one task on the
/// calling thread and the report is the serial one; an empty batch runs
/// no task at all.
pub(crate) fn run_batch<'a, P, W, M, S, C>(
    len: usize,
    item: impl Fn(usize) -> &'a P + Sync,
    threads: usize,
    seed: u64,
    clock: &C,
    worker: impl Fn(usize) -> (W, S) + Sync,
    shard: impl Fn(usize) -> M + Sync,
) -> BatchRun<W::Outcome, M, S>
where
    P: 'a + Sync + ?Sized,
    W: Engine<P>,
    M: Metrics + Send,
    S: SpanSink + Send,
    C: Clock + Sync,
{
    let task = |w: usize, (ws, spans): &mut (W, S), t: usize, range: Range<usize>| {
        let mut metrics = shard(w);
        spans.begin(span::BATCH_CHUNK, t as u64);
        let outs: Vec<W::Outcome> = range
            .map(|i| {
                let t0 = if M::ENABLED { clock.now_ns() } else { 0 };
                let out = ws.run(item(i), &mut metrics, spans);
                if M::ENABLED {
                    metrics.solve_ns(clock.now_ns().saturating_sub(t0));
                }
                out
            })
            .collect();
        spans.end(span::BATCH_CHUNK);
        (outs, metrics)
    };
    if len == 0 {
        return BatchRun {
            outcomes: Vec::new(),
            shards: Vec::new(),
            spans: Vec::new(),
            report: StealReport::serial(seed, 0),
        };
    }
    if threads <= 1 || len == 1 {
        let wall = StdClock::new();
        let t0 = wall.now_ns();
        let mut state = worker(0);
        let (outcomes, metrics) = task(0, &mut state, 0, 0..len);
        let report = StealReport::serial(seed, wall.now_ns().saturating_sub(t0));
        return BatchRun {
            outcomes,
            shards: vec![metrics],
            spans: vec![state.1],
            report,
        };
    }
    let (chunk, task_count) = task_layout(len, threads);
    let (per_task, states, report) = run_tasks(
        task_count,
        threads,
        seed,
        |w| (w, worker(w)),
        |(w, state), t| task(*w, state, t, t * chunk..((t + 1) * chunk).min(len)),
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
        spans: states.into_iter().map(|(_, (_, spans))| spans).collect(),
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
