//! # kmatch-exec — the deterministic work-stealing executor
//!
//! Every parallel path of the workspace runs on this one executor: the
//! batch front-ends of `kmatch-parallel` (many independent solves) and
//! the engines themselves (one solve's independent row walks — the
//! roommates arena build and partition check). It sits below the
//! engines and depends only on `std` and `kmatch-obs`, so an engine can
//! fan out its own work without a dependency cycle.
//!
//! A static split that gives each worker one contiguous `len / threads`
//! slice is optimal only when every task costs the same; real sweeps
//! mix sizes, and one oversized slice stalls the whole run behind a
//! single straggler. This executor instead serves fine-grained **task**
//! chunks from per-worker deques: a worker drains its own deque
//! front-to-back and, when empty, steals from the *back* of a victim's
//! deque — the classic work-stealing discipline, here built on `std` only
//! (`Mutex<VecDeque>` deques; the workspace forbids `unsafe`, so a
//! lock-free Chase–Lev ring is off the table, and the lock is
//! uncontended except during steals).
//!
//! **Determinism.** Steal timing is inherently racy, so the executor is
//! engineered to make the *schedule* unobservable:
//!
//! * task → work assignment is fixed up front (a batch task `t` covers
//!   `[t·chunk, (t+1)·chunk)`, an engine task a fixed row range), so
//!   which worker runs a task cannot change what the task computes;
//! * every task's results are keyed by task id and returned in task-id
//!   order after the join ([`run_tasks`]), or written to the task's own
//!   slot ([`run_slots`]), so the output is byte-identical no matter who
//!   ran what when;
//! * callers merge per-task metric shards in task-id order after the
//!   join, so merged metrics are byte-identical too;
//! * victim selection is a seeded permutation per worker
//!   ([`steal_seed`], from `KMATCH_STEAL_SEED`), so even the steal
//!   *attempt order* is reproducible for a given seed — and the executor
//!   tests pin that two runs with *different* seeds still produce
//!   identical outputs.
//!
//! What the schedule *is* allowed to change is executor telemetry: the
//! [`StealReport`] (which lane ran how many tasks, how many steals
//! happened, per-worker busy time) and the workspace fresh/reuse split in
//! merged batch metrics (a solve counts `workspace_fresh` when it grew its
//! worker's buffers, which depends on the size order that worker happened
//! to see). Those feed the straggler section of the run report;
//! everything a solver computes is schedule-independent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use kmatch_obs::{Clock, StdClock};

/// Environment variable holding the steal-schedule seed consumed by
/// [`steal_seed`]. The seed perturbs victim order only — outputs are
/// byte-identical across seeds; exercising several seeds in CI is how the
/// determinism contract is smoke-tested.
pub const STEAL_SEED_ENV: &str = "KMATCH_STEAL_SEED";

/// Tasks created per worker (before clamping to batch length): small
/// enough to keep per-task overhead negligible, large enough that a
/// straggler chunk can be back-filled by idle workers.
pub const TASKS_PER_WORKER: usize = 4;

/// The steal-schedule seed: `KMATCH_STEAL_SEED` parsed as `u64`, or 0
/// when unset or unparsable.
pub fn steal_seed() -> u64 {
    std::env::var(STEAL_SEED_ENV)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Worker threads a run uses when the caller names no count: the
/// host's available parallelism (the CPU affinity mask and cgroup quota
/// included), or 1 when it cannot be read. Read once per process — the
/// query opens files, and engines ask on every large walk.
pub fn default_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// One worker's execution accounting for a stealing run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerLane {
    /// Worker index (`0..threads`).
    pub worker: usize,
    /// Tasks this worker executed.
    pub tasks: u64,
    /// How many of those tasks it stole from another worker's deque.
    pub steals: u64,
    /// Wall time spent inside task bodies.
    pub busy_ns: u64,
    /// Worker wall time from spawn to drain (busy + idle + steal probing).
    pub wall_ns: u64,
}

/// Execution report of one run: the schedule's observable footprint
/// (the outputs themselves are schedule-independent).
#[derive(Debug, Clone, PartialEq)]
pub struct StealReport {
    /// Worker threads the run used.
    pub threads: usize,
    /// Steal-schedule seed (victim-order perturbation only).
    pub seed: u64,
    /// Tasks the run was split into.
    pub task_count: usize,
    /// Total successful steals across workers.
    pub steal_count: u64,
    /// `"serial"` (single worker, no deques) or `"stealing"`.
    pub path: &'static str,
    /// Per-worker accounting, indexed by worker id.
    pub lanes: Vec<WorkerLane>,
}

impl StealReport {
    /// Straggler ratio: slowest lane's busy time over the mean lane busy
    /// time (1.0 = perfectly balanced; 0.0 when nothing ran). The batch
    /// straggler section of `kmatch.run_report/v1` carries this.
    pub fn straggler_ratio(&self) -> f64 {
        let busy: Vec<u64> = self.lanes.iter().map(|l| l.busy_ns).collect();
        let sum: u64 = busy.iter().sum();
        if sum == 0 || busy.is_empty() {
            return 0.0;
        }
        let mean = sum as f64 / busy.len() as f64;
        *busy.iter().max().expect("non-empty") as f64 / mean
    }

    /// The registry-side execution record of this run.
    pub fn to_execution_record(&self) -> kmatch_obs::ExecutionRecord {
        kmatch_obs::ExecutionRecord {
            path: self.path,
            threads: self.threads as u64,
            task_count: self.task_count as u64,
            steal_count: self.steal_count,
            straggler_ratio: self.straggler_ratio(),
        }
    }

    /// The run-report executor section of this run (straggler report
    /// included).
    pub fn to_section(&self) -> kmatch_obs::ExecutorSection {
        kmatch_obs::ExecutorSection {
            path: self.path.to_string(),
            seed: self.seed,
            threads: self.threads as u64,
            task_count: self.task_count as u64,
            steal_count: self.steal_count,
            straggler_ratio: self.straggler_ratio(),
            lanes: self
                .lanes
                .iter()
                .map(|l| kmatch_obs::LaneReport {
                    worker: l.worker as u64,
                    tasks: l.tasks,
                    steals: l.steals,
                    busy_ns: l.busy_ns,
                    wall_ns: l.wall_ns,
                })
                .collect(),
        }
    }

    /// The report of a run with no task at all: `task_count` 0 and one
    /// idle lane for the calling thread (0 tasks, 0 busy time).
    pub fn idle(seed: u64) -> Self {
        let mut report = StealReport::serial(seed, 0);
        report.task_count = 0;
        report.lanes[0].tasks = 0;
        report
    }

    /// The report of a run as one task on the calling thread.
    pub fn serial(seed: u64, busy_ns: u64) -> Self {
        StealReport {
            threads: 1,
            seed,
            task_count: 1,
            steal_count: 0,
            path: "serial",
            lanes: vec![WorkerLane {
                worker: 0,
                tasks: 1,
                steals: 0,
                busy_ns,
                wall_ns: busy_ns,
            }],
        }
    }
}

/// SplitMix64 step — the seed expander behind victim-order shuffles.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded victim probe order for `worker`: a Fisher–Yates shuffle of
/// every other worker, keyed by (seed, worker).
fn victim_order(threads: usize, worker: usize, seed: u64) -> Vec<usize> {
    let mut victims: Vec<usize> = (0..threads).filter(|&v| v != worker).collect();
    let mut state = seed ^ (worker as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    for i in (1..victims.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        victims.swap(i, j);
    }
    victims
}

/// Run `task_count` tasks across `threads` workers with work stealing,
/// starting no more workers than there are tasks.
///
/// `init` builds one scratch state per worker (it receives the worker
/// index, so worker-lane artifacts — progress probes — can bind to
/// their lane); `run` executes a task by id against that state. Returns
/// every task's result keyed by id (sorted ascending —
/// schedule-independent), the per-worker states in worker order (for
/// worker-lifetime artifacts like span recorders), and the execution
/// report.
///
/// The calling thread's own allocations depend only on `threads` and
/// `task_count`, never on the steal schedule: every buffer is sized
/// before the workers start.
pub fn run_tasks<S, T, F, G>(
    task_count: usize,
    threads: usize,
    seed: u64,
    init: G,
    run: F,
) -> (Vec<(usize, T)>, Vec<S>, StealReport)
where
    T: Send,
    S: Send,
    F: Fn(&mut S, usize) -> T + Sync,
    G: Fn(usize) -> S + Sync,
{
    let threads = threads.clamp(1, task_count.max(1));
    let clock = StdClock::new();
    let per_deque = task_count.div_ceil(threads);
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|_| Mutex::new(VecDeque::with_capacity(per_deque)))
        .collect();
    // Fixed round-robin placement: deterministic, and it spreads the
    // early (often largest, if sorted) tasks across workers.
    for t in 0..task_count {
        deques[t % threads]
            .lock()
            .expect("steal deque poisoned")
            .push_back(t);
    }
    let remaining = AtomicUsize::new(task_count);
    // One worker's contribution: task-id-keyed results, its final state
    // (worker-lifetime artifacts like span recorders), and its lane log.
    type WorkerYield<T, S> = (Vec<(usize, T)>, S, WorkerLane);
    let mut per_worker: Vec<WorkerYield<T, S>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let deques = &deques;
                let remaining = &remaining;
                let clock = &clock;
                let init = &init;
                let run = &run;
                scope.spawn(move || {
                    let t0 = clock.now_ns();
                    let victims = victim_order(threads, w, seed);
                    let mut state = init(w);
                    let mut results = Vec::with_capacity(task_count);
                    let mut lane = WorkerLane {
                        worker: w,
                        ..WorkerLane::default()
                    };
                    loop {
                        let own = deques[w].lock().expect("steal deque poisoned").pop_front();
                        let (task, stolen) = match own {
                            Some(t) => (Some(t), false),
                            None => {
                                let mut found = None;
                                for &v in &victims {
                                    found =
                                        deques[v].lock().expect("steal deque poisoned").pop_back();
                                    if found.is_some() {
                                        break;
                                    }
                                }
                                (found, true)
                            }
                        };
                        match task {
                            Some(t) => {
                                lane.tasks += 1;
                                lane.steals += stolen as u64;
                                let b0 = clock.now_ns();
                                results.push((t, run(&mut state, t)));
                                lane.busy_ns += clock.now_ns().saturating_sub(b0);
                                remaining.fetch_sub(1, Ordering::AcqRel);
                            }
                            None => {
                                // Every deque is empty; the run is done
                                // once in-flight tasks finish.
                                if remaining.load(Ordering::Acquire) == 0 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    lane.wall_ns = clock.now_ns().saturating_sub(t0);
                    (results, state, lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("steal worker panicked"))
            .collect()
    });
    let mut results = Vec::with_capacity(task_count);
    let mut states = Vec::with_capacity(threads);
    let mut lanes = Vec::with_capacity(threads);
    let mut steal_count = 0;
    for (mut task_results, state, lane) in per_worker.drain(..) {
        results.append(&mut task_results);
        steal_count += lane.steals;
        states.push(state);
        lanes.push(lane);
    }
    // Task-id order restores the input order no matter which worker ran
    // which task — this sort is what makes the schedule unobservable.
    // (The join above already yields workers in spawn order, so states
    // and lanes arrive sorted by worker id.)
    results.sort_unstable_by_key(|&(t, _)| t);
    let report = StealReport {
        threads,
        seed,
        task_count,
        steal_count,
        path: "stealing",
        lanes,
    };
    (results, states, report)
}

/// Run one task per slot, `run(t, &mut slots[t])`, on up to `threads`
/// workers: each task has its slot to itself, so tasks write their
/// output into buffers the caller owns and reuses. With `threads <= 1`
/// or at most one slot the tasks run in id order on the calling thread.
///
/// What a task computes may depend only on its id and its slot, so the
/// slots end the same for every thread count and steal schedule.
pub fn run_slots<B, F>(slots: &mut [B], threads: usize, seed: u64, run: F) -> StealReport
where
    B: Send,
    F: Fn(usize, &mut B) + Sync,
{
    if threads <= 1 || slots.len() <= 1 {
        let clock = StdClock::new();
        let t0 = clock.now_ns();
        for (t, slot) in slots.iter_mut().enumerate() {
            run(t, slot);
        }
        let mut report = StealReport::serial(seed, clock.now_ns().saturating_sub(t0));
        report.task_count = slots.len();
        report.lanes[0].tasks = slots.len() as u64;
        return report;
    }
    // Each task locks only its own slot, so the locks never contend;
    // they are what lets a `&mut` cross to whichever worker runs it.
    let cells: Vec<Mutex<&mut B>> = slots.iter_mut().map(Mutex::new).collect();
    let (_, _, report) = run_tasks(
        cells.len(),
        threads,
        seed,
        |_| (),
        |_, t| run(t, &mut cells[t].lock().expect("slot poisoned")),
    );
    report
}

/// Split `len` instances into fine-grained task ranges for `threads`
/// workers: `(chunk_size, task_count)`.
pub fn task_layout(len: usize, threads: usize) -> (usize, usize) {
    let chunk = len.div_ceil(threads * TASKS_PER_WORKER).max(1);
    (chunk, len.div_ceil(chunk))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_order_is_seeded_and_complete() {
        let a = victim_order(8, 3, 1);
        let b = victim_order(8, 3, 1);
        assert_eq!(a, b, "same seed, same order");
        assert_eq!(a.len(), 7);
        assert!(!a.contains(&3), "never probes itself");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 4, 5, 6, 7], "a permutation");
        // Different seeds give different probe orders for some worker.
        let differs = (0..8).any(|w| victim_order(8, w, 1) != victim_order(8, w, 2));
        assert!(differs, "seed must perturb victim order");
    }

    #[test]
    fn task_layout_covers_every_instance_exactly_once() {
        for len in [0usize, 1, 7, 16, 97, 1000] {
            for threads in [2usize, 3, 8] {
                let (chunk, tasks) = task_layout(len, threads);
                let covered: usize = (0..tasks)
                    .map(|t| ((t + 1) * chunk).min(len) - (t * chunk).min(len))
                    .sum();
                assert_eq!(covered, len, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn run_tasks_returns_results_in_task_order_for_any_schedule() {
        let square = |_: &mut (), t: usize| (t * t) as u64;
        for (threads, seed) in [(1usize, 0u64), (2, 0), (3, 7), (8, u64::MAX)] {
            let (results, states, report) = run_tasks(37, threads, seed, |_| (), square);
            let want: Vec<(usize, u64)> = (0..37).map(|t| (t, (t * t) as u64)).collect();
            assert_eq!(results, want, "threads={threads} seed={seed}");
            assert_eq!(states.len(), report.threads);
            assert_eq!(report.lanes.iter().map(|l| l.tasks).sum::<u64>(), 37);
        }
    }

    #[test]
    fn run_slots_fills_every_slot_alike_for_any_thread_count() {
        let fill = |t: usize, slot: &mut Vec<u32>| {
            slot.clear();
            slot.extend((0..t as u32 % 5).map(|i| i * t as u32));
        };
        let mut serial = vec![Vec::new(); 23];
        let report = run_slots(&mut serial, 1, 0, fill);
        assert_eq!(report.path, "serial");
        assert_eq!(report.task_count, 23);
        for (threads, seed) in [(2usize, 0u64), (4, 3), (7, 99)] {
            let mut slots = vec![vec![9u32; 3]; 23];
            let report = run_slots(&mut slots, threads, seed, fill);
            assert_eq!(slots, serial, "threads={threads} seed={seed}");
            assert_eq!(report.path, "stealing");
            assert_eq!(report.lanes.iter().map(|l| l.tasks).sum::<u64>(), 23);
        }
    }

    #[test]
    fn straggler_ratio_flags_imbalance() {
        let balanced = StealReport {
            threads: 2,
            seed: 0,
            task_count: 2,
            steal_count: 0,
            path: "stealing",
            lanes: vec![
                WorkerLane {
                    worker: 0,
                    tasks: 1,
                    steals: 0,
                    busy_ns: 100,
                    wall_ns: 100,
                },
                WorkerLane {
                    worker: 1,
                    tasks: 1,
                    steals: 0,
                    busy_ns: 100,
                    wall_ns: 100,
                },
            ],
        };
        assert!((balanced.straggler_ratio() - 1.0).abs() < 1e-12);
        let mut skewed = balanced.clone();
        skewed.lanes[1].busy_ns = 300;
        assert!((skewed.straggler_ratio() - 1.5).abs() < 1e-12);
        let empty = StealReport::serial(0, 0);
        assert_eq!(empty.straggler_ratio(), 0.0);
    }

    #[test]
    fn steal_seed_parses_env_or_defaults() {
        // Only checks the parse contract on the current (unset) state;
        // the CI smoke drives the env-var path end to end.
        let seed = steal_seed();
        let expected = std::env::var(STEAL_SEED_ENV)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        assert_eq!(seed, expected);
    }

    #[test]
    fn default_threads_is_positive_and_stable() {
        assert!(default_threads() >= 1);
        assert_eq!(default_threads(), default_threads());
    }
}
