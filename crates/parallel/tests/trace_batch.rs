//! Traced batches: per-worker `batch.chunk` timelines through
//! fixed-capacity flight recorders, identical outcomes to the plain path.

use kmatch_gs::GsWorkspace;
use kmatch_obs::{BatchRegistry, ManualClock};
use kmatch_parallel::{
    roommates, solve_batch_stealing, solve_batch_with, ChunkTrace, Engine, StealReport,
};
use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_roommates};
use kmatch_prefs::{BipartiteInstance, RoommatesInstance};
use kmatch_roommates::RoommatesWorkspace;
use kmatch_trace::{check_well_formed, span, EventKind, FlightRecorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A metered batch whose workers each carry a flight recorder of
/// `capacity` events, and the timelines they recorded.
fn traced<P: Sync, E: Engine<P>>(
    batch: &[P],
    threads: usize,
    registry: &BatchRegistry,
    clock: &ManualClock,
    capacity: usize,
    engine: fn() -> E,
) -> (Vec<E::Outcome>, Vec<ChunkTrace>, StealReport) {
    let (outs, workers, report) = solve_batch_with(batch, threads, 0, registry, clock, |_| {
        (engine(), FlightRecorder::new(clock, capacity))
    });
    (outs, ChunkTrace::from_workers(workers), report)
}

/// Check unwrapped per-worker traces and count the `solve` spans on them:
/// each worker's timeline is well formed and opens and closes with
/// `batch.chunk`, and every task id of the run appears exactly once.
fn solves_on_worker_tracks(traces: &[ChunkTrace], task_count: usize, solve: &str) -> usize {
    assert!(!traces.is_empty());
    let mut solves = 0usize;
    let mut chunk_ids = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        assert_eq!(t.worker, i, "worker traces arrive in worker order");
        assert_eq!(t.dropped, 0, "capacity 2^16 never wraps here");
        check_well_formed(&t.events, false).unwrap();
        // Each task a worker ran is wrapped in one batch.chunk span
        // carrying the task id; which worker ran which task (and whether
        // a worker ran any) is up to the steal schedule.
        if let (Some(first), Some(last)) = (t.events.first(), t.events.last()) {
            assert_eq!(
                (first.name, first.kind),
                (span::BATCH_CHUNK, EventKind::Begin)
            );
            assert_eq!((last.name, last.kind), (span::BATCH_CHUNK, EventKind::End));
        }
        chunk_ids.extend(
            t.events
                .iter()
                .filter(|e| e.kind == EventKind::Begin && e.name == span::BATCH_CHUNK)
                .map(|e| e.arg),
        );
        solves += t
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == solve)
            .count();
    }
    chunk_ids.sort_unstable();
    let expected: Vec<u64> = (0..task_count as u64).collect();
    assert_eq!(chunk_ids, expected, "every task appears exactly once");
    solves
}

#[test]
fn traced_gs_batch_matches_plain_and_chunks_are_well_formed() {
    let mut rng = ChaCha8Rng::seed_from_u64(65);
    let batch: Vec<BipartiteInstance> =
        (0..120).map(|_| uniform_bipartite(20, &mut rng)).collect();
    let registry = BatchRegistry::new();
    let clock = ManualClock::new();
    let (outs, traces, report) = traced(&batch, 3, &registry, &clock, 1 << 16, GsWorkspace::new);
    let (plain, _) = solve_batch_stealing(&batch, 1, 0);
    assert_eq!(outs.len(), plain.len());
    for (a, b) in outs.iter().zip(&plain) {
        assert_eq!(a.matching, b.matching);
        assert_eq!(a.stats, b.stats);
    }
    assert_eq!(traces.len(), report.lanes.len());
    let solves = solves_on_worker_tracks(&traces, report.task_count, span::GS_SOLVE);
    assert_eq!(solves, batch.len(), "every solve appears on some track");
    assert_eq!(registry.take().solves, batch.len() as u64);
}

#[test]
fn tiny_flight_recorder_wraps_but_keeps_the_tail() {
    let mut rng = ChaCha8Rng::seed_from_u64(66);
    let batch: Vec<BipartiteInstance> =
        (0..64).map(|_| uniform_bipartite(16, &mut rng)).collect();
    let registry = BatchRegistry::new();
    let clock = ManualClock::new();
    // Fewer slots than the smallest task's timeline (a batch.chunk span
    // around one gs.solve span is 4 events), so every worker that ran a
    // task wraps, whatever the thread count and steal schedule.
    const SLOTS: usize = 3;
    let (outs, traces, _) = traced(&batch, 2, &registry, &clock, SLOTS, GsWorkspace::new);
    assert_eq!(outs.len(), batch.len());
    assert!(traces.iter().any(|t| !t.events.is_empty()));
    for t in &traces {
        if t.events.is_empty() {
            // A worker the steal schedule left without a task.
            assert_eq!(t.dropped, 0);
            continue;
        }
        assert!(t.dropped > 0, "{SLOTS} slots cannot hold a task's timeline");
        assert_eq!(t.events.len(), SLOTS);
        // A wrapped dump may open mid-span: orphan End events are fine,
        // but what survives must still be ordered and nestable.
        check_well_formed(&t.events, true).unwrap();
        // The final chunk-close event always survives (it is the newest).
        assert_eq!(t.events.last().map(|e| e.name), Some(span::BATCH_CHUNK));
        assert_eq!(t.events.last().map(|e| e.kind), Some(EventKind::End));
    }
}

#[test]
fn traced_roommates_batch_matches_plain() {
    let mut rng = ChaCha8Rng::seed_from_u64(67);
    let batch: Vec<RoommatesInstance> =
        (0..80).map(|_| uniform_roommates(12, &mut rng)).collect();
    let registry = BatchRegistry::new();
    let clock = ManualClock::new();
    let engine = RoommatesWorkspace::new;
    let (outs, traces, report) = traced(&batch, 3, &registry, &clock, 1 << 16, engine);
    let (plain, _) = roommates::solve_batch_stealing(&batch, 1, 0);
    for (a, b) in outs.iter().zip(&plain) {
        assert_eq!(a.matching(), b.matching());
        assert_eq!(a.stats(), b.stats());
    }
    let phase1 = solves_on_worker_tracks(&traces, report.task_count, span::IRVING_PHASE1);
    assert_eq!(phase1, batch.len(), "every solve appears on some track");
    assert_eq!(registry.take().solves, batch.len() as u64);
}

#[test]
fn empty_traced_batch_returns_nothing() {
    let registry = BatchRegistry::new();
    let clock = ManualClock::new();
    let empty: Vec<BipartiteInstance> = Vec::new();
    let (outs, traces, _) = traced(&empty, 4, &registry, &clock, 128, GsWorkspace::new);
    assert!(outs.is_empty());
    assert!(traces.is_empty());
    assert_eq!(registry.shards_absorbed(), 0);
}
