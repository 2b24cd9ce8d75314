//! Per-worker live lanes: the seqlock registers solvers publish "where
//! am I right now" into — phase, round, cut and the open-span stack —
//! and readers (`GET /progress`, the watchdog, the sampling profiler,
//! postmortem bundles) snapshot without ever blocking a worker.
//!
//! ## Memory model
//!
//! Each [`WorkerProbe`] is a software seqlock built entirely from
//! individual atomics, so this stays `#![forbid(unsafe_code)]`: a torn
//! *composite* read is detectable (sequence mismatch) but never
//! undefined behavior, because every field is itself an atomic word.
//!
//! * The **single writer** (the worker's `Probed` observer) bumps `seq`
//!   to odd with `Release`, stores the fields `Relaxed`, then bumps
//!   `seq` to even with `Release`. Publishing is wait-free: a progress
//!   publish is five uncontended atomic stores, a span push or pop two
//!   or three more inside the same sequence window.
//! * **Readers** load `seq` with `Acquire`, load the fields and the
//!   stack, re-load `seq`, and retry on odd-or-changed. Retries are
//!   bounded: a writer publishes at coarse intervals (per round / per
//!   1024 events / per phase-level span), so a reader colliding with a
//!   write window twice in a row is already rare; after
//!   [`SNAPSHOT_RETRIES`] failed rounds the reader keeps the last
//!   (possibly cross-field-skewed, never torn) values and marks the
//!   snapshot [`ProgressSnapshot::consistent`]` = false` rather than
//!   spinning against a worker that parked mid-publish.
//! * `generation` counts writes (`seq / 2`); it is the watchdog
//!   heartbeat — any publish or span push/pop moves it, so "generation
//!   frozen" ⇔ "worker not reaching publish points" ⇔ stalled.
//!
//! Span names are interned in the set's [`NameTable`]; interning locks
//! a mutex, but only on span *begin* of phase-level spans (a handful per
//! solve), never per event inside a phase.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use kmatch_obs::phase;

use crate::probed::Probed;

/// Snapshot-read retry budget before degrading to `consistent = false`.
pub const SNAPSHOT_RETRIES: usize = 16;

/// Deepest span stack a lane stores. Deeper nesting keeps balanced
/// depth accounting but snapshots truncate to this many frames (the
/// engine taxonomy nests ≤ 4 deep today).
pub const MAX_DEPTH: usize = 16;

/// Interned span names, shared by a set's writers and the sampler.
#[derive(Debug, Default)]
pub struct NameTable {
    names: Mutex<Vec<&'static str>>,
}

impl NameTable {
    /// An empty table.
    pub fn new() -> Self {
        NameTable::default()
    }

    /// Id of `name`, interning it on first sight.
    pub fn intern(&self, name: &'static str) -> u32 {
        let mut names = self.names.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = names.iter().position(|n| *n == name) {
            return i as u32;
        }
        names.push(name);
        (names.len() - 1) as u32
    }

    /// Name for `id` (`"?"` for ids never interned here).
    pub fn name_of(&self, id: u32) -> &'static str {
        self.names
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(id as usize)
            .copied()
            .unwrap_or("?")
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One worker's live lane: progress fields and open-span stack under
/// one sequence counter.
#[derive(Debug, Default)]
pub struct WorkerProbe {
    /// Seqlock sequence: odd while a write is in flight.
    seq: AtomicU64,
    /// `phase << 32 | attempt` (both u32).
    phase_attempt: AtomicU64,
    /// Current escalation cut K (0 outside escalation).
    cut: AtomicU64,
    /// Rounds completed in the current solve.
    round: AtomicU64,
    /// Proposals issued in the current solve.
    proposals: AtomicU64,
    /// Open spans (keeps counting past [`MAX_DEPTH`]).
    depth: AtomicU32,
    /// Interned ids of the open spans, outermost first.
    stack: [AtomicU32; MAX_DEPTH],
}

/// A decoded, internally consistent (unless flagged) lane reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Worker lane index (assigned by [`ProbeSet::snapshot`]).
    pub worker: usize,
    /// Current [`phase`] id.
    pub phase: u32,
    /// Escalation attempts started in the current solve.
    pub attempt: u32,
    /// Current escalation cut K (0 outside escalation).
    pub cut: u32,
    /// Rounds completed in the current solve.
    pub round: u64,
    /// Proposals issued in the current solve.
    pub proposals: u64,
    /// Writes so far — the watchdog heartbeat.
    pub generation: u64,
    /// `false` when the reader exhausted its retry budget against an
    /// in-flight write; fields are then untorn but may be skewed
    /// across a write boundary.
    pub consistent: bool,
    /// Open spans (may exceed [`MAX_DEPTH`]).
    pub depth: u32,
    /// Interned ids of the open spans, outermost first; only the
    /// entries [`ProgressSnapshot::stack`] returns are meaningful.
    pub frames: [u32; MAX_DEPTH],
}

impl ProgressSnapshot {
    /// Human name of [`ProgressSnapshot::phase`].
    pub fn phase_name(&self) -> &'static str {
        phase::phase_name(self.phase)
    }

    /// The open-span stack, outermost first, truncated to [`MAX_DEPTH`].
    pub fn stack(&self) -> &[u32] {
        &self.frames[..(self.depth as usize).min(MAX_DEPTH)]
    }
}

impl WorkerProbe {
    /// A probe at rest: phase [`phase::IDLE`], no open span,
    /// generation 0.
    pub fn new() -> Self {
        WorkerProbe::default()
    }

    /// One write window. Single-writer: only the owning worker's
    /// observer may write (concurrent writers would interleave odd
    /// sequence windows; readers would still never see torn words, but
    /// `generation` would lose its per-worker meaning).
    #[inline]
    fn write(&self, store: impl FnOnce()) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
        store();
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Publish a full progress reading (the span stack is left as is).
    pub fn publish(&self, phase: u32, attempt: u32, cut: u32, round: u64, proposals: u64) {
        self.write(|| {
            self.phase_attempt
                .store(((phase as u64) << 32) | attempt as u64, Ordering::Relaxed);
            self.cut.store(cut as u64, Ordering::Relaxed);
            self.round.store(round, Ordering::Relaxed);
            self.proposals.store(proposals, Ordering::Relaxed);
        });
    }

    /// Push an interned span id (depth keeps counting past
    /// [`MAX_DEPTH`]; frames beyond it are not stored).
    pub(crate) fn push(&self, id: u32) {
        self.write(|| {
            let d = self.depth.load(Ordering::Relaxed);
            if let Some(slot) = self.stack.get(d as usize) {
                slot.store(id, Ordering::Relaxed);
            }
            self.depth.store(d + 1, Ordering::Relaxed);
        });
    }

    /// Pop the innermost span (saturating at empty — an orphan `end`
    /// from a truncated stream must not underflow).
    pub(crate) fn pop(&self) {
        self.write(|| {
            let d = self.depth.load(Ordering::Relaxed);
            self.depth.store(d.saturating_sub(1), Ordering::Relaxed);
        });
    }

    /// Read a consistent snapshot (worker index filled by the caller).
    pub fn snapshot(&self) -> ProgressSnapshot {
        let mut snap = ProgressSnapshot {
            worker: 0,
            phase: phase::IDLE,
            attempt: 0,
            cut: 0,
            round: 0,
            proposals: 0,
            generation: 0,
            consistent: false,
            depth: 0,
            frames: [0; MAX_DEPTH],
        };
        for _ in 0..SNAPSHOT_RETRIES {
            let s1 = self.seq.load(Ordering::Acquire);
            let pa = self.phase_attempt.load(Ordering::Relaxed);
            snap.phase = (pa >> 32) as u32;
            snap.attempt = (pa & 0xffff_ffff) as u32;
            snap.cut = self.cut.load(Ordering::Relaxed) as u32;
            snap.round = self.round.load(Ordering::Relaxed);
            snap.proposals = self.proposals.load(Ordering::Relaxed);
            snap.depth = self.depth.load(Ordering::Relaxed);
            snap.frames = [0; MAX_DEPTH];
            let open = (snap.depth as usize).min(MAX_DEPTH);
            for (f, a) in snap.frames[..open].iter_mut().zip(&self.stack) {
                *f = a.load(Ordering::Relaxed);
            }
            let s2 = self.seq.load(Ordering::Acquire);
            snap.generation = s2 / 2;
            if s1 == s2 && s1 & 1 == 0 {
                snap.consistent = true;
                break;
            }
        }
        snap
    }

    /// The heartbeat alone (no retry loop needed: one atomic load).
    pub fn generation(&self) -> u64 {
        self.seq.load(Ordering::Acquire) / 2
    }
}

/// A fixed set of worker lanes, one per worker, plus the [`NameTable`]
/// their span stacks intern into — shared between the solving threads
/// (writers) and the ops plane and sampler (readers) behind an `Arc`.
#[derive(Debug)]
pub struct ProbeSet {
    lanes: Vec<WorkerProbe>,
    names: NameTable,
}

impl ProbeSet {
    /// `lanes` idle probes and an empty name table.
    pub fn new(lanes: usize) -> Self {
        ProbeSet {
            lanes: (0..lanes.max(1)).map(|_| WorkerProbe::new()).collect(),
            names: NameTable::new(),
        }
    }

    /// Lane count.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True when the set has no lanes (never: `new` clamps to ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Lane `i`'s probe (panics past the end, like slice indexing).
    pub fn probe(&self, i: usize) -> &WorkerProbe {
        &self.lanes[i]
    }

    /// The shared span-name table.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// The observer that keeps lane `i` current (one per worker;
    /// single-writer).
    pub fn observer(&self, i: usize) -> Probed<'_> {
        Probed::new(&self.lanes[i], &self.names)
    }

    /// Snapshot every lane, worker indices filled in.
    pub fn snapshot(&self) -> Vec<ProgressSnapshot> {
        self.lanes
            .iter()
            .enumerate()
            .map(|(i, p)| ProgressSnapshot {
                worker: i,
                ..p.snapshot()
            })
            .collect()
    }

    /// Every lane's heartbeat, in lane order — the watchdog reading.
    pub fn generations(&self) -> Vec<u64> {
        self.lanes.iter().map(|p| p.generation()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_snapshot_round_trips() {
        let p = WorkerProbe::new();
        let s = p.snapshot();
        assert_eq!(s.phase, phase::IDLE);
        assert_eq!(s.generation, 0);
        assert!(s.consistent);

        p.publish(phase::ESCALATE, 3, 1265, 42, 100_000);
        let s = p.snapshot();
        assert!(s.consistent);
        assert_eq!(s.phase, phase::ESCALATE);
        assert_eq!(s.phase_name(), "escalate");
        assert_eq!(s.attempt, 3);
        assert_eq!(s.cut, 1265);
        assert_eq!(s.round, 42);
        assert_eq!(s.proposals, 100_000);
        assert_eq!(s.generation, 1);
        assert_eq!(p.generation(), 1);
    }

    #[test]
    fn probe_set_assigns_worker_indices() {
        let set = ProbeSet::new(3);
        set.probe(1).publish(phase::IRVING_PHASE1, 0, 0, 7, 9);
        let snaps = set.snapshot();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[1].worker, 1);
        assert_eq!(snaps[1].round, 7);
        assert_eq!(snaps[0].phase, phase::IDLE);
        assert_eq!(set.generations(), vec![0, 1, 0]);
    }

    #[test]
    fn concurrent_publish_and_snapshot_never_tear() {
        // Writer publishes entangled values (cut == attempt * 10,
        // proposals == round * 100); any consistent snapshot must
        // preserve both invariants exactly.
        let p = std::sync::Arc::new(WorkerProbe::new());
        let w = std::sync::Arc::clone(&p);
        let writer = std::thread::spawn(move || {
            for i in 1..=50_000u64 {
                w.publish(phase::ESCALATE, i as u32, (i * 10) as u32, i, i * 100);
                // Real publishers space publishes by at least a round of
                // solving; an all-stores duty cycle would just pin the
                // reader in its (legitimate) inconsistency path.
                if i % 512 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
        });
        let mut consistent_reads = 0u64;
        while !writer.is_finished() {
            let s = p.snapshot();
            if s.consistent {
                consistent_reads += 1;
                assert_eq!(s.cut as u64, s.attempt as u64 * 10, "torn: {s:?}");
                assert_eq!(s.proposals, s.round * 100, "torn: {s:?}");
            }
        }
        writer.join().unwrap();
        let s = p.snapshot();
        assert!(s.consistent);
        assert_eq!(s.attempt, 50_000);
        assert_eq!(s.generation, 50_000);
        assert!(consistent_reads > 0, "reader never got a clean snapshot");
    }

    #[test]
    fn consistent_snapshots_pair_the_stack_with_its_own_publish() {
        // One sequence counter covers both halves of the lane: the
        // writer closes span i - 1, publishes round i and opens a span
        // whose id is i. A consistent snapshot must see either no open
        // span or exactly `[round]` — never a stack from one write
        // beside the round of another.
        let p = std::sync::Arc::new(WorkerProbe::new());
        let w = std::sync::Arc::clone(&p);
        let writer = std::thread::spawn(move || {
            for i in 1..=50_000u64 {
                w.pop();
                w.publish(phase::IRVING_PHASE1, 0, 0, i, 0);
                w.push(i as u32);
                if i % 512 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
        });
        let mut open_reads = 0u64;
        while !writer.is_finished() {
            let s = p.snapshot();
            if s.consistent {
                assert!(s.depth <= 1, "unbalanced: {s:?}");
                if !s.stack().is_empty() {
                    open_reads += 1;
                    assert_eq!(s.stack(), [s.round as u32], "skewed: {s:?}");
                }
            }
        }
        writer.join().unwrap();
        let s = p.snapshot();
        assert!(s.consistent);
        assert_eq!(s.stack(), [50_000]);
        assert_eq!(
            s.generation,
            3 * 50_000,
            "every publish, push and pop is a write"
        );
        assert!(open_reads > 0, "reader never saw an open span");
    }

    #[test]
    fn interning_is_stable_and_shared() {
        let t = NameTable::new();
        let a = t.intern("gs.solve");
        let b = t.intern("gs.round");
        assert_ne!(a, b);
        assert_eq!(t.intern("gs.solve"), a);
        assert_eq!(t.name_of(a), "gs.solve");
        assert_eq!(t.name_of(999), "?");
        assert_eq!(t.len(), 2);
    }
}
