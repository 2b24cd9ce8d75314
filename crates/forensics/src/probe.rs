//! Per-worker progress slots: the seqlock registers solvers publish
//! "where am I right now" into, and readers (`GET /progress`, the
//! watchdog, postmortem bundles) snapshot without ever blocking a
//! worker.
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
//!   `seq` to even with `Release`. Publishing is wait-free: five
//!   uncontended atomic stores.
//! * **Readers** load `seq` with `Acquire`, load the fields, re-load
//!   `seq`, and retry on odd-or-changed. Retries are bounded: a writer
//!   publishes at coarse intervals (per round / per 1024 events), so a
//!   reader colliding with a write window twice in a row is already
//!   rare; after [`SNAPSHOT_RETRIES`] failed rounds the reader keeps the
//!   last (possibly cross-field-skewed, never torn) values and marks the
//!   snapshot [`ProgressSnapshot::consistent`]` = false` rather than
//!   spinning against a worker that parked mid-publish.
//! * `generation` counts publishes (`seq / 2`); it is the watchdog
//!   heartbeat — any publish moves it, so "generation frozen" ⇔ "worker
//!   not reaching publish points" ⇔ stalled.

use std::sync::atomic::{AtomicU64, Ordering};

use kmatch_obs::phase;

/// Snapshot-read retry budget before degrading to `consistent = false`.
pub const SNAPSHOT_RETRIES: usize = 16;

/// One worker lane's progress register.
#[derive(Debug, Default)]
pub struct WorkerProbe {
    /// Seqlock sequence: odd while a publish is in flight.
    seq: AtomicU64,
    /// `phase << 32 | attempt` (both u32).
    phase_attempt: AtomicU64,
    /// Current escalation cut K (0 outside escalation).
    cut: AtomicU64,
    /// Rounds completed in the current solve.
    round: AtomicU64,
    /// Proposals issued in the current solve.
    proposals: AtomicU64,
}

/// A decoded, internally consistent (unless flagged) probe reading.
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
    /// Publishes so far — the watchdog heartbeat.
    pub generation: u64,
    /// `false` when the reader exhausted its retry budget against an
    /// in-flight publish; fields are then untorn but may be skewed
    /// across a publish boundary.
    pub consistent: bool,
}

impl ProgressSnapshot {
    /// Human name of [`ProgressSnapshot::phase`].
    pub fn phase_name(&self) -> &'static str {
        phase::phase_name(self.phase)
    }
}

impl WorkerProbe {
    /// A probe at rest: phase [`phase::IDLE`], generation 0.
    pub fn new() -> Self {
        WorkerProbe::default()
    }

    /// Publish a full reading. Single-writer: only the owning worker's
    /// adapter may call this (concurrent writers would interleave odd
    /// sequence windows; readers would still never see torn words, but
    /// `generation` would lose its per-worker meaning).
    pub fn publish(&self, phase: u32, attempt: u32, cut: u32, round: u64, proposals: u64) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
        self.phase_attempt
            .store(((phase as u64) << 32) | attempt as u64, Ordering::Relaxed);
        self.cut.store(cut as u64, Ordering::Relaxed);
        self.round.store(round, Ordering::Relaxed);
        self.proposals.store(proposals, Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Read a consistent snapshot (worker index filled by the caller).
    pub fn snapshot(&self) -> ProgressSnapshot {
        let mut pa = 0u64;
        let mut cut = 0u64;
        let mut round = 0u64;
        let mut proposals = 0u64;
        let mut seq = 0u64;
        let mut consistent = false;
        for _ in 0..SNAPSHOT_RETRIES {
            let s1 = self.seq.load(Ordering::Acquire);
            pa = self.phase_attempt.load(Ordering::Relaxed);
            cut = self.cut.load(Ordering::Relaxed);
            round = self.round.load(Ordering::Relaxed);
            proposals = self.proposals.load(Ordering::Relaxed);
            let s2 = self.seq.load(Ordering::Acquire);
            seq = s2;
            if s1 == s2 && s1 & 1 == 0 {
                consistent = true;
                break;
            }
        }
        ProgressSnapshot {
            worker: 0,
            phase: (pa >> 32) as u32,
            attempt: (pa & 0xffff_ffff) as u32,
            cut: cut as u32,
            round,
            proposals,
            generation: seq / 2,
            consistent,
        }
    }

    /// The heartbeat alone (no retry loop needed: one atomic load).
    pub fn generation(&self) -> u64 {
        self.seq.load(Ordering::Acquire) / 2
    }
}

/// A fixed set of worker probes, one lane per worker, shared between the
/// solving threads (writers) and the ops plane (readers) behind an
/// `Arc`.
#[derive(Debug)]
pub struct ProbeSet {
    lanes: Vec<WorkerProbe>,
}

impl ProbeSet {
    /// `lanes` idle probes.
    pub fn new(lanes: usize) -> Self {
        ProbeSet {
            lanes: (0..lanes.max(1)).map(|_| WorkerProbe::new()).collect(),
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
}
