//! [`Probed`]: the observer that keeps one worker's live lane current.
//!
//! Engines already report every event through [`Metrics`]; `Probed` is
//! one more observer of that stream. It rides beside the worker's metrics
//! shard as a pair — `(&mut shard, &mut probed)` — folds the hook stream
//! into a phase/round/proposal/cut model, publishes the model into a
//! [`WorkerProbe`], and pushes and pops the probe's open-span stack as
//! spans begin and end. A solve nobody watches carries no `Probed` in its
//! observer, so the unprobed paths compile to no probe code at all.
//!
//! Publish cadence: every completed round, every phase transition, every
//! escalation attempt, and every [`PUBLISH_EVERY`] fine-grained events
//! inside a phase (Irving phase 1 has no rounds; this bounds staleness
//! to ~1024 proposals). Each publish is five uncontended atomic stores.
//! Spans are coarse only (`FINE_SPANS = false`): per-round spans churn
//! faster than any sampler samples, so tracking them would be pure
//! overhead.

use kmatch_obs::{phase, Metrics};

use crate::probe::{NameTable, WorkerProbe};

/// Fine-grained events buffered between forced publishes.
pub const PUBLISH_EVERY: u32 = 1024;

/// Observer keeping one [`WorkerProbe`] current; made by
/// [`ProbeSet::observer`](crate::ProbeSet::observer). See the module docs
/// for the folding model.
#[derive(Debug)]
pub struct Probed<'a> {
    probe: &'a WorkerProbe,
    names: &'a NameTable,
    phase: u32,
    attempt: u32,
    cut: u32,
    round: u64,
    proposals: u64,
    pending: u32,
    /// The previous escalation ladder ended (certified or fell back);
    /// the next attempt starts a fresh ladder and restarts `attempt`.
    ladder_done: bool,
    /// Test-only fault injection: sleep this long, once, at the first
    /// publish of a non-idle phase (so the watchdog and `/progress` can
    /// be exercised deterministically). 0 = disabled.
    stall_once_ms: u64,
    stalled: bool,
}

impl<'a> Probed<'a> {
    /// An observer publishing into `probe`, interning span names in
    /// `names`.
    pub(crate) fn new(probe: &'a WorkerProbe, names: &'a NameTable) -> Self {
        Probed {
            probe,
            names,
            phase: phase::IDLE,
            attempt: 0,
            cut: 0,
            round: 0,
            proposals: 0,
            pending: 0,
            ladder_done: false,
            stall_once_ms: 0,
            stalled: false,
        }
    }

    /// Arm the test-only stall injection: the first time a non-idle
    /// phase is published, the worker sleeps `ms` milliseconds (after
    /// the publish, so readers see the phase it stalled in).
    pub fn with_stall_once_ms(mut self, ms: u64) -> Self {
        self.stall_once_ms = ms;
        self
    }

    #[inline]
    fn flush(&mut self) {
        self.pending = 0;
        self.probe
            .publish(self.phase, self.attempt, self.cut, self.round, self.proposals);
    }

    #[inline]
    fn fine_event(&mut self) {
        self.pending += 1;
        if self.pending >= PUBLISH_EVERY {
            self.flush();
        }
    }

    /// Sleep once if armed and a non-idle phase was just published.
    #[inline]
    fn maybe_stall(&mut self) {
        if self.stall_once_ms > 0 && !self.stalled && self.phase != phase::IDLE {
            self.stalled = true;
            std::thread::sleep(std::time::Duration::from_millis(self.stall_once_ms));
        }
    }
}

impl Metrics for Probed<'_> {
    const ENABLED: bool = true;

    #[inline(always)]
    fn proposal(&mut self) {
        self.proposals += 1;
        self.fine_event();
    }

    #[inline(always)]
    fn round(&mut self) {
        self.round += 1;
        self.flush();
        self.maybe_stall();
    }

    #[inline(always)]
    fn round_bulk(&mut self, proposals: u64, _rejections: u64, _swaps: u64) {
        self.proposals += proposals;
    }

    #[inline(always)]
    fn phase1_truncation(&mut self) {
        self.fine_event();
    }

    #[inline(always)]
    fn phase2_rotation(&mut self) {
        self.fine_event();
    }

    #[inline]
    fn workspace(&mut self, _fresh: bool) {
        // A new solve begins: per-solve counters restart. Escalation
        // ladder state (attempt/cut) survives — the driver runs many
        // solves per ladder.
        self.round = 0;
        self.proposals = 0;
        self.flush();
    }

    #[inline]
    fn solve_done(&mut self, _solvable: bool, _proposals: u64) {
        self.phase = phase::IDLE;
        self.flush();
    }

    #[inline]
    fn escalation_attempt(&mut self, cut: u32) {
        if self.ladder_done {
            // First rung of a fresh ladder.
            self.attempt = 0;
            self.ladder_done = false;
        }
        self.phase = phase::ESCALATE;
        self.attempt += 1;
        self.cut = cut;
        self.flush();
        self.maybe_stall();
    }

    #[inline(always)]
    fn certified_stable(&mut self) {
        self.ladder_done = true;
    }

    #[inline(always)]
    fn certified_unsolvable(&mut self) {
        self.ladder_done = true;
    }

    #[inline(always)]
    fn escalation_fullwidth(&mut self) {
        self.ladder_done = true;
    }

    #[inline]
    fn phase_enter(&mut self, phase_id: u32) {
        self.phase = phase_id;
        self.flush();
        self.maybe_stall();
    }

    #[inline]
    fn span_begin(&mut self, name: &'static str, _arg: u64) {
        self.probe.push(self.names.intern(name));
    }

    #[inline]
    fn span_end(&mut self, _name: &'static str) {
        self.probe.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeSet, MAX_DEPTH};
    use kmatch_obs::SolverMetrics;

    #[test]
    fn probed_beside_a_shard_leaves_the_shard_exact() {
        // The pair hands every hook to the shard unchanged; the probe
        // only watches.
        const { assert!(<Probed as Metrics>::ENABLED) };
        const { assert!(!<Probed as Metrics>::FINE_SPANS) };
        let set = ProbeSet::new(1);
        let (mut shard, mut probed) = (SolverMetrics::new(), set.observer(0));
        let mut m = (&mut shard, &mut probed);
        m.workspace(true);
        m.phase_enter(phase::GS_ROUNDS);
        for _ in 0..3 {
            m.proposal();
        }
        m.round();
        m.solve_done(true, 3);
        assert_eq!(shard.proposals, 3);
        assert_eq!(shard.rounds, 1);
        assert_eq!(shard.solves, 1);
    }

    #[test]
    fn live_probe_tracks_phases_rounds_and_ladder() {
        let set = ProbeSet::new(1);
        let probe = set.probe(0);
        let (mut shard, mut probed) = (SolverMetrics::new(), set.observer(0));
        let mut m = (&mut shard, &mut probed);

        // GS-style solve.
        m.workspace(true);
        m.phase_enter(phase::GS_ROUNDS);
        assert_eq!(probe.snapshot().phase, phase::GS_ROUNDS);
        m.proposal();
        m.proposal();
        m.round();
        let s = probe.snapshot();
        assert_eq!(s.round, 1);
        assert_eq!(s.proposals, 2);
        m.solve_done(true, 2);
        assert_eq!(probe.snapshot().phase, phase::IDLE);

        // Escalation ladder: attempt resets on a fresh ladder, counts up,
        // cut follows the rung; per-solve counters reset per attempt.
        m.escalation_attempt(64);
        m.workspace(false);
        m.phase_enter(phase::IRVING_PHASE1);
        m.proposal();
        let s = probe.snapshot();
        assert_eq!(s.attempt, 1);
        assert_eq!(s.cut, 64);
        assert_eq!(s.phase, phase::IRVING_PHASE1);
        m.solve_done(false, 1);
        m.escalation_attempt(128);
        let s = probe.snapshot();
        assert_eq!(s.attempt, 2);
        assert_eq!(s.cut, 128);
        assert_eq!(s.phase, phase::ESCALATE);
        m.phase_enter(phase::VERIFY);
        assert_eq!(probe.snapshot().phase, phase::VERIFY);
        m.certified_unsolvable();
        m.solve_done(true, 5);

        // The certificate ended the ladder: the next attempt starts a
        // fresh one and restarts the attempt counter.
        m.escalation_attempt(32);
        assert_eq!(probe.snapshot().attempt, 1);

        // The shard saw everything.
        assert_eq!(shard.escalation_attempts, 3);
        assert_eq!(shard.solves, 3);
    }

    #[test]
    fn fine_events_publish_every_1024_without_rounds() {
        let set = ProbeSet::new(1);
        let probe = set.probe(0);
        let mut m = set.observer(0);
        m.workspace(true);
        m.phase_enter(phase::IRVING_PHASE1);
        let g0 = probe.generation();
        for _ in 0..(PUBLISH_EVERY - 1) {
            m.proposal();
        }
        assert_eq!(probe.generation(), g0, "buffered below the threshold");
        m.proposal();
        assert_eq!(probe.generation(), g0 + 1, "threshold forces a publish");
        assert_eq!(probe.snapshot().proposals, PUBLISH_EVERY as u64);
    }

    #[test]
    fn stall_injection_sleeps_once_after_publishing_the_phase() {
        let set = ProbeSet::new(1);
        let probe = set.probe(0);
        let mut m = set.observer(0).with_stall_once_ms(30);
        let t0 = std::time::Instant::now();
        m.escalation_attempt(64);
        let first = t0.elapsed();
        assert!(first >= std::time::Duration::from_millis(30), "{first:?}");
        assert_eq!(probe.snapshot().cut, 64, "phase published before the sleep");
        let t1 = std::time::Instant::now();
        m.escalation_attempt(128);
        assert!(t1.elapsed() < std::time::Duration::from_millis(30), "only stalls once");
    }

    #[test]
    fn spans_maintain_the_probe_stack() {
        let set = ProbeSet::new(1);
        let stack = || set.probe(0).snapshot().stack().to_vec();
        let mut m = set.observer(0);
        assert!(stack().is_empty());
        m.span_begin("irving.solve", 10);
        m.span_begin("irving.phase1", 10);
        let open = stack();
        assert_eq!(open.len(), 2);
        assert_eq!(set.names().name_of(open[0]), "irving.solve");
        assert_eq!(set.names().name_of(open[1]), "irving.phase1");
        m.span_end("irving.phase1");
        assert_eq!(stack().len(), 1);
        m.span_end("irving.solve");
        assert!(stack().is_empty());
        // Orphan end (truncated stream): saturates, no underflow.
        m.span_end("irving.solve");
        assert!(stack().is_empty());
        m.span_begin("gs.solve", 4);
        assert_eq!(stack().len(), 1);
    }

    #[test]
    fn overdeep_nesting_truncates_but_stays_balanced() {
        let set = ProbeSet::new(1);
        let depth = || set.probe(0).snapshot().stack().len();
        let mut m = set.observer(0);
        for _ in 0..(MAX_DEPTH + 4) {
            m.span_begin("bind.edge", 0);
        }
        assert_eq!(depth(), MAX_DEPTH);
        for _ in 0..4 {
            m.span_end("bind.edge");
        }
        assert_eq!(depth(), MAX_DEPTH);
        for _ in 0..MAX_DEPTH {
            m.span_end("bind.edge");
        }
        assert_eq!(depth(), 0);
    }

    #[test]
    fn concurrent_sampling_never_reads_garbage_ids() {
        // Writer churns a 2-deep stack of two known names; any sampled
        // stack, consistent or not, must contain only those interned ids.
        let set = std::sync::Arc::new(ProbeSet::new(1));
        let solve = set.names().intern("irving.solve");
        let p1 = set.names().intern("irving.phase1");
        let w = std::sync::Arc::clone(&set);
        let writer = std::thread::spawn(move || {
            let mut m = w.observer(0);
            for _ in 0..30_000 {
                m.span_begin("irving.solve", 0);
                m.span_begin("irving.phase1", 0);
                m.span_end("irving.phase1");
                m.span_end("irving.solve");
            }
        });
        while !writer.is_finished() {
            let snap = set.probe(0).snapshot();
            let stack = snap.stack();
            assert!(stack.len() <= 2, "{stack:?}");
            for &id in stack {
                assert!(id == solve || id == p1, "unknown id {id}");
            }
            if stack.len() == 2 {
                assert_eq!(stack, [solve, p1], "inverted stack");
            }
        }
        writer.join().unwrap();
    }
}
