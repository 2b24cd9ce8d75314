//! Span-timeline instrumentation of the Irving engine: well-formed
//! streams, phase-1/phase-2 spans on both verdicts and no oracle work
//! between the phases.

use std::cell::Cell;

use kmatch_obs::{ManualClock, Metrics};
use kmatch_prefs::gen::paper::{section3b_left, section3b_right};
use kmatch_prefs::gen::uniform::uniform_roommates;
use kmatch_prefs::RoommatesOracle;
use kmatch_roommates::{solve, RoommatesWorkspace};
use kmatch_trace::{check_well_formed, span, EventKind, TraceRecorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn solvable_instance_emits_both_phases() {
    let inst = section3b_left();
    let clock = ManualClock::new();
    let mut rec = TraceRecorder::new(&clock);
    let mut ws = RoommatesWorkspace::new();
    let out = ws.solve_metered(&inst, &mut rec);
    assert!(out.is_stable());
    let events = rec.events();
    check_well_formed(events, false).unwrap();
    for name in [span::IRVING_SOLVE, span::IRVING_PHASE1, span::IRVING_PHASE2] {
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Begin && e.name == name),
            "missing {name} span"
        );
    }
    // irving.solve carries n and encloses everything.
    assert_eq!(events.first().map(|e| (e.name, e.arg)), Some((span::IRVING_SOLVE, 6)));
    assert_eq!(events.last().map(|e| e.name), Some(span::IRVING_SOLVE));
}

#[test]
fn phase1_failure_still_closes_spans() {
    // The paper's right-hand lists die in phase 1: no phase-2 span, but
    // the stream must still balance.
    let inst = section3b_right();
    let clock = ManualClock::new();
    let mut rec = TraceRecorder::new(&clock);
    let mut ws = RoommatesWorkspace::new();
    let out = ws.solve_metered(&inst, &mut rec);
    assert!(!out.is_stable());
    let events = rec.events();
    check_well_formed(events, false).unwrap();
    assert!(events.iter().any(|e| e.name == span::IRVING_PHASE1));
    assert!(!events.iter().any(|e| e.name == span::IRVING_PHASE2));
}

#[test]
fn spanned_matches_plain_across_random_instances() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let clock = ManualClock::new();
    let mut ws = RoommatesWorkspace::new();
    for _ in 0..20 {
        for n in [6usize, 9, 12] {
            let inst = uniform_roommates(n, &mut rng);
            let mut rec = TraceRecorder::new(&clock);
            let spanned = ws.solve_metered(&inst, &mut rec);
            let plain = solve(&inst);
            assert_eq!(spanned.matching(), plain.matching());
            assert_eq!(spanned.stats(), plain.stats());
            check_well_formed(rec.events(), false).unwrap();
        }
    }
}

#[test]
fn escalating_attempts_reach_the_observer() {
    // Every truncated attempt runs the engine core, so a (SolverMetrics,
    // FlightRecorder) pair records each attempt's phase-1 span and its
    // proposals, while each call still reports one verdict: `solve_done`
    // carries the deciding run's proposals, `proposals` sums every
    // attempt's.
    use kmatch_prefs::CachedRoommatesOracle;
    use kmatch_roommates::{escalate::solve_escalating_from, CertKind};
    let clock = ManualClock::new();
    let mut ring = kmatch_trace::FlightRecorder::new(&clock, 1 << 12);
    let mut shard = kmatch_obs::SolverMetrics::new();
    let mut ws = RoommatesWorkspace::new();
    let (mut attempts, mut engine_runs, mut deciding_proposals) = (0, 0, 0);
    for seed in 0..51u64 {
        let oracle = CachedRoommatesOracle::new(96, seed);
        let mut pair = (&mut shard, &mut ring);
        let (out, report) = solve_escalating_from(&oracle, &mut ws, 4, &mut pair);
        attempts += u64::from(report.attempts);
        engine_runs += u64::from(report.attempts) + u64::from(report.cert == CertKind::FullWidth);
        deciding_proposals += out.stats().proposals;
    }
    let events = ring.events();
    check_well_formed(&events, false).unwrap();
    let phase1 = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == span::IRVING_PHASE1);
    assert_eq!(phase1.count() as u64, engine_runs);
    assert!(attempts > 51, "some calls escalate past attempt 1");
    assert_eq!(shard.proposals_per_solve.sum(), deciding_proposals);
    assert!(shard.proposals > deciding_proposals && shard.phase1_truncations > 0);
    assert_eq!((shard.solves, shard.escalation_attempts), (51, attempts));
}

/// Counts every oracle call it answers — row reads and rank probes alike.
struct ProbeCounting<'a, O> {
    inner: O,
    probes: &'a Cell<u64>,
}

impl<O> ProbeCounting<'_, O> {
    fn tick(&self, k: usize) {
        self.probes.set(self.probes.get() + k as u64);
    }
}

impl<O: RoommatesOracle> RoommatesOracle for ProbeCounting<'_, O> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn row_len(&self, p: u32) -> u32 {
        self.tick(1);
        self.inner.row_len(p)
    }
    fn candidate(&self, p: u32, pos: u32) -> u32 {
        self.tick(1);
        self.inner.candidate(p, pos)
    }
    fn rank_of(&self, p: u32, q: u32) -> u32 {
        self.tick(1);
        self.inner.rank_of(p, q)
    }
    fn candidates_into(&self, p: u32, lo: u32, out: &mut [u32]) {
        self.tick(out.len());
        self.inner.candidates_into(p, lo, out)
    }
    fn ranks_toward_into(&self, qs: &[u32], p: u32, out: &mut [u32]) {
        self.tick(qs.len());
        self.inner.ranks_toward_into(qs, p, out)
    }
    fn rank_lt(&self, q: u32, p: u32, limit: u32) -> bool {
        self.tick(1);
        self.inner.rank_lt(q, p, limit)
    }
    fn ranks_lt_into(&self, qs: &[u32], p: u32, limits: &[u32], out: &mut [bool]) {
        self.tick(qs.len());
        self.inner.ranks_lt_into(qs, p, limits, out)
    }
}

/// Reads the probe counter at each `irving.phase1` end and sums the probes
/// made between it and the next `irving.phase2` begin.
struct PhaseGap<'a> {
    probes: &'a Cell<u64>,
    phase1_end: Option<u64>,
    gap_probes: u64,
    phase2_runs: u64,
}

impl Metrics for PhaseGap<'_> {
    const ENABLED: bool = true;
    fn span_begin(&mut self, name: &'static str, _arg: u64) {
        if name == span::IRVING_PHASE2 {
            let end = self.phase1_end.take().expect("phase 2 follows phase 1");
            self.gap_probes += self.probes.get() - end;
            self.phase2_runs += 1;
        }
    }
    fn span_end(&mut self, name: &'static str) {
        if name == span::IRVING_PHASE1 {
            self.phase1_end = Some(self.probes.get());
        }
    }
}

#[test]
fn no_oracle_probe_falls_between_the_phase_spans() {
    // Building the phase-2 arena probes the oracle once per surviving
    // window candidate; it belongs to the `irving.phase2` span, so no
    // probe is left between the two phases. Strict solves first, then
    // the truncated attempts of escalating solves.
    use kmatch_prefs::CachedRoommatesOracle;
    use kmatch_roommates::escalate::solve_escalating_from;
    let probes = Cell::new(0);
    let mut gap = PhaseGap {
        probes: &probes,
        phase1_end: None,
        gap_probes: 0,
        phase2_runs: 0,
    };
    let mut ws = RoommatesWorkspace::new();
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    for n in [6usize, 12, 24, 48] {
        for _ in 0..4 {
            let inner = uniform_roommates(n, &mut rng);
            let inst = ProbeCounting {
                inner,
                probes: &probes,
            };
            ws.solve_metered(&inst, &mut gap);
        }
    }
    assert!(gap.phase2_runs > 0, "some strict solve reaches phase 2");
    assert_eq!(gap.gap_probes, 0, "strict solves probe between the phases");
    let strict_runs = gap.phase2_runs;
    for seed in 0..8u64 {
        let inst = ProbeCounting {
            inner: CachedRoommatesOracle::new(96, seed),
            probes: &probes,
        };
        solve_escalating_from(&inst, &mut ws, 16, &mut gap);
    }
    assert!(
        gap.phase2_runs > strict_runs,
        "some escalating attempt reaches phase 2"
    );
    assert_eq!(
        gap.gap_probes, 0,
        "escalating attempts probe between the phases"
    );
}
