//! Span-timeline instrumentation of the GS engine: the recorded stream
//! is well-formed, one `gs.round` span per proposal round, and a re-solve
//! emits a replay instant or a fallback instant with the right reason code.

use kmatch_gs::{gale_shapley, GsWorkspace};
use kmatch_obs::{ManualClock, NoMetrics, SolverMetrics};
use kmatch_prefs::gen::uniform::uniform_bipartite;
use kmatch_prefs::{DeltaSide, PrefDelta};
use kmatch_trace::{check_well_formed, reason, span, EventKind, FlightRecorder, TraceRecorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn solve_spanned_emits_one_round_span_per_round() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let inst = uniform_bipartite(32, &mut rng);
    let clock = ManualClock::new();
    let mut rec = TraceRecorder::new(&clock);
    let mut ws = GsWorkspace::new();
    let out = ws.solve_metered(&inst, &mut rec);
    let events = rec.events();
    check_well_formed(events, false).unwrap();

    let round_begins = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == span::GS_ROUND)
        .count();
    assert_eq!(round_begins as u32, out.stats.rounds);
    // The whole execution sits inside one gs.solve span carrying n.
    assert_eq!(events.first().map(|e| e.name), Some(span::GS_SOLVE));
    assert_eq!(events.first().map(|e| e.arg), Some(32));
    assert_eq!(events.last().map(|e| e.name), Some(span::GS_SOLVE));
    // Round spans carry the 1-based round number in order.
    let round_args: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == span::GS_ROUND)
        .map(|e| e.arg)
        .collect();
    assert_eq!(round_args, (1..=out.stats.rounds as u64).collect::<Vec<_>>());
}

#[test]
fn spanned_solve_matches_unspanned_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(22);
    let clock = ManualClock::new();
    for n in [1usize, 2, 17, 40] {
        let inst = uniform_bipartite(n, &mut rng);
        let mut ws = GsWorkspace::new();
        let mut rec = TraceRecorder::new(&clock);
        let spanned = ws.solve_metered(&inst, &mut rec);
        let plain = gale_shapley(&inst);
        assert_eq!(spanned.matching, plain.matching, "n = {n}");
        assert_eq!(spanned.stats, plain.stats, "n = {n}");
    }
}

#[test]
fn warm_resolve_spans_tag_replay_and_fallback() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let n = 24usize;
    let mut inst = uniform_bipartite(n, &mut rng);
    let clock = ManualClock::new();
    let mut ws = GsWorkspace::new();

    // A fresh workspace has nothing to replay: cold fallback.
    let mut rec = TraceRecorder::new(&clock);
    ws.resolve(&inst, false, &[], &mut rec);
    let events = rec.take();
    check_well_formed(&events, false).unwrap();
    assert_eq!(events[0].name, span::GS_WARM_FALLBACK);
    assert_eq!(events[0].arg, reason::COLD_START);

    // A dead delta replays: one resolve instant with arg 0, no solve span.
    let dead = PrefDelta::Swap {
        side: DeltaSide::Proposer,
        row: 3,
        a: (n - 2) as u32,
        b: (n - 1) as u32,
    };
    assert!(ws.delta_is_dead(&inst, &dead));
    inst.apply_delta(&dead).unwrap();
    let mut m = SolverMetrics::new();
    let mut rec = TraceRecorder::new(&clock);
    let out = ws.resolve(&inst, false, &[], &mut (&mut m, &mut rec));
    let events = rec.take();
    check_well_formed(&events, false).unwrap();
    let resolve = events
        .iter()
        .find(|e| e.name == span::GS_WARM_RESOLVE)
        .expect("a replay must emit a gs.warm.resolve instant");
    assert_eq!(resolve.arg, 0);
    assert_eq!(resolve.arg, m.refreed_proposers);
    assert!(!events.iter().any(|e| e.name == span::GS_WARM_FALLBACK));
    assert!(!events.iter().any(|e| e.name == span::GS_SOLVE));
    assert_eq!(out.matching, gale_shapley(&inst).matching);

    // A live delta falls back with PREFIX_MISS and solves cold.
    let live = PrefDelta::Swap {
        side: DeltaSide::Proposer,
        row: 3,
        a: 0,
        b: (n - 1) as u32,
    };
    assert!(!ws.delta_is_dead(&inst, &live));
    inst.apply_delta(&live).unwrap();
    let mut rec = TraceRecorder::new(&clock);
    let out = ws.resolve(&inst, true, &[], &mut rec);
    let events = rec.take();
    check_well_formed(&events, false).unwrap();
    assert_eq!(events[0].name, span::GS_WARM_FALLBACK);
    assert_eq!(events[0].arg, reason::PREFIX_MISS);
    assert!(events.iter().any(|e| e.name == span::GS_SOLVE));
    assert_eq!(out.matching, gale_shapley(&inst).matching);

    // A size change falls back with SIZE_MISMATCH.
    let other = uniform_bipartite(n + 5, &mut rng);
    let mut rec = TraceRecorder::new(&clock);
    ws.resolve(&other, false, &[], &mut rec);
    let events = rec.take();
    assert_eq!(events[0].name, span::GS_WARM_FALLBACK);
    assert_eq!(events[0].arg, reason::SIZE_MISMATCH);
}

#[test]
fn flight_recorder_gets_phase_spans_but_no_round_spans() {
    // The always-armed ring declares `FINE = false`: the engine skips
    // the per-round spans entirely (not even a call is made), so the
    // trace holds the gs.solve phase span alone and the ring's overhead
    // stays bounded by events-per-solve, not rounds-per-solve.
    let mut rng = ChaCha8Rng::seed_from_u64(25);
    let inst = uniform_bipartite(32, &mut rng);
    let clock = ManualClock::new();
    let mut ring = FlightRecorder::new(&clock, 1 << 10);
    let mut ws = GsWorkspace::new();
    let out = ws.solve_metered(&inst, &mut ring);
    assert_eq!(out.matching, gale_shapley(&inst).matching);
    assert!(out.stats.rounds > 1, "a 32-way instance takes several rounds");
    let events = ring.events();
    check_well_formed(&events, false).unwrap();
    assert_eq!(events.len(), 2, "begin + end of gs.solve, nothing else");
    assert!(events.iter().all(|e| e.name == span::GS_SOLVE));
    assert_eq!(ring.dropped(), 0);
}

#[test]
fn nospans_sink_changes_nothing() {
    let mut rng = ChaCha8Rng::seed_from_u64(24);
    let inst = uniform_bipartite(20, &mut rng);
    let mut ws = GsWorkspace::new();
    let spanned = ws.solve_metered(&inst, &mut NoMetrics);
    assert_eq!(spanned.matching, gale_shapley(&inst).matching);
}
