//! Span-timeline instrumentation of the Irving engine: well-formed
//! streams, phase-1/phase-2 spans on both verdicts, and warm-resolve
//! instants with the right reason codes.

use kmatch_obs::ManualClock;
use kmatch_prefs::gen::paper::{section3b_left, section3b_right};
use kmatch_prefs::gen::uniform::uniform_roommates;
use kmatch_roommates::{solve, RoommatesRowDelta, RoommatesWorkspace};
use kmatch_trace::{check_well_formed, reason, span, EventKind, TraceRecorder};
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
fn warm_resolve_spans_tag_replay_and_fallback() {
    let clock = ManualClock::new();
    let inst = section3b_left();
    let mut ws = RoommatesWorkspace::new();

    // No footer yet: fallback with NO_FOOTER, then a full cold timeline.
    let mut rec = TraceRecorder::new(&clock);
    ws.resolve_delta_metered(&inst, &[], &mut rec);
    let events = rec.take();
    check_well_formed(&events, false).unwrap();
    assert_eq!(events[0].name, span::IRVING_WARM_FALLBACK);
    assert_eq!(events[0].arg, reason::NO_FOOTER);
    assert!(events.iter().any(|e| e.name == span::IRVING_PHASE1));

    // Finished execution + empty delta list: pure replay, no engine spans.
    let mut rec = TraceRecorder::new(&clock);
    ws.resolve_delta_metered(&inst, &[], &mut rec);
    let events = rec.take();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].name, span::IRVING_WARM_RESOLVE);

    // A live-prefix rewrite falls back with PREFIX_MISS.
    let mut edited = inst.clone();
    let old_row = edited.list(0).to_vec();
    let mut new_row = old_row.clone();
    new_row.reverse();
    edited.set_row(0, &new_row).unwrap();
    let delta = RoommatesRowDelta {
        participant: 0,
        old_row,
    };
    let mut rec = TraceRecorder::new(&clock);
    ws.resolve_delta_metered(&edited, std::slice::from_ref(&delta), &mut rec);
    let events = rec.take();
    check_well_formed(&events, false).unwrap();
    assert_eq!(events[0].name, span::IRVING_WARM_FALLBACK);
    assert_eq!(events[0].arg, reason::PREFIX_MISS);
}
