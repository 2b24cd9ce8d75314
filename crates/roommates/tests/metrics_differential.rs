//! Metrics-vs-trace differential suite for Irving's algorithm: the
//! `SolverMetrics` counters recorded by the metered fast path must agree
//! exactly with the event stream of the traced reference path on the same
//! instances — proposals with `Proposal`, holder swaps with displacing
//! proposals, phase-2 rotations with `Rotation`. All randomness is
//! seeded `rand_chacha` driven by the deterministic proptest case stream.

use kmatch_obs::SolverMetrics;
use kmatch_prefs::gen::uniform::uniform_roommates;
use kmatch_roommates::{solve_traced, RoommatesEvent, RoommatesWorkspace};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    fn metrics_equal_trace_event_counts(n in 2usize..32, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_roommates(n, &mut rng);

        let mut m = SolverMetrics::new();
        let metered = RoommatesWorkspace::new().solve_metered(&inst, &mut m);
        let (traced, events) = solve_traced(&inst);
        prop_assert_eq!(metered.matching(), traced.matching());
        prop_assert_eq!(metered.stats(), traced.stats());

        let proposals = events
            .iter()
            .filter(|e| matches!(e, RoommatesEvent::Proposal { .. }))
            .count() as u64;
        let displacing = events
            .iter()
            .filter(|e| matches!(e, RoommatesEvent::Proposal { displaced: Some(_), .. }))
            .count() as u64;
        let rotations = events
            .iter()
            .filter(|e| matches!(e, RoommatesEvent::Rotation { .. }))
            .count() as u64;
        let emptied = events
            .iter()
            .any(|e| matches!(e, RoommatesEvent::ListEmptied { .. }));

        prop_assert_eq!(m.proposals, proposals);
        prop_assert_eq!(m.holder_swaps, displacing);
        prop_assert_eq!(m.phase2_rotations, rotations);
        // One threshold store per held proposal — the metered definition
        // of a truncation — while the trace only logs non-empty removals,
        // so the traced Truncation count can only be lower.
        prop_assert_eq!(m.phase1_truncations, proposals);
        let traced_truncations = events
            .iter()
            .filter(|e| matches!(e, RoommatesEvent::Truncation { .. }))
            .count() as u64;
        prop_assert!(traced_truncations <= m.phase1_truncations);

        prop_assert_eq!(m.solves, 1);
        prop_assert_eq!(metered.is_stable(), !emptied);
        prop_assert_eq!(m.solvable, u64::from(metered.is_stable()));
        prop_assert_eq!(m.unsolvable, u64::from(!metered.is_stable()));
    }
}
