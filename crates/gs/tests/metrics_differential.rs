//! Metrics-vs-trace differential suite: the `SolverMetrics` counters
//! recorded by the zero-overhead metered fast path must agree *exactly*
//! with the event stream produced by the traced reference path on the
//! same instances — proposals with `Propose`, rejections with `Reject`,
//! rounds with `RoundStart`, holder swaps with displacing `Engage`s.
//! All randomness is seeded `rand_chacha` driven by the deterministic
//! proptest case stream.

use kmatch_gs::{gale_shapley_traced, GsEvent, GsWorkspace};
use kmatch_obs::SolverMetrics;
use kmatch_prefs::gen::uniform::uniform_bipartite;
use proptest::{prop_assert_eq, proptest, ProptestConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    fn metrics_equal_trace_event_counts(n in 1usize..40, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_bipartite(n, &mut rng);

        let mut m = SolverMetrics::new();
        let metered = GsWorkspace::new().solve_metered(&inst, &mut m);
        let (traced, trace) = gale_shapley_traced(&inst);
        prop_assert_eq!(&metered.matching, &traced.matching);
        prop_assert_eq!(metered.stats, traced.stats);

        let count = |f: &dyn Fn(&GsEvent) -> bool| trace.iter().filter(|e| f(e)).count() as u64;
        let proposes = count(&|e| matches!(e, GsEvent::Propose { .. }));
        let rejects = count(&|e| matches!(e, GsEvent::Reject { .. }));
        let rounds = count(&|e| matches!(e, GsEvent::RoundStart { .. }));
        let engages = count(&|e| matches!(e, GsEvent::Engage { .. }));

        prop_assert_eq!(m.proposals, proposes);
        prop_assert_eq!(m.rejections, rejects);
        prop_assert_eq!(m.rounds, rounds);
        // Every responder's first engagement is not a swap; the other
        // engages displace a held proposer (complete lists ⇒ the final
        // matching is perfect, so each responder engages at least once).
        prop_assert_eq!(m.holder_swaps, engages - n as u64);
        // Conservation: every proposal ends engaged-or-rejected exactly
        // once, and the n final engagements are the ones never rejected.
        prop_assert_eq!(m.rejections, m.proposals - n as u64);
        prop_assert_eq!(m.solves, 1);
        prop_assert_eq!(m.proposals_per_solve.sum(), m.proposals);
    }

    fn metrics_accumulate_across_solves(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = SolverMetrics::new();
        let mut expect_proposals = 0u64;
        for n in [3usize, 9, 17] {
            let inst = uniform_bipartite(n, &mut rng);
            let out = GsWorkspace::new().solve_metered(&inst, &mut m);
            expect_proposals += out.stats.proposals;
        }
        prop_assert_eq!(m.solves, 3);
        prop_assert_eq!(m.proposals, expect_proposals);
        prop_assert_eq!(m.proposals_per_solve.count(), 3);
    }
}
