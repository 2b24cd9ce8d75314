//! Differential property suite for the span layer: on random instances,
//! every metered entry point with a span recorder must (a) return exactly
//! what the unmetered entry point returns and (b) record a well-formed timeline — balanced,
//! strictly nested, nondecreasing timestamps — whose phase counts agree
//! with the solver statistics. A fourth property checks the
//! flight-recorder contract: any suffix kept by the ring still passes
//! the truncated-head well-formedness check and accounts for every
//! dropped event.

use kmatch_core::{bind_metered, bind_with_stats};
use kmatch_gs::GsWorkspace;
use kmatch_obs::{Metrics, StdClock};
use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_kpartite, uniform_roommates};
use kmatch_roommates::RoommatesWorkspace;
use kmatch_trace::{check_well_formed, span, EventKind, FlightRecorder, TraceRecorder};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn begins<'a>(events: impl IntoIterator<Item = &'a kmatch_trace::TraceEvent>, name: &str) -> usize {
    events
        .into_iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == name)
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn gs_span_stream_is_well_formed(n in 1usize..40, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_bipartite(n, &mut rng);
        let plain = GsWorkspace::new().solve(&inst);
        let clock = StdClock::new();
        let mut rec = TraceRecorder::new(&clock);
        let spanned = GsWorkspace::new().solve_metered(&inst, &mut rec);
        prop_assert_eq!(&spanned.matching, &plain.matching);
        prop_assert_eq!(spanned.stats, plain.stats);
        let events = rec.take();
        check_well_formed(&events, false).unwrap();
        prop_assert_eq!(begins(&events, span::GS_SOLVE), 1);
        prop_assert_eq!(begins(&events, span::GS_ROUND), plain.stats.rounds as usize);
    }

    fn roommates_span_stream_is_well_formed(n in 2usize..28, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_roommates(n, &mut rng);
        let plain = RoommatesWorkspace::new().solve(&inst);
        let clock = StdClock::new();
        let mut rec = TraceRecorder::new(&clock);
        let spanned =
            RoommatesWorkspace::new().solve_metered(&inst, &mut rec);
        prop_assert_eq!(spanned.matching(), plain.matching());
        prop_assert_eq!(spanned.stats(), plain.stats());
        let events = rec.take();
        check_well_formed(&events, false).unwrap();
        prop_assert_eq!(begins(&events, span::IRVING_SOLVE), 1);
        prop_assert_eq!(begins(&events, span::IRVING_PHASE1), 1);
    }

    fn bind_span_stream_is_well_formed(
        k in 2usize..5,
        n in 1usize..12,
        star in 0u8..2,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_kpartite(k, n, &mut rng);
        let tree = if star == 1 {
            kmatch_graph::BindingTree::star(k, 0)
        } else {
            kmatch_graph::BindingTree::path(k)
        };
        let plain = bind_with_stats(&inst, &tree);
        let clock = StdClock::new();
        let mut rec = TraceRecorder::new(&clock);
        let spanned = bind_metered(&inst, &tree, &mut rec);
        prop_assert_eq!(&spanned.matching, &plain.matching);
        prop_assert_eq!(&spanned.per_edge, &plain.per_edge);
        let events = rec.take();
        check_well_formed(&events, false).unwrap();
        // One edge span per tree edge, each enclosing one GS solve.
        prop_assert_eq!(begins(&events, span::BIND_EDGE), k - 1);
        prop_assert_eq!(begins(&events, span::GS_SOLVE), k - 1);
    }

    fn flight_recorder_suffix_stays_well_formed(
        n in 2usize..32,
        cap in 1usize..48,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_bipartite(n, &mut rng);
        let clock = StdClock::new();
        // Record the same solve through a ring large enough never to
        // wrap and one of random capacity; the small ring must hold
        // exactly the newest `cap` events of the full stream. (The
        // reference must be a FlightRecorder too: rings skip the
        // fine-grained round spans, so a TraceRecorder stream would be
        // longer.)
        let mut full = FlightRecorder::new(&clock, 1 << 20);
        GsWorkspace::new().solve_metered(&inst, &mut full);
        prop_assert_eq!(full.dropped(), 0);
        let total = full.events().len();
        let mut ring = FlightRecorder::new(&clock, cap);
        GsWorkspace::new().solve_metered(&inst, &mut ring);
        let dropped = ring.dropped() as usize;
        let kept = ring.events();
        prop_assert_eq!(dropped + kept.len(), total);
        prop_assert!(kept.len() <= cap);
        check_well_formed(&kept, true).unwrap();
        if dropped == 0 {
            // Nothing fell off: the strict check must also pass.
            check_well_formed(&kept, false).unwrap();
        } else {
            // The newest event always survives: the gs.solve close.
            prop_assert_eq!(kept.last().map(|e| e.name), Some(span::GS_SOLVE));
            prop_assert_eq!(kept.last().map(|e| e.kind), Some(EventKind::End));
        }
    }

    fn random_suffixes_of_synthetic_streams_pass_truncated_check(
        seed in 0u64..1 << 32,
        ops in 4usize..120,
    ) {
        // Differential form of the truncated-head semantics: generate a
        // random well-formed stream directly, then check that *every*
        // suffix passes with `allow_truncated_head` while the strict
        // check accepts exactly the suffixes starting at depth 0.
        const NAMES: [&str; 4] = ["a", "b", "c", "d"];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let clock = StdClock::new();
        let mut rec = TraceRecorder::new(&clock);
        let mut stack: Vec<&'static str> = Vec::new();
        let mut depth_at: Vec<usize> = Vec::new();
        for _ in 0..ops {
            depth_at.push(stack.len());
            if !stack.is_empty() && rng.gen_bool(0.45) {
                rec.span_end(stack.pop().unwrap());
            } else if rng.gen_bool(0.2) {
                rec.span_instant(NAMES[rng.gen_range(0..NAMES.len())], 0);
            } else {
                let name = NAMES[rng.gen_range(0..NAMES.len())];
                stack.push(name);
                rec.span_begin(name, 0);
            }
        }
        while let Some(name) = stack.pop() {
            depth_at.push(stack.len() + 1);
            rec.span_end(name);
        }
        let events = rec.take();
        for start in 0..events.len() {
            let suffix = &events[start..];
            check_well_formed(suffix, true).unwrap();
            let strict_ok = check_well_formed(suffix, false).is_ok();
            prop_assert_eq!(strict_ok, depth_at[start] == 0, "suffix at {}", start);
        }
    }
}
