//! Span timelines of Algorithm 1's iterative binding: one `bind.edge`
//! span per tree edge, each enclosing that edge's GS spans.

use kmatch_core::bind_metered;
use kmatch_graph::BindingTree;
use kmatch_obs::{ManualClock, NoMetrics};
use kmatch_prefs::gen::uniform::uniform_kpartite;
use kmatch_trace::{check_well_formed, span, EventKind, TraceRecorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn one_edge_span_per_tree_edge_in_order() {
    let mut rng = ChaCha8Rng::seed_from_u64(71);
    let (k, n) = (4usize, 6usize);
    let inst = uniform_kpartite(k, n, &mut rng);
    let tree = BindingTree::path(k);
    let clock = ManualClock::new();
    let mut rec = TraceRecorder::new(&clock);
    bind_metered(&inst, &tree, &mut rec);
    let events = rec.events();
    check_well_formed(events, false).unwrap();
    let edge_args: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == span::BIND_EDGE)
        .map(|e| e.arg)
        .collect();
    assert_eq!(edge_args, vec![0, 1, 2], "one span per edge, in tree order");
    // Each edge span encloses a full GS solve.
    let solves = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == span::GS_SOLVE)
        .count();
    assert_eq!(solves, k - 1);
}

#[test]
fn spanned_matches_metered_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(72);
    for (k, n) in [(3usize, 8usize), (5, 5)] {
        let inst = uniform_kpartite(k, n, &mut rng);
        let tree = BindingTree::star(k, 0);
        let clock = ManualClock::new();
        let mut rec = TraceRecorder::new(&clock);
        let spanned = bind_metered(&inst, &tree, &mut rec);
        let plain = bind_metered(&inst, &tree, &mut NoMetrics);
        assert_eq!(spanned.matching, plain.matching);
        assert_eq!(spanned.per_edge, plain.per_edge);
        check_well_formed(rec.events(), false).unwrap();
    }
}

#[test]
fn nospans_sink_is_a_noop_instantiation() {
    let mut rng = ChaCha8Rng::seed_from_u64(73);
    let inst = uniform_kpartite(3, 6, &mut rng);
    let tree = BindingTree::path(3);
    let a = bind_metered(&inst, &tree, &mut NoMetrics);
    let b = bind_metered(&inst, &tree, &mut NoMetrics);
    assert_eq!(a.matching, b.matching);
}
