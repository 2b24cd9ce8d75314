//! Span timelines of the incremental layer: dirty/clean binding-edge
//! spans, cache hit/miss instants, and the GS session's replay and
//! fallback instants.

use kmatch_incremental::{IncrementalBinder, IncrementalGs};
use kmatch_obs::ManualClock;
use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_kpartite};
use kmatch_prefs::{DeltaSide, GenderId, Member, PrefDelta};
use kmatch_trace::{check_well_formed, reason, span, EventKind, TraceRecorder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn shuffled_row(n: usize, rng: &mut ChaCha8Rng) -> Vec<u32> {
    let mut row: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        row.swap(i, rng.gen_range(0..i + 1));
    }
    row
}

#[test]
fn binder_tags_edges_dirty_then_clean() {
    let mut rng = ChaCha8Rng::seed_from_u64(75);
    let (k, n) = (4usize, 6usize);
    let inst = uniform_kpartite(k, n, &mut rng);
    let tree = kmatch_graph::BindingTree::path(k);
    let mut binder = IncrementalBinder::new(inst, tree);
    let clock = ManualClock::new();

    // First bind: every edge is dirty and encloses a GS solve.
    let mut rec = TraceRecorder::new(&clock);
    binder.bind_metered(&mut rec);
    let events = rec.take();
    check_well_formed(&events, false).unwrap();
    let dirty: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == span::BIND_EDGE_DIRTY)
        .map(|e| e.arg)
        .collect();
    assert_eq!(dirty, vec![0, 1, 2]);
    assert!(!events.iter().any(|e| e.name == span::BIND_EDGE_CLEAN));

    // Untouched rebind: every edge is clean, no GS spans at all.
    let mut rec = TraceRecorder::new(&clock);
    binder.bind_metered(&mut rec);
    let events = rec.take();
    check_well_formed(&events, false).unwrap();
    let clean: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == span::BIND_EDGE_CLEAN)
        .map(|e| e.arg)
        .collect();
    assert_eq!(clean, vec![0, 1, 2]);
    assert!(!events.iter().any(|e| e.name == span::GS_SOLVE));

    // One pair rewrite: exactly one dirty span, at the touched edge.
    let row = shuffled_row(n, &mut rng);
    binder
        .set_pref_row(
            Member {
                gender: GenderId(1),
                index: 2,
            },
            GenderId(2),
            &row,
        )
        .unwrap();
    let mut rec = TraceRecorder::new(&clock);
    binder.bind_metered(&mut rec);
    let events = rec.take();
    check_well_formed(&events, false).unwrap();
    let dirty: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == span::BIND_EDGE_DIRTY)
        .map(|e| e.arg)
        .collect();
    assert_eq!(dirty, vec![1], "path edge (1, 2) is edge index 1");
}

#[test]
fn gs_session_emits_cache_instants() {
    let mut rng = ChaCha8Rng::seed_from_u64(76);
    let n = 8usize;
    let inst = uniform_bipartite(n, &mut rng);
    let mut session = IncrementalGs::new(inst);
    let clock = ManualClock::new();

    let mut rec = TraceRecorder::new(&clock);
    session.solve_metered(&mut rec);
    let events = rec.take();
    check_well_formed(&events, false).unwrap();
    assert_eq!(events[0].name, span::CACHE_MISS);
    assert_eq!(events[1].name, span::GS_WARM_FALLBACK);
    assert_eq!(events[1].arg, reason::COLD_START);
    assert!(events.iter().any(|e| e.name == span::GS_SOLVE));

    // Same state again: pure cache hit, single instant, no engine spans.
    let mut rec = TraceRecorder::new(&clock);
    session.solve_metered(&mut rec);
    let events = rec.take();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].name, span::CACHE_HIT);
    assert_eq!(events[0].kind, EventKind::Instant);

    // A rewrite of the row's head is live: it misses and solves cold.
    let mut row = session.instance().proposer_list(3).to_vec();
    row.swap(0, 1);
    session
        .apply(&PrefDelta::SetRow {
            side: DeltaSide::Proposer,
            row: 3,
            prefs: row,
        })
        .unwrap();
    let mut rec = TraceRecorder::new(&clock);
    session.solve_metered(&mut rec);
    let events = rec.take();
    check_well_formed(&events, false).unwrap();
    assert_eq!(events[0].name, span::CACHE_MISS);
    assert_eq!(events[1].name, span::GS_WARM_FALLBACK);
    assert_eq!(events[1].arg, reason::PREFIX_MISS);
    assert!(events.iter().any(|e| e.name == span::GS_SOLVE));

    // Swapping the row's last two entries is dead here (proposer 3 never
    // got that far down its row): a replay, no solve span.
    let n = n as u32;
    session
        .apply(&PrefDelta::Swap {
            side: DeltaSide::Proposer,
            row: 3,
            a: n - 2,
            b: n - 1,
        })
        .unwrap();
    let mut rec = TraceRecorder::new(&clock);
    session.solve_metered(&mut rec);
    let events = rec.take();
    check_well_formed(&events, false).unwrap();
    assert_eq!(events[0].name, span::CACHE_MISS);
    assert_eq!(events[1].name, span::GS_WARM_RESOLVE);
    assert_eq!(events[1].arg, 0);
    assert!(!events.iter().any(|e| e.name == span::GS_SOLVE));
}
