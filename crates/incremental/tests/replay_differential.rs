//! Seeded differential of the GS session's dead-zone replay against cold
//! `gale_shapley`: random sessions over both sides and every delta kind,
//! with deltas left pending across cache hits. Every solve must equal a
//! cold solve of the current instance, and both the replay and the cold
//! tier must fire.

use kmatch_gs::gale_shapley;
use kmatch_incremental::IncrementalGs;
use kmatch_obs::SolverMetrics;
use kmatch_prefs::gen::uniform::uniform_bipartite;
use kmatch_prefs::{BipartiteInstance, DeltaSide, PrefDelta};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Sessions per instance size.
const SESSIONS: usize = 40;
/// Solves per session.
const STEPS: usize = 30;

fn row(inst: &BipartiteInstance, side: DeltaSide, row: u32) -> &[u32] {
    match side {
        DeltaSide::Proposer => inst.proposer_list(row),
        DeltaSide::Responder => inst.responder_list(row),
    }
}

/// Two distinct positions of a row of length `n ≥ 2`, in draw order.
fn two_positions(n: usize, rng: &mut ChaCha8Rng) -> (u32, u32) {
    let a = rng.gen_range(0..n as u32);
    let b = (a + rng.gen_range(1..n as u32)) % n as u32;
    (a, b)
}

/// One delta of a random kind: a non-adjacent or adjacent swap, a splice
/// in either direction, or a `SetRow` that reverses a window of the row.
fn random_delta(inst: &BipartiteInstance, rng: &mut ChaCha8Rng) -> PrefDelta {
    let n = inst.n();
    let side = if rng.gen_bool(0.5) {
        DeltaSide::Proposer
    } else {
        DeltaSide::Responder
    };
    let r = rng.gen_range(0..n as u32);
    let (a, b) = two_positions(n, rng);
    match rng.gen_range(0..4u32) {
        0 => PrefDelta::Swap { side, row: r, a, b },
        1 => {
            let a = rng.gen_range(0..n as u32 - 1);
            PrefDelta::Swap {
                side,
                row: r,
                a,
                b: a + 1,
            }
        }
        2 => PrefDelta::Splice {
            side,
            row: r,
            from: a,
            to: b,
        },
        _ => {
            let mut prefs = row(inst, side, r).to_vec();
            prefs[a.min(b) as usize..=a.max(b) as usize].reverse();
            PrefDelta::SetRow {
                side,
                row: r,
                prefs,
            }
        }
    }
}

/// The delta that undoes `delta` on `before`.
fn undo(before: &BipartiteInstance, delta: &PrefDelta) -> PrefDelta {
    PrefDelta::SetRow {
        side: delta.side(),
        row: delta.row(),
        prefs: row(before, delta.side(), delta.row()).to_vec(),
    }
}

#[test]
fn replay_and_cold_tiers_match_gale_shapley() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD1FF);
    let mut m = SolverMetrics::new();
    let mut sessions = 0u64;
    for n in [2usize, 3, 4, 5, 8, 16, 40, 120] {
        for s in 0..SESSIONS {
            let mut shadow = uniform_bipartite(n, &mut rng);
            let mut session = IncrementalGs::new(shadow.clone());
            session.solve_metered(&mut m);
            sessions += 1;
            for step in 0..STEPS {
                // A fifth of the steps first step out to a neighbouring
                // state and back, with or without solving it: the return
                // is a cache hit, which leaves the deltas since the last
                // engine run pending for the next miss.
                if rng.gen_bool(0.2) {
                    let delta = random_delta(&shadow, &mut rng);
                    session.apply(&delta).unwrap();
                    if rng.gen_bool(0.5) {
                        session.solve_metered(&mut m);
                    }
                    session.apply(&undo(&shadow, &delta)).unwrap();
                    let hits = m.cache_hits;
                    let out = session.solve_metered(&mut m);
                    assert_eq!(m.cache_hits, hits + 1, "the state was solved before");
                    assert_eq!(out.matching, gale_shapley(&shadow).matching);
                }
                for _ in 0..rng.gen_range(1..4) {
                    let delta = random_delta(&shadow, &mut rng);
                    session.apply(&delta).unwrap();
                    shadow.apply_delta(&delta).unwrap();
                }
                let out = session.solve_metered(&mut m);
                assert_eq!(
                    out.matching,
                    gale_shapley(&shadow).matching,
                    "n = {n}, session {s}, step {step}"
                );
            }
        }
    }
    assert!(m.warm_solves > 0, "no delta replayed");
    assert!(m.warm_fallbacks > sessions, "no delta fell back cold");
}
