//! Thread-budget determinism of the split walks.
//!
//! Above the split threshold an escalating solve builds its phase-2
//! arena and checks its partition on the executor, and a plain solve
//! builds its arena there. Whatever the thread budget and the steal
//! schedule, the outcome, the statistics, the escalation report and the
//! arena must be byte-identical.

use kmatch_prefs::{CachedRoommatesOracle, TruncatedRoommates};
use kmatch_roommates::escalate::default_initial_cut;
use kmatch_roommates::{solve_escalating, CertKind, RoommatesWorkspace};

/// Large enough that both walks split at every budget tried: at this n
/// the arena build and the partition check each walk several times the
/// two-thread minimum of candidates.
const N: usize = 5000;

/// Seed 2 ends in a verified partition, seed 1 in a self-certified stable
/// matching.
const SEEDS: [u64; 2] = [2, 1];

/// Every reduced list of the arena `ws` holds after a solve.
fn arena(ws: &RoommatesWorkspace) -> Vec<Vec<u32>> {
    (0..N as u32).map(|p| ws.reduced_list(p)).collect()
}

#[test]
fn split_walks_are_identical_at_every_budget_and_steal_seed() {
    let mut certs = Vec::new();
    for seed in SEEDS {
        let oracle = CachedRoommatesOracle::new(N, seed);
        let truncated = TruncatedRoommates::new(&oracle, default_initial_cut(N));
        let mut baseline = None;
        // This binary holds this one test, so setting the variable races
        // with nothing.
        for steal_seed in ["0", "99"] {
            std::env::set_var("KMATCH_STEAL_SEED", steal_seed);
            for threads in [1usize, 2, 7] {
                let mut ws = RoommatesWorkspace::new();
                ws.set_threads(threads);
                let (escalating, report) = solve_escalating(&oracle, &mut ws);
                let escalating_arena = arena(&ws);
                let plain = ws.solve(&truncated);
                let got = (
                    format!("{escalating:?}"),
                    report,
                    escalating_arena,
                    format!("{plain:?}"),
                    arena(&ws),
                    ws.resident_bytes(),
                );
                match &baseline {
                    None => baseline = Some(got),
                    Some(want) => assert!(
                        *want == got,
                        "seed {seed}: budget {threads} at steal seed {steal_seed} \
                         differs from budget 1 at steal seed 0"
                    ),
                }
            }
        }
        certs.push(baseline.expect("solved").1.cert);
    }
    std::env::remove_var("KMATCH_STEAL_SEED");
    assert_eq!(certs, [CertKind::Partition, CertKind::Stable]);
}
