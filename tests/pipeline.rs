//! Full-pipeline integration: generate → serialize → reload → solve →
//! verify → measure, the way a downstream user drives the library.

use kmatch::core::family_cost;
use kmatch::prefs::serde_support::{BipartiteDto, KPartiteDto, RoommatesDto};
use kmatch::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn kpartite_json_pipeline() {
    let mut rng = ChaCha8Rng::seed_from_u64(81);
    let inst = kmatch::gen::uniform_kpartite(4, 6, &mut rng);

    // Serialize → deserialize → identical instance.
    let json = serde_json::to_string(&KPartiteDto::from(&inst)).unwrap();
    let reloaded =
        KPartiteInstance::try_from(serde_json::from_str::<KPartiteDto>(&json).unwrap()).unwrap();
    assert_eq!(reloaded, inst);

    // Solve on the reloaded instance; verify; measure.
    let tree = BindingTree::path(4);
    let out = bind_with_stats(&reloaded, &tree);
    assert!(is_kary_stable(&reloaded, &out.matching));
    let cost = family_cost(&reloaded, &out.matching);
    assert!(cost.mean_rank >= 0.0);
    assert!(cost.max_rank < 6);
}

#[test]
fn roommates_json_pipeline() {
    let inst = kmatch::gen::theorem1_roommates(4, 3);
    let json = serde_json::to_string(&RoommatesDto::from(&inst)).unwrap();
    let reloaded =
        RoommatesInstance::try_from(serde_json::from_str::<RoommatesDto>(&json).unwrap()).unwrap();
    assert_eq!(reloaded, inst);
    assert!(!solve_roommates(&reloaded).is_stable());
}

#[test]
fn bipartite_json_pipeline() {
    let mut rng = ChaCha8Rng::seed_from_u64(82);
    let inst = kmatch::gen::uniform_bipartite(12, &mut rng);
    let json = serde_json::to_string(&BipartiteDto::from(&inst)).unwrap();
    let reloaded =
        BipartiteInstance::try_from(serde_json::from_str::<BipartiteDto>(&json).unwrap()).unwrap();
    assert_eq!(reloaded, inst);
    let fair = fair_stable_marriage(&reloaded);
    assert!(kmatch::gs::is_stable(&reloaded, &fair.matching));
}

#[test]
fn solve_binary_then_escalate_to_kary() {
    // The paper's decision flow for a multi-gender society: try binary
    // matching first; when the roommates solver says no, fall back to
    // k-ary families, which always work.
    let mut rng = ChaCha8Rng::seed_from_u64(83);
    let inst = kmatch::gen::uniform_kpartite(3, 4, &mut rng);

    let binary = solve_kpartite_binary(&inst, MergeStrategy::RoundRobinByRank);
    // Either way the k-ary fallback must succeed.
    let matching = bind(&inst, &BindingTree::path(3));
    assert!(is_kary_stable(&inst, &matching));
    // And when binary succeeded, its pairs must be cross-gender.
    if let kmatch::roommates::kpartite::KPartiteBinaryOutcome::Stable { pairs, .. } = binary {
        for (a, b) in pairs {
            assert_ne!(a.gender, b.gender);
        }
    }
}

#[test]
fn correlated_markets_stress_binding() {
    // Highly-correlated preferences (everyone agrees who is desirable)
    // push GS toward its quadratic regime; the pipeline must stay correct.
    let mut rng = ChaCha8Rng::seed_from_u64(84);
    for alpha in [0.0, 4.0, 32.0] {
        let inst = kmatch::gen::correlated_kpartite(4, 12, alpha, &mut rng);
        let out = bind_with_stats(&inst, &BindingTree::path(4));
        assert!(is_kary_stable(&inst, &out.matching), "alpha = {alpha}");
        assert!(out.total_proposals() <= 3 * 12 * 12);
    }
}

#[test]
fn merge_strategies_both_sound() {
    let mut rng = ChaCha8Rng::seed_from_u64(85);
    let inst = kmatch::gen::uniform_kpartite(3, 3, &mut rng);
    for strategy in [
        MergeStrategy::RoundRobinByRank,
        MergeStrategy::ConcatByGender,
    ] {
        let rm = RoommatesInstance::from_kpartite(&inst, strategy);
        let brute = kmatch::roommates::brute::stable_matching_exists_brute(&rm);
        assert_eq!(solve_roommates(&rm).is_stable(), brute, "{strategy:?}");
    }
}

#[test]
fn large_scale_smoke() {
    // A size a downstream user might actually run: k = 10, n = 200.
    let mut rng = ChaCha8Rng::seed_from_u64(86);
    let (k, n) = (10usize, 200usize);
    let inst = kmatch::gen::uniform_kpartite(k, n, &mut rng);
    let tree = BindingTree::path(k);
    let out = bind_with_stats(&inst, &tree);
    assert_eq!(out.matching.n(), n);
    assert!(out.total_proposals() <= ((k - 1) * n * n) as u64);
    // Parallel executor agrees at scale.
    let par = parallel_bind(&inst, &tree, 2, 0);
    assert_eq!(par.matching, out.matching);
}
