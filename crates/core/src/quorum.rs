//! Quorum-based blocking conditions (the paper's §VII future work).
//!
//! "Our future direction includes examining other possible weakened
//! blocking families … One possibility is to explore quorum-based
//! approaches to relax unstable conditions used in the extended stable
//! matching."
//!
//! We realize that direction as a family of blocking conditions indexed by
//! a quorum `q ∈ 1..=k`: a candidate tuple (spanning ≥ 2 current families)
//! blocks when **at least `q` of its members are *satisfied***, where a
//! member is satisfied iff it strictly prefers every cross-group member of
//! the tuple to the corresponding member of its current family (same-family
//! group members are exempt from comparison, as in §IV-A).
//!
//! * `q = k` is exactly §II-C's full blocking family — Theorem 2 applies
//!   and Algorithm 1 always yields a `k`-quorum-stable matching.
//! * Smaller `q` admits more blocking families, so `q`-quorum stability is
//!   *monotone*: a matching stable at quorum `q` is stable at every
//!   `q′ > q`.
//! * At small `q` stability generally becomes unattainable (a single
//!   envious member with two agreeing partners can block at `q = 1`);
//!   the experiment harness (table T14) charts the attainability frontier
//!   of Algorithm 1's output as `q` varies.

use kmatch_prefs::{KPartiteInstance, Member};

use crate::blocking::{spans_families, BlockingFamily};
use crate::kary::KAryMatching;

/// Is `m` *satisfied* by candidate tuple `tuple` (one member index per
/// gender): does `m` strictly prefer every cross-family member of the
/// tuple to its current same-gender counterpart?
fn satisfied(inst: &KPartiteInstance, matching: &KAryMatching, tuple: &[u32], g: usize) -> bool {
    let me = Member::new(g, tuple[g]);
    let my_family = matching.family_of(me);
    for (h, &j) in tuple.iter().enumerate() {
        if h == g {
            continue;
        }
        let other = Member::new(h, j);
        if matching.family_of(other) == my_family {
            continue; // Same-family group: exempt.
        }
        let current = matching.current_partner(me, other.gender);
        if inst.rank_of(me, other.gender, j) >= inst.rank_of(me, other.gender, current.index) {
            return false;
        }
    }
    true
}

/// Find a `q`-quorum blocking family: a tuple spanning ≥ 2 families with at
/// least `quorum` satisfied members. Exhaustive DFS with a satisfaction
/// upper-bound prune; ground truth for small instances
/// (`n^k` worst case — keep `k·ln n` modest).
pub fn find_quorum_blocking_family(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
    quorum: usize,
) -> Option<BlockingFamily> {
    let k = inst.k();
    assert!(quorum >= 1 && quorum <= k, "quorum must be in 1..=k");
    assert_eq!(
        matching.k(),
        k,
        "matching arity must equal instance genders"
    );
    let mut tuple = vec![0u32; k];
    let mut violated = vec![false; k];
    quorum_bb(inst, matching, quorum, &mut tuple, &mut violated, 0, 0)
        .then(|| BlockingFamily::new(matching, tuple))
}

/// Branch-and-bound DFS. Dissatisfaction is *monotone*: once a chosen
/// member fails a pairwise preference against some cross-family member of
/// the partial tuple, no extension can satisfy it. So we track a violation
/// flag per position and prune whenever more than `k − quorum` members are
/// already violated.
#[allow(clippy::too_many_arguments)]
fn quorum_bb(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
    quorum: usize,
    tuple: &mut [u32],
    violated: &mut [bool],
    violations: usize,
    g: usize,
) -> bool {
    let k = inst.k();
    if g == k {
        // Spans at least two families? (Non-violated members are exactly
        // the satisfied ones: every cross pair was checked on insertion.)
        let first = matching.family_of(Member::new(0usize, tuple[0]));
        let spans = (1..k).any(|h| matching.family_of(Member::new(h, tuple[h])) != first);
        return spans && k - violations >= quorum;
    }
    'candidates: for i in 0..inst.n() as u32 {
        tuple[g] = i;
        let cand = Member::new(g, i);
        let cand_family = matching.family_of(cand);
        // Incrementally update violations against earlier members.
        let mut new_violations = violations;
        let mut flipped: Vec<usize> = Vec::new();
        let mut cand_violated = false;
        for h in 0..g {
            let prev = Member::new(h, tuple[h]);
            if matching.family_of(prev) == cand_family {
                continue; // Same-family group: exempt.
            }
            // Does prev accept cand?
            let prev_cur = matching.current_partner(prev, cand.gender);
            if !violated[h]
                && inst.rank_of(prev, cand.gender, i)
                    >= inst.rank_of(prev, cand.gender, prev_cur.index)
            {
                violated[h] = true;
                flipped.push(h);
                new_violations += 1;
            }
            // Does cand accept prev?
            if !cand_violated {
                let cand_cur = matching.current_partner(cand, prev.gender);
                if inst.rank_of(cand, prev.gender, prev.index)
                    >= inst.rank_of(cand, prev.gender, cand_cur.index)
                {
                    cand_violated = true;
                    new_violations += 1;
                }
            }
            if new_violations > k - quorum {
                for &h in &flipped {
                    violated[h] = false;
                }
                continue 'candidates;
            }
        }
        violated[g] = cand_violated;
        if quorum_bb(
            inst,
            matching,
            quorum,
            tuple,
            violated,
            new_violations,
            g + 1,
        ) {
            return true;
        }
        violated[g] = false;
        for &h in &flipped {
            violated[h] = false;
        }
    }
    false
}

/// Naive exhaustive quorum search (no pruning) — ground truth for the
/// branch-and-bound version.
pub fn find_quorum_blocking_family_naive(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
    quorum: usize,
) -> Option<BlockingFamily> {
    let k = inst.k();
    assert!(quorum >= 1 && quorum <= k, "quorum must be in 1..=k");
    let n = inst.n();
    let mut tuple = vec![0u32; k];
    loop {
        if spans_families(matching, &tuple) {
            let sat = (0..k)
                .filter(|&h| satisfied(inst, matching, &tuple, h))
                .count();
            if sat >= quorum {
                return Some(BlockingFamily::new(matching, tuple));
            }
        }
        let mut pos = 0;
        loop {
            if pos == k {
                return None;
            }
            tuple[pos] += 1;
            if (tuple[pos] as usize) < n {
                break;
            }
            tuple[pos] = 0;
            pos += 1;
        }
    }
}

/// Is the matching stable at quorum `q` (no `q`-quorum blocking family)?
pub fn is_quorum_stable(inst: &KPartiteInstance, matching: &KAryMatching, quorum: usize) -> bool {
    find_quorum_blocking_family(inst, matching, quorum).is_none()
}

/// The smallest quorum at which `matching` is stable, or `None` if it is
/// unstable even at `q = k` (i.e. not even §II-C-stable). Since stability
/// is monotone in `q`, this is a well-defined threshold found by scanning
/// downward from `k`.
pub fn stability_threshold(inst: &KPartiteInstance, matching: &KAryMatching) -> Option<usize> {
    let k = inst.k();
    if !is_quorum_stable(inst, matching, k) {
        return None;
    }
    let mut best = k;
    for q in (1..k).rev() {
        if is_quorum_stable(inst, matching, q) {
            best = q;
        } else {
            break;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::bind;
    use crate::blocking::is_kary_stable;
    use kmatch_graph::{random_tree, BindingTree};
    use kmatch_prefs::gen::paper::fig3_tripartite;
    use kmatch_prefs::gen::uniform::uniform_kpartite;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn quorum_k_equals_full_condition() {
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        for _ in 0..10 {
            let inst = uniform_kpartite(3, 3, &mut rng);
            let tree = random_tree(3, &mut rng);
            let m = bind(&inst, &tree);
            assert_eq!(
                is_quorum_stable(&inst, &m, 3),
                is_kary_stable(&inst, &m),
                "q = k must coincide with §II-C"
            );
        }
    }

    #[test]
    fn stability_is_monotone_in_quorum() {
        let mut rng = ChaCha8Rng::seed_from_u64(62);
        for _ in 0..10 {
            let inst = uniform_kpartite(3, 3, &mut rng);
            let m = bind(&inst, &BindingTree::path(3));
            let stable_at: Vec<bool> = (1..=3).map(|q| is_quorum_stable(&inst, &m, q)).collect();
            for w in stable_at.windows(2) {
                assert!(!w[0] || w[1], "stable at q implies stable at q+1");
            }
        }
    }

    #[test]
    fn fig3_thresholds() {
        let inst = fig3_tripartite();
        let m = bind(&inst, &BindingTree::new(3, vec![(0, 1), (1, 2)]).unwrap());
        let t = stability_threshold(&inst, &m).expect("Theorem 2: stable at q = k");
        assert!((1..=3).contains(&t));
        // Threshold semantics: stable at t, unstable below (unless t = 1).
        assert!(is_quorum_stable(&inst, &m, t));
        if t > 1 {
            assert!(!is_quorum_stable(&inst, &m, t - 1));
        }
    }

    #[test]
    fn low_quorum_usually_blocks() {
        // q = 1 blocks whenever any member envies a cross-family tuple —
        // nearly always on uniform instances with n >= 3.
        let mut rng = ChaCha8Rng::seed_from_u64(63);
        let mut blocked = 0;
        for _ in 0..10 {
            let inst = uniform_kpartite(3, 4, &mut rng);
            let m = bind(&inst, &BindingTree::path(3));
            if !is_quorum_stable(&inst, &m, 1) {
                blocked += 1;
            }
        }
        assert!(
            blocked >= 8,
            "q = 1 should almost always admit a blocking family"
        );
    }

    #[test]
    fn branch_and_bound_agrees_with_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(66);
        for seed in 0..20u64 {
            let _ = seed;
            let inst = uniform_kpartite(3, 3, &mut rng);
            let m = bind(&inst, &random_tree(3, &mut rng));
            for q in 1..=3 {
                assert_eq!(
                    find_quorum_blocking_family(&inst, &m, q).is_some(),
                    find_quorum_blocking_family_naive(&inst, &m, q).is_some(),
                    "q = {q}"
                );
            }
        }
        // Also on arbitrary (non-binding) matchings.
        let inst = uniform_kpartite(3, 3, &mut rng);
        let arbitrary = crate::kary::KAryMatching::from_tuples(
            3,
            3,
            &[vec![0, 1, 2], vec![1, 2, 0], vec![2, 0, 1]],
        );
        for q in 1..=3 {
            assert_eq!(
                find_quorum_blocking_family(&inst, &arbitrary, q).is_some(),
                find_quorum_blocking_family_naive(&inst, &arbitrary, q).is_some(),
                "arbitrary matching, q = {q}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "quorum must be in")]
    fn quorum_zero_rejected() {
        let inst = fig3_tripartite();
        let m = bind(&inst, &BindingTree::path(3));
        let _ = is_quorum_stable(&inst, &m, 0);
    }
}
