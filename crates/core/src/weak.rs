//! §IV-D: the weakened blocking condition and Algorithm 2.
//!
//! Under a strict **gender priority order**, a blocking family's members
//! partition into same-family groups, and each group has a *lead member* —
//! the one whose gender has the highest priority in the group. The
//! *weakened* blocking family drops the preference requirements between
//! cross-group **non-lead pairs**: a cross-group pair must mutually prefer
//! each other only when at least one of the two is a lead (leads must
//! prefer every cross-group member; every member must prefer cross-group
//! leads). Fewer constraints than §II-C's full condition ⇒ blocking is
//! easier ⇒ stability is a **stronger** property ("which makes k-ary
//! stable matching harder").
//!
//! *Interpretation note* (recorded in DESIGN.md): the paper's phrasing —
//! 'the condition "each member" is replaced by "lead member of the
//! corresponding families"' — is ambiguous about whether the replacement
//! applies to the subjects, the objects, or both. Reading it as
//! subjects-only ("only leads need to prefer, against every cross-group
//! member") makes Theorem 5 empirically **false** (random bitonic-tree
//! bindings then admit weakened blocking families). The reading that makes
//! the paper's own proof of Theorem 5 go through — the proof needs both
//! directions of preference across the tree edge between a lead and a
//! higher-priority cross-group gender — is the one implemented here.
//!
//! Arbitrary binding trees no longer suffice (Fig. 5a); trees that are
//! **bitonic** in the priority labels do (Theorem 5). **Algorithm 2** grows
//! a bitonic tree by attaching the remaining genders in decreasing
//! priority, each to any node already in the tree — `(k−1)!` possible trees
//! (Fig. 6).

use kmatch_graph::{is_bitonic_sequence, BindingTree, UnionFind};
use kmatch_gs::GsStats;
use kmatch_prefs::{GenderId, KPartiteInstance, Member};

use crate::binding::bind_edge;
use crate::blocking::BlockingFamily;
use crate::kary::KAryMatching;

/// A strict priority order over genders.
///
/// `priority[g]` is the priority value of gender `g`; higher wins. The
/// paper's convention (gender id = priority) is [`GenderPriorities::by_id`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenderPriorities {
    priority: Vec<u32>,
}

impl GenderPriorities {
    /// Paper convention: gender `g` has priority `g`.
    pub fn by_id(k: usize) -> Self {
        GenderPriorities {
            priority: (0..k as u32).collect(),
        }
    }

    /// Explicit priorities; must be distinct.
    pub fn new(priority: Vec<u32>) -> Self {
        let mut sorted = priority.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), priority.len(), "priorities must be distinct");
        GenderPriorities { priority }
    }

    /// Number of genders.
    pub fn k(&self) -> usize {
        self.priority.len()
    }

    /// Priority of gender `g`.
    #[inline]
    pub fn of(&self, g: GenderId) -> u32 {
        self.priority[g.idx()]
    }

    /// The highest-priority gender (`imax` in Algorithm 2).
    pub fn highest(&self) -> GenderId {
        let g = self
            .priority
            .iter()
            .enumerate()
            .max_by_key(|&(_, p)| p)
            .expect("non-empty priorities")
            .0;
        GenderId::from(g)
    }

    /// Genders sorted by descending priority.
    pub fn descending(&self) -> Vec<GenderId> {
        let mut order: Vec<GenderId> = (0..self.k()).map(GenderId::from).collect();
        order.sort_by_key(|&g| std::cmp::Reverse(self.of(g)));
        order
    }

    /// Is `tree` bitonic with respect to these priorities (every pairwise
    /// path's priority sequence is bitonic)?
    pub fn is_bitonic_under(&self, tree: &BindingTree) -> bool {
        let k = tree.k() as u16;
        for a in 0..k {
            for b in (a + 1)..k {
                let seq: Vec<u16> = tree
                    .path_between(a, b)
                    .into_iter()
                    .map(|g| self.of(GenderId(g)) as u16)
                    .collect();
                if !is_bitonic_sequence(&seq) {
                    return false;
                }
            }
        }
        true
    }
}

/// Find a **weakened** blocking family, or `None` if the matching is
/// weakly stable.
///
/// DFS over genders in descending priority: the first member placed in
/// each same-family group is automatically its lead, so lead constraints
/// can be checked incrementally.
pub fn find_weak_blocking_family(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
    priorities: &GenderPriorities,
) -> Option<BlockingFamily> {
    let k = inst.k();
    assert_eq!(
        matching.k(),
        k,
        "matching arity must equal instance genders"
    );
    assert_eq!(priorities.k(), k, "priorities must cover all genders");
    let order = priorities.descending();
    // chosen[d] = member chosen for gender order[d].
    let mut chosen: Vec<Member> = Vec::with_capacity(k);
    // leads: (family, member) for each group, in creation order.
    let mut leads: Vec<(u32, Member)> = Vec::with_capacity(k);
    if weak_dfs(inst, matching, &order, &mut chosen, &mut leads) {
        let mut members = vec![0u32; k];
        for m in &chosen {
            members[m.gender.idx()] = m.index;
        }
        return Some(BlockingFamily::new(matching, members));
    }
    None
}

/// Does `l` strictly prefer `c` to its current gender-`c.gender` family
/// member?
#[inline]
fn lead_accepts(inst: &KPartiteInstance, matching: &KAryMatching, l: Member, c: Member) -> bool {
    let current = matching.current_partner(l, c.gender);
    inst.rank_of(l, c.gender, c.index) < inst.rank_of(l, c.gender, current.index)
}

fn weak_dfs(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
    order: &[GenderId],
    chosen: &mut Vec<Member>,
    leads: &mut Vec<(u32, Member)>,
) -> bool {
    let depth = chosen.len();
    if depth == order.len() {
        return leads.len() >= 2;
    }
    let g = order[depth];
    'candidates: for i in 0..inst.n() as u32 {
        let cand = Member {
            gender: g,
            index: i,
        };
        let fam = matching.family_of(cand);
        let joins_existing = leads.iter().any(|&(f, _)| f == fam);
        let cand_is_lead = !joins_existing;
        // Cross-group pairs involving at least one lead must mutually
        // prefer each other. We walk in descending priority, so each
        // previously chosen member's lead status is already fixed.
        for &prev in chosen.iter() {
            let pfam = matching.family_of(prev);
            if pfam == fam {
                continue; // Same-family group: exempt.
            }
            let prev_is_lead = leads.iter().any(|&(_, l)| l == prev);
            if (prev_is_lead || cand_is_lead)
                && (!lead_accepts(inst, matching, prev, cand)
                    || !lead_accepts(inst, matching, cand, prev))
            {
                continue 'candidates;
            }
        }
        if cand_is_lead {
            leads.push((fam, cand));
        }
        chosen.push(cand);
        if weak_dfs(inst, matching, order, chosen, leads) {
            return true;
        }
        chosen.pop();
        if cand_is_lead {
            leads.pop();
        }
    }
    false
}

/// Ground-truth verifier for the weakened condition: enumerate all `n^k`
/// tuples, derive groups and leads directly from the definition, and check
/// that every cross-group pair containing at least one lead mutually
/// prefers each other. Exponential — cross-validation only.
pub fn find_weak_blocking_family_naive(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
    priorities: &GenderPriorities,
) -> Option<BlockingFamily> {
    let k = inst.k();
    let n = inst.n();
    let mut tuple = vec![0u32; k];
    loop {
        let members: Vec<Member> = tuple
            .iter()
            .enumerate()
            .map(|(g, &i)| Member::new(g, i))
            .collect();
        // Group by current family; the lead of a group is its
        // highest-priority gender member.
        let fams: Vec<u32> = members.iter().map(|&m| matching.family_of(m)).collect();
        let mut distinct: Vec<u32> = fams.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() >= 2 {
            let is_lead = |idx: usize| -> bool {
                members
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| fams[j] == fams[idx])
                    .all(|(j, m)| {
                        j == idx || priorities.of(m.gender) < priorities.of(members[idx].gender)
                    })
            };
            let ok = (0..k).all(|a| {
                (0..k).all(|b| {
                    if a == b || fams[a] == fams[b] {
                        return true;
                    }
                    if is_lead(a) || is_lead(b) {
                        lead_accepts(inst, matching, members[a], members[b])
                            && lead_accepts(inst, matching, members[b], members[a])
                    } else {
                        true
                    }
                })
            });
            if ok {
                return Some(BlockingFamily {
                    members: tuple,
                    source_families: distinct,
                });
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

/// Is the matching stable under the **weakened** blocking condition?
/// Implies [`crate::blocking::is_kary_stable`] (weak stability is the
/// stronger property).
pub fn is_weakly_stable(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
    priorities: &GenderPriorities,
) -> bool {
    find_weak_blocking_family(inst, matching, priorities).is_none()
}

/// How Algorithm 2 picks the tree node to attach the next gender to; every
/// choice yields a bitonic tree, and the `(k−1)!` combinations enumerate
/// all priority-based binding trees (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttachChoice {
    /// Attach to the highest-priority node already in the tree (yields the
    /// star centered at `imax` when used throughout).
    #[default]
    HighestPriority,
    /// Attach to the most recently added node (yields the descending
    /// priority path).
    Chain,
}

/// Algorithm 2's tree construction: start from the highest-priority gender
/// and attach the remaining genders in decreasing priority, each to the
/// node selected by `choice`. Edges are oriented tree-node → new-node.
pub fn priority_binding_tree(priorities: &GenderPriorities, choice: AttachChoice) -> BindingTree {
    let k = priorities.k();
    let order = priorities.descending();
    let mut edges = Vec::with_capacity(k - 1);
    let mut in_tree: Vec<GenderId> = vec![order[0]];
    for &j in &order[1..] {
        let i = match choice {
            AttachChoice::HighestPriority => in_tree[0],
            AttachChoice::Chain => *in_tree.last().expect("tree is non-empty"),
        };
        edges.push((i.0, j.0));
        in_tree.push(j);
    }
    BindingTree::new(k, edges).expect("Algorithm 2 grows a tree")
}

/// Enumerate **all** `(k−1)!` priority-based binding trees by exploring
/// every attachment choice (Fig. 6's recurrence `T(k) = (k−1)·T(k−1)`).
pub fn all_priority_trees(priorities: &GenderPriorities) -> Vec<BindingTree> {
    let k = priorities.k();
    let order = priorities.descending();
    let mut out = Vec::new();
    let mut edges: Vec<(u16, u16)> = Vec::with_capacity(k - 1);
    let mut in_tree: Vec<GenderId> = vec![order[0]];
    fn recurse(
        order: &[GenderId],
        in_tree: &mut Vec<GenderId>,
        edges: &mut Vec<(u16, u16)>,
        out: &mut Vec<BindingTree>,
        k: usize,
    ) {
        let depth = in_tree.len();
        if depth == k {
            out.push(BindingTree::new(k, edges.clone()).expect("valid growth"));
            return;
        }
        let j = order[depth];
        for idx in 0..depth {
            let i = in_tree[idx];
            edges.push((i.0, j.0));
            in_tree.push(j);
            recurse(order, in_tree, edges, out, k);
            in_tree.pop();
            edges.pop();
        }
    }
    recurse(&order, &mut in_tree, &mut edges, &mut out, k);
    out
}

/// Algorithm 2 end-to-end: build a priority tree and bind along it.
/// Theorem 5 guarantees the result is weakly stable.
pub fn priority_bind(
    inst: &KPartiteInstance,
    priorities: &GenderPriorities,
    choice: AttachChoice,
) -> (KAryMatching, Vec<GsStats>) {
    let tree = priority_binding_tree(priorities, choice);
    let (k, n) = (inst.k(), inst.n());
    let mut uf = UnionFind::new(k * n);
    let per_edge: Vec<GsStats> = tree
        .edges()
        .iter()
        .map(|&(i, j)| bind_edge(inst, &mut uf, GenderId(i), GenderId(j)))
        .collect();
    (KAryMatching::from_classes(k, n, &uf.classes()), per_edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::bind;
    use crate::blocking::is_kary_stable;
    use kmatch_prefs::gen::uniform::uniform_kpartite;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn priority_trees_are_bitonic() {
        for k in 2..=7 {
            let pr = GenderPriorities::by_id(k);
            for choice in [AttachChoice::HighestPriority, AttachChoice::Chain] {
                let tree = priority_binding_tree(&pr, choice);
                assert!(pr.is_bitonic_under(&tree), "{tree} not bitonic");
            }
        }
    }

    #[test]
    fn all_priority_trees_count_and_bitonic() {
        // Fig. 6: T(k) = (k-1)!.
        let expected = [1usize, 1, 2, 6, 24];
        for k in 2..=5 {
            let pr = GenderPriorities::by_id(k);
            let trees = all_priority_trees(&pr);
            assert_eq!(trees.len(), expected[k - 1], "T({k}) = (k-1)!");
            for t in &trees {
                assert!(pr.is_bitonic_under(t));
            }
        }
    }

    #[test]
    fn theorem5_priority_binding_weakly_stable() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let pr3 = GenderPriorities::by_id(3);
        let pr4 = GenderPriorities::by_id(4);
        for _ in 0..10 {
            let inst = uniform_kpartite(3, 4, &mut rng);
            let (m, _) = priority_bind(&inst, &pr3, AttachChoice::Chain);
            assert!(is_weakly_stable(&inst, &m, &pr3));
            let inst = uniform_kpartite(4, 3, &mut rng);
            for choice in [AttachChoice::HighestPriority, AttachChoice::Chain] {
                let (m, _) = priority_bind(&inst, &pr4, choice);
                assert!(is_weakly_stable(&inst, &m, &pr4));
            }
        }
    }

    #[test]
    fn theorem5_all_bitonic_trees_weakly_stable() {
        // Stronger sweep: EVERY priority tree of k = 4 on several
        // instances.
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let pr = GenderPriorities::by_id(4);
        for _ in 0..5 {
            let inst = uniform_kpartite(4, 3, &mut rng);
            for tree in all_priority_trees(&pr) {
                let m = bind(&inst, &tree);
                assert!(is_weakly_stable(&inst, &m, &pr), "tree {tree} failed");
            }
        }
    }

    #[test]
    fn weak_stability_implies_full_stability() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let pr = GenderPriorities::by_id(4);
        for _ in 0..10 {
            let inst = uniform_kpartite(4, 3, &mut rng);
            let (m, _) = priority_bind(&inst, &pr, AttachChoice::Chain);
            if is_weakly_stable(&inst, &m, &pr) {
                assert!(
                    is_kary_stable(&inst, &m),
                    "weak stability is the stronger property"
                );
            }
        }
    }

    #[test]
    fn fig5a_non_bitonic_tree_can_fail_weak_stability() {
        // Fig. 5(a): the path 4-1-2-3 (0-indexed: 3-0-1-2) is not bitonic;
        // search nearby seeds for an instance where binding along it
        // produces a weakened blocking family, demonstrating §IV-D's claim
        // that arbitrary trees no longer suffice.
        let pr = GenderPriorities::by_id(4);
        let bad_tree = BindingTree::new(4, vec![(3, 0), (0, 1), (1, 2)]).unwrap();
        assert!(!pr.is_bitonic_under(&bad_tree));
        let mut found = false;
        for seed in 0..200 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inst = uniform_kpartite(4, 3, &mut rng);
            let m = bind(&inst, &bad_tree);
            // Theorem 2 still guarantees FULL stability…
            assert!(is_kary_stable(&inst, &m));
            // …but weak stability can break.
            if !is_weakly_stable(&inst, &m, &pr) {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "expected some instance where the non-bitonic tree fails"
        );
    }

    #[test]
    fn dfs_agrees_with_naive_enumeration() {
        // The incremental-lead DFS must decide exactly like the direct
        // definition, on matchings both from bitonic and arbitrary trees.
        use kmatch_graph::prufer::random_tree;
        let pr = GenderPriorities::by_id(4);
        for seed in 0..40u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inst = uniform_kpartite(4, 3, &mut rng);
            let tree = random_tree(4, &mut rng);
            let m = bind(&inst, &tree);
            let dfs = find_weak_blocking_family(&inst, &m, &pr);
            let naive = find_weak_blocking_family_naive(&inst, &m, &pr);
            assert_eq!(dfs.is_some(), naive.is_some(), "seed {seed}, tree {tree}");
        }
    }

    #[test]
    fn dfs_agrees_with_naive_under_permuted_priorities() {
        use kmatch_graph::prufer::random_tree;
        let pr = GenderPriorities::new(vec![2, 0, 3, 1]);
        for seed in 100..120u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inst = uniform_kpartite(4, 3, &mut rng);
            let tree = random_tree(4, &mut rng);
            let m = bind(&inst, &tree);
            assert_eq!(
                find_weak_blocking_family(&inst, &m, &pr).is_some(),
                find_weak_blocking_family_naive(&inst, &m, &pr).is_some(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn custom_priorities_respected() {
        let pr = GenderPriorities::new(vec![5, 1, 9]);
        assert_eq!(pr.highest(), GenderId(2));
        assert_eq!(pr.descending(), vec![GenderId(2), GenderId(0), GenderId(1)]);
        let tree = priority_binding_tree(&pr, AttachChoice::Chain);
        // Chain: 2 -> 0 -> 1.
        assert_eq!(tree.edges(), &[(2, 0), (0, 1)]);
        assert!(pr.is_bitonic_under(&tree));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_priorities_rejected() {
        let _ = GenderPriorities::new(vec![1, 1, 2]);
    }
}
