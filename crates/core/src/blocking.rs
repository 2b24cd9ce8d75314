//! Blocking-family search: the k-ary stability verifier.
//!
//! §II-C: "A k-tuple is called a blocking family if each member in the
//! family strictly prefers each member of that family to the each member of
//! his or her current family", refined in §IV-A: members coming from the
//! same existing family form a *same-family group* and "there is no need to
//! compare members from the same-family group".
//!
//! Formally, a candidate tuple `C = (c_0, …, c_{k−1})` blocks matching `M`
//! iff its members span at least two current families and, for every
//! ordered pair of genders `(g, h)` with `family(c_g) ≠ family(c_h)`,
//! member `c_g` strictly prefers `c_h` to the gender-`h` member of its own
//! current family.
//!
//! Two verifiers share these semantics and return the same witness, the
//! lexicographically least blocking tuple:
//!
//! * [`find_blocking_family`] — a DFS over genders that exploits the fact
//!   that the condition is **pairwise**. A member accepts exactly the
//!   prefix of its list that ends at its current partner (the strictly
//!   better members, plus its own family's), so at every depth past the
//!   first the DFS enumerates only the shortest such prefix among the
//!   members chosen so far, in ascending order, and tests each candidate
//!   against every chosen member; a failed test prunes the whole subtree.
//!   Worst case `O(n^k)` (the problem is a complete `k`-partite constraint
//!   search), but a stable matching leaves short prefixes: most members
//!   hold a partner near the top of their lists. Used by
//!   [`is_kary_stable`].
//! * [`find_blocking_family_naive`] — exhaustive `n^k` ground truth, in
//!   lexicographic order.

use kmatch_prefs::{GenderId, KPartiteInstance, Member};

use crate::kary::KAryMatching;

/// A witness of k-ary instability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingFamily {
    /// The blocking tuple: `members[g]` is the gender-`g` member.
    pub members: Vec<u32>,
    /// The distinct current families the members come from (the paper's
    /// `k′`, with `2 ≤ k′ ≤ k`).
    pub source_families: Vec<u32>,
}

impl BlockingFamily {
    /// The witness `members` (indexed by gender), with the families of
    /// `matching` they come from.
    pub(crate) fn new(matching: &KAryMatching, members: Vec<u32>) -> Self {
        let mut source_families: Vec<u32> = members
            .iter()
            .enumerate()
            .map(|(g, &i)| matching.family_of(Member::new(g, i)))
            .collect();
        source_families.sort_unstable();
        source_families.dedup();
        BlockingFamily {
            members,
            source_families,
        }
    }
}

/// Does `a` accept `b` as the gender-`h` member of a prospective family,
/// given the current matching? True when they are already in the same
/// family (same-family group — no comparison needed) or when `a` strictly
/// prefers `b` to its current gender-`h` partner.
#[inline]
fn accepts(inst: &KPartiteInstance, matching: &KAryMatching, a: Member, b: Member) -> bool {
    if matching.family_of(a) == matching.family_of(b) {
        return true;
    }
    let current = matching.current_partner(a, b.gender);
    inst.rank_of(a, b.gender, b.index) < inst.rank_of(a, b.gender, current.index)
}

/// Does the complete tuple `members` span at least two current families?
/// A tuple equal to an existing family trivially "accepts" itself but
/// blocks nothing.
pub(crate) fn spans_families(matching: &KAryMatching, members: &[u32]) -> bool {
    let first = matching.family_of(Member::new(0usize, members[0]));
    members
        .iter()
        .enumerate()
        .any(|(h, &i)| matching.family_of(Member::new(h, i)) != first)
}

/// Find a blocking family of `matching`, or `None` if it is stable.
///
/// Deterministic: the DFS explores genders in ascending order and members
/// in index order, so the lexicographically-least blocking tuple is
/// returned — the one [`find_blocking_family_naive`] returns.
pub fn find_blocking_family(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
) -> Option<BlockingFamily> {
    let k = inst.k();
    assert_eq!(
        matching.k(),
        k,
        "matching arity must equal instance genders"
    );
    assert_eq!(
        matching.n(),
        inst.n(),
        "matching size must equal instance size"
    );
    let mut search = Search {
        inst,
        matching,
        chosen: Vec::with_capacity(k),
        candidates: vec![Vec::new(); k],
    };
    search
        .dfs()
        .then(|| BlockingFamily::new(matching, search.chosen))
}

/// The DFS state of [`find_blocking_family`].
struct Search<'a> {
    inst: &'a KPartiteInstance,
    matching: &'a KAryMatching,
    /// The members chosen so far, one per gender `0..chosen.len()`.
    chosen: Vec<u32>,
    /// `candidates[d]`: the sorted accept set enumerated at depth `d`,
    /// kept to reuse its allocation.
    candidates: Vec<Vec<u32>>,
}

impl Search<'_> {
    /// Extend `chosen` to a blocking tuple; on success `chosen` holds it.
    fn dfs(&mut self) -> bool {
        let d = self.chosen.len();
        if d == self.inst.k() {
            return spans_families(self.matching, &self.chosen);
        }
        if d == 0 {
            return (0..self.inst.n() as u32).any(|i| self.extend(i));
        }
        // Every candidate must be accepted by every chosen member, so it
        // lies in the shortest accept set among them: the prefix of that
        // member's gender-`d` list up to and including its current
        // partner.
        let gd = GenderId::from(d);
        let (owner, len) = self
            .chosen
            .iter()
            .enumerate()
            .map(|(h, &j)| {
                let a = Member::new(h, j);
                let partner = self.matching.current_partner(a, gd);
                (a, self.inst.rank_of(a, gd, partner.index) as usize + 1)
            })
            .min_by_key(|&(_, len)| len)
            .expect("depth d >= 1 has a chosen member");
        let mut set = std::mem::take(&mut self.candidates[d]);
        set.clear();
        set.extend_from_slice(&self.inst.pref_list(owner, gd)[..len]);
        set.sort_unstable();
        let found = set.iter().any(|&i| self.extend(i));
        self.candidates[d] = set;
        found
    }

    /// Try member `i` of the next gender: if it and every chosen member
    /// accept each other, recurse with it chosen.
    fn extend(&mut self, i: u32) -> bool {
        let (inst, matching) = (self.inst, self.matching);
        let cand = Member::new(self.chosen.len(), i);
        let feasible = self.chosen.iter().enumerate().all(|(h, &j)| {
            let prev = Member::new(h, j);
            accepts(inst, matching, prev, cand) && accepts(inst, matching, cand, prev)
        });
        if !feasible {
            return false;
        }
        self.chosen.push(i);
        if self.dfs() {
            return true;
        }
        self.chosen.pop();
        false
    }
}

/// Is the k-ary matching stable (free of blocking families)?
pub fn is_kary_stable(inst: &KPartiteInstance, matching: &KAryMatching) -> bool {
    find_blocking_family(inst, matching).is_none()
}

/// Ground-truth verifier: enumerate every one of the `n^k` candidate
/// tuples in lexicographic order (gender `k − 1` varying fastest) with no
/// pruning and test the §II-C/§IV-A condition directly, so the first
/// blocking tuple found is the lexicographically least. Exponential —
/// small instances only; used to cross-validate the pruned DFS in tests
/// and property tests.
pub fn find_blocking_family_naive(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
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
        let ok = spans_families(matching, &tuple)
            && members.iter().all(|&a| {
                members
                    .iter()
                    .filter(|&&b| b.gender != a.gender)
                    .all(|&b| accepts(inst, matching, a, b))
            });
        if ok {
            return Some(BlockingFamily::new(matching, tuple));
        }
        // Odometer advance, last gender fastest.
        let mut pos = k;
        loop {
            if pos == 0 {
                return None;
            }
            pos -= 1;
            tuple[pos] += 1;
            if (tuple[pos] as usize) < n {
                break;
            }
            tuple[pos] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_prefs::gen::paper::fig3_tripartite;

    fn matching(tuples: &[Vec<u32>]) -> KAryMatching {
        KAryMatching::from_tuples(3, 2, tuples)
    }

    #[test]
    fn fig3_binding_result_is_stable() {
        // Families (m,w,u), (m',w',u') — the M−W, W−U binding outcome.
        let inst = fig3_tripartite();
        let m = matching(&[vec![0, 0, 0], vec![1, 1, 1]]);
        assert!(is_kary_stable(&inst, &m));
    }

    #[test]
    fn fig3_alternative_bindings_also_stable() {
        // §IV-B: (m,w',u'),(m',w,u) and (m,w,u'),(m',w',u) are the
        // outcomes of other binding trees — all stable.
        let inst = fig3_tripartite();
        assert!(is_kary_stable(
            &inst,
            &matching(&[vec![0, 1, 1], vec![1, 0, 0]])
        ));
        assert!(is_kary_stable(
            &inst,
            &matching(&[vec![0, 0, 1], vec![1, 1, 0]])
        ));
    }

    #[test]
    fn detects_paper_style_blocking_family() {
        // §II-C's example shape: families (m,w,u), (m',w',u') where m
        // prefers w', u' and both prefer m — build such an instance.
        // m: w' > w, u' > u;  w': m > m';  u': m > m'; rest arbitrary.
        let lists = vec![
            vec![
                vec![vec![], vec![1, 0], vec![1, 0]], // m : w' > w, u' > u
                vec![vec![], vec![1, 0], vec![1, 0]], // m': w' > w, u' > u
            ],
            vec![
                vec![vec![0, 1], vec![], vec![0, 1]], // w : m > m'
                vec![vec![0, 1], vec![], vec![0, 1]], // w': m > m'
            ],
            vec![
                vec![vec![0, 1], vec![0, 1], vec![]], // u : m > m'
                vec![vec![0, 1], vec![0, 1], vec![]], // u': m > m'
            ],
        ];
        let inst = kmatch_prefs::KPartiteInstance::from_lists(&lists).unwrap();
        let m = matching(&[vec![0, 0, 0], vec![1, 1, 1]]);
        let bf = find_blocking_family(&inst, &m).expect("(m, w', u') blocks");
        assert_eq!(bf.members, vec![0, 1, 1], "m with w' and u'");
        assert_eq!(bf.source_families, vec![0, 1], "drawn from two families");
    }

    #[test]
    fn tuple_equal_to_existing_family_never_blocks() {
        let inst = fig3_tripartite();
        let m = matching(&[vec![0, 0, 0], vec![1, 1, 1]]);
        // Even on an unstable-ish instance the existing family (0,0,0)
        // itself must not be reported; verified implicitly by stability
        // above, and directly by the k' >= 2 rule here.
        assert!(find_blocking_family(&inst, &m)
            .map(|bf| bf.source_families.len() >= 2)
            .unwrap_or(true));
    }

    #[test]
    fn dfs_returns_the_naive_witness() {
        use kmatch_graph::prufer::random_tree;
        use kmatch_prefs::gen::uniform::uniform_kpartite;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        for (seed, n) in (0..30u64)
            .map(|s| (s, 3))
            .chain((1000..1030).map(|s| (s, 4)))
        {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inst = uniform_kpartite(3, n, &mut rng);
            // Stable matchings (from binding) AND arbitrary matchings
            // (cyclic-shift families) must both get the same witness.
            let stable = crate::binding::bind(&inst, &random_tree(3, &mut rng));
            let tuples: Vec<Vec<u32>> = (0..n as u32)
                .map(|f| vec![f, (f + 1) % n as u32, (f + 2) % n as u32])
                .collect();
            let arbitrary = KAryMatching::from_tuples(3, n, &tuples);
            for m in [&stable, &arbitrary] {
                let dfs = find_blocking_family(&inst, m);
                assert_eq!(dfs, find_blocking_family_naive(&inst, m), "seed {seed}");
                assert_eq!(is_kary_stable(&inst, m), dfs.is_none(), "seed {seed}");
            }
        }
    }

    #[test]
    fn dfs_returns_the_naive_witness_on_long_prefixes() {
        // A shifted matching on n = 40 leaves members with partners deep
        // in their lists, so the enumerated prefixes are long.
        use kmatch_graph::prufer::random_tree;
        use kmatch_prefs::gen::uniform::uniform_kpartite;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let inst = uniform_kpartite(3, 40, &mut rng);
        let stable = crate::binding::bind(&inst, &random_tree(3, &mut rng));
        assert_eq!(find_blocking_family(&inst, &stable), None);
        let tuples: Vec<Vec<u32>> = (0..40u32)
            .map(|f| vec![f, (f + 1) % 40, (f + 2) % 40])
            .collect();
        let shuffled = KAryMatching::from_tuples(3, 40, &tuples);
        assert_eq!(
            find_blocking_family(&inst, &shuffled),
            find_blocking_family_naive(&inst, &shuffled)
        );
    }

    #[test]
    fn same_family_group_members_not_compared() {
        // Construct a matching where a blocking family takes TWO members
        // from one family; those two must not be required to prefer each
        // other. k = 3, n = 2:
        //   families F0 = (m, w, u), F1 = (m', w', u').
        //   Candidate C = (m, w, u'): m,w from F0 (same group), u' from F1.
        //   Required: m prefers u' over u; w prefers u' over u;
        //             u' prefers m over m' and w over w'.
        //   NOT required: anything between m and w.
        let lists = vec![
            vec![
                vec![vec![], vec![1, 0], vec![1, 0]], // m : w' > w (!), u' > u
                vec![vec![], vec![1, 0], vec![0, 1]], // m'
            ],
            vec![
                vec![vec![1, 0], vec![], vec![1, 0]], // w : m' > m (!), u' > u
                vec![vec![0, 1], vec![], vec![0, 1]], // w'
            ],
            vec![
                vec![vec![0, 1], vec![0, 1], vec![]], // u
                vec![vec![0, 1], vec![0, 1], vec![]], // u': m > m', w > w'
            ],
        ];
        let inst = kmatch_prefs::KPartiteInstance::from_lists(&lists).unwrap();
        let m = matching(&[vec![0, 0, 0], vec![1, 1, 1]]);
        // m ranks w LAST among women and w ranks m last among men — yet
        // (m, w, u') must still block because they are in the same family.
        let bf = find_blocking_family(&inst, &m).expect("same-group exemption applies");
        assert_eq!(bf.members, vec![0, 0, 1]);
    }
}
