//! Single-set (stable-roommates) preference instances with incomplete lists.
//!
//! §III-B of the paper reduces *binary* matching in a k-partite graph to the
//! stable-roommates problem "with incomplete preference lists (i.e., a
//! person can exclude some members)": same-gender pairs are simply absent
//! from the lists. [`RoommatesInstance`] is the common input type; the
//! adapters [`RoommatesInstance::from_kpartite`] and
//! [`RoommatesInstance::from_bipartite`] perform the paper's two reductions
//! (k-partite binary matching, and the fair-SMP construction where both
//! genders propose).

use crate::error::PrefsError;
use crate::ids::{Rank, UNRANKED};
use crate::{BipartiteInstance, KPartiteInstance};

/// How to merge a k-partite member's per-gender total orders into the single
/// global order required by the roommates reduction.
///
/// The paper notes (footnote 4) that the per-gender total orders "form a
/// global partial order which can be converted into a global total order in
/// various ways"; this enum selects the linear extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeStrategy {
    /// Interleave by rank: every member's rank-0 choices (in gender order),
    /// then all rank-1 choices, and so on. This treats genders evenly and is
    /// the default.
    #[default]
    RoundRobinByRank,
    /// Concatenate whole per-gender lists in ascending gender order: all of
    /// the first other gender, then all of the next, …
    ConcatByGender,
}

/// A stable-roommates instance: one set of participants, each with an
/// ordered list of *acceptable* partners. Acceptability is mutual.
///
/// Lists are ragged (incomplete lists are the point of the §III-B
/// reduction), so they are stored in CSR form: one flat entry array plus
/// per-participant offsets. [`RoommatesInstance::list`] is a slice of the
/// shared buffer and the solvers never chase a per-participant `Vec`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoommatesInstance {
    n: usize,
    /// CSR row starts: participant `p`'s list occupies
    /// `entries[offsets[p] as usize..offsets[p + 1] as usize]`.
    offsets: Vec<u32>,
    /// All preference lists concatenated, best first within each row.
    entries: Vec<u32>,
    /// `ranks[p * n + q]` = rank of `q` in `p`'s list, or [`UNRANKED`].
    ranks: Vec<Rank>,
}

impl RoommatesInstance {
    /// Build an instance from per-participant lists.
    ///
    /// Lists may be incomplete, but acceptability must be mutual and no
    /// participant may list itself or repeat an entry.
    pub fn from_lists(lists: Vec<Vec<u32>>) -> Result<Self, PrefsError> {
        let n = lists.len();
        if n == 0 {
            return Err(PrefsError::Empty);
        }
        if n > u32::MAX as usize / 2 {
            return Err(PrefsError::TooLarge {
                what: "participants exceed u32 range",
            });
        }
        let mut ranks = vec![UNRANKED; n * n];
        for (p, list) in lists.iter().enumerate() {
            for (r, &q) in list.iter().enumerate() {
                if q as usize >= n {
                    return Err(PrefsError::BadRoommatesList {
                        owner: p,
                        reason: "entry out of range",
                    });
                }
                if q as usize == p {
                    return Err(PrefsError::BadRoommatesList {
                        owner: p,
                        reason: "participant lists itself",
                    });
                }
                let slot = &mut ranks[p * n + q as usize];
                if *slot != UNRANKED {
                    return Err(PrefsError::BadRoommatesList {
                        owner: p,
                        reason: "duplicate entry",
                    });
                }
                *slot = r as Rank;
            }
        }
        for p in 0..n {
            for q in 0..n {
                if ranks[p * n + q] != UNRANKED && ranks[q * n + p] == UNRANKED {
                    return Err(PrefsError::AsymmetricAcceptability { a: p, b: q });
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        offsets.push(0);
        for list in &lists {
            entries.extend_from_slice(list);
            offsets.push(entries.len() as u32);
        }
        Ok(RoommatesInstance {
            n,
            offsets,
            entries,
            ranks,
        })
    }

    /// Reduce a k-partite instance to roommates: participant `g·n + i` is
    /// member `(g, i)`; same-gender pairs are unacceptable; each
    /// participant's global order is the chosen linear extension of its
    /// per-gender orders.
    pub fn from_kpartite(inst: &KPartiteInstance, strategy: MergeStrategy) -> Self {
        let (k, n) = (inst.k(), inst.n());
        let total = k * n;
        let mut lists = Vec::with_capacity(total);
        for m in inst.members() {
            let g = m.gender;
            let mut list = Vec::with_capacity((k - 1) * n);
            match strategy {
                MergeStrategy::RoundRobinByRank => {
                    for r in 0..n {
                        for h in inst.genders().filter(|&h| h != g) {
                            let j = inst.pref_list(m, h)[r];
                            list.push(h.idx() as u32 * n as u32 + j);
                        }
                    }
                }
                MergeStrategy::ConcatByGender => {
                    for h in inst.genders().filter(|&h| h != g) {
                        for &j in inst.pref_list(m, h) {
                            list.push(h.idx() as u32 * n as u32 + j);
                        }
                    }
                }
            }
            lists.push(list);
        }
        RoommatesInstance::from_lists(lists)
            .expect("k-partite reduction always yields a valid roommates instance")
    }

    /// Reduce a bipartite (SMP) instance: participants `0..n` are proposers,
    /// `n..2n` responders, and only cross-side pairs are acceptable.
    ///
    /// This is the §III-B device for *fair* stable marriage: running the
    /// roommates algorithm on this instance lets both sides propose
    /// simultaneously.
    pub fn from_bipartite(inst: &BipartiteInstance) -> Self {
        let n = inst.n();
        let mut lists = Vec::with_capacity(2 * n);
        for m in 0..n as u32 {
            lists.push(
                inst.proposer_list(m)
                    .iter()
                    .map(|&w| w + n as u32)
                    .collect(),
            );
        }
        for w in 0..n as u32 {
            lists.push(inst.responder_list(w).to_vec());
        }
        RoommatesInstance::from_lists(lists)
            .expect("bipartite reduction always yields a valid roommates instance")
    }

    /// Number of participants.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Participant `p`'s acceptable partners, best first.
    #[inline]
    pub fn list(&self, p: u32) -> &[u32] {
        let lo = self.offsets[p as usize] as usize;
        let hi = self.offsets[p as usize + 1] as usize;
        &self.entries[lo..hi]
    }

    /// Start of `p`'s row in the flat entry arena: entry `r` of `p`'s list
    /// lives at flat index `row_start(p) + r`. Because rows are stored
    /// best-first, the flat index of partner `q` is
    /// `row_start(p) + rank_of(p, q)` — an O(1) address solvers can key
    /// per-entry scratch state by.
    #[inline]
    pub fn row_start(&self, p: u32) -> u32 {
        self.offsets[p as usize]
    }

    /// The partner stored at flat entry index `idx` (see
    /// [`RoommatesInstance::row_start`]).
    #[inline]
    pub fn entry(&self, idx: u32) -> u32 {
        self.entries[idx as usize]
    }

    /// Total number of preference entries across all participants — the
    /// size of the flat arena indexed by [`RoommatesInstance::row_start`].
    #[inline]
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }

    /// Rank of `q` in `p`'s list, or [`UNRANKED`] if unacceptable.
    #[inline]
    pub fn rank_of(&self, p: u32, q: u32) -> Rank {
        self.ranks[p as usize * self.n + q as usize]
    }

    /// Is `q` acceptable to `p` (equivalently, by mutuality, `p` to `q`)?
    #[inline]
    pub fn acceptable(&self, p: u32, q: u32) -> bool {
        self.rank_of(p, q) != UNRANKED
    }

    /// Does `p` strictly prefer `a` to `b`? Unacceptable partners rank below
    /// every acceptable one.
    #[inline]
    pub fn prefers(&self, p: u32, a: u32, b: u32) -> bool {
        self.rank_of(p, a) < self.rank_of(p, b)
    }

    /// Reconstruct the per-participant nested lists (for serialization and
    /// other cold paths; hot paths should slice via [`RoommatesInstance::list`]).
    pub fn to_lists(&self) -> Vec<Vec<u32>> {
        (0..self.n as u32).map(|p| self.list(p).to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::paper::{fig3_tripartite, section3b_left};

    #[test]
    fn mutual_acceptability_enforced() {
        // 0 lists 1 but 1 does not list 0.
        let err = RoommatesInstance::from_lists(vec![vec![1], vec![2], vec![1]]).unwrap_err();
        assert!(matches!(
            err,
            PrefsError::AsymmetricAcceptability { a: 0, b: 1 }
        ));
    }

    #[test]
    fn self_and_duplicate_rejected() {
        let err = RoommatesInstance::from_lists(vec![vec![0]]).unwrap_err();
        assert!(matches!(err, PrefsError::BadRoommatesList { owner: 0, .. }));
        let err = RoommatesInstance::from_lists(vec![vec![1, 1], vec![0]]).unwrap_err();
        assert!(matches!(err, PrefsError::BadRoommatesList { owner: 0, .. }));
    }

    #[test]
    fn paper_left_instance_lists() {
        // §III-B left example is given directly as a roommates instance over
        // {m, m', w, w', u, u'} = {0, 1, 2, 3, 4, 5}.
        let inst = section3b_left();
        assert_eq!(inst.n(), 6);
        // m: u' w w' u  ->  [5, 2, 3, 4]
        assert_eq!(inst.list(0), &[5, 2, 3, 4]);
        // u': m w w' m' ->  [0, 2, 3, 1]
        assert_eq!(inst.list(5), &[0, 2, 3, 1]);
        assert!(inst.prefers(0, 5, 2));
        assert!(!inst.acceptable(0, 1)); // same gender m—m'
    }

    #[test]
    fn kpartite_reduction_round_robin() {
        let inst = fig3_tripartite();
        let rm = RoommatesInstance::from_kpartite(&inst, MergeStrategy::RoundRobinByRank);
        assert_eq!(rm.n(), 6);
        // m (participant 0): rank-0 choices of genders W (=1) and U (=2),
        // then rank-1 choices. m: w > w' and u' > u, so [w, u', w', u]
        // = [1*2+0, 2*2+1, 1*2+1, 2*2+0] = [2, 5, 3, 4].
        assert_eq!(rm.list(0), &[2, 5, 3, 4]);
        // Same-gender pairs unacceptable both ways.
        assert!(!rm.acceptable(0, 1));
        assert!(!rm.acceptable(4, 5));
    }

    #[test]
    fn kpartite_reduction_concat() {
        let inst = fig3_tripartite();
        let rm = RoommatesInstance::from_kpartite(&inst, MergeStrategy::ConcatByGender);
        // m: whole W list then whole U list: [w, w', u', u] = [2, 3, 5, 4].
        assert_eq!(rm.list(0), &[2, 3, 5, 4]);
    }

    #[test]
    fn bipartite_reduction_offsets_responders() {
        let b = crate::gen::paper::example1_first();
        let rm = RoommatesInstance::from_bipartite(&b);
        assert_eq!(rm.n(), 4);
        assert_eq!(rm.list(0), &[2, 3]); // m: w > w'
        assert_eq!(rm.list(2), &[1, 0]); // w: m' > m
        assert!(!rm.acceptable(0, 1));
        assert!(!rm.acceptable(2, 3));
    }
}
