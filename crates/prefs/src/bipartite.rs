//! The classic stable-marriage instance: two balanced sides with complete
//! preference lists.
//!
//! `BipartiteInstance` is the `k = 2` specialization used by the
//! Gale–Shapley engine in `kmatch-gs`. It stores, for both sides, the
//! preference **lists** (proposal order) and the inverse **rank tables**
//! (acceptance tests), all in flat row-major `Vec<u32>`s.
//!
//! By convention side `0` is the *proposer* side ("men" in the paper's
//! description of the GS algorithm) and side `1` the *responder* side
//! ("women"); [`crate::views::ReverseView`] swaps the roles without copying.

use crate::delta::{DeltaSide, PrefDelta};
use crate::error::PrefsError;
use crate::ids::Rank;

/// A complete, balanced bipartite preference instance of size `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteInstance {
    n: usize,
    /// `side0_lists[m * n + r]` = the responder that proposer `m` ranks at
    /// position `r` (0 = most preferred).
    side0_lists: Vec<u32>,
    /// `side1_lists[w * n + r]` = the proposer that responder `w` ranks at
    /// position `r`.
    side1_lists: Vec<u32>,
    /// `side0_ranks[m * n + w]` = rank of responder `w` in `m`'s list.
    side0_ranks: Vec<Rank>,
    /// `side1_ranks[w * n + m]` = rank of proposer `m` in `w`'s list.
    side1_ranks: Vec<Rank>,
}

/// Validate that `list` is a permutation of `0..n`, using `seen` as scratch.
pub(crate) fn check_permutation(list: &[u32], n: usize, seen: &mut [bool]) -> bool {
    if list.len() != n {
        return false;
    }
    seen.iter_mut().for_each(|s| *s = false);
    for &x in list {
        let Some(slot) = seen.get_mut(x as usize) else {
            return false;
        };
        if *slot {
            return false;
        }
        *slot = true;
    }
    true
}

/// Build a rank table (member → position) from a flat block of `rows`
/// preference lists each of length `n`.
pub(crate) fn invert_lists(lists: &[u32], rows: usize, n: usize) -> Vec<Rank> {
    let mut ranks = vec![0 as Rank; rows * n];
    for row in 0..rows {
        let base = row * n;
        for (r, &member) in lists[base..base + n].iter().enumerate() {
            ranks[base + member as usize] = r as Rank;
        }
    }
    ranks
}

impl BipartiteInstance {
    /// Build an instance from nested preference lists.
    ///
    /// `side0[m]` is proposer `m`'s best-to-worst ordering of the responders
    /// and `side1[w]` is responder `w`'s ordering of the proposers. Both
    /// sides must contain `n` permutations of `0..n`.
    pub fn from_lists(side0: &[Vec<u32>], side1: &[Vec<u32>]) -> Result<Self, PrefsError> {
        let n = side0.len();
        if n == 0 {
            return Err(PrefsError::Empty);
        }
        if side1.len() != n {
            return Err(PrefsError::ShapeMismatch {
                what: "bipartite side 1",
                expected: n,
                actual: side1.len(),
            });
        }
        if n > u32::MAX as usize / 2 {
            return Err(PrefsError::TooLarge {
                what: "n exceeds u32 range",
            });
        }
        let mut seen = vec![false; n];
        let mut flat0 = Vec::with_capacity(n * n);
        let mut flat1 = Vec::with_capacity(n * n);
        for (side_idx, (side, flat)) in [(side0, &mut flat0), (side1, &mut flat1)]
            .into_iter()
            .enumerate()
        {
            for (i, list) in side.iter().enumerate() {
                if !check_permutation(list, n, &mut seen) {
                    return Err(PrefsError::NotAPermutation {
                        owner: (side_idx, i),
                        over: 1 - side_idx,
                    });
                }
                flat.extend_from_slice(list);
            }
        }
        let side0_ranks = invert_lists(&flat0, n, n);
        let side1_ranks = invert_lists(&flat1, n, n);
        Ok(BipartiteInstance {
            n,
            side0_lists: flat0,
            side1_lists: flat1,
            side0_ranks,
            side1_ranks,
        })
    }

    /// Number of members on each side.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Proposer `m`'s preference list (best first).
    #[inline]
    pub fn proposer_list(&self, m: u32) -> &[u32] {
        let base = m as usize * self.n;
        &self.side0_lists[base..base + self.n]
    }

    /// Responder `w`'s preference list (best first).
    #[inline]
    pub fn responder_list(&self, w: u32) -> &[u32] {
        let base = w as usize * self.n;
        &self.side1_lists[base..base + self.n]
    }

    /// Rank of responder `w` in proposer `m`'s list (0 = best).
    #[inline]
    pub fn proposer_rank(&self, m: u32, w: u32) -> Rank {
        self.side0_ranks[m as usize * self.n + w as usize]
    }

    /// Rank of proposer `m` in responder `w`'s list (0 = best).
    #[inline]
    pub fn responder_rank(&self, w: u32, m: u32) -> Rank {
        self.side1_ranks[w as usize * self.n + m as usize]
    }

    /// Does proposer `m` strictly prefer responder `a` over responder `b`?
    #[inline]
    pub fn proposer_prefers(&self, m: u32, a: u32, b: u32) -> bool {
        self.proposer_rank(m, a) < self.proposer_rank(m, b)
    }

    /// Does responder `w` strictly prefer proposer `a` over proposer `b`?
    #[inline]
    pub fn responder_prefers(&self, w: u32, a: u32, b: u32) -> bool {
        self.responder_rank(w, a) < self.responder_rank(w, b)
    }

    /// Apply a single-row [`PrefDelta`] in place: rewrite the named
    /// preference list and re-invert its rank row, in O(n).
    ///
    /// The delta is validated ([`PrefDelta::validate`]) before anything is
    /// touched, so on error the instance is unchanged.
    pub fn apply_delta(&mut self, delta: &PrefDelta) -> Result<(), PrefsError> {
        let n = self.n;
        delta.validate(n)?;
        let (lists, ranks) = match delta.side() {
            DeltaSide::Proposer => (&mut self.side0_lists, &mut self.side0_ranks),
            DeltaSide::Responder => (&mut self.side1_lists, &mut self.side1_ranks),
        };
        let base = delta.row() as usize * n;
        let list = &mut lists[base..base + n];
        delta.apply_to_row(list);
        for (r, &member) in list.iter().enumerate() {
            ranks[base + member as usize] = r as Rank;
        }
        Ok(())
    }

    /// The same instance with proposer/responder roles swapped (deep copy).
    ///
    /// Used to compute the responder-optimal matching by running GS "from
    /// the other side". For a zero-copy swap see
    /// [`crate::views::ReverseView`].
    pub fn swapped(&self) -> BipartiteInstance {
        BipartiteInstance {
            n: self.n,
            side0_lists: self.side1_lists.clone(),
            side1_lists: self.side0_lists.clone(),
            side0_ranks: self.side1_ranks.clone(),
            side1_ranks: self.side0_ranks.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example1_first() -> BipartiteInstance {
        // Paper Example 1, first preference set:
        //   m: w > w',  m': w > w',  w: m' > m,  w': m' > m.
        BipartiteInstance::from_lists(&[vec![0, 1], vec![0, 1]], &[vec![1, 0], vec![1, 0]]).unwrap()
    }

    #[test]
    fn ranks_invert_lists() {
        let inst = example1_first();
        assert_eq!(inst.proposer_rank(0, 0), 0);
        assert_eq!(inst.proposer_rank(0, 1), 1);
        assert_eq!(inst.responder_rank(0, 1), 0);
        assert_eq!(inst.responder_rank(0, 0), 1);
        assert!(inst.proposer_prefers(0, 0, 1));
        assert!(inst.responder_prefers(1, 1, 0));
    }

    #[test]
    fn rejects_non_permutation() {
        let err = BipartiteInstance::from_lists(&[vec![0, 0]], &[vec![0, 1]]).unwrap_err();
        assert!(matches!(err, PrefsError::NotAPermutation { .. }));
        let err =
            BipartiteInstance::from_lists(&[vec![0, 2], vec![1, 0]], &[vec![0, 1], vec![1, 0]])
                .unwrap_err();
        assert!(matches!(err, PrefsError::NotAPermutation { .. }));
    }

    #[test]
    fn rejects_unbalanced_sides() {
        let err = BipartiteInstance::from_lists(&[vec![0]], &[]).unwrap_err();
        assert!(matches!(err, PrefsError::ShapeMismatch { .. }));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            BipartiteInstance::from_lists(&[], &[]).unwrap_err(),
            PrefsError::Empty
        );
    }

    #[test]
    fn swapped_swaps_roles() {
        let inst = example1_first();
        let sw = inst.swapped();
        assert_eq!(sw.proposer_list(0), inst.responder_list(0));
        assert_eq!(sw.responder_rank(1, 0), inst.proposer_rank(1, 0));
        assert_eq!(sw.swapped(), inst);
    }

    #[test]
    fn wrong_length_list_rejected() {
        let err =
            BipartiteInstance::from_lists(&[vec![0, 1, 2], vec![1, 0]], &[vec![0, 1], vec![1, 0]])
                .unwrap_err();
        assert!(matches!(err, PrefsError::NotAPermutation { .. }));
    }
}
