//! The classic stable-marriage instance: two balanced sides with complete
//! preference lists.
//!
//! `BipartiteInstance` is the `k = 2` specialization used by the
//! Gale–Shapley engine in `kmatch-gs`. It stores, for both sides, the
//! preference **lists** (proposal order) as flat row-major `Vec<u32>`s and
//! the inverse **rank tables** (acceptance tests) at half width, as
//! `Vec<u16>`s: a rank is below `n`, and `n` is capped at
//! [`CSR_MAX_N`] = 65 536, so 16 bits hold it. The rank accessors widen
//! to [`Rank`]. Each rank row is written by the one validating inverter
//! the crate shares, in the same pass that checks its list is a
//! permutation; a larger `n` is [`PrefsError::TooLarge`], rejected before
//! any table is allocated.
//!
//! By convention side `0` is the *proposer* side ("men" in the paper's
//! description of the GS algorithm) and side `1` the *responder* side
//! ("women"); [`crate::views::ReverseView`] swaps the roles without copying.

use crate::csr::CSR_MAX_N;
use crate::delta::{DeltaSide, PrefDelta};
use crate::error::PrefsError;
use crate::ids::Rank;
use crate::invert::invert_permutation;

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
    side0_ranks: Vec<u16>,
    /// `side1_ranks[w * n + m]` = rank of proposer `m` in `w`'s list.
    side1_ranks: Vec<u16>,
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
        if n > CSR_MAX_N {
            return Err(PrefsError::TooLarge {
                what: "n exceeds 65536 members per side",
            });
        }
        // The tables are sized only once every list has length `n`, so a
        // short document cannot reserve n² cells it does not hold. A
        // malformed list is still found in row order, through one scratch
        // row, so the error is the one a full build reports.
        let shaped = side0.iter().chain(side1).all(|list| list.len() == n);
        let cells = if shaped { n * n } else { 0 };
        let mut lists = [Vec::with_capacity(cells), Vec::with_capacity(cells)];
        let mut ranks = [vec![0u16; cells.max(n)], vec![0u16; cells.max(n)]];
        for (side_idx, side) in [side0, side1].into_iter().enumerate() {
            for (i, list) in side.iter().enumerate() {
                let base = if shaped { i * n } else { 0 };
                if !invert_permutation(list, &mut ranks[side_idx][base..base + n]) {
                    return Err(PrefsError::NotAPermutation {
                        owner: (side_idx, i),
                        over: 1 - side_idx,
                    });
                }
                lists[side_idx].extend_from_slice(list);
            }
        }
        assert!(shaped, "a list of the wrong length is not a permutation");
        let [side0_lists, side1_lists] = lists;
        let [side0_ranks, side1_ranks] = ranks;
        Ok(BipartiteInstance {
            n,
            side0_lists,
            side1_lists,
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
        self.side0_ranks[m as usize * self.n + w as usize] as Rank
    }

    /// Rank of proposer `m` in responder `w`'s list (0 = best).
    #[inline]
    pub fn responder_rank(&self, w: u32, m: u32) -> Rank {
        self.side1_ranks[w as usize * self.n + m as usize] as Rank
    }

    /// Bytes held by the instance's four tables: two `u32` list tables and
    /// two `u16` rank tables, `12·n²` in all.
    pub fn resident_bytes(&self) -> usize {
        (self.side0_lists.capacity() + self.side1_lists.capacity()) * size_of::<u32>()
            + (self.side0_ranks.capacity() + self.side1_ranks.capacity()) * size_of::<u16>()
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
        assert!(
            invert_permutation(list, &mut ranks[base..base + n]),
            "a validated delta keeps the row a permutation"
        );
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
