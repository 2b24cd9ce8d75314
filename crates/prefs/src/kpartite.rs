//! Balanced complete k-partite preference instances (the paper's model).
//!
//! A [`KPartiteInstance`] holds `k` genders of `n` members each. Every
//! member keeps a **separate total order over each other gender** — the
//! paper's key modelling choice (§I): "there is a strict preference order of
//! the members over all individual members from different genders, as
//! opposed to preference order over a combination of members". A member of a
//! tripartite instance with `n = 2` therefore stores two lists of two
//! entries each (`2n` entries total), exactly as in Fig. 3 of the paper.
//!
//! The lists are stored as `u32` and their inverse rank tables at half
//! width, as `u16`: a rank is below `n`, and `n` is capped at
//! [`CSR_MAX_N`] = 65 536 ([`PrefsError::TooLarge`] above it, checked
//! before any table is allocated). Every rank row is written by the one
//! validating inverter the crate shares, in the same pass that checks its
//! list is a permutation, both on build and in
//! [`KPartiteInstance::set_pref_row`].

use crate::csr::CSR_MAX_N;
use crate::error::PrefsError;
use crate::ids::{GenderId, Member, Rank};
use crate::invert::invert_permutation;

/// A balanced, complete k-partite preference instance.
///
/// Storage is a single dense table per direction:
/// `lists[(g·n + i)·k·n + h·n + r]` is the index of the member of gender `h`
/// that member `(g, i)` ranks at position `r`; `ranks` is its half-width
/// inverse. The diagonal blocks (`h == g`) are unused and zero-filled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KPartiteInstance {
    k: usize,
    n: usize,
    lists: Vec<u32>,
    ranks: Vec<u16>,
}

impl KPartiteInstance {
    /// Build an instance from nested lists.
    ///
    /// `lists[g][i][h]` is member `(g, i)`'s best-to-worst ordering of
    /// gender `h`; the self block `lists[g][i][g]` must be empty, and every
    /// other block must be a permutation of `0..n`.
    pub fn from_lists(lists: &[Vec<Vec<Vec<u32>>>]) -> Result<Self, PrefsError> {
        let k = lists.len();
        if k < 2 {
            return Err(if k == 0 {
                PrefsError::Empty
            } else {
                PrefsError::TooFewGenders { k }
            });
        }
        if k > u16::MAX as usize {
            return Err(PrefsError::TooLarge {
                what: "k exceeds u16 range",
            });
        }
        let n = lists[0].len();
        if n == 0 {
            return Err(PrefsError::Empty);
        }
        if n > CSR_MAX_N {
            return Err(PrefsError::TooLarge {
                what: "n exceeds 65536 members per gender",
            });
        }
        if (k * n) > u32::MAX as usize / 2 {
            return Err(PrefsError::TooLarge {
                what: "k*n exceeds u32 range",
            });
        }
        // The tables are sized only once every list has the length its
        // place demands, so a short document cannot reserve (k·n)² cells
        // it does not hold. A malformed shape is still walked in order,
        // through one scratch row, and fails where a full build would.
        let shaped = lists.iter().enumerate().all(|(g, gender)| {
            gender.len() == n
                && gender.iter().all(|member| {
                    member.len() == k
                        && member
                            .iter()
                            .enumerate()
                            .all(|(h, block)| block.len() == if h == g { 0 } else { n })
                })
        });
        let cells = if shaped { k * n * k * n } else { 0 };
        let mut flat = vec![0u32; cells];
        let mut ranks = vec![0u16; cells.max(n)];
        for (g, gender) in lists.iter().enumerate() {
            if gender.len() != n {
                return Err(PrefsError::ShapeMismatch {
                    what: "members per gender",
                    expected: n,
                    actual: gender.len(),
                });
            }
            for (i, member) in gender.iter().enumerate() {
                if member.len() != k {
                    return Err(PrefsError::ShapeMismatch {
                        what: "per-gender preference blocks",
                        expected: k,
                        actual: member.len(),
                    });
                }
                for (h, block) in member.iter().enumerate() {
                    if h == g {
                        if !block.is_empty() {
                            return Err(PrefsError::SelfPreference { owner: (g, i) });
                        }
                        continue;
                    }
                    let base = if shaped { ((g * n + i) * k + h) * n } else { 0 };
                    if !invert_permutation(block, &mut ranks[base..base + n]) {
                        return Err(PrefsError::NotAPermutation {
                            owner: (g, i),
                            over: h,
                        });
                    }
                    if shaped {
                        flat[base..base + n].copy_from_slice(block);
                    }
                }
            }
        }
        assert!(shaped, "the walk rejects every malformed shape");
        Ok(KPartiteInstance {
            k,
            n,
            lists: flat,
            ranks,
        })
    }

    /// Number of genders `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Members per gender `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Iterator over all gender ids.
    pub fn genders(&self) -> impl Iterator<Item = GenderId> {
        (0..self.k).map(GenderId::from)
    }

    /// Iterator over all members, gender-major.
    pub fn members(&self) -> impl Iterator<Item = Member> + '_ {
        (0..self.k).flat_map(move |g| (0..self.n as u32).map(move |i| Member::new(g, i)))
    }

    #[inline]
    fn base(&self, m: Member, h: GenderId) -> usize {
        debug_assert_ne!(m.gender, h, "no preferences over own gender");
        ((m.gender.idx() * self.n + m.index as usize) * self.k + h.idx()) * self.n
    }

    /// Member `m`'s preference list over gender `h` (best first).
    ///
    /// # Panics
    /// In debug builds, if `h` is `m`'s own gender.
    #[inline]
    pub fn pref_list(&self, m: Member, h: GenderId) -> &[u32] {
        let base = self.base(m, h);
        &self.lists[base..base + self.n]
    }

    /// Rank member `m` assigns to member `(h, j)` (0 = best).
    #[inline]
    pub fn rank_of(&self, m: Member, h: GenderId, j: u32) -> Rank {
        self.ranks[self.base(m, h) + j as usize] as Rank
    }

    /// Bytes held by the instance's two `k·n × k·n` tables: the `u32`
    /// lists and the `u16` ranks, `6·(k·n)²` in all (diagonal blocks
    /// included).
    pub fn resident_bytes(&self) -> usize {
        self.lists.capacity() * size_of::<u32>() + self.ranks.capacity() * size_of::<u16>()
    }

    /// Replace member `m`'s preference row over gender `h` with `row` (a
    /// permutation of `0..n`), re-inverting the matching rank row — the
    /// k-partite delta primitive behind incremental rebinding. O(n).
    pub fn set_pref_row(&mut self, m: Member, h: GenderId, row: &[u32]) -> Result<(), PrefsError> {
        if m.gender == h {
            return Err(PrefsError::SelfPreference {
                owner: (m.gender.idx(), m.index as usize),
            });
        }
        if m.gender.idx() >= self.k || h.idx() >= self.k || m.index as usize >= self.n {
            return Err(PrefsError::ShapeMismatch {
                what: "set_pref_row member or gender index",
                expected: self.k * self.n,
                actual: m.gender.idx() * self.n + m.index as usize,
            });
        }
        // Invert into scratch first, so a rejected row leaves the
        // instance unchanged.
        let mut fresh = vec![0u16; self.n];
        if !invert_permutation(row, &mut fresh) {
            return Err(PrefsError::NotAPermutation {
                owner: (m.gender.idx(), m.index as usize),
                over: h.idx(),
            });
        }
        let base = self.base(m, h);
        let n = self.n;
        self.lists[base..base + n].copy_from_slice(row);
        self.ranks[base..base + n].copy_from_slice(&fresh);
        Ok(())
    }

    /// Does `m` strictly prefer `a` over `b`? `a` and `b` must share a
    /// gender that differs from `m`'s.
    #[inline]
    pub fn prefers(&self, m: Member, a: Member, b: Member) -> bool {
        debug_assert_eq!(a.gender, b.gender, "prefers compares members of one gender");
        self.rank_of(m, a.gender, a.index) < self.rank_of(m, b.gender, b.index)
    }

    /// Extract the bipartite sub-instance between `proposer` and `responder`
    /// genders as an owned [`crate::BipartiteInstance`].
    ///
    /// This is the `GS(i, j)` input of Algorithm 1: the complete bipartite
    /// graph between two of the k disjoint sets, with the members' existing
    /// per-gender preference orders.
    pub fn extract_pair(
        &self,
        proposer: GenderId,
        responder: GenderId,
    ) -> crate::BipartiteInstance {
        assert_ne!(
            proposer, responder,
            "extract_pair needs two distinct genders"
        );
        let side0: Vec<Vec<u32>> = (0..self.n as u32)
            .map(|i| {
                self.pref_list(
                    Member {
                        gender: proposer,
                        index: i,
                    },
                    responder,
                )
                .to_vec()
            })
            .collect();
        let side1: Vec<Vec<u32>> = (0..self.n as u32)
            .map(|i| {
                self.pref_list(
                    Member {
                        gender: responder,
                        index: i,
                    },
                    proposer,
                )
                .to_vec()
            })
            .collect();
        crate::BipartiteInstance::from_lists(&side0, &side1)
            .expect("validated k-partite instance yields valid pair")
    }

    /// Restrict the instance to a subset of genders, relabelling them
    /// `0..blocks.len()` in the given order. Preference orders within the
    /// kept genders are preserved verbatim.
    ///
    /// Used by the partitioned k-ary matching extension (`kmatch-core`):
    /// the paper's §VII direction of k-ary matching inside a k′-partite
    /// graph proceeds block-by-block over a partition of the genders.
    ///
    /// # Panics
    /// If `keep` has fewer than 2 genders, repeats one, or names a gender
    /// out of range.
    pub fn restrict_to_genders(&self, keep: &[GenderId]) -> KPartiteInstance {
        assert!(
            keep.len() >= 2,
            "a k-partite instance needs at least 2 genders"
        );
        let mut seen = vec![false; self.k];
        for &g in keep {
            assert!(g.idx() < self.k, "gender {g} out of range");
            assert!(!seen[g.idx()], "gender {g} repeated");
            seen[g.idx()] = true;
        }
        let lists: Vec<Vec<Vec<Vec<u32>>>> = keep
            .iter()
            .map(|&g| {
                (0..self.n as u32)
                    .map(|i| {
                        keep.iter()
                            .map(|&h| {
                                if h == g {
                                    Vec::new()
                                } else {
                                    self.pref_list(
                                        Member {
                                            gender: g,
                                            index: i,
                                        },
                                        h,
                                    )
                                    .to_vec()
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        KPartiteInstance::from_lists(&lists).expect("restriction preserves validity")
    }

    /// Nested-list representation (inverse of [`KPartiteInstance::from_lists`]),
    /// used by serde and the CLI.
    pub fn to_lists(&self) -> Vec<Vec<Vec<Vec<u32>>>> {
        (0..self.k)
            .map(|g| {
                (0..self.n as u32)
                    .map(|i| {
                        (0..self.k)
                            .map(|h| {
                                if h == g {
                                    Vec::new()
                                } else {
                                    self.pref_list(Member::new(g, i), GenderId::from(h))
                                        .to_vec()
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::paper::fig3_tripartite;

    #[test]
    fn fig3_lists_roundtrip() {
        let inst = fig3_tripartite();
        assert_eq!(inst.k(), 3);
        assert_eq!(inst.n(), 2);
        let again = KPartiteInstance::from_lists(&inst.to_lists()).unwrap();
        assert_eq!(again, inst);
    }

    #[test]
    fn fig3_prefs_match_paper_text() {
        // "both u and u' rank m higher than m', although m ranks u' higher
        //  and m' ranks u higher" (paper §IV-A).
        let inst = fig3_tripartite();
        let (m_gender, u_gender) = (GenderId(0), GenderId(2));
        let m = Member {
            gender: m_gender,
            index: 0,
        };
        let m1 = Member {
            gender: m_gender,
            index: 1,
        };
        let u = Member {
            gender: u_gender,
            index: 0,
        };
        let u1 = Member {
            gender: u_gender,
            index: 1,
        };
        assert!(inst.prefers(u, m, m1));
        assert!(inst.prefers(u1, m, m1));
        assert!(inst.prefers(m, u1, u));
        assert!(inst.prefers(m1, u, u1));
    }

    #[test]
    fn extract_pair_matches_pref_lists() {
        let inst = fig3_tripartite();
        let pair = inst.extract_pair(GenderId(0), GenderId(1));
        assert_eq!(pair.n(), 2);
        for i in 0..2u32 {
            assert_eq!(
                pair.proposer_list(i),
                inst.pref_list(Member::new(0usize, i), GenderId(1))
            );
            assert_eq!(
                pair.responder_list(i),
                inst.pref_list(Member::new(1usize, i), GenderId(0))
            );
        }
    }

    #[test]
    fn rejects_self_preference_block() {
        // 2 genders, 1 member each; self block non-empty.
        let lists = vec![vec![vec![vec![0], vec![0]]], vec![vec![vec![0], vec![]]]];
        let err = KPartiteInstance::from_lists(&lists).unwrap_err();
        assert!(matches!(err, PrefsError::SelfPreference { owner: (0, 0) }));
    }

    #[test]
    fn rejects_single_gender() {
        let lists = vec![vec![vec![vec![]]]];
        assert!(matches!(
            KPartiteInstance::from_lists(&lists).unwrap_err(),
            PrefsError::TooFewGenders { k: 1 }
        ));
    }

    #[test]
    fn restriction_preserves_orders() {
        let inst = fig3_tripartite();
        // Keep W (1) and U (2), relabelled 0 and 1.
        let sub = inst.restrict_to_genders(&[GenderId(1), GenderId(2)]);
        assert_eq!(sub.k(), 2);
        assert_eq!(sub.n(), 2);
        // w's order over U must be preserved: u > u' -> [0, 1].
        assert_eq!(sub.pref_list(Member::new(0usize, 0), GenderId(1)), &[0, 1]);
        // u''s order over W: w' > w -> [1, 0].
        assert_eq!(sub.pref_list(Member::new(1usize, 1), GenderId(0)), &[1, 0]);
    }

    #[test]
    fn restriction_respects_keep_order() {
        let inst = fig3_tripartite();
        // Reversed keep order swaps the labels.
        let sub = inst.restrict_to_genders(&[GenderId(2), GenderId(1)]);
        assert_eq!(sub.pref_list(Member::new(1usize, 0), GenderId(0)), &[0, 1]);
        // w over U
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn restriction_rejects_duplicates() {
        let inst = fig3_tripartite();
        let _ = inst.restrict_to_genders(&[GenderId(1), GenderId(1)]);
    }

    #[test]
    fn members_iterator_covers_all() {
        let inst = fig3_tripartite();
        let all: Vec<Member> = inst.members().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], Member::new(0usize, 0));
        assert_eq!(all[5], Member::new(2usize, 1));
    }
}
