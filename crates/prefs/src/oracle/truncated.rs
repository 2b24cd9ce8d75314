//! Truncated preference lists as a lazy wrapper.
//!
//! [`Truncated`] keeps only each proposer's top `keep` candidates and each
//! responder's top `keep` suitors; every pair beyond either cutoff becomes
//! a **forbidden pair** in the sense of the paper's §III-B reduction
//! (mutually unacceptable — as if deleted from both lists). The wrapper
//! adds no storage: rows and ranks delegate to the inner oracle, and the
//! engine's `COMPLETE = false` monomorphization enforces the cutoffs at
//! proposal time (exhausted proposers stay unmatched, responders reject
//! ranks at or beyond [`super::PrefOracle::responder_cutoff`]).
//!
//! The resulting matchings are *stable-marriage-with-incomplete-lists*
//! matchings: some agents may end unmatched, and stability quantifies only
//! over mutually acceptable pairs (see `kmatch-gs`'s `smi` module).

use crate::ids::{Rank, UNRANKED};

use super::{PrefOracle, RoommatesOracle, SharedRoommates};

/// Keep only the top `keep` entries of every list of `inner`.
#[derive(Debug, Clone, Copy)]
pub struct Truncated<P> {
    inner: P,
    keep: u32,
}

impl<P: PrefOracle> Truncated<P> {
    /// Truncate every list of `inner` to its best `keep` entries.
    ///
    /// # Panics
    /// If `keep` is zero (everyone would be isolated).
    pub fn new(inner: P, keep: u32) -> Self {
        assert!(keep > 0, "a zero cutoff forbids every pair");
        Truncated { inner, keep }
    }

    /// The wrapped oracle.
    #[inline]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The list-length cutoff.
    #[inline]
    pub fn keep(&self) -> u32 {
        self.keep
    }
}

impl<P: PrefOracle> PrefOracle for Truncated<P> {
    const COMPLETE: bool = false;

    #[inline]
    fn n(&self) -> usize {
        self.inner.n()
    }

    #[inline]
    fn row_len(&self, m: u32) -> u32 {
        self.inner.row_len(m).min(self.keep)
    }

    #[inline]
    fn candidate(&self, m: u32, pos: u32) -> u32 {
        debug_assert!(pos < self.row_len(m));
        self.inner.candidate(m, pos)
    }

    #[inline]
    fn responder_rank(&self, w: u32, m: u32) -> Rank {
        self.inner.responder_rank(w, m)
    }

    #[inline]
    fn proposal_entry(&self, m: u32, pos: u32) -> u64 {
        debug_assert!(pos < self.row_len(m));
        self.inner.proposal_entry(m, pos)
    }

    #[inline]
    fn responder_cutoff(&self, w: u32) -> Rank {
        self.inner.responder_cutoff(w).min(self.keep)
    }
}

/// Mutual top-`keep` truncation of a roommates oracle.
///
/// Keeps each participant's best `keep` partners and declares every pair
/// beyond either cutoff **mutually unacceptable** — the §III-B forbidden
/// pair reduction applied symmetrically. Like [`Truncated`], the wrapper
/// adds no storage: rows delegate to the inner oracle (capped at `keep`)
/// and [`TruncatedRoommates::rank_of`] maps any rank at or beyond the cut
/// to [`UNRANKED`]. Because every probe the Irving engine makes is either
/// a row walk (capped by `row_len`) or a `rank_of` liveness test (dead at
/// [`UNRANKED`]), the truncated solve runs on exactly the sub-instance
/// `I_K` = { (p, q) : rank_p(q) < K ∧ rank_q(p) < K }.
///
/// The escalating driver in `kmatch-roommates` solves `I_K` at growing
/// cuts and certifies when the truncated outcome is provably the
/// complete-list outcome; see its docs for the certificate semantics.
#[derive(Debug, Clone, Copy)]
pub struct TruncatedRoommates<O> {
    inner: O,
    keep: u32,
}

impl<O: RoommatesOracle> TruncatedRoommates<O> {
    /// Truncate every list of `inner` to its best `keep` entries, with
    /// pairs beyond either side's cut forbidden.
    ///
    /// # Panics
    /// If `keep` is zero (everyone would be isolated).
    pub fn new(inner: O, keep: u32) -> Self {
        assert!(keep > 0, "a zero cutoff forbids every pair");
        TruncatedRoommates { inner, keep }
    }

    /// The wrapped oracle.
    #[inline]
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The list-length cutoff.
    #[inline]
    pub fn keep(&self) -> u32 {
        self.keep
    }
}

impl<O: RoommatesOracle> RoommatesOracle for TruncatedRoommates<O> {
    #[inline]
    fn n(&self) -> usize {
        self.inner.n()
    }

    #[inline]
    fn row_len(&self, p: u32) -> u32 {
        self.inner.row_len(p).min(self.keep)
    }

    #[inline]
    fn candidate(&self, p: u32, pos: u32) -> u32 {
        debug_assert!(pos < self.row_len(p));
        self.inner.candidate(p, pos)
    }

    /// One-sided cut on the probed side: row walks only ever reach
    /// candidates the *walker* ranks inside its cut, so mapping `p`'s
    /// own out-of-cut ranks to [`UNRANKED`] makes the pair semantics
    /// mutual without a second inner probe.
    #[inline]
    fn rank_of(&self, p: u32, q: u32) -> Rank {
        let r = self.inner.rank_of(p, q);
        if r < self.keep {
            r
        } else {
            UNRANKED
        }
    }

    #[inline]
    fn candidates_into(&self, p: u32, lo: u32, out: &mut [u32]) {
        debug_assert!(lo + out.len() as u32 <= self.row_len(p));
        self.inner.candidates_into(p, lo, out)
    }

    #[inline]
    fn ranks_toward_into(&self, qs: &[u32], p: u32, out: &mut [u32]) {
        self.inner.ranks_toward_into(qs, p, out);
        for r in out.iter_mut() {
            if *r >= self.keep {
                *r = UNRANKED;
            }
        }
    }

    // `truncated_rank < limit  ⟺  inner_rank < min(limit, keep)`: below
    // the cut the ranks agree, and at or beyond it the truncated rank is
    // UNRANKED, which no limit exceeds.
    #[inline]
    fn rank_lt(&self, q: u32, p: u32, limit: u32) -> bool {
        self.inner.rank_lt(q, p, limit.min(self.keep))
    }

    #[inline]
    fn ranks_lt_into(&self, qs: &[u32], p: u32, limits: &[u32], out: &mut [bool]) {
        const CHUNK: usize = 64;
        let mut clamped = [0u32; CHUNK];
        let mut i = 0;
        while i < qs.len() {
            let w = (qs.len() - i).min(CHUNK);
            for j in 0..w {
                clamped[j] = limits[i + j].min(self.keep);
            }
            self.inner
                .ranks_lt_into(&qs[i..i + w], p, &clamped[..w], &mut out[i..i + w]);
            i += w;
        }
    }

    /// The inner oracle's view at the tighter of the two cuts: nesting
    /// cuts keeps the smaller one.
    #[inline]
    fn shared(&self) -> Option<SharedRoommates<'_>> {
        let view = self.inner.shared()?;
        Some(TruncatedRoommates::new(
            view.inner,
            view.keep.min(self.keep),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{RandomOracle, RandomRoommatesOracle};
    use super::*;

    #[test]
    fn truncation_caps_rows_and_cutoffs() {
        let t = Truncated::new(RandomOracle::new(40, 3), 5);
        const { assert!(!Truncated::<RandomOracle>::COMPLETE) };
        assert_eq!(t.n(), 40);
        for m in 0..40u32 {
            assert_eq!(t.row_len(m), 5);
            assert_eq!(t.responder_cutoff(m), 5);
            for pos in 0..5u32 {
                assert_eq!(t.candidate(m, pos), t.inner().candidate(m, pos));
                assert_eq!(t.proposal_entry(m, pos), t.inner().proposal_entry(m, pos));
            }
        }
    }

    #[test]
    fn nesting_takes_the_tighter_cutoff() {
        let t = Truncated::new(Truncated::new(RandomOracle::new(20, 3), 7), 4);
        assert_eq!(t.row_len(0), 4);
        assert_eq!(t.responder_cutoff(0), 4);
        let t2 = Truncated::new(Truncated::new(RandomOracle::new(20, 3), 4), 7);
        assert_eq!(t2.row_len(0), 4);
        assert_eq!(t2.responder_cutoff(0), 4);
    }

    #[test]
    fn keep_beyond_n_is_effectively_complete_rows() {
        let t = Truncated::new(RandomOracle::new(6, 1), 100);
        assert_eq!(t.row_len(0), 6);
        assert_eq!(t.responder_cutoff(0), 100);
    }

    #[test]
    fn roommates_truncation_caps_rows_and_clamps_ranks() {
        let n = 33usize;
        let keep = 5u32;
        let t = TruncatedRoommates::new(RandomRoommatesOracle::new(n, 9), keep);
        assert_eq!(t.n(), n);
        for p in 0..n as u32 {
            assert_eq!(t.row_len(p), keep);
            for pos in 0..keep {
                let q = t.candidate(p, pos);
                assert_eq!(q, t.inner().candidate(p, pos));
                assert_eq!(t.rank_of(p, q), pos);
            }
            // Every partner beyond the cut is unranked, and mutually so:
            // q's view of p is clamped by the same rule.
            for pos in keep..t.inner().row_len(p) {
                let q = t.inner().candidate(p, pos);
                assert_eq!(t.rank_of(p, q), UNRANKED);
            }
        }
    }

    #[test]
    fn roommates_truncation_keeps_prefers_consistent() {
        let t = TruncatedRoommates::new(RandomRoommatesOracle::new(17, 3), 4);
        for p in 0..17u32 {
            let a = t.candidate(p, 0);
            let b = t.candidate(p, 3);
            assert!(t.prefers(p, a, b));
            assert!(!t.prefers(p, b, a));
        }
    }

    #[test]
    fn roommates_nesting_takes_the_tighter_cutoff() {
        let inner = RandomRoommatesOracle::new(21, 5);
        let t = TruncatedRoommates::new(TruncatedRoommates::new(inner, 9), 4);
        let t2 = TruncatedRoommates::new(TruncatedRoommates::new(inner, 4), 9);
        for p in 0..21u32 {
            assert_eq!(t.row_len(p), 4);
            assert_eq!(t2.row_len(p), 4);
            for q in (0..21u32).filter(|&q| q != p) {
                assert_eq!(t.rank_of(p, q), t2.rank_of(p, q));
            }
        }
    }

    /// Every answer of `view` equals `oracle`'s.
    fn assert_same_answers<O: RoommatesOracle>(oracle: &O, what: &str) {
        let view = oracle.shared().expect("stock oracles share");
        let n = oracle.n() as u32;
        assert_eq!(view.n(), oracle.n(), "{what}");
        for p in 0..n {
            assert_eq!(view.row_len(p), oracle.row_len(p), "{what}");
            for pos in 0..oracle.row_len(p) {
                assert_eq!(view.candidate(p, pos), oracle.candidate(p, pos), "{what}");
            }
            for q in (0..n).filter(|&q| q != p) {
                assert_eq!(view.rank_of(p, q), oracle.rank_of(p, q), "{what}");
            }
        }
    }

    #[test]
    fn shared_views_answer_like_their_oracles() {
        use crate::gen::uniform::uniform_roommates;
        use crate::CachedRoommatesOracle;
        use rand::SeedableRng;
        let random = RandomRoommatesOracle::new(17, 4);
        let cached = CachedRoommatesOracle::new(17, 4);
        let inst = uniform_roommates(13, &mut rand_chacha::ChaCha8Rng::seed_from_u64(4));
        assert_same_answers(&random, "random");
        assert_same_answers(&cached, "cached");
        assert_same_answers(&inst, "instance");
        assert_same_answers(&&cached, "reference");
        let nested = TruncatedRoommates::new(TruncatedRoommates::new(&cached, 9), 5);
        assert_same_answers(&nested, "nested cuts");
        assert_eq!(nested.shared().expect("shares").keep(), 5);
        let loose = TruncatedRoommates::new(TruncatedRoommates::new(&cached, 5), 9);
        assert_eq!(loose.shared().expect("shares").keep(), 5);
    }

    #[test]
    fn roommates_keep_at_full_width_is_identity() {
        let inner = RandomRoommatesOracle::new(12, 2);
        let t = TruncatedRoommates::new(inner, 11);
        for p in 0..12u32 {
            assert_eq!(t.row_len(p), inner.row_len(p));
            for q in (0..12u32).filter(|&q| q != p) {
                assert_eq!(t.rank_of(p, q), inner.rank_of(p, q));
            }
        }
    }
}
