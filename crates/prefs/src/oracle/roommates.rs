//! The roommates-side oracle contract.
//!
//! Irving's phase-1 threshold engine in `kmatch-roommates` only ever asks
//! four questions of its input — row length, candidate-at-position, rank
//! probe, and the strict-preference compare derived from it — so the engine
//! is generic over this trait and accepts lazy inputs such as
//! [`super::RandomRoommatesOracle`]. (Phase 2 runs entirely on the
//! workspace's materialized arena of phase-1 survivors, which is O(live
//! entries), so the whole solve stays row-free.)

use crate::ids::Rank;
use crate::RoommatesInstance;

use super::TruncatedRoommates;

/// A view of a roommates oracle that worker threads can share: the
/// oracle behind a `Sync` trait object, at a list cutoff (`u32::MAX`
/// for an untruncated oracle, which leaves every rank as it is).
///
/// Returned by [`RoommatesOracle::shared`]. Row walks that split across
/// threads probe through this view, so one dispatch serves every oracle
/// type; the walks call the batched methods, which amortize it over a
/// strip of probes.
pub type SharedRoommates<'a> = TruncatedRoommates<&'a (dyn RoommatesOracle + Sync)>;

/// Read-only roommates preference access, sufficient to run Irving's
/// algorithm.
///
/// Lists may be incomplete; [`RoommatesOracle::rank_of`] returns
/// [`crate::UNRANKED`] for unacceptable partners, which sorts below every
/// real rank. Acceptability must be mutual, as in [`RoommatesInstance`].
pub trait RoommatesOracle {
    /// Number of participants.
    fn n(&self) -> usize;

    /// Length of participant `p`'s preference row.
    fn row_len(&self, p: u32) -> u32;

    /// The partner `p` ranks at `pos` (0 = most preferred).
    fn candidate(&self, p: u32, pos: u32) -> u32;

    /// Rank of `q` in `p`'s list, or [`crate::UNRANKED`] if unacceptable.
    fn rank_of(&self, p: u32, q: u32) -> Rank;

    /// Does `p` strictly prefer `a` to `b`? Unacceptable partners rank
    /// below every acceptable one.
    #[inline]
    fn prefers(&self, p: u32, a: u32, b: u32) -> bool {
        self.rank_of(p, a) < self.rank_of(p, b)
    }

    /// Fill `out[i] = candidate(p, lo + i)` for a contiguous run of
    /// in-bounds positions of `p`'s row.
    ///
    /// Row walks (phase-1 scans, arena materialization, partition
    /// verification) probe long contiguous runs, so lazy oracles override
    /// this to amortize per-row state — [`super::RandomRoommatesOracle`]
    /// rebuilds its Feistel permutation and self-splice point once per
    /// call instead of once per position, and walks the positions
    /// together with [`super::FeistelPerm::apply_lanes`]. The default is
    /// the scalar loop; overrides must return exactly its values.
    #[inline]
    fn candidates_into(&self, p: u32, lo: u32, out: &mut [u32]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.candidate(p, lo + i as u32);
        }
    }

    /// Fill `out[i] = rank_of(qs[i], p)` — the partner-side rank probes of
    /// a liveness strip.
    ///
    /// The probes touch one permutation per distinct `qs[i]`, so there is
    /// no shared state to amortize, but the Feistel oracles walk the
    /// independent probes together with
    /// [`super::FeistelPerm::invert_lanes`] instead of one after another.
    /// The default is the scalar loop; overrides must return exactly its
    /// values.
    #[inline]
    fn ranks_toward_into(&self, qs: &[u32], p: u32, out: &mut [u32]) {
        debug_assert_eq!(qs.len(), out.len());
        for (i, &q) in qs.iter().enumerate() {
            out[i] = self.rank_of(q, p);
        }
    }

    /// Does `q` rank `p` strictly below `limit`? Exactly
    /// `rank_of(q, p) < limit`, but answerable without resolving the full
    /// rank.
    ///
    /// Every liveness test the Irving engine makes is of this form
    /// (`limit` = a phase-1 threshold bound or a partition predecessor
    /// rank), and a threshold compare can be cheaper than an exact rank:
    /// [`super::RandomRoommatesOracle`] skips its self-splice inversion
    /// except in the one-in-`n` case where the raw permutation index lands
    /// exactly on `limit`. The default delegates to
    /// [`RoommatesOracle::rank_of`]; overrides must decide identically.
    #[inline]
    fn rank_lt(&self, q: u32, p: u32, limit: u32) -> bool {
        self.rank_of(q, p) < limit
    }

    /// Fill `out[i] = rank_lt(qs[i], p, limits[i])` — the batched form of
    /// [`RoommatesOracle::rank_lt`], with the same lane-walk rationale as
    /// [`RoommatesOracle::ranks_toward_into`].
    #[inline]
    fn ranks_lt_into(&self, qs: &[u32], p: u32, limits: &[u32], out: &mut [bool]) {
        debug_assert_eq!(qs.len(), limits.len());
        debug_assert_eq!(qs.len(), out.len());
        for (i, &q) in qs.iter().enumerate() {
            out[i] = self.rank_lt(q, p, limits[i]);
        }
    }

    /// This oracle as a view worker threads can share, or `None` when it
    /// cannot cross threads. The view must answer every query exactly as
    /// `self` does.
    ///
    /// Engines split a large row walk across threads only through this
    /// view, and walk on the calling thread when it is `None`. The
    /// default is `None`, so an oracle that is not `Sync` — say, a
    /// wrapper that counts probes in a `Cell` — stays correct and runs
    /// serially. The stock oracles override it; a wrapper that changes
    /// no answer should forward its inner oracle's view, as
    /// [`TruncatedRoommates`] does (with the smaller of the two cuts).
    #[inline]
    fn shared(&self) -> Option<SharedRoommates<'_>> {
        None
    }
}

/// Shared references delegate, so wrappers like
/// [`super::TruncatedRoommates`] can borrow an oracle instead of owning
/// it (the escalating driver re-wraps the same instance at growing cuts).
impl<O: RoommatesOracle + ?Sized> RoommatesOracle for &O {
    #[inline]
    fn n(&self) -> usize {
        (**self).n()
    }
    #[inline]
    fn row_len(&self, p: u32) -> u32 {
        (**self).row_len(p)
    }
    #[inline]
    fn candidate(&self, p: u32, pos: u32) -> u32 {
        (**self).candidate(p, pos)
    }
    #[inline]
    fn rank_of(&self, p: u32, q: u32) -> Rank {
        (**self).rank_of(p, q)
    }
    #[inline]
    fn prefers(&self, p: u32, a: u32, b: u32) -> bool {
        (**self).prefers(p, a, b)
    }
    #[inline]
    fn candidates_into(&self, p: u32, lo: u32, out: &mut [u32]) {
        (**self).candidates_into(p, lo, out)
    }
    #[inline]
    fn ranks_toward_into(&self, qs: &[u32], p: u32, out: &mut [u32]) {
        (**self).ranks_toward_into(qs, p, out)
    }
    #[inline]
    fn rank_lt(&self, q: u32, p: u32, limit: u32) -> bool {
        (**self).rank_lt(q, p, limit)
    }
    #[inline]
    fn ranks_lt_into(&self, qs: &[u32], p: u32, limits: &[u32], out: &mut [bool]) {
        (**self).ranks_lt_into(qs, p, limits, out)
    }
    #[inline]
    fn shared(&self) -> Option<SharedRoommates<'_>> {
        (**self).shared()
    }
}

impl RoommatesOracle for RoommatesInstance {
    #[inline]
    fn n(&self) -> usize {
        RoommatesInstance::n(self)
    }

    #[inline]
    fn row_len(&self, p: u32) -> u32 {
        self.list(p).len() as u32
    }

    #[inline]
    fn candidate(&self, p: u32, pos: u32) -> u32 {
        self.list(p)[pos as usize]
    }

    #[inline]
    fn rank_of(&self, p: u32, q: u32) -> Rank {
        RoommatesInstance::rank_of(self, p, q)
    }

    #[inline]
    fn candidates_into(&self, p: u32, lo: u32, out: &mut [u32]) {
        let lo = lo as usize;
        out.copy_from_slice(&self.list(p)[lo..lo + out.len()]);
    }

    #[inline]
    fn shared(&self) -> Option<SharedRoommates<'_>> {
        Some(TruncatedRoommates::new(self, u32::MAX))
    }
}

/// Materialize a roommates oracle into an owned [`RoommatesInstance`] —
/// O(Σ row_len) time, O(n²) memory for complete lists. The escape hatch
/// for cold paths that need real rows (serialization, the reference
/// solver, differential tests).
pub fn materialize_roommates<O: RoommatesOracle>(oracle: &O) -> RoommatesInstance {
    let lists: Vec<Vec<u32>> = (0..oracle.n() as u32)
        .map(|p| {
            (0..oracle.row_len(p))
                .map(|pos| oracle.candidate(p, pos))
                .collect()
        })
        .collect();
    RoommatesInstance::from_lists(lists).expect("an oracle must describe a valid instance")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform::uniform_roommates;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn instance_impl_answers_like_its_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let inst = uniform_roommates(10, &mut rng);
        for p in 0..10u32 {
            let row = inst.list(p).to_vec();
            assert_eq!(RoommatesOracle::row_len(&inst, p) as usize, row.len());
            for (pos, &q) in row.iter().enumerate() {
                assert_eq!(RoommatesOracle::candidate(&inst, p, pos as u32), q);
                assert_eq!(RoommatesOracle::rank_of(&inst, p, q), inst.rank_of(p, q));
            }
        }
    }

    #[test]
    fn materialize_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let inst = uniform_roommates(9, &mut rng);
        assert_eq!(materialize_roommates(&inst).to_lists(), inst.to_lists());
    }
}
