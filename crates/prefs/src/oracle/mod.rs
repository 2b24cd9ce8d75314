//! Lazy preference oracles — the query substrate behind every GS solve.
//!
//! [`PrefOracle`] captures *exactly* the queries the Gale–Shapley fast path
//! performs, and nothing more:
//!
//! * a **next-candidate cursor** for proposers ([`PrefOracle::candidate`] /
//!   [`PrefOracle::proposal_entry`] walked left to right),
//! * a **rank probe** for responders ([`PrefOracle::responder_rank`], the
//!   acceptance test), and
//! * a **row length** ([`PrefOracle::row_len`], for incomplete lists).
//!
//! Because none of these return borrowed slices, an implementation may
//! *compute* preferences on demand instead of materializing O(n²) tables.
//! Three such implicit backends live here:
//!
//! | backend | memory | model |
//! |---|---|---|
//! | [`RandomOracle`] | O(1) per agent | seeded Feistel index↔rank bijection |
//! | [`ScoreOracle`] | O(n) total | rank = public score order, seeded ties |
//! | [`Truncated`] | wrapper | §III-B forbidden pairs beyond a cutoff |
//!
//! Every [`BipartitePrefs`] view (including `CsrPrefs`) is a `PrefOracle`
//! through the blanket impl below, so engines generic over `PrefOracle`
//! accept all existing materialized inputs unchanged — monomorphization
//! keeps the CSR hot loop's instruction stream identical.

use crate::ids::Rank;
use crate::views::BipartitePrefs;
use crate::BipartiteInstance;

mod random;
mod roommates;
mod scores;
mod truncated;

pub use random::{
    CachedRoommatesOracle, FeistelPerm, RandomOracle, RandomRoommatesOracle, ORACLE_MAX_N,
    WALK_LANES,
};
pub use roommates::{materialize_roommates, RoommatesOracle, SharedRoommates};
pub use scores::ScoreOracle;
pub use truncated::{Truncated, TruncatedRoommates};

/// Read-only preference access sufficient to run deferred acceptance,
/// without requiring materialized rows.
///
/// Proposers are indexed `0..n` and propose in the order given by
/// [`PrefOracle::candidate`]; responders accept or reject based on
/// [`PrefOracle::responder_rank`]. Implementations must present, per
/// proposer, a strict total order over some subset of responders (all of
/// them when [`PrefOracle::COMPLETE`]), and per responder a strict total
/// order over all proposers.
pub trait PrefOracle {
    /// Whether every proposer ranks every responder and no responder has a
    /// cutoff. When `false` the engines run their incomplete-list
    /// monomorphization (exhausted proposers stay unmatched, ranks at or
    /// beyond [`PrefOracle::responder_cutoff`] are rejected outright).
    const COMPLETE: bool = true;

    /// Members per side.
    fn n(&self) -> usize;

    /// Length of proposer `m`'s preference row (`n` for complete lists).
    fn row_len(&self, m: u32) -> u32;

    /// The responder proposer `m` ranks at `pos` (0 = most preferred).
    fn candidate(&self, m: u32, pos: u32) -> u32;

    /// Rank of proposer `m` in responder `w`'s list (0 = best).
    fn responder_rank(&self, w: u32, m: u32) -> Rank;

    /// Packed proposal entry for proposer `m`'s list position `pos`:
    /// `responder_rank(w, m) << 32 | w`, where `w` is the responder at that
    /// position — the one word Gale–Shapley needs per proposal. Overrides
    /// must return exactly this value.
    #[inline]
    fn proposal_entry(&self, m: u32, pos: u32) -> u64 {
        let w = self.candidate(m, pos);
        (self.responder_rank(w, m) as u64) << 32 | w as u64
    }

    /// First rank responder `w` rejects outright: proposals packed with
    /// `responder_rank >= responder_cutoff(w)` are forbidden pairs. Complete
    /// backends never cut off; only the `COMPLETE = false` engine
    /// monomorphization consults this.
    #[inline]
    fn responder_cutoff(&self, _w: u32) -> Rank {
        Rank::MAX
    }

    /// Batched fused loads for the strip kernels:
    /// `out[j] = proposal_entry(ms[j], pos[j])` for each of the
    /// [`PROPOSAL_STRIP`] lanes.
    ///
    /// The lanes are independent by construction (the engine never puts the
    /// same proposer in two lanes of one strip), so implementations are free
    /// to reorder or interleave the per-lane work — [`RandomOracle`] walks
    /// its lanes together with [`FeistelPerm::apply_lanes`] /
    /// [`FeistelPerm::invert_lanes`], arena backends issue the loads back
    /// to back so they pipeline. Overrides must be element-wise identical
    /// to [`PrefOracle::proposal_entry`].
    #[inline]
    fn proposal_entry_strip(
        &self,
        ms: &[u32; PROPOSAL_STRIP],
        pos: &[u32; PROPOSAL_STRIP],
        out: &mut [u64; PROPOSAL_STRIP],
    ) {
        for j in 0..PROPOSAL_STRIP {
            out[j] = self.proposal_entry(ms[j], pos[j]);
        }
    }
}

/// Lane count of [`PrefOracle::proposal_entry_strip`] — the fixed strip
/// width the branchless engines gather proposal entries in. Eight 64-bit
/// entries fill one cache line, wide enough to hide load latency behind
/// the resolve phase without spilling the lane state out of registers on
/// any mainstream core.
pub const PROPOSAL_STRIP: usize = 8;

// Every materialized bipartite view answers the oracle queries directly, so
// existing call sites (BipartiteInstance, CsrPrefs, KPartitePairView,
// ReverseView) satisfy `PrefOracle` bounds unchanged. Lazy oracles cannot
// implement `BipartitePrefs` (they have no slices to lend), so the two
// families never overlap.
impl<P: BipartitePrefs> PrefOracle for P {
    #[inline]
    fn n(&self) -> usize {
        BipartitePrefs::n(self)
    }

    #[inline]
    fn row_len(&self, _m: u32) -> u32 {
        BipartitePrefs::n(self) as u32
    }

    #[inline]
    fn candidate(&self, m: u32, pos: u32) -> u32 {
        self.proposer_list(m)[pos as usize]
    }

    #[inline]
    fn responder_rank(&self, w: u32, m: u32) -> Rank {
        BipartitePrefs::responder_rank(self, w, m)
    }

    // Forward to the view's override so arena-backed implementors (CsrPrefs)
    // keep serving the fused entry with a single sequential load.
    #[inline]
    fn proposal_entry(&self, m: u32, pos: u32) -> u64 {
        BipartitePrefs::proposal_entry(self, m, pos)
    }

    #[inline]
    fn proposal_entry_strip(
        &self,
        ms: &[u32; PROPOSAL_STRIP],
        pos: &[u32; PROPOSAL_STRIP],
        out: &mut [u64; PROPOSAL_STRIP],
    ) {
        BipartitePrefs::proposal_entry_strip(self, ms, pos, out)
    }
}

/// Materialize a complete oracle into an owned [`BipartiteInstance`] in
/// O(n²) time and memory.
///
/// This is the explicit escape hatch for machinery that genuinely needs
/// materialized rows — the incremental delta pipeline, responder-optimal
/// solves, differential tests against the reference engine.
///
/// # Panics
/// If the oracle is not [`PrefOracle::COMPLETE`] or is empty.
pub fn materialize_oracle<P: PrefOracle>(oracle: &P) -> BipartiteInstance {
    assert!(
        P::COMPLETE,
        "only complete oracles materialize to a BipartiteInstance; \
         solve truncated oracles directly via solve_incomplete"
    );
    let n = oracle.n();
    let side0: Vec<Vec<u32>> = (0..n as u32)
        .map(|m| (0..n as u32).map(|pos| oracle.candidate(m, pos)).collect())
        .collect();
    // Responder lists are recovered from the rank bijection: the proposer
    // ranked `r` by `w` sits at position `r`.
    let mut side1 = vec![vec![0u32; n]; n];
    for w in 0..n as u32 {
        let row = &mut side1[w as usize];
        for m in 0..n as u32 {
            row[oracle.responder_rank(w, m) as usize] = m;
        }
    }
    BipartiteInstance::from_lists(&side0, &side1)
        .expect("a complete oracle must describe valid permutations")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform::uniform_bipartite;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn blanket_impl_answers_like_the_view() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let inst = uniform_bipartite(9, &mut rng);
        assert_eq!(PrefOracle::n(&inst), 9);
        for m in 0..9u32 {
            assert_eq!(inst.row_len(m), 9);
            for pos in 0..9u32 {
                let w = PrefOracle::candidate(&inst, m, pos);
                assert_eq!(w, inst.proposer_list(m)[pos as usize]);
                assert_eq!(
                    PrefOracle::proposal_entry(&inst, m, pos),
                    BipartitePrefs::proposal_entry(&inst, m, pos)
                );
            }
        }
    }

    #[test]
    fn strip_default_matches_per_lane_for_materialized_views() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let inst = uniform_bipartite(17, &mut rng);
        let ms: [u32; PROPOSAL_STRIP] = [0, 3, 16, 8, 8, 1, 12, 5];
        let pos: [u32; PROPOSAL_STRIP] = [16, 0, 4, 9, 2, 11, 7, 15];
        let mut out = [0u64; PROPOSAL_STRIP];
        PrefOracle::proposal_entry_strip(&inst, &ms, &pos, &mut out);
        for j in 0..PROPOSAL_STRIP {
            assert_eq!(out[j], PrefOracle::proposal_entry(&inst, ms[j], pos[j]));
        }
    }

    #[test]
    fn materialize_round_trips_a_materialized_view() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let inst = uniform_bipartite(11, &mut rng);
        let rebuilt = materialize_oracle(&inst);
        assert_eq!(rebuilt, inst);
    }
}
