//! Reusable CSR preference arenas for the zero-allocation solver hot path.
//!
//! [`CsrPrefs`] snapshots any [`BipartitePrefs`] view into five contiguous
//! arrays — proposer lists, responder lists, two *half-width* (`u16`)
//! inverse rank tables, and a row of **fused proposal entries** per
//! proposer (`responder_rank << 32 | responder`, the one word Gale–Shapley
//! needs per proposal). Compared to solving through the source view
//! directly this buys two things:
//!
//! * **Locality.** A [`crate::KPartitePairView`] resolves every rank probe
//!   against the k-partite instance's dense `k·n × k·n` table (row stride
//!   `k·n`); the snapshot packs the two genders into `n × n` tables with
//!   `u16` entries. More importantly, the entry rows turn the solver's
//!   per-proposal accesses — one random list load plus one random rank
//!   load through a generic view — into a single sequential load, so the
//!   hot loop's only remaining random access is its own `n`-word holder
//!   array.
//! * **Reuse.** [`CsrPrefs::load`] only grows its buffers; in a batch loop
//!   (many instances of similar size through one arena) the steady state
//!   performs no heap allocation at all.
//! * **Edits.** [`CsrPrefs::apply_delta`] validates a [`PrefDelta`] and
//!   rewrites only the cells of its changed window, so an incremental
//!   session can hold the arena as its only copy of the instance.
//!
//! Ranks are stored as `u16`, so `n` is capped at 65 536 members per side —
//! far above anything the workspace benchmarks — and checked at load time.

use crate::delta::{DeltaSide, PrefDelta};
use crate::error::PrefsError;
use crate::ids::Rank;
use crate::invert::invert_permutation;
use crate::oracle::{PrefOracle, PROPOSAL_STRIP};
use crate::views::{BipartitePrefs, ResponderListSlice};

/// Maximum side size a [`CsrPrefs`] arena can hold (`u16` rank range).
pub const CSR_MAX_N: usize = 1 << 16;

/// A contiguous, rank-table-backed snapshot of a bipartite preference view.
///
/// Construct once with [`CsrPrefs::new`] (or [`CsrPrefs::from_prefs`]) and
/// refill with [`CsrPrefs::load`]; the arena implements [`BipartitePrefs`]
/// and [`ResponderListSlice`], so it can be handed to the Gale–Shapley
/// engine in place of the source view.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CsrPrefs {
    n: usize,
    /// `proposer_lists[m * n + r]` = responder ranked `r` by proposer `m`.
    proposer_lists: Vec<u32>,
    /// `responder_lists[w * n + r]` = proposer ranked `r` by responder `w`.
    responder_lists: Vec<u32>,
    /// `proposer_ranks[m * n + w]` = rank of responder `w` for proposer `m`.
    proposer_ranks: Vec<u16>,
    /// `responder_ranks[w * n + m]` = rank of proposer `m` for responder `w`.
    responder_ranks: Vec<u16>,
    /// `entries[m * n + pos]` = half-width fused proposal entry
    /// `responder_rank(w, m) << 16 | w` for the responder `w` that proposer
    /// `m` ranks at `pos` — the datum behind
    /// [`BipartitePrefs::proposal_entry`], stored at `u32` like the rank
    /// tables (both halves fit in 16 bits under [`CSR_MAX_N`]) and widened
    /// to the canonical `rank << 32 | w` form on load. Proposers walk their
    /// rows left to right, so the solver's per-proposal access here is
    /// sequential, and the half-width cells double how many proposals each
    /// fetched cache line serves.
    entries: Vec<u32>,
}

impl CsrPrefs {
    /// An empty arena holding no instance yet.
    pub fn new() -> Self {
        CsrPrefs::default()
    }

    /// Snapshot `prefs` into a fresh arena.
    pub fn from_prefs<P: BipartitePrefs + ResponderListSlice>(prefs: &P) -> Self {
        let mut arena = CsrPrefs::new();
        arena.load(prefs);
        arena
    }

    /// Fill the arena from `prefs`, reusing existing capacity.
    ///
    /// # Panics
    /// If `prefs.n()` exceeds [`CSR_MAX_N`].
    pub fn load<P: BipartitePrefs + ResponderListSlice>(&mut self, prefs: &P) {
        let n = prefs.n();
        assert!(
            n <= CSR_MAX_N,
            "CsrPrefs supports up to {CSR_MAX_N} members per side, got {n}"
        );
        self.n = n;
        let square = n * n;
        self.proposer_lists.clear();
        self.responder_lists.clear();
        self.proposer_lists.reserve(square);
        self.responder_lists.reserve(square);
        for m in 0..n as u32 {
            self.proposer_lists.extend_from_slice(prefs.proposer_list(m));
        }
        for w in 0..n as u32 {
            self.responder_lists
                .extend_from_slice(prefs.responder_list_slice(w));
        }
        self.proposer_ranks.clear();
        self.responder_ranks.clear();
        self.proposer_ranks.resize(square, 0);
        self.responder_ranks.resize(square, 0);
        for row in 0..n {
            let cells = row * n..row * n + n;
            let valid = invert_permutation(
                &self.proposer_lists[cells.clone()],
                &mut self.proposer_ranks[cells.clone()],
            ) && invert_permutation(
                &self.responder_lists[cells.clone()],
                &mut self.responder_ranks[cells],
            );
            assert!(valid, "preference views hold permutations");
        }
        self.entries.clear();
        self.entries.reserve(square);
        for m in 0..n {
            let list = &self.proposer_lists[m * n..m * n + n];
            self.entries.extend(
                list.iter()
                    .map(|&w| (self.responder_ranks[w as usize * n + m] as u32) << 16 | w),
            );
        }
    }

    /// Snapshot a complete lazy [`PrefOracle`] into a fresh arena.
    pub fn from_oracle<P: PrefOracle>(oracle: &P) -> Self {
        let mut arena = CsrPrefs::new();
        arena.load_oracle(oracle);
        arena
    }

    /// Fill the arena by querying a complete [`PrefOracle`] — the explicit
    /// **materialize escape hatch** for machinery that needs real rows
    /// (the incremental delta pipeline, responder-optimal solves,
    /// differential anchors against lazy backends). O(n²) queries and
    /// memory; reuses existing capacity like [`CsrPrefs::load`].
    ///
    /// Responder lists are recovered from the rank bijection (the proposer
    /// ranked `r` by `w` lands at position `r`), so no slice access is
    /// required of the oracle.
    ///
    /// # Panics
    /// If the oracle is not [`PrefOracle::COMPLETE`] or `oracle.n()`
    /// exceeds [`CSR_MAX_N`].
    pub fn load_oracle<P: PrefOracle>(&mut self, oracle: &P) {
        assert!(
            P::COMPLETE,
            "CSR arenas hold complete lists; solve truncated oracles lazily"
        );
        let n = PrefOracle::n(oracle);
        assert!(
            n <= CSR_MAX_N,
            "CsrPrefs supports up to {CSR_MAX_N} members per side, got {n}"
        );
        self.n = n;
        let square = n * n;
        self.proposer_lists.clear();
        self.proposer_lists.reserve(square);
        for m in 0..n as u32 {
            self.proposer_lists
                .extend((0..n as u32).map(|pos| oracle.candidate(m, pos)));
        }
        self.proposer_ranks.clear();
        self.proposer_ranks.resize(square, 0);
        for row in 0..n {
            let cells = row * n..row * n + n;
            assert!(
                invert_permutation(
                    &self.proposer_lists[cells.clone()],
                    &mut self.proposer_ranks[cells]
                ),
                "complete oracles rank every responder once"
            );
        }
        self.responder_lists.clear();
        self.responder_lists.resize(square, 0);
        self.responder_ranks.clear();
        self.responder_ranks.resize(square, 0);
        for w in 0..n as u32 {
            let base = w as usize * n;
            for m in 0..n as u32 {
                let r = oracle.responder_rank(w, m) as usize;
                self.responder_lists[base + r] = m;
                self.responder_ranks[base + m as usize] = r as u16;
            }
        }
        self.entries.clear();
        self.entries.reserve(square);
        for m in 0..n {
            let list = &self.proposer_lists[m * n..m * n + n];
            self.entries.extend(
                list.iter()
                    .map(|&w| (self.responder_ranks[w as usize * n + m] as u32) << 16 | w),
            );
        }
    }

    /// Members per side (inherent twin of the trait accessor, so concrete
    /// call sites stay unambiguous with both [`BipartitePrefs`] and
    /// [`PrefOracle`] in scope).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes currently held by the arena's backing vectors — O(n²), the
    /// figure the scaling benchmarks report against the lazy oracles'
    /// O(1)/O(n) state.
    pub fn resident_bytes(&self) -> usize {
        self.proposer_lists.capacity() * size_of::<u32>()
            + self.responder_lists.capacity() * size_of::<u32>()
            + self.proposer_ranks.capacity() * size_of::<u16>()
            + self.responder_ranks.capacity() * size_of::<u16>()
            + self.entries.capacity() * size_of::<u32>()
    }

    /// Proposer `m`'s preference list, best first.
    #[inline]
    pub fn proposer_list(&self, m: u32) -> &[u32] {
        let base = m as usize * self.n;
        &self.proposer_lists[base..base + self.n]
    }

    /// Rank of proposer `m` in responder `w`'s list.
    #[inline]
    pub fn responder_rank(&self, w: u32, m: u32) -> Rank {
        self.responder_ranks[w as usize * self.n + m as usize] as Rank
    }

    /// Rank of responder `w` in proposer `m`'s list.
    #[inline]
    pub fn proposer_rank(&self, m: u32, w: u32) -> Rank {
        self.proposer_ranks[m as usize * self.n + w as usize] as Rank
    }

    /// The fused proposal entry at `m`'s list position `pos` (see
    /// [`BipartitePrefs::proposal_entry`]).
    #[inline]
    pub fn proposal_entry(&self, m: u32, pos: u32) -> u64 {
        widen_entry(self.entries[m as usize * self.n + pos as usize])
    }

    /// Responder `w`'s preference list, best first.
    #[inline]
    pub fn responder_list(&self, w: u32) -> &[u32] {
        let base = w as usize * self.n;
        &self.responder_lists[base..base + self.n]
    }

    /// Apply a single-row [`PrefDelta`] in place, in O(changed window)
    /// rather than O(n): only the list cells of the window
    /// [`PrefDelta::changed_window`] names change, so only those cells,
    /// their rank cells and their fused entries are rewritten. A proposer
    /// edit reorders the window of its own entry row, touching nothing
    /// outside the row; a responder edit patches the one fused entry of
    /// each proposer inside the window, whose packed responder rank moved.
    ///
    /// The delta is validated first ([`PrefDelta::validate`]) and rejected
    /// with the same error [`crate::BipartiteInstance::apply_delta`] gives;
    /// on error the arena is unchanged.
    pub fn apply_delta(&mut self, delta: &PrefDelta) -> Result<(), PrefsError> {
        let n = self.n;
        delta.validate(n)?;
        let row = delta.row() as usize;
        let base = row * n;
        match delta.side() {
            DeltaSide::Proposer => {
                let list = &mut self.proposer_lists[base..base + n];
                let ranks = &mut self.proposer_ranks[base..base + n];
                let entries = &mut self.entries[base..base + n];
                let Some((lo, hi)) = delta.changed_window(list) else {
                    return Ok(());
                };
                // The window's fused entries are its old ones in the new
                // order: a swap or splice moves them like the list, a
                // rewrite gathers them through the old ranks.
                match delta {
                    PrefDelta::SetRow { prefs, .. } => {
                        let old = entries[lo..=hi].to_vec();
                        for (entry, &w) in entries[lo..=hi].iter_mut().zip(&prefs[lo..=hi]) {
                            *entry = old[ranks[w as usize] as usize - lo];
                        }
                    }
                    _ => delta.apply_to_row(entries),
                }
                delta.apply_to_row(list);
                for (pos, &w) in (lo..=hi).zip(&list[lo..=hi]) {
                    ranks[w as usize] = pos as u16;
                }
            }
            DeltaSide::Responder => {
                let list = &mut self.responder_lists[base..base + n];
                let Some((lo, hi)) = delta.changed_window(list) else {
                    return Ok(());
                };
                delta.apply_to_row(list);
                for (r, &m) in (lo..=hi).zip(&list[lo..=hi]) {
                    let m = m as usize;
                    self.responder_ranks[base + m] = r as u16;
                    let pos = self.proposer_ranks[m * n + row] as usize;
                    self.entries[m * n + pos] = (r as u32) << 16 | row as u32;
                }
            }
        }
        Ok(())
    }
}

/// Widen a half-width arena entry (`rank << 16 | w`) to the canonical
/// packed proposal form (`rank << 32 | w`).
#[inline]
fn widen_entry(e: u32) -> u64 {
    ((e >> 16) as u64) << 32 | (e & 0xFFFF) as u64
}

impl BipartitePrefs for CsrPrefs {
    const HAS_RANK_TABLE: bool = true;

    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn proposer_list(&self, m: u32) -> &[u32] {
        let base = m as usize * self.n;
        &self.proposer_lists[base..base + self.n]
    }

    #[inline]
    fn responder_rank(&self, w: u32, m: u32) -> Rank {
        self.responder_ranks[w as usize * self.n + m as usize] as Rank
    }

    #[inline]
    fn proposer_rank(&self, m: u32, w: u32) -> Rank {
        self.proposer_ranks[m as usize * self.n + w as usize] as Rank
    }

    #[inline]
    fn proposal_entry(&self, m: u32, pos: u32) -> u64 {
        widen_entry(self.entries[m as usize * self.n + pos as usize])
    }

    // Issue the eight independent arena loads back to back before any
    // widening arithmetic, so the strip's cache misses overlap.
    #[inline]
    fn proposal_entry_strip(
        &self,
        ms: &[u32; PROPOSAL_STRIP],
        pos: &[u32; PROPOSAL_STRIP],
        out: &mut [u64; PROPOSAL_STRIP],
    ) {
        let n = self.n;
        let mut packed = [0u32; PROPOSAL_STRIP];
        for j in 0..PROPOSAL_STRIP {
            packed[j] = self.entries[ms[j] as usize * n + pos[j] as usize];
        }
        for j in 0..PROPOSAL_STRIP {
            out[j] = widen_entry(packed[j]);
        }
    }
}

impl ResponderListSlice for CsrPrefs {
    #[inline]
    fn responder_list_slice(&self, w: u32) -> &[u32] {
        self.responder_list(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::paper::fig3_tripartite;
    use crate::gen::uniform::uniform_bipartite;
    use crate::ids::GenderId;
    use crate::KPartitePairView;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_matches_view<P: BipartitePrefs + ResponderListSlice>(csr: &CsrPrefs, view: &P) {
        let n = view.n();
        assert_eq!(csr.n(), n);
        for m in 0..n as u32 {
            assert_eq!(csr.proposer_list(m), view.proposer_list(m));
            assert_eq!(csr.responder_list(m), view.responder_list_slice(m));
            for w in 0..n as u32 {
                assert_eq!(csr.proposer_rank(m, w), view.proposer_rank(m, w));
                assert_eq!(csr.responder_rank(w, m), view.responder_rank(w, m));
            }
            for pos in 0..n as u32 {
                // The packed arena must agree with the trait's default.
                assert_eq!(csr.proposal_entry(m, pos), view.proposal_entry(m, pos));
            }
        }
    }

    #[test]
    fn snapshot_of_bipartite_matches() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let inst = uniform_bipartite(12, &mut rng);
        let csr = CsrPrefs::from_prefs(&inst);
        assert_matches_view(&csr, &inst);
    }

    #[test]
    fn snapshot_of_pair_view_matches() {
        let inst = fig3_tripartite();
        let view = KPartitePairView::new(&inst, GenderId(0), GenderId(2));
        let csr = CsrPrefs::from_prefs(&view);
        assert_matches_view(&csr, &view);
    }

    #[test]
    fn reload_reuses_capacity_and_shrinks_logical_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let big = uniform_bipartite(32, &mut rng);
        let small = uniform_bipartite(5, &mut rng);
        let mut arena = CsrPrefs::from_prefs(&big);
        let cap_before = arena.proposer_lists.capacity();
        arena.load(&small);
        assert_matches_view(&arena, &small);
        assert_eq!(arena.proposer_lists.capacity(), cap_before);
        arena.load(&big);
        assert_matches_view(&arena, &big);
        assert_eq!(arena.proposer_lists.capacity(), cap_before);
    }

    #[test]
    fn reload_of_strided_view_after_kpartite_delta_matches_fresh() {
        // The pair view strides through the k-partite tables; after a row
        // rewrite, reloading a dirty reused arena must be indistinguishable
        // from building a fresh one — lists, rank tables, fused entries.
        use crate::gen::uniform::uniform_kpartite;
        use crate::ids::Member;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut inst = uniform_kpartite(4, 6, &mut rng);
        let mut arena = CsrPrefs::new();
        arena.load(&KPartitePairView::new(&inst, GenderId(1), GenderId(3)));
        inst.set_pref_row(
            Member {
                gender: GenderId(1),
                index: 2,
            },
            GenderId(3),
            &[5, 3, 0, 1, 4, 2],
        )
        .unwrap();
        inst.set_pref_row(
            Member {
                gender: GenderId(3),
                index: 0,
            },
            GenderId(1),
            &[2, 0, 5, 4, 3, 1],
        )
        .unwrap();
        let view = KPartitePairView::new(&inst, GenderId(1), GenderId(3));
        arena.load(&view);
        assert_matches_view(&arena, &view);
        let fresh = CsrPrefs::from_prefs(&view);
        assert_eq!(arena.proposer_lists, fresh.proposer_lists);
        assert_eq!(arena.responder_lists, fresh.responder_lists);
        assert_eq!(arena.proposer_ranks, fresh.proposer_ranks);
        assert_eq!(arena.responder_ranks, fresh.responder_ranks);
        assert_eq!(arena.entries, fresh.entries);
    }

    #[test]
    fn load_oracle_of_a_view_matches_plain_load() {
        // Materializing through the oracle queries must be byte-identical
        // to the slice-based load for any materialized view.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let inst = uniform_bipartite(17, &mut rng);
        let via_load = CsrPrefs::from_prefs(&inst);
        let via_oracle = CsrPrefs::from_oracle(&inst);
        assert_eq!(via_oracle.proposer_lists, via_load.proposer_lists);
        assert_eq!(via_oracle.responder_lists, via_load.responder_lists);
        assert_eq!(via_oracle.proposer_ranks, via_load.proposer_ranks);
        assert_eq!(via_oracle.responder_ranks, via_load.responder_ranks);
        assert_eq!(via_oracle.entries, via_load.entries);
    }

    #[test]
    fn load_oracle_snapshots_a_lazy_backend() {
        use crate::oracle::RandomOracle;
        let oracle = RandomOracle::new(13, 99);
        let csr = CsrPrefs::from_oracle(&oracle);
        for m in 0..13u32 {
            for pos in 0..13u32 {
                assert_eq!(csr.proposer_list(m)[pos as usize], oracle.candidate(m, pos));
                assert_eq!(
                    csr.proposal_entry(m, pos),
                    PrefOracle::proposal_entry(&oracle, m, pos)
                );
            }
            for w in 0..13u32 {
                assert_eq!(
                    csr.responder_rank(w, m),
                    PrefOracle::responder_rank(&oracle, w, m)
                );
                assert_eq!(csr.proposer_rank(m, w), oracle.proposer_rank(m, w));
            }
        }
    }

    // Compile-time: the arena must advertise its rank tables so the
    // debug guard in the default `proposer_rank` stays meaningful.
    const _: () = assert!(CsrPrefs::HAS_RANK_TABLE);
}
