//! Content fingerprints over preference rows.
//!
//! Incremental solving needs to answer "has this data changed?" in O(1)
//! after an edit, without hashing whole instances on every query. Every
//! fingerprint here is computed twice under independent seeds, giving a
//! 128-bit [`Fp`] key; cache hits compare full keys, so a false hit needs
//! a simultaneous 128-bit collision. Two schemes share the seeds:
//!
//! * **Position-keyed sums** for bipartite instances. Each list cell —
//!   side, row, position and entry — hashes on its own ([`cell_hash`]),
//!   and the instance fingerprint is the wrapping sum of all `2n²` cell
//!   hashes. A [`PrefDelta`] changes only the cells of its changed window
//!   ([`PrefDelta::changed_window`]), so [`patch_delta`] subtracts the old
//!   window cells and adds the new ones: O(window), with no per-row
//!   state. [`crate::IncrementalGs`] maintains the sum that way, and
//!   [`bipartite_fingerprint`] computes the same value from scratch.
//! * **XOR-combined row hashes** for binding-tree edges, whose session
//!   receives whole rows. Each row hashes as one
//!   chain seeded with a *position tag* (so equal rows at different
//!   positions hash differently, [`hash_row`]), and row hashes are
//!   XOR-combined into the instance or edge key. A row rewrite patches
//!   the key by XOR-ing the old row hash out and the new one in
//!   ([`patch`]), O(1) after the O(row) rehash the rewrite costs anyway.
//!
//! The chain mixer is the FxHash rotate–xor–multiply round and the cell
//! hash a folded 128-bit multiply: fast, deterministic across runs (no
//! per-process randomness — fingerprints are *content* addresses), and
//! good enough bit diffusion for table keys.

use kmatch_prefs::{BipartitePrefs, DeltaSide, PrefDelta, ResponderListSlice};

/// A 128-bit content fingerprint (two independently seeded 64-bit hashes).
pub type Fp = (u64, u64);

/// First hash seed.
pub const SEED0: u64 = 0x9e37_79b9_7f4a_7c15;
/// Second hash seed (independent stream).
pub const SEED1: u64 = 0x6c62_272e_07bb_0142;

const M: u64 = 0x517c_c1b7_2722_0a95;

/// One FxHash-style mixing round.
#[inline]
pub fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(M)
}

/// Hash one preference row under `seed`, tagged with its position so the
/// same ordering in a different row contributes a different value to the
/// XOR combination.
#[inline]
pub fn hash_row(seed: u64, tag: u64, row: &[u32]) -> u64 {
    let mut h = mix(seed, tag);
    h = mix(h, row.len() as u64);
    for &x in row {
        h = mix(h, x as u64);
    }
    h
}

/// Both lanes of [`hash_row`] at once.
#[inline]
pub fn hash_row_fp(tag: u64, row: &[u32]) -> Fp {
    (hash_row(SEED0, tag, row), hash_row(SEED1, tag, row))
}

/// XOR-patch `combined`: remove `old` and add `new`.
#[inline]
pub fn patch(combined: Fp, old: Fp, new: Fp) -> Fp {
    (combined.0 ^ old.0 ^ new.0, combined.1 ^ old.1 ^ new.1)
}

/// Position tag of a bipartite preference row (side + row index).
#[inline]
pub fn side_tag(side: DeltaSide, row: u32) -> u64 {
    match side {
        DeltaSide::Proposer => row as u64,
        DeltaSide::Responder => (1u64 << 32) | row as u64,
    }
}

/// Odd multiplier of the cell hash.
const CELL: u64 = 0x9fb2_1c65_1e98_df25;

/// Hash of the list cell holding `x` at position `pos` of the row whose
/// lane key is `lane` (`mix(seed, side_tag)`): the `pos << 32 | x` word
/// XOR the lane key, multiplied out to 128 bits by an odd constant and
/// folded back to 64 (the folded multiply of foldhash/wyhash) — one
/// multiply per cell and lane, so whole-row rewrites and the session's
/// initial sum stay cheap.
#[inline]
pub fn cell_hash(lane: u64, pos: usize, x: u32) -> u64 {
    let p = ((lane ^ ((pos as u64) << 32 | x as u64)) as u128) * CELL as u128;
    p as u64 ^ (p >> 64) as u64
}

/// Both lane keys of bipartite row `(side, row)`.
#[inline]
fn lanes(side: DeltaSide, row: u32) -> Fp {
    let tag = side_tag(side, row);
    (mix(SEED0, tag), mix(SEED1, tag))
}

/// Position-keyed sum of the cells `start, start + 1, …` holding `cells`,
/// both lanes of the row whose lane keys are `lanes`.
#[inline]
fn cells_fp(lanes: Fp, start: usize, cells: &[u32]) -> Fp {
    let (mut a0, mut a1) = (0u64, 0u64);
    for (i, &x) in cells.iter().enumerate() {
        a0 = a0.wrapping_add(cell_hash(lanes.0, start + i, x));
        a1 = a1.wrapping_add(cell_hash(lanes.1, start + i, x));
    }
    (a0, a1)
}

/// Lane-wise wrapping sum of two position-keyed sums.
#[inline]
fn plus(a: Fp, b: Fp) -> Fp {
    (a.0.wrapping_add(b.0), a.1.wrapping_add(b.1))
}

/// `fp` after `delta` rewrites `old`, the current list of the row it
/// names: the old cells of the changed window out, its new cells in —
/// O(window), and O(1) for a swap, whose window changes only at its two
/// ends. The delta must be valid for `old` ([`PrefDelta::validate`]).
pub fn patch_delta(fp: Fp, old: &[u32], delta: &PrefDelta) -> Fp {
    let Some((lo, hi)) = delta.changed_window(old) else {
        return fp;
    };
    let keys = lanes(delta.side(), delta.row());
    let (out, into) = match *delta {
        PrefDelta::SetRow { ref prefs, .. } => (
            cells_fp(keys, lo, &old[lo..=hi]),
            cells_fp(keys, lo, &prefs[lo..=hi]),
        ),
        PrefDelta::Swap { .. } => (
            plus(cells_fp(keys, lo, &[old[lo]]), cells_fp(keys, hi, &[old[hi]])),
            plus(cells_fp(keys, lo, &[old[hi]]), cells_fp(keys, hi, &[old[lo]])),
        ),
        // One entry moves to the far end of the window; the rest shift
        // by one position towards where it was.
        PrefDelta::Splice { from, .. } => (
            cells_fp(keys, lo, &old[lo..=hi]),
            if from as usize == lo {
                plus(cells_fp(keys, lo, &old[lo + 1..=hi]), cells_fp(keys, hi, &[old[lo]]))
            } else {
                plus(cells_fp(keys, lo, &[old[hi]]), cells_fp(keys, lo + 1, &old[lo..hi]))
            },
        ),
    };
    (
        fp.0.wrapping_sub(out.0).wrapping_add(into.0),
        fp.1.wrapping_sub(out.1).wrapping_add(into.1),
    )
}

/// Content fingerprint of a whole bipartite instance: the position-keyed
/// sum over all `2n²` list cells. Equal-content instances fingerprint
/// equal no matter how they were built — [`crate::IncrementalGs`]
/// maintains the same value delta by delta ([`patch_delta`]), and the
/// cached batch front-end recomputes it here from scratch.
pub fn bipartite_fingerprint<P>(prefs: &P) -> Fp
where
    P: BipartitePrefs + ResponderListSlice,
{
    let n = prefs.n() as u32;
    let rows = (0..n)
        .map(|m| (DeltaSide::Proposer, m, prefs.proposer_list(m)))
        .chain((0..n).map(|w| (DeltaSide::Responder, w, prefs.responder_list_slice(w))));
    rows.fold((0u64, 0u64), |acc, (side, row, list)| {
        plus(acc, cells_fp(lanes(side, row), 0, list))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hash_is_position_sensitive() {
        let row = [3u32, 1, 2, 0];
        assert_ne!(hash_row_fp(0, &row), hash_row_fp(1, &row));
        assert_ne!(hash_row_fp(0, &row), hash_row_fp(0, &[3, 1, 0, 2]));
        assert_eq!(hash_row_fp(7, &row), hash_row_fp(7, &row));
    }

    #[test]
    fn cell_hash_is_position_and_row_sensitive() {
        let lane = mix(SEED0, side_tag(DeltaSide::Proposer, 3));
        let other = mix(SEED0, side_tag(DeltaSide::Responder, 3));
        assert_ne!(cell_hash(lane, 0, 1), cell_hash(lane, 1, 0));
        assert_ne!(cell_hash(lane, 2, 5), cell_hash(other, 2, 5));
        assert_eq!(cell_hash(lane, 2, 5), cell_hash(lane, 2, 5));
    }

    #[test]
    fn patch_round_trips() {
        let a = hash_row_fp(0, &[0, 1, 2]);
        let b = hash_row_fp(1, &[2, 1, 0]);
        let b2 = hash_row_fp(1, &[1, 2, 0]);
        let combined = (a.0 ^ b.0, a.1 ^ b.1);
        let patched = patch(combined, b, b2);
        assert_eq!(patched, (a.0 ^ b2.0, a.1 ^ b2.1));
        assert_eq!(patch(patched, b2, b), combined);
    }
}
