//! Differential suite for the lane-interleaved Feistel cycle-walks.
//!
//! `FeistelPerm::apply_lanes` / `invert_lanes` and every batched oracle
//! method routed through them must return exactly what the scalar walks
//! return, lane for lane. The sizes cover the walk-length extremes: the
//! Feistel domain is `4^⌈log₄ n⌉`, so `n = 4^b` walks one pass per probe
//! and `n = 4^b + 1` about four. Sizes whose domain is within an eighth
//! of `n` (4, 16, 255, 256 here) take the kernels' scalar short-walk
//! path, the others the masked lane walk, so both are checked. The lane
//! widths cover every partial chunk up to `WALK_LANES` and slices that
//! span several chunks.

use kmatch_prefs::{
    CachedRoommatesOracle, FeistelPerm, PrefOracle, RandomOracle, RandomRoommatesOracle,
    RoommatesOracle, TruncatedRoommates, PROPOSAL_STRIP, WALK_LANES,
};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

/// Domain sizes: tiny, exact powers of four, `4^b + 1` worst cases, and
/// the benchmark's n = 2·10⁴ and n = 10⁵.
const NS: [u32; 12] = [1, 2, 3, 4, 5, 16, 17, 255, 256, 257, 20_000, 100_000];

/// Lane widths past one chunk.
const LONG_WIDTHS: [usize; 5] = [65, 127, 128, 129, 300];

/// A deterministic stream of lane inputs below `n`.
fn lane_inputs(n: u32, w: usize, salt: u64) -> Vec<u32> {
    (0..w as u64)
        .map(|i| {
            let z = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((z ^ (z >> 29)) % n as u64) as u32
        })
        .collect()
}

/// Check both lane kernels against the scalar walks, once with one shared
/// permutation (the row-walk shape) and once with a permutation per lane
/// (the partner-probe shape).
fn check_lanes(n: u32, w: usize, key: u64) -> Result<(), String> {
    let shared = FeistelPerm::new(key, n);
    let per_lane: Vec<FeistelPerm> = (0..w as u64)
        .map(|i| FeistelPerm::new(key ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03), n))
        .collect();
    let xs = lane_inputs(n, w, key);
    for (label, perm_of) in [
        ("shared", &(|_| shared) as &dyn Fn(usize) -> FeistelPerm),
        ("per-lane", &|i| per_lane[i]),
    ] {
        let mut fwd = xs.clone();
        FeistelPerm::apply_lanes(perm_of, &mut fwd);
        let mut inv = xs.clone();
        FeistelPerm::invert_lanes(perm_of, &mut inv);
        for i in 0..w {
            let perm = perm_of(i);
            if fwd[i] != perm.apply(xs[i]) || inv[i] != perm.invert(xs[i]) {
                return Err(format!(
                    "{label} lane {i} of {w} at n = {n}, key = {key:#x}, x = {}: \
                     lanes gave ({}, {}), scalar ({}, {})",
                    xs[i],
                    fwd[i],
                    inv[i],
                    perm.apply(xs[i]),
                    perm.invert(xs[i]),
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn lane_walks_match_scalar_at_every_width() {
    for n in NS {
        for w in (0..=WALK_LANES).chain(LONG_WIDTHS) {
            check_lanes(n, w, 0x5EED ^ ((n as u64) << 20) ^ w as u64).unwrap();
        }
    }
}

/// Every lane width of every batched roommates method against its scalar
/// form, on one oracle. Limits straddle each probe's true rank so the
/// `raw == limit` boundary lanes (where the self-splice point decides)
/// are exercised, alongside 0 and past-the-end limits.
fn check_roommates_batches<O: RoommatesOracle>(oracle: &O, salt: u64) -> Result<(), String> {
    let n = oracle.n() as u32;
    for w in (0..=WALK_LANES).chain(LONG_WIDTHS) {
        let p = lane_inputs(n, 1, salt ^ w as u64)[0];
        // Row walk from a start that leaves `w` positions, if the row has them.
        let row = oracle.row_len(p) as usize;
        if w <= row {
            let lo = lane_inputs(row as u32 - w as u32 + 1, 1, salt.rotate_left(7) ^ w as u64)[0];
            let mut got = vec![u32::MAX; w];
            oracle.candidates_into(p, lo, &mut got);
            for (i, &c) in got.iter().enumerate() {
                let want = oracle.candidate(p, lo + i as u32);
                if c != want {
                    return Err(format!(
                        "candidates_into({p}, {lo}) lane {i}: {c} != {want}"
                    ));
                }
            }
        }
        // Partner-side probes: any participant but p, repeats allowed.
        let qs: Vec<u32> = lane_inputs(n - 1, w, salt ^ p as u64)
            .into_iter()
            .map(|q| q + u32::from(q >= p))
            .collect();
        let mut ranks = vec![0u32; w];
        oracle.ranks_toward_into(&qs, p, &mut ranks);
        let mut limits = Vec::with_capacity(w);
        for (i, &q) in qs.iter().enumerate() {
            let want = oracle.rank_of(q, p);
            if ranks[i] != want {
                return Err(format!(
                    "ranks_toward_into lane {i}: rank_of({q}, {p}) {} != {want}",
                    ranks[i]
                ));
            }
            limits.push(match i % 5 {
                0 => want,
                1 => want.saturating_add(1),
                2 => want.saturating_sub(1),
                3 => 0,
                _ => n,
            });
        }
        let mut lt = vec![false; w];
        oracle.ranks_lt_into(&qs, p, &limits, &mut lt);
        for (i, &q) in qs.iter().enumerate() {
            let scalar = oracle.rank_lt(q, p, limits[i]);
            if lt[i] != scalar || scalar != (oracle.rank_of(q, p) < limits[i]) {
                return Err(format!(
                    "ranks_lt_into lane {i}: rank_lt({q}, {p}, {}) batched {} scalar {scalar}",
                    limits[i], lt[i]
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn roommates_batches_match_scalar_at_every_width() {
    for n in NS.into_iter().filter(|&n| n >= 2) {
        let seed = 0xC0FFEE ^ n as u64;
        let stateless = RandomRoommatesOracle::new(n as usize, seed);
        let cached = CachedRoommatesOracle::new(n as usize, seed);
        check_roommates_batches(&stateless, seed).unwrap();
        check_roommates_batches(&cached, seed).unwrap();
        let keep = (n / 3).max(1);
        check_roommates_batches(&TruncatedRoommates::new(&stateless, keep), seed).unwrap();
        check_roommates_batches(&TruncatedRoommates::new(&cached, keep), seed).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn lane_walks_match_scalar(
        n_idx in 0usize..NS.len() + 1,
        free_n in 1u32..300_000,
        w in 0usize..=300,
        key in 0u64..u64::MAX,
    ) {
        // One case in NS.len() + 1 draws n freely instead of from NS.
        let n = NS.get(n_idx).copied().unwrap_or(free_n);
        let checked = check_lanes(n, w, key);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    fn proposal_strip_matches_per_lane_entries(
        n_idx in 0usize..NS.len(),
        seed in 0u64..u64::MAX,
        salt in 0u64..u64::MAX,
    ) {
        let n = NS[n_idx];
        let oracle = RandomOracle::new(n as usize, seed);
        let ms: [u32; PROPOSAL_STRIP] = lane_inputs(n, PROPOSAL_STRIP, salt).try_into().unwrap();
        let pos: [u32; PROPOSAL_STRIP] =
            lane_inputs(n, PROPOSAL_STRIP, !salt).try_into().unwrap();
        let mut out = [0u64; PROPOSAL_STRIP];
        oracle.proposal_entry_strip(&ms, &pos, &mut out);
        for j in 0..PROPOSAL_STRIP {
            prop_assert_eq!(out[j], oracle.proposal_entry(ms[j], pos[j]), "lane {}", j);
        }
    }

    fn roommates_batches_match_scalar(
        n_idx in 0usize..NS.len() - 1,
        seed in 0u64..u64::MAX,
        keep in 1u32..100_000,
    ) {
        // NS without its leading n = 1 (roommates need two participants).
        let n = NS[n_idx + 1] as usize;
        let cached = CachedRoommatesOracle::new(n, seed);
        let checked = check_roommates_batches(&cached, seed)
            .and_then(|()| check_roommates_batches(&RandomRoommatesOracle::new(n, seed), !seed))
            .and_then(|()| check_roommates_batches(&TruncatedRoommates::new(&cached, keep), seed));
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
