//! Differential suite for the half-width rank tables.
//!
//! Every path that turns a preference list into a rank row — both
//! instance builds, `KPartiteInstance::set_pref_row`, both `apply_delta`s
//! and `PrefDelta::validate` — checks and inverts the list in one pass.
//! The reference below is the two-pass check-then-invert those paths used
//! before, with `u32` ranks. On random rows and on corrupted ones
//! (duplicate, out-of-range, short, long) both must give the same rank for
//! every pair, or the same first `PrefsError`.

use kmatch_prefs::{
    BipartiteInstance, CsrPrefs, DeltaSide, GenderId, KPartiteInstance, Member, PrefDelta,
    PrefsError,
};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

// ---------------------------------------------------------------------------
// Reference: the two-pass check and invert.
// ---------------------------------------------------------------------------

fn ref_check_permutation(list: &[u32], n: usize, seen: &mut [bool]) -> bool {
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

fn ref_invert_lists(lists: &[u32], rows: usize, n: usize) -> Vec<u32> {
    let mut ranks = vec![0u32; rows * n];
    for row in 0..rows {
        let base = row * n;
        for (r, &member) in lists[base..base + n].iter().enumerate() {
            ranks[base + member as usize] = r as u32;
        }
    }
    ranks
}

/// Flat lists and `u32` ranks of both sides.
#[derive(Clone)]
struct RefBipartite {
    n: usize,
    lists: [Vec<u32>; 2],
    ranks: [Vec<u32>; 2],
}

fn ref_bipartite(side0: &[Vec<u32>], side1: &[Vec<u32>]) -> Result<RefBipartite, PrefsError> {
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
    let mut seen = vec![false; n];
    let mut lists = [Vec::new(), Vec::new()];
    for (side_idx, side) in [side0, side1].into_iter().enumerate() {
        for (i, list) in side.iter().enumerate() {
            if !ref_check_permutation(list, n, &mut seen) {
                return Err(PrefsError::NotAPermutation {
                    owner: (side_idx, i),
                    over: 1 - side_idx,
                });
            }
            lists[side_idx].extend_from_slice(list);
        }
    }
    let ranks = [
        ref_invert_lists(&lists[0], n, n),
        ref_invert_lists(&lists[1], n, n),
    ];
    Ok(RefBipartite { n, lists, ranks })
}

fn side_idx(side: DeltaSide) -> usize {
    match side {
        DeltaSide::Proposer => 0,
        DeltaSide::Responder => 1,
    }
}

fn ref_validate(delta: &PrefDelta, n: usize) -> Result<(), PrefsError> {
    let row = delta.row() as usize;
    if row >= n {
        return Err(PrefsError::ShapeMismatch {
            what: "delta row index",
            expected: n,
            actual: row,
        });
    }
    let pos = |p: u32, what: &'static str| {
        if (p as usize) < n {
            Ok(())
        } else {
            Err(PrefsError::ShapeMismatch {
                what,
                expected: n,
                actual: p as usize,
            })
        }
    };
    match delta {
        PrefDelta::SetRow { prefs, .. } => {
            if !ref_check_permutation(prefs, n, &mut vec![false; n]) {
                let side = side_idx(delta.side());
                return Err(PrefsError::NotAPermutation {
                    owner: (side, row),
                    over: 1 - side,
                });
            }
        }
        PrefDelta::Swap { a, b, .. } => {
            pos(*a, "delta swap position")?;
            pos(*b, "delta swap position")?;
        }
        PrefDelta::Splice { from, to, .. } => {
            pos(*from, "delta splice position")?;
            pos(*to, "delta splice position")?;
        }
    }
    Ok(())
}

fn ref_apply_delta(inst: &mut RefBipartite, delta: &PrefDelta) -> Result<(), PrefsError> {
    let n = inst.n;
    ref_validate(delta, n)?;
    let side = side_idx(delta.side());
    let base = delta.row() as usize * n;
    let list = &mut inst.lists[side][base..base + n];
    match *delta {
        PrefDelta::SetRow { ref prefs, .. } => list.copy_from_slice(prefs),
        PrefDelta::Swap { a, b, .. } => list.swap(a as usize, b as usize),
        PrefDelta::Splice { from, to, .. } => {
            let entry = list[from as usize];
            let mut rest: Vec<u32> = list.to_vec();
            rest.remove(from as usize);
            rest.insert(to as usize, entry);
            list.copy_from_slice(&rest);
        }
    }
    for (r, &member) in inst.lists[side][base..base + n].iter().enumerate() {
        inst.ranks[side][base + member as usize] = r as u32;
    }
    Ok(())
}

/// Flat `k·n × k·n` lists and `u32` ranks, diagonal blocks unused.
#[derive(Clone)]
struct RefKPartite {
    k: usize,
    n: usize,
    lists: Vec<u32>,
    ranks: Vec<u32>,
}

impl RefKPartite {
    fn base(&self, g: usize, i: usize, h: usize) -> usize {
        ((g * self.n + i) * self.k + h) * self.n
    }
}

fn ref_kpartite(lists: &[Vec<Vec<Vec<u32>>>]) -> Result<RefKPartite, PrefsError> {
    let k = lists.len();
    if k < 2 {
        return Err(if k == 0 {
            PrefsError::Empty
        } else {
            PrefsError::TooFewGenders { k }
        });
    }
    let n = lists[0].len();
    if n == 0 {
        return Err(PrefsError::Empty);
    }
    let mut flat = vec![0u32; k * n * k * n];
    let mut seen = vec![false; n];
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
                if !ref_check_permutation(block, n, &mut seen) {
                    return Err(PrefsError::NotAPermutation {
                        owner: (g, i),
                        over: h,
                    });
                }
                let base = ((g * n + i) * k + h) * n;
                flat[base..base + n].copy_from_slice(block);
            }
        }
    }
    let ranks = ref_invert_lists(&flat, k * n * k, n);
    Ok(RefKPartite {
        k,
        n,
        lists: flat,
        ranks,
    })
}

fn ref_set_pref_row(
    inst: &mut RefKPartite,
    m: Member,
    h: GenderId,
    row: &[u32],
) -> Result<(), PrefsError> {
    let (g, i) = (m.gender.idx(), m.index as usize);
    if g == h.idx() {
        return Err(PrefsError::SelfPreference { owner: (g, i) });
    }
    if g >= inst.k || h.idx() >= inst.k || i >= inst.n {
        return Err(PrefsError::ShapeMismatch {
            what: "set_pref_row member or gender index",
            expected: inst.k * inst.n,
            actual: g * inst.n + i,
        });
    }
    if !ref_check_permutation(row, inst.n, &mut vec![false; inst.n]) {
        return Err(PrefsError::NotAPermutation {
            owner: (g, i),
            over: h.idx(),
        });
    }
    let base = inst.base(g, i, h.idx());
    inst.lists[base..base + inst.n].copy_from_slice(row);
    for (r, &j) in row.iter().enumerate() {
        inst.ranks[base + j as usize] = r as u32;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Inputs: random permutations, some of them corrupted.
// ---------------------------------------------------------------------------

fn permutation(n: usize, rng: &mut ChaCha8Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    p.shuffle(rng);
    p
}

/// Break `row` (a permutation of `0..n`) in one of four ways.
fn corrupt(row: &mut Vec<u32>, n: usize, rng: &mut ChaCha8Rng) {
    match rng.gen_range(0..4u32) {
        // Duplicate: one entry repeats another (only a repeat if n ≥ 2;
        // a one-entry row gets an out-of-range entry instead).
        0 if n >= 2 => {
            let i = rng.gen_range(0..n);
            let j = (i + rng.gen_range(1..n)) % n;
            row[i] = row[j];
        }
        0 | 1 => {
            let i = rng.gen_range(0..n);
            row[i] = if rng.gen_bool(0.5) {
                n as u32
            } else {
                rng.gen_range(n as u32..u32::MAX)
            };
        }
        // Short.
        2 => {
            let keep = rng.gen_range(0..n);
            row.truncate(keep);
        }
        // Long: one extra entry, in range or not.
        _ => row.push(rng.gen_range(0..n as u32 + 2)),
    }
}

/// `rows` permutations of `0..n`, each corrupted with probability `p`.
fn rows(count: usize, n: usize, p: f64, rng: &mut ChaCha8Rng) -> Vec<Vec<u32>> {
    (0..count)
        .map(|_| {
            let mut row = permutation(n, rng);
            if rng.gen_bool(p) {
                corrupt(&mut row, n, rng);
            }
            row
        })
        .collect()
}

/// A random delta for an instance with `n` members per side; positions
/// and the row are sometimes out of range, set rows sometimes corrupted.
fn delta(n: usize, rng: &mut ChaCha8Rng) -> PrefDelta {
    let side = if rng.gen_bool(0.5) {
        DeltaSide::Proposer
    } else {
        DeltaSide::Responder
    };
    let index = |rng: &mut ChaCha8Rng| {
        if rng.gen_bool(0.1) {
            rng.gen_range(n as u32..n as u32 + 3)
        } else {
            rng.gen_range(0..n as u32)
        }
    };
    let row = index(rng);
    match rng.gen_range(0..3u32) {
        0 => PrefDelta::SetRow {
            side,
            row,
            prefs: rows(1, n, 0.3, rng).pop().unwrap(),
        },
        1 => PrefDelta::Swap {
            side,
            row,
            a: index(rng),
            b: index(rng),
        },
        _ => PrefDelta::Splice {
            side,
            row,
            from: index(rng),
            to: index(rng),
        },
    }
}

// ---------------------------------------------------------------------------
// Comparisons.
// ---------------------------------------------------------------------------

fn same_bipartite(inst: &BipartiteInstance, r: &RefBipartite) -> bool {
    let n = r.n;
    inst.n() == n
        && (0..n as u32).all(|a| {
            let base = a as usize * n;
            inst.proposer_list(a) == &r.lists[0][base..base + n]
                && inst.responder_list(a) == &r.lists[1][base..base + n]
                && (0..n as u32).all(|b| {
                    inst.proposer_rank(a, b) == r.ranks[0][base + b as usize]
                        && inst.responder_rank(a, b) == r.ranks[1][base + b as usize]
                })
        })
}

fn same_csr(csr: &CsrPrefs, r: &RefBipartite) -> bool {
    let n = r.n;
    csr.n() == n
        && (0..n as u32).all(|a| {
            let base = a as usize * n;
            csr.proposer_list(a) == &r.lists[0][base..base + n]
                && csr.responder_list(a) == &r.lists[1][base..base + n]
                && (0..n as u32).all(|b| {
                    csr.proposer_rank(a, b) == r.ranks[0][base + b as usize]
                        && csr.responder_rank(a, b) == r.ranks[1][base + b as usize]
                })
        })
}

fn same_kpartite(inst: &KPartiteInstance, r: &RefKPartite) -> bool {
    let (k, n) = (r.k, r.n);
    inst.k() == k
        && inst.n() == n
        && inst.members().all(|m| {
            (0..k).filter(|&h| h != m.gender.idx()).all(|h| {
                let base = r.base(m.gender.idx(), m.index as usize, h);
                let gh = GenderId::from(h);
                inst.pref_list(m, gh) == &r.lists[base..base + n]
                    && (0..n as u32).all(|j| inst.rank_of(m, gh, j) == r.ranks[base + j as usize])
            })
        })
}

/// Nested k-partite lists, with rows and shapes corrupted at rate `p`.
fn kpartite_lists(k: usize, n: usize, p: f64, rng: &mut ChaCha8Rng) -> Vec<Vec<Vec<Vec<u32>>>> {
    (0..k)
        .map(|g| {
            let mut gender: Vec<Vec<Vec<u32>>> = (0..n)
                .map(|_| {
                    let mut blocks: Vec<Vec<u32>> = (0..k)
                        .map(|h| {
                            if h == g {
                                Vec::new()
                            } else {
                                rows(1, n, p, rng).pop().unwrap()
                            }
                        })
                        .collect();
                    if rng.gen_bool(p / 4.0) {
                        // A non-empty self block or a missing block.
                        if rng.gen_bool(0.5) {
                            blocks[g].push(0);
                        } else {
                            blocks.pop();
                        }
                    }
                    blocks
                })
                .collect();
            if rng.gen_bool(p / 8.0) {
                gender.pop();
            }
            gender
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn bipartite_build_matches_two_pass(n in 1usize..12, seed in 0u64..1 << 48) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Per-row corruption rate: none, about one row, or several rows
        // (so the first error's precedence is exercised).
        let p = [0.0, 0.5 / n as f64, 0.3][(seed % 3) as usize];
        let side0 = rows(n, n, p, &mut rng);
        let side1 = rows(n, n, p, &mut rng);
        match (BipartiteInstance::from_lists(&side0, &side1), ref_bipartite(&side0, &side1)) {
            (Ok(inst), Ok(r)) => prop_assert!(same_bipartite(&inst, &r)),
            (new, old) => prop_assert_eq!(new.err(), old.err()),
        }
    }

    fn bipartite_deltas_match_two_pass(n in 1usize..10, seed in 0u64..1 << 48) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (side0, side1) = (rows(n, n, 0.0, &mut rng), rows(n, n, 0.0, &mut rng));
        let mut inst = BipartiteInstance::from_lists(&side0, &side1).unwrap();
        let mut csr = CsrPrefs::from_prefs(&inst);
        let mut r = ref_bipartite(&side0, &side1).unwrap();
        for _ in 0..8 {
            let d = delta(n, &mut rng);
            let want = ref_apply_delta(&mut r, &d);
            prop_assert_eq!(d.validate(n), ref_validate(&d, n));
            prop_assert_eq!(inst.apply_delta(&d), want.clone());
            prop_assert_eq!(csr.apply_delta(&d), want);
            // Rejected deltas leave both copies as they were.
            prop_assert!(same_bipartite(&inst, &r));
            prop_assert!(same_csr(&csr, &r));
        }
    }

    fn kpartite_build_matches_two_pass(
        k in 2usize..5,
        n in 1usize..7,
        seed in 0u64..1 << 48,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = [0.0, 0.5 / (k * n) as f64, 0.2][(seed % 3) as usize];
        let lists = kpartite_lists(k, n, p, &mut rng);
        match (KPartiteInstance::from_lists(&lists), ref_kpartite(&lists)) {
            (Ok(inst), Ok(r)) => prop_assert!(same_kpartite(&inst, &r)),
            (new, old) => prop_assert_eq!(new.err(), old.err()),
        }
    }

    fn kpartite_set_pref_row_matches_two_pass(
        k in 2usize..5,
        n in 1usize..7,
        seed in 0u64..1 << 48,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let lists = kpartite_lists(k, n, 0.0, &mut rng);
        let mut inst = KPartiteInstance::from_lists(&lists).unwrap();
        let mut r = ref_kpartite(&lists).unwrap();
        for _ in 0..8 {
            // Own gender, out-of-range member or gender, and corrupted rows
            // all come up.
            let m = Member::new(rng.gen_range(0..k), rng.gen_range(0..n as u32 + 1));
            let h = GenderId::from(rng.gen_range(0..k + 1));
            let row = rows(1, n, 0.4, &mut rng).pop().unwrap();
            prop_assert_eq!(inst.set_pref_row(m, h, &row), ref_set_pref_row(&mut r, m, h, &row));
            prop_assert!(same_kpartite(&inst, &r));
        }
    }
}
