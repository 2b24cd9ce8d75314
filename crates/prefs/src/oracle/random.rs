//! Seeded random-permutation oracles: O(1) state per agent, O(1) per query.
//!
//! Each agent's preference list is a pseudorandom permutation of the other
//! side, realized as a small Feistel network over the minimal power-of-four
//! domain covering `n`, restricted to `[0, n)` by cycle-walking. Feistel
//! networks are invertible by construction, so both directions of the
//! index↔rank bijection — *"who is ranked at position `pos`?"* and *"what
//! rank does member `q` hold?"* — cost a handful of integer mixes, and no
//! list is ever materialized. Mertens (*Random Stable Matchings*) puts GS
//! on such instances at ~Θ(n log n) proposals, which is what makes n = 10⁶
//! solves feasible once the O(n²) arena is gone.

use std::ops::Range;

use crate::ids::Rank;

use super::roommates::{RoommatesOracle, SharedRoommates};
use super::TruncatedRoommates;
use super::{PrefOracle, PROPOSAL_STRIP};

/// Number of Feistel rounds. Four rounds of a strong mix are ample for
/// statistical (non-cryptographic) permutation quality.
const ROUNDS: usize = 4;

/// The 64-bit finalizer from splitmix64 — a full-avalanche mix.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lanes per chunk of a lane-interleaved cycle-walk
/// ([`FeistelPerm::apply_lanes`] / [`FeistelPerm::invert_lanes`]): the
/// lanes still walking fit one 64-bit mask, and 64 is the widest block
/// any roommates row walk hands the oracle.
pub const WALK_LANES: usize = 64;

/// A keyed pseudorandom permutation of `[0, n)`.
///
/// A balanced Feistel network over `2b` bits (the minimal even-split domain
/// with `2^(2b) ≥ n`, i.e. `D = 4^⌈log₄ n⌉ < 4n`), with round keys derived
/// from a 64-bit key. Cycle-walking restricts it to `[0, n)`; by Kac's
/// lemma a walk takes `D / n` Feistel passes on average — 3.28 at
/// n = 2·10⁴, 2.62 at n = 10⁵, just under 4 when `n = 4^b + 1`. Forward
/// ([`FeistelPerm::apply`]) and inverse ([`FeistelPerm::invert`]) are both
/// O(1); the struct is a few words of copyable state.
#[derive(Debug, Clone, Copy)]
pub struct FeistelPerm {
    n: u32,
    /// Bits per Feistel half; the domain is `1 << (2 * half_bits)`.
    half_bits: u32,
    /// `(1 << half_bits) - 1`.
    mask: u32,
    keys: [u32; ROUNDS],
}

impl FeistelPerm {
    /// The permutation of `[0, n)` selected by `key`.
    ///
    /// # Panics
    /// If `n` is zero.
    pub fn new(key: u64, n: u32) -> Self {
        assert!(n > 0, "a permutation needs a non-empty domain");
        // Minimal balanced domain: 2b bits with 2^(2b) >= n, b >= 1.
        let bits = 32 - (n - 1).leading_zeros().min(31);
        let half_bits = bits.div_ceil(2).max(1);
        let mut keys = [0u32; ROUNDS];
        let mut state = key;
        for k in &mut keys {
            state = mix64(state);
            *k = state as u32;
        }
        FeistelPerm {
            n,
            half_bits,
            mask: (1u32 << half_bits) - 1,
            keys,
        }
    }

    /// The round function: a keyed avalanche mix truncated to a half-word.
    #[inline]
    fn round(&self, key: u32, x: u32) -> u32 {
        mix64(((key as u64) << 32) | x as u64) as u32 & self.mask
    }

    /// One pass of the Feistel network over the full `2b`-bit domain.
    #[inline]
    fn encrypt(&self, x: u32) -> u32 {
        let mut l = x >> self.half_bits;
        let mut r = x & self.mask;
        for &k in &self.keys {
            let (nl, nr) = (r, l ^ self.round(k, r));
            l = nl;
            r = nr;
        }
        (l << self.half_bits) | r
    }

    /// Inverse of [`FeistelPerm::encrypt`].
    #[inline]
    fn decrypt(&self, y: u32) -> u32 {
        let mut l = y >> self.half_bits;
        let mut r = y & self.mask;
        for &k in self.keys.iter().rev() {
            let (nl, nr) = (r ^ self.round(k, l), l);
            l = nl;
            r = nr;
        }
        (l << self.half_bits) | r
    }

    /// Image of `x < n` under the permutation (cycle-walking: iterate the
    /// domain permutation until it lands back inside `[0, n)`).
    #[inline]
    pub fn apply(&self, x: u32) -> u32 {
        self.walk(x, FeistelPerm::encrypt)
    }

    /// Preimage of `y < n`: `invert(apply(x)) == x`.
    #[inline]
    pub fn invert(&self, y: u32) -> u32 {
        self.walk(y, FeistelPerm::decrypt)
    }

    /// One cycle-walk from `x < n`, with `pass` one Feistel pass in the
    /// walk's direction.
    #[inline(always)]
    fn walk(&self, x: u32, pass: impl Fn(&FeistelPerm, u32) -> u32) -> u32 {
        debug_assert!(x < self.n);
        let mut y = pass(self, x);
        while y >= self.n {
            y = pass(self, y);
        }
        y
    }

    /// Whether the domain exceeds `n` by less than an eighth, so fewer
    /// than one walk in nine takes a second pass.
    #[inline]
    fn walks_short(&self) -> bool {
        8 * (1u64 << (2 * self.half_bits)) < 9 * u64::from(self.n)
    }

    /// `xs[i] = perm_of(i).apply(xs[i])` for every lane, in place — the
    /// lane-interleaved form of [`FeistelPerm::apply`], bit-identical to it.
    ///
    /// Each walk is a chain of dependent passes whose exit branch
    /// mispredicts, so a loop of scalar walks runs them one after another.
    /// Here every chunk of [`WALK_LANES`] lanes takes one pass over all its
    /// lanes, then further passes over only the lanes still outside
    /// `[0, n)`, so the independent passes of different lanes overlap in
    /// the multiplier pipeline. `perm_of` is called once per lane per pass
    /// and should be cheap (a copy or a table load, not a key schedule).
    ///
    /// When the domain exceeds `n` by less than an eighth (n = 10³, 10⁶,
    /// any `4^b`), nearly every walk ends after one pass, its exit branch
    /// predicts, and the core already overlaps consecutive scalar walks;
    /// the lanes then take scalar walks, one after another.
    #[inline]
    pub fn apply_lanes(perm_of: impl Fn(usize) -> FeistelPerm, xs: &mut [u32]) {
        walk_lanes(perm_of, xs, FeistelPerm::encrypt);
    }

    /// `ys[i] = perm_of(i).invert(ys[i])` for every lane, in place — the
    /// lane-interleaved form of [`FeistelPerm::invert`], walked as
    /// [`FeistelPerm::apply_lanes`] walks.
    #[inline]
    pub fn invert_lanes(perm_of: impl Fn(usize) -> FeistelPerm, ys: &mut [u32]) {
        walk_lanes(perm_of, ys, FeistelPerm::decrypt);
    }
}

/// Placeholder filling the unused tail of a per-chunk permutation array;
/// never walked.
const UNUSED_PERM: FeistelPerm = FeistelPerm {
    n: 1,
    half_bits: 1,
    mask: 1,
    keys: [0; ROUNDS],
};

/// The cycle-walk behind [`FeistelPerm::apply_lanes`] and
/// [`FeistelPerm::invert_lanes`], with `pass` one Feistel pass in the
/// walk's direction.
#[inline(always)]
fn walk_lanes(
    perm_of: impl Fn(usize) -> FeistelPerm,
    xs: &mut [u32],
    pass: impl Fn(&FeistelPerm, u32) -> u32,
) {
    // Mask bookkeeping costs more than the mispredicts it saves below a
    // walk length of about 1.1 passes: against scalar walks the lane walk
    // lost 8 to 10 of 10 paired escalating solves at D/n = 1 (n = 4^6 to
    // 4^8) and won 7 of 8 at D/n = 1.17 (2-vCPU Xeon; crossover between
    // D/n = 1.06 and 1.17).
    if !xs.is_empty() && perm_of(0).walks_short() {
        for (i, x) in xs.iter_mut().enumerate() {
            *x = perm_of(i).walk(*x, &pass);
        }
        return;
    }
    for lanes in lane_chunks(xs.len()) {
        let base = lanes.start;
        let chunk = &mut xs[lanes];
        // Bit i is set while lane i's image lies outside [0, n). The first
        // pass shifts each lane's bit in (last lane first, so lane i lands
        // at bit i) rather than or-ing in `1 << i`, which keeps the
        // compiler from vectorizing the 64-bit multiplies.
        let mut outside = 0u64;
        for (i, x) in chunk.iter_mut().enumerate().rev() {
            let perm = perm_of(base + i);
            debug_assert!(*x < perm.n);
            *x = pass(&perm, *x);
            outside = outside << 1 | u64::from(*x >= perm.n);
        }
        // Each further pass visits only the set lanes and rebuilds the mask
        // without a branch per lane, so its cost follows the lanes still
        // walking, not the chunk width.
        while outside != 0 {
            let mut walking = outside;
            outside = 0;
            while walking != 0 {
                let i = walking.trailing_zeros() as usize;
                walking &= walking - 1;
                let perm = perm_of(base + i);
                let y = pass(&perm, chunk[i]);
                chunk[i] = y;
                outside |= u64::from(y >= perm.n) << i;
            }
        }
    }
}

/// `0..len` cut into consecutive ranges of at most [`WALK_LANES`] lanes —
/// the chunks of a lane walk, also used by callers that keep per-chunk
/// scratch.
#[inline]
fn lane_chunks(len: usize) -> impl Iterator<Item = Range<usize>> {
    (0..len)
        .step_by(WALK_LANES)
        .map(move |lo| lo..(lo + WALK_LANES).min(len))
}

/// Largest `n` the seeded Feistel oracles accept: agents and positions are
/// `u32`, and a domain covering `n` must stay below `2^32`.
pub const ORACLE_MAX_N: usize = u32::MAX as usize / 2;

/// Per-agent key separation constants (arbitrary odd mix inputs).
const PROPOSER_SIDE: u64 = 0x9AE1_6A3B_2F90_404F;
const RESPONDER_SIDE: u64 = 0xD1B5_4A32_D192_ED03;

/// A complete bipartite instance whose every preference list is an
/// independent seeded pseudorandom permutation — generated on demand,
/// never stored.
///
/// Total state is three words regardless of `n`; each agent's permutation
/// is rebuilt from `(seed, side, agent)` per query, so clones and
/// per-worker copies are free and the oracle is trivially `Sync`.
#[derive(Debug, Clone, Copy)]
pub struct RandomOracle {
    n: usize,
    seed: u64,
}

impl RandomOracle {
    /// The instance of size `n` selected by `seed`.
    ///
    /// # Panics
    /// If `n` is zero or exceeds [`ORACLE_MAX_N`].
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "instances are non-empty");
        assert!(n <= ORACLE_MAX_N, "n exceeds ORACLE_MAX_N");
        RandomOracle { n, seed }
    }

    /// The generating seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Proposer `m`'s list permutation.
    #[inline]
    fn proposer_perm(&self, m: u32) -> FeistelPerm {
        FeistelPerm::new(mix64(self.seed ^ PROPOSER_SIDE ^ m as u64), self.n as u32)
    }

    /// Responder `w`'s list permutation.
    #[inline]
    fn responder_perm(&self, w: u32) -> FeistelPerm {
        FeistelPerm::new(mix64(self.seed ^ RESPONDER_SIDE ^ w as u64), self.n as u32)
    }

    /// Rank of responder `w` in proposer `m`'s list — the inverse direction
    /// of the proposer bijection. Not part of the [`PrefOracle`] contract
    /// (the GS hot loop never asks), but O(1) here and used by rank-metric
    /// reporting and the differential tests.
    #[inline]
    pub fn proposer_rank(&self, m: u32, w: u32) -> Rank {
        self.proposer_perm(m).invert(w)
    }

    /// The proposer responder `w` ranks at `pos` — forward direction of the
    /// responder bijection (its inverse serves
    /// [`PrefOracle::responder_rank`]).
    #[inline]
    pub fn responder_candidate(&self, w: u32, pos: u32) -> u32 {
        self.responder_perm(w).apply(pos)
    }
}

impl PrefOracle for RandomOracle {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn row_len(&self, _m: u32) -> u32 {
        self.n as u32
    }

    #[inline]
    fn candidate(&self, m: u32, pos: u32) -> u32 {
        self.proposer_perm(m).apply(pos)
    }

    #[inline]
    fn responder_rank(&self, w: u32, m: u32) -> Rank {
        self.responder_perm(w).invert(m)
    }

    // Strip gather phase-split into two lane-interleaved walks: the eight
    // proposer key schedules, then one walk of all proposer-side
    // bijections; then the same for the responder-side rank probes.
    #[inline]
    fn proposal_entry_strip(
        &self,
        ms: &[u32; PROPOSAL_STRIP],
        pos: &[u32; PROPOSAL_STRIP],
        out: &mut [u64; PROPOSAL_STRIP],
    ) {
        let proposers: [FeistelPerm; PROPOSAL_STRIP] =
            std::array::from_fn(|j| self.proposer_perm(ms[j]));
        let mut ws = *pos;
        FeistelPerm::apply_lanes(|j| proposers[j], &mut ws);
        let responders: [FeistelPerm; PROPOSAL_STRIP] =
            std::array::from_fn(|j| self.responder_perm(ws[j]));
        let mut ranks = *ms;
        FeistelPerm::invert_lanes(|j| responders[j], &mut ranks);
        for j in 0..PROPOSAL_STRIP {
            out[j] = (ranks[j] as u64) << 32 | ws[j] as u64;
        }
    }
}

/// A seeded random stable-roommates instance with complete lists, generated
/// on demand.
///
/// Participant `p`'s list is a pseudorandom permutation of the other `n−1`
/// participants: a Feistel permutation of `[0, n)` with the position
/// holding `p` itself spliced out, so both directions of the bijection stay
/// O(1). This is the lazy input for solvability-frontier sweeps à la
/// Chin & Michelen (PAPERS.md).
#[derive(Debug, Clone, Copy)]
pub struct RandomRoommatesOracle {
    n: usize,
    seed: u64,
}

impl RandomRoommatesOracle {
    /// The instance of size `n` selected by `seed`.
    ///
    /// # Panics
    /// If `n < 2` (a lone participant has nobody to rank) or `n` exceeds
    /// [`ORACLE_MAX_N`].
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "roommates instances need at least two participants");
        assert!(n <= ORACLE_MAX_N, "n exceeds ORACLE_MAX_N");
        RandomRoommatesOracle { n, seed }
    }

    #[inline]
    fn perm(&self, p: u32) -> FeistelPerm {
        FeistelPerm::new(mix64(self.seed ^ PROPOSER_SIDE ^ p as u64), self.n as u32)
    }
}

impl RoommatesOracle for RandomRoommatesOracle {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn row_len(&self, _p: u32) -> u32 {
        self.n as u32 - 1
    }

    #[inline]
    fn candidate(&self, p: u32, pos: u32) -> u32 {
        let perm = self.perm(p);
        // Skip the position that maps to p itself.
        let self_pos = perm.invert(p);
        perm.apply(pos + u32::from(pos >= self_pos))
    }

    #[inline]
    fn rank_of(&self, p: u32, q: u32) -> Rank {
        debug_assert_ne!(p, q, "participants do not rank themselves");
        let perm = self.perm(p);
        let raw = perm.invert(q);
        raw - u32::from(raw > perm.invert(p))
    }

    // Row walk: the key schedule and self-splice point are per-participant,
    // so a contiguous run shares them, and the positions' cycle-walks run
    // lane-interleaved.
    #[inline]
    fn candidates_into(&self, p: u32, lo: u32, out: &mut [u32]) {
        let perm = self.perm(p);
        let self_pos = perm.invert(p);
        for (i, slot) in out.iter_mut().enumerate() {
            let pos = lo + i as u32;
            *slot = pos + u32::from(pos >= self_pos);
        }
        FeistelPerm::apply_lanes(|_| perm, out);
    }

    // Partner-side probes touch one permutation per lane: build each
    // chunk's key schedules once, then walk the raw ranks and the
    // self-splice points lane-interleaved over them.
    #[inline]
    fn ranks_toward_into(&self, qs: &[u32], p: u32, out: &mut [u32]) {
        debug_assert_eq!(qs.len(), out.len());
        debug_assert!(!qs.contains(&p), "participants do not rank themselves");
        let mut perms = [UNUSED_PERM; WALK_LANES];
        let mut self_pos = [0u32; WALK_LANES];
        for lanes in lane_chunks(qs.len()) {
            let (qs, out) = (&qs[lanes.clone()], &mut out[lanes]);
            let self_pos = &mut self_pos[..qs.len()];
            for (perm, &q) in perms.iter_mut().zip(qs) {
                *perm = self.perm(q);
            }
            out.fill(p);
            FeistelPerm::invert_lanes(|i| perms[i], out);
            self_pos.copy_from_slice(qs);
            FeistelPerm::invert_lanes(|i| perms[i], self_pos);
            for (raw, &s) in out.iter_mut().zip(&*self_pos) {
                *raw -= u32::from(*raw > s);
            }
        }
    }

    // Threshold compares skip the self-splice inversion: the spliced rank
    // is `raw` or `raw - 1`, so `raw < limit` decides `rank < limit`
    // outright unless `raw == limit` exactly — only that one-in-`n`
    // boundary needs the second Feistel walk to locate the splice point.
    #[inline]
    fn rank_lt(&self, q: u32, p: u32, limit: u32) -> bool {
        debug_assert_ne!(p, q, "participants do not rank themselves");
        let perm = self.perm(q);
        let raw = perm.invert(p);
        if raw != limit {
            raw < limit
        } else {
            raw > perm.invert(q)
        }
    }

    #[inline]
    fn ranks_lt_into(&self, qs: &[u32], p: u32, limits: &[u32], out: &mut [bool]) {
        debug_assert_eq!(qs.len(), limits.len());
        debug_assert_eq!(qs.len(), out.len());
        debug_assert!(!qs.contains(&p), "participants do not rank themselves");
        // Shaped as `CachedRoommatesOracle::ranks_lt_into`, with each
        // chunk's key schedules built once into `perms`.
        let mut perms = [UNUSED_PERM; WALK_LANES];
        let mut raw = [p; WALK_LANES];
        for lanes in lane_chunks(qs.len()) {
            let (qs, limits) = (&qs[lanes.clone()], &limits[lanes.clone()]);
            let raw = &mut raw[..qs.len()];
            for (perm, &q) in perms.iter_mut().zip(qs) {
                *perm = self.perm(q);
            }
            FeistelPerm::invert_lanes(|i| perms[i], raw);
            for (i, o) in out[lanes].iter_mut().enumerate() {
                *o = if raw[i] != limits[i] {
                    raw[i] < limits[i]
                } else {
                    raw[i] > perms[i].invert(qs[i])
                };
                raw[i] = p;
            }
        }
    }

    #[inline]
    fn shared(&self) -> Option<SharedRoommates<'_>> {
        Some(TruncatedRoommates::new(self, u32::MAX))
    }
}

/// [`RandomRoommatesOracle`] with the per-agent Feistel key schedules and
/// self-splice positions precomputed — the same instance bit for bit, in
/// O(n) memory instead of O(1).
///
/// Every probe against the stateless oracle rebuilds the agent's round
/// keys (a serial chain of five mixes) and, for rank queries, pays a
/// second cycle-walk to locate the agent's own position in its raw
/// permutation. At ~10⁸ probes per escalating solve those two constants
/// dominate the profile; this variant trades 32 bytes per agent (~3 MB at
/// n = 10⁵) to delete both. Construction is one pass over the agents —
/// microseconds next to any solve that would want it.
///
/// What is left per probe is one record load and the cycle-walk itself,
/// `4^⌈log₄ n⌉ / n` Feistel passes on average (3.28 at n = 2·10⁴). The
/// batched methods walk their lanes together
/// ([`FeistelPerm::apply_lanes`]), so an escalating solve at n = 2·10⁴
/// spends about 55 ns per probe, engine included, against about 90 ns
/// with one scalar walk after another (2-vCPU Xeon, release build).
#[derive(Debug, Clone)]
pub struct CachedRoommatesOracle {
    n: usize,
    /// One 32-byte record per agent, so a random probe touches a single
    /// cache line (the record never straddles one).
    agents: Vec<CachedAgent>,
}

/// Agent `p`'s raw permutation of `[0, n)` plus its spliced-out position
/// `perm.invert(p)`, packed together for locality.
#[derive(Debug, Clone, Copy)]
struct CachedAgent {
    perm: FeistelPerm,
    self_pos: u32,
}

impl CachedRoommatesOracle {
    /// The instance of size `n` selected by `seed` — identical preference
    /// lists to `RandomRoommatesOracle::new(n, seed)`.
    ///
    /// # Panics
    /// As [`RandomRoommatesOracle::new`].
    pub fn new(n: usize, seed: u64) -> Self {
        let stateless = RandomRoommatesOracle::new(n, seed);
        let agents = (0..n as u32)
            .map(|p| {
                let perm = stateless.perm(p);
                CachedAgent {
                    perm,
                    self_pos: perm.invert(p),
                }
            })
            .collect();
        CachedRoommatesOracle { n, agents }
    }

    /// Bytes held by the precomputed tables (the arena-accounting cost of
    /// choosing this variant over the stateless oracle).
    pub fn resident_bytes(&self) -> usize {
        self.agents.capacity() * size_of::<CachedAgent>()
    }
}

impl RoommatesOracle for CachedRoommatesOracle {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn row_len(&self, _p: u32) -> u32 {
        self.n as u32 - 1
    }

    #[inline]
    fn candidate(&self, p: u32, pos: u32) -> u32 {
        let a = &self.agents[p as usize];
        a.perm.apply(pos + u32::from(pos >= a.self_pos))
    }

    #[inline]
    fn rank_of(&self, p: u32, q: u32) -> Rank {
        debug_assert_ne!(p, q, "participants do not rank themselves");
        let a = &self.agents[p as usize];
        let raw = a.perm.invert(q);
        raw - u32::from(raw > a.self_pos)
    }

    #[inline]
    fn candidates_into(&self, p: u32, lo: u32, out: &mut [u32]) {
        let a = &self.agents[p as usize];
        for (i, slot) in out.iter_mut().enumerate() {
            let pos = lo + i as u32;
            *slot = pos + u32::from(pos >= a.self_pos);
        }
        FeistelPerm::apply_lanes(|_| a.perm, out);
    }

    #[inline]
    fn ranks_toward_into(&self, qs: &[u32], p: u32, out: &mut [u32]) {
        debug_assert_eq!(qs.len(), out.len());
        debug_assert!(!qs.contains(&p), "participants do not rank themselves");
        out.fill(p);
        FeistelPerm::invert_lanes(|i| self.agents[qs[i] as usize].perm, out);
        for (raw, &q) in out.iter_mut().zip(qs) {
            *raw -= u32::from(*raw > self.agents[q as usize].self_pos);
        }
    }

    #[inline]
    fn rank_lt(&self, q: u32, p: u32, limit: u32) -> bool {
        debug_assert_ne!(p, q, "participants do not rank themselves");
        let a = &self.agents[q as usize];
        let raw = a.perm.invert(p);
        if raw != limit {
            raw < limit
        } else {
            raw > a.self_pos
        }
    }

    #[inline]
    fn ranks_lt_into(&self, qs: &[u32], p: u32, limits: &[u32], out: &mut [bool]) {
        debug_assert_eq!(qs.len(), limits.len());
        debug_assert_eq!(qs.len(), out.len());
        debug_assert!(!qs.contains(&p), "participants do not rank themselves");
        // The raw ranks need a `u32` scratch per chunk; each lane is reset
        // to `p` as it is read, because at walk length ≈ 1 a probe is a
        // single pass and a separate fill costs a measurable share.
        let mut raw = [p; WALK_LANES];
        for lanes in lane_chunks(qs.len()) {
            let (qs, limits) = (&qs[lanes.clone()], &limits[lanes.clone()]);
            let raw = &mut raw[..qs.len()];
            FeistelPerm::invert_lanes(|i| self.agents[qs[i] as usize].perm, raw);
            for (i, o) in out[lanes].iter_mut().enumerate() {
                *o = if raw[i] != limits[i] {
                    raw[i] < limits[i]
                } else {
                    raw[i] > self.agents[qs[i] as usize].self_pos
                };
                raw[i] = p;
            }
        }
    }

    #[inline]
    fn shared(&self) -> Option<SharedRoommates<'_>> {
        Some(TruncatedRoommates::new(self, u32::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feistel_is_a_bijection_with_inverse() {
        for n in [1u32, 2, 3, 5, 16, 17, 255, 256, 1000] {
            let perm = FeistelPerm::new(0xABCD ^ n as u64, n);
            let mut seen = vec![false; n as usize];
            for x in 0..n {
                let y = perm.apply(x);
                assert!(y < n);
                assert!(!seen[y as usize], "collision at n = {n}");
                seen[y as usize] = true;
                assert_eq!(perm.invert(y), x);
            }
        }
    }

    #[test]
    fn oracle_lists_are_permutations_both_sides() {
        let n = 97;
        let oracle = RandomOracle::new(n, 42);
        for agent in 0..n as u32 {
            let mut seen_p = vec![false; n];
            let mut seen_r = vec![false; n];
            for pos in 0..n as u32 {
                let w = oracle.candidate(agent, pos);
                assert!(!seen_p[w as usize]);
                seen_p[w as usize] = true;
                assert_eq!(oracle.proposer_rank(agent, w), pos);
                let m = oracle.responder_candidate(agent, pos);
                assert!(!seen_r[m as usize]);
                seen_r[m as usize] = true;
                assert_eq!(oracle.responder_rank(agent, m), pos);
            }
        }
    }

    #[test]
    fn strip_gather_matches_per_lane_entries() {
        let n = 61;
        let oracle = RandomOracle::new(n, 99);
        let ms: [u32; PROPOSAL_STRIP] = [0, 7, 13, 60, 21, 2, 45, 33];
        let pos: [u32; PROPOSAL_STRIP] = [0, 60, 5, 17, 1, 30, 44, 9];
        let mut out = [0u64; PROPOSAL_STRIP];
        oracle.proposal_entry_strip(&ms, &pos, &mut out);
        for j in 0..PROPOSAL_STRIP {
            assert_eq!(out[j], oracle.proposal_entry(ms[j], pos[j]), "lane {j}");
        }
    }

    #[test]
    fn cached_roommates_oracle_is_bit_identical() {
        for n in [2usize, 3, 17, 64, 101] {
            let a = RandomRoommatesOracle::new(n, 0xBEEF ^ n as u64);
            let b = CachedRoommatesOracle::new(n, 0xBEEF ^ n as u64);
            for p in 0..n as u32 {
                for pos in 0..n as u32 - 1 {
                    assert_eq!(a.candidate(p, pos), b.candidate(p, pos));
                }
                for q in 0..n as u32 {
                    if q == p {
                        continue;
                    }
                    assert_eq!(a.rank_of(p, q), b.rank_of(p, q));
                    for limit in [0, 1, n as u32 / 2, n as u32 - 2] {
                        assert_eq!(a.rank_lt(q, p, limit), b.rank_lt(q, p, limit));
                    }
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = RandomOracle::new(64, 1);
        let b = RandomOracle::new(64, 2);
        let row_a: Vec<u32> = (0..64).map(|p| a.candidate(0, p)).collect();
        let row_b: Vec<u32> = (0..64).map(|p| b.candidate(0, p)).collect();
        assert_ne!(row_a, row_b);
    }

    #[test]
    fn roommates_oracle_rows_are_self_free_permutations() {
        let n = 23;
        let oracle = RandomRoommatesOracle::new(n, 7);
        for p in 0..n as u32 {
            let mut seen = vec![false; n];
            for pos in 0..(n as u32 - 1) {
                let q = oracle.candidate(p, pos);
                assert_ne!(q, p, "no self-ranking");
                assert!(!seen[q as usize]);
                seen[q as usize] = true;
                assert_eq!(oracle.rank_of(p, q), pos);
            }
        }
    }
}
