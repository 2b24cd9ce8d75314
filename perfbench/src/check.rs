//! Independent output checks and output digests.
//!
//! Every check here reads preferences only through `kmatch-prefs`
//! accessors ([`PrefOracle`], [`RoommatesOracle`], [`KPartiteInstance`])
//! and never through the solver that produced the output, so a wrong
//! matching cannot vouch for itself. The one exception is the
//! unsolvable-roommates check: there is no cheap witness-free test for
//! "no stable matching exists", so it re-derives the certificate through
//! the public fixed-cut path (`tolerant_solve_budgeted` at the reported
//! cut, then `verify_partition` against the full oracle).

use kmatch_gs::BipartiteMatching;
use kmatch_prefs::{
    GenderId, KPartiteInstance, KPartitePairView, PrefOracle, RoommatesOracle, TruncatedRoommates,
};
use kmatch_roommates::{
    tolerant_solve_budgeted, verify_partition, RoommatesWorkspace, TolerantOutcome,
};

/// FNV-1a over 64-bit words: a stable digest of outputs, identical on
/// every platform and run.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u32>) -> &mut Self {
        for w in ws {
            self.word(w as u64);
        }
        self
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The proposer-side partner array of a GS matching.
pub fn proposer_partners(m: &BipartiteMatching) -> Vec<u32> {
    m.pairs().map(|(_, w)| w).collect()
}

/// `partner[m]` must be a permutation of `0..n` with no blocking pair: no
/// proposer `m` and responder `w` who both prefer each other to their
/// partners. Walks each proposer's list only up to its partner, so the
/// cost is the sum of proposer ranks, not n².
pub fn bipartite_stable<P: PrefOracle>(prefs: &P, partner: &[u32]) -> Result<(), String> {
    let n = prefs.n();
    if partner.len() != n {
        return Err(format!(
            "matching covers {} of {n} proposers",
            partner.len()
        ));
    }
    let mut holder = vec![u32::MAX; n];
    for (m, &w) in partner.iter().enumerate() {
        let slot = holder
            .get_mut(w as usize)
            .ok_or_else(|| format!("proposer {m} matched to out-of-range responder {w}"))?;
        if *slot != u32::MAX {
            return Err(format!("responder {w} matched twice"));
        }
        *slot = m as u32;
    }
    for (m, &partner_w) in partner.iter().enumerate() {
        let m = m as u32;
        let mut pos = 0;
        loop {
            if pos >= prefs.row_len(m) {
                return Err(format!(
                    "responder {partner_w} missing from proposer {m}'s list"
                ));
            }
            let w = prefs.candidate(m, pos);
            if w == partner_w {
                break;
            }
            let h = holder[w as usize];
            if prefs.responder_rank(w, m) < prefs.responder_rank(w, h) {
                return Err(format!("blocking pair (proposer {m}, responder {w})"));
            }
            pos += 1;
        }
    }
    Ok(())
}

/// k-ary check of Algorithm 1's output: every gender appears exactly once
/// per family, the pairs each binding-tree edge induces are stable for that
/// gender pair (sufficient by Theorem 2), and the proposal total is within
/// Theorem 3's `(k−1)·n²`.
pub fn kary_stable(
    inst: &KPartiteInstance,
    edges: &[(u16, u16)],
    tuples: &[Vec<u32>],
    proposals: u64,
) -> Result<(), String> {
    let (k, n) = (inst.k(), inst.n());
    if tuples.len() != n {
        return Err(format!("{} families for n = {n}", tuples.len()));
    }
    for g in 0..k {
        let mut seen = vec![false; n];
        for t in tuples {
            let i = *t.get(g).ok_or("family shorter than k")? as usize;
            if i >= n || std::mem::replace(&mut seen[i], true) {
                return Err(format!(
                    "gender {g} member {i} out of range or in two families"
                ));
            }
        }
    }
    for &(i, j) in edges {
        let view = KPartitePairView::new(inst, GenderId(i), GenderId(j));
        let mut partner = vec![0u32; n];
        for t in tuples {
            partner[t[i as usize] as usize] = t[j as usize];
        }
        bipartite_stable(&view, &partner).map_err(|e| format!("edge ({i}, {j}): {e}"))?;
    }
    let bound = (k as u64 - 1) * (n as u64) * (n as u64);
    if proposals > bound {
        return Err(format!(
            "{proposals} proposals exceed the Theorem-3 bound {bound}"
        ));
    }
    Ok(())
}

/// A stable roommates matching: `partner` is a fixed-point-free
/// involution and no two agents prefer each other to their partners. Each
/// agent's walk stops at its partner's rank.
pub fn roommates_stable<O: RoommatesOracle>(oracle: &O, partner: &[u32]) -> Result<(), String> {
    let n = oracle.n();
    if partner.len() != n {
        return Err(format!("matching covers {} of {n} agents", partner.len()));
    }
    for (p, &q) in partner.iter().enumerate() {
        if q as usize >= n || q as usize == p || partner[q as usize] as usize != p {
            return Err(format!("agent {p} has an inconsistent partner {q}"));
        }
    }
    for (p, &q) in partner.iter().enumerate() {
        let p = p as u32;
        for pos in 0..oracle.rank_of(p, q) {
            let c = oracle.candidate(p, pos);
            if oracle.rank_of(c, p) < oracle.rank_of(c, partner[c as usize]) {
                return Err(format!("blocking pair ({p}, {c})"));
            }
        }
    }
    Ok(())
}

/// Re-derive a no-stable-matching verdict through the public fixed-cut
/// path: the top-`cut` sub-instance must yield a stable-partition claim
/// with an odd party, the claim must verify against the full oracle, and
/// its least odd member must be the reported culprit.
pub fn roommates_unsolvable<O: RoommatesOracle>(
    oracle: &O,
    cut: u32,
    culprit: u32,
) -> Result<(), String> {
    let mut ws = RoommatesWorkspace::new();
    let full = oracle.n() as u32 - 1;
    let out = if cut < full {
        tolerant_solve_budgeted(&TruncatedRoommates::new(oracle, cut), &mut ws, 8)
    } else {
        tolerant_solve_budgeted(oracle, &mut ws, 8)
    };
    let TolerantOutcome::Partition { partition, .. } = out else {
        return Err(format!("cut {cut} gives no stable-partition claim"));
    };
    if partition.odd_parties + partition.singletons == 0 {
        return Err(format!("cut {cut} partition has no odd party"));
    }
    if !verify_partition(oracle, &partition.pi) {
        return Err(format!("cut {cut} partition fails verification"));
    }
    if partition.first_odd_min != culprit {
        return Err(format!(
            "culprit {culprit} is not the least odd member {}",
            partition.first_odd_min
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Ledger;
    use kmatch_gs::GsWorkspace;
    use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_kpartite};
    use kmatch_prefs::CachedRoommatesOracle;
    use kmatch_roommates::{solve_escalating, CertKind, RoommatesOutcome};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Swap the partners of the first two proposers whose swap creates a
    /// blocking pair (any swap of a proposer-optimal matching does for
    /// uniform instances, but search to be certain).
    fn corrupt<P: PrefOracle>(prefs: &P, partner: &[u32]) -> Vec<u32> {
        for a in 0..partner.len() {
            for b in a + 1..partner.len() {
                let mut bad = partner.to_vec();
                bad.swap(a, b);
                if bipartite_stable(prefs, &bad).is_err() {
                    return bad;
                }
            }
        }
        panic!("no corrupting swap found");
    }

    #[test]
    fn corrupted_gs_matching_raises_error_rate() {
        let inst = uniform_bipartite(40, &mut ChaCha8Rng::seed_from_u64(3));
        let good: Vec<u32> = proposer_partners(&GsWorkspace::new().solve(&inst).matching);
        let bad = corrupt(&inst, &good);
        let mut ledger = Ledger::default();
        ledger.record(bipartite_stable(&inst, &good));
        assert_eq!(ledger.error_rate(), 0.0);
        ledger.record(bipartite_stable(&inst, &bad));
        assert_eq!(ledger.failed, 1);
        assert_eq!(ledger.error_rate(), 0.5);
    }

    #[test]
    fn duplicate_responder_is_rejected() {
        let inst = uniform_bipartite(8, &mut ChaCha8Rng::seed_from_u64(4));
        let mut partner: Vec<u32> = proposer_partners(&GsWorkspace::new().solve(&inst).matching);
        partner[1] = partner[0];
        assert!(bipartite_stable(&inst, &partner).is_err());
    }

    #[test]
    fn corrupted_kary_matching_is_caught() {
        let inst = uniform_kpartite(4, 12, &mut ChaCha8Rng::seed_from_u64(5));
        let tree = kmatch_graph::BindingTree::path(4);
        let out = kmatch_core::bind_with_stats(&inst, &tree);
        let tuples = out.matching.to_tuples();
        let proposals = out.total_proposals();
        assert!(kary_stable(&inst, tree.edges(), &tuples, proposals).is_ok());
        let bound = 3 * 12 * 12;
        assert!(kary_stable(&inst, tree.edges(), &tuples, bound + 1).is_err());
        // Re-pair gender 1 between two families: some edge now blocks or
        // the families stop being stable.
        let mut caught = false;
        for b in 1..tuples.len() {
            let mut bad = tuples.clone();
            let (x, y) = (bad[0][1], bad[b][1]);
            bad[0][1] = y;
            bad[b][1] = x;
            caught |= kary_stable(&inst, tree.edges(), &bad, proposals).is_err();
        }
        assert!(caught);
    }

    #[test]
    fn roommates_verdicts_check_and_corruptions_fail() {
        let mut ws = RoommatesWorkspace::new();
        let (mut corrupt_caught, mut certified_unsolvable) = (0, 0);
        for seed in 0..40u64 {
            let oracle = CachedRoommatesOracle::new(400, seed);
            let (outcome, report) = solve_escalating(&oracle, &mut ws);
            match outcome {
                RoommatesOutcome::Stable { matching, .. } => {
                    assert!(roommates_stable(&oracle, matching.partners()).is_ok());
                    // Re-pair two couples (a,b),(c,d) as (a,c),(b,d).
                    let mut bad = matching.partners().to_vec();
                    let (a, b) = (0u32, bad[0]);
                    let c = (1..400u32).find(|&x| x != b).unwrap();
                    let d = bad[c as usize];
                    bad[a as usize] = c;
                    bad[c as usize] = a;
                    bad[b as usize] = d;
                    bad[d as usize] = b;
                    corrupt_caught += roommates_stable(&oracle, &bad).is_err() as u32;
                }
                RoommatesOutcome::NoStableMatching { culprit, .. } => {
                    if report.cert == CertKind::Partition {
                        certified_unsolvable += 1;
                        assert!(roommates_unsolvable(&oracle, report.final_cut, culprit).is_ok());
                        assert!(
                            roommates_unsolvable(&oracle, report.final_cut, culprit ^ 1).is_err()
                        );
                    }
                }
            }
        }
        assert!(corrupt_caught > 0 && certified_unsolvable > 0);
    }
}
