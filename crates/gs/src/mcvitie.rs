//! McVitie–Wilson proposer-rotation variant of Gale–Shapley.
//!
//! Instead of synchronized rounds, proposers enter one at a time and every
//! displacement is resolved immediately by a chain of re-proposals. GS is
//! confluent — any order of valid proposals yields the same
//! proposer-optimal matching — so this variant must agree with
//! [`crate::engine::gale_shapley`] everywhere; the cross-check is both a
//! correctness test of the engine and the sequential baseline with minimal
//! bookkeeping for benches.

use kmatch_prefs::BipartitePrefs;

use crate::engine::{GsOutcome, GsStats};
use crate::matching::BipartiteMatching;

const FREE: u32 = u32::MAX;

/// Run the McVitie–Wilson variant; returns the proposer-optimal matching
/// (identical to [`crate::engine::gale_shapley`]) with proposal counts.
/// `rounds` reports the number of displacement chains (one per initial
/// entry), which differs from the synchronous round count by design.
pub fn mcvitie_wilson<P: BipartitePrefs>(prefs: &P) -> GsOutcome {
    let n = prefs.n();
    assert!(n > 0, "empty instance");
    let mut next = vec![0u32; n];
    let mut fiance = vec![FREE; n];
    let mut stats = GsStats::default();

    for entrant in 0..n as u32 {
        stats.rounds += 1;
        let mut m = entrant;
        // Chase the displacement chain until someone lands on a free
        // responder.
        loop {
            let list = prefs.proposer_list(m);
            let w = list[next[m as usize] as usize];
            next[m as usize] += 1;
            stats.proposals += 1;
            let holder = fiance[w as usize];
            if holder == FREE {
                fiance[w as usize] = m;
                break;
            }
            if prefs.responder_prefers(w, m, holder) {
                fiance[w as usize] = m;
                m = holder; // Displaced proposer continues the chain.
            }
        }
    }

    let mut partner = vec![0u32; n];
    for (w, &m) in fiance.iter().enumerate() {
        partner[m as usize] = w as u32;
    }
    GsOutcome {
        matching: BipartiteMatching::from_proposer_partners(partner),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::gale_shapley;
    use kmatch_prefs::gen::structured::identical_bipartite;
    use kmatch_prefs::gen::uniform::uniform_bipartite;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn agrees_with_round_based_engine() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        for n in [1usize, 2, 3, 10, 50] {
            for _ in 0..5 {
                let inst = uniform_bipartite(n, &mut rng);
                let a = gale_shapley(&inst);
                let b = mcvitie_wilson(&inst);
                assert_eq!(a.matching, b.matching, "confluence violated at n = {n}");
                assert_eq!(a.stats.proposals, b.stats.proposals, "same proposal total");
            }
        }
    }

    #[test]
    fn identical_lists_quadratic() {
        let out = mcvitie_wilson(&identical_bipartite(12));
        assert_eq!(out.stats.proposals, 12 * 13 / 2);
        assert_eq!(out.stats.rounds, 12, "one chain per entrant");
    }
}
