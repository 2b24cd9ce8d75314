//! Differential property suite for the branchless strip kernel.
//!
//! `GsWorkspace::solve` dispatches complete oracles to the strip kernel
//! (`PROPOSAL_STRIP`-lane gathers, branchless packed-entry resolution);
//! incomplete oracles take the scalar round loop. The kernel's contract
//! is *schedule identity*: it must resolve proposals in exactly the
//! free-list order of the scalar loop, so matchings, proposal counts and
//! round counts are all pinned against it here. All randomness is seeded
//! `rand_chacha` driven by the deterministic proptest case stream —
//! failures reproduce exactly.

use kmatch_gs::{gale_shapley_reference, GsWorkspace};
use kmatch_prefs::gen::uniform::uniform_bipartite;
use kmatch_prefs::{CsrPrefs, PrefOracle, RandomOracle, Truncated, PROPOSAL_STRIP};
use proptest::{prop_assert_eq, proptest, ProptestConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Kernel vs the scalar loop on the same instance: a cutoff of `n`
    /// keeps every list whole but makes the oracle incomplete, so
    /// `solve_incomplete` runs the scalar loop on the kernel's schedule.
    /// Identical matchings and counters mean the kernel executed the same
    /// schedule, proposal for proposal.
    fn strip_kernel_matches_scalar_trace(n in 1usize..72, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_bipartite(n, &mut rng);
        let kernel = GsWorkspace::new().solve(&inst);
        let whole = Truncated::new(inst.clone(), n as u32);
        let (scalar, stats) = GsWorkspace::new().solve_incomplete(&whole);
        let kernel_partners: Vec<u32> =
            (0..n as u32).map(|m| kernel.matching.partner_of_proposer(m)).collect();
        prop_assert_eq!(kernel_partners, scalar.partner_of_proposer);
        prop_assert_eq!(kernel.stats, stats);
    }

    /// The CSR strip override (eight back-to-back u32 arena loads, then
    /// widening) and the defaulted per-lane strip on a lazy oracle must
    /// agree with each other and with the reference — same seed, three
    /// paths, one answer.
    fn csr_strip_override_equals_lazy_strip(n in 1usize..64, seed in 0u64..1 << 32) {
        let oracle = RandomOracle::new(n, seed);
        let csr = CsrPrefs::from_oracle(&oracle);
        let reference = gale_shapley_reference(&csr);
        let lazy = GsWorkspace::new().solve(&oracle);
        let dense = GsWorkspace::new().solve(&csr);
        prop_assert_eq!(&lazy.matching, &reference.matching);
        prop_assert_eq!(lazy.stats, reference.stats);
        prop_assert_eq!(&dense.matching, &reference.matching);
        prop_assert_eq!(dense.stats, reference.stats);
    }

    /// The fused entries a strip gather returns are exactly the scalar
    /// `proposal_entry` loads, lane for lane — on the u32 half-width CSR
    /// arena (widening path) and the computed lazy oracle alike.
    fn strip_gather_equals_scalar_loads(n in 1usize..50, seed in 0u64..1 << 32) {
        let oracle = RandomOracle::new(n, seed);
        let csr = CsrPrefs::from_oracle(&oracle);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0FFEE);
        use rand::Rng;
        let mut ms = [0u32; PROPOSAL_STRIP];
        let mut pos = [0u32; PROPOSAL_STRIP];
        for lane in 0..PROPOSAL_STRIP {
            ms[lane] = rng.gen_range(0..n as u32);
            pos[lane] = rng.gen_range(0..n as u32);
        }
        let mut via_csr = [0u64; PROPOSAL_STRIP];
        let mut via_oracle = [0u64; PROPOSAL_STRIP];
        csr.proposal_entry_strip(&ms, &pos, &mut via_csr);
        oracle.proposal_entry_strip(&ms, &pos, &mut via_oracle);
        for lane in 0..PROPOSAL_STRIP {
            let scalar = csr.proposal_entry(ms[lane], pos[lane]);
            prop_assert_eq!(via_csr[lane], scalar);
            prop_assert_eq!(via_oracle[lane], scalar);
        }
    }
}

/// Strip-boundary sweep: every n around the `PROPOSAL_STRIP` multiples
/// (full strips, strip+1, strip−1, sub-strip tails) must agree with the
/// reference — the remainder lanes are where an off-by-one would live.
#[test]
fn strip_tail_boundaries_equal_reference() {
    let mut ws = GsWorkspace::new();
    for base in [PROPOSAL_STRIP, 2 * PROPOSAL_STRIP, 4 * PROPOSAL_STRIP] {
        for n in base.saturating_sub(1)..=base + 1 {
            for seed in 0..4u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed * 7919 + n as u64);
                let inst = uniform_bipartite(n, &mut rng);
                let reference = gale_shapley_reference(&inst);
                let kernel = ws.solve(&inst);
                assert_eq!(
                    kernel.matching, reference.matching,
                    "matching diverged at n = {n}, seed {seed}"
                );
                assert_eq!(
                    kernel.stats, reference.stats,
                    "stats diverged at n = {n}, seed {seed}"
                );
            }
        }
    }
}
