//! # kmatch-gs — instrumented Gale–Shapley engines
//!
//! The binding primitive of the paper's Algorithm 1 is one run of the
//! Gale–Shapley (GS) deferred-acceptance algorithm between two genders
//! (`GS(i, j)`, §II-A). This crate provides:
//!
//! * [`engine::gale_shapley`] — the classic proposer-proposing algorithm,
//!   generic over [`kmatch_prefs::BipartitePrefs`] so it runs equally on an
//!   owned SMP instance or a zero-copy view of two genders of a k-partite
//!   instance. Fully instrumented: proposal count (the paper's "iterations
//!   of the matching process", Theorem 3) and round count (the PRAM cost
//!   unit of §IV-C).
//! * [`engine::gale_shapley_traced`] — the reference engine emitting the
//!   full event trace (proposals, engagements, rejections) for debugging
//!   and the worked-example regression tests.
//! * [`mcvitie`] — the McVitie–Wilson proposer-rotation variant: same
//!   matching (GS is confluent), different control flow; used as an
//!   internal cross-check.
//! * [`stability`] — blocking-pair search and stability certificates for
//!   bipartite matchings.
//! * [`metrics`] — preferential-happiness metrics (mean proposer/responder
//!   rank) quantifying the "GS favors men" observation of §II-A.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod egalitarian;
pub mod engine;
pub mod incomplete;
pub mod matching;
pub mod mcvitie;
pub mod metrics;
pub mod rotations;
pub mod stability;
pub mod trace;

pub use egalitarian::{all_rotations, egalitarian_stable_matching};
pub use engine::{
    gale_shapley, gale_shapley_reference, gale_shapley_traced, responder_optimal, GsOutcome,
    GsStats, GsWorkspace,
};
pub use incomplete::{
    find_smi_blocking_pair, is_smi_stable, smi_gale_shapley, PartialMatching, SmiInstance,
};
pub use matching::BipartiteMatching;
pub use mcvitie::mcvitie_wilson;
pub use metrics::{
    mean_proposer_rank, mean_responder_rank, proposer_cost, responder_cost, RankCost,
};
pub use rotations::{enumerate_stable_lattice, exposed_rotations, SmpRotation, StableLattice};
pub use stability::{all_stable_matchings, find_blocking_pair, is_stable, BlockingPair};
pub use trace::GsEvent;
