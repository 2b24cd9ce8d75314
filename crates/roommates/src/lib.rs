//! # kmatch-roommates — Irving's stable-roommates algorithm
//!
//! §III-B of the paper detects (and finds) stable **binary** matchings in
//! k-partite graphs by solving a stable-roommates problem "with incomplete
//! preference lists … and with some minor twists". This crate is a complete
//! implementation of Irving's two-phase algorithm [Irving 1985]:
//!
//! * **Phase 1** ([`phase1`]): everyone proposes down their list; a
//!   recipient holds the best proposal seen so far; every hold prunes the
//!   recipient's list below the held proposer, with the paper's
//!   *bidirectional removal rule* ("if w removes m from her list, it also
//!   means m removes w from his list"). An emptied list proves no stable
//!   matching exists.
//! * **Phase 2** ([`phase2`]): repeatedly find a *rotation* — the paper's
//!   "loop of alternating first and second preferences among reduced
//!   lists" — and eliminate it, until every reduced list is a singleton
//!   (stable matching read off directly) or a list empties (no stable
//!   matching).
//!
//! The starting point of rotation discovery is a policy
//! ([`policy::RotationPolicy`]); alternating it between the two sides of a
//! bipartite reduction implements the paper's *procedurally fair* stable
//! marriage (§III-B end, Fig. 2), provided by [`fair_smp`].
//!
//! Two implementations of the full algorithm live side by side: the
//! zero-allocation fast path ([`solve`], [`RoommatesWorkspace::solve`])
//! built on [`engine`]/[`workspace`] — implicit phase-1 deletion
//! thresholds plus a compact doubly-linked arena for phase 2 — and the
//! reference solver ([`solve_reference`]) over the [`active`] mask table,
//! kept verbatim as the differential-testing oracle and run by
//! [`solve_traced`] for the paper-style event trace.
//!
//! [`brute`] supplies exhaustive ground truth (all stable matchings of
//! small instances) used heavily by the Theorem-1 experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod brute;
pub mod engine;
pub mod escalate;
pub mod fair_smp;
pub mod kpartite;
pub mod matching;
pub mod partition;
pub mod phase1;
pub mod phase2;
pub mod policy;
pub mod solver;
pub mod trace;
pub mod workspace;

pub use escalate::{solve_escalating, solve_escalating_metered, CertKind, EscalationReport};
pub use fair_smp::{fair_stable_marriage, oriented_stable_marriage, SmpOrientation};
pub use kpartite::{solve_kpartite_binary, KPartiteBinaryOutcome};
pub use matching::{find_roommates_blocking_pair, is_roommates_stable, RoommatesMatching};
pub use partition::{tolerant_solve_budgeted, verify_partition, StablePartition, TolerantOutcome};
pub use policy::RotationPolicy;
pub use solver::{
    solve, solve_reference, solve_traced, solve_with, solve_with_logged_reference,
    solve_with_reference, RoommatesOutcome, SolveStats,
};
pub use trace::RoommatesEvent;
pub use workspace::RoommatesWorkspace;
