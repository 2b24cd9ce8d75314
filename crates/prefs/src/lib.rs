//! # kmatch-prefs — preference-list substrate
//!
//! Data model shared by every solver in the `kmatch` workspace:
//!
//! * [`BipartiteInstance`] — the classic stable-marriage input: two sides of
//!   `n` members, each member totally ordering the opposite side.
//! * [`KPartiteInstance`] — the paper's input: `k` genders of `n` members
//!   each; every member keeps a **separate** total order over each of the
//!   other `k − 1` genders (Wu, IPPS 2016, §II-B).
//! * [`RoommatesInstance`] — one set of participants with (possibly
//!   incomplete) preference lists, the input to Irving's stable-roommates
//!   algorithm; adapters build it from k-partite and bipartite instances
//!   (§III-B of the paper).
//! * [`gen`] — workload generators: uniform, popularity-correlated,
//!   structured worst cases, the Theorem-1 adversarial construction, and the
//!   paper's worked examples encoded verbatim.
//!
//! ## Representation
//!
//! All hot-path structures are dense, flat tables so that the one
//! operation every algorithm performs millions of times —
//! *"does x prefer a over b?"* — is two array loads and a compare
//! ([`KPartiteInstance::prefers`]). Preference **lists** (best-to-worst
//! member indices, `u32`) and **rank tables** (member → position) are both
//! stored; the former drives proposal order, the latter drives acceptance
//! tests. The materialized bipartite and k-partite rank tables are
//! half-width (`u16`), which caps `n` at [`CSR_MAX_N`] = 65 536, and each
//! rank row is written in the same pass that validates its list.
//!
//! Members are index-based: a member of a k-partite instance is a
//! [`Member`] `{ gender, index }`; strings never appear in hot paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartite;
pub mod csr;
pub mod delta;
pub mod error;
pub mod gen;
pub mod ids;
mod invert;
pub mod kpartite;
pub mod oracle;
pub mod roommates;
pub mod views;

#[cfg(feature = "serde")]
pub mod serde_support;

pub use bipartite::BipartiteInstance;
pub use csr::{CsrPrefs, CSR_MAX_N};
pub use delta::{DeltaSide, PrefDelta};
pub use error::PrefsError;
pub use ids::{GenderId, Member, Rank, UNRANKED};
pub use kpartite::KPartiteInstance;
pub use oracle::{
    materialize_oracle, materialize_roommates, CachedRoommatesOracle, FeistelPerm, PrefOracle,
    RandomOracle, RandomRoommatesOracle, RoommatesOracle, ScoreOracle, SharedRoommates,
    Truncated, TruncatedRoommates, ORACLE_MAX_N, PROPOSAL_STRIP, WALK_LANES,
};
pub use roommates::{MergeStrategy, RoommatesInstance};
pub use views::{BipartitePrefs, KPartitePairView, ResponderListSlice, ReverseView};
