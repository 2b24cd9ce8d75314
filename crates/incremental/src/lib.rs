//! # kmatch-incremental — incremental re-solving
//!
//! The solvers in `kmatch-gs` and `kmatch-core` are built for one-shot
//! throughput. Real workloads mutate: a member re-ranks one list and asks
//! for the new matching. Solving from scratch discards everything the
//! previous execution learned; this crate keeps it, at two layers:
//!
//! * [`IncrementalGs`] — a bipartite session over one CSR arena whose
//!   deltas cost O(changed window) and are classified against the
//!   previous deferred-acceptance execution: when every delta since it
//!   left its probes unchanged (the dead zone), the previous matching is
//!   replayed in O(n); otherwise the strip kernel solves cold. Recurring
//!   instance states short-circuit entirely through a content-addressed
//!   [`SolveCache`].
//! * [`IncrementalBinder`] — dirty-edge k-ary rebinding: each binding-tree
//!   edge is fingerprinted over the preference rows it reads, a rebind
//!   re-solves only dirty edges and reuses cached pair lists elsewhere
//!   (clean edges execute zero proposals), and only the union–find merge
//!   re-runs in full — ~`1/(k−1)` of the work for a one-gender-pair
//!   update.
//!
//! Content addressing is 128-bit fingerprinting ([`fingerprint`]): a
//! position-keyed sum over list cells for bipartite instances, which a
//! delta patches in O(changed window), and XOR-combined row hashes for
//! binding edges, patched in O(row). The cache ([`cache`]) is a bounded
//! FIFO keyed by those fingerprints.
//! Every layer is differentially tested byte-equal against its cold
//! counterpart, and every tier records `SolverMetrics` counters
//! (`cache_hits`/`cache_misses`/`cache_evictions`,
//! `edges_dirty`/`edges_clean`, `warm_solves`/`warm_fallbacks`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binder;
pub mod cache;
pub mod fingerprint;
pub mod gs;

pub use binder::IncrementalBinder;
pub use cache::{SolveCache, DEFAULT_CACHE_CAPACITY};
pub use fingerprint::{bipartite_fingerprint, hash_row_fp, Fp};
pub use gs::IncrementalGs;
