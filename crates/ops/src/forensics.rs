//! The forensic attachment of the operator plane: the worker lanes, the
//! shared profile, and postmortem-bundle policy.
//!
//! [`OpsState`](crate::state::OpsState) is built once at serve start;
//! the forensic substrate arrives later (after the worker count is
//! known), so it attaches as a [`ForensicsPlane`] — one immutable bag of
//! `Arc`s the HTTP handlers, the watchdog ticker, and the panic hook all
//! read. Everything in it is lock-free on the solver side: each worker
//! writes its one seqlock lane (progress and open-span stack); the plane
//! only ever snapshots.

use std::path::PathBuf;
use std::sync::Arc;

use kmatch_forensics::{ProbeSet, SharedProfile};

/// Everything the operator plane needs to answer `GET /progress`,
/// `GET /profile`, and to assemble postmortem bundles.
#[derive(Clone)]
pub struct ForensicsPlane {
    /// Per-worker lanes (what the workers' `Probed` observers publish
    /// into; the watchdog's heartbeats and the sampler's subjects).
    pub probes: Arc<ProbeSet>,
    /// The sampler thread's shared aggregate.
    pub profile: Arc<SharedProfile>,
    /// Directory postmortem bundles are written into; `None` disables
    /// bundle writing (endpoints still serve).
    pub postmortem_dir: Option<PathBuf>,
    /// RNG seed of the run, echoed into bundles.
    pub seed: Option<u64>,
    /// Run configuration (flags, sizes, modes), echoed into bundles.
    pub config: Vec<(String, String)>,
}

impl ForensicsPlane {
    /// A plane with `workers` lanes, an empty profile, and no bundle
    /// directory.
    pub fn new(workers: usize) -> Self {
        ForensicsPlane {
            probes: Arc::new(ProbeSet::new(workers)),
            profile: Arc::new(SharedProfile::new()),
            postmortem_dir: None,
            seed: None,
            config: Vec::new(),
        }
    }

    /// Arm postmortem bundle writing under `dir`.
    pub fn with_postmortem_dir(mut self, dir: PathBuf) -> Self {
        self.postmortem_dir = Some(dir);
        self
    }

    /// Record the run's RNG seed for bundles.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Record a run-configuration pair for bundles.
    pub fn with_config(mut self, key: &str, value: impl ToString) -> Self {
        self.config.push((key.to_string(), value.to_string()));
        self
    }
}

impl std::fmt::Debug for ForensicsPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForensicsPlane")
            .field("lanes", &self.probes.len())
            .field("postmortem_dir", &self.postmortem_dir)
            .field("seed", &self.seed)
            .finish()
    }
}
