//! `roommates_escalating`: the `kmatch solve roommates --n 20000` path.
//!
//! One op builds the lazy seeded oracle and runs the escalating truncated
//! driver through one reused workspace, exactly as `solve_roommates` in
//! the CLI does. The ops cycle over a fixed list of instance seeds drawn
//! from the workload seed. Random roommates instances at this size are
//! mostly unsolvable, so the partition-certificate path (a discarded
//! attempt, the deciding attempt, then `verify_partition`) is the common
//! case.

use kmatch_obs::{Clock, Metrics, SolverMetrics, StdClock};
use kmatch_prefs::CachedRoommatesOracle;
use kmatch_roommates::{
    solve_escalating_metered, CertKind, EscalationReport, RoommatesOutcome, RoommatesWorkspace,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::check::{self, Digest};
use crate::hooks::{self, CountingRoommates, Hooks};
use crate::runner::Workload;
use crate::tracer::{Layer, Tracer};

pub const N: usize = 20_000;
/// Distinct instances the ops cycle over (also the fixed set).
pub const INSTANCES: u64 = 6;

pub struct Roommates {
    seeds: Vec<u64>,
    ws: RoommatesWorkspace,
    /// Oracle probes and largest workspace arena of the traced ops.
    pub probes: u64,
    pub arena_bytes: usize,
}

pub struct Out {
    seed: u64,
    outcome: RoommatesOutcome,
    report: EscalationReport,
}

impl Roommates {
    pub fn new(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0A11_CE55);
        Roommates {
            seeds: (0..INSTANCES).map(|_| rng.gen()).collect(),
            ws: RoommatesWorkspace::new(),
            probes: 0,
            arena_bytes: 0,
        }
    }

    /// The program-side set-up: the state the CLI builds before its solve
    /// (an empty workspace, the metrics sink, the clock). Timed over a
    /// block of constructions because one takes nanoseconds.
    pub fn setup() -> f64 {
        const BLOCK: u32 = 10_000;
        let t0 = std::time::Instant::now();
        for _ in 0..BLOCK {
            std::hint::black_box((
                RoommatesWorkspace::new(),
                SolverMetrics::new(),
                StdClock::new(),
            ));
        }
        t0.elapsed().as_secs_f64() / BLOCK as f64
    }

    fn seed_of(&self, i: u64) -> u64 {
        self.seeds[(i % INSTANCES) as usize]
    }
}

impl Workload for Roommates {
    type Out = Out;
    const UNIT: &'static str = "instances";

    fn units(&self, _i: u64) -> u64 {
        1
    }

    fn fixed_ops(&self) -> u64 {
        INSTANCES
    }

    fn input_id(&self, i: u64) -> Option<u64> {
        Some(i % INSTANCES)
    }

    fn op(&mut self, i: u64, tr: Option<&mut Tracer>) -> Result<Out, String> {
        let seed = self.seed_of(i);
        let Some(tr) = tr else {
            let clock = StdClock::new();
            let oracle = CachedRoommatesOracle::new(N, seed);
            let mut metrics = SolverMetrics::new();
            let t0 = clock.now_ns();
            let (outcome, report) = solve_escalating_metered(&oracle, &mut self.ws, &mut metrics);
            metrics.solve_ns(clock.now_ns().saturating_sub(t0));
            std::hint::black_box(oracle.resident_bytes());
            return Ok(Out {
                seed,
                outcome,
                report,
            });
        };
        tr.begin("prefs.oracle_new", Layer::Prefs, seed);
        let oracle = CachedRoommatesOracle::new(N, seed);
        tr.end();
        let counting = CountingRoommates::new(&oracle);
        tr.begin("roommates.solve_escalating", Layer::Roommates, 0);
        let mut hooks = Hooks::new(tr);
        let (outcome, report) = solve_escalating_metered(&counting, &mut self.ws, &mut hooks);
        let attempts = hooks.finish();
        tr.end();
        // The last attempt decided unless the full-width solve did.
        for (k, &id) in attempts.iter().enumerate() {
            let deciding = k + 1 == attempts.len() && report.cert != CertKind::FullWidth;
            tr.rename(
                id,
                if deciding {
                    hooks::ATTEMPT_DECIDING
                } else {
                    hooks::ATTEMPT_WASTED
                },
            );
        }
        self.probes += counting.probes();
        self.arena_bytes = self.arena_bytes.max(report.arena_bytes);
        Ok(Out {
            seed,
            outcome,
            report,
        })
    }

    fn check(&mut self, _i: u64, out: &Out) -> Result<(), String> {
        let oracle = CachedRoommatesOracle::new(N, out.seed);
        match (&out.outcome, out.report.cert) {
            (RoommatesOutcome::Stable { matching, .. }, CertKind::Stable | CertKind::FullWidth) => {
                check::roommates_stable(&oracle, matching.partners())
            }
            (
                RoommatesOutcome::NoStableMatching { culprit, .. },
                CertKind::Partition | CertKind::FullWidth,
            ) => check::roommates_unsolvable(&oracle, out.report.final_cut, *culprit),
            (_, cert) => Err(format!("verdict does not match certificate {cert:?}")),
        }
    }

    fn digest(&self, out: &Out) -> u64 {
        let mut d = Digest::default();
        match &out.outcome {
            RoommatesOutcome::Stable { matching, .. } => {
                d.word(1).words(matching.partners().iter().copied());
            }
            RoommatesOutcome::NoStableMatching { culprit, .. } => {
                d.word(0).word(*culprit as u64);
            }
        }
        let r = &out.report;
        d.word(r.cert as u64)
            .word(r.attempts as u64)
            .word(r.final_cut as u64)
            .word(r.odd_parties as u64)
            .word(r.singletons as u64)
            .word(out.outcome.stats().proposals)
            .finish()
    }

    fn counters(&self, out: &Out) -> Vec<(&'static str, u64)> {
        vec![
            ("roommates.attempts", out.report.attempts as u64),
            ("roommates.final_cut", out.report.final_cut as u64),
            ("roommates.proposals", out.outcome.stats().proposals),
            (
                "roommates.partition_certs",
                u64::from(out.report.cert == CertKind::Partition),
            ),
        ]
    }

    fn restart(&mut self) {
        self.ws = RoommatesWorkspace::new();
    }
}
