//! `gs_batch`: the `kmatch batch --threads 2` executor path.
//!
//! One op is one round of `solve_batch_stealing` calls over three prebuilt
//! batches, with the instance types the CLI hands the executor:
//! materialized `BipartiteInstance`s at n = 256 (a working set that fits
//! in L2) and n = 2000 (64 MB each), and lazy `RandomOracle`s at
//! n = 10⁵ (O(n) state, `kmatch batch --prefs random`).

use kmatch_gs::GsOutcome;
use kmatch_parallel::{solve_batch_stealing, steal_seed, StealReport};
use kmatch_prefs::{BipartiteInstance, RandomOracle};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::check::{self, Digest};
use crate::hooks::CountingPrefs;
use crate::runner::Workload;
use crate::tracer::Tracer;
use crate::workloads::{random_lists, traced_executor};

pub const THREADS: usize = 2;

/// One batch: members per side, instances, and the spans of its executor
/// call and of the GS work inside it.
pub struct Batch {
    pub n: usize,
    pub count: usize,
    span: &'static str,
    gs_span: &'static str,
}

pub const SMALL: Batch = Batch {
    n: 256,
    count: 64,
    span: "parallel.batch.n256",
    gs_span: "gs.solve.n256",
};
pub const MID: Batch = Batch {
    n: 2000,
    count: 4,
    span: "parallel.batch.n2000",
    gs_span: "gs.solve.n2000",
};
pub const LAZY: Batch = Batch {
    n: 100_000,
    count: 2,
    span: "parallel.batch.lazy",
    gs_span: "gs.solve.lazy",
};
/// Rounds in the fixed set.
pub const FIXED_ROUNDS: u64 = 8;

pub struct GsBatch {
    seed: u64,
    small: Vec<BipartiteInstance>,
    mid: Vec<BipartiteInstance>,
    lazy: Vec<RandomOracle>,
    /// The lazy batch behind probe counters, built for the traced pass.
    counted: Vec<CountingPrefs<RandomOracle>>,
    /// Executor reports of the traced ops.
    pub reports: Vec<StealReport>,
}

/// Outcomes of one round, batch by batch, and the executor tasks run.
pub struct Out {
    outs: Vec<Vec<GsOutcome>>,
    tasks: u64,
}

fn lazy_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

impl GsBatch {
    /// Generate the batches from the workload seed. Returns the workload
    /// and the seconds the program spent building them (rank tables from
    /// lists, oracle construction); list generation is excluded.
    pub fn build(seed: u64) -> (Self, f64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6753_BA7C);
        let mut spent = 0.0;
        let mut materialize = |n: usize, count: usize, spent: &mut f64| {
            (0..count)
                .map(|_| {
                    let (side0, side1) =
                        (random_lists(n, n, &mut rng), random_lists(n, n, &mut rng));
                    let t0 = std::time::Instant::now();
                    let inst = BipartiteInstance::from_lists(&side0, &side1)
                        .expect("generated lists are permutations");
                    *spent += t0.elapsed().as_secs_f64();
                    inst
                })
                .collect::<Vec<_>>()
        };
        let small = materialize(SMALL.n, SMALL.count, &mut spent);
        let mid = materialize(MID.n, MID.count, &mut spent);
        let t0 = std::time::Instant::now();
        let lazy: Vec<RandomOracle> = (0..LAZY.count)
            .map(|i| RandomOracle::new(LAZY.n, lazy_seed(seed, i)))
            .collect();
        spent += t0.elapsed().as_secs_f64();
        let w = GsBatch {
            seed,
            small,
            mid,
            lazy,
            counted: Vec::new(),
            reports: Vec::new(),
        };
        (w, spent)
    }

    /// Wrap the lazy batch in probe counters for the traced pass.
    pub fn count_probes(&mut self) {
        self.counted = (0..LAZY.count)
            .map(|i| CountingPrefs::new(RandomOracle::new(LAZY.n, lazy_seed(self.seed, i))))
            .collect();
    }

    pub fn probes(&self) -> u64 {
        self.counted.iter().map(CountingPrefs::probes).sum()
    }

    /// One-thread solve time of one round, the base of
    /// `parallel.efficiency` (same instances as the traced pass).
    pub fn serial_round_s(&self) -> f64 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(solve_batch_stealing(&self.small, 1, steal_seed()));
        std::hint::black_box(solve_batch_stealing(&self.mid, 1, steal_seed()));
        std::hint::black_box(solve_batch_stealing(&self.counted, 1, steal_seed()));
        t0.elapsed().as_secs_f64()
    }

    /// `n·ln n` summed over one round's instances: the Mertens scale of
    /// the proposal count.
    pub fn nlogn_per_round() -> f64 {
        [SMALL, MID, LAZY]
            .iter()
            .map(|b| b.count as f64 * b.n as f64 * (b.n as f64).ln())
            .sum()
    }
}

impl Workload for GsBatch {
    type Out = Out;
    const UNIT: &'static str = "instances";

    fn units(&self, _i: u64) -> u64 {
        (SMALL.count + MID.count + LAZY.count) as u64
    }

    fn fixed_ops(&self) -> u64 {
        FIXED_ROUNDS
    }

    fn input_id(&self, _i: u64) -> Option<u64> {
        Some(0)
    }

    fn op(&mut self, _i: u64, mut tr: Option<&mut Tracer>) -> Result<Out, String> {
        let seed = steal_seed();
        let traced = tr.is_some();
        let mut call = |b: &Batch, solve: &dyn Fn() -> (Vec<GsOutcome>, StealReport)| match tr
            .as_deref_mut()
        {
            Some(tr) => traced_executor(tr, b.span, b.gs_span, solve),
            None => solve(),
        };
        let (small, mid, lazy, counted) = (&self.small, &self.mid, &self.lazy, &self.counted);
        let runs = [
            call(&SMALL, &|| solve_batch_stealing(small, THREADS, seed)),
            call(&MID, &|| solve_batch_stealing(mid, THREADS, seed)),
            if traced {
                call(&LAZY, &|| solve_batch_stealing(counted, THREADS, seed))
            } else {
                call(&LAZY, &|| solve_batch_stealing(lazy, THREADS, seed))
            },
        ];
        let tasks = runs.iter().map(|(_, r)| r.task_count as u64).sum();
        let mut outs = Vec::with_capacity(runs.len());
        for (o, r) in runs {
            outs.push(o);
            if traced {
                self.reports.push(r);
            }
        }
        Ok(Out { outs, tasks })
    }

    fn check(&mut self, _i: u64, out: &Out) -> Result<(), String> {
        let [small, mid, lazy] = &out.outs[..] else {
            return Err("expected three batches".into());
        };
        let pairs = |o: &GsOutcome| check::proposer_partners(&o.matching);
        for (inst, o) in self.small.iter().zip(small).chain(self.mid.iter().zip(mid)) {
            check::bipartite_stable(inst, &pairs(o))?;
        }
        for (inst, o) in self.lazy.iter().zip(lazy) {
            check::bipartite_stable(inst, &pairs(o))?;
        }
        let sizes = [small.len(), mid.len(), lazy.len()];
        if sizes != [SMALL.count, MID.count, LAZY.count] {
            return Err(format!("batch sizes {sizes:?}"));
        }
        Ok(())
    }

    fn digest(&self, out: &Out) -> u64 {
        let mut d = Digest::default();
        for o in out.outs.iter().flatten() {
            d.words(o.matching.pairs().map(|(_, w)| w))
                .word(o.stats.proposals)
                .word(o.stats.rounds as u64);
        }
        d.finish()
    }

    fn counters(&self, out: &Out) -> Vec<(&'static str, u64)> {
        let all = || out.outs.iter().flatten();
        vec![
            ("gs.proposals", all().map(|o| o.stats.proposals).sum()),
            ("gs.rounds", all().map(|o| o.stats.rounds as u64).sum()),
            ("parallel.tasks", out.tasks),
        ]
    }
}
