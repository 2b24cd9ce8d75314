//! `smp_updates`: writes beside reads on one bipartite session, the path
//! of `kmatch delta`. One op is `IncrementalGs::apply(delta)` then
//! `IncrementalGs::solve_metered`, on an n = 2000 session.
//!
//! The seeded delta stream mixes adjacent swaps, `set_row` rewrites and
//! splices; every fifth delta instead reverts the previous one, returning
//! the instance to a state the session has already solved. The generator
//! tracks a hash of every state it has produced and redraws any ordinary
//! delta that would revisit one, so exactly the reverts hit the session's
//! `SolveCache`.
//!
//! Each op is checked as `kmatch delta` checks it: the arena is reloaded
//! from the independently updated instance and solved cold, and the warm
//! matching must equal the cold one; a blocking-pair scan follows. That
//! reload dominates a run's wall time, so the timed ops are spread out
//! and a preempted op is rare.

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

use kmatch_gs::{GsOutcome, GsWorkspace};
use kmatch_incremental::IncrementalGs;
use kmatch_obs::{Metrics, SolverMetrics};
use kmatch_prefs::{BipartiteInstance, CsrPrefs, DeltaSide, PrefDelta};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::check::{self, Digest};
use crate::hooks::Hooks;
use crate::runner::Workload;
use crate::tracer::{Layer, Tracer};
use crate::workloads::random_lists;

pub const N: usize = 2000;
/// Every `REVERT_EVERY`-th delta is a revert: a 20% revert share.
pub const REVERT_EVERY: u64 = 5;
/// Deltas in the fixed set.
pub const FIXED_DELTAS: u64 = 100;
/// Rows an ordinary delta avoids: the last few it touched.
const RECENT_ROWS: usize = 8;

/// The seeded delta stream and the instance state it implies. `shadow`
/// is the instance after every delta generated so far (the checker reads
/// it); per-row hashes give an O(n)-updatable hash of the whole state.
struct Stream {
    rng: ChaCha8Rng,
    shadow: BipartiteInstance,
    row_hash: Vec<u64>,
    state: u64,
    seen: HashSet<u64>,
    /// Side, row and pre-image of the last ordinary delta (what a revert
    /// restores).
    undo: Option<(DeltaSide, u32, Vec<u32>)>,
    recent: VecDeque<(DeltaSide, u32)>,
}

fn row_of(inst: &BipartiteInstance, side: DeltaSide, row: u32) -> &[u32] {
    match side {
        DeltaSide::Proposer => inst.proposer_list(row),
        DeltaSide::Responder => inst.responder_list(row),
    }
}

fn slot(side: DeltaSide, row: u32) -> usize {
    match side {
        DeltaSide::Proposer => row as usize,
        DeltaSide::Responder => N + row as usize,
    }
}

fn hash_row(side: DeltaSide, row: u32, list: &[u32]) -> u64 {
    let mut d = Digest::default();
    d.word(slot(side, row) as u64).words(list.iter().copied());
    d.finish()
}

impl Stream {
    fn new(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_DE17);
        let (side0, side1) = (random_lists(N, N, &mut rng), random_lists(N, N, &mut rng));
        let shadow = BipartiteInstance::from_lists(&side0, &side1)
            .expect("generated lists are permutations");
        let mut row_hash = vec![0u64; 2 * N];
        for side in [DeltaSide::Proposer, DeltaSide::Responder] {
            for row in 0..N as u32 {
                row_hash[slot(side, row)] = hash_row(side, row, row_of(&shadow, side, row));
            }
        }
        let state = row_hash.iter().fold(0, |a, h| a ^ h);
        Stream {
            rng,
            shadow,
            row_hash,
            state,
            seen: HashSet::from([state]),
            undo: None,
            recent: VecDeque::new(),
        }
    }

    /// Apply `delta` to the shadow and return the new state hash.
    fn apply(&mut self, delta: &PrefDelta) -> u64 {
        self.shadow
            .apply_delta(delta)
            .expect("generated deltas are valid");
        let (side, row) = (delta.side(), delta.row());
        let h = hash_row(side, row, row_of(&self.shadow, side, row));
        let k = slot(side, row);
        self.state ^= self.row_hash[k] ^ h;
        self.row_hash[k] = h;
        self.state
    }

    fn random_delta(&mut self) -> PrefDelta {
        let rng = &mut self.rng;
        let (side, row) = loop {
            let side = if rng.gen_bool(0.5) {
                DeltaSide::Proposer
            } else {
                DeltaSide::Responder
            };
            let row = rng.gen_range(0..N as u32);
            if !self.recent.contains(&(side, row)) {
                break (side, row);
            }
        };
        match rng.gen_range(0..3u32) {
            0 => {
                let a = rng.gen_range(0..N as u32 - 1);
                PrefDelta::Swap {
                    side,
                    row,
                    a,
                    b: a + 1,
                }
            }
            1 => PrefDelta::SetRow {
                side,
                row,
                prefs: random_lists(1, N, rng).remove(0),
            },
            _ => {
                let from = rng.gen_range(0..N as u32);
                let to = (from + rng.gen_range(1..N as u32)) % N as u32;
                PrefDelta::Splice {
                    side,
                    row,
                    from,
                    to,
                }
            }
        }
    }

    /// Delta `i` of the stream, already applied to the shadow.
    fn next(&mut self, i: u64) -> PrefDelta {
        if i % REVERT_EVERY == REVERT_EVERY - 1 {
            let (side, row, prefs) = self
                .undo
                .take()
                .expect("a revert follows an ordinary delta");
            let delta = PrefDelta::SetRow { side, row, prefs };
            let state = self.apply(&delta);
            debug_assert!(self.seen.contains(&state));
            return delta;
        }
        loop {
            let delta = self.random_delta();
            let (side, row) = (delta.side(), delta.row());
            let before = row_of(&self.shadow, side, row).to_vec();
            let state = self.apply(&delta);
            if self.seen.insert(state) {
                self.recent.push_back((side, row));
                if self.recent.len() > RECENT_ROWS {
                    self.recent.pop_front();
                }
                self.undo = Some((side, row, before));
                return delta;
            }
            // Would revisit a solved state: put the row back and redraw.
            self.apply(&PrefDelta::SetRow {
                side,
                row,
                prefs: before,
            });
        }
    }
}

pub struct Smp {
    seed: u64,
    stream: Stream,
    session: Option<IncrementalGs>,
    metrics: SolverMetrics,
    delta: Option<PrefDelta>,
    /// Warm proposals of engine runs against the cold solves of the same
    /// states.
    pub warm_proposals: u64,
    pub cold_proposals: u64,
    cold_csr: CsrPrefs,
    cold_ws: GsWorkspace,
}

pub struct Out {
    outcome: GsOutcome,
    hit: bool,
    warm: bool,
    fallback: bool,
}

/// The program-side set-up: `IncrementalGs::new` (CSR arena, row
/// fingerprints, cache) plus the first cold solve. Returns the session and
/// the seconds it took.
fn open_session(inst: BipartiteInstance, metrics: &mut SolverMetrics) -> (IncrementalGs, f64) {
    let t0 = Instant::now();
    let mut session = IncrementalGs::new(inst);
    std::hint::black_box(session.solve_metered(metrics));
    (session, t0.elapsed().as_secs_f64())
}

impl Smp {
    pub fn new(seed: u64) -> (Self, f64) {
        let stream = Stream::new(seed);
        let mut metrics = SolverMetrics::new();
        let (session, setup_s) = open_session(stream.shadow.clone(), &mut metrics);
        let w = Smp {
            seed,
            stream,
            session: Some(session),
            metrics,
            delta: None,
            warm_proposals: 0,
            cold_proposals: 0,
            cold_csr: CsrPrefs::new(),
            cold_ws: GsWorkspace::with_capacity(N),
        };
        (w, setup_s)
    }

    /// Set up the session again from the current (initial) state.
    pub fn reopen(&mut self) -> f64 {
        // Drop the old session first so two never coexist.
        self.session = None;
        let inst = self.stream.shadow.clone();
        self.metrics = SolverMetrics::new();
        let (session, setup_s) = open_session(inst, &mut self.metrics);
        self.session = Some(session);
        setup_s
    }

    /// A standalone `CsrPrefs::from_prefs` of the initial instance: the
    /// arena build inside `IncrementalGs::new`.
    pub fn csr_build_s(&self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(CsrPrefs::from_prefs(&self.stream.shadow));
        t0.elapsed().as_secs_f64()
    }
}

impl Workload for Smp {
    type Out = Out;
    const UNIT: &'static str = "deltas";

    fn units(&self, _i: u64) -> u64 {
        1
    }

    fn fixed_ops(&self) -> u64 {
        FIXED_DELTAS
    }

    fn input_id(&self, _i: u64) -> Option<u64> {
        None
    }

    fn prepare(&mut self, i: u64) {
        self.delta = Some(self.stream.next(i));
    }

    fn op(&mut self, _i: u64, tr: Option<&mut Tracer>) -> Result<Out, String> {
        let delta = self.delta.take().ok_or("no delta prepared")?;
        let Some(tr) = tr else {
            let session = self.session.as_mut().ok_or("no session")?;
            session.apply(&delta).map_err(|e| e.to_string())?;
            let m = &mut self.metrics;
            let before = (m.cache_hits, m.warm_solves, m.warm_fallbacks);
            let t0 = Instant::now();
            let outcome = session.solve_metered(m);
            m.solve_ns(t0.elapsed().as_nanos() as u64);
            return Ok(Out {
                outcome,
                hit: m.cache_hits > before.0,
                warm: m.warm_solves > before.1,
                fallback: m.warm_fallbacks > before.2,
            });
        };
        let session = self.session.as_mut().ok_or("no session")?;
        tr.begin("prefs.delta_apply", Layer::Prefs, 0);
        let applied = session.apply(&delta).map_err(|e| e.to_string());
        tr.end();
        applied?;
        tr.begin("incremental.solve", Layer::Incremental, 0);
        let mut hooks = Hooks::new(tr);
        let outcome = session.solve_metered(&mut hooks);
        let out = Out {
            outcome,
            hit: hooks.cache_hits > 0,
            warm: hooks.warm_resolves > 0,
            fallback: hooks.warm_fallbacks > 0,
        };
        hooks.finish();
        tr.end();
        Ok(out)
    }

    fn check(&mut self, _i: u64, out: &Out) -> Result<(), String> {
        let shadow = &self.stream.shadow;
        self.cold_csr.load(shadow);
        let cold = self.cold_ws.solve(&self.cold_csr);
        if cold.matching != out.outcome.matching {
            return Err("warm and cold matchings diverge".into());
        }
        if !out.hit {
            self.warm_proposals += out.outcome.stats.proposals;
            self.cold_proposals += cold.stats.proposals;
        }
        check::bipartite_stable(shadow, &check::proposer_partners(&out.outcome.matching))
    }

    fn digest(&self, out: &Out) -> u64 {
        let o = &out.outcome;
        let mut d = Digest::default();
        d.words(o.matching.pairs().map(|(_, w)| w))
            .word(o.stats.proposals)
            .word(out.hit as u64)
            .finish()
    }

    fn counters(&self, out: &Out) -> Vec<(&'static str, u64)> {
        vec![
            ("incremental.cache_hits", out.hit as u64),
            ("incremental.warm_resolves", out.warm as u64),
            ("incremental.warm_fallbacks", out.fallback as u64),
            ("gs.proposals", out.outcome.stats.proposals),
            ("gs.rounds", out.outcome.stats.rounds as u64),
        ]
    }

    fn restart(&mut self) {
        self.session = None;
        self.stream = Stream::new(self.seed);
        self.reopen();
    }
}
