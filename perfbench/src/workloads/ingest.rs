//! `ingest_json`: the bytes-in path. One op is one JSON document, handled
//! from in-memory bytes with the calls the CLI makes for it. Documents
//! alternate between
//!
//! * a bipartite instance array, as `kmatch batch --input … --threads 2
//!   --metrics-out` handles it: parse to a value tree, build each
//!   `BipartiteInstance`, solve through the metered stealing executor,
//!   render the `RunReport`;
//! * a k-partite instance (k = 4, path tree), as `kmatch solve kary
//!   --input … --out` handles it: parse, build the `KPartiteInstance`,
//!   `bind_with_stats`, `find_blocking_family` and `family_cost`, render
//!   the matching JSON.
//!
//! Outputs are rendered into memory instead of a file, so disk speed stays
//! out of the figures. The documents are a fixed pool generated from the
//! workload seed; the ops cycle over it.

use kmatch_core::{bind_with_stats, family_cost, find_blocking_family};
use kmatch_graph::BindingTree;
use kmatch_obs::{BatchRegistry, RunReport, StdClock};
use kmatch_parallel::{solve_batch_stealing_metered, steal_seed, StealReport};
use kmatch_prefs::serde_support::{BipartiteDto, KPartiteDto};
use kmatch_prefs::{BipartiteInstance, KPartiteInstance};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Value};

use crate::check::{self, Digest};
use crate::runner::Workload;
use crate::tracer::{Layer, Tracer};
use crate::workloads::{random_lists, traced_executor};

pub const THREADS: usize = 2;
/// Instances per bipartite document, and their size.
pub const BIPARTITE_COUNT: usize = 4;
pub const BIPARTITE_N: usize = 430;
/// Genders and members per gender of a k-partite document. Both kinds
/// cost about the same per op (8·430² and 12·375² numbers, about 7 MB of
/// JSON each), so the op-time median is not split between two clusters.
pub const K: usize = 4;
pub const KARY_N: usize = 375;
/// Documents in the pool (half of each kind; also the fixed set).
pub const DOCS: u64 = 4;

enum Source {
    Bipartite(Vec<BipartiteInstance>),
    Kary(KPartiteInstance),
}

/// One pooled document: its bytes, and the checker's own build of the
/// lists it was generated from.
struct Doc {
    bytes: Vec<u8>,
    source: Source,
}

pub struct Ingest {
    docs: Vec<Doc>,
    tree: BindingTree,
    /// Where rendered outputs go.
    sink: Vec<u8>,
    /// Executor reports and output bytes of the traced ops.
    pub reports: Vec<StealReport>,
    pub output_bytes: u64,
}

pub enum Out {
    Bipartite {
        outcomes: Vec<kmatch_gs::GsOutcome>,
        tasks: u64,
        report: String,
    },
    Kary {
        tuples: Vec<Vec<u32>>,
        proposals: u64,
        stable: bool,
        output: String,
    },
}

impl Ingest {
    pub fn new(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1A6E_5700);
        let docs = (0..DOCS)
            .map(|d| {
                if d % 2 == 0 {
                    let dtos: Vec<BipartiteDto> = (0..BIPARTITE_COUNT)
                        .map(|_| BipartiteDto {
                            n: BIPARTITE_N,
                            proposers: random_lists(BIPARTITE_N, BIPARTITE_N, &mut rng),
                            responders: random_lists(BIPARTITE_N, BIPARTITE_N, &mut rng),
                        })
                        .collect();
                    let bytes = serde_json::to_string(&dtos)
                        .expect("serializable")
                        .into_bytes();
                    let insts = dtos
                        .iter()
                        .map(|d| BipartiteInstance::from_lists(&d.proposers, &d.responders))
                        .collect::<Result<_, _>>()
                        .expect("generated lists are permutations");
                    Doc {
                        bytes,
                        source: Source::Bipartite(insts),
                    }
                } else {
                    let lists: Vec<Vec<Vec<Vec<u32>>>> = (0..K)
                        .map(|g| {
                            (0..KARY_N)
                                .map(|_| {
                                    (0..K)
                                        .map(|h| {
                                            if h == g {
                                                Vec::new()
                                            } else {
                                                random_lists(1, KARY_N, &mut rng).remove(0)
                                            }
                                        })
                                        .collect()
                                })
                                .collect()
                        })
                        .collect();
                    let inst = KPartiteInstance::from_lists(&lists).expect("generated lists");
                    let dto = KPartiteDto {
                        k: K,
                        n: KARY_N,
                        lists,
                    };
                    let bytes = serde_json::to_string(&dto)
                        .expect("serializable")
                        .into_bytes();
                    Doc {
                        bytes,
                        source: Source::Kary(inst),
                    }
                }
            })
            .collect();
        Ingest {
            docs,
            tree: BindingTree::path(K),
            sink: Vec::new(),
            reports: Vec::new(),
            output_bytes: 0,
        }
    }

    /// The program-side set-up: the metrics registry and clock the batch
    /// front-end creates. Timed over a block because one takes nanoseconds.
    pub fn setup() -> f64 {
        const BLOCK: u32 = 10_000;
        let t0 = std::time::Instant::now();
        for _ in 0..BLOCK {
            std::hint::black_box((BatchRegistry::new(), StdClock::new()));
        }
        t0.elapsed().as_secs_f64() / BLOCK as f64
    }

    pub fn doc_bytes(&self, i: u64) -> u64 {
        self.docs[(i % DOCS) as usize].bytes.len() as u64
    }

    fn write(&mut self, text: &str) {
        self.sink.clear();
        self.sink.extend_from_slice(text.as_bytes());
        std::hint::black_box(&self.sink);
    }
}

/// Run `f` inside a span when tracing.
fn span<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    layer: Layer,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(tr) => {
            tr.begin(name, layer, 0);
            let out = f();
            tr.end();
            out
        }
        None => f(),
    }
}

fn text(bytes: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(bytes).map_err(|e| e.to_string())
}

impl Workload for Ingest {
    type Out = Out;
    const UNIT: &'static str = "documents";

    fn units(&self, _i: u64) -> u64 {
        1
    }

    fn fixed_ops(&self) -> u64 {
        DOCS
    }

    fn input_id(&self, i: u64) -> Option<u64> {
        Some(i % DOCS)
    }

    fn op(&mut self, i: u64, mut tr: Option<&mut Tracer>) -> Result<Out, String> {
        let d = (i % DOCS) as usize;
        let bytes = std::mem::take(&mut self.docs[d].bytes);
        let out = match self.docs[d].source {
            Source::Bipartite(_) => self.bipartite(&bytes, &mut tr),
            Source::Kary(_) => self.kary(&bytes, &mut tr),
        };
        self.docs[d].bytes = bytes;
        out
    }

    fn check(&mut self, i: u64, out: &Out) -> Result<(), String> {
        match (&self.docs[(i % DOCS) as usize].source, out) {
            (
                Source::Bipartite(insts),
                Out::Bipartite {
                    outcomes, report, ..
                },
            ) => {
                if insts.len() != outcomes.len() {
                    return Err(format!(
                        "{} outcomes for {} instances",
                        outcomes.len(),
                        insts.len()
                    ));
                }
                for (inst, o) in insts.iter().zip(outcomes) {
                    check::bipartite_stable(inst, &check::proposer_partners(&o.matching))?;
                }
                RunReport::validate_json_str(report).map(drop)
            }
            (
                Source::Kary(inst),
                Out::Kary {
                    tuples,
                    proposals,
                    stable,
                    output,
                },
            ) => {
                if !stable {
                    return Err("the program reported its own matching unstable".into());
                }
                let written: Vec<Vec<u32>> =
                    serde_json::from_str(output).map_err(|e| format!("output JSON: {e}"))?;
                if &written != tuples {
                    return Err("written matching differs from the computed one".into());
                }
                check::kary_stable(inst, self.tree.edges(), tuples, *proposals)
            }
            _ => Err("output kind does not match the document kind".into()),
        }
    }

    fn digest(&self, out: &Out) -> u64 {
        let mut d = Digest::default();
        match out {
            Out::Bipartite { outcomes, .. } => {
                for o in outcomes {
                    d.words(o.matching.pairs().map(|(_, w)| w))
                        .word(o.stats.proposals);
                }
            }
            Out::Kary {
                output,
                proposals,
                stable,
                ..
            } => {
                d.bytes(output.as_bytes())
                    .word(*proposals)
                    .word(*stable as u64);
            }
        }
        d.finish()
    }

    fn counters(&self, out: &Out) -> Vec<(&'static str, u64)> {
        match out {
            Out::Bipartite {
                outcomes, tasks, ..
            } => vec![
                (
                    "gs.proposals",
                    outcomes.iter().map(|o| o.stats.proposals).sum(),
                ),
                (
                    "gs.rounds",
                    outcomes.iter().map(|o| o.stats.rounds as u64).sum(),
                ),
                ("parallel.tasks", *tasks),
            ],
            Out::Kary { proposals, .. } => vec![("core.bind_proposals", *proposals)],
        }
    }
}

impl Ingest {
    /// `batch --input FILE --threads 2 --metrics-out FILE`.
    fn bipartite(&mut self, bytes: &[u8], tr: &mut Option<&mut Tracer>) -> Result<Out, String> {
        let items = span(
            tr,
            "prefs.parse",
            Layer::Prefs,
            || match serde_json::from_str::<Value>(text(bytes)?) {
                Ok(Value::Array(items)) => Ok(items),
                Ok(_) => Err("expected a JSON array of instances".to_string()),
                Err(e) => Err(e.to_string()),
            },
        )?;
        // The value tree is freed inside the build span, which consumes it.
        let batch = span(tr, "prefs.build", Layer::Prefs, move || {
            items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    BipartiteDto::from_value(item)
                        .map_err(|e| e.to_string())
                        .and_then(|d| BipartiteInstance::try_from(d).map_err(|e| e.to_string()))
                        .map_err(|e| format!("element {i}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        let registry = BatchRegistry::new();
        let clock = StdClock::new();
        let count = batch.len();
        let n = batch.iter().map(|i| i.n()).max().unwrap_or(0);
        let start = std::time::Instant::now();
        let solve =
            || solve_batch_stealing_metered(&batch, THREADS, steal_seed(), &registry, &clock);
        let (outcomes, executor) = match tr.as_deref_mut() {
            Some(tr) => traced_executor(tr, "parallel.batch", "gs.solve", solve),
            None => solve(),
        };
        let wall_ns = start.elapsed().as_nanos() as u64;
        let tasks = executor.task_count as u64;
        let report = span(tr, "obs.output_write", Layer::Obs, || {
            let text = RunReport::new("gs", n, count, 0, THREADS, wall_ns, registry.take(), None)
                .with_executor(executor.to_section())
                .to_json_string();
            self.write(&text);
            text
        });
        if tr.is_some() {
            self.output_bytes += report.len() as u64;
            self.reports.push(executor);
        }
        Ok(Out::Bipartite {
            outcomes,
            tasks,
            report,
        })
    }

    /// `solve kary --input FILE --tree path --out FILE`.
    fn kary(&mut self, bytes: &[u8], tr: &mut Option<&mut Tracer>) -> Result<Out, String> {
        let dto = span(tr, "prefs.parse", Layer::Prefs, || {
            serde_json::from_str::<KPartiteDto>(text(bytes)?).map_err(|e| e.to_string())
        })?;
        let inst = span(tr, "prefs.build", Layer::Prefs, || {
            KPartiteInstance::try_from(dto).map_err(|e| e.to_string())
        })?;
        let tree = &self.tree;
        let out = span(tr, "core.bind", Layer::Core, || {
            bind_with_stats(&inst, tree)
        });
        let stable = span(tr, "core.check", Layer::Core, || {
            let stable = find_blocking_family(&inst, &out.matching).is_none();
            std::hint::black_box(family_cost(&inst, &out.matching));
            stable
        });
        let (tuples, output) = span(tr, "obs.output_write", Layer::Obs, || {
            let tuples = out.matching.to_tuples();
            let json = serde_json::to_string_pretty(&tuples).map_err(|e| e.to_string())?;
            self.write(&json);
            Ok::<_, String>((tuples, json))
        })?;
        if tr.is_some() {
            self.output_bytes += output.len() as u64;
        }
        Ok(Out::Kary {
            tuples,
            proposals: out.total_proposals(),
            stable,
            output,
        })
    }
}
