//! `kmatch` — command-line interface to the stable-matching library.
//!
//! ```text
//! kmatch gen kpartite  --k 4 --n 8 --seed 1 [--alpha 0.0] --out inst.json
//! kmatch gen theorem1  --k 3 --n 4 --out rm.json
//! kmatch solve kary    --input inst.json [--tree path|star|balanced|random|priority] [--seed 7]
//! kmatch solve binary  --input rm.json
//! kmatch solve smp     --n 16 --seed 3 [--mode gs|fair|man|woman]
//! kmatch verify kary   --input inst.json --matching matching.json [--weak]
//! ```

mod args;
mod opsio;
mod traceio;

use std::fs;
use std::io::Write;
use std::process::ExitCode;

use args::Args;
use kmatch_core::{
    bind_with_stats, family_cost, find_blocking_family, find_weak_blocking_family,
    priority_binding_tree, AttachChoice, GenderPriorities, KAryMatching,
};
use kmatch_graph::{random_tree, BindingTree};
use kmatch_gs::{gale_shapley, mean_proposer_rank, mean_responder_rank, GsWorkspace};
use kmatch_incremental::{IncrementalBinder, IncrementalGs, SolveCache};
use kmatch_obs::Metrics;
use kmatch_prefs::serde_support::{KPartiteDto, PrefDeltaDto, RoommatesDto};
use kmatch_prefs::{
    BipartiteInstance, CsrPrefs, GenderId, KPartiteInstance, Member, PrefDelta, RoommatesInstance,
};
use kmatch_roommates::kpartite::{solve_global_binary, KPartiteBinaryOutcome};
use kmatch_roommates::{fair_stable_marriage, oriented_stable_marriage, SmpOrientation};
use kmatch_trace::TraceTrack;
use opsio::OpsHandle;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use traceio::TraceOpts;

/// `println!` whose failure — a stdout closed early, say — ends the
/// enclosing command through its `Result` instead of a panic.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(stdout_error)?
    };
}

/// `print!` that fails like [`outln!`].
macro_rules! out {
    ($($arg:tt)*) => {
        write!(std::io::stdout(), $($arg)*).map_err(stdout_error)?
    };
}

fn stdout_error(e: std::io::Error) -> String {
    format!("stdout: {e}")
}

const USAGE: &str = "\
kmatch — stable matching beyond bipartite graphs (IPPS 2016 reproduction)

USAGE:
  kmatch gen kpartite  --k K --n N [--seed S] [--alpha A] [--out FILE]
  kmatch gen theorem1  --k K --n N [--out FILE]
  kmatch solve kary    --input FILE [--tree path|star|balanced|random|priority] [--seed S]
  kmatch solve binary  --input FILE
  kmatch solve smp     --n N [--seed S] [--mode gs|fair|man|woman]
                       [--prefs csr|random|scores|truncated] [--keep K]
                       [--trace-out FILE] [--trace-format chrome|json]
                       [--flight-recorder N]
  kmatch solve roommates --n N [--seed S]
                       [--metrics-out FILE] [--metrics-format json|prom]
  kmatch batch         [--n N] [--count C] [--seed S] [--kind gs|roommates]
                       [--prefs csr|random|scores|truncated] [--keep K]
                       [--input FILE]... [--cache on|off] [--threads T]
                       [--errors-out FILE]
                       [--metrics-out FILE] [--metrics-format json|prom]
                       [--trace-out FILE] [--trace-format chrome|json]
                       [--flight-recorder N]
  kmatch serve         --listen ADDR [--kind gs|roommates] [--n N] [--count C]
                       [--prefs csr|random] [--seed S] [--input FILE]...
                       [--interval-ms MS] [--iterations K]
                       [--flight-recorder N] [--postmortem-dir DIR]
                       [--sample-hz HZ] [--stall-ms MS]
                       [--inject-stall-ms MS]
  kmatch postmortem validate --input FILE     (check a postmortem bundle)
  kmatch postmortem inspect  --input FILE     (summarize a bundle)
  kmatch delta         --input FILE --deltas FILE [--metrics-out FILE]
                       [--trace-out FILE] [--trace-format chrome|json]
                       [--flight-recorder N]
  kmatch bind          --input FILE [--tree path|star|balanced|random|priority] [--seed S]
                       [--incremental true] [--updates FILE] [--metrics-out FILE]
                       [--trace-out FILE] [--trace-format chrome|json]
                       [--flight-recorder N]
  kmatch report validate --input FILE          (check an emitted RunReport)
  kmatch verify kary   --input FILE --matching FILE [--weak]
  kmatch lattice       --n N [--seed S] [--limit L]
  kmatch trace         --input FILE            (roommates JSON, paper-style trace)
  kmatch render-tree   --k K [--tree path|star|balanced|random|priority] [--seed S]

  batch --input takes a JSON array of instances (bipartite DTOs for
  --kind gs, roommates DTOs for --kind roommates) and may repeat; the
  arrays are concatenated in order. If any element fails to parse, the
  command exits nonzero; --errors-out writes a machine-readable
  per-index error summary either way. --metrics-out solves through the
  metered engines and writes a structured RunReport (counters, log2
  histograms, timing percentiles). --cache on (gs only) solves through
  the content-addressed cache and prints the hit rate. --threads T
  (gs and roommates) fans the batch across T workers of the
  deterministic work-stealing executor — outcomes are byte-identical
  for any T, and the per-worker steal/straggler report is printed and
  embedded in the RunReport; the steal schedule is seeded by
  KMATCH_STEAL_SEED.

  solve roommates runs the escalating truncated driver over the lazy
  seeded oracle: top-K sub-instances (the first cut K = 4*max(32,
  ceil(4*sqrt(n))), doubling on each certificate failure) solved until
  an outcome certifies for the complete instance, so n = 10^6 runs in
  O(n*K) probes instead of O(n^2). batch --kind roommates --prefs
  random sweeps seeded instances the same way.

  delta reads a bipartite instance plus a JSON array of preference
  deltas ({\"op\": \"set_row\"|\"swap\"|\"splice\", \"side\", \"row\", ...}) and
  replays them through the incremental session against a cold re-solve,
  reporting per-delta timings and proposal counts. Each line names the
  session's tier: cached (a state seen before), replay (every delta
  since the last engine run left the previous execution's probes
  unchanged, so its matching is reused) or cold (a fresh solve).

  bind --incremental true binds through the dirty-edge session;
  --updates FILE applies preference-row rewrites ({\"gender\", \"index\",
  \"target\", \"prefs\"}) and rebinds, reporting dirty vs clean edges.

  --prefs selects the preference backend. csr (default) materializes
  uniform random lists (O(n²) memory); random and scores are lazy
  oracles — preferences are computed on demand from the seed, so
  `solve smp --prefs random --n 1000000` runs in O(n) memory; truncated
  wraps the random oracle keeping only each side's top --keep K choices
  (mutually-unacceptable pairs stay unmatched). Lazy backends solve
  through the GS engine only (--mode gs) and print peak RSS; per-pair
  output is suppressed above n = 50.

  serve runs a continuous solve workload with the live operator plane
  armed: an HTTP server on --listen exposing GET /metrics (Prometheus
  text: solver counters/histograms, RSS, executor, rolling-window rate
  and quantile gauges), /healthz (liveness + last-solve age; 503 when a
  worker heartbeat stalls, naming the stalled lane's phase and cut),
  /report (latest kmatch.run_report/v1 JSON), /trace (drains the
  flight-recorder ring as Chrome trace JSON), /logs?n=K&level=L
  (structured kmatch.log/v1 JSONL tail, filtered to >= L severity),
  /progress (kmatch.progress/v1 per-worker probe snapshot: phase,
  round, proposals, escalation attempt and current cut), and /profile
  (collapsed span-stack text from the always-on sampling profiler,
  --sample-hz, 0 disables). Waves are seeded workloads (--n/--count,
  seed advances per wave) or repeated --input re-solves; --kind
  roommates --prefs random serves the escalating lazy-oracle driver, so
  n = 10^5-scale instances stream live escalation telemetry.
  --iterations 0 (default) runs until SIGINT, which shuts down
  gracefully. --postmortem-dir DIR arms forensic bundles: a watchdog
  stall (threshold --stall-ms) or a panic writes an atomic
  kmatch.postmortem/v1 bundle (drained trace ring, metrics + window
  snapshot, logs tail, progress snapshot, profile, seed/config/RSS)
  that `kmatch postmortem validate|inspect` reads back.
  --inject-stall-ms MS (escalating roommates only) freezes the first
  solve's first publish for MS — the CI hook proving the stall
  pipeline end to end. serve is the one live plane: batch and the
  other one-shot commands report through --metrics-out and --trace-out.

  --trace-out FILE records a span timeline of the solve (engine rounds,
  Irving phases, binding edges, cache hits) and exports it as Chrome
  trace-event JSON (--trace-format chrome, the default — load it at
  https://ui.perfetto.dev) or as the native kmatch.trace/v1 document
  (--trace-format json). --flight-recorder N records into a
  fixed-capacity ring that keeps only the newest N events (per worker
  chunk for batch). solve smp traces --mode gs only.
";

fn main() -> ExitCode {
    // Usage follows argument errors only; an error about the data a
    // command read is the one `error:` line.
    let (result, misused) = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => (run(&args), args.misused()),
        Err(e) => (Err(e), true),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if misused {
                eprintln!("error: {e}\n\n{USAGE}");
            } else {
                eprintln!("error: {e}");
            }
            ExitCode::FAILURE
        }
    }
}

/// A command's first word, its second word (`None`: any), and its handler.
type Command = (
    &'static str,
    Option<&'static str>,
    fn(&Args) -> Result<(), String>,
);

/// Every command [`run`] dispatches, in the order it tries them.
const COMMANDS: &[Command] = &[
    ("gen", Some("kpartite"), gen_kpartite),
    ("gen", Some("theorem1"), gen_theorem1),
    ("solve", Some("kary"), solve_kary),
    ("solve", Some("binary"), solve_binary),
    ("solve", Some("smp"), solve_smp),
    ("solve", Some("roommates"), solve_roommates),
    ("batch", None, batch_cmd),
    ("serve", None, serve_cmd),
    ("delta", None, delta_cmd),
    ("bind", None, bind_cmd),
    ("report", Some("validate"), report_validate),
    ("postmortem", Some("validate"), |args| {
        postmortem_cmd(args, false)
    }),
    ("postmortem", Some("inspect"), |args| {
        postmortem_cmd(args, true)
    }),
    ("verify", Some("kary"), verify_kary),
    ("lattice", None, lattice),
    ("trace", None, trace_cmd),
    ("render-tree", None, render_tree_cmd),
];

fn run(args: &Args) -> Result<(), String> {
    let (first, second) = (args.positional(0), args.positional(1));
    match COMMANDS
        .iter()
        .find(|(a, b, _)| first == Some(*a) && (b.is_none() || second == *b))
    {
        Some((_, _, command)) => command(args),
        None => Err(args.misuse("unrecognized command".to_string())),
    }
}

fn lattice(args: &Args) -> Result<(), String> {
    args.check_known(&["n", "seed", "limit"])?;
    let n: usize = args.require("n")?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let limit: usize = args.flag_or("limit", 100_000)?;
    check_min_n(n, 1)?;
    let inst =
        kmatch_prefs::gen::uniform::uniform_bipartite(n, &mut ChaCha8Rng::seed_from_u64(seed));
    let lattice = kmatch_gs::rotations::enumerate_stable_lattice(&inst, limit)?;
    outln!("stable matchings : {}", lattice.matchings.len());
    outln!("rotations fired  : {}", lattice.eliminations);
    let show = |name: &str, m: &kmatch_gs::BipartiteMatching| {
        outln!(
            "{name:<14}: men {:.2}, women {:.2}",
            mean_proposer_rank(&inst, m),
            mean_responder_rank(&inst, m)
        );
        Ok::<(), String>(())
    };
    show("man-optimal", &lattice.matchings[0])?;
    show("egalitarian", lattice.egalitarian(&inst))?;
    let (poly, _) = kmatch_gs::egalitarian_stable_matching(&inst);
    show("egal (min-cut)", &poly)?;
    show("sex-equal", lattice.sex_equal(&inst))?;
    show(
        "woman-optimal",
        &kmatch_gs::responder_optimal(&inst).matching,
    )
}

fn trace_cmd(args: &Args) -> Result<(), String> {
    args.check_known(&["input"])?;
    let input: String = args.require("input")?;
    let text = fs::read_to_string(&input).map_err(|e| format!("reading {input}: {e}"))?;
    let dto: RoommatesDto = serde_json::from_str(&text).map_err(|e| format!("{input}: {e}"))?;
    let inst = RoommatesInstance::try_from(dto).map_err(|e| format!("{input}: {e}"))?;
    let (outcome, events) = kmatch_roommates::solve_traced(&inst);
    let names = kmatch_viz::NameMap::numbered(inst.n(), "p");
    out!("{}", kmatch_viz::render_roommates_trace(&events, &names));
    match outcome.matching() {
        Some(m) => {
            let pairs: Vec<String> = m
                .pairs()
                .iter()
                .map(|&(a, b)| format!("({}, {})", names.of(a), names.of(b)))
                .collect();
            outln!("stable matching: {}", pairs.join(" "));
        }
        None => outln!("no stable matching"),
    }
    Ok(())
}

/// The binding tree over `k` genders that `--tree` names (default
/// `path`): `path`, `star`, `balanced`, `random` (seeded by `--seed`) or
/// `priority`. Every command that takes `--tree` parses it here.
fn parse_tree(args: &Args, k: usize) -> Result<BindingTree, String> {
    Ok(match args.flag("tree").unwrap_or("path") {
        "path" => BindingTree::path(k),
        "star" => BindingTree::star(k, (k - 1) as u16),
        "balanced" => BindingTree::balanced_binary(k),
        "random" => {
            let seed: u64 = args.flag_or("seed", 0)?;
            random_tree(k, &mut ChaCha8Rng::seed_from_u64(seed))
        }
        "priority" => priority_binding_tree(&GenderPriorities::by_id(k), AttachChoice::Chain),
        other => return Err(format!("unknown tree kind: {other}")),
    })
}

fn render_tree_cmd(args: &Args) -> Result<(), String> {
    args.check_known(&["k", "tree", "seed"])?;
    let k: usize = args.require("k")?;
    if k < 2 {
        return Err("need --k >= 2".to_string());
    }
    let tree = parse_tree(args, k)?;
    outln!("{tree}");
    out!("{}", kmatch_viz::render_tree(&tree));
    outln!(
        "Δ = {} → {} parallel rounds",
        tree.max_degree(),
        tree.max_degree()
    );
    Ok(())
}

fn write_out(args: &Args, json: String) -> Result<(), String> {
    match args.flag("out") {
        Some(path) => {
            fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        None => {
            outln!("{json}");
            Ok(())
        }
    }
}

fn gen_kpartite(args: &Args) -> Result<(), String> {
    args.check_known(&["k", "n", "seed", "alpha", "out"])?;
    let k: usize = args.require("k")?;
    let n: usize = args.require("n")?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let alpha: f64 = args.flag_or("alpha", 0.0)?;
    if k < 2 {
        return Err("need --k >= 2".to_string());
    }
    check_min_n(n, 1)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let inst = if alpha > 0.0 {
        kmatch_prefs::gen::correlated::correlated_kpartite(k, n, alpha, &mut rng)
    } else {
        kmatch_prefs::gen::uniform::uniform_kpartite(k, n, &mut rng)
    };
    let json =
        serde_json::to_string_pretty(&KPartiteDto::from(&inst)).map_err(|e| e.to_string())?;
    write_out(args, json)
}

fn gen_theorem1(args: &Args) -> Result<(), String> {
    args.check_known(&["k", "n", "out"])?;
    let k: usize = args.require("k")?;
    let n: usize = args.require("n")?;
    if k < 3 {
        return Err("theorem1 needs --k >= 3".to_string());
    }
    check_min_n(n, 1)?;
    let inst = kmatch_prefs::gen::adversarial::theorem1_roommates(k, n);
    let json =
        serde_json::to_string_pretty(&RoommatesDto::from(&inst)).map_err(|e| e.to_string())?;
    write_out(args, json)
}

fn load_kpartite(path: &str) -> Result<KPartiteInstance, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let dto: KPartiteDto = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    KPartiteInstance::try_from(dto).map_err(|e| format!("{path}: {e}"))
}

fn solve_kary(args: &Args) -> Result<(), String> {
    args.check_known(&["input", "tree", "seed", "out"])?;
    let input: String = args.require("input")?;
    let inst = load_kpartite(&input)?;
    let k = inst.k();
    let tree = parse_tree(args, k)?;
    let out = bind_with_stats(&inst, &tree);
    let stable = find_blocking_family(&inst, &out.matching).is_none();
    let cost = family_cost(&inst, &out.matching);
    outln!("binding tree : {tree}");
    let bound = (k - 1) * inst.n() * inst.n();
    outln!(
        "proposals    : {} (Theorem-3 bound (k-1)n^2 = {bound})",
        out.total_proposals()
    );
    outln!("stable       : {stable}");
    outln!("mean rank    : {:.3}", cost.mean_rank);
    for (f, tuple) in out.matching.to_tuples().iter().enumerate() {
        outln!("family {f:>3}  : {tuple:?}");
    }
    if args.flag("out").is_some() {
        let json =
            serde_json::to_string_pretty(&out.matching.to_tuples()).map_err(|e| e.to_string())?;
        write_out(args, json)?;
    }
    Ok(())
}

fn solve_binary(args: &Args) -> Result<(), String> {
    args.check_known(&["input"])?;
    let input: String = args.require("input")?;
    let text = fs::read_to_string(&input).map_err(|e| format!("reading {input}: {e}"))?;
    let dto: RoommatesDto = serde_json::from_str(&text).map_err(|e| format!("{input}: {e}"))?;
    let inst = RoommatesInstance::try_from(dto).map_err(|e| format!("{input}: {e}"))?;
    // Infer n-per-gender is unknown for a raw roommates file; report raw ids.
    match solve_global_binary(&inst, inst.n() as u32) {
        KPartiteBinaryOutcome::Stable { pairs, stats } => {
            outln!(
                "stable binary matching found ({} proposals):",
                stats.proposals
            );
            for (a, b) in pairs {
                outln!("  ({}, {})", a.index, b.index);
            }
        }
        KPartiteBinaryOutcome::NoStableMatching { culprit, stats } => {
            outln!(
                "no stable binary matching (participant {}'s reduced list emptied; {} proposals)",
                culprit.index,
                stats.proposals
            );
        }
    }
    Ok(())
}

/// Reject a `--n` below `min` before a generator is asked for an
/// instance that small: the generators need one agent per side, or two
/// roommates, and panic below that.
fn check_min_n(n: usize, min: usize) -> Result<(), String> {
    if n < min {
        return Err(format!("need --n >= {min}"));
    }
    Ok(())
}

/// Reject a `--n` the seeded lazy oracles cannot hold before anything is
/// sized for it: below `min`, or above [`kmatch_prefs::ORACLE_MAX_N`]
/// (agents and positions are `u32`).
fn check_lazy_n(n: usize, min: usize) -> Result<(), String> {
    use kmatch_prefs::ORACLE_MAX_N;
    check_min_n(n, min)?;
    if n > ORACLE_MAX_N {
        return Err(format!(
            "--n {n} exceeds the lazy oracle limit of {ORACLE_MAX_N}"
        ));
    }
    Ok(())
}

/// `solve roommates` over the lazy seeded oracle: the escalating
/// truncated driver of `kmatch_roommates::escalate` against
/// `CachedRoommatesOracle` (O(n) state, no list ever materialized), so
/// `--n 1000000` runs in O(n·K) probes and memory instead of the O(n²)
/// complete-table walk. The driver picks its own cuts and always returns
/// a certified verdict.
fn solve_roommates(args: &Args) -> Result<(), String> {
    use kmatch_obs::Clock;
    use kmatch_prefs::CachedRoommatesOracle;
    use kmatch_roommates::{
        solve_escalating_metered, CertKind, RoommatesOutcome, RoommatesWorkspace,
    };
    args.check_known(&["n", "seed", "metrics-out", "metrics-format"])?;
    let n: usize = args.require("n")?;
    check_lazy_n(n, 2)?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let clock = kmatch_obs::StdClock::new();
    let start = std::time::Instant::now();
    let oracle = CachedRoommatesOracle::new(n, seed);
    let mut ws = RoommatesWorkspace::new();
    let mut metrics = kmatch_obs::SolverMetrics::new();
    let t0 = clock.now_ns();
    let (outcome, report) = solve_escalating_metered(&oracle, &mut ws, &mut metrics);
    metrics.solve_ns(clock.now_ns().saturating_sub(t0));
    let elapsed = start.elapsed();
    outln!("instance       : n={n} seed={seed} (roommates, lazy random)");
    match &outcome {
        RoommatesOutcome::Stable { stats, .. } => {
            outln!("verdict        : stable ({} proposals)", stats.proposals);
        }
        RoommatesOutcome::NoStableMatching { culprit, .. } => {
            outln!("verdict        : no stable matching (culprit {culprit})");
        }
    }
    let cert = match report.cert {
        CertKind::Stable => "stable (self-certified)",
        CertKind::Partition => "stable partition (verified)",
        CertKind::FullWidth => "full-width solve",
    };
    outln!("certificate    : {cert}");
    outln!(
        "escalation     : {} truncated attempts, deciding cut {}",
        report.attempts,
        report.final_cut
    );
    if report.cert == CertKind::Partition {
        outln!(
            "partition      : {} odd parties, {} singletons",
            report.odd_parties,
            report.singletons
        );
    }
    outln!(
        "arena          : {} entries ({} bytes) + {} oracle bytes",
        report.arena_entries,
        report.arena_bytes,
        oracle.resident_bytes()
    );
    if let Some(rss) = kmatch_obs::peak_rss_bytes() {
        outln!("peak rss bytes : {rss}");
    }
    outln!("wall time      : {:.3} ms", elapsed.as_secs_f64() * 1e3);
    write_metrics(
        args,
        "roommates",
        n,
        1,
        seed,
        1,
        elapsed.as_nanos() as u64,
        metrics,
        None,
    )
}

fn solve_smp(args: &Args) -> Result<(), String> {
    args.check_known(&[
        "n",
        "seed",
        "mode",
        "prefs",
        "keep",
        "trace-out",
        "trace-format",
        "flight-recorder",
    ])?;
    let topts = TraceOpts::from_args(args)?;
    let n: usize = args.require("n")?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let mode = args.flag("mode").unwrap_or("gs");
    let prefs = args.flag("prefs").unwrap_or("csr");
    if prefs != "csr" {
        if mode != "gs" {
            return Err(
                "lazy --prefs backends solve through the GS engine only (--mode gs)".to_string(),
            );
        }
        if topts.enabled() {
            return Err("--trace-out requires --prefs csr".to_string());
        }
        return solve_smp_lazy(args, prefs, n, seed);
    }
    check_min_n(n, 1)?;
    let inst =
        kmatch_prefs::gen::uniform::uniform_bipartite(n, &mut ChaCha8Rng::seed_from_u64(seed));
    if topts.enabled() && mode != "gs" {
        return Err("--trace-out on solve smp is only supported for --mode gs".to_string());
    }
    let clock = kmatch_obs::StdClock::new();
    let mut sink = topts.enabled().then(|| topts.sink(&clock));
    let matching = match (mode, sink.as_mut()) {
        ("gs", Some(sink)) => {
            let mut ws = GsWorkspace::new();
            ws.solve_metered(&inst, sink).matching
        }
        ("gs", None) => gale_shapley(&inst).matching,
        ("fair", _) => fair_stable_marriage(&inst).matching,
        ("man", _) => oriented_stable_marriage(&inst, SmpOrientation::SeedFromWomen).matching,
        ("woman", _) => oriented_stable_marriage(&inst, SmpOrientation::SeedFromMen).matching,
        (other, _) => return Err(format!("unknown mode: {other}")),
    };
    if let Some(sink) = sink {
        topts.write(&TraceTrack::main(sink.into_events().0))?;
    }
    outln!("mode          : {mode}");
    outln!(
        "men mean rank : {:.3}",
        mean_proposer_rank(&inst, &matching)
    );
    outln!(
        "women mean rank: {:.3}",
        mean_responder_rank(&inst, &matching)
    );
    if n <= PAIR_PRINT_LIMIT {
        for (m, w) in matching.pairs() {
            outln!("  ({m}, {w})");
        }
    } else {
        outln!("  ({n} pairs suppressed; n > {PAIR_PRINT_LIMIT})");
    }
    Ok(())
}

/// Per-pair output is noise past this size; large-n runs get summary
/// statistics only.
const PAIR_PRINT_LIMIT: usize = 50;

/// `solve smp` over a lazy oracle backend: no O(n²) tables are built, so
/// `--n 1000000` is fine. Complete backends (`random`, `scores`) report
/// mean ranks without materializing lists — the proposer side falls out
/// of the proposal count (partner rank = own proposals − 1 under
/// proposer-optimal GS), the responder side is an O(n) oracle probe.
fn solve_smp_lazy(args: &Args, backend: &str, n: usize, seed: u64) -> Result<(), String> {
    use kmatch_prefs::{PrefOracle, RandomOracle, ScoreOracle, Truncated};
    check_lazy_n(n, 1)?;
    let mut ws = GsWorkspace::with_capacity(n);
    let start = std::time::Instant::now();
    match backend {
        "random" | "scores" => {
            let report = |out: &kmatch_gs::GsOutcome,
                          women_rank: f64,
                          arena: usize,
                          elapsed: std::time::Duration| {
                outln!("backend        : {backend} (lazy oracle)");
                outln!("proposals      : {}", out.stats.proposals);
                outln!(
                    "men mean rank  : {:.3}",
                    out.stats.proposals as f64 / n as f64 - 1.0
                );
                outln!("women mean rank: {women_rank:.3}");
                outln!("arena bytes    : {arena}");
                if let Some(rss) = kmatch_obs::peak_rss_bytes() {
                    outln!("peak rss bytes : {rss}");
                }
                outln!("wall time      : {:.3} ms", elapsed.as_secs_f64() * 1e3);
                Ok::<(), String>(())
            };
            let (out, women_rank, arena) = if backend == "random" {
                let oracle = RandomOracle::new(n, seed);
                let out = ws.solve(&oracle);
                let wr = (0..n as u32)
                    .map(|w| oracle.responder_rank(w, out.matching.partner_of_responder(w)) as f64)
                    .sum::<f64>()
                    / n as f64;
                (out, wr, ws.resident_bytes())
            } else {
                let oracle = ScoreOracle::seeded(n, seed);
                let out = ws.solve(&oracle);
                let wr = (0..n as u32)
                    .map(|w| oracle.responder_rank(w, out.matching.partner_of_responder(w)) as f64)
                    .sum::<f64>()
                    / n as f64;
                (out, wr, ws.resident_bytes() + oracle.resident_bytes())
            };
            report(&out, women_rank, arena, start.elapsed())?;
            if n <= PAIR_PRINT_LIMIT {
                for (m, w) in out.matching.pairs() {
                    outln!("  ({m}, {w})");
                }
            }
        }
        "truncated" => {
            let keep: u32 = args.flag_or("keep", 10)?;
            if keep == 0 {
                return Err("need --keep >= 1".to_string());
            }
            let oracle = Truncated::new(RandomOracle::new(n, seed), keep);
            let (partial, stats) = ws.solve_incomplete(&oracle);
            let elapsed = start.elapsed();
            let matched = partial.matched_proposers().len();
            outln!("backend        : truncated (lazy oracle, keep = {keep})");
            outln!("proposals      : {}", stats.proposals);
            outln!(
                "matched        : {matched} of {n} ({:.1}%)",
                100.0 * matched as f64 / n as f64
            );
            outln!("unmatched      : {}", n - matched);
            outln!("arena bytes    : {}", ws.resident_bytes());
            if let Some(rss) = kmatch_obs::peak_rss_bytes() {
                outln!("peak rss bytes : {rss}");
            }
            outln!("wall time      : {:.3} ms", elapsed.as_secs_f64() * 1e3);
            if n <= PAIR_PRINT_LIMIT {
                for (m, &w) in partial.partner_of_proposer.iter().enumerate() {
                    if w != kmatch_gs::incomplete::UNMATCHED {
                        outln!("  ({m}, {w})");
                    }
                }
            }
        }
        other => return Err(format!("unknown prefs backend: {other}")),
    }
    Ok(())
}

/// Parse `--input` (a JSON array) element-by-element so one malformed
/// instance reports its index instead of poisoning the whole file.
fn load_batch_elements(path: &str) -> Result<Vec<serde::Value>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    match serde_json::from_str::<serde::Value>(&text) {
        Ok(serde::Value::Array(items)) => Ok(items),
        Ok(_) => Err(format!("{path}: expected a JSON array of instances")),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// The instances of every `--input` file, in flag order: each element
/// read as a `D` and built into a `T`. A failed element is reported by
/// index, failing the batch, so pipelines can react; `--errors-out`
/// receives the machine-readable summary
/// `{"schema", "total", "failed", "errors": [{index, error}]}` either way.
fn read_batch<D, T>(args: &Args, paths: &[&str]) -> Result<Vec<T>, String>
where
    D: serde::Deserialize,
    T: TryFrom<D>,
    <T as TryFrom<D>>::Error: std::fmt::Display,
{
    use serde::Value;
    let mut items = Vec::new();
    for path in paths {
        items.extend(load_batch_elements(path)?);
    }
    let mut batch = Vec::with_capacity(items.len());
    let mut errors = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match D::from_value(item)
            .map_err(|e| e.to_string())
            .and_then(|d| T::try_from(d).map_err(|e| e.to_string()))
        {
            Ok(inst) => batch.push(inst),
            Err(e) => errors.push((i, e)),
        }
    }
    if let Some(path) = args.flag("errors-out") {
        let rows = errors
            .iter()
            .map(|(i, e)| {
                Value::Object(vec![
                    ("index".into(), Value::Number(*i as f64)),
                    ("error".into(), Value::String(e.clone())),
                ])
            })
            .collect();
        let summary = Value::Object(vec![
            (
                "schema".into(),
                Value::String("kmatch.batch_errors/v1".into()),
            ),
            ("total".into(), Value::Number(items.len() as f64)),
            ("failed".into(), Value::Number(errors.len() as f64)),
            ("errors".into(), Value::Array(rows)),
        ]);
        let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
        fs::write(path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    }
    match errors.first() {
        None => Ok(batch),
        Some((idx, first)) => Err(format!(
            "{} of {} batch instances failed to parse (first: index {idx}: {first})",
            errors.len(),
            items.len()
        )),
    }
}

/// Emit the RunReport when `--metrics-out` was given. `threads` is the
/// worker count the command actually used; `executor` attaches the
/// work-stealing straggler section when the batch ran through the
/// deterministic executor.
#[allow(clippy::too_many_arguments)]
fn write_metrics(
    args: &Args,
    kind: &str,
    n: usize,
    instances: usize,
    seed: u64,
    threads: usize,
    wall_ns: u64,
    merged: kmatch_obs::SolverMetrics,
    executor: Option<kmatch_obs::ExecutorSection>,
) -> Result<(), String> {
    let Some(path) = args.flag("metrics-out") else {
        return Ok(());
    };
    let format = args.flag("metrics-format").unwrap_or("json");
    let mut report =
        kmatch_obs::RunReport::new(kind, n, instances, seed, threads, wall_ns, merged, None);
    if let Some(section) = executor {
        report = report.with_executor(section);
    }
    report
        .write(std::path::Path::new(path), format)
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path} ({format})");
    Ok(())
}

/// What every parallel `kmatch batch` run shares: the flags that pick the
/// observers its workers carry and where its telemetry goes.
struct BatchFront<'a> {
    args: &'a Args,
    topts: &'a TraceOpts,
    registry: &'a kmatch_obs::BatchRegistry,
    clock: &'a kmatch_obs::StdClock,
    kind: &'a str,
    seed: u64,
    threads: usize,
    /// Solve through the metered front-end into `registry`.
    metered: bool,
    /// A lazy-oracle batch, whose output reports the peak RSS.
    lazy: bool,
}

impl BatchFront<'_> {
    /// Solve `batch` on the stealing executor with one `engine()`
    /// workspace per worker — each carrying a flight recorder under
    /// `--trace-out`, metered into the registry when `metered`, otherwise
    /// through `plain(batch, threads, steal_seed)` — then print the
    /// `summary` of the outcomes, the executor line, the `after` line and
    /// the wall time, and write the trace and the run report.
    fn run<P: Sync, E: kmatch_parallel::Engine<P>>(
        &self,
        batch: &[P],
        n: usize,
        engine: fn() -> E,
        plain: impl FnOnce(&[P], usize, u64) -> (Vec<E::Outcome>, kmatch_parallel::StealReport),
        summary: impl FnOnce(&[E::Outcome]) -> String,
        after: impl FnOnce() -> Option<String>,
    ) -> Result<(), String> {
        use kmatch_parallel::{solve_batch_with, ChunkTrace};
        let count = batch.len();
        let start = std::time::Instant::now();
        let steal_seed = kmatch_parallel::steal_seed();
        let (registry, clock) = (self.registry, self.clock);
        let mut traces = None;
        let (outcomes, report) = if self.topts.enabled() {
            let capacity = self.topts.chunk_capacity();
            let (outs, workers, report) =
                solve_batch_with(batch, self.threads, steal_seed, registry, clock, |_| {
                    (engine(), kmatch_trace::FlightRecorder::new(clock, capacity))
                });
            traces = Some(ChunkTrace::from_workers(workers));
            (outs, report)
        } else if self.metered {
            let (outs, _, report) =
                solve_batch_with(batch, self.threads, steal_seed, registry, clock, |_| {
                    engine()
                });
            (outs, report)
        } else {
            plain(batch, self.threads, steal_seed)
        };
        let elapsed = start.elapsed();
        let executor = report.to_section();
        outln!("{}", summary(&outcomes));
        // The executor path and steal footprint make throughput numbers
        // attributable without a RunReport.
        outln!(
            "executor       : {} ({} threads, {} tasks, {} steals, straggler x{:.2})",
            executor.path,
            executor.threads,
            executor.task_count,
            executor.steal_count,
            executor.straggler_ratio,
        );
        if let Some(line) = after() {
            outln!("{line}");
        }
        print_wall(count, elapsed, self.lazy)?;
        if let Some(traces) = traces {
            let dropped: u64 = traces.iter().map(|t| t.dropped).sum();
            if dropped > 0 {
                eprintln!("flight recorder dropped {dropped} events (oldest overwritten)");
            }
            self.topts.write(&TraceTrack::workers(
                traces.into_iter().map(|t| t.events).collect(),
            ))?;
        }
        write_metrics(
            self.args,
            self.kind,
            n,
            count,
            self.seed,
            self.threads,
            elapsed.as_nanos() as u64,
            registry.take(),
            Some(executor),
        )
    }

    /// [`BatchFront::run`] over a lazy GS batch of `count` oracles, the
    /// `i`-th built by `oracle(seed + i)`.
    fn run_lazy_gs<P: kmatch_prefs::PrefOracle + Sync>(
        &self,
        n: usize,
        count: usize,
        what: &str,
        oracle: impl Fn(u64) -> P,
    ) -> Result<(), String> {
        let batch: Vec<P> = (0..count)
            .map(|i| oracle(self.seed.wrapping_add(i as u64)))
            .collect();
        self.run(
            &batch,
            n,
            GsWorkspace::new,
            kmatch_parallel::solve_batch_stealing,
            |outs| gs_summary(what, outs),
            || None,
        )
    }
}

/// The instance size a batch reports: the requested `--n` for a
/// generated batch, even an empty one, and the largest of `sizes` for an
/// `--input` batch.
fn batch_n(
    args: &Args,
    inputs: &[&str],
    sizes: impl Iterator<Item = usize>,
) -> Result<usize, String> {
    if inputs.is_empty() {
        args.require("n")
    } else {
        Ok(sizes.max().unwrap_or(0))
    }
}

/// The summary lines of a GS batch: what was solved, total proposals and
/// the longest run of rounds.
fn gs_summary(what: &str, outcomes: &[kmatch_gs::GsOutcome]) -> String {
    let stats = kmatch_parallel::batch_stats(outcomes);
    format!(
        "instances      : {what}\ntotal proposals: {}\nmax rounds     : {}",
        stats.proposals, stats.rounds
    )
}

/// The closing lines of a batch: the peak RSS when `rss` (and the host
/// reports it), then the wall time and throughput of `count` instances.
fn print_wall(count: usize, elapsed: std::time::Duration, rss: bool) -> Result<(), String> {
    if let Some(rss) = kmatch_obs::peak_rss_bytes().filter(|_| rss) {
        outln!("peak rss bytes : {rss}");
    }
    outln!(
        "wall time      : {:.3} ms ({:.1} instances/s)",
        elapsed.as_secs_f64() * 1e3,
        count as f64 / elapsed.as_secs_f64().max(1e-12)
    );
    Ok(())
}

/// Solve a stream of instances through the parallel batch front-ends
/// ([`BatchFront::run`], for `--kind gs|roommates` and the lazy GS
/// oracles), with per-thread reusable workspaces and zero steady-state
/// allocation.
/// Instances are generated from `--n/--count/--seed` or read from
/// `--input` (a JSON array of DTOs); `--metrics-out` switches to the
/// metered engines and writes a structured RunReport.
fn batch_cmd(args: &Args) -> Result<(), String> {
    args.check_known(&[
        "n",
        "count",
        "seed",
        "kind",
        "prefs",
        "keep",
        "input",
        "cache",
        "threads",
        "errors-out",
        "metrics-out",
        "metrics-format",
        "trace-out",
        "trace-format",
        "flight-recorder",
    ])?;
    let topts = TraceOpts::from_args(args)?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let kind = args.flag("kind").unwrap_or("gs");
    let prefs = args.flag("prefs").unwrap_or("csr");
    let threads: usize = args.flag_or("threads", kmatch_parallel::default_threads())?;
    if threads == 0 {
        return Err("need --threads >= 1".to_string());
    }
    if args.flag("threads").is_some() {
        if !matches!(kind, "gs" | "roommates") {
            return Err("--threads is only supported for --kind gs|roommates".to_string());
        }
        if prefs == "truncated" {
            return Err(
                "--threads is not supported with --prefs truncated (serial path)".to_string(),
            );
        }
    }
    if let Some(fmt) = args.flag("metrics-format") {
        if !matches!(fmt, "json" | "prom") {
            return Err(format!(
                "unknown metrics format: {fmt} (expected json|prom)"
            ));
        }
    }
    let cache_on = match args.flag("cache").unwrap_or("off") {
        "on" => true,
        "off" => false,
        other => return Err(format!("unknown --cache value: {other} (expected on|off)")),
    };
    if topts.enabled() && cache_on {
        return Err("--trace-out is not supported with --cache on".to_string());
    }
    let metered = args.flag("metrics-out").is_some();
    let registry = kmatch_obs::BatchRegistry::new();
    let clock = kmatch_obs::StdClock::new();
    let front = BatchFront {
        args,
        topts: &topts,
        registry: &registry,
        clock: &clock,
        kind,
        seed,
        threads,
        // The solve cache meters its own run.
        metered: metered && !cache_on,
        lazy: prefs != "csr",
    };
    let inputs: Vec<&str> = args.flag_values("input").collect();
    if prefs != "csr" {
        if !matches!(kind, "gs" | "roommates") {
            return Err(
                "lazy --prefs backends are only supported for --kind gs|roommates".to_string(),
            );
        }
        if kind == "roommates" && prefs == "scores" {
            return Err("--prefs scores is bipartite-only (use random)".to_string());
        }
        if cache_on {
            return Err("--cache requires --prefs csr (lazy instances hash trivially)".to_string());
        }
        if !inputs.is_empty() {
            return Err(
                "--input requires --prefs csr (files carry materialized lists)".to_string(),
            );
        }
    }
    match kind {
        "gs" if prefs != "csr" => {
            use kmatch_prefs::{RandomOracle, ScoreOracle, Truncated};
            let n: usize = args.require("n")?;
            check_lazy_n(n, 1)?;
            let count: usize = args.flag_or("count", 1000)?;
            let what = format!("{count} x n={n} (gs, {prefs} oracle)");
            match prefs {
                "random" => front.run_lazy_gs(n, count, &what, |s| RandomOracle::new(n, s))?,
                "scores" => front.run_lazy_gs(n, count, &what, |s| ScoreOracle::seeded(n, s))?,
                "truncated" => {
                    // Incomplete lists go through `solve_incomplete`, which
                    // has no batch front-end — a serial reused-workspace
                    // loop is the honest equivalent (and is itself fast:
                    // every solve is O(n·keep) work in O(n) memory).
                    if topts.enabled() || metered {
                        return Err(
                            "--prefs truncated supports neither --trace-out nor --metrics-out"
                                .to_string(),
                        );
                    }
                    let keep: u32 = args.flag_or("keep", 10)?;
                    if keep == 0 {
                        return Err("need --keep >= 1".to_string());
                    }
                    let mut ws = GsWorkspace::with_capacity(n);
                    let start = std::time::Instant::now();
                    let (mut proposals, mut matched) = (0u64, 0u64);
                    for i in 0..count {
                        let oracle =
                            Truncated::new(RandomOracle::new(n, seed.wrapping_add(i as u64)), keep);
                        let (partial, stats) = ws.solve_incomplete(&oracle);
                        proposals += stats.proposals;
                        matched += partial.matched_proposers().len() as u64;
                    }
                    let elapsed = start.elapsed();
                    outln!("instances      : {count} x n={n} (gs, truncated keep = {keep})");
                    outln!("total proposals: {proposals}");
                    outln!(
                        "matched        : {matched} of {} ({:.1}%)",
                        count * n,
                        100.0 * matched as f64 / (count * n).max(1) as f64
                    );
                    print_wall(count, elapsed, true)?;
                }
                other => return Err(format!("unknown prefs backend: {other}")),
            }
        }
        "gs" => {
            let batch: Vec<BipartiteInstance> = if inputs.is_empty() {
                let n: usize = args.require("n")?;
                check_min_n(n, 1)?;
                let count: usize = args.flag_or("count", 1000)?;
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                (0..count)
                    .map(|_| kmatch_prefs::gen::uniform::uniform_bipartite(n, &mut rng))
                    .collect()
            } else {
                read_batch::<kmatch_prefs::serde_support::BipartiteDto, _>(args, &inputs)?
            };
            let n = batch_n(args, &inputs, batch.iter().map(|i| i.n()))?;
            let what = format!("{} x n={n} (gs)", batch.len());
            let cache_line = std::cell::Cell::new(None);
            front.run(
                &batch,
                n,
                GsWorkspace::new,
                |batch, threads, steal_seed| {
                    if !cache_on {
                        return kmatch_parallel::solve_batch_stealing(batch, threads, steal_seed);
                    }
                    let mut cache = SolveCache::default();
                    let cached = kmatch_parallel::solve_batch_cached(
                        batch, threads, steal_seed, &mut cache, &registry, &clock,
                    );
                    cache_line.set(Some(format!(
                        "cache          : {} hits / {} misses ({:.1}% hit rate)",
                        cached.hits,
                        cached.misses,
                        100.0 * cached.hit_rate()
                    )));
                    (cached.outcomes, cached.executor)
                },
                |outs| gs_summary(&what, outs),
                || cache_line.take(),
            )?;
        }
        "roommates" if prefs != "csr" => {
            use kmatch_obs::Clock;
            use kmatch_prefs::CachedRoommatesOracle;
            use kmatch_roommates::{solve_escalating_metered, CertKind, RoommatesWorkspace};
            if topts.enabled() {
                return Err("--trace-out on lazy roommates batches is not supported".to_string());
            }
            if args.flag("threads").is_some() {
                return Err("--threads is not supported with lazy roommates batches \
                            (escalating solves share one workspace serially)"
                    .to_string());
            }
            let n: usize = args.require("n")?;
            check_lazy_n(n, 2)?;
            let count: usize = args.flag_or("count", 100)?;
            if prefs != "random" {
                return Err(format!("unknown prefs backend: {prefs}"));
            }
            // One reusable workspace; each instance is an independently
            // seeded lazy oracle solved through the escalating certified
            // driver.
            let start = std::time::Instant::now();
            let mut ws = RoommatesWorkspace::new();
            let mut shard = kmatch_obs::SolverMetrics::new();
            let (mut solvable, mut fullwidth) = (0u64, 0u64);
            for i in 0..count {
                let oracle = CachedRoommatesOracle::new(n, seed.wrapping_add(i as u64));
                let t0 = clock.now_ns();
                let (outcome, report) = solve_escalating_metered(&oracle, &mut ws, &mut shard);
                shard.solve_ns(clock.now_ns().saturating_sub(t0));
                solvable += u64::from(outcome.is_stable());
                fullwidth += u64::from(report.cert == CertKind::FullWidth);
            }
            let elapsed = start.elapsed();
            outln!("instances      : {count} x n={n} (roommates, lazy random)");
            outln!(
                "solvable       : {solvable} ({:.1}%)",
                100.0 * solvable as f64 / count.max(1) as f64
            );
            outln!(
                "certificates   : {} truncated, {fullwidth} full-width",
                count as u64 - fullwidth
            );
            print_wall(count, elapsed, true)?;
            write_metrics(
                args,
                "roommates",
                n,
                count,
                seed,
                1,
                elapsed.as_nanos() as u64,
                shard,
                None,
            )?;
        }
        "roommates" => {
            if cache_on {
                return Err("--cache is only supported for --kind gs".to_string());
            }
            let batch: Vec<RoommatesInstance> = if !inputs.is_empty() {
                read_batch::<RoommatesDto, _>(args, &inputs)?
            } else {
                let n: usize = args.require("n")?;
                check_min_n(n, 2)?;
                let count: usize = args.flag_or("count", 1000)?;
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                (0..count)
                    .map(|_| kmatch_prefs::gen::uniform::uniform_roommates(n, &mut rng))
                    .collect()
            };
            let n = batch_n(args, &inputs, batch.iter().map(|i| i.n()))?;
            let count = batch.len();
            front.run(
                &batch,
                n,
                kmatch_roommates::RoommatesWorkspace::new,
                kmatch_parallel::roommates::solve_batch_stealing,
                |outs| {
                    let stats = kmatch_parallel::roommates::batch_stats(outs);
                    format!(
                        "instances      : {count} x n={n} (roommates)\n\
                         solvable       : {} ({:.1}%)\n\
                         total proposals: {}\n\
                         total rotations: {}",
                        stats.solvable,
                        100.0 * stats.solvable as f64 / count.max(1) as f64,
                        stats.proposals,
                        stats.rotations
                    )
                },
                || None,
            )?;
        }
        other => return Err(format!("unknown batch kind: {other}")),
    }
    Ok(())
}

/// What every executor wave of `kmatch serve` shares: the operator and
/// forensic planes its workers report to.
struct ServeWave<'a> {
    ops: &'a OpsHandle,
    plane: &'a kmatch_ops::ForensicsPlane,
    clock: &'a kmatch_obs::StdClock,
    threads: usize,
    /// Capacity of each worker's flight recorder.
    flight: usize,
}

impl ServeWave<'_> {
    /// Solve one wave, metered into the operator registry, with one
    /// `engine()` workspace per worker carrying that worker's lane
    /// observer and a flight recorder, nested as
    /// `((engine, probed), recorder)`. The lanes are the watchdog's
    /// heartbeats, `/progress`'s rows and the sampler's span stacks; the
    /// recorded events feed the `/trace` ring. Returns the instances
    /// solved.
    fn run<P: Sync, E: kmatch_parallel::Engine<P>>(&self, batch: &[P], engine: fn() -> E) -> usize {
        let probes = &self.plane.probes;
        let (outs, workers, _) = kmatch_parallel::solve_batch_with(
            batch,
            self.threads,
            kmatch_parallel::steal_seed(),
            self.ops.state.registry(),
            self.clock,
            // Worker `w` writes lane `w % lanes`: a mis-sized plane stays
            // observable rather than a panic.
            |w| {
                let progress = probes.observer(w % probes.len());
                let recorder = kmatch_trace::FlightRecorder::new(self.clock, self.flight);
                ((engine(), progress), recorder)
            },
        );
        for trace in kmatch_parallel::ChunkTrace::from_workers(workers) {
            self.ops.state.ingest_trace(&trace.events, trace.dropped);
        }
        outs.len()
    }
}

/// `kmatch serve` — a continuous solve workload with the operator plane
/// live: waves of seeded batches (or repeated `--input` re-solves) keep
/// the registry, rolling window, flight ring, structured log, and
/// watchdog heartbeats current while the HTTP endpoints serve scrapes.
/// `--iterations 0` (default) runs until SIGINT, which finishes the
/// current wave and shuts the server down gracefully.
fn serve_cmd(args: &Args) -> Result<(), String> {
    use kmatch_forensics::start_sampler;
    use kmatch_obs::{Clock as _, SolverMetrics};
    use std::sync::Arc;
    args.check_known(&[
        "listen",
        "kind",
        "n",
        "count",
        "seed",
        "input",
        "interval-ms",
        "iterations",
        "flight-recorder",
        "prefs",
        "postmortem-dir",
        "stall-ms",
        "inject-stall-ms",
        "sample-hz",
    ])?;
    let listen: String = args.require("listen")?;
    let kind = args.flag("kind").unwrap_or("gs");
    if !matches!(kind, "gs" | "roommates") {
        return Err(format!(
            "unknown serve kind: {kind} (expected gs|roommates)"
        ));
    }
    let prefs = args.flag("prefs").unwrap_or("csr");
    if !matches!(prefs, "csr" | "random") {
        return Err(format!(
            "unknown serve prefs: {prefs} (expected csr|random)"
        ));
    }
    let seed: u64 = args.flag_or("seed", 0)?;
    let n: usize = args.flag_or("n", 64)?;
    let count: usize = args.flag_or("count", 32)?;
    if n == 0 || count == 0 {
        return Err("need --n >= 1 and --count >= 1".to_string());
    }
    // A roommates instance needs two participants, a bipartite one one agent.
    let min_n = if kind == "roommates" { 2 } else { 1 };
    if prefs == "random" {
        check_lazy_n(n, min_n)?;
    }
    let interval_ms: u64 = args.flag_or("interval-ms", 200)?;
    let iterations: u64 = args.flag_or("iterations", 0)?;
    let flight: usize = args.flag_or("flight-recorder", 4096)?;
    if flight == 0 {
        return Err("need --flight-recorder >= 1".to_string());
    }
    let inputs: Vec<&str> = args.flag_values("input").collect();
    if prefs == "random" && !inputs.is_empty() {
        return Err("--input requires --prefs csr (files carry materialized lists)".to_string());
    }
    if inputs.is_empty() {
        check_min_n(n, min_n)?;
    }
    let postmortem_dir: Option<std::path::PathBuf> =
        args.flag("postmortem-dir").map(std::path::PathBuf::from);
    let stall_ms: u64 = args.flag_or("stall-ms", 10_000)?;
    if stall_ms == 0 {
        return Err("need --stall-ms >= 1".to_string());
    }
    let inject_stall_ms: u64 = args.flag_or("inject-stall-ms", 0)?;
    let sample_hz: u64 = args.flag_or("sample-hz", 97)?;
    // The escalating lazy-oracle driver is the only solve path that owns
    // the test-only stall-injection hook.
    let escalating = kind == "roommates" && prefs == "random";
    if inject_stall_ms > 0 && !escalating {
        return Err(
            "--inject-stall-ms requires --kind roommates --prefs random (the escalating \
             driver owns the injection hook)"
                .to_string(),
        );
    }
    kmatch_ops::arm_sigint();
    let mut ops_cfg = kmatch_ops::OpsConfig::default();
    ops_cfg.watchdog.stall_after_ns = stall_ms.saturating_mul(1_000_000);
    let ops = OpsHandle::start_with_config(&listen, ops_cfg)?;
    let clock = kmatch_obs::StdClock::new();
    let registry = ops.state.registry();

    // Arm the forensic plane: one lane per executor worker (the
    // escalating driver is serial — one lane).
    let threads = kmatch_parallel::default_threads();
    let lanes = if escalating { 1 } else { threads };
    let mut plane = kmatch_ops::ForensicsPlane::new(lanes)
        .with_seed(seed)
        .with_config("cmd", "serve")
        .with_config("kind", kind)
        .with_config("prefs", prefs)
        .with_config("n", n)
        .with_config("count", count);
    if let Some(dir) = &postmortem_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("creating --postmortem-dir {}: {e}", dir.display()))?;
        plane = plane.with_postmortem_dir(dir.clone());
    }
    ops.state.attach_forensics(plane.clone());
    kmatch_ops::OpsState::install_panic_hook(&ops.state);
    let sampler = (sample_hz > 0).then(|| {
        start_sampler(
            Arc::clone(&plane.probes),
            Arc::clone(&plane.profile),
            Arc::clone(&ops.clock) as Arc<dyn kmatch_obs::Clock + Send + Sync>,
            std::time::Duration::from_micros(1_000_000 / sample_hz),
        )
    });
    // Background watchdog ticker over the probes' generations, the one
    // heartbeat source: a stall must be caught while the main loop is
    // *inside* a wave (that is the whole point), so the tick cannot live
    // only between waves.
    let ticker = {
        let state = Arc::clone(&ops.state);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let tick_ms = (stall_ms / 4).clamp(10, 250);
        let handle = std::thread::spawn(move || {
            while !flag.load(std::sync::atomic::Ordering::SeqCst) {
                state.tick_probed();
                std::thread::sleep(std::time::Duration::from_millis(tick_ms));
            }
        });
        (stop, handle)
    };
    ops.state.log(
        kmatch_ops::Level::Info,
        "ops",
        "serve started",
        vec![
            ("kind".to_string(), kind.to_string()),
            ("prefs".to_string(), prefs.to_string()),
            ("listen".to_string(), listen.clone()),
            ("lanes".to_string(), lanes.to_string()),
        ],
    );

    // Fixed instances (re-solved every wave) or None for per-wave seeded
    // workloads. Parsed once, outside the loop.
    let fixed_gs: Option<Vec<BipartiteInstance>> = (kind == "gs" && !inputs.is_empty())
        .then(|| read_batch::<kmatch_prefs::serde_support::BipartiteDto, _>(args, &inputs))
        .transpose()?;
    let fixed_rm: Option<Vec<RoommatesInstance>> = (kind == "roommates" && !inputs.is_empty())
        .then(|| read_batch::<RoommatesDto, _>(args, &inputs))
        .transpose()?;

    let start = std::time::Instant::now();
    let waves = ServeWave {
        ops: &ops,
        plane: &plane,
        clock: &clock,
        threads,
        flight,
    };
    let mut wave: u64 = 0;
    let mut total_instances: u64 = 0;
    // The stall hook fires exactly once, on the first escalating solve.
    let mut stall_armed = inject_stall_ms > 0;
    let mut rm_ws = kmatch_roommates::RoommatesWorkspace::new();
    while !kmatch_ops::sigint_received() && (iterations == 0 || wave < iterations) {
        let wave_seed = seed.wrapping_add(wave);
        let (wave_n, wave_count) = match (kind, escalating) {
            ("gs", _) if prefs == "random" => {
                let batch: Vec<kmatch_prefs::RandomOracle> = (0..count)
                    .map(|i| {
                        kmatch_prefs::RandomOracle::new(n, wave_seed.wrapping_add((i as u64) << 32))
                    })
                    .collect();
                (n, waves.run(&batch, GsWorkspace::new))
            }
            ("gs", _) => {
                let batch: Vec<BipartiteInstance> = match &fixed_gs {
                    Some(fixed) => fixed.clone(),
                    None => {
                        let mut rng = ChaCha8Rng::seed_from_u64(wave_seed);
                        (0..count)
                            .map(|_| kmatch_prefs::gen::uniform::uniform_bipartite(n, &mut rng))
                            .collect()
                    }
                };
                let wave_n = batch.iter().map(|i| i.n()).max().unwrap_or(0);
                (wave_n, waves.run(&batch, GsWorkspace::new))
            }
            (_, true) => {
                // Escalating truncated driver over the lazy seeded
                // oracle, solved serially on lane 0: `/progress`
                // reports the live phase, round, attempt, and current
                // cut K, and `/profile` the open Irving spans, while
                // n = 10^5-scale instances grind.
                for i in 0..count {
                    let oracle = kmatch_prefs::RandomRoommatesOracle::new(
                        n,
                        wave_seed.wrapping_add((i as u64) << 32),
                    );
                    let mut shard = SolverMetrics::new();
                    let mut progress = plane.probes.observer(0);
                    if stall_armed {
                        progress = progress.with_stall_once_ms(inject_stall_ms);
                        stall_armed = false;
                    }
                    let t0 = clock.now_ns();
                    let (_outcome, _report) = kmatch_roommates::solve_escalating_metered(
                        &oracle,
                        &mut rm_ws,
                        &mut (&mut shard, &mut progress),
                    );
                    shard.solve_ns(clock.now_ns().saturating_sub(t0));
                    registry.absorb(shard);
                }
                registry.record_execution(kmatch_obs::ExecutionRecord {
                    path: "serial",
                    threads: 1,
                    task_count: count as u64,
                    steal_count: 0,
                    straggler_ratio: 1.0,
                });
                (n, count)
            }
            _ => {
                let batch: Vec<RoommatesInstance> = match &fixed_rm {
                    Some(fixed) => fixed.clone(),
                    None => {
                        let mut rng = ChaCha8Rng::seed_from_u64(wave_seed);
                        (0..count)
                            .map(|_| kmatch_prefs::gen::uniform::uniform_roommates(n, &mut rng))
                            .collect()
                    }
                };
                let wave_n = batch.iter().map(|i| i.n()).max().unwrap_or(0);
                let engine = kmatch_roommates::RoommatesWorkspace::new;
                (wave_n, waves.run(&batch, engine))
            }
        };
        total_instances += wave_count as u64;
        let report = kmatch_obs::RunReport::new(
            kind,
            wave_n,
            total_instances as usize,
            seed,
            threads,
            start.elapsed().as_nanos() as u64,
            registry.snapshot(),
            None,
        );
        ops.note_wave_probed(wave_n, report.to_json_string());
        ops.state.log(
            kmatch_ops::Level::Info,
            kind,
            "wave complete",
            vec![
                ("wave".to_string(), wave.to_string()),
                ("instances".to_string(), wave_count.to_string()),
            ],
        );
        wave += 1;
        if interval_ms > 0 && !kmatch_ops::sigint_received() {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }

    let reason = if kmatch_ops::sigint_received() {
        "SIGINT"
    } else {
        "iterations complete"
    };
    ops.state.log(
        kmatch_ops::Level::Info,
        "ops",
        "serve stopping",
        vec![("reason".to_string(), reason.to_string())],
    );
    let (stop, handle) = ticker;
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = handle.join();
    if let Some(s) = sampler {
        s.stop();
    }
    ops.finish();
    outln!(
        "served {wave} waves ({total_instances} instances) in {:.1}s; shutdown: {reason}",
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Replay a JSON delta stream through the incremental GS session against
/// a cold re-solve of the mutated instance, reporting per-delta wall time,
/// executed proposals and the session's tier (cached, replay or cold).
/// The two must produce byte-identical matchings; a divergence aborts the
/// command.
fn delta_cmd(args: &Args) -> Result<(), String> {
    args.check_known(&[
        "input",
        "deltas",
        "metrics-out",
        "metrics-format",
        "trace-out",
        "trace-format",
        "flight-recorder",
    ])?;
    let topts = TraceOpts::from_args(args)?;
    let input: String = args.require("input")?;
    let deltas_path: String = args.require("deltas")?;
    let text = fs::read_to_string(&input).map_err(|e| format!("reading {input}: {e}"))?;
    let dto: kmatch_prefs::serde_support::BipartiteDto =
        serde_json::from_str(&text).map_err(|e| format!("{input}: {e}"))?;
    let inst = BipartiteInstance::try_from(dto).map_err(|e| format!("{input}: {e}"))?;
    let items = load_batch_elements(&deltas_path)?;
    let mut deltas: Vec<PrefDelta> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let delta = <PrefDeltaDto as serde::Deserialize>::from_value(item)
            .map_err(|e| e.to_string())
            .and_then(|d| PrefDelta::try_from(&d))
            .map_err(|e| format!("{deltas_path}: delta {i}: {e}"))?;
        deltas.push(delta);
    }
    let n = inst.n();
    let mut shadow = inst.clone();
    let mut session = IncrementalGs::new(inst);
    let mut metrics = kmatch_obs::SolverMetrics::new();
    let trace_clock = kmatch_obs::StdClock::new();
    let mut sink = topts.enabled().then(|| topts.sink(&trace_clock));
    // Prime both solvers so every reported pair is a steady-state re-solve.
    let mut cold_ws = GsWorkspace::with_capacity(n);
    let mut cold_csr = CsrPrefs::new();
    cold_csr.load(&shadow);
    let base = match sink.as_mut() {
        Some(sink) => session.solve_metered(&mut (&mut metrics, sink)),
        None => session.solve_metered(&mut metrics),
    };
    let cold_base = cold_ws.solve(&cold_csr);
    debug_assert_eq!(base.matching, cold_base.matching);
    outln!(
        "baseline     : n={n}, {} proposals, {} deltas queued",
        cold_base.stats.proposals,
        deltas.len()
    );
    let start = std::time::Instant::now();
    let (mut warm_ns, mut cold_ns) = (0u64, 0u64);
    let (mut warm_props, mut cold_props) = (0u64, 0u64);
    for (i, delta) in deltas.iter().enumerate() {
        session
            .apply(delta)
            .map_err(|e| format!("delta {i}: {e}"))?;
        let seen = (metrics.cache_hits, metrics.warm_solves);
        let t0 = std::time::Instant::now();
        let warm = match sink.as_mut() {
            Some(sink) => session.solve_metered(&mut (&mut metrics, sink)),
            None => session.solve_metered(&mut metrics),
        };
        let w_ns = t0.elapsed().as_nanos() as u64;
        metrics.solve_ns(w_ns);
        shadow
            .apply_delta(delta)
            .map_err(|e| format!("delta {i}: {e}"))?;
        let t1 = std::time::Instant::now();
        cold_csr.load(&shadow);
        let cold = cold_ws.solve(&cold_csr);
        let c_ns = t1.elapsed().as_nanos() as u64;
        if warm.matching != cold.matching {
            return Err(format!("delta {i}: warm and cold matchings diverge (bug)"));
        }
        let tier = if metrics.cache_hits > seen.0 {
            "cached"
        } else if metrics.warm_solves > seen.1 {
            "replay"
        } else {
            "cold"
        };
        let d = PrefDeltaDto::from(delta);
        outln!(
            "delta {i:>4} ({} {} row {}): {tier:<6} {:>9.1} us / {:>6} proposals   \
             reload+solve {:>9.1} us / {:>6} proposals",
            d.op,
            d.side,
            d.row,
            w_ns as f64 / 1e3,
            warm.stats.proposals,
            c_ns as f64 / 1e3,
            cold.stats.proposals,
        );
        warm_ns += w_ns;
        cold_ns += c_ns;
        warm_props += warm.stats.proposals;
        cold_props += cold.stats.proposals;
    }
    if !deltas.is_empty() {
        outln!(
            "totals       : session {:.1} us / {warm_props} proposals, \
             reload+solve {:.1} us / {cold_props} proposals ({:.1}x)",
            warm_ns as f64 / 1e3,
            cold_ns as f64 / 1e3,
            cold_ns as f64 / (warm_ns as f64).max(1.0),
        );
    }
    if let Some(sink) = sink {
        topts.write(&TraceTrack::main(sink.into_events().0))?;
    }
    write_metrics(
        args,
        "delta",
        n,
        deltas.len(),
        0,
        1,
        start.elapsed().as_nanos() as u64,
        metrics,
        None,
    )
}

/// One preference-row rewrite for `bind --incremental --updates`: member
/// `(gender, index)` replaces its ordering of gender `target`.
#[derive(Debug, Clone)]
struct UpdateDto {
    gender: u32,
    index: u32,
    target: u32,
    prefs: Vec<u32>,
}

serde::impl_json_struct!(UpdateDto {
    gender,
    index,
    target,
    prefs
});

/// Bind a k-partite instance along a tree. With `--incremental true` the
/// bind runs through the dirty-edge session, and `--updates FILE` applies
/// preference-row rewrites then rebinds — only edges whose fingerprints
/// changed are re-solved, and the dirty/clean split is printed.
fn bind_cmd(args: &Args) -> Result<(), String> {
    args.check_known(&[
        "input",
        "tree",
        "seed",
        "incremental",
        "updates",
        "metrics-out",
        "metrics-format",
        "trace-out",
        "trace-format",
        "flight-recorder",
    ])?;
    let topts = TraceOpts::from_args(args)?;
    let input: String = args.require("input")?;
    let inst = load_kpartite(&input)?;
    let (k, n) = (inst.k(), inst.n());
    let tree = parse_tree(args, k)?;
    let incremental: bool = args.flag_or("incremental", false)?;
    let trace_clock = kmatch_obs::StdClock::new();
    let mut sink = topts.enabled().then(|| topts.sink(&trace_clock));
    let mut metrics = kmatch_obs::SolverMetrics::new();
    let start = std::time::Instant::now();
    if !incremental {
        let out = match sink.as_mut() {
            Some(sink) => kmatch_core::bind_metered(&inst, &tree, &mut (&mut metrics, sink)),
            None => kmatch_core::bind_metered(&inst, &tree, &mut metrics),
        };
        let stable = find_blocking_family(&inst, &out.matching).is_none();
        outln!("binding tree : {tree}");
        outln!("proposals    : {}", out.total_proposals());
        outln!("stable       : {stable}");
    } else {
        let mut binder = IncrementalBinder::new(inst, tree);
        let first = match sink.as_mut() {
            Some(sink) => binder.bind_metered(&mut (&mut metrics, sink)),
            None => binder.bind_metered(&mut metrics),
        };
        outln!("binding tree : {}", binder.tree());
        outln!(
            "initial bind : {} proposals over {} edges",
            first.total_proposals(),
            first.per_edge.len()
        );
        if let Some(path) = args.flag("updates") {
            let items = load_batch_elements(path)?;
            for (i, item) in items.iter().enumerate() {
                let dto = <UpdateDto as serde::Deserialize>::from_value(item)
                    .map_err(|e| format!("{path}: update {i}: {e}"))?;
                binder
                    .set_pref_row(
                        Member::new(GenderId(dto.gender as u16), dto.index),
                        GenderId(dto.target as u16),
                        &dto.prefs,
                    )
                    .map_err(|e| format!("{path}: update {i}: {e}"))?;
            }
            let (dirty0, clean0) = (metrics.edges_dirty, metrics.edges_clean);
            let rebound = match sink.as_mut() {
                Some(sink) => binder.bind_metered(&mut (&mut metrics, sink)),
                None => binder.bind_metered(&mut metrics),
            };
            let stable = find_blocking_family(binder.instance(), &rebound.matching).is_none();
            outln!(
                "rebind       : {} proposals, {} dirty / {} clean edges after {} updates",
                rebound.total_proposals(),
                metrics.edges_dirty - dirty0,
                metrics.edges_clean - clean0,
                items.len()
            );
            outln!("stable       : {stable}");
        }
    }
    if let Some(sink) = sink {
        topts.write(&TraceTrack::main(sink.into_events().0))?;
    }
    write_metrics(
        args,
        "bind",
        n,
        1,
        0,
        1,
        start.elapsed().as_nanos() as u64,
        metrics,
        None,
    )
}

/// Validate a RunReport JSON file emitted by `batch --metrics-out` (the
/// CI smoke contract): parses, checks the schema tag and required keys.
fn report_validate(args: &Args) -> Result<(), String> {
    args.check_known(&["input"])?;
    let input: String = args.require("input")?;
    let text = fs::read_to_string(&input).map_err(|e| format!("reading {input}: {e}"))?;
    let v = kmatch_obs::RunReport::validate_json_str(&text).map_err(|e| format!("{input}: {e}"))?;
    let kind = match v.get("kind") {
        Some(serde::Value::String(s)) => s.clone(),
        _ => "?".to_string(),
    };
    let instances = match v.get("instances") {
        Some(serde::Value::Number(x)) => *x as u64,
        _ => 0,
    };
    outln!("OK {input}: kind={kind}, instances={instances}");
    Ok(())
}

/// `kmatch postmortem validate|inspect --input FILE`: check a
/// `kmatch.postmortem/v1` bundle against the schema (validate) or print
/// its human-oriented summary (inspect). Validation runs first either
/// way — an inspect of a malformed bundle is an error, not a guess.
fn postmortem_cmd(args: &Args, inspect: bool) -> Result<(), String> {
    args.check_known(&["input"])?;
    let input: String = args.require("input")?;
    let text = fs::read_to_string(&input).map_err(|e| format!("reading {input}: {e}"))?;
    let v: serde::Value = serde_json::from_str(&text).map_err(|e| format!("{input}: {e}"))?;
    kmatch_forensics::validate_bundle(&v).map_err(|e| format!("{input}: {e}"))?;
    if inspect {
        out!("{}", kmatch_forensics::inspect_summary(&v));
    } else {
        let trigger = match v.get("trigger") {
            Some(serde::Value::String(s)) => s.clone(),
            _ => "?".to_string(),
        };
        outln!("OK {input}: trigger={trigger}");
    }
    Ok(())
}

fn verify_kary(args: &Args) -> Result<(), String> {
    args.check_known(&["input", "matching", "weak"])?;
    let input: String = args.require("input")?;
    let matching_path: String = args.require("matching")?;
    let inst = load_kpartite(&input)?;
    let text =
        fs::read_to_string(&matching_path).map_err(|e| format!("reading {matching_path}: {e}"))?;
    let tuples: Vec<Vec<u32>> =
        serde_json::from_str(&text).map_err(|e| format!("{matching_path}: {e}"))?;
    let matching = KAryMatching::try_from_tuples(inst.k(), inst.n(), &tuples)
        .map_err(|e| format!("{matching_path}: {e}"))?;
    let weak: bool = args.flag_or("weak", false)?;
    let verdict = if weak {
        find_weak_blocking_family(&inst, &matching, &GenderPriorities::by_id(inst.k()))
    } else {
        find_blocking_family(&inst, &matching)
    };
    match verdict {
        None if weak => outln!("STABLE (weakened condition)"),
        None => outln!("STABLE (full condition)"),
        Some(bf) => outln!(
            "UNSTABLE: blocking family {:?} from families {:?}",
            bf.members,
            bf.source_families
        ),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    fn call(words: &[&str]) -> Result<(), String> {
        run(&parse(words))
    }

    /// Whether the command fails with an argument error (one `main`
    /// follows with the usage text).
    fn misused(words: &[&str]) -> bool {
        let args = parse(words);
        run(&args).is_err() && args.misused()
    }

    #[test]
    fn usage_names_every_command() {
        let synopses: Vec<String> = USAGE
            .lines()
            .map(|line| line.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect();
        for &(first, second, _) in COMMANDS {
            let name = match second {
                Some(second) => format!("kmatch {first} {second} "),
                None => format!("kmatch {first} "),
            };
            assert!(
                synopses.iter().any(|line| line.starts_with(&name)),
                "USAGE has no synopsis for `{}`",
                name.trim_end()
            );
        }
    }

    #[test]
    fn every_usage_synopsis_dispatches() {
        for line in USAGE.lines() {
            let Some(rest) = line.strip_prefix("  kmatch ") else {
                continue;
            };
            let mut words = rest.split_whitespace();
            let first = words.next().expect("a command word");
            let second = words.next().filter(|w| !w.starts_with(['-', '[', '(']));
            assert!(
                COMMANDS
                    .iter()
                    .any(|&(a, b, _)| a == first && (b.is_none() || b == second)),
                "`run` dispatches no command for the synopsis `{}`",
                line.trim()
            );
        }
    }

    #[test]
    fn usage_error_on_nonsense() {
        assert!(call(&["frobnicate"]).is_err());
        assert!(call(&[]).is_err());
        assert!(misused(&["frobnicate"]));
        assert!(misused(&[]));
    }

    #[test]
    fn usage_follows_argument_errors_only() {
        assert!(misused(&["solve", "smp", "--bogus", "1"]));
        assert!(misused(&["solve", "kary"]), "missing --input");
        assert!(misused(&["solve", "smp", "--n", "many"]));
        // A file that cannot be read is a data error: one line, no usage.
        let missing = ["solve", "kary", "--input", "/nonexistent/kmatch-input.json"];
        assert!(call(&missing).is_err());
        assert!(!misused(&missing));
    }

    #[test]
    fn serve_flag_validation_rejects_bad_combinations() {
        // Stall injection belongs to the escalating driver only.
        assert!(call(&[
            "serve", "--listen", "127.0.0.1:0", "--kind", "gs", "--inject-stall-ms", "50",
            "--iterations", "1",
        ])
        .is_err());
        assert!(call(&["serve", "--listen", "127.0.0.1:0", "--prefs", "zipf"]).is_err());
        assert!(call(&[
            "serve", "--listen", "127.0.0.1:0", "--prefs", "random", "--input", "x.json",
        ])
        .is_err());
        assert!(call(&["serve", "--listen", "127.0.0.1:0", "--stall-ms", "0"]).is_err());
        // serve is the one live plane: batch takes neither of its flags.
        assert!(misused(&["batch", "--n", "4", "--count", "2", "--postmortem-dir", "/tmp/x"]));
        assert!(misused(&["batch", "--n", "4", "--count", "2", "--ops-listen", "127.0.0.1:0"]));
    }

    #[test]
    fn serve_escalating_stall_writes_validating_bundle() {
        let dir = std::env::temp_dir().join(format!(
            "kmatch-cli-forensics-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let pm = dir.join("bundles");
        let pm_str = pm.to_str().unwrap().to_string();
        // Escalating lazy-oracle serve with an injected 400ms stall and a
        // 50ms watchdog threshold: the background ticker must catch the
        // frozen lane mid-solve and drop exactly one stall bundle.
        call(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--kind",
            "roommates",
            "--prefs",
            "random",
            "--n",
            "2000",
            "--count",
            "1",
            "--iterations",
            "2",
            "--interval-ms",
            "10",
            "--stall-ms",
            "50",
            "--inject-stall-ms",
            "400",
            "--sample-hz",
            "200",
            "--postmortem-dir",
            &pm_str,
        ])
        .unwrap();
        let bundles: Vec<std::path::PathBuf> = std::fs::read_dir(&pm)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        assert!(
            !bundles.is_empty(),
            "stalled escalating serve left no postmortem bundle in {pm_str}"
        );
        let bundle = bundles[0].to_str().unwrap();
        call(&["postmortem", "validate", "--input", bundle]).unwrap();
        call(&["postmortem", "inspect", "--input", bundle]).unwrap();
        let text = std::fs::read_to_string(&bundles[0]).unwrap();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            v.get("trigger"),
            Some(&serde::Value::String("stall".into())),
            "bundle trigger should be the watchdog stall"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn postmortem_subcommand_rejects_junk() {
        let dir = std::env::temp_dir().join(format!(
            "kmatch-cli-forensics-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let junk = dir.join("junk.json");
        std::fs::write(&junk, r#"{"schema": "not-a-postmortem"}"#).unwrap();
        assert!(call(&["postmortem", "validate", "--input", junk.to_str().unwrap()]).is_err());
        assert!(call(&["postmortem", "inspect", "--input", junk.to_str().unwrap()]).is_err());
        assert!(call(&["postmortem", "validate"]).is_err(), "--input required");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gen_and_solve_roundtrip() {
        let dir = std::env::temp_dir().join("kmatch-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.json");
        let inst_str = inst_path.to_str().unwrap();
        call(&[
            "gen", "kpartite", "--k", "3", "--n", "4", "--seed", "9", "--out", inst_str,
        ])
        .unwrap();
        call(&["solve", "kary", "--input", inst_str, "--tree", "path"]).unwrap();
        call(&["solve", "kary", "--input", inst_str, "--tree", "priority"]).unwrap();
    }

    #[test]
    fn theorem1_binary_reports_unsolvable() {
        let dir = std::env::temp_dir().join("kmatch-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rm.json");
        let p = path.to_str().unwrap();
        call(&["gen", "theorem1", "--k", "3", "--n", "4", "--out", p]).unwrap();
        call(&["solve", "binary", "--input", p]).unwrap();
    }

    #[test]
    fn lattice_command_runs() {
        call(&["lattice", "--n", "8", "--seed", "3"]).unwrap();
        assert!(call(&["lattice", "--seed", "3"]).is_err(), "--n required");
    }

    #[test]
    fn trace_and_render_commands() {
        let dir = std::env::temp_dir().join("kmatch-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rm3.json");
        let p = path.to_str().unwrap();
        call(&["gen", "theorem1", "--k", "3", "--n", "2", "--out", p]).unwrap();
        call(&["trace", "--input", p]).unwrap();
        call(&["render-tree", "--k", "6", "--tree", "balanced"]).unwrap();
        call(&["render-tree", "--k", "5", "--tree", "random", "--seed", "4"]).unwrap();
        assert!(call(&["render-tree", "--k", "1"]).is_err());
    }

    #[test]
    fn render_tree_accepts_priority() {
        call(&["render-tree", "--k", "5", "--tree", "priority"]).unwrap();
    }

    #[test]
    fn solve_kary_and_bind_accept_balanced() {
        let dir = std::env::temp_dir().join("kmatch-cli-test-trees");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("k5.json");
        let p = path.to_str().unwrap();
        call(&["gen", "kpartite", "--k", "5", "--n", "3", "--seed", "2", "--out", p]).unwrap();
        call(&["solve", "kary", "--input", p, "--tree", "balanced"]).unwrap();
        call(&["bind", "--input", p, "--tree", "balanced"]).unwrap();
    }

    #[test]
    fn every_tree_flag_keeps_the_unknown_kind_error() {
        let dir = std::env::temp_dir().join("kmatch-cli-test-trees2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("k3.json");
        let p = path.to_str().unwrap();
        call(&["gen", "kpartite", "--k", "3", "--n", "3", "--seed", "2", "--out", p]).unwrap();
        for words in [
            &["render-tree", "--k", "3", "--tree", "oak"][..],
            &["solve", "kary", "--input", p, "--tree", "oak"][..],
            &["bind", "--input", p, "--tree", "oak"][..],
        ] {
            assert_eq!(call(words).unwrap_err(), "unknown tree kind: oak");
        }
    }

    #[test]
    fn batch_kinds_run() {
        call(&["batch", "--n", "8", "--count", "16", "--seed", "2"]).unwrap();
        call(&[
            "batch",
            "--n",
            "8",
            "--count",
            "16",
            "--seed",
            "2",
            "--kind",
            "roommates",
        ])
        .unwrap();
        assert!(call(&["batch", "--n", "8", "--kind", "nope"]).is_err());
    }

    #[test]
    fn batch_input_reports_per_index_errors_and_fails() {
        let dir = std::env::temp_dir().join("kmatch-cli-test4");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("mixed.json");
        let errors_out = dir.join("errors.json");
        // Element 0 is a valid 2x2 bipartite DTO; element 1 is malformed
        // (proposer list references responder 7 in a 2-person instance).
        std::fs::write(
            &input,
            r#"[
  {"n": 2, "proposers": [[0, 1], [1, 0]], "responders": [[0, 1], [1, 0]]},
  {"n": 2, "proposers": [[0, 7], [1, 0]], "responders": [[0, 1], [1, 0]]}
]"#,
        )
        .unwrap();
        let err = call(&[
            "batch",
            "--input",
            input.to_str().unwrap(),
            "--errors-out",
            errors_out.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("1 of 2"), "got: {err}");
        assert!(err.contains("index 1"), "got: {err}");
        let summary: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&errors_out).unwrap()).unwrap();
        assert_eq!(
            summary.get("schema"),
            Some(&serde::Value::String("kmatch.batch_errors/v1".into()))
        );
        assert_eq!(summary.get("failed"), Some(&serde::Value::Number(1.0)));
        assert_eq!(summary.get("total"), Some(&serde::Value::Number(2.0)));
        let Some(serde::Value::Array(errors)) = summary.get("errors") else {
            panic!("errors array missing");
        };
        assert_eq!(errors[0].get("index"), Some(&serde::Value::Number(1.0)));
    }

    #[test]
    fn batch_input_rejects_a_declared_n_its_lists_do_not_build() {
        let dir = std::env::temp_dir().join("kmatch-cli-test-declared-n");
        std::fs::create_dir_all(&dir).unwrap();
        let gs = dir.join("gs.json");
        std::fs::write(
            &gs,
            r#"[{"n":2,"proposers":[[0,1],[1,0]],"responders":[[0,1],[1,0]]},
                {"n":2,"proposers":[[0,1],[1,0]],"responders":[[0,1],[1,0]]},
                {"n":5,"proposers":[[0,1],[1,0]],"responders":[[0,1],[1,0]]}]"#,
        )
        .unwrap();
        let err = call(&["batch", "--input", gs.to_str().unwrap()]).unwrap_err();
        assert!(
            err.contains("1 of 3")
                && err.contains("index 2: shape mismatch in declared n: expected 5, got 2"),
            "got: {err}"
        );
        let rm = dir.join("rm.json");
        std::fs::write(&rm, r#"[{"n":9,"lists":[[1],[0]]}]"#).unwrap();
        let err = call(&[
            "batch",
            "--kind",
            "roommates",
            "--input",
            rm.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(
            err.contains("index 0: shape mismatch in declared n: expected 9, got 2"),
            "got: {err}"
        );
    }

    #[test]
    fn batch_input_happy_path_writes_empty_error_summary() {
        let dir = std::env::temp_dir().join("kmatch-cli-test5");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("good.json");
        let errors_out = dir.join("errors.json");
        std::fs::write(
            &input,
            r#"[{"n": 2, "proposers": [[0, 1], [1, 0]], "responders": [[0, 1], [1, 0]]}]"#,
        )
        .unwrap();
        call(&[
            "batch",
            "--input",
            input.to_str().unwrap(),
            "--errors-out",
            errors_out.to_str().unwrap(),
        ])
        .unwrap();
        let summary: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&errors_out).unwrap()).unwrap();
        assert_eq!(summary.get("failed"), Some(&serde::Value::Number(0.0)));
        // Non-array and missing-file inputs are rejected up front.
        let scalar = dir.join("scalar.json");
        std::fs::write(&scalar, "42").unwrap();
        assert!(call(&["batch", "--input", scalar.to_str().unwrap()]).is_err());
        assert!(call(&[
            "batch",
            "--input",
            dir.join("absent.json").to_str().unwrap()
        ])
        .is_err());
    }

    #[test]
    fn batch_metrics_out_emits_validatable_report() {
        let dir = std::env::temp_dir().join("kmatch-cli-test6");
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("report.json");
        let r = report.to_str().unwrap();
        call(&[
            "batch",
            "--n",
            "12",
            "--count",
            "40",
            "--seed",
            "5",
            "--metrics-out",
            r,
        ])
        .unwrap();
        call(&["report", "validate", "--input", r]).unwrap();
        let v: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(v.get("kind"), Some(&serde::Value::String("gs".into())));
        assert_eq!(v.get("instances"), Some(&serde::Value::Number(40.0)));

        // Roommates + prometheus format.
        let prom = dir.join("report.prom");
        call(&[
            "batch",
            "--n",
            "10",
            "--count",
            "20",
            "--kind",
            "roommates",
            "--metrics-out",
            prom.to_str().unwrap(),
            "--metrics-format",
            "prom",
        ])
        .unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("kmatch_run_instances"), "got:\n{text}");
        assert!(text.contains("kmatch_proposals_total"), "got:\n{text}");
        assert!(call(&[
            "batch",
            "--n",
            "4",
            "--metrics-out",
            r,
            "--metrics-format",
            "xml"
        ])
        .is_err());
    }

    #[test]
    fn oversized_lazy_n_is_a_typed_error() {
        // One past the oracle limit: rejected with an Err before any
        // oracle or workspace is built (a panic would fail this test, an
        // allocation of that size would abort it).
        let n = (kmatch_prefs::ORACLE_MAX_N + 1).to_string();
        let limit = kmatch_prefs::ORACLE_MAX_N.to_string();
        for cmd in [
            "solve roommates --n N",
            "solve smp --prefs random --n N",
            "solve smp --prefs truncated --n N",
            "solve smp --prefs scores --n N",
            "batch --prefs random --n N --count 1",
            "batch --prefs truncated --n N --count 1",
            "batch --kind roommates --prefs random --n N",
            "serve --listen 127.0.0.1:0 --prefs random --n N",
        ] {
            let words: Vec<&str> = cmd
                .split(' ')
                .map(|w| if w == "N" { n.as_str() } else { w })
                .collect();
            let err = call(&words).expect_err(cmd);
            assert!(err.contains(&limit), "{cmd}: {err}");
        }
        // The lower bounds stay typed errors too.
        assert!(call(&["batch", "--prefs", "random", "--n", "0", "--count", "1"]).is_err());
        assert!(call(&["solve", "roommates", "--n", "1"]).is_err());
        let serve = "serve --listen 127.0.0.1:0 --kind roommates --prefs random --n 1";
        let err = call(&serve.split(' ').collect::<Vec<_>>()).expect_err(serve);
        assert!(err.contains("need --n >= 2"), "{serve}: {err}");
    }

    #[test]
    fn degenerate_generator_sizes_are_typed_errors() {
        for (cmd, want) in [
            ("gen kpartite --k 3 --n 0", "need --n >= 1"),
            ("gen kpartite --k 0 --n 3", "need --k >= 2"),
            ("gen kpartite --k 1 --n 3", "need --k >= 2"),
            ("gen theorem1 --k 3 --n 0", "need --n >= 1"),
            ("solve smp --n 0", "need --n >= 1"),
            ("lattice --n 0", "need --n >= 1"),
            ("batch --kind gs --n 0", "need --n >= 1"),
            ("batch --kind roommates --n 1", "need --n >= 2"),
            ("serve --listen 127.0.0.1:0 --kind roommates --n 1", "need --n >= 2"),
        ] {
            let words: Vec<&str> = cmd.split(' ').collect();
            assert_eq!(call(&words).expect_err(cmd), want, "{cmd}");
        }
    }

    #[test]
    fn solve_roommates_lazy_paths() {
        // Escalating certified driver over the lazy oracle, the one
        // backend: it picks its own cuts.
        call(&["solve", "roommates", "--n", "64", "--seed", "3"]).unwrap();
        assert!(call(&["solve", "roommates", "--n", "1"]).is_err());
        assert!(misused(&["solve", "roommates", "--n", "8", "--prefs", "random"]));
        assert!(misused(&["solve", "roommates", "--n", "8", "--keep", "12"]));
    }

    #[test]
    fn solve_roommates_metrics_report_carries_certificates() {
        let dir = std::env::temp_dir().join("kmatch-cli-test-rm-solve");
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("report.json");
        let r = report.to_str().unwrap();
        call(&[
            "solve",
            "roommates",
            "--n",
            "128",
            "--seed",
            "5",
            "--metrics-out",
            r,
        ])
        .unwrap();
        call(&["report", "validate", "--input", r]).unwrap();
        let v: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(
            v.get("kind"),
            Some(&serde::Value::String("roommates".into()))
        );
        let counters = v.get("metrics").and_then(|m| m.get("counters")).unwrap();
        // The driver decided somehow: truncated certificate or full width.
        let decided = [
            "certified_stable",
            "certified_unsolvable",
            "escalation_fullwidth",
        ]
        .iter()
        .filter_map(|k| counters.get(k))
        .filter_map(|x| match x {
            serde::Value::Number(v) => Some(*v as u64),
            _ => None,
        })
        .sum::<u64>();
        assert_eq!(decided, 1, "exactly one deciding certificate per solve");
    }

    #[test]
    fn batch_roommates_lazy_backends() {
        call(&[
            "batch",
            "--kind",
            "roommates",
            "--prefs",
            "random",
            "--n",
            "48",
            "--count",
            "6",
            "--seed",
            "2",
        ])
        .unwrap();
        // The escalating driver is the one lazy roommates verdict path.
        assert_eq!(
            call(&[
                "batch",
                "--kind",
                "roommates",
                "--prefs",
                "truncated",
                "--n",
                "48",
                "--count",
                "6",
            ])
            .unwrap_err(),
            "unknown prefs backend: truncated"
        );
        // scores is bipartite-only; lazy roommates batches are serial.
        assert!(call(&[
            "batch",
            "--kind",
            "roommates",
            "--prefs",
            "scores",
            "--n",
            "16",
            "--count",
            "2"
        ])
        .is_err());
        assert!(call(&[
            "batch",
            "--kind",
            "roommates",
            "--prefs",
            "random",
            "--n",
            "16",
            "--count",
            "2",
            "--threads",
            "2",
        ])
        .is_err());
    }

    #[test]
    fn batch_roommates_stealing_executor_in_report() {
        let dir = std::env::temp_dir().join("kmatch-cli-test-rm-steal");
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("report.json");
        let r = report.to_str().unwrap();
        call(&[
            "batch",
            "--kind",
            "roommates",
            "--n",
            "24",
            "--count",
            "48",
            "--seed",
            "9",
            "--threads",
            "3",
            "--metrics-out",
            r,
        ])
        .unwrap();
        let v: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let executor = v.get("executor").expect("executor section present");
        assert_eq!(
            executor.get("path"),
            Some(&serde::Value::String("stealing".into()))
        );
        assert_eq!(executor.get("threads"), Some(&serde::Value::Number(3.0)));
    }

    #[test]
    fn report_validate_rejects_junk() {
        let dir = std::env::temp_dir().join("kmatch-cli-test7");
        std::fs::create_dir_all(&dir).unwrap();
        let junk = dir.join("junk.json");
        std::fs::write(&junk, r#"{"schema": "something-else"}"#).unwrap();
        assert!(call(&["report", "validate", "--input", junk.to_str().unwrap()]).is_err());
        assert!(call(&["report", "validate"]).is_err(), "--input required");
    }

    #[test]
    fn batch_cache_reports_hits_for_repeated_inputs() {
        let dir = std::env::temp_dir().join("kmatch-cli-test8");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("batch.json");
        std::fs::write(
            &input,
            r#"[{"n": 2, "proposers": [[0, 1], [1, 0]], "responders": [[0, 1], [1, 0]]}]"#,
        )
        .unwrap();
        let p = input.to_str().unwrap();
        // The same file three times: 1 miss, 2 cache hits.
        call(&[
            "batch", "--input", p, "--input", p, "--input", p, "--cache", "on",
        ])
        .unwrap();
        call(&["batch", "--input", p, "--cache", "off"]).unwrap();
        assert!(call(&["batch", "--input", p, "--cache", "maybe"]).is_err());
        assert!(call(&[
            "batch",
            "--n",
            "4",
            "--count",
            "2",
            "--kind",
            "roommates",
            "--cache",
            "on",
        ])
        .is_err());
    }

    #[test]
    fn delta_command_replays_and_reports() {
        let dir = std::env::temp_dir().join("kmatch-cli-test9");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.json");
        let deltas = dir.join("deltas.json");
        let report = dir.join("report.json");
        std::fs::write(
            &inst,
            r#"{"n": 3,
 "proposers": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
 "responders": [[1, 0, 2], [2, 1, 0], [0, 2, 1]]}"#,
        )
        .unwrap();
        std::fs::write(
            &deltas,
            r#"[
  {"op": "swap", "side": "proposer", "row": 0, "prefs": [], "a": 0, "b": 2, "from": 0, "to": 0},
  {"op": "set_row", "side": "responder", "row": 1, "prefs": [0, 1, 2], "a": 0, "b": 0, "from": 0, "to": 0},
  {"op": "splice", "side": "proposer", "row": 2, "prefs": [], "a": 0, "b": 0, "from": 2, "to": 0}
]"#,
        )
        .unwrap();
        call(&[
            "delta",
            "--input",
            inst.to_str().unwrap(),
            "--deltas",
            deltas.to_str().unwrap(),
            "--metrics-out",
            report.to_str().unwrap(),
        ])
        .unwrap();
        call(&["report", "validate", "--input", report.to_str().unwrap()]).unwrap();
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"cache_hits\""), "got:\n{text}");
        assert!(text.contains("\"warm_solves\""), "got:\n{text}");
        // A malformed delta is rejected with its index.
        std::fs::write(&deltas, r#"[{"op": "reverse"}]"#).unwrap();
        let err = call(&[
            "delta",
            "--input",
            inst.to_str().unwrap(),
            "--deltas",
            deltas.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("delta 0"), "got: {err}");
    }

    #[test]
    fn bind_incremental_reports_dirty_and_clean_edges() {
        let dir = std::env::temp_dir().join("kmatch-cli-test10");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.json");
        let updates = dir.join("updates.json");
        let report = dir.join("report.json");
        let p = inst.to_str().unwrap();
        call(&[
            "gen", "kpartite", "--k", "4", "--n", "4", "--seed", "11", "--out", p,
        ])
        .unwrap();
        call(&["bind", "--input", p, "--tree", "path"]).unwrap();
        std::fs::write(
            &updates,
            r#"[{"gender": 1, "index": 0, "target": 2, "prefs": [3, 2, 1, 0]}]"#,
        )
        .unwrap();
        call(&[
            "bind",
            "--input",
            p,
            "--tree",
            "path",
            "--incremental",
            "true",
            "--updates",
            updates.to_str().unwrap(),
            "--metrics-out",
            report.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"edges_dirty\""), "got:\n{text}");
        assert!(text.contains("\"edges_clean\""), "got:\n{text}");
    }

    #[test]
    fn solve_smp_trace_out_emits_loadable_chrome_trace() {
        let dir = std::env::temp_dir().join("kmatch-cli-test11");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("smp.trace.json");
        let t = trace.to_str().unwrap();
        call(&["solve", "smp", "--n", "12", "--seed", "7", "--trace-out", t]).unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        let names = kmatch_trace::chrome_trace_names(&text, &["gs.solve", "gs.round"]).unwrap();
        assert!(names.len() >= 2);
        // Native format carries the schema tag.
        call(&[
            "solve",
            "smp",
            "--n",
            "8",
            "--trace-out",
            t,
            "--trace-format",
            "json",
        ])
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        kmatch_trace::validate_trace_json(&text).unwrap();
        // Tracing is gs-only; stray trace flags need --trace-out.
        assert!(call(&[
            "solve",
            "smp",
            "--n",
            "8",
            "--mode",
            "fair",
            "--trace-out",
            t
        ])
        .is_err());
        assert!(call(&["solve", "smp", "--n", "8", "--trace-format", "chrome"]).is_err());
        assert!(call(&[
            "solve",
            "smp",
            "--n",
            "8",
            "--trace-out",
            t,
            "--trace-format",
            "xml"
        ])
        .is_err());
    }

    #[test]
    fn batch_trace_out_writes_worker_tracks() {
        let dir = std::env::temp_dir().join("kmatch-cli-test12");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("batch.trace.json");
        let t = trace.to_str().unwrap();
        call(&[
            "batch",
            "--n",
            "10",
            "--count",
            "24",
            "--seed",
            "3",
            "--trace-out",
            t,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        kmatch_trace::chrome_trace_names(&text, &["batch.chunk", "gs.solve"]).unwrap();
        assert!(text.contains("worker-0"));
        // Batch timelines go through per-chunk flight recorders, which
        // are phase-level by design: no per-round spans on the tracks.
        assert!(!text.contains("gs.round"), "got:\n{text}");
        // Roommates batch traces the Irving phases, through a tiny
        // flight recorder that must wrap without corrupting the export.
        call(&[
            "batch",
            "--n",
            "10",
            "--count",
            "24",
            "--kind",
            "roommates",
            "--trace-out",
            t,
            "--flight-recorder",
            "16",
        ])
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        kmatch_trace::chrome_trace_names(&text, &["irving.phase1"]).unwrap();
        // Tracing composes with --metrics-out but not --cache.
        let report = dir.join("report.json");
        call(&[
            "batch",
            "--n",
            "8",
            "--count",
            "10",
            "--trace-out",
            t,
            "--metrics-out",
            report.to_str().unwrap(),
        ])
        .unwrap();
        call(&["report", "validate", "--input", report.to_str().unwrap()]).unwrap();
        let input = dir.join("one.json");
        std::fs::write(
            &input,
            r#"[{"n": 2, "proposers": [[0, 1], [1, 0]], "responders": [[0, 1], [1, 0]]}]"#,
        )
        .unwrap();
        assert!(call(&[
            "batch",
            "--input",
            input.to_str().unwrap(),
            "--cache",
            "on",
            "--trace-out",
            t,
        ])
        .is_err());
    }

    #[test]
    fn flight_recorder_zero_is_rejected_wherever_trace_out_is() {
        // An empty ring would drop every event and write an empty trace.
        let trace = std::env::temp_dir().join(format!("kmatch-fr0-{}.json", std::process::id()));
        let t = trace.to_str().unwrap();
        for cmd in [
            "batch --kind gs --n 4 --count 3",
            "batch --kind roommates --n 4 --count 3",
            "solve smp --n 4",
        ] {
            let mut words: Vec<&str> = cmd.split(' ').collect();
            words.extend(["--trace-out", t, "--flight-recorder", "0"]);
            let err = call(&words).expect_err(cmd);
            assert_eq!(err, "need --flight-recorder >= 1", "{cmd}");
            assert!(!misused(&words), "{cmd}: one error line, no usage");
        }
        assert!(!trace.exists(), "no trace was written");
    }

    #[test]
    fn bind_and_delta_trace_out_cover_edges_and_cache() {
        let dir = std::env::temp_dir().join("kmatch-cli-test13");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.json");
        let trace = dir.join("bind.trace.json");
        let p = inst.to_str().unwrap();
        let t = trace.to_str().unwrap();
        call(&[
            "gen", "kpartite", "--k", "4", "--n", "4", "--seed", "13", "--out", p,
        ])
        .unwrap();
        call(&["bind", "--input", p, "--tree", "path", "--trace-out", t]).unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        kmatch_trace::chrome_trace_names(&text, &["bind.edge", "gs.solve"]).unwrap();

        // Incremental bind with an update: dirty and clean edge spans.
        let updates = dir.join("updates.json");
        std::fs::write(
            &updates,
            r#"[{"gender": 1, "index": 0, "target": 2, "prefs": [3, 2, 1, 0]}]"#,
        )
        .unwrap();
        call(&[
            "bind",
            "--input",
            p,
            "--tree",
            "path",
            "--incremental",
            "true",
            "--updates",
            updates.to_str().unwrap(),
            "--trace-out",
            t,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        kmatch_trace::chrome_trace_names(&text, &["bind.edge.dirty", "bind.edge.clean"]).unwrap();

        // Delta replay: cache instants plus engine spans.
        let binst = dir.join("bipartite.json");
        let deltas = dir.join("deltas.json");
        std::fs::write(
            &binst,
            r#"{"n": 3,
 "proposers": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
 "responders": [[1, 0, 2], [2, 1, 0], [0, 2, 1]]}"#,
        )
        .unwrap();
        std::fs::write(
            &deltas,
            r#"[{"op": "swap", "side": "proposer", "row": 0, "prefs": [], "a": 0, "b": 2, "from": 0, "to": 0}]"#,
        )
        .unwrap();
        call(&[
            "delta",
            "--input",
            binst.to_str().unwrap(),
            "--deltas",
            deltas.to_str().unwrap(),
            "--trace-out",
            t,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        kmatch_trace::chrome_trace_names(&text, &["cache.miss", "gs.solve"]).unwrap();
    }

    #[test]
    fn smp_modes_run() {
        for mode in ["gs", "fair", "man", "woman"] {
            call(&["solve", "smp", "--n", "8", "--seed", "1", "--mode", mode]).unwrap();
        }
        assert!(call(&["solve", "smp", "--n", "8", "--mode", "nope"]).is_err());
    }

    #[test]
    fn smp_lazy_prefs_backends_run() {
        for prefs in ["csr", "random", "scores"] {
            call(&["solve", "smp", "--n", "32", "--seed", "5", "--prefs", prefs]).unwrap();
        }
        // Past the pair-print gate; still instant because nothing is
        // materialized.
        call(&["solve", "smp", "--n", "5000", "--prefs", "random"]).unwrap();
        call(&[
            "solve",
            "smp",
            "--n",
            "40",
            "--prefs",
            "truncated",
            "--keep",
            "4",
        ])
        .unwrap();
        assert!(call(&["solve", "smp", "--n", "8", "--prefs", "nope"]).is_err());
        assert!(
            call(&["solve", "smp", "--n", "8", "--prefs", "random", "--mode", "fair"]).is_err()
        );
        assert!(call(&[
            "solve",
            "smp",
            "--n",
            "8",
            "--prefs",
            "truncated",
            "--keep",
            "0"
        ])
        .is_err());
        let dir = std::env::temp_dir().join("kmatch-cli-test14");
        std::fs::create_dir_all(&dir).unwrap();
        let t = dir.join("x.trace.json");
        assert!(call(&[
            "solve",
            "smp",
            "--n",
            "8",
            "--prefs",
            "random",
            "--trace-out",
            t.to_str().unwrap(),
        ])
        .is_err());
    }

    #[test]
    fn batch_lazy_prefs_backends_run() {
        for prefs in ["random", "scores"] {
            call(&[
                "batch", "--n", "24", "--count", "16", "--seed", "3", "--prefs", prefs,
            ])
            .unwrap();
        }
        call(&[
            "batch",
            "--n",
            "24",
            "--count",
            "8",
            "--prefs",
            "truncated",
            "--keep",
            "5",
        ])
        .unwrap();
        // Lazy batches still compose with --metrics-out.
        let dir = std::env::temp_dir().join("kmatch-cli-test15");
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("report.json");
        let r = report.to_str().unwrap();
        call(&[
            "batch",
            "--n",
            "16",
            "--count",
            "8",
            "--prefs",
            "random",
            "--metrics-out",
            r,
        ])
        .unwrap();
        call(&["report", "validate", "--input", r]).unwrap();
        // Incompatible combinations are rejected up front.
        assert!(call(&["batch", "--n", "8", "--prefs", "nope"]).is_err());
        assert!(call(&[
            "batch",
            "--n",
            "8",
            "--kind",
            "roommates",
            "--prefs",
            "scores"
        ])
        .is_err());
        assert!(call(&["batch", "--n", "8", "--prefs", "random", "--cache", "on"]).is_err());
        assert!(call(&[
            "batch",
            "--n",
            "8",
            "--prefs",
            "truncated",
            "--metrics-out",
            r
        ])
        .is_err());
        let input = dir.join("one.json");
        std::fs::write(
            &input,
            r#"[{"n": 2, "proposers": [[0, 1], [1, 0]], "responders": [[0, 1], [1, 0]]}]"#,
        )
        .unwrap();
        assert!(call(&[
            "batch",
            "--input",
            input.to_str().unwrap(),
            "--prefs",
            "random",
        ])
        .is_err());
    }
}
