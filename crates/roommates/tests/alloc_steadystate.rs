//! Zero-steady-state-allocation guarantee for the workspace fast path.
//!
//! After a warm-up solve grows the workspace buffers, repeat solves of
//! same-shaped instances must not touch the allocator at all for
//! unsolvable instances, and must allocate exactly once per solve (the
//! partner array owned by the returned matching) for solvable ones.
//!
//! Measured with a counting `GlobalAlloc` wrapper; the counters are
//! thread-local so the test harness's other threads cannot pollute them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kmatch_prefs::gen::paper::no_stable_roommates_4;
use kmatch_prefs::gen::uniform::uniform_roommates;
use kmatch_prefs::RoommatesInstance;
use kmatch_roommates::RoommatesWorkspace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counter is a
// thread-local increment with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations performed by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn unsolvable_steady_state_allocates_nothing() {
    let inst = no_stable_roommates_4();
    let mut ws = RoommatesWorkspace::new();
    // Warm-up: grows every scratch buffer to this shape.
    assert!(!ws.solve(&inst).is_stable());
    let allocs = allocations_in(|| {
        for _ in 0..100 {
            assert!(!ws.solve(&inst).is_stable());
        }
    });
    assert_eq!(
        allocs, 0,
        "workspace-reuse solves of an unsolvable instance must not allocate"
    );
}

#[test]
fn solvable_steady_state_allocates_only_the_matching() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    // A solvable instance (retry until one is found — most even n are).
    let inst = loop {
        let cand = uniform_roommates(64, &mut rng);
        if RoommatesWorkspace::new().solve(&cand).is_stable() {
            break cand;
        }
    };
    let mut ws = RoommatesWorkspace::new();
    ws.solve(&inst);
    let reps = 50;
    let allocs = allocations_in(|| {
        for _ in 0..reps {
            let out = ws.solve(&inst);
            assert!(out.is_stable());
            std::hint::black_box(&out);
        }
    });
    assert!(
        allocs <= reps,
        "expected at most one allocation per solve (the returned partner \
         array), saw {allocs} over {reps} solves"
    );
}

#[test]
fn strip_scan_over_lazy_oracle_allocates_only_the_matching() {
    // The phase-1 liveness scan runs in P1_LANES-wide strips of
    // fixed-size stack arrays; over a computed RandomRoommatesOracle the
    // whole solve must stay as quiet as the materialized path — the
    // O(n)-memory scaling rows of bench_roommates_json rest on this.
    use kmatch_prefs::RandomRoommatesOracle;
    let oracle = RandomRoommatesOracle::new(64, 9);
    let mut ws = RoommatesWorkspace::new();
    ws.solve(&oracle);
    let reps = 50;
    let allocs = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve(&oracle));
        }
    });
    assert!(
        allocs <= reps,
        "strip scan over the lazy oracle allocated {allocs} times in {reps} solves"
    );
}

#[test]
fn growing_then_shrinking_instances_reuse_buffers() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let big = uniform_roommates(48, &mut rng);
    let small = uniform_roommates(8, &mut rng);
    let mut ws = RoommatesWorkspace::new();
    ws.solve(&big);
    // Smaller instances fit in the grown buffers: only the per-solve
    // matching may allocate.
    let reps = 40;
    let allocs = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve(&small));
        }
    });
    assert!(
        allocs <= reps,
        "saw {allocs} allocations over {reps} solves"
    );
}

#[test]
fn pre_sized_workspace_first_solve_is_quiet() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let inst = uniform_roommates(32, &mut rng);
    let mut ws = RoommatesWorkspace::with_capacity(32, inst.total_entries());
    let allocs = allocations_in(|| {
        std::hint::black_box(ws.solve(&inst));
    });
    assert!(
        allocs <= 1,
        "pre-sized workspace should only allocate the matching, saw {allocs}"
    );
}

#[test]
fn metered_unsolvable_steady_state_allocates_nothing() {
    // The metered path with a reused SolverMetrics must be as quiet as the
    // NoMetrics path: counters are plain u64 fields and the histograms are
    // fixed-size inline arrays, so observing a solve touches no heap.
    let inst = no_stable_roommates_4();
    let mut ws = RoommatesWorkspace::new();
    let mut metrics = kmatch_obs::SolverMetrics::new();
    ws.solve_metered(&inst, &mut metrics);
    let allocs = allocations_in(|| {
        for _ in 0..100 {
            assert!(!ws.solve_metered(&inst, &mut metrics).is_stable());
        }
    });
    assert_eq!(
        allocs, 0,
        "metered workspace-reuse solves of an unsolvable instance must not allocate"
    );
    assert_eq!(metrics.solves, 101);
}

#[test]
fn metered_solvable_steady_state_allocates_like_plain() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let inst = loop {
        let cand = uniform_roommates(48, &mut rng);
        if RoommatesWorkspace::new().solve(&cand).is_stable() {
            break cand;
        }
    };
    let mut ws = RoommatesWorkspace::new();
    ws.solve(&inst);
    let reps = 50u64;
    let plain = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve(&inst));
        }
    });
    let mut metrics = kmatch_obs::SolverMetrics::new();
    let metered = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve_metered(&inst, &mut metrics));
        }
    });
    assert_eq!(
        metered, plain,
        "SolverMetrics must add zero allocations over the NoMetrics path"
    );
    assert_eq!(metrics.solves, reps);
    assert_eq!(metrics.workspace_reused, reps);
}

#[test]
fn escalating_steady_state_reuses_the_workspace() {
    // The escalating driver re-solves through one workspace as it walks
    // the cut schedule (truncated attempts, certificate verification,
    // possibly the full-width fallback). After a warm-up solve has grown
    // every buffer, repeat escalating solves of the same instance must
    // not regrow anything: the only per-solve allocations are the
    // returned witness vectors (partner array or partition table), a
    // small constant per solve — never O(n) buffer churn.
    use kmatch_prefs::CachedRoommatesOracle;
    use kmatch_roommates::escalate::solve_escalating_from;
    let oracle = CachedRoommatesOracle::new(96, 11);
    let mut ws = RoommatesWorkspace::new();
    let mut metrics = kmatch_obs::NoMetrics;
    let (warm, _) = solve_escalating_from(&oracle, &mut ws, 4, &mut metrics);
    let reps = 50u64;
    let allocs = allocations_in(|| {
        for _ in 0..reps {
            let (out, report) = solve_escalating_from(&oracle, &mut ws, 4, &mut metrics);
            assert_eq!(out.is_stable(), warm.is_stable());
            assert!(report.attempts >= 1 || report.cert == kmatch_roommates::CertKind::FullWidth);
            std::hint::black_box(&out);
        }
    });
    assert!(
        allocs <= reps * 4,
        "escalating steady state allocated {allocs} times over {reps} solves — \
         workspace buffers are being regrown"
    );
}

#[test]
fn flight_recorder_pair_steady_state_allocates_like_plain() {
    // A shard paired with a preallocated flight recorder: the ring
    // overwrites in place, so recording every solve's Irving phase spans
    // beside the counters adds zero heap traffic over the bare metered
    // path — on the stable verdict and on the unsolvable one alike.
    use kmatch_obs::ManualClock;
    use kmatch_trace::FlightRecorder;
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let stable = loop {
        let cand = uniform_roommates(48, &mut rng);
        if RoommatesWorkspace::new().solve(&cand).is_stable() {
            break cand;
        }
    };
    let clock = ManualClock::new();
    let mut shard = kmatch_obs::SolverMetrics::new();
    let mut ring = FlightRecorder::new(&clock, 64);
    let mut metrics = kmatch_obs::SolverMetrics::new();
    for inst in [stable, no_stable_roommates_4()] {
        let mut ws = RoommatesWorkspace::new();
        ws.solve_metered(&inst, &mut (&mut shard, &mut ring));
        let reps = 50u64;
        let plain = allocations_in(|| {
            for _ in 0..reps {
                std::hint::black_box(ws.solve_metered(&inst, &mut metrics));
            }
        });
        let recorded = allocations_in(|| {
            for _ in 0..reps {
                std::hint::black_box(ws.solve_metered(&inst, &mut (&mut shard, &mut ring)));
            }
        });
        assert_eq!(
            recorded, plain,
            "(SolverMetrics, FlightRecorder) must add zero allocations over bare SolverMetrics"
        );
    }
    assert_eq!(shard.solves, 102);
    assert!(ring.dropped() > 0, "the ring wrapped while recording");

    // Escalation attempts report through the same core:
    // recording their spans adds no allocation either.
    use kmatch_roommates::escalate::solve_escalating_from;
    let oracle = kmatch_prefs::CachedRoommatesOracle::new(96, 11);
    let mut ws = RoommatesWorkspace::new();
    solve_escalating_from(&oracle, &mut ws, 4, &mut (&mut shard, &mut ring));
    let reps = 50u64;
    let plain = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(solve_escalating_from(&oracle, &mut ws, 4, &mut metrics));
        }
    });
    let recorded = allocations_in(|| {
        for _ in 0..reps {
            let mut pair = (&mut shard, &mut ring);
            std::hint::black_box(solve_escalating_from(&oracle, &mut ws, 4, &mut pair));
        }
    });
    assert_eq!(recorded, plain, "no extra allocation per escalation");
    assert_eq!(shard.solves, 102 + reps + 1);
}

#[test]
fn live_probe_escalating_allocates_like_plain() {
    // A live lane costs five atomic stores per publish — no heap. The
    // probe snapshot afterwards must show the lane back at idle with a
    // real generation count.
    use kmatch_forensics::{ProbeSet, Probed};
    use kmatch_prefs::CachedRoommatesOracle;
    use kmatch_roommates::escalate::solve_escalating_from;
    let oracle = CachedRoommatesOracle::new(96, 11);
    let probes = ProbeSet::new(1);
    let mut ws = RoommatesWorkspace::new();
    let mut plain_metrics = kmatch_obs::SolverMetrics::new();
    let mut shard = kmatch_obs::SolverMetrics::new();
    let mut progress = Probed::new(probes.probe(0));
    solve_escalating_from(&oracle, &mut ws, 4, &mut plain_metrics);
    solve_escalating_from(&oracle, &mut ws, 4, &mut (&mut shard, &mut progress));
    let reps = 50u64;
    let plain = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(solve_escalating_from(&oracle, &mut ws, 4, &mut plain_metrics));
        }
    });
    let live = allocations_in(|| {
        for _ in 0..reps {
            let mut pair = (&mut shard, &mut progress);
            std::hint::black_box(solve_escalating_from(&oracle, &mut ws, 4, &mut pair));
        }
    });
    assert_eq!(
        live, plain,
        "a live WorkerProbe lane must add zero allocations (publishes are atomics)"
    );
    let snap = &probes.snapshot()[0];
    assert!(snap.generation > 0, "the lane actually published");
    assert_eq!(snap.phase, kmatch_obs::phase::IDLE, "lane parked at idle");
}

#[test]
fn split_escalating_allocations_do_not_grow_with_n() {
    // At a thread budget of 2 and sizes above the split threshold, the
    // arena build and the partition check run on two workers. What the
    // calling thread allocates per solve — the executor's bookkeeping,
    // the two thread spawns per walk, the partition tables and the
    // returned witness — is a fixed count, whatever n: the task outputs
    // land in workspace buffers that a warm-up has grown. Both instances
    // end in a verified partition after one attempt.
    use kmatch_prefs::CachedRoommatesOracle;
    use kmatch_roommates::{solve_escalating, CertKind};
    let small = CachedRoommatesOracle::new(5000, 2);
    let large = CachedRoommatesOracle::new(6000, 1);
    let mut ws = RoommatesWorkspace::new();
    let count = |ws: &mut RoommatesWorkspace, oracle: &CachedRoommatesOracle| {
        let mut report = None;
        let allocs = allocations_in(|| {
            let (out, r) = solve_escalating(oracle, ws);
            std::hint::black_box(out);
            report = Some(r);
        });
        let report = report.expect("solved");
        assert_eq!((report.cert, report.attempts), (CertKind::Partition, 1));
        allocs
    };
    ws.set_threads(1);
    for oracle in [&large, &small] {
        count(&mut ws, oracle);
    }
    let serial = count(&mut ws, &small);
    ws.set_threads(2);
    for oracle in [&large, &small] {
        count(&mut ws, oracle);
    }
    let at_small = count(&mut ws, &small);
    let at_large = count(&mut ws, &large);
    assert_eq!(
        at_small, at_large,
        "a budget-2 escalating solve allocated {at_small} times at n = 5000 \
         but {at_large} times at n = 6000"
    );
    assert!(
        at_small > serial,
        "the budget-2 solve must run the executor ({at_small} allocations, \
         {serial} on one thread)"
    );
}

#[test]
fn counting_allocator_is_live() {
    // Sanity: the harness actually observes allocations.
    let allocs = allocations_in(|| {
        std::hint::black_box(vec![1u8; 512]);
    });
    assert!(allocs >= 1);
}

#[test]
fn reused_outcomes_stay_correct_under_pressure() {
    // Belt and braces: buffer reuse must not trade correctness for speed.
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let mut ws = RoommatesWorkspace::new();
    for n in [16usize, 4, 32, 6, 32, 16] {
        let inst: RoommatesInstance = uniform_roommates(n, &mut rng);
        let fast = ws.solve(&inst);
        let reference = kmatch_roommates::solve_reference(&inst);
        assert_eq!(fast.matching(), reference.matching());
        assert_eq!(fast.stats(), reference.stats());
    }
}
