//! Zero-steady-state-allocation guarantee for the GS workspace fast path,
//! with and without metrics.
//!
//! After a warm-up solve grows the workspace buffers, repeat solves of
//! same-shaped instances allocate only the two partner arrays owned by
//! each returned matching — and the metered path with a reused
//! `SolverMetrics` must allocate *exactly as much* as the `NoMetrics`
//! path: counters are plain `u64` fields and the histograms are
//! fixed-size inline arrays, so observing a solve touches no heap.
//!
//! Measured with a counting `GlobalAlloc` wrapper; the counters are
//! thread-local so the test harness's other threads cannot pollute them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kmatch_gs::GsWorkspace;
use kmatch_obs::SolverMetrics;
use kmatch_prefs::gen::uniform::uniform_bipartite;
use kmatch_prefs::CsrPrefs;
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

/// The matching returned by a GS solve owns exactly two partner arrays.
const ALLOCS_PER_SOLVE: u64 = 2;

#[test]
fn steady_state_allocates_only_the_matching() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let inst = uniform_bipartite(64, &mut rng);
    let mut ws = GsWorkspace::new();
    ws.solve(&inst);
    let reps = 50u64;
    let allocs = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve(&inst));
        }
    });
    assert!(
        allocs <= reps * ALLOCS_PER_SOLVE,
        "expected at most the matching's two partner arrays per solve, \
         saw {allocs} allocations over {reps} solves"
    );
}

#[test]
fn metered_steady_state_allocates_like_plain() {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let inst = uniform_bipartite(64, &mut rng);
    let csr = CsrPrefs::from_prefs(&inst);
    let mut ws = GsWorkspace::new();
    ws.solve(&csr);
    let reps = 50u64;
    let plain = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve(&csr));
        }
    });
    let mut metrics = SolverMetrics::new();
    let metered = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve_metered(&csr, &mut metrics));
        }
    });
    assert_eq!(
        metered, plain,
        "SolverMetrics must add zero allocations over the NoMetrics path"
    );
    assert_eq!(metrics.solves, reps);
    assert_eq!(metrics.workspace_reused, reps);
    assert_eq!(metrics.workspace_fresh, 0);
}

#[test]
fn nospans_steady_state_allocates_like_plain() {
    // The span hooks default to no-ops, so the metered entry point over
    // `NoMetrics` — every span call included — is the plain path.
    use kmatch_obs::NoMetrics;
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let inst = uniform_bipartite(64, &mut rng);
    let csr = CsrPrefs::from_prefs(&inst);
    let mut ws = GsWorkspace::new();
    // Warm both entry points past any one-time lazy allocation.
    ws.solve(&csr);
    ws.solve_metered(&csr, &mut NoMetrics);
    let reps = 50u64;
    let plain = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve(&csr));
        }
    });
    let spanned = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve_metered(&csr, &mut NoMetrics));
        }
    });
    assert!(
        spanned <= plain && spanned <= reps * ALLOCS_PER_SOLVE,
        "the no-op span hooks must add zero allocations over the plain path \
         (plain {plain}, spanned {spanned})"
    );
}

#[test]
fn strip_kernel_steady_state_allocates_only_the_matching() {
    // `solve` dispatches complete, untraced instances to the strip
    // kernel (PROPOSAL_STRIP-lane gathers + branchless packed resolve).
    // Its strips are fixed-size stack arrays, so the kernel must be
    // exactly as allocation-free as the scalar loop it replaced — over
    // the u32 half-width CSR arena and a computed lazy oracle alike.
    use kmatch_prefs::RandomOracle;
    let oracle = RandomOracle::new(96, 21);
    let csr = CsrPrefs::from_oracle(&oracle);
    let mut ws = GsWorkspace::new();
    ws.solve(&csr);
    ws.solve(&oracle);
    let reps = 50u64;
    let via_csr = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve(&csr));
        }
    });
    let via_oracle = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve(&oracle));
        }
    });
    assert!(
        via_csr <= reps * ALLOCS_PER_SOLVE,
        "strip kernel over the CSR arena allocated {via_csr} times in {reps} solves"
    );
    assert!(
        via_oracle <= reps * ALLOCS_PER_SOLVE,
        "strip kernel over the lazy oracle allocated {via_oracle} times in {reps} solves"
    );
}

#[test]
fn flight_recorder_pair_steady_state_allocates_like_plain() {
    // A shard paired with a preallocated flight recorder: the ring
    // overwrites in place, so recording the solve spans beside the
    // counters adds zero heap traffic over the bare metered path.
    use kmatch_obs::ManualClock;
    use kmatch_trace::FlightRecorder;
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let inst = uniform_bipartite(64, &mut rng);
    let csr = CsrPrefs::from_prefs(&inst);
    let mut ws = GsWorkspace::new();
    let clock = ManualClock::new();
    let (mut shard, mut ring) = (SolverMetrics::new(), FlightRecorder::new(&clock, 64));
    ws.solve_metered(&csr, &mut (&mut shard, &mut ring));
    let reps = 50u64;
    let mut metrics = SolverMetrics::new();
    let plain = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve_metered(&csr, &mut metrics));
        }
    });
    let recorded = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve_metered(&csr, &mut (&mut shard, &mut ring)));
        }
    });
    assert_eq!(
        recorded, plain,
        "(SolverMetrics, FlightRecorder) must add zero allocations over bare SolverMetrics"
    );
    assert_eq!(shard.solves, reps + 1);
    assert_eq!(
        ring.len() as u64 + ring.dropped(),
        2 * (reps + 1),
        "one gs.solve span each"
    );
}

#[test]
fn live_probe_steady_state_allocates_like_plain() {
    // The live lane is five uncontended atomic stores per publish — no
    // heap either. Warm one solve, then the loop through the
    // (shard, progress) pair must allocate exactly as much as the bare
    // metered loop.
    use kmatch_forensics::ProbeSet;
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    let inst = uniform_bipartite(64, &mut rng);
    let csr = CsrPrefs::from_prefs(&inst);
    let probes = ProbeSet::new(1);
    let mut ws = GsWorkspace::new();
    let (mut shard, mut progress) = (SolverMetrics::new(), probes.observer(0));
    ws.solve_metered(&csr, &mut (&mut shard, &mut progress));
    let reps = 50u64;
    let mut metrics = SolverMetrics::new();
    let plain = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve_metered(&csr, &mut metrics));
        }
    });
    let live = allocations_in(|| {
        for _ in 0..reps {
            std::hint::black_box(ws.solve_metered(&csr, &mut (&mut shard, &mut progress)));
        }
    });
    assert_eq!(
        live, plain,
        "a live WorkerProbe lane must add zero allocations (publishes are atomics)"
    );
    let snap = &probes.snapshot()[0];
    assert!(snap.generation > 0, "the lane actually published");
    assert_eq!(shard.solves, reps + 1);
}

#[test]
fn counting_allocator_is_live() {
    // Sanity: the harness actually observes allocations.
    let allocs = allocations_in(|| {
        std::hint::black_box(vec![1u8; 512]);
    });
    assert!(allocs >= 1);
}
