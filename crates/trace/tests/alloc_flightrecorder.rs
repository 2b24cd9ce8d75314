//! Zero-steady-state-allocation guarantee for the flight recorder.
//!
//! The ring buffer is fully preallocated at construction; recording —
//! including overwriting once the ring wraps — must never touch the
//! allocator. Measured with the same counting `GlobalAlloc` wrapper the
//! engine crates use.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kmatch_obs::{ManualClock, Metrics};
use kmatch_trace::FlightRecorder;

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
fn recording_allocates_nothing_even_after_wrap() {
    let clock = ManualClock::new();
    let mut rec = FlightRecorder::new(&clock, 256);
    let allocs = allocations_in(|| {
        // 40 full laps around the ring: fill, wrap, overwrite.
        for i in 0..(256u64 * 40) {
            clock.set(i);
            rec.span_begin("gs.round", i);
            rec.span_instant("cache.miss", 0);
            rec.span_end("gs.round");
        }
    });
    assert_eq!(
        allocs, 0,
        "flight-recorder steady state must not touch the allocator"
    );
    assert_eq!(rec.len(), 256);
    assert!(rec.dropped() > 0, "the ring must actually have wrapped");
}

#[test]
fn counting_allocator_is_live() {
    // Sanity: the harness actually observes allocations — including the
    // flight recorder's own construction-time buffer.
    let clock = ManualClock::new();
    let allocs = allocations_in(|| {
        std::hint::black_box(FlightRecorder::new(&clock, 512));
    });
    assert!(allocs >= 1);
}
