//! The half-width rank tables cap `n` at `CSR_MAX_N` = 65 536. One more
//! member per side must be a typed `PrefsError::TooLarge`, raised before
//! the build allocates anything: with the `n²` tables such an instance
//! would need tens of gigabytes. At the cap itself, a document whose
//! lists are empty holds a few hundred kilobytes: its build must fail on
//! the first list without reserving the `n²` tables either.
//!
//! A thread-local byte-counting allocator (the technique of
//! `crates/gs/tests/alloc_lazy_scale.rs`) pins both: the rejected builds
//! above the cap allocate zero bytes, those at the cap O(n).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kmatch_prefs::{BipartiteInstance, KPartiteInstance, PrefsError, CSR_MAX_N};

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct ByteCountingAlloc;

// SAFETY: delegates entirely to `System`; the thread-local bump cannot
// allocate or unwind.
unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|b| b.set(b.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|b| b.set(b.get() + layout.size() as u64));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|b| b.set(b.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: ByteCountingAlloc = ByteCountingAlloc;

fn bytes_allocated_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

#[test]
fn bipartite_above_the_cap_is_too_large_without_allocating() {
    let rows: Vec<Vec<u32>> = vec![Vec::new(); CSR_MAX_N + 1];
    let (result, bytes) = bytes_allocated_in(|| BipartiteInstance::from_lists(&rows, &rows));
    assert!(
        matches!(result, Err(PrefsError::TooLarge { .. })),
        "got {result:?}"
    );
    assert_eq!(bytes, 0, "the rejected build allocated {bytes} bytes");
}

#[test]
fn kpartite_above_the_cap_is_too_large_without_allocating() {
    let gender: Vec<Vec<Vec<u32>>> = vec![Vec::new(); CSR_MAX_N + 1];
    let lists = vec![gender.clone(), gender];
    let (result, bytes) = bytes_allocated_in(|| KPartiteInstance::from_lists(&lists));
    assert!(
        matches!(result, Err(PrefsError::TooLarge { .. })),
        "got {result:?}"
    );
    assert_eq!(bytes, 0, "the rejected build allocated {bytes} bytes");
}

/// What a rejected build at the cap may allocate: a few scratch rows.
const AT_CAP_BUDGET: u64 = 16 * CSR_MAX_N as u64;

#[test]
fn bipartite_at_the_cap_with_empty_lists_fails_without_the_tables() {
    let rows: Vec<Vec<u32>> = vec![Vec::new(); CSR_MAX_N];
    let (result, bytes) = bytes_allocated_in(|| BipartiteInstance::from_lists(&rows, &rows));
    assert_eq!(
        result.unwrap_err(),
        PrefsError::NotAPermutation {
            owner: (0, 0),
            over: 1
        }
    );
    assert!(
        bytes <= AT_CAP_BUDGET,
        "the rejected build allocated {bytes} bytes"
    );
}

#[test]
fn kpartite_at_the_cap_with_empty_members_fails_without_the_tables() {
    let gender: Vec<Vec<Vec<u32>>> = vec![Vec::new(); CSR_MAX_N];
    let lists = vec![gender.clone(), gender];
    let (result, bytes) = bytes_allocated_in(|| KPartiteInstance::from_lists(&lists));
    assert_eq!(
        result.unwrap_err(),
        PrefsError::ShapeMismatch {
            what: "per-gender preference blocks",
            expected: 2,
            actual: 0
        }
    );
    assert!(
        bytes <= AT_CAP_BUDGET,
        "the rejected build allocated {bytes} bytes"
    );
}
