//! The lock-free leaf-span register the sampling profiler reads.
//!
//! The [`FlightRecorder`](kmatch_trace::FlightRecorder) answers "what
//! happened recently"; the profiler needs "what is open *right now*".
//! [`SpanRegister`] is a per-worker seqlock (same discipline as
//! [`crate::probe::WorkerProbe`]) holding the current span *stack* as
//! interned name ids; [`RegisterSink`] is the [`Metrics`] observer that
//! maintains it from the engine's span begin/end stream. It opts out of
//! fine-grained spans (`FINE_SPANS = false`) — per-round spans churn
//! faster than any sampler samples, so maintaining them would be pure
//! overhead.
//!
//! Names are interned in a [`NameTable`] shared between the writers and
//! the sampler; interning locks a mutex, but only on span *begin* of
//! phase-level spans (a handful per solve), never per event inside a
//! phase.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use kmatch_obs::Metrics;

/// Deepest stack the register stores. Deeper nesting keeps balanced
/// depth accounting but samples truncate to this many frames (the
/// engine taxonomy nests ≤ 4 deep today).
pub const MAX_DEPTH: usize = 16;

/// Interned span names, shared by register writers and the sampler.
#[derive(Debug, Default)]
pub struct NameTable {
    names: Mutex<Vec<&'static str>>,
}

impl NameTable {
    /// An empty table.
    pub fn new() -> Self {
        NameTable::default()
    }

    /// Id of `name`, interning it on first sight.
    pub fn intern(&self, name: &'static str) -> u32 {
        let mut names = self.names.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = names.iter().position(|n| *n == name) {
            return i as u32;
        }
        names.push(name);
        (names.len() - 1) as u32
    }

    /// Name for `id` (`"?"` for ids never interned here).
    pub fn name_of(&self, id: u32) -> &'static str {
        self.names
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(id as usize)
            .copied()
            .unwrap_or("?")
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One worker's current-span-stack register (single writer, any
/// readers; see the module docs for the seqlock protocol).
#[derive(Debug)]
pub struct SpanRegister {
    seq: AtomicU64,
    depth: AtomicU32,
    stack: [AtomicU32; MAX_DEPTH],
}

impl Default for SpanRegister {
    fn default() -> Self {
        SpanRegister {
            seq: AtomicU64::new(0),
            depth: AtomicU32::new(0),
            stack: [const { AtomicU32::new(0) }; MAX_DEPTH],
        }
    }
}

impl SpanRegister {
    /// An empty register.
    pub fn new() -> Self {
        SpanRegister::default()
    }

    /// Writer: push an interned name id (depth keeps counting past
    /// [`MAX_DEPTH`]; frames beyond it are not stored).
    pub fn push(&self, id: u32) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
        let d = self.depth.load(Ordering::Relaxed);
        if (d as usize) < MAX_DEPTH {
            self.stack[d as usize].store(id, Ordering::Relaxed);
        }
        self.depth.store(d + 1, Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Writer: pop the innermost frame (saturating at empty — an orphan
    /// `end` from a truncated stream must not underflow).
    pub fn pop(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
        let d = self.depth.load(Ordering::Relaxed);
        self.depth.store(d.saturating_sub(1), Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Reader: the current stack, outermost first, truncated to
    /// [`MAX_DEPTH`]. Bounded retries; a reader losing every race
    /// returns the last (untorn per-word, possibly skewed) view.
    pub fn snapshot_stack(&self) -> Vec<u32> {
        for _ in 0..crate::probe::SNAPSHOT_RETRIES {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let d = (self.depth.load(Ordering::Relaxed) as usize).min(MAX_DEPTH);
            let stack: Vec<u32> = self.stack[..d]
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect();
            let s2 = self.seq.load(Ordering::Acquire);
            if s1 == s2 {
                return stack;
            }
        }
        let d = (self.depth.load(Ordering::Relaxed) as usize).min(MAX_DEPTH);
        self.stack[..d]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }
}

/// A fixed set of span registers (one lane per worker) plus the shared
/// [`NameTable`] — what the sampler thread walks.
#[derive(Debug)]
pub struct RegisterSet {
    lanes: Vec<SpanRegister>,
    names: NameTable,
}

impl RegisterSet {
    /// `lanes` empty registers and an empty name table.
    pub fn new(lanes: usize) -> Self {
        RegisterSet {
            lanes: (0..lanes.max(1)).map(|_| SpanRegister::new()).collect(),
            names: NameTable::new(),
        }
    }

    /// Lane count.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True when the set has no lanes (never: `new` clamps to ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The shared name table.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// Lane `i`'s register.
    pub fn register(&self, i: usize) -> &SpanRegister {
        &self.lanes[i]
    }

    /// An observer maintaining lane `i` (one per worker; single-writer).
    pub fn sink(&self, i: usize) -> RegisterSink<'_> {
        RegisterSink {
            reg: &self.lanes[i],
            names: &self.names,
        }
    }
}

/// Span observer keeping one [`SpanRegister`] current. Coarse only
/// (`FINE_SPANS = false`): per-round spans are invisible to the sampler
/// by design — they churn faster than sampling resolves.
#[derive(Debug)]
pub struct RegisterSink<'a> {
    reg: &'a SpanRegister,
    names: &'a NameTable,
}

impl Metrics for RegisterSink<'_> {
    const ENABLED: bool = true;

    #[inline]
    fn span_begin(&mut self, name: &'static str, _arg: u64) {
        let id = self.names.intern(name);
        self.reg.push(id);
    }

    #[inline]
    fn span_end(&mut self, _name: &'static str) {
        self.reg.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_maintains_the_stack() {
        let set = RegisterSet::new(1);
        let mut sink = set.sink(0);
        assert!(set.register(0).snapshot_stack().is_empty());
        sink.span_begin("irving.solve", 10);
        sink.span_begin("irving.phase1", 10);
        let stack = set.register(0).snapshot_stack();
        assert_eq!(stack.len(), 2);
        assert_eq!(set.names().name_of(stack[0]), "irving.solve");
        assert_eq!(set.names().name_of(stack[1]), "irving.phase1");
        sink.span_end("irving.phase1");
        assert_eq!(set.register(0).snapshot_stack().len(), 1);
        sink.span_end("irving.solve");
        assert!(set.register(0).snapshot_stack().is_empty());
        // Orphan end (truncated stream): saturates, no underflow.
        sink.span_end("irving.solve");
        assert!(set.register(0).snapshot_stack().is_empty());
        sink.span_begin("gs.solve", 4);
        assert_eq!(set.register(0).snapshot_stack().len(), 1);
    }

    #[test]
    fn interning_is_stable_and_shared() {
        let t = NameTable::new();
        let a = t.intern("gs.solve");
        let b = t.intern("gs.round");
        assert_ne!(a, b);
        assert_eq!(t.intern("gs.solve"), a);
        assert_eq!(t.name_of(a), "gs.solve");
        assert_eq!(t.name_of(999), "?");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn overdeep_nesting_truncates_but_stays_balanced() {
        let set = RegisterSet::new(1);
        let mut sink = set.sink(0);
        for _ in 0..(MAX_DEPTH + 4) {
            sink.span_begin("bind.edge", 0);
        }
        assert_eq!(set.register(0).snapshot_stack().len(), MAX_DEPTH);
        for _ in 0..4 {
            sink.span_end("bind.edge");
        }
        assert_eq!(set.register(0).snapshot_stack().len(), MAX_DEPTH);
        for _ in 0..MAX_DEPTH {
            sink.span_end("bind.edge");
        }
        assert!(set.register(0).snapshot_stack().is_empty());
    }

    #[test]
    fn concurrent_sampling_never_reads_garbage_ids() {
        // Writer churns a 2-deep stack of two known names; any sampled
        // stack must contain only those interned ids.
        let set = std::sync::Arc::new(RegisterSet::new(1));
        let solve = set.names().intern("irving.solve");
        let p1 = set.names().intern("irving.phase1");
        let w = std::sync::Arc::clone(&set);
        let writer = std::thread::spawn(move || {
            let mut sink = w.sink(0);
            for _ in 0..30_000 {
                sink.span_begin("irving.solve", 0);
                sink.span_begin("irving.phase1", 0);
                sink.span_end("irving.phase1");
                sink.span_end("irving.solve");
            }
        });
        while !writer.is_finished() {
            let stack = set.register(0).snapshot_stack();
            assert!(stack.len() <= 2, "{stack:?}");
            for &id in &stack {
                assert!(id == solve || id == p1, "unknown id {id}");
            }
            if stack.len() == 2 {
                assert_eq!(stack, vec![solve, p1], "inverted stack");
            }
        }
        writer.join().unwrap();
    }
}
