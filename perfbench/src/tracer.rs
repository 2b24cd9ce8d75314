//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around each
//! call into a layer's public functions (and from the `Metrics` hooks the
//! engines already call, see `hooks.rs`); nothing inside the program is
//! timed. Each span carries its name, layer, start, end, parent and op id.
//! A layer's self time is its spans' durations minus their children's, so
//! the self times of all layers plus the op spans' own self time
//! (`unattributed`) add up to the traced op time exactly.

use std::time::Instant;

use kmatch_trace::{EventKind, TraceEvent, TraceTrack};

/// The solve-path crates a span is charged to, plus the op root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Op,
    Prefs,
    Gs,
    Roommates,
    Core,
    Parallel,
    Incremental,
    Obs,
}

impl Layer {
    /// Every layer but the op root, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Prefs,
        Layer::Gs,
        Layer::Roommates,
        Layer::Core,
        Layer::Parallel,
        Layer::Incremental,
        Layer::Obs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Prefs => "prefs",
            Layer::Gs => "gs",
            Layer::Roommates => "roommates",
            Layer::Core => "core",
            Layer::Parallel => "parallel",
            Layer::Incremental => "incremental",
            Layer::Obs => "obs",
        }
    }
}

const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub op: u64,
    pub arg: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open the root span of op `op`.
    pub fn begin_op(&mut self, op: u64) {
        assert!(self.open.is_empty(), "op spans do not nest");
        self.op = op;
        self.begin("op", Layer::Op, op);
    }

    /// Open a span as a child of the innermost open span; returns its id.
    pub fn begin(&mut self, name: &'static str, layer: Layer, arg: u64) -> usize {
        let now = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
            arg,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span; returns its id.
    pub fn end(&mut self) -> usize {
        let id = self.open.pop().expect("end without an open span");
        self.spans[id].end_ns = self.now();
        id
    }

    /// Open spans (the hooks close only spans they opened themselves).
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Record a closed child of span `parent` covering its first
    /// `dur_ns` (clamped to the parent): work the benchmark cannot wrap
    /// because it runs on executor threads, sized from the executor's own
    /// lane report.
    pub fn derived_child(&mut self, parent: usize, name: &'static str, layer: Layer, dur_ns: u64) {
        let p = &self.spans[parent];
        let (start, op) = (p.start_ns, p.op);
        let end = start + dur_ns.min(p.dur_ns());
        self.spans.push(Span {
            name,
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op,
            arg: 0,
        });
    }

    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        ns_to_s(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur_ns)
                .sum(),
        )
    }

    /// Summed duration of every span charged to `layer`, in seconds.
    pub fn layer_total_s(&self, layer: Layer) -> f64 {
        ns_to_s(
            self.spans
                .iter()
                .filter(|s| s.layer == layer)
                .map(Span::dur_ns)
                .sum(),
        )
    }

    /// Self time per layer in nanoseconds, op root included (its self time
    /// is the unattributed remainder).
    pub fn self_ns(&self, layer: Layer) -> u64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.layer == layer)
            .map(|(s, c)| s.dur_ns() - c)
            .sum()
    }

    /// Summed duration of the op root spans.
    pub fn op_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == Layer::Op)
            .map(Span::dur_ns)
            .sum()
    }

    /// The spans as Chrome trace-event JSON through `kmatch_trace`'s
    /// exporter (loads in Perfetto). Op roots carry the op id as their arg.
    pub fn to_chrome_json(&self) -> String {
        kmatch_trace::to_chrome_json(&TraceTrack::main(self.events()))
    }

    /// The spans as a begin/end event stream in nesting order.
    pub fn events(&self) -> Vec<TraceEvent> {
        assert!(self.open.is_empty(), "export with open spans");
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        // Parents start no later and end no earlier than their children;
        // the id breaks ties because a parent is recorded first.
        order.sort_by_key(|&i| {
            let s = &self.spans[i];
            (s.start_ns, std::cmp::Reverse(s.end_ns), i)
        });
        let mut events = Vec::with_capacity(2 * order.len());
        let mut stack: Vec<usize> = Vec::new();
        let close = |events: &mut Vec<TraceEvent>, id: usize| {
            let s = &self.spans[id];
            events.push(TraceEvent {
                kind: EventKind::End,
                name: s.name,
                ts_ns: s.end_ns,
                arg: 0,
            });
        };
        for i in order {
            let s = &self.spans[i];
            // The open stack is the chain root → … → last span; everything
            // above this span's parent has ended by now.
            while let Some(&top) = stack.last() {
                if top == s.parent {
                    break;
                }
                close(&mut events, top);
                stack.pop();
            }
            events.push(TraceEvent {
                kind: EventKind::Begin,
                name: s.name,
                ts_ns: s.start_ns,
                arg: s.arg,
            });
            stack.push(i);
        }
        while let Some(top) = stack.pop() {
            close(&mut events, top);
        }
        events
    }
}

pub fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_op_time() {
        let mut tr = Tracer::default();
        for op in 0..3 {
            tr.begin_op(op);
            tr.begin("prefs.parse", Layer::Prefs, 0);
            tr.end();
            let batch = tr.begin("parallel.batch", Layer::Parallel, 0);
            std::thread::sleep(std::time::Duration::from_micros(50));
            tr.end();
            tr.derived_child(batch, "gs.solve", Layer::Gs, 20_000);
            tr.end();
        }
        let attributed: u64 = Layer::ALL.iter().map(|&l| tr.self_ns(l)).sum();
        assert_eq!(attributed + tr.self_ns(Layer::Op), tr.op_ns());
        assert!(tr.self_ns(Layer::Gs) <= 60_000);
        kmatch_trace::check_well_formed(&tr.events(), false).expect("nested spans");
        let text = tr.to_chrome_json();
        let names = kmatch_trace::validate_chrome_json(&text).expect("valid chrome trace");
        assert!(names.iter().any(|n| n == "gs.solve"));
    }
}
