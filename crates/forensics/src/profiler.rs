//! The sampling profiler: a thread that snapshots every worker's
//! [`WorkerProbe`](crate::probe::WorkerProbe) lane at a fixed rate and
//! aggregates the folded open-span stacks.
//!
//! ## Accuracy / overhead contract
//!
//! * Workers pay only their [`Probed`](crate::probed::Probed) observer's
//!   span upkeep — a few atomic stores per *phase-level* span, zero per
//!   fine-grained event. The sampler's own work (snapshot + BTreeMap
//!   update) runs on the sampler thread. The `profiler_overhead` row in
//!   `bench_gs_json` holds the combined cost under the 5% budget.
//! * Sample counts are statistical: a stack's share of samples estimates
//!   its share of wall time with standard `±sqrt(n)` sampling error, and
//!   spans shorter than the sampling interval can be missed entirely.
//!   Phase-level spans (milliseconds and up at forensic scales) are the
//!   intended resolution.
//! * [`SamplerCore`] is a pure fold over `(now_ns, lane states)` —
//!   deterministic under [`ManualClock`](kmatch_obs::ManualClock), which
//!   the exactness test exploits; [`start_sampler`] is the thin
//!   wall-clock thread shell around it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::Value;

use crate::probe::{NameTable, ProbeSet};

/// Schema tag of the profile JSON export.
pub const PROFILE_SCHEMA: &str = "kmatch.profile/v1";

/// Folded-stack aggregate: samples per distinct span stack. The empty
/// stack is the idle bucket.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProfileAggregate {
    /// Samples per stack of interned name ids (outermost first).
    pub stacks: BTreeMap<Vec<u32>, u64>,
    /// Total samples folded in (lanes × ticks).
    pub samples: u64,
}

/// Deterministic sampling core: folds lane snapshots into a
/// [`ProfileAggregate`] and tracks the sampled time range.
#[derive(Debug, Default)]
pub struct SamplerCore {
    agg: ProfileAggregate,
    first_ts_ns: Option<u64>,
    last_ts_ns: u64,
}

impl SamplerCore {
    /// An empty core.
    pub fn new() -> Self {
        SamplerCore::default()
    }

    /// Fold one tick at `now_ns`: snapshot every lane of `set` once.
    pub fn sample_at(&mut self, now_ns: u64, set: &ProbeSet) {
        self.first_ts_ns.get_or_insert(now_ns);
        self.last_ts_ns = self.last_ts_ns.max(now_ns);
        for i in 0..set.len() {
            let snap = set.probe(i).snapshot();
            *self.agg.stacks.entry(snap.stack().to_vec()).or_insert(0) += 1;
            self.agg.samples += 1;
        }
    }

    /// The aggregate so far.
    pub fn aggregate(&self) -> &ProfileAggregate {
        &self.agg
    }

    /// Collapsed-stack text (`a;b;c COUNT` per line, `(idle)` for the
    /// empty stack), lines sorted lexically — directly flameable.
    pub fn collapsed(&self, names: &NameTable) -> String {
        let mut lines: Vec<String> = self
            .agg
            .stacks
            .iter()
            .map(|(stack, count)| format!("{} {count}", render_stack(stack, names)))
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// `kmatch.profile/v1` JSON: schema, sample totals, time range, and
    /// one `{stack, samples}` row per distinct stack.
    pub fn to_json(&self, names: &NameTable) -> Value {
        let rows = self
            .agg
            .stacks
            .iter()
            .map(|(stack, count)| {
                Value::Object(vec![
                    ("stack".into(), Value::String(render_stack(stack, names))),
                    ("samples".into(), Value::Number(*count as f64)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("schema".into(), Value::String(PROFILE_SCHEMA.into())),
            ("samples".into(), Value::Number(self.agg.samples as f64)),
            (
                "first_ts_ns".into(),
                match self.first_ts_ns {
                    Some(t) => Value::Number(t as f64),
                    None => Value::Null,
                },
            ),
            ("last_ts_ns".into(), Value::Number(self.last_ts_ns as f64)),
            ("stacks".into(), Value::Array(rows)),
        ])
    }
}

fn render_stack(stack: &[u32], names: &NameTable) -> String {
    if stack.is_empty() {
        return "(idle)".to_string();
    }
    stack
        .iter()
        .map(|&id| names.name_of(id))
        .collect::<Vec<_>>()
        .join(";")
}

/// A [`SamplerCore`] shareable between the sampler thread and the ops
/// endpoints.
#[derive(Debug, Default)]
pub struct SharedProfile {
    core: Mutex<SamplerCore>,
}

impl SharedProfile {
    /// An empty shared profile.
    pub fn new() -> Self {
        SharedProfile::default()
    }

    /// Fold one tick (called by the sampler thread).
    pub fn sample_at(&self, now_ns: u64, set: &ProbeSet) {
        self.core
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .sample_at(now_ns, set);
    }

    /// Collapsed-stack text of the aggregate so far.
    pub fn collapsed(&self, names: &NameTable) -> String {
        self.core
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .collapsed(names)
    }

    /// `kmatch.profile/v1` JSON of the aggregate so far.
    pub fn to_json(&self, names: &NameTable) -> Value {
        self.core
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .to_json(names)
    }

    /// Total samples folded so far.
    pub fn samples(&self) -> u64 {
        self.core
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .aggregate()
            .samples
    }
}

/// A running sampler thread; [`SamplerHandle::stop`] joins it.
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl SamplerHandle {
    /// Signal the thread and join it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Start the wall-clock sampler: every `interval`, fold one tick of
/// `set` into `profile`, timestamped with `clock`. The thread owns
/// nothing — state lives in the `Arc`s, so endpoints read mid-run.
pub fn start_sampler(
    set: Arc<ProbeSet>,
    profile: Arc<SharedProfile>,
    clock: Arc<dyn kmatch_obs::Clock + Send + Sync>,
    interval: Duration,
) -> SamplerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        while !stop_flag.load(Ordering::SeqCst) {
            profile.sample_at(clock.now_ns(), &set);
            std::thread::sleep(interval);
        }
    });
    SamplerHandle {
        stop,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_obs::{Clock, ManualClock};
    use kmatch_obs::Metrics;

    #[test]
    fn manual_clock_sampling_is_exact() {
        // Two lanes; lane 0 sits in gs.solve>gs.round for 3 ticks then
        // idles for 2; lane 1 idles throughout. Counts and the time
        // range must come out exact — no statistical slack when the
        // clock and the lanes are both pinned.
        let clock = ManualClock::new();
        let set = ProbeSet::new(2);
        let mut sink = set.observer(0);
        let mut core = SamplerCore::new();

        sink.span_begin("gs.solve", 4);
        sink.span_begin("gs.round", 1);
        for _ in 0..3 {
            clock.advance(10_000_000); // 10 ms per tick
            core.sample_at(clock.now_ns(), &set);
        }
        sink.span_end("gs.round");
        sink.span_end("gs.solve");
        for _ in 0..2 {
            clock.advance(10_000_000);
            core.sample_at(clock.now_ns(), &set);
        }

        let agg = core.aggregate();
        assert_eq!(agg.samples, 10, "5 ticks x 2 lanes");
        let busy: Vec<u32> = vec![
            set.names().intern("gs.solve"),
            set.names().intern("gs.round"),
        ];
        assert_eq!(agg.stacks.get(&busy), Some(&3));
        assert_eq!(agg.stacks.get(&Vec::new()), Some(&7), "2 idle lane-0 ticks + 5 lane-1 ticks");
        let text = core.collapsed(set.names());
        assert_eq!(text, "(idle) 7\ngs.solve;gs.round 3\n");
        let json = core.to_json(set.names());
        assert_eq!(json.get("samples"), Some(&Value::Number(10.0)));
        assert_eq!(json.get("first_ts_ns"), Some(&Value::Number(10_000_000.0)));
        assert_eq!(json.get("last_ts_ns"), Some(&Value::Number(50_000_000.0)));
    }

    #[test]
    fn sampler_thread_accumulates_and_stops() {
        let set = Arc::new(ProbeSet::new(1));
        let profile = Arc::new(SharedProfile::new());
        let clock: Arc<dyn Clock + Send + Sync> = Arc::new(kmatch_obs::StdClock::new());
        let mut sink = set.observer(0);
        sink.span_begin("irving.solve", 8);
        let handle = start_sampler(
            Arc::clone(&set),
            Arc::clone(&profile),
            clock,
            Duration::from_millis(1),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while profile.samples() < 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.stop();
        let samples = profile.samples();
        assert!(samples >= 5, "sampler only folded {samples}");
        let text = profile.collapsed(set.names());
        assert!(text.contains("irving.solve"), "{text}");
        // Stopped: no further growth.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(profile.samples(), samples);
    }
}
