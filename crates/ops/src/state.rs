//! Shared operator-plane state: the single object the HTTP handlers, the
//! serve loop, and the watchdog all hold an `Arc` to.
//!
//! [`OpsState`] composes the existing telemetry substrate — a
//! [`BatchRegistry`] for cumulative counters, an [`EventRing`] for
//! flight-recorder events — with the new operator layers: the
//! [`RollingWindow`], the [`OpsLog`], and the [`WatchdogCore`]. The clock
//! is injected as `Arc<dyn Clock>` so tests drive everything off a
//! [`ManualClock`](kmatch_obs::ManualClock) and production uses
//! [`StdClock`](kmatch_obs::StdClock); nothing in this module reads time
//! any other way.

use std::sync::{Arc, Mutex, MutexGuard};

use kmatch_forensics::{bundle_json, write_bundle_atomic, BundleInputs};
use kmatch_obs::{phase, BatchRegistry, Clock, SolverMetrics};
use kmatch_trace::{to_chrome_json, EventRing, TraceEvent, TraceTrack};
use serde::Value;

use crate::forensics::ForensicsPlane;
use crate::log::{Level, OpsLog};
use crate::watchdog::{StallEvent, WatchdogConfig, WatchdogCore};
use crate::window::RollingWindow;

/// Schema tag of the `GET /progress` document.
pub const PROGRESS_SCHEMA: &str = "kmatch.progress/v1";

/// Snapshots the rolling window retains.
const WINDOW_CAPACITY: usize = 128;
/// Log records retained.
const LOG_CAPACITY: usize = 1024;
/// Trace events the `/trace` ring retains.
const TRACE_CAPACITY: usize = 16 * 1024;

/// Tunables for the operator plane.
#[derive(Debug, Clone, Copy)]
pub struct OpsConfig {
    /// Default window span for the `/metrics` windowed gauges.
    pub window_ns: u64,
    /// Minimum interval between identical log lines (0 = no limit).
    pub log_limit_ns: u64,
    /// Stall-detection thresholds.
    pub watchdog: WatchdogConfig,
}

impl Default for OpsConfig {
    fn default() -> Self {
        OpsConfig {
            window_ns: 60_000_000_000, // 60 s
            log_limit_ns: 1_000_000_000, // 1 s
            watchdog: WatchdogConfig::default(),
        }
    }
}

struct StateInner {
    window: RollingWindow,
    log: OpsLog,
    watchdog: WatchdogCore,
    report_json: Option<String>,
    last_solve_ns: Option<u64>,
    /// Members per side of the most recent wave (Mertens-ratio context).
    n: u64,
}

/// The shared operator-plane state. `Sync`; handlers hold `Arc<OpsState>`.
pub struct OpsState {
    registry: BatchRegistry,
    /// The `/trace` ring: the last `TRACE_CAPACITY` events the serve
    /// loop ingested from its workers' flight recorders.
    ring: Mutex<EventRing>,
    clock: Arc<dyn Clock + Send + Sync>,
    start_ns: u64,
    window_ns: u64,
    inner: Mutex<StateInner>,
    /// The forensic attachment (worker lanes, profile, bundle
    /// policy), armed by the serve front-end once the worker count is
    /// known. Kept outside `inner` so the panic hook can read it even
    /// mid-tick.
    forensics: Mutex<Option<ForensicsPlane>>,
}

impl OpsState {
    /// Lock `inner`, shrugging off poison: the whole point of the
    /// forensic plane is to keep answering *after* some thread panicked,
    /// and every mutation under this lock leaves the state structurally
    /// valid even when interrupted (rings and logs are append/pop, the
    /// watchdog is idempotent per sample).
    fn inner(&self) -> MutexGuard<'_, StateInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
    /// Build the state and arm the rolling window with a zero snapshot at
    /// the current clock reading, so the first real tick is immediately
    /// queryable.
    pub fn new(clock: Arc<dyn Clock + Send + Sync>, cfg: OpsConfig) -> Self {
        let start_ns = clock.now_ns();
        let mut window = RollingWindow::new(WINDOW_CAPACITY);
        window.tick(start_ns, SolverMetrics::new());
        OpsState {
            registry: BatchRegistry::new(),
            ring: Mutex::new(EventRing::new(TRACE_CAPACITY)),
            clock,
            start_ns,
            window_ns: cfg.window_ns,
            inner: Mutex::new(StateInner {
                window,
                log: OpsLog::new(LOG_CAPACITY, cfg.log_limit_ns),
                watchdog: WatchdogCore::new(cfg.watchdog),
                report_json: None,
                last_solve_ns: None,
                n: 0,
            }),
            forensics: Mutex::new(None),
        }
    }

    /// Arm the forensic plane (worker lanes, profile, bundle policy).
    /// `GET /progress` and `GET /profile` answer 404 until this is called.
    pub fn attach_forensics(&self, plane: ForensicsPlane) {
        *self
            .forensics
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(plane);
    }

    /// The attached forensic plane, if any (cheap: the plane is a bag of
    /// `Arc`s).
    pub fn forensics(&self) -> Option<ForensicsPlane> {
        self.forensics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The cumulative metric registry batch drivers absorb into.
    pub fn registry(&self) -> &BatchRegistry {
        &self.registry
    }

    /// Append a worker's flight-recorder `events` (oldest first) to the
    /// `/trace` ring, counting the `dropped` events its recorder already
    /// overwrote.
    pub fn ingest_trace(&self, events: &[TraceEvent], dropped: u64) {
        self.trace_ring().ingest(events, dropped);
    }

    fn trace_ring(&self) -> MutexGuard<'_, EventRing> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current injected-clock reading.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Nanoseconds since the state was built.
    pub fn uptime_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns)
    }

    /// Append a structured log record. Returns whether it was emitted
    /// (`false` = suppressed by the repeat rate limit).
    pub fn log(
        &self,
        level: Level,
        solver: &str,
        msg: &str,
        fields: Vec<(String, String)>,
    ) -> bool {
        let now = self.clock.now_ns();
        self.inner().log.record(now, level, solver, msg, fields)
    }

    /// Record that a solve wave of instance size `n` just completed.
    pub fn note_wave(&self, n: u64) {
        let now = self.clock.now_ns();
        let mut inner = self.inner();
        inner.last_solve_ns = Some(now);
        inner.n = n;
    }

    /// Publish the latest `kmatch.run_report/v1` JSON for `/report`.
    pub fn set_report(&self, json: String) {
        self.inner().report_json = Some(json);
    }

    /// The latest published report, if any.
    pub fn report_json(&self) -> Option<String> {
        self.inner().report_json.clone()
    }

    /// The last `n` log records, oldest first, as `kmatch.log/v1` JSONL.
    pub fn logs_jsonl(&self, n: usize) -> String {
        self.inner().log.tail_jsonl(n)
    }

    /// The newest `n` log records at or above `min` severity, oldest
    /// first, as `kmatch.log/v1` JSONL.
    pub fn logs_jsonl_min_level(&self, n: usize, min: Level) -> String {
        self.inner().log.tail_jsonl_min_level(n, min)
    }

    /// Drain the trace ring as Chrome trace-event JSON (one main track;
    /// loadable in Perfetto / `chrome://tracing`).
    pub fn trace_chrome_json(&self) -> String {
        let (events, _dropped) = self.trace_ring().drain();
        to_chrome_json(&TraceTrack::main(events))
    }

    /// The `GET /progress` document (`kmatch.progress/v1`): one row per
    /// worker probe — phase, escalation attempt, current cut, round, and
    /// proposal counters, plus the heartbeat generation and whether the
    /// watchdog currently holds that lane stalled. `None` when no
    /// forensic plane is attached.
    pub fn progress_json(&self) -> Option<String> {
        let plane = self.forensics()?;
        let now = self.clock.now_ns();
        let stalled = self.inner().watchdog.stalled_workers();
        let workers = plane
            .probes
            .snapshot()
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("worker".into(), Value::Number(s.worker as f64)),
                    ("phase".into(), Value::Number(s.phase as f64)),
                    ("phase_name".into(), Value::String(s.phase_name().into())),
                    ("attempt".into(), Value::Number(s.attempt as f64)),
                    ("cut".into(), Value::Number(s.cut as f64)),
                    ("round".into(), Value::Number(s.round as f64)),
                    ("proposals".into(), Value::Number(s.proposals as f64)),
                    ("generation".into(), Value::Number(s.generation as f64)),
                    ("consistent".into(), Value::Bool(s.consistent)),
                    ("stalled".into(), Value::Bool(stalled.contains(&s.worker))),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("schema".into(), Value::String(PROGRESS_SCHEMA.into())),
            ("ts_ns".into(), Value::Number(now as f64)),
            ("workers".into(), Value::Array(workers)),
            (
                "stalled_workers".into(),
                Value::Array(stalled.iter().map(|&w| Value::Number(w as f64)).collect()),
            ),
        ]);
        Some(serde_json::to_string(&doc).expect("value tree always serializes"))
    }

    /// The `GET /profile` body: the sampler aggregate as collapsed
    /// span-stack text (`a;b;c COUNT` lines, flamegraph-ready). `None`
    /// when no forensic plane is attached.
    pub fn profile_text(&self) -> Option<String> {
        let plane = self.forensics()?;
        Some(plane.profile.collapsed(plane.probes.names()))
    }

    /// Periodic maintenance tick: snapshot the registry into the rolling
    /// window and feed the watchdog the attached probes' heartbeat
    /// generations, its one input. A lane between solves (phase idle) has
    /// no work in flight, so it cannot stall: its reading is the tick's
    /// clock, which moves. Stall and recovery events are logged at
    /// warn/info level and returned. Any *new* stall event also triggers
    /// a postmortem bundle (trigger `"stall"`) when the plane has a bundle
    /// directory; the watchdog only emits events on state *transitions*,
    /// so an ongoing stall writes exactly one bundle. No-op tick when no
    /// plane is attached.
    pub fn tick_probed(&self) -> Vec<StallEvent> {
        let Some(plane) = self.forensics() else {
            return Vec::new();
        };
        let now = self.clock.now_ns();
        let readings: Vec<u64> = plane
            .probes
            .snapshot()
            .iter()
            .map(|s| if s.phase == phase::IDLE { now } else { s.generation })
            .collect();
        let snapshot = self.registry.snapshot();
        let mut inner = self.inner();
        inner.window.tick(now, snapshot);
        let events = inner.watchdog.sample(now, &readings);
        for ev in &events {
            let (level, msg) = if ev.resumed {
                (Level::Info, "worker resumed")
            } else {
                (Level::Warn, "worker stalled")
            };
            inner.log.record(
                now,
                level,
                "ops",
                msg,
                vec![
                    ("worker".to_string(), ev.worker.to_string()),
                    ("idle_ns".to_string(), ev.idle_ns.to_string()),
                ],
            );
        }
        drop(inner);
        if events.iter().any(|e| !e.resumed) {
            if let Some(dir) = plane.postmortem_dir.as_deref() {
                match self.write_postmortem("stall") {
                    Ok(path) => {
                        self.log(
                            Level::Warn,
                            "ops",
                            "postmortem bundle written",
                            vec![("path".to_string(), path.display().to_string())],
                        );
                    }
                    Err(e) => {
                        self.log(
                            Level::Error,
                            "ops",
                            "postmortem bundle write failed",
                            vec![
                                ("dir".to_string(), dir.display().to_string()),
                                ("error".to_string(), e.to_string()),
                            ],
                        );
                    }
                }
            }
        }
        events
    }

    /// Assemble and atomically write a `kmatch.postmortem/v1` bundle:
    /// the drained trace ring, cumulative metrics, the rolling-window
    /// delta, the log tail, every worker's progress snapshot, the
    /// profiler aggregate, and run identity (seed/config/RSS/uptime).
    /// Fails when no forensic plane is attached or it has no bundle
    /// directory. Draining the ring is deliberate — the bundle *is* the
    /// flight recorder's black-box readout.
    pub fn write_postmortem(&self, trigger: &str) -> std::io::Result<std::path::PathBuf> {
        let plane = self.forensics().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "forensics not armed")
        })?;
        let dir = plane.postmortem_dir.as_deref().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no postmortem dir")
        })?;
        let now = self.clock.now_ns();
        let (events, dropped) = self.trace_ring().drain();
        let progress = plane.probes.snapshot();
        let logs = self.logs_jsonl(256);
        let window = {
            let inner = self.inner();
            inner.window.delta(now, self.window_ns).map(|d| {
                Value::Object(vec![
                    ("span_ns".into(), Value::Number(d.span_ns as f64)),
                    ("delta".into(), d.delta.to_json()),
                ])
            })
        };
        let bundle = bundle_json(&BundleInputs {
            trigger,
            now_ns: now,
            uptime_ns: self.uptime_ns(),
            trace_events: &events,
            trace_dropped: dropped,
            metrics: self.registry.snapshot().to_json(),
            window,
            logs_jsonl: &logs,
            progress: &progress,
            profile: Some(plane.profile.to_json(plane.probes.names())),
            config: &plane.config,
            seed: plane.seed,
            rss_bytes: kmatch_obs::current_rss_bytes(),
        });
        write_bundle_atomic(dir, &bundle, trigger)
    }

    /// Install a process-wide panic hook that writes a postmortem bundle
    /// (trigger `"panic"`) before delegating to the previous hook. The
    /// hook holds only a `Weak` reference, so a dropped state (tests,
    /// sequential serves) turns it into a pass-through.
    pub fn install_panic_hook(state: &Arc<OpsState>) {
        let weak = Arc::downgrade(state);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(state) = weak.upgrade() {
                let _ = state.write_postmortem("panic");
            }
            prev(info);
        }));
    }

    /// `/healthz` body and verdict: `true` (healthy) unless the watchdog
    /// currently holds a stalled lane. The body reports uptime, the age
    /// of the last completed solve wave, and the stalled lanes — with,
    /// when the forensic plane is attached, each stalled lane's last
    /// published phase and escalation cut, so the degraded body *names*
    /// what the worker was doing when it stopped.
    pub fn healthz(&self) -> (bool, String) {
        use std::fmt::Write;
        let now = self.clock.now_ns();
        let uptime = self.uptime_ns();
        let inner = self.inner();
        let stalled = inner.watchdog.stalled_workers();
        drop(inner);
        let healthy = stalled.is_empty();
        let mut body = String::from("{");
        let _ = write!(
            body,
            "\"status\":\"{}\",\"uptime_ns\":{uptime}",
            if healthy { "ok" } else { "degraded" }
        );
        match self.inner().last_solve_ns {
            Some(t) => {
                let _ = write!(body, ",\"last_solve_age_ns\":{}", now.saturating_sub(t));
            }
            None => body.push_str(",\"last_solve_age_ns\":null"),
        }
        let _ = write!(
            body,
            ",\"stalled_workers\":[{}]",
            stalled
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        if !healthy {
            if let Some(plane) = self.forensics() {
                let snaps = plane.probes.snapshot();
                let detail: Vec<String> = stalled
                    .iter()
                    .filter_map(|&w| snaps.get(w))
                    .map(|s| {
                        format!(
                            "{{\"worker\":{},\"phase\":\"{}\",\"attempt\":{},\"cut\":{},\"round\":{},\"generation\":{}}}",
                            s.worker,
                            s.phase_name(),
                            s.attempt,
                            s.cut,
                            s.round,
                            s.generation
                        )
                    })
                    .collect();
                let _ = write!(body, ",\"stalled_detail\":[{}]", detail.join(","));
            }
        }
        body.push('}');
        (healthy, body)
    }

    /// Render the full `/metrics` Prometheus text exposition: cumulative
    /// solver counters and histograms, process RSS gauges, executor
    /// gauges from the most recent batch, rolling-window rate/quantile
    /// gauges, and watchdog/uptime gauges.
    pub fn render_metrics(&self) -> String {
        use std::fmt::Write;
        let now = self.clock.now_ns();
        let mut out = self.registry.snapshot().to_prometheus("");
        kmatch_obs::write_rss_gauges(&mut out);
        if let Some(exec) = self.registry.execution() {
            exec.to_prometheus(&mut out);
        }
        let inner = self.inner();
        let w = &inner.window;
        let window_s = self.window_ns as f64 / 1e9;
        kmatch_obs::write_family_header(
            &mut out,
            "kmatch_window_seconds",
            "gauge",
            "Span of the rolling window behind the kmatch_window_* gauges",
        );
        let _ = writeln!(out, "kmatch_window_seconds {window_s}");
        for (name, help, rate) in [
            (
                "kmatch_window_proposals_per_second",
                "Proposal rate over the rolling window",
                w.rate(now, self.window_ns, |m| m.proposals),
            ),
            (
                "kmatch_window_solves_per_second",
                "Solve completion rate over the rolling window",
                w.rate(now, self.window_ns, |m| m.solves),
            ),
            (
                "kmatch_window_rounds_per_second",
                "GS proposal-round rate over the rolling window",
                w.rate(now, self.window_ns, |m| m.rounds),
            ),
        ] {
            if let Some(r) = rate {
                kmatch_obs::write_family_header(&mut out, name, "gauge", help);
                let _ = writeln!(out, "{name} {r}");
            }
        }
        if let Some(delta) = w.delta(now, self.window_ns) {
            let d = &delta.delta;
            if d.solves > 0 {
                kmatch_obs::write_family_header(
                    &mut out,
                    "kmatch_window_solvable_ratio",
                    "gauge",
                    "Solvable fraction of instances in the rolling window (cf. Chin & Michelen)",
                );
                let _ = writeln!(
                    out,
                    "kmatch_window_solvable_ratio {}",
                    d.solvable as f64 / d.solves as f64
                );
                // Mertens context: proposals per solve vs the Θ(n log n)
                // random-instance expectation for the current n.
                if inner.n > 1 {
                    let expected = inner.n as f64 * (inner.n as f64).ln();
                    kmatch_obs::write_family_header(
                        &mut out,
                        "kmatch_window_mertens_ratio",
                        "gauge",
                        "Windowed proposals-per-solve over the n*ln(n) random-instance expectation",
                    );
                    let _ = writeln!(
                        out,
                        "kmatch_window_mertens_ratio {}",
                        (d.proposals as f64 / d.solves as f64) / expected
                    );
                }
            }
        }
        for (name, help, q) in [
            (
                "kmatch_window_solve_ns_p50",
                "Median per-solve wall time over the rolling window (log2 bucket resolution)",
                w.solve_ns_quantile(now, self.window_ns, 0.50),
            ),
            (
                "kmatch_window_solve_ns_p99",
                "p99 per-solve wall time over the rolling window (log2 bucket resolution)",
                w.solve_ns_quantile(now, self.window_ns, 0.99),
            ),
        ] {
            if let Some(v) = q {
                kmatch_obs::write_family_header(&mut out, name, "gauge", help);
                let _ = writeln!(out, "{name} {v}");
            }
        }
        kmatch_obs::write_family_header(
            &mut out,
            "kmatch_watchdog_stalled_workers",
            "gauge",
            "Worker lanes whose progress heartbeat has stopped advancing",
        );
        let _ = writeln!(
            out,
            "kmatch_watchdog_stalled_workers {}",
            inner.watchdog.stalled_count()
        );
        kmatch_obs::write_family_header(
            &mut out,
            "kmatch_uptime_seconds",
            "gauge",
            "Seconds since the operator plane was armed",
        );
        let _ = writeln!(out, "kmatch_uptime_seconds {}", self.uptime_ns() as f64 / 1e9);
        drop(inner);
        if let Some(plane) = self.forensics() {
            let snaps = plane.probes.snapshot();
            kmatch_obs::write_family_header(
                &mut out,
                "kmatch_escalation_current_cut",
                "gauge",
                "Escalation cutoff K the worker's current attempt runs under (0 outside escalation)",
            );
            for s in &snaps {
                let _ = writeln!(
                    out,
                    "kmatch_escalation_current_cut{{worker=\"{}\"}} {}",
                    s.worker, s.cut
                );
            }
            kmatch_obs::write_family_header(
                &mut out,
                "kmatch_escalation_attempt",
                "gauge",
                "Escalation attempts started in the worker's current solve",
            );
            for s in &snaps {
                let _ = writeln!(
                    out,
                    "kmatch_escalation_attempt{{worker=\"{}\"}} {}",
                    s.worker, s.attempt
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_obs::{ManualClock, Metrics};

    fn manual_state() -> (Arc<ManualClock>, OpsState) {
        let clock = Arc::new(ManualClock::new());
        let cfg = OpsConfig {
            watchdog: WatchdogConfig {
                stall_after_ns: 1_000,
            },
            window_ns: 10_000,
            log_limit_ns: 0,
        };
        let state = OpsState::new(clock.clone(), cfg);
        (clock, state)
    }

    #[test]
    fn metrics_render_contains_all_required_families() {
        let (clock, state) = manual_state();
        let mut shard = kmatch_obs::SolverMetrics::new();
        shard.proposal();
        shard.solve_done(true, 1);
        shard.solve_ns(500);
        state.registry().absorb(shard);
        state.registry().record_execution(kmatch_obs::ExecutionRecord {
            path: "serial",
            threads: 1,
            task_count: 1,
            steal_count: 0,
            straggler_ratio: 1.0,
        });
        state.attach_forensics(ForensicsPlane::new(1));
        state.note_wave(100);
        clock.advance(5_000);
        state.tick_probed();
        let text = state.render_metrics();
        for family in [
            "kmatch_proposals_total",       // solver counter
            "kmatch_solve_wall_ns_bucket",  // histogram
            "kmatch_peak_rss_bytes",        // RSS gauge
            "kmatch_executor_threads",      // executor gauge
            "kmatch_window_proposals_per_second",
            "kmatch_window_solvable_ratio",
            "kmatch_window_solve_ns_p50",
            "kmatch_watchdog_stalled_workers",
            "kmatch_uptime_seconds",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn healthz_degrades_on_stall_and_recovers() {
        let (clock, state) = manual_state();
        let plane = ForensicsPlane::new(1);
        state.attach_forensics(plane.clone());
        let probe = plane.probes.probe(0);
        probe.publish(kmatch_obs::phase::GS_ROUNDS, 0, 0, 1, 7);
        state.tick_probed();
        let (ok, body) = state.healthz();
        assert!(ok);
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"last_solve_age_ns\":null"));
        // Heartbeat freezes past the 1µs stall threshold.
        clock.advance(2_000);
        let events = state.tick_probed();
        assert_eq!(events.len(), 1);
        let (ok, body) = state.healthz();
        assert!(!ok);
        assert!(body.contains("\"status\":\"degraded\""));
        assert!(body.contains("\"stalled_workers\":[0]"));
        // The stall was logged.
        let logged = state.logs_jsonl(10);
        assert!(logged.contains("worker stalled"), "{logged}");
        // Progress resumes.
        clock.advance(100);
        state.note_wave(50);
        probe.publish(kmatch_obs::phase::GS_ROUNDS, 0, 0, 2, 8);
        state.tick_probed();
        let (ok, body) = state.healthz();
        assert!(ok, "{body}");
        assert!(body.contains("\"last_solve_age_ns\":0"));
    }

    #[test]
    fn progress_and_profile_answer_only_when_armed() {
        let (_clock, state) = manual_state();
        assert!(state.progress_json().is_none());
        assert!(state.profile_text().is_none());
        let plane = ForensicsPlane::new(2).with_seed(7);
        plane
            .probes
            .probe(1)
            .publish(kmatch_obs::phase::ESCALATE, 3, 512, 9, 1234);
        state.attach_forensics(plane);
        let doc = state.progress_json().expect("armed");
        let v: Value = serde_json::from_str(&doc).expect("valid JSON");
        assert_eq!(
            v.get("schema"),
            Some(&Value::String(PROGRESS_SCHEMA.into()))
        );
        assert!(doc.contains("\"phase_name\":\"escalate\""), "{doc}");
        assert!(doc.contains("\"cut\":512"), "{doc}");
        let profile = state.profile_text().expect("armed");
        assert!(profile.is_empty(), "no samples yet: {profile}");
    }

    #[test]
    fn escalation_gauges_render_per_worker() {
        let (_clock, state) = manual_state();
        let plane = ForensicsPlane::new(2);
        plane
            .probes
            .probe(0)
            .publish(kmatch_obs::phase::ESCALATE, 2, 256, 1, 10);
        state.attach_forensics(plane);
        let text = state.render_metrics();
        assert!(
            text.contains("kmatch_escalation_current_cut{worker=\"0\"} 256"),
            "{text}"
        );
        assert!(
            text.contains("kmatch_escalation_attempt{worker=\"0\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("kmatch_escalation_current_cut{worker=\"1\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn stall_writes_a_validating_bundle_and_healthz_names_the_phase() {
        let dir = std::env::temp_dir().join(format!(
            "kmatch-postmortem-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (clock, state) = manual_state();
        let plane = ForensicsPlane::new(1)
            .with_postmortem_dir(dir.clone())
            .with_seed(42)
            .with_config("mode", "test");
        plane
            .probes
            .probe(0)
            .publish(kmatch_obs::phase::IRVING_PHASE2, 0, 0, 31, 900);
        state.attach_forensics(plane);
        state.ingest_trace(
            &[kmatch_trace::TraceEvent {
                kind: kmatch_trace::EventKind::Instant,
                name: "gs.warm.resolve",
                ts_ns: 5,
                arg: 1,
            }],
            0,
        );
        // First tick arms the heartbeat; the second sees it frozen.
        state.tick_probed();
        clock.advance(2_000);
        let events = state.tick_probed();
        assert_eq!(events.len(), 1, "stall transition event");
        // Healthz names the stalled lane's phase.
        let (ok, body) = state.healthz();
        assert!(!ok);
        assert!(body.contains("\"stalled_workers\":[0]"), "{body}");
        assert!(body.contains("\"phase\":\"irving.phase2\""), "{body}");
        assert!(body.contains("\"round\":31"), "{body}");
        // Exactly one bundle landed and it validates.
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("bundle dir exists")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        assert_eq!(entries.len(), 1, "{entries:?}");
        let text = std::fs::read_to_string(&entries[0]).expect("readable");
        let bundle: Value = serde_json::from_str(&text).expect("bundle parses");
        kmatch_forensics::validate_bundle(&bundle).expect("bundle validates");
        assert_eq!(bundle.get("trigger"), Some(&Value::String("stall".into())));
        assert!(text.contains("gs.warm.resolve"), "ring drained into bundle");
        // A still-ongoing stall does not write a second bundle.
        clock.advance(2_000);
        let again = state.tick_probed();
        assert!(again.is_empty(), "no new transition: {again:?}");
        assert_eq!(
            std::fs::read_dir(&dir).expect("dir").count(),
            1,
            "one bundle per stall transition"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn idle_probe_lanes_never_stall() {
        // Lane 0 is frozen mid-solve; lane 1 never got work. Only the
        // lane with work in flight is a stall.
        let (clock, state) = manual_state();
        let plane = ForensicsPlane::new(2);
        plane
            .probes
            .probe(0)
            .publish(kmatch_obs::phase::GS_ROUNDS, 0, 0, 3, 40);
        state.attach_forensics(plane);
        state.tick_probed();
        clock.advance(2_000);
        state.tick_probed();
        assert!(state.healthz().1.contains("\"stalled_workers\":[0]"));
    }

    #[test]
    fn trace_ring_drains_to_chrome_json() {
        let (_clock, state) = manual_state();
        state.ingest_trace(
            &[
                kmatch_trace::TraceEvent {
                    kind: kmatch_trace::EventKind::Begin,
                    name: "gs.solve",
                    ts_ns: 10,
                    arg: 4,
                },
                kmatch_trace::TraceEvent {
                    kind: kmatch_trace::EventKind::End,
                    name: "gs.solve",
                    ts_ns: 90,
                    arg: 0,
                },
            ],
            0,
        );
        let json = state.trace_chrome_json();
        assert!(json.contains("gs.solve"), "{json}");
        let again = state.trace_chrome_json();
        assert!(
            !again.contains("gs.solve"),
            "drain empties the ring: {again}"
        );
    }
}
