//! CLI plumbing for the tracing flags shared by `solve smp`, `batch`,
//! `bind`, and `delta`: `--trace-out FILE` picks the destination,
//! `--trace-format chrome|json` the exporter (Chrome trace-event JSON
//! for Perfetto, or the native `kmatch.trace/v1` document), and
//! `--flight-recorder N` swaps the unbounded recorder for a
//! fixed-capacity ring that keeps only the newest `N` events.

use std::fs;

use kmatch_obs::{Clock, Metrics};
use kmatch_trace::{
    to_chrome_json, to_trace_json, FlightRecorder, TraceEvent, TraceRecorder, TraceTrack,
};

use crate::args::Args;

/// The tracing flags of one command invocation, parsed and validated.
pub struct TraceOpts {
    out: Option<String>,
    format: &'static str,
    flight: Option<usize>,
}

impl TraceOpts {
    /// Parse `--trace-out`/`--trace-format`/`--flight-recorder`.
    /// The latter two are only meaningful with a destination, so they
    /// are rejected without `--trace-out`.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let out = args.flag("trace-out").map(str::to_string);
        let format = match args.flag("trace-format").unwrap_or("chrome") {
            "chrome" => "chrome",
            "json" => "json",
            other => {
                return Err(format!(
                    "unknown trace format: {other} (expected chrome|json)"
                ))
            }
        };
        let flight = match args.flag("flight-recorder") {
            None => None,
            Some(v) => match v.parse() {
                // An empty ring would drop every event and write an empty
                // trace.
                Ok(0) => return Err("need --flight-recorder >= 1".to_string()),
                Ok(cap) => Some(cap),
                Err(_) => return Err(format!("invalid value for --flight-recorder: {v}")),
            },
        };
        if out.is_none() && (args.flag("trace-format").is_some() || flight.is_some()) {
            return Err(
                "--trace-format and --flight-recorder require --trace-out FILE".to_string(),
            );
        }
        Ok(TraceOpts { out, format, flight })
    }

    /// Whether this run records spans at all.
    pub fn enabled(&self) -> bool {
        self.out.is_some()
    }

    /// Ring capacity for the per-chunk flight recorders of the traced
    /// batch front-ends (generous default when `--flight-recorder` is
    /// not given — batch timelines are bounded per chunk either way).
    pub fn chunk_capacity(&self) -> usize {
        self.flight.unwrap_or(1 << 16)
    }

    /// The recorder this invocation asked for, sampling `clock`.
    pub fn sink<'c, C: Clock>(&self, clock: &'c C) -> CliSink<'c, C> {
        match self.flight {
            Some(cap) => CliSink::Flight(FlightRecorder::new(clock, cap)),
            None => CliSink::Full(TraceRecorder::new(clock)),
        }
    }

    /// Export `tracks` to `--trace-out` in the chosen format (no-op when
    /// tracing is off).
    pub fn write(&self, tracks: &[TraceTrack]) -> Result<(), String> {
        let Some(path) = &self.out else {
            return Ok(());
        };
        let text = match self.format {
            "chrome" => to_chrome_json(tracks),
            _ => to_trace_json(tracks),
        };
        fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({} trace)", self.format);
        Ok(())
    }
}

/// Runtime-selected recorder: the unbounded [`TraceRecorder`] by
/// default, the ring-buffer [`FlightRecorder`] under
/// `--flight-recorder N`. It is a `Metrics` observer over the span hooks
/// only, so engines stay monomorphized over one observer type; the CLI
/// pays one match per span event, which is noise at command-line
/// granularity.
pub enum CliSink<'c, C: Clock> {
    /// Unbounded recorder (keeps the whole timeline).
    Full(TraceRecorder<'c, C>),
    /// Fixed-capacity ring (keeps the newest events).
    Flight(FlightRecorder<'c, C>),
}

impl<C: Clock> CliSink<'_, C> {
    /// The recorded events, oldest first. Flight recorders that wrapped
    /// report how many events fell off the front.
    pub fn into_events(self) -> (Vec<TraceEvent>, u64) {
        match self {
            CliSink::Full(mut rec) => (rec.take(), 0),
            CliSink::Flight(rec) => {
                let dropped = rec.dropped();
                (rec.events(), dropped)
            }
        }
    }
}

impl<C: Clock> Metrics for CliSink<'_, C> {
    const ENABLED: bool = true;
    // `--trace-out` is an explicit request to trace one run, so the CLI
    // sink keeps full (per-round) fidelity even when `--flight-recorder`
    // bounds retention: the ring then stores the fine spans it is
    // handed and simply wraps sooner. The phase-level-only discipline
    // applies where a FlightRecorder is armed *implicitly* — the traced
    // batch front-ends, which monomorphize over the ring directly.
    const FINE_SPANS: bool = true;

    fn span_begin(&mut self, name: &'static str, arg: u64) {
        match self {
            CliSink::Full(rec) => rec.span_begin(name, arg),
            CliSink::Flight(rec) => rec.span_begin(name, arg),
        }
    }

    fn span_end(&mut self, name: &'static str) {
        match self {
            CliSink::Full(rec) => rec.span_end(name),
            CliSink::Flight(rec) => rec.span_end(name),
        }
    }

    fn span_instant(&mut self, name: &'static str, arg: u64) {
        match self {
            CliSink::Full(rec) => rec.span_instant(name, arg),
            CliSink::Flight(rec) => rec.span_instant(name, arg),
        }
    }
}
