//! Property: a `kmatch.postmortem/v1` bundle assembled from *any*
//! flight-recorder ring state — including rings that wrapped mid-span
//! and streams that died with spans open — validates, and still
//! validates after a serialize/parse round trip.

use kmatch_forensics::{bundle_json, validate_bundle, BundleInputs, ProbeSet, SamplerCore};
use kmatch_obs::{Clock, ManualClock, Metrics, SolverMetrics};
use kmatch_trace::FlightRecorder;
use proptest::{prop_assert, proptest, ProptestConfig};
use serde::Value;

const NAMES: [&str; 5] = [
    "gs.solve",
    "gs.round",
    "irving.phase1",
    "bind.edge",
    "cache.hit",
];

/// Tiny deterministic generator (the proptest shim hands us integers;
/// we grow the event stream from them).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    fn wrapped_and_truncated_rings_round_trip_validate(
        seed in 0u64..1_000_000,
        capacity in 2usize..64,
        steps in 1usize..300,
    ) {
        let clock = ManualClock::new();
        let mut ring = FlightRecorder::new(&clock, capacity);
        let mut rng = Lcg(seed.wrapping_mul(2) + 1);
        // Emit a well-formed stream (balanced while open, monotone time);
        // the ring wraps freely, and we *stop anywhere* — possibly with
        // spans open, like a process that died mid-solve.
        let mut stack: Vec<&'static str> = Vec::new();
        for _ in 0..steps {
            clock.advance(1 + rng.next() % 1000);
            match rng.next() % 3 {
                0 => {
                    let name = NAMES[(rng.next() % 4) as usize];
                    ring.span_begin(name, rng.next() % 100);
                    stack.push(name);
                }
                1 => {
                    if let Some(name) = stack.pop() {
                        ring.span_end(name);
                    } else {
                        ring.span_instant(NAMES[4], 0);
                    }
                }
                _ => ring.span_instant(NAMES[4], rng.next() % 10),
            }
        }

        let events = ring.events();
        let dropped = ring.dropped();
        let probes = ProbeSet::new(2);
        probes.probe(0).publish(5, 3, 128, 7, 999);
        let progress = probes.snapshot();
        let mut sampler = SamplerCore::new();
        sampler.sample_at(clock.now_ns(), &probes);
        let config = vec![("kind".to_string(), "prop".to_string())];
        let bundle = bundle_json(&BundleInputs {
            trigger: "panic",
            now_ns: clock.now_ns(),
            uptime_ns: clock.now_ns(),
            trace_events: &events,
            trace_dropped: dropped,
            metrics: SolverMetrics::new().to_json(),
            window: None,
            logs_jsonl: "",
            progress: &progress,
            profile: Some(sampler.to_json(probes.names())),
            config: &config,
            seed: Some(seed),
            rss_bytes: kmatch_obs::current_rss_bytes(),
        });

        if let Err(e) = validate_bundle(&bundle) {
            prop_assert!(false, "fresh bundle invalid: {} (dropped={}, events={})", e, dropped, events.len());
        }
        let text = serde_json::to_string_pretty(&bundle).expect("serializes");
        let reparsed: Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                prop_assert!(false, "bundle does not reparse: {:?}", e);
                unreachable!()
            }
        };
        if let Err(e) = validate_bundle(&reparsed) {
            prop_assert!(false, "round-tripped bundle invalid: {}", e);
        }
        prop_assert!(reparsed == bundle, "round trip changed the document");
    }
}
