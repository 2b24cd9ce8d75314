//! Exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`)
//! and the self-describing `kmatch.trace/v1` document, plus the
//! validators the CLI and CI smoke checks use.

use serde::Value;

use crate::event::{EventKind, TraceEvent};

/// Schema tag of the native JSON export, alongside
/// `kmatch.run_report/v1` in the run-report family.
pub const TRACE_SCHEMA: &str = "kmatch.trace/v1";

/// One thread track of a timeline: the events of a single worker (or of
/// the only thread, for serial runs). Chrome export maps `tid` to a
/// thread track and labels it `label` via a `thread_name` metadata
/// event.
#[derive(Debug, Clone)]
pub struct TraceTrack {
    /// Thread-track id (chunk/worker index; `0` for serial runs).
    pub tid: u64,
    /// Human-readable track label, e.g. `"worker-3"` or `"main"`.
    pub label: String,
    /// The track's events in recording order.
    pub events: Vec<TraceEvent>,
}

impl TraceTrack {
    /// A single-track timeline labelled `main`.
    pub fn main(events: Vec<TraceEvent>) -> Vec<TraceTrack> {
        vec![TraceTrack {
            tid: 0,
            label: "main".to_string(),
            events,
        }]
    }

    /// One track per chunk, labelled `worker-<i>`.
    pub fn workers(chunks: Vec<Vec<TraceEvent>>) -> Vec<TraceTrack> {
        chunks
            .into_iter()
            .enumerate()
            .map(|(i, events)| TraceTrack {
                tid: i as u64,
                label: format!("worker-{i}"),
                events,
            })
            .collect()
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Render tracks as Chrome trace-event JSON (the "JSON Array Format"
/// wrapped in a `traceEvents` object), loadable in Perfetto and
/// `chrome://tracing`. Span begins/ends become `ph: "B"` / `ph: "E"`
/// duration events, instants become thread-scoped `ph: "i"` events, and
/// every track gets a `thread_name` metadata record. Timestamps convert
/// from nanoseconds to the format's microseconds.
pub fn to_chrome_json(tracks: &[TraceTrack]) -> String {
    let mut events: Vec<Value> = Vec::new();
    for track in tracks {
        events.push(obj(vec![
            ("name", Value::String("thread_name".into())),
            ("ph", Value::String("M".into())),
            ("pid", Value::Number(1.0)),
            ("tid", Value::Number(track.tid as f64)),
            (
                "args",
                obj(vec![("name", Value::String(track.label.clone()))]),
            ),
        ]));
        for ev in &track.events {
            let ts_us = ev.ts_ns as f64 / 1000.0;
            let mut fields = vec![
                ("name", Value::String(ev.name.to_string())),
                (
                    "ph",
                    Value::String(
                        match ev.kind {
                            EventKind::Begin => "B",
                            EventKind::End => "E",
                            EventKind::Instant => "i",
                        }
                        .into(),
                    ),
                ),
                ("ts", Value::Number(ts_us)),
                ("pid", Value::Number(1.0)),
                ("tid", Value::Number(track.tid as f64)),
            ];
            if ev.kind == EventKind::Instant {
                fields.push(("s", Value::String("t".into())));
            }
            if ev.kind != EventKind::End {
                fields.push(("args", obj(vec![("arg", Value::Number(ev.arg as f64))])));
            }
            events.push(obj(fields));
        }
    }
    let top = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::String("ns".into())),
    ]);
    let mut s = serde_json::to_string_pretty(&top).expect("trace serialization is infallible");
    s.push('\n');
    s
}

fn kind_str(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "begin",
        EventKind::End => "end",
        EventKind::Instant => "instant",
    }
}

/// Render tracks as the native `kmatch.trace/v1` JSON document:
/// schema-tagged, nanosecond timestamps preserved exactly as recorded,
/// one object per event.
pub fn to_trace_json(tracks: &[TraceTrack]) -> String {
    let tracks_v: Vec<Value> = tracks
        .iter()
        .map(|track| {
            let events: Vec<Value> = track
                .events
                .iter()
                .map(|ev| {
                    obj(vec![
                        ("kind", Value::String(kind_str(ev.kind).into())),
                        ("name", Value::String(ev.name.to_string())),
                        ("ts_ns", Value::Number(ev.ts_ns as f64)),
                        ("arg", Value::Number(ev.arg as f64)),
                    ])
                })
                .collect();
            obj(vec![
                ("tid", Value::Number(track.tid as f64)),
                ("label", Value::String(track.label.clone())),
                ("events", Value::Array(events)),
            ])
        })
        .collect();
    let top = obj(vec![
        ("schema", Value::String(TRACE_SCHEMA.into())),
        ("tracks", Value::Array(tracks_v)),
    ]);
    let mut s = serde_json::to_string_pretty(&top).expect("trace serialization is infallible");
    s.push('\n');
    s
}

/// Validate that `text` parses as Chrome trace-event JSON: a
/// `traceEvents` array whose entries all carry `name`/`ph`/`pid`/`tid`
/// (and `ts` for non-metadata events). Returns the distinct event names
/// seen, so smoke checks can assert the required phases are present.
pub fn validate_chrome_json(text: &str) -> Result<Vec<String>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = match v.get("traceEvents") {
        Some(Value::Array(events)) => events,
        _ => return Err("missing `traceEvents` array".to_string()),
    };
    let mut names: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let name = match ev.get("name") {
            Some(Value::String(s)) => s.clone(),
            _ => return Err(format!("event {i}: missing `name`")),
        };
        let ph = match ev.get("ph") {
            Some(Value::String(s)) => s.clone(),
            _ => return Err(format!("event {i}: missing `ph`")),
        };
        for key in ["pid", "tid"] {
            match ev.get(key) {
                Some(Value::Number(_)) => {}
                _ => return Err(format!("event {i}: missing numeric `{key}`")),
            }
        }
        if ph != "M" {
            match ev.get("ts") {
                Some(Value::Number(_)) => {}
                _ => return Err(format!("event {i}: missing numeric `ts`")),
            }
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    Ok(names)
}

/// Validate a `kmatch.trace/v1` document: schema tag, `tracks` array,
/// per-track `tid`/`label`/`events`, per-event
/// `kind`/`name`/`ts_ns`/`arg`. Returns the distinct event names seen.
pub fn validate_trace_json(text: &str) -> Result<Vec<String>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    match v.get("schema") {
        Some(Value::String(s)) if s == TRACE_SCHEMA => {}
        Some(Value::String(s)) => {
            return Err(format!(
                "schema mismatch: got {s:?}, expected {TRACE_SCHEMA:?}"
            ))
        }
        _ => return Err("missing `schema` key".to_string()),
    }
    let tracks = match v.get("tracks") {
        Some(Value::Array(tracks)) => tracks,
        _ => return Err("missing `tracks` array".to_string()),
    };
    let mut names: Vec<String> = Vec::new();
    for (t, track) in tracks.iter().enumerate() {
        if !matches!(track.get("tid"), Some(Value::Number(_))) {
            return Err(format!("track {t}: missing numeric `tid`"));
        }
        if !matches!(track.get("label"), Some(Value::String(_))) {
            return Err(format!("track {t}: missing `label`"));
        }
        let events = match track.get("events") {
            Some(Value::Array(events)) => events,
            _ => return Err(format!("track {t}: missing `events` array")),
        };
        for (i, ev) in events.iter().enumerate() {
            match ev.get("kind") {
                Some(Value::String(k)) if ["begin", "end", "instant"].contains(&k.as_str()) => {}
                _ => return Err(format!("track {t} event {i}: bad `kind`")),
            }
            let name = match ev.get("name") {
                Some(Value::String(s)) => s.clone(),
                _ => return Err(format!("track {t} event {i}: missing `name`")),
            };
            for key in ["ts_ns", "arg"] {
                if !matches!(ev.get(key), Some(Value::Number(_))) {
                    return Err(format!("track {t} event {i}: missing numeric `{key}`"));
                }
            }
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    Ok(names)
}

/// Convenience for smoke checks: validate `text` as Chrome trace JSON
/// and return an error naming the first entry of `required` that is
/// absent from the event names.
pub fn chrome_trace_names(text: &str, required: &[&str]) -> Result<Vec<String>, String> {
    let names = validate_chrome_json(text)?;
    for want in required {
        if !names.iter().any(|n| n == want) {
            return Err(format!("required event name {want:?} absent from trace"));
        }
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn sample_tracks() -> Vec<TraceTrack> {
        let t0 = vec![
            TraceEvent {
                kind: EventKind::Begin,
                name: "gs.solve",
                ts_ns: 1000,
                arg: 16,
            },
            TraceEvent {
                kind: EventKind::Instant,
                name: "cache.miss",
                ts_ns: 1500,
                arg: 0,
            },
            TraceEvent {
                kind: EventKind::End,
                name: "gs.solve",
                ts_ns: 2000,
                arg: 0,
            },
        ];
        let t1 = vec![TraceEvent {
            kind: EventKind::Instant,
            name: "cache.hit",
            ts_ns: 1200,
            arg: 0,
        }];
        TraceTrack::workers(vec![t0, t1])
    }

    #[test]
    fn chrome_export_validates_and_reports_names() {
        let text = to_chrome_json(&sample_tracks());
        let names = validate_chrome_json(&text).unwrap();
        assert!(names.contains(&"gs.solve".to_string()));
        assert!(names.contains(&"cache.miss".to_string()));
        assert!(names.contains(&"cache.hit".to_string()));
        chrome_trace_names(&text, &["gs.solve", "cache.hit"]).unwrap();
        let err = chrome_trace_names(&text, &["irving.phase1"]).unwrap_err();
        assert!(err.contains("irving.phase1"), "{err}");
    }

    #[test]
    fn chrome_export_has_thread_tracks_and_microsecond_ts() {
        let text = to_chrome_json(&sample_tracks());
        let v: Value = serde_json::from_str(&text).unwrap();
        let events = match v.get("traceEvents") {
            Some(Value::Array(e)) => e.clone(),
            _ => panic!("missing traceEvents"),
        };
        // Two metadata records labelling the worker tracks.
        let meta: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph") == Some(&Value::String("M".into())))
            .collect();
        assert_eq!(meta.len(), 2);
        assert_eq!(
            meta[1].get("args").and_then(|a| a.get("name")),
            Some(&Value::String("worker-1".into()))
        );
        // 1000 ns begin → ts 1.0 µs; instants carry a scope.
        let begin = events
            .iter()
            .find(|e| e.get("ph") == Some(&Value::String("B".into())))
            .unwrap();
        assert_eq!(begin.get("ts"), Some(&Value::Number(1.0)));
        let instant = events
            .iter()
            .find(|e| e.get("ph") == Some(&Value::String("i".into())))
            .unwrap();
        assert_eq!(instant.get("s"), Some(&Value::String("t".into())));
    }

    #[test]
    fn trace_json_roundtrips_schema_and_names() {
        let text = to_trace_json(&sample_tracks());
        assert!(text.contains(TRACE_SCHEMA));
        let names = validate_trace_json(&text).unwrap();
        assert_eq!(names.len(), 3);
        // Nanosecond timestamps survive exactly.
        assert!(text.contains("\"ts_ns\": 1500"));
    }

    #[test]
    fn validators_reject_malformed_documents() {
        assert!(validate_chrome_json("not json").is_err());
        assert!(validate_chrome_json("{}").is_err());
        assert!(validate_trace_json("{}").is_err());
        let wrong = r#"{"schema": "kmatch.trace/v9", "tracks": []}"#;
        assert!(validate_trace_json(wrong).unwrap_err().contains("mismatch"));
        let bad_event = r#"{"traceEvents": [{"ph": "B"}]}"#;
        assert!(validate_chrome_json(bad_event)
            .unwrap_err()
            .contains("name"));
    }
}
