//! The [`TraceEvent`] record shared by every recorder, and the
//! well-formedness check for recorded streams.

/// What a single [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// The innermost open span closed.
    End,
    /// A point event with no duration.
    Instant,
}

/// One recorded event. `Copy` so ring buffers can preallocate and
/// overwrite in place without touching the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Begin, end, or instant.
    pub kind: EventKind,
    /// A name from [`crate::span`] — interned `&'static str`, so
    /// recording never allocates.
    pub name: &'static str,
    /// Recorder-sampled clock reading, nanoseconds.
    pub ts_ns: u64,
    /// Event-specific payload (round number, edge index, reason code…);
    /// `0` when unused. `end` events carry the arg of their `begin`
    /// counterpart only if the caller repeats it — recorders store what
    /// they are given.
    pub arg: u64,
}

impl TraceEvent {
    /// The placeholder a ring buffer is prefilled with.
    pub const EMPTY: TraceEvent = TraceEvent {
        kind: EventKind::Instant,
        name: "",
        ts_ns: 0,
        arg: 0,
    };
}

/// Check that a recorded event stream is well-formed: every `end`
/// matches the innermost open `begin` (strict nesting), no span is left
/// open, and timestamps never go backwards. Returns a description of
/// the first violation.
///
/// Flight-recorder dumps that overwrote their oldest events legitimately
/// start mid-stream; pass `allow_truncated_head = true` to accept `end`
/// events whose `begin` fell off the front. Such orphan ends are *not*
/// confined to the head of the dump: when the ring drops `B1 B2` from
/// `B1 B2 E2 B3 E3 E1`, the surviving `E1` closes a dropped span only
/// after the complete `B3 E3` — so any `end` arriving on an empty stack
/// is treated as closing a dropped begin. Crossed ends (a name that
/// mismatches the innermost open span) and backward timestamps stay
/// violations in both modes.
pub fn check_well_formed(events: &[TraceEvent], allow_truncated_head: bool) -> Result<(), String> {
    let mut stack: Vec<&'static str> = Vec::new();
    let mut last_ts = 0u64;
    for (i, ev) in events.iter().enumerate() {
        if ev.ts_ns < last_ts {
            return Err(format!(
                "event {i} ({:?} {:?}): timestamp {} went backwards (previous {})",
                ev.kind, ev.name, ev.ts_ns, last_ts
            ));
        }
        last_ts = ev.ts_ns;
        match ev.kind {
            EventKind::Begin => stack.push(ev.name),
            EventKind::End => match stack.pop() {
                Some(open) if open == ev.name => {}
                Some(open) => {
                    return Err(format!(
                        "event {i}: end {:?} does not match open span {open:?}",
                        ev.name
                    ));
                }
                None if allow_truncated_head => {}
                None => {
                    return Err(format!("event {i}: end {:?} with no open span", ev.name));
                }
            },
            EventKind::Instant => {}
        }
    }
    if let Some(open) = stack.pop() {
        return Err(format!("span {open:?} left open at end of stream"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, name: &'static str, ts_ns: u64) -> TraceEvent {
        TraceEvent {
            kind,
            name,
            ts_ns,
            arg: 0,
        }
    }

    #[test]
    fn well_formed_accepts_nested_stream() {
        let events = [
            ev(EventKind::Begin, "a", 0),
            ev(EventKind::Begin, "b", 1),
            ev(EventKind::Instant, "i", 1),
            ev(EventKind::End, "b", 2),
            ev(EventKind::End, "a", 3),
        ];
        check_well_formed(&events, false).unwrap();
    }

    #[test]
    fn well_formed_rejects_violations() {
        let crossed = [
            ev(EventKind::Begin, "a", 0),
            ev(EventKind::Begin, "b", 1),
            ev(EventKind::End, "a", 2),
        ];
        assert!(check_well_formed(&crossed, false)
            .unwrap_err()
            .contains("does not match"));

        let dangling = [ev(EventKind::End, "a", 0)];
        assert!(check_well_formed(&dangling, false)
            .unwrap_err()
            .contains("no open span"));

        let open = [ev(EventKind::Begin, "a", 0)];
        assert!(check_well_formed(&open, false)
            .unwrap_err()
            .contains("left open"));

        let backwards = [
            ev(EventKind::Instant, "a", 5),
            ev(EventKind::Instant, "b", 4),
        ];
        assert!(check_well_formed(&backwards, false)
            .unwrap_err()
            .contains("backwards"));
    }

    #[test]
    fn truncated_head_tolerated_only_when_allowed() {
        // A ring that wrapped mid-span starts with orphan ends.
        let wrapped = [
            ev(EventKind::End, "b", 0),
            ev(EventKind::End, "a", 1),
            ev(EventKind::Begin, "c", 2),
            ev(EventKind::End, "c", 3),
        ];
        check_well_formed(&wrapped, true).unwrap();
        assert!(check_well_formed(&wrapped, false).is_err());
        // Orphan ends also appear *after* complete spans when the ring
        // dropped their enclosing begins (suffix of B1 B2 E2 B3 E3 E1):
        let late_orphan = [
            ev(EventKind::End, "b", 0),
            ev(EventKind::Begin, "c", 1),
            ev(EventKind::End, "c", 2),
            ev(EventKind::End, "a", 3),
        ];
        check_well_formed(&late_orphan, true).unwrap();
        assert!(check_well_formed(&late_orphan, false).is_err());
        // A crossed end is a violation even in truncated mode.
        let crossed = [
            ev(EventKind::Begin, "c", 0),
            ev(EventKind::End, "d", 1),
        ];
        assert!(check_well_formed(&crossed, true).is_err());
    }
}
