//! The bounded event ring behind every keep-last-N trace buffer: the
//! per-worker [`FlightRecorder`](crate::FlightRecorder) and the operator
//! plane's `/trace` ring both store their events here.

use crate::event::TraceEvent;

/// Fixed-capacity ring of [`TraceEvent`]s keeping the **last N**.
///
/// All `capacity` slots are allocated at construction; a push into a
/// full ring overwrites the oldest event in place and counts it as
/// dropped, so the steady state allocates nothing. A capacity of `0`
/// stores nothing and counts every push as dropped.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    /// Index of the oldest live event.
    head: usize,
    /// Live events (`<= buf.len()`).
    len: usize,
    /// Events overwritten or discarded since construction or the last
    /// [`EventRing::drain`], plus drops ingested from upstream rings.
    dropped: u64,
}

impl EventRing {
    /// An empty ring with room for the last `capacity` events. All
    /// allocation happens here.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: vec![TraceEvent::EMPTY; capacity],
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Live events currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no event is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events lost to overwriting (or to a zero capacity), plus the
    /// upstream drops [`EventRing::ingest`] was told about.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append `ev`, overwriting the oldest event when full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        let cap = self.buf.len();
        if cap == 0 {
            self.dropped += 1;
            return;
        }
        // Compare-and-wrap instead of `%`: a predicted branch, not an
        // integer division, on the per-event hot path.
        if self.len < cap {
            let mut idx = self.head + self.len;
            if idx >= cap {
                idx -= cap;
            }
            self.buf[idx] = ev;
            self.len += 1;
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Append `events` (oldest first) that an upstream ring kept, and
    /// count the `upstream_dropped` events it had already lost.
    pub fn ingest(&mut self, events: &[TraceEvent], upstream_dropped: u64) {
        self.dropped += upstream_dropped;
        for &ev in events {
            self.push(ev);
        }
    }

    /// The held events, oldest first. Allocates the returned `Vec` —
    /// call this after the run, not during it.
    pub fn events(&self) -> Vec<TraceEvent> {
        let cap = self.buf.len();
        (0..self.len)
            .map(|i| self.buf[(self.head + i) % cap])
            .collect()
    }

    /// The held events (oldest first) and the dropped count, leaving the
    /// ring empty with a zero dropped count.
    pub fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let events = self.events();
        self.head = 0;
        self.len = 0;
        (events, std::mem::take(&mut self.dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;
    use std::sync::Mutex;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Instant,
            name: "cache.hit",
            ts_ns: ts,
            arg: 0,
        }
    }

    #[test]
    fn ring_keeps_last_n_and_counts_drops() {
        let mut ring = EventRing::new(3);
        ring.ingest(&[ev(1), ev(2)], 0);
        ring.ingest(&[ev(3), ev(4), ev(5)], 7);
        let (events, dropped) = ring.drain();
        assert_eq!(
            events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(dropped, 9, "7 upstream + 2 evicted here");
        // Drain resets both.
        let (events, dropped) = ring.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn concurrent_ingest_never_exceeds_capacity() {
        let ring = Mutex::new(EventRing::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..100 {
                        ring.lock().unwrap().ingest(&[ev(t * 1000 + i)], 0);
                    }
                });
            }
        });
        let mut ring = ring.into_inner().unwrap();
        assert_eq!(ring.len(), 64);
        let (_, dropped) = ring.drain();
        assert_eq!(dropped, 400 - 64);
    }
}
