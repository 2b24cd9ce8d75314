//! Oracle-probe accounting for the escalating roommates driver.
//!
//! Runs the production schedule (`solve_escalating_from` at
//! `default_initial_cut`) over a counting `RoommatesOracle` wrapper. A
//! small `Metrics` sink snapshots the probe counters and the clock at
//! each escalation attempt, at certificate verification and at the end
//! of the solve, and prints one line per segment — candidate and rank
//! probes and wall time — plus the certificate and the arena high-water
//! mark:
//!
//! ```text
//! cargo run --release -p kmatch-bench --bin probe_study -- [N] [SEED]
//! ```
//!
//! `BENCH_roommates.json` records wall time; this is the tool that says
//! where it went. At n = 10⁶ (seed 0x0A11_CE55) the one attempt, at cut
//! 16000, costs 2.06 G probes (1.04 G candidate, 1.02 G rank) and
//! verifying its partition another 1.50 G, against the ~10¹² a
//! full-width solve would touch; at n = 2·10⁴ (seed 1) the split is
//! 8.7 M / 4.3 M. The probe counters double as a regression lens for
//! oracle-layer changes that wall-clock noise would hide.

use std::cell::Cell;
use std::time::Instant;

use kmatch_obs::{phase, Metrics};
use kmatch_prefs::{CachedRoommatesOracle, RoommatesOracle};
use kmatch_roommates::escalate::{default_initial_cut, solve_escalating_from};
use kmatch_roommates::RoommatesWorkspace;

struct Counting<O> {
    inner: O,
    candidates: Cell<u64>,
    ranks: Cell<u64>,
}

impl<O: RoommatesOracle> RoommatesOracle for Counting<O> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn row_len(&self, p: u32) -> u32 {
        self.inner.row_len(p)
    }
    fn candidate(&self, p: u32, pos: u32) -> u32 {
        self.candidates.set(self.candidates.get() + 1);
        self.inner.candidate(p, pos)
    }
    fn rank_of(&self, p: u32, q: u32) -> u32 {
        self.ranks.set(self.ranks.get() + 1);
        self.inner.rank_of(p, q)
    }
    fn candidates_into(&self, p: u32, lo: u32, out: &mut [u32]) {
        self.candidates
            .set(self.candidates.get() + out.len() as u64);
        self.inner.candidates_into(p, lo, out)
    }
    fn ranks_toward_into(&self, qs: &[u32], p: u32, out: &mut [u32]) {
        self.ranks.set(self.ranks.get() + qs.len() as u64);
        self.inner.ranks_toward_into(qs, p, out)
    }
    fn rank_lt(&self, q: u32, p: u32, limit: u32) -> bool {
        self.ranks.set(self.ranks.get() + 1);
        self.inner.rank_lt(q, p, limit)
    }
    fn ranks_lt_into(&self, qs: &[u32], p: u32, limits: &[u32], out: &mut [bool]) {
        self.ranks.set(self.ranks.get() + qs.len() as u64);
        self.inner.ranks_lt_into(qs, p, limits, out)
    }
}

/// Splits a solve into segments at the driver's hooks and prints each
/// segment's probes and wall time when the next one starts.
struct Segments<'a, O> {
    probes: &'a Counting<O>,
    label: String,
    start: Instant,
    candidates: u64,
    ranks: u64,
}

impl<O> Segments<'_, O> {
    /// Close the open segment (if any) and open `label`.
    fn cut_at(&mut self, label: Option<String>) {
        let (c, r) = (self.probes.candidates.get(), self.probes.ranks.get());
        if !self.label.is_empty() {
            println!(
                "{:<22} {:>10.3?}  cand={:>11}  rank={:>11}",
                self.label,
                self.start.elapsed(),
                c - self.candidates,
                r - self.ranks,
            );
        }
        self.label = label.unwrap_or_default();
        self.start = Instant::now();
        (self.candidates, self.ranks) = (c, r);
    }
}

impl<O> Metrics for Segments<'_, O> {
    const ENABLED: bool = true;
    fn proposal(&mut self) {}
    fn rejection(&mut self) {}
    fn holder_swap(&mut self) {}
    fn round(&mut self) {}
    fn phase1_truncation(&mut self) {}
    fn phase2_rotation(&mut self) {}
    fn workspace(&mut self, _fresh: bool) {}
    fn solve_ns(&mut self, _ns: u64) {}
    fn binding_edge(&mut self, _proposals: u64) {}
    fn theorem3_check(&mut self, _total: u64, _bound: u64) {}

    fn escalation_attempt(&mut self, cut: u32) {
        self.cut_at(Some(format!("attempt at cut {cut}")));
    }
    fn phase_enter(&mut self, id: u32) {
        match id {
            phase::VERIFY => self.cut_at(Some("verify partition".into())),
            phase::FULLWIDTH => self.cut_at(Some("full width".into())),
            _ => {}
        }
    }
    fn solve_done(&mut self, _solvable: bool, _proposals: u64) {
        self.cut_at(None);
    }
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x0A11_CE55);
    let counting = Counting {
        inner: CachedRoommatesOracle::new(n, seed),
        candidates: Cell::new(0),
        ranks: Cell::new(0),
    };
    let mut ws = RoommatesWorkspace::new();
    let mut segments = Segments {
        probes: &counting,
        label: String::new(),
        start: Instant::now(),
        candidates: 0,
        ranks: 0,
    };
    let (out, report) =
        solve_escalating_from(&counting, &mut ws, default_initial_cut(n), &mut segments);
    println!(
        "{:?} after {} attempt(s) at cut {}: odd={} singles={}  stable={}  \
         probes cand={} rank={}  arena={} B",
        report.cert,
        report.attempts,
        report.final_cut,
        report.odd_parties,
        report.singletons,
        out.is_stable(),
        counting.candidates.get(),
        counting.ranks.get(),
        report.arena_bytes,
    );
}
