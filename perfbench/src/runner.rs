//! The measurement loop shared by every workload: set-up timing, timed
//! ops with independent checks outside the timed region, the exact work
//! fingerprint, and the traced pass.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::check::Digest;
use crate::tracer::Tracer;

/// A workload as the runner drives it. `op` is the timed region and
/// contains only calls the `kmatch` CLI itself makes for that job;
/// `prepare` (input generation) and `check` run outside it.
pub trait Workload {
    type Out;

    /// Name of the work unit `throughput` counts, e.g. `"instances"`.
    const UNIT: &'static str;

    /// Work units op `i` completes.
    fn units(&self, i: u64) -> u64;

    /// Ops in the fixed set every run covers: the exact work fingerprint
    /// and the traced pass are taken over ops `0..fixed_ops()`.
    fn fixed_ops(&self) -> u64;

    /// Identifies op `i`'s input when inputs repeat (a fixed pool cycled
    /// by the ops). A repeated input's output must reproduce the digest of
    /// its first, fully checked output.
    fn input_id(&self, i: u64) -> Option<u64>;

    /// Benchmark-side input generation for op `i` (untimed).
    fn prepare(&mut self, _i: u64) {}

    /// The timed op. With `Some(tracer)` it records layer spans as
    /// children of the op span the runner has opened.
    fn op(&mut self, i: u64, tr: Option<&mut Tracer>) -> Result<Self::Out, String>;

    /// Independent check of op `i`'s output (untimed).
    fn check(&mut self, i: u64, out: &Self::Out) -> Result<(), String>;

    /// Digest of everything the op output (matchings, verdicts,
    /// certificate kinds).
    fn digest(&self, out: &Self::Out) -> u64;

    /// Exact work counters of one op, summed over the fixed set.
    fn counters(&self, out: &Self::Out) -> Vec<(&'static str, u64)>;

    /// Return to the state before op 0 (fresh session, restarted delta
    /// stream) so a second pass replays the same inputs.
    fn restart(&mut self) {}
}

/// Attempted and failed ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn record<E>(&mut self, outcome: Result<(), E>) {
        self.attempted += 1;
        self.failed += u64::from(outcome.is_err());
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one pass over ops measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub ledger: Ledger,
    /// Wall time of every op that returned, in seconds.
    pub op_s: Vec<f64>,
    /// Work units of ops that passed their check.
    pub ok_units: u64,
    /// Exact counters over the fixed set, and the digest of its outputs.
    pub counters: BTreeMap<&'static str, u64>,
    pub digest: u64,
    /// First failure messages (capped).
    pub errors: Vec<String>,
}

impl Pass {
    pub fn throughput(&self) -> f64 {
        self.ok_units as f64 / self.op_s.iter().sum::<f64>().max(1e-12)
    }

    fn fail(&mut self, i: u64, msg: String) {
        self.ledger.record(Err(()));
        if self.errors.len() < 8 {
            self.errors.push(format!("op {i}: {msg}"));
        }
    }
}

/// How long a pass runs.
pub enum Until {
    /// At least the fixed set, then until the pass (ops, input generation
    /// and checks, except the first full check of each pooled input) has
    /// run for the budget.
    Budget(Duration),
    /// Exactly the fixed set.
    FixedSet,
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Run ops from 0. Each op is timed alone; its check, digest and counters
/// follow outside the timed region. `memo` maps repeated inputs to the
/// digest of their first checked output and persists across passes, so
/// a second pass over the same inputs is checked against the first.
pub fn run_pass<W: Workload>(
    w: &mut W,
    until: Until,
    mut tracer: Option<&mut Tracer>,
    memo: &mut HashMap<u64, u64>,
) -> Pass {
    let mut pass = Pass::default();
    let fixed = w.fixed_ops();
    let mut fingerprint = Digest::default();
    let start = Instant::now();
    // Full checks of a repeated input's first output are a one-time cost
    // of the input pool, so they do not use up the budget.
    let mut pool_checks = Duration::ZERO;
    for i in 0.. {
        let more = match until {
            Until::FixedSet => i < fixed,
            Until::Budget(b) => i < fixed || start.elapsed() < b + pool_checks,
        };
        if !more {
            break;
        }
        w.prepare(i);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.begin_op(i);
        }
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| w.op(i, tracer.as_deref_mut())));
        let dt = t0.elapsed().as_secs_f64();
        if let Some(tr) = tracer.as_deref_mut() {
            tr.end();
        }
        let out = match res {
            Ok(Ok(out)) => out,
            Ok(Err(e)) => {
                pass.fail(i, e);
                continue;
            }
            Err(p) => {
                pass.fail(i, format!("panicked: {}", panic_message(p)));
                continue;
            }
        };
        pass.op_s.push(dt);
        let d = w.digest(&out);
        let verdict = match w.input_id(i).and_then(|id| memo.get(&id).map(|&m| (id, m))) {
            Some((id, first)) if first != d => Err(format!(
                "output digest {d:016x} differs from input {id}'s first output {first:016x}"
            )),
            Some(_) => Ok(()),
            None => {
                let c0 = Instant::now();
                let r = catch_unwind(AssertUnwindSafe(|| w.check(i, &out)))
                    .unwrap_or_else(|p| Err(format!("check panicked: {}", panic_message(p))));
                if let Some(id) = w.input_id(i) {
                    pool_checks += c0.elapsed();
                    if r.is_ok() {
                        memo.insert(id, d);
                    }
                }
                r
            }
        };
        match verdict {
            Ok(()) => {
                pass.ledger.record::<()>(Ok(()));
                pass.ok_units += w.units(i);
            }
            Err(e) => pass.fail(i, e),
        }
        if i < fixed {
            fingerprint.word(d);
            for (name, v) in w.counters(&out) {
                *pass.counters.entry(name).or_default() += v;
            }
        }
    }
    pass.digest = fingerprint.finish();
    pass
}

/// Median of `reps` timed repetitions of a set-up step. `f` returns the
/// seconds it spent inside the program (input generation excluded).
pub fn median_setup(reps: usize, mut f: impl FnMut() -> f64) -> (f64, Vec<f64>) {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    (median(&samples), samples)
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile)`. With fewer than eleven samples no percentile
/// qualifies and the minimum (percentile 0) is returned.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return (v.first().copied().unwrap_or(0.0), 0.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_beyond() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 89.0);
        assert_eq!(p, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&[3.0, 1.0]), (1.0, 0.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
