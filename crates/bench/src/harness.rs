//! Shared measurement harness for the JSON bench binaries
//! (`bench_gs_json`, `bench_roommates_json`): block-minimum timing,
//! deterministic batch construction, and results-file writing routed
//! through `kmatch-obs` serialization.

use std::path::Path;
use std::time::Instant;

use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_roommates};
use kmatch_prefs::{BipartiteInstance, RoommatesInstance};
use serde::Serialize;

use crate::rng;

/// Per-variant minimum over `passes` contiguous timing blocks of `reps`
/// runs each.
///
/// Variants get *separate* blocks rather than run-by-run interleaving: on
/// a host whose last-level cache is shared with noisy neighbors, an
/// interleaved rotation makes every variant evict the others' working set
/// between its runs, which distorts exactly the locality effects these
/// benchmarks exist to show (measured here: it hid a 2× CSR-arena win
/// entirely). Rotating the block order across passes still spreads slow
/// host drift over all variants, and the minimum is the robust statistic —
/// noise on a shared machine only ever adds time.
pub fn measure_blocks<const K: usize>(
    passes: usize,
    reps: usize,
    variants: [&mut dyn FnMut() -> u64; K],
) -> [f64; K] {
    let mut sink = 0u64;
    let mut best = [f64::INFINITY; K];
    for pass in 0..passes {
        for i in 0..K {
            let v = (i + pass) % K;
            for _ in 0..reps {
                let t = Instant::now();
                sink = sink.wrapping_add(variants[v]());
                best[v] = best[v].min(t.elapsed().as_nanos() as f64);
            }
        }
    }
    assert!(sink > 0, "benchmark workload produced no proposals");
    best
}

/// `count` uniform bipartite instances of size `n` from the deterministic
/// stream [`rng`]`(tag)`.
pub fn bipartite_batch(count: usize, n: usize, tag: u64) -> Vec<BipartiteInstance> {
    let mut r = rng(tag);
    (0..count).map(|_| uniform_bipartite(n, &mut r)).collect()
}

/// `count` uniform roommates instances of size `n` from the deterministic
/// stream [`rng`]`(tag)`.
pub fn roommates_batch(count: usize, n: usize, tag: u64) -> Vec<RoommatesInstance> {
    let mut r = rng(tag);
    (0..count).map(|_| uniform_roommates(n, &mut r)).collect()
}

/// Write `value` as pretty JSON to `results/<name>` through the
/// `kmatch-obs` funnel (which creates the directory) and log the path.
pub fn write_results<T: Serialize>(name: &str, value: &T) {
    let path = Path::new("results").join(name);
    kmatch_obs::report::write_json_file(&path, value)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote results/{name}");
}

/// A plain-vs-metered batch comparison: the measured cost of always-on
/// `SolverMetrics` (counter increments, histogram observes, two clock
/// samples per solve) relative to the `NoMetrics` batch path.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Batch size.
    pub instances: usize,
    /// Instance size.
    pub n: usize,
    /// Block-minimum wall time of the plain (`NoMetrics`) batch solve.
    pub plain_ns: f64,
    /// Block-minimum wall time of the metered batch solve.
    pub metered_ns: f64,
    /// `(metered_ns / plain_ns − 1) · 100` — acceptance target < 5%.
    pub overhead_pct: f64,
}

serde::impl_json_struct!(OverheadRow {
    instances,
    n,
    plain_ns,
    metered_ns,
    overhead_pct
});

impl OverheadRow {
    /// Build a row from the two block minimums.
    pub fn new(instances: usize, n: usize, plain_ns: f64, metered_ns: f64) -> Self {
        OverheadRow {
            instances,
            n,
            plain_ns,
            metered_ns,
            overhead_pct: (metered_ns / plain_ns - 1.0) * 100.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic() {
        let a = bipartite_batch(3, 8, 7);
        let b = bipartite_batch(3, 8, 7);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.proposer_list(0), y.proposer_list(0));
        }
        let r = roommates_batch(2, 6, 9);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].n(), 6);
    }

    #[test]
    fn measure_blocks_returns_finite_minimums() {
        let [a, b] = measure_blocks(2, 3, [&mut || 1u64, &mut || 2u64]);
        assert!(a.is_finite() && b.is_finite());
    }

    #[test]
    fn overhead_row_computes_percentage() {
        let row = OverheadRow::new(10, 100, 1000.0, 1030.0);
        assert!((row.overhead_pct - 3.0).abs() < 1e-9);
    }
}
