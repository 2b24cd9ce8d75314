//! Process-memory probes for the scaling benchmarks.
//!
//! The lazy-oracle benches claim O(n·polylog) **memory**, not just time,
//! so the bench emitters record two complementary numbers per row:
//!
//! * [`peak_rss_bytes`] — the kernel's high-water mark of resident set
//!   size (`VmHWM` in `/proc/self/status`). Honest but *monotone over the
//!   whole process lifetime*: once any phase of the process touches X
//!   bytes, every later reading reports at least X. Emitters must
//!   therefore run their largest lazy rows **first**, before anything
//!   materializes O(n²) tables, for the reading to bound the lazy solve.
//! * a deterministic *arena-bytes* figure computed by the caller from the
//!   workspace/backing-store sizes it actually allocated — exact and
//!   phase-local, but blind to allocator overhead.
//!
//! On platforms without `/proc` (or sandboxed readers) the probe returns
//! `None` and emitters record 0 rather than failing the run.

/// Peak resident set size of the current process in bytes (`VmHWM`), or
/// `None` where `/proc/self/status` is unavailable.
///
/// Monotone: reports the lifetime high-water mark, not current usage.
pub fn peak_rss_bytes() -> Option<u64> {
    rss_sample().map(|s| s.peak)
}

/// Current resident set size in bytes (`VmRSS`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn current_rss_bytes() -> Option<u64> {
    rss_sample().map(|s| s.current)
}

/// Peak and current resident set size in bytes, from one read.
#[derive(Debug, Clone, Copy)]
struct RssSample {
    peak: u64,
    current: u64,
}

/// Both RSS figures parsed from a single read of `/proc/self/status`.
///
/// Within one read the kernel reports `VmHWM >= VmRSS`; two separate
/// reads can straddle growth, so the later RSS may exceed the earlier
/// high-water mark.
fn rss_sample() -> Option<RssSample> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_rss_sample(&status)
}

fn parse_rss_sample(status: &str) -> Option<RssSample> {
    Some(RssSample {
        peak: parse_status_kb(status, "VmHWM:")? * 1024,
        current: parse_status_kb(status, "VmRSS:")? * 1024,
    })
}

/// Extract a `kB` quantity from a `/proc/self/status` line such as
/// `VmHWM:     123456 kB`.
fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find(|line| line.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_proc_status_format() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  1000 kB\n";
        let sample = parse_rss_sample(status).unwrap();
        assert_eq!(sample.peak, 123_456 * 1024);
        assert_eq!(sample.current, 1000 * 1024);
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
        assert!(parse_rss_sample("VmHWM:\t  1 kB\n").is_none());
    }

    #[test]
    fn live_probe_reports_a_sane_figure_on_linux() {
        if let Some(RssSample { peak, current }) = rss_sample() {
            // A test process certainly sits between 100 KiB and 1 TiB.
            assert!(peak > 100 * 1024, "HWM {peak} implausibly small");
            assert!(peak < 1 << 40, "HWM {peak} implausibly large");
            assert!(current <= peak, "current RSS above the high-water mark");
            assert!(peak_rss_bytes().is_some() && current_rss_bytes().is_some());
        }
    }
}
