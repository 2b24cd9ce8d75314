//! Engine execution-phase identifiers for the forensic progress plane.
//!
//! Engines announce phase transitions through
//! [`Metrics::phase_enter`](crate::Metrics::phase_enter) using these
//! small integer ids, so a progress observer (see `kmatch-forensics`) can
//! publish "where the solver is right now" without the engines knowing
//! anything about probes. Ids are wire-stable: they appear in `/progress`
//! responses and `kmatch.postmortem/v1` bundles, so renumbering an
//! existing id is a schema break. New phases append.

/// No solve in flight (the probe's rest state; engines never announce it
/// — the progress observer returns to it on `solve_done`).
pub const IDLE: u32 = 0;
/// Gale–Shapley synchronous proposal rounds (cold solve).
pub const GS_ROUNDS: u32 = 1;
/// Gale–Shapley warm-start replay of a held execution.
pub const GS_WARM: u32 = 2;
/// Irving phase 1: proposal/truncation to a stable table.
pub const IRVING_PHASE1: u32 = 3;
/// Irving phase 2: rotation elimination.
pub const IRVING_PHASE2: u32 = 4;
/// Escalating truncated-solve driver: a top-K attempt at the current cut.
pub const ESCALATE: u32 = 5;
/// Escalation driver verifying a stable-partition certificate.
pub const VERIFY: u32 = 6;
/// Escalation driver falling back to the complete full-width solve.
pub const FULLWIDTH: u32 = 7;
/// K-ary binding driver executing pairwise binding edges.
pub const BIND: u32 = 8;

/// Human name for a phase id (`"unknown"` for ids this build predates —
/// forensic consumers must tolerate those rather than fail).
pub fn phase_name(id: u32) -> &'static str {
    match id {
        IDLE => "idle",
        GS_ROUNDS => "gs.rounds",
        GS_WARM => "gs.warm",
        IRVING_PHASE1 => "irving.phase1",
        IRVING_PHASE2 => "irving.phase2",
        ESCALATE => "escalate",
        VERIFY => "verify",
        FULLWIDTH => "fullwidth",
        BIND => "bind",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_and_stable() {
        let ids = [
            IDLE,
            GS_ROUNDS,
            GS_WARM,
            IRVING_PHASE1,
            IRVING_PHASE2,
            ESCALATE,
            VERIFY,
            FULLWIDTH,
            BIND,
        ];
        let names: Vec<_> = ids.iter().map(|&i| phase_name(i)).collect();
        for (i, n) in names.iter().enumerate() {
            assert_ne!(*n, "unknown");
            assert!(names[..i].iter().all(|m| m != n), "duplicate name {n}");
        }
        assert_eq!(phase_name(999), "unknown");
        // Wire-stable anchors consumers depend on.
        assert_eq!(IDLE, 0);
        assert_eq!(ESCALATE, 5);
        assert_eq!(phase_name(ESCALATE), "escalate");
    }
}
