//! Preference deltas — the unit of change for incremental re-solving.
//!
//! Real traffic arrives as small edits: one member re-ranks one list. A
//! [`PrefDelta`] names exactly one preference row of a bipartite instance
//! and how it changes, so the warm-start machinery in `kmatch-gs` and
//! `kmatch-incremental` can reason about *which rows are dirty* instead of
//! re-deriving everything from scratch. Three shapes cover the tests and
//! the CLI `delta` subcommand:
//!
//! * [`PrefDelta::SetRow`] — replace the whole row with a new permutation;
//! * [`PrefDelta::Swap`] — exchange the entries at two positions;
//! * [`PrefDelta::Splice`] — remove the entry at one position and
//!   re-insert it at another (everything between shifts by one).
//!
//! All three are *row-local*, and a swap or splice changes only the
//! positions of its **changed window** ([`PrefDelta::changed_window`]):
//! the row before and after agree everywhere else.
//! [`BipartiteInstance::apply_delta`] mutates an instance in place and
//! re-inverts the whole rank row, in O(n); [`CsrPrefs::apply_delta`]
//! rewrites only the window's list, rank and fused-entry cells, in
//! O(window). Both validate through [`PrefDelta::validate`], so they
//! reject the same deltas with the same errors.
//!
//! [`BipartiteInstance::apply_delta`]: crate::BipartiteInstance::apply_delta
//! [`CsrPrefs::apply_delta`]: crate::CsrPrefs::apply_delta

use crate::csr::CSR_MAX_N;
use crate::error::PrefsError;
use crate::invert::invert_permutation;

/// Which side of a bipartite instance a [`PrefDelta`] touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaSide {
    /// Side 0 — the proposers ("men").
    Proposer,
    /// Side 1 — the responders ("women").
    Responder,
}

/// A single-row edit to a bipartite preference instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefDelta {
    /// Replace `row`'s preference list with `prefs` (a permutation of
    /// `0..n`).
    SetRow {
        /// Side the row lives on.
        side: DeltaSide,
        /// Row (member) index.
        row: u32,
        /// The new best-to-worst ordering.
        prefs: Vec<u32>,
    },
    /// Swap the entries at positions `a` and `b` of `row`'s list.
    Swap {
        /// Side the row lives on.
        side: DeltaSide,
        /// Row (member) index.
        row: u32,
        /// First position.
        a: u32,
        /// Second position.
        b: u32,
    },
    /// Remove the entry at position `from` and re-insert it at position
    /// `to`; entries between the two positions shift by one.
    Splice {
        /// Side the row lives on.
        side: DeltaSide,
        /// Row (member) index.
        row: u32,
        /// Position the entry is taken from.
        from: u32,
        /// Position it is re-inserted at.
        to: u32,
    },
}

impl PrefDelta {
    /// The side whose row this delta rewrites.
    pub fn side(&self) -> DeltaSide {
        match self {
            PrefDelta::SetRow { side, .. }
            | PrefDelta::Swap { side, .. }
            | PrefDelta::Splice { side, .. } => *side,
        }
    }

    /// The row (member index) this delta rewrites — the one dirty row.
    pub fn row(&self) -> u32 {
        match self {
            PrefDelta::SetRow { row, .. }
            | PrefDelta::Swap { row, .. }
            | PrefDelta::Splice { row, .. } => *row,
        }
    }

    /// Check this delta against an instance with `n` members per side:
    /// the row and every position must be in range, and a
    /// [`PrefDelta::SetRow`] must carry a permutation of `0..n`. No
    /// instance holds more than [`CSR_MAX_N`] members per side, so a larger
    /// `n` is [`PrefsError::TooLarge`].
    ///
    /// Errors name the first violation in that order, as
    /// [`crate::BipartiteInstance::apply_delta`] and
    /// [`crate::CsrPrefs::apply_delta`] report them.
    pub fn validate(&self, n: usize) -> Result<(), PrefsError> {
        if n > CSR_MAX_N {
            return Err(PrefsError::TooLarge {
                what: "n exceeds 65536 members per side",
            });
        }
        let row = self.row() as usize;
        if row >= n {
            return Err(PrefsError::ShapeMismatch {
                what: "delta row index",
                expected: n,
                actual: row,
            });
        }
        let pos = |p: u32, what: &'static str| -> Result<(), PrefsError> {
            if (p as usize) < n {
                Ok(())
            } else {
                Err(PrefsError::ShapeMismatch {
                    what,
                    expected: n,
                    actual: p as usize,
                })
            }
        };
        match self {
            PrefDelta::SetRow { prefs, .. } => {
                if !invert_permutation(prefs, &mut vec![0u16; n]) {
                    let side = match self.side() {
                        DeltaSide::Proposer => 0,
                        DeltaSide::Responder => 1,
                    };
                    return Err(PrefsError::NotAPermutation {
                        owner: (side, row),
                        over: 1 - side,
                    });
                }
            }
            PrefDelta::Swap { a, b, .. } => {
                pos(*a, "delta swap position")?;
                pos(*b, "delta swap position")?;
            }
            PrefDelta::Splice { from, to, .. } => {
                pos(*from, "delta splice position")?;
                pos(*to, "delta splice position")?;
            }
        }
        Ok(())
    }

    /// The changed window `lo..=hi` of the row `old` under this delta (the
    /// row before and after agree outside it), or `None` when the delta
    /// leaves the row as it is: a `SetRow` of the same list, a swap with
    /// `a == b`, a splice with `from == to`. A valid row never differs
    /// from another in exactly one position, so a window has `lo < hi`.
    ///
    /// The delta must be valid for `old` ([`PrefDelta::validate`]).
    pub fn changed_window(&self, old: &[u32]) -> Option<(usize, usize)> {
        let (lo, hi) = match *self {
            PrefDelta::SetRow { ref prefs, .. } => {
                let differs = |(a, b): (&u32, &u32)| a != b;
                let lo = old.iter().zip(prefs).position(differs)?;
                let hi = old.iter().zip(prefs).rposition(differs)?;
                (lo, hi)
            }
            PrefDelta::Swap { a, b, .. } => (a.min(b) as usize, a.max(b) as usize),
            PrefDelta::Splice { from, to, .. } => (from.min(to) as usize, from.max(to) as usize),
        };
        (lo < hi).then_some((lo, hi))
    }

    /// Entry `i` of the row `old` after this delta, without building the
    /// new row. The delta must be valid for `old`.
    pub fn entry_after(&self, old: &[u32], i: usize) -> u32 {
        match *self {
            PrefDelta::SetRow { ref prefs, .. } => prefs[i],
            PrefDelta::Swap { a, b, .. } => {
                let (a, b) = (a as usize, b as usize);
                old[if i == a {
                    b
                } else if i == b {
                    a
                } else {
                    i
                }]
            }
            PrefDelta::Splice { from, to, .. } => {
                let (from, to) = (from as usize, to as usize);
                old[if i == to {
                    from
                } else if from <= i && i < to {
                    i + 1
                } else if to < i && i <= from {
                    i - 1
                } else {
                    i
                }]
            }
        }
    }

    /// Apply this delta in place to one preference-list row, or to a swap
    /// or splice's other row whose cells follow the list's order (the
    /// arena's fused entries). The delta must be valid for the row
    /// ([`PrefDelta::validate`]); the caller re-inverts the rank cells.
    pub(crate) fn apply_to_row(&self, list: &mut [u32]) {
        match *self {
            PrefDelta::SetRow { ref prefs, .. } => list.copy_from_slice(prefs),
            PrefDelta::Swap { a, b, .. } => list.swap(a as usize, b as usize),
            PrefDelta::Splice { from, to, .. } => {
                let (from, to) = (from as usize, to as usize);
                if from <= to {
                    list[from..=to].rotate_left(1);
                } else {
                    list[to..=from].rotate_right(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BipartiteInstance;

    fn inst4() -> BipartiteInstance {
        let rows = vec![
            vec![0, 1, 2, 3],
            vec![1, 2, 3, 0],
            vec![2, 3, 0, 1],
            vec![3, 0, 1, 2],
        ];
        BipartiteInstance::from_lists(&rows, &rows).unwrap()
    }

    #[test]
    fn set_row_replaces_list_and_ranks() {
        let mut inst = inst4();
        inst.apply_delta(&PrefDelta::SetRow {
            side: DeltaSide::Proposer,
            row: 1,
            prefs: vec![3, 1, 0, 2],
        })
        .unwrap();
        assert_eq!(inst.proposer_list(1), &[3, 1, 0, 2]);
        assert_eq!(inst.proposer_rank(1, 3), 0);
        assert_eq!(inst.proposer_rank(1, 2), 3);
        // Other rows untouched.
        assert_eq!(inst.proposer_list(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn swap_and_splice_rewrite_one_row() {
        let mut inst = inst4();
        inst.apply_delta(&PrefDelta::Swap {
            side: DeltaSide::Responder,
            row: 2,
            a: 0,
            b: 3,
        })
        .unwrap();
        assert_eq!(inst.responder_list(2), &[1, 3, 0, 2]);
        assert_eq!(inst.responder_rank(2, 1), 0);

        inst.apply_delta(&PrefDelta::Splice {
            side: DeltaSide::Responder,
            row: 2,
            from: 3,
            to: 0,
        })
        .unwrap();
        assert_eq!(inst.responder_list(2), &[2, 1, 3, 0]);
        assert_eq!(inst.responder_rank(2, 2), 0);

        inst.apply_delta(&PrefDelta::Splice {
            side: DeltaSide::Responder,
            row: 2,
            from: 0,
            to: 2,
        })
        .unwrap();
        assert_eq!(inst.responder_list(2), &[1, 3, 2, 0]);
    }

    #[test]
    fn bad_deltas_are_rejected() {
        let mut inst = inst4();
        assert!(inst
            .apply_delta(&PrefDelta::SetRow {
                side: DeltaSide::Proposer,
                row: 0,
                prefs: vec![0, 0, 1, 2],
            })
            .is_err());
        assert!(inst
            .apply_delta(&PrefDelta::Swap {
                side: DeltaSide::Proposer,
                row: 9,
                a: 0,
                b: 1,
            })
            .is_err());
        assert!(inst
            .apply_delta(&PrefDelta::Splice {
                side: DeltaSide::Proposer,
                row: 0,
                from: 4,
                to: 0,
            })
            .is_err());
        // Failed deltas leave the instance untouched.
        assert_eq!(inst, inst4());
    }
}
