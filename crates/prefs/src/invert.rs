//! The one validating inverter behind every materialized rank table.
//!
//! [`crate::BipartiteInstance`], [`crate::KPartiteInstance`],
//! [`crate::CsrPrefs`] and [`crate::PrefDelta::validate`] all turn a
//! preference list into its half-width rank row through
//! [`invert_permutation`], which checks the list in the same pass.

use crate::csr::CSR_MAX_N;

/// A rank cell no list entry has claimed yet.
const FRESH: u16 = u16::MAX;

/// Check that `list` is a permutation of `0..ranks.len()` and write its
/// inverse into `ranks` (`ranks[list[r]] = r`) in the same pass.
///
/// `ranks` is filled with a sentinel first and doubles as the seen-set, so
/// one pass rejects a wrong length, an out-of-range entry and a duplicate.
/// At `n = CSR_MAX_N` the last rank equals the sentinel, but only the last
/// entry writes it and no slot is read after that write: every slot an
/// earlier entry probes holds the sentinel or a rank below `n - 1`.
///
/// Returns `false` when `list` is not a permutation; `ranks` is then left
/// partly written.
pub(crate) fn invert_permutation(list: &[u32], ranks: &mut [u16]) -> bool {
    debug_assert!(ranks.len() <= CSR_MAX_N, "ranks must fit in u16");
    if list.len() != ranks.len() {
        return false;
    }
    ranks.fill(FRESH);
    for (r, &member) in list.iter().enumerate() {
        match ranks.get_mut(member as usize) {
            Some(slot) if *slot == FRESH => *slot = r as u16,
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverts_a_permutation() {
        let mut ranks = [0u16; 4];
        assert!(invert_permutation(&[2, 0, 3, 1], &mut ranks));
        assert_eq!(ranks, [1, 3, 0, 2]);
    }

    #[test]
    fn rejects_length_range_and_duplicates() {
        let mut ranks = [0u16; 3];
        assert!(!invert_permutation(&[0, 1], &mut ranks));
        assert!(!invert_permutation(&[0, 1, 2, 0], &mut ranks));
        assert!(!invert_permutation(&[0, 3, 1], &mut ranks));
        assert!(!invert_permutation(&[1, 0, 1], &mut ranks));
        // A failed row is refilled on the next call.
        assert!(invert_permutation(&[1, 2, 0], &mut ranks));
        assert_eq!(ranks, [2, 0, 1]);
    }

    #[test]
    fn full_width_row_uses_every_rank() {
        // At n = 65 536 the last rank is the sentinel's value.
        let n = CSR_MAX_N;
        let list: Vec<u32> = (0..n as u32).rev().collect();
        let mut ranks = vec![0u16; n];
        assert!(invert_permutation(&list, &mut ranks));
        assert_eq!(ranks[0], u16::MAX);
        assert_eq!(ranks[n - 1], 0);
        assert!(ranks
            .iter()
            .enumerate()
            .all(|(m, &r)| list[r as usize] == m as u32));

        // A duplicate in the last position probes a slot an earlier entry
        // filled, so it is caught even though the sentinel is a real rank.
        let mut dup = list.clone();
        dup[n - 1] = dup[n - 2];
        assert!(!invert_permutation(&dup, &mut ranks));
        let mut dup = list;
        dup[n - 1] = dup[0];
        assert!(!invert_permutation(&dup, &mut ranks));
    }
}
