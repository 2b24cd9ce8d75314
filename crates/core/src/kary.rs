//! k-ary matchings: `n` families, one member per gender each.

use kmatch_prefs::{GenderId, Member};

/// A perfect k-ary matching of a balanced k-partite instance: `n` families
/// (the paper's k-tuples), each containing exactly one member of every
/// gender, every member in exactly one family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KAryMatching {
    k: usize,
    n: usize,
    /// `families[f * k + g]` = index of the gender-`g` member of family `f`.
    families: Vec<u32>,
    /// `family_of[g * n + i]` = family containing member `(g, i)`.
    family_of: Vec<u32>,
}

/// Why a list of tuples is not a k-ary matching
/// ([`KAryMatching::try_from_tuples`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchingError {
    /// The list does not hold exactly `n` families.
    FamilyCount {
        /// `n`, the families needed.
        expected: usize,
        /// The families given.
        actual: usize,
    },
    /// A family does not hold exactly one member per gender.
    FamilyWidth {
        /// The family's position in the list.
        family: usize,
        /// `k`, the members needed.
        expected: usize,
        /// The members given.
        actual: usize,
    },
    /// A member index is not below `n`.
    OutOfRange {
        /// The member's gender.
        gender: usize,
        /// The out-of-range index.
        index: u32,
        /// Members per gender.
        n: usize,
    },
    /// A member appears in two families.
    Duplicate {
        /// The member's gender.
        gender: usize,
        /// The member's index.
        index: u32,
    },
}

impl core::fmt::Display for MatchingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            MatchingError::FamilyCount { expected, actual } => {
                write!(f, "need exactly n = {expected} families, got {actual}")
            }
            MatchingError::FamilyWidth {
                family,
                expected,
                actual,
            } => write!(
                f,
                "family {family} must have one member per gender: {expected}, got {actual}"
            ),
            MatchingError::OutOfRange { gender, index, n } => write!(
                f,
                "member index out of range: ({gender},{index}) with n = {n}"
            ),
            MatchingError::Duplicate { gender, index } => {
                write!(f, "member ({gender},{index}) in two families")
            }
        }
    }
}

impl std::error::Error for MatchingError {}

impl KAryMatching {
    /// Build from per-family member indices: `tuples[f][g]` is the
    /// gender-`g` member of family `f`.
    ///
    /// # Panics
    /// If the tuples are not a partition with one member per gender each
    /// (see [`KAryMatching::try_from_tuples`]).
    pub fn from_tuples(k: usize, n: usize, tuples: &[Vec<u32>]) -> Self {
        Self::try_from_tuples(k, n, tuples).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from per-family member indices, as
    /// [`KAryMatching::from_tuples`], or say why the tuples are not a
    /// partition with one member per gender each.
    pub fn try_from_tuples(k: usize, n: usize, tuples: &[Vec<u32>]) -> Result<Self, MatchingError> {
        if tuples.len() != n {
            return Err(MatchingError::FamilyCount {
                expected: n,
                actual: tuples.len(),
            });
        }
        let mut families = Vec::with_capacity(n * k);
        let mut family_of = vec![u32::MAX; k * n];
        for (f, tuple) in tuples.iter().enumerate() {
            if tuple.len() != k {
                return Err(MatchingError::FamilyWidth {
                    family: f,
                    expected: k,
                    actual: tuple.len(),
                });
            }
            for (g, &i) in tuple.iter().enumerate() {
                if i as usize >= n {
                    return Err(MatchingError::OutOfRange {
                        gender: g,
                        index: i,
                        n,
                    });
                }
                let slot = &mut family_of[g * n + i as usize];
                if *slot != u32::MAX {
                    return Err(MatchingError::Duplicate {
                        gender: g,
                        index: i,
                    });
                }
                *slot = f as u32;
                families.push(i);
            }
        }
        Ok(KAryMatching {
            k,
            n,
            families,
            family_of,
        })
    }

    /// Build from equivalence classes over global member ids (`g·n + i`),
    /// as produced by the binding algorithms. Each class must hold exactly
    /// one member of every gender.
    ///
    /// # Panics
    /// If some class is not a one-per-gender transversal.
    pub fn from_classes(k: usize, n: usize, classes: &[Vec<u32>]) -> Self {
        assert_eq!(
            classes.len(),
            n,
            "expected n equivalence classes, got {}",
            classes.len()
        );
        let tuples: Vec<Vec<u32>> = classes
            .iter()
            .map(|class| {
                assert_eq!(class.len(), k, "class must have k members");
                let mut tuple = vec![u32::MAX; k];
                for &global in class {
                    let m = Member::from_global(global, n as u32);
                    let slot = &mut tuple[m.gender.idx()];
                    assert_eq!(
                        *slot,
                        u32::MAX,
                        "two members of gender {} in one class",
                        m.gender
                    );
                    *slot = m.index;
                }
                tuple
            })
            .collect();
        KAryMatching::from_tuples(k, n, &tuples)
    }

    /// Number of genders.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of families (= members per gender).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The members of family `f`, indexed by gender.
    #[inline]
    pub fn family(&self, f: u32) -> &[u32] {
        let base = f as usize * self.k;
        &self.families[base..base + self.k]
    }

    /// The gender-`g` member of family `f`.
    #[inline]
    pub fn member_of(&self, f: u32, g: GenderId) -> Member {
        Member {
            gender: g,
            index: self.family(f)[g.idx()],
        }
    }

    /// The family containing member `m`.
    #[inline]
    pub fn family_of(&self, m: Member) -> u32 {
        self.family_of[m.gender.idx() * self.n + m.index as usize]
    }

    /// The gender-`h` member of `m`'s family — "the corresponding one of
    /// the current family" in the blocking-family definition.
    #[inline]
    pub fn current_partner(&self, m: Member, h: GenderId) -> Member {
        self.member_of(self.family_of(m), h)
    }

    /// Iterate over family ids.
    pub fn family_ids(&self) -> impl Iterator<Item = u32> {
        0..self.n as u32
    }

    /// All families as tuples of member indices (gender-indexed), for
    /// display and serde.
    pub fn to_tuples(&self) -> Vec<Vec<u32>> {
        (0..self.n as u32)
            .map(|f| self.family(f).to_vec())
            .collect()
    }
}

impl core::fmt::Display for KAryMatching {
    /// Renders each family as `f: (G0[i], G1[j], …)`, one per line.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for fam in 0..self.n as u32 {
            let members: Vec<String> = self
                .family(fam)
                .iter()
                .enumerate()
                .map(|(g, &i)| format!("G{g}[{i}]"))
                .collect();
            writeln!(f, "{fam}: ({})", members.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_family_matching() -> KAryMatching {
        // k = 3, n = 2: families (m,w,u), (m',w',u').
        KAryMatching::from_tuples(3, 2, &[vec![0, 0, 0], vec![1, 1, 1]])
    }

    #[test]
    fn accessors() {
        let m = two_family_matching();
        assert_eq!(m.family(0), &[0, 0, 0]);
        assert_eq!(m.family_of(Member::new(1usize, 1)), 1);
        assert_eq!(
            m.current_partner(Member::new(0usize, 0), GenderId(2)),
            Member::new(2usize, 0)
        );
        assert_eq!(m.to_tuples(), vec![vec![0, 0, 0], vec![1, 1, 1]]);
    }

    #[test]
    fn from_classes_reorders_by_gender() {
        // Classes over global ids with n = 2: {0, 2, 4} = (G0,0),(G1,0),(G2,0).
        let m = KAryMatching::from_classes(3, 2, &[vec![0, 2, 4], vec![1, 3, 5]]);
        assert_eq!(m.family(0), &[0, 0, 0]);
        assert_eq!(m.family(1), &[1, 1, 1]);
        // Mixed class: {0, 3, 4} = (G0,0),(G1,1),(G2,0).
        let m = KAryMatching::from_classes(3, 2, &[vec![0, 3, 4], vec![1, 2, 5]]);
        assert_eq!(m.family(0), &[0, 1, 0]);
        assert_eq!(m.family(1), &[1, 0, 1]);
    }

    #[test]
    fn display_lists_families() {
        let m = two_family_matching();
        let s = m.to_string();
        assert!(s.contains("0: (G0[0], G1[0], G2[0])"));
        assert!(s.contains("1: (G0[1], G1[1], G2[1])"));
    }

    #[test]
    #[should_panic(expected = "two members of gender")]
    fn class_with_gender_collision_rejected() {
        // {0, 1, 4}: two members of gender 0.
        let _ = KAryMatching::from_classes(3, 2, &[vec![0, 1, 4], vec![2, 3, 5]]);
    }

    #[test]
    #[should_panic(expected = "in two families")]
    fn duplicate_member_rejected() {
        let _ = KAryMatching::from_tuples(3, 2, &[vec![0, 0, 0], vec![0, 1, 1]]);
    }

    #[test]
    #[should_panic(expected = "class must have k members")]
    fn short_class_rejected() {
        let _ = KAryMatching::from_classes(3, 2, &[vec![0, 2], vec![1, 3, 5]]);
    }
}
