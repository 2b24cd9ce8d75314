//! `KAryMatching::try_from_tuples` names why a list of tuples is not a
//! k-ary matching, where `from_tuples` panics.

use kmatch_core::{KAryMatching, MatchingError};

#[test]
fn hostile_tuples_are_typed_errors() {
    let two = |tuples: &[Vec<u32>]| KAryMatching::try_from_tuples(3, 2, tuples);
    let cases = [
        (
            KAryMatching::try_from_tuples(3, 4, &[vec![0, 0, 0], vec![1, 1, 1]]),
            MatchingError::FamilyCount {
                expected: 4,
                actual: 2,
            },
        ),
        (
            two(&[vec![0, 0], vec![1, 1, 1]]),
            MatchingError::FamilyWidth {
                family: 0,
                expected: 3,
                actual: 2,
            },
        ),
        (
            two(&[vec![0, 0, 0], vec![1, 7, 1]]),
            MatchingError::OutOfRange {
                gender: 1,
                index: 7,
                n: 2,
            },
        ),
        (
            two(&[vec![0, 0, 0], vec![0, 1, 1]]),
            MatchingError::Duplicate {
                gender: 0,
                index: 0,
            },
        ),
    ];
    for (got, want) in cases {
        assert_eq!(got, Err(want));
    }
    let ok = two(&[vec![0, 0, 0], vec![1, 1, 1]]).expect("a partition");
    assert_eq!(
        ok,
        KAryMatching::from_tuples(3, 2, &[vec![0, 0, 0], vec![1, 1, 1]])
    );
}
