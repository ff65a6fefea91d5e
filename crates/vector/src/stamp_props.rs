//! The packed stamp's Definition 6 agrees with `TsVec::compare` on the
//! vector it stands for: every prefix-shaped reader mask at k = 1, 2, 3
//! (inline) and k = 5 (spilled), the floor `⟨0, *, …⟩` included.

use proptest::prelude::*;

use crate::stamp::{Stamp, INLINE_STAMP_K};
use crate::tsvec::TsVec;

/// Inline dimensions, and one past the inline capacity.
const KS: [usize; 4] = [1, 2, 3, INLINE_STAMP_K + 2];

/// A vector of dimension `k` with its first `defined` elements from
/// `values`, the rest undefined: a prefix-shaped mask.
fn prefix(k: usize, defined: usize, values: &[i64]) -> TsVec {
    let mut v = TsVec::undefined(k);
    values.iter().take(defined).enumerate().for_each(|(m, &x)| v.define(m, x));
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A narrow value range makes equal runs, and so every deciding
    /// position, common.
    #[test]
    fn packed_compare_matches_the_materialised_vector(
        stamp_values in proptest::collection::vec(-2i64..3, 5),
        reader_values in proptest::collection::vec(-2i64..3, 5),
    ) {
        for k in KS {
            let saturated = prefix(k, k, &stamp_values);
            let packed = Stamp::from(saturated.clone());
            prop_assert_eq!(&packed.to_vec(), &saturated);
            prop_assert_eq!(&packed.clone(), &packed);
            let floor = Stamp::floor(k);
            prop_assert_eq!(&floor.to_vec(), &TsVec::origin(k));
            for defined in 0..=k {
                let reader = prefix(k, defined, &reader_values);
                prop_assert_eq!(
                    packed.compare_reader(&reader),
                    saturated.compare(&reader),
                    "k = {}, reader {}", k, reader
                );
                prop_assert_eq!(
                    floor.compare_reader(&reader),
                    TsVec::origin(k).compare(&reader),
                    "floor at k = {}, reader {}", k, reader
                );
            }
        }
    }
}

#[test]
fn a_stamp_packs_k_values_and_the_floor_is_not_saturated() {
    let v = TsVec::from_elems(&[Some(4), Some(-1), Some(9)]);
    let stamp = Stamp::from(v);
    assert_eq!((stamp.k(), stamp.is_floor(), stamp.get(1)), (3, false, Some(-1)));
    let floor = Stamp::floor(3);
    assert_eq!((floor.is_floor(), floor.get(0), floor.get(2)), (true, Some(0), None));
    let wide = Stamp::from(TsVec::from_elems(&[Some(1); 7]));
    assert_eq!(wide.clone(), wide);
    assert_eq!(format!("{:?}", floor), "Stamp(<0,*,*>)");
}

#[test]
#[should_panic(expected = "saturated")]
fn an_unsaturated_vector_is_not_a_stamp() {
    let _ = Stamp::from(TsVec::origin(2));
}
