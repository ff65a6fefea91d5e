//! The Section VI-A reading of a timestamp vector as a timestamp interval.
//!
//! The paper compares MT(k) with Bayer et al.'s dynamic timestamp intervals:
//! a vector with undefined suffix corresponds to the interval of positional
//! values its completions could take. With per-element digit range
//! `[dmin, dmax]` and base `B = dmax − dmin + 1`... the paper uses the
//! simpler positional reading with base 10 and digits in `[-4, 5]`:
//! `⟨3, 2, *, *⟩` (k = 4) covers `[3200 − 44, 3255] = [3156, 3255]`, i.e.
//! the defined prefix fixes the high-order digits and each undefined element
//! can still swing the value by `dmin`…`dmax` at its positional weight.
//! Defining a new element shrinks the interval *from both ends* — the key
//! contrast with one-ended interval shrinking in \[1\].

use crate::tsvec::TsVec;

/// Interval `[lo, hi]` covered by the vector's possible completions under
/// the positional reading with digit range `[dmin, dmax]` and base
/// `dmax − dmin + 1`... as in the paper's example, the *base* is supplied
/// separately (the paper uses base 10 with digits `−4..=5`).
///
/// Defined elements contribute `elem * base^(k−1−m)`; an undefined element
/// at position `m` contributes `dmin * base^(k−1−m)` to `lo` and
/// `dmax * base^(k−1−m)` to `hi`.
///
/// Returns `None` on arithmetic overflow (vectors beyond ~38 decimal digits
/// of positional weight), which the experiments never reach.
pub fn interval_view(v: &TsVec, base: i128, dmin: i128, dmax: i128) -> Option<(i128, i128)> {
    assert!(base >= 2, "positional base must be at least 2");
    assert!(dmin <= dmax, "empty digit range");
    let mut lo: i128 = 0;
    let mut hi: i128 = 0;
    let mut weight: i128 = 1;
    // Accumulate from the least significant (rightmost) element.
    for m in (0..v.k()).rev() {
        match v.get(m) {
            Some(e) => {
                let contrib = weight.checked_mul(e as i128)?;
                lo = lo.checked_add(contrib)?;
                hi = hi.checked_add(contrib)?;
            }
            None => {
                lo = lo.checked_add(weight.checked_mul(dmin)?)?;
                hi = hi.checked_add(weight.checked_mul(dmax)?)?;
            }
        }
        weight = weight.checked_mul(base)?;
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_3_2_star_star() {
        // <3,2,*,*> with digits -4..=5, base 10 → [3156, 3255].
        let v = TsVec::from_elems(&[Some(3), Some(2), None, None]);
        assert_eq!(interval_view(&v, 10, -4, 5), Some((3156, 3255)));
    }

    #[test]
    fn paper_example_after_shrink() {
        // <3,2,1,*> → [3210 − 4, 3215] = [3206, 3215]: shrinks from both
        // ends relative to [3156, 3255].
        let v = TsVec::from_elems(&[Some(3), Some(2), Some(1), None]);
        assert_eq!(interval_view(&v, 10, -4, 5), Some((3206, 3215)));
    }

    #[test]
    fn defining_an_element_shrinks_from_both_ends() {
        let before = TsVec::from_elems(&[Some(3), Some(2), None, None]);
        let after = TsVec::from_elems(&[Some(3), Some(2), Some(1), None]);
        let (lo0, hi0) = interval_view(&before, 10, -4, 5).unwrap();
        let (lo1, hi1) = interval_view(&after, 10, -4, 5).unwrap();
        assert!(lo1 > lo0, "left end moves right");
        assert!(hi1 < hi0, "right end moves left");
    }

    #[test]
    fn fully_defined_vector_is_a_point() {
        let v = TsVec::from_elems(&[Some(1), Some(2), Some(3)]);
        let (lo, hi) = interval_view(&v, 10, -4, 5).unwrap();
        assert_eq!(lo, hi);
        assert_eq!(lo, 123);
    }

    #[test]
    fn overflow_is_reported_not_panicked() {
        let v = TsVec::from_elems(&[Some(i64::MAX); 8]);
        assert_eq!(interval_view(&v, i128::from(i64::MAX), -1, 1), None);
    }
}
