//! Collection strategies (`proptest::collection` subset).

use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;

use crate::strategy::Strategy;

/// Length specification for [`vec()`]: a fixed `usize` or a `Range<usize>`,
/// mirroring real proptest's `SizeRange` conversions.
pub trait IntoSizeRange {
    /// Draws a concrete length.
    fn sample_len(&self, rng: &mut StdRng) -> usize;
}

impl IntoSizeRange for usize {
    fn sample_len(&self, _rng: &mut StdRng) -> usize {
        *self
    }
}

impl IntoSizeRange for Range<usize> {
    fn sample_len(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// Strategy for `Vec`s of fixed or ranged length; see [`vec()`].
pub struct VecStrategy<S, L = usize> {
    element: S,
    len: L,
}

/// `collection::vec(element, len)` — a `Vec` of `len` samples, where
/// `len` is a fixed `usize` or a `Range<usize>` drawn per sample.
pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
    VecStrategy { element, len }
}

impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = self.len.sample_len(rng);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_length_vec() {
        let s = vec(0i64..5, 7);
        let mut rng = StdRng::seed_from_u64(3);
        let v = s.sample(&mut rng);
        assert_eq!(v.len(), 7);
        assert!(v.iter().all(|x| (0..5).contains(x)));
    }
}
