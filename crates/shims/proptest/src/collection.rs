//! Collection strategies (`prop::collection::vec`).

use crate::strategy::{Strategy, TestRng};
use rand::Rng;

/// Strategy for `Vec<S::Value>` with a size drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
    assert!(!size.is_empty(), "empty size range");
    VecStrategy { element, size }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: std::ops::Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let n = rng.random_range(self.size.clone());
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_elements_in_range() {
        let mut rng = crate::rng_for("collection-tests");
        let s = vec(0..10u32, 2..6);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|e| *e < 10));
        }
    }

    #[test]
    fn nested_vecs() {
        let mut rng = crate::rng_for("collection-nested");
        let s = vec(vec(0..3u32, 1..3), 1..4);
        let v = s.generate(&mut rng);
        assert!(!v.is_empty());
    }
}
