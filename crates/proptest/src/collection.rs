//! Collection strategies: `vec` and `hash_set`.

use std::collections::HashSet;
use std::hash::Hash;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A size bound for generated collections: `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange { lo: r.start, hi: r.end }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
        SizeRange { lo: *r.start(), hi: *r.end() + 1 }
    }
}

impl SizeRange {
    fn draw(self, rng: &mut TestRng) -> usize {
        self.lo + rng.below((self.hi - self.lo) as u64) as usize
    }
}

/// Strategy for `Vec<S::Value>` with a size in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.draw(rng);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// Strategy for `HashSet<S::Value>` aiming for a size in `size`
/// (duplicates permitting — draws are capped, like real proptest when
/// the element domain is small).
pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
where
    S: Strategy,
    S::Value: Eq + Hash,
{
    HashSetStrategy { element, size: size.into() }
}

/// See [`hash_set`].
#[derive(Debug, Clone)]
pub struct HashSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for HashSetStrategy<S>
where
    S: Strategy,
    S::Value: Eq + Hash,
{
    type Value = HashSet<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> HashSet<S::Value> {
        let target = self.size.draw(rng);
        let mut out = HashSet::with_capacity(target);
        let mut tries = 0;
        while out.len() < target && tries < target * 20 + 20 {
            out.insert(self.element.sample(rng));
            tries += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sizes_and_elements_in_range() {
        let mut rng = TestRng::for_test("vec");
        for _ in 0..50 {
            let v = vec(0u8..5, 0..12).sample(&mut rng);
            assert!(v.len() < 12);
            assert!(v.iter().all(|&x| x < 5));
        }
        let exact = vec(1u64..20, 6).sample(&mut rng);
        assert_eq!(exact.len(), 6);
    }

    #[test]
    fn hash_set_reaches_target() {
        let mut rng = TestRng::for_test("set");
        for _ in 0..50 {
            let s = hash_set(0u32..33, 1..9).sample(&mut rng);
            assert!(!s.is_empty() && s.len() < 9);
            assert!(s.iter().all(|&x| x < 33));
        }
    }
}
