//! Collection strategies: `vec` and `btree_set`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::{BTreeSet, HashSet};
use std::hash::Hash;
use std::ops::Range;

/// Number-of-elements specification accepted by the collection strategies.
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange {
            lo: r.start,
            hi: r.end.max(r.start + 1),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

/// Strategy for `Vec<S::Value>` with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy for `BTreeSet<S::Value>`. The size bound applies to the number
/// of *insertions*; collisions can make the set smaller (the real proptest
/// retries, which is an irrelevant refinement for the oracle-style tests in
/// this workspace).
pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy for `HashSet<S::Value>` (same size semantics as
/// [`btree_set`]).
pub fn hash_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
where
    S::Value: Hash + Eq,
{
    HashSetStrategy {
        element,
        size: size.into(),
    }
}

/// See [`hash_set`].
#[derive(Clone)]
pub struct HashSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for HashSetStrategy<S>
where
    S::Value: Hash + Eq,
{
    type Value = HashSet<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> HashSet<S::Value> {
        let insertions = rng.usize_in(self.size.lo, self.size.hi);
        (0..insertions).map(|_| self.element.sample(rng)).collect()
    }
}

/// See [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.usize_in(self.size.lo, self.size.hi);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// See [`btree_set`].
#[derive(Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let insertions = rng.usize_in(self.size.lo, self.size.hi);
        (0..insertions).map(|_| self.element.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_length_range() {
        let mut rng = TestRng::deterministic("collection", 0);
        for _ in 0..200 {
            let v = vec(0u8..10, 2..5).sample(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn btree_set_bounded() {
        let mut rng = TestRng::deterministic("collection", 1);
        for _ in 0..200 {
            let s = btree_set(0u32..500, 0..100).sample(&mut rng);
            assert!(s.len() < 100);
        }
    }
}
