//! The (minimal) test runner: configuration and the deterministic RNG.

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// `PROPTEST_CASES` overrides the default case count, as in the real
    /// crate (the nightly CI job raises it for the fuzz suite); an explicit
    /// `with_cases` is not affected.
    fn default() -> Self {
        // The real proptest defaults to 256; 128 keeps the (single-core CI)
        // suite fast while still exercising each property broadly.
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|value| value.parse().ok())
            .unwrap_or(128);
        ProptestConfig { cases }
    }
}

/// Deterministic generator: xoshiro256++ seeded from (test name, case index)
/// so every failure reproduces without recording seeds.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: [u64; 4],
}

impl TestRng {
    /// RNG for one case of one named test.
    pub fn deterministic(test_name: &str, case: u32) -> Self {
        // FNV-1a over the name, mixed with the case index via splitmix64.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in test_name.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut sm = hash ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Debiased multiply-shift (Lemire).
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let wide = (x as u128) * (bound as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform usize in `[lo, hi)`; `hi` must exceed `lo`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty size range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_name_and_case() {
        let mut a = TestRng::deterministic("x::y", 3);
        let mut b = TestRng::deterministic("x::y", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::deterministic("x::y", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut rng = TestRng::deterministic("bounds", 0);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
        }
    }
}
