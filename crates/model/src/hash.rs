//! A fast, non-cryptographic hasher for the interning hot paths.
//!
//! The dictionary and the ingest pipeline hash long textual keys (canonical
//! N-Triples term forms, typically 40–80 bytes) on every term occurrence.
//! `std`'s default SipHash is DoS-resistant but processes those keys several
//! times slower than necessary; this hasher consumes eight bytes per step,
//! each absorbed with a folded multiply: the 128-bit product of `hash ^
//! word` and a constant, its two halves xor-ed. A plain 64-bit multiply
//! only carries a difference upwards, so a digit in a word's top byte and
//! a differing tail byte can cancel out in all 64 bits (LUBM's
//! `…/mailto/prof18240>` and `…/mailto/prof18394>` do); the folded
//! product carries every bit both ways. The tables it guards are bounded
//! by dataset vocabulary size and never keyed by untrusted-network input
//! in a long-lived service position, so hash-flooding resistance is not
//! required.

use std::hash::{BuildHasherDefault, Hasher};

/// The `BuildHasher` to plug into `HashMap::with_hasher` / type aliases.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The streaming hasher (8 bytes per folded-multiply step).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word) * u128::from(SEED);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let (word, rest) = bytes.split_at(8);
            self.add(u64::from_le_bytes(word.try_into().expect("eight bytes")));
            bytes = rest;
        }
        // The 0–7 bytes left, zero-padded, with their count in the top byte.
        let mut tail = (bytes.len() as u64) << 56;
        for (at, &byte) in bytes.iter().enumerate() {
            tail |= u64::from(byte) << (8 * at);
        }
        self.add(tail);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_inputs_hash_equal() {
        assert_eq!(hash_of("http://ex/a"), hash_of("http://ex/a"));
        assert_eq!(hash_of(42u64), hash_of(42u64));
    }

    #[test]
    fn different_inputs_disperse() {
        let hashes: std::collections::HashSet<u64> = (0..10_000)
            .map(|i| hash_of(format!("<http://example.org/entity/{i}>")))
            .collect();
        assert_eq!(hashes.len(), 10_000, "no collisions on a dense key set");
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut map: FxHashMap<String, usize> = FxHashMap::default();
        for i in 0..1_000 {
            map.insert(format!("key-{i}"), i);
        }
        assert_eq!(map.len(), 1_000);
        assert_eq!(map.get("key-512"), Some(&512));
    }

    /// The hash of a dictionary key: its bytes, as the arena hashes them.
    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut hasher = FxHasher::default();
        hasher.write(bytes);
        hasher.finish()
    }

    #[test]
    fn lubm_shaped_keys_hash_apart_in_full_64_bits() {
        // A multiply only carries a difference upwards: a digit in a
        // word's top byte and a differing tail byte used to cancel out.
        let mailto = |p| format!("<http://inferray.example.org/lubm/mailto/prof{p}>");
        assert_ne!(
            hash_bytes(mailto(18240).as_bytes()),
            hash_bytes(mailto(18394).as_bytes())
        );
        let hashes: std::collections::HashSet<u64> = (0..200_000)
            .map(|p| hash_bytes(mailto(p).as_bytes()))
            .collect();
        assert_eq!(hashes.len(), 200_000);
    }

    #[test]
    fn tail_bytes_affect_the_hash() {
        // 8-byte body equal, tails differ by one byte.
        assert_ne!(hash_of("12345678a"), hash_of("12345678b"));
        assert_ne!(hash_of("1234a"), hash_of("1234b"));
        assert_ne!(hash_of(""), hash_of("a"));
    }
}
