//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding every snapshot section and WAL record.
//!
//! Hand-rolled because the workspace builds offline. The kernel is the
//! *slicing-by-8* form (Kounavis & Berry): eight 256-entry tables computed
//! at compile time, eight input bytes folded per iteration. One such chain
//! waits on its own table lookups, so a piece of at least 16 KiB runs
//! four of them at once: each 16 KiB round of the piece is four consecutive
//! 4 KiB streams, checksummed side by side, and the four registers are
//! folded back into one by shifting each through the bytes of the streams
//! after it — a multiplication by `x^(8·4096)` in GF(2) modulo the
//! polynomial. The result is bit for bit the
//! byte-at-a-time CRC. A cold start checksums every byte of its image, and
//! at LUBM scale that is tens of megabytes, so the kernel's speed is
//! recovery time.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing tables: `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k][b]` advances the CRC of byte `b` through `k` additional zero
/// bytes, so eight table lookups absorb eight input bytes at once.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Bytes of each of the four streams of a round.
const STREAM: usize = 4 << 10;

/// Bytes of one round: four streams. A piece shorter than this, and the
/// tail of a longer one, run on one chain.
const ROUND: usize = 4 * STREAM;

/// `x^(8·STREAM)` modulo the polynomial: what folding in one stream's
/// worth of zero bytes multiplies a register by.
const STREAM_SHIFT: u32 = x_pow_8n(STREAM);

/// `a · b` modulo the polynomial, both in the reflected order (bit 31 is
/// `x⁰`).
const fn multiply(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `x^(8n)` modulo the polynomial, by squaring.
const fn x_pow_8n(n: usize) -> u32 {
    // x⁸, then x^(8·2^k) for each bit k of n.
    let mut square = 1u32 << (31 - 8);
    let mut power = 1u32 << 31;
    let mut n = n;
    while n != 0 {
        if n & 1 != 0 {
            power = multiply(power, square);
        }
        square = multiply(square, square);
        n >>= 1;
    }
    power
}

/// The register `crc` after [`STREAM`] zero bytes: a register moved past
/// the stream behind it.
fn shift(crc: u32) -> u32 {
    multiply(STREAM_SHIFT, crc)
}

/// Folds eight bytes, `word` little-endian, into the register `crc`.
#[inline(always)]
fn fold8(crc: u32, word: [u8; 8]) -> u32 {
    let word = u64::from_le_bytes(word);
    let lo = word as u32 ^ crc;
    let hi = (word >> 32) as u32;
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// The register `crc` after `data`, on one chain.
fn one_stream(mut crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        crc = fold8(crc, word.try_into().unwrap_or([0; 8]));
    }
    for &byte in words.remainder() {
        crc = TABLES[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The register `crc` after one [`ROUND`]: its four streams on four
/// chains, the first from `crc` and the others from zero, each folded
/// into the next by [`shift`].
fn four_streams(crc: u32, round: &[u8]) -> u32 {
    let (a, rest) = round.split_at(STREAM);
    let (b, rest) = rest.split_at(STREAM);
    let (c, d) = rest.split_at(STREAM);
    let mut registers = [crc, 0, 0, 0];
    let words = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8).zip(d.chunks_exact(8)));
    for ((a, b), (c, d)) in words {
        let word = |w: &[u8]| w.try_into().unwrap_or([0; 8]);
        registers = [
            fold8(registers[0], word(a)),
            fold8(registers[1], word(b)),
            fold8(registers[2], word(c)),
            fold8(registers[3], word(d)),
        ];
    }
    let [a, b, c, d] = registers;
    shift(shift(shift(a) ^ b) ^ c) ^ d
}

/// A running CRC-32 (initial value `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF` —
/// the same parameters as zlib's `crc32`): [`Crc32::update`] folds in the
/// bytes of a payload as they pass, in pieces of any size, and
/// [`Crc32::finish`] gives the checksum of all of them. A snapshot section
/// is checksummed this way block by block, on write and on open, so no
/// section has to be in memory whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes, ready for [`Crc32::update`].
    pub const fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `data` in behind every byte folded in so far: each whole
    /// 16 KiB round on four chains, the rest on one.
    pub fn update(&mut self, data: &[u8]) {
        let mut rounds = data.chunks_exact(ROUND);
        let crc = (&mut rounds).fold(self.0, four_streams);
        self.0 = one_stream(crc, rounds.remainder());
    }

    /// The CRC-32 of everything folded in.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// CRC-32 of `data`: [`Crc32`] over one piece.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic one-byte-at-a-time form, kept as the reference the
    /// sliced kernel must agree with.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            let index = ((crc ^ byte as u32) & 0xFF) as usize;
            crc = TABLES[0][index] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn matches_the_published_check_value() {
        // The canonical CRC-32 check: crc32(b"123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_kernel_agrees_with_the_reference_at_every_length() {
        // Lengths 0..=64 cover every remainder class around the 8-byte
        // stride; the pseudo-random fill exercises all table lanes.
        let data: Vec<u8> = (0u32..64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn a_running_crc_over_any_split_equals_the_whole() {
        let data: Vec<u8> = (0u32..100)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for first in 0..=data.len() {
            for second in first..=data.len().min(first + 17) {
                let mut crc = Crc32::new();
                crc.update(&data[..first]);
                crc.update(&data[first..second]);
                crc.update(&data[second..]);
                assert_eq!(crc.finish(), crc32(&data), "split at {first}, {second}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"the quick brown fox".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                data[i] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at byte {i} bit {bit}");
                data[i] ^= 1 << bit;
            }
        }
    }

    /// `len` pseudo-random bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn the_four_stream_kernel_agrees_with_the_reference_around_its_threshold() {
        let data = noise(3 * ROUND + 64);
        let mut lens: Vec<usize> = (ROUND - 17..=ROUND + 17).collect();
        lens.extend(2 * ROUND - 9..=2 * ROUND + 9);
        lens.extend([STREAM - 1, STREAM, STREAM + 1, 3 * ROUND, data.len()]);
        for len in lens {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn a_whole_image_block_and_lengths_past_it_agree_with_the_reference() {
        use crate::snapshot::IMAGE_BLOCK;
        let data = noise(IMAGE_BLOCK + ROUND + 8);
        for len in [
            IMAGE_BLOCK - 1,
            IMAGE_BLOCK,
            IMAGE_BLOCK + 1,
            IMAGE_BLOCK + 7,
            IMAGE_BLOCK + STREAM + 3,
            data.len(),
        ] {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn a_running_crc_split_anywhere_in_a_round_equals_the_reference() {
        let data = noise(4 * ROUND + 100);
        let whole = crc32_reference(&data);
        // Splits inside one stream, on the streams' edges, and at random.
        let mut splits: Vec<Vec<usize>> = vec![
            vec![STREAM / 2],
            vec![3, STREAM - 1],
            vec![STREAM + 5, 2 * STREAM + 5],
            vec![ROUND - 1, ROUND + 1],
            vec![ROUND + STREAM / 3, 2 * ROUND + 3 * STREAM + 11],
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..40 {
            let mut cuts: Vec<usize> = (0..3)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    (state >> 33) as usize % data.len()
                })
                .collect();
            cuts.sort_unstable();
            splits.push(cuts);
        }
        for cuts in splits {
            let mut crc = Crc32::new();
            let mut from = 0;
            for &cut in &cuts {
                crc.update(&data[from..cut]);
                from = cut;
            }
            crc.update(&data[from..]);
            assert_eq!(crc.finish(), whole, "split at {cuts:?}");
        }
    }

    #[test]
    fn detects_single_bit_flips_in_a_block_sized_input() {
        use crate::snapshot::IMAGE_BLOCK;
        let mut data = noise(IMAGE_BLOCK);
        let clean = crc32(&data);
        // Each stream's first and last bytes in the first and last rounds,
        // and a stride through the rounds between.
        let mut at: Vec<usize> = [0, STREAM - 1, STREAM, 2 * STREAM - 1, 3 * STREAM]
            .into_iter()
            .flat_map(|offset| [offset, IMAGE_BLOCK - ROUND + offset])
            .collect();
        at.extend((ROUND + 7..IMAGE_BLOCK - ROUND).step_by(2 * ROUND + 4099));
        for (n, i) in at.into_iter().enumerate() {
            for bit in [0, 7] {
                data[i] ^= 1 << bit;
                let flipped = crc32(&data);
                assert_ne!(flipped, clean, "flip at byte {i} bit {bit}");
                if n % 4 == 0 && bit == 7 {
                    assert_eq!(flipped, crc32_reference(&data), "flip at byte {i}");
                }
                data[i] ^= 1 << bit;
            }
        }
    }
}
