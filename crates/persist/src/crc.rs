//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding every snapshot section and WAL record.
//!
//! Hand-rolled because the workspace builds offline. The kernel is the
//! *slicing-by-8* form (Kounavis & Berry): eight 256-entry tables computed
//! at compile time, eight input bytes folded per iteration. A snapshot
//! section is checksummed once on write and once on open, and at LUBM
//! scale the sections are tens of megabytes — the byte-at-a-time loop was
//! the single largest line item in a cold start, so the 8-way kernel
//! directly buys recovery time.

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

    /// Folds `data` in behind every byte folded in so far.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.0;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &byte in chunks.remainder() {
            crc = TABLES[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
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
}
