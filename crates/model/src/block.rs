//! Finding the first byte of a class in a string, 16 bytes per step.
//!
//! The JSON escaper and the IRI speller both ask one question of nearly
//! every string they see — "is there any byte here I must rewrite?" — and
//! the answer is nearly always no. A byte-at-a-time `position` spends a
//! compare and a branch per byte on that answer; these scans load two
//! 64-bit words per step and test all sixteen bytes at once with word
//! arithmetic (SWAR: SIMD within a register), branching once per block.
//! A tail shorter than a block is scanned as the string's last 16 (or 8)
//! bytes, overlapping bytes already found clean; only a string shorter
//! than a word is copied into a word padded with a byte of neither class.
//!
//! Each class is a bitwise OR of per-byte tests built from [`below`]: the
//! high bit of a result byte is set when the input byte is below `n`. The
//! subtraction's borrow can only flag a byte *above* a truly flagged one,
//! never below it, so the lowest flag of the OR is exactly the first
//! special byte and `trailing_zeros` gives its offset.

/// `0x01` in every byte.
const ONES: u64 = u64::from_le_bytes([0x01; 8]);
/// `0x80` in every byte.
const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
/// The padding of a short tail: a byte no class flags.
const PAD: u8 = b'a';

/// High bit of each byte of `word` below `n` (`n ≤ 0x80`), plus possibly
/// spurious bits above a flagged byte — the caller masks with [`HIGHS`].
/// A byte `≥ 0x80` is never flagged: every class is ASCII.
#[inline(always)]
fn below(word: u64, n: u8) -> u64 {
    word.wrapping_sub(ONES * u64::from(n)) & !word
}

/// High bit of each byte of `word` equal to `byte` (same caveat as
/// [`below`]).
#[inline(always)]
fn equal(word: u64, byte: u8) -> u64 {
    below(word ^ (ONES * u64::from(byte)), 1)
}

/// The bytes a JSON string must escape: controls, `"` and `\`.
#[inline(always)]
fn json_class(word: u64) -> u64 {
    (below(word, 0x20) | equal(word, b'"') | equal(word, b'\\')) & HIGHS
}

/// The bytes an N-Triples `IRIREF` may not hold raw: `#x00–#x20` and
/// `` <>"{}|^`\ ``. With bit 1 set, a byte is `>` only if it was `<` or
/// `>`, and `^` only if it was `\` or `^`: two tests cover four bytes.
#[inline(always)]
fn iri_class(word: u64) -> u64 {
    let folded = word | (ONES * 2);
    (below(word, 0x21)
        | equal(word, b'"')
        | equal(folded, b'>')
        | equal(folded, b'^')
        | equal(word, b'`')
        | equal(word, b'{')
        | equal(word, b'|')
        | equal(word, b'}'))
        & HIGHS
}

/// The little-endian word of the first 8 bytes.
#[inline(always)]
fn word_at(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// The offset of the first flagged byte of a word, if any.
#[inline(always)]
fn in_word(flags: u64) -> Option<usize> {
    (flags != 0).then(|| flags.trailing_zeros() as usize / 8)
}

/// The offset of the first flagged byte of the 16 bytes at `bytes`.
#[inline(always)]
fn in_block(bytes: &[u8], class: impl Fn(u64) -> u64) -> Option<usize> {
    let (low, high) = (class(word_at(bytes)), class(word_at(&bytes[8..])));
    if low | high == 0 {
        None
    } else {
        in_word(low).or_else(|| in_word(high).map(|at| 8 + at))
    }
}

/// The offset of the first byte of `bytes` that `class` flags.
#[inline(always)]
fn first_in(bytes: &[u8], class: impl Fn(u64) -> u64 + Copy) -> Option<usize> {
    let len = bytes.len();
    if len >= 16 {
        let mut base = 0;
        while base + 16 <= len {
            if let Some(at) = in_block(&bytes[base..], class) {
                return Some(base + at);
            }
            base += 16;
        }
        // The last block overlaps the scanned ones, whose bytes are clean.
        return (base < len)
            .then(|| in_block(&bytes[len - 16..], class).map(|at| len - 16 + at))
            .flatten();
    }
    if len >= 8 {
        return in_word(class(word_at(bytes)))
            .or_else(|| in_word(class(word_at(&bytes[len - 8..]))).map(|at| len - 8 + at));
    }
    let mut padded = [PAD; 8];
    padded[..len].copy_from_slice(bytes);
    in_word(class(u64::from_le_bytes(padded)))
}

/// The offset of the first byte JSON must escape (`< 0x20`, `"`, `\`).
#[inline]
pub(crate) fn first_json_special(bytes: &[u8]) -> Option<usize> {
    first_in(bytes, json_class)
}

/// The offset of the first byte an `IRIREF` may not hold raw.
#[inline]
pub(crate) fn first_iri_special(bytes: &[u8]) -> Option<usize> {
    first_in(bytes, iri_class)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json_byte(b: u8) -> bool {
        b < 0x20 || b == b'"' || b == b'\\'
    }

    fn iri_byte(b: u8) -> bool {
        b <= 0x20 || b"<>\"{}|^`\\".contains(&b)
    }

    /// Every byte value at every offset of every length up to three blocks,
    /// in a run of plain bytes and behind an earlier special byte.
    #[test]
    fn the_block_scans_find_exactly_the_first_special_byte() {
        for len in 0..=49 {
            for at in 0..len {
                for byte in 0..=255u8 {
                    let mut bytes = vec![b'x'; len];
                    bytes[at] = byte;
                    let json = bytes.iter().position(|&b| json_byte(b));
                    let iri = bytes.iter().position(|&b| iri_byte(b));
                    assert_eq!(first_json_special(&bytes), json, "{bytes:?}");
                    assert_eq!(first_iri_special(&bytes), iri, "{bytes:?}");
                    if at + 1 < len {
                        // A flagged byte above a flagged one stays behind it.
                        bytes[at + 1] = b'"';
                        let json = bytes.iter().position(|&b| json_byte(b));
                        assert_eq!(first_json_special(&bytes), json, "{bytes:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn non_ascii_text_is_never_special() {
        let text = "é語🚗\u{a0}\u{2028}".repeat(5);
        assert_eq!(first_json_special(text.as_bytes()), None);
        assert_eq!(first_iri_special(text.as_bytes()), None);
    }
}
