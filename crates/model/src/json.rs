//! The workspace's one JSON string escaper.
//!
//! SPARQL results, error bodies, the shape-violation report and the
//! durability status all render JSON by hand into a reused `String`; this
//! is the only place that knows which characters a JSON string must escape.

use crate::block::first_json_special;
use std::fmt::Write as _;

/// Appends `value` to `out` escaped for the inside of a JSON string (the
/// caller writes the surrounding quotes). Allocates nothing beyond `out`'s
/// own growth — the server calls it per cell on its zero-allocation
/// response path (verify-lint IL007). That is also why it is `#[inline]`
/// (a non-generic function is otherwise not inlined across the crate
/// boundary). Nearly every string it is handed has nothing to escape: the
/// block scan answers that 16 bytes per step, and a clean string is then
/// one `push_str`.
#[inline]
pub fn json_escape_into(out: &mut String, value: &str) {
    match first_json_escape(value) {
        None => out.push_str(value),
        Some(at) => escape_from(out, value, at),
    }
}

/// The offset of the first byte of `value` a JSON string must escape
/// (`< 0x20`, `"`, `\`), found a block at a time; `None` when `value` can
/// be copied into a JSON string as it is.
#[inline]
pub fn first_json_escape(value: &str) -> Option<usize> {
    first_json_special(value.as_bytes())
}

/// The escaping loop of [`json_escape_into`] for a string whose first
/// escape is at `at`: the runs between escapes are copied whole.
fn escape_from(out: &mut String, value: &str, mut at: usize) {
    let mut rest = value;
    loop {
        // Everything JSON escapes is ASCII, so cutting at such a byte keeps
        // both sides valid UTF-8.
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
        rest = &rest[at + 1..];
        match rest
            .bytes()
            .position(|b| b < 0x20 || b == b'"' || b == b'\\')
        {
            Some(next) => at = next,
            None => break,
        }
    }
    out.push_str(rest);
}

/// Appends `value` to `out` as a complete JSON string: quoted and escaped.
#[inline]
pub fn json_string_into(out: &mut String, value: &str) {
    out.push('"');
    json_escape_into(out, value);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A character-by-character reference escaper.
    fn reference(value: &str) -> String {
        let mut out = String::new();
        for c in value.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    fn escaped(value: &str) -> String {
        let mut out = String::from("kept|");
        json_escape_into(&mut out, value);
        out.strip_prefix("kept|").expect("appends").to_owned()
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let mut out = String::new();
        json_escape_into(&mut out, "a\"b\\c\nd\re\tf\u{1}g é");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\re\\tf\\u0001g é");
        out.clear();
        json_string_into(&mut out, "a\"b");
        assert_eq!(out, "\"a\\\"b\"");
    }

    /// The escaped byte first, at the last byte of the first block, at the
    /// first and second byte of the second, and last; every escaped byte
    /// kind at each.
    #[test]
    fn an_escape_at_a_block_border_is_found() {
        for len in [1, 16, 17, 18, 31, 32, 33, 40] {
            for at in [0, 15, 16, 17, len - 1] {
                if at >= len {
                    continue;
                }
                for special in ['"', '\\', '\n', '\u{0}', '\u{1f}'] {
                    let mut value: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGH"
                        .chars()
                        .take(len)
                        .collect();
                    value[at] = special;
                    let value: String = value.into_iter().collect();
                    assert_eq!(escaped(&value), reference(&value), "{value:?}");
                    assert_eq!(first_json_escape(&value), Some(at), "{value:?}");
                }
            }
        }
    }

    /// Clean and dirty strings of every length from 0 to 33, ASCII and
    /// not, with one or several escapes.
    #[test]
    fn every_length_from_0_to_33_escapes_like_the_reference() {
        for len in 0..=33 {
            let clean: String = "é語x🚗".chars().cycle().take(len).collect();
            assert_eq!(escaped(&clean), clean);
            assert_eq!(first_json_escape(&clean), None);
            let plain: String = "a".repeat(len);
            assert_eq!(escaped(&plain), plain);
            for step in 1..=4 {
                let dirty: String = (0..len)
                    .map(|i| if i % step == 0 { '"' } else { 'é' })
                    .collect();
                assert_eq!(escaped(&dirty), reference(&dirty), "{dirty:?}");
                let controls: String = (0..len)
                    .map(|i| char::from_u32((i % 0x21) as u32).expect("ASCII"))
                    .collect();
                assert_eq!(escaped(&controls), reference(&controls), "{controls:?}");
            }
        }
    }
}
