//! The workspace's one JSON string escaper.
//!
//! SPARQL results, error bodies, the shape-violation report and the
//! durability status all render JSON by hand into a reused `String`; this
//! is the only place that knows which characters a JSON string must escape.

use std::fmt::Write as _;

/// Appends `value` to `out` escaped for the inside of a JSON string (the
/// caller writes the surrounding quotes). Allocates nothing beyond `out`'s
/// own growth — the server calls it per cell on its zero-allocation
/// response path (verify-lint IL007). That is also why it is `#[inline]`
/// (a non-generic function is otherwise not inlined across the crate
/// boundary) and why it copies the runs between escapes whole instead of
/// pushing character by character: a SELECT over 19k bindings makes ~40k
/// calls, nearly all on strings with nothing to escape.
#[inline]
pub fn json_escape_into(out: &mut String, value: &str) {
    let mut rest = value;
    // Everything JSON escapes is ASCII, so cutting at such a byte keeps
    // both sides valid UTF-8.
    while let Some(at) = rest
        .bytes()
        .position(|b| b < 0x20 || b == b'"' || b == b'\\')
    {
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

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let mut out = String::new();
        json_escape_into(&mut out, "a\"b\\c\nd\re\tf\u{1}g é");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\re\\tf\\u0001g é");
        out.clear();
        json_string_into(&mut out, "a\"b");
        assert_eq!(out, "\"a\\\"b\"");
    }
}
