//! The little JSON the benchmark needs, std-only: a value parser for the
//! server's small responses, `BENCHMARK.json` and recorded runs; a string
//! escaper for what it writes; and a streaming counter for the one large
//! document it reads, the SPARQL results of a scan.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing bytes at offset {}", parser.pos));
        }
        Ok(value)
    }

    /// Member `key` of an object; `None` for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_owned()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    map.insert(key, self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| *b != b'"' && *b != b'\\')
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid UTF-8 in string: {e}"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escape = *self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                    self.pos += 2;
                    match escape {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate halves never occur in what this
                            // benchmark reads; map them to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => out.push(other as char),
                    }
                }
                _ => return Err("unterminated string".to_owned()),
            }
        }
    }
}

/// Appends `s` as a JSON string literal.
pub fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Number of solutions in a SPARQL 1.1 results JSON document: the objects
/// directly inside `"bindings":[ … ]`. A single string-aware pass — a scan
/// answer is megabytes, and building a tree for it would cost the client
/// more than the query costs the server. `None` when the document has no
/// bindings array or ends inside it.
pub fn count_bindings(body: &[u8]) -> Option<usize> {
    const KEY: &[u8] = b"\"bindings\":[";
    let start = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let (mut depth, mut count, mut in_string, mut escaped) = (0usize, 0usize, false, false);
    for &byte in &body[start..] {
        if in_string {
            match byte {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match byte {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    count += 1;
                }
                depth += 1;
            }
            b'}' => depth = depth.checked_sub(1)?,
            b']' if depth == 0 => return Some(count),
            _ => {}
        }
    }
    None
}

/// The answer of an `ASK`: the `"boolean"` member of the results document.
pub fn ask_boolean(body: &[u8]) -> Option<bool> {
    let holds = |needle: &[u8]| body.windows(needle.len()).any(|w| w == needle);
    if holds(b"\"boolean\":true") {
        Some(true)
    } else if holds(b"\"boolean\":false") {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documents_the_benchmark_reads() {
        let status = Json::parse(
            "{\"epoch\":3,\"triples\":816240,\"tables\":31,\"durability\":{\"read_only\":false,\
             \"snapshot_path\":\"d/snapshot-0.img\",\"wal_records\":17,\"last_error\":null}}\n",
        )
        .unwrap();
        assert_eq!(status.get("triples").and_then(Json::as_u64), Some(816240));
        let durability = status.get("durability").unwrap();
        assert_eq!(
            durability.get("wal_records").and_then(Json::as_u64),
            Some(17)
        );
        assert_eq!(durability.get("last_error"), Some(&Json::Null));
        assert_eq!(
            durability.get("snapshot_path").and_then(Json::as_str),
            Some("d/snapshot-0.img")
        );

        let nested = Json::parse(r#"{"a":[1.5,-2e3,true,"x\"yA"],"b":{}}"#).unwrap();
        let items = nested.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(items[0].as_f64(), Some(1.5));
        assert_eq!(items[1].as_f64(), Some(-2000.0));
        assert_eq!(items[1].as_u64(), None);
        assert_eq!(items[3].as_str(), Some("x\"yA"));
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("{\"a\":").is_err());
    }

    #[test]
    fn string_literals_round_trip() {
        let mut out = String::new();
        push_str_literal(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(Json::parse(&out).unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn counts_solutions_without_building_a_tree() {
        let two = br#"{"head":{"vars":["s","o"]},"results":{"bindings":[{"s":{"type":"uri","value":"http://a"},"o":{"type":"literal","value":"} ] \" {"}},{"s":{"type":"uri","value":"b"}}]}}"#;
        assert_eq!(count_bindings(two), Some(2));
        let none = br#"{"head":{"vars":["s"]},"results":{"bindings":[]}}"#;
        assert_eq!(count_bindings(none), Some(0));
        assert_eq!(count_bindings(br#"{"head":{},"boolean":true}"#), None);
        assert_eq!(ask_boolean(br#"{"head":{},"boolean":true}"#), Some(true));
        assert_eq!(
            ask_boolean(b"{\"head\":{},\"boolean\":false}\n"),
            Some(false)
        );
        assert_eq!(ask_boolean(none), None);
        assert_eq!(count_bindings(br#"{"results":{"bindings":[{"s":{"#), None);
    }
}
