//! The workspace's one term lexer, and the zero-copy, chunk-splittable
//! statement lexers for N-Triples and the Turtle subset built on it.
//!
//! What an IRI, a blank node label, a literal, a prefixed name, a number or
//! a variable looks like is decided here, once, by [`Scan`] — for the two
//! document grammars below and, through the same public cursor, for SPARQL
//! (`inferray-query`) and the `.rules` / `.shapes` files (`inferray-rules`).
//! One spelling therefore means one term, and one dictionary identifier,
//! wherever it is written; `docs/ingest.md` ("Term syntax") is the reference.
//!
//! On top of the term lexer this module is the parser layer of the streaming
//! ingest subsystem (see `docs/ingest.md`):
//!
//! * [`TermRef`] (defined in `inferray-model`, re-exported here) /
//!   [`TripleRef`] — borrowed term forms. A term borrows its slices straight
//!   out of the input document (`Cow::Borrowed`) and only owns memory when
//!   the textual form needs normalization (escape sequences, prefixed-name
//!   expansion, base resolution, language-tag lowercasing).
//! * [`lex_ntriples_line`] — one N-Triples statement, zero-copy.
//! * [`split_ntriples`] — cuts a document into balanced chunks on line
//!   boundaries, each carrying its 1-based first line number so parse errors
//!   are identical no matter how the document was chunked.
//! * [`lex_turtle_prologue`] / [`split_turtle_body`] / [`TurtleChunkLexer`] —
//!   the same for the Turtle subset: the prologue (leading `@prefix`/`@base`
//!   directives) is lexed once, then the body is cut on *top-level statement
//!   boundaries* and every chunk is lexed against a snapshot of the prologue.
//!   Documents that declare directives after the prologue are detected by the
//!   splitter and fall back to a single chunk, where the chunk lexer handles
//!   mid-document directives itself.
//!
//! The legacy `parse_ntriples` / `parse_turtle` entry points are thin
//! wrappers over these lexers that collect owned [`Triple`]s.

use crate::ntriples::ParseError;
use crate::turtle::{has_scheme, resolve_against_base};
use inferray_model::term::unescape_ntriples;
pub use inferray_model::TermRef;
use inferray_model::{vocab, Triple};
use std::borrow::Cow;
use std::collections::HashMap;

/// A borrowed triple, the zero-copy analogue of [`Triple`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripleRef<'a> {
    /// Subject term.
    pub subject: TermRef<'a>,
    /// Predicate term.
    pub predicate: TermRef<'a>,
    /// Object term.
    pub object: TermRef<'a>,
}

impl<'a> From<&'a Triple> for TripleRef<'a> {
    /// The borrowed view of an owned triple (every slice `Cow::Borrowed`).
    fn from(triple: &'a Triple) -> Self {
        TripleRef {
            subject: triple.subject.as_term_ref(),
            predicate: triple.predicate.as_term_ref(),
            object: triple.object.as_term_ref(),
        }
    }
}

impl<'a> TripleRef<'a> {
    /// Converts into an owned [`Triple`].
    pub fn into_triple(self) -> Triple {
        Triple::new(
            self.subject.into_term(),
            self.predicate.into_term(),
            self.object.into_term(),
        )
    }
}

// ---------------------------------------------------------------------------
// The term lexer
// ---------------------------------------------------------------------------

/// `true` for a character of a *name*: a prefix label, the local part of a
/// prefixed name, a variable name, a keyword. One class for every grammar
/// (see "Term syntax" in `docs/ingest.md`).
fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

/// Byte classes of the scanners' fast loops: a byte whose class shares no
/// bit with a loop's mask is skipped on one table load; every other byte
/// leaves the loop and is looked at by name.
const IRI_SPECIAL: u8 = 1;
const STRING_SPECIAL: u8 = 2;

/// [`IRI_SPECIAL`]: `>`, `\`, ASCII whitespace and the lead byte of a
/// multi-byte character (which may be Unicode whitespace). [`STRING_SPECIAL`]:
/// `"`, `\` and the line feed. Continuation bytes (`0x80..0xC0`) are plain
/// in both: they pass straight through, as does every other byte.
static BYTE_CLASS: [u8; 256] = {
    let mut class = [0u8; 256];
    let mut b = 0xC0;
    while b < 256 {
        class[b] = IRI_SPECIAL;
        b += 1;
    }
    class[b'>' as usize] = IRI_SPECIAL;
    class[b' ' as usize] = IRI_SPECIAL;
    class[b'\t' as usize] = IRI_SPECIAL;
    class[b'\r' as usize] = IRI_SPECIAL;
    class[b'\n' as usize] = IRI_SPECIAL | STRING_SPECIAL;
    class[b'\\' as usize] = IRI_SPECIAL | STRING_SPECIAL;
    class[b'"' as usize] = STRING_SPECIAL;
    class
};

/// Offset of the first byte at or after `from` whose class meets `mask`, or
/// `bytes.len()`.
#[inline(always)]
fn skip_plain(bytes: &[u8], from: usize, mask: u8) -> usize {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    // Non-zero when a byte of `x` is zero.
    let has_zero = |x: u64| x.wrapping_sub(ONES) & !x & HIGH;
    let mut pos = from;
    // Eight bytes at a time: a word none of whose bytes can be special —
    // none >= 0x80, none < 0x21 (the space and the controls), no `"`, `>`
    // or `\`, a superset of both classes — is skipped whole; the first
    // other word is settled byte by byte below.
    while let Some(word) = bytes.get(pos..).and_then(|rest| rest.first_chunk::<8>()) {
        let x = u64::from_ne_bytes(*word);
        let suspects = (x & HIGH)
            | (x.wrapping_sub(ONES * 0x21) & !x & HIGH)
            | has_zero(x ^ (ONES * b'"' as u64))
            | has_zero(x ^ (ONES * b'>' as u64))
            | has_zero(x ^ (ONES * b'\\' as u64));
        if suspects != 0 {
            break;
        }
        pos += 8;
    }
    while let Some(&b) = bytes.get(pos) {
        if BYTE_CLASS[b as usize] & mask != 0 {
            break;
        }
        pos += 1;
    }
    pos
}

/// What [`Scan::lex_word`] found at the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Word<'a> {
    /// A run of name characters with no `:` after it: a keyword (`a`,
    /// `true`, `SELECT`, `rule`, …) or a digit run. Empty when the cursor
    /// was not on a name character.
    Bare(&'a str),
    /// `prefix:local`; either part may be empty (`:x`, `ex:`).
    Prefixed {
        /// The label before the colon.
        prefix: &'a str,
        /// The part after the colon.
        local: &'a str,
    },
}

/// The one term lexer: a byte-offset cursor over a `&str` that scans IRIs,
/// blank node labels, literals, prefixed names, numeric shorthand and
/// variables for every grammar of the workspace — N-Triples and Turtle here,
/// SPARQL in `inferray-query`, `.rules` and `.shapes` in `inferray-rules`.
///
/// It tracks the 1-based line and the start of the current line; the
/// character column is counted from there only when somebody asks
/// ([`Scan::column`], [`Scan::error`]). It never allocates except to
/// normalize a term (escapes, language-tag case). `Copy`, so a parser can
/// keep the cursor of its lookahead token to position an error later.
#[derive(Debug, Clone, Copy)]
pub struct Scan<'a> {
    input: &'a str,
    pos: usize,
    line: usize,
    line_start: usize,
}

impl<'a> Scan<'a> {
    /// A cursor at the start of `input`, whose first line is line
    /// `first_line` of the document it was cut from.
    pub fn new(input: &'a str, first_line: usize) -> Self {
        Scan {
            input,
            pos: 0,
            line: first_line,
            line_start: 0,
        }
    }

    /// `true` at the end of the input.
    pub fn is_done(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// 1-based line of the cursor.
    pub fn line(&self) -> usize {
        self.line
    }

    /// 1-based column of the cursor, in characters.
    pub fn column(&self) -> usize {
        self.input[self.line_start..self.pos].chars().count() + 1
    }

    /// Byte offset of the cursor.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The character at the cursor.
    #[inline]
    pub fn peek(&self) -> Option<char> {
        let b = *self.input.as_bytes().get(self.pos)?;
        if b < 0x80 {
            // ASCII fast path: no UTF-8 decoding (the overwhelming majority
            // of RDF surface syntax is ASCII).
            Some(b as char)
        } else {
            self.input[self.pos..].chars().next()
        }
    }

    /// Peeks the character `offset` *characters* (not bytes) ahead.
    pub fn peek_at(&self, offset: usize) -> Option<char> {
        self.input[self.pos..].chars().nth(offset)
    }

    /// Consumes and returns the character at the cursor.
    #[inline]
    pub fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(c)
    }

    /// Skips whitespace.
    pub fn skip_whitespace(&mut self) {
        let bytes = self.input.as_bytes();
        loop {
            match bytes.get(self.pos) {
                Some(b' ' | b'\t' | b'\r') => self.pos += 1,
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                    self.line_start = self.pos;
                }
                Some(b) if *b >= 0x80 => {
                    // Rare non-ASCII whitespace (NBSP etc.).
                    match self.peek() {
                        Some(c) if c.is_whitespace() => {
                            self.pos += c.len_utf8();
                        }
                        _ => return,
                    }
                }
                _ => return,
            }
        }
    }

    /// Skips whitespace and `#` comments (to end of line).
    pub fn skip_trivia(&mut self) {
        loop {
            self.skip_whitespace();
            if self.peek() == Some('#') {
                while let Some(c) = self.bump() {
                    if c == '\n' {
                        break;
                    }
                }
            } else {
                return;
            }
        }
    }

    /// Consumes `expected` or fails.
    pub fn expect_char(&mut self, expected: char) -> Result<(), ParseError> {
        match self.bump() {
            Some(c) if c == expected => Ok(()),
            other => Err(self.error(format!("expected '{expected}', found {other:?}"))),
        }
    }

    /// The text of the line the cursor currently sits on (error context).
    fn current_line_text(&self) -> &'a str {
        let rest = &self.input[self.line_start..];
        rest.lines().next().unwrap_or(rest)
    }

    /// An error at the cursor's line, carrying that line's text.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
            context: self.current_line_text().to_string(),
        }
    }

    // -- term lexers --------------------------------------------------------

    /// Lexes `<iri>`, borrowing the inner slice unless it contains escapes.
    pub fn lex_iri(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect_char('<')?;
        let start = self.pos;
        let mut has_escape = false;
        let bytes = self.input.as_bytes();
        loop {
            // Every delimiter is ASCII and continuation bytes of multi-byte
            // characters are plain, so the run up to the next special byte
            // is skipped on its byte class alone.
            self.pos = skip_plain(bytes, self.pos, IRI_SPECIAL);
            match bytes.get(self.pos) {
                Some(b'>') => break,
                Some(b'\\') => has_escape = true,
                // ASCII whitespace, or the lead byte of a multi-byte
                // character (a char boundary, so decoding is safe): rare
                // non-ASCII whitespace must still be rejected.
                Some(_) => {
                    if self.peek().is_some_and(char::is_whitespace) {
                        return Err(self.error("whitespace inside IRI"));
                    }
                }
                None => return Err(self.error("unterminated IRI")),
            }
            self.pos += 1;
        }
        let raw = &self.input[start..self.pos];
        self.pos += 1; // consume '>'
        if has_escape {
            match unescape_ntriples(raw) {
                Some(unescaped) => Ok(Cow::Owned(unescaped)),
                None => Err(self.error("bad escape in IRI")),
            }
        } else {
            Ok(Cow::Borrowed(raw))
        }
    }

    /// Lexes `_:label`, always borrowing.
    pub fn lex_blank(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect_char('_')?;
        self.expect_char(':')?;
        let start = self.pos;
        loop {
            // ASCII fast path for the common label characters.
            match self.input.as_bytes().get(self.pos) {
                Some(b) if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.') => {
                    self.pos += 1;
                }
                Some(b) if *b >= 0x80 => match self.peek() {
                    Some(c) if c.is_alphanumeric() => {
                        self.pos += c.len_utf8();
                    }
                    _ => break,
                },
                _ => break,
            }
        }
        let mut end = self.pos;
        // A trailing '.' belongs to the statement terminator, not the label.
        while end > start && self.input.as_bytes()[end - 1] == b'.' {
            end -= 1;
            self.pos -= 1;
        }
        if end == start {
            return Err(self.error("empty blank node label"));
        }
        Ok(Cow::Borrowed(&self.input[start..end]))
    }

    /// Lexes the quoted, escaped part of a literal (`"…"`), returning the
    /// unescaped lexical form (borrowed when no escape occurs).
    pub fn lex_quoted_string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect_char('"')?;
        let start = self.pos;
        let mut has_escape = false;
        let bytes = self.input.as_bytes();
        loop {
            // The delimiters (`"`, `\`, line feed) are ASCII; everything
            // else, multi-byte characters included, is skipped by class.
            self.pos = skip_plain(bytes, self.pos, STRING_SPECIAL);
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    has_escape = true;
                    self.pos += 1;
                    if self.bump().is_none() {
                        return Err(self.error("unterminated escape in literal"));
                    }
                }
                // A raw line break ends no literal of any grammar: stopping
                // here keeps an unclosed quote from swallowing the document.
                _ => return Err(self.error("unterminated literal")),
            }
        }
        let raw = &self.input[start..self.pos - 1];
        if has_escape {
            match unescape_ntriples(raw) {
                Some(unescaped) => Ok(Cow::Owned(unescaped)),
                None => Err(self.error("bad escape sequence in literal")),
            }
        } else {
            Ok(Cow::Borrowed(raw))
        }
    }

    /// Lexes the `@lang` suffix after a quoted string (cursor sits on `@`).
    pub fn lex_language(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.bump(); // '@'
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '-') {
            self.bump();
        }
        let raw = &self.input[start..self.pos];
        // The N-Triples grammar's BCP 47 shape: `[a-zA-Z]+('-'[a-zA-Z0-9]+)*`
        // — rejects the empty tag, leading digits, and leading/trailing/
        // doubled '-'.
        if !inferray_model::term::valid_language_tag(raw) {
            return Err(self.error(format!("malformed language tag '@{raw}'")));
        }
        // RDF term equality lower-cases language tags (see Term::lang_literal).
        if raw.bytes().any(|b| b.is_ascii_uppercase()) {
            Ok(Cow::Owned(raw.to_ascii_lowercase()))
        } else {
            Ok(Cow::Borrowed(raw))
        }
    }

    /// Lexes a full N-Triples literal (quoted string plus optional `@lang` or
    /// `^^<datatype>` suffix).
    pub fn lex_literal(&mut self) -> Result<TermRef<'a>, ParseError> {
        self.lex_literal_suffixed(Scan::lex_iri)
    }

    /// Lexes a literal of a grammar with prefixes: the datatype after `^^`
    /// is `<iri>` or a prefixed name, which `expand` turns into an IRI (or
    /// into the message of the error to report).
    pub fn lex_literal_with(
        &mut self,
        expand: impl FnOnce(&str, &str) -> Result<String, String>,
    ) -> Result<TermRef<'a>, ParseError> {
        self.lex_literal_suffixed(|scan| {
            if scan.peek() == Some('<') {
                return scan.lex_iri();
            }
            match scan.lex_word() {
                Word::Prefixed { prefix, local } => expand(prefix, local)
                    .map(Cow::Owned)
                    .map_err(|message| scan.error(message)),
                Word::Bare(_) => Err(scan.error("malformed datatype annotation")),
            }
        })
    }

    /// A quoted string, then `@lang`, or `^^` and whatever `datatype` reads.
    #[inline]
    fn lex_literal_suffixed(
        &mut self,
        datatype: impl FnOnce(&mut Self) -> Result<Cow<'a, str>, ParseError>,
    ) -> Result<TermRef<'a>, ParseError> {
        let lexical = self.lex_quoted_string()?;
        let (datatype, language) = match self.peek() {
            Some('@') => (None, Some(self.lex_language()?)),
            Some('^') => {
                self.bump();
                self.expect_char('^')?;
                (Some(datatype(self)?), None)
            }
            _ => (None, None),
        };
        Ok(TermRef::Literal {
            lexical,
            datatype,
            language,
        })
    }

    /// Lexes one N-Triples term.
    pub fn lex_term(&mut self) -> Result<TermRef<'a>, ParseError> {
        match self.peek() {
            Some('<') => Ok(TermRef::Iri(self.lex_iri()?)),
            Some('_') => Ok(TermRef::Blank(self.lex_blank()?)),
            Some('"') => self.lex_literal(),
            other => Err(self.error(format!("expected a term, found {other:?}"))),
        }
    }

    /// Skips a run of name characters.
    fn skip_name(&mut self) {
        let bytes = self.input.as_bytes();
        loop {
            match bytes.get(self.pos) {
                Some(b) if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-') => self.pos += 1,
                Some(b) if *b >= 0x80 => match self.peek() {
                    Some(c) if c.is_alphanumeric() => self.pos += c.len_utf8(),
                    _ => return,
                },
                _ => return,
            }
        }
    }

    /// Lexes a bare name or a prefixed name (`prefix:local`) — the one
    /// scanner behind Turtle's and SPARQL's prefixed names and keywords and
    /// the identifiers of `.rules` and `.shapes`. Never fails: it consumes
    /// the name characters at the cursor, which may be none.
    ///
    /// The local part may also hold `:` and `%`, and a `.` that another
    /// local character follows (`ex:v1.2`); a trailing `.` is left for the
    /// statement terminator.
    pub fn lex_word(&mut self) -> Word<'a> {
        let start = self.pos;
        self.skip_name();
        let bytes = self.input.as_bytes();
        if bytes.get(self.pos) != Some(&b':') {
            return Word::Bare(&self.input[start..self.pos]);
        }
        let prefix = &self.input[start..self.pos];
        self.pos += 1;
        let local_start = self.pos;
        loop {
            self.skip_name();
            match bytes.get(self.pos) {
                Some(b':' | b'%') => self.pos += 1,
                Some(b'.')
                    if self.input[self.pos + 1..]
                        .chars()
                        .next()
                        .is_some_and(|c| is_name_char(c) || matches!(c, ':' | '%')) =>
                {
                    self.pos += 1;
                }
                _ => break,
            }
        }
        Word::Prefixed {
            prefix,
            local: &self.input[local_start..self.pos],
        }
    }

    /// Lexes `?name` or `$name`, returning the name.
    pub fn lex_variable(&mut self) -> Result<&'a str, ParseError> {
        match self.bump() {
            Some('?' | '$') => {}
            other => return Err(self.error(format!("expected a variable, found {other:?}"))),
        }
        let start = self.pos;
        self.skip_name();
        if self.pos == start {
            return Err(self.error("empty variable name"));
        }
        Ok(&self.input[start..self.pos])
    }

    /// Lexes the numeric shorthand of Turtle and SPARQL: an `xsd:integer`,
    /// or an `xsd:decimal` when the text holds `.`, `e` or `E`.
    pub fn lex_numeric(&mut self) -> Result<TermRef<'a>, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        {
            // A '.' not followed by a digit is the statement terminator.
            if self.peek() == Some('.') && !matches!(self.peek_at(1), Some(c) if c.is_ascii_digit())
            {
                break;
            }
            self.bump();
        }
        let text = &self.input[start..self.pos];
        if !text.bytes().any(|b| b.is_ascii_digit()) {
            return Err(self.error("expected a numeric literal"));
        }
        let datatype = if text.contains(['.', 'e', 'E']) {
            vocab::XSD_DECIMAL
        } else {
            vocab::XSD_INTEGER
        };
        Ok(TermRef::Literal {
            lexical: Cow::Borrowed(text),
            datatype: Some(Cow::Borrowed(datatype)),
            language: None,
        })
    }
}

// ---------------------------------------------------------------------------
// N-Triples: statement lexer + chunk splitter
// ---------------------------------------------------------------------------

/// Lexes a single N-Triples line into a borrowed triple. Returns `Ok(None)`
/// for blank lines and comments. `line_number` is used for error reporting.
pub fn lex_ntriples_line(
    line: &str,
    line_number: usize,
) -> Result<Option<TripleRef<'_>>, ParseError> {
    let mut scan = Scan::new(line, line_number);
    scan.skip_whitespace();
    if scan.is_done() || scan.peek() == Some('#') {
        return Ok(None);
    }
    let subject = scan.lex_term()?;
    scan.skip_whitespace();
    let predicate = scan.lex_term()?;
    scan.skip_whitespace();
    let object = scan.lex_term()?;
    scan.skip_whitespace();
    scan.expect_char('.')?;
    scan.skip_whitespace();
    if !scan.is_done() && scan.peek() != Some('#') {
        return Err(scan.error("trailing content after '.'"));
    }
    if subject.is_literal() || !predicate.is_iri() {
        let rendered = TripleRef {
            subject,
            predicate,
            object,
        }
        .into_triple();
        return Err(ParseError::new(
            line_number,
            format!("invalid triple (check term positions): {rendered}"),
        ));
    }
    Ok(Some(TripleRef {
        subject,
        predicate,
        object,
    }))
}

/// A contiguous slice of an input document plus the 1-based line number of
/// its first line, so chunk-local errors report document-global positions.
#[derive(Debug, Clone, Copy)]
pub struct Chunk<'a> {
    /// The chunk text.
    pub text: &'a str,
    /// 1-based line number of the chunk's first line in the whole document.
    pub first_line: usize,
}

/// Splits an N-Triples document into at most `target_chunks` chunks of
/// roughly equal byte size, cutting only on line boundaries. Concatenating
/// the chunk texts reproduces the input exactly.
pub fn split_ntriples(input: &str, target_chunks: usize) -> Vec<Chunk<'_>> {
    let target_chunks = target_chunks.max(1);
    if input.is_empty() {
        return Vec::new();
    }
    let goal = (input.len() / target_chunks).max(1);
    let mut chunks = Vec::with_capacity(target_chunks);
    let mut start = 0usize;
    let mut first_line = 1usize;
    while start < input.len() {
        let tentative = (start + goal).min(input.len());
        // Extend to the end of the line containing `tentative`. Byte search:
        // `tentative` may sit inside a multi-byte character, but `\n` is
        // ASCII, so the offset after it is always a char boundary.
        let end = match input.as_bytes()[tentative..]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(offset) => tentative + offset + 1,
            None => input.len(),
        };
        let text = &input[start..end];
        chunks.push(Chunk { text, first_line });
        first_line += text.bytes().filter(|&b| b == b'\n').count();
        start = end;
    }
    chunks
}

/// Iterates the statements of one N-Triples chunk, yielding borrowed
/// triples with document-global line numbers, and returns the number of
/// lines the chunk held (the next chunk's `first_line` is that much later).
pub fn lex_ntriples_chunk<'a>(
    chunk: Chunk<'a>,
    mut emit: impl FnMut(TripleRef<'a>),
) -> Result<usize, ParseError> {
    let mut lines = 0;
    for line in chunk.text.lines() {
        if let Some(triple) = lex_ntriples_line(line, chunk.first_line + lines)? {
            emit(triple);
        }
        lines += 1;
    }
    Ok(lines)
}

// ---------------------------------------------------------------------------
// Turtle: prologue, statement splitter, chunk lexer
// ---------------------------------------------------------------------------

/// The leading directives of a Turtle document: every `@prefix`/`PREFIX` and
/// `@base`/`BASE` declaration before the first statement.
#[derive(Debug, Clone, Default)]
pub struct TurtlePrologue {
    /// Declared prefixes (name → namespace IRI).
    pub prefixes: HashMap<String, String>,
    /// The base IRI, empty when none was declared.
    pub base: String,
    /// Byte offset of the first body statement.
    pub body_offset: usize,
    /// 1-based line number of the first body statement.
    pub body_first_line: usize,
}

/// `true` when the cursor sits on `keyword` followed by whitespace.
fn at_keyword(scan: &Scan<'_>, keyword: &str) -> bool {
    let mut probe = 0usize;
    for expected in keyword.chars() {
        match scan.peek_at(probe) {
            Some(c) if c.eq_ignore_ascii_case(&expected) => probe += 1,
            _ => return false,
        }
    }
    matches!(scan.peek_at(probe), Some(c) if c.is_whitespace())
}

fn at_directive(scan: &Scan<'_>) -> bool {
    at_keyword(scan, "@prefix")
        || at_keyword(scan, "PREFIX")
        || at_keyword(scan, "@base")
        || at_keyword(scan, "BASE")
}

fn consume_keyword(scan: &mut Scan<'_>, keyword: &str) -> Result<(), ParseError> {
    for expected in keyword.chars() {
        match scan.bump() {
            Some(c) if c.eq_ignore_ascii_case(&expected) => {}
            other => return Err(scan.error(format!("expected keyword {keyword}, found {other:?}"))),
        }
    }
    Ok(())
}

/// Lexes one directive at the cursor into `prefixes` / `base`.
fn lex_directive(
    scan: &mut Scan<'_>,
    prefixes: &mut HashMap<String, String>,
    base: &mut String,
) -> Result<(), ParseError> {
    if at_keyword(scan, "@prefix") || at_keyword(scan, "PREFIX") {
        let sparql_style = at_keyword(scan, "PREFIX");
        consume_keyword(scan, if sparql_style { "PREFIX" } else { "@prefix" })?;
        scan.skip_trivia();
        let name = match scan.lex_word() {
            Word::Prefixed { prefix, local: "" } => prefix.to_string(),
            _ => return Err(scan.error("malformed prefix name")),
        };
        scan.skip_trivia();
        let iri = scan.lex_iri()?.into_owned();
        scan.skip_trivia();
        if !sparql_style {
            scan.expect_char('.')?;
        } else if scan.peek() == Some('.') {
            scan.bump();
        }
        prefixes.insert(name, iri);
        Ok(())
    } else {
        let sparql_style = at_keyword(scan, "BASE");
        consume_keyword(scan, if sparql_style { "BASE" } else { "@base" })?;
        scan.skip_trivia();
        let iri = scan.lex_iri()?.into_owned();
        scan.skip_trivia();
        if !sparql_style {
            scan.expect_char('.')?;
        } else if scan.peek() == Some('.') {
            scan.bump();
        }
        *base = iri;
        Ok(())
    }
}

/// Lexes the prologue of a Turtle document: directives up to the first
/// statement (or end of input).
pub fn lex_turtle_prologue(input: &str) -> Result<TurtlePrologue, ParseError> {
    let mut scan = Scan::new(input, 1);
    let mut prologue = TurtlePrologue::default();
    loop {
        scan.skip_trivia();
        if scan.is_done() || !at_directive(&scan) {
            prologue.body_offset = scan.pos();
            prologue.body_first_line = scan.line();
            return Ok(prologue);
        }
        lex_directive(&mut scan, &mut prologue.prefixes, &mut prologue.base)?;
    }
}

/// Splits a Turtle body (everything after the prologue) into at most
/// `target_chunks` chunks, cutting only on top-level statement boundaries
/// (a `.` outside IRIs, literals and comments, followed by whitespace, a
/// comment or end of input).
///
/// Returns `None` when a directive is declared *after* the prologue — the
/// caller must then lex the body as a single chunk, whose lexer applies
/// directives in stream order.
pub fn split_turtle_body(
    body: &str,
    first_line: usize,
    target_chunks: usize,
) -> Option<Vec<Chunk<'_>>> {
    let target_chunks = target_chunks.max(1);
    // "Nothing but trivia" by the lexer's own definition of whitespace, so
    // chunked and whole-document lexing accept the same documents.
    let mut probe = Scan::new(body, first_line);
    probe.skip_trivia();
    if probe.is_done() {
        return Some(Vec::new());
    }

    // One linear scan: collect every top-level statement end offset.
    #[derive(PartialEq)]
    enum State {
        TopLevel,
        Iri,
        Literal,
        Comment,
    }
    let bytes = body.as_bytes();
    let mut state = State::TopLevel;
    let mut boundaries: Vec<usize> = Vec::new(); // exclusive end offsets
    let mut at_statement_start = true;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Comment => {
                if b == b'\n' {
                    state = State::TopLevel;
                }
            }
            State::Iri => {
                if b == b'>' {
                    state = State::TopLevel;
                }
            }
            State::Literal => {
                if b == b'\\' {
                    i += 1; // skip the escaped byte
                } else if b == b'"' {
                    state = State::TopLevel;
                }
            }
            State::TopLevel => {
                // Mid-body directive: give up on parallel chunking.
                // Deliberately conservative — ANY top-level occurrence of a
                // directive keyword bails out, not just ones at recognized
                // statement starts, because a directive can directly follow
                // a `.` terminator that this token-free scan cannot identify
                // (e.g. `ex:a ex:p ex:b .@prefix zz: <…> .`). A false
                // positive (say, a predicate whose local name is `prefix`)
                // only costs parallelism: the single-chunk lexer is the
                // sequential semantics. `@` probes unconditionally; the
                // bare SPARQL keywords only after whitespace or `.`, so
                // names like `ex:prefix` don't disable chunking.
                let directive_start = b == b'@'
                    || (matches!(b, b'P' | b'p' | b'B' | b'b')
                        && (i == 0 || matches!(bytes[i - 1], b' ' | b'\t' | b'\r' | b'\n' | b'.')));
                if directive_start {
                    // `b` is ASCII, so `i` is a char boundary.
                    let scan = Scan::new(&body[i..], 1);
                    if at_directive(&scan) {
                        return None;
                    }
                }
                if at_statement_start && !(b as char).is_ascii_whitespace() && b != b'#' {
                    at_statement_start = false;
                }
                match b {
                    b'#' => state = State::Comment,
                    b'<' => state = State::Iri,
                    b'"' => state = State::Literal,
                    b'.' => {
                        let next = bytes.get(i + 1).copied();
                        let terminates = match next {
                            None => true,
                            Some(n) => (n as char).is_ascii_whitespace() || n == b'#',
                        };
                        if terminates && !at_statement_start {
                            boundaries.push(i + 1);
                            at_statement_start = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        i += 1;
    }

    // Make the final boundary cover trailing trivia (and any trailing
    // incomplete statement, which the last chunk's lexer will report). With
    // no complete statement at all, everything goes to one chunk so the
    // lexer produces the error (or handles the single partial statement).
    match boundaries.last_mut() {
        Some(last) => *last = body.len(),
        None => boundaries.push(body.len()),
    }

    let per_chunk = boundaries.len().div_ceil(target_chunks);
    let mut chunks = Vec::with_capacity(target_chunks);
    let mut start = 0usize;
    let mut line = first_line;
    for group in boundaries.chunks(per_chunk) {
        // `chunks` yields no empty group.
        let Some(&end) = group.last() else { continue };
        let text = &body[start..end];
        chunks.push(Chunk {
            text,
            first_line: line,
        });
        line += text.bytes().filter(|&b| b == b'\n').count();
        start = end;
    }
    Some(chunks)
}

/// A statement-at-a-time lexer over one Turtle chunk.
///
/// The lexer owns a snapshot of the prologue's prefix map and base IRI; when
/// the chunk contains further directives (only possible in single-chunk mode,
/// see [`split_turtle_body`]) they are applied in stream order.
pub struct TurtleChunkLexer<'a> {
    scan: Scan<'a>,
    prefixes: HashMap<String, String>,
    base: String,
}

impl<'a> TurtleChunkLexer<'a> {
    /// A lexer over `chunk` with the given prologue snapshot.
    pub fn new(chunk: Chunk<'a>, prefixes: HashMap<String, String>, base: String) -> Self {
        TurtleChunkLexer {
            scan: Scan::new(chunk.text, chunk.first_line),
            prefixes,
            base,
        }
    }

    /// Lexes the next statement, passing each of its triples to `emit`.
    /// Returns `Ok(false)` at end of input.
    pub fn next_statement(
        &mut self,
        mut emit: impl FnMut(TripleRef<'a>),
    ) -> Result<bool, ParseError> {
        self.scan.skip_trivia();
        if self.scan.is_done() {
            return Ok(false);
        }
        if at_directive(&self.scan) {
            lex_directive(&mut self.scan, &mut self.prefixes, &mut self.base)?;
            return Ok(true);
        }
        let subject = self.lex_node(false)?;
        loop {
            self.scan.skip_trivia();
            let predicate = self.lex_node(true)?;
            loop {
                self.scan.skip_trivia();
                let object = self.lex_node(false)?;
                if subject.is_literal() || !predicate.is_iri() {
                    let rendered = TripleRef {
                        subject,
                        predicate,
                        object,
                    }
                    .into_triple();
                    return Err(self.scan.error(format!("invalid triple: {rendered}")));
                }
                emit(TripleRef {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                self.scan.skip_trivia();
                match self.scan.peek() {
                    Some(',') => {
                        self.scan.bump();
                    }
                    _ => break,
                }
            }
            self.scan.skip_trivia();
            match self.scan.peek() {
                Some(';') => {
                    self.scan.bump();
                    self.scan.skip_trivia();
                    // A dangling ';' before '.' is allowed in Turtle.
                    if self.scan.peek() == Some('.') {
                        self.scan.bump();
                        return Ok(true);
                    }
                }
                Some('.') => {
                    self.scan.bump();
                    return Ok(true);
                }
                other => {
                    return Err(self
                        .scan
                        .error(format!("expected ';' or '.', found {other:?}")))
                }
            }
        }
    }

    /// Lexes an IRI, prefixed name, blank node label or literal; in
    /// predicate position also the `a` keyword.
    fn lex_node(&mut self, predicate: bool) -> Result<TermRef<'a>, ParseError> {
        match self.scan.peek() {
            Some('<') => {
                let iri = self.scan.lex_iri()?;
                if !self.base.is_empty() && !has_scheme(&iri) {
                    Ok(TermRef::Iri(Cow::Owned(resolve_against_base(
                        &self.base, &iri,
                    ))))
                } else {
                    Ok(TermRef::Iri(iri))
                }
            }
            Some('_') => Ok(TermRef::Blank(self.scan.lex_blank()?)),
            Some('"') => {
                let prefixes = &self.prefixes;
                self.scan
                    .lex_literal_with(|prefix, local| expand(prefixes, prefix, local))
            }
            Some('[') => Err(self
                .scan
                .error("anonymous blank nodes [...] are not supported by this Turtle subset")),
            Some('(') => Err(self
                .scan
                .error("collections (...) are not supported by this Turtle subset")),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => self.scan.lex_numeric(),
            Some(_) => match self.scan.lex_word() {
                Word::Prefixed { prefix, local } => expand(&self.prefixes, prefix, local)
                    .map(|iri| TermRef::Iri(Cow::Owned(iri)))
                    .map_err(|message| self.scan.error(message)),
                Word::Bare("a") if predicate => Ok(TermRef::Iri(Cow::Borrowed(vocab::RDF_TYPE))),
                Word::Bare(boolean @ ("true" | "false")) => Ok(TermRef::Literal {
                    lexical: Cow::Borrowed(boolean),
                    datatype: Some(Cow::Borrowed(vocab::XSD_BOOLEAN)),
                    language: None,
                }),
                Word::Bare(other) => Err(self
                    .scan
                    .error(format!("expected a prefixed name, found {other:?}"))),
            },
            None => Err(self.scan.error("unexpected end of input")),
        }
    }
}

/// Expands `prefix:local` against the declared prefixes; `Err` is the
/// message of the error to report.
fn expand(prefixes: &HashMap<String, String>, prefix: &str, local: &str) -> Result<String, String> {
    match prefixes.get(prefix) {
        Some(namespace) => Ok(format!("{namespace}{local}")),
        None => Err(format!("undeclared prefix '{prefix}:'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scanners as they were before the byte-class loops: one `match`
    /// per byte. Kept as the reference the fast loops are tested against.
    impl<'a> Scan<'a> {
        fn reference_lex_iri(&mut self) -> Result<Cow<'a, str>, ParseError> {
            self.expect_char('<')?;
            let start = self.pos;
            let mut has_escape = false;
            let bytes = self.input.as_bytes();
            loop {
                match bytes.get(self.pos) {
                    Some(b'>') => break,
                    Some(b' ' | b'\t' | b'\r' | b'\n') => {
                        return Err(self.error("whitespace inside IRI"));
                    }
                    Some(b) => {
                        if *b == b'\\' {
                            has_escape = true;
                        } else if *b >= 0xC0 && matches!(self.peek(), Some(c) if c.is_whitespace())
                        {
                            return Err(self.error("whitespace inside IRI"));
                        }
                        self.pos += 1;
                    }
                    None => return Err(self.error("unterminated IRI")),
                }
            }
            let raw = &self.input[start..self.pos];
            self.pos += 1;
            if has_escape {
                match unescape_ntriples(raw) {
                    Some(unescaped) => Ok(Cow::Owned(unescaped)),
                    None => Err(self.error("bad escape in IRI")),
                }
            } else {
                Ok(Cow::Borrowed(raw))
            }
        }

        fn reference_lex_quoted_string(&mut self) -> Result<Cow<'a, str>, ParseError> {
            self.expect_char('"')?;
            let start = self.pos;
            let mut has_escape = false;
            let bytes = self.input.as_bytes();
            loop {
                match bytes.get(self.pos) {
                    Some(b'\\') => {
                        has_escape = true;
                        self.pos += 1;
                        if self.bump().is_none() {
                            return Err(self.error("unterminated escape in literal"));
                        }
                    }
                    Some(b'"') => {
                        self.pos += 1;
                        break;
                    }
                    Some(b'\n') | None => return Err(self.error("unterminated literal")),
                    Some(_) => self.pos += 1,
                }
            }
            let raw = &self.input[start..self.pos - 1];
            if has_escape {
                match unescape_ntriples(raw) {
                    Some(unescaped) => Ok(Cow::Owned(unescaped)),
                    None => Err(self.error("bad escape sequence in literal")),
                }
            } else {
                Ok(Cow::Borrowed(raw))
            }
        }
    }

    /// Text over the characters the scanners tell apart — plain runs long
    /// enough to cross an eight-byte word, every delimiter, an escape's
    /// `u`, and multi-byte characters that are and are not whitespace.
    fn scanner_text() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            Just("a"),
            Just("http://example.org/path"),
            Just("\\"),
            Just("u"),
            Just("\\u00e9"),
            Just(">"),
            Just("\""),
            Just(" "),
            Just("\t"),
            Just("\n"),
            Just("\r"),
            Just("é"),
            Just("\u{2028}"),
            Just("\u{00A0}"),
            Just("語"),
            Just("\u{1}"),
        ];
        prop::collection::vec(piece, 0..12).prop_map(|pieces| pieces.concat())
    }

    /// What a scanner call left behind: its answer and where the cursor is.
    fn outcome<'a>(
        scan: &Scan<'a>,
        result: Result<Cow<'a, str>, ParseError>,
    ) -> (Result<(String, bool), ParseError>, usize, usize, usize) {
        let result = result.map(|text| (text.to_string(), matches!(text, Cow::Borrowed(_))));
        (result, scan.pos, scan.line, scan.line_start)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn byte_class_scanners_equal_the_char_wise_reference(
            body in scanner_text(),
            closed in 0usize..4,
        ) {
            for (open, close) in [('<', '>'), ('"', '"')] {
                let mut text = format!("{open}{body}");
                if closed > 0 {
                    text.push(close);
                    text.push_str(" tail");
                }
                let (mut fast, mut reference) = (Scan::new(&text, 7), Scan::new(&text, 7));
                let (got, expected) = if open == '<' {
                    (fast.lex_iri(), reference.reference_lex_iri())
                } else {
                    (fast.lex_quoted_string(), reference.reference_lex_quoted_string())
                };
                prop_assert_eq!(outcome(&fast, got), outcome(&reference, expected), "on {:?}", text);
            }
        }
    }

    #[test]
    fn term_keys_match_term_display() {
        let doc = r#"<http://ex/a> <http://ex/p> "line1\nline2 \"x\" café"@EN-gb ."#;
        let triple = lex_ntriples_line(doc, 1).unwrap().unwrap();
        let mut key = String::new();
        for term in [&triple.subject, &triple.predicate, &triple.object] {
            key.clear();
            term.write_ntriples(&mut key);
            assert_eq!(key, term.to_term().to_string());
        }
    }

    #[test]
    fn words_are_bare_names_or_prefixed_names() {
        let word = |text| Scan::new(text, 1).lex_word();
        assert_eq!(word("SELECT *"), Word::Bare("SELECT"));
        assert_eq!(word("subjects-of <p>"), Word::Bare("subjects-of"));
        assert_eq!(word("12..3"), Word::Bare("12"));
        assert_eq!(word("{"), Word::Bare(""));
        let prefixed = |prefix, local| Word::Prefixed { prefix, local };
        assert_eq!(word("ex:Person."), prefixed("ex", "Person"));
        assert_eq!(word("ex:v1.2 ."), prefixed("ex", "v1.2"));
        assert_eq!(word("ex:a:b%20c}"), prefixed("ex", "a:b%20c"));
        assert_eq!(word("é:café/x"), prefixed("é", "café"));
        assert_eq!(word(":local"), prefixed("", "local"));
        assert_eq!(word("gp: ?x"), prefixed("gp", ""));
        assert_eq!(word("ex:o..1"), prefixed("ex", "o"));
    }

    #[test]
    fn variables_take_either_sigil_and_need_a_name() {
        let mut scan = Scan::new("?x $y-1 ?.", 1);
        assert_eq!(scan.lex_variable().unwrap(), "x");
        scan.skip_whitespace();
        assert_eq!(scan.lex_variable().unwrap(), "y-1");
        scan.skip_whitespace();
        let error = scan.lex_variable().unwrap_err();
        assert_eq!(error.message, "empty variable name");
        assert_eq!(scan.peek(), Some('.'), "the sigil is consumed");
    }

    #[test]
    fn columns_count_characters_from_the_line_start() {
        let mut scan = Scan::new("<http://ex/é> \n  \"été\" x", 7);
        scan.lex_iri().unwrap();
        assert_eq!((scan.line(), scan.column()), (7, 14));
        scan.skip_whitespace();
        assert_eq!((scan.line(), scan.column()), (8, 3));
        scan.lex_literal().unwrap();
        assert_eq!((scan.line(), scan.column()), (8, 8));
        let error = scan.error("here");
        assert_eq!(error.to_string(), "line 8: here (in: \"  \\\"été\\\" x\")");
    }

    #[test]
    fn a_raw_line_break_ends_no_literal() {
        let mut scan = Scan::new("\"open\nnext line\"", 1);
        let error = scan.lex_literal().unwrap_err();
        assert_eq!(
            (error.line, error.message.as_str()),
            (1, "unterminated literal")
        );
    }

    #[test]
    fn borrowed_when_no_escapes() {
        let triple = lex_ntriples_line("<http://ex/a> <http://ex/p> \"plain\" .", 1)
            .unwrap()
            .unwrap();
        assert!(matches!(triple.subject, TermRef::Iri(Cow::Borrowed(_))));
        assert!(matches!(
            triple.object,
            TermRef::Literal {
                lexical: Cow::Borrowed(_),
                ..
            }
        ));
    }

    #[test]
    fn malformed_language_tags_are_rejected() {
        for tag in ["", "-en", "en-", "en--us", "7up"] {
            let line = format!("<http://ex/a> <http://ex/p> \"x\"@{tag} .");
            let error = lex_ntriples_line(&line, 1).expect_err("must reject @{tag}");
            assert!(
                error.message.contains("language tag"),
                "unexpected error for @{tag}: {}",
                error.message
            );
        }
        // '_' is not a tag character: the tag ends at "en" and the stray
        // '_' makes the statement malformed.
        assert!(lex_ntriples_line("<http://ex/a> <http://ex/p> \"x\"@en_US .", 1).is_err());
        // Well-formed tags (including multi-subtag, digits after the first
        // subtag) still lex.
        for tag in ["en", "de-AT", "zh-Hans-CN", "en-1997"] {
            let line = format!("<http://ex/a> <http://ex/p> \"x\"@{tag} .");
            assert!(lex_ntriples_line(&line, 1).is_ok(), "@{tag} should lex");
        }
    }

    #[test]
    fn xsd_string_datatype_is_suppressed_in_key() {
        let line = format!(
            "<http://a> <http://p> \"x\"^^<{}> .",
            inferray_model::term::XSD_STRING
        );
        let triple = lex_ntriples_line(&line, 1).unwrap().unwrap();
        let mut key = String::new();
        triple.object.write_ntriples(&mut key);
        assert_eq!(key, "\"x\"");
    }

    #[test]
    fn ntriples_chunks_preserve_text_and_line_numbers() {
        let doc: String = (0..100)
            .map(|i| format!("<http://ex/s{i}> <http://ex/p> <http://ex/o{i}> .\n"))
            .collect();
        for n in [1, 2, 3, 7, 100, 1000] {
            let chunks = split_ntriples(&doc, n);
            let rejoined: String = chunks.iter().map(|c| c.text).collect();
            assert_eq!(rejoined, doc);
            let mut expected_line = 1usize;
            for chunk in &chunks {
                assert_eq!(chunk.first_line, expected_line);
                expected_line += chunk.text.bytes().filter(|&b| b == b'\n').count();
            }
        }
    }

    #[test]
    fn chunk_errors_carry_global_line_numbers() {
        let mut doc: String = (0..50)
            .map(|i| format!("<http://ex/s{i}> <http://ex/p> <http://ex/o{i}> .\n"))
            .collect();
        doc.push_str("<broken\n");
        let chunks = split_ntriples(&doc, 4);
        let mut error = None;
        for chunk in chunks {
            if let Err(e) = lex_ntriples_chunk(chunk, |_| {}) {
                error = Some(e);
                break;
            }
        }
        assert_eq!(error.expect("must fail").line, 51);
    }

    #[test]
    fn turtle_prologue_and_body_split() {
        let doc = "\
@prefix ex: <http://ex.org/> . # comment
@base <http://base.org/> .

ex:a ex:p ex:b .
ex:c ex:p \"a . literal\" ;
     ex:q <http://x.org/v.2#frag> .
ex:d ex:p 1.5 .
";
        let prologue = lex_turtle_prologue(doc).unwrap();
        assert_eq!(prologue.prefixes["ex"], "http://ex.org/");
        assert_eq!(prologue.base, "http://base.org/");
        let body = &doc[prologue.body_offset..];
        assert!(body.starts_with("ex:a"));
        let chunks = split_turtle_body(body, prologue.body_first_line, 3).unwrap();
        let rejoined: String = chunks.iter().map(|c| c.text).collect();
        assert_eq!(rejoined, body);
        assert_eq!(chunks.len(), 3);
        // Statement boundaries: each chunk lexes independently.
        let mut total = 0usize;
        for chunk in chunks {
            let mut lexer =
                TurtleChunkLexer::new(chunk, prologue.prefixes.clone(), prologue.base.clone());
            while lexer.next_statement(|_| total += 1).unwrap() {}
        }
        assert_eq!(total, 4);
    }

    #[test]
    fn mid_body_directives_disable_chunking() {
        let doc = "\
@prefix ex: <http://ex.org/> .
ex:a ex:p ex:b .
@prefix other: <http://other.org/> .
ex:c ex:p other:d .
";
        let prologue = lex_turtle_prologue(doc).unwrap();
        let body = &doc[prologue.body_offset..];
        assert!(split_turtle_body(body, prologue.body_first_line, 4).is_none());
        // The single-chunk lexer still handles the directive in stream order.
        let chunk = Chunk {
            text: body,
            first_line: prologue.body_first_line,
        };
        let mut lexer = TurtleChunkLexer::new(chunk, prologue.prefixes, prologue.base);
        let mut triples = Vec::new();
        while lexer
            .next_statement(|t| triples.push(t.into_triple()))
            .unwrap()
        {}
        assert_eq!(triples.len(), 2);
        assert_eq!(
            triples[1].object,
            inferray_model::Term::iri("http://other.org/d")
        );
    }

    #[test]
    fn directives_glued_to_a_terminator_disable_chunking() {
        // The '.' before '@prefix' is not followed by whitespace, so the
        // boundary scan cannot see a statement start there — the directive
        // probe must still catch it anywhere at top level.
        for glued in [
            "ex:a ex:p ex:b .@prefix zz: <http://zz.org/> .\nzz:c zz:q zz:d .\n",
            "ex:a ex:p <http://x.org/> .@base <http://b.org/> .\n<y> ex:p ex:b .\n",
            "ex:a ex:p \"lit\" .PREFIX zz: <http://zz.org/>\nzz:c zz:q zz:d .\n",
        ] {
            assert!(
                split_turtle_body(glued, 1, 4).is_none(),
                "must fall back to a single chunk for {glued:?}"
            );
        }
        // Names merely *containing* keyword letters keep chunking enabled.
        let harmless = "ex:prefixed ex:prefix ex:base .\nex:a ex:p ex:b .\n";
        assert!(split_turtle_body(harmless, 1, 4).is_some());
    }

    #[test]
    fn dots_inside_names_literals_and_iris_do_not_split_statements() {
        let body = "ex:v1.2 ex:p \"dot . dot\" . ex:a ex:p <http://x/y.z> .";
        let chunks = split_turtle_body(body, 1, 8).unwrap();
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].text.contains("v1.2"));
        assert!(chunks[1].text.contains("y.z"));
    }

    #[test]
    fn turtle_line_numbers_track_newlines() {
        let doc = "@prefix ex: <http://ex.org/> .\n\nex:a ex:p ex:b .\nex:broken ex:p [ ] .\n";
        let prologue = lex_turtle_prologue(doc).unwrap();
        let chunk = Chunk {
            text: &doc[prologue.body_offset..],
            first_line: prologue.body_first_line,
        };
        let mut lexer = TurtleChunkLexer::new(chunk, prologue.prefixes, prologue.base);
        let mut count = 0usize;
        let error = loop {
            match lexer.next_statement(|_| count += 1) {
                Ok(true) => {}
                Ok(false) => panic!("expected an error"),
                Err(e) => break e,
            }
        };
        assert_eq!(count, 1);
        assert_eq!(error.line, 4, "error on the 4th document line");
        assert!(error.message.contains("not supported"));
    }
}
