//! RDF terms: IRIs, blank nodes and literals.
//!
//! Terms follow the RDF 1.1 abstract syntax. The [`Display`](std::fmt::Display)
//! implementation renders the canonical N-Triples form, which is what the
//! serializer in `inferray-parser` emits and what the dictionary uses as the
//! interning key, so a term always round-trips through its textual form.

use crate::block::first_iri_special;
use std::borrow::Cow;
use std::fmt;

/// The RDF 1.1 XML Schema string datatype, implied when a literal carries no
/// explicit datatype and no language tag.
pub const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";

/// The datatype of language-tagged strings.
pub const RDF_LANG_STRING: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString";

/// Coarse classification of a [`Term`], useful for validity checks
/// (e.g. a predicate must be an IRI, a subject must not be a literal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermKind {
    /// An IRI reference (RDF URI reference).
    Iri,
    /// A blank node, identified by a document-scoped label.
    BlankNode,
    /// A literal (plain, typed or language-tagged).
    Literal,
}

impl TermKind {
    /// The kind of the term whose canonical N-Triples form is `text`, read
    /// off its first byte (`<`, `_` or `"`).
    pub fn of_ntriples(text: &str) -> Option<TermKind> {
        match text.as_bytes().first()? {
            b'<' => Some(TermKind::Iri),
            b'_' => Some(TermKind::BlankNode),
            b'"' => Some(TermKind::Literal),
            _ => None,
        }
    }
}

/// An RDF term.
///
/// The three variants mirror the three disjoint subsets of RDF terms
/// described in the paper's introduction: URIs/IRIs, blank nodes and
/// literals.
///
/// ```
/// use inferray_model::Term;
///
/// let human = Term::iri("http://example.org/human");
/// let label = Term::plain_literal("a featherless biped");
/// assert!(human.is_iri());
/// assert_eq!(label.to_string(), "\"a featherless biped\"");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI, stored without the surrounding angle brackets.
    Iri(String),
    /// A blank node label, stored without the leading `_:`.
    BlankNode(String),
    /// A literal value.
    Literal {
        /// The lexical form (unescaped).
        lexical: String,
        /// The datatype IRI, if any. `None` means `xsd:string` (plain) unless
        /// a language tag is present.
        datatype: Option<String>,
        /// The language tag (for `rdf:langString` literals), lower-cased.
        language: Option<String>,
    },
}

impl Term {
    /// Builds an IRI term.
    pub fn iri(iri: impl Into<String>) -> Self {
        Term::Iri(iri.into())
    }

    /// Builds a blank-node term from its label (without the `_:` prefix).
    pub fn blank(label: impl Into<String>) -> Self {
        Term::BlankNode(label.into())
    }

    /// Builds a plain (untyped, untagged) string literal.
    pub fn plain_literal(lexical: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: None,
            language: None,
        }
    }

    /// Builds a typed literal.
    pub fn typed_literal(lexical: impl Into<String>, datatype: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: Some(datatype.into()),
            language: None,
        }
    }

    /// Builds a language-tagged literal. The language tag is lower-cased, as
    /// required for RDF term equality.
    pub fn lang_literal(lexical: impl Into<String>, language: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: None,
            language: Some(language.into().to_ascii_lowercase()),
        }
    }

    /// Builds an integer literal typed as `xsd:integer`.
    pub fn integer(value: i64) -> Self {
        Term::typed_literal(value.to_string(), crate::vocab::XSD_INTEGER)
    }

    /// The coarse kind of this term.
    pub fn kind(&self) -> TermKind {
        match self {
            Term::Iri(_) => TermKind::Iri,
            Term::BlankNode(_) => TermKind::BlankNode,
            Term::Literal { .. } => TermKind::Literal,
        }
    }

    /// `true` if this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// `true` if this term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::BlankNode(_))
    }

    /// `true` if this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// The IRI string if this term is an IRI, `None` otherwise.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// `true` if this term may appear in the subject position of a triple
    /// (IRIs and blank nodes).
    pub fn valid_subject(&self) -> bool {
        !self.is_literal()
    }

    /// `true` if this term may appear in the predicate position of a triple
    /// (IRIs only).
    pub fn valid_predicate(&self) -> bool {
        self.is_iri()
    }

    /// The borrowed view of this term (every slice `Cow::Borrowed`).
    pub fn as_term_ref(&self) -> TermRef<'_> {
        match self {
            Term::Iri(iri) => TermRef::Iri(Cow::Borrowed(iri)),
            Term::BlankNode(label) => TermRef::Blank(Cow::Borrowed(label)),
            Term::Literal {
                lexical,
                datatype,
                language,
            } => TermRef::Literal {
                lexical: Cow::Borrowed(lexical),
                datatype: datatype.as_deref().map(Cow::Borrowed),
                language: language.as_deref().map(Cow::Borrowed),
            },
        }
    }

    /// Appends the canonical N-Triples form — exactly what
    /// [`Display`](std::fmt::Display) renders — to `out`, without the `fmt`
    /// machinery or intermediate allocations (see
    /// [`TermRef::write_ntriples`]).
    pub fn write_ntriples(&self, out: &mut String) {
        self.as_term_ref().write_ntriples(out);
    }

    /// The canonical N-Triples form as an owned string (an allocation-aware
    /// alternative to `to_string()` for hot paths).
    pub fn to_ntriples(&self) -> String {
        let mut out = String::new();
        self.write_ntriples(&mut out);
        out
    }
}

/// A borrowed RDF term: the zero-copy analogue of [`Term`].
///
/// The lexers yield it over slices of the input document and the dictionary
/// yields it over slices of its text arena. Every `Cow` is `Borrowed` when
/// the underlying slice already is the wanted form and `Owned` only when a
/// normalization allocated (escape sequences, prefixed-name expansion, base
/// resolution, language lowercasing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermRef<'a> {
    /// An IRI without the angle brackets.
    Iri(Cow<'a, str>),
    /// A blank node label without the `_:` prefix.
    Blank(Cow<'a, str>),
    /// A literal, mirroring [`Term::Literal`].
    Literal {
        /// The unescaped lexical form.
        lexical: Cow<'a, str>,
        /// Datatype IRI, if any.
        datatype: Option<Cow<'a, str>>,
        /// Language tag (already lower-cased), if any.
        language: Option<Cow<'a, str>>,
    },
}

impl<'a> TermRef<'a> {
    /// The coarse kind of this term.
    pub fn kind(&self) -> TermKind {
        match self {
            TermRef::Iri(_) => TermKind::Iri,
            TermRef::Blank(_) => TermKind::BlankNode,
            TermRef::Literal { .. } => TermKind::Literal,
        }
    }

    /// `true` when the term is an IRI (the only kind valid in predicate
    /// position).
    pub fn is_iri(&self) -> bool {
        matches!(self, TermRef::Iri(_))
    }

    /// `true` when the term is a literal (invalid in subject position).
    pub fn is_literal(&self) -> bool {
        matches!(self, TermRef::Literal { .. })
    }

    /// The IRI string if this term is an IRI, `None` otherwise.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            TermRef::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// Converts into an owned [`Term`].
    pub fn into_term(self) -> Term {
        match self {
            TermRef::Iri(iri) => Term::Iri(iri.into_owned()),
            TermRef::Blank(label) => Term::BlankNode(label.into_owned()),
            TermRef::Literal {
                lexical,
                datatype,
                language,
            } => Term::Literal {
                lexical: lexical.into_owned(),
                datatype: datatype.map(Cow::into_owned),
                language: language.map(Cow::into_owned),
            },
        }
    }

    /// Clones into an owned [`Term`].
    pub fn to_term(&self) -> Term {
        self.clone().into_term()
    }

    /// Appends the canonical N-Triples form — exactly what `Term`'s
    /// [`Display`](std::fmt::Display) renders, i.e. the dictionary's
    /// interning key — to `out`, without the `fmt` machinery or intermediate
    /// allocations.
    pub fn write_ntriples(&self, out: &mut String) {
        match self {
            TermRef::Iri(iri) => {
                out.reserve(iri.len() + 2);
                let _ = write_iri_ref(out, iri);
            }
            TermRef::Blank(label) => {
                out.reserve(label.len() + 2);
                out.push_str("_:");
                out.push_str(label);
            }
            TermRef::Literal {
                lexical,
                datatype,
                language,
            } => {
                out.reserve(lexical.len() + 2);
                out.push('"');
                let mut rest: &str = lexical;
                // Everything N-Triples escapes is ASCII, so cutting at such
                // a byte keeps both sides valid UTF-8.
                while let Some(at) = rest.bytes().position(needs_ntriples_escape) {
                    out.push_str(&rest[..at]);
                    out.push_str(match rest.as_bytes()[at] {
                        b'\\' => "\\\\",
                        b'"' => "\\\"",
                        b'\n' => "\\n",
                        b'\r' => "\\r",
                        _ => "\\t",
                    });
                    rest = &rest[at + 1..];
                }
                out.push_str(rest);
                out.push('"');
                if let Some(lang) = language {
                    out.push('@');
                    out.push_str(lang);
                } else if let Some(dt) = datatype {
                    if dt != XSD_STRING {
                        out.push_str("^^");
                        let _ = write_iri_ref(out, dt);
                    }
                }
            }
        }
    }

    /// Reads a term back from its canonical N-Triples form — the inverse of
    /// [`TermRef::write_ntriples`], which is how the dictionary's arena text
    /// becomes a term again. Borrows from `text` except for a lexical form
    /// that contains escapes. `None` when `text` is not a canonical form.
    ///
    /// The canonical form drops what never distinguished two terms: an
    /// explicit `xsd:string` datatype and a datatype beside a language tag
    /// come back as `None`.
    pub fn from_ntriples(text: &'a str) -> Option<TermRef<'a>> {
        match *text.as_bytes().first()? {
            b'<' => Some(TermRef::Iri(unescape_iri(text[1..].strip_suffix('>')?)?)),
            b'_' => Some(TermRef::Blank(Cow::Borrowed(text.strip_prefix("_:")?))),
            b'"' => {
                let body = &text[1..];
                // The closing quote is the first one an escape does not own.
                let mut escaped = false;
                let mut close = None;
                for (at, byte) in body.bytes().enumerate() {
                    match byte {
                        _ if escaped => escaped = false,
                        b'\\' => escaped = true,
                        b'"' => {
                            close = Some(at);
                            break;
                        }
                        _ => {}
                    }
                }
                let close = close?;
                let raw = &body[..close];
                let lexical = if raw.contains('\\') {
                    Cow::Owned(unescape_ntriples(raw)?)
                } else {
                    Cow::Borrowed(raw)
                };
                let suffix = &body[close + 1..];
                let (datatype, language) = if suffix.is_empty() {
                    (None, None)
                } else if let Some(lang) = suffix.strip_prefix('@') {
                    (None, Some(Cow::Borrowed(lang)))
                } else {
                    let dt = suffix.strip_prefix("^^<")?.strip_suffix('>')?;
                    (Some(unescape_iri(dt)?), None)
                };
                Some(TermRef::Literal {
                    lexical,
                    datatype,
                    language,
                })
            }
            _ => None,
        }
    }
}

/// Writes `iri` as an N-Triples `IRIREF`: between `<` and `>`, with every
/// character the grammar forbids there — `#x00–#x20` and `` <>"{}|^`\ `` —
/// spelled `\u00XX`, so the text reads back as the same IRI. The one IRI
/// speller of [`TermRef::write_ntriples`] (the dictionary's interning key
/// and the batch writer's bytes) and of `Term`'s `Display`. A plain IRI,
/// nearly every one, costs a block scan and one `write_str`.
fn write_iri_ref<W: fmt::Write>(out: &mut W, iri: &str) -> fmt::Result {
    out.write_char('<')?;
    let mut rest = iri;
    // Every forbidden character is ASCII, so cutting at one keeps both
    // sides valid UTF-8.
    while let Some(at) = first_iri_special(rest.as_bytes()) {
        out.write_str(&rest[..at])?;
        write!(out, "\\u{:04X}", rest.as_bytes()[at])?;
        rest = &rest[at + 1..];
    }
    out.write_str(rest)?;
    out.write_char('>')
}

/// The IRI between the delimiters of an `IRIREF`: borrowed unless it holds
/// an escape. `None` on a malformed escape.
fn unescape_iri(raw: &str) -> Option<Cow<'_, str>> {
    if raw.contains('\\') {
        unescape_ntriples(raw).map(Cow::Owned)
    } else {
        Some(Cow::Borrowed(raw))
    }
}

/// The bytes [`TermRef::write_ntriples`] escapes inside a quoted literal.
fn needs_ntriples_escape(byte: u8) -> bool {
    matches!(byte, b'\\' | b'"' | b'\n' | b'\r' | b'\t')
}

/// `true` when `tag` has the language-tag shape the N-Triples grammar
/// requires: `[a-zA-Z]+ ('-' [a-zA-Z0-9]+)*` (the BCP 47 well-formedness
/// skeleton). Rejects the empty tag, non-ASCII letters, and leading,
/// trailing or doubled `-` — both parsers (`inferray-parser`'s lexer and
/// `inferray-query`'s SPARQL tokenizer) enforce this same shape so a tag
/// either round-trips everywhere or parses nowhere.
pub fn valid_language_tag(tag: &str) -> bool {
    let mut parts = tag.split('-');
    let primary = parts.next().unwrap_or("");
    if primary.is_empty() || !primary.bytes().all(|b| b.is_ascii_alphabetic()) {
        return false;
    }
    parts.all(|subtag| !subtag.is_empty() && subtag.bytes().all(|b| b.is_ascii_alphanumeric()))
}

/// Escapes a string for inclusion in an N-Triples quoted literal or IRI.
///
/// Only the escapes required by the N-Triples grammar are produced:
/// backslash, double quote, newline, carriage return and tab.
pub fn escape_ntriples(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`escape_ntriples`]; also understands `\u` / `\U` escapes.
///
/// Returns `None` when the escape sequence is malformed.
pub fn unescape_ntriples(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            '"' => out.push('"'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            'U' => {
                let hex: String = chars.by_ref().take(8).collect();
                if hex.len() != 8 {
                    return None;
                }
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

impl fmt::Display for Term {
    /// Formats the term in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => write_iri_ref(f, iri),
            Term::BlankNode(label) => write!(f, "_:{}", label),
            Term::Literal {
                lexical,
                datatype,
                language,
            } => {
                write!(f, "\"{}\"", escape_ntriples(lexical))?;
                if let Some(lang) = language {
                    write!(f, "@{}", lang)
                } else if let Some(dt) = datatype {
                    if dt == XSD_STRING {
                        Ok(())
                    } else {
                        f.write_str("^^")?;
                        write_iri_ref(f, dt)
                    }
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_display_uses_angle_brackets() {
        let t = Term::iri("http://example.org/a");
        assert_eq!(t.to_string(), "<http://example.org/a>");
    }

    #[test]
    fn write_ntriples_agrees_with_display_for_every_term_shape() {
        // `write_ntriples` is the fmt-free fast path for the interning key;
        // it must render byte-for-byte what `Display` renders.
        let terms = [
            Term::iri("http://example.org/a"),
            Term::blank("b0"),
            Term::plain_literal("hi"),
            Term::plain_literal("quotes \" and \\ and \n\r\t"),
            Term::typed_literal("5", "http://www.w3.org/2001/XMLSchema#integer"),
            Term::typed_literal("plain", XSD_STRING),
            Term::lang_literal("chat", "fr"),
            Term::Literal {
                lexical: "both".into(),
                datatype: Some(RDF_LANG_STRING.into()),
                language: Some("en".into()),
            },
        ];
        for term in &terms {
            assert_eq!(term.to_ntriples(), term.to_string(), "term {term:?}");
        }
    }

    #[test]
    fn from_ntriples_inverts_write_ntriples() {
        let canonical = [
            Term::iri("http://example.org/a"),
            Term::iri("odd>iri"),
            Term::blank("b0"),
            Term::plain_literal(""),
            Term::plain_literal("quotes \" and \\ and \n\r\t and é\u{1}"),
            Term::plain_literal("ends with a backslash \\"),
            Term::typed_literal("5", "http://www.w3.org/2001/XMLSchema#integer"),
            Term::lang_literal("chat \"noir\"", "fr"),
        ];
        for term in &canonical {
            let text = term.to_ntriples();
            let view = TermRef::from_ntriples(&text).expect("canonical form parses");
            assert_eq!(view.kind(), term.kind());
            assert_eq!(TermKind::of_ntriples(&text), Some(term.kind()));
            assert_eq!(&view.into_term(), term, "text {text}");
        }
        // What the canonical form drops comes back as `None`.
        let view = Term::typed_literal("plain", XSD_STRING).to_ntriples();
        assert_eq!(
            TermRef::from_ntriples(&view).unwrap().into_term(),
            Term::plain_literal("plain")
        );
        for bad in [
            "",
            "x",
            "<open",
            "_b",
            "\"open",
            "\"x\"^^<open",
            "\"x\"junk",
        ] {
            assert!(TermRef::from_ntriples(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn an_iri_spells_every_forbidden_character_as_an_escape() {
        let iri = "http://ex/a b<c>d\"e{f}g|h^i`j\\k\u{0}\u{1f}é語=?_~";
        let expected = "<http://ex/a\\u0020b\\u003Cc\\u003Ed\\u0022e\\u007Bf\\u007Dg\\u007Ch\
                        \\u005Ei\\u0060j\\u005Ck\\u0000\\u001Fé語=?_~>";
        for term in [Term::iri(iri), Term::typed_literal("5", iri)] {
            let text = term.to_ntriples();
            assert_eq!(text, term.to_string());
            assert!(text.contains(expected), "{text}");
            let view = TermRef::from_ntriples(&text).expect("the spelling reads back");
            assert_eq!(view.into_term(), term);
        }
        // A plain IRI is its own spelling, and reads back borrowed.
        let text = Term::iri("http://ex/a#b?c=d&e_f~g").to_ntriples();
        assert_eq!(text, "<http://ex/a#b?c=d&e_f~g>");
        assert!(matches!(
            TermRef::from_ntriples(&text),
            Some(TermRef::Iri(Cow::Borrowed(_)))
        ));
        assert!(TermRef::from_ntriples("<a\\u00zzb>").is_none());
    }

    #[test]
    fn blank_node_display_uses_underscore_colon() {
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
    }

    #[test]
    fn plain_literal_display() {
        assert_eq!(Term::plain_literal("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn typed_literal_display() {
        let t = Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer");
        assert_eq!(
            t.to_string(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn xsd_string_datatype_is_suppressed() {
        let t = Term::typed_literal("x", XSD_STRING);
        assert_eq!(t.to_string(), "\"x\"");
    }

    #[test]
    fn lang_literal_display_and_lowercasing() {
        let t = Term::lang_literal("bonjour", "FR");
        assert_eq!(t.to_string(), "\"bonjour\"@fr");
    }

    #[test]
    fn language_tag_shape() {
        for good in ["en", "de-AT", "zh-Hans-CN", "x-klingon", "a", "en-1997"] {
            assert!(valid_language_tag(good), "{good} should be accepted");
        }
        for bad in [
            "",
            "-en",
            "en-",
            "en--us",
            "1en",
            "en_US",
            "français",
            "én",
            "e n",
            "42",
        ] {
            assert!(!valid_language_tag(bad), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn escaping_round_trip() {
        let raw = "line1\nline2\t\"quoted\" back\\slash";
        let escaped = escape_ntriples(raw);
        assert!(!escaped.contains('\n'));
        assert_eq!(unescape_ntriples(&escaped).unwrap(), raw);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(unescape_ntriples("\\u00e9").unwrap(), "é");
        assert_eq!(unescape_ntriples("\\U0001F600").unwrap(), "😀");
        assert!(unescape_ntriples("\\u00z9").is_none());
        assert!(unescape_ntriples("\\q").is_none());
    }

    #[test]
    fn kinds_and_position_validity() {
        assert_eq!(Term::iri("x").kind(), TermKind::Iri);
        assert_eq!(Term::blank("x").kind(), TermKind::BlankNode);
        assert_eq!(Term::plain_literal("x").kind(), TermKind::Literal);
        assert!(Term::iri("x").valid_subject());
        assert!(Term::blank("x").valid_subject());
        assert!(!Term::plain_literal("x").valid_subject());
        assert!(Term::iri("x").valid_predicate());
        assert!(!Term::blank("x").valid_predicate());
    }

    #[test]
    fn integer_helper() {
        let t = Term::integer(-7);
        assert_eq!(
            t.to_string(),
            "\"-7\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn term_ordering_is_total_and_stable() {
        let mut v = [
            Term::plain_literal("z"),
            Term::iri("a"),
            Term::blank("b"),
            Term::iri("b"),
        ];
        v.sort();
        let sorted: Vec<_> = v.iter().map(|t| t.to_string()).collect();
        assert_eq!(sorted, vec!["<a>", "<b>", "_:b", "\"z\""]);
    }
}
