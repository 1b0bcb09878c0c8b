//! Streaming N-Triples parser.
//!
//! N-Triples is line oriented: one statement per line, terminated by `.`,
//! with `#` comments and blank lines allowed. Terms are written in their
//! canonical form (`<iri>`, `_:label`, `"literal"`, `"literal"@lang`,
//! `"literal"^^<datatype>`), which is also exactly what
//! [`inferray_model::Term`]'s `Display` produces — so parsing and writing
//! round-trip.
//!
//! Since the streaming-ingest refactor the actual lexing lives in
//! [`crate::lex`], which works on borrowed slices and is chunk-splittable for
//! the parallel loader; the functions here are thin compatibility wrappers
//! that collect owned [`Triple`]s.

use crate::lex::lex_ntriples_line;
use inferray_model::Triple;
use std::fmt;

/// A parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (for Turtle: the line the statement failed on).
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
    /// The text of the offending line (empty when the error is about a
    /// whole statement rather than a place in it).
    pub context: String,
}

impl ParseError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
            context: String::new(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)?;
        if !self.context.is_empty() {
            write!(f, " (in: {:?})", self.context)?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole N-Triples document, returning the triples in document
/// order.
pub fn parse_ntriples(input: &str) -> Result<Vec<Triple>, ParseError> {
    let mut triples = Vec::new();
    for (i, raw_line) in input.lines().enumerate() {
        if let Some(triple) = lex_ntriples_line(raw_line, i + 1)? {
            triples.push(triple.into_triple());
        }
    }
    Ok(triples)
}

/// Parses a single N-Triples line. Returns `Ok(None)` for blank lines and
/// comments. `line_number` is only used for error reporting.
pub fn parse_ntriples_line(line: &str, line_number: usize) -> Result<Option<Triple>, ParseError> {
    Ok(lex_ntriples_line(line, line_number)?.map(|t| t.into_triple()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::{vocab, Term};

    #[test]
    fn parses_simple_document() {
        let doc = "<http://ex/human> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/mammal> .\n\
                   # a comment\n\
                   \n\
                   <http://ex/Bart> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .";
        let triples = parse_ntriples(doc).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(triples[0].predicate, Term::iri(vocab::RDFS_SUB_CLASS_OF));
        assert_eq!(triples[1].subject, Term::iri("http://ex/Bart"));
    }

    #[test]
    fn parses_blank_nodes_and_literals() {
        let doc = r#"_:b0 <http://ex/label> "hello world" .
_:b1 <http://ex/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b2 <http://ex/name> "José"@es ."#;
        let triples = parse_ntriples(doc).unwrap();
        assert_eq!(triples.len(), 3);
        assert_eq!(triples[0].subject, Term::blank("b0"));
        assert_eq!(triples[0].object, Term::plain_literal("hello world"));
        assert_eq!(
            triples[1].object,
            Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer")
        );
        assert_eq!(triples[2].object, Term::lang_literal("José", "es"));
    }

    #[test]
    fn parses_escapes_in_literals() {
        let doc = r#"<http://ex/a> <http://ex/p> "line1\nline2 \"quoted\" é" ."#;
        let triples = parse_ntriples(doc).unwrap();
        assert_eq!(
            triples[0].object,
            Term::plain_literal("line1\nline2 \"quoted\" é")
        );
    }

    #[test]
    fn round_trips_through_display() {
        let doc = r#"<http://ex/a> <http://ex/p> "x\ty"@en-GB .
_:n1 <http://ex/q> <http://ex/b> ."#;
        let triples = parse_ntriples(doc).unwrap();
        let rendered: String = triples.iter().map(|t| format!("{t}\n")).collect();
        let reparsed = parse_ntriples(&rendered).unwrap();
        assert_eq!(triples, reparsed);
    }

    #[test]
    fn blank_line_and_comment_only_lines_are_skipped() {
        assert_eq!(parse_ntriples("").unwrap().len(), 0);
        assert_eq!(parse_ntriples("   \n# only a comment\n").unwrap().len(), 0);
        assert!(parse_ntriples_line("  # c", 1).unwrap().is_none());
    }

    #[test]
    fn trailing_comment_after_dot_is_allowed() {
        let t = parse_ntriples_line("<http://a> <http://p> <http://b> . # done", 3).unwrap();
        assert!(t.is_some());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let doc = "<http://ex/a> <http://ex/p> <http://ex/b> .\n<http://ex/a> <http://ex/p> .";
        let err = parse_ntriples(doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_malformed_statements() {
        for bad in [
            "<http://a> <http://p> <http://b>",        // missing dot
            "<http://a> <http://p> <http://b> . junk", // trailing garbage
            "<http://a <http://p> <http://b> .",       // unterminated IRI
            "\"lit\" <http://p> <http://b> .",         // literal subject
            "<http://a> _:b <http://c> .",             // blank predicate
            "<http://a> <http://p> \"x\"@ .",          // empty language tag
        ] {
            assert!(
                parse_ntriples_line(bad, 1).is_err(),
                "expected an error for {bad:?}"
            );
        }
    }

    #[test]
    fn unicode_escape_in_iri() {
        let t = parse_ntriples_line("<http://ex/caf\\u00e9> <http://p> <http://o> .", 1)
            .unwrap()
            .unwrap();
        assert_eq!(t.subject, Term::iri("http://ex/café"));
    }
}
