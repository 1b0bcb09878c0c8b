//! The shape-file front end: the grammar of the textual SHACL-lite syntax,
//! written on the tokenizer and statement-level parser core `.rules` and
//! `.shapes` share ([`crate::syntax`]).
//!
//! ```text
//! @prefix ex: <http://example.org/> .
//!
//! shape Person targets class ex:Person {
//!   ex:name  count [1..1] ;
//!   ex:age   count [0..1] datatype <http://www.w3.org/2001/XMLSchema#integer> ;
//!   ex:knows class ex:Person node Person ;
//! } .
//! ```
//!
//! The grammar reuses the rule-file conventions (`@prefix` directives,
//! `<absolute-iri>` / `prefix:local` terms, `#` comments, `.`-terminated
//! statements) and adds the shape block: a target selector (`class C`,
//! `subjects-of p`, or the whole-store fallback `all`) followed by
//! `;`-terminated constraints, each a property path and one or more clauses
//! (`count [min..max]`, `datatype`, `class`, `in ( … )`, `node NAME`). The
//! values of an `in ( … )` list are RDF terms — IRIs, prefixed names,
//! literals, blank node labels — spelt as the loader and the query parser
//! spell them ("Term syntax" in `docs/ingest.md`), so a listed value is the
//! stored term. Parse errors are reported as positioned `SH001` diagnostics
//! (unknown prefixes as `SH002`) and recovery skips to the next `.` so one
//! bad shape does not hide the findings in the rest of the file.

use crate::analysis::{Diagnostic, Span};
use crate::syntax::{Parser, Tok};
use inferray_model::Term;

/// The target selector of a shape: which nodes become focus nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymTarget {
    /// `targets class C` — every node with `rdf:type C`.
    Class(String),
    /// `targets subjects-of p` — every node with at least one `p` pair.
    SubjectsOf(String),
    /// `targets all` — every node that occurs in subject position.
    All,
}

/// One clause of a constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymClause {
    /// `count [min..max]` (`*` for an open maximum).
    Count {
        /// Minimum number of values (inclusive).
        min: u64,
        /// Maximum number of values (inclusive); `None` means unbounded.
        max: Option<u64>,
        /// Position of the `count` keyword.
        span: Span,
    },
    /// `datatype <iri>` — every value must be a literal of this datatype.
    Datatype {
        /// The required datatype IRI.
        iri: String,
        /// Position of the `datatype` keyword.
        span: Span,
    },
    /// `class C` — every value must have `rdf:type C`.
    Class {
        /// The required class IRI.
        iri: String,
        /// Position of the `class` keyword.
        span: Span,
    },
    /// `in ( v… )` — every value must be one of the enumerated terms.
    In {
        /// The allowed values.
        values: Vec<Term>,
        /// Position of the `in` keyword.
        span: Span,
    },
    /// `node NAME` — every value must conform to the named shape.
    Node {
        /// The referenced shape name.
        name: String,
        /// Position of the `node` keyword.
        span: Span,
    },
}

impl SymClause {
    /// The position of the clause keyword.
    pub fn span(&self) -> Span {
        match self {
            SymClause::Count { span, .. }
            | SymClause::Datatype { span, .. }
            | SymClause::Class { span, .. }
            | SymClause::In { span, .. }
            | SymClause::Node { span, .. } => *span,
        }
    }
}

/// One constraint of a shape: a property path and its clauses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymConstraint {
    /// The property path (an absolute IRI).
    pub path: String,
    /// Position of the path term.
    pub span: Span,
    /// The clauses, in written order (at least one).
    pub clauses: Vec<SymClause>,
}

/// A parsed shape: `shape NAME targets T { constraints } .`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymShape {
    /// The declared shape name.
    pub name: String,
    /// Position of the `shape` keyword.
    pub span: Span,
    /// The target selector.
    pub target: SymTarget,
    /// Position of the target selector keyword.
    pub target_span: Span,
    /// The constraints, in written order.
    pub constraints: Vec<SymConstraint>,
}

/// One IRI term; `path_position` admits the `a` shorthand for `rdf:type`.
fn parse_iri(p: &mut Parser, path_position: bool) -> Option<String> {
    if let Some(iri) = p.take_iri(path_position) {
        return Some(iri);
    }
    let hint = if p.at_bare_a() {
        " (`a` is only valid in path position)"
    } else {
        ""
    };
    p.error_here(format!(
        "expected an IRI (`<iri>` or `prefix:local`), found {}{hint}",
        p.tok.describe()
    ));
    None
}

/// A count bound: a digit run that fits a `u64`.
fn count_bound(tok: &Tok) -> Option<u64> {
    match tok {
        Tok::Ident(digits) if digits.bytes().all(|b| b.is_ascii_digit()) => digits.parse().ok(),
        _ => None,
    }
}

/// `count [min..max]` with the lookahead on `count`.
fn parse_count(p: &mut Parser, span: Span) -> Option<SymClause> {
    p.advance(); // past `count`
    if p.tok != Tok::LBracket {
        p.expected("`[` after `count`");
        return None;
    }
    p.advance();
    let Some(min) = count_bound(&p.tok) else {
        p.expected("a minimum count");
        return None;
    };
    p.advance();
    if p.tok != Tok::DotDot {
        p.expected("`..` between the bounds");
        return None;
    }
    p.advance();
    let max = match count_bound(&p.tok) {
        Some(max) => Some(max),
        None if p.tok == Tok::Star => None,
        None => {
            p.expected("a maximum count or `*`");
            return None;
        }
    };
    p.advance();
    if p.tok != Tok::RBracket {
        p.expected("`]` to close the bounds");
        return None;
    }
    p.advance();
    Some(SymClause::Count { min, max, span })
}

/// `in ( value… )` with the lookahead on `in`.
fn parse_in(p: &mut Parser, span: Span) -> Option<SymClause> {
    p.advance(); // past `in`
    if p.tok != Tok::LParen {
        p.expected("`(` after `in`");
        return None;
    }
    p.advance();
    let mut values = Vec::new();
    loop {
        match &p.tok {
            Tok::RParen => {
                p.advance();
                return Some(SymClause::In { values, span });
            }
            Tok::Term(term) => {
                values.push(term.clone());
                p.advance();
            }
            Tok::Iri(_) | Tok::Pname(..) => values.push(Term::Iri(parse_iri(p, false)?)),
            _ => {
                p.expected("an IRI, a literal, a blank node or `)` in the enumeration");
                return None;
            }
        }
    }
}

/// One constraint: `path clause+ ;`.
fn parse_constraint(p: &mut Parser) -> Option<SymConstraint> {
    let span = p.span;
    let path = parse_iri(p, true)?;
    let mut clauses = Vec::new();
    loop {
        let clause_span = p.span;
        let keyword = match &p.tok {
            Tok::Semi => {
                p.advance();
                break;
            }
            Tok::Ident(keyword) => keyword.as_str(),
            _ => "",
        };
        match keyword {
            "count" => clauses.push(parse_count(p, clause_span)?),
            "datatype" => {
                p.advance();
                let iri = parse_iri(p, false)?;
                clauses.push(SymClause::Datatype {
                    iri,
                    span: clause_span,
                });
            }
            "class" => {
                p.advance();
                let iri = parse_iri(p, false)?;
                clauses.push(SymClause::Class {
                    iri,
                    span: clause_span,
                });
            }
            "in" => clauses.push(parse_in(p, clause_span)?),
            "node" => {
                p.advance();
                let Tok::Ident(name) = &p.tok else {
                    p.expected("a shape name after `node`");
                    return None;
                };
                let name = name.clone();
                p.advance();
                clauses.push(SymClause::Node {
                    name,
                    span: clause_span,
                });
            }
            _ => {
                p.expected(
                    "a constraint clause (`count`, `datatype`, `class`, `in`, `node`) or `;`",
                );
                return None;
            }
        }
    }
    if clauses.is_empty() {
        p.error_at(span, format!("constraint on `<{path}>` has no clauses"));
        return None;
    }
    Some(SymConstraint {
        path,
        span,
        clauses,
    })
}

/// `shape NAME targets T { constraints } .` with the lookahead on `shape`.
fn parse_shape(p: &mut Parser) -> Option<SymShape> {
    let span = p.span;
    p.advance(); // past `shape`
    let Tok::Ident(name) = &p.tok else {
        p.expected("a shape name after `shape`");
        return None;
    };
    let name = name.clone();
    p.advance();
    if !matches!(&p.tok, Tok::Ident(kw) if kw == "targets") {
        p.expected("`targets` after the shape name");
        return None;
    }
    p.advance();
    let target_span = p.span;
    let selector = match &p.tok {
        Tok::Ident(selector) => selector.as_str(),
        _ => "",
    };
    let target = match selector {
        "class" => {
            p.advance();
            SymTarget::Class(parse_iri(p, false)?)
        }
        "subjects-of" => {
            p.advance();
            SymTarget::SubjectsOf(parse_iri(p, false)?)
        }
        "all" => {
            p.advance();
            SymTarget::All
        }
        _ => {
            p.expected("a target selector (`class C`, `subjects-of p` or `all`)");
            return None;
        }
    };
    if p.tok != Tok::LBrace {
        p.expected("`{` to open the constraint block");
        return None;
    }
    p.advance();
    let mut constraints = Vec::new();
    loop {
        match &p.tok {
            Tok::RBrace => {
                p.advance();
                break;
            }
            Tok::Eof => {
                p.error_here("unexpected end of file inside a shape block");
                return None;
            }
            _ => constraints.push(parse_constraint(p)?),
        }
    }
    if p.tok != Tok::Dot {
        p.expected("`.` to end the shape");
        return None;
    }
    p.advance();
    Some(SymShape {
        name,
        span,
        target,
        target_span,
        constraints,
    })
}

/// Parses a shape file into symbolic shapes plus `SH001`/`SH002` diagnostics.
pub fn parse(text: &str) -> (Vec<SymShape>, Vec<Diagnostic>) {
    let mut p = Parser::new(text, "SH001", "SH002");
    let mut shapes = Vec::new();
    loop {
        match &p.tok {
            Tok::Eof => break,
            Tok::AtPrefix => p.parse_prefix(),
            Tok::Ident(name) if name == "shape" => match parse_shape(&mut p) {
                Some(shape) => shapes.push(shape),
                None => p.recover(),
            },
            _ => {
                p.expected("`shape` or `@prefix` at top level");
                p.recover();
            }
        }
    }
    (shapes, p.diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::vocab;

    fn ok(text: &str) -> Vec<SymShape> {
        let (shapes, diags) = parse(text);
        assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
        shapes
    }

    #[test]
    fn parses_a_full_shape() {
        let shapes = ok("@prefix ex: <http://example.org/> .\n\
             shape Person targets class ex:Person {\n\
               ex:name count [1..1] ;\n\
               ex:age count [0..1] datatype <urn:xsd:integer> ;\n\
               ex:knows class ex:Person node Person ;\n\
               ex:status in ( \"active\" ex:Retired ) ;\n\
             } .\n");
        assert_eq!(shapes.len(), 1);
        let shape = &shapes[0];
        assert_eq!(shape.name, "Person");
        assert_eq!(
            shape.target,
            SymTarget::Class("http://example.org/Person".into())
        );
        assert_eq!(shape.constraints.len(), 4);
        assert_eq!(shape.constraints[0].path, "http://example.org/name");
        assert_eq!(
            shape.constraints[0].clauses[0],
            SymClause::Count {
                min: 1,
                max: Some(1),
                span: Span { line: 3, col: 9 }
            }
        );
        assert_eq!(shape.constraints[2].clauses.len(), 2);
        assert_eq!(
            shape.constraints[3].clauses[0],
            SymClause::In {
                values: vec![
                    Term::plain_literal("active"),
                    Term::iri("http://example.org/Retired"),
                ],
                span: Span { line: 6, col: 11 }
            }
        );
    }

    #[test]
    fn open_maximum_and_subjects_of_target() {
        let shapes = ok("shape S targets subjects-of <urn:p> { <urn:q> count [1..*] ; } .");
        assert_eq!(shapes[0].target, SymTarget::SubjectsOf("urn:p".into()));
        assert_eq!(
            shapes[0].constraints[0].clauses[0],
            SymClause::Count {
                min: 1,
                max: None,
                span: Span { line: 1, col: 47 }
            }
        );
    }

    #[test]
    fn a_is_rdf_type_in_path_position() {
        let shapes = ok("shape S targets all { a count [1..*] ; } .");
        assert_eq!(shapes[0].target, SymTarget::All);
        assert_eq!(shapes[0].constraints[0].path, vocab::RDF_TYPE);
    }

    #[test]
    fn unknown_prefix_is_sh002_with_position() {
        let (shapes, diags) = parse("shape S targets class nope:C { <urn:p> count [0..1] ; } .");
        assert_eq!(shapes.len(), 1, "recovery keeps the shape");
        let d = diags.iter().find(|d| d.code == "SH002").expect("SH002");
        assert_eq!((d.line, d.col), (1, 23));
        assert!(d.is_error());
    }

    #[test]
    fn syntax_error_recovers_at_dot() {
        let (shapes, diags) = parse(
            "shape Broken targets class <urn:C> { <urn:p> bogus ; } .\n\
             shape Fine targets all { <urn:p> count [0..1] ; } .\n",
        );
        assert_eq!(shapes.len(), 1);
        assert_eq!(shapes[0].name, "Fine");
        assert!(diags.iter().any(|d| d.code == "SH001" && d.line == 1));
    }

    #[test]
    fn missing_semicolon_and_unterminated_block() {
        let (_, diags) = parse("shape S targets all { <urn:p> count [0..1] } .");
        assert!(diags.iter().any(|d| d.code == "SH001"));
        let (shapes, diags) = parse("shape S targets all { <urn:p> count [0..1] ;");
        assert!(shapes.is_empty());
        assert!(diags.iter().any(|d| d.code == "SH001"));
    }

    #[test]
    fn constraint_without_clauses_is_an_error() {
        let (shapes, diags) = parse("shape S targets all { <urn:p> ; } .");
        assert!(shapes.is_empty());
        assert!(diags
            .iter()
            .any(|d| d.code == "SH001" && d.message.contains("no clauses")));
    }

    #[test]
    fn string_escapes_and_unterminated_string() {
        let shapes = ok("shape S targets all { <urn:p> in ( \"a\\\"b\" ) ; } .");
        assert_eq!(
            shapes[0].constraints[0].clauses[0],
            SymClause::In {
                values: vec![Term::plain_literal("a\"b")],
                span: Span { line: 1, col: 31 }
            }
        );
        let (_, diags) = parse("shape S targets all { <urn:p> in ( \"oops ) ; } .");
        assert!(diags.iter().any(|d| d.code == "SH001"));
    }
}
