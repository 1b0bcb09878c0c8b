//! The rule-file front end: the grammar of the textual datalog-style syntax,
//! written on the tokenizer and statement-level parser core `.rules` and
//! `.shapes` share ([`crate::syntax`]).
//!
//! ```text
//! @prefix ex: <http://example.org/> .
//!
//! # body => head, both comma-separated triple patterns.
//! rule grandparent: ?x ex:parent ?y, ?y ex:parent ?z => ?x ex:grandparent ?z .
//! ```
//!
//! Terms are `?var`, `<absolute-iri>`, `prefix:local`, or the Turtle
//! shorthand `a` for `rdf:type` (predicate position only), spelt as every
//! other grammar of the workspace spells them ("Term syntax" in
//! `docs/ingest.md`). Comments run from `#` to end of line. Parse errors are
//! reported as positioned `RA001` diagnostics (unknown prefixes as `RA002`)
//! and recovery skips to the next `.` so one bad rule does not hide the
//! findings in the rest of the file.

use super::diag::Diagnostic;
pub use crate::syntax::Span;
use crate::syntax::{Parser, Tok};

/// A symbolic (pre-dictionary) term of a triple pattern.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SymTerm {
    /// `?name`.
    Var(String),
    /// A resolved absolute IRI.
    Iri(String),
}

/// A symbolic triple pattern `s p o`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymAtom {
    /// Subject term.
    pub s: SymTerm,
    /// Predicate term.
    pub p: SymTerm,
    /// Object term.
    pub o: SymTerm,
    /// Position of the pattern's first token.
    pub span: Span,
}

/// A parsed rule: `rule NAME: body => head .`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymRule {
    /// The declared rule name.
    pub name: String,
    /// Position of the `rule` keyword.
    pub span: Span,
    /// Body (antecedent) patterns, in written order.
    pub body: Vec<SymAtom>,
    /// Head (consequent) patterns, in written order.
    pub head: Vec<SymAtom>,
}

/// One term; predicate position admits the `a` shorthand.
fn parse_term(p: &mut Parser, predicate_position: bool) -> Option<SymTerm> {
    if let Tok::Var(name) = &p.tok {
        let term = SymTerm::Var(name.clone());
        p.advance();
        return Some(term);
    }
    if let Some(iri) = p.take_iri(predicate_position) {
        return Some(SymTerm::Iri(iri));
    }
    let hint = if p.at_bare_a() {
        " (`a` is only valid in predicate position)"
    } else {
        ""
    };
    p.error_here(format!(
        "expected a term (`?var`, `<iri>` or `prefix:local`), found {}{hint}",
        p.tok.describe()
    ));
    None
}

fn parse_atom(p: &mut Parser) -> Option<SymAtom> {
    let span = p.span;
    let s = parse_term(p, false)?;
    let pred = parse_term(p, true)?;
    let o = parse_term(p, false)?;
    Some(SymAtom {
        s,
        p: pred,
        o,
        span,
    })
}

/// `atom (, atom)*` terminated by `=>` or `.` (not consumed).
fn parse_atoms(p: &mut Parser) -> Option<Vec<SymAtom>> {
    let mut atoms = vec![parse_atom(p)?];
    while p.tok == Tok::Comma {
        p.advance();
        atoms.push(parse_atom(p)?);
    }
    Some(atoms)
}

/// `rule NAME: body => head .` with the lookahead on `rule`.
fn parse_rule(p: &mut Parser) -> Option<SymRule> {
    let span = p.span;
    p.advance(); // past `rule`
    let Tok::Ident(name) = &p.tok else {
        p.expected("a rule name after `rule`");
        return None;
    };
    let name = name.clone();
    p.advance();
    if p.tok != Tok::Colon {
        p.expected("`:` after the rule name");
        return None;
    }
    p.advance();
    let body = parse_atoms(p)?;
    if p.tok != Tok::Arrow {
        p.expected("`=>` between body and head");
        return None;
    }
    p.advance();
    let head = parse_atoms(p)?;
    if p.tok != Tok::Dot {
        p.expected("`.` to end the rule");
        return None;
    }
    p.advance();
    Some(SymRule {
        name,
        span,
        body,
        head,
    })
}

/// Parses a rule file into symbolic rules plus `RA001`/`RA002` diagnostics.
pub fn parse(text: &str) -> (Vec<SymRule>, Vec<Diagnostic>) {
    let mut p = Parser::new(text, "RA001", "RA002");
    let mut rules = Vec::new();
    loop {
        match &p.tok {
            Tok::Eof => break,
            Tok::AtPrefix => p.parse_prefix(),
            Tok::Ident(name) if name == "rule" => match parse_rule(&mut p) {
                Some(rule) => rules.push(rule),
                None => p.recover(),
            },
            _ => {
                p.expected("`rule` or `@prefix` at top level");
                p.recover();
            }
        }
    }
    (rules, p.diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::vocab;

    fn ok(text: &str) -> Vec<SymRule> {
        let (rules, diags) = parse(text);
        assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
        rules
    }

    #[test]
    fn parses_prefixed_rule() {
        let rules = ok("@prefix ex: <http://example.org/> .\n\
                        rule gp: ?x ex:parent ?y, ?y ex:parent ?z => ?x ex:grandparent ?z .\n");
        assert_eq!(rules.len(), 1);
        let rule = &rules[0];
        assert_eq!(rule.name, "gp");
        assert_eq!(rule.body.len(), 2);
        assert_eq!(rule.head.len(), 1);
        assert_eq!(
            rule.body[0].p,
            SymTerm::Iri("http://example.org/parent".into())
        );
        assert_eq!(rule.body[0].s, SymTerm::Var("x".into()));
        assert_eq!(rule.span, Span { line: 2, col: 1 });
    }

    #[test]
    fn a_is_rdf_type_in_predicate_position_only() {
        let rules = ok("@prefix ex: <http://example.org/> .\nrule t: ?x a ex:C => ?x a ex:D .\n");
        assert_eq!(rules[0].body[0].p, SymTerm::Iri(vocab::RDF_TYPE.into()));
        let (_, diags) = parse("rule t: a <urn:p> ?y => ?y <urn:p> ?y .");
        assert!(diags.iter().any(|d| d.code == "RA001"));
    }

    #[test]
    fn comments_and_absolute_iris() {
        let rules = ok("# a comment\nrule t: ?x <urn:p> ?y => ?y <urn:q> ?x . # trailing\n");
        assert_eq!(rules[0].head[0].p, SymTerm::Iri("urn:q".into()));
    }

    #[test]
    fn unknown_prefix_is_ra002_with_position() {
        let (rules, diags) = parse("rule t: ?x nope:p ?y => ?x <urn:q> ?y .");
        assert_eq!(rules.len(), 1, "recovery keeps the rule");
        let d = diags.iter().find(|d| d.code == "RA002").expect("RA002");
        assert_eq!((d.line, d.col), (1, 12));
        assert!(d.is_error());
    }

    #[test]
    fn syntax_error_recovers_at_dot() {
        let (rules, diags) = parse(
            "rule broken: ?x => ?y .\n\
             rule fine: ?x <urn:p> ?y => ?y <urn:p> ?x .\n",
        );
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].name, "fine");
        assert!(diags.iter().any(|d| d.code == "RA001" && d.line == 1));
    }

    #[test]
    fn unterminated_iri_and_missing_dot() {
        let (_, diags) = parse("rule t: ?x <urn:p ?y => ?x <urn:q> ?y .");
        assert!(diags.iter().any(|d| d.code == "RA001"));
        let (rules, diags) = parse("rule t: ?x <urn:p> ?y => ?x <urn:q> ?y");
        assert!(rules.is_empty());
        assert!(diags.iter().any(|d| d.code == "RA001"));
    }
}
