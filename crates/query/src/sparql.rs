//! A pragmatic parser for the SPARQL subset the engine evaluates.
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```text
//! [PREFIX name: <iri>]*
//! SELECT [DISTINCT] (* | ?var …) WHERE { group } [LIMIT n] [OFFSET n]
//! ASK [WHERE] { group }
//!
//! group       := (triples | filter)*
//! triples     := subject predicate object (';' predicate object)* (',' object)* '.'?
//! filter      := FILTER '(' constraint ')'
//! constraint  := ?var ('='|'!=') term
//!              | (isIRI|isLiteral|isBlank|bound) '(' ?var ')'
//!              | sameTerm '(' ?var ',' term ')'
//! term        := ?var | <iri> | prefixed:name | 'a' | literal | _:blank | number
//! ```
//!
//! Tokens are pulled on demand from the workspace's term lexer
//! ([`inferray_parser::lex::Scan`]), so every term is spelt exactly as the
//! loader spells it — escapes, language tags, prefixed names, numeric
//! shorthand: "Term syntax" in `docs/ingest.md` — and a constant in a query
//! is the term a document stored.
//!
//! This is not a conformant SPARQL 1.1 parser — it covers the
//! basic-graph-pattern queries that vertical partitioning was designed for
//! (Abadi et al.) and that the examples and benchmarks in this repository
//! need, while rejecting anything it does not understand instead of
//! guessing.

use crate::algebra::{FilterExpr, PatternTerm, Query, QueryForm, Selection, TriplePatternSpec};
use inferray_model::{vocab, TermRef};
use inferray_parser::lex::{Scan, Word};
use inferray_parser::ParseError;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// An error raised while parsing a query string, positioned at the token (or,
/// inside a term, the character) that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token, in characters.
    pub column: usize,
}

impl QueryParseError {
    fn at(scan: &Scan<'_>, message: impl Into<String>) -> Self {
        QueryParseError {
            message: message.into(),
            line: scan.line(),
            column: scan.column(),
        }
    }
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for QueryParseError {}

/// Parses a SPARQL-subset query string into a [`Query`].
pub fn parse_query(input: &str) -> Result<Query, QueryParseError> {
    Parser::new(input)?.parse_query()
}

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

/// One token, lexed on demand by the workspace's term lexer
/// ([`inferray_parser::lex::Scan`]) and borrowing from the query text: a
/// term is spelt here exactly as the loader spells it ("Term syntax" in
/// `docs/ingest.md`).
#[derive(Debug, Clone, PartialEq)]
enum Token<'a> {
    /// `?name` or `$name`.
    Variable(&'a str),
    /// `<iri>`, `_:label`, a literal or a number.
    Term(TermRef<'a>),
    /// A keyword (`SELECT`, `a`, `isIRI`) or `prefix:local` (expanded by the
    /// parser, once the prefixes are known).
    Word(Word<'a>),
    /// Structural punctuation: `{ } ( ) . ; , * =`.
    Punct(char),
    /// `!=`.
    NotEquals,
    /// End of the query text.
    End,
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    scan: Scan<'a>,
    /// The lookahead token, …
    token: Token<'a>,
    /// … the cursor where it starts (errors point there), …
    at: Scan<'a>,
    /// … and its 1-based ordinal.
    ordinal: usize,
    prefixes: HashMap<&'a str, Cow<'a, str>>,
}

/// Expands `prefix:local` against declared prefixes, falling back to the
/// built-in rdf/rdfs/owl/xsd namespaces.
fn expand(
    prefixes: &HashMap<&str, Cow<'_, str>>,
    prefix: &str,
    local: &str,
) -> Result<String, String> {
    if let Some(namespace) = prefixes.get(prefix) {
        return Ok(format!("{namespace}{local}"));
    }
    let name = format!("{prefix}:{local}");
    let expanded = vocab::expand_curie(&name);
    if expanded != name {
        Ok(expanded)
    } else {
        Err(format!(
            "unknown prefix '{prefix}:' (declare it with PREFIX)"
        ))
    }
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Self, QueryParseError> {
        let scan = Scan::new(input, 1);
        let mut parser = Parser {
            scan,
            token: Token::End,
            at: scan,
            ordinal: 0,
            prefixes: HashMap::new(),
        };
        parser.advance()?;
        Ok(parser)
    }

    /// An error at the lookahead token.
    fn error(&self, message: impl Into<String>) -> QueryParseError {
        QueryParseError::at(&self.at, message)
    }

    /// "expected `what`, found <the lookahead token>".
    fn expected(&self, what: &str) -> QueryParseError {
        self.error(format!("expected {what}, found {:?}", self.token))
    }

    /// A term lexer's error, at the character where it stopped.
    fn lex_error(&self, error: ParseError) -> QueryParseError {
        QueryParseError::at(&self.scan, error.message)
    }

    /// Lexes the next token into the lookahead.
    fn advance(&mut self) -> Result<(), QueryParseError> {
        self.scan.skip_trivia();
        self.at = self.scan;
        self.ordinal += 1;
        let scan = &mut self.scan;
        let token = match scan.peek() {
            None => Ok(Token::End),
            Some(c @ ('{' | '}' | '(' | ')' | '.' | ';' | ',' | '*' | '=')) => {
                scan.bump();
                Ok(Token::Punct(c))
            }
            Some('!') => {
                scan.bump();
                if scan.peek() == Some('=') {
                    scan.bump();
                    Ok(Token::NotEquals)
                } else {
                    return Err(self.error("unexpected '!'"));
                }
            }
            Some('?' | '$') => scan.lex_variable().map(Token::Variable),
            Some('<') => scan.lex_iri().map(|iri| Token::Term(TermRef::Iri(iri))),
            Some('"') => {
                let prefixes = &self.prefixes;
                scan.lex_literal_with(|prefix, local| expand(prefixes, prefix, local))
                    .map(Token::Term)
            }
            Some('_') if scan.peek_at(1) == Some(':') => scan
                .lex_blank()
                .map(|label| Token::Term(TermRef::Blank(label))),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                scan.lex_numeric().map(Token::Term)
            }
            Some(c) if c.is_alphabetic() || c == '_' || c == ':' => {
                Ok(Token::Word(scan.lex_word()))
            }
            Some(other) => return Err(self.error(format!("unexpected character '{other}'"))),
        };
        self.token = token.map_err(|e| self.lex_error(e))?;
        Ok(())
    }

    /// Consumes the lookahead when it is the punctuation `punct`.
    fn eat_punct(&mut self, punct: char) -> Result<bool, QueryParseError> {
        let found = self.token == Token::Punct(punct);
        if found {
            self.advance()?;
        }
        Ok(found)
    }

    fn expect_punct(&mut self, punct: char) -> Result<(), QueryParseError> {
        if self.eat_punct(punct)? {
            Ok(())
        } else {
            Err(self.expected(&format!("'{punct}'")))
        }
    }

    fn peek_keyword(&self, keyword: &str) -> bool {
        matches!(self.token, Token::Word(Word::Bare(w)) if w.eq_ignore_ascii_case(keyword))
    }

    fn eat_keyword(&mut self, keyword: &str) -> Result<bool, QueryParseError> {
        let found = self.peek_keyword(keyword);
        if found {
            self.advance()?;
        }
        Ok(found)
    }

    /// Consumes the lookahead when it is a variable, returning its name.
    fn eat_variable(&mut self) -> Result<Option<String>, QueryParseError> {
        let Token::Variable(name) = self.token else {
            return Ok(None);
        };
        self.advance()?;
        Ok(Some(name.to_string()))
    }

    fn parse_query(mut self) -> Result<Query, QueryParseError> {
        self.parse_prologue()?;
        let form = if self.eat_keyword("SELECT")? {
            QueryForm::Select
        } else if self.eat_keyword("ASK")? {
            QueryForm::Ask
        } else {
            return Err(self.error("expected SELECT or ASK"));
        };

        let (distinct, select) = match form {
            QueryForm::Select => {
                let distinct = self.eat_keyword("DISTINCT")?;
                let select = self.parse_projection()?;
                if !self.eat_keyword("WHERE")? {
                    return Err(self.error("expected WHERE"));
                }
                (distinct, select)
            }
            QueryForm::Ask => {
                self.eat_keyword("WHERE")?;
                (false, Selection::All)
            }
        };
        let (patterns, filters) = self.parse_group()?;
        let mut query = Query {
            form,
            select,
            distinct,
            patterns,
            filters,
            limit: None,
            offset: 0,
        };

        // Solution modifiers, in either order — but each at most once. A
        // repeated clause used to be accepted with silent last-one-wins,
        // which turned typos like `LIMIT 10 LIMIT 0` into empty results.
        let mut seen_limit = false;
        let mut seen_offset = false;
        loop {
            if self.peek_keyword("LIMIT") {
                if seen_limit {
                    return Err(self.duplicate_clause("LIMIT"));
                }
                seen_limit = true;
                self.advance()?;
                query.limit = Some(self.parse_unsigned("LIMIT")?);
            } else if self.peek_keyword("OFFSET") {
                if seen_offset {
                    return Err(self.duplicate_clause("OFFSET"));
                }
                seen_offset = true;
                self.advance()?;
                query.offset = self.parse_unsigned("OFFSET")?;
            } else {
                break;
            }
        }

        match self.token {
            Token::End => Ok(query),
            _ => Err(self.error(format!("unexpected trailing token {:?}", self.token))),
        }
    }

    fn parse_prologue(&mut self) -> Result<(), QueryParseError> {
        while self.eat_keyword("PREFIX")? {
            let name = match self.token {
                Token::Word(
                    Word::Bare(name)
                    | Word::Prefixed {
                        prefix: name,
                        local: "",
                    },
                ) => name,
                _ => return Err(self.expected("prefix name")),
            };
            self.advance()?;
            let Token::Term(TermRef::Iri(iri)) = &self.token else {
                return Err(self.expected("namespace IRI"));
            };
            self.prefixes.insert(name, iri.clone());
            self.advance()?;
        }
        Ok(())
    }

    fn parse_projection(&mut self) -> Result<Selection, QueryParseError> {
        if self.eat_punct('*')? {
            return Ok(Selection::All);
        }
        let mut vars = Vec::new();
        while let Some(name) = self.eat_variable()? {
            vars.push(name);
        }
        if vars.is_empty() {
            return Err(self.error("SELECT needs '*' or variables"));
        }
        Ok(Selection::Variables(vars))
    }

    /// A positioned error for a repeated solution modifier.
    fn duplicate_clause(&self, keyword: &str) -> QueryParseError {
        self.error(format!(
            "duplicate {keyword} clause at token {}",
            self.ordinal
        ))
    }

    fn parse_unsigned(&mut self, keyword: &str) -> Result<usize, QueryParseError> {
        let value = match &self.token {
            Token::Term(TermRef::Literal {
                lexical,
                datatype: Some(datatype),
                ..
            }) if datatype == vocab::XSD_INTEGER => lexical.parse().ok(),
            _ => None,
        };
        let Some(value) = value else {
            return Err(self.expected(&format!("a non-negative integer after {keyword}")));
        };
        self.advance()?;
        Ok(value)
    }

    fn parse_group(
        &mut self,
    ) -> Result<(Vec<TriplePatternSpec>, Vec<FilterExpr>), QueryParseError> {
        self.expect_punct('{')?;
        let mut patterns = Vec::new();
        let mut filters = Vec::new();
        loop {
            if self.eat_punct('}')? {
                break;
            }
            if self.token == Token::End {
                return Err(self.error("unterminated group (missing '}')"));
            }
            if self.eat_keyword("FILTER")? {
                filters.push(self.parse_filter()?);
            } else {
                self.parse_triples_block(&mut patterns)?;
            }
        }
        Ok((patterns, filters))
    }

    /// Parses `subject predicate object (';' predicate object)* (',' object)*`
    /// with an optional trailing `.`.
    fn parse_triples_block(
        &mut self,
        patterns: &mut Vec<TriplePatternSpec>,
    ) -> Result<(), QueryParseError> {
        let subject = self.parse_pattern_term(false)?;
        let mut predicate = self.parse_pattern_term(true)?;
        loop {
            let object = self.parse_pattern_term(false)?;
            patterns.push(TriplePatternSpec::new(
                subject.clone(),
                predicate.clone(),
                object,
            ));
            if self.eat_punct(',')? {
                continue;
            }
            // A dangling ';' before '.' or '}' is tolerated.
            if !self.eat_punct(';')? || matches!(self.token, Token::Punct('.' | '}')) {
                self.eat_punct('.')?;
                return Ok(());
            }
            predicate = self.parse_pattern_term(true)?;
        }
    }

    fn parse_filter(&mut self) -> Result<FilterExpr, QueryParseError> {
        self.expect_punct('(')?;
        let filter = if let Some(name) = self.eat_variable()? {
            let negated = match self.token {
                Token::Punct('=') => false,
                Token::NotEquals => true,
                _ => return Err(self.expected(&format!("'=' or '!=' after ?{name}"))),
            };
            self.advance()?;
            let rhs = self.parse_pattern_term(false)?;
            if negated {
                FilterExpr::NotEqual(name, rhs)
            } else {
                FilterExpr::Equal(name, rhs)
            }
        } else if let Token::Word(Word::Bare(function)) = self.token {
            let test: Option<fn(String) -> FilterExpr> = match function
                .to_ascii_uppercase()
                .as_str()
            {
                "ISIRI" | "ISURI" => Some(FilterExpr::IsIri),
                "ISLITERAL" => Some(FilterExpr::IsLiteral),
                "ISBLANK" => Some(FilterExpr::IsBlank),
                "BOUND" => Some(FilterExpr::Bound),
                "SAMETERM" => None,
                other => return Err(self.error(format!("unsupported filter function '{other}'"))),
            };
            self.advance()?;
            self.expect_punct('(')?;
            let Some(variable) = self.eat_variable()? else {
                return Err(self.expected(&format!("a variable as {function}'s argument")));
            };
            let filter = match test {
                Some(test) => test(variable),
                None => {
                    self.expect_punct(',')?;
                    FilterExpr::Equal(variable, self.parse_pattern_term(false)?)
                }
            };
            self.expect_punct(')')?;
            filter
        } else {
            return Err(self.expected("a filter expression"));
        };
        self.expect_punct(')')?;
        Ok(filter)
    }

    fn parse_pattern_term(&mut self, predicate: bool) -> Result<PatternTerm, QueryParseError> {
        let term = match &self.token {
            Token::Variable(name) => PatternTerm::Variable(name.to_string()),
            Token::Term(term) => PatternTerm::Constant(term.to_term()),
            Token::Word(Word::Bare("a")) if predicate => PatternTerm::iri(vocab::RDF_TYPE),
            Token::Word(Word::Prefixed { prefix, local }) => PatternTerm::iri(
                expand(&self.prefixes, prefix, local).map_err(|message| self.error(message))?,
            ),
            Token::Word(Word::Bare(name)) => {
                return Err(self.error(format!(
                    "'{name}' is neither a variable, an IRI nor a prefixed name"
                )))
            }
            _ => return Err(self.expected("a term")),
        };
        self.advance()?;
        Ok(term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{FilterExpr, PatternTerm, QueryForm, Selection};
    use inferray_model::Term;

    #[test]
    fn parses_select_star_with_prefixes() {
        let q = parse_query(
            "PREFIX ex: <http://example.org/>\n\
             SELECT * WHERE { ?x a ex:Person . ?x ex:knows ?y }",
        )
        .unwrap();
        assert_eq!(q.form, QueryForm::Select);
        assert_eq!(q.select, Selection::All);
        assert_eq!(q.patterns.len(), 2);
        assert_eq!(
            q.patterns[0].p,
            PatternTerm::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        );
        assert_eq!(
            q.patterns[0].o,
            PatternTerm::iri("http://example.org/Person")
        );
        assert_eq!(q.pattern_variables(), vec!["x", "y"]);
    }

    #[test]
    fn parses_projection_distinct_limit_offset() {
        let q = parse_query(
            "PREFIX ex: <http://ex/> \
             SELECT DISTINCT ?who WHERE { ?who ex:worksFor ?org . } LIMIT 10 OFFSET 3",
        )
        .unwrap();
        assert!(q.distinct);
        assert_eq!(q.select, Selection::Variables(vec!["who".into()]));
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, 3);
    }

    #[test]
    fn modifiers_accept_either_order_but_reject_repeats() {
        // Either order parses ...
        let q = parse_query("SELECT * WHERE { ?x ?p ?o } OFFSET 3 LIMIT 10").unwrap();
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, 3);
        // ... but a repeated clause is a positioned parse error, not a
        // silent last-one-wins.
        for (query, clause) in [
            ("SELECT * WHERE { ?x ?p ?o } LIMIT 10 LIMIT 0", "LIMIT"),
            ("SELECT * WHERE { ?x ?p ?o } OFFSET 1 OFFSET 2", "OFFSET"),
            (
                "SELECT * WHERE { ?x ?p ?o } LIMIT 10 OFFSET 1 LIMIT 0",
                "LIMIT",
            ),
            ("ASK { ?x ?p ?o } OFFSET 1 LIMIT 2 OFFSET 3", "OFFSET"),
        ] {
            let error = parse_query(query).expect_err(query);
            assert!(
                error
                    .message
                    .contains(&format!("duplicate {clause} clause")),
                "{query}: {error}"
            );
            assert!(
                error.message.contains("at token"),
                "error is positioned: {error}"
            );
        }
    }

    #[test]
    fn parses_predicate_and_object_lists() {
        let q = parse_query(
            "PREFIX ex: <http://ex/> \
             SELECT * WHERE { ?x ex:p ?a , ?b ; ex:q ?c . }",
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 3);
        assert!(q.patterns.iter().all(|p| p.s == PatternTerm::var("x")));
        assert_eq!(q.patterns[0].o, PatternTerm::var("a"));
        assert_eq!(q.patterns[1].o, PatternTerm::var("b"));
        assert_eq!(q.patterns[2].p, PatternTerm::iri("http://ex/q"));
    }

    #[test]
    fn parses_filters() {
        let q = parse_query(
            "PREFIX ex: <http://ex/> \
             SELECT * WHERE { ?x ex:knows ?y . FILTER(?x != ?y) FILTER(isIRI(?x)) }",
        )
        .unwrap();
        assert_eq!(q.filters.len(), 2);
        assert_eq!(
            q.filters[0],
            FilterExpr::NotEqual("x".into(), PatternTerm::var("y"))
        );
        assert_eq!(q.filters[1], FilterExpr::IsIri("x".into()));
    }

    #[test]
    fn parses_equality_filter_and_same_term() {
        let q = parse_query(
            "SELECT * WHERE { ?x <http://ex/p> ?y . FILTER(?y = \"42\"^^<http://www.w3.org/2001/XMLSchema#integer>) }",
        )
        .unwrap();
        assert_eq!(
            q.filters[0],
            FilterExpr::Equal(
                "y".into(),
                PatternTerm::Constant(Term::typed_literal(
                    "42",
                    "http://www.w3.org/2001/XMLSchema#integer"
                ))
            )
        );
        let q = parse_query(
            "SELECT * WHERE { ?x <http://ex/p> ?y . FILTER(sameTerm(?y, <http://ex/a>)) }",
        )
        .unwrap();
        assert_eq!(
            q.filters[0],
            FilterExpr::Equal("y".into(), PatternTerm::iri("http://ex/a"))
        );
    }

    #[test]
    fn parses_literals_language_tags_and_integers() {
        let q = parse_query(
            "PREFIX ex: <http://ex/> \
             SELECT * WHERE { ?x ex:label \"chat\"@fr . ?x ex:age 7 . ?x ex:note \"a\\nb\" }",
        )
        .unwrap();
        assert_eq!(
            q.patterns[0].o,
            PatternTerm::Constant(Term::lang_literal("chat", "fr"))
        );
        assert_eq!(q.patterns[1].o, PatternTerm::Constant(Term::integer(7)));
        assert_eq!(
            q.patterns[2].o,
            PatternTerm::Constant(Term::plain_literal("a\nb"))
        );
    }

    #[test]
    fn parses_ask_queries() {
        let q = parse_query("ASK { <http://ex/s> <http://ex/p> <http://ex/o> }").unwrap();
        assert_eq!(q.form, QueryForm::Ask);
        assert_eq!(q.patterns.len(), 1);
        let q = parse_query("ASK WHERE { ?x ?p ?o }").unwrap();
        assert_eq!(q.form, QueryForm::Ask);
    }

    #[test]
    fn builtin_prefixes_work_without_declaration() {
        let q = parse_query("SELECT * WHERE { ?c rdfs:subClassOf ?d }").unwrap();
        assert_eq!(
            q.patterns[0].p,
            PatternTerm::iri("http://www.w3.org/2000/01/rdf-schema#subClassOf")
        );
    }

    #[test]
    fn comments_and_blank_nodes_are_tolerated() {
        let q = parse_query(
            "# a comment\nSELECT * WHERE { _:b <http://ex/p> ?x . # trailing comment\n }",
        )
        .unwrap();
        assert_eq!(q.patterns[0].s, PatternTerm::Constant(Term::blank("b")));
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse_query("SELECT WHERE { ?x ?p ?o }").is_err());
        assert!(parse_query("SELECT * WHERE { ?x ?p }").is_err());
        assert!(parse_query("SELECT * WHERE { ?x ?p ?o ").is_err());
        assert!(parse_query("SELECT * WHERE { ?x unknown:p ?o }").is_err());
        assert!(parse_query("CONSTRUCT { ?x ?p ?o } WHERE { ?x ?p ?o }").is_err());
        assert!(parse_query("SELECT * WHERE { ?x <http://ex/p ?o }").is_err());
        assert!(parse_query("SELECT * WHERE { ?x ?p ?o } LIMIT ?x").is_err());
        assert!(parse_query("SELECT * WHERE { ?x ?p ?o } nonsense").is_err());
    }

    #[test]
    fn rejects_unsupported_filter_functions() {
        assert!(parse_query("SELECT * WHERE { ?x ?p ?o . FILTER(regex(?o, \"x\")) }").is_err());
    }

    #[test]
    fn accepts_well_formed_language_tags() {
        let q = parse_query("SELECT * WHERE { ?x ?p \"chat\"@fr-BE-1x }").unwrap();
        assert_eq!(
            q.patterns[0].o,
            PatternTerm::Constant(Term::lang_literal("chat", "fr-be-1x"))
        );
    }

    #[test]
    fn rejects_malformed_language_tags() {
        // Empty tag: previously parsed as `"x"` with language "" followed
        // by a bare '.', silently matching nothing.
        assert!(parse_query("SELECT * WHERE { ?s ?p \"x\"@ . }").is_err());
        // Leading/trailing/doubled '-' and leading digits.
        assert!(parse_query("SELECT * WHERE { ?s ?p \"x\"@-en }").is_err());
        assert!(parse_query("SELECT * WHERE { ?s ?p \"x\"@en- }").is_err());
        assert!(parse_query("SELECT * WHERE { ?s ?p \"x\"@en--us }").is_err());
        assert!(parse_query("SELECT * WHERE { ?s ?p \"x\"@7up }").is_err());
        // Non-ASCII letters are not part of the N-Triples production.
        assert!(parse_query("SELECT * WHERE { ?s ?p \"x\"@én }").is_err());
    }
}
