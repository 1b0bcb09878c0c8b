//! The syntax `.rules` and `.shapes` files share: one token type, one
//! tokenizer over the workspace's term lexer
//! ([`inferray_parser::lex::Scan`]), and the statement-level parser core —
//! prefix table, `@prefix` directives, `.`-recovery, the `a` shorthand and
//! the placeholder an unknown prefix expands to. The two grammars
//! (`analysis/parse.rs`, `shapes/parse.rs`) are written on top of it and
//! differ only in their productions and in the diagnostic codes they hand
//! to [`Parser::new`].
//!
//! What a term looks like — IRI, prefixed name, literal, blank node,
//! variable — is the lexer's business and is documented once, under "Term
//! syntax" in `docs/ingest.md`.

use crate::analysis::{Diagnostic, Severity};
use inferray_model::{vocab, Term, TermRef};
use inferray_parser::lex::{Scan, Word};
use std::collections::HashMap;

/// A 1-based source position; columns count characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One token of a rule or shape file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    /// A bare name: a keyword, a rule or shape name, a digit run.
    Ident(String),
    /// `?name`.
    Var(String),
    /// `<iri>`, unescaped.
    Iri(String),
    /// `prefix:local`, not yet expanded.
    Pname(String, String),
    /// A literal or a blank node label.
    Term(Term),
    Colon,
    Comma,
    Dot,
    DotDot,
    Star,
    Semi,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Arrow,
    AtPrefix,
    Eof,
}

impl Tok {
    /// The token as it is quoted in "found …" messages.
    pub(crate) fn describe(&self) -> String {
        let fixed = match self {
            Tok::Ident(n) => return format!("`{n}`"),
            Tok::Var(n) => return format!("`?{n}`"),
            Tok::Iri(i) => return format!("`<{i}>`"),
            Tok::Pname(p, l) => return format!("`{p}:{l}`"),
            Tok::Term(t) => return format!("`{t}`"),
            Tok::Eof => return "end of file".into(),
            Tok::Colon => ":",
            Tok::Comma => ",",
            Tok::Dot => ".",
            Tok::DotDot => "..",
            Tok::Star => "*",
            Tok::Semi => ";",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::Arrow => "=>",
            Tok::AtPrefix => "@prefix",
        };
        format!("`{fixed}`")
    }
}

/// The tokenizer plus everything statement-level the two grammars share.
/// `tok`/`span` are the one-token lookahead.
pub(crate) struct Parser<'a> {
    scan: Scan<'a>,
    /// `NAME:` lexes as one word; its colon waits here for the next call.
    pending_colon: Option<Span>,
    pub(crate) tok: Tok,
    pub(crate) span: Span,
    prefixes: Prefixes,
    pub(crate) diags: Vec<Diagnostic>,
    /// Code of a syntax error (`RA001` / `SH001`).
    syntax_code: &'static str,
}

/// The declared prefixes and the code an undeclared one is reported under
/// (`RA002` / `SH002`).
struct Prefixes {
    table: HashMap<String, String>,
    unknown_code: &'static str,
}

impl Prefixes {
    /// `prefix:local` expanded. An undeclared prefix is reported at `span`
    /// and expands to a placeholder, so the statement still parses and the
    /// later passes still see it.
    fn expand(&self, prefix: &str, local: &str, span: Span, diags: &mut Vec<Diagnostic>) -> String {
        if let Some(namespace) = self.table.get(prefix) {
            return format!("{namespace}{local}");
        }
        diags.push(Diagnostic::new(
            self.unknown_code,
            Severity::Error,
            span.line,
            span.col,
            format!("unknown prefix `{prefix}:` — declare it with `@prefix`"),
        ));
        format!("urn:inferray:unknown-prefix:{prefix}:{local}")
    }
}

impl<'a> Parser<'a> {
    /// A parser over `text`, positioned on its first token, reporting syntax
    /// errors as `syntax_code` and undeclared prefixes as `prefix_code`.
    pub(crate) fn new(text: &'a str, syntax_code: &'static str, prefix_code: &'static str) -> Self {
        let mut parser = Parser {
            scan: Scan::new(text, 1),
            pending_colon: None,
            tok: Tok::Eof,
            span: Span { line: 1, col: 1 },
            prefixes: Prefixes {
                table: HashMap::new(),
                unknown_code: prefix_code,
            },
            diags: Vec::new(),
            syntax_code,
        };
        parser.advance();
        parser
    }

    /// Moves the lookahead to the next token.
    pub(crate) fn advance(&mut self) {
        let (tok, span) = self.lex();
        self.tok = tok;
        self.span = span;
    }

    fn here(&self) -> Span {
        Span {
            line: self.scan.line() as u32,
            col: self.scan.column() as u32,
        }
    }

    /// Reports a syntax error at `span`.
    pub(crate) fn error_at(&mut self, span: Span, message: impl Into<String>) {
        self.diags.push(Diagnostic::new(
            self.syntax_code,
            Severity::Error,
            span.line,
            span.col,
            message,
        ));
    }

    /// Reports a syntax error at the lookahead token.
    pub(crate) fn error_here(&mut self, message: impl Into<String>) {
        self.error_at(self.span, message);
    }

    /// Reports "expected `what`, found <the lookahead token>".
    pub(crate) fn expected(&mut self, what: &str) {
        self.error_here(format!("expected {what}, found {}", self.tok.describe()));
    }

    /// The next token and its span; lexing errors are reported and skipped.
    fn lex(&mut self) -> (Tok, Span) {
        if let Some(span) = self.pending_colon.take() {
            return (Tok::Colon, span);
        }
        loop {
            self.scan.skip_trivia();
            let span = self.here();
            let Some(c) = self.scan.peek() else {
                return (Tok::Eof, span);
            };
            let punct = match c {
                ',' => Some(Tok::Comma),
                '*' => Some(Tok::Star),
                ';' => Some(Tok::Semi),
                '{' => Some(Tok::LBrace),
                '}' => Some(Tok::RBrace),
                '[' => Some(Tok::LBracket),
                ']' => Some(Tok::RBracket),
                '(' => Some(Tok::LParen),
                ')' => Some(Tok::RParen),
                '.' if self.scan.peek_at(1) == Some('.') => {
                    self.scan.bump();
                    Some(Tok::DotDot)
                }
                '.' => Some(Tok::Dot),
                '=' if self.scan.peek_at(1) == Some('>') => {
                    self.scan.bump();
                    Some(Tok::Arrow)
                }
                _ => None,
            };
            if let Some(tok) = punct {
                self.scan.bump();
                return (tok, span);
            }
            // Every arm below consumes at least one character, so the loop
            // ends.
            match c {
                '@' => {
                    self.scan.bump();
                    let word = match self.scan.lex_word() {
                        Word::Bare("prefix") => return (Tok::AtPrefix, span),
                        Word::Bare(word) => word.to_string(),
                        Word::Prefixed { prefix, local } => format!("{prefix}:{local}"),
                    };
                    self.error_at(
                        span,
                        format!("unknown directive `@{word}` (only `@prefix` is supported)"),
                    );
                }
                '?' => match self.scan.lex_variable() {
                    Ok(name) => return (Tok::Var(name.to_string()), span),
                    Err(_) => self.error_at(span, "`?` must be followed by a variable name"),
                },
                '<' => match self.scan.lex_iri() {
                    Ok(iri) => return (Tok::Iri(iri.into_owned()), span),
                    Err(e) => self.error_at(span, e.message),
                },
                '"' => match self.lex_literal(span) {
                    Ok(term) => return (Tok::Term(term), span),
                    Err(message) => self.error_at(span, message),
                },
                '_' if self.scan.peek_at(1) == Some(':') => match self.scan.lex_blank() {
                    Ok(label) => return (Tok::Term(Term::blank(label)), span),
                    Err(e) => self.error_at(span, e.message),
                },
                c if c.is_alphanumeric() || matches!(c, ':' | '_' | '-') => {
                    return (self.lex_word(span), span)
                }
                c => {
                    self.scan.bump();
                    self.error_at(span, format!("unexpected character `{c}`"));
                }
            }
        }
    }

    /// A bare name, a prefixed name, or a lone `:`.
    fn lex_word(&mut self, span: Span) -> Tok {
        match self.scan.lex_word() {
            Word::Bare(name) => Tok::Ident(name.to_string()),
            Word::Prefixed {
                prefix: "",
                local: "",
            } => Tok::Colon,
            // `NAME:` with nothing after the colon is a rule header or a
            // prefix declaration, not a term: a name, then a colon.
            Word::Prefixed { prefix, local: "" } => {
                self.pending_colon = Some(Span {
                    line: span.line,
                    col: span.col + prefix.chars().count() as u32,
                });
                Tok::Ident(prefix.to_string())
            }
            Word::Prefixed { prefix, local } => Tok::Pname(prefix.to_string(), local.to_string()),
        }
    }

    /// A literal; its datatype may be `<iri>` or a prefixed name.
    fn lex_literal(&mut self, span: Span) -> Result<Term, String> {
        let (prefixes, diags) = (&self.prefixes, &mut self.diags);
        self.scan
            .lex_literal_with(|prefix, local| Ok(prefixes.expand(prefix, local, span, diags)))
            .map(TermRef::into_term)
            .map_err(|e| e.message)
    }

    /// Skips tokens through the next `.` (or EOF) — the statement-level
    /// recovery point.
    pub(crate) fn recover(&mut self) {
        loop {
            match self.tok {
                Tok::Dot => {
                    self.advance();
                    return;
                }
                Tok::Eof => return,
                _ => self.advance(),
            }
        }
    }

    /// Consumes the `.` that ends a statement, or reports and recovers.
    pub(crate) fn expect_dot(&mut self) {
        if self.tok == Tok::Dot {
            self.advance();
        } else {
            self.expected("`.` to end the statement");
            self.recover();
        }
    }

    /// `@prefix NAME: <iri> .` with the lookahead on `@prefix`.
    pub(crate) fn parse_prefix(&mut self) {
        self.advance(); // past @prefix
        let Tok::Ident(name) = &self.tok else {
            self.expected("a prefix name after `@prefix`");
            return self.recover();
        };
        let name = name.clone();
        self.advance();
        if self.tok != Tok::Colon {
            self.expected("`:` after the prefix name");
            return self.recover();
        }
        self.advance();
        let Tok::Iri(iri) = &self.tok else {
            self.expected("`<iri>` after the prefix");
            return self.recover();
        };
        let iri = iri.clone();
        self.advance();
        self.prefixes.table.insert(name, iri);
        self.expect_dot();
    }

    /// The IRI the lookahead token denotes — `<iri>`, `prefix:local`, or
    /// `a` for `rdf:type` where `a_is_type` — consuming it. `None`, with
    /// nothing consumed or reported, for any other token.
    pub(crate) fn take_iri(&mut self, a_is_type: bool) -> Option<String> {
        let iri = match &self.tok {
            Tok::Iri(iri) => iri.clone(),
            Tok::Pname(prefix, local) => {
                self.prefixes
                    .expand(prefix, local, self.span, &mut self.diags)
            }
            Tok::Ident(name) if name == "a" && a_is_type => vocab::RDF_TYPE.to_string(),
            _ => return None,
        };
        self.advance();
        Some(iri)
    }

    /// `true` when the lookahead is the bare name `a` (for the "only valid
    /// in … position" hint).
    pub(crate) fn at_bare_a(&self) -> bool {
        matches!(&self.tok, Tok::Ident(name) if name == "a")
    }
}
