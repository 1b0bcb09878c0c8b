//! One spelling ↔ one identifier: a term written the way the loader read it
//! from a document addresses the stored term from every other grammar — a
//! SPARQL query and a `.shapes` `in ( … )` list — because all of them scan
//! terms with the same lexer (`inferray::parser::lex::Scan`).

use inferray::parser::lex::Scan;
use inferray::query::{parse_query, PatternTerm, QueryEngine};
use inferray::rules::shapes::{self, Check};
use inferray::{load_ntriples, Term};

const FIXTURE: &str = include_str!("fixtures/every_term_shape.nt");

/// The three terms of every statement of the fixture: spelt exactly as in
/// the file (escapes, `^^<datatype>`, `@lang` and all), and as the loader
/// read them.
fn spellings() -> Vec<[(&'static str, Term); 3]> {
    let mut statements = Vec::new();
    for line in FIXTURE.lines() {
        let mut scan = Scan::new(line, 1);
        scan.skip_trivia();
        if scan.is_done() {
            continue;
        }
        statements.push([(); 3].map(|()| {
            scan.skip_whitespace();
            let start = scan.pos();
            let term = scan.lex_term().expect("the fixture is valid N-Triples");
            (&line[start..scan.pos()], term.into_term())
        }));
    }
    assert_eq!(statements.len(), 16);
    statements
}

#[test]
fn every_fixture_term_is_found_by_ask_spelt_as_in_the_file() {
    let mut dataset = load_ntriples(FIXTURE).unwrap();
    dataset.store.ensure_all_os();
    let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
    for [(s, _), (p, _), (o, _)] in spellings() {
        let query = format!("ASK {{ {s} {p} {o} }}");
        assert_eq!(engine.ask_sparql(&query), Ok(true), "{query}");
    }
}

#[test]
fn every_fixture_term_is_found_by_a_shapes_in_list_spelt_as_in_the_file() {
    let dataset = load_ntriples(FIXTURE).unwrap();
    for (spelling, term) in spellings().into_iter().flatten() {
        let text = format!("shape S targets all {{ <urn:p> in ( {spelling} ) ; }} .");
        let analysis = shapes::analyze(&text);
        let compiled = analysis.compile(&dataset.dictionary).expect(&text);
        let Check::In { values, .. } = &compiled.shapes[0].constraints[0].checks[0] else {
            panic!("{text}: no `in` check in {compiled:?}");
        };
        let stored = dataset
            .dictionary
            .id_of(&term)
            .expect("the loader stored it");
        assert_eq!(values, &[stored], "{text}");
    }
}

fn object_of(query: &str) -> Term {
    match parse_query(query).expect(query).patterns.remove(0).o {
        PatternTerm::Constant(term) => term,
        PatternTerm::Variable(name) => panic!("{query}: ?{name} is no constant"),
    }
}

#[test]
fn sparql_decodes_escapes_as_the_loader_does() {
    assert_eq!(
        object_of("ASK { ?s ?p \"caf\\u00E9 \\U0001F697\" }"),
        Term::plain_literal("café 🚗")
    );
    assert_eq!(
        object_of("ASK { ?s ?p <http://ex/caf\\u00e9> }"),
        Term::iri("http://ex/café")
    );
    assert_eq!(
        object_of("ASK { ?s ?p \"a\\tb\"^^<http://ex/d\\u00e9> }"),
        Term::typed_literal("a\tb", "http://ex/dé")
    );
}

#[test]
fn sparql_rejects_what_the_loader_rejects() {
    for (query, reason) in [
        ("ASK { ?s ?p \"caf\\q\" }", "bad escape sequence in literal"),
        (
            "ASK { ?s ?p \"caf\\u00\" }",
            "bad escape sequence in literal",
        ),
        ("ASK { ?s ?p <http://ex/a b> }", "whitespace inside IRI"),
        ("ASK { ?s ?p <http://ex/a\nb> }", "whitespace inside IRI"),
        ("ASK { ?s ?p <http://ex/\\q> }", "bad escape in IRI"),
    ] {
        let error = parse_query(query).expect_err(query);
        assert_eq!(error.message, reason, "{query}");
        assert!(error.line >= 1 && error.column > 1, "{query}: {error}");
        // The loader refuses the same spelling.
        let statement = query
            .replace("ASK { ?s ?p", "<urn:s> <urn:p>")
            .replace('}', ".");
        let refused = inferray::parser::lex::lex_ntriples_line(&statement, 1).expect_err(query);
        assert_eq!(refused.message, reason, "{statement}");
    }
}

/// The IRI the name expands to in Turtle, SPARQL, `.rules` and `.shapes`
/// (with `ex:` declared as `http://ex/` in each), or `None` where the
/// grammar refuses it.
fn name_in_every_grammar(name: &str) -> [Option<String>; 4] {
    let turtle = inferray::parse_turtle(&format!(
        "@prefix ex: <http://ex/> .\n<urn:s> <urn:p> {name} ."
    ))
    .ok()
    .and_then(|triples| triples[0].object.as_iri().map(str::to_owned));
    let sparql = parse_query(&format!("PREFIX ex: <http://ex/> ASK {{ ?s ?p {name} }}"))
        .ok()
        .and_then(|query| match &query.patterns[0].o {
            PatternTerm::Constant(term) => term.as_iri().map(str::to_owned),
            PatternTerm::Variable(_) => None,
        });
    let rules = inferray::rules::analysis::analyze(&format!(
        "@prefix ex: <http://ex/> .\nrule r: ?s <urn:p> {name} => ?s <urn:q> {name} ."
    ));
    let rules = (!rules.has_errors()).then(|| match &rules.rules[0].body[0].o {
        inferray::rules::analysis::SymTerm::Iri(iri) => iri.clone(),
        other => panic!("{name} is {other:?} in a rule"),
    });
    let shapes = shapes::analyze(&format!(
        "@prefix ex: <http://ex/> .\nshape S targets class {name} {{ <urn:p> count [0..1] ; }} ."
    ));
    let shapes = (!shapes.has_errors()).then(|| match &shapes.shapes[0].target {
        shapes::SymTarget::Class(iri) => iri.clone(),
        other => panic!("{name} is {other:?} in a shape"),
    });
    [turtle, sparql, rules, shapes]
}

#[test]
fn a_prefixed_name_is_the_same_characters_in_every_grammar() {
    for (name, iri) in [
        ("ex:Person", "http://ex/Person"),
        ("ex:v1.2", "http://ex/v1.2"),
        ("ex:café", "http://ex/café"),
        ("ex:a%20b", "http://ex/a%20b"),
        ("ex:a:b", "http://ex/a:b"),
        (
            "ex:with-dash_and_underscore",
            "http://ex/with-dash_and_underscore",
        ),
    ] {
        let expected = Some(iri.to_string());
        assert_eq!(
            name_in_every_grammar(name),
            [(); 4].map(|()| expected.clone()),
            "{name}"
        );
    }
    // Characters no grammar's names hold end the name; what follows is then
    // out of place everywhere.
    for name in ["ex:a/b", "ex:a(b", "ex:a~b", "ex:a\\b", "ex:a'b"] {
        assert_eq!(
            name_in_every_grammar(name),
            [None, None, None, None],
            "{name}"
        );
    }
}

#[test]
fn numeric_shorthand_is_spelt_alike_in_turtle_and_sparql() {
    for (number, datatype) in [
        ("7", "integer"),
        ("007", "integer"),
        ("-5", "integer"),
        ("+5", "integer"),
        ("1.50", "decimal"),
        ("1e5", "decimal"),
    ] {
        let expected = Term::typed_literal(
            number,
            format!("http://www.w3.org/2001/XMLSchema#{datatype}"),
        );
        let loaded = inferray::parse_turtle(&format!("<urn:s> <urn:p> {number} ."))
            .unwrap_or_else(|e| panic!("{number}: {e}"));
        assert_eq!(loaded[0].object, expected, "{number} in Turtle");
        assert_eq!(
            object_of(&format!("ASK {{ ?s ?p {number} }}")),
            expected,
            "{number} in SPARQL"
        );
    }
    for not_a_number in ["-", "+", "-."] {
        assert!(inferray::parse_turtle(&format!("<urn:s> <urn:p> {not_a_number} .")).is_err());
        assert!(parse_query(&format!("ASK {{ ?s ?p {not_a_number} }}")).is_err());
    }
}
