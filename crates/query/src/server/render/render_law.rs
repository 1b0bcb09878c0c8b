//! The renderer law: `results_json_into` writes, byte for byte, what the
//! renderer it replaced wrote — the reference below decodes every cell
//! through `Dictionary::term_ref`, escapes each variable's key per cell and
//! finds escapes one byte at a time — over random dictionaries (IRIs with
//! and without forbidden characters, blank nodes, plain, tagged and typed
//! literals with N-Triples escapes, control characters and non-ASCII),
//! unbound cells, zero to three variables and zero rows.

use super::*;
use crate::solution::EncodedRow;
use inferray_model::term::XSD_STRING;
use inferray_model::Term;
use proptest::prelude::*;

/// The escaper before the block scan: one `position` over the bytes.
fn reference_escape_into(out: &mut String, value: &str) {
    use std::fmt::Write as _;
    let mut rest = value;
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

fn reference_term_json_into(out: &mut String, term: &TermRef<'_>) {
    match term {
        TermRef::Iri(iri) => {
            out.push_str("{\"type\":\"uri\",\"value\":\"");
            reference_escape_into(out, iri);
            out.push_str("\"}");
        }
        TermRef::Blank(label) => {
            out.push_str("{\"type\":\"bnode\",\"value\":\"");
            reference_escape_into(out, label);
            out.push_str("\"}");
        }
        TermRef::Literal {
            lexical,
            datatype,
            language,
        } => {
            out.push_str("{\"type\":\"literal\",\"value\":\"");
            reference_escape_into(out, lexical);
            out.push('"');
            if let Some(language) = language {
                out.push_str(",\"xml:lang\":\"");
                reference_escape_into(out, language);
                out.push('"');
            } else if let Some(datatype) = datatype {
                out.push_str(",\"datatype\":\"");
                reference_escape_into(out, datatype);
                out.push('"');
            }
            out.push('}');
        }
    }
}

/// The renderer as it was: a `TermRef` per cell, the key escaped per cell.
pub(in crate::server) fn reference_results_json(
    solutions: &SolutionSet,
    dictionary: &Dictionary,
) -> String {
    let mut out = String::new();
    out.push_str("{\"head\":{\"vars\":[");
    for (i, var) in solutions.variables().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        reference_escape_into(&mut out, var);
        out.push('"');
    }
    out.push_str("]},\"results\":{\"bindings\":[");
    for (row_index, row) in solutions.rows().enumerate() {
        if row_index > 0 {
            out.push(',');
        }
        out.push('{');
        let mut first = true;
        for (var, id) in solutions.variables().iter().zip(row) {
            let Some(term) = dictionary.term_ref(*id) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            reference_escape_into(&mut out, var);
            out.push_str("\":");
            reference_term_json_into(&mut out, &term);
        }
        out.push('}');
    }
    out.push_str("]}}\n");
    out
}

pub(super) fn render(solutions: &SolutionSet, dictionary: &Dictionary) -> String {
    let (mut out, mut keys) = (String::new(), CellKeys::default());
    results_json_into(&mut out, &mut keys, solutions, dictionary);
    out
}

/// splitmix64, driven by the case's seed (the head fuzz's mutator too).
pub(in crate::server) struct Mix(pub(in crate::server) u64);

impl Mix {
    pub(in crate::server) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(in crate::server) fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn pick<'a>(&mut self, choices: &[&'a str]) -> &'a str {
        choices[self.below(choices.len())]
    }

    /// Up to `max` pieces of `pool`, concatenated.
    fn text(&mut self, pool: &[&str], max: usize) -> String {
        (0..self.below(max + 1)).map(|_| self.pick(pool)).collect()
    }
}

/// What IRIs are made of: plain runs, every character an `IRIREF` must
/// escape, what JSON must escape, and non-ASCII.
const IRI_PIECES: &[&str] = &[
    "ex",
    "/",
    "#",
    "a",
    "Z9",
    "?q=1&r",
    "_-.~",
    "%20",
    " ",
    "<",
    ">",
    "\"",
    "{",
    "}",
    "|",
    "^",
    "`",
    "\\",
    "\u{0}",
    "\u{1f}",
    "\t",
    "é",
    "語",
    "🚗",
    "0123456789abcdef",
];

/// What lexical forms, labels and variable names are made of.
const TEXT_PIECES: &[&str] = &[
    "x",
    "Hello",
    " ",
    "\"",
    "\\",
    "\\n",
    "\n",
    "\r",
    "\t",
    "\u{1}",
    "\u{1f}",
    "\u{7f}",
    "é",
    "語",
    "🚗",
    "\\u00e9",
    "longer plain run of text",
    "'",
    "/",
    "<>",
];

const LANGUAGES: &[&str] = &["en", "fr", "de-at", "zh-hans-cn", "x-klingon"];

fn random_iri(rng: &mut Mix) -> String {
    format!("http://ex/{}", rng.text(IRI_PIECES, 6))
}

fn random_term(rng: &mut Mix) -> Term {
    match rng.below(6) {
        0 | 1 => Term::iri(random_iri(rng)),
        2 => Term::blank(format!("b{}", rng.text(&["0", "x", "_", "-", "é", "."], 4))),
        3 => Term::plain_literal(rng.text(TEXT_PIECES, 6)),
        4 => Term::lang_literal(rng.text(TEXT_PIECES, 6), rng.pick(LANGUAGES)),
        _ => {
            let datatype = match rng.below(3) {
                0 => XSD_STRING.to_owned(),
                1 => "http://www.w3.org/2001/XMLSchema#integer".to_owned(),
                _ => random_iri(rng),
            };
            Term::typed_literal(rng.text(TEXT_PIECES, 6), datatype)
        }
    }
}

/// A random dictionary, a random answer over it and the ids it holds.
fn random_answer(seed: u64) -> (Dictionary, SolutionSet) {
    let mut rng = Mix(seed);
    let mut dictionary = Dictionary::new();
    let ids: Vec<u64> = (0..1 + rng.below(24))
        .map(|_| dictionary.encode_as_resource(&random_term(&mut rng)))
        .collect();
    let variables: Vec<String> = (0..rng.below(4))
        .map(|i| format!("v{i}{}", rng.text(&["x", "_", "é", "\"", "\\", "\u{2}"], 2)))
        .collect();
    let rows: Vec<EncodedRow> = (0..rng.below(3) * rng.below(12))
        .map(|_| {
            variables
                .iter()
                .map(|_| (rng.below(5) > 0).then(|| ids[rng.below(ids.len())]))
                .collect()
        })
        .collect();
    (dictionary, SolutionSet::new(variables, rows))
}

proptest! {
    #[test]
    fn results_render_byte_for_byte_like_the_reference(seed in any::<u64>()) {
        for case in 0..16 {
            let (dictionary, solutions) = random_answer(seed.wrapping_add(case));
            prop_assert_eq!(
                render(&solutions, &dictionary),
                reference_results_json(&solutions, &dictionary),
                "seed {} case {}", seed, case
            );
        }
    }
}

/// The shapes the random answers reach only by chance: no variables, no
/// rows, every cell unbound, and each kind of term, escaped and not.
#[test]
fn edge_answers_render_like_the_reference() {
    let mut dictionary = Dictionary::new();
    let terms = [
        Term::iri("http://ex/plain"),
        Term::iri("http://ex/a b<c>\"d\\e\u{1}é"),
        Term::blank("b0"),
        Term::plain_literal(""),
        Term::plain_literal("tab\there \"q\" \\ \u{1}é"),
        Term::lang_literal("chat", "FR"),
        Term::typed_literal("5", "http://ex/odd type"),
        Term::typed_literal("s", XSD_STRING),
    ];
    let ids: Vec<Option<u64>> = terms
        .iter()
        .map(|term| Some(dictionary.encode_as_resource(term)))
        .collect();
    let answers = [
        SolutionSet::new(vec![], vec![]),
        SolutionSet::new(vec![], vec![vec![], vec![]]),
        SolutionSet::new(vec!["x".into()], vec![]),
        SolutionSet::new(vec!["x".into(), "y".into()], vec![vec![None, None]]),
        SolutionSet::new(vec!["x".into()], ids.iter().map(|&id| vec![id]).collect()),
        SolutionSet::new(
            vec!["s".into(), "p\"".into(), "o".into()],
            ids.windows(3).map(<[_]>::to_vec).collect(),
        ),
    ];
    for solutions in &answers {
        assert_eq!(
            render(solutions, &dictionary),
            reference_results_json(solutions, &dictionary)
        );
    }
    // The escaped IRI renders as the IRI, not as its N-Triples spelling.
    let single = SolutionSet::new(vec!["x".into()], vec![vec![ids[1]]]);
    assert!(
        render(&single, &dictionary).contains("\"value\":\"http://ex/a b<c>\\\"d\\\\e\\u0001é\"")
    );
}
