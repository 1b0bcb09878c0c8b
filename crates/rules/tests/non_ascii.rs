//! Non-ASCII text in `.rules` and `.shapes` files: string literals keep
//! their UTF-8 and take the loader's escapes, a stray non-ASCII character is
//! one finding that names it, and columns count characters. One seeded-bad
//! fixture per case (the `ra…` ones are also swept by `analysis_builtins`).

use inferray_model::Term;
use inferray_rules::analysis::{self, Diagnostic};
use inferray_rules::shapes::{self, SymClause};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn rendered(diagnostics: &[Diagnostic]) -> Vec<String> {
    diagnostics.iter().map(|d| d.to_string()).collect()
}

#[test]
fn a_stray_non_ascii_character_in_a_rule_file_is_one_finding() {
    let analysis = analysis::analyze(&fixture("ra001-non-ascii-arrow.rules"));
    assert_eq!(
        rendered(&analysis.diagnostics),
        [
            "RA001: 5:29: error: unexpected character `⇒`",
            "RA001: 5:31: error: expected `=>` between body and head, found `?y`",
        ]
    );
}

#[test]
fn rule_file_columns_count_characters() {
    let analysis = analysis::analyze(&fixture("ra003-column-after-non-ascii.rules"));
    assert_eq!(
        rendered(&analysis.diagnostics),
        ["RA003: 5:35: error: head variable `?z` of rule `café` is not bound by any body atom"]
    );
}

#[test]
fn a_stray_non_ascii_character_in_a_shape_file_is_one_finding() {
    let analysis = shapes::analyze(&fixture(
        "shapes-non-ascii/sh001-unexpected-character.shapes",
    ));
    assert_eq!(
        rendered(&analysis.diagnostics),
        [
            "SH001: 6:19: error: unexpected character `…`",
            "SH001: 6:20: error: expected `..` between the bounds, found `2`",
        ]
    );
}

#[test]
fn shape_file_columns_count_characters() {
    let analysis = shapes::analyze(&fixture(
        "shapes-non-ascii/sh003-column-after-non-ascii.shapes",
    ));
    let rendered = rendered(&analysis.diagnostics);
    assert_eq!(rendered.len(), 1, "{rendered:?}");
    assert!(
        rendered[0].starts_with("SH003: 4:17: error: "),
        "{rendered:?}"
    );
}

#[test]
fn shape_strings_keep_their_utf8_and_take_the_loaders_escapes() {
    let analysis = shapes::analyze(&fixture("shapes-non-ascii/sh001-bad-escape.shapes"));
    assert_eq!(
        rendered(&analysis.diagnostics),
        [
            "SH010: 11:11: error: empty `in` enumeration on `<urn:p>`: no value can satisfy it",
            "SH001: 11:16: error: bad escape sequence in literal",
        ]
    );
    let lists: Vec<&Vec<Term>> = analysis.shapes[0]
        .constraints
        .iter()
        .map(|constraint| match &constraint.clauses[0] {
            SymClause::In { values, .. } => values,
            other => panic!("expected an `in` clause, got {other:?}"),
        })
        .collect();
    let expected = ["café", "tab\there", "🚗"].map(Term::plain_literal);
    assert_eq!(lists[0][..], expected, "raw spelling");
    assert_eq!(lists[1][..], expected, "escaped spelling");
}
