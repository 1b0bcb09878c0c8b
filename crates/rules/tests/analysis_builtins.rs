//! The built-in catalog as rule files, and the analyzer's fixture corpus:
//! the shipped `rules/*.rules` fragment files must stay in sync with their
//! generator ([`inferray_rules::analysis::builtin::fragment_file_text`]) and
//! load back to their fragment, and every seeded `raNNN-*.rules` fixture
//! must fire the diagnostic its name promises.

use inferray_dictionary::Dictionary;
use inferray_rules::analysis::{self, builtin, Severity};
use inferray_rules::{Fragment, Ruleset};
use std::path::PathBuf;

/// The shipped rule file of a fragment, at the repository root.
fn fragment_file(fragment: Fragment) -> PathBuf {
    let name = match fragment {
        Fragment::RhoDf => "rho-df",
        Fragment::RdfsDefault => "rdfs-default",
        Fragment::RdfsFull => "rdfs-full",
        Fragment::RdfsPlus => "rdfs-plus",
        Fragment::RdfsPlusFull => "rdfs-plus-full",
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../rules")
        .join(format!("{name}.rules"))
}

#[test]
fn fragment_files_load_back_to_their_fragment_rulesets() {
    for fragment in Fragment::ALL {
        let text = builtin::fragment_file_text(fragment);
        let mut dict = Dictionary::new();
        let ruleset = analysis::load_ruleset(&text, &mut dict)
            .unwrap_or_else(|diags| panic!("{fragment}: {diags:?}"));
        let expected = Ruleset::for_fragment(fragment);
        assert_eq!(ruleset.rules(), expected.rules(), "{fragment}");
        assert!(ruleset.custom_rules().is_empty(), "{fragment}");
    }
}

#[test]
fn shipped_fragment_files_match_their_generator() {
    for fragment in Fragment::ALL {
        let path = fragment_file(fragment);
        let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}; run the ignored regenerate_fragment_files test",
                path.display()
            )
        });
        assert_eq!(
            on_disk,
            builtin::fragment_file_text(fragment),
            "{} is stale; run `cargo test -p inferray-rules --test analysis_builtins \
             regenerate_fragment_files -- --ignored`",
            path.display()
        );
    }
}

/// Writer for the shipped files — run explicitly after editing the catalog
/// or its rule texts:
/// `cargo test -p inferray-rules --test analysis_builtins regenerate_fragment_files -- --ignored`
#[test]
#[ignore = "writes the shipped rules/*.rules files"]
fn regenerate_fragment_files() {
    for fragment in Fragment::ALL {
        let path = fragment_file(fragment);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, builtin::fragment_file_text(fragment)).unwrap();
    }
}

/// The seeded fixture corpus: every `raNNN-*.rules` file must fire the
/// diagnostic its name promises, and every `ok-*.rules` file — camouflaged
/// near-misses of the same patterns — must analyze without errors or
/// warnings.
#[test]
fn seeded_fixture_corpus_fires_exactly_the_expected_diagnostics() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut checked_files = 0usize;
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name.strip_suffix(".rules") else {
            continue;
        };
        let text = std::fs::read_to_string(&path).unwrap();
        let checked = analysis::analyze(&text);
        let codes: Vec<&str> = checked.diagnostics.iter().map(|d| d.code).collect();
        if let Some(code) = stem.split('-').next().filter(|p| p.starts_with("ra")) {
            let expected = code.to_ascii_uppercase();
            assert!(
                codes.contains(&expected.as_str()),
                "{name}: expected {expected}, got {codes:?}"
            );
        } else {
            assert!(
                checked
                    .diagnostics
                    .iter()
                    .all(|d| d.severity < Severity::Warning),
                "{name}: expected silence, got {:?}",
                checked.diagnostics
            );
            assert!(
                !checked.diagnostics.iter().any(|d| d.is_error()),
                "{name}: negatives must load"
            );
        }
        checked_files += 1;
    }
    assert!(
        checked_files >= 8,
        "fixture corpus went missing from {dir:?}"
    );
}
