//! `inferray-cli`'s batch mode, driven as a process: the default output is
//! the closure, `--inferred-only` is the closure minus the input, and both
//! are what the committed golden files (written by the commit before the
//! arena dictionary) hold.

use std::collections::BTreeSet;
use std::process::Command;

const FIXTURE: &str = "tests/fixtures/every_term_shape.nt";

/// Runs the CLI on the fixture under `rdfs-plus` and returns its stdout
/// lines, sorted.
fn cli_lines(extra: &[&str]) -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_inferray-cli"))
        .args(["--fragment", "rdfs-plus"])
        .args(extra)
        .arg(FIXTURE)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("inferray-cli runs");
    assert!(output.status.success(), "{output:?}");
    let mut lines: Vec<String> = String::from_utf8(output.stdout)
        .expect("N-Triples output is UTF-8")
        .lines()
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

fn golden(name: &str) -> Vec<String> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path)
        .expect("golden file is committed")
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn default_output_is_the_golden_closure() {
    assert_eq!(cli_lines(&[]), golden("every_term_shape.rdfs-plus.nt"));
}

#[test]
fn inferred_only_is_the_closure_minus_the_input() {
    let closure: BTreeSet<String> = cli_lines(&[]).into_iter().collect();
    let inferred = cli_lines(&["--inferred-only"]);
    assert_eq!(inferred, golden("every_term_shape.rdfs-plus.inferred.nt"));

    // The input, rendered canonically as the writer renders it.
    let input: BTreeSet<String> = inferray::load_ntriples(
        &std::fs::read_to_string(format!("{}/{FIXTURE}", env!("CARGO_MANIFEST_DIR"))).unwrap(),
    )
    .map(|loaded| {
        loaded
            .store
            .iter_triples()
            .map(|t| loaded.dictionary.decode_triple(t).unwrap().to_string())
            .collect()
    })
    .unwrap();
    assert!(input.is_subset(&closure));
    let expected: Vec<String> = closure.difference(&input).cloned().collect();
    assert_eq!(
        inferred, expected,
        "inferred-only = closure ∖ input, as a set"
    );

    // The fixture asserts a triple that is also derivable (herbie is a
    // Vehicle by cax-sco): it is input, so it is not "inferred".
    let derivable_input = "<http://example.org/herbie> \
        <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Vehicle> .";
    assert!(closure.contains(derivable_input));
    assert!(!inferred.iter().any(|line| line == derivable_input));
    assert!(!inferred.is_empty());
}

#[test]
fn sequential_and_parallel_runs_print_the_same_bytes() {
    assert_eq!(cli_lines(&["--sequential"]), cli_lines(&[]));
    assert_eq!(
        cli_lines(&["--sequential", "--inferred-only"]),
        cli_lines(&["--inferred-only"])
    );
}
