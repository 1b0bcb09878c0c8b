//! `inferray-cli rules explain`, driven as a process, against two committed
//! golden files: the `cost:` and `scan` lines of the shipped example program
//! over a small family tree (the estimate is the query planner's model,
//! `inferray_store::estimate`, so a change to the model shows up here), and
//! the whole output for `rules/rdfs-default.rules`, which ends with the
//! schema stratum and the elided firings the scheduler relies on.

use std::process::Command;

#[test]
fn explain_with_data_prints_the_golden_cost_lines() {
    let root = env!("CARGO_MANIFEST_DIR");
    let output = Command::new(env!("CARGO_BIN_EXE_inferray-cli"))
        .args([
            "rules",
            "explain",
            "rules/examples/grandparent.rules",
            "--data",
            "tests/fixtures/family.nt",
        ])
        .current_dir(root)
        .output()
        .expect("inferray-cli runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("explain output is UTF-8");
    let cost_lines: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with("  cost:") || line.starts_with("    scan "))
        .collect();
    let golden = std::fs::read_to_string(format!(
        "{root}/tests/fixtures/family.grandparent-explain.txt"
    ))
    .expect("golden file is committed");
    assert_eq!(cost_lines, golden.lines().collect::<Vec<_>>());
}

/// `rules explain` on a shipped fragment file: the findings, each rule's
/// signatures, then the schema stratum and every elided firing with its
/// witness — the whole output is the committed golden file.
#[test]
fn explain_prints_the_stratum_and_the_elided_firings() {
    let root = env!("CARGO_MANIFEST_DIR");
    let output = Command::new(env!("CARGO_BIN_EXE_inferray-cli"))
        .args(["rules", "explain", "rules/rdfs-default.rules"])
        .current_dir(root)
        .output()
        .expect("inferray-cli runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("explain output is UTF-8");
    let golden = std::fs::read_to_string(format!("{root}/tests/fixtures/rdfs-default.explain.txt"))
        .expect("golden file is committed");
    assert_eq!(stdout, golden);
}
