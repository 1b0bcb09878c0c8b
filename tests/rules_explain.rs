//! `inferray-cli rules explain`, driven as a process, against committed
//! golden files: the `cost:` and `scan` lines of the shipped example program
//! over a small family tree (the estimate is the query planner's model,
//! `inferray_store::estimate`, so a change to the model shows up here), and
//! the whole output for three shipped fragment files, which together hold
//! every built-in's derived signatures and end with the schema stratum and
//! the elided firings the scheduler relies on.

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

/// `rules explain` on shipped fragment files: the findings, each rule's
/// signatures, then the schema stratum and every elided firing with its
/// witness — the whole output is the committed golden file. Between them
/// the three files hold all 38 built-ins, so the goldens pin every
/// signature the catalog's rule texts derive.
#[test]
fn explain_prints_the_stratum_and_the_elided_firings() {
    let root = env!("CARGO_MANIFEST_DIR");
    for name in ["rdfs-default", "rdfs-full", "rdfs-plus-full"] {
        let output = Command::new(env!("CARGO_BIN_EXE_inferray-cli"))
            .args(["rules", "explain", &format!("rules/{name}.rules")])
            .current_dir(root)
            .output()
            .expect("inferray-cli runs");
        assert!(output.status.success(), "{name}: {output:?}");
        let stdout = String::from_utf8(output.stdout).expect("explain output is UTF-8");
        let golden = std::fs::read_to_string(format!("{root}/tests/fixtures/{name}.explain.txt"))
            .expect("golden file is committed");
        assert_eq!(stdout, golden, "{name}");
    }
}
