//! `inferray-cli rules explain --data`, driven as a process: the `cost:` and
//! `scan` lines of the shipped example program over a small family tree are
//! the committed golden file. The estimate is the query planner's model
//! (`inferray_store::estimate`), so a change to the model shows up here.

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
