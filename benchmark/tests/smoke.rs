//! Smoke test of the whole benchmark at `--quick` scale: all four workloads
//! end to end and traced, against the real `inferray-cli`, in seconds —
//! plus the checks that tie the binary's output to `BENCHMARK.json`.

// The benchmark's own JSON reader; a test target cannot import from a binary.
#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn benchmark(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs")
}

/// The target directory the binary under test was built into; its scratch
/// space is `<target>/bench-work`.
fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_benchmark"))
        .parent()
        .and_then(Path::parent)
        .expect("binary is in <target>/<profile>")
        .to_path_buf()
}

/// `name` of every entry of the list `key` of `BENCHMARK.json`.
fn declared(declaration: &Json, key: &str) -> Vec<String> {
    declaration
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no list {key}"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("entries are named")
                .to_owned()
        })
        .collect()
}

fn declaration() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// Metric names of a result line, sorted.
fn metric_names(result_line: &str) -> Vec<String> {
    match Json::parse(result_line)
        .ok()
        .and_then(|r| r.get("metrics").cloned())
    {
        Some(Json::Obj(metrics)) => metrics.into_keys().collect(),
        _ => panic!("no metrics object in {result_line}"),
    }
}

fn leftover_children() -> Vec<String> {
    let work = target_dir().join("bench-work");
    let work = work.to_string_lossy().into_owned();
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let cmdline = std::fs::read(entry.path().join("cmdline")).unwrap_or_default();
        let cmdline = String::from_utf8_lossy(&cmdline).replace('\0', " ");
        if cmdline.contains("inferray-cli") && cmdline.contains(&work) {
            found.push(cmdline);
        }
    }
    found
}

#[test]
fn quick_run_of_all_workloads_matches_the_declaration_and_cleans_up() {
    let declaration = declaration();
    let workloads = declared(&declaration, "workloads");
    let end_to_end = declared(&declaration, "end_to_end");
    let per_layer = declared(&declaration, "per_layer");
    assert_eq!(
        workloads,
        ["batch.lubm", "batch.taxonomy", "serve.read", "serve.update"]
    );
    assert!(end_to_end.contains(&"setup_s".to_owned()));

    let out = target_dir().join(format!("smoke-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let out_arg = out.to_string_lossy().into_owned();

    for (trace, declared) in [("0", &end_to_end), ("1", &per_layer)] {
        let mut declared = declared.clone();
        declared.sort();
        // The first call may build inferray-cli; the timed one may not.
        let warm = benchmark(&["--quick", "--workload", "batch.lubm", "--trace", trace]);
        assert!(
            warm.status.success(),
            "{}",
            String::from_utf8_lossy(&warm.stderr)
        );

        let start = Instant::now();
        let run = benchmark(&[
            "--quick", "--seed", "3", "--trace", trace, "--out", &out_arg,
        ]);
        let elapsed = start.elapsed();
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            run.status.success(),
            "trace {trace}: {stdout}\n{}",
            String::from_utf8_lossy(&run.stderr)
        );
        assert!(
            elapsed < Duration::from_secs(90),
            "quick run took {elapsed:?}"
        );
        assert!(
            stdout.contains("QUICK smoke scale"),
            "quick runs are marked as such"
        );

        let results: Vec<&str> = stdout
            .lines()
            .filter(|l| l.starts_with("{\"correct\""))
            .collect();
        assert_eq!(
            results.len(),
            workloads.len(),
            "one result line per workload"
        );
        assert!(
            stdout.trim_end().ends_with(results[results.len() - 1]),
            "result line is last"
        );
        for line in results {
            assert!(
                line.contains("\"correct\": true") && line.contains("\"failed\": 0"),
                "{line}"
            );
            assert_eq!(
                metric_names(line),
                declared,
                "trace {trace}: metrics as declared"
            );
        }
    }

    // Records: one line per workload and mode, fingerprinted and seeded.
    let records = std::fs::read_to_string(&out).expect("--out was written");
    assert_eq!(records.lines().count(), 2 * workloads.len());
    for line in records.lines() {
        for key in [
            "\"nproc\"",
            "\"pool_lanes\"",
            "\"profile\"",
            "\"git_rev\"",
            "\"seed\": 3",
            "\"quick\": true",
            "\"generator\"",
            "\"document_bytes\"",
            "\"claim\": null",
        ] {
            assert!(line.contains(key), "{key} missing from {line}");
        }
    }

    // --compare over the records: every workload × end-to-end metric gets a row.
    let compared = benchmark(&["--compare", &out_arg, &out_arg]);
    let table = String::from_utf8_lossy(&compared.stdout);
    assert!(
        compared.status.success(),
        "a set never regresses against itself: {table}"
    );
    assert_eq!(
        table.lines().count(),
        1 + workloads.len() * end_to_end.len(),
        "{table}"
    );
    let _ = std::fs::remove_file(&out);

    // Nothing outlives the run: no scratch directory, no child process.
    let work = target_dir().join("bench-work");
    let leftovers: Vec<_> = std::fs::read_dir(&work)
        .into_iter()
        .flatten()
        .flatten()
        .collect();
    assert!(leftovers.is_empty(), "scratch left behind: {leftovers:?}");
    assert_eq!(leftover_children(), Vec::<String>::new());
}

#[test]
fn bad_usage_and_a_foreign_directory_fail_without_a_result() {
    let unknown = benchmark(&["--workload", "nope"]);
    assert!(!unknown.status.success());
    assert!(unknown.stdout.is_empty());

    // Outside a checkout of the repository there is nothing to build.
    let elsewhere = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--quick", "--workload", "batch.lubm"])
        .current_dir(target_dir())
        .output()
        .expect("the benchmark binary runs");
    assert!(!elsewhere.status.success());
    assert!(elsewhere.stdout.is_empty());
}

#[test]
fn declaration_meets_the_contract() {
    let declaration = declaration();
    let Json::Obj(keys) = &declaration else {
        panic!("not an object")
    };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let seconds = declaration
        .get("run_seconds")
        .and_then(Json::as_u64)
        .unwrap();
    assert!((1..=60).contains(&seconds));

    let lists = ["workloads", "end_to_end", "per_layer"];
    let names: Vec<String> = lists
        .iter()
        .flat_map(|key| declared(&declaration, key))
        .collect();
    let distinct: BTreeSet<&String> = names.iter().collect();
    assert_eq!(distinct.len(), names.len(), "a name is used once");
    for name in &names {
        assert!(
            name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
    let entries = |key: &str| {
        declaration
            .get(key)
            .and_then(Json::as_array)
            .unwrap()
            .to_vec()
    };
    for workload in entries("workloads") {
        let why = workload
            .get("why")
            .and_then(Json::as_str)
            .expect("a workload says why");
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
    }
    for metric in entries("end_to_end").iter().chain(&entries("per_layer")) {
        let unit = metric
            .get("unit")
            .and_then(Json::as_str)
            .expect("a metric has a unit");
        assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        assert!(
            unit.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
        let better = metric.get("better").and_then(Json::as_str);
        assert!(matches!(better, Some("higher" | "lower")), "{metric:?}");
    }
    for metric in entries("end_to_end") {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{bound}");
    }
}
