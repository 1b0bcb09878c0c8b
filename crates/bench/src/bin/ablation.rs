//! Ablation study of Inferray's design choices (extension; not a paper
//! table).
//!
//! README.md's feature list calls out three load-bearing decisions: the dedicated
//! transitive-closure stage (§4.1), the per-rule parallel execution (§4.3)
//! and the sorted vertical-partitioning layout itself (quantified separately
//! by Tables 2–4 against the hash-join baseline). This binary measures the
//! first two by toggling them independently on three representative
//! workloads:
//!
//! * a `subClassOf` chain — the closure-heavy workload of Table 4;
//! * a BSBM-like dataset under RDFS-default — the join-heavy workload of
//!   Table 2;
//! * a LUBM-like dataset under RDFS-Plus — the rule-heavy workload of
//!   Table 3.
//!
//! ```text
//! cargo run -p inferray-bench --release --bin ablation [--scale N]
//! ```

use inferray_bench::{fmt_ms, print_table, run_materializer, ScaleConfig};
use inferray_core::{InferrayOptions, InferrayReasoner};
use inferray_datasets::{subclass_chain, BsbmGenerator, Dataset, LubmGenerator};
use inferray_rules::Fragment;

/// The configurations under study, in display order.
fn configurations() -> Vec<(&'static str, InferrayOptions)> {
    let default = InferrayOptions::default();
    vec![
        ("full (parallel + closure stage)", default),
        (
            "sequential rules",
            InferrayOptions {
                parallel: false,
                ..default
            },
        ),
        (
            "no dedicated closure stage",
            InferrayOptions {
                skip_closure_stage: true,
                ..default
            },
        ),
        (
            "no rule scheduling (fire all rules)",
            InferrayOptions {
                schedule_rules: false,
                ..default
            },
        ),
        (
            "sequential + no closure stage",
            InferrayOptions {
                parallel: false,
                skip_closure_stage: true,
                ..default
            },
        ),
    ]
}

fn workloads(scale: &ScaleConfig) -> Vec<(Fragment, Dataset)> {
    let chain_length = scale.chain(2_500);
    vec![
        (
            Fragment::RhoDf,
            Dataset::new(
                format!("chain-{chain_length}"),
                subclass_chain(chain_length),
            ),
        ),
        (
            Fragment::RdfsDefault,
            BsbmGenerator::new(scale.triples(5_000_000)).generate(),
        ),
        (
            Fragment::RdfsPlus,
            LubmGenerator::new(scale.triples(5_000_000)).generate(),
        ),
    ]
}

fn main() {
    let scale = ScaleConfig::from_env();
    println!("Ablation — Inferray design choices (execution time in milliseconds)");
    println!("(paper dataset sizes divided by {})", scale.divisor);

    let header = vec![
        "fragment",
        "dataset",
        "configuration",
        "ms",
        "iterations",
        "inferred",
        "slowdown",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();

    for (fragment, dataset) in workloads(&scale) {
        let mut baseline_ms = None;
        for (label, options) in configurations() {
            let mut engine = InferrayReasoner::with_options(fragment, options);
            let result = run_materializer(&mut engine, &dataset);
            let baseline = *baseline_ms.get_or_insert(result.inference_ms);
            let slowdown = if baseline > 0.0 {
                result.inference_ms / baseline
            } else {
                1.0
            };
            rows.push(vec![
                fragment.to_string(),
                dataset.label.clone(),
                label.to_string(),
                fmt_ms(result.inference_ms),
                result.stats.iterations.to_string(),
                result.stats.inferred_triples().to_string(),
                format!("{slowdown:.2}x"),
            ]);
        }
    }
    print_table(
        "Ablation (ms, slowdown relative to the full configuration)",
        &header,
        &rows,
    );
}
