//! Figure 7 — memory-access behaviour of the transitivity-closure benchmark.
//!
//! The paper reports hardware counters (cache misses, dTLB misses, page
//! faults) per inferred triple; this reproduction reports the software
//! access profile (sequential words, random words, hash probes, allocated
//! words — all per inferred triple) of each reasoner on the same chain
//! datasets. Random-word and hash-probe counts are the software-level causes
//! of the cache/TLB misses the paper measures, so the *relative ordering* of
//! the engines is the comparable quantity. See README.md, "Substitutions".
//!
//! ```text
//! cargo run -p inferray-bench --release --bin figure7 [--scale N] [--skip-naive]
//! ```

use inferray_bench::{print_table, reasoners_for, run_materializer, ScaleConfig};
use inferray_datasets::{chain, Dataset};
use inferray_rules::Fragment;

fn main() {
    let scale = ScaleConfig::from_env();
    println!("Figure 7 — software memory-access profile, transitivity-closure benchmark");
    println!(
        "(per inferred triple; paper chain lengths 500/1000/2500 divided by {})",
        scale.divisor
    );

    let lengths: Vec<usize> = [500usize, 1_000, 2_500]
        .iter()
        .map(|&l| scale.chain(l))
        .collect();

    let header = vec![
        "chain",
        "engine",
        "seq words/triple",
        "rand words/triple",
        "hash probes/triple",
        "alloc words/triple",
        "random %",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &length in &lengths {
        let dataset = Dataset::new(format!("chain-{length}"), chain::subclass_chain(length));
        for mut engine in reasoners_for(Fragment::RhoDf, scale.skip_naive) {
            let result = run_materializer(engine.as_mut(), &dataset);
            let per = result
                .stats
                .profile
                .per_triple(result.stats.inferred_triples());
            rows.push(vec![
                length.to_string(),
                result.engine.to_string(),
                format!("{:.2}", per.sequential_words),
                format!("{:.2}", per.random_words),
                format!("{:.2}", per.hash_probes),
                format!("{:.2}", per.allocated_words),
                format!("{:.1}", result.stats.profile.random_fraction() * 100.0),
            ]);
        }
    }
    print_table("Figure 7 (software access profile)", &header, &rows);
}
