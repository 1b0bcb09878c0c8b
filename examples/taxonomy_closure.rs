//! Transitive closure of a large taxonomy — the workload of Table 4.
//!
//! Generates a deep `rdfs:subClassOf` chain, materializes it with Inferray
//! (whose dedicated Nuutila closure stage handles it in one pass) and with
//! the hash-join baseline (which applies the transitivity rule iteratively),
//! then compares times and verifies both produce the exact closure size.
//!
//! ```text
//! cargo run --release --example taxonomy_closure [chain-length]
//! ```

use inferray::baselines::HashJoinReasoner;
use inferray::datasets::chain;
use inferray::parser::load_triples;
use inferray::{Fragment, InferrayReasoner, Materializer};

fn main() {
    let length: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000);

    println!("Generating a subClassOf chain of {length} classes …");
    let triples = chain::subclass_chain(length);
    let expected = chain::closure_size(length);
    println!(
        "{} asserted triples; the closure holds {expected} subClassOf pairs.",
        triples.len()
    );

    // Inferray: dedicated closure stage (Nuutila, output sorted by construction).
    let loaded = load_triples(triples.iter()).expect("valid chain");
    let mut store = loaded.store.clone();
    let stats = InferrayReasoner::new(Fragment::RhoDf).materialize(&mut store);
    println!(
        "inferray   : {:>10?}  ({} triples materialized, {} iterations)",
        stats.duration,
        store.len(),
        stats.iterations
    );
    assert_eq!(store.len(), expected);

    // Hash-join baseline: iterative application of SCM-SCO.
    let mut store = loaded.store.clone();
    let stats = HashJoinReasoner::new(Fragment::RhoDf).materialize(&mut store);
    println!(
        "hash-join  : {:>10?}  ({} triples materialized, {} iterations)",
        stats.duration,
        store.len(),
        stats.iterations
    );
    assert_eq!(store.len(), expected);

    println!("Both engines agree on the closure; Inferray's dedicated stage avoids the iterative duplicate explosion.");
}
