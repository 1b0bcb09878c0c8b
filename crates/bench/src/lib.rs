//! # inferray-bench
//!
//! The binaries that regenerate every table and figure of the Inferray
//! paper (see README.md, "Benchmarks", for how to run them):
//!
//! | Binary     | Paper artefact | What it prints |
//! |------------|----------------|----------------|
//! | `table1`   | Table 1        | sort throughput (M pairs/s) for counting, MSDA radix and the generic baselines over a range × size grid |
//! | `table2`   | Table 2        | RDFS-flavour (ρdf / RDFS-default / RDFS-Full) inference times on BSBM-like and real-world-shaped datasets for Inferray, the hash-join baseline and the naive baseline |
//! | `table3`   | Table 3        | RDFS-Plus inference times on LUBM-like and real-world-shaped datasets |
//! | `table4`   | Table 4        | transitivity-closure times on subClassOf chains |
//! | `figure7`  | Figure 7       | memory-access profile per inferred triple for the closure benchmark |
//! | `figure8`  | Figure 8       | memory-access profile per inferred triple for the RDFS-Plus benchmark |
//! | `ablation` | extension (§4.1/§4.3 prose) | Inferray execution time with the dedicated closure stage and the per-rule threads toggled independently |
//! | `backward_vs_forward` | extension (§1 prose) | materialize-then-lookup vs. query-time rewriting on the same instance-type query batches, with the break-even batch size |
//!
//! All binaries accept `--scale <divisor>` (default 20): paper dataset sizes
//! are divided by this factor so the suite completes on a laptop. Run with
//! `--scale 1` to attempt the paper's sizes. Per-layer measurements of the
//! kernels (sort, closure, merge, rule firing, ingest, query, persistence)
//! and of the serving path are recorded by the repository's `benchmark/`
//! package, the one benchmark that gates changes; this crate records none.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod reasoners;
pub mod scale;

pub use harness::{fmt_ms, print_table, run_materializer, BenchResult};
pub use reasoners::{reasoner_names, reasoners_for};
pub use scale::ScaleConfig;
