//! `benchmark` — the one benchmark of this repository: four workloads
//! driven through the real `inferray-cli` (batch mode and the loopback
//! socket), and a traced in-process run that gives the per-layer numbers.
//! See README.md in this directory and `BENCHMARK.json` at the repository
//! root, which declares every workload and metric printed here.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--out FILE] [--spans FILE]
//! benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! The last line of standard output of a run is one JSON object with
//! exactly `correct`, `attempted`, `failed` and `metrics`.

mod child;
mod compare;
mod http;
mod inputs;
mod json;
mod report;
mod stats;
mod trace;
mod workloads;

use inputs::{DatasetKind, Scale};
use report::{Fingerprint, Outcome};
use std::io::Write;
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["batch.lubm", "batch.taxonomy", "serve.read", "serve.update"];

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
    spans: Option<String>,
    compare: Option<(String, String)>,
}

fn usage() -> String {
    format!(
        "usage: benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--out FILE] [--spans FILE]\n       benchmark --compare A.jsonl B.jsonl",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        spans: None,
        compare: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'"));
                }
                parsed.workloads.push(name.clone());
            }
            "--seed" => {
                parsed.seed = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --seed".to_owned())?;
            }
            "--seconds" => {
                let seconds: u64 = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --seconds".to_owned())?;
                parsed.seconds = Some(seconds.max(1));
            }
            "--trace" => {
                parsed.trace = match value(&mut i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value(&mut i)?.clone()),
            "--spans" => parsed.spans = Some(value(&mut i)?.clone()),
            "--compare" => {
                let a = value(&mut i)?.clone();
                let b = value(&mut i)?.clone();
                parsed.compare = Some((a, b));
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
        i += 1;
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
    }
    Ok(parsed)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = compare::bounds_from(&read("BENCHMARK.json")?)?;
    let rows = compare::compare(
        &bounds,
        &compare::runs_from(&read(a)?)?,
        &compare::runs_from(&read(b)?)?,
    );
    if rows.is_empty() {
        return Err(format!("{a} holds no end-to-end runs"));
    }
    Ok(compare::print(&rows))
}

fn run_workload(ctx: &workloads::Context, name: &str, args: &Args) -> Result<Outcome, String> {
    if args.trace {
        let kind = if name == "batch.taxonomy" {
            DatasetKind::Taxonomy
        } else {
            DatasetKind::Lubm
        };
        return trace::traced_run(ctx, kind, name, args.spans.as_deref());
    }
    match name {
        "batch.lubm" => workloads::batch(ctx, DatasetKind::Lubm),
        "batch.taxonomy" => workloads::batch(ctx, DatasetKind::Taxonomy),
        "serve.read" => workloads::serve_read(ctx),
        _ => workloads::serve_update(ctx),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        return run_compare(a, b);
    }
    let cli = child::build_cli()?;
    let seconds = args.seconds.unwrap_or(if args.quick { 1 } else { 12 });
    let ctx = workloads::Context {
        cli: &cli,
        scale: if args.quick {
            Scale::quick()
        } else {
            Scale::full()
        },
        seed: args.seed,
        seconds,
    };
    let fingerprint = Fingerprint::take(args.seed, seconds, args.quick);
    if fingerprint.nproc < workloads::CONNECTIONS {
        eprintln!(
            "benchmark: warning: {} core(s) for {} client connections and as many server \
             threads; these numbers compare only with runs on the same machine",
            fingerprint.nproc,
            workloads::CONNECTIONS
        );
    }
    let mut all_correct = true;
    for name in &args.workloads {
        let outcome = run_workload(&ctx, name, args)?;
        report::print_report(name, args.trace, &fingerprint, &outcome);
        if let Some(path) = &args.out {
            let line = report::record_line(name, args.trace, &fingerprint, &outcome);
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut file| writeln!(file, "{line}"))
                .map_err(|e| format!("cannot append to {path}: {e}"))?;
        }
        println!("{}", outcome.result_line());
        all_correct &= outcome.correct();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // Every child process and scratch directory is owned by a value inside
    // `run`; by the time it returns, on success or error, they are gone.
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
