//! `inferray-cli` — command-line materialization and query serving.
//!
//! **Materialize** (default): reads an RDF document (N-Triples by default,
//! Turtle subset with `--format turtle`), materializes the requested
//! entailment fragment with the Inferray reasoner, writes the
//! materialization as N-Triples to standard output and a statistics summary
//! to standard error, followed by the run's stage times: `inferray: stages:
//! ingest … ms, closure …, stratum …, fire …, update …, write … ms` (see
//! "Reading the numbers" in docs/serving.md). `serve` and `snapshot` print
//! the same line, without `write`, after they materialize.
//!
//! **Serve**: `inferray-cli serve` materializes the input once and then
//! exposes it to concurrent clients on a std-only SPARQL-over-HTTP endpoint
//! (see docs/serving.md): `GET/POST /sparql` with SPARQL results JSON,
//! `GET /status` for the snapshot epoch, and — unless `--read-only` —
//! `POST /update` to retract N-Triples with the delete–rederive incremental
//! maintenance path (docs/maintenance.md), or to assert them with
//! `?action=assert`. With `--data-dir` the served dataset is **durable**
//! (docs/persistence.md): it recovers from the newest snapshot image + WAL
//! replay when the directory holds one, writes every accepted update to the
//! WAL before publishing, and checkpoints on a threshold. `--data-dir`
//! combines with `--rules` and `--shapes`; give the same `--fragment` or
//! `--rules` file on every start.
//!
//! **Snapshot**: `inferray-cli snapshot --data-dir D [FILE]` materializes
//! the input and writes a snapshot image (an offline "pre-warm" of the
//! serve cold-start path).
//!
//! **Recover**: `inferray-cli recover --data-dir D` validates the data
//! directory — which image would be used, how many WAL records replay,
//! where the time went — and prints the report without serving. It is a
//! dry run: it opens the directory through an overlay that keeps every
//! write in memory, so the torn log tail it reports is not cut and no
//! file is removed.
//!
//! **Rules**: `inferray-cli rules check FILE` runs the rule-program static
//! analyzer (docs/rules.md) over a `.rules` file and prints every finding as
//! a machine-readable `file:line:col: severity: message [RA###]` line,
//! exiting non-zero when the file has errors. `rules explain FILE`
//! additionally compiles the program and dumps each rule's derived
//! input/output signature and whether it was recognized as a catalog
//! built-in; with `--data DATA` it also prints a per-rule cost estimate
//! (pairs scanned, estimated join bindings) computed from the dataset's
//! distinct-key counters. `serve --rules FILE` serves a dataset closed
//! under the rule program instead of a baked-in fragment.
//!
//! **Shapes**: `inferray-cli shapes check FILE` runs the shape-constraint
//! static analyzer (docs/shapes.md) over a `.shapes` file and prints every
//! finding as a `file:line:col: severity: message [SH###]` line, exiting
//! non-zero on errors. `shapes validate SHAPES [DATA]` additionally
//! compiles the shapes against a dataset and prints every constraint
//! violation with the position of the violated clause, exiting non-zero
//! when the data does not conform. `serve --shapes FILE` installs the
//! shapes as a write gate: a `POST /update` whose result would violate
//! them is refused with `422` and the positioned violation report, and
//! `GET /status` reports the validation counters.
//!
//! ```text
//! inferray-cli [OPTIONS] [FILE]
//! inferray-cli serve [OPTIONS] [--port N] [--threads N] [--data-dir D] [FILE]
//! inferray-cli serve --rules RULES [OPTIONS] [FILE]
//! inferray-cli serve --shapes SHAPES [OPTIONS] [FILE]
//! inferray-cli snapshot --data-dir D [OPTIONS] [FILE]
//! inferray-cli recover --data-dir D [OPTIONS]
//! inferray-cli rules check|explain RULES [--data DATA]
//! inferray-cli shapes check SHAPES
//! inferray-cli shapes validate SHAPES [DATA]
//!
//! Options:
//!   --fragment <rho-df|rdfs|rdfs-full|rdfs-plus|rdfs-plus-full>   (default: rdfs)
//!   --format   <ntriples|turtle>                                  (default: ntriples)
//!   --inferred-only      only print the inferred triples (materialize mode)
//!   --sequential         disable the per-rule thread pool AND parallel ingest
//!   --ingest-threads <N> worker lanes for the streaming loader (default: pool size)
//!   --chunk-kib <N>      approximate ingest chunk size in KiB (default: auto)
//!   --port <N>           serve mode: TCP port to listen on (default: 3030)
//!   --host <ADDR>        serve mode: bind address (default: 127.0.0.1; use
//!                        0.0.0.0 to expose the endpoint beyond this host)
//!   --threads <N>        serve mode: HTTP worker threads (default: available cores)
//!   --read-only          serve mode: disable the POST /update endpoint
//!   --data-dir <DIR>     durable storage directory (WAL + snapshot images)
//!   --checkpoint-every <N>  records between automatic checkpoints (default 1024)
//!   --rules <FILE>       serve/snapshot/recover: close the dataset under
//!                        this rule program instead of --fragment
//!   --shapes <FILE>      serve mode: gate POST /update behind this shape
//!                        file
//!   --data <FILE>        rules explain: estimate per-rule costs against
//!                        this dataset
//!   --help
//!
//! FILE defaults to standard input.
//! ```

use inferray::persist::{Overlay, StdFs};
use inferray::{
    CheckpointPolicy, DurableDataset, DurableError, Program, ServingUpdateSink, ShapeInstallError,
};
use inferray_core::{
    InferenceStats, InferrayOptions, InferrayReasoner, Ingest, LoaderOptions, Materializer,
    ServingDataset, Stage, Stages,
};
use inferray_parser::loader::{LoadError, LoadedDataset};
use inferray_parser::write_store_ntriples;
use inferray_query::{ServerConfig, SnapshotQueryEngine, SparqlServer};
use inferray_rules::analysis::{self, Diagnostic};
use inferray_rules::{shapes, Fragment, RuleRef, Ruleset};
use inferray_store::DistinctCount;
use std::io::Read;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Materialize,
    Serve,
    Snapshot,
    Recover,
    /// `rules check` — static analysis only.
    RulesCheck,
    /// `rules explain` — analysis plus derived-signature dump.
    RulesExplain,
    /// `shapes check` — shape-file static analysis only.
    ShapesCheck,
    /// `shapes validate` — analysis plus validation of a dataset.
    ShapesValidate,
}

struct CliOptions {
    mode: Mode,
    fragment: Fragment,
    turtle: bool,
    inferred_only: bool,
    sequential: bool,
    ingest_threads: Option<usize>,
    chunk_kib: Option<usize>,
    port: u16,
    host: String,
    threads: usize,
    read_only: bool,
    data_dir: Option<String>,
    checkpoint_every: Option<u64>,
    rules: Option<String>,
    shapes: Option<String>,
    data: Option<String>,
    input: Option<String>,
}

fn usage() -> &'static str {
    "usage: inferray-cli [serve|snapshot|recover|rules check|rules explain|\
     shapes check|shapes validate] \
     [--fragment rho-df|rdfs|rdfs-full|rdfs-plus|rdfs-plus-full] \
     [--format ntriples|turtle] [--inferred-only] [--sequential] \
     [--ingest-threads N] [--chunk-kib N] [--port N] [--host ADDR] [--threads N] \
     [--read-only] [--data-dir DIR] [--checkpoint-every N] \
     [--rules FILE] [--shapes FILE] [--data FILE] [FILE]\n\
     Reads RDF and materializes the fragment with Inferray. Without a subcommand\n\
     the materialization is written as N-Triples to stdout; with 'serve' it is\n\
     exposed on a SPARQL-over-HTTP endpoint (GET/POST /sparql, POST /update for\n\
     incremental assert/retract unless --read-only, GET /status) until\n\
     interrupted — durably when --data-dir is given (WAL + snapshot images,\n\
     crash recovery; docs/persistence.md). 'snapshot' writes a snapshot image\n\
     of the materialized input; 'recover' validates a data directory and\n\
     prints the recovery report, writing nothing. 'rules check FILE'\n\
     statically analyzes a rule program (docs/rules.md) and 'rules explain\n\
     FILE' also dumps each rule's derived scheduler signature (with\n\
     per-rule cost estimates when\n\
     --data FILE names a dataset); 'serve --rules FILE' serves a dataset\n\
     closed under the program instead of a baked-in fragment. 'shapes check\n\
     FILE' statically analyzes a shape-constraint file (docs/shapes.md),\n\
     'shapes validate SHAPES [DATA]' validates a dataset against it, and\n\
     'serve --shapes FILE' refuses updates that would violate it (HTTP 422)."
}

fn parse_fragment(name: &str) -> Option<Fragment> {
    match name.to_ascii_lowercase().as_str() {
        "rho-df" | "rhodf" | "rho_df" => Some(Fragment::RhoDf),
        "rdfs" | "rdfs-default" => Some(Fragment::RdfsDefault),
        "rdfs-full" => Some(Fragment::RdfsFull),
        "rdfs-plus" => Some(Fragment::RdfsPlus),
        "rdfs-plus-full" => Some(Fragment::RdfsPlusFull),
        _ => None,
    }
}

fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut options = CliOptions {
        mode: Mode::Materialize,
        fragment: Fragment::RdfsDefault,
        turtle: false,
        inferred_only: false,
        sequential: false,
        ingest_threads: None,
        chunk_kib: None,
        port: 3030,
        // Loopback by default: the endpoint is unauthenticated, so exposing
        // it beyond this host is an explicit decision (--host 0.0.0.0).
        host: "127.0.0.1".to_owned(),
        threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
        read_only: false,
        data_dir: None,
        checkpoint_every: None,
        rules: None,
        shapes: None,
        data: None,
        input: None,
    };
    let mut i = 0usize;
    match args.first().map(String::as_str) {
        Some("serve") => {
            options.mode = Mode::Serve;
            i = 1;
        }
        Some("snapshot") => {
            options.mode = Mode::Snapshot;
            i = 1;
        }
        Some("recover") => {
            options.mode = Mode::Recover;
            i = 1;
        }
        Some("rules") => {
            options.mode = match args.get(1).map(String::as_str) {
                Some("check") => Mode::RulesCheck,
                Some("explain") => Mode::RulesExplain,
                other => {
                    return Err(format!(
                        "'rules' needs a subcommand, 'check' or 'explain' (got {})",
                        other.unwrap_or("nothing")
                    ))
                }
            };
            i = 2;
        }
        Some("shapes") => {
            options.mode = match args.get(1).map(String::as_str) {
                Some("check") => Mode::ShapesCheck,
                Some("validate") => Mode::ShapesValidate,
                other => {
                    return Err(format!(
                        "'shapes' needs a subcommand, 'check' or 'validate' (got {})",
                        other.unwrap_or("nothing")
                    ))
                }
            };
            i = 2;
        }
        _ => {}
    }
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return Err(usage().to_string()),
            "--fragment" => {
                let value = args.get(i + 1).ok_or("--fragment needs a value")?;
                options.fragment =
                    parse_fragment(value).ok_or_else(|| format!("unknown fragment '{value}'"))?;
                i += 1;
            }
            "--format" => {
                let value = args.get(i + 1).ok_or("--format needs a value")?;
                options.turtle = match value.as_str() {
                    "turtle" | "ttl" => true,
                    "ntriples" | "nt" => false,
                    other => return Err(format!("unknown format '{other}'")),
                };
                i += 1;
            }
            "--inferred-only" => options.inferred_only = true,
            "--sequential" => options.sequential = true,
            "--read-only" => options.read_only = true,
            "--ingest-threads" => {
                let value = args.get(i + 1).ok_or("--ingest-threads needs a value")?;
                options.ingest_threads = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad thread count '{value}'"))?,
                );
                i += 1;
            }
            "--chunk-kib" => {
                let value = args.get(i + 1).ok_or("--chunk-kib needs a value")?;
                options.chunk_kib = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad chunk size '{value}'"))?,
                );
                i += 1;
            }
            "--port" => {
                let value = args.get(i + 1).ok_or("--port needs a value")?;
                options.port = value
                    .parse::<u16>()
                    .map_err(|_| format!("bad port '{value}'"))?;
                i += 1;
            }
            "--host" => {
                let value = args.get(i + 1).ok_or("--host needs a value")?;
                options.host = value.clone();
                i += 1;
            }
            "--data-dir" => {
                let value = args.get(i + 1).ok_or("--data-dir needs a value")?;
                options.data_dir = Some(value.clone());
                i += 1;
            }
            "--rules" => {
                let value = args.get(i + 1).ok_or("--rules needs a value")?;
                options.rules = Some(value.clone());
                i += 1;
            }
            "--shapes" => {
                let value = args.get(i + 1).ok_or("--shapes needs a value")?;
                options.shapes = Some(value.clone());
                i += 1;
            }
            "--data" => {
                let value = args.get(i + 1).ok_or("--data needs a value")?;
                options.data = Some(value.clone());
                i += 1;
            }
            "--checkpoint-every" => {
                let value = args.get(i + 1).ok_or("--checkpoint-every needs a value")?;
                options.checkpoint_every = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad checkpoint interval '{value}'"))?,
                );
                i += 1;
            }
            "--threads" => {
                let value = args.get(i + 1).ok_or("--threads needs a value")?;
                options.threads = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("bad thread count '{value}'"))?;
                i += 1;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            file => {
                // In the shapes modes the first positional is the shape
                // file, the (optional) second the dataset to validate.
                if matches!(options.mode, Mode::ShapesCheck | Mode::ShapesValidate)
                    && options.shapes.is_none()
                {
                    options.shapes = Some(file.to_string());
                } else if options.input.is_some() {
                    return Err("more than one input file given".to_string());
                } else {
                    options.input = Some(file.to_string());
                }
            }
        }
        i += 1;
    }
    if matches!(options.mode, Mode::Snapshot | Mode::Recover) && options.data_dir.is_none() {
        return Err("this subcommand requires --data-dir".to_string());
    }
    if matches!(options.mode, Mode::RulesCheck | Mode::RulesExplain) && options.input.is_none() {
        return Err("'rules check|explain' needs a rule file".to_string());
    }
    if options.rules.is_some()
        && !matches!(options.mode, Mode::Serve | Mode::Snapshot | Mode::Recover)
    {
        return Err("--rules only applies to 'serve', 'snapshot' and 'recover'".to_string());
    }
    if matches!(options.mode, Mode::ShapesCheck | Mode::ShapesValidate) && options.shapes.is_none()
    {
        return Err("'shapes check|validate' needs a shape file".to_string());
    }
    if options.shapes.is_some()
        && !matches!(
            options.mode,
            Mode::Serve | Mode::ShapesCheck | Mode::ShapesValidate
        )
    {
        return Err("--shapes only applies to 'serve'".to_string());
    }
    if options.data.is_some() && options.mode != Mode::RulesExplain {
        return Err("--data only applies to 'rules explain'".to_string());
    }
    Ok(options)
}

fn ingest(options: &CliOptions) -> Ingest {
    let mut loader = if options.sequential {
        LoaderOptions::sequential()
    } else {
        LoaderOptions {
            threads: options.ingest_threads,
            chunk_bytes: None,
        }
    };
    loader.chunk_bytes = options.chunk_kib.map(|kib| kib * 1024);
    Ingest::with_options(loader)
}

/// Loads a document held in memory (stdin, a Turtle file).
fn parse_dataset(options: &CliOptions, text: &str) -> Result<LoadedDataset, String> {
    let ingest = ingest(options);
    let loaded = if options.turtle {
        ingest.turtle(text)
    } else {
        ingest.ntriples(text)
    };
    loaded.map_err(|e| e.to_string())
}

/// Loads the main input, FILE or stdin, timed as the ingest stage.
fn load(options: &CliOptions) -> Result<(LoadedDataset, Stages), String> {
    let clock = Instant::now();
    let loaded = match &options.input {
        Some(path) => load_path(options, path),
        None => {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            parse_dataset(options, &text)
        }
    }?;
    let mut stages = Stages::default();
    stages.add(Stage::Ingest, clock.elapsed());
    Ok((loaded, stages))
}

/// Loads a dataset from a named file (the main input, `--data`, `shapes
/// validate`), honoring `--format` and the loader flags. An N-Triples file
/// is streamed — the document is never held; Turtle is read whole.
fn load_path(options: &CliOptions, path: &str) -> Result<LoadedDataset, String> {
    if options.turtle {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return parse_dataset(options, &text);
    }
    ingest(options)
        .ntriples_file(Path::new(path))
        .map_err(|e| match e {
            LoadError::Io(e) => format!("cannot read {path}: {e}"),
            other => other.to_string(),
        })
}

fn reasoner_options(options: &CliOptions) -> InferrayOptions {
    if options.sequential {
        InferrayOptions::sequential()
    } else {
        InferrayOptions::default()
    }
}

/// What the dataset is closed under: the `--rules` file when given, else
/// `--fragment`.
fn program(options: &CliOptions) -> Result<Program, String> {
    match &options.rules {
        Some(path) => std::fs::read_to_string(path)
            .map(|text| Program::from(text.as_str()))
            .map_err(|e| format!("cannot read {path}: {e}")),
        None => Ok(options.fragment.into()),
    }
}

/// The diagnostics that make the `--rules` file unloadable, one
/// machine-readable line each.
fn render_rule_diags(options: &CliOptions, diags: &[Diagnostic]) -> String {
    let path = options.rules.as_deref().unwrap_or("<rules>");
    let lines: Vec<String> = diags.iter().map(|d| render_diag(path, d)).collect();
    lines.join("\n")
}

fn run(options: &CliOptions) -> Result<(), String> {
    let (loaded, mut stages) = load(options)?;

    let mut reasoner = InferrayReasoner::with_options(options.fragment, reasoner_options(options));
    // Only `--inferred-only` needs the input after reasoning: the writer
    // subtracts it table by table.
    let input = options.inferred_only.then(|| loaded.store.clone());
    let mut store = loaded.store;
    let stats = reasoner.materialize(&mut store);
    stages += reasoner.last_stages();

    let clock = Instant::now();
    let written = write_store_ntriples(
        &store,
        input.as_ref(),
        &loaded.dictionary,
        &mut std::io::stdout().lock(),
    )
    .map_err(|e| e.to_string())?;
    stages.add(Stage::Write, clock.elapsed());

    eprintln!(
        "inferray: {} input triples, {} inferred, {} written, {} iterations, {:?} ({} fragment), \
         {} derived, {} duplicates",
        stats.input_triples,
        stats.inferred_triples(),
        written,
        stats.iterations,
        stats.duration,
        reasoner.ruleset().fragment,
        stats.derived_raw,
        stats.duplicates_removed,
    );
    eprintln!("inferray: stages: {stages}");
    Ok(())
}

/// The `materialized …` line of `serve` and `snapshot`, ended by `note`,
/// and the stage line after it: the ingest, then the run's.
fn report_materialized(mut stages: Stages, (stats, run): (InferenceStats, Stages), note: &str) {
    stages += run;
    eprintln!(
        "inferray: materialized {} triples ({} inferred) in {:?}{note}",
        stats.output_triples,
        stats.inferred_triples(),
        stats.duration,
    );
    eprintln!("inferray: stages: {stages}");
}

fn checkpoint_policy(options: &CliOptions) -> CheckpointPolicy {
    CheckpointPolicy {
        wal_record_limit: Some(options.checkpoint_every.unwrap_or(1024)),
        ..CheckpointPolicy::default()
    }
}

/// Opens the data directory if it already holds a snapshot, otherwise
/// materializes the input and creates it.
fn open_or_create_durable(
    options: &CliOptions,
    data_dir: &str,
) -> Result<Arc<DurableDataset>, String> {
    let backend = Arc::new(StdFs);
    let policy = checkpoint_policy(options);
    let program = program(options)?;
    match DurableDataset::open(
        data_dir,
        program.clone(),
        reasoner_options(options),
        backend.clone(),
        policy,
    ) {
        Ok((durable, report)) => {
            if options.input.is_some() {
                eprintln!(
                    "inferray: note: {data_dir} already holds a snapshot; the input file is ignored"
                );
            }
            eprintln!(
                "inferray: recovered epoch {} ({} triples) from {}{} (+{} WAL records replayed, {} skipped{}): {}",
                report.epoch,
                report.triples,
                report.snapshot_path.display(),
                match &report.base_path {
                    Some(base) => format!(" on {}", base.display()),
                    None => String::new(),
                },
                report.replayed_records,
                report.skipped_records,
                if report.torn_tail_bytes > 0 {
                    format!(", {} torn tail bytes discarded", report.torn_tail_bytes)
                } else {
                    String::new()
                },
                report.stages,
            );
            Ok(Arc::new(durable))
        }
        Err(DurableError::NoSnapshot) => {
            let (loaded, ingest) = load(options)?;
            let (durable, run) = DurableDataset::create(
                loaded,
                program,
                reasoner_options(options),
                data_dir,
                backend,
                policy,
            )
            .map_err(|e| durable_error(options, e))?;
            let note = format!("; initial snapshot written to {data_dir}");
            report_materialized(ingest, run, &note);
            Ok(Arc::new(durable))
        }
        Err(e) => Err(e.to_string()),
    }
}

fn durable_error(options: &CliOptions, error: DurableError) -> String {
    match error {
        DurableError::Program(diags) => render_rule_diags(options, &diags),
        other => other.to_string(),
    }
}

/// One finding as a machine-readable line: `file:line:col: severity:
/// message [RA###]` — the format editors and CI log-matchers expect.
fn render_diag(path: &str, d: &Diagnostic) -> String {
    format!(
        "{path}:{}:{}: {}: {} [{}]",
        d.line,
        d.col,
        d.severity.label(),
        d.message,
        d.code
    )
}

/// Renders a [`DistinctCount`] as `, ~N label` (tilde marks an estimate),
/// or nothing when the counter is unavailable.
fn distinct_str(label: &str, count: Option<DistinctCount>) -> String {
    match count {
        Some(d) if d.exact => format!(", {} {label}", d.count),
        Some(d) => format!(", ~{} {label}", d.count),
        None => String::new(),
    }
}

/// `rules check` / `rules explain`: run the static analyzer over a rule
/// file, print every finding, and — for `explain` — compile the program and
/// dump each rule's derived scheduler signature.
fn rules_check(options: &CliOptions, explain: bool) -> Result<(), String> {
    let path = options.input.as_deref().expect("validated by parse_args");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let checked = analysis::analyze(&text);
    for d in &checked.diagnostics {
        println!("{}", render_diag(path, d));
    }
    if checked.has_errors() {
        return Err(format!("{path}: rule program has errors"));
    }
    if explain {
        // With --data the program is compiled against the dataset's own
        // dictionary so rule constants and data identifiers agree — the
        // cost model would otherwise estimate over the wrong tables.
        let mut dict = inferray_dictionary::Dictionary::new();
        let data_store = match &options.data {
            Some(data_path) => {
                let mut loaded = load_path(options, data_path)?;
                // Build the ⟨o,s⟩ caches so object-side join selectivity
                // is available to the estimator.
                loaded.store.ensure_all_os();
                dict = loaded.dictionary;
                eprintln!(
                    "inferray: cost model over {data_path} ({} triples)",
                    loaded.store.len()
                );
                Some(loaded.store)
            }
            None => None,
        };
        match checked.compile(&mut dict) {
            Ok(compiled) => {
                for note in &compiled.notes {
                    println!("{}", render_diag(path, note));
                }
                for (i, rule) in compiled.rules.iter().enumerate() {
                    // A recognized rule's text lowers as its built-in's does.
                    let builtin = compiled.builtin_of(i);
                    let kernel = analysis::lowering(rule).label();
                    let executor = match builtin {
                        Some(id) => format!("builtin {id} ({kernel})"),
                        None => format!("custom ({kernel})"),
                    };
                    println!("rule {}: {executor}", rule.name);
                    println!("  inputs:  {}", rule.inputs);
                    println!("  outputs: {}", rule.outputs);
                    if let Some(store) = &data_store {
                        let cost = analysis::cost::estimate(rule, store, &dict);
                        println!(
                            "  cost:    ~{} bindings from {} pairs scanned",
                            cost.est_rounded(),
                            cost.scanned
                        );
                        for atom in &cost.atoms {
                            println!(
                                "    scan {}: {} pairs{}{}",
                                atom.pattern,
                                atom.rows,
                                distinct_str("subjects", atom.distinct_subjects),
                                distinct_str("objects", atom.distinct_objects),
                            );
                        }
                    }
                }
                print_schedule(&Ruleset::from_analyzed(&compiled));
            }
            Err(diags) => {
                for d in diags.iter().filter(|d| !checked.diagnostics.contains(d)) {
                    println!("{}", render_diag(path, d));
                }
                return Err(format!("{path}: rule program has errors"));
            }
        }
    }
    let errors = checked.diagnostics.iter().filter(|d| d.is_error()).count();
    eprintln!(
        "inferray: {}: {} rules, {} findings ({} errors)",
        path,
        checked.rules.len(),
        checked.diagnostics.len(),
        errors,
    );
    Ok(())
}

/// The scheduling facts `rules explain` proves about the whole program:
/// the schema stratum the reasoner closes before the data loop, and every
/// firing `C∘P` it leaves out while that stratum stays closed, with the
/// rule that derives the same triples (docs/rule-scheduling.md).
fn print_schedule(ruleset: &Ruleset) {
    let name = |rule: RuleRef| ruleset.compiled(rule).name.as_str();
    let stratum: Vec<&str> = ruleset.stratum().iter().map(|&r| name(r)).collect();
    if stratum.is_empty() {
        println!("stratum: none");
    } else {
        println!(
            "stratum: {} (closed before the data loop)",
            stratum.join(", ")
        );
    }
    for elision in ruleset.elisions() {
        println!(
            "elided {}∘{}: witness {}",
            name(elision.consumer),
            name(elision.producer),
            name(elision.witness)
        );
    }
}

/// `shapes check` / `shapes validate`: run the shape-constraint static
/// analyzer over a `.shapes` file, print every positioned `SH…` finding,
/// and — for `validate` — compile the shapes against a dataset and report
/// every constraint violation.
fn shapes_check(options: &CliOptions, validate: bool) -> Result<(), String> {
    let path = options.shapes.as_deref().expect("validated by parse_args");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let checked = shapes::analyze(&text);
    for d in &checked.diagnostics {
        println!("{}", render_diag(path, d));
    }
    if checked.has_errors() {
        return Err(format!("{path}: shape file has errors"));
    }
    let errors = checked.diagnostics.iter().filter(|d| d.is_error()).count();
    eprintln!(
        "inferray: {}: {} shapes, {} findings ({} errors)",
        path,
        checked.shapes.len(),
        checked.diagnostics.len(),
        errors,
    );
    if !validate {
        return Ok(());
    }

    // Validate the (raw, un-reasoned) dataset: what you load is what the
    // shapes judge. Use `serve --shapes` to gate a materialized dataset.
    let (mut loaded, _) = load(options)?;
    loaded.store.ensure_all_os();
    let compiled = checked
        .compile(&loaded.dictionary)
        .expect("analysis without errors compiles");
    let report = shapes::validate(
        &compiled,
        &loaded.store,
        &loaded.dictionary,
        inferray_parallel::global(),
    );
    for v in &report.violations {
        let shape = &compiled.shapes[v.shape];
        let focus = loaded
            .dictionary
            .text(v.focus)
            .map_or_else(|| format!("#{}", v.focus), str::to_owned);
        println!(
            "{path}:{}:{}: violation: focus {focus} fails shape {}: {}",
            v.line,
            v.col,
            shape.name,
            describe_kind(v, &compiled, &loaded.dictionary),
        );
    }
    eprintln!(
        "inferray: {} focus checks, {} violations ({} triples)",
        report.focus_checks,
        report.violations.len(),
        loaded.store.len(),
    );
    if report.conforms() {
        Ok(())
    } else {
        Err(format!("{path}: data does not conform"))
    }
}

/// One violation's cause, decoded for terminal output.
fn describe_kind(
    v: &shapes::Violation,
    compiled: &shapes::CompiledShapes,
    dict: &inferray_dictionary::Dictionary,
) -> String {
    let decode = |id: u64| {
        dict.text(id)
            .map_or_else(|| format!("#{id}"), str::to_owned)
    };
    let path_iri = compiled.shapes[v.shape]
        .constraints
        .get(v.constraint)
        .map_or("?", |c| c.path_iri.as_str());
    match v.kind {
        shapes::ViolationKind::CountBelow { found, min } => {
            format!("{found} value(s) for <{path_iri}>, at least {min} required")
        }
        shapes::ViolationKind::CountAbove { found, max } => {
            format!("{found} value(s) for <{path_iri}>, at most {max} allowed")
        }
        shapes::ViolationKind::Datatype { value } => {
            format!("value {} has the wrong datatype", decode(value))
        }
        shapes::ViolationKind::Class { value } => {
            format!(
                "value {} is not an instance of the required class",
                decode(value)
            )
        }
        shapes::ViolationKind::In { value } => {
            format!("value {} is not in the allowed set", decode(value))
        }
        shapes::ViolationKind::Node { value, shape } => format!(
            "value {} does not conform to shape {}",
            decode(value),
            compiled.shapes.get(shape).map_or("?", |s| s.name.as_str())
        ),
    }
}

fn serve(options: &CliOptions) -> Result<(), String> {
    // With --data-dir the dataset is durable: recovered from disk when
    // possible, WAL-protected in any case. Without it, serving stays purely
    // in-memory.
    let (dataset, sink) = match &options.data_dir {
        Some(data_dir) => {
            let durable = open_or_create_durable(options, data_dir)?;
            (
                Arc::clone(durable.dataset()),
                ServingUpdateSink::durable(durable),
            )
        }
        None => {
            let (loaded, ingest) = load(options)?;
            let (dataset, run) = ServingDataset::materialize_program(
                loaded,
                program(options)?,
                reasoner_options(options),
            )
            .map_err(|diags| render_rule_diags(options, &diags))?;
            report_materialized(ingest, run, "");
            let dataset = Arc::new(dataset);
            (Arc::clone(&dataset), ServingUpdateSink::new(dataset))
        }
    };
    if let Some(shapes_path) = &options.shapes {
        let text = std::fs::read_to_string(shapes_path)
            .map_err(|e| format!("cannot read {shapes_path}: {e}"))?;
        // Install the gate *before* binding: the server either starts with
        // a green validation — of the materialized or the recovered
        // snapshot alike — or does not start.
        match dataset.install_shapes(&text) {
            Ok(()) => {}
            Err(ShapeInstallError::Program(diags)) => {
                return Err(diags
                    .iter()
                    .map(|d| render_diag(shapes_path, d))
                    .collect::<Vec<_>>()
                    .join("\n"));
            }
            Err(ShapeInstallError::Violations(violations)) => {
                return Err(format!(
                    "{shapes_path}: the dataset already violates the shapes — \
                     refusing to serve\n{violations}"
                ));
            }
        }
        let status = dataset
            .validation_status()
            .expect("gate installed just above");
        eprintln!(
            "inferray: installed {} shape(s) from {shapes_path}; \
             epoch {} validated green ({} focus checks)",
            status.shapes,
            dataset.epoch(),
            status.counters.focus_checks,
        );
    }
    let sink = if options.read_only {
        sink.status_only()
    } else {
        sink
    };

    let source = {
        let dataset = Arc::clone(&dataset);
        move || {
            let (snapshot, dictionary) = dataset.snapshot();
            SnapshotQueryEngine::new(snapshot, dictionary)
        }
    };
    let addr = format!("{}:{}", options.host, options.port);
    let config = ServerConfig {
        threads: options.threads,
        ..ServerConfig::default()
    };
    let server = SparqlServer::bind_with(&addr, config, Arc::new(source), Some(Arc::new(sink)))
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    eprintln!(
        "inferray: serving SPARQL on http://{}/sparql ({} worker threads, epoch {}, updates {}, durability {})",
        server.local_addr(),
        options.threads,
        dataset.epoch(),
        if options.read_only { "off" } else { "on" },
        if options.data_dir.is_some() { "on" } else { "off" },
    );
    eprintln!(
        "inferray: try  curl 'http://{}/status'",
        server.local_addr()
    );
    // Serve until the process is interrupted.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn snapshot(options: &CliOptions, data_dir: &str) -> Result<(), String> {
    let (loaded, ingest) = load(options)?;
    let (durable, run) = DurableDataset::create(
        loaded,
        program(options)?,
        reasoner_options(options),
        data_dir,
        Arc::new(StdFs),
        checkpoint_policy(options),
    )
    .map_err(|e| durable_error(options, e))?;
    let status = durable.status();
    report_materialized(ingest, run, "");
    match status.snapshot_path {
        Some(path) => println!("{}", path.display()),
        None => return Err("snapshot was not written".to_string()),
    }
    Ok(())
}

/// A dry run of recovery: the directory is opened through an overlay that
/// keeps what recovery writes — a cut log tail, removed temp files — in
/// memory.
fn recover(options: &CliOptions, data_dir: &str) -> Result<(), String> {
    let (durable, report) = DurableDataset::open(
        data_dir,
        program(options)?,
        reasoner_options(options),
        Arc::new(Overlay::new(StdFs)),
        checkpoint_policy(options),
    )
    .map_err(|e| e.to_string())?;
    match &report.base_path {
        Some(base) => {
            println!("base: {} (full image)", base.display());
            println!(
                "snapshot: {} (epoch {}, delta image on the base)",
                report.snapshot_path.display(),
                report.snapshot_epoch
            );
        }
        None => println!(
            "snapshot: {} (epoch {})",
            report.snapshot_path.display(),
            report.snapshot_epoch
        ),
    }
    if report.invalid_snapshots > 0 {
        println!(
            "invalid newer snapshots skipped: {}",
            report.invalid_snapshots
        );
    }
    println!(
        "wal: {} records replayed, {} skipped, {} torn tail bytes",
        report.replayed_records, report.skipped_records, report.torn_tail_bytes
    );
    println!(
        "recovered: epoch {} with {} triples ({} explicit)",
        report.epoch,
        report.triples,
        durable.dataset().base_len()
    );
    println!("stages: {}", report.stages);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let result = match options.mode {
        Mode::Serve => serve(&options),
        Mode::Snapshot => snapshot(&options, &options.data_dir.clone().expect("validated")),
        Mode::Recover => recover(&options, &options.data_dir.clone().expect("validated")),
        Mode::Materialize => run(&options),
        Mode::RulesCheck => rules_check(&options, false),
        Mode::RulesExplain => rules_check(&options, true),
        Mode::ShapesCheck => shapes_check(&options, false),
        Mode::ShapesValidate => shapes_check(&options, true),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("inferray-cli: {message}");
            ExitCode::FAILURE
        }
    }
}
