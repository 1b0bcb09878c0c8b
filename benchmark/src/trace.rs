//! The traced run: the same generated inputs replayed in-process through
//! each crate's public functions, with a span recorded by this file around
//! every call. Spans stay in memory until the run ends; nothing inside the
//! program is instrumented, and end-to-end runs carry no tracing at all
//! (they are child processes).
//!
//! Layer names are crate names: the part of a span name before the first
//! dot. A layer's self time is its spans' duration minus what their child
//! spans cover.

use crate::child::{self, WorkDir};
use crate::http::Connection;
use crate::inputs::{DatasetKind, Inputs, QueryPool, POINT_ASK, QUERY_CLASSES};
use crate::json::ask_boolean;
use crate::report::Outcome;
use crate::stats::median;
use crate::workloads::{input_detail, write_document, Context};
use inferray_baselines::HashJoinReasoner;
use inferray_closure::transitive_closure;
use inferray_core::{
    Fragment, InferenceStats, InferrayOptions, InferrayReasoner, Ingest, IterationProfile,
    Materializer, TripleStore,
};
use inferray_dictionary::{wellknown, Dictionary};
use inferray_model::IdTriple;
use inferray_parser::parse_ntriples;
use inferray_persist::wal::{encode_record, WalKind};
use inferray_persist::{CheckpointPolicy, DurableDataset, IoBackend, StdFs};
use inferray_query::{parse_query, SnapshotQueryEngine, SparqlServer};
use inferray_sort::{sort_pairs_auto_dedup_with, SortScratch};
use inferray_store::{merge_new_pairs_with, PropertyTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Spans of one operation share an identifier.
    pub op: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The crate this span's call went into.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span around `f`. Spans opened inside `f` (through the
    /// tracer it is handed) become its children; a span with no parent
    /// starts a new operation.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let parent = self.open.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.ops += 1;
                self.ops
            }
        };
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// A span around a call that opens no spans of its own.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// A span's duration minus its direct children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ns)
            .sum();
        self.spans[id].ns().saturating_sub(children)
    }

    /// Self time per layer over the spans inside operations rooted at a
    /// span called `root` (the root's own self time is layer `root`'s).
    pub fn self_ns_by_layer(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let ops: Vec<usize> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.op)
            .collect();
        let mut by_layer = BTreeMap::new();
        for span in self.spans.iter().filter(|s| ops.contains(&s.op)) {
            *by_layer.entry(span.layer()).or_insert(0) += self.self_ns(span.id);
        }
        by_layer
    }

    /// Writes every span as one JSON line: name, start, end, parent,
    /// workload, op.
    pub fn write_jsonl(&self, path: &str, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"workload\": \"{workload}\", \
                 \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.name,
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Span names of the per-class query executions, in [`QUERY_CLASSES`] order.
const EXECUTE_SPANS: [&str; 5] = [
    "query.execute.point-ask",
    "query.execute.bound-object",
    "query.execute.two-hop-join",
    "query.execute.type-scan",
    "query.execute.distinct-classes",
];

fn us(ms_values: &[f64]) -> f64 {
    median(ms_values) * 1e3
}

/// Encodes an N-Triples delta against a private dictionary copy.
fn encode_delta(dictionary: &Dictionary, delta: &str) -> Result<Vec<IdTriple>, String> {
    let mut private = dictionary.clone();
    parse_ntriples(delta)
        .map_err(|e| format!("generated delta does not parse: {e}"))?
        .iter()
        .map(|t| private.encode_triple(t).map_err(|e| e.to_string()))
        .collect()
}

/// The largest table of `store` as a raw pair array.
fn largest_table(store: &TripleStore) -> Vec<u64> {
    store
        .iter_tables()
        .max_by_key(|(_, table)| table.len())
        .map(|(_, table)| table.pairs().to_vec())
        .unwrap_or_default()
}

/// Fisher–Yates over pairs, seeded.
fn shuffle_pairs(pairs: &mut [u64], rng: &mut StdRng) {
    let n = pairs.len() / 2;
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        pairs.swap(2 * i, 2 * j);
        pairs.swap(2 * i + 1, 2 * j + 1);
    }
}

/// One traced run in progress: the recorder, the checks made so far, and
/// what the stages share.
struct Run<'a> {
    t: Tracer,
    outcome: Outcome,
    rng: StdRng,
    /// Repetitions of every timed call; metrics are medians over them.
    reps: usize,
    inputs: &'a Inputs,
    fragment: Fragment,
}

/// What the batch stage hands to the report.
struct BatchFacts {
    cli_walls_ms: Vec<f64>,
    stats: InferenceStats,
    profile: IterationProfile,
    /// Per rep: the profile's fire, update and ⟨o,s⟩-cache totals in ms.
    staged_ms: Vec<[f64; 3]>,
}

/// The published state the serving-side stages replay against.
struct Published<'a> {
    dictionary: &'a Arc<Dictionary>,
    /// The asserted triples.
    base: &'a TripleStore,
    /// Their materialization, query-ready.
    store: &'a TripleStore,
}

impl Run<'_> {
    fn options(&self) -> InferrayOptions {
        InferrayOptions::default()
    }

    /// The CLI's wall on the document, then its batch mode replayed call
    /// for call under one `batch` span per rep.
    fn batch(
        &mut self,
        cli: &Path,
        kind: DatasetKind,
        document: &Path,
    ) -> Result<BatchFacts, String> {
        let mut cli_walls_ms = Vec::new();
        let mut cli_written = None;
        for _ in 0..self.reps {
            let run = child::run_batch(cli, kind.fragment_arg(), document, None)?;
            self.outcome.check(if run.success {
                Ok(())
            } else {
                Err(run.stderr.clone())
            });
            cli_walls_ms.push(run.wall.as_secs_f64() * 1e3);
            cli_written = run.written;
        }

        let mut last = None;
        let mut staged_ms = Vec::new();
        let (fragment, options) = (self.fragment, self.options());
        for _ in 0..self.reps {
            let (stats, profile, written) = self.t.span("batch", |t| {
                let text = t.call("cli.read_input", || std::fs::read_to_string(document));
                let text = text.map_err(|e| format!("cannot read the document back: {e}"))?;
                let loaded = t
                    .call("parser.ingest", || Ingest::new().ntriples(&text))
                    .map_err(|e| format!("ingest failed: {e}"))?;
                let mut store = loaded.store;
                // The CLI collects its input into a set before reasoning.
                let input_set = t.call("cli.input_set", || {
                    store
                        .iter_triples()
                        .collect::<std::collections::BTreeSet<_>>()
                });
                let mut reasoner = InferrayReasoner::with_options(fragment, options);
                let stats = t.call("core.materialize", || reasoner.materialize(&mut store));
                let written = t.call("parser.write", || {
                    let mut out = std::io::BufWriter::new(std::io::sink());
                    let mut written = 0u64;
                    for triple in store.iter_triples() {
                        if let Some(decoded) = loaded.dictionary.decode_triple(triple) {
                            let _ = writeln!(out, "{decoded}");
                            written += 1;
                        }
                    }
                    let _ = out.flush();
                    written
                });
                drop(input_set);
                Ok::<_, String>((stats, reasoner.last_iteration_profile().clone(), written))
            })?;
            self.outcome.check(if Some(written) == cli_written {
                Ok(())
            } else {
                Err(format!(
                    "in-process batch wrote {written}, the CLI {cli_written:?}"
                ))
            });
            staged_ms.push(
                [
                    profile.total_fire(),
                    profile.total_update(),
                    profile.total_os_cache(),
                ]
                .map(|d| d.as_secs_f64() * 1e3),
            );
            last = Some((stats, profile));
        }
        let (stats, profile) = last.expect("reps > 0");
        Ok(BatchFacts {
            cli_walls_ms,
            stats,
            profile,
            staged_ms,
        })
    }

    /// The standalone kernels: dictionary, store, sort, closure. Returns the
    /// sort rates in Mpairs/s and the size of the table they sorted.
    fn kernels(&mut self, published: &Published) -> (Vec<f64>, usize) {
        let Published {
            dictionary,
            base,
            store,
        } = *published;
        for _ in 0..self.reps {
            let triples = &self.inputs.dataset.triples;
            self.t.call("dictionary.intern", || {
                let mut fresh = Dictionary::new();
                for triple in triples {
                    let _ = fresh.encode_triple(triple);
                }
                std::hint::black_box(fresh.len())
            });
            self.t.call("dictionary.clone", || {
                std::hint::black_box((**dictionary).clone())
            });
            self.t
                .call("store.clone", || std::hint::black_box(store.clone()));

            let mut cold = store.clone();
            let properties: Vec<u64> = cold.property_ids().collect();
            for p in properties {
                if let Some(table) = cold.table_mut(p) {
                    table.clear_os_cache();
                }
            }
            self.t.call("store.os_cache", || {
                std::hint::black_box(cold.ensure_all_os())
            });
        }

        let largest = largest_table(store);
        let mut sort_rates = Vec::new();
        for _ in 0..self.reps {
            // Merge: nine tenths of the largest table receive the other
            // tenth plus as many duplicates, in seeded random order.
            let mut main = Vec::with_capacity(largest.len());
            let mut incoming = Vec::new();
            for (i, pair) in largest.chunks_exact(2).enumerate() {
                if i % 10 == 0 {
                    incoming.extend_from_slice(pair);
                } else {
                    main.extend_from_slice(pair);
                    if i % 10 == 1 {
                        incoming.extend_from_slice(pair);
                    }
                }
            }
            shuffle_pairs(&mut incoming, &mut self.rng);
            let mut main = PropertyTable::from_pairs(main);
            let mut scratch = SortScratch::new();
            self.t.call("store.merge", || {
                std::hint::black_box(merge_new_pairs_with(&mut main, incoming, &mut scratch))
            });

            // Sort: the pair-sort kernel on the whole table, shuffled.
            let mut pairs = largest.clone();
            shuffle_pairs(&mut pairs, &mut self.rng);
            let span = self.t.spans().len();
            self.t.call("sort.pairs", || {
                sort_pairs_auto_dedup_with(&mut pairs, &mut scratch)
            });
            let ns = self.t.spans()[span].ns().max(1);
            sort_rates.push((largest.len() / 2) as f64 / (ns as f64 / 1e3));
            self.outcome.check(if pairs == largest {
                Ok(())
            } else {
                Err("sorting the shuffled table did not give the table back".to_owned())
            });
        }

        // Closure over the asserted subClassOf / subPropertyOf graphs.
        let edges = |p: u64| -> Vec<(u64, u64)> {
            base.table(p)
                .map(|t| t.iter_pairs().collect())
                .unwrap_or_default()
        };
        let sub_class = edges(wellknown::RDFS_SUB_CLASS_OF);
        let sub_property = edges(wellknown::RDFS_SUB_PROPERTY_OF);
        for _ in 0..self.reps {
            self.t.call("closure.transitive", || {
                std::hint::black_box((
                    transitive_closure(&sub_class).len(),
                    transitive_closure(&sub_property).len(),
                ))
            });
        }
        (sort_rates, largest.len() / 2)
    }

    /// Incremental maintenance at |Δ| = 1 and 100 on private copies.
    fn maintenance(&mut self, published: &Published) -> Result<(), String> {
        let baseline = published.store.len();
        for (size, extend_span, retract_span) in [
            (1usize, "core.extend.d1", "core.retract.d1"),
            (100, "core.extend.d100", "core.retract.d100"),
        ] {
            for _ in 0..self.reps {
                let delta = self.inputs.delta(size, &mut self.rng);
                let delta = encode_delta(published.dictionary, &delta)?;
                let mut store = published.store.clone();
                let mut base = published.base.clone();
                for triple in &delta {
                    base.add_triple(*triple);
                }
                base.finalize();
                let mut reasoner = InferrayReasoner::with_options(self.fragment, self.options());
                self.t.call(extend_span, || {
                    reasoner.materialize_delta(&mut store, delta.iter().copied())
                });
                self.t.call(retract_span, || {
                    reasoner.retract_delta(&mut store, &mut base, delta.iter().copied())
                });
                self.outcome.check(if store.len() == baseline {
                    Ok(())
                } else {
                    Err(format!(
                        "extend+retract of {size} left {} triples, baseline {baseline}",
                        store.len()
                    ))
                });
            }
        }
        Ok(())
    }

    /// Parses and executes the mix on `engine`, then asks the point queries
    /// again through an in-process server on loopback. Returns rows per
    /// class and the in-process parse + execute times of the point queries.
    fn queries(
        &mut self,
        engine: &SnapshotQueryEngine,
        seed: u64,
        quick: bool,
    ) -> Result<(Vec<Vec<f64>>, Vec<f64>), String> {
        let variants = if quick {
            [16, 16, 8, 4, 1]
        } else {
            [200, 200, 60, 6, 1]
        };
        let pool = QueryPool::generate(self.inputs, seed, variants, |_| 0);
        let mut rows = vec![Vec::new(); QUERY_CLASSES.len()];
        for (class, queries) in pool.classes.iter().enumerate() {
            // The scans have few variants; repeat them for a median.
            let repeats = if queries.len() < 10 { self.reps } else { 1 };
            for (text, _) in queries.iter().cycle().take(queries.len() * repeats) {
                let query = self
                    .t
                    .call("query.parse", || parse_query(text))
                    .map_err(|e| format!("{text}: {e}"))?;
                let solutions = self.t.call(EXECUTE_SPANS[class], || engine.execute(&query));
                rows[class].push(solutions.len() as f64);
            }
        }

        let server = SparqlServer::bind("127.0.0.1:0", 2, Arc::new(engine.clone()))
            .map_err(|e| format!("cannot bind the in-process server: {e}"))?;
        let mut conn =
            Connection::open(server.local_addr()).map_err(|e| format!("cannot connect: {e}"))?;
        for _ in 0..if quick { 100 } else { 2000 } {
            let status = self.t.call("server.status_rtt", || {
                conn.get("/status").map(|r| r.status)
            });
            if status.as_ref().ok() != Some(&200) {
                self.outcome
                    .check(Err(format!("in-process GET /status: {status:?}")));
                break;
            }
        }
        let mut in_process_ms = Vec::new();
        for (text, _) in &pool.classes[POINT_ASK] {
            let start = Instant::now();
            let expected = parse_query(text).map(|q| !engine.execute(&q).is_empty());
            in_process_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let answered = self.t.call("server.point_ask", || {
                conn.post("/sparql", "application/sparql-query", text.as_bytes())
                    .map(|r| ask_boolean(r.body))
            });
            self.outcome.check(match (expected, answered) {
                (Ok(e), Ok(a)) if Some(e) == a => Ok(()),
                (e, a) => Err(format!("{text}: in-process {e:?}, over the socket {a:?}")),
            });
        }
        drop(conn);
        server.shutdown();
        Ok((rows, in_process_ms))
    }

    /// The WAL append as the durable write path makes it (encode one
    /// record, append, fsync), the whole durable write beside the same write
    /// in memory, checkpoint and recovery. Returns the image size in bytes.
    fn persistence(&mut self, durable: &DurableDataset, dir: &Path) -> Result<u64, String> {
        let serving = durable.dataset();
        let baseline = serving.store_snapshot().store().len();
        let probe_log = dir.join("wal-probe.log");
        for seq in 1..=(10 * self.reps as u64) {
            let delta = self.inputs.delta(1, &mut self.rng);
            let appended = self.t.call("persist.wal_append", || {
                let record = encode_record(seq, WalKind::Assert, &delta);
                StdFs.append_durable(&probe_log, &record)
            });
            self.outcome
                .check(appended.map_err(|e| format!("WAL append failed: {e}")));
        }
        for _ in 0..self.reps {
            let delta = self.inputs.delta(1, &mut self.rng);
            let durable_write = self
                .t
                .call("persist.durable_extend", || durable.extend_ntriples(&delta))
                .map_err(|e| e.to_string())
                .and_then(|_| durable.retract_ntriples(&delta).map_err(|e| e.to_string()));
            self.outcome.check(durable_write.map(|_| ()));
            let in_memory = self
                .t
                .call("core.serving_extend", || serving.extend_ntriples(&delta))
                .map_err(|e| e.to_string())
                .and_then(|_| serving.retract_ntriples(&delta).map_err(|e| e.to_string()));
            self.outcome.check(in_memory.map(|_| ()));
        }
        let mut image_bytes = 0;
        for _ in 0..self.reps {
            let path = self
                .t
                .call("persist.checkpoint", || durable.checkpoint())
                .map_err(|e| format!("checkpoint failed: {e}"))?;
            image_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        }
        for _ in 0..self.reps {
            let (fragment, options) = (self.fragment, self.options());
            let recovered = self.t.call("persist.recover", || {
                let policy = CheckpointPolicy::manual();
                DurableDataset::open(dir.join("data"), fragment, options, Arc::new(StdFs), policy)
            });
            self.outcome.check(match recovered {
                Ok((_, report)) if report.triples == baseline && report.replayed_records == 0 => {
                    Ok(())
                }
                Ok((_, report)) => Err(format!(
                    "recovery gave {} triples after {} replayed records, expected {baseline} and 0",
                    report.triples, report.replayed_records
                )),
                Err(e) => Err(format!("recovery failed: {e}")),
            });
        }
        Ok(image_bytes)
    }
}

/// Runs the whole life of a triple over `kind`'s dataset in-process and
/// reports every per-layer metric of `BENCHMARK.json`.
pub fn traced_run(
    ctx: &Context,
    kind: DatasetKind,
    workload: &str,
    spans_out: Option<&str>,
) -> Result<Outcome, String> {
    let dir = WorkDir::create("trace")?;
    let inputs = Inputs::generate(kind, ctx.scale, ctx.seed);
    let document = write_document(&dir, &inputs)?;
    let mut run = Run {
        t: Tracer::new(),
        outcome: Outcome::default(),
        rng: StdRng::seed_from_u64(ctx.seed ^ 0x7ACE),
        reps: if ctx.scale.quick { 2 } else { 5 },
        inputs: &inputs,
        fragment: kind.fragment(),
    };

    let batch = run.batch(ctx.cli, kind, &document)?;

    // The serving twin of the same input, durable, for the later stages.
    let loaded = Ingest::new()
        .ntriples(&inputs.document)
        .map_err(|e| format!("ingest failed: {e}"))?;
    let (durable, _) = DurableDataset::create(
        loaded,
        run.fragment,
        run.options(),
        dir.path().join("data"),
        Arc::new(StdFs),
        CheckpointPolicy::manual(),
    )
    .map_err(|e| format!("cannot create the durable dataset: {e}"))?;
    let (dictionary, base, snapshot) = durable.dataset().persistable_state();
    let published = Published {
        dictionary: &dictionary,
        base: &base,
        store: snapshot.store(),
    };
    let baseline = published.store.len();

    let (sort_rates, largest_pairs) = run.kernels(&published);
    run.maintenance(&published)?;
    let engine = SnapshotQueryEngine::new(snapshot.clone(), Arc::clone(&dictionary));
    let (rows, in_process_ms) = run.queries(&engine, ctx.seed, ctx.scale.quick)?;
    let image_bytes = run.persistence(&durable, dir.path())?;

    // The hash-join engine on the same asserted triples.
    let mut hash_joined = base.clone();
    let fragment = run.fragment;
    run.t.call("baselines.hash_join", || {
        HashJoinReasoner::new(fragment).materialize(&mut hash_joined)
    });
    run.outcome.check(if hash_joined.len() == baseline {
        Ok(())
    } else {
        Err(format!(
            "hash-join materialized {} triples, inferray {baseline}",
            hash_joined.len()
        ))
    });

    // ---- The per-layer metrics, in BENCHMARK.json order.
    let Run {
        t,
        mut outcome,
        reps,
        ..
    } = run;
    let BatchFacts {
        cli_walls_ms,
        stats,
        profile,
        staged_ms,
    } = batch;
    let med = |name: &str| median(&t.ms(name));
    let staged = |stage: usize| median(&staged_ms.iter().map(|s| s[stage]).collect::<Vec<_>>());
    let ingest_ms = med("parser.ingest");
    outcome.metric("parser.ingest_ms", ingest_ms, "ms");
    outcome.metric(
        "parser.mb_per_s",
        inputs.document.len() as f64 / 1e6 / (ingest_ms / 1e3),
        "MB/s",
    );
    outcome.metric("parser.write_ms", med("parser.write"), "ms");
    outcome.metric("dictionary.intern_ms", med("dictionary.intern"), "ms");
    outcome.metric("dictionary.clone_ms", med("dictionary.clone"), "ms");
    outcome.metric("sort.mpairs_per_s", median(&sort_rates), "Mpairs/s");
    outcome.metric("closure.transitive_ms", med("closure.transitive"), "ms");
    let materialize_ms = med("core.materialize");
    outcome.metric("core.materialize_ms", materialize_ms, "ms");
    let profile_sums: Vec<f64> = staged_ms.iter().map(|s| s.iter().sum()).collect();
    outcome.metric("core.materialize_profile_ms", median(&profile_sums), "ms");
    outcome.metric("core.fire_ms", staged(0), "ms");
    outcome.metric("core.update_ms", staged(1), "ms");
    outcome.metric("core.iterations", stats.iterations as f64, "count");
    outcome.metric(
        "core.rules_fired",
        profile.total_rules_fired() as f64,
        "count",
    );
    outcome.metric(
        "core.rules_skipped",
        profile.total_rules_skipped() as f64,
        "count",
    );
    outcome.metric("core.extend_ms.d1", med("core.extend.d1"), "ms");
    outcome.metric("core.extend_ms.d100", med("core.extend.d100"), "ms");
    outcome.metric("core.retract_ms.d1", med("core.retract.d1"), "ms");
    outcome.metric("core.retract_ms.d100", med("core.retract.d100"), "ms");
    outcome.metric("store.clone_ms", med("store.clone"), "ms");
    outcome.metric("store.os_cache_ms", med("store.os_cache"), "ms");
    outcome.metric("store.merge_ms", med("store.merge"), "ms");
    outcome.metric("query.parse_us", us(&t.ms("query.parse")), "us");
    for (class, (name, _)) in QUERY_CLASSES.iter().enumerate() {
        let execute_us = us(&t.ms(EXECUTE_SPANS[class]));
        outcome.metric(&format!("query.execute_us.{name}"), execute_us, "us");
    }
    for (class, (name, _)) in QUERY_CLASSES.iter().enumerate() {
        let mean = rows[class].iter().sum::<f64>() / rows[class].len().max(1) as f64;
        outcome.metric(&format!("query.rows.{name}"), mean, "count");
    }
    outcome.metric("server.status_rtt_us", us(&t.ms("server.status_rtt")), "us");
    outcome.metric(
        "server.overhead_us",
        us(&t.ms("server.point_ask")) - us(&in_process_ms),
        "us",
    );
    outcome.metric("persist.wal_append_ms", med("persist.wal_append"), "ms");
    outcome.metric("persist.checkpoint_ms", med("persist.checkpoint"), "ms");
    outcome.metric("persist.recover_ms", med("persist.recover"), "ms");
    outcome.metric(
        "persist.image_bytes_per_triple",
        image_bytes as f64 / baseline as f64,
        "B/triple",
    );
    let hash_join_ms = med("baselines.hash_join");
    outcome.metric("baselines.hash_join_ms", hash_join_ms, "ms");
    outcome.metric(
        "baselines.inferray_vs_hash_join",
        hash_join_ms / materialize_ms,
        "ratio",
    );

    // Stage times must add up to the wall clock: top-level layer spans of
    // the batch operation over the CLI's wall on the same document.
    let by_layer = t.self_ns_by_layer("batch");
    let layer_ms =
        |layer: &str| by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e6 / reps as f64;
    let covered: f64 = by_layer
        .keys()
        .filter(|layer| **layer != "batch")
        .map(|layer| layer_ms(layer))
        .sum();
    let cli_wall_ms = median(&cli_walls_ms);
    outcome.metric("trace.coverage", covered / cli_wall_ms, "ratio");
    outcome.metric("trace.share_parser", layer_ms("parser") / covered, "ratio");
    outcome.metric("trace.share_core", layer_ms("core") / covered, "ratio");

    outcome.detail("cli_wall_ms", cli_wall_ms, "ms");
    outcome.detail("batch_span_ms", med("batch"), "ms");
    outcome.detail("batch_self_ms.cli", layer_ms("cli"), "ms");
    outcome.detail("batch_self_ms.parser", layer_ms("parser"), "ms");
    outcome.detail("batch_self_ms.core", layer_ms("core"), "ms");
    outcome.detail("batch_self_ms.untraced", layer_ms("batch"), "ms");
    outcome.detail("core.os_cache_ms", staged(2), "ms");
    outcome.detail(
        "core.inference_stats_ms",
        stats.duration.as_secs_f64() * 1e3,
        "ms",
    );
    outcome.detail(
        "core.serving_extend_ms.d1",
        med("core.serving_extend"),
        "ms",
    );
    outcome.detail(
        "persist.durable_extend_ms.d1",
        med("persist.durable_extend"),
        "ms",
    );
    outcome.detail("sort.largest_table_pairs", largest_pairs as f64, "count");
    outcome.detail("materialized_triples", baseline as f64, "count");
    input_detail(&mut outcome, &inputs);
    outcome.detail("spans", t.spans().len() as f64, "count");

    if let Some(path) = spans_out {
        t.write_jsonl(path, workload)
            .map_err(|e| format!("cannot write spans to {path}: {e}"))?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new();
        t.span("batch", |t| {
            t.call("parser.ingest", || {
                std::thread::sleep(Duration::from_millis(3))
            });
            t.span("core.materialize", |t| {
                t.call("store.merge", || {
                    std::thread::sleep(Duration::from_millis(2))
                });
                std::thread::sleep(Duration::from_millis(2));
            });
            std::thread::sleep(Duration::from_millis(1));
        });
        t.call("query.parse", || ());

        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "batch",
                "parser.ingest",
                "core.materialize",
                "store.merge",
                "query.parse"
            ]
        );
        // Parents and operation identifiers.
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, None);
        assert!(spans[..4].iter().all(|s| s.op == spans[0].op));
        assert_ne!(spans[4].op, spans[0].op);
        assert_eq!(spans[3].layer(), "store");

        // Self time: exact arithmetic on the recorded clock values.
        assert_eq!(t.self_ns(0), spans[0].ns() - spans[1].ns() - spans[2].ns());
        assert_eq!(t.self_ns(2), spans[2].ns() - spans[3].ns());
        assert_eq!(t.self_ns(3), spans[3].ns());
        // Children nest inside their parents in time.
        assert!(spans[3].start_ns >= spans[2].start_ns && spans[3].end_ns <= spans[2].end_ns);

        // Per-layer self times of the batch operation add up to its span.
        let by_layer = t.self_ns_by_layer("batch");
        assert_eq!(by_layer.values().sum::<u64>(), spans[0].ns());
        assert!(by_layer["core"] >= 2_000_000 && by_layer["store"] >= 2_000_000);
        assert!(!by_layer.contains_key("query"));
    }

    #[test]
    fn shuffling_keeps_pairs_together() {
        let sorted: Vec<u64> = (0..200u64).flat_map(|i| [i, i + 1000]).collect();
        let mut pairs = sorted.clone();
        shuffle_pairs(&mut pairs, &mut StdRng::seed_from_u64(4));
        assert_ne!(pairs, sorted);
        assert!(pairs.chunks_exact(2).all(|p| p[1] == p[0] + 1000));
        sort_pairs_auto_dedup_with(&mut pairs, &mut SortScratch::new());
        assert_eq!(pairs, sorted);
    }
}
