//! The four end-to-end workloads. Each drives `inferray-cli` from outside —
//! a child process fed generated documents and, in serve mode, loopback
//! HTTP requests — checks every answer against an in-process reference on
//! the same inputs, and reduces what it timed to the end-to-end metrics of
//! `BENCHMARK.json` plus detail rows under the issue's names.

use crate::child::{self, LineDigest, Server, WorkDir};
use crate::http::Connection;
use crate::inputs::{
    DatasetKind, Inputs, QueryPool, Scale, Schedule, BOUND_OBJECT, POINT_ASK, QUERY_CLASSES,
};
use crate::json::{ask_boolean, count_bindings, Json};
use crate::report::Outcome;
use crate::stats::{median, Latency};
use inferray_core::{InferrayOptions, InferrayReasoner, Ingest, Materializer, ServingDataset};
use inferray_query::{parse_query, SnapshotQueryEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Client connections of the serve workloads, and the server's `--threads`.
pub const CONNECTIONS: usize = 2;
/// Pause of `serve.update`'s reader between a reply and its next request.
/// A reader without one keeps a client thread and a server worker spinning
/// on this machine's two cores, and update latency then measures which core
/// the scheduler left to the writer: two modes, a fifth apart, between runs.
const READER_THINK: Duration = Duration::from_millis(2);
/// |Δ| of the two asserts of a write cycle; the cycle's third update
/// retracts both deltas at once. Two asserts to one retract — and not the
/// one to one of plain assert/retract pairs — because the two cost
/// differently: with three populations of equal size the median update
/// falls inside the middle one and the tail inside the slowest, however far
/// apart they are, instead of on the gap between two halves.
const CYCLE_DELTAS: [usize; 2] = [1, 100];
const CYCLE_UPDATES: u64 = CYCLE_DELTAS.len() as u64 + 1;
/// Records between checkpoints of the durable server: a whole number of
/// cycles, so a cycle never straddles a checkpoint.
const CHECKPOINT_EVERY: u64 = 21 * CYCLE_UPDATES;
/// WAL records behind the last checkpoint when the server is killed — five
/// cycles and the marker: what every cold start replays.
const WAL_TAIL: u64 = 5 * CYCLE_UPDATES + 1;

pub struct Context<'a> {
    pub cli: &'a Path,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn write_document(dir: &WorkDir, inputs: &Inputs) -> Result<PathBuf, String> {
    let path = dir.path().join("input.nt");
    std::fs::write(&path, &inputs.document)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn path_str(path: &Path) -> Result<&str, String> {
    path.to_str()
        .ok_or_else(|| format!("{} is not UTF-8", path.display()))
}

pub fn input_detail(outcome: &mut Outcome, inputs: &Inputs) {
    outcome.dataset = format!(
        "{{\"generator\": \"{}\", \"label\": \"{}\", \"fragment\": \"{}\", \
         \"triples\": {}, \"document_bytes\": {}}}",
        inputs.generator(),
        inputs.dataset.label,
        inputs.kind.fragment_arg(),
        inputs.dataset.len(),
        inputs.document.len()
    );
    outcome.detail("input_triples", inputs.dataset.len() as f64, "count");
    outcome.detail("input_document_bytes", inputs.document.len() as f64, "B");
}

/// Adds the five end-to-end metrics in `BENCHMARK.json` order.
fn end_to_end(
    outcome: &mut Outcome,
    throughput: f64,
    latency: Latency,
    peak_rss_kb: u64,
    setups: &[f64],
) {
    outcome.metric("throughput_per_s", throughput, "1/s");
    outcome.metric("latency_p50_ms", latency.p50, "ms");
    outcome.metric("latency_tail_ms", latency.tail, "ms");
    outcome.metric("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB");
    outcome.metric("setup_s", median(setups), "s");
    outcome.detail("latency_samples", latency.samples as f64, "count");
    outcome.detail("latency_tail_percentile", f64::from(latency.tail_p), "%");
    outcome.detail(
        "latency_tail_supported",
        f64::from(u8::from(latency.tail_supported)),
        "count",
    );
    outcome.detail("setup_samples", setups.len() as f64, "count");
}

/// What the CLI's batch mode must print for `inputs`: the in-process
/// materialization of the same document, rendered the same way.
pub fn reference_digest(inputs: &Inputs) -> Result<LineDigest, String> {
    let loaded = Ingest::new()
        .ntriples(&inputs.document)
        .map_err(|e| format!("reference ingest failed: {e}"))?;
    let mut store = loaded.store;
    InferrayReasoner::with_options(inputs.kind.fragment(), InferrayOptions::default())
        .materialize(&mut store);
    let mut digest = LineDigest::default();
    let mut line = String::new();
    for triple in store.iter_triples() {
        if let Some(decoded) = loaded.dictionary.decode_triple(triple) {
            use std::fmt::Write as _;
            line.clear();
            let _ = write!(line, "{decoded}");
            digest.add(line.as_bytes());
        }
    }
    Ok(digest)
}

/// `batch.lubm` / `batch.taxonomy`: the whole CLI process, bytes to
/// N-Triples out, repeated for the measured window.
pub fn batch(ctx: &Context, kind: DatasetKind) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let dir = WorkDir::create("batch")?;
    let fragment = kind.fragment_arg();

    // Set-up, several times over: generate the input from the seed, write
    // it, and make the one untimed run whose output is read back.
    let mut setups = Vec::new();
    let mut verified = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let inputs = Inputs::generate(kind, ctx.scale, ctx.seed);
        let document = write_document(&dir, &inputs)?;
        let mut digest = LineDigest::default();
        let run = child::run_batch(ctx.cli, fragment, &document, Some(&mut digest))?;
        setups.push(start.elapsed().as_secs_f64());
        verified.push((run, digest));
        prepared = Some((inputs, document));
    }
    let (inputs, document) = prepared.expect("SETUPS > 0");
    let expected = reference_digest(&inputs)?;
    for (run, digest) in &verified {
        outcome.check(if !run.success {
            Err(format!("verification run failed: {}", run.stderr.trim()))
        } else if *digest != expected {
            Err(format!(
                "batch output differs from the in-process materialization: \
                 {digest:?} vs {expected:?}"
            ))
        } else {
            Ok(())
        });
    }

    // The measured window: whole runs, back to back.
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut peaks = Vec::new();
    let window = Instant::now();
    while window.elapsed() < Duration::from_secs(ctx.seconds) || walls.len() < 3 {
        let run = child::run_batch(ctx.cli, fragment, &document, None)?;
        outcome.check(if !run.success {
            Err(format!("timed run failed: {}", run.stderr.trim()))
        } else if run.written != Some(expected.lines) {
            Err(format!(
                "timed run wrote {:?} triples, expected {}",
                run.written, expected.lines
            ))
        } else {
            Ok(())
        });
        peaks.push(run.peak_rss_kb as f64);
        rates.push(expected.lines as f64 / run.wall.as_secs_f64());
        walls.push(ms(run.wall));
    }

    // Per-run peaks differ with thread timing; their median repeats, their
    // maximum does not.
    let peak_rss_kb = median(&peaks) as u64;
    end_to_end(
        &mut outcome,
        median(&rates),
        Latency::of(&walls),
        peak_rss_kb,
        &setups,
    );
    outcome.detail("materialize_triples_per_s", median(&rates), "1/s");
    outcome.detail("timed_reps", walls.len() as f64, "count");
    outcome.detail("output_triples", expected.lines as f64, "count");
    input_detail(&mut outcome, &inputs);
    Ok(outcome)
}

/// The seeded queries of a serve workload, each with the answer of the
/// in-process twin of what `inferray-cli serve` publishes at epoch 0.
fn query_pool(inputs: &Inputs, seed: u64, quick: bool) -> Result<QueryPool, String> {
    let loaded = Ingest::new()
        .ntriples(&inputs.document)
        .map_err(|e| format!("reference ingest failed: {e}"))?;
    let (dataset, _) =
        ServingDataset::materialize(loaded, inputs.kind.fragment(), InferrayOptions::default());
    let (snapshot, dictionary) = dataset.snapshot();
    let engine = SnapshotQueryEngine::new(snapshot, dictionary);
    let variants = if quick {
        [24, 24, 8, 4, 1]
    } else {
        [512, 512, 128, 16, 1]
    };
    Ok(QueryPool::generate(inputs, seed, variants, |text| {
        let query = parse_query(text).expect("generated queries parse");
        let solutions = engine.execute(&query).len();
        // An ASK answers with a boolean: compare emptiness, not row counts.
        if text.contains("ASK {") {
            usize::from(solutions > 0)
        } else {
            solutions
        }
    }))
}

/// Issues one pooled query and checks status and solution count.
/// Returns the latency of the exchange.
fn timed_query(
    conn: &mut Connection,
    text: &str,
    expected: usize,
) -> (Duration, Result<(), String>) {
    let start = Instant::now();
    let response = conn.post("/sparql", "application/sparql-query", text.as_bytes());
    let latency = start.elapsed();
    let verdict = match response {
        Err(e) => Err(format!("request failed: {e}")),
        Ok(r) if r.status != 200 => Err(format!("{text}: HTTP {}", r.status)),
        Ok(r) => {
            let got = if text.contains("ASK {") {
                ask_boolean(r.body).map(usize::from)
            } else {
                count_bindings(r.body)
            };
            if got == Some(expected) {
                Ok(())
            } else {
                Err(format!(
                    "{text}: {got:?} solutions, reference has {expected}"
                ))
            }
        }
    };
    (latency, verdict)
}

/// What one reader connection saw.
#[derive(Default)]
struct ReaderLog {
    /// `(class, latency in ms)` of every request inside the window.
    samples: Vec<(usize, f64)>,
    verdicts: Vec<Result<(), String>>,
}

/// A closed-loop reader: next request only after the previous reply, and
/// after `think`. Runs until `stop`; requests before `record_from` warm up
/// and are not kept.
fn reader(
    addr: SocketAddr,
    pool: &QueryPool,
    classes: &[usize],
    seed: u64,
    think: Duration,
    record_from: Instant,
    stop: &AtomicBool,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut schedule = Schedule::new(classes, seed);
    let mut conn = match Connection::open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            log.verdicts.push(Err(format!("cannot connect: {e}")));
            return log;
        }
    };
    while !stop.load(Ordering::Relaxed) {
        let (class, (text, expected)) = schedule.next(pool);
        let (latency, verdict) = timed_query(&mut conn, text, *expected);
        let broken = verdict
            .as_ref()
            .is_err_and(|m| m.starts_with("request failed"));
        if Instant::now() >= record_from {
            log.samples.push((class, ms(latency)));
            log.verdicts.push(verdict);
        }
        if broken {
            break; // the connection is gone; one failure is on record
        }
        if !think.is_zero() {
            std::thread::sleep(think);
        }
    }
    log
}

fn absorb_reader_logs(outcome: &mut Outcome, logs: Vec<ReaderLog>) -> Vec<(usize, f64)> {
    let mut samples = Vec::new();
    for log in logs {
        samples.extend(log.samples);
        for verdict in log.verdicts {
            outcome.check(verdict);
        }
    }
    samples
}

fn per_class_detail(outcome: &mut Outcome, samples: &[(usize, f64)]) {
    for (class, (name, _)) in QUERY_CLASSES.iter().enumerate() {
        let of_class: Vec<f64> = samples
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, l)| *l)
            .collect();
        if of_class.is_empty() {
            continue;
        }
        let latency = Latency::of(&of_class);
        outcome.detail(format!("query_p50_ms.{name}"), latency.p50, "ms");
        outcome.detail(
            format!("query_p{}_ms.{name}", latency.tail_p),
            latency.tail,
            "ms",
        );
        outcome.detail(
            format!("query_samples.{name}"),
            latency.samples as f64,
            "count",
        );
    }
}

fn warmup(seconds: u64) -> Duration {
    Duration::from_secs_f64((seconds as f64 / 8.0).clamp(0.2, 3.0))
}

/// `serve.read`: an in-memory read-only server under the five-class mix.
pub fn serve_read(ctx: &Context) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let dir = WorkDir::create("serve-read")?;
    let inputs = Inputs::generate(DatasetKind::Lubm, ctx.scale, ctx.seed);
    let document = write_document(&dir, &inputs)?;
    let pool = query_pool(&inputs, ctx.seed, ctx.scale.quick)?;

    // Set-up: spawn → first 200 from /status. The last server stays up.
    let args = [
        "--read-only",
        "--fragment",
        inputs.kind.fragment_arg(),
        path_str(&document)?,
    ];
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let spawned = Server::spawn(ctx.cli, CONNECTIONS, &args)?;
        setups.push(spawned.startup.as_secs_f64());
        server = Some(spawned);
    }
    let server = server.expect("SETUPS > 0");

    let all_classes: Vec<usize> = (0..QUERY_CLASSES.len()).collect();
    let stop = AtomicBool::new(false);
    let record_from = Instant::now() + warmup(ctx.seconds);
    let logs: Vec<ReaderLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|i| {
                let (pool, classes, stop) = (&pool, &all_classes, &stop);
                let seed = ctx.seed ^ (0xC11E_0000 + i as u64);
                scope.spawn(move || {
                    reader(
                        server.addr,
                        pool,
                        classes,
                        seed,
                        Duration::ZERO,
                        record_from,
                        stop,
                    )
                })
            })
            .collect();
        let end = record_from + Duration::from_secs(ctx.seconds);
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    // The window ends when the last in-flight reply lands.
    let window = Instant::now() - record_from;
    let samples = absorb_reader_logs(&mut outcome, logs);
    let correct = outcome.attempted - outcome.failed;
    let latencies: Vec<f64> = samples.iter().map(|(_, l)| *l).collect();
    let latency = Latency::of(&latencies);
    let throughput = correct as f64 / window.as_secs_f64();

    end_to_end(
        &mut outcome,
        throughput,
        latency,
        server.peak_rss_kb(),
        &setups,
    );
    outcome.detail("query_per_s", throughput, "1/s");
    outcome.detail("query_p50_ms", latency.p50, "ms");
    outcome.detail(format!("query_p{}_ms", latency.tail_p), latency.tail, "ms");
    per_class_detail(&mut outcome, &samples);
    outcome.detail("window_s", window.as_secs_f64(), "s");
    input_detail(&mut outcome, &inputs);
    Ok(outcome)
}

/// The parts of `GET /status` the update workload reads.
struct Status {
    triples: u64,
    wal_records: u64,
}

fn status(conn: &mut Connection) -> Result<Status, String> {
    let response = conn
        .get("/status")
        .map_err(|e| format!("GET /status failed: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET /status answered {}", response.status));
    }
    let json = Json::parse(&String::from_utf8_lossy(response.body))?;
    let field = |value: Option<&Json>, name: &str| {
        value
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("/status has no {name}"))
    };
    Ok(Status {
        triples: field(json.get("triples"), "triples")?,
        wal_records: field(
            json.get("durability").and_then(|d| d.get("wal_records")),
            "durability.wal_records",
        )?,
    })
}

/// One `POST /update`; returns its latency and the `triples` it reports.
fn update(conn: &mut Connection, action: &str, body: &str) -> (Duration, Result<u64, String>) {
    let start = Instant::now();
    let response = conn.post(
        &format!("/update?action={action}"),
        "application/n-triples",
        body.as_bytes(),
    );
    let latency = start.elapsed();
    let triples = match response {
        Err(e) => Err(format!("update failed: {e}")),
        Ok(r) if r.status != 200 => Err(format!(
            "{action}: HTTP {}: {}",
            r.status,
            String::from_utf8_lossy(r.body).trim()
        )),
        Ok(r) => Json::parse(&String::from_utf8_lossy(r.body)).and_then(|json| {
            json.get("triples")
                .and_then(Json::as_u64)
                .ok_or_else(|| "update response has no triples".to_owned())
        }),
    };
    (latency, triples)
}

/// `serve.update`: a durable server; one connection writes assert/retract
/// pairs, one reads beside it; then SIGKILL and timed cold starts.
///
/// Durability here is process-kill durability: the operating system keeps
/// what the killed process had written, synced or not. Power-loss
/// semantics (discarding unsynced bytes) are `tests/crash_recovery.rs`'
/// business, with its `MemFs`.
pub fn serve_update(ctx: &Context) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let dir = WorkDir::create("serve-update")?;
    let inputs = Inputs::generate(DatasetKind::Lubm, ctx.scale, ctx.seed);
    let document = write_document(&dir, &inputs)?;
    let pool = query_pool(&inputs, ctx.seed, ctx.scale.quick)?;
    let data_dir = dir.path().join("data");
    let data_dir = path_str(&data_dir)?;
    let fragment = inputs.kind.fragment_arg();
    let every = CHECKPOINT_EVERY.to_string();

    // Pre-build the image, then serve from it.
    child::run_to_completion(
        ctx.cli,
        &[
            "snapshot",
            "--data-dir",
            data_dir,
            "--fragment",
            fragment,
            path_str(&document)?,
        ],
    )?;
    let serve_args = [
        "--data-dir",
        data_dir,
        "--fragment",
        fragment,
        "--checkpoint-every",
        &every,
    ];
    let server = Server::spawn(ctx.cli, CONNECTIONS, &serve_args)?;
    outcome.detail("first_start_s", server.startup.as_secs_f64(), "s");

    let mut writer = Connection::open(server.addr).map_err(|e| format!("cannot connect: {e}"))?;
    let baseline = status(&mut writer)?.triples;

    let stop = AtomicBool::new(false);
    let record_from = Instant::now() + warmup(ctx.seconds);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xDE17A);
    // `(action, |Δ|, latency ms)` of every update inside the window.
    let mut updates: Vec<(&str, usize, f64)> = Vec::new();
    let mut writer_error = None;
    let mut writer_elapsed = Duration::ZERO;
    let addr = server.addr;
    let reader_log = std::thread::scope(|scope| {
        let (pool, stop_flag) = (&pool, &stop);
        let seed = ctx.seed ^ 0xC11E_0001;
        let handle = scope.spawn(move || {
            reader(
                addr,
                pool,
                &[POINT_ASK, BOUND_OBJECT],
                seed,
                READER_THINK,
                record_from,
                stop_flag,
            )
        });

        let deadline = record_from + Duration::from_secs(ctx.seconds);
        let mut extra_cycles = 0u64;
        loop {
            // One cycle: assert each delta, retract them together, and see
            // the store back at its baseline.
            let recorded = Instant::now() >= record_from;
            let mut both = String::new();
            let mut acknowledged = true;
            for size in CYCLE_DELTAS {
                let delta = inputs.delta(size, &mut rng);
                let (latency, asserted) = update(&mut writer, "assert", &delta);
                acknowledged &= asserted.is_ok();
                if recorded {
                    updates.push(("assert", size, ms(latency)));
                    outcome.check(asserted.map(|_| ()));
                }
                both.push_str(&delta);
            }
            let (latency, retracted) = update(&mut writer, "retract", &both);
            acknowledged &= retracted.is_ok();
            let after = status(&mut writer);
            if recorded {
                updates.push(("retract", both.lines().count(), ms(latency)));
                outcome.check(match (&retracted, &after) {
                    (Err(e), _) | (_, Err(e)) => Err(e.clone()),
                    (Ok(reported), Ok(seen))
                        if *reported != baseline || seen.triples != baseline =>
                    {
                        Err(format!(
                            "after assert+retract the store has {reported} / {} triples, \
                             baseline {baseline}",
                            seen.triples
                        ))
                    }
                    _ => Ok(()),
                });
            }
            let Ok(after) = after else {
                writer_error = Some("the writer lost the server".to_owned());
                break;
            };
            if !acknowledged {
                writer_error = Some("an update was refused".to_owned());
                break;
            }
            if Instant::now() >= deadline {
                // Keep writing until the log behind the last checkpoint has
                // a fixed length, so every cold start replays the same tail.
                if after.wal_records == WAL_TAIL - 1 {
                    break;
                }
                extra_cycles += 1;
                if extra_cycles > CHECKPOINT_EVERY {
                    writer_error = Some(format!(
                        "WAL never reached {} records (at {})",
                        WAL_TAIL - 1,
                        after.wal_records
                    ));
                    break;
                }
            }
        }
        writer_elapsed = Instant::now() - record_from;
        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap_or_default()
    });
    if let Some(message) = writer_error {
        outcome.check(Err(message));
    }
    let reads = absorb_reader_logs(&mut outcome, vec![reader_log]);

    // The last acknowledged write before the kill: it must survive it.
    let (marker, ask_marker) = inputs.marker(ctx.seed);
    let (_, marked) = update(&mut writer, "assert", &marker);
    let expected_triples = marked.clone().unwrap_or(0);
    outcome.check(marked.map(|_| ()));
    let mut peak_rss_kb = server.peak_rss_kb();
    drop(writer);
    drop(server); // SIGKILL

    // Cold starts: respawn on the same directory → first 200 from /status
    // (image load + WAL-tail replay). These are this workload's set-ups.
    let mut cold_starts = Vec::new();
    for _ in 0..SETUPS {
        let restarted = Server::spawn(ctx.cli, CONNECTIONS, &serve_args)?;
        cold_starts.push(restarted.startup.as_secs_f64());
        let mut conn =
            Connection::open(restarted.addr).map_err(|e| format!("cannot connect: {e}"))?;
        outcome.check(status(&mut conn).and_then(|s| {
            if s.triples == expected_triples && s.wal_records == WAL_TAIL {
                Ok(())
            } else {
                Err(format!(
                    "after restart: {} triples, {} WAL records; acknowledged state had \
                     {expected_triples} and {WAL_TAIL}",
                    s.triples, s.wal_records
                ))
            }
        }));
        outcome.check(timed_query(&mut conn, &ask_marker, 1).1);
        peak_rss_kb = peak_rss_kb.max(restarted.peak_rss_kb());
    }

    let update_latencies: Vec<f64> = updates.iter().map(|(_, _, l)| *l).collect();
    let latency = Latency::of(&update_latencies);
    let throughput = update_latencies.len() as f64 / writer_elapsed.as_secs_f64();
    end_to_end(&mut outcome, throughput, latency, peak_rss_kb, &cold_starts);
    outcome.detail("update_per_s", throughput, "1/s");
    outcome.detail("update_p50_ms", latency.p50, "ms");
    outcome.detail(format!("update_p{}_ms", latency.tail_p), latency.tail, "ms");
    let retract_size: usize = CYCLE_DELTAS.iter().sum();
    for (action, size) in [("assert", 1), ("assert", 100), ("retract", retract_size)] {
        let of_kind: Vec<f64> = updates
            .iter()
            .filter(|(a, s, _)| *a == action && *s == size)
            .map(|(_, _, l)| *l)
            .collect();
        outcome.detail(
            format!("update_p50_ms.{action}.d{size}"),
            median(&of_kind),
            "ms",
        );
    }
    outcome.detail("cold_start_s", median(&cold_starts), "s");
    let read_latencies: Vec<f64> = reads.iter().map(|(_, l)| *l).collect();
    let read_latency = Latency::of(&read_latencies);
    outcome.detail("query_p50_ms", read_latency.p50, "ms");
    outcome.detail("query_samples", read_latency.samples as f64, "count");
    outcome.detail(
        "query_per_s",
        read_latency.samples as f64 / writer_elapsed.as_secs_f64(),
        "1/s",
    );
    per_class_detail(&mut outcome, &reads);
    outcome.detail("window_s", writer_elapsed.as_secs_f64(), "s");
    outcome.detail("baseline_triples", baseline as f64, "count");
    input_detail(&mut outcome, &inputs);
    Ok(outcome)
}
