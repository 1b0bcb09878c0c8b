//! A std-only SPARQL-over-HTTP endpoint.
//!
//! The serving story of this repository (docs/serving.md) ends at a socket:
//! `inferray-cli serve` exposes the materialized store to concurrent
//! clients. This module implements that endpoint with nothing but
//! `std::net` — a deliberately minimal HTTP/1.1 subset (request line,
//! headers, `Content-Length` bodies, persistent connections), enough for
//! `curl`, load generators and the integration tests, with zero new
//! dependencies.
//!
//! ## Routes
//!
//! * `GET /sparql?query=<percent-encoded query>` — evaluate one query
//!   (`HEAD` returns the same headers with an empty body);
//! * `POST /sparql` — query in the body, either raw
//!   (`Content-Type: application/sparql-query`) or form-encoded
//!   (`query=<percent-encoded>`);
//! * `POST /update` — retract the N-Triples of the body from the served
//!   dataset (delete–rederive, docs/maintenance.md), or assert them with
//!   `?action=assert`; only available when the server was bound with an
//!   [`UpdateSink`] ([`SparqlServer::bind_with_updates`]), 404 otherwise;
//! * `GET /status` — the current snapshot epoch and store size, plus
//!   whatever members the sink's [`UpdateSink::status_json_into`] adds (the
//!   `durability` object of docs/persistence.md, the `validation` object of
//!   docs/shapes.md); `HEAD` supported as for `/sparql`.
//!
//! `POST` bodies must carry a `Content-Length`: a missing length is
//! answered with `411 Length Required` (not a misleading parse error from
//! an empty body) and `Transfer-Encoding: chunked` with
//! `501 Not Implemented`.
//!
//! ## Robustness
//!
//! Every connection runs under a read/write timeout
//! ([`ServerConfig::read_timeout`]): a slowloris client that drips its
//! request is answered with `408 Request Timeout` instead of pinning a
//! worker. Request bodies above [`ServerConfig::max_body_bytes`] get
//! `413 Payload Too Large` without being read. When the sink reports the
//! dataset degraded to read-only ([`UpdateError::Unavailable`] — an
//! unrecoverable WAL-append failure), `POST /update` answers
//! `503 Service Unavailable` with a `Retry-After` header while reads keep
//! serving.
//!
//! Responses use the SPARQL 1.1 Query Results JSON format:
//! `{"head":{"vars":[…]},"results":{"bindings":[…]}}` for `SELECT`,
//! `{"head":{},"boolean":…}` for `ASK`; malformed queries get a `400` with
//! a JSON error body.
//!
//! ## Concurrency model and the per-request allocation budget
//!
//! `--threads N` spawns *N* worker threads that all `accept` on the shared
//! listener; each request samples the **current** snapshot engine from its
//! [`EngineSource`] and evaluates against that frozen epoch, so a
//! materialization that publishes mid-request never tears a response —
//! requests started before the swap answer from the old epoch, requests
//! started after it from the new one. The same holds *within* one
//! keep-alive connection: every request re-samples the source, so a publish
//! between two pipelined requests is visible to the second one.
//!
//! Connections are persistent by default (HTTP/1.1 keep-alive): a worker
//! parses requests in a loop and answers each with an explicit
//! `Content-Length` and `Connection: keep-alive`, closing only on client
//! request (`Connection: close`, or an HTTP/1.0 client without
//! `keep-alive`), on framing errors (the byte stream position is unknown
//! after 408/411/413/501), or on shutdown. Each worker owns one set of
//! reusable buffers ([`WorkerBuffers`]) — request head scratch, body
//! buffer, response body, the projected variables' binding keys and the
//! rendered status line and headers — so the steady-state request loop
//! performs no per-request heap allocation for framing or response
//! rendering. The body is rendered once, into its buffer, and leaves from
//! there: head and body go out in one vectored write ([`send`]), so a
//! large answer is never copied behind its head. The repo lint rule IL007
//! keeps `format!` / `String::new` / `Vec::new` out of the hot functions;
//! cold paths (errors, updates) delegate to dedicated functions that may
//! allocate.

use crate::algebra::QueryForm;
use crate::engine::SnapshotQueryEngine;
use crate::executor::Scratch;
use crate::solution::SolutionSet;
use crate::sparql::parse_query;
use inferray_dictionary::Dictionary;
use inferray_model::{first_json_escape, json_escape_into, TermRef};
use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Provides the snapshot engine a request should be answered against.
///
/// The server calls [`EngineSource::current`] once per request: a source
/// backed by a [`SnapshotStore`](inferray_store::SnapshotStore) hands out
/// the latest published epoch, while a plain [`SnapshotQueryEngine`] serves
/// one frozen epoch forever (useful for tests and static deployments).
pub trait EngineSource: Send + Sync + 'static {
    /// The engine for the next request.
    fn current(&self) -> SnapshotQueryEngine;
}

impl EngineSource for SnapshotQueryEngine {
    fn current(&self) -> SnapshotQueryEngine {
        self.clone()
    }
}

impl<F> EngineSource for F
where
    F: Fn() -> SnapshotQueryEngine + Send + Sync + 'static,
{
    fn current(&self) -> SnapshotQueryEngine {
        self()
    }
}

/// The outcome of a `POST /update` request, rendered as the JSON response
/// body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The epoch published by the update (or the current one when nothing
    /// changed).
    pub epoch: u64,
    /// Distinct triples the request asked to retract (0 for asserts).
    pub requested: usize,
    /// Explicitly asserted triples actually removed (0 for asserts).
    pub removed: usize,
    /// Triples in the store after the update.
    pub triples: usize,
}

/// Why an [`UpdateSink`] refused a write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The endpoint does not take writes (no sink, or a sink bound for its
    /// `/status` members only) — answered with `404`.
    Disabled,
    /// The request itself is invalid (parse error, unsupported action) —
    /// answered with `400`.
    Rejected(String),
    /// The dataset cannot accept writes right now (degraded to read-only
    /// after a durability failure) — answered with `503` and a
    /// `Retry-After` header; reads keep serving.
    Unavailable {
        /// Operator-facing diagnostic for the JSON error body.
        message: String,
        /// Suggested client back-off, in seconds.
        retry_after_secs: u64,
    },
    /// The request was well-formed but the write it describes would leave
    /// the dataset violating its installed shape constraints
    /// (docs/shapes.md) — answered with `422` and a positioned violation
    /// report in the JSON body. Nothing was published: the epoch the
    /// client saw before the request is still current.
    Invalid {
        /// Operator-facing summary for the body's `error` field.
        message: String,
        /// The violation report, already rendered as a JSON value; spliced
        /// verbatim into the body's `violations` field.
        violations_json: String,
    },
}

impl UpdateError {
    /// Shorthand for a `400` rejection.
    pub fn rejected(message: impl Into<String>) -> UpdateError {
        UpdateError::Rejected(message.into())
    }
}

/// The dataset behind the endpoint, as far as the server needs to know it:
/// a writer it forwards `POST /update` requests to, and the members that
/// writer contributes to `GET /status`.
///
/// The serving stack is layered so that `inferray-query` never depends on
/// the reasoner, the validator or the persistence layer: the server knows
/// only this trait, and the binary that owns a `ServingDataset` (e.g.
/// `inferray-cli serve`) adapts it. [`UpdateError::Rejected`] is reported
/// as a `400` with the message in the JSON error body,
/// [`UpdateError::Unavailable`] as a `503` with a `Retry-After` header.
pub trait UpdateSink: Send + Sync + 'static {
    /// Retracts the triples of an N-Triples document from the served
    /// dataset and re-materializes incrementally.
    fn retract_ntriples(&self, body: &str) -> Result<UpdateOutcome, UpdateError>;

    /// Asserts the triples of an N-Triples document
    /// (`POST /update?action=assert`). Sinks without a write-ahead path may
    /// leave the default, which rejects the request.
    fn assert_ntriples(&self, body: &str) -> Result<UpdateOutcome, UpdateError> {
        let _ = body;
        Err(UpdateError::rejected(
            "asserts are not supported by this endpoint",
        ))
    }

    /// Appends this dataset's members of the `GET /status` object to `out`,
    /// each as `,"name":value` (e.g. `,"durability":{"read_only":false,…}`).
    /// Writes into the caller's buffer because `GET /status` is served from
    /// the zero-allocation request loop. The default adds nothing.
    fn status_json_into(&self, out: &mut String) {
        let _ = out;
    }
}

/// Tunables of a [`SparqlServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads all `accept`ing on the shared listener.
    pub threads: usize,
    /// Per-connection read timeout: a client that stalls mid-request gets
    /// `408` instead of pinning a worker. Doubles as the keep-alive idle
    /// timeout — a connection with no next request within it is closed.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Largest accepted `Content-Length`; bigger bodies get `413` without
    /// being read.
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 2,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body_bytes: 16 << 20,
        }
    }
}

/// A running SPARQL endpoint; dropping it without calling
/// [`SparqlServer::shutdown`] leaves the worker threads serving until the
/// process exits.
pub struct SparqlServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl SparqlServer {
    /// Binds `addr` (e.g. `127.0.0.1:8080`; port 0 picks a free port) and
    /// serves read-only requests on `threads` worker threads
    /// (`POST /update` answers 404).
    pub fn bind(
        addr: &str,
        threads: usize,
        source: Arc<dyn EngineSource>,
    ) -> std::io::Result<SparqlServer> {
        let config = ServerConfig {
            threads,
            ..ServerConfig::default()
        };
        Self::bind_with(addr, config, source, None)
    }

    /// [`SparqlServer::bind`] with a write path: `POST /update` requests
    /// are forwarded to `sink`.
    pub fn bind_with_updates(
        addr: &str,
        threads: usize,
        source: Arc<dyn EngineSource>,
        sink: Arc<dyn UpdateSink>,
    ) -> std::io::Result<SparqlServer> {
        let config = ServerConfig {
            threads,
            ..ServerConfig::default()
        };
        Self::bind_with(addr, config, source, Some(sink))
    }

    /// The fully configurable constructor: explicit [`ServerConfig`] and an
    /// optional sink for `POST /update` and the `GET /status` members.
    pub fn bind_with(
        addr: &str,
        config: ServerConfig,
        source: Arc<dyn EngineSource>,
        sink: Option<Arc<dyn UpdateSink>>,
    ) -> std::io::Result<SparqlServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let stop = Arc::new(AtomicBool::new(false));
        // Spawning can fail (thread limits, fd exhaustion); surface it as
        // the `io::Error` it is instead of panicking mid-startup.
        let mut workers = Vec::with_capacity(config.threads.max(1));
        for i in 0..config.threads.max(1) {
            let listener = Arc::clone(&listener);
            let worker_stop = Arc::clone(&stop);
            let source = Arc::clone(&source);
            let sink = sink.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("inferray-serve-{i}"))
                .spawn(move || {
                    worker_loop(
                        &listener,
                        &worker_stop,
                        config,
                        source.as_ref(),
                        sink.as_deref(),
                    )
                });
            match spawned {
                Ok(worker) => workers.push(worker),
                Err(e) => {
                    // Unwind the workers that did start before reporting the
                    // failure, so none is left blocked in accept().
                    stop.store(true, Ordering::SeqCst);
                    for worker in workers {
                        let _ = TcpStream::connect(addr);
                        let _ = worker.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(SparqlServer {
            addr,
            stop,
            workers,
        })
    }

    /// The bound address (with the actual port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks every worker and joins them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake each worker blocked in accept() with a throwaway connection.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    config: ServerConfig,
    source: &dyn EngineSource,
    sink: Option<&dyn UpdateSink>,
) {
    // One set of reusable buffers per worker: every connection (and every
    // request within a keep-alive connection) reuses these, so the
    // steady-state request loop allocates nothing for framing or rendering.
    let mut buffers = WorkerBuffers::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Persistent accept errors (fd exhaustion, EMFILE) must not
                // turn the worker into a 100%-CPU spin loop.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // A stalled client must not wedge a worker forever.
        let _ = stream.set_read_timeout(Some(config.read_timeout));
        let _ = stream.set_write_timeout(Some(config.write_timeout));
        let _ = handle_connection(stream, stop, config, source, sink, &mut buffers);
    }
}

/// The per-worker reusable buffers of the serving hot path. Cleared and
/// refilled per request; they only grow (up to the configured body / head
/// caps), so after warm-up the request loop performs no heap allocation.
struct WorkerBuffers {
    /// Request-line / header-line scratch for [`read_head`].
    head: String,
    /// The request target (path + query string), copied out of the request
    /// line so header parsing can reuse the scratch line.
    path: String,
    /// The `POST` body.
    body: Vec<u8>,
    /// The solutions of the current query: the executor's output batch.
    solutions: SolutionSet,
    /// The executor's other buffers (second batch, sort scratch).
    scratch: Scratch,
    /// The rendered response body (JSON).
    response: String,
    /// The projected variables' binding keys, escaped once per answer.
    keys: CellKeys,
    /// The rendered status line and headers. The body stays in `response`;
    /// [`send`] writes both.
    out: Vec<u8>,
}

/// The `"name":` key of each projected variable of an answer, escaped once
/// per answer rather than once per cell: the keys back to back in one
/// string, and where each ends.
#[derive(Default)]
struct CellKeys {
    text: String,
    ends: Vec<usize>,
}

impl WorkerBuffers {
    fn new() -> WorkerBuffers {
        WorkerBuffers {
            head: String::new(),
            path: String::new(),
            body: Vec::new(),
            solutions: SolutionSet::default(),
            scratch: Scratch::default(),
            response: String::new(),
            keys: CellKeys::default(),
            out: Vec::new(),
        }
    }
}

/// `true` for the error kinds a socket read timeout surfaces as
/// (platform-dependent: `WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

/// The request method, pre-classified so routing never compares strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    Get,
    Head,
    Post,
    Other,
}

struct RequestHead {
    method: Method,
    /// `Content-Type: application/x-www-form-urlencoded` — the only
    /// content-type distinction any route makes.
    form_urlencoded: bool,
    /// `Content-Length`, when the client sent one. `POST` without a length
    /// is a protocol error (411), **not** an empty body: treating it as
    /// empty used to surface as a baffling "empty query" parse error.
    content_length: Option<usize>,
    /// `Transfer-Encoding: chunked` — not implemented (501 for `POST`).
    chunked: bool,
    /// The client asked to close after this response (`Connection: close`,
    /// or an HTTP/1.0 request without `Connection: keep-alive`).
    close: bool,
}

/// Serves requests off one connection until the client closes, asks to
/// close, a framing error leaves the stream position unknown, or shutdown.
/// The request target is parsed into `buffers.path`.
fn handle_connection(
    stream: TcpStream,
    stop: &AtomicBool,
    config: ServerConfig,
    source: &dyn EngineSource,
    sink: Option<&dyn UpdateSink>,
    buffers: &mut WorkerBuffers,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    loop {
        let head = match read_head(&mut reader, buffers) {
            Ok(Some(head)) => head,
            // Clean close: EOF (or an idle keep-alive timeout) before the
            // first byte of a next request.
            Ok(None) => return Ok(()),
            Err((status, message)) => {
                // The stream position within the request is unknown after a
                // head parse error: answer and close.
                return respond_error(
                    reader.get_mut(),
                    status,
                    &message,
                    RespondOptions::closing(),
                    &mut buffers.response,
                    &mut buffers.out,
                );
            }
        };
        let keep_alive = !head.close && !stop.load(Ordering::SeqCst);
        if !serve_request(
            &mut reader,
            &head,
            config,
            source,
            sink,
            buffers,
            keep_alive,
        )? {
            return Ok(());
        }
    }
}

/// Reads the body (for `POST`), routes, and answers one request. Returns
/// whether the connection stays open.
fn serve_request(
    reader: &mut BufReader<TcpStream>,
    head: &RequestHead,
    config: ServerConfig,
    source: &dyn EngineSource,
    sink: Option<&dyn UpdateSink>,
    buffers: &mut WorkerBuffers,
    keep_alive: bool,
) -> std::io::Result<bool> {
    // Body policy, decided per method before touching any route: POST needs
    // a delimited body, GET/HEAD bodies are ignored. Every refusal closes —
    // the body bytes were not consumed, so the framing is lost.
    buffers.body.clear();
    if head.method == Method::Post {
        if head.chunked {
            refuse_post(
                reader,
                501,
                "Transfer-Encoding: chunked is not supported; send Content-Length",
                64 << 10,
                buffers,
            )?;
            return Ok(false);
        }
        let Some(length) = head.content_length else {
            refuse_post(
                reader,
                411,
                "POST requires a Content-Length header",
                64 << 10,
                buffers,
            )?;
            return Ok(false);
        };
        // An unbounded Content-Length would let one request allocate the
        // moon.
        if length > config.max_body_bytes {
            refuse_oversized_post(reader, length, config.max_body_bytes, buffers)?;
            return Ok(false);
        }
        buffers.body.resize(length, 0);
        if let Err(e) = reader.read_exact(&mut buffers.body) {
            respond_body_read_error(reader.get_mut(), &e, buffers)?;
            return Ok(false);
        }
    }

    let opts = RespondOptions {
        head_only: head.method == Method::Head,
        keep_alive,
        retry_after_secs: None,
    };
    let stream = reader.get_mut();
    let (path, query_string) = match buffers.path.split_once('?') {
        Some((path, qs)) => (path, Some(qs)),
        None => (buffers.path.as_str(), None),
    };

    match (head.method, path) {
        (Method::Get | Method::Head, "/status") => {
            buffers.response.clear();
            status_json_into(&mut buffers.response, source, sink);
            respond(
                stream,
                200,
                "application/json",
                &buffers.response,
                opts,
                &mut buffers.out,
            )?;
        }
        (Method::Get | Method::Head, "/sparql") => {
            match query_from_query_string(query_string.unwrap_or("")) {
                Some(query) => answer_query(
                    stream,
                    source,
                    &query,
                    opts,
                    &mut buffers.solutions,
                    &mut buffers.scratch,
                    &mut buffers.response,
                    &mut buffers.keys,
                    &mut buffers.out,
                )?,
                None => respond_error(
                    stream,
                    400,
                    "missing 'query' parameter",
                    opts,
                    &mut buffers.response,
                    &mut buffers.out,
                )?,
            }
        }
        (Method::Post, "/sparql") => {
            let body = String::from_utf8_lossy(&buffers.body);
            let query = if head.form_urlencoded {
                query_from_query_string(&body)
            } else {
                // application/sparql-query (or anything else): raw query
                // text; `None` below only flags the form-encoded miss.
                None
            };
            let text = match &query {
                Some(query) => query.as_str(),
                None if !head.form_urlencoded => &body,
                None => "",
            };
            if text.trim().is_empty() {
                respond_error(
                    stream,
                    400,
                    "empty query",
                    opts,
                    &mut buffers.response,
                    &mut buffers.out,
                )?;
            } else {
                answer_query(
                    stream,
                    source,
                    text,
                    opts,
                    &mut buffers.solutions,
                    &mut buffers.scratch,
                    &mut buffers.response,
                    &mut buffers.keys,
                    &mut buffers.out,
                )?;
            }
        }
        (Method::Post, "/update") => {
            handle_update(
                stream,
                sink,
                &buffers.body,
                query_string,
                opts,
                &mut buffers.response,
                &mut buffers.out,
            )?;
        }
        (Method::Get | Method::Head | Method::Post, _) => respond_error(
            stream,
            404,
            "unknown path (use /sparql, /update or /status)",
            opts,
            &mut buffers.response,
            &mut buffers.out,
        )?,
        (Method::Other, _) => respond_error(
            stream,
            405,
            "method not allowed",
            opts,
            &mut buffers.response,
            &mut buffers.out,
        )?,
    }
    Ok(keep_alive)
}

/// Renders the `GET /status` body into `out`: the engine's epoch/size
/// header plus the members the sink splices in. On the serving hot path —
/// liveness probes hammer `/status`, so it must not allocate beyond the
/// reusable buffer.
fn status_json_into(out: &mut String, source: &dyn EngineSource, sink: Option<&dyn UpdateSink>) {
    use std::fmt::Write as _;
    let engine = source.current();
    let _ = write!(
        out,
        "{{\"epoch\":{},\"triples\":{},\"tables\":{}",
        engine.epoch(),
        engine.snapshot().len(),
        engine.snapshot().table_count(),
    );
    if let Some(sink) = sink {
        sink.status_json_into(out);
    }
    out.push_str("}\n");
}

/// `POST /update`: parses the action, forwards to the sink and renders the
/// outcome. Updates re-materialize the dataset, so this path is cold by
/// construction and free to allocate.
fn handle_update(
    stream: &mut TcpStream,
    sink: Option<&dyn UpdateSink>,
    body: &[u8],
    query_string: Option<&str>,
    opts: RespondOptions,
    response: &mut String,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    // `?action=assert` routes to the write-ahead assert path; the default
    // (and `?action=retract`) stays delete–rederive.
    let action = query_string
        .and_then(|qs| {
            qs.split('&').find_map(|pair| {
                let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
                (name == "action").then(|| percent_decode(value))
            })
        })
        .unwrap_or_else(|| "retract".to_owned());
    // A lossy decode would turn a stray byte inside a literal into U+FFFD —
    // a document that parses, and a triple nobody sent made durable.
    let result = match (sink, std::str::from_utf8(body)) {
        (None, _) => Err(UpdateError::Disabled),
        (Some(_), Err(e)) => Err(UpdateError::Rejected(format!(
            "update body is not valid UTF-8: invalid byte at offset {}",
            e.valid_up_to()
        ))),
        (Some(sink), Ok(body)) => match action.as_str() {
            "retract" => sink.retract_ntriples(body),
            "assert" => sink.assert_ntriples(body),
            other => Err(UpdateError::Rejected(format!(
                "unknown action '{other}' (use assert or retract)"
            ))),
        },
    };
    response.clear();
    match result {
        Ok(outcome) => {
            use std::fmt::Write as _;
            let _ = writeln!(
                response,
                "{{\"epoch\":{},\"requested\":{},\"removed\":{},\"triples\":{}}}",
                outcome.epoch, outcome.requested, outcome.removed, outcome.triples,
            );
            respond(stream, 200, "application/json", response, opts, out)
        }
        Err(UpdateError::Disabled) => respond_error(
            stream,
            404,
            "updates are not enabled on this endpoint",
            opts,
            response,
            out,
        ),
        Err(UpdateError::Rejected(message)) => {
            respond_error(stream, 400, &message, opts, response, out)
        }
        // The integer renders straight into the header buffer — no
        // per-request `to_string` for Retry-After.
        Err(UpdateError::Unavailable {
            message,
            retry_after_secs,
        }) => respond_error(
            stream,
            503,
            &message,
            opts.with_retry_after(retry_after_secs),
            response,
            out,
        ),
        Err(UpdateError::Invalid {
            message,
            violations_json,
        }) => {
            // `{"error":…,"violations":{…}}` — the report is pre-rendered
            // JSON from the validator; only the summary needs escaping.
            response.push_str("{\"error\":\"");
            json_escape_into(response, &message);
            response.push_str("\",\"violations\":");
            response.push_str(&violations_json);
            response.push_str("}\n");
            respond(stream, 422, "application/json", response, opts, out)
        }
    }
}

/// Refuses a `POST` before its body was read: writes the error response,
/// then **drains** (a bounded amount of) the body the client is still
/// sending. Closing with unread request bytes in flight would reset the
/// connection before the client reads the error, so the diagnostic would
/// be lost — the drain is bounded by `drain_limit` and by a short read
/// timeout, so neither a large upload nor an idle client can pin the
/// worker.
fn refuse_post(
    reader: &mut BufReader<TcpStream>,
    status: u16,
    message: &str,
    drain_limit: u64,
    buffers: &mut WorkerBuffers,
) -> std::io::Result<()> {
    respond_error(
        reader.get_mut(),
        status,
        message,
        RespondOptions::closing(),
        &mut buffers.response,
        &mut buffers.out,
    )?;
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(300)));
    let _ = std::io::copy(&mut reader.by_ref().take(drain_limit), &mut std::io::sink());
    Ok(())
}

/// The 413 variant of [`refuse_post`]; builds its message here so the hot
/// request loop stays allocation-free.
fn refuse_oversized_post(
    reader: &mut BufReader<TcpStream>,
    length: usize,
    limit: usize,
    buffers: &mut WorkerBuffers,
) -> std::io::Result<()> {
    let message = format!("body too large ({length} bytes; limit {limit})");
    refuse_post(
        reader,
        413,
        &message,
        (length as u64).min(64 << 20),
        buffers,
    )
}

/// Answers a failed body read (408 on timeout, 400 on truncation) — cold,
/// free to allocate the diagnostic.
fn respond_body_read_error(
    stream: &mut TcpStream,
    e: &std::io::Error,
    buffers: &mut WorkerBuffers,
) -> std::io::Result<()> {
    let (status, message) = if is_timeout(e) {
        (408, "timed out reading request body".to_owned())
    } else {
        (400, format!("truncated body: {e}"))
    };
    respond_error(
        stream,
        status,
        &message,
        RespondOptions::closing(),
        &mut buffers.response,
        &mut buffers.out,
    )
}

/// A read timeout anywhere in the head is the slowloris case: 408. Cold —
/// builds the diagnostic string.
fn head_read_error(e: &std::io::Error, what: &str) -> (u16, String) {
    if is_timeout(e) {
        (408, format!("timed out reading {what}"))
    } else {
        (400, format!("bad {what}: {e}"))
    }
}

/// Cold diagnostic for an unparseable `Content-Length`.
fn bad_content_length(value: &str) -> (u16, String) {
    (400, format!("bad Content-Length '{value}'"))
}

/// Case-insensitive ASCII prefix test (header values arrive in any case).
fn starts_with_ignore_ascii_case(value: &str, prefix: &str) -> bool {
    value.len() >= prefix.len()
        && value.as_bytes()[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
}

/// Reads and parses one request head into reused buffers. `Ok(None)` is a
/// clean end of the connection: EOF — or an idle timeout — before the first
/// byte of a next request.
fn read_head(
    reader: &mut impl BufRead,
    buffers: &mut WorkerBuffers,
) -> Result<Option<RequestHead>, (u16, String)> {
    // The whole head (request line + headers) is read through a byte cap:
    // a drip-fed endless line must error out, not grow a String forever.
    const MAX_HEAD: u64 = 64 << 10;
    let mut head = reader.by_ref().take(MAX_HEAD);

    let line = &mut buffers.head;
    line.clear();
    match head.read_line(line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => {
            // A timeout with nothing read is an idle keep-alive connection
            // going away, not a slowloris: close without a 408.
            if is_timeout(&e) && line.is_empty() {
                return Ok(None);
            }
            return Err(head_read_error(&e, "request line"));
        }
    }
    if !line.ends_with('\n') {
        return Err((400, "request line too long".to_owned()));
    }
    let mut parts = line.split_whitespace();
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("HEAD") => Method::Head,
        Some("POST") => Method::Post,
        Some(_) => Method::Other,
        None => return Err((400, "empty request line".to_owned())),
    };
    let path = parts
        .next()
        .ok_or((400, "request line without path".to_owned()))?;
    buffers.path.clear();
    buffers.path.push_str(path);
    // Only HTTP/1.1 defaults to keep-alive; HTTP/1.0 (or no version token)
    // must opt in with `Connection: keep-alive`.
    let http11 = parts.next() == Some("HTTP/1.1");

    let mut content_length = None;
    let mut form_urlencoded = false;
    let mut chunked = false;
    let mut close_requested = false;
    let mut keep_alive_requested = false;
    loop {
        line.clear();
        if let Err(e) = head.read_line(line) {
            return Err(head_read_error(&e, "header"));
        }
        if !line.ends_with('\n') {
            return Err((400, "header section too large".to_owned()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad_content_length(value))?,
                );
            } else if name.eq_ignore_ascii_case("content-type") {
                form_urlencoded =
                    starts_with_ignore_ascii_case(value, "application/x-www-form-urlencoded");
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked |= value
                    .split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("chunked"));
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    close_requested |= token.eq_ignore_ascii_case("close");
                    keep_alive_requested |= token.eq_ignore_ascii_case("keep-alive");
                }
            }
        }
    }
    Ok(Some(RequestHead {
        method,
        form_urlencoded,
        content_length,
        chunked,
        close: if http11 {
            close_requested
        } else {
            !keep_alive_requested
        },
    }))
}

/// Extracts and percent-decodes the `query` parameter of a query string or
/// form-encoded body.
fn query_from_query_string(qs: &str) -> Option<String> {
    for pair in qs.split('&') {
        let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
        if name == "query" {
            return Some(percent_decode(value));
        }
    }
    None
}

fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // A complete escape consumes "%XY"; anything else — a
                // truncated escape at end-of-input ("%", "%2") or non-hex
                // digits ("%zz") — falls back to the literal '%' and
                // continues with the next byte, so no input can panic or
                // swallow trailing bytes. `get` returns `None` when fewer
                // than two bytes remain. Both bytes must be hex digits:
                // `from_str_radix` alone would take a sign ("%+f").
                let escaped = bytes
                    .get(i + 1..i + 3)
                    .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|hex| std::str::from_utf8(hex).ok())
                    .and_then(|hex| u8::from_str_radix(hex, 16).ok());
                match escaped {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            byte => {
                out.push(byte);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[allow(clippy::too_many_arguments)]
fn answer_query(
    stream: &mut TcpStream,
    source: &dyn EngineSource,
    text: &str,
    opts: RespondOptions,
    solutions: &mut SolutionSet,
    scratch: &mut Scratch,
    response: &mut String,
    keys: &mut CellKeys,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    response.clear();
    let query = match parse_query(text) {
        Ok(query) => query,
        Err(error) => {
            return respond_error(stream, 400, &error.to_string(), opts, response, out);
        }
    };
    // One engine — hence one frozen epoch — for the whole request.
    let engine = source.current();
    engine.execute_into(&query, solutions, scratch);
    match query.form {
        QueryForm::Ask => {
            use std::fmt::Write as _;
            let _ = writeln!(
                response,
                "{{\"head\":{{}},\"boolean\":{}}}",
                !solutions.is_empty()
            );
        }
        QueryForm::Select => results_json_into(response, keys, solutions, engine.dictionary()),
    }
    respond(
        stream,
        200,
        "application/sparql-results+json",
        response,
        opts,
        out,
    )
}

/// Renders a solution set in the SPARQL 1.1 Query Results JSON format into
/// the reused response buffer, straight off the executor's flat batch and
/// the dictionary's arena text: each projected variable's `"name":` key is
/// escaped once into `keys`, and each cell is one [`Dictionary::text`]
/// lookup that [`cell_json_into`] renders.
fn results_json_into(
    out: &mut String,
    keys: &mut CellKeys,
    solutions: &SolutionSet,
    dictionary: &Dictionary,
) {
    out.reserve(64 + solutions.len() * 64);
    out.push_str("{\"head\":{\"vars\":[");
    keys.text.clear();
    keys.ends.clear();
    for (i, var) in solutions.variables().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let start = keys.text.len();
        keys.text.push('"');
        json_escape_into(&mut keys.text, var);
        keys.text.push('"');
        out.push_str(&keys.text[start..]);
        keys.text.push(':');
        keys.ends.push(keys.text.len());
    }
    out.push_str("]},\"results\":{\"bindings\":[");
    for (row_index, row) in solutions.rows().enumerate() {
        if row_index > 0 {
            out.push(',');
        }
        out.push('{');
        let mut first = true;
        let mut start = 0;
        for (&end, &id) in keys.ends.iter().zip(row) {
            let key = &keys.text[start..end];
            start = end;
            let Some(text) = dictionary.text(id) else {
                continue; // unbound variables are omitted from the binding
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(key);
            cell_json_into(out, text);
        }
        out.push('}');
    }
    out.push_str("]}}\n");
}

/// The start of an IRI binding, up to its value.
const URI_CELL: &str = "{\"type\":\"uri\",\"value\":\"";

/// Renders one binding from its term's canonical N-Triples text, a slice
/// of the dictionary's arena. The common cell, an IRI with nothing to
/// escape, is the slice between its delimiters, copied whole behind one
/// block scan; it stays inline in the row loop, and every other cell goes
/// to [`other_cell_json_into`].
#[inline(always)]
fn cell_json_into(out: &mut String, text: &str) {
    if text.as_bytes().first() == Some(&b'<') {
        let iri = text.get(1..text.len() - 1).unwrap_or_default();
        if first_json_escape(iri).is_none() {
            out.push_str(URI_CELL);
            out.push_str(iri);
            out.push_str("\"}");
            return;
        }
    }
    other_cell_json_into(out, text);
}

/// Renders a blank node — the label after `_:`, escaped for JSON — or reads
/// the term back through [`TermRef`] to undo its N-Triples escapes: a
/// literal, or an IRI holding an escape (the arena spells every character
/// JSON escapes as `\u00XX` inside an IRI).
fn other_cell_json_into(out: &mut String, text: &str) {
    if let Some(label) = text.strip_prefix("_:") {
        out.push_str("{\"type\":\"bnode\",\"value\":\"");
        json_escape_into(out, label);
        out.push_str("\"}");
        return;
    }
    match TermRef::from_ntriples(text) {
        Some(TermRef::Iri(iri)) => {
            out.push_str(URI_CELL);
            json_escape_into(out, &iri);
            out.push_str("\"}");
        }
        Some(TermRef::Literal {
            lexical,
            datatype,
            language,
        }) => literal_json_into(out, &lexical, datatype.as_deref(), language.as_deref()),
        Some(TermRef::Blank(_)) | None => {}
    }
}

/// Renders a literal binding: its lexical form, then its language tag or
/// its datatype (none for a simple literal).
fn literal_json_into(
    out: &mut String,
    lexical: &str,
    datatype: Option<&str>,
    language: Option<&str>,
) {
    out.push_str("{\"type\":\"literal\",\"value\":\"");
    json_escape_into(out, lexical);
    out.push('"');
    if let Some(language) = language {
        out.push_str(",\"xml:lang\":\"");
        json_escape_into(out, language);
        out.push('"');
    } else if let Some(datatype) = datatype {
        out.push_str(",\"datatype\":\"");
        json_escape_into(out, datatype);
        out.push('"');
    }
    out.push('}');
}

/// Renders `{"error":"…"}\n` into the reused response buffer.
fn error_json_into(out: &mut String, message: &str) {
    out.push_str("{\"error\":\"");
    json_escape_into(out, message);
    out.push_str("\"}\n");
}

/// Answers `status` with the error body of `message`, rendered into the
/// reused `response` buffer: every error answer of the server.
fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    message: &str,
    opts: RespondOptions,
    response: &mut String,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    response.clear();
    error_json_into(response, message);
    respond(stream, status, "application/json", response, opts, out)
}

/// Per-response rendering switches of [`respond`].
#[derive(Clone, Copy)]
struct RespondOptions {
    /// `HEAD`: send the headers (with the real `Content-Length`) but no
    /// body.
    head_only: bool,
    /// Announce `Connection: keep-alive` and leave the stream open;
    /// otherwise `Connection: close`.
    keep_alive: bool,
    /// Adds a `Retry-After: <secs>` header (503 responses).
    retry_after_secs: Option<u64>,
}

impl RespondOptions {
    /// A full-body response that closes the connection — error paths where
    /// the request framing is unknown.
    fn closing() -> RespondOptions {
        RespondOptions {
            head_only: false,
            keep_alive: false,
            retry_after_secs: None,
        }
    }

    fn with_retry_after(self, secs: u64) -> RespondOptions {
        RespondOptions {
            retry_after_secs: Some(secs),
            ..self
        }
    }
}

/// Renders the status line and headers into the reused `out` buffer and
/// sends them and `body` with [`send`] — one vectored write on the happy
/// path, so the body leaves from the buffer it was rendered into.
fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    opts: RespondOptions,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    out.clear();
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len(),
    )?;
    if let Some(secs) = opts.retry_after_secs {
        write!(out, "Retry-After: {secs}\r\n")?;
    }
    if opts.keep_alive {
        out.extend_from_slice(b"Connection: keep-alive\r\n\r\n");
    } else {
        out.extend_from_slice(b"Connection: close\r\n\r\n");
    }
    let body = if opts.head_only { "" } else { body };
    send(stream, out, body.as_bytes())?;
    stream.flush()
}

/// Writes `head`, then `body`, with vectored writes until both have left:
/// one `writev` in the common case, so head and body leave together. A
/// partial write resumes at the first unsent byte (inside the head, or
/// inside the body once the head is out), and `Interrupted` retries.
fn send(stream: &mut impl Write, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let (mut head, mut body) = (head, body);
    while !head.is_empty() || !body.is_empty() {
        let written = if head.is_empty() {
            stream.write(body)
        } else {
            stream.write_vectored(&[IoSlice::new(head), IoSlice::new(body)])
        };
        match written {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                let from_head = n.min(head.len());
                head = &head[from_head..];
                body = &body[(n - from_head).min(body.len())..];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod head_fuzz;
#[cfg(test)]
mod render_law;

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::{Term, Triple};
    use inferray_store::{SnapshotStore, TripleStore};

    fn service() -> (Arc<SnapshotStore>, Arc<Dictionary>) {
        let mut dictionary = Dictionary::new();
        let triples = [
            Triple::iris("http://ex/alice", "http://ex/knows", "http://ex/bob"),
            Triple::iris("http://ex/bob", "http://ex/knows", "http://ex/carol"),
            Triple::new(
                Term::iri("http://ex/alice"),
                Term::iri("http://ex/name"),
                Term::lang_literal("Alice", "en"),
            ),
        ];
        let encoded: Vec<_> = triples
            .iter()
            .map(|t| dictionary.encode_triple(t).unwrap())
            .collect();
        let store = TripleStore::from_triples(encoded);
        (Arc::new(SnapshotStore::new(store)), Arc::new(dictionary))
    }

    fn start_server() -> (SparqlServer, Arc<SnapshotStore>, Arc<Dictionary>) {
        let (snapshots, dictionary) = service();
        let source = {
            let snapshots = Arc::clone(&snapshots);
            let dictionary = Arc::clone(&dictionary);
            move || SnapshotQueryEngine::new(snapshots.snapshot(), Arc::clone(&dictionary))
        };
        let server = SparqlServer::bind("127.0.0.1:0", 2, Arc::new(source)).expect("bind loopback");
        (server, snapshots, dictionary)
    }

    /// Inserts `Connection: close` before the blank line ending the head:
    /// these one-shot helpers read to EOF, so they must opt out of the
    /// keep-alive default.
    fn with_close(request: &str) -> String {
        request.replacen("\r\n\r\n", "\r\nConnection: close\r\n\r\n", 1)
    }

    fn http(addr: SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(with_close(request).as_bytes())
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, body)| body.to_owned())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn an_explicit_xsd_string_binding_has_no_datatype_member() {
        // RDF 1.1: the simple literal is the xsd:string literal, and the
        // dictionary keeps one canonical text for both spellings.
        let mut dictionary = Dictionary::new();
        let render = |dictionary: &Dictionary, id| {
            let mut out = String::new();
            cell_json_into(&mut out, dictionary.text(id).unwrap());
            out
        };
        let id = dictionary.encode_as_resource(&Term::typed_literal(
            "Bob",
            inferray_model::term::XSD_STRING,
        ));
        assert_eq!(
            render(&dictionary, id),
            "{\"type\":\"literal\",\"value\":\"Bob\"}"
        );
        let id = dictionary.encode_as_resource(&Term::typed_literal(
            "42",
            "http://www.w3.org/2001/XMLSchema#integer",
        ));
        assert_eq!(
            render(&dictionary, id),
            "{\"type\":\"literal\",\"value\":\"42\",\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}"
        );
    }

    #[test]
    fn get_select_query_returns_sparql_json() {
        let (server, _snapshots, _dictionary) = start_server();
        let addr = server.local_addr();
        let query = percent_encode_for_test(
            "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/knows> ?z }",
        );
        let (status, body) = http(
            addr,
            &format!("GET /sparql?query={query} HTTP/1.1\r\nHost: t\r\n\r\n"),
        );
        assert_eq!(status, 200, "body: {body}");
        assert!(body.contains("\"vars\":[\"x\",\"z\"]"), "body: {body}");
        assert!(body.contains("http://ex/alice"), "body: {body}");
        assert!(body.contains("http://ex/carol"), "body: {body}");
        server.shutdown();
    }

    #[test]
    fn post_ask_and_literal_bindings() {
        let (server, _snapshots, _dictionary) = start_server();
        let addr = server.local_addr();

        let ask = "ASK { <http://ex/alice> <http://ex/knows> <http://ex/bob> }";
        let (status, body) = http(
            addr,
            &format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{ask}",
                ask.len()
            ),
        );
        assert_eq!(status, 200);
        assert!(body.contains("\"boolean\":true"), "body: {body}");

        let select = "SELECT ?n WHERE { <http://ex/alice> <http://ex/name> ?n }";
        let (status, body) = http(
            addr,
            &format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{select}",
                select.len()
            ),
        );
        assert_eq!(status, 200);
        assert!(
            body.contains("\"type\":\"literal\",\"value\":\"Alice\",\"xml:lang\":\"en\""),
            "body: {body}"
        );
        server.shutdown();
    }

    #[test]
    fn malformed_queries_and_paths_get_errors() {
        let (server, _snapshots, _dictionary) = start_server();
        let addr = server.local_addr();
        let (status, body) = http(
            addr,
            "GET /sparql?query=nonsense HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 400);
        assert!(body.contains("error"));
        let (status, _) = http(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);
        let (status, _) = http(addr, "GET /sparql HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 400);
        server.shutdown();
    }

    #[test]
    fn status_reports_the_live_epoch_and_updates_are_visible_to_new_requests() {
        let (server, snapshots, dictionary) = start_server();
        let addr = server.local_addr();
        let (status, body) = http(addr, "GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"epoch\":0"), "body: {body}");

        // Publish a new epoch; requests started afterwards see it.
        let id_of = |iri: &str| dictionary.id_of(&Term::iri(iri.to_owned()));
        let carol = id_of("http://ex/carol").unwrap();
        let alice = id_of("http://ex/alice").unwrap();
        let knows = id_of("http://ex/knows").unwrap();
        snapshots.update(|store| {
            store.add_triple(inferray_model::IdTriple::new(carol, knows, alice));
        });

        let (_, body) = http(addr, "GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(body.contains("\"epoch\":1"), "body: {body}");
        let ask = "ASK { <http://ex/carol> <http://ex/knows> <http://ex/alice> }";
        let (_, body) = http(
            addr,
            &format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{ask}",
                ask.len()
            ),
        );
        assert!(body.contains("\"boolean\":true"), "body: {body}");
        server.shutdown();
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%3Fx%3D1"), "?x=1");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn percent_decoding_truncated_escapes_fall_back_to_literals() {
        // Escapes cut off at end-of-input keep the literal bytes instead of
        // panicking or swallowing the tail.
        assert_eq!(percent_decode("%"), "%");
        assert_eq!(percent_decode("%2"), "%2");
        assert_eq!(percent_decode("a%2"), "a%2");
        assert_eq!(percent_decode("ab%"), "ab%");
        // A valid escape flush against end-of-input still decodes.
        assert_eq!(percent_decode("a%20"), "a ");
        assert_eq!(percent_decode("%41"), "A");
        // '+' runs (including a lone one) are spaces, wherever they sit.
        assert_eq!(percent_decode("+"), " ");
        assert_eq!(percent_decode("+++"), "   ");
        assert_eq!(percent_decode("%+"), "% ");
        assert_eq!(percent_decode("+%2"), " %2");
        // One bad escape does not derail later good ones.
        assert_eq!(percent_decode("%%20"), "% ");
        assert_eq!(percent_decode("%2%41"), "%2A");
        assert_eq!(percent_decode(""), "");
        // A sign is not a hex digit: "%+f" is a literal '%', a '+' (a
        // space) and an 'f', not byte 0x0F.
        assert_eq!(percent_decode("%+f"), "% f");
        assert_eq!(percent_decode("%-1"), "%-1");
        assert_eq!(percent_decode("%+F%41"), "% FA");
    }

    #[test]
    fn post_without_content_length_is_411_and_chunked_is_501() {
        let (server, _snapshots, _dictionary) = start_server();
        let addr = server.local_addr();

        // POST without Content-Length: previously read as an empty body and
        // answered with a misleading "empty query" parse error.
        let (status, body) = http(addr, "POST /sparql HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 411, "body: {body}");
        assert!(body.contains("Content-Length"), "body: {body}");

        let (status, body) = http(
            addr,
            "POST /sparql HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        );
        assert_eq!(status, 501, "body: {body}");
        assert!(body.contains("chunked"), "body: {body}");

        // The same policy guards /update.
        let (status, _) = http(addr, "POST /update HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 411);

        // GET is unaffected: no body is expected or read.
        let (status, _) = http(addr, "GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        server.shutdown();
    }

    /// An [`UpdateSink`] double recording the bodies it received.
    struct RecordingSink {
        bodies: std::sync::Mutex<Vec<String>>,
    }

    impl UpdateSink for Arc<RecordingSink> {
        fn retract_ntriples(&self, body: &str) -> Result<UpdateOutcome, UpdateError> {
            if body.contains("<broken") {
                return Err(UpdateError::rejected("parse error: broken"));
            }
            let requested = body.lines().filter(|l| !l.trim().is_empty()).count();
            self.bodies.lock().unwrap().push(body.to_owned());
            Ok(UpdateOutcome {
                epoch: 7,
                requested,
                removed: requested,
                triples: 100 - requested,
            })
        }
    }

    #[test]
    fn post_update_routes_to_the_sink_and_reports_json() {
        let (snapshots, dictionary) = service();
        let source = {
            let snapshots = Arc::clone(&snapshots);
            let dictionary = Arc::clone(&dictionary);
            move || SnapshotQueryEngine::new(snapshots.snapshot(), Arc::clone(&dictionary))
        };
        let sink = Arc::new(RecordingSink {
            bodies: std::sync::Mutex::new(Vec::new()),
        });
        let server = SparqlServer::bind_with_updates(
            "127.0.0.1:0",
            2,
            Arc::new(source),
            Arc::new(Arc::clone(&sink)),
        )
        .expect("bind loopback");
        let addr = server.local_addr();

        let doc = "<http://ex/alice> <http://ex/knows> <http://ex/bob> .\n";
        let (status, body) = http(
            addr,
            &format!(
                "POST /update HTTP/1.1\r\nHost: t\r\nContent-Type: application/n-triples\r\nContent-Length: {}\r\n\r\n{doc}",
                doc.len()
            ),
        );
        assert_eq!(status, 200, "body: {body}");
        assert_eq!(
            body,
            "{\"epoch\":7,\"requested\":1,\"removed\":1,\"triples\":99}\n"
        );
        assert_eq!(sink.bodies.lock().unwrap().as_slice(), &[doc.to_owned()]);

        // Sink errors surface as 400 with the message.
        let bad = "<broken";
        let (status, body) = http(
            addr,
            &format!(
                "POST /update HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{bad}",
                bad.len()
            ),
        );
        assert_eq!(status, 400);
        assert!(body.contains("parse error"), "body: {body}");

        // GET on /update is an unknown path.
        let (status, _) = http(addr, "GET /update HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn post_update_without_a_sink_is_404() {
        let (server, _snapshots, _dictionary) = start_server();
        let addr = server.local_addr();
        let doc = "<http://ex/a> <http://ex/b> <http://ex/c> .\n";
        let (status, body) = http(
            addr,
            &format!(
                "POST /update HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{doc}",
                doc.len()
            ),
        );
        assert_eq!(status, 404);
        assert!(body.contains("not enabled"), "body: {body}");
        server.shutdown();
    }

    /// Raw variant of [`http`]: the full response including headers.
    fn http_raw(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(with_close(request).as_bytes())
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    /// A sink that is permanently degraded to read-only.
    struct ReadOnlySink;

    impl UpdateSink for ReadOnlySink {
        fn retract_ntriples(&self, _body: &str) -> Result<UpdateOutcome, UpdateError> {
            Err(UpdateError::Unavailable {
                message: "dataset is read-only: WAL append failed".to_owned(),
                retry_after_secs: 30,
            })
        }
    }

    /// A sink bound only for its `/status` members: writes stay disabled.
    struct StatusOnlySink(&'static str);

    impl UpdateSink for StatusOnlySink {
        fn retract_ntriples(&self, _body: &str) -> Result<UpdateOutcome, UpdateError> {
            Err(UpdateError::Disabled)
        }

        fn status_json_into(&self, out: &mut String) {
            out.push_str(self.0);
        }
    }

    fn bind_full(config: ServerConfig, sink: Option<Arc<dyn UpdateSink>>) -> SparqlServer {
        let (snapshots, dictionary) = service();
        let source =
            move || SnapshotQueryEngine::new(snapshots.snapshot(), Arc::clone(&dictionary));
        SparqlServer::bind_with("127.0.0.1:0", config, Arc::new(source), sink)
            .expect("bind loopback")
    }

    #[test]
    fn oversized_bodies_get_413_without_being_read() {
        let server = bind_full(
            ServerConfig {
                max_body_bytes: 1024,
                ..ServerConfig::default()
            },
            None,
        );
        let addr = server.local_addr();
        // Announce 2 KiB but do not send it: the refusal must not wait for
        // the body.
        let (status, body) = http(
            addr,
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: 2048\r\n\r\n",
        );
        assert_eq!(status, 413, "body: {body}");
        assert!(body.contains("body too large"), "body: {body}");
        server.shutdown();
    }

    #[test]
    fn a_stalled_request_head_gets_408() {
        let server = bind_full(
            ServerConfig {
                read_timeout: Duration::from_millis(150),
                ..ServerConfig::default()
            },
            None,
        );
        let addr = server.local_addr();
        // Send half a request line, then stall past the read timeout.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET /status HT").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 408"), "response: {response}");
        server.shutdown();
    }

    #[test]
    fn a_stalled_post_body_gets_408() {
        let server = bind_full(
            ServerConfig {
                read_timeout: Duration::from_millis(150),
                ..ServerConfig::default()
            },
            None,
        );
        let addr = server.local_addr();
        // Promise 100 bytes, send 10, stall.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\nSELECT * {")
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 408"), "response: {response}");
        server.shutdown();
    }

    #[test]
    fn a_read_only_sink_degrades_update_to_503_with_retry_after() {
        let server = bind_full(ServerConfig::default(), Some(Arc::new(ReadOnlySink)));
        let addr = server.local_addr();
        let doc = "<http://ex/a> <http://ex/b> <http://ex/c> .\n";
        let response = http_raw(
            addr,
            &format!(
                "POST /update HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{doc}",
                doc.len()
            ),
        );
        assert!(
            response.starts_with("HTTP/1.1 503 Service Unavailable"),
            "response: {response}"
        );
        assert!(response.contains("Retry-After: 30"), "response: {response}");
        assert!(response.contains("read-only"), "response: {response}");
        // Reads keep serving while writes are refused.
        let (status, _) = http(addr, "GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn status_splices_in_the_durability_report() {
        let server = bind_full(
            ServerConfig::default(),
            Some(Arc::new(StatusOnlySink(
                ",\"durability\":{\"read_only\":true,\"wal_records\":3}",
            ))),
        );
        let addr = server.local_addr();
        let (status, body) = http(addr, "GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(
            body,
            "{\"epoch\":0,\"triples\":3,\"tables\":2,\
             \"durability\":{\"read_only\":true,\"wal_records\":3}}\n"
        );
        // A status-only sink keeps `POST /update` answering like no sink.
        let doc = "<http://ex/a> <http://ex/b> <http://ex/c> .\n";
        let (status, body) = http(
            addr,
            &format!(
                "POST /update HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{doc}",
                doc.len()
            ),
        );
        assert_eq!(status, 404);
        assert_eq!(
            body,
            "{\"error\":\"updates are not enabled on this endpoint\"}\n"
        );
        server.shutdown();
    }

    /// A sink whose dataset refuses every write with a shape violation.
    struct ShapeGatedSink;

    impl UpdateSink for ShapeGatedSink {
        fn retract_ntriples(&self, _body: &str) -> Result<UpdateOutcome, UpdateError> {
            Err(UpdateError::Invalid {
                message: "1 shape violation(s)".to_owned(),
                violations_json: "{\"total\":1,\"violations\":[{\"focus\":\"<urn:x>\",\
                                  \"shape\":\"S\",\"path\":\"urn:p\",\"line\":1,\"col\":20,\
                                  \"message\":\"0 value(s), at least 1 required\"}]}"
                    .to_owned(),
            })
        }

        fn status_json_into(&self, out: &mut String) {
            out.push_str(
                ",\"validation\":{\"shapes\":2,\"validated_epoch\":0,\"rejected_writes\":1}",
            );
        }
    }

    #[test]
    fn shape_refusals_answer_422_with_the_violation_report() {
        let server = bind_full(ServerConfig::default(), Some(Arc::new(ShapeGatedSink)));
        let addr = server.local_addr();
        let doc = "<http://ex/a> <http://ex/b> <http://ex/c> .\n";
        let response = http_raw(
            addr,
            &format!(
                "POST /update HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{doc}",
                doc.len()
            ),
        );
        assert!(
            response.starts_with("HTTP/1.1 422 Unprocessable Entity"),
            "response: {response}"
        );
        assert!(
            response.contains("\"error\":\"1 shape violation(s)\""),
            "response: {response}"
        );
        assert!(
            response.contains("\"violations\":{\"total\":1"),
            "response: {response}"
        );
        assert!(
            response.contains("\"line\":1,\"col\":20"),
            "response: {response}"
        );
        // The gate refused before publishing: reads still serve, and the
        // validation object is spliced into /status.
        let (status, body) = http(addr, "GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(
            body.contains(
                "\"validation\":{\"shapes\":2,\"validated_epoch\":0,\"rejected_writes\":1}"
            ),
            "body: {body}"
        );
        server.shutdown();
    }

    #[test]
    fn update_actions_route_assert_and_reject_unknown() {
        let sink = Arc::new(RecordingSink {
            bodies: std::sync::Mutex::new(Vec::new()),
        });
        let server = bind_full(ServerConfig::default(), Some(Arc::new(Arc::clone(&sink))));
        let addr = server.local_addr();
        let doc = "<http://ex/a> <http://ex/b> <http://ex/c> .\n";
        // The default RecordingSink has no assert path: the trait default
        // rejects with 400.
        let (status, body) = http(
            addr,
            &format!(
                "POST /update?action=assert HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{doc}",
                doc.len()
            ),
        );
        assert_eq!(status, 400, "body: {body}");
        assert!(body.contains("asserts are not supported"), "body: {body}");
        // Unknown actions are named in the diagnostic.
        let (status, body) = http(
            addr,
            &format!(
                "POST /update?action=merge HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{doc}",
                doc.len()
            ),
        );
        assert_eq!(status, 400, "body: {body}");
        assert!(body.contains("unknown action 'merge'"), "body: {body}");
        // An explicit retract behaves like the default.
        let (status, _) = http(
            addr,
            &format!(
                "POST /update?action=retract HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{doc}",
                doc.len()
            ),
        );
        assert_eq!(status, 200);
        assert_eq!(sink.bodies.lock().unwrap().len(), 1);
        server.shutdown();
    }

    /// Reads one framed response off a persistent connection: status line,
    /// headers, then exactly `Content-Length` body bytes — the stream stays
    /// positioned at the next response.
    fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String, String) {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read header line");
            assert!(!line.is_empty(), "connection closed mid-head: {head}");
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .trim()
            .parse()
            .expect("numeric Content-Length");
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).expect("read body");
        (status, head, String::from_utf8(body).expect("utf-8 body"))
    }

    #[test]
    fn keep_alive_serves_pipelined_requests_and_sees_midstream_publishes() {
        let (server, snapshots, dictionary) = start_server();
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = BufReader::new(stream);

        // Request 1: default HTTP/1.1 keeps the connection open.
        reader
            .get_mut()
            .write_all(b"GET /status HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let (status, head, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert!(head.contains("Connection: keep-alive"), "head: {head}");
        assert!(body.contains("\"epoch\":0"), "body: {body}");

        // Publish a new epoch between two requests of the same connection.
        let id_of = |iri: &str| dictionary.id_of(&Term::iri(iri.to_owned()));
        let carol = id_of("http://ex/carol").unwrap();
        let alice = id_of("http://ex/alice").unwrap();
        let knows = id_of("http://ex/knows").unwrap();
        snapshots.update(|store| {
            store.add_triple(inferray_model::IdTriple::new(carol, knows, alice));
        });

        // Request 2 (same connection) answers from the new epoch.
        reader
            .get_mut()
            .write_all(b"GET /status HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let (_, _, body) = read_response(&mut reader);
        assert!(body.contains("\"epoch\":1"), "body: {body}");

        // Pipelining: several requests written back-to-back before reading
        // any response, mixing queries and a parse error (a route-level 400
        // must not kill the connection).
        let ask = "ASK { <http://ex/carol> <http://ex/knows> <http://ex/alice> }";
        let mut burst = format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{ask}",
            ask.len()
        );
        burst.push_str("GET /sparql?query=nonsense HTTP/1.1\r\nHost: t\r\n\r\n");
        burst.push_str("GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
        reader.get_mut().write_all(burst.as_bytes()).expect("send");
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert!(body.contains("\"boolean\":true"), "body: {body}");
        let (status, head, _) = read_response(&mut reader);
        assert_eq!(status, 400);
        assert!(head.contains("Connection: keep-alive"), "head: {head}");
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert!(body.contains("\"triples\":4"), "body: {body}");

        // `Connection: close` is honored: response says so and EOF follows.
        reader
            .get_mut()
            .write_all(b"GET /status HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("send");
        let (status, head, _) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert!(head.contains("Connection: close"), "head: {head}");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("drain");
        assert!(rest.is_empty(), "bytes after close: {rest}");
        server.shutdown();
    }

    #[test]
    fn head_requests_return_get_headers_without_a_body() {
        let (server, _snapshots, _dictionary) = start_server();
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = BufReader::new(stream);

        // HEAD /status announces the GET body length but sends none — the
        // next response must start right after the blank line.
        reader
            .get_mut()
            .write_all(b"HEAD /status HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read header line");
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
        let announced: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length")
            .trim()
            .parse()
            .expect("numeric");
        assert!(announced > 0);

        // GET on the same connection: the body length matches what HEAD
        // announced, proving no body bytes leaked into the stream.
        reader
            .get_mut()
            .write_all(b"GET /status HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(body.len(), announced);

        // HEAD /sparql evaluates the query and frames the result length.
        let query = percent_encode_for_test("SELECT ?x WHERE { ?x <http://ex/knows> ?y }");
        reader
            .get_mut()
            .write_all(
                format!(
                    "HEAD /sparql?query={query} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
                )
                .as_bytes(),
            )
            .expect("send");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("read");
        assert!(rest.starts_with("HTTP/1.1 200"), "response: {rest}");
        let announced: usize = rest
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length")
            .trim()
            .parse()
            .expect("numeric");
        assert!(announced > 0);
        let after_head = rest.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
        assert!(after_head.is_empty(), "HEAD sent a body: {after_head}");
        server.shutdown();
    }

    #[test]
    fn an_http10_request_without_keep_alive_is_answered_once_and_closed() {
        let server = bind_full(ServerConfig::default(), None);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(b"GET /status HTTP/1.0\r\nHost: t\r\n\r\n")
            .expect("send");
        // `read_to_string` returns only once the server has closed.
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 200"), "response: {response}");
        assert!(
            response.contains("Connection: close"),
            "response: {response}"
        );
        server.shutdown();
    }

    /// A writer that takes at most `step` bytes per call, answers every
    /// other call with `Interrupted`, and ignores all but the first
    /// non-empty buffer of a vectored write (as `Write`'s default does).
    struct Trickle {
        written: Vec<u8>,
        step: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.step);
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_resumes_partial_and_interrupted_writes_at_the_first_unsent_byte() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 26\r\n\r\n";
        let body = b"abcdefghijklmnopqrstuvwxyz";
        for step in [1, 2, 3, 7, 40, 41, 42, 66, 67, 1000] {
            for (head, body) in [
                (&head[..], &body[..]),
                (&head[..], &[][..]),
                (&[][..], &body[..]),
            ] {
                let mut sink = Trickle {
                    written: Vec::new(),
                    step,
                    calls: 0,
                };
                send(&mut sink, head, body).expect("a trickle is not an error");
                assert_eq!(sink.written, [head, body].concat(), "step {step}");
            }
        }
        // A writer that takes nothing is an error, not a spin.
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let error = send(&mut Full, b"head", b"body").expect_err("no progress");
        assert_eq!(error.kind(), std::io::ErrorKind::WriteZero);
    }

    /// A store whose one answer (4.9 MB of JSON) is larger than a socket's
    /// send buffer, with literals and IRIs that need escaping.
    fn large_service() -> (Arc<SnapshotStore>, Arc<Dictionary>) {
        let mut dictionary = Dictionary::new();
        let encoded: Vec<_> = (0..20_000)
            .map(|i| {
                let triple = Triple::new(
                    Term::iri(format!("http://example.org/subject/{i}/with a space")),
                    Term::iri("http://example.org/label"),
                    Term::lang_literal(
                        format!(
                            "label {i} \"quoted\" tab\there, é and a long tail {:>64}",
                            i
                        ),
                        "en",
                    ),
                );
                dictionary.encode_triple(&triple).unwrap()
            })
            .collect();
        let store = TripleStore::from_triples(encoded);
        (Arc::new(SnapshotStore::new(store)), Arc::new(dictionary))
    }

    #[test]
    fn a_large_answer_and_the_next_response_frame_by_content_length() {
        let (snapshots, dictionary) = large_service();
        let engine = SnapshotQueryEngine::new(snapshots.snapshot(), Arc::clone(&dictionary));
        let server =
            SparqlServer::bind("127.0.0.1:0", 1, Arc::new(engine.clone())).expect("bind loopback");
        let query = "SELECT ?s ?o WHERE { ?s <http://example.org/label> ?o }";
        let expected = {
            let mut solutions = SolutionSet::default();
            engine.execute_into(
                &parse_query(query).unwrap(),
                &mut solutions,
                &mut Scratch::default(),
            );
            assert_eq!(solutions.len(), 20_000);
            render_law::reference_results_json(&solutions, &dictionary)
        };
        // More than the largest send buffer Linux grows a socket to (4 MiB).
        assert!(expected.len() > 4 << 20, "{} bytes", expected.len());

        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut reader = BufReader::new(stream);
        let encoded = percent_encode_for_test(query);
        // Both requests at once; the client reads nothing for a while, so
        // the server's write fills the socket's buffers and blocks.
        let burst = format!(
            "GET /sparql?query={encoded} HTTP/1.1\r\nHost: t\r\n\r\n\
             GET /sparql?query={} HTTP/1.1\r\nHost: t\r\n\r\n",
            percent_encode_for_test("ASK { ?s ?p ?o }")
        );
        reader.get_mut().write_all(burst.as_bytes()).expect("send");
        std::thread::sleep(Duration::from_millis(200));
        let (status, head, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert!(head.contains("Connection: keep-alive"), "head: {head}");
        assert!(
            body == expected,
            "the large answer differs from the reference"
        );
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(body, "{\"head\":{},\"boolean\":true}\n");

        // HEAD announces the same length and sends no body: the response
        // after it starts right after its blank line.
        let burst = format!(
            "HEAD /sparql?query={encoded} HTTP/1.1\r\nHost: t\r\n\r\n\
             GET /status HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        );
        reader.get_mut().write_all(burst.as_bytes()).expect("send");
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read header line");
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        assert!(
            head.contains(&format!("Content-Length: {}\r\n", expected.len())),
            "head: {head}"
        );
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"epoch\":0"), "body: {body}");
        server.shutdown();
    }

    /// Just enough encoding for the test queries (space and reserved chars).
    fn percent_encode_for_test(query: &str) -> String {
        let mut out = String::new();
        for byte in query.bytes() {
            match byte {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                    out.push(byte as char)
                }
                other => out.push_str(&format!("%{other:02X}")),
            }
        }
        out
    }
}
