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
//! Each decision lives in one module: this one owns the sockets — the
//! listener, the workers and the connection loop, the only code that names
//! a `TcpStream`; `http` frames requests and responses over `impl Read` /
//! `impl Write`; `routes` says what a request means; `render` writes the
//! results JSON.
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
//!   [`UpdateSink`] ([`SparqlServer::bind_with`]), 404 otherwise;
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
//! reusable buffers (`WorkerBuffers`) — request head scratch, body
//! buffer, the query's batches, the projected variables' binding keys,
//! and the responder's response body and rendered status line and headers
//! — so the steady-state request loop performs no per-request heap
//! allocation for framing or response rendering. The body is rendered
//! once, into its buffer, and leaves from there: head and body go out in
//! one vectored write (`send`), so a large answer is never copied behind
//! its head. The repo lint rule IL007 keeps `format!` / `String::new` /
//! `Vec::new` out of the hot functions; cold paths (errors, updates)
//! delegate to dedicated functions that may allocate.

mod http;
mod render;
mod routes;

use crate::engine::SnapshotQueryEngine;
use http::{read_body, read_head, Refusal, RespondOptions, Responder};
use routes::QueryBuffers;
use std::io::BufReader;
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
    let mut buffers = WorkerBuffers::default();
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
#[derive(Default)]
struct WorkerBuffers {
    /// Request-line / header-line scratch for [`read_head`].
    line: String,
    /// The request target (path + query string), copied out of the request
    /// line so header parsing can reuse the scratch line.
    path: String,
    /// The `POST` body.
    body: Vec<u8>,
    /// The query's batches and the answer's binding keys.
    query: QueryBuffers,
    /// The response body and its rendered head.
    responder: Responder,
}

/// Serves requests off one connection until the client closes, asks to
/// close, a framing error leaves the stream position unknown, or shutdown.
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
        let head = match read_head(&mut reader, &mut buffers.line, &mut buffers.path) {
            Ok(Some(head)) => head,
            // Clean close: EOF (or an idle keep-alive timeout) before the
            // first byte of a next request.
            Ok(None) => return Ok(()),
            Err(refusal) => return refuse(&mut reader, refusal, &mut buffers.responder),
        };
        let keep_alive = !head.close && !stop.load(Ordering::SeqCst);
        if let Err(refusal) =
            read_body(&mut reader, &head, config.max_body_bytes, &mut buffers.body)
        {
            return refuse(&mut reader, refusal, &mut buffers.responder);
        }
        routes::serve_request(reader.get_mut(), &head, source, sink, buffers, keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Answers a refusal and closes. What the refusal allows of the body the
/// client is still sending is drained first, under a short read timeout,
/// so the answer is not lost to a connection reset.
fn refuse(
    reader: &mut BufReader<TcpStream>,
    refusal: Refusal,
    responder: &mut Responder,
) -> std::io::Result<()> {
    responder.respond_error(
        reader.get_mut(),
        refusal.status,
        &refusal.message,
        RespondOptions::closing(),
    )?;
    if refusal.drain > 0 {
        let _ = reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_millis(300)));
        http::drain(reader, refusal.drain);
    }
    Ok(())
}

#[cfg(test)]
mod tests;
