//! What a request means: dispatch on method and path, `/sparql`,
//! `/update` and `/status`. A route renders its body into the worker's
//! [`Responder`] and answers through it.

use super::http::{query_param, Method, RequestHead, RespondOptions, Responder};
use super::render::{boolean_json_into, results_json_into, CellKeys};
use super::{EngineSource, UpdateError, UpdateSink, WorkerBuffers};
use crate::algebra::QueryForm;
use crate::executor::Scratch;
use crate::solution::SolutionSet;
use crate::sparql::parse_query;
use inferray_model::json_escape_into;
use std::io::Write;

/// The buffers one query reuses: the executor's output batch and its other
/// buffers, and the projected variables' escaped keys.
#[derive(Default)]
pub(super) struct QueryBuffers {
    solutions: SolutionSet,
    scratch: Scratch,
    keys: CellKeys,
}

/// Routes and answers one request whose head and body the connection loop
/// has read into `buffers` (the target into `buffers.path`, the body into
/// `buffers.body`).
pub(super) fn serve_request(
    stream: &mut impl Write,
    head: &RequestHead,
    source: &dyn EngineSource,
    sink: Option<&dyn UpdateSink>,
    buffers: &mut WorkerBuffers,
    keep_alive: bool,
) -> std::io::Result<()> {
    let opts = RespondOptions {
        head_only: head.method == Method::Head,
        keep_alive,
        retry_after_secs: None,
    };
    let responder = &mut buffers.responder;
    let (path, query_string) = match buffers.path.split_once('?') {
        Some((path, qs)) => (path, Some(qs)),
        None => (buffers.path.as_str(), None),
    };
    match (head.method, path) {
        (Method::Get | Method::Head, "/status") => {
            responder.body.clear();
            status_json_into(&mut responder.body, source, sink);
            responder.respond(stream, 200, "application/json", opts)
        }
        (Method::Get | Method::Head, "/sparql") => {
            match query_param(query_string.unwrap_or(""), "query") {
                Some(query) => {
                    answer_query(stream, source, &query, opts, &mut buffers.query, responder)
                }
                None => responder.respond_error(stream, 400, "missing 'query' parameter", opts),
            }
        }
        (Method::Post, "/sparql") => {
            let body = String::from_utf8_lossy(&buffers.body);
            // A form carries the query as its `query` parameter; any other
            // content type (application/sparql-query) is the raw query text.
            let form_query;
            let text = if head.form_urlencoded {
                form_query = query_param(&body, "query");
                form_query.as_deref().unwrap_or("")
            } else {
                &body
            };
            if text.trim().is_empty() {
                responder.respond_error(stream, 400, "empty query", opts)
            } else {
                answer_query(stream, source, text, opts, &mut buffers.query, responder)
            }
        }
        (Method::Post, "/update") => {
            handle_update(stream, sink, &buffers.body, query_string, opts, responder)
        }
        (Method::Get | Method::Head | Method::Post, _) => responder.respond_error(
            stream,
            404,
            "unknown path (use /sparql, /update or /status)",
            opts,
        ),
        (Method::Other, _) => responder.respond_error(stream, 405, "method not allowed", opts),
    }
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

/// Parses and evaluates one query against the current epoch and answers
/// with its results JSON, or with a 400 for a parse error.
fn answer_query(
    stream: &mut impl Write,
    source: &dyn EngineSource,
    text: &str,
    opts: RespondOptions,
    query: &mut QueryBuffers,
    responder: &mut Responder,
) -> std::io::Result<()> {
    let parsed = match parse_query(text) {
        Ok(parsed) => parsed,
        Err(error) => return responder.respond_error(stream, 400, &error.to_string(), opts),
    };
    // One engine — hence one frozen epoch — for the whole request.
    let engine = source.current();
    engine.execute_into(&parsed, &mut query.solutions, &mut query.scratch);
    let out = &mut responder.body;
    out.clear();
    match parsed.form {
        QueryForm::Ask => boolean_json_into(out, !query.solutions.is_empty()),
        QueryForm::Select => {
            results_json_into(out, &mut query.keys, &query.solutions, engine.dictionary())
        }
    }
    responder.respond(stream, 200, "application/sparql-results+json", opts)
}

/// `POST /update`: parses the action, forwards to the sink and renders the
/// outcome. Updates re-materialize the dataset, so this path is cold by
/// construction and free to allocate.
fn handle_update(
    stream: &mut impl Write,
    sink: Option<&dyn UpdateSink>,
    body: &[u8],
    query_string: Option<&str>,
    opts: RespondOptions,
    responder: &mut Responder,
) -> std::io::Result<()> {
    // `?action=assert` routes to the write-ahead assert path; the default
    // (and `?action=retract`) stays delete–rederive.
    let action = query_string
        .and_then(|qs| query_param(qs, "action"))
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
    let out = &mut responder.body;
    out.clear();
    match result {
        Ok(outcome) => {
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "{{\"epoch\":{},\"requested\":{},\"removed\":{},\"triples\":{}}}",
                outcome.epoch, outcome.requested, outcome.removed, outcome.triples,
            );
            responder.respond(stream, 200, "application/json", opts)
        }
        Err(UpdateError::Disabled) => responder.respond_error(
            stream,
            404,
            "updates are not enabled on this endpoint",
            opts,
        ),
        Err(UpdateError::Rejected(message)) => responder.respond_error(stream, 400, &message, opts),
        Err(UpdateError::Unavailable {
            message,
            retry_after_secs,
        }) => responder.respond_error(
            stream,
            503,
            &message,
            opts.with_retry_after(retry_after_secs),
        ),
        Err(UpdateError::Invalid {
            message,
            violations_json,
        }) => {
            // `{"error":…,"violations":{…}}` — the report is pre-rendered
            // JSON from the validator; only the summary needs escaping.
            out.push_str("{\"error\":\"");
            json_escape_into(out, &message);
            out.push_str("\",\"violations\":");
            out.push_str(&violations_json);
            out.push_str("}\n");
            responder.respond(stream, 422, "application/json", opts)
        }
    }
}
