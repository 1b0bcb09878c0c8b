use super::render::render_law;
use super::*;
use crate::executor::Scratch;
use crate::solution::SolutionSet;
use crate::sparql::parse_query;
use inferray_dictionary::Dictionary;
use inferray_model::{Term, Triple};
use inferray_store::{SnapshotStore, TripleStore};
use std::io::{BufRead, Read, Write};

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

/// The full response to `request`, headers included.
fn http_raw(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(with_close(request).as_bytes())
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

/// The status and body of the response to `request`.
fn http(addr: SocketAddr, request: &str) -> (u16, String) {
    let response = http_raw(addr, request);
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
    let config = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    };
    let server = SparqlServer::bind_with(
        "127.0.0.1:0",
        config,
        Arc::new(source),
        Some(Arc::new(Arc::clone(&sink))),
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
    let source = move || SnapshotQueryEngine::new(snapshots.snapshot(), Arc::clone(&dictionary));
    SparqlServer::bind_with("127.0.0.1:0", config, Arc::new(source), sink).expect("bind loopback")
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
fn a_refused_body_is_drained_so_its_refusal_arrives() {
    let server = bind_full(
        ServerConfig {
            max_body_bytes: 1024,
            ..ServerConfig::default()
        },
        None,
    );
    // A body larger than the connection's read buffer, sent in full: the
    // server must read it off the socket before closing, or the close
    // resets the connection and the client never reads the refusal.
    let body = "x".repeat(32 << 10);
    for (status, head) in [
        (413, format!("Content-Length: {}\r\n", body.len())),
        (411, String::new()),
        (501, "Transfer-Encoding: chunked\r\n".to_owned()),
    ] {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let request = format!("POST /sparql HTTP/1.1\r\nHost: t\r\n{head}\r\n{body}");
        stream.write_all(request.as_bytes()).expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("end the upload");
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("the refusal, then a clean close");
        assert!(
            response.starts_with(&format!("HTTP/1.1 {status} ")),
            "{response}"
        );
    }
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
fn status_reports_the_os_caches_a_bound_object_query_builds() {
    let (server, _, _) = start_server();
    let addr = server.local_addr();
    let status = || http(addr, "GET /status HTTP/1.1\r\nHost: t\r\n\r\n").1;
    assert!(status().contains(",\"cached_tables\":0,\"cached_pairs\":0}"));
    let query = "SELECT%20%3Fs%20WHERE%20%7B%20%3Fs%20%3Chttp%3A%2F%2Fex%2Fknows%3E%20%3Chttp%3A%2F%2Fex%2Fbob%3E%20%7D";
    let (code, body) = http(
        addr,
        &format!("GET /sparql?query={query} HTTP/1.1\r\nHost: t\r\n\r\n"),
    );
    assert_eq!(code, 200);
    assert!(body.contains("http://ex/alice"), "body: {body}");
    // The epoch now holds the cache of `knows`, built by that query.
    assert!(status().contains(",\"tables\":2,\"cached_tables\":1,\"cached_pairs\":2}"));
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
        "{\"epoch\":0,\"triples\":3,\"tables\":2,\"cached_tables\":0,\"cached_pairs\":0,\
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
        out.push_str(",\"validation\":{\"shapes\":2,\"validated_epoch\":0,\"rejected_writes\":1}");
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
        body.contains("\"validation\":{\"shapes\":2,\"validated_epoch\":0,\"rejected_writes\":1}"),
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
            format!("HEAD /sparql?query={query} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
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
