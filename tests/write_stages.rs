//! `GET /status` reports where the last accepted write's time went: its
//! kind, epoch, the pipeline's stage times (encode, reason, gate, log,
//! publish, total) and, for a retraction, the four delete–rederive phase
//! times, all in µs. The stages run one after another inside the write, so
//! they sum to no more than its total, and the total to no more than what
//! the client waited for the answer. A durable write that crosses the
//! checkpoint threshold adds beginning the checkpoint as one more stage.
//! A cold start reports its stages the same way: reading the image (each
//! section's decode inside it), the first epoch's ⟨o,s⟩ caches and the
//! replay, which sum to no more than `open`'s wall time.

use inferray::persist::{CheckpointPolicy, DurableDataset, IoBackend, MemFs};
use inferray::query::{ServerConfig, SnapshotQueryEngine, SparqlServer};
use inferray::{Fragment, InferrayOptions, ServingDataset, ServingUpdateSink};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const STAGES: [&str; 5] = ["encode_us", "reason_us", "gate_us", "log_us", "publish_us"];
const PHASES: [&str; 4] = ["over_delete_us", "probe_us", "net_delete_us", "cascade_us"];

fn http(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = request.replacen("\r\n\r\n", "\r\nConnection: close\r\n\r\n", 1);
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

/// Posts `body` to `/update?action=…` and returns the response with the
/// client's wall time in µs.
fn update(addr: SocketAddr, action: &str, body: &str) -> (String, u128) {
    let start = Instant::now();
    let response = http(
        addr,
        &format!(
            "POST /update?action={action} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    (response, start.elapsed().as_micros())
}

/// The `last_write` object of a `/status` response.
fn last_write(status: &str) -> &str {
    let from = status
        .find("\"last_write\":{")
        .expect("a last_write member")
        + 13;
    let to = from + status[from..].find('}').expect("a closed object") + 1;
    &status[from..to]
}

/// The number member `name` of a flat JSON object.
fn number(object: &str, name: &str) -> u128 {
    let key = format!("\"{name}\":");
    let from = object
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in {object}"))
        + key.len();
    let digits: String = object[from..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a number")
}

fn triple(instance: u32) -> String {
    format!(
        "<http://ex/i{instance}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/A> .\n"
    )
}

#[test]
fn status_reports_the_stage_times_of_the_last_write() {
    let schema =
        "<http://ex/A> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/B> .\n";
    let (dataset, _) = ServingDataset::materialize(
        inferray::load_ntriples(schema).expect("valid"),
        Fragment::RdfsDefault,
        InferrayOptions::default(),
    );
    let dataset = Arc::new(dataset);
    let sink = ServingUpdateSink::new(Arc::clone(&dataset));
    let source = move || {
        let (snapshot, dictionary) = dataset.snapshot();
        SnapshotQueryEngine::new(snapshot, dictionary)
    };
    let server = SparqlServer::bind_with(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(source),
        Some(Arc::new(sink)),
    )
    .expect("bind");
    let addr = server.local_addr();
    let status = || http(addr, "GET /status HTTP/1.1\r\nHost: t\r\n\r\n");

    assert!(
        !status().contains("last_write"),
        "no write accepted yet: no last_write"
    );

    for (epoch, action, instance) in [(1, "assert", 1), (2, "assert", 2), (3, "retract", 1)] {
        let (response, wall_us) = update(addr, action, &triple(instance));
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        let status = status();
        let write = last_write(&status);
        assert!(write.contains(&format!("\"kind\":\"{action}\"")), "{write}");
        assert_eq!(number(write, "epoch"), epoch, "{write}");
        let total = number(write, "total_us");
        let stages: u128 = STAGES.iter().map(|stage| number(write, stage)).sum();
        assert!(
            stages <= total,
            "{stages} µs of stages in {total} µs: {write}"
        );
        assert!(
            total <= wall_us,
            "{total} µs of write in {wall_us} µs of wall: {write}"
        );
        for phase in PHASES {
            assert_eq!(write.contains(phase), action == "retract", "{write}");
        }
        if action == "retract" {
            let phases: u128 = PHASES.iter().map(|phase| number(write, phase)).sum();
            assert!(
                phases <= number(write, "reason_us"),
                "the phases run inside the reasoning stage: {write}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn the_write_that_begins_a_checkpoint_reports_it_as_a_stage() {
    let schema =
        "<http://ex/A> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/B> .\n";
    let (durable, _) = DurableDataset::create(
        inferray::load_ntriples(schema).expect("valid"),
        Fragment::RdfsDefault,
        InferrayOptions::default(),
        "data",
        Arc::new(MemFs::new()) as Arc<dyn IoBackend>,
        CheckpointPolicy {
            wal_record_limit: Some(3),
            wal_byte_limit: None,
            snapshots_to_keep: 2,
        },
    )
    .expect("created");
    let durable = Arc::new(durable);
    let dataset = Arc::clone(durable.dataset());
    let sink = ServingUpdateSink::durable(Arc::clone(&durable));
    let source = move || {
        let (snapshot, dictionary) = dataset.snapshot();
        SnapshotQueryEngine::new(snapshot, dictionary)
    };
    let server = SparqlServer::bind_with(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(source),
        Some(Arc::new(sink)),
    )
    .expect("bind");
    let addr = server.local_addr();
    let status = || http(addr, "GET /status HTTP/1.1\r\nHost: t\r\n\r\n");

    for instance in 1..=6 {
        let (response, wall_us) = update(addr, "assert", &triple(instance));
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        let status = status();
        let write = last_write(&status);
        let total = number(write, "total_us");
        let checkpoint = number(write, "checkpoint_us");
        let stages: u128 = STAGES.iter().map(|stage| number(write, stage)).sum();
        assert!(
            stages + checkpoint <= total,
            "{stages} + {checkpoint} µs of stages in {total} µs: {write}"
        );
        assert!(
            total <= wall_us,
            "{total} µs of write in {wall_us} µs of wall: {write}"
        );
        // Every third record crosses the threshold: that write seals the
        // log, captures the state and starts the image's thread.
        assert_eq!(checkpoint > 0, instance % 3 == 0, "{write}");
    }
    durable.wait_for_checkpoint();
    assert_eq!(durable.status().last_checkpoint_seq, 6);
    server.shutdown();
}

#[test]
fn a_cold_start_s_stages_sum_to_within_its_wall_time() {
    let fs = Arc::new(MemFs::new());
    let (durable, _) = DurableDataset::create(
        inferray::load_ntriples(&(0..200).map(triple).collect::<String>()).expect("valid"),
        Fragment::RdfsDefault,
        InferrayOptions::default(),
        "data",
        Arc::clone(&fs) as Arc<dyn IoBackend>,
        CheckpointPolicy::manual(),
    )
    .expect("created");
    // A full image, then a delta on it, each with records behind it.
    for checkpoint in [false, true] {
        for instance in 0..3 {
            durable
                .extend_ntriples(&format!(
                    "<http://ex/i{instance}> <http://ex/knows> <http://ex/i{checkpoint}> .\n"
                ))
                .expect("accepted");
        }
        let start = Instant::now();
        let (recovered, report) = DurableDataset::open(
            "data",
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            Arc::new(MemFs::from_view(fs.durable_view())),
            CheckpointPolicy::manual(),
        )
        .expect("recovered");
        let wall = start.elapsed();
        let stages = report.stages;
        assert_eq!(report.base_path.is_some(), checkpoint, "{report:?}");
        assert!(stages.total() <= wall, "{stages:?} in {wall:?}");
        for section in [stages.dict, stages.base, stages.matl] {
            assert!(
                Duration::ZERO < section && section <= stages.image,
                "{stages:?}"
            );
        }
        assert!(stages.replay > Duration::ZERO, "{stages:?}");
        assert_eq!(recovered.dataset().epoch(), durable.dataset().epoch());
        if !checkpoint {
            durable.checkpoint().expect("a delta");
        }
    }
}
