//! Every stage record keeps one law (`common/stage_law.rs`): its
//! top-level stages sum to no more than the run's wall time, and the
//! details of a stage that run one after another sum to no more than it.
//!
//! `GET /status` reports where the last accepted write's time went: its
//! kind, epoch, the pipeline's stage times (encode, reason, gate, log,
//! publish, total) and, for a retraction, the four delete–rederive phase
//! times inside reason, all in µs. The stages sum to no more than its
//! total, and the total to no more than what the client waited for the
//! answer. A durable write that crosses the checkpoint threshold adds
//! beginning the checkpoint as one more stage. A cold start reports
//! reading the image (each section's decode inside it), the first epoch's
//! ⟨o,s⟩ caches and the replay, within `open`'s wall time; a batch
//! materialization its closure stage, stratum, firing and update, within
//! its duration.

#[path = "common/http_client.rs"]
mod http_client;
#[path = "common/stage_law.rs"]
mod stage_law;

use http_client::http;
use inferray::datasets::{yago_like, LubmGenerator};
use inferray::persist::{CheckpointPolicy, DurableDataset, IoBackend, MemFs};
use inferray::query::{ServerConfig, SnapshotQueryEngine, SparqlServer};
use inferray::{
    Fragment, InferrayOptions, InferrayReasoner, Materializer, ServingDataset, ServingUpdateSink,
    Stage,
};
use stage_law::assert_stage_law;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PHASES: [&str; 4] = ["over_delete_us", "probe_us", "net_delete_us", "cascade_us"];

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

fn us(us: u128) -> Duration {
    Duration::from_micros(us as u64)
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
        // The stages within the total, the phases inside reason.
        assert_stage_law(&stage_law::from_json(write), us(total));
        assert!(
            total <= wall_us,
            "{total} µs of write in {wall_us} µs of wall: {write}"
        );
        for phase in PHASES {
            assert_eq!(write.contains(phase), action == "retract", "{write}");
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
        assert_stage_law(&stage_law::from_json(write), us(total));
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
        assert_stage_law(&stages, wall);
        for stage in [Stage::Dict, Stage::Base, Stage::Matl, Stage::Replay] {
            assert!(stages.get(stage) > Some(Duration::ZERO), "{stages}");
        }
        assert_eq!(recovered.dataset().epoch(), durable.dataset().epoch());
        if !checkpoint {
            durable.checkpoint().expect("a delta");
        }
    }
}

/// `json` with the digits of every `_us` value replaced by one `#`: what
/// stays is the wire format, byte for byte.
fn mask_times(json: &str) -> String {
    let mut out = String::new();
    let mut rest = json;
    while let Some(at) = rest.find("_us\":") {
        let (head, tail) = rest.split_at(at + 5);
        out.push_str(head);
        out.push('#');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn last_write_keeps_its_bytes() {
    let (durable, _) = DurableDataset::create(
        inferray::load_ntriples(&triple(0)).expect("valid"),
        Fragment::RdfsDefault,
        InferrayOptions::default(),
        "data",
        Arc::new(MemFs::new()) as Arc<dyn IoBackend>,
        CheckpointPolicy {
            wal_record_limit: Some(4),
            wal_byte_limit: None,
            snapshots_to_keep: 2,
        },
    )
    .expect("created");
    let json = |outcome: inferray::WriteOutcome| {
        let mut out = String::new();
        outcome.json_into(&mut out);
        out
    };
    let head = "\"total_us\":#,\"encode_us\":#,\"reason_us\":#,\"gate_us\":#,\
                \"log_us\":#,\"publish_us\":#,\"checkpoint_us\":#";

    let assert = json(durable.extend_ntriples(&triple(1)).expect("accepted"));
    assert_eq!(
        mask_times(&assert),
        format!("{{\"kind\":\"assert\",\"epoch\":1,{head}}}")
    );
    assert!(assert.ends_with(",\"checkpoint_us\":0}"), "{assert}");

    let retract = json(durable.retract_ntriples(&triple(1)).expect("accepted"));
    assert_eq!(
        mask_times(&retract),
        format!(
            "{{\"kind\":\"retract\",\"epoch\":2,{head},\"over_delete_us\":#,\"probe_us\":#,\
             \"net_delete_us\":#,\"cascade_us\":#}}"
        )
    );
    // A retraction of what was never asserted removes nothing: no epoch,
    // and every phase still has its key.
    let nothing = json(durable.retract_ntriples(&triple(7)).expect("accepted"));
    assert_eq!(
        mask_times(&nothing),
        format!(
            "{{\"kind\":\"retract\",\"epoch\":2,{head},\"over_delete_us\":#,\"probe_us\":#,\
             \"net_delete_us\":#,\"cascade_us\":#}}"
        )
    );
    assert!(
        nothing.contains(",\"over_delete_us\":0,\"probe_us\":0,"),
        "{nothing}"
    );

    // The fourth record crosses the threshold: a nonzero checkpoint stage.
    let checkpoint = json(durable.extend_ntriples(&triple(2)).expect("accepted"));
    assert_eq!(
        mask_times(&checkpoint),
        format!("{{\"kind\":\"assert\",\"epoch\":3,{head}}}")
    );
    assert!(
        !checkpoint.ends_with(",\"checkpoint_us\":0}"),
        "{checkpoint}"
    );
    durable.wait_for_checkpoint();
}

#[test]
fn a_batch_run_s_stages_sum_to_within_its_duration() {
    let datasets = [
        (
            LubmGenerator::new(20_000).with_seed(1).generate(),
            Fragment::RdfsPlus,
        ),
        (yago_like(2_000, 12, 1), Fragment::RdfsDefault),
    ];
    for (dataset, fragment) in datasets {
        for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
            let mut store = inferray::parser::load_triples(dataset.triples.iter())
                .expect("valid")
                .store;
            let mut reasoner = InferrayReasoner::with_options(fragment, options);
            let stats = reasoner.materialize(&mut store);
            let stages = reasoner.last_stages();
            let recorded: Vec<Stage> = stages.iter().map(|(stage, _)| stage).collect();
            assert_eq!(
                recorded,
                [Stage::Closure, Stage::Stratum, Stage::Fire, Stage::Update],
                "{fragment:?}"
            );
            // Firing and update are the profile's wall times, not timed
            // again: on several lanes too, they stay within the run.
            let profile = reasoner.last_iteration_profile();
            assert_eq!(stages.get(Stage::Fire), Some(profile.total_fire()));
            assert_eq!(stages.get(Stage::Update), Some(profile.total_update()));
            assert_stage_law(&stages, stats.duration);
        }
    }
}
