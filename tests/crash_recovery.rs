//! Crash-recovery contract of the persistence subsystem
//! (docs/persistence.md).
//!
//! The property under test: a [`DurableDataset`] may lose power at **any**
//! moment — between records, inside a record, between a checkpoint image
//! and the WAL truncation that follows it — and recovery from what survived
//! on disk reconstructs a dataset **byte-identical** to the acknowledged
//! prefix of the write history. "Byte-identical" is checked literally: both
//! sides are serialized through the snapshot encoder (dictionary, base
//! slots, materialized slots, epoch) and the images are compared as bytes.
//!
//! The crash model is the deterministic in-memory [`MemFs`] backend: its
//! `durable_view()` is exactly the bytes that survive power loss (appends
//! past the last fsync are dropped, atomic writes are all-or-nothing), and
//! injected faults model torn appends and failed fsyncs.

#[path = "common/http_client.rs"]
mod http_client;

use http_client::http;
use inferray::parser::load_ntriples;
use inferray::persist::{
    encode_image, segment_file_name, wal, DurableView, Fault, MemFs, RecoveryReport,
};
use inferray::query::{ServerConfig, SnapshotQueryEngine, SparqlServer};
use inferray::{
    CheckpointPolicy, DurableDataset, DurableError, Fragment, InferrayOptions, Program,
    ServingDataset, ServingUpdateSink, WriteKind,
};
use proptest::prelude::*;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FRAGMENT: Fragment = Fragment::RdfsDefault;

/// A small ontology so that asserts and retracts exercise inference
/// (delete–rederive), not just base-table edits.
const SCHEMA: &str = "\
<http://ex/c0> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/c1> .\n\
<http://ex/c1> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/c2> .\n\
<http://ex/c2> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/c3> .\n\
<http://ex/i0> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/c0> .\n";

/// One update batch: `rdf:type` assertions/retractions over a small
/// instance × class universe, so retractions regularly hit triples that
/// earlier asserts created (and their inferred superclass memberships), or
/// a batch that uses an instance as a predicate ([`link_triple`]).
#[derive(Clone, Debug)]
enum Op {
    Assert(String),
    Retract(String),
    Checkpoint,
}

fn type_triple(instance: u8, class: u8) -> String {
    format!(
        "<http://ex/i{instance}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/c{class}> .\n"
    )
}

/// An instance used as a predicate. The first such write promotes the
/// instance, interned as a resource, to a property: its identifier changes
/// in the dictionary, the store and the explicit base — on the live write,
/// and again when recovery replays the record in place.
fn link_triple(subject: u8, instance: u8, class: u8) -> String {
    format!("<http://ex/i{subject}> <http://ex/i{instance}> <http://ex/c{class}> .\n")
}

fn arbitrary_ops() -> impl Strategy<Value = Vec<Op>> {
    let batch = prop::collection::vec((0u8..4, 0u8..4), 1..4).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(i, c)| type_triple(i, c))
            .collect::<String>()
    });
    let links = prop::collection::vec((0u8..4, 0u8..4, 0u8..4), 1..3).prop_map(|triples| {
        triples
            .into_iter()
            .map(|(s, i, c)| link_triple(s, i, c))
            .collect::<String>()
    });
    prop::collection::vec(
        prop_oneof![
            batch.clone().prop_map(Op::Assert),
            batch.prop_map(Op::Retract),
            links.clone().prop_map(Op::Assert),
            links.prop_map(Op::Retract),
            Just(Op::Checkpoint),
        ],
        1..8,
    )
}

/// Random histories per property: 24, or more when `PROPTEST_CASES` asks
/// for more (the nightly long run does), never fewer.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|value| value.parse().ok())
        .map_or(24, |cases: u32| cases.max(24))
}

fn options() -> InferrayOptions {
    InferrayOptions::default()
}

/// What the dataset under test is closed under and gated by. Durability
/// must compose with both: the same histories are run under each scenario.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    /// A `.rules` program instead of [`FRAGMENT`].
    rules: Option<&'static str>,
    /// A shape program installed as a live write gate.
    shapes: Option<&'static str>,
}

const PLAIN: Scenario = Scenario {
    rules: None,
    shapes: None,
};

/// Every member of `c3` needs a second type. Over the generated universe
/// that refuses asserts (`i1 a c3` on an untyped `i1`) *and* retractions
/// (dropping `i1 a c2` while `i1 a c3` stays asserted).
const GATED: Scenario = Scenario {
    rules: None,
    shapes: Some(
        "shape Grounded targets class <http://ex/c3> {\n\
           <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> count [2..*] ;\n\
         } .",
    ),
};

/// Subclass inheritance as a rule the analyzer recognizes plus a custom rule
/// on top of it, so replay runs the generic executor too.
const RULES: Scenario = Scenario {
    rules: Some(
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         @prefix ex: <http://ex/> .\n\
         rule inherit: ?x a ?c, ?c rdfs:subClassOf ?d => ?x a ?d .\n\
         rule top: ?x a ex:c3 => ?x ex:reaches ex:c3 .\n",
    ),
    shapes: None,
};

const SCENARIOS: [Scenario; 3] = [PLAIN, GATED, RULES];

impl Scenario {
    fn program(self) -> Program {
        match self.rules {
            Some(rules) => rules.into(),
            None => FRAGMENT.into(),
        }
    }

    /// Installs the gate the way `inferray-cli serve --shapes` does: on the
    /// fresh and on the recovered dataset alike.
    fn gate(self, dataset: &ServingDataset) {
        if let Some(shapes) = self.shapes {
            dataset.install_shapes(shapes).expect("state conforms");
        }
    }

    /// The in-memory reference: the same initial materialization with no
    /// persistence layer at all. Recovery must land exactly here.
    fn mirror(self) -> ServingDataset {
        let loaded = load_ntriples(SCHEMA).expect("schema parses");
        let (dataset, _) = ServingDataset::materialize_program(loaded, self.program(), options())
            .expect("program loads");
        self.gate(&dataset);
        dataset
    }

    fn boot(self, fs: Arc<MemFs>) -> DurableDataset {
        let loaded = load_ntriples(SCHEMA).expect("schema parses");
        let (durable, _) = DurableDataset::create(
            loaded,
            self.program(),
            options(),
            "data",
            fs,
            CheckpointPolicy::manual(),
        )
        .expect("initial snapshot");
        self.gate(durable.dataset());
        durable
    }

    fn open(self, view: DurableView) -> Result<(DurableDataset, RecoveryReport), DurableError> {
        let (recovered, report) = DurableDataset::open(
            "data",
            self.program(),
            options(),
            Arc::new(MemFs::from_view(view)),
            CheckpointPolicy::manual(),
        )?;
        self.gate(recovered.dataset());
        Ok((recovered, report))
    }
}

fn mirror() -> ServingDataset {
    PLAIN.mirror()
}

/// The log segment whose records start at `first`.
fn segment(first: u64) -> PathBuf {
    Path::new("data").join(segment_file_name(first))
}

fn boot(fs: Arc<MemFs>) -> DurableDataset {
    PLAIN.boot(fs)
}

/// Applies one batch to the durable dataset and to its in-memory mirror.
/// Both run the same pipeline, so they accept or refuse together; a refusal
/// (only a shape gate refuses these batches) must leave the log untouched.
fn apply(
    scenario: Scenario,
    durable: &DurableDataset,
    reference: &ServingDataset,
    kind: WriteKind,
    batch: &str,
) {
    let logged = durable.status();
    let live = durable.write_ntriples(kind, batch);
    let mirrored = reference.write_ntriples(kind, batch, || Ok(()));
    match (&live, &mirrored) {
        (Ok(live), Ok(mirrored)) => {
            assert_eq!(
                (live.epoch, live.triples),
                (mirrored.epoch, mirrored.triples)
            );
        }
        (Err(_), Err(_)) => {
            assert!(scenario.shapes.is_some(), "{scenario:?}: {live:?}");
            assert_eq!(durable.status(), logged, "a refused write was logged");
        }
        _ => panic!("{scenario:?}: durable {live:?}, mirror {mirrored:?}"),
    }
}

/// Canonical bytes of a dataset's entire logical state: dictionary, base
/// slot layout, materialized slot layout, epoch — exactly what the
/// snapshot format captures. Two datasets with equal fingerprints are
/// indistinguishable to every reader.
fn fingerprint(dataset: &ServingDataset) -> Vec<u8> {
    let (dictionary, base, snapshot) = dataset.persistable_state();
    encode_image(
        &dictionary,
        &base,
        snapshot.store(),
        snapshot.epoch(),
        0,
        "fingerprint",
    )
}

/// Recovers from a crash image and asserts byte-identity with `expected`.
fn assert_recovers_to(view: DurableView, expected: &[u8], context: &str) {
    assert_recovers_under(PLAIN, view, expected, context);
}

fn assert_recovers_under(scenario: Scenario, view: DurableView, expected: &[u8], context: &str) {
    let (recovered, _report) = scenario
        .open(view)
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    assert_eq!(
        fingerprint(recovered.dataset()),
        expected,
        "{context}: recovered state differs from the acknowledged history"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The headline property: crash after **every** acknowledged batch
    /// (including crashes landing right after a checkpoint wrote its image
    /// and truncated the log) and recover; the rebuilt dataset is
    /// byte-identical to an in-memory reference that applied the same
    /// acknowledged prefix.
    #[test]
    fn crash_after_every_batch_recovers_byte_identically(ops in arbitrary_ops()) {
        for scenario in SCENARIOS {
            let fs = Arc::new(MemFs::new());
            let durable = scenario.boot(Arc::clone(&fs));
            let reference = scenario.mirror();

            // Crash point 0: nothing but the initial checkpoint.
            assert_recovers_under(
                scenario,
                fs.durable_view(),
                &fingerprint(&reference),
                "after create",
            );

            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Assert(batch) => {
                        apply(scenario, &durable, &reference, WriteKind::Assert, batch);
                    }
                    Op::Retract(batch) => {
                        apply(scenario, &durable, &reference, WriteKind::Retract, batch);
                    }
                    Op::Checkpoint => {
                        durable.checkpoint().expect("checkpoint");
                    }
                }
                // The live dataset never drifts from the reference…
                prop_assert_eq!(fingerprint(durable.dataset()), fingerprint(&reference));
                // …and neither does a recovery from a crash right here.
                assert_recovers_under(
                    scenario,
                    fs.durable_view(),
                    &fingerprint(&reference),
                    &format!("{scenario:?} after step {step} ({op:?})"),
                );
            }
        }
    }

    /// Replay is idempotent: recovering, then recovering again from the
    /// recovered dataset's own durable state, changes nothing.
    #[test]
    fn recovery_is_idempotent(ops in arbitrary_ops()) {
        for scenario in SCENARIOS {
            let fs = Arc::new(MemFs::new());
            let durable = scenario.boot(Arc::clone(&fs));
            for op in &ops {
                // A gate may refuse a batch; what it acknowledged is the history.
                match op {
                    Op::Assert(batch) => { let _ = durable.extend_ntriples(batch); }
                    Op::Retract(batch) => { let _ = durable.retract_ntriples(batch); }
                    Op::Checkpoint => { durable.checkpoint().expect("checkpoint"); }
                }
            }
            let view = fs.durable_view();
            let (first, _) = scenario.open(view.clone()).expect("recovery");
            let (second, _) = scenario.open(view.clone()).expect("recovery");
            prop_assert_eq!(fingerprint(first.dataset()), fingerprint(second.dataset()));
            prop_assert_eq!(fingerprint(first.dataset()), fingerprint(durable.dataset()));

            // A directory reopens only under the program that created it.
            let other = if scenario.rules.is_some() { PLAIN } else { RULES };
            prop_assert!(matches!(
                other.open(view),
                Err(DurableError::FragmentMismatch { .. })
            ));
        }
    }
}

/// The gate runs before the log: a write the shapes refuse — assert or
/// retraction — appends nothing, degrades nothing, and is not there to be
/// replayed; the writes around it recover as acknowledged.
#[test]
fn a_refused_write_is_never_logged_and_never_replayed() {
    let fs = Arc::new(MemFs::new());
    let durable = GATED.boot(Arc::clone(&fs));
    let reference = GATED.mirror();
    let refused = |result: Result<_, DurableError>| {
        let logged = durable.status();
        assert!(matches!(result, Err(DurableError::Rejected { .. })));
        assert_eq!(durable.status(), logged);
        assert!(!durable.is_read_only());
    };

    // `i1 a c3` alone leaves i1 with one type: refused.
    refused(durable.extend_ntriples(&type_triple(1, 3)).map(|_| ()));
    // Grounded in c2 first, the same assert is fine.
    for class in [2, 3] {
        let outcome = durable
            .extend_ntriples(&type_triple(1, class))
            .expect("assert");
        reference
            .extend_ntriples(&type_triple(1, class))
            .expect("assert");
        assert_eq!(outcome.epoch, u64::from(class) - 1);
    }
    // Dropping the grounding would strand `i1 a c3`: refused, and so is a
    // document the parser rejects.
    refused(durable.retract_ntriples(&type_triple(1, 2)).map(|_| ()));
    refused(durable.extend_ntriples("<broken").map(|_| ()));
    assert_eq!(durable.status().wal_records, 2);
    assert_eq!(
        durable
            .dataset()
            .validation_status()
            .unwrap()
            .counters
            .rejected,
        2
    );

    assert_eq!(fingerprint(durable.dataset()), fingerprint(&reference));
    let (recovered, report) = GATED.open(fs.durable_view()).expect("recovery");
    assert_eq!(report.replayed_records, 2);
    assert_eq!(fingerprint(recovered.dataset()), fingerprint(&reference));
    // The recovered gate is armed: the same retraction is still refused.
    assert!(matches!(
        recovered.retract_ntriples(&type_triple(1, 2)),
        Err(DurableError::Rejected { .. })
    ));
}

/// A torn tail record — the WAL cut at **every** byte offset, as a torn
/// append or a partially persisted sector would leave it — never blocks
/// recovery, and recovery lands exactly on the state after the last record
/// that survived in full.
#[test]
fn torn_wal_tail_recovers_the_longest_complete_prefix_at_every_cut() {
    let fs = Arc::new(MemFs::new());
    let durable = boot(Arc::clone(&fs));
    let reference = mirror();

    // States[k] = fingerprint after k acknowledged batches.
    let mut states = vec![fingerprint(&reference)];
    for step in 0..4u8 {
        let batch = type_triple(step, 3) + &type_triple(step, step % 3);
        durable.extend_ntriples(&batch).expect("assert");
        reference.extend_ntriples(&batch).expect("assert");
        states.push(fingerprint(&reference));
    }

    let view = fs.durable_view();
    let wal_path = segment(1);
    let full_wal = view.get(&wal_path).expect("WAL exists").clone();
    assert_eq!(wal::scan(&full_wal).records.len(), 4);

    for cut in 0..=full_wal.len() {
        let mut torn = view.clone();
        torn.insert(wal_path.clone(), full_wal[..cut].to_vec());
        let complete = wal::scan(&full_wal[..cut]).records.len();
        assert_recovers_to(torn, &states[complete], &format!("WAL cut at byte {cut}"));
    }
}

/// A checkpoint leaves the segment before its seal in place while the image
/// before it is kept, so the newest image *and* the log both cover the
/// same writes. The sequence-number guard must skip every already-covered
/// record instead of applying it twice.
#[test]
fn stale_wal_records_after_a_checkpoint_are_skipped_not_replayed() {
    let fs = Arc::new(MemFs::new());
    let durable = boot(Arc::clone(&fs));
    for step in 0..3u8 {
        durable
            .extend_ntriples(&type_triple(step, 2))
            .expect("assert");
    }
    let before_checkpoint = fs.durable_view();
    durable.checkpoint().expect("checkpoint");
    let after_checkpoint = fs.durable_view();

    // The crash image: the post-checkpoint files, with the sealed segment
    // as it was before the checkpoint — a seal rewrites none of its bytes.
    let wal_path = segment(1);
    let mut crash = after_checkpoint;
    crash.insert(
        wal_path.clone(),
        before_checkpoint.get(&wal_path).expect("WAL").clone(),
    );

    let (recovered, report) = DurableDataset::open(
        "data",
        FRAGMENT,
        options(),
        Arc::new(MemFs::from_view(crash)),
        CheckpointPolicy::manual(),
    )
    .expect("recovery");
    assert_eq!(report.replayed_records, 0);
    assert_eq!(report.skipped_records, 3);
    assert_eq!(
        fingerprint(recovered.dataset()),
        fingerprint(durable.dataset())
    );
}

/// Bit rot anywhere in the newest image is detected by a checksum and
/// recovery falls back to the previous image — and, because a segment goes
/// only once every kept image covers it, replays from there the records
/// the newer image covered: it lands on the last acknowledged write, not on
/// an older epoch.
#[test]
fn corruption_anywhere_in_the_newest_image_falls_back_to_the_previous_one() {
    let fs = Arc::new(MemFs::new());
    let durable = boot(Arc::clone(&fs));
    durable.extend_ntriples(&type_triple(1, 1)).expect("assert");
    durable.checkpoint().expect("checkpoint");
    let live_state = fingerprint(durable.dataset());

    let view = fs.durable_view();
    let newest = view
        .keys()
        .filter(|p| p.to_string_lossy().contains("snapshot-"))
        .max()
        .expect("two images on disk")
        .clone();
    let image_len = view.get(&newest).expect("image").len();

    // Flip a byte at offsets spanning the magic, the header, and every
    // section; a CRC (or a length check) must catch each one.
    for offset in (0..image_len).step_by(7) {
        let mut corrupt = view.clone();
        corrupt.get_mut(&newest).expect("image")[offset] ^= 0x40;
        let (recovered, report) = DurableDataset::open(
            "data",
            FRAGMENT,
            options(),
            Arc::new(MemFs::from_view(corrupt)),
            CheckpointPolicy::manual(),
        )
        .unwrap_or_else(|e| panic!("corrupt byte {offset}: recovery failed: {e}"));
        assert_eq!(report.invalid_snapshots, 1, "corrupt byte {offset}");
        assert_eq!(report.snapshot_epoch, 0, "corrupt byte {offset}");
        assert_eq!(
            fingerprint(recovered.dataset()),
            live_state,
            "corrupt byte {offset}"
        );
    }
}

/// A rotten newest image must not turn into a state that never existed.
/// The history: assert A (record 1), checkpoint (image at epoch 1), assert
/// B (record 2), then the epoch-1 image rots. Recovery falls back to the
/// epoch-0 image and must replay *both* records — A from the segment the
/// checkpoint sealed, which the older image still needs — landing on the
/// live state at epoch 2. Without that segment, record 1 is missing, and
/// recovery refuses rather than serve epoch 1 as base + B.
#[test]
fn a_rotten_newest_image_recovers_every_acknowledged_write_or_refuses() {
    let fs = Arc::new(MemFs::new());
    let durable = boot(Arc::clone(&fs));
    durable
        .extend_ntriples(&type_triple(1, 1))
        .expect("assert A");
    let newest = durable.checkpoint().expect("checkpoint");
    durable
        .extend_ntriples(&type_triple(2, 2))
        .expect("assert B");
    let mut view = fs.durable_view();
    let image = view.get_mut(&newest).expect("the epoch-1 image");
    let middle = image.len() / 2;
    image[middle] ^= 0x40;

    let (recovered, report) = PLAIN.open(view.clone()).expect("recovery");
    assert_eq!((report.snapshot_epoch, report.invalid_snapshots), (0, 1));
    assert_eq!((report.replayed_records, report.epoch), (2, 2));
    assert_eq!(
        fingerprint(recovered.dataset()),
        fingerprint(durable.dataset())
    );

    view.remove(&segment(1))
        .expect("the segment the seal closed");
    let refused = PLAIN.open(view).map(|_| ()).unwrap_err();
    assert!(
        matches!(&refused, DurableError::Corrupt { message } if message.contains("1..=1")),
        "{refused}"
    );
}

fn http_post(addr: SocketAddr, target: &str, body: &str) -> String {
    http(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// End-to-end graceful degradation: a WAL fsync failure flips the serving
/// endpoint to read-only — `POST /update` answers `503` with `Retry-After`,
/// `/status` reports the degradation, and reads keep answering from the
/// last published epoch.
#[test]
fn wal_failure_degrades_the_http_endpoint_to_read_only() {
    let fs = Arc::new(MemFs::new());
    let durable = Arc::new(boot(Arc::clone(&fs)));
    let sink = ServingUpdateSink::durable(Arc::clone(&durable));
    let dataset = Arc::clone(durable.dataset());
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

    // Healthy: a WAL-protected assert publishes a new epoch.
    let response = http_post(addr, "/update?action=assert", &type_triple(1, 1));
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"epoch\":1"), "{response}");

    // The next fsync fails: that write is refused, nothing publishes, and
    // the dataset degrades to read-only.
    fs.inject(Fault::FailSync);
    let response = http_post(addr, "/update?action=assert", &type_triple(2, 2));
    assert!(
        response.starts_with("HTTP/1.1 503"),
        "expected 503, got: {response}"
    );
    assert!(response.contains("Retry-After: 30"), "{response}");
    assert!(response.contains("read-only"), "{response}");

    // Degradation is permanent until an operator intervenes…
    let response = http_post(addr, "/update?action=retract", &type_triple(1, 1));
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(matches!(
        durable.extend_ntriples(&type_triple(3, 3)),
        Err(DurableError::ReadOnly { .. })
    ));

    // …/status says so…
    let response = http(addr, "GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(response.contains("\"read_only\":true"), "{response}");
    assert!(response.contains("\"epoch\":1"), "{response}");

    // …and reads still serve the last published epoch (the acknowledged
    // assert, including its inferred superclass types; the refused one is
    // absent).
    let query = "SELECT%20?c%20WHERE%20%7B%20%3Chttp://ex/i1%3E%20a%20?c%20%7D";
    let response = http(
        addr,
        &format!("GET /sparql?query={query} HTTP/1.1\r\nHost: t\r\n\r\n"),
    );
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("http://ex/c1"), "{response}");
    assert!(response.contains("http://ex/c3"), "{response}");
    assert!(!response.contains("http://ex/i2"), "{response}");

    // The crash image still recovers to exactly the acknowledged epoch.
    let (recovered, _) = DurableDataset::open(
        "data",
        FRAGMENT,
        options(),
        Arc::new(MemFs::from_view(fs.durable_view())),
        CheckpointPolicy::manual(),
    )
    .expect("recovery");
    assert_eq!(recovered.dataset().epoch(), 1);
}

/// A body that is not UTF-8 is refused outright — `400`, positioned — on an
/// in-memory and on a durable endpoint alike. Decoding it lossily would put
/// U+FFFD inside a literal: a document that parses, and a triple nobody
/// sent in the WAL. The two endpoints answer it, and a UTF-8 body that does
/// not parse, with the same bytes.
#[test]
fn an_update_body_that_is_not_utf8_is_refused_and_never_logged() {
    let fs = Arc::new(MemFs::new());
    let durable = Arc::new(boot(Arc::clone(&fs)));
    let in_memory = Arc::new(mirror());
    let mut body = b"<http://ex/i1> <http://ex/label> \"caf".to_vec();
    let bad_at = body.len();
    body.push(0xE9); // Latin-1 é: not a valid UTF-8 sequence before `"`
    body.extend_from_slice(b"\" .\n");
    // UTF-8, but not N-Triples: the literal is never closed.
    let broken = b"<http://ex/i1> <http://ex/label> \"open .\n".to_vec();

    let mut answers = Vec::new();
    for sink in [
        ServingUpdateSink::durable(Arc::clone(&durable)),
        ServingUpdateSink::new(Arc::clone(&in_memory)),
    ] {
        let dataset = Arc::clone(durable.dataset());
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
        let mut responses = Vec::new();
        for payload in [&body, &broken] {
            for action in ["assert", "retract"] {
                let mut request = format!(
                    "POST /update?action={action} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                     Content-Length: {}\r\n\r\n",
                    payload.len()
                )
                .into_bytes();
                request.extend_from_slice(payload);
                let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
                stream.write_all(&request).expect("send");
                let mut response = String::new();
                stream.read_to_string(&mut response).expect("read");
                assert!(response.starts_with("HTTP/1.1 400"), "{response}");
                if payload == &body {
                    assert!(
                        response
                            .contains(&format!("not valid UTF-8: invalid byte at offset {bad_at}")),
                        "{response}"
                    );
                }
                responses.push(response);
            }
        }
        server.shutdown();
        answers.push(responses);
    }
    // `serve` and `serve --data-dir` refuse a body in the same words.
    assert_eq!(answers[0], answers[1]);
    assert_eq!(durable.status().wal_records, 0);
    assert_eq!(durable.dataset().epoch(), 0);
    assert_eq!(in_memory.epoch(), 0);
    assert_eq!(fs.durable_view()[&segment(1)], b"");
}

/// A torn append (power loss mid-`write(2)`) leaves a prefix of the record
/// on disk. The writer sees an error and refuses the batch; recovery from
/// the crash image discards the torn tail and truncates it so the repaired
/// log accepts new appends cleanly.
#[test]
fn torn_append_is_refused_live_and_healed_on_recovery() {
    let fs = Arc::new(MemFs::new());
    let durable = boot(Arc::clone(&fs));
    durable
        .extend_ntriples(&type_triple(0, 1))
        .expect("healthy assert");
    let epoch_before = durable.dataset().epoch();

    fs.inject(Fault::TornAppend { keep: 5 });
    let err = durable
        .extend_ntriples(&type_triple(1, 2))
        .expect_err("torn append must be refused");
    assert!(matches!(err, DurableError::ReadOnly { .. }));
    assert_eq!(durable.dataset().epoch(), epoch_before);

    // The crash image holds one complete record plus 5 bytes of garbage.
    let view = fs.durable_view();
    let wal_bytes = view.get(&segment(1)).expect("WAL");
    let scan = wal::scan(wal_bytes);
    assert_eq!(scan.records.len(), 1);
    assert!(scan.torn_tail);

    let (recovered, report) = DurableDataset::open(
        "data",
        FRAGMENT,
        options(),
        Arc::new(MemFs::from_view(view)),
        CheckpointPolicy::manual(),
    )
    .expect("recovery");
    assert_eq!(report.replayed_records, 1);
    assert_eq!(report.torn_tail_bytes, 5);
    assert_eq!(recovered.dataset().epoch(), epoch_before);

    // The healed log keeps working: a new write on the recovered dataset
    // appends after the repaired tail and survives the next recovery.
    recovered
        .extend_ntriples(&type_triple(2, 2))
        .expect("write after heal");
    assert!(!recovered.is_read_only());
}
