//! Crash recovery while a threshold checkpoint is under way
//! (docs/persistence.md, "A checkpoint has two halves").
//!
//! `tests/crash_recovery.rs` runs its histories under
//! `CheckpointPolicy::manual()`, where a checkpoint is one synchronous call.
//! Here the policy is a record limit, so the write that crosses it seals the
//! log and hands the image to a thread, and the histories carry faults on
//! both halves: the seal's atomic write and the image's. [`MemFs::hold`]
//! pins the image write, so every threshold gets a power cut *before* its
//! image is durable and one *after*, and both must recover to exactly what
//! an in-memory reference holds after the same acknowledged writes.

use inferray::parser::load_ntriples;
use inferray::persist::{
    encode_image, parse_segment_file_name, wal, DurableView, Fault, IoBackend, MemFs,
};
use inferray::{
    CheckpointPolicy, DurableDataset, Fragment, InferrayOptions, ServingDataset, WriteKind,
};
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

const FRAGMENT: Fragment = Fragment::RdfsDefault;

const SCHEMA: &str = "\
<http://ex/c0> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/c1> .\n\
<http://ex/c1> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/c2> .\n\
<http://ex/i0> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/c0> .\n";

/// What goes wrong around one write.
#[derive(Clone, Copy, Debug)]
enum Mishap {
    None,
    /// An atomic write fails before the write: the seal's, if this write
    /// crosses the threshold (otherwise the fault waits for the next one).
    Seal,
    /// An atomic write fails once the log is sealed: the image's.
    Image,
}

#[derive(Clone, Debug)]
struct Step {
    kind: WriteKind,
    batch: String,
    mishap: Mishap,
}

fn arbitrary_steps() -> impl Strategy<Value = Vec<Step>> {
    let batch = prop::collection::vec((0u8..4, 0u8..3), 1..3).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(i, c)| {
                format!(
                    "<http://ex/i{i}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                     <http://ex/c{c}> .\n"
                )
            })
            .collect::<String>()
    });
    let kind = prop_oneof![Just(WriteKind::Assert), Just(WriteKind::Retract)];
    let mishap = prop_oneof![
        Just(Mishap::None),
        Just(Mishap::None),
        Just(Mishap::None),
        Just(Mishap::Seal),
        Just(Mishap::Image),
    ];
    prop::collection::vec(
        (kind, batch, mishap).prop_map(|(kind, batch, mishap)| Step {
            kind,
            batch,
            mishap,
        }),
        1..12,
    )
}

fn boot(fs: Arc<MemFs>, limit: u64) -> DurableDataset {
    let (durable, _) = DurableDataset::create(
        load_ntriples(SCHEMA).expect("schema parses"),
        FRAGMENT,
        InferrayOptions::default(),
        "data",
        fs,
        CheckpointPolicy {
            wal_record_limit: Some(limit),
            wal_byte_limit: None,
            snapshots_to_keep: 2,
        },
    )
    .expect("initial snapshot");
    durable
}

fn mirror() -> ServingDataset {
    let loaded = load_ntriples(SCHEMA).expect("schema parses");
    ServingDataset::materialize_program(loaded, FRAGMENT, InferrayOptions::default())
        .expect("a fragment always loads")
        .0
}

/// Dictionary, base, materialized store and epoch as the image encoder
/// lays them out: equal bytes, equal datasets.
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

fn recovered(view: DurableView) -> DurableDataset {
    DurableDataset::open(
        "data",
        FRAGMENT,
        InferrayOptions::default(),
        Arc::new(MemFs::from_view(view)),
        CheckpointPolicy::manual(),
    )
    .expect("recovery")
    .0
}

/// Each log segment on disk, oldest first: the first record it may hold
/// and how many it holds.
fn segments(fs: &MemFs) -> Vec<(u64, usize)> {
    let files = fs.list(Path::new("data")).expect("a listing");
    files
        .into_iter()
        .filter_map(|path| {
            let first = parse_segment_file_name(path.file_name()?.to_str()?)?;
            Some((first, wal::scan(&fs.raw(&path)?).records.len()))
        })
        .collect()
}

/// Records in the newest segment: the one writes append to.
fn newest_records(fs: &MemFs) -> usize {
    segments(fs).last().map_or(0, |segment| segment.1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_power_cut_before_and_after_every_image_recovers_byte_identically(
        steps in arbitrary_steps(),
        limit in 1u64..4,
    ) {
        let fs = Arc::new(MemFs::new());
        let durable = boot(Arc::clone(&fs), limit);
        let reference = mirror();
        fs.hold("img");

        for (index, step) in steps.iter().enumerate() {
            if matches!(step.mishap, Mishap::Seal) {
                fs.inject(Fault::FailAtomicWrite);
            }
            let live = durable.write_ntriples(step.kind, &step.batch).expect("no gate, no refusal");
            let mirrored = reference
                .write_ntriples(step.kind, &step.batch, || Ok(()))
                .expect("no gate, no refusal");
            prop_assert_eq!((live.epoch, live.triples), (mirrored.epoch, mirrored.triples));
            let expected = fingerprint(&reference);
            prop_assert_eq!(&fingerprint(durable.dataset()), &expected);

            // Power cut with the image (if this write began one) not durable.
            let status = durable.status();
            prop_assert_eq!(status.wal_records as usize, newest_records(&fs));
            prop_assert_eq!(
                fingerprint(recovered(fs.durable_view()).dataset()),
                expected.clone(),
                "step {} ({:?}), image held; segments {:?}",
                index, step, segments(&fs)
            );

            // Let the image through — or fail it — and cut the power again.
            if matches!(step.mishap, Mishap::Image) {
                fs.inject(Fault::FailAtomicWrite);
            }
            fs.release();
            durable.wait_for_checkpoint();
            fs.hold("img");
            let status = durable.status();
            prop_assert!(!status.read_only);
            prop_assert!(status.last_checkpoint_seq <= status.last_seq);
            prop_assert_eq!(
                fingerprint(recovered(fs.durable_view()).dataset()),
                expected,
                "step {} ({:?}), image settled: {:?}",
                index, step, status
            );
        }
        fs.release();

        // Once the queued faults are used up, a checkpoint leaves an image
        // that recovery replays no record on top of.
        let used_up = (0..=2 * steps.len()).any(|_| durable.checkpoint().is_ok());
        prop_assert!(used_up);
        let (back, report) = DurableDataset::open(
            "data",
            FRAGMENT,
            InferrayOptions::default(),
            Arc::new(MemFs::from_view(fs.durable_view())),
            CheckpointPolicy::manual(),
        )
        .expect("recovery");
        prop_assert_eq!(report.replayed_records, 0);
        prop_assert_eq!(fingerprint(back.dataset()), fingerprint(&reference));
    }
}

/// Writes keep being acknowledged, and stay durable, while an image is
/// being written; the status counts the live segment from the moment the
/// log was sealed.
#[test]
fn writes_beside_an_image_in_flight_are_acknowledged_and_recovered() {
    let fs = Arc::new(MemFs::new());
    let durable = boot(Arc::clone(&fs), 3);
    let reference = mirror();
    let batch = |n: u8| {
        format!(
            "<http://ex/i{n}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/c0> .\n"
        )
    };
    fs.hold("img");
    for n in 1..=5u8 {
        durable.extend_ntriples(&batch(n)).expect("assert");
        reference.extend_ntriples(&batch(n)).expect("assert");
    }
    // Three records sealed at the threshold, two written since.
    let status = durable.status();
    assert_eq!((status.wal_records, status.last_seq), (2, 5));
    assert_eq!(status.last_checkpoint_seq, 0);
    assert_eq!(segments(&fs), [(1, 3), (4, 2)]);
    let expected = fingerprint(&reference);
    assert_eq!(
        fingerprint(recovered(fs.durable_view()).dataset()),
        expected
    );

    // The sixth record crosses the threshold again, and that write waits
    // for the first image (one at a time): release it once the record is
    // in the log, which is the last thing the write does before it waits.
    std::thread::scope(|scope| {
        let crossing = scope.spawn(|| durable.extend_ntriples(&batch(6)).expect("assert"));
        while newest_records(&fs) < 3 {
            std::thread::yield_now();
        }
        fs.release();
        crossing.join().expect("the crossing write");
    });
    reference.extend_ntriples(&batch(6)).expect("assert");
    durable.wait_for_checkpoint();
    let status = durable.status();
    assert_eq!(
        (
            status.last_checkpoint_seq,
            status.wal_records,
            status.last_seq
        ),
        (6, 0, 6)
    );
    // The two kept images cover the first segment, not the second.
    assert_eq!(segments(&fs), [(4, 3), (7, 0)]);
    assert_eq!(
        fingerprint(recovered(fs.durable_view()).dataset()),
        fingerprint(&reference)
    );
}
