//! Delta checkpoint images (docs/persistence.md, "Delta images").
//!
//! Once a full image is durable, a checkpoint writes only what changed
//! since: the terms the dictionary appended and the tables that are no
//! longer the very allocations the full image captured. The laws here:
//!
//! - recovery from full + delta + log equals the live dataset — dictionary,
//!   explicit base, materialized store and epoch, under `PartialEq` — over
//!   seeded histories of asserts and retracts, of known and new terms, with
//!   promotions, checkpoints and restarts at random points;
//! - a delta carries exactly the slots whose table identity differs from
//!   its base's, and the terms appended since;
//! - a delta whose base is missing, damaged or another image of the same
//!   epoch does not recover, and recovery falls back past it;
//! - a power cut, or a failed operation, at each step of a delta
//!   checkpoint recovers to the last acknowledged write.

use inferray::parser::load_ntriples;
use inferray::persist::{
    decode_image, encode_image, snapshot_file_name, DurableView, Fill, ImageKind, IoBackend, MemFs,
    RecoveryReport,
};
use inferray::{
    vocab, CheckpointPolicy, DurableDataset, DurableError, Fragment, IdTriple, InferrayOptions,
    WriteKind,
};
use proptest::prelude::*;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const FRAGMENT: Fragment = Fragment::RdfsDefault;

const SCHEMA: &str = "\
<http://ex/c0> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/c1> .\n\
<http://ex/c1> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/c2> .\n\
<http://ex/p0> <http://www.w3.org/2000/01/rdf-schema#domain> <http://ex/c0> .\n\
<http://ex/i0> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/c0> .\n\
<http://ex/i1> <http://ex/p0> <http://ex/i2> .\n\
<http://ex/i2> <http://ex/p1> \"v\" .\n\
<http://ex/i3> <http://ex/p1> <http://ex/r0> .\n";

/// One triple over a small universe: known and new subjects and objects,
/// predicates that exist, and resources used as predicates (promotions:
/// `r0` and `i3` are resources of the schema, `n1` may have become one).
fn triple(s: u8, p: u8, o: u8) -> String {
    let subject = match s {
        0..=3 => format!("<http://ex/i{s}>"),
        _ => format!("<http://ex/n{}>", s - 4),
    };
    let predicate = match p {
        0 => "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>".to_owned(),
        1 => "<http://ex/p0>".to_owned(),
        2 => "<http://ex/p1>".to_owned(),
        3 => "<http://ex/r0>".to_owned(),
        4 => "<http://ex/i3>".to_owned(),
        _ => "<http://ex/n1>".to_owned(),
    };
    let object = match o {
        0..=2 => format!("<http://ex/c{o}>"),
        3..=5 => format!("<http://ex/i{}>", o - 3),
        6..=7 => format!("<http://ex/n{}>", o - 6),
        _ => format!("\"w{o}\""),
    };
    format!("{subject} {predicate} {object} .\n")
}

#[derive(Clone, Debug)]
enum Step {
    Write(WriteKind, String),
    Checkpoint,
    /// Recover from what is on disk and go on from there.
    Reopen,
}

fn arbitrary_steps() -> impl Strategy<Value = Vec<Step>> {
    let batch = prop::collection::vec((0u8..7, 0u8..6, 0u8..10), 1..4).prop_map(|triples| {
        triples
            .into_iter()
            .map(|(s, p, o)| triple(s, p, o))
            .collect::<String>()
    });
    prop::collection::vec(
        prop_oneof![
            batch
                .clone()
                .prop_map(|b| Step::Write(WriteKind::Assert, b)),
            batch
                .clone()
                .prop_map(|b| Step::Write(WriteKind::Assert, b)),
            batch.prop_map(|b| Step::Write(WriteKind::Retract, b)),
            Just(Step::Checkpoint),
            Just(Step::Checkpoint),
            Just(Step::Reopen),
        ],
        1..14,
    )
}

fn policy(keep: usize) -> CheckpointPolicy {
    CheckpointPolicy {
        snapshots_to_keep: keep,
        ..CheckpointPolicy::manual()
    }
}

fn create(backend: Arc<dyn IoBackend>, keep: usize) -> DurableDataset {
    DurableDataset::create(
        load_ntriples(SCHEMA).expect("schema parses"),
        FRAGMENT,
        InferrayOptions::default(),
        "data",
        backend,
        policy(keep),
    )
    .expect("initial snapshot")
    .0
}

fn open(view: DurableView, keep: usize) -> Result<(DurableDataset, RecoveryReport), DurableError> {
    DurableDataset::open(
        "data",
        FRAGMENT,
        InferrayOptions::default(),
        Arc::new(MemFs::from_view(view)),
        policy(keep),
    )
}

/// Dictionary, explicit base, materialized store and epoch are equal.
fn assert_same_state(live: &DurableDataset, recovered: &DurableDataset, when: &str) {
    let (dictionary, base, snapshot) = live.dataset().persistable_state();
    let (back_dictionary, back_base, back_snapshot) = recovered.dataset().persistable_state();
    assert_eq!(snapshot.epoch(), back_snapshot.epoch(), "{when}: epoch");
    assert_eq!(*dictionary, *back_dictionary, "{when}: dictionary");
    assert_eq!(base, back_base, "{when}: base");
    assert_eq!(snapshot.store(), back_snapshot.store(), "{when}: store");
}

/// The slot markers of a delta image's two store sections, and its
/// dictionary counts (base properties, base resources, appended
/// properties, appended resources): the layout of `snapshot.rs`, read
/// independently.
struct DeltaLayout {
    counts: [u64; 4],
    base: Vec<u8>,
    materialized: Vec<u8>,
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn delta_layout(bytes: &[u8]) -> DeltaLayout {
    assert_eq!(&bytes[..8], b"IFRYIMG2");
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut at = 16 + header_len;
    let mut payloads = Vec::new();
    for tag in [b"DICT", b"BASE", b"MATL"] {
        assert_eq!(&bytes[at..at + 4], tag);
        let len = u64_at(bytes, at + 4) as usize;
        payloads.push(&bytes[at + 16..at + 16 + len]);
        at += 16 + len;
    }
    assert_eq!(at, bytes.len());
    let dict = payloads[0];
    let counts = [0, 1, 2, 3].map(|i| u64_at(dict, 8 * i));
    let markers = |store: &[u8]| {
        let mut markers = Vec::new();
        let mut at = 8;
        for _ in 0..u64_at(store, 0) {
            let marker = store[at];
            at += 1;
            if marker == 1 {
                at += 8 + 8 * u64_at(store, at) as usize;
            }
            markers.push(marker);
        }
        assert_eq!(at, store.len());
        markers
    };
    DeltaLayout {
        counts,
        base: markers(payloads[1]),
        materialized: markers(payloads[2]),
    }
}

/// What a full image captured, held strongly so that "the same pointer"
/// stays "the same table" for the test's own comparison.
type Captured = (
    Arc<inferray::dictionary::Dictionary>,
    inferray::store::TripleStore,
    inferray::store::TripleStore,
);

fn capture(durable: &DurableDataset) -> Captured {
    let (dictionary, base, snapshot) = durable.dataset().persistable_state();
    (dictionary, base, snapshot.store().clone())
}

/// Marker 2 ("as in base") exactly where the table is the captured one,
/// 0 where there is no table, 1 elsewhere.
fn expected_markers(
    now: &inferray::store::TripleStore,
    then: &inferray::store::TripleStore,
) -> Vec<u8> {
    now.slot_tables()
        .iter()
        .enumerate()
        .map(|(index, slot)| match slot {
            None => 0,
            Some(table) => {
                let same = then
                    .slot_tables()
                    .get(index)
                    .and_then(Option::as_ref)
                    .is_some_and(|old| Arc::ptr_eq(old, table));
                if same {
                    2
                } else {
                    1
                }
            }
        })
        .collect()
}

fn check_delta(fs: &MemFs, durable: &DurableDataset, full: &Captured) {
    let status = durable.status();
    let path = status.snapshot_path.expect("a durable image");
    let layout = delta_layout(&fs.raw(&path).expect("the delta is on disk"));
    let (dictionary, base, materialized) = capture(durable);
    let (full_dictionary, full_base, full_materialized) = full;
    assert_eq!(
        layout.counts,
        [
            full_dictionary.num_properties() as u64,
            full_dictionary.num_resources() as u64,
            (dictionary.num_properties() - full_dictionary.num_properties()) as u64,
            (dictionary.num_resources() - full_dictionary.num_resources()) as u64,
        ]
    );
    assert_eq!(layout.base, expected_markers(&base, full_base));
    assert_eq!(
        layout.materialized,
        expected_markers(&materialized, full_materialized)
    );
}

proptest! {
    #[test]
    fn full_plus_delta_plus_log_recovers_the_live_dataset(
        steps in arbitrary_steps(),
        keep in 1usize..3,
    ) {
        let mut fs = Arc::new(MemFs::new());
        let mut durable = create(Arc::clone(&fs) as Arc<dyn IoBackend>, keep);
        let mut full = capture(&durable);
        for (index, step) in steps.iter().enumerate() {
            match step {
                Step::Write(kind, batch) => {
                    durable.write_ntriples(*kind, batch).expect("no gate, no refusal");
                }
                Step::Checkpoint => {
                    durable.checkpoint().expect("checkpoint");
                    let status = durable.status();
                    match status.last_image_kind {
                        ImageKind::Full => {
                            prop_assert_eq!(status.image_base_epoch, status.snapshot_epoch);
                            full = capture(&durable);
                        }
                        ImageKind::Delta => {
                            let base_path = Path::new("data")
                                .join(snapshot_file_name(status.image_base_epoch));
                            prop_assert!(fs.durable_view().contains_key(&base_path));
                            check_delta(&fs, &durable, &full);
                        }
                    }
                    let (recovered, report) = open(fs.durable_view(), keep).expect("recovery");
                    prop_assert_eq!(report.replayed_records, 0);
                    prop_assert_eq!(
                        report.base_path.is_some(),
                        status.last_image_kind == ImageKind::Delta
                    );
                    assert_same_state(&durable, &recovered, &format!("step {index}"));
                }
                Step::Reopen => {
                    let reopened = Arc::new(MemFs::from_view(fs.durable_view()));
                    let (recovered, _) = DurableDataset::open(
                        "data",
                        FRAGMENT,
                        InferrayOptions::default(),
                        Arc::clone(&reopened) as Arc<dyn IoBackend>,
                        policy(keep),
                    )
                    .expect("recovery");
                    assert_same_state(&durable, &recovered, &format!("step {index}, reopened"));
                    drop(durable);
                    durable = recovered;
                    fs = reopened;
                    // The first checkpoint after a start is a full image.
                    durable.checkpoint().expect("checkpoint");
                    prop_assert_eq!(durable.status().last_image_kind, ImageKind::Full);
                    full = capture(&durable);
                }
            }
        }
        let (recovered, _) = open(fs.durable_view(), keep).expect("recovery");
        assert_same_state(&durable, &recovered, "at the end");
    }
}

#[test]
fn a_write_cycle_s_delta_carries_its_tables_and_its_new_terms_only() {
    let fs = Arc::new(MemFs::new());
    let durable = create(Arc::clone(&fs) as Arc<dyn IoBackend>, 2);
    let full = capture(&durable);
    let created = durable.status();
    durable
        .extend_ntriples(&triple(4, 1, 7))
        .expect("a new subject and object under p0");
    durable.checkpoint().expect("checkpoint");
    let status = durable.status();
    assert_eq!(status.last_image_kind, ImageKind::Delta);
    assert_eq!(status.image_base_epoch, created.snapshot_epoch);
    assert!(status.last_image_bytes < created.last_image_bytes);
    check_delta(&fs, &durable, &full);
    let layout = delta_layout(&fs.raw(status.snapshot_path.as_ref().unwrap()).unwrap());
    // Two terms appended; p0's base table, and p0's and rdf:type's
    // materialized tables (the domain rule types the new subject).
    assert_eq!(layout.counts[2..], [0, 2]);
    assert_eq!(layout.base.iter().filter(|&&m| m == 1).count(), 1);
    assert_eq!(layout.materialized.iter().filter(|&&m| m == 1).count(), 2);
}

#[test]
fn a_delta_past_a_quarter_of_its_base_is_written_as_a_full_image() {
    let fs = Arc::new(MemFs::new());
    let durable = create(Arc::clone(&fs) as Arc<dyn IoBackend>, 2);
    let created = durable.status().last_image_bytes;
    let many: String = (0..200)
        .map(|n| format!("<http://ex/m{n}> <http://ex/p1> \"{n}\" .\n"))
        .collect();
    durable.extend_ntriples(&many).expect("assert");
    durable.checkpoint().expect("checkpoint");
    let status = durable.status();
    assert_eq!(status.last_image_kind, ImageKind::Full);
    assert!(status.last_image_bytes > created);
    // The next delta builds on that image.
    durable.extend_ntriples(&triple(4, 1, 8)).expect("assert");
    durable.checkpoint().expect("checkpoint");
    let next = durable.status();
    assert_eq!(
        (next.last_image_kind, next.image_base_epoch),
        (ImageKind::Delta, status.snapshot_epoch)
    );
    assert_same_state(&durable, &open(fs.durable_view(), 2).unwrap().0, "delta");
}

#[test]
fn a_checkpoint_at_its_base_s_epoch_is_a_full_image() {
    let fs = Arc::new(MemFs::new());
    let durable = create(Arc::clone(&fs) as Arc<dyn IoBackend>, 2);
    // A retraction of a triple nobody asserted is logged but publishes
    // nothing: same epoch, later sequence number.
    durable
        .retract_ntriples(&triple(4, 1, 7))
        .expect("a retraction that removes nothing");
    durable.checkpoint().expect("checkpoint");
    let status = durable.status();
    assert_eq!(status.last_image_kind, ImageKind::Full);
    assert_eq!((status.snapshot_epoch, status.last_checkpoint_seq), (0, 1));
    assert_same_state(&durable, &open(fs.durable_view(), 2).unwrap().0, "full");
}

/// A history that ends in a delta on the image `create` wrote, with the
/// delta's path and its base's.
fn ending_in_a_delta() -> (Arc<MemFs>, DurableDataset, PathBuf, PathBuf) {
    let fs = Arc::new(MemFs::new());
    let durable = create(Arc::clone(&fs) as Arc<dyn IoBackend>, 2);
    durable.extend_ntriples(&triple(1, 0, 1)).expect("assert");
    durable.checkpoint().expect("checkpoint");
    durable.extend_ntriples(&triple(5, 1, 8)).expect("assert");
    let delta = durable.checkpoint().expect("checkpoint");
    let status = durable.status();
    assert_eq!(status.last_image_kind, ImageKind::Delta);
    let base = Path::new("data").join(snapshot_file_name(status.image_base_epoch));
    (fs, durable, delta, base)
}

#[test]
fn a_delta_recovers_only_on_the_base_it_names() {
    let (fs, durable, delta, base) = ending_in_a_delta();
    let (recovered, report) = open(fs.durable_view(), 2).unwrap();
    assert_eq!(
        (report.snapshot_path.as_path(), report.base_path.as_deref()),
        (delta.as_path(), Some(base.as_path()))
    );
    assert_eq!(recovered.status().last_image_kind, ImageKind::Delta);
    assert_same_state(&durable, &recovered, "intact");

    // Missing: neither delta recovers, and nothing else is left.
    let mut view = fs.durable_view();
    view.remove(&base);
    assert!(matches!(
        open(view.clone(), 2),
        Err(DurableError::Corrupt { .. })
    ));

    // Damaged: a bit flipped anywhere in the base.
    let bytes = fs.raw(&base).unwrap();
    for offset in [0, 20, bytes.len() / 2, bytes.len() - 1] {
        let mut view = fs.durable_view();
        view.get_mut(&base).unwrap()[offset] ^= 0x04;
        assert!(open(view, 2).is_err(), "flip at {offset}");
    }

    // Another full image at the base's epoch: valid on its own, with the
    // base's terms and slots, but one table the deltas take "as in base"
    // differs, and so does its header CRC. The deltas do not recover on it.
    let mut other = decode_image(&fs.raw(&base).unwrap()).unwrap();
    let id = |iri: &str| other.dictionary.id_of_iri(iri).unwrap();
    let (c0, c2) = (id("http://ex/c0"), id("http://ex/c2"));
    let sub_class_of = id(vocab::RDFS_SUB_CLASS_OF);
    assert_eq!(
        other
            .materialized
            .insert([IdTriple::new(c2, sub_class_of, c0)]),
        1
    );
    let impostor = encode_image(
        &other.dictionary,
        &other.base,
        &other.materialized,
        other.epoch,
        other.last_seq + 1,
        &other.fragment,
    );
    let mut view = fs.durable_view();
    view.insert(base.clone(), impostor);
    let (recovered, report) = open(view, 2).unwrap();
    assert_eq!(report.snapshot_path, base);
    assert_eq!(report.invalid_snapshots, 2);
    // The impostor claims record 1; the log still holds record 2 past it.
    assert_eq!((report.snapshot_epoch, report.replayed_records), (0, 1));
    assert_eq!(recovered.dataset().epoch(), 1);
    drop(durable);
}

fn images(fs: &MemFs) -> Vec<PathBuf> {
    fs.list(Path::new("data"))
        .unwrap()
        .into_iter()
        .filter(|path| path.extension().is_some_and(|e| e == "img"))
        .collect()
}

#[test]
fn pruning_keeps_the_base_of_every_delta_it_keeps() {
    let fs = Arc::new(MemFs::new());
    let durable = create(Arc::clone(&fs) as Arc<dyn IoBackend>, 1);
    let base = Path::new("data").join(snapshot_file_name(0));
    for n in 0..4 {
        durable.extend_ntriples(&triple(n, 1, 4)).expect("assert");
        let delta = durable.checkpoint().expect("checkpoint");
        assert_eq!(images(&fs), [base.clone(), delta.clone()]);
        assert_same_state(&durable, &open(fs.durable_view(), 1).unwrap().0, "pruned");
    }

    // Keeping two: a full image past a quarter of its base, and the delta
    // before it, which still needs the first base.
    let fs = Arc::new(MemFs::new());
    let durable = create(Arc::clone(&fs) as Arc<dyn IoBackend>, 2);
    durable.extend_ntriples(&triple(1, 1, 4)).expect("assert");
    let delta = durable.checkpoint().expect("checkpoint");
    let many: String = (0..200)
        .map(|n| format!("<http://ex/m{n}> <http://ex/p1> \"{n}\" .\n"))
        .collect();
    durable.extend_ntriples(&many).expect("assert");
    let full = durable.checkpoint().expect("checkpoint");
    assert_eq!(durable.status().last_image_kind, ImageKind::Full);
    assert_eq!(images(&fs), [base.clone(), delta.clone(), full.clone()]);
    // With the full image gone, the delta on the first base recovers.
    let mut view = fs.durable_view();
    view.remove(&full);
    let (_, report) = open(view, 2).unwrap();
    assert_eq!(
        (report.snapshot_path, report.base_path),
        (delta.clone(), Some(base.clone()))
    );
    // A delta on the new full image leaves the first base and its delta
    // behind.
    durable.extend_ntriples(&triple(2, 1, 4)).expect("assert");
    let next = durable.checkpoint().expect("checkpoint");
    assert_eq!(images(&fs), [full, next]);
}

/// A [`MemFs`] that keeps what a power cut would leave after each of its
/// operations, and that can fail its `n`th mutating operation from the
/// moment it is armed.
#[derive(Debug, Default)]
struct Recorder {
    fs: MemFs,
    inner: Mutex<Recording>,
}

#[derive(Debug, Default)]
struct Recording {
    armed: bool,
    ops: usize,
    fail_at: Option<usize>,
    views: Vec<DurableView>,
}

impl Recorder {
    fn arm(&self, fail_at: Option<usize>) {
        *self.inner.lock().unwrap() = Recording {
            armed: true,
            fail_at,
            ..Recording::default()
        };
    }

    fn disarm(&self) -> Recording {
        std::mem::take(&mut *self.inner.lock().unwrap())
    }

    /// Runs one mutating operation — or fails it — and records the crash
    /// view behind it.
    fn op(&self, run: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let fail = {
            let mut rec = self.inner.lock().unwrap();
            let fail = rec.armed && rec.fail_at == Some(rec.ops);
            rec.ops += usize::from(rec.armed);
            fail
        };
        let result = if fail {
            Err(io::Error::other("injected failure"))
        } else {
            run()
        };
        let mut rec = self.inner.lock().unwrap();
        if rec.armed {
            rec.views.push(self.fs.durable_view());
        }
        result
    }
}

impl IoBackend for Recorder {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.fs.create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.fs.read(path)
    }

    fn append_durable(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.op(|| self.fs.append_durable(path, data))
    }

    fn write_atomic_streamed(&self, path: &Path, fill: &mut Fill<'_>) -> io::Result<()> {
        self.op(|| self.fs.write_atomic_streamed(path, fill))
    }

    fn open_at(&self, path: &Path, offset: u64) -> io::Result<Box<dyn Read + Send + '_>> {
        self.fs.open_at(path, offset)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.op(|| self.fs.remove(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.fs.list(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.fs.exists(path)
    }
}

#[test]
fn a_cut_or_a_failure_at_each_step_of_a_delta_checkpoint_recovers_the_last_write() {
    // With nothing failed: seal (one empty segment), write the delta,
    // prune the delta before, remove the segment both kept images cover —
    // four steps.
    let mut steps = None;
    let mut fail_at = None;
    loop {
        let fs = Arc::new(Recorder::default());
        let durable = create(Arc::clone(&fs) as Arc<dyn IoBackend>, 1);
        durable.extend_ntriples(&triple(1, 0, 1)).expect("assert");
        durable.checkpoint().expect("checkpoint");
        durable.extend_ntriples(&triple(5, 1, 8)).expect("assert");
        durable.retract_ntriples(&triple(1, 0, 1)).expect("retract");

        fs.arm(fail_at);
        let result = durable.checkpoint();
        let recording = fs.disarm();
        let status = durable.status();
        match fail_at {
            None => {
                result.expect("checkpoint");
                assert_eq!(status.last_image_kind, ImageKind::Delta);
                steps = Some(recording.ops);
            }
            // Any step may fail; the dataset keeps serving either way.
            Some(_) => assert!(!durable.is_read_only()),
        }
        for (step, view) in recording.views.into_iter().enumerate() {
            let (recovered, _) = open(view, 1).expect("recovery");
            assert_same_state(&durable, &recovered, &format!("cut after step {step}"));
        }
        let (recovered, _) = open(fs.fs.durable_view(), 1).expect("recovery");
        assert_same_state(&durable, &recovered, &format!("failed step {fail_at:?}"));

        // The next checkpoint recovers whatever this one left.
        durable.extend_ntriples(&triple(6, 2, 9)).expect("assert");
        durable.checkpoint().expect("checkpoint");
        let (recovered, _) = open(fs.fs.durable_view(), 1).expect("recovery");
        assert_same_state(&durable, &recovered, "after the next checkpoint");

        let steps = steps.expect("the unfailed run comes first");
        assert_eq!(steps, 4);
        fail_at = match fail_at {
            None => Some(0),
            Some(n) if n + 1 < steps => Some(n + 1),
            Some(_) => break,
        };
    }
}
