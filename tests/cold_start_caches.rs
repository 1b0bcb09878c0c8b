//! A cold start publishes its first epoch with the ⟨o,s⟩ caches of the
//! tables its program reads by object built (`Ruleset::object_reads`,
//! docs/persistence.md, "The pieces"), and no others: a query builds
//! those on first need. The image's read builds them: the stores' lane
//! from the moment `MATL` lands, beside the dictionary (for a delta, once
//! its `MATL` lands on its base's), and replay builds only those its
//! records dropped. The laws, for a full image, a delta whose other tables
//! are as in its base, and a replayed log tail:
//!
//! - the image `open_recoverable` reads has the cache of exactly the
//!   non-empty `MATL` tables the program reads by object;
//! - so has the first epoch `DurableDataset::open` publishes.

use inferray::persist::{open_recoverable, snapshot_file_name, IoBackend, MemFs};
use inferray::rules::Ruleset;
use inferray::store::TripleStore;
use inferray::{CheckpointPolicy, DurableDataset, Fragment, InferrayOptions, WriteKind};
use std::path::Path;
use std::sync::Arc;

const FRAGMENT: Fragment = Fragment::RdfsPlus;

/// Subclasses, types and a few properties: tables of several sizes.
fn document() -> String {
    let mut doc = String::new();
    let sub = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>";
    let kind = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";
    for c in 0..6 {
        doc.push_str(&format!(
            "<http://ex/C{c}> {sub} <http://ex/C{}> .\n",
            c + 1
        ));
    }
    for i in 0..300 {
        doc.push_str(&format!(
            "<http://ex/i{i}> {kind} <http://ex/C{}> .\n",
            i % 6
        ));
        doc.push_str(&format!(
            "<http://ex/i{i}> <http://ex/knows> <http://ex/i{}> .\n",
            (i * 7) % 300
        ));
        if i % 3 == 0 {
            doc.push_str(&format!("<http://ex/i{i}> <http://ex/name> \"n{i}\" .\n"));
        }
    }
    doc
}

/// The non-empty tables of `store` with their cache, and those the program
/// reads by object.
fn cached(store: &TripleStore) -> (Vec<u64>, Vec<u64>) {
    let ruleset = Ruleset::for_fragment(FRAGMENT);
    let built = store
        .iter_tables()
        .filter(|(_, table)| table.has_os_cache())
        .map(|(p, _)| p)
        .collect();
    let read = store
        .iter_tables()
        .map(|(p, _)| p)
        .filter(|p| ruleset.object_reads().contains(p))
        .collect();
    (built, read)
}

fn open(fs: &MemFs) -> DurableDataset {
    let (durable, _) = DurableDataset::open(
        "data",
        FRAGMENT,
        InferrayOptions::default(),
        Arc::new(MemFs::from_view(fs.durable_view())),
        CheckpointPolicy::manual(),
    )
    .expect("recovered");
    durable
}

/// Checks both laws on what `fs` holds, the newest image at `epoch`;
/// returns whether that image is a delta.
fn check(fs: &MemFs, epoch: u64) -> bool {
    let path = Path::new("data").join(snapshot_file_name(epoch));
    let recovered = open_recoverable(fs as &dyn IoBackend, &path).expect("an image");
    let materialized = &recovered.image.materialized;
    let (built, read) = cached(materialized);
    assert!(read.len() >= 2 && materialized.iter_tables().count() > read.len() + 1);
    assert_eq!(built, read, "the image");
    let durable = open(fs);
    let first = durable.dataset().store_snapshot();
    let (built, read) = cached(first.store());
    assert_eq!(built, read, "the first epoch");
    recovered.base.is_some()
}

#[test]
fn the_first_epoch_of_every_cold_start_has_its_caches() {
    let fs = Arc::new(MemFs::new());
    let (durable, _) = DurableDataset::create(
        inferray::load_ntriples(&document()).expect("valid"),
        FRAGMENT,
        InferrayOptions::default(),
        "data",
        Arc::clone(&fs) as Arc<dyn IoBackend>,
        CheckpointPolicy::manual(),
    )
    .expect("created");

    // A full image, nothing to replay.
    assert!(!check(&fs, durable.dataset().epoch()));

    // A full image and a tail: a write to one table, a new term and a
    // retraction.
    let writes = [
        (
            WriteKind::Assert,
            "<http://ex/i1> <http://ex/knows> <http://ex/i2> .\n",
        ),
        (
            WriteKind::Assert,
            "<http://ex/new> <http://ex/knows> <http://ex/i3> .\n",
        ),
        (
            WriteKind::Retract,
            "<http://ex/i0> <http://ex/knows> <http://ex/i0> .\n",
        ),
    ];
    for (kind, body) in writes {
        durable.write_ntriples(kind, body).expect("accepted");
    }
    let image_epoch = durable.dataset().epoch() - writes.len() as u64;
    assert!(!check(&fs, image_epoch));

    // A delta on the full image: every table but the ones the writes
    // changed is as in its base. Once reopened, the first checkpoint is a
    // full one, so the delta comes from the process that wrote the full
    // image: the one still running.
    durable.checkpoint().expect("a delta");
    assert!(check(&fs, durable.dataset().epoch()), "a delta image");

    // The delta and a tail behind it.
    durable
        .write_ntriples(
            WriteKind::Assert,
            "<http://ex/i9> <http://ex/name> \"m\" .\n",
        )
        .expect("accepted");
    assert!(check(&fs, durable.dataset().epoch() - 1));
}
