//! The log as segments (docs/persistence.md, "A checkpoint has two
//! halves"): the seal that the write crossing the checkpoint threshold pays
//! for is one atomic write of an empty segment and reads no byte of the
//! log.

use inferray::parser::load_ntriples;
use inferray::persist::{segment_file_name, Fill, IoBackend, MemFs};
use inferray::{CheckpointPolicy, DurableDataset, Fragment, InferrayOptions};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const FRAGMENT: Fragment = Fragment::RdfsDefault;

const SCHEMA: &str = "\
<http://ex/c0> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/c1> .\n\
<http://ex/i0> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/c0> .\n";

fn triple(n: u64) -> String {
    format!("<http://ex/i{n}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/c0> .\n")
}

fn segment(first: u64) -> PathBuf {
    Path::new("data").join(segment_file_name(first))
}

fn create(backend: Arc<dyn IoBackend>, policy: CheckpointPolicy) -> DurableDataset {
    let loaded = load_ntriples(SCHEMA).expect("schema parses");
    DurableDataset::create(
        loaded,
        FRAGMENT,
        InferrayOptions::default(),
        "data",
        backend,
        policy,
    )
    .expect("initial snapshot")
    .0
}

/// What a [`Counter`] saw while armed.
#[derive(Debug, Default)]
struct Counts {
    /// Bytes read, through `read` and through `open_at` handles.
    read_bytes: usize,
    /// Each completed atomic write: its path and its length.
    atomic_writes: Vec<(PathBuf, usize)>,
    appends: usize,
    removes: usize,
}

/// A [`MemFs`] that counts what is read and written while it is armed.
#[derive(Debug, Default)]
struct Counter {
    fs: MemFs,
    counts: Mutex<Option<Counts>>,
}

impl Counter {
    fn count(&self, add: impl FnOnce(&mut Counts)) {
        if let Some(counts) = self.counts.lock().unwrap().as_mut() {
            add(counts);
        }
    }
}

/// A read handle whose bytes count.
struct Counted<'a> {
    inner: Box<dyn Read + Send + 'a>,
    counter: &'a Counter,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.counter.count(|c| c.read_bytes += n);
        Ok(n)
    }
}

impl IoBackend for Counter {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.fs.create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self.fs.read(path)?;
        self.count(|c| c.read_bytes += bytes.len());
        Ok(bytes)
    }

    fn append_durable(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.fs.append_durable(path, data)?;
        self.count(|c| c.appends += 1);
        Ok(())
    }

    fn write_atomic_streamed(&self, path: &Path, fill: &mut Fill<'_>) -> io::Result<()> {
        let mut len = 0;
        self.fs.write_atomic_streamed(path, &mut |sink| {
            let mut measured = Vec::new();
            fill(&mut measured)?;
            len = measured.len();
            sink.append(&measured)
        })?;
        self.count(|c| c.atomic_writes.push((path.to_path_buf(), len)));
        Ok(())
    }

    fn open_at(&self, path: &Path, offset: u64) -> io::Result<Box<dyn Read + Send + '_>> {
        let inner = self.fs.open_at(path, offset)?;
        Ok(Box::new(Counted {
            inner,
            counter: self,
        }))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.fs.remove(path)?;
        self.count(|c| c.removes += 1);
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.fs.list(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.fs.exists(path)
    }
}

/// The write that crosses the checkpoint threshold pays for the seal and
/// nothing else of the log: it reads no byte, rewrites no record, and
/// makes one atomic write — the next segment, empty. Its image is held back
/// until the write is acknowledged, so the image's own I/O is not counted.
#[test]
fn the_seal_reads_no_log_byte_and_writes_one_empty_segment() {
    let fs = Arc::new(Counter::default());
    let policy = CheckpointPolicy {
        wal_record_limit: Some(3),
        wal_byte_limit: None,
        snapshots_to_keep: 2,
    };
    let durable = create(Arc::clone(&fs) as Arc<dyn IoBackend>, policy);
    for n in 1..=5 {
        // Every third write crosses the threshold; the first and the
        // second time, the log the seal leaves behind holds 3 records.
        fs.fs.hold("img");
        *fs.counts.lock().unwrap() = Some(Counts::default());
        durable.extend_ntriples(&triple(n)).expect("assert");
        let counts = fs.counts.lock().unwrap().take().unwrap();
        assert_eq!(
            (counts.read_bytes, counts.appends, counts.removes),
            (0, 1, 0)
        );
        let sealed = match n {
            3 => vec![(segment(4), 0)],
            _ => vec![],
        };
        assert_eq!(counts.atomic_writes, sealed, "write {n}");
        fs.fs.release();
        durable.wait_for_checkpoint();
    }
    let status = durable.status();
    assert_eq!((status.last_checkpoint_seq, status.wal_records), (3, 2));
    assert_eq!(status.last_error, None);
}
