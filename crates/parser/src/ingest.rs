//! Streaming parallel ingest: text → dictionary + store without a serial
//! wall.
//!
//! The two-pass path — parse a whole document into an owned `Vec<Triple>`
//! (one `String` per term), then dictionary-encode it one triple at a time
//! ([`load_triples`](crate::load_triples)) — is a strictly sequential
//! preamble in front of the parallel inference stages. [`Ingest`] loads a
//! document through a three-phase pipeline instead (documented in
//! `docs/ingest.md`):
//!
//! 1. **Lex + local intern** (parallel): the document is cut into chunks on
//!    statement boundaries ([`crate::lex`]) — slices of a `&str`, or, for an
//!    N-Triples *file* ([`Ingest::ntriples_file`]), byte ranges that each
//!    lane streams through one reused cache-sized block, so the document is
//!    never held; each worker lexes its chunk zero-copy and interns every
//!    term occurrence into a *thread-local delta dictionary* (a
//!    [`TextArena`]: canonical text ↔ dense local index, the same interner
//!    the [`Dictionary`] is built on), recording only the chunk-local
//!    *intern events* that could change global dictionary state (first
//!    occurrence of a term, first property demand of a term first met as a
//!    resource) and each triple as three local indexes. Which positions
//!    demand a property is [`position_demands`], the rule the two-pass
//!    path's encoder applies too.
//! 2. **Merge** (one lane, over distinct-term events only, overlapping
//!    phase 1): because chunks are contiguous document slices, replaying
//!    the per-chunk event lists in chunk order replays the exact global
//!    first-occurrence order, so feeding each event's text slice to the
//!    ordinary [`Dictionary`] (no `Term` is ever built) assigns the *same
//!    dense identifiers, in the same order, with the same resource→property
//!    promotions* as the sequential loader — the byte-identical-dictionary
//!    invariant. Only the *order* of merging matters, not when a chunk
//!    finished lexing: chunk *k* is merged on the calling lane as soon as
//!    chunks `0..=k` have lexed ([`ThreadPool::for_each_ordered`]), while
//!    later chunks are still being lexed. Promotions are resolved after the
//!    last merge, before any pair buffer exists, so no table rewrite is
//!    ever needed.
//! 3. **Remap + table build** (parallel): each worker translates its local
//!    indexes through the merged dictionary and scatters `⟨s,o⟩` pairs into
//!    per-property buffers; the buffers are concatenated in chunk order
//!    (reproducing document order) and every property lane is sorted and
//!    deduplicated on its own pool lane with a reusable
//!    [`SortScratch`](inferray_sort::SortScratch).
//!
//! The chunk structure is invisible in the result: any thread count, any
//! chunk size and — for a streamed file — any block size produce a
//! dictionary and store byte-identical to [`LoaderOptions::sequential`] and
//! to the two-pass path, which the `ingest_equivalence` proptest suite
//! asserts.

use crate::lex::{
    lex_ntriples_chunk, lex_turtle_prologue, split_ntriples, split_turtle_body, Chunk, TermRef,
    TripleRef, TurtleChunkLexer,
};
use crate::loader::{LoadError, LoadedDataset};
use crate::ntriples::ParseError;
use inferray_dictionary::{position_demands, Demand, Dictionary, TextArena};
use inferray_model::ids::{property_id_from_index, property_index};
use inferray_model::FxHashMap;
use inferray_parallel::ThreadPool;
use inferray_sort::SortScratch;
use inferray_store::{PropertyTable, TripleStore};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;

/// Default minimum chunk size: below this, splitting costs more than it
/// saves.
const DEFAULT_MIN_CHUNK_BYTES: usize = 64 * 1024;

/// How many chunks each pool lane gets by default. Mild oversubscription
/// evens out chunks whose statements are unusually cheap or expensive;
/// higher values only re-intern more shared terms per chunk.
const CHUNKS_PER_LANE: usize = 2;

/// How many bytes of its range a lane of [`Ingest::ntriples_file`] holds at a
/// time. A block this size, its lexed terms' arena lines and the index slots
/// they probe share a core's L2, so the lexer reads what `read` just wrote
/// from cache instead of from memory — and the file costs the process
/// `lanes × BLOCK_BYTES` of address space, not its length.
const BLOCK_BYTES: usize = 256 * 1024;

/// Tuning knobs of the streaming ingest pipeline.
#[derive(Debug, Clone, Default)]
pub struct LoaderOptions {
    /// Worker lanes. `None` uses the process-wide pool
    /// ([`inferray_parallel::global`]); `Some(1)` is the sequential escape
    /// hatch; `Some(n)` spawns a dedicated pool of `n` lanes for this load.
    pub threads: Option<usize>,
    /// Approximate chunk size in bytes. `None` picks
    /// `max(64 KiB, len / (2 × lanes))`. Setting it explicitly overrides the
    /// per-lane cap (useful to stress chunk boundaries in tests).
    pub chunk_bytes: Option<usize>,
}

impl LoaderOptions {
    /// Options for the sequential escape hatch: one lane, one chunk.
    pub fn sequential() -> Self {
        LoaderOptions {
            threads: Some(1),
            chunk_bytes: None,
        }
    }

    /// Overrides the number of worker lanes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Overrides the approximate chunk size in bytes.
    pub fn with_chunk_bytes(mut self, bytes: usize) -> Self {
        self.chunk_bytes = Some(bytes);
        self
    }
}

/// The streaming parallel loader: the text → [`LoadedDataset`] entry point.
///
/// ```
/// use inferray_parser::{Ingest, LoaderOptions};
///
/// let doc = "<http://ex/Bart> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n";
/// let parallel = Ingest::new().ntriples(doc).unwrap();
/// let sequential = Ingest::with_options(LoaderOptions::sequential())
///     .ntriples(doc)
///     .unwrap();
/// assert_eq!(parallel, sequential); // byte-identical, always
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ingest {
    options: LoaderOptions,
}

impl Ingest {
    /// An ingest over the process-wide thread pool with default chunking.
    pub fn new() -> Self {
        Ingest::default()
    }

    /// An ingest with explicit options.
    pub fn with_options(options: LoaderOptions) -> Self {
        Ingest { options }
    }

    /// Parses and loads an N-Triples document held in memory.
    pub fn ntriples(&self, input: &str) -> Result<LoadedDataset, LoadError> {
        let pool = self.pool();
        let chunks = split_ntriples(input, self.chunk_target(input.len(), pool.lanes()));
        let tasks: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                move || {
                    let mut sink = ChunkSink::default();
                    lex_block(&mut sink, chunk.text, chunk.first_line)?;
                    Ok(sink)
                }
            })
            .collect();
        assemble(&pool, tasks, |lexed| lexed.map_err(LoadError::Parse))
    }

    /// Parses and loads an N-Triples file without ever holding the document:
    /// the file is cut into as many byte ranges as [`Ingest::ntriples`] would
    /// cut chunks, each range starting on a line, and every lane streams its
    /// range through one reused block — read, validate, lex, intern — so the
    /// lexer works on bytes that are still in cache and the process never
    /// maps the file's length. The result (dictionary, store, first error) is
    /// the one [`Ingest::ntriples`] gives for the file's text; a file that is
    /// not UTF-8 is a parse error on its first offending line.
    ///
    /// Anything that is not a regular file (a FIFO, `/dev/stdin`) has no
    /// length to cut: it is read whole and handed to [`Ingest::ntriples`].
    pub fn ntriples_file(&self, path: &Path) -> Result<LoadedDataset, LoadError> {
        self.ntriples_file_in_blocks(path, BLOCK_BYTES)
    }

    /// [`Ingest::ntriples_file`] with the block size spelled out, so the
    /// equivalence suite can put block borders wherever it likes. Not a
    /// tuning knob: every block size gives the same result.
    #[doc(hidden)]
    pub fn ntriples_file_in_blocks(
        &self,
        path: &Path,
        block_bytes: usize,
    ) -> Result<LoadedDataset, LoadError> {
        let mut file = File::open(path).map_err(io_error)?;
        let metadata = file.metadata().map_err(io_error)?;
        if !metadata.is_file() {
            let mut text = String::new();
            file.read_to_string(&mut text).map_err(io_error)?;
            return self.ntriples(&text);
        }
        let len = metadata.len();
        let pool = self.pool();
        let target = self.chunk_target(usize::try_from(len).unwrap_or(usize::MAX), pool.lanes());
        let ranges = line_ranges(&mut file, len, target as u64).map_err(io_error)?;
        let tasks: Vec<_> = ranges
            .into_iter()
            .map(|range| move || lex_file_range(path, range, block_bytes.max(1)))
            .collect();
        // A range counts its lines from 1; the document's line is that plus
        // the lines of the ranges before it — all of which lexed to their
        // end, or theirs would be the first error.
        let mut lines_before = 0;
        assemble(&pool, tasks, |lexed| {
            let (sink, lines) = lexed.map_err(|error| match error {
                LoadError::Parse(mut error) => {
                    error.line += lines_before;
                    LoadError::Parse(error)
                }
                other => other,
            })?;
            lines_before += lines;
            Ok(sink)
        })
    }

    /// Parses and loads a Turtle (subset) document. Always from memory: the
    /// splitter needs the prologue and string-aware statement borders, which
    /// a byte offset into a file cannot give.
    pub fn turtle(&self, input: &str) -> Result<LoadedDataset, LoadError> {
        let pool = self.pool();
        let lanes = pool.lanes();
        let prologue = lex_turtle_prologue(input).map_err(LoadError::Parse)?;
        let body = Chunk {
            text: &input[prologue.body_offset..],
            first_line: prologue.body_first_line,
        };
        let chunks = match split_turtle_body(
            body.text,
            body.first_line,
            self.chunk_target(body.text.len(), lanes),
        ) {
            Some(chunks) => chunks,
            // Directives after the prologue: lex the body as one chunk, in
            // stream order.
            None => vec![body],
        };
        let tasks: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let prefixes = prologue.prefixes.clone();
                let base = prologue.base.clone();
                move || lex_turtle_into_sink(chunk, prefixes, base)
            })
            .collect();
        assemble(&pool, tasks, |lexed| lexed.map_err(LoadError::Parse))
    }

    fn pool(&self) -> PoolHandle {
        match self.options.threads {
            Some(n) if n <= 1 => PoolHandle::Inline,
            // The caller participates in draining the queue, so a pool of
            // `n - 1` workers gives exactly `n` lanes.
            Some(n) => PoolHandle::Owned(ThreadPool::new(n - 1)),
            None => PoolHandle::Global(inferray_parallel::global()),
        }
    }

    fn chunk_target(&self, input_len: usize, lanes: usize) -> usize {
        match self.options.chunk_bytes {
            Some(bytes) => input_len.div_ceil(bytes.max(1)).max(1),
            None if lanes <= 1 => 1,
            None => (lanes * CHUNKS_PER_LANE)
                .min(input_len.div_ceil(DEFAULT_MIN_CHUNK_BYTES))
                .max(1),
        }
    }
}

/// Where phase work runs: inline, on the shared pool, or on a dedicated one.
enum PoolHandle {
    Inline,
    Global(&'static ThreadPool),
    Owned(ThreadPool),
}

impl PoolHandle {
    fn get(&self) -> Option<&ThreadPool> {
        match self {
            PoolHandle::Inline => None,
            PoolHandle::Global(pool) => Some(pool),
            PoolHandle::Owned(pool) => Some(pool),
        }
    }

    fn lanes(&self) -> usize {
        match self.get() {
            Some(pool) => pool.threads() + 1,
            None => 1,
        }
    }
}

fn run_tasks<R, F>(pool: Option<&ThreadPool>, tasks: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    let mut results = Vec::with_capacity(tasks.len());
    for_each_task(pool, tasks, |result| results.push(result));
    results
}

/// Runs `tasks` and hands each result to `consume` on the calling lane, in
/// task order, as soon as the tasks before it are done too.
fn for_each_task<R, F>(pool: Option<&ThreadPool>, tasks: Vec<F>, mut consume: impl FnMut(R))
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    match pool {
        Some(pool) => pool.for_each_ordered(tasks, consume),
        None => tasks.into_iter().for_each(|task| consume(task())),
    }
}

// ---------------------------------------------------------------------------
// Phase 1: lex + thread-local delta dictionaries
// ---------------------------------------------------------------------------

/// One chunk's thread-local delta dictionary plus its encoded statements.
#[derive(Default)]
struct ChunkSink {
    /// Canonical term text ↔ dense local index, in chunk-local
    /// first-occurrence order — the same interner the [`Dictionary`] is
    /// built on, so the merge hands it text slices, never terms.
    terms: TextArena,
    /// Whether the term has already been demanded as a property locally.
    demanded_property: Vec<bool>,
    /// The ordered intern events that could change global dictionary state.
    events: Vec<(u32, Demand)>,
    /// Statements as `[s, p, o]` local indexes, in chunk order.
    triples: Vec<[u32; 3]>,
}

impl ChunkSink {
    /// Interns one occurrence: the term's canonical form is rendered
    /// straight into the arena's tail and stays there only if it is new.
    fn intern(&mut self, term: &TermRef<'_>, demand: Demand) -> u32 {
        let (i, fresh) = self
            .terms
            .intern_with(|out| term.write_ntriples(out))
            .expect("chunk holds fewer than 2^32 - 1 terms");
        if fresh {
            self.demanded_property.push(demand == Demand::Property);
            self.events.push((i, demand));
        } else {
            self.demand_again(i, demand);
        }
        i
    }

    /// A further occurrence of the known term `i`: the merge must see its
    /// first local property demand if it was first met as a resource.
    fn demand_again(&mut self, i: u32, demand: Demand) {
        if demand == Demand::Property && !self.demanded_property[i as usize] {
            self.demanded_property[i as usize] = true;
            self.events.push((i, Demand::Property));
        }
    }

    /// `true` when `term` is the IRI interned as `i` — a compare against
    /// `<iri>` in the arena instead of a render, a hash and a probe. Equal
    /// text is the same IRI unless it holds a backslash: in the arena that
    /// starts the `\u` escape of a forbidden character, in `iri` it is a
    /// backslash (which the arena spells `\u005C`).
    fn is_iri_entry(&self, i: u32, term: &TermRef<'_>) -> bool {
        let TermRef::Iri(iri) = term else {
            return false;
        };
        self.terms
            .text(i)
            .strip_prefix('<')
            .and_then(|text| text.strip_suffix('>'))
            == Some(iri)
            && !iri.as_bytes().contains(&b'\\')
    }

    /// Interns one statement's terms (in the sequential loader's P, S, O
    /// event order) and records the encoded triple.
    fn add(&mut self, triple: &TripleRef<'_>) {
        let (subject_demand, object_demand) = position_demands(
            triple.subject.is_iri(),
            triple.predicate.as_iri().unwrap_or_default(),
            triple.object.as_iri(),
        );

        let p = self.intern(&triple.predicate, Demand::Property);
        // N-Triples dumps are grouped by subject: the previous statement's
        // subject is the likeliest term of all, and checking it costs no
        // probe.
        let s = match self.triples.last() {
            Some(&[last, _, _]) if self.is_iri_entry(last, &triple.subject) => {
                self.demand_again(last, subject_demand);
                last
            }
            _ => self.intern(&triple.subject, subject_demand),
        };
        let o = self.intern(&triple.object, object_demand);
        self.triples.push([s, p, o]);
    }
}

/// Lexes one block of whole N-Triples lines — a chunk of a document in
/// memory, or what a lane of [`Ingest::ntriples_file`] has just read — into
/// `sink`, and returns how many lines it held. `first_line` numbers the
/// block's first line in error positions.
fn lex_block(sink: &mut ChunkSink, text: &str, first_line: usize) -> Result<usize, ParseError> {
    lex_ntriples_chunk(Chunk { text, first_line }, |triple| sink.add(&triple))
}

/// [`lex_block`] for bytes fresh from a file. A block is cut after a line
/// feed, an ASCII byte, so its borders are character borders and the block
/// is validated on its own; the first ill-formed byte makes its line a
/// parse error — after the lines before it, whose errors come first.
fn lex_block_bytes(
    sink: &mut ChunkSink,
    bytes: &[u8],
    first_line: usize,
) -> Result<usize, ParseError> {
    let error = match std::str::from_utf8(bytes) {
        Ok(text) => return lex_block(sink, text, first_line),
        Err(error) => error,
    };
    let line_start = bytes[..error.valid_up_to()]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |at| at + 1);
    // A prefix of the valid prefix, cut after an ASCII byte: valid.
    let before = std::str::from_utf8(&bytes[..line_start]).unwrap_or_default();
    let lines_before = lex_block(sink, before, first_line)?;
    let line = bytes[line_start..]
        .split(|&b| b == b'\n')
        .next()
        .unwrap_or_default();
    Err(ParseError {
        line: first_line + lines_before,
        message: "invalid UTF-8".to_string(),
        context: String::from_utf8_lossy(line)
            .trim_end_matches('\r')
            .to_string(),
    })
}

fn io_error(error: io::Error) -> LoadError {
    LoadError::Io(error.to_string())
}

/// Cuts `0..len` into about `target` contiguous ranges that each start on
/// a line, as [`split_ntriples`] cuts a `&str`: a range is `len / target`
/// bytes plus the rest of the line its last byte falls in — it ends one past
/// the first line feed at or after its nominal end − 1, where the next one
/// starts. A line thus belongs to the range its first byte falls in.
fn line_ranges(file: &mut File, len: u64, target: u64) -> io::Result<Vec<Range<u64>>> {
    let goal = (len / target.max(1)).max(1);
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < len {
        let nominal_end = start.saturating_add(goal);
        let end = if nominal_end >= len {
            len
        } else {
            line_start_from(file, nominal_end)?.min(len)
        };
        ranges.push(start..end);
        start = end;
    }
    Ok(ranges)
}

/// Offset of the first line that starts at or after `offset` (> 0): one past
/// the first line feed at or after `offset − 1`, or the file's end.
fn line_start_from(file: &mut File, offset: u64) -> io::Result<u64> {
    let mut at = offset - 1;
    file.seek(SeekFrom::Start(at))?;
    let mut probe = [0u8; 4096];
    loop {
        let got = file.read(&mut probe)?;
        if got == 0 {
            return Ok(at);
        }
        if let Some(feed) = probe[..got].iter().position(|&b| b == b'\n') {
            return Ok(at + feed as u64 + 1);
        }
        at += got as u64;
    }
}

/// Phase 1 of one lane of [`Ingest::ntriples_file`]: streams `range` of the
/// file through one buffer of `block_bytes` — fill, cut after the last line
/// feed, lex the whole lines, carry the unfinished one to the front — and
/// returns the sink with the number of lines the range held. A line longer
/// than the buffer doubles it. Error lines count from the range's start.
fn lex_file_range(
    path: &Path,
    range: Range<u64>,
    block_bytes: usize,
) -> Result<(ChunkSink, usize), LoadError> {
    let mut file = File::open(path).map_err(io_error)?;
    file.seek(SeekFrom::Start(range.start)).map_err(io_error)?;
    let mut unread = range.end - range.start;
    let mut buffer = vec![0u8; block_bytes];
    let mut filled = 0;
    let mut sink = ChunkSink::default();
    let mut lines = 0;
    while unread > 0 {
        let room = buffer.len() - filled;
        let want = usize::try_from(unread).map_or(room, |unread| unread.min(room));
        let got = file
            .read(&mut buffer[filled..filled + want])
            .map_err(io_error)?;
        if got == 0 {
            return Err(LoadError::Io("the file shrank while it was read".into()));
        }
        filled += got;
        unread -= got as u64;
        // The range ends on a line border (or at the end of the file), so
        // its last block is whole lines whatever its last byte is.
        let whole = if unread == 0 {
            filled
        } else {
            match buffer[..filled].iter().rposition(|&b| b == b'\n') {
                Some(feed) => feed + 1,
                None => {
                    if filled == buffer.len() {
                        buffer.resize(buffer.len() * 2, 0);
                    }
                    continue;
                }
            }
        };
        lines += lex_block_bytes(&mut sink, &buffer[..whole], lines + 1)?;
        buffer.copy_within(whole..filled, 0);
        filled -= whole;
    }
    Ok((sink, lines))
}

fn lex_turtle_into_sink(
    chunk: Chunk<'_>,
    prefixes: HashMap<String, String>,
    base: String,
) -> Result<ChunkSink, ParseError> {
    let mut sink = ChunkSink::default();
    let mut lexer = TurtleChunkLexer::new(chunk, prefixes, base);
    while lexer.next_statement(|triple| sink.add(&triple))? {}
    Ok(sink)
}

// ---------------------------------------------------------------------------
// Phases 2 + 3: deterministic merge, remap, parallel table build
// ---------------------------------------------------------------------------

/// The merged prefix of the document's chunks: the dictionary they built and,
/// per chunk, what phase 3 reads — its statements and its local-index →
/// global-id table.
#[derive(Default)]
struct Merged {
    dictionary: Dictionary,
    statements: Vec<Vec<[u32; 3]>>,
    remaps: Vec<Vec<u64>>,
}

impl Merged {
    /// Merges the next chunk in document order. An event hands the
    /// dictionary the chunk arena's text slice: a known term costs a hash
    /// and a compare, a new one an append of its bytes. Every distinct chunk
    /// term has a first-occurrence event, so the encode calls also fill the
    /// chunk's remap table as a side effect — no second lookup pass over the
    /// (long) textual keys is needed. The chunk's arena, demand flags and
    /// events are dropped on return — the dictionary and the chunk arenas
    /// are never all alive together.
    fn push(&mut self, chunk: ChunkSink) -> Result<(), LoadError> {
        let mut remap = vec![0u64; chunk.terms.len()];
        for &(index, demand) in &chunk.events {
            let key = chunk.terms.text(index);
            let id = match demand {
                Demand::Property => self.dictionary.encode_as_property_text(key),
                Demand::Resource => self.dictionary.encode_as_resource_text(key),
            }
            .map_err(|e| LoadError::Encode(e.to_string()))?;
            // A same-chunk promotion event overwrites the resource id with
            // the promoted property id.
            remap[index as usize] = id;
        }
        self.statements.push(chunk.triples);
        self.remaps.push(remap);
        Ok(())
    }
}

/// Runs the phase-1 `tasks` and builds the dataset from their chunks.
/// `accept` turns a task's output into its chunk (or the load's error),
/// called in document order.
fn assemble<T, F>(
    pool: &PoolHandle,
    tasks: Vec<F>,
    mut accept: impl FnMut(T) -> Result<ChunkSink, LoadError>,
) -> Result<LoadedDataset, LoadError>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    // Phase 2 — merge, chunk by chunk as the lexed prefix grows. Chunks are
    // contiguous document slices, so replaying their event lists in chunk
    // order through a fresh dictionary visits every term in global
    // first-occurrence order: identifiers, registration order and
    // promotions all match the sequential loader exactly, whichever chunk
    // finished lexing first. Errors keep the sequential loader's order too:
    // the first chunk that failed to lex is the earliest document position
    // and wins over any later one, and over a dictionary error, which the
    // sequential loader meets only after the whole document has lexed.
    let mut merged = Merged::default();
    let (mut lex_error, mut merge_error) = (None, None);
    for_each_task(pool.get(), tasks, |lexed| {
        if lex_error.is_some() {
            return;
        }
        match accept(lexed) {
            Err(error) => lex_error = Some(error),
            Ok(chunk) if merge_error.is_none() => merge_error = merged.push(chunk).err(),
            Ok(_) => {}
        }
    });
    if let Some(error) = lex_error.or(merge_error) {
        return Err(error);
    }
    let Merged {
        mut dictionary,
        statements,
        mut remaps,
    } = merged;
    // Resolve cross-chunk promotions: a term promoted in a later chunk must
    // remap to its property id in *every* chunk. (Same reason the sequential
    // loader patches tables — but here no pair buffer exists yet, so it is a
    // patch over the small remap tables instead.) Draining the list also
    // leaves the dictionary in the same state as the sequential loader.
    let promotions: FxHashMap<u64, u64> = dictionary.take_promotions().into_iter().collect();
    if !promotions.is_empty() {
        for remap in &mut remaps {
            for id in remap.iter_mut() {
                if let Some(&promoted) = promotions.get(id) {
                    *id = promoted;
                }
            }
        }
    }

    // Phase 3a — translate local indexes through the remap tables and
    // scatter pairs into per-property buffers, one task per chunk.
    let bucket_tasks: Vec<_> = statements
        .iter()
        .zip(remaps.iter())
        .map(|(triples, remap)| move || bucket_chunk(triples, remap))
        .collect();
    let buckets = run_tasks(pool.get(), bucket_tasks);
    drop((statements, remaps));

    // Gather the chunk buffers per property, in chunk order — the
    // concatenation is exactly the document-order pair sequence.
    let mut per_property: Vec<Vec<Vec<u64>>> = vec![Vec::new(); dictionary.num_properties()];
    for chunk_buckets in buckets {
        for (index, pairs) in chunk_buckets {
            per_property[index].push(pairs);
        }
    }

    // Phase 3b — build and finalize each property lane. Lanes are
    // independent, so distribute them over the pool (largest first for
    // balance) with one sort scratch per task.
    let mut jobs: Vec<(usize, Vec<Vec<u64>>)> = per_property
        .into_iter()
        .enumerate()
        .filter(|(_, buffers)| !buffers.is_empty())
        .collect();
    jobs.sort_by_key(|(index, buffers)| {
        let pairs: usize = buffers.iter().map(|b| b.len()).sum();
        (std::cmp::Reverse(pairs), *index)
    });
    let lanes = pool.lanes().min(jobs.len()).max(1);
    let mut groups: Vec<Vec<(usize, Vec<Vec<u64>>)>> = (0..lanes).map(|_| Vec::new()).collect();
    for (slot, job) in jobs.into_iter().enumerate() {
        groups[slot % lanes].push(job);
    }
    let table_tasks: Vec<_> = groups
        .into_iter()
        .map(|group| {
            move || {
                let mut scratch = SortScratch::new();
                group
                    .into_iter()
                    .map(|(index, buffers)| {
                        let total = buffers.iter().map(|b| b.len()).sum();
                        let mut pairs = Vec::with_capacity(total);
                        for buffer in &buffers {
                            pairs.extend_from_slice(buffer);
                        }
                        let mut table = PropertyTable::from_raw(pairs);
                        table.finalize_with(&mut scratch);
                        (index, table)
                    })
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    let built = run_tasks(pool.get(), table_tasks);

    let mut store = TripleStore::new();
    let mut finished: Vec<(usize, PropertyTable)> = built.into_iter().flatten().collect();
    // Install in ascending property order so the slot array grows once and
    // matches the sequential loader's layout.
    finished.sort_unstable_by_key(|(index, _)| *index);
    for (index, table) in finished {
        store.set_table(property_id_from_index(index), table);
    }

    Ok(LoadedDataset { dictionary, store })
}

/// Translates one chunk's local indexes through its remap table and
/// scatters its statements into one pair buffer per predicate the chunk
/// uses (not per property of the dictionary).
fn bucket_chunk(triples: &[[u32; 3]], remap: &[u64]) -> Vec<(usize, Vec<u64>)> {
    let mut lane_of: FxHashMap<u32, usize> = FxHashMap::default();
    let mut lanes: Vec<(usize, Vec<u64>)> = Vec::new();
    for &[s, p, o] in triples {
        let lane = *lane_of.entry(p).or_insert_with(|| {
            lanes.push((property_index(remap[p as usize]), Vec::new()));
            lanes.len() - 1
        });
        let pairs = &mut lanes[lane].1;
        pairs.push(remap[s as usize]);
        pairs.push(remap[o as usize]);
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{load_triples, parse_ntriples, parse_turtle};
    use inferray_dictionary::wellknown;
    use inferray_model::ids::is_property_id;

    fn sample_nt() -> String {
        let mut doc = String::new();
        for i in 0..200 {
            doc.push_str(&format!(
                "<http://ex/s{i}> <http://ex/p{}> <http://ex/o{}> .\n",
                i % 7,
                i % 31
            ));
            if i % 10 == 0 {
                doc.push_str(&format!(
                    "<http://ex/s{i}> <http://ex/label> \"subject {i}\"@en .\n"
                ));
            }
        }
        doc
    }

    #[test]
    fn parallel_equals_sequential_equals_two_pass() {
        let doc = sample_nt();
        let sequential = Ingest::with_options(LoaderOptions::sequential())
            .ntriples(&doc)
            .unwrap();
        let two_pass = load_triples(parse_ntriples(&doc).unwrap()).unwrap();
        assert_eq!(sequential, two_pass);
        for threads in [2, 3, 8] {
            for chunk_bytes in [64, 700, 1 << 20] {
                let parallel = Ingest::with_options(LoaderOptions {
                    threads: Some(threads),
                    chunk_bytes: Some(chunk_bytes),
                })
                .ntriples(&doc)
                .unwrap();
                assert_eq!(
                    parallel, sequential,
                    "threads={threads} chunk_bytes={chunk_bytes}"
                );
            }
        }
    }

    #[test]
    fn promotion_across_chunks_matches_sequential() {
        // `hasPart` is used as a plain resource early (one chunk) and as a
        // predicate much later (another chunk): the merge must promote it
        // and every chunk's pairs must use the promoted id.
        let mut doc = String::from(
            "<http://ex/hasPart> <http://www.w3.org/2000/01/rdf-schema#domain> <http://ex/Whole> .\n",
        );
        for i in 0..100 {
            doc.push_str(&format!("<http://ex/s{i}> <http://ex/p> <http://ex/o> .\n"));
        }
        doc.push_str("<http://ex/Car> <http://ex/hasPart> <http://ex/Wheel> .\n");

        let sequential = Ingest::with_options(LoaderOptions::sequential())
            .ntriples(&doc)
            .unwrap();
        let parallel = Ingest::with_options(LoaderOptions {
            threads: Some(4),
            chunk_bytes: Some(256),
        })
        .ntriples(&doc)
        .unwrap();
        assert_eq!(parallel, sequential);

        let prop_id = parallel.dictionary.id_of_iri("http://ex/hasPart").unwrap();
        assert!(is_property_id(prop_id));
        let domain = parallel.store.table(wellknown::RDFS_DOMAIN).unwrap();
        assert_eq!(
            domain.iter_pairs().map(|(s, _)| s).collect::<Vec<_>>(),
            vec![prop_id]
        );
        assert_eq!(parallel.store.table(prop_id).unwrap().len(), 1);
    }

    #[test]
    fn chunked_errors_match_sequential_errors() {
        let mut doc = sample_nt();
        doc.push_str("<http://ex/broken .\n");
        doc.push_str(&sample_nt());
        let sequential = Ingest::with_options(LoaderOptions::sequential())
            .ntriples(&doc)
            .unwrap_err();
        let parallel = Ingest::with_options(LoaderOptions {
            threads: Some(4),
            chunk_bytes: Some(128),
        })
        .ntriples(&doc)
        .unwrap_err();
        match (&sequential, &parallel) {
            (LoadError::Parse(a), LoadError::Parse(b)) => assert_eq!(a, b),
            other => panic!("expected parse errors, got {other:?}"),
        }
    }

    #[test]
    fn turtle_ingest_matches_the_two_pass_path() {
        let doc = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix ex: <http://example.org/> .
ex:hasPart rdfs:domain ex:Whole .
ex:teaches owl:inverseOf ex:taughtBy .
ex:Car ex:hasPart ex:Wheel .
ex:human rdfs:subClassOf ex:mammal .
ex:Bart a ex:human ; ex:age 10 ; ex:name "Bart"@en .
ex:Prof ex:taughtBy ex:Bart .
"#;
        let two_pass = load_triples(parse_turtle(doc).unwrap()).unwrap();
        let sequential = Ingest::with_options(LoaderOptions::sequential())
            .turtle(doc)
            .unwrap();
        let parallel = Ingest::with_options(LoaderOptions {
            threads: Some(4),
            chunk_bytes: Some(64),
        })
        .turtle(doc)
        .unwrap();
        assert_eq!(sequential, two_pass);
        assert_eq!(parallel, two_pass);
        assert!(is_property_id(
            two_pass
                .dictionary
                .id_of_iri("http://example.org/hasPart")
                .unwrap()
        ));
    }

    #[test]
    fn turtle_directive_glued_to_terminator_stays_identical() {
        // A mid-body directive with no whitespace after the preceding '.'
        // forces the single-chunk fallback; parallel must match sequential.
        let mut doc = String::from("@prefix ex: <http://ex.org/> .\n");
        for i in 0..50 {
            doc.push_str(&format!("ex:s{i} ex:p ex:o{i} .\n"));
        }
        doc.push_str("ex:a ex:p ex:b .@prefix zz: <http://zz.org/> .\nzz:c zz:q zz:d .\n");
        let sequential = Ingest::with_options(LoaderOptions::sequential())
            .turtle(&doc)
            .unwrap();
        let parallel = Ingest::with_options(LoaderOptions {
            threads: Some(4),
            chunk_bytes: Some(16),
        })
        .turtle(&doc)
        .unwrap();
        assert_eq!(parallel, sequential);
        assert!(sequential.dictionary.id_of_iri("http://zz.org/q").is_some());
    }

    #[test]
    fn empty_inputs_load_empty_datasets() {
        for input in ["", "\n\n# only comments\n"] {
            let loaded = Ingest::new().ntriples(input).unwrap();
            assert!(loaded.is_empty());
            let loaded = Ingest::new().turtle(input).unwrap();
            assert!(loaded.is_empty());
        }
    }
}
