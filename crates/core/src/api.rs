//! Decoded-graph convenience API.
//!
//! The reasoner's native interface works on encoded triples, which is what
//! benchmarks and embedders want. Examples and small applications usually
//! start from a decoded [`Graph`] (or an N-Triples/Turtle document); this
//! module wires the parser/loader, the reasoner and the dictionary decoding
//! into one call.

use crate::{InferrayOptions, InferrayReasoner, RetractionStats, Stage, Stages};
use inferray_dictionary::Dictionary;
use inferray_model::ids::is_property_id;
use inferray_model::{json_string_into, Graph, IdTriple, Triple};
use inferray_parser::lex::{lex_ntriples_chunk, Chunk};
use inferray_parser::loader::{load_graph, LoadError, LoadedDataset};
use inferray_parser::{Ingest, TripleRef};
use inferray_rules::analysis::{self, Diagnostic};
use inferray_rules::shapes::{self, ShapeAnalysis};
use inferray_rules::{Fragment, InferenceStats, Materializer, Ruleset};
use inferray_store::{unpoison, Handoff, Recycler, StoreSnapshot, TripleStore};
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The result of reasoning over a decoded graph.
#[derive(Debug, Clone)]
pub struct ReasonedGraph {
    /// The materialized graph: input triples plus every inferred triple.
    pub graph: Graph,
    /// Statistics of the run.
    pub stats: InferenceStats,
}

impl ReasonedGraph {
    /// The triples that were inferred (materialization minus input).
    pub fn inferred(&self, input: &Graph) -> Graph {
        self.graph.difference(input)
    }
}

/// Materializes `fragment` over a decoded graph with default options.
pub fn reason_graph(graph: &Graph, fragment: Fragment) -> Result<ReasonedGraph, LoadError> {
    reason_graph_with_options(graph, fragment, InferrayOptions::default())
}

/// Materializes `fragment` over a decoded graph with explicit options.
pub fn reason_graph_with_options(
    graph: &Graph,
    fragment: Fragment,
    options: InferrayOptions,
) -> Result<ReasonedGraph, LoadError> {
    let loaded = load_graph(graph)?;
    finish(loaded, fragment, options)
}

/// Parses an N-Triples document (streaming parallel ingest, see
/// [`inferray_parser::ingest`]) and materializes `fragment` over it.
pub fn reason_ntriples(input: &str, fragment: Fragment) -> Result<ReasonedGraph, LoadError> {
    let loaded = Ingest::new().ntriples(input)?;
    finish(loaded, fragment, InferrayOptions::default())
}

/// Parses a Turtle (subset) document and materializes `fragment` over it.
pub fn reason_turtle(input: &str, fragment: Fragment) -> Result<ReasonedGraph, LoadError> {
    let loaded = Ingest::new().turtle(input)?;
    finish(loaded, fragment, InferrayOptions::default())
}

fn finish(
    loaded: inferray_parser::LoadedDataset,
    fragment: Fragment,
    options: InferrayOptions,
) -> Result<ReasonedGraph, LoadError> {
    let mut store = loaded.store;
    let mut reasoner = InferrayReasoner::with_options(fragment, options);
    let stats = reasoner.materialize(&mut store);
    let mut graph = Graph::new();
    for triple in store.iter_triples() {
        if let Some(decoded) = loaded.dictionary.decode_triple(triple) {
            graph.insert(decoded);
        }
    }
    Ok(ReasonedGraph { graph, stats })
}

// ---------------------------------------------------------------------------
// Shape-constraint gating (docs/shapes.md)
// ---------------------------------------------------------------------------

/// One rendered shape violation: the decoded focus node, the shape and
/// property path it failed under, the source position of the violated
/// clause in the shape file, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeViolation {
    /// The violating focus node, decoded to N-Triples syntax.
    pub focus: String,
    /// Name of the shape the node failed.
    pub shape: String,
    /// The property path of the violated constraint.
    pub path: String,
    /// 1-based line of the violated clause in the shape file.
    pub line: u32,
    /// 1-based column of the violated clause.
    pub col: u32,
    /// What went wrong.
    pub message: String,
}

/// A refused write: the candidate store the write would have published
/// violates the installed shapes, so nothing was published — the base, the
/// dictionary and the snapshot sequence all keep their pre-write state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeViolations {
    /// Rendered violations, capped at [`ShapeViolations::REPORT_CAP`].
    pub violations: Vec<ShapeViolation>,
    /// Total violation count (may exceed `violations.len()` when capped).
    pub total: usize,
    /// `(shape, focus)` evaluations the refusing validation performed.
    pub focus_checks: u64,
    /// `true` when the incremental (delta) validator produced the verdict.
    pub incremental: bool,
}

impl ShapeViolations {
    /// Rendered violations are capped so a pathological batch cannot make
    /// the error response (or the 422 body) arbitrarily large.
    pub const REPORT_CAP: usize = 100;

    /// The violation report as a JSON object, for the `422` response body.
    pub fn json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"total\":");
        out.push_str(&self.total.to_string());
        out.push_str(",\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"focus\":");
            json_string_into(&mut out, &v.focus);
            out.push_str(",\"shape\":");
            json_string_into(&mut out, &v.shape);
            out.push_str(",\"path\":");
            json_string_into(&mut out, &v.path);
            out.push_str(&format!(
                ",\"line\":{},\"col\":{},\"message\":",
                v.line, v.col
            ));
            json_string_into(&mut out, &v.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for ShapeViolations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} shape violation(s)", self.total)?;
        if let Some(first) = self.violations.first() {
            write!(
                f,
                "; first: {}:{}: focus {} fails shape {}: {}",
                first.line, first.col, first.focus, first.shape, first.message
            )?;
        }
        Ok(())
    }
}

/// Why a write ([`ServingDataset::write_ntriples`] and its wrappers) was
/// refused. In every case nothing was published: the base, the dictionary
/// and the epoch keep their pre-write state.
#[derive(Debug)]
pub enum WriteError {
    /// The delta could not be parsed or encoded, or the rule program no
    /// longer compiles (nothing was attempted).
    Load(LoadError),
    /// The candidate store violates the installed shapes.
    Shapes(ShapeViolations),
    /// The caller's durable-log stage refused the write — the candidate had
    /// passed the gate but could not be made durable. Carries the stage's
    /// reason.
    Log(String),
}

impl From<LoadError> for WriteError {
    fn from(e: LoadError) -> WriteError {
        WriteError::Load(e)
    }
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::Load(e) => e.fmt(f),
            WriteError::Shapes(v) => v.fmt(f),
            WriteError::Log(reason) => write!(f, "not logged: {reason}"),
        }
    }
}

impl std::error::Error for WriteError {}

/// Why [`ServingDataset::install_shapes`] refused a shape program.
#[derive(Debug)]
pub enum ShapeInstallError {
    /// The program has error-severity `SH…` diagnostics and must not load.
    Program(Vec<Diagnostic>),
    /// The program is well-formed but the *currently published* snapshot
    /// already violates it: installing would make every subsequent write
    /// unpublishable, so the gate refuses to arm.
    Violations(ShapeViolations),
}

impl fmt::Display for ShapeInstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeInstallError::Program(diags) => {
                let list: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
                write!(f, "shape program has errors: {}", list.join("; "))
            }
            ShapeInstallError::Violations(v) => {
                write!(f, "current snapshot does not conform: {v}")
            }
        }
    }
}

impl std::error::Error for ShapeInstallError {}

/// Validation counters of a shape-gated dataset, spliced into
/// `GET /status` by the server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationCounters {
    /// Full-snapshot validations performed (install + fallback paths).
    pub full: u64,
    /// Incremental (delta) validations performed.
    pub incremental: u64,
    /// Writes refused because the candidate violated the shapes.
    pub rejected: u64,
    /// Total `(shape, focus)` evaluations across all validations.
    pub focus_checks: u64,
}

/// The operator-visible state of the shape gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationStatus {
    /// Number of installed shapes.
    pub shapes: usize,
    /// Epoch of the last green (conforming) validation, if any.
    pub validated_epoch: Option<u64>,
    /// Validation counters since install.
    pub counters: ValidationCounters,
}

impl ValidationStatus {
    /// Renders the status as a JSON object into `out` (no allocation
    /// beyond the caller's buffer — the server calls this per `/status`
    /// request from its zero-allocation path).
    pub fn json_into(&self, out: &mut String) {
        use fmt::Write as _;
        let _ = write!(out, "{{\"shapes\":{},\"validated_epoch\":", self.shapes);
        match self.validated_epoch {
            Some(epoch) => {
                let _ = write!(out, "{epoch}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"full_validations\":{},\"incremental_validations\":{},\
             \"rejected_writes\":{},\"focus_checks\":{}}}",
            self.counters.full,
            self.counters.incremental,
            self.counters.rejected,
            self.counters.focus_checks,
        );
    }
}

/// The installed shape program plus the validation ledger. Protected by its
/// own leaf mutex (acquired only while the writer lock is held, or for a
/// point read by `validation_status`) — never held across a validation run
/// or a publish, so `GET /status` stays responsive mid-write.
#[derive(Debug)]
struct ShapeGate {
    /// The checked (error-free) symbolic program; recompiled against the
    /// write's private dictionary on every gated write, exactly like the
    /// rule program (identifier promotions would stale a compiled form).
    analysis: Arc<ShapeAnalysis>,
    /// Number of shapes, for `/status`.
    shape_count: usize,
    /// The last green validation: the epoch it validated and its (empty)
    /// report, seeding the incremental validator of the next write.
    state: Option<GateState>,
    counters: ValidationCounters,
}

#[derive(Debug)]
struct GateState {
    epoch: u64,
    report: shapes::ValidationReport,
}

// ---------------------------------------------------------------------------
// Concurrent serving
// ---------------------------------------------------------------------------

/// What a [`ServingDataset`] is closed under: one of the baked-in fragments,
/// or the text of an analyzer-loaded `.rules` program (docs/rules.md).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Program {
    /// A baked-in entailment fragment.
    Fragment(Fragment),
    /// The text of a rule program.
    Rules(Arc<str>),
}

impl Program {
    /// The program's ruleset. A rule program is compiled against
    /// `dictionary`, which copies it on first use if borrowed: its constants
    /// are interned there, which may promote a resource to a property.
    fn ruleset(&self, dictionary: &mut Cow<'_, Dictionary>) -> Result<Ruleset, LoadError> {
        match self {
            Program::Fragment(fragment) => Ok(Ruleset::for_fragment(*fragment)),
            Program::Rules(text) => {
                analysis::load_ruleset(text, dictionary.to_mut()).map_err(|diags| {
                    let list: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
                    LoadError::Encode(format!("rule program: {}", list.join("; ")))
                })
            }
        }
    }

    /// The tables the program reads by object ([`Ruleset::object_reads`]),
    /// compiled as [`Program::ruleset`] does; none when it no longer loads,
    /// and then its first write refuses with the diagnostics.
    fn object_reads(&self, dictionary: &mut Cow<'_, Dictionary>) -> Vec<u64> {
        self.ruleset(dictionary)
            .map_or_else(|_| Vec::new(), |ruleset| ruleset.object_reads().to_vec())
    }
}

impl From<Fragment> for Program {
    fn from(fragment: Fragment) -> Program {
        Program::Fragment(fragment)
    }
}

impl From<&str> for Program {
    fn from(rules: &str) -> Program {
        Program::Rules(Arc::from(rules))
    }
}

/// Which way a write moves the explicit base. Doubles as the record kind of
/// the persistence layer's write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Assert the batch (materialize the delta).
    Assert,
    /// Retract the batch (delete–rederive).
    Retract,
}

/// The reasoner's statistics of one write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteStats {
    /// [`InferrayReasoner::materialize_delta`] ran.
    Asserted(InferenceStats),
    /// [`InferrayReasoner::retract_delta`] ran.
    Retracted(RetractionStats),
}

impl WriteStats {
    /// Whether the write changed the store, and so publishes an epoch:
    /// every assert does, a retraction only when it removed an asserted
    /// triple.
    pub fn changed(&self) -> bool {
        !matches!(self, WriteStats::Retracted(r) if r.retracted_explicit == 0)
    }
}

/// Everything a caller reports about an accepted write. Captured under the
/// writer lock, so the fields stay consistent even when other writers
/// publish concurrently (reading [`ServingDataset::epoch`] afterwards could
/// name a later epoch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteOutcome {
    /// The reasoner's statistics.
    pub stats: WriteStats,
    /// The epoch serving this write's result — the one it published, or the
    /// current one for a retraction that removed nothing.
    pub epoch: u64,
    /// Triples in the store at that epoch.
    pub triples: usize,
    /// The pipeline's stage times: encode, reason, gate, log, publish and
    /// checkpoint, back to back from taking the writer lock, and for a
    /// retraction its four phases inside reason.
    pub stages: Stages,
}

impl WriteOutcome {
    /// The statistics of a retraction (`None` for an assert).
    pub fn retraction(&self) -> Option<&RetractionStats> {
        match &self.stats {
            WriteStats::Asserted(_) => None,
            WriteStats::Retracted(stats) => Some(stats),
        }
    }

    /// Appends the write's kind, epoch and stage times in µs as a JSON
    /// object ([`Stages::json_into`]) for the `last_write` member of
    /// `GET /status`.
    pub fn json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let kind = match self.stats {
            WriteStats::Asserted(_) => "assert",
            WriteStats::Retracted(_) => "retract",
        };
        let _ = write!(out, "{{\"kind\":\"{kind}\",\"epoch\":{},", self.epoch);
        self.stages.json_into(out);
        out.push('}');
    }
}

/// One published epoch: the store snapshot and the dictionary that encodes
/// it, handed to readers as one value.
#[derive(Debug, Clone)]
struct Published {
    snapshot: StoreSnapshot,
    dictionary: Arc<Dictionary>,
}

/// A materialized dataset published for concurrent query serving: each
/// epoch's store snapshot and the dictionary that encoded it, handed out
/// together through one lock-free [`Handoff`].
///
/// This is the **writer side** of the serving design (docs/serving.md).
/// Readers sample a consistent `(store snapshot, dictionary)` pair with
/// [`ServingDataset::snapshot`] and keep querying that frozen epoch for as
/// long as they like; writers assert new triples with
/// [`ServingDataset::extend`] / [`ServingDataset::extend_ntriples`], which
/// run the incremental reasoner ([`InferrayReasoner::materialize_delta`])
/// on a **private copy** of the current store and publish the result as a
/// new epoch with one pointer swap. A reader holding epoch *n* never
/// observes any intermediate state of the materialization — that is the
/// snapshot-isolation contract proven by `tests/snapshot_isolation.rs`.
///
/// Id agreement: the dictionary a reader gets encodes every term of its
/// store to the identifier that store holds. A newer dictionary need not:
/// a write that promotes a resource to a property gives the term a new
/// identifier, which older stores do not use — so the two are never
/// published or sampled apart.
#[derive(Debug)]
pub struct ServingDataset {
    published: Handoff<Published>,
    /// Serializes writers — a write must start from the latest epoch, or a
    /// concurrent write's triples and terms would be lost on publish — and
    /// holds the *explicit* (asserted) triples behind the current
    /// materialization. The delete–rederive retraction path needs them
    /// twice over: an asserted triple must never be over-deleted, and
    /// `retract(Δ)` is specified as equivalent to rebuilding from
    /// `base ∖ Δ`. Readers never see the base. Beside it, the tables
    /// earlier writes superseded, whose buffers later writes reuse.
    writer: Mutex<Writer>,
    /// The program every epoch is closed under. A rule program is kept as
    /// *text*, not as a compiled ruleset: every write recompiles it against
    /// its private dictionary copy, so rule constants track identifier
    /// promotions the data may cause (a compiled constant would go stale the
    /// moment a delta promotes the resource it names to a property).
    program: Program,
    /// The tables `program` reads by object (`Ruleset::object_reads`):
    /// every epoch is published with their ⟨o,s⟩ caches built.
    object_reads: Vec<u64>,
    options: InferrayOptions,
    /// The shape-constraint gate ([`ServingDataset::install_shapes`],
    /// docs/shapes.md): `None` until a program is installed. Leaf lock —
    /// taken after the writer lock, never held across validation or publish.
    validation: Mutex<Option<ShapeGate>>,
}

/// What the writer lock guards: the explicit base, and the recycler of the
/// tables writes superseded ([`Recycler`]).
#[derive(Debug)]
struct Writer {
    base: TripleStore,
    recycler: Recycler,
}

impl ServingDataset {
    /// Fully materializes `fragment` over a loaded dataset and publishes
    /// the result as epoch 0; returns the run's statistics and its stages
    /// ([`InferrayReasoner::last_stages`]).
    pub fn materialize(
        loaded: LoadedDataset,
        fragment: Fragment,
        options: InferrayOptions,
    ) -> (Self, (InferenceStats, Stages)) {
        let reasoner = InferrayReasoner::with_options(fragment, options);
        Self::close(loaded.store, loaded.dictionary, reasoner, fragment.into())
    }

    /// [`ServingDataset::materialize`] over an analyzer-loaded rule program
    /// (`inferray_rules::analysis`) instead of a baked-in fragment: the rule
    /// file is parsed, checked and compiled against the dataset's
    /// dictionary, and every subsequent write recompiles it against the
    /// then-current dictionary and maintains the materialization through the
    /// same incremental machinery. `Err` carries the positioned diagnostics
    /// that make the file unloadable.
    pub fn materialize_with_rules(
        loaded: LoadedDataset,
        rules: &str,
        options: InferrayOptions,
    ) -> Result<(Self, (InferenceStats, Stages)), Vec<Diagnostic>> {
        let mut store = loaded.store;
        let mut dictionary = loaded.dictionary;
        let ruleset = analysis::load_ruleset(rules, &mut dictionary)?;
        // A rule constant may promote a resource the data already interned
        // (e.g. the data mentions `<urn:rel>` only in object position and a
        // rule uses it as a predicate); patch the store like the loader does.
        if dictionary.has_pending_promotions() {
            let remap: std::collections::HashMap<u64, u64> =
                dictionary.take_promotions().into_iter().collect();
            apply_promotion_remap(&mut store, &remap);
        }
        let reasoner = InferrayReasoner::with_ruleset(ruleset, options);
        Ok(Self::close(store, dictionary, reasoner, rules.into()))
    }

    /// [`ServingDataset::materialize`] or
    /// [`ServingDataset::materialize_with_rules`], whichever `program` names.
    pub fn materialize_program(
        loaded: LoadedDataset,
        program: impl Into<Program>,
        options: InferrayOptions,
    ) -> Result<(Self, (InferenceStats, Stages)), Vec<Diagnostic>> {
        match program.into() {
            Program::Fragment(fragment) => Ok(Self::materialize(loaded, fragment, options)),
            Program::Rules(rules) => Self::materialize_with_rules(loaded, &rules, options),
        }
    }

    /// Closes `store` under `reasoner` and publishes the result as epoch 0.
    fn close(
        mut store: TripleStore,
        dictionary: Dictionary,
        mut reasoner: InferrayReasoner,
        program: Program,
    ) -> (Self, (InferenceStats, Stages)) {
        store.finalize();
        let base = store.clone();
        let stats = reasoner.materialize(&mut store);
        let options = reasoner.options();
        let dataset = Self::from_parts(dictionary, base, store, 0, program, options);
        (dataset, (stats, reasoner.last_stages()))
    }

    /// Reassembles a dataset from externally persisted parts and publishes
    /// them as its first epoch, building the ⟨o,s⟩ caches the program reads
    /// (`Ruleset::object_reads`) that the store lacks.
    /// The caller supplies the exact state a previous process published:
    /// the dictionary, the explicit base, the materialized store, the epoch
    /// it was serving and the program it was closed under, so the rebuilt
    /// dataset continues the epoch sequence where that process stopped and
    /// subsequent writes behave byte-identically to it. A cold start with a
    /// log to replay comes here through [`Replay::publish`].
    pub fn from_parts(
        dictionary: Dictionary,
        base: TripleStore,
        materialized: TripleStore,
        epoch: u64,
        program: impl Into<Program>,
        options: InferrayOptions,
    ) -> Self {
        let program = program.into();
        let mut dictionary = Cow::Owned(dictionary);
        let object_reads = program.object_reads(&mut dictionary);
        ServingDataset {
            published: Handoff::holding(Published {
                // A first epoch may need several ⟨o,s⟩ caches: build them
                // side by side on the pool, largest first.
                snapshot: StoreSnapshot::prepare_with(
                    materialized,
                    epoch,
                    &object_reads,
                    |tasks| {
                        inferray_parallel::global().run_ordered(tasks);
                    },
                ),
                dictionary: Arc::new(dictionary.into_owned()),
            }),
            writer: Mutex::new(Writer {
                base,
                recycler: Recycler::new(),
            }),
            program,
            object_reads,
            options,
            validation: Mutex::new(None),
        }
    }

    /// The program every epoch of this dataset is closed under.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The reasoner options every write of this dataset runs with.
    pub fn options(&self) -> InferrayOptions {
        self.options
    }

    /// A mutually consistent `(dictionary, explicit base, snapshot)` triple
    /// for checkpointing: captured under the writer lock, so no concurrent
    /// [`ServingDataset::extend`] / [`ServingDataset::retract`] can publish
    /// between reading the base and sampling the epoch. The base is cloned
    /// — one pointer per table, since a write copies only the tables it
    /// changes; the dictionary and store are the shared `Arc`s the readers
    /// also see.
    pub fn persistable_state(&self) -> (Arc<Dictionary>, TripleStore, StoreSnapshot) {
        let writer = unpoison(self.writer.lock());
        let published = self.published.read_published();
        (
            published.dictionary,
            writer.base.clone(),
            published.snapshot,
        )
    }

    /// The store snapshot alone, for embedders that do not need the
    /// dictionary. The handoff itself stays private: all writes go through
    /// [`ServingDataset::extend`] and its siblings.
    pub fn store_snapshot(&self) -> StoreSnapshot {
        self.published.read_published().snapshot
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.store_snapshot().epoch()
    }

    /// The current `(store snapshot, dictionary)` pair, from one handoff
    /// sample: the dictionary encodes every term of the snapshot to the
    /// identifier the snapshot holds, and decodes every identifier of it.
    pub fn snapshot(&self) -> (StoreSnapshot, Arc<Dictionary>) {
        let published = self.published.read_published();
        (published.snapshot, published.dictionary)
    }

    /// Installs a shape program (docs/shapes.md) as a **write gate**: every
    /// subsequent [`ServingDataset::extend`] / [`ServingDataset::retract`]
    /// validates its candidate store *before* publishing, and refuses the
    /// write — base, dictionary and epoch keep their pre-write state — when
    /// the candidate violates a shape.
    ///
    /// The currently published snapshot is validated first: a snapshot that
    /// already violates the program would make every subsequent write
    /// unpublishable, so the gate refuses to arm
    /// ([`ShapeInstallError::Violations`]) and the dataset keeps serving
    /// ungated.
    pub fn install_shapes(&self, text: &str) -> Result<(), ShapeInstallError> {
        let analysis = shapes::analyze(text);
        let shape_count = analysis.shapes.len();
        let guard = unpoison(self.writer.lock());
        let Published {
            snapshot,
            dictionary,
        } = self.published.read_published();
        let compiled = analysis
            .compile(&dictionary)
            .map_err(ShapeInstallError::Program)?;
        let report = shapes::validate(
            &compiled,
            snapshot.store(),
            &dictionary,
            inferray_parallel::global(),
        );
        if !report.conforms() {
            let violations = render_violations(&compiled, &report, &dictionary, false);
            drop(guard);
            return Err(ShapeInstallError::Violations(violations));
        }
        let counters = ValidationCounters {
            full: 1,
            incremental: 0,
            rejected: 0,
            focus_checks: report.focus_checks,
        };
        *unpoison(self.validation.lock()) = Some(ShapeGate {
            analysis: Arc::new(analysis),
            shape_count,
            state: Some(GateState {
                epoch: snapshot.epoch(),
                report,
            }),
            counters,
        });
        drop(guard);
        Ok(())
    }

    /// The operator-visible state of the shape gate — `None` when no
    /// program is installed. A point read of the leaf mutex: safe to call
    /// from the server's `/status` path while a write validates.
    pub fn validation_status(&self) -> Option<ValidationStatus> {
        let gate = unpoison(self.validation.lock());
        gate.as_ref().map(|g| ValidationStatus {
            shapes: g.shape_count,
            validated_epoch: g.state.as_ref().map(|s| s.epoch),
            counters: g.counters,
        })
    }

    /// Validates a candidate store against the installed shapes (if any)
    /// before a write publishes it. `previous_store`/`previous_epoch` name
    /// the snapshot the candidate was derived from; `promoted` is whether
    /// this write promoted identifiers (renumbering ids the previous green
    /// report may reference, which forces a full re-validation).
    ///
    /// `Ok(None)` — no gate installed. `Ok(Some(report))` — green: the
    /// caller publishes and records the report against the new epoch.
    /// `Err` — the candidate violates the shapes; nothing must be
    /// published.
    fn check_shapes(
        &self,
        candidate: &TripleStore,
        previous_store: &TripleStore,
        previous_epoch: u64,
        dictionary: &Dictionary,
        promoted: bool,
    ) -> Result<Option<shapes::ValidationReport>, ShapeViolations> {
        // Leaf lock: copy what the validation needs, then release before
        // the (possibly long) validation run so `/status` stays live.
        let (analysis, previous) = {
            let gate = unpoison(self.validation.lock());
            let Some(gate) = gate.as_ref() else {
                return Ok(None);
            };
            let previous = gate
                .state
                .as_ref()
                .filter(|s| !promoted && s.epoch == previous_epoch)
                .map(|s| s.report.clone());
            (Arc::clone(&gate.analysis), previous)
        };
        let compiled = match analysis.compile(dictionary) {
            Ok(compiled) => compiled,
            Err(diags) => {
                // Unreachable by construction: only error-free programs are
                // installed, and whether compilation errs does not depend
                // on the dictionary. Refuse the write rather than panic or
                // silently skip the gate.
                let message = match diags.first() {
                    Some(d) => d.to_string(),
                    None => "shape program failed to recompile".to_string(),
                };
                return Err(ShapeViolations {
                    violations: vec![ShapeViolation {
                        focus: String::new(),
                        shape: String::new(),
                        path: String::new(),
                        line: 0,
                        col: 0,
                        message,
                    }],
                    total: 1,
                    focus_checks: 0,
                    incremental: false,
                });
            }
        };
        let (report, incremental) = match &previous {
            // The previous epoch was green and this write derived its
            // candidate from exactly that epoch without renumbering ids:
            // only nodes incident to changed pairs need re-checking.
            Some(previous) => (
                shapes::validate_delta(&compiled, previous_store, candidate, dictionary, previous),
                true,
            ),
            None => (
                shapes::validate(
                    &compiled,
                    candidate,
                    dictionary,
                    inferray_parallel::global(),
                ),
                false,
            ),
        };
        let green = report.conforms();
        {
            let mut gate = unpoison(self.validation.lock());
            if let Some(gate) = gate.as_mut() {
                if incremental {
                    gate.counters.incremental += 1;
                } else {
                    gate.counters.full += 1;
                }
                gate.counters.focus_checks += report.focus_checks;
                if !green {
                    gate.counters.rejected += 1;
                }
            }
        }
        if green {
            Ok(Some(report))
        } else {
            Err(render_violations(
                &compiled,
                &report,
                dictionary,
                incremental,
            ))
        }
    }

    /// Records a green validation against the epoch its write published,
    /// seeding the incremental validator of the next write.
    fn record_green(&self, epoch: u64, report: shapes::ValidationReport) {
        let mut gate = unpoison(self.validation.lock());
        if let Some(gate) = gate.as_mut() {
            gate.state = Some(GateState { epoch, report });
        }
    }

    /// The one write pipeline (docs/persistence.md): the [`step`] —
    /// encode Δ, compile the program, patch promotions, reason — on a
    /// draft of the published epoch, inside the live bracket: clone the
    /// epoch, then shape gate → `log` → publish the store and its
    /// dictionary as one value → recycle. The draft is a dictionary copied
    /// only if a term is new or promoted, and clones of the store and the
    /// base that copy only the tables they change. Every live write of
    /// every layer — asserts and retractions, in memory and durable — is
    /// this function; readers holding older snapshots are unaffected. A
    /// cold start runs the same step on the recovering state in place,
    /// outside the bracket ([`Replay`]).
    ///
    /// * [`WriteKind::Assert`] closes the delta under the program with
    ///   [`InferrayReasoner::materialize_delta`]; every triple of the delta
    ///   joins the explicit base, even one that was already derivable.
    /// * [`WriteKind::Retract`] runs delete–rederive
    ///   ([`InferrayReasoner::retract_delta`], docs/maintenance.md) and is
    ///   specified against the explicit base: `retract(Δ) ≡ rebuild(base ∖
    ///   Δ)`. Triples whose terms the dictionary has never seen, and triples
    ///   that were derived but never *asserted*, are ignored; when nothing
    ///   was removed no epoch is published. Retraction can *create* shape
    ///   violations (dropping a node under a `count [1..*]` minimum), so it
    ///   is gated like an assert.
    ///
    /// `log` is the durability stage: a no-op in memory, WAL append + fsync
    /// when the persistence layer supplies it. It runs only for a candidate
    /// that passed the gate and before anything is swapped in, so a refused
    /// write is never logged and a logged write never fails to apply. On any
    /// `Err` the private copies are dropped and nothing was published.
    fn write<'t>(
        &self,
        kind: WriteKind,
        triples: impl IntoIterator<Item = TripleRef<'t>>,
        log: impl FnOnce() -> Result<(), String>,
    ) -> Result<WriteOutcome, WriteError> {
        let mut writer = unpoison(self.writer.lock());
        let Writer { base, recycler } = &mut *writer;
        let mut clock = Instant::now();
        let pre = self.published.read_published();
        // Copied on first mutation: an assert that interns a term or
        // promotes a resource, or a rule program interning its constants.
        // An assert of known terms and a retraction under a fragment mutate
        // nothing and publish the same dictionary. The store and base clones
        // share every table; reasoning copies the ones it changes.
        let mut dictionary = Cow::Borrowed(&*pre.dictionary);
        let mut store = pre.snapshot.store().clone();
        let mut next_base = base.clone();
        let Step {
            stats,
            promoted,
            mut stages,
        } = step(
            &self.program,
            self.options,
            kind,
            triples,
            &mut dictionary,
            &mut next_base,
            &mut store,
            &mut clock,
        )?;
        let changed = stats.changed();

        // Gate, then log, then publish. A refusal or a failed log returns
        // here: every guard drops and the pre-write state stays current.
        let green = if changed {
            self.check_shapes(
                &store,
                pre.snapshot.store(),
                pre.snapshot.epoch(),
                &dictionary,
                promoted,
            )
            .map_err(WriteError::Shapes)?
        } else {
            None
        };
        stages.lap(Stage::Gate, &mut clock);
        log().map_err(WriteError::Log)?;
        stages.lap(Stage::Log, &mut clock);
        let published = if changed {
            let superseded_base = std::mem::replace(base, next_base);
            let dictionary = match dictionary {
                Cow::Owned(dictionary) => Arc::new(dictionary),
                Cow::Borrowed(_) => Arc::clone(&pre.dictionary),
            };
            let (published, ()) = self.published.publish_with(|current| {
                let next = Published {
                    snapshot: current.snapshot.next(store, &self.object_reads),
                    dictionary,
                };
                (next, ())
            });
            if let Some(report) = green {
                self.record_green(published.snapshot.epoch(), report);
            }
            // The publish dropped the epoch before `pre` from the handoff:
            // what earlier writes retired may be free now. Then this write
            // retires what it superseded, for a later write to reclaim.
            recycler.reclaim();
            recycler.retire(&superseded_base, base);
            recycler.retire(pre.snapshot.store(), published.snapshot.store());
            published.snapshot
        } else {
            pre.snapshot
        };
        stages.lap(Stage::Publish, &mut clock);
        // Begun by the durable layer after the publish; zero here.
        stages.add(Stage::Checkpoint, Duration::ZERO);
        drop(writer);
        Ok(WriteOutcome {
            stats,
            epoch: published.epoch(),
            triples: published.store().len(),
            stages,
        })
    }

    /// Lexes an N-Triples document and runs it through the write pipeline
    /// (see [`ServingDataset::extend`] / [`ServingDataset::retract`] for
    /// what the two kinds do). The statements stay borrowed slices of `text`
    /// until the encode stage interns them, as in the batch ingest. `log` is
    /// the durability stage: it runs after
    /// the candidate passed the shape gate and before anything publishes,
    /// and its `Err` aborts the write as [`WriteError::Log`]. In-memory
    /// callers pass `|| Ok(())`.
    pub fn write_ntriples(
        &self,
        kind: WriteKind,
        text: &str,
        log: impl FnOnce() -> Result<(), String>,
    ) -> Result<WriteOutcome, WriteError> {
        self.write(kind, lex_statements(text)?, log)
    }

    /// The in-memory write of owned triples: the pipeline sees their
    /// borrowed views, like the statements of a lexed document.
    fn write_triples(
        &self,
        kind: WriteKind,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<WriteOutcome, WriteError> {
        let triples: Vec<Triple> = triples.into_iter().collect();
        self.write(kind, triples.iter().map(TripleRef::from), || Ok(()))
    }

    /// Asserts decoded triples and incrementally re-materializes; publishes
    /// a new epoch. [`WriteError::Shapes`] means an installed shape program
    /// ([`ServingDataset::install_shapes`]) refused the candidate.
    pub fn extend(
        &self,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<WriteOutcome, WriteError> {
        self.write_triples(WriteKind::Assert, triples)
    }

    /// [`ServingDataset::extend`] from an N-Triples document.
    pub fn extend_ntriples(&self, text: &str) -> Result<WriteOutcome, WriteError> {
        self.write_ntriples(WriteKind::Assert, text, || Ok(()))
    }

    /// Retracts decoded triples from the explicit base and incrementally
    /// re-materializes (delete–rederive); publishes a new epoch unless
    /// nothing was removed.
    pub fn retract(
        &self,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<WriteOutcome, WriteError> {
        self.write_triples(WriteKind::Retract, triples)
    }

    /// [`ServingDataset::retract`] from an N-Triples document.
    pub fn retract_ntriples(&self, text: &str) -> Result<WriteOutcome, WriteError> {
        self.write_ntriples(WriteKind::Retract, text, || Ok(()))
    }

    /// Number of explicit (asserted) triples behind the current epoch.
    pub fn base_len(&self) -> usize {
        unpoison(self.writer.lock()).base.len()
    }
}

/// The statements of an N-Triples write body, as borrowed slices of it.
fn lex_statements(text: &str) -> Result<Vec<TripleRef<'_>>, LoadError> {
    let document = Chunk {
        text,
        first_line: 1,
    };
    let mut triples = Vec::new();
    lex_ntriples_chunk(document, |triple| triples.push(triple))?;
    Ok(triples)
}

/// What the step of a write did.
struct Step {
    stats: WriteStats,
    /// Whether the write promoted a resource to a property, renumbering it.
    promoted: bool,
    /// Encode and reason, with the reasoner's own stages inside reason.
    stages: Stages,
}

/// The step of a write, the one place that changes state: encode Δ into
/// `dictionary` → compile the program → patch promotions → reason over
/// `store` and `base`. All three change in place. A live write
/// ([`ServingDataset::write`]) hands it a draft of the published epoch — a
/// borrowed dictionary that [`Cow::to_mut`] copies on the first term it
/// interns, and store clones whose shared tables are copied as they are
/// written — and a cold start ([`Replay`]) the recovering state itself: an
/// owned dictionary and tables no one else holds, so nothing is copied. The
/// stages start at `clock`.
#[allow(clippy::too_many_arguments)]
fn step<'t>(
    program: &Program,
    options: InferrayOptions,
    kind: WriteKind,
    triples: impl IntoIterator<Item = TripleRef<'t>>,
    dictionary: &mut Cow<'_, Dictionary>,
    base: &mut TripleStore,
    store: &mut TripleStore,
    clock: &mut Instant,
) -> Result<Step, WriteError> {
    let mut delta: Vec<IdTriple> = Vec::new();
    for triple in triples {
        let TripleRef {
            subject,
            predicate,
            object,
        } = &triple;
        let encoded = match kind {
            // Known terms in positions that need no promotion encode
            // without a copy of the dictionary.
            WriteKind::Assert => Some(
                match dictionary.lookup_term_refs(subject, predicate, object) {
                    Some(known) => known,
                    None => dictionary
                        .to_mut()
                        .encode_term_refs(subject, predicate, object)
                        .map_err(|e| LoadError::Encode(e.to_string()))?,
                },
            ),
            // Terms absent from the dictionary cannot occur in any
            // triple of the store; predicates that were never promoted
            // to property ids cannot address a table.
            WriteKind::Retract => dictionary
                .id_of_ref(subject)
                .zip(dictionary.id_of_ref(predicate))
                .zip(dictionary.id_of_ref(object))
                .filter(|((_, p), _)| is_property_id(*p))
                .map(|((s, p), o)| IdTriple::new(s, p, o)),
        };
        if let Some(encoded) = encoded {
            delta.push(encoded);
        }
    }
    // Compile the rule program (if any) before draining promotions, so
    // its constants carry the same — possibly promoted — identifiers as
    // the delta and the store.
    let mut reasoner = InferrayReasoner::with_ruleset(program.ruleset(dictionary)?, options);
    // A delta may use an already-interned *resource* as a predicate,
    // which promotes it to a new property identifier. The store, the
    // explicit base and any delta triple encoded before the promotion
    // still carry the stale resource id in subject/object position; patch
    // them like the loader does before reasoning.
    let promoted = dictionary.has_pending_promotions();
    if promoted {
        let remap: std::collections::HashMap<u64, u64> =
            dictionary.to_mut().take_promotions().into_iter().collect();
        apply_promotion_remap(store, &remap);
        apply_promotion_remap(base, &remap);
        for triple in &mut delta {
            if let Some(&new_id) = remap.get(&triple.s) {
                triple.s = new_id;
            }
            if let Some(&new_id) = remap.get(&triple.o) {
                triple.o = new_id;
            }
        }
    }
    let mut stages = Stages::default();
    stages.lap(Stage::Encode, clock);
    let stats = match kind {
        WriteKind::Assert => {
            base.insert(delta.iter().copied());
            WriteStats::Asserted(reasoner.materialize_delta(store, delta))
        }
        WriteKind::Retract => WriteStats::Retracted(reasoner.retract_delta(store, base, delta)),
    };
    stages.lap(Stage::Reason, clock);
    stages += reasoner.last_stages();
    Ok(Step {
        stats,
        promoted,
        stages,
    })
}

/// A persisted epoch brought up to date before it serves — the recovery
/// path of the persistence layer (`inferray-persist`, docs/persistence.md).
///
/// It owns the image's dictionary, explicit base and materialized store.
/// There is no [`ServingDataset`] yet, so no reader can hold any of them:
/// [`Replay::ntriples`] runs each logged write through the live write's
/// step on them *in place* — no table and no dictionary is copied,
/// where the live bracket copies what a write changes to protect readers.
/// [`Replay::publish`] then publishes the result once, at the epoch the
/// process that logged the writes had reached.
#[derive(Debug)]
pub struct Replay {
    /// Owned: the step's [`Cow::to_mut`] hands it out without a copy.
    dictionary: Cow<'static, Dictionary>,
    base: TripleStore,
    store: TripleStore,
    epoch: u64,
    program: Program,
    options: InferrayOptions,
}

impl Replay {
    /// Takes the exact state a previous process published — the dictionary,
    /// the explicit base, the materialized store, the epoch it was serving
    /// and the program it was closed under — and builds the ⟨o,s⟩ cache of
    /// each table the program reads by object (`Ruleset::object_reads`)
    /// that has none yet, side by side on the pool, largest first: the
    /// first epoch carries them, and built now the replayed writes keep
    /// them patched instead of rebuilding the ones they read. An image read
    /// for a cold start comes with them built.
    pub fn new(
        dictionary: Dictionary,
        base: TripleStore,
        mut materialized: TripleStore,
        epoch: u64,
        program: impl Into<Program>,
        options: InferrayOptions,
    ) -> Replay {
        let program = program.into();
        let mut dictionary = Cow::Owned(dictionary);
        let object_reads = program.object_reads(&mut dictionary);
        materialized.finalize();
        inferray_parallel::global().run_ordered(materialized.os_cache_tasks(&object_reads));
        Replay {
            dictionary,
            base,
            store: materialized,
            epoch,
            program,
            options,
        }
    }

    /// Replays one logged write, an N-Triples body of `kind`: the step of
    /// [`ServingDataset::write_ntriples`] without its bracket. No shape gate
    /// runs and nothing is logged — the record passed both when it was
    /// written. A write that changed the store advances the epoch by one,
    /// as its publish did live; a retraction that removed nothing does not.
    /// On `Err` the state is part-way through the write and must not serve.
    pub fn ntriples(&mut self, kind: WriteKind, text: &str) -> Result<WriteStats, WriteError> {
        let triples = lex_statements(text)?;
        let Step { stats, .. } = step(
            &self.program,
            self.options,
            kind,
            triples,
            &mut self.dictionary,
            &mut self.base,
            &mut self.store,
            &mut Instant::now(),
        )?;
        if stats.changed() {
            self.epoch += 1;
        }
        Ok(stats)
    }

    /// Publishes the replayed state as the dataset's first epoch. Only the
    /// tables whose ⟨o,s⟩ caches the writes dropped build theirs here.
    pub fn publish(self) -> ServingDataset {
        ServingDataset::from_parts(
            self.dictionary.into_owned(),
            self.base,
            self.store,
            self.epoch,
            self.program,
            self.options,
        )
    }
}

/// Rewrites every stale resource identifier of `store` to its promoted
/// property identifier, in place, and re-finalizes (the loader does the
/// same for freshly parsed datasets).
fn apply_promotion_remap(store: &mut TripleStore, remap: &std::collections::HashMap<u64, u64>) {
    store.remap_ids(remap);
    store.finalize();
}

/// Renders a non-conforming report for the refusal error: focus nodes and
/// offending values decode through `dict` to N-Triples syntax, shape names
/// and clause positions come from the compiled program, and the list is
/// capped at [`ShapeViolations::REPORT_CAP`].
fn render_violations(
    compiled: &shapes::CompiledShapes,
    report: &shapes::ValidationReport,
    dict: &Dictionary,
    incremental: bool,
) -> ShapeViolations {
    let violations = report
        .violations
        .iter()
        .take(ShapeViolations::REPORT_CAP)
        .map(|v| {
            let (shape, path, message) = describe_violation(compiled, v, dict);
            ShapeViolation {
                focus: decode_term(dict, v.focus),
                shape,
                path,
                line: v.line,
                col: v.col,
                message,
            }
        })
        .collect();
    ShapeViolations {
        violations,
        total: report.violations.len(),
        focus_checks: report.focus_checks,
        incremental,
    }
}

fn decode_term(dict: &Dictionary, id: u64) -> String {
    match dict.text(id) {
        Some(text) => text.to_owned(),
        // An id the dictionary cannot decode should not occur; render it
        // opaquely rather than fail the (already failing) write twice over.
        None => format!("#{id}"),
    }
}

/// Shape name, path IRI and human-readable message for one violation. The
/// violated clause is located by its source position, which lets datatype /
/// class / node-reference messages name what the clause demanded.
fn describe_violation(
    compiled: &shapes::CompiledShapes,
    v: &shapes::Violation,
    dict: &Dictionary,
) -> (String, String, String) {
    use shapes::{Check, ViolationKind};
    let shape = compiled.shapes.get(v.shape);
    let constraint = shape.and_then(|s| s.constraints.get(v.constraint));
    let name = match shape {
        Some(s) => s.name.clone(),
        None => format!("#{}", v.shape),
    };
    let path = constraint.map(|c| c.path_iri.clone()).unwrap_or_default();
    let span = shapes::Span {
        line: v.line,
        col: v.col,
    };
    let check = constraint.and_then(|c| c.checks.iter().find(|k| k.span() == span));
    let message = match v.kind {
        ViolationKind::CountBelow { found, min } => {
            format!("{found} value(s), at least {min} required")
        }
        ViolationKind::CountAbove { found, max } => {
            format!("{found} value(s), at most {max} allowed")
        }
        ViolationKind::Datatype { value } => match check {
            Some(Check::Datatype { iri, .. }) => format!(
                "value {} is not a literal of datatype <{iri}>",
                decode_term(dict, value)
            ),
            _ => format!("value {} has the wrong datatype", decode_term(dict, value)),
        },
        ViolationKind::Class { value } => match check {
            Some(Check::Class {
                class: Some(class), ..
            }) => format!(
                "value {} is not of class {}",
                decode_term(dict, value),
                decode_term(dict, *class)
            ),
            _ => format!(
                "value {} is not of the required class",
                decode_term(dict, value)
            ),
        },
        ViolationKind::In { value } => {
            format!(
                "value {} is not in the enumerated set",
                decode_term(dict, value)
            )
        }
        ViolationKind::Node { value, shape } => {
            let referenced = match compiled.shapes.get(shape) {
                Some(s) => s.name.clone(),
                None => format!("#{shape}"),
            };
            format!(
                "value {} does not conform to shape {referenced}",
                decode_term(dict, value)
            )
        }
    };
    (name, path, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::{vocab, Term, Triple};

    fn family() -> Graph {
        let mut g = Graph::new();
        g.insert_iris(
            "http://ex/human",
            vocab::RDFS_SUB_CLASS_OF,
            "http://ex/mammal",
        );
        g.insert_iris(
            "http://ex/mammal",
            vocab::RDFS_SUB_CLASS_OF,
            "http://ex/animal",
        );
        g.insert_iris("http://ex/Bart", vocab::RDF_TYPE, "http://ex/human");
        g
    }

    #[test]
    fn reason_graph_materializes_the_running_example() {
        let input = family();
        let result = reason_graph(&input, Fragment::RdfsDefault).unwrap();
        assert_eq!(result.stats.inferred_triples(), 3);
        assert!(result.graph.contains(&Triple::iris(
            "http://ex/Bart",
            vocab::RDF_TYPE,
            "http://ex/animal"
        )));
        assert!(result.graph.contains(&Triple::iris(
            "http://ex/human",
            vocab::RDFS_SUB_CLASS_OF,
            "http://ex/animal"
        )));
        // The input is preserved.
        assert!(input.is_subset(&result.graph));
        // inferred() returns exactly the difference.
        assert_eq!(result.inferred(&input).len(), 3);
    }

    #[test]
    fn reason_ntriples_and_turtle_agree() {
        let nt = "\
<http://ex/human> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/mammal> .\n\
<http://ex/Bart> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n";
        let ttl = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://ex/> .
ex:human rdfs:subClassOf ex:mammal .
ex:Bart a ex:human .
"#;
        let from_nt = reason_ntriples(nt, Fragment::RdfsDefault).unwrap();
        let from_ttl = reason_turtle(ttl, Fragment::RdfsDefault).unwrap();
        assert_eq!(from_nt.graph, from_ttl.graph);
    }

    #[test]
    fn parse_errors_surface() {
        assert!(reason_ntriples("<broken>", Fragment::RdfsDefault).is_err());
    }

    #[test]
    fn empty_graph_reasons_to_empty_graph() {
        let result = reason_graph(&Graph::new(), Fragment::RdfsPlus).unwrap();
        assert!(result.graph.is_empty());
        assert_eq!(result.stats.inferred_triples(), 0);
    }

    // -- ServingDataset ----------------------------------------------------

    fn serving_family() -> ServingDataset {
        let loaded = inferray_parser::loader::load_graph(&family()).unwrap();
        let (dataset, (stats, _)) =
            ServingDataset::materialize(loaded, Fragment::RdfsDefault, InferrayOptions::default());
        assert_eq!(stats.inferred_triples(), 3);
        dataset
    }

    fn contains(dataset: &ServingDataset, s: &str, p: &str, o: &str) -> bool {
        let (snapshot, dictionary) = dataset.snapshot();
        let triple = Triple::iris(s, p, o);
        let encode = |t: &Term| dictionary.id_of(t);
        match (
            encode(&triple.subject),
            encode(&triple.predicate),
            encode(&triple.object),
        ) {
            (Some(s), Some(p), Some(o)) => {
                snapshot.contains(&inferray_model::IdTriple::new(s, p, o))
            }
            _ => false,
        }
    }

    #[test]
    fn serving_dataset_publishes_the_materialization_as_epoch_zero() {
        let dataset = serving_family();
        assert_eq!(dataset.epoch(), 0);
        assert_eq!(dataset.program(), &Program::Fragment(Fragment::RdfsDefault));
        let (snapshot, _) = dataset.snapshot();
        assert_eq!(snapshot.len(), 6);
        assert!(contains(
            &dataset,
            "http://ex/Bart",
            vocab::RDF_TYPE,
            "http://ex/animal"
        ));
    }

    #[test]
    fn extend_publishes_a_new_epoch_and_old_snapshots_stay_frozen() {
        let dataset = serving_family();
        let (old_snapshot, _) = dataset.snapshot();

        let outcome = dataset
            .extend([Triple::iris(
                "http://ex/Lisa",
                vocab::RDF_TYPE,
                "http://ex/human",
            )])
            .unwrap();
        // Lisa a human ⇒ mammal, animal inferred incrementally.
        let WriteStats::Asserted(stats) = outcome.stats else {
            panic!("an assert reports inference statistics");
        };
        assert_eq!(stats.inferred_triples(), 2);
        assert_eq!((outcome.epoch, outcome.triples), (1, 9));
        assert_eq!(dataset.epoch(), 1);

        assert!(contains(
            &dataset,
            "http://ex/Lisa",
            vocab::RDF_TYPE,
            "http://ex/animal"
        ));
        // The pre-extend snapshot still holds exactly the old triple set.
        assert_eq!(old_snapshot.epoch(), 0);
        assert_eq!(old_snapshot.len(), 6);
    }

    #[test]
    fn extend_ntriples_interns_new_terms_for_new_readers() {
        let dataset = serving_family();
        dataset
            .extend_ntriples(
                "<http://ex/Maggie> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n",
            )
            .unwrap();
        assert!(contains(
            &dataset,
            "http://ex/Maggie",
            vocab::RDF_TYPE,
            "http://ex/mammal"
        ));
        assert!(dataset.extend_ntriples("<broken").is_err());
        assert_eq!(dataset.epoch(), 1, "a failed extend publishes nothing");
    }

    #[test]
    fn extend_handles_property_promotions() {
        // 'rel' is first interned as a plain resource (object position)...
        let loaded = inferray_parser::loader::load_graph(&{
            let mut g = Graph::new();
            g.insert_iris("http://ex/a", "http://ex/about", "http://ex/rel");
            g
        })
        .unwrap();
        let (dataset, _) =
            ServingDataset::materialize(loaded, Fragment::RdfsDefault, InferrayOptions::default());
        // ...and the delta now uses it as a predicate, forcing a promotion
        // that must rewrite the copied store before reasoning.
        dataset
            .extend([Triple::iris("http://ex/x", "http://ex/rel", "http://ex/y")])
            .unwrap();
        assert!(contains(
            &dataset,
            "http://ex/x",
            "http://ex/rel",
            "http://ex/y"
        ));
        assert!(contains(
            &dataset,
            "http://ex/a",
            "http://ex/about",
            "http://ex/rel"
        ));
        let (snapshot, dictionary) = dataset.snapshot();
        let rel = dictionary.id_of(&Term::iri("http://ex/rel")).unwrap();
        assert!(inferray_model::ids::is_property_id(rel));
        assert_eq!(snapshot.table(rel).unwrap().len(), 1);
    }

    #[test]
    fn retract_unasserts_a_triple_and_its_cone() {
        let dataset = serving_family();
        assert_eq!(dataset.base_len(), 3);
        dataset
            .extend([Triple::iris(
                "http://ex/Lisa",
                vocab::RDF_TYPE,
                "http://ex/human",
            )])
            .unwrap();
        assert_eq!(dataset.base_len(), 4);
        let (old_snapshot, _) = dataset.snapshot();
        assert_eq!(old_snapshot.len(), 9);

        let outcome = dataset
            .retract([Triple::iris(
                "http://ex/Lisa",
                vocab::RDF_TYPE,
                "http://ex/human",
            )])
            .unwrap();
        let (stats, _) = (outcome.retraction().unwrap(), outcome.epoch);
        assert_eq!(stats.retracted_explicit, 1);
        assert_eq!(stats.net_removed(), 3, "Lisa a human/mammal/animal gone");
        assert_eq!(dataset.epoch(), 2);
        assert_eq!(dataset.base_len(), 3);
        assert!(!contains(
            &dataset,
            "http://ex/Lisa",
            vocab::RDF_TYPE,
            "http://ex/animal"
        ));
        // Bart's cone is untouched, and the pre-retraction snapshot still
        // answers from its frozen epoch.
        assert!(contains(
            &dataset,
            "http://ex/Bart",
            vocab::RDF_TYPE,
            "http://ex/animal"
        ));
        assert_eq!(old_snapshot.len(), 9);

        // Retracting a derived-but-never-asserted triple is a no-op and
        // publishes nothing.
        let outcome = dataset
            .retract([Triple::iris(
                "http://ex/Bart",
                vocab::RDF_TYPE,
                "http://ex/mammal",
            )])
            .unwrap();
        let (stats, _) = (outcome.retraction().unwrap(), outcome.epoch);
        assert_eq!(stats.retracted_explicit, 0);
        assert_eq!(dataset.epoch(), 2);
        assert!(contains(
            &dataset,
            "http://ex/Bart",
            vocab::RDF_TYPE,
            "http://ex/mammal"
        ));
    }

    #[test]
    fn retract_ntriples_and_unknown_terms() {
        let dataset = serving_family();
        // Unknown terms can't be in the store: nothing to do, no new epoch.
        let outcome = dataset
            .retract([Triple::iris(
                "http://ex/NoSuch",
                vocab::RDF_TYPE,
                "http://ex/human",
            )])
            .unwrap();
        let (stats, _) = (outcome.retraction().unwrap(), outcome.epoch);
        assert_eq!(stats.requested, 0);
        assert_eq!(dataset.epoch(), 0);
        // A predicate interned as a plain resource addresses no table.
        let outcome = dataset
            .retract([Triple::iris(
                "http://ex/Bart",
                "http://ex/human", // a resource, not a property
                "http://ex/mammal",
            )])
            .unwrap();
        let (stats, _) = (outcome.retraction().unwrap(), outcome.epoch);
        assert_eq!(stats.requested, 0);

        let outcome = dataset
            .retract_ntriples(
                "<http://ex/Bart> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n",
            )
            .unwrap();
        let (stats, _) = (outcome.retraction().unwrap(), outcome.epoch);
        assert_eq!(stats.retracted_explicit, 1);
        assert_eq!(dataset.epoch(), 1);
        assert!(!contains(
            &dataset,
            "http://ex/Bart",
            vocab::RDF_TYPE,
            "http://ex/human"
        ));
        assert!(dataset.retract_ntriples("<broken").is_err());
    }

    #[test]
    fn extend_then_retract_round_trips_to_the_original_materialization() {
        let dataset = serving_family();
        let (snapshot_before, _) = dataset.snapshot();
        let before: Vec<_> = snapshot_before.iter_triples().collect();
        dataset
            .extend([Triple::iris(
                "http://ex/Maggie",
                vocab::RDF_TYPE,
                "http://ex/human",
            )])
            .unwrap();
        dataset
            .retract([Triple::iris(
                "http://ex/Maggie",
                vocab::RDF_TYPE,
                "http://ex/human",
            )])
            .unwrap();
        let (snapshot_after, dictionary) = dataset.snapshot();
        let after: Vec<_> = snapshot_after.iter_triples().collect();
        assert_eq!(before, after, "extend ∘ retract is the identity");
        // Maggie's identifier survives in the append-only dictionary.
        assert!(dictionary.id_of(&Term::iri("http://ex/Maggie")).is_some());
    }

    #[test]
    fn from_parts_resumes_byte_identically() {
        let dataset = serving_family();
        dataset
            .extend([Triple::iris(
                "http://ex/Lisa",
                vocab::RDF_TYPE,
                "http://ex/human",
            )])
            .unwrap();
        let (dictionary, base, snapshot) = dataset.persistable_state();

        // Rebuild from the captured parts (what a recovery does)...
        let rebuilt = ServingDataset::from_parts(
            (*dictionary).clone(),
            base.clone(),
            snapshot.store().clone(),
            snapshot.epoch(),
            dataset.program().clone(),
            dataset.options(),
        );
        assert_eq!(rebuilt.epoch(), dataset.epoch());
        let (rebuilt_snapshot, rebuilt_dictionary) = rebuilt.snapshot();
        assert_eq!(rebuilt_snapshot.store(), snapshot.store());
        assert_eq!(&*rebuilt_dictionary, &*dictionary);

        // ...and the *next* write produces the same epoch and triples on
        // both the original and the rebuilt dataset.
        let next = [Triple::iris(
            "http://ex/Maggie",
            vocab::RDF_TYPE,
            "http://ex/human",
        )];
        dataset.extend(next.clone()).unwrap();
        rebuilt.extend(next).unwrap();
        assert_eq!(rebuilt.epoch(), dataset.epoch());
        let (a, _) = dataset.snapshot();
        let (b, _) = rebuilt.snapshot();
        assert_eq!(a.store(), b.store());
        assert_eq!(dataset.base_len(), rebuilt.base_len());
    }

    #[test]
    fn serving_with_a_rule_program_extends_and_retracts_live() {
        let rules = "@prefix ex: <http://ex/> .\n\
                     rule gp: ?x ex:parent ?y, ?y ex:parent ?z => ?x ex:grandparent ?z .\n";
        let mut g = Graph::new();
        g.insert_iris("http://ex/a", "http://ex/parent", "http://ex/b");
        let loaded = inferray_parser::loader::load_graph(&g).unwrap();
        let (dataset, (stats, _)) =
            ServingDataset::materialize_with_rules(loaded, rules, InferrayOptions::default())
                .unwrap();
        assert_eq!(stats.inferred_triples(), 0, "no chain of two yet");

        // The delta completes the chain: the custom rule fires through the
        // incremental path and the result is published as a new epoch.
        dataset
            .extend([Triple::iris(
                "http://ex/b",
                "http://ex/parent",
                "http://ex/c",
            )])
            .unwrap();
        assert_eq!(dataset.epoch(), 1);
        assert!(contains(
            &dataset,
            "http://ex/a",
            "http://ex/grandparent",
            "http://ex/c"
        ));

        // Retracting the asserted edge un-derives the grandparent triple.
        let outcome = dataset
            .retract([Triple::iris(
                "http://ex/b",
                "http://ex/parent",
                "http://ex/c",
            )])
            .unwrap();
        let (rstats, epoch) = (outcome.retraction().unwrap(), outcome.epoch);
        assert_eq!(rstats.retracted_explicit, 1);
        assert_eq!(epoch, 2);
        assert!(!contains(
            &dataset,
            "http://ex/a",
            "http://ex/grandparent",
            "http://ex/c"
        ));
        assert!(contains(
            &dataset,
            "http://ex/a",
            "http://ex/parent",
            "http://ex/b"
        ));
    }

    #[test]
    fn serving_rejects_a_rule_program_with_errors() {
        let loaded = inferray_parser::loader::load_graph(&family()).unwrap();
        let err = ServingDataset::materialize_with_rules(
            loaded,
            "rule bad: ?x <urn:p> ?y => ?x <urn:q> ?z .",
            InferrayOptions::default(),
        )
        .expect_err("unsafe head variable");
        assert!(err.iter().any(|d| d.code == "RA003"));
    }

    #[test]
    fn concurrent_extends_and_readers_agree_at_the_end() {
        let dataset = std::sync::Arc::new(serving_family());
        std::thread::scope(|scope| {
            for t in 0..3u32 {
                let dataset = std::sync::Arc::clone(&dataset);
                scope.spawn(move || {
                    for i in 0..5u32 {
                        dataset
                            .extend([Triple::iris(
                                format!("http://ex/w{t}n{i}"),
                                vocab::RDF_TYPE,
                                "http://ex/human",
                            )])
                            .unwrap();
                    }
                });
            }
            // Readers sample consistent pairs while writers publish.
            for _ in 0..20 {
                let (snapshot, dictionary) = dataset.snapshot();
                for triple in snapshot.iter_triples() {
                    assert!(
                        dictionary.decode_triple(triple).is_some(),
                        "snapshot id not decodable by its paired dictionary"
                    );
                }
            }
        });
        assert_eq!(dataset.epoch(), 15);
        // 15 new humans, each with human/mammal/animal types.
        let (snapshot, _) = dataset.snapshot();
        assert_eq!(snapshot.len(), 6 + 15 * 3);
    }

    #[test]
    fn shape_gate_refuses_violating_writes_and_tracks_counters() {
        let dataset = serving_family();
        assert!(dataset.validation_status().is_none());

        // A program with errors never installs.
        let err = dataset
            .install_shapes("shape S targets all { <http://ex/name> count [3..1] ; } .")
            .expect_err("contradictory bounds");
        assert!(matches!(err, ShapeInstallError::Program(_)));

        // A program the published snapshot already violates refuses to arm.
        let err = dataset
            .install_shapes(
                "shape Named targets class <http://ex/human> { <http://ex/name> count [1..*] ; } .",
            )
            .expect_err("Bart has no name");
        assert!(matches!(err, ShapeInstallError::Violations(_)));
        assert!(dataset.validation_status().is_none());

        // At most one name per human: the current snapshot conforms.
        dataset
            .install_shapes(
                "shape Human targets class <http://ex/human> { <http://ex/name> count [0..1] ; } .",
            )
            .unwrap();
        let status = dataset.validation_status().unwrap();
        assert_eq!(status.shapes, 1);
        assert_eq!(status.validated_epoch, Some(0));
        assert_eq!(status.counters.full, 1);

        // A conforming write goes through the incremental validator.
        dataset
            .extend_ntriples("<http://ex/Bart> <http://ex/name> \"Bart\" .\n")
            .unwrap();
        assert_eq!(dataset.epoch(), 1);
        let status = dataset.validation_status().unwrap();
        assert_eq!(status.validated_epoch, Some(1));
        assert_eq!(status.counters.incremental, 1);
        assert_eq!(status.counters.rejected, 0);

        // A second name violates `count [0..1]`: the write is refused and
        // nothing — epoch, base, snapshot — changes.
        let err = dataset
            .extend_ntriples("<http://ex/Bart> <http://ex/name> \"Bartholomew\" .\n")
            .expect_err("two names");
        let WriteError::Shapes(violations) = err else {
            panic!("expected a shape refusal");
        };
        assert_eq!(violations.total, 1);
        assert!(violations.incremental);
        assert_eq!(violations.violations[0].shape, "Human");
        assert_eq!(violations.violations[0].focus, "<http://ex/Bart>");
        assert!(violations.violations[0].message.contains("at most 1"));
        assert!(violations.json().contains("\"line\":1"));
        assert_eq!(dataset.epoch(), 1, "a refused extend publishes nothing");
        assert_eq!(dataset.base_len(), 4);
        let status = dataset.validation_status().unwrap();
        assert_eq!(status.counters.rejected, 1);
        assert_eq!(status.validated_epoch, Some(1));

        // Retraction is gated too: removing Bart's name keeps conformance.
        let outcome = dataset
            .retract_ntriples("<http://ex/Bart> <http://ex/name> \"Bart\" .\n")
            .unwrap();
        let (stats, epoch) = (outcome.retraction().unwrap(), outcome.epoch);
        assert_eq!(stats.retracted_explicit, 1);
        assert_eq!(epoch, 2);
        assert_eq!(
            dataset.validation_status().unwrap().validated_epoch,
            Some(2)
        );
    }

    #[test]
    fn the_log_stage_runs_after_the_gate_and_before_the_publish() {
        let dataset = serving_family();
        dataset
            .install_shapes(
                "shape Human targets class <http://ex/human> { <http://ex/name> count [0..1] ; } .",
            )
            .unwrap();
        let name = |name: &str| format!("<http://ex/Bart> <http://ex/name> \"{name}\" .\n");
        let mut logged = 0;

        // An accepted write is logged exactly once, before its epoch exists.
        let outcome = dataset
            .write_ntriples(WriteKind::Assert, &name("Bart"), || {
                logged += 1;
                assert_eq!(dataset.epoch(), 0, "logged after the publish");
                Ok(())
            })
            .unwrap();
        assert_eq!((logged, outcome.epoch), (1, 1));

        // Refused by the gate, or by the parser: the log stage never runs.
        for refused in [name("Bartholomew"), "<broken".to_string()] {
            dataset
                .write_ntriples(WriteKind::Assert, &refused, || {
                    logged += 1;
                    Ok(())
                })
                .expect_err("refused");
        }
        assert_eq!(logged, 1);

        // A write that passed the gate but could not be logged publishes
        // nothing: epoch, base and the gate's ledger keep their state.
        let err = dataset
            .write_ntriples(WriteKind::Retract, &name("Bart"), || {
                Err("disk full".to_string())
            })
            .expect_err("not logged");
        assert!(matches!(err, WriteError::Log(reason) if reason == "disk full"));
        assert_eq!(dataset.epoch(), 1);
        assert_eq!(dataset.base_len(), 4);
        assert_eq!(
            dataset.validation_status().unwrap().validated_epoch,
            Some(1)
        );

        // A retraction that removes nothing has nothing to gate or publish,
        // but it is an accepted write: it is logged like any other.
        let outcome = dataset
            .write_ntriples(WriteKind::Retract, &name("Nobody"), || {
                logged += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!((logged, outcome.epoch, outcome.triples), (2, 1, 7));
    }

    #[test]
    fn shape_gate_falls_back_to_full_validation_after_a_promotion() {
        // 'rel' is interned as a plain resource first (object position)...
        let loaded = inferray_parser::loader::load_graph(&{
            let mut g = Graph::new();
            g.insert_iris("http://ex/a", "http://ex/about", "http://ex/rel");
            g
        })
        .unwrap();
        let (dataset, _) =
            ServingDataset::materialize(loaded, Fragment::RdfsDefault, InferrayOptions::default());
        dataset
            .install_shapes(
                "shape About targets subjects-of <http://ex/about> \
                 { <http://ex/about> count [1..2] ; } .",
            )
            .unwrap();
        // ...and this delta promotes it to a property, renumbering ids the
        // previous green report may reference: the gate must re-validate
        // the full candidate instead of trusting the stale report.
        dataset
            .extend([Triple::iris("http://ex/x", "http://ex/rel", "http://ex/y")])
            .unwrap();
        let status = dataset.validation_status().unwrap();
        assert_eq!(status.counters.full, 2, "install + post-promotion write");
        assert_eq!(status.counters.incremental, 0);
        assert_eq!(status.validated_epoch, Some(1));
    }
}
