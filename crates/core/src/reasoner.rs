//! The Inferray reasoner: Algorithm 1 of the paper.
//!
//! Both phases of an iteration run on the persistent worker pool of
//! `inferray-parallel` (the seed spawned fresh OS threads per rule, per
//! iteration):
//!
//! * **rule firing** (§4.3) — one task per rule, each with its own
//!   [`InferredBuffer`] and its own timer. From iteration 2 on, only the
//!   rules whose input tables received new pairs in the previous iteration
//!   are scheduled (the rule-dependency graph of §4.3; see
//!   `docs/rule-scheduling.md`), which makes late iterations — where the
//!   frontier touches one or two properties — nearly free;
//! * **table update** (Figure 5) — the per-property sort + dedup + merge is
//!   embarrassingly parallel across properties: the affected tables are
//!   *taken out* of the store, a table that dominates the iteration is
//!   split by subject range across the pool's workers, the others are
//!   dealt largest-first across the pool's lanes (each lane owning a
//!   reusable [`SortScratch`]), merged with the adaptive merge of
//!   `inferray-store`, and re-installed in ascending
//!   property order. Results and statistics are byte-for-byte identical to
//!   the sequential path (see the `determinism_parallel` integration test).
//!
//! The loop pays only for what is new:
//!
//! * **the first iteration reads the store itself.** Algorithm 1 sets
//!   `new = main` (line 3); [`Frontier::Whole`] says so without a copy —
//!   the store is handed to the executors as both halves of the
//!   [`RuleContext`], which lets each of them run one semi-naive pass
//!   instead of two identical ones;
//! * **the closure stage is the θ rules' first firing.** When
//!   [`run_closure_stage`] closed the transitive tables in this call,
//!   iteration 1 leaves the θ rules out: re-closing a closed table derives
//!   nothing. They come back through the ordinary input-driven schedule the
//!   moment a closed table receives pairs. The unscheduled reference mode
//!   fires everything, so `scheduled ≡ unscheduled` proves the skip;
//! * **the schema stratum is closed before the loop.** The rules whose
//!   tables only they write (`Ruleset::stratum`: SCM-DOM1/2, SCM-RNG1/2, …)
//!   run to their own fixed point over their own tables right after the
//!   closure stage, so the data rules fire once over closed domains, ranges
//!   and hierarchies instead of once per schema step;
//! * **a firing proven redundant is left out.** From iteration 2 on, while
//!   no stratum table has entered a frontier, a rule whose changed inputs
//!   were fed only by producers it is proven redundant over
//!   (`Ruleset::elisions`) is dropped from the schedule, and an iteration
//!   whose schedule is empty is not run;
//! * **⟨o,s⟩ caches are built by the rule that reads them**, inside the
//!   firing phase (`PropertyTable::object_pairs`); the loop pre-builds
//!   none.

use crate::closure_stage::{run_closure_stage, ClosureStageStats};
use crate::iteration::{IterationProfile, IterationSample, RuleSample, TableSample};
use crate::options::InferrayOptions;
use crate::stages::{Stage, Stages};
use inferray_model::ids::is_property_id;
use inferray_model::IdTriple;
use inferray_parallel::ThreadPool;
use inferray_rules::{
    analysis, Fragment, InferenceStats, Materializer, RuleContext, RuleRef, Ruleset, Survivors,
};
use inferray_sort::{Lanes, SortScratch};
use inferray_store::{
    as_pairs, merge_new_parts_ranged, merge_new_parts_with, os_builds, AccessProfile,
    InferredBuffer, MergeOutcome, PropertyTable, TripleStore,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The forward-chaining, sort-merge-join, fixed-point reasoner.
///
/// ```
/// use inferray_core::{Fragment, InferrayReasoner, Materializer, TripleStore};
/// use inferray_dictionary::wellknown;
/// use inferray_model::IdTriple;
///
/// // human ⊑ mammal ⊑ animal, Bart a human.
/// let human = 5_000_000_001u64;
/// let mammal = human + 1;
/// let animal = human + 2;
/// let bart = human + 3;
/// let mut store = TripleStore::from_triples([
///     IdTriple::new(human, wellknown::RDFS_SUB_CLASS_OF, mammal),
///     IdTriple::new(mammal, wellknown::RDFS_SUB_CLASS_OF, animal),
///     IdTriple::new(bart, wellknown::RDF_TYPE, human),
/// ]);
/// let mut reasoner = InferrayReasoner::new(Fragment::RdfsDefault);
/// let stats = reasoner.materialize(&mut store);
/// assert_eq!(stats.inferred_triples(), 3); // human⊑animal, Bart a mammal, Bart a animal
/// assert!(store.contains(&IdTriple::new(bart, wellknown::RDF_TYPE, animal)));
/// ```
#[derive(Debug, Clone)]
pub struct InferrayReasoner {
    ruleset: Ruleset,
    options: InferrayOptions,
    last_closure_stats: ClosureStageStats,
    last_iteration_profile: IterationProfile,
    last_stages: Stages,
}

/// The result of updating one property table.
struct PropertyUpdate {
    /// The property whose table was updated.
    p: u64,
    /// The genuinely new pairs (the next iteration's frontier for `p`).
    new_table: PropertyTable,
    /// Counters of the merge.
    outcome: MergeOutcome,
    /// Lanes the update ran on.
    lanes: usize,
    /// Wall-clock time of the update.
    time: Duration,
}

/// A table whose raw pairs exceed both this floor and an equal share of the
/// iteration's raw pairs per range is updated on several lanes, split by
/// subject range ([`merge_new_parts_ranged`]). Below it, splitting costs
/// more in handoffs than it saves.
const RANGED_UPDATE_FLOOR: usize = 64 * 1024;

/// [`Lanes`] over the reasoner's pool.
struct PoolLanes<'a>(&'a ThreadPool);

impl Lanes for PoolLanes<'_> {
    fn run<'env, R, F>(&self, tasks: Vec<F>) -> Vec<R>
    where
        F: FnOnce() -> R + Send + 'env,
        R: Send + 'env,
    {
        self.0.run_ordered(tasks)
    }
}

/// The per-iteration table-update stage (Figure 5) over every property that
/// received inferred pairs: take the affected tables out of the store;
/// sort, dedup and merge each one from the parts its rules emitted, where
/// they lie; and re-install the updated tables. Returns the per-property
/// results in ascending property order regardless of scheduling.
///
/// With a pool of two workers or more, a table that dominates the
/// iteration — more raw pairs than [`RANGED_UPDATE_FLOOR`] and than an
/// equal share per worker — is updated first, split into one subject range
/// per worker (the calling thread helps, so each range has a core). The
/// other tables are then dealt across the pool's lanes (workers and the
/// caller, one reusable [`SortScratch`] each; sequentially with
/// `scratches[0]` when `pool` is `None`), one task per lane, balanced by
/// size, not by position: tables are assigned largest-first, each to the
/// lane with the fewest raw pairs so far, so a big table's lane takes
/// nothing else until the others have caught up. Ties go to the lower
/// property and the lower lane: the deal is a function of the sizes alone.
fn run_table_update(
    pool: Option<&ThreadPool>,
    store: &mut TripleStore,
    tables: InferredParts,
    scratches: &mut [SortScratch],
) -> Vec<PropertyUpdate> {
    let raw = |parts: &Vec<Vec<u64>>| parts.iter().map(|part| as_pairs(part).len()).sum::<usize>();
    let total: usize = tables.values().map(raw).sum();
    let ranges = pool.map_or(1, ThreadPool::threads).min(scratches.len());
    let (split, tables): (InferredParts, InferredParts) =
        tables.into_iter().partition(|(_, parts)| {
            let pairs = raw(parts);
            ranges > 1 && pairs > RANGED_UPDATE_FLOOR && pairs > total / ranges
        });
    // A table the store shares with an earlier epoch is copied only if its
    // merge adds a pair (`MergeTarget`).
    let update =
        |p: u64, mut table: Arc<PropertyTable>, parts: Vec<Vec<u64>>, scratch: &mut SortScratch| {
            let start = Instant::now();
            let (new_table, outcome) = merge_new_parts_with(&mut table, parts, scratch);
            (p, table, new_table, outcome, 1, start.elapsed())
        };
    let mut results = Vec::with_capacity(split.len() + tables.len());
    for (p, parts) in split {
        let start = Instant::now();
        let mut table = store.take_table(p).unwrap_or_default();
        let lanes = PoolLanes(pool.expect("tables are split on a pool"));
        let scratches = &mut scratches[..ranges];
        match merge_new_parts_ranged(&mut table, parts, scratches, &lanes) {
            Ok((new_table, outcome)) => {
                results.push((p, table, new_table, outcome, ranges, start.elapsed()));
            }
            Err(parts) => results.push(update(p, table, parts, &mut scratches[0])),
        }
    }
    match pool {
        Some(pool) if tables.len() > 1 => {
            // Take the affected tables out of the store so each lane owns
            // its tables outright — no locks, no aliasing.
            let lanes = scratches.len().min(tables.len()).max(1);
            let mut chunks: Vec<Vec<_>> = (0..lanes).map(|_| Vec::new()).collect();
            let mut loads = vec![0usize; lanes];
            let mut tables: Vec<(usize, u64, Vec<Vec<u64>>)> = tables
                .into_iter()
                .map(|(p, parts)| (raw(&parts), p, parts))
                .collect();
            tables.sort_by_key(|&(len, p, _)| (std::cmp::Reverse(len), p));
            for (len, p, parts) in tables {
                let lane = (0..lanes)
                    .min_by_key(|&lane| loads[lane])
                    .expect("at least one lane");
                loads[lane] += len;
                let table = store.take_table(p).unwrap_or_default();
                chunks[lane].push((p, table, parts));
            }
            let tasks: Vec<_> = chunks
                .into_iter()
                .zip(scratches.iter_mut())
                .map(|(chunk, scratch)| {
                    move || {
                        chunk
                            .into_iter()
                            .map(|(p, table, parts)| update(p, table, parts, scratch))
                            .collect::<Vec<_>>()
                    }
                })
                .collect();
            results.extend(pool.run_ordered(tasks).into_iter().flatten());
        }
        _ => {
            let scratch = scratches.first_mut().expect("at least one scratch");
            for (p, parts) in tables {
                let table = store.take_table(p).unwrap_or_default();
                results.push(update(p, table, parts, scratch));
            }
        }
    }
    results.sort_unstable_by_key(|(p, ..)| *p);
    results
        .into_iter()
        .map(|(p, table, new_table, outcome, lanes, time)| {
            store.set_table(p, table);
            PropertyUpdate {
                p,
                new_table,
                outcome,
                lanes,
                time,
            }
        })
        .collect()
}

/// Fires one rule of `ruleset` over `ctx`, appending to `out`: its text,
/// built-in or custom, through the kernel its shape picks
/// ([`analysis::apply_compiled`]).
fn fire_one(ruleset: &Ruleset, rule: RuleRef, ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    analysis::apply_compiled(ruleset.compiled(rule), ctx, out);
}

impl InferrayReasoner {
    /// A reasoner for one of the standard fragments, with default options.
    pub fn new(fragment: Fragment) -> Self {
        Self::with_options(fragment, InferrayOptions::default())
    }

    /// A reasoner for a standard fragment with explicit options.
    pub fn with_options(fragment: Fragment, options: InferrayOptions) -> Self {
        Self::with_ruleset(Ruleset::for_fragment(fragment), options)
    }

    /// A reasoner over an explicit ruleset: one loaded from a rule file
    /// ([`Ruleset::from_analyzed`]) or a schema stratum
    /// ([`Ruleset::stratum_ruleset`]).
    pub fn with_ruleset(ruleset: Ruleset, options: InferrayOptions) -> Self {
        InferrayReasoner {
            ruleset,
            options,
            last_closure_stats: ClosureStageStats::default(),
            last_iteration_profile: IterationProfile::default(),
            last_stages: Stages::default(),
        }
    }

    /// The ruleset this reasoner applies.
    pub fn ruleset(&self) -> &Ruleset {
        &self.ruleset
    }

    /// The options this reasoner runs with.
    pub fn options(&self) -> InferrayOptions {
        self.options
    }

    /// Statistics of the closure stage of the most recent run.
    pub fn last_closure_stats(&self) -> ClosureStageStats {
        self.last_closure_stats
    }

    /// Per-iteration timing breakdown (fire vs. table update) of the most
    /// recent run.
    pub fn last_iteration_profile(&self) -> &IterationProfile {
        &self.last_iteration_profile
    }

    /// Where the most recent run's time went: for
    /// [`materialize`](Materializer::materialize) the closure stage, the
    /// schema stratum, and the fixed point's firing and update phases (the
    /// iteration profile's totals); for
    /// [`retract_delta`](Self::retract_delta) its four phases, every one
    /// present (zero when it did not run). Empty after
    /// [`materialize_delta`](Self::materialize_delta).
    pub fn last_stages(&self) -> Stages {
        self.last_stages
    }

    /// Applies the given rules of `ruleset` once over (`main`, `new`),
    /// returning every rule's raw pairs per table, one [`RuleSample`] per
    /// rule and which rules emitted into each table. Each rule owns its
    /// buffer; with a pool each rule also runs as its own task (§4.3). A
    /// rule's pairs for a table stay the vector it pushed them into — one
    /// part per rule, in rule order, so the parts are
    /// schedule-independent — and the update stage sorts them where they
    /// lie. Every rule runs through [`fire_one`].
    fn fire_rules(
        ruleset: &Ruleset,
        pool: Option<&ThreadPool>,
        main: &TripleStore,
        new: &TripleStore,
        rules: &[RuleRef],
    ) -> Fired {
        // One rule, timed by the task that runs it: nothing is shared.
        let fire = |rule: RuleRef| {
            let (start, os_before) = (Instant::now(), os_builds());
            let mut buffer = InferredBuffer::new();
            fire_one(ruleset, rule, &RuleContext::new(main, new), &mut buffer);
            let sample = RuleSample {
                rule,
                raw_pairs: buffer.len(),
                fire: start.elapsed(),
                os_cache: os_builds().since(os_before),
            };
            (buffer, sample)
        };
        let fired: Vec<(InferredBuffer, RuleSample)> = match pool {
            Some(pool) if rules.len() > 1 => {
                pool.run_ordered(rules.iter().map(|&rule| move || fire(rule)).collect())
            }
            _ => rules.iter().map(|&rule| fire(rule)).collect(),
        };
        let mut parts = InferredParts::new();
        let mut samples = Vec::with_capacity(fired.len());
        let mut fed_by: BTreeMap<u64, Vec<RuleRef>> = BTreeMap::new();
        for (buffer, sample) in fired {
            for (p, pairs) in buffer.into_iter_tables() {
                fed_by.entry(p).or_default().push(sample.rule);
                parts.entry(p).or_default().push(pairs);
            }
            samples.push(sample);
        }
        Fired {
            parts,
            samples,
            fed_by,
        }
    }

    /// Incrementally maintains an **already materialized** store after new
    /// triples are asserted.
    ///
    /// The paper notes that forward chaining "requires full materialization
    /// after deletion" (§1) but additions do not: the fixed point can be
    /// restarted with the delta as the semi-naive frontier. The dedicated
    /// up-front closure stage is not re-run — new edges on transitive
    /// properties are picked up by the in-loop closure kernel, which
    /// re-closes a table only when it or its declaration actually received
    /// pairs; the schema stratum of a
    /// materialized store is closed, so firings proven redundant are elided
    /// from iteration 2 on unless the delta or a later frontier brings
    /// stratum pairs. The ⟨o,s⟩ caches of the
    /// tables the delta reached are dropped and rebuilt only where a rule
    /// of the cascade reads one; snapshot publication builds the rest, as
    /// it always did, before a query can look for them.
    ///
    /// The result is identical to re-materializing the extended input from
    /// scratch (see the `incremental_maintenance` integration tests), at the
    /// cost of work proportional to what the delta can newly derive.
    ///
    /// Returns the statistics of the incremental run; `input_triples` counts
    /// the store *after* the delta was asserted, so
    /// [`InferenceStats::inferred_triples`] is the number of triples the
    /// delta caused to be derived.
    pub fn materialize_delta(
        &mut self,
        store: &mut TripleStore,
        delta: impl IntoIterator<Item = IdTriple>,
    ) -> InferenceStats {
        let start = Instant::now();
        let mut profile = AccessProfile::default();
        store.finalize();
        self.last_closure_stats = ClosureStageStats::default();
        self.last_stages = Stages::default();

        // Group the delta by property and merge it into the store, keeping
        // only the genuinely new pairs as the semi-naive frontier.
        let mut scratch = SortScratch::new();
        let mut by_property: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for triple in delta {
            let pairs = by_property.entry(triple.p).or_default();
            pairs.push(triple.s);
            pairs.push(triple.o);
        }
        let mut new = TripleStore::new();
        for (p, pairs) in by_property {
            profile.sequential(pairs.len() as u64);
            let (new_table, _) = store.merge_property_with(p, pairs, &mut scratch);
            if !new_table.is_empty() {
                profile.allocate(2 * new_table.len() as u64);
                new.replace_table_sorted(p, new_table.into_pairs());
            }
        }
        let input_triples = store.len();

        let (outcome, iterations) = if new.is_empty() {
            Default::default()
        } else {
            self.run_fixed_point(&self.ruleset, store, Frontier::Delta(new), &mut profile)
        };
        self.last_iteration_profile = iterations;

        InferenceStats {
            input_triples,
            output_triples: store.len(),
            iterations: outcome.iterations,
            derived_raw: outcome.derived_raw,
            duplicates_removed: outcome.duplicates_removed,
            duration: start.elapsed(),
            profile,
        }
    }

    /// Incrementally maintains an **already materialized** store after
    /// explicit triples are retracted — the delete–rederive (DRed) algorithm
    /// of the classic Datalog maintenance literature, with the store touched
    /// once (docs/maintenance.md).
    ///
    /// `store` must be the materialization of `base` under this reasoner's
    /// fragment and options; `base` holds the *explicit* (asserted) triples.
    /// The requested `delta` is intersected with `base`: retracting a triple
    /// that was never asserted is a no-op, even if the triple is currently
    /// entailed (it stays derivable, so the result of rebuilding from
    /// `base ∖ Δ` still contains it).
    ///
    /// The algorithm runs four phases, and nothing leaves the store before
    /// the third:
    ///
    /// 1. **over-delete** — starting from the explicit deletions, repeatedly
    ///    fire the (input-scheduled) rules semi-naively with the deletion
    ///    frontier as `new` to collect every one-step consequence of a
    ///    deleted triple, and continue with the consequences that are not
    ///    already in the cone and not explicitly asserted. The cone gathers
    ///    in a `gone` store; the store itself is only read. The closure
    ///    kernel only emits pairs *absent* from the closed main table, so
    ///    the closures' cones are collected by conservatively marking the
    ///    whole derived part of every affected closed table instead.
    ///    Explicit triples are never over-deleted.
    /// 2. **probe** — every triple of the cone is checked with the one-step
    ///    support probe of each rule's text ([`analysis::supports`], which
    ///    narrows or replaces it for the shapes whose kernel derives
    ///    something other than the text) through the [`Survivors`] view `store ∖ gone`,
    ///    restricted per property to the rules whose *output* signature,
    ///    derived from the same text ([`Ruleset::rederive_refs`]), reaches
    ///    it. The supported ones, `R`, stay where they are.
    /// 3. **net delete** — `gone ∖ R` leaves the store, one
    ///    [`TripleStore::remove_pairs`] per table. A table whose cone is
    ///    fully supported is never written, so a store that shares it with
    ///    an earlier epoch still does.
    /// 4. **cascade** — the fixed point restarts with `R` as its frontier.
    ///    Triples missing at greater derivation height have a missing
    ///    premise in `R` and are reached by the cascade, so one-step probes
    ///    suffice.
    ///
    /// With `schedule_rules` disabled, phases 2–4 are the reference instead:
    /// the whole cone leaves the store and the full fixed point re-runs over
    /// the survivors — what the equivalence suite compares against.
    ///
    /// The result is byte-identical — per-table pair arrays, dictionary
    /// identifiers, promotion state — to re-materializing `base ∖ Δ` from
    /// scratch (proven by `tests/retraction_equivalence.rs`), at a cost
    /// proportional to the deleted cone plus one output-restricted probe
    /// round.
    pub fn retract_delta(
        &mut self,
        store: &mut TripleStore,
        base: &mut TripleStore,
        delta: impl IntoIterator<Item = IdTriple>,
    ) -> RetractionStats {
        use Stage::{Cascade, NetDelete, OverDelete, Probe};
        store.finalize();
        base.finalize();
        self.last_closure_stats = ClosureStageStats::default();
        self.last_iteration_profile = IterationProfile::default();
        self.last_stages = Stages::default();

        let requested: BTreeSet<IdTriple> = delta.into_iter().collect();
        let explicit: Vec<IdTriple> = requested
            .iter()
            .copied()
            .filter(|t| is_property_id(t.p) && base.contains(t))
            .collect();
        let mut stats = RetractionStats {
            requested: requested.len(),
            output_triples: store.len(),
            ..RetractionStats::default()
        };
        // Every phase is in the record, zero until it runs.
        for phase in [OverDelete, Probe, NetDelete, Cascade] {
            self.last_stages.add(phase, Duration::ZERO);
        }
        if explicit.is_empty() {
            return stats;
        }
        stats.retracted_explicit = explicit.len();
        base.retract(explicit.iter().copied());

        // Phase 1: the cone, over-deleted logically. Every triple of it —
        // explicit or derived — is also a rederivation candidate: an
        // explicitly retracted triple that is still entailed by the
        // surviving base must stay (it is merely no longer asserted).
        let mut clock = Instant::now();
        let seeds =
            TripleStore::from_triples(explicit.iter().copied().filter(|t| store.contains(t)));
        let seeded = seeds.len();
        let gone = self.over_delete(store, base, seeds);
        stats.over_deleted = gone.len() - seeded;
        self.last_stages.lap(OverDelete, &mut clock);

        let size_before = store.len();
        let mut profile = AccessProfile::default();
        if self.options.schedule_rules {
            // Phase 2: probe the cone against the survivors.
            let (supported, net) = self.probe_cone(store, &gone);
            stats.supported = supported.len();
            self.last_stages.lap(Probe, &mut clock);

            // Phase 3: the net change leaves the store.
            for (p, pairs) in &net {
                store.remove_pairs(*p, pairs);
            }
            self.last_stages.lap(NetDelete, &mut clock);

            // Phase 4: cascade from what stayed. `R` is in the store
            // already, so it is the frontier without a merge.
            if !supported.is_empty() {
                let frontier = Frontier::Delta(supported);
                let (outcome, iterations) =
                    self.run_fixed_point(&self.ruleset, store, frontier, &mut profile);
                self.last_iteration_profile = iterations;
                stats.iterations = outcome.iterations;
            }
        } else {
            // Reference path (scheduling disabled): the whole cone leaves
            // the store, then the full fixed point re-runs over the
            // survivors, all of them new.
            for (p, table) in gone.iter_tables() {
                store.remove_pairs(p, table.pairs());
            }
            self.last_stages.lap(NetDelete, &mut clock);
            if !store.is_empty() && !gone.is_empty() {
                let frontier = Frontier::Whole {
                    theta_closed: false,
                    stratum_closed: false,
                };
                let (outcome, iterations) =
                    self.run_fixed_point(&self.ruleset, store, frontier, &mut profile);
                self.last_iteration_profile = iterations;
                stats.iterations = outcome.iterations;
            }
        }
        self.last_stages.lap(Cascade, &mut clock);

        // What the cone lost and the rederivation restored: `R` and the
        // cascade's pairs, against the store with the whole cone removed.
        stats.rederived = store.len() + gone.len() - size_before;
        stats.profile = profile;
        stats.output_triples = store.len();
        stats
    }

    /// Phase 1 of [`InferrayReasoner::retract_delta`]: the over-deletion
    /// cone of `seeds`, the explicit deletions present in `store`. Only
    /// `store` is read, so the executors keep seeing each frontier inside
    /// `main`, as the semi-naive contract needs; the cone gathers in the
    /// returned store.
    ///
    /// A consequence joins the next frontier when it is present, not in the
    /// cone yet and not explicitly asserted. The cone equals what removing
    /// each frontier before the next round would collect: an instance whose
    /// other premise an earlier round put in the cone fired in that round,
    /// with this premise still in `main`, so its head is in the cone or the
    /// base already.
    fn over_delete(
        &self,
        store: &TripleStore,
        base: &TripleStore,
        seeds: TripleStore,
    ) -> TripleStore {
        let pool = if self.options.parallel {
            Some(inferray_parallel::global())
        } else {
            None
        };
        let mut scratch = SortScratch::new();
        let mut gone = TripleStore::new();
        let mut frontier = seeds;
        while !frontier.is_empty() {
            // Fire the rules that read the frontier's tables (the §4.3
            // input signatures), with the frontier as `new`: the
            // semi-naive executors then emit exactly the one-step
            // consequences that use at least one deleted premise. The
            // closures are excluded — their kernel cannot see
            // "un-derivable" pairs — and handled below.
            let scheduled: Vec<RuleRef> = if self.options.schedule_rules {
                self.ruleset.scheduled_refs(store, &frontier)
            } else {
                self.ruleset.all_refs()
            }
            .into_iter()
            .filter(|&rule| !self.ruleset.closes(rule))
            .collect();
            let mut candidates =
                Self::fire_rules(&self.ruleset, pool, store, &frontier, &scheduled).parts;
            self.collect_theta_over_deletions(
                Survivors::without(store, &gone),
                &frontier,
                &mut candidates,
            );

            // Every round grows `gone` by its frontier; the next frontier
            // is every consequence still outside it and not asserted.
            for (p, table) in frontier.iter_tables() {
                gone.merge_property_with(p, table.pairs().to_vec(), &mut scratch);
            }
            let survivors = Survivors::without(store, &gone);
            let mut next = TripleStore::new();
            for (p, parts) in candidates {
                let Some(table) = store.table(p) else {
                    continue;
                };
                for &[s, o] in parts.iter().flat_map(|part| as_pairs(part)) {
                    if table.contains_pair(s, o)
                        && !survivors.is_gone(s, p, o)
                        && !base.contains(&IdTriple::new(s, p, o))
                    {
                        next.add_pair(p, s, o);
                    }
                }
            }
            next.finalize();
            frontier = next;
        }
        gone
    }

    /// Phase 2 of [`InferrayReasoner::retract_delta`]: splits the cone
    /// `gone` into the triples one-step supported by the survivors
    /// `store ∖ gone` — returned as a store — and, per table, the
    /// ⟨s,o⟩-sorted pairs that must leave. Per property, only the rules
    /// whose output signature reaches that table are probed, each through
    /// its compiled text ([`analysis::supports`]), built-in or custom alike.
    fn probe_cone(
        &self,
        store: &TripleStore,
        gone: &TripleStore,
    ) -> (TripleStore, Vec<(u64, Vec<u64>)>) {
        let survivors = Survivors::without(store, gone);
        let mut supported = TripleStore::new();
        let mut net = Vec::new();
        for (p, table) in gone.iter_tables() {
            let rules = self.ruleset.rederive_refs(store, &BTreeSet::from([p]));
            let (mut kept, mut lost) = (Vec::new(), Vec::new());
            for (s, o) in table.iter_pairs() {
                let candidate = IdTriple::new(s, p, o);
                let holds = rules.iter().any(|&rule| {
                    analysis::supports(self.ruleset.compiled(rule), survivors, candidate)
                });
                if holds { &mut kept } else { &mut lost }.extend([s, o]);
            }
            if !kept.is_empty() {
                supported.replace_table_sorted(p, kept);
            }
            if !lost.is_empty() {
                net.push((p, lost));
            }
        }
        (supported, net)
    }

    /// Runs the schema stratum to its own fixed point through
    /// [`InferrayReasoner::run_fixed_point`], over the stratum's tables
    /// only: they are taken out of `store`, closed in a store of their own
    /// and put back. No stratum rule reads or writes any other table.
    fn close_stratum(
        &self,
        store: &mut TripleStore,
        theta_closed: bool,
        profile: &mut AccessProfile,
    ) -> FixedPointOutcome {
        let tables = self.ruleset.stratum_tables();
        let mut schema = TripleStore::new();
        for &p in tables {
            if let Some(table) = store.take_table(p) {
                schema.set_table(p, table);
            }
        }
        let frontier = Frontier::Whole {
            theta_closed,
            stratum_closed: false,
        };
        let stratum = self.ruleset.stratum_ruleset();
        let (outcome, _) = self.run_fixed_point(&stratum, &mut schema, frontier, profile);
        for &p in tables {
            if let Some(table) = schema.take_table(p) {
                store.set_table(p, table);
            }
        }
        outcome
    }

    /// Marks the closure rules' over-deletion candidates: when a table a
    /// closure closes loses pairs (or loses its declaration), every pair of
    /// that table becomes a deletion candidate — the explicit-base filter of
    /// the caller keeps asserted edges alive, and rederivation re-closes
    /// whatever the surviving edges still entail. A table is dumped whole,
    /// cone included (the caller drops what is in the cone already): a
    /// table in the frontier while its declaration (if it has one)
    /// survives, and a table whose declaration is in the frontier.
    fn collect_theta_over_deletions(
        &self,
        survivors: Survivors<'_>,
        frontier: &TripleStore,
        out: &mut InferredParts,
    ) {
        let store = survivors.store();
        let changed: BTreeSet<u64> = frontier.property_ids().collect();
        for (_, closure) in self.ruleset.closures() {
            let in_frontier = closure
                .tables(survivors)
                .into_iter()
                .filter(|p| changed.contains(p));
            let undeclared = closure.declared_in(Survivors::all(frontier));
            for p in in_frontier.chain(undeclared) {
                if let Some(table) = store.table(p).filter(|table| !table.is_empty()) {
                    out.entry(p).or_default().push(table.pairs().to_vec());
                }
            }
        }
    }

    /// The fixed-point loop of Algorithm 1 (lines 4–8) over the rules of
    /// `ruleset`, shared by the full materialization (and the schema
    /// stratum's pass before it), the incremental addition path and the
    /// rederivation half of the retraction path. Returns the counters and
    /// the iteration profile of the run.
    ///
    /// `frontier` is what iteration 1 treats as new, and with it which rules
    /// iteration 1 fires (see [`Frontier`]); from iteration 2 on the
    /// frontier is the previous iteration's new pairs and the ordinary
    /// input-driven scheduling applies, less the elided firings while the
    /// schema stratum stays closed. The loop ends at the fixed point, or as
    /// soon as the schedule is empty: an iteration that fires nothing
    /// derives nothing.
    fn run_fixed_point(
        &self,
        ruleset: &Ruleset,
        store: &mut TripleStore,
        frontier: Frontier,
        profile: &mut AccessProfile,
    ) -> (FixedPointOutcome, IterationProfile) {
        let pool = if self.options.parallel {
            Some(inferray_parallel::global())
        } else {
            None
        };
        // One sort scratch per execution lane (workers + the calling
        // thread), created once per run and reused across iterations: the
        // steady state performs zero sort allocations.
        let lanes = pool.map_or(1, |p| p.threads() + 1);
        let mut scratches: Vec<SortScratch> = (0..lanes).map(|_| SortScratch::new()).collect();

        let touches_stratum = |new: &TripleStore| {
            ruleset
                .stratum_tables()
                .iter()
                .any(|&p| new.table(p).is_some_and(|t| !t.is_empty()))
        };
        // `None`: the store itself is the frontier (iteration 1 of a full
        // materialization) — nothing is copied to say that all is new.
        let (mut new, theta_closed, mut stratum_closed) = match frontier {
            Frontier::Whole {
                theta_closed,
                stratum_closed,
            } => (None, theta_closed, stratum_closed),
            Frontier::Delta(delta) => {
                // A materialized store has a closed stratum; a delta that
                // brings no stratum pairs leaves it closed.
                let closed = !touches_stratum(&delta);
                (Some(delta), false, closed)
            }
        };
        let mut iteration_profile = IterationProfile::default();
        let mut outcome = FixedPointOutcome::default();
        let mut fed_by: BTreeMap<u64, Vec<RuleRef>> = BTreeMap::new();
        let total_rules = ruleset.len();
        while !new.as_ref().unwrap_or(&*store).is_empty() {
            let frontier: &TripleStore = new.as_ref().unwrap_or(&*store);

            // Line 5: fire the scheduled rules. Over the whole store every
            // input is "changed", so everything fires — except the θ rules
            // when the closure stage has just closed their tables and the
            // schema stratum when its own pass has: that *was* their first
            // firing. Over a delta (the incremental path, and every later
            // iteration of any path) only the rules whose input tables
            // received new pairs — exactly the tables of the frontier — can
            // derive anything but duplicates (§4.3); the store is a fixed
            // point of the others. While the stratum is closed, a rule whose
            // changed inputs were fed only by producers it is proven
            // redundant over is left out too. The `schedule_rules` escape
            // hatch forces the full ruleset everywhere.
            let scheduled: Vec<RuleRef> = if !self.options.schedule_rules {
                ruleset.all_refs()
            } else if new.is_none() {
                ruleset.whole_store_refs(theta_closed, stratum_closed)
            } else if stratum_closed && !fed_by.is_empty() {
                ruleset.scheduled_refs_elided(store, frontier, &fed_by)
            } else {
                ruleset.scheduled_refs(store, frontier)
            };
            if scheduled.is_empty() {
                break;
            }
            outcome.iterations += 1;
            let fire_start = Instant::now();
            let Fired {
                parts,
                samples: rules,
                fed_by: emitted,
            } = Self::fire_rules(ruleset, pool, store, frontier, &scheduled);
            fed_by = emitted;
            // The caches the rules built on demand are reported apart from
            // the joins they were built for, and charged to the access
            // profile as built: the pairs actually sorted, not the caches
            // no rule read.
            let os_cache: Duration = rules.iter().map(|r| r.os_cache.time).sum();
            let os_pairs: usize = rules.iter().map(|r| r.os_cache.pairs).sum();
            profile.sequential(2 * os_pairs as u64);
            let fire = fire_start.elapsed();
            let raw_pairs: usize = rules.iter().map(|rule| rule.raw_pairs).sum();
            outcome.derived_raw += raw_pairs;

            // Lines 6-7: per-property sort + dedup + merge (Figure 5),
            // parallel across properties and, for a dominating table,
            // across subject ranges.
            let update_start = Instant::now();
            let properties_touched = parts.len();
            let results = run_table_update(pool, store, parts, &mut scratches);

            let mut next_new = TripleStore::new();
            let mut new_pairs = 0usize;
            let mut tables = Vec::with_capacity(results.len());
            for result in results {
                let merge = result.outcome;
                tables.push(TableSample {
                    property: result.p,
                    raw_pairs: merge.inferred_raw,
                    new_pairs: merge.new_pairs,
                    lanes: result.lanes,
                    time: result.time,
                });
                profile.sequential(2 * merge.inferred_raw as u64);
                profile.sequential(2 * (merge.inferred_raw + result.new_table.len()) as u64);
                outcome.duplicates_removed +=
                    merge.duplicates_within_inferred + merge.duplicates_against_main;
                new_pairs += merge.new_pairs;
                if !result.new_table.is_empty() {
                    profile.allocate(2 * result.new_table.len() as u64);
                    next_new.replace_table_sorted(result.p, result.new_table.into_pairs());
                }
            }
            iteration_profile.samples.push(IterationSample {
                iteration: outcome.iterations,
                os_cache,
                fire,
                update: update_start.elapsed(),
                raw_pairs,
                new_pairs,
                properties_touched,
                rules_fired: scheduled.len(),
                rules_skipped: total_rules - scheduled.len(),
                rules,
                tables,
            });
            // A stratum pair entering the frontier re-opens the stratum:
            // from here on the schedule is exactly the §4.3 one.
            stratum_closed &= !touches_stratum(&next_new);
            new = Some(next_new);
        }
        (outcome, iteration_profile)
    }
}

/// Per table, the raw pairs of every rule that emitted into it: one part
/// per rule, in rule order.
type InferredParts = BTreeMap<u64, Vec<Vec<u64>>>;

/// What one firing phase produced.
struct Fired {
    /// Every rule's raw pairs, per table.
    parts: InferredParts,
    /// One row per fired rule.
    samples: Vec<RuleSample>,
    /// For each table that received pairs, the rules that emitted them.
    fed_by: BTreeMap<u64, Vec<RuleRef>>,
}

/// Counters accumulated by one run of the fixed-point loop.
#[derive(Debug, Clone, Copy, Default)]
struct FixedPointOutcome {
    iterations: usize,
    derived_raw: usize,
    duplicates_removed: usize,
}

/// What the first iteration of [`InferrayReasoner::run_fixed_point`] reads
/// as `new` — which also decides the rules it fires (later iterations
/// always read the previous iteration's new pairs under the input-driven
/// §4.3 schedule).
enum Frontier {
    /// The store itself (Algorithm 1, line 3: `new = main`), handed to the
    /// executors as both halves of the context. The complete ruleset fires,
    /// minus the θ rules when `theta_closed` says the closure stage closed
    /// their tables in this same call, and minus the schema stratum when
    /// `stratum_closed` says its own pass did.
    Whole {
        /// [`run_closure_stage`] ran just before the loop.
        theta_closed: bool,
        /// The schema stratum was run to its fixed point just before the
        /// loop; elision applies from iteration 2 on.
        stratum_closed: bool,
    },
    /// Pairs just merged into a store that was a fixed point before — the
    /// incremental addition path. The input-driven schedule applies from
    /// the start; elision from iteration 2 on, if the delta brings no
    /// stratum pairs.
    Delta(TripleStore),
}

/// Statistics of one [`InferrayReasoner::retract_delta`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetractionStats {
    /// Distinct triples the caller asked to retract.
    pub requested: usize,
    /// Requested triples that were explicitly asserted (present in `base`)
    /// and therefore actually removed.
    pub retracted_explicit: usize,
    /// Derived triples in the over-deletion cone (beyond the explicit
    /// ones).
    pub over_deleted: usize,
    /// Triples of the cone, explicit ones included, that the probe found
    /// one-step supported by the survivors: they never left the store.
    /// Zero on the unscheduled reference path, which probes nothing.
    pub supported: usize,
    /// Triples of the cone back in the store after the retraction (they
    /// were still entailed by the surviving base): the supported ones and
    /// what the cascade re-derived from them.
    pub rederived: usize,
    /// Fixed-point iterations of the rederivation phase.
    pub iterations: usize,
    /// Triples in the store after the retraction.
    pub output_triples: usize,
    /// Software memory-access profile of the rederivation phase.
    pub profile: AccessProfile,
}

impl RetractionStats {
    /// Net triples the store lost: explicit removals plus the over-deleted
    /// cone, minus what rederivation restored.
    pub fn net_removed(&self) -> usize {
        self.retracted_explicit + self.over_deleted - self.rederived
    }
}

impl Materializer for InferrayReasoner {
    fn name(&self) -> &'static str {
        "inferray"
    }

    fn materialize(&mut self, store: &mut TripleStore) -> InferenceStats {
        let start = Instant::now();
        let mut profile = AccessProfile::default();
        store.finalize();
        let input_triples = store.len();

        // Step 1 (Algorithm 1, line 2): dedicated transitive-closure stage,
        // over the tables of the ruleset's closures.
        let theta_closed = !self.options.skip_closure_stage;
        self.last_closure_stats = ClosureStageStats::default();
        self.last_stages = Stages::default();
        let mut clock = Instant::now();
        if theta_closed {
            self.last_closure_stats =
                run_closure_stage(store, self.ruleset.closures(), &mut profile);
            self.last_stages.lap(Stage::Closure, &mut clock);
        }

        // Then the schema stratum, to its own fixed point, over its own
        // tables: the data loop starts from closed domains, ranges and
        // hierarchies. The two references (`without_closure_stage`,
        // `unscheduled`) leave the stratum to the loop, as it always was.
        // (An empty stratum is closed as it stands.)
        let stratum_closed = self.options.schedule_rules && !self.options.skip_closure_stage;
        if stratum_closed && !self.ruleset.stratum().is_empty() {
            let stratum = self.close_stratum(store, theta_closed, &mut profile);
            self.last_closure_stats.stratum_iterations = stratum.iterations;
            self.last_closure_stats.stratum_pairs_added =
                stratum.derived_raw - stratum.duplicates_removed;
            self.last_stages.lap(Stage::Stratum, &mut clock);
        }

        // Steps 2-3 (lines 3-8): the fixed point, with new == main on the
        // first iteration.
        let frontier = Frontier::Whole {
            theta_closed,
            stratum_closed,
        };
        let (outcome, iterations) =
            self.run_fixed_point(&self.ruleset, store, frontier, &mut profile);
        let (fire, update) = (iterations.total_fire(), iterations.total_update());
        self.last_stages.add(Stage::Fire, fire);
        self.last_stages.add(Stage::Update, update);
        self.last_iteration_profile = iterations;

        InferenceStats {
            input_triples,
            output_triples: store.len(),
            iterations: outcome.iterations,
            derived_raw: outcome.derived_raw,
            duplicates_removed: outcome.duplicates_removed,
            duration: start.elapsed(),
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_dictionary::wellknown as wk;
    use inferray_model::ids::nth_property_id;
    use inferray_model::IdTriple;

    fn store(triples: &[(u64, u64, u64)]) -> TripleStore {
        TripleStore::from_triples(triples.iter().map(|&(s, p, o)| IdTriple::new(s, p, o)))
    }

    const HUMAN: u64 = 9_000_000;
    const MAMMAL: u64 = 9_000_001;
    const ANIMAL: u64 = 9_000_002;
    const BART: u64 = 9_000_003;
    const LISA: u64 = 9_000_004;

    fn family_dataset() -> TripleStore {
        store(&[
            (HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL),
            (MAMMAL, wk::RDFS_SUB_CLASS_OF, ANIMAL),
            (BART, wk::RDF_TYPE, HUMAN),
            (LISA, wk::RDF_TYPE, HUMAN),
        ])
    }

    #[test]
    fn paper_running_example_rdfs() {
        let mut data = family_dataset();
        let mut reasoner = InferrayReasoner::new(Fragment::RdfsDefault);
        let stats = reasoner.materialize(&mut data);
        // Inferred: human⊑animal, and {Bart, Lisa} × {mammal, animal}.
        assert_eq!(stats.inferred_triples(), 5);
        assert!(data.contains(&IdTriple::new(BART, wk::RDF_TYPE, MAMMAL)));
        assert!(data.contains(&IdTriple::new(BART, wk::RDF_TYPE, ANIMAL)));
        assert!(data.contains(&IdTriple::new(LISA, wk::RDF_TYPE, ANIMAL)));
        assert!(data.contains(&IdTriple::new(HUMAN, wk::RDFS_SUB_CLASS_OF, ANIMAL)));
        assert!(stats.iterations >= 1);
        assert!(stats.output_triples == stats.input_triples + 5);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let mut parallel_store = family_dataset();
        let mut sequential_store = family_dataset();
        InferrayReasoner::with_options(Fragment::RdfsDefault, InferrayOptions::default())
            .materialize(&mut parallel_store);
        InferrayReasoner::with_options(Fragment::RdfsDefault, InferrayOptions::sequential())
            .materialize(&mut sequential_store);
        let a: Vec<_> = parallel_store.iter_triples().collect();
        let b: Vec<_> = sequential_store.iter_triples().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn skipping_the_closure_stage_still_converges_to_the_same_result() {
        let mut with_stage = family_dataset();
        let mut without_stage = family_dataset();
        InferrayReasoner::new(Fragment::RdfsDefault).materialize(&mut with_stage);
        InferrayReasoner::with_options(
            Fragment::RdfsDefault,
            InferrayOptions::without_closure_stage(),
        )
        .materialize(&mut without_stage);
        let a: Vec<_> = with_stage.iter_triples().collect();
        let b: Vec<_> = without_stage.iter_triples().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn rdfs_plus_same_as_and_inverse() {
        let knows = nth_property_id(700);
        let kned_by = nth_property_id(701);
        let alice = 9_100_000u64;
        let alyce = alice + 1;
        let bob = alice + 2;
        let mut data = store(&[
            (knows, wk::OWL_INVERSE_OF, kned_by),
            (alice, wk::OWL_SAME_AS, alyce),
            (alice, knows, bob),
        ]);
        let stats = InferrayReasoner::new(Fragment::RdfsPlus).materialize(&mut data);
        // Inverse property fires.
        assert!(data.contains(&IdTriple::new(bob, kned_by, alice)));
        // sameAs substitution propagates the data triple to the alias.
        assert!(data.contains(&IdTriple::new(alyce, knows, bob)));
        // ... and its inverse.
        assert!(data.contains(&IdTriple::new(bob, kned_by, alyce)));
        // sameAs is symmetric.
        assert!(data.contains(&IdTriple::new(alyce, wk::OWL_SAME_AS, alice)));
        assert!(
            stats.iterations >= 2,
            "needs at least two iterations to chase the interaction"
        );
    }

    #[test]
    fn functional_property_derives_same_as() {
        let has_mother = nth_property_id(702);
        let bart = 9_200_000u64;
        let marge1 = bart + 1;
        let marge2 = bart + 2;
        let mut data = store(&[
            (has_mother, wk::RDF_TYPE, wk::OWL_FUNCTIONAL_PROPERTY),
            (bart, has_mother, marge1),
            (bart, has_mother, marge2),
        ]);
        InferrayReasoner::new(Fragment::RdfsPlus).materialize(&mut data);
        assert!(data.contains(&IdTriple::new(marge1, wk::OWL_SAME_AS, marge2)));
        assert!(data.contains(&IdTriple::new(marge2, wk::OWL_SAME_AS, marge1)));
    }

    #[test]
    fn empty_store_is_a_fixed_point_immediately() {
        let mut data = TripleStore::new();
        let stats = InferrayReasoner::new(Fragment::RdfsPlus).materialize(&mut data);
        assert_eq!(stats.input_triples, 0);
        assert_eq!(stats.output_triples, 0);
        assert_eq!(stats.inferred_triples(), 0);
    }

    #[test]
    fn materialization_is_idempotent() {
        let mut data = family_dataset();
        let mut reasoner = InferrayReasoner::new(Fragment::RdfsDefault);
        let first = reasoner.materialize(&mut data);
        let after_first: Vec<_> = data.iter_triples().collect();
        let second = reasoner.materialize(&mut data);
        let after_second: Vec<_> = data.iter_triples().collect();
        assert_eq!(after_first, after_second);
        assert!(first.inferred_triples() > 0);
        assert_eq!(second.inferred_triples(), 0);
    }

    #[test]
    fn rdfs_full_adds_axiomatic_triples() {
        let mut data = family_dataset();
        InferrayReasoner::new(Fragment::RdfsFull).materialize(&mut data);
        assert!(data.contains(&IdTriple::new(BART, wk::RDF_TYPE, wk::RDFS_RESOURCE)));
        assert!(data.contains(&IdTriple::new(HUMAN, wk::RDF_TYPE, wk::RDFS_RESOURCE)));
    }

    #[test]
    fn rho_df_subset_derives_less_than_rdfs_full() {
        let mut rho = family_dataset();
        let mut full = family_dataset();
        let rho_stats = InferrayReasoner::new(Fragment::RhoDf).materialize(&mut rho);
        let full_stats = InferrayReasoner::new(Fragment::RdfsFull).materialize(&mut full);
        assert!(full_stats.inferred_triples() > rho_stats.inferred_triples());
        // Everything ρDF derives is also derived by RDFS-Full.
        for t in rho.iter_triples() {
            assert!(full.contains(&t));
        }
    }

    #[test]
    fn transitive_property_closure_in_rdfs_plus() {
        let part_of = nth_property_id(703);
        let a = 9_300_000u64;
        let chain: Vec<(u64, u64, u64)> = (0..20)
            .map(|i| (a + i, part_of, a + i + 1))
            .chain(std::iter::once((
                part_of,
                wk::RDF_TYPE,
                wk::OWL_TRANSITIVE_PROPERTY,
            )))
            .collect();
        let mut data = store(&chain);
        let stats = InferrayReasoner::new(Fragment::RdfsPlus).materialize(&mut data);
        // A chain of 21 nodes closes to 21·20/2 pairs.
        assert!(data.contains(&IdTriple::new(a, part_of, a + 20)));
        assert_eq!(
            data.table(part_of).unwrap().len(),
            21 * 20 / 2,
            "full transitive closure expected"
        );
        assert!(stats.duration.as_nanos() > 0);
    }

    #[test]
    fn scheduled_and_unscheduled_runs_agree_byte_for_byte() {
        // The sameAs/inverse interaction needs several iterations, each
        // touching different properties — the scheduler has real decisions
        // to make.
        let knows = nth_property_id(710);
        let kned_by = nth_property_id(711);
        let alice = 9_400_000u64;
        let build = || {
            store(&[
                (knows, wk::OWL_INVERSE_OF, kned_by),
                (alice, wk::OWL_SAME_AS, alice + 1),
                (alice, knows, alice + 2),
                (alice + 2, wk::RDF_TYPE, alice + 3),
                (alice + 3, wk::RDFS_SUB_CLASS_OF, alice + 4),
            ])
        };
        let mut scheduled_store = build();
        let mut full_store = build();
        let mut scheduled =
            InferrayReasoner::with_options(Fragment::RdfsPlus, InferrayOptions::default());
        scheduled.materialize(&mut scheduled_store);
        InferrayReasoner::with_options(Fragment::RdfsPlus, InferrayOptions::unscheduled())
            .materialize(&mut full_store);
        let a: Vec<_> = scheduled_store.iter_triples().collect();
        let b: Vec<_> = full_store.iter_triples().collect();
        assert_eq!(a, b);
        // The run took several iterations and the scheduler skipped rules.
        let profile = scheduled.last_iteration_profile();
        assert!(profile.samples.len() >= 2);
        let ruleset = scheduled.ruleset();
        let closed_before_the_loop = ruleset
            .all_refs()
            .into_iter()
            .filter(|&rule| ruleset.closes(rule) || ruleset.stratum().contains(&rule))
            .count();
        assert_eq!(
            profile.samples[0].rules_skipped, closed_before_the_loop,
            "iteration 1 skips exactly the θ rules and the schema stratum closed before it"
        );
        assert!(profile.total_rules_skipped() > 0);
    }

    #[test]
    fn unscheduled_profile_reports_no_skips() {
        let mut data = family_dataset();
        let mut reasoner =
            InferrayReasoner::with_options(Fragment::RdfsDefault, InferrayOptions::unscheduled());
        reasoner.materialize(&mut data);
        let profile = reasoner.last_iteration_profile();
        assert!(profile.total_rules_skipped() == 0);
        assert!(profile
            .samples
            .iter()
            .all(|s| s.rules_fired == Ruleset::for_fragment(Fragment::RdfsDefault).len()));
    }

    /// Materializes `base`, retracts `delta` incrementally, and checks the
    /// result is byte-identical to materializing `base ∖ delta` from scratch.
    fn assert_retract_equals_rebuild(
        fragment: Fragment,
        options: InferrayOptions,
        base: &[(u64, u64, u64)],
        delta: &[(u64, u64, u64)],
    ) -> RetractionStats {
        let mut materialized = store(base);
        let mut base_store = store(base);
        let mut reasoner = InferrayReasoner::with_options(fragment, options);
        reasoner.materialize(&mut materialized);
        let delta: Vec<IdTriple> = delta
            .iter()
            .map(|&(s, p, o)| IdTriple::new(s, p, o))
            .collect();
        let stats = reasoner.retract_delta(&mut materialized, &mut base_store, delta.clone());

        let remaining: Vec<IdTriple> = store(base)
            .iter_triples()
            .filter(|t| !delta.contains(t))
            .collect();
        let mut rebuilt = TripleStore::from_triples(remaining.iter().copied());
        InferrayReasoner::with_options(fragment, options).materialize(&mut rebuilt);

        let a: Vec<(u64, Vec<u64>)> = materialized
            .iter_tables()
            .map(|(p, t)| (p, t.pairs().to_vec()))
            .collect();
        let b: Vec<(u64, Vec<u64>)> = rebuilt
            .iter_tables()
            .map(|(p, t)| (p, t.pairs().to_vec()))
            .collect();
        assert_eq!(a, b, "retract != rebuild for {fragment}");
        let expected_base: Vec<IdTriple> = remaining;
        let got_base: Vec<IdTriple> = base_store.iter_triples().collect();
        assert_eq!(got_base, expected_base, "base tracking diverged");
        assert_eq!(stats.output_triples, materialized.len());
        stats
    }

    #[test]
    fn retracting_an_instance_undoes_its_type_cone() {
        let stats = assert_retract_equals_rebuild(
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            &[
                (HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL),
                (MAMMAL, wk::RDFS_SUB_CLASS_OF, ANIMAL),
                (BART, wk::RDF_TYPE, HUMAN),
                (LISA, wk::RDF_TYPE, HUMAN),
            ],
            &[(LISA, wk::RDF_TYPE, HUMAN)],
        );
        // Lisa's asserted type plus her two derived types are gone; Bart's
        // cone (same derived triples, different subject) is untouched.
        assert_eq!(stats.retracted_explicit, 1);
        assert_eq!(stats.net_removed(), 3);
    }

    #[test]
    fn retracting_a_schema_edge_undoes_the_closure_cone() {
        let stats = assert_retract_equals_rebuild(
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            &[
                (HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL),
                (MAMMAL, wk::RDFS_SUB_CLASS_OF, ANIMAL),
                (BART, wk::RDF_TYPE, HUMAN),
                (BART, wk::RDF_TYPE, ANIMAL), // also asserted explicitly
            ],
            &[(MAMMAL, wk::RDFS_SUB_CLASS_OF, ANIMAL)],
        );
        // human ⊑ animal and Bart's derived animal type are un-derived, but
        // the explicitly asserted (Bart a animal) must survive over-deletion.
        assert!(stats.over_deleted >= 1);
        assert!(stats.output_triples >= 4);
    }

    #[test]
    fn retracting_an_unasserted_derived_triple_is_a_noop() {
        let base = [
            (HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL),
            (BART, wk::RDF_TYPE, HUMAN),
        ];
        let mut materialized = store(&base);
        let mut base_store = store(&base);
        let mut reasoner = InferrayReasoner::new(Fragment::RdfsDefault);
        reasoner.materialize(&mut materialized);
        let before: Vec<IdTriple> = materialized.iter_triples().collect();
        // (Bart a mammal) is derived, not asserted: retracting it is a no-op.
        let stats = reasoner.retract_delta(
            &mut materialized,
            &mut base_store,
            [IdTriple::new(BART, wk::RDF_TYPE, MAMMAL)],
        );
        assert_eq!(stats.retracted_explicit, 0);
        assert_eq!(stats.net_removed(), 0);
        assert_eq!(materialized.iter_triples().collect::<Vec<_>>(), before);
        assert_eq!(base_store.len(), 2, "base untouched");
        assert!(materialized.contains(&IdTriple::new(BART, wk::RDF_TYPE, MAMMAL)));
    }

    #[test]
    fn retracting_a_transitive_declaration_undoes_the_closure() {
        let part_of = nth_property_id(720);
        let a = 9_900_000u64;
        let base = [
            (part_of, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
            (a, part_of, a + 1),
            (a + 1, part_of, a + 2),
            (a + 2, part_of, a + 3),
        ];
        let stats = assert_retract_equals_rebuild(
            Fragment::RdfsPlus,
            InferrayOptions::default(),
            &base,
            &[(part_of, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY)],
        );
        // The three closure pairs are un-derived, the asserted chain stays.
        assert!(stats.over_deleted >= 3);
    }

    #[test]
    fn retract_is_byte_identical_sequentially_and_in_parallel() {
        let base = [
            (HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL),
            (MAMMAL, wk::RDFS_SUB_CLASS_OF, ANIMAL),
            (BART, wk::RDF_TYPE, HUMAN),
            (LISA, wk::RDF_TYPE, MAMMAL),
        ];
        let delta = [(HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL)];
        for options in [
            InferrayOptions::default(),
            InferrayOptions::sequential(),
            InferrayOptions::unscheduled(),
        ] {
            assert_retract_equals_rebuild(Fragment::RdfsDefault, options, &base, &delta);
        }
    }

    #[test]
    fn iteration_profile_tracks_the_run() {
        let mut data = family_dataset();
        let mut reasoner = InferrayReasoner::new(Fragment::RdfsDefault);
        let stats = reasoner.materialize(&mut data);
        let profile = reasoner.last_iteration_profile();
        assert_eq!(profile.samples.len(), stats.iterations);
        assert_eq!(
            profile.samples.iter().map(|s| s.raw_pairs).sum::<usize>(),
            stats.derived_raw
        );
        // One data pass: the types it derives feed only CAX-SCO∘CAX-SCO,
        // which the closed stratum proves redundant, so the loop stops with
        // nothing left to schedule instead of running an empty iteration.
        assert_eq!(stats.iterations, 1);
        assert_eq!(profile.samples[0].new_pairs, stats.inferred_triples() - 1);
        assert_eq!(reasoner.last_closure_stats().pairs_added, 1);
    }

    /// A taxonomy's shape: a class chain and many instances of its bottom
    /// class, so that `rdf:type` receives nearly every raw pair of the
    /// iteration — more than the ranged update's floor.
    fn taxonomy_shaped() -> TripleStore {
        let class = |i: u64| 9_100_000 + i;
        let depth = 20;
        let instances = RANGED_UPDATE_FLOOR as u64 / (depth - 1) + 1_000;
        let chain = (0..depth - 1).map(|i| (class(i), wk::RDFS_SUB_CLASS_OF, class(i + 1)));
        let typed = (0..instances).map(|x| (9_200_000 + x, wk::RDF_TYPE, class(0)));
        store(&chain.chain(typed).collect::<Vec<_>>())
    }

    #[test]
    fn a_dominating_table_is_updated_on_every_worker() {
        let rows = |options: InferrayOptions| {
            let mut data = taxonomy_shaped();
            let mut reasoner = InferrayReasoner::with_options(Fragment::RdfsDefault, options);
            reasoner.materialize(&mut data);
            let first = &reasoner.last_iteration_profile().samples[0];
            let rdf_type = *first
                .tables
                .iter()
                .find(|row| row.property == wk::RDF_TYPE)
                .expect("rdf:type is updated");
            assert!(rdf_type.raw_pairs > RANGED_UPDATE_FLOOR);
            assert!(first
                .tables
                .windows(2)
                .all(|w| w[0].property < w[1].property));
            assert_eq!(first.tables.len(), first.properties_touched);
            let closure = reasoner.last_stages().get(Stage::Closure);
            assert!(closure > Some(Duration::ZERO));
            (rdf_type, data)
        };
        let (parallel, parallel_store) = rows(InferrayOptions::default());
        let (sequential, sequential_store) = rows(InferrayOptions::sequential());
        assert_eq!(parallel_store, sequential_store);
        assert_eq!(
            (parallel.raw_pairs, parallel.new_pairs),
            (sequential.raw_pairs, sequential.new_pairs)
        );
        assert_eq!(sequential.lanes, 1);
        let workers = inferray_parallel::global().threads();
        assert_eq!(parallel.lanes > 1, workers > 1, "{workers} workers");
    }
}
