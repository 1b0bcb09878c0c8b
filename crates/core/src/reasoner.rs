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
//!   *taken out* of the store, dealt largest-first across the pool's lanes
//!   (each lane owning a reusable [`SortScratch`]), merged with the
//!   adaptive merge of `inferray-store`, and re-installed in ascending
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
//! * **⟨o,s⟩ caches are built by the rule that reads them**, inside the
//!   firing phase (`PropertyTable::object_pairs`); the loop pre-builds
//!   none.

use crate::closure_stage::{run_closure_stage, ClosureStageStats};
use crate::iteration::{IterationProfile, IterationSample, RuleSample};
use crate::options::InferrayOptions;
use inferray_dictionary::wellknown;
use inferray_model::ids::is_property_id;
use inferray_model::IdTriple;
use inferray_parallel::ThreadPool;
use inferray_rules::{
    analysis, apply_rule, Fragment, InferenceStats, Materializer, RuleClass, RuleContext, RuleId,
    RuleRef, Ruleset,
};
use inferray_sort::SortScratch;
use inferray_store::{
    merge_new_pairs_with, os_builds, AccessProfile, InferredBuffer, MergeOutcome, PropertyTable,
    TripleStore,
};
use std::collections::{BTreeMap, BTreeSet};
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
}

/// The result of updating one property table (computed on a pool worker).
struct PropertyUpdate {
    /// The property whose table was updated.
    p: u64,
    /// The genuinely new pairs (the next iteration's frontier for `p`).
    new_table: PropertyTable,
    /// Counters of the merge.
    outcome: MergeOutcome,
}

/// The per-iteration table-update stage (Figure 5) over every property that
/// received inferred pairs: take the affected tables out of the store;
/// sort, dedup and merge each one (spread across the pool's lanes, one
/// reusable [`SortScratch`] per lane; sequentially with `scratches[0]` when
/// `pool` is `None`); and re-install the updated tables. Returns the
/// per-property results in ascending property order regardless of
/// scheduling.
///
/// The lanes are balanced by size, not by position: one property
/// (`rdf:type`, as a rule) carries most of an iteration's raw pairs, and a
/// round-robin deal hands the lane that draws it an equal share of all the
/// others on top. Tables are assigned largest-first, each to the lane with
/// the fewest raw pairs so far, so the big table's lane takes nothing else
/// until the others have caught up. Ties go to the lower property and the
/// lower lane: the deal is a function of the sizes alone.
fn run_table_update(
    pool: Option<&ThreadPool>,
    store: &mut TripleStore,
    mut tables: Vec<(u64, Vec<u64>)>,
    scratches: &mut [SortScratch],
) -> Vec<PropertyUpdate> {
    let update = |p: u64, mut table: PropertyTable, pairs: Vec<u64>, scratch: &mut SortScratch| {
        table.finalize_with(scratch);
        let (new_table, outcome) = merge_new_pairs_with(&mut table, pairs, scratch);
        (p, table, new_table, outcome)
    };
    let mut results: Vec<(u64, PropertyTable, PropertyTable, MergeOutcome)> = match pool {
        Some(pool) if tables.len() > 1 => {
            // Take the affected tables out of the store so each lane owns
            // its tables outright — no locks, no aliasing.
            let lanes = scratches.len().min(tables.len()).max(1);
            let mut chunks: Vec<Vec<(u64, PropertyTable, Vec<u64>)>> =
                (0..lanes).map(|_| Vec::new()).collect();
            let mut loads = vec![0usize; lanes];
            tables.sort_by_key(|(p, pairs)| (std::cmp::Reverse(pairs.len()), *p));
            for (p, pairs) in tables {
                let lane = (0..lanes)
                    .min_by_key(|&lane| loads[lane])
                    .expect("at least one lane");
                loads[lane] += pairs.len();
                let table = store.take_table(p).unwrap_or_default();
                chunks[lane].push((p, table, pairs));
            }
            let tasks: Vec<_> = chunks
                .into_iter()
                .zip(scratches.iter_mut())
                .map(|(chunk, scratch)| {
                    move || {
                        chunk
                            .into_iter()
                            .map(|(p, table, pairs)| update(p, table, pairs, scratch))
                            .collect::<Vec<_>>()
                    }
                })
                .collect();
            pool.run_ordered(tasks).into_iter().flatten().collect()
        }
        _ => {
            let scratch = scratches.first_mut().expect("at least one scratch");
            tables
                .into_iter()
                .map(|(p, pairs)| {
                    let table = store.take_table(p).unwrap_or_default();
                    update(p, table, pairs, scratch)
                })
                .collect()
        }
    };
    results.sort_unstable_by_key(|(p, ..)| *p);
    results
        .into_iter()
        .map(|(p, table, new_table, outcome)| {
            store.set_table(p, table);
            PropertyUpdate {
                p,
                new_table,
                outcome,
            }
        })
        .collect()
}

/// Fires one rule of `ruleset` over `ctx`, appending to `out`: a catalog
/// built-in through its hand-written class executor, a custom rule through
/// the generic analyzer executor.
fn fire_one(ruleset: &Ruleset, rule: RuleRef, ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    match rule {
        RuleRef::Builtin(id) => apply_rule(id, ctx, out),
        RuleRef::Custom(i) => analysis::apply_compiled(&ruleset.custom_rules()[i], ctx, out),
    }
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

    /// A reasoner over a custom ruleset (used by the ablation benchmarks).
    pub fn with_ruleset(ruleset: Ruleset, options: InferrayOptions) -> Self {
        InferrayReasoner {
            ruleset,
            options,
            last_closure_stats: ClosureStageStats::default(),
            last_iteration_profile: IterationProfile::default(),
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

    /// Applies the given rules once over (`main`, `new`), returning the
    /// combined inferred buffer and one [`RuleSample`] per rule. Each rule
    /// owns its buffer; with a pool each rule also runs as its own task
    /// (§4.3). Buffers are absorbed in rule order, so the combined buffer is
    /// schedule-independent. Built-ins run their hand-written class
    /// executors; custom (analyzer-compiled) rules run the generic
    /// semi-naive join.
    fn fire_rules(
        &self,
        pool: Option<&ThreadPool>,
        main: &TripleStore,
        new: &TripleStore,
        rules: &[RuleRef],
    ) -> (InferredBuffer, Vec<RuleSample>) {
        let ruleset = &self.ruleset;
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
        let mut combined = InferredBuffer::new();
        let mut samples = Vec::with_capacity(fired.len());
        for (buffer, sample) in fired {
            combined.absorb(buffer);
            samples.push(sample);
        }
        (combined, samples)
    }

    /// Incrementally maintains an **already materialized** store after new
    /// triples are asserted.
    ///
    /// The paper notes that forward chaining "requires full materialization
    /// after deletion" (§1) but additions do not: the fixed point can be
    /// restarted with the delta as the semi-naive frontier. The dedicated
    /// up-front closure stage is not re-run — new edges on transitive
    /// properties are picked up by the in-loop θ executors, which re-close a
    /// table only when it actually received pairs. The ⟨o,s⟩ caches of the
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

        let outcome = if new.is_empty() {
            self.last_iteration_profile = IterationProfile::default();
            FixedPointOutcome::default()
        } else {
            self.run_fixed_point(store, Frontier::Delta(new), &mut profile)
        };

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
    /// of the classic Datalog maintenance literature (docs/maintenance.md).
    ///
    /// `store` must be the materialization of `base` under this reasoner's
    /// fragment and options; `base` holds the *explicit* (asserted) triples.
    /// The requested `delta` is intersected with `base`: retracting a triple
    /// that was never asserted is a no-op, even if the triple is currently
    /// entailed (it stays derivable, so the result of rebuilding from
    /// `base ∖ Δ` still contains it).
    ///
    /// The algorithm has two phases:
    ///
    /// 1. **over-delete** — starting from the explicit deletions, repeatedly
    ///    fire the (input-scheduled) rules semi-naively with the deletion
    ///    frontier as `new` to collect every one-step consequence of a
    ///    deleted triple, remove the frontier, and continue with the
    ///    consequences that are still present and not explicitly asserted.
    ///    The θ (closure) executors only emit pairs *absent* from the closed
    ///    main table, so their cones are collected by conservatively marking
    ///    the whole derived part of every affected closed table instead.
    ///    Explicit triples are never over-deleted.
    /// 2. **rederive** — probe every removed triple with the one-step
    ///    support checks ([`inferray_rules::is_supported`]), restricted per
    ///    property to the rules whose *output* signature
    ///    ([`inferray_rules::RuleOutputs`]) reaches it; re-assert the
    ///    supported ones and cascade them through the ordinary incremental
    ///    addition machinery ([`InferrayReasoner::materialize_delta`]).
    ///    Triples missing at greater derivation height have a missing
    ///    premise among the re-asserted ones and are reached by the
    ///    cascade, so one-step probes suffice. (With `schedule_rules`
    ///    disabled the rederivation instead re-runs the full fixed point
    ///    over the survivors — the reference implementation the equivalence
    ///    suite compares against.)
    ///
    /// The result is byte-identical — per-table pair arrays, dictionary
    /// identifiers, promotion state — to re-materializing `base ∖ Δ` from
    /// scratch (proven by `tests/retraction_equivalence.rs`), at a cost
    /// proportional to the deleted cone plus one output-restricted firing
    /// round.
    pub fn retract_delta(
        &mut self,
        store: &mut TripleStore,
        base: &mut TripleStore,
        delta: impl IntoIterator<Item = IdTriple>,
    ) -> RetractionStats {
        let start = Instant::now();
        store.finalize();
        base.finalize();
        self.last_closure_stats = ClosureStageStats::default();
        self.last_iteration_profile = IterationProfile::default();

        let requested: BTreeSet<IdTriple> = delta.into_iter().collect();
        let explicit: Vec<IdTriple> = requested
            .iter()
            .copied()
            .filter(|t| is_property_id(t.p) && base.contains(t))
            .collect();
        let mut stats = RetractionStats {
            requested: requested.len(),
            output_triples: store.len(),
            duration: start.elapsed(),
            ..RetractionStats::default()
        };
        if explicit.is_empty() {
            return stats;
        }
        stats.retracted_explicit = explicit.len();
        base.retract(explicit.iter().copied());

        let pool = if self.options.parallel {
            Some(inferray_parallel::global())
        } else {
            None
        };
        let size_before = store.len();

        // Phase 1: over-delete the cone of consequences. Every removed
        // triple — explicit or derived — is also a rederivation candidate:
        // an explicitly retracted triple that is still entailed by the
        // surviving base must reappear (it is merely no longer asserted).
        let mut removed: Vec<IdTriple> = Vec::new();
        let mut frontier =
            TripleStore::from_triples(explicit.iter().copied().filter(|t| store.contains(t)));
        while !frontier.is_empty() {
            // Fire the rules that read the frontier's tables (the §4.3
            // dependency index), with the frontier as `new` *while it is
            // still part of the store*: the semi-naive executors then emit
            // exactly the one-step consequences that use at least one
            // deleted premise. The θ rules are excluded — their executors
            // cannot see "un-derivable" pairs — and handled below.
            let scheduled: Vec<RuleRef> = if self.options.schedule_rules {
                self.ruleset.scheduled_refs(store, &frontier)
            } else {
                self.ruleset.all_refs()
            }
            .into_iter()
            .filter(|r| !matches!(r, RuleRef::Builtin(id) if id.class() == RuleClass::Theta))
            .collect();
            let (mut candidates, _) = self.fire_rules(pool, store, &frontier, &scheduled);
            self.collect_theta_over_deletions(store, &frontier, &mut candidates);

            // Remove the frontier, then keep as the next frontier every
            // consequence that is still present and not explicitly asserted.
            for (p, table) in frontier.iter_tables() {
                store.remove_pairs(p, table.pairs());
            }
            removed.extend(frontier.iter_triples());
            let mut next = TripleStore::new();
            for (p, pairs) in candidates.into_iter_tables() {
                let Some(table) = store.table(p) else {
                    continue;
                };
                for pair in pairs.chunks_exact(2) {
                    let (s, o) = (pair[0], pair[1]);
                    if table.contains_pair(s, o) && !base.contains(&IdTriple::new(s, p, o)) {
                        next.add_pair(p, s, o);
                    }
                }
            }
            next.finalize();
            frontier = next;
        }
        stats.over_deleted = size_before - store.len() - explicit.len();

        // Phase 2: rederive. Every triple still entailed by the surviving
        // base is either one-step derivable from the survivors or depends
        // on a removed triple that is — so probing each removed triple with
        // the one-step support checks finds exactly the seed the ordinary
        // incremental addition cascade needs. Per property, only the rules
        // whose output signature reaches that table are probed.
        let after_delete = store.len();
        if !store.is_empty() && !removed.is_empty() {
            if self.options.schedule_rules {
                let mut supported: Vec<IdTriple> = Vec::new();
                let mut rules_for: BTreeMap<u64, Vec<RuleRef>> = BTreeMap::new();
                for &candidate in &removed {
                    let rules = rules_for.entry(candidate.p).or_insert_with(|| {
                        self.ruleset
                            .rederive_refs(store, &BTreeSet::from([candidate.p]))
                    });
                    if rules.iter().any(|&rule| match rule {
                        RuleRef::Builtin(id) => inferray_rules::is_supported(id, store, candidate),
                        RuleRef::Custom(i) => {
                            analysis::supports(&self.ruleset.custom_rules()[i], store, candidate)
                        }
                    }) {
                        supported.push(candidate);
                    }
                }
                if !supported.is_empty() {
                    let cascade = self.materialize_delta(store, supported);
                    stats.iterations = cascade.iterations;
                    stats.profile = cascade.profile;
                }
            } else {
                // Reference path (scheduling disabled): re-run the full
                // fixed point over the survivors, all of them new.
                let mut profile = AccessProfile::default();
                let frontier = Frontier::Whole {
                    theta_closed: false,
                };
                let outcome = self.run_fixed_point(store, frontier, &mut profile);
                stats.iterations = outcome.iterations;
                stats.profile = profile;
            }
        }

        stats.rederived = store.len() - after_delete;
        stats.output_triples = store.len();
        stats.duration = start.elapsed();
        stats
    }

    /// Marks the θ-rule over-deletion candidates: when a table a closure
    /// rule maintains loses pairs (or loses its `owl:TransitiveProperty`
    /// declaration), every pair of that table becomes a deletion candidate —
    /// the explicit-base filter of the caller keeps asserted edges alive,
    /// and rederivation re-closes whatever the surviving edges still entail.
    fn collect_theta_over_deletions(
        &self,
        store: &TripleStore,
        frontier: &TripleStore,
        out: &mut InferredBuffer,
    ) {
        let changed: BTreeSet<u64> = frontier.property_ids().collect();
        let dump = |p: u64, out: &mut InferredBuffer| {
            if let Some(table) = store.table(p) {
                out.add_pairs(p, table.pairs());
            }
        };
        for rule in self.ruleset.theta_rules() {
            match rule {
                RuleId::ScmSco if changed.contains(&wellknown::RDFS_SUB_CLASS_OF) => {
                    dump(wellknown::RDFS_SUB_CLASS_OF, out);
                }
                RuleId::ScmSpo if changed.contains(&wellknown::RDFS_SUB_PROPERTY_OF) => {
                    dump(wellknown::RDFS_SUB_PROPERTY_OF, out);
                }
                RuleId::EqTrans if changed.contains(&wellknown::OWL_SAME_AS) => {
                    dump(wellknown::OWL_SAME_AS, out);
                }
                RuleId::PrpTrp => {
                    // Declared transitive properties whose tables lost pairs,
                    // plus properties whose declaration itself is deleted.
                    let declared = RuleContext::subjects_with_object(
                        store,
                        wellknown::RDF_TYPE,
                        wellknown::OWL_TRANSITIVE_PROPERTY,
                    );
                    let undeclared = RuleContext::subjects_with_object(
                        frontier,
                        wellknown::RDF_TYPE,
                        wellknown::OWL_TRANSITIVE_PROPERTY,
                    );
                    for p in declared
                        .iter()
                        .filter(|p| changed.contains(p))
                        .chain(undeclared.iter())
                    {
                        if is_property_id(*p) {
                            dump(*p, out);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// The fixed-point loop of Algorithm 1 (lines 4–8), shared by the full
    /// materialization, the incremental addition path and the rederivation
    /// half of the retraction path.
    ///
    /// `frontier` is what iteration 1 treats as new, and with it which rules
    /// iteration 1 fires (see [`Frontier`]); from iteration 2 on the
    /// frontier is the previous iteration's new pairs and the ordinary
    /// input-driven scheduling applies regardless.
    fn run_fixed_point(
        &mut self,
        store: &mut TripleStore,
        frontier: Frontier,
        profile: &mut AccessProfile,
    ) -> FixedPointOutcome {
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

        // `None`: the store itself is the frontier (iteration 1 of a full
        // materialization) — nothing is copied to say that all is new.
        let (mut new, theta_closed) = match frontier {
            Frontier::Whole { theta_closed } => (None, theta_closed),
            Frontier::Delta(delta) => (Some(delta), false),
        };
        let mut iteration_profile = IterationProfile::default();
        let mut outcome = FixedPointOutcome::default();
        let total_rules = self.ruleset.len();
        while !new.as_ref().unwrap_or(&*store).is_empty()
            && outcome.iterations < self.options.max_iterations
        {
            outcome.iterations += 1;
            let frontier: &TripleStore = new.as_ref().unwrap_or(&*store);

            // Line 5: fire the scheduled rules. Over the whole store every
            // input is "changed", so everything fires — except the θ rules
            // when the closure stage has just closed their tables: it *was*
            // their first firing. Over a delta (the incremental path, and
            // every later iteration of any path) only the rules whose input
            // tables received new pairs — exactly the tables of the
            // frontier — can derive anything but duplicates (§4.3); the
            // store is a fixed point of the others. The `schedule_rules`
            // escape hatch forces the full ruleset everywhere.
            let scheduled: Vec<RuleRef> = if !self.options.schedule_rules {
                self.ruleset.all_refs()
            } else if new.is_some() {
                self.ruleset.scheduled_refs(store, frontier)
            } else if theta_closed {
                self.ruleset.fixed_point_refs()
            } else {
                self.ruleset.all_refs()
            };
            let fire_start = Instant::now();
            let (inferred, rules) = self.fire_rules(pool, store, frontier, &scheduled);
            // The caches the rules built on demand are reported apart from
            // the joins they were built for, and charged to the access
            // profile as built: the pairs actually sorted, not the caches
            // no rule read.
            let os_cache: Duration = rules.iter().map(|r| r.os_cache.time).sum();
            let os_pairs: usize = rules.iter().map(|r| r.os_cache.pairs).sum();
            profile.sequential(2 * os_pairs as u64);
            let fire = fire_start.elapsed().saturating_sub(os_cache);
            let raw_pairs = inferred.len();
            outcome.derived_raw += raw_pairs;

            // Lines 6-7: per-property sort + dedup + merge (Figure 5),
            // parallel across properties.
            let update_start = Instant::now();
            let tables: Vec<(u64, Vec<u64>)> = inferred.into_iter_tables().collect();
            let properties_touched = tables.len();
            let results = run_table_update(pool, store, tables, &mut scratches);

            let mut next_new = TripleStore::new();
            let mut new_pairs = 0usize;
            for result in results {
                let merge = result.outcome;
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
            });
            new = Some(next_new);
        }
        self.last_iteration_profile = iteration_profile;
        outcome
    }
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
    /// their tables in this same call.
    Whole {
        /// [`run_closure_stage`] ran just before the loop.
        theta_closed: bool,
    },
    /// Pairs just merged into a store that was a fixed point before — the
    /// incremental addition path. The input-driven schedule applies from
    /// the start.
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
    /// Derived triples removed by the over-deletion phase (beyond the
    /// explicit ones).
    pub over_deleted: usize,
    /// Over-deleted triples restored by the rederivation phase (they were
    /// still entailed by the surviving base).
    pub rederived: usize,
    /// Fixed-point iterations of the rederivation phase.
    pub iterations: usize,
    /// Triples in the store after the retraction.
    pub output_triples: usize,
    /// Wall-clock time of the whole retraction.
    pub duration: Duration,
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

        // Step 1 (Algorithm 1, line 2): dedicated transitive-closure stage.
        // Analyzer-loaded rulesets that are not an exact fragment skip it —
        // the in-loop θ executors reach the same fixed point.
        let theta_closed = !self.options.skip_closure_stage && self.ruleset.runs_closure_stage();
        self.last_closure_stats = if theta_closed {
            run_closure_stage(store, self.ruleset.fragment, &mut profile)
        } else {
            ClosureStageStats::default()
        };

        // Steps 2-3 (lines 3-8): the fixed point, with new == main on the
        // first iteration.
        let outcome = self.run_fixed_point(store, Frontier::Whole { theta_closed }, &mut profile);

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
        assert_eq!(
            profile.samples[0].rules_skipped,
            scheduled.ruleset().theta_rules().len(),
            "iteration 1 skips exactly the θ rules the closure stage covered"
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
        // The last iteration derives nothing new (that is why it was last).
        assert_eq!(profile.samples.last().unwrap().new_pairs, 0);
    }
}
