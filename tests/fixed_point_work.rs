//! Pins the *work* of the fixed point, not only its result.
//!
//! Every other suite compares stores; a reasoner that derives everything
//! twice, re-closes closed tables or re-derives a materialized store from
//! scratch passes all of them. This one counts, on a small committed
//! fixture (`tests/fixtures/fixed_point_work.nt`: a class tree, a property
//! forest, domains, ranges, typed instances and facts):
//!
//! * iteration 1 emits each one-pass derivation **once** — the count of
//!   matching premise pairs, taken here by brute force over the store with
//!   its transitive tables and its schema stratum closed, rule by rule (a
//!   frontier that is a *copy* of the store makes every two-pass executor
//!   emit exactly twice that); PRP-DOM and PRP-RNG emit each head once per
//!   schema pair, so theirs is the count of distinct heads per schema pair
//!   (the fixture has a subject with two values of a domain-bearing
//!   property and an object shared by two subjects of a range-bearing one);
//! * the closure stage is the θ rules' first firing and the stratum's own
//!   pass the stratum's: none of them is in iteration 1's fired set when
//!   they ran, all of them are when they did not;
//! * the fixture closes in one iteration: what iteration 1 derives feeds
//!   only firings the elision relation proves redundant;
//! * materializing a materialized store derives nothing new, in one
//!   iteration;
//! * the work counters — `derived_raw`, `duplicates_removed`, raw pairs per
//!   iteration and per rule — are the same sequentially and in parallel;
//! * a `.rules` program whose rules are no built-in does the built-ins'
//!   work: its rules run the kernels their shapes pick, and the closure
//!   stage follows its closures — RDFS-default on the fixture, RDFS-Plus
//!   on a small LUBM with `owl:sameAs` links and functional declarations.

use inferray::core::closure_stage::run_closure_stage;
use inferray::core::{IterationProfile, RuleSample};
use inferray::datasets::lubm::LubmGenerator;
use inferray::dictionary::wellknown as wk;
use inferray::model::ids::is_property_id;
use inferray::parser::loader::{load_ntriples, load_triples};
use inferray::rules::analysis::{self, builtin::PRELUDE};
use inferray::rules::{RuleId, RuleRef, Ruleset};
use inferray::store::AccessProfile;
use inferray::{Fragment, IdTriple, InferrayOptions, InferrayReasoner, Materializer, TripleStore};

const FRAGMENT: Fragment = Fragment::RdfsDefault;

fn fixture() -> TripleStore {
    let text = std::fs::read_to_string("tests/fixtures/fixed_point_work.nt")
        .expect("the fixture is committed");
    load_ntriples(&text).expect("the fixture parses").store
}

fn materialized(
    options: InferrayOptions,
) -> (TripleStore, inferray::InferenceStats, IterationProfile) {
    let mut store = fixture();
    let mut reasoner = InferrayReasoner::with_options(FRAGMENT, options);
    let stats = reasoner.materialize(&mut store);
    (store, stats, reasoner.last_iteration_profile().clone())
}

fn is_theta(sample: &RuleSample) -> bool {
    Ruleset::for_fragment(FRAGMENT).closes(sample.rule)
}

/// The number of premise pairs `(a, b)` of `store` that `rule` joins — what
/// one pass of its executor emits, one pair per match — except for PRP-DOM
/// and PRP-RNG, which emit each head once per schema pair however many data
/// pairs share it. Brute force over all pairs of triples; `None` for the
/// rules that are not two-premise joins.
fn one_pass_derivations(rule: RuleId, store: &TripleStore) -> Option<usize> {
    match rule {
        RuleId::PrpDom => return Some(distinct_heads(store, wk::RDFS_DOMAIN, |b| b.s)),
        RuleId::PrpRng => return Some(distinct_heads(store, wk::RDFS_RANGE, |b| b.o)),
        _ => {}
    }
    let joins: fn(&IdTriple, &IdTriple) -> bool = match rule {
        RuleId::CaxSco => |a, b| a.p == wk::RDFS_SUB_CLASS_OF && b.p == wk::RDF_TYPE && b.o == a.s,
        RuleId::PrpSpo1 => |a, b| {
            a.p == wk::RDFS_SUB_PROPERTY_OF && a.s != a.o && is_property_id(a.o) && b.p == a.s
        },
        RuleId::ScmDom1 => {
            |a, b| a.p == wk::RDFS_DOMAIN && b.p == wk::RDFS_SUB_CLASS_OF && b.s == a.o
        }
        RuleId::ScmRng1 => {
            |a, b| a.p == wk::RDFS_RANGE && b.p == wk::RDFS_SUB_CLASS_OF && b.s == a.o
        }
        RuleId::ScmDom2 => {
            |a, b| a.p == wk::RDFS_DOMAIN && b.p == wk::RDFS_SUB_PROPERTY_OF && b.o == a.s
        }
        RuleId::ScmRng2 => {
            |a, b| a.p == wk::RDFS_RANGE && b.p == wk::RDFS_SUB_PROPERTY_OF && b.o == a.s
        }
        _ => return None,
    };
    let triples: Vec<IdTriple> = store.iter_triples().collect();
    Some(
        triples
            .iter()
            .map(|a| triples.iter().filter(|b| joins(a, b)).count())
            .sum(),
    )
}

/// Summed over the schema pairs `(p, c)` of `schema`, the distinct heads
/// `head(b)` of the triples `b` of `p`.
fn distinct_heads(store: &TripleStore, schema: u64, head: fn(&IdTriple) -> u64) -> usize {
    let triples: Vec<IdTriple> = store.iter_triples().collect();
    triples
        .iter()
        .filter(|a| a.p == schema)
        .map(|a| {
            let heads = triples.iter().filter(|b| b.p == a.s).map(head);
            heads.collect::<std::collections::BTreeSet<u64>>().len()
        })
        .sum()
}

/// What iteration 1 reads: the input with its transitive tables closed and
/// the schema stratum run to its fixed point.
fn stratum_closed_fixture() -> TripleStore {
    let mut closed = fixture();
    let stratum = Ruleset::for_fragment(FRAGMENT).stratum_ruleset();
    InferrayReasoner::with_ruleset(stratum, InferrayOptions::default()).materialize(&mut closed);
    closed
}

#[test]
fn iteration_one_emits_every_one_pass_derivation_once() {
    let closed = stratum_closed_fixture();
    let mut transitive_only = fixture();
    run_closure_stage(
        &mut transitive_only,
        Ruleset::for_fragment(FRAGMENT).closures(),
        &mut AccessProfile::default(),
    );
    assert!(
        closed.len() > transitive_only.len(),
        "the stratum's own pass closes the domains and ranges"
    );

    let (_, stats, profile) = materialized(InferrayOptions::default());
    assert_eq!(stats.iterations, 1, "the fixture closes in one iteration");
    let first = &profile.samples[0];
    assert!(!first.rules.is_empty());
    let mut expected_total = 0usize;
    for row in &first.rules {
        let RuleRef::Builtin(rule) = row.rule else {
            panic!("a fragment has no custom rules");
        };
        let expected = one_pass_derivations(rule, &closed)
            .unwrap_or_else(|| panic!("{rule:?} fired in iteration 1 and has no oracle here"));
        assert_eq!(
            row.raw_pairs, expected,
            "{}: one emission per matching premise pair",
            row.rule
        );
        expected_total += expected;
    }
    assert!(expected_total > 40, "the fixture exercises the joins");
    assert_eq!(first.raw_pairs, expected_total);
    assert_eq!(
        first.raw_pairs,
        first.rules.iter().map(|r| r.raw_pairs).sum::<usize>()
    );
    // Every data rule of the fixture's shape did real work; the stratum's
    // did theirs before the loop.
    for rule in [
        RuleId::CaxSco,
        RuleId::PrpDom,
        RuleId::PrpRng,
        RuleId::PrpSpo1,
    ] {
        let row = first
            .rules
            .iter()
            .find(|r| r.rule == RuleRef::Builtin(rule))
            .unwrap_or_else(|| panic!("{rule:?} did not fire in iteration 1"));
        assert!(row.raw_pairs > 0, "{rule:?} derived nothing on the fixture");
    }
}

#[test]
fn the_closure_stage_is_the_theta_rules_first_firing() {
    let ruleset = Ruleset::for_fragment(FRAGMENT);
    let theta = ruleset.closures().len();
    assert!(theta > 0);
    let in_stratum = |sample: &RuleSample| ruleset.stratum().contains(&sample.rule);
    let closed_before_the_loop = ruleset
        .all_refs()
        .into_iter()
        .filter(|&rule| ruleset.closes(rule) || ruleset.stratum().contains(&rule))
        .count();

    let (with_stage, _, profile) = materialized(InferrayOptions::default());
    let first = &profile.samples[0];
    assert!(
        !first.rules.iter().any(|r| is_theta(r) || in_stratum(r)),
        "the closure stage and the stratum's pass ran: iteration 1 must not re-close their tables"
    );
    assert_eq!(first.rules_skipped, closed_before_the_loop);
    assert_eq!(first.rules_fired, first.rules.len());

    let (without_stage, _, profile) = materialized(InferrayOptions::without_closure_stage());
    let first = &profile.samples[0];
    assert_eq!(
        first.rules.iter().filter(|r| is_theta(r)).count(),
        theta,
        "no closure stage: the θ rules close the tables inside the loop"
    );
    assert_eq!(
        first.rules.iter().filter(|r| in_stratum(r)).count(),
        ruleset.stratum().len(),
        "and the stratum runs inside the loop too"
    );
    assert_eq!(first.rules_skipped, 0);
    assert_eq!(with_stage, without_stage);

    // The unscheduled reference fires them on every iteration regardless.
    let (reference, _, profile) = materialized(InferrayOptions::unscheduled());
    assert!(profile
        .samples
        .iter()
        .all(|s| s.rules.iter().filter(|r| is_theta(r)).count() == theta));
    assert_eq!(with_stage, reference);
}

#[test]
fn materializing_a_materialized_store_derives_nothing() {
    let (mut store, first, _) = materialized(InferrayOptions::default());
    assert!(first.inferred_triples() > 0);
    let before = store.clone();

    let mut reasoner = InferrayReasoner::new(FRAGMENT);
    let second = reasoner.materialize(&mut store);
    assert_eq!(second.inferred_triples(), 0);
    assert_eq!(second.iterations, 1, "one iteration finds the fixed point");
    assert_eq!(second.duplicates_removed, second.derived_raw);
    assert_eq!(reasoner.last_iteration_profile().samples[0].new_pairs, 0);
    assert_eq!(store, before);
}

#[test]
fn work_counters_are_identical_sequentially_and_in_parallel() {
    let (parallel_store, parallel, parallel_profile) = materialized(InferrayOptions::default());
    let (sequential_store, sequential, sequential_profile) =
        materialized(InferrayOptions::sequential());
    assert_eq!(parallel_store, sequential_store);
    assert_eq!(parallel.derived_raw, sequential.derived_raw);
    assert_eq!(parallel.duplicates_removed, sequential.duplicates_removed);
    assert_eq!(
        parallel.derived_raw - parallel.duplicates_removed,
        parallel_profile
            .samples
            .iter()
            .map(|s| s.new_pairs)
            .sum::<usize>(),
        "every raw pair is a duplicate or a new triple"
    );
    // Per iteration: raw pairs, new pairs, and raw pairs per fired rule.
    let rows = |profile: &IterationProfile| -> Vec<(usize, usize, Vec<usize>)> {
        profile
            .samples
            .iter()
            .map(|s| {
                let per_rule = s.rules.iter().map(|r| r.raw_pairs).collect();
                (s.raw_pairs, s.new_pairs, per_rule)
            })
            .collect()
    };
    let fired = |profile: &IterationProfile| -> Vec<RuleRef> {
        let rules = profile.samples.iter().flat_map(|s| &s.rules);
        rules.map(|r| r.rule).collect()
    };
    assert_eq!(fired(&parallel_profile), fired(&sequential_profile));
    assert_eq!(rows(&parallel_profile), rows(&sequential_profile));
    assert_eq!(parallel_profile.samples.len(), 1);
    assert_eq!(parallel.iterations, sequential.iterations);
}

/// EQ-REP-O asks every table for the subjects of a handful of objects (the
/// `owl:sameAs` subjects). It must not sort every table by object to do so:
/// a table no other rule reads from the object side ends the run without an
/// ⟨o,s⟩ cache — and with the rewritten objects in it.
#[test]
fn eq_rep_o_builds_no_os_cache() {
    let doc = "\
<http://ex/alice> <http://www.w3.org/2002/07/owl#sameAs> <http://ex/aliz> .
<http://ex/bob> <http://ex/knows> <http://ex/alice> .
<http://ex/carol> <http://ex/knows> <http://ex/bob> .
<http://ex/bob> <http://ex/age> \"42\" .
";
    for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
        let loaded = load_ntriples(doc).expect("the document parses");
        let id = |iri: &str| {
            loaded
                .dictionary
                .id_of_iri(iri)
                .expect("a term of the document")
        };
        let mut store = loaded.store.clone();
        let mut reasoner = InferrayReasoner::with_options(Fragment::RdfsPlus, options);
        reasoner.materialize(&mut store);

        let knows = store.table(id("http://ex/knows")).expect("asserted");
        assert!(
            knows.contains_pair(id("http://ex/bob"), id("http://ex/aliz")),
            "EQ-REP-O fired"
        );
        for property in ["http://ex/knows", "http://ex/age"] {
            let table = store.table(id(property)).expect("asserted");
            assert!(!table.has_os_cache(), "⟨o,s⟩ of {property} was built");
        }
    }
}

/// The RDFS-default program with the two body atoms of every rule swapped,
/// so that none of them is recognized as a built-in. Swapped, a
/// transitivity rule is still a closure.
fn swapped_program() -> String {
    let mut program = PRELUDE.to_owned();
    for &rule in Ruleset::for_fragment(FRAGMENT).rules() {
        let text = analysis::builtin::rule_text(rule);
        let swapped = text
            .split_once(": ")
            .and_then(|(name, rest)| {
                let (body, head) = rest.split_once(" => ")?;
                let (first, second) = body.split_once(", ")?;
                Some(format!("{name}: {second}, {first} => {head}"))
            })
            .unwrap_or_else(|| text.to_owned());
        program.push_str(&swapped);
        program.push('\n');
    }
    program
}

#[test]
fn a_custom_program_runs_the_kernels_and_gets_the_closure_stage() {
    let text = std::fs::read_to_string("tests/fixtures/fixed_point_work.nt")
        .expect("the fixture is committed");
    let mut loaded = load_ntriples(&text).expect("the fixture parses");
    let ruleset = analysis::load_ruleset(&swapped_program(), &mut loaded.dictionary)
        .expect("the swapped program loads");
    assert!(ruleset.rules().is_empty(), "no rule is recognized");
    assert_eq!(ruleset.custom_rules().len(), 10);
    assert_eq!(
        ruleset.closures().len(),
        Ruleset::for_fragment(FRAGMENT).closures().len()
    );

    let mut custom = loaded.store;
    let mut reasoner = InferrayReasoner::with_ruleset(ruleset.clone(), InferrayOptions::default());
    reasoner.materialize(&mut custom);
    let mut builtin_reasoner = InferrayReasoner::new(FRAGMENT);
    let mut builtin = fixture();
    builtin_reasoner.materialize(&mut builtin);
    assert_eq!(custom, builtin);

    // The same rows, rule by rule, by name.
    let rows = |profile: &IterationProfile, name: &dyn Fn(RuleRef) -> String| {
        let mut rows: Vec<(String, usize)> = profile.samples[0]
            .rules
            .iter()
            .map(|r| (name(r.rule), r.raw_pairs))
            .collect();
        rows.sort();
        rows
    };
    let custom_rows = rows(reasoner.last_iteration_profile(), &|rule| match rule {
        RuleRef::Builtin(id) => id.name().to_owned(),
        RuleRef::Custom(i) => ruleset.custom_rules()[i].name.clone(),
    });
    let builtin_rows = rows(builtin_reasoner.last_iteration_profile(), &|rule| {
        rule.to_string()
    });
    assert!(builtin_rows.iter().any(|(_, raw)| *raw > 0));
    assert_eq!(custom_rows, builtin_rows, "iteration 1, raw pairs per rule");
    assert_eq!(
        reasoner.last_closure_stats().tables_closed,
        builtin_reasoner.last_closure_stats().tables_closed
    );
    assert!(builtin_reasoner.last_closure_stats().tables_closed > 0);
}

/// RDFS-Plus with every body reordered — two atoms swapped, three rotated —
/// and, where the body is one atom, the two heads swapped: no rule is
/// recognized but EQ-SYM, one atom on either side.
fn reordered_rdfs_plus() -> String {
    let rotated = |atoms: &str| {
        let mut atoms: Vec<&str> = atoms.split(", ").collect();
        atoms.rotate_left(1);
        atoms.join(", ")
    };
    let mut program = PRELUDE.to_owned();
    for &rule in Ruleset::for_fragment(Fragment::RdfsPlus).rules() {
        let text = analysis::builtin::rule_text(rule);
        let (name, rest) = text.split_once(": ").expect("a named rule");
        let (body, head) = rest
            .trim_end_matches(" .")
            .split_once(" => ")
            .expect("a body and a head");
        let (body, head) = if body.contains(", ") {
            (rotated(body), head.to_owned())
        } else {
            (body.to_owned(), rotated(head))
        };
        program.push_str(&format!("{name}: {body} => {head} .\n"));
    }
    program
}

#[test]
fn a_reordered_rdfs_plus_program_does_the_fragments_work_on_lubm() {
    let dataset = LubmGenerator::new(3_000).with_seed(5).generate();
    let mut loaded = load_triples(dataset.triples.iter()).expect("generated datasets are valid");
    let declared = |class| {
        loaded
            .store
            .table(wk::RDF_TYPE)
            .is_some_and(|t| t.iter_pairs().any(|(_, o)| o == class))
    };
    assert!(declared(wk::OWL_FUNCTIONAL_PROPERTY) && declared(wk::OWL_INVERSE_FUNCTIONAL_PROPERTY));
    assert!(loaded
        .store
        .table(wk::OWL_SAME_AS)
        .is_some_and(|t| !t.is_empty()));
    let ruleset = analysis::load_ruleset(&reordered_rdfs_plus(), &mut loaded.dictionary)
        .expect("the reordered program loads");
    assert_eq!(
        ruleset.rules(),
        [RuleId::EqSym],
        "only EQ-SYM is recognized"
    );
    let builtin_ruleset = Ruleset::for_fragment(Fragment::RdfsPlus);
    assert_eq!(ruleset.custom_rules().len() + 1, builtin_ruleset.len());

    let mut builtin = loaded.store.clone();
    let mut builtin_reasoner = InferrayReasoner::new(Fragment::RdfsPlus);
    let builtin_stats = builtin_reasoner.materialize(&mut builtin);
    let mut custom = loaded.store;
    let mut reasoner = InferrayReasoner::with_ruleset(ruleset.clone(), InferrayOptions::default());
    let stats = reasoner.materialize(&mut custom);
    assert_eq!(custom, builtin);
    assert_eq!(stats.derived_raw, builtin_stats.derived_raw);

    // Every iteration, raw pairs rule by rule, by name.
    let rows = |reasoner: &InferrayReasoner, ruleset: &Ruleset| {
        let mut rows: Vec<(usize, String, usize)> = Vec::new();
        for (i, sample) in reasoner.last_iteration_profile().samples.iter().enumerate() {
            rows.extend(
                sample
                    .rules
                    .iter()
                    .map(|r| (i, ruleset.compiled(r.rule).name.clone(), r.raw_pairs)),
            );
        }
        rows.sort();
        rows
    };
    let builtin_rows = rows(&builtin_reasoner, &builtin_ruleset);
    for name in ["EQ-REP-S", "EQ-REP-O", "PRP-FP", "PRP-IFP"] {
        assert!(
            builtin_rows
                .iter()
                .any(|(_, rule, raw)| rule == name && *raw > 0),
            "{name} did no work: {builtin_rows:?}"
        );
    }
    assert_eq!(
        rows(&reasoner, &ruleset),
        builtin_rows,
        "raw pairs per rule"
    );
}
