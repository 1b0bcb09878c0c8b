//! Scheduled-vs-full equivalence suite for the §4.3 rule-dependency
//! scheduler.
//!
//! The scheduling invariant: from iteration 2 on, a rule none of whose input
//! tables received new pairs in the previous iteration can only re-derive
//! duplicates, so skipping it must leave the materialization **byte
//! identical** — same property tables, same pair arrays — to firing every
//! rule of the ruleset on every iteration. This suite pins that invariant
//! for every fragment, for the parallel and sequential loops, for the
//! incremental (`materialize_delta`) path, and checks the scheduler actually
//! skips work on multi-iteration datasets.

use inferray::core::{InferrayReasoner, Materializer};
use inferray::datasets::LubmGenerator;
use inferray::dictionary::wellknown as wk;
use inferray::model::ids::nth_property_id;
use inferray::parser::loader::load_triples;
use inferray::rules::{analysis, Fragment, RuleId, Ruleset};
use inferray::store::TripleStore;
use inferray::{IdTriple, InferrayOptions, Triple};
use proptest::prelude::*;
use std::collections::HashMap;

/// Byte-level equality: same non-empty tables, same ⟨s,o⟩ pair arrays.
fn assert_byte_identical(expected: &TripleStore, actual: &TripleStore, label: &str) {
    let expected_props: Vec<u64> = expected.property_ids().collect();
    let actual_props: Vec<u64> = actual.property_ids().collect();
    assert_eq!(
        expected_props, actual_props,
        "{label}: property sets diverge"
    );
    for p in expected_props {
        assert_eq!(
            expected.table(p).unwrap().pairs(),
            actual.table(p).unwrap().pairs(),
            "{label}: table {p} diverges"
        );
    }
}

fn store(triples: &[(u64, u64, u64)]) -> TripleStore {
    TripleStore::from_triples(triples.iter().map(|&(s, p, o)| IdTriple::new(s, p, o)))
}

/// A dataset exercising every rule family: class/property hierarchies,
/// domains and ranges, equivalences, sameAs chains, inverse, symmetric,
/// transitive, functional and inverse-functional properties.
fn mixed_dataset() -> Vec<(u64, u64, u64)> {
    let p = |n: usize| nth_property_id(800 + n);
    let (knows, kned_by, part_of, has_id, owns, married) = (p(0), p(1), p(2), p(3), p(4), p(5));
    let e = 9_700_000u64;
    vec![
        // Class hierarchy + instances.
        (e, wk::RDFS_SUB_CLASS_OF, e + 1),
        (e + 1, wk::RDFS_SUB_CLASS_OF, e + 2),
        (e + 2, wk::OWL_EQUIVALENT_CLASS, e + 3),
        (e + 10, wk::RDF_TYPE, e),
        (e + 11, wk::RDF_TYPE, e + 1),
        // Property hierarchy, domain/range.
        (knows, wk::RDFS_SUB_PROPERTY_OF, owns),
        (owns, wk::RDFS_DOMAIN, e),
        (owns, wk::RDFS_RANGE, e + 1),
        (knows, wk::OWL_INVERSE_OF, kned_by),
        (married, wk::RDF_TYPE, wk::OWL_SYMMETRIC_PROPERTY),
        (part_of, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
        (has_id, wk::RDF_TYPE, wk::OWL_INVERSE_FUNCTIONAL_PROPERTY),
        (owns, wk::RDF_TYPE, wk::OWL_FUNCTIONAL_PROPERTY),
        // Instance data feeding the above.
        (e + 10, knows, e + 11),
        (e + 10, married, e + 12),
        (e + 12, part_of, e + 13),
        (e + 13, part_of, e + 14),
        (e + 10, has_id, e + 20),
        (e + 15, has_id, e + 20),
        (e + 16, owns, e + 17),
        (e + 16, owns, e + 18),
        // sameAs chain.
        (e + 10, wk::OWL_SAME_AS, e + 30),
        (e + 30, wk::OWL_SAME_AS, e + 31),
    ]
}

/// A mixed rule program for the analyzer path: two recognized builtins plus
/// four custom rules, including a symmetric-transitive pair — a custom
/// closure and a custom mirror rule that feed each other across
/// iterations.
fn custom_program() -> String {
    format!(
        "{}@prefix ex: <http://ex/> .\n{}\n{}\n\
         rule gp: ?x ex:parent ?y, ?y ex:parent ?z => ?x ex:grandparent ?z .\n\
         rule gc: ?x ex:grandparent ?y => ?y ex:grandchild ?x .\n\
         rule near-sym: ?x ex:near ?y => ?y ex:near ?x .\n\
         rule near-trans: ?x ex:near ?y, ?y ex:near ?z => ?x ex:near ?z .\n",
        analysis::builtin::PRELUDE,
        analysis::builtin::rule_text(RuleId::CaxSco),
        analysis::builtin::rule_text(RuleId::ScmSco),
    )
}

/// Instance data feeding both halves of [`custom_program`]: a parent chain
/// and near edges for the custom rules, a subclass chain with a typed
/// instance for the builtins.
fn custom_data() -> Vec<Triple> {
    const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    const SUB_CLASS: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    let ex = |n: &str| format!("http://ex/{n}");
    vec![
        Triple::iris(ex("a"), ex("parent"), ex("b")),
        Triple::iris(ex("b"), ex("parent"), ex("c")),
        Triple::iris(ex("c"), ex("parent"), ex("d")),
        Triple::iris(ex("e"), ex("parent"), ex("c")),
        Triple::iris(ex("n1"), ex("near"), ex("n2")),
        Triple::iris(ex("n2"), ex("near"), ex("n3")),
        Triple::iris(ex("C1"), SUB_CLASS, ex("C2")),
        Triple::iris(ex("C2"), SUB_CLASS, ex("C3")),
        Triple::iris(ex("a"), RDF_TYPE, ex("C1")),
    ]
}

/// Loads `data`, compiles `program` against the same dictionary (applying
/// any identifier promotions the rule constants caused), and returns the
/// still-explicit store with the analyzer-built ruleset.
fn load_with_rules(program: &str, data: &[Triple]) -> (TripleStore, Ruleset) {
    let loaded = load_triples(data.iter()).expect("data is valid");
    let mut dictionary = loaded.dictionary;
    let mut store = loaded.store;
    let ruleset = analysis::load_ruleset(program, &mut dictionary)
        .expect("the program analyzes without errors");
    if dictionary.has_pending_promotions() {
        let remap: HashMap<u64, u64> = dictionary.take_promotions().into_iter().collect();
        store.remap_ids(&remap);
        store.finalize();
    }
    (store, ruleset)
}

#[test]
fn scheduled_equals_full_on_an_analyzer_loaded_ruleset() {
    let program = custom_program();
    let data = custom_data();
    for parallel in [true, false] {
        let base = if parallel {
            InferrayOptions::default()
        } else {
            InferrayOptions::sequential()
        };
        let (mut scheduled_store, ruleset) = load_with_rules(&program, &data);
        let mut scheduled = InferrayReasoner::with_ruleset(ruleset.clone(), base);
        let stats = scheduled.materialize(&mut scheduled_store);
        // No rule outside the program writes its tables: the whole program
        // is one stratum, closed by its own pass over several iterations,
        // and the data loop has nothing left to fire.
        assert_eq!(ruleset.stratum(), ruleset.all_refs());
        let stratum_iterations = scheduled.last_closure_stats().stratum_iterations;
        assert!(
            stats.inferred_triples() > 0 && stratum_iterations >= 2 && stats.iterations == 0,
            "custom program must derive across multiple iterations \
             ({} inferred, {stratum_iterations} + {} iterations)",
            stats.inferred_triples(),
            stats.iterations
        );

        let (mut full_store, _) = load_with_rules(&program, &data);
        let full_options = InferrayOptions {
            schedule_rules: false,
            ..base
        };
        InferrayReasoner::with_ruleset(ruleset, full_options).materialize(&mut full_store);
        assert_byte_identical(
            &full_store,
            &scheduled_store,
            &format!("analyzer-loaded ruleset (parallel={parallel})"),
        );
    }
}

/// A recursive rule closes one link per iteration: a 100-link chain needs
/// 100 of them, and every run — scheduled, unscheduled, incremental — must
/// reach the fixed point, not stop at an iteration budget with pairs left
/// underived.
#[test]
fn a_long_recursive_chain_reaches_its_fixed_point() {
    let program = "@prefix ex: <http://ex/> .\n\
                   rule anc-base: ?x ex:parent ?y => ?x ex:ancestor ?y .\n\
                   rule anc-step: ?x ex:parent ?y, ?y ex:ancestor ?z => ?x ex:ancestor ?z .\n";
    let links = 100;
    let chain: Vec<Triple> = (0..links)
        .map(|i| {
            Triple::iris(
                format!("http://ex/n{i}"),
                "http://ex/parent",
                format!("http://ex/n{}", i + 1),
            )
        })
        .collect();
    let (explicit, ruleset) = load_with_rules(program, &chain);
    let ancestor_id = ruleset.custom_rules()[0].head[0].p.as_const();
    let ancestor = |store: &TripleStore| {
        let id = ancestor_id.expect("a constant head predicate");
        store.table(id).map_or(0, |t| t.len())
    };
    let pairs = links * (links + 1) / 2;
    for options in [InferrayOptions::default(), InferrayOptions::unscheduled()] {
        let mut store = explicit.clone();
        InferrayReasoner::with_ruleset(ruleset.clone(), options).materialize(&mut store);
        assert_eq!(ancestor(&store), pairs, "{options:?}");

        // The same closure, one delta at a time through the loop itself.
        let mut incremental = TripleStore::new();
        let mut reasoner = InferrayReasoner::with_ruleset(ruleset.clone(), options);
        reasoner.materialize(&mut incremental);
        let stats = reasoner.materialize_delta(&mut incremental, explicit.iter_triples());
        assert_eq!(ancestor(&incremental), pairs, "incremental, {options:?}");
        assert!(stats.iterations >= links, "{} iterations", stats.iterations);
    }
}

#[test]
fn scheduled_equals_full_on_every_fragment() {
    let triples = mixed_dataset();
    for fragment in Fragment::ALL {
        for parallel in [true, false] {
            let base = if parallel {
                InferrayOptions::default()
            } else {
                InferrayOptions::sequential()
            };
            let mut scheduled_store = store(&triples);
            let mut full_store = store(&triples);
            let mut scheduled = InferrayReasoner::with_options(fragment, base);
            scheduled.materialize(&mut scheduled_store);
            let full_options = InferrayOptions {
                schedule_rules: false,
                ..base
            };
            InferrayReasoner::with_options(fragment, full_options).materialize(&mut full_store);
            assert_byte_identical(
                &full_store,
                &scheduled_store,
                &format!("{fragment} (parallel={parallel})"),
            );
        }
    }
}

#[test]
fn scheduler_skips_rules_on_a_multi_iteration_dataset() {
    let triples = mixed_dataset();
    for fragment in Fragment::ALL {
        let mut data = store(&triples);
        let mut reasoner = InferrayReasoner::new(fragment);
        let stats = reasoner.materialize(&mut data);
        let profile = reasoner.last_iteration_profile();
        assert!(stats.iterations >= 1, "{fragment}: the data loop ran");
        let ruleset = reasoner.ruleset();
        let closed_before_the_loop = ruleset
            .all_refs()
            .into_iter()
            .filter(|&rule| ruleset.closes(rule) || ruleset.stratum().contains(&rule))
            .count();
        assert_eq!(
            profile.samples[0].rules_skipped, closed_before_the_loop,
            "{fragment}: iteration 1 skips exactly the θ rules and the schema stratum \
             closed before it"
        );
        assert!(
            profile.total_rules_skipped() > 0,
            "{fragment}: the scheduler skipped nothing"
        );
    }
}

#[test]
fn scheduled_equals_full_on_lubm() {
    let dataset = LubmGenerator::new(8_000).with_seed(7).generate();
    let loaded = load_triples(dataset.triples.iter()).expect("generated dataset is valid");
    for fragment in [Fragment::RdfsDefault, Fragment::RdfsPlus] {
        let mut scheduled_store = loaded.store.clone();
        let mut full_store = loaded.store.clone();
        let mut scheduled = InferrayReasoner::new(fragment);
        scheduled.materialize(&mut scheduled_store);
        InferrayReasoner::with_options(fragment, InferrayOptions::unscheduled())
            .materialize(&mut full_store);
        assert_byte_identical(&full_store, &scheduled_store, &format!("LUBM {fragment}"));
        assert!(
            scheduled.last_iteration_profile().total_rules_skipped() > 0,
            "LUBM {fragment}: no rule firing saved"
        );
    }
}

#[test]
fn incremental_path_is_identical_with_and_without_scheduling() {
    let triples = mixed_dataset();
    let p = |n: usize| nth_property_id(800 + n);
    let e = 9_700_000u64;
    let delta = [
        IdTriple::new(e + 40, wk::RDF_TYPE, e),
        IdTriple::new(e + 40, p(0), e + 10),
        IdTriple::new(e + 14, p(2), e + 41),
        IdTriple::new(e + 31, wk::OWL_SAME_AS, e + 42),
    ];
    for fragment in Fragment::ALL {
        // Scheduled incremental run.
        let mut scheduled_store = store(&triples);
        let mut scheduled = InferrayReasoner::new(fragment);
        scheduled.materialize(&mut scheduled_store);
        scheduled.materialize_delta(&mut scheduled_store, delta);

        // Unscheduled incremental run.
        let mut full_store = store(&triples);
        let mut full = InferrayReasoner::with_options(fragment, InferrayOptions::unscheduled());
        full.materialize(&mut full_store);
        full.materialize_delta(&mut full_store, delta);
        assert_byte_identical(&full_store, &scheduled_store, &format!("delta {fragment}"));

        // Both equal re-materializing the extended input from scratch.
        let mut batch = store(&triples);
        for t in delta {
            batch.add_triple(t);
        }
        batch.finalize();
        InferrayReasoner::new(fragment).materialize(&mut batch);
        assert_byte_identical(
            &batch,
            &scheduled_store,
            &format!("delta-vs-batch {fragment}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Property-based: randomly generated safe rules always compile to
// scheduler-accepted signatures, and scheduling never skips a firing that
// changes the store.
// ---------------------------------------------------------------------------

/// A random rule program that is *safe by construction*: each rule's body is
/// a variable chain `?v0 … ?vN` (connected, so no unbound cross products),
/// the head's variables are drawn from that chain (range-restricted), and
/// head predicates come from a pool disjoint from the body pool (no rule
/// ever repeats a body atom, so none is dead). Predicate positions mix
/// constants with variables to exercise the whole-store fallback signature.
fn arbitrary_safe_program() -> impl Strategy<Value = String> {
    let rule = (
        1usize..3,
        prop::collection::vec(0u8..5, 2),
        0u8..3,
        0u8..3,
        0u8..3,
    )
        .prop_map(|(body_len, preds, head_pred, head_s, head_o)| {
            let atoms: Vec<String> = (0..body_len)
                .map(|k| {
                    let pred = match preds[k] {
                        4 => format!("?p{k}"),
                        n => format!("ex:p{n}"),
                    };
                    format!("?v{k} {pred} ?v{}", k + 1)
                })
                .collect();
            format!(
                "{} => ?v{} ex:h{head_pred} ?v{} .",
                atoms.join(", "),
                head_s as usize % (body_len + 1),
                head_o as usize % (body_len + 1),
            )
        });
    prop::collection::vec(rule, 1..4).prop_map(|rules| {
        let mut out = String::from("@prefix ex: <http://ex/> .\n");
        for (i, r) in rules.iter().enumerate() {
            out.push_str(&format!("rule r{i}: {r}\n"));
        }
        out
    })
}

/// Random instance data over the same vocabulary the generated rules use.
fn arbitrary_instance_data() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec(
        (0u8..6, 0u8..4, 0u8..6).prop_map(|(s, p, o)| {
            Triple::iris(
                format!("http://ex/i{s}"),
                format!("http://ex/p{p}"),
                format!("http://ex/i{o}"),
            )
        }),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_safe_rules_always_compile_and_schedule_exactly(
        program in arbitrary_safe_program(),
        data in arbitrary_instance_data(),
    ) {
        // Safety by construction: the analyzer must accept every generated
        // program and derive signatures the scheduler can run.
        let analysis = analysis::analyze(&program);
        prop_assert!(
            !analysis.has_errors(),
            "generated program rejected:\n{program}\n{:?}",
            analysis.diagnostics
        );

        let run = |schedule: bool| {
            let (mut store, ruleset) = load_with_rules(&program, &data);
            let options = if schedule {
                InferrayOptions::default()
            } else {
                InferrayOptions::unscheduled()
            };
            InferrayReasoner::with_ruleset(ruleset, options).materialize(&mut store);
            store
        };
        // Scheduling must not skip any firing that changes the store.
        assert_byte_identical(&run(false), &run(true), "random safe rules");
    }
}
