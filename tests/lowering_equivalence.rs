//! The shape kernels, checked against the nested-loop join.
//!
//! A rule's text picks its kernel (`analysis::lowering`): the merge join
//! for the α shape, the table scan for the γ/δ shape, the nested-loop join
//! for everything else — and every rule can run the nested loop. Over
//! random stores and a random frontier `new ⊆ main` (sometimes `main`
//! itself, the first iteration's whole-store frontier), for the sixteen
//! catalog texts that run a kernel and for custom rules of the same shapes
//! written another way, this suite holds each kernel to the nested loop:
//!
//! * it derives no triple the nested loop does not, and every triple the
//!   nested loop derives outside `main`;
//! * it never emits more raw pairs — a merge join exactly as many.
//!
//! The kernels emit fewer pairs in two places only, both pinned by a named
//! case: a copy of a table onto itself emits nothing, and a head that keeps
//! one end of the data table emits each distinct value once per schema
//! match. `PROPTEST_CASES` raises the number of random stores.

use inferray::dictionary::{wellknown as wk, Dictionary};
use inferray::model::ids::{nth_property_id, nth_resource_id};
use inferray::rules::analysis::{self, CompiledRule, Lowering};
use inferray::rules::{executors, Fragment, RuleContext, RuleId, RuleRef, Ruleset};
use inferray::store::{InferredBuffer, TripleStore};
use inferray::IdTriple;
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;
use common::arbitrary_store;

/// Custom rules of the two kernel shapes, written unlike any built-in.
const CUSTOM: &str = "\
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix ex: <urn:ex#> .
rule grandparent: ?x rdfs:subClassOf ?y, ?y rdfs:subClassOf ?z => ?x ex:grand ?z .
rule type-first: ?x a ?c1, ?c1 rdfs:subClassOf ?c2 => ?x a ?c2 .
rule data-first: ?x ?p ?y, ?p rdfs:domain ?c => ?x a ?c .
rule inverse-data-first: ?x ?p1 ?y, ?p1 owl:inverseOf ?p2 => ?y ?p2 ?x .
rule constant-subject-join: ?c1 rdfs:subClassOf ?c2, ?x a ?c1 => ex:root ex:typed ?x .
rule constant-subject-scan: ?p rdfs:range ?c, ?x ?p ?y => ex:seen ex:object ?y .
rule subject-as-object: ?p rdfs:domain ?c, ?x ?p ?y => ?c ex:covers ?x .
rule two-heads-join: ?c1 rdfs:subClassOf ?c2, ?x a ?c1 => ?x a ?c2, ?c2 ex:has ?x .
rule two-heads-scan: ?p1 owl:inverseOf ?p2, ?x ?p1 ?y => ?y ?p2 ?x, ?x ?p2 ?y .
rule inverse-onto-itself: ?p1 owl:inverseOf ?p2, ?x ?p1 ?y => ?y ?p1 ?x .
rule copy-data-first: ?x ?p1 ?y, ?p1 rdfs:subPropertyOf ?p2 => ?x ?p2 ?y .
";

/// A ruleset holding `rule`: RDFS-Full and RDFS-Plus-Full together hold all
/// 38 built-ins.
fn holder(rule: RuleId) -> Ruleset {
    [Fragment::RdfsPlusFull, Fragment::RdfsFull]
        .into_iter()
        .map(Ruleset::for_fragment)
        .find(|ruleset| ruleset.contains(rule))
        .unwrap_or_else(|| panic!("{rule} is in no full fragment"))
}

/// Every catalog text `apply_rule` runs through a kernel, then every
/// custom rule of [`CUSTOM`], with its name.
fn rules() -> Vec<(String, CompiledRule)> {
    let builtins = RuleId::ALL
        .into_iter()
        .filter(|&rule| executors::hand_written(rule).is_none())
        .map(|rule| {
            let compiled = holder(rule).compiled(RuleRef::Builtin(rule)).clone();
            (rule.name().to_owned(), compiled)
        })
        .filter(|(_, compiled)| analysis::lowering(compiled) != Lowering::NestedLoop);
    let custom = analysis::analyze(CUSTOM)
        .compile(&mut Dictionary::new())
        .expect("the custom rules compile")
        .rules
        .into_iter()
        .map(|rule| (rule.name.clone(), rule));
    builtins.chain(custom).collect()
}

/// What `rule` derives through `lowering` over (`main`, `new`): the triples
/// and the raw pair count.
fn derive(
    rule: &CompiledRule,
    lowering: &Lowering,
    main: &TripleStore,
    new: &TripleStore,
) -> (BTreeSet<IdTriple>, usize) {
    let mut out = InferredBuffer::new();
    analysis::apply_lowered(rule, lowering, &RuleContext::new(main, new), &mut out);
    let triples = out
        .iter()
        .flat_map(|(p, pairs)| {
            pairs
                .chunks_exact(2)
                .map(move |so| IdTriple::new(so[0], p, so[1]))
        })
        .collect();
    (triples, out.len())
}

/// Schema pairs that name their own data table, so that the random stores
/// copy and reverse tables onto themselves.
fn reflexive_schema() -> [IdTriple; 3] {
    let p = |n: usize| nth_property_id(800 + n);
    [
        IdTriple::new(p(0), wk::RDFS_SUB_PROPERTY_OF, p(0)),
        IdTriple::new(p(1), wk::OWL_INVERSE_OF, p(1)),
        IdTriple::new(p(2), wk::OWL_SAME_AS, p(2)),
    ]
}

proptest! {
    #[test]
    fn every_kernel_derives_what_the_nested_loop_derives(
        mut triples in arbitrary_store(),
        mask in prop::collection::vec(any::<bool>(), 1..30),
        whole in any::<bool>(),
        reflexive in any::<bool>(),
    ) {
        if reflexive {
            triples.extend(reflexive_schema());
        }
        let main = TripleStore::from_triples(triples.iter().copied());
        let mut keep = mask.iter().copied().cycle();
        let frontier =
            TripleStore::from_triples(main.iter_triples().filter(|_| keep.next().unwrap_or(true)));
        let new = if whole { &main } else { &frontier };
        for (name, rule) in rules() {
            let lowering = analysis::lowering(&rule);
            let (kernel, kernel_raw) = derive(&rule, &lowering, &main, new);
            let (nested, nested_raw) = derive(&rule, &Lowering::NestedLoop, &main, new);
            let stray: Vec<_> = kernel.difference(&nested).collect();
            prop_assert!(stray.is_empty(), "{}: the kernel alone derives {:?} from {:?}", name, stray, triples);
            let missed: Vec<_> = nested
                .iter()
                .filter(|t| !main.contains(t) && !kernel.contains(t))
                .collect();
            prop_assert!(missed.is_empty(), "{}: the kernel misses {:?} from {:?}", name, missed, triples);
            prop_assert!(kernel_raw <= nested_raw, "{}: {} raw pairs, nested loop {}", name, kernel_raw, nested_raw);
            if matches!(lowering, Lowering::MergeJoin(_)) {
                prop_assert_eq!(kernel_raw, nested_raw, "{}: a merge join is the same join", name);
            }
        }
    }
}

/// Sixteen catalog texts and every custom rule above run a kernel; the
/// suite is not comparing the nested loop with itself.
#[test]
fn sixteen_catalog_texts_and_every_custom_shape_run_a_kernel() {
    let rules = rules();
    assert_eq!(rules.len(), 16 + CUSTOM.matches("\nrule ").count());
    for (name, rule) in &rules {
        assert_ne!(
            analysis::lowering(rule),
            Lowering::NestedLoop,
            "{name} fell back to the nested loop"
        );
    }
}

fn rule(name: &str) -> CompiledRule {
    let rules = rules();
    let (_, rule) = rules
        .iter()
        .find(|(n, _)| n == name)
        .expect("a listed rule");
    rule.clone()
}

/// Raw pairs through the kernel and through the nested loop, whole store.
fn raw_pairs(rule: &CompiledRule, store: &TripleStore) -> (usize, usize) {
    let (_, kernel) = derive(rule, &analysis::lowering(rule), store, store);
    let (_, nested) = derive(rule, &Lowering::NestedLoop, store, store);
    (kernel, nested)
}

#[test]
fn a_copy_of_a_table_onto_itself_emits_nothing() {
    let p = nth_property_id(810);
    let (a, b) = (nth_resource_id(8_200), nth_resource_id(8_201));
    let store = TripleStore::from_triples([
        IdTriple::new(p, wk::RDFS_SUB_PROPERTY_OF, p),
        IdTriple::new(a, p, b),
        IdTriple::new(b, p, a),
    ]);
    assert_eq!(raw_pairs(&rule("PRP-SPO1"), &store), (0, 2));
    assert_eq!(raw_pairs(&rule("copy-data-first"), &store), (0, 2));
}

#[test]
fn a_head_of_one_data_end_emits_each_value_once_per_schema_match() {
    let p = nth_property_id(811);
    let (c, d) = (nth_resource_id(8_300), nth_resource_id(8_301));
    let (a, b, e) = (
        nth_resource_id(8_310),
        nth_resource_id(8_311),
        nth_resource_id(8_312),
    );
    let store = TripleStore::from_triples([
        IdTriple::new(p, wk::RDFS_DOMAIN, c),
        IdTriple::new(p, wk::RDFS_DOMAIN, d),
        IdTriple::new(p, wk::RDFS_RANGE, c),
        IdTriple::new(a, p, b),
        IdTriple::new(a, p, e),
        IdTriple::new(b, p, e),
    ]);
    // Two subjects and two objects, each under two domains or one range.
    assert_eq!(raw_pairs(&rule("PRP-DOM"), &store), (4, 6));
    assert_eq!(raw_pairs(&rule("PRP-RNG"), &store), (2, 3));
    assert_eq!(raw_pairs(&rule("subject-as-object"), &store), (4, 6));
    assert_eq!(raw_pairs(&rule("constant-subject-scan"), &store), (2, 3));
}
