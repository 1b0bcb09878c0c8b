//! The shape kernels, checked against the nested-loop join.
//!
//! A rule's text picks its kernel (`analysis::lowering`): the merge join
//! for the α shape, the table scan for the γ/δ shape, the transitive
//! closure for the θ shape, the substitution for the same-as shape, the
//! self join for the functional-property shape, the nested-loop join for
//! everything else — and every rule can run the nested loop. Over random
//! stores and a random frontier `new ⊆ main` (sometimes `main` itself, the
//! first iteration's whole-store frontier), for the sixteen catalog texts
//! that run a join kernel, the two that run the substitution, and custom
//! rules of the same shapes written another way, this suite holds each of
//! these kernels to the nested loop:
//!
//! * it derives no triple the nested loop does not, and every triple the
//!   nested loop derives outside `main`;
//! * it never emits more raw pairs — a merge join exactly as many.
//!
//! The kernels emit fewer pairs in two places only, both pinned by a named
//! case: a copy of a table onto itself emits nothing, and a head that keeps
//! one end of the data table emits each distinct value once per schema
//! match.
//!
//! The closure kernel derives in one firing what the nested loop derives in
//! many. For the four θ catalog texts and custom closures written another
//! way, the suite holds it to two laws: when `new` touches a closed table or
//! its declaration, it emits exactly the closure of `main`'s table (of the
//! symmetrized table for `owl:sameAs`) less the table, and otherwise
//! nothing; and over the whole store it reaches the nested loop's own fixed
//! point (with EQ-SYM beside the `owl:sameAs` closures).
//!
//! The self join reads an `owl:sameAs` head as an equivalence between
//! distinct terms. For PRP-FP, PRP-IFP and custom self joins, whatever the
//! frontier, it emits exactly the pairs the nested loop derives over the
//! whole store with the smaller term first, once per witness the nested
//! loop finds for them. `PROPTEST_CASES` raises the number of random stores.

use inferray::dictionary::{wellknown as wk, Dictionary};
use inferray::model::ids::{is_property_id, nth_property_id, nth_resource_id};
use inferray::rules::analysis::{self, CompiledRule, Lowering, Term};
use inferray::rules::{Fragment, RuleContext, RuleId, RuleRef, Ruleset};
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

/// Custom rules of the closure shape, written unlike any built-in.
const CUSTOM_CLOSURES: &str = "\
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
rule swapped-spo: ?q rdfs:subPropertyOf ?r, ?p rdfs:subPropertyOf ?q => ?p rdfs:subPropertyOf ?r .
rule declared-symmetric: ?x ?p ?y, ?y ?p ?z, ?p a owl:SymmetricProperty => ?x ?p ?z .
rule swapped-eq-trans: ?b owl:sameAs ?c, ?a owl:sameAs ?b => ?a owl:sameAs ?c .
";

/// Custom rules of the substitution shape, written unlike any built-in: a
/// link read from its object, the data atom first, links of another table,
/// and substitutions at the object end.
const CUSTOM_SUBSTITUTIONS: &str = "\
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
rule link-from-object: ?b owl:sameAs ?a, ?a ?p ?o => ?b ?p ?o .
rule data-first-link: ?x ?p ?y, ?x owl:sameAs ?z => ?z ?p ?y .
rule subproperty-link: ?a rdfs:subPropertyOf ?b, ?a ?p ?o => ?b ?p ?o .
rule object-end-other-link: ?s ?p ?c1, ?c1 owl:equivalentClass ?c2 => ?s ?p ?c2 .
rule object-end-from-object: ?c2 owl:equivalentClass ?c1, ?s ?p ?c1 => ?s ?p ?c2 .
";

/// Custom rules of the self-join shape, over other declaration classes, in
/// other atom orders, keyed on either end, with the head either way round.
const CUSTOM_SELF_JOINS: &str = "\
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
rule keyed-symmetric: ?x ?p ?y1, ?x ?p ?y2, ?p a owl:SymmetricProperty => ?y2 owl:sameAs ?y1 .
rule object-keyed-transitive: ?x1 ?p ?y, ?p a owl:TransitiveProperty, ?x2 ?p ?y => ?x1 owl:sameAs ?x2 .
";

/// The catalog text of `rule`.
fn builtin(rule: RuleId) -> CompiledRule {
    holder(rule).compiled(RuleRef::Builtin(rule)).clone()
}

/// The catalog texts that run a kernel for which `keep` holds, then every
/// rule of `custom`, with its name.
fn compiled(keep: fn(&Lowering) -> bool, custom: &str) -> Vec<(String, CompiledRule)> {
    let builtins = RuleId::ALL
        .into_iter()
        .map(|rule| (rule.name().to_owned(), builtin(rule)))
        .filter(|(_, compiled)| keep(&analysis::lowering(compiled)));
    let custom = analysis::analyze(custom)
        .compile(&mut Dictionary::new())
        .expect("the custom rules compile")
        .rules
        .into_iter()
        .map(|rule| (rule.name.clone(), rule));
    builtins.chain(custom).collect()
}

/// Every catalog text that runs a join kernel, then every custom rule of
/// [`CUSTOM`].
fn rules() -> Vec<(String, CompiledRule)> {
    compiled(
        |lowering| matches!(lowering, Lowering::MergeJoin(_) | Lowering::TableScan(_)),
        CUSTOM,
    )
}

/// Every catalog text that runs the substitution, then every custom rule of
/// [`CUSTOM_SUBSTITUTIONS`].
fn substitutions() -> Vec<(String, CompiledRule)> {
    compiled(
        |lowering| matches!(lowering, Lowering::Substitution(_)),
        CUSTOM_SUBSTITUTIONS,
    )
}

/// Every catalog text that runs the self join, then every custom rule of
/// [`CUSTOM_SELF_JOINS`].
fn self_joins() -> Vec<(String, CompiledRule)> {
    compiled(
        |lowering| matches!(lowering, Lowering::SelfJoin(_)),
        CUSTOM_SELF_JOINS,
    )
}

/// Every catalog text that runs the closure kernel, then every custom rule
/// of [`CUSTOM_CLOSURES`].
fn closures() -> Vec<(String, CompiledRule)> {
    compiled(
        |lowering| matches!(lowering, Lowering::Closure(_)),
        CUSTOM_CLOSURES,
    )
}

/// The raw pairs `rule` emits through `lowering` over (`main`, `new`).
fn emitted(
    rule: &CompiledRule,
    lowering: &Lowering,
    main: &TripleStore,
    new: &TripleStore,
) -> Vec<IdTriple> {
    let mut out = InferredBuffer::new();
    analysis::apply_lowered(rule, lowering, &RuleContext::new(main, new), &mut out);
    out.iter()
        .flat_map(|(p, pairs)| {
            pairs
                .chunks_exact(2)
                .map(move |so| IdTriple::new(so[0], p, so[1]))
        })
        .collect()
}

/// What `rule` derives through `lowering` over (`main`, `new`): the triples
/// and the raw pair count.
fn derive(
    rule: &CompiledRule,
    lowering: &Lowering,
    main: &TripleStore,
    new: &TripleStore,
) -> (BTreeSet<IdTriple>, usize) {
    let raw = emitted(rule, lowering, main, new);
    let len = raw.len();
    (raw.into_iter().collect(), len)
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
        for (name, rule) in rules().into_iter().chain(substitutions()) {
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

proptest! {
    #[test]
    fn the_self_join_kernel_links_the_nested_loops_pairs_smaller_first(
        triples in arbitrary_store(),
        mask in prop::collection::vec(any::<bool>(), 1..30),
        whole in any::<bool>(),
    ) {
        let main = TripleStore::from_triples(triples.iter().copied());
        let mut keep = mask.iter().copied().cycle();
        let frontier =
            TripleStore::from_triples(main.iter_triples().filter(|_| keep.next().unwrap_or(true)));
        let new = if whole { &main } else { &frontier };
        for (name, rule) in self_joins() {
            let kernel = emitted(&rule, &analysis::lowering(&rule), &main, new);
            let nested: Vec<IdTriple> = emitted(&rule, &Lowering::NestedLoop, &main, &main)
                .into_iter()
                .filter(|t| t.s < t.o)
                .collect();
            prop_assert!(kernel.iter().all(|t| t.s < t.o), "{}: {:?}", name, kernel);
            prop_assert_eq!(
                kernel.len(),
                nested.len(),
                "{}: one pair per witness over {:?}",
                name,
                triples
            );
            let (kernel, nested): (BTreeSet<IdTriple>, BTreeSet<IdTriple>) =
                (kernel.into_iter().collect(), nested.into_iter().collect());
            prop_assert_eq!(kernel, nested, "{} over {:?}", name, triples);
        }
    }
}

/// What a closure text closes over `main`, read off the text here rather
/// than from its plan: the tables, the `(predicate, class)` that declares
/// one, and whether they are symmetrized (`owl:sameAs`).
struct Closed {
    tables: Vec<u64>,
    declaration: Option<(u64, u64)>,
    symmetric: bool,
}

fn closed(rule: &CompiledRule, main: &TripleStore) -> Closed {
    let head = rule.head[0];
    match head.p {
        Term::Const(p) => Closed {
            tables: vec![p],
            declaration: None,
            symmetric: p == wk::OWL_SAME_AS,
        },
        Term::Var(_) => {
            let schema = rule.body.iter().find(|atom| atom.p != head.p);
            let (k, c) = schema
                .and_then(|atom| Some((atom.p.as_const()?, atom.o.as_const()?)))
                .expect("a declared closure has a constant declaration");
            let tables = main
                .iter_triples()
                .filter(|t| t.p == k && t.o == c && is_property_id(t.s))
                .map(|t| t.s)
                .collect();
            Closed {
                tables,
                declaration: Some((k, c)),
                symmetric: false,
            }
        }
    }
}

/// The transitive closure of `pairs` (symmetrized first), by repeated
/// composition.
fn naive_closure(pairs: &BTreeSet<(u64, u64)>, symmetric: bool) -> BTreeSet<(u64, u64)> {
    let mut closed = pairs.clone();
    if symmetric {
        closed.extend(pairs.iter().map(|&(a, b)| (b, a)));
    }
    loop {
        let step: Vec<(u64, u64)> = closed
            .iter()
            .flat_map(|&(a, b)| {
                closed
                    .range((b, 0)..=(b, u64::MAX))
                    .map(move |&(_, c)| (a, c))
            })
            .filter(|pair| !closed.contains(pair))
            .collect();
        if step.is_empty() {
            return closed;
        }
        closed.extend(step);
    }
}

/// Pairs on the closed tables and declarations of them, so that the
/// closure laws see paths of several steps, and declarations that arrive
/// without their table.
fn closure_triples() -> impl Strategy<Value = Vec<IdTriple>> {
    let triple = (0u8..7, 0u8..6, 0u8..6).prop_map(|(kind, a, b)| {
        let prop = |n: u8| nth_property_id(800 + usize::from(n % 4));
        let node = |n: u8| nth_resource_id(8_100 + usize::from(n));
        match kind {
            0..=3 => IdTriple::new(node(a), prop(kind), node(b)),
            4 => IdTriple::new(node(a), wk::OWL_SAME_AS, node(b)),
            5 => IdTriple::new(prop(a), wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
            _ => IdTriple::new(prop(a), wk::RDF_TYPE, wk::OWL_SYMMETRIC_PROPERTY),
        }
    });
    prop::collection::vec(triple, 0..16)
}

proptest! {
    #[test]
    fn the_closure_kernel_closes_the_tables_new_touched(
        mut triples in arbitrary_store(),
        closed_pairs in closure_triples(),
        mask in prop::collection::vec(any::<bool>(), 1..30),
        frontier_kind in 0u8..3,
    ) {
        triples.extend(closed_pairs);
        let main = TripleStore::from_triples(triples.iter().copied());
        let mut keep = mask.iter().copied().cycle();
        // The whole store, a random part of it, or a random part of its
        // declarations alone.
        let frontier = TripleStore::from_triples(main.iter_triples().filter(|t| {
            keep.next().unwrap_or(true) && (frontier_kind == 1 || t.p == wk::RDF_TYPE)
        }));
        let new = if frontier_kind == 0 { &main } else { &frontier };
        for (name, rule) in closures() {
            let (kernel, raw) = derive(&rule, &analysis::lowering(&rule), &main, new);
            prop_assert_eq!(raw, kernel.len(), "{}: each missing pair once", name);
            let plan = closed(&rule, &main);
            let mut expected = BTreeSet::new();
            for p in plan.tables {
                let declared_anew = plan
                    .declaration
                    .is_some_and(|(k, c)| new.contains(&IdTriple::new(p, k, c)));
                if !declared_anew && new.table(p).is_none_or(|t| t.is_empty()) {
                    continue;
                }
                let table: BTreeSet<(u64, u64)> =
                    main.table(p).map(|t| t.iter_pairs().collect()).unwrap_or_default();
                let missing = naive_closure(&table, plan.symmetric);
                expected.extend(
                    missing
                        .difference(&table)
                        .map(|&(a, b)| IdTriple::new(a, p, b)),
                );
            }
            prop_assert_eq!(kernel, expected, "{} over {:?}", name, triples);
        }
    }

    #[test]
    fn the_closure_kernel_reaches_the_nested_loops_fixed_point(
        mut triples in arbitrary_store(),
        closed_pairs in closure_triples(),
    ) {
        triples.extend(closed_pairs);
        let main = TripleStore::from_triples(triples.iter().copied());
        let eq_sym = builtin(RuleId::EqSym);
        for (name, rule) in closures() {
            let (kernel, _) = derive(&rule, &analysis::lowering(&rule), &main, &main);
            let closed_once: BTreeSet<IdTriple> = main.iter_triples().chain(kernel).collect();
            let mut program = vec![&rule];
            if closed(&rule, &main).symmetric {
                program.push(&eq_sym);
            }
            let mut nested: BTreeSet<IdTriple> = main.iter_triples().collect();
            loop {
                let store = TripleStore::from_triples(nested.iter().copied());
                let step: Vec<IdTriple> = program
                    .iter()
                    .flat_map(|rule| derive(rule, &Lowering::NestedLoop, &store, &store).0)
                    .filter(|t| !nested.contains(t))
                    .collect();
                if step.is_empty() {
                    break;
                }
                nested.extend(step);
            }
            prop_assert_eq!(closed_once, nested, "{} over {:?}", name, triples);
        }
    }
}

/// Sixteen catalog texts and every custom rule above run a join kernel,
/// four catalog texts and every custom closure the closure kernel; the
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
    let closures = closures();
    assert_eq!(
        closures.len(),
        4 + CUSTOM_CLOSURES.matches("\nrule ").count()
    );
    for (name, rule) in &closures {
        assert!(
            matches!(analysis::lowering(rule), Lowering::Closure(_)),
            "{name} is not a closure"
        );
    }
}

/// EQ-REP-S, EQ-REP-O and every custom substitution run the substitution.
#[test]
fn two_catalog_texts_and_every_custom_substitution_run_the_substitution() {
    let rules = substitutions();
    assert_eq!(
        rules.len(),
        2 + CUSTOM_SUBSTITUTIONS.matches("\nrule ").count()
    );
    let names: Vec<&str> = rules.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names[..2], ["EQ-REP-O", "EQ-REP-S"]);
}

/// PRP-FP, PRP-IFP and every custom self join run the self join.
#[test]
fn two_catalog_texts_and_every_custom_self_join_run_the_self_join() {
    let rules = self_joins();
    assert_eq!(
        rules.len(),
        2 + CUSTOM_SELF_JOINS.matches("\nrule ").count()
    );
    let names: Vec<&str> = rules.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names[..2], ["PRP-FP", "PRP-IFP"]);
}

/// The self-join shape with a head over another table derives its text's
/// relation: both orders, and each value with itself.
#[test]
fn a_self_join_with_another_head_is_a_nested_loop() {
    let text = "\
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix ex: <urn:ex#> .
rule twins: ?p a owl:FunctionalProperty, ?x ?p ?y1, ?x ?p ?y2 => ?y1 ex:twin ?y2 .
";
    let rules = analysis::analyze(text)
        .compile(&mut Dictionary::new())
        .expect("the rule compiles")
        .rules;
    assert_eq!(analysis::lowering(&rules[0]), Lowering::NestedLoop);
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
