//! The survivor view, checked against the store it stands for.
//!
//! Retraction probes the over-deleted cone `gone` for support *before*
//! anything leaves the store, through `Survivors::without(store, gone)`
//! (docs/maintenance.md, "Phase 2"). Its answers must be the answers over
//! the store with `gone` physically removed, or the supported set — and
//! with it the store after a retraction — would differ from what removing
//! first and probing after computes. Over random stores and random
//! `gone ⊆ store`, for all 38 built-ins, this suite holds the one probe,
//! `analysis::supports` over each rule's compiled text, to that.
//! `PROPTEST_CASES` raises the number of random stores.
//!
//! The named cases are cones that support themselves: a probe of the live
//! store, cone included, answers them wrongly.

use inferray::dictionary::wellknown as wk;
use inferray::model::ids::nth_resource_id;
use inferray::rules::analysis::{self, CompiledRule};
use inferray::rules::{Fragment, RuleContext, RuleId, RuleRef, Ruleset, Survivors};
use inferray::store::{InferredBuffer, TripleStore};
use inferray::IdTriple;
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;
use common::arbitrary_store;

/// A ruleset holding `rule`: RDFS-Full and RDFS-Plus-Full together hold all
/// 38 built-ins.
fn holder(rule: RuleId) -> Ruleset {
    [Fragment::RdfsPlusFull, Fragment::RdfsFull]
        .into_iter()
        .map(Ruleset::for_fragment)
        .find(|ruleset| ruleset.contains(rule))
        .unwrap_or_else(|| panic!("{rule} is in no full fragment"))
}

/// Every rule with its compiled text.
fn rules() -> Vec<(RuleId, CompiledRule)> {
    RuleId::ALL
        .into_iter()
        .map(|rule| {
            let compiled = holder(rule).compiled(RuleRef::Builtin(rule)).clone();
            (rule, compiled)
        })
        .collect()
}

/// The store's triples and everything one firing of any rule derives from
/// them: the probes' positive and negative cases.
fn candidates(store: &TripleStore) -> BTreeSet<IdTriple> {
    let mut out = InferredBuffer::new();
    for rule in RuleId::ALL {
        let holder = holder(rule);
        let text = holder.compiled(RuleRef::Builtin(rule));
        analysis::apply_compiled(text, &RuleContext::new(store, store), &mut out);
    }
    let derived = out.iter().flat_map(|(p, pairs)| {
        pairs
            .chunks_exact(2)
            .map(move |so| IdTriple::new(so[0], p, so[1]))
            .collect::<Vec<_>>()
    });
    store.iter_triples().chain(derived).collect()
}

/// The probe of the rule `compiled` on `t`, through `view`.
fn probe(compiled: &CompiledRule, view: Survivors<'_>, t: IdTriple) -> bool {
    analysis::supports(compiled, view, t)
}

proptest! {
    #[test]
    fn a_probe_through_the_view_equals_a_probe_of_the_reduced_store(
        triples in arbitrary_store(),
        mask in prop::collection::vec(any::<bool>(), 1..30),
    ) {
        let store = TripleStore::from_triples(triples.iter().copied());
        let mut drops = mask.iter().copied().cycle();
        let (gone, kept): (Vec<IdTriple>, Vec<IdTriple>) = store
            .iter_triples()
            .partition(|_| drops.next().unwrap_or(false));
        let gone = TripleStore::from_triples(gone);
        let reduced = TripleStore::from_triples(kept);
        let view = Survivors::without(&store, &gone);
        let candidates = candidates(&store);
        for (rule, compiled) in rules() {
            for &t in &candidates {
                let through_view = probe(&compiled, view, t);
                let removed_first = probe(&compiled, Survivors::all(&reduced), t);
                prop_assert_eq!(
                    through_view,
                    removed_first,
                    "{} on {:?}: the probe through the view vs over the store without \
                     gone = {:?} (store {:?})",
                    rule, t, gone.iter_triples().collect::<Vec<_>>(), triples
                );
            }
        }
    }
}

/// The law is not vacuous: over the generated stores every rule has a
/// candidate it supports through the view, and some cone changes a probe's
/// answer against the live store.
#[test]
fn the_random_views_exercise_every_rule() {
    let mut supported = BTreeSet::new();
    let mut changed = BTreeSet::new();
    let mut rng = proptest::test_runner::TestRng::deterministic("survivors", 0);
    let strategy = arbitrary_store();
    let rules = rules();
    for round in 0..1024usize {
        let store = TripleStore::from_triples(strategy.sample(&mut rng));
        let gone = TripleStore::from_triples(store.iter_triples().skip(round % 3).step_by(3));
        let view = Survivors::without(&store, &gone);
        let live = Survivors::all(&store);
        for &t in &candidates(&store) {
            for (rule, compiled) in &rules {
                let answer = probe(compiled, view, t);
                if answer {
                    supported.insert(*rule);
                }
                if answer != probe(compiled, live, t) {
                    changed.insert(*rule);
                }
            }
        }
    }
    let never: Vec<RuleId> = RuleId::ALL
        .into_iter()
        .filter(|r| !supported.contains(r))
        .collect();
    assert!(
        never.is_empty(),
        "never supported through a view: {never:?}"
    );
    let unchanged: Vec<RuleId> = RuleId::ALL
        .into_iter()
        .filter(|r| !changed.contains(r))
        .collect();
    assert!(
        unchanged.is_empty(),
        "the cone never changed a probe of {unchanged:?}"
    );
}

fn t(s: u64, p: u64, o: u64) -> IdTriple {
    IdTriple::new(s, p, o)
}

/// Checks that each `(rule, candidate)` is supported by the live store but
/// neither through the view without `gone` nor over the store with `gone`
/// removed.
fn assert_self_support_is_no_support(
    store: &[IdTriple],
    gone: &[IdTriple],
    cases: &[(RuleId, IdTriple)],
) {
    let live = TripleStore::from_triples(store.iter().copied());
    let cone = TripleStore::from_triples(gone.iter().copied());
    let reduced = TripleStore::from_triples(store.iter().copied().filter(|t| !gone.contains(t)));
    for &(rule, candidate) in cases {
        let compiled = holder(rule).compiled(RuleRef::Builtin(rule)).clone();
        assert!(
            probe(&compiled, Survivors::all(&live), candidate),
            "{rule}: the live store supports {candidate:?} through the cone itself"
        );
        assert!(
            !probe(&compiled, Survivors::without(&live, &cone), candidate),
            "{rule}: the survivors do not support {candidate:?}"
        );
        assert!(!probe(&compiled, Survivors::all(&reduced), candidate));
    }
}

/// `C1 ≡ C2` with `x a C1` and `x a C2` both in the cone: CAX-EQC1 and
/// CAX-EQC2 each find the other type as a premise in the live store.
#[test]
fn an_equivalent_class_pair_does_not_support_its_own_types() {
    let (c1, c2, x) = (
        nth_resource_id(8_500),
        nth_resource_id(8_501),
        nth_resource_id(8_502),
    );
    let types = [t(x, wk::RDF_TYPE, c1), t(x, wk::RDF_TYPE, c2)];
    let mut store = vec![t(c1, wk::OWL_EQUIVALENT_CLASS, c2)];
    store.extend(types);
    assert_self_support_is_no_support(
        &store,
        &types,
        &[(RuleId::CaxEqc1, types[1]), (RuleId::CaxEqc2, types[0])],
    );
}

/// `a sameAs b` and its EQ-SYM mirror `b sameAs a` both in the cone: each
/// is the other's premise in the live store.
#[test]
fn a_same_as_link_and_its_mirror_do_not_support_each_other() {
    let (a, b) = (nth_resource_id(8_510), nth_resource_id(8_511));
    let links = [t(a, wk::OWL_SAME_AS, b), t(b, wk::OWL_SAME_AS, a)];
    assert_self_support_is_no_support(
        &links,
        &links,
        &[(RuleId::EqSym, links[0]), (RuleId::EqSym, links[1])],
    );
}
