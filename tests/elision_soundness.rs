//! The elision relation, checked against the executors.
//!
//! The reasoner leaves a consumer `C` out of an iteration when every table
//! it would read was fed only by producers `P` with `C∘P` in
//! [`Ruleset::elisions`], and only while the schema stratum is closed. The
//! lemma behind it: if `P` just emitted a triple `t` from a store `A` whose
//! stratum is closed, then everything `C` derives with `t` as its new
//! premise is already in the next store — which holds at least `A` and
//! every one-step consequence of `A` (the fixed point's invariant; for the
//! lemma only `P`'s and `C`'s matter, since the witness is one of them).
//!
//! This suite states the lemma over random small stores for every pair
//! every fragment's analysis accepts: close the stratum of a random `A`,
//! fire `P` over a random frontier of it, build `B = A ∪ P(A) ∪ C(A)`, and
//! fire `C` with `P`'s new pairs as its frontier over `B`. Nothing new may
//! appear. A case where `P` or `C` writes a stratum table is skipped: the
//! reasoner turns elision off when that happens. A deliberately false entry
//! shows the check can fail, and the accepted lists are pinned per
//! fragment. `PROPTEST_CASES` raises the number of random stores.

use inferray::dictionary::wellknown as wk;
use inferray::model::ids::{nth_property_id, nth_resource_id};
use inferray::rules::analysis::apply_compiled;
use inferray::rules::{Fragment, RuleContext, RuleId, RuleRef, Ruleset};
use inferray::store::{InferredBuffer, TripleStore};
use inferray::{IdTriple, InferrayOptions, InferrayReasoner, Materializer};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn fire(rule: RuleRef, main: &TripleStore, new: &TripleStore) -> BTreeSet<IdTriple> {
    let holder = Ruleset::for_fragment(Fragment::RdfsPlusFull);
    let mut out = InferredBuffer::new();
    apply_compiled(
        holder.compiled(rule),
        &RuleContext::new(main, new),
        &mut out,
    );
    out.iter()
        .flat_map(|(p, pairs)| {
            pairs
                .chunks_exact(2)
                .map(move |so| IdTriple::new(so[0], p, so[1]))
        })
        .collect()
}

fn store_of(triples: impl IntoIterator<Item = IdTriple>) -> TripleStore {
    TripleStore::from_triples(triples)
}

/// `a` with its schema stratum (and the closure stage's tables) closed.
fn stratum_closed(ruleset: &Ruleset, a: &[IdTriple]) -> TripleStore {
    let mut store = store_of(a.iter().copied());
    InferrayReasoner::with_ruleset(ruleset.stratum_ruleset(), InferrayOptions::sequential())
        .materialize(&mut store);
    store
}

/// What `consumer` derives from `producer`'s fresh output that the next
/// store does not hold; `None` when the case does not meet the
/// precondition (a stratum table would change).
fn violations(
    ruleset: &Ruleset,
    consumer: RuleRef,
    producer: RuleRef,
    a: &TripleStore,
    frontier_mask: &[bool],
) -> Option<Vec<IdTriple>> {
    let stratum: BTreeSet<u64> = ruleset.stratum_tables().iter().copied().collect();
    let triples: Vec<IdTriple> = a.iter_triples().collect();
    let frontier = store_of(
        triples
            .iter()
            .zip(frontier_mask.iter().cycle())
            .filter(|(t, &pick)| pick && !stratum.contains(&t.p))
            .map(|(t, _)| *t),
    );
    let fresh: Vec<IdTriple> = fire(producer, a, &frontier)
        .into_iter()
        .filter(|t| !a.contains(t))
        .collect();
    let one_step: BTreeSet<IdTriple> = fire(producer, a, a)
        .into_iter()
        .chain(fire(consumer, a, a))
        .collect();
    if one_step.iter().any(|t| stratum.contains(&t.p)) {
        return None;
    }
    let b = store_of(triples.iter().copied().chain(one_step));
    let fresh = store_of(fresh);
    Some(
        fire(consumer, &b, &fresh)
            .into_iter()
            .filter(|t| !b.contains(t))
            .collect(),
    )
}

// The vocabulary of the random stores.
fn class(n: u8) -> u64 {
    nth_resource_id(8_000 + usize::from(n % 5))
}
fn prop(n: u8) -> u64 {
    nth_property_id(800 + usize::from(n % 4))
}
fn inst(n: u8) -> u64 {
    nth_resource_id(8_100 + usize::from(n % 5))
}

/// Random schema and data, including the shapes that make `rdf:type` a
/// data property of the γ rules and a property a subject of facts.
fn arbitrary_store() -> impl Strategy<Value = Vec<IdTriple>> {
    let triple = (0u8..18, any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(kind, a, b, c)| {
        let t = IdTriple::new;
        match kind {
            0 => t(class(a), wk::RDFS_SUB_CLASS_OF, class(b)),
            1 => t(prop(a), wk::RDFS_SUB_PROPERTY_OF, prop(b)),
            2 => t(prop(a), wk::RDFS_DOMAIN, class(b)),
            3 => t(prop(a), wk::RDFS_RANGE, class(b)),
            4 => t(class(a), wk::OWL_EQUIVALENT_CLASS, class(b)),
            5 => t(prop(a), wk::OWL_EQUIVALENT_PROPERTY, prop(b)),
            6 => t(prop(a), wk::OWL_INVERSE_OF, prop(b)),
            7 => t(inst(a), wk::OWL_SAME_AS, inst(b)),
            8 => t(wk::RDF_TYPE, wk::RDFS_DOMAIN, class(b)),
            9 => t(wk::RDF_TYPE, wk::RDFS_RANGE, class(b)),
            10 => t(prop(a), wk::RDFS_SUB_PROPERTY_OF, wk::RDF_TYPE),
            11 => t(wk::RDF_TYPE, wk::RDFS_SUB_PROPERTY_OF, prop(b)),
            12 => t(prop(a), prop(b), class(c)),
            13 | 14 => t(inst(a), wk::RDF_TYPE, class(b)),
            _ => t(inst(a), prop(b), inst(c)),
        }
    });
    prop::collection::vec(triple, 1..30)
}

proptest! {
    #[test]
    fn every_accepted_elision_derives_nothing_new(
        a in arbitrary_store(),
        mask in prop::collection::vec(0u8..2, 1..8),
    ) {
        let mask: Vec<bool> = mask.into_iter().map(|m| m == 1).collect();
        for fragment in Fragment::ALL {
            let ruleset = Ruleset::for_fragment(fragment);
            let closed = stratum_closed(&ruleset, &a);
            for elision in ruleset.elisions() {
                let missing =
                    violations(&ruleset, elision.consumer, elision.producer, &closed, &mask);
                prop_assert_eq!(
                    missing.unwrap_or_default(),
                    Vec::<IdTriple>::new(),
                    "{}: {}∘{} derived something new over {:?}",
                    fragment, elision.consumer, elision.producer, a
                );
            }
        }
    }
}

/// PRP-RNG∘CAX-SCO is not in any list, and for a reason: under
/// `rdf:type rdfs:range X`, a type `x a c2` that CAX-SCO derives from
/// `x a c1` makes PRP-RNG type `c2`, which nothing typed before. The check
/// above catches such an entry.
#[test]
fn a_false_entry_fails_the_check() {
    let ruleset = Ruleset::for_fragment(Fragment::RdfsDefault);
    let (rng, sco, dom) = (
        RuleRef::Builtin(RuleId::PrpRng),
        RuleRef::Builtin(RuleId::CaxSco),
        RuleRef::Builtin(RuleId::PrpDom),
    );
    assert!(!ruleset
        .elisions()
        .iter()
        .any(|e| e.consumer == rng && e.producer == sco));
    let a = [
        IdTriple::new(class(1), wk::RDFS_SUB_CLASS_OF, class(2)),
        IdTriple::new(inst(0), wk::RDF_TYPE, class(1)),
        IdTriple::new(wk::RDF_TYPE, wk::RDFS_RANGE, class(3)),
        IdTriple::new(wk::RDF_TYPE, wk::RDFS_DOMAIN, class(4)),
    ];
    let closed = stratum_closed(&ruleset, &a);
    let all = [true];
    assert_eq!(
        violations(&ruleset, rng, sco, &closed, &all),
        Some(vec![IdTriple::new(class(2), wk::RDF_TYPE, class(3))])
    );
    // PRP-DOM∘CAX-SCO on the same store holds: `x a c2` gives `x a X`,
    // which PRP-DOM already derived from `x a c1`. The analysis accepts
    // it, with PRP-DOM as its own witness.
    assert_eq!(violations(&ruleset, dom, sco, &closed, &all), Some(vec![]));
    assert!(ruleset
        .elisions()
        .iter()
        .any(|e| e.consumer == dom && e.producer == sco && e.witness == dom));
}

fn listed(fragment: Fragment) -> Vec<String> {
    Ruleset::for_fragment(fragment)
        .elisions()
        .iter()
        .map(|e| format!("{}∘{} by {}", e.consumer, e.producer, e.witness))
        .collect()
}

#[test]
fn golden_elisions_per_fragment() {
    assert_eq!(
        listed(Fragment::RhoDf),
        [
            "CAX-SCO∘CAX-SCO by CAX-SCO",
            "PRP-DOM∘CAX-SCO by PRP-DOM",
            "PRP-DOM∘PRP-SPO1 by PRP-DOM",
            "PRP-RNG∘PRP-SPO1 by PRP-RNG",
            "PRP-SPO1∘PRP-SPO1 by PRP-SPO1",
        ]
    );
    assert_eq!(
        listed(Fragment::RdfsDefault),
        [
            "CAX-SCO∘CAX-SCO by CAX-SCO",
            "CAX-SCO∘PRP-DOM by PRP-DOM",
            "CAX-SCO∘PRP-RNG by PRP-RNG",
            "PRP-DOM∘CAX-SCO by PRP-DOM",
            "PRP-DOM∘PRP-SPO1 by PRP-DOM",
            "PRP-RNG∘PRP-SPO1 by PRP-RNG",
            "PRP-SPO1∘PRP-SPO1 by PRP-SPO1",
        ]
    );
    assert_eq!(
        listed(Fragment::RdfsFull),
        ["RDFS4∘RDFS6 by RDFS4", "RDFS4∘RDFS10 by RDFS4"]
    );
    assert_eq!(
        listed(Fragment::RdfsPlus),
        [
            "CAX-EQC1∘CAX-EQC1 by CAX-EQC1",
            "CAX-EQC1∘CAX-EQC2 by CAX-EQC2",
            "CAX-EQC1∘CAX-SCO by CAX-SCO",
            "CAX-EQC1∘PRP-DOM by PRP-DOM",
            "CAX-EQC1∘PRP-RNG by PRP-RNG",
            "CAX-EQC2∘CAX-EQC1 by CAX-EQC1",
            "CAX-EQC2∘CAX-EQC2 by CAX-EQC2",
            "CAX-EQC2∘CAX-SCO by CAX-SCO",
            "CAX-EQC2∘PRP-DOM by PRP-DOM",
            "CAX-EQC2∘PRP-RNG by PRP-RNG",
            "CAX-SCO∘CAX-EQC1 by CAX-SCO",
            "CAX-SCO∘CAX-EQC2 by CAX-SCO",
            "CAX-SCO∘CAX-SCO by CAX-SCO",
            "CAX-SCO∘PRP-DOM by PRP-DOM",
            "CAX-SCO∘PRP-RNG by PRP-RNG",
            "PRP-DOM∘CAX-EQC1 by PRP-DOM",
            "PRP-DOM∘CAX-EQC2 by PRP-DOM",
            "PRP-DOM∘CAX-SCO by PRP-DOM",
            "PRP-DOM∘PRP-EQP1 by PRP-DOM",
            "PRP-DOM∘PRP-EQP2 by PRP-DOM",
            "PRP-DOM∘PRP-SPO1 by PRP-DOM",
            "PRP-EQP1∘PRP-EQP1 by PRP-EQP1",
            "PRP-EQP1∘PRP-EQP2 by PRP-EQP2",
            "PRP-EQP1∘PRP-SPO1 by PRP-SPO1",
            "PRP-EQP2∘PRP-EQP1 by PRP-EQP1",
            "PRP-EQP2∘PRP-EQP2 by PRP-EQP2",
            "PRP-EQP2∘PRP-SPO1 by PRP-SPO1",
            "PRP-RNG∘PRP-EQP1 by PRP-RNG",
            "PRP-RNG∘PRP-EQP2 by PRP-RNG",
            "PRP-RNG∘PRP-SPO1 by PRP-RNG",
            "PRP-SPO1∘PRP-EQP1 by PRP-SPO1",
            "PRP-SPO1∘PRP-EQP2 by PRP-SPO1",
            "PRP-SPO1∘PRP-SPO1 by PRP-SPO1",
        ]
    );
    assert_eq!(
        listed(Fragment::RdfsPlusFull),
        [
            "SCM-EQC1∘SCM-CLS by SCM-CLS",
            "SCM-EQP1∘SCM-DP by SCM-DP",
            "SCM-EQP1∘SCM-OP by SCM-OP",
            "RDFS4∘EQ-SYM by RDFS4",
            "RDFS4∘SCM-EQC1 by RDFS4",
            "RDFS4∘SCM-EQP1 by RDFS4",
            "RDFS4∘SCM-DP by RDFS4",
            "RDFS4∘SCM-OP by RDFS4",
        ]
    );
}
