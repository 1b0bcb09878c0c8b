//! The derived signatures, checked against the executors.
//!
//! A built-in's input and output signatures come from its catalog text,
//! read through `Ruleset::compiled` exactly as the scheduler reads them;
//! what it actually reads and writes is decided by its hand-written
//! executor. This suite holds the first to the
//! second over random small stores, for all 38 rules:
//!
//! * **(a) writes** — every pair the executor emits lands in a table the
//!   output signature admits over the store it read. The delete–rederive
//!   seed relies on it.
//! * **(b) reads** — take a store `A` closed under the rule alone and add
//!   pairs `Δ` for which the input signature says the rule is not fed
//!   (`!inputs.changed(A∪Δ, Δ, tables(Δ))`). Re-firing the rule over all
//!   of `A∪Δ` must derive nothing outside `A∪Δ`: the one-rule form of
//!   scheduled ≡ full.
//!
//! A signature narrower than its executor fails one of the two; a rule text
//! that fails here is widened, never this suite. `PROPTEST_CASES` raises the
//! number of random stores.

use inferray::rules::analysis::{apply_compiled, CompiledRule};
use inferray::rules::{Fragment, RuleContext, RuleId, RuleRef, Ruleset};
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

/// Everything `rule` derives with `store` as both its main and its new half.
fn fire(rule: RuleId, store: &TripleStore) -> Vec<IdTriple> {
    let mut out = InferredBuffer::new();
    let holder = holder(rule);
    apply_compiled(
        holder.compiled(RuleRef::Builtin(rule)),
        &RuleContext::new(store, store),
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

/// (a): fires `rule` over `triples`, panicking on a pair in a table the
/// output signature of its compiled text `sig` does not admit.
fn fire_checked(rule: RuleId, sig: &CompiledRule, triples: &BTreeSet<IdTriple>) -> Vec<IdTriple> {
    let store = TripleStore::from_triples(triples.iter().copied());
    let derived = fire(rule, &store);
    let outputs = &sig.outputs;
    let stray: BTreeSet<u64> = derived
        .iter()
        .map(|t| t.p)
        .filter(|&p| !outputs.may_write(&store, &BTreeSet::from([p])))
        .collect();
    assert!(
        stray.is_empty(),
        "{rule} wrote tables {stray:?}, which its output signature ({outputs}) does not admit \
         over {triples:?}"
    );
    derived
}

/// `triples` closed under `rule` alone, checking (a) at every firing.
fn closed_under(
    rule: RuleId,
    sig: &CompiledRule,
    mut triples: BTreeSet<IdTriple>,
) -> BTreeSet<IdTriple> {
    loop {
        let before = triples.len();
        triples.extend(fire_checked(rule, sig, &triples));
        if triples.len() == before {
            return triples;
        }
    }
}

/// The new pairs of `candidates`, taken one at a time while the input
/// signature of `sig` still says they do not feed the rule over `a`.
fn unread(sig: &CompiledRule, a: &BTreeSet<IdTriple>, candidates: &[IdTriple]) -> Vec<IdTriple> {
    let inputs = &sig.inputs;
    let mut delta: Vec<IdTriple> = Vec::new();
    for &t in candidates {
        if a.contains(&t) || delta.contains(&t) {
            continue;
        }
        let trial: Vec<IdTriple> = delta.iter().copied().chain([t]).collect();
        let new = TripleStore::from_triples(trial.iter().copied());
        let main = TripleStore::from_triples(a.iter().chain(&trial).copied());
        let changed: BTreeSet<u64> = new.property_ids().collect();
        if !inputs.changed(&main, &new, &changed) {
            delta = trial;
        }
    }
    delta
}

proptest! {
    #[test]
    fn executors_read_and_write_only_what_their_texts_declare(
        a in arbitrary_store(),
        candidates in arbitrary_store(),
    ) {
        for rule in RuleId::ALL {
            let ruleset = holder(rule);
            let sig = ruleset.compiled(RuleRef::Builtin(rule));
            let closed = closed_under(rule, sig, a.iter().copied().collect());
            let delta = unread(sig, &closed, &candidates);
            let grown: BTreeSet<IdTriple> = closed.iter().chain(&delta).copied().collect();
            let fresh: Vec<IdTriple> = fire_checked(rule, sig, &grown)
                .into_iter()
                .filter(|t| !grown.contains(t))
                .collect();
            prop_assert!(
                fresh.is_empty(),
                "{}: Δ = {:?} does not feed it by its input signature ({}), yet re-firing \
                 over A∪Δ derived {:?} (A = {:?})",
                rule, delta, sig.inputs, fresh, closed
            );
        }
    }
}

/// The suite is not vacuous: on some generated store every rule fires and
/// every rule with a fixed or schema-driven input signature keeps a
/// non-empty `Δ`.
#[test]
fn the_random_stores_exercise_every_rule() {
    let mut fired = BTreeSet::new();
    let mut fed_unread = BTreeSet::new();
    let mut rng = proptest::test_runner::TestRng::deterministic("coverage", 0);
    let strategy = arbitrary_store();
    let rulesets: Vec<Ruleset> = RuleId::ALL.into_iter().map(holder).collect();
    for _ in 0..128 {
        let a: BTreeSet<IdTriple> = strategy.sample(&mut rng).into_iter().collect();
        let candidates = strategy.sample(&mut rng);
        for (rule, ruleset) in RuleId::ALL.into_iter().zip(&rulesets) {
            let sig = ruleset.compiled(RuleRef::Builtin(rule));
            let store = TripleStore::from_triples(a.iter().copied());
            if fire(rule, &store).iter().any(|t| !a.contains(t)) {
                fired.insert(rule);
            }
            if !unread(sig, &closed_under(rule, sig, a.clone()), &candidates).is_empty() {
                fed_unread.insert(rule);
            }
        }
    }
    let never_fired: Vec<RuleId> = RuleId::ALL
        .into_iter()
        .filter(|r| !fired.contains(r))
        .collect();
    assert!(
        never_fired.is_empty(),
        "never derived anything: {never_fired:?}"
    );
    // RDFS4 reads every table, so nothing is ever outside its signature.
    let never_tested: Vec<RuleId> = RuleId::ALL
        .into_iter()
        .filter(|r| *r != RuleId::Rdfs4 && !fed_unread.contains(r))
        .collect();
    assert!(never_tested.is_empty(), "Δ always empty: {never_tested:?}");
}
