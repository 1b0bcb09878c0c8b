//! Retraction equivalence: `retract(Δ)` on a materialized store must be
//! **byte-identical** — per-table sorted pair arrays, table population,
//! dictionary identifiers untouched — to materializing `base ∖ Δ` from
//! scratch, for every fragment, in parallel and sequentially, with and
//! without rule scheduling (docs/maintenance.md).

use inferray::core::{InferrayReasoner, Materializer};
use inferray::dictionary::{wellknown, Dictionary};
use inferray::parser::loader::load_triples;
use inferray::rules::{analysis, Fragment, RuleId, RuleRef, Ruleset};
use inferray::store::TripleStore;
use inferray::{IdTriple, InferrayOptions, Triple};
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;
use common::arbitrary_store;

/// The byte-level view the invariant is stated over: every non-empty table's
/// property id with its ⟨s,o⟩-sorted flat pair array.
fn table_bytes(store: &TripleStore) -> Vec<(u64, Vec<u64>)> {
    store
        .iter_tables()
        .map(|(p, t)| (p, t.pairs().to_vec()))
        .collect()
}

/// Materializes `base`, retracts `delta` with the DRed path, and asserts the
/// store is byte-identical to a from-scratch materialization of
/// `base ∖ delta` — and that the maintained explicit base matches too.
fn assert_retract_equals_rebuild(
    fragment: Fragment,
    options: InferrayOptions,
    base: &[IdTriple],
    delta: &[IdTriple],
) {
    let ruleset = Ruleset::for_fragment(fragment);
    assert_program_retracts_like_a_rebuild(&fragment.to_string(), &ruleset, options, base, delta);
}

/// [`assert_retract_equals_rebuild`] for any program, named `name` in the
/// failure messages. Returns the store after the retraction.
fn assert_program_retracts_like_a_rebuild(
    name: &str,
    ruleset: &Ruleset,
    options: InferrayOptions,
    base: &[IdTriple],
    delta: &[IdTriple],
) -> TripleStore {
    let mut materialized = TripleStore::from_triples(base.iter().copied());
    let mut base_store = TripleStore::from_triples(base.iter().copied());
    let mut reasoner = InferrayReasoner::with_ruleset(ruleset.clone(), options);
    reasoner.materialize(&mut materialized);
    let stats = reasoner.retract_delta(&mut materialized, &mut base_store, delta.iter().copied());

    let removed: BTreeSet<IdTriple> = delta.iter().copied().collect();
    let remaining: Vec<IdTriple> = TripleStore::from_triples(base.iter().copied())
        .iter_triples()
        .filter(|t| !removed.contains(t))
        .collect();
    let mut rebuilt = TripleStore::from_triples(remaining.iter().copied());
    InferrayReasoner::with_ruleset(ruleset.clone(), options).materialize(&mut rebuilt);

    assert_eq!(
        table_bytes(&materialized),
        table_bytes(&rebuilt),
        "retract != rebuild for {name} (options {options:?})"
    );
    assert_eq!(
        base_store.iter_triples().collect::<Vec<_>>(),
        remaining,
        "explicit base tracking diverged for {name}"
    );
    assert_eq!(stats.output_triples, materialized.len());
    materialized
}

/// Built-in `rule` alone, loaded from its text as a `.rules` program.
fn program_of(rule: RuleId) -> Ruleset {
    let text = format!(
        "{}{}",
        analysis::builtin::PRELUDE,
        analysis::builtin::rule_text(rule)
    );
    analysis::load_ruleset(&text, &mut Dictionary::new()).expect("a catalog text loads")
}

/// The catalog text of `rule` with the two atoms of its body swapped, so
/// that it is not recognized as the built-in; `None` for a body of another
/// size.
fn swapped_text(rule: RuleId) -> Option<String> {
    let (name, rest) = analysis::builtin::rule_text(rule).split_once(": ")?;
    let (body, head) = rest.split_once(" => ")?;
    match body.split(", ").collect::<Vec<_>>()[..] {
        [first, second] => Some(format!("{name}: {second}, {first} => {head}")),
        _ => None,
    }
}

fn load(rules: &[String]) -> Ruleset {
    let text = format!("{}{}\n", analysis::builtin::PRELUDE, rules.join("\n"));
    analysis::load_ruleset(&text, &mut Dictionary::new()).expect("the program loads")
}

/// The RDFS-Plus program with every two-atom body swapped: the closures
/// among those rules are custom closures, EQ-TRANS a symmetric one.
fn swapped_rdfs_plus() -> Ruleset {
    let rules: Vec<String> = Ruleset::for_fragment(Fragment::RdfsPlus)
        .rules()
        .iter()
        .map(|&rule| {
            swapped_text(rule).unwrap_or_else(|| analysis::builtin::rule_text(rule).to_owned())
        })
        .collect();
    let ruleset = load(&rules);
    let closures = ruleset.closures();
    assert_eq!(
        closures.len(),
        4,
        "swapped, a transitivity rule is a closure"
    );
    assert!(
        closures
            .iter()
            .any(|(rule, closure)| matches!(rule, RuleRef::Custom(_)) && closure.symmetric()),
        "EQ-TRANS swapped is a custom symmetric closure"
    );
    ruleset
}

/// Every program the sweep retracts under: the five fragments, RDFS-Plus
/// with its two-atom bodies swapped, each of the 38 built-ins alone, then
/// each two-atom closure alone with its body swapped. A fragment runs each
/// rule beside the rules that mask its slips (EQ-SYM and EQ-TRANS close
/// what PRP-FP leaves open); alone, every probe must match its own
/// executor — a swapped EQ-TRANS is probed as the symmetric closure it
/// runs.
fn programs() -> Vec<(String, Ruleset)> {
    let fragments = Fragment::ALL
        .into_iter()
        .map(|fragment| (fragment.to_string(), Ruleset::for_fragment(fragment)));
    let swapped = ("RDFS-Plus swapped".to_owned(), swapped_rdfs_plus());
    let alone = RuleId::ALL
        .into_iter()
        .map(|rule| (format!("{rule} alone"), program_of(rule)));
    let closures = Ruleset::for_fragment(Fragment::RdfsPlusFull)
        .closures()
        .to_vec();
    let swapped_alone = closures.into_iter().filter_map(|(rule, _)| {
        let RuleRef::Builtin(id) = rule else {
            return None;
        };
        let program = load(&[swapped_text(id)?]);
        Some((format!("{id} swapped alone"), program))
    });
    fragments
        .chain([swapped])
        .chain(alone)
        .chain(swapped_alone)
        .collect()
}

const HUMAN: u64 = 9_550_000;
const MAMMAL: u64 = 9_550_001;
const ANIMAL: u64 = 9_550_002;
const BART: u64 = 9_550_010;
const LISA: u64 = 9_550_011;

fn t(s: u64, p: u64, o: u64) -> IdTriple {
    IdTriple::new(s, p, o)
}

/// A dataset rich enough to exercise every rule family of RDFS-Plus: class
/// and property hierarchies, domain/range, equivalences, inverse, sameAs,
/// functional and transitive properties.
fn rich_dataset() -> Vec<IdTriple> {
    let prop = |n: usize| inferray::model::ids::nth_property_id(80 + n);
    let knows = prop(0);
    let knows2 = prop(1);
    let kned_by = prop(2);
    let has_mother = prop(3);
    let part_of = prop(4);
    vec![
        t(HUMAN, wellknown::RDFS_SUB_CLASS_OF, MAMMAL),
        t(MAMMAL, wellknown::RDFS_SUB_CLASS_OF, ANIMAL),
        t(knows, wellknown::RDFS_DOMAIN, HUMAN),
        t(knows, wellknown::RDFS_RANGE, HUMAN),
        t(knows2, wellknown::RDFS_SUB_PROPERTY_OF, knows),
        t(knows, wellknown::OWL_INVERSE_OF, kned_by),
        t(HUMAN, wellknown::OWL_EQUIVALENT_CLASS, HUMAN + 100),
        t(
            has_mother,
            wellknown::RDF_TYPE,
            wellknown::OWL_FUNCTIONAL_PROPERTY,
        ),
        t(
            part_of,
            wellknown::RDF_TYPE,
            wellknown::OWL_TRANSITIVE_PROPERTY,
        ),
        t(BART, wellknown::RDF_TYPE, HUMAN),
        t(LISA, wellknown::RDF_TYPE, MAMMAL),
        t(BART, knows2, LISA),
        t(BART, has_mother, LISA + 1),
        t(BART, has_mother, LISA + 2),
        t(BART, wellknown::OWL_SAME_AS, BART + 100),
        t(LISA, part_of, LISA + 10),
        t(LISA + 10, part_of, LISA + 11),
        t(LISA + 11, part_of, LISA + 12),
    ]
}

#[test]
fn every_fragment_parallel_and_sequential_instance_deletion() {
    let base = rich_dataset();
    // The second triple has a nonsense (non-property) predicate id: it can
    // never be in a store and must be ignored, not crash the encoder.
    let delta = [t(BART, wellknown::RDF_TYPE, HUMAN), t(BART, 0, 0)];
    for fragment in Fragment::ALL {
        for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
            assert_retract_equals_rebuild(fragment, options, &base, &delta);
        }
    }
}

#[test]
fn every_fragment_schema_edge_deletion_underives_the_cone() {
    let base = rich_dataset();
    // Deleting the subClassOf edge un-derives the closure edge human ⊑
    // animal and every instance retyping that flowed through it.
    let delta = [t(HUMAN, wellknown::RDFS_SUB_CLASS_OF, MAMMAL)];
    for fragment in Fragment::ALL {
        for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
            assert_retract_equals_rebuild(fragment, options, &base, &delta);
        }
    }
    // Spot-check the cone on the default fragment: Bart lost the derived
    // types, Lisa (typed via mammal directly) kept hers.
    let mut materialized = TripleStore::from_triples(base.iter().copied());
    let mut base_store = TripleStore::from_triples(base.iter().copied());
    let mut reasoner = InferrayReasoner::new(Fragment::RdfsDefault);
    reasoner.materialize(&mut materialized);
    assert!(materialized.contains(&t(BART, wellknown::RDF_TYPE, ANIMAL)));
    reasoner.retract_delta(&mut materialized, &mut base_store, delta);
    assert!(!materialized.contains(&t(BART, wellknown::RDF_TYPE, MAMMAL)));
    assert!(!materialized.contains(&t(BART, wellknown::RDF_TYPE, ANIMAL)));
    assert!(!materialized.contains(&t(HUMAN, wellknown::RDFS_SUB_CLASS_OF, ANIMAL)));
    assert!(materialized.contains(&t(LISA, wellknown::RDF_TYPE, ANIMAL)));
}

#[test]
fn transitive_declaration_deletion_underives_the_closure() {
    let base = rich_dataset();
    let part_of = inferray::model::ids::nth_property_id(84);
    let delta = [t(
        part_of,
        wellknown::RDF_TYPE,
        wellknown::OWL_TRANSITIVE_PROPERTY,
    )];
    for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
        assert_retract_equals_rebuild(Fragment::RdfsPlus, options, &base, &delta);
        assert_retract_equals_rebuild(Fragment::RdfsPlusFull, options, &base, &delta);
    }
    // The closure pairs are gone, the asserted chain stays.
    let mut materialized = TripleStore::from_triples(base.iter().copied());
    let mut base_store = TripleStore::from_triples(base.iter().copied());
    let mut reasoner = InferrayReasoner::new(Fragment::RdfsPlus);
    reasoner.materialize(&mut materialized);
    assert!(materialized.contains(&t(LISA, part_of, LISA + 11)));
    reasoner.retract_delta(&mut materialized, &mut base_store, delta);
    assert!(!materialized.contains(&t(LISA, part_of, LISA + 11)));
    assert!(materialized.contains(&t(LISA, part_of, LISA + 10)));
    assert!(materialized.contains(&t(LISA + 10, part_of, LISA + 11)));
}

#[test]
fn same_as_and_functional_cones_retract_cleanly() {
    let base = rich_dataset();
    for delta in [
        vec![t(BART, wellknown::OWL_SAME_AS, BART + 100)],
        vec![t(BART, inferray::model::ids::nth_property_id(83), LISA + 2)],
        vec![
            t(BART, wellknown::OWL_SAME_AS, BART + 100),
            t(BART, inferray::model::ids::nth_property_id(83), LISA + 1),
        ],
    ] {
        for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
            assert_retract_equals_rebuild(Fragment::RdfsPlus, options, &base, &delta);
        }
    }
}

#[test]
fn retracting_everything_leaves_an_empty_store() {
    let base = rich_dataset();
    for fragment in [Fragment::RdfsDefault, Fragment::RdfsPlus] {
        assert_retract_equals_rebuild(fragment, InferrayOptions::default(), &base, &base);
        let mut materialized = TripleStore::from_triples(base.iter().copied());
        let mut base_store = TripleStore::from_triples(base.iter().copied());
        let mut reasoner = InferrayReasoner::new(fragment);
        reasoner.materialize(&mut materialized);
        let stats =
            reasoner.retract_delta(&mut materialized, &mut base_store, base.iter().copied());
        assert!(materialized.is_empty(), "{fragment}");
        assert!(base_store.is_empty());
        assert_eq!(stats.rederived, 0);
    }
}

#[test]
fn retraction_is_idempotent_and_composes_with_extension() {
    let base = rich_dataset();
    let delta = [t(HUMAN, wellknown::RDFS_SUB_CLASS_OF, MAMMAL)];
    let mut materialized = TripleStore::from_triples(base.iter().copied());
    let mut base_store = TripleStore::from_triples(base.iter().copied());
    let mut reasoner = InferrayReasoner::new(Fragment::RdfsDefault);
    reasoner.materialize(&mut materialized);
    let before = table_bytes(&materialized);

    reasoner.retract_delta(&mut materialized, &mut base_store, delta);
    let after_retract = table_bytes(&materialized);
    // Retracting the same (now absent) triples again changes nothing.
    let stats = reasoner.retract_delta(&mut materialized, &mut base_store, delta);
    assert_eq!(stats.retracted_explicit, 0);
    assert_eq!(table_bytes(&materialized), after_retract);
    // Re-asserting restores the original materialization byte-for-byte.
    reasoner.materialize_delta(&mut materialized, delta);
    for triple in delta {
        base_store.add_triple(triple);
    }
    base_store.finalize();
    assert_eq!(table_bytes(&materialized), before);
}

/// Retract == rebuild over an analyzer-loaded ruleset mixing recognized
/// builtins with custom generic-executor rules: deleting explicit edges
/// must un-derive exactly the custom-rule cone DRed-style, byte-identical
/// to materializing the complement from scratch.
#[test]
fn retract_equals_rebuild_on_an_analyzer_loaded_ruleset() {
    const SUB_CLASS: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    let program = format!(
        "{}@prefix ex: <http://ex/> .\n{}\n\
         rule gp: ?x ex:parent ?y, ?y ex:parent ?z => ?x ex:grandparent ?z .\n\
         rule gc: ?x ex:grandparent ?y => ?y ex:grandchild ?x .\n\
         rule near-sym: ?x ex:near ?y => ?y ex:near ?x .\n",
        analysis::builtin::PRELUDE,
        analysis::builtin::rule_text(RuleId::CaxSco),
    );
    let ex = |n: &str| format!("http://ex/{n}");
    let data = [
        Triple::iris(ex("a"), ex("parent"), ex("b")),
        Triple::iris(ex("b"), ex("parent"), ex("c")),
        Triple::iris(ex("c"), ex("parent"), ex("d")),
        Triple::iris(ex("n1"), ex("near"), ex("n2")),
        Triple::iris(ex("C1"), SUB_CLASS, ex("C2")),
        Triple::iris(ex("a"), RDF_TYPE, ex("C1")),
    ];
    // Deleting b→c severs both grandparent derivations through b and the
    // near edge's symmetric mirror; the subclass typing must survive.
    let delta_terms = [
        Triple::iris(ex("b"), ex("parent"), ex("c")),
        Triple::iris(ex("n1"), ex("near"), ex("n2")),
    ];

    for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
        let loaded = load_triples(data.iter()).expect("data is valid");
        let mut dictionary = loaded.dictionary;
        let explicit = loaded.store;
        let ruleset =
            analysis::load_ruleset(&program, &mut dictionary).expect("program analyzes clean");
        assert!(
            !dictionary.has_pending_promotions(),
            "every rule predicate already appears as a predicate in the data"
        );
        let delta: Vec<IdTriple> = delta_terms
            .iter()
            .map(|t| {
                IdTriple::new(
                    dictionary.id_of(&t.subject).unwrap(),
                    dictionary.id_of(&t.predicate).unwrap(),
                    dictionary.id_of(&t.object).unwrap(),
                )
            })
            .collect();

        let mut materialized = explicit.clone();
        let mut base_store = explicit.clone();
        let mut reasoner = InferrayReasoner::with_ruleset(ruleset.clone(), options);
        reasoner.materialize(&mut materialized);
        reasoner.retract_delta(&mut materialized, &mut base_store, delta.iter().copied());

        let removed: BTreeSet<IdTriple> = delta.iter().copied().collect();
        let remaining: Vec<IdTriple> = explicit
            .iter_triples()
            .filter(|t| !removed.contains(t))
            .collect();
        let mut rebuilt = TripleStore::from_triples(remaining.iter().copied());
        InferrayReasoner::with_ruleset(ruleset, options).materialize(&mut rebuilt);

        assert_eq!(
            table_bytes(&materialized),
            table_bytes(&rebuilt),
            "retract != rebuild over the analyzer-loaded ruleset ({options:?})"
        );
        assert_eq!(base_store.iter_triples().collect::<Vec<_>>(), remaining);
    }
}

/// EQ-TRANS alone over `a sameAs b`, `b sameAs c`, retracting `b sameAs c`:
/// the rebuild closes the symmetric graph of `a sameAs b` into four pairs.
/// Probed through its text, which reads both premises as written, the
/// reflexive pairs lose their support and only `a sameAs b` stays.
#[test]
fn eq_trans_alone_keeps_the_symmetric_closure_of_what_survives() {
    let (a, b, c) = (BART, BART + 1, BART + 2);
    let same_as = |s, o| t(s, wellknown::OWL_SAME_AS, o);
    for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
        let store = assert_program_retracts_like_a_rebuild(
            "EQ-TRANS alone",
            &program_of(RuleId::EqTrans),
            options,
            &[same_as(a, b), same_as(b, c)],
            &[same_as(b, c)],
        );
        assert_eq!(
            store.iter_triples().collect::<Vec<_>>(),
            vec![same_as(a, a), same_as(a, b), same_as(b, a), same_as(b, b)]
        );
    }
}

/// PRP-FP alone over three values of one functional subject, retracting
/// the middle one: the rebuild links the outer two. An executor that linked
/// only neighbouring values never derived that link before the retraction,
/// so nothing could rederive it.
#[test]
fn prp_fp_alone_still_links_the_values_around_a_retracted_one() {
    let p = inferray::model::ids::nth_property_id(85);
    let (x, y1, y2, y3) = (BART, LISA, LISA + 1, LISA + 2);
    let base = [
        t(p, wellknown::RDF_TYPE, wellknown::OWL_FUNCTIONAL_PROPERTY),
        t(x, p, y1),
        t(x, p, y2),
        t(x, p, y3),
    ];
    for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
        let store = assert_program_retracts_like_a_rebuild(
            "PRP-FP alone",
            &program_of(RuleId::PrpFp),
            options,
            &base,
            &[t(x, p, y2)],
        );
        assert!(store.contains(&t(y1, wellknown::OWL_SAME_AS, y3)));
    }
}

// ---------------------------------------------------------------------------
// Property-based equivalence on random datasets and random delta subsets
// ---------------------------------------------------------------------------

/// Random RDFS-Plus-shaped triples over a small universe: schema statements
/// (hierarchies, domain/range, equivalences, markers) plus instance triples.
fn arbitrary_dataset() -> impl Strategy<Value = Vec<IdTriple>> {
    let class = |n: u8| 9_560_000u64 + n as u64;
    let instance = |n: u8| 9_570_000u64 + n as u64;
    let property = |n: u8| inferray::model::ids::nth_property_id(90 + n as usize);

    prop::collection::vec(
        prop_oneof![
            (0u8..5, 0u8..5).prop_map(move |(a, b)| t(
                class(a),
                wellknown::RDFS_SUB_CLASS_OF,
                class(b)
            )),
            (0u8..3, 0u8..3).prop_map(move |(a, b)| t(
                property(a),
                wellknown::RDFS_SUB_PROPERTY_OF,
                property(b)
            )),
            (0u8..3, 0u8..5).prop_map(move |(p, c)| t(
                property(p),
                wellknown::RDFS_DOMAIN,
                class(c)
            )),
            (0u8..3, 0u8..5).prop_map(move |(p, c)| t(
                property(p),
                wellknown::RDFS_RANGE,
                class(c)
            )),
            (0u8..3).prop_map(move |p| t(
                property(p),
                wellknown::RDF_TYPE,
                wellknown::OWL_TRANSITIVE_PROPERTY
            )),
            (0u8..6, 0u8..6).prop_map(move |(a, b)| t(
                instance(a),
                wellknown::OWL_SAME_AS,
                instance(b)
            )),
            (0u8..8, 0u8..5).prop_map(move |(x, c)| t(instance(x), wellknown::RDF_TYPE, class(c))),
            (0u8..8, 0u8..3, 0u8..8).prop_map(move |(x, p, y)| t(
                instance(x),
                property(p),
                instance(y)
            )),
        ],
        1..28,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any dataset and any subset of it, materialize-then-retract equals
    /// materializing the complement — byte-identical, parallel and
    /// sequential, across fragments.
    #[test]
    fn retract_equals_rebuild_on_random_subsets(
        triples in arbitrary_dataset(),
        mask in prop::collection::vec(any::<bool>(), 28),
    ) {
        let delta: Vec<IdTriple> = triples
            .iter()
            .zip(mask.iter().cycle())
            .filter(|(_, &keep)| keep)
            .map(|(t, _)| *t)
            .collect();
        for fragment in [Fragment::RhoDf, Fragment::RdfsDefault, Fragment::RdfsPlus] {
            for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
                assert_retract_equals_rebuild(fragment, options, &triples, &delta);
            }
        }
    }

    /// The scheduling escape hatch must not change results either.
    #[test]
    fn retract_is_schedule_independent(
        triples in arbitrary_dataset(),
        mask in prop::collection::vec(any::<bool>(), 28),
    ) {
        let delta: Vec<IdTriple> = triples
            .iter()
            .zip(mask.iter().cycle())
            .filter(|(_, &keep)| keep)
            .map(|(t, _)| *t)
            .collect();
        let run = |options: InferrayOptions| {
            let mut materialized = TripleStore::from_triples(triples.iter().copied());
            let mut base_store = TripleStore::from_triples(triples.iter().copied());
            let mut reasoner = InferrayReasoner::with_options(Fragment::RdfsPlus, options);
            reasoner.materialize(&mut materialized);
            reasoner.retract_delta(&mut materialized, &mut base_store, delta.iter().copied());
            table_bytes(&materialized)
        };
        prop_assert_eq!(
            run(InferrayOptions::default()),
            run(InferrayOptions::unscheduled())
        );
    }
}

proptest! {
    /// Every program retracts like a rebuild: the five fragments and each
    /// built-in alone, over random stores that declare every marker class
    /// and random subsets of them.
    #[test]
    fn every_program_retracts_like_a_rebuild(
        triples in arbitrary_store(),
        mask in prop::collection::vec(any::<bool>(), 1..30),
    ) {
        let mut drops = mask.iter().copied().cycle();
        let delta: Vec<IdTriple> = triples
            .iter()
            .copied()
            .filter(|_| drops.next().unwrap_or(false))
            .collect();
        for (name, ruleset) in programs() {
            for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
                assert_program_retracts_like_a_rebuild(&name, &ruleset, options, &triples, &delta);
            }
        }
    }
}
