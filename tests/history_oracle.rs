//! History oracle: the reasoner's incremental paths compared with something
//! that is not itself.
//!
//! Every other maintenance suite compares Inferray with Inferray
//! (`retract(Δ)` with a rebuild, scheduled with unscheduled). Here seeded
//! histories of writes — assert, retract, a retraction of something never
//! asserted, and schema-touching deltas (a `subClassOf` edge inside a chain,
//! a `subPropertyOf` edge, a domain or range, a `sameAs` bridge, and
//! `p rdfs:subPropertyOf rdfs:domain`, which makes PRP-SPO1 write a schema
//! table), and retractions inside transitive, `subClassOf` and
//! `owl:equivalentClass` cycles — run through `materialize`,
//! `materialize_delta` and `retract_delta`, and after **every** step the
//! maintained store must equal
//! [`NaiveIterativeReasoner`] re-run from scratch on the explicit set. The
//! naive reasoner interprets datalog encodings of the rules with hash
//! indexes and full re-evaluation; it shares no executor, no scheduler and
//! no closure code with the system under test.
//!
//! Covered: ρDF, RDFS-default, RDFS-Plus, and one recursive `.rules`
//! program. `PROPTEST_CASES` raises the number of random histories.

use inferray::baselines::NaiveIterativeReasoner;
use inferray::core::{InferrayReasoner, Materializer};
use inferray::dictionary::{wellknown as wk, Dictionary};
use inferray::model::ids::{nth_property_id, nth_resource_id};
use inferray::parser::loader::load_triples;
use inferray::rules::{analysis, Fragment, RuleId, Ruleset};
use inferray::store::TripleStore;
use inferray::{IdTriple, InferrayOptions, Triple};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A materialized store maintained through the incremental paths, the
/// explicit set it must be the closure of, and the oracle that says what
/// that closure is.
struct History {
    reasoner: InferrayReasoner,
    oracle: NaiveIterativeReasoner,
    store: TripleStore,
    base: TripleStore,
    explicit: BTreeSet<IdTriple>,
    steps: Vec<String>,
}

impl History {
    fn new(ruleset: Ruleset, options: InferrayOptions, initial: &[IdTriple]) -> Self {
        let oracle = NaiveIterativeReasoner::for_ruleset(&ruleset);
        let mut reasoner = InferrayReasoner::with_ruleset(ruleset, options);
        let explicit: BTreeSet<IdTriple> = initial.iter().copied().collect();
        let mut store = TripleStore::from_triples(explicit.iter().copied());
        reasoner.materialize(&mut store);
        let history = History {
            reasoner,
            oracle,
            store,
            base: TripleStore::from_triples(explicit.iter().copied()),
            explicit,
            steps: vec![format!("materialize {initial:?}")],
        };
        history.check();
        history
    }

    fn assert(&mut self, triples: &[IdTriple]) {
        self.steps.push(format!("assert {triples:?}"));
        self.reasoner
            .materialize_delta(&mut self.store, triples.iter().copied());
        for &t in triples {
            self.base.add_triple(t);
            self.explicit.insert(t);
        }
        self.base.finalize();
        self.check();
    }

    fn retract(&mut self, triples: &[IdTriple]) {
        self.steps.push(format!("retract {triples:?}"));
        self.reasoner
            .retract_delta(&mut self.store, &mut self.base, triples.iter().copied());
        for t in triples {
            self.explicit.remove(t);
        }
        self.check();
    }

    /// Retracts a triple the store holds but nobody asserted: nothing may
    /// change.
    fn retract_derived(&mut self, pick: usize) {
        let derived: Vec<IdTriple> = self
            .store
            .iter_triples()
            .filter(|t| !self.explicit.contains(t))
            .collect();
        if derived.is_empty() {
            return;
        }
        let before = table_bytes(&self.store);
        self.retract(&[derived[pick % derived.len()]]);
        assert_eq!(
            before,
            table_bytes(&self.store),
            "a no-op retraction changed the store"
        );
    }

    fn explicit_at(&self, pick: usize) -> Option<IdTriple> {
        let len = self.explicit.len();
        (len > 0).then(|| *self.explicit.iter().nth(pick % len).expect("in range"))
    }

    fn check(&self) {
        let mut expected = TripleStore::from_triples(self.explicit.iter().copied());
        self.oracle.clone().materialize(&mut expected);
        assert_eq!(
            table_bytes(&self.store),
            table_bytes(&expected),
            "the maintained store differs from the naive closure of the explicit set \
             after:\n{}",
            self.steps.join("\n")
        );
        assert_eq!(
            self.base.iter_triples().collect::<BTreeSet<_>>(),
            self.explicit,
            "the maintained explicit base diverged"
        );
    }
}

/// Every non-empty table with its ⟨s,o⟩-sorted pairs.
fn table_bytes(store: &TripleStore) -> Vec<(u64, Vec<u64>)> {
    store
        .iter_tables()
        .map(|(p, t)| (p, t.pairs().to_vec()))
        .collect()
}

fn t(s: u64, p: u64, o: u64) -> IdTriple {
    IdTriple::new(s, p, o)
}

// The vocabulary of the fragment histories.
fn class(n: u8) -> u64 {
    nth_resource_id(7_000 + usize::from(n % 6))
}
fn prop(n: u8) -> u64 {
    nth_property_id(700 + usize::from(n % 4))
}
fn inst(n: u8) -> u64 {
    nth_resource_id(7_100 + usize::from(n % 6))
}

/// A subclass chain `C0 ⊑ C1 ⊑ C2 ⊑ C3`, a property hierarchy with a domain
/// and a range, typed instances and facts.
fn initial() -> Vec<IdTriple> {
    vec![
        t(class(0), wk::RDFS_SUB_CLASS_OF, class(1)),
        t(class(1), wk::RDFS_SUB_CLASS_OF, class(2)),
        t(class(2), wk::RDFS_SUB_CLASS_OF, class(3)),
        t(prop(0), wk::RDFS_SUB_PROPERTY_OF, prop(1)),
        t(prop(1), wk::RDFS_DOMAIN, class(0)),
        t(prop(2), wk::RDFS_RANGE, class(3)),
        t(inst(0), wk::RDF_TYPE, class(0)),
        t(inst(0), prop(0), inst(1)),
        t(inst(2), prop(2), inst(3)),
    ]
}

const FRAGMENTS: [Fragment; 3] = [Fragment::RhoDf, Fragment::RdfsDefault, Fragment::RdfsPlus];

#[test]
fn scripted_schema_deltas_match_the_oracle() {
    for fragment in FRAGMENTS {
        for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
            let mut h = History::new(Ruleset::for_fragment(fragment), options, &initial());
            // A subClassOf edge inside the chain: out, then back in.
            let inner = t(class(1), wk::RDFS_SUB_CLASS_OF, class(2));
            h.retract(&[inner]);
            h.assert(&[inner]);
            // A subPropertyOf edge above the hierarchy.
            let spo = t(prop(3), wk::RDFS_SUB_PROPERTY_OF, prop(0));
            h.assert(&[spo, t(inst(4), prop(3), inst(5))]);
            h.retract(&[spo]);
            // Domains and ranges.
            h.assert(&[t(prop(0), wk::RDFS_DOMAIN, class(2))]);
            h.assert(&[t(prop(3), wk::RDFS_RANGE, class(1))]);
            h.retract(&[t(prop(1), wk::RDFS_DOMAIN, class(0))]);
            // A sameAs bridge between two described individuals.
            let bridge = t(inst(1), wk::OWL_SAME_AS, inst(2));
            h.assert(&[bridge]);
            h.retract(&[bridge]);
            // A data rule writing the schema: every `p2` pair becomes a
            // domain pair. The link first, then — in a delta of data alone —
            // the pair PRP-SPO1 turns into `P0 domain C3` inside the loop.
            let into_domain = t(prop(2), wk::RDFS_SUB_PROPERTY_OF, wk::RDFS_DOMAIN);
            h.assert(&[into_domain]);
            h.assert(&[t(prop(0), prop(2), class(3))]);
            h.assert(&[t(inst(5), prop(0), inst(4))]);
            h.retract(&[into_domain]);
            // Retracting what was never asserted changes nothing.
            h.retract_derived(0);
            h.retract(&[t(inst(0), wk::RDF_TYPE, class(3))]);
            // And the data itself.
            h.retract(&[t(inst(0), prop(0), inst(1))]);
            h.assert(&[
                t(inst(0), prop(0), inst(1)),
                t(class(3), wk::RDFS_SUB_CLASS_OF, class(0)),
            ]);
        }
    }
}

/// The schema written from inside the loop of a full materialization:
/// PRP-SPO1 derives `P0 domain C3` and `P3 domain C5` in its first data
/// pass, after the stratum was closed.
#[test]
fn a_data_rule_writing_the_stratum_matches_the_oracle() {
    let mut base = initial();
    base.extend([
        t(prop(2), wk::RDFS_SUB_PROPERTY_OF, wk::RDFS_DOMAIN),
        t(prop(0), prop(2), class(3)),
        t(prop(3), prop(2), class(5)),
        t(class(5), wk::RDFS_SUB_CLASS_OF, class(4)),
        t(inst(4), prop(3), inst(5)),
    ]);
    for fragment in FRAGMENTS {
        let mut h = History::new(
            Ruleset::for_fragment(fragment),
            InferrayOptions::default(),
            &base,
        );
        h.retract(&[t(prop(3), prop(2), class(5))]);
        h.assert(&[t(prop(3), prop(2), class(5))]);
    }
}

/// Retractions inside cycles, where part of the over-deleted cone supports
/// itself and only the surviving base may decide what stays: a link of an
/// `owl:TransitiveProperty` cycle and its declaration, a `subClassOf`
/// cycle, and both directions of an `owl:equivalentClass` cycle.
#[test]
fn retractions_inside_cycles_match_the_oracle() {
    let within = prop(3);
    let mut base = initial();
    base.extend([
        t(within, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
        t(inst(2), within, inst(3)),
        t(inst(3), within, inst(4)),
        t(inst(4), within, inst(2)),
        t(class(3), wk::RDFS_SUB_CLASS_OF, class(4)),
        t(class(4), wk::RDFS_SUB_CLASS_OF, class(3)),
        t(class(4), wk::OWL_EQUIVALENT_CLASS, class(5)),
        t(class(5), wk::OWL_EQUIVALENT_CLASS, class(4)),
        t(inst(5), wk::RDF_TYPE, class(5)),
    ]);
    for fragment in FRAGMENTS {
        for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
            let mut h = History::new(Ruleset::for_fragment(fragment), options, &base);
            // A link of the transitive cycle: out, then back in.
            let link = t(inst(3), within, inst(4));
            h.retract(&[link]);
            h.assert(&[link]);
            // The declaration under the closed cycle.
            let declaration = t(within, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY);
            h.retract(&[declaration]);
            h.assert(&[declaration]);
            // An edge of the subClassOf cycle.
            let back = t(class(4), wk::RDFS_SUB_CLASS_OF, class(3));
            h.retract(&[back]);
            h.assert(&[back]);
            // One direction of the equivalence, then the other.
            let forth = t(class(4), wk::OWL_EQUIVALENT_CLASS, class(5));
            let mirror = t(class(5), wk::OWL_EQUIVALENT_CLASS, class(4));
            h.retract(&[forth]);
            h.retract(&[mirror]);
            h.assert(&[mirror]);
            // The whole transitive cycle at once.
            h.retract(&[
                link,
                t(inst(2), within, inst(3)),
                t(inst(4), within, inst(2)),
            ]);
        }
    }
}

/// One step of a random history, interpreted against the current state.
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: u8,
    a: u8,
    b: u8,
    c: u8,
}

fn arbitrary_history() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..14, any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(kind, a, b, c)| Step {
            kind,
            a,
            b,
            c,
        }),
        1..10,
    )
}

fn run_step(h: &mut History, step: Step) {
    let Step { kind, a, b, c } = step;
    match kind {
        0 => h.assert(&[t(inst(a), prop(b), inst(c))]),
        1 => h.assert(&[t(inst(a), wk::RDF_TYPE, class(b))]),
        2 => h.assert(&[t(class(a), wk::RDFS_SUB_CLASS_OF, class(b))]),
        3 => h.assert(&[t(prop(a), wk::RDFS_SUB_PROPERTY_OF, prop(b))]),
        4 => h.assert(&[t(prop(a), wk::RDFS_DOMAIN, class(b))]),
        5 => h.assert(&[t(prop(a), wk::RDFS_RANGE, class(b))]),
        6 => h.assert(&[t(inst(a), wk::OWL_SAME_AS, inst(b))]),
        7 => h.assert(&[t(prop(a), wk::RDFS_SUB_PROPERTY_OF, wk::RDFS_DOMAIN)]),
        13 => h.assert(&[t(prop(b), prop(a), class(c))]),
        8 => {
            if let Some(triple) = h.explicit_at(usize::from(a) * 256 + usize::from(b)) {
                h.retract(&[triple]);
            }
        }
        9 => {
            let picks = [usize::from(a), usize::from(b) * 7 + usize::from(c)];
            let triples: Vec<IdTriple> = picks.iter().filter_map(|&p| h.explicit_at(p)).collect();
            h.retract(&triples);
        }
        10 => h.retract_derived(usize::from(a) * 256 + usize::from(b)),
        11 => h.retract(&[t(class(a % 3), wk::RDFS_SUB_CLASS_OF, class(a % 3 + 1))]),
        _ => h.assert(&[
            t(inst(a), prop(b), inst(c)),
            t(inst(b), prop(c), inst(a)),
            t(inst(c), wk::RDF_TYPE, class(a)),
        ]),
    }
}

proptest! {
    #[test]
    fn random_histories_match_the_oracle(history in arbitrary_history(), sequential in 0u8..2) {
        let options = if sequential == 1 {
            InferrayOptions::sequential()
        } else {
            InferrayOptions::default()
        };
        for fragment in FRAGMENTS {
            let mut h = History::new(Ruleset::for_fragment(fragment), options, &initial());
            for &step in &history {
                run_step(&mut h, step);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A recursive `.rules` program: built-ins and custom rules side by side.
// ---------------------------------------------------------------------------

const EX: &str = "http://ex/";

fn program() -> String {
    format!(
        "{}@prefix ex: <{EX}> .\n{}\n{}\n\
         rule anc-base: ?x ex:parent ?y => ?x ex:ancestor ?y .\n\
         rule anc-step: ?x ex:parent ?y, ?y ex:ancestor ?z => ?x ex:ancestor ?z .\n\
         rule heir: ?x ex:ancestor ?y, ?y a ex:Founder => ?x a ex:Heir .\n",
        analysis::builtin::PRELUDE,
        analysis::builtin::rule_text(RuleId::CaxSco),
        analysis::builtin::rule_text(RuleId::ScmSco),
    )
}

/// The dictionary the program and the data share, and a way to spell a
/// triple of the program's vocabulary.
struct Vocabulary {
    dictionary: Dictionary,
}

impl Vocabulary {
    fn triple(&mut self, s: &str, p: &str, o: &str) -> IdTriple {
        let iri = |name: &str| {
            if name == "a" {
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type".to_owned()
            } else if name == "subClassOf" {
                "http://www.w3.org/2000/01/rdf-schema#subClassOf".to_owned()
            } else {
                format!("{EX}{name}")
            }
        };
        let encoded = self
            .dictionary
            .encode_triple(&Triple::iris(iri(s), iri(p), iri(o)))
            .expect("the vocabulary encodes");
        assert!(!self.dictionary.has_pending_promotions());
        encoded
    }
}

fn program_history() -> (History, Vocabulary) {
    let chain: Vec<Triple> = (0..6)
        .map(|i| {
            Triple::iris(
                format!("{EX}n{i}"),
                format!("{EX}parent"),
                format!("{EX}n{}", i + 1),
            )
        })
        .chain([
            Triple::iris(
                format!("{EX}n6"),
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                format!("{EX}Founder"),
            ),
            Triple::iris(
                format!("{EX}Heir"),
                "http://www.w3.org/2000/01/rdf-schema#subClassOf",
                format!("{EX}Person"),
            ),
        ])
        .collect();
    let loaded = load_triples(chain.iter()).expect("the data is valid");
    let mut dictionary = loaded.dictionary;
    let ruleset = analysis::load_ruleset(&program(), &mut dictionary)
        .expect("the program analyzes without errors");
    assert!(
        !ruleset.custom_rules().is_empty(),
        "custom rules stay custom"
    );
    assert!(
        !dictionary.has_pending_promotions(),
        "the data already uses every predicate as one"
    );
    let initial: Vec<IdTriple> = loaded.store.iter_triples().collect();
    (
        History::new(ruleset, InferrayOptions::default(), &initial),
        Vocabulary { dictionary },
    )
}

#[test]
fn a_recursive_rule_program_matches_the_oracle() {
    let (mut h, mut v) = program_history();
    // A link inside the chain: out and back in.
    let link = v.triple("n2", "parent", "n3");
    h.retract(&[link]);
    h.assert(&[link]);
    // A second founder, a class edge above Heir, a branch.
    h.assert(&[v.triple("n3", "a", "Founder")]);
    h.assert(&[v.triple("Person", "subClassOf", "Agent")]);
    h.assert(&[
        v.triple("m0", "parent", "n4"),
        v.triple("m1", "parent", "m0"),
    ]);
    h.retract(&[v.triple("n6", "a", "Founder")]);
    // Retracting a derived ancestor pair is a no-op.
    h.retract(&[v.triple("n0", "ancestor", "n5")]);
    h.retract_derived(3);
    h.retract(&[v.triple("Heir", "subClassOf", "Person")]);
}

proptest! {
    #[test]
    fn random_program_histories_match_the_oracle(history in arbitrary_history()) {
        let (mut h, mut v) = program_history();
        for Step { kind, a, b, c } in history {
            let node = |n: u8| format!("n{}", n % 8);
            match kind % 6 {
                0 => {
                    let triple = v.triple(&node(a), "parent", &node(b));
                    h.assert(&[triple]);
                }
                1 => {
                    let triple = v.triple(&node(a), "a", "Founder");
                    h.assert(&[triple]);
                }
                2 => {
                    let classes = ["Heir", "Person", "Agent", "Founder"];
                    let triple = v.triple(
                        classes[usize::from(a) % 4],
                        "subClassOf",
                        classes[usize::from(b) % 4],
                    );
                    h.assert(&[triple]);
                }
                3 | 4 => {
                    if let Some(triple) = h.explicit_at(usize::from(a) * 256 + usize::from(c)) {
                        h.retract(&[triple]);
                    }
                }
                _ => h.retract_derived(usize::from(b) * 256 + usize::from(c)),
            }
        }
    }
}
