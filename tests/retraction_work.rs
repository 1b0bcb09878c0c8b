//! Pins the *work* of a retraction, not only its result.
//!
//! `retraction_equivalence` compares stores; a retraction that over-deletes
//! the whole store and rebuilds it passes it. This suite counts, on a small
//! RDFS-Plus fixture with one feature per cone — a transitive chain with a
//! shortcut, a shared superclass, a second route to the same types, a
//! `sameAs` bridge and an `owl:equivalentClass` cycle — how many triples
//! each retraction over-deletes, how many of them the probe finds
//! supported in place, how many come back in all, and how many the store
//! loses (docs/maintenance.md). Beside the counts:
//!
//! * the store after the retraction is the rebuild of the surviving base;
//! * the counts are the same sequentially and in parallel, and the
//!   unscheduled reference over-deletes and rederives the same triples;
//! * a table none of whose pairs left is the very allocation the store held
//!   before: what the probe supported stayed where it was.

use inferray::dictionary::wellknown as wk;
use inferray::model::ids::{nth_property_id, nth_resource_id};
use inferray::{
    Fragment, IdTriple, InferrayOptions, InferrayReasoner, Materializer, RetractionStats,
    TripleStore,
};

const FRAGMENT: Fragment = Fragment::RdfsPlus;

fn t(s: u64, p: u64, o: u64) -> IdTriple {
    IdTriple::new(s, p, o)
}

fn res(n: usize) -> u64 {
    nth_resource_id(6_000 + n)
}

// The fixture's vocabulary.
fn part_of() -> u64 {
    nth_property_id(600)
}
fn takes_course() -> u64 {
    nth_property_id(601)
}
const PERSON: usize = 0;
const STUDENT: usize = 1;
const TEACHER: usize = 2;
const PUPIL: usize = 3;
/// `d0 … d3`: the transitive chain.
const D: usize = 10;
/// A teacher who takes a course: a student and a person two ways.
const TEACHING: usize = 20;
/// `u1 sameAs u2`, `u1` a student.
const U1: usize = 30;
const U2: usize = 31;
/// A pupil: a student through the equivalence.
const PUPIL_X: usize = 40;
const COURSE: usize = 50;
/// A student of two courses.
const LEARNER: usize = 60;

fn fixture() -> Vec<IdTriple> {
    let d = |i: usize| res(D + i);
    vec![
        // A shared superclass.
        t(res(STUDENT), wk::RDFS_SUB_CLASS_OF, res(PERSON)),
        t(res(TEACHER), wk::RDFS_SUB_CLASS_OF, res(PERSON)),
        t(takes_course(), wk::RDFS_DOMAIN, res(STUDENT)),
        t(res(TEACHING), wk::RDF_TYPE, res(TEACHER)),
        t(res(TEACHING), takes_course(), res(COURSE)),
        t(res(LEARNER), takes_course(), res(COURSE)),
        t(res(LEARNER), takes_course(), res(COURSE + 1)),
        // An equivalentClass cycle.
        t(res(PUPIL), wk::OWL_EQUIVALENT_CLASS, res(STUDENT)),
        t(res(STUDENT), wk::OWL_EQUIVALENT_CLASS, res(PUPIL)),
        t(res(PUPIL_X), wk::RDF_TYPE, res(PUPIL)),
        // A transitive chain with a shortcut over its middle link.
        t(part_of(), wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
        t(d(0), part_of(), d(1)),
        t(d(1), part_of(), d(2)),
        t(d(2), part_of(), d(3)),
        t(d(0), part_of(), d(2)),
        // A sameAs bridge.
        t(res(U1), wk::OWL_SAME_AS, res(U2)),
        t(res(U1), wk::RDF_TYPE, res(STUDENT)),
    ]
}

/// What a retraction did, in the counters this suite pins.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    over_deleted: usize,
    supported: usize,
    rederived: usize,
    net_removed: usize,
}

impl Work {
    fn of(stats: &RetractionStats) -> Self {
        Work {
            over_deleted: stats.over_deleted,
            supported: stats.supported,
            rederived: stats.rederived,
            net_removed: stats.net_removed(),
        }
    }
}

/// Retracts `delta` from the materialized fixture; returns the statistics,
/// the store before and the store after.
fn retract(
    options: InferrayOptions,
    delta: &[IdTriple],
) -> (RetractionStats, TripleStore, TripleStore) {
    let mut reasoner = InferrayReasoner::with_options(FRAGMENT, options);
    let mut before = TripleStore::from_triples(fixture());
    reasoner.materialize(&mut before);
    before.ensure_all_os();
    let mut base = TripleStore::from_triples(fixture());
    let mut after = before.clone();
    let stats = reasoner.retract_delta(&mut after, &mut base, delta.iter().copied());
    (stats, before, after)
}

/// The materialization of the fixture without `delta`.
fn rebuilt(delta: &[IdTriple]) -> TripleStore {
    let mut store = TripleStore::from_triples(fixture().into_iter().filter(|t| !delta.contains(t)));
    InferrayReasoner::new(FRAGMENT).materialize(&mut store);
    store
}

fn table_bytes(store: &TripleStore) -> Vec<(u64, Vec<u64>)> {
    store
        .iter_tables()
        .map(|(p, t)| (p, t.pairs().to_vec()))
        .collect()
}

/// The five cones, each with the work it takes.
fn cases() -> Vec<(&'static str, Vec<IdTriple>, Work)> {
    let d = |i: usize| res(D + i);
    vec![
        (
            // The θ leg dumps the chain's derived pairs (d0→d3, d1→d3); the
            // shortcut d0→d2 keeps d0→d3 one step away.
            "a chain link under a shortcut",
            vec![t(d(1), part_of(), d(2))],
            Work {
                over_deleted: 2,
                supported: 1,
                rederived: 1,
                net_removed: 2,
            },
        ),
        (
            // The domain's types (Student, and by the closed stratum Person
            // and Pupil) go; Person stays by the teacher's type.
            "a course of a teacher",
            vec![t(res(TEACHING), takes_course(), res(COURSE))],
            Work {
                over_deleted: 3,
                supported: 1,
                rederived: 1,
                net_removed: 3,
            },
        ),
        (
            // The same types, each one step from the other course: the
            // cone stays where it is and only the course leaves.
            "one course of a student of two",
            vec![t(res(LEARNER), takes_course(), res(COURSE))],
            Work {
                over_deleted: 3,
                supported: 3,
                rederived: 3,
                net_removed: 1,
            },
        ),
        (
            // Everything u2 holds by the bridge goes, with the mirror and
            // the reflexive links; what u1 got back from u2 stays by u1's
            // own type.
            "a sameAs bridge",
            vec![t(res(U1), wk::OWL_SAME_AS, res(U2))],
            Work {
                over_deleted: 8,
                supported: 2,
                rederived: 2,
                net_removed: 7,
            },
        ),
        (
            // The cone is the whole cycle and every type through it; the
            // other direction derives all of it again, the retracted triple
            // included, some of it only in the cascade: the store does not
            // change.
            "one direction of an equivalentClass cycle",
            vec![t(res(PUPIL), wk::OWL_EQUIVALENT_CLASS, res(STUDENT))],
            Work {
                over_deleted: 22,
                supported: 10,
                rederived: 23,
                net_removed: 0,
            },
        ),
    ]
}

#[test]
fn each_cone_takes_the_work_pinned_for_it() {
    for (name, delta, expected) in cases() {
        for options in [InferrayOptions::default(), InferrayOptions::sequential()] {
            let (stats, before, after) = retract(options, &delta);
            assert_eq!(Work::of(&stats), expected, "{name} ({options:?})");
            assert_eq!(
                stats.net_removed(),
                before.len() - after.len(),
                "{name}: the net count is what the store lost"
            );
            assert_eq!(
                table_bytes(&after),
                table_bytes(&rebuilt(&delta)),
                "{name}: retract != rebuild"
            );
        }
    }
}

#[test]
fn the_reference_over_deletes_and_rederives_the_same_triples() {
    for (name, delta, expected) in cases() {
        let (stats, _, after) = retract(InferrayOptions::unscheduled(), &delta);
        assert_eq!(
            Work::of(&stats),
            Work {
                supported: 0,
                ..expected
            },
            "{name}: the reference probes nothing"
        );
        assert_eq!(table_bytes(&after), table_bytes(&rebuilt(&delta)), "{name}");
    }
}

/// Where the cascade re-derives nothing, a pair that left the store stayed
/// out, so a table with the same pairs before and after lost none: it must
/// be the allocation the store held before.
#[test]
fn a_table_whose_cone_stayed_in_place_is_not_copied() {
    let mut checked = 0;
    for (name, delta, _) in cases() {
        let (stats, before, after) = retract(InferrayOptions::default(), &delta);
        if stats.rederived != stats.supported {
            continue;
        }
        checked += 1;
        for p in before.property_ids() {
            if before.table(p) == after.table(p) {
                assert!(
                    after.shares_table(&before, p),
                    "{name}: property {p} was copied"
                );
            }
        }
    }
    assert_eq!(checked, 4);
}
