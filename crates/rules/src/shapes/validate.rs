//! Shape validation over the sorted pair tables: full snapshots in parallel,
//! and the incremental `validate_delta` that re-validates only nodes
//! incident to changed pairs.
//!
//! This module is on the serving hot path (every gated write runs it before
//! publishing), so it is written to the same discipline as the server: no
//! panicking constructs, all table access through the non-panicking read
//! APIs (`objects_of`/`contains_pair` work on the plain ⟨s,o⟩ layout and
//! never demand the lazily built ⟨o,s⟩ cache).
//!
//! ## The incremental protocol
//!
//! `validate_delta(old, new)` must produce the exact violation set of a full
//! validation of `new`, given a report for `old`. The node set whose verdict
//! can have changed is computed in two steps:
//!
//! 1. **Incident nodes**: diff every property table of `old` and `new`
//!    (two-pointer walk over the sorted pair arrays, tables compared lazily
//!    so untouched properties cost one slice equality); both endpoints of
//!    every differing pair are dirty. This covers every verdict component
//!    that only reads the focus node's own rows — target membership
//!    (`class`/`subjects-of`/`all` all key on the node's own pairs),
//!    `count`, `datatype` and `in` checks.
//! 2. **Dependent closure**: a `class` or `node` check on path `p` reads the
//!    *value's* neighborhood, so a subject `s` with `⟨s,o⟩ ∈ new(p)` and a
//!    dirty `o` is dirty too. Iterating to a fixed point walks chains of
//!    `node` references (statically acyclic, so the iteration is bounded by
//!    the reference depth).
//!
//! The new report is then the old one minus every violation whose focus is
//! dirty, plus a fresh check of every dirty node — equality with full
//! re-validation is proven by `tests/shape_validation.rs` over random
//! extend/retract sequences.

use super::compile::{Check, CompiledShapes, Target};
use inferray_dictionary::Dictionary;
use inferray_model::term::{RDF_LANG_STRING, XSD_STRING};
use inferray_model::TermRef;
use inferray_parallel::ThreadPool;
use inferray_store::{as_pairs, Pair, PropertyTable, TripleStore};
use std::collections::HashSet;

/// Why a focus node violates a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// Fewer values than the declared minimum.
    CountBelow {
        /// Number of values found.
        found: u64,
        /// Declared minimum.
        min: u64,
    },
    /// More values than the declared maximum.
    CountAbove {
        /// Number of values found.
        found: u64,
        /// Declared maximum.
        max: u64,
    },
    /// A value is not a literal of the required datatype.
    Datatype {
        /// The offending value.
        value: u64,
    },
    /// A value lacks the required `rdf:type`.
    Class {
        /// The offending value.
        value: u64,
    },
    /// A value is outside the enumerated set.
    In {
        /// The offending value.
        value: u64,
    },
    /// A value does not conform to the referenced shape.
    Node {
        /// The offending value.
        value: u64,
        /// Index of the referenced shape.
        shape: usize,
    },
}

/// One violation: a focus node failing one clause of one shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// The focus node.
    pub focus: u64,
    /// Index of the shape in [`CompiledShapes::shapes`].
    pub shape: usize,
    /// Index of the constraint within the shape.
    pub constraint: usize,
    /// 1-based line of the violated clause in the shape file.
    pub line: u32,
    /// 1-based column of the violated clause.
    pub col: u32,
    /// What went wrong.
    pub kind: ViolationKind,
}

/// The outcome of validating a store against a compiled shape program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValidationReport {
    /// Every violation, sorted by `(focus, shape, constraint, position)`.
    pub violations: Vec<Violation>,
    /// Number of `(shape, focus)` evaluations performed to produce this
    /// report (for an incremental report: only the re-checked ones).
    pub focus_checks: u64,
}

impl ValidationReport {
    /// `true` when the store conforms.
    pub fn conforms(&self) -> bool {
        self.violations.is_empty()
    }
}

fn empty_table() -> &'static PropertyTable {
    static EMPTY: std::sync::OnceLock<PropertyTable> = std::sync::OnceLock::new();
    EMPTY.get_or_init(PropertyTable::new)
}

fn table(store: &TripleStore, p: Option<u64>) -> &PropertyTable {
    match p.and_then(|p| store.table(p)) {
        Some(table) => table,
        None => empty_table(),
    }
}

/// `true` when `value` is a literal whose effective datatype is `iri`
/// (plain literals are `xsd:string`, language-tagged ones `rdf:langString`).
fn has_datatype(dict: &Dictionary, value: u64, iri: &str) -> bool {
    match dict.term_ref(value) {
        Some(TermRef::Literal {
            datatype, language, ..
        }) => {
            let effective = match (&language, &datatype) {
                (Some(_), _) => RDF_LANG_STRING,
                (None, Some(dt)) => dt,
                (None, None) => XSD_STRING,
            };
            effective == iri
        }
        _ => false,
    }
}

/// `true` when `node` has `rdf:type class` in `store`.
fn has_type(shapes: &CompiledShapes, store: &TripleStore, node: u64, class: Option<u64>) -> bool {
    match (shapes.rdf_type, class) {
        (Some(rdf_type), Some(class)) => table(store, Some(rdf_type)).contains_pair(node, class),
        _ => false,
    }
}

/// `true` when `node` satisfies every constraint of `shapes.shapes[si]`
/// (irrespective of the shape's target). Short-circuits on the first
/// failure; `node` checks recurse through the statically acyclic reference
/// graph.
pub fn conforms(
    shapes: &CompiledShapes,
    si: usize,
    node: u64,
    store: &TripleStore,
    dict: &Dictionary,
) -> bool {
    let Some(shape) = shapes.shapes.get(si) else {
        return true;
    };
    for constraint in &shape.constraints {
        let values = table(store, constraint.path).objects_of(node);
        let mut count = 0u64;
        let mut failed = false;
        // One pass over the values evaluates every per-value check; the
        // count checks need only the total.
        for value in values {
            count += 1;
            for check in &constraint.checks {
                let ok = match check {
                    Check::Count { .. } => true,
                    Check::Datatype { iri, .. } => has_datatype(dict, value, iri),
                    Check::Class { class, .. } => has_type(shapes, store, value, *class),
                    Check::In { values, .. } => values.binary_search(&value).is_ok(),
                    Check::Node { shape, .. } => conforms(shapes, *shape, value, store, dict),
                };
                if !ok {
                    failed = true;
                    break;
                }
            }
            if failed {
                return false;
            }
        }
        for check in &constraint.checks {
            if let Check::Count { min, max, .. } = check {
                if count < *min || max.is_some_and(|m| count > m) {
                    return false;
                }
            }
        }
    }
    true
}

/// Validates `focus` against shape `si`, appending violations to `out`.
fn check_focus(
    shapes: &CompiledShapes,
    si: usize,
    focus: u64,
    store: &TripleStore,
    dict: &Dictionary,
    out: &mut Vec<Violation>,
) {
    let Some(shape) = shapes.shapes.get(si) else {
        return;
    };
    for (ci, constraint) in shape.constraints.iter().enumerate() {
        let mut count = 0u64;
        for value in table(store, constraint.path).objects_of(focus) {
            count += 1;
            for check in &constraint.checks {
                let kind = match check {
                    Check::Count { .. } => continue,
                    Check::Datatype { iri, .. } if !has_datatype(dict, value, iri) => {
                        ViolationKind::Datatype { value }
                    }
                    Check::Class { class, .. } if !has_type(shapes, store, value, *class) => {
                        ViolationKind::Class { value }
                    }
                    Check::In { values, .. } if values.binary_search(&value).is_err() => {
                        ViolationKind::In { value }
                    }
                    Check::Node { shape, .. } if !conforms(shapes, *shape, value, store, dict) => {
                        ViolationKind::Node {
                            value,
                            shape: *shape,
                        }
                    }
                    _ => continue,
                };
                let span = check.span();
                out.push(Violation {
                    focus,
                    shape: si,
                    constraint: ci,
                    line: span.line,
                    col: span.col,
                    kind,
                });
            }
        }
        for check in &constraint.checks {
            if let Check::Count { min, max, span } = check {
                let kind = if count < *min {
                    Some(ViolationKind::CountBelow {
                        found: count,
                        min: *min,
                    })
                } else {
                    max.filter(|m| count > *m)
                        .map(|max| ViolationKind::CountAbove { found: count, max })
                };
                if let Some(kind) = kind {
                    out.push(Violation {
                        focus,
                        shape: si,
                        constraint: ci,
                        line: span.line,
                        col: span.col,
                        kind,
                    });
                }
            }
        }
    }
}

/// The focus nodes of shape `si` in `store`, sorted and deduplicated.
fn focus_nodes(shapes: &CompiledShapes, si: usize, store: &TripleStore) -> Vec<u64> {
    let Some(shape) = shapes.shapes.get(si) else {
        return Vec::new();
    };
    let mut nodes = match &shape.target {
        Target::Class(class) => match (shapes.rdf_type, class) {
            (Some(rdf_type), Some(class)) => table(store, Some(rdf_type))
                .iter_pairs()
                .filter(|&(_, o)| o == *class)
                .map(|(s, _)| s)
                .collect(),
            _ => Vec::new(),
        },
        Target::SubjectsOf(p) => table(store, *p).iter_pairs().map(|(s, _)| s).collect(),
        Target::All => {
            let mut nodes = Vec::new();
            for (_, t) in store.iter_tables() {
                nodes.extend(t.iter_pairs().map(|(s, _)| s));
            }
            nodes
        }
    };
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// `true` when `node` is a focus node of shape `si` in `store` — the
/// membership test the incremental path runs per dirty node instead of
/// recomputing whole target sets.
fn is_focus(shapes: &CompiledShapes, si: usize, node: u64, store: &TripleStore) -> bool {
    let Some(shape) = shapes.shapes.get(si) else {
        return false;
    };
    match &shape.target {
        Target::Class(class) => has_type(shapes, store, node, *class),
        Target::SubjectsOf(p) => table(store, *p).objects_of(node).next().is_some(),
        Target::All => store
            .iter_tables()
            .any(|(_, t)| t.objects_of(node).next().is_some()),
    }
}

/// Validates the full store, fanning focus-node chunks out over `pool`.
pub fn validate(
    shapes: &CompiledShapes,
    store: &TripleStore,
    dict: &Dictionary,
    pool: &ThreadPool,
) -> ValidationReport {
    // Per-shape focus lists, chunked so every worker gets comparable work.
    let mut units: Vec<(usize, Vec<u64>)> = Vec::new();
    let mut total_focus = 0u64;
    for si in 0..shapes.shapes.len() {
        let nodes = focus_nodes(shapes, si, store);
        total_focus += nodes.len() as u64;
        let chunk = (nodes.len() / (pool.threads() * 2).max(1)).max(256);
        for piece in nodes.chunks(chunk) {
            if !piece.is_empty() {
                units.push((si, piece.to_vec()));
            }
        }
    }
    let tasks: Vec<_> = units
        .into_iter()
        .map(|(si, nodes)| {
            move || {
                let mut out = Vec::new();
                for &focus in &nodes {
                    check_focus(shapes, si, focus, store, dict, &mut out);
                }
                out
            }
        })
        .collect();
    let mut violations: Vec<Violation> = pool.run_ordered(tasks).into_iter().flatten().collect();
    violations.sort_unstable();
    ValidationReport {
        violations,
        focus_checks: total_focus,
    }
}

/// Both endpoints of every pair present in exactly one of the two sorted
/// arrays (two-pointer symmetric difference).
fn diff_pairs(old: &[Pair], new: &[Pair], dirty: &mut HashSet<u64>) {
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(a), Some(b)) = (old.get(i), new.get(j)) {
        match a.cmp(b) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                dirty.extend(a);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                dirty.extend(b);
                j += 1;
            }
        }
    }
    dirty.extend(old[i..].iter().chain(&new[j..]).flatten());
}

/// The nodes whose verdict may differ between `old` and `new`: endpoints of
/// changed pairs, closed over the value-dependent paths of `shapes`.
pub fn dirty_nodes(shapes: &CompiledShapes, old: &TripleStore, new: &TripleStore) -> HashSet<u64> {
    let mut dirty = HashSet::new();
    let mut properties: Vec<u64> = old.property_ids().chain(new.property_ids()).collect();
    properties.sort_unstable();
    properties.dedup();
    for p in properties {
        let old_pairs = table(old, Some(p)).pairs();
        let new_pairs = table(new, Some(p)).pairs();
        if old_pairs != new_pairs {
            diff_pairs(as_pairs(old_pairs), as_pairs(new_pairs), &mut dirty);
        }
    }
    if dirty.is_empty() {
        return dirty;
    }
    // Close over value-dependent checks: a subject pointing (through a
    // `class`/`node`-checked path) at a dirty value is dirty too. The loop
    // reaches a fixed point within the depth of the acyclic `node` graph.
    let dependent = shapes.dependent_paths();
    loop {
        let mut grew = false;
        for &p in &dependent {
            for (s, o) in table(new, Some(p)).iter_pairs() {
                if dirty.contains(&o) && dirty.insert(s) {
                    grew = true;
                }
            }
        }
        if !grew {
            return dirty;
        }
    }
}

/// Incrementally re-validates after a write: `previous` must be the report
/// of `old` under the same compiled shapes, and the result equals
/// `validate(shapes, new, …)` exactly (see the module docs for the
/// argument, `tests/shape_validation.rs` for the property test).
pub fn validate_delta(
    shapes: &CompiledShapes,
    old: &TripleStore,
    new: &TripleStore,
    dict: &Dictionary,
    previous: &ValidationReport,
) -> ValidationReport {
    let dirty = dirty_nodes(shapes, old, new);
    let mut violations: Vec<Violation> = previous
        .violations
        .iter()
        .filter(|v| !dirty.contains(&v.focus))
        .copied()
        .collect();
    let mut focus_checks = 0u64;
    let mut nodes: Vec<u64> = dirty.into_iter().collect();
    nodes.sort_unstable();
    for si in 0..shapes.shapes.len() {
        for &node in &nodes {
            if is_focus(shapes, si, node, new) {
                focus_checks += 1;
                check_focus(shapes, si, node, new, dict, &mut violations);
            }
        }
    }
    violations.sort_unstable();
    ValidationReport {
        violations,
        focus_checks,
    }
}

#[cfg(test)]
mod tests {
    use super::super::analyze;
    use super::*;
    use inferray_model::{Term, Triple};

    fn load(triples: &[(&str, &str, &str)]) -> (TripleStore, Dictionary) {
        let mut dict = Dictionary::new();
        let mut store = TripleStore::new();
        for (s, p, o) in triples {
            let t = dict.encode_triple(&Triple::iris(*s, *p, *o)).unwrap();
            store.add_triple(t);
        }
        store.finalize();
        (store, dict)
    }

    fn compile(text: &str, dict: &Dictionary) -> CompiledShapes {
        let analysis = analyze(text);
        analysis.compile(dict).expect("shape program compiles")
    }

    const TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

    #[test]
    fn count_class_and_in_violations_with_positions() {
        let (store, dict) = load(&[
            ("urn:alice", TYPE, "urn:Person"),
            ("urn:alice", "urn:knows", "urn:bob"),
            ("urn:bob", TYPE, "urn:Person"),
            ("urn:bob", "urn:knows", "urn:ghost"),
        ]);
        let shapes = compile(
            "shape Person targets class <urn:Person> {\n\
               <urn:knows> class <urn:Person> ;\n\
               <urn:name> count [1..*] ;\n\
             } .",
            &dict,
        );
        let report = validate(&shapes, &store, &dict, inferray_parallel::global());
        // bob knows a non-Person; both alice and bob lack a name.
        assert_eq!(report.violations.len(), 3);
        let ghost = dict.id_of_iri("urn:ghost").unwrap();
        let class_violation = report
            .violations
            .iter()
            .find(|v| matches!(v.kind, ViolationKind::Class { value } if value == ghost))
            .expect("class violation");
        assert_eq!((class_violation.line, class_violation.col), (2, 13));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::CountBelow { found: 0, min: 1 })));
        assert!(!report.conforms());
    }

    #[test]
    fn datatype_and_in_checks() {
        let mut dict = Dictionary::new();
        let mut store = TripleStore::new();
        for t in [
            Triple::new(
                Term::iri("urn:x"),
                Term::iri("urn:age"),
                Term::typed_literal("7", "http://www.w3.org/2001/XMLSchema#integer"),
            ),
            Triple::new(
                Term::iri("urn:x"),
                Term::iri("urn:status"),
                Term::plain_literal("active"),
            ),
            Triple::new(
                Term::iri("urn:y"),
                Term::iri("urn:age"),
                Term::plain_literal("old"),
            ),
            Triple::new(
                Term::iri("urn:y"),
                Term::iri("urn:status"),
                Term::plain_literal("dormant"),
            ),
        ] {
            let t = dict.encode_triple(&t).unwrap();
            store.add_triple(t);
        }
        store.finalize();
        let shapes = compile(
            "shape S targets all {\n\
               <urn:age> datatype <http://www.w3.org/2001/XMLSchema#integer> ;\n\
               <urn:status> in ( \"active\" \"inactive\" ) ;\n\
             } .",
            &dict,
        );
        let report = validate(&shapes, &store, &dict, inferray_parallel::global());
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations.iter().all(|v| matches!(
            v.kind,
            ViolationKind::Datatype { .. } | ViolationKind::In { .. }
        )));
    }

    #[test]
    fn node_references_recurse() {
        let (store, dict) = load(&[
            ("urn:a", "urn:knows", "urn:b"),
            ("urn:b", "urn:name", "urn:n"),
            ("urn:a", "urn:name", "urn:n"),
            ("urn:c", "urn:knows", "urn:nameless"),
        ]);
        let shapes = compile(
            "shape Knower targets subjects-of <urn:knows> { <urn:knows> node Named ; } .\n\
             shape Named targets all { <urn:name> count [1..*] ; } .",
            &dict,
        );
        let report = validate(&shapes, &store, &dict, inferray_parallel::global());
        let nameless = dict.id_of_iri("urn:nameless").unwrap();
        let c = dict.id_of_iri("urn:c").unwrap();
        // `c -> nameless` violates Knower, and `c` (an `all` focus of
        // Named, being a subject) lacks a name itself. `nameless` occurs
        // only in object position, so it is not an `all` focus node.
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations.iter().all(|v| v.focus == c));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::Node { value, .. } if value == nameless)));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::CountBelow { found: 0, min: 1 })));
    }

    #[test]
    fn delta_agrees_with_full_revalidation_on_a_hand_case() {
        let (old, mut dict) = load(&[
            ("urn:alice", TYPE, "urn:Person"),
            ("urn:alice", "urn:name", "urn:n1"),
        ]);
        let shapes_text = "shape Person targets class <urn:Person> {\n\
                             <urn:name> count [1..1] ;\n\
                           } .";
        let shapes = compile(shapes_text, &dict);
        let previous = validate(&shapes, &old, &dict, inferray_parallel::global());
        assert!(previous.conforms());

        // Bob arrives without a name; alice gains a second one.
        let mut new = old.clone();
        for (s, p, o) in [
            ("urn:bob", TYPE, "urn:Person"),
            ("urn:alice", "urn:name", "urn:n2"),
        ] {
            let t = dict.encode_triple(&Triple::iris(s, p, o)).unwrap();
            new.add_triple(t);
        }
        new.finalize();
        let shapes = compile(shapes_text, &dict);
        let full = validate(&shapes, &new, &dict, inferray_parallel::global());
        let previous = validate(&shapes, &old, &dict, inferray_parallel::global());
        let delta = validate_delta(&shapes, &old, &new, &dict, &previous);
        assert_eq!(full.violations, delta.violations);
        assert_eq!(full.violations.len(), 2);
    }

    #[test]
    fn dirty_nodes_close_over_dependent_paths() {
        let (old, dict) = load(&[
            ("urn:a", "urn:knows", "urn:b"),
            ("urn:b", TYPE, "urn:Person"),
        ]);
        // Retract b's type: a is not incident to the changed pair but its
        // class-checked value is, so the closure must pull a in.
        let mut new = old.clone();
        let b = dict.id_of_iri("urn:b").unwrap();
        let ty = dict.id_of_iri(TYPE).unwrap();
        let person = dict.id_of_iri("urn:Person").unwrap();
        new.retract([inferray_model::IdTriple::new(b, ty, person)]);
        let shapes = compile(
            "shape S targets subjects-of <urn:knows> { <urn:knows> class <urn:Person> ; } .",
            &dict,
        );
        let dirty = dirty_nodes(&shapes, &old, &new);
        let a = dict.id_of_iri("urn:a").unwrap();
        assert!(dirty.contains(&a), "dependent subject must be dirty");
        let previous = validate(&shapes, &old, &dict, inferray_parallel::global());
        assert!(previous.conforms());
        let full = validate(&shapes, &new, &dict, inferray_parallel::global());
        let delta = validate_delta(&shapes, &old, &new, &dict, &previous);
        assert_eq!(full.violations, delta.violations);
        assert_eq!(full.violations.len(), 1);
    }
}
