//! Per-rule cost estimates over a concrete dataset.
//!
//! `inferray-cli rules explain --data FILE` pairs the static signature dump
//! with a dynamic estimate: for every body atom, how many sorted pairs the
//! sort-merge scan touches and the table's distinct subjects / objects, and
//! for the body the estimated number of bindings. That estimate is the
//! query planner's: the product, in body order, of each atom's per-binding
//! estimate under the store's one cardinality model
//! ([`inferray_store::estimate`]), so `rules explain` and the planner cannot
//! disagree about the same join.
//!
//! The counters for objects come from the ⟨o,s⟩ cache; callers should run
//! [`TripleStore::ensure_all_os`](inferray_store::TripleStore::ensure_all_os)
//! first, otherwise object-side selectivity falls back to `√n`.

use super::compile::{Atom, CompiledRule, Term};
use inferray_dictionary::Dictionary;
use inferray_store::estimate::{self, table_for, Predicate};
use inferray_store::{DistinctCount, TripleStore};

/// Scan and selectivity statistics for one body atom.
#[derive(Debug, Clone)]
pub struct AtomCost {
    /// The atom rendered back to rule syntax (`?v0 <iri> ?v1`).
    pub pattern: String,
    /// Pairs the sort-merge scan of this atom touches — the predicate's
    /// table length, or the whole store when the predicate is a variable.
    pub rows: usize,
    /// Distinct subjects of the predicate's table (`None` when the
    /// predicate is a variable or resolves to no table).
    pub distinct_subjects: Option<DistinctCount>,
    /// Distinct objects, from the ⟨o,s⟩ cache (`None` when the predicate
    /// is a variable, resolves to no table, or the cache is absent).
    pub distinct_objects: Option<DistinctCount>,
}

/// The derived estimate for one rule body.
#[derive(Debug, Clone)]
pub struct RuleCost {
    /// Per-atom statistics, in body order.
    pub atoms: Vec<AtomCost>,
    /// Estimated number of body bindings after joining every atom
    /// left-to-right.
    pub est_bindings: f64,
    /// Total pairs scanned across all atoms — the lower bound on the work
    /// one firing of the rule performs.
    pub scanned: usize,
}

impl RuleCost {
    /// `est_bindings` rounded for display, saturating at `u64::MAX`.
    pub fn est_rounded(&self) -> u64 {
        if self.est_bindings >= u64::MAX as f64 {
            u64::MAX
        } else {
            self.est_bindings.round() as u64
        }
    }
}

fn term_str(term: Term, dict: &Dictionary) -> String {
    match term {
        Term::Var(v) => format!("?v{v}"),
        Term::Const(c) => match dict.text(c) {
            Some(text) => text.to_owned(),
            None => format!("#{c}"),
        },
    }
}

fn atom_cost(atom: &Atom, store: &TripleStore, dict: &Dictionary) -> AtomCost {
    let pattern = format!(
        "{} {} {}",
        term_str(atom.s, dict),
        term_str(atom.p, dict),
        term_str(atom.o, dict)
    );
    let Some(p) = atom.p.as_const() else {
        // Variable predicate: the scan walks every table.
        return AtomCost {
            pattern,
            rows: store.len(),
            distinct_subjects: None,
            distinct_objects: None,
        };
    };
    // A constant that is not a property id (or an unknown term lowered to a
    // fresh id) matches nothing.
    let table = table_for(store, p).filter(|t| !t.is_empty());
    AtomCost {
        pattern,
        rows: table.map_or(0, |t| t.len()),
        distinct_subjects: table.map(estimate::distinct_subjects),
        distinct_objects: table.and_then(estimate::distinct_objects),
    }
}

/// Estimates the cost of one rule body over `store`, binding atoms
/// left-to-right exactly as the generic executor does.
pub fn estimate(rule: &CompiledRule, store: &TripleStore, dict: &Dictionary) -> RuleCost {
    let mut bound: Vec<u32> = Vec::new();
    let mut est = 1.0_f64;
    for atom in &rule.body {
        let is_bound = |term: Term| term.as_var().is_none_or(|v| bound.contains(&v));
        let predicate = match atom.p {
            Term::Const(p) => Predicate::Const(p),
            Term::Var(v) if bound.contains(&v) => Predicate::Bound,
            Term::Var(_) => Predicate::Free,
        };
        est *= estimate::per_binding(store, predicate, is_bound(atom.s), is_bound(atom.o));
        bound.extend(
            [atom.s, atom.p, atom.o]
                .into_iter()
                .filter_map(Term::as_var),
        );
    }
    let atoms: Vec<AtomCost> = rule
        .body
        .iter()
        .map(|a| atom_cost(a, store, dict))
        .collect();
    RuleCost {
        est_bindings: est,
        scanned: atoms.iter().map(|a| a.rows).sum(),
        atoms,
    }
}

#[cfg(test)]
mod tests {
    use super::super::analyze;
    use super::*;
    use inferray_model::Triple;

    fn load(triples: &[(&str, &str, &str)]) -> (TripleStore, Dictionary) {
        let mut dict = Dictionary::new();
        let mut store = TripleStore::new();
        for (s, p, o) in triples {
            let t = dict.encode_triple(&Triple::iris(*s, *p, *o)).unwrap();
            store.add_triple(t);
        }
        store.finalize();
        store.ensure_all_os();
        (store, dict)
    }

    fn compile_one(text: &str, dict: &mut Dictionary) -> CompiledRule {
        let analysis = analyze(text);
        let compiled = analysis.compile(dict).expect("rule compiles");
        compiled.rules.into_iter().next().expect("one rule")
    }

    #[test]
    fn single_atom_cost_is_the_table_scan() {
        let (store, mut dict) = load(&[
            ("urn:a", "urn:p", "urn:b"),
            ("urn:b", "urn:p", "urn:c"),
            ("urn:c", "urn:q", "urn:d"),
        ]);
        let rule = compile_one("rule r: ?x <urn:p> ?y => ?y <urn:r> ?x .", &mut dict);
        let cost = estimate(&rule, &store, &dict);
        assert_eq!(cost.atoms.len(), 1);
        assert_eq!(cost.atoms[0].rows, 2);
        assert_eq!(cost.scanned, 2);
        assert_eq!(cost.est_rounded(), 2);
        let subjects = cost.atoms[0].distinct_subjects.expect("const predicate");
        assert!(subjects.exact);
        assert_eq!(subjects.count, 2);
        assert_eq!(
            cost.atoms[0]
                .distinct_objects
                .expect("os cache built")
                .count,
            2
        );
    }

    #[test]
    fn join_estimate_divides_by_the_shared_column() {
        // ⟨urn:p⟩ has 4 pairs with 2 distinct objects; ⟨urn:q⟩ has 2 pairs
        // with 2 distinct subjects. Joining ?y (object of atom 0, subject
        // of atom 1): est = 4 * 2 / 2 = 4.
        let (store, mut dict) = load(&[
            ("urn:a", "urn:p", "urn:x"),
            ("urn:b", "urn:p", "urn:x"),
            ("urn:c", "urn:p", "urn:y"),
            ("urn:d", "urn:p", "urn:y"),
            ("urn:x", "urn:q", "urn:k"),
            ("urn:y", "urn:q", "urn:k"),
        ]);
        let rule = compile_one(
            "rule chain: ?x <urn:p> ?y, ?y <urn:q> ?z => ?x <urn:r> ?z .",
            &mut dict,
        );
        let cost = estimate(&rule, &store, &dict);
        assert_eq!(cost.atoms[0].rows, 4);
        assert_eq!(cost.atoms[1].rows, 2);
        assert_eq!(cost.scanned, 6);
        assert_eq!(cost.est_rounded(), 4);
    }

    #[test]
    fn disconnected_atoms_multiply_as_a_cross_product() {
        let (store, mut dict) = load(&[
            ("urn:a", "urn:p", "urn:b"),
            ("urn:b", "urn:p", "urn:c"),
            ("urn:c", "urn:q", "urn:d"),
        ]);
        // ?a/?b vs ?c/?d share nothing (the checker flags this RA006
        // warning, which does not block compilation).
        let rule = compile_one(
            "rule cross: ?a <urn:p> ?b, ?c <urn:q> ?d => ?a <urn:r> ?d .",
            &mut dict,
        );
        let cost = estimate(&rule, &store, &dict);
        assert_eq!(cost.est_rounded(), 2);
        assert_eq!(cost.scanned, 3);
    }

    #[test]
    fn unknown_predicates_scan_nothing() {
        let (store, mut dict) = load(&[("urn:a", "urn:p", "urn:b")]);
        let rule = compile_one("rule r: ?x <urn:nope> ?y => ?x <urn:r> ?y .", &mut dict);
        let cost = estimate(&rule, &store, &dict);
        assert_eq!(cost.atoms[0].rows, 0);
        assert_eq!(cost.est_rounded(), 0);
    }

    #[test]
    fn variable_predicates_scan_the_whole_store() {
        let (store, mut dict) = load(&[("urn:a", "urn:p", "urn:b"), ("urn:c", "urn:q", "urn:d")]);
        let rule = compile_one("rule any: ?x ?p ?y => ?y ?p ?x .", &mut dict);
        let cost = estimate(&rule, &store, &dict);
        assert_eq!(cost.atoms[0].rows, store.len());
        assert!(cost.atoms[0].distinct_subjects.is_none());
    }
}
