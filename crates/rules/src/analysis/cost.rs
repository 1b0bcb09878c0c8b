//! Per-rule cost estimates over a concrete dataset.
//!
//! `inferray-cli rules explain --data FILE` pairs the static signature dump
//! with a dynamic estimate: for every body atom, how many sorted pairs the
//! sort-merge scan touches, and a left-fold join-size estimate derived from
//! the store's bounded distinct-key counters
//! ([`PropertyTable::distinct_subjects`] /
//! [`PropertyTable::distinct_objects`](inferray_store::PropertyTable::distinct_objects)).
//! The estimator is deliberately the query planner's model — independence
//! across atoms, `|A ⋈ B| ≈ |A|·|B| / max(d_join, 1)` — so `rules explain`
//! predicts the same relative ordering the scheduler will observe.
//!
//! The counters for objects come from the ⟨o,s⟩ cache; callers should run
//! [`TripleStore::ensure_all_os`](inferray_store::TripleStore::ensure_all_os)
//! first, otherwise object-side selectivity falls back to the pair count.

use super::compile::{Atom, CompiledRule, Term};
use inferray_dictionary::Dictionary;
use inferray_model::ids::is_property_id;
use inferray_store::{DistinctCount, TripleStore};

/// Probe budget handed to the distinct-key estimators: tables with up to
/// this many key runs are counted exactly, larger ones extrapolated from
/// the scanned prefix.
pub const DISTINCT_BUDGET: usize = 1024;

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
    /// left-to-right (0 for an empty body).
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
    match atom.p.as_const() {
        Some(p) if is_property_id(p) => {
            let table = store.table(p).filter(|t| !t.is_empty());
            AtomCost {
                pattern,
                rows: table.map_or(0, |t| t.len()),
                distinct_subjects: table.map(|t| t.distinct_subjects(DISTINCT_BUDGET)),
                distinct_objects: table.and_then(|t| t.distinct_objects(DISTINCT_BUDGET)),
            }
        }
        // A constant that is not a property id (or an unknown term lowered
        // to a fresh id) matches nothing.
        Some(_) => AtomCost {
            pattern,
            rows: 0,
            distinct_subjects: None,
            distinct_objects: None,
        },
        // Variable predicate: the scan walks every table.
        None => AtomCost {
            pattern,
            rows: store.len(),
            distinct_subjects: None,
            distinct_objects: None,
        },
    }
}

fn is_bound(term: Term, bound: &[u32]) -> bool {
    term.as_var().is_some_and(|v| bound.contains(&v))
}

fn bind_vars(atom: &Atom, bound: &mut Vec<u32>) {
    for term in [atom.s, atom.p, atom.o] {
        if let Some(v) = term.as_var() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
}

/// Distinct-key count of the most selective join column this atom shares
/// with the already-bound variables, or `None` for a cross product.
fn join_selectivity(
    atom: &Atom,
    cost: &AtomCost,
    bound: &[u32],
    store: &TripleStore,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut consider = |d: usize| {
        best = Some(best.map_or(d, |b| b.max(d)));
    };
    if is_bound(atom.s, bound) {
        // Without a table there is nothing to join; `rows` (0) is the
        // honest fallback either way.
        consider(cost.distinct_subjects.map_or(cost.rows, |d| d.count));
    }
    if is_bound(atom.o, bound) {
        consider(cost.distinct_objects.map_or(cost.rows, |d| d.count));
    }
    if is_bound(atom.p, bound) {
        consider(store.property_ids().count());
    }
    best
}

/// Estimates the cost of one rule body over `store`, folding atoms
/// left-to-right exactly as the generic executor binds them.
pub fn estimate(rule: &CompiledRule, store: &TripleStore, dict: &Dictionary) -> RuleCost {
    let atoms: Vec<AtomCost> = rule
        .body
        .iter()
        .map(|a| atom_cost(a, store, dict))
        .collect();
    let mut bound: Vec<u32> = Vec::new();
    let mut est = 0.0f64;
    for (i, (atom, cost)) in rule.body.iter().zip(&atoms).enumerate() {
        let rows = cost.rows as f64;
        if i == 0 {
            est = rows;
        } else {
            match join_selectivity(atom, cost, &bound, store) {
                Some(d) => est = est * rows / d.max(1) as f64,
                // No shared variable: a cross product.
                None => est *= rows,
            }
        }
        bind_vars(atom, &mut bound);
    }
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
