//! The one cardinality model: how many bindings a triple pattern yields per
//! input binding, read off the sorted pair tables themselves.
//!
//! The query planner orders a BGP with it and `rules explain --data` reports
//! a rule body's join size with it, so the two cannot disagree. Three numbers
//! per table feed it: the exact pair count `n` ([`PropertyTable::len`]) and
//! the distinct subjects `ds` and distinct objects `do`, counted by galloping
//! over the ⟨s,o⟩ and ⟨o,s⟩ layouts up to [`DISTINCT_BUDGET`] runs and
//! extrapolated beyond. Under the uniform model over `n` duplicate-free pairs
//! a pattern yields `n` rows with both endpoints free, `n/ds` with the
//! subject bound, `n/do` with the object bound (at least one: a bound
//! endpoint selects a run that exists), and `n/(ds·do)` with both bound
//! (at most one: pairs are duplicate-free). Without the ⟨o,s⟩ cache `do` is
//! unknown and `√n` stands in for it rather than building the cache
//! mid-estimate; published snapshots always carry the cache.

use crate::property_table::{DistinctCount, PropertyTable};
use crate::triple_store::TripleStore;
use inferray_model::ids::is_property_id;

/// Runs the distinct-key counters probe per table before extrapolating:
/// exact for tables with up to this many subjects (objects), `O(log n)` per
/// probe, so an estimate costs `O(tables · 64 · log n)` whatever the store's
/// size — cheap enough for every multi-pattern `/sparql` request.
pub const DISTINCT_BUDGET: usize = 64;

/// The table a predicate-position identifier names. That identifier can be a
/// resource (a literal constant, an IRI the data only uses as subject or
/// object, a variable an earlier pattern bound to one): it names no table and
/// no triple can match it. Inlined: the executor calls it once per input row.
#[inline]
pub fn table_for(store: &TripleStore, predicate: u64) -> Option<&PropertyTable> {
    is_property_id(predicate)
        .then(|| store.table(predicate))
        .flatten()
}

/// Distinct subjects of `table` under the shared budget.
pub fn distinct_subjects(table: &PropertyTable) -> DistinctCount {
    table.distinct_subjects(DISTINCT_BUDGET)
}

/// Distinct objects of `table` under the shared budget; `None` without the
/// ⟨o,s⟩ cache.
pub fn distinct_objects(table: &PropertyTable) -> Option<DistinctCount> {
    table.distinct_objects(DISTINCT_BUDGET)
}

/// What a pattern's predicate position is when its estimate is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// A constant identifier: its table, or nothing when it names none.
    Const(u64),
    /// A variable an earlier pattern bound: each input binding selects one
    /// table, so the estimate is the average table's.
    Bound,
    /// A variable first bound here: every table is scanned, so the estimate
    /// is the sum over the tables.
    Free,
}

/// Expected bindings a pattern yields per input binding, given its predicate
/// and whether its subject and object are bound (by a constant or an earlier
/// pattern). Zero when no table can match.
pub fn per_binding(store: &TripleStore, predicate: Predicate, s_bound: bool, o_bound: bool) -> f64 {
    let p_bound = match predicate {
        Predicate::Const(p) => {
            return table_for(store, p).map_or(0.0, |table| table_estimate(table, s_bound, o_bound))
        }
        Predicate::Bound => true,
        Predicate::Free => false,
    };
    let mut sum = 0.0;
    let mut tables = 0_usize;
    for (_, table) in store.iter_tables() {
        sum += table_estimate(table, s_bound, o_bound);
        tables += 1;
    }
    if tables == 0 {
        0.0
    } else if p_bound {
        (sum / tables as f64).max(1.0)
    } else {
        sum
    }
}

/// Expected matches in one property table for the given bound positions
/// (the module docs give the model).
fn table_estimate(table: &PropertyTable, s_bound: bool, o_bound: bool) -> f64 {
    let n = table.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let ds = || distinct_subjects(table).count.max(1) as f64;
    let dobj = || distinct_objects(table).map(|d| d.count.max(1) as f64);
    match (s_bound, o_bound) {
        (true, true) => (n / (ds() * dobj().unwrap_or_else(|| n.sqrt().max(1.0)))).min(1.0),
        (true, false) => (n / ds()).max(1.0),
        (false, true) => match dobj() {
            Some(dobj) => (n / dobj).max(1.0),
            None => n.sqrt().max(1.0),
        },
        (false, false) => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::ids::nth_property_id;
    use inferray_model::IdTriple;

    #[test]
    fn a_variable_predicate_sums_or_averages_the_tables() {
        // 4 pairs over 2 subjects in one table, 1 pair in the other.
        let (p, q) = (nth_property_id(1), nth_property_id(2));
        let mut triples: Vec<_> = (0..4)
            .map(|i| IdTriple::new(10 + i % 2, p, 20 + i))
            .collect();
        triples.push(IdTriple::new(30, q, 31));
        let store = TripleStore::from_triples(triples);
        assert_eq!(per_binding(&store, Predicate::Free, false, false), 5.0);
        assert_eq!(per_binding(&store, Predicate::Free, true, false), 3.0);
        assert_eq!(per_binding(&store, Predicate::Bound, true, false), 1.5);
        assert_eq!(per_binding(&store, Predicate::Const(p), true, false), 2.0);
        // An identifier that is not a property, and an empty store: nothing.
        assert_eq!(per_binding(&store, Predicate::Const(10), false, false), 0.0);
        let empty = TripleStore::new();
        assert_eq!(per_binding(&empty, Predicate::Bound, false, false), 0.0);
    }
}
