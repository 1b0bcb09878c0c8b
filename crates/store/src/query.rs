//! Triple-pattern matching over the vertically partitioned store.
//!
//! The paper positions Inferray as the inference layer of a triple store, so
//! the store exposes the basic lookup primitive such a store needs: matching
//! a `(subject?, predicate?, object?)` pattern, where `None` is a wildcard.
//! Bound-predicate patterns resolve to one property table and run as binary
//! searches / contiguous scans over the sorted arrays; unbound-predicate
//! patterns scan every table (the vertical-partitioning trade-off the
//! original vertical-partitioning paper acknowledges).

use crate::triple_store::TripleStore;
use inferray_model::IdTriple;

/// A `(subject?, predicate?, object?)` pattern; `None` is a wildcard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject constraint.
    pub s: Option<u64>,
    /// Predicate constraint.
    pub p: Option<u64>,
    /// Object constraint.
    pub o: Option<u64>,
}

impl TriplePattern {
    /// A fully wildcard pattern.
    pub fn any() -> Self {
        TriplePattern::default()
    }

    /// Pattern with a bound subject.
    pub fn with_s(mut self, s: u64) -> Self {
        self.s = Some(s);
        self
    }

    /// Pattern with a bound predicate.
    pub fn with_p(mut self, p: u64) -> Self {
        self.p = Some(p);
        self
    }

    /// Pattern with a bound object.
    pub fn with_o(mut self, o: u64) -> Self {
        self.o = Some(o);
        self
    }

    /// `true` when `triple` matches this pattern.
    pub fn matches(&self, triple: &IdTriple) -> bool {
        self.s.is_none_or(|s| s == triple.s)
            && self.p.is_none_or(|p| p == triple.p)
            && self.o.is_none_or(|o| o == triple.o)
    }
}

impl TripleStore {
    /// Returns every triple matching the pattern, in ⟨p, s, o⟩ order for
    /// bound-predicate patterns and table order otherwise.
    ///
    /// Bound-predicate lookups touch a single property table:
    ///
    /// * `(s, p, o)` — one binary search;
    /// * `(s, p, ?)` — one binary search plus a contiguous scan;
    /// * `(?, p, o)` — one binary search in the ⟨o,s⟩ cache, which the
    ///   table's first such lookup builds;
    /// * `(?, p, ?)` — a full scan of that table.
    ///
    /// Unbound-predicate patterns scan every non-empty table.
    pub fn match_pattern(&self, pattern: TriplePattern) -> Vec<IdTriple> {
        let mut out = Vec::new();
        match pattern.p {
            Some(p) => {
                if let Some(table) = self.table(p) {
                    match_in_table(table, p, pattern, &mut out);
                }
            }
            None => {
                for (p, table) in self.iter_tables() {
                    match_in_table(table, p, pattern, &mut out);
                }
            }
        }
        out
    }

    /// Number of triples matching the pattern (no materialization of the
    /// result vector beyond what the lookup itself needs).
    pub fn count_pattern(&self, pattern: TriplePattern) -> usize {
        self.match_pattern(pattern).len()
    }
}

fn match_in_table(
    table: &crate::property_table::PropertyTable,
    p: u64,
    pattern: TriplePattern,
    out: &mut Vec<IdTriple>,
) {
    match (pattern.s, pattern.o) {
        (Some(s), Some(o)) => {
            if table.contains_pair(s, o) {
                out.push(IdTriple::new(s, p, o));
            }
        }
        (Some(s), None) => {
            for o in table.objects_of(s) {
                out.push(IdTriple::new(s, p, o));
            }
        }
        // The ⟨o,s⟩ cache, built here when this is its table's first reader.
        (None, Some(o)) => {
            for s in table.subjects_of(o) {
                out.push(IdTriple::new(s, p, o));
            }
        }
        (None, None) => {
            for (s, o) in table.iter_pairs() {
                out.push(IdTriple::new(s, p, o));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TripleStore {
        let p1 = 1u64 << 32;
        let p2 = p1 - 1;
        TripleStore::from_triples([
            IdTriple::new(10, p1, 20),
            IdTriple::new(10, p1, 21),
            IdTriple::new(11, p1, 20),
            IdTriple::new(10, p2, 30),
        ])
    }

    #[test]
    fn fully_bound_pattern_is_a_membership_test() {
        let s = store();
        let p1 = 1u64 << 32;
        let hit = TriplePattern::any().with_s(10).with_p(p1).with_o(21);
        assert_eq!(s.match_pattern(hit), vec![IdTriple::new(10, p1, 21)]);
        let miss = TriplePattern::any().with_s(11).with_p(p1).with_o(21);
        assert!(s.match_pattern(miss).is_empty());
    }

    #[test]
    fn subject_predicate_pattern_scans_one_run() {
        let s = store();
        let p1 = 1u64 << 32;
        let result = s.match_pattern(TriplePattern::any().with_s(10).with_p(p1));
        assert_eq!(result.len(), 2);
        assert!(result.iter().all(|t| t.s == 10 && t.p == p1));
    }

    #[test]
    fn object_predicate_pattern_with_and_without_cache() {
        let mut s = store();
        let p1 = 1u64 << 32;
        let pattern = TriplePattern::any().with_p(p1).with_o(20);
        let without_cache = s.match_pattern(pattern);
        s.ensure_all_os();
        let with_cache = s.match_pattern(pattern);
        assert_eq!(without_cache.len(), 2);
        let mut a = without_cache;
        let mut b = with_cache;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn unbound_predicate_scans_every_table() {
        let s = store();
        let all = s.match_pattern(TriplePattern::any());
        assert_eq!(all.len(), 4);
        let subject10 = s.match_pattern(TriplePattern::any().with_s(10));
        assert_eq!(subject10.len(), 3);
        let object30 = s.match_pattern(TriplePattern::any().with_o(30));
        assert_eq!(object30.len(), 1);
    }

    #[test]
    fn missing_table_and_counts() {
        let s = store();
        let unknown_p = (1u64 << 32) - 5;
        assert!(s
            .match_pattern(TriplePattern::any().with_p(unknown_p))
            .is_empty());
        assert_eq!(s.count_pattern(TriplePattern::any()), 4);
        assert_eq!(s.count_pattern(TriplePattern::any().with_s(99)), 0);
    }

    #[test]
    fn pattern_matches_predicate() {
        let t = IdTriple::new(1, 2, 3);
        assert!(TriplePattern::any().matches(&t));
        assert!(TriplePattern::any().with_s(1).with_o(3).matches(&t));
        assert!(!TriplePattern::any().with_p(9).matches(&t));
    }
}
