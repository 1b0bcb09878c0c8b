//! The read-only view the rule executors operate on.
//!
//! Two things about it keep the fixed point from paying for more than what
//! is new:
//!
//! * **the whole-store first iteration.** Algorithm 1 starts with
//!   `new = main` (line 3). The reasoner does not copy the store to say
//!   so: it passes the *same* store as both halves, and
//!   [`RuleContext::is_whole`] — pointer identity, decided in the one
//!   constructor — tells every semi-naive executor that its second pass
//!   (`main × new` after `new × main`) would repeat the first over
//!   identical tables and emit every derivation twice. The executors run
//!   that pass only when it is false.
//! * **⟨o,s⟩ views on demand.** [`RuleContext::object_view`] asks the table
//!   for its object-sorted cache, which the first reader builds
//!   (`PropertyTable::object_pairs`); nothing pre-builds the caches of the
//!   tables no scheduled rule reads from the object side. Executors
//!   therefore check that both sides of a join are non-empty *before* they
//!   ask for a view.

use inferray_store::{PropertyTable, TripleStore};

/// The two stores a rule reads during one fixed-point iteration:
///
/// * `main` — everything known so far (asserted + previously inferred);
/// * `new` — the triples added by the previous iteration (`new ⊆ main`).
///
/// Rules join one antecedent against `new` and the other against `main`
/// (both orders), the classic semi-naive strategy that Algorithm 1 uses to
/// avoid re-deriving from exclusively-old pairs.
#[derive(Debug, Clone, Copy)]
pub struct RuleContext<'a> {
    /// The full store.
    pub main: &'a TripleStore,
    /// The triples discovered in the previous iteration.
    pub new: &'a TripleStore,
    /// `new` *is* `main` (the same store, not an equal one).
    whole: bool,
}

impl<'a> RuleContext<'a> {
    /// Builds a context from the two stores. Passing one store as both
    /// halves is how a caller says "everything is new".
    pub fn new(main: &'a TripleStore, new: &'a TripleStore) -> Self {
        RuleContext {
            main,
            new,
            whole: std::ptr::eq(main, new),
        }
    }

    /// `true` when the frontier is the store itself: the two semi-naive
    /// passes of an executor would read identical tables, so one pass
    /// derives everything.
    pub fn is_whole(&self) -> bool {
        self.whole
    }

    /// The subject-sorted pair view of `prop` in `store` (empty slice when
    /// the table does not exist).
    pub fn subject_view(store: &'a TripleStore, prop: u64) -> &'a [u64] {
        store.table(prop).map(|t| t.pairs()).unwrap_or(&[])
    }

    /// The object-sorted pair view (`[o, s, o, s, …]`) of `prop` in `store`
    /// (empty slice when the table does not exist): the table's ⟨o,s⟩
    /// cache, built by this call if no reader needed it before.
    pub fn object_view(store: &'a TripleStore, prop: u64) -> &'a [u64] {
        store.table(prop).map_or(&[], PropertyTable::object_pairs)
    }

    /// The subjects `x` such that `⟨x, prop, object⟩ ∈ store`, in ascending
    /// order. Used by the rules whose schema antecedent is a `rdf:type`
    /// pattern with a fixed object (PRP-SYMP, PRP-TRP, PRP-FP, PRP-IFP,
    /// SCM-CLS, …) and by the scheduler's marker lookups — one run of a
    /// table that is usually the largest of the store, so this reader does
    /// not *start* a cache build: it uses the ⟨o,s⟩ cache when some join
    /// already built it and sweeps ⟨s,o⟩ otherwise. Measured on LUBM-500k
    /// under RDFS-Plus, batch: the first update adds 258 285 pairs to
    /// `rdf:type`'s 140 045 and drops its cache (`KEEP_OS_CACHE_DIVISOR`),
    /// and no later join reads the main store's `rdf:type` by object
    /// (CAX-EQC1 reads the frontier's), so a build here would sort 398 k
    /// pairs for a few runs. A published epoch has that cache pre-built
    /// (`Ruleset::object_reads`), so a live write finds it.
    pub fn subjects_with_object(store: &TripleStore, prop: u64, object: u64) -> Vec<u64> {
        match store.table(prop) {
            None => Vec::new(),
            Some(table) => match table.object_run(object) {
                Some(run) => run.iter().map(|p| p[1]).collect(),
                None => table
                    .iter_pairs()
                    .filter(|&(_, o)| o == object)
                    .map(|(s, _)| s)
                    .collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_dictionary::wellknown;
    use inferray_model::IdTriple;

    fn stores() -> (TripleStore, TripleStore) {
        let main = TripleStore::from_triples([
            IdTriple::new(10, wellknown::RDF_TYPE, 20),
            IdTriple::new(11, wellknown::RDF_TYPE, 20),
            IdTriple::new(12, wellknown::RDF_TYPE, 21),
            IdTriple::new(20, wellknown::RDFS_SUB_CLASS_OF, 21),
        ]);
        let new = TripleStore::from_triples([IdTriple::new(20, wellknown::RDFS_SUB_CLASS_OF, 21)]);
        (main, new)
    }

    #[test]
    fn subject_view_of_missing_table_is_empty() {
        let (main, new) = stores();
        let ctx = RuleContext::new(&main, &new);
        assert!(RuleContext::subject_view(ctx.main, wellknown::RDFS_DOMAIN).is_empty());
        assert_eq!(
            RuleContext::subject_view(ctx.main, wellknown::RDFS_SUB_CLASS_OF),
            &[20, 21]
        );
    }

    #[test]
    fn object_view_builds_the_cache_it_reads() {
        let (main, _) = stores();
        let table = main.table(wellknown::RDF_TYPE).unwrap();
        assert!(!table.has_os_cache(), "nothing pre-built it");
        let view = RuleContext::object_view(&main, wellknown::RDF_TYPE);
        assert_eq!(view, &[20, 10, 20, 11, 21, 12]);
        assert_eq!(table.os_pairs(), Some(view), "the view is the cache");
        assert!(RuleContext::object_view(&main, wellknown::RDFS_DOMAIN).is_empty());
        // Only the table that was asked got one.
        assert!(!main
            .table(wellknown::RDFS_SUB_CLASS_OF)
            .unwrap()
            .has_os_cache());
    }

    #[test]
    fn whole_means_the_same_store_not_an_equal_one() {
        let (main, new) = stores();
        assert!(RuleContext::new(&main, &main).is_whole());
        assert!(!RuleContext::new(&main, &new).is_whole());
        let copy = main.clone();
        assert_eq!(main, copy);
        assert!(!RuleContext::new(&main, &copy).is_whole());
    }

    #[test]
    fn subjects_with_object_with_and_without_cache() {
        let (mut main, _) = stores();
        let without = RuleContext::subjects_with_object(&main, wellknown::RDF_TYPE, 20);
        assert!(
            !main.table(wellknown::RDF_TYPE).unwrap().has_os_cache(),
            "a fixed-object probe does not start a cache build"
        );
        main.ensure_all_os();
        let with = RuleContext::subjects_with_object(&main, wellknown::RDF_TYPE, 20);
        assert_eq!(without, vec![10, 11]);
        assert_eq!(with, without);
        assert!(RuleContext::subjects_with_object(&main, wellknown::RDFS_DOMAIN, 20).is_empty());
    }
}
