//! One-step **support checks** — the rederivation probes of the
//! delete–rederive maintenance path (docs/maintenance.md).
//!
//! [`is_supported`] answers, for one rule and one candidate triple, "can
//! this rule derive the candidate from the triples currently in the
//! store?" — the backward direction of the executors in
//! [`crate::executors`]. Where an executor scans whole tables to emit every
//! consequence, a support check starts from the candidate's constants and
//! needs only a handful of binary searches / cache probes, so probing each
//! over-deleted triple is dramatically cheaper than re-firing the rules
//! over the full store.
//!
//! Contract with the executors (relied on by the byte-identity proof of
//! `tests/retraction_equivalence.rs`):
//!
//! * **sound** — `is_supported(rule, view, t)` implies `t` is entailed by
//!   the view's triples under `rule` (every probe checks actual premises);
//! * **complete at one step** — whenever firing `rule` over the store
//!   (`new == main`) would emit `t`, some support probe returns `true`.
//!   Multi-step rederivations need no deeper search: the maintenance loop
//!   keeps the supported candidates and cascades from them with the
//!   ordinary semi-naive machinery, which reaches every greater derivation
//!   height.
//!
//! For the θ (closure) rules the probe checks a single two-premise
//! transitivity step. The executors close whole tables at once, but any
//! closure pair they emit is reachable through a chain of such steps, each
//! of which is found as its premises get re-asserted.
//!
//! A probe reads a [`Survivors`] view: a store less the over-deleted cone,
//! which the maintenance path never removes before it has probed it. Every
//! primitive below skips the pairs of the cone, so a probe through the view
//! answers exactly what it would over a store with the cone physically
//! removed (`tests/survivor_view.rs`).

use crate::catalog::RuleId;
use inferray_dictionary::wellknown as wk;
use inferray_model::ids::is_property_id;
use inferray_model::IdTriple;
use inferray_store::TripleStore;

/// A store seen without some of its triples — `store ∖ gone`, never built.
///
/// The delete–rederive path collects the over-deleted cone in a `gone`
/// store and probes it for support through this view *before* anything
/// leaves the store, so a table whose cone is fully rederived is never
/// written. Probing the live store instead would be unsound: a cone that
/// supports itself (an `owl:equivalentClass` pair, a `sameAs` link and its
/// mirror) would keep triples the surviving base no longer entails.
#[derive(Debug, Clone, Copy)]
pub struct Survivors<'a> {
    store: &'a TripleStore,
    gone: Option<&'a TripleStore>,
}

impl<'a> Survivors<'a> {
    /// Every triple of `store`.
    pub fn all(store: &'a TripleStore) -> Self {
        Survivors { store, gone: None }
    }

    /// The triples of `store` that are not in `gone` (a finalized store).
    pub fn without(store: &'a TripleStore, gone: &'a TripleStore) -> Self {
        Survivors {
            store,
            gone: Some(gone),
        }
    }

    /// The whole store, the cone included.
    pub fn store(&self) -> &'a TripleStore {
        self.store
    }

    /// `true` when `⟨s, p, o⟩` is in the cone the view leaves out.
    pub fn is_gone(&self, s: u64, p: u64, o: u64) -> bool {
        self.gone
            .and_then(|gone| gone.table(p))
            .is_some_and(|table| table.contains_pair(s, o))
    }
}

/// `true` when `rule` can derive `t` in one step from the triples of
/// `view`. Object-side probes go through the ⟨o,s⟩ cache of the table they
/// read, which the first of them builds: a rederivation pass probes one
/// store many times, so each cache it needs is sorted once and none it
/// does not need is sorted at all.
pub fn is_supported(rule: RuleId, view: Survivors<'_>, t: IdTriple) -> bool {
    let IdTriple { s, p, o } = t;
    match rule {
        // -- α: class/schema joins ----------------------------------------
        RuleId::CaxEqc1 => {
            p == wk::RDF_TYPE
                && subjects_with(view, wk::OWL_EQUIVALENT_CLASS, o)
                    .iter()
                    .any(|&c1| has(view, s, wk::RDF_TYPE, c1))
        }
        RuleId::CaxEqc2 => {
            p == wk::RDF_TYPE
                && objects_of(view, wk::OWL_EQUIVALENT_CLASS, o)
                    .any(|c2| has(view, s, wk::RDF_TYPE, c2))
        }
        RuleId::CaxSco => {
            p == wk::RDF_TYPE
                && subjects_with(view, wk::RDFS_SUB_CLASS_OF, o)
                    .iter()
                    .any(|&c1| has(view, s, wk::RDF_TYPE, c1))
        }
        RuleId::ScmDom1 => {
            p == wk::RDFS_DOMAIN
                && objects_of(view, wk::RDFS_DOMAIN, s)
                    .any(|c1| has(view, c1, wk::RDFS_SUB_CLASS_OF, o))
        }
        RuleId::ScmDom2 => {
            p == wk::RDFS_DOMAIN
                && objects_of(view, wk::RDFS_SUB_PROPERTY_OF, s)
                    .any(|p2| has(view, p2, wk::RDFS_DOMAIN, o))
        }
        RuleId::ScmRng1 => {
            p == wk::RDFS_RANGE
                && objects_of(view, wk::RDFS_RANGE, s)
                    .any(|c1| has(view, c1, wk::RDFS_SUB_CLASS_OF, o))
        }
        RuleId::ScmRng2 => {
            p == wk::RDFS_RANGE
                && objects_of(view, wk::RDFS_SUB_PROPERTY_OF, s)
                    .any(|p2| has(view, p2, wk::RDFS_RANGE, o))
        }
        // -- β: mutual subsumption ----------------------------------------
        RuleId::ScmEqc2 => {
            p == wk::OWL_EQUIVALENT_CLASS
                && has(view, s, wk::RDFS_SUB_CLASS_OF, o)
                && has(view, o, wk::RDFS_SUB_CLASS_OF, s)
        }
        RuleId::ScmEqp2 => {
            p == wk::OWL_EQUIVALENT_PROPERTY
                && has(view, s, wk::RDFS_SUB_PROPERTY_OF, o)
                && has(view, o, wk::RDFS_SUB_PROPERTY_OF, s)
        }
        // -- γ / δ: property-variable rules -------------------------------
        RuleId::PrpDom => {
            p == wk::RDF_TYPE
                && subjects_with(view, wk::RDFS_DOMAIN, o)
                    .iter()
                    .any(|&dp| is_property_id(dp) && subject_occurs(view, dp, s))
        }
        RuleId::PrpRng => {
            p == wk::RDF_TYPE
                && subjects_with(view, wk::RDFS_RANGE, o)
                    .iter()
                    .any(|&rp| is_property_id(rp) && object_occurs(view, rp, s))
        }
        RuleId::PrpSpo1 => {
            is_property_id(p)
                && subjects_with(view, wk::RDFS_SUB_PROPERTY_OF, p)
                    .iter()
                    .any(|&p1| p1 != p && is_property_id(p1) && has(view, s, p1, o))
        }
        RuleId::PrpEqp1 => {
            is_property_id(p)
                && subjects_with(view, wk::OWL_EQUIVALENT_PROPERTY, p)
                    .iter()
                    .any(|&p1| is_property_id(p1) && has(view, s, p1, o))
        }
        RuleId::PrpEqp2 => {
            is_property_id(p)
                && objects_of(view, wk::OWL_EQUIVALENT_PROPERTY, p)
                    .any(|p2| is_property_id(p2) && has(view, s, p2, o))
        }
        RuleId::PrpInv1 => {
            is_property_id(p)
                && subjects_with(view, wk::OWL_INVERSE_OF, p)
                    .iter()
                    .any(|&p1| is_property_id(p1) && has(view, o, p1, s))
        }
        RuleId::PrpInv2 => {
            is_property_id(p)
                && objects_of(view, wk::OWL_INVERSE_OF, p)
                    .any(|p2| is_property_id(p2) && has(view, o, p2, s))
        }
        RuleId::PrpSymp => declared(view, p, wk::OWL_SYMMETRIC_PROPERTY) && has(view, o, p, s),
        // -- functional properties ----------------------------------------
        RuleId::PrpFp => {
            p == wk::OWL_SAME_AS
                && s != o
                && marked_properties(view, wk::OWL_FUNCTIONAL_PROPERTY)
                    .iter()
                    .any(|&fp| {
                        is_property_id(fp)
                            && subjects_with(view, fp, s)
                                .iter()
                                .any(|&x| has(view, x, fp, o))
                    })
        }
        RuleId::PrpIfp => {
            p == wk::OWL_SAME_AS
                && s != o
                && marked_properties(view, wk::OWL_INVERSE_FUNCTIONAL_PROPERTY)
                    .iter()
                    .any(|&fp| {
                        is_property_id(fp) && objects_of(view, fp, s).any(|y| has(view, o, fp, y))
                    })
        }
        // -- sameAs replacement -------------------------------------------
        RuleId::EqRepS => subjects_with(view, wk::OWL_SAME_AS, s)
            .iter()
            .any(|&s1| s1 != s && has(view, s1, p, o)),
        RuleId::EqRepO => subjects_with(view, wk::OWL_SAME_AS, o)
            .iter()
            .any(|&o1| o1 != o && has(view, s, p, o1)),
        RuleId::EqRepP => {
            is_property_id(p)
                && subjects_with(view, wk::OWL_SAME_AS, p)
                    .iter()
                    .any(|&p1| p1 != p && is_property_id(p1) && has(view, s, p1, o))
        }
        // -- θ: one transitivity step -------------------------------------
        RuleId::ScmSco => {
            p == wk::RDFS_SUB_CLASS_OF
                && objects_of(view, wk::RDFS_SUB_CLASS_OF, s)
                    .any(|mid| has(view, mid, wk::RDFS_SUB_CLASS_OF, o))
        }
        RuleId::ScmSpo => {
            p == wk::RDFS_SUB_PROPERTY_OF
                && objects_of(view, wk::RDFS_SUB_PROPERTY_OF, s)
                    .any(|mid| has(view, mid, wk::RDFS_SUB_PROPERTY_OF, o))
        }
        RuleId::EqTrans => {
            // The executor closes the *symmetric* sameAs graph (including
            // reflexive pairs), so premises count in either orientation.
            p == wk::OWL_SAME_AS && {
                let linked = |a: u64, b: u64| {
                    has(view, a, wk::OWL_SAME_AS, b) || has(view, b, wk::OWL_SAME_AS, a)
                };
                objects_of(view, wk::OWL_SAME_AS, s)
                    .chain(subjects_with(view, wk::OWL_SAME_AS, s))
                    .any(|mid| linked(mid, o))
            }
        }
        RuleId::PrpTrp => {
            is_property_id(p)
                && declared(view, p, wk::OWL_TRANSITIVE_PROPERTY)
                && objects_of(view, p, s).any(|mid| has(view, mid, p, o))
        }
        // -- trivial single-antecedent rules ------------------------------
        RuleId::EqSym => p == wk::OWL_SAME_AS && s != o && has(view, o, wk::OWL_SAME_AS, s),
        RuleId::ScmEqc1 => {
            p == wk::RDFS_SUB_CLASS_OF
                && (has(view, s, wk::OWL_EQUIVALENT_CLASS, o)
                    || has(view, o, wk::OWL_EQUIVALENT_CLASS, s))
        }
        RuleId::ScmEqp1 => {
            p == wk::RDFS_SUB_PROPERTY_OF
                && (has(view, s, wk::OWL_EQUIVALENT_PROPERTY, o)
                    || has(view, o, wk::OWL_EQUIVALENT_PROPERTY, s))
        }
        RuleId::ScmCls => match p {
            wk::RDFS_SUB_CLASS_OF => {
                (s == o || o == wk::OWL_THING) && declared(view, s, wk::OWL_CLASS)
                    || (s == wk::OWL_NOTHING && declared(view, o, wk::OWL_CLASS))
            }
            wk::OWL_EQUIVALENT_CLASS => s == o && declared(view, s, wk::OWL_CLASS),
            _ => false,
        },
        RuleId::ScmDp => {
            (p == wk::RDFS_SUB_PROPERTY_OF || p == wk::OWL_EQUIVALENT_PROPERTY)
                && s == o
                && declared(view, s, wk::OWL_DATATYPE_PROPERTY)
        }
        RuleId::ScmOp => {
            (p == wk::RDFS_SUB_PROPERTY_OF || p == wk::OWL_EQUIVALENT_PROPERTY)
                && s == o
                && declared(view, s, wk::OWL_OBJECT_PROPERTY)
        }
        RuleId::Rdfs4 => p == wk::RDF_TYPE && o == wk::RDFS_RESOURCE && occurs_anywhere(view, s),
        RuleId::Rdfs6 => {
            p == wk::RDFS_SUB_PROPERTY_OF && s == o && declared(view, s, wk::RDF_PROPERTY)
        }
        RuleId::Rdfs8 => {
            p == wk::RDFS_SUB_CLASS_OF
                && o == wk::RDFS_RESOURCE
                && declared(view, s, wk::RDFS_CLASS)
        }
        RuleId::Rdfs10 => p == wk::RDFS_SUB_CLASS_OF && s == o && declared(view, s, wk::RDFS_CLASS),
        RuleId::Rdfs12 => {
            p == wk::RDFS_SUB_PROPERTY_OF
                && o == wk::RDFS_MEMBER
                && declared(view, s, wk::RDFS_CONTAINER_MEMBERSHIP_PROPERTY)
        }
        RuleId::Rdfs13 => {
            p == wk::RDFS_SUB_CLASS_OF
                && o == wk::RDFS_LITERAL
                && declared(view, s, wk::RDFS_DATATYPE)
        }
    }
}

// ---------------------------------------------------------------------------
// Probe primitives
// ---------------------------------------------------------------------------

/// Exact-triple membership (binary search).
fn has(view: Survivors<'_>, s: u64, p: u64, o: u64) -> bool {
    debug_assert!(is_property_id(p));
    view.store
        .table(p)
        .is_some_and(|table| table.contains_pair(s, o))
        && !view.is_gone(s, p, o)
}

/// The subjects of `⟨?, p, object⟩` (one run of the ⟨o,s⟩ cache).
fn subjects_with(view: Survivors<'_>, p: u64, object: u64) -> Vec<u64> {
    view.store
        .table(p)
        .map(|table| {
            table
                .subjects_of(object)
                .filter(|&s| !view.is_gone(s, p, object))
                .collect()
        })
        .unwrap_or_default()
}

/// The objects of `⟨subject, p, ?⟩` (contiguous run of the ⟨s,o⟩ array).
fn objects_of(view: Survivors<'_>, p: u64, subject: u64) -> impl Iterator<Item = u64> + '_ {
    view.store
        .table(p)
        .into_iter()
        .flat_map(move |table| table.objects_of(subject))
        .filter(move |&o| !view.is_gone(subject, p, o))
}

/// `⟨s, rdf:type, marker⟩` survives.
fn declared(view: Survivors<'_>, s: u64, marker: u64) -> bool {
    has(view, s, wk::RDF_TYPE, marker)
}

/// Every subject declared `⟨p, rdf:type, marker⟩`.
fn marked_properties(view: Survivors<'_>, marker: u64) -> Vec<u64> {
    subjects_with(view, wk::RDF_TYPE, marker)
}

/// `true` when `p` has any pair with subject `s`.
fn subject_occurs(view: Survivors<'_>, p: u64, s: u64) -> bool {
    objects_of(view, p, s).next().is_some()
}

/// `true` when `p` has any pair with object `o`.
fn object_occurs(view: Survivors<'_>, p: u64, o: u64) -> bool {
    view.store
        .table(p)
        .is_some_and(|table| table.subjects_of(o).any(|s| !view.is_gone(s, p, o)))
}

/// `true` when `term` occurs as a subject or object of any table (RDFS4).
fn occurs_anywhere(view: Survivors<'_>, term: u64) -> bool {
    view.store
        .property_ids()
        .any(|p| subject_occurs(view, p, term) || object_occurs(view, p, term))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::ids::nth_property_id;

    fn store(triples: &[(u64, u64, u64)]) -> TripleStore {
        let mut store =
            TripleStore::from_triples(triples.iter().map(|&(s, p, o)| IdTriple::new(s, p, o)));
        store.ensure_all_os();
        store
    }

    fn t(s: u64, p: u64, o: u64) -> IdTriple {
        IdTriple::new(s, p, o)
    }

    const A: u64 = 8_100_000;
    const B: u64 = 8_100_001;
    const C: u64 = 8_100_002;
    const X: u64 = 8_100_010;

    #[test]
    fn alpha_and_theta_probes() {
        let r = store(&[
            (A, wk::RDFS_SUB_CLASS_OF, B),
            (B, wk::RDFS_SUB_CLASS_OF, C),
            (X, wk::RDF_TYPE, A),
        ]);
        // cax-sco: X a B needs (A ⊑ B) + (X a A) — supported; X a C needs
        // (X a B) which is absent — one step only.
        assert!(is_supported(
            RuleId::CaxSco,
            Survivors::all(&r),
            t(X, wk::RDF_TYPE, B)
        ));
        assert!(!is_supported(
            RuleId::CaxSco,
            Survivors::all(&r),
            t(X, wk::RDF_TYPE, C)
        ));
        // scm-sco: A ⊑ C via B; nothing supports B ⊑ A.
        assert!(is_supported(
            RuleId::ScmSco,
            Survivors::all(&r),
            t(A, wk::RDFS_SUB_CLASS_OF, C)
        ));
        assert!(!is_supported(
            RuleId::ScmSco,
            Survivors::all(&r),
            t(B, wk::RDFS_SUB_CLASS_OF, A)
        ));
        // Wrong-shape candidates are rejected outright.
        assert!(!is_supported(
            RuleId::CaxSco,
            Survivors::all(&r),
            t(A, wk::RDFS_SUB_CLASS_OF, B)
        ));
    }

    #[test]
    fn gamma_probes_follow_schema_pairs() {
        let knows = nth_property_id(950);
        let knows2 = nth_property_id(951);
        let r = store(&[
            (knows, wk::RDFS_DOMAIN, A),
            (knows, wk::RDFS_RANGE, B),
            (knows2, wk::RDFS_SUB_PROPERTY_OF, knows),
            (X, knows, X + 1),
        ]);
        assert!(is_supported(
            RuleId::PrpDom,
            Survivors::all(&r),
            t(X, wk::RDF_TYPE, A)
        ));
        assert!(!is_supported(
            RuleId::PrpDom,
            Survivors::all(&r),
            t(X + 1, wk::RDF_TYPE, A)
        ));
        assert!(is_supported(
            RuleId::PrpRng,
            Survivors::all(&r),
            t(X + 1, wk::RDF_TYPE, B)
        ));
        // prp-spo1 rederives (x knows y) only from a subproperty's pair.
        assert!(!is_supported(
            RuleId::PrpSpo1,
            Survivors::all(&r),
            t(X, knows, X + 1)
        ));
        let r2 = store(&[
            (knows2, wk::RDFS_SUB_PROPERTY_OF, knows),
            (X, knows2, X + 1),
        ]);
        assert!(is_supported(
            RuleId::PrpSpo1,
            Survivors::all(&r2),
            t(X, knows, X + 1)
        ));
    }

    #[test]
    fn same_as_and_functional_probes() {
        let email = nth_property_id(952);
        let r = store(&[
            (A, wk::OWL_SAME_AS, B),
            (A, wk::RDF_TYPE, C),
            (email, wk::RDF_TYPE, wk::OWL_FUNCTIONAL_PROPERTY),
            (X, email, A),
            (X, email, B + 1),
        ]);
        assert!(is_supported(
            RuleId::EqSym,
            Survivors::all(&r),
            t(B, wk::OWL_SAME_AS, A)
        ));
        assert!(!is_supported(
            RuleId::EqSym,
            Survivors::all(&r),
            t(A, wk::OWL_SAME_AS, B + 1)
        ));
        assert!(is_supported(
            RuleId::EqRepS,
            Survivors::all(&r),
            t(B, wk::RDF_TYPE, C)
        ));
        assert!(!is_supported(
            RuleId::EqRepS,
            Survivors::all(&r),
            t(C, wk::RDF_TYPE, C)
        ));
        // prp-fp: A and B+1 share the functional subject X.
        assert!(is_supported(
            RuleId::PrpFp,
            Survivors::all(&r),
            t(A, wk::OWL_SAME_AS, B + 1)
        ));
        assert!(is_supported(
            RuleId::PrpFp,
            Survivors::all(&r),
            t(B + 1, wk::OWL_SAME_AS, A)
        ));
        assert!(!is_supported(
            RuleId::PrpFp,
            Survivors::all(&r),
            t(A, wk::OWL_SAME_AS, B)
        ));
    }

    #[test]
    fn trivial_probes_check_shape_and_declaration() {
        let r = store(&[(A, wk::RDF_TYPE, wk::RDFS_CLASS), (A, wk::RDFS_LABEL, B)]);
        assert!(is_supported(
            RuleId::Rdfs10,
            Survivors::all(&r),
            t(A, wk::RDFS_SUB_CLASS_OF, A)
        ));
        assert!(!is_supported(
            RuleId::Rdfs10,
            Survivors::all(&r),
            t(B, wk::RDFS_SUB_CLASS_OF, B)
        ));
        assert!(is_supported(
            RuleId::Rdfs8,
            Survivors::all(&r),
            t(A, wk::RDFS_SUB_CLASS_OF, wk::RDFS_RESOURCE)
        ));
        assert!(is_supported(
            RuleId::Rdfs4,
            Survivors::all(&r),
            t(B, wk::RDF_TYPE, wk::RDFS_RESOURCE)
        ));
        assert!(!is_supported(
            RuleId::Rdfs4,
            Survivors::all(&r),
            t(C, wk::RDF_TYPE, wk::RDFS_RESOURCE)
        ));
        assert!(!is_supported(
            RuleId::Rdfs4,
            Survivors::all(&r),
            t(B, wk::RDF_TYPE, B)
        ));
    }
}
