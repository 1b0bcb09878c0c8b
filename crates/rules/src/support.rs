//! One-step **support checks** — the rederivation probes of the
//! delete–rederive maintenance path (docs/maintenance.md).
//!
//! A probe answers, for one rule and one candidate triple, "can this rule
//! derive the candidate from the triples of the view?" — the backward
//! direction of the rule's executor. It starts from the candidate's
//! constants and needs only a handful of binary searches / cache probes, so
//! probing each over-deleted triple is dramatically cheaper than re-firing
//! the rules over the full store.
//!
//! Every rule, built-in or custom, is probed through its text by
//! [`crate::analysis::supports`]. Two shapes' kernels derive something
//! other than their text, and `is_supported` picks their probe by the
//! lowering: a symmetric closure — the closure of `owl:sameAs`, EQ-TRANS or
//! a custom rule of its shape — answers through a one-step probe of the
//! symmetrized table, and a self join (PRP-FP, PRP-IFP) through its text,
//! but only for a pair it links smaller first.
//!
//! Contract with the kernels (relied on by the byte-identity proof of
//! `tests/retraction_equivalence.rs`):
//!
//! * **sound** — a probe answers `true` only when the view's triples entail
//!   the candidate under the rule (every probe checks actual premises);
//! * **complete at one step** — whenever firing the rule over the store
//!   (`new == main`) would emit the candidate, the probe answers `true`.
//!   Multi-step rederivations need no deeper search: the maintenance loop
//!   keeps the supported candidates and cascades from them with the
//!   ordinary semi-naive machinery, which reaches every greater derivation
//!   height.
//!
//! For the closure rules a probe checks a single two-premise transitivity
//! step. The kernel closes whole tables at once, but any closure pair it
//! emits is reachable through a chain of such steps, each of which is found
//! as its premises get re-asserted.
//!
//! A probe reads a [`Survivors`] view: a store less the over-deleted cone,
//! which the maintenance path never removes before it has probed it. Every
//! lookup skips the pairs of the cone, so a probe through the view answers
//! exactly what it would over a store with the cone physically removed
//! (`tests/survivor_view.rs`).

use crate::analysis::{closure, self_join, CompiledRule};
use inferray_dictionary::wellknown as wk;
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

/// The probe's answer when `rule`'s kernel derives something other than its
/// text, and `None` when [`crate::analysis::supports`] probes the text as it
/// is: a symmetric closure probes the symmetrized table, and a self join
/// links two values only smaller first — it derives no other pair.
pub(crate) fn is_supported(rule: &CompiledRule, view: Survivors<'_>, t: IdTriple) -> Option<bool> {
    if closure(rule).is_some_and(|closure| closure.symmetric()) {
        return Some(symmetric_step(view, t));
    }
    (t.s >= t.o && self_join(rule).is_some()).then_some(false)
}

/// A symmetric closure: one transitivity step. The kernel closes the
/// *symmetric* `sameAs` graph, reflexive pairs included
/// (`executors/theta.rs`), so a premise counts in either orientation; the
/// text reads both premises as written.
fn symmetric_step(view: Survivors<'_>, t: IdTriple) -> bool {
    let IdTriple { s, p, o } = t;
    let linked =
        |a: u64, b: u64| has(view, a, wk::OWL_SAME_AS, b) || has(view, b, wk::OWL_SAME_AS, a);
    p == wk::OWL_SAME_AS
        && objects_of(view, wk::OWL_SAME_AS, s)
            .chain(subjects_with(view, wk::OWL_SAME_AS, s))
            .any(|mid| linked(mid, o))
}

/// Exact-triple membership (binary search).
fn has(view: Survivors<'_>, s: u64, p: u64, o: u64) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{compiled_builtin, supports};
    use crate::catalog::RuleId;
    use inferray_model::ids::nth_property_id;

    fn store(triples: &[(u64, u64, u64)]) -> TripleStore {
        let mut store =
            TripleStore::from_triples(triples.iter().map(|&(s, p, o)| IdTriple::new(s, p, o)));
        store.ensure_all_os();
        store
    }

    /// The one probe entry point, for a built-in over the whole store.
    fn probe(rule: RuleId, store: &TripleStore, (s, p, o): (u64, u64, u64)) -> bool {
        supports(
            compiled_builtin(rule),
            Survivors::all(store),
            IdTriple::new(s, p, o),
        )
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
        assert!(probe(RuleId::CaxSco, &r, (X, wk::RDF_TYPE, B)));
        assert!(!probe(RuleId::CaxSco, &r, (X, wk::RDF_TYPE, C)));
        // scm-sco: A ⊑ C via B; nothing supports B ⊑ A.
        assert!(probe(RuleId::ScmSco, &r, (A, wk::RDFS_SUB_CLASS_OF, C)));
        assert!(!probe(RuleId::ScmSco, &r, (B, wk::RDFS_SUB_CLASS_OF, A)));
        // Wrong-shape candidates are rejected outright.
        assert!(!probe(RuleId::CaxSco, &r, (A, wk::RDFS_SUB_CLASS_OF, B)));
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
        assert!(probe(RuleId::PrpDom, &r, (X, wk::RDF_TYPE, A)));
        assert!(!probe(RuleId::PrpDom, &r, (X + 1, wk::RDF_TYPE, A)));
        assert!(probe(RuleId::PrpRng, &r, (X + 1, wk::RDF_TYPE, B)));
        // prp-spo1 rederives (x knows y) only from a subproperty's pair.
        assert!(!probe(RuleId::PrpSpo1, &r, (X, knows, X + 1)));
        let r2 = store(&[
            (knows2, wk::RDFS_SUB_PROPERTY_OF, knows),
            (X, knows2, X + 1),
        ]);
        assert!(probe(RuleId::PrpSpo1, &r2, (X, knows, X + 1)));
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
        assert!(probe(RuleId::EqSym, &r, (B, wk::OWL_SAME_AS, A)));
        assert!(!probe(RuleId::EqSym, &r, (A, wk::OWL_SAME_AS, B + 1)));
        assert!(probe(RuleId::EqRepS, &r, (B, wk::RDF_TYPE, C)));
        assert!(!probe(RuleId::EqRepS, &r, (C, wk::RDF_TYPE, C)));
        // prp-fp: A and B+1 share the functional subject X; the executor
        // links them smaller first.
        assert!(probe(RuleId::PrpFp, &r, (A, wk::OWL_SAME_AS, B + 1)));
        assert!(!probe(RuleId::PrpFp, &r, (B + 1, wk::OWL_SAME_AS, A)));
        assert!(!probe(RuleId::PrpFp, &r, (A, wk::OWL_SAME_AS, B)));
    }

    /// Where the probes of a symmetric closure and a self join part from
    /// their texts: they follow the kernel, whatever the rule's name and
    /// atom order.
    #[test]
    fn shape_probes_follow_their_kernels() {
        let email = nth_property_id(953);
        let r = store(&[
            (A, wk::OWL_SAME_AS, B),
            (C, wk::OWL_SAME_AS, B),
            (email, wk::RDF_TYPE, wk::OWL_FUNCTIONAL_PROPERTY),
            (email, wk::RDF_TYPE, wk::OWL_INVERSE_FUNCTIONAL_PROPERTY),
            (X, email, A),
        ]);
        // EQ-TRANS: A – B – C through a reversed premise, and the
        // reflexive pair the symmetric closure holds.
        assert!(probe(RuleId::EqTrans, &r, (A, wk::OWL_SAME_AS, C)));
        assert!(probe(RuleId::EqTrans, &r, (A, wk::OWL_SAME_AS, A)));
        // PRP-FP / PRP-IFP: one pair links nothing to itself.
        assert!(!probe(RuleId::PrpFp, &r, (A, wk::OWL_SAME_AS, A)));
        assert!(!probe(RuleId::PrpIfp, &r, (X, wk::OWL_SAME_AS, X)));
        // Under another name, and with the atoms rotated, a self-join text
        // answers as the built-in does; a transitivity text over
        // owl:sameAs is still a symmetric closure, in either atom order,
        // and answers as EQ-TRANS does.
        let renamed = |rule| CompiledRule {
            name: format!("{rule}-text"),
            ..compiled_builtin(rule).clone()
        };
        let rotated = |rule: &CompiledRule| CompiledRule {
            body: rule.body[1..]
                .iter()
                .chain(&rule.body[..1])
                .copied()
                .collect(),
            ..rule.clone()
        };
        let text = |rule: &CompiledRule, (s, p, o)| {
            supports(rule, Survivors::all(&r), IdTriple::new(s, p, o))
        };
        let (fp, ifp) = (renamed(RuleId::PrpFp), renamed(RuleId::PrpIfp));
        for rule in [&fp, &rotated(&fp)] {
            assert!(!text(rule, (A, wk::OWL_SAME_AS, A)));
        }
        for rule in [&ifp, &rotated(&ifp)] {
            assert!(!text(rule, (X, wk::OWL_SAME_AS, X)));
        }
        let eq_trans = renamed(RuleId::EqTrans);
        for rule in [&eq_trans, &rotated(&eq_trans)] {
            assert!(text(rule, (A, wk::OWL_SAME_AS, C)));
            assert!(text(rule, (A, wk::OWL_SAME_AS, A)));
        }
        // PRP-FP links two values only smaller first, under any name and
        // in any atom order.
        let run = store(&[
            (email, wk::RDF_TYPE, wk::OWL_FUNCTIONAL_PROPERTY),
            (X, email, A),
            (X, email, C),
        ]);
        let (a_c, c_a) = (
            IdTriple::new(A, wk::OWL_SAME_AS, C),
            IdTriple::new(C, wk::OWL_SAME_AS, A),
        );
        for rule in [compiled_builtin(RuleId::PrpFp), &fp, &rotated(&fp)] {
            assert!(supports(rule, Survivors::all(&run), a_c));
            assert!(!supports(rule, Survivors::all(&run), c_a));
        }
    }

    #[test]
    fn trivial_probes_check_shape_and_declaration() {
        let r = store(&[(A, wk::RDF_TYPE, wk::RDFS_CLASS), (A, wk::RDFS_LABEL, B)]);
        assert!(probe(RuleId::Rdfs10, &r, (A, wk::RDFS_SUB_CLASS_OF, A)));
        assert!(!probe(RuleId::Rdfs10, &r, (B, wk::RDFS_SUB_CLASS_OF, B)));
        assert!(probe(
            RuleId::Rdfs8,
            &r,
            (A, wk::RDFS_SUB_CLASS_OF, wk::RDFS_RESOURCE)
        ));
        assert!(probe(
            RuleId::Rdfs4,
            &r,
            (B, wk::RDF_TYPE, wk::RDFS_RESOURCE)
        ));
        assert!(!probe(
            RuleId::Rdfs4,
            &r,
            (C, wk::RDF_TYPE, wk::RDFS_RESOURCE)
        ));
        assert!(!probe(RuleId::Rdfs4, &r, (B, wk::RDF_TYPE, B)));
    }
}
