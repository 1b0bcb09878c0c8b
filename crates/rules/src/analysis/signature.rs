//! Derived scheduling signatures: the owned mirror of the catalog's
//! [`RuleInputs`]/[`RuleOutputs`] vocabulary, plus the derivation that maps a
//! compiled rule's body/head shape onto it.
//!
//! The catalog rows use `&'static [u64]` property lists; analyzer-loaded
//! rules need owned lists, so [`DerivedInputs`]/[`DerivedOutputs`] duplicate
//! the enum shape with `Vec<u64>` and carry the *single* implementation of
//! the scheduling/rederivation predicates — the catalog path converts via
//! [`From`] and delegates, which is also what makes the byte-identity test
//! between handwritten and derived signatures meaningful.

use super::compile::{Atom, Term};
use crate::catalog::{RuleInputs, RuleOutputs, SchemaSide};
use crate::context::RuleContext;
use inferray_dictionary::wellknown as wk;
use inferray_store::TripleStore;
use std::collections::BTreeSet;

/// The input (scheduling) signature of a rule, §4.3: which property tables
/// the rule reads, possibly indirectly through a schema or marker table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerivedInputs {
    /// Reads exactly these property tables.
    Properties(Vec<u64>),
    /// Reads the tables named on `side` of the `schema` table's pairs
    /// (γ/δ rules), plus the schema table itself.
    PropertyVariable {
        /// The schema property whose pairs name the data tables.
        schema: u64,
        /// Which side of the schema pair names them.
        side: SchemaSide,
    },
    /// Reads the tables of every property declared `rdf:type marker`, plus
    /// the declarations themselves.
    MarkedProperties {
        /// The marker class.
        marker: u64,
    },
    /// May read any table, but only while the `guard` table is non-empty
    /// (the sameAs replacement scans).
    AnyGuardedBy {
        /// The property whose table gates the rule.
        guard: u64,
    },
    /// May read any table unconditionally (whole-store scan).
    AnyProperty,
}

/// The output signature of a rule: which property tables its head can write
/// — the rederivation seed of the delete–rederive maintenance path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerivedOutputs {
    /// Writes exactly these property tables.
    Properties(Vec<u64>),
    /// Writes tables named on `side` of the `schema` table's pairs.
    PropertyVariable {
        /// The schema property whose pairs name the written tables.
        schema: u64,
        /// Which side of the schema pair names them.
        side: SchemaSide,
    },
    /// Writes tables of properties declared `rdf:type marker`.
    MarkedProperties {
        /// The marker class.
        marker: u64,
    },
    /// May write any table.
    AnyProperty,
}

impl From<RuleInputs> for DerivedInputs {
    fn from(inputs: RuleInputs) -> Self {
        match inputs {
            RuleInputs::Properties(props) => DerivedInputs::Properties(props.to_vec()),
            RuleInputs::PropertyVariable { schema, side } => {
                DerivedInputs::PropertyVariable { schema, side }
            }
            RuleInputs::MarkedProperties { marker } => DerivedInputs::MarkedProperties { marker },
            RuleInputs::AnyGuardedBy { guard } => DerivedInputs::AnyGuardedBy { guard },
            RuleInputs::AnyProperty => DerivedInputs::AnyProperty,
        }
    }
}

impl From<RuleOutputs> for DerivedOutputs {
    fn from(outputs: RuleOutputs) -> Self {
        match outputs {
            RuleOutputs::Properties(props) => DerivedOutputs::Properties(props.to_vec()),
            RuleOutputs::PropertyVariable { schema, side } => {
                DerivedOutputs::PropertyVariable { schema, side }
            }
            RuleOutputs::MarkedProperties { marker } => DerivedOutputs::MarkedProperties { marker },
            RuleOutputs::AnyProperty => DerivedOutputs::AnyProperty,
        }
    }
}

impl DerivedInputs {
    /// `true` when the rule may derive something not already in `main`,
    /// given that exactly the tables of `changed` received new pairs —
    /// the §4.3 scheduling decision for one rule.
    pub fn changed(&self, main: &TripleStore, new: &TripleStore, changed: &BTreeSet<u64>) -> bool {
        match self {
            DerivedInputs::Properties(props) => props.iter().any(|p| changed.contains(p)),
            DerivedInputs::AnyProperty => true,
            DerivedInputs::AnyGuardedBy { guard } => {
                changed.contains(guard) || main.table(*guard).is_some_and(|t| !t.is_empty())
            }
            DerivedInputs::PropertyVariable { schema, side } => {
                if changed.contains(schema) {
                    return true;
                }
                let Some(table) = main.table(*schema) else {
                    return false;
                };
                match side {
                    SchemaSide::Subject => table.iter_pairs().any(|(s, _)| changed.contains(&s)),
                    SchemaSide::Object => table.iter_pairs().any(|(_, o)| changed.contains(&o)),
                }
            }
            DerivedInputs::MarkedProperties { marker } => {
                // A property newly declared with the marker feeds the rule
                // even when its data table is old …
                if !RuleContext::subjects_with_object(new, wk::RDF_TYPE, *marker).is_empty() {
                    return true;
                }
                // … and so do new pairs in the table of any declared property.
                RuleContext::subjects_with_object(main, wk::RDF_TYPE, *marker)
                    .iter()
                    .any(|p| changed.contains(p))
            }
        }
    }

    /// The tables of `changed` the rule may read: which of its inputs the
    /// frontier touched. The elision check asks who fed each of them.
    pub(crate) fn changed_tables(
        &self,
        main: &TripleStore,
        changed: &BTreeSet<u64>,
    ) -> BTreeSet<u64> {
        let mut tables = BTreeSet::new();
        let mut read = |p: u64| {
            if changed.contains(&p) {
                tables.insert(p);
            }
        };
        match self {
            DerivedInputs::Properties(props) => props.iter().for_each(|&p| read(p)),
            DerivedInputs::PropertyVariable { schema, side } => {
                read(*schema);
                for (s, o) in main.table(*schema).into_iter().flat_map(|t| t.iter_pairs()) {
                    read(match side {
                        SchemaSide::Subject => s,
                        SchemaSide::Object => o,
                    });
                }
            }
            DerivedInputs::MarkedProperties { marker } => {
                read(wk::RDF_TYPE);
                RuleContext::subjects_with_object(main, wk::RDF_TYPE, *marker)
                    .into_iter()
                    .for_each(read);
            }
            DerivedInputs::AnyGuardedBy { .. } | DerivedInputs::AnyProperty => {
                changed.iter().for_each(|&p| read(p))
            }
        }
        tables
    }

    /// `true` for the whole-store variants — the imprecise fallbacks the
    /// `RA009` note reports.
    pub fn is_whole_store(&self) -> bool {
        matches!(
            self,
            DerivedInputs::AnyGuardedBy { .. } | DerivedInputs::AnyProperty
        )
    }
}

impl DerivedOutputs {
    /// `true` when the rule's head can land a triple in one of the
    /// `deleted` tables, given the current store — the rederivation seed
    /// decision of the delete–rederive path.
    pub fn may_write(&self, main: &TripleStore, deleted: &BTreeSet<u64>) -> bool {
        match self {
            DerivedOutputs::Properties(props) => props.iter().any(|p| deleted.contains(p)),
            DerivedOutputs::PropertyVariable { schema, side } => {
                main.table(*schema).is_some_and(|table| {
                    table.iter_pairs().any(|(s, o)| {
                        let named = match side {
                            SchemaSide::Subject => s,
                            SchemaSide::Object => o,
                        };
                        deleted.contains(&named)
                    })
                })
            }
            DerivedOutputs::MarkedProperties { marker } => {
                RuleContext::subjects_with_object(main, wk::RDF_TYPE, *marker)
                    .iter()
                    .any(|p| deleted.contains(p))
            }
            DerivedOutputs::AnyProperty => true,
        }
    }
}

fn side_name(side: SchemaSide) -> &'static str {
    match side {
        SchemaSide::Subject => "subject",
        SchemaSide::Object => "object",
    }
}

impl std::fmt::Display for DerivedInputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DerivedInputs::Properties(props) => write!(f, "properties {props:?}"),
            DerivedInputs::PropertyVariable { schema, side } => {
                write!(
                    f,
                    "tables named by the {} of schema {schema}",
                    side_name(*side)
                )
            }
            DerivedInputs::MarkedProperties { marker } => {
                write!(f, "tables of properties declared rdf:type {marker}")
            }
            DerivedInputs::AnyGuardedBy { guard } => {
                write!(f, "any table while guard {guard} is non-empty")
            }
            DerivedInputs::AnyProperty => write!(f, "any table (whole-store scan)"),
        }
    }
}

impl std::fmt::Display for DerivedOutputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DerivedOutputs::Properties(props) => write!(f, "properties {props:?}"),
            DerivedOutputs::PropertyVariable { schema, side } => {
                write!(
                    f,
                    "tables named by the {} of schema {schema}",
                    side_name(*side)
                )
            }
            DerivedOutputs::MarkedProperties { marker } => {
                write!(f, "tables of properties declared rdf:type {marker}")
            }
            DerivedOutputs::AnyProperty => write!(f, "any table"),
        }
    }
}

/// Derives the input signature from a lowered body.
///
/// * Every predicate constant ⇒ [`DerivedInputs::Properties`] (body order,
///   first occurrence wins).
/// * Exactly one predicate variable whose binder is the *only*
///   constant-predicate atom ⇒ the precise dynamic shapes: a
///   `?p rdf:type Marker` binder is [`DerivedInputs::MarkedProperties`], a
///   schema atom with `?p` on one side is [`DerivedInputs::PropertyVariable`].
/// * Anything else falls back to the whole-store shapes, gated on the first
///   constant-predicate table when one exists: that atom must match for the
///   body to match, so an empty guard table proves the rule cannot fire —
///   conservative but sound for arbitrary extra atoms.
pub(super) fn derive_inputs(body: &[Atom]) -> DerivedInputs {
    let const_preds: Vec<u64> = body.iter().filter_map(|a| a.p.as_const()).collect();
    let var_preds: BTreeSet<u32> = body.iter().filter_map(|a| a.p.as_var()).collect();
    if var_preds.is_empty() {
        let mut props = Vec::new();
        for p in const_preds {
            if !props.contains(&p) {
                props.push(p);
            }
        }
        return DerivedInputs::Properties(props);
    }
    if var_preds.len() == 1 {
        let pv = Term::Var(*var_preds.iter().next().expect("non-empty"));
        let const_atoms: Vec<&Atom> = body.iter().filter(|a| a.p.as_const().is_some()).collect();
        if let [schema] = const_atoms.as_slice() {
            let sp = schema.p.as_const().expect("constant predicate");
            if sp == wk::RDF_TYPE && schema.s == pv {
                if let Some(marker) = schema.o.as_const() {
                    return DerivedInputs::MarkedProperties { marker };
                }
            }
            let on_s = schema.s == pv;
            let on_o = schema.o == pv;
            if on_s != on_o {
                let side = if on_s {
                    SchemaSide::Subject
                } else {
                    SchemaSide::Object
                };
                return DerivedInputs::PropertyVariable { schema: sp, side };
            }
        }
    }
    match const_preds.first() {
        Some(&guard) => DerivedInputs::AnyGuardedBy { guard },
        None => DerivedInputs::AnyProperty,
    }
}

/// Derives the output signature from a lowered head given its body.
///
/// Constant head predicates collect into [`DerivedOutputs::Properties`]; a
/// variable head predicate is classified by how the body binds it (marker
/// declaration ⇒ `MarkedProperties`, one side of a constant-predicate schema
/// atom ⇒ `PropertyVariable`); anything unclassifiable — or a mix of
/// incompatible classes — widens to [`DerivedOutputs::AnyProperty`].
pub(super) fn derive_outputs(head: &[Atom], body: &[Atom]) -> DerivedOutputs {
    let mut props: Vec<u64> = Vec::new();
    let mut dynamic: Option<DerivedOutputs> = None;
    let mut widen = false;
    for atom in head {
        match atom.p {
            Term::Const(p) => {
                if !props.contains(&p) {
                    props.push(p);
                }
            }
            Term::Var(v) => match (&dynamic, classify_head_pred(v, body)) {
                (_, None) => widen = true,
                (None, Some(class)) => dynamic = Some(class),
                (Some(prev), Some(class)) if *prev == class => {}
                _ => widen = true,
            },
        }
    }
    if widen {
        return DerivedOutputs::AnyProperty;
    }
    match (props.is_empty(), dynamic) {
        (false, None) => DerivedOutputs::Properties(props),
        (true, Some(class)) => class,
        // Mixed constant + dynamic heads write both kinds of table; the
        // signature vocabulary has no union, so widen.
        (false, Some(_)) => DerivedOutputs::AnyProperty,
        // An empty head cannot parse, but stay total.
        (true, None) => DerivedOutputs::AnyProperty,
    }
}

fn classify_head_pred(v: u32, body: &[Atom]) -> Option<DerivedOutputs> {
    let var = Term::Var(v);
    for atom in body {
        if atom.p == Term::Const(wk::RDF_TYPE) && atom.s == var {
            if let Some(marker) = atom.o.as_const() {
                return Some(DerivedOutputs::MarkedProperties { marker });
            }
        }
    }
    for atom in body {
        let Some(schema) = atom.p.as_const() else {
            continue;
        };
        let on_s = atom.s == var;
        let on_o = atom.o == var;
        if on_s != on_o {
            let side = if on_s {
                SchemaSide::Subject
            } else {
                SchemaSide::Object
            };
            return Some(DerivedOutputs::PropertyVariable { schema, side });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: u64 = wk::RDF_TYPE;

    fn atom(s: Term, p: Term, o: Term) -> Atom {
        Atom { s, p, o }
    }

    #[test]
    fn constant_bodies_collect_properties_in_order() {
        let body = [
            atom(
                Term::Var(0),
                Term::Const(wk::RDFS_SUB_CLASS_OF),
                Term::Var(1),
            ),
            atom(Term::Var(2), Term::Const(P), Term::Var(0)),
            atom(Term::Var(2), Term::Const(P), Term::Var(1)),
        ];
        assert_eq!(
            derive_inputs(&body),
            DerivedInputs::Properties(vec![wk::RDFS_SUB_CLASS_OF, P])
        );
    }

    #[test]
    fn marker_binder_is_marked_properties() {
        let body = [
            atom(
                Term::Var(0),
                Term::Const(P),
                Term::Const(wk::OWL_TRANSITIVE_PROPERTY),
            ),
            atom(Term::Var(1), Term::Var(0), Term::Var(2)),
        ];
        assert_eq!(
            derive_inputs(&body),
            DerivedInputs::MarkedProperties {
                marker: wk::OWL_TRANSITIVE_PROPERTY
            }
        );
    }

    #[test]
    fn schema_binder_is_property_variable() {
        let body = [
            atom(Term::Var(0), Term::Const(wk::RDFS_DOMAIN), Term::Var(1)),
            atom(Term::Var(2), Term::Var(0), Term::Var(3)),
        ];
        assert_eq!(
            derive_inputs(&body),
            DerivedInputs::PropertyVariable {
                schema: wk::RDFS_DOMAIN,
                side: SchemaSide::Subject
            }
        );
    }

    #[test]
    fn unanchored_variable_predicate_falls_back_guarded() {
        // EQ-REP-S shape: ?s1 sameAs ?s2, ?s1 ?p ?o — ?p unanchored.
        let body = [
            atom(Term::Var(0), Term::Const(wk::OWL_SAME_AS), Term::Var(1)),
            atom(Term::Var(0), Term::Var(2), Term::Var(3)),
        ];
        assert_eq!(
            derive_inputs(&body),
            DerivedInputs::AnyGuardedBy {
                guard: wk::OWL_SAME_AS
            }
        );
        assert!(derive_inputs(&body).is_whole_store());
    }

    #[test]
    fn lone_variable_pattern_is_any_property() {
        let body = [atom(Term::Var(0), Term::Var(1), Term::Var(2))];
        assert_eq!(derive_inputs(&body), DerivedInputs::AnyProperty);
    }

    #[test]
    fn output_classification() {
        // Marker-bound head predicate.
        let body = [
            atom(
                Term::Var(0),
                Term::Const(P),
                Term::Const(wk::OWL_SYMMETRIC_PROPERTY),
            ),
            atom(Term::Var(1), Term::Var(0), Term::Var(2)),
        ];
        let head = [atom(Term::Var(2), Term::Var(0), Term::Var(1))];
        assert_eq!(
            derive_outputs(&head, &body),
            DerivedOutputs::MarkedProperties {
                marker: wk::OWL_SYMMETRIC_PROPERTY
            }
        );
        // Schema-bound on the object side (EQ-REP-P head).
        let body = [
            atom(Term::Var(0), Term::Const(wk::OWL_SAME_AS), Term::Var(1)),
            atom(Term::Var(2), Term::Var(0), Term::Var(3)),
        ];
        let head = [atom(Term::Var(2), Term::Var(1), Term::Var(3))];
        assert_eq!(
            derive_outputs(&head, &body),
            DerivedOutputs::PropertyVariable {
                schema: wk::OWL_SAME_AS,
                side: SchemaSide::Object
            }
        );
        // Unclassifiable head predicate widens.
        let head = [atom(Term::Var(2), Term::Var(4), Term::Var(3))];
        assert_eq!(derive_outputs(&head, &body), DerivedOutputs::AnyProperty);
        // Mixed constant + dynamic widens.
        let head = [
            atom(Term::Var(2), Term::Const(P), Term::Var(3)),
            atom(Term::Var(2), Term::Var(1), Term::Var(3)),
        ];
        assert_eq!(derive_outputs(&head, &body), DerivedOutputs::AnyProperty);
    }

    #[test]
    fn conversions_mirror_the_catalog_enums() {
        assert_eq!(
            DerivedInputs::from(RuleInputs::Properties(&[1, 2])),
            DerivedInputs::Properties(vec![1, 2])
        );
        assert_eq!(
            DerivedOutputs::from(RuleOutputs::AnyProperty),
            DerivedOutputs::AnyProperty
        );
    }
}
