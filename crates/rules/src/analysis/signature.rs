//! Scheduling signatures: which property tables a rule reads and writes,
//! derived from its compiled body and head.
//!
//! This is the one vocabulary of the §4.3 dependency graph. The catalog
//! built-ins get theirs from their rule text exactly like an
//! analyzer-loaded rule, and [`crate::Ruleset`] evaluates both through the
//! predicates here: [`RuleInputs::changed`] for scheduling and
//! [`RuleOutputs::may_write`] for the delete–rederive seed.

use super::compile::{Atom, Term};
use crate::context::RuleContext;
use inferray_dictionary::wellknown as wk;
use inferray_store::TripleStore;
use std::collections::BTreeSet;

/// Which component of a schema pair names the data tables a
/// [`RuleInputs::PropertyVariable`] rule reads or a
/// [`RuleOutputs::PropertyVariable`] rule writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemaSide {
    /// The subject of each schema pair names a data property.
    Subject,
    /// The object of each schema pair names a data property.
    Object,
}

/// The input (scheduling) signature of a rule, §4.3: which property tables
/// the rule reads, possibly indirectly through a schema or marker table.
///
/// It must be conservative: a table the rule reads but the signature misses
/// loses derivations when the scheduler skips the rule, while a table too
/// many only costs a firing that yields duplicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleInputs {
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
/// — the rederivation seed of the delete–rederive maintenance path. Also
/// conservative: too narrow a signature leaves entailed triples unrestored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleOutputs {
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

impl RuleInputs {
    /// `true` when the rule may derive something not already in `main`,
    /// given that exactly the tables of `changed` received new pairs —
    /// the §4.3 scheduling decision for one rule.
    pub fn changed(&self, main: &TripleStore, new: &TripleStore, changed: &BTreeSet<u64>) -> bool {
        match self {
            RuleInputs::Properties(props) => props.iter().any(|p| changed.contains(p)),
            RuleInputs::AnyProperty => true,
            RuleInputs::AnyGuardedBy { guard } => {
                changed.contains(guard) || main.table(*guard).is_some_and(|t| !t.is_empty())
            }
            RuleInputs::PropertyVariable { schema, side } => {
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
            RuleInputs::MarkedProperties { marker } => {
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
            RuleInputs::Properties(props) => props.iter().for_each(|&p| read(p)),
            RuleInputs::PropertyVariable { schema, side } => {
                read(*schema);
                for (s, o) in main.table(*schema).into_iter().flat_map(|t| t.iter_pairs()) {
                    read(match side {
                        SchemaSide::Subject => s,
                        SchemaSide::Object => o,
                    });
                }
            }
            RuleInputs::MarkedProperties { marker } => {
                read(wk::RDF_TYPE);
                RuleContext::subjects_with_object(main, wk::RDF_TYPE, *marker)
                    .into_iter()
                    .for_each(read);
            }
            RuleInputs::AnyGuardedBy { .. } | RuleInputs::AnyProperty => {
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
            RuleInputs::AnyGuardedBy { .. } | RuleInputs::AnyProperty
        )
    }
}

impl RuleOutputs {
    /// `true` when the rule's head can land a triple in one of the
    /// `deleted` tables, given the current store — the rederivation seed
    /// decision of the delete–rederive path.
    pub fn may_write(&self, main: &TripleStore, deleted: &BTreeSet<u64>) -> bool {
        match self {
            RuleOutputs::Properties(props) => props.iter().any(|p| deleted.contains(p)),
            RuleOutputs::PropertyVariable { schema, side } => {
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
            RuleOutputs::MarkedProperties { marker } => {
                RuleContext::subjects_with_object(main, wk::RDF_TYPE, *marker)
                    .iter()
                    .any(|p| deleted.contains(p))
            }
            RuleOutputs::AnyProperty => true,
        }
    }
}

fn side_name(side: SchemaSide) -> &'static str {
    match side {
        SchemaSide::Subject => "subject",
        SchemaSide::Object => "object",
    }
}

impl std::fmt::Display for RuleInputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleInputs::Properties(props) => write!(f, "properties {props:?}"),
            RuleInputs::PropertyVariable { schema, side } => {
                write!(
                    f,
                    "tables named by the {} of schema {schema}",
                    side_name(*side)
                )
            }
            RuleInputs::MarkedProperties { marker } => {
                write!(f, "tables of properties declared rdf:type {marker}")
            }
            RuleInputs::AnyGuardedBy { guard } => {
                write!(f, "any table while guard {guard} is non-empty")
            }
            RuleInputs::AnyProperty => write!(f, "any table (whole-store scan)"),
        }
    }
}

impl std::fmt::Display for RuleOutputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleOutputs::Properties(props) => write!(f, "properties {props:?}"),
            RuleOutputs::PropertyVariable { schema, side } => {
                write!(
                    f,
                    "tables named by the {} of schema {schema}",
                    side_name(*side)
                )
            }
            RuleOutputs::MarkedProperties { marker } => {
                write!(f, "tables of properties declared rdf:type {marker}")
            }
            RuleOutputs::AnyProperty => write!(f, "any table"),
        }
    }
}

/// Derives the input signature from a lowered body.
///
/// * Every predicate constant ⇒ [`RuleInputs::Properties`] (body order,
///   first occurrence wins).
/// * Exactly one predicate variable whose binder is the *only*
///   constant-predicate atom ⇒ the precise dynamic shapes: a
///   `?p rdf:type Marker` binder is [`RuleInputs::MarkedProperties`], a
///   schema atom with `?p` on one side is [`RuleInputs::PropertyVariable`].
/// * Anything else falls back to the whole-store shapes, gated on the first
///   constant-predicate table when one exists: that atom must match for the
///   body to match, so an empty guard table proves the rule cannot fire —
///   conservative but sound for arbitrary extra atoms.
pub(super) fn derive_inputs(body: &[Atom]) -> RuleInputs {
    let const_preds: Vec<u64> = body.iter().filter_map(|a| a.p.as_const()).collect();
    let var_preds: BTreeSet<u32> = body.iter().filter_map(|a| a.p.as_var()).collect();
    if var_preds.is_empty() {
        let mut props = Vec::new();
        for p in const_preds {
            if !props.contains(&p) {
                props.push(p);
            }
        }
        return RuleInputs::Properties(props);
    }
    if var_preds.len() == 1 {
        let pv = Term::Var(*var_preds.iter().next().expect("non-empty"));
        let const_atoms: Vec<&Atom> = body.iter().filter(|a| a.p.as_const().is_some()).collect();
        if let [schema] = const_atoms.as_slice() {
            let sp = schema.p.as_const().expect("constant predicate");
            if sp == wk::RDF_TYPE && schema.s == pv {
                if let Some(marker) = schema.o.as_const() {
                    return RuleInputs::MarkedProperties { marker };
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
                return RuleInputs::PropertyVariable { schema: sp, side };
            }
        }
    }
    match const_preds.first() {
        Some(&guard) => RuleInputs::AnyGuardedBy { guard },
        None => RuleInputs::AnyProperty,
    }
}

/// Derives the output signature from a lowered head given its body.
///
/// Constant head predicates collect into [`RuleOutputs::Properties`]; a
/// variable head predicate is classified by how the body binds it (marker
/// declaration ⇒ `MarkedProperties`, one side of a constant-predicate schema
/// atom ⇒ `PropertyVariable`); anything unclassifiable — or a mix of
/// incompatible classes — widens to [`RuleOutputs::AnyProperty`].
pub(super) fn derive_outputs(head: &[Atom], body: &[Atom]) -> RuleOutputs {
    let mut props: Vec<u64> = Vec::new();
    let mut dynamic: Option<RuleOutputs> = None;
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
        return RuleOutputs::AnyProperty;
    }
    match (props.is_empty(), dynamic) {
        (false, None) => RuleOutputs::Properties(props),
        (true, Some(class)) => class,
        // Mixed constant + dynamic heads write both kinds of table; the
        // signature vocabulary has no union, so widen.
        (false, Some(_)) => RuleOutputs::AnyProperty,
        // An empty head cannot parse, but stay total.
        (true, None) => RuleOutputs::AnyProperty,
    }
}

fn classify_head_pred(v: u32, body: &[Atom]) -> Option<RuleOutputs> {
    let var = Term::Var(v);
    for atom in body {
        if atom.p == Term::Const(wk::RDF_TYPE) && atom.s == var {
            if let Some(marker) = atom.o.as_const() {
                return Some(RuleOutputs::MarkedProperties { marker });
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
            return Some(RuleOutputs::PropertyVariable { schema, side });
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
            RuleInputs::Properties(vec![wk::RDFS_SUB_CLASS_OF, P])
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
            RuleInputs::MarkedProperties {
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
            RuleInputs::PropertyVariable {
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
            RuleInputs::AnyGuardedBy {
                guard: wk::OWL_SAME_AS
            }
        );
        assert!(derive_inputs(&body).is_whole_store());
    }

    #[test]
    fn lone_variable_pattern_is_any_property() {
        let body = [atom(Term::Var(0), Term::Var(1), Term::Var(2))];
        assert_eq!(derive_inputs(&body), RuleInputs::AnyProperty);
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
            RuleOutputs::MarkedProperties {
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
            RuleOutputs::PropertyVariable {
                schema: wk::OWL_SAME_AS,
                side: SchemaSide::Object
            }
        );
        // Unclassifiable head predicate widens.
        let head = [atom(Term::Var(2), Term::Var(4), Term::Var(3))];
        assert_eq!(derive_outputs(&head, &body), RuleOutputs::AnyProperty);
        // Mixed constant + dynamic widens.
        let head = [
            atom(Term::Var(2), Term::Const(P), Term::Var(3)),
            atom(Term::Var(2), Term::Var(1), Term::Var(3)),
        ];
        assert_eq!(derive_outputs(&head, &body), RuleOutputs::AnyProperty);
    }
}
