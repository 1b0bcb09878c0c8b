//! Lowering checked shapes against a [`Dictionary`] into target selectors
//! and constraint evaluators over identifier space.
//!
//! The lowering is **read-only**: unlike the rule compiler, it never interns
//! or promotes a term. A shape that names an IRI the dictionary has never
//! seen is still meaningful — the term cannot occur in any triple of the
//! store, so the corresponding selector matches nothing (`class`/
//! `subjects-of` targets), the property path has zero values everywhere
//! (`count`), and a value test against it can never succeed (`class`/`in`
//! checks). Keeping the compile side-effect-free is what lets the serving
//! path validate a candidate store *before* deciding whether to publish it,
//! without entangling validation with the dictionary promotion machinery.
//!
//! Because identifiers are resolved at compile time, a compiled shape set is
//! only valid against the dictionary it was compiled with (or an append-only
//! extension that did not promote any resolved identifier); the serving
//! layer recompiles per write, exactly as it does for rule programs.

use super::check::name_map;
use super::parse::{SymClause, SymShape, SymTarget};
use crate::analysis::Span;
use inferray_dictionary::Dictionary;
use inferray_model::vocab;

/// A compiled target selector. `None` identifiers mean the named term is not
/// in the dictionary: the selector matches no node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// Nodes with `rdf:type C`.
    Class(Option<u64>),
    /// Nodes with at least one pair in the property's table.
    SubjectsOf(Option<u64>),
    /// Every node occurring in subject position.
    All,
}

/// A compiled constraint check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// Between `min` and `max` (inclusive; `None` = unbounded) values.
    Count {
        /// Minimum number of values.
        min: u64,
        /// Maximum number of values, if bounded.
        max: Option<u64>,
        /// Position of the (first) `count` clause.
        span: Span,
    },
    /// Every value is a literal with this datatype IRI.
    Datatype {
        /// The required datatype IRI (textual: literal datatypes live inside
        /// the term, not in identifier space).
        iri: String,
        /// Position of the `datatype` clause.
        span: Span,
    },
    /// Every value has `rdf:type class` in the store.
    Class {
        /// The class identifier, when the dictionary knows the IRI.
        class: Option<u64>,
        /// Position of the `class` clause.
        span: Span,
    },
    /// Every value is one of the enumerated identifiers.
    In {
        /// Sorted identifiers of the enumerated terms that the dictionary
        /// knows. Terms it has never seen cannot occur in the store and are
        /// dropped — they could never match.
        values: Vec<u64>,
        /// Position of the `in` clause.
        span: Span,
    },
    /// Every value conforms to the referenced shape.
    Node {
        /// Index of the referenced shape in [`CompiledShapes::shapes`].
        shape: usize,
        /// Position of the `node` clause.
        span: Span,
    },
}

impl Check {
    /// The source position of the clause this check was compiled from.
    pub fn span(&self) -> Span {
        match self {
            Check::Count { span, .. }
            | Check::Datatype { span, .. }
            | Check::Class { span, .. }
            | Check::In { span, .. }
            | Check::Node { span, .. } => *span,
        }
    }
}

/// A compiled constraint: a property path and its checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledConstraint {
    /// The path's property identifier; `None` when the dictionary has never
    /// seen the IRI as a property (its table is empty everywhere).
    pub path: Option<u64>,
    /// The path IRI, for reporting.
    pub path_iri: String,
    /// Position of the path term.
    pub span: Span,
    /// The checks, in written order (`count` clauses folded into one).
    pub checks: Vec<Check>,
}

/// A compiled shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledShape {
    /// The declared name.
    pub name: String,
    /// Position of the `shape` keyword.
    pub span: Span,
    /// The target selector.
    pub target: Target,
    /// The constraints.
    pub constraints: Vec<CompiledConstraint>,
}

/// A compiled shape program, ready to validate stores encoded by the
/// dictionary it was compiled against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledShapes {
    /// The shapes, in file order (indices are what `node` checks reference).
    pub shapes: Vec<CompiledShape>,
    /// The `rdf:type` property identifier, used by `class` targets and
    /// checks. `None` on a store with no typed node at all.
    pub rdf_type: Option<u64>,
}

impl CompiledShapes {
    /// The property identifiers whose pairs carry value-dependent checks
    /// (`class` / `node`): a change to a *value's* neighborhood can flip the
    /// verdict of any subject pointing at it through one of these. The
    /// incremental validator uses this set to close the dirty-node frontier.
    pub fn dependent_paths(&self) -> Vec<u64> {
        let mut paths: Vec<u64> = self
            .shapes
            .iter()
            .flat_map(|s| s.constraints.iter())
            .filter(|c| {
                c.checks
                    .iter()
                    .any(|k| matches!(k, Check::Class { .. } | Check::Node { .. }))
            })
            .filter_map(|c| c.path)
            .collect();
        paths.sort_unstable();
        paths.dedup();
        paths
    }
}

fn resolve_iri(dict: &Dictionary, iri: &str) -> Option<u64> {
    dict.id_of_iri(iri)
}

/// Lowers checked shapes against `dict`. Must only be called on shapes that
/// passed [`super::check::check`] without errors: duplicate names, unknown
/// references and reference cycles are assumed absent (an unresolved `node`
/// reference falls back to the shape itself being skipped, never a panic).
pub fn lower(shapes: &[SymShape], dict: &Dictionary) -> CompiledShapes {
    let names = name_map(shapes);
    let compiled = shapes
        .iter()
        .map(|shape| {
            let target = match &shape.target {
                SymTarget::Class(iri) => Target::Class(resolve_iri(dict, iri)),
                SymTarget::SubjectsOf(iri) => Target::SubjectsOf(resolve_iri(dict, iri)),
                SymTarget::All => Target::All,
            };
            let constraints = shape
                .constraints
                .iter()
                .map(|constraint| {
                    let mut checks = Vec::new();
                    // Fold every `count` clause into one effective bound
                    // (the check pass already rejected contradictions).
                    let mut count: Option<(u64, Option<u64>, Span)> = None;
                    for clause in &constraint.clauses {
                        match clause {
                            SymClause::Count { min, max, span } => {
                                count = Some(match count {
                                    None => (*min, *max, *span),
                                    Some((m, x, s)) => (
                                        m.max(*min),
                                        match (x, *max) {
                                            (Some(a), Some(b)) => Some(a.min(b)),
                                            (a, b) => a.or(b),
                                        },
                                        s,
                                    ),
                                });
                            }
                            SymClause::Datatype { iri, span } => checks.push(Check::Datatype {
                                iri: iri.clone(),
                                span: *span,
                            }),
                            SymClause::Class { iri, span } => checks.push(Check::Class {
                                class: resolve_iri(dict, iri),
                                span: *span,
                            }),
                            SymClause::In { values, span } => {
                                let mut ids: Vec<u64> =
                                    values.iter().filter_map(|v| dict.id_of(v)).collect();
                                ids.sort_unstable();
                                ids.dedup();
                                checks.push(Check::In {
                                    values: ids,
                                    span: *span,
                                });
                            }
                            SymClause::Node { name, span } => {
                                if let Some(&shape) = names.get(name.as_str()) {
                                    checks.push(Check::Node { shape, span: *span });
                                }
                            }
                        }
                    }
                    if let Some((min, max, span)) = count {
                        checks.insert(0, Check::Count { min, max, span });
                    }
                    CompiledConstraint {
                        path: resolve_iri(dict, &constraint.path),
                        path_iri: constraint.path.clone(),
                        span: constraint.span,
                        checks,
                    }
                })
                .collect();
            CompiledShape {
                name: shape.name.clone(),
                span: shape.span,
                target,
                constraints,
            }
        })
        .collect();
    CompiledShapes {
        shapes: compiled,
        rdf_type: dict.id_of_iri(vocab::RDF_TYPE),
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse::parse;
    use super::*;
    use inferray_model::Triple;

    fn dict_with(triples: &[(&str, &str, &str)]) -> Dictionary {
        let mut dict = Dictionary::new();
        for (s, p, o) in triples {
            dict.encode_triple(&Triple::iris(*s, *p, *o)).unwrap();
        }
        dict
    }

    fn compile(text: &str, dict: &Dictionary) -> CompiledShapes {
        let (shapes, diags) = parse(text);
        assert!(diags.is_empty(), "{diags:?}");
        lower(&shapes, dict)
    }

    #[test]
    fn resolves_known_terms_and_defaults_unknown_to_none() {
        let dict = dict_with(&[("urn:x", "urn:p", "urn:v")]);
        let compiled = compile(
            "shape S targets subjects-of <urn:p> {\n\
               <urn:p> count [1..2] in ( <urn:v> <urn:ghost> ) ;\n\
               <urn:q> count [0..0] ;\n\
             } .",
            &dict,
        );
        let shape = &compiled.shapes[0];
        let p = dict.id_of_iri("urn:p").unwrap();
        assert_eq!(shape.target, Target::SubjectsOf(Some(p)));
        assert_eq!(shape.constraints[0].path, Some(p));
        // `urn:ghost` is unknown: it can never occur in the store, so the
        // enumeration keeps only `urn:v`.
        assert_eq!(
            shape.constraints[0].checks[1],
            Check::In {
                values: vec![dict.id_of_iri("urn:v").unwrap()],
                span: Span { line: 2, col: 22 }
            }
        );
        assert_eq!(shape.constraints[1].path, None);
    }

    #[test]
    fn count_clauses_fold_and_node_references_resolve() {
        let dict = Dictionary::new();
        let compiled = compile(
            "shape A targets all { <urn:p> count [1..*] count [0..3] node B ; } .\n\
             shape B targets all { <urn:q> count [1..*] ; } .",
            &dict,
        );
        let checks = &compiled.shapes[0].constraints[0].checks;
        assert!(matches!(
            checks[0],
            Check::Count {
                min: 1,
                max: Some(3),
                ..
            }
        ));
        assert!(matches!(checks[1], Check::Node { shape: 1, .. }));
        assert!(
            compiled.rdf_type.is_some(),
            "rdf:type is pre-interned by the dictionary"
        );
    }

    #[test]
    fn dependent_paths_cover_class_and_node_checks() {
        let dict = dict_with(&[("urn:x", "urn:p", "urn:v"), ("urn:x", "urn:q", "urn:v")]);
        let compiled = compile(
            "shape A targets all { <urn:p> class <urn:C> ; <urn:q> count [0..1] ; } .\n\
             shape B targets all { <urn:q> node A ; } .",
            &dict,
        );
        let p = dict.id_of_iri("urn:p").unwrap();
        let q = dict.id_of_iri("urn:q").unwrap();
        let mut expect = vec![p, q];
        expect.sort_unstable();
        assert_eq!(compiled.dependent_paths(), expect);
    }
}
