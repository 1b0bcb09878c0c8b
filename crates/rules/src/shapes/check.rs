//! Static checks over parsed shapes: everything that can be decided without
//! a dictionary or a store.
//!
//! | code  | severity | finding |
//! |-------|----------|---------|
//! | SH003 | error    | contradictory cardinality bounds (min > max) |
//! | SH004 | error    | duplicate shape name |
//! | SH005 | warning  | dead shape: empty constraint block |
//! | SH006 | warning  | shadowed shape: identical target and constraints |
//! | SH007 | error    | shape-reference cycle through `node` clauses |
//! | SH008 | info     | whole-store target (`targets all`) fallback |
//! | SH009 | error    | reference to an undefined shape |
//! | SH010 | error    | empty `in` enumeration (unsatisfiable) |
//!
//! (`SH001`/`SH002` — syntax and unknown prefixes — are emitted by the
//! parser.) The code table with examples lives in `docs/shapes.md`.

use super::parse::{SymClause, SymShape, SymTarget};
use crate::analysis::{Diagnostic, Severity};
use std::collections::HashMap;

/// Runs every static check over the parsed shapes.
pub fn check(shapes: &[SymShape]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_names(shapes, &mut diags);
    check_clauses(shapes, &mut diags);
    check_dead(shapes, &mut diags);
    check_shadowed(shapes, &mut diags);
    check_references(shapes, &mut diags);
    check_targets(shapes, &mut diags);
    diags
}

/// The first definition of each shape name (later duplicates are `SH004`
/// errors and never compiled, so "first wins" is the resolution rule).
pub fn name_map(shapes: &[SymShape]) -> HashMap<&str, usize> {
    let mut map = HashMap::new();
    for (i, shape) in shapes.iter().enumerate() {
        map.entry(shape.name.as_str()).or_insert(i);
    }
    map
}

fn check_names(shapes: &[SymShape], diags: &mut Vec<Diagnostic>) {
    let mut seen: HashMap<&str, &SymShape> = HashMap::new();
    for shape in shapes {
        match seen.get(shape.name.as_str()) {
            Some(first) => diags.push(Diagnostic::new(
                "SH004",
                Severity::Error,
                shape.span.line,
                shape.span.col,
                format!(
                    "duplicate shape name `{}` (first defined at {}:{})",
                    shape.name, first.span.line, first.span.col
                ),
            )),
            None => {
                seen.insert(&shape.name, shape);
            }
        }
    }
}

/// Per-clause findings: contradictory folded cardinality bounds (`SH003`)
/// and unsatisfiable empty enumerations (`SH010`).
fn check_clauses(shapes: &[SymShape], diags: &mut Vec<Diagnostic>) {
    for shape in shapes {
        for constraint in &shape.constraints {
            // Fold every `count` clause of the constraint: the effective
            // bounds are the intersection, so a contradiction can come from
            // one clause (`[3..1]`) or from the combination of several
            // (`count [2..*] count [0..1]`).
            let mut min = 0u64;
            let mut max: Option<u64> = None;
            let mut reported = false;
            for clause in &constraint.clauses {
                match clause {
                    SymClause::Count { min: m, max: x, .. } => {
                        min = min.max(*m);
                        max = match (max, *x) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                        if let Some(bound) = max {
                            if min > bound && !reported {
                                reported = true;
                                let span = clause.span();
                                diags.push(Diagnostic::new(
                                    "SH003",
                                    Severity::Error,
                                    span.line,
                                    span.col,
                                    format!(
                                        "contradictory cardinality bounds on `<{}>`: \
                                         minimum {min} exceeds maximum {bound}",
                                        constraint.path
                                    ),
                                ));
                            }
                        }
                    }
                    SymClause::In { values, span } if values.is_empty() => {
                        diags.push(Diagnostic::new(
                            "SH010",
                            Severity::Error,
                            span.line,
                            span.col,
                            format!(
                                "empty `in` enumeration on `<{}>`: no value can satisfy it",
                                constraint.path
                            ),
                        ));
                    }
                    _ => {}
                }
            }
        }
    }
}

fn check_dead(shapes: &[SymShape], diags: &mut Vec<Diagnostic>) {
    for shape in shapes {
        if shape.constraints.is_empty() {
            diags.push(Diagnostic::new(
                "SH005",
                Severity::Warning,
                shape.span.line,
                shape.span.col,
                format!(
                    "dead shape: `{}` has no constraints and can never report a violation",
                    shape.name
                ),
            ));
        }
    }
}

/// A canonical, order-insensitive rendering of a shape's target and
/// constraints (IRIs are already prefix-expanded by the parser), so two
/// shapes that differ only in name, whitespace or constraint order compare
/// equal.
fn canonicalize(shape: &SymShape) -> String {
    let target = match &shape.target {
        SymTarget::Class(iri) => format!("class <{iri}>"),
        SymTarget::SubjectsOf(iri) => format!("subjects-of <{iri}>"),
        SymTarget::All => "all".to_string(),
    };
    let mut constraints: Vec<String> = shape
        .constraints
        .iter()
        .map(|c| {
            let mut clauses: Vec<String> = c
                .clauses
                .iter()
                .map(|clause| match clause {
                    SymClause::Count { min, max, .. } => match max {
                        Some(max) => format!("count {min}..{max}"),
                        None => format!("count {min}..*"),
                    },
                    SymClause::Datatype { iri, .. } => format!("datatype <{iri}>"),
                    SymClause::Class { iri, .. } => format!("class <{iri}>"),
                    SymClause::In { values, .. } => {
                        let mut values: Vec<String> =
                            values.iter().map(|v| v.to_ntriples()).collect();
                        values.sort_unstable();
                        format!("in {}", values.join(" "))
                    }
                    SymClause::Node { name, .. } => format!("node {name}"),
                })
                .collect();
            clauses.sort_unstable();
            format!("<{}> {}", c.path, clauses.join(" "))
        })
        .collect();
    constraints.sort_unstable();
    format!("{target} {{ {} }}", constraints.join(" ; "))
}

fn check_shadowed(shapes: &[SymShape], diags: &mut Vec<Diagnostic>) {
    let mut seen: HashMap<String, &SymShape> = HashMap::new();
    for shape in shapes {
        let canonical = canonicalize(shape);
        match seen.get(&canonical) {
            // A duplicate *name* is already an SH004 error; the shadow
            // warning is for distinct names validating the same thing.
            Some(first) if first.name != shape.name => diags.push(Diagnostic::new(
                "SH006",
                Severity::Warning,
                shape.span.line,
                shape.span.col,
                format!(
                    "shape `{}` is shadowed by `{}` ({}:{}): identical target and constraints",
                    shape.name, first.name, first.span.line, first.span.col
                ),
            )),
            Some(_) => {}
            None => {
                seen.insert(canonical, shape);
            }
        }
    }
}

fn check_references(shapes: &[SymShape], diags: &mut Vec<Diagnostic>) {
    let names = name_map(shapes);
    // SH009: every `node NAME` must resolve.
    for shape in shapes {
        for constraint in &shape.constraints {
            for clause in &constraint.clauses {
                if let SymClause::Node { name, span } = clause {
                    if !names.contains_key(name.as_str()) {
                        diags.push(Diagnostic::new(
                            "SH009",
                            Severity::Error,
                            span.line,
                            span.col,
                            format!("reference to undefined shape `{name}`"),
                        ));
                    }
                }
            }
        }
    }
    // SH007: the `node` reference graph must be acyclic, or conformance
    // checking would not terminate. Three-color DFS from every shape; a back
    // edge is reported at the clause that closes the cycle.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    fn visit(
        shapes: &[SymShape],
        names: &HashMap<&str, usize>,
        colors: &mut [Color],
        stack: &mut Vec<usize>,
        at: usize,
        diags: &mut Vec<Diagnostic>,
    ) {
        colors[at] = Color::Gray;
        stack.push(at);
        for constraint in &shapes[at].constraints {
            for clause in &constraint.clauses {
                let SymClause::Node { name, span } = clause else {
                    continue;
                };
                let Some(&next) = names.get(name.as_str()) else {
                    continue;
                };
                match colors[next] {
                    Color::White => visit(shapes, names, colors, stack, next, diags),
                    Color::Gray => {
                        let from = stack.iter().position(|&i| i == next).unwrap_or(0);
                        let mut path: Vec<&str> = stack[from..]
                            .iter()
                            .map(|&i| shapes[i].name.as_str())
                            .collect();
                        path.push(name);
                        diags.push(Diagnostic::new(
                            "SH007",
                            Severity::Error,
                            span.line,
                            span.col,
                            format!("shape-reference cycle: {}", path.join(" -> ")),
                        ));
                    }
                    Color::Black => {}
                }
            }
        }
        stack.pop();
        colors[at] = Color::Black;
    }
    let mut colors = vec![Color::White; shapes.len()];
    let mut stack = Vec::new();
    for i in 0..shapes.len() {
        if colors[i] == Color::White {
            visit(shapes, &names, &mut colors, &mut stack, i, diags);
        }
    }
}

fn check_targets(shapes: &[SymShape], diags: &mut Vec<Diagnostic>) {
    for shape in shapes {
        if shape.target == SymTarget::All {
            diags.push(Diagnostic::new(
                "SH008",
                Severity::Info,
                shape.target_span.line,
                shape.target_span.col,
                format!(
                    "whole-store target: every subject in the store becomes a focus node \
                     of `{}`",
                    shape.name
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse::parse;
    use super::*;

    fn diags_for(text: &str) -> Vec<Diagnostic> {
        let (shapes, parse_diags) = parse(text);
        assert!(
            parse_diags.is_empty(),
            "unexpected parse diagnostics: {parse_diags:?}"
        );
        check(&shapes)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn contradictory_bounds_single_and_folded() {
        let d = diags_for("shape S targets class <urn:C> { <urn:p> count [3..1] ; } .");
        assert_eq!(codes(&d), vec!["SH003"]);
        let d =
            diags_for("shape S targets class <urn:C> { <urn:p> count [2..*] count [0..1] ; } .");
        assert_eq!(codes(&d), vec!["SH003"]);
        assert!(d[0].message.contains("minimum 2 exceeds maximum 1"));
        // Satisfiable folds stay silent.
        let d =
            diags_for("shape S targets class <urn:C> { <urn:p> count [1..*] count [0..3] ; } .");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn duplicate_names_are_errors() {
        let d = diags_for(
            "shape S targets class <urn:C> { <urn:p> count [0..1] ; } .\n\
             shape S targets class <urn:D> { <urn:q> count [0..1] ; } .",
        );
        assert_eq!(codes(&d), vec!["SH004"]);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn dead_and_shadowed_shapes_warn() {
        let d = diags_for("shape Empty targets class <urn:C> { } .");
        assert_eq!(codes(&d), vec!["SH005"]);
        assert!(!d[0].is_error());
        let d = diags_for(
            "shape A targets class <urn:C> { <urn:p> count [0..1] datatype <urn:d> ; } .\n\
             shape B targets class <urn:C> { <urn:p> datatype <urn:d> count [0..1] ; } .",
        );
        assert_eq!(codes(&d), vec!["SH006"]);
        assert!(d[0].message.contains("shadowed by `A`"));
    }

    #[test]
    fn reference_cycles_and_unknown_references() {
        let d = diags_for(
            "shape A targets class <urn:C> { <urn:p> node B ; } .\n\
             shape B targets class <urn:D> { <urn:q> node A ; } .",
        );
        assert_eq!(codes(&d), vec!["SH007"]);
        assert!(d[0].message.contains("A -> B -> A"));
        let d = diags_for("shape A targets class <urn:C> { <urn:p> node Ghost ; } .");
        assert_eq!(codes(&d), vec!["SH009"]);
        // Self-reference is the smallest cycle.
        let d = diags_for("shape A targets class <urn:C> { <urn:p> node A ; } .");
        assert_eq!(codes(&d), vec!["SH007"]);
        // A DAG of references is fine.
        let d = diags_for(
            "shape A targets class <urn:C> { <urn:p> node B ; } .\n\
             shape B targets class <urn:D> { <urn:q> count [1..*] ; } .",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn whole_store_target_notes_and_empty_in() {
        let d = diags_for("shape S targets all { <urn:p> count [0..1] ; } .");
        assert_eq!(codes(&d), vec!["SH008"]);
        assert_eq!(d[0].severity, Severity::Info);
        let d = diags_for("shape S targets class <urn:C> { <urn:p> in ( ) ; } .");
        assert_eq!(codes(&d), vec!["SH010"]);
    }
}
