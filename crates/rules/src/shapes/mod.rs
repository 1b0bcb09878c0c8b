//! Shape-constraint static analysis and validation: a SHACL-lite language
//! compiled onto the snapshot/delta machinery.
//!
//! The pipeline mirrors the rule analyzer ([`crate::analysis`]) stage for
//! stage:
//!
//! 1. **[`analyze`]** — purely symbolic: the parser ([`parse`] module) turns
//!    a textual shape file into [`SymShape`]s, then the check passes vet
//!    cardinality bounds, duplicate/dead/shadowed shapes, the `node`
//!    reference graph and whole-store targets. Every finding is a positioned
//!    [`Diagnostic`] with a stable `SH…` code (table in `docs/shapes.md`),
//!    sharing the rule analyzer's diagnostic type so tooling renders both
//!    the same way.
//! 2. **[`ShapeAnalysis::compile`]** — lowers the shapes against a
//!    [`Dictionary`] (read-only — see [`compile`]) into target selectors and
//!    constraint evaluators over identifier space.
//! 3. **[`validate`]** / **[`validate_delta`]** — evaluate a compiled
//!    program over the sorted pair tables: full snapshots fan out over
//!    `inferray-parallel`; the incremental path re-validates only nodes
//!    incident to changed pairs (plus the value-dependent closure) and is
//!    proven equal to full re-validation.
//!
//! `inferray-cli shapes check|validate` exposes the diagnostics and the
//! validator on the command line; `serve --shapes` gates `POST /update`
//! behind a green validation.

mod check;
mod compile;
mod parse;
mod validate;

pub use crate::analysis::{Diagnostic, Severity, Span};
pub use compile::{Check, CompiledConstraint, CompiledShape, CompiledShapes, Target};
pub use parse::{SymClause, SymConstraint, SymShape, SymTarget};
pub use validate::{
    conforms, dirty_nodes, validate, validate_delta, ValidationReport, Violation, ViolationKind,
};

use inferray_dictionary::Dictionary;

/// The result of the symbolic stage: parsed shapes plus every parse/check
/// diagnostic, sorted by position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeAnalysis {
    /// The shapes that parsed, in file order.
    pub shapes: Vec<SymShape>,
    /// Parse and check findings, sorted by position then code.
    pub diagnostics: Vec<Diagnostic>,
}

/// Parses and checks a shape file. Never fails: findings (including syntax
/// errors) are reported through [`ShapeAnalysis::diagnostics`].
pub fn analyze(text: &str) -> ShapeAnalysis {
    let (shapes, mut diagnostics) = parse::parse(text);
    diagnostics.extend(check::check(&shapes));
    diagnostics.sort_by(|a, b| (a.line, a.col, a.code).cmp(&(b.line, b.col, b.code)));
    ShapeAnalysis {
        shapes,
        diagnostics,
    }
}

impl ShapeAnalysis {
    /// `true` when any finding is an error — the file must not be loaded.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_error)
    }

    /// Lowers the analyzed shapes against `dict`. Unlike the rule compiler
    /// this never mutates the dictionary — shapes naming unknown terms
    /// compile to selectors/checks that match nothing (see [`compile`]).
    /// `Err` carries every error-severity diagnostic of the symbolic stage.
    pub fn compile(&self, dict: &Dictionary) -> Result<CompiledShapes, Vec<Diagnostic>> {
        if self.has_errors() {
            return Err(self
                .diagnostics
                .iter()
                .filter(|d| d.is_error())
                .cloned()
                .collect());
        }
        Ok(compile::lower(&self.shapes, dict))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_sorts_diagnostics_by_position() {
        let analysis = analyze(
            "shape B targets all { <urn:p> count [3..1] ; } .\n\
             shape B targets all { <urn:p> in ( ) ; } .",
        );
        assert!(analysis.has_errors());
        let lines: Vec<u32> = analysis.diagnostics.iter().map(|d| d.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn compile_refuses_files_with_errors() {
        let dict = Dictionary::new();
        let analysis = analyze("shape S targets all { <urn:p> count [3..1] ; } .");
        let err = analysis.compile(&dict).expect_err("contradictory bounds");
        assert!(err.iter().all(Diagnostic::is_error));
        assert!(err.iter().any(|d| d.code == "SH003"));
    }

    #[test]
    fn warnings_do_not_block_compilation() {
        let dict = Dictionary::new();
        let analysis = analyze("shape S targets all { } .");
        assert!(!analysis.has_errors());
        assert!(analysis
            .diagnostics
            .iter()
            .any(|d| d.code == "SH005" || d.code == "SH008"));
        let compiled = analysis.compile(&dict).expect("warnings are loadable");
        assert_eq!(compiled.shapes.len(), 1);
    }
}
