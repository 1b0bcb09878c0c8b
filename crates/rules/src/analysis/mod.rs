//! Rule-program static analysis: parse, check, and compile user-defined
//! rulesets into the scheduler's vocabulary.
//!
//! The pipeline has three stages:
//!
//! 1. **[`analyze`]** — purely symbolic: the parser ([`parse`] module) turns
//!    a textual datalog-style rule file into [`SymRule`]s, then the check
//!    passes vet safety/range-restriction, duplicate and dead rules,
//!    disconnected patterns, shadowing, and the predicate dependency graph.
//!    Every finding is a positioned [`Diagnostic`] with a stable `RA…` code
//!    (table in `docs/rules.md`).
//! 2. **[`Analysis::compile`]** — lowers the rules against a
//!    [`Dictionary`], derives each rule's input/output signature
//!    ([`RuleInputs`]/[`RuleOutputs`] — the vocabulary the §4.3 scheduler
//!    and the delete–rederive seed read, for built-ins too: their lowered
//!    texts are what [`crate::Ruleset::compiled`] returns), and recognizes
//!    rules that are alpha-equivalent to catalog built-ins so they run as
//!    those built-ins. What a compiled text runs on is its shape's kernel
//!    ([`lowering()`]).
//! 3. **the stratum pass** (`stratum.rs`) — over the compiled rules of a whole ruleset: the
//!    schema stratum the reasoner closes before the data loop, and the
//!    firings `C∘P` it may leave out while that stratum stays closed.
//!
//! [`crate::Ruleset::from_analyzed`] turns the compiled result into a
//! runnable ruleset; `inferray-cli rules check|explain` exposes the
//! diagnostics and the derived signatures on the command line.

pub mod builtin;
mod check;
mod compile;
pub mod cost;
mod diag;
mod exec;
mod lowering;
mod parse;
mod signature;
pub(crate) mod stratum;

pub(crate) use compile::compiled_builtin;
pub use compile::{recognize, Atom, CompiledRule, CompiledRuleset, Term};
pub use diag::{Diagnostic, Severity};
pub use exec::{apply_compiled, apply_lowered, supports};
pub(crate) use lowering::{closure, self_join, ScanEmit};
pub use lowering::{
    lowering, Closure, Declared, Lowering, MergeJoin, SelfJoin, Substitution, TableScan,
};
pub use parse::{Span, SymAtom, SymRule, SymTerm};
pub use signature::{RuleInputs, RuleOutputs, SchemaSide};
pub use stratum::Elision;

use inferray_dictionary::Dictionary;

/// The result of the symbolic stage: parsed rules plus every parse/check
/// diagnostic, sorted by position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// The rules that parsed, in file order.
    pub rules: Vec<SymRule>,
    /// Parse and check findings, sorted by position then code.
    pub diagnostics: Vec<Diagnostic>,
}

/// Parses and checks a rule file. Never fails: findings (including syntax
/// errors) are reported through [`Analysis::diagnostics`].
pub fn analyze(text: &str) -> Analysis {
    let (rules, mut diagnostics) = parse::parse(text);
    diagnostics.extend(check::check(&rules));
    diagnostics.sort_by(|a, b| (a.line, a.col, a.code).cmp(&(b.line, b.col, b.code)));
    Analysis { rules, diagnostics }
}

impl Analysis {
    /// `true` when any finding is an error — the file must not be loaded.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_error)
    }

    /// Lowers the analyzed rules against `dict`, deriving signatures and
    /// recognizing built-ins. `Err` carries every error-severity diagnostic
    /// (symbolic-stage errors, or `RA010` lowering failures).
    pub fn compile(&self, dict: &mut Dictionary) -> Result<CompiledRuleset, Vec<Diagnostic>> {
        if self.has_errors() {
            return Err(self.diagnostics.clone());
        }
        compile::lower(&self.rules, dict)
    }
}

/// Convenience: analyze + compile + build a runnable [`crate::Ruleset`].
/// `Err` carries the diagnostics that made the file unloadable.
pub fn load_ruleset(text: &str, dict: &mut Dictionary) -> Result<crate::Ruleset, Vec<Diagnostic>> {
    let analysis = analyze(text);
    let compiled = analysis.compile(dict)?;
    Ok(crate::Ruleset::from_analyzed(&compiled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_sorts_diagnostics_by_position() {
        let analysis = analyze(
            "rule b: ?x <urn:p> ?y => ?x <urn:q> ?z .\nrule a: ?x <urn:p> ?y => ?q <urn:r> ?y .",
        );
        assert!(analysis.has_errors());
        assert_eq!(analysis.diagnostics.len(), 2);
        assert!(analysis.diagnostics[0].line <= analysis.diagnostics[1].line);
    }

    #[test]
    fn compile_refuses_files_with_errors() {
        let mut dict = Dictionary::new();
        let analysis = analyze("rule bad: ?x <urn:p> ?y => ?x <urn:p> ?z .");
        let err = analysis.compile(&mut dict).expect_err("unsafe rule");
        assert!(err.iter().any(|d| d.code == "RA003"));
    }
}
