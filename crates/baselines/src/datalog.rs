//! Declarative datalog encoding of the Table 5 rules.
//!
//! The baselines interpret rules instead of hard-coding them: a rule is a
//! conjunction of triple patterns over variables and constants, a set of
//! head patterns, and optional disequality filters. This is the natural
//! representation for a hash-join or RETE-flavoured engine — and it is
//! intentionally *independent* of the sort-merge executors of
//! `inferray-rules`, so that cross-engine equivalence tests are meaningful.

use inferray_dictionary::wellknown as wk;
use inferray_rules::analysis::{Atom, CompiledRule, Term};
use inferray_rules::{Fragment, RuleId, RuleRef, Ruleset};

/// A term of a triple pattern: a variable (identified by a small index) or a
/// constant identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatTerm {
    /// A variable, identified by its slot in the binding array.
    Var(u8),
    /// A constant (dictionary identifier).
    Const(u64),
}

/// A triple pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject position.
    pub s: PatTerm,
    /// Predicate position.
    pub p: PatTerm,
    /// Object position.
    pub o: PatTerm,
}

impl TriplePattern {
    /// Shorthand constructor.
    pub const fn new(s: PatTerm, p: PatTerm, o: PatTerm) -> Self {
        TriplePattern { s, p, o }
    }
}

/// A datalog rule: `body ⇒ head`, with optional `x ≠ y` filters over
/// variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatalogRule {
    /// The rule this encodes (ties back to the catalog, or to a ruleset's
    /// custom rules).
    pub id: RuleRef,
    /// Body patterns (joined conjunctively).
    pub body: Vec<TriplePattern>,
    /// Head patterns (each produces one triple per satisfying binding).
    pub head: Vec<TriplePattern>,
    /// Disequality filters between variables.
    pub not_equal: Vec<(u8, u8)>,
}

impl DatalogRule {
    /// Number of variables used (the binding array length).
    pub fn variable_count(&self) -> usize {
        let mut max = 0usize;
        let mut consider = |t: &PatTerm| {
            if let PatTerm::Var(v) = t {
                max = max.max(*v as usize + 1);
            }
        };
        for pattern in self.body.iter().chain(self.head.iter()) {
            consider(&pattern.s);
            consider(&pattern.p);
            consider(&pattern.o);
        }
        max
    }
}

use PatTerm::{Const, Var};

const V0: PatTerm = Var(0);
const V1: PatTerm = Var(1);
const V2: PatTerm = Var(2);
const V3: PatTerm = Var(3);

fn pattern(s: PatTerm, p: PatTerm, o: PatTerm) -> TriplePattern {
    TriplePattern::new(s, p, o)
}

/// The datalog encoding of one rule of Table 5.
pub fn datalog_rule(id: RuleId) -> DatalogRule {
    let (body, head, not_equal): (Vec<TriplePattern>, Vec<TriplePattern>, Vec<(u8, u8)>) = match id
    {
        RuleId::CaxEqc1 => (
            vec![
                pattern(V0, Const(wk::OWL_EQUIVALENT_CLASS), V1),
                pattern(V2, Const(wk::RDF_TYPE), V0),
            ],
            vec![pattern(V2, Const(wk::RDF_TYPE), V1)],
            vec![],
        ),
        RuleId::CaxEqc2 => (
            vec![
                pattern(V0, Const(wk::OWL_EQUIVALENT_CLASS), V1),
                pattern(V2, Const(wk::RDF_TYPE), V1),
            ],
            vec![pattern(V2, Const(wk::RDF_TYPE), V0)],
            vec![],
        ),
        RuleId::CaxSco => (
            vec![
                pattern(V0, Const(wk::RDFS_SUB_CLASS_OF), V1),
                pattern(V2, Const(wk::RDF_TYPE), V0),
            ],
            vec![pattern(V2, Const(wk::RDF_TYPE), V1)],
            vec![],
        ),
        RuleId::EqRepO => (
            vec![pattern(V0, Const(wk::OWL_SAME_AS), V1), pattern(V2, V3, V0)],
            vec![pattern(V2, V3, V1)],
            vec![],
        ),
        RuleId::EqRepP => (
            vec![pattern(V0, Const(wk::OWL_SAME_AS), V1), pattern(V2, V0, V3)],
            vec![pattern(V2, V1, V3)],
            vec![],
        ),
        RuleId::EqRepS => (
            vec![pattern(V0, Const(wk::OWL_SAME_AS), V1), pattern(V0, V2, V3)],
            vec![pattern(V1, V2, V3)],
            vec![],
        ),
        RuleId::EqSym => (
            vec![pattern(V0, Const(wk::OWL_SAME_AS), V1)],
            vec![pattern(V1, Const(wk::OWL_SAME_AS), V0)],
            vec![],
        ),
        RuleId::EqTrans => (
            vec![
                pattern(V0, Const(wk::OWL_SAME_AS), V1),
                pattern(V1, Const(wk::OWL_SAME_AS), V2),
            ],
            vec![pattern(V0, Const(wk::OWL_SAME_AS), V2)],
            vec![],
        ),
        RuleId::PrpDom => (
            vec![pattern(V0, Const(wk::RDFS_DOMAIN), V1), pattern(V2, V0, V3)],
            vec![pattern(V2, Const(wk::RDF_TYPE), V1)],
            vec![],
        ),
        RuleId::PrpEqp1 => (
            vec![
                pattern(V0, Const(wk::OWL_EQUIVALENT_PROPERTY), V1),
                pattern(V2, V0, V3),
            ],
            vec![pattern(V2, V1, V3)],
            vec![],
        ),
        RuleId::PrpEqp2 => (
            vec![
                pattern(V0, Const(wk::OWL_EQUIVALENT_PROPERTY), V1),
                pattern(V2, V1, V3),
            ],
            vec![pattern(V2, V0, V3)],
            vec![],
        ),
        RuleId::PrpFp => (
            vec![
                pattern(V0, Const(wk::RDF_TYPE), Const(wk::OWL_FUNCTIONAL_PROPERTY)),
                pattern(V1, V0, V2),
                pattern(V1, V0, V3),
            ],
            vec![pattern(V2, Const(wk::OWL_SAME_AS), V3)],
            vec![(2, 3)],
        ),
        RuleId::PrpIfp => (
            vec![
                pattern(
                    V0,
                    Const(wk::RDF_TYPE),
                    Const(wk::OWL_INVERSE_FUNCTIONAL_PROPERTY),
                ),
                pattern(V1, V0, V3),
                pattern(V2, V0, V3),
            ],
            vec![pattern(V1, Const(wk::OWL_SAME_AS), V2)],
            vec![(1, 2)],
        ),
        RuleId::PrpInv1 => (
            vec![
                pattern(V0, Const(wk::OWL_INVERSE_OF), V1),
                pattern(V2, V0, V3),
            ],
            vec![pattern(V3, V1, V2)],
            vec![],
        ),
        RuleId::PrpInv2 => (
            vec![
                pattern(V0, Const(wk::OWL_INVERSE_OF), V1),
                pattern(V2, V1, V3),
            ],
            vec![pattern(V3, V0, V2)],
            vec![],
        ),
        RuleId::PrpRng => (
            vec![pattern(V0, Const(wk::RDFS_RANGE), V1), pattern(V2, V0, V3)],
            vec![pattern(V3, Const(wk::RDF_TYPE), V1)],
            vec![],
        ),
        RuleId::PrpSpo1 => (
            vec![
                pattern(V0, Const(wk::RDFS_SUB_PROPERTY_OF), V1),
                pattern(V2, V0, V3),
            ],
            vec![pattern(V2, V1, V3)],
            vec![],
        ),
        RuleId::PrpSymp => (
            vec![
                pattern(V0, Const(wk::RDF_TYPE), Const(wk::OWL_SYMMETRIC_PROPERTY)),
                pattern(V1, V0, V2),
            ],
            vec![pattern(V2, V0, V1)],
            vec![],
        ),
        RuleId::PrpTrp => (
            vec![
                pattern(V0, Const(wk::RDF_TYPE), Const(wk::OWL_TRANSITIVE_PROPERTY)),
                pattern(V1, V0, V2),
                pattern(V2, V0, V3),
            ],
            vec![pattern(V1, V0, V3)],
            vec![],
        ),
        RuleId::ScmDom1 => (
            vec![
                pattern(V0, Const(wk::RDFS_DOMAIN), V1),
                pattern(V1, Const(wk::RDFS_SUB_CLASS_OF), V2),
            ],
            vec![pattern(V0, Const(wk::RDFS_DOMAIN), V2)],
            vec![],
        ),
        RuleId::ScmDom2 => (
            vec![
                pattern(V0, Const(wk::RDFS_DOMAIN), V1),
                pattern(V2, Const(wk::RDFS_SUB_PROPERTY_OF), V0),
            ],
            vec![pattern(V2, Const(wk::RDFS_DOMAIN), V1)],
            vec![],
        ),
        RuleId::ScmEqc1 => (
            vec![pattern(V0, Const(wk::OWL_EQUIVALENT_CLASS), V1)],
            vec![
                pattern(V0, Const(wk::RDFS_SUB_CLASS_OF), V1),
                pattern(V1, Const(wk::RDFS_SUB_CLASS_OF), V0),
            ],
            vec![],
        ),
        RuleId::ScmEqc2 => (
            vec![
                pattern(V0, Const(wk::RDFS_SUB_CLASS_OF), V1),
                pattern(V1, Const(wk::RDFS_SUB_CLASS_OF), V0),
            ],
            vec![pattern(V0, Const(wk::OWL_EQUIVALENT_CLASS), V1)],
            vec![],
        ),
        RuleId::ScmEqp1 => (
            vec![pattern(V0, Const(wk::OWL_EQUIVALENT_PROPERTY), V1)],
            vec![
                pattern(V0, Const(wk::RDFS_SUB_PROPERTY_OF), V1),
                pattern(V1, Const(wk::RDFS_SUB_PROPERTY_OF), V0),
            ],
            vec![],
        ),
        RuleId::ScmEqp2 => (
            vec![
                pattern(V0, Const(wk::RDFS_SUB_PROPERTY_OF), V1),
                pattern(V1, Const(wk::RDFS_SUB_PROPERTY_OF), V0),
            ],
            vec![pattern(V0, Const(wk::OWL_EQUIVALENT_PROPERTY), V1)],
            vec![],
        ),
        RuleId::ScmRng1 => (
            vec![
                pattern(V0, Const(wk::RDFS_RANGE), V1),
                pattern(V1, Const(wk::RDFS_SUB_CLASS_OF), V2),
            ],
            vec![pattern(V0, Const(wk::RDFS_RANGE), V2)],
            vec![],
        ),
        RuleId::ScmRng2 => (
            vec![
                pattern(V0, Const(wk::RDFS_RANGE), V1),
                pattern(V2, Const(wk::RDFS_SUB_PROPERTY_OF), V0),
            ],
            vec![pattern(V2, Const(wk::RDFS_RANGE), V1)],
            vec![],
        ),
        RuleId::ScmSco => (
            vec![
                pattern(V0, Const(wk::RDFS_SUB_CLASS_OF), V1),
                pattern(V1, Const(wk::RDFS_SUB_CLASS_OF), V2),
            ],
            vec![pattern(V0, Const(wk::RDFS_SUB_CLASS_OF), V2)],
            vec![],
        ),
        RuleId::ScmSpo => (
            vec![
                pattern(V0, Const(wk::RDFS_SUB_PROPERTY_OF), V1),
                pattern(V1, Const(wk::RDFS_SUB_PROPERTY_OF), V2),
            ],
            vec![pattern(V0, Const(wk::RDFS_SUB_PROPERTY_OF), V2)],
            vec![],
        ),
        RuleId::ScmCls => (
            vec![pattern(V0, Const(wk::RDF_TYPE), Const(wk::OWL_CLASS))],
            vec![
                pattern(V0, Const(wk::RDFS_SUB_CLASS_OF), V0),
                pattern(V0, Const(wk::OWL_EQUIVALENT_CLASS), V0),
                pattern(V0, Const(wk::RDFS_SUB_CLASS_OF), Const(wk::OWL_THING)),
                pattern(Const(wk::OWL_NOTHING), Const(wk::RDFS_SUB_CLASS_OF), V0),
            ],
            vec![],
        ),
        RuleId::ScmDp => (
            vec![pattern(
                V0,
                Const(wk::RDF_TYPE),
                Const(wk::OWL_DATATYPE_PROPERTY),
            )],
            vec![
                pattern(V0, Const(wk::RDFS_SUB_PROPERTY_OF), V0),
                pattern(V0, Const(wk::OWL_EQUIVALENT_PROPERTY), V0),
            ],
            vec![],
        ),
        RuleId::ScmOp => (
            vec![pattern(
                V0,
                Const(wk::RDF_TYPE),
                Const(wk::OWL_OBJECT_PROPERTY),
            )],
            vec![
                pattern(V0, Const(wk::RDFS_SUB_PROPERTY_OF), V0),
                pattern(V0, Const(wk::OWL_EQUIVALENT_PROPERTY), V0),
            ],
            vec![],
        ),
        RuleId::Rdfs4 => (
            vec![pattern(V0, V1, V2)],
            vec![
                pattern(V0, Const(wk::RDF_TYPE), Const(wk::RDFS_RESOURCE)),
                pattern(V2, Const(wk::RDF_TYPE), Const(wk::RDFS_RESOURCE)),
            ],
            vec![],
        ),
        RuleId::Rdfs8 => (
            vec![pattern(V0, Const(wk::RDF_TYPE), Const(wk::RDFS_CLASS))],
            vec![pattern(
                V0,
                Const(wk::RDFS_SUB_CLASS_OF),
                Const(wk::RDFS_RESOURCE),
            )],
            vec![],
        ),
        RuleId::Rdfs12 => (
            vec![pattern(
                V0,
                Const(wk::RDF_TYPE),
                Const(wk::RDFS_CONTAINER_MEMBERSHIP_PROPERTY),
            )],
            vec![pattern(
                V0,
                Const(wk::RDFS_SUB_PROPERTY_OF),
                Const(wk::RDFS_MEMBER),
            )],
            vec![],
        ),
        RuleId::Rdfs13 => (
            vec![pattern(V0, Const(wk::RDF_TYPE), Const(wk::RDFS_DATATYPE))],
            vec![pattern(
                V0,
                Const(wk::RDFS_SUB_CLASS_OF),
                Const(wk::RDFS_LITERAL),
            )],
            vec![],
        ),
        RuleId::Rdfs6 => (
            vec![pattern(V0, Const(wk::RDF_TYPE), Const(wk::RDF_PROPERTY))],
            vec![pattern(V0, Const(wk::RDFS_SUB_PROPERTY_OF), V0)],
            vec![],
        ),
        RuleId::Rdfs10 => (
            vec![pattern(V0, Const(wk::RDF_TYPE), Const(wk::RDFS_CLASS))],
            vec![pattern(V0, Const(wk::RDFS_SUB_CLASS_OF), V0)],
            vec![],
        ),
    };
    DatalogRule {
        id: RuleRef::Builtin(id),
        body,
        head,
        not_equal,
    }
}

/// The datalog encodings of every rule of a fragment's ruleset.
pub fn datalog_rules_for(fragment: Fragment) -> Vec<DatalogRule> {
    datalog_rules_of(&Ruleset::for_fragment(fragment))
}

/// The datalog encodings of every rule of `ruleset`: the built-ins through
/// [`datalog_rule`], the custom rules by a term-for-term copy of their
/// compiled patterns (at most four variables, the evaluator's binding
/// array).
pub fn datalog_rules_of(ruleset: &Ruleset) -> Vec<DatalogRule> {
    ruleset
        .all_refs()
        .into_iter()
        .map(|rule| match rule {
            RuleRef::Builtin(id) => datalog_rule(id),
            RuleRef::Custom(i) => custom_rule(rule, &ruleset.custom_rules()[i]),
        })
        .collect()
}

fn custom_rule(id: RuleRef, rule: &CompiledRule) -> DatalogRule {
    assert!(
        rule.var_count <= 4,
        "rule `{}` has {} variables; the evaluator binds at most 4",
        rule.name,
        rule.var_count
    );
    let term = |t: Term| match t {
        Term::Var(v) => Var(v as u8),
        Term::Const(c) => Const(c),
    };
    let patterns = |atoms: &[Atom]| {
        atoms
            .iter()
            .map(|a| pattern(term(a.s), term(a.p), term(a.o)))
            .collect()
    };
    DatalogRule {
        id,
        body: patterns(&rule.body),
        head: patterns(&rule.head),
        not_equal: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_an_encoding_with_consistent_variables() {
        for rule in RuleId::ALL {
            let encoded = datalog_rule(rule);
            assert_eq!(encoded.id, RuleRef::Builtin(rule));
            assert!(!encoded.body.is_empty());
            assert!(!encoded.head.is_empty());
            assert!(encoded.variable_count() <= 4, "{rule} uses too many vars");
            // Every head variable must be bound by the body (safety).
            let body_vars: std::collections::HashSet<u8> = encoded
                .body
                .iter()
                .flat_map(|p| [p.s, p.p, p.o])
                .filter_map(|t| match t {
                    PatTerm::Var(v) => Some(v),
                    PatTerm::Const(_) => None,
                })
                .collect();
            for head in &encoded.head {
                for term in [head.s, head.p, head.o] {
                    if let PatTerm::Var(v) = term {
                        assert!(body_vars.contains(&v), "{rule}: unbound head variable {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn body_sizes_match_the_rule_classes() {
        // Three-antecedent rules.
        for rule in [RuleId::PrpFp, RuleId::PrpIfp, RuleId::PrpTrp] {
            assert_eq!(datalog_rule(rule).body.len(), 3, "{rule}");
        }
        // Single-antecedent rules.
        for rule in [RuleId::EqSym, RuleId::ScmCls, RuleId::Rdfs4, RuleId::Rdfs10] {
            assert_eq!(datalog_rule(rule).body.len(), 1, "{rule}");
        }
        // Everything else has two antecedents.
        assert_eq!(datalog_rule(RuleId::CaxSco).body.len(), 2);
        assert_eq!(datalog_rule(RuleId::EqRepS).body.len(), 2);
    }

    #[test]
    fn functional_rules_carry_disequality_filters() {
        assert_eq!(datalog_rule(RuleId::PrpFp).not_equal, vec![(2, 3)]);
        assert_eq!(datalog_rule(RuleId::PrpIfp).not_equal, vec![(1, 2)]);
        assert!(datalog_rule(RuleId::CaxSco).not_equal.is_empty());
    }

    #[test]
    fn fragment_rule_counts_match_the_rulesets() {
        assert_eq!(datalog_rules_for(Fragment::RhoDf).len(), 8);
        assert_eq!(datalog_rules_for(Fragment::RdfsDefault).len(), 10);
        assert_eq!(datalog_rules_for(Fragment::RdfsFull).len(), 16);
        assert_eq!(datalog_rules_for(Fragment::RdfsPlus).len(), 29);
        assert_eq!(datalog_rules_for(Fragment::RdfsPlusFull).len(), 33);
    }
}
