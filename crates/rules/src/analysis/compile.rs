//! Lowering: symbolic rules → dictionary-encoded [`CompiledRule`]s with
//! derived signatures, plus recognition of built-in catalog rules.
//!
//! Constant terms are interned through the *same* property/resource routing
//! the dictionary applies to data triples: a constant in predicate position
//! is always a property; a subject/object constant is a property exactly
//! when `inferray_dictionary::position_demands` — the one rule the encoder
//! and the streaming ingest apply — says so. Sharing the routing is what
//! makes a compiled rule address exactly the tables the data occupies.

use super::builtin::PRELUDE;
use super::check::{canonicalize, CanonAtom};
use super::diag::{Diagnostic, Severity};
use super::parse::{parse, SymAtom, SymRule, SymTerm};
use super::signature::{derive_inputs, derive_outputs, RuleInputs, RuleOutputs};
use crate::catalog::{RuleId, CATALOG};
use inferray_dictionary::{position_demands, Demand, Dictionary};
use inferray_model::Term as ModelTerm;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A term of a lowered triple pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Term {
    /// A variable, numbered by first occurrence within its rule.
    Var(u32),
    /// A dictionary-encoded constant.
    Const(u64),
}

impl Term {
    /// The constant value, if this is a constant.
    pub fn as_const(self) -> Option<u64> {
        match self {
            Term::Const(value) => Some(value),
            Term::Var(_) => None,
        }
    }

    /// The variable number, if this is a variable.
    pub fn as_var(self) -> Option<u32> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

/// A lowered triple pattern `s p o`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Atom {
    /// Subject term.
    pub s: Term,
    /// Predicate term.
    pub p: Term,
    /// Object term.
    pub o: Term,
}

/// One analyzer-compiled rule, ready for the generic semi-naive executor
/// and the scheduling/rederivation machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledRule {
    /// The declared rule name.
    pub name: String,
    /// Number of distinct variables (`Term::Var(v)` has `v < var_count`).
    pub var_count: u32,
    /// Body patterns, in written order.
    pub body: Vec<Atom>,
    /// Head patterns, in written order.
    pub head: Vec<Atom>,
    /// Derived input (scheduling) signature.
    pub inputs: RuleInputs,
    /// Derived output (rederivation) signature.
    pub outputs: RuleOutputs,
}

/// The result of compiling an analyzed rule file against a dictionary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledRuleset {
    /// The compiled rules, in file order.
    pub rules: Vec<CompiledRule>,
    /// Per rule: the catalog builtin it is alpha-equivalent to, if any.
    pub recognized: Vec<Option<RuleId>>,
    /// Advisory notes produced during lowering (`RA009` fallbacks).
    pub notes: Vec<Diagnostic>,
}

impl CompiledRuleset {
    /// The recognized builtin of rule `i`, if any.
    pub fn builtin_of(&self, i: usize) -> Option<RuleId> {
        self.recognized.get(i).copied().flatten()
    }
}

struct RuleLowerer<'a> {
    dict: &'a mut Dictionary,
    vars: HashMap<String, u32>,
    diags: Vec<Diagnostic>,
}

impl RuleLowerer<'_> {
    fn var(&mut self, name: &str) -> Term {
        let next = self.vars.len() as u32;
        Term::Var(*self.vars.entry(name.to_string()).or_insert(next))
    }

    fn property(&mut self, iri: &str, atom: &SymAtom) -> Term {
        match self.dict.encode_as_property(&ModelTerm::iri(iri)) {
            Ok(id) => Term::Const(id),
            Err(err) => {
                self.diags.push(Diagnostic::new(
                    "RA010",
                    Severity::Error,
                    atom.span.line,
                    atom.span.col,
                    format!("`<{iri}>` cannot be used as a property: {err}"),
                ));
                Term::Const(0)
            }
        }
    }

    fn resource(&mut self, iri: &str) -> Term {
        Term::Const(self.dict.encode_as_resource(&ModelTerm::iri(iri)))
    }

    /// `Dictionary::encode_triple`'s property/resource routing
    /// ([`position_demands`]) for one pattern whose positions may be
    /// variables: a variable predicate demands nothing of either end.
    fn atom(&mut self, atom: &SymAtom) -> Atom {
        let object_iri = match &atom.o {
            SymTerm::Iri(iri) => Some(iri.as_str()),
            SymTerm::Var(_) => None,
        };
        let (p, (subject_demand, object_demand)) = match &atom.p {
            SymTerm::Var(name) => (self.var(name), (Demand::Resource, Demand::Resource)),
            SymTerm::Iri(iri) => (
                self.property(iri, atom),
                position_demands(true, iri, object_iri),
            ),
        };
        let s = self.position(&atom.s, subject_demand, atom);
        let o = self.position(&atom.o, object_demand, atom);
        Atom { s, p, o }
    }

    /// A subject or object position under `demand`.
    fn position(&mut self, term: &SymTerm, demand: Demand, atom: &SymAtom) -> Term {
        match term {
            SymTerm::Var(name) => self.var(name),
            SymTerm::Iri(iri) if demand == Demand::Property => self.property(iri, atom),
            SymTerm::Iri(iri) => self.resource(iri),
        }
    }
}

fn lower_rule(rule: &SymRule, dict: &mut Dictionary) -> (CompiledRule, Vec<Diagnostic>) {
    let mut lowerer = RuleLowerer {
        dict,
        vars: HashMap::new(),
        diags: Vec::new(),
    };
    let body: Vec<Atom> = rule.body.iter().map(|a| lowerer.atom(a)).collect();
    let head: Vec<Atom> = rule.head.iter().map(|a| lowerer.atom(a)).collect();
    let inputs = derive_inputs(&body);
    let outputs = derive_outputs(&head, &body);
    let mut diags = lowerer.diags;
    if inputs.is_whole_store() && body.len() > 1 {
        diags.push(Diagnostic::new(
            "RA009",
            Severity::Info,
            rule.span.line,
            rule.span.col,
            format!(
                "rule `{}` has no precise input signature ({}): it is considered on every iteration while its guard holds",
                rule.name, inputs
            ),
        ));
    }
    (
        CompiledRule {
            name: rule.name.clone(),
            var_count: lowerer.vars.len() as u32,
            body,
            head,
            inputs,
            outputs,
        },
        diags,
    )
}

/// Lowers analyzed rules against `dict`, deriving signatures and recognizing
/// built-ins. `Err` carries the `RA010` lowering errors (plus any advisory
/// notes); symbolic-stage errors must be handled before calling this.
pub(super) fn lower(
    rules: &[SymRule],
    dict: &mut Dictionary,
) -> Result<CompiledRuleset, Vec<Diagnostic>> {
    let mut compiled = Vec::with_capacity(rules.len());
    let mut recognized = Vec::with_capacity(rules.len());
    let mut notes = Vec::new();
    for rule in rules {
        let (lowered, diags) = lower_rule(rule, dict);
        notes.extend(diags);
        recognized.push(recognize(rule));
        compiled.push(lowered);
    }
    if notes.iter().any(Diagnostic::is_error) {
        return Err(notes);
    }
    Ok(CompiledRuleset {
        rules: compiled,
        recognized,
        notes,
    })
}

/// A catalog row's text, parsed once: its canonical form for [`recognize`]
/// and its lowering for [`compiled_builtin`].
struct Builtin {
    canon: (Vec<CanonAtom>, Vec<CanonAtom>),
    compiled: CompiledRule,
}

/// The 38 catalog texts, in catalog order, parsed and lowered once per
/// process.
fn builtins() -> &'static [Builtin] {
    static TABLE: OnceLock<Vec<Builtin>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut dict = Dictionary::new();
        CATALOG
            .iter()
            .map(|info| {
                let (rules, diags) = parse(&format!("{PRELUDE}{}", info.text));
                debug_assert!(diags.is_empty(), "{}: {diags:?}", info.name);
                let [rule] = rules.as_slice() else {
                    panic!("{}: a catalog text holds one rule", info.name)
                };
                let (compiled, diags) = lower_rule(rule, &mut dict);
                debug_assert!(
                    !diags.iter().any(Diagnostic::is_error),
                    "{}: {diags:?}",
                    info.name
                );
                Builtin {
                    canon: canonicalize(rule),
                    compiled,
                }
            })
            .collect()
    })
}

/// The catalog builtin `rule` is alpha-equivalent to, if any. Recognition is
/// purely structural (variable renaming only — atom order matters), which is
/// exactly how the shipped fragment files are generated, so round-tripping
/// through text always recognizes.
pub fn recognize(rule: &SymRule) -> Option<RuleId> {
    let canon = canonicalize(rule);
    builtins()
        .iter()
        .position(|builtin| builtin.canon == canon)
        .map(|i| CATALOG[i].id)
}

/// Built-in `id`'s catalog text, lowered: the signatures the scheduler and
/// the delete–rederive seed read. Every constant of those texts is a
/// well-known term, so the identifiers are the ones any dictionary assigns.
/// Read through [`crate::Ruleset::compiled`].
pub(crate) fn compiled_builtin(id: RuleId) -> &'static CompiledRule {
    &builtins()[id as usize].compiled
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_dictionary::wellknown as wk;

    fn compile_one(text: &str) -> (CompiledRule, Option<RuleId>, Dictionary) {
        let mut dict = Dictionary::new();
        let (rules, diags) = parse(text);
        assert!(diags.is_empty(), "{diags:?}");
        let compiled = lower(&rules, &mut dict).expect("lowers");
        (compiled.rules[0].clone(), compiled.recognized[0], dict)
    }

    #[test]
    fn lowers_wellknown_constants_to_wellknown_ids() {
        let (rule, recognized, _) = compile_one(&format!(
            "{}{}",
            PRELUDE, "rule t: ?c1 rdfs:subClassOf ?c2, ?x a ?c1 => ?x a ?c2 ."
        ));
        assert_eq!(rule.body[0].p, Term::Const(wk::RDFS_SUB_CLASS_OF));
        assert_eq!(rule.body[1].p, Term::Const(wk::RDF_TYPE));
        assert_eq!(rule.var_count, 3);
        assert_eq!(
            recognized,
            Some(RuleId::CaxSco),
            "shape match despite the name"
        );
    }

    #[test]
    fn property_position_routing_matches_encode_triple() {
        // A marker object stays a resource; a subPropertyOf object becomes a
        // property; an rdf:type subject with a property-class object becomes
        // a property.
        let (rule, _, dict) = compile_one(&format!(
            "{}{}",
            PRELUDE,
            "rule t: <urn:my-p> a owl:TransitiveProperty => <urn:my-p> rdfs:subPropertyOf rdfs:member ."
        ));
        assert_eq!(rule.body[0].o, Term::Const(wk::OWL_TRANSITIVE_PROPERTY));
        let my_p = rule.body[0].s.as_const().expect("constant");
        assert!(inferray_model::ids::is_property_id(my_p));
        assert_eq!(rule.head[0].s, Term::Const(my_p));
        assert_eq!(rule.head[0].o, Term::Const(wk::RDFS_MEMBER));
        assert_eq!(dict.id_of_iri("urn:my-p"), Some(my_p));
    }

    #[test]
    fn custom_rule_gets_derived_signature_and_no_recognition() {
        let (rule, recognized, dict) = compile_one(
            "rule gp: ?x <urn:parent> ?y, ?y <urn:parent> ?z => ?x <urn:grandparent> ?z .",
        );
        assert_eq!(recognized, None);
        let parent = dict.id_of_iri("urn:parent").expect("interned");
        let grandparent = dict.id_of_iri("urn:grandparent").expect("interned");
        assert_eq!(rule.inputs, RuleInputs::Properties(vec![parent]));
        assert_eq!(rule.outputs, RuleOutputs::Properties(vec![grandparent]));
    }

    #[test]
    fn whole_store_fallback_notes_ra009() {
        let mut dict = Dictionary::new();
        let (rules, _) = parse(&format!(
            "{}{}",
            PRELUDE, "rule r: ?s1 owl:sameAs ?s2, ?s1 ?p ?o => ?s2 ?p ?o ."
        ));
        let compiled = lower(&rules, &mut dict).expect("lowers");
        assert_eq!(
            compiled.notes.iter().filter(|d| d.code == "RA009").count(),
            1
        );
        assert_eq!(compiled.notes[0].severity, Severity::Info);
        assert_eq!(compiled.recognized[0], Some(RuleId::EqRepS));
    }

    #[test]
    fn every_catalog_text_recognizes_itself() {
        for info in CATALOG.iter() {
            let (rules, diags) = parse(&format!("{PRELUDE}{}", info.text));
            assert!(diags.is_empty(), "{}: {diags:?}", info.name);
            assert_eq!(recognize(&rules[0]), Some(info.id));
        }
    }

    /// What makes [`compiled_builtin`]'s identifiers valid in every
    /// dictionary: lowering the 38 texts into a fresh one interns nothing.
    #[test]
    fn catalog_texts_use_only_well_known_terms() {
        let mut dict = Dictionary::new();
        let before = dict.len();
        for info in CATALOG.iter() {
            let (rules, _) = parse(&format!("{PRELUDE}{}", info.text));
            let compiled = lower(&rules, &mut dict).expect("catalog texts lower");
            assert_eq!(
                compiled.rules[0],
                *compiled_builtin(info.id),
                "{}",
                info.name
            );
        }
        assert_eq!(dict.len(), before, "a catalog text interned a new term");
    }
}
