//! The schema stratum and the elision relation: two facts about a rule
//! program, derived from its rule texts alone (`docs/rule-scheduling.md`,
//! "Schema stratum and elided firings").
//!
//! * **The schema stratum** is the set of member rules whose fixed input and
//!   output tables no rule outside the set writes through a fixed output —
//!   the greatest such set, found by expelling offenders until none is left.
//!   For RDFS-default that is SCM-SCO, SCM-SPO, SCM-DOM1/2 and SCM-RNG1/2:
//!   CAX-SCO reads and writes `rdf:type`, which PRP-DOM writes too. Nothing
//!   outside the stratum feeds it except through a *dynamic* output (PRP-SPO1
//!   under `p rdfs:subPropertyOf rdfs:domain`), which the reasoner watches
//!   for at run time. So the stratum can run to its own fixed point before
//!   any data rule fires.
//! * **The elision relation** holds the pairs `C∘P` — consumer `C` fed by
//!   producer `P`, neither in the stratum — for which every derivation of
//!   `C` from a triple `P` has just emitted is already derived from `P`'s
//!   premises, provided the stratum's tables are closed. The proof unifies
//!   `P`'s head into `C`'s one data atom, chases the stratum atoms of the
//!   composed body under the stratum rules, and accepts only if `C`'s head is
//!   then derived by `P` on `P`'s own data premise, or by `C` on it. A rule
//!   with two data atoms, a head that cannot be bound, or a pair whose heads
//!   never unify is never accepted: it stays scheduled.
//!
//! The pass runs over compiled rules, so the catalog built-ins (through their
//! rule texts, [`super::compiled_builtin`]) and an analyzer-loaded
//! program's custom rules are treated alike.

use super::compile::{Atom, CompiledRule, Term};
use super::signature::{RuleInputs, RuleOutputs};
use crate::ruleset::RuleRef;
use std::collections::BTreeSet;

/// A member rule as the passes read it: its reference and its text.
pub(crate) type Member<'a> = (RuleRef, &'a CompiledRule);

/// One proven redundancy: once `producer` emitted a triple, `consumer`
/// derives nothing from it that `witness` (the producer or the consumer
/// itself) did not already derive from the producer's data premise and the
/// closed stratum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Elision {
    /// The rule left out of the schedule.
    pub consumer: RuleRef,
    /// The rule whose output it would have read.
    pub producer: RuleRef,
    /// The rule that derives the consumer's head on the producer's data
    /// premise.
    pub witness: RuleRef,
}

fn fixed_signature(rule: &CompiledRule) -> Option<(&[u64], &[u64])> {
    match (&rule.inputs, &rule.outputs) {
        (RuleInputs::Properties(reads), RuleOutputs::Properties(writes)) => Some((reads, writes)),
        _ => None,
    }
}

/// The schema stratum of `members`, in member order.
pub(crate) fn schema_stratum(members: &[Member<'_>]) -> Vec<RuleRef> {
    let mut inside: Vec<bool> = members
        .iter()
        .map(|(_, rule)| fixed_signature(rule).is_some())
        .collect();
    loop {
        let written_outside: BTreeSet<u64> = members
            .iter()
            .zip(&inside)
            .filter(|(_, &inside)| !inside)
            .filter_map(|((_, rule), _)| match &rule.outputs {
                RuleOutputs::Properties(writes) => Some(writes.iter().copied()),
                _ => None,
            })
            .flatten()
            .collect();
        let mut expelled = false;
        for (k, (_, rule)) in members.iter().enumerate() {
            let Some((reads, writes)) = fixed_signature(rule).filter(|_| inside[k]) else {
                continue;
            };
            if reads
                .iter()
                .chain(writes)
                .any(|p| written_outside.contains(p))
            {
                inside[k] = false;
                expelled = true;
            }
        }
        if !expelled {
            break;
        }
    }
    members
        .iter()
        .zip(inside)
        .filter(|(_, inside)| *inside)
        .map(|((rule, _), _)| *rule)
        .collect()
}

/// The tables the `stratum` members read and write, ascending.
pub(crate) fn stratum_tables(members: &[Member<'_>], stratum: &[RuleRef]) -> Vec<u64> {
    let tables: BTreeSet<u64> = members
        .iter()
        .filter(|(rule, _)| stratum.contains(rule))
        .filter_map(|(_, rule)| fixed_signature(rule))
        .flat_map(|(reads, writes)| reads.iter().chain(writes).copied())
        .collect();
    tables.into_iter().collect()
}

/// Every pair `C∘P` of members outside `stratum` the proof accepts, in
/// member order of the consumer, then of the producer.
pub(crate) fn elisions(members: &[Member<'_>], stratum: &[RuleRef]) -> Vec<Elision> {
    let tables: BTreeSet<u64> = stratum_tables(members, stratum).into_iter().collect();
    let stratum_rules: Vec<&CompiledRule> = members
        .iter()
        .filter(|(rule, _)| stratum.contains(rule))
        .map(|(_, rule)| *rule)
        .collect();
    let outside: Vec<Member<'_>> = members
        .iter()
        .filter(|(rule, _)| !stratum.contains(rule))
        .copied()
        .collect();
    let mut found = Vec::new();
    for &consumer in &outside {
        for &producer in &outside {
            if let Some(witness) = prove(consumer, producer, &stratum_rules, &tables) {
                found.push(Elision {
                    consumer: consumer.0,
                    producer: producer.0,
                    witness,
                });
            }
        }
    }
    found
}

fn is_schema(atom: &Atom, tables: &BTreeSet<u64>) -> bool {
    atom.p.as_const().is_some_and(|p| tables.contains(&p))
}

/// A rule's one data atom and its stratum atoms; `None` unless exactly one
/// body atom lies outside the stratum's tables.
fn split(rule: &CompiledRule, tables: &BTreeSet<u64>) -> Option<(Atom, Vec<Atom>)> {
    let (schema, data): (Vec<Atom>, Vec<Atom>) =
        rule.body.iter().partition(|atom| is_schema(atom, tables));
    match data.as_slice() {
        [data] => Some((*data, schema)),
        _ => None,
    }
}

fn shifted(atom: Atom, by: u32) -> Atom {
    let shift = |t: Term| match t {
        Term::Var(v) => Term::Var(v + by),
        constant => constant,
    };
    Atom {
        s: shift(atom.s),
        p: shift(atom.p),
        o: shift(atom.o),
    }
}

/// A most general unifier under construction: `Var(v)` bound to a term.
struct Unifier(Vec<Option<Term>>);

impl Unifier {
    fn walk(&self, mut term: Term) -> Term {
        while let Term::Var(v) = term {
            match self.0[v as usize] {
                Some(bound) => term = bound,
                None => break,
            }
        }
        term
    }

    fn unify(&mut self, a: Term, b: Term) -> bool {
        match (self.walk(a), self.walk(b)) {
            (a, b) if a == b => true,
            (Term::Var(v), other) | (other, Term::Var(v)) => {
                self.0[v as usize] = Some(other);
                true
            }
            _ => false,
        }
    }

    fn unify_atoms(&mut self, a: Atom, b: Atom) -> bool {
        self.unify(a.s, b.s) && self.unify(a.p, b.p) && self.unify(a.o, b.o)
    }

    /// `atom` under the unifier; the variables left are the composed
    /// body's free symbols.
    fn apply(&self, atom: Atom) -> Atom {
        Atom {
            s: self.walk(atom.s),
            p: self.walk(atom.p),
            o: self.walk(atom.o),
        }
    }
}

/// The witness of `consumer∘producer`, if the proof goes through.
fn prove(
    consumer: Member<'_>,
    producer: Member<'_>,
    stratum_rules: &[&CompiledRule],
    tables: &BTreeSet<u64>,
) -> Option<RuleRef> {
    let (c_data, c_schema) = split(consumer.1, tables)?;
    let (p_data, p_schema) = split(producer.1, tables)?;
    let shift = consumer.1.var_count;
    let mut witness = None;
    for &head in &producer.1.head {
        let head = shifted(head, shift);
        // A head on a stratum table re-opens the stratum, which the
        // reasoner sees at run time; it cannot feed the data atom.
        if is_schema(&head, tables) {
            continue;
        }
        let mut unifier = Unifier(vec![None; (shift + producer.1.var_count) as usize]);
        if !unifier.unify_atoms(head, c_data) {
            continue;
        }
        let schema: BTreeSet<Atom> = c_schema
            .iter()
            .copied()
            .chain(p_schema.iter().map(|&atom| shifted(atom, shift)))
            .map(|atom| unifier.apply(atom))
            .collect();
        let schema: Vec<Atom> = chase(schema, stratum_rules).into_iter().collect();
        let data = unifier.apply(shifted(p_data, shift));
        let goals: Vec<Atom> = consumer
            .1
            .head
            .iter()
            .map(|&atom| unifier.apply(atom))
            .collect();
        let (by, _) = [producer, consumer].into_iter().find(|(_, rule)| {
            let derived = heads(rule, |atom| {
                if is_schema(atom, tables) {
                    &schema[..]
                } else {
                    std::slice::from_ref(&data)
                }
            });
            goals.iter().all(|goal| derived.contains(goal))
        })?;
        witness.get_or_insert(by);
    }
    witness
}

/// `facts` closed under the stratum rules. Datalog without new terms: it
/// terminates.
fn chase(mut facts: BTreeSet<Atom>, stratum_rules: &[&CompiledRule]) -> BTreeSet<Atom> {
    loop {
        let pool: Vec<Atom> = facts.iter().copied().collect();
        let mut grew = false;
        for rule in stratum_rules {
            for head in heads(rule, |_| &pool[..]) {
                grew |= facts.insert(head);
            }
        }
        if !grew {
            return facts;
        }
    }
}

/// Every head `rule` derives when each body atom ranges over the facts
/// `pool(atom)` returns. A fact's variables are opaque symbols: a rule
/// constant matches only the same constant.
fn heads<'p>(rule: &CompiledRule, pool: impl Fn(&Atom) -> &'p [Atom]) -> BTreeSet<Atom> {
    fn bind(pattern: Term, fact: Term, binding: &mut [Option<Term>]) -> bool {
        match pattern {
            Term::Const(_) => pattern == fact,
            Term::Var(v) => match binding[v as usize] {
                Some(bound) => bound == fact,
                None => {
                    binding[v as usize] = Some(fact);
                    true
                }
            },
        }
    }
    fn walk<'p>(
        rule: &CompiledRule,
        pool: &impl Fn(&Atom) -> &'p [Atom],
        at: usize,
        binding: &[Option<Term>],
        out: &mut BTreeSet<Atom>,
    ) {
        let Some(atom) = rule.body.get(at) else {
            let resolve = |t: Term| match t {
                Term::Var(v) => binding[v as usize],
                constant => Some(constant),
            };
            for head in &rule.head {
                if let (Some(s), Some(p), Some(o)) =
                    (resolve(head.s), resolve(head.p), resolve(head.o))
                {
                    out.insert(Atom { s, p, o });
                }
            }
            return;
        };
        for fact in pool(atom) {
            let mut next = binding.to_vec();
            if bind(atom.s, fact.s, &mut next)
                && bind(atom.p, fact.p, &mut next)
                && bind(atom.o, fact.o, &mut next)
            {
                walk(rule, pool, at + 1, &next, out);
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(
        rule,
        &pool,
        0,
        &vec![None; rule.var_count as usize],
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::compile::compiled_builtin;
    use crate::catalog::RuleId;
    use crate::ruleset::{Fragment, Ruleset};

    fn members(fragment: Fragment) -> Vec<(RuleRef, &'static CompiledRule)> {
        Ruleset::for_fragment(fragment)
            .rules()
            .iter()
            .map(|&id| (RuleRef::Builtin(id), compiled_builtin(id)))
            .collect()
    }

    fn names(rules: &[RuleRef]) -> Vec<String> {
        rules.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn the_stratum_is_derived_not_listed() {
        let rdfs = members(Fragment::RdfsDefault);
        assert_eq!(
            names(&schema_stratum(&rdfs)),
            ["SCM-DOM1", "SCM-DOM2", "SCM-RNG1", "SCM-RNG2", "SCM-SCO", "SCM-SPO"]
        );
        let plus = members(Fragment::RdfsPlus);
        assert_eq!(
            names(&schema_stratum(&plus)),
            [
                "SCM-DOM1", "SCM-DOM2", "SCM-EQC1", "SCM-EQC2", "SCM-EQP1", "SCM-EQP2", "SCM-RNG1",
                "SCM-RNG2", "SCM-SCO", "SCM-SPO"
            ]
        );
        // The full flavours' axiomatic rules write subClassOf and
        // subPropertyOf from rdf:type, which the data rules write: nothing
        // is left.
        assert!(schema_stratum(&members(Fragment::RdfsFull)).is_empty());
        assert!(schema_stratum(&members(Fragment::RdfsPlusFull)).is_empty());
    }

    #[test]
    fn a_consumer_with_two_data_atoms_is_never_elided() {
        let plus = members(Fragment::RdfsPlus);
        let stratum = schema_stratum(&plus);
        for elision in elisions(&plus, &stratum) {
            let RuleRef::Builtin(id) = elision.consumer else {
                unreachable!("fragments have no custom rules")
            };
            assert!(
                !matches!(
                    id,
                    RuleId::EqRepO
                        | RuleId::EqRepS
                        | RuleId::EqRepP
                        | RuleId::PrpFp
                        | RuleId::PrpTrp
                ),
                "{elision:?}"
            );
        }
    }

    #[test]
    fn witnesses_are_the_producer_or_the_consumer() {
        let rdfs = members(Fragment::RdfsDefault);
        let stratum = schema_stratum(&rdfs);
        for elision in elisions(&rdfs, &stratum) {
            assert!(elision.witness == elision.producer || elision.witness == elision.consumer);
        }
        let sco = RuleRef::Builtin(RuleId::CaxSco);
        let dom = RuleRef::Builtin(RuleId::PrpDom);
        let found = elisions(&rdfs, &stratum);
        // x p y, p domain c1, c1 ⊑ c2: PRP-DOM itself reaches c2 once
        // SCM-DOM1 closed the domains.
        assert!(found.contains(&Elision {
            consumer: sco,
            producer: dom,
            witness: dom
        }));
    }
}
