//! The semi-naive executor for compiled rules, plus the one-step support
//! probe the delete–rederive path uses.
//!
//! Every rule, built-in or custom, runs here. [`apply_compiled`] runs the
//! kernel the rule's shape picks ([`super::lowering()`]): the merge join,
//! the table scan, the transitive closure, the substitution, the self join,
//! or — for every other shape — the nested-loop join of this module, a
//! backtracking join over the sorted pair tables that evaluates the body
//! atoms in written order. No kernel performs presence filtering — during
//! rederivation after an over-deletion the stores intentionally lack the
//! deleted triples, and a derivation must be reported even when it
//! reproduces an existing pair (the merge dedups).
//!
//! [`supports`] probes every rule, built-in or custom, through its text;
//! the shapes whose kernel derives something other than the text — a
//! symmetric closure, a self join — narrow or replace that probe
//! ([`crate::support`]).

use super::compile::{Atom, CompiledRule, Term};
use super::lowering::{lowering, Lowering};
use crate::context::RuleContext;
use crate::executors::{gamma, join, self_join, substitution, theta};
use crate::support::{self, Survivors};
use inferray_model::ids::is_property_id;
use inferray_model::IdTriple;
use inferray_store::{InferredBuffer, TripleStore};

/// Variable bindings, indexed by `Term::Var` number.
type Bindings = [Option<u64>];

/// The variables a probe binds without allocating: every catalog text has
/// fewer, so probing a built-in stays off the heap.
const INLINE_BINDINGS: usize = 8;

fn resolve(term: Term, bindings: &Bindings) -> Option<u64> {
    match term {
        Term::Const(value) => Some(value),
        Term::Var(v) => bindings[v as usize],
    }
}

/// Unifies `term` with `value`; returns `None` on mismatch, `Some(v)` with
/// the variable that was newly bound (for undo), `Some(None)` otherwise.
#[allow(clippy::option_option)]
fn unify(term: Term, value: u64, bindings: &mut Bindings) -> Option<Option<u32>> {
    match term {
        Term::Const(c) => (c == value).then_some(None),
        Term::Var(v) => match bindings[v as usize] {
            Some(bound) => (bound == value).then_some(None),
            None => {
                bindings[v as usize] = Some(value);
                Some(Some(v))
            }
        },
    }
}

fn undo(newly: Option<u32>, bindings: &mut Bindings) {
    if let Some(v) = newly {
        bindings[v as usize] = None;
    }
}

/// Matches one atom against one table, continuing with `cont` for every
/// consistent extension of `bindings`. Returns `false` when `cont` asked to
/// stop the search.
fn match_in_table(
    atom: &Atom,
    table: &inferray_store::PropertyTable,
    bindings: &mut Bindings,
    cont: &mut dyn FnMut(&mut Bindings) -> bool,
) -> bool {
    match (resolve(atom.s, bindings), resolve(atom.o, bindings)) {
        (Some(s), Some(o)) => !table.contains_pair(s, o) || cont(bindings),
        (Some(s), None) => {
            for o in table.objects_of(s) {
                let Some(newly) = unify(atom.o, o, bindings) else {
                    continue;
                };
                let keep = cont(bindings);
                undo(newly, bindings);
                if !keep {
                    return false;
                }
            }
            true
        }
        (None, Some(o)) => {
            for s in table.subjects_of(o) {
                let Some(newly) = unify(atom.s, s, bindings) else {
                    continue;
                };
                let keep = cont(bindings);
                undo(newly, bindings);
                if !keep {
                    return false;
                }
            }
            true
        }
        (None, None) => {
            for (s, o) in table.iter_pairs() {
                let Some(newly_s) = unify(atom.s, s, bindings) else {
                    continue;
                };
                let Some(newly_o) = unify(atom.o, o, bindings) else {
                    undo(newly_s, bindings);
                    continue;
                };
                let keep = cont(bindings);
                undo(newly_o, bindings);
                undo(newly_s, bindings);
                if !keep {
                    return false;
                }
            }
            true
        }
    }
}

/// Matches one atom against `store`, dispatching on whether the predicate is
/// resolved. Returns `false` when the continuation stopped the search.
fn match_atom(
    atom: &Atom,
    store: &TripleStore,
    bindings: &mut Bindings,
    cont: &mut dyn FnMut(&mut Bindings) -> bool,
) -> bool {
    match resolve(atom.p, bindings) {
        Some(p) => {
            // A predicate variable bound from a subject/object position can
            // hold a resource identifier — no table, no match.
            if !is_property_id(p) {
                return true;
            }
            match store.table(p) {
                Some(table) => match_in_table(atom, table, bindings, cont),
                None => true,
            }
        }
        None => {
            for (p, table) in store.iter_tables() {
                let Some(newly) = unify(atom.p, p, bindings) else {
                    continue;
                };
                let keep = match_in_table(atom, table, bindings, cont);
                undo(newly, bindings);
                if !keep {
                    return false;
                }
            }
            true
        }
    }
}

/// Solves body atoms `idx..` with atom `new_idx` matched against `ctx.new`
/// and the rest against `ctx.main`.
fn solve(
    rule: &CompiledRule,
    idx: usize,
    new_idx: usize,
    ctx: &RuleContext<'_>,
    bindings: &mut Bindings,
    sink: &mut dyn FnMut(&mut Bindings) -> bool,
) -> bool {
    let Some(atom) = rule.body.get(idx) else {
        return sink(bindings);
    };
    let store = if idx == new_idx { ctx.new } else { ctx.main };
    match_atom(atom, store, bindings, &mut |bindings| {
        solve(rule, idx + 1, new_idx, ctx, bindings, sink)
    })
}

fn emit(rule: &CompiledRule, bindings: &Bindings, out: &mut InferredBuffer) {
    for atom in &rule.head {
        let (Some(s), Some(p), Some(o)) = (
            resolve(atom.s, bindings),
            resolve(atom.p, bindings),
            resolve(atom.o, bindings),
        ) else {
            debug_assert!(false, "safety check guarantees ground heads");
            continue;
        };
        // As in the table scan: a head predicate bound to a non-property
        // identifier has no table to land in.
        if !is_property_id(p) {
            continue;
        }
        out.add(p, s, o);
    }
}

/// Fires `rule` semi-naively through the kernel its shape picks: for each
/// body position `i`, joins atom `i` against `ctx.new` and every other atom
/// against `ctx.main` (`new ⊆ main`) — a single pass when the frontier is
/// the whole store, where every position reads the same tables. Derived
/// pairs append to `out`; the caller's merge dedups.
pub fn apply_compiled(rule: &CompiledRule, ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    apply_lowered(rule, &lowering(rule), ctx, out);
}

/// [`apply_compiled`] through a given kernel: `lowering` is
/// [`lowering()`]`(rule)`, or [`Lowering::NestedLoop`], which every rule can
/// run — the reference the kernels are held to.
pub fn apply_lowered(
    rule: &CompiledRule,
    lowering: &Lowering,
    ctx: &RuleContext<'_>,
    out: &mut InferredBuffer,
) {
    match lowering {
        Lowering::MergeJoin(plan) => join::apply_merge_join(plan, ctx, out),
        Lowering::TableScan(plan) => gamma::apply_table_scan(plan, ctx, out),
        Lowering::Closure(plan) => theta::apply_closure(plan, ctx, out),
        Lowering::Substitution(plan) => substitution::apply_substitution(plan, ctx, out),
        Lowering::SelfJoin(plan) => self_join::apply_self_join(plan, ctx, out),
        Lowering::NestedLoop => nested_loop(rule, ctx, out),
    }
}

/// The backtracking join, one pass per body position.
fn nested_loop(rule: &CompiledRule, ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    let mut bindings = vec![None; rule.var_count as usize];
    let passes = if ctx.is_whole() {
        rule.body.len().min(1)
    } else {
        rule.body.len()
    };
    for new_idx in 0..passes {
        solve(rule, 0, new_idx, ctx, &mut bindings, &mut |bindings| {
            emit(rule, bindings, out);
            true
        });
    }
}

/// One-step support probe: `true` when some body match of `rule` in `view`
/// derives exactly `triple` — sound and complete for a single derivation
/// step. A symmetric closure answers through its own probe, and a self join
/// only for a pair it links smaller first ([`crate::support`]).
pub fn supports(rule: &CompiledRule, view: Survivors<'_>, triple: IdTriple) -> bool {
    if let Some(holds) = support::is_supported(rule, view, triple) {
        return holds;
    }
    let (mut inline, mut spilled) = ([None; INLINE_BINDINGS], Vec::new());
    let bindings: &mut Bindings = match inline.get_mut(..rule.var_count as usize) {
        Some(bindings) => bindings,
        None => {
            spilled.resize(rule.var_count as usize, None);
            &mut spilled
        }
    };
    rule.head.iter().any(|head| {
        bindings.fill(None);
        let mut found = false;
        let unified = unify(head.s, triple.s, bindings).is_some()
            && unify(head.p, triple.p, bindings).is_some()
            && unify(head.o, triple.o, bindings).is_some();
        if unified {
            solve_all(rule, 0, view, bindings, &mut found);
        }
        found
    })
}

fn solve_all(
    rule: &CompiledRule,
    idx: usize,
    view: Survivors<'_>,
    bindings: &mut Bindings,
    found: &mut bool,
) -> bool {
    let Some(atom) = rule.body.get(idx) else {
        *found = true;
        return false; // stop the search — one witness is enough
    };
    match_atom(atom, view.store(), bindings, &mut |bindings| {
        // A match on a triple the view leaves out is no witness.
        let gone = match (
            resolve(atom.s, bindings),
            resolve(atom.p, bindings),
            resolve(atom.o, bindings),
        ) {
            (Some(s), Some(p), Some(o)) => view.is_gone(s, p, o),
            _ => false,
        };
        gone || solve_all(rule, idx + 1, view, bindings, found)
    })
}

#[cfg(test)]
mod tests {
    use super::super::parse::parse;
    use super::*;
    use inferray_dictionary::Dictionary;
    use inferray_model::ids::{nth_property_id, nth_resource_id};
    use inferray_store::as_pairs;
    use std::collections::BTreeSet;

    fn store(triples: &[(u64, u64, u64)]) -> TripleStore {
        TripleStore::from_triples(triples.iter().map(|&(s, p, o)| IdTriple::new(s, p, o)))
    }

    fn compile(text: &str, dict: &mut Dictionary) -> CompiledRule {
        let (rules, diags) = parse(text);
        assert!(diags.is_empty(), "{diags:?}");
        super::super::compile::lower(&rules, dict)
            .expect("lowers")
            .rules[0]
            .clone()
    }

    fn derived(
        rule: &CompiledRule,
        main: &TripleStore,
        new: &TripleStore,
    ) -> BTreeSet<(u64, u64, u64)> {
        let ctx = RuleContext::new(main, new);
        let mut out = InferredBuffer::new();
        apply_compiled(rule, &ctx, &mut out);
        out.iter()
            .flat_map(|(p, pairs)| {
                as_pairs(pairs)
                    .iter()
                    .map(move |&[s, o]| (s, p, o))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn transitive_join_over_constant_predicate() {
        let mut dict = Dictionary::new();
        let rule = compile(
            "rule gp: ?x <urn:parent> ?y, ?y <urn:parent> ?z => ?x <urn:grandparent> ?z .",
            &mut dict,
        );
        let parent = dict.id_of_iri("urn:parent").unwrap();
        let grandparent = dict.id_of_iri("urn:grandparent").unwrap();
        let a = nth_resource_id(9_000);
        let main = store(&[(a, parent, a + 1), (a + 1, parent, a + 2)]);
        let got = derived(&rule, &main, &main);
        assert_eq!(got, BTreeSet::from([(a, grandparent, a + 2)]));
    }

    #[test]
    fn the_whole_store_needs_one_pass() {
        let mut dict = Dictionary::new();
        let rule = compile(
            "rule gp: ?x <urn:parent> ?y, ?y <urn:parent> ?z => ?x <urn:grandparent> ?z .",
            &mut dict,
        );
        let parent = dict.id_of_iri("urn:parent").unwrap();
        let a = nth_resource_id(9_050);
        let main = store(&[
            (a, parent, a + 1),
            (a + 1, parent, a + 2),
            (a + 2, parent, a + 3),
        ]);
        let raw = |new: &TripleStore| {
            let mut out = InferredBuffer::new();
            apply_compiled(&rule, &RuleContext::new(&main, new), &mut out);
            out.len()
        };
        // The store as its own frontier: each of the two derivations once.
        // An equal store that is not the same store: once per body atom.
        let copy = main.clone();
        assert_eq!(derived(&rule, &main, &main), derived(&rule, &main, &copy));
        assert_eq!((raw(&main), raw(&copy)), (2, 4));
    }

    #[test]
    fn semi_naive_split_covers_both_orders() {
        let mut dict = Dictionary::new();
        let rule = compile(
            "rule gp: ?x <urn:parent> ?y, ?y <urn:parent> ?z => ?x <urn:grandparent> ?z .",
            &mut dict,
        );
        let parent = dict.id_of_iri("urn:parent").unwrap();
        let grandparent = dict.id_of_iri("urn:grandparent").unwrap();
        let a = nth_resource_id(9_100);
        // Old pair a→b, new pair b→c: only the (old, new) order derives.
        let main = store(&[(a, parent, a + 1), (a + 1, parent, a + 2)]);
        let new = store(&[(a + 1, parent, a + 2)]);
        assert_eq!(
            derived(&rule, &main, &new),
            BTreeSet::from([(a, grandparent, a + 2)])
        );
        // New pair a→b, old pair b→c: the (new, old) order derives.
        let new = store(&[(a, parent, a + 1)]);
        assert_eq!(
            derived(&rule, &main, &new),
            BTreeSet::from([(a, grandparent, a + 2)])
        );
        // Exclusively-old pairs with an unrelated new table derive nothing.
        let other = nth_property_id(950);
        let new = store(&[(a + 7, other, a + 8)]);
        assert!(derived(&rule, &main, &new).is_empty());
    }

    #[test]
    fn variable_predicate_iterates_tables_and_guards_heads() {
        let mut dict = Dictionary::new();
        let rule = compile(
            "rule inv: ?p <urn:flips> ?q, ?x ?p ?y => ?y ?q ?x .",
            &mut dict,
        );
        let flips = dict.id_of_iri("urn:flips").unwrap();
        let p = nth_property_id(951);
        let q = nth_property_id(952);
        let a = nth_resource_id(9_200);
        // q resolves to a property: the head lands in q's table. A schema
        // pair whose object is a plain resource produces nothing.
        let main = store(&[(p, flips, q), (a, p, a + 1), (p, flips, a + 9)]);
        assert_eq!(
            derived(&rule, &main, &main),
            BTreeSet::from([(a + 1, q, a)])
        );
    }

    #[test]
    fn repeated_variables_unify() {
        let mut dict = Dictionary::new();
        let rule = compile(
            "rule selfloop: ?x <urn:p> ?x => ?x <urn:loop> ?x .",
            &mut dict,
        );
        let p = dict.id_of_iri("urn:p").unwrap();
        let looped = dict.id_of_iri("urn:loop").unwrap();
        let a = nth_resource_id(9_300);
        let main = store(&[(a, p, a), (a + 1, p, a + 2)]);
        assert_eq!(
            derived(&rule, &main, &main),
            BTreeSet::from([(a, looped, a)])
        );
    }

    #[test]
    fn every_catalog_text_probes_with_inline_bindings() {
        for rule in crate::RuleId::ALL {
            let vars = super::super::compiled_builtin(rule).var_count as usize;
            assert!(vars <= INLINE_BINDINGS, "{rule}: {vars} variables");
        }
    }

    #[test]
    fn support_probe_finds_one_step_witnesses() {
        let mut dict = Dictionary::new();
        let rule = compile(
            "rule gp: ?x <urn:parent> ?y, ?y <urn:parent> ?z => ?x <urn:grandparent> ?z .",
            &mut dict,
        );
        let parent = dict.id_of_iri("urn:parent").unwrap();
        let grandparent = dict.id_of_iri("urn:grandparent").unwrap();
        let a = nth_resource_id(9_400);
        let main = store(&[(a, parent, a + 1), (a + 1, parent, a + 2)]);
        assert!(supports(
            &rule,
            Survivors::all(&main),
            IdTriple::new(a, grandparent, a + 2)
        ));
        assert!(!supports(
            &rule,
            Survivors::all(&main),
            IdTriple::new(a, grandparent, a + 1)
        ));
        assert!(!supports(
            &rule,
            Survivors::all(&main),
            IdTriple::new(a, parent, a + 1)
        ));
        // Remove a premise: the derivation is no longer supported.
        let partial = store(&[(a, parent, a + 1)]);
        assert!(!supports(
            &rule,
            Survivors::all(&partial),
            IdTriple::new(a, grandparent, a + 2)
        ));
        // The same premise left out by a view: the same answer.
        let gone = store(&[(a + 1, parent, a + 2)]);
        assert!(!supports(
            &rule,
            Survivors::without(&main, &gone),
            IdTriple::new(a, grandparent, a + 2)
        ));
    }
}
