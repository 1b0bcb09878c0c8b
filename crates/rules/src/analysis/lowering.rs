//! The kernel a rule's shape picks (§4.4 classifies rules by shape):
//!
//! * **merge join** (α, Figure 4) — two atoms with constant predicates whose
//!   subjects and objects are distinct variables, sharing exactly one of
//!   them: a sort-merge join of the two tables' views on that variable;
//! * **table scan** (γ/δ) — a schema atom with a constant predicate binds,
//!   in its subject or object, the predicate variable of a data atom whose
//!   subject and object are fresh, distinct variables: per schema match,
//!   each head copies, reverses, or takes the distinct subjects or objects
//!   of the data table it names;
//! * **transitive closure** (θ, §4.1) — two atoms `?a P ?b`, `?b P ?c` over
//!   one table and the head `?a P ?c`: the table is closed with Nuutila's
//!   algorithm, symmetrized first when `P` is `owl:sameAs`. `P` is a
//!   constant (SCM-SCO, SCM-SPO, EQ-TRANS), or the variable a third, schema
//!   atom `?p K C` declares (PRP-TRP): then every declared property's table
//!   is closed;
//! * **nested-loop join** — every other shape ([`super::exec`]).
//!
//! [`lowering()`] reads the shape off the body and head alone, in either
//! atom order, so a custom rule of a kernel shape runs the kernel of the
//! built-in it restates. The [`Closure`] plan is also what the closure stage
//! closes before the loop and what the retraction dumps
//! ([`crate::Ruleset::closures`]).

use super::compile::{Atom, CompiledRule, Term};
use crate::context::RuleContext;
use crate::executors::join::JoinSide;
use crate::support::Survivors;
use inferray_dictionary::wellknown;
use inferray_model::ids::is_property_id;
use JoinSide::{Object, Subject};

/// How a rule is evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lowering {
    /// A two-table sort-merge join.
    MergeJoin(MergeJoin),
    /// A schema table driving copies or scans of the data tables it names.
    TableScan(TableScan),
    /// The transitive closure of one table, or of every declared one.
    Closure(Closure),
    /// The backtracking join over the body atoms, in written order.
    NestedLoop,
}

impl Lowering {
    /// The kernel's name, as `rules explain` prints it.
    pub fn label(&self) -> &'static str {
        match self {
            Lowering::MergeJoin(_) => "merge join",
            Lowering::TableScan(_) => "table scan",
            Lowering::Closure(_) => "transitive closure",
            Lowering::NestedLoop => "nested-loop join",
        }
    }
}

/// A merge-join plan: body atom 0 on the left, atom 1 on the right.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeJoin {
    /// Each side's table and the position of the shared variable in it.
    pub(crate) left: (u64, JoinSide),
    pub(crate) right: (u64, JoinSide),
    /// Per head: its table, and where its subject and object come from.
    pub(crate) heads: Vec<(u64, JoinSlot, JoinSlot)>,
}

/// A head position of a merge join, per joined pair of view entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinSlot {
    /// The shared variable, the left payload, the right payload.
    Key,
    Left,
    Right,
    Const(u64),
}

impl JoinSlot {
    /// The slot's value for the joined `[key, payload]` entries `l` and `r`.
    #[inline]
    pub(crate) fn pick(self, l: &[u64], r: &[u64]) -> u64 {
        match self {
            JoinSlot::Key => l[0],
            JoinSlot::Left => l[1],
            JoinSlot::Right => r[1],
            JoinSlot::Const(c) => c,
        }
    }
}

/// A table-scan plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableScan {
    /// The schema atom's predicate, subject and object, and which end of
    /// its pairs names the data table.
    pub(crate) schema: (u64, Term, Term),
    pub(crate) data: ScanSlot,
    /// Per head: its table, and what it takes from the data table.
    pub(crate) heads: Vec<(ScanSlot, ScanEmit)>,
}

/// A value of a table-scan head, per schema pair `(s, o)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanSlot {
    SchemaSubject,
    SchemaObject,
    Const(u64),
}

impl ScanSlot {
    #[inline]
    pub(crate) fn pick(self, s: u64, o: u64) -> u64 {
        match self {
            ScanSlot::SchemaSubject => s,
            ScanSlot::SchemaObject => o,
            ScanSlot::Const(c) => c,
        }
    }
}

/// What a table-scan head takes from the data table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanEmit {
    /// Every pair as it is — nothing when the head table is the data table.
    Copy,
    /// Every pair reversed.
    Reverse,
    /// Every distinct subject (object) once, at the given end of the head;
    /// the slot is the other end.
    DistinctSubjects(JoinSide, ScanSlot),
    DistinctObjects(JoinSide, ScanSlot),
}

/// A transitive-closure plan: which tables a rule closes, and whether each
/// is symmetrized first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closure {
    tables: ClosedTables,
    symmetric: bool,
}

/// The tables a [`Closure`] closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClosedTables {
    /// The table of the rule's constant predicate.
    Fixed(u64),
    /// The table of every property `p` with a `(p, predicate, class)` pair.
    Declared { predicate: u64, class: u64 },
}

impl Closure {
    /// The tables the rule closes over `view`: its constant predicate's, or
    /// those of the properties a declaration in `view` names.
    pub fn tables(&self, view: Survivors<'_>) -> Vec<u64> {
        match self.tables {
            ClosedTables::Fixed(p) => vec![p],
            ClosedTables::Declared { .. } => self.declared_in(view),
        }
    }

    /// The properties a declaration in `view` names, ascending — none for
    /// a closure of a fixed table.
    pub fn declared_in(&self, view: Survivors<'_>) -> Vec<u64> {
        let ClosedTables::Declared { predicate, class } = self.tables else {
            return Vec::new();
        };
        let mut declared = RuleContext::subjects_with_object(view.store(), predicate, class);
        declared.retain(|&p| is_property_id(p) && !view.is_gone(p, predicate, class));
        declared
    }

    /// `true` when each table is symmetrized before it is closed: the
    /// closure of `owl:sameAs` (§4.1).
    pub fn symmetric(&self) -> bool {
        self.symmetric
    }
}

/// The kernel `rule`'s shape picks — a function of its body and head only.
/// A transitivity rule also has the merge-join shape; it is a closure.
pub fn lowering(rule: &CompiledRule) -> Lowering {
    if let Some(closure) = closure(rule) {
        return Lowering::Closure(closure);
    }
    if let Some(join) = merge_join(rule) {
        return Lowering::MergeJoin(join);
    }
    table_scan(rule).map_or(Lowering::NestedLoop, Lowering::TableScan)
}

/// The subject and object of `atom` when they are two distinct variables.
fn distinct_vars(atom: &Atom) -> Option<(u32, u32)> {
    match (atom.s, atom.o) {
        (Term::Var(s), Term::Var(o)) if s != o => Some((s, o)),
        _ => None,
    }
}

/// The closure plan of `rule` when it has the closure shape: one head
/// `?a P ?c` over two body atoms `?a P ?b`, `?b P ?c` in either order, with
/// `P` a constant, or a variable declared by a third atom `?p K C`.
pub(crate) fn closure(rule: &CompiledRule) -> Option<Closure> {
    let [head] = rule.head.as_slice() else {
        return None;
    };
    let tables = match (head.p, rule.body.as_slice()) {
        (Term::Const(p), [_, _]) => ClosedTables::Fixed(p),
        (Term::Var(_), [_, _, _]) => {
            let mut schema = rule.body.iter().filter(|atom| atom.p != head.p);
            match (schema.next(), schema.next()) {
                (Some(&Atom { s, p, o }), None) if s == head.p => ClosedTables::Declared {
                    predicate: p.as_const()?,
                    class: o.as_const()?,
                },
                _ => return None,
            }
        }
        _ => return None,
    };
    let data: Vec<&Atom> = rule.body.iter().filter(|atom| atom.p == head.p).collect();
    let [first, second] = data[..] else {
        return None;
    };
    // `x` then `y` chain `?a P ?b`, `?b P ?c` into the head `?a P ?c`, over
    // three distinct variables, none of them the declared predicate.
    let chained = |x: &Atom, y: &Atom| match (distinct_vars(x), distinct_vars(y)) {
        (Some((a, b)), Some((b2, c))) => {
            b == b2
                && a != c
                && [a, b, c].iter().all(|&v| Term::Var(v) != head.p)
                && (head.s, head.o) == (Term::Var(a), Term::Var(c))
        }
        _ => false,
    };
    if !chained(first, second) && !chained(second, first) {
        return None;
    }
    Some(Closure {
        tables,
        symmetric: head.p == Term::Const(wellknown::OWL_SAME_AS),
    })
}

fn merge_join(rule: &CompiledRule) -> Option<MergeJoin> {
    let [left, right] = rule.body.as_slice() else {
        return None;
    };
    let (left_p, right_p) = (left.p.as_const()?, right.p.as_const()?);
    let (ls, lo) = distinct_vars(left)?;
    let (rs, ro) = distinct_vars(right)?;
    let shared: Vec<u32> = [ls, lo]
        .into_iter()
        .filter(|&v| v == rs || v == ro)
        .collect();
    let [key] = shared[..] else {
        return None;
    };
    // Each side is read on the shared variable; its other end is the payload.
    let side = |s: u32, o: u32| if s == key { (Subject, o) } else { (Object, s) };
    let ((left_side, left_payload), (right_side, right_payload)) = (side(ls, lo), side(rs, ro));
    let slot = |term: Term| match term {
        Term::Const(c) => Some(JoinSlot::Const(c)),
        Term::Var(v) if v == key => Some(JoinSlot::Key),
        Term::Var(v) if v == left_payload => Some(JoinSlot::Left),
        Term::Var(v) if v == right_payload => Some(JoinSlot::Right),
        Term::Var(_) => None,
    };
    let heads = rule
        .head
        .iter()
        .map(|head| Some((head.p.as_const()?, slot(head.s)?, slot(head.o)?)))
        .collect::<Option<Vec<_>>>()?;
    Some(MergeJoin {
        left: (left_p, left_side),
        right: (right_p, right_side),
        heads,
    })
}

fn table_scan(rule: &CompiledRule) -> Option<TableScan> {
    let (schema, data) = match rule.body.as_slice() {
        [a, b] if a.p.as_const().is_some() && b.p.as_var().is_some() => (*a, *b),
        [a, b] if b.p.as_const().is_some() && a.p.as_var().is_some() => (*b, *a),
        _ => return None,
    };
    let (x, y) = distinct_vars(&data)?;
    let (x, y) = (Term::Var(x), Term::Var(y));
    // The data atom's ends are fresh: not its predicate, not in the schema.
    let fresh = |v: Term| v != data.p && v != schema.s && v != schema.o;
    if !fresh(x) || !fresh(y) || schema.s == schema.o {
        return None;
    }
    let slot = |term: Term| match term {
        Term::Const(c) => Some(ScanSlot::Const(c)),
        _ if term == schema.s => Some(ScanSlot::SchemaSubject),
        _ if term == schema.o => Some(ScanSlot::SchemaObject),
        Term::Var(_) => None,
    };
    let data_slot = slot(data.p).filter(|slot| !matches!(slot, ScanSlot::Const(_)))?;
    let heads = rule
        .head
        .iter()
        .map(|head| {
            let emit = match (head.s, head.o) {
                (s, o) if (s, o) == (x, y) => ScanEmit::Copy,
                (s, o) if (s, o) == (y, x) => ScanEmit::Reverse,
                (s, o) if s == x => ScanEmit::DistinctSubjects(Subject, slot(o)?),
                (s, o) if o == x => ScanEmit::DistinctSubjects(Object, slot(s)?),
                (s, o) if s == y => ScanEmit::DistinctObjects(Subject, slot(o)?),
                (s, o) if o == y => ScanEmit::DistinctObjects(Object, slot(s)?),
                _ => return None,
            };
            Some((slot(head.p)?, emit))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(TableScan {
        schema: (schema.p.as_const()?, schema.s, schema.o),
        data: data_slot,
        heads,
    })
}

#[cfg(test)]
mod tests {
    use super::super::builtin::PRELUDE;
    use super::super::compile::lower;
    use super::super::parse::parse;
    use super::*;
    use crate::catalog::CATALOG;
    use inferray_dictionary::{wellknown as wk, Dictionary};

    fn compile(text: &str) -> CompiledRule {
        let (rules, diags) = parse(&format!("{PRELUDE}{text}"));
        assert!(diags.is_empty(), "{diags:?}");
        lower(&rules, &mut Dictionary::new())
            .expect("lowers")
            .rules
            .remove(0)
    }

    fn label(text: &str) -> &'static str {
        lowering(&compile(text)).label()
    }

    #[test]
    fn the_catalog_texts_pick_their_section_4_4_kernels() {
        let kernel = |name: &str| {
            let info = CATALOG.iter().find(|info| info.name == name).unwrap();
            label(info.text)
        };
        for name in [
            "CAX-SCO", "CAX-EQC1", "CAX-EQC2", "SCM-DOM1", "SCM-DOM2", "SCM-RNG1", "SCM-RNG2",
        ] {
            assert_eq!(kernel(name), "merge join", "{name}");
        }
        for name in [
            "PRP-DOM", "PRP-RNG", "PRP-SPO1", "PRP-SYMP", "PRP-EQP1", "PRP-EQP2", "PRP-INV1",
            "PRP-INV2", "EQ-REP-P",
        ] {
            assert_eq!(kernel(name), "table scan", "{name}");
        }
        for name in ["SCM-SCO", "SCM-SPO", "EQ-TRANS", "PRP-TRP"] {
            assert_eq!(kernel(name), "transitive closure", "{name}");
        }
        // Two shared variables, a variable subject-or-object predicate, one
        // atom, three atoms: the nested loop.
        for name in ["SCM-EQC2", "EQ-REP-S", "EQ-SYM", "PRP-FP", "RDFS4"] {
            assert_eq!(kernel(name), "nested-loop join", "{name}");
        }
    }

    #[test]
    fn a_merge_join_reads_the_shared_variable_side_of_each_table() {
        let rule = compile("rule r: ?c1 rdfs:subClassOf ?c2, ?x a ?c1 => ?x a ?c2 .");
        assert_eq!(
            lowering(&rule),
            Lowering::MergeJoin(MergeJoin {
                left: (wk::RDFS_SUB_CLASS_OF, Subject),
                right: (wk::RDF_TYPE, Object),
                heads: vec![(wk::RDF_TYPE, JoinSlot::Right, JoinSlot::Left)],
            })
        );
        // Written the other way round, the sides follow the atoms.
        let rule = compile("rule r: ?x a ?c1, ?c1 rdfs:subClassOf ?c2 => ?x a ?c2 .");
        assert_eq!(
            lowering(&rule),
            Lowering::MergeJoin(MergeJoin {
                left: (wk::RDF_TYPE, Object),
                right: (wk::RDFS_SUB_CLASS_OF, Subject),
                heads: vec![(wk::RDF_TYPE, JoinSlot::Left, JoinSlot::Right)],
            })
        );
    }

    #[test]
    fn a_table_scan_names_what_each_head_emits() {
        let rule = compile(
            "rule r: ?x ?p1 ?y, ?p1 owl:inverseOf ?p2 => ?y ?p2 ?x, ?x ?p1 ?y, ?x a ?p2, owl:Thing ?p1 ?y .",
        );
        assert_eq!(
            lowering(&rule),
            Lowering::TableScan(TableScan {
                schema: (wk::OWL_INVERSE_OF, rule.body[1].s, rule.body[1].o),
                data: ScanSlot::SchemaSubject,
                heads: vec![
                    (ScanSlot::SchemaObject, ScanEmit::Reverse),
                    (ScanSlot::SchemaSubject, ScanEmit::Copy),
                    (
                        ScanSlot::Const(wk::RDF_TYPE),
                        ScanEmit::DistinctSubjects(Subject, ScanSlot::SchemaObject)
                    ),
                    (
                        ScanSlot::SchemaSubject,
                        ScanEmit::DistinctObjects(Object, ScanSlot::Const(wk::OWL_THING))
                    ),
                ],
            })
        );
    }

    #[test]
    fn a_closure_names_its_tables_in_either_atom_order() {
        let closure = |text: &str| match lowering(&compile(text)) {
            Lowering::Closure(closure) => closure,
            other => panic!("{text}: {other:?}"),
        };
        let fixed = |p, symmetric| Closure {
            tables: ClosedTables::Fixed(p),
            symmetric,
        };
        for text in [
            "rule r: ?x rdfs:subClassOf ?y, ?y rdfs:subClassOf ?z => ?x rdfs:subClassOf ?z .",
            "rule r: ?y rdfs:subClassOf ?z, ?x rdfs:subClassOf ?y => ?x rdfs:subClassOf ?z .",
        ] {
            assert_eq!(closure(text), fixed(wk::RDFS_SUB_CLASS_OF, false), "{text}");
        }
        // owl:sameAs is symmetric, whichever order the text is written in.
        assert_eq!(
            closure("rule r: ?b owl:sameAs ?c, ?a owl:sameAs ?b => ?a owl:sameAs ?c ."),
            fixed(wk::OWL_SAME_AS, true)
        );
        // Any schema class declares the closed tables.
        let declared = Closure {
            tables: ClosedTables::Declared {
                predicate: wk::RDF_TYPE,
                class: wk::OWL_SYMMETRIC_PROPERTY,
            },
            symmetric: false,
        };
        for text in [
            "rule r: ?p a owl:SymmetricProperty, ?x ?p ?y, ?y ?p ?z => ?x ?p ?z .",
            "rule r: ?y ?p ?z, ?p a owl:SymmetricProperty, ?x ?p ?y => ?x ?p ?z .",
        ] {
            assert_eq!(closure(text), declared, "{text}");
        }
    }

    #[test]
    fn near_closures_are_joins() {
        for (text, kernel) in [
            // Another head table.
            (
                "rule r: ?x rdfs:subClassOf ?y, ?y rdfs:subClassOf ?z => ?x rdfs:subPropertyOf ?z .",
                "merge join",
            ),
            // The head reverses the chain.
            (
                "rule r: ?x rdfs:subClassOf ?y, ?y rdfs:subClassOf ?z => ?z rdfs:subClassOf ?x .",
                "merge join",
            ),
            // Two heads.
            (
                "rule r: ?x rdfs:subClassOf ?y, ?y rdfs:subClassOf ?z => ?x rdfs:subClassOf ?z, ?z rdfs:subClassOf ?x .",
                "merge join",
            ),
            // Two tables.
            (
                "rule r: ?x rdfs:subClassOf ?y, ?y owl:sameAs ?z => ?x rdfs:subClassOf ?z .",
                "merge join",
            ),
            // A repeated end.
            (
                "rule r: ?x rdfs:subClassOf ?y, ?y rdfs:subClassOf ?x => ?x rdfs:subClassOf ?x .",
                "nested-loop join",
            ),
            // A declaration with a variable class.
            (
                "rule r: ?p a ?c, ?x ?p ?y, ?y ?p ?z => ?x ?p ?z .",
                "nested-loop join",
            ),
        ] {
            assert_eq!(label(text), kernel, "{text}");
        }
    }

    #[test]
    fn shapes_outside_the_two_kernels_fall_back_to_the_nested_loop() {
        for text in [
            // The data atom's ends are not fresh.
            "rule r: ?p rdfs:domain ?c, ?c ?p ?y => ?c a ?y .",
            // A head that uses neither data variable.
            "rule r: ?p rdfs:domain ?c, ?x ?p ?y => ?p a ?c .",
            // A repeated variable in a join atom.
            "rule r: ?x rdfs:subClassOf ?x, ?y a ?x => ?y a ?x .",
            // A variable head predicate in a join.
            "rule r: ?p rdfs:domain ?c, ?c rdfs:subClassOf ?d => ?c ?p ?d .",
            // A schema atom that binds nothing the data atom reads.
            "rule r: ?q rdfs:domain ?c, ?x ?p ?y => ?x ?p ?c .",
        ] {
            assert_eq!(label(text), "nested-loop join", "{text}");
        }
    }
}
