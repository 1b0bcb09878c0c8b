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
//! * **substitution** (same-as) — a link atom `?a L ?b` and a data atom
//!   `?x ?p ?y` sharing one end with it; the head replaces that end by the
//!   link's other end (EQ-REP-S, EQ-REP-O): one loop over the links and
//!   every table;
//! * **self join** — a declaration `?p K C` and two atoms `?k ?p ?v1`,
//!   `?k ?p ?v2` with the head `?v1 owl:sameAs ?v2` (PRP-FP, PRP-IFP): the
//!   two values of every run are linked once, smaller first — the head read
//!   as an equivalence between distinct terms, as the closure reads it;
//! * **nested-loop join** — every other shape ([`super::exec`]).
//!
//! [`lowering()`] reads the shape off the body and head alone, in any atom
//! order, so a custom rule of a kernel shape runs the kernel of the
//! built-in it restates. The [`Closure`] plan is also what the closure stage
//! closes before the loop and what the retraction dumps
//! ([`crate::Ruleset::closures`]).

use super::compile::{Atom, CompiledRule, Term};
use crate::context::RuleContext;
use crate::executors::join::JoinSide;
use crate::support::Survivors;
use inferray_dictionary::wellknown;
use inferray_model::ids::is_property_id;
use inferray_store::Pair;
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
    /// One end of every table's pairs replaced along the links of a table.
    Substitution(Substitution),
    /// Every two values of a key's run in every declared table, linked.
    SelfJoin(SelfJoin),
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
            Lowering::Substitution(_) => "substitution",
            Lowering::SelfJoin(_) => "self join",
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
    pub(crate) fn pick(self, l: &Pair, r: &Pair) -> u64 {
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
    /// The table of every declared property.
    Declared(Declared),
}

/// The properties `p` with a `(p, predicate, class)` pair: the tables a
/// declared closure or a self join reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Declared {
    predicate: u64,
    class: u64,
}

impl Declared {
    /// The properties a declaration in `view` names, ascending.
    pub fn properties(&self, view: Survivors<'_>) -> Vec<u64> {
        let Declared { predicate, class } = *self;
        let mut declared = RuleContext::subjects_with_object(view.store(), predicate, class);
        declared.retain(|&p| is_property_id(p) && !view.is_gone(p, predicate, class));
        declared
    }
}

impl Closure {
    /// The tables the rule closes over `view`: its constant predicate's, or
    /// those of the properties a declaration in `view` names.
    pub fn tables(&self, view: Survivors<'_>) -> Vec<u64> {
        match self.tables {
            ClosedTables::Fixed(p) => vec![p],
            ClosedTables::Declared(declared) => declared.properties(view),
        }
    }

    /// The properties a declaration in `view` names, ascending — none for
    /// a closure of a fixed table.
    pub fn declared_in(&self, view: Survivors<'_>) -> Vec<u64> {
        match self.tables {
            ClosedTables::Fixed(_) => Vec::new(),
            ClosedTables::Declared(declared) => declared.properties(view),
        }
    }

    /// `true` when each table is symmetrized before it is closed: the
    /// closure of `owl:sameAs` (§4.1).
    pub fn symmetric(&self) -> bool {
        self.symmetric
    }
}

/// A substitution plan: the links `(shared, replacement)` are the pairs of
/// the link table, read from the end the data atom shares; every table's
/// pairs with `shared` at the data end are emitted with `replacement` there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Substitution {
    /// The link table, and the end of its pairs the data atom shares.
    pub(crate) link: (u64, JoinSide),
    /// The end of the data pairs that is replaced.
    pub(crate) data: JoinSide,
}

/// A self-join plan: the declared tables, and the end that keys a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfJoin {
    pub(crate) declared: Declared,
    pub(crate) key: JoinSide,
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
    if let Some(scan) = table_scan(rule) {
        return Lowering::TableScan(scan);
    }
    if let Some(plan) = substitution(rule) {
        return Lowering::Substitution(plan);
    }
    self_join(rule).map_or(Lowering::NestedLoop, Lowering::SelfJoin)
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
    let (tables, first, second) = match (head.p, rule.body.as_slice()) {
        (Term::Const(p), &[first, second]) if first.p == head.p && second.p == head.p => {
            (ClosedTables::Fixed(p), first, second)
        }
        (Term::Var(_), _) => {
            let (declared, first, second) = declared(rule, head.p)?;
            (ClosedTables::Declared(declared), first, second)
        }
        _ => return None,
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
    if !chained(&first, &second) && !chained(&second, &first) {
        return None;
    }
    Some(Closure {
        tables,
        symmetric: head.p == Term::Const(wellknown::OWL_SAME_AS),
    })
}

/// A three-atom body of a declaration `?p K C` (constant `K` and `C`) and
/// two atoms over `?p`, in any order: the declaration, then the two atoms.
fn declared(rule: &CompiledRule, p: Term) -> Option<(Declared, Atom, Atom)> {
    let mut data = rule.body.iter().filter(|atom| atom.p == p);
    let mut schema = rule.body.iter().filter(|atom| atom.p != p);
    match (
        data.next(),
        data.next(),
        data.next(),
        schema.next(),
        schema.next(),
    ) {
        (Some(&first), Some(&second), None, Some(&Atom { s, p: k, o: c }), None)
            if s == p && p.as_var().is_some() =>
        {
            let declared = Declared {
                predicate: k.as_const()?,
                class: c.as_const()?,
            };
            Some((declared, first, second))
        }
        _ => None,
    }
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

/// The two atoms of a body that has one with a constant predicate and one
/// with a variable predicate: the first, then the second.
fn constant_and_variable(rule: &CompiledRule) -> Option<(Atom, Atom)> {
    match rule.body.as_slice() {
        [a, b] if a.p.as_const().is_some() && b.p.as_var().is_some() => Some((*a, *b)),
        [a, b] if b.p.as_const().is_some() && a.p.as_var().is_some() => Some((*b, *a)),
        _ => None,
    }
}

fn table_scan(rule: &CompiledRule) -> Option<TableScan> {
    let (schema, data) = constant_and_variable(rule)?;
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

/// The substitution plan of `rule`: a link `?a L ?b` and a data atom
/// `?x ?p ?y` sharing exactly one end with it, the data atom's other end and
/// predicate fresh, and the one head the data atom with the shared end
/// replaced by the link's other end.
fn substitution(rule: &CompiledRule) -> Option<Substitution> {
    let (link, data) = constant_and_variable(rule)?;
    let [head] = rule.head.as_slice() else {
        return None;
    };
    let ((a, b), (x, y)) = (distinct_vars(&link)?, distinct_vars(&data)?);
    // Where a data end meets the link: the link end it shares, and the
    // link's other end.
    let meets = |v: u32| match v {
        _ if v == a => Some((Subject, b)),
        _ if v == b => Some((Object, a)),
        _ => None,
    };
    // The data end that is replaced, the link end it meets, and the head.
    let (at, from, (s, o)) = match (meets(x), meets(y)) {
        (Some((from, other)), None) => (Subject, from, (other, y)),
        (None, Some((from, other))) => (Object, from, (x, other)),
        _ => return None,
    };
    let fresh = [a, b, x, y].iter().all(|&v| Term::Var(v) != data.p);
    let substituted = Atom {
        s: Term::Var(s),
        p: data.p,
        o: Term::Var(o),
    };
    (fresh && *head == substituted).then_some(Substitution {
        link: (link.p.as_const()?, from),
        data: at,
    })
}

/// The self-join plan of `rule`: a declaration `?p K C`, two atoms
/// `?k ?p ?v1`, `?k ?p ?v2` keyed on the same end (four distinct
/// variables), and the one head `?v1 owl:sameAs ?v2` in either order.
pub(crate) fn self_join(rule: &CompiledRule) -> Option<SelfJoin> {
    let [head] = rule.head.as_slice() else {
        return None;
    };
    let p = rule.body.iter().find(|atom| atom.p.as_const().is_some())?.s;
    let (declared, first, second) = declared(rule, p)?;
    let ((s1, o1), (s2, o2)) = (distinct_vars(&first)?, distinct_vars(&second)?);
    let (key, k, v1, v2) = match () {
        _ if s1 == s2 => (Subject, s1, o1, o2),
        _ if o1 == o2 => (Object, o1, s1, s2),
        _ => return None,
    };
    let linked = [[head.s, head.o], [head.o, head.s]].contains(&[Term::Var(v1), Term::Var(v2)]);
    let fresh = v1 != v2 && [k, v1, v2].iter().all(|&v| Term::Var(v) != p);
    (head.p == Term::Const(wellknown::OWL_SAME_AS) && linked && fresh)
        .then_some(SelfJoin { declared, key })
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
        for name in ["EQ-REP-S", "EQ-REP-O"] {
            assert_eq!(kernel(name), "substitution", "{name}");
        }
        for name in ["PRP-FP", "PRP-IFP"] {
            assert_eq!(kernel(name), "self join", "{name}");
        }
        // Two shared variables, one atom: the nested loop.
        for name in ["SCM-EQC2", "EQ-SYM", "RDFS4"] {
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
            tables: ClosedTables::Declared(Declared {
                predicate: wk::RDF_TYPE,
                class: wk::OWL_SYMMETRIC_PROPERTY,
            }),
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

    #[test]
    fn a_substitution_reads_the_shared_ends_in_any_atom_order() {
        let plan = |text: &str| match lowering(&compile(text)) {
            Lowering::Substitution(plan) => plan,
            other => panic!("{text}: {other:?}"),
        };
        let substitution = |link, from, data| Substitution {
            link: (link, from),
            data,
        };
        for (text, expected) in [
            (
                "rule r: ?a owl:sameAs ?b, ?a ?p ?o => ?b ?p ?o .",
                substitution(wk::OWL_SAME_AS, Subject, Subject),
            ),
            (
                "rule r: ?s ?p ?a, ?a owl:sameAs ?b => ?s ?p ?b .",
                substitution(wk::OWL_SAME_AS, Subject, Object),
            ),
            // The link read from its object, over another table.
            (
                "rule r: ?b rdfs:label ?a, ?a ?p ?o => ?b ?p ?o .",
                substitution(wk::RDFS_LABEL, Object, Subject),
            ),
        ] {
            assert_eq!(plan(text), expected, "{text}");
        }
    }

    #[test]
    fn a_self_join_names_its_declaration_and_key() {
        let plan = |text: &str| match lowering(&compile(text)) {
            Lowering::SelfJoin(plan) => plan,
            other => panic!("{text}: {other:?}"),
        };
        let functional = |key| SelfJoin {
            declared: Declared {
                predicate: wk::RDF_TYPE,
                class: wk::OWL_FUNCTIONAL_PROPERTY,
            },
            key,
        };
        for (text, key) in [
            (
                "rule r: ?p a owl:FunctionalProperty, ?x ?p ?y1, ?x ?p ?y2 => ?y1 owl:sameAs ?y2 .",
                Subject,
            ),
            (
                "rule r: ?x ?p ?y1, ?x ?p ?y2, ?p a owl:FunctionalProperty => ?y2 owl:sameAs ?y1 .",
                Subject,
            ),
            (
                "rule r: ?x1 ?p ?y, ?p a owl:FunctionalProperty, ?x2 ?p ?y => ?x1 owl:sameAs ?x2 .",
                Object,
            ),
        ] {
            assert_eq!(plan(text), functional(key), "{text}");
        }
    }

    #[test]
    fn near_substitutions_and_self_joins_are_nested_loops() {
        for text in [
            // The head keeps the shared end.
            "rule r: ?a owl:sameAs ?b, ?a ?p ?o => ?a ?p ?o .",
            // Both data ends meet the link.
            "rule r: ?a owl:sameAs ?b, ?a ?p ?b => ?b ?p ?a .",
            // The head changes the predicate.
            "rule r: ?a owl:sameAs ?b, ?a ?p ?o => ?b owl:sameAs ?o .",
            // A self join whose head is not owl:sameAs.
            "rule r: ?p a owl:FunctionalProperty, ?x ?p ?y1, ?x ?p ?y2 => ?y1 rdfs:label ?y2 .",
            // Keyed on different ends.
            "rule r: ?p a owl:FunctionalProperty, ?x ?p ?y1, ?y2 ?p ?x => ?y1 owl:sameAs ?y2 .",
            // The head links the key.
            "rule r: ?p a owl:FunctionalProperty, ?x ?p ?y1, ?x ?p ?y2 => ?x owl:sameAs ?y2 .",
            // A declaration with a variable class.
            "rule r: ?p a ?c, ?x ?p ?y1, ?x ?p ?y2 => ?y1 owl:sameAs ?y2 .",
        ] {
            assert_eq!(label(text), "nested-loop join", "{text}");
        }
    }
}
