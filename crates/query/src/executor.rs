//! Batch-at-a-time evaluation of a basic graph pattern over the vertically
//! partitioned store.
//!
//! Bindings live in a flat [`Batch`]: `stride` identifiers per row, one
//! column per variable that something *later* still reads (a later pattern,
//! a filter, the projection) and no column for anything else. Each pattern
//! is one step that reads the previous batch and writes the next; the two
//! batches are ping-ponged and belong to the caller, so a serving worker
//! that answers request after request into the same buffers allocates
//! nothing per row.
//!
//! A step finds, for every input row, a sorted slice of one property table —
//! the run of a subject in `pairs()`, the run of an object in
//! `object_pairs()` (which builds the table's ⟨o,s⟩ cache on its first
//! need), or the whole table — and hands it to [`Sink::emit_run`], which walks it.
//! Runs of constants come from the table's binary-searched accessors; runs
//! of join keys are reached by galloping from where the previous row's run
//! began ([`Cursor`]), which is a merge join whenever the incoming keys
//! ascend and a plain search otherwise. Unbound predicates run the same
//! code once per table.
//!
//! The last step does the rest of the query while it scans: filters reject
//! rows before they are written, only the projected columns are written,
//! `OFFSET`/`LIMIT` (and `ASK`, a limit of one) stop the scan, and
//! `DISTINCT` is answered by emitting one row per run when the sort order
//! of the scanned layout already groups equal rows ([`Dedup`]).

use crate::solution::{Batch, UNBOUND};
use inferray_dictionary::Dictionary;
use inferray_model::TermKind;
use inferray_store::estimate::table_for;
use inferray_store::{as_pairs, gallop, Pair, PropertyTable, SortScratch, TripleStore};
use std::ops::ControlFlow;

/// One position of a compiled pattern: a dictionary identifier or a variable
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// A constant, already dictionary-encoded.
    Bound(u64),
    /// A variable, identified by its index among the BGP's variables.
    Var(usize),
}

/// A triple pattern with every constant dictionary-encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompiledPattern {
    pub(crate) s: Slot,
    pub(crate) p: Slot,
    pub(crate) o: Slot,
}

/// How one position of a pattern is constrained while its step runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pos {
    /// A constant of the query.
    Const(u64),
    /// The value of a column of the input row (bound by an earlier step).
    In(usize),
    /// Not constrained: the step binds it.
    Free,
}

impl Pos {
    fn value(self, row: &[u64]) -> Option<u64> {
        match self {
            Pos::Const(id) => Some(id),
            Pos::In(column) => Some(row[column]),
            Pos::Free => None,
        }
    }
}

/// Where a value of a candidate solution is found while a step runs: in the
/// input row, or in the triple the step is looking at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    In(usize),
    S,
    P,
    O,
    /// A variable no pattern binds (it can still be projected or filtered).
    Unbound,
}

/// One pattern, linked to the batch layout it runs against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Step {
    pub(crate) s: Pos,
    pub(crate) p: Pos,
    pub(crate) o: Pos,
    /// Free positions that name the same variable (`?x ?p ?x`) must agree.
    pub(crate) same: Same,
    /// The row handed to the next step: the variables still read later.
    /// Empty for the last step, whose rows go through [`Plan::output`].
    pub(crate) carry: Vec<Source>,
}

/// Which pairs of a pattern's free positions hold one variable, so that a
/// matching triple must repeat the value there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Same {
    pub(crate) subject_predicate: bool,
    pub(crate) subject_object: bool,
    pub(crate) predicate_object: bool,
}

impl Same {
    fn holds(self, s: u64, p: u64, o: u64) -> bool {
        (!self.subject_predicate || s == p)
            && (!self.subject_object || s == o)
            && (!self.predicate_object || p == o)
    }
}

/// A `FILTER`, compiled against the last step's candidate solutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowFilter {
    Bound(Source),
    Kind(Source, TermKind),
    Equal(Source, Operand),
    NotEqual(Source, Operand),
}

/// The right-hand side of a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    Var(Source),
    /// A constant's identifier; [`UNBOUND`] when the dictionary has never
    /// seen the term, so that it equals nothing and differs from everything.
    Const(u64),
}

impl RowFilter {
    /// Evaluates the filter; an unbound operand rejects the row.
    fn holds(self, value: impl Fn(Source) -> u64, dictionary: &Dictionary) -> bool {
        match self {
            RowFilter::Bound(a) => value(a) != UNBOUND,
            RowFilter::Kind(a, kind) => dictionary.kind(value(a)) == Some(kind),
            RowFilter::Equal(a, rhs) => {
                let lhs = value(a);
                let rhs = match rhs {
                    Operand::Var(b) => value(b),
                    Operand::Const(id) => id,
                };
                lhs != UNBOUND && lhs == rhs
            }
            RowFilter::NotEqual(a, rhs) => {
                let lhs = value(a);
                lhs != UNBOUND
                    && match rhs {
                        Operand::Var(b) => value(b) != UNBOUND && value(b) != lhs,
                        Operand::Const(id) => id != lhs,
                    }
            }
        }
    }
}

/// How `DISTINCT` is answered. Everything but `Sort` is decided from what a
/// single-pattern plan outputs and costs nothing beyond the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dedup {
    /// Not asked for, or the rows cannot repeat (every variable of a single
    /// pattern is output, and a store holds each triple once).
    None,
    /// Nothing of the matched pairs is output: one row per matched range.
    Range,
    /// Of each pair only the subject is output: scan ⟨s,o⟩, one row per
    /// subject run.
    SubjectRuns,
    /// Of each pair only the object is output: scan ⟨o,s⟩, one row per
    /// object run. Chosen only when every table the pattern scans has that
    /// layout materialized.
    ObjectRuns,
    /// Sort the finished batch and drop adjacent duplicates.
    Sort,
}

/// Everything the executor needs to answer one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Plan {
    pub(crate) steps: Vec<Step>,
    /// The projected row, written by the last step.
    pub(crate) output: Vec<Source>,
    /// Checked by the last step before a row is written.
    pub(crate) filters: Vec<RowFilter>,
    pub(crate) dedup: Dedup,
    pub(crate) offset: usize,
    pub(crate) limit: Option<usize>,
}

/// The buffers a caller lends to [`execute`] besides the output batch. They
/// only grow; reusing one set across queries is what makes steady-state
/// execution allocation-free.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The other half of the ping-pong.
    spare: Batch,
    /// Row order for the wide-row `DISTINCT` sort.
    order: Vec<usize>,
    sort: SortScratch,
}

#[cfg(test)]
thread_local! {
    /// Pairs looked at by [`Sink::emit_run`] on this thread, so tests can
    /// hold the early exits to a bound.
    pub(crate) static PAIRS_VISITED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs `plan` against `store`, leaving the answer in `out`.
pub(crate) fn execute(
    store: &TripleStore,
    dictionary: &Dictionary,
    plan: &Plan,
    out: &mut Batch,
    scratch: &mut Scratch,
) {
    // DISTINCT by sorting has to see every row; the slice follows it.
    let (skip, room) = match plan.dedup {
        Dedup::Sort => (0, usize::MAX),
        _ => (plan.offset, plan.limit.unwrap_or(usize::MAX)),
    };
    // The seed: one row, no columns.
    out.reset(0);
    out.rows = 1;
    let (last, inner) = match plan.steps.split_last() {
        Some((last, inner)) => (Some(last), inner),
        None => (None, &[][..]),
    };
    for step in inner {
        std::mem::swap(out, &mut scratch.spare);
        let mut sink = Sink::carrying(step, dictionary, out);
        let _ = run_step(store, step, &scratch.spare, &mut sink);
    }
    std::mem::swap(out, &mut scratch.spare);
    let input = &scratch.spare;
    let mut sink = Sink::last(plan, dictionary, out, skip, room);
    if room > 0 {
        match last {
            Some(step) => {
                let _ = run_step(store, step, input, &mut sink);
            }
            // An empty group pattern has one solution, which binds nothing.
            None => {
                let _ = sink.offer(&[], UNBOUND, UNBOUND, UNBOUND);
            }
        }
    }
    if plan.dedup == Dedup::Sort {
        sort_dedup(out, scratch);
        out.slice(plan.offset, plan.limit);
    }
}

/// Matches one pattern against every row of `input`.
fn run_step(
    store: &TripleStore,
    step: &Step,
    input: &Batch,
    sink: &mut Sink<'_>,
) -> ControlFlow<()> {
    let mut cursor = Cursor::default();
    for row in input.rows() {
        let s = step.s.value(row);
        let o = step.o.value(row);
        match step.p.value(row) {
            Some(p) => {
                if let Some(table) = table_for(store, p) {
                    scan_table(table, p, step, s, o, row, &mut cursor, sink)?;
                }
            }
            None => {
                for (p, table) in store.iter_tables() {
                    scan_table(table, p, step, s, o, row, &mut cursor, sink)?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// Offers the sink every pair of one property table that agrees with the
/// resolved subject and object of `step`.
#[allow(clippy::too_many_arguments)]
fn scan_table(
    table: &PropertyTable,
    p: u64,
    step: &Step,
    s: Option<u64>,
    o: Option<u64>,
    row: &[u64],
    cursor: &mut Cursor,
    sink: &mut Sink<'_>,
) -> ControlFlow<()> {
    match (s, o) {
        (Some(s), Some(o)) => {
            if table.contains_pair(s, o) {
                sink.offer(row, s, p, o)?;
            }
            ControlFlow::Continue(())
        }
        (Some(s), None) => {
            let run = match step.s {
                Pos::In(_) => cursor.run(as_pairs(table.pairs()), p, s),
                _ => table.subject_run(s),
            };
            sink.emit_run(row, p, run, false, None)
        }
        // The ⟨o,s⟩ layout, built here when this is its table's first reader.
        (None, Some(o)) => {
            let os = as_pairs(table.object_pairs());
            let run = match step.o {
                Pos::In(_) => cursor.run(os, p, o),
                _ => table.object_run(o).unwrap_or_default(),
            };
            sink.emit_run(row, p, run, true, None)
        }
        (None, None) => match (sink.dedup, table.os_pairs()) {
            (Dedup::ObjectRuns, Some(os)) => sink.emit_run(row, p, as_pairs(os), true, None),
            _ => sink.emit_run(row, p, as_pairs(table.pairs()), false, None),
        },
    }
}

/// Where the previous input row's run began, so that the next row's key is
/// searched from there instead of from the start of the table.
#[derive(Debug, Default)]
struct Cursor {
    /// The predicate of the table `at` points into (0: none yet).
    table: u64,
    key: u64,
    at: usize,
}

impl Cursor {
    /// The run of `key` in `pairs` (a layout of `table` keyed on the join
    /// variable). Resumes from the previous run when the key did not go
    /// backwards — always the case when the previous step scanned a layout
    /// sorted on the same variable — and restarts from the first pair
    /// otherwise.
    fn run<'t>(&mut self, pairs: &'t [Pair], table: u64, key: u64) -> &'t [Pair] {
        let from = if self.table == table && key >= self.key {
            self.at
        } else {
            0
        };
        let start = gallop(pairs, from, |p| p[0] < key);
        let end = gallop(pairs, start, |p| p[0] <= key);
        *self = Cursor {
            table,
            key,
            at: start,
        };
        &pairs[start..end]
    }
}

/// The writing end of a step: checks a candidate solution and appends the
/// columns the next step (or the caller) reads.
struct Sink<'a> {
    out: &'a mut Batch,
    columns: &'a [Source],
    same: Same,
    filters: &'a [RowFilter],
    dictionary: &'a Dictionary,
    dedup: Dedup,
    /// Accepted rows still to be dropped (`OFFSET`).
    skip: usize,
    /// Rows still wanted (`LIMIT`; one for `ASK`).
    room: usize,
}

impl<'a> Sink<'a> {
    /// The sink of an inner step: every match, the carried columns.
    fn carrying(step: &'a Step, dictionary: &'a Dictionary, out: &'a mut Batch) -> Self {
        out.reset(step.carry.len());
        Sink {
            out,
            columns: &step.carry,
            same: step.same,
            filters: &[],
            dictionary,
            dedup: Dedup::None,
            skip: 0,
            room: usize::MAX,
        }
    }

    /// The sink of the last step: filters, projection, dedup on the scan
    /// and the slice.
    fn last(
        plan: &'a Plan,
        dictionary: &'a Dictionary,
        out: &'a mut Batch,
        skip: usize,
        room: usize,
    ) -> Self {
        out.reset(plan.output.len());
        Sink {
            out,
            columns: &plan.output,
            same: plan.steps.last().map_or(Same::default(), |step| step.same),
            filters: &plan.filters,
            dictionary,
            dedup: plan.dedup,
            skip,
            room,
        }
    }

    /// Offers every pair of `run` — a slice of one layout of the table of
    /// `p`; `swapped` when that layout is ⟨o,s⟩ — joined with `row`.
    /// `second` restricts the pairs to those with that second component.
    /// Breaks when the sink wants no more rows.
    fn emit_run(
        &mut self,
        row: &[u64],
        p: u64,
        run: &[Pair],
        swapped: bool,
        second: Option<u64>,
    ) -> ControlFlow<()> {
        if second.is_none() && matches!(self.dedup, Dedup::None | Dedup::Sort) {
            // Every pair of a plain run can become a row.
            self.out
                .data
                .reserve(run.len().min(self.room) * self.columns.len());
        }
        let mut at = 0;
        while let Some(&[key, value]) = run.get(at) {
            at += 1;
            #[cfg(test)]
            PAIRS_VISITED.with(|visited| visited.set(visited.get() + 1));
            if second.is_some_and(|wanted| value != wanted) {
                continue;
            }
            let (s, o) = if swapped { (value, key) } else { (key, value) };
            if !self.offer(row, s, p, o)? {
                continue;
            }
            match self.dedup {
                Dedup::None | Dedup::Sort => {}
                // The rest of the range repeats the row just written.
                Dedup::Range => break,
                // So does the rest of this key's run: on to the next run.
                Dedup::SubjectRuns | Dedup::ObjectRuns => {
                    at = gallop(run, at, |p| p[0] <= key);
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Checks one candidate solution and writes its row; `Continue(false)`
    /// when it was rejected, `Break` when it was the last row wanted.
    fn offer(&mut self, row: &[u64], s: u64, p: u64, o: u64) -> ControlFlow<(), bool> {
        let value = |source: Source| match source {
            Source::In(column) => row[column],
            Source::S => s,
            Source::P => p,
            Source::O => o,
            Source::Unbound => UNBOUND,
        };
        let accepted = self.same.holds(s, p, o)
            && self
                .filters
                .iter()
                .all(|filter| filter.holds(value, self.dictionary));
        if !accepted {
            return ControlFlow::Continue(false);
        }
        if self.skip > 0 {
            self.skip -= 1;
            return ControlFlow::Continue(true);
        }
        self.out
            .data
            .extend(self.columns.iter().map(|column| value(*column)));
        self.out.rows += 1;
        self.room -= 1;
        if self.room == 0 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(true)
        }
    }
}

/// `DISTINCT` when the scan order does not give it: sorts the rows of
/// `batch` and drops adjacent duplicates.
fn sort_dedup(batch: &mut Batch, scratch: &mut Scratch) {
    match batch.stride {
        0 => batch.rows = batch.rows.min(1),
        1 => {
            batch.data.sort_unstable();
            batch.data.dedup();
            batch.rows = batch.data.len();
        }
        // A two-column batch is a pair array: finalizing it as a property
        // table runs the store's own sort-and-dedup kernels over it.
        2 => {
            let mut pairs = PropertyTable::from_raw(std::mem::take(&mut batch.data));
            pairs.finalize_with(&mut scratch.sort);
            batch.data = pairs.into_pairs();
            batch.rows = as_pairs(&batch.data).len();
        }
        // Wider rows: order row indices, then gather the distinct rows into
        // the spare batch.
        stride => {
            let order = &mut scratch.order;
            order.clear();
            order.extend(0..batch.rows);
            order.sort_unstable_by(|a, b| batch.row(*a).cmp(batch.row(*b)));
            let unique = &mut scratch.spare;
            unique.reset(stride);
            unique.data.reserve(batch.data.len());
            for index in order.iter() {
                let row = batch.row(*index);
                if unique.rows == 0 || unique.row(unique.rows - 1) != row {
                    unique.data.extend_from_slice(row);
                    unique.rows += 1;
                }
            }
            std::mem::swap(batch, unique);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::planner::link;
    use inferray_model::ids::nth_property_id;
    use inferray_model::IdTriple;

    const A: u64 = 5_000_000;
    const B: u64 = 5_000_001;
    const C: u64 = 5_000_002;

    fn knows() -> u64 {
        nth_property_id(30)
    }

    fn likes() -> u64 {
        nth_property_id(31)
    }

    fn store() -> TripleStore {
        TripleStore::from_triples([
            IdTriple::new(A, knows(), B),
            IdTriple::new(B, knows(), C),
            IdTriple::new(A, likes(), A),
            IdTriple::new(C, likes(), A),
        ])
    }

    fn pattern(s: Slot, p: Slot, o: Slot) -> CompiledPattern {
        CompiledPattern { s, p, o }
    }

    /// Runs `patterns` in the given order, projecting `projection`, with no
    /// filters; `tune` adjusts dedup and the slice.
    fn run(
        store: &TripleStore,
        patterns: &[CompiledPattern],
        projection: &[usize],
        tune: impl FnOnce(&mut Plan),
    ) -> Batch {
        let (steps, scope) = link(patterns, projection);
        let mut plan = Plan {
            steps,
            output: projection.iter().map(|v| scope.source(Some(*v))).collect(),
            filters: Vec::new(),
            dedup: Dedup::None,
            offset: 0,
            limit: None,
        };
        tune(&mut plan);
        let mut out = Batch::default();
        execute(
            store,
            &Dictionary::new(),
            &plan,
            &mut out,
            &mut Scratch::default(),
        );
        out
    }

    /// Every solution of `patterns` over variables `0..variables`, sorted.
    pub(crate) fn evaluate(
        store: &TripleStore,
        patterns: &[CompiledPattern],
        variables: usize,
    ) -> Vec<Vec<u64>> {
        let projection: Vec<usize> = (0..variables).collect();
        let batch = run(store, patterns, &projection, |_| {});
        let mut rows: Vec<Vec<u64>> = batch.rows().map(<[u64]>::to_vec).collect();
        rows.sort();
        rows
    }

    #[test]
    fn single_pattern_enumerates_a_table() {
        let p = pattern(Slot::Var(0), Slot::Bound(knows()), Slot::Var(1));
        assert_eq!(evaluate(&store(), &[p], 2), [[A, B], [B, C]]);
    }

    #[test]
    fn two_patterns_join_on_the_shared_variable() {
        // ?x knows ?y . ?y knows ?z  =>  only A -> B -> C.
        let patterns = [
            pattern(Slot::Var(0), Slot::Bound(knows()), Slot::Var(1)),
            pattern(Slot::Var(1), Slot::Bound(knows()), Slot::Var(2)),
        ];
        assert_eq!(evaluate(&store(), &patterns, 3), [[A, B, C]]);
    }

    #[test]
    fn only_variables_read_later_are_carried() {
        let patterns = [
            pattern(Slot::Var(0), Slot::Bound(knows()), Slot::Var(1)),
            pattern(Slot::Var(1), Slot::Bound(knows()), Slot::Var(2)),
        ];
        // Projecting ?z alone: step one carries ?y for the join and drops ?x.
        let (steps, scope) = link(&patterns, &[2]);
        assert_eq!(steps[0].carry, [Source::O]);
        assert_eq!((steps[1].s, steps[1].o), (Pos::In(0), Pos::Free));
        assert!(steps[1].carry.is_empty());
        assert_eq!(scope.source(Some(2)), Source::O);
        assert_eq!(scope.source(Some(0)), Source::Unbound);
        assert_eq!(run(&store(), &patterns, &[2], |_| {}).data, [C]);
    }

    #[test]
    fn repeated_variable_within_a_pattern_requires_equality() {
        // ?x likes ?x  =>  only (A likes A).
        let p = pattern(Slot::Var(0), Slot::Bound(likes()), Slot::Var(0));
        assert_eq!(evaluate(&store(), &[p], 1), [[A]]);
    }

    #[test]
    fn unbound_predicate_scans_every_table() {
        let p = pattern(Slot::Bound(A), Slot::Var(0), Slot::Var(1));
        assert_eq!(
            evaluate(&store(), &[p], 2),
            [[likes(), A], [knows(), B]],
            "property ids descend"
        );
    }

    #[test]
    fn bound_object_works_with_and_without_the_os_cache() {
        let mut store = store();
        let p = pattern(Slot::Var(0), Slot::Bound(likes()), Slot::Bound(A));
        let before = evaluate(&store, &[p], 1);
        store.ensure_all_os();
        assert_eq!(evaluate(&store, &[p], 1), before);
        assert_eq!(before, [[A], [C]]);
    }

    #[test]
    fn fully_bound_pattern_filters_rows() {
        let store = store();
        let hit = pattern(Slot::Bound(A), Slot::Bound(knows()), Slot::Bound(B));
        assert_eq!(evaluate(&store, &[hit], 0), [Vec::<u64>::new()]);
        let miss = pattern(Slot::Bound(A), Slot::Bound(knows()), Slot::Bound(C));
        assert!(evaluate(&store, &[miss], 0).is_empty());
    }

    #[test]
    fn missing_table_and_resource_predicate_yield_no_rows() {
        let store = store();
        let missing = pattern(Slot::Var(0), Slot::Bound(nth_property_id(77)), Slot::Var(1));
        assert!(evaluate(&store, &[missing], 2).is_empty());
        let resource = pattern(Slot::Var(0), Slot::Bound(A), Slot::Var(1));
        assert!(evaluate(&store, &[resource], 2).is_empty());
    }

    #[test]
    fn cartesian_product_when_patterns_share_no_variable() {
        let patterns = [
            pattern(Slot::Var(0), Slot::Bound(knows()), Slot::Var(1)),
            pattern(Slot::Var(2), Slot::Bound(likes()), Slot::Var(3)),
        ];
        assert_eq!(evaluate(&store(), &patterns, 4).len(), 4); // 2 knows × 2 likes
    }

    #[test]
    fn join_cursor_resumes_on_ascending_keys_and_restarts_otherwise() {
        let pairs = [[1, 10], [1, 11], [4, 40], [7, 70], [7, 71], [9, 90]];
        let mut cursor = Cursor::default();
        assert_eq!(cursor.run(&pairs, 3, 4), [[4, 40]]);
        assert_eq!(cursor.at, 2);
        assert_eq!(cursor.run(&pairs, 3, 4), [[4, 40]], "the same key again");
        assert_eq!(cursor.run(&pairs, 3, 7), [[7, 70], [7, 71]]);
        assert_eq!(cursor.at, 3);
        assert!(cursor.run(&pairs, 3, 8).is_empty());
        assert_eq!(
            cursor.run(&pairs, 3, 1),
            [[1, 10], [1, 11]],
            "a key going back"
        );
        assert_eq!(cursor.at, 0);
        assert_eq!(
            cursor.run(&pairs, 5, 1),
            [[1, 10], [1, 11]],
            "another table"
        );
    }

    /// `subjects` subjects with `fanout` objects each, objects shared.
    fn fan(subjects: u64, fanout: u64) -> TripleStore {
        let mut store =
            TripleStore::from_triples((0..subjects).flat_map(|s| {
                (0..fanout).map(move |o| IdTriple::new(A + s, knows(), 9_000_000 + o))
            }));
        store.ensure_all_os();
        store
    }

    /// Pairs the kernels looked at while `work` ran on this thread.
    pub(crate) fn visited(work: impl FnOnce()) -> usize {
        PAIRS_VISITED.with(|visited| visited.set(0));
        work();
        PAIRS_VISITED.with(std::cell::Cell::get)
    }

    #[test]
    fn distinct_on_the_scan_visits_one_pair_per_run() {
        let store = fan(200, 50);
        let scan = pattern(Slot::Var(0), Slot::Bound(knows()), Slot::Var(1));
        for (projection, dedup, rows) in [
            (vec![0], Dedup::SubjectRuns, 200),
            (vec![1], Dedup::ObjectRuns, 50),
            (vec![], Dedup::Range, 1),
        ] {
            assert_eq!(
                crate::planner::choose_dedup(&store, &[scan], &projection, &[]),
                dedup
            );
            let mut batch = Batch::default();
            let pairs = visited(|| batch = run(&store, &[scan], &projection, |p| p.dedup = dedup));
            assert_eq!(batch.rows, rows);
            assert_eq!(pairs, rows, "{dedup:?} looks at one pair per row");
            // The sort-based fallback agrees.
            let sorted = run(&store, &[scan], &projection, |p| p.dedup = Dedup::Sort);
            let mut rows: Vec<&[u64]> = batch.rows().collect();
            rows.sort();
            assert_eq!(rows, sorted.rows().collect::<Vec<_>>());
        }
    }

    #[test]
    fn limit_and_offset_stop_the_last_scan() {
        let store = fan(200, 50);
        let scan = pattern(Slot::Var(0), Slot::Var(1), Slot::Var(2));
        let mut batch = Batch::default();
        let pairs = visited(|| {
            batch = run(&store, &[scan], &[0], |p| {
                p.offset = 3;
                p.limit = Some(2);
            })
        });
        assert_eq!(batch.rows, 2);
        assert_eq!(pairs, 5, "offset + limit pairs, not the table");
        assert!(batch.data.capacity() <= 8, "and room for as many rows");
        // DISTINCT on the scan slices distinct rows, not pairs.
        let pairs = visited(|| {
            batch = run(&store, &[scan], &[0], |p| {
                p.dedup = Dedup::SubjectRuns;
                p.offset = 3;
                p.limit = Some(2);
            })
        });
        assert_eq!(batch.data, [A + 3, A + 4]);
        assert_eq!(pairs, 5);
        // LIMIT 0 looks at nothing.
        let pairs = visited(|| batch = run(&store, &[scan], &[0], |p| p.limit = Some(0)));
        assert_eq!((batch.rows, pairs), (0, 0));
    }

    #[test]
    fn sort_dedup_handles_every_row_width() {
        let mut scratch = Scratch::default();
        for stride in 0..=4usize {
            // Rows (i % 3, i % 2, 0, 0)[..stride] for i in 0..12, scrambled.
            let mut batch = Batch::default();
            batch.reset(stride);
            for i in [7u64, 2, 11, 4, 0, 9, 5, 1, 10, 3, 8, 6] {
                let row = [i % 3, i % 2, 0, 0];
                batch.data.extend_from_slice(&row[..stride]);
                batch.rows += 1;
            }
            sort_dedup(&mut batch, &mut scratch);
            let expected = [1, 3, 6, 6, 6][stride];
            assert_eq!(batch.rows, expected, "stride {stride}");
            assert_eq!(batch.data.len(), expected * stride);
            let rows: Vec<&[u64]> = batch.rows().collect();
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
        }
    }
}
