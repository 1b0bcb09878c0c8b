//! Cardinality-driven ordering of the BGP's triple patterns, and the linking
//! of the ordered patterns into the executor's steps.
//!
//! The executor evaluates the BGP one pattern per step, so the join order
//! decides how many intermediate bindings are produced. The per-pattern
//! estimate is the store's one cardinality model
//! ([`inferray_store::estimate`]: the uniform model over each table's pair
//! count and bounded distinct-subject / distinct-object counts), the same
//! one `rules explain --data` reports; what this module adds is ordering
//! policy — [`SCAN_SLACK`] on whole-store scans, the search, the tie-breaks.
//!
//! For BGPs of up to [`EXHAUSTIVE_LIMIT`] patterns the planner enumerates
//! every permutation and picks the one minimizing the total estimated
//! intermediate rows, so the chosen order is cost-minimal by construction.
//! Ties are broken deterministically: first by deferring cartesian products
//! (the lexicographically smallest disconnected-pick vector), then by the
//! written pattern order. Larger BGPs fall back to the greedy
//! connected-cheapest-first heuristic with the same per-pattern estimates.
//!
//! [`link`] then fixes, per step, which positions are constants, which come
//! from a column of the previous step's batch and which the step binds, and
//! which variables the step hands on — only those a later pattern, a filter
//! or the projection still reads. [`choose_dedup`] decides whether the scan
//! order of a single-pattern plan already answers `DISTINCT`.

use crate::executor::{CompiledPattern, Dedup, Pos, Same, Slot, Source, Step};
use inferray_store::estimate::{self, table_for, Predicate};
use inferray_store::{PropertyTable, TripleStore};
use std::collections::HashSet;

/// BGPs with at most this many patterns are planned by exhaustive
/// permutation search (≤ 24 orders); larger ones fall back to the greedy
/// heuristic.
const EXHAUSTIVE_LIMIT: usize = 4;

/// Slack multiplier for unbound-predicate scans: iterating every property
/// table costs more than the sum of their lengths suggests, and the planner
/// must never prefer such a scan over an equally sized single-table pattern.
const SCAN_SLACK: f64 = 1.5;

/// Relative tolerance when comparing plan costs: different summation orders
/// of the same estimates may differ by float rounding, and such plans must
/// fall through to the deterministic tie-breaks.
const COST_EPSILON: f64 = 1e-9;

/// Orders compiled patterns for evaluation and returns the ordered list.
pub(crate) fn order_patterns(
    store: &TripleStore,
    patterns: Vec<CompiledPattern>,
) -> Vec<CompiledPattern> {
    if patterns.len() <= 1 {
        return patterns;
    }
    if patterns.len() <= EXHAUSTIVE_LIMIT {
        order_exhaustive(store, patterns)
    } else {
        order_greedy(store, patterns)
    }
}

/// Enumerates every permutation (lexicographic over the written pattern
/// indices) and keeps the minimal-cost one; see the module docs for the
/// tie-break rules.
fn order_exhaustive(store: &TripleStore, patterns: Vec<CompiledPattern>) -> Vec<CompiledPattern> {
    let mut best: Option<(f64, Vec<bool>, Vec<usize>)> = None;
    for order in permutations(patterns.len()) {
        let (cost, disconnects) = plan_cost(store, &patterns, &order);
        let better = match &best {
            None => true,
            Some((best_cost, best_disconnects, _)) => {
                if approx_eq(cost, *best_cost) {
                    disconnects < *best_disconnects
                } else {
                    cost < *best_cost
                }
            }
        };
        if better {
            best = Some((cost, disconnects, order));
        }
    }
    let order = match best {
        Some((_, _, order)) => order,
        None => (0..patterns.len()).collect(),
    };
    order.iter().map(|&index| patterns[index]).collect()
}

/// Greedy fallback for large BGPs: repeatedly pick the cheapest pattern
/// among those connected to the variables already bound, falling back to the
/// globally cheapest pattern when nothing is connected (a cartesian product
/// is unavoidable then). Ties keep the written order.
fn order_greedy(store: &TripleStore, patterns: Vec<CompiledPattern>) -> Vec<CompiledPattern> {
    let mut remaining = patterns;
    let mut ordered = Vec::with_capacity(remaining.len());
    let mut bound: HashSet<usize> = HashSet::new();

    while !remaining.is_empty() {
        let connected_exists = remaining
            .iter()
            .any(|p| !bound.is_empty() && shares_variable(p, &bound));
        let mut best_index = 0;
        let mut best_cost = f64::INFINITY;
        for (index, pattern) in remaining.iter().enumerate() {
            if connected_exists && !shares_variable(pattern, &bound) {
                continue;
            }
            let cost = pattern_cost(store, pattern, &bound);
            if cost < best_cost {
                best_cost = cost;
                best_index = index;
            }
        }
        let chosen = remaining.remove(best_index);
        bind_variables(&chosen, &mut bound);
        ordered.push(chosen);
    }
    ordered
}

/// Total estimated intermediate rows of evaluating `patterns` in `order`,
/// plus the per-position disconnected-pick flags used for tie-breaking.
fn plan_cost(
    store: &TripleStore,
    patterns: &[CompiledPattern],
    order: &[usize],
) -> (f64, Vec<bool>) {
    let mut cost = 0.0_f64;
    let disconnects = running_rows(store, patterns, order)
        .map(|(rows, disconnected)| {
            cost += rows;
            disconnected
        })
        .collect();
    (cost, disconnects)
}

/// The estimated rows after each pattern of `order`, each with whether the
/// pattern was a disconnected pick (a cartesian product).
fn running_rows<'a>(
    store: &'a TripleStore,
    patterns: &'a [CompiledPattern],
    order: &'a [usize],
) -> impl Iterator<Item = (f64, bool)> + 'a {
    let mut bound: HashSet<usize> = HashSet::new();
    let mut rows = 1.0_f64;
    order.iter().map(move |&index| {
        let pattern = &patterns[index];
        let disconnected =
            !bound.is_empty() && has_variable(pattern) && !shares_variable(pattern, &bound);
        rows *= pattern_cost(store, pattern, &bound);
        bind_variables(pattern, &mut bound);
        (rows, disconnected)
    })
}

fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= COST_EPSILON * a.abs().max(b.abs()).max(1.0)
}

fn bind_variables(pattern: &CompiledPattern, bound: &mut HashSet<usize>) {
    for slot in [&pattern.s, &pattern.p, &pattern.o] {
        if let Slot::Var(index) = slot {
            bound.insert(*index);
        }
    }
}

fn has_variable(pattern: &CompiledPattern) -> bool {
    [&pattern.s, &pattern.p, &pattern.o]
        .iter()
        .any(|slot| matches!(slot, Slot::Var(_)))
}

fn shares_variable(pattern: &CompiledPattern, bound: &HashSet<usize>) -> bool {
    [&pattern.s, &pattern.p, &pattern.o]
        .iter()
        .any(|slot| matches!(slot, Slot::Var(index) if bound.contains(index)))
}

/// All permutations of `0..len` in lexicographic order.
fn permutations(len: usize) -> Vec<Vec<usize>> {
    fn recurse(len: usize, current: &mut Vec<usize>, used: &mut [bool], out: &mut Vec<Vec<usize>>) {
        if current.len() == len {
            out.push(current.clone());
            return;
        }
        for index in 0..len {
            if !used[index] {
                used[index] = true;
                current.push(index);
                recurse(len, current, used, out);
                current.pop();
                used[index] = false;
            }
        }
    }
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(len);
    let mut used = vec![false; len];
    recurse(len, &mut current, &mut used, &mut out);
    out
}

/// Estimated number of bindings the pattern produces per input row, given
/// the variables already bound by earlier patterns: the shared model of
/// [`inferray_store::estimate`], with [`SCAN_SLACK`] on a whole-store scan.
pub(crate) fn pattern_cost(
    store: &TripleStore,
    pattern: &CompiledPattern,
    bound: &HashSet<usize>,
) -> f64 {
    let is_bound = |slot: &Slot| match slot {
        Slot::Bound(_) => true,
        Slot::Var(index) => bound.contains(index),
    };
    let predicate = match pattern.p {
        Slot::Bound(p) => Predicate::Const(p),
        Slot::Var(index) if bound.contains(&index) => Predicate::Bound,
        Slot::Var(_) => Predicate::Free,
    };
    let rows = estimate::per_binding(store, predicate, is_bound(&pattern.s), is_bound(&pattern.o));
    // Zero means an empty store: there is no scan to slow down.
    if predicate == Predicate::Free && rows > 0.0 {
        (rows * SCAN_SLACK).max(1.0)
    } else {
        rows
    }
}

/// Resolves variables against the last step: its input batch's columns and
/// the positions its pattern binds.
#[derive(Debug, Default)]
pub(crate) struct Scope {
    /// The variable held by each column of the batch the step reads.
    layout: Vec<usize>,
    pattern: Option<CompiledPattern>,
}

impl Scope {
    /// Where the step finds `variable` (`None`: a name no pattern mentions).
    pub(crate) fn source(&self, variable: Option<usize>) -> Source {
        let Some(variable) = variable else {
            return Source::Unbound;
        };
        if let Some(column) = self.layout.iter().position(|v| *v == variable) {
            return Source::In(column);
        }
        let binds = |slot: Slot| slot == Slot::Var(variable);
        match self.pattern {
            Some(pattern) if binds(pattern.s) => Source::S,
            Some(pattern) if binds(pattern.p) => Source::P,
            Some(pattern) if binds(pattern.o) => Source::O,
            _ => Source::Unbound,
        }
    }

    fn pos(&self, slot: Slot) -> Pos {
        match slot {
            Slot::Bound(id) => Pos::Const(id),
            Slot::Var(variable) => match self.source(Some(variable)) {
                Source::In(column) => Pos::In(column),
                _ => Pos::Free,
            },
        }
    }
}

/// Links the ordered patterns into steps. `needed` lists the variables read
/// after the last pattern (by a filter or the projection); a variable is
/// carried from one step to the next only while something still reads it.
/// Returns the steps and the scope of the last one, against which the
/// caller resolves the projection and the filters.
pub(crate) fn link(ordered: &[CompiledPattern], needed: &[usize]) -> (Vec<Step>, Scope) {
    let mut steps = Vec::with_capacity(ordered.len());
    let mut scope = Scope::default();
    for (index, pattern) in ordered.iter().enumerate() {
        scope.pattern = Some(*pattern);
        let (s, p, o) = (
            scope.pos(pattern.s),
            scope.pos(pattern.p),
            scope.pos(pattern.o),
        );
        let same = Same {
            subject_predicate: s == Pos::Free && pattern.s == pattern.p,
            subject_object: s == Pos::Free && pattern.s == pattern.o,
            predicate_object: p == Pos::Free && pattern.p == pattern.o,
        };
        let later = &ordered[index + 1..];
        let mut carry = Vec::new();
        if !later.is_empty() {
            let mut layout = Vec::new();
            let bound_here = [pattern.s, pattern.p, pattern.o]
                .into_iter()
                .filter_map(|slot| match slot {
                    Slot::Var(variable) => Some(variable),
                    Slot::Bound(_) => None,
                });
            for variable in scope.layout.iter().copied().chain(bound_here) {
                let read_later =
                    needed.contains(&variable) || later.iter().any(|p| mentions(p, variable));
                if read_later && !layout.contains(&variable) {
                    carry.push(scope.source(Some(variable)));
                    layout.push(variable);
                }
            }
            scope.layout = layout;
        }
        steps.push(Step {
            s,
            p,
            o,
            same,
            carry,
        });
    }
    (steps, scope)
}

fn mentions(pattern: &CompiledPattern, variable: usize) -> bool {
    [pattern.s, pattern.p, pattern.o].contains(&Slot::Var(variable))
}

/// How `DISTINCT` over `ordered` is answered when `projected` are the
/// variables of the output row and `filtered` the ones the filters read. A
/// single pattern enumerates distinct triples, so its rows can only repeat in
/// the variables that are *not* projected, and the sort order of the scanned
/// layout groups those repeats — as long as no filter tells them apart.
pub(crate) fn choose_dedup(
    store: &TripleStore,
    ordered: &[CompiledPattern],
    projected: &[usize],
    filtered: &[usize],
) -> Dedup {
    let pattern = match ordered {
        [] => return Dedup::None,
        [pattern] => pattern,
        _ => return Dedup::Sort,
    };
    let dropped = |slot: Slot| matches!(slot, Slot::Var(v) if !projected.contains(&v));
    let positions = [pattern.s, pattern.p, pattern.o];
    if positions
        .iter()
        .any(|slot| dropped(*slot) && matches!(slot, Slot::Var(v) if filtered.contains(v)))
    {
        // Rows that agree on the output may differ on what a filter reads.
        return Dedup::Sort;
    }
    let free = |slot: Slot| matches!(slot, Slot::Var(_));
    match (dropped(pattern.s), dropped(pattern.p), dropped(pattern.o)) {
        (false, false, false) => Dedup::None,
        // The same row can come out of several tables.
        (_, true, _) => Dedup::Sort,
        (false, false, true) if free(pattern.s) => Dedup::SubjectRuns,
        (true, false, false) if free(pattern.o) => {
            let cached = match pattern.p {
                Slot::Bound(p) => table_for(store, p).is_none_or(PropertyTable::has_os_cache),
                Slot::Var(_) => store.iter_tables().all(|(_, table)| table.has_os_cache()),
            };
            if cached {
                Dedup::ObjectRuns
            } else {
                Dedup::Sort
            }
        }
        _ => Dedup::Range,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::tests::evaluate;
    use inferray_model::ids::nth_property_id;
    use inferray_model::IdTriple;

    fn store() -> TripleStore {
        let p_small = nth_property_id(20);
        let p_large = nth_property_id(21);
        let mut triples = vec![IdTriple::new(1_000_000, p_small, 1_000_001)];
        for i in 0..100 {
            triples.push(IdTriple::new(2_000_000 + i, p_large, 3_000_000));
        }
        TripleStore::from_triples(triples)
    }

    fn pattern(s: Slot, p: Slot, o: Slot) -> CompiledPattern {
        CompiledPattern { s, p, o }
    }

    #[test]
    fn cheaper_table_is_scheduled_first() {
        let store = store();
        let p_small = nth_property_id(20);
        let p_large = nth_property_id(21);
        // ?x <small> ?y  vs  ?y <large> ?z — the small table should lead.
        let patterns = vec![
            pattern(Slot::Var(1), Slot::Bound(p_large), Slot::Var(2)),
            pattern(Slot::Var(0), Slot::Bound(p_small), Slot::Var(1)),
        ];
        let ordered = order_patterns(&store, patterns);
        assert_eq!(ordered[0].p, Slot::Bound(p_small));
        assert_eq!(ordered[1].p, Slot::Bound(p_large));
    }

    #[test]
    fn connected_patterns_are_preferred_over_cheaper_disconnected_ones() {
        let store = store();
        let p_small = nth_property_id(20);
        let p_large = nth_property_id(21);
        // Start from the small table (vars 0,1); the next pick must join on
        // var 1 even though the disconnected pattern over the small table
        // would be cheaper in isolation.
        let patterns = vec![
            pattern(Slot::Var(0), Slot::Bound(p_small), Slot::Var(1)),
            pattern(Slot::Var(5), Slot::Bound(p_small), Slot::Var(6)),
            pattern(Slot::Var(1), Slot::Bound(p_large), Slot::Var(2)),
        ];
        let ordered = order_patterns(&store, patterns);
        assert_eq!(ordered[0].p, Slot::Bound(p_small));
        assert_eq!(ordered[1].s, Slot::Var(1));
        assert_eq!(ordered[2].s, Slot::Var(5));
    }

    #[test]
    fn leading_unbound_predicate_pattern_is_deferred() {
        // Written order starts with a whole-store scan (`?x ?p ?y`): the
        // planner must schedule the selective bound-predicate pattern first,
        // because a bound-predicate pattern never costs more than its table
        // (≤ store size) while an unconstrained unbound predicate is costed
        // as a full scan with slack.
        let store = store();
        let p_small = nth_property_id(20);
        let patterns = vec![
            pattern(Slot::Var(0), Slot::Var(1), Slot::Var(2)),
            pattern(Slot::Var(0), Slot::Bound(p_small), Slot::Var(3)),
        ];
        let ordered = order_patterns(&store, patterns);
        assert_eq!(ordered[0].p, Slot::Bound(p_small));
        assert!(matches!(ordered[1].p, Slot::Var(_)));
    }

    #[test]
    fn unconstrained_scan_never_precedes_any_bound_predicate_pattern() {
        // The invariant behind the scan slack, checked against both tables:
        // even the *largest* property table is preferred over the unbound
        // scan.
        let store = store();
        let bound = HashSet::new();
        let scan = pattern(Slot::Var(0), Slot::Var(1), Slot::Var(2));
        let scan_cost = pattern_cost(&store, &scan, &bound);
        for p in [nth_property_id(20), nth_property_id(21)] {
            let candidate = pattern(Slot::Var(0), Slot::Bound(p), Slot::Var(1));
            assert!(
                pattern_cost(&store, &candidate, &bound) < scan_cost,
                "bound-predicate pattern over table {p} must beat the scan"
            );
        }
    }

    #[test]
    fn fully_bound_pattern_wins() {
        let store = store();
        let p_large = nth_property_id(21);
        let patterns = vec![
            pattern(Slot::Var(0), Slot::Bound(p_large), Slot::Var(1)),
            pattern(
                Slot::Bound(2_000_000),
                Slot::Bound(p_large),
                Slot::Bound(3_000_000),
            ),
        ];
        let ordered = order_patterns(&store, patterns);
        assert!(matches!(ordered[0].s, Slot::Bound(_)));
    }

    #[test]
    fn empty_table_costs_nothing() {
        let store = store();
        let missing = nth_property_id(99);
        let bound = HashSet::new();
        let p = pattern(Slot::Var(0), Slot::Bound(missing), Slot::Var(1));
        assert_eq!(pattern_cost(&store, &p, &bound), 0.0);
    }

    #[test]
    fn unbound_predicate_is_costed_as_a_scan() {
        let store = store();
        let bound = HashSet::new();
        let p = pattern(Slot::Var(0), Slot::Var(1), Slot::Var(2));
        let cost = pattern_cost(&store, &p, &bound);
        assert!(cost >= store.len() as f64);
    }

    #[test]
    fn bound_object_estimate_uses_the_os_layout_when_materialized() {
        // The large table holds 100 pairs with a single shared object: with
        // the ⟨o,s⟩ cache the planner knows a bound object selects the whole
        // table (100 expected rows); without it the square-root fallback
        // guesses 10.
        let mut store = store();
        let p_large = nth_property_id(21);
        let bound = HashSet::new();
        let probe = pattern(Slot::Var(0), Slot::Bound(p_large), Slot::Bound(3_000_000));
        let without_cache = pattern_cost(&store, &probe, &bound);
        assert_eq!(without_cache, 10.0);
        store.ensure_all_os();
        let with_cache = pattern_cost(&store, &probe, &bound);
        assert_eq!(with_cache, 100.0);
    }

    #[test]
    fn bound_subject_estimate_is_the_average_run_length() {
        // 100 distinct subjects over 100 pairs: one expected row per bound
        // subject. A second property with repeated subjects must estimate
        // its longer runs.
        let store = store();
        let p_large = nth_property_id(21);
        let mut bound = HashSet::new();
        bound.insert(0);
        let probe = pattern(Slot::Var(0), Slot::Bound(p_large), Slot::Var(1));
        assert_eq!(pattern_cost(&store, &probe, &bound), 1.0);

        let p_fanout = nth_property_id(22);
        let fanout = TripleStore::from_triples(
            (0..40).map(|i| IdTriple::new(7_000_000 + (i % 4), p_fanout, 8_000_000 + i)),
        );
        let probe = pattern(Slot::Var(0), Slot::Bound(p_fanout), Slot::Var(1));
        assert_eq!(pattern_cost(&fanout, &probe, &bound), 10.0);
    }

    // --- tie-break regression suite ------------------------------------

    #[test]
    fn tied_costs_keep_the_written_pattern_order() {
        let store = store();
        let p_small = nth_property_id(20);
        // Two structurally identical patterns over the same table tie on
        // every cost component; the written order must survive planning so
        // plans are reproducible across runs.
        let patterns = vec![
            pattern(Slot::Var(3), Slot::Bound(p_small), Slot::Var(4)),
            pattern(Slot::Var(0), Slot::Bound(p_small), Slot::Var(1)),
        ];
        let ordered = order_patterns(&store, patterns.clone());
        assert_eq!(ordered, patterns);
    }

    #[test]
    fn tied_costs_defer_cartesian_products() {
        let store = store();
        let p_small = nth_property_id(20);
        let p_large = nth_property_id(21);
        // [small(0,1), small(5,6), large(1,2)] and [small(0,1), large(1,2),
        // small(5,6)] have identical estimated cost (every step yields one
        // row); the disconnected-pick tie-break must choose the order whose
        // cartesian product comes last.
        let patterns = vec![
            pattern(Slot::Var(0), Slot::Bound(p_small), Slot::Var(1)),
            pattern(Slot::Var(5), Slot::Bound(p_small), Slot::Var(6)),
            pattern(Slot::Var(1), Slot::Bound(p_large), Slot::Var(2)),
        ];
        let (cost_late, flags_late) = plan_cost(&store, &patterns, &[0, 2, 1]);
        let (cost_early, flags_early) = plan_cost(&store, &patterns, &[0, 1, 2]);
        assert!(approx_eq(cost_late, cost_early), "the suite assumes a tie");
        assert!(flags_late < flags_early);
        let ordered = order_patterns(&store, patterns);
        assert_eq!(ordered[1].p, Slot::Bound(p_large));
    }

    #[test]
    fn planning_is_deterministic_across_repeated_runs() {
        let store = store();
        let p_small = nth_property_id(20);
        let p_large = nth_property_id(21);
        let patterns = vec![
            pattern(Slot::Var(0), Slot::Bound(p_large), Slot::Var(1)),
            pattern(Slot::Var(1), Slot::Bound(p_small), Slot::Var(2)),
            pattern(Slot::Var(2), Slot::Bound(p_large), Slot::Var(3)),
            pattern(Slot::Var(0), Slot::Bound(p_small), Slot::Var(3)),
        ];
        let first = order_patterns(&store, patterns.clone());
        for _ in 0..10 {
            assert_eq!(order_patterns(&store, patterns.clone()), first);
        }
    }

    // --- permutation-invariance and cost-minimality properties ---------

    /// Deterministic xorshift generator so the property cases are
    /// reproducible without external crates.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    /// A store with mixed fan-out so different join orders genuinely differ
    /// in cost: a skewed table, a one-to-one table, and a tiny table.
    fn property_store() -> TripleStore {
        let p_skew = nth_property_id(40);
        let p_chain = nth_property_id(41);
        let p_tiny = nth_property_id(42);
        let mut triples = Vec::new();
        for i in 0..60_u64 {
            triples.push(IdTriple::new(9_000_000 + (i % 6), p_skew, 9_100_000 + i));
        }
        for i in 0..30_u64 {
            triples.push(IdTriple::new(9_100_000 + i, p_chain, 9_200_000 + (i % 3)));
        }
        triples.push(IdTriple::new(9_000_001, p_tiny, 9_200_001));
        triples.push(IdTriple::new(9_000_002, p_tiny, 9_200_002));
        let mut store = TripleStore::from_triples(triples);
        store.ensure_all_os();
        store
    }

    fn random_slot(rng: &mut Rng, constants: &[u64], variables: usize) -> Slot {
        if rng.below(2) == 0 {
            Slot::Var(rng.below(variables as u64) as usize)
        } else {
            Slot::Bound(constants[rng.below(constants.len() as u64) as usize])
        }
    }

    fn random_bgp(rng: &mut Rng, store: &TripleStore) -> (Vec<CompiledPattern>, usize) {
        let variables = 4;
        let count = 2 + rng.below(3) as usize; // 2..=4 patterns
        let properties = [
            nth_property_id(40),
            nth_property_id(41),
            nth_property_id(42),
        ];
        // Constants that exist in the data so joins are not trivially empty,
        // mixing subjects and objects.
        let constants: Vec<u64> = store
            .iter_triples()
            .flat_map(|t| [t.s, t.o])
            .step_by(17)
            .collect();
        let patterns = (0..count)
            .map(|_| {
                let p = if rng.below(8) == 0 {
                    Slot::Var(rng.below(variables as u64) as usize)
                } else {
                    Slot::Bound(properties[rng.below(3) as usize])
                };
                pattern(
                    random_slot(rng, &constants, variables),
                    p,
                    random_slot(rng, &constants, variables),
                )
            })
            .collect();
        (patterns, variables)
    }

    #[test]
    fn any_input_permutation_yields_the_same_solutions() {
        let store = property_store();
        let mut rng = Rng(0x5eed_cafe_f00d_0001);
        for case in 0..40 {
            let (patterns, variables) = random_bgp(&mut rng, &store);
            let reference = evaluate(&store, &order_patterns(&store, patterns.clone()), variables);
            for order in permutations(patterns.len()) {
                let permuted: Vec<_> = order.iter().map(|&i| patterns[i]).collect();
                let planned = order_patterns(&store, permuted);
                assert_eq!(
                    evaluate(&store, &planned, variables),
                    reference,
                    "case {case}: permutation {order:?} changed the solutions of {patterns:?}"
                );
            }
        }
    }

    #[test]
    fn chosen_order_cost_is_minimal_among_all_permutations() {
        let store = property_store();
        let mut rng = Rng(0x5eed_cafe_f00d_0002);
        for case in 0..40 {
            let (patterns, _) = random_bgp(&mut rng, &store);
            let planned = order_patterns(&store, patterns.clone());
            let identity: Vec<usize> = (0..planned.len()).collect();
            let (chosen_cost, _) = plan_cost(&store, &planned, &identity);
            for order in permutations(patterns.len()) {
                let (cost, _) = plan_cost(&store, &patterns, &order);
                assert!(
                    chosen_cost <= cost || approx_eq(chosen_cost, cost),
                    "case {case}: order {order:?} of {patterns:?} costs {cost}, \
                     cheaper than the planner's {chosen_cost}"
                );
            }
        }
    }

    #[test]
    fn greedy_fallback_handles_large_bgps() {
        // Five patterns exceed the exhaustive limit; the greedy path must
        // still start from the cheapest table and keep joins connected.
        let store = store();
        let p_small = nth_property_id(20);
        let p_large = nth_property_id(21);
        let patterns = vec![
            pattern(Slot::Var(1), Slot::Bound(p_large), Slot::Var(2)),
            pattern(Slot::Var(2), Slot::Bound(p_large), Slot::Var(3)),
            pattern(Slot::Var(0), Slot::Bound(p_small), Slot::Var(1)),
            pattern(Slot::Var(3), Slot::Bound(p_large), Slot::Var(4)),
            pattern(Slot::Var(4), Slot::Bound(p_large), Slot::Var(5)),
        ];
        let ordered = order_patterns(&store, patterns);
        assert_eq!(ordered.len(), 5);
        assert_eq!(ordered[0].p, Slot::Bound(p_small));
        let mut bound = HashSet::new();
        bind_variables(&ordered[0], &mut bound);
        for next in &ordered[1..] {
            assert!(
                shares_variable(next, &bound),
                "greedy order must stay connected"
            );
            bind_variables(next, &mut bound);
        }
    }

    #[test]
    fn rules_explain_estimates_the_rows_the_planner_does() {
        use inferray_rules::analysis::{self, cost, Term};
        // A skewed, a many-to-few and a tiny table, as in `property_store`.
        let mut document = String::new();
        let mut triple = |s: u64, p: u64, o: u64| {
            document.push_str(&format!("<urn:n{s}> <urn:p{p}> <urn:n{o}> .\n"));
        };
        (0..60).for_each(|i| triple(i % 6, 0, 100 + i));
        (0..30).for_each(|i| triple(100 + i, 1, 200 + i % 3));
        triple(1, 2, 201);
        triple(2, 2, 202);
        let mut loaded = inferray_parser::load_ntriples(&document).unwrap();
        loaded.store.ensure_all_os();
        let (store, mut dictionary) = (loaded.store, loaded.dictionary);

        // `urn:p3` and `urn:n999` are not in the data.
        let terms = [
            "<urn:n0>",
            "<urn:n1>",
            "<urn:n105>",
            "<urn:n201>",
            "<urn:n999>",
        ];
        let mut rng = Rng(0x5eed_cafe_f00d_0003);
        let term = |rng: &mut Rng| match rng.below(3) {
            0 => terms[rng.below(terms.len() as u64) as usize].to_owned(),
            _ => format!("?v{}", rng.below(4)),
        };
        for case in 0..60 {
            let body: Vec<String> = (0..2 + case % 2)
                .map(|_| {
                    let p = rng.below(4);
                    format!("{} <urn:p{p}> {}", term(&mut rng), term(&mut rng))
                })
                .collect();
            let text = format!("rule r: {} => <urn:h> <urn:out> <urn:h> .", body.join(", "));
            let compiled = analysis::analyze(&text)
                .compile(&mut dictionary)
                .unwrap_or_else(|diags| panic!("{text}: {diags:?}"));
            let rule = &compiled.rules[0];
            let slot = |term: Term| match term {
                Term::Var(v) => Slot::Var(v as usize),
                Term::Const(c) => Slot::Bound(c),
            };
            let patterns: Vec<CompiledPattern> = rule
                .body
                .iter()
                .map(|atom| pattern(slot(atom.s), slot(atom.p), slot(atom.o)))
                .collect();
            let written: Vec<usize> = (0..patterns.len()).collect();
            let (planned, _) = running_rows(&store, &patterns, &written).last().unwrap();
            let explained = cost::estimate(rule, &store, &dictionary).est_bindings;
            assert_eq!(planned, explained, "case {case}: {text}");
        }
    }
}
