//! The table-scan kernel: the γ and δ rules' shape, whose data atom has a
//! *variable* property.
//!
//! γ-rules (PRP-DOM, PRP-RNG, PRP-SPO1, PRP-SYMP) join a schema table on the
//! property identifier of the data pattern: "the join is performed on the
//! property of the second triple pattern. Consequently, this requires to
//! iterate over several property tables" (§4.4). δ-rules (PRP-EQP1/2,
//! PRP-INV1/2) are the special case where the data table is copied — possibly
//! reversed — into the head's table; EQ-REP-P has the same shape over
//! `owl:sameAs`.
//!
//! Any rule of the shape runs here ([`crate::analysis::Lowering::TableScan`]).
//! Semi-naive evaluation pairs the *new* schema triples with the *main* data
//! tables and the *main* schema triples with the *new* data tables — the
//! first pairing alone when the frontier is the whole store. Per schema
//! match, each head copies or reverses the named data table (resolving its
//! output vector once and reserving the copy's exact size), or emits the
//! table's distinct subjects or objects once each.

use super::join::JoinSide;
use crate::analysis::{ScanEmit, TableScan};
use crate::context::RuleContext;
use inferray_model::ids::is_property_id;
use inferray_store::{InferredBuffer, Pair, PropertyTable, TripleStore};

/// Runs a table-scan rule (both semi-naive passes).
pub fn apply_table_scan(scan: &TableScan, ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    let mut stamps = ObjectStamps::default();
    scan_pass(scan, ctx.new, ctx.main, &mut stamps, out);
    if !ctx.is_whole() {
        scan_pass(scan, ctx.main, ctx.new, &mut stamps, out);
    }
}

/// For every pair of `schema_store` the schema atom matches, emits every
/// head over the data table of `data_store` it names.
fn scan_pass(
    scan: &TableScan,
    schema_store: &TripleStore,
    data_store: &TripleStore,
    stamps: &mut ObjectStamps,
    out: &mut InferredBuffer,
) {
    for_each_schema_match(schema_store, scan, |s, o| {
        let data_p = scan.data.pick(s, o);
        let Some(table) = data_table(data_store, data_p) else {
            return;
        };
        for &(head_p, emit) in &scan.heads {
            let p = head_p.pick(s, o);
            if !is_property_id(p) {
                continue;
            }
            match emit {
                // Copying a table onto itself derives nothing.
                ScanEmit::Copy if p == data_p => {}
                ScanEmit::Copy => out.add_pairs(p, table.pairs()),
                ScanEmit::Reverse => push_reversed(out, p, table),
                // The table is sorted on ⟨s,o⟩: a subject's repeats follow it.
                ScanEmit::DistinctSubjects(at, other) => {
                    let (c, out) = (other.pick(s, o), out.table_mut(p));
                    let mut previous = None;
                    for (x, _) in table.iter_pairs() {
                        if previous != Some(x) {
                            previous = Some(x);
                            out.extend_from_slice(&head_pair(at, x, c));
                        }
                    }
                }
                // The objects are not sorted: the ones emitted are stamped.
                ScanEmit::DistinctObjects(at, other) => {
                    let (c, out) = (other.pick(s, o), out.table_mut(p));
                    stamps
                        .for_each_distinct(table, |y| out.extend_from_slice(&head_pair(at, y, c)));
                }
            }
        }
    });
}

/// The head pair with `value` at `at` and `other` at the other end.
fn head_pair(at: JoinSide, value: u64, other: u64) -> Pair {
    match at {
        JoinSide::Subject => [value, other],
        JoinSide::Object => [other, value],
    }
}

/// Calls `f(s, o)` for every pair of `store` the schema atom matches. A
/// constant object reads one run through [`RuleContext::subjects_with_object`],
/// which starts no ⟨o,s⟩ cache build.
fn for_each_schema_match(store: &TripleStore, scan: &TableScan, mut f: impl FnMut(u64, u64)) {
    let (p, subject, object) = scan.schema;
    let Some(table) = store.table(p) else {
        return;
    };
    match (subject.as_const(), object.as_const()) {
        (None, None) => table.iter_pairs().for_each(|(s, o)| f(s, o)),
        (Some(s), None) => table.objects_of(s).for_each(|o| f(s, o)),
        (None, Some(o)) => {
            for s in RuleContext::subjects_with_object(store, p, o) {
                f(s, o);
            }
        }
        (Some(_), Some(_)) => unreachable!("a schema atom binds the data predicate"),
    }
}

/// The non-empty table of `p` in `data`, when `p` can have one.
fn data_table(data: &TripleStore, p: u64) -> Option<&PropertyTable> {
    if !is_property_id(p) {
        return None;
    }
    data.table(p).filter(|table| !table.is_empty())
}

/// Appends `table`'s pairs reversed (`(y, x)` for every `(x, y)`) to the
/// pairs of `p`.
fn push_reversed(out: &mut InferredBuffer, p: u64, table: &PropertyTable) {
    let out = out.table_mut(p);
    out.reserve(table.pairs().len());
    for (x, y) in table.iter_pairs() {
        out.extend_from_slice(&[y, x]);
    }
}

/// How many stamp slots per pair a table may ask for before its objects
/// are deduplicated by sorting instead: the slots of one call are at most
/// twice the bytes of the table they stamp.
const STAMP_SLOTS_PER_PAIR: u64 = 8;

/// One `u32` slot per object in a table's object span; slot `y − base`
/// holds the epoch of the last table that had object `y`. Never cleared
/// between tables: every table stamps with an epoch of its own.
#[derive(Default)]
struct ObjectStamps {
    slots: Vec<u32>,
    epoch: u32,
}

impl ObjectStamps {
    /// Calls `emit` once for every distinct object of `table`, in order of
    /// first occurrence — or, when the objects are too far apart to stamp,
    /// in ascending order.
    fn for_each_distinct(&mut self, table: &PropertyTable, mut emit: impl FnMut(u64)) {
        let objects = || table.iter_pairs().map(|(_, y)| y);
        let Some((base, max)) = objects().fold(None, |bounds, y| match bounds {
            None => Some((y, y)),
            Some((lo, hi)) => Some((y.min(lo), y.max(hi))),
        }) else {
            return;
        };
        if max - base >= STAMP_SLOTS_PER_PAIR * table.len() as u64 {
            let mut sorted: Vec<u64> = objects().collect();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.into_iter().for_each(emit);
            return;
        }
        let span = (max - base) as usize + 1;
        if self.slots.len() < span {
            self.slots.resize(span, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The counter wrapped: old stamps could collide with new epochs.
            self.slots.fill(0);
            self.epoch = 1;
        }
        for y in objects() {
            let slot = &mut self.slots[(y - base) as usize];
            if *slot != self.epoch {
                *slot = self.epoch;
                emit(y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executors::test_support::{apply, buffer_to_set, fire, store};
    use crate::RuleId;
    use inferray_dictionary::wellknown as wk;
    use inferray_model::ids::nth_property_id;

    const PERSON: u64 = 3_000_000;
    const CITY: u64 = 3_000_001;
    const ALICE: u64 = 3_000_002;
    const LYON: u64 = 3_000_003;
    const BOB: u64 = 3_000_004;

    fn prop(n: usize) -> u64 {
        // Property ids outside the pre-registered vocabulary.
        nth_property_id(100 + n)
    }

    #[test]
    fn prp_dom_types_the_subject() {
        let lives_in = prop(0);
        let main = store(&[
            (lives_in, wk::RDFS_DOMAIN, PERSON),
            (ALICE, lives_in, LYON),
            (BOB, lives_in, LYON),
        ]);
        let derived = fire(RuleId::PrpDom, &main);
        assert!(derived.contains(&(ALICE, wk::RDF_TYPE, PERSON)));
        assert!(derived.contains(&(BOB, wk::RDF_TYPE, PERSON)));
        assert_eq!(derived.len(), 2);
    }

    #[test]
    fn prp_dom_and_prp_rng_emit_each_head_once_per_schema_pair() {
        let lives_in = prop(0);
        let main = store(&[
            (lives_in, wk::RDFS_DOMAIN, PERSON),
            (lives_in, wk::RDFS_RANGE, CITY),
            (ALICE, lives_in, LYON),
            (ALICE, lives_in, BOB),
            (BOB, lives_in, LYON),
        ]);
        let raw = |rule| {
            let mut out = InferredBuffer::new();
            apply(rule, &RuleContext::new(&main, &main), &mut out);
            let mut pairs: Vec<u64> = out.iter().flat_map(|(_, pairs)| pairs.to_vec()).collect();
            pairs.sort_unstable();
            pairs
        };
        let mut dom = vec![ALICE, PERSON, BOB, PERSON];
        dom.sort_unstable();
        assert_eq!(raw(RuleId::PrpDom), dom, "ALICE has two values: typed once");
        let mut rng = vec![LYON, CITY, BOB, CITY];
        rng.sort_unstable();
        assert_eq!(
            raw(RuleId::PrpRng),
            rng,
            "LYON has two subjects: typed once"
        );
    }

    #[test]
    fn object_stamps_agree_with_sorting_on_either_side_of_the_slot_bound() {
        let mut stamps = ObjectStamps::default();
        for stride in [1u64, 3, 1 << 20] {
            let table = PropertyTable::from_pairs(
                (0..40u64)
                    .flat_map(|i| [ALICE + i, CITY + (i * 7 % 11) * stride])
                    .collect(),
            );
            let mut distinct = Vec::new();
            stamps.for_each_distinct(&table, |y| distinct.push(y));
            let mut expected: Vec<u64> = table.iter_pairs().map(|(_, y)| y).collect();
            expected.sort_unstable();
            expected.dedup();
            distinct.sort_unstable();
            assert_eq!(distinct, expected, "stride {stride}");
        }
    }

    #[test]
    fn prp_rng_types_the_object() {
        let lives_in = prop(0);
        let main = store(&[(lives_in, wk::RDFS_RANGE, CITY), (ALICE, lives_in, LYON)]);
        assert_eq!(
            fire(RuleId::PrpRng, &main).into_iter().collect::<Vec<_>>(),
            vec![(LYON, wk::RDF_TYPE, CITY)]
        );
    }

    #[test]
    fn prp_spo1_copies_the_subproperty_table() {
        let has_son = prop(1);
        let has_child = prop(2);
        let main = store(&[
            (has_son, wk::RDFS_SUB_PROPERTY_OF, has_child),
            (ALICE, has_son, BOB),
        ]);
        assert_eq!(
            fire(RuleId::PrpSpo1, &main).into_iter().collect::<Vec<_>>(),
            vec![(ALICE, has_child, BOB)]
        );
    }

    #[test]
    fn prp_spo1_skips_reflexive_subproperty_pairs() {
        let p = prop(3);
        let main = store(&[(p, wk::RDFS_SUB_PROPERTY_OF, p), (ALICE, p, BOB)]);
        assert!(fire(RuleId::PrpSpo1, &main).is_empty());
    }

    #[test]
    fn prp_symp_reverses_pairs_of_symmetric_properties() {
        let married_to = prop(4);
        let main = store(&[
            (married_to, wk::RDF_TYPE, wk::OWL_SYMMETRIC_PROPERTY),
            (ALICE, married_to, BOB),
        ]);
        assert!(fire(RuleId::PrpSymp, &main).contains(&(BOB, married_to, ALICE)));
    }

    #[test]
    fn prp_eqp_copies_in_both_directions() {
        let p = prop(5);
        let q = prop(6);
        let main = store(&[
            (p, wk::OWL_EQUIVALENT_PROPERTY, q),
            (ALICE, p, LYON),
            (BOB, q, LYON),
        ]);
        let d1 = fire(RuleId::PrpEqp1, &main);
        assert!(d1.contains(&(ALICE, q, LYON)));
        assert!(!d1.contains(&(BOB, p, LYON)));
        let d2 = fire(RuleId::PrpEqp2, &main);
        assert!(d2.contains(&(BOB, p, LYON)));
    }

    #[test]
    fn prp_inv_reverses_in_both_directions() {
        let parent_of = prop(7);
        let child_of = prop(8);
        let main = store(&[
            (parent_of, wk::OWL_INVERSE_OF, child_of),
            (ALICE, parent_of, BOB),
            (LYON, child_of, CITY),
        ]);
        assert!(fire(RuleId::PrpInv1, &main).contains(&(BOB, child_of, ALICE)));
        assert!(fire(RuleId::PrpInv2, &main).contains(&(CITY, parent_of, LYON)));
    }

    #[test]
    fn schema_pairs_with_non_property_values_are_ignored() {
        // A domain triple whose subject is a resource (data error) must not
        // crash or derive anything.
        let main = store(&[(PERSON, wk::RDFS_DOMAIN, CITY), (ALICE, prop(0), LYON)]);
        assert!(fire(RuleId::PrpDom, &main).is_empty());
    }

    #[test]
    fn semi_naive_covers_new_data_against_old_schema() {
        let lives_in = prop(0);
        let main = store(&[(lives_in, wk::RDFS_DOMAIN, PERSON), (ALICE, lives_in, LYON)]);
        let new = store(&[(ALICE, lives_in, LYON)]);
        let mut out = InferredBuffer::new();
        apply(RuleId::PrpDom, &RuleContext::new(&main, &new), &mut out);
        assert!(buffer_to_set(&out).contains(&(ALICE, wk::RDF_TYPE, PERSON)));
    }
}
