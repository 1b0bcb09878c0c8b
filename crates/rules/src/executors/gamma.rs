//! γ- and δ-rules: rules whose second antecedent has a *variable* property.
//!
//! γ-rules (PRP-DOM, PRP-RNG, PRP-SPO1, PRP-SYMP) join a schema table on the
//! property identifier of the data pattern: "the join is performed on the
//! property of the second triple pattern. Consequently, this requires to
//! iterate over several property tables" (§4.4). δ-rules (PRP-EQP1/2,
//! PRP-INV1/2) are the special case where the data table is copied — possibly
//! reversed — into the head's table.
//!
//! Semi-naive evaluation pairs the *new* schema triples with the *main* data
//! tables and the *main* schema triples with the *new* data tables — the
//! first pairing alone when the frontier is the whole store. Every handler
//! copies one data table per schema pair: it resolves its output vector
//! once, reserves the copy's exact size and pushes.

use crate::context::RuleContext;
use inferray_dictionary::wellknown;
use inferray_model::ids::is_property_id;
use inferray_store::{InferredBuffer, PropertyTable, TripleStore};

/// Drives one γ/δ rule: for every `(s, o)` pair of the schema table
/// `schema_prop` (semi-naive over both stores), calls
/// `handle(s, o, data_store, out)` with the complementary data store.
fn for_schema_and_data(
    ctx: &RuleContext<'_>,
    schema_prop: u64,
    out: &mut InferredBuffer,
    mut handle: impl FnMut(u64, u64, &TripleStore, &mut InferredBuffer),
) {
    if let Some(table) = ctx.new.table(schema_prop) {
        for (s, o) in table.iter_pairs() {
            handle(s, o, ctx.main, out);
        }
    }
    if ctx.is_whole() {
        return;
    }
    if let Some(table) = ctx.main.table(schema_prop) {
        for (s, o) in table.iter_pairs() {
            handle(s, o, ctx.new, out);
        }
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
    out.reserve(2 * table.len());
    for (x, y) in table.iter_pairs() {
        out.extend_from_slice(&[y, x]);
    }
}

/// PRP-DOM: `p domain c, x p y ⇒ x a c` — each `x` once per schema pair:
/// the table is sorted on ⟨s,o⟩, so a subject's repeats follow it.
pub fn prp_dom(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    for_schema_and_data(ctx, wellknown::RDFS_DOMAIN, out, |p, c, data, out| {
        if let Some(table) = data_table(data, p) {
            let out = out.table_mut(wellknown::RDF_TYPE);
            let mut previous = None;
            for (x, _) in table.iter_pairs() {
                if previous != Some(x) {
                    previous = Some(x);
                    out.extend_from_slice(&[x, c]);
                }
            }
        }
    });
}

/// PRP-RNG: `p range c, x p y ⇒ y a c` — each `y` once per schema pair:
/// the objects are not sorted, so the ones already emitted are stamped.
pub fn prp_rng(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    let mut emitted = ObjectStamps::default();
    for_schema_and_data(ctx, wellknown::RDFS_RANGE, out, |p, c, data, out| {
        if let Some(table) = data_table(data, p) {
            let out = out.table_mut(wellknown::RDF_TYPE);
            emitted.for_each_distinct(table, |y| out.extend_from_slice(&[y, c]));
        }
    });
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

/// PRP-SPO1: `p1 ⊑ₚ p2, x p1 y ⇒ x p2 y`.
pub fn prp_spo1(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    for_schema_and_data(
        ctx,
        wellknown::RDFS_SUB_PROPERTY_OF,
        out,
        |p1, p2, data, out| {
            if p1 == p2 || !is_property_id(p1) || !is_property_id(p2) {
                return;
            }
            if let Some(table) = data.table(p1) {
                out.add_pairs(p2, table.pairs());
            }
        },
    );
}

/// PRP-SYMP: `p a owl:SymmetricProperty, x p y ⇒ y p x`.
pub fn prp_symp(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    // Pass 1: newly declared symmetric properties against all data.
    let newly_symmetric = RuleContext::subjects_with_object(
        ctx.new,
        wellknown::RDF_TYPE,
        wellknown::OWL_SYMMETRIC_PROPERTY,
    );
    copy_reversed(&newly_symmetric, ctx.main, out);
    if ctx.is_whole() {
        return;
    }
    // Pass 2: all symmetric properties against the new data.
    let all_symmetric = RuleContext::subjects_with_object(
        ctx.main,
        wellknown::RDF_TYPE,
        wellknown::OWL_SYMMETRIC_PROPERTY,
    );
    copy_reversed(&all_symmetric, ctx.new, out);
}

fn copy_reversed(properties: &[u64], data: &TripleStore, out: &mut InferredBuffer) {
    for &p in properties {
        if let Some(table) = data_table(data, p) {
            push_reversed(out, p, table);
        }
    }
}

/// PRP-EQP1: `p1 ≡ₚ p2, x p1 y ⇒ x p2 y`.
pub fn prp_eqp1(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    for_schema_and_data(
        ctx,
        wellknown::OWL_EQUIVALENT_PROPERTY,
        out,
        |p1, p2, data, out| {
            if p1 == p2 || !is_property_id(p1) || !is_property_id(p2) {
                return;
            }
            if let Some(table) = data.table(p1) {
                out.add_pairs(p2, table.pairs());
            }
        },
    );
}

/// PRP-EQP2: `p1 ≡ₚ p2, x p2 y ⇒ x p1 y`.
pub fn prp_eqp2(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    for_schema_and_data(
        ctx,
        wellknown::OWL_EQUIVALENT_PROPERTY,
        out,
        |p1, p2, data, out| {
            if p1 == p2 || !is_property_id(p1) || !is_property_id(p2) {
                return;
            }
            if let Some(table) = data.table(p2) {
                out.add_pairs(p1, table.pairs());
            }
        },
    );
}

/// PRP-INV1: `p1 inverseOf p2, x p1 y ⇒ y p2 x`.
pub fn prp_inv1(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    for_schema_and_data(ctx, wellknown::OWL_INVERSE_OF, out, |p1, p2, data, out| {
        if !is_property_id(p2) {
            return;
        }
        if let Some(table) = data_table(data, p1) {
            push_reversed(out, p2, table);
        }
    });
}

/// PRP-INV2: `p1 inverseOf p2, x p2 y ⇒ y p1 x`.
pub fn prp_inv2(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    for_schema_and_data(ctx, wellknown::OWL_INVERSE_OF, out, |p1, p2, data, out| {
        if !is_property_id(p1) {
            return;
        }
        if let Some(table) = data_table(data, p2) {
            push_reversed(out, p1, table);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executors::test_support::{derive, store};
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
        let derived = derive(&main, prp_dom);
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
        let raw = |rule: fn(&RuleContext<'_>, &mut InferredBuffer)| {
            let mut out = InferredBuffer::new();
            rule(&RuleContext::new(&main, &main), &mut out);
            let mut pairs: Vec<u64> = out.iter().flat_map(|(_, pairs)| pairs.to_vec()).collect();
            pairs.sort_unstable();
            pairs
        };
        let mut dom = vec![ALICE, PERSON, BOB, PERSON];
        dom.sort_unstable();
        assert_eq!(raw(prp_dom), dom, "ALICE has two values: typed once");
        let mut rng = vec![LYON, CITY, BOB, CITY];
        rng.sort_unstable();
        assert_eq!(raw(prp_rng), rng, "LYON has two subjects: typed once");
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
        let derived = derive(&main, prp_rng);
        assert_eq!(
            derived.into_iter().collect::<Vec<_>>(),
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
        let derived = derive(&main, prp_spo1);
        assert_eq!(
            derived.into_iter().collect::<Vec<_>>(),
            vec![(ALICE, has_child, BOB)]
        );
    }

    #[test]
    fn prp_spo1_skips_reflexive_subproperty_pairs() {
        let p = prop(3);
        let main = store(&[(p, wk::RDFS_SUB_PROPERTY_OF, p), (ALICE, p, BOB)]);
        assert!(derive(&main, prp_spo1).is_empty());
    }

    #[test]
    fn prp_symp_reverses_pairs_of_symmetric_properties() {
        let married_to = prop(4);
        let main = store(&[
            (married_to, wk::RDF_TYPE, wk::OWL_SYMMETRIC_PROPERTY),
            (ALICE, married_to, BOB),
        ]);
        let derived = derive(&main, prp_symp);
        assert!(derived.contains(&(BOB, married_to, ALICE)));
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
        let d1 = derive(&main, prp_eqp1);
        assert!(d1.contains(&(ALICE, q, LYON)));
        assert!(!d1.contains(&(BOB, p, LYON)));
        let d2 = derive(&main, prp_eqp2);
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
        let d1 = derive(&main, prp_inv1);
        assert!(d1.contains(&(BOB, child_of, ALICE)));
        let d2 = derive(&main, prp_inv2);
        assert!(d2.contains(&(CITY, parent_of, LYON)));
    }

    #[test]
    fn schema_pairs_with_non_property_values_are_ignored() {
        // A domain triple whose subject is a resource (data error) must not
        // crash or derive anything.
        let main = store(&[(PERSON, wk::RDFS_DOMAIN, CITY), (ALICE, prop(0), LYON)]);
        assert!(derive(&main, prp_dom).is_empty());
    }

    #[test]
    fn semi_naive_covers_new_data_against_old_schema() {
        let lives_in = prop(0);
        let main = store(&[(lives_in, wk::RDFS_DOMAIN, PERSON), (ALICE, lives_in, LYON)]);
        let new = store(&[(ALICE, lives_in, LYON)]);
        let ctx = RuleContext::new(&main, &new);
        let mut out = InferredBuffer::new();
        prp_dom(&ctx, &mut out);
        let derived = crate::executors::test_support::buffer_to_set(&out);
        assert!(derived.contains(&(ALICE, wk::RDF_TYPE, PERSON)));
    }
}
