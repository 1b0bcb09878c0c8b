//! The buffers of tables a live write superseded, reused by the next
//! write's copies.
//!
//! A write copies each shared table it changes, in one pass
//! ([`crate::MergeTarget`]), and publishes the copy. The table it replaced
//! stays alive for a while — in the epoch the handoff keeps beside the
//! current one until the next publish, and in any snapshot a reader still
//! holds — and is then freed. The next write copies the same tables again,
//! into fresh memory the allocator has to fault in. A [`Recycler`] takes
//! the superseded tables instead: a write *retires* the tables the store it
//! published (and its explicit base) no longer shares with the one before,
//! and a later write *reclaims* every retired table no one else holds any
//! more, with [`Arc::try_unwrap`]. Its pair and ⟨o,s⟩ buffers become the
//! buffers the copy kernels (`merged_copy`, `copy_without` in
//! `property_table.rs`) fill. A table still held — by a reader, or by the
//! handoff's other slot — is tried again at the next write and then let
//! go: the recycler never keeps a table alive longer than one write.
//!
//! Only a write feeds the pool: a batch run or a read-only server retires
//! nothing and never holds pooled memory. Each reclaim replaces what the
//! pool held, so it holds at most what one write superseded.

use crate::property_table::PropertyTable;
use crate::snapshot::unpoison;
use crate::triple_store::TripleStore;
use std::sync::{Arc, Mutex};

/// The buffers of the last reclaim not yet reused.
static POOL: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());

/// An empty buffer for `words` words: the smallest pooled one that holds
/// them, or a fresh one of exactly that size.
pub(crate) fn buffer(words: usize) -> Vec<u64> {
    let mut pool = unpoison(POOL.lock());
    let fit = pool
        .iter()
        .enumerate()
        .filter(|(_, buffer)| buffer.capacity() >= words)
        .min_by_key(|(_, buffer)| buffer.capacity())
        .map(|(at, _)| at);
    match fit {
        Some(at) => {
            let mut buffer = pool.swap_remove(at);
            buffer.clear();
            buffer
        }
        None => Vec::with_capacity(words),
    }
}

/// A table a write superseded, waiting until no one else holds it.
#[derive(Debug)]
struct Retired {
    table: Arc<PropertyTable>,
    /// Whether a reclaim already found it held.
    tried: bool,
}

/// The tables the writes of one dataset superseded (see the module docs).
#[derive(Debug, Default)]
pub struct Recycler {
    retired: Vec<Retired>,
}

impl Recycler {
    /// A recycler with nothing retired.
    pub fn new() -> Self {
        Recycler::default()
    }

    /// Retires the tables of `old` that `new` no longer shares, slot by
    /// slot (`Arc::ptr_eq`).
    pub fn retire(&mut self, old: &TripleStore, new: &TripleStore) {
        let kept = new.slot_tables();
        for (index, table) in old.slot_tables().iter().enumerate() {
            let Some(table) = table else { continue };
            let shared = kept
                .get(index)
                .and_then(Option::as_ref)
                .is_some_and(|next| Arc::ptr_eq(table, next));
            if !shared {
                self.retired.push(Retired {
                    table: Arc::clone(table),
                    tried: false,
                });
            }
        }
    }

    /// Takes the buffers of every retired table no one else holds into the
    /// pool, in place of what the pool held. A table still held is kept
    /// for one more try, then let go.
    pub fn reclaim(&mut self) {
        let mut buffers = Vec::new();
        for Retired { table, tried } in std::mem::take(&mut self.retired) {
            match Arc::try_unwrap(table) {
                Ok(table) => buffers.extend(table.into_buffers()),
                Err(table) if !tried => self.retired.push(Retired { table, tried: true }),
                Err(_) => {}
            }
        }
        buffers.retain(|buffer| buffer.capacity() > 0);
        // What the last reclaim left unused is freed outside the lock.
        let unused = std::mem::replace(&mut *unpoison(POOL.lock()), buffers);
        drop(unused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_table_no_one_holds_is_reclaimed_and_a_held_one_is_let_go_after_two_tries() {
        let p = 1u64 << 32;
        let old = TripleStore::from_triples([inferray_model::IdTriple::new(1, p, 2)]);
        let mut new = old.clone();
        new.insert([inferray_model::IdTriple::new(3, p, 4)]);
        let mut recycler = Recycler::new();
        recycler.retire(&old, &new);
        assert_eq!(recycler.retired.len(), 1);
        // `old` still holds the table: the first reclaim keeps it, the
        // second lets it go.
        recycler.reclaim();
        assert_eq!(recycler.retired.len(), 1);
        recycler.reclaim();
        assert_eq!(recycler.retired.len(), 0);

        let mut newer = new.clone();
        newer.insert([inferray_model::IdTriple::new(5, p, 6)]);
        recycler.retire(&new, &newer);
        drop(new);
        recycler.reclaim();
        assert_eq!(recycler.retired.len(), 0);
        // A store shares every table with its clone: nothing to retire.
        recycler.retire(&newer, &newer.clone());
        assert_eq!(recycler.retired.len(), 0);
    }
}
