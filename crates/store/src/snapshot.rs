//! Epoch-based snapshot publication for concurrent query serving.
//!
//! The paper's pitch for materialization is that "inferred data can be
//! consumed as explicit data without integrating the inference engine with
//! the runtime query engine" (§1). This module supplies the missing
//! concurrency half of that contract: queries must be able to run *while*
//! the reasoner materializes, without ever observing a half-merged property
//! table.
//!
//! The design is the classic epoch / pointer-swap scheme (the same shape as
//! Fluree's immutable database snapshots or an RCU read path):
//!
//! * a [`StoreSnapshot`] is an immutable, query-ready view of the store at
//!   one **epoch** — internally an `Arc<TripleStore>`, so cloning a snapshot
//!   is two atomic increments and holding one keeps that version alive no
//!   matter what writers do afterwards;
//! * a [`Handoff`] is the handoff cell of one published value: a writer
//!   builds the next value from the current one and publishes it
//!   ([`Handoff::publish_with`]); readers sample the current value
//!   **without ever blocking** ([`Handoff::read_published`]);
//! * a [`SnapshotStore`] is the handoff of a [`StoreSnapshot`]: a writer
//!   prepares the next version in a **private copy** of the store (clone →
//!   mutate → [`StoreSnapshot::next`]: finalize → build the ⟨o,s⟩ caches;
//!   the clone shares every table with the published version until it
//!   writes to one, see [`crate::triple_store`]) and publishes it
//!   ([`SnapshotStore::update`]). The serving layer hands out its store
//!   snapshot and the dictionary that encodes it as one value of its own
//!   handoff.
//!
//! ## The lock-free reader handoff
//!
//! Readers never take a read-lock. Publication uses a generation-stamped
//! two-slot array with a seqlock-style validation loop:
//!
//! * each `Slot` holds an optional value behind a `Mutex` plus an
//!   atomic **stamp** (even = stable, odd = a writer is mid-install);
//! * an atomic `active` counter names the slot readers sample
//!   (`active % SLOT_COUNT`);
//! * a **writer** installs the next value into the *inactive* slot —
//!   stamp to odd, store the value, stamp to even — and only then moves
//!   `active`. The slot readers are sampling is never touched mid-publish;
//! * a **reader** loads `active`, checks the stamp is even, `try_lock`s the
//!   slot (which never blocks), clones the value, and re-checks the stamp.
//!   A stamp change or a failed `try_lock` means the world moved — the
//!   reader re-samples `active` and retries. The only thread that can make
//!   a `try_lock` fail for more than the length of one clone is another
//!   *reader*; a publishing writer works on the inactive slot.
//!
//! A read therefore never blocks behind a publish — this is proven
//! exhaustively by the `lock_free_handoff` interleaving cases in
//! `tests/model_check.rs`, and the workspace-wide `#![forbid(unsafe_code)]`
//! (IL001) still holds: the protocol is plain std atomics + `Arc` clones.
//!
//! Readers never see intermediate state: a reader that acquired epoch *n*
//! continues to see exactly the epoch-*n* triple set until it re-acquires,
//! even while a writer is mid-materialization — this is snapshot isolation,
//! proven by the `snapshot_isolation` integration suite.
//!
//! Published snapshots are **finalized and ⟨o,s⟩-cached** before the
//! handoff: every read path of the query engine (binary search, run scan,
//! object lookup, planner cardinality estimates) works on the shared
//! `&TripleStore` without needing `&mut`, so a snapshot is safely
//! `Send + Sync`.

use crate::triple_store::{OsCacheTask, TripleStore};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};

/// Recovers the guard from a poisoned `std::sync` lock result.
///
/// Poisoning only records that *some* thread panicked while holding the
/// lock; it says nothing about the data. Every critical section in this
/// workspace leaves its protected state structurally valid at all times
/// (snapshots are replaced wholesale, never edited in place; counters are
/// written last), so the guard is always safe to use. This helper is the
/// single home of the recovery idiom — call it instead of sprinkling
/// `unwrap_or_else(|e| e.into_inner())` at every lock site.
pub fn unpoison<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// An immutable, query-ready view of a [`TripleStore`] at one epoch.
///
/// Cloning is cheap (an `Arc` bump); the underlying store is shared and
/// never mutated after publication.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    epoch: u64,
    store: Arc<TripleStore>,
}

impl StoreSnapshot {
    /// Prepares `store` for readers and wraps it as the snapshot of
    /// `epoch`: the store is finalized and its ⟨o,s⟩ caches are built, so
    /// readers get the fast `(?, p, o)` path without `&mut`. Under
    /// `strict-invariants` the prepared store is re-validated (sortedness,
    /// no duplicates, ⟨o,s⟩-cache coherence) — every store that becomes
    /// visible to readers passes through here.
    pub fn prepare(mut store: TripleStore, epoch: u64) -> Self {
        store.finalize();
        store.ensure_all_os();
        #[cfg(feature = "strict-invariants")]
        store.assert_valid();
        StoreSnapshot {
            epoch,
            store: Arc::new(store),
        }
    }

    /// [`StoreSnapshot::prepare`] with the ⟨o,s⟩ caches built by `run`,
    /// which is handed one task per table that needs one, largest first
    /// ([`TripleStore::os_cache_tasks`]), and runs every one of them — on a
    /// pool's lanes, say. A dataset's first epoch is prepared this way,
    /// where every table needs its cache; a write's publish
    /// ([`StoreSnapshot::next`]) builds its few inline.
    pub fn prepare_with(
        mut store: TripleStore,
        epoch: u64,
        run: impl FnOnce(Vec<OsCacheTask<'_>>),
    ) -> Self {
        store.finalize();
        run(store.os_cache_tasks());
        #[cfg(feature = "strict-invariants")]
        store.assert_valid();
        StoreSnapshot {
            epoch,
            store: Arc::new(store),
        }
    }

    /// `store` prepared ([`StoreSnapshot::prepare`]) as the epoch after
    /// this one: what every publish hands out next.
    pub fn next(&self, store: TripleStore) -> Self {
        StoreSnapshot::prepare(store, self.epoch + 1)
    }

    /// The epoch this snapshot was published at (0 is the initial version).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen store.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// The shared ownership handle of the frozen store.
    pub fn store_arc(&self) -> &Arc<TripleStore> {
        &self.store
    }
}

impl std::ops::Deref for StoreSnapshot {
    type Target = TripleStore;

    fn deref(&self) -> &TripleStore {
        &self.store
    }
}

/// Number of publication slots. Two is the minimum that lets a writer
/// install the next value without touching the slot readers are sampling;
/// it also bounds slot-retained history to a single previous epoch (readers
/// holding older values keep those alive independently).
const SLOT_COUNT: usize = 2;

/// One publication slot of the generation-stamped handoff array.
#[derive(Debug)]
struct Slot<T> {
    /// Seqlock-style generation stamp: even = stable, odd = a writer is
    /// mid-install. Readers validate the stamp around their clone.
    stamp: AtomicU64,
    /// The value occupying this slot (`None` only before first install).
    /// Readers only ever `try_lock` this mutex — which never blocks — and
    /// the sole blocking `lock` is taken by a writer on the *inactive* slot.
    cell: Mutex<Option<T>>,
}

impl<T: Clone> Slot<T> {
    fn new(content: Option<T>) -> Self {
        Slot {
            stamp: AtomicU64::new(0),
            cell: Mutex::new(content),
        }
    }

    /// Non-blocking sample of the slot's value. `None` means the slot is
    /// momentarily held (a concurrent reader mid-clone, or — only after the
    /// active index has already moved on — a writer re-installing) or still
    /// empty; callers re-check the active index and retry.
    fn try_read(&self) -> Option<T> {
        match self.cell.try_lock() {
            Ok(guard) => guard.as_ref().cloned(),
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner().as_ref().cloned(),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// The lock-free handoff of one published value: many readers sample it
/// without blocking, one writer at a time replaces it. The value should be
/// cheap to clone (a few `Arc`s): every read clones it once.
#[derive(Debug)]
pub struct Handoff<T> {
    /// The generation-stamped handoff slots; see the module docs.
    slots: [Slot<T>; SLOT_COUNT],
    /// Monotonic publication counter; `active % SLOT_COUNT` is the slot
    /// readers sample. Moved only *after* the slot's content is stable.
    active: AtomicUsize,
    /// Serializes writers: the read → build → install of one publish must
    /// not interleave with another's, or the second would build on a stale
    /// value and lose the first's on install.
    writer: Mutex<()>,
}

impl<T: Clone> Handoff<T> {
    /// A handoff that hands out `value` until the first publish.
    pub fn holding(value: T) -> Self {
        Handoff {
            slots: [Slot::new(Some(value)), Slot::new(None)],
            active: AtomicUsize::new(0),
            writer: Mutex::new(()),
        }
    }

    /// The currently published value.
    ///
    /// Lock-free for readers: samples the active slot, validates the
    /// generation stamp around a clone, and retries if the world moved. No
    /// acquisition here can block behind a writer building or installing a
    /// value — the writer installs into the inactive slot (see the module
    /// docs and the `lock_free_handoff` model check). The name is distinct
    /// on purpose: the lint's call-graph walk unions same-named functions
    /// across files.
    pub fn read_published(&self) -> T {
        loop {
            let active = self.active.load(Ordering::Acquire);
            let slot = &self.slots[active % SLOT_COUNT];
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp.is_multiple_of(2) {
                if let Some(value) = slot.try_read() {
                    if slot.stamp.load(Ordering::Acquire) == stamp {
                        return value;
                    }
                }
            }
            // The slot moved under us (a publish landed, or a concurrent
            // reader held the cell for the length of its clone): re-sample
            // the active index and go again.
            std::hint::spin_loop();
        }
    }

    /// Builds the next value from the current one under the writer lock and
    /// publishes it. Returns the published value and `build`'s result.
    ///
    /// Install order (the invariant the model check pins down): the
    /// *inactive* slot is stamped odd, filled, stamped even, and only then
    /// does the active index move. Readers sampling the previously active
    /// slot are never touched; readers that observe the new index find the
    /// slot already stable.
    pub fn publish_with<R>(&self, build: impl FnOnce(&T) -> (T, R)) -> (T, R) {
        let guard = unpoison(self.writer.lock());
        // Read *after* taking the writer lock, so this publish builds on
        // every previously published value.
        let (value, result) = build(&self.read_published());
        let next = self.active.load(Ordering::Acquire).wrapping_add(1);
        let slot = &self.slots[next % SLOT_COUNT];
        let stamp = slot.stamp.load(Ordering::Acquire);
        slot.stamp.store(stamp.wrapping_add(1), Ordering::Release); // odd: mid-install
        {
            let mut cell = unpoison(slot.cell.lock());
            *cell = Some(value.clone());
        }
        slot.stamp.store(stamp.wrapping_add(2), Ordering::Release); // even: stable
        self.active.store(next, Ordering::Release);
        drop(guard);
        (value, result)
    }
}

/// The epoch handoff of the store alone: one published "current snapshot"
/// that many readers sample lock-free and one writer at a time replaces.
///
/// ```
/// use inferray_model::IdTriple;
/// use inferray_store::{SnapshotStore, TripleStore};
///
/// let p = 1u64 << 32;
/// let cell = SnapshotStore::new(TripleStore::from_triples([IdTriple::new(1, p, 2)]));
/// let before = cell.snapshot();
///
/// // A writer materializes into a private copy and publishes it...
/// cell.update(|store| store.add_triple(IdTriple::new(3, p, 4)));
///
/// // ...the old snapshot still sees exactly the old data,
/// assert_eq!(before.len(), 1);
/// // while a re-acquired snapshot sees the new epoch.
/// let after = cell.snapshot();
/// assert_eq!(after.len(), 2);
/// assert_eq!(after.epoch(), before.epoch() + 1);
/// ```
pub type SnapshotStore = Handoff<StoreSnapshot>;

impl Handoff<StoreSnapshot> {
    /// Publishes `store` as epoch 0. The store is finalized and its ⟨o,s⟩
    /// caches are built so the snapshot is immediately query-ready.
    pub fn new(store: TripleStore) -> Self {
        SnapshotStore::with_epoch(store, 0)
    }

    /// Publishes `store` as the given starting epoch, for a store that
    /// resumes an epoch sequence where an earlier process left it, as a
    /// recovered dataset does.
    /// Like [`SnapshotStore::new`], the store is finalized and ⟨o,s⟩-cached.
    pub fn with_epoch(store: TripleStore, epoch: u64) -> Self {
        Handoff::holding(StoreSnapshot::prepare(store, epoch))
    }

    /// The currently published snapshot, sampled lock-free
    /// ([`Handoff::read_published`]).
    pub fn snapshot(&self) -> StoreSnapshot {
        self.read_published()
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.read_published().epoch()
    }

    /// Runs `mutate` on a **private copy** of the current store, prepares
    /// the copy as the next epoch ([`StoreSnapshot::next`]) and publishes
    /// it. Returns the new snapshot and the closure's result.
    ///
    /// Readers holding the previous snapshot are completely unaffected;
    /// concurrent writers are serialized.
    pub fn update<R>(&self, mutate: impl FnOnce(&mut TripleStore) -> R) -> (StoreSnapshot, R) {
        self.publish_with(|current| {
            let mut next = current.store().clone();
            let result = mutate(&mut next);
            (current.next(next), result)
        })
    }

    /// Replaces the current version wholesale with `store` (next epoch).
    /// Like [`SnapshotStore::update`], the store is prepared before the
    /// handoff.
    pub fn publish(&self, store: TripleStore) -> StoreSnapshot {
        self.publish_with(|current| (current.next(store), ())).0
    }
}

impl Default for SnapshotStore {
    fn default() -> Self {
        SnapshotStore::new(TripleStore::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::ids::nth_property_id;
    use inferray_model::IdTriple;

    fn p() -> u64 {
        nth_property_id(40)
    }

    #[test]
    fn epoch_zero_is_finalized_and_cached() {
        let cell = SnapshotStore::new(TripleStore::from_triples([IdTriple::new(7, p(), 8)]));
        let snap = cell.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(cell.epoch(), 0);
        assert!(snap.table(p()).unwrap().has_os_cache());
        assert!(snap.contains(&IdTriple::new(7, p(), 8)));
    }

    #[test]
    fn with_epoch_resumes_the_epoch_counter() {
        let cell =
            SnapshotStore::with_epoch(TripleStore::from_triples([IdTriple::new(7, p(), 8)]), 41);
        assert_eq!(cell.epoch(), 41);
        assert!(cell.snapshot().table(p()).unwrap().has_os_cache());
        let (snap, ()) = cell.update(|store| {
            store.add_triple(IdTriple::new(9, p(), 10));
        });
        assert_eq!(snap.epoch(), 42, "updates continue from the resumed epoch");
    }

    #[test]
    fn update_publishes_a_new_epoch_without_touching_old_snapshots() {
        let cell = SnapshotStore::new(TripleStore::from_triples([IdTriple::new(1, p(), 2)]));
        let old = cell.snapshot();
        let (new, ()) = cell.update(|store| {
            store.add_triple(IdTriple::new(3, p(), 4));
        });
        assert_eq!(old.epoch(), 0);
        assert_eq!(new.epoch(), 1);
        assert_eq!(old.len(), 1);
        assert_eq!(new.len(), 2);
        assert!(!old.contains(&IdTriple::new(3, p(), 4)));
        assert!(new.contains(&IdTriple::new(3, p(), 4)));
        // The cell now hands out the new version.
        assert_eq!(cell.snapshot().epoch(), 1);
        assert_eq!(cell.snapshot().len(), 2);
    }

    #[test]
    fn published_snapshots_are_query_ready() {
        let cell = SnapshotStore::default();
        let (snap, ()) = cell.update(|store| {
            store.add_triple(IdTriple::new(5, p(), 6));
            store.add_triple(IdTriple::new(5, p(), 6));
            store.add_triple(IdTriple::new(9, p(), 6));
        });
        // Finalized (deduplicated) and ⟨o,s⟩-cached.
        assert_eq!(snap.len(), 2);
        let table = snap.table(p()).unwrap();
        assert!(table.has_os_cache());
        assert_eq!(table.subjects_of(6).collect::<Vec<_>>(), vec![5, 9]);
    }

    #[test]
    fn updates_compose_across_epochs() {
        let cell = SnapshotStore::default();
        for i in 0..5u64 {
            cell.update(|store| store.add_triple(IdTriple::new(i, p(), i + 100)));
        }
        let snap = cell.snapshot();
        assert_eq!(snap.epoch(), 5);
        assert_eq!(snap.len(), 5, "every update builds on the previous epoch");
    }

    #[test]
    fn slot_history_is_bounded_to_one_previous_epoch() {
        // The handoff array must not leak old stores: after publishing
        // epoch k, only epochs k and k-1 can still be pinned by the slots.
        let cell = SnapshotStore::default();
        let mut weak = Vec::new();
        for i in 0..6u64 {
            let (snap, ()) = cell.update(|store| store.add_triple(IdTriple::new(i, p(), i + 100)));
            weak.push(std::sync::Arc::downgrade(snap.store_arc()));
        }
        // Epochs 1..=4 were displaced from both slots; with no outside
        // holders their stores must have been dropped.
        for (i, w) in weak.iter().enumerate().take(weak.len() - 2) {
            assert!(
                w.upgrade().is_none(),
                "epoch {} is still pinned by the handoff slots",
                i + 1
            );
        }
        assert!(weak[weak.len() - 1].upgrade().is_some());
    }

    #[test]
    fn concurrent_writers_never_lose_updates() {
        let cell = std::sync::Arc::new(SnapshotStore::default());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cell = std::sync::Arc::clone(&cell);
                scope.spawn(move || {
                    for i in 0..25u64 {
                        cell.update(|store| {
                            store.add_triple(IdTriple::new(t * 1000 + i, p(), 1));
                        });
                    }
                });
            }
        });
        let snap = cell.snapshot();
        assert_eq!(snap.epoch(), 100);
        assert_eq!(snap.len(), 100);
    }

    #[test]
    fn readers_see_a_consistent_version_during_writes() {
        let cell = std::sync::Arc::new(SnapshotStore::new(TripleStore::from_triples([
            IdTriple::new(0, p(), 0),
        ])));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader_cell = std::sync::Arc::clone(&cell);
            let stop_flag = &stop;
            let reader = scope.spawn(move || {
                let mut observed = Vec::new();
                while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = reader_cell.snapshot();
                    // Epoch k contains exactly the initial triple plus k
                    // appended ones — any torn read would break this.
                    observed.push((snap.epoch(), snap.len() as u64));
                }
                observed
            });
            for i in 1..=50u64 {
                cell.update(|store| {
                    store.add_triple(IdTriple::new(i, p(), i));
                });
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            for (epoch, len) in reader.join().expect("reader thread") {
                assert_eq!(len, epoch + 1, "snapshot of epoch {epoch} is torn");
            }
        });
    }

    #[test]
    fn snapshots_are_monotonic_per_reader() {
        // A reader that re-acquires must never travel back in time, even
        // across many publishes racing the acquisition loop.
        let cell = std::sync::Arc::new(SnapshotStore::default());
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let cell = std::sync::Arc::clone(&cell);
                let stop_flag = &stop;
                scope.spawn(move || {
                    let mut last = 0u64;
                    while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                        let epoch = cell.snapshot().epoch();
                        assert!(epoch >= last, "epoch went backwards: {last} -> {epoch}");
                        last = epoch;
                    }
                });
            }
            for i in 0..200u64 {
                cell.update(|store| store.add_triple(IdTriple::new(i, p(), i)));
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }
}
