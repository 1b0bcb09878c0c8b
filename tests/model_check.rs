//! Exhaustive model checking of the repo's three hand-rolled concurrency
//! protocols, using the `interleave` shim (a minimal loom-style
//! deterministic-interleaving explorer).
//!
//! Each protocol is restated over tracked primitives in the exact shape the
//! production code uses — the checker then enumerates **every**
//! sequentially-consistent interleaving of the tracked operations (and, via
//! `interleave::nondet`, every fault-injection choice) and asserts the
//! protocol invariant in each. Every positive test has a seeded-bug twin
//! that inverts one ordering edge and proves the checker catches it.
//!
//! The models are deliberately small — one writer, one reader — because the
//! schedule space grows factorially with threads × yield points and the
//! invariants under test are *ordering* properties of a single write path
//! (writer-writer exclusion is the mutex's own guarantee, separately checked
//! by the shim's unit tests).
//!
//! The four interleaving spaces:
//!
//! 1. **Id agreement** (`ServingDataset`): a write that promotes a resource
//!    to a property gives the term a new identifier; the store and the
//!    dictionary of an epoch are published and sampled as one value, so a
//!    reader's dictionary encodes every term of its store to the
//!    identifier that store holds.
//! 2. **WAL ordering** (`ServingDataset::write` with `DurableDataset`'s log
//!    stage): gate → fsync → publish. No publish before fsync success; a
//!    write the shape gate refuses never reaches the log; an append/sync
//!    failure lands in read-only with the published epoch untouched — never
//!    a torn publish.
//! 3. **Retraction cache window** (`TripleStore::remove_pairs`): a published
//!    table's ⟨o,s⟩ cache is always coherent with its pairs — removal
//!    invalidates and the publish path rebuilds before the swap.
//! 4. **Lock-free handoff** (`Handoff::read_published`): the
//!    generation-stamped two-slot protocol — a reader completes in a
//!    bounded number of lock-free steps no matter where a publishing
//!    writer is frozen (never blocks behind a publish).

use interleave::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use interleave::sync::{Arc, Mutex, RwLock};
use interleave::{model, model_expect_violation, nondet, thread};

// ---------------------------------------------------------------------------
// 1. Id agreement: a reader's dictionary encodes its store's terms to the
//    identifiers the store holds.
// ---------------------------------------------------------------------------

/// The identifier a term has as a plain resource, and the one a write that
/// uses it as a predicate promotes it to.
const RESOURCE_ID: u64 = 1;
const PROPERTY_ID: u64 = 2;

/// How a write publishes the store and the dictionary of its epoch.
#[derive(Clone, Copy)]
enum Publication {
    /// The production shape: one handoff value holds both; the slot cell
    /// makes installing it and a reader's clone of it atomic.
    OneValue,
    /// Seeded bug (the order before the single handoff): the dictionary
    /// into its own cell, then the store; a reader samples the store, then
    /// the dictionary.
    DictionaryThenStore,
}

/// One promoting write beside one reader. Each cell word is the
/// identifier under which a store holds the term `t`, or to which a
/// dictionary encodes it: `RESOURCE_ID` at epoch 0, `PROPERTY_ID` once the
/// write has promoted `t`. The reader looks `t` up in its dictionary and
/// must find the identifier its store holds.
fn id_agreement_model(publication: Publication) {
    let writer_mutex = Arc::new(Mutex::new(()));
    // (store, dictionary) as one value, or as two cells.
    let published = Arc::new(Mutex::new((RESOURCE_ID, RESOURCE_ID)));
    let store = Arc::new(RwLock::new(RESOURCE_ID));
    let dictionary = Arc::new(RwLock::new(RESOURCE_ID));

    let writer = {
        let (published, store, dictionary) = (
            Arc::clone(&published),
            Arc::clone(&store),
            Arc::clone(&dictionary),
        );
        thread::spawn(move || {
            let guard = writer_mutex.lock();
            match publication {
                Publication::OneValue => {
                    // Build the next value from the current one, privately,
                    // then install it whole.
                    let (held, encodes) = *published.lock();
                    assert_eq!(held, encodes);
                    *published.lock() = (PROPERTY_ID, PROPERTY_ID);
                }
                Publication::DictionaryThenStore => {
                    *dictionary.write() = PROPERTY_ID;
                    *store.write() = PROPERTY_ID;
                }
            }
            drop(guard);
        })
    };

    let reader = {
        let (published, store, dictionary) = (
            Arc::clone(&published),
            Arc::clone(&store),
            Arc::clone(&dictionary),
        );
        thread::spawn(move || {
            let (held, encodes) = match publication {
                Publication::OneValue => *published.lock(),
                Publication::DictionaryThenStore => {
                    let held = *store.read();
                    (held, *dictionary.read())
                }
            };
            assert_eq!(
                held, encodes,
                "reader's dictionary encodes a term of its store to id {encodes}, \
                 the store holds it as {held}"
            );
        })
    };

    writer.join();
    reader.join();
    // Quiescence: the promotion landed in both.
    let landed = match publication {
        Publication::OneValue => *published.lock(),
        Publication::DictionaryThenStore => (*store.read(), *dictionary.read()),
    };
    assert_eq!(landed, (PROPERTY_ID, PROPERTY_ID));
}

#[test]
fn id_agreement_store_and_dictionary_are_one_value() {
    let report = model(|| id_agreement_model(Publication::OneValue));
    assert!(
        report.schedules >= 6,
        "expected a non-trivial interleaving space, got {}",
        report.schedules
    );
}

#[test]
fn id_agreement_seeded_two_cell_order_is_caught() {
    let violation = model_expect_violation(|| id_agreement_model(Publication::DictionaryThenStore));
    assert!(
        violation.contains("encodes a term of its store"),
        "got: {violation}"
    );
}

// ---------------------------------------------------------------------------
// 2. WAL ordering: gate, then fsync, then publish; failure → read-only.
// ---------------------------------------------------------------------------

/// The order of the three stages at the end of the write pipeline.
#[derive(Clone, Copy)]
enum WalOrder {
    /// The production order.
    GateLogPublish,
    /// Seeded bug (the pre-pipeline order): the record is durable before
    /// the gate has judged the candidate.
    LogGatePublish,
    /// Seeded bug: readers see the epoch before it is durable.
    GatePublishLog,
}

/// The durable write path under the persist state mutex: the candidate is
/// judged by the shape gate, then its record is appended + fsync'd, and only
/// then is the next epoch published. A refusal touches nothing; a sync
/// failure flips read-only and leaves the published epoch untouched.
fn wal_ordering_model(order: WalOrder) {
    let synced = Arc::new(AtomicU64::new(0)); // highest seq durably on disk
    let published = Arc::new(AtomicU64::new(0)); // highest epoch readers see
    let read_only = Arc::new(AtomicBool::new(false));
    let refused = Arc::new(AtomicBool::new(false));
    let state_mutex = Arc::new(Mutex::new(()));

    let writer = {
        let synced = Arc::clone(&synced);
        let published = Arc::clone(&published);
        let read_only = Arc::clone(&read_only);
        let refused = Arc::clone(&refused);
        thread::spawn(move || {
            let guard = state_mutex.lock();
            let seq = published.load(Ordering::SeqCst) + 1;
            // Explored both ways in every schedule context: the gate accepts
            // or refuses the candidate, and the backend accepts the record
            // or fails the append/fsync.
            let gate_refuses = nondet(2) == 1;
            let sync_fails = nondet(2) == 1;
            refused.store(gate_refuses, Ordering::SeqCst);
            let log = || {
                if sync_fails {
                    read_only.store(true, Ordering::SeqCst);
                } else {
                    synced.store(seq, Ordering::SeqCst);
                }
                !sync_fails
            };
            match order {
                WalOrder::GateLogPublish => {
                    if !gate_refuses && log() {
                        published.store(seq, Ordering::SeqCst);
                    }
                }
                WalOrder::LogGatePublish => {
                    if log() && !gate_refuses {
                        published.store(seq, Ordering::SeqCst);
                    }
                }
                WalOrder::GatePublishLog => {
                    if !gate_refuses {
                        published.store(seq, Ordering::SeqCst);
                        log();
                    }
                }
            }
            drop(guard);
        })
    };

    let observer = {
        let synced = Arc::clone(&synced);
        let published = Arc::clone(&published);
        thread::spawn(move || {
            // Read `published` first: `synced` only grows, so any published
            // epoch must already be durable when observed in this order.
            let p = published.load(Ordering::SeqCst);
            let s = synced.load(Ordering::SeqCst);
            assert!(
                s >= p,
                "torn publish: epoch {p} visible to readers but only seq {s} is synced"
            );
        })
    };

    writer.join();
    observer.join();
    // Crash-consistency at quiescence, under every gate/fault branch: what
    // readers were promised never exceeds what recovery would replay, a
    // refused write is not there to be replayed, and a failed append
    // degrades to read-only with the epoch untouched.
    let p = published.load(Ordering::SeqCst);
    let s = synced.load(Ordering::SeqCst);
    assert!(s >= p, "acknowledged epoch would be lost by recovery");
    if refused.load(Ordering::SeqCst) {
        assert_eq!(
            s, 0,
            "a refused write reached the log: replay would apply it"
        );
        assert_eq!(p, 0, "a refused write was published");
    }
    if read_only.load(Ordering::SeqCst) {
        assert_eq!(p, 0, "failed append must not advance the published epoch");
    }
}

#[test]
fn wal_gate_then_fsync_then_publish() {
    let report = model(|| wal_ordering_model(WalOrder::GateLogPublish));
    assert!(
        report.schedules >= 40,
        "expected schedules × gate verdicts × fault choices, got {}",
        report.schedules
    );
}

#[test]
fn wal_seeded_log_before_gate_bug_is_caught() {
    let violation = model_expect_violation(|| wal_ordering_model(WalOrder::LogGatePublish));
    assert!(violation.contains("reached the log"), "got: {violation}");
}

#[test]
fn wal_seeded_publish_before_fsync_bug_is_caught() {
    let violation = model_expect_violation(|| wal_ordering_model(WalOrder::GatePublishLog));
    assert!(
        violation.contains("torn publish")
            || violation.contains("lost by recovery")
            || violation.contains("must not advance"),
        "got: {violation}"
    );
}

// ---------------------------------------------------------------------------
// 3. Retraction: the published ⟨o,s⟩ cache is never stale.
// ---------------------------------------------------------------------------

/// A published property table: `version` stands for the ⟨s,o⟩ pair content,
/// `os_cache` for the object-sorted mirror tagged with the version it was
/// derived from. `TripleStore::remove_pairs` drops the cache whenever pairs
/// changed; the publish path (`ensure_all_os`) rebuilds it before the swap.
#[derive(Clone, Copy)]
struct PublishedTable {
    version: u64,
    os_cache: Option<u64>,
}

fn retract_cache_model(invalidate_on_remove: bool) {
    let cell = Arc::new(RwLock::new(PublishedTable {
        version: 0,
        os_cache: Some(0),
    }));
    let writer_mutex = Arc::new(Mutex::new(()));

    let retractor = {
        let cell = Arc::clone(&cell);
        thread::spawn(move || {
            let guard = writer_mutex.lock();
            // Clone-mutate-publish on a private copy, as SnapshotStore does.
            let mut next = *cell.read();
            next.version += 1; // remove_pairs: the ⟨s,o⟩ pairs changed
            if invalidate_on_remove {
                next.os_cache = None; // invalidate_os_cache()
                next.os_cache = Some(next.version); // ensure_all_os() pre-publish
            }
            // Seeded bug: cache kept across the mutation when false.
            *cell.write() = next;
            drop(guard);
        })
    };

    let reader = {
        let cell = Arc::clone(&cell);
        thread::spawn(move || {
            let seen = *cell.read();
            if let Some(derived_from) = seen.os_cache {
                assert_eq!(
                    derived_from, seen.version,
                    "reader served a stale ⟨o,s⟩ cache (pairs v{}, cache v{derived_from})",
                    seen.version
                );
            }
        })
    };

    retractor.join();
    reader.join();
    let last = *cell.read();
    assert_eq!(last.version, 1);
    if let Some(derived_from) = last.os_cache {
        assert_eq!(derived_from, last.version);
    }
}

#[test]
fn retract_never_publishes_a_stale_os_cache() {
    let report = model(|| retract_cache_model(true));
    assert!(
        report.schedules >= 10,
        "expected a non-trivial interleaving space, got {}",
        report.schedules
    );
}

#[test]
fn retract_seeded_missing_invalidation_bug_is_caught() {
    let violation = model_expect_violation(|| retract_cache_model(false));
    assert!(violation.contains("stale ⟨o,s⟩ cache"), "got: {violation}");
}

// ---------------------------------------------------------------------------
// 4. Lock-free handoff: readers never block behind a publish.
// ---------------------------------------------------------------------------

/// The generation-stamped two-slot handoff of `Handoff`, restated over
/// tracked primitives. A slot's content is one word (the epoch of the
/// published value — in production the slot mutex makes the clone atomic,
/// so the cell can never tear; what the model pins down is the
/// *ordering*). The writer publishes epochs 1 and 2 so the second install
/// re-targets the slot a stale reader may still be examining — the
/// wrap-around case the stamp validation exists for. Install order per
/// publish: stamp odd → slot word → stamp even → active index.
///
/// The reader is the acquisition loop of `Handoff::read_published` with a
/// **hard attempt bound**: at most one of the two publishes can disturb
/// the slot a reader sampled, so two attempts must suffice in *every*
/// interleaving — exhausting them would mean a reader can be held up by a
/// publishing writer, exactly the blocking the slot protocol removes.
fn lock_free_handoff_model() {
    const SLOTS: usize = 2;
    // slot → (generation stamp, content word); epoch 0 stable in slot 0.
    let slots: Arc<Vec<(AtomicU64, AtomicU64)>> = Arc::new(
        (0..SLOTS)
            .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
            .collect(),
    );
    let active = Arc::new(AtomicUsize::new(0));

    let writer = {
        let slots = Arc::clone(&slots);
        let active = Arc::clone(&active);
        thread::spawn(move || {
            for epoch in 1u64..=2 {
                // Publish e lands in slot e % SLOTS (the writer mutex makes
                // the target deterministic; keeping the computation local
                // trims the schedule space without changing the protocol).
                let target = epoch as usize % SLOTS;
                let (stamp, word) = &slots[target];
                // This slot's stamp history: two bumps per prior install.
                let s = 2 * ((epoch - 1) / SLOTS as u64);
                stamp.store(s + 1, Ordering::SeqCst); // odd: mid-install
                word.store(epoch, Ordering::SeqCst);
                stamp.store(s + 2, Ordering::SeqCst); // even: stable
                active.store(target, Ordering::SeqCst);
            }
        })
    };

    // The reader runs on the model's root thread (keeping the interleaving
    // space two-way): the acquisition loop of `Handoff::read_published`.
    let mut acquired = None;
    for _attempt in 0..2 {
        let idx = active.load(Ordering::SeqCst);
        let (stamp, word) = &slots[idx % SLOTS];
        let s1 = stamp.load(Ordering::SeqCst);
        if s1 % 2 != 0 {
            continue; // writer mid-install of this slot: re-sample
        }
        let epoch = word.load(Ordering::SeqCst);
        if stamp.load(Ordering::SeqCst) != s1 {
            continue; // slot was re-targeted under us: re-sample
        }
        acquired = Some(epoch);
        break;
    }
    assert!(
        acquired.is_some(),
        "reader blocked behind a publishing writer (retries exhausted)"
    );

    writer.join();
    // Quiescence: both publishes landed and the active slot is stable.
    let idx = active.load(Ordering::SeqCst);
    let (stamp, word) = &slots[idx % SLOTS];
    assert_eq!(stamp.load(Ordering::SeqCst) % 2, 0);
    assert_eq!(word.load(Ordering::SeqCst), 2);
}

#[test]
fn lock_free_handoff_reader_never_blocks() {
    let report = model(lock_free_handoff_model);
    assert!(
        report.schedules >= 50,
        "expected a non-trivial interleaving space, got {}",
        report.schedules
    );
}
