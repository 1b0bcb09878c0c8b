//! Exhaustive model checking of the two-halves checkpoint
//! (`crates/persist/src/durable.rs`, docs/persistence.md), in the manner of
//! `tests/model_check.rs`: the protocol restated over the `interleave` shim's
//! tracked primitives, every interleaving and every fault choice explored,
//! and a seeded-bug twin per ordering edge.
//!
//! The data directory is one tracked mutex around its files — two image
//! slots (each the sequence number it covers and, for a delta, the slot of
//! the full image it names), the sealed log segment and the live one (each
//! the range of records it holds) — so every lock acquisition is one atomic
//! file operation and every point between two of them is a possible power
//! cut. A writer whose record crossed the threshold seals the log, starts
//! the image, and appends another record beside it; the checkpoint thread
//! writes the image — full, or a delta on the full image already there — or
//! fails to, then removes the sealed segment and prunes the older image
//! unless the new one is a delta on it. An observer cuts the power at an
//! arbitrary point and replays `image + sealed + live` from the newest image
//! that recovers (a delta only beside its base), skipping by sequence
//! number, as `DurableDataset::open` does: it must land on exactly the
//! records appended so far, without a gap.

use interleave::sync::{Arc, Mutex};
use interleave::{model, model_expect_violation, nondet, thread};

/// Records `lo + 1 ..= hi`; empty (or absent) when `lo == hi`.
type Segment = (u64, u64);

/// An image file: the records it covers and, for a delta, the slot of the
/// full image it names.
#[derive(Clone, Copy, Default)]
struct Image {
    present: bool,
    covers: u64,
    base: Option<usize>,
}

/// How many recoverable images pruning keeps.
const KEEP: usize = 1;

#[derive(Clone, Copy, Default)]
struct Disk {
    /// Slot 0 holds the image of the checkpoint before; slot 1 the new one.
    images: [Image; 2],
    sealed: Segment,
    live: Segment,
    /// Records appended and fsync'd so far — what recovery owes.
    appended: u64,
}

impl Disk {
    fn append(&mut self) {
        self.live.1 += 1;
        self.appended = self.live.1;
    }

    /// Whether the image in `slot` recovers: it is there, and so is the
    /// base a delta names.
    fn recoverable(&self, slot: usize) -> bool {
        let image = self.images[slot];
        image.present && image.base.is_none_or(|base| self.images[base].present)
    }

    /// `DurableDataset::open`: the newest image that recovers, then the
    /// sealed segment, then the live one, each record at or below what is
    /// already applied skipped.
    fn recover(&self) -> u64 {
        let newest = (0..self.images.len())
            .filter(|&slot| self.recoverable(slot))
            .map(|slot| self.images[slot].covers)
            .max();
        let Some(mut at) = newest else {
            panic!("no image recovers");
        };
        for (lo, hi) in [self.sealed, self.live] {
            if hi > at {
                assert!(
                    lo <= at,
                    "gap: replay is at record {at}, the next segment starts after {lo}"
                );
                at = hi;
            }
        }
        at
    }

    fn check(&self, when: &str) {
        assert_eq!(
            self.recover(),
            self.appended,
            "{when}: recovery loses acknowledged records"
        );
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Order {
    /// Seal = write the sealed segment, then empty the live one; the thread
    /// writes the image, then — only if that succeeded — removes the
    /// sealed segment.
    Production,
    /// Seeded bug: the live segment is emptied before its records are in
    /// the sealed one.
    EmptyLiveFirst,
    /// Seeded bug: the sealed segment is removed before the image that
    /// covers it is durable.
    RemoveSealedFirst,
    /// Seeded bug: the sealed segment is removed although the image failed.
    RemoveAfterFailedImage,
    /// Seeded bug: pruning keeps the newest images alone, not the base of
    /// a delta it keeps.
    PruneBaseOfKeptDelta,
}

/// `ImageJob::prune_snapshots`: newest first, keep [`KEEP`] recoverable
/// images and the base of each delta kept; remove the rest, one file at a
/// time.
fn prune(disk: &Mutex<Disk>, order: Order) {
    let mut kept = [false; 2];
    let mut recoverable = 0;
    let mut slots = [0, 1];
    let now = *disk.lock();
    slots.sort_by_key(|&slot| std::cmp::Reverse(now.images[slot].covers));
    for slot in slots {
        if recoverable < KEEP && now.images[slot].present {
            kept[slot] = true;
            if now.recoverable(slot) {
                recoverable += 1;
                if let Some(base) = now.images[slot].base {
                    kept[base] |= order != Order::PruneBaseOfKeptDelta;
                }
            }
        }
    }
    for slot in slots {
        if !kept[slot] && now.images[slot].present {
            disk.lock().images[slot].present = false;
        }
    }
}

/// A checkpoint after one record, under `order`; with `delta` its image
/// is a delta on the full image covering nothing yet.
fn checkpoint_model(order: Order, delta: bool) {
    // A full image; one record is in the live segment; the write that
    // appended it crossed the threshold.
    let mut images = [Image::default(); 2];
    images[0].present = true;
    let disk = Arc::new(Mutex::new(Disk {
        images,
        live: (0, 1),
        appended: 1,
        ..Disk::default()
    }));

    let checkpointer = {
        let disk = Arc::clone(&disk);
        move || {
            let image_fails = nondet(2) == 1;
            let covers = 1; // `last_seq` when the log was sealed
            let write_image = |disk: &mut Disk| {
                if !image_fails {
                    disk.images[1] = Image {
                        present: true,
                        covers,
                        base: delta.then_some(0),
                    };
                }
            };
            let remove_sealed = |disk: &mut Disk| disk.sealed = (0, 0);
            match order {
                Order::RemoveSealedFirst => {
                    remove_sealed(&mut disk.lock());
                    write_image(&mut disk.lock());
                }
                Order::RemoveAfterFailedImage => {
                    write_image(&mut disk.lock());
                    remove_sealed(&mut disk.lock());
                }
                Order::Production | Order::EmptyLiveFirst | Order::PruneBaseOfKeptDelta => {
                    write_image(&mut disk.lock());
                    if !image_fails {
                        remove_sealed(&mut disk.lock());
                        prune(&disk, order);
                    }
                }
            }
        }
    };

    let writer = {
        let disk = Arc::clone(&disk);
        thread::spawn(move || {
            // The write that crossed the threshold seals the log…
            let copy_behind_sealed = |disk: &mut Disk| disk.sealed = (disk.sealed.0, disk.live.1);
            let empty_live = |disk: &mut Disk| disk.live = (disk.live.1, disk.live.1);
            if order == Order::EmptyLiveFirst {
                empty_live(&mut disk.lock());
                copy_behind_sealed(&mut disk.lock());
            } else {
                copy_behind_sealed(&mut disk.lock());
                empty_live(&mut disk.lock());
            }
            // …starts the image, and is acknowledged; the next write runs
            // beside the image.
            let image = thread::spawn(checkpointer);
            disk.lock().append();
            image.join();
        })
    };

    let power_cut = {
        let disk = Arc::clone(&disk);
        thread::spawn(move || disk.lock().check("power cut"))
    };

    writer.join();
    power_cut.join();
    disk.lock().check("at rest");
}

#[test]
fn every_power_cut_around_a_checkpoint_recovers_every_acknowledged_record() {
    let report = model(|| checkpoint_model(Order::Production, false));
    assert!(
        report.schedules >= 1000,
        "expected schedules × image outcomes, got {}",
        report.schedules
    );
}

#[test]
fn every_power_cut_around_a_delta_checkpoint_recovers_every_acknowledged_record() {
    let report = model(|| checkpoint_model(Order::Production, true));
    assert!(
        report.schedules >= 1000,
        "expected schedules × image outcomes, got {}",
        report.schedules
    );
}

#[test]
fn seeded_pruning_the_base_of_a_kept_delta_is_caught() {
    let violation = model_expect_violation(|| checkpoint_model(Order::PruneBaseOfKeptDelta, true));
    assert!(violation.contains("no image recovers"), "got: {violation}");
}

#[test]
fn seeded_emptying_the_log_before_sealing_it_is_caught() {
    let violation = model_expect_violation(|| checkpoint_model(Order::EmptyLiveFirst, false));
    assert!(
        violation.contains("loses acknowledged") || violation.contains("gap"),
        "got: {violation}"
    );
}

#[test]
fn seeded_removing_the_sealed_segment_before_the_image_is_caught() {
    let violation = model_expect_violation(|| checkpoint_model(Order::RemoveSealedFirst, false));
    assert!(violation.contains("gap"), "got: {violation}");
}

#[test]
fn seeded_removing_the_sealed_segment_after_a_failed_image_is_caught() {
    let violation =
        model_expect_violation(|| checkpoint_model(Order::RemoveAfterFailedImage, false));
    assert!(violation.contains("gap"), "got: {violation}");
}
