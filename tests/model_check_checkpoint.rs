//! Exhaustive model checking of the two-halves checkpoint
//! (`crates/persist/src/durable.rs`, docs/persistence.md), in the manner of
//! `tests/model_check.rs`: the protocol restated over the `interleave` shim's
//! tracked primitives, every interleaving and every fault choice explored,
//! and a seeded-bug twin per ordering edge.
//!
//! The data directory is one tracked mutex around three files — the newest
//! durable image (the sequence number it covers), the sealed log segment
//! and the live one (each the range of records it holds) — so every lock
//! acquisition is one atomic file operation and every point between two of
//! them is a possible power cut. A writer whose record crossed the threshold
//! seals the log, starts the image, and appends another record beside it;
//! the checkpoint thread writes the image — or fails to — and removes the
//! sealed segment. An observer cuts the power at an
//! arbitrary point and replays `image + sealed + live`, skipping by sequence
//! number, as `DurableDataset::open` does: it must land on exactly the
//! records appended so far, without a gap.

use interleave::sync::{Arc, Mutex};
use interleave::{model, model_expect_violation, nondet, thread};

/// Records `lo + 1 ..= hi`; empty (or absent) when `lo == hi`.
type Segment = (u64, u64);

#[derive(Clone, Copy, Default)]
struct Disk {
    image: u64,
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

    /// `DurableDataset::open`: the image, then the sealed segment, then the
    /// live one, each record at or below what is already applied skipped.
    fn recover(&self) -> u64 {
        let mut at = self.image;
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
}

fn checkpoint_model(order: Order) {
    // One record is in the live segment; the write that appended it crossed
    // the threshold.
    let disk = Arc::new(Mutex::new(Disk {
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
                    disk.image = covers;
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
                Order::Production | Order::EmptyLiveFirst => {
                    write_image(&mut disk.lock());
                    if !image_fails {
                        remove_sealed(&mut disk.lock());
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
    let report = model(|| checkpoint_model(Order::Production));
    assert!(
        report.schedules >= 1000,
        "expected schedules × image outcomes, got {}",
        report.schedules
    );
}

#[test]
fn seeded_emptying_the_log_before_sealing_it_is_caught() {
    let violation = model_expect_violation(|| checkpoint_model(Order::EmptyLiveFirst));
    assert!(
        violation.contains("loses acknowledged") || violation.contains("gap"),
        "got: {violation}"
    );
}

#[test]
fn seeded_removing_the_sealed_segment_before_the_image_is_caught() {
    let violation = model_expect_violation(|| checkpoint_model(Order::RemoveSealedFirst));
    assert!(violation.contains("gap"), "got: {violation}");
}

#[test]
fn seeded_removing_the_sealed_segment_after_a_failed_image_is_caught() {
    let violation = model_expect_violation(|| checkpoint_model(Order::RemoveAfterFailedImage));
    assert!(violation.contains("gap"), "got: {violation}");
}
