//! Exhaustive model checking of the two-halves checkpoint over a log kept
//! in segments (`crates/persist/src/durable.rs`, `crates/persist/src/wal.rs`,
//! docs/persistence.md), in the manner of `tests/model_check.rs`: the
//! protocol restated over the `interleave` shim's tracked primitives, every
//! interleaving and every fault choice explored, and a seeded-bug twin per
//! ordering edge.
//!
//! The data directory is one tracked mutex around its files — two image
//! slots (each the last record it covers and, for a delta, the slot of the
//! full image it names) and two log segments (each the first record it may
//! hold and the last it holds) — so every lock acquisition is one atomic
//! file operation and every point between two of them is a possible power
//! cut. A writer whose record crossed the threshold seals the log — creates
//! the next, empty segment — starts the image, and appends another record
//! beside it; the checkpoint thread writes the image — full, or a delta on
//! the full image already there — or fails to, then prunes the images and
//! the segments every kept image covers. An observer cuts the power at an
//! arbitrary point and replays every segment from the newest image that
//! recovers (a delta only beside its base), refusing a record missing, as
//! `DurableDataset::open` does: it must land on exactly the records
//! appended so far. It also rots that image: with two images kept, the one
//! before it must still reach every record; with one, recovery may refuse.

use interleave::sync::{Arc, Mutex};
use interleave::{model, model_expect_violation, nondet, thread};

/// An image file: the records it covers and, for a delta, the slot of the
/// full image it names.
#[derive(Clone, Copy, Default)]
struct Image {
    present: bool,
    covers: u64,
    base: Option<usize>,
}

/// A log segment file: the first record it may hold and the last it holds
/// (`first - 1` while it is empty).
#[derive(Clone, Copy, Default)]
struct Segment {
    present: bool,
    first: u64,
    last: u64,
}

#[derive(Clone, Copy, Default)]
struct Disk {
    /// Slot 0 holds the image of the checkpoint before; slot 1 the new one.
    images: [Image; 2],
    /// Slot 0 holds the records before the seal; slot 1 the ones after it.
    segments: [Segment; 2],
    /// Records appended and fsync'd so far — what recovery owes.
    appended: u64,
}

impl Disk {
    /// Appends a record to the newest segment.
    fn append(&mut self) {
        let newest = usize::from(self.segments[1].present);
        self.segments[newest].last += 1;
        self.appended = self.segments[newest].last;
    }

    /// Whether the image in `slot` recovers, with the image in `rotten`
    /// (if any) failing its checksum: it is there, and so is the base a
    /// delta names.
    fn recoverable(&self, slot: usize, rotten: Option<usize>) -> bool {
        let there = |slot: usize| self.images[slot].present && Some(slot) != rotten;
        there(slot) && self.images[slot].base.is_none_or(there)
    }

    /// The newest image that recovers.
    fn newest(&self, rotten: Option<usize>) -> Option<usize> {
        (0..self.images.len())
            .filter(|&slot| self.recoverable(slot, rotten))
            .max_by_key(|&slot| self.images[slot].covers)
    }

    /// `DurableDataset::open`: the newest image that recovers, then every
    /// segment, each record at or below what is already applied skipped,
    /// and a record missing refused.
    fn recover(&self, rotten: Option<usize>) -> Result<u64, String> {
        let Some(slot) = self.newest(rotten) else {
            return Err("no image recovers".to_owned());
        };
        let mut at = self.images[slot].covers;
        for segment in self.segments.iter().filter(|segment| segment.present) {
            if segment.first > at + 1 {
                return Err(format!(
                    "gap: replay is at record {at}, the next segment starts at {}",
                    segment.first
                ));
            }
            at = at.max(segment.last);
        }
        if at < self.appended {
            return Err(format!(
                "gap: replay ends at record {at}, {} were acknowledged",
                self.appended
            ));
        }
        Ok(at)
    }

    fn check(&self, when: &str, keep: usize) {
        if let Err(error) = self.recover(None) {
            panic!("{when}: recovery loses acknowledged records: {error}");
        }
        // Rot the image recovery read: an older kept image must take over
        // (with one kept, recovery may refuse instead).
        let rotten = self.newest(None);
        match self.recover(rotten) {
            Err(error) if keep > 1 && self.newest(rotten).is_some() => {
                panic!("{when}, newest image rotten: {error}");
            }
            _ => {}
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Order {
    /// Seal = create the next segment; the thread writes the image, then —
    /// only if that succeeded — prunes the images, then the segments every
    /// kept image covers.
    Production,
    /// Seeded bug: the segment sealed behind is removed before the image
    /// that covers it is durable.
    RemoveSealedFirst,
    /// Seeded bug: the segment sealed behind is removed although the image
    /// failed.
    RemoveAfterFailedImage,
    /// Seeded bug: pruning keeps the newest images alone, not the base of
    /// a delta it keeps.
    PruneBaseOfKeptDelta,
    /// Seeded bug: a segment goes once the newest image covers it, although
    /// the older kept image still needs it.
    PruneForTheNewestImageOnly,
}

/// `ImageJob::prune_snapshots`: newest first, keep `keep` recoverable
/// images and the base of each delta kept; remove the rest, one file at a
/// time. Returns the last record every counted image covers.
fn prune_images(disk: &Mutex<Disk>, order: Order, keep: usize) -> u64 {
    let mut kept = [false; 2];
    let mut covered = Vec::new();
    let mut slots = [0, 1];
    let now = *disk.lock();
    slots.sort_by_key(|&slot| std::cmp::Reverse(now.images[slot].covers));
    for slot in slots {
        if covered.len() < keep && now.images[slot].present {
            kept[slot] = true;
            if now.recoverable(slot, None) {
                covered.push(now.images[slot].covers);
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
    match order {
        Order::PruneForTheNewestImageOnly => covered.first().copied(),
        _ => covered.iter().min().copied(),
    }
    .unwrap_or(0)
}

/// `wal::prune`: removes the older segment when all its records — those
/// below the newer one's first — are at or below `covered`.
fn prune_segments(disk: &Mutex<Disk>, covered: u64) {
    let now = *disk.lock();
    let [older, newer] = now.segments;
    if older.present && newer.present && newer.first <= covered + 1 {
        disk.lock().segments[0].present = false;
    }
}

/// A checkpoint after one record, under `order`, keeping `keep` images;
/// with `delta` its image is a delta on the full image covering nothing yet.
fn checkpoint_model(order: Order, delta: bool, keep: usize) {
    // A full image; one record is in the only segment; the write that
    // appended it crossed the threshold.
    let mut disk = Disk {
        appended: 1,
        ..Disk::default()
    };
    disk.images[0].present = true;
    disk.segments[0] = Segment {
        present: true,
        first: 1,
        last: 1,
    };
    let disk = Arc::new(Mutex::new(disk));

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
            match order {
                Order::RemoveSealedFirst => {
                    prune_segments(&disk, covers);
                    write_image(&mut disk.lock());
                }
                Order::RemoveAfterFailedImage => {
                    write_image(&mut disk.lock());
                    prune_segments(&disk, covers);
                }
                Order::Production
                | Order::PruneBaseOfKeptDelta
                | Order::PruneForTheNewestImageOnly => {
                    write_image(&mut disk.lock());
                    if !image_fails {
                        let covered = prune_images(&disk, order, keep);
                        prune_segments(&disk, covered);
                    }
                }
            }
        }
    };

    let writer = {
        let disk = Arc::clone(&disk);
        thread::spawn(move || {
            // The write that crossed the threshold seals the log: one atomic
            // write of an empty segment…
            disk.lock().segments[1] = Segment {
                present: true,
                first: 2,
                last: 1,
            };
            // …starts the image, and is acknowledged; the next write runs
            // beside the image.
            let image = thread::spawn(checkpointer);
            disk.lock().append();
            image.join();
        })
    };

    let power_cut = {
        let disk = Arc::clone(&disk);
        thread::spawn(move || disk.lock().check("power cut", keep))
    };

    writer.join();
    power_cut.join();
    disk.lock().check("at rest", keep);
}

#[test]
fn every_power_cut_around_a_checkpoint_recovers_every_acknowledged_record() {
    for keep in [1, 2] {
        let report = model(|| checkpoint_model(Order::Production, false, keep));
        assert!(
            report.schedules >= 1000,
            "expected schedules × image outcomes, got {} keeping {keep}",
            report.schedules
        );
    }
}

#[test]
fn every_power_cut_around_a_delta_checkpoint_recovers_every_acknowledged_record() {
    for keep in [1, 2] {
        let report = model(|| checkpoint_model(Order::Production, true, keep));
        assert!(
            report.schedules >= 1000,
            "expected schedules × image outcomes, got {} keeping {keep}",
            report.schedules
        );
    }
}

#[test]
fn seeded_pruning_the_base_of_a_kept_delta_is_caught() {
    let violation =
        model_expect_violation(|| checkpoint_model(Order::PruneBaseOfKeptDelta, true, 1));
    assert!(violation.contains("no image recovers"), "got: {violation}");
}

#[test]
fn seeded_removing_the_sealed_segment_before_the_image_is_caught() {
    let violation = model_expect_violation(|| checkpoint_model(Order::RemoveSealedFirst, false, 1));
    assert!(violation.contains("gap"), "got: {violation}");
}

#[test]
fn seeded_removing_the_sealed_segment_after_a_failed_image_is_caught() {
    let violation =
        model_expect_violation(|| checkpoint_model(Order::RemoveAfterFailedImage, false, 1));
    assert!(violation.contains("gap"), "got: {violation}");
}

#[test]
fn seeded_removing_a_segment_the_older_kept_image_still_needs_is_caught() {
    for delta in [false, true] {
        let violation = model_expect_violation(|| {
            checkpoint_model(Order::PruneForTheNewestImageOnly, delta, 2)
        });
        assert!(
            violation.contains("newest image rotten: gap"),
            "got: {violation}"
        );
    }
}
