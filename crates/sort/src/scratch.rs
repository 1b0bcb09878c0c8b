//! [`SortScratch`] — the reusable working memory of the sorting kernels.
//!
//! The seed kernels allocated their working buffers on every call: the
//! counting sort built a fresh histogram, offset table and object area, the
//! radix sort a fresh scatter buffer, and the radix small-bucket fallback a
//! `Vec<(u64, u64)>` *per bucket*. In the fixed-point loop those calls
//! happen for every property table on every iteration, so the allocator sat
//! squarely on the hot path of Figure 5.
//!
//! A [`SortScratch`] owns all of those buffers and is threaded through the
//! `*_with` kernel entry points. Buffers grow to the high-water mark of the
//! workload and are then reused; steady-state iterations perform **zero**
//! sort allocations. The parameterless kernel entry points still exist and
//! simply run with a throwaway scratch.

/// Reusable working memory shared by the counting and radix kernels.
///
/// Create one per worker (never share across threads mid-sort) and pass it
/// to the `*_with` entry points. Dropping it releases the high-water-mark
/// buffers.
#[derive(Debug, Default, Clone)]
pub struct SortScratch {
    /// Radix scatter area (one slot per array element).
    pub(crate) pair_scratch: Vec<u64>,
    /// Counting-sort subject histogram (one `u32` per subject in range).
    pub(crate) histogram: Vec<u32>,
    /// Counting-sort per-subject start offsets (`width + 1` entries).
    pub(crate) start: Vec<usize>,
    /// Counting-sort object scatter area (one slot per pair).
    pub(crate) objects: Vec<u64>,
    /// Counting-sort stamp array (one `u32` per object in range): slot `o`
    /// holds the epoch of the last subject run that contained object `o`.
    /// Never cleared between calls — a run's epoch is new, so whatever an
    /// earlier run or an earlier sort left behind cannot match it.
    pub(crate) stamps: Vec<u32>,
    /// The last epoch handed out; `0` is what a fresh stamp slot holds.
    pub(crate) epoch: u32,
}

/// The counting kernel's working memory for one call (see
/// [`SortScratch::counting_arenas`]).
pub(crate) struct CountingArenas<'a> {
    /// Subject histogram, zeroed, one slot per subject in range.
    pub(crate) histogram: &'a mut [u32],
    /// Per-subject start offsets, `width + 1` entries.
    pub(crate) start: &'a mut [usize],
    /// Object scatter area, one slot per pair.
    pub(crate) objects: &'a mut [u64],
    /// The stamp pass over one subject run.
    pub(crate) stamps: Stamps<'a>,
}

/// Order-preserving duplicate removal inside one subject run, before the
/// run is sorted (the stamp array and its epoch counter).
pub(crate) struct Stamps<'a> {
    slots: &'a mut [u32],
    epoch: &'a mut u32,
}

impl Stamps<'_> {
    /// Compacts the first occurrence of every distinct object of `run` to
    /// its front and returns how many there are. Every object must lie in
    /// `base..base + span`, the range the arenas were sized for.
    pub(crate) fn dedup_run(&mut self, run: &mut [u64], base: u64) -> usize {
        *self.epoch = self.epoch.wrapping_add(1);
        if *self.epoch == 0 {
            // The counter wrapped: old stamps could collide with new epochs.
            self.slots.fill(0);
            *self.epoch = 1;
        }
        let epoch = *self.epoch;
        let mut write = 0usize;
        for read in 0..run.len() {
            let object = run[read];
            let slot = &mut self.slots[(object - base) as usize];
            if *slot != epoch {
                *slot = epoch;
                run[write] = object;
                write += 1;
            }
        }
        write
    }
}

impl SortScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SortScratch::default()
    }

    /// A scratch pre-sized for arrays of `n_pairs` pairs whose subjects span
    /// `subject_range` values (avoids even the first-use growth).
    pub fn with_capacity(n_pairs: usize, subject_range: usize) -> Self {
        SortScratch {
            pair_scratch: Vec::with_capacity(2 * n_pairs),
            histogram: Vec::with_capacity(subject_range),
            start: Vec::with_capacity(subject_range + 1),
            objects: Vec::with_capacity(n_pairs),
            stamps: Vec::new(),
            epoch: 0,
        }
    }

    /// Total bytes currently reserved across all buffers. Exposed so tests
    /// and benchmarks can assert the steady state allocates nothing (the
    /// value stabilizes after the first iteration at a given scale).
    pub fn reserved_bytes(&self) -> usize {
        self.pair_scratch.capacity() * std::mem::size_of::<u64>()
            + self.histogram.capacity() * std::mem::size_of::<u32>()
            + self.start.capacity() * std::mem::size_of::<usize>()
            + self.objects.capacity() * std::mem::size_of::<u64>()
            + self.stamps.capacity() * std::mem::size_of::<u32>()
    }

    /// The radix scatter buffer, zero-filled to `len` elements.
    pub(crate) fn pair_scratch(&mut self, len: usize) -> &mut [u64] {
        self.pair_scratch.clear();
        self.pair_scratch.resize(len, 0);
        &mut self.pair_scratch
    }

    /// The counting-sort arenas sized for `width` subjects, `n_pairs` pairs
    /// and a stamp pass over `object_span` objects (`0`: no stamp pass).
    /// The histogram is zeroed; the object area holds whatever it held; the
    /// stamp array only grows, keeping what earlier calls wrote: every run
    /// stamps with an epoch of its own.
    pub(crate) fn counting_arenas(
        &mut self,
        width: usize,
        n_pairs: usize,
        object_span: usize,
    ) -> CountingArenas<'_> {
        self.histogram.clear();
        self.histogram.resize(width, 0);
        self.start.clear();
        self.start.resize(width + 1, 0);
        // The scatter writes every slot of the object area before the sort
        // reads it, so stale values may stay and a reused area is not
        // cleared. An area too small is freed before a zeroed one is
        // allocated: growing it would copy its stale values first.
        if self.objects.capacity() < n_pairs {
            drop(std::mem::take(&mut self.objects));
            self.objects = vec![0; n_pairs];
        } else {
            self.objects.resize(n_pairs, 0);
        }
        if self.stamps.len() < object_span {
            self.stamps.resize(object_span, 0);
        }
        CountingArenas {
            histogram: &mut self.histogram,
            start: &mut self.start,
            objects: &mut self.objects,
            stamps: Stamps {
                slots: &mut self.stamps,
                epoch: &mut self.epoch,
            },
        }
    }

    /// The counting histogram alone, zeroed, `width` slots — for a lane
    /// that counts its share of the pairs of a ranged update.
    pub(crate) fn histogram(&mut self, width: usize) -> &mut [u32] {
        self.histogram.clear();
        self.histogram.resize(width, 0);
        &mut self.histogram
    }

    /// The stamp pass alone, over `object_span` objects — for a lane that
    /// sorts runs in arenas another scratch holds (the ranged update).
    pub(crate) fn stamps(&mut self, object_span: usize) -> Stamps<'_> {
        if self.stamps.len() < object_span {
            self.stamps.resize(object_span, 0);
        }
        Stamps {
            slots: &mut self.stamps,
            epoch: &mut self.epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operating_range::sort_pairs_auto_dedup_with;

    #[test]
    fn buffers_stop_growing_after_the_first_use() {
        let mut scratch = SortScratch::new();
        let make_input = |seed: u64| -> Vec<u64> {
            (0..2_000u64)
                .map(|i| (i.wrapping_mul(seed.wrapping_add(0x9E3779B9)) >> 3) % 500)
                .collect()
        };
        // Warm-up pass: buffers grow to the workloads' high-water mark.
        for seed in 1..12 {
            let mut input = make_input(seed);
            sort_pairs_auto_dedup_with(&mut input, &mut scratch);
        }
        let watermark = scratch.reserved_bytes();
        assert!(watermark > 0);
        // Steady state: replaying the same workloads allocates nothing.
        for seed in 1..12 {
            let mut input = make_input(seed);
            sort_pairs_auto_dedup_with(&mut input, &mut scratch);
            assert_eq!(
                scratch.reserved_bytes(),
                watermark,
                "steady-state sort allocated (seed {seed})"
            );
        }
    }

    #[test]
    fn stamps_survive_the_epoch_counter_wrapping() {
        let mut scratch = SortScratch::new();
        // A run stamped with the last epoch before the wrap …
        scratch.epoch = u32::MAX - 1;
        let mut run = [7u64, 9, 7, 8, 9];
        let mut arenas = scratch.counting_arenas(1, 5, 4);
        assert_eq!(arenas.stamps.dedup_run(&mut run, 6), 3);
        assert_eq!(run[..3], [7, 9, 8]);
        // … must not make the runs after it see their objects as repeats:
        // the counter restarts at 1 over a cleared array.
        for _ in 0..3 {
            let mut run = [9u64, 7, 9];
            assert_eq!(arenas.stamps.dedup_run(&mut run, 6), 2);
            assert_eq!(run[..2], [9, 7]);
        }
        assert_eq!(scratch.epoch, 3);
    }

    #[test]
    fn with_capacity_pre_reserves() {
        let scratch = SortScratch::with_capacity(100, 50);
        assert!(scratch.reserved_bytes() >= 100 * 8 + 50 * 4);
    }
}
