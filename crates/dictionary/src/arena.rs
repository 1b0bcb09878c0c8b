//! [`TextArena`]: an append-only string interner in three flat vectors.
//!
//! Every distinct string is stored once, back to back, in one `String`; an
//! entry is the dense number of a string in insertion order, and its text is
//! the byte range between the previous entry's end offset and its own. The
//! lookup side is an open-addressing table of entry numbers: a probe hashes
//! the key's bytes and compares them *in the arena*, so the table owns no
//! keys. Cloning is three `memcpy`s and dropping is three frees, whatever
//! the number of entries.
//!
//! The [`Dictionary`](crate::Dictionary) keeps the canonical N-Triples form
//! of every term in one of these, and each chunk of the streaming ingest
//! keeps its thread-local delta dictionary in another.

use inferray_model::FxHasher;
use std::hash::Hasher;

/// Slots allocated up front; always a power of two.
const MIN_SLOTS: usize = 16;

/// An append-only interner of strings, numbered densely from 0 in insertion
/// order.
///
/// ```
/// use inferray_dictionary::TextArena;
///
/// let mut arena = TextArena::new();
/// assert_eq!(arena.intern("<http://ex/a>"), Some((0, true)));
/// assert_eq!(arena.intern("<http://ex/b>"), Some((1, true)));
/// assert_eq!(arena.intern("<http://ex/a>"), Some((0, false)));
/// assert_eq!(arena.get("<http://ex/b>"), Some(1));
/// assert_eq!(arena.text(1), "<http://ex/b>");
/// ```
#[derive(Debug, Clone)]
pub struct TextArena {
    /// Every entry's text, back to back.
    text: String,
    /// `ends[e]` is where entry `e`'s text ends; it starts where entry
    /// `e − 1`'s ends. Offsets are `usize`, so the arena is bounded by
    /// memory, not by an offset width.
    ends: Vec<usize>,
    /// Open addressing with linear probing: `entry + 1`, or 0 for an empty
    /// slot. The length is a power of two and at least twice the number of
    /// entries.
    index: Vec<u32>,
}

impl Default for TextArena {
    fn default() -> Self {
        Self::new()
    }
}

/// The folded-multiply hash ([`FxHasher`]) of the key's bytes; the table
/// takes its slot from the *top* of the hash (see [`TextArena::home_slot`]).
#[inline]
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

impl TextArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty arena whose index holds `entries` strings without growing.
    pub fn with_capacity(entries: usize) -> Self {
        TextArena {
            text: String::new(),
            ends: Vec::with_capacity(entries),
            index: vec![0; slots_for(entries)],
        }
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The text of `entry`.
    ///
    /// # Panics
    /// Panics when `entry` was not returned by this arena.
    #[inline]
    pub fn text(&self, entry: u32) -> &str {
        let (start, end) = self.span(entry);
        &self.text[start..end]
    }

    /// The entry of `key`, if interned.
    #[inline]
    pub fn get(&self, key: &str) -> Option<u32> {
        self.find(key.as_bytes(), hash_bytes(key.as_bytes())).ok()
    }

    /// Interns `key`: its entry, and whether this call created it. `None`
    /// when the arena already holds the `u32::MAX − 1` entries its index
    /// can number.
    pub fn intern(&mut self, key: &str) -> Option<(u32, bool)> {
        let hash = hash_bytes(key.as_bytes());
        match self.find(key.as_bytes(), hash) {
            Ok(entry) => Some((entry, false)),
            Err(slot) => {
                let entry = self.next_entry()?;
                self.text.push_str(key);
                self.commit(entry, slot);
                Some((entry, true))
            }
        }
    }

    /// [`intern`](Self::intern) for a key the caller renders instead of
    /// holds: `write` appends the key to the arena's own tail, which becomes
    /// the new entry's text on a miss and is cut off again on a hit — no
    /// scratch buffer, no second copy. `write` must only append.
    pub fn intern_with(&mut self, write: impl FnOnce(&mut String)) -> Option<(u32, bool)> {
        let start = self.text.len();
        write(&mut self.text);
        let key = &self.text.as_bytes()[start..];
        let hash = hash_bytes(key);
        match self.find(key, hash) {
            Ok(entry) => {
                self.text.truncate(start);
                Some((entry, false))
            }
            Err(slot) => match self.next_entry() {
                Some(entry) => {
                    self.commit(entry, slot);
                    Some((entry, true))
                }
                None => {
                    self.text.truncate(start);
                    None
                }
            },
        }
    }

    /// The arena's text and its entries' end offsets, as they sit in
    /// memory: what a snapshot image stores of it. The index is not part of
    /// them — it depends on the hash and the probe order, and
    /// [`append_raw`](Self::append_raw) rebuilds it.
    pub fn raw_parts(&self) -> (&str, &[usize]) {
        (&self.text, &self.ends)
    }

    /// Appends the entries `ends` marks out of `text`, as
    /// [`raw_parts`](Self::raw_parts) listed them past this arena's end:
    /// `ends` are offsets in the whole arena, so the first one counts from
    /// this arena's text length. Each new entry is re-seated in the index as
    /// `grow` does, and compared on the way. Refused — and the
    /// arena left as it was — when the offsets fall, leave `text`, cut a
    /// character or leave bytes of it to no entry, when an entry's text is
    /// already interned, or when the entries outnumber the index.
    pub fn append_raw(&mut self, text: String, ends: Vec<usize>) -> Result<(), RawArenaError> {
        let (base_text, base_entries) = (self.text.len(), self.ends.len());
        let mut start = base_text;
        for &end in &ends {
            let within = end.checked_sub(base_text).filter(|&at| at <= text.len());
            if end < start || !within.is_some_and(|at| text.is_char_boundary(at)) {
                return Err(RawArenaError::BadOffsets);
            }
            start = end;
        }
        if start - base_text != text.len() {
            return Err(RawArenaError::BadOffsets);
        }
        if base_entries
            .checked_add(ends.len())
            .is_none_or(|entries| entries >= u32::MAX as usize)
        {
            return Err(RawArenaError::TooManyEntries);
        }
        if self.ends.is_empty() && self.text.is_empty() {
            (self.text, self.ends) = (text, ends);
        } else {
            self.text.push_str(&text);
            self.ends.extend_from_slice(&ends);
        }
        let slots = slots_for(self.ends.len());
        if slots > self.index.len() {
            self.index = vec![0; slots];
            self.seat(0..base_entries);
        }
        // Every new entry's hash first, in one pass over the text: a probe
        // that meets another new entry compares hashes before it fetches
        // that entry's bytes (a third faster on LUBM-500k's 202 k terms).
        let hashes: Vec<u64> = (base_entries..self.ends.len())
            .map(|entry| hash_bytes(self.bytes(entry)))
            .collect();
        let mask = self.index.len() - 1;
        for (new, &hash) in hashes.iter().enumerate() {
            let entry = base_entries + new;
            let mut slot = self.home_slot(hash);
            while let Some(other) = self.index[slot].checked_sub(1) {
                let other = other as usize;
                let same_hash = other
                    .checked_sub(base_entries)
                    .is_none_or(|other| hashes[other] == hash);
                if same_hash && self.bytes(other) == self.bytes(entry) {
                    self.text.truncate(base_text);
                    self.ends.truncate(base_entries);
                    self.index.fill(0);
                    self.seat(0..base_entries);
                    return Err(RawArenaError::DuplicateEntry);
                }
                slot = (slot + 1) & mask;
            }
            self.index[slot] = entry as u32 + 1;
        }
        Ok(())
    }

    /// The bytes of `entry`.
    #[inline]
    fn bytes(&self, entry: usize) -> &[u8] {
        let (start, end) = self.span(entry as u32);
        &self.text.as_bytes()[start..end]
    }

    /// Removes the newest entry — the last to be seated, so the end of its
    /// probe run, and zeroing its slot leaves every other probe as it was.
    pub(crate) fn pop_newest(&mut self) {
        let Some(entry) = self.ends.len().checked_sub(1) else {
            return;
        };
        let (start, end) = self.span(entry as u32);
        let mask = self.index.len() - 1;
        let mut slot = self.home_slot(hash_bytes(&self.text.as_bytes()[start..end]));
        while self.index[slot] != entry as u32 + 1 {
            slot = (slot + 1) & mask;
        }
        self.index[slot] = 0;
        self.text.truncate(start);
        self.ends.pop();
    }

    /// Byte range of `entry` in the arena.
    #[inline]
    fn span(&self, entry: u32) -> (usize, usize) {
        let entry = entry as usize;
        let start = match entry.checked_sub(1) {
            Some(previous) => self.ends[previous],
            None => 0,
        };
        (start, self.ends[entry])
    }

    /// Where a key hashing to `hash` starts probing: the hash's **high**
    /// bits, into which the multiply carries every byte of the key, so
    /// keys that differ only in their last bytes (`…/GraduateStudent123`)
    /// start apart.
    #[inline]
    fn home_slot(&self, hash: u64) -> usize {
        (hash >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// Probes for `key`: `Ok(entry)` when interned, `Err(slot)` with the
    /// empty slot that ends its probe run otherwise. Compares in the arena.
    #[inline]
    fn find(&self, key: &[u8], hash: u64) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        let mut slot = self.home_slot(hash);
        loop {
            let Some(entry) = self.index[slot].checked_sub(1) else {
                return Err(slot);
            };
            let (start, end) = self.span(entry);
            if &self.text.as_bytes()[start..end] == key {
                return Ok(entry);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The number the next entry gets; `None` when `entry + 1` no longer
    /// fits the index's `u32` slots.
    fn next_entry(&self) -> Option<u32> {
        u32::try_from(self.ends.len())
            .ok()
            .filter(|&entry| entry < u32::MAX)
    }

    /// Makes the arena's tail (everything past the last entry) entry
    /// `entry`, recorded in the empty `slot` a probe for it ended on.
    fn commit(&mut self, entry: u32, slot: usize) {
        self.ends.push(self.text.len());
        if self.ends.len() * 2 > self.index.len() {
            // Re-seats every entry, the new one included.
            self.grow();
        } else {
            self.index[slot] = entry + 1;
        }
    }

    /// Doubles the index and re-seats every entry (hashing its arena text
    /// again — the index stores no hashes).
    fn grow(&mut self) {
        self.index = vec![0; self.index.len() * 2];
        self.seat(0..self.ends.len());
    }

    /// Seats `entries`, known to be distinct, in the index without
    /// comparing them.
    fn seat(&mut self, entries: std::ops::Range<usize>) {
        let mask = self.index.len() - 1;
        for entry in entries {
            let (start, end) = self.span(entry as u32);
            let mut slot = self.home_slot(hash_bytes(&self.text.as_bytes()[start..end]));
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = entry as u32 + 1;
        }
    }

    /// The longest run of occupied slots — the worst case of a probe.
    #[cfg(test)]
    fn longest_probe_run(&self) -> usize {
        let mut longest = 0;
        let mut run = 0;
        // Twice around, so a run that wraps past the end is counted whole.
        for &slot in self.index.iter().chain(self.index.iter()) {
            run = if slot == 0 { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        longest.min(self.index.len())
    }
}

/// Why [`TextArena::append_raw`] refused its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawArenaError {
    /// The end offsets do not mark the text out into entries.
    BadOffsets,
    /// Two entries hold the same text.
    DuplicateEntry,
    /// More entries than the index can number.
    TooManyEntries,
}

/// Index slots for `entries` strings: a power of two, at least twice the
/// entry count.
fn slots_for(entries: usize) -> usize {
    entries
        .saturating_mul(2)
        .checked_next_power_of_two()
        .unwrap_or(1 << (usize::BITS - 1))
        .max(MIN_SLOTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_dense_and_texts_round_trip() {
        let mut arena = TextArena::new();
        let keys: Vec<String> = (0..1000).map(|i| format!("<http://ex/k{i}>")).collect();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(arena.intern(key), Some((i as u32, true)));
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(arena.intern(key), Some((i as u32, false)));
            assert_eq!(arena.get(key), Some(i as u32));
            assert_eq!(arena.text(i as u32), key);
        }
        assert_eq!(arena.get("<http://ex/unknown>"), None);
        assert_eq!(arena.len(), 1000);
        assert_eq!(
            arena.text.len(),
            keys.iter().map(String::len).sum::<usize>()
        );
    }

    #[test]
    fn the_empty_string_is_an_entry_like_any_other() {
        let mut arena = TextArena::new();
        assert_eq!(arena.get(""), None);
        assert_eq!(arena.intern("a"), Some((0, true)));
        assert_eq!(arena.intern(""), Some((1, true)));
        assert_eq!(arena.intern(""), Some((1, false)));
        assert_eq!(arena.text(1), "");
        assert_eq!(arena.text(0), "a");
    }

    #[test]
    fn intern_with_leaves_no_trace_of_a_hit() {
        let mut arena = TextArena::new();
        assert_eq!(
            arena.intern_with(|out| out.push_str("abc")),
            Some((0, true))
        );
        let bytes = arena.text.len();
        assert_eq!(
            arena.intern_with(|out| out.push_str("abc")),
            Some((0, false))
        );
        assert_eq!(arena.text.len(), bytes);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.intern("abd"), Some((1, true)));
    }

    #[test]
    fn a_presized_arena_never_grows_its_index() {
        let mut arena = TextArena::with_capacity(1000);
        let slots = arena.index.len();
        for i in 0..1000 {
            arena.intern(&format!("k{i}"));
        }
        assert_eq!(arena.index.len(), slots);
        assert_eq!(arena.get("k999"), Some(999));
    }

    #[test]
    fn clones_are_independent() {
        let mut arena = TextArena::new();
        arena.intern("a");
        let snapshot = arena.clone();
        arena.intern("b");
        assert_eq!(snapshot.get("b"), None);
        assert_eq!(snapshot.len(), 1);
        assert_eq!(arena.get("b"), Some(1));
    }

    #[test]
    fn raw_parts_append_to_the_arena_they_were_read_from() {
        let mut arena = TextArena::new();
        for key in ["a", "bc", "", "déf"] {
            arena.intern(key);
        }
        let (text, ends) = arena.raw_parts();
        let mut rebuilt = TextArena::new();
        rebuilt
            .append_raw(text[..3].to_string(), ends[..3].to_vec())
            .unwrap();
        rebuilt
            .append_raw(text[3..].to_string(), ends[3..].to_vec())
            .unwrap();
        assert_eq!(rebuilt.raw_parts(), arena.raw_parts());
        for key in ["a", "bc", "", "déf"] {
            assert_eq!(rebuilt.get(key), arena.get(key), "{key:?}");
        }
        assert_eq!(rebuilt.intern("g"), Some((4, true)));
        // Grown past its index's first size, entry by entry.
        let mut many = TextArena::new();
        let keys: Vec<String> = (0..100).map(|i| format!("k{i}")).collect();
        let mut end = 0;
        let ends: Vec<usize> = keys
            .iter()
            .map(|key| {
                end += key.len();
                end
            })
            .collect();
        many.append_raw(keys.concat(), ends).unwrap();
        assert!(keys
            .iter()
            .enumerate()
            .all(|(i, k)| many.get(k) == Some(i as u32)));
    }

    #[test]
    fn raw_parts_that_do_not_mark_out_distinct_entries_are_refused() {
        let mut arena = TextArena::new();
        arena.intern("ab");
        let before = arena.clone();
        let refused = [
            ("cd", vec![4, 3], RawArenaError::BadOffsets),
            ("cd", vec![3], RawArenaError::BadOffsets),
            ("cd", vec![5], RawArenaError::BadOffsets),
            ("cd", vec![1, 4], RawArenaError::BadOffsets),
            ("é", vec![3], RawArenaError::BadOffsets),
            ("cdcd", vec![4, 6], RawArenaError::DuplicateEntry),
            ("cdab", vec![4, 6], RawArenaError::DuplicateEntry),
        ];
        for (text, ends, error) in refused {
            assert_eq!(
                arena.append_raw(text.to_string(), ends.clone()),
                Err(error),
                "{text} {ends:?}"
            );
            assert_eq!(arena.raw_parts(), before.raw_parts());
            assert_eq!(arena.get("ab"), Some(0));
            assert_eq!(arena.get("cd"), None);
        }
    }

    #[test]
    fn popping_the_newest_entry_leaves_every_other_probe_as_it_was() {
        let mut arena = TextArena::new();
        for i in 0..40 {
            arena.intern(&format!("k{i}"));
        }
        arena.pop_newest();
        assert_eq!(arena.len(), 39);
        assert_eq!(arena.get("k39"), None);
        assert!((0..39).all(|i| arena.get(&format!("k{i}")) == Some(i)));
        assert_eq!(arena.intern("k39"), Some((39, true)));
    }

    /// Pins the choice of the hash's high bits: on 200 k LUBM-shaped keys —
    /// one long shared prefix, a counter for a tail — the longest run of
    /// occupied slots stays a small constant (20 here). Masking the low bits
    /// instead gives a run of 24 790 slots and a 100× slower load.
    #[test]
    fn probe_runs_stay_short_on_lubm_shaped_keys() {
        let mut arena = TextArena::new();
        for student in 0..200_000 {
            arena.intern(&format!(
                "<http://inferray.example.org/lubm/GraduateStudent{student}>"
            ));
        }
        assert_eq!(arena.len(), 200_000);
        let longest = arena.longest_probe_run();
        assert!(longest <= 64, "longest probe run {longest}");
    }
}
