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
use std::convert::Infallible;
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

/// FxHash over the key's bytes. The multiply pushes entropy towards the high
/// bits, so the table takes its slot from the *top* of the hash (see
/// [`TextArena::home_slot`]).
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
        let outcome = self.try_intern_with(|out| {
            write(out);
            Ok::<(), Infallible>(())
        });
        match outcome {
            Ok(interned) => interned,
            Err(never) => match never {},
        }
    }

    /// [`intern_with`](Self::intern_with) for a renderer that can fail (a
    /// decoder reading the key from a file); the arena is unchanged when it
    /// does.
    pub fn try_intern_with<E>(
        &mut self,
        write: impl FnOnce(&mut String) -> Result<(), E>,
    ) -> Result<Option<(u32, bool)>, E> {
        let start = self.text.len();
        if let Err(error) = write(&mut self.text) {
            self.text.truncate(start);
            return Err(error);
        }
        let key = &self.text.as_bytes()[start..];
        let hash = hash_bytes(key);
        Ok(match self.find(key, hash) {
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
        })
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
    /// bits. FxHash ends in a multiply, which leaves the low bits of keys
    /// that differ only in their last bytes nearly equal — masking those
    /// instead turns linear probing over `…/GraduateStudent123`-shaped keys
    /// into runs thousands of slots long.
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
        let mask = self.index.len() - 1;
        let mut start = 0;
        for (entry, &end) in self.ends.iter().enumerate() {
            let mut slot = self.home_slot(hash_bytes(&self.text.as_bytes()[start..end]));
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = entry as u32 + 1;
            start = end;
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
    fn intern_with_leaves_no_trace_of_a_hit_or_a_failure() {
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
        let failed: Result<_, &str> = arena.try_intern_with(|out| {
            out.push_str("half a key");
            Err("decoder failed")
        });
        assert_eq!(failed, Err("decoder failed"));
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
