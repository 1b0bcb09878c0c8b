//! The generic sort-merge join over two sorted pair views.
//!
//! A *view* is a flat `[key0, payload0, key1, payload1, …]` array sorted on
//! `(key, payload)`. The ⟨s,o⟩-sorted table is a subject-keyed view; the
//! ⟨o,s⟩ cache is an object-keyed view. The join walks both views once,
//! emitting the cross product of every equal-key group — the access pattern
//! is purely sequential, which is the whole point of the paper's design.

/// Which component of a property table a join binds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// Join on the subject: use the ⟨s,o⟩-sorted array (payload = object).
    Subject,
    /// Join on the object: use the ⟨o,s⟩-sorted array (payload = subject).
    Object,
}

/// Sort-merge join of two sorted views, group by group: for every key both
/// views hold, `on_group(left_group, right_group)` is called with the two
/// equal-key runs (flat `[key, payload, key, payload', …]` slices). The
/// join's output for that key is their cross product, so a caller that
/// collects it knows its size — `left_group.len() / 2 · right_group.len() /
/// 2` matches — before it pushes the first one.
pub fn merge_join_groups(left: &[u64], right: &[u64], mut on_group: impl FnMut(&[u64], &[u64])) {
    debug_assert!(left.len().is_multiple_of(2) && right.len().is_multiple_of(2));
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        let lk = left[i];
        let rk = right[j];
        if lk < rk {
            i += 2;
        } else if lk > rk {
            j += 2;
        } else {
            // Find the extent of the equal-key group on both sides.
            let mut i_end = i;
            while i_end < left.len() && left[i_end] == lk {
                i_end += 2;
            }
            let mut j_end = j;
            while j_end < right.len() && right[j_end] == rk {
                j_end += 2;
            }
            on_group(&left[i..i_end], &right[j..j_end]);
            i = i_end;
            j = j_end;
        }
    }
}

/// Sort-merge join of two sorted views. For every pair of entries with equal
/// keys, `emit(key, left_payload, right_payload)` is called.
pub fn merge_join(left: &[u64], right: &[u64], mut emit: impl FnMut(u64, u64, u64)) {
    merge_join_groups(left, right, |left_group, right_group| {
        for l in left_group.chunks_exact(2) {
            for r in right_group.chunks_exact(2) {
                emit(l[0], l[1], r[1]);
            }
        }
    });
}

/// Counts the matches a [`merge_join`] would emit (used by tests and by the
/// benchmark harness to size buffers).
pub fn merge_join_count(left: &[u64], right: &[u64]) -> usize {
    let mut count = 0usize;
    merge_join(left, right, |_, _, _| count += 1);
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sides_produce_no_matches() {
        assert_eq!(merge_join_count(&[], &[]), 0);
        assert_eq!(merge_join_count(&[1, 2], &[]), 0);
        assert_eq!(merge_join_count(&[], &[1, 2]), 0);
    }

    #[test]
    fn disjoint_keys_produce_no_matches() {
        assert_eq!(merge_join_count(&[1, 10, 3, 30], &[2, 20, 4, 40]), 0);
    }

    #[test]
    fn single_match() {
        let mut results = Vec::new();
        merge_join(&[1, 10, 2, 20], &[2, 200, 3, 300], |k, l, r| {
            results.push((k, l, r));
        });
        assert_eq!(results, vec![(2, 20, 200)]);
    }

    #[test]
    fn equal_key_groups_emit_the_cross_product() {
        // Left has key 5 twice, right has key 5 three times → 6 matches.
        let left = [5u64, 1, 5, 2, 7, 9];
        let right = [4u64, 0, 5, 10, 5, 11, 5, 12];
        let mut results = Vec::new();
        merge_join(&left, &right, |k, l, r| results.push((k, l, r)));
        assert_eq!(results.len(), 6);
        assert!(results.contains(&(5, 1, 10)));
        assert!(results.contains(&(5, 2, 12)));
        assert!(!results.iter().any(|&(k, _, _)| k == 7));
    }

    #[test]
    fn groups_are_handed_out_whole() {
        let left = [5u64, 1, 5, 2, 7, 9, 8, 0];
        let right = [4u64, 0, 5, 10, 5, 11, 5, 12, 8, 3];
        let mut groups = Vec::new();
        merge_join_groups(&left, &right, |l, r| groups.push((l.to_vec(), r.to_vec())));
        assert_eq!(
            groups,
            vec![
                (vec![5, 1, 5, 2], vec![5, 10, 5, 11, 5, 12]),
                (vec![8, 0], vec![8, 3]),
            ]
        );
    }

    #[test]
    fn join_is_symmetric_in_count() {
        let a = [1u64, 0, 1, 1, 2, 0, 3, 0];
        let b = [1u64, 5, 2, 6, 2, 7];
        assert_eq!(merge_join_count(&a, &b), merge_join_count(&b, &a));
        assert_eq!(merge_join_count(&a, &b), 4);
    }
}
