//! Dense-numbering identifier-space layout (paper section 5.1).
//!
//! Every RDF term is encoded to a fixed-length 64-bit identifier. Because the
//! number of properties and resources in a dataset is unknown until the whole
//! file has been read, the paper splits the numbering space `[0, 2⁶⁴)` at
//! `2³²`:
//!
//! * **properties** are assigned identifiers *downwards* from [`PROPERTY_BASE`]
//!   (`2³²`, `2³² − 1`, `2³² − 2`, …), and
//! * **resources** (non-properties: classes, individuals, literals) are
//!   assigned identifiers *upwards* from `PROPERTY_BASE + 1`.
//!
//! Both halves stay *dense* — no gaps — which keeps the entropy of the values
//! low, which in turn is what makes the counting-sort / adaptive-radix
//! kernels of `inferray-sort` effective. Accessing the array of property
//! tables is then "a simple index translation" ([`property_index`]).

/// The split point of the identifier space: `2³²`. The first property
/// registered receives exactly this identifier.
pub const PROPERTY_BASE: u64 = 1 << 32;

/// The identifier assigned to the first resource: `2³² + 1`.
pub const RESOURCE_BASE: u64 = PROPERTY_BASE + 1;

/// The most terms one half of the space numbers: `2³¹ − 1` properties and
/// as many resources. Every identifier then lies in `(2³¹, 2³² + 2³¹)`, so
/// it minus `2³¹` fits a `u32` — the snapshot image stores pair words that
/// way ([`IMAGE_WORD_BASE`]).
pub const MAX_PER_HALF: usize = (1 << 31) - 1;

/// What the snapshot image subtracts from an identifier to store it in 32
/// bits (see [`MAX_PER_HALF`]).
pub const IMAGE_WORD_BASE: u64 = 1 << 31;

/// Returns `true` when `id` lies in the property half of the space.
#[inline]
pub fn is_property_id(id: u64) -> bool {
    id <= PROPERTY_BASE && id != 0
}

/// Returns `true` when `id` lies in the resource half of the space.
#[inline]
pub fn is_resource_id(id: u64) -> bool {
    id > PROPERTY_BASE
}

/// Translates a property identifier into a dense index, usable to address
/// the array of property tables: the first property (id `2³²`) maps to `0`,
/// the second (id `2³² − 1`) to `1`, and so on.
///
/// # Panics
/// Panics in debug builds when `id` is not a property identifier.
#[inline]
pub fn property_index(id: u64) -> usize {
    debug_assert!(is_property_id(id), "not a property id: {id}");
    (PROPERTY_BASE - id) as usize
}

/// Inverse of [`property_index`].
#[inline]
pub fn property_id_from_index(index: usize) -> u64 {
    PROPERTY_BASE - index as u64
}

/// Translates a resource identifier into a dense index: the first resource
/// (id `2³² + 1`) maps to `0`.
///
/// # Panics
/// Panics in debug builds when `id` is not a resource identifier.
#[inline]
pub fn resource_index(id: u64) -> usize {
    debug_assert!(is_resource_id(id), "not a resource id: {id}");
    (id - RESOURCE_BASE) as usize
}

/// Inverse of [`resource_index`].
#[inline]
pub fn resource_id_from_index(index: usize) -> u64 {
    RESOURCE_BASE + index as u64
}

/// The identifier of the n-th property to be registered (0-based), identical
/// to [`property_id_from_index`] but named for registration-order readability.
#[inline]
pub fn nth_property_id(n: usize) -> u64 {
    property_id_from_index(n)
}

/// The identifier of the n-th resource to be registered (0-based).
#[inline]
pub fn nth_resource_id(n: usize) -> u64 {
    resource_id_from_index(n)
}

/// [`nth_property_id`], or `None` past the [`MAX_PER_HALF`] properties a
/// half numbers.
#[inline]
pub fn checked_nth_property_id(n: usize) -> Option<u64> {
    (n < MAX_PER_HALF).then(|| nth_property_id(n))
}

/// [`nth_resource_id`], or `None` past the [`MAX_PER_HALF`] resources a
/// half numbers.
#[inline]
pub fn checked_nth_resource_id(n: usize) -> Option<u64> {
    (n < MAX_PER_HALF).then(|| nth_resource_id(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bases_are_adjacent() {
        assert_eq!(RESOURCE_BASE, PROPERTY_BASE + 1);
        assert_eq!(PROPERTY_BASE, 4_294_967_296);
    }

    #[test]
    fn property_ids_descend_from_base() {
        assert_eq!(nth_property_id(0), PROPERTY_BASE);
        assert_eq!(nth_property_id(1), PROPERTY_BASE - 1);
        assert_eq!(nth_property_id(100), PROPERTY_BASE - 100);
    }

    #[test]
    fn resource_ids_ascend_from_base() {
        assert_eq!(nth_resource_id(0), PROPERTY_BASE + 1);
        assert_eq!(nth_resource_id(1), PROPERTY_BASE + 2);
    }

    #[test]
    fn classification_is_a_partition() {
        for id in [1u64, 2, PROPERTY_BASE - 1, PROPERTY_BASE] {
            assert!(is_property_id(id));
            assert!(!is_resource_id(id));
        }
        for id in [PROPERTY_BASE + 1, PROPERTY_BASE + 2, u64::MAX] {
            assert!(!is_property_id(id));
            assert!(is_resource_id(id));
        }
        // Zero is reserved (never assigned).
        assert!(!is_property_id(0));
        assert!(!is_resource_id(0));
    }

    #[test]
    fn index_translation_round_trips() {
        for n in [0usize, 1, 2, 63, 1024, 1_000_000] {
            assert_eq!(property_index(property_id_from_index(n)), n);
            assert_eq!(resource_index(resource_id_from_index(n)), n);
        }
    }

    #[test]
    fn every_id_a_half_numbers_is_a_u32_above_the_image_word_base() {
        let last = MAX_PER_HALF - 1;
        assert_eq!(checked_nth_property_id(last), Some(nth_property_id(last)));
        assert_eq!(checked_nth_resource_id(last), Some(nth_resource_id(last)));
        assert_eq!(checked_nth_property_id(MAX_PER_HALF), None);
        assert_eq!(checked_nth_resource_id(MAX_PER_HALF), None);
        for id in [nth_property_id(last), nth_resource_id(last)] {
            assert!(u32::try_from(id - IMAGE_WORD_BASE).is_ok(), "{id}");
        }
        assert_eq!(nth_resource_id(last) - IMAGE_WORD_BASE, u32::MAX as u64);
        assert!(nth_property_id(last) > IMAGE_WORD_BASE);
    }

    #[test]
    fn property_index_is_registration_order() {
        // The first registered property addresses slot 0 of the table array.
        assert_eq!(property_index(PROPERTY_BASE), 0);
        assert_eq!(property_index(PROPERTY_BASE - 7), 7);
    }
}
