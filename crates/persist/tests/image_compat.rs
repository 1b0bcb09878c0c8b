//! Format 1 still opens: images an older build encoded (written before
//! the dictionary became a text arena) open under this code's format-1
//! reader, re-encode through the format-1 reference codec
//! (`tests/common/v1_image.rs`) to the bytes they were, and round-trip
//! through format 2, which this code writes.
//!
//! * `every_term_shape.plain-spelling.v1.img` — the parent's image of the
//!   fixture with its two explicit `^^xsd:string` datatypes spelled plain —
//!   re-encodes to the **same bytes**.
//! * `every_term_shape.v1.img` — the parent's image of the fixture as
//!   committed. The parent stored the first-seen `Term` verbatim, so the
//!   record of `"explicitly a string"^^xsd:string` carries that datatype;
//!   the arena stores the canonical text `"explicitly a string"` (the same
//!   RDF 1.1 term, the same id, the same N-Triples output), so the image
//!   re-encodes to what the parent writes for the plain spelling: the first
//!   fixture, 4 + 39 bytes shorter.

use inferray_model::term::XSD_STRING;
use inferray_model::Term;
use inferray_parser::load_ntriples;
use inferray_persist::snapshot::{decode_image, encode_image, SnapshotImage, MAGIC};

#[path = "../../../tests/common/v1_image.rs"]
mod v1_image;

const DOCUMENT: &str = include_str!("../../../tests/fixtures/every_term_shape.nt");
const PARENT_IMAGE: &[u8] = include_bytes!("../../../tests/fixtures/every_term_shape.v1.img");
const PARENT_IMAGE_PLAIN_SPELLING: &[u8] =
    include_bytes!("../../../tests/fixtures/every_term_shape.plain-spelling.v1.img");

/// The format-1 bytes of `image`.
fn reencode(image: &SnapshotImage) -> Vec<u8> {
    v1_image::encode(
        &image.dictionary,
        &image.base,
        &image.materialized,
        image.epoch,
        image.last_seq,
        &image.fragment,
    )
}

#[test]
fn an_image_written_by_the_parent_commit_reencodes_to_the_same_bytes() {
    let image = decode_image(PARENT_IMAGE_PLAIN_SPELLING).expect("the parent's image opens");
    assert_eq!(
        (image.epoch, image.last_seq, image.fragment.as_str()),
        (3, 7, "rdfs-plus")
    );

    // It holds what loading the document today produces (either spelling
    // loads to the same dictionary)...
    let loaded = load_ntriples(DOCUMENT).unwrap();
    assert_eq!(image.dictionary, loaded.dictionary);
    assert_eq!(image.base, loaded.store);
    assert!(image.materialized.len() > image.base.len());

    // ...and transcoding the DICT section through the arena loses nothing.
    assert_eq!(reencode(&image), PARENT_IMAGE_PLAIN_SPELLING);
    let from_live = SnapshotImage {
        dictionary: loaded.dictionary,
        ..image
    };
    assert_eq!(reencode(&from_live), PARENT_IMAGE_PLAIN_SPELLING);
}

#[test]
fn an_explicit_xsd_string_record_reencodes_in_its_plain_spelling() {
    assert!(DOCUMENT.contains("\"explicitly a string\"^^<"));
    let image = decode_image(PARENT_IMAGE).expect("the parent's image opens");
    let plain = decode_image(PARENT_IMAGE_PLAIN_SPELLING).unwrap();
    assert_eq!(image.dictionary, plain.dictionary);
    assert_eq!(image.base, plain.base);
    assert_eq!(image.materialized, plain.materialized);

    // Both spellings resolve to the one id, which decodes plain.
    let id = image
        .dictionary
        .id_of(&Term::typed_literal("explicitly a string", XSD_STRING))
        .expect("the literal is registered");
    assert_eq!(
        image.dictionary.decode(id),
        Some(Term::plain_literal("explicitly a string"))
    );

    assert_eq!(
        PARENT_IMAGE.len() - PARENT_IMAGE_PLAIN_SPELLING.len(),
        4 + XSD_STRING.len()
    );
    assert_eq!(reencode(&image), PARENT_IMAGE_PLAIN_SPELLING);
}

#[test]
fn both_images_round_trip_through_format_2() {
    for bytes in [PARENT_IMAGE, PARENT_IMAGE_PLAIN_SPELLING] {
        let image = decode_image(bytes).expect("the older image opens");
        let v2 = encode_image(
            &image.dictionary,
            &image.base,
            &image.materialized,
            image.epoch,
            image.last_seq,
            &image.fragment,
        );
        assert_eq!(&v2[..8], MAGIC);
        let back = decode_image(&v2).expect("the format-2 image opens");
        assert_eq!(back, image);
        assert_eq!(reencode(&back), PARENT_IMAGE_PLAIN_SPELLING);
    }
}
