//! A committed image still opens: `every_term_shape.img` is the format-2
//! image of `tests/fixtures/every_term_shape.nt` loaded and materialized
//! under RDFS-Plus at epoch 3, covering log record 7. This code decodes it
//! to what loading the document gives today, and encodes it back to the
//! same bytes, so a change to the format shows here as a file already on
//! disk that no longer opens or no longer round-trips.

use inferray_parser::load_ntriples;
use inferray_persist::snapshot::{decode_image, encode_image};

const DOCUMENT: &str = include_str!("../../../tests/fixtures/every_term_shape.nt");
const IMAGE: &[u8] = include_bytes!("../../../tests/fixtures/every_term_shape.img");

#[test]
fn the_committed_image_decodes_to_the_loaded_document_and_reencodes_to_its_bytes() {
    let image = decode_image(IMAGE).expect("the committed image opens");
    assert_eq!(
        (image.epoch, image.last_seq, image.fragment.as_str()),
        (3, 7, "rdfs-plus")
    );

    // It holds what loading the document today produces...
    let loaded = load_ntriples(DOCUMENT).unwrap();
    assert_eq!(image.dictionary, loaded.dictionary);
    assert_eq!(image.base, loaded.store);
    assert!(image.materialized.len() > image.base.len());

    // ...and encodes back to the same bytes. (The DICT section is the arena
    // as it sits in memory: the loaded dictionary says the same terms in
    // first-occurrence order, so only the decoded one re-encodes exactly.)
    let again = encode_image(
        &image.dictionary,
        &image.base,
        &image.materialized,
        image.epoch,
        image.last_seq,
        &image.fragment,
    );
    assert_eq!(again, IMAGE);
}
