//! The arena dictionary against a reference: random term sequences —
//! IRIs, blank nodes, plain / `xsd:string` / typed / language-tagged
//! literals, lexical forms that need escaping, non-ASCII text,
//! resource-then-predicate promotions and re-lookups — are driven through
//! [`Dictionary`] and through the representation it replaced, kept here as
//! a twenty-line model: a `HashMap` from canonical text to identifier plus
//! one `Vec<Term>` per identifier space.

use inferray_dictionary::{Dictionary, EncodeError, RawLen};
use inferray_model::ids::{is_property_id, nth_property_id, nth_resource_id};
use inferray_model::term::XSD_STRING;
use inferray_model::Term;
use proptest::prelude::*;
use std::collections::HashMap;

/// The old representation, without the vocabulary pre-load (the test
/// registers it through both sides instead).
#[derive(Default)]
struct Model {
    to_id: HashMap<String, u64>,
    properties: Vec<Term>,
    resources: Vec<Term>,
    promotions: Vec<(u64, u64)>,
}

impl Model {
    fn encode(&mut self, term: &Term, as_property: bool) -> u64 {
        let key = term.to_string();
        match self.to_id.get(&key).copied() {
            Some(id) if !as_property || is_property_id(id) => id,
            known => {
                let id = if as_property {
                    self.properties.push(term.clone());
                    nth_property_id(self.properties.len() - 1)
                } else {
                    self.resources.push(term.clone());
                    nth_resource_id(self.resources.len() - 1)
                };
                if let Some(stale) = known {
                    self.promotions.push((stale, id));
                }
                self.to_id.insert(key, id);
                id
            }
        }
    }
}

fn lexical() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9 ]{0,10}",
        prop::collection::vec(
            prop_oneof![
                Just('"'),
                Just('\\'),
                Just('\n'),
                Just('\r'),
                Just('\t'),
                Just('a'),
                Just('é'),
                Just('語'),
                Just('\u{1}'),
            ],
            0..8
        )
        .prop_map(|chars| chars.into_iter().collect()),
    ]
}

/// A small universe, so sequences revisit terms and promote resources.
fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u32..12).prop_map(|n| Term::iri(format!("http://example.org/t{n}"))),
        "[a-z]{1,3}".prop_map(Term::blank),
        lexical().prop_map(Term::plain_literal),
        lexical().prop_map(|l| Term::typed_literal(l, XSD_STRING)),
        (lexical(), 0u32..3)
            .prop_map(|(l, dt)| Term::typed_literal(l, format!("http://example.org/dt{dt}"))),
        (lexical(), "[a-z]{2}(-[a-z]{2})?").prop_map(|(l, tag)| Term::lang_literal(l, tag)),
    ]
}

/// One step of a sequence: encode `term` in predicate or in resource
/// position.
fn step() -> impl Strategy<Value = (Term, bool)> {
    (term(), 0u32..3).prop_map(|(term, position)| (term, position == 0))
}

/// Rebuilds `dictionary` from its parts as they sit in memory, as the
/// persistence layer does from an image.
fn rebuilt_from_image(dictionary: &Dictionary) -> Dictionary {
    let parts = dictionary
        .raw_parts_since(RawLen::default())
        .expect("a dictionary lists all of itself");
    Dictionary::from_raw_parts(
        parts.text.to_string(),
        parts.ends.to_vec(),
        parts.properties.to_vec(),
        parts.resources.to_vec(),
    )
    .expect("a live dictionary's parts rebuild")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arena_dictionary_matches_the_string_keyed_model(
        steps in prop::collection::vec(step(), 0..60)
    ) {
        let mut dictionary = Dictionary::new();
        let mut model = Model::default();
        for (_, term) in Dictionary::new().iter() {
            let id = dictionary.id_of(&term).expect("vocabulary is pre-loaded");
            prop_assert_eq!(model.encode(&term, is_property_id(id)), id);
        }

        for (term, as_property) in &steps {
            if *as_property && !term.is_iri() {
                // Same rejection, no state change on either side.
                prop_assert!(matches!(
                    dictionary.encode_as_property(term),
                    Err(EncodeError::InvalidPredicate(_))
                ));
                continue;
            }
            // Same ids, through the `Term` entry points and the text ones.
            let expected = model.encode(term, *as_property);
            let mut by_text = dictionary.clone();
            let id = if *as_property {
                prop_assert_eq!(by_text.encode_as_property_text(&term.to_string()), Ok(expected));
                dictionary.encode_as_property(term).expect("IRI")
            } else {
                prop_assert_eq!(by_text.encode_as_resource_text(&term.to_string()), Ok(expected));
                dictionary.encode_as_resource(term)
            };
            prop_assert_eq!(id, expected);
            prop_assert_eq!(&by_text, &dictionary);
            // Re-lookup: read-only, by term and by text.
            prop_assert_eq!(dictionary.id_of(term), Some(id));
            prop_assert_eq!(dictionary.id_of_text(&term.to_string()), Some(id));
        }

        // Same tables, same promotions.
        prop_assert_eq!(dictionary.num_properties(), model.properties.len());
        prop_assert_eq!(dictionary.num_resources(), model.resources.len());
        for (table, nth) in [
            (&model.properties, nth_property_id as fn(usize) -> u64),
            (&model.resources, nth_resource_id),
        ] {
            for (index, term) in table.iter().enumerate() {
                let id = nth(index);
                let text = dictionary.text(id).expect("every slot has text");
                prop_assert_eq!(text, term.to_string());
                let decoded = dictionary.decode(id).expect("every slot decodes");
                prop_assert_eq!(text, decoded.to_string());
                prop_assert_eq!(dictionary.kind(id), Some(term.kind()));
                // A promoted term's stale resource slot resolves to its
                // property id; every other slot to itself.
                prop_assert_eq!(dictionary.id_of(&decoded), Some(model.to_id[text]));
            }
        }
        prop_assert_eq!(dictionary.texts().count(), dictionary.len());
        prop_assert_eq!(dictionary.iter().count(), dictionary.len());

        // clone ≡ original, and stays so after draining both.
        let mut clone = dictionary.clone();
        prop_assert_eq!(&clone, &dictionary);
        prop_assert_eq!(clone.take_promotions(), model.promotions.clone());
        prop_assert_eq!(dictionary.take_promotions(), model.promotions);
        prop_assert_eq!(&clone, &dictionary);

        // rebuild-from-image ≡ original, lookups included.
        let rebuilt = rebuilt_from_image(&dictionary);
        prop_assert_eq!(&rebuilt, &dictionary);
        for (text, id) in &model.to_id {
            prop_assert_eq!(rebuilt.id_of_text(text), Some(*id));
        }
    }
}
