//! The [`Dictionary`] type: term ↔ identifier interning with dense numbering.

use crate::arena::TextArena;
use inferray_model::ids::{
    is_property_id, nth_property_id, nth_resource_id, property_index, RESOURCE_BASE,
};
use inferray_model::{vocab, IdTriple, Term, TermKind, TermRef, Triple};
use std::cell::RefCell;
use std::fmt;

/// Renders `term`'s canonical textual form (the interning key) into a
/// thread-local scratch buffer and hands it to `f`, so a read-only lookup
/// never allocates. (The encode path needs no scratch: it renders into the
/// arena's own tail, see [`TextArena::intern_with`].)
fn with_term_key<R>(term: &TermRef<'_>, f: impl FnOnce(&str) -> R) -> R {
    thread_local! {
        static KEY_BUF: RefCell<String> = const { RefCell::new(String::new()) };
    }
    KEY_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        term.write_ntriples(&mut buf);
        f(&buf)
    })
}

/// Errors produced while encoding terms or triples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The predicate of a triple was not an IRI.
    InvalidPredicate(String),
    /// The subject of a triple was a literal.
    LiteralSubject(String),
    /// The text arena's index cannot number another distinct term: 2³² − 1
    /// are registered (never happens on real data). The property half of the
    /// identifier space holds 2³², so it cannot run out first.
    TermSpaceExhausted,
    /// Text handed to a `_text` entry point does not read back as a term.
    MalformedText(String),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::InvalidPredicate(t) => write!(f, "predicate is not an IRI: {t}"),
            EncodeError::LiteralSubject(t) => write!(f, "subject is a literal: {t}"),
            EncodeError::TermSpaceExhausted => {
                write!(f, "more than 2^32 - 1 distinct terms")
            }
            EncodeError::MalformedText(t) => write!(f, "not the text of a term: {t}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Why a pair of dense term tables is not a dictionary (see
/// [`Dictionary::from_dense_texts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseTableError {
    /// The same term occupies two slots of one table, or two resource slots.
    DuplicateTerm,
    /// More terms than the arena's index can number.
    TooManyTerms,
}

impl fmt::Display for DenseTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenseTableError::DuplicateTerm => write!(f, "a term is registered twice"),
            DenseTableError::TooManyTerms => write!(f, "too many terms"),
        }
    }
}

impl std::error::Error for DenseTableError {}

/// Which half of the identifier space a term occurrence asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Demand {
    /// A property identifier: a term met as a resource before is promoted.
    Property,
    /// A resource identifier, unless the term already is a property.
    Resource,
}

/// The one rule for which positions of a statement demand a property
/// identifier, given its predicate IRI and its object's IRI (`None` when the
/// object is not an IRI). Both ends of `rdfs:subPropertyOf`,
/// `owl:equivalentProperty` and `owl:inverseOf`, the subject of
/// `rdfs:domain` and `rdfs:range`, and the subject of an `rdf:type`
/// declaration whose object is one of the property classes are properties,
/// even before they appear as a predicate, so the property-hierarchy rules
/// can address their tables directly; only an IRI can be one, so a subject
/// that is not an IRI (`subject_is_iri == false`) is a resource.
///
/// Returns the subject's and the object's demand. It reads text because the
/// streaming ingest applies it before any identifier exists;
/// [`Dictionary::encode_term_refs`] applies the same function.
#[inline]
pub fn position_demands(
    subject_is_iri: bool,
    predicate: &str,
    object: Option<&str>,
) -> (Demand, Demand) {
    let (subject, object) = match predicate {
        vocab::RDFS_SUB_PROPERTY_OF | vocab::OWL_EQUIVALENT_PROPERTY | vocab::OWL_INVERSE_OF => {
            (true, object.is_some())
        }
        vocab::RDFS_DOMAIN | vocab::RDFS_RANGE => (true, false),
        vocab::RDF_TYPE => (
            matches!(
                object,
                Some(
                    vocab::RDF_PROPERTY
                        | vocab::RDFS_CONTAINER_MEMBERSHIP_PROPERTY
                        | vocab::OWL_TRANSITIVE_PROPERTY
                        | vocab::OWL_SYMMETRIC_PROPERTY
                        | vocab::OWL_FUNCTIONAL_PROPERTY
                        | vocab::OWL_INVERSE_FUNCTIONAL_PROPERTY
                        | vocab::OWL_DATATYPE_PROPERTY
                        | vocab::OWL_OBJECT_PROPERTY
                )
            ),
            false,
        ),
        _ => (false, false),
    };
    let demand = |is_property| {
        if is_property {
            Demand::Property
        } else {
            Demand::Resource
        }
    };
    (demand(subject && subject_is_iri), demand(object))
}

/// Bidirectional term ↔ identifier dictionary with dense numbering.
///
/// See the crate-level documentation for the numbering scheme and the
/// representation. A freshly created dictionary already contains the
/// RDF/RDFS/OWL vocabulary (in the order fixed by
/// [`inferray_model::vocab::SCHEMA_PROPERTIES`] /
/// [`SCHEMA_RESOURCES`](inferray_model::vocab::SCHEMA_RESOURCES)), so the
/// constants in [`crate::wellknown`] are always valid.
///
/// ```
/// use inferray_dictionary::{Dictionary, wellknown};
/// use inferray_model::{Term, Triple, vocab};
///
/// let mut dict = Dictionary::new();
/// let t = Triple::iris("http://ex/human", vocab::RDFS_SUB_CLASS_OF, "http://ex/mammal");
/// let enc = dict.encode_triple(&t).unwrap();
/// assert_eq!(enc.p, wellknown::RDFS_SUB_CLASS_OF);
/// assert_eq!(dict.text(enc.s), Some("<http://ex/human>"));
/// assert_eq!(dict.decode(enc.s), Some(Term::iri("http://ex/human")));
/// ```
#[derive(Clone)]
pub struct Dictionary {
    /// The canonical N-Triples form of every distinct term, once.
    terms: TextArena,
    /// Arena entry → the term's current identifier (its property identifier
    /// once promoted).
    ids: Vec<u64>,
    /// Dense property index → arena entry.
    properties: Vec<u32>,
    /// Dense resource index → arena entry. A promoted property's stale slot
    /// keeps pointing at the entry its property slot now shares.
    resources: Vec<u32>,
    /// `(old resource id, new property id)` pairs produced by promotions that
    /// have not yet been collected by [`Dictionary::take_promotions`].
    pending_promotions: Vec<(u64, u64)>,
}

impl Default for Dictionary {
    fn default() -> Self {
        Self::new()
    }
}

/// Equality of what a dictionary *says* — the text behind every identifier
/// of both tables and the pending promotions — not of how its arena happens
/// to be laid out: a dictionary rebuilt from an image lists property text
/// first, the live one in first-occurrence order. The lookup side needs no
/// comparison of its own: a text resolves to its property identifier when
/// it has one and to its resource identifier otherwise.
impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        self.pending_promotions == other.pending_promotions
            && self.properties.len() == other.properties.len()
            && self.resources.len() == other.resources.len()
            && self.texts().eq(other.texts())
    }
}

impl Eq for Dictionary {}

impl fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let table = |entries: &[u32]| -> Vec<&str> {
            entries.iter().map(|&e| self.terms.text(e)).collect()
        };
        f.debug_struct("Dictionary")
            .field("properties", &table(&self.properties))
            .field("resources", &table(&self.resources))
            .field("pending_promotions", &self.pending_promotions)
            .finish()
    }
}

impl Dictionary {
    /// Creates a dictionary pre-loaded with the RDF/RDFS/OWL vocabulary.
    pub fn new() -> Self {
        let mut dict = Dictionary::empty(0);
        let mut preload = |iri: &str, demand| {
            dict.encode_with(demand, |out| {
                out.push('<');
                out.push_str(iri);
                out.push('>');
            })
            .expect("the vocabulary fits the identifier space");
        };
        for iri in vocab::SCHEMA_PROPERTIES {
            preload(iri, Demand::Property);
        }
        for iri in vocab::SCHEMA_RESOURCES {
            preload(iri, Demand::Resource);
        }
        dict
    }

    /// A dictionary without even the vocabulary, sized for `terms` terms.
    fn empty(terms: usize) -> Self {
        Dictionary {
            terms: TextArena::with_capacity(terms),
            ids: Vec::with_capacity(terms),
            properties: Vec::new(),
            resources: Vec::new(),
            pending_promotions: Vec::new(),
        }
    }

    /// Rebuilds a dictionary from its two dense term tables — the recovery
    /// path of the persistence layer, which stores exactly the canonical
    /// text behind every identifier ([`Dictionary::texts`] enumerates
    /// properties then resources in dense order).
    ///
    /// `write_next` is called `num_properties + num_resources` times and
    /// appends the next term's canonical N-Triples form straight to the
    /// arena. A resource slot whose text is also a property is the *stale
    /// slot* a promotion leaves behind: it shares the property's text and
    /// the text keeps resolving to the property identifier, exactly as after
    /// [`Dictionary::encode_as_property`] promoted it. No promotions are
    /// pending on the rebuilt dictionary.
    ///
    /// Both tables are reserved up front: a caller reading the counts from a
    /// file bounds them (by the file's length, say) first.
    pub fn from_dense_texts<E: From<DenseTableError>>(
        num_properties: usize,
        num_resources: usize,
        mut write_next: impl FnMut(&mut String) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut dict = Dictionary::empty(num_properties.saturating_add(num_resources));
        dict.properties.reserve(num_properties);
        dict.resources.reserve(num_resources);
        let mut intern_next = |terms: &mut TextArena| -> Result<(u32, bool), E> {
            Ok(terms
                .try_intern_with(&mut write_next)?
                .ok_or(DenseTableError::TooManyTerms)?)
        };
        for _ in 0..num_properties {
            let (entry, fresh) = intern_next(&mut dict.terms)?;
            if !fresh {
                return Err(DenseTableError::DuplicateTerm.into());
            }
            dict.ids.push(nth_property_id(dict.properties.len()));
            dict.properties.push(entry);
        }
        for _ in 0..num_resources {
            let (entry, fresh) = intern_next(&mut dict.terms)?;
            if fresh {
                dict.ids.push(nth_resource_id(dict.resources.len()));
            } else if !is_property_id(dict.ids[entry as usize]) {
                return Err(DenseTableError::DuplicateTerm.into());
            }
            dict.resources.push(entry);
        }
        Ok(dict)
    }

    /// Number of distinct properties registered so far.
    pub fn num_properties(&self) -> usize {
        self.properties.len()
    }

    /// Number of distinct resources (non-properties) registered so far.
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Total number of registered terms.
    pub fn len(&self) -> usize {
        self.num_properties() + self.num_resources()
    }

    /// `true` only for a dictionary stripped of its vocabulary (never the
    /// case for dictionaries built with [`Dictionary::new`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The identifier of `term`, if it has been registered. Allocation-free:
    /// the lookup key is rendered into a reusable scratch buffer.
    pub fn id_of(&self, term: &Term) -> Option<u64> {
        self.id_of_ref(&term.as_term_ref())
    }

    /// [`id_of`](Self::id_of) for a borrowed term, as the lexers yield it.
    pub fn id_of_ref(&self, term: &TermRef<'_>) -> Option<u64> {
        with_term_key(term, |key| self.id_of_text(key))
    }

    /// The identifier registered for the canonical textual form `key`
    /// (exactly what `Term::to_string()` renders). Hashes the bytes and
    /// compares them in the arena: no allocation.
    #[inline]
    pub fn id_of_text(&self, key: &str) -> Option<u64> {
        self.terms.get(key).map(|entry| self.ids[entry as usize])
    }

    /// The identifier of the IRI `iri`, if registered (convenience for tests
    /// and examples).
    pub fn id_of_iri(&self, iri: &str) -> Option<u64> {
        self.id_of(&Term::iri(iri))
    }

    /// The canonical N-Triples form of the term behind `id` — a slice of the
    /// arena, which is all a writer needs.
    #[inline]
    pub fn text(&self, id: u64) -> Option<&str> {
        let entry = if is_property_id(id) {
            self.properties.get(property_index(id))
        } else {
            let index = usize::try_from(id.checked_sub(RESOURCE_BASE)?).ok()?;
            self.resources.get(index)
        };
        entry.map(|&entry| self.terms.text(entry))
    }

    /// The term behind `id` as a borrowed view over the arena. Allocates
    /// only for a literal whose lexical form contains escapes.
    pub fn term_ref(&self, id: u64) -> Option<TermRef<'_>> {
        self.text(id).and_then(TermRef::from_ntriples)
    }

    /// The coarse kind of the term behind `id`, from the first byte of its
    /// text.
    pub fn kind(&self, id: u64) -> Option<TermKind> {
        self.text(id).and_then(TermKind::of_ntriples)
    }

    /// Decodes an identifier back to an owned term, materialized from the
    /// arena text.
    pub fn decode(&self, id: u64) -> Option<Term> {
        self.term_ref(id).map(TermRef::into_term)
    }

    /// Encodes a term appearing in **predicate** position. Registers it as a
    /// property, promoting it if it had previously been met as a resource.
    pub fn encode_as_property(&mut self, term: &Term) -> Result<u64, EncodeError> {
        if !term.valid_predicate() {
            return Err(EncodeError::InvalidPredicate(term.to_string()));
        }
        self.encode_with(Demand::Property, |out| term.write_ntriples(out))
    }

    /// Encodes a term appearing in **subject or object** position. If the
    /// term is already known (as either a property or a resource) its
    /// existing identifier is returned, so properties referenced by schema
    /// triples keep their property identifier.
    ///
    /// # Panics
    /// Panics when 2³² − 1 distinct terms are already registered
    /// ([`Dictionary::encode_triple`] and the `_text` entry points report
    /// that as [`EncodeError::TermSpaceExhausted`] instead).
    pub fn encode_as_resource(&mut self, term: &Term) -> u64 {
        self.encode_with(Demand::Resource, |out| term.write_ntriples(out))
            .expect("fewer than 2^32 - 1 distinct terms")
    }

    /// [`encode_as_property`](Self::encode_as_property) for a term the
    /// caller holds as its canonical N-Triples text `key` — the entry point
    /// of the streaming ingest's merge, which never builds a `Term`. A hit
    /// allocates nothing; a miss appends `key`'s bytes to the arena.
    ///
    /// `key` must be exactly what [`TermRef::write_ntriples`] renders (the
    /// ingest's chunk arenas hold nothing else): the arena keeps it verbatim
    /// and every decode reads it back. Text that does not read back as a
    /// term at all is refused ([`EncodeError::MalformedText`]), so whatever
    /// enters the arena decodes; that it is the *canonical* spelling of its
    /// term is the caller's side of the contract.
    pub fn encode_as_property_text(&mut self, key: &str) -> Result<u64, EncodeError> {
        if !key.starts_with('<') {
            return Err(EncodeError::InvalidPredicate(key.to_string()));
        }
        self.encode_text(key, Demand::Property)
    }

    /// [`encode_as_resource`](Self::encode_as_resource) on canonical text
    /// (same contract as [`encode_as_property_text`](Self::encode_as_property_text)).
    pub fn encode_as_resource_text(&mut self, key: &str) -> Result<u64, EncodeError> {
        self.encode_text(key, Demand::Resource)
    }

    /// Encodes a full triple, registering its terms as needed.
    ///
    /// Terms that sit in a *property position* of a schema triple (see
    /// [`position_demands`]) are registered as *properties* even though they
    /// do not (yet) appear in a predicate position.
    pub fn encode_triple(&mut self, triple: &Triple) -> Result<IdTriple, EncodeError> {
        self.encode_term_refs(
            &triple.subject.as_term_ref(),
            &triple.predicate.as_term_ref(),
            &triple.object.as_term_ref(),
        )
    }

    /// [`encode_triple`](Self::encode_triple) over borrowed terms: a lexed
    /// statement is interned straight from the slices of its document, no
    /// owned [`Term`] in between.
    pub fn encode_term_refs(
        &mut self,
        subject: &TermRef<'_>,
        predicate: &TermRef<'_>,
        object: &TermRef<'_>,
    ) -> Result<IdTriple, EncodeError> {
        if subject.is_literal() {
            return Err(EncodeError::LiteralSubject(subject.to_term().to_string()));
        }
        let Some(predicate_iri) = predicate.as_iri() else {
            return Err(EncodeError::InvalidPredicate(
                predicate.to_term().to_string(),
            ));
        };
        let p = self.encode_with(Demand::Property, |out| predicate.write_ntriples(out))?;
        let (subject_demand, object_demand) =
            position_demands(subject.is_iri(), predicate_iri, object.as_iri());
        let s = self.encode_with(subject_demand, |out| subject.write_ntriples(out))?;
        let o = self.encode_with(object_demand, |out| object.write_ntriples(out))?;
        Ok(IdTriple::new(s, p, o))
    }

    /// Decodes an encoded triple. Returns `None` when any identifier is
    /// unknown.
    pub fn decode_triple(&self, triple: IdTriple) -> Option<Triple> {
        Some(Triple::new(
            self.decode(triple.s)?,
            self.decode(triple.p)?,
            self.decode(triple.o)?,
        ))
    }

    /// Drains the `(old resource id → new property id)` remappings produced
    /// by property promotions since the last call. Loaders must apply these
    /// to any triples they encoded *before* the promotion happened.
    pub fn take_promotions(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.pending_promotions)
    }

    /// `true` when promotions are pending (useful to skip the patch pass).
    pub fn has_pending_promotions(&self) -> bool {
        !self.pending_promotions.is_empty()
    }

    /// Iterates over all registered property identifiers in dense order
    /// (registration order).
    pub fn property_ids(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.properties.len()).map(nth_property_id)
    }

    /// Iterates over `(identifier, term)` for every registered term:
    /// properties then resources, each in dense order. Materializes every
    /// term; [`Dictionary::texts`] is the borrowed equivalent.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Term)> + '_ {
        let ids = self
            .property_ids()
            .chain((0..self.resources.len()).map(nth_resource_id));
        ids.zip(self.texts()).filter_map(|(id, text)| {
            TermRef::from_ntriples(text).map(|term| (id, term.into_term()))
        })
    }

    /// The canonical text behind every identifier, in the order of
    /// [`Dictionary::iter`].
    pub fn texts(&self) -> impl Iterator<Item = &str> + '_ {
        self.properties
            .iter()
            .chain(&self.resources)
            .map(|&entry| self.terms.text(entry))
    }

    // --- internal helpers -------------------------------------------------

    /// Interns the key `write` renders (into the arena's tail) and registers
    /// it under `demand`.
    fn encode_with(
        &mut self,
        demand: Demand,
        write: impl FnOnce(&mut String),
    ) -> Result<u64, EncodeError> {
        let interned = self.terms.intern_with(write);
        self.register(interned, demand)
    }

    /// Interns `key` verbatim and registers it under `demand`, unless it does
    /// not read back as a term.
    fn encode_text(&mut self, key: &str, demand: Demand) -> Result<u64, EncodeError> {
        if TermRef::from_ntriples(key).is_none() {
            return Err(EncodeError::MalformedText(key.to_string()));
        }
        let interned = self.terms.intern(key);
        self.register(interned, demand)
    }

    /// Gives a just-interned arena entry its identifier: a fresh one in the
    /// demanded half for a new term, the existing one for a known term —
    /// after promoting it when a resource is now demanded as a property.
    fn register(
        &mut self,
        interned: Option<(u32, bool)>,
        demand: Demand,
    ) -> Result<u64, EncodeError> {
        let (entry, fresh) = interned.ok_or(EncodeError::TermSpaceExhausted)?;
        if fresh {
            let id = match demand {
                Demand::Property => {
                    self.properties.push(entry);
                    nth_property_id(self.properties.len() - 1)
                }
                Demand::Resource => {
                    self.resources.push(entry);
                    nth_resource_id(self.resources.len() - 1)
                }
            };
            self.ids.push(id);
            return Ok(id);
        }
        let id = self.ids[entry as usize];
        if demand == Demand::Resource || is_property_id(id) {
            return Ok(id);
        }
        // Promotion: the term was first met in a resource position. Its
        // property slot shares the text its stale resource slot owns.
        let promoted = nth_property_id(self.properties.len());
        self.properties.push(entry);
        self.ids[entry as usize] = promoted;
        self.pending_promotions.push((id, promoted));
        Ok(promoted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellknown;
    use inferray_model::ids::{is_resource_id, PROPERTY_BASE};

    #[test]
    fn vocabulary_is_preregistered_in_order() {
        let dict = Dictionary::new();
        assert_eq!(dict.id_of_iri(vocab::RDF_TYPE), Some(PROPERTY_BASE));
        assert_eq!(
            dict.id_of_iri(vocab::RDFS_SUB_CLASS_OF),
            Some(PROPERTY_BASE - 1)
        );
        assert_eq!(
            dict.num_properties(),
            vocab::SCHEMA_PROPERTIES.len(),
            "only the vocabulary properties are registered initially"
        );
        assert_eq!(dict.num_resources(), vocab::SCHEMA_RESOURCES.len());
    }

    #[test]
    fn wellknown_constants_match_registration() {
        let dict = Dictionary::new();
        assert_eq!(dict.id_of_iri(vocab::RDF_TYPE), Some(wellknown::RDF_TYPE));
        assert_eq!(
            dict.id_of_iri(vocab::OWL_SAME_AS),
            Some(wellknown::OWL_SAME_AS)
        );
        assert_eq!(
            dict.id_of_iri(vocab::OWL_TRANSITIVE_PROPERTY),
            Some(wellknown::OWL_TRANSITIVE_PROPERTY)
        );
        assert_eq!(
            dict.id_of_iri(vocab::RDFS_RESOURCE),
            Some(wellknown::RDFS_RESOURCE)
        );
    }

    #[test]
    fn resources_are_densely_numbered() {
        let mut dict = Dictionary::new();
        let base = dict.num_resources();
        let a = dict.encode_as_resource(&Term::iri("http://ex/a"));
        let b = dict.encode_as_resource(&Term::iri("http://ex/b"));
        let a2 = dict.encode_as_resource(&Term::iri("http://ex/a"));
        assert_eq!(a, nth_resource_id(base));
        assert_eq!(b, nth_resource_id(base + 1));
        assert_eq!(a, a2, "re-encoding returns the same id");
        assert!(is_resource_id(a));
    }

    #[test]
    fn properties_are_densely_numbered_downwards() {
        let mut dict = Dictionary::new();
        let base = dict.num_properties();
        let p = dict
            .encode_as_property(&Term::iri("http://ex/knows"))
            .unwrap();
        let q = dict
            .encode_as_property(&Term::iri("http://ex/likes"))
            .unwrap();
        assert_eq!(p, nth_property_id(base));
        assert_eq!(q, nth_property_id(base + 1));
        assert!(q < p, "property ids decrease with registration order");
    }

    #[test]
    fn encode_triple_round_trips() {
        let mut dict = Dictionary::new();
        let t = Triple::iris("http://ex/Bart", vocab::RDF_TYPE, "http://ex/human");
        let enc = dict.encode_triple(&t).unwrap();
        assert_eq!(enc.p, wellknown::RDF_TYPE);
        assert_eq!(dict.decode_triple(enc).unwrap(), t);
    }

    #[test]
    fn literal_objects_are_encoded_as_resources() {
        let mut dict = Dictionary::new();
        let t = Triple::new(
            Term::iri("http://ex/a"),
            Term::iri("http://ex/label"),
            Term::plain_literal("hello"),
        );
        let enc = dict.encode_triple(&t).unwrap();
        assert!(is_resource_id(enc.o));
        assert_eq!(dict.decode(enc.o).unwrap(), Term::plain_literal("hello"));
        assert_eq!(dict.text(enc.o), Some("\"hello\""));
        assert_eq!(dict.kind(enc.o), Some(TermKind::Literal));
        assert_eq!(dict.kind(enc.p), Some(TermKind::Iri));
    }

    #[test]
    fn invalid_triples_are_rejected() {
        let mut dict = Dictionary::new();
        let bad_pred = Triple::new(
            Term::iri("http://ex/a"),
            Term::blank("p"),
            Term::iri("http://ex/b"),
        );
        assert!(matches!(
            dict.encode_triple(&bad_pred),
            Err(EncodeError::InvalidPredicate(_))
        ));
        let bad_subj = Triple::new(
            Term::plain_literal("x"),
            Term::iri("http://ex/p"),
            Term::iri("http://ex/b"),
        );
        assert!(matches!(
            dict.encode_triple(&bad_subj),
            Err(EncodeError::LiteralSubject(_))
        ));
    }

    #[test]
    fn promotion_remaps_resource_to_property() {
        let mut dict = Dictionary::new();
        // `hasPart` first appears as the subject of a schema triple...
        let as_resource = dict.encode_as_resource(&Term::iri("http://ex/hasPart"));
        assert!(is_resource_id(as_resource));
        // ...and later as a predicate.
        let as_property = dict
            .encode_as_property(&Term::iri("http://ex/hasPart"))
            .unwrap();
        assert!(is_property_id(as_property));
        let promotions = dict.take_promotions();
        assert_eq!(promotions, vec![(as_resource, as_property)]);
        assert!(!dict.has_pending_promotions());
        // Subsequent lookups, in any position, return the property id.
        assert_eq!(
            dict.encode_as_resource(&Term::iri("http://ex/hasPart")),
            as_property
        );
        assert_eq!(dict.id_of_iri("http://ex/hasPart"), Some(as_property));
        // Both ids still decode to the term (the stale resource slot remains
        // addressable so previously-encoded data can be decoded if needed).
        assert_eq!(
            dict.decode(as_property).unwrap(),
            Term::iri("http://ex/hasPart")
        );
        assert_eq!(dict.text(as_resource), dict.text(as_property));
    }

    /// Rebuilds `dict` the way the persistence layer does: from the texts
    /// of its two dense tables.
    fn rebuild(dict: &Dictionary) -> Result<Dictionary, DenseTableError> {
        let mut texts = dict.texts();
        Dictionary::from_dense_texts(dict.num_properties(), dict.num_resources(), |out| {
            out.push_str(texts.next().expect("one text per slot"));
            Ok(())
        })
    }

    #[test]
    fn from_dense_texts_round_trips_a_dictionary_with_promotions() {
        let mut dict = Dictionary::new();
        dict.encode_as_resource(&Term::iri("http://ex/a"));
        dict.encode_as_resource(&Term::iri("http://ex/hasPart"));
        dict.encode_as_property(&Term::iri("http://ex/hasPart"))
            .unwrap();
        dict.encode_as_resource(&Term::plain_literal("42"));
        let _ = dict.take_promotions();

        let rebuilt = rebuild(&dict).unwrap();
        assert_eq!(rebuilt, dict, "dense-table rebuild is exact");
        // The promoted term resolves to its property id, not the stale
        // resource slot...
        let id = rebuilt.id_of_iri("http://ex/hasPart").unwrap();
        assert!(is_property_id(id));
        // ...while both slots still decode, and new terms keep numbering
        // where the original would.
        assert_eq!(rebuilt.decode(id).unwrap(), Term::iri("http://ex/hasPart"));
        let mut rebuilt = rebuilt;
        assert_eq!(
            rebuilt.encode_as_resource(&Term::iri("http://ex/new")),
            dict.encode_as_resource(&Term::iri("http://ex/new"))
        );
    }

    #[test]
    fn from_dense_texts_rejects_a_term_registered_twice() {
        let texts = ["<http://ex/p>", "<http://ex/p>"];
        let tables = |np, nr| {
            let mut next = texts.iter();
            Dictionary::from_dense_texts::<DenseTableError>(np, nr, |out| {
                out.push_str(next.next().unwrap());
                Ok(())
            })
        };
        assert_eq!(tables(2, 0), Err(DenseTableError::DuplicateTerm));
        assert_eq!(tables(0, 2), Err(DenseTableError::DuplicateTerm));
        // A property and its stale resource slot are the one legal repeat.
        assert!(tables(1, 1).is_ok());
    }

    #[test]
    fn text_entry_points_agree_with_the_term_entry_points() {
        let mut by_term = Dictionary::new();
        let mut by_text = Dictionary::new();
        let terms = [
            Term::iri("http://ex/later-a-property"),
            Term::plain_literal("tab\there"),
            Term::lang_literal("chat", "fr"),
        ];
        for term in &terms {
            assert_eq!(
                by_text.encode_as_resource_text(&term.to_ntriples()),
                Ok(by_term.encode_as_resource(term))
            );
        }
        assert_eq!(
            by_text.encode_as_property_text(&terms[0].to_ntriples()),
            by_term.encode_as_property(&terms[0])
        );
        assert_eq!(by_text, by_term);
        assert_eq!(by_text.take_promotions(), by_term.take_promotions());
        assert!(matches!(
            by_text.encode_as_property_text("_:b0"),
            Err(EncodeError::InvalidPredicate(_))
        ));
        // Text that is no term is refused before it reaches the arena, in
        // release builds too: everything the arena holds decodes.
        let before = by_text.clone();
        for bad in ["", "x", "<open", "\"open", "\"x\"junk"] {
            assert_eq!(
                by_text.encode_as_resource_text(bad),
                Err(EncodeError::MalformedText(bad.to_string()))
            );
        }
        assert_eq!(
            by_text.encode_as_property_text("<open"),
            Err(EncodeError::MalformedText("<open".to_string()))
        );
        assert_eq!(by_text, before);
    }

    #[test]
    fn an_explicit_xsd_string_datatype_is_the_plain_literal() {
        // RDF 1.1: a simple literal *is* the xsd:string literal. Both
        // spellings are one key, hence one id, and the arena keeps the
        // canonical (plain) text, so that is what comes back — whichever
        // spelling was met first.
        let explicit = Term::typed_literal("x", inferray_model::term::XSD_STRING);
        let plain = Term::plain_literal("x");
        let mut dict = Dictionary::new();
        let id = dict.encode_as_resource(&explicit);
        assert_eq!(dict.encode_as_resource(&plain), id);
        assert_eq!(dict.id_of(&explicit), Some(id));
        assert_eq!(dict.text(id), Some("\"x\""));
        assert_eq!(dict.decode(id), Some(plain.clone()));
        // The same holds for a datatype beside a language tag.
        let both = Term::Literal {
            lexical: "chat".into(),
            datatype: Some(inferray_model::term::RDF_LANG_STRING.into()),
            language: Some("fr".into()),
        };
        let id = dict.encode_as_resource(&both);
        assert_eq!(dict.decode(id), Some(Term::lang_literal("chat", "fr")));
    }

    #[test]
    fn equality_ignores_the_arena_layout_but_not_the_tables() {
        // Same tables, reached in a different interning order.
        let mut a = Dictionary::new();
        a.encode_as_resource(&Term::iri("http://ex/x"));
        a.encode_as_property(&Term::iri("http://ex/x")).unwrap();
        let b = rebuild(&a).unwrap();
        assert_ne!(a, b, "pending promotions are part of the state");
        let _ = a.take_promotions();
        assert_eq!(a, b);
        let mut c = a.clone();
        assert_eq!(a, c);
        c.encode_as_resource(&Term::iri("http://ex/y"));
        assert_ne!(a, c);
    }

    #[test]
    fn iter_enumerates_every_registered_term() {
        let mut dict = Dictionary::new();
        dict.encode_as_resource(&Term::iri("http://ex/a"));
        let n = dict.len();
        assert_eq!(dict.iter().count(), n);
        // Every enumerated id decodes back to the paired term.
        for (id, term) in dict.iter() {
            assert_eq!(dict.decode(id).unwrap(), term);
            assert_eq!(dict.text(id).unwrap(), term.to_string());
        }
    }

    #[test]
    fn distinct_literals_get_distinct_ids() {
        let mut dict = Dictionary::new();
        let a = dict.encode_as_resource(&Term::plain_literal("42"));
        let b = dict.encode_as_resource(&Term::typed_literal(
            "42",
            "http://www.w3.org/2001/XMLSchema#integer",
        ));
        let c = dict.encode_as_resource(&Term::lang_literal("42", "en"));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }
}
