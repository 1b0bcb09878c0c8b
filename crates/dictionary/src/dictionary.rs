//! The [`Dictionary`] type: term ↔ identifier interning with dense numbering.

use crate::arena::{RawArenaError, TextArena};
use inferray_model::ids::{
    checked_nth_property_id, checked_nth_resource_id, is_property_id, nth_property_id,
    nth_resource_id, property_index, MAX_PER_HALF, RESOURCE_BASE,
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
    /// The half of the identifier space a new term or a promotion asks for
    /// already numbers its 2³¹ − 1 terms ([`MAX_PER_HALF`]; never happens on
    /// real data). The text arena's index numbers both halves together.
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
                write!(f, "more than 2^31 - 1 properties or resources")
            }
            EncodeError::MalformedText(t) => write!(f, "not the text of a term: {t}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Why a dictionary's parts are no dictionary (see
/// [`Dictionary::append_raw_parts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseTableError {
    /// The same term occupies two slots of one table, or two resource slots,
    /// or two entries of the arena.
    DuplicateTerm,
    /// More terms than a half of the identifier space, or the arena's
    /// index, can number.
    TooManyTerms,
    /// The arena's end offsets do not mark its text out into terms.
    BadText,
    /// A table names an arena entry that is not there, or an entry is in no
    /// table.
    BadEntry,
}

impl fmt::Display for DenseTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenseTableError::DuplicateTerm => write!(f, "a term is registered twice"),
            DenseTableError::TooManyTerms => write!(f, "too many terms"),
            DenseTableError::BadText => write!(f, "the arena's text is not term texts"),
            DenseTableError::BadEntry => write!(f, "a table and the arena disagree"),
        }
    }
}

impl std::error::Error for DenseTableError {}

/// The identifier of the term at dense `index` of the half `demand` names:
/// the dictionary's checked id arithmetic. Past the [`MAX_PER_HALF`] terms
/// a half numbers, [`EncodeError::TermSpaceExhausted`].
pub fn dense_id(demand: Demand, index: usize) -> Result<u64, EncodeError> {
    match demand {
        Demand::Property => checked_nth_property_id(index),
        Demand::Resource => checked_nth_resource_id(index),
    }
    .ok_or(EncodeError::TermSpaceExhausted)
}

/// How far a dictionary reaches in memory: its arena's text bytes and
/// entries, and the lengths of its two dense tables. A dictionary only ever
/// appends, so one taken earlier marks a prefix of each
/// ([`Dictionary::raw_parts_since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RawLen {
    /// Bytes of arena text.
    pub text: usize,
    /// Arena entries.
    pub entries: usize,
    /// Property slots.
    pub properties: usize,
    /// Resource slots.
    pub resources: usize,
}

/// A dictionary as it sits in memory, or what it appended past a
/// [`RawLen`]: its arena's text and end offsets
/// ([`TextArena::raw_parts`]) and its two dense tables of arena entries.
/// The lookup index and the entry → identifier map are not part of it:
/// both follow from these.
#[derive(Debug, Clone, Copy)]
pub struct RawParts<'a> {
    /// Arena text.
    pub text: &'a str,
    /// Each entry's end offset in the whole arena.
    pub ends: &'a [usize],
    /// Dense property index → arena entry.
    pub properties: &'a [u32],
    /// Dense resource index → arena entry.
    pub resources: &'a [u32],
}

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
/// to be laid out: the same tables can be reached through different
/// interning orders, each leaving its own arena. The lookup side needs no
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
        let mut dict = Dictionary::empty();
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

    /// A dictionary without even the vocabulary.
    fn empty() -> Self {
        Dictionary {
            terms: TextArena::new(),
            ids: Vec::new(),
            properties: Vec::new(),
            resources: Vec::new(),
            pending_promotions: Vec::new(),
        }
    }

    /// How far the dictionary reaches in memory (see [`RawLen`]).
    pub fn raw_len(&self) -> RawLen {
        let (text, ends) = self.terms.raw_parts();
        RawLen {
            text: text.len(),
            entries: ends.len(),
            properties: self.properties.len(),
            resources: self.resources.len(),
        }
    }

    /// What the dictionary appended since it reached `since` — all of it
    /// for `RawLen::default()` — as it sits in memory. `None` when `since`
    /// reaches past the dictionary, or cuts its text inside an entry.
    pub fn raw_parts_since(&self, since: RawLen) -> Option<RawParts<'_>> {
        let (text, ends) = self.terms.raw_parts();
        let at_entry = since
            .entries
            .checked_sub(1)
            .map_or(0, |last| ends.get(last).copied().unwrap_or(usize::MAX));
        if at_entry != since.text {
            return None;
        }
        Some(RawParts {
            text: text.get(since.text..)?,
            ends: ends.get(since.entries..)?,
            properties: self.properties.get(since.properties..)?,
            resources: self.resources.get(since.resources..)?,
        })
    }

    /// The dictionary [`raw_parts_since`](Self::raw_parts_since)`(
    /// RawLen::default())` listed: [`append_raw_parts`](Self::append_raw_parts)
    /// on a dictionary without even the vocabulary.
    pub fn from_raw_parts(
        text: String,
        ends: Vec<usize>,
        properties: Vec<u32>,
        resources: Vec<u32>,
    ) -> Result<Self, DenseTableError> {
        Dictionary::empty().append_raw_parts(text, ends, properties, resources)
    }

    /// Appends what [`raw_parts_since`](Self::raw_parts_since) listed past
    /// this dictionary's [`raw_len`](Self::raw_len): the arena text and end
    /// offsets of the new entries and the entries of the new property and
    /// resource slots — the recovery path of a snapshot image. The text is
    /// copied as it is and the lookup index rebuilt by re-seating each new
    /// entry ([`TextArena::append_raw`]); nothing is rendered or parsed
    /// twice. Checked on the way: the offsets mark the text out into texts that read
    /// back as terms, no text is there twice, every slot names an entry the
    /// arena holds, every new entry has a slot, a half numbers at most
    /// [`MAX_PER_HALF`] terms, and an entry in both tables is a property
    /// and its promotion's one stale resource slot (a property slot may
    /// promote an entry that was a resource before; a resource slot names
    /// an appended entry). No promotion is left pending.
    pub fn append_raw_parts(
        mut self,
        text: String,
        ends: Vec<usize>,
        properties: Vec<u32>,
        resources: Vec<u32>,
    ) -> Result<Self, DenseTableError> {
        if self.properties.len().saturating_add(properties.len()) > MAX_PER_HALF
            || self.resources.len().saturating_add(resources.len()) > MAX_PER_HALF
        {
            return Err(DenseTableError::TooManyTerms);
        }
        let before = self.terms.len();
        self.terms
            .append_raw(text, ends)
            .map_err(|error| match error {
                RawArenaError::BadOffsets => DenseTableError::BadText,
                RawArenaError::DuplicateEntry => DenseTableError::DuplicateTerm,
                RawArenaError::TooManyEntries => DenseTableError::TooManyTerms,
            })?;
        let entries = self.terms.len();
        if (before..entries)
            .any(|entry| TermRef::from_ntriples(self.terms.text(entry as u32)).is_none())
        {
            return Err(DenseTableError::BadText);
        }
        // 0 is no identifier: a new entry no slot has named yet.
        self.ids.resize(entries, 0);
        self.properties.reserve(properties.len());
        for entry in properties {
            let id = self
                .ids
                .get_mut(entry as usize)
                .ok_or(DenseTableError::BadEntry)?;
            if is_property_id(*id) {
                return Err(DenseTableError::DuplicateTerm);
            }
            *id = nth_property_id(self.properties.len());
            self.properties.push(entry);
        }
        // A resource slot is only ever made with its entry, so every slot
        // listed here names an appended entry: one the dictionary held
        // already has its slots there. A promotion's stale slot is an
        // appended entry's second slot, after its property slot, and there
        // is at most one of it per entry; the rare stale entries are
        // gathered to see that none comes twice.
        let mut stale = Vec::new();
        self.resources.reserve(resources.len());
        for entry in resources {
            if (entry as usize) < before {
                return Err(DenseTableError::DuplicateTerm);
            }
            let id = self
                .ids
                .get_mut(entry as usize)
                .ok_or(DenseTableError::BadEntry)?;
            match *id {
                0 => *id = nth_resource_id(self.resources.len()),
                id if is_property_id(id) => stale.push(entry),
                _ => return Err(DenseTableError::DuplicateTerm),
            }
            self.resources.push(entry);
        }
        stale.sort_unstable();
        if stale.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(DenseTableError::DuplicateTerm);
        }
        if self.ids[before..].contains(&0) {
            return Err(DenseTableError::BadEntry);
        }
        Ok(self)
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

    /// The triple [`encode_term_refs`](Self::encode_term_refs) would return
    /// **if it changed nothing**: `Some` exactly when all three terms are
    /// known and every position [`position_demands`] asks to be a property
    /// (the predicate's among them) already holds a property identifier.
    /// `None` when encoding would intern a term, promote a resource or fail.
    /// A writer that shares its dictionary calls this first and copies the
    /// dictionary only on `None`.
    pub fn lookup_term_refs(
        &self,
        subject: &TermRef<'_>,
        predicate: &TermRef<'_>,
        object: &TermRef<'_>,
    ) -> Option<IdTriple> {
        if subject.is_literal() {
            return None;
        }
        let predicate_iri = predicate.as_iri()?;
        let (subject_demand, object_demand) =
            position_demands(subject.is_iri(), predicate_iri, object.as_iri());
        let known = |term: &TermRef<'_>, demand| {
            self.id_of_ref(term)
                .filter(|&id| demand == Demand::Resource || is_property_id(id))
        };
        Some(IdTriple::new(
            known(subject, subject_demand)?,
            known(predicate, Demand::Property)?,
            known(object, object_demand)?,
        ))
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
        self.encode_within(demand, write, dense_id)
    }

    /// [`encode_with`](Self::encode_with) under the id arithmetic `ids`:
    /// [`dense_id`], or in the tests one that holds a half to a few terms.
    fn encode_within(
        &mut self,
        demand: Demand,
        write: impl FnOnce(&mut String),
        ids: impl Fn(Demand, usize) -> Result<u64, EncodeError>,
    ) -> Result<u64, EncodeError> {
        let interned = self.terms.intern_with(write);
        self.register(interned, demand, ids)
    }

    /// Interns `key` verbatim and registers it under `demand`, unless it does
    /// not read back as a term.
    fn encode_text(&mut self, key: &str, demand: Demand) -> Result<u64, EncodeError> {
        if TermRef::from_ntriples(key).is_none() {
            return Err(EncodeError::MalformedText(key.to_string()));
        }
        let interned = self.terms.intern(key);
        self.register(interned, demand, dense_id)
    }

    /// Gives a just-interned arena entry its identifier, numbered by `ids`:
    /// a fresh one in the demanded half for a new term, the existing one for
    /// a known term — after promoting it when a resource is now demanded as
    /// a property. A half that numbers no more refuses a new term, which
    /// leaves the arena again, and a promotion.
    fn register(
        &mut self,
        interned: Option<(u32, bool)>,
        demand: Demand,
        ids: impl Fn(Demand, usize) -> Result<u64, EncodeError>,
    ) -> Result<u64, EncodeError> {
        let (entry, fresh) = interned.ok_or(EncodeError::TermSpaceExhausted)?;
        if fresh {
            let table = match demand {
                Demand::Property => &mut self.properties,
                Demand::Resource => &mut self.resources,
            };
            let id = match ids(demand, table.len()) {
                Ok(id) => id,
                Err(full) => {
                    self.terms.pop_newest();
                    return Err(full);
                }
            };
            table.push(entry);
            self.ids.push(id);
            return Ok(id);
        }
        let id = self.ids[entry as usize];
        if demand == Demand::Resource || is_property_id(id) {
            return Ok(id);
        }
        // Promotion: the term was first met in a resource position. Its
        // property slot shares the text its stale resource slot owns.
        let promoted = ids(Demand::Property, self.properties.len())?;
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

    /// Rebuilds `dict` the way the persistence layer does: from its parts
    /// as they sit in memory.
    fn rebuild(dict: &Dictionary) -> Result<Dictionary, DenseTableError> {
        let parts = dict.raw_parts_since(RawLen::default()).unwrap();
        Dictionary::from_raw_parts(
            parts.text.to_string(),
            parts.ends.to_vec(),
            parts.properties.to_vec(),
            parts.resources.to_vec(),
        )
    }

    #[test]
    fn raw_parts_round_trip_a_promotion_and_its_stale_resource_slot() {
        let mut dict = Dictionary::new();
        dict.encode_as_resource(&Term::iri("http://ex/a"));
        let stale = dict.encode_as_resource(&Term::iri("http://ex/hasPart"));
        dict.encode_as_property(&Term::iri("http://ex/hasPart"))
            .unwrap();
        dict.encode_as_resource(&Term::plain_literal("42"));
        let _ = dict.take_promotions();

        let rebuilt = rebuild(&dict).unwrap();
        assert_eq!(rebuilt, dict, "the rebuild is exact");
        // The promoted term resolves to its property id, not the stale
        // resource slot...
        let id = rebuilt.id_of_iri("http://ex/hasPart").unwrap();
        assert!(is_property_id(id));
        // ...while both slots still decode, and new terms keep numbering
        // where the original would.
        assert_eq!(rebuilt.decode(id).unwrap(), Term::iri("http://ex/hasPart"));
        assert_eq!(
            rebuilt.decode(stale).unwrap(),
            Term::iri("http://ex/hasPart")
        );
        let mut rebuilt = rebuilt;
        assert_eq!(
            rebuilt.encode_as_resource(&Term::iri("http://ex/new")),
            dict.encode_as_resource(&Term::iri("http://ex/new"))
        );
    }

    #[test]
    fn a_half_numbers_two_to_the_31_minus_one_terms_and_refuses_the_next() {
        use inferray_model::ids::IMAGE_WORD_BASE;
        let last = MAX_PER_HALF - 1;
        assert_eq!(MAX_PER_HALF, (1 << 31) - 1);
        for demand in [Demand::Property, Demand::Resource] {
            let id = dense_id(demand, last).unwrap();
            assert!(u32::try_from(id - IMAGE_WORD_BASE).is_ok(), "{demand:?}");
            assert_eq!(
                dense_id(demand, MAX_PER_HALF),
                Err(EncodeError::TermSpaceExhausted)
            );
        }
        assert_eq!(dense_id(Demand::Property, 0), Ok(PROPERTY_BASE));
        assert_eq!(dense_id(Demand::Resource, 0), Ok(RESOURCE_BASE));
        // The rebuilding entry points refuse a half past that before they
        // reserve or read anything for it. The slots are 8 GiB of zeroed
        // pages the allocator maps without touching them (the OS must grant
        // that much address space on demand, as Linux does by default), and
        // slot 0 names no entry of an empty arena and a property of the
        // vocabulary: a check moved behind the slot loop would answer
        // `BadEntry` or `DuplicateTerm` at the first slot, not read the rest.
        let too_many = || vec![0u32; MAX_PER_HALF + 1];
        let vocabulary = Dictionary::new().raw_len();
        let past_the_vocabulary = || vec![0u32; MAX_PER_HALF + 1 - vocabulary.properties];
        let refused = [
            Dictionary::from_raw_parts(String::new(), Vec::new(), too_many(), Vec::new()),
            Dictionary::from_raw_parts(String::new(), Vec::new(), Vec::new(), too_many()),
            Dictionary::new().append_raw_parts(
                String::new(),
                Vec::new(),
                past_the_vocabulary(),
                Vec::new(),
            ),
        ];
        for outcome in refused {
            assert_eq!(outcome, Err(DenseTableError::TooManyTerms));
        }
    }

    #[test]
    fn a_full_half_refuses_a_new_term_and_a_promotion_and_changes_nothing() {
        let mut dict = Dictionary::new();
        dict.encode_as_resource(&Term::iri("http://ex/r"));
        let (np, nr) = (dict.num_properties(), dict.num_resources());
        // The id arithmetic of halves that hold one more term each.
        let held = move |demand, index| {
            let limit = match demand {
                Demand::Property => np + 1,
                Demand::Resource => nr + 1,
            };
            match index < limit {
                true => dense_id(demand, index),
                false => Err(EncodeError::TermSpaceExhausted),
            }
        };
        let iri = |iri: &'static str| move |out: &mut String| Term::iri(iri).write_ntriples(out);
        let encode = |dict: &mut Dictionary, demand, term| dict.encode_within(demand, term, held);
        assert_eq!(
            encode(&mut dict, Demand::Property, iri("http://ex/p")),
            Ok(nth_property_id(np))
        );
        assert_eq!(
            encode(&mut dict, Demand::Resource, iri("http://ex/s")),
            Ok(nth_resource_id(nr))
        );
        let full = dict.clone();
        for (demand, term) in [
            (Demand::Property, "http://ex/q"),
            (Demand::Resource, "http://ex/t"),
            // A promotion needs a property slot too.
            (Demand::Property, "http://ex/r"),
        ] {
            assert_eq!(
                encode(&mut dict, demand, iri(term)),
                Err(EncodeError::TermSpaceExhausted),
                "{term}"
            );
            assert_eq!(dict, full, "{term}");
            assert_eq!(dict.raw_len(), full.raw_len(), "{term}");
        }
        // Known terms still resolve, and a refused text was not kept.
        assert_eq!(
            encode(&mut dict, Demand::Property, iri("http://ex/p")),
            Ok(nth_property_id(np))
        );
        assert_eq!(dict.id_of_iri("http://ex/q"), None);
        assert_eq!(dict.id_of_iri("http://ex/r"), full.id_of_iri("http://ex/r"));
    }

    #[test]
    fn raw_parts_rebuild_the_dictionary_they_were_read_from() {
        let mut dict = Dictionary::new();
        dict.encode_as_resource(&Term::iri("http://ex/a"));
        dict.encode_as_resource(&Term::iri("http://ex/hasPart"));
        dict.encode_as_property(&Term::iri("http://ex/hasPart"))
            .unwrap();
        let _ = dict.take_promotions();
        let half = dict.raw_len();
        let mut grown = dict.clone();
        grown.encode_as_resource(&Term::lang_literal("chat", "fr"));
        grown.encode_as_resource(&Term::iri("http://ex/b"));
        grown.encode_as_property(&Term::iri("http://ex/b")).unwrap();
        grown.encode_as_property(&Term::iri("http://ex/a")).unwrap();
        grown.encode_as_property(&Term::iri("http://ex/p")).unwrap();
        let _ = grown.take_promotions();
        let rebuild = |parts: RawParts<'_>, on: Dictionary| {
            on.append_raw_parts(
                parts.text.to_string(),
                parts.ends.to_vec(),
                parts.properties.to_vec(),
                parts.resources.to_vec(),
            )
        };
        let all = grown.raw_parts_since(RawLen::default()).unwrap();
        let whole = rebuild(all, Dictionary::empty()).unwrap();
        assert_eq!(whole, grown);
        assert_eq!(whole.raw_len(), grown.raw_len());
        let first = rebuild(
            dict.raw_parts_since(RawLen::default()).unwrap(),
            Dictionary::empty(),
        );
        let since = grown.raw_parts_since(half).unwrap();
        let appended = rebuild(since, first.clone().unwrap()).unwrap();
        assert_eq!(appended, grown);
        // A delta that lists a promotion's stale slot again is refused:
        // `hasPart`, promoted in the base, and `b`, promoted in the delta.
        let entry = |key: &str| grown.terms.get(key).unwrap();
        for again in [entry("<http://ex/hasPart>"), entry("<http://ex/b>")] {
            let resources = [since.resources, &[again]].concat();
            let delta = RawParts {
                resources: &resources,
                ..since
            };
            assert_eq!(
                rebuild(delta, first.clone().unwrap()),
                Err(DenseTableError::DuplicateTerm)
            );
        }
        for iri in [
            "http://ex/a",
            "http://ex/b",
            "http://ex/hasPart",
            "http://ex/p",
        ] {
            assert_eq!(appended.id_of_iri(iri), grown.id_of_iri(iri), "{iri}");
        }
        // A property, or a resource, appended again to a dictionary that
        // holds it is refused.
        for (properties, resources) in [
            (vec![entry("<http://ex/p>")], vec![]),
            (vec![], vec![entry("\"chat\"@fr")]),
        ] {
            let again = rebuild(all, Dictionary::empty()).unwrap();
            assert_eq!(
                again.append_raw_parts(String::new(), Vec::new(), properties, resources),
                Err(DenseTableError::DuplicateTerm)
            );
        }
        // A mark past the dictionary, or inside an entry, lists nothing.
        let past = RawLen {
            entries: half.entries + 1,
            ..half
        };
        assert!(dict.raw_parts_since(past).is_none());
        let inside = RawLen {
            text: half.text - 1,
            ..half
        };
        assert!(dict.raw_parts_since(inside).is_none());
    }

    #[test]
    fn raw_parts_that_are_no_dictionary_are_refused() {
        let parts = |text: &str, ends: &[usize], properties: &[u32], resources: &[u32]| {
            Dictionary::from_raw_parts(
                text.to_string(),
                ends.to_vec(),
                properties.to_vec(),
                resources.to_vec(),
            )
        };
        assert!(parts("<p><r>", &[3, 6], &[0], &[1]).is_ok());
        // A property and its promotion's stale resource slot.
        assert!(parts("<p>", &[3], &[0], &[0]).is_ok());
        let refused = [
            (
                parts("<p><r>", &[3, 6], &[0, 0], &[1]),
                DenseTableError::DuplicateTerm,
            ),
            (
                parts("<p><r>", &[3, 6], &[0], &[1, 1]),
                DenseTableError::DuplicateTerm,
            ),
            (
                parts("<p><p>", &[3, 6], &[0], &[1]),
                DenseTableError::DuplicateTerm,
            ),
            (
                parts("<p><r>", &[3, 6], &[0], &[2]),
                DenseTableError::BadEntry,
            ),
            (
                parts("<p><r>", &[3, 6], &[0], &[]),
                DenseTableError::BadEntry,
            ),
            (
                parts("<p><r>", &[3, 5], &[0], &[1]),
                DenseTableError::BadText,
            ),
            (
                parts("<p>r>", &[3, 5], &[0], &[1]),
                DenseTableError::BadText,
            ),
            (parts("<p>", &[], &[], &[]), DenseTableError::BadText),
            // One promotion, two stale slots.
            (
                parts("<p>", &[3], &[0], &[0, 0]),
                DenseTableError::DuplicateTerm,
            ),
            (
                parts("<p><r>", &[3, 6], &[0], &[0, 1, 0]),
                DenseTableError::DuplicateTerm,
            ),
        ];
        for (outcome, error) in refused {
            assert_eq!(outcome, Err(error));
        }
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
        a.encode_as_property(&Term::iri("http://ex/p")).unwrap();
        let mut b = Dictionary::new();
        b.encode_as_property(&Term::iri("http://ex/p")).unwrap();
        b.encode_as_resource(&Term::iri("http://ex/x"));
        let text = |d: &Dictionary| {
            d.raw_parts_since(RawLen::default())
                .unwrap()
                .text
                .to_string()
        };
        assert_ne!(text(&a), text(&b));
        assert_eq!(a, b);
        // Pending promotions are part of the state; a rebuild has none.
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
