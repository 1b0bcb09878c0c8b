//! N-Triples serialization.
//!
//! The writer is the inverse of [`crate::ntriples`]: every triple is emitted
//! as one canonical N-Triples statement, so `parse(write(g)) == g`. The
//! dataset generators and the tests write decoded [`Triple`]s
//! ([`write_ntriples`]); a materialized store is dumped straight from its
//! pair tables and the dictionary's text arena ([`write_store_ntriples`]),
//! which is what the CLI's batch mode calls.

use inferray_dictionary::Dictionary;
use inferray_model::Triple;
use inferray_store::{as_pairs, PropertyTable, TripleStore};
use std::io::{self, Write};

/// Bytes gathered before one `write_all`: large enough that the per-call
/// cost of the sink disappears, small enough to stay in cache.
const WRITE_BUFFER_BYTES: usize = 64 * 1024;

/// Writes triples as N-Triples statements, one per line.
pub fn write_ntriples<'a, W: Write>(
    writer: &mut W,
    triples: impl IntoIterator<Item = &'a Triple>,
) -> io::Result<usize> {
    let mut count = 0usize;
    for triple in triples {
        writeln!(writer, "{triple}")?;
        count += 1;
    }
    Ok(count)
}

/// Writes every triple of `store` as one N-Triples statement per line — in
/// the order of [`TripleStore::iter_triples`], byte for byte what
/// `writeln!("{}", dictionary.decode_triple(t))` prints — by copying three
/// slices of the dictionary's arena per line: no `Term`, no `fmt`.
///
/// With `except`, the triples that store also holds are left out: each
/// table is written as the sorted-run difference against the table of the
/// same property (the CLI's `--inferred-only`, where `except` is the store
/// as loaded). Triples the dictionary cannot decode are skipped. Returns the
/// number of statements written.
pub fn write_store_ntriples<W: Write>(
    store: &TripleStore,
    except: Option<&TripleStore>,
    dictionary: &Dictionary,
    out: &mut W,
) -> io::Result<usize> {
    let mut buffer: Vec<u8> = Vec::with_capacity(WRITE_BUFFER_BYTES + 1024);
    let mut written = 0usize;
    for (p, table) in store.iter_tables() {
        let Some(predicate) = dictionary.text(p) else {
            continue;
        };
        let mut skip = as_pairs(
            except
                .and_then(|except| except.table(p))
                .map_or(&[][..], PropertyTable::pairs),
        );
        for pair @ &[s, o] in as_pairs(table.pairs()) {
            // Both runs are sorted by ⟨s,o⟩: drop what sorts before this
            // pair, then the pair is asserted iff it heads the rest.
            while skip.first().is_some_and(|held| held < pair) {
                skip = &skip[1..];
            }
            if skip.first() == Some(pair) {
                continue;
            }
            let (Some(subject), Some(object)) = (dictionary.text(s), dictionary.text(o)) else {
                continue;
            };
            buffer.extend_from_slice(subject.as_bytes());
            buffer.push(b' ');
            buffer.extend_from_slice(predicate.as_bytes());
            buffer.push(b' ');
            buffer.extend_from_slice(object.as_bytes());
            buffer.extend_from_slice(b" .\n");
            written += 1;
            if buffer.len() >= WRITE_BUFFER_BYTES {
                out.write_all(&buffer)?;
                buffer.clear();
            }
        }
    }
    out.write_all(&buffer)?;
    out.flush()?;
    Ok(written)
}

/// Renders triples to an in-memory string (convenience for tests and
/// examples).
pub fn to_ntriples_string<'a>(triples: impl IntoIterator<Item = &'a Triple>) -> String {
    let mut out = Vec::new();
    write_ntriples(&mut out, triples).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("N-Triples output is valid UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntriples::parse_ntriples;
    use inferray_model::{vocab, Graph, Term};

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        g.insert_iris(
            "http://ex/human",
            vocab::RDFS_SUB_CLASS_OF,
            "http://ex/mammal",
        );
        g.insert(Triple::new(
            Term::iri("http://ex/Bart"),
            Term::iri("http://ex/says"),
            Term::lang_literal("Ay caramba \"dude\"", "en"),
        ));
        g.insert(Triple::new(
            Term::blank("b0"),
            Term::iri(vocab::RDF_TYPE),
            Term::iri("http://ex/human"),
        ));
        g
    }

    #[test]
    fn writer_and_parser_round_trip() {
        let g = sample_graph();
        let mut buffer = Vec::new();
        let written = write_ntriples(&mut buffer, g.iter()).unwrap();
        assert_eq!(written, 3);
        let text = String::from_utf8(buffer).unwrap();
        let reparsed: Graph = parse_ntriples(&text).unwrap().into_iter().collect();
        assert_eq!(reparsed, g);
    }

    #[test]
    fn to_string_helper_matches_writer() {
        let g = sample_graph();
        let triples: Vec<Triple> = g.iter().cloned().collect();
        let text = to_ntriples_string(&triples);
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.ends_with(" .")));
    }

    #[test]
    fn empty_graph_produces_empty_output() {
        let g = Graph::new();
        let mut buffer = Vec::new();
        assert_eq!(write_ntriples(&mut buffer, g.iter()).unwrap(), 0);
        assert!(buffer.is_empty());
    }
}
