//! The SPARQL 1.1 Query Results JSON of an answer, and the `{"error":…}`
//! body of every error answer, rendered into the worker's reused response
//! buffer straight off the executor's flat batch and the dictionary's arena
//! text.

use crate::solution::SolutionSet;
use inferray_dictionary::Dictionary;
use inferray_model::{first_json_escape, json_escape_into, TermRef};

/// The `"name":` key of each projected variable of an answer, escaped once
/// per answer rather than once per cell: the keys back to back in one
/// string, and where each ends.
#[derive(Default)]
pub(super) struct CellKeys {
    text: String,
    ends: Vec<usize>,
}

/// Renders `{"head":{},"boolean":…}` for an `ASK` answer.
pub(super) fn boolean_json_into(out: &mut String, value: bool) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{{\"head\":{{}},\"boolean\":{value}}}");
}

/// Renders a solution set in the SPARQL 1.1 Query Results JSON format into
/// the reused response buffer, straight off the executor's flat batch and
/// the dictionary's arena text: each projected variable's `"name":` key is
/// escaped once into `keys`, and each cell is one [`Dictionary::text`]
/// lookup that [`cell_json_into`] renders.
pub(super) fn results_json_into(
    out: &mut String,
    keys: &mut CellKeys,
    solutions: &SolutionSet,
    dictionary: &Dictionary,
) {
    out.reserve(64 + solutions.len() * 64);
    out.push_str("{\"head\":{\"vars\":[");
    keys.text.clear();
    keys.ends.clear();
    for (i, var) in solutions.variables().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let start = keys.text.len();
        keys.text.push('"');
        json_escape_into(&mut keys.text, var);
        keys.text.push('"');
        out.push_str(&keys.text[start..]);
        keys.text.push(':');
        keys.ends.push(keys.text.len());
    }
    out.push_str("]},\"results\":{\"bindings\":[");
    for (row_index, row) in solutions.rows().enumerate() {
        if row_index > 0 {
            out.push(',');
        }
        out.push('{');
        let mut first = true;
        let mut start = 0;
        for (&end, &id) in keys.ends.iter().zip(row) {
            let key = &keys.text[start..end];
            start = end;
            let Some(text) = dictionary.text(id) else {
                continue; // unbound variables are omitted from the binding
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(key);
            cell_json_into(out, text);
        }
        out.push('}');
    }
    out.push_str("]}}\n");
}

/// The start of an IRI binding, up to its value.
const URI_CELL: &str = "{\"type\":\"uri\",\"value\":\"";

/// Renders one binding from its term's canonical N-Triples text, a slice
/// of the dictionary's arena. The common cell, an IRI with nothing to
/// escape, is the slice between its delimiters, copied whole behind one
/// block scan; it stays inline in the row loop, and every other cell goes
/// to [`other_cell_json_into`].
#[inline(always)]
fn cell_json_into(out: &mut String, text: &str) {
    if text.as_bytes().first() == Some(&b'<') {
        let iri = text.get(1..text.len() - 1).unwrap_or_default();
        if first_json_escape(iri).is_none() {
            out.push_str(URI_CELL);
            out.push_str(iri);
            out.push_str("\"}");
            return;
        }
    }
    other_cell_json_into(out, text);
}

/// Renders a blank node — the label after `_:`, escaped for JSON — or reads
/// the term back through [`TermRef`] to undo its N-Triples escapes: a
/// literal, or an IRI holding an escape (the arena spells every character
/// JSON escapes as `\u00XX` inside an IRI).
fn other_cell_json_into(out: &mut String, text: &str) {
    if let Some(label) = text.strip_prefix("_:") {
        out.push_str("{\"type\":\"bnode\",\"value\":\"");
        json_escape_into(out, label);
        out.push_str("\"}");
        return;
    }
    match TermRef::from_ntriples(text) {
        Some(TermRef::Iri(iri)) => {
            out.push_str(URI_CELL);
            json_escape_into(out, &iri);
            out.push_str("\"}");
        }
        Some(TermRef::Literal {
            lexical,
            datatype,
            language,
        }) => literal_json_into(out, &lexical, datatype.as_deref(), language.as_deref()),
        Some(TermRef::Blank(_)) | None => {}
    }
}

/// Renders a literal binding: its lexical form, then its language tag or
/// its datatype (none for a simple literal).
fn literal_json_into(
    out: &mut String,
    lexical: &str,
    datatype: Option<&str>,
    language: Option<&str>,
) {
    out.push_str("{\"type\":\"literal\",\"value\":\"");
    json_escape_into(out, lexical);
    out.push('"');
    if let Some(language) = language {
        out.push_str(",\"xml:lang\":\"");
        json_escape_into(out, language);
        out.push('"');
    } else if let Some(datatype) = datatype {
        out.push_str(",\"datatype\":\"");
        json_escape_into(out, datatype);
        out.push('"');
    }
    out.push('}');
}

/// Renders `{"error":"…"}\n` into the reused response buffer.
pub(super) fn error_json_into(out: &mut String, message: &str) {
    out.push_str("{\"error\":\"");
    json_escape_into(out, message);
    out.push_str("\"}\n");
}

#[cfg(test)]
pub(super) mod render_law;

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::Term;

    #[test]
    fn an_explicit_xsd_string_binding_has_no_datatype_member() {
        // RDF 1.1: the simple literal is the xsd:string literal, and the
        // dictionary keeps one canonical text for both spellings.
        let mut dictionary = Dictionary::new();
        let render = |dictionary: &Dictionary, id| {
            let mut out = String::new();
            cell_json_into(&mut out, dictionary.text(id).unwrap());
            out
        };
        let id = dictionary.encode_as_resource(&Term::typed_literal(
            "Bob",
            inferray_model::term::XSD_STRING,
        ));
        assert_eq!(
            render(&dictionary, id),
            "{\"type\":\"literal\",\"value\":\"Bob\"}"
        );
        let id = dictionary.encode_as_resource(&Term::typed_literal(
            "42",
            "http://www.w3.org/2001/XMLSchema#integer",
        ));
        assert_eq!(
            render(&dictionary, id),
            "{\"type\":\"literal\",\"value\":\"42\",\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}"
        );
    }
}
