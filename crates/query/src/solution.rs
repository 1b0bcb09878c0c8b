//! Query solutions: variable bindings over encoded identifiers.
//!
//! The executor works entirely in the encoded (u64) domain — the same flat
//! identifiers the property tables store — and only decodes terms when the
//! caller asks for them. A solution set is one flat `Vec<u64>` holding
//! `stride` identifiers per row, exactly the shape the executor's kernels
//! write, so nothing is copied or re-boxed between the last join and the
//! renderer.

use inferray_dictionary::Dictionary;
use inferray_model::Term;
use std::fmt;

/// The identifier standing for "no binding" in a flat row. The dense
/// numbering grows resources upwards from `2³² + 1` one term at a time, so no
/// dictionary can ever assign it — `Dictionary::text`, `term_ref` and
/// `decode` answer `None` for it like for any other unknown identifier.
pub const UNBOUND: u64 = u64::MAX;

/// One row of a solution in boxed form: the encoded binding of each
/// projected variable (`None` when the variable is unbound in this
/// solution). Used where rows are built or compared by hand; the solution
/// set itself stores flat rows (see [`SolutionSet::rows`]).
pub type EncodedRow = Vec<Option<u64>>;

/// Rows of `stride` identifiers each, back to back in one vector. The
/// executor ping-pongs two of these; a [`SolutionSet`] owns the last one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Batch {
    pub(crate) data: Vec<u64>,
    pub(crate) stride: usize,
    /// Row count, kept explicitly: with `stride == 0` (an `ASK`, or a
    /// pattern whose variables nobody reads) the data vector stays empty.
    pub(crate) rows: usize,
}

impl Batch {
    /// Empties the batch and sets the row width, keeping the allocation.
    pub(crate) fn reset(&mut self, stride: usize) {
        self.data.clear();
        self.stride = stride;
        self.rows = 0;
    }

    pub(crate) fn row(&self, index: usize) -> &[u64] {
        &self.data[index * self.stride..(index + 1) * self.stride]
    }

    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = &[u64]> + Clone + '_ {
        (0..self.rows).map(|index| self.row(index))
    }

    /// Applies `OFFSET`/`LIMIT` in that order (the SPARQL slice semantics).
    pub(crate) fn slice(&mut self, offset: usize, limit: Option<usize>) {
        let offset = offset.min(self.rows);
        self.data.drain(..offset * self.stride);
        self.rows = (self.rows - offset).min(limit.unwrap_or(usize::MAX));
        self.data.truncate(self.rows * self.stride);
    }
}

/// The result of a `SELECT` query: a header of variable names plus the
/// matching rows, in the order the executor produced them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolutionSet {
    variables: Vec<String>,
    pub(crate) batch: Batch,
}

impl SolutionSet {
    /// Creates a solution set with the given header and no rows.
    pub fn empty(variables: Vec<String>) -> Self {
        let mut solutions = SolutionSet::default();
        solutions.reset(variables);
        solutions
    }

    /// Creates a solution set from a header and boxed rows. Every row must
    /// have exactly one entry per variable.
    pub fn new(variables: Vec<String>, rows: Vec<EncodedRow>) -> Self {
        let mut solutions = SolutionSet::empty(variables);
        for row in &rows {
            assert_eq!(row.len(), solutions.variables.len(), "row width");
            solutions
                .batch
                .data
                .extend(row.iter().map(|id| id.unwrap_or(UNBOUND)));
        }
        solutions.batch.rows = rows.len();
        solutions
    }

    /// Empties the set and installs a new header, keeping the row buffer's
    /// allocation (the serving workers answer every request into one set).
    pub(crate) fn reset(&mut self, variables: Vec<String>) {
        self.batch.reset(variables.len());
        self.variables = variables;
    }

    /// The projected variable names, in projection order.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// The rows as slices of the flat buffer: one identifier per projected
    /// variable, [`UNBOUND`] where the variable has no binding.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u64]> + Clone + '_ {
        self.batch.rows()
    }

    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.batch.rows
    }

    /// `true` when the query produced no solution.
    pub fn is_empty(&self) -> bool {
        self.batch.rows == 0
    }

    /// Index of a variable in the header.
    pub fn column(&self, variable: &str) -> Option<usize> {
        self.variables.iter().position(|v| v == variable)
    }

    /// The encoded bindings of one variable across all rows (unbound
    /// entries are skipped).
    pub fn column_values(&self, variable: &str) -> Vec<u64> {
        match self.column(variable) {
            Some(index) => self
                .rows()
                .map(|row| row[index])
                .filter(|id| *id != UNBOUND)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Decodes every row through the dictionary. Identifiers unknown to the
    /// dictionary decode to `None` (this only happens if the caller pairs a
    /// store with the wrong dictionary).
    pub fn decoded(&self, dictionary: &Dictionary) -> Vec<Vec<Option<Term>>> {
        self.rows()
            .map(|row| row.iter().map(|id| dictionary.decode(*id)).collect())
            .collect()
    }

    /// Decodes the binding of `variable` in row `row`, if both exist.
    pub fn decoded_value(
        &self,
        row: usize,
        variable: &str,
        dictionary: &Dictionary,
    ) -> Option<Term> {
        let column = self.column(variable)?;
        if row >= self.len() {
            return None;
        }
        dictionary.decode(self.batch.row(row)[column])
    }

    /// Renders the solutions as a small text table (decoded through the
    /// dictionary), convenient for examples and the CLI.
    pub fn to_table(&self, dictionary: &Dictionary) -> String {
        let mut out = String::new();
        out.push_str(&self.variables.join("\t"));
        out.push('\n');
        for row in self.rows() {
            let cells: Vec<&str> = row
                .iter()
                .map(|id| dictionary.text(*id).unwrap_or("UNBOUND"))
                .collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        out
    }

    /// A canonical (sorted) boxed copy of the rows, convenient for
    /// order-insensitive comparisons in tests.
    pub fn sorted_rows(&self) -> Vec<EncodedRow> {
        let mut rows: Vec<EncodedRow> = self
            .rows()
            .map(|row| {
                row.iter()
                    .map(|id| (*id != UNBOUND).then_some(*id))
                    .collect()
            })
            .collect();
        rows.sort();
        rows
    }
}

impl fmt::Display for SolutionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.variables.join("\t"))?;
        for row in self.rows() {
            let cells: Vec<String> = row
                .iter()
                .map(|id| match *id {
                    UNBOUND => "UNBOUND".to_owned(),
                    id => id.to_string(),
                })
                .collect();
            writeln!(f, "{}", cells.join("\t"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::Term;

    fn sample() -> SolutionSet {
        SolutionSet::new(
            vec!["x".into(), "y".into()],
            vec![
                vec![Some(1), Some(2)],
                vec![Some(3), None],
                vec![Some(1), Some(2)],
            ],
        )
    }

    #[test]
    fn header_and_column_lookup() {
        let s = sample();
        assert_eq!(s.variables(), &["x".to_owned(), "y".to_owned()]);
        assert_eq!(s.column("y"), Some(1));
        assert_eq!(s.column("missing"), None);
        assert_eq!(s.column_values("x"), vec![1, 3, 1]);
        assert_eq!(s.column_values("y"), vec![2, 2]);
    }

    #[test]
    fn rows_are_slices_of_the_flat_buffer() {
        let s = sample();
        assert_eq!(s.len(), 3);
        let rows: Vec<&[u64]> = s.rows().collect();
        assert_eq!(rows, [&[1, 2][..], &[3, UNBOUND], &[1, 2]]);
        assert_eq!(s.to_string(), "x\ty\n1\t2\n3\tUNBOUND\n1\t2\n");
    }

    #[test]
    fn zero_width_rows_are_counted() {
        // An ASK that matched: one row, no columns.
        let s = SolutionSet::new(Vec::new(), vec![Vec::new()]);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.rows().next(), Some(&[][..]));
        assert_eq!(s.sorted_rows(), vec![Vec::<Option<u64>>::new()]);
        assert!(SolutionSet::empty(Vec::new()).is_empty());
    }

    #[test]
    fn slice_applies_offset_then_limit() {
        let mut s = sample();
        s.batch.slice(1, Some(1));
        assert_eq!(s.sorted_rows(), vec![vec![Some(3), None]]);

        let mut s = sample();
        s.batch.slice(10, None);
        assert!(s.is_empty());

        let mut s = sample();
        s.batch.slice(0, Some(0));
        assert!(s.is_empty());

        let mut asked = SolutionSet::new(Vec::new(), vec![Vec::new(), Vec::new()]);
        asked.batch.slice(1, None);
        assert_eq!(asked.len(), 1);
    }

    #[test]
    fn reset_keeps_the_row_buffer() {
        let mut s = sample();
        let capacity = s.batch.data.capacity();
        s.reset(vec!["z".into()]);
        assert!(s.is_empty());
        assert_eq!(s.variables(), &["z".to_owned()]);
        assert_eq!(s.batch.stride, 1);
        assert_eq!(s.batch.data.capacity(), capacity);
    }

    #[test]
    fn decoding_uses_the_dictionary() {
        let mut dictionary = Dictionary::new();
        let alice = dictionary.encode_as_resource(&Term::iri("http://ex/alice"));
        let bob = dictionary.encode_as_resource(&Term::iri("http://ex/bob"));
        let s = SolutionSet::new(
            vec!["who".into()],
            vec![vec![Some(alice)], vec![Some(bob)], vec![None]],
        );
        let decoded = s.decoded(&dictionary);
        assert_eq!(decoded[0][0], Some(Term::iri("http://ex/alice")));
        assert_eq!(decoded[1][0], Some(Term::iri("http://ex/bob")));
        assert_eq!(decoded[2][0], None);
        assert_eq!(
            s.decoded_value(0, "who", &dictionary),
            Some(Term::iri("http://ex/alice"))
        );
        assert_eq!(s.decoded_value(2, "who", &dictionary), None);
        assert_eq!(s.decoded_value(3, "who", &dictionary), None);
        let table = s.to_table(&dictionary);
        assert!(table.starts_with("who\n"));
        assert!(table.contains("<http://ex/alice>"));
        assert!(table.contains("UNBOUND"));
    }

    #[test]
    fn sorted_rows_is_order_insensitive() {
        let a = SolutionSet::new(vec!["x".into()], vec![vec![Some(2)], vec![Some(1)]]);
        let b = SolutionSet::new(vec!["x".into()], vec![vec![Some(1)], vec![Some(2)]]);
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }
}
