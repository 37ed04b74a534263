//! Batches: the tiles of column vectors flowing between operators.
//!
//! A [`Batch`] is the in-flight unit of the push-based model — the "tile"
//! of §4.1 (64+ rows). Operators receive batches from the relation
//! accessor or an upstream operator, process all rows vectorized, and push
//! result batches downstream.

use std::borrow::Cow;
use std::ops::Range;

use rapid_storage::bitvec::BitVec;
use rapid_storage::chunk::Chunk;
use rapid_storage::table::Table;
use rapid_storage::vector::{ColumnData, Vector};

/// A tile of rows in columnar layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Column vectors (equal length).
    pub columns: Vec<Vector>,
    rows: usize,
}

impl Batch {
    /// Build from equal-length columns.
    pub fn new(columns: Vec<Vector>) -> Self {
        let rows = columns.first().map_or(0, Vector::len);
        debug_assert!(columns.iter().all(|c| c.len() == rows), "ragged batch");
        Batch { columns, rows }
    }

    /// An empty batch with zero columns and a row count (useful for
    /// count-only pipelines).
    pub fn empty(rows: usize) -> Self {
        Batch {
            columns: Vec::new(),
            rows,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the batch carries no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Vector {
        &self.columns[i]
    }

    /// Gather a row subset across all columns.
    pub fn gather(&self, rids: &[u32]) -> Batch {
        Batch {
            columns: self.columns.iter().map(|c| c.gather(rids)).collect(),
            rows: rids.len(),
        }
    }

    /// Keep a column subset (by index), in the given order.
    pub fn project(&self, cols: &[usize]) -> Batch {
        Batch {
            columns: cols.iter().map(|&c| self.columns[c].clone()).collect(),
            rows: self.rows,
        }
    }

    /// Append a column (must match the row count).
    pub fn push_column(&mut self, v: Vector) {
        if self.columns.is_empty() {
            self.rows = v.len();
        }
        debug_assert_eq!(v.len(), self.rows, "column length mismatch");
        self.columns.push(v);
    }

    /// Concatenate batches of identical width. A single batch is handed
    /// back as it came: nothing is copied.
    pub fn concat(mut batches: Vec<Batch>) -> Batch {
        if batches.len() <= 1 {
            return batches.pop().unwrap_or_else(|| Batch::empty(0));
        }
        let total: usize = batches.iter().map(|b| b.rows).sum();
        // Zero-width batches (an operator's empty output) carry no values.
        let Some(layout) = batches.iter().find(|b| b.width() > 0) else {
            return Batch::empty(total);
        };
        let columns = layout
            .columns
            .iter()
            .enumerate()
            .map(|(i, proto)| {
                let parts = || batches.iter().filter_map(|b| b.columns.get(i));
                let mut data = ColumnData::with_width(proto.data.width(), total);
                for c in parts() {
                    data.extend_from(&c.data);
                }
                if !parts().any(Vector::has_nulls) {
                    return Vector::new(data);
                }
                let mut nulls = BitVec::with_capacity(total);
                for c in parts() {
                    match &c.nulls {
                        Some(n) => nulls.extend_from(n),
                        None => nulls.extend_zeros(c.len()),
                    }
                }
                Vector::with_nulls(data, nulls)
            })
            .collect();
        Batch {
            columns,
            rows: total,
        }
    }

    /// Total bytes of the batch's vectors.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(Vector::size_bytes).sum()
    }
}

/// The columns of rows read where they lie: a batch's, or a chunk's through
/// a scan's projection.
#[derive(Debug, Clone, Copy)]
pub enum Columns<'a> {
    /// The columns of a batch.
    Batch(&'a Batch),
    /// Column `i` is the chunk's column `projection[i]`.
    Chunk(&'a Chunk, &'a [usize]),
}

impl<'a> Columns<'a> {
    /// Column `i`.
    pub fn column(&self, i: usize) -> &'a Vector {
        match self {
            Columns::Batch(batch) => batch.column(i),
            Columns::Chunk(chunk, projection) => chunk.vector(projection[i]),
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        match self {
            Columns::Batch(batch) => batch.width(),
            Columns::Chunk(_, projection) => projection.len(),
        }
    }
}

/// A run of rows read where they lie: rows `rows` of `cols`, or those of
/// them a scan picked.
#[derive(Debug, Clone)]
pub struct Run<'a> {
    /// The columns the rows are rows of.
    pub cols: Columns<'a>,
    /// Which of their rows the run spans.
    pub rows: Range<usize>,
    /// The rows of the run that count, where not all do: ascending ids that
    /// number the run's first row `at` (the run's place among the rows its
    /// lane scans).
    pub picked: Option<(&'a [u32], usize)>,
}

impl<'a> Run<'a> {
    /// Rows of the run that count.
    pub fn len(&self) -> usize {
        self.picked.map_or(self.rows.len(), |(ids, _)| ids.len())
    }

    /// Whether none does.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th of the rows that count, as a row of `cols`.
    pub fn row(&self, i: usize) -> usize {
        match self.picked {
            None => self.rows.start + i,
            Some((ids, at)) => ids[i] as usize - at + self.rows.start,
        }
    }

    /// The rows that count, as rows of `cols`, ascending.
    pub fn row_ids(&self) -> impl ExactSizeIterator<Item = usize> + Clone + 'a {
        let run = self.clone();
        (0..run.len()).map(move |i| run.row(i))
    }
}

/// Where the rows a lane scans lie: a range of a table's rows, across the
/// chunks it spans, or of one chunk's.
#[derive(Debug, Clone)]
pub enum Span<'a> {
    /// Rows of a table, numbered across its chunks in order.
    Table(&'a Table, Range<usize>),
    /// Rows of one chunk.
    Chunk(&'a Chunk, Range<usize>),
}

impl<'a> Span<'a> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            Span::Table(_, rows) | Span::Chunk(_, rows) => rows.len(),
        }
    }

    /// The rows per chunk they lie in, in order: the lane's runs.
    pub fn runs(&self) -> impl Iterator<Item = (&'a Chunk, Range<usize>)> + Clone {
        let (table, chunk) = match self {
            Span::Table(table, rows) => (Some((*table, rows.clone())), None),
            Span::Chunk(chunk, rows) => (None, Some((*chunk, rows.clone()))),
        };
        let of_table = table.into_iter().flat_map(|(table, rows)| {
            let chunks = table.partitions.iter().flat_map(|p| p.chunks.iter());
            let based = chunks.scan(0, |base, chunk| {
                let at = *base;
                *base += chunk.rows();
                Some((chunk, at))
            });
            based.filter_map(move |(chunk, base)| {
                let of_chunk = rows.start.max(base)..rows.end.min(base + chunk.rows());
                (!of_chunk.is_empty()).then(|| (chunk, of_chunk.start - base..of_chunk.end - base))
            })
        });
        of_table.chain(chunk)
    }
}

/// What a lane of a task holds between two of its operators: vectors of its
/// own, or — below the first operator that writes new values — the table's
/// rows where the scan found them.
#[derive(Debug)]
pub enum Rows<'a> {
    /// Vectors the lane wrote.
    Owned(Batch),
    /// The rows the lane scanned, where they lie, seen through `projection`.
    InPlace {
        /// The rows the lane scanned.
        span: Span<'a>,
        /// Column `i` is the chunks' column `projection[i]`.
        projection: Cow<'a, [usize]>,
        /// Which of those rows the scan's predicate kept, where it has one:
        /// ascending, numbered from the first row of the span.
        picked: Option<Vec<u32>>,
    },
}

impl Rows<'_> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            Rows::Owned(batch) => batch.rows(),
            Rows::InPlace {
                picked: Some(ids), ..
            } => ids.len(),
            Rows::InPlace { span, .. } => span.rows(),
        }
    }

    /// The rows as runs, in order.
    pub fn runs(&self) -> impl Iterator<Item = Run<'_>> + Clone {
        let (owned, in_place) = match self {
            Rows::Owned(batch) => (Some(batch), None),
            Rows::InPlace {
                span,
                projection,
                picked,
            } => (None, Some((span, projection, picked.as_deref()))),
        };
        let owned = owned.into_iter().map(|batch| Run {
            cols: Columns::Batch(batch),
            rows: 0..batch.rows(),
            picked: None,
        });
        let in_place = in_place.into_iter().flat_map(|(span, projection, picked)| {
            let mut at = 0;
            let mut rest = picked;
            span.runs().map(move |(chunk, rows)| {
                let from = at;
                at += rows.len();
                // The ids ascend, so those of one run are a run of their own.
                let of_run = rest.map(|ids| {
                    let (of_run, after) =
                        ids.split_at(ids.partition_point(|&id| (id as usize) < at));
                    rest = Some(after);
                    (of_run, from)
                });
                Run {
                    cols: Columns::Chunk(chunk, projection),
                    rows,
                    picked: of_run,
                }
            })
        });
        owned.chain(in_place)
    }

    /// The rows as vectors of the lane's own: where they were read in place
    /// this is the copy an operator that writes them makes.
    pub fn into_batch(self) -> Batch {
        let rows = self.rows();
        match self {
            Rows::Owned(batch) => batch,
            Rows::InPlace { ref projection, .. } if rows > 0 => {
                let columns = (0..projection.len()).map(|c| {
                    let mut out = ColumnBuilder::default();
                    for run in self.runs() {
                        out.append_run(&run, c, rows);
                    }
                    out.finish()
                });
                Batch::new(columns.collect())
            }
            Rows::InPlace { .. } => Batch::empty(0),
        }
    }
}

/// One output column written run by run: the values, and a null bitmap from
/// the first run that has one.
#[derive(Debug, Default)]
pub(crate) struct ColumnBuilder {
    data: Option<ColumnData>,
    nulls: Option<BitVec>,
}

impl ColumnBuilder {
    /// Append the values of `src` at `rows`; the column is to hold
    /// `capacity` values in the end.
    pub(crate) fn append(
        &mut self,
        src: &Vector,
        rows: impl ExactSizeIterator<Item = usize> + Clone,
        capacity: usize,
    ) {
        let data = self
            .data
            .get_or_insert_with(|| ColumnData::with_width(src.data.width(), capacity));
        let before = data.len();
        data.extend_rows(&src.data, rows.clone());
        match (&mut self.nulls, &src.nulls) {
            (None, None) => {}
            (Some(nulls), None) => nulls.extend_zeros(rows.len()),
            (nulls, Some(of_src)) => {
                let nulls = nulls.get_or_insert_with(|| {
                    let mut clear = BitVec::with_capacity(capacity);
                    clear.extend_zeros(before);
                    clear
                });
                rows.for_each(|i| nulls.push(of_src.get(i)));
            }
        }
    }

    /// Append column `c` of `run` at the rows of it that count.
    pub(crate) fn append_run(&mut self, run: &Run<'_>, c: usize, capacity: usize) {
        self.append(run.cols.column(c), run.row_ids(), capacity);
    }

    /// The column. One nothing was appended to has no values of any width.
    pub(crate) fn finish(self) -> Vector {
        let data = self.data.unwrap_or(ColumnData::I8(Vec::new()));
        match self.nulls {
            Some(nulls) => Vector::with_nulls(data, nulls),
            None => Vector::new(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(vals: &[&[i64]]) -> Batch {
        Batch::new(
            vals.iter()
                .map(|v| Vector::new(ColumnData::I64(v.to_vec())))
                .collect(),
        )
    }

    #[test]
    fn shape_and_projection() {
        let batch = b(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.width(), 2);
        let p = batch.project(&[1]);
        assert_eq!(p.column(0).data.to_i64_vec(), vec![4, 5, 6]);
    }

    #[test]
    fn gather_subsets_rows() {
        let batch = b(&[&[1, 2, 3], &[4, 5, 6]]);
        let g = batch.gather(&[2, 0]);
        assert_eq!(g.rows(), 2);
        assert_eq!(g.column(0).data.to_i64_vec(), vec![3, 1]);
        assert_eq!(g.column(1).data.to_i64_vec(), vec![6, 4]);
    }

    #[test]
    fn concat_joins_batches() {
        let joined = Batch::concat(vec![b(&[&[1], &[10]]), b(&[&[2, 3], &[20, 30]])]);
        assert_eq!(joined.rows(), 3);
        assert_eq!(joined.column(0).data.to_i64_vec(), vec![1, 2, 3]);
        assert_eq!(joined.column(1).data.to_i64_vec(), vec![10, 20, 30]);
    }

    #[test]
    fn concat_preserves_nulls() {
        let mut nulls = BitVec::zeros(2);
        nulls.set(1, true);
        let withnull = Batch::new(vec![Vector::with_nulls(ColumnData::I64(vec![1, 0]), nulls)]);
        let plain = Batch::new(vec![Vector::new(ColumnData::I64(vec![7]))]);
        let joined = Batch::concat(vec![withnull, plain]);
        assert_eq!(joined.column(0).get(0), Some(1));
        assert_eq!(joined.column(0).get(1), None);
        assert_eq!(joined.column(0).get(2), Some(7));
    }

    #[test]
    fn concat_merges_null_bitmaps_across_word_boundaries() {
        let piece = |rows: usize, null_every: Option<usize>| {
            let data = ColumnData::I64((0..rows as i64).collect());
            Batch::new(vec![match null_every {
                Some(k) => {
                    Vector::with_nulls(data, BitVec::from_bools((0..rows).map(|i| i % k == 0)))
                }
                None => Vector::new(data),
            }])
        };
        let pieces = vec![piece(70, Some(7)), piece(3, None), piece(130, Some(11))];
        let expect: Vec<Option<i64>> = pieces
            .iter()
            .flat_map(|b| (0..b.rows()).map(|i| b.column(0).get(i)))
            .collect();
        let joined = Batch::concat(pieces);
        let got: Vec<Option<i64>> = (0..joined.rows())
            .map(|i| joined.column(0).get(i))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_concat() {
        let e = Batch::concat(vec![]);
        assert_eq!(e.rows(), 0);
        assert_eq!(e.width(), 0);
    }

    #[test]
    fn push_column_sets_rows() {
        let mut batch = Batch::empty(0);
        batch.push_column(Vector::new(ColumnData::I32(vec![1, 2])));
        assert_eq!(batch.rows(), 2);
    }
}
