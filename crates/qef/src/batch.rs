//! Batches: the tiles of column vectors flowing between operators.
//!
//! A [`Batch`] is the in-flight unit of the push-based model — the "tile"
//! of §4.1 (64+ rows). Operators receive batches from the relation
//! accessor or an upstream operator, process all rows vectorized, and push
//! result batches downstream.
//!
//! Inside a task a lane holds [`Rows`]: until an operator writes them, the
//! rows its scan kept stay where the DMS put them ([`Rows::InPlace`]), and
//! the pick records once how they were kept ([`Pick`]) — all of them, a
//! selection vector over the tiles the DMS streamed, or rows the DMS
//! gathered and packed densely. Operators read them through
//! [`Rows::runs`]; a loop reading columns of the tiles through a selection
//! is charged the offset's load and an add per column
//! ([`Rows::charge_select`]), and only a lane that writes the rows into
//! vectors of its own compacts them ([`Rows::into_batch`]). A Map's computed
//! columns are the lane's own, one value per kept row, beside the columns
//! it passes through in place ([`Col`]).

use std::ops::Range;

use rapid_storage::bitvec::BitVec;
use rapid_storage::chunk::Chunk;
use rapid_storage::vector::{ColumnData, Vector};

use dpu_sim::account::Kernel;

use crate::exec::CoreCtx;
use crate::ops::filter::ChunkList;
use crate::primitives::costs;

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

    /// Columns `cols` of the batch, in that order: each moved, and copied
    /// only where `cols` lists it again further on. All of them in order is
    /// the batch as it came.
    pub fn select(mut self, cols: impl Iterator<Item = usize> + Clone) -> Batch {
        if cols.clone().eq(0..self.width()) {
            return self;
        }
        let rows = self.rows;
        let mut held: Vec<Option<Vector>> = std::mem::take(&mut self.columns)
            .into_iter()
            .map(Some)
            .collect();
        let columns = cols.clone().enumerate().map(|(i, c)| {
            let again = cols.clone().skip(i + 1).any(|k| k == c);
            let column = match again {
                true => held[c].clone(),
                false => held[c].take(),
            };
            column.unwrap_or_else(empty_vector)
        });
        Batch {
            columns: columns.collect(),
            rows,
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

/// Where column `i` of rows read in place lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Col {
    /// Column `c` of the chunks the lane scanned, at the rows' positions in
    /// the tiles the DMS streamed.
    Tile(usize),
    /// Vector `j` the lane wrote: one value per row that counts, densely.
    Written(usize),
}

/// Where the columns of rows read in place lie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection<'a> {
    /// Column `i` is column `scanned[i]` of the tiles: a scan's projection.
    Scan(&'a [usize]),
    /// Column `i` lies at `cols[i]`.
    Chosen(Vec<Col>),
}

impl Projection<'_> {
    /// Number of columns.
    pub fn len(&self) -> usize {
        match self {
            Projection::Scan(scanned) => scanned.len(),
            Projection::Chosen(cols) => cols.len(),
        }
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where column `i` lies, if there is one.
    pub fn get(&self, i: usize) -> Option<Col> {
        match self {
            Projection::Scan(scanned) => scanned.get(i).copied().map(Col::Tile),
            Projection::Chosen(cols) => cols.get(i).copied(),
        }
    }

    /// Where column `i` lies.
    pub fn at(&self, i: usize) -> Col {
        match self {
            Projection::Scan(scanned) => Col::Tile(scanned[i]),
            Projection::Chosen(cols) => cols[i],
        }
    }

    /// How many of the columns `cols` — repeats counted once — lie in the
    /// tiles: what a loop reading them through a selection adds an offset
    /// to ([`Rows::charge_select`]).
    pub fn tile_columns(&self, cols: impl Iterator<Item = usize> + Clone) -> usize {
        let first = |(i, c): &(usize, usize)| cols.clone().take(*i).all(|earlier| earlier != *c);
        let once = cols.clone().enumerate().filter(first);
        once.filter(|&(_, c)| matches!(self.get(c), Some(Col::Tile(_))))
            .count()
    }
}

/// The columns of rows read where they lie: a batch's, or a chunk's and the
/// lane's own through a projection.
#[derive(Debug, Clone, Copy)]
pub enum Columns<'a> {
    /// The columns of a batch.
    Batch(&'a Batch),
    /// Column `i` is `projection[i]`: a column of `chunk` or of `written`.
    Chunk {
        /// The chunk the rows lie in.
        chunk: &'a Chunk,
        /// Where each column lies.
        projection: &'a Projection<'a>,
        /// The vectors the lane wrote.
        written: &'a [Vector],
    },
}

impl<'a> Columns<'a> {
    /// Column `i`.
    pub fn column(&self, i: usize) -> &'a Vector {
        match *self {
            Columns::Batch(batch) => batch.column(i),
            Columns::Chunk {
                chunk,
                projection,
                written,
            } => match projection.at(i) {
                Col::Tile(c) => chunk.vector(c),
                Col::Written(j) => &written[j],
            },
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        match self {
            Columns::Batch(batch) => batch.width(),
            Columns::Chunk { projection, .. } => projection.len(),
        }
    }
}

/// Where the rows of a run that count lie in one of its columns: `len`
/// positions, ascending.
#[derive(Debug, Clone, Copy)]
pub struct Positions<'a> {
    /// The first position, or the one the ids number as `ids.1`.
    start: usize,
    /// The ids of the rows that count, where not all of them do.
    ids: Option<(&'a [u32], usize)>,
    len: usize,
}

impl<'a> Positions<'a> {
    /// The `len` positions from `start` on.
    pub fn dense(start: usize, len: usize) -> Self {
        Positions {
            start,
            ids: None,
            len,
        }
    }

    /// The positions of the rows `ids` number, the id `at` lying at
    /// `start`.
    pub fn of_ids(start: usize, ids: &'a [u32], at: usize) -> Self {
        Positions {
            start,
            ids: Some((ids, at)),
            len: ids.len(),
        }
    }

    /// How many.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th.
    pub fn get(&self, i: usize) -> usize {
        match self.ids {
            None => self.start + i,
            Some((ids, at)) => ids[i] as usize - at + self.start,
        }
    }

    /// All of them, in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = usize> + Clone + 'a {
        (0..self.len).map(move |i| self.get(i))
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
    /// Rows that count in the runs before this one: where this run's lie in
    /// a vector the lane wrote.
    pub written_at: usize,
}

impl<'a> Run<'a> {
    /// Every row of `batch`.
    pub fn of_batch(batch: &'a Batch) -> Run<'a> {
        Run {
            cols: Columns::Batch(batch),
            rows: 0..batch.rows(),
            picked: None,
            written_at: 0,
        }
    }

    /// Rows of the run that count.
    pub fn len(&self) -> usize {
        self.picked.map_or(self.rows.len(), |(ids, _)| ids.len())
    }

    /// Whether none does.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column `c`, and where the rows that count lie in it.
    pub fn column(&self, c: usize) -> (&'a Vector, Positions<'a>) {
        let len = self.len();
        let at = match self.cols {
            Columns::Chunk { projection, .. } if matches!(projection.at(c), Col::Written(_)) => {
                Positions::dense(self.written_at, len)
            }
            _ => Positions {
                start: self.rows.start,
                ids: self.picked,
                len,
            },
        };
        (self.cols.column(c), at)
    }
}

/// Where the rows a lane scans lie: a range of rows numbered across
/// `chunks` in order — a table's chunks, or one chunk as
/// `std::slice::from_ref(&chunk)`.
#[derive(Debug, Clone)]
pub struct Span<'a> {
    chunks: ChunkList<'a>,
    rows: Range<usize>,
}

impl<'a> Span<'a> {
    /// Rows `rows` of `chunks`.
    pub fn new(chunks: &'a [Chunk], rows: Range<usize>) -> Self {
        Span::of_list(ChunkList::all(chunks), rows)
    }

    /// Rows `rows` of the chunks on `list`, numbered through them in order.
    pub fn of_list(chunks: ChunkList<'a>, rows: Range<usize>) -> Self {
        Span { chunks, rows }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// The rows per chunk they lie in, in order: the lane's runs.
    pub fn runs(&self) -> impl Iterator<Item = (&'a Chunk, Range<usize>)> + Clone {
        let rows = self.rows.clone();
        let based = self.chunks.iter().scan(0, |base, chunk| {
            let at = *base;
            *base += chunk.rows();
            Some((chunk, at))
        });
        based
            .take_while(move |&(_, base)| base < rows.end)
            .filter_map(move |(chunk, base)| {
                let of_chunk = rows.start.max(base)..rows.end.min(base + chunk.rows());
                (!of_chunk.is_empty()).then(|| (chunk, of_chunk.start - base..of_chunk.end - base))
            })
    }
}

/// Which of the rows a lane scanned count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pick {
    /// Every one.
    All,
    /// Those at these positions, left where the DMS streamed them: a
    /// selection vector over the tiles. Ascending, numbered from the first
    /// row of the span.
    Selected(Vec<u32>),
    /// Those the DMS gathered, packed densely in DMEM: numbered as for
    /// `Selected`.
    Gathered(Vec<u32>),
}

impl Pick {
    /// The ids of the rows that count, where not all do.
    pub fn ids(&self) -> Option<&[u32]> {
        match self {
            Pick::All => None,
            Pick::Selected(ids) | Pick::Gathered(ids) => Some(ids),
        }
    }
}

/// What a lane of a task holds between two of its operators: vectors of its
/// own, or the table's rows where the scan found them — and beside them the
/// vectors the operators above it computed, one value per row that counts.
#[derive(Debug)]
pub enum Rows<'a> {
    /// Vectors the lane wrote.
    Owned(Batch),
    /// The rows the lane scanned, where they lie, seen through `projection`.
    InPlace {
        /// The rows the lane scanned.
        span: Span<'a>,
        /// Where each column lies: in the chunks, or in `written`.
        projection: Projection<'a>,
        /// Which of the span's rows count.
        pick: Pick,
        /// The vectors the lane computed over the rows that count.
        written: Vec<Vector>,
    },
}

impl Rows<'_> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            Rows::Owned(batch) => batch.rows(),
            Rows::InPlace { span, pick, .. } => pick.ids().map_or(span.rows(), <[u32]>::len),
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        match self {
            Rows::Owned(batch) => batch.width(),
            Rows::InPlace { projection, .. } => projection.len(),
        }
    }

    /// The rows as runs, in order.
    pub fn runs(&self) -> impl Iterator<Item = Run<'_>> + Clone {
        let (owned, in_place) = match self {
            Rows::Owned(batch) => (Some(batch), None),
            Rows::InPlace {
                span,
                projection,
                pick,
                written,
            } => (None, Some((span, projection, pick.ids(), written))),
        };
        let owned = owned.into_iter().map(Run::of_batch);
        let in_place = in_place
            .into_iter()
            .flat_map(|(span, projection, ids, written)| {
                let (mut at, mut counted) = (0, 0);
                let mut rest = ids;
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
                    let run = Run {
                        cols: Columns::Chunk {
                            chunk,
                            projection,
                            written,
                        },
                        rows,
                        picked: of_run,
                        written_at: counted,
                    };
                    counted += run.len();
                    run
                })
            });
        owned.chain(in_place)
    }

    /// Charge `ctx` a loop that reads columns `cols` of the rows where they
    /// lie. Through a selection the loop loads each row's tile offset once
    /// and adds it to the base of every column of the tiles it reads
    /// ([`costs::select_read_per_row`]); rows of the lane's own, every row of
    /// the span and rows the DMS gathered are dense, and cost the loop
    /// nothing more.
    pub fn charge_select(&self, ctx: &mut CoreCtx, cols: impl Iterator<Item = usize> + Clone) {
        self.charge_select_of(ctx, cols, self.rows());
    }

    /// [`charge_select`](Self::charge_select) for a loop over `rows` of the
    /// rows: the ones a join filter kept, say.
    pub fn charge_select_of(
        &self,
        ctx: &mut CoreCtx,
        cols: impl Iterator<Item = usize> + Clone,
        rows: usize,
    ) {
        let Rows::InPlace {
            projection,
            pick: Pick::Selected(_),
            ..
        } = self
        else {
            return;
        };
        let tiles = projection.tile_columns(cols);
        if tiles > 0 && rows > 0 {
            let read = costs::select_read_per_row(tiles).scaled(rows as f64);
            ctx.charge_kernel(Kernel::Select, &read);
        }
    }

    /// The rows as vectors of the lane's own: the copy an operator that
    /// writes them makes. Through a selection every column of the tiles is
    /// compacted (Listing 3's gather loop, charged to `ctx`); the lane's own
    /// vectors and rows the DMS packed are handed on as they are.
    pub fn into_batch(self, ctx: &mut CoreCtx) -> Batch {
        if let Rows::InPlace {
            projection,
            pick: Pick::Selected(ids),
            ..
        } = &self
        {
            let compact = costs::swpart_gather_per_row().scaled(ids.len() as f64);
            let tiles = (0..projection.len()).filter(|&c| matches!(projection.at(c), Col::Tile(_)));
            if !ids.is_empty() {
                tiles.for_each(|_| ctx.charge_kernel(Kernel::Compact, &compact));
            }
        }
        self.materialize()
    }

    /// [`into_batch`](Self::into_batch) for an operator whose own loops
    /// already read the rows and were charged for it.
    pub(crate) fn materialize(self) -> Batch {
        let width = self.width();
        self.materialize_columns(0..width)
    }

    /// [`materialize`](Self::materialize) of columns `cols` alone, in that
    /// order: what a join writes of the probe rows it keeps. A vector the
    /// lane holds already is handed on, copied only where `cols` lists it
    /// again further on.
    pub(crate) fn materialize_columns(
        mut self,
        cols: impl Iterator<Item = usize> + Clone,
    ) -> Batch {
        let rows = self.rows();
        let mut written = match &mut self {
            Rows::Owned(batch) => return std::mem::replace(batch, Batch::empty(0)).select(cols),
            Rows::InPlace { .. } if rows == 0 => return Batch::empty(0),
            Rows::InPlace { written, .. } => std::mem::take(written),
        };
        let Rows::InPlace { projection, .. } = &self else {
            unreachable!("matched above")
        };
        let columns = cols
            .clone()
            .enumerate()
            .map(|(i, c)| match projection.at(c) {
                Col::Tile(_) => {
                    let mut out = ColumnBuilder::default();
                    self.runs().for_each(|run| out.append_run(&run, c, rows));
                    out.finish()
                }
                col @ Col::Written(j)
                    if cols.clone().skip(i + 1).any(|k| projection.at(k) == col) =>
                {
                    written[j].clone()
                }
                Col::Written(j) => std::mem::replace(&mut written[j], empty_vector()),
            });
        Batch::new(columns.collect())
    }

    /// Columns `cols` of the rows as vectors of their own, one value per row
    /// that counts, beside zero-length placeholders for the other columns:
    /// what a vectorized kernel over `cols` reads.
    pub fn columns_at(&self, cols: impl Iterator<Item = usize>) -> Vec<Vector> {
        let (rows, width) = (self.rows(), self.width());
        let mut out: Vec<Vector> = (0..width).map(|_| empty_vector()).collect();
        for c in cols.filter(|&c| c < width) {
            let mut column = ColumnBuilder::default();
            self.runs().for_each(|run| column.append_run(&run, c, rows));
            out[c] = column.finish();
        }
        out
    }
}

/// A vector of no values: a placeholder in a column list.
pub(crate) fn empty_vector() -> Vector {
    Vector::new(ColumnData::I8(Vec::new()))
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
        let (column, at) = run.column(c);
        self.append(column, at.iter(), capacity);
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
    fn only_a_lane_that_writes_the_rows_a_selection_keeps_compacts_them() {
        use crate::exec::ExecContext;
        use crate::expr::Pred;
        use crate::ops::filter::ScanPlan;
        use crate::primitives::filter::CmpOp;
        use crate::ra::AccessPath;
        let chunk = Chunk::new(
            (0..3)
                .map(|c| Vector::new(ColumnData::I32((0..1000).map(|i| i * 3 + c).collect())))
                .collect(),
        );
        let pred = [Pred::CmpConst {
            col: 0,
            op: CmpOp::Lt,
            value: 1500,
        }];
        let ectx = ExecContext::dpu();
        let charged = |c: &CoreCtx, kernel| c.kernels.get(kernel).cycles;
        let compact = ectx
            .cost_model
            .kernel_cycles(&costs::swpart_gather_per_row());
        for path in [AccessPath::Stream, AccessPath::Gather] {
            let plan = ScanPlan::forced(path, &pred, &[2, 1], 0.5);
            let mut c = CoreCtx::new(&ectx, 0);
            let rows = plan
                .scan_rows(
                    &mut c,
                    Span::new(std::slice::from_ref(&chunk), 0..1000),
                    256,
                )
                .unwrap()
                .0;
            assert_eq!(rows.rows(), 500);
            let selects = path == AccessPath::Stream;
            assert_eq!(
                matches!(
                    rows,
                    Rows::InPlace {
                        pick: Pick::Selected(_),
                        ..
                    }
                ),
                selects
            );
            // The scan compacts nothing; a loop over one column of the
            // tiles pays the selection's offset and an add a row.
            assert_eq!(charged(&c, Kernel::Compact), 0.0);
            rows.charge_select(&mut c, [1, 1].into_iter());
            let select = if selects { 500.0 } else { 0.0 };
            assert_eq!(charged(&c, Kernel::Select), select);
            // Writing them compacts both columns, through a selection only.
            let batch = rows.into_batch(&mut c);
            assert_eq!(batch.column(0).data.to_i64_vec()[..2], [2, 5]);
            let compacted = if selects { 2.0 * 500.0 * compact } else { 0.0 };
            assert!(
                (charged(&c, Kernel::Compact) - compacted).abs() < 1e-9,
                "{path}"
            );
        }
    }

    #[test]
    fn a_chain_filter_keeps_how_the_scan_picked_its_rows() {
        use crate::exec::ExecContext;
        use crate::expr::Pred;
        use crate::ops::filter::{filter_rows, ScanPlan};
        use crate::primitives::filter::CmpOp;
        use crate::ra::AccessPath;
        let chunk = Chunk::new(
            (0..3)
                .map(|c| Vector::new(ColumnData::I32((0..1000).map(|i| i * 3 + c).collect())))
                .collect(),
        );
        let below = |col, value| Pred::CmpConst {
            col,
            op: CmpOp::Lt,
            value,
        };
        // Of the rows the scan keeps, the chain Filter keeps half: column 0
        // of the projection is the table's column 2.
        let scan_pred = [below(0, 1500)];
        let chain_pred = below(0, 752);
        let ectx = ExecContext::dpu();
        let charged = |c: &CoreCtx, kernel| c.kernels.get(kernel).cycles;
        let compact = ectx
            .cost_model
            .kernel_cycles(&costs::swpart_gather_per_row());
        let plans = [
            ScanPlan::forced(AccessPath::Gather, &scan_pred, &[2, 1], 0.5),
            ScanPlan::forced(AccessPath::Stream, &scan_pred, &[2, 1], 0.5),
            ScanPlan::forced(AccessPath::Stream, &[], &[2, 1], 1.0),
        ];
        for plan in &plans {
            let mut c = CoreCtx::new(&ectx, 0);
            let rows = plan
                .scan_rows(
                    &mut c,
                    Span::new(std::slice::from_ref(&chunk), 0..1000),
                    256,
                )
                .unwrap()
                .0;
            let gathered = matches!(
                rows,
                Rows::InPlace {
                    pick: Pick::Gathered(_),
                    ..
                }
            );
            let rows = filter_rows(&mut c, rows, &chain_pred).unwrap();
            assert_eq!(rows.rows(), 250);
            // Rows the DMS packed stay packed; over the tiles the rows the
            // Filter keeps are a selection, whatever the scan picked.
            let Rows::InPlace { pick, .. } = &rows else {
                panic!("a chain Filter hands the rows on where they lie")
            };
            match pick {
                Pick::Gathered(_) => assert!(gathered),
                Pick::Selected(_) => assert!(!gathered),
                Pick::All => panic!("the Filter keeps a quarter of the rows"),
            }
            // Handing them on as a batch compacts both columns of the
            // tiles through a selection only.
            let batch = rows.into_batch(&mut c);
            assert_eq!(batch.column(0).data.to_i64_vec()[..2], [2, 5]);
            let compacted = if gathered { 0.0 } else { 2.0 * 250.0 * compact };
            assert!(
                (charged(&c, Kernel::Compact) - compacted).abs() < 1e-9,
                "{}",
                plan.path()
            );
        }
    }

    #[test]
    fn push_column_sets_rows() {
        let mut batch = Batch::empty(0);
        batch.push_column(Vector::new(ColumnData::I32(vec![1, 2])));
        assert_eq!(batch.rows(), 2);
    }
}
