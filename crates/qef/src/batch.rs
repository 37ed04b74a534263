//! Batches: the tiles of column vectors flowing between operators.
//!
//! A [`Batch`] is the in-flight unit of the push-based model — the "tile"
//! of §4.1 (64+ rows). Operators receive batches from the relation
//! accessor or an upstream operator, process all rows vectorized, and push
//! result batches downstream.

use rapid_storage::bitvec::BitVec;
use rapid_storage::vector::Vector;

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
                let mut data = proto.data.empty_like_with_capacity(total);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_storage::vector::ColumnData;

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
