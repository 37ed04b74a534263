//! Chunks: horizontal row slices stored column-wise.
//!
//! "Each partition contains horizontal slices of relational data called
//! chunks. The data inside a chunk is a set of rows of the table stored in
//! columnar layout. Each column of a table stored inside a chunk is called
//! a vector, which is a flat array of column's data." (§4.1) One DPU
//! holds the whole relation here, so a table is its chunks in heap-slot
//! order, with no partition between them ([`crate::table::Table::chunks`]).
//!
//! Beside each vector a chunk keeps its column's [`ZoneMap`] — the smallest
//! and largest value and the NULL count, a small materialized aggregate
//! (Moerkotte, VLDB 1998) — computed once, when the chunk is built. A scan
//! reads only the chunks whose zone maps its predicate cannot rule out.
//!
//! A chunk's vectors and zone maps sit behind one `Arc`: a checkpoint that
//! did not touch a chunk's rows hands the new table the same vectors and
//! zone maps, and a clone copies no data.

use std::sync::Arc;

use crate::bitvec::BitVec;
use crate::vector::{ColumnData, Vector};

/// What one column's values in a chunk span: the smallest and largest
/// non-null value, widened as [`Vector::get`] returns them — the domain a
/// predicate's literals are encoded into — and how many rows are NULL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneMap {
    /// `(min, max)` of the non-null values; `None` where there is none: the
    /// chunk is empty or every row of it is NULL.
    pub range: Option<(i64, i64)>,
    /// Rows that are NULL.
    pub nulls: usize,
}

impl ZoneMap {
    /// The zone map of `vector`'s values.
    pub fn of(vector: &Vector) -> ZoneMap {
        // Without NULLs, a minimum and a maximum over the stored slice.
        fn span<T: Copy + Ord + Into<i64>>(
            values: &[T],
            nulls: Option<&BitVec>,
        ) -> Option<(i64, i64)> {
            let Some(nulls) = nulls else {
                let (min, max) = (values.iter().min()?, values.iter().max()?);
                return Some(((*min).into(), (*max).into()));
            };
            let mut live = values.iter().enumerate().filter(|&(i, _)| !nulls.get(i));
            let first = (*live.next()?.1).into();
            Some(live.fold((first, first), |(lo, hi), (_, &v)| {
                (lo.min(v.into()), hi.max(v.into()))
            }))
        }
        let nulls = vector.nulls.as_ref();
        let range = match &vector.data {
            ColumnData::I8(v) => span(v, nulls),
            ColumnData::I16(v) => span(v, nulls),
            ColumnData::I32(v) => span(v, nulls),
            ColumnData::I64(v) => span(v, nulls),
        };
        ZoneMap {
            range,
            nulls: nulls.map_or(0, BitVec::count_ones),
        }
    }

    /// Whether some non-null value lies in `[lo, hi]`.
    pub fn overlaps(&self, lo: i64, hi: i64) -> bool {
        self.range
            .is_some_and(|(min, max)| lo <= hi && lo <= max && min <= hi)
    }
}

/// A chunk's columns: the vectors and, beside each, its zone map.
#[derive(Debug, PartialEq)]
struct Columns {
    vectors: Vec<Vector>,
    zones: Vec<ZoneMap>,
}

/// A row slice of a relation in columnar layout: one [`Vector`] per column,
/// and its [`ZoneMap`].
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    columns: Arc<Columns>,
    rows: usize,
}

impl Chunk {
    /// Build a chunk from equal-length column vectors, and their zone maps.
    pub fn new(vectors: Vec<Vector>) -> Self {
        let rows = vectors.first().map_or(0, Vector::len);
        assert!(
            vectors.iter().all(|v| v.len() == rows),
            "chunk vectors must have equal length"
        );
        let zones = vectors.iter().map(ZoneMap::of).collect();
        Chunk {
            columns: Arc::new(Columns { vectors, zones }),
            rows,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the chunk has zero rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn columns(&self) -> usize {
        self.columns.vectors.len()
    }

    /// Column `i`'s vector.
    pub fn vector(&self, i: usize) -> &Vector {
        &self.columns.vectors[i]
    }

    /// All vectors.
    pub fn vectors(&self) -> &[Vector] {
        &self.columns.vectors
    }

    /// Column `i`'s zone map.
    pub fn zone(&self, i: usize) -> &ZoneMap {
        &self.columns.zones[i]
    }

    /// Whether `other` holds the very vectors and zone maps of this chunk,
    /// not a copy.
    pub fn shares_vectors(&self, other: &Chunk) -> bool {
        Arc::ptr_eq(&self.columns, &other.columns)
    }

    /// Gather the same row subset from every column.
    pub fn gather(&self, rids: &[u32]) -> Chunk {
        Chunk::new(self.vectors().iter().map(|v| v.gather(rids)).collect())
    }

    /// Project a subset of columns by index.
    pub fn project(&self, cols: &[usize]) -> Chunk {
        Chunk::new(cols.iter().map(|&c| self.vector(c).clone()).collect())
    }

    /// Total bytes across vectors.
    pub fn size_bytes(&self) -> usize {
        self.vectors().iter().map(Vector::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::ColumnData;

    fn chunk() -> Chunk {
        Chunk::new(vec![
            Vector::new(ColumnData::I64(vec![1, 2, 3])),
            Vector::new(ColumnData::I32(vec![10, 20, 30])),
        ])
    }

    #[test]
    fn shape() {
        let c = chunk();
        assert_eq!(c.rows(), 3);
        assert_eq!(c.columns(), 2);
        assert_eq!(c.size_bytes(), 3 * 8 + 3 * 4);
    }

    #[test]
    fn a_clone_shares_the_vectors() {
        let c = chunk();
        assert!(c.clone().shares_vectors(&c));
        assert!(!chunk().shares_vectors(&c), "an equal chunk built apart");
    }

    #[test]
    fn zone_maps_span_the_widened_non_null_values_and_count_the_nulls() {
        let c = chunk();
        assert_eq!(
            (*c.zone(0), *c.zone(1)),
            (
                ZoneMap {
                    range: Some((1, 3)),
                    nulls: 0
                },
                ZoneMap {
                    range: Some((10, 30)),
                    nulls: 0
                }
            )
        );
        // A NULL row's stored value (here −100) is no value of the column.
        let mut nulls = BitVec::zeros(3);
        nulls.set(0, true);
        let some = Vector::with_nulls(ColumnData::I8(vec![-100, 7, -2]), nulls);
        let all = Vector::with_nulls(ColumnData::I16(vec![5, 6]), BitVec::ones(2));
        assert_eq!(
            ZoneMap::of(&some),
            ZoneMap {
                range: Some((-2, 7)),
                nulls: 1
            }
        );
        let all_null = ZoneMap::of(&all);
        assert_eq!((all_null.range, all_null.nulls), (None, 2));
        assert!(!all_null.overlaps(i64::MIN, i64::MAX));
        let empty = Chunk::new(vec![Vector::new(ColumnData::I64(Vec::new()))]);
        assert_eq!(empty.zone(0).range, None);
        let zone = ZoneMap::of(&some);
        assert!(zone.overlaps(7, 100) && zone.overlaps(-5, -2) && zone.overlaps(0, 0));
        assert!(!zone.overlaps(8, 100) && !zone.overlaps(-100, -3));
        assert!(!zone.overlaps(3, 1), "an empty interval holds no value");
    }

    #[test]
    fn a_clone_shares_the_zone_maps_and_a_copy_recomputes_them() {
        let c = chunk();
        assert!(std::ptr::eq(c.clone().zone(1), c.zone(1)));
        let g = c.gather(&[1]);
        assert_eq!(g.zone(0).range, Some((2, 2)));
        assert_eq!(c.project(&[1]).zone(0), c.zone(1));
    }

    #[test]
    fn gather_applies_to_all_columns() {
        let g = chunk().gather(&[2, 0]);
        assert_eq!(g.vector(0).data.to_i64_vec(), vec![3, 1]);
        assert_eq!(g.vector(1).data.to_i64_vec(), vec![30, 10]);
    }

    #[test]
    fn project_selects_columns() {
        let p = chunk().project(&[1]);
        assert_eq!(p.columns(), 1);
        assert_eq!(p.vector(0).data.to_i64_vec(), vec![10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_vectors_panic() {
        Chunk::new(vec![
            Vector::new(ColumnData::I64(vec![1])),
            Vector::new(ColumnData::I64(vec![1, 2])),
        ]);
    }
}
