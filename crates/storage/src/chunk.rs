//! Chunks: horizontal row slices stored column-wise.
//!
//! "Each partition contains horizontal slices of relational data called
//! chunks. The data inside a chunk is a set of rows of the table stored in
//! columnar layout. Each column of a table stored inside a chunk is called
//! a vector, which is a flat array of column's data." (§4.1) One DPU
//! holds the whole relation here, so a table is its chunks in heap-slot
//! order, with no partition between them ([`crate::table::Table::chunks`]).
//!
//! A chunk's vectors sit behind one `Arc`: a checkpoint that did not touch
//! a chunk's rows hands the new table the same vectors, and a clone copies
//! no data.

use std::sync::Arc;

use crate::vector::Vector;

/// A row slice of a relation in columnar layout: one [`Vector`] per column.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    vectors: Arc<Vec<Vector>>,
    rows: usize,
}

impl Chunk {
    /// Build a chunk from equal-length column vectors.
    pub fn new(vectors: Vec<Vector>) -> Self {
        let rows = vectors.first().map_or(0, Vector::len);
        assert!(
            vectors.iter().all(|v| v.len() == rows),
            "chunk vectors must have equal length"
        );
        Chunk {
            vectors: Arc::new(vectors),
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
        self.vectors.len()
    }

    /// Column `i`'s vector.
    pub fn vector(&self, i: usize) -> &Vector {
        &self.vectors[i]
    }

    /// All vectors.
    pub fn vectors(&self) -> &[Vector] {
        &self.vectors
    }

    /// Whether `other` holds the very vectors of this chunk, not a copy.
    pub fn shares_vectors(&self, other: &Chunk) -> bool {
        Arc::ptr_eq(&self.vectors, &other.vectors)
    }

    /// Gather the same row subset from every column.
    pub fn gather(&self, rids: &[u32]) -> Chunk {
        Chunk::new(self.vectors.iter().map(|v| v.gather(rids)).collect())
    }

    /// Project a subset of columns by index.
    pub fn project(&self, cols: &[usize]) -> Chunk {
        Chunk::new(cols.iter().map(|&c| self.vectors[c].clone()).collect())
    }

    /// Total bytes across vectors.
    pub fn size_bytes(&self) -> usize {
        self.vectors.iter().map(Vector::size_bytes).sum()
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
