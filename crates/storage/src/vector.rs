//! Column vectors: flat, fixed-width arrays — the unit of storage inside a
//! chunk and the unit of transfer programmed into the DMS.
//!
//! [`ColumnData`] is the physical array in one of the DPU's supported
//! widths (1, 2, 4 or 8 bytes), always signed: integers, DSB decimals,
//! dates and dictionary codes alike are stored at the narrowest width their
//! values need ([`ColumnData::width_for`]). [`Vector`] adds an optional null
//! bitmap. The engine's canonical compute representation is `i64` (the
//! widening accessors below); narrow widths matter for storage footprint
//! and for DMS byte accounting, which is why they are preserved here rather
//! than widened at load time.

use crate::bitvec::BitVec;

/// Physical column data at one of the four supported fixed widths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnData {
    /// 1-byte signed integers.
    I8(Vec<i8>),
    /// 2-byte signed integers.
    I16(Vec<i16>),
    /// 4-byte signed integers.
    I32(Vec<i32>),
    /// 8-byte signed integers.
    I64(Vec<i64>),
}

impl ColumnData {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I8(v) => v.len(),
            ColumnData::I16(v) => v.len(),
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
        }
    }

    /// Whether there are zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element width in bytes.
    pub fn width(&self) -> usize {
        match self {
            ColumnData::I8(_) => 1,
            ColumnData::I16(_) => 2,
            ColumnData::I32(_) => 4,
            ColumnData::I64(_) => 8,
        }
    }

    /// Total bytes of the flat array.
    pub fn size_bytes(&self) -> usize {
        self.len() * self.width()
    }

    /// Widening (sign-extending) read of element `i` as `i64`.
    #[inline]
    pub fn get_i64(&self, i: usize) -> i64 {
        match self {
            ColumnData::I8(v) => v[i] as i64,
            ColumnData::I16(v) => v[i] as i64,
            ColumnData::I32(v) => v[i] as i64,
            ColumnData::I64(v) => v[i],
        }
    }

    /// Materialize the whole column widened to `i64`.
    pub fn to_i64_vec(&self) -> Vec<i64> {
        (0..self.len()).map(|i| self.get_i64(i)).collect()
    }

    /// Bytes of the narrowest signed width — 1, 2, 4 or 8 — that holds
    /// every value of `[lo, hi]`: the one rule by which the load path picks
    /// a column's stored width.
    pub fn width_for(lo: i64, hi: i64) -> usize {
        let fits = |min: i64, max: i64| lo >= min && hi <= max;
        if fits(i8::MIN.into(), i8::MAX.into()) {
            1
        } else if fits(i16::MIN.into(), i16::MAX.into()) {
            2
        } else if fits(i32::MIN.into(), i32::MAX.into()) {
            4
        } else {
            8
        }
    }

    /// An empty column of `width` bytes a value (1, 2, 4, else 8) with room
    /// for `rows`: the one place a variant is chosen from a width.
    pub fn with_width(width: usize, rows: usize) -> ColumnData {
        match width {
            1 => ColumnData::I8(Vec::with_capacity(rows)),
            2 => ColumnData::I16(Vec::with_capacity(rows)),
            4 => ColumnData::I32(Vec::with_capacity(rows)),
            _ => ColumnData::I64(Vec::with_capacity(rows)),
        }
    }

    /// Gather elements by row offsets (the DMS RID-gather, functionally).
    pub fn gather(&self, rids: &[u32]) -> ColumnData {
        let mut out = ColumnData::with_width(self.width(), rids.len());
        out.extend_rows(self, rids.iter().map(|&r| r as usize));
        out
    }

    /// The same values as signed integers of `width` bytes, read the way
    /// [`get_i64`](Self::get_i64) widens them. A column already that wide,
    /// or wider, comes back as it is: widening never loses a value.
    pub fn widened(self, width: usize) -> ColumnData {
        fn widen<T: Copy, U: From<T>>(v: Vec<T>) -> Vec<U> {
            v.into_iter().map(U::from).collect()
        }
        match (self, width) {
            (ColumnData::I8(v), 2) => ColumnData::I16(widen(v)),
            (ColumnData::I8(v), 4) => ColumnData::I32(widen(v)),
            (ColumnData::I8(v), 8) => ColumnData::I64(widen(v)),
            (ColumnData::I16(v), 4) => ColumnData::I32(widen(v)),
            (ColumnData::I16(v), 8) => ColumnData::I64(widen(v)),
            (ColumnData::I32(v), 8) => ColumnData::I64(widen(v)),
            (same, _) => same,
        }
    }

    /// Contiguous sub-range `[from, to)` of the column.
    pub fn slice(&self, from: usize, to: usize) -> ColumnData {
        match self {
            ColumnData::I8(v) => ColumnData::I8(v[from..to].to_vec()),
            ColumnData::I16(v) => ColumnData::I16(v[from..to].to_vec()),
            ColumnData::I32(v) => ColumnData::I32(v[from..to].to_vec()),
            ColumnData::I64(v) => ColumnData::I64(v[from..to].to_vec()),
        }
    }

    /// Append another column of the same variant.
    pub fn extend_from(&mut self, other: &ColumnData) {
        match (self, other) {
            (ColumnData::I8(a), ColumnData::I8(b)) => a.extend_from_slice(b),
            (ColumnData::I16(a), ColumnData::I16(b)) => a.extend_from_slice(b),
            (ColumnData::I32(a), ColumnData::I32(b)) => a.extend_from_slice(b),
            (ColumnData::I64(a), ColumnData::I64(b)) => a.extend_from_slice(b),
            (a, b) => panic!(
                "column variant mismatch: {:?} vs {:?}",
                a.width(),
                b.width()
            ),
        }
    }

    /// Append `other[i]` for each `i` of `rows` — one run of a gather whose
    /// source is split over several columns. Same variant required.
    pub fn extend_rows(&mut self, other: &ColumnData, rows: impl Iterator<Item = usize>) {
        match (self, other) {
            (ColumnData::I8(a), ColumnData::I8(b)) => a.extend(rows.map(|i| b[i])),
            (ColumnData::I16(a), ColumnData::I16(b)) => a.extend(rows.map(|i| b[i])),
            (ColumnData::I32(a), ColumnData::I32(b)) => a.extend(rows.map(|i| b[i])),
            (ColumnData::I64(a), ColumnData::I64(b)) => a.extend(rows.map(|i| b[i])),
            (a, b) => panic!(
                "column variant mismatch: {:?} vs {:?}",
                a.width(),
                b.width()
            ),
        }
    }

    /// Push a widened value, narrowing into the variant. Writers pick the
    /// width from the values' range first ([`width_for`](Self::width_for)),
    /// so every value fits; one that does not widens the column rather than
    /// lose its high bits.
    pub fn push_i64(&mut self, v: i64) {
        let pushed = match self {
            ColumnData::I8(c) => i8::try_from(v).map(|x| c.push(x)),
            ColumnData::I16(c) => i16::try_from(v).map(|x| c.push(x)),
            ColumnData::I32(c) => i32::try_from(v).map(|x| c.push(x)),
            ColumnData::I64(c) => {
                c.push(v);
                Ok(())
            }
        };
        if pushed.is_err() {
            let narrow = std::mem::replace(self, ColumnData::I64(Vec::new()));
            *self = narrow.widened(Self::width_for(v, v));
            self.push_i64(v);
        }
    }
}

/// A column vector: physical data plus an optional null bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    /// Physical values (meaningless where the null bit is set).
    pub data: ColumnData,
    /// Null bitmap; bit set ⇒ value is NULL. `None` ⇒ no nulls.
    pub nulls: Option<BitVec>,
}

impl Vector {
    /// A vector without nulls.
    pub fn new(data: ColumnData) -> Self {
        Vector { data, nulls: None }
    }

    /// A vector with a null bitmap (dropped if it has no set bits).
    pub fn with_nulls(data: ColumnData, nulls: BitVec) -> Self {
        assert_eq!(data.len(), nulls.len(), "null bitmap length mismatch");
        if nulls.count_ones() == 0 {
            Vector { data, nulls: None }
        } else {
            Vector {
                data,
                nulls: Some(nulls),
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has zero rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n.get(i))
    }

    /// Whether any row is NULL.
    pub fn has_nulls(&self) -> bool {
        self.nulls.is_some()
    }

    /// Widened value of row `i`, or `None` for NULL.
    #[inline]
    pub fn get(&self, i: usize) -> Option<i64> {
        if self.is_null(i) {
            None
        } else {
            Some(self.data.get_i64(i))
        }
    }

    /// Gather rows by offsets (nulls gathered alongside).
    pub fn gather(&self, rids: &[u32]) -> Vector {
        let data = self.data.gather(rids);
        let nulls = self
            .nulls
            .as_ref()
            .map(|n| BitVec::from_bools(rids.iter().map(|&r| n.get(r as usize))));
        match nulls {
            Some(n) => Vector::with_nulls(data, n),
            None => Vector::new(data),
        }
    }

    /// Contiguous sub-range `[from, to)`.
    pub fn slice(&self, from: usize, to: usize) -> Vector {
        let data = self.data.slice(from, to);
        let nulls = self
            .nulls
            .as_ref()
            .map(|n| BitVec::from_bools((from..to).map(|i| n.get(i))));
        match nulls {
            Some(n) => Vector::with_nulls(data, n),
            None => Vector::new(data),
        }
    }

    /// Bytes of the vector in memory (data + null bitmap).
    pub fn size_bytes(&self) -> usize {
        self.data.size_bytes() + self.nulls.as_ref().map_or(0, |n| n.size_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_reads() {
        assert_eq!(ColumnData::I8(vec![-5]).get_i64(0), -5);
        assert_eq!(ColumnData::I16(vec![-500]).get_i64(0), -500);
        assert_eq!(ColumnData::I32(vec![-70000]).get_i64(0), -70000);
        assert_eq!(ColumnData::I64(vec![1 << 40]).get_i64(0), 1 << 40);
    }

    #[test]
    fn widened_keeps_values_and_never_narrows() {
        let narrow = ColumnData::I8(vec![-5, 0, 127]);
        assert_eq!(narrow.clone().widened(1), narrow);
        assert_eq!(narrow.widened(2), ColumnData::I16(vec![-5, 0, 127]));
        let wide = ColumnData::I32(vec![i32::MIN]);
        assert_eq!(wide.clone().widened(4), wide);
        assert_eq!(wide.clone().widened(2), wide);
        assert_eq!(wide.widened(8), ColumnData::I64(vec![i32::MIN as i64]));
    }

    #[test]
    fn a_value_too_wide_for_the_column_widens_it() {
        let mut col = ColumnData::I8(vec![-5]);
        col.push_i64(300);
        assert_eq!(col, ColumnData::I16(vec![-5, 300]));
        col.push_i64(-7);
        assert_eq!(col, ColumnData::I16(vec![-5, 300, -7]));
    }

    #[test]
    fn width_for_is_the_signed_range_of_each_width() {
        for (lo, hi, width) in [
            (0, 127, 1),
            (-128, 0, 1),
            (0, 128, 2),
            (-129, 0, 2),
            (-32_768, 32_767, 2),
            (0, 32_768, 4),
            (-32_769, 0, 4),
            (i32::MIN as i64, i32::MAX as i64, 4),
            (0, i32::MAX as i64 + 1, 8),
        ] {
            assert_eq!(ColumnData::width_for(lo, hi), width, "[{lo}, {hi}]");
            assert_eq!(ColumnData::with_width(width, 0).width(), width);
        }
    }

    #[test]
    fn gather_and_slice() {
        let col = ColumnData::I32(vec![10, 20, 30, 40, 50]);
        assert_eq!(col.gather(&[4, 0, 2]).to_i64_vec(), vec![50, 10, 30]);
        assert_eq!(col.slice(1, 4).to_i64_vec(), vec![20, 30, 40]);
    }

    #[test]
    fn extend_rows_appends_runs_of_a_gather_from_their_sources() {
        // Rows 10..13 live in `second`; a gather over global row ids picks
        // from each source the rows of it.
        let first = ColumnData::I16(vec![1, 2, 3]);
        let second = ColumnData::I16(vec![40, 50, 60]);
        let mut out = ColumnData::with_width(first.width(), 7);
        out.extend_rows(&first, [2, 0].into_iter());
        out.extend_rows(&second, [10usize, 12].into_iter().map(|r| r - 10));
        out.extend_rows(&second, 1..2);
        out.extend_rows(&first, 1..3);
        assert_eq!(out, ColumnData::I16(vec![3, 1, 40, 60, 50, 2, 3]));
    }

    #[test]
    fn vector_null_semantics() {
        let mut nulls = BitVec::zeros(3);
        nulls.set(1, true);
        let v = Vector::with_nulls(ColumnData::I64(vec![1, 2, 3]), nulls);
        assert_eq!(v.get(0), Some(1));
        assert_eq!(v.get(1), None);
        assert!(v.has_nulls());
        let g = v.gather(&[1, 2]);
        assert_eq!(g.get(0), None);
        assert_eq!(g.get(1), Some(3));
    }

    #[test]
    fn all_clear_null_bitmap_is_dropped() {
        let v = Vector::with_nulls(ColumnData::I64(vec![1, 2]), BitVec::zeros(2));
        assert!(!v.has_nulls());
    }

    #[test]
    fn slice_keeps_null_alignment() {
        let mut nulls = BitVec::zeros(5);
        nulls.set(3, true);
        let v = Vector::with_nulls(ColumnData::I32(vec![0, 1, 2, 3, 4]), nulls);
        let s = v.slice(2, 5);
        assert_eq!(s.get(0), Some(2));
        assert_eq!(s.get(1), None);
        assert_eq!(s.get(2), Some(4));
    }

    #[test]
    #[should_panic(expected = "variant mismatch")]
    fn extend_mismatched_variant_panics() {
        let mut a = ColumnData::I8(vec![1]);
        a.extend_from(&ColumnData::I64(vec![2]));
    }

    #[test]
    fn size_accounting() {
        let v = Vector::new(ColumnData::I32(vec![0; 4096]));
        assert_eq!(v.size_bytes(), crate::VECTOR_BYTES);
    }
}
