//! Tables: partitions of chunks of column vectors, plus the column-level
//! transforms (dictionaries, DSB scales) and statistics.
//!
//! A [`Table`] is immutable once built. The host database is the single
//! source of truth: a change reaches RAPID as a new table, rebuilt from the
//! host row store and stamped with the host's SCN. [`TableBuilder`] is the
//! one load path, for generated data, `LOAD` and checkpoints alike: it
//! buffers rows, derives per-column encodings (order-preserving dictionary
//! codes for strings, a common DSB scale for decimals), computes
//! statistics, stores every column at the narrowest of 1, 2, 4 or 8 bytes
//! its min/max needs, and splits rows into chunks.

use serde::{Deserialize, Serialize};

use crate::bitvec::BitVec;
use crate::chunk::Chunk;
use crate::encoding::dict::Dictionary;
use crate::encoding::dsb::common_scale;
use crate::schema::Schema;
use crate::scn::Scn;
use crate::stats::{ColumnStats, TableStats};
use crate::types::{DataType, Value};
use crate::vector::{ColumnData, Vector};

/// One horizontal partition: a list of chunks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TablePartition {
    /// The partition's chunks.
    pub chunks: Vec<Chunk>,
}

impl TablePartition {
    /// Rows in this partition.
    pub fn rows(&self) -> usize {
        self.chunks.iter().map(Chunk::rows).sum()
    }
}

/// An in-memory columnar relation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column schema.
    pub schema: Schema,
    /// Horizontal partitions.
    pub partitions: Vec<TablePartition>,
    /// Per-column dictionary (Varchar columns only).
    pub dicts: Vec<Option<Dictionary>>,
    /// Per-column DSB scale (Decimal columns; 0 otherwise).
    pub scales: Vec<u8>,
    /// Table statistics.
    pub stats: TableStats,
    /// SCN as of which this table's contents are current.
    pub scn: Scn,
}

impl Table {
    /// Total rows across partitions.
    pub fn rows(&self) -> usize {
        self.partitions.iter().map(TablePartition::rows).sum()
    }

    /// Iterate all chunks, partition-major.
    pub fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.partitions.iter().flat_map(|p| p.chunks.iter())
    }

    /// Bytes per value of column `col` as its vectors are stored: the load
    /// path narrows a column to the 1, 2, 4 or 8 bytes its values need —
    /// whatever its declared type — and keeps that width in every chunk, so
    /// the first chunk answers for the table. A table without rows has
    /// stored nothing and answers with what its empty range needs, one
    /// byte. This is the width a scan hands on — what the DMS moves and a
    /// DMEM buffer holds per row of the column.
    pub fn column_width(&self, col: usize) -> usize {
        match self.chunks().next() {
            Some(chunk) => chunk.vector(col).data.width(),
            None => ColumnData::width_for(0, 0),
        }
    }

    /// Concatenate one column across all chunks, widened to `i64`
    /// (convenience for tests and the host engine; production operators
    /// stream chunk vectors instead).
    pub fn column_i64(&self, col: usize) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.rows());
        for c in self.chunks() {
            let v = c.vector(col);
            for i in 0..v.len() {
                out.push(v.data.get_i64(i));
            }
        }
        out
    }

    /// Null mask of one column across all chunks.
    pub fn column_nulls(&self, col: usize) -> BitVec {
        let mut out = BitVec::zeros(0);
        for c in self.chunks() {
            let v = c.vector(col);
            for i in 0..v.len() {
                out.push(v.is_null(i));
            }
        }
        out
    }

    /// Decode a widened physical value of column `col` back to a [`Value`].
    pub fn decode_value(&self, col: usize, widened: i64) -> Value {
        match self.schema.fields[col].dtype {
            DataType::Int => Value::Int(widened),
            DataType::Date => Value::Date(widened as i32),
            DataType::Decimal { .. } => Value::Decimal {
                unscaled: widened,
                scale: self.scales[col],
            },
            DataType::Varchar => Value::Str(
                self.dicts[col]
                    .as_ref()
                    .and_then(|d| d.value_of(widened as u32))
                    .unwrap_or("")
                    .to_string(),
            ),
        }
    }

    /// Encode a literal [`Value`] into the widened physical domain of
    /// column `col` (for predicate compilation). `None` when the value is
    /// not representable (e.g. a string absent from the dictionary).
    pub fn encode_value(&self, col: usize, v: &Value) -> Option<i64> {
        match self.schema.fields[col].dtype {
            DataType::Int => match v {
                Value::Int(x) => Some(*x),
                _ => None,
            },
            DataType::Date => match v {
                Value::Date(d) => Some(*d as i64),
                Value::Int(d) => Some(*d),
                _ => None,
            },
            DataType::Decimal { .. } => v.unscaled_at(self.scales[col]),
            DataType::Varchar => match v {
                Value::Str(s) => self.dicts[col]
                    .as_ref()
                    .and_then(|d| d.code_of(s))
                    .map(|c| c as i64),
                _ => None,
            },
        }
    }

    /// Total in-memory bytes of the table's vectors.
    pub fn size_bytes(&self) -> usize {
        self.chunks().map(Chunk::size_bytes).sum()
    }
}

/// Builder for [`Table`]: the load path.
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    chunk_rows: usize,
    target_partitions: usize,
    /// Row-major buffered values.
    rows: Vec<Vec<Value>>,
}

impl TableBuilder {
    /// Start building a table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableBuilder {
            name: name.into(),
            schema,
            chunk_rows: crate::DEFAULT_CHUNK_ROWS,
            target_partitions: 1,
            rows: Vec::new(),
        }
    }

    /// Rows per chunk (defaults to a 16 KiB vector of 4-byte elements).
    pub fn chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = rows.max(1);
        self
    }

    /// Number of horizontal partitions (chunks distributed round-robin).
    pub fn partitions(mut self, p: usize) -> Self {
        self.target_partitions = p.max(1);
        self
    }

    /// Append one row. Panics on arity mismatch; type errors surface at
    /// [`TableBuilder::finish`].
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.schema.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Append many rows.
    pub fn extend_rows<I: IntoIterator<Item = Vec<Value>>>(&mut self, rows: I) {
        for r in rows {
            self.push_row(r);
        }
    }

    /// Build the table: derive encodings, chunk, compute statistics.
    pub fn finish(self) -> Table {
        self.finish_at_scn(Scn::ZERO)
    }

    /// Build stamped with a load SCN.
    pub fn finish_at_scn(self, scn: Scn) -> Table {
        let ncols = self.schema.len();
        let nrows = self.rows.len();

        // Per-column widened physical values + null masks.
        let mut widened: Vec<Vec<i64>> = vec![Vec::with_capacity(nrows); ncols];
        let mut nulls: Vec<BitVec> = vec![BitVec::zeros(0); ncols];
        let mut dicts: Vec<Option<Dictionary>> = Vec::with_capacity(ncols);
        let mut scales: Vec<u8> = Vec::with_capacity(ncols);

        for (c, field) in self.schema.fields.iter().enumerate() {
            match field.dtype {
                DataType::Varchar => {
                    // Two passes: build a sorted dictionary so initial codes
                    // are order-preserving, then encode (every value is in
                    // it, so `insert` only looks its code up).
                    let mut dict =
                        Dictionary::build(self.rows.iter().filter_map(|r| match &r[c] {
                            Value::Str(s) => Some(s.clone()),
                            _ => None,
                        }));
                    for row in &self.rows {
                        match &row[c] {
                            Value::Str(s) => {
                                widened[c].push(dict.insert(s) as i64);
                                nulls[c].push(false);
                            }
                            Value::Null => {
                                widened[c].push(0);
                                nulls[c].push(true);
                            }
                            other => panic!("type mismatch in column {}: {other:?}", field.name),
                        }
                    }
                    dicts.push(Some(dict));
                    scales.push(0);
                }
                DataType::Decimal { .. } => {
                    let scale = common_scale(self.rows.iter().map(|r| &r[c]));
                    for row in &self.rows {
                        match &row[c] {
                            Value::Null => {
                                widened[c].push(0);
                                nulls[c].push(true);
                            }
                            v => {
                                // A value the common scale cannot hold
                                // exactly stores the nearest mantissa.
                                let u = v
                                    .unscaled_at(scale)
                                    .unwrap_or_else(|| approx_unscaled(v, scale));
                                widened[c].push(u);
                                nulls[c].push(false);
                            }
                        }
                    }
                    dicts.push(None);
                    scales.push(scale);
                }
                DataType::Int | DataType::Date => {
                    for row in &self.rows {
                        match &row[c] {
                            Value::Int(v) => {
                                widened[c].push(*v);
                                nulls[c].push(false);
                            }
                            Value::Date(d) => {
                                widened[c].push(*d as i64);
                                nulls[c].push(false);
                            }
                            Value::Null => {
                                widened[c].push(0);
                                nulls[c].push(true);
                            }
                            other => panic!("type mismatch in column {}: {other:?}", field.name),
                        }
                    }
                    dicts.push(None);
                    scales.push(0);
                }
            }
        }

        // Statistics over the whole table.
        let columns = (0..ncols)
            .map(|c| ColumnStats::compute(&widened[c], |i| nulls[c].get(i)))
            .collect();
        let stats = TableStats {
            rows: nrows as u64,
            columns,
        };

        // One stored width per column, the same in every chunk: the
        // narrowest that holds the column's range — codes, dates, integers
        // and DSB decimals alike — and the 0 a NULL row stores.
        let widths: Vec<usize> = stats
            .columns
            .iter()
            .map(|s| ColumnData::width_for(s.min.unwrap_or(0).min(0), s.max.unwrap_or(0).max(0)))
            .collect();

        // Chunk and distribute round-robin over partitions.
        let mut partitions = vec![TablePartition::default(); self.target_partitions];
        let mut start = 0usize;
        let mut chunk_idx = 0usize;
        while start < nrows {
            let end = (start + self.chunk_rows).min(nrows);
            let mut vectors = Vec::with_capacity(ncols);
            for c in 0..ncols {
                let mut data = ColumnData::with_width(widths[c], end - start);
                let mut nmask = BitVec::zeros(0);
                for (i, &w) in widened[c].iter().enumerate().take(end).skip(start) {
                    data.push_i64(if nulls[c].get(i) { 0 } else { w });
                    nmask.push(nulls[c].get(i));
                }
                vectors.push(Vector::with_nulls(data, nmask));
            }
            partitions[chunk_idx % self.target_partitions]
                .chunks
                .push(Chunk::new(vectors));
            chunk_idx += 1;
            start = end;
        }

        Table {
            name: self.name,
            schema: self.schema,
            partitions,
            dicts,
            scales,
            stats,
            scn,
        }
    }
}

/// `v` at `scale`, rounded to the nearest mantissa; 0 when that is past
/// `i64`.
fn approx_unscaled(v: &Value, scale: u8) -> i64 {
    v.to_f64()
        .map(|f| (f * 10f64.powi(scale as i32)).round())
        .filter(|f| f.is_finite() && f.abs() < i64::MAX as f64)
        .map(|f| f as i64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn sample_table(partitions: usize, chunk_rows: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("price", DataType::Decimal { scale: 2 }),
            Field::new("flag", DataType::Varchar),
            Field::nullable("d", DataType::Date),
        ]);
        let mut b = TableBuilder::new("t", schema)
            .partitions(partitions)
            .chunk_rows(chunk_rows);
        for i in 0..100i64 {
            b.push_row(vec![
                Value::Int(i),
                Value::Decimal {
                    unscaled: i * 100 + 25,
                    scale: 2,
                },
                Value::Str(if i % 2 == 0 { "A".into() } else { "R".into() }),
                if i % 10 == 0 {
                    Value::Null
                } else {
                    Value::Date(i as i32)
                },
            ]);
        }
        b.finish()
    }

    #[test]
    fn build_shape_and_stats() {
        let t = sample_table(2, 16);
        assert_eq!(t.rows(), 100);
        assert_eq!(t.partitions.len(), 2);
        assert_eq!(t.chunks().count(), 7); // ceil(100/16)
        assert_eq!(t.stats.rows, 100);
        assert_eq!(t.stats.columns[0].min, Some(0));
        assert_eq!(t.stats.columns[0].max, Some(99));
        assert_eq!(t.stats.columns[2].ndv, 2);
        assert_eq!(t.stats.columns[3].null_count, 10);
    }

    #[test]
    fn dictionary_codes_are_order_preserving_at_load() {
        let t = sample_table(1, 32);
        let dict = t.dicts[2].as_ref().unwrap();
        assert!(dict.codes_ordered());
        assert_eq!(dict.code_of("A"), Some(0));
        assert_eq!(dict.code_of("R"), Some(1));
        // Encoded data holds the codes.
        let codes = t.column_i64(2);
        assert_eq!(codes[0], 0);
        assert_eq!(codes[1], 1);
    }

    #[test]
    fn decimal_common_scale_and_decode() {
        let t = sample_table(1, 32);
        assert_eq!(t.scales[1], 2);
        let v = t.column_i64(1);
        assert_eq!(v[3], 325); // 3.25
        assert_eq!(
            t.decode_value(1, v[3]),
            Value::Decimal {
                unscaled: 325,
                scale: 2
            }
        );
    }

    #[test]
    fn values_past_the_common_scale_store_the_nearest_mantissa() {
        // 1/3 to 15 digits caps the column at scale 12 and stores rounded;
        // a mantissa past i64 at that scale stores 0.
        let dec = |unscaled, scale| Value::Decimal { unscaled, scale };
        let t = one_column(
            DataType::Decimal { scale: 2 },
            [
                dec(5, 1),
                dec(333_333_333_333_333, 15),
                Value::Int(i64::MAX / 2),
            ],
        );
        assert_eq!(t.scales[0], crate::encoding::dsb::MAX_DSB_SCALE);
        assert_eq!(
            t.column_i64(0),
            [500_000_000_000, 333_333_333_333, 0, 0],
            "the NULL row stores 0 too"
        );
    }

    #[test]
    fn encode_value_for_predicates() {
        let t = sample_table(1, 32);
        assert_eq!(t.encode_value(0, &Value::Int(42)), Some(42));
        assert_eq!(
            t.encode_value(
                1,
                &Value::Decimal {
                    unscaled: 5,
                    scale: 1
                }
            ),
            Some(50)
        );
        assert_eq!(t.encode_value(2, &Value::Str("R".into())), Some(1));
        assert_eq!(t.encode_value(2, &Value::Str("missing".into())), None);
    }

    #[test]
    fn nulls_survive_chunking() {
        let t = sample_table(3, 8);
        let nulls = t.column_nulls(3);
        // Chunks are distributed round-robin, so global row order is
        // permuted — but the null *count* is invariant.
        assert_eq!(nulls.count_ones(), 10);
    }

    #[test]
    fn integer_columns_are_narrowed() {
        let schema = Schema::new(vec![Field::new("small", DataType::Int)]);
        let mut b = TableBuilder::new("n", schema);
        for i in 0..50 {
            b.push_row(vec![Value::Int(i % 100)]);
        }
        let t = b.finish();
        let chunk = t.chunks().next().unwrap();
        assert_eq!(chunk.vector(0).data.width(), 1, "values 0..100 fit in i8");
        assert_eq!(t.column_width(0), 1);
    }

    #[test]
    fn column_width_is_the_width_of_every_chunk() {
        // k 0..100 fits one byte, price up to 9925 two; flag's two codes
        // and d's first hundred days of 1970 one each.
        let t = sample_table(3, 8);
        assert_eq!(
            (0..4).map(|c| t.column_width(c)).collect::<Vec<_>>(),
            [1, 2, 1, 1]
        );
        for chunk in t.chunks() {
            for c in 0..4 {
                assert_eq!(chunk.vector(c).data.width(), t.column_width(c));
            }
        }
        // Nothing stored: what an empty range needs, whatever the type.
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("d", DataType::Date),
        ]);
        let empty = TableBuilder::new("e", schema).finish();
        assert_eq!((empty.column_width(0), empty.column_width(1)), (1, 1));
    }

    /// One nullable column of `dtype` holding `values` and a NULL.
    fn one_column(dtype: DataType, values: impl IntoIterator<Item = Value>) -> Table {
        let mut b = TableBuilder::new("w", Schema::new(vec![Field::nullable("c", dtype)]));
        b.extend_rows(values.into_iter().map(|v| vec![v]));
        b.push_row(vec![Value::Null]);
        b.finish()
    }

    #[test]
    fn dictionary_codes_take_the_bytes_their_count_needs() {
        // Codes are 0..n-1, so one byte holds 128 strings and two 32,768.
        for (distinct, width) in [
            (127, 1),
            (128, 1),
            (129, 2),
            (32_767, 2),
            (32_768, 2),
            (32_769, 4),
        ] {
            // Pushed in reverse: the codes still follow string order.
            let t = one_column(
                DataType::Varchar,
                (0..distinct).rev().map(|i| Value::Str(format!("s{i:05}"))),
            );
            assert_eq!(t.column_width(0), width, "{distinct} strings");
            assert!(t.dicts[0].as_ref().unwrap().codes_ordered());
            let codes = t.column_i64(0);
            assert_eq!(codes[0], distinct - 1, "{distinct} strings");
            assert_eq!(codes[distinct as usize - 1], 0);
            assert_eq!(t.column_nulls(0).count_ones(), 1);
            let last = Value::Str(format!("s{:05}", distinct - 1));
            assert_eq!(t.decode_value(0, distinct - 1), last);
            assert_eq!(t.encode_value(0, &last), Some(distinct - 1));
        }
    }

    #[test]
    fn dates_take_two_bytes_inside_the_i16_day_range_and_four_outside() {
        use crate::types::parse_date;
        let date = |s: &str| parse_date(s).expect("date");
        // Day −32,768 is 1880-04-14 and day 32,767 2059-09-18.
        for (dates, width) in [
            (["1969-08-26", "1970-05-08"], 1),
            (["1969-08-25", "1970-05-08"], 2),
            (["1880-04-14", "2059-09-18"], 2),
            (["1880-04-13", "1995-01-01"], 4),
            (["1995-01-01", "2059-09-19"], 4),
        ] {
            let t = one_column(DataType::Date, dates.map(|d| Value::Date(date(d))));
            assert_eq!(t.column_width(0), width, "{dates:?}");
            let days = t.column_i64(0);
            assert_eq!(&days[..2], &dates.map(|d| date(d) as i64), "{dates:?}");
            assert_eq!(t.decode_value(0, days[1]), Value::Date(date(dates[1])));
        }
    }

    #[test]
    fn empty_table() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let t = TableBuilder::new("e", schema).finish();
        assert_eq!(t.rows(), 0);
        assert_eq!(t.stats.rows, 0);
        assert_eq!(t.column_i64(0), Vec::<i64>::new());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut b = TableBuilder::new("e", schema);
        b.push_row(vec![Value::Int(1), Value::Int(2)]);
    }
}
