//! Tables: chunks of column vectors in heap-slot order, plus the
//! column-level transforms (dictionaries, DSB scales) and statistics.
//!
//! A [`Table`] is immutable once built. The host database is the single
//! source of truth: a change reaches RAPID as a new table, built from the
//! host row store's heap slots and stamped with the host's SCN.
//! [`TableBuilder`] is the one load path, for generated data, `LOAD` and
//! checkpoints alike: chunk `k` holds the live rows of slots `[k ×
//! chunk_rows, (k + 1) × chunk_rows)`. A full build derives per-column
//! encodings (order-preserving dictionary codes for strings, a common DSB
//! scale for decimals, the narrowest of 1, 2, 4 or 8 bytes a column's
//! min/max needs) and encodes every chunk; a checkpoint's build shares the
//! chunks no commit touched with the table RAPID holds and encodes the
//! others with that table's encodings, where those are still what a full
//! build derives. Either way the table is a full build's, and the
//! statistics are computed exactly, one sorted pass per column over the
//! new chunks, after the rows have been read. A chunk's zone maps are
//! computed when it is encoded, so a shared chunk brings its own.

use std::borrow::Cow;
use std::sync::Arc;

use crate::bitvec::BitVec;
use crate::chunk::Chunk;
use crate::encoding::dict::Dictionary;
use crate::encoding::dsb::common_scale;
use crate::schema::{Field, Schema};
use crate::scn::Scn;
use crate::stats::TableStats;
use crate::types::{DataType, Value};
use crate::vector::{ColumnData, Vector};

/// An in-memory columnar relation.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column schema.
    pub schema: Schema,
    /// The chunks in heap-slot order: chunk `k` holds the live rows of
    /// slots `[k × chunk_rows, (k + 1) × chunk_rows)`.
    pub chunks: Vec<Chunk>,
    /// Heap slots per chunk.
    pub chunk_rows: usize,
    /// Per-column dictionary (Varchar columns only), shared with every
    /// table a checkpoint builds with the same encodings.
    pub dicts: Arc<Vec<Option<Dictionary>>>,
    /// Per-column DSB scale (Decimal columns; 0 otherwise).
    pub scales: Vec<u8>,
    /// Table statistics.
    pub stats: TableStats,
    /// SCN as of which this table's contents are current.
    pub scn: Scn,
}

impl Table {
    /// Total rows across chunks.
    pub fn rows(&self) -> usize {
        self.chunks.iter().map(Chunk::rows).sum()
    }

    /// Bytes per value of column `col` as its vectors are stored: the load
    /// path narrows a column to the 1, 2, 4 or 8 bytes its values need —
    /// whatever its declared type — and keeps that width in every chunk, so
    /// the first chunk answers for the table. A table without rows has
    /// stored nothing and answers with what its empty range needs, one
    /// byte. This is the width a scan hands on — what the DMS moves and a
    /// DMEM buffer holds per row of the column.
    pub fn column_width(&self, col: usize) -> usize {
        match self.chunks.first() {
            Some(chunk) => chunk.vector(col).data.width(),
            None => ColumnData::width_for(0, 0),
        }
    }

    /// Concatenate one column across all chunks, widened to `i64`
    /// (convenience for tests and the host engine; production operators
    /// stream chunk vectors instead).
    pub fn column_i64(&self, col: usize) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.rows());
        for c in &self.chunks {
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
        for c in &self.chunks {
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
        self.chunks.iter().map(Chunk::size_bytes).sum()
    }
}

/// Builder for [`Table`]: the load path.
///
/// Rows sit in heap slots, and chunk `k` holds the live rows of slots
/// `[k × chunk_rows, (k + 1) × chunk_rows)`.
/// Rows pushed here fill slots in order; a checkpoint hands over the host
/// heap's slots, deleted ones included, without copying them
/// ([`over_slots`](Self::over_slots)). A rebuild against the table RAPID
/// holds ([`reusing`](Self::reusing)) shares every chunk no change has
/// touched since and encodes the others with that table's encodings.
#[derive(Debug)]
pub struct TableBuilder<'a> {
    name: String,
    schema: Schema,
    chunk_rows: usize,
    /// Heap slots in order: a row, or `None` where one was deleted.
    slots: Cow<'a, [Option<Vec<Value>>]>,
    /// The previous build of these slots and, per chunk, the SCN of the
    /// last change to one of its slots.
    base: Option<(&'a Table, &'a [Scn])>,
}

impl<'a> TableBuilder<'a> {
    /// Start building a table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableBuilder::over(name.into(), schema, Cow::Owned(Vec::new()))
    }

    /// Build from heap slots the caller keeps: each `None` is a deleted
    /// row, and no row is copied.
    pub fn over_slots(
        name: impl Into<String>,
        schema: Schema,
        slots: &'a [Option<Vec<Value>>],
    ) -> Self {
        TableBuilder::over(name.into(), schema, Cow::Borrowed(slots))
    }

    fn over(name: String, schema: Schema, slots: Cow<'a, [Option<Vec<Value>>]>) -> Self {
        TableBuilder {
            name,
            schema,
            chunk_rows: crate::DEFAULT_CHUNK_ROWS,
            slots,
            base: None,
        }
    }

    /// Slots per chunk (defaults to a 16 KiB vector of 4-byte elements).
    pub fn chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = rows.max(1);
        self
    }

    /// Rebuild against `base`, an earlier build of the same slots: chunk `k`
    /// is `base`'s own where `stamps[k]`, the SCN of the last change to one
    /// of its `chunk_rows` slots, is not past `base.scn`. Every other chunk
    /// is encoded with `base`'s dictionaries, DSB scales and stored widths.
    /// The build derives every encoding afresh and encodes every chunk, as
    /// without a base, where `base` is chunked or typed otherwise, where
    /// those encodings do not hold a value exactly — a string the
    /// dictionary lacks, a decimal the scale cannot hold, a value
    /// past the stored width — and where they are more than the rows need:
    /// a string no row holds, a scale or a width no value needs any more.
    /// Either way the table is the one a build without a base gives.
    pub fn reusing(mut self, base: &'a Table, stamps: &'a [Scn]) -> Self {
        self.base = Some((base, stamps));
        self
    }

    /// Append one row. Panics on arity mismatch; type errors surface at
    /// [`TableBuilder::finish`].
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.schema.len(), "row arity mismatch");
        self.slots.to_mut().push(Some(row));
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
        self.encode().finish_at_scn(scn)
    }

    /// Encode every chunk. What is left, the statistics, reads the chunks
    /// and not the slots, so a caller that lent the slots can take them
    /// back before [`EncodedTable::finish_at_scn`].
    pub fn encode(self) -> EncodedTable {
        let chunked = || self.slots.chunks(self.chunk_rows);
        let patched = self
            .base
            .filter(|(base, _)| base.schema == self.schema && base.chunk_rows == self.chunk_rows)
            .and_then(|(base, stamps)| {
                let enc = Encodings::of(base);
                let chunks = chunked().enumerate().map(|(k, slots)| {
                    let unchanged = stamps.get(k).is_some_and(|&at| at <= base.scn);
                    match base.chunks.get(k) {
                        Some(kept) if unchanged => Some(kept.clone()),
                        _ => match enc.encode(&self.schema, slots) {
                            (chunk, true) => Some(chunk),
                            (_, false) => None,
                        },
                    }
                });
                let chunks = chunks.collect::<Option<Vec<_>>>()?;
                enc.derived_from(&chunks).then_some((chunks, enc))
            });
        let (chunks, enc) = patched.unwrap_or_else(|| {
            let enc = Encodings::derive(&self.schema, &self.slots);
            let chunks = chunked().map(|slots| enc.encode(&self.schema, slots).0);
            (chunks.collect(), enc)
        });
        EncodedTable {
            name: self.name,
            schema: self.schema,
            chunk_rows: self.chunk_rows,
            chunks,
            enc,
        }
    }
}

/// A table whose chunks [`TableBuilder::encode`] has encoded, before its
/// statistics.
#[derive(Debug)]
pub struct EncodedTable {
    name: String,
    schema: Schema,
    chunk_rows: usize,
    chunks: Vec<Chunk>,
    enc: Encodings,
}

impl EncodedTable {
    /// Compute the statistics, one sorted pass per column over the chunks,
    /// and stamp the table with `scn`.
    pub fn finish_at_scn(self, scn: Scn) -> Table {
        let stats = TableStats::of_chunks(&self.chunks, self.schema.len());
        Table {
            name: self.name,
            schema: self.schema,
            chunks: self.chunks,
            chunk_rows: self.chunk_rows,
            dicts: self.enc.dicts,
            scales: self.enc.scales,
            stats,
            scn,
        }
    }
}

/// How a table's columns are encoded: dictionaries for strings, DSB scales
/// for decimals, and one stored width per column, the same in every chunk.
#[derive(Debug)]
struct Encodings {
    dicts: Arc<Vec<Option<Dictionary>>>,
    scales: Vec<u8>,
    widths: Vec<usize>,
}

impl Encodings {
    /// The encodings `table` was built with; its dictionaries are shared,
    /// not copied.
    fn of(table: &Table) -> Encodings {
        Encodings {
            dicts: Arc::clone(&table.dicts),
            scales: table.scales.clone(),
            widths: (0..table.schema.len())
                .map(|c| table.column_width(c))
                .collect(),
        }
    }

    /// Encodings derived from the live rows of `slots`: a sorted dictionary
    /// per string column, so that codes are order-preserving; the common
    /// DSB scale per decimal column; and the narrowest width that holds a
    /// column's range — codes, dates, integers and DSB decimals alike — and
    /// the 0 a NULL row stores.
    fn derive(schema: &Schema, slots: &[Option<Vec<Value>>]) -> Encodings {
        let rows = || slots.iter().flatten();
        let fields = || schema.fields.iter().enumerate();
        let dicts = fields()
            .map(|(c, f)| {
                (f.dtype == DataType::Varchar).then(|| {
                    let mut strings: Vec<&str> = rows()
                        .filter_map(|r| match &r[c] {
                            Value::Str(s) => Some(s.as_str()),
                            _ => None,
                        })
                        .collect();
                    strings.sort_unstable();
                    strings.dedup();
                    Dictionary::build(strings)
                })
            })
            .collect();
        let scales = fields()
            .map(|(c, f)| match f.dtype {
                DataType::Decimal { .. } => common_scale(rows().map(|r| &r[c])),
                _ => 0,
            })
            .collect();
        let mut enc = Encodings {
            dicts: Arc::new(dicts),
            scales,
            widths: Vec::new(),
        };
        enc.widths = fields()
            .map(|(c, f)| {
                let values = rows().filter_map(|r| enc.value(c, f, &r[c]));
                let (lo, hi) = values.fold((0, 0), |(lo, hi), (v, _)| (v.min(lo), v.max(hi)));
                ColumnData::width_for(lo, hi)
            })
            .collect();
        enc
    }

    /// The live rows of `slots` as one chunk, and whether these encodings
    /// hold every value exactly at its column's stored width. Where they do
    /// not, the chunk holds the nearest mantissa of a decimal past the
    /// scale, code 0 for a string past the dictionary, and a column widened
    /// past its stored width.
    fn encode(&self, schema: &Schema, slots: &[Option<Vec<Value>>]) -> (Chunk, bool) {
        let live = slots.iter().flatten().count();
        let mut exact = true;
        let vectors = schema
            .fields
            .iter()
            .enumerate()
            .map(|(c, field)| {
                let mut data = ColumnData::with_width(self.widths[c], live);
                let mut nulls = BitVec::zeros(live);
                for (i, row) in slots.iter().flatten().enumerate() {
                    match self.value(c, field, &row[c]) {
                        Some((v, held)) => {
                            exact &= held && ColumnData::width_for(v, v) <= self.widths[c];
                            data.push_i64(v);
                        }
                        None => {
                            nulls.set(i, true);
                            data.push_i64(0);
                        }
                    }
                }
                Vector::with_nulls(data, nulls)
            })
            .collect();
        (Chunk::new(vectors), exact)
    }

    /// Whether [`derive`](Self::derive) over the rows of `chunks`, which
    /// these encodings hold exactly, gives these very encodings: some row
    /// holds every string of each dictionary, some mantissa of each decimal
    /// column past scale 0 does not end in a 0 digit (else a smaller scale
    /// holds them all), and each column's range needs its whole stored
    /// width.
    fn derived_from(&self, chunks: &[Chunk]) -> bool {
        (0..self.widths.len()).all(|c| {
            let mut unused = self.dicts[c].as_ref().map_or(0, Dictionary::len);
            let mut held = BitVec::zeros(unused);
            let mut needs_scale = self.scales[c] == 0;
            let (mut lo, mut hi) = (0, 0);
            for vector in chunks.iter().map(|chunk| chunk.vector(c)) {
                for v in (0..vector.len()).filter_map(|i| vector.get(i)) {
                    (lo, hi) = (lo.min(v), hi.max(v));
                    needs_scale |= v % 10 != 0;
                    if unused > 0 && !held.get(v as usize) {
                        held.set(v as usize, true);
                        unused -= 1;
                    }
                }
            }
            unused == 0 && needs_scale && ColumnData::width_for(lo, hi) == self.widths[c]
        })
    }

    /// The widened value `v` of column `c` stores, `None` for NULL, and
    /// whether these encodings hold it exactly. Panics on a value of
    /// another type.
    fn value(&self, c: usize, field: &Field, v: &Value) -> Option<(i64, bool)> {
        Some(match (field.dtype, v) {
            (_, Value::Null) => return None,
            (DataType::Varchar, Value::Str(s)) => {
                match self.dicts[c].as_ref().and_then(|d| d.code_of(s)) {
                    Some(code) => (code as i64, true),
                    None => (0, false),
                }
            }
            (DataType::Decimal { .. }, v) => match v.unscaled_at(self.scales[c]) {
                Some(u) => (u, true),
                // A value the common scale cannot hold exactly stores the
                // nearest mantissa.
                None => (approx_unscaled(v, self.scales[c]), false),
            },
            (DataType::Int | DataType::Date, Value::Int(x)) => (*x, true),
            (DataType::Int | DataType::Date, Value::Date(d)) => (*d as i64, true),
            (_, other) => panic!("type mismatch in column {}: {other:?}", field.name),
        })
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

    fn sample_table(chunk_rows: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("price", DataType::Decimal { scale: 2 }),
            Field::new("flag", DataType::Varchar),
            Field::nullable("d", DataType::Date),
        ]);
        let mut b = TableBuilder::new("t", schema).chunk_rows(chunk_rows);
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
        let t = sample_table(16);
        assert_eq!(t.rows(), 100);
        assert_eq!(t.chunks.len(), 7); // ceil(100/16)
        assert_eq!(t.chunks[6].rows(), 4, "the last chunk holds slots 96..100");
        assert_eq!(t.stats.rows, 100);
        assert_eq!(t.stats.columns[0].min, Some(0));
        assert_eq!(t.stats.columns[0].max, Some(99));
        assert_eq!(t.stats.columns[2].ndv, 2);
        assert_eq!(t.stats.columns[3].null_count, 10);
    }

    #[test]
    fn dictionary_codes_are_order_preserving_at_load() {
        let t = sample_table(32);
        let dict = t.dicts[2].as_ref().unwrap();
        assert!(dict.values().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(dict.code_of("A"), Some(0));
        assert_eq!(dict.code_of("R"), Some(1));
        // Encoded data holds the codes.
        let codes = t.column_i64(2);
        assert_eq!(codes[0], 0);
        assert_eq!(codes[1], 1);
    }

    #[test]
    fn decimal_common_scale_and_decode() {
        let t = sample_table(32);
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
        let t = sample_table(32);
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
        let t = sample_table(8);
        let nulls = t.column_nulls(3);
        // Chunks keep slot order, so every tenth row is NULL.
        assert_eq!(nulls.count_ones(), 10);
        assert!((0..100).all(|i| nulls.get(i) == (i % 10 == 0)));
    }

    #[test]
    fn integer_columns_are_narrowed() {
        let schema = Schema::new(vec![Field::new("small", DataType::Int)]);
        let mut b = TableBuilder::new("n", schema);
        for i in 0..50 {
            b.push_row(vec![Value::Int(i % 100)]);
        }
        let t = b.finish();
        let chunk = &t.chunks[0];
        assert_eq!(chunk.vector(0).data.width(), 1, "values 0..100 fit in i8");
        assert_eq!(t.column_width(0), 1);
    }

    #[test]
    fn column_width_is_the_width_of_every_chunk() {
        // k 0..100 fits one byte, price up to 9925 two; flag's two codes
        // and d's first hundred days of 1970 one each.
        let t = sample_table(8);
        assert_eq!(
            (0..4).map(|c| t.column_width(c)).collect::<Vec<_>>(),
            [1, 2, 1, 1]
        );
        for chunk in &t.chunks {
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
            let dict = t.dicts[0].as_ref().unwrap();
            assert!(dict.values().windows(2).all(|w| w[0] < w[1]));
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

    /// Heap slot `i` of a four-column table: key `i`, a price, a flag
    /// string and a date that is NULL on every fifth row.
    fn slot(i: i64) -> Option<Vec<Value>> {
        Some(vec![
            Value::Int(i),
            Value::Decimal {
                unscaled: i * 10 + 5,
                scale: 1,
            },
            Value::Str(["A", "N", "R"][i as usize % 3].into()),
            if i % 5 == 0 {
                Value::Null
            } else {
                Value::Date(100 + i as i32)
            },
        ])
    }

    fn slot_schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("price", DataType::Decimal { scale: 2 }),
            Field::new("flag", DataType::Varchar),
            Field::nullable("d", DataType::Date),
        ])
    }

    /// `slots` built at `scn` in chunks of 4 slots, against `base` where
    /// given.
    fn build(slots: &[Option<Vec<Value>>], scn: u64, base: Option<(&Table, &[Scn])>) -> Table {
        let mut b = TableBuilder::over_slots("s", slot_schema(), slots).chunk_rows(4);
        if let Some((table, stamps)) = base {
            b = b.reusing(table, stamps);
        }
        b.finish_at_scn(Scn(scn))
    }

    fn keys(chunk: &Chunk) -> Vec<i64> {
        chunk.vector(0).data.to_i64_vec()
    }

    /// Everything a full build derives, compared with `t`.
    fn assert_same_as_full_build(t: &Table, slots: &[Option<Vec<Value>>]) {
        let full = build(slots, t.scn.0, None);
        assert_eq!(t.chunks, full.chunks);
        assert_eq!(t.stats, full.stats);
        assert_eq!(t.scales, full.scales);
        let values = |t: &Table| -> Vec<Option<Vec<String>>> {
            t.dicts
                .iter()
                .map(|d| d.as_ref().map(|d| d.values().to_vec()))
                .collect()
        };
        assert_eq!(values(t), values(&full));
    }

    #[test]
    fn chunks_follow_heap_slots() {
        // Slot 1 and all of chunk 1 (slots 4..8) are deleted: chunk 1 stays,
        // empty, so chunk 2 still holds slots 8..12.
        let mut slots: Vec<_> = (0..10).map(slot).collect();
        slots[1] = None;
        slots[4..8].fill(None);
        let t = build(&slots, 1, None);
        assert_eq!(t.rows(), 5);
        assert_eq!(keys(&t.chunks[0]), [0, 2, 3]);
        assert!(t.chunks[1].is_empty());
        assert_eq!(keys(&t.chunks[2]), [8, 9]);
        assert_eq!(t.column_width(1), 1, "an empty chunk keeps its widths");
        assert_eq!(t.chunks[1].vector(1).data.width(), 1);
        assert_eq!(t.stats.columns[0].min, Some(0));
        assert_eq!(t.stats.columns[3].null_count, 1, "slot 0 (slot 5 is gone)");
    }

    #[test]
    fn a_rebuild_encodes_only_the_chunks_stamped_after_its_base() {
        let mut slots: Vec<_> = (0..10).map(slot).collect();
        let base = build(&slots, 1, None);
        // SCN 2 rewrites slot 5 (chunk 1) and deletes slot 9 (chunk 2); SCN 3
        // appends slots 10..=12 (chunks 2 and 3).
        slots[5] = Some(vec![
            Value::Int(5),
            Value::Int(7),
            Value::Str("N".into()),
            Value::Null,
        ]);
        slots[9] = None;
        slots.extend((10..13).map(slot));
        let stamps = [Scn(1), Scn(2), Scn(3), Scn(3)];
        let t = build(&slots, 3, Some((&base, &stamps)));
        assert!(t.chunks[0].shares_vectors(&base.chunks[0]));
        for k in 1..3 {
            assert!(!t.chunks[k].shares_vectors(&base.chunks[k]), "chunk {k}");
        }
        assert_eq!(keys(&t.chunks[2]), [8, 10, 11]);
        assert_eq!(keys(&t.chunks[3]), [12]);
        assert_same_as_full_build(&t, &slots);

        // A chunk past the heap's end, or a chunk with no stamp, is not kept.
        let t = build(&slots[..6], 3, Some((&base, &stamps[..1])));
        assert_eq!(t.chunks.len(), 2);
        assert!(!t.chunks[1].shares_vectors(&base.chunks[1]));
        assert_same_as_full_build(&t, &slots[..6]);
    }

    #[test]
    fn a_value_the_base_encodings_do_not_hold_rebuilds_every_chunk() {
        let slots: Vec<_> = (0..10).map(slot).collect();
        let base = build(&slots, 1, None);
        let dec = |unscaled, scale| Value::Decimal { unscaled, scale };
        for (col, value) in [
            (2, Value::Str("B".into())),
            (1, dec(12_345, 4)),
            (0, Value::Int(1_000)),
            (3, Value::Date(-200)),
        ] {
            let mut changed = slots.clone();
            changed[9].as_mut().unwrap()[col] = value.clone();
            let stamps = [Scn(1), Scn(1), Scn(2)];
            let t = build(&changed, 2, Some((&base, &stamps)));
            assert!(!t.chunks[0].shares_vectors(&base.chunks[0]), "{value:?}");
            assert_same_as_full_build(&t, &changed);
        }
        // A base chunked otherwise shares nothing either.
        let other = TableBuilder::over_slots("s", slot_schema(), &slots)
            .chunk_rows(5)
            .finish_at_scn(Scn(1));
        let t = build(&slots, 2, Some((&other, &[Scn(1); 3])));
        assert!(!t.chunks[0].shares_vectors(&other.chunks[0]));
        assert_same_as_full_build(&t, &slots);
    }

    #[test]
    fn a_patch_that_leaves_an_encoding_more_than_its_rows_need_rebuilds_every_chunk() {
        // Slot 9 alone holds a wide key, a price of three decimal places or
        // the string "Z". Deleting it, or writing an ordinary row over it,
        // leaves the base's width, scale or dictionary past what a full
        // build derives.
        for col in 0..3 {
            let mut slots: Vec<_> = (0..10).map(slot).collect();
            slots[9].as_mut().unwrap()[col] = match col {
                0 => Value::Int(1_000),
                1 => Value::Decimal {
                    unscaled: 12_345,
                    scale: 3,
                },
                _ => Value::Str("Z".into()),
            };
            let base = build(&slots, 1, None);
            for row in [None, slot(9)] {
                let mut changed = slots.clone();
                changed[9] = row;
                let t = build(&changed, 2, Some((&base, &[Scn(1), Scn(1), Scn(2)])));
                assert!(!t.chunks[0].shares_vectors(&base.chunks[0]), "column {col}");
                assert_same_as_full_build(&t, &changed);
            }
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
