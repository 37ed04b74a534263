//! Key ranges: the partitions a table stored in key order already has.
//!
//! A partitioned join or group-by whose inputs are scans of tables stored in
//! the order of the one key it partitions by (`PlanNode::HashJoin::ranged`,
//! `GroupStrategy::Ranged`) needs no pass to bring the rows of a partition
//! together: the rows of a key range lie together already, one run of slots
//! of each table — RAPID's chunks (§4.1), and the DMS's `range` partitioning
//! (Figure 8) cuts the same way. The engine cuts the key domain into as many
//! ranges as the plan's scheme has partitions, and every range is one lane
//! of one stage: the lane reads its range's rows of each input, and joins or
//! aggregates them, with nothing in between written to DRAM (§5.2: only task
//! boundaries materialise).
//!
//! * **Bounds** ([`KeyRanges::of`]) are picked at run time from the larger
//!   input: where it is clustered on the key with no NULL key, its keys at
//!   the slot quantiles, a one-key read each, each slot moved back to the
//!   first that holds its key in a few reads more; otherwise an even split
//!   of its zone maps' `[min, max]`. Range `r` holds the keys in `[bound
//!   r − 1, bound r)`, the first from `i64::MIN`, the last to `i64::MAX`
//!   and the NULL keys too.
//! * **Pieces** ([`pieces`]): of the input the bounds were picked from at
//!   their slots, a lane reads the slots between them ([`pieces_at`]); of
//!   any other input, of each chunk a range overlaps, a lane reads
//!   only the slots inside the range where the chunk's values ascend and it
//!   has no NULL key, found by bisection, each probe a one-key read; else it
//!   reads the whole chunk and tests every row against the range
//!   ([`KeyRanges::test`]).
//!
//! * **One side** ([`Radix`]): where a join reads only one input by range
//!   (`PlanNode::HashJoin::ranged` names it), the other — any plan, a join's
//!   output too — runs one partition pass that routes each row by its key's
//!   value bits rather than its hash (the DMS's radix partitioning, Figure
//!   8): the top bits of the key's offset from `min` as a fraction of the
//!   span `[min, max]` of the ranged input's listed zone maps, read at run
//!   time — `((key − min) · scale) >> 64`, ranges of equal width — keys
//!   below `min` in the first range, above `max` or NULL in the last. Its
//!   partition `r` holds exactly the keys of range `r`, which a lane reads
//!   where its pass wrote it ([`KeyRanges::radix`]).
//!
//! The result is exact for any data and any bounds: a key lands in exactly
//! one range whatever the table holds, so a commit that stores keys out of
//! order, or a load in shuffled slots, makes the ranges slower to read,
//! never wrong, and a plan needs no re-plan for it.

use std::ops::Range;

use rapid_storage::chunk::Chunk;
use rapid_storage::table::Table;

use crate::batch::Span;
use crate::exec::CoreCtx;
use crate::expr::Pred;
use crate::ops::filter::ChunkList;
use crate::primitives::filter::CmpOp;
use crate::ra::RelationAccessor;
use rapid_storage::vector::Vector;

/// A key range: its keys from the first, up to but not including the
/// second — `None` for a last range, which holds `i64::MAX` and the NULL
/// keys too.
pub type Bounds = (i64, Option<i64>);

/// The key ranges of a ranged operator: `bounds.len() + 1` of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRanges {
    /// Where each range after the first starts, non-decreasing.
    bounds: Vec<i64>,
    /// Where the bounds are keys at slot quantiles of a clustered input: per
    /// bound, the first slot of the listed chunks, laid back to back, that
    /// holds its key, and the one-key reads that found it. `None` for an
    /// even split of zone maps.
    slots: Option<Vec<(usize, usize)>>,
    /// Rows of the listed chunks the bounds were picked from.
    rows: usize,
    /// Where the bounds are a value-bit cut, the cut.
    radix: Option<Radix>,
}

/// A value-bit cut of the key domain into `ranges` ranges, a power of two,
/// of equal width over `[min, min + width)`: what a one-sided ranged join's
/// partition pass routes the rows of its other input by. A key's range is
/// the top bits of its offset from `min` as a 64-bit fraction of the width —
/// `((key − min) · scale) >> 64`, `scale` = ⌊ranges · 2^64 / width⌋ — so a
/// span that is no power of two still fills every range, where a plain
/// shift `(key − min) >> s` would leave up to half of them empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Radix {
    /// The first key of the first range.
    pub min: i64,
    /// Keys the ranges cut evenly: `max − min + 1`, at least one.
    pub width: u128,
    /// How many ranges there are: a power of two.
    pub ranges: usize,
    /// `⌊ranges · 2^64 / width⌋`: the fixed-point scale of an offset.
    scale: u128,
}

impl Radix {
    /// `ranges` ranges — rounded up to a power of two — of the `[min, max]`
    /// of the listed chunks' zone maps of column `col`.
    pub fn of(list: ChunkList<'_>, col: usize, ranges: usize) -> Radix {
        let ranges = ranges.max(1).next_power_of_two();
        let span = list
            .iter()
            .filter_map(|c| c.zone(col).range)
            .reduce(|(lo, hi), (min, max)| (lo.min(min), hi.max(max)));
        let (min, max) = span.unwrap_or((0, 0));
        let width = (max as i128 - min as i128 + 1) as u128;
        Radix {
            min,
            width,
            ranges,
            scale: ((ranges as u128) << 64) / width,
        }
    }

    /// The range a key — `None` for NULL — lands in: the first for a key
    /// below `min`, the last for one at or past `min + width`, for
    /// `i64::MAX` and for NULL.
    pub fn range_of(&self, key: Option<i64>) -> usize {
        let last = self.ranges - 1;
        let Some(key) = key.filter(|&k| k < i64::MAX) else {
            return last;
        };
        let offset = key as i128 - self.min as i128;
        match offset < 0 {
            true => 0,
            false if offset as u128 >= self.width => last,
            false => (((offset as u128 * self.scale) >> 64) as usize).min(last),
        }
    }

    /// Where range `r` (`1..ranges`) starts: the least key
    /// [`range_of`](Self::range_of) puts in it or past it — `i64::MAX`
    /// where that is past every key, which only the last range then holds.
    fn bound(&self, r: usize) -> i64 {
        let offset = ((r as u128) << 64).div_ceil(self.scale);
        (self.min as i128 + offset as i128).min(i64::MAX as i128) as i64
    }
}

impl KeyRanges {
    /// `ranges` ranges of the keys in column `col` of `table`, over the
    /// chunks of `list`: at the keys of the listed slot quantiles where the
    /// table is clustered on the column and no listed chunk holds a NULL of
    /// it — each bound's slot kept, moved back to the first slot that holds
    /// its key by a search that doubles its step back, then bisects — else
    /// an even split of the listed chunks' `[min, max]`.
    pub fn of(table: &Table, col: usize, list: ChunkList<'_>, ranges: usize) -> KeyRanges {
        let ranges = ranges.max(1);
        let rows = list.rows();
        let no_nulls = list.iter().all(|c| c.zone(col).nulls == 0);
        if table.clustered_on(col) && no_nulls && rows > 0 {
            let chunks = back_to_back(list);
            let key = |slot: usize| key_at(&chunks, col, slot);
            let (mut bounds, mut slots) = (Vec::new(), Vec::new());
            for r in 1..ranges {
                let slot = r * rows / ranges;
                let bound = key(slot);
                // Back from the slot over the ones that hold the same key,
                // a step twice the last, to a slot of a smaller key; then
                // the first of them by bisection over the last step.
                let (mut reads, mut back, mut at) = (1, 1, slot);
                let below = loop {
                    let Some(before) = slot.checked_sub(back) else {
                        break 0;
                    };
                    reads += 1;
                    if key(before) < bound {
                        break before + 1;
                    }
                    (at, back) = (before, back * 2);
                };
                bounds.push(bound);
                slots.push((first_at(below..at, bound, key, &mut reads), reads));
            }
            return KeyRanges {
                bounds,
                slots: Some(slots),
                rows,
                radix: None,
            };
        }
        let span = list
            .iter()
            .filter_map(|c| c.zone(col).range)
            .reduce(|(lo, hi), (min, max)| (lo.min(min), hi.max(max)));
        let (min, max) = span.unwrap_or((0, 0));
        let width = max as i128 - min as i128 + 1;
        let bounds = (1..ranges as i128)
            .map(|r| (min as i128 + (width * r + ranges as i128 - 1) / ranges as i128) as i64)
            .collect();
        KeyRanges {
            bounds,
            slots: None,
            rows,
            radix: None,
        }
    }

    /// The ranges of a value-bit cut: range `r` from the least key the cut
    /// routes to it, the first from `i64::MIN` and the last to `i64::MAX`
    /// and the NULL keys, so that [`of_key`](Self::of_key) is
    /// [`Radix::range_of`]. Its bounds are arithmetic; where the chunks of
    /// `list`, of `table`, hold column
    /// `col` in order with no NULL, each bound's first slot of them, laid
    /// back to back, is found once by bisection over them all, each probe a
    /// one-key read, for the lane that reads from it.
    pub fn radix(radix: Radix, table: &Table, col: usize, list: ChunkList<'_>) -> KeyRanges {
        let bounds: Vec<i64> = (1..radix.ranges).map(|r| radix.bound(r)).collect();
        let rows = list.rows();
        let no_nulls = list.iter().all(|c| c.zone(col).nulls == 0);
        let slots = (table.clustered_on(col) && no_nulls && rows > 0).then(|| {
            let chunks = back_to_back(list);
            let key = |slot: usize| key_at(&chunks, col, slot);
            let mut from = 0;
            let mut slots = Vec::with_capacity(bounds.len());
            for &bound in &bounds {
                let mut reads = 0;
                from = first_at(from..rows, bound, key, &mut reads);
                slots.push((from, reads));
            }
            slots
        });
        KeyRanges {
            bounds,
            slots,
            rows,
            radix: Some(radix),
        }
    }

    /// The slots of the listed chunks, laid back to back, that range `r`
    /// holds of the input its bounds were picked from — where they are slot
    /// quantiles of it, else `None`: its rows need no bisection.
    pub fn slots(&self, r: usize) -> Option<Range<usize>> {
        let slots = self.slots.as_ref()?;
        let start = r.checked_sub(1).map_or(0, |b| slots[b].0);
        Some(start..slots.get(r).map_or(self.rows, |s| s.0))
    }

    /// One-key reads range `r`'s lower bound took: none for the first, the
    /// reads that found its slot where it has one, else one — none for a
    /// value-bit cut's, which is arithmetic.
    pub fn bound_reads(&self, r: usize) -> usize {
        match (r.checked_sub(1), &self.slots) {
            (None, _) => 0,
            (Some(b), Some(slots)) => slots[b].1,
            (Some(_), None) => usize::from(self.radix.is_none()),
        }
    }

    /// How many ranges there are.
    pub fn len(&self) -> usize {
        self.bounds.len() + 1
    }

    /// Whether there are none (never: a range holds every key at least).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Range `r`'s keys: from `lo`, up to but not including `hi` — `None`
    /// for the last, which holds `i64::MAX` and the NULL keys too.
    pub fn bounds(&self, r: usize) -> Bounds {
        let lo = r.checked_sub(1).map_or(i64::MIN, |b| self.bounds[b]);
        (lo, self.bounds.get(r).copied())
    }

    /// The range a key — `None` for NULL — lands in.
    pub fn of_key(&self, key: Option<i64>) -> usize {
        match key {
            None => self.bounds.len(),
            Some(k) => self.bounds.partition_point(|&b| b <= k),
        }
    }
}

/// The chunks of `list` back to back, each with its first slot.
fn back_to_back(list: ChunkList<'_>) -> Vec<(&Chunk, usize)> {
    list.iter()
        .scan(0, |base, chunk| {
            let at = *base;
            *base += chunk.rows();
            Some((chunk, at))
        })
        .collect()
}

/// The key in column `col` at `slot` of `chunks`, laid back to back
/// ([`back_to_back`]).
fn key_at(chunks: &[(&Chunk, usize)], col: usize, slot: usize) -> i64 {
    let k = chunks.partition_point(|(_, base)| *base <= slot) - 1;
    let (chunk, base) = chunks[k];
    chunk.vector(col).data.get_i64(slot - base)
}

/// The test of the range `bounds` (a [`KeyRanges::bounds`]) over column
/// `key` of what a chain hands on: the rows of a chunk read whole that the
/// range holds.
pub fn test((lo, hi): Bounds, key: usize) -> Pred {
    let col = key;
    match (lo, hi) {
        (lo, Some(hi)) if lo == i64::MIN => Pred::CmpConst {
            col,
            op: CmpOp::Lt,
            value: hi,
        },
        (lo, Some(hi)) => match hi.checked_sub(1) {
            Some(top) if lo <= top => Pred::Between { col, lo, hi: top },
            _ => Pred::Const(false),
        },
        (lo, None) => Pred::Or(vec![
            Pred::Not(Box::new(Pred::NotNull { col })),
            Pred::CmpConst {
                col,
                op: CmpOp::Ge,
                value: lo,
            },
        ]),
    }
}

/// The blocks a lane takes its range's build rows in, `keys` their keys in
/// the order it puts them in its table, which holds `capacity` rows: runs of
/// at most `capacity` rows cut where the key changes, so that a block holds
/// every row of its keys — or, where the keys do not ascend or hold a NULL,
/// one block of them all. A key of more rows than the table holds is a
/// block of its own. The probe side's rows arrive in key order too, so the
/// lane probes each against the block that holds its key, swapping the
/// table at every cut: a probe row meets every build row of its key, and
/// only a block past the table's rows overflows it.
pub fn blocks(keys: &Vector, capacity: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let rows = keys.len();
    let key = |i: usize| keys.data.get_i64(i);
    let ascending = (1..rows).all(|i| key(i - 1) <= key(i));
    let whole = rows <= capacity || capacity == 0 || keys.has_nulls() || !ascending;
    let mut start = 0;
    std::iter::from_fn(move || {
        if start >= rows {
            return None;
        }
        let end = match whole || rows - start <= capacity {
            true => rows,
            // The last change of key within the table's rows, else the
            // first after them.
            false => {
                let fill = start + capacity;
                let changes = |i: &usize| key(i - 1) != key(*i);
                let within = (start + 1..=fill).rev().find(changes);
                within
                    .or_else(|| (fill + 1..rows).find(changes))
                    .unwrap_or(rows)
            }
        };
        let block = start..end;
        start = end;
        Some(block)
    })
}

/// Rows a lane reads of a table for one key range: a run of slots of
/// consecutive chunks, and whether its rows must be tested against the
/// range — a chunk read whole because it could not be bisected.
#[derive(Debug, Clone)]
pub struct Piece<'a> {
    /// The rows.
    pub span: Span<'a>,
    /// Whether every row is tested against the range.
    pub tested: bool,
}

/// The pieces of `list`, chunks of a table, that hold the keys of column
/// `col` in the range `bounds` (a [`KeyRanges::bounds`]), in slot order, and
/// how many one-key reads the bisections that found them took. Of a chunk
/// whose zone map the range overlaps — or, for the last range, which holds
/// NULLs — a piece is the run of slots inside the range where the chunk is
/// `sorted` with no NULL, found by bisection (no probe where the range
/// covers the chunk's end); else the whole chunk, tested. Runs that meet
/// across a chunk boundary are one piece.
pub fn pieces<'a>(
    chunks: &'a [Chunk],
    list: ChunkList<'a>,
    col: usize,
    (lo, hi): Bounds,
) -> (Vec<Piece<'a>>, usize) {
    let last = hi.is_none();
    let mut probes = 0;
    let out = assemble(chunks, list, |chunk, _| {
        let zone = chunk.zone(col);
        let top = hi.map_or(Some(i64::MAX), |hi| hi.checked_sub(1));
        let overlaps = top.is_some_and(|top| zone.overlaps(lo, top));
        if !(overlaps || last && zone.nulls > 0) {
            return None;
        }
        if !(zone.sorted && zone.nulls == 0) {
            return Some((0..chunk.rows(), true));
        }
        let (min, max) = zone.range.unwrap_or((lo, lo));
        let keys = &chunk.vector(col).data;
        let mut first = |key: i64| first_at(0..chunk.rows(), key, |i| keys.get_i64(i), &mut probes);
        let start = if lo <= min { 0 } else { first(lo) };
        let end = match hi {
            Some(hi) if hi <= max => first(hi),
            _ => chunk.rows(),
        };
        Some((start..end, false))
    });
    (out, probes)
}

/// The first slot of `slots` whose key is `key` or more — the end where
/// none is — where `key_at` ascends over them, by bisection: each probe a
/// one-key read, added to `reads`.
fn first_at(
    slots: Range<usize>,
    key: i64,
    key_at: impl Fn(usize) -> i64,
    reads: &mut usize,
) -> usize {
    let (mut at, mut end) = (slots.start, slots.end);
    while at < end {
        let mid = at + (end - at) / 2;
        *reads += 1;
        if key_at(mid) < key {
            at = mid + 1;
        } else {
            end = mid;
        }
    }
    at
}

/// The pieces of `list` that hold `slots`, slots of its chunks laid back to
/// back ([`KeyRanges::slots`]): read where they lie, untested, with no
/// bisection — the pieces [`pieces`] finds for the range on the input its
/// bounds were picked from.
pub fn pieces_at<'a>(
    chunks: &'a [Chunk],
    list: ChunkList<'a>,
    slots: Range<usize>,
) -> Vec<Piece<'a>> {
    assemble(chunks, list, |chunk, base| {
        let rows =
            slots.start.max(base) - base..slots.end.min(base + chunk.rows()).max(base) - base;
        (!rows.is_empty()).then_some((rows, false))
    })
}

/// The pieces of `list` in slot order: of each chunk, the rows `rows_of`
/// says a range holds of it (given the chunk and its first slot of the
/// list) and whether they must be tested against the range. Runs that meet
/// across a chunk boundary are one piece.
fn assemble<'a>(
    chunks: &'a [Chunk],
    list: ChunkList<'a>,
    mut rows_of: impl FnMut(&Chunk, usize) -> Option<(Range<usize>, bool)>,
) -> Vec<Piece<'a>> {
    let mut out: Vec<Piece<'a>> = Vec::new();
    // The piece being grown: the chunks it spans and its rows in them.
    let mut open: Option<(Range<usize>, Range<usize>, bool)> = None;
    let close = |open: Option<(Range<usize>, Range<usize>, bool)>, out: &mut Vec<Piece<'a>>| {
        if let Some((of, rows, tested)) = open.filter(|(_, rows, _)| !rows.is_empty()) {
            let span = Span::new(&chunks[of], rows);
            out.push(Piece { span, tested });
        }
    };
    let mut base = 0;
    for (k, chunk) in list.indexed() {
        let at = base;
        base += chunk.rows();
        let Some((rows, tested)) = rows_of(chunk, at) else {
            continue;
        };
        // A run that starts where the open one ends, in the next chunk.
        let joins = open.as_ref().is_some_and(|(of, at, was)| {
            of.end == k
                && *was == tested
                && rows.start == 0
                && at.end == (of.start..k).map(|c| chunks[c].rows()).sum::<usize>()
        });
        if joins {
            if let Some((of, at, _)) = open.as_mut() {
                at.end += rows.end;
                of.end = k + 1;
            }
        } else {
            close(open.take(), &mut out);
            open = Some((k..k + 1, rows, tested));
        }
    }
    close(open, &mut out);
    out
}

/// Charge `n` reads of one key of `width` bytes: a bound, or a probe of a
/// bisection.
pub fn charge_key_reads(ctx: &mut CoreCtx, width: usize, n: usize) {
    if n > 0 {
        let cm = ctx.cost_model.clone();
        let one = RelationAccessor::seq_read_cost(&cm, [width].into_iter(), 1, 1);
        ctx.charge_dms(&dpu_sim::dms::engine::DmsCost {
            cycles: one.cycles * n as f64,
            bytes: one.bytes * n as u64,
            descriptors: one.descriptors * n as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rapid_storage::bitvec::BitVec;
    use rapid_storage::schema::{Field, Schema};
    use rapid_storage::table::TableBuilder;
    use rapid_storage::types::{DataType, Value};
    use rapid_storage::vector::{ColumnData, Vector};

    /// A table of one nullable key column in chunks of `chunk_rows` slots.
    fn table(keys: &[Option<i64>], chunk_rows: usize) -> Table {
        let schema = Schema::new(vec![Field::nullable("k", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema).chunk_rows(chunk_rows);
        for k in keys {
            b.push_row(vec![k.map_or(Value::Null, Value::Int)]);
        }
        b.finish()
    }

    /// Every row of `t`'s pieces of every range, as `(range, key)`, the
    /// tested ones through the range's test.
    fn landed(t: &Table, ranges: &KeyRanges) -> Vec<(usize, Option<i64>)> {
        let list = ChunkList::all(&t.chunks);
        let mut out = Vec::new();
        for r in 0..ranges.len() {
            let (pieces, _) = pieces(&t.chunks, list, 0, ranges.bounds(r));
            for piece in pieces {
                for (chunk, rows) in piece.span.runs() {
                    let v = chunk.vector(0);
                    for i in rows {
                        let key = (!v.is_null(i)).then(|| v.data.get_i64(i));
                        if piece.tested {
                            let test = test(ranges.bounds(r), 0);
                            let data = ColumnData::I64(vec![key.unwrap_or(0)]);
                            let one = match key {
                                Some(_) => Vector::new(data),
                                None => Vector::with_nulls(data, BitVec::ones(1)),
                            };
                            let mut ctx = CoreCtx::new(&crate::exec::ExecContext::dpu(), 0);
                            if test.eval(&mut ctx, &[one], 1).unwrap().count_ones() == 0 {
                                continue;
                            }
                        }
                        out.push((r, key));
                    }
                }
            }
        }
        out
    }

    proptest! {
        #[test]
        fn ranges_cover_the_keys_and_every_row_lands_in_exactly_one(
            keys in proptest::collection::vec(proptest::option::of(-50i64..50), 0..200),
            sort in any::<bool>(),
            chunk_rows in 1usize..40,
            ranges in 1usize..12,
        ) {
            let mut keys = keys;
            if sort {
                keys.sort_by_key(|k| k.unwrap_or(i64::MIN));
            }
            let t = table(&keys, chunk_rows);
            let cut = KeyRanges::of(&t, 0, ChunkList::all(&t.chunks), ranges);
            prop_assert_eq!(cut.len(), ranges);
            // The ranges meet end to end over the whole domain.
            for r in 0..cut.len() {
                let (lo, hi) = cut.bounds(r);
                prop_assert_eq!(lo, if r == 0 { i64::MIN } else { cut.bounds(r - 1).1.unwrap() });
                prop_assert_eq!(hi.is_none(), r + 1 == cut.len());
            }
            // Where the bounds are slot quantiles, the rows at their slots
            // are the rows bisection finds.
            let list = ChunkList::all(&t.chunks);
            for r in (0..cut.len()).filter(|&r| cut.slots(r).is_some()) {
                let runs = |pieces: Vec<Piece<'_>>| -> Vec<(usize, Range<usize>)> {
                    let base = |c: &Chunk| c as *const Chunk as usize;
                    pieces.iter().flat_map(|p| p.span.runs().map(|(c, rows)| (base(c), rows))).collect()
                };
                let at = pieces_at(&t.chunks, list, cut.slots(r).unwrap());
                let (found, _) = pieces(&t.chunks, list, 0, cut.bounds(r));
                prop_assert_eq!(runs(at), runs(found), "range {}", r);
            }
            let mut got = landed(&t, &cut);
            for &(r, key) in &got {
                prop_assert_eq!(r, cut.of_key(key), "{:?} in range {}", key, r);
            }
            let mut want: Vec<_> = keys.iter().map(|&k| (cut.of_key(k), k)).collect();
            got.sort();
            want.sort();
            prop_assert_eq!(got, want);
        }
    }

    proptest! {
        #[test]
        fn a_value_bit_partition_puts_each_key_in_the_range_the_clustered_side_reads_it_in(
            stored in proptest::collection::vec(-1000i64..1000, 1..120),
            keys in proptest::collection::vec(
                proptest::option::of(prop_oneof![
                    -3000i64..3000,
                    Just(i64::MIN),
                    Just(i64::MAX),
                ]),
                0..80,
            ),
            near_max in any::<bool>(),
            chunk_rows in 1usize..40,
            bits in 0u32..6,
        ) {
            // The clustered side: its keys in order, shifted up against
            // `i64::MAX` where `near_max`, where the ranges must not wrap.
            let mut stored = stored;
            stored.sort_unstable();
            if near_max {
                stored.iter_mut().for_each(|k| *k = i64::MAX - 2000 + (*k + 1000));
            }
            let clustered: Vec<Option<i64>> = stored.iter().copied().map(Some).collect();
            let t = table(&clustered, chunk_rows);
            let list = ChunkList::all(&t.chunks);
            let radix = Radix::of(list, 0, 1 << bits);
            let cut = KeyRanges::radix(radix, &t, 0, list);
            prop_assert_eq!(cut.len(), 1 << bits);
            // Each range starts at the least key the cut routes to it, and
            // the ranges are of equal width, to a key; the clustered side's
            // rows of each range are its rows of the keys routed there.
            for r in 1..cut.len() {
                let start = cut.bounds(r).0;
                prop_assert!(start == i64::MAX || radix.range_of(Some(start)) >= r);
                prop_assert!(start == i64::MIN || radix.range_of(Some(start - 1)) < r);
            }
            let width = radix.width.div_ceil(cut.len() as u128) as i128;
            for r in 1..cut.len() {
                let (lo, hi) = cut.bounds(r - 1);
                let (lo, hi) = (lo.max(radix.min) as i128, hi.unwrap_or(i64::MAX) as i128);
                prop_assert!(hi - lo <= width + 1, "range {} of {}", r - 1, width);
            }
            let mut probe = keys.clone();
            probe.extend(stored.iter().map(|&k| Some(k)));
            for key in probe {
                let r = radix.range_of(key);
                prop_assert_eq!(r, cut.of_key(key), "{:?}", key);
                // The range the clustered side reads this key in.
                let (pieces, _) = pieces(&t.chunks, list, 0, cut.bounds(r));
                let holds = pieces.iter().any(|p| p.span.runs().any(|(c, rows)| {
                    let v = c.vector(0);
                    rows.into_iter().any(|i| !v.is_null(i) && Some(v.data.get_i64(i)) == key)
                }));
                prop_assert_eq!(holds, key.is_some_and(|k| stored.contains(&k)), "{:?} in {}", key, r);
                // And the slots its bound was found at hold the same rows.
                let at = pieces_at(&t.chunks, list, cut.slots(r).expect("clustered"));
                let runs = |pieces: &[Piece<'_>]| -> Vec<(usize, Range<usize>)> {
                    let base = |c: &Chunk| c as *const Chunk as usize;
                    pieces.iter().flat_map(|p| p.span.runs().map(|(c, rows)| (base(c), rows))).collect()
                };
                prop_assert_eq!(runs(&at), runs(&pieces), "range {}", r);
            }
        }
    }

    proptest! {
        #[test]
        fn blocks_cut_where_the_key_changes_and_hold_every_row_once(
            keys in proptest::collection::vec(0i64..40, 0..120),
            sort in any::<bool>(),
            capacity in 0usize..30,
        ) {
            let mut keys = keys;
            if sort {
                keys.sort_unstable();
            }
            let ascending = keys.windows(2).all(|w| w[0] <= w[1]);
            let rows = keys.len();
            let keys = Vector::new(ColumnData::I64(keys));
            let got: Vec<Range<usize>> = blocks(&keys, capacity).collect();
            if rows == 0 {
                prop_assert!(got.is_empty());
                return Ok(());
            }
            if rows <= capacity || capacity == 0 || !ascending {
                prop_assert_eq!((got.len(), got.first()), (1, Some(&(0..rows))));
                return Ok(());
            }
            // The blocks meet end to end over the rows, and no key is in two.
            let key = |i: usize| keys.data.get_i64(i);
            prop_assert_eq!(got.first().map(|b| b.start), Some(0));
            prop_assert_eq!(got.last().map(|b| b.end), Some(rows));
            for pair in got.windows(2) {
                prop_assert_eq!(pair[0].end, pair[1].start);
                prop_assert!(key(pair[0].end - 1) < key(pair[1].start));
            }
            // A block past the table holds one key alone.
            for block in got.iter().filter(|b| b.len() > capacity) {
                prop_assert!(block.clone().all(|i| key(i) == key(block.start)));
            }
        }
    }

    #[test]
    fn blocks_hold_every_row_of_their_keys() {
        let keys = Vector::new(ColumnData::I64(vec![1, 1, 2, 2, 2, 3, 4, 4, 5]));
        let got: Vec<_> = blocks(&keys, 4).collect();
        assert_eq!(got, [0..2, 2..6, 6..9]);
        // One key past the table's rows is a block of its own.
        let keys = Vector::new(ColumnData::I64(vec![7, 7, 7, 7, 7, 8]));
        let got: Vec<_> = blocks(&keys, 2).collect();
        assert_eq!(got, [0..5, 5..6]);
        // Keys out of order are one block, whatever the table holds.
        let keys = Vector::new(ColumnData::I64(vec![3, 1, 2]));
        let got: Vec<_> = blocks(&keys, 1).collect();
        assert_eq!((got.len(), got.first()), (1, Some(&(0..3))));
    }

    #[test]
    fn a_clustered_table_is_cut_at_its_slot_quantiles_and_read_by_bisection() {
        let keys: Vec<Option<i64>> = (0..100).map(|i| Some(i / 2)).collect();
        let t = table(&keys, 16);
        let list = ChunkList::all(&t.chunks);
        let cut = KeyRanges::of(&t, 0, list, 4);
        assert_eq!(cut.bounds, [12, 25, 37]);
        let (pieces, probes) = pieces(&t.chunks, list, 0, cut.bounds(1));
        // Keys 12..25 are slots 24..50: one piece over chunks 1..=3.
        assert_eq!(pieces.len(), 1);
        assert!(!pieces[0].tested);
        let runs: Vec<_> = pieces[0].span.runs().map(|(_, rows)| rows).collect();
        assert_eq!(runs, [8..16, 0..16, 0..2]);
        assert!(probes > 0 && probes <= 2 * 5, "{probes}");
        // The same rows at the slots the bounds were picked at, with no
        // probe: keys 12 and 25 first lie at slots 24 and 50, each found by
        // its quantile slot's read and the reads back to it.
        assert_eq!(cut.slots(1), Some(24..50));
        assert_eq!((cut.bound_reads(0), cut.bound_reads(1)), (0, 3));
        let at = pieces_at(&t.chunks, list, 24..50);
        let runs: Vec<_> = at[0].span.runs().map(|(_, rows)| rows).collect();
        assert_eq!((at.len(), runs), (1, vec![8..16, 0..16, 0..2]));
        // A key of 256 rows: the first slot of a bound is found across
        // chunks in reads that grow with the log of its rows, not a read a
        // row.
        let repeated: Vec<Option<i64>> = (0..1024).map(|i| Some(i / 256)).collect();
        let t = table(&repeated, 100);
        let cut = KeyRanges::of(&t, 0, ChunkList::all(&t.chunks), 8);
        for r in 1..8 {
            let key = cut.bounds(r).0;
            assert_eq!(cut.slots(r).map(|s| s.start), Some(256 * key as usize));
            assert!(cut.bound_reads(r) <= 2 * 9, "{}", cut.bound_reads(r));
        }
        // A shuffled table is cut evenly between its least and greatest key.
        let mut shuffled = keys.clone();
        shuffled.reverse();
        let t = table(&shuffled, 16);
        let cut = KeyRanges::of(&t, 0, ChunkList::all(&t.chunks), 4);
        assert_eq!(cut.bounds, [13, 25, 38]);
    }
}
