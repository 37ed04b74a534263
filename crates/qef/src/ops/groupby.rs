//! Group-by / aggregation (§5.4).
//!
//! Two strategies, chosen by the compiler from the group count it can bound
//! and declared in the plan ([`crate::plan::GroupStrategy`]):
//!
//! * **Partitioned** (high NDV): a partitioning phase distributes distinct
//!   groups across cores so each core's group hash table fits in DMEM;
//!   per-partition aggregation then runs fully local.
//! * **On-the-fly** (low NDV): every core aggregates its input stream into
//!   a small DMEM-resident table; a **merge operator** folds the per-core
//!   tables afterwards — cheap, because it runs on already-aggregated data.
//!
//! A [`GroupTable`] maps key tuples to dense group indices. By default it
//! hashes them into the compact chained layout of the join (buckets + link
//! arrays of ⌈log₂N⌉-bit entries). Where the plan declares a range for every
//! key of an on-the-fly table — dictionary codes and narrow integers (§4.2)
//! — it finds each group by its **slot** instead ([`SlotIndex`]): the key
//! values shifted to power-of-two strides and ORed, with no CRC, no chain
//! walk and no key compare. The lanes' slots line up, so the merge operator
//! adds state slot by slot. A key outside its declared range sends the table
//! back to hashing for good: it never lands in a wrong slot.
//!
//! The table keeps one accumulator per distinct aggregate input and state
//! kind ([`accumulators`]): SUM, AVG and COUNT of one column fold into one
//! `(sum, count)` state, and each aggregate reads its value from there when
//! the table emits.

use std::borrow::Cow;

use dpu_sim::account::Kernel;
use dpu_sim::ate;
use rapid_storage::vector::{ColumnData, Vector};

use crate::batch::{Batch, Positions, Rows, Run};
use crate::error::QefResult;
use crate::exec::CoreCtx;
use crate::plan::{AggSpec, KeyRange};
use crate::primitives::agg::{agg_grouped, agg_one, AggFunc, AggState};
use crate::primitives::costs;
use crate::primitives::hash::{bucket_of, hash_pieces_into};
use crate::util::{next_pow2_at_least, SmallIntArray};

/// The accumulators a group table keeps for `aggs`, one per input column
/// and state kind, in the order their first aggregate comes: an input
/// column and the function its state folds by. SUM, AVG and COUNT of one
/// column share one `(sum, count)` state: it folds as SUM where any of them
/// needs the sum, as COUNT where none does, so a COUNT alone never adds (nor
/// overflows). MIN and MAX of a column keep their own.
pub fn accumulators(aggs: &[AggSpec]) -> Vec<AggSpec> {
    let opening = (0..aggs.len()).filter(|&j| opener(aggs, j) == j);
    opening
        .map(|j| AggSpec {
            func: folds_by(aggs, j),
            col: aggs[j].col,
        })
        .collect()
}

/// [`accumulators`] of `aggs`, borrowed where they are `aggs` themselves:
/// no two aggregates share a state and none folds by another function.
fn accumulators_of(aggs: &[AggSpec]) -> Cow<'_, [AggSpec]> {
    let own = (0..aggs.len()).all(|j| opener(aggs, j) == j && folds_by(aggs, j) == aggs[j].func);
    match own {
        true => Cow::Borrowed(aggs),
        false => Cow::Owned(accumulators(aggs)),
    }
}

/// The function aggregate `j`'s accumulator folds by: SUM wherever a SUM or
/// an AVG shares its state, else its own.
fn folds_by(aggs: &[AggSpec], j: usize) -> AggFunc {
    let sums = aggs
        .iter()
        .any(|a| same_state(a, &aggs[j]) && matches!(a.func, AggFunc::Sum | AggFunc::Avg));
    if sums {
        AggFunc::Sum
    } else {
        aggs[j].func
    }
}

/// The accumulator aggregate `j` of `aggs` reads, an index into
/// [`accumulators`].
pub fn accumulator_of(aggs: &[AggSpec], j: usize) -> usize {
    let first = opener(aggs, j);
    (0..first).filter(|&i| opener(aggs, i) == i).count()
}

/// How many accumulators [`accumulators`] keeps for `aggs`.
pub fn accumulator_count(aggs: &[AggSpec]) -> usize {
    (0..aggs.len()).filter(|&j| opener(aggs, j) == j).count()
}

/// The first aggregate of `aggs` whose state aggregate `j` shares.
fn opener(aggs: &[AggSpec], j: usize) -> usize {
    (0..j)
        .find(|&i| same_state(&aggs[i], &aggs[j]))
        .unwrap_or(j)
}

/// Whether two aggregates fold into one state: one column, and SUM, AVG
/// and COUNT alike or one of MIN and MAX twice.
fn same_state(a: &AggSpec, b: &AggSpec) -> bool {
    let class = |f: AggFunc| match f {
        AggFunc::Sum | AggFunc::Avg | AggFunc::Count => AggFunc::Sum,
        other => other,
    };
    a.col == b.col && class(a.func) == class(b.func)
}

/// Slots of a table whose keys lie in `ranges`: key `j` takes
/// `hi - lo + 1` values and NULL, coded `0..=hi - lo` and `hi - lo + 1` in
/// a field of ⌈log₂(hi − lo + 2)⌉ bits, and the fields sit side by side.
/// `None` where a range is empty or the slots would number more than 2³¹.
pub fn slot_count(ranges: &[KeyRange]) -> Option<usize> {
    let bits = ranges
        .iter()
        .try_fold(0u32, |bits, r| bits.checked_add(field_bits(r)?))?;
    (bits <= 31).then(|| 1 << bits)
}

/// Bits of one key's field: its values and NULL.
fn field_bits(r: &KeyRange) -> Option<u32> {
    let values = u64::try_from(r.hi.checked_sub(r.lo)?)
        .ok()?
        .checked_add(2)?;
    Some(values.checked_next_power_of_two()?.ilog2())
}

/// Slot addressing of a table whose keys all lie in declared ranges
/// ([`slot_count`]): a slot is the keys' codes shifted to their fields and
/// ORed — no multiply, the multiplier stalls.
#[derive(Debug, Clone)]
struct SlotIndex<'p> {
    /// Per key, the range the plan declares.
    ranges: &'p [KeyRange],
    /// Per slot: the dense index of its group, or [`EMPTY_SLOT`].
    group_of: Vec<u32>,
}

/// A slot no row has reached.
const EMPTY_SLOT: u32 = u32::MAX;

impl<'p> SlotIndex<'p> {
    /// The index over `ranges`, where their slots number at most `limit`.
    fn new(ranges: &'p [KeyRange], limit: usize) -> Option<SlotIndex<'p>> {
        let slots = slot_count(ranges).filter(|&n| n <= limit)?;
        Some(SlotIndex {
            ranges,
            group_of: vec![EMPTY_SLOT; slots],
        })
    }

    /// The slot of a key tuple, `None` where a value lies outside its key's
    /// range.
    fn slot(&self, key: &[(i64, bool)]) -> Option<usize> {
        let (mut slot, mut shift) = (0, 0);
        for (&(v, is_null), r) in key.iter().zip(self.ranges) {
            let code = if is_null {
                r.hi - r.lo + 1
            } else if (r.lo..=r.hi).contains(&v) {
                v - r.lo
            } else {
                return None;
            };
            slot |= (code as usize) << shift;
            shift += field_bits(r)?;
        }
        Some(slot)
    }
}

/// A dense group table: key tuples -> group index, plus accumulator state,
/// for the aggregates and key ranges of the plan node `'p`.
#[derive(Debug)]
pub struct GroupTable<'p> {
    /// Key columns of discovered groups (column-major, dense by index).
    key_values: Vec<Vec<i64>>,
    /// Null flags for group keys (column-major), for NULL group keys.
    key_nulls: Vec<Vec<bool>>,
    /// Accumulators: `states[accumulator][group]`.
    states: Vec<Vec<AggState>>,
    /// Per accumulator: its input column and folding function.
    accs: Cow<'p, [AggSpec]>,
    /// The aggregates, each read from its accumulator.
    aggs: &'p [AggSpec],
    /// The slot addressing, while every key has been in its range.
    slots: Option<SlotIndex<'p>>,
    buckets: SmallIntArray,
    link: SmallIntArray,
    hashes: Vec<u32>,
    capacity: usize,
    sentinel: u64,
}

impl<'p> GroupTable<'p> {
    /// A hashed table expecting up to `expected_groups` distinct groups
    /// with `nkeys` key columns.
    /// A table of no keys holds its one group without a hash index.
    pub fn new(nkeys: usize, aggs: &'p [AggSpec], expected_groups: usize) -> GroupTable<'p> {
        let accs = accumulators_of(aggs);
        let cap = next_pow2_at_least(expected_groups, 16);
        let bits = SmallIntArray::bits_for(cap + 1);
        let indexed = |len: usize| if nkeys == 0 { 0 } else { len };
        let mut buckets = SmallIntArray::new(indexed(cap * 2), bits);
        let sentinel = cap as u64;
        for i in 0..buckets.len() {
            buckets.set(i, sentinel);
        }
        GroupTable {
            key_values: vec![Vec::new(); nkeys],
            key_nulls: vec![Vec::new(); nkeys],
            states: vec![Vec::new(); accs.len()],
            accs,
            aggs,
            slots: None,
            buckets,
            link: SmallIntArray::new(indexed(cap), bits),
            hashes: Vec::new(),
            capacity: cap,
            sentinel,
        }
    }

    /// A lane's table of an on-the-fly group-by over `rows` rows: indexed by
    /// slot where the plan declares a range per key and the slots fit the
    /// table a DMEM of `dmem_bytes` holds ([`on_the_fly_group_limit`]),
    /// hashed otherwise — sized for up to 256 groups, no more than it has
    /// rows.
    pub fn on_the_fly(
        nkeys: usize,
        aggs: &'p [AggSpec],
        slots: Option<&'p [KeyRange]>,
        dmem_bytes: usize,
        rows: usize,
    ) -> GroupTable<'p> {
        let mut t = GroupTable::new(nkeys, aggs, rows.min(256));
        let limit = on_the_fly_group_limit(dmem_bytes, nkeys, aggs);
        t.slots = slots
            .filter(|ranges| ranges.len() == nkeys)
            .and_then(|ranges| SlotIndex::new(ranges, limit));
        t
    }

    /// Number of groups discovered.
    pub fn groups(&self) -> usize {
        self.hashes.len()
    }

    /// Whether groups are still found by slot.
    #[cfg(test)]
    fn slotted(&self) -> bool {
        self.slots.is_some()
    }

    fn grow(&mut self) {
        let new_cap = self.capacity * 2;
        let bits = SmallIntArray::bits_for(new_cap + 1);
        let mut buckets = SmallIntArray::new(new_cap * 2, bits);
        let sentinel = new_cap as u64;
        for i in 0..buckets.len() {
            buckets.set(i, sentinel);
        }
        let mut link = SmallIntArray::new(new_cap, bits);
        for (g, &h) in self.hashes.iter().enumerate() {
            let b = bucket_of(h, buckets.len());
            link.set(g, buckets.get(b));
            buckets.set(b, g as u64);
        }
        self.buckets = buckets;
        self.link = link;
        self.capacity = new_cap;
        self.sentinel = sentinel;
    }

    /// Find or create the group for a key tuple; returns its dense index.
    fn upsert(&mut self, hash: u32, key: &[(i64, bool)]) -> u32 {
        if self.key_values.is_empty() {
            // No keys: the one group, made on first sight.
            return match self.groups() {
                0 => self.push_group(hash, key),
                _ => 0,
            };
        }
        let b = bucket_of(hash, self.buckets.len());
        let mut slot = self.buckets.get(b);
        while slot != self.sentinel {
            let g = slot as usize;
            if self.hashes[g] == hash
                && key.iter().enumerate().all(|(j, &(v, is_null))| {
                    self.key_nulls[j][g] == is_null && (is_null || self.key_values[j][g] == v)
                })
            {
                return g as u32;
            }
            slot = self.link.get(g);
        }
        self.push_group(hash, key)
    }

    /// The group in `slot`, created for `key` where the slot is empty. A
    /// group created here enters the hash chains too, under the hash
    /// [`crate::primitives::hash::hash_rows`] gives its key (a NULL key's
    /// value is 0), so the table can go on hashed at any point.
    fn slot_upsert(&mut self, slot: usize, key: &[(i64, bool)]) -> u32 {
        let found = self.slots.as_ref().map(|s| s.group_of[slot]);
        if let Some(g) = found.filter(|&g| g != EMPTY_SLOT) {
            return g;
        }
        let value = |&(v, is_null): &(i64, bool)| if is_null { 0 } else { v as u64 };
        let hash = match key {
            [] => 0,
            [k] => dpu_sim::crc32::hash_u64(value(k)),
            _ => dpu_sim::crc32::hash_key_iter(key.iter().map(value)),
        };
        let g = self.push_group(hash, key);
        if let Some(slots) = self.slots.as_mut() {
            slots.group_of[slot] = g;
        }
        g
    }

    /// Append a new group for `key`, hashed to `hash`.
    fn push_group(&mut self, hash: u32, key: &[(i64, bool)]) -> u32 {
        if self.groups() == self.capacity {
            self.grow();
        }
        let g = self.hashes.len();
        self.hashes.push(hash);
        for (j, &(v, is_null)) in key.iter().enumerate() {
            self.key_values[j].push(if is_null { 0 } else { v });
            self.key_nulls[j].push(is_null);
        }
        for (acc, states) in self.accs.iter().zip(&mut self.states) {
            states.push(AggState::init(acc.func));
        }
        if !self.buckets.is_empty() {
            let b = bucket_of(hash, self.buckets.len());
            self.link.set(g, self.buckets.get(b));
            self.buckets.set(b, g as u64);
        }
        g as u32
    }

    /// Ensure the single global-aggregate group exists. SQL requires an
    /// ungrouped aggregate to emit exactly one row even over empty input
    /// (COUNT = 0, other aggregates NULL); with lazy group creation that
    /// row would otherwise vanish when every input row is filtered out.
    pub fn force_global_group(&mut self) {
        debug_assert!(
            self.key_values.is_empty(),
            "only global aggregates have an implicit group"
        );
        if self.groups() == 0 {
            // Hash 0 matches what `consume` uses for the keyless case, so
            // later merges collapse onto this group.
            self.upsert(0, &[]);
        }
    }

    /// Consume one batch: assign each row its group index — by slot where
    /// every key of the batch lies in its range, else by hash — then run
    /// one grouped-aggregation loop per accumulator.
    pub fn consume(
        &mut self,
        ctx: &mut CoreCtx,
        batch: &Batch,
        key_cols: &[usize],
    ) -> QefResult<()> {
        self.consume_runs(ctx, std::iter::once(Run::of_batch(batch)), key_cols)
    }

    /// [`consume`](Self::consume) the rows a lane of a task holds, read
    /// where they lie: the keys and the aggregate inputs are read once per
    /// row ([`Rows::charge_select`]), and nothing is copied.
    pub fn consume_rows(
        &mut self,
        ctx: &mut CoreCtx,
        rows: &Rows<'_>,
        key_cols: &[usize],
    ) -> QefResult<()> {
        let read = key_cols
            .iter()
            .copied()
            .chain(self.accs.iter().map(|a| a.col));
        rows.charge_select(ctx, read);
        self.consume_runs(ctx, rows.runs(), key_cols)
    }

    fn consume_runs<'r>(
        &mut self,
        ctx: &mut CoreCtx,
        runs: impl Iterator<Item = Run<'r>> + Clone,
        key_cols: &[usize],
    ) -> QefResult<()> {
        let rows: usize = runs.clone().map(|run| run.len()).sum();
        if rows == 0 {
            return Ok(());
        }
        if self.slots.is_none() && key_cols.is_empty() {
            // A global aggregate: every row is the one group's.
            let g = self.upsert(0, &[]) as usize;
            let lookup = costs::group_lookup_per_row().scaled(rows as f64);
            ctx.charge_kernel(Kernel::GroupLookup, &lookup);
            if !ctx.vectorized {
                let dispatch = costs::row_at_a_time_overhead_per_row().scaled(rows as f64);
                ctx.charge_kernel(Kernel::Other, &dispatch);
            }
            for (acc, states) in self.accs.iter().zip(&mut self.states) {
                let col = runs.clone().map(|run| run.column(acc.col));
                agg_one(ctx, acc.func, col, &mut states[g])?;
            }
            ctx.charge_tile();
            return Ok(());
        }
        // The key columns of the run at hand, and where its rows lie in them.
        let mut keys: Vec<(&Vector, Positions<'_>)> = Vec::with_capacity(key_cols.len());
        let key_of = |keys: &[(&Vector, Positions<'_>)], i: usize, keybuf: &mut [(i64, bool)]| {
            for (kb, (k, at)) in keybuf.iter_mut().zip(keys) {
                let row = at.get(i);
                *kb = (k.data.get_i64(row), k.is_null(row));
            }
        };
        let mut group_idx = Vec::with_capacity(rows);
        let mut keybuf = vec![(0i64, false); key_cols.len()];
        if self.slots.is_some() {
            // The slot loop runs over the whole batch and flags a key out of
            // its range; the batch is then looked up by hash after all.
            let slot_loop = costs::group_slot_per_row(key_cols.len()).scaled(rows as f64);
            ctx.charge_kernel(Kernel::GroupSlot, &slot_loop);
            'runs: for run in runs.clone() {
                keys.clear();
                keys.extend(key_cols.iter().map(|&c| run.column(c)));
                for i in 0..run.len() {
                    key_of(&keys, i, &mut keybuf);
                    match self.slots.as_ref().and_then(|s| s.slot(&keybuf)) {
                        Some(slot) => group_idx.push(self.slot_upsert(slot, &keybuf)),
                        None => {
                            self.slots = None;
                            group_idx.clear();
                            break 'runs;
                        }
                    }
                }
            }
        }
        if self.slots.is_none() {
            let mut hashes = vec![0u32; rows];
            if !key_cols.is_empty() {
                let keyed = runs
                    .clone()
                    .map(|run| key_cols.iter().map(move |&c| run.column(c)));
                hash_pieces_into(ctx, keyed, &mut hashes);
            }
            let mut hashes = hashes.iter();
            for run in runs.clone() {
                keys.clear();
                keys.extend(key_cols.iter().map(|&c| run.column(c)));
                for (i, &h) in (0..run.len()).zip(hashes.by_ref()) {
                    key_of(&keys, i, &mut keybuf);
                    group_idx.push(self.upsert(h, &keybuf));
                }
            }
            let lookup = costs::group_lookup_per_row().scaled(rows as f64);
            ctx.charge_kernel(Kernel::GroupLookup, &lookup);
        }
        if !ctx.vectorized {
            let dispatch = costs::row_at_a_time_overhead_per_row().scaled(rows as f64);
            ctx.charge_kernel(Kernel::Other, &dispatch);
        }
        for (acc, states) in self.accs.iter().zip(&mut self.states) {
            let col = runs.clone().map(|run| run.column(acc.col));
            agg_grouped(ctx, acc.func, col, &group_idx, states)?;
        }
        ctx.charge_tile();
        Ok(())
    }

    /// Merge another table of the same plan node into this one (the merge
    /// operator after on-the-fly aggregation): slot by slot where both
    /// tables still index by slot, else by hash. Charges ATE transfer of the
    /// other table.
    pub fn merge_from(&mut self, ctx: &mut CoreCtx, other: &GroupTable) -> QefResult<()> {
        if other.slots.is_none() {
            self.slots = None;
        }
        let mut keybuf = vec![(0i64, false); self.key_values.len()];
        for g in 0..other.groups() {
            for (j, kb) in keybuf.iter_mut().enumerate() {
                *kb = (other.key_values[j][g], other.key_nulls[j][g]);
            }
            let me = match self.slots.as_ref().and_then(|s| s.slot(&keybuf)) {
                Some(slot) => self.slot_upsert(slot, &keybuf),
                None => self.upsert(other.hashes[g], &keybuf),
            } as usize;
            for ((acc, mine), theirs) in self.accs.iter().zip(&mut self.states).zip(&other.states) {
                mine[me].merge(acc.func, &theirs[g])?;
            }
        }
        // Message-passing cost: the other core ships its aggregated table,
        // charged as one message across a macro boundary.
        let hop = ate::message_cost(&ctx.cost_model, 0, ate::CORES_PER_MACRO);
        ctx.charge_ate(hop);
        let fold = costs::grouped_agg_per_row().scaled(other.groups() as f64);
        ctx.charge_kernel(Kernel::Aggregate, &fold);
        Ok(())
    }

    /// Emit the result batch: key columns then finalized aggregates, each
    /// read from its accumulator.
    pub fn emit(&self, ctx: &mut CoreCtx) -> Batch {
        let n = self.groups();
        let mut cols = Vec::with_capacity(self.key_values.len() + self.aggs.len());
        for (kv, kn) in self.key_values.iter().zip(&self.key_nulls) {
            let mut nulls = rapid_storage::bitvec::BitVec::zeros(0);
            for &b in kn {
                nulls.push(b);
            }
            cols.push(Vector::with_nulls(ColumnData::I64(kv.clone()), nulls));
        }
        for (j, agg) in self.aggs.iter().enumerate() {
            let mut data = Vec::with_capacity(n);
            let mut nulls = rapid_storage::bitvec::BitVec::zeros(0);
            for state in &self.states[accumulator_of(self.aggs, j)] {
                match state.finalize(agg.func) {
                    Some(v) => {
                        data.push(v);
                        nulls.push(false);
                    }
                    None => {
                        data.push(0);
                        nulls.push(true);
                    }
                }
            }
            cols.push(Vector::with_nulls(ColumnData::I64(data), nulls));
        }
        let finalize = costs::agg_per_row().scaled(n as f64);
        ctx.charge_kernel(Kernel::Aggregate, &finalize);
        Batch::new(cols)
    }
}

/// Number of groups whose table still fits comfortably in one core's
/// DMEM alongside input/output vectors (the on-the-fly cutoff), for
/// `nkeys` keys and the accumulators `aggs` keep ([`accumulators`]).
pub fn on_the_fly_group_limit(dmem_bytes: usize, nkeys: usize, aggs: &[AggSpec]) -> usize {
    // Per group: keys (8B each) + states (16B each) + ~3 bits of index
    // structures; leave half of DMEM for vectors.
    let per_group = nkeys * 8 + accumulator_count(aggs) * 16 + 8;
    (dmem_bytes / 2) / per_group.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CoreCtx, ExecContext};
    use rapid_storage::bitvec::BitVec;

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    fn batch(keys: Vec<i64>, vals: Vec<i64>) -> Batch {
        Batch::new(vec![
            Vector::new(ColumnData::I64(keys)),
            Vector::new(ColumnData::I64(vals)),
        ])
    }

    const SPECS: [AggSpec; 3] = [
        AggSpec {
            func: AggFunc::Sum,
            col: 1,
        },
        AggSpec {
            func: AggFunc::Count,
            col: 0,
        },
        AggSpec {
            func: AggFunc::Min,
            col: 1,
        },
    ];

    #[test]
    fn groups_and_aggregates() {
        let mut c = ctx();
        let mut t = GroupTable::new(1, &SPECS, 4);
        t.consume(
            &mut c,
            &batch(vec![1, 2, 1, 2, 1], vec![10, 20, 30, 40, 50]),
            &[0],
        )
        .unwrap();
        assert_eq!(t.groups(), 2);
        let out = t.emit(&mut c);
        // Row for key 1: sum=90, count=3, min=10.
        let keys = out.column(0).data.to_i64_vec();
        let g1 = keys.iter().position(|&k| k == 1).unwrap();
        assert_eq!(out.column(1).data.get_i64(g1), 90);
        assert_eq!(out.column(2).data.get_i64(g1), 3);
        assert_eq!(out.column(3).data.get_i64(g1), 10);
    }

    #[test]
    fn table_grows_past_expected_capacity() {
        let mut c = ctx();
        let mut t = GroupTable::new(1, &SPECS, 4);
        let keys: Vec<i64> = (0..1000).collect();
        let vals: Vec<i64> = (0..1000).collect();
        t.consume(&mut c, &batch(keys, vals), &[0]).unwrap();
        assert_eq!(t.groups(), 1000);
        let out = t.emit(&mut c);
        assert_eq!(out.rows(), 1000);
    }

    #[test]
    fn merge_combines_per_core_tables() {
        let mut c = ctx();
        let mut a = GroupTable::new(1, &SPECS, 8);
        a.consume(&mut c, &batch(vec![1, 2], vec![10, 20]), &[0])
            .unwrap();
        let mut b = GroupTable::new(1, &SPECS, 8);
        b.consume(&mut c, &batch(vec![2, 3], vec![200, 300]), &[0])
            .unwrap();
        a.merge_from(&mut c, &b).unwrap();
        assert_eq!(a.groups(), 3);
        let out = a.emit(&mut c);
        let keys = out.column(0).data.to_i64_vec();
        let g2 = keys.iter().position(|&k| k == 2).unwrap();
        assert_eq!(out.column(1).data.get_i64(g2), 220);
        assert_eq!(out.column(2).data.get_i64(g2), 2);
    }

    #[test]
    fn global_aggregate_without_keys() {
        let mut c = ctx();
        let mut t = GroupTable::new(
            0,
            &[AggSpec {
                func: AggFunc::Sum,
                col: 0,
            }],
            1,
        );
        t.consume(
            &mut c,
            &Batch::new(vec![Vector::new(ColumnData::I64(vec![1, 2, 3]))]),
            &[],
        )
        .unwrap();
        assert_eq!(t.groups(), 1);
        let out = t.emit(&mut c);
        assert_eq!(out.column(0).data.get_i64(0), 6);
    }

    #[test]
    fn null_keys_form_their_own_group() {
        let mut c = ctx();
        let mut nulls = BitVec::zeros(4);
        nulls.set(1, true);
        nulls.set(3, true);
        let keycol = Vector::with_nulls(ColumnData::I64(vec![7, 0, 7, 0]), nulls);
        let vals = Vector::new(ColumnData::I64(vec![1, 2, 3, 4]));
        let b = Batch::new(vec![keycol, vals]);
        let mut t = GroupTable::new(
            1,
            &[AggSpec {
                func: AggFunc::Sum,
                col: 1,
            }],
            4,
        );
        t.consume(&mut c, &b, &[0]).unwrap();
        assert_eq!(t.groups(), 2, "7-group and NULL-group");
        let out = t.emit(&mut c);
        let null_g = (0..2).find(|&g| out.column(0).get(g).is_none()).unwrap();
        assert_eq!(out.column(1).data.get_i64(null_g), 6);
    }

    #[test]
    fn sum_of_no_rows_is_null_but_count_is_zero() {
        let mut c = ctx();
        let t = GroupTable::new(0, &SPECS, 1);
        let out = t.emit(&mut c);
        assert_eq!(out.rows(), 0, "no input, no groups");
    }

    #[test]
    fn on_the_fly_limit_is_reasonable() {
        let limit = on_the_fly_group_limit(32 * 1024, 1, &SPECS[..2]);
        assert!(limit > 100 && limit < 32 * 1024);
    }

    fn every_kind(col: usize) -> Vec<AggSpec> {
        [
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
        ]
        .map(|func| AggSpec { func, col })
        .to_vec()
    }

    /// Keys 0..=2 (NULL every fifth row, stored as 0 like every NULL) and
    /// 10..=11, values with NULLs.
    fn keyed(rows: usize, offset: i64) -> Batch {
        let nulls = |k: usize| BitVec::from_bools((0..rows).map(|i| i % k == 0));
        let i = |r: usize| r as i64 + offset;
        let code = |r: usize| {
            if r.is_multiple_of(5) {
                0
            } else {
                (i(r) % 3) as i8
            }
        };
        Batch::new(vec![
            Vector::with_nulls(ColumnData::I8((0..rows).map(code).collect()), nulls(5)),
            Vector::new(ColumnData::I64((0..rows).map(|r| 10 + i(r) % 2).collect())),
            Vector::with_nulls(
                ColumnData::I64((0..rows).map(|r| i(r) * 7 - 40).collect()),
                nulls(3),
            ),
        ])
    }

    const RANGES: [KeyRange; 2] = [KeyRange { lo: 0, hi: 2 }, KeyRange { lo: 10, hi: 11 }];

    #[test]
    fn shared_accumulators_give_what_separate_ones_gave() {
        let mut aggs = every_kind(2);
        aggs.push(AggSpec {
            func: AggFunc::Count,
            col: 0,
        });
        // SUM, AVG and COUNT of column 2 share one state; MIN, MAX and the
        // COUNT of column 0 keep their own.
        let accs = accumulators(&aggs);
        assert_eq!(accs.len(), 4);
        assert_eq!(accumulator_count(&aggs), 4);
        let reads: Vec<usize> = (0..aggs.len()).map(|j| accumulator_of(&aggs, j)).collect();
        assert_eq!(reads, [0, 0, 0, 1, 2, 3]);
        assert_eq!(accs[0].func, AggFunc::Sum);
        assert_eq!(accs[3].func, AggFunc::Count, "a COUNT alone does not sum");
        let mut c = ctx();
        let mut shared = GroupTable::new(2, &aggs, 16);
        shared.consume(&mut c, &keyed(100, 0), &[0, 1]).unwrap();
        let shared = shared.emit(&mut c);
        for (j, agg) in aggs.iter().enumerate() {
            let mut alone = GroupTable::new(2, std::slice::from_ref(agg), 16);
            alone.consume(&mut c, &keyed(100, 0), &[0, 1]).unwrap();
            let alone = alone.emit(&mut c);
            assert_eq!(shared.column(2 + j), alone.column(2), "{agg:?}");
        }
        // One accumulator loop per accumulator, not per aggregate.
        let mut loops = ctx();
        GroupTable::new(2, &aggs, 16)
            .consume(&mut loops, &keyed(100, 0), &[0, 1])
            .unwrap();
        let per_loop = loops
            .cost_model
            .kernel_cycles(&costs::grouped_agg_per_row())
            * 100.0;
        let charged = loops.kernels.get(Kernel::Aggregate).cycles;
        assert!(
            (charged - 4.0 * per_loop).abs() < 1e-6,
            "{charged} vs 4 × {per_loop}"
        );
    }

    #[test]
    fn a_count_sharing_nothing_never_overflows_and_a_sum_beside_it_does() {
        let big = Batch::new(vec![Vector::new(ColumnData::I64(vec![i64::MAX, i64::MAX]))]);
        let count = AggSpec {
            func: AggFunc::Count,
            col: 0,
        };
        let mut c = ctx();
        let aggs = [count];
        let mut t = GroupTable::new(0, &aggs, 1);
        t.consume(&mut c, &big, &[]).unwrap();
        assert_eq!(t.emit(&mut c).column(0).get(0), Some(2));
        let sum = AggSpec {
            func: AggFunc::Sum,
            col: 0,
        };
        let aggs = [count, sum];
        let mut t = GroupTable::new(0, &aggs, 1);
        assert!(t.consume(&mut c, &big, &[]).is_err());
    }

    #[test]
    fn a_slot_table_handles_null_keys_and_merges_by_addition() {
        assert_eq!(
            slot_count(&RANGES),
            Some(16),
            "2 bits and 2 bits, NULL included"
        );
        let aggs = every_kind(2);
        let dmem = 32 * 1024;
        let mut c = ctx();
        let run = |slots: Option<&[KeyRange]>, c: &mut CoreCtx| {
            let mut first = GroupTable::on_the_fly(2, &aggs, slots, dmem, 256);
            first.consume(c, &keyed(64, 0), &[0, 1]).unwrap();
            let mut second = GroupTable::on_the_fly(2, &aggs, slots, dmem, 256);
            second.consume(c, &keyed(50, 1), &[0, 1]).unwrap();
            first.merge_from(c, &second).unwrap();
            (first.slotted(), first.groups(), first.emit(c))
        };
        let (slotted, groups, by_slot) = run(Some(&RANGES), &mut c);
        assert!(slotted);
        // Three codes and NULL by two values: eight groups.
        assert_eq!(groups, 8);
        let (hashed, _, by_hash) = run(None, &mut c);
        assert!(!hashed);
        assert_eq!(by_slot, by_hash, "same groups, same order, same sums");
        // No CRC and no chain walk: the slot kernel alone finds the groups.
        let mut lane = ctx();
        let mut t = GroupTable::on_the_fly(2, &aggs, Some(&RANGES), dmem, 256);
        t.consume(&mut lane, &keyed(64, 0), &[0, 1]).unwrap();
        let split = &lane.kernels;
        assert!(split.get(Kernel::GroupSlot).cycles > 0.0);
        assert_eq!(split.get(Kernel::Hash).cycles, 0.0);
        assert_eq!(split.get(Kernel::GroupLookup).cycles, 0.0);
    }

    #[test]
    fn a_key_out_of_its_range_falls_back_to_the_hashed_table() {
        let aggs = every_kind(2);
        let dmem = 32 * 1024;
        // Key 0 declared 0..=1 where it takes 2 too.
        let narrow = [KeyRange { lo: 0, hi: 1 }, RANGES[1]];
        let mut c = ctx();
        let mut hashed = GroupTable::on_the_fly(2, &aggs, None, dmem, 256);
        hashed.consume(&mut c, &keyed(64, 0), &[0, 1]).unwrap();
        let mut fell = GroupTable::on_the_fly(2, &aggs, Some(&narrow), dmem, 256);
        fell.consume(&mut c, &keyed(64, 0), &[0, 1]).unwrap();
        assert!(!fell.slotted());
        assert_eq!(fell.emit(&mut c), hashed.emit(&mut c));
        // A table still slotted merges with one that fell back, either way
        // round, into what two hashed tables merge into.
        // Its first two rows have keys 0 and 1.
        let head = Batch::new(keyed(64, 0).columns.iter().map(|k| k.slice(0, 2)).collect());
        let in_range = || {
            let mut t = GroupTable::on_the_fly(2, &aggs, Some(&narrow), dmem, 256);
            t.consume(&mut ctx(), &head, &[0, 1]).unwrap();
            assert!(t.slotted());
            t
        };
        let expect = {
            let mut a = GroupTable::on_the_fly(2, &aggs, None, dmem, 256);
            a.consume(&mut c, &head, &[0, 1]).unwrap();
            a.merge_from(&mut c, &hashed).unwrap();
            a.emit(&mut c)
        };
        let mut slotted = in_range();
        slotted.merge_from(&mut c, &fell).unwrap();
        assert!(!slotted.slotted());
        assert_eq!(slotted.emit(&mut c), expect);
        let mut fell_first = GroupTable::on_the_fly(2, &aggs, Some(&narrow), dmem, 256);
        fell_first.consume(&mut c, &keyed(64, 0), &[0, 1]).unwrap();
        fell_first.merge_from(&mut c, &in_range()).unwrap();
        let mut hashed_first = GroupTable::on_the_fly(2, &aggs, None, dmem, 256);
        hashed_first
            .consume(&mut c, &keyed(64, 0), &[0, 1])
            .unwrap();
        hashed_first.merge_from(&mut c, &in_range()).unwrap();
        assert_eq!(fell_first.emit(&mut c), hashed_first.emit(&mut c));
    }

    #[test]
    fn slots_past_the_table_a_scratchpad_holds_are_hashed() {
        let wide = [KeyRange { lo: 0, hi: 4000 }];
        let aggs = every_kind(1);
        assert_eq!(slot_count(&wide), Some(4096));
        assert!(on_the_fly_group_limit(32 * 1024, 1, &aggs) < 4096);
        assert!(!GroupTable::on_the_fly(1, &aggs, Some(&wide), 32 * 1024, 256).slotted());
        assert_eq!(
            slot_count(&[KeyRange { lo: 1, hi: 0 }]),
            None,
            "an empty range"
        );
        assert_eq!(
            slot_count(&[KeyRange {
                lo: i64::MIN,
                hi: i64::MAX
            }]),
            None
        );
    }

    #[test]
    fn multi_key_groups() {
        let mut c = ctx();
        let b = Batch::new(vec![
            Vector::new(ColumnData::I64(vec![1, 1, 2, 1])),
            Vector::new(ColumnData::I64(vec![10, 20, 10, 10])),
            Vector::new(ColumnData::I64(vec![5, 5, 5, 5])),
        ]);
        let mut t = GroupTable::new(
            2,
            &[AggSpec {
                func: AggFunc::Count,
                col: 2,
            }],
            4,
        );
        t.consume(&mut c, &b, &[0, 1]).unwrap();
        assert_eq!(t.groups(), 3); // (1,10)x2, (1,20), (2,10)
    }
}
