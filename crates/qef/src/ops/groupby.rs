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
//! The group hash table reuses the compact chained layout of the join
//! (buckets + link arrays of ⌈log₂N⌉-bit entries) mapping key tuples to
//! dense group indices.

use dpu_sim::ate;
use rapid_storage::vector::{ColumnData, Vector};

use crate::batch::Batch;
use crate::error::QefResult;
use crate::exec::CoreCtx;
use crate::plan::AggSpec;
use crate::primitives::agg::{agg_grouped, AggState};
use crate::primitives::costs;
use crate::primitives::hash::{bucket_of, hash_rows};
use crate::util::{next_pow2_at_least, SmallIntArray};

/// A dense group table: key tuples -> group index, plus accumulator state.
#[derive(Debug)]
pub struct GroupTable {
    /// Key columns of discovered groups (column-major, dense by index).
    pub key_values: Vec<Vec<i64>>,
    /// Null flags for group keys (column-major), for NULL group keys.
    pub key_nulls: Vec<Vec<bool>>,
    /// Accumulators: `states[agg][group]`.
    pub states: Vec<Vec<AggState>>,
    aggs: Vec<AggSpec>,
    buckets: SmallIntArray,
    link: SmallIntArray,
    hashes: Vec<u32>,
    capacity: usize,
    sentinel: u64,
}

impl GroupTable {
    /// A table expecting up to `expected_groups` distinct groups with
    /// `nkeys` key columns.
    pub fn new(nkeys: usize, aggs: &[AggSpec], expected_groups: usize) -> GroupTable {
        let cap = next_pow2_at_least(expected_groups, 16);
        let bits = SmallIntArray::bits_for(cap + 1);
        let mut buckets = SmallIntArray::new(cap * 2, bits);
        let sentinel = cap as u64;
        for i in 0..buckets.len() {
            buckets.set(i, sentinel);
        }
        GroupTable {
            key_values: vec![Vec::new(); nkeys],
            key_nulls: vec![Vec::new(); nkeys],
            states: vec![Vec::new(); aggs.len()],
            aggs: aggs.to_vec(),
            buckets,
            link: SmallIntArray::new(cap, bits),
            hashes: Vec::new(),
            capacity: cap,
            sentinel,
        }
    }

    /// Number of groups discovered.
    pub fn groups(&self) -> usize {
        self.hashes.len()
    }

    /// Bytes the table's core structures occupy (DMEM budget accounting).
    pub fn size_bytes(&self) -> usize {
        self.buckets.size_bytes()
            + self.link.size_bytes()
            + self.key_values.iter().map(|k| k.len() * 8).sum::<usize>()
            + self.states.iter().map(|s| s.len() * 16).sum::<usize>()
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
        // New group.
        if self.groups() == self.capacity {
            self.grow();
        }
        let g = self.hashes.len();
        self.hashes.push(hash);
        for (j, &(v, is_null)) in key.iter().enumerate() {
            self.key_values[j].push(if is_null { 0 } else { v });
            self.key_nulls[j].push(is_null);
        }
        for (a, spec) in self.aggs.iter().enumerate() {
            self.states[a].push(AggState::init(spec.func));
        }
        let b = bucket_of(self.hashes[g], self.buckets.len());
        self.link.set(g, self.buckets.get(b));
        self.buckets.set(b, g as u64);
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

    /// Consume one batch: assign each row its group index, then run the
    /// grouped-aggregation primitives per aggregate.
    pub fn consume(
        &mut self,
        ctx: &mut CoreCtx,
        batch: &Batch,
        key_cols: &[usize],
    ) -> QefResult<()> {
        let rows = batch.rows();
        if rows == 0 {
            return Ok(());
        }
        let keys: Vec<&Vector> = key_cols.iter().map(|&c| batch.column(c)).collect();
        let hashes = if keys.is_empty() {
            vec![0u32; rows] // global aggregate: one group
        } else {
            hash_rows(ctx, &keys)
        };
        let mut group_idx = Vec::with_capacity(rows);
        let mut keybuf = vec![(0i64, false); keys.len()];
        for (i, &h) in hashes.iter().enumerate().take(rows) {
            for (j, k) in keys.iter().enumerate() {
                keybuf[j] = (k.data.get_i64(i), k.is_null(i));
            }
            group_idx.push(self.upsert(h, &keybuf));
        }
        ctx.charge_kernel(&costs::group_lookup_per_row().scaled(rows as f64));
        if !ctx.vectorized {
            ctx.charge_kernel(&costs::row_at_a_time_overhead_per_row().scaled(rows as f64));
        }
        for (a, spec) in self.aggs.iter().enumerate() {
            let col = batch.column(spec.col);
            agg_grouped(ctx, spec.func, col, &group_idx, &mut self.states[a])?;
        }
        ctx.charge_tile();
        Ok(())
    }

    /// Merge another table into this one (the merge operator after
    /// on-the-fly aggregation). Charges ATE transfer of the other table.
    pub fn merge_from(&mut self, ctx: &mut CoreCtx, other: &GroupTable) -> QefResult<()> {
        let mut keybuf = vec![(0i64, false); self.key_values.len()];
        let aggs = self.aggs.clone();
        for g in 0..other.groups() {
            for (j, kb) in keybuf.iter_mut().enumerate() {
                *kb = (other.key_values[j][g], other.key_nulls[j][g]);
            }
            let me = self.upsert(other.hashes[g], &keybuf) as usize;
            for (a, spec) in aggs.iter().enumerate() {
                let o = other.states[a][g];
                self.states[a][me].merge(spec.func, &o)?;
            }
        }
        // Message-passing cost: the other core ships its aggregated table,
        // charged as one message across a macro boundary.
        if ctx.charging() {
            let hop = ate::message_cost(&ctx.cost_model, 0, ate::CORES_PER_MACRO);
            ctx.account.charge_ate(hop);
        }
        ctx.charge_kernel(&costs::grouped_agg_per_row().scaled(other.groups() as f64));
        Ok(())
    }

    /// Emit the result batch: key columns then finalized aggregates.
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
        for (a, spec) in self.aggs.iter().enumerate() {
            let mut data = Vec::with_capacity(n);
            let mut nulls = rapid_storage::bitvec::BitVec::zeros(0);
            for g in 0..n {
                match self.states[a][g].finalize(spec.func) {
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
        ctx.charge_kernel(&costs::agg_per_row().scaled(n as f64));
        Batch::new(cols)
    }
}

/// Number of groups whose table still fits comfortably in one core's
/// DMEM alongside input/output vectors (the on-the-fly cutoff).
pub fn on_the_fly_group_limit(dmem_bytes: usize, nkeys: usize, naggs: usize) -> usize {
    // Per group: keys (8B each) + states (16B each) + ~3 bits of index
    // structures; leave half of DMEM for vectors.
    let per_group = nkeys * 8 + naggs * 16 + 8;
    (dmem_bytes / 2) / per_group.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CoreCtx, ExecContext};
    use crate::primitives::agg::AggFunc;

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    fn batch(keys: Vec<i64>, vals: Vec<i64>) -> Batch {
        Batch::new(vec![
            Vector::new(ColumnData::I64(keys)),
            Vector::new(ColumnData::I64(vals)),
        ])
    }

    fn specs() -> Vec<AggSpec> {
        vec![
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
        ]
    }

    #[test]
    fn groups_and_aggregates() {
        let mut c = ctx();
        let mut t = GroupTable::new(1, &specs(), 4);
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
        let mut t = GroupTable::new(1, &specs(), 4);
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
        let mut a = GroupTable::new(1, &specs(), 8);
        a.consume(&mut c, &batch(vec![1, 2], vec![10, 20]), &[0])
            .unwrap();
        let mut b = GroupTable::new(1, &specs(), 8);
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
        use rapid_storage::bitvec::BitVec;
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
        let t = GroupTable::new(0, &specs(), 1);
        let out = t.emit(&mut c);
        assert_eq!(out.rows(), 0, "no input, no groups");
    }

    #[test]
    fn on_the_fly_limit_is_reasonable() {
        let limit = on_the_fly_group_limit(32 * 1024, 1, 2);
        assert!(limit > 100 && limit < 32 * 1024);
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
