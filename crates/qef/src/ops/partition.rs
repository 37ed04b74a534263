//! The partitioning operator: combined hardware + software partitioning.
//!
//! "RAPID combines hardware and software partitioning for efficiently
//! partitioning relations" (§5.4): the DMS delivers up to 32-way
//! partitioning while the data moves; the dpCores add further rounds in
//! software using `compute_partition_map` + per-partition sequential
//! gathers, with per-partition **local buffers in DMEM** flushed to DRAM
//! when they fill — turning random partition writes into sequential ones.
//!
//! Multi-round schemes (§5.3) are driven by the caller (join/group-by):
//! each round partitions every current partition `fanout`-ways, so a
//! scheme `[16, 4]` yields 64 partitions after two passes.

use rapid_storage::vector::Vector;

use crate::batch::Batch;
use crate::error::QefResult;
use crate::exec::CoreCtx;
use crate::primitives::hash::hash_pieces;
use crate::primitives::partition_map::{compute_partition_map, swpart_gather_column};
use crate::ra::RelationAccessor;

/// How many radix bits of the hash each round consumes, tracked so that
/// successive rounds use *disjoint* hash bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashBitCursor {
    /// Bits already consumed by earlier rounds.
    pub consumed: u32,
}

impl HashBitCursor {
    /// Take `bits` bits for a round, returning the shift to apply.
    pub fn take(&mut self, bits: u32) -> u32 {
        let shift = self.consumed;
        self.consumed += bits;
        assert!(self.consumed <= 32, "hash bits exhausted; scheme too deep");
        shift
    }
}

/// Partition a set of batches — one logical input, read in place — into
/// `fanout` partitions by the hash of `key_cols`, consuming hash bits at
/// `shift`. Returns one batch per partition, rows in input order (empty
/// partitions produce empty batches).
pub fn partition_batches(
    ctx: &mut CoreCtx,
    batches: &[Batch],
    key_cols: &[usize],
    fanout: usize,
    shift: u32,
    tile: usize,
) -> QefResult<Vec<Batch>> {
    debug_assert!(fanout.is_power_of_two());
    let pieces: Vec<&Batch> = batches.iter().filter(|b| !b.is_empty()).collect();
    let Some(first) = pieces.first() else {
        return Ok(vec![Batch::empty(0); fanout]);
    };
    let keys: Vec<Vec<&Vector>> = pieces
        .iter()
        .map(|b| key_cols.iter().map(|&c| b.column(c)).collect())
        .collect();
    let hashes = hash_pieces(ctx, &keys);
    let map = compute_partition_map(ctx, &hashes, fanout, shift);

    // Gather each column partition-by-partition (Listing 3), writing
    // each partition's rows sequentially — charge the local-buffer
    // flush as a sequential DMS write.
    let mut per_part_cols: Vec<Vec<Vector>> = (0..fanout)
        .map(|_| Vec::with_capacity(first.width()))
        .collect();
    let mut column: Vec<&Vector> = Vec::with_capacity(pieces.len());
    for c in 0..first.width() {
        column.clear();
        column.extend(pieces.iter().map(|b| b.column(c)));
        for (p, v) in swpart_gather_column(ctx, &map, &column)
            .into_iter()
            .enumerate()
        {
            per_part_cols[p].push(v);
        }
    }
    let widths: Vec<usize> = first.columns.iter().map(|c| c.data.width()).collect();
    ctx.charge_dms(&RelationAccessor::seq_write_cost(
        ctx,
        &widths,
        hashes.len(),
        tile,
    ));
    ctx.charge_tile();
    Ok(per_part_cols
        .into_iter()
        .enumerate()
        .map(|(p, cols)| {
            if map.rows_of(p).is_empty() {
                Batch::empty(0)
            } else {
                Batch::new(cols)
            }
        })
        .collect())
}

/// Apply a multi-round partition scheme, producing `scheme.product()`
/// partitions. Round `r` splits every partition of round `r-1`.
pub fn partition_scheme(
    ctx: &mut CoreCtx,
    batches: Vec<Batch>,
    key_cols: &[usize],
    scheme: &[usize],
    tile: usize,
) -> QefResult<Vec<Batch>> {
    // Reject malformed schemes up front with a typed error instead of
    // letting the bit cursor's invariant assert mid-partitioning: every
    // round must be a power of two and the rounds together may consume at
    // most the hash's 32 bits (the static verifier additionally reserves
    // the top 4 for skew re-partitioning; by the time a scheme reaches
    // this operator the hard limit is the hash width itself).
    if let Some(&bad) = scheme.iter().find(|f| !f.is_power_of_two()) {
        return Err(crate::error::QefError::BadPlan(format!(
            "partition scheme {scheme:?} has non-power-of-two fan-out {bad}"
        )));
    }
    let total_bits: u32 = scheme.iter().map(|f| f.trailing_zeros()).sum();
    if total_bits > 32 {
        return Err(crate::error::QefError::BadPlan(format!(
            "partition scheme {scheme:?} consumes {total_bits} hash bits (32 available)"
        )));
    }
    let Some((&first, later)) = scheme.split_first() else {
        return Ok(vec![Batch::concat(batches)]);
    };
    // Round one reads the input batches where they are; later rounds split
    // each partition the round before wrote.
    let mut cursor = HashBitCursor::default();
    let shift = cursor.take(first.trailing_zeros());
    let mut current = partition_batches(ctx, &batches, key_cols, first, shift, tile)?;
    drop(batches); // free the input before the later rounds allocate
    for &fanout in later {
        let shift = cursor.take(fanout.trailing_zeros());
        let mut next = Vec::with_capacity(current.len() * fanout);
        for part in &current {
            next.extend(partition_batches(
                ctx,
                std::slice::from_ref(part),
                key_cols,
                fanout,
                shift,
                tile,
            )?);
        }
        current = next;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CoreCtx, ExecContext};
    use rapid_storage::vector::ColumnData;

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    fn batch(n: i64) -> Batch {
        Batch::new(vec![
            Vector::new(ColumnData::I64((0..n).collect())),
            Vector::new(ColumnData::I64((0..n).map(|i| i * 100).collect())),
        ])
    }

    #[test]
    fn partitions_cover_all_rows_exactly_once() {
        let mut c = ctx();
        let parts = partition_batches(&mut c, &[batch(10_000)], &[0], 16, 0, 256).unwrap();
        assert_eq!(parts.len(), 16);
        let total: usize = parts.iter().map(Batch::rows).sum();
        assert_eq!(total, 10_000);
        let mut all_keys: Vec<i64> = parts
            .iter()
            .flat_map(|p| p.column(0).data.to_i64_vec())
            .collect();
        all_keys.sort_unstable();
        assert_eq!(all_keys, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn rows_keep_column_alignment() {
        let mut c = ctx();
        let parts = partition_batches(&mut c, &[batch(5000)], &[0], 8, 0, 256).unwrap();
        for p in &parts {
            for i in 0..p.rows() {
                assert_eq!(
                    p.column(1).data.get_i64(i),
                    p.column(0).data.get_i64(i) * 100
                );
            }
        }
    }

    #[test]
    fn same_key_lands_in_same_partition() {
        let mut c = ctx();
        let keys = vec![42i64; 1000];
        let b = Batch::new(vec![Vector::new(ColumnData::I64(keys))]);
        let parts = partition_batches(&mut c, &[b], &[0], 32, 0, 256).unwrap();
        let nonempty: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(nonempty.len(), 1);
        assert_eq!(parts[nonempty[0]].rows(), 1000);
    }

    #[test]
    fn multi_round_scheme_uses_disjoint_bits() {
        let mut c = ctx();
        // 8 x 4 = 32 partitions over two rounds.
        let parts = partition_scheme(&mut c, vec![batch(20_000)], &[0], &[8, 4], 256).unwrap();
        assert_eq!(parts.len(), 32);
        let total: usize = parts.iter().map(Batch::rows).sum();
        assert_eq!(total, 20_000);
        // Two-round result must equal a single 32-way round on the same
        // hash bits (rounds consume disjoint bit ranges of one hash).
        let mut c2 = ctx();
        let flat = partition_batches(&mut c2, &[batch(20_000)], &[0], 32, 0, 256).unwrap();
        // Partition p of flat = partition (p%8 -> round1, p/8 -> round2):
        // round 1 uses low 3 bits, round 2 the next 2 bits, so flat index
        // bits [0..3) select the round-1 bucket and bits [3..5) round-2.
        for (p, fp) in flat.iter().enumerate() {
            let nested = &parts[(p & 7) * 4 + (p >> 3)];
            let mut a = fp.column(0).data.to_i64_vec();
            let mut b = nested.column(0).data.to_i64_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "partition {p}");
        }
    }

    #[test]
    fn multi_key_partitioning() {
        let mut c = ctx();
        let b = Batch::new(vec![
            Vector::new(ColumnData::I64((0..1000).map(|i| i % 10).collect())),
            Vector::new(ColumnData::I64((0..1000).map(|i| i / 10).collect())),
        ]);
        let parts = partition_batches(&mut c, &[b], &[0, 1], 16, 0, 256).unwrap();
        let total: usize = parts.iter().map(Batch::rows).sum();
        assert_eq!(total, 1000);
        // Each distinct (k1,k2) pair must land in exactly one partition.
        use std::collections::HashMap;
        let mut seen: HashMap<(i64, i64), usize> = HashMap::new();
        for (p, part) in parts.iter().enumerate() {
            for i in 0..part.rows() {
                let key = (
                    part.column(0).data.get_i64(i),
                    part.column(1).data.get_i64(i),
                );
                if let Some(&prev) = seen.get(&key) {
                    assert_eq!(prev, p, "pair {key:?} split across partitions");
                } else {
                    seen.insert(key, p);
                }
            }
        }
    }

    #[test]
    fn malformed_schemes_are_typed_errors_not_panics() {
        use crate::error::QefError;
        let mut c = ctx();
        let e = partition_scheme(&mut c, vec![batch(100)], &[0], &[3], 64);
        assert!(matches!(e, Err(QefError::BadPlan(m)) if m.contains("non-power-of-two")));
        let deep: Vec<usize> = vec![1024; 4]; // 40 hash bits
        let e = partition_scheme(&mut c, vec![batch(100)], &[0], &deep, 64);
        assert!(matches!(e, Err(QefError::BadPlan(m)) if m.contains("hash bits")));
    }

    #[test]
    fn empty_input() {
        let mut c = ctx();
        let parts = partition_batches(&mut c, &[], &[0], 4, 0, 64).unwrap();
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(Batch::is_empty));
    }
}

#[cfg(test)]
mod proptests {
    //! The scatter against its definition: concatenate the input, compute
    //! the partition map, gather each partition.

    use super::*;
    use crate::exec::{CoreCtx, ExecContext};
    use crate::primitives::costs;
    use crate::primitives::hash::hash_rows;
    use dpu_sim::account::CycleAccount;
    use proptest::prelude::*;
    use rapid_storage::bitvec::BitVec;
    use rapid_storage::vector::ColumnData;

    /// One input row: key, payload seed, and a roll that makes a value NULL.
    type Row = (i64, i64, u8);

    /// A batch of `rows`: two columns, or eight covering every physical
    /// width. NULLs land in key and payload columns alike.
    fn batch(rows: &[Row], wide: bool) -> Batch {
        if rows.is_empty() {
            return Batch::empty(0);
        }
        let col = |data: ColumnData, null_when: u8| {
            Vector::with_nulls(
                data,
                BitVec::from_bools(rows.iter().map(|r| r.2 == null_when)),
            )
        };
        let mut cols = vec![
            col(ColumnData::I64(rows.iter().map(|r| r.0).collect()), 0),
            col(
                ColumnData::I32(rows.iter().map(|r| r.1 as i32).collect()),
                1,
            ),
        ];
        if wide {
            cols.extend([
                col(ColumnData::I8(rows.iter().map(|r| r.1 as i8).collect()), 2),
                col(
                    ColumnData::I16(rows.iter().map(|r| r.0 as i16).collect()),
                    3,
                ),
                col(
                    ColumnData::U32(rows.iter().map(|r| r.1 as u32).collect()),
                    4,
                ),
                col(ColumnData::I64(rows.iter().map(|r| r.0 ^ r.1).collect()), 5),
                col(
                    ColumnData::I32(rows.iter().map(|r| r.0 as i32).collect()),
                    6,
                ),
                col(ColumnData::I64(rows.iter().map(|r| r.1).collect()), 0),
            ]);
        }
        Batch::new(cols)
    }

    /// The definition, charging what each step of it costs.
    fn reference(
        ctx: &mut CoreCtx,
        batches: &[Batch],
        key_cols: &[usize],
        scheme: &[usize],
        tile: usize,
    ) -> Vec<Batch> {
        let mut cursor = HashBitCursor::default();
        let mut current = vec![Batch::concat(batches.to_vec())];
        for &fanout in scheme {
            let shift = cursor.take(fanout.trailing_zeros());
            let mut next = Vec::new();
            for part in &current {
                if part.is_empty() {
                    next.extend(vec![Batch::empty(0); fanout]);
                    continue;
                }
                let keys: Vec<&Vector> = key_cols.iter().map(|&c| part.column(c)).collect();
                let hashes = hash_rows(ctx, &keys);
                let map = compute_partition_map(ctx, &hashes, fanout, shift);
                for col in &part.columns {
                    ctx.charge_kernel(&costs::swpart_gather_per_row().scaled(col.len() as f64));
                }
                let widths: Vec<usize> = part.columns.iter().map(|c| c.data.width()).collect();
                ctx.charge_dms(&RelationAccessor::seq_write_cost(
                    ctx,
                    &widths,
                    part.rows(),
                    tile,
                ));
                ctx.charge_tile();
                next.extend((0..fanout).map(|p| match map.rows_of(p) {
                    [] => Batch::empty(0),
                    rids => part.gather(rids),
                }));
            }
            current = next;
        }
        current
    }

    fn bits(a: &CycleAccount) -> (u64, u64, u64, dpu_sim::account::Counters) {
        (
            a.compute_cycles().get().to_bits(),
            a.dms_cycles().get().to_bits(),
            a.elapsed_cycles().get().to_bits(),
            *a.counters(),
        )
    }

    proptest! {
        #[test]
        fn scatter_equals_concat_map_gather(
            pieces in proptest::collection::vec(
                proptest::collection::vec((-40i64..40, any::<i64>(), 0u8..12), 0..150),
                0..6,
            ),
            wide in any::<bool>(),
            two_keys in any::<bool>(),
            round_one_bits in 0u32..7,
            round_two_bits in proptest::option::of(0u32..4),
        ) {
            let batches: Vec<Batch> = pieces.iter().map(|rows| batch(rows, wide)).collect();
            let key_cols: &[usize] = if two_keys { &[0, 1] } else { &[0] };
            let mut scheme = vec![1usize << round_one_bits];
            scheme.extend(round_two_bits.map(|b| 1usize << b));
            let ectx = ExecContext::dpu();
            let mut expect_ctx = CoreCtx::new(&ectx, 0);
            let expect = reference(&mut expect_ctx, &batches, key_cols, &scheme, 128);
            let mut ctx = CoreCtx::new(&ectx, 0);
            let got = partition_scheme(&mut ctx, batches, key_cols, &scheme, 128).unwrap();
            prop_assert_eq!(got, expect);
            prop_assert_eq!(bits(&ctx.account), bits(&expect_ctx.account));
        }
    }
}
