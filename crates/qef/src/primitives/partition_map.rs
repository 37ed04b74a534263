//! Software partitioning primitives: Listings 2 and 3 of the paper.
//!
//! `compute_partition_map` turns a vector of hardware-computed CRC32 hash
//! values into a per-partition count histogram (kept as running offsets)
//! and per-partition row-offset lists — "series of tight loops over the
//! hash values". `swpart_gather_column` then gathers each projected column
//! partition-by-partition and writes the gathered rows out sequentially,
//! which is what makes the software path "several times faster than a
//! plain, straightforward approach": all writes are sequential per
//! partition.

use rapid_storage::bitvec::BitVec;
use rapid_storage::vector::Vector;

use crate::exec::CoreCtx;
use crate::primitives::costs;

/// The partition map of one input: a counting sort of row ids by
/// partition, kept flat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// `offsets[p]..offsets[p + 1]` is partition `p`'s range of `rids`
    /// (fan-out + 1 entries; the differences are the histogram).
    pub offsets: Vec<u32>,
    /// Row offsets grouped by partition, in input order within each (the
    /// gather lists of Listing 3, back to back).
    pub rids: Vec<u32>,
}

impl PartitionMap {
    /// Number of partitions.
    pub fn fanout(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The rows of partition `p`, in input order.
    pub fn rows_of(&self, p: usize) -> &[u32] {
        &self.rids[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }
}

/// Listing 2: compute the partition map from hash values using the
/// `log2(fanout)` bits above `shift`. `fanout` must be a power of two.
pub fn compute_partition_map(
    ctx: &mut CoreCtx,
    hashes: &[u32],
    fanout: usize,
    shift: u32,
) -> PartitionMap {
    debug_assert!(fanout.is_power_of_two() && fanout > 0);
    let mask = (fanout - 1) as u32;
    let part_of = |h: u32| ((h >> shift) & mask) as usize;
    // Loop 1: histogram (branch-free in hardware), turned into offsets.
    let mut offsets = vec![0u32; fanout + 1];
    for &h in hashes {
        offsets[part_of(h) + 1] += 1;
    }
    for p in 0..fanout {
        offsets[p + 1] += offsets[p];
    }
    // Loop 2: bucket rows by partition (gather lists).
    let mut next = offsets.clone();
    let mut rids = vec![0u32; hashes.len()];
    for (i, &h) in hashes.iter().enumerate() {
        let slot = &mut next[part_of(h)];
        rids[*slot as usize] = i as u32;
        *slot += 1;
    }
    ctx.charge_kernel(&costs::partition_map_per_row().scaled(2.0 * hashes.len() as f64));
    PartitionMap { offsets, rids }
}

/// Listing 3: gather one projected column partition-by-partition. The
/// column arrives as one or more `pieces` laid back to back in row-id
/// space (one per input batch) and is read in place; each partition's rows
/// are written out sequentially, once.
pub fn swpart_gather_column(
    ctx: &mut CoreCtx,
    map: &PartitionMap,
    pieces: &[&Vector],
) -> Vec<Vector> {
    let any_nulls = pieces.iter().any(|v| v.has_nulls());
    let out = (0..map.fanout())
        .map(|p| {
            let mut rest = map.rows_of(p);
            let mut data = pieces[0].data.empty_like_with_capacity(rest.len());
            let mut nulls = any_nulls.then(|| BitVec::with_capacity(rest.len()));
            let mut base = 0u32;
            for piece in pieces {
                // A partition's rows ascend, so those of one piece are a run.
                let end = base + piece.len() as u32;
                let run;
                (run, rest) = rest.split_at(rest.partition_point(|&r| r < end));
                data.extend_gather(&piece.data, run, base);
                match (&mut nulls, &piece.nulls) {
                    (Some(nulls), Some(src)) => {
                        for &r in run {
                            nulls.push(src.get((r - base) as usize));
                        }
                    }
                    (Some(nulls), None) => nulls.extend_zeros(run.len()),
                    (None, _) => {}
                }
                base = end;
            }
            match nulls {
                Some(nulls) => Vector::with_nulls(data, nulls),
                None => Vector::new(data),
            }
        })
        .collect();
    ctx.charge_kernel(&costs::swpart_gather_per_row().scaled(map.rids.len() as f64));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;
    use rapid_storage::vector::ColumnData;

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    #[test]
    fn map_partitions_every_row_exactly_once() {
        let mut c = ctx();
        let hashes: Vec<u32> = (0..1000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let map = compute_partition_map(&mut c, &hashes, 16, 0);
        assert_eq!(map.fanout(), 16);
        assert_eq!(map.offsets[16], 1000);
        let mut listed: Vec<u32> = map.rids.clone();
        listed.sort_unstable();
        assert_eq!(listed, (0..1000).collect::<Vec<u32>>());
        for p in 0..16 {
            for &r in map.rows_of(p) {
                assert_eq!((hashes[r as usize] & 15) as usize, p);
            }
        }
    }

    #[test]
    fn offsets_are_the_running_histogram() {
        let mut c = ctx();
        let hashes = vec![0u32, 1, 2, 3, 0, 1];
        let map = compute_partition_map(&mut c, &hashes, 4, 0);
        assert_eq!(map.offsets, vec![0, 2, 4, 5, 6]);
        assert_eq!(map.rows_of(0), [0, 4]);
        assert_eq!(map.rows_of(1), [1, 5]);
    }

    #[test]
    fn shift_selects_the_rounds_bits() {
        let mut c = ctx();
        // Bits [2, 4) of each hash pick the partition.
        let hashes = vec![0b0000u32, 0b0100, 0b1011, 0b1100, 0b0111];
        let map = compute_partition_map(&mut c, &hashes, 4, 2);
        assert_eq!(map.rows_of(0), [0]);
        assert_eq!(map.rows_of(1), [1, 4]);
        assert_eq!(map.rows_of(2), [2]);
        assert_eq!(map.rows_of(3), [3]);
    }

    #[test]
    fn gather_column_reorders_by_partition_across_pieces() {
        let mut c = ctx();
        let hashes = vec![1u32, 0, 1, 0, 0];
        let map = compute_partition_map(&mut c, &hashes, 2, 0);
        // Rows 0..3 in the first piece, 3..5 in the second (row 4 NULL).
        let first = Vector::new(ColumnData::I64(vec![10, 20, 30]));
        let second = Vector::with_nulls(
            ColumnData::I64(vec![40, 0]),
            BitVec::from_bools([false, true]),
        );
        let parts = swpart_gather_column(&mut c, &map, &[&first, &second]);
        let values = |v: &Vector| (0..v.len()).map(|i| v.get(i)).collect::<Vec<_>>();
        assert_eq!(values(&parts[0]), [Some(20), Some(40), None]);
        assert_eq!(values(&parts[1]), [Some(10), Some(30)]);
        assert!(!parts[1].has_nulls(), "an all-clear bitmap is dropped");
    }

    #[test]
    fn fanout_one_is_identity() {
        let mut c = ctx();
        let hashes = vec![7u32, 9, 11];
        let map = compute_partition_map(&mut c, &hashes, 1, 0);
        assert_eq!(map.offsets, vec![0, 3]);
        assert_eq!(map.rows_of(0), [0, 1, 2]);
    }
}
