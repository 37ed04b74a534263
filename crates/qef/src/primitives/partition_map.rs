//! Software partitioning primitive: Listing 2 of the paper.
//!
//! `compute_partition_map` turns a vector of hardware-computed CRC32 hash
//! values into a per-partition count histogram (kept as running offsets)
//! and per-partition row-id lists — "series of tight loops over the hash
//! values". The lists drive Listing 3, the per-partition column gather of
//! [`crate::ops::partition`], which is what makes the software path
//! "several times faster than a plain, straightforward approach": all
//! writes are sequential per partition.

use crate::exec::CoreCtx;
use crate::primitives::costs;
use dpu_sim::account::Kernel;

/// Listing 2: the partition map of `hashes` — a counting sort of their row
/// ids by the `log2(fanout)` hash bits above `shift` — written into the
/// caller's storage, so that the lanes of a partition round fill disjoint
/// slices of one histogram and one row-id buffer. Row `i` has id
/// `base + i`. On return `offsets[p]..offsets[p + 1]` (`fanout + 1`
/// entries; the differences are the histogram) is partition `p`'s range of
/// `rids`, ids in input order within it. `fanout` must be a power of two.
pub fn compute_partition_map(
    ctx: &mut CoreCtx,
    hashes: &[u32],
    fanout: usize,
    shift: u32,
    base: u32,
    offsets: &mut [u32],
    rids: &mut [u32],
) {
    debug_assert!(fanout.is_power_of_two());
    debug_assert!(offsets.len() == fanout + 1 && rids.len() == hashes.len());
    let mask = (fanout - 1) as u32;
    let part_of = |h: u32| ((h >> shift) & mask) as usize;
    // Loop 1: histogram (branch-free in hardware), turned into offsets.
    offsets.fill(0);
    for &h in hashes {
        offsets[part_of(h) + 1] += 1;
    }
    for p in 0..fanout {
        offsets[p + 1] += offsets[p];
    }
    // Loop 2: bucket rows by partition (gather lists). `offsets[p]` is
    // partition `p`'s write cursor and ends where `p + 1` begins; shifting
    // the cursors up one place afterwards restores the starts.
    for (i, &h) in hashes.iter().enumerate() {
        let slot = &mut offsets[part_of(h)];
        rids[*slot as usize] = base + i as u32;
        *slot += 1;
    }
    offsets.copy_within(0..fanout, 1);
    offsets[0] = 0;
    ctx.charge_kernel(
        Kernel::Partition,
        &costs::partition_map_per_row().scaled(2.0 * hashes.len() as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;

    /// The map of `hashes` as (offsets, rids).
    fn map(hashes: &[u32], fanout: usize, shift: u32, base: u32) -> (Vec<u32>, Vec<u32>) {
        let mut c = CoreCtx::new(&ExecContext::dpu(), 0);
        let (mut offsets, mut rids) = (vec![9; fanout + 1], vec![9; hashes.len()]);
        compute_partition_map(&mut c, hashes, fanout, shift, base, &mut offsets, &mut rids);
        (offsets, rids)
    }

    fn rows_of(m: &(Vec<u32>, Vec<u32>), p: usize) -> &[u32] {
        &m.1[m.0[p] as usize..m.0[p + 1] as usize]
    }

    #[test]
    fn map_partitions_every_row_exactly_once() {
        let hashes: Vec<u32> = (0..1000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let m = map(&hashes, 16, 0, 0);
        assert_eq!(m.0[16], 1000);
        let mut listed = m.1.clone();
        listed.sort_unstable();
        assert_eq!(listed, (0..1000).collect::<Vec<u32>>());
        for p in 0..16 {
            for &r in rows_of(&m, p) {
                assert_eq!((hashes[r as usize] & 15) as usize, p);
            }
        }
    }

    #[test]
    fn offsets_are_the_running_histogram() {
        let m = map(&[0, 1, 2, 3, 0, 1], 4, 0, 0);
        assert_eq!(m.0, vec![0, 2, 4, 5, 6]);
        assert_eq!(rows_of(&m, 0), [0, 4]);
        assert_eq!(rows_of(&m, 1), [1, 5]);
    }

    #[test]
    fn shift_selects_the_rounds_bits() {
        // Bits [2, 4) of each hash pick the partition.
        let m = map(&[0b0000, 0b0100, 0b1011, 0b1100, 0b0111], 4, 2, 0);
        assert_eq!(rows_of(&m, 0), [0]);
        assert_eq!(rows_of(&m, 1), [1, 4]);
        assert_eq!(rows_of(&m, 2), [2]);
        assert_eq!(rows_of(&m, 3), [3]);
    }

    #[test]
    fn row_ids_count_from_the_base() {
        // A lane that owns rows 100.. of its round numbers them so.
        let m = map(&[1, 0, 1], 2, 0, 100);
        assert_eq!(rows_of(&m, 0), [101]);
        assert_eq!(rows_of(&m, 1), [100, 102]);
    }

    #[test]
    fn fanout_one_is_identity() {
        let m = map(&[7, 9, 11], 1, 0, 0);
        assert_eq!(m.0, vec![0, 3]);
        assert_eq!(rows_of(&m, 0), [0, 1, 2]);
    }
}
