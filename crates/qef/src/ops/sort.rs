//! Sorting (§5.4): "partitioning based algorithm — each dpCore utilizes a
//! radix-sorting algorithm".
//!
//! The engine range/hash-partitions rows across cores; each core
//! radix-sorts its share with an LSD byte-wise radix sort over
//! order-transformed keys (sign-flipped so unsigned byte order equals
//! signed value order, inverted for DESC, with NULLs mapped past every
//! real value in **both** directions — NULLS LAST is the engine-wide
//! ORDER BY semantics, pinned against the host executor by the
//! differential fuzzer). Multi-key sorts run stable LSD passes from the
//! least significant key to the most significant.

use crate::batch::Batch;
use crate::error::QefResult;
use crate::exec::CoreCtx;
use crate::plan::SortKey;
use crate::primitives::costs;
use dpu_sim::account::Kernel;

/// Order-preserving transform: signed `i64` (with optional NULL) into an
/// unsigned 65-bit key whose natural order matches the SQL order. The
/// DESC inversion applies only to real values; NULLs carry a 65th bit so
/// they sort after *every* non-null key in both directions (NULLS LAST),
/// without colliding with `i64::MAX` (ASC) or `i64::MIN` (DESC).
#[inline]
fn order_key(v: Option<i64>, desc: bool) -> u128 {
    match v {
        Some(x) => {
            // Flip the sign bit: i64 order == u64 order.
            let k = (x as u64) ^ (1u64 << 63);
            (if desc { !k } else { k }) as u128
        }
        None => 1u128 << 64,
    }
}

/// Stable LSD radix sort of `perm` (row permutation) by one key column.
fn radix_pass_column(ctx: &mut CoreCtx, batch: &Batch, key: SortKey, perm: &mut Vec<u32>) {
    let n = perm.len();
    if n <= 1 {
        return;
    }
    let col = batch.column(key.col);
    let keys: Vec<u128> = perm
        .iter()
        .map(|&r| order_key(col.get(r as usize), key.desc))
        .collect();
    // 9 passes of 8 bits over the 65-bit key (the 9th pass separates the
    // NULL stripe), counting sort each; passes where all bytes are equal
    // are skipped — common for narrow domains and for all-non-null keys.
    let mut cur: Vec<(u128, u32)> = keys.into_iter().zip(perm.iter().copied()).collect();
    let mut passes = 0usize;
    for byte in 0..9 {
        let shift = byte * 8;
        let first = (cur[0].0 >> shift) & 0xFF;
        if cur.iter().all(|&(k, _)| (k >> shift) & 0xFF == first) {
            continue;
        }
        passes += 1;
        let mut counts = [0usize; 256];
        for &(k, _) in &cur {
            counts[((k >> shift) & 0xFF) as usize] += 1;
        }
        let mut offsets = [0usize; 256];
        let mut acc = 0;
        for (o, &c) in offsets.iter_mut().zip(&counts) {
            *o = acc;
            acc += c;
        }
        let mut next = vec![(0u128, 0u32); n];
        for &(k, r) in &cur {
            let b = ((k >> shift) & 0xFF) as usize;
            next[offsets[b]] = (k, r);
            offsets[b] += 1;
        }
        cur = next;
    }
    *perm = cur.into_iter().map(|(_, r)| r).collect();
    ctx.charge_kernel(
        Kernel::Other,
        &costs::radix_sort_per_row_per_pass().scaled((n * passes.max(1)) as f64),
    );
}

/// Sort a batch by the given keys, returning the permuted batch.
pub fn sort_batch(ctx: &mut CoreCtx, batch: &Batch, order: &[SortKey]) -> QefResult<Batch> {
    let n = batch.rows();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    // LSD over keys: sort by the least significant key first; stability of
    // each pass preserves it under later passes.
    for key in order.iter().rev() {
        radix_pass_column(ctx, batch, *key, &mut perm);
    }
    ctx.charge_tile();
    Ok(batch.gather(&perm))
}

/// Merge already-sorted batches into one sorted batch (the cross-core
/// merge; k-way with a simple loser-tree-equivalent linear pick).
pub fn merge_sorted(ctx: &mut CoreCtx, batches: &[Batch], order: &[SortKey]) -> QefResult<Batch> {
    use crate::ops::topk::cmp_rows;
    let mut cursors: Vec<(usize, usize)> = batches
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .map(|(i, _)| (i, 0))
        .collect();
    let mut out_rows: Vec<(usize, u32)> = Vec::new();
    while !cursors.is_empty() {
        let mut best = 0usize;
        for c in 1..cursors.len() {
            let (bi, ri) = cursors[c];
            let (bb, rb) = cursors[best];
            if cmp_rows(&batches[bi], ri, &batches[bb], rb, order).is_lt() {
                best = c;
            }
        }
        let (bi, ri) = cursors[best];
        out_rows.push((bi, ri as u32));
        if ri + 1 < batches[bi].rows() {
            cursors[best].1 += 1;
        } else {
            cursors.swap_remove(best);
        }
    }
    ctx.charge_kernel(
        Kernel::Other,
        &costs::topk_per_row().scaled(out_rows.len() as f64),
    );
    // Gather per source batch, then interleave via concat of singletons is
    // wasteful; gather runs of consecutive rows from the same source.
    let mut pieces: Vec<Batch> = Vec::new();
    let mut i = 0usize;
    while i < out_rows.len() {
        let src = out_rows[i].0;
        let mut rids = vec![out_rows[i].1];
        let mut j = i + 1;
        while j < out_rows.len() && out_rows[j].0 == src {
            rids.push(out_rows[j].1);
            j += 1;
        }
        pieces.push(batches[src].gather(&rids));
        i = j;
    }
    Ok(Batch::concat(pieces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CoreCtx, ExecContext};
    use rapid_storage::vector::{ColumnData, Vector};

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    fn batch(v: Vec<i64>) -> Batch {
        Batch::new(vec![Vector::new(ColumnData::I64(v))])
    }

    #[test]
    fn sorts_including_negatives() {
        let mut c = ctx();
        let out = sort_batch(
            &mut c,
            &batch(vec![5, -3, 0, i64::MIN, 9, i64::MAX, -3]),
            &[SortKey {
                col: 0,
                desc: false,
            }],
        )
        .unwrap();
        assert_eq!(
            out.column(0).data.to_i64_vec(),
            vec![i64::MIN, -3, -3, 0, 5, 9, i64::MAX]
        );
    }

    #[test]
    fn descending_sort() {
        let mut c = ctx();
        let out = sort_batch(
            &mut c,
            &batch(vec![1, 3, 2]),
            &[SortKey { col: 0, desc: true }],
        )
        .unwrap();
        assert_eq!(out.column(0).data.to_i64_vec(), vec![3, 2, 1]);
    }

    #[test]
    fn multi_key_stable_order() {
        let mut c = ctx();
        let b = Batch::new(vec![
            Vector::new(ColumnData::I64(vec![2, 1, 2, 1])),
            Vector::new(ColumnData::I64(vec![9, 8, 7, 6])),
        ]);
        let out = sort_batch(
            &mut c,
            &b,
            &[
                SortKey {
                    col: 0,
                    desc: false,
                },
                SortKey {
                    col: 1,
                    desc: false,
                },
            ],
        )
        .unwrap();
        assert_eq!(out.column(0).data.to_i64_vec(), vec![1, 1, 2, 2]);
        assert_eq!(out.column(1).data.to_i64_vec(), vec![6, 8, 7, 9]);
    }

    #[test]
    fn nulls_sort_last_in_both_directions() {
        use rapid_storage::bitvec::BitVec;
        let mut c = ctx();
        let mut nulls = BitVec::zeros(3);
        nulls.set(0, true);
        let b = Batch::new(vec![Vector::with_nulls(
            ColumnData::I64(vec![0, 2, 1]),
            nulls,
        )]);
        let asc = sort_batch(
            &mut c,
            &b,
            &[SortKey {
                col: 0,
                desc: false,
            }],
        )
        .unwrap();
        assert_eq!(asc.column(0).get(0), Some(1));
        assert_eq!(asc.column(0).get(2), None, "NULLS LAST ascending");
        let desc = sort_batch(&mut c, &b, &[SortKey { col: 0, desc: true }]).unwrap();
        assert_eq!(desc.column(0).get(0), Some(2));
        assert_eq!(desc.column(0).get(2), None, "NULLS LAST descending too");
    }

    #[test]
    fn null_does_not_collide_with_extreme_keys() {
        use rapid_storage::bitvec::BitVec;
        // The NULL sentinel must stay strictly above i64::MAX ascending and
        // strictly above i64::MIN descending (the 65th key bit).
        let mut c = ctx();
        let mut nulls = BitVec::zeros(3);
        nulls.set(1, true);
        let b = Batch::new(vec![Vector::with_nulls(
            ColumnData::I64(vec![i64::MAX, 0, i64::MIN]),
            nulls,
        )]);
        let asc = sort_batch(
            &mut c,
            &b,
            &[SortKey {
                col: 0,
                desc: false,
            }],
        )
        .unwrap();
        assert_eq!(asc.column(0).get(0), Some(i64::MIN));
        assert_eq!(asc.column(0).get(1), Some(i64::MAX));
        assert_eq!(asc.column(0).get(2), None);
        let desc = sort_batch(&mut c, &b, &[SortKey { col: 0, desc: true }]).unwrap();
        assert_eq!(desc.column(0).get(0), Some(i64::MAX));
        assert_eq!(desc.column(0).get(1), Some(i64::MIN));
        assert_eq!(desc.column(0).get(2), None);
    }

    #[test]
    fn merge_of_sorted_runs() {
        let mut c = ctx();
        let a = batch(vec![1, 4, 7]);
        let b = batch(vec![2, 3, 9]);
        let m = merge_sorted(
            &mut c,
            &[a, b],
            &[SortKey {
                col: 0,
                desc: false,
            }],
        )
        .unwrap();
        assert_eq!(m.column(0).data.to_i64_vec(), vec![1, 2, 3, 4, 7, 9]);
    }

    #[test]
    fn empty_inputs() {
        let mut c = ctx();
        let out = sort_batch(
            &mut c,
            &batch(vec![]),
            &[SortKey {
                col: 0,
                desc: false,
            }],
        )
        .unwrap();
        assert_eq!(out.rows(), 0);
        let m = merge_sorted(
            &mut c,
            &[],
            &[SortKey {
                col: 0,
                desc: false,
            }],
        )
        .unwrap();
        assert_eq!(m.rows(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::exec::ExecContext;
    use proptest::prelude::*;
    use rapid_storage::vector::{ColumnData, Vector};

    proptest! {
        #[test]
        fn radix_sort_matches_std_sort(vals in proptest::collection::vec(any::<i64>(), 0..500)) {
            let mut ctx = crate::exec::CoreCtx::new(&ExecContext::dpu(), 0);
            let b = Batch::new(vec![Vector::new(ColumnData::I64(vals.clone()))]);
            let out = sort_batch(&mut ctx, &b, &[SortKey { col: 0, desc: false }]).unwrap();
            let mut expect = vals;
            expect.sort_unstable();
            prop_assert_eq!(out.column(0).data.to_i64_vec(), expect);
        }
    }
}
