//! Sort-merge join (§6.5): "for sort-merge join, we apply a
//! partitioning-based sorting and a merge-join step".
//!
//! The paper focuses on the hash join (its own prior work, ref 5, found hash
//! ahead on these workloads) but keeps sort-merge in the toolbox — it wins
//! when an input is pre-sorted or the output must be ordered. No plan runs
//! it: this is the kernel and its cost accounting for
//! [`crate::ablation_hash_vs_sortmerge`], which compares it against the
//! hash join on the same partitions.

use dpu_sim::account::Kernel;
use rapid_qef::batch::Batch;
use rapid_qef::error::{QefError, QefResult};
use rapid_qef::exec::CoreCtx;
use rapid_qef::ops::sort::sort_batch;
use rapid_qef::plan::{JoinType, SortKey};
use rapid_qef::primitives::costs;
use rapid_storage::vector::Vector;

/// Sort-merge join of one partition pair on single-column equi-keys.
///
/// Output layout matches [`rapid_qef::ops::join::join_partition`]: probe (left)
/// columns then build (right) columns for inner joins; probe columns only
/// for semi/anti.
pub fn merge_join_partition(
    ctx: &mut CoreCtx,
    left: &Batch,
    right: &Batch,
    left_key: usize,
    right_key: usize,
    join_type: JoinType,
) -> QefResult<Batch> {
    if join_type == JoinType::LeftOuter {
        return Err(QefError::BadPlan(
            "outer merge-join not implemented; use the hash join".into(),
        ));
    }
    if left.is_empty() {
        return Ok(Batch::empty(0));
    }
    if right.is_empty() {
        return match join_type {
            JoinType::Inner | JoinType::LeftSemi => Ok(Batch::empty(0)),
            _ => Ok(left.clone()),
        };
    }

    // Phase 1: radix-sort both sides by key (the partitioning-based
    // sort), skipping sides that arrive sorted — the case where
    // sort-merge beats hashing.
    let l = sort_if_needed(ctx, left, left_key)?;
    let r = sort_if_needed(ctx, right, right_key)?;

    // Phase 2: linear merge with run detection for duplicate keys.
    let lk: &Vector = l.column(left_key);
    let rk: &Vector = r.column(right_key);
    let (mut i, mut j) = (0usize, 0usize);
    let mut l_rids: Vec<u32> = Vec::new();
    let mut r_rids: Vec<u32> = Vec::new();
    let mut semi_keep: Vec<u32> = Vec::new();
    let mut anti_keep: Vec<u32> = Vec::new();
    let mut steps = 0usize;
    while i < l.rows() && j < r.rows() {
        steps += 1;
        // NULL keys sort last and never match: stop when reached.
        let (Some(a), Some(b)) = (lk.get(i), rk.get(j)) else {
            break;
        };
        match a.cmp(&b) {
            std::cmp::Ordering::Less => {
                if join_type == JoinType::LeftAnti {
                    anti_keep.push(i as u32);
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Find both runs of the shared key.
                let li0 = i;
                while i < l.rows() && lk.get(i) == Some(a) {
                    i += 1;
                }
                let rj0 = j;
                while j < r.rows() && rk.get(j) == Some(a) {
                    j += 1;
                }
                match join_type {
                    JoinType::Inner => {
                        for li in li0..i {
                            for rj in rj0..j {
                                l_rids.push(li as u32);
                                r_rids.push(rj as u32);
                            }
                        }
                    }
                    JoinType::LeftSemi => semi_keep.extend((li0..i).map(|x| x as u32)),
                    JoinType::LeftAnti => {}
                    JoinType::LeftOuter => unreachable!("rejected above"),
                }
                steps += (i - li0) + (j - rj0);
            }
        }
    }
    if join_type == JoinType::LeftAnti {
        // Whatever remains on the left (incl. NULL keys) has no match.
        while i < l.rows() {
            if lk.get(i).is_some() {
                anti_keep.push(i as u32);
            }
            i += 1;
        }
        // NULL-key rows never match, so they belong in the anti output.
        for x in 0..l.rows() {
            if lk.get(x).is_none() {
                anti_keep.push(x as u32);
            }
        }
        anti_keep.sort_unstable();
        anti_keep.dedup();
    }
    // Merge cursor advances are compare+branch pairs.
    ctx.charge_kernel(
        Kernel::Join,
        &dpu_sim::isa::KernelCost {
            alu: 2.0,
            lsu: 2.0,
            dual_issue_frac: 0.6,
            branches: 1.0,
            mispredicts: 0.08,
            mul: 0.0,
        }
        .scaled(steps as f64),
    );
    ctx.charge_kernel(
        Kernel::Join,
        &costs::join_emit_per_match().scaled(l_rids.len() as f64),
    );
    ctx.charge_tile();

    match join_type {
        JoinType::Inner => {
            let mut out = l.gather(&l_rids);
            for col in r.gather(&r_rids).columns {
                out.push_column(col);
            }
            Ok(out)
        }
        JoinType::LeftSemi => Ok(l.gather(&semi_keep)),
        JoinType::LeftAnti => Ok(l.gather(&anti_keep)),
        JoinType::LeftOuter => unreachable!(),
    }
}

/// Sort by `key` unless already non-descending (one compare per row to
/// check — the merge join's pre-sorted fast path).
fn sort_if_needed(ctx: &mut CoreCtx, batch: &Batch, key: usize) -> QefResult<Batch> {
    let col = batch.column(key);
    let mut sorted = true;
    let mut prev: Option<i64> = None;
    for i in 0..col.len() {
        match (prev, col.get(i)) {
            (Some(p), Some(v)) if v < p => {
                sorted = false;
                break;
            }
            (_, Some(v)) => prev = Some(v),
            // NULLs sort last; any non-null after a null is out of order.
            (_, None) => prev = Some(i64::MAX),
        }
    }
    ctx.charge_kernel(
        Kernel::Join,
        &dpu_sim::isa::KernelCost {
            alu: 1.0,
            lsu: 1.0,
            dual_issue_frac: 1.0,
            branches: 1.0 / 4.0,
            mispredicts: 0.01,
            mul: 0.0,
        }
        .scaled(col.len() as f64),
    );
    if sorted {
        Ok(batch.clone())
    } else {
        sort_batch(
            ctx,
            batch,
            &[SortKey {
                col: key,
                desc: false,
            }],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_qef::exec::ExecContext;
    use rapid_qef::ops::join::join_partition;
    use rapid_storage::vector::ColumnData;

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    fn vcol(v: Vec<i64>) -> Vector {
        Vector::new(ColumnData::I64(v))
    }

    #[test]
    fn inner_merge_matches_hash_join() {
        let mut c = ctx();
        let left = Batch::new(vec![
            vcol(vec![5, 1, 3, 5, 9]),
            vcol(vec![50, 10, 30, 51, 90]),
        ]);
        let right = Batch::new(vec![vcol(vec![3, 5, 7]), vcol(vec![-3, -5, -7])]);
        let merged = merge_join_partition(&mut c, &left, &right, 0, 0, JoinType::Inner).unwrap();
        let hashed = join_partition(
            &mut c,
            &right,
            left.clone(),
            &[0],
            &[0],
            JoinType::Inner,
            &[0, 1, 2, 3],
            3,
        )
        .unwrap();
        assert_eq!(merged.rows(), hashed.rows());
        // Canonicalize: (lkey, lval, rkey, rval) tuples.
        let tuples = |b: &Batch| {
            let mut v: Vec<(i64, i64, i64, i64)> = (0..b.rows())
                .map(|i| {
                    (
                        b.column(0).data.get_i64(i),
                        b.column(1).data.get_i64(i),
                        b.column(2).data.get_i64(i),
                        b.column(3).data.get_i64(i),
                    )
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(tuples(&merged), tuples(&hashed));
    }

    #[test]
    fn duplicate_runs_produce_cross_products() {
        let mut c = ctx();
        let left = Batch::new(vec![vcol(vec![2, 2, 2])]);
        let right = Batch::new(vec![vcol(vec![2, 2])]);
        let out = merge_join_partition(&mut c, &left, &right, 0, 0, JoinType::Inner).unwrap();
        assert_eq!(out.rows(), 6);
    }

    #[test]
    fn semi_and_anti() {
        let mut c = ctx();
        let left = Batch::new(vec![vcol(vec![4, 1, 3, 2])]);
        let right = Batch::new(vec![vcol(vec![2, 4, 4])]);
        let semi = merge_join_partition(&mut c, &left, &right, 0, 0, JoinType::LeftSemi).unwrap();
        let mut s = semi.column(0).data.to_i64_vec();
        s.sort_unstable();
        assert_eq!(s, vec![2, 4]);
        let anti = merge_join_partition(&mut c, &left, &right, 0, 0, JoinType::LeftAnti).unwrap();
        let mut a = anti.column(0).data.to_i64_vec();
        a.sort_unstable();
        assert_eq!(a, vec![1, 3]);
    }

    #[test]
    fn null_keys_never_match() {
        use rapid_storage::bitvec::BitVec;
        let mut c = ctx();
        let mut nulls = BitVec::zeros(3);
        nulls.set(1, true);
        let left = Batch::new(vec![Vector::with_nulls(
            ColumnData::I64(vec![1, 0, 2]),
            nulls,
        )]);
        let right = Batch::new(vec![vcol(vec![0, 1, 2])]);
        let inner = merge_join_partition(&mut c, &left, &right, 0, 0, JoinType::Inner).unwrap();
        assert_eq!(inner.rows(), 2, "null left key matches nothing");
        let anti = merge_join_partition(&mut c, &left, &right, 0, 0, JoinType::LeftAnti).unwrap();
        assert_eq!(anti.rows(), 1, "the null-key row survives anti-join");
    }

    #[test]
    fn outer_is_rejected() {
        let mut c = ctx();
        let b = Batch::new(vec![vcol(vec![1])]);
        assert!(merge_join_partition(&mut c, &b, &b, 0, 0, JoinType::LeftOuter).is_err());
    }

    #[test]
    fn empty_sides() {
        let mut c = ctx();
        let b = Batch::new(vec![vcol(vec![1, 2])]);
        let e = Batch::empty(0);
        assert_eq!(
            merge_join_partition(&mut c, &b, &e, 0, 0, JoinType::LeftAnti)
                .unwrap()
                .rows(),
            2
        );
        assert_eq!(
            merge_join_partition(&mut c, &e, &b, 0, 0, JoinType::Inner)
                .unwrap()
                .rows(),
            0
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rapid_qef::exec::ExecContext;
    use rapid_qef::ops::join::join_partition;
    use rapid_storage::vector::ColumnData;

    proptest! {
        #[test]
        fn merge_join_matches_hash_join_on_random_inputs(
            lkeys in proptest::collection::vec(0i64..40, 0..120),
            rkeys in proptest::collection::vec(0i64..40, 0..120),
            jt_idx in 0usize..3,
        ) {
            let jt = [JoinType::Inner, JoinType::LeftSemi, JoinType::LeftAnti][jt_idx];
            let mut c = CoreCtx::new(&ExecContext::dpu(), 0);
            let left = Batch::new(vec![Vector::new(ColumnData::I64(lkeys.clone()))]);
            let right = Batch::new(vec![Vector::new(ColumnData::I64(rkeys.clone()))]);
            let merged = merge_join_partition(&mut c, &left, &right, 0, 0, jt).unwrap();
            let every: Vec<usize> = (0..if jt.pairs() { 2 } else { 1 }).collect();
            let hashed =
                join_partition(&mut c, &right, left.clone(), &[0], &[0], jt, &every, rkeys.len().max(1))
                    .unwrap();
            let canon = |b: &Batch| {
                let mut v: Vec<Vec<i64>> = (0..b.rows())
                    .map(|i| (0..b.width()).map(|ci| b.column(ci).data.get_i64(i)).collect())
                    .collect();
                v.sort();
                v
            };
            prop_assert_eq!(canon(&merged), canon(&hashed));
        }
    }
}
