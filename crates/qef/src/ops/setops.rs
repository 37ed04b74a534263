//! Set operations (§5.4): UNION, INTERSECT, MINUS (all distinct, per SQL).
//!
//! Implemented over whole-row keys with the same hash machinery as
//! group-by: build a distinct set of the right input, then stream the left
//! input against it.

use dpu_sim::account::Kernel;
use std::collections::HashSet;

use crate::batch::Batch;
use crate::error::QefResult;
use crate::exec::CoreCtx;
use crate::plan::SetOpKind;
use crate::primitives::costs;
use rapid_storage::vector::Vector;

type Row = Vec<Option<i64>>;

fn row_of(batch: &Batch, i: usize) -> Row {
    (0..batch.width()).map(|c| batch.column(c).get(i)).collect()
}

/// Rows `rids` of `batch`, column `c` written `widths[c]` bytes wide.
fn gather_at(batch: &Batch, rids: &[u32], widths: &[usize]) -> Batch {
    let mut out = batch.gather(rids);
    out.columns = (out.columns.into_iter().zip(widths))
        .map(|(col, &width)| Vector {
            data: col.data.widened(width),
            nulls: col.nulls,
        })
        .collect();
    out
}

/// Evaluate a distinct set operation over two materialized inputs with
/// the same number of columns. The two sides may store a column at
/// different widths; the output holds rows of either, so every column is
/// written at `widths` — `PlanNode::output_widths` of the SetOp, the wider
/// input's.
pub fn set_op(
    ctx: &mut CoreCtx,
    left: &[Batch],
    right: &[Batch],
    op: SetOpKind,
    widths: &[usize],
) -> QefResult<Batch> {
    let mut right_set: HashSet<Row> = HashSet::new();
    let mut right_rows = 0usize;
    for b in right {
        for i in 0..b.rows() {
            right_set.insert(row_of(b, i));
            right_rows += 1;
        }
    }
    ctx.charge_kernel(
        Kernel::GroupLookup,
        &costs::group_lookup_per_row().scaled(right_rows as f64),
    );

    let mut emitted: HashSet<Row> = HashSet::new();
    let mut keep: Vec<Batch> = Vec::new();
    let mut left_rows = 0usize;
    for b in left {
        let mut rids = Vec::new();
        for i in 0..b.rows() {
            left_rows += 1;
            let row = row_of(b, i);
            let qualifies = match op {
                SetOpKind::Union => true,
                SetOpKind::Intersect => right_set.contains(&row),
                SetOpKind::Minus => !right_set.contains(&row),
            };
            if qualifies && emitted.insert(row) {
                rids.push(i as u32);
            }
        }
        if !rids.is_empty() {
            keep.push(gather_at(b, &rids, widths));
        }
    }
    ctx.charge_kernel(
        Kernel::GroupLookup,
        &costs::group_lookup_per_row().scaled(left_rows as f64),
    );

    // UNION also emits right rows not seen on the left.
    if op == SetOpKind::Union {
        for b in right {
            let mut rids = Vec::new();
            for i in 0..b.rows() {
                let row = row_of(b, i);
                if emitted.insert(row) {
                    rids.push(i as u32);
                }
            }
            if !rids.is_empty() {
                keep.push(gather_at(b, &rids, widths));
            }
        }
    }
    ctx.charge_tile();
    Ok(Batch::concat(keep))
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

    fn values(b: &Batch) -> Vec<i64> {
        let mut v = b.column(0).data.to_i64_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn union_distinct() {
        let mut c = ctx();
        let out = set_op(
            &mut c,
            &[batch(vec![1, 2, 2])],
            &[batch(vec![2, 3])],
            SetOpKind::Union,
            &[8],
        )
        .unwrap();
        assert_eq!(values(&out), vec![1, 2, 3]);
    }

    #[test]
    fn intersect_distinct() {
        let mut c = ctx();
        let out = set_op(
            &mut c,
            &[batch(vec![1, 2, 2, 3])],
            &[batch(vec![2, 3, 4])],
            SetOpKind::Intersect,
            &[8],
        )
        .unwrap();
        assert_eq!(values(&out), vec![2, 3]);
    }

    #[test]
    fn minus_distinct() {
        let mut c = ctx();
        let out = set_op(
            &mut c,
            &[batch(vec![1, 2, 2, 3])],
            &[batch(vec![2])],
            SetOpKind::Minus,
            &[8],
        )
        .unwrap();
        assert_eq!(values(&out), vec![1, 3]);
    }

    #[test]
    fn sides_of_different_widths_come_out_at_the_wider() {
        let narrow = || Batch::new(vec![Vector::new(ColumnData::I8(vec![1, 2, 3]))]);
        let wide = || Batch::new(vec![Vector::new(ColumnData::I16(vec![2, 1000]))]);
        let mut c = ctx();
        for (op, expect) in [
            (SetOpKind::Union, vec![1, 2, 3, 1000]),
            (SetOpKind::Intersect, vec![2]),
            (SetOpKind::Minus, vec![1, 3]),
        ] {
            let out = set_op(&mut c, &[narrow()], &[wide()], op, &[2]).unwrap();
            assert_eq!(values(&out), expect, "{op:?}");
            assert_eq!(out.column(0).data.width(), 2, "{op:?}");
        }
        let out = set_op(&mut c, &[wide()], &[narrow()], SetOpKind::Union, &[2]).unwrap();
        assert_eq!(values(&out), vec![1, 2, 3, 1000]);
    }

    #[test]
    fn null_rows_compare_equal_in_set_ops() {
        use rapid_storage::bitvec::BitVec;
        let mut c = ctx();
        let mut nulls = BitVec::zeros(2);
        nulls.set(0, true);
        let withnull = Batch::new(vec![Vector::with_nulls(ColumnData::I64(vec![0, 1]), nulls)]);
        let out = set_op(
            &mut c,
            std::slice::from_ref(&withnull),
            std::slice::from_ref(&withnull),
            SetOpKind::Intersect,
            &[8],
        )
        .unwrap();
        assert_eq!(out.rows(), 2, "NULL row intersects with NULL row");
    }

    #[test]
    fn empty_sides() {
        let mut c = ctx();
        let out = set_op(&mut c, &[], &[batch(vec![1])], SetOpKind::Union, &[8]).unwrap();
        assert_eq!(values(&out), vec![1]);
        let out = set_op(&mut c, &[batch(vec![1])], &[], SetOpKind::Intersect, &[8]).unwrap();
        assert_eq!(out.rows(), 0);
    }
}
