//! Window functions (§5.4): "analytic aggregates and rank with
//! partition-by clause are supported".
//!
//! Execution mirrors the partitioned group-by: rows are hash-grouped by
//! the PARTITION BY keys, ordered within each partition, and the window
//! function appends one output column; the original row order of the batch
//! is preserved in the output (values are scattered back by row id).

use dpu_sim::account::Kernel;
use rapid_storage::vector::{ColumnData, Vector};

use crate::batch::Batch;
use crate::error::QefResult;
use crate::exec::CoreCtx;
use crate::ops::topk::cmp_rows;
use crate::plan::{SortKey, WindowFunc};
use crate::primitives::costs;

/// Apply a window function, returning the input batch with the function's
/// column appended.
pub fn window_batch(
    ctx: &mut CoreCtx,
    batch: &Batch,
    partition_by: &[usize],
    order_by: &[SortKey],
    func: WindowFunc,
) -> QefResult<Batch> {
    let n = batch.rows();
    // Group rows by partition key values.
    let mut groups: std::collections::HashMap<Vec<Option<i64>>, Vec<u32>> =
        std::collections::HashMap::new();
    for i in 0..n {
        let key: Vec<Option<i64>> = partition_by
            .iter()
            .map(|&c| batch.column(c).get(i))
            .collect();
        groups.entry(key).or_default().push(i as u32);
    }
    ctx.charge_kernel(
        Kernel::GroupLookup,
        &costs::group_lookup_per_row().scaled(n as f64),
    );

    let mut out = vec![0i64; n];
    for rows in groups.values() {
        // Order within the partition.
        let mut ordered = rows.clone();
        ordered.sort_by(|&a, &b| cmp_rows(batch, a as usize, batch, b as usize, order_by));
        ctx.charge_kernel(
            Kernel::Other,
            &costs::radix_sort_per_row_per_pass().scaled((ordered.len() * 2) as f64),
        );
        match func {
            WindowFunc::RowNumber => {
                for (pos, &r) in ordered.iter().enumerate() {
                    out[r as usize] = pos as i64 + 1;
                }
            }
            WindowFunc::Rank => {
                let mut rank = 1i64;
                for (pos, &r) in ordered.iter().enumerate() {
                    if pos > 0 {
                        let prev = ordered[pos - 1] as usize;
                        if cmp_rows(batch, prev, batch, r as usize, order_by).is_ne() {
                            rank = pos as i64 + 1;
                        }
                    }
                    out[r as usize] = rank;
                }
            }
            WindowFunc::RunningSum { col } => {
                let mut acc = 0i64;
                for &r in &ordered {
                    acc += batch.column(col).get(r as usize).unwrap_or(0);
                    out[r as usize] = acc;
                }
            }
        }
        ctx.charge_kernel(
            Kernel::Aggregate,
            &costs::agg_per_row().scaled(ordered.len() as f64),
        );
    }

    let mut result = batch.clone();
    result.push_column(Vector::new(ColumnData::I64(out)));
    ctx.charge_tile();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CoreCtx, ExecContext};

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    fn batch() -> Batch {
        // dept, salary
        Batch::new(vec![
            Vector::new(ColumnData::I64(vec![1, 1, 1, 2, 2])),
            Vector::new(ColumnData::I64(vec![100, 300, 300, 50, 70])),
        ])
    }

    #[test]
    fn row_number_per_partition() {
        let mut c = ctx();
        let out = window_batch(
            &mut c,
            &batch(),
            &[0],
            &[SortKey { col: 1, desc: true }],
            WindowFunc::RowNumber,
        )
        .unwrap();
        // dept 1 salaries 300,300,100 -> row numbers; dept 2: 70,50.
        let rn = out.column(2).data.to_i64_vec();
        assert_eq!(rn[0], 3); // salary 100 is third in dept 1
        assert!(rn[1] <= 2 && rn[2] <= 2);
        assert_eq!(rn[3], 2);
        assert_eq!(rn[4], 1);
    }

    #[test]
    fn rank_has_gaps_on_ties() {
        let mut c = ctx();
        let out = window_batch(
            &mut c,
            &batch(),
            &[0],
            &[SortKey { col: 1, desc: true }],
            WindowFunc::Rank,
        )
        .unwrap();
        let rank = out.column(2).data.to_i64_vec();
        assert_eq!(rank[1], 1);
        assert_eq!(rank[2], 1, "tied salaries share rank");
        assert_eq!(rank[0], 3, "rank after a 2-way tie skips 2");
    }

    #[test]
    fn running_sum_in_order() {
        let mut c = ctx();
        let out = window_batch(
            &mut c,
            &batch(),
            &[0],
            &[SortKey {
                col: 1,
                desc: false,
            }],
            WindowFunc::RunningSum { col: 1 },
        )
        .unwrap();
        let rs = out.column(2).data.to_i64_vec();
        assert_eq!(rs[0], 100); // smallest in dept 1
        assert_eq!(rs[3], 50);
        assert_eq!(rs[4], 120);
    }

    #[test]
    fn empty_partition_by_is_one_global_window() {
        let mut c = ctx();
        let out = window_batch(
            &mut c,
            &batch(),
            &[],
            &[SortKey {
                col: 1,
                desc: false,
            }],
            WindowFunc::RowNumber,
        )
        .unwrap();
        let rn = out.column(2).data.to_i64_vec();
        let mut sorted = rn.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
    }
}
