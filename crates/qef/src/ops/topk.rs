//! The vectorized Top-K operator (§5.4).
//!
//! Each core maintains a bounded heap over its input stream; per-core
//! heaps are merged and the final K rows are emitted in order. Comparison
//! is over widened values (order-preserving encodings make that correct
//! for every type), with NULLs ordered last in both directions (the
//! engine-wide NULLS LAST semantics shared with the radix sort and the
//! host executor).

use dpu_sim::account::Kernel;
use std::cmp::Ordering;
use std::sync::Arc;

use crate::batch::Batch;
use crate::error::QefResult;
use crate::exec::CoreCtx;
use crate::plan::SortKey;
use crate::primitives::costs;

/// Compare two rows of a batch under the sort keys.
pub fn cmp_rows(
    batch_a: &Batch,
    row_a: usize,
    batch_b: &Batch,
    row_b: usize,
    order: &[SortKey],
) -> Ordering {
    for k in order {
        let a = batch_a.column(k.col).get(row_a);
        let b = batch_b.column(k.col).get(row_b);
        // NULLs last regardless of direction: only real values see the
        // DESC reversal (matches the radix sort's 65-bit order key and
        // `valmath::order_by_cmp` on the host).
        let ord = match (a, b) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Greater,
            (Some(_), None) => Ordering::Less,
            (Some(x), Some(y)) => {
                let o = x.cmp(&y);
                if k.desc {
                    o.reverse()
                } else {
                    o
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// A bounded top-K accumulator over batches.
#[derive(Debug)]
pub struct TopK {
    order: Vec<SortKey>,
    k: usize,
    /// Current candidates, kept loosely sorted only on overflow. The rows
    /// of one consumed batch share it.
    rows: Vec<(Arc<Batch>, usize)>,
}

impl TopK {
    /// Top-`k` under `order`.
    pub fn new(order: Vec<SortKey>, k: usize) -> TopK {
        TopK {
            order,
            k,
            rows: Vec::new(),
        }
    }

    /// Consume a batch.
    pub fn consume(&mut self, ctx: &mut CoreCtx, batch: Batch) -> QefResult<()> {
        let n = batch.rows();
        let batch = Arc::new(batch);
        self.rows.extend((0..n).map(|i| (Arc::clone(&batch), i)));
        // Prune: keep the best k (amortized; a real heap on the DPU, a
        // sort-and-truncate here with the same cost declaration).
        if self.rows.len() > 4 * self.k.max(16) {
            self.prune();
        }
        ctx.charge_kernel(Kernel::Other, &costs::topk_per_row().scaled(n as f64));
        ctx.charge_tile();
        Ok(())
    }

    fn prune(&mut self) {
        let order = &self.order;
        self.rows
            .sort_by(|(ba, ra), (bb, rb)| cmp_rows(ba, *ra, bb, *rb, order));
        self.rows.truncate(self.k);
    }

    /// Merge another accumulator (cross-core combine).
    pub fn merge(&mut self, ctx: &mut CoreCtx, other: TopK) -> QefResult<()> {
        let n = other.rows.len();
        self.rows.extend(other.rows);
        ctx.charge_kernel(Kernel::Other, &costs::topk_per_row().scaled(n as f64));
        Ok(())
    }

    /// Emit the final top-K rows, fully ordered.
    pub fn finish(mut self, ctx: &mut CoreCtx) -> Batch {
        self.prune();
        let out: Vec<Batch> = self
            .rows
            .iter()
            .map(|(b, r)| b.gather(&[*r as u32]))
            .collect();
        ctx.charge_kernel(
            Kernel::Other,
            &costs::topk_per_row().scaled(self.rows.len() as f64),
        );
        Batch::concat(out)
    }
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
    fn top3_descending() {
        let mut c = ctx();
        let mut t = TopK::new(vec![SortKey { col: 0, desc: true }], 3);
        t.consume(&mut c, batch(vec![5, 1, 9, 3, 7, 2])).unwrap();
        let out = t.finish(&mut c);
        assert_eq!(out.column(0).data.to_i64_vec(), vec![9, 7, 5]);
    }

    #[test]
    fn k_larger_than_input() {
        let mut c = ctx();
        let mut t = TopK::new(
            vec![SortKey {
                col: 0,
                desc: false,
            }],
            10,
        );
        t.consume(&mut c, batch(vec![3, 1, 2])).unwrap();
        let out = t.finish(&mut c);
        assert_eq!(out.column(0).data.to_i64_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn merge_across_cores() {
        let mut c = ctx();
        let mut a = TopK::new(vec![SortKey { col: 0, desc: true }], 2);
        a.consume(&mut c, batch(vec![10, 20])).unwrap();
        let mut b = TopK::new(vec![SortKey { col: 0, desc: true }], 2);
        b.consume(&mut c, batch(vec![15, 5])).unwrap();
        a.merge(&mut c, b).unwrap();
        let out = a.finish(&mut c);
        assert_eq!(out.column(0).data.to_i64_vec(), vec![20, 15]);
    }

    #[test]
    fn pruning_does_not_lose_winners() {
        let mut c = ctx();
        let mut t = TopK::new(vec![SortKey { col: 0, desc: true }], 5);
        // Feed many batches to force pruning.
        for chunk in (0..10_000i64).collect::<Vec<_>>().chunks(100) {
            t.consume(&mut c, batch(chunk.to_vec())).unwrap();
        }
        let out = t.finish(&mut c);
        assert_eq!(
            out.column(0).data.to_i64_vec(),
            vec![9999, 9998, 9997, 9996, 9995]
        );
    }

    #[test]
    fn multi_key_tiebreak() {
        let mut c = ctx();
        let b = Batch::new(vec![
            Vector::new(ColumnData::I64(vec![1, 1, 2])),
            Vector::new(ColumnData::I64(vec![30, 10, 20])),
        ]);
        let mut t = TopK::new(
            vec![
                SortKey {
                    col: 0,
                    desc: false,
                },
                SortKey { col: 1, desc: true },
            ],
            3,
        );
        t.consume(&mut c, b).unwrap();
        let out = t.finish(&mut c);
        assert_eq!(out.column(1).data.to_i64_vec(), vec![30, 10, 20]);
    }

    #[test]
    fn nulls_sort_last_ascending() {
        use rapid_storage::bitvec::BitVec;
        let mut c = ctx();
        let mut nulls = BitVec::zeros(3);
        nulls.set(1, true);
        let b = Batch::new(vec![Vector::with_nulls(
            ColumnData::I64(vec![5, 0, 1]),
            nulls,
        )]);
        let mut t = TopK::new(
            vec![SortKey {
                col: 0,
                desc: false,
            }],
            3,
        );
        t.consume(&mut c, b).unwrap();
        let out = t.finish(&mut c);
        assert_eq!(out.column(0).get(0), Some(1));
        assert_eq!(out.column(0).get(1), Some(5));
        assert_eq!(out.column(0).get(2), None);
    }

    #[test]
    fn nulls_sort_last_descending_too() {
        use rapid_storage::bitvec::BitVec;
        let mut c = ctx();
        let mut nulls = BitVec::zeros(3);
        nulls.set(1, true);
        let b = Batch::new(vec![Vector::with_nulls(
            ColumnData::I64(vec![5, 0, 1]),
            nulls,
        )]);
        let mut t = TopK::new(vec![SortKey { col: 0, desc: true }], 3);
        t.consume(&mut c, b).unwrap();
        let out = t.finish(&mut c);
        assert_eq!(out.column(0).get(0), Some(5));
        assert_eq!(out.column(0).get(1), Some(1));
        assert_eq!(out.column(0).get(2), None, "NULLS LAST under DESC");
    }
}
