//! The filter operator (§5.4).
//!
//! The paper's filter pipeline:
//!
//! 1. predicates are evaluated **most selective first** (ordering decided
//!    by the compiler from statistics; re-checked here from observed
//!    selectivity so mis-estimates degrade gracefully),
//! 2. the first predicate streams its column sequentially and produces
//!    either a RID-list or a bit-vector — RIDs when fewer than 1/32 of the
//!    rows are expected to qualify (a RID is 32 bits),
//! 3. each subsequent predicate only **gathers** the still-qualifying rows
//!    of its column through the DMS and narrows the row set,
//! 4. projection columns are gathered last (late materialization), or the
//!    row set is handed to the next operator when it can consume one.

use rapid_storage::bitvec::{BitVec, RowSet, RowSetKind};
use rapid_storage::chunk::Chunk;
use rapid_storage::vector::{ColumnData, Vector};

use crate::batch::Batch;
use crate::error::QefResult;
use crate::exec::CoreCtx;
use crate::expr::Pred;
use crate::primitives::costs;
use crate::ra::RelationAccessor;

/// Outcome of filtering one chunk.
#[derive(Debug)]
pub struct FilterResult {
    /// Qualifying rows of the chunk.
    pub rows: RowSet,
    /// Rows evaluated by the first (streaming) predicate.
    pub scanned: usize,
}

impl FilterResult {
    /// Qualifying-row count.
    pub fn count(&self) -> usize {
        self.rows.count()
    }
}

/// Evaluate ordered conjuncts over one chunk, producing the qualifying row
/// set. `expected_selectivity` drives the RID/bit-vector representation
/// choice for the first predicate (the 1/32 rule).
pub fn filter_chunk(
    ctx: &mut CoreCtx,
    chunk: &Chunk,
    conjuncts: &[Pred],
    expected_selectivity: f64,
    tile: usize,
) -> QefResult<FilterResult> {
    let rows = chunk.rows();
    if conjuncts.is_empty() {
        return Ok(FilterResult {
            rows: RowSet::Bits(BitVec::ones(rows)),
            scanned: rows,
        });
    }

    // First predicate: stream the referenced columns sequentially.
    let first = &conjuncts[0];
    let mut cols = Vec::new();
    first.referenced_columns(&mut cols);
    cols.sort_unstable();
    cols.dedup();
    let widths: Vec<usize> = cols.iter().map(|&c| chunk.vector(c).data.width()).collect();
    ctx.charge_dms(&RelationAccessor::seq_read_cost(ctx, &widths, rows, tile));
    ctx.charge_tile();

    // Evaluate in place over the chunk's vectors (the filter task's large
    // tiles): the DMS streams them, nothing is copied.
    let bv = first.eval(ctx, chunk.vectors(), rows)?;

    let mut qualifying = match RowSet::choose(expected_selectivity) {
        RowSetKind::Rids => {
            let rids = bv.to_rids();
            ctx.charge_kernel(&costs::filter_rid_emit_per_match().scaled(rids.len() as f64));
            RowSet::Rids(rids)
        }
        RowSetKind::Bits => RowSet::Bits(bv),
    };

    // Subsequent predicates: gather only qualifying rows of their columns.
    for pred in &conjuncts[1..] {
        let n = qualifying.count();
        if n == 0 {
            break;
        }
        let mut pcols = Vec::new();
        pred.referenced_columns(&mut pcols);
        pcols.sort_unstable();
        pcols.dedup();
        let widths: Vec<usize> = pcols
            .iter()
            .map(|&c| chunk.vector(c).data.width())
            .collect();
        let gcost = RelationAccessor::gather_cost(ctx, &widths, n, tile)
            .merged(&RelationAccessor::rowset_cost(ctx, &qualifying));
        ctx.charge_dms(&gcost);
        ctx.charge_tile();

        // Evaluate on gathered rows only, then intersect. Only the columns
        // the gather descriptor names are fetched; the rest stay
        // zero-length placeholders at their positions.
        let mut rids = Vec::with_capacity(n);
        qualifying.for_each_row(|r| rids.push(r as u32));
        let mut gathered: Vec<Vector> = (0..chunk.columns())
            .map(|_| Vector::new(ColumnData::I8(Vec::new())))
            .collect();
        for &c in &pcols {
            gathered[c] = chunk.vector(c).gather(&rids);
        }
        let pass = pred.eval(ctx, &gathered, n)?;
        let mut surviving = pass.to_rids().rids;
        for s in &mut surviving {
            *s = rids[*s as usize];
        }
        let sel = surviving.len() as f64 / rows.max(1) as f64;
        qualifying = match RowSet::choose(sel) {
            RowSetKind::Rids => RowSet::Rids(rapid_storage::bitvec::RidList { rids: surviving }),
            RowSetKind::Bits => {
                let mut out = BitVec::zeros(rows);
                for r in surviving {
                    out.set(r as usize, true);
                }
                RowSet::Bits(out)
            }
        };
    }

    Ok(FilterResult {
        rows: qualifying,
        scanned: rows,
    })
}

/// Materialize the projection of a filtered chunk (the late-materialization
/// step), gathering `proj_cols` at the qualifying rows.
pub fn materialize_projection(
    ctx: &mut CoreCtx,
    chunk: &Chunk,
    rows: &RowSet,
    proj_cols: &[usize],
    tile: usize,
) -> Batch {
    RelationAccessor::gather_chunk(ctx, chunk, proj_cols, rows, tile)
}

/// Filter a materialized batch (non-leaf Filter nodes). When every row
/// passes the batch is handed on as it came.
pub fn filter_batch(ctx: &mut CoreCtx, batch: Batch, pred: &Pred) -> QefResult<Batch> {
    ctx.charge_tile();
    let bv = pred.eval(ctx, &batch.columns, batch.rows())?;
    if bv.count_ones() == batch.rows() {
        return Ok(batch);
    }
    let rids = bv.to_rids().rids;
    ctx.charge_kernel(&costs::filter_rid_emit_per_match().scaled(rids.len() as f64));
    Ok(batch.gather(&rids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CoreCtx, ExecContext};
    use crate::primitives::filter::CmpOp;

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    fn chunk(n: usize) -> Chunk {
        Chunk::new(vec![
            Vector::new(ColumnData::I32((0..n as i32).collect())),
            Vector::new(ColumnData::I32((0..n as i32).map(|i| i % 100).collect())),
        ])
    }

    #[test]
    fn single_predicate_selects_expected_rows() {
        let mut c = ctx();
        let ch = chunk(1000);
        let preds = vec![Pred::CmpConst {
            col: 0,
            op: CmpOp::Lt,
            value: 250,
        }];
        let r = filter_chunk(&mut c, &ch, &preds, 0.25, 256).unwrap();
        assert_eq!(r.count(), 250);
        assert!(
            matches!(r.rows, RowSet::Bits(_)),
            "25% selectivity uses bits"
        );
    }

    #[test]
    fn selective_predicate_uses_rids() {
        let mut c = ctx();
        let ch = chunk(1000);
        let preds = vec![Pred::CmpConst {
            col: 0,
            op: CmpOp::Lt,
            value: 10,
        }];
        let r = filter_chunk(&mut c, &ch, &preds, 0.01, 256).unwrap();
        assert_eq!(r.count(), 10);
        assert!(
            matches!(r.rows, RowSet::Rids(_)),
            "1% selectivity uses RIDs"
        );
    }

    #[test]
    fn conjunction_narrows_progressively() {
        let mut c = ctx();
        let ch = chunk(1000);
        let preds = vec![
            Pred::CmpConst {
                col: 0,
                op: CmpOp::Lt,
                value: 500,
            },
            Pred::CmpConst {
                col: 1,
                op: CmpOp::Lt,
                value: 50,
            },
        ];
        let r = filter_chunk(&mut c, &ch, &preds, 0.5, 256).unwrap();
        // rows < 500 with (row % 100) < 50: 250 rows.
        assert_eq!(r.count(), 250);
    }

    #[test]
    fn empty_conjuncts_pass_everything() {
        let mut c = ctx();
        let ch = chunk(64);
        let r = filter_chunk(&mut c, &ch, &[], 1.0, 64).unwrap();
        assert_eq!(r.count(), 64);
    }

    #[test]
    fn no_survivors_short_circuits() {
        let mut c = ctx();
        let ch = chunk(100);
        let preds = vec![
            Pred::CmpConst {
                col: 0,
                op: CmpOp::Gt,
                value: 1_000_000,
            },
            Pred::CmpConst {
                col: 1,
                op: CmpOp::Eq,
                value: 0,
            },
        ];
        let r = filter_chunk(&mut c, &ch, &preds, 0.001, 64).unwrap();
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn materialization_gathers_projection() {
        let mut c = ctx();
        let ch = chunk(100);
        let preds = vec![Pred::CmpConst {
            col: 0,
            op: CmpOp::Ge,
            value: 98,
        }];
        let r = filter_chunk(&mut c, &ch, &preds, 0.02, 64).unwrap();
        let b = materialize_projection(&mut c, &ch, &r.rows, &[1], 64);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.column(0).data.to_i64_vec(), vec![98, 99]);
    }

    #[test]
    fn filter_batch_on_intermediates() {
        let mut c = ctx();
        let b = Batch::new(vec![Vector::new(ColumnData::I64(vec![1, 5, 3, 7]))]);
        let out = filter_batch(
            &mut c,
            b,
            &Pred::CmpConst {
                col: 0,
                op: CmpOp::Gt,
                value: 3,
            },
        )
        .unwrap();
        assert_eq!(out.column(0).data.to_i64_vec(), vec![5, 7]);
    }

    #[test]
    fn chunk_filter_agrees_with_naive() {
        let mut c = ctx();
        let ch = chunk(777);
        let preds = vec![
            Pred::CmpConst {
                col: 1,
                op: CmpOp::Ge,
                value: 30,
            },
            Pred::CmpConst {
                col: 0,
                op: CmpOp::Lt,
                value: 600,
            },
        ];
        let r = filter_chunk(&mut c, &ch, &preds, 0.7, 128).unwrap();
        let mut expect = Vec::new();
        for i in 0..777i64 {
            if (i % 100) >= 30 && i < 600 {
                expect.push(i as usize);
            }
        }
        let mut got = Vec::new();
        r.rows.for_each_row(|i| got.push(i));
        assert_eq!(got, expect);
    }
}
