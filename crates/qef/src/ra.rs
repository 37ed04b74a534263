//! The Relation Accessor (RA): the operators' window onto the DMS.
//!
//! "The QEF provides a common interface to operators for specifying their
//! memory access patterns and hides the complexity of the DMS. [...] The RA
//! supports sequential, gather, scatter and partitioned data access
//! patterns." (§5.1)
//!
//! Operators never issue raw transfers; they ask the RA to stream a chunk's
//! columns tile-by-tile (sequential), to fetch only qualifying rows
//! (gather via RID-list or bit-vector), or to write results back
//! (scatter/sequential write). The RA builds the descriptor loops, charges
//! the engine cost, and hands the operator plain [`Batch`]es.

use dpu_sim::dms::descriptor::{Descriptor, DescriptorLoop, Direction};
use dpu_sim::dms::engine::DmsCost;
use dpu_sim::isa::CostModel;

use rapid_storage::bitvec::RowSet;
use rapid_storage::chunk::Chunk;

use crate::batch::Batch;
use crate::error::QefResult;
use crate::exec::CoreCtx;

/// Build a descriptor loop for columns of possibly differing widths.
fn loop_for(widths: &[usize], rows: usize, tile: usize, dir: Direction) -> DescriptorLoop {
    let tile = tile.max(1);
    DescriptorLoop {
        descriptors: widths
            .iter()
            .map(|&w| Descriptor {
                direction: dir,
                rows: tile,
                width: w,
                gather: false,
            })
            .collect(),
        iterations: rows.div_ceil(tile),
        double_buffered: true,
    }
}

/// The relation accessor bound to one core.
pub struct RelationAccessor;

impl RelationAccessor {
    /// Cost of sequentially reading `rows` rows of columns with `widths`
    /// in tiles of `tile` rows.
    pub fn seq_read_cost(ctx: &CoreCtx, widths: &[usize], rows: usize, tile: usize) -> DmsCost {
        let engine = dpu_sim::dms::engine::DmsEngine::new((*ctx.cost_model).clone());
        engine.loop_cost(&loop_for(widths, rows, tile, Direction::Read))
    }

    /// Cost of sequentially writing the same shape (materialization).
    pub fn seq_write_cost(ctx: &CoreCtx, widths: &[usize], rows: usize, tile: usize) -> DmsCost {
        let engine = dpu_sim::dms::engine::DmsEngine::new((*ctx.cost_model).clone());
        engine.loop_cost(&loop_for(widths, rows, tile, Direction::Write))
    }

    /// [`seq_write_cost`](Self::seq_write_cost) of one `tile`-row tile.
    /// A partition round computes it once and every lane charges
    /// [`DmsCost::times`] the tiles it owns: the bytes and descriptors of
    /// the pass do not depend on how its tiles are split across lanes.
    pub fn seq_write_tile_cost(cm: &CostModel, widths: &[usize], tile: usize) -> DmsCost {
        let engine = dpu_sim::dms::engine::DmsEngine::new(cm.clone());
        engine.loop_cost(&loop_for(widths, tile.max(1), tile, Direction::Write))
    }

    /// Cost of gathering `rows` selected rows of the given columns.
    pub fn gather_cost(ctx: &CoreCtx, widths: &[usize], rows: usize, tile: usize) -> DmsCost {
        let engine = dpu_sim::dms::engine::DmsEngine::new((*ctx.cost_model).clone());
        let mut cost = DmsCost::default();
        for &w in widths {
            cost = cost.merged(&engine.gather(1, w, rows, tile));
        }
        cost
    }

    /// Stream the projected columns of a chunk tile-by-tile into `f`,
    /// charging the sequential-read descriptor loop. This is the leaf
    /// access pattern of every scan task.
    pub fn stream_chunk<F>(
        ctx: &mut CoreCtx,
        chunk: &Chunk,
        cols: &[usize],
        tile: usize,
        mut f: F,
    ) -> QefResult<()>
    where
        F: FnMut(&mut CoreCtx, Batch, usize) -> QefResult<()>,
    {
        let rows = chunk.rows();
        let widths: Vec<usize> = cols.iter().map(|&c| chunk.vector(c).data.width()).collect();
        let cost = Self::seq_read_cost(ctx, &widths, rows, tile);
        ctx.charge_dms(&cost);
        let mut start = 0usize;
        while start < rows {
            let end = (start + tile).min(rows);
            let columns = cols
                .iter()
                .map(|&c| chunk.vector(c).slice(start, end))
                .collect();
            ctx.charge_tile();
            f(ctx, Batch::new(columns), start)?;
            start = end;
        }
        Ok(())
    }

    /// Bytes of the row-set descriptor the DMS must read to drive a
    /// selective gather: a bit-vector costs 1 bit/row scanned, a RID-list
    /// 32 bits per qualifying row — this asymmetry is what the filter's
    /// 1/32 representation rule optimizes (§5.4).
    pub fn rowset_descriptor_bytes(rows: &RowSet) -> u64 {
        match rows {
            RowSet::Bits(b) => b.size_bytes() as u64,
            RowSet::Rids(r) => r.size_bytes() as u64,
        }
    }

    /// Cost of shipping a row-set descriptor into the DMS.
    pub fn rowset_cost(ctx: &CoreCtx, rows: &RowSet) -> DmsCost {
        let bytes = Self::rowset_descriptor_bytes(rows);
        let cm = &ctx.cost_model;
        DmsCost {
            cycles: bytes as f64 / cm.dms_bytes_per_cycle() + cm.dms_descriptor_setup_cycles,
            bytes,
            descriptors: 1,
        }
    }

    /// Gather the qualifying rows (per `rows`) of the projected columns of
    /// a chunk — the selective path filters use for later predicates. The
    /// charge includes shipping the row-set descriptor itself.
    pub fn gather_chunk(
        ctx: &mut CoreCtx,
        chunk: &Chunk,
        cols: &[usize],
        rows: &RowSet,
        tile: usize,
    ) -> Batch {
        let mut rids = Vec::with_capacity(rows.count());
        rows.for_each_row(|r| rids.push(r as u32));
        let widths: Vec<usize> = cols.iter().map(|&c| chunk.vector(c).data.width()).collect();
        let cost =
            Self::gather_cost(ctx, &widths, rids.len(), tile).merged(&Self::rowset_cost(ctx, rows));
        ctx.charge_dms(&cost);
        Batch::new(
            cols.iter()
                .map(|&c| chunk.vector(c).gather(&rids))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;
    use rapid_storage::bitvec::BitVec;
    use rapid_storage::vector::{ColumnData, Vector};

    fn chunk(n: usize) -> Chunk {
        Chunk::new(vec![
            Vector::new(ColumnData::I32((0..n as i32).collect())),
            Vector::new(ColumnData::I64((0..n as i64).map(|i| i * 10).collect())),
        ])
    }

    #[test]
    fn stream_visits_every_row_once_in_order() {
        let ctx_e = ExecContext::dpu();
        let mut ctx = crate::exec::CoreCtx::new(&ctx_e, 0);
        let c = chunk(1000);
        let mut seen = Vec::new();
        RelationAccessor::stream_chunk(&mut ctx, &c, &[0], 256, |_, b, start| {
            assert!(b.rows() <= 256);
            assert_eq!(b.column(0).data.get_i64(0), start as i64);
            seen.extend(b.column(0).data.to_i64_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, (0..1000).collect::<Vec<i64>>());
        assert_eq!(ctx.account.counters().tiles, 4);
        assert!(ctx.account.dms_cycles().get() > 0.0);
    }

    #[test]
    fn gather_fetches_only_selected_rows() {
        let ctx_e = ExecContext::dpu();
        let mut ctx = crate::exec::CoreCtx::new(&ctx_e, 0);
        let c = chunk(100);
        let bv = BitVec::from_bools((0..100).map(|i| i % 10 == 0));
        let b = RelationAccessor::gather_chunk(&mut ctx, &c, &[1], &RowSet::Bits(bv), 64);
        assert_eq!(b.rows(), 10);
        assert_eq!(b.column(0).data.get_i64(3), 300);
    }

    #[test]
    fn read_cost_scales_with_width() {
        let ctx_e = ExecContext::dpu();
        let ctx = crate::exec::CoreCtx::new(&ctx_e, 0);
        let narrow = RelationAccessor::seq_read_cost(&ctx, &[4], 10_000, 128);
        let wide = RelationAccessor::seq_read_cost(&ctx, &[8], 10_000, 128);
        assert!(wide.cycles > narrow.cycles);
        assert_eq!(wide.bytes, narrow.bytes * 2);
    }

    #[test]
    fn gather_cost_exceeds_sequential() {
        let ctx_e = ExecContext::dpu();
        let ctx = crate::exec::CoreCtx::new(&ctx_e, 0);
        let seq = RelationAccessor::seq_read_cost(&ctx, &[4], 10_000, 128);
        let gat = RelationAccessor::gather_cost(&ctx, &[4], 10_000, 128);
        assert!(gat.cycles > seq.cycles);
    }
}
