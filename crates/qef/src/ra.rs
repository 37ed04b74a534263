//! The Relation Accessor (RA): the operators' window onto the DMS.
//!
//! "The QEF provides a common interface to operators for specifying their
//! memory access patterns and hides the complexity of the DMS. [...] The RA
//! supports sequential, gather, scatter and partitioned data access
//! patterns." (§5.1)
//!
//! Operators never issue raw transfers; they ask the RA, which builds the
//! descriptor loops and charges the engine cost. Who uses which pattern:
//!
//! | pattern | RA entry | used by |
//! |---|---|---|
//! | sequential read | [`stream_chunk`](RelationAccessor::stream_chunk) | the scan's stream path (all its columns, once) and the first pass of its selective path (the pass's predicate columns) |
//! | gather | [`gather_chunk`](RelationAccessor::gather_chunk), [`gather_cost`](RelationAccessor::gather_cost) + [`rowset_cost`](RelationAccessor::rowset_cost) | the selective path: later passes fetch their columns at the surviving rows, the projection is fetched last at the final row set |
//! | sequential write | [`seq_write_cost`](RelationAccessor::seq_write_cost), [`seq_write_tile_cost`](RelationAccessor::seq_write_tile_cost) | partition lanes flushing their local buffers (a round after the first also pays [`seq_read_cost`](RelationAccessor::seq_read_cost) for what the round before wrote), join and group-by materialization |
//! | partitioned | `dpu_sim::dms::partition` | no query stage: the DMS's partition-while-transfer engine is measured on its own (Figure 8, `examples/dpu_hardware.rs`); every round of a partition pass is software on the dpCores, its traffic the sequential patterns above |
//!
//! A streamed chunk is read where it lies — the simulator's DRAM is the
//! host heap — so the sequential pattern hands nothing back; a gather
//! produces the bytes the DMS writes into DMEM as a [`Batch`].

use dpu_sim::dms::descriptor::{Descriptor, Direction};
use dpu_sim::dms::engine::{DmsCost, DmsEngine};
use dpu_sim::isa::CostModel;

use rapid_storage::bitvec::{RowSet, RowSetKind};
use rapid_storage::chunk::Chunk;

use crate::batch::Batch;
use crate::exec::CoreCtx;

/// The relation-accessor pattern a scan reads its chunks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AccessPath {
    /// Every touched column streams through DMEM once.
    Stream,
    /// Predicate columns pass by pass, the projection gathered last.
    Gather,
}

impl std::fmt::Display for AccessPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessPath::Stream => "stream",
            AccessPath::Gather => "gather",
        })
    }
}

/// The row ids of a row set, ascending.
pub(crate) fn row_ids(rows: &RowSet) -> Vec<u32> {
    let mut rids = Vec::with_capacity(rows.count());
    rows.for_each_row(|r| rids.push(r as u32));
    rids
}

/// Column widths in bytes, one per stream of a descriptor loop. Callers
/// describe them lazily (a slice's `iter().copied()`, [`chunk_widths`]):
/// costing a loop allocates nothing.
pub trait Widths: ExactSizeIterator<Item = usize> + Clone {}
impl<I: ExactSizeIterator<Item = usize> + Clone> Widths for I {}

/// Physical widths of `cols` as `chunk` stores them.
pub fn chunk_widths<'a>(chunk: &'a Chunk, cols: &'a [usize]) -> impl Widths + 'a {
    cols.iter().map(|&c| chunk.vector(c).data.width())
}

/// Cost of the sequential loop moving `rows` rows of `widths` in `dir`.
fn sequential(
    cm: &CostModel,
    widths: impl Widths,
    rows: usize,
    tile: usize,
    dir: Direction,
) -> DmsCost {
    let tile = tile.max(1);
    let descriptors = widths.map(|width| Descriptor {
        direction: dir,
        rows: tile,
        width,
        gather: false,
    });
    DmsEngine::new(cm.clone()).chain_cost(descriptors, rows.div_ceil(tile))
}

/// The relation accessor bound to one core.
pub struct RelationAccessor;

impl RelationAccessor {
    /// Cost of sequentially reading `rows` rows of columns with `widths`
    /// in tiles of `tile` rows.
    pub fn seq_read_cost(cm: &CostModel, widths: impl Widths, rows: usize, tile: usize) -> DmsCost {
        sequential(cm, widths, rows, tile, Direction::Read)
    }

    /// Cost of sequentially writing the same shape (materialization).
    pub fn seq_write_cost(
        cm: &CostModel,
        widths: impl Widths,
        rows: usize,
        tile: usize,
    ) -> DmsCost {
        sequential(cm, widths, rows, tile, Direction::Write)
    }

    /// [`seq_write_cost`](Self::seq_write_cost) of one `tile`-row tile.
    /// A partition round computes it once and every lane charges
    /// [`DmsCost::times`] the tiles it owns: the bytes and descriptors of
    /// the pass do not depend on how its tiles are split across lanes.
    pub fn seq_write_tile_cost(cm: &CostModel, widths: impl Widths, tile: usize) -> DmsCost {
        Self::seq_write_cost(cm, widths, tile.max(1), tile)
    }

    /// Cost of gathering `rows` selected rows of the given columns.
    pub fn gather_cost(cm: &CostModel, widths: impl Widths, rows: usize, tile: usize) -> DmsCost {
        let engine = DmsEngine::new(cm.clone());
        let mut cost = DmsCost::default();
        for w in widths {
            cost = cost.merged(&engine.gather(1, w, rows, tile));
        }
        cost
    }

    /// Sequential access: stream `cols` of the chunk through DMEM in
    /// `tile`-row tiles, charging the descriptor loop. The operator then
    /// reads the chunk's vectors in place, a tile at a time on the chip;
    /// the tiles streamed are returned for its control loop to charge.
    pub fn stream_chunk(ctx: &mut CoreCtx, chunk: &Chunk, cols: &[usize], tile: usize) -> usize {
        let widths = chunk_widths(chunk, cols);
        let cost = Self::seq_read_cost(&ctx.cost_model, widths, chunk.rows(), tile);
        ctx.charge_dms(&cost);
        chunk.rows().div_ceil(tile.max(1))
    }

    /// Bytes of the row-set descriptor the DMS must read to drive a
    /// selective gather of `qualifying` of `scanned` rows: a bit-vector
    /// costs 1 bit/row scanned (in whole 64-bit words), a RID-list 32 bits
    /// per qualifying row — this asymmetry is what the filter's 1/32
    /// representation rule optimizes (§5.4).
    pub fn rowset_descriptor_bytes(kind: RowSetKind, scanned: usize, qualifying: usize) -> u64 {
        match kind {
            RowSetKind::Bits => scanned.div_ceil(64) as u64 * 8,
            RowSetKind::Rids => qualifying as u64 * 4,
        }
    }

    /// Cost of shipping a row-set descriptor of `bytes` into the DMS.
    pub fn rowset_cost(cm: &CostModel, bytes: u64) -> DmsCost {
        DmsCost {
            cycles: bytes as f64 / cm.dms_bytes_per_cycle() + cm.dms_descriptor_setup_cycles,
            bytes,
            descriptors: 1,
        }
    }

    /// Charge the gather of `cols` at the rows of `rows`, the shipping of
    /// the row-set descriptor included.
    pub fn charge_gather(
        ctx: &mut CoreCtx,
        chunk: &Chunk,
        cols: &[usize],
        rows: &RowSet,
        tile: usize,
    ) {
        let kind = match rows {
            RowSet::Bits(_) => RowSetKind::Bits,
            RowSet::Rids(_) => RowSetKind::Rids,
        };
        let descriptor = Self::rowset_descriptor_bytes(kind, chunk.rows(), rows.count());
        let widths = chunk_widths(chunk, cols);
        let cost = Self::gather_cost(&ctx.cost_model, widths, rows.count(), tile)
            .merged(&Self::rowset_cost(&ctx.cost_model, descriptor));
        ctx.charge_dms(&cost);
    }

    /// Gather access: fetch the qualifying rows (per `rows`) of `cols` of a
    /// chunk — the selective path's late materialization.
    pub fn gather_chunk(
        ctx: &mut CoreCtx,
        chunk: &Chunk,
        cols: &[usize],
        rows: &RowSet,
        tile: usize,
    ) -> Batch {
        Self::charge_gather(ctx, chunk, cols, rows, tile);
        let rids = row_ids(rows);
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
    fn stream_charges_the_sequential_loop_and_counts_its_tiles() {
        let ctx_e = ExecContext::dpu();
        let mut ctx = crate::exec::CoreCtx::new(&ctx_e, 0);
        let c = chunk(1000);
        assert_eq!(
            RelationAccessor::stream_chunk(&mut ctx, &c, &[0, 1], 256),
            4
        );
        let expect =
            RelationAccessor::seq_read_cost(&ctx_e.cost_model, [4, 8].into_iter(), 1000, 256);
        assert_eq!(ctx.account.dms_cycles().get(), expect.cycles);
        // Whole tiles move: 4 tiles of 256 rows of 12 bytes, a descriptor
        // per column per tile, and the control loop is the operator's.
        assert_eq!(ctx.account.counters().dms_bytes, 4 * 256 * 12);
        assert_eq!(ctx.account.counters().dms_descriptors, 8);
        assert_eq!(ctx.account.counters().tiles, 0);
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
        // One gather tile of the column plus the 100-bit row set in words.
        assert_eq!(ctx.account.counters().dms_bytes, 64 * 8 + 16);
    }

    #[test]
    fn read_cost_scales_with_width() {
        let cm = CostModel::default();
        let narrow = RelationAccessor::seq_read_cost(&cm, [4].into_iter(), 10_000, 128);
        let wide = RelationAccessor::seq_read_cost(&cm, [8].into_iter(), 10_000, 128);
        assert!(wide.cycles > narrow.cycles);
        assert_eq!(wide.bytes, narrow.bytes * 2);
    }

    #[test]
    fn gather_cost_exceeds_sequential() {
        let cm = CostModel::default();
        let seq = RelationAccessor::seq_read_cost(&cm, [4].into_iter(), 10_000, 128);
        let gat = RelationAccessor::gather_cost(&cm, [4].into_iter(), 10_000, 128);
        assert!(gat.cycles > seq.cycles);
    }

    #[test]
    fn a_rid_list_is_the_smaller_descriptor_below_one_row_in_32() {
        let bytes = RelationAccessor::rowset_descriptor_bytes;
        assert_eq!(bytes(RowSetKind::Bits, 4096, 100), 512);
        assert_eq!(bytes(RowSetKind::Rids, 4096, 100), 400);
        assert_eq!(bytes(RowSetKind::Rids, 4096, 128), 512);
    }
}
