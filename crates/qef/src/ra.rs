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
//! | sequential read | [`stream`](RelationAccessor::stream) | the scan's stream path (all its columns, once per lane) and the first pass of its selective path (the pass's predicate columns) |
//! | gather | [`charge_gather`](RelationAccessor::charge_gather), [`gather_cost`](RelationAccessor::gather_cost) + [`rowset_cost`](RelationAccessor::rowset_cost) | the selective path: later passes fetch their columns at the surviving rows, the projection is fetched last at the final row set |
//! | sequential write | [`seq_write_cost`](RelationAccessor::seq_write_cost) | partition lanes flushing their local buffers (a round after the first also pays [`seq_read_cost`](RelationAccessor::seq_read_cost) for what the round before wrote), join and group-by materialization |
//! | partitioned | none | no query stage: the DMS's partition-while-transfer engine is modelled beside Figure 8, its one measurement (`rapid_report::hw_partition`, `crates/bench/examples/dpu_hardware.rs`); every round of a partition pass is software on the dpCores, its traffic the sequential patterns above |
//!
//! Streamed rows are read where they lie — the simulator's DRAM is the
//! host heap — so the patterns hand nothing back: they charge, and the
//! operator copies exactly where a gather writes new bytes into DMEM. Every
//! loop is charged for the rows it moves: whole tiles, then a last tile of
//! the rows that are left.

use dpu_sim::dms::descriptor::{Descriptor, Direction};
use dpu_sim::dms::engine::{DmsCost, DmsEngine};
use dpu_sim::isa::CostModel;

use rapid_storage::bitvec::RowSetKind;
use rapid_storage::chunk::Chunk;

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

/// Column widths in bytes, one per stream of a descriptor loop. Callers
/// describe them lazily (a slice's `iter().copied()`, [`chunk_widths`]):
/// costing a loop allocates nothing.
pub trait Widths: ExactSizeIterator<Item = usize> + Clone {}
impl<I: ExactSizeIterator<Item = usize> + Clone> Widths for I {}

/// Physical widths of `cols` as `chunk` stores them.
pub fn chunk_widths<'a>(chunk: &'a Chunk, cols: &'a [usize]) -> impl Widths + 'a {
    cols.iter().map(|&c| chunk.vector(c).data.width())
}

/// Cost of the loop moving `rows` rows of `widths` in `dir`, one descriptor
/// per column per tile: every whole tile, then the last one charged for the
/// rows it holds — a lane that ends on a short tile moves that many rows,
/// not a tile of them. A `gather` loop is driven by a row set and runs each
/// column as a chain of its own.
fn tiled(
    cm: &CostModel,
    widths: impl Widths,
    rows: usize,
    tile: usize,
    dir: Direction,
    gather: bool,
) -> DmsCost {
    let tile = tile.max(1);
    let engine = DmsEngine::new(cm.clone());
    let chain = |rows_per_tile: usize, tiles: usize| {
        let descriptors = widths.clone().map(|width| Descriptor {
            direction: dir,
            rows: rows_per_tile,
            width,
            gather,
        });
        if gather {
            descriptors.fold(DmsCost::default(), |cost, d| {
                cost.merged(&engine.chain_cost(std::iter::once(d), tiles))
            })
        } else {
            engine.chain_cost(descriptors, tiles)
        }
    };
    let whole = chain(tile, rows / tile);
    match rows % tile {
        0 => whole,
        short => whole.merged(&chain(short, 1)),
    }
}

/// The relation accessor bound to one core.
pub struct RelationAccessor;

impl RelationAccessor {
    /// Cost of sequentially reading `rows` rows of columns with `widths`
    /// in tiles of `tile` rows.
    pub fn seq_read_cost(cm: &CostModel, widths: impl Widths, rows: usize, tile: usize) -> DmsCost {
        tiled(cm, widths, rows, tile, Direction::Read, false)
    }

    /// Cost of sequentially writing the same shape (materialization).
    pub fn seq_write_cost(
        cm: &CostModel,
        widths: impl Widths,
        rows: usize,
        tile: usize,
    ) -> DmsCost {
        tiled(cm, widths, rows, tile, Direction::Write, false)
    }

    /// Cost of gathering `rows` selected rows of the given columns.
    pub fn gather_cost(cm: &CostModel, widths: impl Widths, rows: usize, tile: usize) -> DmsCost {
        tiled(cm, widths, rows, tile, Direction::Read, true)
    }

    /// Sequential access: stream `rows` rows of columns of `widths` through
    /// DMEM in `tile`-row tiles, charging the descriptor loop. The operator
    /// then reads the vectors in place, a tile at a time on the chip; the
    /// tiles streamed are returned for its control loop to charge.
    pub fn stream(ctx: &mut CoreCtx, widths: impl Widths, rows: usize, tile: usize) -> usize {
        let cost = Self::seq_read_cost(&ctx.cost_model, widths, rows, tile);
        ctx.charge_dms(&cost);
        rows.div_ceil(tile.max(1))
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

    /// Charge the gather of columns of `widths` at the `count` qualifying
    /// rows of a run of rows, the shipping of the row-set descriptor — of
    /// `kind` — included. The run is rows `within` of those its lane scans,
    /// and a bit-vector is the lane's, shipped in whole 64-bit words: the run
    /// is charged the words that end in it, so that however chunks cut a
    /// lane's rows into runs — and lanes a table's — the words add up to one
    /// bit-vector over them.
    pub fn charge_gather(
        ctx: &mut CoreCtx,
        widths: impl Widths,
        within: std::ops::Range<usize>,
        kind: RowSetKind,
        count: usize,
        tile: usize,
    ) {
        let words = within.end.div_ceil(64) - within.start.div_ceil(64);
        let descriptor = Self::rowset_descriptor_bytes(kind, words * 64, count);
        let cost = Self::gather_cost(&ctx.cost_model, widths, count, tile)
            .merged(&Self::rowset_cost(&ctx.cost_model, descriptor));
        ctx.charge_dms(&cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;
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
        let widths = chunk_widths(&c, &[0, 1]);
        assert_eq!(RelationAccessor::stream(&mut ctx, widths, 1000, 256), 4);
        let expect =
            RelationAccessor::seq_read_cost(&ctx_e.cost_model, [4, 8].into_iter(), 1000, 256);
        assert_eq!(ctx.account.dms_cycles().get(), expect.cycles);
        // Three tiles of 256 rows and one of 232, 12 bytes a row, a
        // descriptor per column per tile; the control loop is the operator's.
        assert_eq!(ctx.account.counters().dms_bytes, 1000 * 12);
        assert_eq!(ctx.account.counters().dms_descriptors, 8);
        assert_eq!(ctx.account.counters().tiles, 0);
    }

    #[test]
    fn a_short_last_tile_is_charged_for_the_rows_it_holds() {
        let cm = CostModel::default();
        let cost = |rows| RelationAccessor::seq_write_cost(&cm, [4, 8].into_iter(), rows, 256);
        // Whole tiles are the loop of them; the rows past them are a tile
        // of their own: fewer bytes, the same descriptor set-up.
        assert_eq!(cost(512), cost(256).times(2));
        assert_eq!(cost(600).bytes, 600 * 12);
        assert_eq!(cost(600).descriptors, 6);
        assert!(cost(600).cycles < cost(768).cycles);
        // However a pass is cut into tile-aligned lanes, it moves the same.
        let lanes = cost(256).merged(&cost(256)).merged(&cost(88));
        assert_eq!(lanes.bytes, cost(600).bytes);
        assert_eq!(lanes.descriptors, cost(600).descriptors);
        let gathered = RelationAccessor::gather_cost(&cm, [4, 8].into_iter(), 600, 256);
        assert_eq!(gathered.bytes, 600 * 12);
        assert!(gathered.cycles > cost(600).cycles);
    }

    #[test]
    fn gather_charges_only_the_selected_rows() {
        let ctx_e = ExecContext::dpu();
        let mut ctx = crate::exec::CoreCtx::new(&ctx_e, 0);
        let c = chunk(100);
        let widths = chunk_widths(&c, &[1]);
        RelationAccessor::charge_gather(&mut ctx, widths.clone(), 0..100, RowSetKind::Bits, 10, 64);
        // Ten rows of the column plus the 100-bit row set in words.
        assert_eq!(ctx.account.counters().dms_bytes, 10 * 8 + 16);
        // Cut in two runs the bit-vector is the same two words: the first
        // ends in the run that holds bit 63, the second in the other.
        let mut cut = crate::exec::CoreCtx::new(&ctx_e, 0);
        for (within, kept) in [(0..40, 4), (40..100, 6)] {
            RelationAccessor::charge_gather(
                &mut cut,
                widths.clone(),
                within,
                RowSetKind::Bits,
                kept,
                64,
            );
        }
        assert_eq!(cut.account.counters().dms_bytes, 10 * 8 + 16);
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
