//! The partitioning operator: software partitioning on the dpCores.
//!
//! "RAPID combines hardware and software partitioning for efficiently
//! partitioning relations" (§5.4). This engine runs every round in
//! software: a dpCore computes the partition map of the rows it owns
//! (`compute_partition_map`) and gathers them partition by partition into
//! **local buffers in DMEM**, flushed to DRAM when they fill — turning
//! random partition writes into sequential ones. The DMS's own
//! partition-while-transfer engine is modelled beside Figure 8, its one
//! measurement (`rapid_report::hw_partition`), and no query stage drives it
//! yet.
//!
//! Every dpCore partitions at once, and what a core does to the rows it owns
//! is one step ([`RoundStep`]): it hashes them, computes their partition map
//! (Listing 2) and is charged their column gathers (Listing 3), the
//! sequential DMS write of them — after round one also the sequential read,
//! since its input is what the round before wrote to DRAM — and one
//! control-loop overhead per tile, the last tile for the rows it holds.
//! Round one of a join's probe side whose join declares a filter
//! ([`crate::ops::join_filter`]) tests each row's hash against it between
//! the hash and the map: a lane reads the whole filter from DRAM once and
//! maps, gathers and writes only the rows it keeps. Two kinds of lane take
//! that step:
//!
//! * **the lanes of a task.** Where round one of a pass is the last operator
//!   of the task that scans its input ([`crate::task`]), each lane of the
//!   task partitions *the rows it scanned* — read where they lie, through
//!   the scan's selection where it kept some, beside what a Map computed —
//!   as its last step ([`RoundStep::map_rows`]), holding the task's one
//!   working set, and [`scatter_lanes`] makes the partitions of all lanes'
//!   maps once the stage has returned, the map's row ids taken back to the
//!   rows' places in the tiles: Listing 3's gather reads each row once,
//!   and nothing compacted it before,
//! * **the lanes of a round over batches.** A round over what a join or a
//!   round before it materialized is a stage of its own: its input — the
//!   batches of the operator below, or the partitions the round before
//!   wrote — is cut into tiles, and `min(cores, tiles)` lanes each take a
//!   contiguous run of them under their own [`CoreCtx`], holding the
//!   double-buffered tile working set in DMEM and filling disjoint slices of
//!   one hash buffer, one row-id buffer and one histogram. Lanes are
//!   tile-aligned because the DMS moves tiles: any other cut would make more
//!   of them than one core streaming the input does.
//!
//! Either way, once all lanes are done the per-lane histograms give every
//! row its place, and each (partition, column) comes out as one vector with
//! rows in input order — on the chip it is the chain of the lanes'
//! local-buffer flushes.
//!
//! Multi-round schemes (§5.3): each round partitions every current
//! partition `fanout`-ways, so a scheme `[16, 4]` yields 64 partitions
//! after two passes over the data, with a barrier between rounds. A round's
//! fan-out is bounded by the local buffers that fit in DMEM
//! ([`crate::budget::max_buffered_fanout`]), sized — like the tile — from
//! the widths the columns arrive in ([`crate::plan::PlanNode::output_widths`]).

use dpu_sim::account::Kernel;
use std::ops::Range;

use crate::actor::{run_stage, StageTiming};
use crate::batch::{Batch, ColumnBuilder, Columns, Rows, Run};
use crate::budget::{self, partition_stream_bytes, working_set, Deal, BASE_STATE_BYTES, HASH_BITS};
use crate::error::{QefError, QefResult};
use crate::exec::{CoreCtx, ExecContext};
use crate::ops::join_filter::{self, JoinFilter};
use crate::ops::ranges::Radix;
use crate::primitives::costs;
use crate::primitives::hash::hash_pieces_into;
use crate::primitives::partition_map::compute_partition_map;
use crate::ra::RelationAccessor;
use crate::trace::{FilterKept, PartitionRound};
use rapid_storage::vector::Vector;

/// How many radix bits of the hash each round consumes, tracked so that
/// successive rounds use *disjoint* hash bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashBitCursor {
    /// Bits already consumed by earlier rounds.
    pub consumed: u32,
}

impl HashBitCursor {
    /// Take `bits` bits for a round, returning the shift to apply.
    pub fn take(&mut self, bits: u32) -> u32 {
        let shift = self.consumed;
        self.consumed += bits;
        assert!(
            self.consumed <= HASH_BITS,
            "hash bits exhausted; scheme too deep"
        );
        shift
    }
}

/// How a pass sends a row to a partition.
#[derive(Debug, Clone, Copy)]
pub enum Route<'a> {
    /// By the CRC32 hash of its keys: each round takes the hash bits above
    /// the rounds before it.
    Hash,
    /// By its one key's value bits (the DMS's radix partitioning, Figure
    /// 8): partition `r` of the pass's whole scheme, `scheme`, holds the keys
    /// of range `r` of the cut ([`Radix::range_of`]) — NULL keys the last.
    /// The range's digits are laid out so that each round, taking bits from
    /// the lowest, takes the most significant digit left: the partitions
    /// come out in range order. The code costs a row no more than the CRC
    /// it replaces.
    Radix(Radix, &'a [usize]),
}

impl Route<'_> {
    /// The code of every row of `runs` — `out.len()` of them — on `keys`,
    /// whose bits above a round's shift pick its partition: charged as the
    /// CRC.
    fn codes<'r>(
        &self,
        ctx: &mut CoreCtx,
        runs: impl Iterator<Item = Run<'r>> + Clone,
        keys: &[usize],
        out: &mut [u32],
    ) {
        let (radix, scheme) = match self {
            Route::Hash => {
                let keyed = runs.map(|run| keys.iter().map(move |&c| run.column(c)));
                return hash_pieces_into(ctx, keyed, out);
            }
            Route::Radix(radix, scheme) => (radix, scheme),
        };
        let mut at = 0;
        for run in runs {
            let (key, positions) = run.column(keys[0]);
            for i in positions.iter() {
                let value = (!key.is_null(i)).then(|| key.data.get_i64(i));
                out[at] = radix_code(radix.range_of(value), scheme);
                at += 1;
            }
        }
        ctx.charge_kernel(
            Kernel::Partition,
            &costs::hash_per_row_per_key().scaled(out.len() as f64),
        );
    }
}

/// The code of range `range` of a value-bit pass of `scheme`: its digits,
/// most significant first, in the bits the rounds take one after another
/// from the lowest ([`HashBitCursor`]).
fn radix_code(range: usize, scheme: &[usize]) -> u32 {
    let mut below: u32 = scheme.iter().map(|f| f.trailing_zeros()).sum();
    let mut code = 0;
    for (_, fanout, shift) in rounds(scheme) {
        below -= fanout.trailing_zeros();
        code |= (((range >> below) & (fanout - 1)) as u32) << shift;
    }
    code
}

/// What one round does to every row it is handed.
#[derive(Debug, Clone, Copy)]
pub struct RoundStep<'a> {
    /// Columns the rows are partitioned on.
    pub key_cols: &'a [usize],
    /// How a row's partition is found.
    pub route: Route<'a>,
    /// Partitions the round makes of each input: a power of two.
    pub fanout: usize,
    /// Hash bits earlier rounds consumed.
    pub shift: u32,
    /// Rows per tile.
    pub tile: usize,
    /// Whether the rows are read back from DRAM, where the round before
    /// wrote them, rather than handed on in DMEM or streamed by a scan.
    pub reads_back: bool,
    /// The join filter round one of a join's probe side tests every row
    /// against: only the rows it keeps are mapped, gathered and written.
    pub filter: Option<&'a JoinFilter>,
}

impl<'a> RoundStep<'a> {
    /// Round one of a pass, `fanout`-way, over rows its lane already holds,
    /// testing them against `filter` where the pass has one.
    pub fn first(
        (key_cols, route): (&'a [usize], Route<'a>),
        fanout: usize,
        tile: usize,
        filter: Option<&'a JoinFilter>,
    ) -> RoundStep<'a> {
        RoundStep {
            key_cols,
            route,
            fanout,
            shift: 0,
            tile: tile.max(1),
            reads_back: false,
            filter,
        }
    }

    /// Hash the rows of `runs` — `hashes.len()` of them — or code them by
    /// their key's value bits ([`Route`]), and compute their partition map
    /// (Listing 2) into `offsets` and `rids`, row ids counted
    /// from the first row of the first run; charge that, the column gathers
    /// of Listing 3, the sequential DMS write of the rows (and the read of
    /// them, where they come from DRAM) and a trip round the control loop
    /// per tile, the last one for the rows it holds. With a filter the rows
    /// are tested against it first, and only those it keeps are mapped,
    /// gathered and written: the map covers `offsets[fanout]` rows, and
    /// `hashes` is left as scratch.
    fn map<'r>(
        &self,
        ctx: &mut CoreCtx,
        runs: impl Iterator<Item = Run<'r>> + Clone,
        hashes: &mut [u32],
        offsets: &mut [u32],
        rids: &mut [u32],
    ) {
        let Some(first) = runs.clone().next() else {
            offsets.fill(0);
            return;
        };
        self.route.codes(ctx, runs, self.key_cols, hashes);
        let rows = hashes.len();
        let Some(filter) = self.filter else {
            compute_partition_map(ctx, hashes, self.fanout, self.shift, 0, offsets, rids);
            return self.charge_moved(ctx, first, rows, rows);
        };
        // The kept rows' hashes and ids go to the fronts of the buffers; the
        // map of the kept hashes numbers them in kept order, and their ids
        // take the numbers back to the lane's rows — kept where the hashes
        // of the dropped rows were, wherever there is room.
        let mapped = filter.keep(ctx, hashes, rids);
        let (kept_hashes, spare) = hashes.split_at_mut(mapped);
        let held;
        let ids: &[u32] = match spare.get_mut(..mapped) {
            Some(spare) => {
                spare.copy_from_slice(&rids[..mapped]);
                spare
            }
            None => {
                held = rids[..mapped].to_vec();
                &held
            }
        };
        let rids = &mut rids[..mapped];
        compute_partition_map(ctx, kept_hashes, self.fanout, self.shift, 0, offsets, rids);
        rids.iter_mut().for_each(|r| *r = ids[*r as usize]);
        self.charge_moved(ctx, first, rows, mapped);
    }

    /// Charge what a round does to `rows` rows of `first`'s layout once
    /// their map is computed, `mapped` of them kept: the column gathers of
    /// Listing 3 and the sequential DMS write of the kept rows, the read of
    /// all of them where they come from DRAM, and a trip round the control
    /// loop per tile of them.
    fn charge_moved(&self, ctx: &mut CoreCtx, first: Run<'_>, rows: usize, mapped: usize) {
        // Listing 3 and the flush of the local buffers it fills are this
        // core's work on the chip; `scatter` carries the copies out for all
        // lanes once their histograms have met.
        let cols = first.cols;
        let widths = (0..cols.width()).map(move |c| cols.column(c).data.width());
        for _ in 0..cols.width() {
            ctx.charge_kernel(
                Kernel::Partition,
                &costs::swpart_gather_per_row().scaled(mapped as f64),
            );
        }
        let cm = ctx.cost_model.clone();
        if self.reads_back {
            ctx.charge_dms(&RelationAccessor::seq_read_cost(
                &cm,
                widths.clone(),
                rows,
                self.tile,
            ));
        }
        ctx.charge_dms(&RelationAccessor::seq_write_cost(
            &cm, widths, mapped, self.tile,
        ));
        for _ in 0..rows.div_ceil(self.tile) {
            ctx.charge_tile();
        }
    }

    /// The step of a task's lane: the map of the rows the lane holds, as
    /// `fanout + 1` offsets followed by the row ids they index (and, behind
    /// them, the hash buffer the map was computed from). Empty for no rows. The
    /// round reads every column of the rows where they lie
    /// ([`Rows::charge_select`]): its keys to hash them, and each column
    /// once more in Listing 3's gather, which [`scatter_lanes`] carries out
    /// with the map's row ids taken back to the rows' places in the tiles.
    /// With a filter the lane reads all of it from DRAM first, and reads the
    /// keys of every row but the other columns of the rows it keeps only.
    pub fn map_rows(&self, ctx: &mut CoreCtx, rows: &Rows<'_>) -> Vec<u32> {
        if let Some(filter) = self.filter {
            filter.charge_read(ctx);
        }
        let n = rows.rows();
        if n == 0 {
            return Vec::new();
        }
        let mut map = vec![0; self.fanout + 1 + 2 * n];
        let (offsets, rest) = map.split_at_mut(self.fanout + 1);
        let (rids, hashes) = rest.split_at_mut(n);
        if self.filter.is_none() {
            rows.charge_select(ctx, 0..rows.width());
        }
        self.map(ctx, rows.runs(), hashes, offsets, rids);
        if self.filter.is_some() {
            let kept = offsets[self.fanout] as usize;
            rows.charge_select_of(ctx, self.key_cols.iter().copied(), n);
            rows.charge_select_of(ctx, 0..rows.width(), kept);
        }
        map
    }
}

/// The partitions a task's lanes made in round one: every lane's rows and
/// its [`RoundStep::map_rows`] of them, in lane order. One batch per
/// partition, rows in table order.
pub fn scatter_lanes(fanout: usize, lanes: &[(Rows<'_>, Vec<u32>)]) -> Vec<Batch> {
    let mapped: Vec<Mapped<'_>> = lanes
        .iter()
        .map(|(rows, map)| {
            let (offsets, rest) = map.split_at(map.len().min(fanout + 1));
            Mapped {
                segment: 0,
                offsets,
                rids: &rest[..rows.rows().min(rest.len())],
            }
        })
        .collect();
    scatter(fanout, 1, &mapped, |lane| lanes[lane].0.runs())
}

/// Column `c` of the rows of `rows` at `positions` — ascending, repeats
/// allowed, numbered in the order the runs hand them on — as a vector of the
/// lane's own: what a join writes of a probe column.
pub(crate) fn gather_column(rows: &Rows<'_>, positions: &[u32], c: usize) -> Vector {
    let mut column = ColumnBuilder::default();
    append_at(&mut column, rows.runs(), positions, c, positions.len());
    column.finish()
}

/// Append to `column` column `c` of the rows of `runs` that `ids` number —
/// ascending, counted from the first row of the first run — for a column of
/// `capacity` values.
fn append_at<'r>(
    column: &mut ColumnBuilder,
    runs: impl Iterator<Item = Run<'r>>,
    ids: &[u32],
    c: usize,
    capacity: usize,
) {
    let (mut rest, mut at) = (ids, 0);
    for run in runs {
        if rest.is_empty() {
            break;
        }
        // The ids ascend, so those of one run are a run of their own.
        let end = at + run.len();
        let of_run;
        (of_run, rest) = rest.split_at(rest.partition_point(|&r| (r as usize) < end));
        let (of_cols, places) = run.column(c);
        let of_run = of_run.iter().map(|&r| places.get(r as usize - at));
        column.append(of_cols, of_run, capacity);
        at = end;
    }
}

/// One slice's share of a round's output: where the map sends its rows.
#[derive(Debug)]
struct Mapped<'m> {
    segment: usize,
    /// `fanout + 1` running offsets into `rids`; none for no rows.
    offsets: &'m [u32],
    /// The slice's row ids grouped by partition, counted from its first row.
    rids: &'m [u32],
}

/// Listing 3 for every lane at once: gather each projected column
/// partition by partition along the slices' row-id lists, writing every
/// partition's rows sequentially, once. `runs_of(k)` are the rows slice `k`
/// mapped, where they lie. One batch per (segment, partition),
/// segment-major, rows in input order; an empty partition is an empty batch.
fn scatter<'r, R>(
    fanout: usize,
    segments: usize,
    slices: &[Mapped<'_>],
    runs_of: impl Fn(usize) -> R,
) -> Vec<Batch>
where
    R: Iterator<Item = Run<'r>>,
{
    // Partition `p`'s row ids within slice `k`.
    let part = |k: usize, p: usize| match slices[k].offsets {
        [] => &[][..],
        o => &slices[k].rids[o[p] as usize..o[p + 1] as usize],
    };
    let mut out = Vec::with_capacity(segments * fanout);
    let mut k = 0;
    for segment in 0..segments {
        let of_segment = slices[k..]
            .iter()
            .take_while(|s| s.segment == segment)
            .count();
        let slices = k..k + of_segment;
        k = slices.end;
        // A lane whose scan kept no row left its chain early and still sees
        // the scan's columns: the layout is that of a run that holds rows.
        let width = slices
            .clone()
            .flat_map(&runs_of)
            .find(|run| !run.is_empty())
            .map_or(0, |run| run.cols.width());
        for p in 0..fanout {
            let rows: usize = slices.clone().map(|k| part(k, p).len()).sum();
            if rows == 0 {
                out.push(Batch::empty(0));
                continue;
            }
            let columns = (0..width).map(|c| {
                let mut column = ColumnBuilder::default();
                for k in slices.clone() {
                    append_at(&mut column, runs_of(k), part(k, p), c, rows);
                }
                column.finish()
            });
            out.push(Batch::new(columns.collect()));
        }
    }
    out
}

/// A tile-aligned run of rows of one segment, owned by one lane.
#[derive(Debug)]
struct Slice {
    lane: usize,
    segment: usize,
    /// Row ids, in the round's row-id space (all pieces back to back).
    rows: Range<usize>,
    /// The piece holding `rows.start`.
    first_piece: usize,
}

/// What every lane of a round over batches reads.
#[derive(Debug)]
struct Plan<'a> {
    /// The non-empty batches of every segment, in order, read in place.
    pieces: Vec<&'a Batch>,
    /// `starts[i]..starts[i + 1]` are the row ids of `pieces[i]`.
    starts: Vec<usize>,
    /// Segments of the input.
    segments: usize,
    slices: Vec<Slice>,
    step: RoundStep<'a>,
    /// DMEM a lane holds while it streams: state plus the tile buffers.
    working_set: usize,
}

impl<'a> Plan<'a> {
    /// The rows of `slice`, piece by piece.
    fn runs_of(&self, slice: &Slice) -> impl Iterator<Item = Run<'a>> + Clone + '_ {
        let rows = slice.rows.clone();
        (slice.first_piece..self.pieces.len())
            .map(move |i| {
                let base = self.starts[i];
                let of_piece = rows.start.max(base)..rows.end.min(self.starts[i + 1]);
                Run {
                    cols: Columns::Batch(self.pieces[i]),
                    rows: of_piece.start.saturating_sub(base)..of_piece.end.saturating_sub(base),
                    picked: None,
                    written_at: 0,
                }
            })
            .take_while(|run| !run.rows.is_empty())
    }
}

/// One round of partitioning over batches: every **segment** (one logical
/// input, its batches laid back to back) is split `fanout` ways by the hash
/// bits above `shift`. Built by [`Round::plan`], executed by running every
/// [`Lane`] of [`Round::lanes`] — in any order, on any cores — and turned
/// into the partitions by [`Round::finish`].
#[derive(Debug)]
struct Round<'a> {
    plan: Plan<'a>,
    hashes: Vec<u32>,
    /// Per slice, its rows' ids grouped by partition (the gather lists).
    rids: Vec<u32>,
    /// Per slice, `fanout + 1` running offsets into its run of `rids`.
    offsets: Vec<u32>,
}

/// The work of one dpCore in a round: its slices (at least one) of the
/// plan and of the round's buffers.
#[derive(Debug)]
struct Lane<'r, 'a> {
    plan: &'r Plan<'a>,
    slices: &'r [Slice],
    hashes: &'r mut [u32],
    rids: &'r mut [u32],
    offsets: &'r mut [u32],
}

/// What a round splits.
#[derive(Debug, Clone, Copy)]
enum Input<'a> {
    /// The batches of one logical input: one segment (round one).
    Whole(&'a [Batch]),
    /// The partitions an earlier round wrote: a segment each.
    Each(&'a [Batch]),
}

impl<'a> Input<'a> {
    /// Round one reads the input batches where they are; later rounds split
    /// each partition the round before wrote.
    fn of_round(round: usize, current: &'a [Batch]) -> Self {
        if round == 0 {
            Input::Whole(current)
        } else {
            Input::Each(current)
        }
    }
}

impl<'a> Round<'a> {
    /// Cut the input's segments into tiles — a segment's last tile may be
    /// short, as the DMS writes it — and deal the tiles, in order, to the
    /// lanes [`Deal::of_segments`] gives `cores`: tiles of `tile` rows where
    /// they fill every core or each lane reads `filter` from DRAM, else
    /// equal shares over as many cores as the rows feed. Each lane holds
    /// what the round declares at `tile` — `filter` too, where the round
    /// tests its rows against one.
    #[allow(clippy::too_many_arguments)]
    fn plan(
        input: Input<'a>,
        (key_cols, route): (&'a [usize], Route<'a>),
        fanout: usize,
        shift: u32,
        tile: usize,
        cores: usize,
        dmem_bytes: usize,
        filter: Option<&'a JoinFilter>,
    ) -> Round<'a> {
        debug_assert!(fanout.is_power_of_two());
        let tile = tile.max(1);
        let mut pieces: Vec<&Batch> = Vec::new();
        let mut starts = vec![0];
        let mut segments: Vec<Range<usize>> = Vec::new();
        let mut add_segment = |batches: &'a [Batch]| {
            let first = pieces.len();
            for b in batches.iter().filter(|b| !b.is_empty()) {
                starts.push(starts[pieces.len()] + b.rows());
                pieces.push(b);
            }
            segments.push(first..pieces.len());
        };
        match input {
            Input::Whole(batches) => add_segment(batches),
            Input::Each(partitions) => partitions.chunks(1).for_each(add_segment),
        }
        let rows_of = |s: &Range<usize>| starts[s.end] - starts[s.start];
        // A lane holds what the round declares at its tile, and streams at
        // the tile the deal cuts.
        let declared = tile;
        // Lanes that read a join filter from DRAM keep whole tiles.
        let shares = !filter.is_some_and(JoinFilter::in_dram);
        let deal = Deal::of_segments(segments.iter().map(rows_of), tile, cores, shares);
        let tile = deal.tile;
        let tiles_of = |s: &Range<usize>| rows_of(s).div_ceil(tile);
        let (tiles, lanes) = (deal.tiles, deal.lanes);
        let mut slices = Vec::with_capacity(lanes + segments.len());
        // The lanes own the round's tiles in order ([`budget::lane_tiles`]).
        let owned_to = |lane: usize| budget::lane_tiles(lane, lanes, tiles).end;
        let (mut lane, mut t) = (0, 0);
        for (segment, of_segment) in segments.iter().enumerate() {
            let (mut piece, mut start) = (of_segment.start, starts[of_segment.start]);
            let (seg_end, rows_end) = (t + tiles_of(of_segment), starts[of_segment.end]);
            while t < seg_end {
                while t >= owned_to(lane) {
                    lane += 1;
                }
                let upto = seg_end.min(owned_to(lane));
                let end = rows_end.min(start + (upto - t) * tile);
                while starts[piece + 1] <= start {
                    piece += 1;
                }
                slices.push(Slice {
                    lane,
                    segment,
                    rows: start..end,
                    first_piece: piece,
                });
                (t, start) = (upto, end);
            }
        }
        let row_bytes: usize = pieces
            .first()
            .map_or(0, |b| b.columns.iter().map(|c| c.data.width()).sum());
        Round {
            hashes: vec![0; starts[pieces.len()]],
            rids: vec![0; starts[pieces.len()]],
            offsets: vec![0; slices.len() * (fanout + 1)],
            plan: Plan {
                step: RoundStep {
                    key_cols,
                    route,
                    fanout,
                    shift,
                    tile,
                    reads_back: matches!(input, Input::Each(_)),
                    filter,
                },
                // What the tile was sized from: state — the filter too —
                // plus the tile buffers of every column and the hash lane.
                working_set: working_set(
                    BASE_STATE_BYTES + filter.map_or(0, |f| join_filter::bytes(f.bits())),
                    partition_stream_bytes(row_bytes),
                    declared,
                    dmem_bytes,
                ),
                segments: segments.len(),
                pieces,
                starts,
                slices,
            },
        }
    }

    /// The round's lanes, each with its own part of the shared buffers.
    fn lanes(&mut self) -> Vec<Lane<'_, 'a>> {
        let plan = &self.plan;
        let stride = plan.step.fanout + 1;
        let (mut hashes, mut rids, mut offsets) = (
            self.hashes.as_mut_slice(),
            self.rids.as_mut_slice(),
            self.offsets.as_mut_slice(),
        );
        let mut lanes = Vec::with_capacity(plan.slices.last().map_or(0, |s| s.lane + 1));
        for slices in plan.slices.chunk_by(|a, b| a.lane == b.lane) {
            let rows: usize = slices.iter().map(|s| s.rows.len()).sum();
            let (h, r, o);
            (h, hashes) = std::mem::take(&mut hashes).split_at_mut(rows);
            (r, rids) = std::mem::take(&mut rids).split_at_mut(rows);
            (o, offsets) = std::mem::take(&mut offsets).split_at_mut(slices.len() * stride);
            lanes.push(Lane {
                plan,
                slices,
                hashes: h,
                rids: r,
                offsets: o,
            });
        }
        lanes
    }

    /// The partitions: [`scatter`] along every slice's map.
    fn finish(self) -> Vec<Batch> {
        let Round {
            plan,
            rids,
            offsets,
            ..
        } = self;
        let stride = plan.step.fanout + 1;
        let mapped: Vec<Mapped<'_>> = plan
            .slices
            .iter()
            .zip(offsets.chunks_exact(stride))
            .map(|(slice, offsets)| Mapped {
                segment: slice.segment,
                offsets,
                rids: &rids[slice.rows.clone()],
            })
            .collect();
        scatter(plan.step.fanout, plan.segments, &mapped, |k| {
            plan.runs_of(&plan.slices[k])
        })
    }
}

impl Lane<'_, '_> {
    /// Stream the lane's tiles: hash, map, and the charges of the gather
    /// and the local-buffer flushes, slice by slice — after the read of the
    /// round's filter, where it tests its rows against one.
    fn run(self, ctx: &mut CoreCtx) -> QefResult<()> {
        let plan = self.plan;
        let _buffers = ctx.dmem.reserve_raw(plan.working_set)?;
        if let Some(filter) = plan.step.filter {
            filter.charge_read(ctx);
        }
        let at = self.slices[0].rows.start;
        for (slice, offsets) in self
            .slices
            .iter()
            .zip(self.offsets.chunks_exact_mut(plan.step.fanout + 1))
        {
            let own = slice.rows.start - at..slice.rows.end - at;
            let hashes = &mut self.hashes[own.clone()];
            plan.step.map(
                ctx,
                plan.runs_of(slice),
                hashes,
                offsets,
                &mut self.rids[own],
            );
        }
        Ok(())
    }
}

/// Reject malformed schemes up front with a typed error instead of letting
/// the bit cursor's invariant assert mid-partitioning: every round must be
/// a power of two and the rounds together may consume at most the hash's
/// [`HASH_BITS`] (the static verifier additionally reserves the top
/// [`SKEW_RESERVED_BITS`](crate::budget::SKEW_RESERVED_BITS) for skew
/// re-partitioning; by the time a scheme reaches this operator the hard
/// limit is the hash width itself).
pub(crate) fn check_scheme(scheme: &[usize]) -> QefResult<()> {
    if let Some(&bad) = scheme.iter().find(|f| !f.is_power_of_two()) {
        return Err(QefError::BadPlan(format!(
            "partition scheme {scheme:?} has non-power-of-two fan-out {bad}"
        )));
    }
    let total_bits: u32 = scheme.iter().map(|f| f.trailing_zeros()).sum();
    if total_bits > HASH_BITS {
        return Err(QefError::BadPlan(format!(
            "partition scheme {scheme:?} consumes {total_bits} hash bits ({HASH_BITS} available)"
        )));
    }
    Ok(())
}

/// One round on this core alone: the single lane of the round's plan.
fn round_on_core(
    ctx: &mut CoreCtx,
    input: Input<'_>,
    keys: (&[usize], Route<'_>),
    (fanout, shift): (usize, u32),
    tile: usize,
    filter: Option<&JoinFilter>,
) -> QefResult<Vec<Batch>> {
    let dmem = ctx.dmem.capacity();
    let mut round = Round::plan(input, keys, fanout, shift, tile, 1, dmem, filter);
    for lane in round.lanes() {
        lane.run(ctx)?;
    }
    Ok(round.finish())
}

/// Partition a set of batches — one logical input, read in place — into
/// `fanout` partitions by the hash of `key_cols`, consuming hash bits at
/// `shift`, on this core alone (a join kernel splitting a skewed pair).
/// Returns one batch per partition, rows in input order (empty partitions
/// produce empty batches).
pub fn partition_batches(
    ctx: &mut CoreCtx,
    batches: &[Batch],
    key_cols: &[usize],
    fanout: usize,
    shift: u32,
    tile: usize,
) -> QefResult<Vec<Batch>> {
    let (keys, round) = ((key_cols, Route::Hash), (fanout, shift));
    round_on_core(ctx, Input::Whole(batches), keys, round, tile, None)
}

/// The rounds of `scheme`: each one's number, fan-out and the hash bits it
/// starts at.
fn rounds(scheme: &[usize]) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
    let mut cursor = HashBitCursor::default();
    scheme
        .iter()
        .enumerate()
        .map(move |(round, &fanout)| (round, fanout, cursor.take(fanout.trailing_zeros())))
}

/// Apply a multi-round partition scheme on this core alone, producing
/// `scheme.product()` partitions. Round `r` splits every partition of
/// round `r-1`.
pub fn partition_scheme(
    ctx: &mut CoreCtx,
    batches: Vec<Batch>,
    key_cols: &[usize],
    scheme: &[usize],
    tile: usize,
) -> QefResult<Vec<Batch>> {
    scheme_on_core(ctx, batches, (key_cols, Route::Hash), scheme, tile, None)
}

/// [`partition_scheme`] routed by `keys`' route, round one testing its rows
/// against `filter`.
fn scheme_on_core(
    ctx: &mut CoreCtx,
    batches: Vec<Batch>,
    keys: (&[usize], Route<'_>),
    scheme: &[usize],
    tile: usize,
    filter: Option<&JoinFilter>,
) -> QefResult<Vec<Batch>> {
    check_scheme(scheme)?;
    if scheme.is_empty() {
        return Ok(vec![Batch::concat(batches)]);
    }
    let mut current = batches;
    for (round, fanout, shift) in rounds(scheme) {
        let input = Input::of_round(round, &current);
        let filter = filter.filter(|_| round == 0);
        current = round_on_core(ctx, input, keys, (fanout, shift), tile, filter)?;
    }
    Ok(current)
}

/// What `filter` kept of `tested` rows, where round one tested them against
/// one: the rows of the partitions `kept` that it and the rounds after it
/// made, which drop none.
pub(crate) fn filtered(
    filter: Option<&JoinFilter>,
    tested: usize,
    kept: &[Batch],
) -> Option<FilterKept> {
    filter.map(|_| FilterKept {
        tested: tested as u64,
        kept: kept.iter().map(|b| b.rows() as u64).sum(),
    })
}

/// A partition pass across the context's cores: every round of `scheme` is
/// one stage of `min(cores, tiles)` lanes, reported to `stage_done` with
/// its place in the pass — and, where round one tested its rows against
/// `filter`, what it kept of them — when its barrier is reached. An input
/// of at most one tile has no second lane to feed in its first round and
/// runs all its rounds as one item on one core, a single stage.
pub fn partition_pass(
    ectx: &ExecContext,
    batches: Vec<Batch>,
    keys: (&[usize], Route<'_>),
    scheme: &[usize],
    tile: usize,
    filter: Option<&JoinFilter>,
    mut stage_done: impl FnMut(&StageTiming, PartitionRound, Option<FilterKept>),
) -> QefResult<Vec<Batch>> {
    check_scheme(scheme)?;
    let rows: usize = batches.iter().map(Batch::rows).sum();
    if rows <= tile || scheme.is_empty() {
        let (mut parts, t) = run_stage(ectx, vec![batches], |core, batches| {
            scheme_on_core(core, batches, keys, scheme, tile, filter)
        })?;
        let parts = parts
            .pop()
            .ok_or_else(|| QefError::Internal("partition stage lost its output".into()))?;
        let whole = PartitionRound {
            round: 1,
            rounds: 1,
            fanout: scheme.iter().product::<usize>() as u32,
        };
        stage_done(&t, whole, filtered(filter, rows, &parts));
        return Ok(parts);
    }
    rounds_from(0, ectx, batches, keys, scheme, tile, filter, stage_done)
}

/// The rounds of a pass after the first, over the partitions `first` that
/// round one — the step of a task's lanes ([`RoundStep::map_rows`]) — wrote
/// to DRAM: a stage each, as in [`partition_pass`].
pub fn partition_rounds_after(
    ectx: &ExecContext,
    first: Vec<Batch>,
    keys: (&[usize], Route<'_>),
    scheme: &[usize],
    tile: usize,
    mut stage_done: impl FnMut(&StageTiming, PartitionRound),
) -> QefResult<Vec<Batch>> {
    let done = |t: &StageTiming, round, _| stage_done(t, round);
    rounds_from(1, ectx, first, keys, scheme, tile, None, done)
}

/// Rounds `from..` of `scheme` over `current`, what the round before left,
/// round one testing its rows against `filter`.
#[allow(clippy::too_many_arguments)]
fn rounds_from(
    from: usize,
    ectx: &ExecContext,
    mut current: Vec<Batch>,
    keys: (&[usize], Route<'_>),
    scheme: &[usize],
    tile: usize,
    filter: Option<&JoinFilter>,
    mut stage_done: impl FnMut(&StageTiming, PartitionRound, Option<FilterKept>),
) -> QefResult<Vec<Batch>> {
    for (nth, fanout, shift) in rounds(scheme).skip(from) {
        let filter = filter.filter(|_| nth == 0);
        let mut round = Round::plan(
            Input::of_round(nth, &current),
            keys,
            fanout,
            shift,
            tile,
            ectx.cores,
            ectx.dmem_bytes,
            filter,
        );
        let (_, t) = run_stage(ectx, round.lanes(), |core, lane| lane.run(core))?;
        let next = round.finish();
        let nth_of = PartitionRound {
            round: nth as u32 + 1,
            rounds: scheme.len() as u32,
            fanout: fanout as u32,
        };
        let tested = current.iter().map(Batch::rows).sum();
        stage_done(&t, nth_of, filtered(filter, tested, &next));
        current = next;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CoreCtx, ExecContext};
    use rapid_storage::bitvec::BitVec;
    use rapid_storage::vector::{ColumnData, Vector};

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    fn batch(n: i64) -> Batch {
        Batch::new(vec![
            Vector::new(ColumnData::I64((0..n).collect())),
            Vector::new(ColumnData::I64((0..n).map(|i| i * 100).collect())),
        ])
    }

    #[test]
    fn partitions_cover_all_rows_exactly_once() {
        let mut c = ctx();
        let parts = partition_batches(&mut c, &[batch(10_000)], &[0], 16, 0, 256).unwrap();
        assert_eq!(parts.len(), 16);
        let total: usize = parts.iter().map(Batch::rows).sum();
        assert_eq!(total, 10_000);
        let mut all_keys: Vec<i64> = parts
            .iter()
            .flat_map(|p| p.column(0).data.to_i64_vec())
            .collect();
        all_keys.sort_unstable();
        assert_eq!(all_keys, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn rows_keep_column_alignment() {
        let mut c = ctx();
        let parts = partition_batches(&mut c, &[batch(5000)], &[0], 8, 0, 256).unwrap();
        for p in &parts {
            for i in 0..p.rows() {
                assert_eq!(
                    p.column(1).data.get_i64(i),
                    p.column(0).data.get_i64(i) * 100
                );
            }
        }
    }

    #[test]
    fn same_key_lands_in_same_partition() {
        let mut c = ctx();
        let keys = vec![42i64; 1000];
        let b = Batch::new(vec![Vector::new(ColumnData::I64(keys))]);
        let parts = partition_batches(&mut c, &[b], &[0], 32, 0, 256).unwrap();
        let nonempty: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(nonempty.len(), 1);
        assert_eq!(parts[nonempty[0]].rows(), 1000);
    }

    #[test]
    fn a_value_bit_pass_writes_range_r_to_partition_r_over_any_rounds() {
        // Keys from -50 to 1,049, one in seven NULL: a cut of `[0, 999]`
        // into 32 ranges, through one round and through two.
        let keys: Vec<i64> = (0..1100).map(|i| i - 50).collect();
        let nulls = BitVec::from_bools((0..1100).map(|i| i % 7 == 3));
        let b = Batch::new(vec![
            Vector::with_nulls(ColumnData::I64(keys), nulls),
            Vector::new(ColumnData::I64((0..1100).collect())),
        ]);
        let t = {
            use rapid_storage::schema::{Field, Schema};
            use rapid_storage::table::TableBuilder;
            use rapid_storage::types::{DataType, Value};
            let mut builder =
                TableBuilder::new("t", Schema::new(vec![Field::new("k", DataType::Int)]));
            for k in 0..1000 {
                builder.push_row(vec![Value::Int(k)]);
            }
            builder.finish()
        };
        let list = crate::ops::filter::ChunkList::all(&t.chunks);
        let radix = Radix::of(list, 0, 32);
        for scheme in [vec![32], vec![8, 4], vec![2, 4, 4]] {
            let parts = scheme_on_core(
                &mut ctx(),
                vec![b.clone()],
                (&[0], Route::Radix(radix, &scheme)),
                &scheme,
                64,
                None,
            )
            .unwrap();
            assert_eq!(parts.len(), 32, "{scheme:?}");
            let mut seen = 0;
            for (p, part) in parts.iter().enumerate() {
                for i in 0..part.rows() {
                    let v = part.column(0);
                    let key = (!v.is_null(i)).then(|| v.data.get_i64(i));
                    assert_eq!(radix.range_of(key), p, "{scheme:?}: {key:?}");
                    seen += 1;
                }
            }
            assert_eq!(seen, 1100, "{scheme:?}");
        }
    }

    #[test]
    fn multi_round_scheme_uses_disjoint_bits() {
        let mut c = ctx();
        // 8 x 4 = 32 partitions over two rounds.
        let parts = partition_scheme(&mut c, vec![batch(20_000)], &[0], &[8, 4], 256).unwrap();
        assert_eq!(parts.len(), 32);
        let total: usize = parts.iter().map(Batch::rows).sum();
        assert_eq!(total, 20_000);
        // Two-round result must equal a single 32-way round on the same
        // hash bits (rounds consume disjoint bit ranges of one hash).
        let mut c2 = ctx();
        let flat = partition_batches(&mut c2, &[batch(20_000)], &[0], 32, 0, 256).unwrap();
        // Partition p of flat = partition (p%8 -> round1, p/8 -> round2):
        // round 1 uses low 3 bits, round 2 the next 2 bits, so flat index
        // bits [0..3) select the round-1 bucket and bits [3..5) round-2.
        for (p, fp) in flat.iter().enumerate() {
            let nested = &parts[(p & 7) * 4 + (p >> 3)];
            let mut a = fp.column(0).data.to_i64_vec();
            let mut b = nested.column(0).data.to_i64_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "partition {p}");
        }
    }

    #[test]
    fn multi_key_partitioning() {
        let mut c = ctx();
        let b = Batch::new(vec![
            Vector::new(ColumnData::I64((0..1000).map(|i| i % 10).collect())),
            Vector::new(ColumnData::I64((0..1000).map(|i| i / 10).collect())),
        ]);
        let parts = partition_batches(&mut c, &[b], &[0, 1], 16, 0, 256).unwrap();
        let total: usize = parts.iter().map(Batch::rows).sum();
        assert_eq!(total, 1000);
        // Each distinct (k1,k2) pair must land in exactly one partition.
        use std::collections::HashMap;
        let mut seen: HashMap<(i64, i64), usize> = HashMap::new();
        for (p, part) in parts.iter().enumerate() {
            for i in 0..part.rows() {
                let key = (
                    part.column(0).data.get_i64(i),
                    part.column(1).data.get_i64(i),
                );
                if let Some(&prev) = seen.get(&key) {
                    assert_eq!(prev, p, "pair {key:?} split across partitions");
                } else {
                    seen.insert(key, p);
                }
            }
        }
    }

    #[test]
    fn malformed_schemes_are_typed_errors_not_panics() {
        use crate::error::QefError;
        let mut c = ctx();
        let e = partition_scheme(&mut c, vec![batch(100)], &[0], &[3], 64);
        assert!(matches!(e, Err(QefError::BadPlan(m)) if m.contains("non-power-of-two")));
        let deep: Vec<usize> = vec![1024; 4]; // 40 hash bits
        let e = partition_scheme(&mut c, vec![batch(100)], &[0], &deep, 64);
        assert!(matches!(e, Err(QefError::BadPlan(m)) if m.contains("hash bits")));
    }

    #[test]
    fn gather_reorders_by_partition_across_pieces() {
        // Rows 0..3 in the first piece, 3..5 in the second (row 4 NULL).
        let piece = |keys: Vec<i64>, values: Vector| {
            Batch::new(vec![Vector::new(ColumnData::I64(keys)), values])
        };
        let first = piece(
            vec![0, 1, 2],
            Vector::new(ColumnData::I64(vec![10, 20, 30])),
        );
        let second = piece(
            vec![3, 4],
            Vector::with_nulls(
                ColumnData::I64(vec![40, 0]),
                BitVec::from_bools([false, true]),
            ),
        );
        let part_of = |key: i64| (dpu_sim::crc32::hash_u64(key as u64) & 1) as usize;
        let mut expect = [Vec::new(), Vec::new()];
        for (key, value) in [Some(10), Some(20), Some(30), Some(40), None]
            .into_iter()
            .enumerate()
        {
            expect[part_of(key as i64)].push(value);
        }
        let mut c = ctx();
        let parts = partition_batches(&mut c, &[first, second], &[0], 2, 0, 256).unwrap();
        for (part, expect) in parts.iter().zip(&expect) {
            let values = part.column(1);
            let got: Vec<_> = (0..part.rows()).map(|i| values.get(i)).collect();
            assert_eq!(&got, expect);
        }
        let clear = 1 - part_of(4);
        assert!(
            !parts[clear].column(1).has_nulls(),
            "an all-clear bitmap is dropped"
        );
    }

    #[test]
    fn a_tile_that_does_not_fit_dmem_is_a_typed_error() {
        // Two 8-byte columns and the hash lane: 20 B a row. 64 rows fit a
        // 4 KiB scratchpad double-buffered, 128 single-buffered, 256 not.
        let small = ExecContext {
            dmem_bytes: 4096,
            ..ExecContext::dpu()
        };
        let peak = |tile: usize| {
            let mut c = CoreCtx::new(&small, 0);
            partition_batches(&mut c, &[batch(1000)], &[0], 4, 0, tile).map(|_| c.dmem.peak())
        };
        assert_eq!(peak(64).unwrap(), BASE_STATE_BYTES + 2 * 20 * 64);
        assert_eq!(peak(128).unwrap(), BASE_STATE_BYTES + 20 * 128);
        assert!(matches!(peak(256), Err(QefError::DmemExhausted(_))));
        // Across cores the stage reports what each lane held.
        let mut peaks = Vec::new();
        partition_pass(
            &small,
            vec![batch(1000)],
            (&[0], Route::Hash),
            &[4],
            64,
            None,
            |t, _, _| peaks.push((t.parallelism, t.dmem_peak)),
        )
        .unwrap();
        assert_eq!(peaks, [(16, (BASE_STATE_BYTES + 2 * 20 * 64) as u64)]);
    }

    #[test]
    fn a_filtered_round_charges_its_test_and_the_rows_it_keeps() {
        use crate::batch::Rows;
        use crate::ops::join_filter::{self, JoinFilter};
        use crate::primitives::hash::hash_rows;
        let (fanout, tile, bits) = (8, 256, 8 * 1024);
        // The filter over every third key, built by the lanes of the build
        // side's round one.
        let build = Batch::new(vec![Vector::new(ColumnData::I64(
            (0..1000).step_by(3).collect(),
        ))]);
        let parts = partition_batches(&mut ctx(), &[build], &[0], fanout, 0, tile).unwrap();
        let mut words = vec![0; bits / 64];
        for (part, slice) in parts.iter().zip(words.chunks_mut(bits / 64 / fanout)) {
            let part = [Run::of_batch(part)];
            join_filter::build_slice(&mut ctx(), part, &[0], &[8], slice, tile).unwrap();
        }
        let filter = JoinFilter::of_slices(words, fanout, 334);
        let probe = batch(1000);
        let mut got = ctx();
        let step = RoundStep::first((&[0], Route::Hash), fanout, tile, Some(&filter));
        let map = step.map_rows(&mut got, &Rows::Owned(probe.clone()));

        // The reference: the lane's read of the filter, the hash and test of
        // every row, then the map, gather and write of the rows it keeps,
        // and a trip round the control loop a tile.
        let mut expect = ctx();
        let cm = expect.cost_model.clone();
        expect.charge_dms(&join_filter::read_cost(&cm, bits));
        let hashes = hash_rows(&mut expect, &[probe.column(0)]);
        let kept: Vec<u32> = (0..1000)
            .filter(|&i| filter.may_match(hashes[i as usize]))
            .collect();
        expect.charge_kernel(
            Kernel::Join,
            &costs::join_filter_test_per_row().scaled(1000.0),
        );
        let kept_hashes: Vec<u32> = kept.iter().map(|&i| hashes[i as usize]).collect();
        let (mut offsets, mut rids) = (vec![0; fanout + 1], vec![0; kept.len()]);
        compute_partition_map(
            &mut expect,
            &kept_hashes,
            fanout,
            0,
            0,
            &mut offsets,
            &mut rids,
        );
        for _ in 0..2 {
            let gather = costs::swpart_gather_per_row().scaled(kept.len() as f64);
            expect.charge_kernel(Kernel::Partition, &gather);
        }
        expect.charge_dms(&RelationAccessor::seq_write_cost(
            &cm,
            [8, 8].into_iter(),
            kept.len(),
            tile,
        ));
        for _ in 0..1000usize.div_ceil(tile) {
            expect.charge_tile();
        }
        assert_eq!(got.account.counters(), expect.account.counters());
        assert_eq!(
            got.account.compute_cycles().get().to_bits(),
            expect.account.compute_cycles().get().to_bits()
        );
        assert_eq!(
            got.account.dms_cycles().get().to_bits(),
            expect.account.dms_cycles().get().to_bits()
        );
        // The map covers the kept rows, by their ids among all the lane's.
        assert_eq!(map[..=fanout], offsets[..]);
        let ids: Vec<u32> = rids.iter().map(|&r| kept[r as usize]).collect();
        assert_eq!(map[fanout + 1..][..kept.len()], ids[..]);
        // Every row that joins is among them, and few others are.
        assert!((0..1000).step_by(3).all(|i| kept.contains(&i)));
        assert!(kept.len() < 334 + 100, "{} kept", kept.len());
    }

    #[test]
    fn empty_input() {
        let mut c = ctx();
        let parts = partition_batches(&mut c, &[], &[0], 4, 0, 64).unwrap();
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(Batch::is_empty));
    }
}

#[cfg(test)]
mod proptests {
    //! The scatter against its definition — concatenate the input, compute
    //! the partition map, gather each partition — on one core and on many.

    use super::*;
    use crate::primitives::hash::hash_rows;
    use dpu_sim::account::{Counters, CycleAccount};
    use proptest::prelude::*;
    use rapid_storage::bitvec::BitVec;
    use rapid_storage::vector::{ColumnData, Vector};

    /// One input row: key, payload seed, and a roll that makes a value NULL.
    type Row = (i64, i64, u8);

    /// A batch of `rows`: two columns, or eight covering every physical
    /// width. NULLs land in key and payload columns alike.
    fn batch(rows: &[Row], wide: bool) -> Batch {
        if rows.is_empty() {
            return Batch::empty(0);
        }
        let col = |data: ColumnData, null_when: u8| {
            Vector::with_nulls(
                data,
                BitVec::from_bools(rows.iter().map(|r| r.2 == null_when)),
            )
        };
        let mut cols = vec![
            col(ColumnData::I64(rows.iter().map(|r| r.0).collect()), 0),
            col(
                ColumnData::I32(rows.iter().map(|r| r.1 as i32).collect()),
                1,
            ),
        ];
        if wide {
            cols.extend([
                col(ColumnData::I8(rows.iter().map(|r| r.1 as i8).collect()), 2),
                col(
                    ColumnData::I16(rows.iter().map(|r| r.0 as i16).collect()),
                    3,
                ),
                col(
                    ColumnData::I16(rows.iter().map(|r| r.1 as i16).collect()),
                    4,
                ),
                col(ColumnData::I64(rows.iter().map(|r| r.0 ^ r.1).collect()), 5),
                col(
                    ColumnData::I32(rows.iter().map(|r| r.0 as i32).collect()),
                    6,
                ),
                col(ColumnData::I64(rows.iter().map(|r| r.1).collect()), 0),
            ]);
        }
        Batch::new(cols)
    }

    /// The definition on one core, charging what each step of it costs:
    /// per non-empty input of a round one hash, one map, one gather per
    /// column, after round one the read of its tiles, the write of its
    /// tiles and one overhead per tile.
    fn reference(
        ctx: &mut CoreCtx,
        batches: &[Batch],
        key_cols: &[usize],
        scheme: &[usize],
        tile: usize,
    ) -> Vec<Batch> {
        let mut cursor = HashBitCursor::default();
        let mut current = vec![Batch::concat(batches.to_vec())];
        for (round, &fanout) in scheme.iter().enumerate() {
            let shift = cursor.take(fanout.trailing_zeros());
            let mut next = Vec::new();
            for part in &current {
                if part.is_empty() {
                    next.extend(vec![Batch::empty(0); fanout]);
                    continue;
                }
                let keys: Vec<&Vector> = key_cols.iter().map(|&c| part.column(c)).collect();
                let hashes = hash_rows(ctx, &keys);
                let (mut offsets, mut rids) = (vec![0; fanout + 1], vec![0; hashes.len()]);
                compute_partition_map(ctx, &hashes, fanout, shift, 0, &mut offsets, &mut rids);
                for col in &part.columns {
                    ctx.charge_kernel(
                        Kernel::Partition,
                        &costs::swpart_gather_per_row().scaled(col.len() as f64),
                    );
                }
                let widths: Vec<usize> = part.columns.iter().map(|c| c.data.width()).collect();
                if round > 0 {
                    // What the round before wrote to DRAM is read back.
                    ctx.charge_dms(&RelationAccessor::seq_read_cost(
                        &ctx.cost_model,
                        widths.iter().copied(),
                        part.rows(),
                        tile,
                    ));
                }
                ctx.charge_dms(&RelationAccessor::seq_write_cost(
                    &ctx.cost_model,
                    widths.iter().copied(),
                    part.rows(),
                    tile,
                ));
                for _ in 0..part.rows().div_ceil(tile) {
                    ctx.charge_tile();
                }
                next.extend((0..fanout).map(|p| {
                    match &rids[offsets[p] as usize..offsets[p + 1] as usize] {
                        [] => Batch::empty(0),
                        rids => part.gather(rids),
                    }
                }));
            }
            current = next;
        }
        current
    }

    fn bits(a: &CycleAccount) -> (u64, u64, u64, Counters) {
        (
            a.compute_cycles().get().to_bits(),
            a.dms_cycles().get().to_bits(),
            a.elapsed_cycles().get().to_bits(),
            *a.counters(),
        )
    }

    /// `partition_pass` under `cores` cores: the partitions and the
    /// counters of all its stages merged.
    fn pass(
        cores: usize,
        batches: &[Batch],
        key_cols: &[usize],
        scheme: &[usize],
        tile: usize,
    ) -> (Vec<Batch>, Counters, Vec<usize>) {
        let ectx = ExecContext::dpu().with_cores(cores);
        let (mut sum, mut lanes, mut rounds) = (Counters::default(), Vec::new(), Vec::new());
        let parts = partition_pass(
            &ectx,
            batches.to_vec(),
            (key_cols, Route::Hash),
            scheme,
            tile,
            None,
            |t, r, _| {
                sum = sum.merged(&t.counters);
                lanes.push(t.parallelism);
                rounds.push((r.round, r.rounds, r.fanout as usize));
            },
        )
        .unwrap();
        // Every stage says which round it is: a stage per round, or one
        // for the whole scheme.
        let expect: Vec<_> = match lanes.len() {
            1 if scheme.len() > 1 => vec![(1, 1, scheme.iter().product())],
            n => (1..).zip(scheme).map(|(r, &f)| (r, n as u32, f)).collect(),
        };
        assert_eq!(rounds, expect);
        (parts, sum, lanes)
    }

    proptest! {
        #[test]
        fn scatter_equals_concat_map_gather(
            pieces in proptest::collection::vec(
                proptest::collection::vec((-40i64..40, any::<i64>(), 0u8..12), 0..150),
                0..6,
            ),
            wide in any::<bool>(),
            two_keys in any::<bool>(),
            round_one_bits in 0u32..7,
            round_two_bits in proptest::option::of(0u32..4),
            tile in prop_oneof![Just(16usize), Just(128), Just(320)],
        ) {
            let batches: Vec<Batch> = pieces.iter().map(|rows| batch(rows, wide)).collect();
            let key_cols: &[usize] = if two_keys { &[0, 1] } else { &[0] };
            let mut scheme = vec![1usize << round_one_bits];
            scheme.extend(round_two_bits.map(|b| 1usize << b));
            let ectx = ExecContext::dpu();
            let mut expect_ctx = CoreCtx::new(&ectx, 0);
            let expect = reference(&mut expect_ctx, &batches, key_cols, &scheme, tile);
            // One core, one account: the definition's, to the bit. For an
            // input of one tile or less that is also the parent commit's
            // account — one overhead per call was one per tile.
            let mut ctx = CoreCtx::new(&ectx, 0);
            let got = partition_scheme(&mut ctx, batches.clone(), key_cols, &scheme, tile).unwrap();
            prop_assert_eq!(&got, &expect);
            prop_assert_eq!(bits(&ctx.account), bits(&expect_ctx.account));
            prop_assert_eq!(ctx.dmem.used(), 0);
            prop_assert!(batches.iter().all(Batch::is_empty) || ctx.dmem.peak() > BASE_STATE_BYTES);
            // Any number of cores: the same partitions, rows in the same
            // order with the same null bitmaps, and the same rows hashed,
            // mapped and moved. Rows that do not fill a tile on every core
            // are dealt in equal shares over as many as they feed
            // (`Deal::shares`): vectors cut finer add tiles and
            // descriptors, and only those.
            let rows: usize = batches.iter().map(Batch::rows).sum();
            let (_, one_core, _) = pass(1, &batches, key_cols, &scheme, tile);
            for cores in [1, 3, 8, 32] {
                let (parts, sum, lanes) = pass(cores, &batches, key_cols, &scheme, tile);
                prop_assert_eq!(&parts, &expect, "{} cores", cores);
                prop_assert_eq!(
                    (sum.instructions, sum.dms_bytes),
                    (one_core.instructions, one_core.dms_bytes),
                    "{} cores", cores
                );
                prop_assert!(sum.dms_descriptors >= one_core.dms_descriptors);
                prop_assert!(sum.tiles >= one_core.tiles);
                prop_assert_eq!(sum.dms_bytes, expect_ctx.account.counters().dms_bytes);
                if rows <= tile {
                    prop_assert_eq!(lanes, vec![1], "one tile is one item on one core");
                    prop_assert_eq!(sum, *expect_ctx.account.counters());
                } else {
                    let deal = Deal::shares(rows, tile, cores);
                    prop_assert_eq!(lanes[0], deal.lanes);
                    if deal.tile == tile {
                        prop_assert_eq!(
                            (sum.dms_descriptors, sum.tiles),
                            (one_core.dms_descriptors, one_core.tiles)
                        );
                    }
                    prop_assert_eq!(lanes.len(), scheme.len(), "a stage per round");
                }
            }
        }
    }
}
