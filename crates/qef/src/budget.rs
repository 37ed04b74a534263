//! Shared DMEM working-set arithmetic (§5.2 task formation).
//!
//! Where a task ends (`PlanNode::input_task`), the engine (per-task tile
//! clamping) and the static verifier (`rapid-verify`) size vectors from
//! this one module, so the static verdict and the runtime behavior cannot
//! drift apart: a task the verifier reports as fitting at tile `t` is
//! exactly the task the engine will run at tile `t`.
//!
//! The model follows the paper's task-formation rule: a task holds the
//! state of every operator in it plus one double-buffered DMEM buffer per
//! column stream — the streams its first operator reads and the ones each
//! operator writes for the next, a vector between two operators of a task
//! counted once ([`task_streams`]). Vectors below [`MIN_VECTOR_ROWS`] rows
//! stop amortizing per-tile overheads; when even a single-buffered minimum
//! vector does not fit, the task cannot execute within the scratchpad.

/// Minimum rows per vector worth double-buffering (§5.2's floor; below
/// this, per-tile descriptor setup dominates the transfer).
pub const MIN_VECTOR_ROWS: usize = 64;

/// Bytes a selection vector holds per kept row: the row's offset in its
/// tile, which is never more than 64 Ki rows.
pub const SELECTION_BYTES: usize = 2;

/// Fixed per-stage bookkeeping state (cursors, row counters, descriptor
/// chain head) charged against DMEM before any vector.
pub const BASE_STATE_BYTES: usize = 64;

/// Widest fan-out one software partition round may take: ten radix bits
/// of the hash. Local buffers cap a round lower for wide rows
/// ([`max_buffered_fanout`]).
pub const MAX_ROUND_FANOUT: usize = 1024;

/// Bits of the partitioning hash: the rounds of a scheme together may
/// consume no more.
pub const HASH_BITS: u32 = 32;

/// High hash bits the static verifier holds back from compiled schemes for
/// skew re-partitioning (paper §6.4).
pub const SKEW_RESERVED_BITS: u32 = 4;

/// The tiles lane `lane` of `lanes` owns when a stage deals `tiles` tiles
/// to its lanes in order: tiles `lane·tiles/lanes .. (lane + 1)·tiles/lanes`,
/// so that no two lanes' shares differ by more than a tile and the busiest
/// holds `⌈tiles/lanes⌉`. A scan's task deals its table's tiles this way and
/// a partition round the tiles of its input; the scan's access-path model
/// prices the busiest lane's share by it.
pub fn lane_tiles(lane: usize, lanes: usize, tiles: usize) -> std::ops::Range<usize> {
    lane * tiles / lanes..(lane + 1) * tiles / lanes
}

/// How a stage deals its rows to its lanes: how many lanes it runs and the
/// tile each streams at. Every place that forms lanes asks this one rule —
/// a scan's task, a partition round, the scan's access-path model and the
/// cost model's filter reads — so that no stage runs on fewer dpCores than
/// its rows can feed (§5.1–5.2: a task runs data-parallel on every core,
/// and a stage is as slow as its busiest lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deal {
    /// Rows the stage deals.
    pub rows: usize,
    /// Rows per vector a lane streams at: the stage's tile, or a lane's
    /// equal share where the rows do not fill a tile on every core.
    pub tile: usize,
    /// Vectors of `tile` rows the stage's rows are cut into.
    pub tiles: usize,
    /// Lanes the stage runs: at most the cores and the tiles, none for no
    /// rows.
    pub lanes: usize,
}

impl Deal {
    /// Lanes that own whole `tile`-row tiles: `min(cores, tiles)` of them.
    /// A lone scan chain keeps this deal: it is DMS-bound, and cutting its
    /// tiles finer would only add descriptors. So does a stage each of whose
    /// lanes reads a join filter from DRAM: more lanes would read it more
    /// often.
    pub fn whole_tiles(rows: usize, tile: usize, cores: usize) -> Deal {
        Deal::of_segments(std::iter::once(rows), tile, cores, false)
    }

    /// The stage's rows over every core. Where they fill at least `cores`
    /// tiles, lanes own whole tiles ([`Deal::whole_tiles`]); else the stage
    /// takes `min(cores, ⌈rows / MIN_VECTOR_ROWS⌉)` lanes with equal shares,
    /// each one vector of `⌈rows / lanes⌉` rows. Rows that fit one tile stay
    /// one lane at the tile: the stage is one vector long already, and
    /// cutting it would only round every share's transfers up to their
    /// bursts and pay a descriptor and a lane's set-up a share.
    pub fn shares(rows: usize, tile: usize, cores: usize) -> Deal {
        Deal::of_segments(std::iter::once(rows), tile, cores, true)
    }

    /// [`Deal::whole_tiles`], or where `shares` [`Deal::shares`], of rows
    /// that lie in segments no vector crosses — the partitions a round
    /// splits further, each cut into tiles of its own: a segment's last tile
    /// may be short, the tiles are counted segment by segment, and the lanes
    /// are as many as the cores and those tiles allow.
    pub fn of_segments(
        segments: impl Iterator<Item = usize> + Clone,
        tile: usize,
        cores: usize,
        shares: bool,
    ) -> Deal {
        let (tile, cores) = (tile.max(1), cores.max(1));
        let tiles_at = |tile: usize| segments.clone().map(|r| r.div_ceil(tile)).sum::<usize>();
        let rows: usize = segments.clone().sum();
        let whole = tiles_at(tile);
        let tile = match cores.min(rows.div_ceil(MIN_VECTOR_ROWS.min(tile))) {
            _ if !shares || whole <= 1 || whole >= cores => tile,
            lanes => rows.div_ceil(lanes),
        };
        let tiles = tiles_at(tile);
        Deal {
            rows,
            tile,
            tiles,
            lanes: cores.min(tiles),
        }
    }

    /// The rows lane `lane` owns of one segment: its tiles ([`lane_tiles`])
    /// in row order.
    pub fn lane_rows(&self, lane: usize) -> std::ops::Range<usize> {
        let owned = lane_tiles(lane, self.lanes, self.tiles);
        owned.start * self.tile..self.rows.min(owned.end * self.tile)
    }
}

/// Per-row stream bytes of a partition pass over `row_bytes`-wide rows:
/// every column streams through DMEM plus the 4-byte hash lane the
/// partition map is computed from.
pub fn partition_stream_bytes(row_bytes: usize) -> usize {
    row_bytes + 4
}

/// The stage label an operator runs under on its own: `scan(lineitem)`,
/// `map`, `groupby.consume`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpName<'a> {
    /// The operator's stage, e.g. `scan`, `join.partition-probe`.
    pub stage: &'static str,
    /// The table, for a scan.
    pub table: Option<&'a str>,
}

impl OpName<'static> {
    /// The label of a stage that names no table.
    pub fn of(stage: &'static str) -> Self {
        OpName { stage, table: None }
    }
}

impl std::fmt::Display for OpName<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.table {
            Some(table) => write!(f, "{}({table})", self.stage),
            None => f.write_str(self.stage),
        }
    }
}

/// What one operator declares against the DMEM of the task it runs in
/// ("each RAPID operator declares its internal state and data structure
/// sizes at implementation", §5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpDecl<'a> {
    /// The stage label the operator runs under on its own.
    pub name: OpName<'a>,
    /// Fixed state: cursors, hash tables, heaps.
    pub state_bytes: usize,
    /// Bytes per row of each column stream it reads: from DRAM where it
    /// opens a task, else the vectors the operator below it wrote.
    pub in_widths: Vec<usize>,
    /// Bytes per row of each column stream it writes in DMEM.
    pub out_widths: Vec<usize>,
}

/// What a task is sized from: the state an operator declares and the column
/// streams it reads and writes. [`OpDecl`] is the engine's and the
/// verifier's; Figure 4's task-formation search sizes its own operator
/// shapes through the same three functions below.
pub trait Declares {
    /// Fixed state, in bytes.
    fn state_bytes(&self) -> usize;
    /// Bytes per row of each column stream the operator reads.
    fn in_widths(&self) -> impl Iterator<Item = usize> + Clone;
    /// Bytes per row of each column stream it writes in DMEM.
    fn out_widths(&self) -> impl Iterator<Item = usize> + Clone;
}

impl Declares for OpDecl<'_> {
    fn state_bytes(&self) -> usize {
        self.state_bytes
    }
    fn in_widths(&self) -> impl Iterator<Item = usize> + Clone {
        self.in_widths.iter().copied()
    }
    fn out_widths(&self) -> impl Iterator<Item = usize> + Clone {
        self.out_widths.iter().copied()
    }
}

/// State bytes of a task of `ops`.
pub fn task_state<D: Declares>(ops: &[D]) -> usize {
    ops.iter().map(Declares::state_bytes).sum()
}

/// The column streams a task of `ops` (bottom first) holds a vector of:
/// what its first operator reads and what every operator writes. The
/// vector an operator hands the next one is that operator's input.
pub fn task_streams<D: Declares>(ops: &[D]) -> impl Iterator<Item = usize> + Clone + '_ {
    let read = ops.first().into_iter().flat_map(Declares::in_widths);
    read.chain(ops.iter().flat_map(Declares::out_widths))
}

/// The tile a task of `ops` runs at — [`effective_tile`] of its state and
/// streams — and the DMEM each of its lanes holds at that tile
/// ([`working_set`]). `None` is the halting condition: the operators do not
/// fit one scratchpad at a minimum vector, and the task has to be cut.
pub fn task_tile<D: Declares>(
    cfg_tile: usize,
    ops: &[D],
    dmem_bytes: usize,
) -> Option<(usize, usize)> {
    let (state, streams) = (task_state(ops), task_streams(ops).sum());
    let tile = effective_tile(cfg_tile, state, streams, dmem_bytes)?;
    Some((tile, working_set(state, streams, tile, dmem_bytes)))
}

/// How a stage's vectors fit into DMEM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileFit {
    /// Largest rows-per-vector that fits (before clamping to the
    /// configured tile size).
    pub rows: usize,
    /// Whether the fit keeps double buffering. `false` means the stage
    /// only fits single-buffered: it executes, but transfer no longer
    /// overlaps compute.
    pub double_buffered: bool,
}

/// Largest tile that fits `state_bytes + k * stream_bytes_per_row * tile`
/// in `dmem_bytes`, preferring double-buffered (`k = 2`) and falling back
/// to single-buffered (`k = 1`). `None` when even [`MIN_VECTOR_ROWS`]
/// single-buffered rows do not fit — the compiler's halting condition.
pub fn fit_tile(
    state_bytes: usize,
    stream_bytes_per_row: usize,
    dmem_bytes: usize,
) -> Option<TileFit> {
    let free = dmem_bytes.checked_sub(state_bytes)?;
    if stream_bytes_per_row == 0 {
        // Stage moves no per-row streams (e.g. pure state machines): any
        // tile fits.
        return Some(TileFit {
            rows: usize::MAX,
            double_buffered: true,
        });
    }
    let double = free / (2 * stream_bytes_per_row);
    if double >= MIN_VECTOR_ROWS {
        return Some(TileFit {
            rows: double,
            double_buffered: true,
        });
    }
    let single = free / stream_bytes_per_row;
    if single >= MIN_VECTOR_ROWS {
        return Some(TileFit {
            rows: single,
            double_buffered: false,
        });
    }
    None
}

/// The tile the engine actually uses for a stage: the configured tile,
/// clamped to what fits the stage's working set. `None` propagates the
/// halting condition from [`fit_tile`].
pub fn effective_tile(
    cfg_tile: usize,
    state_bytes: usize,
    stream_bytes_per_row: usize,
    dmem_bytes: usize,
) -> Option<usize> {
    fit_tile(state_bytes, stream_bytes_per_row, dmem_bytes).map(|f| cfg_tile.min(f.rows))
}

/// DMEM a stage item holds while it streams at `tile` rows: its state plus
/// the tile buffers of every stream — double-buffered, or single-buffered
/// where [`fit_tile`] had to give the second buffer up. Items reserve
/// exactly this, and the static verifier reports it as the stage's bound.
pub fn working_set(
    state_bytes: usize,
    stream_bytes_per_row: usize,
    tile: usize,
    dmem_bytes: usize,
) -> usize {
    let stream = stream_bytes_per_row * tile;
    if state_bytes + 2 * stream <= dmem_bytes {
        state_bytes + 2 * stream
    } else {
        state_bytes + stream
    }
}

/// Largest per-round partition fan-out whose per-partition local buffers
/// (half of DMEM split `fanout` ways) still hold the 16-row minimum DMS
/// burst for `row_bytes`-wide rows — heuristic (b) of §5.3. Never below 2
/// (a round narrower than binary cannot make progress). `row_bytes` is the
/// row as the buffers hold it: the sum of `PlanNode::output_widths` of the
/// pass's input (the wider one of a join's two). The compiler's
/// `partition_opt::partition_scheme` takes the fewest rounds under this
/// cap, the verifier checks it (R-FANOUT-BUFFER) and the engine refuses a
/// round over it.
pub fn max_buffered_fanout(row_bytes: usize, dmem_bytes: usize) -> usize {
    let cap = (dmem_bytes / 2) / (16 * row_bytes.max(1));
    // Round down to a power of two, floor at 2.
    if cap < 2 {
        return 2;
    }
    let mut p = cap.next_power_of_two();
    if p > cap {
        p /= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    const DMEM: usize = 32 * 1024;

    #[test]
    fn narrow_stage_fits_double_buffered() {
        // 7 Int columns: 56 B/row. (32768-64)/(2*56) = 292.
        let f = fit_tile(64, 56, DMEM).unwrap();
        assert!(f.double_buffered);
        assert_eq!(f.rows, (DMEM - 64) / 112);
    }

    #[test]
    fn wide_stage_falls_back_to_single_buffering() {
        // 300 B/row double-buffered at 64 rows needs 38400 B > 32 KiB,
        // but single-buffered 64-row vectors (19200 B) fit.
        let f = fit_tile(64, 300, DMEM).unwrap();
        assert!(!f.double_buffered);
        assert!(f.rows >= MIN_VECTOR_ROWS);
    }

    #[test]
    fn impossible_stage_is_none() {
        // 600 B/row: even single-buffered 64-row vectors exceed DMEM.
        assert!(fit_tile(0, 600, DMEM).is_none());
        // State alone exceeding DMEM is also a halt.
        assert!(fit_tile(DMEM + 1, 8, DMEM).is_none());
    }

    #[test]
    fn effective_tile_clamps_but_never_raises() {
        // 8 Int columns: fit = (32768-64)/(2*64) = 255 < 256.
        assert_eq!(effective_tile(256, 64, 64, DMEM), Some(255));
        // Narrow stage: configured tile already fits.
        assert_eq!(effective_tile(256, 64, 16, DMEM), Some(256));
    }

    #[test]
    fn zero_stream_stage_accepts_any_tile() {
        assert_eq!(effective_tile(256, 1024, 0, DMEM), Some(256));
    }

    #[test]
    fn a_task_counts_the_vector_between_two_operators_once() {
        let op = |stage, state_bytes, in_widths: &[usize], out_widths: &[usize]| OpDecl {
            name: OpName::of(stage),
            state_bytes,
            in_widths: in_widths.to_vec(),
            out_widths: out_widths.to_vec(),
        };
        let scan = op("scan", BASE_STATE_BYTES, &[4, 2, 1], &[]);
        let map = op("map", BASE_STATE_BYTES, &[4, 2], &[8]);
        let consume = op("groupby.consume", DMEM / 2, &[4, 8], &[]);
        // Alone, each is the stage it always was: state plus what it reads
        // and writes, double-buffered at the configured tile.
        assert_eq!(
            task_tile(256, std::slice::from_ref(&scan), DMEM),
            Some((256, 64 + 2 * 7 * 256))
        );
        assert_eq!(
            task_tile(256, std::slice::from_ref(&map), DMEM),
            Some((256, 64 + 2 * 14 * 256))
        );
        // Together they hold every state, the scan's streams and what the
        // map writes: the map reads, and the group-by consumes, vectors
        // that are already there.
        let task = [scan, map, consume];
        assert_eq!(task_state(&task), 64 + 64 + DMEM / 2);
        assert_eq!(task_streams(&task).collect::<Vec<_>>(), [4, 2, 1, 8]);
        assert_eq!(
            task_tile(256, &task, DMEM),
            Some((256, 128 + DMEM / 2 + 2 * 15 * 256))
        );
        // Wider, the vector shrinks to what the shared scratchpad leaves...
        let wide = [
            task[0].clone(),
            op("map", 64, &[4], &[8; 4]),
            task[2].clone(),
        ];
        let free = DMEM - 128 - DMEM / 2;
        assert_eq!(
            task_tile(256, &wide, DMEM).map(|t| t.0),
            Some(free / (2 * 39))
        );
        // ...and with no room for 64 rows the task has to be cut.
        assert_eq!(task_tile(256, &wide, DMEM / 2 + 128 + 39 * 64 - 1), None);
    }

    #[test]
    fn fanout_cap_matches_the_min_burst_rule() {
        // 8 B rows: (16384)/(16*8) = 128 buffers of exactly one burst.
        assert_eq!(max_buffered_fanout(8, DMEM), 128);
        // 100 B rows: 16384/1600 = 10 -> 8-way.
        assert_eq!(max_buffered_fanout(100, DMEM), 8);
        // Absurdly wide rows still allow binary rounds.
        assert_eq!(max_buffered_fanout(10_000, DMEM), 2);
    }
}
