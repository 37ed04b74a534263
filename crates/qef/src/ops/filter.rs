//! The filter operator (§5.4) and the scan's two access paths.
//!
//! A scan is the first operator of a task: each lane of the task reads a
//! contiguous, tile-aligned range of the table's rows — a run of rows of
//! every chunk the range crosses — through one of the relation accessor's
//! patterns, chosen once per scan ([`ScanPlan::decide`]):
//!
//! * **stream** — one sequential descriptor loop over every column the scan
//!   touches, predicate and projected alike, charged once for the lane's
//!   rows with a trip round the control loop per tile. Conjuncts are
//!   evaluated on the tile in DMEM and the qualifying rows stay where the DMS
//!   streamed them: the lane hands on a **selection vector** over the tiles
//!   ([`Pick::Selected`], a 2-byte tile offset per kept row in DMEM), no
//!   row-set descriptor crosses the DMS and nothing is gathered. Every
//!   operator above reads the kept rows through it, and only a lane that
//!   writes them into vectors of its own compacts them
//!   ([`Rows::into_batch`]). A scan without a predicate is the degenerate
//!   case — nothing to evaluate or select, and the lane hands on all the
//!   rows where they lie ([`Rows::InPlace`]).
//! * **gather** — the paper's selective pipeline, run by run:
//!   1. conjuncts are evaluated **most selective first**, grouped into
//!      **DMS passes** by column set: a conjunct whose columns its pass
//!      already holds in DMEM is evaluated in that pass, over the pass's
//!      survivors, and moves nothing,
//!   2. the first pass streams its columns sequentially and produces either
//!      a RID-list or a bit-vector — RIDs when fewer than 1/32 of the rows
//!      are expected to survive the pass (a RID is 32 bits),
//!   3. each later pass only **gathers** the still-qualifying rows of its
//!      columns through the DMS and narrows the row set, shipped as RIDs
//!      once fewer than 1/32 of the rows are expected to be left — the
//!      scan's choice, the same for every run of every lane,
//!   4. where the task's last stage is a probe side's first stage whose
//!      join has a filter ([`crate::ops::join_filter`]), the **key pass**:
//!      the join's key columns are streamed if it is the first pass, else
//!      gathered at the rows that survived; their hashes are tested a run
//!      of rows at a time in buffers on the stack ([`KeyTest`]), and only
//!      the rows whose bit is set are left — a row that cannot match is
//!      read no further than its keys, and the stage above does not test
//!      it again,
//!   5. projection columns are gathered last (late materialization): the
//!      DMS packs the kept rows densely in DMEM ([`Pick::Gathered`]), and
//!      reading them costs the operators above nothing more.
//!
//! Passes run in the order that moves the fewest modelled DMS cycles —
//! width times rows moved, not selectivity alone: a narrow column that
//! halves the rows is a better first stream than a wide one that keeps a
//! third of them. The path is the one with the shorter modelled *stage* —
//! the DMS cycles of the whole table against the compute of the busiest of
//! the task's `min(cores, tiles)` lanes, the `max` the stage rule resolves —
//! because a table of one tile pays the stream's control loop on one core.
//! The stream path's compute counts what the task's operators do with the
//! kept rows as the engine charges it ([`KeptRows`]): a read through the
//! selection per loop that reads them in place, a compaction of each column
//! a lane writes. A key pass is priced as it runs — its key stream or
//! gather, and the projection gathered at the share of rows the filter keeps
//! ([`crate::ops::join_filter::JoinFilter::kept_share`]) — and both paths
//! charge the hash and test of every row that enters it, the scan's or the
//! stage's: the test alone does not pick the path, the bytes it saves do.

use dpu_sim::account::Kernel;
use dpu_sim::isa::CostModel;
use rapid_storage::bitvec::{RowSet, RowSetKind};
use rapid_storage::chunk::Chunk;
use rapid_storage::stats::ColumnStats;
use rapid_storage::table::Table;
use rapid_storage::vector::{ColumnData, Vector};

use std::ops::Range;

use crate::batch::{Batch, ColumnBuilder, Pick, Positions, Projection, Rows, Span};
use crate::error::{QefError, QefResult};
use crate::exec::{CoreCtx, ExecContext};
use crate::expr::Pred;
use crate::ops::join_filter::JoinFilter;
use crate::primitives::costs;
use crate::primitives::filter::CmpOp;
use crate::primitives::hash::hash_pieces_into;
use crate::ra::{chunk_widths, AccessPath, RelationAccessor};
use crate::selectivity::{conjunction_selectivity, estimate_selectivity_cols};
use crate::task::KeptRows;

/// Orders of up to this many passes are enumerated; a scan with more (none
/// we ship has over four) keeps them most selective first.
const MAX_ORDERED_PASSES: usize = 8;

/// One conjunct of a scan's predicate.
#[derive(Debug)]
struct Conjunct<'a> {
    pred: &'a Pred,
    /// The columns it reads, ascending.
    cols: Vec<usize>,
    /// Its estimated selectivity on its own.
    sel: f64,
}

/// One trip of predicate columns through the DMS: the conjuncts that read
/// one column set.
#[derive(Debug)]
struct Pass<'a> {
    /// Most selective first.
    conjuncts: Vec<Conjunct<'a>>,
    /// Estimated joint selectivity of the conjuncts.
    sel: f64,
}

impl Pass<'_> {
    fn cols(&self) -> &[usize] {
        &self.conjuncts[0].cols
    }
}

/// The join filter the last stage of a scan's task would test the rows the
/// scan hands on against ([`crate::ops::join_filter`]): on the gather path
/// the scan tests it in a pass of its own, the key pass.
#[derive(Debug)]
pub struct KeyTest<'a> {
    /// The join's probe keys, as columns of the scanned table.
    pub cols: Vec<usize>,
    /// The built filter.
    pub filter: &'a JoinFilter,
    /// The share of the rows it is expected to keep
    /// ([`JoinFilter::kept_share`]).
    pub kept: f64,
}

/// How one scan reads its table: the access path and the conjuncts in
/// evaluation order, pass by pass — decided once per scan, run per chunk.
#[derive(Debug)]
pub struct ScanPlan<'a> {
    path: AccessPath,
    /// On the stream path one pass holds every conjunct.
    passes: Vec<Pass<'a>>,
    /// The key pass, after the predicate passes: on the gather path only.
    key: Option<KeyTest<'a>>,
    proj: &'a [usize],
    /// Every column the scan touches, ascending: the stream path's loop.
    touched: Vec<usize>,
}

/// The distinct columns a scan of `proj` under `preds` touches, ascending.
/// The list is sized before it is filled, not grown: every task that
/// compiling, verifying and running a statement builds calls this.
pub fn touched_columns<'p, P>(proj: &[usize], preds: P) -> Vec<usize>
where
    P: IntoIterator<Item = &'p Pred>,
    P::IntoIter: Clone,
{
    let preds = preds.into_iter();
    let mut named = 0;
    for p in preds.clone() {
        p.for_each_column(&mut |_| named += 1);
    }
    let mut cols = Vec::with_capacity(proj.len() + named);
    cols.extend_from_slice(proj);
    for p in preds {
        p.referenced_columns(&mut cols);
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// The covering run of `chunks` that may hold a row `pred` keeps: from the
/// first chunk whose zone maps the predicate cannot rule out to the last,
/// `0..0` where it rules out every one.
///
/// A test of one column against literals — `CmpConst`, `Between`, `InList`,
/// `InCodes` — rules out a chunk where no non-null value of the column can
/// pass it, an all-NULL chunk among them, and `NotNull` a chunk of NULLs
/// only. `And` intersects the runs of its arms, `Or` covers them, and
/// `Const(false)` keeps nothing. A comparison of two columns or of
/// expressions, and `Not`, keeps every chunk. The rule is exact for any
/// data: a chunk outside the run holds no row the predicate keeps. How the
/// rows are clustered decides only how short the run is, so it is decided
/// against the table a statement runs on, never carried by its plan.
pub fn chunk_run(pred: Option<&Pred>, chunks: &[Chunk]) -> Range<usize> {
    let all = 0..chunks.len();
    let run = match pred {
        None | Some(Pred::CmpCols { .. } | Pred::CmpExpr { .. } | Pred::Not(_)) => all,
        Some(Pred::Const(keeps)) => 0..if *keeps { chunks.len() } else { 0 },
        Some(Pred::And(arms)) => arms.iter().fold(all, |run, arm| {
            let of_arm = chunk_run(Some(arm), chunks);
            run.start.max(of_arm.start)..run.end.min(of_arm.end)
        }),
        Some(Pred::Or(arms)) => arms
            .iter()
            .map(|arm| chunk_run(Some(arm), chunks))
            .filter(|run| !run.is_empty())
            .reduce(|a, b| a.start.min(b.start)..a.end.max(b.end))
            .unwrap_or(0..0),
        Some(test) => {
            let may = |chunk: &Chunk| may_keep(test, chunk);
            match (chunks.iter().position(may), chunks.iter().rposition(may)) {
                (Some(first), Some(last)) => first..last + 1,
                _ => 0..0,
            }
        }
    };
    if run.is_empty() {
        0..0
    } else {
        run
    }
}

/// Whether `test`, a test of one column against literals or `NotNull`, may
/// keep a row of `chunk`, by the column's zone map. NULL passes no such
/// test. A column the chunk lacks rules nothing out.
fn may_keep(test: &Pred, chunk: &Chunk) -> bool {
    let zone = |col: usize| (col < chunk.columns()).then(|| chunk.zone(col));
    match test {
        Pred::CmpConst { col, op, value } => zone(*col).is_none_or(|z| {
            let v = *value;
            match op {
                CmpOp::Eq => z.overlaps(v, v),
                CmpOp::Ne => z.range.is_some_and(|range| range != (v, v)),
                CmpOp::Lt => v > i64::MIN && z.overlaps(i64::MIN, v - 1),
                CmpOp::Le => z.overlaps(i64::MIN, v),
                CmpOp::Gt => v < i64::MAX && z.overlaps(v + 1, i64::MAX),
                CmpOp::Ge => z.overlaps(v, i64::MAX),
            }
        }),
        Pred::Between { col, lo, hi } => zone(*col).is_none_or(|z| z.overlaps(*lo, *hi)),
        Pred::InList { col, values } => {
            zone(*col).is_none_or(|z| values.iter().any(|&v| z.overlaps(v, v)))
        }
        Pred::InCodes { col, codes } => zone(*col).is_none_or(|z| {
            codes
                .iter_ones()
                .any(|code| z.overlaps(code as i64, code as i64))
        }),
        Pred::NotNull { col } => zone(*col).is_none_or(|z| z.range.is_some()),
        _ => true,
    }
}

/// Flatten the top-level conjunction of `pred`, by reference.
fn collect_conjuncts<'a>(
    pred: &'a Pred,
    stats: &[Option<&ColumnStats>],
    out: &mut Vec<Conjunct<'a>>,
) {
    match pred {
        Pred::And(ps) => ps.iter().for_each(|p| collect_conjuncts(p, stats, out)),
        pred => out.push(Conjunct {
            pred,
            cols: touched_columns(&[], [pred]),
            sel: estimate_selectivity_cols(pred, stats),
        }),
    }
}

/// Group conjuncts, in evaluation order, into one pass per column set.
/// Passes come out in the order they were opened.
fn into_passes<'a>(conjuncts: Vec<Conjunct<'a>>, stats: &[Option<&ColumnStats>]) -> Vec<Pass<'a>> {
    let mut passes: Vec<Pass<'a>> = Vec::new();
    for c in conjuncts {
        match passes.iter().position(|p| p.cols() == c.cols) {
            Some(p) => passes[p].conjuncts.push(c),
            None => passes.push(Pass {
                conjuncts: vec![c],
                sel: 1.0,
            }),
        }
    }
    for p in &mut passes {
        p.sel = conjunction_selectivity(p.conjuncts.iter().map(|c| c.pred), stats);
    }
    passes
}

/// Evaluations per entering row of `conjuncts` run in order, each over the
/// survivors of those before it.
fn evaluations<'c>(conjuncts: impl IntoIterator<Item = &'c Conjunct<'c>>) -> f64 {
    let (mut evaluations, mut surviving) = (0.0, 1.0);
    for c in conjuncts {
        evaluations += surviving;
        surviving *= c.sel;
    }
    evaluations
}

/// Modelled cost of one chunk: what the cores compute over its rows, what
/// the DMS moves. The trips round the control loop a path takes per run of
/// rows are the plan's ([`ScanPlan::trips_per_run`]), not the chunk's.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkCost {
    compute: f64,
    dms: f64,
}

/// The scan's cost model over one chunk: the RA's cost
/// functions and the kernels' per-row constants, none of its own.
struct Model<'m> {
    cm: &'m CostModel,
    chunk: &'m Chunk,
    tile: usize,
}

impl Model<'_> {
    fn rows(&self) -> f64 {
        self.chunk.rows() as f64
    }

    fn stream(&self, cols: &[usize]) -> f64 {
        let widths = chunk_widths(self.chunk, cols);
        RelationAccessor::seq_read_cost(self.cm, widths, self.chunk.rows(), self.tile).cycles
    }

    /// Gather of `cols` at `survivors` rows, with their row-set descriptor
    /// in the representation the filter will have picked.
    fn gather(&self, cols: &[usize], survivors: f64) -> f64 {
        let n = survivors.ceil() as usize;
        let kind = RowSet::choose(survivors / self.rows().max(1.0));
        let descriptor = RelationAccessor::rowset_descriptor_bytes(kind, self.chunk.rows(), n);
        let widths = chunk_widths(self.chunk, cols);
        RelationAccessor::gather_cost(self.cm, widths, n, self.tile).cycles
            + RelationAccessor::rowset_cost(self.cm, descriptor).cycles
    }

    /// DMS cycles of `pass` when `entering` rows survived those before it.
    fn pass(&self, pass: &Pass<'_>, first: bool, entering: f64) -> f64 {
        if first {
            self.stream(pass.cols())
        } else {
            self.gather(pass.cols(), entering)
        }
    }

    /// The order of `passes` that moves the fewest modelled DMS cycles —
    /// the order given unless another is strictly cheaper.
    fn cheapest_order(&self, passes: &[Pass<'_>]) -> Vec<usize> {
        let (mut cost, mut entering) = (0.0, self.rows());
        for (i, p) in passes.iter().enumerate() {
            cost += self.pass(p, i == 0, entering);
            entering *= p.sel;
        }
        let mut best = (cost, (0..passes.len()).collect());
        if passes.len() <= MAX_ORDERED_PASSES {
            self.search(passes, &mut Vec::new(), 0.0, self.rows(), &mut best);
        }
        best.1
    }

    /// Depth-first over the orders that extend `order`, cut where the
    /// passes placed so far already cost what the best order does.
    fn search(
        &self,
        passes: &[Pass<'_>],
        order: &mut Vec<usize>,
        cost: f64,
        entering: f64,
        best: &mut (f64, Vec<usize>),
    ) {
        if order.len() == passes.len() {
            *best = (cost, order.clone());
            return;
        }
        for (i, p) in passes.iter().enumerate() {
            if order.contains(&i) {
                continue;
            }
            let cost = cost + self.pass(p, order.is_empty(), entering);
            if cost < best.0 {
                order.push(i);
                self.search(passes, order, cost, entering * p.sel, best);
                order.pop();
            }
        }
    }

    /// Compute a row of the key pass takes: the hash of its keys and the
    /// test of its bit — wherever the row is tested, by the scan or by the
    /// last stage of its task.
    fn key_test(&self, key: &KeyTest<'_>) -> f64 {
        key.cols.len() as f64 * self.cm.kernel_cycles(&costs::hash_per_row_per_key())
            + self.cm.kernel_cycles(&costs::join_filter_test_per_row())
    }

    /// One chunk on the gather path: the predicate passes, the key pass —
    /// its columns streamed where it is the first pass, gathered at the
    /// rows the predicate kept otherwise — and the projection gathered at
    /// the rows left.
    fn gather_path(&self, plan: &ScanPlan<'_>) -> ChunkCost {
        let per_row = self.cm.kernel_cycles(&costs::filter_per_row());
        let mut cost = ChunkCost::default();
        let mut entering = self.rows();
        for (i, p) in plan.passes.iter().enumerate() {
            cost.dms += self.pass(p, i == 0, entering);
            cost.compute += per_row * entering * evaluations(&p.conjuncts);
            entering *= p.sel;
            if i == 0 && RowSet::choose(p.sel) == RowSetKind::Rids {
                cost.compute +=
                    self.cm.kernel_cycles(&costs::filter_rid_emit_per_match()) * entering;
            }
        }
        if let Some(key) = &plan.key {
            cost.dms += match plan.passes.is_empty() {
                true => self.stream(&key.cols),
                false => self.gather(&key.cols, entering),
            };
            cost.compute += self.key_test(key) * entering;
            entering *= key.kept;
        }
        cost.dms += self.gather(plan.proj, entering);
        cost
    }

    /// One chunk on the stream path, its conjuncts costing `evaluations`
    /// per row in the order that path runs them, and the task's operators
    /// taking the rows they keep as `kept` says.
    fn stream_path(&self, plan: &ScanPlan<'_>, evaluations: f64, kept: &KeptRows) -> ChunkCost {
        let tiles = self.rows() / self.tile.max(1) as f64;
        let mut compute = self.cm.per_tile_overhead_cycles * tiles
            + self.cm.kernel_cycles(&costs::filter_per_row()) * self.rows() * evaluations;
        let qualifying = self.rows() * plan.passes.iter().map(|p| p.sel).product::<f64>();
        compute += self.cm.kernel_cycles(&costs::swpart_gather_per_row())
            * qualifying
            * kept.writes as f64;
        let select = |&cols: &usize| self.cm.kernel_cycles(&costs::select_read_per_row(cols));
        compute += qualifying * kept.reads.iter().map(select).sum::<f64>();
        // The last stage tests the rows the scan hands on.
        if let Some(key) = &plan.key {
            compute += self.key_test(key) * qualifying;
        }
        ChunkCost {
            compute,
            dms: self.stream(&plan.touched),
        }
    }
}

impl<'a> ScanPlan<'a> {
    /// Plan the scan of `proj` of `chunks` — the run of `table`'s chunks it
    /// reads ([`chunk_run`]) — under `pred` on `ctx`'s cores, from the
    /// table's statistics; `touched` is [`touched_columns`] of the
    /// two, `tile` the tile their streams were sized at, `kept` how the
    /// operators of the scan's task take the rows it keeps
    /// ([`crate::task::Task::kept_rows`]) and `key` the join filter the
    /// task's last stage would test them against, where it has one. On the
    /// gather path the scan tests it itself, in the key pass; on the stream
    /// path the stage does.
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        ctx: &ExecContext,
        table: &Table,
        chunks: &[Chunk],
        proj: &'a [usize],
        pred: Option<&'a Pred>,
        touched: Vec<usize>,
        tile: usize,
        kept: &KeptRows,
        key: Option<KeyTest<'a>>,
    ) -> ScanPlan<'a> {
        let stats: Vec<Option<&ColumnStats>> = table.stats.columns.iter().map(Some).collect();
        let mut conjuncts = Vec::new();
        if let Some(pred) = pred {
            collect_conjuncts(pred, &stats, &mut conjuncts);
        }
        conjuncts.sort_by(|a, b| a.sel.total_cmp(&b.sel));
        let mut plan = ScanPlan {
            path: AccessPath::Gather,
            passes: into_passes(conjuncts, &stats),
            key,
            proj,
            touched,
        };
        let model = |chunk| Model {
            cm: &ctx.cost_model,
            chunk,
            tile,
        };
        if let (Some(first), true) = (chunks.first(), plan.passes.len() > 1) {
            let order = model(first).cheapest_order(&plan.passes);
            let mut passes: Vec<_> = plan.passes.into_iter().map(Some).collect();
            plan.passes = order.iter().filter_map(|&i| passes[i].take()).collect();
        }
        // Stage time of either path, as the stage rule will resolve it: the
        // transfers of every lane share the one DMS engine, and the busiest
        // of the `min(cores, tiles)` lanes computes over its share of the
        // rows — ⌈tiles/lanes⌉ tiles, as `crate::budget::lane_tiles` deals
        // them — and takes the gather path's trips round the control loop
        // once per run — per chunk its range crosses.
        let streamed = match plan.passes.as_slice() {
            [] => 0.0,
            [only] => evaluations(&only.conjuncts),
            passes => {
                let mut conjuncts: Vec<_> = passes.iter().flat_map(|p| &p.conjuncts).collect();
                conjuncts.sort_by(|a, b| a.sel.total_cmp(&b.sel));
                evaluations(conjuncts)
            }
        };
        let (mut stream, mut gather) = (ChunkCost::default(), ChunkCost::default());
        for chunk in chunks {
            let model = model(chunk);
            for (total, cost) in [
                (&mut stream, model.stream_path(&plan, streamed, kept)),
                (&mut gather, model.gather_path(&plan)),
            ] {
                total.compute += cost.compute;
                total.dms += cost.dms;
            }
        }
        let rows: usize = chunks.iter().map(Chunk::rows).sum();
        let tiles = rows.div_ceil(tile.max(1)).max(1);
        let lanes = ctx.cores.clamp(1, tiles);
        let share = tiles.div_ceil(lanes) as f64 / tiles as f64;
        let runs = (chunks.len() + lanes - 1).div_ceil(lanes) as f64;
        let trips = ctx.cost_model.per_tile_overhead_cycles * plan.trips_per_run() as f64;
        let stage = |path: ChunkCost, trips: f64| path.dms.max(path.compute * share + trips * runs);
        if stage(stream, 0.0) < stage(gather, trips) {
            plan.take_stream_path();
        }
        plan
    }

    /// The plan that takes `path` with `conjuncts` in the order given and
    /// `expected` as the first pass's selectivity — for tests and the
    /// representation ablation, which pin what statistics would decide.
    pub fn forced(
        path: AccessPath,
        conjuncts: &'a [Pred],
        proj: &'a [usize],
        expected: f64,
    ) -> ScanPlan<'a> {
        let in_order = conjuncts.iter().map(|pred| Conjunct {
            pred,
            cols: touched_columns(&[], [pred]),
            sel: 1.0,
        });
        let mut plan = ScanPlan {
            path: AccessPath::Gather,
            passes: into_passes(in_order.collect(), &[]),
            key: None,
            proj,
            touched: touched_columns(proj, conjuncts),
        };
        if let Some(first) = plan.passes.first_mut() {
            first.sel = expected;
        }
        if path == AccessPath::Stream {
            plan.take_stream_path();
        }
        plan
    }

    /// Every conjunct into one pass, most selective first: on the stream
    /// path all their columns are in DMEM together, and the last stage of
    /// the task tests the keys.
    fn take_stream_path(&mut self) {
        self.path = AccessPath::Stream;
        self.key = None;
        let sel = self.passes.iter().map(|p| p.sel).product();
        let mut conjuncts: Vec<_> = self.passes.drain(..).flat_map(|p| p.conjuncts).collect();
        conjuncts.sort_by(|a, b| a.sel.total_cmp(&b.sel));
        if !conjuncts.is_empty() {
            self.passes.push(Pass { conjuncts, sel });
        }
    }

    /// The access path the scan takes.
    pub fn path(&self) -> AccessPath {
        self.path
    }

    /// Trips through the DMS per chunk: the one stream, or the predicate
    /// passes, the key pass and the projection's gather.
    pub fn dms_passes(&self) -> usize {
        match self.path {
            AccessPath::Stream => 1,
            AccessPath::Gather => self.passes.len() + usize::from(self.tests_keys()) + 1,
        }
    }

    /// Whether the scan tests its task's join filter: it runs a key pass.
    pub fn tests_keys(&self) -> bool {
        self.key.is_some()
    }

    /// Trips round the operator's control loop per run of rows on the
    /// gather path: one per conjunct, and one for the key pass. (The stream
    /// path takes one per tile.)
    fn trips_per_run(&self) -> usize {
        let conjuncts: usize = self.passes.iter().map(|p| p.conjuncts.len()).sum();
        conjuncts + usize::from(self.tests_keys())
    }

    /// Scan the rows of one lane — `span`, a run of rows per chunk it
    /// crosses, in table order — and hand them on where they lie: the span
    /// through the scan's projection, and which of its rows the predicate —
    /// and the key pass, where the scan runs one — kept; beside them, how
    /// many rows the predicate kept. Nothing is copied: on the stream path
    /// the kept rows stay in the tiles behind a selection vector, on the
    /// gather path the DMS packs them, charged as it moves them.
    pub fn scan_rows(
        &self,
        ctx: &mut CoreCtx,
        span: Span<'a>,
        tile: usize,
    ) -> QefResult<(Rows<'a>, usize)> {
        let of_lane = span.rows();
        if let (AccessPath::Stream, Some((first, _))) = (self.path, span.runs().next()) {
            let touched = chunk_widths(first, &self.touched);
            for _ in 0..RelationAccessor::stream(ctx, touched, of_lane, tile) {
                ctx.charge_tile();
            }
        }
        if let (Some(key), true) = (&self.key, of_lane > 0) {
            key.filter.charge_read(ctx);
        }
        let mut picked = Vec::new();
        let (mut at, mut fetched, mut entered) = (0, Vec::new(), 0);
        let gathers = self.path == AccessPath::Gather;
        for (chunk, rows) in span.runs().filter(|_| gathers || !self.passes.is_empty()) {
            let run = Run {
                chunk,
                rows,
                at,
                tile,
            };
            at += run.rows.len();
            let before = picked.len();
            let mut kind = self.qualifying(ctx, &run, &mut picked, &mut fetched)?;
            entered += picked.len() - before;
            if let Some(key) = &self.key {
                kind = self.test_keys(ctx, &run, key, kind, &mut picked, before);
            }
            let kept = picked.len() - before;
            if gathers && kept > 0 {
                let widths = chunk_widths(chunk, self.proj);
                RelationAccessor::charge_gather(ctx, widths, run.within(), kind, kept, tile);
            }
        }
        let pick = match self.path {
            AccessPath::Gather => Pick::Gathered(picked),
            AccessPath::Stream if self.passes.is_empty() => Pick::All,
            AccessPath::Stream => Pick::Selected(picked),
        };
        let entered = if gathers || !self.passes.is_empty() {
            entered
        } else {
            of_lane
        };
        let rows = Rows::InPlace {
            span,
            projection: Projection::Scan(self.proj),
            pick,
            written: Vec::new(),
        };
        Ok((rows, entered))
    }

    /// The key pass over `picked[from..]`, the rows of `run` the predicate
    /// kept, shipped to the DMS as `kind`: stream the key columns where the
    /// scan has no predicate pass, else gather them at those rows; hash and
    /// test them a run of rows at a time, in buffers on the stack, and keep
    /// the rows whose bit is set. A trip round the control loop. Returns the
    /// representation the projection's gather ships the rows left in.
    fn test_keys(
        &self,
        ctx: &mut CoreCtx,
        run: &Run<'_>,
        key: &KeyTest<'_>,
        kind: RowSetKind,
        picked: &mut Vec<u32>,
        from: usize,
    ) -> RowSetKind {
        let entering = picked.len() - from;
        if entering == 0 {
            return kind;
        }
        let widths = chunk_widths(run.chunk, &key.cols);
        if self.passes.is_empty() {
            RelationAccessor::stream(ctx, widths, run.rows.len(), run.tile);
        } else {
            RelationAccessor::charge_gather(ctx, widths, run.within(), kind, entering, run.tile);
        }
        ctx.charge_tile();
        const RUN: usize = 256;
        let (mut hashes, mut ids) = ([0u32; RUN], [0u32; RUN]);
        let mut kept = from;
        for start in (from..picked.len()).step_by(RUN) {
            let n = (picked.len() - start).min(RUN);
            let of_run = Positions::of_ids(run.rows.start, &picked[start..start + n], run.at);
            let keys = key.cols.iter().map(|&c| (run.chunk.vector(c), of_run));
            hash_pieces_into(ctx, std::iter::once(keys), &mut hashes[..n]);
            let passed = key.filter.keep(ctx, &mut hashes[..n], &mut ids[..n]);
            // The ids ascend, so no row is overwritten before it is read.
            for &id in &ids[..passed] {
                picked[kept] = picked[start + id as usize];
                kept += 1;
            }
        }
        picked.truncate(kept);
        let expected = self.passes.iter().map(|p| p.sel).product::<f64>() * key.kept;
        RowSet::choose(expected)
    }

    /// Append to `picked` the rows of `run` that every conjunct keeps,
    /// ascending, numbered as the lane scans them, and say in which
    /// representation the filter ships them to the DMS. On the gather path
    /// this is the paper's pipeline, charged as it moves data; on the stream
    /// path the caller has streamed every column and the conjuncts only
    /// compute. `fetched` is the lane's scratch list of columns
    /// ([`narrow`]).
    ///
    /// [`narrow`]: Self::narrow
    fn qualifying(
        &self,
        ctx: &mut CoreCtx,
        run: &Run<'_>,
        picked: &mut Vec<u32>,
        fetched: &mut Vec<Vector>,
    ) -> QefResult<RowSetKind> {
        let (n, from) = (run.rows.len(), picked.len());
        let Some((first, later)) = self.passes.split_first() else {
            picked.extend(run.within().map(|id| id as u32));
            return Ok(RowSetKind::Bits);
        };
        let gathers = self.path == AccessPath::Gather;
        let (head, rest) = first
            .conjuncts
            .split_first()
            .ok_or_else(|| QefError::Internal("a scan pass without a conjunct".into()))?;
        if gathers {
            RelationAccessor::stream(ctx, chunk_widths(run.chunk, &head.cols), n, run.tile);
            ctx.charge_tile();
        }
        // The first conjunct reads its columns in place as the DMS streams
        // them (the filter task's large tiles): nothing is copied.
        let at = run.at as u32;
        head.pred
            .select_rows(ctx, run.chunk.vectors(), run.rows.clone(), at, picked)?;
        for conjunct in rest {
            self.narrow(ctx, run, conjunct, picked, from, None, fetched)?;
        }
        // The 1/32 rule, on the share of the rows each pass is expected to
        // leave — decided for the scan, not by what a run of it happens to
        // keep, so that however a table is cut into lanes its row sets are
        // the same bytes: a RID-list is emitted where few rows are expected
        // to survive.
        let mut expected = first.sel;
        let mut kind = RowSet::choose(expected);
        if gathers && kind == RowSetKind::Rids {
            let emitted = (picked.len() - from) as f64;
            ctx.charge_kernel(
                Kernel::Predicate,
                &costs::filter_rid_emit_per_match().scaled(emitted),
            );
        }
        for pass in later {
            for (i, conjunct) in pass.conjuncts.iter().enumerate() {
                let opens_pass = (i == 0).then_some(kind);
                self.narrow(ctx, run, conjunct, picked, from, opens_pass, fetched)?;
            }
            expected *= pass.sel;
            kind = RowSet::choose(expected);
        }
        Ok(kind)
    }

    /// Narrow `picked[from..]` — the qualifying rows of `run` — to those
    /// `conjunct` keeps, evaluating it on those rows only. On the gather
    /// path a conjunct is a trip round the operator's control loop, and one
    /// that `opens_pass` has its columns gathered at the qualifying rows
    /// first, shipped to the DMS in the representation given. `fetched` is
    /// scratch: the chunk's column list with the copies of the columns the
    /// conjunct names in it while it is evaluated, empty placeholders
    /// otherwise.
    #[allow(clippy::too_many_arguments)]
    fn narrow(
        &self,
        ctx: &mut CoreCtx,
        run: &Run<'_>,
        conjunct: &Conjunct<'_>,
        picked: &mut Vec<u32>,
        from: usize,
        opens_pass: Option<RowSetKind>,
        fetched: &mut Vec<Vector>,
    ) -> QefResult<()> {
        let qualifying = &mut picked[from..];
        if qualifying.is_empty() {
            return Ok(());
        }
        if self.path == AccessPath::Gather {
            if let Some(kind) = opens_pass {
                let widths = chunk_widths(run.chunk, &conjunct.cols);
                let count = qualifying.len();
                RelationAccessor::charge_gather(ctx, widths, run.within(), kind, count, run.tile);
            }
            ctx.charge_tile();
        }
        // Only the columns the conjunct names are fetched; the rest stay
        // zero-length placeholders at their positions.
        let placeholder = || Vector::new(ColumnData::I8(Vec::new()));
        fetched.resize_with(run.chunk.columns(), placeholder);
        let of_chunk = qualifying
            .iter()
            .map(|&id| id as usize - run.at + run.rows.start);
        for &c in &conjunct.cols {
            let mut at_rows = ColumnBuilder::default();
            at_rows.append(run.chunk.vector(c), of_chunk.clone(), qualifying.len());
            fetched[c] = at_rows.finish();
        }
        let verdict = conjunct.pred.eval(ctx, fetched, qualifying.len());
        for &c in &conjunct.cols {
            fetched[c] = placeholder();
        }
        let mut surviving = 0;
        for at in verdict?.iter_ones() {
            qualifying[surviving] = qualifying[at];
            surviving += 1;
        }
        picked.truncate(from + surviving);
        Ok(())
    }
}

/// The rows a lane reads of one chunk.
struct Run<'a> {
    chunk: &'a Chunk,
    /// Which rows of the chunk.
    rows: Range<usize>,
    /// Rows the lane scans before them.
    at: usize,
    /// The tile it scans them at.
    tile: usize,
}

impl Run<'_> {
    /// The run's rows as the lane numbers them.
    fn within(&self) -> Range<usize> {
        self.at..self.at + self.rows.len()
    }
}

/// A `Filter` node in a task's lane. Over rows read in place it narrows
/// which of them count — the selection over the tiles, or the rows the DMS
/// gathered, which stay packed — evaluating `pred` over the columns it
/// names, read where they lie; the vectors the lane wrote keep the values
/// of the rows that still count. Over rows of the lane's own it is
/// [`filter_batch`].
pub fn filter_rows<'a>(ctx: &mut CoreCtx, rows: Rows<'a>, pred: &Pred) -> QefResult<Rows<'a>> {
    let Rows::InPlace { .. } = rows else {
        let Rows::Owned(batch) = rows else {
            unreachable!("rows are in place or owned")
        };
        return filter_batch(ctx, batch, pred).map(Rows::Owned);
    };
    ctx.charge_tile();
    let reads = (0..rows.width()).filter(|&c| pred.reads_column(c));
    rows.charge_select(ctx, reads.clone());
    let n = rows.rows();
    let verdict = pred.eval(ctx, &rows.columns_at(reads), n)?;
    if verdict.count_ones() == n {
        return Ok(rows);
    }
    let kept = verdict.to_rids().rids;
    ctx.charge_kernel(
        Kernel::Predicate,
        &costs::filter_rid_emit_per_match().scaled(kept.len() as f64),
    );
    let Rows::InPlace {
        span,
        projection,
        pick,
        written,
    } = rows
    else {
        unreachable!("matched above")
    };
    let narrowed = |ids: &[u32]| kept.iter().map(|&k| ids[k as usize]).collect();
    let pick = match pick {
        // Over whole tiles the Filter's own selection starts here.
        Pick::All => Pick::Selected(kept.clone()),
        Pick::Selected(ids) => Pick::Selected(narrowed(&ids)),
        // Rows the DMS packed stay packed: fewer of them count.
        Pick::Gathered(ids) => Pick::Gathered(narrowed(&ids)),
    };
    Ok(Rows::InPlace {
        span,
        projection,
        pick,
        written: written.iter().map(|v| v.gather(&kept)).collect(),
    })
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
    ctx.charge_kernel(
        Kernel::Predicate,
        &costs::filter_rid_emit_per_match().scaled(rids.len() as f64),
    );
    Ok(batch.gather(&rids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CoreCtx, ExecContext};
    use crate::primitives::filter::CmpOp;
    use rapid_storage::bitvec::{BitVec, RidList};
    use rapid_storage::schema::{Field, Schema};
    use rapid_storage::table::TableBuilder;
    use rapid_storage::types::{DataType, Value};

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    fn chunk(n: usize) -> Chunk {
        Chunk::new(vec![
            Vector::new(ColumnData::I32((0..n as i32).collect())),
            Vector::new(ColumnData::I32((0..n as i32).map(|i| i % 100).collect())),
        ])
    }

    fn cmp(col: usize, op: CmpOp, value: i64) -> Pred {
        Pred::CmpConst { col, op, value }
    }

    /// The selective path over `preds` in the order given.
    fn gather<'a>(preds: &'a [Pred], expected: f64) -> ScanPlan<'a> {
        ScanPlan::forced(AccessPath::Gather, preds, &[], expected)
    }

    /// The rows of all of `chunk` that `plan` keeps, as the filter ships
    /// them.
    fn filter_all(plan: &ScanPlan<'_>, ctx: &mut CoreCtx, chunk: &Chunk, tile: usize) -> RowSet {
        let run = Run {
            chunk,
            rows: 0..chunk.rows(),
            at: 0,
            tile,
        };
        let mut rids = Vec::new();
        let kind = plan
            .qualifying(ctx, &run, &mut rids, &mut Vec::new())
            .unwrap();
        match kind {
            RowSetKind::Rids => RowSet::Rids(RidList { rids }),
            RowSetKind::Bits => {
                let mut bits = BitVec::zeros(chunk.rows());
                rids.iter().for_each(|&r| bits.set(r as usize, true));
                RowSet::Bits(bits)
            }
        }
    }

    /// `plan`'s scan of all of `chunk`, as a batch.
    fn scan_all<'a>(
        plan: &ScanPlan<'a>,
        ctx: &mut CoreCtx,
        chunk: &'a Chunk,
        tile: usize,
    ) -> Batch {
        plan.scan_rows(
            ctx,
            Span::new(std::slice::from_ref(chunk), 0..chunk.rows()),
            tile,
        )
        .unwrap()
        .0
        .into_batch(ctx)
    }

    fn row_vec(rows: &RowSet) -> Vec<usize> {
        let mut got = Vec::new();
        rows.for_each_row(|i| got.push(i));
        got
    }

    #[test]
    fn single_predicate_selects_expected_rows() {
        let preds = [cmp(0, CmpOp::Lt, 250)];
        let r = filter_all(&gather(&preds, 0.25), &mut ctx(), &chunk(1000), 256);
        assert_eq!(r.count(), 250);
        assert!(matches!(r, RowSet::Bits(_)), "25% selectivity uses bits");
    }

    #[test]
    fn selective_predicate_uses_rids() {
        let preds = [cmp(0, CmpOp::Lt, 10)];
        let r = filter_all(&gather(&preds, 0.01), &mut ctx(), &chunk(1000), 256);
        assert_eq!(r.count(), 10);
        assert!(matches!(r, RowSet::Rids(_)), "1% selectivity uses RIDs");
    }

    #[test]
    fn conjunction_narrows_progressively() {
        let preds = [cmp(0, CmpOp::Lt, 500), cmp(1, CmpOp::Lt, 50)];
        let r = filter_all(&gather(&preds, 0.5), &mut ctx(), &chunk(1000), 256);
        // rows < 500 with (row % 100) < 50: 250 rows.
        assert_eq!(r.count(), 250);
    }

    #[test]
    fn empty_conjuncts_pass_everything() {
        let r = filter_all(&gather(&[], 1.0), &mut ctx(), &chunk(64), 64);
        assert_eq!(r.count(), 64);
    }

    #[test]
    fn no_survivors_short_circuits() {
        let preds = [cmp(0, CmpOp::Gt, 1_000_000), cmp(1, CmpOp::Eq, 0)];
        let mut c = ctx();
        let r = filter_all(&gather(&preds, 0.001), &mut c, &chunk(100), 64);
        assert_eq!(r.count(), 0);
        assert_eq!(c.account.counters().tiles, 1, "the second pass never ran");
    }

    #[test]
    fn both_paths_materialize_the_projection() {
        let preds = [cmp(0, CmpOp::Ge, 98)];
        for path in [AccessPath::Gather, AccessPath::Stream] {
            let b = scan_all(
                &ScanPlan::forced(path, &preds, &[1], 0.02),
                &mut ctx(),
                &chunk(100),
                64,
            );
            assert_eq!(b.column(0).data.to_i64_vec(), vec![98, 99], "{path}");
        }
    }

    #[test]
    fn filter_batch_on_intermediates() {
        let mut c = ctx();
        let b = Batch::new(vec![Vector::new(ColumnData::I64(vec![1, 5, 3, 7]))]);
        let out = filter_batch(&mut c, b, &cmp(0, CmpOp::Gt, 3)).unwrap();
        assert_eq!(out.column(0).data.to_i64_vec(), vec![5, 7]);
    }

    #[test]
    fn chunk_filter_agrees_with_naive() {
        let preds = [cmp(1, CmpOp::Ge, 30), cmp(0, CmpOp::Lt, 600)];
        let r = filter_all(&gather(&preds, 0.7), &mut ctx(), &chunk(777), 128);
        let expect: Vec<usize> = (0..777).filter(|i| i % 100 >= 30 && *i < 600).collect();
        assert_eq!(row_vec(&r), expect);
    }

    #[test]
    fn an_unpredicated_stream_charges_the_sequential_loop_and_no_row_set() {
        let (ch, mut c) = (chunk(1000), ctx());
        let b = scan_all(
            &ScanPlan::forced(AccessPath::Stream, &[], &[0, 1], 1.0),
            &mut c,
            &ch,
            256,
        );
        assert_eq!(b.rows(), 1000);
        assert_eq!(b.column(1), ch.vector(1));
        let seq = RelationAccessor::seq_read_cost(&c.cost_model, [4, 4].into_iter(), 1000, 256);
        assert_eq!(c.account.dms_cycles().get().to_bits(), seq.cycles.to_bits());
        assert_eq!(c.account.counters().dms_bytes, seq.bytes);
        assert_eq!(c.account.counters().dms_descriptors, seq.descriptors);
        // Four tiles round the control loop, nothing evaluated or compacted.
        assert_eq!(c.account.counters().tiles, 4);
        assert_eq!(c.account.counters().instructions, 0);

        // The gather path moves the same tiles slower, behind a row set.
        let mut g = ctx();
        scan_all(
            &ScanPlan::forced(AccessPath::Gather, &[], &[0, 1], 1.0),
            &mut g,
            &ch,
            256,
        );
        assert_eq!(
            g.account.counters().dms_bytes,
            seq.bytes + 1000usize.div_ceil(64) as u64 * 8
        );
        assert!(g.account.dms_cycles() > c.account.dms_cycles());
    }

    #[test]
    fn a_range_on_one_column_streams_it_once_for_the_same_instructions() {
        let ch = chunk(1000);
        let range = [cmp(0, CmpOp::Ge, 200), cmp(0, CmpOp::Lt, 700)];
        let mut c = ctx();
        let plan = gather(&range, 0.5);
        assert_eq!(
            plan.dms_passes(),
            2,
            "one predicate pass and the projection"
        );
        assert_eq!(filter_all(&plan, &mut c, &ch, 256).count(), 500);
        // One stream of the column; the second half of the range reads the
        // 800 survivors of the first where they already are.
        let seq = RelationAccessor::seq_read_cost(&c.cost_model, [4].into_iter(), 1000, 256);
        assert_eq!(c.account.dms_cycles().get().to_bits(), seq.cycles.to_bits());
        assert_eq!(c.account.counters().dms_bytes, seq.bytes);
        // What one gather per conjunct retired: both compares over the rows
        // they see, and a trip round the control loop each.
        let on_two_columns = [cmp(0, CmpOp::Ge, 200), cmp(1, CmpOp::Lt, 1000)];
        let mut apart = ctx();
        filter_all(&gather(&on_two_columns, 0.5), &mut apart, &ch, 256);
        assert_eq!(c.account.counters().instructions, 2 * 1000 + 2 * 800);
        assert_eq!(
            c.account.counters(),
            &dpu_sim::account::Counters {
                dms_bytes: seq.bytes,
                dms_descriptors: seq.descriptors,
                ..*apart.account.counters()
            }
        );
        assert_eq!(
            c.account.compute_cycles().get().to_bits(),
            apart.account.compute_cycles().get().to_bits()
        );
    }

    /// `rows` rows in `chunk_rows`-row chunks: a wide column `w` (8 bytes)
    /// and two narrow ones `a`, `b` (1 byte), all uniform.
    fn table(rows: i64, chunk_rows: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("w", DataType::Int),
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let mut t = TableBuilder::new("t", schema).chunk_rows(chunk_rows);
        for i in 0..rows {
            t.push_row(vec![
                Value::Int(i << 33),
                Value::Int(i % 100),
                Value::Int((i * 7) % 50),
            ]);
        }
        t.finish()
    }

    /// The plan of a scan whose lanes write the rows it keeps: a chain that
    /// is a task by itself, priced as [`crate::task::Task::kept_rows`]
    /// prices it.
    fn decide<'a>(t: &Table, proj: &'a [usize], pred: Option<&'a Pred>) -> ScanPlan<'a> {
        let touched = touched_columns(proj, pred);
        let kept = KeptRows {
            reads: Vec::new(),
            writes: pred.map_or(0, |_| proj.len()),
        };
        ScanPlan::decide(
            &ExecContext::dpu(),
            t,
            &t.chunks,
            proj,
            pred,
            touched,
            256,
            &kept,
            None,
        )
    }

    #[test]
    fn passes_run_in_the_order_that_moves_the_fewest_cycles() {
        let t = table(40_000, 4_000);
        assert_eq!(t.chunks[0].vector(0).data.width(), 8);
        assert_eq!(t.chunks[0].vector(1).data.width(), 1);
        // The range on the wide column keeps 40 % of the rows, `a < 50`
        // half: most selective first puts the range in front. But streaming
        // the 8-byte column at every row to gather a narrow one at 40 % of
        // them moves more than streaming the narrow one and gathering the
        // wide one at half.
        let pred = Pred::And(vec![
            cmp(0, CmpOp::Ge, 24_000 << 33),
            cmp(0, CmpOp::Lt, 40_000 << 33),
            cmp(1, CmpOp::Lt, 50),
        ]);
        let plan = decide(&t, &[2], Some(&pred));
        assert_eq!(plan.path(), AccessPath::Gather);
        let order: Vec<&[usize]> = plan.passes.iter().map(|p| p.cols()).collect();
        assert_eq!(order, [&[1][..], &[0][..]]);
        assert_eq!(plan.passes[1].conjuncts.len(), 2, "the range is one pass");
        let (narrow, wide) = (plan.passes[0].sel, plan.passes[1].sel);
        assert!((wide - 0.4).abs() < 0.02 && (narrow - 0.5).abs() < 0.02);
    }

    /// A filter of `bits` bits over `keys`, one slice: in DRAM, as a
    /// `join.filter` lane writes it, or in the probe's lanes, as a
    /// broadcast join's lanes build it beside their tables.
    fn filter_over(keys: &[i64], bits: usize, in_dram: bool) -> JoinFilter {
        let part = Batch::new(vec![Vector::new(ColumnData::I64(keys.to_vec()))]);
        if !in_dram {
            return JoinFilter::beside_tables(&part, &[0], bits).unwrap();
        }
        let mut words = vec![0; bits / 64];
        let part = [crate::batch::Run::of_batch(&part)];
        crate::ops::join_filter::build_slice(&mut ctx(), part, &[0], &[8], &mut words, 256)
            .unwrap();
        JoinFilter::of_slices(words, 1, keys.len())
    }

    #[test]
    fn a_filter_that_keeps_a_tenth_gathers_and_one_that_keeps_every_row_streams() {
        // The probe keys `a` take 100 values, 1 byte each; the projection is
        // them and the 8-byte `w`. A filter over ten of the values keeps a
        // tenth of the rows, and the scan reads the keys, tests them and
        // gathers `w` at the rest; a filter over all of them keeps every
        // row, and gathering would only add the key stream and a row set.
        let t = table(40_000, 4_000);
        let proj = [0, 1];
        let plan = |filter: &JoinFilter| {
            let touched = touched_columns(&proj, None);
            let kept = filter.kept_share(t.stats.columns[1].ndv as f64);
            let key = KeyTest {
                cols: vec![1],
                filter,
                kept,
            };
            let kept_rows = KeptRows::default();
            let plan = ScanPlan::decide(
                &ExecContext::dpu(),
                &t,
                &t.chunks,
                &proj,
                None,
                touched,
                256,
                &kept_rows,
                Some(key),
            );
            (plan.path(), plan.tests_keys(), plan.dms_passes(), kept)
        };
        let tenth = filter_over(&(0..10).collect::<Vec<_>>(), 1024, false);
        let (path, keyed, passes, kept) = plan(&tenth);
        assert!((0.1..0.2).contains(&kept), "{kept}");
        assert_eq!((path, keyed, passes), (AccessPath::Gather, true, 2));
        let all = filter_over(&(0..100).collect::<Vec<_>>(), 1024, false);
        let (path, keyed, passes, kept) = plan(&all);
        assert_eq!(kept, 1.0);
        assert_eq!((path, keyed, passes), (AccessPath::Stream, false, 1));
    }

    #[test]
    fn a_key_tested_gather_scan_charges_its_key_pass_and_the_survivors_gather() {
        // Keys 0..1000 stored in 4 bytes beside an 8-byte payload; the
        // filter holds every tenth key.
        let n = 1000;
        let ch = Chunk::new(vec![
            Vector::new(ColumnData::I32((0..n as i32).collect())),
            Vector::new(ColumnData::I64((0..n as i64).map(|i| i * 3).collect())),
        ]);
        let every_tenth: Vec<i64> = (0..n as i64).step_by(10).collect();
        let hash = |k: i64| dpu_sim::crc32::hash_u64(k as u64);
        let half = [cmp(1, CmpOp::Lt, 3 * 500)];
        for (preds, in_dram) in [(&[][..], true), (&half[..], true), (&half[..], false)] {
            let filter = filter_over(&every_tenth, 2048, in_dram);
            let key = KeyTest {
                cols: vec![0],
                filter: &filter,
                kept: 0.1,
            };
            let plan = ScanPlan {
                key: Some(key),
                ..ScanPlan::forced(AccessPath::Gather, preds, &[0, 1], 0.5)
            };
            assert_eq!(plan.dms_passes(), preds.len() + 2);
            let mut got = ctx();
            let span = Span::new(std::slice::from_ref(&ch), 0..n);
            let (rows, entered) = plan.scan_rows(&mut got, span, 256).unwrap();

            // The reference: the lane's read of the filter, where a
            // `join.filter` stage wrote it to DRAM; the predicate
            // pass, where there is one; the key column streamed — or
            // gathered at the rows the predicate kept — and a trip round
            // the control loop; the hash and test of every entering row a
            // run of 256 at a time; the projection gathered at the rows
            // whose bit is set, in the representation a tenth of the
            // entering rows ships in.
            let mut expect = ctx();
            let cm = expect.cost_model.clone();
            if in_dram {
                expect.charge_dms(&crate::ops::join_filter::read_cost(&cm, 2048));
            }
            let run = Run {
                chunk: &ch,
                rows: 0..n,
                at: 0,
                tile: 256,
            };
            let (mut entering, mut fetched) = (Vec::new(), Vec::new());
            let unkeyed = ScanPlan::forced(AccessPath::Gather, preds, &[0, 1], 0.5);
            let kind = unkeyed
                .qualifying(&mut expect, &run, &mut entering, &mut fetched)
                .unwrap();
            assert_eq!(entered, entering.len());
            if preds.is_empty() {
                RelationAccessor::stream(&mut expect, [4].into_iter(), n, 256);
            } else {
                let count = entering.len();
                RelationAccessor::charge_gather(
                    &mut expect,
                    [4].into_iter(),
                    0..n,
                    kind,
                    count,
                    256,
                );
            }
            expect.charge_tile();
            for of_run in entering.chunks(256) {
                let rows = of_run.len() as f64;
                expect.charge_kernel(Kernel::Hash, &costs::hash_per_row_per_key().scaled(rows));
                expect.charge_kernel(
                    Kernel::Join,
                    &costs::join_filter_test_per_row().scaled(rows),
                );
            }
            let kept: Vec<u32> = entering
                .iter()
                .copied()
                .filter(|&id| filter.may_match(hash(id as i64)))
                .collect();
            let kind = RowSet::choose(plan.passes.iter().map(|p| p.sel).product::<f64>() * 0.1);
            let widths = [4, 8].into_iter();
            RelationAccessor::charge_gather(&mut expect, widths, 0..n, kind, kept.len(), 256);

            assert_eq!(got.account.counters(), expect.account.counters());
            for (a, b) in [
                (
                    got.account.compute_cycles(),
                    expect.account.compute_cycles(),
                ),
                (got.account.dms_cycles(), expect.account.dms_cycles()),
            ] {
                assert_eq!(a.get().to_bits(), b.get().to_bits());
            }
            // Every tenth key of the entering rows is among those kept.
            let Rows::InPlace {
                pick: Pick::Gathered(ids),
                ..
            } = &rows
            else {
                panic!("the gather path packs the rows: {rows:?}")
            };
            assert_eq!(ids, &kept);
            assert!(entering
                .iter()
                .filter(|&&id| id % 10 == 0)
                .all(|id| ids.contains(id)));
            assert!(
                kept.len() < entering.len() / 5,
                "{} of {}",
                kept.len(),
                entering.len()
            );
        }
    }

    /// A catalog of `t`, as the engine's.
    fn catalog_of(t: Table) -> crate::plan::Catalog {
        std::iter::once(("t".to_string(), std::sync::Arc::new(t))).collect()
    }

    fn named(expr: crate::expr::Expr) -> crate::plan::NamedExpr {
        crate::plan::NamedExpr {
            expr,
            name: "e".into(),
            dtype: DataType::Int,
            scale: 0,
            dict: None,
        }
    }

    #[test]
    fn the_stream_model_charges_the_kept_rows_as_the_lanes_do() {
        use crate::expr::Expr;
        use crate::plan::{AggSpec, GroupStrategy, PlanNode};
        use crate::primitives::agg::AggFunc;
        use dpu_sim::account::Kernel;
        let catalog = catalog_of(table(40_000, 4_000));
        let t = &catalog["t"];
        let pred = cmp(1, CmpOp::Lt, 98);
        let proj = [0, 1, 2];
        let scan = PlanNode::Scan {
            table: "t".into(),
            columns: proj.to_vec(),
            pred: Some(pred.clone()),
        };
        // The same scan as a task by itself, whose lanes write what it
        // keeps, and under a map and a group table, which read it in place:
        // the map its sum's two inputs, the group table its key and the
        // column the map passed through (the sum is the lane's own).
        let alone = scan.scan_chain().unwrap().task(&catalog).unwrap().0;
        let writes = alone.kept_rows();
        assert_eq!(
            writes,
            KeptRows {
                reads: vec![],
                writes: 3
            }
        );
        let grouped = PlanNode::GroupBy {
            input: Box::new(PlanNode::Map {
                input: Box::new(scan.clone()),
                exprs: vec![
                    named(Expr::Col(1)),
                    named(Expr::add(Expr::Col(0), Expr::Col(2))),
                    named(Expr::Col(2)),
                ],
            }),
            keys: vec![0],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Sum,
                    col: 1,
                },
                AggSpec {
                    func: AggFunc::Max,
                    col: 2,
                },
            ],
            strategy: GroupStrategy::OnTheFly { slots: None },
        };
        let task = grouped
            .input_task(0, &catalog, 256, 32 * 1024)
            .unwrap()
            .unwrap();
        let reads = task.kept_rows();
        assert_eq!(
            reads,
            KeptRows {
                reads: vec![2, 2],
                writes: 0
            }
        );
        // The selection vector is the scan's: 2 bytes a row beside its
        // streams.
        assert_eq!(task.decls[0].out_widths, [crate::budget::SELECTION_BYTES]);

        // The model: compaction where the lanes write the kept rows —
        // today's term, bit for bit — and a select read per loop where they
        // are read in place.
        let cm = CostModel::default();
        let plan = ScanPlan::forced(AccessPath::Stream, std::slice::from_ref(&pred), &proj, 0.98);
        let chunk = &t.chunks[0];
        let model = Model {
            cm: &cm,
            chunk,
            tile: 256,
        };
        let kept = chunk.rows() as f64 * 0.98;
        let bare = model.stream_path(&plan, 1.0, &KeptRows::default()).compute;
        let compact = cm.kernel_cycles(&costs::swpart_gather_per_row());
        let written = model.stream_path(&plan, 1.0, &writes).compute;
        assert_eq!(
            written.to_bits(),
            (bare + compact * kept * proj.len() as f64).to_bits()
        );
        let select = |cols| cm.kernel_cycles(&costs::select_read_per_row(cols));
        let in_place = model.stream_path(&plan, 1.0, &reads).compute;
        assert_eq!(
            in_place.to_bits(),
            (bare + kept * (select(2) + select(2))).to_bits()
        );

        // The engine, over all of the table in one lane, reading the kept
        // rows in place: the same charge a kept row. (A lane that writes
        // them is charged by `Rows::into_batch`, tested beside it.)
        let ectx = ExecContext::dpu();
        let span = || Span::new(&t.chunks, 0..t.rows());
        let mut lane = CoreCtx::new(&ectx, 0);
        let (rows, _) = plan.scan_rows(&mut lane, span(), 256).unwrap();
        let n = rows.rows() as f64;
        let PlanNode::GroupBy {
            input, keys, aggs, ..
        } = &grouped
        else {
            unreachable!()
        };
        let PlanNode::Map { exprs, .. } = input.as_ref() else {
            unreachable!()
        };
        let rows = crate::ops::map::map_rows(&mut lane, rows, exprs).unwrap();
        let mut groups = crate::ops::groupby::GroupTable::new(1, aggs, 256);
        groups.consume_rows(&mut lane, &rows, keys).unwrap();
        let charged = lane.kernels.get(Kernel::Select).cycles;
        assert_eq!(charged, n * (select(2) + select(2)));

        // A Filter above a Map that widens the rows reads the Map's
        // columns, and so does a partition round over them: the Map reads
        // its sum's two inputs, the Filter the fourth column (the scan's
        // third, still in the tiles), the round every column but the sum.
        let widened = PlanNode::Filter {
            input: Box::new(PlanNode::Map {
                input: Box::new(scan.clone()),
                exprs: vec![
                    named(Expr::Col(0)),
                    named(Expr::Col(1)),
                    named(Expr::add(Expr::Col(0), Expr::Col(1))),
                    named(Expr::Col(2)),
                ],
            }),
            // Every value of the column is below 50: the Filter keeps
            // every row the scan kept.
            pred: cmp(3, CmpOp::Lt, 50),
        };
        let mut task = widened.scan_chain().unwrap().task(&catalog).unwrap().0;
        task.takes = crate::task::Takes::Reads;
        assert_eq!(
            task.kept_rows(),
            KeptRows {
                reads: vec![2, 1, 3],
                writes: 0
            }
        );
        let mut lane = CoreCtx::new(&ectx, 0);
        let (rows, _) = plan.scan_rows(&mut lane, span(), 256).unwrap();
        let PlanNode::Filter { input, pred } = &widened else {
            unreachable!()
        };
        let PlanNode::Map { exprs, .. } = input.as_ref() else {
            unreachable!()
        };
        let rows = crate::ops::map::map_rows(&mut lane, rows, exprs).unwrap();
        let rows = filter_rows(&mut lane, rows, pred).unwrap();
        assert_eq!(rows.rows() as f64, n);
        rows.charge_select(&mut lane, 0..rows.width());
        let charged = lane.kernels.get(Kernel::Select).cycles;
        assert_eq!(charged, n * (select(2) + select(1) + select(3)));

        // Over an unpredicated scan the first chain Filter makes the
        // selection: it reads the tiles whole, and what is above it reads
        // or writes the rows it keeps.
        let unpredicated = PlanNode::Filter {
            input: Box::new(PlanNode::Scan {
                table: "t".into(),
                columns: proj.to_vec(),
                pred: None,
            }),
            pred: cmp(2, CmpOp::Lt, 25),
        };
        let task = unpredicated.scan_chain().unwrap().task(&catalog).unwrap().0;
        assert_eq!(
            task.kept_rows(),
            KeptRows {
                reads: vec![],
                writes: 3
            }
        );
    }

    #[test]
    fn the_path_is_chosen_by_stage_time_not_dms_time() {
        // 157 tiles on 32 lanes: the stream's per-tile control loop is
        // spread over the cores and the sequential loop beats a gather of
        // every row — from one chunk of sixteen tiles as from ten, because
        // lanes are runs of tiles, not chunks.
        let many = table(40_000, 4_000);
        assert_eq!(decide(&many, &[0, 1], None).path(), AccessPath::Stream);
        let one_chunk = table(4_000, 4_000);
        assert_eq!(decide(&one_chunk, &[0, 1], None).path(), AccessPath::Stream);
        // One tile, one lane: a trip round the control loop on one core is
        // longer than the DMS takes either way.
        let one_tile = table(200, 4_000);
        assert_eq!(decide(&one_tile, &[0, 1], None).path(), AccessPath::Gather);
        // A point predicate gathers a row or two: nothing to stream for.
        let point = cmp(1, CmpOp::Eq, 7);
        assert_eq!(
            decide(&many, &[0, 2], Some(&point)).path(),
            AccessPath::Gather
        );
        // One that keeps nearly every row streams, compaction included.
        let most = cmp(1, CmpOp::Lt, 98);
        assert_eq!(
            decide(&many, &[0, 2], Some(&most)).path(),
            AccessPath::Stream
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::exec::{CoreCtx, ExecContext};
    use crate::primitives::filter::CmpOp;
    use proptest::prelude::*;
    use rapid_storage::bitvec::BitVec;

    /// A row of three small values; `None` is NULL.
    type Row = [Option<i8>; 3];

    fn chunk_of(rows: &[Row]) -> Chunk {
        let column = |c: usize| {
            let data = ColumnData::I8(rows.iter().map(|r| r[c].unwrap_or(0)).collect());
            let nulls = BitVec::from_bools(rows.iter().map(|r| r[c].is_none()));
            Vector::with_nulls(data, nulls)
        };
        Chunk::new((0..3).map(column).collect())
    }

    fn conjunct(kind: u8, col: usize, other: usize, v: i64) -> Pred {
        let op = [CmpOp::Lt, CmpOp::Ge, CmpOp::Ne, CmpOp::Eq][kind as usize % 4];
        match kind / 4 {
            0 => Pred::CmpConst { col, op, value: v },
            1 => Pred::Between {
                col,
                lo: v - 3,
                hi: v + 3,
            },
            _ => Pred::CmpCols {
                left: col,
                op,
                right: other,
            },
        }
    }

    /// A table of `rows` in chunks of `chunk_rows`.
    fn table_of(rows: &[Row], chunk_rows: usize) -> Table {
        use rapid_storage::schema::{Field, Schema};
        use rapid_storage::table::TableBuilder;
        use rapid_storage::types::{DataType, Value};
        let schema = Schema::new(
            ["a", "b", "c"]
                .map(|n| Field::new(n, DataType::Int))
                .to_vec(),
        );
        let mut t = TableBuilder::new("t", schema).chunk_rows(chunk_rows);
        for row in rows {
            t.push_row(
                row.iter()
                    .map(|v| v.map_or(Value::Null, |v| Value::Int(v.into())))
                    .collect(),
            );
        }
        t.finish()
    }

    proptest! {
        /// Both access paths keep exactly the rows every conjunct keeps
        /// when evaluated on its own over the whole chunk, in row order.
        #[test]
        fn both_paths_return_the_rows_every_conjunct_keeps(
            rows in proptest::collection::vec(
                (
                    proptest::option::of(-8i8..8),
                    proptest::option::of(-8i8..8),
                    proptest::option::of(-8i8..8),
                ),
                0..40,
            ),
            // Long chunks are several tiles; the short ones above include
            // the empty and the one-row chunk.
            long in any::<bool>(),
            conjuncts in proptest::collection::vec((0u8..12, 0usize..3, 0usize..3, -8i64..8), 0..5),
            sparse in any::<bool>(),
        ) {
            let rows: Vec<Row> = rows
                .iter()
                .cycle()
                .take(rows.len() * if long { 9 } else { 1 })
                .map(|&(a, b, c)| [a, b, c])
                .collect();
            let ch = chunk_of(&rows);
            let preds: Vec<Pred> = conjuncts
                .iter()
                .map(|&(kind, col, other, v)| conjunct(kind, col, other, v))
                .collect();
            let ectx = ExecContext::dpu();
            let mut oracle = BitVec::ones(ch.rows());
            for p in &preds {
                let mut c = CoreCtx::new(&ectx, 0);
                oracle.and_with(&p.eval(&mut c, ch.vectors(), ch.rows()).unwrap());
            }
            let rids = oracle.to_rids().rids;
            let proj = [2, 0];
            let want = Batch::new(proj.iter().map(|&c| ch.vector(c).gather(&rids)).collect());
            for path in [AccessPath::Stream, AccessPath::Gather] {
                let mut c = CoreCtx::new(&ectx, 0);
                let got = ScanPlan::forced(path, &preds, &proj, if sparse { 0.01 } else { 0.5 })
                    .scan_rows(&mut c, Span::new(std::slice::from_ref(&ch), 0..ch.rows()), 16)
                    .unwrap()
                    .0
                    .into_batch(&mut c);
                if rids.is_empty() {
                    prop_assert!(got.is_empty(), "{path}: {got:?}");
                } else {
                    prop_assert_eq!(&got, &want, "{}", path);
                }
            }
        }

        /// What a scan keeps, a map computes over it and a filter leaves of
        /// that, the operators of the task read the same read in place
        /// through [`Rows::runs`] as over [`Rows::into_batch`]: a group table
        /// and a partition round make the same groups, aggregates and
        /// partitions, with NULLs and over lanes that cross chunks.
        #[test]
        fn reading_the_kept_rows_in_place_equals_compacting_them(
            rows in proptest::collection::vec(
                (
                    proptest::option::of(-8i8..8),
                    proptest::option::of(-8i8..8),
                    proptest::option::of(-8i8..8),
                ),
                1..60,
            ),
            chunk_rows in 1usize..16,
            ends in (0usize..60, 0usize..60),
            conjuncts in proptest::collection::vec((0u8..12, 0usize..3, 0usize..3, -8i64..8), 0..3),
            narrow in any::<bool>(),
        ) {
            use crate::expr::Expr;
            use crate::ops::groupby::GroupTable;
            use crate::ops::partition::{scatter_lanes, RoundStep};
            use crate::plan::AggSpec;
            use crate::primitives::agg::AggFunc;
            let rows: Vec<Row> = rows.iter().map(|&(a, b, c)| [a, b, c]).collect();
            let t = table_of(&rows, chunk_rows);
            let (lo, hi) = (ends.0.min(ends.1).min(t.rows()), ends.0.max(ends.1).min(t.rows()));
            let preds: Vec<Pred> = conjuncts
                .iter()
                .map(|&(kind, col, other, v)| conjunct(kind, col, other, v))
                .collect();
            let proj = [2, 0, 1];
            // A pass-through of each column around one computed sum.
            let exprs = [Expr::Col(0), Expr::add(Expr::Col(1), Expr::Col(2)), Expr::Col(2)]
                .map(|expr| crate::plan::NamedExpr {
                    expr,
                    name: "e".into(),
                    dtype: rapid_storage::types::DataType::Int,
                    scale: 0,
                    dict: None,
                });
            let positive = Pred::CmpConst { col: 1, op: CmpOp::Ge, value: 0 };
            let aggs = [
                AggSpec { func: AggFunc::Sum, col: 1 },
                AggSpec { func: AggFunc::Count, col: 0 },
                AggSpec { func: AggFunc::Max, col: 2 },
            ];
            let ectx = ExecContext::dpu();
            for path in [AccessPath::Stream, AccessPath::Gather] {
                let plan = ScanPlan::forced(path, &preds, &proj, 0.5);
                let lane = |c: &mut CoreCtx| -> QefResult<Rows<'_>> {
                    let (rows, _) = plan.scan_rows(c, Span::new(&t.chunks, lo..hi), 4)?;
                    let rows = crate::ops::map::map_rows(c, rows, &exprs)?;
                    if narrow {
                        filter_rows(c, rows, &positive)
                    } else {
                        Ok(rows)
                    }
                };
                let mut c = CoreCtx::new(&ectx, 0);
                let in_place = lane(&mut c).unwrap();
                let copied = lane(&mut c).unwrap().into_batch(&mut c);
                let copied = Rows::Owned(copied);
                let groups = |rows: &Rows<'_>| {
                    let mut c = CoreCtx::new(&ectx, 0);
                    let mut table = GroupTable::new(1, &aggs, 16);
                    table.consume_rows(&mut c, rows, &[0]).unwrap();
                    table.emit(&mut c)
                };
                prop_assert_eq!(groups(&in_place), groups(&copied), "{}", path);
                let parts = |rows: Rows<'_>| {
                    let mut c = CoreCtx::new(&ectx, 0);
                    let map = RoundStep::first(&[0], 4, 4, None).map_rows(&mut c, &rows);
                    scatter_lanes(4, &[(rows, map)])
                };
                prop_assert_eq!(parts(in_place), parts(copied), "{}", path);
            }
        }
    }
}

#[cfg(test)]
mod pruning {
    use super::*;
    use crate::engine::Engine;
    use crate::expr::Expr;
    use crate::plan::PlanNode;
    use crate::trace::MemorySink;
    use proptest::prelude::*;
    use rapid_storage::bitvec::BitVec;
    use rapid_storage::schema::{Field, Schema};
    use rapid_storage::table::TableBuilder;
    use rapid_storage::types::{DataType, Value};
    use std::sync::Arc;

    /// A table of `slots` heap slots in chunks of `chunk_rows`: `k` is twice
    /// the slot, or a shuffle of those keys; `v` is small and NULL now and
    /// then, and NULL on every row of the chunks `null_chunks` names; `c` is
    /// a small code. The slots of the chunks `gone` names are deleted, so
    /// those chunks are empty.
    fn table(
        slots: usize,
        chunk_rows: usize,
        shuffled: bool,
        draws: &[u64],
        null_chunks: u64,
        gone: u64,
    ) -> Table {
        let draw = |i: usize, n: u64| draws[i % draws.len()].rotate_left(i as u32 % 61) % n;
        let mut keys: Vec<i64> = (0..slots as i64).map(|s| 2 * s).collect();
        if shuffled {
            for i in (1..keys.len()).rev() {
                keys.swap(i, draw(i, i as u64 + 1) as usize);
            }
        }
        let bit = |set: u64, chunk: usize| chunk < 64 && set >> chunk & 1 == 1;
        let rows: Vec<Option<Vec<Value>>> = (0..slots)
            .map(|s| {
                let chunk = s / chunk_rows;
                (!bit(gone, chunk)).then(|| {
                    let v = match bit(null_chunks, chunk) || draw(3 * s, 5) == 0 {
                        true => Value::Null,
                        false => Value::Int(draw(3 * s + 1, 17) as i64 - 8),
                    };
                    vec![
                        Value::Int(keys[s]),
                        v,
                        Value::Int(draw(3 * s + 2, 12) as i64),
                    ]
                })
            })
            .collect();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::nullable("v", DataType::Int),
            Field::new("c", DataType::Int),
        ]);
        TableBuilder::over_slots("t", schema, &rows)
            .chunk_rows(chunk_rows)
            .finish()
    }

    /// Numbers drawn one after another from a case's draws.
    struct Draws<'d> {
        draws: &'d [u64],
        at: usize,
    }

    impl Draws<'_> {
        fn next(&mut self, n: u64) -> u64 {
            self.at += 1;
            self.draws[self.at % self.draws.len()].rotate_left(self.at as u32 % 59) % n
        }

        /// A literal for a column spanning `0..span`, a few past either end.
        fn literal(&mut self, span: i64) -> i64 {
            self.next(span as u64 + 24) as i64 - 12
        }

        /// A predicate of any form over a key column of values `0..keys`
        /// and two small ones: its literals fall inside the columns' values
        /// and outside them.
        fn pred(&mut self, depth: u32, keys: i64) -> Pred {
            let col = self.next(3) as usize;
            let span = if col == 0 { keys } else { 0 };
            let ops = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            let op = ops[self.next(6) as usize];
            match self.next(if depth > 0 { 11 } else { 8 }) {
                0 | 1 => Pred::CmpConst {
                    col,
                    op,
                    value: self.literal(span),
                },
                2 => {
                    let (lo, hi) = (self.literal(span), self.literal(span));
                    let hi = if self.next(5) > 0 { hi.max(lo) } else { hi };
                    Pred::Between { col, lo, hi }
                }
                3 => {
                    let n = 1 + self.next(3);
                    let mut values: Vec<i64> = (0..n).map(|_| self.literal(span)).collect();
                    values.sort_unstable();
                    values.dedup();
                    Pred::InList { col, values }
                }
                4 => {
                    let n = 1 + self.next(16);
                    let codes = BitVec::from_bools((0..n).map(|_| self.next(3) == 0));
                    Pred::InCodes { col, codes }
                }
                5 => Pred::NotNull { col },
                6 => Pred::CmpCols {
                    left: col,
                    op,
                    right: self.next(3) as usize,
                },
                7 if self.next(3) == 0 => Pred::Const(self.next(2) == 0),
                7 => Pred::CmpExpr {
                    left: Box::new(Expr::add(Expr::Col(col), Expr::Lit(self.literal(span)))),
                    op,
                    right: Box::new(Expr::Col(self.next(3) as usize)),
                },
                8 => Pred::Not(Box::new(self.pred(depth - 1, keys))),
                kind => {
                    let n = 1 + self.next(3);
                    let arms = (0..n).map(|_| self.pred(depth - 1, keys)).collect();
                    if kind == 9 {
                        Pred::And(arms)
                    } else {
                        Pred::Or(arms)
                    }
                }
            }
        }
    }

    /// Every live row of `t`, chunk by chunk, that `pred` keeps when
    /// evaluated on that row alone: `(chunk, [k, v, c])`.
    fn kept_row_by_row(t: &Table, pred: &Pred) -> Vec<(usize, Vec<Option<i64>>)> {
        let ectx = ExecContext::dpu();
        let mut c = CoreCtx::new(&ectx, 0);
        let mut kept = Vec::new();
        for (k, chunk) in t.chunks.iter().enumerate() {
            for r in 0..chunk.rows() {
                let verdict = pred.eval_rows(&mut c, chunk.vectors(), r..r + 1).unwrap();
                if verdict.get(0) {
                    kept.push((k, chunk.vectors().iter().map(|v| v.get(r)).collect()));
                }
            }
        }
        kept
    }

    /// The rows a scan of every column of `t` under `pred` returns on
    /// `ctx`, sorted, and the chunks its event says it did not read.
    fn scanned(t: &Arc<Table>, pred: &Pred, ctx: ExecContext) -> (Vec<Vec<Option<i64>>>, u32) {
        let sink = MemorySink::new();
        let mut engine = Engine::new(ctx.with_trace(Arc::clone(&sink) as _));
        engine.load_table(Arc::clone(t));
        let plan = PlanNode::Scan {
            table: "t".into(),
            columns: vec![0, 1, 2],
            pred: Some(pred.clone()),
        };
        let (out, _) = engine.execute(&plan).unwrap();
        let batch = &out.batch;
        let mut rows: Vec<Vec<Option<i64>>> = (0..batch.rows())
            .map(|r| batch.columns.iter().map(|v| v.get(r)).collect())
            .collect();
        rows.sort();
        let pruned = sink
            .take()
            .iter()
            .filter_map(|e| e.scan)
            .map(|s| s.pruned)
            .sum();
        (rows, pruned)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128 })]

        /// A scan reads only the chunks its predicate's zone maps leave it
        /// and still returns exactly the rows a row-by-row evaluation keeps:
        /// over tables in slot order and shuffled, with NULLs, all-NULL and
        /// empty chunks, under predicates of every form whose literals fall
        /// inside the values and outside them (an empty run), on the
        /// simulated DPU and on native threads.
        #[test]
        fn a_pruned_scan_returns_the_rows_a_row_by_row_evaluation_keeps(
            slots in 0usize..400,
            chunk_rows in 4usize..64,
            shuffled in any::<bool>(),
            draws in proptest::collection::vec(any::<u64>(), 16..48),
            null_chunks in any::<u64>(),
            gone in any::<u64>(),
        ) {
            // About one chunk in four all NULL, one in eight deleted.
            let t = Arc::new(table(
                slots,
                chunk_rows,
                shuffled,
                &draws,
                null_chunks & null_chunks >> 1,
                gone & gone >> 1 & gone >> 2,
            ));
            let pred = Draws { draws: &draws, at: 0 }.pred(2, 2 * slots as i64);
            let kept = kept_row_by_row(&t, &pred);
            let run = chunk_run(Some(&pred), &t.chunks);
            for (chunk, row) in &kept {
                prop_assert!(run.contains(chunk), "{pred:?}: chunk {chunk} outside {run:?} keeps {row:?}");
            }
            let mut want: Vec<_> = kept.into_iter().map(|(_, row)| row).collect();
            want.sort();
            let pruned = (t.chunks.len() - run.len()) as u32;
            for ctx in [ExecContext::dpu(), ExecContext::native(3)] {
                let (got, read_not) = scanned(&t, &pred, ctx);
                prop_assert_eq!(&got, &want, "{:?}", pred);
                prop_assert_eq!(read_not, pruned, "{:?}", pred);
            }
        }
    }

    #[test]
    fn a_range_on_a_slot_ordered_key_reads_its_chunks_and_a_shuffled_one_reads_all() {
        let draws: Vec<u64> = (1..40u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let range = Pred::And(vec![
            Pred::CmpConst {
                col: 0,
                op: CmpOp::Ge,
                value: 200,
            },
            Pred::CmpConst {
                col: 0,
                op: CmpOp::Lt,
                value: 260,
            },
        ]);
        // Keys 200..260 are slots 100..130: chunks 3 and 4 of 32 slots.
        let ordered = Arc::new(table(320, 32, false, &draws, 0, 0));
        assert_eq!(chunk_run(Some(&range), &ordered.chunks), 3..5);
        let shuffled = Arc::new(table(320, 32, true, &draws, 0, 0));
        assert_eq!(chunk_run(Some(&range), &shuffled.chunks), 0..10);
        let (a, pruned) = scanned(&ordered, &range, ExecContext::dpu());
        let (b, none) = scanned(&shuffled, &range, ExecContext::dpu());
        assert_eq!((a.len(), pruned, none), (30, 8, 0));
        let keys = |rows: &[Vec<Option<i64>>]| rows.iter().map(|r| r[0]).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b), "the same keys, however they lie");
        // Past every key, or in a gap between two: no chunk, no row.
        for value in [-1, 641, 201] {
            let point = Pred::CmpConst {
                col: 0,
                op: CmpOp::Eq,
                value,
            };
            let run = chunk_run(Some(&point), &ordered.chunks);
            assert_eq!(run.len(), usize::from(value == 201), "{value}");
            assert_eq!(
                scanned(&ordered, &point, ExecContext::dpu()).0,
                Vec::<Vec<_>>::new()
            );
        }
        // NOT, a comparison of two columns and no predicate read everything.
        let not = Pred::Not(Box::new(range.clone()));
        for pred in [Some(&not), None] {
            assert_eq!(chunk_run(pred, &ordered.chunks), 0..10);
        }
        // An all-NULL chunk passes no comparison and no NOT NULL.
        let nulls = table(320, 32, false, &draws, 0b11_1111_1110, 0);
        let not_null = Pred::NotNull { col: 1 };
        assert_eq!(chunk_run(Some(&not_null), &nulls.chunks), 0..1);
        let or = Pred::Or(vec![
            not_null,
            Pred::CmpConst {
                col: 0,
                op: CmpOp::Ge,
                value: 600,
            },
        ]);
        assert_eq!(
            chunk_run(Some(&or), &nulls.chunks),
            0..10,
            "OR covers both arms"
        );
        assert_eq!(chunk_run(Some(&Pred::Const(false)), &nulls.chunks), 0..0);
    }
}
