//! The execution engine: interprets a QEP across the dpCores.
//!
//! The engine walks the plan DAG bottom-up and runs it **task by task**,
//! exactly as the paper describes ("operators within a task pipeline results
//! to each other via DMEM and only results at task boundaries are
//! materialized to DRAM"). A task is one stage of the actor runner:
//!
//! * a task opens with a **scan**. Its items are `min(cores, tiles)` lanes,
//!   each a contiguous, tile-aligned range of the table's rows — not
//!   chunks: a one-chunk table of sixteen tiles scans on sixteen cores. A
//!   lane reads its rows by the cheaper of the relation accessor's two
//!   patterns, chosen once per scan ([`ops::filter::ScanPlan`]), takes them
//!   through the `Filter`s and `Map`s over the scan, and — wherever the
//!   operators fit DMEM together ([`PlanNode::input_task`], the rule the
//!   verifier reports by) — through the first stage of the operator that
//!   consumes them: round one of a join side's or a group-by's partition
//!   pass, `groupby.consume`, `topk.consume`, `sort.local`. Where they do
//!   not, the task is cut there. All of it runs under the lane's one
//!   `CoreCtx`, holding at once the DMEM every operator of the task declares
//!   at the task's one vector size ([`crate::budget::task_tile`]), every
//!   operator's control loop charged per tile, and the stage rule
//!   ([`dpu_sim::account::StageSpan`]) applied once: the task costs
//!   max(busiest lane's compute, Σ DMS), the transfer of one operator hidden
//!   under the compute of the next. A lone scan is a task of one operator,
//! * everything else is a task of one operator over what the tasks below it
//!   materialized, a stage as it always was: a **join** partitions both
//!   sides (in software on the dpCores; every round of a pass a stage of
//!   tile-aligned lanes on all cores, its fan-out and tile budgeted from the
//!   widths the columns arrive in, [`PlanNode::output_widths`]), then runs
//!   per-partition-pair build/probe kernels, with large-skew
//!   re-partitioning; a **group-by** runs the on-the-fly or partitioned
//!   strategy its node declares and adds the merge operator on the low-NDV
//!   path,
//! * a join or group-by whose partitions are key ranges of tables stored in
//!   the order of its key ([`ops::ranges`]) is one stage over its inputs'
//!   chains, a lane a range: no partition pass, no pairs stage and no merge;
//!   a join one of whose inputs is no such chain partitions that input
//!   alone, by its key's value bits, and a lane reads its range's
//!   partition of it.
//!
//! An operator owns a buffer only where the DMS writes one: inputs are
//! borrowed and read in place — a lane hands on the rows of an unpredicated
//! scan where the table stores them — batches that pass through unchanged
//! are handed on by move, and a copy is made exactly where a charged gather,
//! partition write or materialization produces new bytes.
//!
//! Timing is accumulated per stage, on both clocks and on both backends:
//! the stage's simulated time from the actor runner, and the host wall time
//! since the stage before it was absorbed.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rapid_storage::table::Table;

use crate::actor::{run_stage, StageTiming};
use crate::batch::{Batch, Rows, Span};
use crate::budget::{Deal, OpName};
use crate::error::{QefError, QefResult};
use crate::exec::{Backend, CoreCtx, ExecContext};
use crate::ops;
use crate::ops::join_filter::JoinFilter;
use crate::ops::partition::{RoundStep, Route};
use crate::plan::{Catalog, ColMeta, GroupStrategy, JoinType, PlanNode};
use crate::task::{ScanChain, Task};
use crate::trace::{FilterKept, FusedOp, PartitionRound, ScanAccess, StageEvent, TraceSink};

/// Result rows plus decode metadata.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// All result rows in one batch.
    pub batch: Batch,
    /// Per-column decode metadata.
    pub meta: Vec<ColMeta>,
}

/// Timing and counter report for one executed query.
#[derive(Debug, Clone, Default)]
pub struct QueryReport {
    /// Total simulated seconds.
    pub sim_secs: f64,
    /// Total simulated elapsed cycles — the exact cycle counts behind
    /// `sim_secs`, summed per stage. Deterministic: two identical runs
    /// produce bit-identical values, on either backend.
    pub sim_cycles: f64,
    /// Energy at the DPU's provisioned power over the simulated elapsed
    /// time, in joules — the same per-stage values the trace events carry,
    /// absorbed in emission order. Deterministic.
    pub energy_joules: f64,
    /// Total host wall-clock seconds: the stages' walls, added in
    /// absorption order, so `execute`'s own time up to its last stage.
    pub wall_secs: f64,
    /// Pipeline stages executed.
    pub stages: usize,
    /// Result rows.
    pub rows: usize,
    /// Branches executed.
    pub branches: u64,
    /// Branch mispredicts.
    pub mispredicts: u64,
    /// Bytes moved by DMS descriptor programs.
    pub dms_bytes: u64,
    /// DMS descriptors executed.
    pub dms_descriptors: u64,
}

impl QueryReport {
    /// Elapsed seconds on the clock the engine's backend reports: the one
    /// place a backend picks a clock.
    pub fn elapsed_secs(&self, backend: Backend) -> f64 {
        match backend {
            Backend::Dpu => self.sim_secs,
            Backend::Native => self.wall_secs,
        }
    }

    fn absorb(&mut self, t: &StageTiming) {
        self.sim_secs += t.sim.as_secs();
        self.sim_cycles += t.elapsed.get();
        self.stages += 1;
        self.branches += t.counters.branches;
        self.mispredicts += t.counters.branch_mispredicts;
        self.dms_bytes += t.counters.dms_bytes;
        self.dms_descriptors += t.counters.dms_descriptors;
    }
}

/// One query's run through the engine: the report it accumulates, the
/// trace sink it emits to and the plan position its next stage belongs to.
/// The operators below are its methods; each finished stage goes through
/// [`Run::stage`]. With no sink installed the cost of tracing is one
/// `Option` test per stage.
struct Run<'e> {
    ctx: &'e ExecContext,
    catalog: &'e Catalog,
    report: QueryReport,
    sink: Option<Arc<dyn TraceSink>>,
    watts: f64,
    /// When the last stage was absorbed, or `execute` began.
    last: Instant,
    stage_seq: u32,
    node_seq: u32,
    /// Pre-order id of the plan node whose stages are being absorbed.
    node_id: u32,
    /// Nodes on the path from the root to that node, itself included.
    open: u32,
}

impl<'e> Run<'e> {
    fn new(engine: &'e Engine) -> Run<'e> {
        Run {
            ctx: &engine.ctx,
            catalog: &engine.catalog,
            report: QueryReport::default(),
            sink: engine.ctx.trace.clone(),
            watts: dpu_sim::power::PowerModel::dpu().watts,
            last: Instant::now(),
            stage_seq: 0,
            node_seq: 0,
            node_id: 0,
            open: 0,
        }
    }

    /// Absorb one stage of the current node into the report, emitting its
    /// trace event; `detail` says, for a task, how its scan read its table
    /// and which operators ran beneath the stage's own, and for a stage that
    /// partitions, which round it ran.
    ///
    /// The stage's host wall time is the time since the stage before it was
    /// absorbed, or since `execute` began. The event's `sim_secs` and
    /// `wall_secs` are the exact `f64`s added to the report and events are
    /// emitted in absorption order, so summing them reproduces
    /// `QueryReport::{sim_secs, wall_secs}` bit-for-bit.
    fn stage(
        &mut self,
        t: &StageTiming,
        operator: impl std::fmt::Display,
        rows: u64,
        detail: Detail,
    ) {
        let now = Instant::now();
        let wall_secs = (now - self.last).as_secs_f64();
        self.last = now;
        self.report.absorb(t);
        self.report.wall_secs += wall_secs;
        // The identical per-stage figure the trace event carries, absorbed
        // in emission order: report totals reproduce the event sums
        // bit-for-bit whether or not a sink is installed.
        self.report.energy_joules += self.watts * t.sim.as_secs();
        if let Some(sink) = &self.sink {
            let sim_secs = t.sim.as_secs();
            let c = t.counters;
            sink.record(StageEvent {
                query_id: self.ctx.query_id,
                stage_id: self.stage_seq,
                node_id: self.node_id,
                depth: self.open - 1,
                operator: operator.to_string(),
                parallelism: t.parallelism,
                lane_imbalance: t.lane_imbalance(),
                rows,
                sim_secs,
                compute_cycles: t.span.max_lane_compute.get(),
                dms_cycles: t.span.dms_total.get(),
                instructions: c.instructions,
                branches: c.branches,
                mispredicts: c.branch_mispredicts,
                dms_bytes: c.dms_bytes,
                dms_descriptors: c.dms_descriptors,
                tiles: c.tiles,
                ate_messages: c.ate_messages,
                dmem_peak_bytes: t.dmem_peak,
                scan: detail.scan,
                partition: detail.partition,
                filter: detail.filter,
                fused: detail.fused,
                kernels: crate::trace::KernelShare::of(&t.kernels),
                energy_joules: self.watts * sim_secs,
                wall_secs,
            });
        }
        self.stage_seq += 1;
    }
}

/// What a stage's event says beyond its counters.
#[derive(Debug, Default)]
struct Detail {
    /// How the stage's scan read its table.
    scan: Option<ScanAccess>,
    /// Which round of its pass the stage ran.
    partition: Option<PartitionRound>,
    /// What a join filter kept of the rows the stage tested.
    filter: Option<FilterKept>,
    /// The operators that ran beneath the stage's own.
    fused: Vec<FusedOp>,
}

impl Detail {
    fn round(round: PartitionRound, filter: Option<FilterKept>) -> Detail {
        Detail {
            partition: Some(round),
            filter,
            ..Detail::default()
        }
    }
}

/// What a task ran as: the lanes' results and what its event says.
struct TaskRun<'a, R> {
    results: Vec<R>,
    /// The stage label of the chain's topmost operator.
    top: OpName<'a>,
    timing: StageTiming,
    /// The scan's access and the chain's operators beneath the stage's own.
    detail: Detail,
    /// Rows the topmost operator of the chain handed on (counted for the
    /// trace: 0 without a sink).
    rows: u64,
}

/// The join filter a probe side's task tests.
#[derive(Debug, Clone, Copy)]
enum ProbeFilter<'a> {
    /// Built before the task, for all its lanes.
    Built(&'a JoinFilter),
    /// Built by each lane of a ranged join beside its table: `bits` bits
    /// over the build rows of its range, one of `lanes`, of `build_rows`.
    PerLane {
        bits: usize,
        build_rows: f64,
        lanes: usize,
    },
}

/// How a task's rows go to its lanes ([`Deal`]).
#[derive(Debug, Clone, Copy)]
enum Dealing {
    /// Whole tiles to `min(cores, tiles)` lanes.
    WholeTiles,
    /// Over every core the rows feed.
    Shares,
    /// Over every core the rows feed where the scan's model says that
    /// shortens the stage, each lane also paying `lane` — a broadcast probe's
    /// read and build of the build side — and `per_row` cycles for every row
    /// its scan keeps: more lanes pay for the build side more often.
    SharesIfShorter(LaneCost),
}

/// What every lane of a task pays beside its scan, in cycles: `compute` and
/// `dms` once a lane, and `per_row` compute a row it is handed.
#[derive(Debug, Clone, Copy)]
struct LaneCost {
    compute: f64,
    dms: f64,
    per_row: f64,
}

/// A scan-fed chain as the lanes of a stage run it: how its scan reads its
/// table, the tile its task runs at and the DMEM a lane of it holds, and —
/// for the trace — what each operator handed on and what the scan moved,
/// summed over the lanes.
struct ChainLanes<'a> {
    chain: ScanChain<'a>,
    table: &'a Table,
    /// The chunks the scan reads.
    chunks: ops::filter::ChunkList<'a>,
    scan: ops::filter::ScanPlan<'a>,
    /// How the task's rows are dealt to its lanes, and the tile they
    /// stream at.
    deal: Deal,
    /// DMEM a lane holds: what its task declares at the task's tile.
    working_set: usize,
    /// What every operator of its task declares, scan first.
    decls: Vec<crate::budget::OpDecl<'a>>,
    /// Rows each operator of the chain handed on, scan first: empty without
    /// a trace sink.
    handed: Vec<AtomicU64>,
    scanned_bytes: AtomicU64,
    key_tested: AtomicU64,
    key_kept: AtomicU64,
}

impl<'a> ChainLanes<'a> {
    /// The rows the scan is estimated to keep, from its table's statistics.
    fn estimated_rows(&self) -> f64 {
        let sel = self.chain.pred.map_or(1.0, |pred| {
            crate::selectivity::estimate_selectivity(pred, &self.table.stats)
        });
        self.chunks.rows() as f64 * sel
    }

    /// The operators of the chain, scan included.
    fn ops(&self) -> usize {
        self.chain.above.len() + 1
    }

    /// The filter left for the task's last stage to test: the one given,
    /// where the scan runs no key pass.
    fn untested(&self, filter: Option<&'a JoinFilter>) -> Option<&'a JoinFilter> {
        filter.filter(|_| !self.scan.tests_keys())
    }

    /// One lane's rows of `span`: scanned — the key pass, where the scan
    /// runs one, testing `filter` where one is given, else the filter its
    /// plan holds — and taken through the operators over the scan, each
    /// charged its control loop per tile of the rows it is handed.
    fn rows(
        &self,
        core: &mut CoreCtx,
        span: Span<'a>,
        filter: Option<&JoinFilter>,
    ) -> QefResult<Rows<'a>> {
        let before = core.account.counters().dms_bytes;
        let (mut rows, entered) = self.scan.scan_keyed(core, span, self.deal.tile, filter)?;
        let moved = core.account.counters().dms_bytes - before;
        self.scanned_bytes.fetch_add(moved, Ordering::Relaxed);
        if let Some(handed) = self.handed.first() {
            handed.fetch_add(entered as u64, Ordering::Relaxed);
        }
        if self.scan.tests_keys() {
            self.key_tested.fetch_add(entered as u64, Ordering::Relaxed);
            self.key_kept
                .fetch_add(rows.rows() as u64, Ordering::Relaxed);
        }
        for (op, node) in (1..).zip(&self.chain.above) {
            if rows.rows() == 0 {
                break;
            }
            charge_further_tiles(core, rows.rows(), self.deal.tile);
            rows = match node {
                PlanNode::Map { exprs, .. } => ops::map::map_rows(core, rows, exprs)?,
                PlanNode::Filter { pred, .. } => ops::filter::filter_rows(core, rows, pred)?,
                _ => unreachable!("a scan chain is filters and maps over a scan"),
            };
            if let Some(handed) = self.handed.get(op) {
                handed.fetch_add(rows.rows() as u64, Ordering::Relaxed);
            }
        }
        Ok(rows)
    }

    /// The trace's operators of the task, topmost first: the chain's nodes,
    /// numbered in pre-order from `first_id`, and — where `own_top`, the
    /// chain's topmost operator is the stage's own — that one as node
    /// `node_id`, at the depths below `open` nodes.
    fn fused(&self, first_id: u32, node_id: u32, open: u32, own_top: bool) -> Vec<FusedOp> {
        let ops_of_chain = self.ops();
        let mut ops = Vec::with_capacity(self.handed.len());
        for (i, rows) in self.handed.iter().rev().enumerate() {
            let (node_id, depth) = match (own_top, i as u32) {
                (true, 0) => (node_id, open - 1),
                (true, i) => (first_id + i - 1, open + i - 1),
                (false, i) => (first_id + i, open + i),
            };
            ops.push(FusedOp {
                node_id,
                depth,
                operator: self.decls[ops_of_chain - 1 - i].name.to_string(),
                rows: rows.load(Ordering::Relaxed),
                dms_bytes: 0,
            });
        }
        if let Some(scan) = ops.last_mut() {
            scan.dms_bytes = self.scanned_bytes.load(Ordering::Relaxed);
        }
        ops
    }

    /// How the scan read its table.
    fn access(&self) -> ScanAccess {
        ScanAccess {
            path: self.scan.path(),
            passes: self.scan.dms_passes() as u32,
            keyed: self.scan.tests_keys(),
            pruned: self.chunks.pruned() as u32,
        }
    }

    /// What the scan's key pass kept, where it ran one.
    fn kept(&self) -> Option<FilterKept> {
        self.scan.tests_keys().then(|| FilterKept {
            tested: self.key_tested.load(Ordering::Relaxed),
            kept: self.key_kept.load(Ordering::Relaxed),
        })
    }
}

/// A step function charges the trip round its operator's control loop that
/// its call is. In a task the operator runs once per tile of the rows it is
/// handed: charge the trips past the first.
fn charge_further_tiles(core: &mut CoreCtx, rows: usize, tile: usize) {
    for _ in 1..rows.div_ceil(tile.max(1)) {
        core.charge_tile();
    }
}

/// Total rows across a stage's output batches.
fn batch_rows(batches: &[Batch]) -> u64 {
    batches.iter().map(|b| b.rows() as u64).sum()
}

/// The RAPID execution engine of one node.
#[derive(Debug)]
pub struct Engine {
    ctx: ExecContext,
    catalog: Catalog,
}

impl Engine {
    /// An engine with the given execution context and empty catalog.
    pub fn new(ctx: ExecContext) -> Engine {
        Engine {
            ctx,
            catalog: Catalog::new(),
        }
    }

    /// The execution context.
    pub fn context(&self) -> &ExecContext {
        &self.ctx
    }

    /// Load (or replace) a table.
    pub fn load_table(&mut self, table: Arc<Table>) {
        self.catalog.insert(table.name.clone(), table);
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// A per-session copy of this engine under a different execution
    /// context, sharing the loaded tables (the catalog holds `Arc`s).
    /// Used to attach a multi-query stage router plus query id to each
    /// concurrent session without cloning any table data.
    pub fn fork(&self, ctx: ExecContext) -> Engine {
        Engine {
            ctx,
            catalog: self.catalog.clone(),
        }
    }

    /// Execute a plan, returning results and the timing report.
    ///
    /// When the context carries a [`TraceSink`], one
    /// [`StageEvent`](crate::trace::StageEvent) is emitted per executed
    /// stage; their `sim_secs` sum to the report's exactly.
    pub fn execute(&self, plan: &PlanNode) -> QefResult<(QueryOutput, QueryReport)> {
        let mut run = Run::new(self);
        let batches = run.exec_node(plan)?;
        let mut report = run.report;
        let meta = plan.output_meta(&self.catalog)?;
        let mut batch = Batch::concat(batches.into_iter().filter(|b| b.width() > 0).collect());
        if batch.width() == 0 && !meta.is_empty() {
            // No surviving rows: synthesize an empty batch with the right
            // column layout so callers can rely on the shape.
            batch = empty_with_layout(&plan.output_widths(&self.catalog)?);
        }
        report.rows = batch.rows();
        Ok((QueryOutput { batch, meta }, report))
    }
}

impl<'e> Run<'e> {
    /// Execute `node` at the next pre-order position: its inputs run at
    /// theirs, then its own stages are absorbed at this one.
    fn exec_node(&mut self, node: &PlanNode) -> QefResult<Vec<Batch>> {
        let parent = std::mem::replace(&mut self.node_id, self.node_seq);
        self.node_seq += 1;
        self.open += 1;
        let out = self.exec_op(node);
        self.open -= 1;
        self.node_id = parent;
        out
    }

    fn exec_op(&mut self, node: &PlanNode) -> QefResult<Vec<Batch>> {
        if let Some(chain) = node.scan_chain() {
            return self.exec_chain(chain);
        }
        match node {
            PlanNode::Scan { .. } => unreachable!("a scan is a chain of one"),
            PlanNode::Filter { input, pred } => {
                let batches = self.exec_node(input)?;
                let (out, t) = run_stage(self.ctx, batches, |core, b| {
                    ops::filter::filter_batch(core, b, pred)
                })?;
                let out: Vec<Batch> = out.into_iter().filter(|b| !b.is_empty()).collect();
                self.stage(&t, "filter", batch_rows(&out), Detail::default());
                Ok(out)
            }
            PlanNode::Map { input, exprs } => {
                let batches = self.exec_node(input)?;
                let (out, t) = run_stage(self.ctx, batches, |core, b| {
                    ops::map::map_batch(core, b, exprs)
                })?;
                self.stage(&t, "map", batch_rows(&out), Detail::default());
                Ok(out)
            }
            PlanNode::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                join_type,
                scheme,
                filter,
                ranged,
                output,
            } => {
                if ranged.any() {
                    return self.exec_ranged(node);
                }
                self.exec_join(
                    node,
                    (build, probe),
                    (build_keys, probe_keys),
                    (*join_type, output),
                    scheme,
                    *filter,
                )
            }
            PlanNode::GroupBy {
                input,
                keys,
                aggs,
                strategy,
                ..
            } => self.exec_groupby(node, input, keys, aggs, strategy),
            PlanNode::TopK {
                input, order, k, ..
            } => {
                // Per-lane top-k over the rows each is handed.
                let (heaps, t, detail, in_rows) = self.first_stage(node, input, |core, rows| {
                    let mut acc = ops::topk::TopK::new(order.clone(), *k);
                    if rows.rows() > 0 {
                        let batch = rows.into_batch(core);
                        acc.consume(core, batch)?;
                    }
                    Ok(acc)
                })?;
                self.stage(&t, "topk.consume", in_rows, detail);
                // Merge on one core.
                let (merged, t2) = run_stage(self.ctx, vec![heaps], |core, hs| {
                    let mut it = hs.into_iter();
                    let Some(mut first) = it.next() else {
                        return Ok(Batch::empty(0));
                    };
                    for h in it {
                        first.merge(core, h)?;
                    }
                    Ok(first.finish(core))
                })?;
                self.stage(&t2, "topk.merge", batch_rows(&merged), Detail::default());
                Ok(merged)
            }
            PlanNode::Sort { input, order, .. } => {
                let (sorted, t, detail, in_rows) =
                    self.first_stage(node, input, |core, rows| {
                        let b = rows.into_batch(core);
                        if b.is_empty() {
                            return Ok(b);
                        }
                        ops::sort::sort_batch(core, &b, order)
                    })?;
                self.stage(&t, "sort.local", in_rows, detail);
                let (merged, t2) = run_stage(self.ctx, vec![sorted], |core, bs| {
                    ops::sort::merge_sorted(core, &bs, order)
                })?;
                self.stage(&t2, "sort.merge", batch_rows(&merged), Detail::default());
                Ok(merged)
            }
            PlanNode::Limit { input, n } => {
                let batches = self.exec_node(input)?;
                let all = Batch::concat(batches);
                if *n >= all.rows() {
                    return Ok(vec![all]);
                }
                let rids: Vec<u32> = (0..*n as u32).collect();
                Ok(vec![all.gather(&rids)])
            }
            PlanNode::SetOp { left, right, op } => {
                let l = self.exec_node(left)?;
                let r = self.exec_node(right)?;
                let widths = node.output_widths(self.catalog)?;
                let (out, t) = run_stage(self.ctx, vec![(l, r)], |core, (l, r)| {
                    ops::setops::set_op(core, &l, &r, *op, &widths)
                })?;
                self.stage(&t, "setop", batch_rows(&out), Detail::default());
                Ok(out)
            }
            PlanNode::Window {
                input,
                partition_by,
                order_by,
                func,
            } => {
                let batches = self.exec_node(input)?;
                if batches.is_empty() {
                    // No rows, no batch: one concatenated from nothing has
                    // no columns for the Map above to index.
                    return Ok(batches);
                }
                let all = Batch::concat(batches);
                let (out, t) = run_stage(self.ctx, vec![all], |core, b| {
                    ops::window::window_batch(core, &b, partition_by, order_by, *func)
                })?;
                self.stage(&t, "window", batch_rows(&out), Detail::default());
                Ok(out)
            }
        }
    }

    /// Run `task` — a scan, the filters and maps over it and, where
    /// [`PlanNode::input_task`] put it there, the first stage of the node
    /// that consumes them.
    ///
    /// The task is ONE stage. Its items are lanes, each a contiguous range
    /// of the table's rows, as [`Deal`] deals them: whole tiles to
    /// `min(cores, tiles)` lanes where the chain is a task by itself, else
    /// over every core the rows can feed. A lane scans its rows, takes them
    /// through the chain and hands what is left to `step`, all under one
    /// `CoreCtx` that holds the DMEM every operator of the task declares at
    /// the task's one vector size ([`crate::budget::task_tile`], at the
    /// widths this engine's catalog stores). Every operator's control loop
    /// is charged per tile of the rows it is handed, at the tile the deal
    /// streams (`step` charges its own). A chain that does not fit
    /// on its own is refused ([`QefError::DmemExhausted`]): there is nothing
    /// left to cut.
    ///
    /// `probe` is the join filter the task's last stage tests, where it is
    /// a probe side's first stage that has one, and the join's keys over
    /// what the chain hands on. The scan tests it instead wherever it takes
    /// the gather path ([`ops::filter::ScanPlan::decide`]); `step` is handed
    /// the filter left for it to test, and the event says what the scan's
    /// test kept.
    fn run_task<'a, R: Send>(
        &mut self,
        task: Task<'a>,
        probe: Option<(&'a [usize], &'a JoinFilter)>,
        lane: Option<LaneCost>,
        step: impl Fn(&mut CoreCtx, Rows<'a>, usize, Option<&'a JoinFilter>) -> QefResult<R> + Sync,
    ) -> QefResult<TaskRun<'a, R>>
    where
        'e: 'a,
    {
        // The chain's topmost operator is the stage's own unless the
        // consumer's first stage ended the task. A task that ends in a
        // consumer deals its rows over every core — where each lane pays
        // `lane` beside its scan, only where that shortens the stage; a lone
        // scan chain keeps whole tiles, and so does a task each of whose
        // lanes reads a join filter from DRAM: equal shares would multiply
        // those reads (the cost model prices them at the same deal).
        let own_top = task.decls.len() == task.chain.above.len() + 1;
        let dealing = match (own_top || probe.is_some_and(|(_, f)| f.in_dram()), lane) {
            (true, _) => Dealing::WholeTiles,
            (false, None) => Dealing::Shares,
            (false, Some(lane)) => Dealing::SharesIfShorter(lane),
        };
        let built = probe.map(|(keys, f)| (keys, ProbeFilter::Built(f)));
        let side = self.chain_lanes(task, built, dealing)?;
        let untested = side.untested(probe.map(|(_, filter)| filter));
        // The lanes own the list's rows in chunk order, which is heap-slot
        // order.
        let (deal, tile) = (side.deal, side.deal.tile);
        let lanes: Vec<Range<usize>> = (0..deal.lanes).map(|l| deal.lane_rows(l)).collect();
        let (results, timing) = run_stage(self.ctx, lanes, |core, lane| {
            let _vectors = core.dmem.reserve_raw(side.working_set)?;
            let rows = side.rows(core, Span::of_list(side.chunks, lane), None)?;
            step(core, rows, tile, untested)
        })?;
        // Pre-order ids: the chain's nodes follow the node whose stage this
        // is — which is the topmost of them where no consumer joined.
        let first_id = self.node_seq;
        self.node_seq += (side.ops() - usize::from(own_top)) as u32;
        let mut ops = side.fused(first_id, self.node_id, self.open, own_top);
        let rows = ops.first().map_or(0, |top| top.rows);
        if own_top && !ops.is_empty() {
            ops.remove(0);
        }
        Ok(TaskRun {
            results,
            timing,
            detail: Detail {
                scan: Some(side.access()),
                filter: side.kept(),
                fused: ops,
                ..Detail::default()
            },
            rows,
            top: side.decls[side.ops() - 1].name,
        })
    }

    /// `task`'s chain as the lanes of a stage run it
    /// ([`ChainLanes`]), its scan decided against the table this engine's
    /// catalog holds. `probe` is the join filter the task's last stage
    /// tests, where it is a probe side's first stage that has one, and the
    /// join's keys over what the chain hands on. The scan tests it in a key
    /// pass wherever it takes the gather path
    /// ([`ops::filter::ScanPlan::decide`]). `dealing` deals the rows of the
    /// chunks it reads, at the task's tile, to this engine's cores.
    fn chain_lanes<'a>(
        &self,
        task: Task<'a>,
        probe: Option<(&'a [usize], ProbeFilter<'a>)>,
        dealing: Dealing,
    ) -> QefResult<ChainLanes<'a>>
    where
        'e: 'a,
    {
        let catalog: &'a Catalog = self.catalog;
        let kept = task.kept_rows();
        let Task {
            chain,
            touched,
            decls,
            ..
        } = task;
        let table: &'a Table = catalog
            .get(chain.table)
            .ok_or_else(|| QefError::TableNotLoaded(chain.table.to_string()))?;
        let (tile, working_set) = self.task_tile(&decls)?;
        let (columns, pred) = (chain.columns, chain.pred);
        // The keys as the table's columns, and the share of rows the filter
        // keeps: the build rows match at most as many of the probe rows as
        // their keys' distinct values say.
        let key = probe.and_then(|(keys, filter)| {
            let cols = chain.table_columns(keys)?;
            let ndv = cols
                .iter()
                .map(|&c| table.stats.column(c).map_or(1, |s| s.ndv));
            let ndv: f64 = ndv.map(|n| n as f64).product();
            let (filter, kept) = match filter {
                ProbeFilter::Built(filter) => (Some(filter), filter.kept_share(ndv)),
                ProbeFilter::PerLane {
                    bits,
                    build_rows,
                    lanes,
                } => {
                    let matching = build_rows / ndv.max(1.0);
                    let of_lane = build_rows / lanes.max(1) as f64;
                    (
                        None,
                        ops::join_filter::kept_fraction(matching, of_lane, bits),
                    )
                }
            };
            Some(ops::filter::KeyTest { cols, filter, kept })
        });
        // The chunks the predicate's zone maps cannot rule out, on the table
        // this statement runs on.
        let chunks = ops::filter::ChunkList::of(pred, &table.chunks);
        let (rows, cores) = (chunks.rows(), self.ctx.cores);
        let decide = |deal, touched, key| {
            ops::filter::ScanPlan::decide(
                self.ctx, table, chunks, columns, pred, touched, deal, &kept, key,
            )
        };
        let (whole, shares) = (
            Deal::whole_tiles(rows, tile, cores),
            Deal::shares(rows, tile, cores),
        );
        let (deal, scan) = match dealing {
            Dealing::WholeTiles => (whole, decide(whole, touched, key)),
            Dealing::SharesIfShorter(lane) if shares != whole => {
                // The stage each deal makes by the scan's model: its busiest
                // lane's compute, and the DMS of all, each lane paying `lane`.
                let sel = pred.map_or(1.0, |pred| {
                    crate::selectivity::estimate_selectivity(pred, &table.stats)
                }) * key.as_ref().map_or(1.0, |key| key.kept);
                let stage = |deal: Deal, scan: &ops::filter::ScanPlan<'_>| {
                    let (compute, dms) = scan.estimate();
                    let held = (deal.tiles.div_ceil(deal.lanes.max(1)) * deal.tile).min(rows);
                    let compute = compute + lane.compute + held as f64 * sel * lane.per_row;
                    compute.max(dms + deal.lanes as f64 * lane.dms)
                };
                let of_whole = decide(whole, touched.clone(), key.clone());
                let of_shares = decide(shares, touched, key);
                match stage(shares, &of_shares) < stage(whole, &of_whole) {
                    true => (shares, of_shares),
                    false => (whole, of_whole),
                }
            }
            Dealing::Shares | Dealing::SharesIfShorter(_) => (shares, decide(shares, touched, key)),
        };
        // For the trace: rows each operator of the chain hands on, scan
        // first, and the bytes the scan moves — statistics the lanes add up,
        // nothing a lane reads.
        let ops_of_chain = chain.above.len() + 1;
        let traced = if self.sink.is_some() { ops_of_chain } else { 0 };
        Ok(ChainLanes {
            decls,
            table,
            chunks,
            scan,
            chain,
            deal,
            working_set,
            handed: (0..traced).map(|_| AtomicU64::new(0)).collect(),
            scanned_bytes: AtomicU64::new(0),
            key_tested: AtomicU64::new(0),
            key_kept: AtomicU64::new(0),
        })
    }

    /// The tile a task of `decls` runs at and the DMEM each of its lanes
    /// holds ([`crate::budget::task_tile`]) in this engine's scratchpad;
    /// [`QefError::DmemExhausted`] where they do not fit at a minimum vector.
    fn task_tile(&self, decls: &[crate::budget::OpDecl<'_>]) -> QefResult<(usize, usize)> {
        let fit = crate::budget::task_tile(self.ctx.tile_rows, decls, self.ctx.dmem_bytes);
        fit.ok_or_else(|| {
            let names: Vec<String> = decls.iter().map(|d| d.name.to_string()).collect();
            QefError::DmemExhausted(format!(
                "task [{}] holds {} B of state and {} B/row of vectors: over DMEM ({} B) even at \
                 {}-row vectors",
                names.join(" -> "),
                crate::budget::task_state(decls),
                crate::budget::task_streams(decls).sum::<usize>(),
                self.ctx.dmem_bytes,
                crate::budget::MIN_VECTOR_ROWS
            ))
        })
    }

    /// A scan-fed chain nothing above joined: a task of its own, handing on
    /// one batch per lane that kept a row.
    fn exec_chain(&mut self, chain: ScanChain<'_>) -> QefResult<Vec<Batch>> {
        let (task, _) = chain.task(self.catalog)?;
        let run = self.run_task(task, None, None, |core, rows, _, _| {
            Ok(rows.into_batch(core))
        })?;
        let out: Vec<Batch> = run.results.into_iter().filter(|b| !b.is_empty()).collect();
        self.stage(&run.timing, run.top, run.rows, run.detail);
        Ok(out)
    }

    /// Run `step` — the first stage of `node` — over what `input` hands on:
    /// in the lanes of the input's task wherever it fits there
    /// ([`PlanNode::input_task`]), the task's last operator; else as a stage
    /// of its own over the input's batches. Returns the results, the stage's
    /// timing and detail, and the rows that reached the step.
    fn first_stage<R: Send>(
        &mut self,
        node: &PlanNode,
        input: &PlanNode,
        step: impl for<'r> Fn(&mut CoreCtx, Rows<'r>) -> QefResult<R> + Sync,
    ) -> QefResult<(Vec<R>, StageTiming, Detail, u64)> {
        let (catalog, ctx) = (self.catalog, self.ctx);
        if let Some(task) = node.input_task(0, catalog, ctx.tile_rows, ctx.dmem_bytes)? {
            let run = self.run_task(task, None, None, |core, rows, tile, _| {
                charge_further_tiles(core, rows.rows(), tile);
                step(core, rows)
            })?;
            return Ok((run.results, run.timing, run.detail, run.rows));
        }
        let batches = self.exec_node(input)?;
        let in_rows = batch_rows(&batches);
        let (out, t) = run_stage(self.ctx, batches, |core, b| step(core, Rows::Owned(b)))?;
        Ok((out, t, Detail::default(), in_rows))
    }

    /// The tile of a partition pass over columns of `widths` that holds
    /// `held` bytes of state beside its own (a join filter): every column
    /// streams through DMEM beside the hash lane. `Err` is the §5.2 halting
    /// condition: even a minimum vector does not fit.
    fn partition_tile(&self, widths: &[usize], held: usize) -> QefResult<usize> {
        let stream = crate::budget::partition_stream_bytes(widths.iter().sum());
        let state = crate::budget::BASE_STATE_BYTES + held;
        crate::budget::effective_tile(self.ctx.tile_rows, state, stream, self.ctx.dmem_bytes)
            .ok_or_else(|| {
                QefError::DmemExhausted(format!(
                    "partition pass ({state} B state + {stream} B/row) exceeds DMEM ({} B) even \
                     at {}-row vectors",
                    self.ctx.dmem_bytes,
                    crate::budget::MIN_VECTOR_ROWS
                ))
            })
    }

    /// Partition what input `edge` of `node` hands on by `keys`, sending each
    /// row as `route` says, through the rounds of `scheme` on all cores:
    /// every round is a stage, absorbed
    /// under `operator` with the rows it partitioned. Wherever it fits there,
    /// round one is the last operator of the input's task — each
    /// lane partitions the rows it scanned
    /// ([`ops::partition::RoundStep::map_rows`]) — and the rounds after it
    /// are stages over what it wrote; else the input runs first and every
    /// round is a stage over its batches
    /// ([`ops::partition::partition_pass`]). Round one tests its rows
    /// against `filter`, where the pass has one: a join's probe side.
    ///
    /// The scheme is the plan's and runs as declared. A round wider than
    /// the local buffers of these rows allow
    /// ([`crate::budget::max_buffered_fanout`], at the widths this engine's
    /// catalog stores) is refused: the plan was compiled when a table's
    /// columns were narrower and is the caller's to recompile.
    #[allow(clippy::too_many_arguments)]
    fn partition_input(
        &mut self,
        node: &PlanNode,
        edge: usize,
        (keys, route): (&[usize], Route<'_>),
        scheme: &[usize],
        filter: Option<&JoinFilter>,
        operator: &str,
    ) -> QefResult<Vec<Batch>> {
        let input = node
            .inputs()
            .nth(edge)
            .ok_or_else(|| QefError::Internal(format!("{operator}: no input {edge}")))?;
        let widths = input.output_widths(self.catalog)?;
        let row_bytes: usize = widths.iter().sum();
        let cap = crate::budget::max_buffered_fanout(row_bytes, self.ctx.dmem_bytes);
        if let Some(round) = scheme.iter().position(|&fanout| fanout > cap) {
            return Err(QefError::BadPlan(format!(
                "{operator}: round {} of scheme {scheme:?} is {}-way, over the {cap}-way \
                 local-buffer cap of {row_bytes}-byte rows in {} B of DMEM",
                round + 1,
                scheme[round],
                self.ctx.dmem_bytes
            )));
        }
        let held = filter.map_or(0, |f| ops::join_filter::bytes(f.bits()));
        let tile = self.partition_tile(&widths, held)?;
        let (catalog, ctx) = (self.catalog, self.ctx);
        let Some(task) = node.input_task(edge, catalog, ctx.tile_rows, ctx.dmem_bytes)? else {
            let batches = self.exec_node(input)?;
            // The tile, and the fan-out cap of the scheme, were budgeted
            // from the static widths: what arrives must be exactly that wide.
            debug_assert!(
                batches.iter().filter(|b| !b.is_empty()).all(|b| b
                    .columns
                    .iter()
                    .map(|c| c.data.width())
                    .eq(widths.iter().copied())),
                "{operator}: batches are not {widths:?} bytes wide"
            );
            let rows = batch_rows(&batches);
            return ops::partition::partition_pass(
                self.ctx,
                batches,
                (keys, route),
                scheme,
                tile,
                filter,
                |t, round, kept| self.stage(t, operator, rows, Detail::round(round, kept)),
            );
        };
        ops::partition::check_scheme(scheme)?;
        // `input_task` found a round one to run in the task.
        let fanout = scheme[0];
        let probe = filter.map(|f| (keys, f));
        let mut run = self.run_task(task, probe, None, |core, rows, tile, untested| {
            let step = RoundStep::first((keys, route), fanout, tile, untested);
            let map = step.map_rows(core, &rows);
            Ok((rows, map))
        })?;
        let first = ops::partition::scatter_lanes(fanout, &run.results);
        run.detail.partition = Some(PartitionRound {
            round: 1,
            rounds: scheme.len() as u32,
            fanout: fanout as u32,
        });
        let rows = run.rows;
        // Where the scan did not test the rows, round one did.
        if run.detail.filter.is_none() {
            run.detail.filter = ops::partition::filtered(filter, rows as usize, &first);
        }
        self.stage(&run.timing, operator, rows, run.detail);
        let keys = (keys, route);
        ops::partition::partition_rounds_after(self.ctx, first, keys, scheme, tile, |t, round| {
            self.stage(t, operator, rows, Detail::round(round, None))
        })
    }

    /// A join of `scheme`'s rounds — broadcast where it has none — with the
    /// join filter of `filter` bits where it declares one, writing the
    /// columns `output` lists.
    fn exec_join(
        &mut self,
        node: &PlanNode,
        (build, probe): (&PlanNode, &PlanNode),
        (build_keys, probe_keys): (&[usize], &[usize]),
        (join_type, output): (JoinType, &[usize]),
        scheme: &[usize],
        filter: Option<usize>,
    ) -> QefResult<Vec<Batch>> {
        if build_keys.len() != probe_keys.len() || build_keys.is_empty() {
            return Err(QefError::BadPlan("join key arity mismatch".into()));
        }
        if let Some(bits) = filter {
            ops::join_filter::check(bits, join_type, scheme).map_err(QefError::BadPlan)?;
        }
        if scheme.is_empty() {
            let keys = (build_keys, probe_keys);
            return self.exec_broadcast(node, (build, probe), keys, (join_type, output), filter);
        }
        let build_widths = build.output_widths(self.catalog)?;
        let probe_widths = probe.output_widths(self.catalog)?;

        // Partition both sides; each side's tile is clamped to its own
        // stream width. The filter is built between them, over what the
        // build side's pass wrote, for the probe side's round one to test.
        let (build_route, probe_route) = ((build_keys, Route::Hash), (probe_keys, Route::Hash));
        let bparts =
            self.partition_input(node, 0, build_route, scheme, None, "join.partition-build")?;
        let filter = match filter {
            Some(bits) => {
                Some(self.join_filter(&bparts, build_keys, &build_widths, scheme, bits)?)
            }
            None => None,
        };
        let filter = filter.as_ref();
        let pparts =
            self.partition_input(node, 1, probe_route, scheme, filter, "join.partition-probe")?;
        let build_rows: usize = bparts.iter().map(Batch::rows).sum();
        let partitions: usize = scheme.iter().product();
        let est_per_partition = (build_rows / partitions.max(1)).max(1);

        // Join partition pairs in parallel; handle large skew by extra
        // partitioning rounds inside the worker.
        let pairs: Vec<(Batch, Batch)> = bparts.into_iter().zip(pparts).collect();
        let join = PairJoin {
            build_keys,
            probe_keys,
            join_type,
            est_rows: est_per_partition,
            output: ops::join::Output {
                columns: output,
                probe_width: probe_widths.len(),
                build_widths: &build_widths,
            },
            tile: self
                .partition_tile(&build_widths, 0)?
                .min(self.partition_tile(&probe_widths, 0)?),
        };
        let (joined, t3) = run_stage(self.ctx, pairs, |core, (b, p)| join.pair(core, b, p, 0))?;
        let joined: Vec<Batch> = joined.into_iter().filter(|b| !b.is_empty()).collect();
        self.stage(&t3, "join.pairs", batch_rows(&joined), Detail::default());
        Ok(joined)
    }

    /// The `join.filter` stage: the filter of `bits` bits over the keys of
    /// `parts`, the partitions the build side's pass of `scheme` wrote. A
    /// lane builds the slice of one round-one partition — the partitions the
    /// rounds after it made of it, which lie together — holding the slice
    /// and its key streams ([`Self::filter_lanes`]).
    fn join_filter(
        &mut self,
        parts: &[Batch],
        keys: &[usize],
        widths: &[usize],
        scheme: &[usize],
        bits: usize,
    ) -> QefResult<JoinFilter> {
        let fanout = scheme[0];
        let (key_widths, tile, working_set) = self.filter_lanes(keys, widths, bits, fanout)?;
        let of_partition: usize = scheme[1..].iter().product();
        let mut words = vec![0; bits / 64];
        let lanes = parts
            .chunks(of_partition)
            .zip(words.chunks_mut(bits / 64 / fanout))
            .collect();
        let (_, t) = run_stage(self.ctx, lanes, |core, (parts, slice)| {
            let _slice = core.dmem.reserve_raw(working_set)?;
            let parts = parts.iter().map(crate::batch::Run::of_batch);
            ops::join_filter::build_slice(core, parts, keys, &key_widths, slice, tile)
        })?;
        let build_rows = batch_rows(parts);
        self.stage(&t, "join.filter", build_rows, Detail::default());
        Ok(JoinFilter::of_slices(words, fanout, build_rows as usize))
    }

    /// What a lane of a `join.filter` stage over `keys` of a build side
    /// stored `widths` needs to build a slice of a filter of `bits` bits cut
    /// into round one's `fanout` slices: the keys' widths, and the tile it
    /// reads them at and the DMEM it holds
    /// ([`crate::task::join_filter_decl`]).
    fn filter_lanes(
        &self,
        keys: &[usize],
        widths: &[usize],
        bits: usize,
        fanout: usize,
    ) -> QefResult<(Vec<usize>, usize, usize)> {
        let key_widths = keys
            .iter()
            .map(|&k| widths.get(k).copied())
            .collect::<Option<Vec<usize>>>()
            .ok_or_else(|| QefError::BadPlan("join key out of the build side's columns".into()))?;
        let decl = crate::task::join_filter_decl(&key_widths, bits, fanout);
        let (tile, working_set) = self.task_tile(std::slice::from_ref(&decl))?;
        Ok((key_widths, tile, working_set))
    }

    /// A join of no rounds, broadcast ([`ops::join::Broadcast`]): the build
    /// side runs as a node of its own and is concatenated, and every lane of
    /// the probe's `join.probe` stage reads all of it, builds its table in
    /// the state the stage declares — beside it, where the join declares a
    /// filter of `filter` bits, the filter's copy, whose words the host
    /// fills once ([`JoinFilter::beside_tables`]) — and probes its own rows:
    /// of them, where the probe's scan did not test them against the
    /// filter, the rows whose bit is set. The stage is the last operator of
    /// the probe's task wherever they fit together
    /// ([`PlanNode::input_task`]); else it runs over the probe's batches,
    /// dealt to the lanes in runs so that a lane builds the table once.
    fn exec_broadcast(
        &mut self,
        node: &PlanNode,
        (build, probe): (&PlanNode, &PlanNode),
        (build_keys, probe_keys): (&[usize], &[usize]),
        (join_type, output): (JoinType, &[usize]),
        filter: Option<usize>,
    ) -> QefResult<Vec<Batch>> {
        let (catalog, ctx) = (self.catalog, self.ctx);
        let build_widths = build.output_widths(catalog)?;
        let probe_widths = probe.output_widths(catalog)?;
        let built = self.exec_node(build)?;
        let built = Batch::concat(built.into_iter().filter(|b| !b.is_empty()).collect());
        let filter = filter
            .map(|bits| JoinFilter::beside_tables(&built, build_keys, bits))
            .transpose()?;
        let filter = filter.as_ref();
        let held = filter.map_or(0, |f| ops::join_filter::bytes(f.bits()));
        let decl = crate::task::join_probe_decl(&probe_widths, ctx.dmem_bytes, held);
        let join = ops::join::Broadcast {
            build: &built,
            build_keys,
            probe_keys,
            join_type,
            build_widths: &build_widths,
            output,
            capacity: ops::join::broadcast_capacity(
                built.rows(),
                build_keys.len(),
                build_widths.iter().sum(),
                decl.state_bytes - held,
            ),
            filter,
        };
        // Every lane builds the same table: one host table stands for them.
        let table = join.host_table()?;
        let table = table.as_ref();
        let (out, timing, mut detail, tested) = if let Some(task) =
            node.input_task(1, catalog, ctx.tile_rows, ctx.dmem_bytes)?
        {
            let probe = filter.map(|f| (probe_keys, f));
            // What a lane pays for the build side, and about a probe row.
            let mut core = CoreCtx::new(ctx, 0);
            join.charge_build_side(&mut core, table, ctx.tile_rows);
            let lane = LaneCost {
                compute: core.account.compute_cycles().get(),
                dms: core.account.dms_cycles().get(),
                per_row: join.probe_row_cycles(
                    &ctx.cost_model,
                    ops::join::probe_reads(probe_keys, output, probe_widths.len()),
                ),
            };
            let run = self.run_task(task, probe, Some(lane), |core, rows, tile, untested| {
                join.lane(core, table, [rows], tile, untested.is_some())
            })?;
            (run.results, run.timing, run.detail, run.rows)
        } else {
            let (tile, working_set) = self.task_tile(std::slice::from_ref(&decl))?;
            let batches: Vec<Batch> = self.exec_node(probe)?;
            let batches: Vec<Batch> = batches.into_iter().filter(|b| !b.is_empty()).collect();
            let in_rows = batch_rows(&batches);
            // Lane `l` holds batches `l * n / lanes .. (l + 1) * n / lanes`.
            let (n, lanes) = (batches.len(), ctx.cores.min(batches.len()));
            let mut dealt: Vec<Vec<Batch>> = (0..lanes).map(|_| Vec::new()).collect();
            for (i, batch) in batches.into_iter().enumerate() {
                dealt[i * lanes / n].push(batch);
            }
            let (out, t) = run_stage(ctx, dealt, |core, lane| {
                let _state = core.dmem.reserve_raw(working_set)?;
                join.lane(core, table, lane.into_iter().map(Rows::Owned), tile, true)
            })?;
            (out, t, Detail::default(), in_rows)
        };
        // Where the scan did not test the rows, the probe did.
        if detail.filter.is_none() && filter.is_some() {
            detail.filter = Some(FilterKept {
                tested,
                kept: out.iter().map(|(_, probed)| *probed as u64).sum(),
            });
        }
        let out: Vec<Batch> = out
            .into_iter()
            .flat_map(|(batches, _)| batches)
            .filter(|b| !b.is_empty())
            .collect();
        self.stage(&timing, "join.probe", batch_rows(&out), detail);
        Ok(out)
    }

    /// A ranged join or group-by ([`ops::ranges`]): ONE stage of as many
    /// lanes as its scheme has partitions, each a key range, in key order.
    /// Where the node reads every input by range, the bounds are picked from
    /// the larger input. A join that reads one input by range cuts the keys
    /// by value bits from that input's listed zone maps
    /// ([`ops::ranges::Radix`]) and first partitions the other input — any
    /// plan — by them, a pass like any join side's, so that its partition
    /// `r` holds the keys of range `r`. A lane of a join puts its range's
    /// build rows in its table — of a chain, as the scan hands them on; of a
    /// partitioned input, its partition as the pass wrote it — half of
    /// DMEM, as a broadcast lane's, a block of the range at a time where
    /// both inputs arrive in key order and they overflow it
    /// ([`ops::ranges::blocks`]), sets the bits of its own join filter beside
    /// it where the join declares one, and probes its range's probe rows
    /// against it where they lie, a tile at a time
    /// ([`ops::join::Broadcast::probe`]): a probe chain's scan, where it
    /// takes the gather path, tests them against the filter in its key pass
    /// before it gathers, else the probe does. A lane of a group-by
    /// aggregates its range's rows in a table of its own and emits it, with
    /// no merge: a group's rows are all in one range. Each chain holds in
    /// DMEM what its task declares ([`PlanNode::ranged_tasks`]) while it is
    /// scanned.
    fn exec_ranged(&mut self, node: &PlanNode) -> QefResult<Vec<Batch>> {
        let (catalog, ctx) = (self.catalog, self.ctx);
        let bad = |why: &str| QefError::BadPlan(format!("a ranged operator: {why}"));
        let scheme = node.ranged_scheme().ok_or_else(|| bad("no scheme"))?;
        let mut tasks = node
            .ranged_tasks(catalog, ctx.dmem_bytes)?
            .ok_or_else(|| bad("an input it reads by range is no scan-fed chain"))?
            .into_iter();
        let (keys, filter, build_widths, output): (Vec<&[usize]>, _, _, _) = match node {
            PlanNode::HashJoin {
                build,
                build_keys,
                probe_keys,
                join_type,
                filter,
                output,
                ..
            } => {
                if let Some(bits) = filter {
                    ops::join_filter::check(*bits, *join_type, &[]).map_err(QefError::BadPlan)?;
                }
                let widths = build.output_widths(catalog)?;
                (vec![build_keys, probe_keys], *filter, widths, &output[..])
            }
            PlanNode::GroupBy { keys, .. } => (vec![keys], None, Vec::new(), &[][..]),
            _ => return Err(bad("not a join or group-by")),
        };
        let inputs: Vec<&PlanNode> = node.inputs().collect();
        // The key the ranges cut, of each input read by range as a column
        // of its table.
        let at = node.range_key(catalog);
        let one_sided = inputs.len() > 1 && !(0..2).all(|edge| node.reads_by_range(edge));
        let mut cols = Vec::with_capacity(inputs.len());
        for (edge, (input, keys)) in inputs.iter().zip(&keys).enumerate() {
            let col = match (node.reads_by_range(edge), keys) {
                (false, _) => None,
                (true, [key]) => Some(input.chain_column(*key).map(|(_, col)| col)),
                (true, keys) if one_sided => Some(input.chain_column(keys[at]).map(|(_, c)| c)),
                (true, _) => Some(None),
            };
            cols.push(col.map(|col| col.ok_or_else(|| bad("its key is not a base column"))));
        }
        // Of each input, the position of that key among its columns.
        let cut = keys
            .iter()
            .map(|keys| keys.get(at).or(keys.first()).copied())
            .collect::<Option<Vec<usize>>>()
            .ok_or_else(|| bad("an input has no key"))?;
        let cols = cols
            .into_iter()
            .map(Option::transpose)
            .collect::<QefResult<Vec<Option<usize>>>>()?;
        let last = inputs.len() - 1;
        let lanes: usize = scheme.iter().product();
        // Where one input is partitioned, the value-bit cut of the other's
        // listed zone maps its pass routes by.
        let radix = match cols.iter().position(Option::is_none) {
            None => None,
            Some(_) => {
                let (edge, col) = cols
                    .iter()
                    .enumerate()
                    .find_map(|(edge, col)| col.map(|col| (edge, col)))
                    .ok_or_else(|| bad("it reads no input by range"))?;
                let chain = inputs[edge].scan_chain().ok_or_else(|| bad("no chain"))?;
                let table = catalog
                    .get(chain.table)
                    .ok_or_else(|| QefError::TableNotLoaded(chain.table.to_string()))?;
                let list = ops::filter::ChunkList::of(chain.pred, &table.chunks);
                Some(ops::ranges::Radix::of(list, col, lanes))
            }
        };
        // Each input in turn, at its pre-order ids: a chain read by range,
        // its ids kept for the trace, or the partitions of its pass.
        let mut sides: Vec<Option<(ChainLanes<'_>, u32)>> = Vec::with_capacity(inputs.len());
        let mut parts: Option<Vec<Batch>> = None;
        let mut build_rows = None;
        for (i, col) in cols.iter().enumerate() {
            let Some(radix) = radix.filter(|_| col.is_none()) else {
                let task = tasks.next().ok_or_else(|| bad("a task is missing"))?;
                let probe = filter.filter(|_| i == last && i > 0).map(|bits| {
                    let build_rows = build_rows.unwrap_or_default();
                    let filter = ProbeFilter::PerLane {
                        bits,
                        build_rows,
                        lanes,
                    };
                    (keys[i], filter)
                });
                let side = self.chain_lanes(task, probe, Dealing::WholeTiles)?;
                build_rows = Some(side.estimated_rows());
                let first_id = self.node_seq;
                self.node_seq += side.ops() as u32;
                sides.push(Some((side, first_id)));
                continue;
            };
            let route = (std::slice::from_ref(&cut[i]), Route::Radix(radix, scheme));
            let operator = ["join.partition-build", "join.partition-probe"][i];
            let of_pass = self.partition_input(node, i, route, scheme, None, operator)?;
            if of_pass.len() != lanes {
                return Err(QefError::Internal(format!(
                    "a value-bit pass of {scheme:?} wrote {} partitions",
                    of_pass.len()
                )));
            }
            build_rows = Some(batch_rows(&of_pass) as f64);
            parts = Some(of_pass);
            sides.push(None);
        }
        let chain = |i: usize| sides[i].as_ref().map(|(side, _)| side);
        // The bounds: a value-bit cut, else from the larger input.
        let larger = (0..sides.len())
            .filter_map(|i| chain(i).map(|side| (i, side.chunks.rows())))
            .max_by_key(|&(_, rows)| rows)
            .map_or(0, |(i, _)| i);
        let from = chain(larger).ok_or_else(|| bad("no input read by range"))?;
        let col = cols[larger].ok_or_else(|| bad("no key"))?;
        let ranges = match radix {
            Some(radix) => ops::ranges::KeyRanges::radix(radix, from.table, col, from.chunks),
            None => ops::ranges::KeyRanges::of(from.table, col, from.chunks, lanes),
        };
        let bound_width = from.table.column_width(col);
        // The rows of chain `i` in key range `r` one lane reads, handed to
        // `each`: its pieces — the larger input's at the slots its bounds
        // were found at, where they are its slot quantiles, else by
        // bisection, charged — each tested where it was read whole, under
        // the DMEM the side's task declares.
        let read = |core: &mut CoreCtx,
                    (i, r): (usize, usize),
                    filter: Option<&JoinFilter>,
                    each: &mut dyn FnMut(&mut CoreCtx, Rows<'_>) -> QefResult<()>|
         -> QefResult<()> {
            let (side, col) = match (chain(i), cols[i]) {
                (Some(side), Some(col)) => (side, col),
                _ => return Err(bad("an input read by range has no chain")),
            };
            let bounds = ranges.bounds(r);
            let _vectors = core.dmem.reserve_raw(side.working_set)?;
            let (pieces, probes) = match ranges.slots(r).filter(|_| i == larger) {
                Some(slots) => (
                    ops::ranges::pieces_at(&side.table.chunks, side.chunks, slots),
                    0,
                ),
                None => ops::ranges::pieces(&side.table.chunks, side.chunks, col, bounds),
            };
            let width = side.table.column_width(col);
            ops::ranges::charge_key_reads(core, width, probes);
            let test = pieces
                .iter()
                .any(|piece| piece.tested)
                .then(|| ops::ranges::test(bounds, cut[i]));
            for piece in pieces {
                let mut rows = side.rows(core, piece.span, filter)?;
                if let Some(test) = test.as_ref().filter(|_| piece.tested && rows.rows() > 0) {
                    rows = ops::filter::filter_rows(core, rows, test)?;
                }
                each(core, rows)?;
            }
            Ok(())
        };
        // What the probe side's rows meet where no scan's key pass tests
        // them: the filter, tested by the probe — and the tile it probes at.
        let probe_widths = inputs[last].output_widths(catalog)?;
        let (probe_tests, probe_tile) = match chain(last) {
            Some(probe) => (!probe.scan.tests_keys(), probe.deal.tile),
            None => (true, self.partition_tile(&probe_widths, 0)?),
        };
        // Both inputs arrive in key order only where both are read by range.
        let in_key_order = radix.is_none();
        let mut parts = parts.map(Vec::into_iter);
        let items: Vec<(usize, Option<Batch>)> = (0..ranges.len())
            .map(|r| (r, parts.as_mut().and_then(Iterator::next)))
            .collect();
        let (out, timing) = run_stage(ctx, items, |core, (r, part)| {
            // The lower bound of every range past the first was read, and
            // its slot found, where it is a slot quantile.
            ops::ranges::charge_key_reads(core, bound_width, ranges.bound_reads(r));
            let (build_keys, probe_keys, join_type) = match node {
                PlanNode::HashJoin {
                    build_keys,
                    probe_keys,
                    join_type,
                    ..
                } => (build_keys, probe_keys, *join_type),
                PlanNode::GroupBy { keys, aggs, .. } => {
                    // A table of the range's groups, emitted whole.
                    let tile = chain(0).map_or(1, |side| side.deal.tile);
                    let mut table = ops::groupby::GroupTable::new(keys.len(), aggs, 256);
                    read(core, (0, r), None, &mut |core, rows| {
                        charge_further_tiles(core, rows.rows(), tile);
                        table.consume_rows(core, &rows, keys)
                    })?;
                    return Ok((vec![table.emit(core)], 0, 0));
                }
                _ => return Err(bad("not a join or group-by")),
            };
            // A join: the range's build rows in the lane's table, the filter
            // beside them, and the probe side's rows probed against it. A
            // partition is read where its pass wrote it, as a pair join
            // reads its pair.
            let (built, probe_part) = match chain(0) {
                Some(_) => {
                    let mut built = Vec::new();
                    read(core, (0, r), None, &mut |core, rows| {
                        built.push(rows.into_batch(core));
                        Ok(())
                    })?;
                    (Batch::concat(built), part)
                }
                None => (part.unwrap_or_else(|| Batch::empty(0)), None),
            };
            let filter = filter
                .map(|bits| JoinFilter::beside_tables(&built, build_keys, bits))
                .transpose()?;
            // The table holds a block of the range at a time
            // (`ops::ranges::blocks`) where both inputs arrive in key
            // order: of the rows, only a block past it overflows, and at
            // every cut the lane resumes each side's stream where it
            // stopped. Else the rows past the table overflow it. One host
            // table stands for the blocks: a probe row's matches all lie in
            // one of them. A table over a partition holds its keys and row
            // ids, as a pair's does: the rows stay where the pass wrote them.
            let row_bytes = match chain(0) {
                Some(_) => build_widths.iter().sum(),
                None => 0,
            };
            let table_rows = ops::join::broadcast_capacity(
                built.rows(),
                build_keys.len(),
                row_bytes,
                ctx.dmem_bytes / 2,
            );
            let (blocks, overflow) = match built.is_empty() || !in_key_order {
                true => (1, built.rows().saturating_sub(table_rows)),
                false => ops::ranges::blocks(built.column(build_keys[0]), table_rows)
                    .fold((0, 0), |(n, over), block| {
                        (n + 1, over + block.len().saturating_sub(table_rows))
                    }),
            };
            for (side, col) in (0..sides.len()).filter_map(|i| chain(i).zip(cols[i])) {
                let width = side.table.column_width(col);
                ops::ranges::charge_key_reads(core, width, blocks - 1);
            }
            let join = ops::join::Broadcast {
                build: &built,
                build_keys,
                probe_keys,
                join_type,
                build_widths: &build_widths,
                output,
                capacity: built.rows() - overflow,
                filter: filter.as_ref(),
            };
            let table = join.table(core)?;
            let (mut out, mut tested, mut probed) = (Vec::new(), 0, 0);
            let mut probe = |core: &mut CoreCtx, rows: Rows<'_>| -> QefResult<()> {
                tested += rows.rows();
                let (batch, of_rows) =
                    join.probe(core, table.as_ref(), rows, probe_tile, probe_tests)?;
                out.push(batch);
                probed += of_rows;
                Ok(())
            };
            match probe_part {
                Some(part) => probe(core, Rows::Owned(part))?,
                None => read(core, (last, r), filter.as_ref(), &mut probe)?,
            }
            Ok((out, tested, probed))
        })?;
        // Where the scan did not test the rows, the probe did.
        let filter_kept = match chain(last).and_then(ChainLanes::kept) {
            None if filter.is_some() => Some(FilterKept {
                tested: out.iter().map(|(_, tested, _)| *tested as u64).sum(),
                kept: out.iter().map(|(.., probed)| *probed as u64).sum(),
            }),
            kept => kept,
        };
        let out: Vec<Batch> = out
            .into_iter()
            .flat_map(|(batches, ..)| batches)
            .filter(|b| !b.is_empty())
            .collect();
        // Pre-order ids: each chain's follow the node and the inputs before
        // it, the build side's first.
        let mut fused = Vec::new();
        for (side, first_id) in sides.iter().flatten() {
            fused.extend(side.fused(*first_id, self.node_id, self.open, false));
        }
        let scanned = sides.iter().rev().flatten().next();
        let detail = Detail {
            scan: scanned.map(|(side, _)| side.access()),
            filter: filter_kept,
            fused,
            ..Detail::default()
        };
        let label = match node {
            PlanNode::HashJoin { .. } => "join.ranged",
            _ => "groupby.ranged",
        };
        self.stage(&timing, label, batch_rows(&out), detail);
        Ok(out)
    }

    fn exec_groupby(
        &mut self,
        node: &PlanNode,
        input: &PlanNode,
        keys: &[usize],
        aggs: &[crate::plan::AggSpec],
        strategy: &GroupStrategy,
    ) -> QefResult<Vec<Batch>> {
        let mut out = match strategy {
            GroupStrategy::Ranged(_) => self.exec_ranged(node)?,
            GroupStrategy::OnTheFly { slots } => {
                // Per-lane local aggregation...
                let dmem = self.ctx.dmem_bytes;
                let (tables, t, detail, _) = self.first_stage(node, input, |core, rows| {
                    let slots = slots.as_deref();
                    let mut t = ops::groupby::GroupTable::on_the_fly(
                        keys.len(),
                        aggs,
                        slots,
                        dmem,
                        rows.rows(),
                    );
                    t.consume_rows(core, &rows, keys)?;
                    Ok(t)
                })?;
                let groups: u64 = tables.iter().map(|t| t.groups() as u64).sum();
                self.stage(&t, "groupby.consume", groups, detail);
                // ...then the merge operator combines the per-core tables
                // ("working on aggregated data, merge introduces low
                // overhead").
                let (mut out, t2) = run_stage(self.ctx, vec![tables], |core, ts| {
                    let mut it = ts.into_iter();
                    let Some(mut first) = it.next() else {
                        return Ok(Batch::empty(0));
                    };
                    for other in it {
                        first.merge_from(core, &other)?;
                    }
                    Ok(first.emit(core))
                })?;
                // No groups, no batch — `Batch::empty(0)` has no columns for
                // a Filter (HAVING) or Map above to index.
                out.retain(|b| !b.is_empty());
                self.stage(&t2, "groupby.merge", batch_rows(&out), Detail::default());
                out
            }
            GroupStrategy::Partitioned(scheme) => {
                // Partition by grouping keys so each partition's table fits.
                let route = (keys, Route::Hash);
                let parts =
                    self.partition_input(node, 0, route, scheme, None, "groupby.partition")?;
                let (out, t2) = run_stage(
                    self.ctx,
                    parts.into_iter().filter(|p| !p.is_empty()).collect(),
                    |core, b| {
                        let mut t = ops::groupby::GroupTable::new(keys.len(), aggs, 256);
                        t.consume(core, &b, keys)?;
                        Ok(t.emit(core))
                    },
                )?;
                let out: Vec<Batch> = out.into_iter().filter(|b| !b.is_empty()).collect();
                // A group table per partition: the stage the verifier derives
                // from `task::group_consume_decl`, under its name.
                self.stage(&t2, "groupby.consume", batch_rows(&out), Detail::default());
                out
            }
        };
        // A global aggregate emits one row no matter what reached it:
        // when every input row was filtered away (or the table is empty),
        // synthesize the single empty-input group so COUNT comes out 0
        // and the other aggregates NULL — mirroring the host executor.
        if keys.is_empty() && out.iter().all(|b| b.rows() == 0) {
            let mut t = ops::groupby::GroupTable::new(0, aggs, 16);
            t.force_global_group();
            let mut core = crate::exec::CoreCtx::new(self.ctx, 0);
            out = vec![t.emit(&mut core)];
        }
        Ok(out)
    }
}

/// What the partition pairs of one join share.
struct PairJoin<'a> {
    build_keys: &'a [usize],
    probe_keys: &'a [usize],
    join_type: JoinType,
    /// Build rows a partition was sized for.
    est_rows: usize,
    /// What the join writes; the build side's widths in it are what an
    /// outer join's NULL pad is stored at, so it concatenates with matched
    /// partitions.
    output: ops::join::Output<'a>,
    tile: usize,
}

impl PairJoin<'_> {
    /// Join one partition pair with large-skew resilience: when the build
    /// side is much larger than estimated, re-partition the pair and recurse.
    fn pair(
        &self,
        core: &mut crate::exec::CoreCtx,
        build: Batch,
        probe: Batch,
        depth: usize,
    ) -> QefResult<Batch> {
        if build.is_empty() && self.join_type == JoinType::LeftOuter {
            return Ok(self.output.unmatched(Rows::Owned(probe)));
        }
        let oversized = build.rows() > self.est_rows.saturating_mul(ops::join::LARGE_SKEW_FACTOR);
        if oversized && depth < 3 && build.rows() > 256 {
            // Large skew: extra partitioning rounds introduced dynamically.
            let extra = 8usize;
            let shift = 28 - (depth as u32 * 3); // high hash bits, disjoint from earlier rounds
            let bsub = ops::partition::partition_batches(
                core,
                std::slice::from_ref(&build),
                self.build_keys,
                extra,
                shift,
                self.tile,
            )?;
            let psub = ops::partition::partition_batches(
                core,
                std::slice::from_ref(&probe),
                self.probe_keys,
                extra,
                shift,
                self.tile,
            )?;
            let mut outs = Vec::with_capacity(extra);
            for (b, p) in bsub.into_iter().zip(psub) {
                outs.push(self.pair(core, b, p, depth + 1)?);
            }
            return Ok(Batch::concat(
                outs.into_iter().filter(|b| !b.is_empty()).collect(),
            ));
        }
        if build.is_empty() || probe.is_empty() {
            return match self.join_type {
                JoinType::Inner | JoinType::LeftSemi => Ok(Batch::empty(0)),
                JoinType::LeftAnti | JoinType::LeftOuter => {
                    Ok(self.output.unmatched(Rows::Owned(probe)))
                }
            };
        }
        ops::join::join_partition(
            core,
            &build,
            probe,
            self.build_keys,
            self.probe_keys,
            self.join_type,
            self.output.columns,
            self.est_rows,
        )
    }
}

/// No rows, one column per static width.
fn empty_with_layout(widths: &[usize]) -> Batch {
    use rapid_storage::vector::{ColumnData, Vector};
    Batch::new(
        widths
            .iter()
            .map(|&w| Vector::new(ColumnData::with_width(w, 0)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, Pred};
    use crate::plan::{AggSpec, NamedExpr, SortKey};
    use crate::primitives::agg::AggFunc;
    use crate::primitives::filter::CmpOp;
    use dpu_sim::account::Kernel;
    use rapid_storage::schema::{Field, Schema};
    use rapid_storage::table::TableBuilder;
    use rapid_storage::types::{DataType, Value};
    use rapid_storage::vector::{ColumnData, Vector};

    fn engine(ctx: ExecContext) -> Engine {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
            Field::new("grp", DataType::Int),
        ]);
        let mut b = TableBuilder::new("t", schema).chunk_rows(256);
        for i in 0..5000i64 {
            b.push_row(vec![Value::Int(i), Value::Int(i * 2), Value::Int(i % 7)]);
        }
        let mut e = Engine::new(ctx);
        e.load_table(Arc::new(b.finish()));
        e
    }

    fn scan(pred: Option<Pred>) -> PlanNode {
        PlanNode::Scan {
            table: "t".into(),
            columns: vec![0, 1, 2],
            pred,
        }
    }

    #[test]
    fn scan_filter_project() {
        for ctx in [ExecContext::dpu(), ExecContext::native(4)] {
            let e = engine(ctx);
            let plan = scan(Some(Pred::CmpConst {
                col: 0,
                op: CmpOp::Lt,
                value: 100,
            }));
            let (out, report) = e.execute(&plan).unwrap();
            assert_eq!(out.batch.rows(), 100);
            assert_eq!(out.meta.len(), 3);
            assert!(report.stages >= 1);
        }
    }

    #[test]
    fn dpu_backend_reports_simulated_time() {
        let e = engine(ExecContext::dpu());
        let (_, report) = e.execute(&scan(None)).unwrap();
        assert!(report.sim_secs > 0.0);
        assert_eq!(report.rows, 5000);
    }

    #[test]
    fn map_expressions() {
        let e = engine(ExecContext::dpu());
        let plan = PlanNode::Map {
            input: Box::new(scan(None)),
            exprs: vec![NamedExpr {
                expr: Expr::mul(Expr::Col(0), Expr::Lit(3)),
                name: "tripled".into(),
                dtype: DataType::Int,
                scale: 0,
                dict: None,
            }],
        };
        let (out, _) = e.execute(&plan).unwrap();
        assert_eq!(out.batch.width(), 1);
        let v = out.batch.column(0).data.to_i64_vec();
        assert_eq!(v.iter().sum::<i64>(), 3 * (0..5000i64).sum::<i64>());
    }

    #[test]
    fn a_map_computes_an_expression_it_holds_twice_once() {
        // x = k * (100 - v) and x * (100 + grp): the product x is computed
        // once and read where the second needs it, whichever comes first.
        let x = Expr::mul(Expr::Col(0), Expr::sub(Expr::Lit(100), Expr::Col(1)));
        let y = Expr::mul(x.clone(), Expr::add(Expr::Lit(100), Expr::Col(2)));
        let named = |expr: &Expr| NamedExpr {
            expr: expr.clone(),
            name: "e".into(),
            dtype: DataType::Int,
            scale: 0,
            dict: None,
        };
        let cols = || {
            let col = |f: fn(i64) -> i64| Vector::new(ColumnData::I64((0..300).map(f).collect()));
            Batch::new(vec![col(|i| i), col(|i| i % 90), col(|i| i % 7)])
        };
        let ctx = ExecContext::dpu();
        let alone = |exprs: &[&Expr]| {
            let mut core = CoreCtx::new(&ctx, 0);
            let exprs: Vec<NamedExpr> = exprs.iter().map(|e| named(e)).collect();
            let out = ops::map::map_batch(&mut core, cols(), &exprs).unwrap();
            (out, core.kernels)
        };
        let (x_out, x_alone) = alone(&[&x]);
        let (y_out, y_alone) = alone(&[&y]);
        for (both, order) in [(alone(&[&x, &y]), [0, 1]), (alone(&[&y, &x]), [1, 0])] {
            let ((out, charged), [xi, yi]) = (both, order);
            assert_eq!(out.column(xi), x_out.column(0));
            assert_eq!(out.column(yi), y_out.column(0));
            // x's multiply and subtraction once; y's own multiply and add.
            for k in [Kernel::Mul, Kernel::Sub, Kernel::Add] {
                assert_eq!(charged.get(k), y_alone.get(k), "{k:?}");
            }
            let tiles = Kernel::TileControl;
            assert_eq!(charged.get(tiles), x_alone.get(tiles));
        }
    }

    #[test]
    fn groupby_both_strategies_agree() {
        let e = engine(ExecContext::dpu());
        let mk = |strategy| PlanNode::GroupBy {
            input: Box::new(scan(None)),
            keys: vec![2],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Count,
                    col: 0,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    col: 1,
                },
            ],
            strategy,
        };
        let mut results = Vec::new();
        // `grp` is 0..=6: slots over its range; over a range it leaves,
        // which the table falls back from to hashing.
        let slots = |hi| Some(vec![crate::plan::KeyRange { lo: 0, hi }]);
        for strategy in [
            GroupStrategy::OnTheFly { slots: None },
            GroupStrategy::OnTheFly { slots: slots(6) },
            GroupStrategy::OnTheFly { slots: slots(3) },
            GroupStrategy::Partitioned(vec![32]),
            GroupStrategy::Partitioned(vec![4, 2]),
        ] {
            let (out, _) = e.execute(&mk(strategy.clone())).unwrap();
            assert_eq!(out.batch.rows(), 7, "{strategy:?}");
            let mut rows: Vec<(i64, i64, i64)> = (0..7)
                .map(|i| {
                    (
                        out.batch.column(0).data.get_i64(i),
                        out.batch.column(1).data.get_i64(i),
                        out.batch.column(2).data.get_i64(i),
                    )
                })
                .collect();
            rows.sort_unstable();
            results.push(rows);
        }
        assert!(results.iter().all(|r| *r == results[0]));
        // Spot-check group 0: keys 0,7,14,... -> count = ceil(5000/7).
        assert_eq!(results[0][0].1, 715);
    }

    #[test]
    fn global_aggregate_over_empty_input_emits_one_row() {
        // SQL semantics pinned by the differential fuzzer: an ungrouped
        // aggregate yields exactly one row even when the filter removes
        // every input row — COUNT 0, the other aggregates NULL.
        for ctx in [ExecContext::dpu(), ExecContext::native(4)] {
            let e = engine(ctx);
            let plan = PlanNode::GroupBy {
                input: Box::new(scan(Some(Pred::Const(false)))),
                keys: vec![],
                aggs: vec![
                    AggSpec {
                        func: AggFunc::Count,
                        col: 0,
                    },
                    AggSpec {
                        func: AggFunc::Sum,
                        col: 1,
                    },
                    AggSpec {
                        func: AggFunc::Min,
                        col: 0,
                    },
                ],
                strategy: GroupStrategy::OnTheFly { slots: None },
            };
            let (out, _) = e.execute(&plan).unwrap();
            assert_eq!(out.batch.rows(), 1);
            assert_eq!(out.batch.column(0).get(0), Some(0), "COUNT of nothing");
            assert_eq!(out.batch.column(1).get(0), None, "SUM of nothing");
            assert_eq!(out.batch.column(2).get(0), None, "MIN of nothing");
        }
    }

    #[test]
    fn grouped_aggregate_over_empty_input_stays_empty() {
        // With GROUP BY keys there are no groups to emit — zero rows.
        let e = engine(ExecContext::dpu());
        let plan = PlanNode::GroupBy {
            input: Box::new(scan(Some(Pred::Const(false)))),
            keys: vec![2],
            aggs: vec![AggSpec {
                func: AggFunc::Count,
                col: 0,
            }],
            strategy: GroupStrategy::OnTheFly { slots: None },
        };
        let (out, _) = e.execute(&plan).unwrap();
        assert_eq!(out.batch.rows(), 0);
    }

    #[test]
    fn hash_join_self_join() {
        let e = engine(ExecContext::dpu());
        let plan = PlanNode::HashJoin {
            build: Box::new(PlanNode::Scan {
                table: "t".into(),
                columns: vec![0, 1],
                pred: Some(Pred::CmpConst {
                    col: 0,
                    op: CmpOp::Lt,
                    value: 500,
                }),
            }),
            probe: Box::new(PlanNode::Scan {
                table: "t".into(),
                columns: vec![0, 2],
                pred: None,
            }),
            build_keys: vec![0],
            probe_keys: vec![0],
            join_type: JoinType::Inner,
            scheme: vec![32],
            filter: None,
            ranged: crate::plan::ByRange::Neither,
            output: vec![0, 1, 2, 3],
        };
        let (out, _) = e.execute(&plan).unwrap();
        assert_eq!(out.batch.rows(), 500);
        assert_eq!(out.batch.width(), 4);
        // probe k == build k on every output row.
        for i in 0..out.batch.rows() {
            assert_eq!(
                out.batch.column(0).data.get_i64(i),
                out.batch.column(2).data.get_i64(i)
            );
        }
    }

    #[test]
    fn outer_join_pad_matches_build_column_variants() {
        // Found by the differential fuzzer: with a partitioned LEFT OUTER
        // join, partitions whose build side is empty pad with NULL build
        // columns. The pad must use the build columns' physical variants
        // (here k/v narrow below i64) or concatenating padded and matched
        // partition outputs panics on the variant mismatch.
        for ctx in [ExecContext::dpu(), ExecContext::native(4)] {
            let e = engine(ctx);
            let plan = PlanNode::HashJoin {
                // Build: two rows, k in {0, 1}; most partitions see none.
                build: Box::new(PlanNode::Scan {
                    table: "t".into(),
                    columns: vec![0, 1],
                    pred: Some(Pred::CmpConst {
                        col: 0,
                        op: CmpOp::Lt,
                        value: 2,
                    }),
                }),
                // Probe keyed on grp (0..=6): grp 0 and 1 match, 2..=6
                // must come back NULL-padded.
                probe: Box::new(scan(None)),
                build_keys: vec![0],
                probe_keys: vec![2],
                join_type: JoinType::LeftOuter,
                scheme: vec![32],
                filter: None,
                ranged: crate::plan::ByRange::Neither,
                output: paired(3, 2, JoinType::LeftOuter),
            };
            let (out, _) = e.execute(&plan).unwrap();
            assert_eq!(out.batch.rows(), 5000, "outer join keeps every probe row");
            assert_eq!(out.batch.width(), 5);
            for i in 0..out.batch.rows() {
                let grp = out.batch.column(2).data.get_i64(i);
                let build_k = out.batch.column(3).get(i);
                let build_v = out.batch.column(4).get(i);
                if grp < 2 {
                    assert_eq!(build_k, Some(grp));
                    assert_eq!(build_v, Some(grp * 2));
                } else {
                    assert_eq!(build_k, None, "unmatched row must be NULL-padded");
                    assert_eq!(build_v, None);
                }
            }
        }
    }

    /// Every column a join of `probe` columns over `build` columns pairs,
    /// in order.
    fn paired(probe: usize, build: usize, join_type: JoinType) -> Vec<usize> {
        (0..probe + if join_type.pairs() { build } else { 0 }).collect()
    }

    /// `n`: 5000 rows of `k` (NULL every eleventh row), `v` = the row number
    /// and `h` (42 on three rows in five, else the row number).
    fn nullable_engine(ctx: ExecContext) -> Engine {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
            Field::new("h", DataType::Int),
        ]);
        let mut b = TableBuilder::new("n", schema).chunk_rows(512);
        for i in 0..5000i64 {
            let k = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(i % 1700)
            };
            let h = if i % 5 < 3 { 42 } else { i };
            b.push_row(vec![k, Value::Int(i), Value::Int(h)]);
        }
        let mut e = Engine::new(ctx);
        e.load_table(Arc::new(b.finish()));
        e
    }

    #[test]
    fn a_broadcast_join_returns_the_rows_of_a_partitioned_one() {
        use crate::trace::MemorySink;
        let scan = |pred: Option<Pred>| PlanNode::Scan {
            table: "n".into(),
            columns: vec![0, 1, 2],
            pred,
        };
        let v_below = |value| {
            Some(Pred::CmpConst {
                col: 1,
                op: CmpOp::Lt,
                value,
            })
        };
        let catalog = nullable_engine(ExecContext::dpu());
        let arity = |plan: &PlanNode| plan.output_widths(catalog.catalog()).unwrap().len();
        let join = |build: PlanNode, probe: PlanNode, key, join_type, scheme| PlanNode::HashJoin {
            output: paired(arity(&probe), arity(&build), join_type),
            build: Box::new(build),
            probe: Box::new(probe),
            build_keys: vec![key],
            probe_keys: vec![key],
            join_type,
            scheme,
            filter: None,
            ranged: crate::plan::ByRange::Neither,
        };
        let rows = |batch: &Batch| {
            let mut rows: Vec<Vec<Option<i64>>> = (0..batch.rows())
                .map(|i| batch.columns.iter().map(|c| c.get(i)).collect())
                .collect();
            rows.sort_unstable();
            rows
        };
        // A lane's DMEM segment holds the build rows whose table fits the
        // half of DMEM the probe stage declares, at the widths `n` stores
        // its columns in: a build side four times that overflows to DRAM.
        let dmem = ExecContext::dpu().dmem_bytes;
        let widths = scan(None).output_widths(nullable_engine(ExecContext::dpu()).catalog());
        let row_bytes: usize = widths.unwrap().iter().sum();
        let capacity = ops::join::broadcast_capacity(5000, 1, row_bytes, dmem / 2);
        assert!((500..1000).contains(&capacity), "{capacity}");
        // A join's output is no scan-fed chain: over it the probe is a stage
        // of its own, each lane a run of the batches the join's lanes handed
        // on. This one keeps all 5000 rows, `n`'s three columns first.
        let batches = join(
            scan(v_below(50)),
            scan(None),
            1,
            JoinType::LeftOuter,
            vec![],
        );
        let cases = [
            // NULL keys on both sides, which never match.
            ("nulls", scan(v_below(300)), scan(None), 0),
            ("empty", scan(Some(Pred::Const(false))), scan(None), 0),
            (
                "overflow",
                scan(v_below(4 * capacity as i64)),
                scan(None),
                0,
            ),
            // 42 is three in five of the build rows: a heavy hitter.
            ("heavy", scan(v_below(500)), scan(v_below(100)), 2),
            ("batches", scan(v_below(300)), batches, 0),
        ];
        for ctx in [ExecContext::dpu(), ExecContext::native(4)] {
            let sink = MemorySink::new();
            let e = nullable_engine(ctx.with_trace(sink.clone()));
            for (case, build, probe, key) in &cases {
                for join_type in [
                    JoinType::Inner,
                    JoinType::LeftSemi,
                    JoinType::LeftAnti,
                    JoinType::LeftOuter,
                ] {
                    let of = |scheme| join(build.clone(), probe.clone(), *key, join_type, scheme);
                    let (partitioned, _) = e.execute(&of(vec![32])).unwrap();
                    sink.take();
                    let plan = of(vec![]);
                    let (broadcast, _) = e.execute(&plan).unwrap();
                    let what = format!("{case} {join_type:?} on {:?}", e.context().backend);
                    assert_eq!(rows(&broadcast.batch), rows(&partitioned.batch), "{what}");
                    let columns = broadcast.batch.columns.iter();
                    let widths: Vec<usize> = columns.map(|c| c.data.width()).collect();
                    if broadcast.batch.rows() > 0 {
                        assert_eq!(widths, plan.output_widths(e.catalog()).unwrap(), "{what}");
                    }
                    // No pass, no pairs: the build side's scan, then the
                    // probe — its side's task, or a stage after it.
                    let ran: Vec<String> = sink.take().into_iter().map(|e| e.operator).collect();
                    let expect: &[&str] = match *case {
                        "batches" => &["scan(n)", "scan(n)", "join.probe", "join.probe"],
                        _ => &["scan(n)", "join.probe"],
                    };
                    assert_eq!(ran, expect, "{what}");
                    if !matches!(join_type, JoinType::Inner | JoinType::LeftSemi) {
                        continue;
                    }
                    // With a join filter: the same stages — the probe's
                    // lanes build it beside their tables — and the probe
                    // tests what its scan did not.
                    let mut filtered = plan;
                    if let PlanNode::HashJoin { filter, .. } = &mut filtered {
                        *filter = Some(1024);
                    }
                    let (out, _) = e.execute(&filtered).unwrap();
                    assert_eq!(rows(&out.batch), rows(&partitioned.batch), "{what}");
                    let events = sink.take();
                    let ran: Vec<&str> = events.iter().map(|e| e.operator.as_str()).collect();
                    assert_eq!(ran, expect, "{what}");
                    let tested = events.iter().filter_map(|e| e.filter);
                    assert_eq!(tested.count(), 1, "{what}: one stage tests the rows");
                }
            }
        }
    }

    #[test]
    fn topk_returns_global_winners() {
        let e = engine(ExecContext::dpu());
        let plan = PlanNode::TopK {
            input: Box::new(scan(None)),
            order: vec![SortKey { col: 1, desc: true }],
            k: 3,
        };
        let (out, _) = e.execute(&plan).unwrap();
        assert_eq!(
            out.batch.column(1).data.to_i64_vec(),
            vec![9998, 9996, 9994]
        );
    }

    #[test]
    fn sort_orders_globally() {
        let e = engine(ExecContext::dpu());
        let plan = PlanNode::Sort {
            input: Box::new(scan(Some(Pred::CmpConst {
                col: 0,
                op: CmpOp::Lt,
                value: 50,
            }))),
            order: vec![SortKey { col: 0, desc: true }],
        };
        let (out, _) = e.execute(&plan).unwrap();
        let v = out.batch.column(0).data.to_i64_vec();
        assert_eq!(v.len(), 50);
        assert!(v.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn empty_result_keeps_layout() {
        let e = engine(ExecContext::dpu());
        let plan = scan(Some(Pred::CmpConst {
            col: 0,
            op: CmpOp::Gt,
            value: 1 << 40,
        }));
        let (out, _) = e.execute(&plan).unwrap();
        assert_eq!(out.batch.rows(), 0);
        assert_eq!(out.batch.width(), 3);
    }

    #[test]
    fn executed_batches_are_as_wide_as_output_widths() {
        // What every partition budget is computed from must be what the
        // operators hand on: this fails if `GroupTable::emit`, a Map or a
        // join started narrowing (or widening) what it writes.
        let lt = |value| {
            Some(Pred::CmpConst {
                col: 0,
                op: CmpOp::Lt,
                value,
            })
        };
        let named = |expr: Expr, name: &str| NamedExpr {
            expr,
            name: name.into(),
            dtype: DataType::Int,
            scale: 0,
            dict: None,
        };
        let join_below = |build_rows, join_type| PlanNode::HashJoin {
            build: Box::new(PlanNode::Scan {
                table: "t".into(),
                columns: vec![0, 2],
                pred: lt(build_rows),
            }),
            probe: Box::new(scan(lt(900))),
            build_keys: vec![0],
            probe_keys: vec![0],
            join_type,
            scheme: vec![32],
            filter: None,
            ranged: crate::plan::ByRange::Neither,
            output: paired(3, 2, join_type),
        };
        let join = |join_type| join_below(700, join_type);
        let group = |strategy| PlanNode::GroupBy {
            input: Box::new(scan(None)),
            keys: vec![2],
            aggs: vec![AggSpec {
                func: AggFunc::Max,
                col: 0,
            }],
            strategy,
        };
        let order = vec![SortKey { col: 1, desc: true }];
        let plans = vec![
            scan(lt(100)),
            PlanNode::Filter {
                input: Box::new(scan(None)),
                pred: lt(100).unwrap(),
            },
            PlanNode::Map {
                input: Box::new(scan(None)),
                exprs: vec![
                    named(Expr::Col(2), "grp"),
                    named(Expr::mul(Expr::Col(0), Expr::Lit(3)), "tripled"),
                    named(Expr::Lit(7), "seven"),
                    named(Expr::Col(2), "grp_again"),
                ],
            },
            join(JoinType::Inner),
            join(JoinType::LeftOuter),
            // No build row: all the build columns there are is NULL pads.
            join_below(0, JoinType::LeftOuter),
            join(JoinType::LeftSemi),
            join(JoinType::LeftAnti),
            group(GroupStrategy::OnTheFly { slots: None }),
            group(GroupStrategy::Partitioned(vec![32])),
            PlanNode::TopK {
                input: Box::new(scan(None)),
                order: order.clone(),
                k: 5,
            },
            PlanNode::Sort {
                input: Box::new(scan(lt(50))),
                order,
            },
            PlanNode::Limit {
                input: Box::new(scan(None)),
                n: 9,
            },
            PlanNode::Window {
                input: Box::new(scan(lt(50))),
                partition_by: vec![2],
                order_by: vec![],
                func: crate::plan::WindowFunc::RowNumber,
            },
            PlanNode::SetOp {
                left: Box::new(scan(lt(50))),
                right: Box::new(scan(lt(80))),
                op: crate::plan::SetOpKind::Union,
            },
        ];
        for ctx in [ExecContext::dpu(), ExecContext::native(4)] {
            let e = engine(ctx);
            assert_eq!(
                scan(None).output_widths(e.catalog()).unwrap(),
                [2, 2, 1],
                "the load path narrowed k, v and grp"
            );
            for plan in &plans {
                let (out, _) = e.execute(plan).unwrap();
                assert!(out.batch.rows() > 0, "{plan:?}");
                let got: Vec<usize> = out.batch.columns.iter().map(|c| c.data.width()).collect();
                assert_eq!(got, plan.output_widths(e.catalog()).unwrap(), "{plan:?}");
            }
        }
    }

    #[test]
    fn a_lane_that_keeps_no_row_does_not_decide_the_layout_of_a_round_in_a_task() {
        // The predicate empties the first lanes of the task, which leave the
        // chain before its Map runs and still see the scan's three columns;
        // the lanes that keep rows hand on the Map's one, or four.
        let late = Some(Pred::CmpConst {
            col: 0,
            op: CmpOp::Ge,
            value: 4000,
        });
        let named = |expr: Expr, name: &str| NamedExpr {
            expr,
            name: name.into(),
            dtype: DataType::Int,
            scale: 0,
            dict: None,
        };
        let mapped = |exprs: Vec<NamedExpr>| PlanNode::Map {
            input: Box::new(scan(late.clone())),
            exprs,
        };
        let narrower = || mapped(vec![named(Expr::Col(0), "k")]);
        let wider = || {
            mapped(vec![
                named(Expr::Col(2), "grp"),
                named(Expr::Col(0), "k"),
                named(Expr::Col(1), "v"),
                named(Expr::mul(Expr::Col(0), Expr::Lit(3)), "tripled"),
            ])
        };
        let join = || PlanNode::HashJoin {
            build: Box::new(narrower()),
            probe: Box::new(wider()),
            build_keys: vec![0],
            probe_keys: vec![1],
            join_type: JoinType::Inner,
            scheme: vec![2],
            filter: None,
            ranged: crate::plan::ByRange::Neither,
            output: (0..5).collect(),
        };
        let group = || PlanNode::GroupBy {
            input: Box::new(wider()),
            keys: vec![0],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                col: 3,
            }],
            strategy: GroupStrategy::Partitioned(vec![2]),
        };
        let rows = |batch: &Batch| {
            let mut rows: Vec<Vec<i64>> = (0..batch.rows())
                .map(|i| batch.columns.iter().map(|c| c.data.get_i64(i)).collect())
                .collect();
            rows.sort_unstable();
            rows
        };
        // The wider chain's task holds 192 B of state and 17 B/row of vectors
        // (the scan's 5, the map's 8, the hash lane's 4): over 1216 B at 64
        // rows, where the chain alone (128 B + 13 B/row) and the round alone
        // (64 B + 17 B/row) each fit. There its round runs apart; the
        // narrower chain's task (192 B + 9 B/row) still fits. Two ways are
        // what the local buffers of 13-byte rows allow there.
        let tasks = |e: &Engine, plan: &PlanNode| -> Vec<bool> {
            let (c, catalog) = (e.context(), e.catalog());
            (0..plan.inputs().count())
                .map(|edge| {
                    let task = plan.input_task(edge, catalog, c.tile_rows, c.dmem_bytes);
                    task.unwrap().is_some()
                })
                .collect()
        };
        for ctx in [ExecContext::dpu(), ExecContext::native(4)] {
            let whole = engine(ctx.clone());
            let cut = engine(ExecContext {
                dmem_bytes: 1216,
                ..ctx
            });
            for (plan, shape, in_cut) in [
                (join(), (1000, 5), vec![true, false]),
                (group(), (7, 2), vec![false]),
            ] {
                assert!(tasks(&whole, &plan).iter().all(|&t| t), "{plan:?}");
                assert_eq!(tasks(&cut, &plan), in_cut, "{plan:?}");
                let (a, _) = whole.execute(&plan).unwrap();
                let (b, _) = cut.execute(&plan).unwrap();
                assert_eq!((a.batch.rows(), a.batch.width()), shape);
                assert_eq!(rows(&a.batch), rows(&b.batch));
            }
        }
    }

    #[test]
    fn a_pass_of_no_rounds_runs_apart_from_its_scan_even_over_no_rows() {
        // A pass of no rounds has no round one to end the scan's task with.
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let mut e = Engine::new(ExecContext::dpu());
        e.load_table(Arc::new(TableBuilder::new("t", schema).finish()));
        let plan = PlanNode::GroupBy {
            input: Box::new(PlanNode::Scan {
                table: "t".into(),
                columns: vec![0],
                pred: None,
            }),
            keys: vec![0],
            aggs: vec![],
            strategy: GroupStrategy::Partitioned(vec![]),
        };
        let c = e.context();
        let task = plan.input_task(0, e.catalog(), c.tile_rows, c.dmem_bytes);
        assert!(task.unwrap().is_none());
        let (out, _) = e.execute(&plan).unwrap();
        assert_eq!(out.batch.rows(), 0);
    }

    /// An eight-column table whose values need `bytes` bytes each; `c0`
    /// and `c1` together are unique.
    fn eight_columns(bytes: u32, ctx: ExecContext) -> Engine {
        let fields = (0..8).map(|c| Field::new(format!("c{c}"), DataType::Int));
        let mut b = TableBuilder::new("w", Schema::new(fields.collect())).chunk_rows(512);
        let top = 1i64 << (8 * bytes - 2);
        for i in 0..6000i64 {
            let below_top = |c| match c {
                0 => i % 100,
                1 => i / 100,
                c => (i * 8 + c) % 100,
            };
            b.push_row((0..8).map(|c| Value::Int(top - below_top(c))).collect());
        }
        let mut e = Engine::new(ctx);
        e.load_table(Arc::new(b.finish()));
        e
    }

    #[test]
    fn a_scheme_over_the_cap_of_this_catalog_is_a_bad_plan() {
        use crate::trace::MemorySink;
        let self_join = |scheme: Vec<usize>| PlanNode::HashJoin {
            build: Box::new(PlanNode::Scan {
                table: "w".into(),
                columns: (0..8).collect(),
                pred: None,
            }),
            probe: Box::new(PlanNode::Scan {
                table: "w".into(),
                columns: (0..8).collect(),
                pred: None,
            }),
            build_keys: vec![0, 1],
            probe_keys: vec![0, 1],
            join_type: JoinType::LeftSemi,
            scheme,
            filter: None,
            ranged: crate::plan::ByRange::Neither,
            output: (0..8).collect(),
        };
        let dmem = ExecContext::dpu().dmem_bytes;
        // One byte a column: 8-byte rows buffer 128 ways, and a 128-way
        // round is what a compiler looking at this catalog may ask for. It
        // runs as it came.
        let sink = MemorySink::new();
        let narrow = eight_columns(1, ExecContext::dpu().with_trace(sink.clone()));
        let widths = self_join(vec![128])
            .output_widths(narrow.catalog())
            .unwrap();
        assert_eq!(widths, [1; 8]);
        assert_eq!(crate::budget::max_buffered_fanout(8, dmem), 128);
        narrow.execute(&self_join(vec![128])).unwrap();
        let events = sink.take();
        let rounds = events.iter().filter_map(|e| e.partition);
        assert!(rounds.clone().all(|p| (p.rounds, p.fanout) == (1, 128)));
        assert_eq!(rounds.count(), 2);
        // The same plan reaches an engine whose table has since grown
        // values of eight bytes: 64-byte rows buffer 16 ways. The engine
        // does not re-factor the scheme; the plan is the caller's to
        // recompile.
        let sink = MemorySink::new();
        let wide = eight_columns(8, ExecContext::dpu().with_trace(sink.clone()));
        let stale = self_join(vec![128]);
        assert_eq!(stale.output_widths(wide.catalog()).unwrap(), [8; 8]);
        assert_eq!(crate::budget::max_buffered_fanout(64, dmem), 16);
        let Err(QefError::BadPlan(msg)) = wide.execute(&stale) else {
            panic!("a 128-way round over 64-byte rows must be refused")
        };
        assert!(
            msg.contains("round 1 of scheme [128] is 128-way, over the 16-way"),
            "{msg}"
        );
        assert!(sink.take().iter().all(|e| e.partition.is_none()));
        // Declared in two rounds that fit, the pass runs both, and the
        // second pays to read back what the first wrote: round one, the last
        // operator of its side's task, moves its scan's bytes and its own
        // writes.
        let (out, _) = wide.execute(&self_join(vec![8, 4])).unwrap();
        let rounds: Vec<_> = sink
            .take()
            .into_iter()
            .filter_map(|e| {
                let own = e.dms_bytes - e.scan_dms_bytes().unwrap_or(0);
                e.partition.map(|p| (e.operator, p, own))
            })
            .collect();
        let declared: Vec<_> = rounds
            .iter()
            .map(|(_, p, _)| (p.round, p.rounds, p.fanout))
            .collect();
        assert_eq!(declared, [(1, 2, 8), (2, 2, 4), (1, 2, 8), (2, 2, 4)]);
        for side in rounds.chunks(2) {
            assert!(side[1].2 > side[0].2, "{}: round two re-reads", side[0].0);
        }
        // The rows are those of one round over the same catalog.
        let rows = |batch: &Batch| {
            let mut rows: Vec<Vec<i64>> = (0..batch.rows())
                .map(|i| batch.columns.iter().map(|c| c.data.get_i64(i)).collect())
                .collect();
            rows.sort_unstable();
            rows
        };
        let (one_round, _) = wide.execute(&self_join(vec![16])).unwrap();
        assert_eq!(out.batch.rows(), 6000);
        assert_eq!(rows(&out.batch), rows(&one_round.batch));
    }

    #[test]
    fn trace_events_reconcile_exactly_with_report() {
        use crate::trace::MemorySink;
        let plan = PlanNode::GroupBy {
            input: Box::new(PlanNode::Filter {
                input: Box::new(scan(None)),
                pred: Pred::CmpConst {
                    col: 0,
                    op: CmpOp::Lt,
                    value: 4000,
                },
            }),
            keys: vec![2],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                col: 1,
            }],
            strategy: GroupStrategy::Partitioned(vec![4]),
        };
        // In 32 KiB the scan, the filter and round one of the pass are one
        // task: 192 B of state and 9 B/row of vectors. In 704 B they do not
        // fit at 64 rows, the chain (128 B + 5 B/row) and the round (64 B +
        // 9 B/row) each do, and the round runs over what the chain wrote.
        // Four ways are what the local buffers of 5-byte rows allow there.
        for dmem_bytes in [ExecContext::dpu().dmem_bytes, 704] {
            let sink = MemorySink::new();
            let e = engine(ExecContext {
                dmem_bytes,
                ..ExecContext::dpu().with_trace(sink.clone())
            });
            let (_, report) = e.execute(&plan).unwrap();
            let events = sink.take();
            assert_eq!(events.len(), report.stages);
            // Exact (bit-level) reconciliation: events carry the same f64s
            // the report summed, in the same order.
            let total: f64 = events.iter().map(|e| e.sim_secs).sum();
            assert_eq!(total.to_bits(), report.sim_secs.to_bits());
            let branches: u64 = events.iter().map(|e| e.branches).sum();
            assert_eq!(branches, report.branches);
            // Stage ids are emission order; node ids are pre-order.
            for (i, ev) in events.iter().enumerate() {
                assert_eq!(ev.stage_id, i as u32);
            }
            // A task is one stage, one event, named for its topmost
            // operator with the rest beneath it.
            assert!(events.iter().all(|e| e.operator != "scan(t)"));
            let task = events.iter().find(|e| e.scan.is_some()).unwrap();
            let round = events
                .iter()
                .find(|e| e.operator == "groupby.partition")
                .unwrap();
            let chain = [(1, 1, "filter", 4000), (2, 2, "scan(t)", 5000)];
            let ops: Vec<_> = task.operators().collect();
            let (vector, lanes) = if dmem_bytes == 704 {
                assert_eq!(ops, chain);
                assert!(round.fused.is_empty() && round.scan.is_none());
                assert_eq!((round.node_id, round.depth), (0, 0));
                (115, 32)
            } else {
                assert_eq!(ops[0], (0, 0, "groupby.partition", 4000));
                assert_eq!(ops[1..], chain);
                assert_eq!(round.stage_id, task.stage_id);
                (256, 32)
            };
            // The lanes stream the table and evaluate the predicate on it:
            // DMS traffic and retired instructions in the same stage.
            assert!(task.dms_bytes > 0);
            assert!(task.energy_joules > 0.0);
            assert!(task.instructions > 0);
            // The 5000 rows over all 32 cores: a lone scan chain a lane a
            // tile, a task that ends in a round equal shares of them.
            let deal = match dmem_bytes {
                704 => crate::budget::Deal::whole_tiles(5000, vector, 32),
                _ => crate::budget::Deal::shares(5000, vector, 32),
            };
            assert_eq!(deal.lanes, lanes);
            assert_eq!(task.parallelism, lanes);
        }
    }

    #[test]
    fn tile_clamp_under_small_dmem_is_trace_observable() {
        use crate::trace::MemorySink;
        // At the default 32 KiB the configured 256-row tile fits. In a
        // 1 KiB scratchpad the task's double-buffered 5 B/row stream (k, v
        // and grp are stored in 2, 2 and 1 bytes) and the filter's 2-byte
        // selection vector beside the state of its two operators only admit
        // 64 rows per vector, so the same data needs more descriptor bursts
        // to move — visible in the trace — while producing identical
        // results.
        let plan = || PlanNode::Filter {
            input: Box::new(scan(None)),
            pred: Pred::CmpConst {
                col: 0,
                op: CmpOp::Ge,
                value: 0,
            },
        };
        let baseline = {
            let sink = MemorySink::new();
            let e = engine(ExecContext::dpu().with_trace(sink.clone()));
            e.execute(&plan()).unwrap();
            sink.take().iter().map(|ev| ev.dms_descriptors).sum::<u64>()
        };
        let sink = MemorySink::new();
        let e = engine(ExecContext {
            dmem_bytes: 1024,
            ..ExecContext::dpu().with_trace(sink.clone())
        });
        let (out, _) = e.execute(&plan()).unwrap();
        assert_eq!(out.batch.rows(), 5000, "clamping must not change results");
        let events = sink.take();
        assert_eq!(events[0].dmem_peak_bytes, 128 + 2 * 7 * 64);
        let clamped: u64 = events.iter().map(|ev| ev.dms_descriptors).sum();
        assert!(
            clamped > baseline,
            "clamped run executed {clamped} descriptors vs {baseline} at full DMEM"
        );
    }

    #[test]
    fn tracing_is_off_by_default() {
        let e = engine(ExecContext::dpu());
        assert!(e.context().trace.is_none());
        let (_, report) = e.execute(&scan(None)).unwrap();
        assert!(report.stages >= 1);
    }

    #[test]
    fn missing_table_fails_cleanly() {
        let e = Engine::new(ExecContext::dpu());
        let err = e.execute(&scan(None)).unwrap_err();
        assert!(matches!(err, QefError::TableNotLoaded(_)));
    }
}

#[cfg(test)]
mod plan_node_tests {
    //! Engine coverage for the plan nodes the main tests leave out:
    //! Window, SetOp, Limit and Filter-over-intermediate.

    use super::*;
    use crate::expr::Pred;
    use crate::plan::{SetOpKind, SortKey, WindowFunc};
    use crate::primitives::filter::CmpOp;
    use rapid_storage::schema::{Field, Schema};
    use rapid_storage::table::TableBuilder;
    use rapid_storage::types::{DataType, Value};
    use std::sync::Arc;

    fn engine() -> Engine {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("grp", DataType::Int),
        ]);
        let mut b = TableBuilder::new("t", schema).chunk_rows(64);
        for i in 0..500i64 {
            b.push_row(vec![Value::Int(i), Value::Int(i % 3)]);
        }
        let mut e = Engine::new(ExecContext::dpu().with_cores(4));
        e.load_table(Arc::new(b.finish()));
        e
    }

    fn scan(pred: Option<Pred>) -> PlanNode {
        PlanNode::Scan {
            table: "t".into(),
            columns: vec![0, 1],
            pred,
        }
    }

    #[test]
    fn window_rank_through_engine() {
        let e = engine();
        let plan = PlanNode::Window {
            input: Box::new(scan(Some(Pred::CmpConst {
                col: 0,
                op: CmpOp::Lt,
                value: 9,
            }))),
            partition_by: vec![1],
            order_by: vec![SortKey { col: 0, desc: true }],
            func: WindowFunc::Rank,
        };
        let (out, _) = e.execute(&plan).unwrap();
        assert_eq!(out.batch.width(), 3);
        assert_eq!(out.batch.rows(), 9);
        // Each grp has 3 members -> ranks 1..=3 within each.
        for i in 0..out.batch.rows() {
            let rank = out.batch.column(2).data.get_i64(i);
            assert!((1..=3).contains(&rank));
        }
        assert_eq!(out.meta[2].name, "rank");
    }

    #[test]
    fn setops_through_engine() {
        let e = engine();
        let lows = scan(Some(Pred::CmpConst {
            col: 0,
            op: CmpOp::Lt,
            value: 10,
        }));
        let evens_low = PlanNode::Filter {
            input: Box::new(scan(Some(Pred::CmpConst {
                col: 0,
                op: CmpOp::Lt,
                value: 20,
            }))),
            pred: Pred::CmpConst {
                col: 1,
                op: CmpOp::Eq,
                value: 0,
            },
        };
        for (op, expect) in [
            // k<10 (10 rows) vs k<20 && grp==0 (k in {0,3,6,9,12,15,18}: 7 rows)
            (SetOpKind::Union, 10 + 3), // {0..9} u {12,15,18}
            (SetOpKind::Intersect, 4),  // {0,3,6,9}
            (SetOpKind::Minus, 6),      // {1,2,4,5,7,8}
        ] {
            let plan = PlanNode::SetOp {
                left: Box::new(lows.clone()),
                right: Box::new(evens_low.clone()),
                op,
            };
            let (out, _) = e.execute(&plan).unwrap();
            assert_eq!(out.batch.rows(), expect, "{op:?}");
        }
    }

    #[test]
    fn limit_through_engine() {
        let e = engine();
        let plan = PlanNode::Limit {
            input: Box::new(scan(None)),
            n: 7,
        };
        let (out, _) = e.execute(&plan).unwrap();
        assert_eq!(out.batch.rows(), 7);
        let plan = PlanNode::Limit {
            input: Box::new(scan(None)),
            n: 10_000,
        };
        let (out, _) = e.execute(&plan).unwrap();
        assert_eq!(out.batch.rows(), 500, "limit larger than input");
    }

    #[test]
    fn nonvectorized_engine_still_correct() {
        // Figure 13's ablation switch must not change results.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("grp", DataType::Int),
        ]);
        let mut b = TableBuilder::new("t", schema).chunk_rows(64);
        for i in 0..500i64 {
            b.push_row(vec![Value::Int(i), Value::Int(i % 3)]);
        }
        let table = Arc::new(b.finish());
        let mut slow = Engine::new(ExecContext::dpu().with_cores(4).with_vectorized(false));
        slow.load_table(Arc::clone(&table));
        let join = PlanNode::HashJoin {
            build: Box::new(scan(Some(Pred::CmpConst {
                col: 0,
                op: CmpOp::Lt,
                value: 50,
            }))),
            probe: Box::new(scan(None)),
            build_keys: vec![0],
            probe_keys: vec![0],
            join_type: JoinType::Inner,
            scheme: vec![4],
            filter: None,
            ranged: crate::plan::ByRange::Neither,
            output: vec![0, 1, 2, 3],
        };
        let (out, report) = slow.execute(&join).unwrap();
        assert_eq!(out.batch.rows(), 50);
        let fast = engine();
        let (out2, report2) = fast.execute(&join).unwrap();
        assert_eq!(out.batch.rows(), out2.batch.rows());
        assert!(
            report.sim_secs > report2.sim_secs,
            "row-at-a-time must be slower"
        );
    }
}
