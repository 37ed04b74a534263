//! The execution engine: interprets a QEP across the dpCores.
//!
//! The engine walks the plan DAG bottom-up, materializing intermediate
//! collections at task boundaries exactly as the paper describes
//! ("operators within a task pipeline results to each other via DMEM and
//! only results at task boundaries are materialized to DRAM"):
//!
//! * a **scan task** reads each chunk by the cheaper of the relation
//!   accessor's two patterns, chosen once per scan
//!   ([`ops::filter::ScanPlan`]): every touched column streamed once with
//!   the conjuncts evaluated and the survivors compacted in DMEM, or the
//!   selective pipeline of §5.4 — the first pass of conjuncts reads its
//!   columns in place, each later pass gathers only its own at the
//!   still-qualifying rows, and the projected columns are gathered last,
//!   at the final row set (late materialization),
//! * a **join** partitions both sides (in software on the dpCores; every
//!   round of a pass a stage of tile-aligned lanes on all cores, its
//!   fan-out and tile budgeted from the widths the columns arrive in,
//!   [`PlanNode::output_widths`]), then runs per-partition-pair
//!   build/probe kernels, with large-skew re-partitioning,
//! * a **group-by** picks the on-the-fly or partitioned strategy and adds
//!   the merge operator on the low-NDV path,
//! * pipeline stages are parallelized across cores by the actor runner.
//!
//! An operator owns a buffer only where the DMS writes one: inputs are
//! borrowed and read in place, batches that pass through unchanged are
//! handed on by move, and a copy is made exactly where a charged gather,
//! partition write or materialization produces new bytes.
//!
//! Timing is accumulated per stage: simulated time on the DPU backend,
//! wall clock on the native backend.

use std::sync::Arc;

use rapid_storage::table::Table;

use crate::actor::{run_stage, StageTiming};
use crate::batch::Batch;
use crate::error::{QefError, QefResult};
use crate::exec::{Backend, ExecContext};
use crate::expr::Pred;
use crate::ops;
use crate::plan::{Catalog, ColMeta, GroupStrategy, JoinType, PlanNode};
use crate::trace::{PartitionRound, ScanAccess, StageEvent, TraceSink};

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
    /// Total simulated seconds (Dpu backend).
    pub sim_secs: f64,
    /// Total simulated elapsed cycles — the exact cycle counts behind
    /// `sim_secs`, summed per stage (Dpu backend). Deterministic: two
    /// identical runs produce bit-identical values.
    pub sim_cycles: f64,
    /// Energy at the DPU's provisioned power over the simulated elapsed
    /// time, in joules — the same per-stage values the trace events carry,
    /// absorbed in emission order (Dpu backend). Deterministic.
    pub energy_joules: f64,
    /// Total wall-clock seconds (Native backend).
    pub wall_secs: f64,
    /// Pipeline stages executed.
    pub stages: usize,
    /// Result rows.
    pub rows: usize,
    /// Branches executed (Dpu accounting).
    pub branches: u64,
    /// Branch mispredicts (Dpu accounting).
    pub mispredicts: u64,
    /// Bytes moved by DMS descriptor programs (Dpu accounting).
    pub dms_bytes: u64,
    /// DMS descriptors executed (Dpu accounting).
    pub dms_descriptors: u64,
}

impl QueryReport {
    /// Elapsed seconds on the engine's backend.
    pub fn elapsed_secs(&self, backend: Backend) -> f64 {
        match backend {
            Backend::Dpu => self.sim_secs,
            Backend::Native => self.wall_secs,
        }
    }

    fn absorb(&mut self, t: &StageTiming) {
        self.sim_secs += t.sim.as_secs();
        self.sim_cycles += t.elapsed.get();
        self.wall_secs += t.wall.as_secs_f64();
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
            stage_seq: 0,
            node_seq: 0,
            node_id: 0,
            open: 0,
        }
    }

    /// Absorb one stage of the current node into the report, emitting its
    /// trace event; `detail` says, for a scan, how it read its table, or
    /// for a partition stage, which round it ran.
    ///
    /// The event's `sim_secs` is the exact `f64` added to the report and
    /// events are emitted in absorption order, so summing them reproduces
    /// `QueryReport::sim_secs` bit-for-bit.
    fn stage(
        &mut self,
        t: &StageTiming,
        operator: impl std::fmt::Display,
        rows: u64,
        detail: Detail,
    ) {
        self.report.absorb(t);
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
                scan: match detail {
                    Detail::Scan(access) => Some(access),
                    _ => None,
                },
                partition: match detail {
                    Detail::Partition(round) => Some(round),
                    _ => None,
                },
                energy_joules: self.watts * sim_secs,
                wall_secs: t.wall.as_secs_f64(),
            });
        }
        self.stage_seq += 1;
    }
}

/// What a stage's event says beyond its counters.
#[derive(Debug, Clone, Copy)]
enum Detail {
    /// Nothing more.
    None,
    /// How a scan read its table.
    Scan(ScanAccess),
    /// Which round of its pass a partition stage ran.
    Partition(PartitionRound),
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
            batch = empty_with_layout(&meta);
        }
        report.rows = batch.rows();
        Ok((QueryOutput { batch, meta }, report))
    }
}

impl Run<'_> {
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
        match node {
            PlanNode::Scan {
                table,
                columns,
                pred,
            } => self.exec_scan(table, columns, pred.as_ref()),
            PlanNode::Filter { input, pred } => {
                let batches = self.exec_node(input)?;
                let (out, t) = run_stage(self.ctx, batches, |core, b| {
                    ops::filter::filter_batch(core, b, pred)
                })?;
                let out: Vec<Batch> = out.into_iter().filter(|b| !b.is_empty()).collect();
                self.stage(&t, "filter", batch_rows(&out), Detail::None);
                Ok(out)
            }
            PlanNode::Map { input, exprs } => {
                let batches = self.exec_node(input)?;
                let (out, t) = run_stage(self.ctx, batches, |core, b| map_batch(core, b, exprs))?;
                self.stage(&t, "map", batch_rows(&out), Detail::None);
                Ok(out)
            }
            PlanNode::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                join_type,
                scheme,
            } => self.exec_join(build, probe, build_keys, probe_keys, *join_type, scheme),
            PlanNode::GroupBy {
                input,
                keys,
                aggs,
                strategy,
            } => self.exec_groupby(input, keys, aggs, strategy),
            PlanNode::TopK { input, order, k } => {
                let batches = self.exec_node(input)?;
                let in_rows = batch_rows(&batches);
                // Per-core top-k over assigned batches.
                let (heaps, t) = run_stage(self.ctx, batches, |core, b| {
                    let mut acc = ops::topk::TopK::new(order.clone(), *k);
                    acc.consume(core, b)?;
                    Ok(acc)
                })?;
                self.stage(&t, "topk.consume", in_rows, Detail::None);
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
                self.stage(&t2, "topk.merge", batch_rows(&merged), Detail::None);
                Ok(merged)
            }
            PlanNode::Sort { input, order } => {
                let batches = self.exec_node(input)?;
                let in_rows = batch_rows(&batches);
                let (sorted, t) = run_stage(self.ctx, batches, |core, b| {
                    ops::sort::sort_batch(core, &b, order)
                })?;
                self.stage(&t, "sort.local", in_rows, Detail::None);
                let (merged, t2) = run_stage(self.ctx, vec![sorted], |core, bs| {
                    ops::sort::merge_sorted(core, &bs, order)
                })?;
                self.stage(&t2, "sort.merge", batch_rows(&merged), Detail::None);
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
                self.stage(&t, "setop", batch_rows(&out), Detail::None);
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
                self.stage(&t, "window", batch_rows(&out), Detail::None);
                Ok(out)
            }
        }
    }

    /// The tile this stage actually runs at: the configured tile clamped
    /// to what the stage's DMEM working set supports (same math as the
    /// static verifier, via [`crate::budget`]). `Err` is the §5.2 halting
    /// condition: even a minimum vector does not fit.
    fn stage_tile(&self, state_bytes: usize, stream_bytes_per_row: usize) -> QefResult<usize> {
        crate::budget::effective_tile(
            self.ctx.tile_rows,
            state_bytes,
            stream_bytes_per_row,
            self.ctx.dmem_bytes,
        )
        .ok_or_else(|| {
            QefError::DmemExhausted(format!(
                "stage working set ({state_bytes} B state + {stream_bytes_per_row} B/row) \
                 exceeds DMEM ({} B) even at {}-row vectors",
                self.ctx.dmem_bytes,
                crate::budget::MIN_VECTOR_ROWS
            ))
        })
    }

    fn exec_scan(
        &mut self,
        table: &str,
        columns: &[usize],
        pred: Option<&Pred>,
    ) -> QefResult<Vec<Batch>> {
        let t = self
            .catalog
            .get(table)
            .ok_or_else(|| QefError::TableNotLoaded(table.to_string()))?;
        for &c in columns {
            if c >= t.schema.len() {
                return Err(QefError::BadColumn {
                    index: c,
                    available: t.schema.len(),
                });
            }
        }
        // Clamp the tile so the scan task's DMEM working set — one
        // double-buffered stream per distinct column touched (predicate
        // inputs plus projected outputs) — fits the scratchpad.
        let touched = ops::filter::touched_columns(columns, pred);
        let stream_bytes: usize = touched
            .iter()
            .map(|&c| {
                t.schema
                    .fields
                    .get(c)
                    .map_or(8, |f| f.dtype.physical_width())
            })
            .sum();
        let tile = self.stage_tile(crate::budget::BASE_STATE_BYTES, stream_bytes)?;
        let working_set = crate::budget::working_set(
            crate::budget::BASE_STATE_BYTES,
            stream_bytes,
            tile,
            self.ctx.dmem_bytes,
        );
        let plan = ops::filter::ScanPlan::decide(self.ctx, t, columns, pred, touched, tile);
        let chunks: Vec<&rapid_storage::chunk::Chunk> = t.chunks().collect();
        let (out, timing) = run_stage(self.ctx, chunks, |core, chunk| {
            // The tile buffers the streams were sized from.
            let _buffers = core.dmem.reserve_raw(working_set)?;
            plan.scan_chunk(core, chunk, tile)
        })?;
        let out: Vec<Batch> = out.into_iter().filter(|b| !b.is_empty()).collect();
        let operator = format_args!("scan({table})");
        let access = ScanAccess {
            path: plan.path(),
            passes: plan.dms_passes() as u32,
        };
        self.stage(&timing, operator, batch_rows(&out), Detail::Scan(access));
        Ok(out)
    }

    /// The tile of a partition pass over columns of `widths`: every column
    /// streams through DMEM beside the hash lane.
    fn partition_tile(&self, widths: &[usize]) -> QefResult<usize> {
        self.stage_tile(
            crate::budget::BASE_STATE_BYTES,
            crate::budget::partition_stream_bytes(widths.iter().sum()),
        )
    }

    /// Partition `batches` — the output of a node whose
    /// [`PlanNode::output_widths`] are `widths` — by `keys` through the
    /// rounds of `scheme` on all cores
    /// ([`ops::partition::partition_pass`]): every round is a stage of its
    /// own, absorbed under `operator` with the rows it partitioned.
    ///
    /// The scheme is the plan's and runs as declared. A round wider than
    /// the local buffers of these rows allow
    /// ([`crate::budget::max_buffered_fanout`], at the widths this engine's
    /// catalog stores) is refused: the plan was compiled when a table's
    /// columns were narrower and is the caller's to recompile.
    fn partition_stages(
        &mut self,
        batches: Vec<Batch>,
        widths: &[usize],
        keys: &[usize],
        scheme: &[usize],
        operator: &str,
    ) -> QefResult<Vec<Batch>> {
        // The tile, and the fan-out cap of the scheme, were budgeted from
        // the static widths: what arrives must be exactly that wide.
        debug_assert!(
            batches.iter().filter(|b| !b.is_empty()).all(|b| b
                .columns
                .iter()
                .map(|c| c.data.width())
                .eq(widths.iter().copied())),
            "{operator}: batches are not {widths:?} bytes wide"
        );
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
        let tile = self.partition_tile(widths)?;
        let rows = batch_rows(&batches);
        ops::partition::partition_pass(self.ctx, batches, keys, scheme, tile, |t, round| {
            self.stage(t, operator, rows, Detail::Partition(round))
        })
    }

    fn exec_join(
        &mut self,
        build: &PlanNode,
        probe: &PlanNode,
        build_keys: &[usize],
        probe_keys: &[usize],
        join_type: JoinType,
        scheme: &[usize],
    ) -> QefResult<Vec<Batch>> {
        if build_keys.len() != probe_keys.len() || build_keys.is_empty() {
            return Err(QefError::BadPlan("join key arity mismatch".into()));
        }
        let build_meta = build.output_meta(self.catalog)?;
        let build_widths = build.output_widths(self.catalog)?;
        let probe_widths = probe.output_widths(self.catalog)?;
        let build_batches = self.exec_node(build)?;
        let probe_batches = self.exec_node(probe)?;
        let build_rows: usize = build_batches.iter().map(Batch::rows).sum();
        let partitions: usize = scheme.iter().product();
        let est_per_partition = (build_rows / partitions.max(1)).max(1);

        // Partition both sides; each side's tile is clamped to its own
        // stream width.
        let bparts = self.partition_stages(
            build_batches,
            &build_widths,
            build_keys,
            scheme,
            "join.partition-build",
        )?;
        let pparts = self.partition_stages(
            probe_batches,
            &probe_widths,
            probe_keys,
            scheme,
            "join.partition-probe",
        )?;

        // Join partition pairs in parallel; handle large skew by extra
        // partitioning rounds inside the worker.
        let pairs: Vec<(Batch, Batch)> = bparts.into_iter().zip(pparts).collect();
        // Physical prototypes of the build columns, for outer-join NULL
        // padding: the pad must use the same variant the matched
        // partitions gather, or concatenating partition outputs mixes
        // physical widths and panics. That variant is the build side's
        // static width (dictionary codes are the unsigned 4-byte one).
        let build_protos: Vec<rapid_storage::vector::ColumnData> = {
            use rapid_storage::types::DataType;
            use rapid_storage::vector::ColumnData;
            let proto = |(m, &width): (&ColMeta, &usize)| match (width, m.dtype) {
                (1, _) => ColumnData::I8(Vec::new()),
                (2, _) => ColumnData::I16(Vec::new()),
                (4, DataType::Varchar) => ColumnData::U32(Vec::new()),
                (4, _) => ColumnData::I32(Vec::new()),
                _ => ColumnData::I64(Vec::new()),
            };
            build_meta.iter().zip(&build_widths).map(proto).collect()
        };
        let join = PairJoin {
            build_keys,
            probe_keys,
            join_type,
            est_rows: est_per_partition,
            build_protos,
            tile: self
                .partition_tile(&build_widths)?
                .min(self.partition_tile(&probe_widths)?),
        };
        let (joined, t3) = run_stage(self.ctx, pairs, |core, (b, p)| join.pair(core, b, p, 0))?;
        let joined: Vec<Batch> = joined.into_iter().filter(|b| !b.is_empty()).collect();
        self.stage(&t3, "join.pairs", batch_rows(&joined), Detail::None);
        Ok(joined)
    }

    fn exec_groupby(
        &mut self,
        input: &PlanNode,
        keys: &[usize],
        aggs: &[crate::plan::AggSpec],
        strategy: &GroupStrategy,
    ) -> QefResult<Vec<Batch>> {
        let batches = self.exec_node(input)?;
        let mut out = match strategy {
            GroupStrategy::OnTheFly => {
                // Per-core local aggregation...
                let (tables, t) = run_stage(self.ctx, batches, |core, b| {
                    let mut t = ops::groupby::GroupTable::new(keys.len(), aggs, 256);
                    t.consume(core, &b, keys)?;
                    Ok(t)
                })?;
                let groups: u64 = tables.iter().map(|t| t.groups() as u64).sum();
                self.stage(&t, "groupby.consume", groups, Detail::None);
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
                self.stage(&t2, "groupby.merge", batch_rows(&out), Detail::None);
                out
            }
            GroupStrategy::Partitioned(scheme) => {
                // Partition by grouping keys so each partition's table fits.
                let widths = input.output_widths(self.catalog)?;
                let parts =
                    self.partition_stages(batches, &widths, keys, scheme, "groupby.partition")?;
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
                self.stage(&t2, "groupby.aggregate", batch_rows(&out), Detail::None);
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

/// Evaluate a Map node's expressions over one batch. Computed columns are
/// new buffers; a column that is only passed through is not rewritten and
/// moves from the input to the output on its last use.
fn map_batch(
    core: &mut crate::exec::CoreCtx,
    mut batch: Batch,
    exprs: &[crate::plan::NamedExpr],
) -> QefResult<Batch> {
    use crate::expr::Expr;
    use rapid_storage::vector::{ColumnData, Vector};
    let rows = batch.rows();
    let mut cols: Vec<Option<Vector>> = Vec::with_capacity(exprs.len());
    for e in exprs {
        cols.push(match &e.expr {
            Expr::Col(c) if *c < batch.width() => None,
            expr => Some(expr.eval(core, &batch.columns, rows)?.into_owned()),
        });
    }
    core.charge_tile();
    for (i, e) in exprs.iter().enumerate() {
        if let (None, Expr::Col(c)) = (&cols[i], &e.expr) {
            let used_again = exprs[i + 1..].iter().any(|later| later.expr == e.expr);
            cols[i] = Some(if used_again {
                batch.columns[*c].clone()
            } else {
                std::mem::replace(
                    &mut batch.columns[*c],
                    Vector::new(ColumnData::I8(Vec::new())),
                )
            });
        }
    }
    Ok(Batch::new(cols.into_iter().flatten().collect()))
}

/// What the partition pairs of one join share.
struct PairJoin<'a> {
    build_keys: &'a [usize],
    probe_keys: &'a [usize],
    join_type: JoinType,
    /// Build rows a partition was sized for.
    est_rows: usize,
    build_protos: Vec<rapid_storage::vector::ColumnData>,
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
            return Ok(pad_outer(probe, &self.build_protos));
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
                JoinType::LeftAnti => Ok(probe),
                JoinType::LeftOuter => Ok(pad_outer(probe, &self.build_protos)),
            };
        }
        ops::join::join_partition(
            core,
            &build,
            probe,
            self.build_keys,
            self.probe_keys,
            self.join_type,
            self.est_rows,
        )
    }
}

/// Pad probe rows with NULL build columns for outer joins with no build.
/// Each pad column clones its prototype's physical variant so the result
/// concatenates cleanly with partitions that did find matches.
fn pad_outer(probe: Batch, build_protos: &[rapid_storage::vector::ColumnData]) -> Batch {
    if probe.is_empty() {
        return Batch::empty(0);
    }
    let n = probe.rows();
    let mut out = probe;
    for proto in build_protos {
        out.push_column(ops::join::null_column(proto, n));
    }
    out
}

fn empty_with_layout(meta: &[ColMeta]) -> Batch {
    use rapid_storage::types::DataType;
    use rapid_storage::vector::{ColumnData, Vector};
    Batch::new(
        meta.iter()
            .map(|m| {
                Vector::new(match m.dtype {
                    DataType::Date => ColumnData::I32(Vec::new()),
                    DataType::Varchar => ColumnData::U32(Vec::new()),
                    _ => ColumnData::I64(Vec::new()),
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::{AggSpec, NamedExpr, SortKey};
    use crate::primitives::agg::AggFunc;
    use crate::primitives::filter::CmpOp;
    use rapid_storage::schema::{Field, Schema};
    use rapid_storage::table::TableBuilder;
    use rapid_storage::types::{DataType, Value};

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
        for strategy in [
            GroupStrategy::OnTheFly,
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
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
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
                strategy: GroupStrategy::OnTheFly,
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
            strategy: GroupStrategy::OnTheFly,
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
            group(GroupStrategy::OnTheFly),
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
        // second pays to read back what the first wrote.
        let (out, _) = wide.execute(&self_join(vec![8, 4])).unwrap();
        let rounds: Vec<_> = sink
            .take()
            .into_iter()
            .filter_map(|e| e.partition.map(|p| (e.operator, p, e.dms_bytes)))
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
        let sink = MemorySink::new();
        let e = engine(ExecContext::dpu().with_trace(sink.clone()));
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
            strategy: GroupStrategy::Partitioned(vec![32]),
        };
        let (_, report) = e.execute(&plan).unwrap();
        let events = sink.take();
        assert_eq!(events.len(), report.stages);
        // Exact (bit-level) reconciliation: events carry the same f64s the
        // report summed, in the same order.
        let total: f64 = events.iter().map(|e| e.sim_secs).sum();
        assert_eq!(total.to_bits(), report.sim_secs.to_bits());
        let branches: u64 = events.iter().map(|e| e.branches).sum();
        assert_eq!(branches, report.branches);
        // Stage ids are emission order; node ids are pre-order, so the
        // deeper scan node has a larger id than its groupby ancestor.
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.stage_id, i as u32);
        }
        let scan_ev = events.iter().find(|e| e.operator == "scan(t)").unwrap();
        let group_ev = events
            .iter()
            .find(|e| e.operator == "groupby.partition")
            .unwrap();
        assert!(scan_ev.node_id > group_ev.node_id);
        assert_eq!(scan_ev.depth, 2);
        assert_eq!(group_ev.depth, 0);
        // A bare scan (its predicate lives in the Filter node above) is
        // pure DMS traffic; the filter stage retires instructions.
        assert!(scan_ev.dms_bytes > 0);
        assert!(scan_ev.energy_joules > 0.0);
        let filter_ev = events.iter().find(|e| e.operator == "filter").unwrap();
        assert!(filter_ev.instructions > 0);
    }

    #[test]
    fn tile_clamp_under_small_dmem_is_trace_observable() {
        use crate::trace::MemorySink;
        // At the default 32 KiB the configured 256-row tile fits. In a
        // 4 KiB scratchpad the stage's double-buffered 24 B/row stream
        // only admits ~84 rows per vector, so the same data needs more
        // descriptor bursts to move — visible in the trace — while
        // producing identical results.
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
            dmem_bytes: 4096,
            ..ExecContext::dpu().with_trace(sink.clone())
        });
        let (out, _) = e.execute(&plan()).unwrap();
        assert_eq!(out.batch.rows(), 5000, "clamping must not change results");
        let clamped: u64 = sink.take().iter().map(|ev| ev.dms_descriptors).sum();
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
