//! The structural/resource/accounting walk.
//!
//! [`check_plan`] walks the plan once, numbering nodes in the pre-order the
//! engine's tracer uses — so a diagnostic or a stage row points at the node
//! `EXPLAIN ANALYZE` shows — deriving the engine stages each node executes
//! as (a partitioned join is two partition passes plus a pair-join stage, a
//! broadcast join — no rounds — its probe stage alone) and checking
//! every rule in [`crate::diag::Rule`] against them. The plan is a tree the
//! engine runs bottom-up, so no schedule of it can be cyclic or use a stage
//! before it ran; the walk checks what a plan can get wrong.
//!
//! A stage is a **task**: a scan-fed chain (`PlanNode::scan_chain`) runs as
//! one, and its consumer's first stage is the task's last operator wherever
//! the engine puts it there — `PlanNode::input_task`, the one rule both
//! call. The walk derives the same tasks the engine runs, from the same
//! declarations (`rapid_qef::task`, `rapid_qef::budget::OpDecl`): R-DMEM-FIT
//! is checked on the working set the operators hold together. All DMEM
//! arithmetic comes from `rapid_qef::budget`, the same module the engine
//! sizes its vectors with — the static verdict and the runtime tile cannot
//! drift apart — over the widths columns are stored and handed on in
//! (`PlanNode::output_widths`): a stage's working set is what a lane of it
//! holds in DMEM. What a node hands on is described by
//! `PlanNode::output_meta_from`, the step the engine's metadata derives
//! through, over the metadata the walk holds for its inputs.

use rapid_qef::budget::{
    self, OpDecl, OpName, HASH_BITS, MAX_ROUND_FANOUT, MIN_VECTOR_ROWS, SKEW_RESERVED_BITS,
};
use rapid_qef::exec::ExecContext;
use rapid_qef::expr::Expr;
use rapid_qef::ops::groupby::{accumulator_count, on_the_fly_group_limit, slot_count};
use rapid_qef::plan::{ByRange, Catalog, ColMeta, GroupStrategy, JoinType, PlanNode};
use rapid_qef::task;
use rapid_storage::types::DataType;

use crate::diag::{Diagnostic, RangeRead, Rule, StageReport, VerifyReport};

/// Operator label of a plan node, as used in paths and diagnostics.
fn node_label(plan: &PlanNode) -> String {
    match plan {
        PlanNode::Scan { table, .. } => format!("Scan({table})"),
        PlanNode::Filter { .. } => "Filter".into(),
        PlanNode::Map { .. } => "Map".into(),
        PlanNode::HashJoin { .. } => "HashJoin".into(),
        PlanNode::GroupBy { .. } => "GroupBy".into(),
        PlanNode::TopK { .. } => "TopK".into(),
        PlanNode::Sort { .. } => "Sort".into(),
        PlanNode::Limit { .. } => "Limit".into(),
        PlanNode::SetOp { .. } => "SetOp".into(),
        PlanNode::Window { .. } => "Window".into(),
    }
}

/// `plan`'s output metadata from the metadata the walk holds for its inputs,
/// in `PlanNode::inputs` order.
fn meta_of<const N: usize>(
    plan: &PlanNode,
    catalog: &Catalog,
    inputs: [Vec<ColMeta>; N],
) -> Result<Vec<ColMeta>, ()> {
    let mut inputs = inputs.map(Some);
    plan.output_meta_from(catalog, |edge| {
        Ok(inputs
            .get_mut(edge)
            .and_then(Option::take)
            .unwrap_or_default())
    })
    .map_err(|_| ())
}

/// Configuration-level accounting checks (A-TILE-MIN).
fn check_config(ctx: &ExecContext, report: &mut VerifyReport) {
    if ctx.tile_rows < MIN_VECTOR_ROWS {
        report.diagnostics.push(Diagnostic::new(
            Rule::TileMin,
            0,
            "(config)",
            format!(
                "configured tile of {} rows is below the {MIN_VECTOR_ROWS}-row minimum vector; \
                 per-tile descriptor setup would dominate every transfer",
                ctx.tile_rows
            ),
        ));
    }
}

/// Run every check over a plan for the context it will run under:
/// configuration rules, then the per-node structural/resource/accounting
/// walk.
pub fn check_plan(plan: &PlanNode, catalog: &Catalog, ctx: &ExecContext) -> VerifyReport {
    let mut report = VerifyReport::default();
    check_config(ctx, &mut report);
    let mut w = Walker {
        catalog,
        ctx,
        report: &mut report,
        next_id: 0,
    };
    let _ = w.node(plan, "", false);
    report
}

/// What a node exposes to its consumer: output metadata plus the
/// statically-derivable NDV per column (the same derivation the
/// compiler's aggregate-strategy selection uses: base-table statistics
/// through scans, `Expr::Col` pass-throughs and join concatenation;
/// anything computed is unknown).
struct NodeInfo {
    meta: Vec<ColMeta>,
    ndv: Vec<Option<u64>>,
}

struct Walker<'a> {
    catalog: &'a Catalog,
    ctx: &'a ExecContext,
    report: &'a mut VerifyReport,
    next_id: usize,
}

impl Walker<'_> {
    fn diag(&mut self, rule: Rule, id: usize, path: &str, msg: String) {
        self.report
            .diagnostics
            .push(Diagnostic::new(rule, id, path, msg));
    }

    /// Derive one engine stage — the task of `ops`, bottom first, reported
    /// under the label of the last: fit the working set the operators hold
    /// together (R-DMEM-FIT) and record the stage report.
    fn stage(&mut self, node_id: usize, path: &str, ops: &[OpDecl<'_>], fanouts: Vec<usize>) {
        use std::fmt::Write;
        let mut label = String::with_capacity(32);
        if let Some(op) = ops.last() {
            let _ = write!(label, "{}", op.name);
        }
        // A task of several operators lists them; the label of a stage of
        // one says all there is.
        let several = ops.len() > 1;
        let mut operators = String::with_capacity(if several { 24 * ops.len() } else { 0 });
        for op in ops.iter().filter(|_| several) {
            let arrow = if operators.is_empty() { "" } else { " -> " };
            let _ = write!(operators, "{arrow}{}", op.name);
        }
        let state_bytes = budget::task_state(ops);
        let (streams, per_row) =
            budget::task_streams(ops).fold((0, 0), |(n, bytes), w| (n + 1, bytes + w));
        let fit = budget::fit_tile(state_bytes, per_row, self.ctx.dmem_bytes);
        let eff = fit.map(|f| self.ctx.tile_rows.min(f.rows));
        let double = fit.is_some_and(|f| f.double_buffered);
        if eff.is_none() {
            let together = match operators.as_str() {
                "" => String::new(),
                operators => format!(" (the task of {operators})"),
            };
            self.diag(
                Rule::DmemFit,
                node_id,
                path,
                format!(
                    "stage '{label}'{together} needs {state_bytes} B state + {per_row} B/row; \
                     even a single-buffered {MIN_VECTOR_ROWS}-row vector ({} B) exceeds DMEM \
                     ({} B)",
                    state_bytes + per_row * MIN_VECTOR_ROWS,
                    self.ctx.dmem_bytes
                ),
            );
        }
        // A descriptor per stream buffer each loop iteration.
        let descriptors = match (eff, double) {
            (None, _) => 0,
            (Some(_), false) => streams,
            (Some(_), true) => 2 * streams,
        };
        let tile = eff.unwrap_or(MIN_VECTOR_ROWS);
        let working_set = budget::working_set(state_bytes, per_row, tile, self.ctx.dmem_bytes);
        let hash_bits = fanouts
            .iter()
            .map(|&f| {
                if f.is_power_of_two() {
                    f.trailing_zeros()
                } else {
                    0
                }
            })
            .sum();
        self.report.stages.push(StageReport {
            node_id,
            path: path.to_string(),
            stage: label,
            operators,
            state_bytes,
            stream_bytes_per_row: per_row,
            effective_tile: eff,
            double_buffered: double,
            working_set_bytes: working_set,
            fanouts,
            hash_bits,
            descriptors,
            scan_columns: None,
            join_columns: None,
            ranged: None,
        });
    }

    /// The stage input `edge` of `node` is consumed by — `node`'s first
    /// stage over it: visit the input, then report the stage. Where the
    /// engine runs that stage in the task of the input's scan-fed chain
    /// (`PlanNode::input_task`) the stage is that task. Returns what the
    /// input exposes.
    #[allow(clippy::too_many_arguments)]
    fn consumed(
        &mut self,
        node: &PlanNode,
        edge: usize,
        input: &PlanNode,
        id: usize,
        path: &str,
        input_path: &str,
        fanouts: &[usize],
    ) -> Result<NodeInfo, ()> {
        let (catalog, ctx) = (self.catalog, self.ctx);
        // A chain whose scan cannot be declared is no task: its walk says why.
        let task = node
            .input_task(edge, catalog, ctx.tile_rows, ctx.dmem_bytes)
            .ok()
            .flatten();
        let info = self.node(input, input_path, task.is_some())?;
        let Some(task) = task else {
            let widths = input.output_widths(catalog).map_err(|_| ())?;
            // A group-by's pass of no rounds and a broadcast join's probe are
            // still stages of their own; a broadcast join's build side is
            // consumed by no stage but its own.
            if let Some(first) = node.first_stage(edge, &widths, ctx.dmem_bytes) {
                self.stage(id, path, &[first], fanouts.to_vec());
            }
            return Ok(info);
        };
        self.stage(id, path, &task.decls, fanouts.to_vec());
        self.note_scan(&task.chain);
        Ok(info)
    }

    /// Put `cols k/n` of `chain`'s scan on the stage just reported.
    fn note_scan(&mut self, chain: &task::ScanChain<'_>) {
        let of = self.catalog.get(chain.table).map(|t| t.schema.len());
        if let (Some(stage), Some(of)) = (self.report.stages.last_mut(), of) {
            stage.scan_columns = Some((chain.columns.len(), of));
        }
    }

    /// After `plan` — a `Scan`, `Filter` or `Map` — passed its checks:
    /// report its stage. The top of a scan-fed chain nothing above joined
    /// is the task of the chain; a node of a chain a stage above reports is
    /// reported there; anything else is a stage of its own.
    fn chain_stage(
        &mut self,
        plan: &PlanNode,
        id: usize,
        path: &str,
        in_task: bool,
        alone: impl FnOnce() -> OpDecl<'static>,
    ) {
        if in_task {
            return;
        }
        let Some(chain) = plan.scan_chain() else {
            return self.stage(id, path, &[alone()], Vec::new());
        };
        // A chain whose scan is broken has said so.
        if let Ok((task, _)) = chain.task(self.catalog) {
            self.stage(id, path, &task.decls, Vec::new());
            self.note_scan(&task.chain);
        }
    }

    /// Check a declared partition scheme (R-FANOUT-POW2, R-HASH-BITS,
    /// R-FANOUT-BUFFER, A-SCHEME-CORES) against the widest row streaming
    /// through the partition passes.
    fn check_scheme(&mut self, id: usize, path: &str, scheme: &[usize], row_bytes: usize) {
        for &f in scheme {
            if f == 0 || !f.is_power_of_two() || f > MAX_ROUND_FANOUT {
                self.diag(
                    Rule::FanoutPow2,
                    id,
                    path,
                    format!(
                        "partition round fan-out {f} must be a power of two in \
                         1..={MAX_ROUND_FANOUT} (radix bits of one hash round)"
                    ),
                );
            }
        }
        let bits: u32 = scheme
            .iter()
            .map(|&f| {
                if f.is_power_of_two() {
                    f.trailing_zeros()
                } else {
                    0
                }
            })
            .sum();
        let schedulable = HASH_BITS - SKEW_RESERVED_BITS;
        if bits > schedulable {
            self.diag(
                Rule::HashBits,
                id,
                path,
                format!(
                    "scheme {scheme:?} consumes {bits} hash bits; only {schedulable} of \
                     {HASH_BITS} are schedulable ({SKEW_RESERVED_BITS} reserved for skew \
                     re-partitioning)"
                ),
            );
        }
        let cap = budget::max_buffered_fanout(row_bytes.max(1), self.ctx.dmem_bytes);
        if let Some(&f) = scheme.iter().find(|&&f| f.is_power_of_two() && f > cap) {
            self.diag(
                Rule::FanoutBuffer,
                id,
                path,
                format!(
                    "round fan-out {f} exceeds the {cap}-way local-buffer limit for \
                     {row_bytes}-byte rows (16-row minimum DMS burst in half of {} B DMEM)",
                    self.ctx.dmem_bytes
                ),
            );
        }
        let product: usize = scheme.iter().product();
        if product < self.ctx.cores {
            self.diag(
                Rule::SchemeCores,
                id,
                path,
                format!(
                    "scheme produces {product} partitions for {} cores; cores will idle",
                    self.ctx.cores
                ),
            );
        }
    }

    /// Check a join's filter of `bits` bits (S-JOIN-FILTER) and, where it
    /// may run on a partitioned join, derive its `join.filter` stage over
    /// the keys of `build`. A broadcast join's probe lanes build theirs
    /// beside their tables, in the state `join.probe` declares.
    fn join_filter(
        &mut self,
        id: usize,
        path: &str,
        (build, keys): (&PlanNode, &[usize]),
        join_type: JoinType,
        scheme: &[usize],
        bits: usize,
    ) {
        if let Err(why) = rapid_qef::ops::join_filter::check(bits, join_type, scheme) {
            return self.diag(Rule::JoinFilter, id, path, why);
        }
        let (Some(&fanout), Ok(widths)) = (scheme.first(), build.output_widths(self.catalog))
        else {
            return;
        };
        // A key out of bounds is S-COL-BOUNDS's to report.
        let key_widths: Option<Vec<usize>> = keys.iter().map(|&k| widths.get(k).copied()).collect();
        if let Some(key_widths) = key_widths {
            let decl = task::join_filter_decl(&key_widths, bits, fanout);
            self.stage(id, path, &[decl], Vec::new());
        }
    }

    /// A ranged join's or group-by's one stage (S-RANGED): every input it
    /// reads by range is a scan-fed chain of a table stored in the order of
    /// its one key — `keys`, one list an input — a column of the table, and
    /// its ranges, the partitions of `scheme`, are as many as a scheme of
    /// rounds within the fan-out cap of its widest input's rows makes. The
    /// stage is the task of the last chain read by range and the node's own
    /// operator (`PlanNode::ranged_tasks`), its fan-out the scheme; a lane
    /// runs the other chain's task before it, which must fit DMEM on its own
    /// (R-DMEM-FIT), and its working set is the largest of them all.
    fn ranged(
        &mut self,
        plan: &PlanNode,
        id: usize,
        path: &str,
        keys: &[&[usize]],
        scheme: &[usize],
    ) {
        let (catalog, ctx) = (self.catalog, self.ctx);
        // Both inputs, or a group-by's, are cut on their one key; one input
        // of a join on the first key its table is stored in the order of.
        let one_sided = (0..2).any(|edge| !plan.reads_by_range(edge))
            && matches!(plan, PlanNode::HashJoin { .. });
        let at = plan.range_key(catalog);
        for (edge, (input, keys)) in plan.inputs().zip(keys).enumerate() {
            if !plan.reads_by_range(edge) {
                continue;
            }
            let column = match keys {
                [key] => input.chain_column(*key),
                keys if one_sided => keys.get(at).and_then(|&key| input.chain_column(key)),
                _ => None,
            };
            let clustered = column.is_some_and(|(table, col)| {
                catalog.get(table).is_some_and(|t| t.clustered_on(col))
            });
            if !clustered {
                let why = format!(
                    "an input a ranged operator reads by range must be a scan-fed chain of a table \
                     stored in the order of its key, one column of the table; input {edge} on \
                     {keys:?} is not"
                );
                self.diag(Rule::Ranged, id, path, why);
            }
        }
        let widest = plan
            .inputs()
            .filter_map(|input| input.output_widths(catalog).ok())
            .map(|widths| widths.iter().sum::<usize>())
            .max()
            .unwrap_or(1);
        let cap = budget::max_buffered_fanout(widest.max(1), ctx.dmem_bytes).min(MAX_ROUND_FANOUT);
        if scheme.is_empty() || scheme.iter().any(|&f| !f.is_power_of_two() || f > cap) {
            let why = format!(
                "a ranged operator's {scheme:?} must be rounds of powers of two within the \
                 {cap}-way cap of its {widest}-byte rows"
            );
            self.diag(Rule::Ranged, id, path, why);
        }
        let Ok(Some(mut tasks)) = plan.ranged_tasks(catalog, ctx.dmem_bytes) else {
            return;
        };
        let Some(last) = tasks.pop() else {
            return;
        };
        let mut before = 0;
        for task in &tasks {
            match budget::task_tile(ctx.tile_rows, &task.decls, ctx.dmem_bytes) {
                Some((_, working_set)) => before = before.max(working_set),
                None => {
                    let why = format!(
                        "a lane of this ranged stage scans {} first, and that task exceeds \
                         DMEM ({} B)",
                        task.chain.table, ctx.dmem_bytes
                    );
                    self.diag(Rule::DmemFit, id, path, why);
                }
            }
        }
        self.stage(id, path, &last.decls, scheme.to_vec());
        // A lane holds, at its most, the larger of its tasks' working sets.
        if let Some(stage) = self.report.stages.last_mut() {
            stage.working_set_bytes = stage.working_set_bytes.max(before);
            if let PlanNode::HashJoin { ranged, .. } = plan {
                stage.ranged = Some(match ranged {
                    ByRange::Build => RangeRead::Build,
                    ByRange::Probe => RangeRead::Probe,
                    _ => RangeRead::Both,
                });
            }
        }
        self.note_scan(&last.chain);
    }

    /// Input `edge` of `plan`, a ranged join: a chain it reads by range,
    /// whose task its one stage reports, or the input of a pass routed by
    /// value bits, the pass's stage reported behind it. Returns what the
    /// input exposes.
    fn side(
        &mut self,
        plan: &PlanNode,
        edge: usize,
        id: usize,
        path: &str,
        scheme: &[usize],
    ) -> Result<NodeInfo, ()> {
        let input = plan.inputs().nth(edge).ok_or(())?;
        let input_path = format!("{path}.{}", ["build", "probe"][edge]);
        if plan.reads_by_range(edge) {
            return self.node(input, &input_path, true);
        }
        let info = self.consumed(plan, edge, input, id, path, &input_path, scheme);
        if let Some(stage) = self.report.stages.last_mut().filter(|s| s.node_id == id) {
            stage.ranged = Some(RangeRead::ValueBits);
        }
        info
    }

    /// Walk `plan`. `in_task` says a stage above reports this node as an
    /// operator of its task: a scan-fed chain its consumer's first stage
    /// ends the task of.
    fn node(&mut self, plan: &PlanNode, parent_path: &str, in_task: bool) -> Result<NodeInfo, ()> {
        // The nodes under the top of a scan-fed chain run in its task.
        let under = in_task || plan.is_scan_chain();
        let id = self.next_id;
        self.next_id += 1;
        let label = node_label(plan);
        let path = if parent_path.is_empty() {
            label.clone()
        } else {
            format!("{parent_path}/{label}")
        };
        match plan {
            PlanNode::Scan {
                table,
                columns,
                pred,
            } => {
                let Some(t) = self.catalog.get(table) else {
                    self.diag(
                        Rule::Schema,
                        id,
                        &path,
                        format!("table '{table}' is not in the catalog"),
                    );
                    return Err(());
                };
                let nfields = t.schema.len();
                let mut bad = false;
                for &c in columns {
                    if c >= nfields {
                        self.diag(
                            Rule::ColBounds,
                            id,
                            &path,
                            format!("scan projects column {c} but '{table}' has {nfields} columns"),
                        );
                        bad = true;
                    }
                }
                let mut pred_cols = Vec::new();
                if let Some(p) = pred {
                    p.referenced_columns(&mut pred_cols);
                }
                for &c in &pred_cols {
                    if c >= nfields {
                        self.diag(
                            Rule::ColBounds,
                            id,
                            &path,
                            format!(
                                "scan predicate references column {c} but '{table}' has {nfields} columns"
                            ),
                        );
                        bad = true;
                    }
                }
                if bad {
                    return Err(());
                }
                self.chain_stage(plan, id, &path, in_task, || {
                    unreachable!("a scan is a chain")
                });
                let meta = meta_of(plan, self.catalog, [])?;
                let ndv = columns
                    .iter()
                    .map(|&c| t.stats.column(c).map(|s| s.ndv))
                    .collect();
                Ok(NodeInfo { meta, ndv })
            }
            PlanNode::Filter { input, pred } => {
                let info = self.node(input, &path, under)?;
                let arity = info.meta.len();
                let mut refs = Vec::new();
                pred.referenced_columns(&mut refs);
                let mut bad = false;
                for &c in &refs {
                    if c >= arity {
                        self.diag(
                            Rule::ColBounds,
                            id,
                            &path,
                            format!("filter references column {c} of a {arity}-column input"),
                        );
                        bad = true;
                    }
                }
                if bad {
                    return Err(());
                }
                let catalog = self.catalog;
                let widths = || input.output_widths(catalog).unwrap_or_default();
                self.chain_stage(plan, id, &path, in_task, || task::filter_decl(&widths()));
                Ok(info)
            }
            PlanNode::Map { input, exprs } => {
                let info = self.node(input, &path, under)?;
                let arity = info.meta.len();
                let mut refs = Vec::new();
                for e in exprs {
                    e.expr.referenced_columns(&mut refs);
                }
                refs.sort_unstable();
                refs.dedup();
                let mut bad = false;
                for &c in &refs {
                    if c >= arity {
                        self.diag(
                            Rule::ColBounds,
                            id,
                            &path,
                            format!(
                                "map expression references column {c} of a {arity}-column input"
                            ),
                        );
                        bad = true;
                    }
                }
                if bad {
                    return Err(());
                }
                let catalog = self.catalog;
                let widths = || input.output_widths(catalog).unwrap_or_default();
                self.chain_stage(plan, id, &path, in_task, || {
                    task::map_decl(&widths(), exprs)
                });
                let meta = meta_of(plan, catalog, [info.meta])?;
                let ndv = exprs
                    .iter()
                    .map(|e| match &e.expr {
                        Expr::Col(i) => info.ndv.get(*i).copied().flatten(),
                        Expr::Lit(_) => Some(1),
                        _ => None,
                    })
                    .collect();
                Ok(NodeInfo { meta, ndv })
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
                // Visit both children even if one fails, so pre-order ids
                // stay aligned with the tracer's. Each side's partition
                // pass is reported behind the input it reads, and a join
                // filter's stage between them, where the engine builds it.
                // A ranged join is one stage over the chains it reads by
                // range, with its filter beside each lane's table, after the
                // value-bit pass of an input it does not.
                let (b, p) = if ranged.any() {
                    let b = self.side(plan, 0, id, &path, scheme);
                    let p = self.side(plan, 1, id, &path, scheme);
                    if let Some(bits) = *filter {
                        if let Err(why) = rapid_qef::ops::join_filter::check(bits, *join_type, &[])
                        {
                            self.diag(Rule::JoinFilter, id, &path, why);
                        }
                    }
                    self.ranged(plan, id, &path, &[build_keys, probe_keys], scheme);
                    (b, p)
                } else {
                    let b =
                        self.consumed(plan, 0, build, id, &path, &format!("{path}.build"), scheme);
                    if let Some(bits) = *filter {
                        self.join_filter(id, &path, (build, build_keys), *join_type, scheme, bits);
                    }
                    let p =
                        self.consumed(plan, 1, probe, id, &path, &format!("{path}.probe"), scheme);
                    (b, p)
                };
                let (b, p) = (b?, p?);
                let (nb, np) = (build_keys.len(), probe_keys.len());
                if nb == 0 || np == 0 || nb != np {
                    self.diag(
                        Rule::JoinArity,
                        id,
                        &path,
                        format!(
                            "join has {nb} build keys and {np} probe keys (need equal-length, \
                             non-empty key lists)"
                        ),
                    );
                }
                for &k in build_keys {
                    if k >= b.meta.len() {
                        self.diag(
                            Rule::ColBounds,
                            id,
                            &path,
                            format!(
                                "build key {k} out of bounds for the {}-column build input",
                                b.meta.len()
                            ),
                        );
                    }
                }
                for &k in probe_keys {
                    if k >= p.meta.len() {
                        self.diag(
                            Rule::ColBounds,
                            id,
                            &path,
                            format!(
                                "probe key {k} out of bounds for the {}-column probe input",
                                p.meta.len()
                            ),
                        );
                    }
                }
                for (&bk, &pk) in build_keys.iter().zip(probe_keys.iter()) {
                    let (Some(bm), Some(pm)) = (b.meta.get(bk), p.meta.get(pk)) else {
                        continue;
                    };
                    if bm.dtype != pm.dtype {
                        self.diag(
                            Rule::TypeMismatch,
                            id,
                            &path,
                            format!(
                                "join key types differ: build '{}' is {:?}, probe '{}' is {:?}",
                                bm.name, bm.dtype, pm.name, pm.dtype
                            ),
                        );
                    } else if matches!(bm.dtype, DataType::Varchar) && bm.dict != pm.dict {
                        self.diag(
                            Rule::TypeMismatch,
                            id,
                            &path,
                            format!(
                                "join keys '{}' and '{}' come from different dictionaries \
                                 ({:?} vs {:?}); their codes are not comparable",
                                bm.name, pm.name, bm.dict, pm.dict
                            ),
                        );
                    }
                }
                // A join of no rounds is broadcast: its probe stage, derived
                // above, is all it runs, as a ranged join its one stage. The
                // rest is the partitioned join's.
                if !scheme.is_empty() && !ranged.any() {
                    // Both inputs have passed the walk, so their widths
                    // resolve.
                    let bw = build.output_widths(self.catalog).map_err(|_| ())?;
                    let pw = probe.output_widths(self.catalog).map_err(|_| ())?;
                    let brow: usize = bw.iter().sum();
                    let prow: usize = pw.iter().sum();
                    self.check_scheme(id, &path, scheme, brow.max(prow));
                    // Pair stage: the DMEM-resident hash table takes half the
                    // scratchpad; key streams plus the matched row-id pairs.
                    let pairs = OpDecl {
                        name: OpName::of("join.pairs"),
                        state_bytes: self.ctx.dmem_bytes / 2,
                        in_widths: vec![8; nb + np],
                        out_widths: vec![8, 8],
                    };
                    self.stage(id, &path, &[pairs], Vec::new());
                }
                // The stage that writes the join's rows — the last of its
                // own — says how many of its sides' columns it writes.
                let sides = p.meta.len() + b.meta.len();
                if let Some(stage) = self.report.stages.last_mut() {
                    stage.join_columns = Some((output.len(), sides));
                }
                let mut paired = p.ndv;
                if join_type.pairs() {
                    paired.extend(b.ndv);
                }
                if let Some(c) = output.iter().find(|&&c| c >= paired.len()) {
                    let why = format!(
                        "join writes column {c} of the {} columns its rows pair",
                        paired.len()
                    );
                    self.diag(Rule::ColBounds, id, &path, why);
                    return Err(());
                }
                let ndv = output.iter().map(|&c| paired[c]).collect();
                let meta = meta_of(plan, self.catalog, [b.meta, p.meta])?;
                Ok(NodeInfo { meta, ndv })
            }
            PlanNode::GroupBy {
                input,
                keys,
                aggs,
                strategy,
                ..
            } => {
                let fanouts = plan.partition_scheme().unwrap_or_default();
                let info = match strategy {
                    GroupStrategy::Ranged(scheme) => {
                        let info = self.node(input, &path, true);
                        self.ranged(plan, id, &path, &[keys], scheme);
                        info?
                    }
                    _ => self.consumed(plan, 0, input, id, &path, &path, fanouts)?,
                };
                let arity = info.meta.len();
                let mut bad = false;
                for &k in keys {
                    if k >= arity {
                        self.diag(
                            Rule::ColBounds,
                            id,
                            &path,
                            format!("group-by key {k} out of bounds for a {arity}-column input"),
                        );
                        bad = true;
                    }
                }
                for a in aggs {
                    if a.col >= arity {
                        self.diag(
                            Rule::ColBounds,
                            id,
                            &path,
                            format!(
                                "aggregate input column {} out of bounds for a {arity}-column input",
                                a.col
                            ),
                        );
                        bad = true;
                    }
                }
                if bad {
                    return Err(());
                }
                if let GroupStrategy::OnTheFly { slots } = strategy {
                    let known = keys
                        .iter()
                        .try_fold(1u64, |acc, &k| info.ndv[k].and_then(|n| acc.checked_mul(n)));
                    let limit = on_the_fly_group_limit(self.ctx.dmem_bytes, keys.len(), aggs);
                    let table = || {
                        format!(
                            "the per-core DMEM table caps at {limit} ({} B DMEM, {} keys, {} \
                             accumulators)",
                            self.ctx.dmem_bytes,
                            keys.len(),
                            accumulator_count(aggs)
                        )
                    };
                    let mut over = Vec::new();
                    if let Some(n) = known.filter(|&n| n as usize > limit) {
                        over.push(format!("must hold ~{n} groups"));
                    }
                    // A slot table holds a group per slot, every slot of it.
                    if let Some(ranges) = slots {
                        let n = slot_count(ranges).filter(|_| ranges.len() == keys.len());
                        if n.is_none_or(|n| n > limit) {
                            let n = n.map_or("too many".into(), |n| n.to_string());
                            let declared =
                                format!("{} key ranges for {} keys", ranges.len(), keys.len());
                            over.push(format!("declares {declared}, {n} slots"));
                        }
                    }
                    for what in over {
                        let msg = format!("on-the-fly group-by {what} but {}", table());
                        self.diag(Rule::GroupLimit, id, &path, msg);
                    }
                }
                if let GroupStrategy::Partitioned(scheme) = strategy {
                    // The pass over the group-by's input is a join side's:
                    // the same rules over its declared scheme. What it
                    // wrote, a group table per partition consumes.
                    let widths = input.output_widths(self.catalog).map_err(|_| ())?;
                    self.check_scheme(id, &path, scheme, widths.iter().sum());
                    let consume =
                        task::group_consume_decl(keys, aggs, &widths, self.ctx.dmem_bytes);
                    self.stage(id, &path, &[consume], Vec::new());
                }
                let mut ndv = Vec::with_capacity(keys.len() + aggs.len());
                ndv.extend(keys.iter().map(|&k| info.ndv[k]));
                ndv.resize(keys.len() + aggs.len(), None);
                let meta = meta_of(plan, self.catalog, [info.meta])?;
                Ok(NodeInfo { meta, ndv })
            }
            PlanNode::TopK { input, order, .. } | PlanNode::Sort { input, order, .. } => {
                let info = self.consumed(plan, 0, input, id, &path, &path, &[])?;
                let arity = info.meta.len();
                let mut bad = false;
                for s in order {
                    if s.col >= arity {
                        self.diag(
                            Rule::ColBounds,
                            id,
                            &path,
                            format!(
                                "sort key {} out of bounds for a {arity}-column input",
                                s.col
                            ),
                        );
                        bad = true;
                    }
                }
                if bad {
                    return Err(());
                }
                Ok(info)
            }
            PlanNode::Limit { input, .. } => self.node(input, &path, false),
            PlanNode::SetOp { left, right, .. } => {
                let l = self.node(left, &format!("{path}.left"), false);
                let r = self.node(right, &format!("{path}.right"), false);
                let (l, r) = (l?, r?);
                if l.meta.len() != r.meta.len() {
                    self.diag(
                        Rule::TypeMismatch,
                        id,
                        &path,
                        format!(
                            "set operation inputs differ in arity: {} columns vs {}",
                            l.meta.len(),
                            r.meta.len()
                        ),
                    );
                } else {
                    for (i, (lm, rm)) in l.meta.iter().zip(r.meta.iter()).enumerate() {
                        if lm.dtype != rm.dtype {
                            self.diag(
                                Rule::TypeMismatch,
                                id,
                                &path,
                                format!(
                                    "set operation column {i} ('{}') is {:?} on the left but \
                                     {:?} on the right",
                                    lm.name, lm.dtype, rm.dtype
                                ),
                            );
                        } else if matches!(lm.dtype, DataType::Varchar) && lm.dict != rm.dict {
                            self.diag(
                                Rule::TypeMismatch,
                                id,
                                &path,
                                format!(
                                    "set operation column {i} ('{}') uses different dictionaries \
                                     on each side ({:?} vs {:?})",
                                    lm.name, lm.dict, rm.dict
                                ),
                            );
                        }
                    }
                }
                let setop = OpDecl {
                    name: OpName::of("setop"),
                    state_bytes: self.ctx.dmem_bytes / 2,
                    in_widths: plan.output_widths(self.catalog).map_err(|_| ())?,
                    out_widths: Vec::new(),
                };
                self.stage(id, &path, &[setop], Vec::new());
                let ndv = vec![None; l.meta.len()];
                let meta = meta_of(plan, self.catalog, [l.meta, r.meta])?;
                Ok(NodeInfo { meta, ndv })
            }
            PlanNode::Window {
                input,
                partition_by,
                order_by,
                func,
            } => {
                let info = self.node(input, &path, false)?;
                let arity = info.meta.len();
                let mut bad = false;
                let mut cols: Vec<usize> = partition_by.clone();
                cols.extend(order_by.iter().map(|s| s.col));
                if let rapid_qef::plan::WindowFunc::RunningSum { col } = func {
                    cols.push(*col);
                }
                for &c in &cols {
                    if c >= arity {
                        self.diag(
                            Rule::ColBounds,
                            id,
                            &path,
                            format!("window references column {c} of a {arity}-column input"),
                        );
                        bad = true;
                    }
                }
                if bad {
                    return Err(());
                }
                let window = OpDecl {
                    name: OpName::of("window"),
                    state_bytes: self.ctx.dmem_bytes / 2,
                    in_widths: input.output_widths(self.catalog).map_err(|_| ())?,
                    out_widths: vec![8], // the appended column
                };
                self.stage(id, &path, &[window], Vec::new());
                let mut ndv = info.ndv;
                ndv.push(None);
                let meta = meta_of(plan, self.catalog, [info.meta])?;
                Ok(NodeInfo { meta, ndv })
            }
        }
    }
}
