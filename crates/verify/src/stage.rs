//! The structural/resource/accounting checks of a plan and its stage list.
//!
//! [`check_plan`] walks the plan once, numbering nodes in the pre-order the
//! engine's tracer uses — so a diagnostic or a stage row points at the node
//! `EXPLAIN ANALYZE` shows — and checks every structural rule of a node
//! against it (`S-*`, A-GROUP-LIMIT). The plan is a tree the engine runs
//! bottom-up, so no schedule of it can be cyclic or use a stage before it
//! ran; the walk checks what a plan can get wrong.
//!
//! The stages are not derived here. The plan is lowered to its stage list —
//! `rapid_qef::stages::lower`, the one list the engine runs — and the list
//! is checked: a row per stage under the list's id, R-DMEM-FIT on the
//! working set a stage's operators hold together (a task's scan, the
//! operators over it and its consumer's first stage), the fan-out rules
//! (R-FANOUT-POW2, R-HASH-BITS, R-FANOUT-BUFFER, A-SCHEME-CORES) on a node's
//! passes, and of a stage over key ranges the tasks a lane runs before its
//! own. All DMEM arithmetic comes from `rapid_qef::budget`, the module the
//! engine sizes its vectors with, over the widths columns are stored and
//! handed on in (`PlanNode::output_widths`): a stage's working set is what a
//! lane of it holds in DMEM. What a node hands on is described by
//! `PlanNode::output_meta_from`, the step the engine's metadata derives
//! through, over the metadata the walk holds for its inputs.

use rapid_qef::budget::{self, HASH_BITS, MAX_ROUND_FANOUT, MIN_VECTOR_ROWS, SKEW_RESERVED_BITS};
use rapid_qef::exec::ExecContext;
use rapid_qef::expr::Expr;
use rapid_qef::ops::groupby::{accumulator_count, on_the_fly_group_limit, slot_count};
use rapid_qef::plan::{ByRange, Catalog, ColMeta, GroupStrategy, PlanNode};
use rapid_qef::stages::{Source, Stage};
use rapid_storage::types::DataType;

use crate::diag::{Diagnostic, RangeRead, Rule, StageReport, VerifyReport};

/// Operator label of a plan node, as used in paths and diagnostics.
struct Label<'a>(&'a PlanNode);

impl std::fmt::Display for Label<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            PlanNode::Scan { table, .. } => write!(f, "Scan({table})"),
            PlanNode::Filter { .. } => f.write_str("Filter"),
            PlanNode::Map { .. } => f.write_str("Map"),
            PlanNode::HashJoin { .. } => f.write_str("HashJoin"),
            PlanNode::GroupBy { .. } => f.write_str("GroupBy"),
            PlanNode::TopK { .. } => f.write_str("TopK"),
            PlanNode::Sort { .. } => f.write_str("Sort"),
            PlanNode::Limit { .. } => f.write_str("Limit"),
            PlanNode::SetOp { .. } => f.write_str("SetOp"),
            PlanNode::Window { .. } => f.write_str("Window"),
        }
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

/// Radix bits a scheme's rounds consume: a round that is no power of two
/// consumes none (R-FANOUT-POW2 reports it).
fn hash_bits(scheme: &[usize]) -> u32 {
    let bits = scheme.iter().filter(|f| f.is_power_of_two());
    bits.map(|f| f.trailing_zeros()).sum()
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
/// configuration rules, the per-node structural/resource/accounting walk,
/// then the plan's stage list.
pub fn check_plan(plan: &PlanNode, catalog: &Catalog, ctx: &ExecContext) -> VerifyReport {
    let mut report = VerifyReport::default();
    check_config(ctx, &mut report);
    // A row per stage of the list; the walk puts each node's path on its
    // rows.
    let list = rapid_qef::stages::lower(plan, catalog, ctx);
    if let Ok(list) = &list {
        report.stages = list.iter().map(|stage| row(stage, catalog, ctx)).collect();
    }
    let mut w = Walker {
        catalog,
        ctx,
        report: &mut report,
        next_id: 0,
        joins: Vec::new(),
    };
    let _ = w.node(plan, "");
    match list {
        Ok(list) => w.stages(&list),
        // A plan the walk found at fault need not lower; one it passed must.
        Err(e) if w.report.ok() => {
            let why = format!("the plan does not lower to the stages it runs: {e}");
            w.diag(Rule::Schema, 0, &Label(plan).to_string(), why);
        }
        Err(_) => {}
    }
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
    /// Of every join, its pre-order id, the columns it writes and the
    /// columns its probe and build sides hand it together.
    joins: Vec<(usize, (usize, usize))>,
}

impl Walker<'_> {
    fn diag(&mut self, rule: Rule, id: usize, path: &str, msg: String) {
        self.report
            .diagnostics
            .push(Diagnostic::new(rule, id, path, msg));
    }

    /// Check the plan's stage list against its rows, in run order: what
    /// every stage holds (R-DMEM-FIT), each node's passes against their
    /// scheme once, and of a stage over key ranges the tasks a lane runs
    /// before its own.
    fn stages(&mut self, list: &[Stage<'_>]) {
        for (k, stage) in list.iter().enumerate() {
            let id = stage.node_id as usize;
            let path = std::mem::take(&mut self.report.stages[k].path);
            let of_node = |s: &&Stage<'_>| s.node_id == stage.node_id;
            let first_pass = !list[..k].iter().filter(of_node).any(|s| s.is_pass());
            if stage.is_pass() && first_pass && stage.node.ranged_scheme().is_none() {
                // The widest row streaming through the node's passes.
                let passes = list.iter().filter(of_node).filter(|s| s.is_pass());
                let rows = passes.filter_map(|s| Some(s.decls().last()?.in_widths.iter().sum()));
                self.check_scheme(id, &path, stage.fanouts, rows.max().unwrap_or(0));
            }
            // A lane of a stage over key ranges runs the tasks of the chains
            // before its last first, each on its own.
            let mut before = 0;
            let chains = stage.chains().count();
            for (task, _, fit) in stage.chains().take(chains.saturating_sub(1)) {
                match fit {
                    Some((_, working_set)) => before = before.max(working_set),
                    None => {
                        let why = format!(
                            "a lane of this ranged stage scans {} first, and that task exceeds \
                             DMEM ({} B)",
                            task.chain.table, self.ctx.dmem_bytes
                        );
                        self.diag(Rule::DmemFit, id, &path, why);
                    }
                }
            }
            let row = &self.report.stages[k];
            if row.effective_tile.is_none() {
                let together = match row.operators.as_str() {
                    "" => String::new(),
                    operators => format!(" (the task of {operators})"),
                };
                let (state, per_row) = (row.state_bytes, row.stream_bytes_per_row);
                let why = format!(
                    "stage '{}'{together} needs {state} B state + {per_row} B/row; even a \
                     single-buffered {MIN_VECTOR_ROWS}-row vector ({} B) exceeds DMEM ({} B)",
                    row.stage,
                    state + per_row * MIN_VECTOR_ROWS,
                    self.ctx.dmem_bytes
                );
                self.diag(Rule::DmemFit, id, &path, why);
            }
            // The stage that writes a join's rows — the last of its own —
            // says how many of its sides' columns it writes.
            let last_of_node = !list[k + 1..].iter().any(|s| of_node(&s));
            let written = self.joins.iter().find(|(node, _)| *node == id);
            let written = written
                .filter(|_| last_of_node)
                .map(|(_, columns)| *columns);
            let row = &mut self.report.stages[k];
            row.working_set_bytes = row.working_set_bytes.max(before);
            row.join_columns = written;
            row.path = path;
        }
    }
}

/// The row of one stage — the task of its operators, bottom first, reported
/// under the label of the last — with the working set they hold together:
/// its path is its node's, which the walk puts on it.
fn row(stage: &Stage<'_>, catalog: &Catalog, ctx: &ExecContext) -> StageReport {
    use std::fmt::Write;
    let ops = stage.decls();
    // A task of several operators lists them; the label of a stage of one
    // says all there is.
    let several = ops.len() > 1;
    let mut operators = String::with_capacity(if several { 24 * ops.len() } else { 0 });
    for op in ops.iter().filter(|_| several) {
        let arrow = if operators.is_empty() { "" } else { " -> " };
        let _ = write!(operators, "{arrow}{}", op.name);
    }
    let state_bytes = budget::task_state(ops);
    let (streams, per_row) =
        budget::task_streams(ops).fold((0, 0), |(n, bytes), w| (n + 1, bytes + w));
    let fit = budget::fit_tile(state_bytes, per_row, ctx.dmem_bytes);
    let eff = fit.map(|f| ctx.tile_rows.min(f.rows));
    let double = fit.is_some_and(|f| f.double_buffered);
    // A descriptor per stream buffer each loop iteration.
    let descriptors = match (eff, double) {
        (None, _) => 0,
        (Some(_), false) => streams,
        (Some(_), true) => 2 * streams,
    };
    let tile = eff.unwrap_or(MIN_VECTOR_ROWS);
    let working_set = budget::working_set(state_bytes, per_row, tile, ctx.dmem_bytes);
    // The chain a task scans: the last one of a stage over key ranges.
    let scan_columns = stage.chains().last().and_then(|(task, ..)| {
        let of = catalog.get(task.chain.table)?.schema.len();
        Some((task.chain.columns.len(), of))
    });
    let ranged = match stage.node {
        PlanNode::HashJoin { ranged, .. } if ranged.any() => match (&stage.source, ranged) {
            (Source::Ranges(_), ByRange::Build) => Some(RangeRead::Build),
            (Source::Ranges(_), ByRange::Probe) => Some(RangeRead::Probe),
            (Source::Ranges(_), _) => Some(RangeRead::Both),
            _ => stage.is_pass().then_some(RangeRead::ValueBits),
        },
        _ => None,
    };
    StageReport {
        entry_id: stage.id,
        node_id: stage.node_id as usize,
        path: String::new(),
        stage: stage.label().to_string(),
        operators,
        state_bytes,
        stream_bytes_per_row: per_row,
        effective_tile: eff,
        double_buffered: double,
        working_set_bytes: working_set,
        fanouts: stage.fanouts.to_vec(),
        hash_bits: hash_bits(stage.fanouts),
        descriptors,
        scan_columns,
        join_columns: None,
        ranged,
    }
}

impl Walker<'_> {
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
        let bits = hash_bits(scheme);
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

    /// A ranged join's or group-by's one stage (S-RANGED): every input it
    /// reads by range is a scan-fed chain of a table stored in the order of
    /// its one key — `keys`, one list an input — a column of the table, and
    /// its ranges, the partitions of `scheme`, are as many as a scheme of
    /// rounds within the fan-out cap of its widest input's rows makes. What
    /// a lane of the stage holds is the stage list's to check.
    fn ranged(
        &mut self,
        plan: &PlanNode,
        id: usize,
        path: &str,
        keys: &[&[usize]],
        scheme: &[usize],
    ) {
        let (catalog, ctx) = (self.catalog, self.ctx);
        for (edge, keys) in keys.iter().enumerate() {
            if !plan.reads_by_range(edge) {
                continue;
            }
            let clustered = plan
                .range_column(edge, catalog)
                .is_some_and(|(table, col)| {
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
    }

    /// S-COL-BOUNDS: every column of `cols` is one of `arity`; a finding
    /// `what` words for each that is not. `false` where one is not.
    fn in_bounds(
        &mut self,
        id: usize,
        path: &str,
        cols: &[usize],
        arity: usize,
        what: impl Fn(usize) -> String,
    ) -> bool {
        let mut ok = true;
        for &c in cols.iter().filter(|&&c| c >= arity) {
            self.diag(Rule::ColBounds, id, path, what(c));
            ok = false;
        }
        ok
    }

    /// Walk `plan`, under the node at `parent_path`.
    fn node(&mut self, plan: &PlanNode, parent_path: &str) -> Result<NodeInfo, ()> {
        let id = self.next_id;
        self.next_id += 1;
        let mut path = match parent_path {
            "" => Label(plan).to_string(),
            parent => format!("{parent}/{}", Label(plan)),
        };
        let info = self.check(plan, id, &path);
        // The node's rows take its path, the last one the walk's own.
        let rows = self
            .report
            .stages
            .iter_mut()
            .filter(|row| row.node_id == id);
        let mut rows = rows.peekable();
        while let Some(row) = rows.next() {
            match rows.peek() {
                Some(_) => row.path.clone_from(&path),
                None => row.path = std::mem::take(&mut path),
            }
        }
        info
    }

    /// The checks of node `id` at `path`, after its inputs'.
    fn check(&mut self, plan: &PlanNode, id: usize, path: &str) -> Result<NodeInfo, ()> {
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
                        path,
                        format!("table '{table}' is not in the catalog"),
                    );
                    return Err(());
                };
                let nfields = t.schema.len();
                let mut pred_cols = Vec::new();
                if let Some(p) = pred {
                    p.referenced_columns(&mut pred_cols);
                }
                let of = |what: &'static str| {
                    move |c| format!("{what} column {c} but '{table}' has {nfields} columns")
                };
                let projected = self.in_bounds(id, path, columns, nfields, of("scan projects"));
                let of_pred = of("scan predicate references");
                let read = self.in_bounds(id, path, &pred_cols, nfields, of_pred);
                if !(projected && read) {
                    return Err(());
                }
                let meta = meta_of(plan, self.catalog, [])?;
                let ndv = columns
                    .iter()
                    .map(|&c| t.stats.column(c).map(|s| s.ndv))
                    .collect();
                Ok(NodeInfo { meta, ndv })
            }
            PlanNode::Filter { input, pred } => {
                let info = self.node(input, path)?;
                let arity = info.meta.len();
                let mut refs = Vec::new();
                pred.referenced_columns(&mut refs);
                let what = |c| format!("filter references column {c} of a {arity}-column input");
                if !self.in_bounds(id, path, &refs, arity, what) {
                    return Err(());
                }
                Ok(info)
            }
            PlanNode::Map { input, exprs } => {
                let info = self.node(input, path)?;
                let arity = info.meta.len();
                let mut refs = Vec::new();
                for e in exprs {
                    e.expr.referenced_columns(&mut refs);
                }
                refs.sort_unstable();
                refs.dedup();
                let what =
                    |c| format!("map expression references column {c} of a {arity}-column input");
                if !self.in_bounds(id, path, &refs, arity, what) {
                    return Err(());
                }
                let meta = meta_of(plan, self.catalog, [info.meta])?;
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
                // stay aligned with the tracer's. A ranged join tests its
                // filter beside each lane's table: a filter of no rounds.
                let b = self.node(build, &format!("{path}.build"));
                let rounds = if ranged.any() { &[][..] } else { &scheme[..] };
                if let Some(bits) = *filter {
                    if let Err(why) = rapid_qef::ops::join_filter::check(bits, *join_type, rounds) {
                        self.diag(Rule::JoinFilter, id, path, why);
                    }
                }
                let p = self.node(probe, &format!("{path}.probe"));
                if ranged.any() {
                    self.ranged(plan, id, path, &[build_keys, probe_keys], scheme);
                }
                let (b, p) = (b?, p?);
                let (nb, np) = (build_keys.len(), probe_keys.len());
                if nb == 0 || np == 0 || nb != np {
                    self.diag(
                        Rule::JoinArity,
                        id,
                        path,
                        format!(
                            "join has {nb} build keys and {np} probe keys (need equal-length, \
                             non-empty key lists)"
                        ),
                    );
                }
                for (side, keys, arity) in [
                    ("build", build_keys, b.meta.len()),
                    ("probe", probe_keys, p.meta.len()),
                ] {
                    let what = |k| {
                        format!("{side} key {k} out of bounds for the {arity}-column {side} input")
                    };
                    self.in_bounds(id, path, keys, arity, what);
                }
                for (&bk, &pk) in build_keys.iter().zip(probe_keys.iter()) {
                    let (Some(bm), Some(pm)) = (b.meta.get(bk), p.meta.get(pk)) else {
                        continue;
                    };
                    if bm.dtype != pm.dtype {
                        self.diag(
                            Rule::TypeMismatch,
                            id,
                            path,
                            format!(
                                "join key types differ: build '{}' is {:?}, probe '{}' is {:?}",
                                bm.name, bm.dtype, pm.name, pm.dtype
                            ),
                        );
                    } else if matches!(bm.dtype, DataType::Varchar) && bm.dict != pm.dict {
                        self.diag(
                            Rule::TypeMismatch,
                            id,
                            path,
                            format!(
                                "join keys '{}' and '{}' come from different dictionaries \
                                 ({:?} vs {:?}); their codes are not comparable",
                                bm.name, pm.name, bm.dict, pm.dict
                            ),
                        );
                    }
                }
                // The stage that writes the join's rows — the last of its
                // own — says how many of its sides' columns it writes.
                self.joins
                    .push((id, (output.len(), p.meta.len() + b.meta.len())));
                let mut paired = p.ndv;
                if join_type.pairs() {
                    paired.extend(b.ndv);
                }
                if let Some(c) = output.iter().find(|&&c| c >= paired.len()) {
                    let why = format!(
                        "join writes column {c} of the {} columns its rows pair",
                        paired.len()
                    );
                    self.diag(Rule::ColBounds, id, path, why);
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
                let info = self.node(input, path);
                if let GroupStrategy::Ranged(scheme) = strategy {
                    self.ranged(plan, id, path, &[keys], scheme);
                }
                let info = info?;
                let arity = info.meta.len();
                let what = |c| format!("group-by key {c} out of bounds for a {arity}-column input");
                let keyed = self.in_bounds(id, path, keys, arity, what);
                let inputs: Vec<usize> = aggs.iter().map(|a| a.col).collect();
                let what = |c| {
                    format!("aggregate input column {c} out of bounds for a {arity}-column input")
                };
                if !(keyed && self.in_bounds(id, path, &inputs, arity, what)) {
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
                        self.diag(Rule::GroupLimit, id, path, msg);
                    }
                }
                let mut ndv = Vec::with_capacity(keys.len() + aggs.len());
                ndv.extend(keys.iter().map(|&k| info.ndv[k]));
                ndv.resize(keys.len() + aggs.len(), None);
                let meta = meta_of(plan, self.catalog, [info.meta])?;
                Ok(NodeInfo { meta, ndv })
            }
            PlanNode::TopK { input, order, .. } | PlanNode::Sort { input, order, .. } => {
                let info = self.node(input, path)?;
                let arity = info.meta.len();
                let cols: Vec<usize> = order.iter().map(|s| s.col).collect();
                let what = |c| format!("sort key {c} out of bounds for a {arity}-column input");
                if !self.in_bounds(id, path, &cols, arity, what) {
                    return Err(());
                }
                Ok(info)
            }
            PlanNode::Limit { input, .. } => self.node(input, path),
            PlanNode::SetOp { left, right, .. } => {
                let l = self.node(left, &format!("{path}.left"));
                let r = self.node(right, &format!("{path}.right"));
                let (l, r) = (l?, r?);
                if l.meta.len() != r.meta.len() {
                    self.diag(
                        Rule::TypeMismatch,
                        id,
                        path,
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
                                path,
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
                                path,
                                format!(
                                    "set operation column {i} ('{}') uses different dictionaries \
                                     on each side ({:?} vs {:?})",
                                    lm.name, lm.dict, rm.dict
                                ),
                            );
                        }
                    }
                }
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
                let info = self.node(input, path)?;
                let arity = info.meta.len();
                let mut cols: Vec<usize> = partition_by.clone();
                cols.extend(order_by.iter().map(|s| s.col));
                if let rapid_qef::plan::WindowFunc::RunningSum { col } = func {
                    cols.push(*col);
                }
                let what = |c| format!("window references column {c} of a {arity}-column input");
                if !self.in_bounds(id, path, &cols, arity, what) {
                    return Err(());
                }
                let mut ndv = info.ndv;
                ndv.push(None);
                let meta = meta_of(plan, self.catalog, [info.meta])?;
                Ok(NodeInfo { meta, ndv })
            }
        }
    }
}
