//! The stage list (§5.1–5.2): a plan lowered once to the stages it runs.
//!
//! The compiler forms tasks and the QEF runs them. [`lower`] walks a plan
//! once, numbering its nodes in the tracer's pre-order, and lists its stages
//! in run order. An entry has an id (its place in the list, printed `s<k>`
//! by `EXPLAIN ANALYZE`, `EXPLAIN VERIFY` and `rapid-report`), its node, what
//! its operators declare against DMEM ([`OpDecl`]) and the tile and working
//! set they fit at, its declared fan-outs, its source and the earlier entries
//! whose results it reads. Where a task ends is [`first_stage`]'s rule,
//! asked here. The engine runs the list in order, holding each entry's
//! results until the entry that reads them runs, and the verifier checks it.
//!
//! What a stage decides from its rows stays run-time data: a scan's access
//! path and how its rows are dealt, key-range bounds, the skew rounds inside
//! a partition pair. A partition pass is one entry whose rounds are its
//! events (a pass of at most a tile runs as round one of one); a stage the
//! engine may skip — a `window` over no rows — is marked optional.

use crate::budget::{self, OpDecl, OpName};
use crate::error::{QefError, QefResult};
use crate::exec::ExecContext;
use crate::ops::join_filter;
use crate::plan::{Catalog, GroupStrategy, PlanNode};
use crate::task::{self, Takes, Task};

/// A plan's stages in run order: a stage's id is its place here.
pub type StagePlan<'p> = Vec<Stage<'p>>;

/// Where a stage sits in its list and its plan, and the label it runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<'p> {
    /// Its place in the list, `s<id>`.
    pub id: u32,
    /// Pre-order id of the plan node it belongs to.
    pub node_id: u32,
    /// That node's depth in the plan (root 0).
    pub depth: u32,
    /// Its last operator's label.
    pub label: OpName<'p>,
}

/// One stage of a plan.
#[derive(Debug)]
pub struct Stage<'p> {
    /// Its place in the list, `s<id>`.
    pub id: u32,
    /// Pre-order id of the node it belongs to.
    pub node_id: u32,
    /// That node's depth in the plan (root 0).
    pub depth: u32,
    /// Whether the engine may skip it at run time.
    pub optional: bool,
    /// The node it belongs to.
    pub node: &'p PlanNode,
    /// The fan-outs it declares: a partition pass's scheme, or the scheme
    /// whose partitions a ranged stage's key ranges are.
    pub fanouts: &'p [usize],
    /// What its lanes are dealt, and what its operators declare.
    pub source: Source<'p>,
    /// Of each input of its node, in input order (a join's build side
    /// first), the earlier entry whose results it reads: what the input's
    /// stages handed on or a pass of it wrote, and of a join's build side
    /// what a stage over the probe side holds beside it — the filter its
    /// pass tests, the rows a broadcast probe builds its table of.
    pub reads: [Option<u32>; 2],
    /// The rows a `Limit` over its node lets it hand on.
    pub limit: Option<usize>,
    /// The tile its operators run at together and the DMEM a lane of it
    /// holds ([`budget::task_tile`]): `None` where they do not fit.
    pub fit: Option<(usize, usize)>,
    /// The tile a partition pass over its rows streams at beside no other
    /// operator: a pass's rounds after the first; a pair's skew rounds (the
    /// narrower side's, of no filter); a ranged join's probe of the
    /// partition of a lane. `None` for another stage, or where it does not
    /// fit.
    pub pass_tile: Option<usize>,
}

/// What a stage's lanes are dealt.
#[derive(Debug)]
pub enum Source<'p> {
    /// The rows of a scan-fed chain's task, whose operators are the
    /// stage's, and the pre-order id of the chain's topmost node.
    Task(Task<'p>, u32),
    /// What the entries it [`reads`](Stage::reads) handed on or wrote, to
    /// its one operator.
    Read(OpDecl<'p>),
    /// Key ranges of the node's inputs, in input order: its operators are
    /// its last chain's.
    Ranges(Vec<RangeInput<'p>>),
}

/// An input of a stage over key ranges ([`crate::ops::ranges`]).
#[derive(Debug)]
pub enum RangeInput<'p> {
    /// A chain read by range: its task, which ends in the node's own
    /// operator and which a lane holds while it reads the chain, the chain's
    /// topmost node, and what the task fits at.
    Chain(Task<'p>, u32, Option<(usize, usize)>),
    /// The partitions the pass the stage reads of this input wrote, routed
    /// by value bits.
    Pass,
}

impl<'p> Stage<'p> {
    /// Its id, node and label, as its events carry them.
    pub fn entry(&self) -> Entry<'p> {
        Entry {
            id: self.id,
            node_id: self.node_id,
            depth: self.depth,
            label: self.label(),
        }
    }

    /// Its last operator's label.
    pub fn label(&self) -> OpName<'p> {
        self.decls().last().map_or(OpName::of(""), |op| op.name)
    }

    /// The chains its lanes scan, in input order, each with its topmost
    /// node and what its task fits at: a task's one, or those a stage over
    /// key ranges reads by range.
    pub fn chains(&self) -> impl Iterator<Item = (&Task<'p>, u32, Option<(usize, usize)>)> {
        let (task, ranged) = match &self.source {
            Source::Task(task, chain) => (Some((task, *chain, self.fit)), &[][..]),
            Source::Ranges(inputs) => (None, &inputs[..]),
            Source::Read(_) => (None, &[][..]),
        };
        task.into_iter()
            .chain(ranged.iter().filter_map(|input| match input {
                RangeInput::Chain(task, chain, fit) => Some((task, *chain, *fit)),
                RangeInput::Pass => None,
            }))
    }

    /// What its operators declare, bottom first.
    pub fn decls(&self) -> &[OpDecl<'p>] {
        match &self.source {
            Source::Read(op) => std::slice::from_ref(op),
            Source::Task(..) | Source::Ranges(_) => {
                self.chains().last().map_or(&[], |(task, ..)| &task.decls)
            }
        }
    }

    /// Whether it is the task of a scan-fed chain nothing above joined: the
    /// chain's topmost node is the stage's.
    pub fn is_chain_own(&self) -> bool {
        matches!(self.source, Source::Task(_, chain) if chain == self.node_id)
    }

    /// Whether it is a partition pass: its rounds are its events.
    pub fn is_pass(&self) -> bool {
        matches!(
            self.label().stage,
            "join.partition-build" | "join.partition-probe" | "groupby.partition"
        )
    }
}

/// Lower `plan` to the stages it runs on `ctx` over `catalog`'s tables.
/// `Err` where a stage cannot be declared: a table or column that does not
/// resolve, join keys of unequal arity or out of their side's columns, a join
/// filter the join may not have, or an input read by range that is no
/// scan-fed chain.
pub fn lower<'p>(
    plan: &'p PlanNode,
    catalog: &Catalog,
    ctx: &ExecContext,
) -> QefResult<StagePlan<'p>> {
    let mut lowering = Lowering {
        catalog,
        ctx,
        // Most plans run fewer stages than they have nodes.
        stages: Vec::with_capacity(nodes(plan)),
        next_id: 0,
    };
    lowering.node(plan, 0)?;
    Ok(lowering.stages)
}

/// The nodes of `plan`.
fn nodes(plan: &PlanNode) -> usize {
    1 + plan.inputs().map(nodes).sum::<usize>()
}

struct Lowering<'p, 'c> {
    catalog: &'c Catalog,
    ctx: &'c ExecContext,
    stages: Vec<Stage<'p>>,
    /// The pre-order id of the next node visited.
    next_id: u32,
}

/// A node's pre-order id and depth.
type At = (u32, u32);

impl<'p> Lowering<'p, '_> {
    /// The pre-order ids of `n` nodes visited in turn: the first.
    fn ids(&mut self, n: usize) -> u32 {
        let first = self.next_id;
        self.next_id += n as u32;
        first
    }

    /// Append a stage of `node` reading the entries `reads` names; its id.
    fn push(
        &mut self,
        node: &'p PlanNode,
        (node_id, depth): At,
        fanouts: &'p [usize],
        source: Source<'p>,
        reads: [Option<u32>; 2],
    ) -> u32 {
        let id = self.stages.len() as u32;
        let mut stage = Stage {
            id,
            node_id,
            depth,
            optional: false,
            node,
            fanouts,
            source,
            reads,
            limit: None,
            fit: None,
            pass_tile: None,
        };
        let (tile, dmem) = (self.ctx.tile_rows, self.ctx.dmem_bytes);
        let decls = stage.decls();
        let fit = budget::task_tile(tile, decls, dmem);
        let last = decls.last().map(std::slice::from_ref).unwrap_or_default();
        let alone = budget::task_tile(tile, last, dmem).map(|(tile, _)| tile);
        stage.fit = fit;
        stage.pass_tile = alone.filter(|_| stage.is_pass());
        self.stages.push(stage);
        id
    }

    /// The tile a pass of no filter over the rows entry `k`'s pass streams
    /// alone.
    fn unfiltered(&self, k: u32) -> Option<usize> {
        let widths = &self.stages[k as usize].decls().last()?.in_widths;
        let stream = budget::partition_stream_bytes(widths.iter().sum());
        let (tile, dmem) = (self.ctx.tile_rows, self.ctx.dmem_bytes);
        budget::effective_tile(tile, budget::BASE_STATE_BYTES, stream, dmem)
    }

    /// A stage of `node`'s one operator `op` over what `from` handed on.
    fn read(&mut self, node: &'p PlanNode, at: At, from: u32, op: OpDecl<'p>) -> u32 {
        self.push(node, at, &[], Source::Read(op), [Some(from), None])
    }

    /// The merge after `consume`, `node`'s stage of a table, heap or run a
    /// lane: one core folds what the lanes left, holding what a lane held.
    fn merge(&mut self, node: &'p PlanNode, at: At, consume: u32, name: &'static str) -> u32 {
        let held = self.stages[consume as usize].decls().last();
        let op = OpDecl {
            name: OpName::of(name),
            state_bytes: held.map_or(budget::BASE_STATE_BYTES, |d| d.state_bytes),
            in_widths: Vec::new(),
            out_widths: Vec::new(),
        };
        self.read(node, at, consume, op)
    }

    /// Lower `node` at `depth`: its inputs' stages, then its own. Returns the
    /// entry whose results the node hands on.
    fn node(&mut self, node: &'p PlanNode, depth: u32) -> QefResult<u32> {
        let at = (self.ids(1), depth);
        let (catalog, dmem) = (self.catalog, self.ctx.dmem_bytes);
        if let Some(chain) = node.scan_chain() {
            // A chain nothing above joined is a task of its own.
            self.next_id += chain.above.len() as u32;
            let (task, _) = chain.task(catalog)?;
            let source = Source::Task(task, at.0);
            return Ok(self.push(node, at, &[], source, [None, None]));
        }
        let below = depth + 1;
        Ok(match node {
            PlanNode::Scan { .. } => unreachable!("a scan is a chain of one"),
            PlanNode::Filter { input, .. } => {
                let from = self.node(input, below)?;
                let op = task::filter_decl(&input.output_widths(catalog)?);
                self.read(node, at, from, op)
            }
            PlanNode::Map { input, exprs } => {
                let from = self.node(input, below)?;
                let op = task::map_decl(&input.output_widths(catalog)?, exprs);
                self.read(node, at, from, op)
            }
            PlanNode::HashJoin {
                build,
                build_keys,
                probe_keys,
                join_type,
                scheme,
                filter,
                ranged,
                ..
            } => {
                if build_keys.len() != probe_keys.len() || build_keys.is_empty() {
                    return Err(QefError::BadPlan("join key arity mismatch".into()));
                }
                // A ranged join tests its filter beside each lane's table.
                let rounds = if ranged.any() { &[][..] } else { scheme };
                if let Some(bits) = filter {
                    crate::ops::join_filter::check(*bits, *join_type, rounds)
                        .map_err(QefError::BadPlan)?;
                }
                if ranged.any() {
                    return self.ranged(node, at);
                }
                if scheme.is_empty() {
                    // Broadcast: the build side runs as a node of its own,
                    // and every lane of the probe builds its table of it.
                    let built = self.node(build, below)?;
                    return self.first(node, 1, at, &[], Some(built));
                }
                let built = self.first(node, 0, at, scheme, None)?;
                let mut tested = None;
                if let Some(bits) = filter {
                    // A lane builds the slice of the filter of one round-one
                    // partition from its keys.
                    let widths = build.output_widths(catalog)?;
                    let keys = build_keys.iter().map(|&k| widths.get(k).copied());
                    let keys = keys.collect::<Option<Vec<usize>>>().ok_or_else(|| {
                        QefError::BadPlan("join key out of the build side's columns".into())
                    })?;
                    let op = task::join_filter_decl(&keys, *bits, scheme[0]);
                    tested = Some(self.read(node, at, built, op));
                }
                let probed = self.first(node, 1, at, scheme, tested)?;
                // A pair's table takes half the scratchpad beside the key
                // streams of both sides and the pairs of row ids it matches.
                let op = OpDecl {
                    name: OpName::of("join.pairs"),
                    state_bytes: dmem / 2,
                    in_widths: vec![8; build_keys.len() + probe_keys.len()],
                    out_widths: vec![8, 8],
                };
                let reads = [Some(built), Some(probed)];
                let pairs = self.push(node, at, &[], Source::Read(op), reads);
                let tile = self.unfiltered(built).zip(self.unfiltered(probed));
                self.stages[pairs as usize].pass_tile = tile.map(|(b, p)| b.min(p));
                pairs
            }
            PlanNode::GroupBy {
                input,
                keys,
                aggs,
                strategy,
            } => match strategy {
                GroupStrategy::Ranged(_) => return self.ranged(node, at),
                GroupStrategy::OnTheFly { .. } => {
                    let consume = self.first(node, 0, at, &[], None)?;
                    self.merge(node, at, consume, "groupby.merge")
                }
                GroupStrategy::Partitioned(scheme) => {
                    let pass = self.first(node, 0, at, scheme, None)?;
                    let widths = input.output_widths(catalog)?;
                    let op = task::group_consume_decl(keys, aggs, &widths, dmem);
                    self.read(node, at, pass, op)
                }
            },
            PlanNode::TopK { .. } => {
                let heaps = self.first(node, 0, at, &[], None)?;
                self.merge(node, at, heaps, "topk.merge")
            }
            PlanNode::Sort { .. } => {
                let runs = self.first(node, 0, at, &[], None)?;
                self.merge(node, at, runs, "sort.merge")
            }
            PlanNode::Limit { input, n } => {
                let from = self.node(input, below)?;
                let limit = &mut self.stages[from as usize].limit;
                *limit = Some(limit.map_or(*n, |m| m.min(*n)));
                from
            }
            PlanNode::SetOp { left, right, .. } => {
                let left = self.node(left, below)?;
                let right = self.node(right, below)?;
                let op = OpDecl {
                    name: OpName::of("setop"),
                    state_bytes: dmem / 2,
                    in_widths: node.output_widths(catalog)?,
                    out_widths: Vec::new(),
                };
                let reads = [Some(left), Some(right)];
                self.push(node, at, &[], Source::Read(op), reads)
            }
            PlanNode::Window { input, .. } => {
                let from = self.node(input, below)?;
                let op = OpDecl {
                    name: OpName::of("window"),
                    state_bytes: dmem / 2,
                    in_widths: input.output_widths(catalog)?,
                    // The appended column.
                    out_widths: vec![8],
                };
                let window = self.read(node, at, from, op);
                // No rows, no window: nothing to append a column to.
                self.stages[window as usize].optional = true;
                window
            }
        })
    }

    /// The stage of [`first_stage`] `node` runs over input `edge`,
    /// declaring `fanouts` and reading `built` of the build side beside it:
    /// the input's task where it ends it, else a stage over what the input's
    /// stages handed on, after them. Returns the entry handing on its
    /// results.
    fn first(
        &mut self,
        node: &'p PlanNode,
        edge: usize,
        at: At,
        fanouts: &'p [usize],
        built: Option<u32>,
    ) -> QefResult<u32> {
        let op = match first_stage(node, edge, self.catalog, self.ctx)? {
            Some(First::Task(task)) => {
                let chain = self.ids(task.chain.above.len() + 1);
                let source = Source::Task(task, chain);
                return Ok(self.push(node, at, fanouts, source, [built, None]));
            }
            Some(First::Read(op)) => Some(op),
            None => None,
        };
        let input = node.inputs().nth(edge);
        let input = input.ok_or_else(|| QefError::Internal(format!("no input {edge}")))?;
        let from = self.node(input, at.1 + 1)?;
        let Some(op) = op else {
            return Ok(from);
        };
        let mut reads = [built, None];
        reads[edge] = Some(from);
        Ok(self.push(node, at, fanouts, Source::Read(op), reads))
    }

    /// A ranged join's or group-by's one stage ([`crate::ops::ranges`]): a
    /// lane a key range of the inputs it reads by range — the tasks
    /// [`first_stage`] ends in the stage — after the pass, routed by value
    /// bits, of an input it does not.
    fn ranged(&mut self, node: &'p PlanNode, at: At) -> QefResult<u32> {
        let scheme = node.ranged_scheme();
        let scheme =
            scheme.ok_or_else(|| QefError::BadPlan("a ranged operator: no scheme".into()))?;
        let (mut inputs, mut reads) = (Vec::with_capacity(2), [None, None]);
        for (edge, read) in reads.iter_mut().enumerate().take(node.inputs().count()) {
            if !node.reads_by_range(edge) {
                *read = Some(self.first(node, edge, at, scheme, None)?);
                inputs.push(RangeInput::Pass);
                continue;
            }
            let Some(First::Task(task)) = first_stage(node, edge, self.catalog, self.ctx)? else {
                return Err(QefError::Internal(format!(
                    "input {edge} read by range ends no task"
                )));
            };
            let chain = self.ids(task.chain.above.len() + 1);
            let fit = budget::task_tile(self.ctx.tile_rows, &task.decls, self.ctx.dmem_bytes);
            inputs.push(RangeInput::Chain(task, chain, fit));
        }
        let ranged = self.push(node, at, scheme, Source::Ranges(inputs), reads);
        // A lane probes its partition of a probe side it does not read by
        // range at the tile the side's pass streams at with no filter.
        self.stages[ranged as usize].pass_tile = reads[1].and_then(|k| self.unfiltered(k));
        Ok(ranged)
    }
}

/// The first stage a node runs over one of its inputs ([`first_stage`]).
#[derive(Debug)]
pub enum First<'p> {
    /// It ends the input's task, a scan-fed chain's.
    Task(Task<'p>),
    /// It runs over what the input's stages hand on: its one operator.
    Read(OpDecl<'p>),
}

/// The first stage `node` runs over input `edge` — the one rule of where a
/// task ends. Round one of a join side's or a group-by's partition pass (on
/// a probe side holding its join's filter, [`crate::ops::join_filter`]), a
/// broadcast join's `join.probe`, `groupby.consume`, `topk.consume` or
/// `sort.local` ends the input's task wherever the input is a scan-fed chain
/// and [`budget::task_tile`] of what they declare together fits DMEM; else
/// it runs over what the chain materialized: cut, never refused. A ranged
/// node's stage ends the task of every input it reads by key range, fit or
/// not: `join.ranged`, the lane's table — half of DMEM, as a broadcast
/// join's, the build rows put in it as they are scanned and the probe rows
/// probed where they lie — with the lane's join filter beside it, or
/// `groupby.ranged`, the group table. `None` where the node has no such
/// stage: it is no join, group-by, top-k or sort, or the input is a
/// broadcast join's build side, which runs as a node of its own.
pub fn first_stage<'p>(
    node: &'p PlanNode,
    edge: usize,
    catalog: &Catalog,
    ctx: &ExecContext,
) -> QefResult<Option<First<'p>>> {
    let dmem = ctx.dmem_bytes;
    let input = node.inputs().nth(edge);
    let input = input.ok_or_else(|| QefError::BadPlan(format!("no input {edge}")))?;
    let bad = || {
        QefError::BadPlan(
            "a ranged operator: an input it reads by range is no scan-fed chain".into(),
        )
    };
    if node.reads_by_range(edge) {
        let (mut task, widths) = input.scan_chain().ok_or_else(bad)?.task(catalog)?;
        let (name, op) = match node {
            PlanNode::GroupBy { keys, aggs, .. } => {
                task.takes = Takes::Groups(node);
                (
                    "groupby.ranged",
                    task::group_consume_decl(keys, aggs, &widths, dmem),
                )
            }
            PlanNode::HashJoin { filter, .. } => {
                // The build rows are written into the table; the probe rows
                // are read where they lie.
                if edge == 1 {
                    task.takes = Takes::Reads;
                }
                let held = filter.map_or(0, join_filter::bytes);
                ("join.ranged", task::join_probe_decl(&widths, dmem, held))
            }
            _ => return Err(bad()),
        };
        let name = OpName::of(name);
        task.decls.push(OpDecl { name, ..op });
        return Ok(Some(First::Task(task)));
    }
    // A group-by's pass of no rounds has no round one to end a task with.
    let no_round_one = matches!(node, PlanNode::GroupBy {
        strategy: GroupStrategy::Partitioned(scheme),
        ..
    } if scheme.is_empty());
    let Some(chain) = input.scan_chain().filter(|_| !no_round_one) else {
        let widths = input.output_widths(catalog)?;
        return Ok(first_op(node, edge, &widths, dmem).map(First::Read));
    };
    let (mut task, widths) = chain.task(catalog)?;
    let Some(op) = first_op(node, edge, &widths, dmem) else {
        return Ok(None);
    };
    task.decls.push(op);
    if budget::task_tile(ctx.tile_rows, &task.decls, dmem).is_none() {
        return Ok(task.decls.pop().map(First::Read));
    }
    task.takes = match node {
        PlanNode::TopK { .. } | PlanNode::Sort { .. } => Takes::Writes,
        PlanNode::GroupBy {
            strategy: GroupStrategy::OnTheFly { .. },
            ..
        } => Takes::Groups(node),
        _ => Takes::Reads,
    };
    Ok(Some(First::Task(task)))
}

/// What [`first_stage`] declares over columns of `widths` where it is no
/// ranged node's.
fn first_op(
    node: &PlanNode,
    edge: usize,
    widths: &[usize],
    dmem: usize,
) -> Option<OpDecl<'static>> {
    let partition = |stage: &'static str, held: usize| {
        Some(OpDecl {
            name: OpName::of(stage),
            state_bytes: budget::BASE_STATE_BYTES + held,
            in_widths: widths.to_vec(),
            // The hash lane the partition map is computed from.
            out_widths: vec![4],
        })
    };
    match (node, edge) {
        (PlanNode::HashJoin { scheme, .. }, 0) if scheme.is_empty() => None,
        (PlanNode::HashJoin { scheme, filter, .. }, 1) if scheme.is_empty() => {
            let held = filter.map_or(0, join_filter::bytes);
            Some(task::join_probe_decl(widths, dmem, held))
        }
        (PlanNode::HashJoin { .. }, 0) => partition("join.partition-build", 0),
        // A ranged join tests its filter beside each lane's table.
        (PlanNode::HashJoin { filter, ranged, .. }, 1) => {
            let held = filter
                .filter(|_| !ranged.any())
                .map_or(0, join_filter::bytes);
            partition("join.partition-probe", held)
        }
        (
            PlanNode::GroupBy {
                strategy: GroupStrategy::Partitioned(_),
                ..
            },
            0,
        ) => partition("groupby.partition", 0),
        (PlanNode::GroupBy { keys, aggs, .. }, 0) => {
            Some(task::group_consume_decl(keys, aggs, widths, dmem))
        }
        (PlanNode::TopK { k, .. }, 0) => Some(OpDecl {
            name: OpName::of("topk.consume"),
            // The heap of k candidate rows, capped at half of DMEM (larger k
            // spills merge rounds, not state).
            state_bytes: budget::BASE_STATE_BYTES
                + k.saturating_mul(widths.iter().sum()).min(dmem / 2),
            in_widths: widths.to_vec(),
            out_widths: Vec::new(),
        }),
        (PlanNode::Sort { .. }, 0) => Some(OpDecl {
            name: OpName::of("sort.local"),
            state_bytes: dmem / 2,
            in_widths: widths.to_vec(),
            out_widths: Vec::new(),
        }),
        _ => None,
    }
}

/// The bytes of state [`first_stage`] over join `node`'s probe side can hold
/// beside what it declares and still run at the tile it runs at: the room a
/// join filter may take ([`join_filter::size_bits`]). 0 for any other node,
/// or a stage that does not fit at all.
pub fn probe_room(node: &PlanNode, catalog: &Catalog, ctx: &ExecContext) -> QefResult<usize> {
    let PlanNode::HashJoin { .. } = node else {
        return Ok(0);
    };
    let mut decls = match first_stage(node, 1, catalog, ctx)? {
        Some(First::Task(task)) => task.decls,
        Some(First::Read(op)) => vec![op],
        None => return Ok(0),
    };
    let tile = |decls: &[OpDecl<'_>]| {
        budget::task_tile(ctx.tile_rows, decls, ctx.dmem_bytes).map(|(tile, _)| tile)
    };
    let (Some(at), Some(last)) = (tile(&decls), decls.len().checked_sub(1)) else {
        return Ok(0);
    };
    let base = decls[last].state_bytes;
    // The state grows the working set and shrinks the tile: the most that
    // keeps it, by bisection.
    let (mut fits, mut over) = (0, ctx.dmem_bytes + 1);
    while over - fits > 1 {
        let mid = fits + (over - fits) / 2;
        decls[last].state_bytes = base + mid;
        if tile(&decls) == Some(at) {
            fits = mid;
        } else {
            over = mid;
        }
    }
    Ok(fits)
}
