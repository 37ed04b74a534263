//! Tasks (§5.2): the operators of a plan that run as one stage.
//!
//! "Operators within a task pipeline results to each other via DMEM and
//! only results at task boundaries are materialized to DRAM." A task here
//! opens with a scan: the **scan-fed chain** `Scan → {Filter | Map}*`
//! ([`PlanNode::scan_chain`]) always runs in its scan's task, and the first
//! stage of the node that consumes the chain — round one of a join side's or
//! a group-by's partition pass (on a probe side holding its join's filter,
//! [`crate::ops::join_filter`]), a broadcast join's `join.probe`,
//! `groupby.consume`, `topk.consume`, `sort.local`
//! ([`PlanNode::first_stage`]) — joins it wherever
//! [`crate::budget::task_tile`] of what they declare together ([`OpDecl`])
//! fits DMEM. Where it does not, the chain's task materializes and the stage
//! runs over what it wrote: cut, never refused. One function says so,
//! [`PlanNode::input_task`]; the engine runs by it and the verifier
//! (`EXPLAIN VERIFY`, `rapid-report verify`) reports by it, so the two cannot
//! disagree about where a task ends.
//!
//! The rows a chain's predicate keeps stay where the DMS streamed them until
//! an operator writes them: a predicated chain's scan declares a selection
//! vector beside its streams — a tile offset per row
//! ([`crate::budget::SELECTION_BYTES`]) — the operators above read the kept
//! rows through it, and the one that writes them compacts them. What the
//! operators of a task do with the kept rows ([`Task::kept_rows`]) is what
//! the scan's choice of access path weighs.
//!
//! A join filter is state, not a stream: it takes room beside the probe
//! round's own — or beside a broadcast join's table in `join.probe`, a
//! filter of one slice whose bits every lane sets beside its table — and
//! the compiler sizes it to the room that leaves the task's tile as it was
//! ([`PlanNode::probe_room`]). A partitioned join's `join.filter` stage
//! builds a slice a lane ([`join_filter_decl`]). Where the probe
//! side's scan takes the gather path it tests the filter itself, in a key
//! pass before it gathers the projection ([`ScanChain::table_columns`] finds
//! the keys in its table), and the stage receives only the rows that may
//! match; on the stream path the stage tests them.

use crate::budget::{OpDecl, OpName, BASE_STATE_BYTES, SELECTION_BYTES};
use crate::error::{QefError, QefResult};
use crate::expr::{Expr, Pred};
use crate::ops::filter::touched_columns;
use crate::ops::join_filter;
use crate::plan::{AggSpec, ByRange, Catalog, GroupStrategy, PlanNode};

/// A scan and the row-at-a-time operators over it.
#[derive(Debug, Clone)]
pub struct ScanChain<'p> {
    /// The scanned table.
    pub table: &'p str,
    /// Its projected columns.
    pub columns: &'p [usize],
    /// The scan's predicate, over table columns.
    pub pred: Option<&'p Pred>,
    /// The `Filter` and `Map` nodes over the scan, bottom first.
    pub above: Vec<&'p PlanNode>,
}

impl PlanNode {
    /// Whether this node is the top of a scan-fed chain: a `Scan`, or
    /// `Filter`s and `Map`s over one.
    pub fn is_scan_chain(&self) -> bool {
        match self {
            PlanNode::Scan { .. } => true,
            PlanNode::Filter { input, .. } | PlanNode::Map { input, .. } => input.is_scan_chain(),
            _ => false,
        }
    }

    /// Column `col` of what this scan-fed chain hands on as `(table,
    /// column)` of the table it scans: `None` where the node is no chain or
    /// a `Map` of it computes the column. [`ScanChain::table_columns`] of
    /// one column, with no chain built.
    pub fn chain_column(&self, col: usize) -> Option<(&str, usize)> {
        match self {
            PlanNode::Scan { table, columns, .. } => Some((table, *columns.get(col)?)),
            PlanNode::Filter { input, .. } => input.chain_column(col),
            PlanNode::Map { input, exprs } => match exprs.get(col)?.expr {
                Expr::Col(below) => input.chain_column(below),
                _ => None,
            },
            _ => None,
        }
    }

    /// The scan-fed chain this node is the top of, if it is one.
    pub fn scan_chain(&self) -> Option<ScanChain<'_>> {
        match self {
            PlanNode::Scan {
                table,
                columns,
                pred,
            } => Some(ScanChain {
                table,
                columns,
                pred: pred.as_ref(),
                above: Vec::new(),
            }),
            PlanNode::Filter { input, .. } | PlanNode::Map { input, .. } => {
                let mut chain = input.scan_chain()?;
                chain.above.push(self);
                Some(chain)
            }
            _ => None,
        }
    }

    /// The scheme this node declares for its partition passes, if it runs
    /// any: a join's — one pass an input it does not read by range — or a
    /// partitioned group-by's. A join that reads both inputs by range, or a
    /// ranged group-by, runs none.
    pub fn partition_scheme(&self) -> Option<&[usize]> {
        match self {
            PlanNode::HashJoin { scheme, ranged, .. } if *ranged != ByRange::Both => Some(scheme),
            PlanNode::GroupBy {
                strategy: GroupStrategy::Partitioned(scheme),
                ..
            } => Some(scheme),
            _ => None,
        }
    }

    /// The scheme whose partitions a ranged join or group-by cuts as key
    /// ranges ([`crate::ops::ranges`]): as many ranges as it has partitions.
    pub fn ranged_scheme(&self) -> Option<&[usize]> {
        match self {
            PlanNode::HashJoin { scheme, ranged, .. } if ranged.any() => Some(scheme),
            PlanNode::GroupBy {
                strategy: GroupStrategy::Ranged(scheme),
                ..
            } => Some(scheme),
            _ => None,
        }
    }

    /// The position, among its keys, of the key a ranged node cuts its
    /// ranges on: of a join that reads one input by range, the first of its
    /// keys that input's table in `catalog` is stored in the order of — the
    /// first, where none is — else its one key.
    pub fn range_key(&self, catalog: &Catalog) -> usize {
        let (input, keys) = match self {
            PlanNode::HashJoin {
                build,
                build_keys,
                ranged: ByRange::Build,
                ..
            } => (build, build_keys),
            PlanNode::HashJoin {
                probe,
                probe_keys,
                ranged: ByRange::Probe,
                ..
            } => (probe, probe_keys),
            _ => return 0,
        };
        let clustered = |&key: &usize| {
            input
                .chain_column(key)
                .is_some_and(|(table, col)| catalog.get(table).is_some_and(|t| t.clustered_on(col)))
        };
        keys.iter().position(clustered).unwrap_or(0)
    }

    /// Whether this node reads input `edge` by key range: a ranged
    /// group-by's input, or an input of a join its `ranged` names.
    pub fn reads_by_range(&self, edge: usize) -> bool {
        match self {
            PlanNode::HashJoin { ranged, .. } => ranged.reads(edge),
            PlanNode::GroupBy { strategy, .. } => matches!(strategy, GroupStrategy::Ranged(_)),
            _ => false,
        }
    }

    /// The tasks a lane of this node's one stage runs over the inputs it
    /// reads by key range — a group-by's input, a join's inputs its `ranged`
    /// names, however the node's partitions are declared — an input at a
    /// time, in [`inputs`](Self::inputs) order: each input's scan-fed chain
    /// over the lane's key range, ending in the node's own operator. A join's is
    /// `join.ranged`, over either side: the lane's table — half of DMEM, as a
    /// broadcast join's `join.probe` holds it, its build rows included —
    /// which the build side's rows are put in as they are scanned and the
    /// probe side's are probed against where they lie, and beside it the
    /// lane's join filter where the join declares one. A group-by's is
    /// `groupby.ranged`, the group table. The lane's DMEM is, at its most,
    /// the larger of the tasks' working sets. `None` where the node is no
    /// join or group-by or an input it reads by range is no chain; whether
    /// the node is ranged is [`ranged_scheme`](Self::ranged_scheme)'s to
    /// say.
    pub fn ranged_tasks(
        &self,
        catalog: &Catalog,
        dmem_bytes: usize,
    ) -> QefResult<Option<Vec<Task<'_>>>> {
        let mut tasks = Vec::with_capacity(2);
        for (edge, input) in self.inputs().enumerate() {
            let by_range = match self {
                PlanNode::HashJoin { ranged, .. } => ranged.reads(edge),
                _ => true,
            };
            if !by_range {
                continue;
            }
            let Some(chain) = input.scan_chain() else {
                return Ok(None);
            };
            let (mut task, widths) = chain.task(catalog)?;
            match self {
                PlanNode::HashJoin { filter, .. } => {
                    let held = filter.map_or(0, join_filter::bytes);
                    task.decls.push(OpDecl {
                        name: OpName::of("join.ranged"),
                        ..join_probe_decl(&widths, dmem_bytes, held)
                    });
                    // The build rows are written into the table; the probe
                    // rows are read where they lie.
                    if edge == 1 {
                        task.takes = Takes::Reads;
                    }
                }
                PlanNode::GroupBy { keys, aggs, .. } => {
                    let consume = group_consume_decl(keys, aggs, &widths, dmem_bytes);
                    task.decls.push(OpDecl {
                        name: OpName::of("groupby.ranged"),
                        ..consume
                    });
                    task.takes = Takes::Groups { keys, aggs };
                }
                _ => return Ok(None),
            }
            tasks.push(task);
        }
        Ok(Some(tasks))
    }

    /// What the first stage this node runs over input `edge` declares
    /// against DMEM, the input handing on columns of `widths`: a partition
    /// pass's round one, a broadcast join's `join.probe` — either holding
    /// the join filter on a join's probe side, where the join has one —
    /// `groupby.consume`, `topk.consume` or `sort.local`. `None` where the
    /// node has no such stage: it is not a join, group-by, top-k or sort, or
    /// it is the build side of a broadcast join, which runs as a node of its
    /// own.
    pub fn first_stage(
        &self,
        edge: usize,
        widths: &[usize],
        dmem_bytes: usize,
    ) -> Option<OpDecl<'static>> {
        let partition = |stage: &'static str, held: usize| {
            Some(OpDecl {
                name: OpName::of(stage),
                state_bytes: BASE_STATE_BYTES + held,
                in_widths: widths.to_vec(),
                // The hash lane the partition map is computed from.
                out_widths: vec![4],
            })
        };
        match (self, edge) {
            (PlanNode::HashJoin { scheme, .. }, 0) if scheme.is_empty() => None,
            (PlanNode::HashJoin { scheme, filter, .. }, 1) if scheme.is_empty() => {
                let held = filter.map_or(0, join_filter::bytes);
                Some(join_probe_decl(widths, dmem_bytes, held))
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
                Some(group_consume_decl(keys, aggs, widths, dmem_bytes))
            }
            (PlanNode::TopK { k, .. }, 0) => Some(OpDecl {
                name: OpName::of("topk.consume"),
                // The heap of k candidate rows, capped at half of DMEM
                // (larger k spills merge rounds, not state).
                state_bytes: BASE_STATE_BYTES
                    + k.saturating_mul(widths.iter().sum()).min(dmem_bytes / 2),
                in_widths: widths.to_vec(),
                out_widths: Vec::new(),
            }),
            (PlanNode::Sort { .. }, 0) => Some(OpDecl {
                name: OpName::of("sort.local"),
                state_bytes: dmem_bytes / 2,
                in_widths: widths.to_vec(),
                out_widths: Vec::new(),
            }),
            _ => None,
        }
    }

    /// The task input `edge` of this node runs in, with this node's
    /// [`first_stage`](Self::first_stage) over it as the task's last
    /// operator — the one rule of where a task ends. `Some` wherever the
    /// input is a scan-fed chain and [`crate::budget::task_tile`] of what the
    /// chain and the stage declare together fits `dmem_bytes`; `None` where
    /// the input is no chain, the node has no such stage (a group-by's
    /// partition pass of no rounds has no round one), or the operators do not
    /// fit one scratchpad: the chain then runs as a task of its own and the
    /// stage over what it materialized.
    pub fn input_task(
        &self,
        edge: usize,
        catalog: &Catalog,
        tile_rows: usize,
        dmem_bytes: usize,
    ) -> QefResult<Option<Task<'_>>> {
        let no_round_one = matches!(self, PlanNode::GroupBy {
            strategy: GroupStrategy::Partitioned(scheme),
            ..
        } if scheme.is_empty());
        if no_round_one || self.reads_by_range(edge) {
            return Ok(None);
        }
        let Some(chain) = self.inputs().nth(edge).and_then(PlanNode::scan_chain) else {
            return Ok(None);
        };
        let (mut task, widths) = chain.task(catalog)?;
        let Some(last) = self.first_stage(edge, &widths, dmem_bytes) else {
            return Ok(None);
        };
        task.decls.push(last);
        task.takes = match self {
            PlanNode::TopK { .. } | PlanNode::Sort { .. } => Takes::Writes,
            PlanNode::GroupBy {
                keys,
                aggs,
                strategy: GroupStrategy::OnTheFly { .. },
                ..
            } => Takes::Groups { keys, aggs },
            _ => Takes::Reads,
        };
        let fits = crate::budget::task_tile(tile_rows, &task.decls, dmem_bytes).is_some();
        Ok(fits.then_some(task))
    }

    /// The bytes of state the first stage over this join's probe side —
    /// round one of its pass, or a broadcast join's `join.probe`, in the
    /// probe's task wherever [`input_task`](Self::input_task) puts it there,
    /// or a ranged join's `join.ranged` ([`ranged_tasks`](Self::ranged_tasks))
    /// — can hold beside what it declares and still run at the tile it runs
    /// at: the room a join filter may take ([`join_filter::size_bits`]). 0
    /// for any other node, or a stage that does not fit at all.
    pub fn probe_room(
        &self,
        catalog: &Catalog,
        tile_rows: usize,
        dmem_bytes: usize,
    ) -> QefResult<usize> {
        let PlanNode::HashJoin { probe, .. } = self else {
            return Ok(0);
        };
        let ranged = match self.reads_by_range(1) {
            true => self.ranged_tasks(catalog, dmem_bytes)?,
            false => None,
        };
        let task = match ranged.and_then(|mut sides| sides.pop()) {
            Some(probe) => Some(probe),
            None => self.input_task(1, catalog, tile_rows, dmem_bytes)?,
        };
        let mut decls = match task {
            Some(task) => task.decls,
            None => {
                let widths = probe.output_widths(catalog)?;
                self.first_stage(1, &widths, dmem_bytes)
                    .into_iter()
                    .collect()
            }
        };
        let tile = |decls: &[OpDecl<'_>]| {
            crate::budget::task_tile(tile_rows, decls, dmem_bytes).map(|(tile, _)| tile)
        };
        let Some(at) = tile(&decls) else {
            return Ok(0);
        };
        let Some(last) = decls.len().checked_sub(1) else {
            return Ok(0);
        };
        let base = decls[last].state_bytes;
        // The state grows the working set and shrinks the tile: the most
        // that keeps it, by bisection.
        let (mut fits, mut over) = (0, dmem_bytes + 1);
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
}

/// What a group table consuming columns of `widths` declares: the
/// DMEM-resident table takes half the scratchpad, and the key and aggregate
/// input columns stream past it, each once however many aggregates read it.
pub fn group_consume_decl(
    keys: &[usize],
    aggs: &[crate::plan::AggSpec],
    widths: &[usize],
    dmem_bytes: usize,
) -> OpDecl<'static> {
    let cols = || keys.iter().copied().chain(aggs.iter().map(|a| a.col));
    let first = |(i, c): &(usize, usize)| cols().take(*i).all(|earlier| earlier != *c);
    let once = cols().enumerate().filter(first).map(|(_, c)| c);
    OpDecl {
        name: OpName::of("groupby.consume"),
        state_bytes: dmem_bytes / 2,
        in_widths: once.filter_map(|c| widths.get(c).copied()).collect(),
        out_widths: Vec::new(),
    }
}

/// What a lane of a partitioned join's `join.filter` stage declares: the
/// slice of the filter of `bits` bits it builds — one for each of round
/// one's `fanout` partitions — and the build keys it streams, stored
/// `key_widths` bytes each, beside the hash lane their bits are set from.
pub fn join_filter_decl(key_widths: &[usize], bits: usize, fanout: usize) -> OpDecl<'static> {
    OpDecl {
        name: OpName::of("join.filter"),
        state_bytes: BASE_STATE_BYTES + join_filter::bytes(bits / fanout.max(1)),
        in_widths: key_widths.to_vec(),
        out_widths: vec![4],
    }
}

/// What a broadcast join's probe over columns of `widths` declares: the
/// build side's table takes half the scratchpad — a lane's DMEM segment
/// holds [`crate::ops::join::broadcast_capacity`] of it — beside `held`
/// bytes of a join filter, and the probe writes the hash lane its rows are
/// looked up by.
pub fn join_probe_decl(widths: &[usize], dmem_bytes: usize, held: usize) -> OpDecl<'static> {
    OpDecl {
        name: OpName::of("join.probe"),
        state_bytes: dmem_bytes / 2 + held,
        in_widths: widths.to_vec(),
        out_widths: vec![4],
    }
}

/// What a `Filter` over columns of `widths` declares: it narrows the
/// selection over them where they lie.
pub fn filter_decl(widths: &[usize]) -> OpDecl<'static> {
    OpDecl {
        name: OpName::of("filter"),
        state_bytes: BASE_STATE_BYTES,
        in_widths: widths.to_vec(),
        out_widths: Vec::new(),
    }
}

/// What a `Map` of `exprs` over columns of `widths` declares: the input
/// columns its expressions read, and a vector of 8-byte values per
/// expression it computes (a bare column is handed on where it is).
pub fn map_decl(widths: &[usize], exprs: &[crate::plan::NamedExpr]) -> OpDecl<'static> {
    let mut refs = Vec::new();
    for e in exprs {
        e.expr.referenced_columns(&mut refs);
    }
    refs.sort_unstable();
    refs.dedup();
    let computed = exprs
        .iter()
        .filter(|e| !matches!(e.expr, Expr::Col(_)))
        .count();
    OpDecl {
        name: OpName::of("map"),
        state_bytes: BASE_STATE_BYTES,
        in_widths: refs
            .iter()
            .filter_map(|&c| widths.get(c).copied())
            .collect(),
        out_widths: vec![std::mem::size_of::<i64>(); computed],
    }
}

/// A task: a scan-fed chain and what its operators declare, scan first —
/// and last, where [`PlanNode::input_task`] put it there, the first stage of
/// the node that consumes the chain.
#[derive(Debug)]
pub struct Task<'p> {
    /// The chain the task opens with.
    pub chain: ScanChain<'p>,
    /// The distinct table columns the scan streams: projected and predicate
    /// columns alike, ascending.
    pub touched: Vec<usize>,
    /// What each operator declares, bottom first.
    pub decls: Vec<OpDecl<'p>>,
    /// How the task's last operator takes the rows the chain hands on.
    pub takes: Takes<'p>,
}

/// How the last operator of a task takes the rows the chain hands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes<'p> {
    /// It writes every column of them into vectors of its own: the chain's
    /// end where the chain is a task by itself, a top-k heap, a local sort.
    Writes,
    /// It reads every column of them where they lie: a partition round, a
    /// broadcast join's probe.
    Reads,
    /// A group table reads the keys and the aggregate inputs of them where
    /// they lie.
    Groups {
        /// The key columns.
        keys: &'p [usize],
        /// The aggregates, whose inputs it reads.
        aggs: &'p [AggSpec],
    },
}

/// What the operators of a task do with the rows its scan keeps, as the
/// engine charges it per kept row: the loops that read them where they lie
/// through the selection, by how many columns of the tiles each reads
/// ([`crate::batch::Rows::charge_select`]), and how many columns of the tiles
/// its lanes compact into vectors of their own
/// ([`crate::batch::Rows::into_batch`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeptRows {
    /// Columns of the tiles each loop reads, one entry per loop that reads
    /// any.
    pub reads: Vec<usize>,
    /// Columns of the tiles the lanes write.
    pub writes: usize,
}

impl Task<'_> {
    /// What the task's operators do with the rows its scan keeps: every
    /// `Filter` and computing `Map` of the chain reads the columns it names
    /// where they lie, and the last operator reads or writes what the chain
    /// hands on ([`Takes`]). A Map's computed columns are the lane's own from
    /// there on; the columns it passes through stay in the tiles. Where the
    /// scan has no predicate the selection is the first chain Filter's, and
    /// what reads or writes the rows it keeps is priced as if it kept every
    /// row: the model knows no selectivity for it.
    pub fn kept_rows(&self) -> KeptRows {
        let mut kept = KeptRows::default();
        let above = &self.chain.above;
        // The first operator that reads the rows through a selection.
        let from = match self.chain.pred {
            Some(_) => 0,
            None => match above
                .iter()
                .position(|node| matches!(node, PlanNode::Filter { .. }))
            {
                Some(filter) => filter + 1,
                // Every row is kept: nothing to price.
                None => return kept,
            },
        };
        // How many columns the scan and the first `level` operators over it
        // hand on: the last Map's expressions, or the scan's projection.
        let width = |level: usize| {
            let mut maps = above[..level].iter().rev().filter_map(|node| match node {
                PlanNode::Map { exprs, .. } => Some(exprs.len()),
                _ => None,
            });
            maps.next().unwrap_or(self.chain.columns.len())
        };
        // Whether column `c` of what the scan and the first `level`
        // operators over it hand on still lies in the tiles: a Map that
        // passes it through leaves it there, one that computes it writes it.
        let in_tiles = |level: usize, mut c: usize| {
            for node in above[..level].iter().rev() {
                if let PlanNode::Map { exprs, .. } = node {
                    match exprs.get(c).map(|e| &e.expr) {
                        Some(Expr::Col(below)) => c = *below,
                        _ => return false,
                    }
                }
            }
            c < self.chain.columns.len()
        };
        // How many of the columns `read` names at `level` lie in the tiles.
        let tiles = |level: usize, read: &dyn Fn(usize) -> bool| {
            (0..width(level))
                .filter(|&c| read(c) && in_tiles(level, c))
                .count()
        };
        for (level, node) in above.iter().enumerate().skip(from) {
            let read = match node {
                PlanNode::Map { exprs, .. } => tiles(level, &|c| {
                    let mut computed = exprs.iter().filter(|e| !matches!(e.expr, Expr::Col(_)));
                    computed.any(|e| e.expr.reads_column(c))
                }),
                PlanNode::Filter { pred, .. } => tiles(level, &|c| pred.reads_column(c)),
                _ => 0,
            };
            if read > 0 {
                kept.reads.push(read);
            }
        }
        let top = above.len();
        let read = match self.takes {
            Takes::Writes => {
                kept.writes = tiles(top, &|_| true);
                0
            }
            Takes::Reads => tiles(top, &|_| true),
            Takes::Groups { keys, aggs } => tiles(top, &|c| {
                keys.contains(&c) || aggs.iter().any(|a| a.col == c)
            }),
        };
        if read > 0 {
            kept.reads.push(read);
        }
        kept
    }
}

impl<'p> ScanChain<'p> {
    /// Columns `cols` of what the chain hands on as columns of its table:
    /// `None` where a `Map` computes one of them.
    pub fn table_columns(&self, cols: &[usize]) -> Option<Vec<usize>> {
        let below = |mut c: usize| {
            for node in self.above.iter().rev() {
                if let PlanNode::Map { exprs, .. } = node {
                    match exprs.get(c)?.expr {
                        Expr::Col(input) => c = input,
                        _ => return None,
                    }
                }
            }
            self.columns.get(c).copied()
        };
        cols.iter().map(|&c| below(c)).collect()
    }

    /// The chain as a task of its own, and the widths of the columns it
    /// hands on. The scan reads its touched columns at the widths the table
    /// stores them in.
    pub fn task(self, catalog: &Catalog) -> QefResult<(Task<'p>, Vec<usize>)> {
        let touched = touched_columns(self.columns, self.pred);
        let t = catalog
            .get(self.table)
            .ok_or_else(|| QefError::TableNotLoaded(self.table.to_string()))?;
        let stored = |&c: &usize| {
            if c < t.schema.len() {
                Ok(t.column_width(c))
            } else {
                Err(QefError::BadColumn {
                    index: c,
                    available: t.schema.len(),
                })
            }
        };
        let mut decls = Vec::with_capacity(self.above.len() + 2);
        // A predicate leaves a selection vector over the tiles behind it.
        let selects = self.pred.is_some()
            || self
                .above
                .iter()
                .any(|node| matches!(node, PlanNode::Filter { .. }));
        decls.push(OpDecl {
            name: OpName {
                stage: "scan",
                table: Some(self.table),
            },
            state_bytes: BASE_STATE_BYTES,
            in_widths: touched.iter().map(stored).collect::<QefResult<_>>()?,
            out_widths: if selects {
                vec![SELECTION_BYTES]
            } else {
                Vec::new()
            },
        });
        let mut widths: Vec<usize> = self.columns.iter().map(stored).collect::<QefResult<_>>()?;
        for node in &self.above {
            if let PlanNode::Map { exprs, .. } = node {
                decls.push(map_decl(&widths, exprs));
                widths = crate::plan::map_widths(exprs, &widths)?;
            } else {
                decls.push(filter_decl(&widths));
            }
        }
        let task = Task {
            chain: self,
            touched,
            decls,
            takes: Takes::Writes,
        };
        Ok((task, widths))
    }
}
