//! Lowering logical plans to physical QEPs.
//!
//! The compiler resolves column names, propagates DSB scales through
//! arithmetic (Add/Sub unify scales, Mul adds them, Div pre-scales the
//! dividend — all integer math, §4.2), encodes literals into the widened
//! physical domain (dictionary codes for strings, mantissas for decimals,
//! epoch days for dates), compiles string ranges to code ranges of the
//! order-preserving dictionaries and every LIKE to a code bitmap — the
//! LIKE's shape is chosen here, against the dictionary: a literal prefix
//! followed only by `%`s bisects the sorted values, any other pattern is
//! matched once per value — picks join build sides and group-by strategies
//! from statistics, and takes partition schemes from
//! [`crate::partition_opt::partition_scheme`].
//!
//! Scales: a column brought to a larger scale is multiplied by a power of
//! ten at run time; a literal is brought there here, once — `1 - l_discount`
//! lowers to `100 - l_discount`, not `1 × 100 - l_discount` — unless its
//! mantissa times the factor leaves i64, in which case the multiply stays
//! and fails where it always did, at run time (`rescale_expr`). A
//! group-by's Map computes each distinct aggregate input once: an
//! aggregate whose input the Map already computes reads that column.
//! Where a task ends (§5.2) is no choice made here: a scan-fed chain and
//! its consumer's first stage are one task wherever they fit DMEM together,
//! the rule (`rapid_qef::stages::first_stage`) the plan's stage list
//! (`rapid_qef::stages`) is lowered by, which the engine runs and the
//! verifier checks.

use std::ops::Bound;

use rapid_qef::exec::ExecContext;
use rapid_qef::expr::{Expr, Pred};
use rapid_qef::ops::groupby::{on_the_fly_group_limit, slot_count};
use rapid_qef::plan::{
    AggSpec, ByRange, Catalog, GroupStrategy, JoinType, KeyRange, NamedExpr, PlanNode, SortKey,
};
use rapid_qef::primitives::agg::AggFunc;
use rapid_qef::primitives::arith::ArithOp;
use rapid_qef::primitives::filter::CmpOp;
use rapid_qef::stages::First;
use rapid_storage::types::{pow10, DataType, Value};

use crate::cost::{estimate, estimate_node, CostParams, NodeEst, PlanCost};
use crate::logical::{LExpr, LPred, LWindowFunc, LogicalPlan};
use crate::partition_opt::{join_scheme, partition_scheme};

/// Extra fractional digits given to divisions.
const DIV_EXTRA_SCALE: u8 = 6;

/// Compilation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Referenced table is not loaded.
    UnknownTable(String),
    /// Referenced column does not exist in scope.
    UnknownColumn(String),
    /// A literal cannot be encoded for the column it is compared with.
    BadLiteral(String),
    /// Feature not supported by the physical engine.
    Unsupported(String),
    /// Catalog metadata is inconsistent (e.g. a dictionary-encoded column
    /// without its dictionary).
    BadCatalog(String),
    /// The lowered plan failed static verification (rule-id diagnostics
    /// from `rapid-verify`).
    Verify(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            CompileError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            CompileError::BadLiteral(m) => write!(f, "bad literal: {m}"),
            CompileError::Unsupported(m) => write!(f, "unsupported: {m}"),
            CompileError::BadCatalog(m) => write!(f, "bad catalog: {m}"),
            CompileError::Verify(m) => write!(f, "plan verification failed: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// One column of a lowered node's output.
#[derive(Debug, Clone, PartialEq)]
pub struct OutCol {
    /// Output name.
    pub name: String,
    /// Logical type.
    pub dtype: DataType,
    /// DSB scale.
    pub scale: u8,
    /// Dictionary provenance for Varchar columns.
    pub dict: Option<(String, usize)>,
    /// Upper bound on the distinct values, when base-table statistics give
    /// one (a bound past `u32::MAX` decides nothing and is not kept).
    pub ndv: Option<u32>,
    /// Least and greatest value in the widened physical domain (a
    /// dictionary code, a mantissa, an epoch day), when base-table
    /// statistics give them (`ColumnStats::{min, max}`) or the value is a
    /// literal: what bounds the years a Date column's dates fall in, and
    /// the slot a group key indexes.
    pub range: Option<(i64, i64)>,
}

/// A compiled query.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The physical plan.
    pub plan: PlanNode,
    /// Output columns (names + decode info, compiler's view).
    pub output: Vec<OutCol>,
    /// Estimated cost.
    pub cost: PlanCost,
    /// Deterministic counters from the join-order search.
    pub optimize: crate::joinorder::OptimizeStats,
}

/// Compile a logical plan against the catalog and gate the result on the
/// static verifier: a plan that violates a structural, resource or
/// accounting invariant is a [`CompileError::Verify`], never a `Compiled`.
/// This gate is the one plan check of the request path, in every build: the
/// engine runs what it is handed under its own typed errors, and a plan
/// that did not come through here answers to whoever built it.
pub fn compile(
    lp: &LogicalPlan,
    catalog: &Catalog,
    params: &CostParams,
) -> Result<Compiled, CompileError> {
    let compiled = compile_unverified(lp, catalog, params)?;
    rapid_verify::check(&compiled.plan, catalog, &params.ctx).map_err(CompileError::Verify)?;
    Ok(compiled)
}

/// Compile without the verification gate. For diagnostics that want the
/// plan *and* its verification report even when verification fails
/// (`EXPLAIN VERIFY`), and for tests that construct deliberately-broken
/// plans.
pub fn compile_unverified(
    lp: &LogicalPlan,
    catalog: &Catalog,
    params: &CostParams,
) -> Result<Compiled, CompileError> {
    // The one owned copy of the statement is narrowed in place; the caller's
    // plan (what the host's Volcano oracle runs) keeps every column.
    let mut logical = lp.clone();
    logical.prune_columns(catalog);
    // Logical-to-logical join-order search before lowering, and after
    // pruning: the search weighs each relation by the bytes a row of it
    // carries, which must be the bytes that will move, not the table's
    // width. `lower_join` then picks build sides and partition schemes
    // within the chosen order from the same estimates.
    //
    // The client reads the root's columns by position: where the search may
    // reorder a join chain beneath it, lowering hands them on in the order
    // the statement declared.
    let joins = logical.has_join();
    let layout = match params.reorder_joins && joins {
        true => logical.output_names(catalog),
        false => None,
    };
    let (logical, optimize) = if params.reorder_joins {
        crate::joinorder::reorder(logical, catalog, params)
    } else {
        (logical, crate::joinorder::OptimizeStats::default())
    };
    let reads = layout.as_deref().map_or(Reads::All, Reads::Layout);
    let (plan, output) = Lowering::new(catalog, params, joins).node(&logical, reads)?;
    let cost = estimate(&plan, catalog, params);
    Ok(Compiled {
        plan,
        output,
        cost,
        optimize,
    })
}

/// The context a plan compiled with `params` is verified against: the one
/// it was costed for. Callers read `params.ctx`; this accessor remains for
/// the benchmark's layer probe.
pub fn verify_config(params: &CostParams) -> &ExecContext {
    &params.ctx
}

/// Lower `lp` with every column of its output, in its own order: what the
/// join-order search estimates a relation from.
pub(crate) fn lower(
    lp: &LogicalPlan,
    catalog: &Catalog,
    params: &CostParams,
) -> Result<(PlanNode, Vec<OutCol>), CompileError> {
    Lowering::new(catalog, params, lp.has_join()).node(lp, Reads::All)
}

/// What a node's consumer reads of its output, as lowering hands it down:
/// the liveness walk of [`LogicalPlan::prune_columns`], carried on through
/// the joins the join-order search placed, so that a join writes only the
/// columns something above it reads.
#[derive(Debug, Clone, Copy)]
enum Reads<'a> {
    /// Every column, in the node's own order: a set operation's input.
    All,
    /// Every column, in the order these names declare it (the `k`-th of a
    /// name is its `k`-th column of that name): the plan root, whose
    /// layout the client reads, over a chain the search may have
    /// reordered.
    Layout(&'a [String]),
    /// The columns named `need[from..]`, wherever they occur, in the
    /// node's own order.
    Names(usize),
}

/// Lowering of one statement: the catalog and parameters it lowers
/// against, and the liveness walk's one stack of names, borrowed from the
/// plan — a node pushes the names it reads before its input is lowered, and
/// they are popped after.
struct Lowering<'a, 'c> {
    catalog: &'c Catalog,
    params: &'c CostParams,
    need: Vec<&'a str>,
    /// Whether the plan joins anything: where nothing does, no join reads
    /// the stack, nothing is pushed and the walk allocates nothing.
    live: bool,
}

impl<'a, 'c> Lowering<'a, 'c> {
    fn new(catalog: &'c Catalog, params: &'c CostParams, live: bool) -> Self {
        Lowering {
            catalog,
            params,
            need: Vec::new(),
            live,
        }
    }

    /// Lower `lp`, of one input, read as `reads`: its input is lowered read
    /// as what `lp` reads of it (`LogicalPlan::push_reads`) — beside what
    /// `lp`'s consumer reads, where `lp` hands its input's columns on.
    fn input(
        &mut self,
        lp: &'a LogicalPlan,
        input: &'a LogicalPlan,
        reads: Reads<'a>,
    ) -> Result<(PlanNode, Vec<OutCol>), CompileError> {
        let mark = self.need.len();
        let own = self.live && lp.push_reads(&mut self.need);
        let reads = match reads {
            _ if own => Reads::Names(mark),
            // A window appends its column after its input's.
            Reads::Layout(names) if matches!(lp, LogicalPlan::Window { .. }) => {
                Reads::Layout(&names[..names.len().saturating_sub(1)])
            }
            Reads::All | Reads::Layout(_) | Reads::Names(_) => reads,
        };
        let lowered = self.node(input, reads);
        self.need.truncate(mark);
        lowered
    }

    fn node(
        &mut self,
        lp: &'a LogicalPlan,
        reads: Reads<'a>,
    ) -> Result<(PlanNode, Vec<OutCol>), CompileError> {
        let (catalog, params) = (self.catalog, self.params);
        match lp {
            LogicalPlan::Scan {
                table,
                pred,
                projection,
            } => lower_scan(table, pred.as_ref(), projection.as_deref(), catalog),
            LogicalPlan::Filter { input, pred } => {
                let (child, cols) = self.input(lp, input, reads)?;
                let p = lower_pred(pred, &cols, catalog)?;
                Ok((
                    PlanNode::Filter {
                        input: Box::new(child),
                        pred: p,
                    },
                    cols,
                ))
            }
            LogicalPlan::Project { input, exprs } => {
                let (child, cols) = self.input(lp, input, reads)?;
                let mut out_exprs = Vec::with_capacity(exprs.len());
                let mut out_cols = Vec::with_capacity(exprs.len());
                for e in exprs {
                    let t = lower_expr(&e.expr, &cols, catalog)?;
                    out_cols.push(OutCol {
                        name: e.name.clone(),
                        dtype: t.dtype,
                        scale: t.scale,
                        dict: t.dict.clone(),
                        ndv: t.ndv,
                        range: t.range,
                    });
                    out_exprs.push(NamedExpr {
                        expr: t.expr,
                        name: e.name.clone(),
                        dtype: t.dtype,
                        scale: t.scale,
                        dict: t.dict.clone(),
                    });
                }
                Ok((project(child, out_exprs), out_cols))
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                join_type,
            } => {
                // A side reads what the join's consumer reads and its keys;
                // a semi or anti join's right side, its keys alone.
                let mark = self.need.len();
                let from = match reads {
                    Reads::Names(from) => Some(from),
                    Reads::All | Reads::Layout(_) => None,
                };
                let side = |lowering: &mut Self, side, keys: &'a [String], emitted: bool| {
                    let reads = match (from, emitted) {
                        (None, true) => Reads::All,
                        (from, _) => {
                            lowering.need.extend(keys.iter().map(String::as_str));
                            Reads::Names(from.filter(|_| emitted).unwrap_or(mark))
                        }
                    };
                    let lowered = lowering.node(side, reads);
                    lowering.need.truncate(mark);
                    lowered
                };
                let (lplan, lcols) = side(self, left, left_keys, true)?;
                let (rplan, rcols) = side(self, right, right_keys, join_type.pairs())?;
                self.join(
                    (lplan, lcols),
                    (rplan, rcols),
                    (left_keys, right_keys),
                    *join_type,
                    reads,
                )
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let (child, cols) = self.input(lp, input, reads)?;
                lower_aggregate(child, cols, group_by, aggs, catalog, params)
            }
            LogicalPlan::Sort { input, order } => {
                let (child, cols) = self.input(lp, input, reads)?;
                let keys = sort_keys(order, &cols)?;
                Ok((
                    PlanNode::Sort {
                        input: Box::new(child),
                        order: keys,
                    },
                    cols,
                ))
            }
            LogicalPlan::Limit { input, n } => {
                // Sort + Limit fuses into the vectorized Top-K (§5.4).
                if let LogicalPlan::Sort {
                    input: sort_in,
                    order,
                } = input.as_ref()
                {
                    let (child, cols) = self.input(input, sort_in, reads)?;
                    let keys = sort_keys(order, &cols)?;
                    return Ok((
                        PlanNode::TopK {
                            input: Box::new(child),
                            order: keys,
                            k: *n,
                        },
                        cols,
                    ));
                }
                let (child, cols) = self.input(lp, input, reads)?;
                Ok((
                    PlanNode::Limit {
                        input: Box::new(child),
                        n: *n,
                    },
                    cols,
                ))
            }
            LogicalPlan::SetOp { left, right, op } => {
                let (l, lc) = self.node(left, Reads::All)?;
                let (r, rc) = self.node(right, Reads::All)?;
                if lc.len() != rc.len() {
                    return Err(CompileError::Unsupported(
                        "set operation inputs must have equal arity".into(),
                    ));
                }
                Ok((
                    PlanNode::SetOp {
                        left: Box::new(l),
                        right: Box::new(r),
                        op: *op,
                    },
                    lc,
                ))
            }
            LogicalPlan::Window {
                input,
                partition_by,
                order_by,
                func,
                name,
            } => {
                let (child, mut cols) = self.input(lp, input, reads)?;
                let pb = partition_by
                    .iter()
                    .map(|c| position(&cols, c))
                    .collect::<Result<Vec<_>, _>>()?;
                let ob = sort_keys(order_by, &cols)?;
                let (wf, dtype, scale) = match func {
                    LWindowFunc::Rank => (rapid_qef::plan::WindowFunc::Rank, DataType::Int, 0),
                    LWindowFunc::RowNumber => {
                        (rapid_qef::plan::WindowFunc::RowNumber, DataType::Int, 0)
                    }
                    LWindowFunc::RunningSum { col } => {
                        let idx = position(&cols, col)?;
                        let c = &cols[idx];
                        (
                            rapid_qef::plan::WindowFunc::RunningSum { col: idx },
                            c.dtype,
                            c.scale,
                        )
                    }
                };
                cols.push(OutCol {
                    name: name.clone(),
                    dtype,
                    scale,
                    dict: None,
                    ndv: None,
                    range: None,
                });
                Ok((
                    PlanNode::Window {
                        input: Box::new(child),
                        partition_by: pb,
                        order_by: ob,
                        func: wf,
                    },
                    cols,
                ))
            }
        }
    }
}

/// Resolve sort keys by name.
fn sort_keys(
    order: &[crate::logical::LSortKey],
    cols: &[OutCol],
) -> Result<Vec<SortKey>, CompileError> {
    order
        .iter()
        .map(|k| {
            Ok(SortKey {
                col: position(cols, &k.col)?,
                desc: k.desc,
            })
        })
        .collect()
}

/// `exprs` over `child`: a Map, or — where every expression is a bare
/// column and `child` is a join, or a scan that would not move a column
/// twice — `child` writing those columns in that order (a join's `output`,
/// a scan's `columns`), which is no operator.
fn project(mut child: PlanNode, exprs: Vec<NamedExpr>) -> PlanNode {
    let bare = |e: &NamedExpr| match e.expr {
        Expr::Col(c) => Some(c),
        _ => None,
    };
    if exprs.iter().all(|e| bare(e).is_some()) {
        let picked = exprs.iter().filter_map(bare);
        match &mut child {
            PlanNode::HashJoin { output, .. } => {
                *output = picked.map(|c| output[c]).collect();
                return child;
            }
            PlanNode::Scan { columns, .. }
                if picked
                    .clone()
                    .enumerate()
                    .all(|(i, c)| picked.clone().skip(i + 1).all(|d| d != c)) =>
            {
                *columns = picked.map(|c| columns[c]).collect();
                return child;
            }
            _ => {}
        }
    }
    PlanNode::Map {
        input: Box::new(child),
        exprs,
    }
}

fn lower_scan(
    table: &str,
    pred: Option<&LPred>,
    projection: Option<&[String]>,
    catalog: &Catalog,
) -> Result<(PlanNode, Vec<OutCol>), CompileError> {
    let t = catalog
        .get(table)
        .ok_or_else(|| CompileError::UnknownTable(table.into()))?;
    // Scan-level scope: the full table schema (pred uses table indices).
    let table_cols: Vec<OutCol> = t
        .schema
        .fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let stats = t.stats.column(i);
            OutCol {
                name: f.name.clone(),
                dtype: f.dtype,
                scale: t.scales[i],
                dict: matches!(f.dtype, DataType::Varchar).then(|| (table.to_string(), i)),
                ndv: stats.and_then(|s| u32::try_from(s.ndv).ok()),
                range: stats.and_then(|s| Some((s.min?, s.max?))),
            }
        })
        .collect();
    let p = pred
        .map(|pr| lower_pred(pr, &table_cols, catalog))
        .transpose()?;

    let (columns, out_cols): (Vec<usize>, Vec<OutCol>) = match projection {
        Some(names) => {
            let mut idx = Vec::with_capacity(names.len());
            let mut cols = Vec::with_capacity(names.len());
            for n in names {
                let i = t
                    .schema
                    .index_of(n)
                    .ok_or_else(|| CompileError::UnknownColumn(n.clone()))?;
                idx.push(i);
                cols.push(table_cols[i].clone());
            }
            (idx, cols)
        }
        None => ((0..t.schema.len()).collect(), table_cols.clone()),
    };
    Ok((
        PlanNode::Scan {
            table: table.to_string(),
            columns,
            pred: p,
        },
        out_cols,
    ))
}

/// Resolve a name in an output-column scope.
fn position(cols: &[OutCol], name: &str) -> Result<usize, CompileError> {
    cols.iter()
        .position(|c| c.name == name)
        .ok_or_else(|| CompileError::UnknownColumn(name.to_string()))
}

/// A lowered, typed expression.
struct Typed {
    expr: Expr,
    dtype: DataType,
    scale: u8,
    dict: Option<(String, usize)>,
    ndv: Option<u32>,
    range: Option<(i64, i64)>,
}

impl Typed {
    /// A literal: one value.
    fn literal(v: i64, dtype: DataType, scale: u8) -> Typed {
        Typed {
            ndv: Some(1),
            range: Some((v, v)),
            ..Typed::computed(Expr::Lit(v), dtype, scale)
        }
    }

    /// A computed value: no dictionary, no bound but its columns'.
    fn computed(expr: Expr, dtype: DataType, scale: u8) -> Typed {
        Typed {
            expr,
            dtype,
            scale,
            dict: None,
            ndv: None,
            range: None,
        }
    }

    /// The most distinct values the expression can take over `cols`: its
    /// own bound, or — any expression over a single column — that column's.
    fn ndv_bound(&self, cols: &[OutCol]) -> Option<u32> {
        self.ndv.or_else(|| {
            let mut refs = Vec::new();
            self.expr.referenced_columns(&mut refs);
            let (first, rest) = refs.split_first()?;
            rest.iter().all(|c| c == first).then(|| cols[*first].ndv)?
        })
    }
}

fn lower_expr(e: &LExpr, cols: &[OutCol], catalog: &Catalog) -> Result<Typed, CompileError> {
    match e {
        LExpr::Col(name) => {
            let i = position(cols, name)?;
            let c = &cols[i];
            Ok(Typed {
                expr: Expr::Col(i),
                dtype: c.dtype,
                scale: c.scale,
                dict: c.dict.clone(),
                ndv: c.ndv,
                range: c.range,
            })
        }
        LExpr::Lit(v) => match v {
            Value::Int(x) => Ok(Typed::literal(*x, DataType::Int, 0)),
            Value::Decimal { unscaled, scale } => {
                let dtype = DataType::Decimal { scale: *scale };
                Ok(Typed::literal(*unscaled, dtype, *scale))
            }
            Value::Date(d) => Ok(Typed::literal(*d as i64, DataType::Date, 0)),
            other => Err(CompileError::Unsupported(format!(
                "literal {other} in scalar expression"
            ))),
        },
        LExpr::Bin { op, a, b } => {
            let ta = lower_expr(a, cols, catalog)?;
            let tb = lower_expr(b, cols, catalog)?;
            lower_arith(*op, ta, tb)
        }
        LExpr::Year(e) => {
            let t = lower_expr(e, cols, catalog)?;
            // Dates between two days fall in the years between theirs, and
            // in no more years than there are dates.
            let year = |day: i32| rapid_storage::types::civil_from_days(day).0;
            let days = t.range.filter(|_| t.dtype == DataType::Date);
            let years = days.map(|(first, last)| (year(first as i32), year(last as i32)));
            let range = years.map(|(first, last)| (first as i64, last as i64));
            let years = years.and_then(|(first, last)| u32::try_from(last - first + 1).ok());
            let ndv = match (t.ndv_bound(cols), years) {
                (Some(dates), Some(years)) => Some(dates.min(years)),
                (dates, years) => dates.or(years),
            };
            Ok(Typed {
                ndv,
                range,
                ..Typed::computed(Expr::YearOf(Box::new(t.expr)), DataType::Int, 0)
            })
        }
        LExpr::Case { pred, then, els } => {
            let p = lower_pred(pred, cols, catalog)?;
            let tt = lower_expr(then, cols, catalog)?;
            let te = lower_expr(els, cols, catalog)?;
            let (tt, te) = unify_scales(tt, te)?;
            let expr = Expr::Case {
                pred: Box::new(p),
                then: Box::new(tt.expr),
                els: Box::new(te.expr),
            };
            Ok(Typed::computed(
                expr,
                widen_type(tt.dtype, te.dtype),
                tt.scale,
            ))
        }
    }
}

/// Rescale `t` from its scale to `target` by multiplying mantissas. A
/// literal is rescaled here, once, where its mantissa times the factor fits
/// i64; one that does not keeps the runtime multiply, so the overflow
/// surfaces where it always did, as the query's error.
fn rescale_expr(t: Typed, target: u8) -> Result<Typed, CompileError> {
    if t.scale == target {
        return Ok(t);
    }
    if t.scale > target {
        return Err(CompileError::Unsupported(
            "downscaling in expression".into(),
        ));
    }
    let factor = pow10(target - t.scale)
        .ok_or_else(|| CompileError::BadLiteral("rescale overflow".into()))?;
    let dtype = if t.scale == 0 && target > 0 {
        DataType::Decimal { scale: target }
    } else {
        t.dtype
    };
    let expr = match t.expr {
        Expr::Lit(v) if v.checked_mul(factor).is_some() => Expr::Lit(v * factor),
        expr => Expr::mul(expr, Expr::Lit(factor)),
    };
    Ok(Typed {
        ndv: t.ndv,
        ..Typed::computed(expr, dtype, target)
    })
}

fn unify_scales(a: Typed, b: Typed) -> Result<(Typed, Typed), CompileError> {
    let target = a.scale.max(b.scale);
    Ok((rescale_expr(a, target)?, rescale_expr(b, target)?))
}

/// Reduce `t`'s scale to at most `max_scale` by integer-dividing the
/// mantissa (truncating precision loss, used by division lowering).
fn downscale_to(t: Typed, max_scale: u8) -> Result<Typed, CompileError> {
    if t.scale <= max_scale {
        return Ok(t);
    }
    let div = pow10(t.scale - max_scale)
        .ok_or_else(|| CompileError::BadLiteral("downscale overflow".into()))?;
    let expr = Expr::Arith {
        op: ArithOp::Div,
        a: Box::new(t.expr),
        b: Box::new(Expr::Lit(div)),
    };
    let dtype = DataType::Decimal { scale: max_scale };
    Ok(Typed {
        ndv: t.ndv,
        ..Typed::computed(expr, dtype, max_scale)
    })
}

fn widen_type(a: DataType, b: DataType) -> DataType {
    match (a, b) {
        (DataType::Decimal { scale }, _) | (_, DataType::Decimal { scale }) => {
            DataType::Decimal { scale }
        }
        _ => a,
    }
}

fn lower_arith(op: ArithOp, a: Typed, b: Typed) -> Result<Typed, CompileError> {
    match op {
        ArithOp::Add | ArithOp::Sub => {
            let (a, b) = unify_scales(a, b)?;
            let (dtype, scale) = (widen_type(a.dtype, b.dtype), a.scale);
            let expr = Expr::Arith {
                op,
                a: Box::new(a.expr),
                b: Box::new(b.expr),
            };
            Ok(Typed::computed(expr, dtype, scale))
        }
        ArithOp::Mul => {
            let scale = a.scale + b.scale;
            let dtype = if scale > 0 {
                DataType::Decimal { scale }
            } else {
                widen_type(a.dtype, b.dtype)
            };
            let expr = Expr::Arith {
                op,
                a: Box::new(a.expr),
                b: Box::new(b.expr),
            };
            Ok(Typed::computed(expr, dtype, scale))
        }
        ArithOp::Div => {
            // Deep operand scales would force a huge dividend pre-scale
            // and overflow the mantissa; normalize both operands down to
            // scale ≤ 2 first (integer division — a DSB precision-loss
            // tradeoff, acceptable for ratio reporting).
            let a = downscale_to(a, 2)?;
            let b = downscale_to(b, 2)?;
            // out_scale = max(DIV_EXTRA, sa - sb); pre-scale the dividend
            // so integer division retains the fraction.
            let sa = a.scale;
            let sb = b.scale;
            let out_scale = DIV_EXTRA_SCALE.max(sa.saturating_sub(sb));
            let k = out_scale + sb - sa; // ≥ 0 by construction
            let dividend = if k > 0 {
                Expr::mul(
                    a.expr,
                    Expr::Lit(pow10(k).ok_or_else(|| {
                        CompileError::BadLiteral("division prescale overflow".into())
                    })?),
                )
            } else {
                a.expr
            };
            let expr = Expr::Arith {
                op: ArithOp::Div,
                a: Box::new(dividend),
                b: Box::new(b.expr),
            };
            let dtype = DataType::Decimal { scale: out_scale };
            Ok(Typed::computed(expr, dtype, out_scale))
        }
    }
}

/// Lower a predicate against an intermediate scope.
fn lower_pred(p: &LPred, cols: &[OutCol], catalog: &Catalog) -> Result<Pred, CompileError> {
    match p {
        LPred::And(ps) => Ok(Pred::And(
            ps.iter()
                .map(|q| lower_pred(q, cols, catalog))
                .collect::<Result<_, _>>()?,
        )),
        LPred::Or(ps) => Ok(Pred::Or(
            ps.iter()
                .map(|q| lower_pred(q, cols, catalog))
                .collect::<Result<_, _>>()?,
        )),
        LPred::Not(q) => Ok(Pred::Not(Box::new(lower_pred(q, cols, catalog)?))),
        LPred::Cmp { left, op, right } => lower_cmp(left, *op, right, cols, catalog),
        LPred::Between { col, lo, hi } => {
            let i = position(cols, col)?;
            let c = &cols[i];
            let lo = encode_boundary(c, lo, catalog, RoundDir::Up)?;
            let hi = encode_boundary(c, hi, catalog, RoundDir::Down)?;
            Ok(Pred::Between { col: i, lo, hi })
        }
        LPred::InList { col, values } => {
            let i = position(cols, col)?;
            let c = &cols[i];
            if let Some((tname, tcol)) = &c.dict {
                // String IN-list: a code bitmap.
                let dict = column_dict(catalog, tname, *tcol)?;
                let mut codes = rapid_storage::bitvec::BitVec::zeros(dict.len());
                for v in values {
                    if let Value::Str(s) = v {
                        if let Some(code) = dict.code_of(s) {
                            codes.set(code as usize, true);
                        }
                    } else {
                        return Err(CompileError::BadLiteral(format!(
                            "non-string {v} in string IN-list"
                        )));
                    }
                }
                Ok(Pred::InCodes { col: i, codes })
            } else {
                let mut enc = Vec::with_capacity(values.len());
                for v in values {
                    // An unrepresentable value can never match.
                    if let Some(x) = exact_encode(c, v, catalog)? {
                        enc.push(x);
                    }
                }
                enc.sort_unstable();
                enc.dedup();
                Ok(Pred::InList {
                    col: i,
                    values: enc,
                })
            }
        }
        LPred::IsNull { col } => Ok(Pred::Not(Box::new(Pred::NotNull {
            col: position(cols, col)?,
        }))),
        LPred::Like { col, pattern } => {
            // The pattern's shape is chosen here, against the dictionary: a
            // literal prefix followed only by `%`s is a bisection of the
            // sorted values (§4.2), any other pattern is matched once per
            // value. Both compile to a qualifying-code bitmap.
            let (i, dict) = resolve_dict(col, cols, catalog)?;
            let prefix = pattern.trim_end_matches('%');
            let codes = if prefix.len() < pattern.len() && !prefix.contains(['%', '_']) {
                dict.prefix_codes(prefix)
            } else {
                let mut codes = rapid_storage::bitvec::BitVec::zeros(dict.len());
                for (code, v) in dict.values().iter().enumerate() {
                    if rapid_storage::like::like_match(pattern, v) {
                        codes.set(code, true);
                    }
                }
                codes
            };
            Ok(Pred::InCodes { col: i, codes })
        }
    }
}

/// Resolve a string column's dictionary for LIKE compilation.
fn resolve_dict<'a>(
    col: &str,
    cols: &[OutCol],
    catalog: &'a Catalog,
) -> Result<(usize, &'a rapid_storage::encoding::dict::Dictionary), CompileError> {
    let i = position(cols, col)?;
    let (tname, tcol) = cols[i]
        .dict
        .as_ref()
        .ok_or_else(|| CompileError::Unsupported(format!("LIKE on non-string column {col}")))?;
    Ok((i, column_dict(catalog, tname, *tcol)?))
}

/// A varchar column's dictionary. Metadata claiming dictionary provenance
/// without a stored dictionary is a catalog inconsistency, reported as a
/// typed error rather than a panic.
fn column_dict<'a>(
    catalog: &'a Catalog,
    tname: &str,
    tcol: usize,
) -> Result<&'a rapid_storage::encoding::dict::Dictionary, CompileError> {
    let t = catalog
        .get(tname)
        .ok_or_else(|| CompileError::UnknownTable(tname.to_string()))?;
    t.dicts.get(tcol).and_then(|d| d.as_ref()).ok_or_else(|| {
        CompileError::BadCatalog(format!("column {tcol} of '{tname}' has no dictionary"))
    })
}

fn lower_cmp(
    left: &LExpr,
    op: CmpOp,
    right: &LExpr,
    cols: &[OutCol],
    catalog: &Catalog,
) -> Result<Pred, CompileError> {
    // Normalize literal-on-the-left.
    if matches!(left, LExpr::Lit(_)) && !matches!(right, LExpr::Lit(_)) {
        return lower_cmp(right, op.flipped(), left, cols, catalog);
    }
    match (left, right) {
        (LExpr::Col(cn), LExpr::Lit(v)) => {
            let i = position(cols, cn)?;
            let c = &cols[i];
            // String comparisons go through the dictionary.
            if let (Some((tname, tcol)), Value::Str(s)) = (&c.dict, v) {
                let dict = column_dict(catalog, tname, *tcol)?;
                return Ok(compile_string_cmp(i, op, s, dict));
            }
            match op {
                CmpOp::Eq => match exact_encode(c, v, catalog)? {
                    Some(x) => Ok(Pred::CmpConst {
                        col: i,
                        op,
                        value: x,
                    }),
                    None => Ok(Pred::Const(false)),
                },
                CmpOp::Ne => match exact_encode(c, v, catalog)? {
                    Some(x) => Ok(Pred::CmpConst {
                        col: i,
                        op,
                        value: x,
                    }),
                    // No stored value can equal the literal, but NULLs
                    // still fail `<>` (three-valued comparison).
                    None => Ok(Pred::NotNull { col: i }),
                },
                CmpOp::Lt | CmpOp::Le => {
                    let x = encode_boundary(c, v, catalog, RoundDir::Down)?;
                    // v not exactly representable: x = floor ⇒ `col ≤ x`
                    // captures both `<` and `≤` against the true value.
                    let op = if exact_encode(c, v, catalog)?.is_some() {
                        op
                    } else {
                        CmpOp::Le
                    };
                    Ok(Pred::CmpConst {
                        col: i,
                        op,
                        value: x,
                    })
                }
                CmpOp::Gt | CmpOp::Ge => {
                    let x = encode_boundary(c, v, catalog, RoundDir::Up)?;
                    let op = if exact_encode(c, v, catalog)?.is_some() {
                        op
                    } else {
                        CmpOp::Ge
                    };
                    Ok(Pred::CmpConst {
                        col: i,
                        op,
                        value: x,
                    })
                }
            }
        }
        (LExpr::Col(a), LExpr::Col(b)) => {
            let ia = position(cols, a)?;
            let ib = position(cols, b)?;
            if cols[ia].scale != cols[ib].scale {
                // Rescale through expressions.
                let ta = lower_expr(left, cols, catalog)?;
                let tb = lower_expr(right, cols, catalog)?;
                let (ta, tb) = unify_scales(ta, tb)?;
                return Ok(Pred::CmpExpr {
                    left: Box::new(ta.expr),
                    op,
                    right: Box::new(tb.expr),
                });
            }
            Ok(Pred::CmpCols {
                left: ia,
                op,
                right: ib,
            })
        }
        _ => {
            let ta = lower_expr(left, cols, catalog)?;
            let tb = lower_expr(right, cols, catalog)?;
            let (ta, tb) = unify_scales(ta, tb)?;
            Ok(Pred::CmpExpr {
                left: Box::new(ta.expr),
                op,
                right: Box::new(tb.expr),
            })
        }
    }
}

/// Compile `string-col <op> 'literal'` via the dictionary: codes are
/// order-preserving, so a range is a plain code compare (the encoding
/// selection of §5.2).
fn compile_string_cmp(
    col: usize,
    op: CmpOp,
    s: &str,
    dict: &rapid_storage::encoding::dict::Dictionary,
) -> Pred {
    match op {
        CmpOp::Eq => match dict.code_of(s) {
            Some(c) => Pred::CmpConst {
                col,
                op: CmpOp::Eq,
                value: c as i64,
            },
            None => Pred::Const(false),
        },
        CmpOp::Ne => match dict.code_of(s) {
            Some(c) => Pred::CmpConst {
                col,
                op: CmpOp::Ne,
                value: c as i64,
            },
            // Absent from the dictionary: every non-NULL value differs,
            // but NULL rows still fail `<>`.
            None => Pred::NotNull { col },
        },
        _ => {
            let (lo, hi) = match op {
                CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(s)),
                CmpOp::Le => (Bound::Unbounded, Bound::Included(s)),
                CmpOp::Gt => (Bound::Excluded(s), Bound::Unbounded),
                CmpOp::Ge => (Bound::Included(s), Bound::Unbounded),
                _ => unreachable!(),
            };
            match dict.code_range(lo, hi) {
                Some((a, b)) => Pred::Between {
                    col,
                    lo: a as i64,
                    hi: b as i64,
                },
                None => Pred::Const(false),
            }
        }
    }
}

enum RoundDir {
    Up,
    Down,
}

/// Encode a literal exactly into the column's widened domain, or `None`
/// if it is not representable (absent dictionary value, deeper decimal).
fn exact_encode(c: &OutCol, v: &Value, catalog: &Catalog) -> Result<Option<i64>, CompileError> {
    if let Some((tname, tcol)) = &c.dict {
        let t = catalog
            .get(tname)
            .ok_or_else(|| CompileError::UnknownTable(tname.clone()))?;
        return Ok(t.encode_value(*tcol, v));
    }
    match c.dtype {
        DataType::Int => Ok(match v {
            Value::Int(x) => Some(*x),
            Value::Decimal { .. } => v.unscaled_at(0),
            _ => None,
        }),
        DataType::Date => Ok(match v {
            Value::Date(d) => Some(*d as i64),
            Value::Int(d) => Some(*d),
            _ => None,
        }),
        DataType::Decimal { .. } => Ok(v.unscaled_at(c.scale)),
        DataType::Varchar => Ok(None),
    }
}

/// Encode a literal as a comparison boundary, rounding in the given
/// direction when the exact value is not representable at the column's
/// scale.
fn encode_boundary(
    c: &OutCol,
    v: &Value,
    catalog: &Catalog,
    dir: RoundDir,
) -> Result<i64, CompileError> {
    if let Some(x) = exact_encode(c, v, catalog)? {
        return Ok(x);
    }
    let f = v
        .to_f64()
        .ok_or_else(|| CompileError::BadLiteral(format!("cannot encode {v}")))?;
    let scaled = f * pow10(c.scale).unwrap_or(1) as f64;
    Ok(match dir {
        RoundDir::Down => scaled.floor() as i64,
        RoundDir::Up => scaled.ceil() as i64,
    })
}

impl Lowering<'_, '_> {
    /// The join of `left` and `right`, both lowered, on `keys`, writing the
    /// columns its consumer reads as `reads`: of its logical columns — the
    /// left side's, then for an inner or outer join the right side's — those
    /// `reads` names, in the order it reads them. Where it reads none (a
    /// `COUNT(*)`), the first column stored narrowest, for the rows to be
    /// counted.
    fn join(
        &self,
        (lplan, lcols): (PlanNode, Vec<OutCol>),
        (rplan, rcols): (PlanNode, Vec<OutCol>),
        (left_keys, right_keys): (&[String], &[String]),
        join_type: JoinType,
        reads: Reads<'_>,
    ) -> Result<(PlanNode, Vec<OutCol>), CompileError> {
        let (catalog, params) = (self.catalog, self.params);
        let lk = left_keys
            .iter()
            .map(|k| position(&lcols, k))
            .collect::<Result<Vec<_>, _>>()?;
        let rk = right_keys
            .iter()
            .map(|k| position(&rcols, k))
            .collect::<Result<Vec<_>, _>>()?;

        // For semi/anti/outer the left side must stay the probe/outer input.
        // For inner joins the compiler picks the smaller side as build.
        let rest = estimate_node(&rplan, catalog, params);
        let lest = estimate_node(&lplan, catalog, params);
        let widest = encoded_row_bytes(&lplan, catalog)?.max(encoded_row_bytes(&rplan, catalog)?);
        let build_is_right = join_type != JoinType::Inner || rest.cost.rows <= lest.cost.rows;
        let ((build, build_est), (probe, probe_est)) = if build_is_right {
            ((&rplan, &rest), (&lplan, &lest))
        } else {
            ((&lplan, &lest), (&rplan, &rest))
        };
        let (build_rows, probe_rows) = (build_est.cost.rows, probe_est.cost.rows);
        let scheme = if broadcasts(
            build,
            build_rows,
            probe,
            probe_rows,
            lk.len(),
            catalog,
            params,
        )? {
            Vec::new()
        } else {
            // Both sides stream through the partition passes, and the
            // local-buffer limit (heuristic b) is set by the *widest* row.
            // The partition count is what a pair's table holds: keys
            // widened to 8 bytes and row ids.
            join_scheme(build_rows, widest, (lk.len(), 0), &params.ctx)
        };

        // The logical columns it writes, and where each lies in the probe
        // side's columns followed by the build side's.
        let llen = lcols.len();
        let logical: Vec<&OutCol> = match join_type.pairs() {
            true => lcols.iter().chain(&rcols).collect(),
            false => lcols.iter().collect(),
        };
        let written = self.written(&logical, reads, (&lplan, &rplan))?;
        let placed = |i: usize| match (build_is_right, i.checked_sub(llen)) {
            (true, _) => i,
            (false, None) => rcols.len() + i,
            (false, Some(right)) => right,
        };
        let output = written.iter().map(|&i| placed(i)).collect();
        let cols = written.iter().map(|&i| logical[i].clone()).collect();
        let ((build, build_keys), (probe, probe_keys)) = match build_is_right {
            true => ((rplan, rk), (lplan, lk)),
            false => ((lplan, lk), (rplan, rk)),
        };
        let node = PlanNode::HashJoin {
            build: Box::new(build),
            probe: Box::new(probe),
            build_keys,
            probe_keys,
            join_type,
            scheme,
            filter: None,
            ranged: ByRange::Neither,
            output,
        };
        // A join that reads one input by range never loses the filter
        // partitioning both sides would declare: where the build side is
        // read by range the probe side's rows meet none before the lane's
        // probe, so such a join is ranged only where that declares none, and
        // a probe side read by range must be tested against one of its own.
        let ests = (build_est, probe_est);
        let filtered = |node| join_filter(node, ests, catalog, params);
        let has_filter = |node: &PlanNode| {
            matches!(
                node,
                PlanNode::HashJoin {
                    filter: Some(_),
                    ..
                }
            )
        };
        let node = match ranged(node.clone(), catalog, params)? {
            // A lane's table holds its range's build rows — the build rows
            // themselves where it reads them by range, else their keys and
            // row ids: as many ranges as keep them within it.
            PlanNode::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                join_type,
                ranged: ranged @ (ByRange::Build | ByRange::Probe),
                output,
                ..
            } => {
                let row_bytes = match ranged.reads(0) {
                    true => encoded_row_bytes(&build, catalog)?,
                    false => 0,
                };
                let keys = (build_keys.len(), row_bytes);
                let scheme = join_scheme(build_rows, widest, keys, &params.ctx);
                let ranged = PlanNode::HashJoin {
                    build,
                    probe,
                    build_keys,
                    probe_keys,
                    join_type,
                    scheme,
                    filter: None,
                    ranged,
                    output,
                };
                let plain = filtered(node)?;
                let ranged = match ranged.reads_by_range(1) {
                    true => filtered(ranged)?,
                    false => ranged,
                };
                match has_filter(&plain) && !has_filter(&ranged) {
                    true => plain,
                    false => ranged,
                }
            }
            // Two inputs read by range cut each lane's rows into the blocks
            // its table holds (`ops::ranges::blocks`): their ranges are as
            // many as the declared widths of a join kernel's rows need.
            mut both @ PlanNode::HashJoin {
                ranged: ByRange::Both,
                ..
            } => {
                let declared = |cs: &[OutCol]| -> usize {
                    let widths = cs.iter().map(|c| c.dtype.physical_width());
                    widths.sum::<usize>().max(8)
                };
                let kernel_row_bytes = declared(&lcols).max(declared(&rcols));
                if let PlanNode::HashJoin { scheme, .. } = &mut both {
                    *scheme = partition_scheme(build_rows, widest, kernel_row_bytes, &params.ctx);
                }
                filtered(both)?
            }
            neither => filtered(neither)?,
        };
        Ok((node, cols))
    }

    /// Which of a join's `logical` columns it writes, as positions in them,
    /// for a consumer that reads them as `reads`.
    fn written(
        &self,
        logical: &[&OutCol],
        reads: Reads<'_>,
        (left, right): (&PlanNode, &PlanNode),
    ) -> Result<Vec<usize>, CompileError> {
        // The `nth` column of the name.
        let named = |name: &str, nth: usize| {
            let mut of_name = (0..logical.len()).filter(|&i| logical[i].name == name);
            of_name
                .nth(nth)
                .ok_or_else(|| CompileError::UnknownColumn(name.to_string()))
        };
        let written: Vec<usize> = match reads {
            Reads::All => (0..logical.len()).collect(),
            Reads::Layout(names) => names
                .iter()
                .enumerate()
                .map(|(i, name)| named(name, names[..i].iter().filter(|n| *n == name).count()))
                .collect::<Result<_, _>>()?,
            Reads::Names(from) => {
                let need = &self.need[from..];
                (0..logical.len())
                    .filter(|&i| need.contains(&logical[i].name.as_str()))
                    .collect()
            }
        };
        if !written.is_empty() {
            return Ok(written);
        }
        // Nothing is read: the first column stored narrowest still moves.
        let widths = |plan: &PlanNode| {
            plan.output_widths(self.catalog)
                .map_err(|e| CompileError::BadCatalog(e.to_string()))
        };
        let mut stored = widths(left)?;
        stored.extend(widths(right)?);
        Ok((0..logical.len())
            .min_by_key(|&i| stored[i])
            .into_iter()
            .collect())
    }
}

/// `node` — a partitioned join or group-by — with its partitions declared as
/// key ranges where its inputs qualify (`rapid_qef::ops::ranges`): an input
/// qualifies where it is a scan-fed chain, the one key is a base column of
/// its table, and the table is clustered on it (`Table::clustered_on`). A
/// group-by's input must; a join reads by range the inputs that qualify —
/// both, or one, the other partitioned by its key's value bits — where each
/// one's task fits DMEM (`stages::first_stage`). The scheme stays the one
/// `partition_scheme` gave: its partitions are the ranges. A broadcast join,
/// or a join or group-by of several keys, stays what it is.
fn ranged(
    mut node: PlanNode,
    catalog: &Catalog,
    params: &CostParams,
) -> Result<PlanNode, CompileError> {
    // A key of `input` is a column of a table stored in its order.
    let clustered = |input: &PlanNode, keys: &[usize]| input.clustered_key(keys, catalog).is_some();
    let qualifies = match &mut node {
        PlanNode::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            scheme,
            ranged,
            ..
        } if !scheme.is_empty() => {
            // Both read by range only on one key; on several, the probe.
            let edges = [clustered(build, build_keys), clustered(probe, probe_keys)];
            *ranged = match (edges, build_keys.len()) {
                ([true, true], 2..) => ByRange::Probe,
                _ => ByRange::of(edges),
            };
            ranged.any()
        }
        PlanNode::GroupBy {
            input,
            keys,
            strategy: GroupStrategy::Partitioned(_),
            ..
        } => keys.len() == 1 && clustered(input, keys),
        _ => false,
    };
    if !qualifies {
        return Ok(node);
    }
    // A group-by is declared ranged, then checked like a join.
    let by_range = |strategy: &mut GroupStrategy, ranged: bool| {
        if let GroupStrategy::Partitioned(scheme) | GroupStrategy::Ranged(scheme) = strategy {
            let scheme = std::mem::take(scheme);
            *strategy = match ranged {
                true => GroupStrategy::Ranged(scheme),
                false => GroupStrategy::Partitioned(scheme),
            };
        }
    };
    if let PlanNode::GroupBy { strategy, .. } = &mut node {
        by_range(strategy, true);
    }
    let mut fits = true;
    for edge in (0..node.inputs().count()).filter(|&edge| node.reads_by_range(edge)) {
        let ctx = &params.ctx;
        let first = rapid_qef::stages::first_stage(&node, edge, catalog, ctx)
            .map_err(|e| CompileError::BadCatalog(e.to_string()))?;
        fits &= matches!(first, Some(First::Task(task))
            if rapid_qef::budget::task_tile(ctx.tile_rows, &task.decls, ctx.dmem_bytes).is_some());
    }
    match &mut node {
        PlanNode::HashJoin { ranged, .. } if !fits => *ranged = ByRange::Neither,
        PlanNode::GroupBy { strategy, .. } if !fits => by_range(strategy, false),
        _ => {}
    }
    Ok(node)
}

/// `join` with a join filter where the estimate says one pays: an inner or
/// semi join, partitioned or broadcast, its inputs estimated `build` and
/// `probe`, declares the filter `join_filter::size_bits` sizes for the
/// estimated build rows — a slice for each of round one's partitions, one
/// for a broadcast join — in the room its probe side's first stage leaves at
/// the tile it runs at (`stages::probe_room`), where the estimate of the
/// join with it is below the estimate without (`cost::filter_pays`).
fn join_filter(
    mut join: PlanNode,
    (build, probe): (&NodeEst, &NodeEst),
    catalog: &Catalog,
    params: &CostParams,
) -> Result<PlanNode, CompileError> {
    let PlanNode::HashJoin {
        join_type: JoinType::Inner | JoinType::LeftSemi,
        scheme,
        ranged,
        ..
    } = &join
    else {
        return Ok(join);
    };
    // A ranged join's lane builds a filter of one slice over its range's
    // build rows, beside its table.
    let (fanout, build_rows) = match ranged.any() {
        true => (
            1,
            build.cost.rows / scheme.iter().product::<usize>().max(1) as f64,
        ),
        false => (rapid_qef::ops::join_filter::slices(scheme), build.cost.rows),
    };
    let room = rapid_qef::stages::probe_room(&join, catalog, &params.ctx)
        .map_err(|e| CompileError::BadCatalog(e.to_string()))?;
    let Some(bits) = rapid_qef::ops::join_filter::size_bits(build_rows, fanout, room) else {
        return Ok(join);
    };
    if crate::cost::filter_pays(&join, build, probe, bits, catalog, params) {
        if let PlanNode::HashJoin { filter, .. } = &mut join {
            *filter = Some(bits);
        }
    }
    Ok(join)
}

/// Whether a join of `build_rows` estimated rows from `build` into
/// `probe_rows` from `probe`, on `nkeys` keys, is broadcast — declared with
/// no rounds — rather than partitioned. Two conditions, both on estimates:
///
/// * (a) the build side's table (`ops::join::broadcast_bytes`: its bucket,
///   link, key and row-id arrays and the build rows' encoded columns) fits
///   the state the probe stage declares (`task::join_probe_decl`), and that
///   stage fits DMEM on its own, so it runs wherever the probe's task is cut;
/// * (b) build rows × cores ≤ probe rows: no lane builds more rows than it
///   probes, which every lane building the whole table would otherwise
///   cost more than partitioning saves.
///
/// A build side larger than estimated overflows to the table's DRAM
/// segment at run time: the estimate decides the cost, never the rows.
fn broadcasts(
    build: &PlanNode,
    build_rows: f64,
    probe: &PlanNode,
    probe_rows: f64,
    nkeys: usize,
    catalog: &Catalog,
    params: &CostParams,
) -> Result<bool, CompileError> {
    if build_rows * params.ctx.cores as f64 > probe_rows {
        return Ok(false);
    }
    let widths = |plan: &PlanNode| {
        plan.output_widths(catalog)
            .map_err(|e| CompileError::BadCatalog(e.to_string()))
    };
    let decl = rapid_qef::task::join_probe_decl(&widths(probe)?, params.ctx.dmem_bytes, 0);
    let table = rapid_qef::ops::join::broadcast_bytes(
        build_rows.ceil() as usize,
        nkeys,
        widths(build)?.iter().sum(),
    );
    let fits = rapid_qef::budget::task_tile(
        params.ctx.tile_rows,
        std::slice::from_ref(&decl),
        params.ctx.dmem_bytes,
    );
    Ok(table <= decl.state_bytes && fits.is_some())
}

/// A row of `plan`'s output as its columns are encoded
/// (`PlanNode::output_widths`): what the lanes of a partition pass buffer
/// and the DMS writes.
fn encoded_row_bytes(plan: &PlanNode, catalog: &Catalog) -> Result<usize, CompileError> {
    let widths = plan
        .output_widths(catalog)
        .map_err(|e| CompileError::BadCatalog(e.to_string()))?;
    Ok(widths.iter().sum())
}

fn lower_aggregate(
    child: PlanNode,
    cols: Vec<OutCol>,
    group_by: &[crate::logical::LNamed],
    aggs: &[crate::logical::LAgg],
    catalog: &Catalog,
    params: &CostParams,
) -> Result<(PlanNode, Vec<OutCol>), CompileError> {
    // Pre-Map: group keys first, then agg inputs.
    let mut exprs: Vec<NamedExpr> = Vec::new();
    let mut out_cols = Vec::new();
    let mut known_ndv: Option<u64> = Some(1);
    for g in group_by {
        let t = lower_expr(&g.expr, &cols, catalog)?;
        let ndv = t.ndv_bound(&cols);
        known_ndv = match (known_ndv, ndv) {
            (Some(a), Some(b)) => a.checked_mul(b.into()),
            _ => None,
        };
        out_cols.push(OutCol {
            name: g.name.clone(),
            dtype: t.dtype,
            scale: t.scale,
            dict: t.dict.clone(),
            ndv,
            range: t.range,
        });
        exprs.push(NamedExpr {
            expr: t.expr,
            name: g.name.clone(),
            dtype: t.dtype,
            scale: t.scale,
            dict: t.dict.clone(),
        });
    }
    let k = group_by.len();
    let mut specs = Vec::with_capacity(aggs.len());
    for a in aggs {
        let t = lower_expr(&a.input, &cols, catalog)?;
        let (dtype, scale) = match a.func {
            AggFunc::Count => (DataType::Int, 0),
            _ => (t.dtype, t.scale),
        };
        out_cols.push(OutCol {
            name: a.name.clone(),
            dtype,
            scale,
            dict: match a.func {
                AggFunc::Min | AggFunc::Max => t.dict.clone(),
                _ => None,
            },
            ndv: None,
            range: None,
        });
        let input = NamedExpr {
            expr: t.expr,
            name: a.name.clone(),
            dtype: t.dtype,
            scale: t.scale,
            dict: t.dict.clone(),
        };
        // An input the Map computes already is read from that column.
        let same = |e: &NamedExpr| {
            (&e.expr, e.dtype, e.scale, &e.dict)
                == (&input.expr, input.dtype, input.scale, &input.dict)
        };
        let col = exprs.iter().position(same).unwrap_or_else(|| {
            exprs.push(input);
            exprs.len() - 1
        });
        specs.push(AggSpec { func: a.func, col });
    }

    let mapped = project(child, exprs);
    // Strategy selection (§5.4's two group-by cases) from the most groups
    // there can be: the product of the keys' NDV bounds, or — a key without
    // one — the rows estimated to arrive. Few enough for a per-core DMEM
    // table aggregate on the fly; the rest are partitioned first, into as
    // many partitions as a group table of widened 8-byte keys and its chain
    // entries needs, by a scheme chosen the way a join's is. An on-the-fly
    // table whose keys all have a known range, and whose slots fit where its
    // groups would, indexes them by slot.
    let limit = on_the_fly_group_limit(params.ctx.dmem_bytes, k, &specs);
    let range = |c: &OutCol| c.range.map(|(lo, hi)| KeyRange { lo, hi });
    let ranges: Option<Vec<KeyRange>> = out_cols[..k].iter().map(range).collect();
    let fits = |r: &Vec<KeyRange>| k > 0 && slot_count(r).is_some_and(|n| n <= limit);
    let slots = ranges.filter(fits);
    let strategy = match known_ndv {
        Some(ndv) if ndv as usize <= limit => GroupStrategy::OnTheFly { slots },
        _ => {
            let rows = estimate(&mapped, catalog, params).rows;
            if known_ndv.is_none() && rows <= limit as f64 {
                GroupStrategy::OnTheFly { slots }
            } else {
                let row_bytes = encoded_row_bytes(&mapped, catalog)?;
                GroupStrategy::Partitioned(partition_scheme(
                    rows,
                    row_bytes,
                    k * 8 + 6,
                    &params.ctx,
                ))
            }
        }
    };
    let node = PlanNode::GroupBy {
        input: Box::new(mapped),
        keys: (0..k).collect(),
        aggs: specs,
        strategy,
    };
    Ok((ranged(node, catalog, params)?, out_cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{LAgg, LNamed, LSortKey};
    use rapid_storage::schema::{Field, Schema};
    use rapid_storage::table::TableBuilder;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("price", DataType::Decimal { scale: 2 }),
            Field::new("flag", DataType::Varchar),
            Field::new("d", DataType::Date),
        ]);
        let mut b = TableBuilder::new("t", schema);
        for i in 0..100i64 {
            b.push_row(vec![
                Value::Int(i),
                Value::Decimal {
                    unscaled: i * 100 + 1,
                    scale: 2,
                },
                Value::Str(["A", "N", "R"][(i % 3) as usize].into()),
                Value::Date(i as i32),
            ]);
        }
        let mut c = Catalog::new();
        c.insert("t".into(), Arc::new(b.finish()));
        c
    }

    fn params() -> CostParams {
        CostParams::default()
    }

    #[test]
    fn scan_with_decimal_literal_encoding() {
        let lp = LogicalPlan::scan_where(
            "t",
            LPred::cmp(
                "price",
                CmpOp::Lt,
                Value::Decimal {
                    unscaled: 5,
                    scale: 1,
                },
            ),
        );
        let c = compile(&lp, &catalog(), &params()).unwrap();
        let PlanNode::Scan { pred: Some(p), .. } = &c.plan else {
            panic!("{:?}", c.plan)
        };
        // 0.5 at column scale 2 -> mantissa 50.
        assert_eq!(
            p,
            &Pred::CmpConst {
                col: 1,
                op: CmpOp::Lt,
                value: 50
            }
        );
    }

    #[test]
    fn string_eq_compiles_to_code_compare() {
        let lp = LogicalPlan::scan_where("t", LPred::eq("flag", Value::Str("R".into())));
        let c = compile(&lp, &catalog(), &params()).unwrap();
        let PlanNode::Scan {
            pred:
                Some(Pred::CmpConst {
                    col: 2,
                    op: CmpOp::Eq,
                    value,
                }),
            ..
        } = c.plan
        else {
            panic!()
        };
        assert_eq!(value, 2, "codes are sorted: A=0, N=1, R=2");
    }

    #[test]
    fn string_range_compiles_to_code_range() {
        let lp =
            LogicalPlan::scan_where("t", LPred::cmp("flag", CmpOp::Ge, Value::Str("N".into())));
        let c = compile(&lp, &catalog(), &params()).unwrap();
        let PlanNode::Scan {
            pred: Some(Pred::Between { col: 2, lo, hi }),
            ..
        } = c.plan
        else {
            panic!()
        };
        assert_eq!((lo, hi), (1, 2));
    }

    #[test]
    fn missing_string_eq_is_constant_false() {
        let lp = LogicalPlan::scan_where("t", LPred::eq("flag", Value::Str("ZZZ".into())));
        let c = compile(&lp, &catalog(), &params()).unwrap();
        let PlanNode::Scan {
            pred: Some(Pred::Const(false)),
            ..
        } = c.plan
        else {
            panic!()
        };
    }

    #[test]
    fn inexact_decimal_boundary_rounds_correctly() {
        // price < 0.005 with scale 2: not representable; floor(0.5) = 0,
        // op becomes <=: mantissa <= 0 ⟺ price < 0.005 for scale-2 values.
        let lp = LogicalPlan::scan_where(
            "t",
            LPred::cmp(
                "price",
                CmpOp::Lt,
                Value::Decimal {
                    unscaled: 5,
                    scale: 3,
                },
            ),
        );
        let c = compile(&lp, &catalog(), &params()).unwrap();
        let PlanNode::Scan {
            pred: Some(Pred::CmpConst { op, value, .. }),
            ..
        } = c.plan
        else {
            panic!()
        };
        assert_eq!(op, CmpOp::Le);
        assert_eq!(value, 0);
    }

    #[test]
    fn arithmetic_scale_propagation() {
        // price * 0.5 -> scale 2 + 1 = 3.
        let lp = LogicalPlan::scan("t").project(vec![LNamed::new(
            "half",
            LExpr::bin(ArithOp::Mul, LExpr::col("price"), LExpr::dec(5, 1)),
        )]);
        let c = compile(&lp, &catalog(), &params()).unwrap();
        assert_eq!(c.output[0].scale, 3);
        assert_eq!(c.output[0].dtype, DataType::Decimal { scale: 3 });
    }

    #[test]
    fn add_unifies_scales() {
        // price + 1 (int) -> rescale the int side to scale 2.
        let lp = LogicalPlan::scan("t").project(vec![LNamed::new(
            "p1",
            LExpr::bin(ArithOp::Add, LExpr::col("price"), LExpr::int(1)),
        )]);
        let c = compile(&lp, &catalog(), &params()).unwrap();
        assert_eq!(c.output[0].scale, 2);
    }

    /// The one Map expression `lp` lowers to.
    fn mapped(lp: &LogicalPlan) -> Expr {
        let c = compile(lp, &catalog(), &params()).unwrap();
        let PlanNode::Map { exprs, .. } = &c.plan else {
            panic!("{:?}", c.plan)
        };
        exprs[0].expr.clone()
    }

    #[test]
    fn a_literal_rescales_at_compile_time() {
        // 1 - price: the 1 meets price's scale 2 as the literal 100, not as
        // a multiply by 100 on every row.
        let one_minus = LExpr::bin(ArithOp::Sub, LExpr::int(1), LExpr::col("price"));
        let lp = LogicalPlan::scan("t").project(vec![LNamed::new("d", one_minus)]);
        assert_eq!(mapped(&lp), Expr::sub(Expr::Lit(100), Expr::Col(0)));
        // A column still rescales at run time.
        let k_plus = LExpr::bin(ArithOp::Add, LExpr::col("k"), LExpr::col("price"));
        let lp = LogicalPlan::scan("t").project(vec![LNamed::new("s", k_plus)]);
        let k = Expr::mul(Expr::Col(0), Expr::Lit(100));
        assert_eq!(mapped(&lp), Expr::add(k, Expr::Col(1)));
    }

    #[test]
    fn a_rescale_past_i64_stays_a_multiply_and_fails_when_it_runs() {
        let big = i64::MAX / 50;
        let minus = LExpr::bin(ArithOp::Sub, LExpr::int(big), LExpr::col("price"));
        let lp = LogicalPlan::scan("t").project(vec![LNamed::new("d", minus)]);
        let rescaled = Expr::mul(Expr::Lit(big), Expr::Lit(100));
        assert_eq!(mapped(&lp), Expr::sub(rescaled, Expr::Col(0)));
        let c = compile(&lp, &catalog(), &params()).unwrap();
        let mut engine = rapid_qef::engine::Engine::new(rapid_qef::exec::ExecContext::dpu());
        engine.load_table(Arc::clone(&catalog()["t"]));
        let err = engine.execute(&c.plan).unwrap_err();
        assert!(
            matches!(err, rapid_qef::error::QefError::NumericOverflow(_)),
            "{err:?}"
        );
    }

    #[test]
    fn sum_avg_and_count_of_one_input_share_its_map_column() {
        let agg = |func, name: &str| LAgg {
            func,
            input: LExpr::bin(ArithOp::Mul, LExpr::col("price"), LExpr::col("k")),
            name: name.into(),
        };
        let lp = LogicalPlan::scan("t").aggregate(
            vec![LNamed::new("f", LExpr::col("flag"))],
            vec![
                agg(AggFunc::Sum, "s"),
                agg(AggFunc::Avg, "a"),
                agg(AggFunc::Count, "n"),
                agg(AggFunc::Max, "m"),
            ],
        );
        let c = compile(&lp, &catalog(), &params()).unwrap();
        let PlanNode::GroupBy { input, aggs, .. } = &c.plan else {
            panic!("{:?}", c.plan)
        };
        let PlanNode::Map { exprs, .. } = input.as_ref() else {
            panic!("{input:?}")
        };
        assert_eq!(exprs.len(), 2, "the key and one product: {exprs:?}");
        assert!(aggs.iter().all(|a| a.col == 1), "{aggs:?}");
        // Four aggregates, two accumulators: the (sum, count) and the MAX.
        use rapid_qef::ops::groupby::{accumulator_of, accumulators};
        assert_eq!(accumulators(aggs).len(), 2);
        let reads: Vec<usize> = (0..aggs.len()).map(|j| accumulator_of(aggs, j)).collect();
        assert_eq!(reads, [0, 0, 0, 1]);
        let names: Vec<&str> = c.output.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["f", "s", "a", "n", "m"]);
    }

    #[test]
    fn division_prescales_dividend() {
        let lp = LogicalPlan::scan("t").project(vec![LNamed::new(
            "ratio",
            LExpr::bin(ArithOp::Div, LExpr::col("price"), LExpr::col("k")),
        )]);
        let c = compile(&lp, &catalog(), &params()).unwrap();
        assert_eq!(c.output[0].scale, DIV_EXTRA_SCALE);
    }

    #[test]
    fn aggregate_selects_strategy_from_ndv() {
        // flag has NDV 3 -> on-the-fly.
        let lp = LogicalPlan::scan("t").aggregate(
            vec![LNamed::new("f", LExpr::col("flag"))],
            vec![LAgg {
                func: AggFunc::Count,
                input: LExpr::col("k"),
                name: "n".into(),
            }],
        );
        let c = compile(&lp, &catalog(), &params()).unwrap();
        let PlanNode::GroupBy { strategy, .. } = &c.plan else {
            panic!()
        };
        // Its codes 0..=2 index the table's slots.
        let slots = Some(vec![KeyRange { lo: 0, hi: 2 }]);
        assert_eq!(*strategy, GroupStrategy::OnTheFly { slots });
    }

    #[test]
    fn sort_limit_fuses_to_topk() {
        let lp = LogicalPlan::scan("t")
            .sort(vec![LSortKey {
                col: "price".into(),
                desc: true,
            }])
            .limit(5);
        let c = compile(&lp, &catalog(), &params()).unwrap();
        assert!(matches!(c.plan, PlanNode::TopK { k: 5, .. }));
    }

    #[test]
    fn join_build_side_and_scheme_selected() {
        let small = LogicalPlan::scan_where("t", LPred::cmp("k", CmpOp::Lt, Value::Int(5)));
        let lp = LogicalPlan::scan("t").join(small, &["k"], &["k"]);
        let c = compile(&lp, &catalog(), &params()).unwrap();
        let PlanNode::HashJoin { scheme, probe, .. } = &c.plan else {
            panic!("expected bare join, got {:?}", c.plan)
        };
        assert_eq!(scheme[..], [32], "a partition per core");
        // The filtered (smaller) side builds, the big scan probes.
        assert!(matches!(**probe, PlanNode::Scan { pred: None, .. }));
        // Output columns: left's then right's.
        assert_eq!(c.output.len(), 8);
        assert_eq!(c.output[0].name, "k");
    }

    #[test]
    fn unknown_names_error() {
        assert_eq!(
            compile(&LogicalPlan::scan("ghost"), &catalog(), &params()).unwrap_err(),
            CompileError::UnknownTable("ghost".into())
        );
        let lp = LogicalPlan::scan_where("t", LPred::eq("nope", Value::Int(1)));
        assert_eq!(
            compile(&lp, &catalog(), &params()).unwrap_err(),
            CompileError::UnknownColumn("nope".into())
        );
    }

    #[test]
    fn join_scheme_respects_the_buffer_fanout_cap() {
        // A join whose rows are much wider than `keys * 8` bytes: sizing
        // the partition buffers from the key count alone would admit
        // fan-outs the real rows cannot buffer. The real row is the row as
        // its columns are encoded: `k` needs 2 bytes, `v0..v5` 8 each and
        // `n0..n5` 1 each — 56 bytes where 104 are declared.
        let mut fields = vec![Field::new("k", DataType::Int)];
        for i in 0..6 {
            fields.push(Field::new(format!("v{i}"), DataType::Int));
        }
        for i in 0..6 {
            fields.push(Field::new(format!("n{i}"), DataType::Int));
        }
        let mut b = TableBuilder::new("wide", Schema::new(fields));
        for r in 0..4000i64 {
            let mut row = vec![Value::Int(r)];
            row.extend((0..6).map(|i| Value::Int((r * 13 + i) << 33)));
            row.extend((0..6).map(|i| Value::Int((r + i) % 100)));
            b.push_row(row);
        }
        let mut cat = Catalog::new();
        cat.insert("wide".into(), Arc::new(b.finish()));

        let lp = LogicalPlan::scan("wide").join(LogicalPlan::scan("wide"), &["k"], &["k"]);
        let p = params();
        let c = compile(&lp, &cat, &p).unwrap();
        let PlanNode::HashJoin {
            scheme: s, probe, ..
        } = &c.plan
        else {
            panic!("expected join root, got {:?}", c.plan)
        };
        let row: usize = probe.output_widths(&cat).unwrap().iter().sum();
        assert_eq!(row, 2 + 6 * 8 + 6);
        // 16 KiB of local buffers hold 18 sixteen-row bursts of 56 bytes:
        // 16 ways a round, where the declared 104 bytes would allow 8.
        let cap = rapid_qef::budget::max_buffered_fanout(row, p.ctx.dmem_bytes);
        assert_eq!(cap, 16);
        assert_eq!(
            rapid_qef::budget::max_buffered_fanout(104, p.ctx.dmem_bytes),
            8
        );
        assert_eq!(s.iter().product::<usize>(), 32, "a partition per core");
        assert!(
            s.len() == 2 && s.iter().all(|&f| f <= cap),
            "scheme {s:?} against the {cap}-way cap for {row}-byte rows"
        );
        // And the verifier agrees (the compile() gate already enforced
        // this; assert explicitly for the regression).
        assert!(rapid_verify::verify(&c.plan, &cat, &p.ctx).ok());
    }

    #[test]
    fn join_over_narrow_columns_partitions_in_one_round() {
        // Six columns of small values: 48 declared bytes a row cap a round
        // at 16 ways and would split 32 partitions in two rounds; the 8
        // bytes they are stored in fit 32 buffers (and 128) at once.
        let fields = (0..6).map(|i| Field::new(format!("c{i}"), DataType::Int));
        let mut b = TableBuilder::new("narrow", Schema::new(fields.collect()));
        for r in 0..4000i64 {
            let mut row = vec![Value::Int(r)];
            row.extend((1..6).map(|i| Value::Int((r + i) % 100)));
            b.push_row(row);
        }
        let mut cat = Catalog::new();
        cat.insert("narrow".into(), Arc::new(b.finish()));
        let lp = LogicalPlan::scan("narrow").join(LogicalPlan::scan("narrow"), &["c0"], &["c0"]);
        let p = params();
        assert_eq!(
            rapid_qef::budget::max_buffered_fanout(48, p.ctx.dmem_bytes),
            16
        );
        let c = compile(&lp, &cat, &p).unwrap();
        let PlanNode::HashJoin { scheme, probe, .. } = &c.plan else {
            panic!("expected join root, got {:?}", c.plan)
        };
        assert_eq!(probe.output_widths(&cat).unwrap(), [2, 1, 1, 1, 1, 1]);
        assert_eq!(scheme[..], [32]);
    }

    #[test]
    fn a_one_byte_row_splits_its_rounds_evenly() {
        // A key stored in one byte: 32 KiB of DMEM buffers it 1024 ways a
        // round, and 2^15 cores ask for 2^15 partitions, so two rounds of
        // 256 x 128 (heuristic d), where `scheme_cost`, which floors a
        // buffer at 64 bytes, prices 1024 x 32 lower.
        let mut b = TableBuilder::new("b", Schema::new(vec![Field::new("k", DataType::Int)]));
        for r in 0..100i64 {
            b.push_row(vec![Value::Int(r)]);
        }
        let mut cat = Catalog::new();
        cat.insert("b".into(), Arc::new(b.finish()));
        let lp = LogicalPlan::scan("b").join(LogicalPlan::scan("b"), &["k"], &["k"]);
        let p = CostParams::from_exec(&ExecContext {
            cores: 1 << 15,
            ..ExecContext::dpu()
        });
        let c = compile(&lp, &cat, &p).unwrap();
        let PlanNode::HashJoin { scheme, probe, .. } = &c.plan else {
            panic!("expected join root, got {:?}", c.plan)
        };
        assert_eq!(probe.output_widths(&cat).unwrap(), [1]);
        assert_eq!(
            rapid_qef::budget::max_buffered_fanout(1, p.ctx.dmem_bytes),
            1024
        );
        assert_eq!(scheme[..], [256, 128]);
    }

    #[test]
    fn aggregate_strategy_tracks_configured_dmem() {
        // k has NDV 100. At the default 32 KiB DMEM the on-the-fly table
        // holds it; at 2 KiB it cannot, and the compiler must partition.
        // Pre-fix, the limit was computed from a hardcoded 32 KiB and
        // ignored the configured scratchpad.
        let lp = LogicalPlan::scan("t").aggregate(
            vec![LNamed::new("g", LExpr::col("k"))],
            vec![LAgg {
                func: AggFunc::Sum,
                input: LExpr::col("price"),
                name: "s".into(),
            }],
        );
        let c = compile(&lp, &catalog(), &params()).unwrap();
        let PlanNode::GroupBy { strategy, .. } = &c.plan else {
            panic!()
        };
        let slots = Some(vec![KeyRange { lo: 0, hi: 99 }]);
        assert_eq!(*strategy, GroupStrategy::OnTheFly { slots });

        let small = CostParams::from_exec(&ExecContext {
            dmem_bytes: 2048,
            ..ExecContext::dpu()
        });
        let c = compile_unverified(&lp, &catalog(), &small).unwrap();
        let PlanNode::GroupBy { strategy, .. } = &c.plan else {
            panic!()
        };
        // `k` is stored in its own order: the partitions are key ranges.
        let GroupStrategy::Ranged(scheme) = strategy else {
            panic!("100 groups in 2 KiB: {strategy:?}")
        };
        assert_eq!(scheme.iter().product::<usize>(), 32, "{scheme:?}");
    }

    /// 3000 rows: `k` unique, `name` of 25 values, `d` a distinct day each
    /// from 1992-01-01 into 1998 (seven calendar years).
    fn seven_years() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("name", DataType::Varchar),
            Field::new("d", DataType::Date),
            Field::new("v", DataType::Int),
        ]);
        let first = rapid_storage::types::days_from_civil(1992, 1, 1);
        let mut b = TableBuilder::new("o", schema);
        for i in 0..3000i64 {
            b.push_row(vec![
                Value::Int(i),
                Value::Str(format!("n{:02}", i % 25)),
                Value::Date(first + (i as i32 * 2400) / 3000),
                Value::Int(i % 11),
            ]);
        }
        let mut c = Catalog::new();
        c.insert("o".into(), Arc::new(b.finish()));
        c
    }

    fn strategy_of(group_by: Vec<LNamed>, input: LogicalPlan, cat: &Catalog) -> GroupStrategy {
        let lp = input.aggregate(
            group_by,
            vec![LAgg {
                func: AggFunc::Sum,
                input: LExpr::col("v"),
                name: "s".into(),
            }],
        );
        let c = compile(&lp, cat, &params()).unwrap();
        let PlanNode::GroupBy { strategy, .. } = c.plan else {
            panic!("expected a group-by root, got {:?}", c.plan)
        };
        strategy
    }

    #[test]
    fn year_of_a_date_is_bounded_by_the_years_it_spans() {
        // Q9's shape: GROUP BY n_name, EXTRACT(YEAR FROM o_orderdate). The
        // dates alone are 2400 values; their years are 1992..=1998, and
        // 25 names x 7 years fit a per-core table.
        let cat = seven_years();
        let p = params();
        let sum = AggSpec {
            func: AggFunc::Sum,
            col: 2,
        };
        let limit = on_the_fly_group_limit(p.ctx.dmem_bytes, 2, &[sum]);
        assert!((25 * 7..2400).contains(&limit), "limit {limit}");
        let name = || LNamed::new("name", LExpr::col("name"));
        let year = LNamed::new("y", LExpr::Year(Box::new(LExpr::col("d"))));
        let by_year = strategy_of(vec![name(), year], LogicalPlan::scan("o"), &cat);
        // 25 name codes and seven years: 5 and 3 bits of slot, NULL included.
        let slots = vec![KeyRange { lo: 0, hi: 24 }, KeyRange { lo: 1992, hi: 1998 }];
        assert_eq!(slot_count(&slots), Some(256));
        let slots = Some(slots);
        assert_eq!(by_year, GroupStrategy::OnTheFly { slots });
        // By the day it is partitioned, a partition per core in one round.
        let day = LNamed::new("d", LExpr::col("d"));
        let by_day = strategy_of(vec![name(), day], LogicalPlan::scan("o"), &cat);
        assert_eq!(by_day, GroupStrategy::Partitioned(vec![32]));
    }

    #[test]
    fn computed_keys_are_bounded_by_their_column_or_the_rows() {
        let cat = seven_years();
        let doubled = || {
            LNamed::new(
                "k2",
                LExpr::bin(ArithOp::Mul, LExpr::col("k"), LExpr::int(2)),
            )
        };
        // An expression over one column takes no more values than the
        // column: 3000 of them, partitioned, with a scheme that verifies
        // (`compile` gates on it).
        let over_k = strategy_of(vec![doubled()], LogicalPlan::scan("o"), &cat);
        assert_eq!(over_k, GroupStrategy::Partitioned(vec![32]));
        // Over the 11-value column it aggregates on the fly.
        let v1 = LNamed::new(
            "v1",
            LExpr::bin(ArithOp::Add, LExpr::col("v"), LExpr::int(1)),
        );
        let over_v = strategy_of(vec![v1], LogicalPlan::scan("o"), &cat);
        assert_eq!(over_v, GroupStrategy::OnTheFly { slots: None });
        // Two columns: no NDV bound, so as many groups as rows arrive —
        // all 3000, or the 100 a filter lets through.
        let sum = || {
            LNamed::new(
                "kv",
                LExpr::bin(ArithOp::Add, LExpr::col("k"), LExpr::col("v")),
            )
        };
        let all_rows = strategy_of(vec![sum()], LogicalPlan::scan("o"), &cat);
        assert_eq!(all_rows, GroupStrategy::Partitioned(vec![32]));
        let few = LogicalPlan::scan_where("o", LPred::cmp("k", CmpOp::Lt, Value::Int(100)));
        let few = strategy_of(vec![sum()], few, &cat);
        assert_eq!(few, GroupStrategy::OnTheFly { slots: None });
    }

    #[test]
    fn compile_gate_rejects_invalid_configurations() {
        // A tile below the 64-row minimum vector is an accounting
        // violation: the gate converts the verifier diagnostic into a
        // typed CompileError instead of handing the engine a bad plan.
        let lp = LogicalPlan::scan("t");
        let bad = CostParams::from_exec(&ExecContext::dpu().with_tile_rows(16));
        let err = compile(&lp, &catalog(), &bad).unwrap_err();
        let CompileError::Verify(msg) = err else {
            panic!("expected Verify error, got {err:?}")
        };
        assert!(msg.contains("A-TILE-MIN"), "{msg}");
    }

    #[test]
    fn every_like_compiles_to_the_codes_like_match_keeps() {
        let schema = Schema::new(vec![Field::new("mode", DataType::Varchar)]);
        let mut b = TableBuilder::new("s", schema);
        for v in [
            "", "R", "RAIL", "REG AIR", "AIR", "MAIL", "TRUCK", "FOB", "BR",
        ] {
            b.push_row(vec![Value::Str(v.into())]);
        }
        let mut cat = Catalog::new();
        cat.insert("s".into(), Arc::new(b.finish()));
        let dict = column_dict(&cat, "s", 0).unwrap();
        let prefix_shapes = [("R%", "R"), ("R%%", "R"), ("%", "")];
        let other_shapes = ["%R%", "%R", "R_IL", "_", "%A_L", "R%A%", "R%R", "", "R"];
        let shapes = prefix_shapes.iter().map(|&(p, _)| p).chain(other_shapes);
        for pattern in shapes {
            let lp = LogicalPlan::scan_where(
                "s",
                LPred::Like {
                    col: "mode".into(),
                    pattern: pattern.into(),
                },
            );
            let c = compile(&lp, &cat, &params()).unwrap();
            let PlanNode::Scan {
                pred: Some(Pred::InCodes { col: 0, codes }),
                ..
            } = c.plan
            else {
                panic!("LIKE '{pattern}' did not compile to a code bitmap")
            };
            let kept: Vec<bool> = (0..dict.len()).map(|code| codes.get(code)).collect();
            let want: Vec<bool> = dict
                .values()
                .iter()
                .map(|v| rapid_storage::like::like_match(pattern, v))
                .collect();
            assert_eq!(kept, want, "LIKE '{pattern}'");
            if let Some(&(_, prefix)) = prefix_shapes.iter().find(|&&(p, _)| p == pattern) {
                assert_eq!(codes, dict.prefix_codes(prefix), "LIKE '{pattern}'");
            }
        }
    }
}
