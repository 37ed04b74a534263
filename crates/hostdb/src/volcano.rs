//! The Volcano executor: System X's conventional engine.
//!
//! "The execution paradigm in System X is pull-based, following an
//! iterator model. Each operator implements a set of methods: allocate(),
//! start(), fetch(), close() and release()." (§3.2)
//!
//! This is the tuple-at-a-time engine the paper's Figures 14/16 compare
//! RAPID against: every operator pulls one row of boxed [`Value`]s at a
//! time through virtual dispatch — exactly the interpretive overhead that
//! vectorized execution removes. Arithmetic goes through [`crate::valmath`]
//! so results match RAPID's DSB semantics bit-for-bit.

use std::collections::HashMap;

use rapid_qcomp::logical::{LAgg, LExpr, LPred, LWindowFunc, LogicalPlan};
use rapid_qef::plan::{JoinType, SetOpKind};
use rapid_qef::primitives::agg::AggFunc;
use rapid_qef::primitives::filter::CmpOp;
use rapid_storage::types::{civil_from_days, Value};

use crate::store::RowStore;
use crate::valmath;

/// Volcano execution errors.
#[derive(Debug, Clone, PartialEq)]
pub struct VolcanoError(pub String);

impl std::fmt::Display for VolcanoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "volcano error: {}", self.0)
    }
}

impl std::error::Error for VolcanoError {}

fn verr<T>(m: impl Into<String>) -> Result<T, VolcanoError> {
    Err(VolcanoError(m.into()))
}

type Row = Vec<Value>;

/// The iterator contract of §3.2.
pub trait VolcanoOp {
    /// Reserve resources (no-op default).
    fn allocate(&mut self) {}
    /// Begin execution.
    fn start(&mut self) -> Result<(), VolcanoError>;
    /// Produce the next row, or `None` at end of data.
    fn fetch(&mut self) -> Result<Option<Row>, VolcanoError>;
    /// End execution.
    fn close(&mut self) {}
    /// Release resources (no-op default).
    fn release(&mut self) {}
}

// ------------------------------------------------------------- resolved --

/// Name-resolved expression (interpreted per row — deliberately).
enum RExpr {
    Col(usize),
    Lit(Value),
    Bin(
        rapid_qef::primitives::arith::ArithOp,
        Box<RExpr>,
        Box<RExpr>,
    ),
    Year(Box<RExpr>),
    Case(Box<RPred>, Box<RExpr>, Box<RExpr>),
}

enum RPred {
    Cmp(RExpr, CmpOp, RExpr),
    Between(usize, Value, Value),
    InList(usize, Vec<Value>),
    LikePrefix(usize, String),
    LikeContains(usize, String),
    Like(usize, String),
    IsNull(usize),
    And(Vec<RPred>),
    Or(Vec<RPred>),
    Not(Box<RPred>),
}

fn resolve_expr(e: &LExpr, names: &[String]) -> Result<RExpr, VolcanoError> {
    match e {
        LExpr::Col(c) => names
            .iter()
            .position(|n| n == c)
            .map(RExpr::Col)
            .ok_or_else(|| VolcanoError(format!("unknown column '{c}'"))),
        LExpr::Lit(v) => Ok(RExpr::Lit(v.clone())),
        LExpr::Bin { op, a, b } => Ok(RExpr::Bin(
            *op,
            Box::new(resolve_expr(a, names)?),
            Box::new(resolve_expr(b, names)?),
        )),
        LExpr::Year(x) => Ok(RExpr::Year(Box::new(resolve_expr(x, names)?))),
        LExpr::Case { pred, then, els } => Ok(RExpr::Case(
            Box::new(resolve_pred(pred, names)?),
            Box::new(resolve_expr(then, names)?),
            Box::new(resolve_expr(els, names)?),
        )),
    }
}

fn resolve_pred(p: &LPred, names: &[String]) -> Result<RPred, VolcanoError> {
    let idx = |c: &str| {
        names
            .iter()
            .position(|n| n == c)
            .ok_or_else(|| VolcanoError(format!("unknown column '{c}'")))
    };
    match p {
        LPred::Cmp { left, op, right } => Ok(RPred::Cmp(
            resolve_expr(left, names)?,
            *op,
            resolve_expr(right, names)?,
        )),
        LPred::Between { col, lo, hi } => Ok(RPred::Between(idx(col)?, lo.clone(), hi.clone())),
        LPred::InList { col, values } => Ok(RPred::InList(idx(col)?, values.clone())),
        LPred::LikePrefix { col, prefix } => Ok(RPred::LikePrefix(idx(col)?, prefix.clone())),
        LPred::LikeContains { col, needle } => Ok(RPred::LikeContains(idx(col)?, needle.clone())),
        LPred::Like { col, pattern } => Ok(RPred::Like(idx(col)?, pattern.clone())),
        LPred::IsNull { col } => Ok(RPred::IsNull(idx(col)?)),
        LPred::And(ps) => Ok(RPred::And(
            ps.iter()
                .map(|q| resolve_pred(q, names))
                .collect::<Result<_, _>>()?,
        )),
        LPred::Or(ps) => Ok(RPred::Or(
            ps.iter()
                .map(|q| resolve_pred(q, names))
                .collect::<Result<_, _>>()?,
        )),
        LPred::Not(q) => Ok(RPred::Not(Box::new(resolve_pred(q, names)?))),
    }
}

fn eval_expr(e: &RExpr, row: &Row) -> Result<Value, VolcanoError> {
    match e {
        RExpr::Col(i) => Ok(row[*i].clone()),
        RExpr::Lit(v) => Ok(v.clone()),
        RExpr::Bin(op, a, b) => {
            let va = eval_expr(a, row)?;
            let vb = eval_expr(b, row)?;
            valmath::arith(*op, &va, &vb).map_err(|e| VolcanoError(e.to_string()))
        }
        RExpr::Year(x) => match eval_expr(x, row)? {
            Value::Date(d) => Ok(Value::Int(civil_from_days(d).0 as i64)),
            Value::Int(d) => Ok(Value::Int(civil_from_days(d as i32).0 as i64)),
            Value::Null => Ok(Value::Null),
            v => verr(format!("YEAR of non-date {v}")),
        },
        RExpr::Case(p, t, f) => {
            if eval_pred(p, row)? {
                eval_expr(t, row)
            } else {
                eval_expr(f, row)
            }
        }
    }
}

fn eval_pred(p: &RPred, row: &Row) -> Result<bool, VolcanoError> {
    Ok(match p {
        RPred::Cmp(a, op, b) => valmath::cmp(*op, &eval_expr(a, row)?, &eval_expr(b, row)?),
        RPred::Between(i, lo, hi) => {
            valmath::cmp(CmpOp::Ge, &row[*i], lo) && valmath::cmp(CmpOp::Le, &row[*i], hi)
        }
        RPred::InList(i, vals) => vals.iter().any(|v| valmath::cmp(CmpOp::Eq, &row[*i], v)),
        RPred::LikePrefix(i, prefix) => match &row[*i] {
            Value::Str(s) => s.starts_with(prefix.as_str()),
            _ => false,
        },
        RPred::LikeContains(i, needle) => match &row[*i] {
            Value::Str(s) => s.contains(needle.as_str()),
            _ => false,
        },
        RPred::Like(i, pattern) => match &row[*i] {
            Value::Str(s) => rapid_storage::like::like_match(pattern, s),
            _ => false,
        },
        RPred::IsNull(i) => row[*i] == Value::Null,
        RPred::And(ps) => {
            for q in ps {
                if !eval_pred(q, row)? {
                    return Ok(false);
                }
            }
            true
        }
        RPred::Or(ps) => {
            for q in ps {
                if eval_pred(q, row)? {
                    return Ok(true);
                }
            }
            false
        }
        RPred::Not(q) => !eval_pred(q, row)?,
    })
}

/// Normalize numeric values so join/group keys with different scales
/// compare equal (1 == 1.00).
fn norm_key(v: &Value) -> Value {
    match v {
        Value::Decimal { unscaled, scale } => {
            let (mut u, mut s) = (*unscaled, *scale);
            while s > 0 && u % 10 == 0 {
                u /= 10;
                s -= 1;
            }
            if s == 0 {
                Value::Int(u)
            } else {
                Value::Decimal {
                    unscaled: u,
                    scale: s,
                }
            }
        }
        Value::Date(d) => Value::Int(*d as i64),
        other => other.clone(),
    }
}

/// A hashable key image of a row subset.
fn key_image(row: &Row, cols: &[usize]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for &c in cols {
        let _ = write!(s, "{}\u{1}", norm_key(&row[c]));
    }
    s
}

// ------------------------------------------------------------ operators --

struct ScanOp {
    rows: Vec<Row>,
    pred: Option<RPred>,
    pos: usize,
}

impl VolcanoOp for ScanOp {
    fn start(&mut self) -> Result<(), VolcanoError> {
        self.pos = 0;
        Ok(())
    }

    fn fetch(&mut self) -> Result<Option<Row>, VolcanoError> {
        while self.pos < self.rows.len() {
            let row = &self.rows[self.pos];
            self.pos += 1;
            match &self.pred {
                Some(p) => {
                    if eval_pred(p, row)? {
                        return Ok(Some(row.clone()));
                    }
                }
                None => return Ok(Some(row.clone())),
            }
        }
        Ok(None)
    }
}

struct FilterOp {
    input: Box<dyn VolcanoOp>,
    pred: RPred,
}

impl VolcanoOp for FilterOp {
    fn start(&mut self) -> Result<(), VolcanoError> {
        self.input.start()
    }

    fn fetch(&mut self) -> Result<Option<Row>, VolcanoError> {
        while let Some(row) = self.input.fetch()? {
            if eval_pred(&self.pred, &row)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    fn close(&mut self) {
        self.input.close();
    }
}

struct ProjectOp {
    input: Box<dyn VolcanoOp>,
    exprs: Vec<RExpr>,
}

impl VolcanoOp for ProjectOp {
    fn start(&mut self) -> Result<(), VolcanoError> {
        self.input.start()
    }

    fn fetch(&mut self) -> Result<Option<Row>, VolcanoError> {
        match self.input.fetch()? {
            None => Ok(None),
            Some(row) => {
                let mut out = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    out.push(eval_expr(e, &row)?);
                }
                Ok(Some(out))
            }
        }
    }

    fn close(&mut self) {
        self.input.close();
    }
}

struct HashJoinOp {
    left: Box<dyn VolcanoOp>,
    right: Box<dyn VolcanoOp>,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    join_type: JoinType,
    right_width: usize,
    table: HashMap<String, Vec<Row>>,
    pending: Vec<Row>,
    built: bool,
}

impl HashJoinOp {
    fn build_side(&mut self) -> Result<(), VolcanoError> {
        self.right.start()?;
        while let Some(row) = self.right.fetch()? {
            if self.right_keys.iter().any(|&k| row[k].is_null()) {
                continue;
            }
            let key = key_image(&row, &self.right_keys);
            self.table.entry(key).or_default().push(row);
        }
        self.right.close();
        self.built = true;
        Ok(())
    }
}

impl VolcanoOp for HashJoinOp {
    fn start(&mut self) -> Result<(), VolcanoError> {
        self.table.clear();
        self.pending.clear();
        self.built = false;
        self.left.start()
    }

    fn fetch(&mut self) -> Result<Option<Row>, VolcanoError> {
        if !self.built {
            self.build_side()?;
        }
        loop {
            if let Some(row) = self.pending.pop() {
                return Ok(Some(row));
            }
            let Some(lrow) = self.left.fetch()? else {
                return Ok(None);
            };
            let null_key = self.left_keys.iter().any(|&k| lrow[k].is_null());
            let matches = if null_key {
                None
            } else {
                self.table.get(&key_image(&lrow, &self.left_keys))
            };
            match self.join_type {
                JoinType::Inner => {
                    if let Some(ms) = matches {
                        for m in ms {
                            let mut out = lrow.clone();
                            out.extend(m.iter().cloned());
                            self.pending.push(out);
                        }
                    }
                }
                JoinType::LeftSemi => {
                    if matches.is_some_and(|m| !m.is_empty()) {
                        return Ok(Some(lrow));
                    }
                }
                JoinType::LeftAnti => {
                    if matches.is_none_or(|m| m.is_empty()) {
                        return Ok(Some(lrow));
                    }
                }
                JoinType::LeftOuter => match matches {
                    Some(ms) if !ms.is_empty() => {
                        for m in ms {
                            let mut out = lrow.clone();
                            out.extend(m.iter().cloned());
                            self.pending.push(out);
                        }
                    }
                    _ => {
                        let mut out = lrow;
                        out.extend(std::iter::repeat_n(Value::Null, self.right_width));
                        return Ok(Some(out));
                    }
                },
            }
        }
    }

    fn close(&mut self) {
        self.left.close();
        self.table.clear();
    }
}

struct AggregateOp {
    input: Box<dyn VolcanoOp>,
    key_exprs: Vec<RExpr>,
    aggs: Vec<(AggFunc, RExpr)>,
    results: Vec<Row>,
    pos: usize,
}

#[derive(Clone)]
struct Acc {
    value: Value,
    count: i64,
}

impl Acc {
    fn init() -> Acc {
        Acc {
            value: Value::Null,
            count: 0,
        }
    }

    fn update(&mut self, f: AggFunc, v: &Value) -> Result<(), VolcanoError> {
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        match f {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                self.value = if self.value.is_null() {
                    v.clone()
                } else {
                    valmath::arith(rapid_qef::primitives::arith::ArithOp::Add, &self.value, v)
                        .map_err(|e| VolcanoError(e.to_string()))?
                };
            }
            AggFunc::Min => {
                if self.value.is_null()
                    || valmath::compare(v, &self.value) == Some(std::cmp::Ordering::Less)
                {
                    self.value = v.clone();
                }
            }
            AggFunc::Max => {
                if self.value.is_null()
                    || valmath::compare(v, &self.value) == Some(std::cmp::Ordering::Greater)
                {
                    self.value = v.clone();
                }
            }
        }
        Ok(())
    }

    fn finalize(&self, f: AggFunc) -> Value {
        match f {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Avg => {
                // Mirror the QEF: the sum's mantissa divided by the count
                // at the sum's scale, rounding half away from zero exactly
                // like `AggState::finalize` does.
                if self.count == 0 {
                    Value::Null
                } else {
                    // count >= 1, so the quotient is never larger than the
                    // dividend and always fits.
                    let div = |v: i64| {
                        rapid_qef::primitives::arith::div_round_half_away(v, self.count)
                            .unwrap_or(v)
                    };
                    match &self.value {
                        Value::Int(v) => Value::Int(div(*v)),
                        Value::Decimal { unscaled, scale } => Value::Decimal {
                            unscaled: div(*unscaled),
                            scale: *scale,
                        },
                        other => other.clone(),
                    }
                }
            }
            _ => self.value.clone(),
        }
    }
}

impl VolcanoOp for AggregateOp {
    fn start(&mut self) -> Result<(), VolcanoError> {
        self.input.start()?;
        let mut groups: HashMap<String, (Row, Vec<Acc>)> = HashMap::new();
        while let Some(row) = self.input.fetch()? {
            let mut key_vals = Vec::with_capacity(self.key_exprs.len());
            for e in &self.key_exprs {
                key_vals.push(eval_expr(e, &row)?);
            }
            let image = key_image(&key_vals, &(0..key_vals.len()).collect::<Vec<_>>());
            let entry = groups
                .entry(image)
                .or_insert_with(|| (key_vals.clone(), vec![Acc::init(); self.aggs.len()]));
            for (a, (f, e)) in entry.1.iter_mut().zip(&self.aggs) {
                let v = eval_expr(e, &row)?;
                a.update(*f, &v)?;
            }
        }
        self.input.close();
        // Global aggregate over empty input still yields one row.
        if groups.is_empty() && self.key_exprs.is_empty() {
            groups.insert(
                String::new(),
                (Vec::new(), vec![Acc::init(); self.aggs.len()]),
            );
        }
        self.results = groups
            .into_values()
            .map(|(mut key, accs)| {
                for (a, (f, _)) in accs.iter().zip(&self.aggs) {
                    key.push(a.finalize(*f));
                }
                key
            })
            .collect();
        self.pos = 0;
        Ok(())
    }

    fn fetch(&mut self) -> Result<Option<Row>, VolcanoError> {
        if self.pos < self.results.len() {
            self.pos += 1;
            Ok(Some(self.results[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }
}

struct SortOp {
    input: Box<dyn VolcanoOp>,
    keys: Vec<(usize, bool)>,
    rows: Vec<Row>,
    pos: usize,
}

impl VolcanoOp for SortOp {
    fn start(&mut self) -> Result<(), VolcanoError> {
        self.input.start()?;
        self.rows.clear();
        while let Some(r) = self.input.fetch()? {
            self.rows.push(r);
        }
        self.input.close();
        let keys = self.keys.clone();
        self.rows.sort_by(|a, b| {
            for &(c, desc) in &keys {
                let ord = valmath::order_by_cmp(&a[c], &b[c], desc);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.pos = 0;
        Ok(())
    }

    fn fetch(&mut self) -> Result<Option<Row>, VolcanoError> {
        if self.pos < self.rows.len() {
            self.pos += 1;
            Ok(Some(self.rows[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }
}

struct LimitOp {
    input: Box<dyn VolcanoOp>,
    n: usize,
    taken: usize,
}

impl VolcanoOp for LimitOp {
    fn start(&mut self) -> Result<(), VolcanoError> {
        self.taken = 0;
        self.input.start()
    }

    fn fetch(&mut self) -> Result<Option<Row>, VolcanoError> {
        if self.taken >= self.n {
            return Ok(None);
        }
        match self.input.fetch()? {
            Some(r) => {
                self.taken += 1;
                Ok(Some(r))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self) {
        self.input.close();
    }
}

struct SetOpOp {
    left: Box<dyn VolcanoOp>,
    right: Box<dyn VolcanoOp>,
    kind: SetOpKind,
    results: Vec<Row>,
    pos: usize,
}

impl VolcanoOp for SetOpOp {
    fn start(&mut self) -> Result<(), VolcanoError> {
        let all_cols = |row: &Row| (0..row.len()).collect::<Vec<_>>();
        self.right.start()?;
        let mut right_set = std::collections::HashSet::new();
        let mut right_rows = Vec::new();
        while let Some(r) = self.right.fetch()? {
            right_set.insert(key_image(&r, &all_cols(&r)));
            right_rows.push(r);
        }
        self.right.close();
        self.left.start()?;
        let mut emitted = std::collections::HashSet::new();
        self.results.clear();
        while let Some(r) = self.left.fetch()? {
            let img = key_image(&r, &all_cols(&r));
            let keep = match self.kind {
                SetOpKind::Union => true,
                SetOpKind::Intersect => right_set.contains(&img),
                SetOpKind::Minus => !right_set.contains(&img),
            };
            if keep && emitted.insert(img) {
                self.results.push(r);
            }
        }
        self.left.close();
        if self.kind == SetOpKind::Union {
            for r in right_rows {
                let img = key_image(&r, &all_cols(&r));
                if emitted.insert(img) {
                    self.results.push(r);
                }
            }
        }
        self.pos = 0;
        Ok(())
    }

    fn fetch(&mut self) -> Result<Option<Row>, VolcanoError> {
        if self.pos < self.results.len() {
            self.pos += 1;
            Ok(Some(self.results[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }
}

struct WindowOp {
    input: Box<dyn VolcanoOp>,
    partition_by: Vec<usize>,
    order_by: Vec<(usize, bool)>,
    func: LWindowFunc,
    sum_col: Option<usize>,
    results: Vec<Row>,
    pos: usize,
}

impl VolcanoOp for WindowOp {
    fn start(&mut self) -> Result<(), VolcanoError> {
        self.input.start()?;
        let mut rows = Vec::new();
        while let Some(r) = self.input.fetch()? {
            rows.push(r);
        }
        self.input.close();
        let mut groups: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, r) in rows.iter().enumerate() {
            groups
                .entry(key_image(r, &self.partition_by))
                .or_default()
                .push(i);
        }
        let mut out_vals = vec![Value::Null; rows.len()];
        for members in groups.values() {
            // The window order; rows it leaves equal — NULL keys included —
            // are RANK's peers.
            let window_order = |a: usize, b: usize| {
                for &(c, desc) in &self.order_by {
                    let ord = valmath::order_by_cmp(&rows[a][c], &rows[b][c], desc);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            };
            let mut ordered = members.clone();
            ordered.sort_by(|&a, &b| window_order(a, b));
            match &self.func {
                LWindowFunc::RowNumber => {
                    for (p, &r) in ordered.iter().enumerate() {
                        out_vals[r] = Value::Int(p as i64 + 1);
                    }
                }
                LWindowFunc::Rank => {
                    let mut rank = 1i64;
                    for (p, &r) in ordered.iter().enumerate() {
                        if p > 0 && window_order(ordered[p - 1], r).is_ne() {
                            rank = p as i64 + 1;
                        }
                        out_vals[r] = Value::Int(rank);
                    }
                }
                LWindowFunc::RunningSum { .. } => {
                    let col = self
                        .sum_col
                        .ok_or_else(|| VolcanoError("running sum without a column".into()))?;
                    let mut acc = Value::Int(0);
                    for &r in &ordered {
                        if !rows[r][col].is_null() {
                            acc = valmath::arith(
                                rapid_qef::primitives::arith::ArithOp::Add,
                                &acc,
                                &rows[r][col],
                            )
                            .map_err(|e| VolcanoError(e.to_string()))?;
                        }
                        out_vals[r] = acc.clone();
                    }
                }
            }
        }
        self.results = rows
            .into_iter()
            .zip(out_vals)
            .map(|(mut r, v)| {
                r.push(v);
                r
            })
            .collect();
        self.pos = 0;
        Ok(())
    }

    fn fetch(&mut self) -> Result<Option<Row>, VolcanoError> {
        if self.pos < self.results.len() {
            self.pos += 1;
            Ok(Some(self.results[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }
}

// ------------------------------------------------------------- building --

/// Build a Volcano operator tree for a logical plan against the row store.
/// Returns the root operator and its output column names.
pub fn build(
    plan: &LogicalPlan,
    store: &RowStore,
) -> Result<(Box<dyn VolcanoOp>, Vec<String>), VolcanoError> {
    match plan {
        LogicalPlan::Scan {
            table,
            pred,
            projection,
        } => {
            let t = store
                .table(table)
                .ok_or_else(|| VolcanoError(format!("unknown table '{table}'")))?;
            let guard = t.read();
            let names: Vec<String> = guard.schema.fields.iter().map(|f| f.name.clone()).collect();
            let rows: Vec<Row> = guard.scan().cloned().collect();
            drop(guard);
            let rp = pred.as_ref().map(|p| resolve_pred(p, &names)).transpose()?;
            let scan: Box<dyn VolcanoOp> = Box::new(ScanOp {
                rows,
                pred: rp,
                pos: 0,
            });
            match projection {
                None => Ok((scan, names)),
                Some(cols) => {
                    let exprs = cols
                        .iter()
                        .map(|c| resolve_expr(&LExpr::Col(c.clone()), &names))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok((Box::new(ProjectOp { input: scan, exprs }), cols.clone()))
                }
            }
        }
        LogicalPlan::Filter { input, pred } => {
            let (child, names) = build(input, store)?;
            let rp = resolve_pred(pred, &names)?;
            Ok((
                Box::new(FilterOp {
                    input: child,
                    pred: rp,
                }),
                names,
            ))
        }
        LogicalPlan::Project { input, exprs } => {
            let (child, names) = build(input, store)?;
            let rexprs = exprs
                .iter()
                .map(|e| resolve_expr(&e.expr, &names))
                .collect::<Result<Vec<_>, _>>()?;
            let out = exprs.iter().map(|e| e.name.clone()).collect();
            Ok((
                Box::new(ProjectOp {
                    input: child,
                    exprs: rexprs,
                }),
                out,
            ))
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        } => {
            let (l, lnames) = build(left, store)?;
            let (r, rnames) = build(right, store)?;
            let lk = left_keys
                .iter()
                .map(|k| {
                    lnames
                        .iter()
                        .position(|n| n == k)
                        .ok_or_else(|| VolcanoError(format!("unknown join key '{k}'")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let rk = right_keys
                .iter()
                .map(|k| {
                    rnames
                        .iter()
                        .position(|n| n == k)
                        .ok_or_else(|| VolcanoError(format!("unknown join key '{k}'")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let names = match join_type {
                JoinType::LeftSemi | JoinType::LeftAnti => lnames,
                _ => {
                    let mut n = lnames;
                    n.extend(rnames.clone());
                    n
                }
            };
            Ok((
                Box::new(HashJoinOp {
                    left: l,
                    right: r,
                    left_keys: lk,
                    right_keys: rk,
                    join_type: *join_type,
                    right_width: rnames.len(),
                    table: HashMap::new(),
                    pending: Vec::new(),
                    built: false,
                }),
                names,
            ))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let (child, names) = build(input, store)?;
            let key_exprs = group_by
                .iter()
                .map(|g| resolve_expr(&g.expr, &names))
                .collect::<Result<Vec<_>, _>>()?;
            let raggs = aggs
                .iter()
                .map(|a: &LAgg| Ok((a.func, resolve_expr(&a.input, &names)?)))
                .collect::<Result<Vec<_>, VolcanoError>>()?;
            let mut out: Vec<String> = group_by.iter().map(|g| g.name.clone()).collect();
            out.extend(aggs.iter().map(|a| a.name.clone()));
            Ok((
                Box::new(AggregateOp {
                    input: child,
                    key_exprs,
                    aggs: raggs,
                    results: Vec::new(),
                    pos: 0,
                }),
                out,
            ))
        }
        LogicalPlan::Sort { input, order } => {
            let (child, names) = build(input, store)?;
            let keys = order
                .iter()
                .map(|k| {
                    names
                        .iter()
                        .position(|n| *n == k.col)
                        .map(|i| (i, k.desc))
                        .ok_or_else(|| VolcanoError(format!("unknown sort key '{}'", k.col)))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((
                Box::new(SortOp {
                    input: child,
                    keys,
                    rows: Vec::new(),
                    pos: 0,
                }),
                names,
            ))
        }
        LogicalPlan::Limit { input, n } => {
            let (child, names) = build(input, store)?;
            Ok((
                Box::new(LimitOp {
                    input: child,
                    n: *n,
                    taken: 0,
                }),
                names,
            ))
        }
        LogicalPlan::SetOp { left, right, op } => {
            let (l, names) = build(left, store)?;
            let (r, _) = build(right, store)?;
            Ok((
                Box::new(SetOpOp {
                    left: l,
                    right: r,
                    kind: *op,
                    results: Vec::new(),
                    pos: 0,
                }),
                names,
            ))
        }
        LogicalPlan::Window {
            input,
            partition_by,
            order_by,
            func,
            name,
        } => {
            let (child, mut names) = build(input, store)?;
            let pb = partition_by
                .iter()
                .map(|c| {
                    names
                        .iter()
                        .position(|n| n == c)
                        .ok_or_else(|| VolcanoError(format!("unknown column '{c}'")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let ob = order_by
                .iter()
                .map(|k| {
                    names
                        .iter()
                        .position(|n| *n == k.col)
                        .map(|i| (i, k.desc))
                        .ok_or_else(|| VolcanoError(format!("unknown column '{}'", k.col)))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let sum_col = match func {
                LWindowFunc::RunningSum { col } => Some(
                    names
                        .iter()
                        .position(|n| n == col)
                        .ok_or_else(|| VolcanoError(format!("unknown column '{col}'")))?,
                ),
                _ => None,
            };
            names.push(name.clone());
            Ok((
                Box::new(WindowOp {
                    input: child,
                    partition_by: pb,
                    order_by: ob,
                    func: func.clone(),
                    sum_col,
                    results: Vec::new(),
                    pos: 0,
                }),
                names,
            ))
        }
    }
}

/// Run a plan to completion, returning `(column names, rows)`.
pub fn execute(
    plan: &LogicalPlan,
    store: &RowStore,
) -> Result<(Vec<String>, Vec<Row>), VolcanoError> {
    let (mut op, names) = build(plan, store)?;
    op.allocate();
    op.start()?;
    let mut rows = Vec::new();
    while let Some(r) = op.fetch()? {
        rows.push(r);
    }
    op.close();
    op.release();
    Ok((names, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_qcomp::logical::LNamed;
    use rapid_storage::schema::{Field, Schema};
    use rapid_storage::types::DataType;

    fn store() -> RowStore {
        let s = RowStore::new();
        s.create_table(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
                Field::new("g", DataType::Varchar),
            ]),
        );
        s.bulk_insert(
            "t",
            (0..100i64).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i * 2),
                    Value::Str(if i % 2 == 0 { "even" } else { "odd" }.into()),
                ]
            }),
        );
        s
    }

    #[test]
    fn scan_filter_project() {
        let s = store();
        let plan = LogicalPlan::scan_where("t", LPred::cmp("k", CmpOp::Lt, Value::Int(3)))
            .project(vec![LNamed::new("v", LExpr::col("v"))]);
        let (names, rows) = execute(&plan, &s).unwrap();
        assert_eq!(names, vec!["v"]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2][0], Value::Int(4));
    }

    #[test]
    fn join_inner_and_semi() {
        let s = store();
        let small = LogicalPlan::scan_where("t", LPred::cmp("k", CmpOp::Lt, Value::Int(5)));
        // Self-join via distinct names requires projection renames.
        let right = small.project(vec![LNamed::new("rk", LExpr::col("k"))]);
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("t")),
            right: Box::new(right.clone()),
            left_keys: vec!["k".into()],
            right_keys: vec!["rk".into()],
            join_type: JoinType::Inner,
        };
        let (names, rows) = execute(&plan, &s).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(names.last().unwrap(), "rk");

        let semi = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("t")),
            right: Box::new(right),
            left_keys: vec!["k".into()],
            right_keys: vec!["rk".into()],
            join_type: JoinType::LeftSemi,
        };
        let (names, rows) = execute(&semi, &s).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(names.len(), 3, "semi keeps probe columns only");
    }

    #[test]
    fn aggregate_groups() {
        let s = store();
        let plan = LogicalPlan::scan("t").aggregate(
            vec![LNamed::new("g", LExpr::col("g"))],
            vec![LAgg {
                func: AggFunc::Sum,
                input: LExpr::col("v"),
                name: "sv".into(),
            }],
        );
        let (_, mut rows) = execute(&plan, &s).unwrap();
        rows.sort_by_key(|r| format!("{}", r[0]));
        assert_eq!(rows.len(), 2);
        // even: sum of 2*k for even k in 0..100 = 2*(0+2+...+98)=4900.
        assert_eq!(rows[0][1], Value::Int(4900));
        assert_eq!(rows[1][1], Value::Int(5000));
    }

    #[test]
    fn outer_join_pads_nulls() {
        let s = store();
        let right = LogicalPlan::scan_where("t", LPred::cmp("k", CmpOp::Lt, Value::Int(1)))
            .project(vec![
                LNamed::new("rk", LExpr::col("k")),
                LNamed::new("rv", LExpr::col("v")),
            ]);
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan_where(
                "t",
                LPred::cmp("k", CmpOp::Lt, Value::Int(3)),
            )),
            right: Box::new(right),
            left_keys: vec!["k".into()],
            right_keys: vec!["rk".into()],
            join_type: JoinType::LeftOuter,
        };
        let (_, rows) = execute(&plan, &s).unwrap();
        assert_eq!(rows.len(), 3);
        let unmatched: Vec<_> = rows.iter().filter(|r| r[3].is_null()).collect();
        assert_eq!(unmatched.len(), 2);
    }

    #[test]
    fn sort_limit() {
        let s = store();
        let plan = LogicalPlan::scan("t")
            .sort(vec![rapid_qcomp::logical::LSortKey {
                col: "k".into(),
                desc: true,
            }])
            .limit(3);
        let (_, rows) = execute(&plan, &s).unwrap();
        assert_eq!(
            rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::Int(99), Value::Int(98), Value::Int(97)]
        );
    }

    #[test]
    fn empty_global_aggregate_yields_one_row() {
        let s = store();
        let plan = LogicalPlan::scan_where("t", LPred::cmp("k", CmpOp::Lt, Value::Int(0)))
            .aggregate(
                vec![],
                vec![LAgg {
                    func: AggFunc::Count,
                    input: LExpr::col("k"),
                    name: "n".into(),
                }],
            );
        let (_, rows) = execute(&plan, &s).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
    }

    #[test]
    fn window_rank() {
        let s = store();
        let plan = LogicalPlan::Window {
            input: Box::new(LogicalPlan::scan_where(
                "t",
                LPred::cmp("k", CmpOp::Lt, Value::Int(4)),
            )),
            partition_by: vec!["g".into()],
            order_by: vec![rapid_qcomp::logical::LSortKey {
                col: "v".into(),
                desc: true,
            }],
            func: LWindowFunc::Rank,
            name: "rnk".into(),
        };
        let (names, rows) = execute(&plan, &s).unwrap();
        assert_eq!(names.last().unwrap(), "rnk");
        // evens {0,2}: v=4 rank1, v=0 rank2; odds {1,3}: v=6 rank1, v=2 rank2.
        for r in rows {
            let k = if let Value::Int(k) = r[0] {
                k
            } else {
                panic!()
            };
            let rank = if let Value::Int(x) = r[3] {
                x
            } else {
                panic!()
            };
            assert_eq!(rank, if k >= 2 { 1 } else { 2 }, "row k={k}");
        }
    }
}

#[cfg(test)]
mod avg_parity_proptests {
    use super::*;
    use proptest::prelude::*;
    use rapid_qef::primitives::agg::{AggFunc as QAgg, AggState};

    /// Independent oracle: round-half-away-from-zero division in i128.
    fn oracle(sum: i64, count: i64) -> i64 {
        let (a, b) = (sum as i128, count as i128);
        let q = a / b;
        let r = a % b;
        let q = if 2 * r.abs() >= b.abs() {
            q + if (a < 0) != (b < 0) { -1 } else { 1 }
        } else {
            q
        };
        i64::try_from(q).expect("count >= 1 keeps the quotient in range")
    }

    proptest! {
        /// Satellite: AVG finalization parity. The Volcano accumulator and
        /// the QEF aggregate state must produce the identical quotient for
        /// every (sum, count) pair — negatives and extremes included — and
        /// both must match an independent i128 rounding oracle.
        #[test]
        fn avg_division_agrees_across_engines(sum in any::<i64>(), count in 1i64..10_000) {
            let want = oracle(sum, count);
            let volcano = Acc { value: Value::Int(sum), count }.finalize(AggFunc::Avg);
            prop_assert_eq!(volcano, Value::Int(want));
            let qef = AggState { value: sum, count }.finalize(QAgg::Avg);
            prop_assert_eq!(qef, Some(want));
            // Decimal mantissas go through the same scalar path.
            let vdec = Acc { value: Value::Decimal { unscaled: sum, scale: 2 }, count }
                .finalize(AggFunc::Avg);
            prop_assert_eq!(vdec, Value::Decimal { unscaled: want, scale: 2 });
        }

        #[test]
        fn avg_half_away_boundary_cases(count in 1i64..50) {
            // sum = ±(count/2) exercises the exact .5 boundary when count
            // is even; parity there is where truncation used to diverge.
            for sum in [count / 2, -(count / 2), count - 1, 1 - count] {
                let want = oracle(sum, count);
                prop_assert_eq!(
                    Acc { value: Value::Int(sum), count }.finalize(AggFunc::Avg),
                    Value::Int(want)
                );
                prop_assert_eq!(AggState { value: sum, count }.finalize(QAgg::Avg), Some(want));
            }
        }
    }
}
