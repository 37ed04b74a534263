//! Logical plans: the input handed to QComp by the host database.
//!
//! Logical nodes reference columns **by name** and carry literals as
//! engine-level [`Value`]s; all physical decisions (encodings, scales,
//! build sides, schemes) happen during compilation. The host database's
//! logical optimizer has already fixed the join order — "the search space
//! is already narrowed down by the logical optimization as operators do
//! not need to be re-ordered" (§5.2).

use serde::{Deserialize, Serialize};

use rapid_qef::plan::{Catalog, JoinType};
use rapid_qef::primitives::agg::AggFunc;
use rapid_qef::primitives::arith::ArithOp;
use rapid_qef::primitives::filter::CmpOp;
use rapid_storage::types::Value;

/// A logical scalar expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LExpr {
    /// Column by name.
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Binary arithmetic.
    Bin {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        a: Box<LExpr>,
        /// Right operand.
        b: Box<LExpr>,
    },
    /// `EXTRACT(YEAR FROM date_expr)`.
    Year(Box<LExpr>),
    /// `CASE WHEN pred THEN a ELSE b END`.
    Case {
        /// Condition.
        pred: Box<LPred>,
        /// THEN branch.
        then: Box<LExpr>,
        /// ELSE branch.
        els: Box<LExpr>,
    },
}

impl LExpr {
    /// Column reference shorthand.
    pub fn col(name: &str) -> LExpr {
        LExpr::Col(name.to_string())
    }

    /// Integer literal shorthand.
    pub fn int(v: i64) -> LExpr {
        LExpr::Lit(Value::Int(v))
    }

    /// Decimal literal shorthand.
    pub fn dec(unscaled: i64, scale: u8) -> LExpr {
        LExpr::Lit(Value::Decimal { unscaled, scale })
    }

    /// `a op b` shorthand.
    pub fn bin(op: ArithOp, a: LExpr, b: LExpr) -> LExpr {
        LExpr::Bin {
            op,
            a: Box::new(a),
            b: Box::new(b),
        }
    }

    /// Push the name of every column the expression reads onto `out`.
    fn columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            LExpr::Col(name) => out.push(name),
            LExpr::Lit(_) => {}
            LExpr::Bin { a, b, .. } => {
                a.columns(out);
                b.columns(out);
            }
            LExpr::Year(e) => e.columns(out),
            LExpr::Case { pred, then, els } => {
                pred.columns(out);
                then.columns(out);
                els.columns(out);
            }
        }
    }
}

/// A logical predicate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LPred {
    /// `left <op> right`.
    Cmp {
        /// Left expression.
        left: LExpr,
        /// Operator.
        op: CmpOp,
        /// Right expression.
        right: LExpr,
    },
    /// `col BETWEEN lo AND hi` (inclusive).
    Between {
        /// Column name.
        col: String,
        /// Lower bound.
        lo: Value,
        /// Upper bound.
        hi: Value,
    },
    /// `col IN (...)`.
    InList {
        /// Column name.
        col: String,
        /// Literals.
        values: Vec<Value>,
    },
    /// `col LIKE 'prefix%'`.
    LikePrefix {
        /// Column name.
        col: String,
        /// The prefix.
        prefix: String,
    },
    /// `col LIKE '%substring%'`.
    LikeContains {
        /// Column name.
        col: String,
        /// The substring.
        needle: String,
    },
    /// `col LIKE pattern` for general patterns (`%`/`_` anywhere); the
    /// simpler prefix/contains shapes use the dedicated variants above.
    Like {
        /// Column name.
        col: String,
        /// The raw LIKE pattern.
        pattern: String,
    },
    /// `col IS NULL`; `IS NOT NULL` is its negation.
    IsNull {
        /// Column name.
        col: String,
    },
    /// Conjunction.
    And(Vec<LPred>),
    /// Disjunction.
    Or(Vec<LPred>),
    /// Negation.
    Not(Box<LPred>),
}

impl LPred {
    /// `col op literal` shorthand.
    pub fn cmp(col: &str, op: CmpOp, v: Value) -> LPred {
        LPred::Cmp {
            left: LExpr::col(col),
            op,
            right: LExpr::Lit(v),
        }
    }

    /// `col = literal` shorthand.
    pub fn eq(col: &str, v: Value) -> LPred {
        Self::cmp(col, CmpOp::Eq, v)
    }

    /// Conjunction shorthand.
    pub fn and(ps: Vec<LPred>) -> LPred {
        LPred::And(ps)
    }

    /// Push the name of every column the predicate reads onto `out`.
    fn columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            LPred::Cmp { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            LPred::Between { col, .. }
            | LPred::InList { col, .. }
            | LPred::LikePrefix { col, .. }
            | LPred::LikeContains { col, .. }
            | LPred::Like { col, .. }
            | LPred::IsNull { col } => out.push(col),
            LPred::And(ps) | LPred::Or(ps) => ps.iter().for_each(|p| p.columns(out)),
            LPred::Not(p) => p.columns(out),
        }
    }
}

/// A named output expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LNamed {
    /// Expression.
    pub expr: LExpr,
    /// Output name.
    pub name: String,
}

impl LNamed {
    /// Shorthand.
    pub fn new(name: &str, expr: LExpr) -> LNamed {
        LNamed {
            expr,
            name: name.to_string(),
        }
    }
}

/// An aggregate call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LAgg {
    /// Function.
    pub func: AggFunc,
    /// Input expression.
    pub input: LExpr,
    /// Output name.
    pub name: String,
}

/// A sort key by column name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LSortKey {
    /// Column name (of the node's output).
    pub col: String,
    /// Descending?
    pub desc: bool,
}

/// The logical plan tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogicalPlan {
    /// Base table scan with optional pushed-down predicate and projection.
    Scan {
        /// Table name.
        table: String,
        /// Optional filter.
        pred: Option<LPred>,
        /// Projected column names (`None` = all).
        projection: Option<Vec<String>>,
    },
    /// Filter over a child.
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Predicate.
        pred: LPred,
    },
    /// Projection / computed expressions.
    Project {
        /// Input.
        input: Box<LogicalPlan>,
        /// Output expressions.
        exprs: Vec<LNamed>,
    },
    /// Equi-join; the compiler chooses which side builds.
    Join {
        /// Left input (output columns come first).
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Equi-key column names on the left.
        left_keys: Vec<String>,
        /// Equi-key column names on the right.
        right_keys: Vec<String>,
        /// Join variant; the left side plays the probe/outer role.
        join_type: rapid_qef::plan::JoinType,
    },
    /// Group-by + aggregation.
    Aggregate {
        /// Input.
        input: Box<LogicalPlan>,
        /// Group-key expressions (name kept for output).
        group_by: Vec<LNamed>,
        /// Aggregates.
        aggs: Vec<LAgg>,
    },
    /// Sort.
    Sort {
        /// Input.
        input: Box<LogicalPlan>,
        /// Keys.
        order: Vec<LSortKey>,
    },
    /// Limit (Sort+Limit compiles to the vectorized Top-K).
    Limit {
        /// Input.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
    /// Distinct set operation.
    SetOp {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Kind.
        op: rapid_qef::plan::SetOpKind,
    },
    /// Window function appended as a column.
    Window {
        /// Input.
        input: Box<LogicalPlan>,
        /// PARTITION BY column names.
        partition_by: Vec<String>,
        /// ORDER BY keys.
        order_by: Vec<LSortKey>,
        /// Function (column references resolved at compile).
        func: LWindowFunc,
        /// Output column name.
        name: String,
    },
}

/// Logical window functions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LWindowFunc {
    /// RANK().
    Rank,
    /// ROW_NUMBER().
    RowNumber,
    /// SUM(col) OVER (...) running sum.
    RunningSum {
        /// Summed column name.
        col: String,
    },
}

impl LogicalPlan {
    /// The node's child plans, left to right — the one place that spells
    /// out which variants have which children, so plan walks elsewhere
    /// recurse through this instead of matching every variant.
    pub fn inputs(&self) -> impl Iterator<Item = &LogicalPlan> {
        let (first, second) = match self {
            LogicalPlan::Scan { .. } => (None, None),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Window { input, .. } => (Some(&**input), None),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                (Some(&**left), Some(&**right))
            }
        };
        first.into_iter().chain(second)
    }

    /// [`inputs`](Self::inputs), mutably: rewrite children in place.
    pub fn inputs_mut(&mut self) -> impl Iterator<Item = &mut LogicalPlan> {
        let (first, second) = match self {
            LogicalPlan::Scan { .. } => (None, None),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Window { input, .. } => (Some(&mut **input), None),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                (Some(&mut **left), Some(&mut **right))
            }
        };
        first.into_iter().chain(second)
    }

    /// Required-column analysis: narrow every `Scan`'s projection to the
    /// columns some node above it reads, so the DMS moves nothing else.
    ///
    /// The walk carries the set of column *names* the parent reads. The
    /// root and both `SetOp` inputs (positional) need all of their outputs;
    /// `Project` and `Aggregate` need what their expressions name;
    /// `Filter`, `Sort`, `Limit` and `Window` add their own columns to the
    /// parent's; a `Join` hands the parent's set plus its keys to each side
    /// (semi/anti joins emit no right columns, so the right side needs only
    /// its keys). A name the set holds is kept wherever it occurs below —
    /// on both join sides, under a `Window` that shadows it — and kept
    /// columns stay in the order they had, so every first-match name
    /// resolution in [`crate::compiler`] finds the column it found before.
    /// Scan predicates stream their own columns by table index and are not
    /// touched.
    pub(crate) fn prune_columns(&mut self, catalog: &Catalog) {
        // Room for the names of an ordinary statement in one allocation.
        narrow(self, catalog, &mut Vec::with_capacity(16), None);
    }

    /// Scan shorthand.
    pub fn scan(table: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.to_string(),
            pred: None,
            projection: None,
        }
    }

    /// Scan with predicate.
    pub fn scan_where(table: &str, pred: LPred) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.to_string(),
            pred: Some(pred),
            projection: None,
        }
    }

    /// Filter shorthand.
    pub fn filter(self, pred: LPred) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(self),
            pred,
        }
    }

    /// Project shorthand.
    pub fn project(self, exprs: Vec<LNamed>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            exprs,
        }
    }

    /// Inner-join shorthand.
    pub fn join(self, right: LogicalPlan, left_keys: &[&str], right_keys: &[&str]) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_keys: left_keys.iter().map(|s| s.to_string()).collect(),
            right_keys: right_keys.iter().map(|s| s.to_string()).collect(),
            join_type: rapid_qef::plan::JoinType::Inner,
        }
    }

    /// Aggregate shorthand.
    pub fn aggregate(self, group_by: Vec<LNamed>, aggs: Vec<LAgg>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    /// Sort shorthand.
    pub fn sort(self, order: Vec<LSortKey>) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(self),
            order,
        }
    }

    /// Limit shorthand.
    pub fn limit(self, n: usize) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(self),
            n,
        }
    }
}

/// One step of [`LogicalPlan::prune_columns`]. `need[from..]` are the names
/// the parent reads from `plan`; `from == None` means every output. `need`
/// is one stack for the whole walk, borrowing names from the plan it
/// narrows: a node pushes what it reads, and what a subtree pushed is
/// popped before its sibling runs.
fn narrow<'a>(
    plan: &'a mut LogicalPlan,
    catalog: &Catalog,
    need: &mut Vec<&'a str>,
    from: Option<usize>,
) {
    let mark = need.len();
    let sort_cols = |order: &'a [LSortKey]| order.iter().map(|k| k.col.as_str());
    match plan {
        LogicalPlan::Scan {
            table, projection, ..
        } => {
            if let Some(from) = from {
                narrow_scan(table, projection, &need[from..], catalog);
            }
        }
        LogicalPlan::Filter { input, pred } => {
            pred.columns(need);
            narrow(input, catalog, need, from);
        }
        LogicalPlan::Project { input, exprs } => {
            exprs.iter().for_each(|e| e.expr.columns(need));
            narrow(input, catalog, need, Some(mark));
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            group_by.iter().for_each(|g| g.expr.columns(need));
            aggs.iter().for_each(|a| a.input.columns(need));
            narrow(input, catalog, need, Some(mark));
        }
        LogicalPlan::Sort { input, order } => {
            need.extend(sort_cols(order));
            narrow(input, catalog, need, from);
        }
        LogicalPlan::Limit { input, .. } => narrow(input, catalog, need, from),
        LogicalPlan::Window {
            input,
            partition_by,
            order_by,
            func,
            ..
        } => {
            need.extend(partition_by.iter().map(String::as_str));
            need.extend(sort_cols(order_by));
            if let LWindowFunc::RunningSum { col } = func {
                need.push(col);
            }
            narrow(input, catalog, need, from);
        }
        LogicalPlan::SetOp { left, right, .. } => {
            narrow(left, catalog, need, None);
            narrow(right, catalog, need, None);
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        } => {
            need.extend(left_keys.iter().map(String::as_str));
            narrow(left, catalog, need, from);
            need.truncate(mark);
            need.extend(right_keys.iter().map(String::as_str));
            let emits_right = matches!(join_type, JoinType::Inner | JoinType::LeftOuter);
            narrow(
                right,
                catalog,
                need,
                if emits_right { from } else { Some(mark) },
            );
        }
    }
    need.truncate(mark);
}

/// Narrow one scan to the columns named in `need`, in the order they had
/// (table order, or the given projection's). A table or column the catalog
/// does not know is left for lowering to report.
fn narrow_scan(
    table: &str,
    projection: &mut Option<Vec<String>>,
    need: &[&str],
    catalog: &Catalog,
) {
    let Some(t) = catalog.get(table) else { return };
    let needed = |name: &String| need.contains(&name.as_str());
    // Something must still move for the rows to be counted (`COUNT(*)`):
    // the first of the columns stored narrowest.
    let width = |name: &String| t.schema.index_of(name).map(|c| t.column_width(c));
    match projection {
        Some(names) => {
            if names.iter().any(|n| t.schema.index_of(n).is_none()) {
                return;
            }
            if names.iter().any(needed) {
                names.retain(needed);
            } else if let Some(keep) = (0..names.len()).min_by_key(|&i| width(&names[i])) {
                names.swap(0, keep);
                names.truncate(1);
            }
        }
        None => {
            let all = || t.schema.fields.iter().map(|f| &f.name);
            let kept = all().filter(|n| needed(n)).count();
            if kept == t.schema.len() {
                return;
            }
            *projection = Some(if kept > 0 {
                all().filter(|n| needed(n)).cloned().collect()
            } else {
                all()
                    .min_by_key(|n| width(n))
                    .cloned()
                    .into_iter()
                    .collect()
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let plan = LogicalPlan::scan("lineitem")
            .filter(LPred::cmp("l_quantity", CmpOp::Lt, Value::Int(24)))
            .aggregate(
                vec![LNamed::new("flag", LExpr::col("l_returnflag"))],
                vec![LAgg {
                    func: AggFunc::Sum,
                    input: LExpr::col("l_extendedprice"),
                    name: "revenue".into(),
                }],
            )
            .sort(vec![LSortKey {
                col: "revenue".into(),
                desc: true,
            }])
            .limit(10);
        // Shape: Limit(Sort(Aggregate(Filter(Scan)))).
        let LogicalPlan::Limit { input, n } = plan else {
            panic!()
        };
        assert_eq!(n, 10);
        assert!(matches!(*input, LogicalPlan::Sort { .. }));
    }

    /// A plan holding all nine variants; its scans, left to right, are
    /// a, b, c, d.
    fn every_variant() -> LogicalPlan {
        let key = |col: &str| LSortKey {
            col: col.into(),
            desc: false,
        };
        let window = LogicalPlan::Window {
            input: Box::new(LogicalPlan::scan("b").limit(5)),
            partition_by: vec![],
            order_by: vec![key("k")],
            func: LWindowFunc::RowNumber,
            name: "rn".into(),
        };
        let joined = LogicalPlan::scan("a")
            .filter(LPred::eq("k", Value::Int(1)))
            .join(window, &["k"], &["k"])
            .project(vec![LNamed::new("k", LExpr::col("k"))]);
        let grouped = LogicalPlan::scan("c")
            .aggregate(vec![LNamed::new("k", LExpr::col("k"))], vec![])
            .sort(vec![key("k")]);
        LogicalPlan::SetOp {
            left: Box::new(LogicalPlan::SetOp {
                left: Box::new(joined),
                right: Box::new(grouped),
                op: rapid_qef::plan::SetOpKind::Union,
            }),
            right: Box::new(LogicalPlan::scan("d")),
            op: rapid_qef::plan::SetOpKind::Minus,
        }
    }

    fn scans(plan: &LogicalPlan, out: &mut Vec<String>) {
        if let LogicalPlan::Scan { table, .. } = plan {
            out.push(table.clone());
        }
        plan.inputs().for_each(|child| scans(child, out));
    }

    #[test]
    fn inputs_visit_every_child_of_every_variant() {
        let mut plan = every_variant();
        let mut nodes = 0;
        let mut variants = std::collections::HashSet::new();
        fn count(
            plan: &LogicalPlan,
            nodes: &mut usize,
            variants: &mut std::collections::HashSet<std::mem::Discriminant<LogicalPlan>>,
        ) {
            *nodes += 1;
            variants.insert(std::mem::discriminant(plan));
            plan.inputs()
                .for_each(|child| count(child, nodes, variants));
        }
        count(&plan, &mut nodes, &mut variants);
        assert_eq!(variants.len(), 9, "the plan holds every variant");
        assert_eq!(nodes, 13);
        let mut found = Vec::new();
        scans(&plan, &mut found);
        assert_eq!(found, ["a", "b", "c", "d"], "children come left to right");

        // The mutable walk reaches the same nodes.
        fn rename(plan: &mut LogicalPlan) {
            if let LogicalPlan::Scan { table, .. } = plan {
                table.push('2');
            }
            plan.inputs_mut().for_each(rename);
        }
        rename(&mut plan);
        let mut found = Vec::new();
        scans(&plan, &mut found);
        assert_eq!(found, ["a2", "b2", "c2", "d2"]);
    }

    #[test]
    fn serde_roundtrip() {
        let plan = LogicalPlan::scan("t").filter(LPred::And(vec![
            LPred::eq("a", Value::Int(1)),
            LPred::LikePrefix {
                col: "s".into(),
                prefix: "gr".into(),
            },
        ]));
        let json = serde_json::to_string(&plan).unwrap();
        assert_eq!(serde_json::from_str::<LogicalPlan>(&json).unwrap(), plan);
    }

    /// `t(k INT, price DECIMAL, flag VARCHAR, d DATE)` and
    /// `u(k INT, w INT, tag VARCHAR)`: `k` is on both. `t`'s one row stores
    /// k and flag in 1 byte, d in 2 and price in 4 — declared, k and price
    /// are the widest — so `k` is the first of its narrowest columns.
    fn catalog() -> Catalog {
        use rapid_storage::schema::{Field, Schema};
        use rapid_storage::types::DataType;
        let table = |name: &str, fields: Vec<Field>, rows: Vec<Vec<Value>>| {
            let mut b = rapid_storage::table::TableBuilder::new(name, Schema::new(fields));
            b.extend_rows(rows);
            (name.to_string(), std::sync::Arc::new(b.finish()))
        };
        Catalog::from([
            table(
                "t",
                vec![
                    Field::new("k", DataType::Int),
                    Field::new("price", DataType::Decimal { scale: 2 }),
                    Field::new("flag", DataType::Varchar),
                    Field::new("d", DataType::Date),
                ],
                vec![vec![
                    Value::Int(1),
                    Value::Decimal {
                        unscaled: 100_000_000,
                        scale: 2,
                    },
                    Value::Str("A".into()),
                    Value::Date(20_000),
                ]],
            ),
            table(
                "u",
                vec![
                    Field::new("k", DataType::Int),
                    Field::new("w", DataType::Int),
                    Field::new("tag", DataType::Varchar),
                ],
                vec![],
            ),
        ])
    }

    /// The projection of every scan, left to right, after the pass
    /// (`None` = the whole table).
    fn pruned(mut plan: LogicalPlan) -> Vec<Option<Vec<String>>> {
        fn walk(plan: &LogicalPlan, out: &mut Vec<Option<Vec<String>>>) {
            if let LogicalPlan::Scan { projection, .. } = plan {
                out.push(projection.clone());
            }
            plan.inputs().for_each(|child| walk(child, out));
        }
        plan.prune_columns(&catalog());
        let mut out = Vec::new();
        walk(&plan, &mut out);
        out
    }

    fn cols(names: &[&str]) -> Option<Vec<String>> {
        Some(names.iter().map(|n| n.to_string()).collect())
    }

    fn pick(names: &[&str]) -> Vec<LNamed> {
        names
            .iter()
            .map(|n| LNamed::new(n, LExpr::col(n)))
            .collect()
    }

    fn key(col: &str) -> LSortKey {
        LSortKey {
            col: col.into(),
            desc: false,
        }
    }

    fn count_star() -> LAgg {
        LAgg {
            func: AggFunc::Count,
            input: LExpr::int(1),
            name: "n".into(),
        }
    }

    fn join_as(left: LogicalPlan, right: LogicalPlan, join_type: JoinType) -> LogicalPlan {
        let LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } = left.join(right, &["k"], &["k"])
        else {
            unreachable!()
        };
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        }
    }

    #[test]
    fn the_root_reads_every_column() {
        assert_eq!(pruned(LogicalPlan::scan("t")), [None]);
        // Filter, Sort and Limit hand "everything" on.
        let plan = LogicalPlan::scan("t")
            .filter(LPred::eq("k", Value::Int(1)))
            .sort(vec![key("d")])
            .limit(3);
        assert_eq!(pruned(plan), [None]);
    }

    #[test]
    fn project_needs_what_its_expressions_name() {
        let case = LExpr::Case {
            pred: Box::new(LPred::LikePrefix {
                col: "flag".into(),
                prefix: "A".into(),
            }),
            then: Box::new(LExpr::Year(Box::new(LExpr::col("d")))),
            els: Box::new(LExpr::int(0)),
        };
        let plan = LogicalPlan::scan("t").project(vec![
            LNamed::new("y", case),
            LNamed::new(
                "twice",
                LExpr::bin(ArithOp::Add, LExpr::col("k"), LExpr::col("k")),
            ),
        ]);
        // Table order, whatever order the expressions name them in.
        assert_eq!(pruned(plan), [cols(&["k", "flag", "d"])]);
        // Every column in another order is still the whole table.
        let plan = LogicalPlan::scan("t").project(pick(&["d", "flag", "price", "k"]));
        assert_eq!(pruned(plan), [None]);
    }

    #[test]
    fn filter_sort_and_limit_add_their_columns_to_the_parents() {
        let plan = LogicalPlan::scan("t")
            .filter(LPred::Between {
                col: "price".into(),
                lo: Value::Int(1),
                hi: Value::Int(2),
            })
            .sort(vec![key("d")])
            .limit(5)
            .project(pick(&["k"]));
        assert_eq!(pruned(plan), [cols(&["k", "price", "d"])]);
    }

    #[test]
    fn aggregate_needs_its_keys_and_inputs() {
        let sum = LAgg {
            func: AggFunc::Sum,
            input: LExpr::col("price"),
            name: "total".into(),
        };
        let plan = LogicalPlan::scan("t").aggregate(pick(&["flag"]), vec![sum]);
        assert_eq!(pruned(plan), [cols(&["price", "flag"])]);
        // The parent's names (here the aggregate's own outputs) stop at it.
        let plan = LogicalPlan::scan("t")
            .aggregate(pick(&["flag"]), vec![count_star()])
            .sort(vec![key("n")]);
        assert_eq!(pruned(plan), [cols(&["flag"])]);
    }

    #[test]
    fn count_star_alone_moves_the_first_column_stored_narrowest() {
        // `k` is declared 8 bytes and stored in 1.
        let plan = LogicalPlan::scan("t").aggregate(vec![], vec![count_star()]);
        assert_eq!(pruned(plan), [cols(&["k"])]);
        // The scan predicate streams `price` by table index regardless.
        let plan = LogicalPlan::scan_where("t", LPred::eq("price", Value::Int(1)))
            .aggregate(vec![], vec![count_star()]);
        assert_eq!(pruned(plan), [cols(&["k"])]);
    }

    #[test]
    fn a_join_side_nobody_reads_contributes_only_its_key() {
        let plan = LogicalPlan::scan("t")
            .join(LogicalPlan::scan("u"), &["d"], &["w"])
            .project(pick(&["price"]));
        assert_eq!(pruned(plan), [cols(&["price", "d"]), cols(&["w"])]);
    }

    #[test]
    fn a_name_on_both_join_sides_is_kept_on_both() {
        // `k` resolves to t's column; dropping it there would silently
        // re-resolve it to u's.
        let plan = LogicalPlan::scan("t")
            .join(LogicalPlan::scan("u"), &["d"], &["w"])
            .project(pick(&["k"]));
        assert_eq!(pruned(plan), [cols(&["k", "d"]), cols(&["k", "w"])]);
    }

    #[test]
    fn semi_and_anti_joins_need_only_keys_from_the_right() {
        for join_type in [JoinType::LeftSemi, JoinType::LeftAnti] {
            let joined = join_as(LogicalPlan::scan("t"), LogicalPlan::scan("u"), join_type);
            // Even when the parent reads everything the join emits.
            assert_eq!(pruned(joined.clone()), [None, cols(&["k"])]);
            let plan = joined.project(pick(&["flag"]));
            assert_eq!(pruned(plan), [cols(&["k", "flag"]), cols(&["k"])]);
        }
        let outer = join_as(
            LogicalPlan::scan("t"),
            LogicalPlan::scan("u"),
            JoinType::LeftOuter,
        );
        assert_eq!(pruned(outer.clone()), [None, None]);
        let plan = outer.project(pick(&["flag", "tag"]));
        assert_eq!(pruned(plan), [cols(&["k", "flag"]), cols(&["k", "tag"])]);
    }

    #[test]
    fn a_window_adds_its_columns_and_keeps_a_name_it_shadows() {
        let window = |func, name: &str| LogicalPlan::Window {
            input: Box::new(LogicalPlan::scan("t")),
            partition_by: vec!["flag".into()],
            order_by: vec![key("d")],
            func,
            name: name.into(),
        };
        let plan =
            window(LWindowFunc::RunningSum { col: "k".into() }, "run").project(pick(&["run"]));
        assert_eq!(pruned(plan), [cols(&["k", "flag", "d"])]);
        // A window column called `price` comes after t's `price`, which the
        // name therefore still resolves to: t's column has to stay.
        let plan = window(LWindowFunc::Rank, "price").project(pick(&["price"]));
        assert_eq!(pruned(plan), [cols(&["price", "flag", "d"])]);
    }

    #[test]
    fn set_operations_keep_everything_below_them() {
        let plan = LogicalPlan::SetOp {
            left: Box::new(LogicalPlan::scan("t").filter(LPred::eq("k", Value::Int(1)))),
            right: Box::new(LogicalPlan::scan("t")),
            op: rapid_qef::plan::SetOpKind::Union,
        }
        .project(pick(&["k"]));
        assert_eq!(pruned(plan), [None, None]);
    }

    #[test]
    fn a_given_projection_is_narrowed_and_never_reordered() {
        let given = |names: &[&str]| LogicalPlan::Scan {
            table: "t".into(),
            pred: None,
            projection: cols(names),
        };
        let plan = given(&["d", "k", "price"]).project(pick(&["price", "d"]));
        assert_eq!(pruned(plan), [cols(&["d", "price"])]);
        // A needed column the projection left out is not added back (the
        // statement is wrong as written; lowering says so).
        let plan = given(&["d", "k"]).project(pick(&["price", "d"]));
        assert_eq!(pruned(plan), [cols(&["d"])]);
        // Nothing needed: the first column of those given stored narrowest
        // (`d` and `flag` are both declared 4 bytes; `flag` stores 1).
        let plan = given(&["price", "d", "flag"]).aggregate(vec![], vec![count_star()]);
        assert_eq!(pruned(plan), [cols(&["flag"])]);
        // At the root it is left as given.
        assert_eq!(pruned(given(&["d", "k"])), [cols(&["d", "k"])]);
    }

    #[test]
    fn unknown_tables_and_columns_are_left_for_lowering_to_report() {
        let plan = LogicalPlan::scan("nosuch").project(pick(&["k"]));
        assert_eq!(pruned(plan), [None]);
        let plan = LogicalPlan::Scan {
            table: "t".into(),
            pred: None,
            projection: cols(&["k", "nosuch"]),
        }
        .aggregate(vec![], vec![count_star()]);
        assert_eq!(pruned(plan), [cols(&["k", "nosuch"])]);
    }
}
