//! Logical plans: the input handed to QComp by the host database.
//!
//! Logical nodes reference columns **by name** and carry literals as
//! engine-level [`Value`]s; all physical decisions (encodings, scales,
//! build sides, schemes) happen during compilation. The host database's
//! logical optimizer has already fixed the join order — "the search space
//! is already narrowed down by the logical optimization as operators do
//! not need to be re-ordered" (§5.2).

use serde::{Deserialize, Serialize};

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
}
