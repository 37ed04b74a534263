//! Vectorized scalar expressions and predicates over batches.
//!
//! Expressions operate in the widened `i64` physical domain (DSB mantissas,
//! dictionary codes, epoch days); the compiler is responsible for scale
//! bookkeeping and for encoding literals into that domain. Evaluation is
//! vectorized: each node produces a whole [`Vector`] per tile by calling
//! the primitive library, so per-row interpretive overhead never appears
//! in the hot path (the property Figure 13 measures).
//!
//! Both trees evaluate over a borrowed column slice plus a row count — a
//! batch's columns or a chunk's vectors, read in place. Columns an
//! expression does not reference are never touched, so a caller may pass
//! zero-length placeholders at those positions.

use dpu_sim::account::Kernel;
use std::borrow::Cow;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use rapid_storage::bitvec::BitVec;
use rapid_storage::vector::{ColumnData, Vector};

use crate::error::{QefError, QefResult};
use crate::exec::CoreCtx;
use crate::primitives::arith::{self, ArithOp};
use crate::primitives::filter::{self, CmpOp};

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Input column by position.
    Col(usize),
    /// Literal in the widened physical domain.
    Lit(i64),
    /// Binary arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        a: Box<Expr>,
        /// Right operand.
        b: Box<Expr>,
    },
    /// Calendar year of an epoch-days value (Q9's `EXTRACT(YEAR …)`).
    YearOf(Box<Expr>),
    /// `CASE WHEN pred THEN a ELSE b END` (Q12/Q14's conditional sums).
    Case {
        /// Condition.
        pred: Box<Pred>,
        /// Value when the condition holds.
        then: Box<Expr>,
        /// Value otherwise.
        els: Box<Expr>,
    },
}

/// Column `i` of a borrowed column slice.
fn column(cols: &[Vector], i: usize) -> QefResult<&Vector> {
    cols.get(i).ok_or(QefError::BadColumn {
        index: i,
        available: cols.len(),
    })
}

impl Expr {
    /// Evaluate over `rows` rows of `cols`, producing one value per row. A
    /// bare column reference is handed back borrowed.
    pub fn eval<'a>(
        &self,
        ctx: &mut CoreCtx,
        cols: &'a [Vector],
        rows: usize,
    ) -> QefResult<Cow<'a, Vector>> {
        self.eval_sharing(ctx, cols, rows, &|_| None)
    }

    /// [`eval`](Self::eval), where a computed subtree that `done` holds a
    /// value for — an expression evaluated before over the same rows — is
    /// read from there, borrowed, and neither computed nor charged again.
    pub fn eval_sharing<'a>(
        &self,
        ctx: &mut CoreCtx,
        cols: &'a [Vector],
        rows: usize,
        done: &dyn Fn(&Expr) -> Option<&'a Vector>,
    ) -> QefResult<Cow<'a, Vector>> {
        let operand = |e: &Expr, ctx: &mut CoreCtx| match e {
            Expr::Col(_) | Expr::Lit(_) => e.eval_sharing(ctx, cols, rows, done),
            _ => match done(e) {
                Some(v) => Ok(Cow::Borrowed(v)),
                None => e.eval_sharing(ctx, cols, rows, done),
            },
        };
        Ok(Cow::Owned(match self {
            Expr::Col(i) => return column(cols, *i).map(Cow::Borrowed),
            Expr::Lit(v) => Vector::new(ColumnData::I64(vec![*v; rows])),
            Expr::Arith { op, a, b } => {
                // Constant-on-one-side goes through the cheaper map kernel.
                match (a.as_ref(), b.as_ref()) {
                    (expr, Expr::Lit(c)) => {
                        let av = operand(expr, ctx)?;
                        arith::arith_const(ctx, &av, *op, *c)?
                    }
                    (Expr::Lit(c), expr) if matches!(op, ArithOp::Add | ArithOp::Mul) => {
                        let bv = operand(expr, ctx)?;
                        arith::arith_const(ctx, &bv, *op, *c)?
                    }
                    (Expr::Lit(c), expr) => {
                        let bv = operand(expr, ctx)?;
                        arith::const_arith(ctx, *c, *op, &bv)?
                    }
                    _ => {
                        let av = operand(a, ctx)?;
                        let bv = operand(b, ctx)?;
                        arith::arith_col(ctx, &av, *op, &bv)?
                    }
                }
            }
            Expr::YearOf(e) => {
                let v = operand(e, ctx)?;
                arith::year_from_days(ctx, &v)
            }
            Expr::Case { pred, then, els } => {
                let mask = pred.eval(ctx, cols, rows)?;
                let t = operand(then, ctx)?;
                let e = operand(els, ctx)?;
                let mut out = Vec::with_capacity(rows);
                let mut nulls = BitVec::zeros(rows);
                let mut has_null = false;
                for i in 0..rows {
                    let src = if mask.get(i) { &t } else { &e };
                    match src.get(i) {
                        Some(v) => out.push(v),
                        None => {
                            out.push(0);
                            nulls.set(i, true);
                            has_null = true;
                        }
                    }
                }
                // Select loop: load mask + two candidate loads + store.
                let k = dpu_sim::isa::KernelCost {
                    alu: 1.0,
                    lsu: 3.0,
                    dual_issue_frac: 0.5,
                    branches: 1.0 / 8.0,
                    ..Default::default()
                };
                ctx.charge_kernel(Kernel::Other, &k.scaled(rows as f64));
                if has_null {
                    Vector::with_nulls(ColumnData::I64(out), nulls)
                } else {
                    Vector::new(ColumnData::I64(out))
                }
            }
        }))
    }

    /// Convenience constructors.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Add,
            a: Box::new(a),
            b: Box::new(b),
        }
    }

    /// `a - b`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Sub,
            a: Box::new(a),
            b: Box::new(b),
        }
    }

    /// `a * b`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Mul,
            a: Box::new(a),
            b: Box::new(b),
        }
    }

    /// Whether `sub` is a proper subtree of this expression.
    pub fn contains(&self, sub: &Expr) -> bool {
        let inside = |e: &Expr| e == sub || e.contains(sub);
        match self {
            Expr::Col(_) | Expr::Lit(_) => false,
            Expr::Arith { a, b, .. } => inside(a) || inside(b),
            Expr::YearOf(e) => inside(e),
            Expr::Case { then, els, .. } => inside(then) || inside(els),
        }
    }

    /// Column indices referenced by the expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        self.for_each_column(&mut |c| out.push(c));
    }

    /// Whether the expression reads column `c`.
    pub fn reads_column(&self, c: usize) -> bool {
        let mut reads = false;
        self.for_each_column(&mut |r| reads |= r == c);
        reads
    }

    /// Call `f` with every column index the expression references.
    fn for_each_column(&self, f: &mut dyn FnMut(usize)) {
        match self {
            Expr::Col(i) => f(*i),
            Expr::Lit(_) => {}
            Expr::Arith { a, b, .. } => {
                a.for_each_column(f);
                b.for_each_column(f);
            }
            Expr::YearOf(e) => e.for_each_column(f),
            Expr::Case { pred, then, els } => {
                pred.for_each_column(f);
                then.for_each_column(f);
                els.for_each_column(f);
            }
        }
    }
}

/// A boolean predicate tree, evaluated to a qualifying bit-vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Pred {
    /// `col <op> literal` — the fast path the filter operator reorders.
    CmpConst {
        /// Column position.
        col: usize,
        /// Operator.
        op: CmpOp,
        /// Literal in the widened physical domain.
        value: i64,
    },
    /// `left-col <op> right-col`.
    CmpCols {
        /// Left column position.
        left: usize,
        /// Operator.
        op: CmpOp,
        /// Right column position.
        right: usize,
    },
    /// `expr <op> expr` (general case).
    CmpExpr {
        /// Left expression.
        left: Box<Expr>,
        /// Operator.
        op: CmpOp,
        /// Right expression.
        right: Box<Expr>,
    },
    /// `col BETWEEN lo AND hi` (inclusive).
    Between {
        /// Column position.
        col: usize,
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
    /// `col IN (...)` compiled to a dictionary-code bitmap.
    InCodes {
        /// Column position (dictionary codes).
        col: usize,
        /// Qualifying-code bitmap.
        codes: BitVec,
    },
    /// `col IN (...)` over a small sorted literal list.
    InList {
        /// Column position.
        col: usize,
        /// Sorted literal values.
        values: Vec<i64>,
    },
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// `col IS NOT NULL` — also what `col <> lit` compiles to when `lit`
    /// cannot equal any stored value (absent dictionary entry,
    /// unrepresentable decimal): every non-null row qualifies, but NULL
    /// rows must still be excluded per SQL comparison semantics.
    NotNull {
        /// Column position.
        col: usize,
    },
    /// Constant truth (placeholder for always-true residuals).
    Const(bool),
}

impl Pred {
    /// Evaluate to a bit-vector over `rows` rows of `cols`.
    pub fn eval(&self, ctx: &mut CoreCtx, cols: &[Vector], rows: usize) -> QefResult<BitVec> {
        self.eval_rows(ctx, cols, 0..rows)
    }

    /// Append to `out` the id `base + i` of every row `rows.start + i` of
    /// `rows` the predicate keeps, ascending: [`eval_rows`](Self::eval_rows)
    /// without the bit-vector where the predicate compares a column with
    /// constants or with another column, charged the same.
    pub fn select_rows(
        &self,
        ctx: &mut CoreCtx,
        cols: &[Vector],
        rows: Range<usize>,
        base: u32,
        out: &mut Vec<u32>,
    ) -> QefResult<()> {
        let n = rows.len() as f64;
        // Counted before they are written: `out` grows once, by what is kept.
        let mut keep = |kept: &dyn Fn(usize) -> bool| {
            let ids = || rows.clone().zip(base..).filter(|(row, _)| kept(*row));
            out.reserve(ids().count());
            out.extend(ids().map(|(_, id)| id));
        };
        let per_row = crate::primitives::costs::filter_per_row();
        // A probe or a second operand is one more load than the compare.
        let two_loads = {
            let mut k = per_row;
            k.lsu += 1.0;
            k
        };
        match self {
            Pred::CmpConst { col, op, value } => {
                let c = column(cols, *col)?;
                keep(&|r| !c.is_null(r) && op.apply(c.data.get_i64(r), *value));
                ctx.charge_kernel(Kernel::Predicate, &per_row.scaled(n));
            }
            Pred::Between { col, lo, hi } => {
                let c = column(cols, *col)?;
                keep(&|r| !c.is_null(r) && (*lo..=*hi).contains(&c.data.get_i64(r)));
                ctx.charge_kernel(Kernel::Predicate, &per_row.scaled(n));
                ctx.charge_kernel(Kernel::Predicate, &per_row.scaled(n));
            }
            Pred::InCodes { col, codes } => {
                let c = column(cols, *col)?;
                let member = |v: i64| v >= 0 && (v as usize) < codes.len() && codes.get(v as usize);
                keep(&|r| !c.is_null(r) && member(c.data.get_i64(r)));
                ctx.charge_kernel(Kernel::Predicate, &two_loads.scaled(n));
            }
            Pred::CmpCols { left, op, right } => {
                let (a, b) = (column(cols, *left)?, column(cols, *right)?);
                keep(&|r| {
                    !a.is_null(r) && !b.is_null(r) && op.apply(a.data.get_i64(r), b.data.get_i64(r))
                });
                ctx.charge_kernel(Kernel::Predicate, &two_loads.scaled(n));
            }
            _ => {
                let verdict = self.eval_rows(ctx, cols, rows.clone())?;
                out.reserve(verdict.count_ones());
                out.extend(verdict.iter_ones().map(|i| base + i as u32));
            }
        }
        Ok(())
    }

    /// Evaluate over rows `rows` of `cols`: bit `i` of the result is row
    /// `rows.start + i`. A comparison of a column with constants or with
    /// another column reads the rows where they lie; any other predicate
    /// over a part of its columns is evaluated over a copy of that part of
    /// the columns it names.
    pub fn eval_rows(
        &self,
        ctx: &mut CoreCtx,
        cols: &[Vector],
        rows: Range<usize>,
    ) -> QefResult<BitVec> {
        match self {
            Pred::CmpConst { col, op, value } => {
                let col = column(cols, *col)?;
                return Ok(filter::cmp_const_bv(ctx, col, rows, *op, *value));
            }
            Pred::CmpCols { left, op, right } => {
                let (left, right) = (column(cols, *left)?, column(cols, *right)?);
                return Ok(filter::cmp_col_bv(ctx, left, rows, *op, right));
            }
            Pred::Between { col, lo, hi } => {
                return Ok(filter::between_bv(ctx, column(cols, *col)?, rows, *lo, *hi));
            }
            Pred::InCodes { col, codes } => {
                return Ok(filter::in_code_set_bv(
                    ctx,
                    column(cols, *col)?,
                    rows,
                    codes,
                ));
            }
            _ => {}
        }
        let mut named = Vec::new();
        self.referenced_columns(&mut named);
        let whole = |&c: &usize| cols.get(c).is_none_or(|v| v.len() == rows.len());
        if rows.start > 0 || !named.iter().all(whole) {
            let mut part: Vec<Vector> = (0..cols.len())
                .map(|_| Vector::new(ColumnData::I8(Vec::new())))
                .collect();
            for &c in &named {
                part[c] = column(cols, c)?.slice(rows.start, rows.end);
            }
            return self.eval_rows(ctx, &part, 0..rows.len());
        }
        let rows = rows.len();
        match self {
            Pred::CmpConst { .. }
            | Pred::CmpCols { .. }
            | Pred::Between { .. }
            | Pred::InCodes { .. } => unreachable!("evaluated where the rows lie"),
            Pred::CmpExpr { left, op, right } => {
                let l = left.eval(ctx, cols, rows)?;
                let r = right.eval(ctx, cols, rows)?;
                Ok(filter::cmp_col_bv(ctx, &l, 0..rows, *op, &r))
            }
            Pred::InList { col, values } => {
                let c = column(cols, *col)?;
                let mut out = BitVec::zeros(c.len());
                for i in 0..c.len() {
                    if !c.is_null(i) && values.binary_search(&c.data.get_i64(i)).is_ok() {
                        out.set(i, true);
                    }
                }
                let k = crate::primitives::costs::filter_per_row()
                    .scaled((c.len() * (values.len().max(2)).ilog2() as usize) as f64);
                ctx.charge_kernel(Kernel::Predicate, &k);
                Ok(out)
            }
            Pred::And(ps) => {
                let mut it = ps.iter();
                let Some(first) = it.next() else {
                    return Ok(BitVec::ones(rows));
                };
                let mut acc = first.eval(ctx, cols, rows)?;
                for p in it {
                    // Short-circuit: nothing qualifies, stop evaluating.
                    if acc.count_ones() == 0 {
                        break;
                    }
                    acc.and_with(&p.eval(ctx, cols, rows)?);
                }
                Ok(acc)
            }
            Pred::Or(ps) => {
                let mut acc = BitVec::zeros(rows);
                for p in ps {
                    acc.or_with(&p.eval(ctx, cols, rows)?);
                }
                Ok(acc)
            }
            Pred::Not(p) => {
                let mut bv = p.eval(ctx, cols, rows)?;
                bv.negate();
                Ok(bv)
            }
            Pred::NotNull { col } => {
                let c = column(cols, *col)?;
                let mut out = BitVec::ones(c.len());
                if let Some(nulls) = &c.nulls {
                    let mut not_null = nulls.clone();
                    not_null.negate();
                    out.and_with(&not_null);
                }
                Ok(out)
            }
            Pred::Const(b) => Ok(if *b {
                BitVec::ones(rows)
            } else {
                BitVec::zeros(rows)
            }),
        }
    }

    /// Column indices referenced.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        self.for_each_column(&mut |c| out.push(c));
    }

    /// Whether the predicate reads column `c`.
    pub fn reads_column(&self, c: usize) -> bool {
        let mut reads = false;
        self.for_each_column(&mut |r| reads |= r == c);
        reads
    }

    /// Call `f` with every column index the predicate references.
    pub(crate) fn for_each_column(&self, f: &mut dyn FnMut(usize)) {
        match self {
            Pred::CmpConst { col, .. }
            | Pred::Between { col, .. }
            | Pred::InCodes { col, .. }
            | Pred::InList { col, .. }
            | Pred::NotNull { col } => f(*col),
            Pred::CmpCols { left, right, .. } => {
                f(*left);
                f(*right);
            }
            Pred::CmpExpr { left, right, .. } => {
                left.for_each_column(f);
                right.for_each_column(f);
            }
            Pred::And(ps) | Pred::Or(ps) => {
                for p in ps {
                    p.for_each_column(f);
                }
            }
            Pred::Not(p) => p.for_each_column(f),
            Pred::Const(_) => {}
        }
    }

    /// Split a top-level conjunction into its conjuncts (for the filter's
    /// most-selective-first reordering).
    pub fn conjuncts(self) -> Vec<Pred> {
        match self {
            Pred::And(ps) => ps.into_iter().flat_map(Pred::conjuncts).collect(),
            other => vec![other],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::exec::ExecContext;

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    fn batch() -> Batch {
        Batch::new(vec![
            Vector::new(ColumnData::I64(vec![1, 2, 3, 4])),
            Vector::new(ColumnData::I64(vec![10, 20, 30, 40])),
        ])
    }

    #[test]
    fn a_part_of_the_rows_selects_and_evaluates_as_the_whole_does_there() {
        // Two columns of every width with NULLs in both, and every kind of
        // predicate: the four that read rows where they lie, and others
        // that evaluate over a copy of the part.
        let n = 200usize;
        let nulls = |k: usize| BitVec::from_bools((0..n).map(|i| i % k == 0));
        let cols = [
            Vector::with_nulls(
                ColumnData::I16((0..n as i16).map(|i| i % 37).collect()),
                nulls(7),
            ),
            Vector::with_nulls(
                ColumnData::I8((0..n).map(|i| (i % 5) as i8).collect()),
                nulls(11),
            ),
            Vector::new(ColumnData::I64(
                (0..n as i64).map(|i| 36 - i % 37).collect(),
            )),
        ];
        let preds = [
            Pred::CmpConst {
                col: 0,
                op: CmpOp::Lt,
                value: 20,
            },
            Pred::CmpConst {
                col: 0,
                op: CmpOp::Ne,
                value: 100_000,
            },
            Pred::Between {
                col: 0,
                lo: 5,
                hi: 30,
            },
            Pred::InCodes {
                col: 1,
                codes: BitVec::from_bools([true, false, true]),
            },
            Pred::CmpCols {
                left: 0,
                op: CmpOp::Ge,
                right: 2,
            },
            Pred::InList {
                col: 0,
                values: vec![3, 9, 27],
            },
            Pred::Not(Box::new(Pred::NotNull { col: 1 })),
            Pred::Or(vec![
                Pred::CmpConst {
                    col: 0,
                    op: CmpOp::Eq,
                    value: 1,
                },
                Pred::CmpExpr {
                    left: Box::new(Expr::add(Expr::Col(0), Expr::Lit(1))),
                    op: CmpOp::Gt,
                    right: Box::new(Expr::Col(2)),
                },
            ]),
        ];
        let charged = |c: &CoreCtx| {
            let a = &c.account;
            (a.compute_cycles().get().to_bits(), *a.counters())
        };
        for pred in &preds {
            let mut whole_ctx = ctx();
            let whole = pred.eval(&mut whole_ctx, &cols, n).unwrap();
            for rows in [0..n, 0..64, 13..141, 199..200, 50..50] {
                let (mut bits_ctx, mut ids_ctx) = (ctx(), ctx());
                let bits = pred.eval_rows(&mut bits_ctx, &cols, rows.clone()).unwrap();
                let expect: Vec<bool> = rows.clone().map(|r| whole.get(r)).collect();
                assert_eq!(bits, BitVec::from_bools(expect), "{pred:?} over {rows:?}");
                let mut ids = vec![7];
                pred.select_rows(&mut ids_ctx, &cols, rows.clone(), 1000, &mut ids)
                    .unwrap();
                let expect: Vec<u32> = bits.iter_ones().map(|i| 1000 + i as u32).collect();
                assert_eq!(ids[1..], expect, "{pred:?} over {rows:?}");
                // Selecting is charged what evaluating is, and a part of
                // the rows its share of the whole.
                assert_eq!(
                    charged(&ids_ctx),
                    charged(&bits_ctx),
                    "{pred:?} over {rows:?}"
                );
                if rows.len() == n {
                    assert_eq!(charged(&bits_ctx), charged(&whole_ctx), "{pred:?}");
                }
            }
        }
    }

    #[test]
    fn arithmetic_tree() {
        let mut c = ctx();
        // (col0 + col1) * 2
        let e = Expr::mul(Expr::add(Expr::Col(0), Expr::Col(1)), Expr::Lit(2));
        let v = e.eval(&mut c, &batch().columns, 4).unwrap().into_owned();
        assert_eq!(v.data.to_i64_vec(), vec![22, 44, 66, 88]);
    }

    #[test]
    fn case_when() {
        let mut c = ctx();
        let e = Expr::Case {
            pred: Box::new(Pred::CmpConst {
                col: 0,
                op: CmpOp::Ge,
                value: 3,
            }),
            then: Box::new(Expr::Col(1)),
            els: Box::new(Expr::Lit(0)),
        };
        let v = e.eval(&mut c, &batch().columns, 4).unwrap().into_owned();
        assert_eq!(v.data.to_i64_vec(), vec![0, 0, 30, 40]);
    }

    #[test]
    fn not_null_pred_admits_exactly_the_non_null_rows() {
        use rapid_storage::bitvec::BitVec;
        let mut c = ctx();
        let mut nulls = BitVec::zeros(4);
        nulls.set(1, true);
        nulls.set(3, true);
        let b = Batch::new(vec![Vector::with_nulls(
            ColumnData::I64(vec![1, 0, 3, 0]),
            nulls,
        )]);
        // This is what `col <> lit` compiles to when `lit` cannot match
        // any stored value: all rows except NULLs.
        let bv = Pred::NotNull { col: 0 }
            .eval(&mut c, &b.columns, 4)
            .unwrap();
        assert!(bv.get(0) && bv.get(2));
        assert!(!bv.get(1) && !bv.get(3));
    }

    #[test]
    fn predicate_and_or_not() {
        let mut c = ctx();
        let p = Pred::And(vec![
            Pred::CmpConst {
                col: 0,
                op: CmpOp::Gt,
                value: 1,
            },
            Pred::Or(vec![
                Pred::CmpConst {
                    col: 1,
                    op: CmpOp::Eq,
                    value: 20,
                },
                Pred::CmpConst {
                    col: 1,
                    op: CmpOp::Eq,
                    value: 40,
                },
            ]),
        ]);
        let bv = p.eval(&mut c, &batch().columns, 4).unwrap();
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
        let inv = Pred::Not(Box::new(p))
            .eval(&mut c, &batch().columns, 4)
            .unwrap();
        assert_eq!(inv.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn in_list_uses_binary_search() {
        let mut c = ctx();
        let p = Pred::InList {
            col: 0,
            values: vec![2, 4],
        };
        let bv = p.eval(&mut c, &batch().columns, 4).unwrap();
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn empty_and_is_true() {
        let mut c = ctx();
        let bv = Pred::And(vec![]).eval(&mut c, &batch().columns, 4).unwrap();
        assert_eq!(bv.count_ones(), 4);
    }

    #[test]
    fn bad_column_is_an_error() {
        let mut c = ctx();
        let b = batch();
        let e = Expr::Col(9).eval(&mut c, &b.columns, 4);
        assert!(matches!(e, Err(QefError::BadColumn { index: 9, .. })));
    }

    #[test]
    fn referenced_columns_collected() {
        let e = Expr::mul(Expr::add(Expr::Col(0), Expr::Col(2)), Expr::Lit(1));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec![0, 2]);
        let p = Pred::CmpCols {
            left: 1,
            op: CmpOp::Lt,
            right: 3,
        };
        let mut cols = Vec::new();
        p.referenced_columns(&mut cols);
        assert_eq!(cols, vec![1, 3]);
    }

    #[test]
    fn conjunct_splitting_flattens() {
        let p = Pred::And(vec![
            Pred::Const(true),
            Pred::And(vec![Pred::Const(false), Pred::Const(true)]),
        ]);
        assert_eq!(p.conjuncts().len(), 3);
    }

    #[test]
    fn serde_roundtrip() {
        let p = Pred::And(vec![
            Pred::CmpConst {
                col: 0,
                op: CmpOp::Le,
                value: 7,
            },
            Pred::InList {
                col: 1,
                values: vec![1, 2],
            },
        ]);
        let json = serde_json::to_string(&p).unwrap();
        let back: Pred = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
