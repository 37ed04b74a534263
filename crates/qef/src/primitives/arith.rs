//! Arithmetic map primitives over the widened `i64` compute domain.
//!
//! All numeric math in RAPID is integer math on DSB mantissas — the DPU has
//! no floating point (§2.1/§4.2). Scale bookkeeping happens at plan time
//! (the compiler assigns every expression an output scale); these kernels
//! just run the checked integer loops and charge the multiplier stalls.

use dpu_sim::account::Kernel;
use rapid_storage::bitvec::BitVec;
use rapid_storage::vector::{ColumnData, Vector};

use crate::error::{QefError, QefResult};
use crate::exec::CoreCtx;
use crate::primitives::costs;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (stalls the low-power multiplier).
    Mul,
    /// Integer division, rounded half away from zero (plans pre-scale the
    /// dividend to keep precision).
    Div,
}

/// `a / b` rounded half away from zero — standard SQL numeric rounding, so
/// negative dividends round symmetrically to positive ones. Widened through
/// i128 so `i64::MIN / -1` and the remainder comparison cannot overflow;
/// `None` when the rounded quotient leaves i64. The host engine's decimal
/// math (`hostdb::valmath`) uses this same function to stay bit-identical.
pub fn div_round_half_away(a: i64, b: i64) -> Option<i64> {
    let (a, b) = (a as i128, b as i128);
    let q = a / b;
    let r = a % b;
    let q = if 2 * r.abs() >= b.abs() {
        q + if (a < 0) != (b < 0) { -1 } else { 1 }
    } else {
        q
    };
    i64::try_from(q).ok()
}

fn apply(op: ArithOp, a: i64, b: i64) -> QefResult<i64> {
    let r = match op {
        ArithOp::Add => a.checked_add(b),
        ArithOp::Sub => a.checked_sub(b),
        ArithOp::Mul => a.checked_mul(b),
        ArithOp::Div => {
            if b == 0 {
                None
            } else {
                div_round_half_away(a, b)
            }
        }
    };
    r.ok_or_else(|| QefError::NumericOverflow(format!("{a} {op:?} {b}")))
}

fn charge(ctx: &mut CoreCtx, op: ArithOp, rows: usize) {
    let (kernel, k) = match op {
        ArithOp::Add => (Kernel::Add, costs::arith_per_row()),
        ArithOp::Sub => (Kernel::Sub, costs::arith_per_row()),
        ArithOp::Mul => (Kernel::Mul, costs::mul_per_row()),
        ArithOp::Div => (Kernel::Div, costs::mul_per_row()),
    };
    ctx.charge_kernel(kernel, &k.scaled(rows as f64));
}

/// `out[i] = col[i] op const`, null-propagating.
pub fn arith_const(ctx: &mut CoreCtx, col: &Vector, op: ArithOp, cval: i64) -> QefResult<Vector> {
    map_values(ctx, col, op, |v| apply(op, v, cval))
}

/// `out[i] = const op col[i]`, null-propagating: a literal on the left of an
/// operator that does not commute (`100 - l_discount`). Charged what
/// [`arith_col`] charges, with no vector of the literal built for it.
pub fn const_arith(ctx: &mut CoreCtx, cval: i64, op: ArithOp, col: &Vector) -> QefResult<Vector> {
    map_values(ctx, col, op, |v| apply(op, cval, v))
}

/// `out[i] = f(col[i])` for an `op` loop over one column, null-propagating.
fn map_values(
    ctx: &mut CoreCtx,
    col: &Vector,
    op: ArithOp,
    f: impl Fn(i64) -> QefResult<i64>,
) -> QefResult<Vector> {
    let n = col.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if col.is_null(i) {
            out.push(0);
        } else {
            out.push(f(col.data.get_i64(i))?);
        }
    }
    charge(ctx, op, n);
    Ok(match &col.nulls {
        Some(nulls) => Vector::with_nulls(ColumnData::I64(out), nulls.clone()),
        None => Vector::new(ColumnData::I64(out)),
    })
}

/// `out[i] = a[i] op b[i]`, null-propagating.
pub fn arith_col(ctx: &mut CoreCtx, a: &Vector, op: ArithOp, b: &Vector) -> QefResult<Vector> {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut out = Vec::with_capacity(n);
    let mut nulls = if a.has_nulls() || b.has_nulls() {
        Some(BitVec::zeros(n))
    } else {
        None
    };
    for i in 0..n {
        if a.is_null(i) || b.is_null(i) {
            out.push(0);
            if let Some(nl) = &mut nulls {
                nl.set(i, true);
            }
        } else {
            out.push(apply(op, a.data.get_i64(i), b.data.get_i64(i))?);
        }
    }
    charge(ctx, op, n);
    Ok(match nulls {
        Some(nl) => Vector::with_nulls(ColumnData::I64(out), nl),
        None => Vector::new(ColumnData::I64(out)),
    })
}

/// Extract the calendar year from an epoch-days column (`EXTRACT(YEAR …)`
/// in Q9) — pure integer math via the civil-calendar conversion.
pub fn year_from_days(ctx: &mut CoreCtx, col: &Vector) -> Vector {
    let n = col.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if col.is_null(i) {
            out.push(0);
        } else {
            let (y, _, _) = rapid_storage::types::civil_from_days(col.data.get_i64(i) as i32);
            out.push(y as i64);
        }
    }
    // Several shifts/divides per row, no multiplier stall (divide by
    // constants strength-reduces on the dpCore toolchain).
    let k = dpu_sim::isa::KernelCost {
        alu: 8.0,
        lsu: 2.0,
        dual_issue_frac: 0.25,
        branches: 1.0,
        mispredicts: 0.02,
        mul: 0.0,
    };
    ctx.charge_kernel(Kernel::Other, &k.scaled(n as f64));
    match &col.nulls {
        Some(nulls) => Vector::with_nulls(ColumnData::I64(out), nulls.clone()),
        None => Vector::new(ColumnData::I64(out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    #[test]
    fn const_arith() {
        let mut c = ctx();
        let col = Vector::new(ColumnData::I64(vec![10, 20, 30]));
        assert_eq!(
            arith_const(&mut c, &col, ArithOp::Add, 5)
                .unwrap()
                .data
                .to_i64_vec(),
            vec![15, 25, 35]
        );
        assert_eq!(
            arith_const(&mut c, &col, ArithOp::Mul, -2)
                .unwrap()
                .data
                .to_i64_vec(),
            vec![-20, -40, -60]
        );
        assert_eq!(
            arith_const(&mut c, &col, ArithOp::Div, 10)
                .unwrap()
                .data
                .to_i64_vec(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn col_arith_with_nulls() {
        let mut c = ctx();
        let mut nulls = BitVec::zeros(3);
        nulls.set(1, true);
        let a = Vector::with_nulls(ColumnData::I64(vec![1, 2, 3]), nulls);
        let b = Vector::new(ColumnData::I64(vec![10, 20, 30]));
        let r = arith_col(&mut c, &a, ArithOp::Add, &b).unwrap();
        assert_eq!(r.get(0), Some(11));
        assert_eq!(r.get(1), None, "null propagates");
        assert_eq!(r.get(2), Some(33));
    }

    #[test]
    fn a_literal_on_the_left_is_charged_what_a_column_of_it_was() {
        let nulls = BitVec::from_bools((0..40).map(|i| i % 6 == 0));
        let col = Vector::with_nulls(
            ColumnData::I16((1..=40).map(|i| i * 3 - 61).collect()),
            nulls,
        );
        let lit = Vector::new(ColumnData::I64(vec![100; 40]));
        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div] {
            let (mut by_col, mut by_lit) = (ctx(), ctx());
            let expect = arith_col(&mut by_col, &lit, op, &col).unwrap();
            let got = super::const_arith(&mut by_lit, 100, op, &col).unwrap();
            assert_eq!(
                (0..40).map(|i| got.get(i)).collect::<Vec<_>>(),
                (0..40).map(|i| expect.get(i)).collect::<Vec<_>>(),
                "{op:?}"
            );
            let charged = |c: &CoreCtx| {
                let a = &c.account;
                (a.compute_cycles().get().to_bits(), *a.counters(), c.kernels)
            };
            assert_eq!(charged(&by_lit), charged(&by_col), "{op:?}");
        }
        // The overflow names the operands in the order they were written.
        let one = Vector::new(ColumnData::I64(vec![1]));
        let err = super::const_arith(&mut ctx(), i64::MIN, ArithOp::Sub, &one).unwrap_err();
        assert_eq!(
            err,
            QefError::NumericOverflow(format!("{} Sub 1", i64::MIN))
        );
    }

    #[test]
    fn overflow_is_an_error() {
        let mut c = ctx();
        let col = Vector::new(ColumnData::I64(vec![i64::MAX]));
        assert!(matches!(
            arith_const(&mut c, &col, ArithOp::Add, 1),
            Err(QefError::NumericOverflow(_))
        ));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let mut c = ctx();
        let col = Vector::new(ColumnData::I64(vec![5]));
        assert!(arith_const(&mut c, &col, ArithOp::Div, 0).is_err());
    }

    #[test]
    fn div_rounds_half_away_from_zero() {
        let mut c = ctx();
        let col = Vector::new(ColumnData::I64(vec![7, -7, 5, -5, 6, -6]));
        assert_eq!(
            arith_const(&mut c, &col, ArithOp::Div, 2)
                .unwrap()
                .data
                .to_i64_vec(),
            vec![4, -4, 3, -3, 3, -3],
            "ties round away from zero, symmetrically for negatives"
        );
        assert_eq!(
            arith_const(&mut c, &col, ArithOp::Div, -2)
                .unwrap()
                .data
                .to_i64_vec(),
            vec![-4, 4, -3, 3, -3, 3]
        );
        // i64::MIN / -1 leaves i64 after widening: an overflow error, not
        // a panic.
        let edge = Vector::new(ColumnData::I64(vec![i64::MIN]));
        assert!(matches!(
            arith_const(&mut c, &edge, ArithOp::Div, -1),
            Err(QefError::NumericOverflow(_))
        ));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]
        #[test]
        fn div_matches_i128_oracle(
            a in -1_000_000_000_000i64..1_000_000_000_000,
            b in 1i64..1_000_000,
            bneg in 0i32..2,
        ) {
            // Independent formulation: round-half-up on magnitudes, sign
            // reattached — equals round-half-away-from-zero.
            let b = if bneg == 1 { -b } else { b };
            let (aa, bb) = ((a as i128).abs(), (b as i128).abs());
            let sign = if (a < 0) != (b < 0) { -1i128 } else { 1 };
            let expect = sign * ((2 * aa + bb) / (2 * bb));
            assert_eq!(div_round_half_away(a, b), Some(expect as i64));
        }
    }

    #[test]
    fn dsb_semantics_example() {
        // sum(l_quantity * 0.5): quantity at scale 2 (mantissa 450 = 4.50),
        // 0.5 at scale 1 (mantissa 5) -> product at scale 3 (2250 = 2.250).
        let mut c = ctx();
        let qty = Vector::new(ColumnData::I64(vec![450]));
        let r = arith_const(&mut c, &qty, ArithOp::Mul, 5).unwrap();
        assert_eq!(r.data.get_i64(0), 2250);
    }

    #[test]
    fn year_extraction() {
        use rapid_storage::types::days_from_civil;
        let mut c = ctx();
        let col = Vector::new(ColumnData::I32(vec![
            days_from_civil(1995, 1, 1),
            days_from_civil(1998, 12, 31),
            days_from_civil(1970, 6, 15),
        ]));
        let y = year_from_days(&mut c, &col);
        assert_eq!(y.data.to_i64_vec(), vec![1995, 1998, 1970]);
    }

    #[test]
    fn multiplies_stall_more_than_adds() {
        let ctx_e = ExecContext::dpu();
        let col = Vector::new(ColumnData::I64(vec![1; 1000]));
        let mut c1 = CoreCtx::new(&ctx_e, 0);
        arith_const(&mut c1, &col, ArithOp::Add, 1).unwrap();
        let mut c2 = CoreCtx::new(&ctx_e, 0);
        arith_const(&mut c2, &col, ArithOp::Mul, 2).unwrap();
        assert!(c2.account.compute_cycles().get() > c1.account.compute_cycles().get());
    }
}
