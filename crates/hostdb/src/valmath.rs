//! Exact decimal arithmetic over [`Value`]s, mirroring the RAPID
//! compiler's DSB scale rules so both engines agree bit-for-bit:
//!
//! * `+`/`-` unify scales to the max,
//! * `*` adds scales,
//! * `/` first reduces both operands to scale ≤ 2, then divides at
//!   `max(6, sa - sb)` fractional digits; every division rounds half away
//!   from zero (standard SQL numeric rounding, shared with the QEF's
//!   [`div_round_half_away`] so both engines agree on negative operands),
//! * comparisons align scales exactly (via i128, no rounding).

use rapid_storage::types::{pow10, Value};

use rapid_qef::primitives::arith::{div_round_half_away, ArithOp};
use rapid_qef::primitives::filter::CmpOp;

/// Errors from value arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MathError {
    /// Mantissa overflowed i64.
    Overflow,
    /// Division by zero.
    DivByZero,
    /// Operation not defined for the operand types.
    Type(String),
}

impl std::fmt::Display for MathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathError::Overflow => write!(f, "numeric overflow"),
            MathError::DivByZero => write!(f, "division by zero"),
            MathError::Type(m) => write!(f, "type error: {m}"),
        }
    }
}

impl std::error::Error for MathError {}

/// `(mantissa, scale)` of a numeric value; dates numeric as epoch days.
fn numeric(v: &Value) -> Option<(i64, u8)> {
    match v {
        Value::Int(x) => Some((*x, 0)),
        Value::Decimal { unscaled, scale } => Some((*unscaled, *scale)),
        Value::Date(d) => Some((*d as i64, 0)),
        _ => None,
    }
}

fn make(unscaled: i64, scale: u8) -> Value {
    if scale == 0 {
        Value::Int(unscaled)
    } else {
        Value::Decimal { unscaled, scale }
    }
}

fn align(a: (i64, u8), b: (i64, u8)) -> Result<(i64, i64, u8), MathError> {
    let scale = a.1.max(b.1);
    let ua =
        a.0.checked_mul(pow10(scale - a.1).ok_or(MathError::Overflow)?)
            .ok_or(MathError::Overflow)?;
    let ub =
        b.0.checked_mul(pow10(scale - b.1).ok_or(MathError::Overflow)?)
            .ok_or(MathError::Overflow)?;
    Ok((ua, ub, scale))
}

fn downscale(v: (i64, u8), max_scale: u8) -> Result<(i64, u8), MathError> {
    if v.1 <= max_scale {
        Ok(v)
    } else {
        let p = pow10(v.1 - max_scale).unwrap_or(1);
        let q = div_round_half_away(v.0, p).ok_or(MathError::Overflow)?;
        Ok((q, max_scale))
    }
}

/// Evaluate `a op b` with NULL propagation.
pub fn arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value, MathError> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    let na = numeric(a).ok_or_else(|| MathError::Type(format!("{a} in arithmetic")))?;
    let nb = numeric(b).ok_or_else(|| MathError::Type(format!("{b} in arithmetic")))?;
    match op {
        ArithOp::Add => {
            let (ua, ub, s) = align(na, nb)?;
            Ok(make(ua.checked_add(ub).ok_or(MathError::Overflow)?, s))
        }
        ArithOp::Sub => {
            let (ua, ub, s) = align(na, nb)?;
            Ok(make(ua.checked_sub(ub).ok_or(MathError::Overflow)?, s))
        }
        ArithOp::Mul => {
            let s = na.1 + nb.1;
            Ok(make(na.0.checked_mul(nb.0).ok_or(MathError::Overflow)?, s))
        }
        ArithOp::Div => {
            // Mirror the compiler: reduce operands to scale ≤ 2, then
            // out_scale = max(6, sa - sb) with dividend pre-scaling.
            let (ua, sa) = downscale(na, 2)?;
            let (ub, sb) = downscale(nb, 2)?;
            if ub == 0 {
                return Err(MathError::DivByZero);
            }
            let out_scale = 6u8.max(sa.saturating_sub(sb));
            let k = out_scale + sb - sa;
            let dividend = ua
                .checked_mul(pow10(k).ok_or(MathError::Overflow)?)
                .ok_or(MathError::Overflow)?;
            Ok(make(
                div_round_half_away(dividend, ub).ok_or(MathError::Overflow)?,
                out_scale,
            ))
        }
    }
}

/// Three-valued comparison; `None` when either side is NULL.
pub fn compare(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    if a.is_null() || b.is_null() {
        return None;
    }
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        _ => {
            let na = numeric(a)?;
            let nb = numeric(b)?;
            // Exact alignment in i128: no overflow, no rounding.
            let s = na.1.max(nb.1);
            let xa = na.0 as i128 * 10i128.pow((s - na.1) as u32);
            let xb = nb.0 as i128 * 10i128.pow((s - nb.1) as u32);
            Some(xa.cmp(&xb))
        }
    }
}

/// SQL comparison semantics: NULL operands yield false.
pub fn cmp(op: CmpOp, a: &Value, b: &Value) -> bool {
    match compare(a, b) {
        None => false,
        Some(ord) => match op {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => !ord.is_eq(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        },
    }
}

/// Ordering for ORDER BY: NULLs last in both directions (mirrors the
/// QEF's radix sort and Top-K comparator — only real values reverse under
/// DESC).
pub fn order_by_cmp(a: &Value, b: &Value, desc: bool) -> std::cmp::Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => {
            // Values of unlike types do not order; a typed column never
            // holds them side by side, so any fixed answer will do.
            let ord = compare(a, b).unwrap_or(std::cmp::Ordering::Equal);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dec(u: i64, s: u8) -> Value {
        Value::Decimal {
            unscaled: u,
            scale: s,
        }
    }

    #[test]
    fn add_unifies_scales() {
        assert_eq!(
            arith(ArithOp::Add, &dec(150, 2), &Value::Int(1)).unwrap(),
            dec(250, 2)
        );
        assert_eq!(
            arith(ArithOp::Sub, &Value::Int(1), &dec(5, 1)).unwrap(),
            dec(5, 1)
        );
    }

    #[test]
    fn mul_adds_scales() {
        // 1.50 * 0.5 = 0.750 at scale 3.
        assert_eq!(
            arith(ArithOp::Mul, &dec(150, 2), &dec(5, 1)).unwrap(),
            dec(750, 3)
        );
    }

    #[test]
    fn div_matches_compiler_semantics() {
        // 1.00 / 3 = 0.333333 (six digits, truncated).
        assert_eq!(
            arith(ArithOp::Div, &dec(100, 2), &Value::Int(3)).unwrap(),
            dec(333_333, 6)
        );
        // Deep scales truncate to 2 first: 0.123456 / 1 -> 0.12 -> 0.120000.
        assert_eq!(
            arith(ArithOp::Div, &dec(123_456, 6), &Value::Int(1)).unwrap(),
            dec(120_000, 6)
        );
    }

    #[test]
    fn div_rounds_half_away_from_zero() {
        // -1.00 / 3 = -0.333333... -> -0.333333 (nearest), symmetric with
        // the positive case (truncation used to give -0.333333 too, but
        // -2.00 / 3 exposes it).
        assert_eq!(
            arith(ArithOp::Div, &dec(-100, 2), &Value::Int(3)).unwrap(),
            dec(-333_333, 6)
        );
        // -2 / 3 = -0.666666... -> -0.666667, not the truncated -0.666666.
        assert_eq!(
            arith(ArithOp::Div, &Value::Int(-2), &Value::Int(3)).unwrap(),
            dec(-666_667, 6)
        );
        assert_eq!(
            arith(ArithOp::Div, &Value::Int(2), &Value::Int(3)).unwrap(),
            dec(666_667, 6)
        );
        // Ties round away from zero, also in the scale-reduction step:
        // 0.125 -> 0.13 at scale 2.
        assert_eq!(
            arith(ArithOp::Div, &dec(125, 3), &Value::Int(1)).unwrap(),
            dec(130_000, 6)
        );
        assert_eq!(
            arith(ArithOp::Div, &dec(-125, 3), &Value::Int(1)).unwrap(),
            dec(-130_000, 6)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]
        #[test]
        fn div_matches_i128_oracle_including_negatives(
            a in -1_000_000_000i64..1_000_000_000,
            sa in 0u8..3,
            b in 1i64..1_000_000,
            sb in 0u8..3,
            bneg in 0i32..2,
        ) {
            // Operands at scale ≤ 2 skip the reduction step, so the result
            // mantissa must equal the i128 half-away-from-zero rounding of
            // (a·10^k) / b, computed here by the independent magnitude
            // formula round_half_up(|x|/|y|) = (2|x| + |y|) / (2|y|).
            let b = if bneg == 1 { -b } else { b };
            let out_scale = 6u8.max(sa.saturating_sub(sb));
            let k = (out_scale + sb - sa) as u32;
            let x = a as i128 * 10i128.pow(k);
            let y = b as i128;
            let sign = if (x < 0) != (y < 0) { -1i128 } else { 1 };
            let expect = sign * ((2 * x.abs() + y.abs()) / (2 * y.abs()));
            let got = arith(ArithOp::Div, &dec(a, sa), &dec(b, sb)).unwrap();
            let (mantissa, scale) = match got {
                Value::Decimal { unscaled, scale } => (unscaled, scale),
                Value::Int(v) => (v, 0),
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(scale, out_scale);
            assert_eq!(mantissa as i128, expect);
        }
    }

    #[test]
    fn division_errors() {
        assert_eq!(
            arith(ArithOp::Div, &Value::Int(1), &Value::Int(0)),
            Err(MathError::DivByZero)
        );
    }

    #[test]
    fn null_propagates_through_arith_but_fails_cmp() {
        assert_eq!(
            arith(ArithOp::Add, &Value::Null, &Value::Int(1)).unwrap(),
            Value::Null
        );
        assert!(!cmp(CmpOp::Eq, &Value::Null, &Value::Null));
        assert!(!cmp(CmpOp::Ne, &Value::Null, &Value::Int(1)));
    }

    #[test]
    fn comparisons_align_scales_exactly() {
        assert!(cmp(CmpOp::Eq, &dec(100, 2), &Value::Int(1)));
        assert!(cmp(CmpOp::Lt, &dec(99, 2), &Value::Int(1)));
        assert!(cmp(CmpOp::Gt, &dec(101, 2), &Value::Int(1)));
        // Near-overflow mantissas still compare correctly via i128.
        assert!(cmp(
            CmpOp::Lt,
            &Value::Int(i64::MAX - 1),
            &Value::Int(i64::MAX)
        ));
    }

    #[test]
    fn string_comparisons() {
        assert!(cmp(
            CmpOp::Lt,
            &Value::Str("apple".into()),
            &Value::Str("pear".into())
        ));
    }

    #[test]
    fn order_by_null_placement() {
        use std::cmp::Ordering;
        // NULLS LAST in both directions: a NULL compares greater than any
        // value whether the key is ascending or descending.
        assert_eq!(
            order_by_cmp(&Value::Null, &Value::Int(1), false),
            Ordering::Greater
        );
        assert_eq!(
            order_by_cmp(&Value::Null, &Value::Int(1), true),
            Ordering::Greater
        );
        assert_eq!(
            order_by_cmp(&Value::Int(1), &Value::Null, true),
            Ordering::Less
        );
        // Real values still reverse under DESC.
        assert_eq!(
            order_by_cmp(&Value::Int(1), &Value::Int(2), true),
            Ordering::Greater
        );
    }

    #[test]
    fn overflow_detection() {
        assert_eq!(
            arith(ArithOp::Mul, &Value::Int(i64::MAX), &Value::Int(2)),
            Err(MathError::Overflow)
        );
    }
}
