//! Decimal Scaled Binary (DSB) encoding.
//!
//! "In decimal scaled binary encoding, we use a common scale per vector
//! that is selected as the minimum avoiding the decimal point in all
//! values. [...] DSB encoding significantly increases the performance by
//! avoiding floating point calculations." (§4.2)
//!
//! [`common_scale`] is the encoder's first pass: the smallest scale at
//! which every decimal of a column is an integer mantissa, capped at
//! [`MAX_DSB_SCALE`]. [`crate::table::TableBuilder`] then stores each value
//! as its mantissa at that scale. The scale is one per column rather than
//! per vector, and there is no exception table: a value the common scale
//! cannot hold exactly (deeper than the cap, or a mantissa past `i64`) is
//! stored as the nearest mantissa, or 0 when even that overflows.

use crate::types::Value;

/// Maximum common scale the encoder will select. Values needing more
/// fractional digits are stored rounded to this scale.
pub const MAX_DSB_SCALE: u8 = 12;

/// The minimal common scale that represents every decimal in `values`,
/// capped at [`MAX_DSB_SCALE`]. Trailing zeros do not raise it, and
/// integers, dates and NULLs need scale 0.
pub fn common_scale<'a>(values: impl IntoIterator<Item = &'a Value>) -> u8 {
    let mut scale: u8 = 0;
    for v in values {
        if let Value::Decimal {
            mut unscaled,
            scale: mut s,
        } = *v
        {
            while s > 0 && unscaled % 10 == 0 {
                unscaled /= 10;
                s -= 1;
            }
            scale = scale.max(s.min(MAX_DSB_SCALE));
        }
    }
    scale
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(unscaled: i64, scale: u8) -> Value {
        Value::Decimal { unscaled, scale }
    }

    #[test]
    fn common_scale_is_minimal() {
        // 0.3 needs one digit, 2 none; the column needs the larger.
        let vals = [dec(3, 1), Value::Int(2), dec(101, 2)];
        assert_eq!(common_scale(&vals[..2]), 1);
        assert_eq!(common_scale(&vals), 2);
        let mantissas: Vec<_> = vals.iter().map(|v| v.unscaled_at(2)).collect();
        assert_eq!(mantissas, [Some(30), Some(200), Some(101)]);
    }

    #[test]
    fn trailing_zeros_do_not_raise_the_scale() {
        // 1.50 is 1.5, and 7.000 is 7.
        assert_eq!(common_scale(&[dec(150, 2)]), 1);
        assert_eq!(common_scale(&[dec(7000, 3)]), 0);
        assert_eq!(common_scale(&[dec(0, 5)]), 0);
        assert_eq!(common_scale(&[dec(-1500, 3), dec(25, 1)]), 1);
    }

    #[test]
    fn the_scale_is_capped() {
        // 1/3 written to 15 digits is stored at the cap, not at 15.
        let third = dec(333_333_333_333_333, 15);
        assert_eq!(common_scale(&[dec(5, 1), third]), MAX_DSB_SCALE);
        assert_eq!(common_scale(&[dec(1, MAX_DSB_SCALE)]), MAX_DSB_SCALE);
    }

    #[test]
    fn an_empty_column_has_scale_zero() {
        assert_eq!(common_scale(&[]), 0);
        assert_eq!(common_scale(&[Value::Null, Value::Null]), 0);
    }

    #[test]
    fn integers_need_no_scale() {
        let vals = [Value::Int(i64::MAX), Value::Int(-7), Value::Date(9000)];
        assert_eq!(common_scale(&vals), 0);
        assert_eq!(vals[0].unscaled_at(0), Some(i64::MAX));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_decimal() -> impl Strategy<Value = Value> {
        (any::<i32>(), 0u8..6).prop_map(|(u, s)| Value::Decimal {
            unscaled: u as i64,
            scale: s,
        })
    }

    proptest! {
        #[test]
        fn every_value_is_exact_at_the_common_scale(vals in proptest::collection::vec(arb_decimal(), 0..200)) {
            let scale = common_scale(&vals);
            for v in &vals {
                let u = v.unscaled_at(scale);
                prop_assert!(u.is_some(), "{v:?} at scale {scale}");
                let f = u.unwrap_or(0) as f64 / 10f64.powi(scale as i32);
                prop_assert_eq!(f, v.to_f64().unwrap_or(f64::NAN));
            }
        }

        #[test]
        fn order_is_preserved_by_common_scale(vals in proptest::collection::vec(arb_decimal(), 2..100)) {
            let scale = common_scale(&vals);
            let mantissas: Vec<_> = vals.iter().map(|v| v.unscaled_at(scale)).collect();
            for i in 1..vals.len() {
                let a = vals[i - 1].to_f64();
                let b = vals[i].to_f64();
                prop_assert_eq!(a.partial_cmp(&b), mantissas[i - 1].cmp(&mantissas[i]).into());
            }
        }
    }
}
