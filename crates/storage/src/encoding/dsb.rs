//! Decimal Scaled Binary (DSB) encoding.
//!
//! "In decimal scaled binary encoding, we use a common scale per vector
//! that is selected as the minimum avoiding the decimal point in all
//! values. [...] DSB encoding significantly increases the performance by
//! avoiding floating point calculations. However, for corner cases (e.g.,
//! values like 1/3), we store exception values and handle those
//! separately." (§4.2)
//!
//! [`DsbVector::encode`] picks the smallest common scale that represents
//! every value exactly; values that cannot be represented at any affordable
//! scale (too many fractional digits, or mantissa overflow) are stored
//! out-of-line in an exception table and their in-line slot holds a
//! best-effort approximation so that scans without exact-exception demands
//! stay vectorized.

use serde::{Deserialize, Serialize};

use crate::types::{pow10, Value};

/// Maximum common scale the encoder will select. Values needing more
/// fractional digits become exceptions.
pub const MAX_DSB_SCALE: u8 = 12;

/// A DSB-encoded numeric vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DsbVector {
    /// Unscaled mantissas: `value ≈ data[i] / 10^scale`.
    pub data: Vec<i64>,
    /// The common scale of the vector.
    pub scale: u8,
    /// Out-of-line exact values for rows the common scale cannot represent,
    /// sorted by row id.
    pub exceptions: Vec<(u32, Value)>,
}

impl DsbVector {
    /// Encode decimal/int values at the minimal common scale.
    ///
    /// NULLs are the caller's business (tracked in the vector's null
    /// bitmap); they encode as mantissa 0 here.
    pub fn encode(values: &[Value]) -> DsbVector {
        // Pass 1: the minimal scale that represents every representable value.
        let mut scale: u8 = 0;
        for v in values {
            if let Value::Decimal { unscaled, scale: s } = v {
                let mut s = *s;
                let mut u = *unscaled;
                // Trailing zeros don't force the common scale up.
                while s > 0 && u % 10 == 0 {
                    u /= 10;
                    s -= 1;
                }
                scale = scale.max(s.min(MAX_DSB_SCALE));
            }
        }
        // Pass 2: encode, collecting exceptions.
        let mut data = Vec::with_capacity(values.len());
        let mut exceptions = Vec::new();
        for (i, v) in values.iter().enumerate() {
            match v.unscaled_at(scale) {
                Some(u) => data.push(u),
                None => {
                    // Best-effort approximation in-line, exact out-of-line.
                    let approx = v
                        .to_f64()
                        .map(|f| (f * pow10(scale).unwrap_or(1) as f64).round())
                        .filter(|f| f.is_finite() && f.abs() < i64::MAX as f64)
                        .map(|f| f as i64)
                        .unwrap_or(0);
                    data.push(approx);
                    exceptions.push((i as u32, v.clone()));
                }
            }
        }
        DsbVector {
            data,
            scale,
            exceptions,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether row `i` is an exception.
    pub fn is_exception(&self, i: u32) -> bool {
        self.exceptions
            .binary_search_by_key(&i, |(r, _)| *r)
            .is_ok()
    }

    /// Decode row `i` back to a [`Value`].
    pub fn decode_row(&self, i: usize) -> Value {
        if let Ok(pos) = self
            .exceptions
            .binary_search_by_key(&(i as u32), |(r, _)| *r)
        {
            return self.exceptions[pos].1.clone();
        }
        Value::Decimal {
            unscaled: self.data[i],
            scale: self.scale,
        }
    }

    /// Decode the whole vector.
    pub fn decode(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.decode_row(i)).collect()
    }

    /// Fraction of rows stored as exceptions.
    pub fn exception_rate(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.exceptions.len() as f64 / self.data.len() as f64
        }
    }
}

/// Rescale a mantissa from `from` to `to` digits, rounding half away from
/// zero when digits are dropped.
pub fn rescale(unscaled: i64, from: u8, to: u8) -> Option<i64> {
    use std::cmp::Ordering;
    match from.cmp(&to) {
        Ordering::Equal => Some(unscaled),
        Ordering::Less => unscaled.checked_mul(pow10(to - from)?),
        Ordering::Greater => {
            let div = pow10(from - to)?;
            let q = unscaled / div;
            let r = unscaled % div;
            if r.abs() * 2 >= div {
                Some(q + unscaled.signum())
            } else {
                Some(q)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(unscaled: i64, scale: u8) -> Value {
        Value::Decimal { unscaled, scale }
    }

    #[test]
    fn common_scale_is_minimal() {
        let v = DsbVector::encode(&[dec(150, 2), dec(3, 1), Value::Int(2)]);
        // 1.50 needs only scale 1 (trailing zero), 0.3 needs 1, 2 needs 0.
        assert_eq!(v.scale, 1);
        assert_eq!(v.data, vec![15, 3, 20]);
        assert!(v.exceptions.is_empty());
    }

    #[test]
    fn decode_roundtrips_at_common_scale() {
        let vals = vec![dec(101, 2), dec(5, 2), Value::Int(7)];
        let v = DsbVector::encode(&vals);
        assert_eq!(v.scale, 2);
        assert_eq!(v.decode_row(0), dec(101, 2));
        assert_eq!(v.decode_row(1), dec(5, 2));
        assert_eq!(v.decode_row(2), dec(700, 2)); // 7 == 7.00
        assert_eq!(v.decode_row(2).to_f64(), Some(7.0));
    }

    #[test]
    fn overflowing_values_become_exceptions() {
        let big = Value::Int(i64::MAX / 2);
        let v = DsbVector::encode(&[dec(5, 2), big.clone()]);
        assert_eq!(v.scale, 2);
        assert_eq!(v.exceptions.len(), 1);
        assert!(v.is_exception(1));
        assert_eq!(v.decode_row(1), big);
        assert!((v.exception_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deep_fraction_becomes_exception_beyond_max_scale() {
        // 1/3 ≈ 0.333...: modelled as a decimal with very deep scale.
        let third = dec(333_333_333_333_333, 15);
        let v = DsbVector::encode(&[dec(5, 1), third.clone()]);
        assert_eq!(v.scale, MAX_DSB_SCALE);
        assert!(v.is_exception(1));
        assert_eq!(v.decode_row(1), third);
        // The in-line slot approximates the exact value.
        let approx = v.data[1] as f64 / 10f64.powi(v.scale as i32);
        assert!((approx - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn rescale_rounds_half_away_from_zero() {
        assert_eq!(rescale(150, 2, 1), Some(15));
        assert_eq!(rescale(155, 2, 1), Some(16));
        assert_eq!(rescale(-155, 2, 1), Some(-16));
        assert_eq!(rescale(154, 2, 1), Some(15));
        assert_eq!(rescale(15, 1, 3), Some(1500));
        assert_eq!(rescale(i64::MAX, 0, 2), None);
    }

    #[test]
    fn empty_encode() {
        let v = DsbVector::encode(&[]);
        assert!(v.is_empty());
        assert_eq!(v.scale, 0);
        assert_eq!(v.exception_rate(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_decimal() -> impl Strategy<Value = crate::types::Value> {
        (any::<i32>(), 0u8..6).prop_map(|(u, s)| crate::types::Value::Decimal {
            unscaled: u as i64,
            scale: s,
        })
    }

    proptest! {
        #[test]
        fn encode_decode_preserves_numeric_value(vals in proptest::collection::vec(arb_decimal(), 0..200)) {
            let v = DsbVector::encode(&vals);
            for (i, original) in vals.iter().enumerate() {
                let decoded = v.decode_row(i);
                // Equal as numbers even if the scale representation differs.
                prop_assert_eq!(decoded.to_f64().unwrap(), original.to_f64().unwrap());
            }
        }

        #[test]
        fn order_is_preserved_by_common_scale(vals in proptest::collection::vec(arb_decimal(), 2..100)) {
            let v = DsbVector::encode(&vals);
            prop_assume!(v.exceptions.is_empty());
            for i in 1..vals.len() {
                let a = vals[i - 1].to_f64().unwrap();
                let b = vals[i].to_f64().unwrap();
                if a < b {
                    prop_assert!(v.data[i - 1] < v.data[i]);
                } else if a > b {
                    prop_assert!(v.data[i - 1] > v.data[i]);
                }
            }
        }
    }
}
