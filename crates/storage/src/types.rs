//! Logical data types and scalar values.
//!
//! The DPU handles "all common data types using fixed width encoding"
//! (§4.2). A logical [`DataType`] describes what the user sees; every type
//! maps onto one of four physical integer widths plus the column-level
//! transforms (DSB scaling, dictionary coding) applied by the storage layer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Logical column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer (also used for all key columns).
    Int,
    /// Fixed-point decimal stored as decimal-scaled binary with the given
    /// number of fractional digits.
    Decimal {
        /// Digits after the decimal point.
        scale: u8,
    },
    /// Calendar date: days since 1970-01-01, an `i32` value (stored at the
    /// width its range needs, like every column).
    Date,
    /// Fixed or variable length string, dictionary encoded.
    Varchar,
}

impl DataType {
    /// Declared width in bytes: what the cost model prices a value at. A
    /// loaded column is stored at the width its values need
    /// (`Table::column_width`).
    pub fn physical_width(&self) -> usize {
        match self {
            DataType::Int => 8,
            DataType::Decimal { .. } => 8,
            DataType::Date => 4,
            DataType::Varchar => 4, // dictionary code
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Decimal { scale } => write!(f, "DECIMAL(.{scale})"),
            DataType::Date => write!(f, "DATE"),
            DataType::Varchar => write!(f, "VARCHAR"),
        }
    }
}

/// A scalar value as seen at the engine boundary (loading, literals,
/// results). Inside the engine everything is fixed-width integers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Fixed-point decimal: `unscaled / 10^scale`.
    Decimal {
        /// The unscaled integer mantissa.
        unscaled: i64,
        /// Digits after the decimal point.
        scale: u8,
    },
    /// Date as days since the Unix epoch.
    Date(i32),
    /// String.
    Str(String),
}

impl Value {
    /// The decimal's numeric value as f64 (reporting only).
    pub fn to_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Decimal { unscaled, scale } => {
                Some(*unscaled as f64 / 10f64.powi(*scale as i32))
            }
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// Whether this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Rescale a decimal/int to an unscaled integer at `scale` digits.
    /// Fails (returns None) on overflow or on digits the scale would drop;
    /// the load path then stores the nearest mantissa.
    pub fn unscaled_at(&self, scale: u8) -> Option<i64> {
        match self {
            Value::Int(v) => v.checked_mul(pow10(scale)?),
            Value::Decimal { unscaled, scale: s } => {
                if *s == scale {
                    Some(*unscaled)
                } else if *s < scale {
                    unscaled.checked_mul(pow10(scale - *s)?)
                } else {
                    // Losing digits is not representable at this scale.
                    let div = pow10(*s - scale)?;
                    if unscaled % div == 0 {
                        Some(unscaled / div)
                    } else {
                        None
                    }
                }
            }
            Value::Date(d) => {
                if scale == 0 {
                    Some(*d as i64)
                } else {
                    (*d as i64).checked_mul(pow10(scale)?)
                }
            }
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Decimal { unscaled, scale } => {
                if *scale == 0 {
                    write!(f, "{unscaled}")
                } else {
                    let factor = pow10(*scale).unwrap_or(1);
                    let sign = if *unscaled < 0 { "-" } else { "" };
                    let abs = unscaled.unsigned_abs();
                    let f10 = factor as u64;
                    write!(
                        f,
                        "{sign}{}.{:0width$}",
                        abs / f10,
                        abs % f10,
                        width = *scale as usize
                    )
                }
            }
            Value::Date(d) => write!(f, "date#{d}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// `10^exp` as i64, None if it overflows.
pub fn pow10(exp: u8) -> Option<i64> {
    10i64.checked_pow(exp as u32)
}

/// Parse a `YYYY-MM-DD` date into days since 1970-01-01 (proleptic
/// Gregorian). TPC-H dates span 1992–1998, well inside range.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut it = s.split('-');
    let y: i32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_civil(y, m, d))
}

/// Days since 1970-01-01 for a Gregorian calendar date
/// (Howard Hinnant's `days_from_civil` algorithm).
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32; // [0, 399]
    let mp = (m + 9) % 12; // March = 0
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe as i32 - 719468
}

/// Inverse of [`days_from_civil`]: (year, month, day) for an epoch day.
pub fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = (z - era * 146097) as u32; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe as i32 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_widths_are_fixed() {
        assert_eq!(DataType::Int.physical_width(), 8);
        assert_eq!(DataType::Decimal { scale: 2 }.physical_width(), 8);
        assert_eq!(DataType::Date.physical_width(), 4);
        assert_eq!(DataType::Varchar.physical_width(), 4);
    }

    #[test]
    fn decimal_display() {
        assert_eq!(
            Value::Decimal {
                unscaled: 12345,
                scale: 2
            }
            .to_string(),
            "123.45"
        );
        assert_eq!(
            Value::Decimal {
                unscaled: -105,
                scale: 2
            }
            .to_string(),
            "-1.05"
        );
        assert_eq!(
            Value::Decimal {
                unscaled: 7,
                scale: 0
            }
            .to_string(),
            "7"
        );
        assert_eq!(
            Value::Decimal {
                unscaled: 5,
                scale: 3
            }
            .to_string(),
            "0.005"
        );
    }

    #[test]
    fn unscaled_rescaling() {
        let v = Value::Decimal {
            unscaled: 150,
            scale: 2,
        }; // 1.50
        assert_eq!(v.unscaled_at(2), Some(150));
        assert_eq!(v.unscaled_at(4), Some(15000));
        assert_eq!(v.unscaled_at(1), Some(15)); // 1.5 exactly
        assert_eq!(v.unscaled_at(0), None); // 1.5 not an integer
        assert_eq!(Value::Int(3).unscaled_at(2), Some(300));
    }

    #[test]
    fn unscaled_overflow_becomes_none() {
        let v = Value::Int(i64::MAX / 10);
        assert_eq!(v.unscaled_at(2), None);
    }

    #[test]
    fn known_dates_roundtrip() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
        assert_eq!(days_from_civil(2000, 3, 1), 11017);
        for (y, m, d) in [(1992, 1, 1), (1995, 6, 17), (1998, 12, 31), (2026, 7, 5)] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d));
        }
    }

    #[test]
    fn parse_date_ok_and_err() {
        assert_eq!(parse_date("1995-06-17"), Some(days_from_civil(1995, 6, 17)));
        assert_eq!(parse_date("1995-13-01"), None);
        assert_eq!(parse_date("nonsense"), None);
    }
}
