//! Seeded random table generation for the differential fuzzer.
//!
//! Tables are deliberately small (tens of rows, `ta` now and then hundreds)
//! but adversarial: columns
//! are NULL-dense, mix negative and positive values, and one column draws
//! from the i64 boundary (`i64::MIN`, `i64::MAX`, `±1`, `±10^18`) so that
//! overflow handling, order-preserving key transforms, and stored-width
//! selection all get exercised on every run.
//!
//! Column names are globally unique across tables because the SQL layer
//! resolves columns by bare name.

use rapid_storage::schema::{Field, Schema};
use rapid_storage::types::{DataType, Value};
use serde::{Deserialize, Serialize};

use crate::rng::Rng;

/// One column of a generated table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnSpec {
    /// Globally unique column name.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
}

/// A generated (or corpus-loaded) table: schema plus row values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnSpec>,
    /// Row-major values; `rows[r][c]` matches `columns[c]`.
    pub rows: Vec<Vec<Value>>,
}

impl TableSpec {
    /// The storage schema for `create_table`.
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| Field::new(c.name.clone(), c.dtype))
                .collect(),
        )
    }
}

/// i64 boundary values the `ta_big` column draws from.
pub const EXTREME_INTS: [i64; 10] = [
    i64::MIN,
    i64::MIN + 1,
    i64::MAX,
    i64::MAX - 1,
    -1_000_000_000_000_000_000,
    1_000_000_000_000_000_000,
    -1,
    0,
    1,
    42,
];

/// String pool for varchar columns: includes the empty string, LIKE
/// metacharacters as literals, and prefix-overlapping words.
pub const STRING_POOL: [&str; 12] = [
    "",
    "a",
    "ab",
    "a_b",
    "ab%",
    "apple",
    "APPLE",
    "banana",
    "grape",
    "grapefruit",
    "pear",
    "pe ar",
];

fn null_or(rng: &mut Rng, null_pct: u64, v: impl FnOnce(&mut Rng) -> Value) -> Value {
    if rng.chance(null_pct) {
        Value::Null
    } else {
        v(rng)
    }
}

/// A "safe magnitude" int: small enough that sums/products stay far from
/// overflow in any generated expression (|v| ≤ 1e6, mostly ≤ 100).
fn small_int(rng: &mut Rng) -> i64 {
    if rng.chance(80) {
        rng.range_i64(-100, 100)
    } else {
        rng.range_i64(-1_000_000, 1_000_000)
    }
}

/// Most rows `ta` has: now and then it is a wide probe side, hundreds of
/// rows, over which a selective join's filter pays for its stage.
pub const MAX_TA_ROWS: usize = 1000;

/// Most rows `tb` has.
pub const MAX_TB_ROWS: usize = 30;

/// Generate the two fuzz tables `ta` and `tb`.
pub fn gen_tables(rng: &mut Rng) -> Vec<TableSpec> {
    let ta_rows = match rng.chance(40) {
        true => rng.range_i64(500, MAX_TA_ROWS as i64),
        false => rng.range_i64(8, 40),
    } as usize;
    let tb_rows = rng.range_i64(6, MAX_TB_ROWS as i64) as usize;

    let ta = TableSpec {
        name: "ta".into(),
        columns: vec![
            ColumnSpec {
                name: "ta_id".into(),
                dtype: DataType::Int,
            },
            ColumnSpec {
                name: "ta_k".into(),
                dtype: DataType::Int,
            },
            ColumnSpec {
                name: "ta_a".into(),
                dtype: DataType::Int,
            },
            ColumnSpec {
                name: "ta_b".into(),
                dtype: DataType::Decimal { scale: 2 },
            },
            ColumnSpec {
                name: "ta_s".into(),
                dtype: DataType::Varchar,
            },
            ColumnSpec {
                name: "ta_d".into(),
                dtype: DataType::Date,
            },
            ColumnSpec {
                name: "ta_big".into(),
                dtype: DataType::Int,
            },
        ],
        rows: (0..ta_rows)
            .map(|r| {
                vec![
                    Value::Int(r as i64),
                    null_or(rng, 25, |r| Value::Int(r.range_i64(0, 4))),
                    null_or(rng, 20, |r| Value::Int(small_int(r))),
                    null_or(rng, 20, |r| Value::Decimal {
                        unscaled: r.range_i64(-10_000, 10_000),
                        scale: 2,
                    }),
                    null_or(rng, 20, |r| Value::Str((*r.pick(&STRING_POOL)).into())),
                    null_or(rng, 10, |r| Value::Date(r.range_i64(7_300, 22_000) as i32)),
                    null_or(rng, 15, |r| Value::Int(*r.pick(&EXTREME_INTS))),
                ]
            })
            .collect(),
    };

    let tb = TableSpec {
        name: "tb".into(),
        columns: vec![
            ColumnSpec {
                name: "tb_id".into(),
                dtype: DataType::Int,
            },
            ColumnSpec {
                name: "tb_k".into(),
                dtype: DataType::Int,
            },
            ColumnSpec {
                name: "tb_v".into(),
                dtype: DataType::Decimal { scale: 2 },
            },
            ColumnSpec {
                name: "tb_s".into(),
                dtype: DataType::Varchar,
            },
        ],
        rows: (0..tb_rows)
            .map(|r| {
                vec![
                    Value::Int(r as i64),
                    null_or(rng, 25, |r| Value::Int(r.range_i64(0, 4))),
                    null_or(rng, 20, |r| Value::Decimal {
                        unscaled: r.range_i64(-5_000, 5_000),
                        scale: 2,
                    }),
                    null_or(rng, 20, |r| Value::Str((*r.pick(&STRING_POOL)).into())),
                ]
            })
            .collect(),
    };

    vec![ta, tb]
}

/// A vector of boundary-heavy i64s with occasional runs — feedstock for
/// the encoding round-trip tests: the extremes force the widest stored
/// width, and a vector without them stays narrow.
pub fn gen_extreme_i64s(rng: &mut Rng, n: usize) -> Vec<i64> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = if rng.chance(50) {
            *rng.pick(&EXTREME_INTS)
        } else {
            small_int(rng)
        };
        let run = if rng.chance(40) {
            rng.range_i64(2, 6) as usize
        } else {
            1
        };
        for _ in 0..run.min(n - out.len()) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_deterministic_per_seed() {
        let a = gen_tables(&mut Rng::new(5));
        let b = gen_tables(&mut Rng::new(5));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.len(), 2);
        assert!(a[0].rows.len() >= 8);
        assert_eq!(a[0].columns.len(), 7);
    }

    #[test]
    fn big_column_hits_boundaries_across_seeds() {
        let mut seen_min = false;
        let mut seen_max = false;
        for seed in 0..50 {
            for t in gen_tables(&mut Rng::new(seed)) {
                for row in &t.rows {
                    for v in row {
                        if *v == Value::Int(i64::MIN) {
                            seen_min = true;
                        }
                        if *v == Value::Int(i64::MAX) {
                            seen_max = true;
                        }
                    }
                }
            }
        }
        assert!(seen_min && seen_max, "extreme pool never drawn");
    }
}
