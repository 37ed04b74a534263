//! Selectivity estimation from column statistics — one estimator for the
//! scan (most-selective-first ordering, the pass rule, the access-path
//! choice) and for the compiler's cost model, so the two cannot disagree
//! about how many rows a predicate keeps. Coarse is fine; consistently
//! wrong by an order of magnitude is not.

use rapid_storage::stats::{ColumnStats, TableStats};

use crate::expr::Pred;
use crate::primitives::filter::CmpOp;

/// Selectivity estimate of a predicate from table statistics.
pub fn estimate_selectivity(pred: &Pred, stats: &TableStats) -> f64 {
    let cols: Vec<Option<&ColumnStats>> = stats.columns.iter().map(Some).collect();
    estimate_selectivity_cols(pred, &cols)
}

/// Core of [`estimate_selectivity`] over a positional slice of (possibly
/// missing) column stats, so the compiler's cost model can feed it
/// *derived* per-node stats — a Filter above a join sees the surviving
/// columns, not a base table. `None` entries (computed/unknown columns)
/// take the same coarse defaults as a missing table column.
pub fn estimate_selectivity_cols(pred: &Pred, cols: &[Option<&ColumnStats>]) -> f64 {
    let col_stats = |c: usize| -> Option<&ColumnStats> { cols.get(c).copied().flatten() };
    match pred {
        Pred::CmpConst { col, op, value } => {
            let Some(s) = col_stats(*col) else { return 0.5 };
            // Comparisons are false on NULL, so scale the non-null-row
            // fraction the histogram models by the non-null fraction.
            let not_null = 1.0 - s.null_fraction();
            not_null
                * match op {
                    CmpOp::Eq => s.eq_selectivity(),
                    CmpOp::Ne => 1.0 - s.eq_selectivity(),
                    CmpOp::Lt | CmpOp::Le => s.range_selectivity(None, Some(*value)),
                    CmpOp::Gt | CmpOp::Ge => s.range_selectivity(Some(*value), None),
                }
        }
        Pred::Between { col, lo, hi } => col_stats(*col).map_or(0.25, |s| {
            (1.0 - s.null_fraction()) * s.range_selectivity(Some(*lo), Some(*hi))
        }),
        Pred::InCodes { col, codes } => {
            let Some(s) = col_stats(*col) else { return 0.3 };
            (1.0 - s.null_fraction()) * (codes.count_ones() as f64 * s.eq_selectivity()).min(1.0)
        }
        Pred::InList { col, values } => {
            let Some(s) = col_stats(*col) else { return 0.3 };
            (1.0 - s.null_fraction()) * (values.len() as f64 * s.eq_selectivity()).min(1.0)
        }
        Pred::And(ps) => conjunction_selectivity(ps, cols),
        Pred::Or(ps) => {
            let mut none = 1.0;
            for p in ps {
                none *= 1.0 - estimate_selectivity_cols(p, cols);
            }
            1.0 - none
        }
        Pred::Not(p) => 1.0 - estimate_selectivity_cols(p, cols),
        Pred::NotNull { col } => col_stats(*col).map_or(0.9, |s| 1.0 - s.null_fraction()),
        Pred::CmpCols { .. } | Pred::CmpExpr { .. } => 0.3,
        Pred::Const(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
    }
}

/// The constant bounds `pred` puts on one column (`lo <= col <= hi`, as
/// [`ColumnStats::range_selectivity`] reads them), when that is all it is.
fn constant_bounds(pred: &Pred) -> Option<(usize, Option<i64>, Option<i64>)> {
    match *pred {
        Pred::CmpConst { col, op, value } => match op {
            CmpOp::Lt | CmpOp::Le => Some((col, None, Some(value))),
            CmpOp::Gt | CmpOp::Ge => Some((col, Some(value), None)),
            CmpOp::Eq | CmpOp::Ne => None,
        },
        Pred::Between { col, lo, hi } => Some((col, Some(lo), Some(hi))),
        _ => None,
    }
}

/// Joint selectivity of conjuncts. The two halves of a range on one column
/// are anything but independent (`d >= a AND d < b` keeps the rows between
/// the bounds, not the product of two half-lines), so constant bounds are
/// intersected per column and the histogram is asked once; everything else
/// multiplies as independent.
pub fn conjunction_selectivity<'a>(
    conjuncts: impl IntoIterator<Item = &'a Pred>,
    cols: &[Option<&ColumnStats>],
) -> f64 {
    let mut sel = 1.0;
    let mut ranges: Vec<(usize, Option<i64>, Option<i64>)> = Vec::new();
    for p in conjuncts {
        match constant_bounds(p) {
            Some((col, lo, hi)) if cols.get(col).copied().flatten().is_some() => {
                match ranges.iter_mut().find(|r| r.0 == col) {
                    Some(r) => {
                        r.1 = r.1.max(lo);
                        r.2 = match (r.2, hi) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                    }
                    None => ranges.push((col, lo, hi)),
                }
            }
            _ => sel *= estimate_selectivity_cols(p, cols),
        }
    }
    for (col, lo, hi) in ranges {
        if let Some(s) = cols[col] {
            sel *= (1.0 - s.null_fraction()) * s.range_selectivity(lo, hi);
        }
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: i64) -> ColumnStats {
        ColumnStats::compute(&(0..n).collect::<Vec<_>>(), |_| false)
    }

    fn cmp(col: usize, op: CmpOp, value: i64) -> Pred {
        Pred::CmpConst { col, op, value }
    }

    #[test]
    fn a_range_on_one_column_is_the_rows_between_its_bounds() {
        let s = uniform(10_000);
        let cols = [Some(&s)];
        // 5 % of the rows; as independent half-lines it was 0.55 * 0.50.
        let range = Pred::And(vec![cmp(0, CmpOp::Ge, 4_500), cmp(0, CmpOp::Lt, 5_000)]);
        let sel = estimate_selectivity_cols(&range, &cols);
        assert!((sel - 0.05).abs() < 0.005, "{sel}");
        // Contradictory bounds keep at most the equality floor.
        let empty = Pred::And(vec![cmp(0, CmpOp::Ge, 6_000), cmp(0, CmpOp::Lt, 5_000)]);
        assert!(estimate_selectivity_cols(&empty, &cols) < 0.001);
    }

    #[test]
    fn one_bound_and_other_columns_estimate_as_before() {
        let (a, b) = (uniform(1_000), uniform(50));
        let cols = [Some(&a), Some(&b), None];
        let half = cmp(0, CmpOp::Lt, 500);
        let alone = estimate_selectivity_cols(&half, &cols);
        let eq = cmp(1, CmpOp::Eq, 7);
        let unknown = cmp(2, CmpOp::Lt, 3);
        let and = Pred::And(vec![half.clone(), eq.clone(), unknown.clone()]);
        let product = alone
            * estimate_selectivity_cols(&eq, &cols)
            * estimate_selectivity_cols(&unknown, &cols);
        assert!((estimate_selectivity_cols(&and, &cols) - product).abs() < 1e-12);
        assert_eq!(
            estimate_selectivity_cols(&Pred::And(vec![half]), &cols).to_bits(),
            alone.to_bits()
        );
    }
}
