//! Table and column statistics.
//!
//! The RAPID metadata "holds the information about base tables loaded into
//! RAPID, state of the system, table statistics, table partitioning
//! information and column encodings" (§3.4). The compiler's cost model,
//! the group-by strategy choice (NDV-driven, §5.4) and the hash-join
//! partition sizing (§6) all consume these statistics.

use crate::chunk::Chunk;

/// Number of buckets in the equi-depth histograms (quantile boundaries).
pub const EQUIDEPTH_BUCKETS: usize = 32;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Minimum non-null value (widened), `None` for all-null/empty columns.
    pub min: Option<i64>,
    /// Maximum non-null value (widened).
    pub max: Option<i64>,
    /// Number of distinct non-null values.
    pub ndv: u64,
    /// Number of NULLs.
    pub null_count: u64,
    /// Number of non-null values.
    pub non_null: u64,
    /// Equi-depth histogram: `EQUIDEPTH_BUCKETS + 1` sorted quantile
    /// boundaries over the non-null values (first = min, last = max).
    /// Empty exactly when there is no non-null value.
    pub bounds: Vec<i64>,
}

impl ColumnStats {
    /// Compute stats from widened values and a null mask accessor.
    pub fn compute(values: &[i64], is_null: impl Fn(usize) -> bool) -> ColumnStats {
        let mut non_null: Vec<i64> = (0..values.len())
            .filter(|&i| !is_null(i))
            .map(|i| values[i])
            .collect();
        non_null.sort_unstable();
        let nulls = values.len() - non_null.len();
        ColumnStats::of_sorted(&non_null, nulls as u64)
    }

    /// Stats of a column whose non-null values, sorted ascending, are
    /// `sorted`, beside `null_count` NULLs: the one pass every table's
    /// statistics come from.
    pub(crate) fn of_sorted(sorted: &[i64], null_count: u64) -> ColumnStats {
        let (min, max) = (sorted.first().copied(), sorted.last().copied());
        let ndv =
            sorted.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!sorted.is_empty());
        ColumnStats {
            min,
            max,
            ndv: ndv as u64,
            null_count,
            non_null: sorted.len() as u64,
            bounds: equi_depth_bounds(sorted),
        }
    }

    /// Merge statistics from another partition of the same column. NDV
    /// merges by max (a lower bound: distinct sets may overlap entirely) —
    /// documented inaccuracy the skew-resilient join tolerates by design.
    pub fn merge(&mut self, other: &ColumnStats) {
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.ndv = self.ndv.max(other.ndv);
        self.null_count += other.null_count;
        self.non_null += other.non_null;
        // Quantiles of a union cannot be recovered from the partition
        // quantiles exactly; re-sample the pooled boundary points. This is
        // an approximation (partition sizes are not weighted), in the same
        // spirit as the NDV-by-max lower bound above.
        if self.bounds.is_empty() {
            self.bounds = other.bounds.clone();
        } else if !other.bounds.is_empty() {
            let mut pooled: Vec<i64> = self
                .bounds
                .iter()
                .chain(other.bounds.iter())
                .copied()
                .collect();
            pooled.sort_unstable();
            self.bounds = equi_depth_bounds(&pooled);
        }
    }

    /// Fraction of rows that are NULL (0.0 when the column is empty).
    pub fn null_fraction(&self) -> f64 {
        let total = self.non_null + self.null_count;
        if total == 0 {
            0.0
        } else {
            self.null_count as f64 / total as f64
        }
    }

    /// Empirical distribution function from the equi-depth bounds:
    /// estimated fraction of non-null values `<= x`. Requires non-empty
    /// `bounds`.
    fn edf(&self, x: i64) -> f64 {
        let b = &self.bounds;
        let nb = b.len() - 1;
        if nb == 0 {
            return if x >= b[0] { 1.0 } else { 0.0 };
        }
        if x < b[0] {
            return 0.0;
        }
        if x >= b[nb] {
            return 1.0;
        }
        let i = b.partition_point(|&q| q <= x) - 1;
        let lo = b[i] as f64;
        let hi = b[i + 1] as f64;
        let fr = if hi > lo {
            (x as f64 - lo) / (hi - lo)
        } else {
            1.0
        };
        (i as f64 + fr) / nb as f64
    }

    /// Estimated selectivity of `value <op> bound` style range predicates:
    /// fraction of non-null rows in `[lo, hi]` (inclusive, widened
    /// domain), by rank interpolation over the equi-depth histogram (robust
    /// to skew and outlier-stretched domains).
    pub fn range_selectivity(&self, lo: Option<i64>, hi: Option<i64>) -> f64 {
        let (Some(cmin), Some(cmax)) = (self.min, self.max) else {
            return 0.0;
        };
        let lo = lo.unwrap_or(cmin).max(cmin);
        let hi = hi.unwrap_or(cmax).min(cmax);
        if lo > hi {
            return 0.0;
        }
        // P(lo <= v <= hi) = EDF(hi) - EDF(lo - 1) over the integer
        // widened domain; floored at the equality mass so point ranges do
        // not vanish between quantile boundaries.
        let below_lo = lo.checked_sub(1).map_or(0.0, |x| self.edf(x));
        let sel = (self.edf(hi) - below_lo).clamp(0.0, 1.0);
        sel.max(self.eq_selectivity().min(1.0))
    }

    /// Estimated selectivity of an equality predicate (1/NDV, uniform).
    pub fn eq_selectivity(&self) -> f64 {
        if self.ndv == 0 {
            0.0
        } else {
            1.0 / self.ndv as f64
        }
    }
}

/// Quantile boundaries (`EQUIDEPTH_BUCKETS + 1` points, first = min,
/// last = max) of an already-sorted slice. Empty input yields no bounds.
fn equi_depth_bounds(sorted: &[i64]) -> Vec<i64> {
    if sorted.is_empty() {
        return Vec::new();
    }
    let n = sorted.len();
    (0..=EQUIDEPTH_BUCKETS)
        .map(|i| sorted[(i * (n - 1)) / EQUIDEPTH_BUCKETS])
        .collect()
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Total row count.
    pub rows: u64,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Exact statistics of the rows of `chunks`: per column, the non-null
    /// values are copied into one buffer, reused column to column, and
    /// sorted once ([`ColumnStats::of_sorted`]).
    pub(crate) fn of_chunks<'c>(
        chunks: impl Iterator<Item = &'c Chunk> + Clone,
        columns: usize,
    ) -> TableStats {
        let rows: usize = chunks.clone().map(Chunk::rows).sum();
        let mut sorted = Vec::with_capacity(rows);
        let columns = (0..columns)
            .map(|c| {
                sorted.clear();
                for chunk in chunks.clone() {
                    let v = chunk.vector(c);
                    sorted.extend((0..v.len()).filter_map(|i| v.get(i)));
                }
                sorted.sort_unstable();
                ColumnStats::of_sorted(&sorted, (rows - sorted.len()) as u64)
            })
            .collect();
        TableStats {
            rows: rows as u64,
            columns,
        }
    }

    /// Stats for the column at schema index `i`.
    pub fn column(&self, i: usize) -> Option<&ColumnStats> {
        self.columns.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn compute_basic_stats() {
        let values = vec![5i64, 1, 5, 9, 3];
        let s = ColumnStats::compute(&values, |_| false);
        assert_eq!(s.min, Some(1));
        assert_eq!(s.max, Some(9));
        assert_eq!(s.ndv, 4);
        assert_eq!(s.null_count, 0);
        assert_eq!(s.non_null, 5);
    }

    #[test]
    fn nulls_are_excluded() {
        let values = vec![5i64, 0, 7];
        let s = ColumnStats::compute(&values, |i| i == 1);
        assert_eq!(s.min, Some(5));
        assert_eq!(s.null_count, 1);
        assert_eq!(s.ndv, 2);
    }

    #[test]
    fn all_null_column() {
        let values = vec![0i64; 3];
        let s = ColumnStats::compute(&values, |_| true);
        assert_eq!(s.min, None);
        assert_eq!(s.ndv, 0);
        assert_eq!(s.eq_selectivity(), 0.0);
        assert_eq!(s.range_selectivity(Some(0), Some(10)), 0.0);
    }

    #[test]
    fn merge_combines_partitions() {
        let mut a = ColumnStats::compute(&[1, 2, 3], |_| false);
        let b = ColumnStats::compute(&[10, 20], |_| false);
        a.merge(&b);
        assert_eq!(a.min, Some(1));
        assert_eq!(a.max, Some(20));
        assert_eq!(a.non_null, 5);
    }

    #[test]
    fn range_selectivity_uniform_data() {
        let values: Vec<i64> = (0..10_000).collect();
        let s = ColumnStats::compute(&values, |_| false);
        let sel = s.range_selectivity(Some(0), Some(2499));
        assert!((sel - 0.25).abs() < 0.05, "sel = {sel}");
        assert_eq!(s.range_selectivity(Some(20_000), None), 0.0);
        assert!((s.range_selectivity(None, None) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eq_selectivity_is_one_over_ndv() {
        let s = ColumnStats::compute(&[1, 1, 2, 2, 3, 3, 4, 4], |_| false);
        assert!((s.eq_selectivity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn equi_depth_handles_outlier_stretched_domain() {
        // 999 values clustered in [0, 999) plus one outlier at i64::MAX/2.
        // An equi-width histogram lumps the cluster into one bucket; the
        // equi-depth quantiles keep resolution where the data is.
        let mut values: Vec<i64> = (0..999).collect();
        values.push(i64::MAX / 2);
        let s = ColumnStats::compute(&values, |_| false);
        assert_eq!(s.bounds.len(), EQUIDEPTH_BUCKETS + 1);
        assert_eq!(s.bounds[0], 0);
        assert_eq!(*s.bounds.last().unwrap(), i64::MAX / 2);
        let sel = s.range_selectivity(Some(0), Some(499));
        assert!((sel - 0.5).abs() < 0.1, "sel = {sel}");
    }

    #[test]
    fn point_range_floors_at_equality_mass() {
        let values: Vec<i64> = (0..1000).collect();
        let s = ColumnStats::compute(&values, |_| false);
        let sel = s.range_selectivity(Some(500), Some(500));
        assert!(sel >= 1.0 / 1000.0 - 1e-12, "sel = {sel}");
        assert!(sel < 0.05, "sel = {sel}");
    }

    #[test]
    fn null_fraction_counts_nulls() {
        let values = vec![1i64, 0, 2, 0];
        let s = ColumnStats::compute(&values, |i| i % 2 == 1);
        assert!((s.null_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(ColumnStats::compute(&[], |_| false).null_fraction(), 0.0);
    }

    /// The statistics as they were computed before the sorted pass: min and
    /// max by folding, NDV by hashing every value, the non-null count and
    /// the quantile bounds from a second pass.
    fn hashed_reference(values: &[i64], is_null: impl Fn(usize) -> bool) -> ColumnStats {
        let mut min = None;
        let mut max = None;
        let mut null_count = 0u64;
        let mut distinct = std::collections::HashSet::new();
        for (i, &v) in values.iter().enumerate() {
            if is_null(i) {
                null_count += 1;
                continue;
            }
            min = Some(min.map_or(v, |m: i64| m.min(v)));
            max = Some(max.map_or(v, |m: i64| m.max(v)));
            distinct.insert(v);
        }
        let mut non_null: Vec<i64> = (0..values.len())
            .filter(|&i| !is_null(i))
            .map(|i| values[i])
            .collect();
        non_null.sort_unstable();
        ColumnStats {
            min,
            max,
            ndv: distinct.len() as u64,
            null_count,
            non_null: non_null.len() as u64,
            bounds: equi_depth_bounds(&non_null),
        }
    }

    #[test]
    fn empty_and_all_null_columns_match_the_hashed_reference() {
        for (values, nulls) in [(vec![], 0), (vec![0i64; 5], 5), (vec![i64::MIN, 0], 1)] {
            let is_null = |i: usize| i < nulls;
            assert_eq!(
                ColumnStats::compute(&values, is_null),
                hashed_reference(&values, is_null)
            );
        }
    }

    proptest! {
        #[test]
        fn the_sorted_pass_matches_the_hashed_reference(
            column in proptest::collection::vec(
                proptest::option::of(prop_oneof![
                    Just(i64::MIN),
                    Just(i64::MAX),
                    -8i64..8,
                    any::<i64>(),
                ]),
                0..80,
            ),
            all_null in any::<bool>(),
        ) {
            let values: Vec<i64> = column.iter().map(|v| v.unwrap_or(0)).collect();
            let is_null = |i: usize| all_null || column[i].is_none();
            let (got, want) = (
                ColumnStats::compute(&values, is_null),
                hashed_reference(&values, is_null),
            );
            prop_assert_eq!(got.min, want.min);
            prop_assert_eq!(got.max, want.max);
            prop_assert_eq!(got.ndv, want.ndv);
            prop_assert_eq!(got.null_count, want.null_count);
            prop_assert_eq!(got.non_null, want.non_null);
            prop_assert_eq!(&got.bounds, &want.bounds);
        }
    }

    #[test]
    fn merged_bounds_cover_both_partitions() {
        let mut a = ColumnStats::compute(&(0..100).collect::<Vec<i64>>(), |_| false);
        let b = ColumnStats::compute(&(100..200).collect::<Vec<i64>>(), |_| false);
        a.merge(&b);
        assert_eq!(a.bounds.first(), Some(&0));
        assert_eq!(a.bounds.last(), Some(&199));
        let sel = a.range_selectivity(Some(0), Some(99));
        assert!((sel - 0.5).abs() < 0.15, "sel = {sel}");
    }
}
