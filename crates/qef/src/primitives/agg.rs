//! Aggregation primitives: ungrouped and dense-grouped accumulators.
//!
//! Aggregates run on DSB mantissas, so SUM/MIN/MAX of a decimal column are
//! plain integer loops; AVG is carried as (sum, count) and finalized at the
//! result boundary. NULLs are skipped per SQL semantics.
//!
//! Every state is a `(value, count)` pair, so one state serves every
//! aggregate of an input that reads those two: a group table keeps one
//! accumulator for SUM, AVG and COUNT of a column
//! ([`crate::ops::groupby::accumulators`]), folds it once per row, and
//! [`AggState::finalize`] reads each aggregate's value from it — SUM the
//! value, COUNT the count, AVG the one over the other.

use dpu_sim::account::Kernel;
use rapid_storage::vector::Vector;
use serde::{Deserialize, Serialize};

use crate::batch::Positions;
use crate::error::{QefError, QefResult};
use crate::exec::CoreCtx;
use crate::primitives::costs;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// SUM (output scale = input scale).
    Sum,
    /// MIN.
    Min,
    /// MAX.
    Max,
    /// COUNT of non-null inputs (COUNT(*) counts a non-null key column).
    Count,
    /// AVG carried as SUM plus COUNT; finalized by the consumer.
    Avg,
}

/// One accumulator cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggState {
    /// Running sum (SUM/AVG) or current extremum (MIN/MAX).
    pub value: i64,
    /// Non-null rows folded in.
    pub count: i64,
}

impl AggState {
    /// Neutral state for a function.
    pub fn init(f: AggFunc) -> AggState {
        match f {
            AggFunc::Min => AggState {
                value: i64::MAX,
                count: 0,
            },
            AggFunc::Max => AggState {
                value: i64::MIN,
                count: 0,
            },
            _ => AggState { value: 0, count: 0 },
        }
    }

    /// Fold one non-null value.
    #[inline]
    pub fn update(&mut self, f: AggFunc, v: i64) -> QefResult<()> {
        match f {
            AggFunc::Sum | AggFunc::Avg => {
                self.value = self
                    .value
                    .checked_add(v)
                    .ok_or_else(|| QefError::NumericOverflow("SUM".into()))?;
            }
            AggFunc::Min => self.value = self.value.min(v),
            AggFunc::Max => self.value = self.value.max(v),
            AggFunc::Count => {}
        }
        self.count += 1;
        Ok(())
    }

    /// Merge a partial state (cross-core merge operator).
    pub fn merge(&mut self, f: AggFunc, other: &AggState) -> QefResult<()> {
        match f {
            AggFunc::Sum | AggFunc::Avg => {
                self.value = self
                    .value
                    .checked_add(other.value)
                    .ok_or_else(|| QefError::NumericOverflow("SUM merge".into()))?;
            }
            AggFunc::Min => self.value = self.value.min(other.value),
            AggFunc::Max => self.value = self.value.max(other.value),
            AggFunc::Count => {}
        }
        self.count += other.count;
        Ok(())
    }

    /// The final widened value (AVG divides here at the carried scale,
    /// rounding half away from zero like every other division in the
    /// engine; the host Volcano executor mirrors this exactly).
    pub fn finalize(&self, f: AggFunc) -> Option<i64> {
        match f {
            AggFunc::Count => Some(self.count),
            AggFunc::Avg => {
                if self.count == 0 {
                    None
                } else {
                    crate::primitives::arith::div_round_half_away(self.value, self.count)
                }
            }
            AggFunc::Min | AggFunc::Max | AggFunc::Sum => {
                if self.count == 0 {
                    None // SQL: aggregate of empty set is NULL
                } else {
                    Some(self.value)
                }
            }
        }
    }
}

/// Fold a column into per-group states via a dense group-index vector
/// (produced by the group-by operator's hash table): the column arrives in
/// pieces, each with where its rows lie, one group index per row in order.
pub fn agg_grouped<'v>(
    ctx: &mut CoreCtx,
    f: AggFunc,
    col: impl Iterator<Item = (&'v Vector, Positions<'v>)>,
    group_idx: &[u32],
    states: &mut [AggState],
) -> QefResult<()> {
    let mut groups = group_idx.iter();
    for (piece, at) in col {
        for (i, &g) in at.iter().zip(groups.by_ref()) {
            if !piece.is_null(i) {
                states[g as usize].update(f, piece.data.get_i64(i))?;
            }
        }
    }
    debug_assert!(groups.next().is_none(), "a group index per row");
    ctx.charge_kernel(
        Kernel::Aggregate,
        &costs::grouped_agg_per_row().scaled(group_idx.len() as f64),
    );
    Ok(())
}

/// [`agg_grouped`] of rows that are all one group's, `state`: the same fold
/// and the same charge, with no group index to read.
pub fn agg_one<'v>(
    ctx: &mut CoreCtx,
    f: AggFunc,
    col: impl Iterator<Item = (&'v Vector, Positions<'v>)>,
    state: &mut AggState,
) -> QefResult<()> {
    let mut rows = 0;
    for (piece, at) in col {
        for i in at.iter() {
            rows += 1;
            if !piece.is_null(i) {
                state.update(f, piece.data.get_i64(i))?;
            }
        }
    }
    ctx.charge_kernel(
        Kernel::Aggregate,
        &costs::grouped_agg_per_row().scaled(rows as f64),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;
    use rapid_storage::bitvec::BitVec;
    use rapid_storage::vector::ColumnData;

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    /// Every row of `col`, as one piece.
    fn whole(col: &Vector) -> impl Iterator<Item = (&Vector, Positions<'_>)> {
        std::iter::once((col, Positions::dense(0, col.len())))
    }

    #[test]
    fn ungrouped_sum_min_max_count() {
        let mut c = ctx();
        let col = Vector::new(ColumnData::I64(vec![5, -2, 9, 0]));
        for (f, expect) in [
            (AggFunc::Sum, Some(12)),
            (AggFunc::Min, Some(-2)),
            (AggFunc::Max, Some(9)),
            (AggFunc::Count, Some(4)),
            (AggFunc::Avg, Some(3)),
        ] {
            let mut s = AggState::init(f);
            agg_grouped(
                &mut c,
                f,
                whole(&col),
                &[0; 4],
                std::slice::from_mut(&mut s),
            )
            .unwrap();
            assert_eq!(s.finalize(f), expect, "{f:?}");
        }
    }

    #[test]
    fn nulls_are_skipped() {
        let mut c = ctx();
        let mut nulls = BitVec::zeros(3);
        nulls.set(0, true);
        let col = Vector::with_nulls(ColumnData::I64(vec![100, 2, 4]), nulls);
        let mut s = AggState::init(AggFunc::Sum);
        agg_grouped(
            &mut c,
            AggFunc::Sum,
            whole(&col),
            &[0; 3],
            std::slice::from_mut(&mut s),
        )
        .unwrap();
        assert_eq!(s.finalize(AggFunc::Sum), Some(6));
        assert_eq!(s.count, 2);
    }

    #[test]
    fn empty_set_aggregates_to_null() {
        let s = AggState::init(AggFunc::Sum);
        assert_eq!(s.finalize(AggFunc::Sum), None);
        assert_eq!(s.finalize(AggFunc::Avg), None);
        assert_eq!(
            AggState::init(AggFunc::Count).finalize(AggFunc::Count),
            Some(0)
        );
    }

    #[test]
    fn grouped_aggregation() {
        let mut c = ctx();
        let col = Vector::new(ColumnData::I64(vec![1, 2, 3, 4, 5]));
        let groups = vec![0u32, 1, 0, 1, 0];
        let mut states = vec![AggState::init(AggFunc::Sum); 2];
        agg_grouped(&mut c, AggFunc::Sum, whole(&col), &groups, &mut states).unwrap();
        assert_eq!(states[0].finalize(AggFunc::Sum), Some(9));
        assert_eq!(states[1].finalize(AggFunc::Sum), Some(6));
    }

    #[test]
    fn merge_combines_partials() {
        let mut a = AggState::init(AggFunc::Min);
        a.update(AggFunc::Min, 5).unwrap();
        let mut b = AggState::init(AggFunc::Min);
        b.update(AggFunc::Min, 3).unwrap();
        a.merge(AggFunc::Min, &b).unwrap();
        assert_eq!(a.finalize(AggFunc::Min), Some(3));
        assert_eq!(a.count, 2);
    }

    #[test]
    fn sum_overflow_detected() {
        let mut s = AggState {
            value: i64::MAX,
            count: 1,
        };
        assert!(s.update(AggFunc::Sum, 1).is_err());
    }

    #[test]
    fn merge_overflow_detected() {
        // Cross-core merge must hit the same overflow a sequential sum
        // would: two half-range partials cannot silently wrap.
        let half = AggState {
            value: i64::MAX / 2 + 1,
            count: 1,
        };
        let mut a = half;
        assert!(a.merge(AggFunc::Sum, &half).is_err());
        let mut b = AggState {
            value: i64::MIN / 2 - 1,
            count: 1,
        };
        assert!(b
            .merge(
                AggFunc::Avg,
                &AggState {
                    value: i64::MIN / 2 - 1,
                    count: 1,
                }
            )
            .is_err());
    }

    #[test]
    fn min_overflow_boundary_values_pass_through() {
        // MIN/MAX never do arithmetic, so i64::MIN / i64::MAX are fine.
        let mut s = AggState::init(AggFunc::Min);
        s.update(AggFunc::Min, i64::MIN).unwrap();
        s.update(AggFunc::Min, i64::MAX).unwrap();
        assert_eq!(s.finalize(AggFunc::Min), Some(i64::MIN));
        let mut s = AggState::init(AggFunc::Max);
        s.update(AggFunc::Max, i64::MIN).unwrap();
        s.update(AggFunc::Max, i64::MAX).unwrap();
        assert_eq!(s.finalize(AggFunc::Max), Some(i64::MAX));
    }

    #[test]
    fn avg_rounds_half_away_from_zero() {
        for (sum, count, expect) in [
            (7i64, 2i64, 4i64), // 3.5 -> 4
            (-7, 2, -4),        // -3.5 -> -4
            (5, 2, 3),          // 2.5 -> 3
            (-5, 2, -3),        // -2.5 -> -3
            (1, 3, 0),          // 0.33 -> 0
            (-1, 3, 0),         // -0.33 -> 0
            (2, 3, 1),          // 0.67 -> 1
            (-2, 3, -1),        // -0.67 -> -1
            (i64::MIN, 1, i64::MIN),
            (i64::MAX, 1, i64::MAX),
        ] {
            let s = AggState { value: sum, count };
            assert_eq!(s.finalize(AggFunc::Avg), Some(expect), "{sum}/{count}");
        }
    }
}
