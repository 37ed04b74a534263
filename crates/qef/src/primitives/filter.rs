//! Filter primitives: vectorized predicate evaluation over column vectors.
//!
//! These are the Rust rendering of Listing 1
//! (`rpdmpr_bvflt_ub4_OPT_TYPE_EQ_cval`): a tight loop applying one compare
//! against a constant to every candidate row, reading candidates from a
//! previous bit-vector and writing the surviving bit-vector. The macro
//! expands the template for every physical type × comparison operator,
//! mirroring the primitive generator framework.

use dpu_sim::account::Kernel;
use std::ops::Range;

use rapid_storage::bitvec::BitVec;
use rapid_storage::vector::{ColumnData, Vector};

use crate::exec::CoreCtx;
use crate::primitives::costs;

/// Comparison operators of the filter primitive family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to two widened values.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The operator with operand order flipped (`a op b` ⇔ `b op' a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

macro_rules! cmp_loop {
    ($data:expr, $cval:expr, $op:expr, $emit:expr) => {{
        let c = $cval;
        match $op {
            CmpOp::Eq => {
                for (i, &v) in $data.iter().enumerate() {
                    $emit(i, v == c);
                }
            }
            CmpOp::Ne => {
                for (i, &v) in $data.iter().enumerate() {
                    $emit(i, v != c);
                }
            }
            CmpOp::Lt => {
                for (i, &v) in $data.iter().enumerate() {
                    $emit(i, v < c);
                }
            }
            CmpOp::Le => {
                for (i, &v) in $data.iter().enumerate() {
                    $emit(i, v <= c);
                }
            }
            CmpOp::Gt => {
                for (i, &v) in $data.iter().enumerate() {
                    $emit(i, v > c);
                }
            }
            CmpOp::Ge => {
                for (i, &v) in $data.iter().enumerate() {
                    $emit(i, v >= c);
                }
            }
        }
    }};
}

/// Dispatch a typed compare loop over the column's physical variant; the
/// constant is narrowed once per tile. Out-of-range constants resolve the
/// predicate statically (e.g. `i8 column < 1000` is always true).
macro_rules! dispatch_cmp {
    ($col:expr, $rows:expr, $cval:expr, $op:expr, $emit:expr) => {{
        let rows: Range<usize> = $rows;
        match $col {
            ColumnData::I8(d) => match i8::try_from($cval) {
                Ok(c) => cmp_loop!(d[rows], c, $op, $emit),
                Err(_) => {
                    let always = static_truth($cval, $op, i8::MIN as i64, i8::MAX as i64);
                    for i in 0..rows.len() {
                        $emit(i, always);
                    }
                }
            },
            ColumnData::I16(d) => match i16::try_from($cval) {
                Ok(c) => cmp_loop!(d[rows], c, $op, $emit),
                Err(_) => {
                    let always = static_truth($cval, $op, i16::MIN as i64, i16::MAX as i64);
                    for i in 0..rows.len() {
                        $emit(i, always);
                    }
                }
            },
            ColumnData::I32(d) => match i32::try_from($cval) {
                Ok(c) => cmp_loop!(d[rows], c, $op, $emit),
                Err(_) => {
                    let always = static_truth($cval, $op, i32::MIN as i64, i32::MAX as i64);
                    for i in 0..rows.len() {
                        $emit(i, always);
                    }
                }
            },
            ColumnData::I64(d) => cmp_loop!(d[rows], $cval, $op, $emit),
        }
    }};
}

/// Truth value of `v op cval` when `cval` lies outside the column's
/// physical domain `[lo, hi]` (so the answer is row-independent).
fn static_truth(cval: i64, op: CmpOp, lo: i64, hi: i64) -> bool {
    debug_assert!(cval < lo || cval > hi);
    let above = cval > hi; // constant above every possible value
    match op {
        CmpOp::Eq => false,
        CmpOp::Ne => true,
        CmpOp::Lt | CmpOp::Le => above, // v < big-const is always true
        CmpOp::Gt | CmpOp::Ge => !above, // v > small-const is always true
    }
}

/// Clear the bits of `out` — one per row of `rows` — whose row of `col` is
/// NULL: NULL rows never qualify.
fn clear_nulls(out: &mut BitVec, col: &Vector, rows: &Range<usize>) {
    if let Some(nulls) = &col.nulls {
        for (bit, row) in rows.clone().enumerate() {
            if nulls.get(row) {
                out.set(bit, false);
            }
        }
    }
}

/// Evaluate `col <op> cval` over rows `rows` of a vector, read where they
/// lie, producing a bit-vector of them. NULL rows never qualify.
pub fn cmp_const_bv(
    ctx: &mut CoreCtx,
    col: &Vector,
    rows: Range<usize>,
    op: CmpOp,
    cval: i64,
) -> BitVec {
    let mut out = BitVec::zeros(rows.len());
    dispatch_cmp!(&col.data, rows.clone(), cval, op, |i, q: bool| {
        if q {
            out.set(i, true);
        }
    });
    clear_nulls(&mut out, col, &rows);
    ctx.charge_kernel(
        Kernel::Predicate,
        &costs::filter_per_row().scaled(rows.len() as f64),
    );
    out
}

/// Evaluate `col BETWEEN lo AND hi` (inclusive) over rows `rows`.
pub fn between_bv(ctx: &mut CoreCtx, col: &Vector, rows: Range<usize>, lo: i64, hi: i64) -> BitVec {
    let mut out = cmp_const_bv(ctx, col, rows.clone(), CmpOp::Ge, lo);
    let hi_bv = cmp_const_bv(ctx, col, rows, CmpOp::Le, hi);
    out.and_with(&hi_bv);
    out
}

/// Evaluate `col IN <code set>` over rows `rows`, where the set is a bitmap
/// over dictionary codes (how string IN-lists and post-update range
/// predicates compile).
pub fn in_code_set_bv(
    ctx: &mut CoreCtx,
    col: &Vector,
    rows: Range<usize>,
    codes: &BitVec,
) -> BitVec {
    let mut out = BitVec::zeros(rows.len());
    // One typed loop per stored width: codes are as narrow as the
    // dictionary lets them be.
    fn probe<T: Copy + Into<i64>>(codes: &BitVec, data: &[T], out: &mut BitVec) {
        for (i, &c) in data.iter().enumerate() {
            let c: i64 = c.into();
            if c >= 0 && (c as usize) < codes.len() && codes.get(c as usize) {
                out.set(i, true);
            }
        }
    }
    match &col.data {
        ColumnData::I8(d) => probe(codes, &d[rows.clone()], &mut out),
        ColumnData::I16(d) => probe(codes, &d[rows.clone()], &mut out),
        ColumnData::I32(d) => probe(codes, &d[rows.clone()], &mut out),
        ColumnData::I64(d) => probe(codes, &d[rows.clone()], &mut out),
    }
    clear_nulls(&mut out, col, &rows);
    // Bitmap probe: one extra load vs the compare loop.
    let mut k = costs::filter_per_row();
    k.lsu += 1.0;
    ctx.charge_kernel(Kernel::Predicate, &k.scaled(rows.len() as f64));
    out
}

/// Column-vs-column compare (e.g. `l_commitdate < l_receiptdate`) over rows
/// `rows` of both.
pub fn cmp_col_bv(
    ctx: &mut CoreCtx,
    a: &Vector,
    rows: Range<usize>,
    op: CmpOp,
    b: &Vector,
) -> BitVec {
    debug_assert_eq!(a.len(), b.len());
    let mut out = BitVec::zeros(rows.len());
    for (bit, i) in rows.clone().enumerate() {
        if !a.is_null(i) && !b.is_null(i) && op.apply(a.data.get_i64(i), b.data.get_i64(i)) {
            out.set(bit, true);
        }
    }
    let mut k = costs::filter_per_row();
    k.lsu += 1.0; // second operand load
    ctx.charge_kernel(Kernel::Predicate, &k.scaled(rows.len() as f64));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CoreCtx, ExecContext};

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    fn col_i32(vals: &[i32]) -> Vector {
        Vector::new(ColumnData::I32(vals.to_vec()))
    }

    #[test]
    fn all_ops_match_scalar_semantics() {
        let mut c = ctx();
        let col = col_i32(&[5, 7, 7, 9, -3]);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let bv = cmp_const_bv(&mut c, &col, 0..col.len(), op, 7);
            for i in 0..col.len() {
                assert_eq!(
                    bv.get(i),
                    op.apply(col.data.get_i64(i), 7),
                    "{op:?} row {i}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_constants_resolve_statically() {
        let mut c = ctx();
        let col = Vector::new(ColumnData::I8(vec![1, 2, 3]));
        assert_eq!(
            cmp_const_bv(&mut c, &col, 0..col.len(), CmpOp::Lt, 1000).count_ones(),
            3
        );
        assert_eq!(
            cmp_const_bv(&mut c, &col, 0..col.len(), CmpOp::Gt, 1000).count_ones(),
            0
        );
        assert_eq!(
            cmp_const_bv(&mut c, &col, 0..col.len(), CmpOp::Eq, 1000).count_ones(),
            0
        );
        assert_eq!(
            cmp_const_bv(&mut c, &col, 0..col.len(), CmpOp::Ne, -1000).count_ones(),
            3
        );
        assert_eq!(
            cmp_const_bv(&mut c, &col, 0..col.len(), CmpOp::Gt, -1000).count_ones(),
            3
        );
    }

    #[test]
    fn nulls_never_qualify() {
        use rapid_storage::bitvec::BitVec as BV;
        let mut c = ctx();
        let mut nulls = BV::zeros(3);
        nulls.set(1, true);
        let col = Vector::with_nulls(ColumnData::I32(vec![5, 5, 5]), nulls);
        let bv = cmp_const_bv(&mut c, &col, 0..col.len(), CmpOp::Eq, 5);
        assert_eq!(bv.count_ones(), 2);
        assert!(!bv.get(1));
    }

    #[test]
    fn between_is_inclusive() {
        let mut c = ctx();
        let col = col_i32(&[1, 2, 3, 4, 5]);
        let bv = between_bv(&mut c, &col, 0..col.len(), 2, 4);
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn in_code_set_on_dictionary_codes_of_every_width() {
        let mut c = ctx();
        let mut codes = BitVec::zeros(4);
        codes.set(1, true);
        codes.set(3, true);
        for width in [1, 2, 4, 8] {
            let mut data = ColumnData::with_width(width, 6);
            for code in [0, 1, 2, 1, 3, 9] {
                data.push_i64(code);
            }
            let mut nulls = BitVec::zeros(6);
            nulls.set(3, true);
            let col = Vector::with_nulls(data, nulls);
            let bv = in_code_set_bv(&mut c, &col, 0..col.len(), &codes);
            assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![1, 4], "{width}");
            let bv = in_code_set_bv(&mut c, &col, 2..6, &codes);
            assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![2], "{width}");
        }
    }

    #[test]
    fn col_vs_col_compare() {
        let mut c = ctx();
        let a = col_i32(&[1, 5, 3]);
        let b = col_i32(&[2, 4, 3]);
        let bv = cmp_col_bv(&mut c, &a, 0..a.len(), CmpOp::Lt, &b);
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![0]);
        let bv = cmp_col_bv(&mut c, &a, 0..a.len(), CmpOp::Ge, &b);
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn costs_are_charged_on_dpu_backend() {
        let mut c = ctx();
        let col = col_i32(&[0; 1000]);
        let before = c.account.compute_cycles().get();
        cmp_const_bv(&mut c, &col, 0..col.len(), CmpOp::Eq, 0);
        let after = c.account.compute_cycles().get();
        assert!(after - before >= 1000.0, "at least 1 cycle/row charged");
    }

    #[test]
    fn flipped_operators() {
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.flipped(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.flipped(), CmpOp::Eq);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::exec::ExecContext;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn bv_matches_naive_filter(
            vals in proptest::collection::vec(any::<i16>(), 0..300),
            cval in any::<i16>(),
            op_idx in 0usize..6,
        ) {
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            let op = ops[op_idx];
            let mut ctx = crate::exec::CoreCtx::new(&ExecContext::dpu(), 0);
            let col = Vector::new(ColumnData::I16(vals.clone()));
            let bv = cmp_const_bv(&mut ctx, &col, 0..col.len(), op, cval as i64);
            for (i, &v) in vals.iter().enumerate() {
                prop_assert_eq!(bv.get(i), op.apply(v as i64, cval as i64));
            }
        }
    }
}
