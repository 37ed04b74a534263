//! The Map operator: the expressions of a projection, evaluated vectorized.
//!
//! In a task's lane a Map writes only what it computes. Over rows still read
//! in place ([`Rows::InPlace`]) each computed expression becomes a vector of
//! the lane's own, one value per row that counts, and every column the Map
//! only passes through stays where the scan left it — a selection over the
//! tiles the DMS streamed is read through, not compacted
//! ([`Rows::charge_select`]). Over a batch the computed columns are new
//! buffers and the passed-through ones move across ([`map_batch`]).

use rapid_storage::vector::Vector;

use crate::batch::{empty_vector, Batch, Col, Projection, Rows};
use crate::error::QefResult;
use crate::exec::CoreCtx;
use crate::expr::Expr;
use crate::plan::NamedExpr;

/// A Map node in a task's lane. Over rows read in place its computed
/// expressions are evaluated over the columns they read, taken where they
/// lie, and handed on beside the rows as vectors the lane wrote; the bare
/// columns it chooses stay where they are, and where it computes nothing it
/// writes nothing. Over rows of the lane's own it is [`map_batch`].
pub fn map_rows<'a>(
    core: &mut CoreCtx,
    mut rows: Rows<'a>,
    exprs: &[NamedExpr],
) -> QefResult<Rows<'a>> {
    let projection = match &mut rows {
        Rows::Owned(_) => None,
        Rows::InPlace { projection, .. } => Some(projection),
    };
    let Some(projection) = projection else {
        let Rows::Owned(batch) = rows else {
            unreachable!("rows are in place or owned")
        };
        return map_batch(core, batch, exprs).map(Rows::Owned);
    };
    let bare = |e: &NamedExpr| match e.expr {
        Expr::Col(c) => projection.get(c),
        _ => None,
    };
    if let Some(chosen) = exprs.iter().map(bare).collect::<Option<Vec<Col>>>() {
        core.charge_tile();
        *projection = Projection::Chosen(chosen);
        return Ok(rows);
    }
    // The columns the computed expressions read, taken where they lie.
    let width = rows.width();
    let computes = |e: &&NamedExpr| !matches!(e.expr, Expr::Col(c) if c < width);
    let reads = |c: &usize| {
        exprs
            .iter()
            .filter(computes)
            .any(|e| e.expr.reads_column(*c))
    };
    let read = (0..width).filter(reads);
    rows.charge_select(core, read.clone());
    let inputs = rows.columns_at(read);
    let mut cols: Vec<Option<Vector>> = vec![None; exprs.len()];
    for i in 0..exprs.len() {
        compute_expr(core, &inputs, rows.rows(), exprs, &mut cols, i)?;
    }
    core.charge_tile();
    let Rows::InPlace {
        span,
        projection,
        pick,
        mut written,
    } = rows
    else {
        unreachable!("matched above")
    };
    // A bare column stays where it lies, a computed one goes to `written`.
    written.reserve(cols.iter().flatten().count());
    let chosen = exprs.iter().zip(cols).map(|(e, v)| match (v, &e.expr) {
        (Some(v), _) => {
            written.push(v);
            Col::Written(written.len() - 1)
        }
        (None, Expr::Col(c)) => projection.at(*c),
        (None, _) => unreachable!("compute_expr computes every expression but a bare column"),
    });
    let chosen = chosen.collect();
    Ok(Rows::InPlace {
        span,
        projection: Projection::Chosen(chosen),
        pick,
        written,
    })
}

/// Evaluate a Map node's expressions over one batch. Computed columns are
/// new buffers; a column that is only passed through is not rewritten and
/// moves from the input to the output on its last use. Each expression is
/// computed once: one that recurs inside another is evaluated first and
/// read, borrowed, where the other needs it ([`Expr::eval_sharing`]).
pub fn map_batch(core: &mut CoreCtx, mut batch: Batch, exprs: &[NamedExpr]) -> QefResult<Batch> {
    let mut cols: Vec<Option<Vector>> = vec![None; exprs.len()];
    for i in 0..exprs.len() {
        compute_expr(core, &batch.columns, batch.rows(), exprs, &mut cols, i)?;
    }
    core.charge_tile();
    for (i, e) in exprs.iter().enumerate() {
        if let (None, Expr::Col(c)) = (&cols[i], &e.expr) {
            let used_again = exprs[i + 1..].iter().any(|later| later.expr == e.expr);
            cols[i] = Some(if used_again {
                batch.columns[*c].clone()
            } else {
                std::mem::replace(&mut batch.columns[*c], empty_vector())
            });
        }
    }
    Ok(Batch::new(cols.into_iter().flatten().collect()))
}

/// Compute expression `i` of a Map over `rows` rows of `inputs` into
/// `cols[i]`, unless it is a bare column of them or computed already: the
/// Map's expressions it contains first, then it, reading those.
fn compute_expr(
    core: &mut CoreCtx,
    inputs: &[Vector],
    rows: usize,
    exprs: &[NamedExpr],
    cols: &mut [Option<Vector>],
    i: usize,
) -> QefResult<()> {
    let expr = &exprs[i].expr;
    if cols[i].is_some() || matches!(expr, Expr::Col(c) if *c < inputs.len()) {
        return Ok(());
    }
    for k in 0..exprs.len() {
        if expr.contains(&exprs[k].expr) {
            compute_expr(core, inputs, rows, exprs, cols, k)?;
        }
    }
    let done = |sub: &Expr| {
        let mut computed = exprs.iter().zip(cols.iter());
        computed.find_map(|(e, v)| v.as_ref().filter(|_| e.expr == *sub))
    };
    let v = expr.eval_sharing(core, inputs, rows, &done)?.into_owned();
    cols[i] = Some(v);
    Ok(())
}
