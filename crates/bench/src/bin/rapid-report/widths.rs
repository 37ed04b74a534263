//! `widths`: what the eleven TPC-H statements' scans move against what the
//! values they read need — the table to consult before any further encoding
//! work (ROADMAP item 2(c)).
//!
//! For every column a statement's scans stream — projected or filtered on —
//! it prints the declared bytes (what
//! the cost model prices), the stored bytes (what the load path chose and
//! the DMS moves), the bytes the column's `[min, max]` needs at the DPU's
//! 1/2/4/8-byte widths, and the bits a frame-of-reference encoding of that
//! range would take. For every statement it prints what its scans moved
//! against a floor: the rows each scan handed on times the bits of the
//! columns it handed on, over eight — what a perfect filter over bit-packed
//! columns would move.

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;

use rapid_qcomp::CostParams;
use rapid_qef::engine::Engine;
use rapid_qef::exec::ExecContext;
use rapid_qef::plan::{Catalog, PlanNode};
use rapid_qef::trace::MemorySink;
use rapid_storage::vector::ColumnData;

use crate::args::{Args, UsageError};

pub fn run(mut args: Args) -> Result<ExitCode, UsageError> {
    let sf: f64 = args.value("--sf", 0.02)?;
    args.no_positionals()?;

    let (_db, catalog) = rapid_report::setup_tpch(sf, ExecContext::dpu());
    let sink = MemorySink::new();
    let mut engine = Engine::new(ExecContext::dpu().with_trace(sink.clone()));
    for t in catalog.values() {
        engine.load_table(Arc::clone(t));
    }

    // (table, column) of every scan, and per statement (scans, rows handed
    // on, DMS bytes, floor bytes).
    let mut columns = BTreeSet::new();
    let mut statements = Vec::new();
    for (name, plan) in tpch::queries::all() {
        let compiled = rapid_qcomp::compile(&plan, &catalog, &CostParams::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut nodes = Vec::new();
        pre_order(&compiled.plan, &mut nodes);
        engine
            .execute(&compiled.plan)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (mut scans, mut rows, mut moved, mut floor_bits) = (0, 0u64, 0u64, 0u64);
        for e in sink.take() {
            let Some(bytes) = e.scan_dms_bytes() else {
                continue;
            };
            let (node_id, _, _, handed_on) =
                e.operators().last().expect("a task opens with a scan");
            let PlanNode::Scan {
                table,
                columns: projected,
                pred,
            } = nodes[node_id as usize]
            else {
                panic!("{name}: node {node_id} is no scan");
            };
            let bits: u64 = projected
                .iter()
                .map(|&c| range_bits(&catalog, table, c))
                .sum();
            let mut streamed = projected.clone();
            if let Some(pred) = pred {
                pred.referenced_columns(&mut streamed);
            }
            columns.extend(streamed.into_iter().map(|c| (table.clone(), c)));
            scans += 1;
            rows += handed_on;
            moved += bytes;
            floor_bits += handed_on * bits;
        }
        statements.push((name, scans, rows, moved, floor_bits.div_ceil(8)));
    }

    println!("== columns the eleven statements scan, sf {sf} ==");
    println!(
        "{:28} {:>8} {:>6} {:>6} {:>4}  [min, max]",
        "column", "declared", "stored", "needed", "bits"
    );
    for (table, c) in &columns {
        let t = &catalog[table];
        let field = &t.schema.fields[*c];
        let (lo, hi) = range(&catalog, table, *c);
        println!(
            "{:28} {:>8} {:>6} {:>6} {:>4}  [{lo}, {hi}]",
            format!("{table}.{}", field.name),
            field.dtype.physical_width(),
            t.column_width(*c),
            ColumnData::width_for(lo.min(0), hi.max(0)),
            range_bits(&catalog, table, *c),
        );
    }

    println!(
        "== what each statement's scans move against the floor (rows handed on x bits / 8) =="
    );
    println!(
        "{:5} {:>5} {:>12} {:>12} {:>12} {:>7}",
        "stmt", "scans", "rows", "DMS bytes", "floor", "ratio"
    );
    let (mut all_moved, mut all_floor) = (0, 0);
    for (name, scans, rows, moved, floor) in statements {
        println!(
            "{name:5} {scans:>5} {rows:>12} {moved:>12} {floor:>12} {:>7.2}",
            ratio(moved, floor)
        );
        all_moved += moved;
        all_floor += floor;
    }
    println!(
        "{:5} {:>5} {:>12} {all_moved:>12} {all_floor:>12} {:>7.2}",
        "all",
        "",
        "",
        ratio(all_moved, all_floor)
    );
    Ok(ExitCode::SUCCESS)
}

/// Nodes of `plan` in the pre-order the tracer numbers them in.
fn pre_order<'a>(plan: &'a PlanNode, out: &mut Vec<&'a PlanNode>) {
    out.push(plan);
    plan.inputs().for_each(|child| pre_order(child, out));
}

/// The column's `[min, max]` over its non-NULL values (`[0, 0]` for none).
fn range(catalog: &Catalog, table: &str, col: usize) -> (i64, i64) {
    let stats = &catalog[table].stats.columns[col];
    (stats.min.unwrap_or(0), stats.max.unwrap_or(0))
}

/// Bits a value of the column takes relative to its minimum.
fn range_bits(catalog: &Catalog, table: &str, col: usize) -> u64 {
    let (lo, hi) = range(catalog, table, col);
    u64::from(128 - (hi as i128 - lo as i128).leading_zeros())
}

fn ratio(moved: u64, floor: u64) -> f64 {
    moved as f64 / floor.max(1) as f64
}
