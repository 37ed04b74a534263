//! A join writes only the columns above it read: for every TPC-H statement,
//! in the order the join-order search picks and in the declared one, at sf
//! 0.01, 0.02, 0.05 and 0.1, every column a join writes is read by an
//! operator above it or is a column of the result, no Map of bare columns
//! sits over a scan or a join (the scan's or the join's column list is the
//! projection), and the DPU, native and Volcano engines return the same
//! rows.

use std::collections::BTreeSet;
use std::sync::Arc;

use hostdb::db::decode_batch;
use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::qef::expr::Expr;
use rapid::qef::plan::{Catalog, PlanNode, WindowFunc};
use rapid_fuzz::canonical;

fn engine(catalog: &Catalog, ctx: ExecContext) -> Engine {
    let mut engine = Engine::new(ctx);
    for t in catalog.values() {
        engine.load_table(Arc::clone(t));
    }
    engine
}

/// `plan`'s rows on `engine`, canonical.
fn rows_on(engine: &Engine, plan: &PlanNode) -> Vec<Vec<String>> {
    let (out, _) = engine.execute(plan).expect("execute");
    canonical(&decode_batch(&out.batch, &out.meta, engine.catalog()))
}

fn arity(plan: &PlanNode, catalog: &Catalog) -> usize {
    plan.output_widths(catalog).expect("widths").len()
}

/// Walk `plan`, `read` the columns of its output something above it reads
/// (every one at the root: the result), and report every join column no one
/// reads. A join nothing above reads at all writes its
/// one narrowest column, for the rows to be counted; that is no dead column.
fn unread(plan: &PlanNode, read: BTreeSet<usize>, catalog: &Catalog, out: &mut Vec<String>) {
    fn cols(expr: &Expr) -> Vec<usize> {
        let mut refs = Vec::new();
        expr.referenced_columns(&mut refs);
        refs
    }
    let below: Vec<BTreeSet<usize>> = match plan {
        PlanNode::Scan { .. } => Vec::new(),
        PlanNode::Filter { pred, .. } => {
            let mut refs = Vec::new();
            pred.referenced_columns(&mut refs);
            vec![read.into_iter().chain(refs).collect()]
        }
        PlanNode::Map { exprs, .. } => vec![exprs.iter().flat_map(|e| cols(&e.expr)).collect()],
        PlanNode::HashJoin {
            probe,
            build_keys,
            probe_keys,
            output,
            ..
        } => {
            if !(read.is_empty() && output.len() == 1) {
                let dead = (0..output.len()).filter(|c| !read.contains(c));
                out.extend(dead.map(|c| format!("column {c} of {output:?}")));
            }
            let width = arity(probe, catalog);
            let of_probe = output.iter().copied().filter(|&c| c < width);
            let of_build = output.iter().filter_map(|&c| c.checked_sub(width));
            vec![
                build_keys.iter().copied().chain(of_build).collect(),
                probe_keys.iter().copied().chain(of_probe).collect(),
            ]
        }
        PlanNode::GroupBy { keys, aggs, .. } => {
            vec![keys
                .iter()
                .copied()
                .chain(aggs.iter().map(|a| a.col))
                .collect()]
        }
        PlanNode::TopK { order, .. } | PlanNode::Sort { order, .. } => {
            vec![read
                .into_iter()
                .chain(order.iter().map(|k| k.col))
                .collect()]
        }
        PlanNode::Limit { .. } => vec![read],
        PlanNode::SetOp { left, right, .. } => vec![
            (0..arity(left, catalog)).collect(),
            (0..arity(right, catalog)).collect(),
        ],
        PlanNode::Window {
            input,
            partition_by,
            order_by,
            func,
        } => {
            let width = arity(input, catalog);
            let mut reads: BTreeSet<usize> = read.into_iter().filter(|&c| c < width).collect();
            reads.extend(partition_by);
            reads.extend(order_by.iter().map(|k| k.col));
            if let WindowFunc::RunningSum { col } = func {
                reads.insert(*col);
            }
            vec![reads]
        }
    };
    for (input, read) in plan.inputs().zip(below) {
        unread(input, read, catalog, out);
    }
}

/// Every Map of bare columns over a scan or a join in `plan`.
fn bare_maps(plan: &PlanNode, out: &mut Vec<String>) {
    if let PlanNode::Map { input, exprs } = plan {
        let bare = exprs.iter().all(|e| matches!(e.expr, Expr::Col(_)));
        if bare && matches!(**input, PlanNode::Scan { .. } | PlanNode::HashJoin { .. }) {
            out.push(format!("{exprs:?}"));
        }
    }
    plan.inputs().for_each(|input| bare_maps(input, out));
}

#[test]
fn joins_write_only_what_is_read_and_engines_agree() {
    for sf in [0.01, 0.02, 0.05, 0.1] {
        let data = tpch::generate(&tpch::TpchConfig::sf(sf));
        let db = HostDb::new(ExecContext::dpu());
        for t in data.tables() {
            db.import_table(t).expect("load");
        }
        let catalog = db.rapid().read().catalog().clone();
        let dpu = engine(&catalog, ExecContext::dpu());
        let native = engine(&catalog, ExecContext::native(4));
        for (name, plan) in tpch::queries::all() {
            let host = db
                .execute_on_host(&plan)
                .unwrap_or_else(|e| panic!("sf {sf} {name} host: {e}"));
            let host = canonical(&host.rows);
            let mut searched = None;
            for reorder_joins in [true, false] {
                let what = format!("sf {sf} {name} reorder_joins={reorder_joins}");
                let params = CostParams {
                    reorder_joins,
                    ..CostParams::default()
                };
                let compiled = rapid::qcomp::compile(&plan, &catalog, &params)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let mut dead = Vec::new();
                let every = (0..compiled.output.len()).collect();
                unread(&compiled.plan, every, &catalog, &mut dead);
                assert!(dead.is_empty(), "{what}: unread join columns {dead:?}");
                let mut maps = Vec::new();
                bare_maps(&compiled.plan, &mut maps);
                assert!(maps.is_empty(), "{what}: bare Maps {maps:?}");
                // The declared order's plan, where the search kept it, ran
                // already.
                if searched.as_ref() == Some(&compiled.plan) {
                    continue;
                }
                let on_dpu = rows_on(&dpu, &compiled.plan);
                assert_eq!(on_dpu, host, "{what}: DPU vs Volcano");
                assert_eq!(rows_on(&native, &compiled.plan), host, "{what}: native");
                searched = Some(compiled.plan);
            }
        }
    }
}
