//! Q1's task does each piece of work once. At sf 0.02 on 32 cores its one
//! task — `scan(lineitem) → map → groupby.consume` — is pinned to the
//! simulated cycles and the per-kernel split of its compute that five
//! changes leave it with: literal rescales fold at compile time, the map
//! computes `l_extendedprice * (1 - l_discount)` once for the two sums that
//! hold it, SUM, AVG and COUNT of one input share one accumulator, the two
//! one-byte code keys index their group's slot instead of being hashed, and
//! the rows the scan keeps stay in the tiles behind a selection vector: the
//! map reads the three columns it computes from through it and the group
//! table the six it reads, and no column is compacted.

use std::sync::Arc;

use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::qef::expr::Expr;
use rapid::qef::plan::{GroupStrategy, KeyRange, PlanNode};
use rapid::qef::trace::MemorySink;

/// Q1's compute by kernel, summed over the lanes of its task, cycles
/// rounded: `rapid-report trace --sf 0.02 --query Q1`. Before the first
/// four changes the same table read mul 4,401,584, sub 509,027, hash
/// 254,513, group-lookup 1,275,561 and aggregate 3,597,921, and the task's
/// compute 15,850,036 cycles; before the selection vector it read compact
/// 4,799,823 and no select.
const KERNELS: [(&str, f64); 8] = [
    ("predicate", 181_453.0),
    ("select", 1_077_939.0),
    ("add", 254_513.0),
    ("sub", 254_513.0),
    ("mul", 1_467_195.0),
    ("group-slot", 733_597.0),
    ("aggregate", 2_698_441.0),
    ("tile-control", 575_640.0),
];

/// Q1's simulated cycles, rounded; 509,729 before the first four changes
/// and 353,114 before the selection vector.
const Q1_CYCLES: f64 = 233_786.0;

#[test]
fn q1s_task_is_pinned_to_its_cycles_and_its_kernels() {
    let data = tpch::generate(&tpch::TpchConfig::sf(0.02));
    let db = HostDb::new(ExecContext::dpu());
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let catalog = db.rapid().read().catalog().clone();
    let (_, q1) = tpch::queries::all()
        .into_iter()
        .find(|(name, _)| *name == "Q1")
        .expect("Q1");
    let compiled = rapid::qcomp::compile(&q1, &catalog, &CostParams::default()).expect("Q1");

    // The plan: a group-by indexed by the slots of its two code keys over a
    // map of the keys and six inputs — five the aggregates read and the
    // count's — with no literal multiplied at run time.
    let mut node = &compiled.plan;
    while !matches!(node, PlanNode::GroupBy { .. }) {
        node = node.inputs().next().expect("Q1 aggregates");
    }
    let PlanNode::GroupBy {
        input,
        aggs,
        strategy,
        ..
    } = node
    else {
        unreachable!()
    };
    let slots = vec![KeyRange { lo: 0, hi: 2 }, KeyRange { lo: 0, hi: 1 }];
    assert_eq!(*strategy, GroupStrategy::OnTheFly { slots: Some(slots) });
    assert_eq!(aggs.len(), 8);
    let PlanNode::Map { exprs, .. } = input.as_ref() else {
        panic!("{input:?}")
    };
    assert_eq!(exprs.len(), 8, "{exprs:?}");
    fn lit_times_lit(e: &Expr) -> bool {
        match e {
            Expr::Arith { a, b, .. } => {
                matches!((a.as_ref(), b.as_ref()), (Expr::Lit(_), Expr::Lit(_)))
                    || lit_times_lit(a)
                    || lit_times_lit(b)
            }
            _ => false,
        }
    }
    assert!(!exprs.iter().any(|e| lit_times_lit(&e.expr)), "{exprs:?}");

    let sink = MemorySink::new();
    let mut engine = Engine::new(ExecContext::dpu().with_trace(sink.clone()));
    for t in catalog.values() {
        engine.load_table(Arc::clone(t));
    }
    let (_, report) = engine.execute(&compiled.plan).expect("execute");
    assert_eq!(report.sim_cycles.round(), Q1_CYCLES);
    let events = sink.take();
    let task = events
        .iter()
        .find(|e| e.operator == "groupby.consume")
        .expect("Q1's task");
    let kernels: Vec<(&str, f64)> = task
        .kernels
        .iter()
        .map(|k| (k.kernel.as_str(), k.cycles.round()))
        .collect();
    assert_eq!(kernels, KERNELS);
    // The split accounts for the task's compute, summed over its lanes.
    let split: u64 = task.kernels.iter().map(|k| k.instructions).sum();
    assert_eq!(split, task.instructions);
}
