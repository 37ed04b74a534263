//! A broadcast join returns the rows a partitioned one does: every TPC-H
//! statement is compiled as the compiler chooses — its small joins declared
//! with no rounds, each lane building the whole build side's table — and
//! again with every such join partitioned 32 ways, and both plans return the
//! rows of the statement on the Volcano oracle.

use std::sync::Arc;

use hostdb::db::decode_batch;
use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::PlanNode;
use rapid_fuzz::canonical;

/// Every join of no rounds in `plan`, partitioned `scheme` ways instead —
/// its join filter, where it declares one, grown to a word for each of
/// round one's partitions — how many there were.
fn partition_broadcasts(plan: &mut PlanNode, scheme: &[usize]) -> usize {
    let mut rewritten = 0;
    if let PlanNode::HashJoin {
        scheme: s, filter, ..
    } = plan
    {
        if s.is_empty() {
            *s = scheme.to_vec();
            if let Some(bits) = filter {
                *bits = (*bits).max(scheme[0] * rapid::qef::ops::join_filter::MIN_SLICE_BITS);
            }
            rewritten += 1;
        }
    }
    for child in plan.inputs_mut() {
        rewritten += partition_broadcasts(child, scheme);
    }
    rewritten
}

#[test]
fn broadcast_and_partitioned_joins_return_the_same_rows() {
    let data = tpch::generate(&tpch::TpchConfig::sf(0.01));
    let db = HostDb::new(ExecContext::dpu());
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let catalog = db.rapid().read().catalog().clone();
    let mut engine = Engine::new(ExecContext::dpu());
    for t in catalog.values() {
        engine.load_table(Arc::clone(t));
    }
    let mut broadcast = Vec::new();
    for (name, plan) in tpch::queries::all() {
        let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut partitioned = compiled.plan.clone();
        let joins = partition_broadcasts(&mut partitioned, &[32]);
        if joins > 0 {
            broadcast.push((name, joins));
        }
        let run = |plan: &PlanNode| {
            let (out, _) = engine
                .execute(plan)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            canonical(&decode_batch(&out.batch, &out.meta, engine.catalog()))
        };
        let rows = run(&compiled.plan);
        assert_eq!(rows, run(&partitioned), "{name}: broadcast vs [32]");
        let host = db
            .execute_on_host(&plan)
            .unwrap_or_else(|e| panic!("{name} host: {e}"));
        assert_eq!(canonical(&host.rows), rows, "{name}: Volcano vs DPU");
    }
    // At sf 0.01 on 32 cores: Q5's customer join (its supplier join has 100
    // probe rows, fewer than 32 lanes of its 5 build rows), Q9's two,
    // Q10's nation and orders joins, Q12's lineitem and Q18's three.
    assert_eq!(
        broadcast,
        [("Q5", 1), ("Q9", 2), ("Q10", 2), ("Q12", 1), ("Q18", 3)]
    );
}
