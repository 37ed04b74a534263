//! A stage deals its rows over every dpCore (`rapid_qef::budget::Deal`):
//! at sf 0.01, 0.02 and 0.05, every task that ends in a consumer's first
//! stage, and every partition round over batches, that has at least 32 × 64
//! rows runs on all 32 lanes — but where each lane reads a join filter from
//! DRAM, or is a broadcast probe whose build side more lanes would read
//! without shortening the stage; those own whole tiles. The rows are the
//! same on the host, on the simulated DPU and on native threads.

use std::sync::Arc;

use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qef::budget::{Deal, MIN_VECTOR_ROWS};
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::qef::ops::filter::ChunkList;
use rapid::qef::plan::{Catalog, PlanNode};
use rapid::qef::trace::{MemorySink, StageEvent};
use rapid_fuzz::canonical;

const CORES: usize = 32;

fn tpch_catalog(sf: f64) -> (HostDb, Catalog) {
    let data = tpch::generate(&tpch::TpchConfig::sf(sf));
    let db = HostDb::new(ExecContext::dpu());
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let catalog = db.rapid().read().catalog().clone();
    (db, catalog)
}

fn engine(catalog: &Catalog, ctx: ExecContext) -> Engine {
    let mut engine = Engine::new(ctx);
    for t in catalog.values() {
        engine.load_table(Arc::clone(t));
    }
    engine
}

/// The plan's nodes in the tracer's pre-order: a node's id is its place.
fn pre_order<'a>(plan: &'a PlanNode, out: &mut Vec<&'a PlanNode>) {
    out.push(plan);
    plan.inputs().for_each(|child| pre_order(child, out));
}

/// Rows a task's scan lists: the chunks of its table its predicate's zone
/// maps do not rule out ([`ChunkList`]), the rows its lanes are dealt.
fn listed_rows(e: &StageEvent, nodes: &[&PlanNode], catalog: &Catalog) -> usize {
    let (id, ..) = e.operators().last().expect("the event's own operator");
    let PlanNode::Scan { table, pred, .. } = nodes[id as usize] else {
        panic!("{e:?}: a task opens with a scan");
    };
    ChunkList::of(pred.as_ref(), &catalog[table.as_str()].chunks).rows()
}

#[test]
fn small_stages_run_on_every_core_and_return_the_same_rows() {
    let params = CostParams::default();
    let full = CORES * MIN_VECTOR_ROWS;
    for sf in [0.01, 0.02, 0.05] {
        let (db, catalog) = tpch_catalog(sf);
        let sink = MemorySink::new();
        let dpu = engine(&catalog, ExecContext::dpu().with_trace(sink.clone()));
        let native = engine(&catalog, ExecContext::native(4));
        let (mut tasks, mut rounds) = (0, 0);
        for (name, lp) in tpch::queries::all() {
            let compiled = rapid::qcomp::compile(&lp, &catalog, &params).expect("compile");
            let mut nodes = Vec::new();
            pre_order(&compiled.plan, &mut nodes);
            let (out, _) = dpu.execute(&compiled.plan).expect("dpu");
            let (nout, _) = native.execute(&compiled.plan).expect("native");
            let host = db.execute_on_host(&lp).expect("host");
            let rows = |batch, meta| hostdb::db::decode_batch(batch, meta, dpu.catalog());
            let dpu_rows = canonical(&rows(&out.batch, &out.meta));
            assert_eq!(
                dpu_rows,
                canonical(&host.rows),
                "{name} at sf {sf}: DPU vs host"
            );
            assert_eq!(
                dpu_rows,
                canonical(&rows(&nout.batch, &nout.meta)),
                "{name} at sf {sf}: DPU vs native"
            );
            for e in sink.take() {
                let label = e.operator.as_str();
                // What reads a join filter from DRAM: a partitioned join's
                // probe side (a broadcast probe holds its own copy).
                let reads_a_filter = e.filter.is_some() && label != "join.probe";
                if e.scan.is_some() && !label.ends_with(".ranged") {
                    // A task; one that ends in a consumer is named for it.
                    let own = label.starts_with("scan(") || matches!(label, "map" | "filter");
                    let rows = listed_rows(&e, &nodes, &catalog);
                    if own || rows < full {
                        continue;
                    }
                    tasks += 1;
                    if reads_a_filter || label == "join.probe" {
                        // Whole tiles at most: never fewer lanes than whole
                        // 256-row tiles give.
                        let whole = Deal::whole_tiles(rows, 256, CORES).lanes;
                        assert!(e.parallelism >= whole, "{name} {label} at sf {sf}: {e:?}");
                        continue;
                    }
                    assert_eq!(e.parallelism, CORES, "{name} {label} at sf {sf}: {e:?}");
                } else if e.partition.is_some() {
                    // A round over batches.
                    if e.rows < full as u64 || reads_a_filter {
                        continue;
                    }
                    rounds += 1;
                    assert_eq!(e.parallelism, CORES, "{name} {label} at sf {sf}: {e:?}");
                }
            }
        }
        assert!(
            tasks > 0 && rounds > 0,
            "sf {sf}: {tasks} tasks, {rounds} rounds"
        );
    }
}
