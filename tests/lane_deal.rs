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
use rapid::qef::plan::Catalog;
use rapid::qef::stages::{Source, Stage};
use rapid::qef::trace::MemorySink;
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

/// Of a task — a stage of the plan's list whose source is a scan-fed
/// chain — whether it is the chain's own (its topmost node is the stage's)
/// rather than ending in a consumer's first stage, and the rows its scan
/// lists: the chunks of its table its predicate's zone maps do not rule out
/// ([`ChunkList`]), the rows its lanes are dealt.
fn task_of(stage: &Stage<'_>, catalog: &Catalog) -> Option<(bool, usize)> {
    let Source::Task(task, _) = &stage.source else {
        return None;
    };
    let chunks = &catalog[task.chain.table].chunks;
    Some((
        stage.is_chain_own(),
        ChunkList::of(task.chain.pred, chunks).rows(),
    ))
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
            // The stages the engine runs: an event names its entry.
            let list = rapid::qef::stages::lower(&compiled.plan, &catalog, dpu.context())
                .expect("the plan lowers");
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
                let stage = &list[e.entry_id as usize];
                assert_eq!(stage.label().to_string(), label, "{name} at sf {sf}");
                // A task's first round; the rounds after it are over batches.
                let task = task_of(stage, &catalog).filter(|_| e.scan.is_some());
                if let Some((own, rows)) = task {
                    // A task; one that ends in a consumer is named for it.
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
