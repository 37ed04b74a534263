//! Scan access paths over the eleven TPC-H statements at the benchmark's
//! scale factor: against the figures recorded from the commit before scans
//! chose an access path (every scan gathered, one DMS pass per conjunct),
//! no statement takes more simulated cycles or moves more DMS bytes, the
//! scan stages of three of the scan-heavy ones move at least a fifth fewer
//! bytes (scan stages, so that the pin is about scans whatever the stages
//! above them come to move), a scan without a predicate streams unless
//! gathering its one lane is no slower than it was — and the rows are the
//! same on Volcano, the native engine and the simulated DPU.

use std::sync::Arc;

use hostdb::db::decode_batch;
use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::PlanNode;
use rapid::qef::ra::AccessPath;
use rapid::qef::trace::MemorySink;
use rapid_fuzz::canonical;

/// `(statement, simulated cycles, DMS bytes, DMS bytes of its scan
/// stages)` at sf 0.02 on 32 cores, before: `rapid-report trace --sf 0.02`
/// at commit f1c8035, cycles rounded up.
const BEFORE: [(&str, f64, u64, u64); 11] = [
    ("Q1", 703_815.0, 2_530_944, 2_530_944),
    ("Q3", 372_151.0, 2_353_104, 1_245_600),
    ("Q4", 212_443.0, 1_485_408, 1_313_744),
    ("Q5", 576_154.0, 3_125_055, 1_317_752),
    ("Q6", 55_608.0, 413_832, 413_832),
    ("Q9", 1_313_122.0, 8_382_220, 1_789_720),
    ("Q10", 262_230.0, 1_650_176, 985_168),
    ("Q12", 216_037.0, 1_505_340, 1_318_476),
    ("Q14", 109_308.0, 844_124, 806_748),
    ("Q18", 603_616.0, 2_673_536, 1_133_856),
    ("Q19", 133_277.0, 922_616, 807_672),
];

/// `(statement, table, columns scanned, stage cycles)` of every scan
/// without a predicate, before, cycles rounded up (every scan of Q1, Q3,
/// Q4 and Q6 filters).
const UNFILTERED_BEFORE: [(&str, &str, usize, f64); 17] = [
    ("Q5", "nation", 3, 237.0),
    ("Q5", "supplier", 2, 124.0),
    ("Q5", "customer", 2, 1_459.0),
    ("Q5", "lineitem", 4, 164_903.0),
    ("Q9", "nation", 2, 197.0),
    ("Q9", "supplier", 2, 124.0),
    ("Q9", "partsupp", 3, 19_627.0),
    ("Q9", "lineitem", 6, 220_543.0),
    ("Q9", "orders", 2, 27_549.0),
    ("Q10", "nation", 2, 197.0),
    ("Q10", "customer", 5, 6_956.0),
    ("Q12", "orders", 2, 27_549.0),
    ("Q14", "part", 2, 3_735.0),
    ("Q18", "lineitem", 2, 56_900.0),
    ("Q18", "orders", 4, 54_780.0),
    ("Q18", "customer", 2, 2_802.0),
    ("Q19", "part", 4, 6_831.0),
];

/// Pre-order `(table, columns, filtered)` of a plan's nodes, `None` for
/// what is not a scan: the tracer's node ids index it.
fn scans(plan: &PlanNode, out: &mut Vec<Option<(String, usize, bool)>>) {
    out.push(match plan {
        PlanNode::Scan {
            table,
            columns,
            pred,
        } => Some((table.clone(), columns.len(), pred.is_some())),
        _ => None,
    });
    plan.inputs().for_each(|child| scans(child, out));
}

#[test]
fn no_statement_is_slower_or_moves_more_and_unfiltered_scans_stream() {
    let data = tpch::generate(&tpch::TpchConfig::sf(0.02));
    let db = HostDb::new(ExecContext::dpu());
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let catalog = db.rapid().read().catalog().clone();
    let engine = |ctx: ExecContext| {
        let mut engine = Engine::new(ctx);
        for t in catalog.values() {
            engine.load_table(Arc::clone(t));
        }
        engine
    };
    let sink = MemorySink::new();
    let dpu = engine(ExecContext::dpu().with_trace(sink.clone()));
    let native = engine(ExecContext::native(4));

    let (mut streamed, mut a_fifth_fewer) = (0, Vec::new());
    for (name, plan) in tpch::queries::all() {
        let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let run = |engine: &Engine| {
            let (out, report) = engine.execute(&compiled.plan).expect("execute");
            let rows = decode_batch(&out.batch, &out.meta, engine.catalog());
            (rows, report)
        };
        let (rows, report) = run(&dpu);
        let events = sink.take();

        let &(_, cycles, bytes, scan_bytes) = BEFORE
            .iter()
            .find(|(q, ..)| *q == name)
            .unwrap_or_else(|| panic!("{name}: no figure recorded"));
        assert!(
            report.sim_cycles <= cycles,
            "{name}: {} cycles, {cycles} before",
            report.sim_cycles
        );
        assert!(
            report.dms_bytes <= bytes,
            "{name}: {} DMS bytes, {bytes} before",
            report.dms_bytes
        );
        let scanned: u64 = events
            .iter()
            .filter(|e| e.scan.is_some())
            .map(|e| e.dms_bytes)
            .sum();
        assert!(
            scanned <= scan_bytes,
            "{name}: its scans move {scanned} DMS bytes, {scan_bytes} before"
        );
        if scanned * 5 <= scan_bytes * 4 {
            a_fifth_fewer.push(name);
        }

        let mut nodes = Vec::new();
        scans(&compiled.plan, &mut nodes);
        for e in events.iter().filter(|e| e.operator.starts_with("scan(")) {
            let access = e
                .scan
                .unwrap_or_else(|| panic!("{name} {}: no path", e.operator));
            let (table, columns, filtered) = nodes[e.node_id as usize]
                .as_ref()
                .unwrap_or_else(|| panic!("{name}: node {} is no scan", e.node_id));
            assert_eq!(e.operator, format!("scan({table})"));
            assert!(
                e.dmem_peak_bytes > rapid::qef::budget::BASE_STATE_BYTES as u64,
                "{name} {}: a scan holds its tile buffers in DMEM",
                e.operator
            );
            if *filtered {
                continue;
            }
            let &(.., before) = UNFILTERED_BEFORE
                .iter()
                .find(|(q, t, c, _)| (*q, *t, *c) == (name, table.as_str(), *columns))
                .unwrap_or_else(|| panic!("{name} {table} cols {columns}: no figure recorded"));
            let cycles = e.sim_secs * dpu.context().cost_model.freq_hz;
            match access.path {
                AccessPath::Stream => {
                    assert_eq!(access.passes, 1);
                    assert!(
                        cycles < before,
                        "{name} {table}: {cycles} streamed, {before}"
                    );
                    streamed += 1;
                }
                AccessPath::Gather => {
                    assert!(
                        cycles <= before,
                        "{name} {table}: {cycles} gathered, {before}"
                    )
                }
            }
        }

        // The same rows in the same order from the statement as written on
        // Volcano and from the compiled plan on the native engine.
        assert_eq!(run(&native).0, rows, "{name}: native vs DPU");
        let host = db
            .execute_on_host(&plan)
            .unwrap_or_else(|e| panic!("{name} host: {e}"));
        assert_eq!(canonical(&host.rows), canonical(&rows), "{name}: Volcano");
    }
    // lineitem, orders and partsupp have a chunk per core to stream.
    assert!(streamed >= 9, "{streamed} unfiltered scans streamed");
    assert_eq!(a_fifth_fewer, ["Q6", "Q12", "Q14"]);
}
