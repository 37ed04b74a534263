//! Scan access paths over the eleven TPC-H statements at the benchmark's
//! scale factor: against the figures recorded from the commit before scans
//! chose an access path (every scan gathered, one DMS pass per conjunct),
//! no statement takes more simulated cycles or moves more DMS bytes (nor
//! more bytes than since its codes and dates are stored narrow), the scans
//! of every one of them move at least a fifth fewer bytes (the scans' share
//! of their tasks' traffic, so that the pin is about scans whatever the
//! operators above them come to move), a scan with neither a predicate nor
//! a key pass streams and hands its rows on where they lie unless it is one
//! tile on one lane, in a task no slower than the first that ran it, one
//! with a key pass gathers in a task no slower than when it tested nothing
//! — and
//! the rows are the same on Volcano, the native engine and the simulated
//! DPU.

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

/// `(statement, DMS bytes)` at sf 0.02 on 32 cores once dictionary codes
/// and dates are stored at the 1, 2 or 4 bytes their values need: a column
/// stored wider again than its range needs fails here.
const NARROW: [(&str, u64); 11] = [
    ("Q1", 1_557_023),
    ("Q3", 1_474_858),
    ("Q4", 880_126),
    ("Q5", 2_581_864),
    ("Q6", 234_636),
    ("Q9", 4_841_910),
    ("Q10", 830_939),
    ("Q12", 455_701),
    ("Q14", 301_944),
    ("Q18", 2_061_556),
    ("Q19", 355_893),
];

/// `(statement, table, columns scanned, cycles)` of every scan with neither
/// a predicate nor a key pass (every scan of Q1, Q3, Q4 and Q6 filters; Q18
/// reads lineitem twice). A scan is no stage of its own to time: the cycles are those of
/// the task it opens, rounded up — where round one of the partition pass it
/// feeds is the task's last operator, as first run as tasks; where it feeds
/// a broadcast join's probe (Q5's supplier and customer, Q9's lineitem,
/// Q10's customer, Q12's orders, Q18's orders, its second lineitem and its
/// customer) or is a broadcast join's build side (Q10's nation), as first
/// run that way. A probe task does the join's work the pairs stage did:
/// four of them take longer than they did partitioning, and the statements
/// they are in less time. Q5's supplier task took 4,570 cycles until its
/// join declared a filter its probe lanes build beside their tables: its
/// one tile streams now, and the probe tests the rows. Q9's partsupp and
/// orders tasks (22,349 and 31,077 cycles, round one of a pass) and Q19's
/// part task (8,862) are a join's one stage since their joins read them by
/// key range: they do the work of the `join.pairs` stage they replace
/// (39,335, 42,620 and 9,657 cycles), and the statements take less time.
const UNFILTERED: [(&str, &str, usize, u64); 12] = [
    ("Q5", "nation", 3, 1_053),
    ("Q5", "supplier", 2, 3_130),
    ("Q5", "customer", 2, 8_641),
    ("Q9", "nation", 2, 910),
    ("Q9", "supplier", 2, 4_403),
    ("Q9", "partsupp", 3, 44_349),
    ("Q9", "orders", 2, 43_597),
    ("Q10", "nation", 2, 17),
    ("Q10", "customer", 5, 7_901),
    ("Q14", "part", 2, 5_931),
    ("Q18", "lineitem", 2, 95_106),
    ("Q19", "part", 4, 11_336),
];

/// The same of every scan without a predicate that tests its task's join
/// filter in a key pass: it streams the keys, tests them and gathers its
/// columns at the rows whose bit is set. Each was an entry of
/// [`UNFILTERED`], its task then taking more cycles: Q5's lineitem 191,280,
/// Q9's lineitem 131,074, Q12's orders 34,056, Q18's probe lineitem 65,069
/// and its orders 26,183. Q12's orders task took 20,574 cycles while a
/// `join.filter` stage and a merge built its broadcast join's filter; every
/// lane of the task sets the 677 build rows' bits beside its table since,
/// and the task is compute-bound, while the statement is the two stages
/// shorter. Q18's 3,000-row customer probe streamed on 12 lanes in 6,690
/// cycles; dealt over 32 lanes of 94 rows (`budget::Deal`) its scan's
/// stream no longer pays for itself, and it tests its keys.
const KEYED: [(&str, &str, usize, u64); 6] = [
    ("Q5", "lineitem", 4, 98_807),
    ("Q9", "lineitem", 6, 88_990),
    ("Q12", "orders", 2, 23_367),
    ("Q18", "lineitem", 2, 23_449),
    ("Q18", "orders", 4, 7_093),
    ("Q18", "customer", 2, 1_959),
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
        let &(_, narrow) = NARROW
            .iter()
            .find(|(q, ..)| *q == name)
            .unwrap_or_else(|| panic!("{name}: no narrow figure recorded"));
        assert!(
            report.dms_bytes <= narrow,
            "{name}: {} DMS bytes, {narrow} with columns stored narrow",
            report.dms_bytes
        );
        // A scan is the bottom operator of its task's event, which says how
        // it read the table and what it moved of the task's bytes.
        let scanned: u64 = events.iter().filter_map(|e| e.scan_dms_bytes()).sum();
        assert!(
            scanned <= scan_bytes,
            "{name}: its scans move {scanned} DMS bytes, {scan_bytes} before"
        );
        if scanned * 5 <= scan_bytes * 4 {
            a_fifth_fewer.push(name);
        }

        let mut nodes = Vec::new();
        scans(&compiled.plan, &mut nodes);
        let (mut unfiltered, mut keyed) = (Vec::new(), Vec::new());
        for e in events.iter().filter(|e| e.scan.is_some()) {
            let access = e.scan.expect("filtered on it");
            let (node_id, _, operator, rows) = e.operators().last().expect("the event's own");
            let (table, columns, filtered) = nodes[node_id as usize]
                .as_ref()
                .unwrap_or_else(|| panic!("{name}: node {node_id} is no scan"));
            assert_eq!(operator, format!("scan({table})"));
            assert!(
                e.dmem_peak_bytes > rapid::qef::budget::BASE_STATE_BYTES as u64,
                "{name} {operator}: a task holds its tile buffers in DMEM"
            );
            if *filtered {
                continue;
            }
            let cycles = e.sim_secs * dpu.context().cost_model.freq_hz;
            let ran = (name, table.as_str(), *columns, cycles.ceil() as u64);
            assert_eq!(rows, catalog[table].rows() as u64, "{name} {table}");
            if access.keyed {
                // The key stream, and the gather of the rows left.
                assert_eq!((access.path, access.passes), (AccessPath::Gather, 2));
                keyed.push(ran);
                continue;
            }
            unfiltered.push(ran);
            // A lane of more than a tile streams; a gathering scan's lanes
            // hold a tile at most, a trip round the control loop saved.
            match access.path {
                AccessPath::Stream => {
                    assert_eq!(access.passes, 1);
                    streamed += 1;
                }
                AccessPath::Gather => {
                    let of_lane = rows.div_ceil(e.parallelism as u64);
                    assert!(of_lane <= 256, "{name} {table}: {e:?}");
                }
            }
        }
        for (mut ran, recorded) in [(unfiltered, &UNFILTERED[..]), (keyed, &KEYED[..])] {
            let mut of_statement: Vec<_> = recorded.iter().filter(|(q, ..)| *q == name).collect();
            of_statement.sort_unstable();
            ran.sort_unstable();
            assert_eq!(ran.len(), of_statement.len(), "{name}: {ran:?}");
            for (ran, &&(q, table, columns, cycles)) in ran.iter().zip(&of_statement) {
                assert_eq!((ran.0, ran.1, ran.2), (q, table, columns), "{name}");
                assert!(
                    ran.3 <= cycles,
                    "{name} {table}: its task takes {} cycles, {cycles} recorded",
                    ran.3
                );
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
    // Every one but the one-tile tables, nation and Q9's supplier, and the
    // six that test a join filter in a key pass — Q18's customer among them
    // since its rows are dealt over every core they feed. Q5's one-tile
    // supplier streams since its probe tests a filter.
    assert_eq!(streamed, 8, "unfiltered scans streamed");
    // Access paths alone took Q6, Q12 and Q14 there; narrow codes and dates
    // the rest of the lineitem-heavy ones; key passes Q5, Q9 and Q18: every
    // statement.
    assert_eq!(
        a_fifth_fewer,
        ["Q1", "Q3", "Q4", "Q5", "Q6", "Q9", "Q10", "Q12", "Q14", "Q18", "Q19"]
    );
}
