//! One stage list: a plan is lowered once to the stages it runs
//! (`rapid_qef::stages::lower`), the engine runs that list and the verifier
//! checks it. Over every TPC-H statement at sf 0.01, 0.02 and 0.05 under the
//! cost-based and the declared join order, over the fuzz corpus and over the
//! benchmark's own statements, the trace's `(entry id, node id, operator)`
//! sequence is exactly the list's entries — the rounds of a partition pass
//! are events of its one entry, and an optional entry (a `window` over no
//! rows) is taken or not — and the verifier's rows are the list's.

use std::collections::HashMap;
use std::sync::Arc;

use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qcomp::logical::LogicalPlan;
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::Catalog;
use rapid::qef::stages::lower;
use rapid::qef::trace::MemorySink;

/// What the plans swept ran: entries, events, rounds past a pass's first
/// and optional entries skipped.
#[derive(Debug, Default)]
struct Seen {
    plans: usize,
    entries: usize,
    events: usize,
    later_rounds: usize,
    skipped: usize,
    merges: usize,
}

/// Compile `lp` for a traced engine over `catalog` with the join order
/// search `reorder`, run it, and hold the trace to the plan's stage list
/// and the verifier's rows to the list's. `false` where the compiler
/// refuses the statement or the engine does (agreed error cases of the
/// corpus).
fn run_listed(
    name: &str,
    lp: &LogicalPlan,
    catalog: &Catalog,
    reorder: bool,
    seen: &mut Seen,
) -> bool {
    let sink = MemorySink::new();
    let mut engine = Engine::new(ExecContext::dpu().with_trace(sink.clone()));
    for t in catalog.values() {
        engine.load_table(Arc::clone(t));
    }
    let params = CostParams {
        reorder_joins: reorder,
        ..CostParams::from_exec(engine.context())
    };
    let Ok(compiled) = rapid::qcomp::compile(lp, catalog, &params) else {
        return false;
    };
    let plan = &compiled.plan;
    if engine.execute(plan).is_err() {
        return false;
    }
    let events = sink.take();
    let list = lower(plan, catalog, engine.context()).unwrap_or_else(|e| panic!("{name}: {e}"));

    let mut at = 0;
    for stage in &list {
        let entry = stage.entry();
        // A stage reads what stages before it handed on or wrote.
        let read = stage.reads;
        assert!(
            read.iter().flatten().all(|&k| k < entry.id),
            "{name}: {read:?} {entry:?}"
        );
        let listed = (entry.id, entry.node_id, entry.label.to_string());
        let taken = events.get(at).is_some_and(|e| e.entry_id == entry.id);
        if !taken {
            assert!(
                stage.optional,
                "{name}: {listed:?} did not run: {events:#?}"
            );
            seen.skipped += 1;
            continue;
        }
        let e = &events[at];
        assert_eq!(
            (e.entry_id, e.node_id, e.operator.clone()),
            listed,
            "{name}"
        );
        at += 1;
        // A pass runs its rounds as events of its one entry, in order.
        let mut round = 1;
        while let Some(e) = events.get(at).filter(|e| e.entry_id == entry.id) {
            assert!(stage.is_pass(), "{name}: {listed:?} ran twice");
            round += 1;
            let p = e.partition.unwrap_or_else(|| panic!("{name}: {e:?}"));
            assert_eq!(p.round, round, "{name}: {listed:?}");
            assert!(round as usize <= stage.fanouts.len(), "{name}: {listed:?}");
            seen.later_rounds += 1;
            at += 1;
        }
        seen.merges += usize::from(entry.label.stage.ends_with(".merge"));
    }
    assert_eq!(
        at,
        events.len(),
        "{name}: events past the list: {:#?}",
        &events[at..]
    );

    // The verifier's rows are the list's, one an entry, in run order.
    let verified = rapid_verify::verify(plan, catalog, engine.context());
    let rows: Vec<(u32, usize, &str)> = verified
        .stages
        .iter()
        .map(|s| (s.entry_id, s.node_id, s.stage.as_str()))
        .collect();
    let labels: Vec<String> = list.iter().map(|s| s.label().to_string()).collect();
    let entries: Vec<(u32, usize, &str)> = list
        .iter()
        .zip(&labels)
        .map(|(s, label)| (s.id, s.node_id as usize, label.as_str()))
        .collect();
    assert_eq!(rows, entries, "{name}");

    seen.plans += 1;
    seen.entries += list.len();
    seen.events += events.len();
    true
}

fn tpch_db(sf: f64) -> HostDb {
    let data = tpch::generate(&tpch::TpchConfig::sf(sf));
    let db = HostDb::new(ExecContext::dpu());
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    db
}

fn schemas(catalog: &Catalog) -> HashMap<String, Vec<String>> {
    catalog
        .iter()
        .map(|(name, t)| {
            let columns = t.schema.fields.iter().map(|f| f.name.clone());
            (name.clone(), columns.collect())
        })
        .collect()
}

#[test]
fn tpch_and_benchmark_statements_run_their_stage_list() {
    // rapid_bench's statements beside TPC-H: tests/column_pruning.rs lists
    // them.
    let benchmark = [
        "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders \
         GROUP BY o_orderstatus",
        "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY o_orderpriority",
        "SELECT c_mktsegment, COUNT(*) AS n FROM customer JOIN orders ON c_custkey = o_custkey \
         GROUP BY c_mktsegment",
        "SELECT o_orderstatus, o_totalprice FROM orders WHERE o_orderkey = 4711",
        "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = 7",
        "SELECT COUNT(*) AS n FROM supplier WHERE s_nationkey = 3",
        "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 1234",
        "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, \
         o_orderpriority, o_shippriority FROM orders WHERE o_orderkey >= 100 AND o_orderkey < 1100",
    ];
    let mut seen = Seen::default();
    for sf in [0.01, 0.02, 0.05] {
        let db = tpch_db(sf);
        let catalog = db.rapid().read().catalog().clone();
        let schemas = schemas(&catalog);
        for reorder in [true, false] {
            for (name, lp) in tpch::queries::all() {
                let name = format!("{name} at sf {sf}, reorder {reorder}");
                assert!(
                    run_listed(&name, &lp, &catalog, reorder, &mut seen),
                    "{name}"
                );
            }
            for sql in benchmark {
                let lp = hostdb::parse_sql(sql, &schemas).expect("parse");
                let name = format!("{sql} at sf {sf}, reorder {reorder}");
                assert!(
                    run_listed(&name, &lp, &catalog, reorder, &mut seen),
                    "{name}"
                );
            }
        }
    }
    assert_eq!(seen.plans, 3 * 2 * (11 + benchmark.len()), "{seen:?}");
    // A merge is an entry like any stage: Q1 alone runs two.
    assert!(seen.merges > seen.plans / 2, "{seen:?}");
    assert_eq!(
        seen.events,
        seen.entries + seen.later_rounds - seen.skipped,
        "{seen:?}"
    );
}

#[test]
fn corpus_statements_run_their_stage_list() {
    let dir = rapid_fuzz::corpus::corpus_dir();
    let entries = rapid_fuzz::corpus::load_all(&dir);
    assert!(!entries.is_empty(), "no corpus under {}", dir.display());
    let mut seen = Seen::default();
    for (path, entry) in &entries {
        let schemas: HashMap<String, Vec<String>> = entry
            .tables
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    t.columns.iter().map(|c| c.name.clone()).collect(),
                )
            })
            .collect();
        // An entry that pins an agreed error never reaches the engine.
        let Ok(lp) = hostdb::parse_sql(&entry.sql, &schemas) else {
            continue;
        };
        let db = HostDb::new(ExecContext::dpu());
        let loaded = entry.tables.iter().all(|t| {
            db.create_table(&t.name, t.schema());
            db.bulk_insert(&t.name, t.rows.iter().cloned());
            db.load_into_rapid(&t.name).is_ok()
        });
        if !loaded {
            continue;
        }
        let catalog = db.rapid().read().catalog().clone();
        let name = path.display().to_string();
        for reorder in [true, false] {
            run_listed(&name, &lp, &catalog, reorder, &mut seen);
        }
    }
    assert!(seen.plans > entries.len(), "{seen:?}");
    assert_eq!(
        seen.events,
        seen.entries + seen.later_rounds - seen.skipped,
        "{seen:?}"
    );
}
