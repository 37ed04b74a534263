//! Static = runtime: what `PlanNode::output_widths` says a node hands on is
//! what the engine's batches are, column by column — for every node of the
//! eleven TPC-H statements at the benchmark's scale factor and of every
//! fuzz-corpus repro. Partition passes are budgeted from the static answer
//! before a row has moved, so an operator that started to narrow or widen
//! what it writes would over-commit a DMEM buffer; it fails here first.

use std::collections::HashMap;
use std::sync::Arc;

use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qcomp::LogicalPlan;
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::Catalog;
use rapid_fuzz::corpus;

/// Compile `statement`, run every subtree of the plan as a query of its
/// own and compare the widths of what comes out with the static answer.
/// Returns how many subtrees produced rows to compare.
fn check_every_node(name: &str, statement: &LogicalPlan, catalog: &Catalog) -> usize {
    let compiled = rapid::qcomp::compile(statement, catalog, &CostParams::default())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut engine = Engine::new(ExecContext::native(4));
    for t in catalog.values() {
        engine.load_table(Arc::clone(t));
    }
    let mut nodes = vec![&compiled.plan];
    let mut compared = 0;
    while let Some(node) = nodes.pop() {
        nodes.extend(node.inputs());
        let expect = node
            .output_widths(catalog)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let meta = node.output_meta(catalog).expect("meta");
        assert_eq!(expect.len(), meta.len(), "{name}: a width per column");
        let (out, _) = engine
            .execute(node)
            .unwrap_or_else(|e| panic!("{name}: {e}\n{node:?}"));
        if out.batch.rows() == 0 {
            continue; // the engine synthesizes an empty layout
        }
        let got: Vec<usize> = out.batch.columns.iter().map(|c| c.data.width()).collect();
        assert_eq!(got, expect, "{name}: {node:?}");
        compared += 1;
    }
    compared
}

#[test]
fn every_node_of_the_tpch_statements_hands_on_its_static_widths() {
    let data = tpch::generate(&tpch::TpchConfig::sf(0.02));
    let db = HostDb::new(ExecContext::dpu());
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let catalog = db.rapid().read().catalog().clone();
    // The premise of the whole exercise: the load path stores these keys
    // far below the 8 bytes they are declared at.
    let stored = |table: &str, column: &str| {
        let t = &catalog[table];
        t.column_width(t.schema.index_of(column).expect("column"))
    };
    assert_eq!(stored("orders", "o_orderkey"), 2);
    assert_eq!(stored("lineitem", "l_quantity"), 1);
    for (name, statement) in tpch::queries::all() {
        let compared = check_every_node(name, &statement, &catalog);
        assert!(compared >= 3, "{name}: only {compared} nodes produced rows");
    }
}

#[test]
fn every_node_of_the_fuzz_corpus_hands_on_its_static_widths() {
    let entries = corpus::load_all(&corpus::corpus_dir());
    assert!(!entries.is_empty(), "fuzz/corpus is empty");
    let mut compared = 0;
    for (path, entry) in entries {
        let name = path.display().to_string();
        let schemas: HashMap<String, Vec<String>> = entry
            .tables
            .iter()
            .map(|t| {
                let columns = t.columns.iter().map(|c| c.name.clone()).collect();
                (t.name.clone(), columns)
            })
            .collect();
        let statement =
            hostdb::sql::parse_sql(&entry.sql, &schemas).unwrap_or_else(|e| panic!("{name}: {e}"));
        let db = HostDb::new(ExecContext::dpu().with_cores(4));
        for t in &entry.tables {
            db.create_table(&t.name, t.schema());
            db.bulk_insert(&t.name, t.rows.iter().cloned());
            db.load_into_rapid(&t.name)
                .unwrap_or_else(|e| panic!("{name}: load {}: {e}", t.name));
        }
        let catalog = db.rapid().read().catalog().clone();
        compared += check_every_node(&name, &statement, &catalog);
    }
    assert!(compared >= 10, "only {compared} corpus nodes produced rows");
}
