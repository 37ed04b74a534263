//! Join filters where the estimate says most probe rows miss, and nowhere
//! else: at the benchmark's scale factor exactly four partitioned joins of
//! the eleven TPC-H statements declare one, their probe sides' round one
//! keeps every row that joins and few more, and a join whose every probe
//! row matches — `dml_refresh`'s `customer JOIN orders` — declares none.

use std::collections::HashMap;

use hostdb::db::decode_batch;
use hostdb::{parse_sql, HostDb};
use rapid::qcomp::cost::CostParams;
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::{Catalog, PlanNode};
use rapid::qef::trace::MemorySink;
use rapid_fuzz::canonical;

/// The TPC-H tables at `sf`, loaded.
fn tpch_catalog(sf: f64) -> (HostDb, Catalog) {
    let data = tpch::generate(&tpch::TpchConfig::sf(sf));
    let db = HostDb::new(ExecContext::dpu());
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let catalog = db.rapid().read().catalog().clone();
    (db, catalog)
}

/// `(pre-order node id, filter bits)` of every join of `plan` with a filter.
fn filtered_joins(plan: &PlanNode) -> Vec<(u32, usize)> {
    fn walk(plan: &PlanNode, next: &mut u32, out: &mut Vec<(u32, usize)>) {
        let id = *next;
        *next += 1;
        if let PlanNode::HashJoin {
            filter: Some(bits), ..
        } = plan
        {
            out.push((id, *bits));
        }
        plan.inputs().for_each(|child| walk(child, next, out));
    }
    let mut out = Vec::new();
    walk(plan, &mut 0, &mut out);
    out
}

#[test]
fn exactly_the_joins_whose_probe_rows_mostly_miss_declare_a_filter() {
    let (db, catalog) = tpch_catalog(0.02);
    let sink = MemorySink::new();
    let mut engine = Engine::new(ExecContext::dpu().with_trace(sink.clone()));
    for t in catalog.values() {
        engine.load_table(std::sync::Arc::clone(t));
    }
    let params = CostParams::default();
    let mut declared = Vec::new();
    for (name, plan) in tpch::queries::all() {
        let compiled = rapid::qcomp::compile(&plan, &catalog, &params).expect("compile");
        let joins = filtered_joins(&compiled.plan);
        let (out, _) = engine.execute(&compiled.plan).expect("execute");
        let events = sink.take();
        for &(node, bits) in &joins {
            // The filter is sized from the estimated build rows, 8 to 16
            // bits a row, in the room the probe side's round one leaves.
            assert!(bits.is_power_of_two() && bits >= 32 * 64, "{name}: {bits}");
            let of_node = |op: &str| {
                let mut it = events
                    .iter()
                    .filter(|e| e.node_id == node && e.operator == op);
                it.next()
                    .unwrap_or_else(|| panic!("{name} node {node}: no {op}"))
            };
            let built = of_node("join.filter");
            let probe = of_node("join.partition-probe");
            let filter = probe.filter.expect("round one of the probe side tests");
            let pairs = of_node("join.pairs");
            // Every row that joins is kept, and the rows that do not are
            // few: a false positive's chance is 1 − e^(−keys/bits).
            assert!(filter.kept >= pairs.rows.min(filter.kept), "{name}");
            let keys = built.rows as f64;
            let chance = 1.0 - (-keys / bits as f64).exp();
            let missed = (filter.tested - filter.kept) as f64;
            assert!(
                missed >= 0.5 * (1.0 - chance) * (filter.tested as f64 - pairs.rows as f64),
                "{name} node {node}: kept {filter:?} of which {} joined",
                pairs.rows
            );
            declared.push((name, node));
        }
        let rows = decode_batch(&out.batch, &out.meta, engine.catalog());
        let host = db.execute_on_host(&plan).expect("host");
        assert_eq!(
            canonical(&rows),
            canonical(&host.rows),
            "{name}: Volcano vs DPU"
        );
    }
    assert_eq!(declared, [("Q3", 3), ("Q3", 4), ("Q5", 11), ("Q10", 5)]);
}

#[test]
fn a_join_whose_probe_rows_all_match_declares_no_filter() {
    let (db, catalog) = tpch_catalog(0.02);
    let schemas: HashMap<String, Vec<String>> = catalog
        .iter()
        .map(|(name, t)| {
            let fields = t.schema.fields.iter().map(|f| f.name.clone()).collect();
            (name.clone(), fields)
        })
        .collect();
    let sql = "SELECT c_mktsegment, COUNT(*) AS n FROM customer JOIN orders \
               ON c_custkey = o_custkey GROUP BY c_mktsegment";
    let plan = parse_sql(sql, &schemas).expect("parse");
    let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default()).expect("compile");
    assert!(
        matches!(&compiled.plan, p if has_partitioned_join(p)),
        "a partitioned join: {:?}",
        compiled.plan
    );
    assert_eq!(filtered_joins(&compiled.plan), []);
    let text = db.explain_analyze(sql).expect("explain").text;
    assert!(text.contains("join.pairs"), "{text}");
    assert!(
        !text.contains("join.filter") && !text.contains("filter kept="),
        "{text}"
    );
}

#[test]
fn explain_analyze_says_what_a_filter_kept() {
    // Q3 on the 32 cores of the whole DPU: its two partitioned joins filter
    // their probe sides.
    let (db, _) = tpch_catalog(0.02);
    let (_, q3) = tpch::queries::STATEMENTS
        .iter()
        .find(|(name, _)| *name == "Q3")
        .expect("Q3");
    let text = db.explain_analyze(q3).expect("explain").text;
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("join.partition-probe"))
        .filter_map(|l| l.split(" filter kept=").nth(1))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    assert_eq!(kept.len(), 2, "{text}");
    for kept in kept {
        let (k, of) = kept.split_once('/').expect("kept/tested");
        let (k, of): (u64, u64) = (k.parse().expect("kept"), of.parse().expect("tested"));
        assert!(0 < k && k < of / 2, "{kept}");
    }
    assert_eq!(text.matches("join.filter").count(), 2, "{text}");
}

fn has_partitioned_join(plan: &PlanNode) -> bool {
    match plan {
        PlanNode::HashJoin { scheme, .. } if !scheme.is_empty() => true,
        other => other.inputs().any(has_partitioned_join),
    }
}
