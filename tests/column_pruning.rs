//! Required-column pruning, seen from outside the compiler: what each
//! compiled scan moves for the benchmark's SQL. (What the TPC-H statements
//! scan is `tests/tpch_sql.rs`'s.)

use hostdb::sql::parse_sql;
use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qcomp::logical::LogicalPlan;
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::{Catalog, PlanNode};

fn tpch_db() -> HostDb {
    let data = tpch::generate(&tpch::TpchConfig {
        scale_factor: 0.002,
        seed: 20260705,
        chunk_rows: 1024,
    });
    let db = HostDb::new(ExecContext::dpu().with_cores(4));
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    db
}

/// `(table, column names)` of every scan in a compiled plan, sorted.
fn compiled_scans(plan: &PlanNode, catalog: &Catalog) -> Vec<(String, Vec<String>)> {
    fn walk(plan: &PlanNode, catalog: &Catalog, out: &mut Vec<(String, Vec<String>)>) {
        if let PlanNode::Scan { table, columns, .. } = plan {
            let fields = &catalog[table].schema.fields;
            let names = columns.iter().map(|&c| fields[c].name.clone()).collect();
            out.push((table.clone(), names));
        }
        plan.inputs().for_each(|child| walk(child, catalog, out));
    }
    let mut out = Vec::new();
    walk(plan, catalog, &mut out);
    out.sort();
    out
}

/// The same for a logical plan as written (`None` = the whole table).
fn declared_scans(plan: &LogicalPlan, catalog: &Catalog) -> Vec<(String, Vec<String>)> {
    fn walk(plan: &LogicalPlan, catalog: &Catalog, out: &mut Vec<(String, Vec<String>)>) {
        if let LogicalPlan::Scan {
            table, projection, ..
        } = plan
        {
            let all = || catalog[table].schema.fields.iter().map(|f| f.name.clone());
            let names = projection.clone().unwrap_or_else(|| all().collect());
            out.push((table.clone(), names));
        }
        plan.inputs().for_each(|child| walk(child, catalog, out));
    }
    let mut out = Vec::new();
    walk(plan, catalog, &mut out);
    out.sort();
    out
}

#[test]
fn benchmark_statements_scan_only_the_columns_they_name() {
    const ORDERS: &str = "o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, \
                          o_orderpriority, o_shippriority";
    // rapid_bench's DML_STATEMENTS, POINT_STATEMENTS and wide range query.
    let cases: &[(&str, &[(&str, &str)])] = &[
        (
            "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders \
             GROUP BY o_orderstatus",
            &[("orders", "o_orderstatus, o_totalprice")],
        ),
        (
            "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY o_orderpriority",
            &[("orders", "o_orderpriority")],
        ),
        (
            "SELECT c_mktsegment, COUNT(*) AS n FROM customer JOIN orders ON c_custkey = o_custkey \
             GROUP BY c_mktsegment",
            &[("customer", "c_custkey, c_mktsegment"), ("orders", "o_custkey")],
        ),
        (
            "SELECT o_orderstatus, o_totalprice FROM orders WHERE o_orderkey = 4711",
            &[("orders", "o_orderstatus, o_totalprice")],
        ),
        (
            "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = 7",
            &[("nation", "n_name, n_regionkey")],
        ),
        (
            // COUNT(*) only: the first column stored narrowest stands in for
            // the rows — `s_suppkey`, declared 8 bytes, holds 1..=20 in one.
            "SELECT COUNT(*) AS n FROM supplier WHERE s_nationkey = 3",
            &[("supplier", "s_suppkey")],
        ),
        (
            "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 1234",
            &[("customer", "c_name, c_acctbal")],
        ),
        (
            &format!("SELECT {ORDERS} FROM orders WHERE o_orderkey >= 100 AND o_orderkey < 1100"),
            &[("orders", ORDERS)],
        ),
    ];
    let db = tpch_db();
    let catalog = db.rapid().read().catalog().clone();
    let schemas = catalog
        .iter()
        .map(|(name, t)| {
            let names = t.schema.fields.iter().map(|f| f.name.clone()).collect();
            (name.clone(), names)
        })
        .collect();
    for (sql, expected) in cases {
        let plan = parse_sql(sql, &schemas).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default())
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        let expected: Vec<(String, Vec<String>)> = expected
            .iter()
            .map(|(t, cols)| (t.to_string(), cols.split(", ").map(String::from).collect()))
            .collect();
        assert_eq!(compiled_scans(&compiled.plan, &catalog), expected, "{sql}");
        // The caller's plan — what the Volcano oracle runs — is untouched.
        assert!(
            declared_scans(&plan, &catalog)
                .iter()
                .all(|(t, cols)| cols.len() == catalog[t].schema.len()),
            "{sql}"
        );
    }
}
