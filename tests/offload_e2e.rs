//! End-to-end offload-path tests: decisions, SCN admission, fallback,
//! partial residency, and the serialized-QEP ship (§3.1–§3.3).

use std::sync::Arc;

use hostdb::{ExecutionSite, HostDb};
use rapid::qcomp::cost::CostParams;
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::PlanNode;
use rapid::storage::schema::{Field, Schema};
use rapid::storage::scn::RowChange;
use rapid::storage::types::{DataType, Value};

fn db_with_table(rows: i64) -> HostDb {
    let db = HostDb::new(ExecContext::dpu().with_cores(4));
    db.create_table(
        "metrics",
        Schema::new(vec![
            Field::new("ts", DataType::Int),
            Field::new("value", DataType::Decimal { scale: 2 }),
            Field::new("host", DataType::Varchar),
        ]),
    );
    db.bulk_insert(
        "metrics",
        (0..rows).map(|i| {
            vec![
                Value::Int(i),
                Value::Decimal {
                    unscaled: (i * 7) % 100_000,
                    scale: 2,
                },
                Value::Str(format!("host{}", i % 5)),
            ]
        }),
    );
    db
}

#[test]
fn large_queries_offload_small_ones_stay_home() {
    let db = db_with_table(300_000);
    db.load_into_rapid("metrics").expect("load");
    let big = db
        .execute_sql("SELECT host, SUM(value) AS v FROM metrics GROUP BY host")
        .expect("big");
    assert_eq!(big.site, ExecutionSite::Rapid);

    let tiny_db = db_with_table(20);
    tiny_db.load_into_rapid("metrics").expect("load");
    let small = tiny_db
        .execute_sql("SELECT ts FROM metrics WHERE ts = 3")
        .expect("small");
    assert_eq!(
        small.site,
        ExecutionSite::Host,
        "20 rows never beat the offload latency"
    );
    assert_eq!(small.rows.len(), 1);
}

#[test]
fn unloaded_tables_run_on_host() {
    let db = db_with_table(100_000);
    // No load_into_rapid: the table is not RAPID-resident.
    let r = db
        .execute_sql("SELECT COUNT(*) AS n FROM metrics")
        .expect("q");
    assert_eq!(r.site, ExecutionSite::Host);
    assert_eq!(r.rows[0][0], Value::Int(100_000));
}

#[test]
fn admission_checkpoint_makes_committed_data_visible() {
    let db = db_with_table(200_000);
    db.load_into_rapid("metrics").expect("load");
    // Three commits after the load move the host table past RAPID's SCN.
    for i in 0..3 {
        db.commit(
            "metrics",
            vec![RowChange::Insert(vec![
                Value::Int(1_000_000 + i),
                Value::Decimal {
                    unscaled: 1,
                    scale: 2,
                },
                Value::Str("hostX".into()),
            ])],
        );
    }
    let r = db
        .execute_sql("SELECT COUNT(*) AS n FROM metrics WHERE host = 'hostX'")
        .expect("q");
    // hostX is not in the load-time dictionary... the query must still
    // find the rows after the admission checkpoint rebuilt the snapshot.
    assert_eq!(r.rows[0][0], Value::Int(3), "ran on {:?}", r.site);
}

#[test]
fn deletes_and_updates_propagate() {
    let db = db_with_table(50_000);
    db.load_into_rapid("metrics").expect("load");
    db.commit("metrics", vec![RowChange::Delete { rid: 0 }])
        .expect("commit");
    db.commit(
        "metrics",
        vec![RowChange::Update {
            rid: 1,
            row: vec![
                Value::Int(1),
                Value::Decimal {
                    unscaled: 9_999_999,
                    scale: 2,
                },
                Value::Str("host1".into()),
            ],
        }],
    )
    .expect("commit");
    let r = db
        .execute_sql("SELECT COUNT(*) AS n, MAX(value) AS m FROM metrics")
        .expect("q");
    assert_eq!(r.rows[0][0], Value::Int(49_999));
    assert_eq!(r.rows[0][1].to_f64().expect("max"), 99_999.99);
}

#[test]
fn forced_host_and_forced_rapid_agree() {
    let mut db = db_with_table(30_000);
    db.load_into_rapid("metrics").expect("load");
    let sql = "SELECT host, COUNT(*) AS n, SUM(value) AS s, MIN(value) AS lo, MAX(value) AS hi \
               FROM metrics WHERE ts > 1000 GROUP BY host ORDER BY host";
    db.force_site = Some(ExecutionSite::Rapid);
    let on_rapid = db.execute_sql(sql).expect("rapid");
    db.force_site = Some(ExecutionSite::Host);
    let on_host = db.execute_sql(sql).expect("host");
    assert_eq!(on_rapid.rows.len(), on_host.rows.len());
    for (a, b) in on_rapid.rows.iter().zip(&on_host.rows) {
        assert_eq!(a[0], b[0]);
        for c in 1..a.len() {
            let (x, y) = (a[c].to_f64().expect("num"), b[c].to_f64().expect("num"));
            assert!((x - y).abs() < 1e-9, "col {c}: {x} vs {y}");
        }
    }
}

#[test]
fn serialized_qep_roundtrips_and_executes() {
    // §3.1: the compiled QEP is "generated, serialized and stored in the
    // place holder node" and shipped to RAPID nodes. Serialize to JSON,
    // deserialize, and run — results must match the unserialized plan.
    let data = tpch::generate(&tpch::TpchConfig::sf(0.002));
    let mut catalog = rapid::qef::plan::Catalog::new();
    let mut engine = Engine::new(ExecContext::dpu().with_cores(4));
    for t in data.tables() {
        let arc = Arc::new(t.clone());
        catalog.insert(t.name.clone(), Arc::clone(&arc));
        engine.load_table(arc);
    }
    let params = CostParams::default();
    for (name, lp) in tpch::queries::all() {
        let compiled = rapid::qcomp::compile(&lp, &catalog, &params).expect("compile");
        let json = serde_json::to_string(&compiled.plan).expect("serialize");
        let shipped: PlanNode = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(shipped, compiled.plan, "{name} plan survives the wire");
        let (a, _) = engine.execute(&compiled.plan).expect("original");
        let (b, _) = engine.execute(&shipped).expect("shipped");
        assert_eq!(a.batch, b.batch, "{name} results after QEP shipping");
    }
}

#[test]
fn rapid_failure_falls_back_to_host() {
    // Force the RAPID path while the table is NOT loaded: compile fails on
    // the node, and execute_plan's fallback completes on the host (§3.2).
    let mut db = db_with_table(10_000);
    db.force_site = Some(ExecutionSite::Rapid);
    let plan = hostdb::parse_sql(
        "SELECT COUNT(*) AS n FROM metrics",
        &std::collections::HashMap::from([(
            "metrics".to_string(),
            vec!["ts".to_string(), "value".to_string(), "host".to_string()],
        )]),
    )
    .expect("parse");
    let r = db.execute_plan(&plan).expect("fallback");
    assert_eq!(r.site, ExecutionSite::Host);
    assert_eq!(r.rows[0][0], Value::Int(10_000));
}

#[test]
fn partial_offload_runs_fragments_on_rapid() {
    // Two tables, only one loaded into RAPID: the join must execute the
    // loaded side's subtree on the node and finish on the host (§3.1's
    // partial offload), reporting the Mixed site.
    let db = db_with_table(200_000);
    db.load_into_rapid("metrics").expect("load");
    db.create_table(
        "labels",
        Schema::new(vec![
            Field::new("lk", DataType::Int),
            Field::new("label", DataType::Varchar),
        ]),
    );
    db.bulk_insert(
        "labels",
        (0..5i64).map(|i| vec![Value::Int(i), Value::Str(format!("label{i}"))]),
    );
    // NOTE: labels is NOT loaded into RAPID.
    let sql = "SELECT label, COUNT(*) AS n FROM metrics \
               JOIN labels ON ts = lk GROUP BY label ORDER BY label";
    let r = db.execute_sql(sql).expect("partial");
    assert_eq!(
        r.site,
        ExecutionSite::Mixed,
        "fragments on RAPID, rest on host"
    );
    assert!(r.rapid_secs > 0.0, "the metrics subtree ran on the node");
    assert_eq!(r.rows.len(), 5);
    for row in &r.rows {
        assert_eq!(row[1], Value::Int(1));
    }
    // Ground truth from a pure host run.
    let host = db
        .execute_on_host(&hostdb::parse_sql(sql, &schemas_of(&db)).expect("parse"))
        .expect("host");
    assert_eq!(r.rows, host.rows);
    // Temp fragment tables were cleaned up.
    assert!(db
        .store()
        .table_names()
        .iter()
        .all(|n| !n.starts_with("__rapid_frag_")));
}

fn schemas_of(db: &HostDb) -> std::collections::HashMap<String, Vec<String>> {
    let mut m = std::collections::HashMap::new();
    for name in db.store().table_names() {
        if let Some(t) = db.store().table(&name) {
            m.insert(
                name,
                t.read()
                    .schema
                    .fields
                    .iter()
                    .map(|f| f.name.clone())
                    .collect(),
            );
        }
    }
    m
}

#[test]
fn node_failure_recovery_protocol() {
    // §3.4: on node failure a spare is loaded from the host, after which
    // offloading resumes with identical results.
    let mut db = db_with_table(150_000);
    db.load_into_rapid("metrics").expect("load");
    db.force_site = Some(ExecutionSite::Rapid);
    let before = db
        .execute_sql("SELECT host, SUM(value) AS s FROM metrics GROUP BY host ORDER BY host")
        .expect("before");

    db.simulate_rapid_failure();
    assert!(
        db.rapid().read().catalog().is_empty(),
        "node lost its state"
    );
    // During recovery the node cannot serve queries; the offload path
    // falls back to the host (§3.4: "RAPID cluster cannot be used ...").
    let during = db.execute_plan(
        &hostdb::parse_sql("SELECT COUNT(*) AS n FROM metrics", &schemas_of(&db)).expect("parse"),
    );
    assert_eq!(during.expect("fallback").site, ExecutionSite::Host);

    db.recover_rapid(&["metrics"]).expect("recover");
    let after = db
        .execute_sql("SELECT host, SUM(value) AS s FROM metrics GROUP BY host ORDER BY host")
        .expect("after");
    assert_eq!(after.site, ExecutionSite::Rapid, "offloading resumed");
    assert_eq!(before.rows, after.rows);
}

#[test]
fn window_and_setop_sql_agree_across_engines() {
    let mut db = db_with_table(5_000);
    db.load_into_rapid("metrics").expect("load");
    let queries = [
        "SELECT ts, RANK() OVER (PARTITION BY host ORDER BY value DESC) AS r \
         FROM metrics WHERE ts < 50",
        "SELECT ts FROM metrics WHERE ts < 40 UNION SELECT ts FROM metrics \
         WHERE ts >= 20 AND ts < 60",
        "SELECT ts FROM metrics WHERE ts < 40 INTERSECT SELECT ts FROM metrics \
         WHERE ts >= 20 AND ts < 60",
        "SELECT ts FROM metrics WHERE ts < 40 MINUS SELECT ts FROM metrics \
         WHERE ts >= 20",
    ];
    for sql in queries {
        db.force_site = Some(ExecutionSite::Rapid);
        let mut on_rapid = db.execute_sql(sql).expect("rapid").rows;
        db.force_site = Some(ExecutionSite::Host);
        let mut on_host = db.execute_sql(sql).expect("host").rows;
        let key = |r: &Vec<Value>| r.iter().map(|v| v.to_string()).collect::<Vec<_>>();
        on_rapid.sort_by_key(key);
        on_host.sort_by_key(key);
        assert_eq!(on_rapid, on_host, "{sql}");
        assert!(!on_rapid.is_empty(), "{sql} returned nothing");
    }
    // Spot-check UNION cardinality: {0..39} u {20..59} = 60 distinct.
    db.force_site = Some(ExecutionSite::Rapid);
    let u = db
        .execute_sql(
            "SELECT ts FROM metrics WHERE ts < 40 UNION SELECT ts FROM metrics \
             WHERE ts >= 20 AND ts < 60",
        )
        .expect("union");
    assert_eq!(u.rows.len(), 60);
}

/// ROADMAP 5a: the two inputs of a set operation may store the column at
/// different widths (1000.. takes two bytes, 0.. one); the output holds
/// rows of either, at the wider.
#[test]
fn set_operations_over_columns_of_different_stored_widths() {
    let mut db = HostDb::new(ExecContext::dpu().with_cores(4));
    let mut schemas = std::collections::HashMap::new();
    for (table, column, first) in [("t", "a", 1000), ("u", "b", 0)] {
        db.create_table(table, Schema::new(vec![Field::new(column, DataType::Int)]));
        db.bulk_insert(table, (first..first + 40).map(|i| vec![Value::Int(i)]));
        db.load_into_rapid(table).expect("load");
        schemas.insert(table.to_string(), vec![column.to_string()]);
    }
    db.force_site = Some(ExecutionSite::Rapid);
    for (sql, rows) in [
        ("SELECT a FROM t UNION SELECT b FROM u", 80),
        ("SELECT b FROM u UNION SELECT a FROM t", 80),
        (
            "SELECT a FROM t INTERSECT SELECT b + 1000 FROM u WHERE b < 8",
            8,
        ),
        (
            "SELECT b FROM u INTERSECT SELECT a - 1000 FROM t WHERE a < 1008",
            8,
        ),
        ("SELECT a FROM t MINUS SELECT b FROM u", 40),
        ("SELECT b FROM u MINUS SELECT a FROM t", 40),
    ] {
        let on_rapid = db.execute_sql(sql).expect(sql);
        assert_eq!(on_rapid.site, ExecutionSite::Rapid, "{sql}");
        let plan = hostdb::parse_sql(sql, &schemas).expect(sql);
        let on_host = db.execute_on_host(&plan).expect(sql);
        let sorted = |mut rows: Vec<Vec<Value>>| {
            rows.sort_by_key(|r| r.iter().map(|v| v.to_string()).collect::<Vec<_>>());
            rows
        };
        assert_eq!(on_host.rows.len(), rows, "{sql}");
        assert_eq!(sorted(on_rapid.rows), sorted(on_host.rows), "{sql}");
    }
}
