//! hostdb's one request path: a statement is admitted before the offload
//! decision compiles it, so what the decision compiled runs on the tables
//! it was compiled against, and the serial, batch and wire entry points
//! behave alike for every kind of decision.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use hostdb::{BatchQuery, DbError, ExecutionSite, HostDb};
use rapid::qef::exec::ExecContext;
use rapid::qef::trace::{StageEvent, TraceSink};
use rapid::sched::{SchedConfig, Scheduler};
use rapid::server::{Client, Server, ServerConfig};
use rapid::storage::schema::{Field, Schema};
use rapid::storage::scn::RowChange;
use rapid::storage::types::{DataType, Value};
use rapid_fuzz::canonical;

const REGIONS: [&str; 4] = ["north", "south", "east", "west"];

/// `sales` (20k rows, loaded: offloads on cost), `tiny` (10 rows, loaded:
/// cheaper on the host) and `region_names` (never loaded: joins against it
/// offload partially).
fn db_on(ctx: ExecContext) -> HostDb {
    let db = HostDb::new(ctx);
    let sales = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("region", DataType::Varchar),
    ]);
    db.create_table("sales", sales.clone());
    db.bulk_insert(
        "sales",
        (0..20_000i64).map(|i| vec![Value::Int(i), Value::Str(REGIONS[(i % 4) as usize].into())]),
    );
    db.load_into_rapid("sales").expect("load sales");
    db.create_table("tiny", sales);
    db.bulk_insert(
        "tiny",
        (0..10i64).map(|i| vec![Value::Int(i), Value::Str("north".into())]),
    );
    db.load_into_rapid("tiny").expect("load tiny");
    db.create_table(
        "region_names",
        Schema::new(vec![
            Field::new("key", DataType::Varchar),
            Field::new("pretty", DataType::Varchar),
        ]),
    );
    db.bulk_insert(
        "region_names",
        REGIONS
            .iter()
            .map(|r| vec![Value::Str((*r).into()), Value::Str(format!("The {r}"))]),
    );
    db
}

fn db() -> HostDb {
    db_on(ExecContext::dpu().with_cores(4))
}

fn schemas_of(db: &HostDb) -> std::collections::HashMap<String, Vec<String>> {
    db.store()
        .table_names()
        .into_iter()
        .map(|name| {
            let table = db.store().table(&name).expect("listed table");
            let cols = table
                .read()
                .schema
                .fields
                .iter()
                .map(|f| f.name.clone())
                .collect();
            (name, cols)
        })
        .collect()
}

/// Commit one `sales` row whose region string is in no dictionary yet.
fn commit_new_region(db: &HostDb, id: i64, region: &str) {
    db.commit(
        "sales",
        vec![RowChange::Insert(vec![
            Value::Int(id),
            Value::Str(region.into()),
        ])],
    )
    .expect("commit");
}

/// A commit puts a string in `sales` that RAPID's copy has no dictionary
/// code for. A plan compiled against that copy would find nothing on the
/// reloaded table: every entry point must admit — checkpoint — the
/// statement before its offload decision compiles it.
#[test]
fn a_reload_between_decision_and_execution_recompiles_on_every_entry_point() {
    let db = Arc::new(db());
    let select = |region: &str| format!("SELECT id FROM sales WHERE region = '{region}'");

    commit_new_region(&db, 100_001, "serial-only");
    let r = db.execute_sql(&select("serial-only")).expect("serial");
    assert_eq!(
        r.site,
        ExecutionSite::Rapid,
        "the test must take the offload path"
    );
    assert_eq!(r.rows, vec![vec![Value::Int(100_001)]]);

    commit_new_region(&db, 100_002, "batch-only");
    let out = db.execute_batch(
        &[BatchQuery::new(select("batch-only"))],
        SchedConfig::default(),
    );
    let r = out
        .results
        .into_iter()
        .next()
        .expect("one slot")
        .expect("batch");
    assert_eq!(r.site, ExecutionSite::Rapid);
    assert_eq!(r.rows, vec![vec![Value::Int(100_002)]]);

    let server =
        Server::start(Arc::clone(&db), ServerConfig::default(), ("127.0.0.1", 0)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let stmt = client.prepare(&select("wire-only")).expect("prepare");
    assert!(client.execute(stmt).expect("execute").rows.is_empty());
    commit_new_region(&db, 100_003, "wire-only");
    let r = client.execute(stmt).expect("execute after commit");
    assert_eq!(r.site, "Rapid");
    assert_eq!(r.rows, vec![vec![Value::Int(100_003)]]);
    client.bye().expect("bye");
    let stats = server.shutdown();
    assert_eq!(stats.threads_spawned, stats.threads_joined);
}

/// One plan per decision: the serial and the scheduled entry point report
/// the same site, columns and rows.
#[test]
fn serial_and_batch_agree_for_every_decision() {
    let db = db();
    let schemas = schemas_of(&db);
    let cases = [
        (
            "SELECT region, COUNT(*) AS n FROM sales GROUP BY region",
            ExecutionSite::Rapid,
        ),
        (
            "SELECT pretty, COUNT(*) AS n FROM sales JOIN region_names ON region = key \
             GROUP BY pretty",
            ExecutionSite::Mixed,
        ),
        ("SELECT id FROM tiny WHERE id < 3", ExecutionSite::Host),
    ];
    for (sql, site) in cases {
        let plan = hostdb::parse_sql(sql, &schemas).expect("parse");
        let serial = db.execute_plan(&plan).expect("serial");
        assert_eq!(serial.site, site, "{sql}");
        let out = db.execute_batch(&[BatchQuery::from_plan(plan)], SchedConfig::default());
        let batched = out
            .results
            .into_iter()
            .next()
            .expect("one slot")
            .expect("batch");
        assert_eq!(batched.site, serial.site, "{sql}");
        assert_eq!(batched.columns, serial.columns, "{sql}");
        assert_eq!(canonical(&batched.rows), canonical(&serial.rows), "{sql}");
    }
}

/// Runs a hook when the first pipeline stage of any query completes.
#[derive(Default)]
struct AfterFirstStage(Mutex<Option<Box<dyn FnOnce() + Send>>>);

impl std::fmt::Debug for AfterFirstStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AfterFirstStage")
    }
}

impl TraceSink for AfterFirstStage {
    fn record(&self, _event: StageEvent) {
        let hook = self.0.lock().expect("hook lock").take();
        if let Some(hook) = hook {
            hook();
        }
    }
}

/// A query its scheduler aborts mid-flight fails with the typed refusal; it
/// does not fall back to the host and come back with rows. The abort lands
/// between the first and the second stage, so it reaches the request path
/// as an engine error.
#[test]
fn a_cancelled_or_timed_out_offload_does_not_fall_back_to_the_host() {
    let sink = Arc::new(AfterFirstStage::default());
    let db = db_on(
        ExecContext::dpu()
            .with_cores(4)
            .with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>),
    );
    let sql = "SELECT region, COUNT(*) AS n FROM sales GROUP BY region";
    let sched = Arc::new(Scheduler::new(SchedConfig::default()));

    let q = BatchQuery::new(sql);
    let handle = db.submit_query_at(&q, &sched, None).expect("submit");
    let (canceller, id) = (Arc::clone(&sched), handle.id());
    *sink.0.lock().expect("hook lock") = Some(Box::new(move || {
        assert!(canceller.cancel(id), "query is live after its first stage");
    }));
    let r = db.execute_scheduled(&q, handle, &sched);
    assert!(matches!(r, Err(DbError::Cancelled)), "{r:?}");

    let timeout = Duration::from_millis(500);
    let q = BatchQuery::new(sql).with_timeout(timeout);
    let handle = db.submit_query_at(&q, &sched, None).expect("submit");
    *sink.0.lock().expect("hook lock") = Some(Box::new(move || std::thread::sleep(2 * timeout)));
    let r = db.execute_scheduled(&q, handle, &sched);
    assert!(matches!(r, Err(DbError::QueryTimeout)), "{r:?}");

    // The same statement, left alone, offloads and succeeds.
    let out = db.run_batch(&[BatchQuery::new(sql)], &sched);
    assert_eq!(
        out[0].as_ref().expect("undisturbed").site,
        ExecutionSite::Rapid
    );
}
