//! Parity of the wire service against in-process execution.
//!
//! Three pins:
//!
//! * **Error parity** — a failing statement produces the *same* typed
//!   error (kind and message) whether executed directly
//!   (`execute_sql`), through the scheduler (`execute_batch`), or over
//!   the wire (`Error` frame → `ClientError::Server`).
//! * **Result parity under concurrency** — many wire sessions hammering
//!   one server produce bit-identical canonical rows to both the direct
//!   path and a scheduled `execute_batch` of the same statements.
//! * **Concurrency pays** — eight admission slots sustain at least 2×
//!   the simulated-DPU queries/sec of one (exact, on a deterministic
//!   batch), and 32 concurrent connections return the direct path's rows
//!   and leak no thread.

use std::sync::{Arc, OnceLock};

use hostdb::{BatchQuery, HostDb};
use rapid::sched::SchedConfig;
use rapid::server::{Client, ClientError, Server, ServerConfig};
use rapid::storage::types::Value;
use rapid_fuzz::canonical;

/// One shared TPC-H database: queries here are read-only and building it
/// is the expensive part.
fn db() -> Arc<HostDb> {
    static DB: OnceLock<Arc<HostDb>> = OnceLock::new();
    Arc::clone(DB.get_or_init(|| {
        let data = tpch::generate(&tpch::TpchConfig {
            scale_factor: 0.002,
            seed: 20260805,
            chunk_rows: 1024,
        });
        let db = HostDb::new(rapid::qef::exec::ExecContext::dpu().with_cores(8));
        for t in data.tables() {
            db.import_table(t).expect("load");
        }
        Arc::new(db)
    }))
}

/// The statement mix used by the concurrency tests (all valid).
const MIX: &[&str] = &[
    "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS qty \
     FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders \
     GROUP BY o_orderpriority ORDER BY o_orderpriority",
    "SELECT l_shipmode, SUM(l_extendedprice) AS revenue FROM lineitem \
     WHERE l_quantity < 30 GROUP BY l_shipmode ORDER BY l_shipmode",
    "SELECT COUNT(*) AS n FROM orders JOIN lineitem ON o_orderkey = l_orderkey \
     WHERE l_discount > 0.05",
    "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS total \
     FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus",
    "EXPLAIN ANALYZE SELECT l_shipmode, SUM(l_quantity) AS q \
     FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode",
];

/// Statements that must fail identically on all three paths.
const BAD: &[&str] = &[
    "SELEC l_orderkey FROM lineitem",
    "SELECT l_orderkey FROM no_such_table",
    "SELECT l_orderkey, SUM(l_quantity) FROM lineitem",
    "SELECT nope FROM lineitem",
    "SELECT l_orderkey FROM lineitem WHERE",
];

/// Canonical rows with wall-clock-dependent `EXPLAIN ANALYZE` text
/// masked: simulated cycles/energy are bit-stable across runs, the host
/// wall measurements are not.
fn stable(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    canonical(rows)
        .into_iter()
        .filter(|r| !r.iter().any(|c| c.contains("host wall")))
        .map(|r| {
            r.into_iter()
                .map(|c| match c.find(" wall=") {
                    Some(i) => c[..i].to_string(),
                    None => c,
                })
                .collect()
        })
        .collect()
}

fn start_server(max_active: usize) -> Server {
    let cfg = ServerConfig {
        sched: SchedConfig {
            max_active,
            queue_capacity: 256,
            ..ServerConfig::default().sched
        },
        ..ServerConfig::default()
    };
    Server::start(db(), cfg, ("127.0.0.1", 0)).expect("bind")
}

/// Tri-path error parity: direct vs scheduled batch vs wire frame.
#[test]
fn errors_are_identical_across_direct_batch_and_wire() {
    let db = db();
    let server = start_server(4);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for sql in BAD {
        let direct = db.execute_sql(sql).expect_err("direct must fail");

        let batch = db.execute_batch(&[BatchQuery::new(*sql)], SchedConfig::default());
        let scheduled = batch.results[0].as_ref().expect_err("batch must fail");
        assert_eq!(direct.kind(), scheduled.kind(), "kind parity for {sql:?}");
        assert_eq!(
            direct.to_string(),
            scheduled.to_string(),
            "message parity for {sql:?}"
        );

        match client.query(sql) {
            Err(ClientError::Server { kind, message }) => {
                assert_eq!(kind, direct.kind(), "wire kind parity for {sql:?}");
                assert_eq!(
                    message,
                    direct.to_string(),
                    "wire message parity for {sql:?}"
                );
            }
            other => panic!("wire path for {sql:?} returned {other:?}"),
        }
        // The session survives a failed statement.
        let ok = client
            .query("SELECT COUNT(*) AS n FROM lineitem")
            .expect("session must stay usable after an error");
        assert_eq!(ok.rows.len(), 1);
    }
    client.bye().expect("bye");
    let stats = server.shutdown();
    assert_eq!(stats.threads_spawned, stats.threads_joined);
}

/// Concurrent wire sessions return exactly the rows of the direct path
/// AND of a scheduled `execute_batch` of the same statements.
#[test]
fn concurrent_wire_sessions_match_direct_and_batch_results() {
    let db = db();

    // Reference 1: the direct, unscheduled path.
    let direct: Vec<Vec<Vec<String>>> = MIX
        .iter()
        .map(|sql| stable(&db.execute_sql(sql).expect("direct").rows))
        .collect();

    // Reference 2: the scheduled batch path.
    let queries: Vec<BatchQuery> = MIX.iter().map(|s| BatchQuery::new(*s)).collect();
    let outcome = db.execute_batch(&queries, SchedConfig::default());
    for (i, r) in outcome.results.iter().enumerate() {
        let rows = &r.as_ref().expect("batch").rows;
        assert_eq!(stable(rows), direct[i], "batch vs direct for query {i}");
    }

    // Wire: 6 concurrent sessions, each running the full mix with a
    // session-distinct starting offset.
    let server = start_server(8);
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let direct = &direct;
        for c in 0..6usize {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for q in 0..MIX.len() {
                    let i = (c + q) % MIX.len();
                    let got = client.query(MIX[i]).expect("wire query");
                    assert_eq!(
                        stable(&got.rows),
                        direct[i],
                        "wire vs direct for conn {c} query {i}"
                    );
                }
                client.bye().expect("bye");
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.threads_spawned, stats.threads_joined);
}

/// The headline acceptance test: concurrent admission sustains at least
/// 2× the simulated-DPU throughput of one query at a time — the scheduler
/// turns the DPU's fixed power budget into throughput. The ratio is taken
/// where it is exact: an `execute_batch` submits its queries whole, so both
/// makespans repeat bit for bit. The wire server places stages in the same
/// order, but its sessions submit when their frames arrive, and a query
/// submitted after others have placed stages is placed behind them. The
/// 32-connection wire run below pins what the wire adds: the same rows, and
/// no leaked thread.
#[test]
fn thirty_two_connections_beat_double_the_serial_sim_throughput() {
    let db = db();
    let total = 32usize;
    let statement = |q: usize| MIX[q % (MIX.len() - 1)];

    let queries: Vec<BatchQuery> = (0..total).map(|q| BatchQuery::new(statement(q))).collect();
    let makespan = |max_active: usize| {
        let cfg = SchedConfig {
            max_active,
            ..SchedConfig::default()
        };
        let outcome = db.execute_batch(&queries, cfg);
        assert!(outcome.results.iter().all(Result::is_ok));
        outcome.sched.utilization.makespan_cycles
    };
    let (serial, concurrent) = (makespan(1), makespan(8));
    assert_eq!(
        concurrent.to_bits(),
        makespan(8).to_bits(),
        "a deterministic batch repeats its makespan exactly"
    );
    assert!(
        serial >= 2.0 * concurrent,
        "8 admission slots must sustain 2x the serial sim throughput: \
         serial {serial} cycles, concurrent {concurrent} cycles for {total} queries"
    );

    // Wire: 32 connections, one query each, same statement mix.
    let direct: Vec<Vec<Vec<String>>> = (0..MIX.len() - 1)
        .map(|q| stable(&db.execute_sql(statement(q)).expect("direct").rows))
        .collect();
    let server = start_server(8);
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let direct = &direct;
        for q in 0..total {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let got = client.query(statement(q)).expect("concurrent query");
                assert_eq!(
                    stable(&got.rows),
                    direct[q % direct.len()],
                    "wire vs direct for conn {q}"
                );
                client.bye().expect("bye");
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.threads_spawned, stats.threads_joined);
}
