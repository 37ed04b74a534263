//! The standalone wire server: TPC-H loaded into hostdb + RAPID, served
//! over TCP until a client sends `Shutdown`.
//!
//! ```text
//! cargo run --release -p rapid-server --bin server -- \
//!     [--sf <scale-factor>] [--port <port|0>] [--max-conns <n>] \
//!     [--active <admission-slots>] [--queue <waiting-slots>] \
//!     [--cores <per-query>] [--idle-secs <s>] [--query-timeout-ms <ms>]
//! ```
//!
//! Prints `listening on <addr>` once ready (ci parses this to learn the
//! ephemeral port), then blocks until a graceful shutdown is requested and
//! reports the drain accounting.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::Duration;

use hostdb::HostDb;
use rapid_qef::exec::ExecContext;
use rapid_sched::SchedConfig;
use rapid_server::{Server, ServerConfig};

/// Load TPC-H at `sf` into a fresh HostDb and ship every table to RAPID.
fn tpch_db(sf: f64, cores: usize) -> Result<HostDb, String> {
    let data = tpch::generate(&tpch::TpchConfig::sf(sf));
    let db = HostDb::new(ExecContext::dpu().with_cores(cores));
    for t in data.tables() {
        db.import_table(t)
            .map_err(|e| format!("loading {} into RAPID: {e}", t.name))?;
    }
    Ok(db)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sf = 0.01f64;
    let mut port = 0u16;
    let mut max_conns = 64usize;
    let mut active = 8usize;
    let mut queue = 64usize;
    let mut cores = 8usize;
    let mut idle_secs = 30u64;
    let mut query_timeout_ms = 0u64;
    let mut i = 0;
    while i < args.len() {
        let val = args.get(i + 1);
        match args[i].as_str() {
            "--sf" => sf = val.and_then(|s| s.parse().ok()).unwrap_or(sf),
            "--port" => port = val.and_then(|s| s.parse().ok()).unwrap_or(port),
            "--max-conns" => max_conns = val.and_then(|s| s.parse().ok()).unwrap_or(max_conns),
            "--active" => active = val.and_then(|s| s.parse().ok()).unwrap_or(active),
            "--queue" => queue = val.and_then(|s| s.parse().ok()).unwrap_or(queue),
            "--cores" => cores = val.and_then(|s| s.parse().ok()).unwrap_or(cores),
            "--idle-secs" => idle_secs = val.and_then(|s| s.parse().ok()).unwrap_or(idle_secs),
            "--query-timeout-ms" => {
                query_timeout_ms = val.and_then(|s| s.parse().ok()).unwrap_or(query_timeout_ms)
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }

    eprintln!("loading TPC-H sf {sf} ({cores} cores/query)...");
    let db = match tpch_db(sf, cores) {
        Ok(db) => Arc::new(db),
        Err(e) => {
            eprintln!("fatal: {e}");
            std::process::exit(1);
        }
    };
    let cfg = ServerConfig {
        max_connections: max_conns,
        idle_timeout: Duration::from_secs(idle_secs),
        query_timeout: (query_timeout_ms > 0).then(|| Duration::from_millis(query_timeout_ms)),
        sched: SchedConfig {
            max_active: active,
            queue_capacity: queue,
            ..ServerConfig::default().sched
        },
        ..ServerConfig::default()
    };
    let server = match Server::start(db, cfg, ("127.0.0.1", port)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fatal: cannot bind 127.0.0.1:{port}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    server.wait_shutdown_requested();
    eprintln!("shutdown requested; draining...");
    let report = server.scheduler().report();
    let stats = server.shutdown();
    println!(
        "served {} connections; {} queries; threads spawned {} / joined {}",
        stats.connections_served,
        report.queries.len(),
        stats.threads_spawned,
        stats.threads_joined
    );
    assert_eq!(
        stats.threads_spawned, stats.threads_joined,
        "leaked connection threads"
    );
}
