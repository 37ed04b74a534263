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

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::str::FromStr;
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

/// The command line, with the defaults for whatever it leaves out.
#[derive(Debug, PartialEq)]
struct Options {
    sf: f64,
    port: u16,
    max_conns: usize,
    active: usize,
    queue: usize,
    cores: usize,
    idle_secs: u64,
    query_timeout_ms: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            sf: 0.01,
            port: 0,
            max_conns: 64,
            active: 8,
            queue: 64,
            cores: 8,
            idle_secs: 30,
            query_timeout_ms: 0,
        }
    }
}

/// The value after `flag`, parsed. A missing or unparsable value is an
/// error naming the flag — never the default, which would start a server
/// on another port or scale factor than the one asked for.
fn value<T: FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse '{raw}'"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let raw = args.next();
        match flag.as_str() {
            "--sf" => o.sf = value(flag, raw)?,
            "--port" => o.port = value(flag, raw)?,
            "--max-conns" => o.max_conns = value(flag, raw)?,
            "--active" => o.active = value(flag, raw)?,
            "--queue" => o.queue = value(flag, raw)?,
            "--cores" => o.cores = value(flag, raw)?,
            "--idle-secs" => o.idle_secs = value(flag, raw)?,
            "--query-timeout-ms" => o.query_timeout_ms = value(flag, raw)?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        sf,
        port,
        max_conns,
        active,
        queue,
        cores,
        idle_secs,
        query_timeout_ms,
    } = match parse_args(&args) {
        Ok(options) => options,
        Err(msg) => {
            eprintln!("server: {msg}");
            std::process::exit(2);
        }
    };

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
    let (queries, _) = server.scheduler().totals();
    let stats = server.shutdown();
    println!(
        "served {} connections; {} queries; threads spawned {} / joined {}",
        stats.connections_served, queries, stats.threads_spawned, stats.threads_joined
    );
    assert_eq!(
        stats.threads_spawned, stats.threads_joined,
        "leaked connection threads"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn flags_override_their_defaults_only() {
        assert_eq!(parse(""), Ok(Options::default()));
        let expected = Options {
            sf: 0.05,
            port: 7878,
            query_timeout_ms: 250,
            ..Options::default()
        };
        assert_eq!(
            parse("--port 7878 --sf 0.05 --query-timeout-ms 250"),
            Ok(expected)
        );
    }

    #[test]
    fn an_unparsable_value_names_the_flag() {
        let msg = parse("--sf 0.01 --port abc").unwrap_err();
        assert!(msg.contains("--port") && msg.contains("abc"), "{msg}");
        // Out of range for the flag's type is unparsable too.
        assert!(parse("--port 70000").is_err());
        assert!(parse("--active -1").is_err());
    }

    #[test]
    fn a_flag_without_its_value_names_the_flag() {
        let msg = parse("--sf 0.01 --port").unwrap_err();
        assert!(
            msg.contains("--port") && msg.contains("needs a value"),
            "{msg}"
        );
        // The next flag is not a value.
        let msg = parse("--port --sf 0.01").unwrap_err();
        assert!(msg.contains("--port") && msg.contains("--sf"), "{msg}");
    }

    #[test]
    fn an_unknown_flag_names_the_flag() {
        let msg = parse("--prot 7878").unwrap_err();
        assert!(msg.contains("unknown") && msg.contains("--prot"), "{msg}");
        assert!(parse("7878").is_err());
    }
}
