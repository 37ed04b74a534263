//! `rapid-report` — everything this repository reports that is not the
//! benchmark: the paper's §7 figures and ablations, the plan and schedule
//! verification sweeps, the per-stage trace dump, the table of stored
//! against needed column widths, and the CI gate over the exact simulated
//! series in `BENCH_baseline.json`.
//!
//! ```text
//! cargo run --release -p rapid-report -- <subcommand> [options]
//! ```
//!
//! Wall-clock performance is measured by `rapid_bench/`, not here.

use std::process::ExitCode;

mod args;
mod figures;
mod gate;
mod schedcheck;
mod trace;
mod verify;
mod widths;

use args::{Args, UsageError};

const USAGE: &str = "\
usage: rapid-report <subcommand> [options]

subcommands:
  figures [all|fig8|fig9|filter|fig10|fig11|fig12|fig13|fig14|fig15|fig16|
           attribution|ablations]... [--sf <scale-factor>]
      regenerate the paper's tables and figures (default: all, sf 0.02)
  trace [--sf <scale-factor>] [--query <Q1|Q3|...|Q19>]
      per-stage trace of one TPC-H query as JSON (default: sf 0.01, Q1)
  verify [--sf <scale-factor>] [--full]
      static verification of every TPC-H plan and fuzz-corpus repro;
      non-zero exit on any finding (default: sf 0.01)
  schedcheck [--sf <scale-factor>] [--queries <n>] [--active <slots>]
             [--mutations]
      schedule-interference check of real scheduler runs (one dispatch
      order, there is no mode); --mutations adds the kill matrix
      (default: sf 0.01, 12, 4)
  widths [--sf <scale-factor>]
      declared, stored and range-needed bytes of every column the TPC-H
      statements scan, and each statement's scan bytes against the floor
      rows handed on x bits / 8 (default: sf 0.02)
  gate <baseline.json> [--sf <scale-factor>]
       [--bless [--label <entry>] [--accept <series>=<reason>]...]
      re-collect the exact simulated series and fail on any rise past
      float noise or a vanished series; --bless takes the series that
      fell, and those that rose where --accept names them, and appends the
      entry to the history; a dirty tree needs --label (default: sf 0.01)
";

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if argv.is_empty() {
        return usage_error("missing subcommand");
    }
    let sub = argv.remove(0);
    let args = Args::new(argv);
    let result = match sub.as_str() {
        "figures" => figures::run(args),
        "trace" => trace::run(args),
        "verify" => verify::run(args),
        "schedcheck" => schedcheck::run(args),
        "gate" => gate::run(args),
        "widths" => widths::run(args),
        other => Err(UsageError(format!("unknown subcommand '{other}'"))),
    };
    match result {
        Ok(code) => code,
        Err(UsageError(msg)) => usage_error(&msg),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("rapid-report: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
