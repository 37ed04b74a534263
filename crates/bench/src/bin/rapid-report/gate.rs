//! `gate`: re-collect the exact simulated series and compare them with a
//! committed baseline, or (`--bless`) rewrite that baseline.
//!
//! ```text
//! # CI gate: fail on a series that moved more than 10% either way (grown:
//! # a regression; fallen: a stale baseline), or vanished, against the
//! # committed baseline.
//! cargo run --release -p rapid-report -- gate BENCH_baseline.json
//!
//! # Intentional baseline update: re-collect, overwrite the baseline and
//! # append the entry to BENCH_history.json beside it.
//! cargo run --release -p rapid-report -- gate BENCH_baseline.json --bless
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use rapid_report::report;

use crate::args::{Args, UsageError};

/// Distance from the baseline value, either way, beyond which a series
/// fails the gate.
const TOLERANCE: f64 = 0.10;

pub fn run(mut args: Args) -> Result<ExitCode, UsageError> {
    let sf: f64 = args.value("--sf", 0.01)?;
    let bless = args.switch("--bless");
    let baseline_path = match args.positionals()?.as_slice() {
        [path] => PathBuf::from(path),
        _ => return Err(UsageError("gate takes exactly one <baseline.json>".into())),
    };

    if bless {
        eprintln!("collecting exact series at sf {sf} ...");
        let data = report::collect(sf);
        let replaced = report::load(&baseline_path).ok();
        if let Err(e) = report::save(&baseline_path, &data) {
            eprintln!("cannot write {}: {e}", baseline_path.display());
            return Ok(ExitCode::from(2));
        }
        println!(
            "wrote {} ({} gated benches)",
            baseline_path.display(),
            data.benches.len()
        );
        // The trajectory: the baseline is one point, the history all of them.
        let history_path = baseline_path.with_file_name("BENCH_history.json");
        match report::append_history(&history_path, replaced, &data) {
            Ok(entries) => println!("appended to {} ({entries} entries)", history_path.display()),
            Err(e) => {
                eprintln!("cannot append to {}: {e}", history_path.display());
                return Ok(ExitCode::from(2));
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = match report::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot load baseline {}: {e}", baseline_path.display());
            return Ok(ExitCode::from(2));
        }
    };
    eprintln!("gate: re-collecting deterministic series at sf {sf} ...");
    let current = report::collect(sf);
    let outcome = report::compare(&baseline, &current, TOLERANCE);
    println!(
        "gate: {} gated metrics checked against {} (tolerance {:.0}%), {} equal",
        outcome.checked,
        baseline_path.display(),
        TOLERANCE * 100.0,
        outcome.equal
    );
    if outcome.passed() {
        println!("gate: PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &outcome.failures {
            println!("gate: FAIL {f}");
        }
        println!(
            "gate: {} failure(s); to accept intentionally, re-run with --bless",
            outcome.failures.len()
        );
        Ok(ExitCode::FAILURE)
    }
}
