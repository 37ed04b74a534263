//! `gate`: re-collect the exact simulated series and compare them with a
//! committed baseline, or (`--bless`) rewrite that baseline.
//!
//! ```text
//! # CI gate: fail on a series that rose past float noise, or vanished,
//! # against the committed baseline; a series that fell is printed.
//! cargo run --release -p rapid-report -- gate BENCH_baseline.json
//!
//! # Take the series that fell into the baseline, and append the entry to
//! # BENCH_history.json beside it. A rise is taken only where it is named
//! # with a reason; a tree with uncommitted changes needs a label.
//! cargo run --release -p rapid-report -- gate BENCH_baseline.json --bless \
//!     --label <entry> [--accept tpch/q10/execution/descriptors=<reason>]...
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rapid_report::report;

use crate::args::{Args, UsageError};

pub fn run(mut args: Args) -> Result<ExitCode, UsageError> {
    let sf: f64 = args.value("--sf", 0.01)?;
    let bless = args.switch("--bless");
    let label: Option<String> = args.optional("--label")?;
    let accepted = args
        .values("--accept")?
        .into_iter()
        .map(|a| match a.split_once('=') {
            Some((series, reason)) if !series.is_empty() && !reason.is_empty() => {
                Ok((series.to_string(), reason.to_string()))
            }
            _ => Err(UsageError(format!(
                "--accept '{a}': expected <series>=<reason>"
            ))),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let baseline_path = match args.positionals()?.as_slice() {
        [path] => PathBuf::from(path),
        _ => return Err(UsageError("gate takes exactly one <baseline.json>".into())),
    };
    if !bless && (label.is_some() || !accepted.is_empty()) {
        return Err(UsageError("--label and --accept go with --bless".into()));
    }

    if bless {
        let commit = match report::commit_info(Path::new("."), label.as_deref()) {
            Ok(commit) => commit,
            Err(e) => {
                eprintln!("gate --bless: {e}");
                return Ok(ExitCode::from(2));
            }
        };
        eprintln!("collecting exact series at sf {sf} ...");
        let mut current = report::collect(sf);
        current.commit = commit;
        let replaced = report::load(&baseline_path).ok();
        let data = match report::bless(replaced.as_ref(), &current, &accepted) {
            Ok(data) => data,
            Err(refused) => {
                for r in &refused {
                    println!("gate: REFUSED {r}");
                }
                println!("gate: nothing written");
                return Ok(ExitCode::FAILURE);
            }
        };
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
    let outcome = report::compare(&baseline, &current);
    println!(
        "gate: {} gated metrics checked against {} (exact: a rise past {:e} relative fails), \
         {} equal, {} lower",
        outcome.checked,
        baseline_path.display(),
        report::NOISE,
        outcome.equal,
        outcome.fell.len()
    );
    for f in &outcome.fell {
        println!("gate: {f}");
    }
    if outcome.passed() {
        println!("gate: PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &outcome.failures {
            println!("gate: FAIL {f}");
        }
        println!(
            "gate: {} failure(s); to accept a rise intentionally, re-run with --bless \
             --accept <series>=<reason>",
            outcome.failures.len()
        );
        Ok(ExitCode::FAILURE)
    }
}
