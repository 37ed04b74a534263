//! `schedcheck`: schedule-interference verification sweep over real
//! scheduler runs.
//!
//! Runs a batch of TPC-H queries through the `rapid-sched` scheduler,
//! captures the run's schedule trace, and replays it through
//! `rapid-verify`'s C-* interference analyzer, printing the per-rule
//! verdict table. This is the CI gate proving the analyzer has no false
//! positives on schedules the real scheduler produces — the concurrency
//! counterpart of `verify`.
//!
//! `--mutations` additionally replays the interference-mutation harness
//! in this (release) binary: every injected bug class must be rejected
//! with its own C-* rule id and a located diagnostic, so the kill matrix
//! holds outside `cfg(test)` and outside debug assertions.
//!
//! Exits non-zero on any finding in a real run, or any surviving mutant.

use std::process::ExitCode;
use std::sync::Arc;

use hostdb::BatchQuery;
use rapid_qef::exec::ExecContext;
use rapid_report::mutate::{base_trace, InterferenceMutation};
use rapid_sched::{SchedConfig, Scheduler};
use rapid_verify::schedcheck;

use crate::args::{Args, UsageError};

pub fn run(mut args: Args) -> Result<ExitCode, UsageError> {
    let sf: f64 = args.value("--sf", 0.01)?;
    let queries: usize = args.value("--queries", 12)?;
    let active: usize = args.value("--active", 4)?;
    let mutations = args.switch("--mutations");
    args.no_positionals()?;

    let mut failures = 0usize;

    println!("== scheduled TPC-H batches (sf {sf}, {queries} queries, {active} slots) ==");
    let (db, _catalog) = rapid_report::setup_tpch(sf, ExecContext::dpu().with_cores(8));
    let all = tpch::queries::all();
    let batch: Vec<BatchQuery> = (0..queries)
        .map(|i| BatchQuery::from_plan(all[i % all.len()].1.clone()))
        .collect();

    let sched = Arc::new(Scheduler::new(SchedConfig {
        max_active: active,
        queue_capacity: batch.len(),
        ..SchedConfig::default()
    }));
    for result in db.run_batch(&batch, &sched) {
        if let Err(e) = result {
            panic!("scheduled query failed: {e:?}");
        }
    }
    let trace = sched.schedule_trace();
    let report = schedcheck::check_schedule(&trace);
    println!();
    for line in schedcheck::render(&trace, &report).lines() {
        println!("  {line}");
    }
    failures += usize::from(!report.ok());

    if mutations {
        println!("\n== interference-mutation kill matrix (release) ==");
        let base = base_trace();
        let base_report = schedcheck::check_schedule(&base);
        let verdict = if base_report.ok() { "PASS" } else { "FAIL" };
        println!("  {:24} {verdict}  (must be clean)", "unmutated-baseline");
        failures += usize::from(!base_report.ok());

        for m in InterferenceMutation::all() {
            let mutated = m.apply();
            let expected = m.expected_rule().id();
            let report = schedcheck::check_schedule(&mutated.trace);
            let killed = report.errors().any(|d| d.rule.id() == expected);
            let located = report
                .errors()
                .filter(|d| d.rule.id() == expected)
                .all(|d| !d.path.is_empty());
            let verdict = if killed && located {
                "REJECTED"
            } else if killed {
                "UNLOCATED"
            } else {
                "SURVIVED"
            };
            println!("  {:24} {verdict:9} ({expected})", mutated.name);
            failures += usize::from(!(killed && located));
        }
    }

    if failures > 0 {
        eprintln!("schedcheck_report: {failures} FAILURE(S)");
        return Ok(ExitCode::FAILURE);
    }
    println!("\nschedcheck_report: all schedules PASS");
    Ok(ExitCode::SUCCESS)
}
