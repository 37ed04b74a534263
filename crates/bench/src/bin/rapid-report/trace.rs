//! `trace`: per-stage trace dump for one TPC-H query.
//!
//! Runs a single query through `HostDb::explain_analyze_plan` on the
//! simulated DPU and emits the full trace as JSON on stdout (the rendered
//! operator tree goes to stderr for humans). The JSON is split into a
//! `deterministic` section — simulated seconds/cycles, energy, DMS
//! counters, and the raw `rapid_qef::trace::StageEvent`s in their
//! `deterministic_view()` (wall readings zeroed) — and a `wall` section
//! carrying every host-clock reading. Two identical runs produce a
//! bit-identical `deterministic` section; only `wall` varies. Summing the
//! events' `sim_secs` in `stage_id` order reproduces the engine's
//! `QueryReport` total bit-for-bit.

use std::process::ExitCode;

use rapid_qef::exec::ExecContext;
use rapid_qef::trace::StageEvent;

use crate::args::{Args, UsageError};

/// Values derived only from the simulated DPU: stable across runs and
/// machines, safe for the regression gate to consume.
#[derive(serde::Serialize)]
struct Deterministic {
    site: String,
    rapid_secs: f64,
    total_sim_secs: f64,
    total_energy_joules: f64,
    total_compute_cycles: f64,
    total_dms_cycles: f64,
    total_dms_bytes: u64,
    total_dms_descriptors: u64,
    result_rows: usize,
    events: Vec<StageEvent>,
}

/// Host wall-clock readings: nondeterministic, informational only.
#[derive(serde::Serialize)]
struct Wall {
    host_secs: f64,
    /// Per-stage wall seconds, in the same order as
    /// `deterministic.events` (whose own `wall_secs` are zeroed).
    event_wall_secs: Vec<f64>,
}

#[derive(serde::Serialize)]
struct Report {
    query: String,
    scale_factor: f64,
    deterministic: Deterministic,
    wall: Wall,
}

pub fn run(mut args: Args) -> Result<ExitCode, UsageError> {
    let sf: f64 = args.value("--sf", 0.01)?;
    let qname = args
        .value("--query", "Q1".to_string())?
        .to_ascii_uppercase();
    args.no_positionals()?;

    let plans = tpch::queries::all();
    let Some((name, plan)) = plans.iter().find(|(n, _)| *n == qname) else {
        let names: Vec<&str> = plans.iter().map(|(n, _)| *n).collect();
        return Err(UsageError(format!(
            "--query: unknown query {qname}; available: {}",
            names.join(", ")
        )));
    };

    let (db, _catalog) = rapid_report::setup_tpch(sf, ExecContext::dpu().with_cores(32));
    let analysis = db.explain_analyze_plan(plan).expect("explain analyze");
    eprint!("{}", analysis.text);

    let events = analysis.events;
    let wall = Wall {
        host_secs: analysis.result.host_secs,
        event_wall_secs: events.iter().map(|e| e.wall_secs).collect(),
    };
    let deterministic = Deterministic {
        site: format!("{:?}", analysis.result.site),
        rapid_secs: analysis.result.rapid_secs,
        total_sim_secs: events.iter().map(|e| e.sim_secs).sum(),
        total_energy_joules: events.iter().map(|e| e.energy_joules).sum(),
        total_compute_cycles: events.iter().map(|e| e.compute_cycles).sum(),
        total_dms_cycles: events.iter().map(|e| e.dms_cycles).sum(),
        total_dms_bytes: events.iter().map(|e| e.dms_bytes).sum(),
        total_dms_descriptors: events.iter().map(|e| e.dms_descriptors).sum(),
        result_rows: analysis.result.rows.len(),
        events: events.iter().map(|e| e.deterministic_view()).collect(),
    };
    let report = Report {
        query: name.to_string(),
        scale_factor: sf,
        deterministic,
        wall,
    };
    println!("{}", serde_json::to_string(&report).expect("serialize"));
    Ok(ExitCode::SUCCESS)
}
