//! rapid-verify: static plan verifier and schedule interference analyzer.
//!
//! A compiled physical plan is a program for the simulated RAPID DPU: a
//! tree of engine stages, each of which tiles its input through the 32 KiB
//! DMEM scratchpad with DMS descriptor transfers and (for joins and
//! partitioned aggregations) hash-partitions rows across dpCores. This
//! crate checks such programs *statically*, before a single row moves,
//! and checks nothing it builds itself — only the plan:
//!
//! * **Structural rules (`S-*`)** — every column reference is in bounds,
//!   join key lists agree in arity and type (including dictionary
//!   provenance for encoded varchars), and every scanned table resolves.
//! * **Resource rules (`R-*`)** — each stage's working set fits DMEM at a
//!   minimum 64-row vector, and partition fan-outs are powers of two
//!   within the schedulable hash bits and the local-buffer limit.
//! * **Accounting rules (`A-*`)** — declared cost-model parameters match
//!   what the engine will execute: the configured tile is at least the
//!   minimum vector, and an on-the-fly aggregation's statically-known
//!   group count fits the per-core DMEM table.
//! * **Concurrency rules (`C-*`)** — the [`schedcheck`] analyzer replays
//!   a completed scheduler run's placement trace against the
//!   interference invariants: an acyclic happens-before order the record
//!   order linearizes to, exclusivity of the single DMS engine and of
//!   each dpCore, DMEM capacity/budget at every placement boundary, and
//!   no lost-wakeup dispatches.
//!
//! All DMEM arithmetic is shared with the engine via `rapid_qef::budget`,
//! so the static verdict and the runtime tile choice cannot drift apart.
//!
//! Nothing here is installed anywhere: whoever wants a verdict calls
//! [`check`] or [`schedcheck::check_trace`]. The compiler gates every
//! compiled plan on [`check`] (a hard error, in every build — the engine
//! then runs what it is handed under its own typed errors); the two owners
//! of a scheduler, `HostDb::execute_batch` and the wire server's drain,
//! replay the finished run's trace through [`schedcheck::check_trace`] in
//! debug builds and panic on a finding; the fuzzer's concurrent mode calls
//! it after every batch, in release too; and `rapid-report
//! verify|schedcheck` sweep TPC-H and the fuzz corpus in CI. The mutation
//! harnesses that prove each rule of [`Rule::ALL`] actually fires, by
//! corrupting known-good plans and schedules with at least one mutation
//! class per rule, live in `rapid-report` (`rapid_report::mutate`), beside
//! `rapid-report schedcheck --mutations`, their one caller outside tests.

#![warn(missing_docs)]

pub mod diag;
pub mod schedcheck;
pub mod stage;

pub use diag::{Diagnostic, Rule, Severity, StageReport, VerifyReport};

use rapid_qef::exec::ExecContext;
use rapid_qef::plan::{Catalog, PlanNode};

/// The hardware/engine parameters a plan is verified against.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Per-core DMEM scratchpad capacity in bytes.
    pub dmem_bytes: usize,
    /// Configured vector (tile) size in rows.
    pub tile_rows: usize,
    /// Number of dpCores partitions should cover.
    pub cores: usize,
}

impl Default for VerifyConfig {
    /// The configuration of the full DPU, [`ExecContext::dpu`].
    fn default() -> Self {
        VerifyConfig::from_exec(&ExecContext::dpu())
    }
}

impl VerifyConfig {
    /// Derive the configuration an execution context implies; what the
    /// context does not carry — the round fan-out cap, the hash width and
    /// its skew reserve — is a constant of `rapid_qef::budget`.
    pub fn from_exec(ctx: &ExecContext) -> VerifyConfig {
        VerifyConfig {
            dmem_bytes: ctx.dmem_bytes,
            tile_rows: ctx.tile_rows,
            cores: ctx.cores,
        }
    }
}

/// Verify a plan against a catalog and configuration, returning the full
/// per-stage report plus diagnostics.
pub fn verify(plan: &PlanNode, catalog: &Catalog, cfg: &VerifyConfig) -> VerifyReport {
    stage::check_plan(plan, catalog, cfg)
}

/// Verify a plan and collapse the result to pass/fail: `Err` carries one
/// line per error-severity diagnostic.
pub fn check(plan: &PlanNode, catalog: &Catalog, cfg: &VerifyConfig) -> Result<(), String> {
    let report = verify(plan, catalog, cfg);
    if report.ok() {
        Ok(())
    } else {
        Err(report.error_summary())
    }
}
