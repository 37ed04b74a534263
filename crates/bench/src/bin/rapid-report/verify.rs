//! `verify`: static verification sweep over every plan shape the repo can
//! produce.
//!
//! Compiles all eleven TPC-H queries at the given scale factor plus every
//! fuzz-corpus repro through `compile_unverified` — under both the
//! cost-based join order (the default) and the declared order
//! (`reorder_joins: false`), so reordered and unreordered plan shapes are
//! both swept — then runs `rapid-verify` over each physical plan and
//! prints a one-line verdict per query (`--full` dumps the per-stage
//! working-set table as well). Exits non-zero if any plan fails
//! verification — this is the CI gate proving the verifier has no false
//! positives on compiler-produced plans — or has a partition stage without
//! a declared fan-out: the plan says what runs, and a pass whose rounds
//! something after the compiler would have to choose is a finding here.

use std::collections::HashMap;
use std::process::ExitCode;

use hostdb::HostDb;
use rapid_qcomp::CostParams;
use rapid_qef::exec::ExecContext;
use rapid_qef::plan::Catalog;
use rapid_verify::{StageReport, VerifyReport};

use crate::args::{Args, UsageError};

pub fn run(mut args: Args) -> Result<ExitCode, UsageError> {
    let sf: f64 = args.value("--sf", 0.01)?;
    let full = args.switch("--full");
    args.no_positionals()?;

    // Both optimizer modes: the cost-based join order and the declared
    // one. Every query is swept under each so a reordered plan shape can
    // never dodge the verifier.
    let reordered = CostParams::default();
    let declared = CostParams {
        reorder_joins: false,
        ..CostParams::default()
    };
    let variants: [(&str, &CostParams); 2] = [("", &reordered), ("(declared)", &declared)];
    let cfg = rapid_qcomp::verify_config(&reordered);
    let mut failures = 0usize;

    println!("== TPC-H sf {sf} ==");
    let (_db, catalog) = rapid_report::setup_tpch(sf, ExecContext::dpu());
    for (name, lp) in tpch::queries::all() {
        failures += verify_one(name, &lp, &catalog, &variants, &cfg, full);
    }

    println!("== fuzz corpus ==");
    let dir = rapid_fuzz::corpus::corpus_dir();
    let entries = rapid_fuzz::corpus::load_all(&dir);
    if entries.is_empty() {
        eprintln!("warning: no corpus entries under {}", dir.display());
    }
    for (path, entry) in &entries {
        let label = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(&entry.name);
        let schemas: HashMap<String, Vec<String>> = entry
            .tables
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    t.columns.iter().map(|c| c.name.clone()).collect(),
                )
            })
            .collect();
        let lp = match hostdb::sql::parse_sql(&entry.sql, &schemas) {
            Ok(lp) => lp,
            Err(e) => {
                // Corpus entries that pin an agreed-upon *error* never
                // reach the compiler; that is a skip, not a failure.
                println!("{label:28} SKIP (parse: {e})");
                continue;
            }
        };
        let db = HostDb::new(ExecContext::dpu());
        let mut loaded = true;
        for t in &entry.tables {
            db.create_table(&t.name, t.schema());
            db.bulk_insert(&t.name, t.rows.iter().cloned());
            if let Err(e) = db.load_into_rapid(&t.name) {
                println!("{label:28} SKIP (load {}: {e})", t.name);
                loaded = false;
                break;
            }
        }
        if !loaded {
            continue;
        }
        let catalog = db.rapid().read().catalog().clone();
        failures += verify_one(label, &lp, &catalog, &variants, &cfg, full);
    }

    if failures > 0 {
        eprintln!("verify_report: {failures} plan(s) FAILED verification");
        return Ok(ExitCode::FAILURE);
    }
    println!("verify_report: all plans PASS");
    Ok(ExitCode::SUCCESS)
}

/// Compile + verify one logical plan under every optimizer variant;
/// returns the number of failing variants.
fn verify_one(
    name: &str,
    lp: &rapid_qcomp::logical::LogicalPlan,
    catalog: &Catalog,
    variants: &[(&str, &CostParams)],
    cfg: &rapid_verify::VerifyConfig,
    full: bool,
) -> usize {
    let mut failures = 0usize;
    for (suffix, params) in variants {
        let label = format!("{name}{suffix}");
        let compiled = match rapid_qcomp::compile_unverified(lp, catalog, params) {
            Ok(c) => c,
            Err(e) => {
                // The sweep verifies plans; queries the compiler itself
                // refuses (agreed error cases in the corpus) are skips.
                println!("{label:28} SKIP (compile: {e})");
                continue;
            }
        };
        let report = rapid_verify::verify(&compiled.plan, catalog, cfg);
        let undeclared: Vec<&StageReport> = undeclared_passes(&report).collect();
        let ok = report.ok() && undeclared.is_empty();
        let verdict = if ok { "PASS" } else { "FAIL" };
        println!(
            "{label:28} {verdict}  ({} stages, {} diagnostics)",
            report.stages.len(),
            report.diagnostics.len()
        );
        for s in undeclared {
            eprintln!(
                "{label}: node {} ({}) runs {} with no declared fan-out",
                s.node_id, s.path, s.stage
            );
        }
        if full || !ok {
            for line in report.render(cfg.dmem_bytes, cfg.tile_rows).lines() {
                println!("    {line}");
            }
        }
        failures += usize::from(!ok);
    }
    failures
}

/// Partition stages of a verified plan that declare no fan-out.
fn undeclared_passes(report: &VerifyReport) -> impl Iterator<Item = &StageReport> {
    let is_pass = |stage: &str| {
        ["partition", "partition-build", "partition-probe"]
            .iter()
            .any(|suffix| stage.ends_with(suffix))
    };
    report
        .stages
        .iter()
        .filter(move |s| is_pass(&s.stage) && s.fanouts.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_qef::plan::PlanNode;
    use rapid_report::mutate::{base_plan, demo_catalog, partition_groupby, set_scheme};

    #[test]
    fn a_pass_without_a_declared_fan_out_is_named() {
        let cfg = rapid_verify::VerifyConfig::default();
        let passes_of = |plan: &PlanNode| -> Vec<(usize, String)> {
            let report = rapid_verify::verify(plan, &demo_catalog(), &cfg);
            undeclared_passes(&report)
                .map(|s| (s.node_id, s.stage.clone()))
                .collect()
        };
        assert_eq!(passes_of(&base_plan()), []);
        assert_eq!(passes_of(&partition_groupby(vec![32])), []);
        // A group-by (node 0) with a scheme of no rounds still partitions:
        // its pass is named.
        let of_groupby = passes_of(&partition_groupby(vec![]));
        assert_eq!(of_groupby, [(0, "groupby.partition".to_string())]);
        // A join of no rounds is broadcast: it has no pass to name, only the
        // probe stage that ends its probe side's task.
        let broadcast = set_scheme(vec![]);
        assert_eq!(passes_of(&broadcast), []);
        let report = rapid_verify::verify(&broadcast, &demo_catalog(), &cfg);
        let of_join: Vec<_> = report.stages.iter().filter(|s| s.node_id == 2).collect();
        let stages: Vec<_> = of_join.iter().map(|s| (&*s.stage, &*s.operators)).collect();
        assert_eq!(stages, [("join.probe", "scan(t_fact) -> join.probe")]);
    }
}
