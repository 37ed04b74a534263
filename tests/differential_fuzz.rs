//! Differential SQL fuzzing across the three engines (the tentpole of the
//! fuzzing work): seeded random queries over seeded random adversarial
//! tables, executed on the host Volcano executor, RAPID on the simulated
//! DPU, and RAPID-software on native threads, with canonicalized results
//! compared three ways.
//!
//! * `fuzz_smoke_*` is the bounded CI sweep: a fixed seed, at least 200
//!   executed queries (override with `FUZZ_QUERIES`), zero divergences
//!   allowed. Failures print the per-case seed plus the *minimized* SQL
//!   and data so a CI log alone is a complete repro.
//! * `corpus_*` replays every committed divergence repro in
//!   `fuzz/corpus/` — each is a bug the fuzzer (or a differential audit)
//!   once forced out, minimized, and fixed.
//! * `overflow_error_parity_*` pins error-asymmetry behavior for i64
//!   boundary arithmetic: when one engine refuses, all three must refuse.

use rapid_fuzz::datagen::{ColumnSpec, TableSpec};
use rapid_fuzz::runner::{run_sql, EngineOutcome};
use rapid_fuzz::{corpus, fuzz_run};
use rapid_storage::types::{DataType, Value};

/// Fixed CI seed: changing it invalidates nothing (any seed must pass),
/// but keeping it fixed makes CI deterministic.
const CI_SEED: u64 = 0x5EED_2A91D;

#[test]
fn fuzz_smoke_finds_no_divergence() {
    let n: usize = std::env::var("FUZZ_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    // FUZZ_SEED (decimal or 0x-hex) lets long soak runs explore fresh
    // territory without touching the deterministic CI configuration.
    let seed: u64 = std::env::var("FUZZ_SEED")
        .ok()
        .and_then(|s| match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        })
        .unwrap_or(CI_SEED);
    let report = fuzz_run(seed, n);
    assert!(
        report.executed >= n,
        "only {} of {n} cases executed ({} skipped before reaching the engines)",
        report.executed,
        report.skipped
    );
    if !report.divergences.is_empty() {
        // Write each divergence as a replayable pending corpus entry (a
        // subdirectory, so corpus replay — which reads only top-level
        // *.json — stays green until the bug is actually fixed), then
        // fail with the full repro: exact FUZZ_SEED/FUZZ_QUERIES re-run
        // line, per-case seeds, and the paths written.
        let saved = report.save_failures(&corpus::corpus_dir().join("pending"));
        panic!(
            "differential fuzzing found engine divergences:\n{}",
            report.render_repro(seed, n, &saved)
        );
    }
    // The grammar reaches the join filter: selective inner and semi joins
    // whose compiled plans declare one, one query in twenty at least — and
    // as many with one on a broadcast join.
    assert!(
        report.filtered >= n / 20,
        "only {} of {} executed queries declare a join filter",
        report.filtered,
        report.executed
    );
    assert!(
        report.broadcast_filtered >= n / 20,
        "only {} of {} executed queries declare a filter on a broadcast join",
        report.broadcast_filtered,
        report.executed
    );
    // The grammar reaches zone maps: a range or a point on the slot-ordered
    // `ta_id` that rules chunks out, one query in twenty at least.
    assert!(
        report.pruned >= n / 20,
        "only {} of {} executed queries read fewer chunks than a table has",
        report.pruned,
        report.executed
    );
}

#[test]
fn corpus_replays_with_no_divergence() {
    let entries = corpus::load_all(&corpus::corpus_dir());
    assert!(
        !entries.is_empty(),
        "fuzz/corpus is empty — the committed repros are gone"
    );
    for (path, entry) in entries {
        let out = run_sql(&entry.tables, &entry.sql)
            .unwrap_or_else(|e| panic!("{path:?} no longer reaches the engines: {e}"));
        assert!(
            out.divergence().is_none(),
            "corpus entry {:?} regressed ({}):\n{}",
            path,
            entry.note,
            out.divergence().unwrap()
        );
    }
}

/// A one-column table around the i64 boundary.
fn big_table(values: &[i64]) -> Vec<TableSpec> {
    vec![TableSpec {
        name: "ta".into(),
        columns: vec![
            ColumnSpec {
                name: "ta_id".into(),
                dtype: DataType::Int,
            },
            ColumnSpec {
                name: "ta_big".into(),
                dtype: DataType::Int,
            },
        ],
        rows: values
            .iter()
            .enumerate()
            .map(|(i, v)| vec![Value::Int(i as i64), Value::Int(*v)])
            .collect(),
    }]
}

fn assert_all_error(tables: &[TableSpec], sql: &str) {
    let out = run_sql(tables, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    assert!(
        out.divergence().is_none(),
        "{sql}: engines disagree:\n{}",
        out.divergence().unwrap()
    );
    assert!(
        matches!(out.host, EngineOutcome::Error(_)),
        "{sql}: expected every engine to error, host returned rows"
    );
}

#[test]
fn overflow_error_parity_negating_i64_min() {
    // -i64::MIN does not exist; every engine must refuse, none may wrap.
    assert_all_error(
        &big_table(&[i64::MIN, 7]),
        "SELECT 0 - ta_big AS c0 FROM ta",
    );
}

#[test]
fn overflow_error_parity_mul_minus_one() {
    assert_all_error(
        &big_table(&[3, i64::MIN]),
        "SELECT ta_big * -1 AS c0 FROM ta",
    );
}

#[test]
fn overflow_error_parity_sum() {
    // Three near-max values: any accumulation order (per-core partials,
    // cross-core merges) overflows, so the error cannot depend on how the
    // engine parallelizes.
    assert_all_error(
        &big_table(&[i64::MAX, i64::MAX, i64::MAX]),
        "SELECT SUM(ta_big) AS c0 FROM ta",
    );
}

#[test]
fn overflow_error_parity_division_by_zero() {
    assert_all_error(&big_table(&[5, -5]), "SELECT ta_big / 0 AS c0 FROM ta");
}

#[test]
fn in_range_boundary_arithmetic_agrees() {
    // The same shapes just inside the boundary must *succeed* on all
    // three engines — error parity must not come from over-eager refusal.
    let out = run_sql(
        &big_table(&[i64::MIN + 1, i64::MAX, 0]),
        "SELECT 0 - ta_big AS c0 FROM ta",
    )
    .unwrap();
    assert!(out.divergence().is_none(), "{}", out.divergence().unwrap());
    match &out.host {
        EngineOutcome::Rows(rows) => assert_eq!(rows.len(), 3),
        EngineOutcome::Error(e) => panic!("negating i64::MIN+1 should succeed: {e}"),
    }
}
