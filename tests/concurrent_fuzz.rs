//! Concurrent differential fuzzing: scheduled batches vs serial results,
//! with the schedule interference analyzer replayed on every batch.
//!
//! * `concurrent_fuzz_smoke_*` is the bounded CI sweep: seeded random
//!   batches run through the scheduler (one session thread
//!   per query, shared simulated DPU) and must return exactly the serial
//!   rows; every batch's placement trace is additionally replayed through
//!   `rapid-verify`'s C-* interference rules
//!   (`rapid_verify::schedcheck::check_trace`), in release builds as in
//!   debug ones. `FUZZ_QUERIES` raises the query floor for soak
//!   runs (ci.sh drives the 1000-query release soak); `FUZZ_SEED`
//!   re-seeds. A finding is reported with the per-batch seed plus the
//!   *minimized* batch, and saved as pending corpus entries.
//! * `corpus_*` replays every committed divergence repro through the
//!   scheduler: three copies of each repro query as one batch, since the
//!   committed corpus bugs were all single-query findings and concurrency
//!   must not resurrect any of them.

use rapid_fuzz::concurrent::{fuzz_concurrent_run, run_concurrent};
use rapid_fuzz::corpus;

/// Fixed CI seed, distinct from the serial smoke's so the two sweeps
/// explore different cases.
const CI_SEED: u64 = 0x5EED_C0C0;

#[test]
fn concurrent_fuzz_smoke_finds_no_divergence() {
    let min_queries: usize = std::env::var("FUZZ_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    let seed: u64 = std::env::var("FUZZ_SEED")
        .ok()
        .and_then(|s| match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        })
        .unwrap_or(CI_SEED);
    let report = fuzz_concurrent_run(seed, min_queries);
    assert!(
        report.queries >= min_queries,
        "only {} of {min_queries} queries executed ({} batches skipped)",
        report.queries,
        report.skipped
    );
    assert!(
        report.placements > 0,
        "no stages were ever placed — the interference soak checked nothing"
    );
    if !report.divergences.is_empty() {
        let saved = report.save_failures(&corpus::corpus_dir().join("pending"));
        panic!(
            "concurrent fuzzing found scheduling divergences:\n{}",
            report.render_repro(seed, min_queries, &saved)
        );
    }
}

#[test]
fn corpus_replays_concurrently_with_no_divergence() {
    let entries = corpus::load_all(&corpus::corpus_dir());
    assert!(
        !entries.is_empty(),
        "fuzz/corpus is empty — the committed repros are gone"
    );
    for (path, entry) in entries {
        let batch = vec![entry.sql.clone(); 3];
        let cmp = run_concurrent(&entry.tables, &batch)
            .unwrap_or_else(|e| panic!("{path:?} no longer reaches the engines: {e}"));
        assert!(
            cmp.divergence().is_none(),
            "corpus entry {:?} regressed under concurrency ({}):\n{}",
            path,
            entry.note,
            cmp.divergence().unwrap()
        );
    }
}
