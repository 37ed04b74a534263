//! Differential SQL fuzzing for the three RAPID engines.
//!
//! The fuzzer generates seeded random tables ([`datagen`]) and queries
//! ([`querygen`]), executes each query on the host Volcano executor, on
//! RAPID over the simulated DPU, and on RAPID-software over native
//! threads ([`runner`]), and compares canonicalized results. Divergent
//! cases are greedily minimized ([`shrink`]) and committed as replayable
//! JSON repros ([`corpus`]).
//!
//! Everything is deterministic per seed: a CI failure line contains the
//! case seed, and `fuzz_one(seed)` reproduces the exact tables and SQL.
//!
//! A second mode ([`concurrent`]) fuzzes the *scheduler* instead of the
//! engines: batches of generated queries run through the `rapid-sched`
//! scheduler and must produce exactly the serial results,
//! with every batch's schedule trace replayed through the `rapid-verify`
//! interference analyzer.

pub mod concurrent;
pub mod corpus;
pub mod datagen;
pub mod querygen;
pub mod rng;
pub mod runner;
pub mod shrink;

use rapid_storage::types::Value;

use crate::rng::Rng;
use crate::runner::run_sql;
use crate::shrink::FuzzCase;

/// Canonical result form shared by the differential tests and the fuzzer:
/// every value rendered with numeric normalization (`1.50 == 1.5 == 3/2`),
/// then the rows sorted — immune to cross-engine row-order and scale
/// representation differences.
pub fn canonical(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Null => "NULL".to_string(),
                    Value::Str(s) => format!("s:{s}"),
                    other => {
                        let f = other.to_f64().expect("numeric");
                        format!("n:{:.6}", f)
                    }
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

/// One executed case and what happened to it.
pub struct CaseReport {
    /// The case seed (reproduce with [`fuzz_one`]).
    pub seed: u64,
    /// The generated case.
    pub case: FuzzCase,
    /// `Err(reason)` when the case never reached the engines (skip),
    /// `Ok(Some(detail))` on divergence, `Ok(None)` on agreement.
    pub outcome: Result<Option<String>, String>,
    /// Whether the case's compiled plan declares a join filter.
    pub filtered: bool,
    /// Whether one of them is on a broadcast join.
    pub broadcast_filtered: bool,
    /// Whether a scan read fewer chunks than its table has.
    pub pruned: bool,
    /// Whether a join or group-by ran over key ranges of its tables.
    pub ranged: bool,
    /// Whether one of them read one input by range and partitioned the
    /// other by its key's value bits.
    pub one_sided: bool,
    /// Whether a join of the compiled plan writes fewer columns than its
    /// sides hand it.
    pub narrowed: bool,
}

/// Generate and execute the case for one seed.
pub fn fuzz_one(seed: u64) -> CaseReport {
    let mut rng = Rng::new(seed);
    let tables = datagen::gen_tables(&mut rng);
    let query = querygen::gen_query(&mut rng);
    let case = FuzzCase { tables, query };
    let run = run_sql(&case.tables, &case.sql());
    let filtered = run.as_ref().is_ok_and(|t| t.filtered);
    let broadcast_filtered = run.as_ref().is_ok_and(|t| t.broadcast_filtered);
    let pruned = run.as_ref().is_ok_and(|t| t.pruned);
    let ranged = run.as_ref().is_ok_and(|t| t.ranged);
    let one_sided = run.as_ref().is_ok_and(|t| t.one_sided);
    let narrowed = run.as_ref().is_ok_and(|t| t.narrowed);
    CaseReport {
        seed,
        case,
        outcome: run.map(|t| t.divergence()),
        filtered,
        broadcast_filtered,
        pruned,
        ranged,
        one_sided,
        narrowed,
    }
}

/// A minimized divergence, ready to be reported or saved to the corpus.
pub struct Divergence {
    /// Seed of the originating case.
    pub seed: u64,
    /// Divergence description from the *original* (pre-shrink) run.
    pub detail: String,
    /// The minimized case.
    pub minimized: FuzzCase,
}

/// Aggregate result of a fuzzing run.
pub struct FuzzReport {
    /// Cases that executed on all three engines.
    pub executed: usize,
    /// Cases that failed before reaching the engines (parse/load).
    pub skipped: usize,
    /// Executed cases whose compiled plan declares a join filter.
    pub filtered: usize,
    /// Of them, those with a filter on a broadcast join.
    pub broadcast_filtered: usize,
    /// Executed cases where a scan read fewer chunks than its table has.
    pub pruned: usize,
    /// Executed cases that ran a join or group-by over key ranges.
    pub ranged: usize,
    /// Of them, those with a join that read one input by range and
    /// partitioned the other by its key's value bits.
    pub one_sided: usize,
    /// Executed cases with a join that writes fewer columns than its sides
    /// hand it.
    pub narrowed: usize,
    /// Divergences found, each minimized.
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// Human-readable failure report: one block per divergence with the
    /// seed, minimized SQL, and minimized data as corpus-style JSON.
    pub fn render(&self) -> String {
        self.render_inner(None, &[])
    }

    /// Full reproducibility report for a failed run: [`render`] plus the
    /// exact `FUZZ_SEED`/`FUZZ_QUERIES` command line that re-runs the
    /// whole sweep, and the corpus path written for each divergence
    /// (pair with [`save_failures`]; `saved` is parallel to
    /// `divergences`, shorter is tolerated).
    ///
    /// [`render`]: FuzzReport::render
    /// [`save_failures`]: FuzzReport::save_failures
    pub fn render_repro(&self, run_seed: u64, n: usize, saved: &[std::path::PathBuf]) -> String {
        self.render_inner(Some((run_seed, n)), saved)
    }

    fn render_inner(&self, run: Option<(u64, usize)>, saved: &[std::path::PathBuf]) -> String {
        let mut s = format!(
            "{} executed, {} skipped, {} divergences",
            self.executed,
            self.skipped,
            self.divergences.len()
        );
        if let Some((run_seed, n)) = run {
            s.push_str(&format!(
                "\nre-run the exact sweep: FUZZ_SEED={run_seed:#x} FUZZ_QUERIES={n} \
                 cargo test --release --test differential_fuzz fuzz_smoke_finds_no_divergence"
            ));
        }
        for (i, d) in self.divergences.iter().enumerate() {
            s.push_str(&format!(
                "\n--- seed {:#x}\n{}\nreproduce this case alone: rapid_fuzz::fuzz_one({:#x})",
                d.seed, d.detail, d.seed
            ));
            if let Some(path) = saved.get(i) {
                s.push_str(&format!("\nrepro written: {}", path.display()));
            }
            s.push_str(&format!(
                "\nminimized SQL: {}\nminimized data: {}",
                d.minimized.sql(),
                serde_json::to_string(&d.minimized.tables).unwrap_or_default()
            ));
        }
        s
    }

    /// Write each divergence as a replayable corpus entry under `dir`
    /// (one `pending-<seed>.json` per divergence), returning the paths in
    /// `divergences` order. The entries are ordinary [`corpus`] files: a
    /// later session promotes them into `fuzz/corpus/` proper (with a
    /// fix note) or deletes them once fixed.
    pub fn save_failures(&self, dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        self.divergences
            .iter()
            .map(|d| {
                let entry = corpus::CorpusEntry {
                    name: format!("pending-{:016x}", d.seed),
                    note: format!("PENDING unfixed divergence: {}", d.detail),
                    seed: Some(d.seed),
                    sql: d.minimized.sql(),
                    tables: d.minimized.tables.clone(),
                };
                corpus::save(dir, &entry)
            })
            .collect()
    }
}

/// Run `n` executed cases derived from `run_seed`, minimizing every
/// divergence found. Parse/load skips draw replacement seeds so the run
/// always executes `n` real tri-engine comparisons (bounded at `3n`
/// attempts so a generator bug cannot loop forever).
pub fn fuzz_run(run_seed: u64, n: usize) -> FuzzReport {
    let mut report = FuzzReport {
        executed: 0,
        skipped: 0,
        filtered: 0,
        broadcast_filtered: 0,
        pruned: 0,
        ranged: 0,
        one_sided: 0,
        narrowed: 0,
        divergences: Vec::new(),
    };
    let mut attempt = 0u64;
    while report.executed < n && attempt < 3 * n as u64 {
        let seed = rng::mix(run_seed, attempt);
        attempt += 1;
        let r = fuzz_one(seed);
        report.filtered += usize::from(r.outcome.is_ok() && r.filtered);
        report.broadcast_filtered += usize::from(r.outcome.is_ok() && r.broadcast_filtered);
        report.pruned += usize::from(r.outcome.is_ok() && r.pruned);
        report.ranged += usize::from(r.outcome.is_ok() && r.ranged);
        report.one_sided += usize::from(r.outcome.is_ok() && r.one_sided);
        report.narrowed += usize::from(r.outcome.is_ok() && r.narrowed);
        match r.outcome {
            Err(_) => report.skipped += 1,
            Ok(None) => report.executed += 1,
            Ok(Some(detail)) => {
                report.executed += 1;
                let minimized = shrink::shrink(&r.case, 250);
                report.divergences.push(Divergence {
                    seed,
                    detail,
                    minimized,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Force a synthetic divergence and check the failure report is a
    /// complete repro: exact re-run command line, per-case seed, and the
    /// corpus path written — and that the written file replays as a
    /// normal corpus entry.
    #[test]
    fn failure_report_is_a_complete_repro() {
        // A real generated case (whether it diverges is irrelevant —
        // the report is being tested, not the engines).
        let case_seed = rng::mix(0xD1CE, 0);
        let case = fuzz_one(case_seed).case;
        let report = FuzzReport {
            executed: 5,
            skipped: 0,
            filtered: 0,
            broadcast_filtered: 0,
            pruned: 0,
            ranged: 0,
            one_sided: 0,
            narrowed: 0,
            divergences: vec![Divergence {
                seed: case_seed,
                detail: "synthetic: host and dpu disagree on row 0".to_string(),
                minimized: case,
            }],
        };

        let dir = std::env::temp_dir().join("rapid_fuzz_pending_test");
        std::fs::remove_dir_all(&dir).ok();
        let saved = report.save_failures(&dir);
        assert_eq!(saved.len(), 1);

        let rendered = report.render_repro(0x5EED, 200, &saved);
        let rerun = format!("FUZZ_SEED={:#x} FUZZ_QUERIES=200", 0x5EEDu64);
        assert!(rendered.contains(&rerun), "missing re-run env: {rendered}");
        assert!(
            rendered.contains("cargo test --release --test differential_fuzz"),
            "missing re-run command: {rendered}"
        );
        assert!(
            rendered.contains(&format!("fuzz_one({case_seed:#x})")),
            "missing per-case seed: {rendered}"
        );
        assert!(
            rendered.contains(&saved[0].display().to_string()),
            "missing corpus path: {rendered}"
        );

        // The written artifact must be a loadable corpus entry pinning
        // the same case.
        let entries = corpus::load_all(&dir);
        assert_eq!(entries.len(), 1);
        let (path, entry) = &entries[0];
        assert_eq!(path, &saved[0]);
        assert_eq!(entry.seed, Some(case_seed));
        assert_eq!(entry.sql, report.divergences[0].minimized.sql());
        assert!(entry.name.starts_with("pending-"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
