//! Concurrent differential fuzzing: scheduled batches vs the serial path.
//!
//! Where [`runner`](crate::runner) compares three engines on one query,
//! this mode compares one engine against *itself under concurrency*: a
//! generated batch of queries runs through the `rapid-sched` scheduler
//! (one session thread per query, shared simulated DPU) and the same
//! queries run serially, and the per-query canonical row multisets must
//! agree. Scheduling is required to change only *timing*, never
//! results.
//!
//! Every batch additionally replays its schedule trace through the
//! `rapid-verify` interference analyzer
//! ([`rapid_verify::schedcheck::check_trace`]), in release builds as in
//! debug ones. An analyzer finding (a C-* rule violation) is a fuzz finding
//! exactly like a row divergence.
//!
//! Divergent batches are minimized by dropping whole queries first, then
//! unreferenced tables, then rows ([`shrink_concurrent`]), and saved as
//! pending corpus entries — one per query of the minimized batch, with the
//! batch context in the note.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hostdb::{BatchQuery, ExecutionSite, HostDb};
use rapid_qef::exec::ExecContext;
use rapid_sched::{SchedConfig, Scheduler};

use crate::canonical;
use crate::datagen::TableSpec;
use crate::querygen::QuerySpec;
use crate::runner::{guarded, preview, schemas, EngineOutcome};
use crate::{corpus, datagen, querygen, rng};

/// A reproducible concurrent case: shared tables plus a batch of queries.
#[derive(Debug, Clone)]
pub struct ConcurrentCase {
    /// Tables to create and load (shared by every query of the batch).
    pub tables: Vec<TableSpec>,
    /// The batch, in submission order.
    pub queries: Vec<QuerySpec>,
}

impl ConcurrentCase {
    /// Rendered SQL, one statement per batch slot.
    pub fn sqls(&self) -> Vec<String> {
        self.queries.iter().map(|q| q.to_sql()).collect()
    }
}

/// Generate the case for one seed: one table set, 2–4 queries over it.
pub fn gen_concurrent(seed: u64) -> ConcurrentCase {
    let mut rng = rng::Rng::new(seed);
    let tables = datagen::gen_tables(&mut rng);
    let k = 2 + rng.below(3) as usize;
    let queries = (0..k).map(|_| querygen::gen_query(&mut rng)).collect();
    ConcurrentCase { tables, queries }
}

/// What one batch produced: per-slot outcomes on both paths plus the
/// interference analyzer's verdict on the scheduled run.
#[derive(Debug)]
pub struct BatchComparison {
    /// Serial (unscheduled) outcome per batch slot.
    pub serial: Vec<EngineOutcome>,
    /// Scheduled outcome per batch slot.
    pub scheduled: Vec<EngineOutcome>,
    /// `Some(report)` when the schedule trace violated a C-* rule.
    pub interference: Option<String>,
    /// Stage placements the scheduler recorded — the evidence the
    /// interference analyzer actually had a schedule to check.
    pub placements: usize,
}

impl BatchComparison {
    /// `Some(description)` when scheduling changed any result, broke
    /// error parity, or the interference analyzer rejected the trace.
    pub fn divergence(&self) -> Option<String> {
        if let Some(e) = &self.interference {
            return Some(format!("schedule interference: {e}"));
        }
        for (i, (s, c)) in self.serial.iter().zip(&self.scheduled).enumerate() {
            use EngineOutcome::*;
            match (s, c) {
                (Rows(a), Rows(b)) if a == b => {}
                // Error *messages* may differ (timeout vs engine error);
                // only the error/success split must match, as in the
                // tri-engine runner.
                (Error(_), Error(_)) => {}
                (Rows(a), Rows(b)) => {
                    return Some(format!(
                        "query {i}: scheduling changed rows: serial={} scheduled={}\n  \
                         serial: {:?}\n  scheduled: {:?}",
                        a.len(),
                        b.len(),
                        preview(a),
                        preview(b)
                    ));
                }
                _ => {
                    return Some(format!(
                        "query {i}: error asymmetry: serial=[{}] scheduled=[{}]",
                        s.describe(),
                        c.describe()
                    ));
                }
            }
        }
        None
    }
}

/// Run one batch both ways and compare.
///
/// `Err` means the case never reached the engines (parse or load failure)
/// and should count as skipped. The serial baseline and the scheduled run
/// take the same offload-decision path; only the scheduler sits between
/// them.
pub fn run_concurrent(tables: &[TableSpec], sqls: &[String]) -> Result<BatchComparison, String> {
    run_scheduled(tables, sqls, SchedConfig::default())
}

/// [`run_concurrent`] on a scheduler over the DPU `dpu` describes (its
/// admission bounds are the batch's either way; every scheduler places
/// stages in the one dispatch order).
fn run_scheduled(
    tables: &[TableSpec],
    sqls: &[String],
    dpu: SchedConfig,
) -> Result<BatchComparison, String> {
    let schemas = schemas(tables);
    let plans: Vec<_> = sqls
        .iter()
        .map(|sql| hostdb::sql::parse_sql(sql, &schemas).map_err(|e| format!("parse: {e}")))
        .collect::<Result<_, _>>()?;

    let mut db = HostDb::new(ExecContext::dpu().with_cores(4));
    // Fuzz tables are tiny, so the cost model would keep everything on
    // the host and the scheduler would never place a stage. Force the
    // RAPID site: both paths take the same forced decision (and the same
    // host fallback on engine failure), so parity is preserved while the
    // DPU timeline actually fills.
    db.force_site = Some(ExecutionSite::Rapid);
    for t in tables {
        db.create_table(&t.name, t.schema());
        db.bulk_insert(&t.name, t.rows.iter().cloned());
        db.load_into_rapid(&t.name)
            .map_err(|e| format!("load {}: {e}", t.name))?;
    }

    let serial: Vec<EngineOutcome> = plans
        .iter()
        .map(|plan| {
            guarded(|| {
                db.execute_plan(plan)
                    .map(|q| EngineOutcome::Rows(canonical(&q.rows)))
                    .map_err(|e| e.to_string())
            })
        })
        .collect();

    let sched = Arc::new(Scheduler::new(SchedConfig {
        max_active: plans.len().clamp(1, 4),
        queue_capacity: plans.len(),
        ..dpu
    }));
    let batch: Vec<BatchQuery> = plans
        .iter()
        .map(|p| BatchQuery::from_plan(p.clone()))
        .collect();
    // `run_batch` rather than `execute_batch`: the scheduler is ours, so
    // the analyzer's verdict is a finding to report, not a panic.
    let scheduled: Vec<EngineOutcome> = db
        .run_batch(&batch, &sched)
        .into_iter()
        .map(|r| match r {
            Ok(r) => EngineOutcome::Rows(canonical(&r.rows)),
            Err(e) => EngineOutcome::Error(e.to_string()),
        })
        .collect();

    let trace = sched.schedule_trace();
    let interference = rapid_verify::schedcheck::check_trace(&trace).err();
    let placements = trace.placements.len();
    Ok(BatchComparison {
        serial,
        scheduled,
        interference,
        placements,
    })
}

fn diverges(case: &ConcurrentCase, budget: &mut usize) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    run_concurrent(&case.tables, &case.sqls())
        .ok()
        .and_then(|c| c.divergence())
        .is_some()
}

/// Greedily minimize a divergent batch: drop whole queries, then tables
/// no remaining query references, then rows (halves, then singles).
/// `budget` bounds the number of batch executions spent.
pub fn shrink_concurrent(case: &ConcurrentCase, mut budget: usize) -> ConcurrentCase {
    let mut best = case.clone();
    let mut changed = true;
    while changed && budget > 0 {
        changed = false;

        // Whole-query drops — the cheapest structural win, and the one
        // that distinguishes "needs the batch" from "broken solo".
        if best.queries.len() > 1 {
            for i in (0..best.queries.len()).rev() {
                let mut v = best.clone();
                v.queries.remove(i);
                if diverges(&v, &mut budget) {
                    best = v;
                    changed = true;
                    break;
                }
            }
        }
        if changed {
            continue;
        }

        // Tables no surviving query mentions reject themselves if the
        // guess is wrong (the batch stops parsing and stops diverging).
        if best.tables.len() > 1 {
            for ti in (0..best.tables.len()).rev() {
                let name = best.tables[ti].name.clone();
                if best.sqls().iter().any(|s| s.contains(&name)) {
                    continue;
                }
                let mut v = best.clone();
                v.tables.remove(ti);
                if diverges(&v, &mut budget) {
                    best = v;
                    changed = true;
                    break;
                }
            }
        }
        if changed {
            continue;
        }

        // Row-level drops, as in the serial shrinker.
        let queries = &best.queries;
        changed = crate::shrink::drop_rows(&mut best.tables, |tables| {
            let case = ConcurrentCase {
                tables: tables.to_vec(),
                queries: queries.clone(),
            };
            diverges(&case, &mut budget)
        });
    }
    best
}

/// A minimized concurrent divergence.
pub struct ConcurrentDivergence {
    /// Seed of the originating batch (reproduce with
    /// [`gen_concurrent`] + [`run_concurrent`]).
    pub seed: u64,
    /// Divergence description from the *original* (pre-shrink) run.
    pub detail: String,
    /// The minimized batch.
    pub minimized: ConcurrentCase,
}

/// Aggregate result of a concurrent fuzzing run.
pub struct ConcurrentReport {
    /// Batches that executed on both paths.
    pub batches: usize,
    /// Queries those batches contained (the soak counts queries, not
    /// batches — batch sizes vary per seed).
    pub queries: usize,
    /// Batches that failed before reaching the engines (parse/load).
    pub skipped: usize,
    /// Total stage placements the scheduler recorded across all batches
    /// — must be nonzero or the interference soak proved nothing.
    pub placements: usize,
    /// Divergences found, each minimized.
    pub divergences: Vec<ConcurrentDivergence>,
}

impl ConcurrentReport {
    /// Full reproducibility report: counts, the exact env re-run line,
    /// and per-divergence seed + minimized SQL/data (`saved` is parallel
    /// to `divergences`, shorter is tolerated).
    pub fn render_repro(&self, run_seed: u64, min_queries: usize, saved: &[PathBuf]) -> String {
        let mut s = format!(
            "{} batches ({} queries, {} scheduled stage placements) executed, \
             {} skipped, {} divergences",
            self.batches,
            self.queries,
            self.placements,
            self.skipped,
            self.divergences.len()
        );
        s.push_str(&format!(
            "\nre-run the exact sweep: FUZZ_SEED={run_seed:#x} FUZZ_QUERIES={min_queries} \
             cargo test --release --test concurrent_fuzz \
             concurrent_fuzz_smoke_finds_no_divergence"
        ));
        for (i, d) in self.divergences.iter().enumerate() {
            s.push_str(&format!(
                "\n--- seed {:#x}\n{}\nreproduce this batch alone: \
                 rapid_fuzz::concurrent::run_concurrent on gen_concurrent({:#x})",
                d.seed, d.detail, d.seed
            ));
            if let Some(path) = saved.get(i) {
                s.push_str(&format!("\nrepro written: {}", path.display()));
            }
            for (qi, sql) in d.minimized.sqls().iter().enumerate() {
                s.push_str(&format!("\nminimized SQL [{qi}]: {sql}"));
            }
            s.push_str(&format!(
                "\nminimized data: {}",
                serde_json::to_string(&d.minimized.tables).unwrap_or_default()
            ));
        }
        s
    }

    /// Write each divergence as pending corpus entries under `dir`: one
    /// entry per query of the minimized batch (a [`corpus::CorpusEntry`]
    /// holds one statement), the batch context in the note. Returns one
    /// representative path per divergence, parallel to `divergences`.
    pub fn save_failures(&self, dir: &Path) -> Vec<PathBuf> {
        self.divergences
            .iter()
            .map(|d| {
                let sqls = d.minimized.sqls();
                let paths: Vec<PathBuf> = sqls
                    .iter()
                    .enumerate()
                    .map(|(qi, sql)| {
                        let entry = corpus::CorpusEntry {
                            name: format!("pending-concurrent-{:016x}-q{qi}", d.seed),
                            note: format!(
                                "PENDING unfixed concurrent divergence \
                                 (query {qi} of a {}-query scheduled batch): {}",
                                sqls.len(),
                                d.detail
                            ),
                            seed: Some(d.seed),
                            sql: sql.clone(),
                            tables: d.minimized.tables.clone(),
                        };
                        corpus::save(dir, &entry)
                    })
                    .collect();
                paths.into_iter().next().unwrap_or_default()
            })
            .collect()
    }
}

/// Run seeded batches until at least `min_queries` queries have executed
/// through the scheduler, minimizing every divergence found. Parse/load
/// skips draw replacement seeds (bounded so a generator bug cannot loop
/// forever).
pub fn fuzz_concurrent_run(run_seed: u64, min_queries: usize) -> ConcurrentReport {
    let mut report = ConcurrentReport {
        batches: 0,
        queries: 0,
        skipped: 0,
        placements: 0,
        divergences: Vec::new(),
    };
    let mut attempt = 0u64;
    // Batches hold ≥2 queries, so min_queries batches always suffice;
    // triple that for skips.
    let max_attempts = 3 * min_queries.max(1) as u64;
    while report.queries < min_queries && attempt < max_attempts {
        let seed = rng::mix(run_seed ^ 0xC0C0, attempt);
        attempt += 1;
        let case = gen_concurrent(seed);
        match run_concurrent(&case.tables, &case.sqls()) {
            Err(_) => report.skipped += 1,
            Ok(cmp) => {
                report.batches += 1;
                report.queries += case.queries.len();
                report.placements += cmp.placements;
                if let Some(detail) = cmp.divergence() {
                    let minimized = shrink_concurrent(&case, 60);
                    report.divergences.push(ConcurrentDivergence {
                        seed,
                        detail,
                        minimized,
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::ColumnSpec;
    use rapid_storage::types::{DataType, Value};

    fn tiny_tables() -> Vec<TableSpec> {
        vec![TableSpec {
            name: "ta".into(),
            columns: vec![
                ColumnSpec {
                    name: "ta_id".into(),
                    dtype: DataType::Int,
                },
                ColumnSpec {
                    name: "ta_a".into(),
                    dtype: DataType::Int,
                },
            ],
            rows: vec![
                vec![Value::Int(0), Value::Int(5)],
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Int(-3)],
            ],
        }]
    }

    #[test]
    fn scheduled_batch_agrees_with_serial() {
        let sqls = vec![
            "SELECT ta_id AS c0, ta_a AS c1 FROM ta".to_string(),
            "SELECT SUM(ta_a) AS c0 FROM ta".to_string(),
            "SELECT ta_id AS c0 FROM ta WHERE ta_a > 0".to_string(),
        ];
        let cmp = run_concurrent(&tiny_tables(), &sqls).expect("batch reaches the engines");
        assert!(cmp.divergence().is_none(), "{:?}", cmp.divergence());
        assert_eq!(cmp.serial.len(), 3);
        assert_eq!(cmp.scheduled.len(), 3);
        assert!(
            cmp.interference.is_none(),
            "clean batch flagged: {:?}",
            cmp.interference
        );
        assert!(
            cmp.placements > 0,
            "forced-RAPID batch must place stages on the scheduler"
        );
    }

    /// The replay is a check that can fail, in whatever build runs it: on
    /// a scheduler told its DPU has 64-byte scratchpads every placed stage
    /// is over budget, and the batch is a finding although its rows agree.
    #[test]
    fn an_interfering_schedule_is_a_divergence() {
        let sqls = vec![
            "SELECT ta_id AS c0, ta_a AS c1 FROM ta".to_string(),
            "SELECT SUM(ta_a) AS c0 FROM ta".to_string(),
        ];
        let cramped = SchedConfig {
            dmem_bytes: 64,
            ..SchedConfig::default()
        };
        let cmp = run_scheduled(&tiny_tables(), &sqls, cramped).expect("batch reaches the engines");
        assert_eq!(cmp.serial, cmp.scheduled, "the rows still agree");
        let verdict = cmp.interference.as_deref().unwrap_or("clean");
        assert!(verdict.contains("C-QUERY-BUDGET"), "{verdict}");
        let detail = cmp.divergence().expect("an analyzer finding is a finding");
        assert!(detail.starts_with("schedule interference"), "{detail}");
    }

    #[test]
    fn parse_failure_is_a_skip_not_a_divergence() {
        let sqls = vec![
            "SELECT ta_id AS c0 FROM ta".to_string(),
            "SELEC nonsense".to_string(),
        ];
        assert!(run_concurrent(&tiny_tables(), &sqls).is_err());
    }

    #[test]
    fn generated_batches_have_two_to_four_queries() {
        for seed in 0..16u64 {
            let case = gen_concurrent(rng::mix(0xBA7C, seed));
            assert!((2..=4).contains(&case.queries.len()), "seed {seed}");
            assert!(!case.tables.is_empty());
        }
    }

    /// The shrinker must keep a divergence reproducible — pin the
    /// query-drop pass with a synthetic always-diverging predicate by
    /// feeding it a batch whose divergence is independent of which
    /// queries remain (all slots identical); the minimized batch then
    /// bottoms out at one query, the structural floor.
    #[test]
    fn shrink_bottoms_out_without_divergence() {
        // A clean case never diverges, so shrinking is the identity.
        let case = ConcurrentCase {
            tables: tiny_tables(),
            queries: vec![
                QuerySpec {
                    items: vec![crate::querygen::Item {
                        sql: "ta_id".into(),
                        alias: "c0".into(),
                        grouping: false,
                    }],
                    join: None,
                    filters: vec![],
                    group_by: vec![],
                    order_by: vec![],
                    limit: None,
                    set_op: None,
                };
                2
            ],
        };
        let shrunk = shrink_concurrent(&case, 10);
        assert_eq!(shrunk.queries.len(), 2, "clean case must not shrink");
        assert_eq!(shrunk.tables[0].rows.len(), 3);
    }

    #[test]
    fn pending_entries_are_replayable_corpus_files() {
        let case = gen_concurrent(rng::mix(0xC0FFEE, 1));
        let report = ConcurrentReport {
            batches: 1,
            queries: case.queries.len(),
            skipped: 0,
            placements: 0,
            divergences: vec![ConcurrentDivergence {
                seed: 7,
                detail: "synthetic".into(),
                minimized: case.clone(),
            }],
        };
        let dir = std::env::temp_dir().join("rapid_fuzz_concurrent_pending_test");
        std::fs::remove_dir_all(&dir).ok();
        let saved = report.save_failures(&dir);
        assert_eq!(saved.len(), 1, "one representative path per divergence");
        let entries = corpus::load_all(&dir);
        assert_eq!(entries.len(), case.queries.len(), "one entry per query");
        assert!(entries.iter().all(|(_, e)| e.seed == Some(7)));
        assert!(entries[0].1.note.contains("scheduled batch"));
        let rendered = report.render_repro(0x5EED, 100, &saved);
        assert!(rendered.contains("FUZZ_SEED=0x5eed"), "{rendered}");
        assert!(rendered.contains("concurrent_fuzz"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
