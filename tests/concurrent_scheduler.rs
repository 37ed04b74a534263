//! End-to-end tests for `rapid-sched`: many TPC-H sessions sharing one
//! simulated DPU through `HostDb::execute_batch`.
//!
//! The invariants pinned here are the subsystem's contract:
//!
//! * scheduling never changes query *results* — a concurrent batch returns
//!   exactly the rows a serial run produces;
//! * simulated timings are a pure function of the submitted batch —
//!   bit-identical across runs;
//! * a query running alone through the scheduler reproduces the
//!   engine-local stage rule bit for bit: the router places the lanes the
//!   engine ran;
//! * concurrent admission beats the serial baseline on whole-DPU
//!   utilization and makespan.

use std::sync::OnceLock;

use proptest::prelude::*;

use hostdb::{BatchQuery, HostDb};
use rapid::qcomp::logical::LogicalPlan;
use rapid::sched::SchedConfig;

/// One shared TPC-H database for every test: queries are read-only, and
/// building it is the expensive part.
fn db() -> &'static HostDb {
    static DB: OnceLock<HostDb> = OnceLock::new();
    DB.get_or_init(|| {
        let data = tpch::generate(&tpch::TpchConfig {
            scale_factor: 0.005,
            seed: 20260705,
            chunk_rows: 1024,
        });
        let db = HostDb::new(rapid::qef::exec::ExecContext::dpu().with_cores(8));
        for t in data.tables() {
            db.import_table(t).expect("load");
        }
        db
    })
}

fn plans() -> Vec<(&'static str, LogicalPlan)> {
    tpch::queries::all()
}

fn cfg(max_active: usize, n: usize) -> SchedConfig {
    SchedConfig {
        max_active,
        queue_capacity: n,
        ..SchedConfig::default()
    }
}

/// ≥8 concurrent TPC-H queries against one simulated DPU produce exactly
/// the rows the serial path produces — the headline acceptance test.
#[test]
fn concurrent_batch_matches_serial_results() {
    let db = db();
    let all = plans();
    assert!(all.len() >= 8, "need at least 8 queries");
    let serial: Vec<_> = all
        .iter()
        .map(|(name, lp)| (*name, db.execute_plan(lp).expect(name)))
        .collect();
    let batch: Vec<BatchQuery> = all
        .iter()
        .map(|(_, lp)| BatchQuery::from_plan(lp.clone()))
        .collect();
    let outcome = db.execute_batch(&batch, cfg(8, batch.len()));
    assert_eq!(outcome.results.len(), serial.len());
    for ((name, expect), got) in serial.iter().zip(&outcome.results) {
        let got = got.as_ref().unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert_eq!(got.columns, expect.columns, "{name} columns");
        assert_eq!(got.rows, expect.rows, "{name} rows");
    }
    assert!(
        outcome.sched.utilization.core_utilization > 0.0,
        "stages were placed on the shared timeline"
    );
}

/// Simulated timings are bit-identical across runs — no tolerance,
/// straight `f64` equality on every latency and the makespan.
#[test]
fn a_batch_is_bit_identical_across_runs() {
    let db = db();
    let batch: Vec<BatchQuery> = plans()
        .iter()
        .map(|(_, lp)| BatchQuery::from_plan(lp.clone()))
        .collect();
    let run = || db.execute_batch(&batch, cfg(4, batch.len()));
    let (a, b) = (run(), run());
    assert_eq!(
        a.sched.utilization.makespan.as_secs(),
        b.sched.utilization.makespan.as_secs(),
        "makespan must be bit-identical"
    );
    assert_eq!(a.sched.queries.len(), b.sched.queries.len());
    for (qa, qb) in a.sched.queries.iter().zip(&b.sched.queries) {
        assert_eq!(qa.query_id, qb.query_id);
        assert_eq!(
            qa.latency.as_secs(),
            qb.latency.as_secs(),
            "query {}",
            qa.query_id
        );
        assert_eq!(
            qa.completed_at.as_secs(),
            qb.completed_at.as_secs(),
            "query {}",
            qa.query_id
        );
    }
}

/// A query running alone through the scheduler sees the engine-local stage
/// rule (`dpu_sim::account::StageSpan`) over the same lanes, bit for bit.
#[test]
fn solo_query_through_scheduler_matches_engine_local_timing() {
    let db = db();
    for (name, lp) in plans() {
        let serial = db.execute_plan(&lp).expect(name);
        let batch = [BatchQuery::from_plan(lp.clone())];
        let outcome = db.execute_batch(&batch, cfg(1, 1));
        let solo = outcome.results[0]
            .as_ref()
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert_eq!(
            serial.rapid_secs.to_bits(),
            solo.rapid_secs.to_bits(),
            "{name}: serial {} vs solo-scheduled {}",
            serial.rapid_secs,
            solo.rapid_secs
        );
    }
}

/// Concurrent admission must beat the serial baseline: shorter simulated
/// makespan and higher whole-DPU core utilization at the same work.
#[test]
fn concurrent_batch_beats_serial_utilization() {
    let db = db();
    let batch: Vec<BatchQuery> = plans()
        .iter()
        .map(|(_, lp)| BatchQuery::from_plan(lp.clone()))
        .collect();
    let serial = db.execute_batch(&batch, cfg(1, batch.len()));
    let concurrent = db.execute_batch(&batch, cfg(8, batch.len()));
    let (su, cu) = (&serial.sched.utilization, &concurrent.sched.utilization);
    assert!(
        cu.makespan.as_secs() < su.makespan.as_secs(),
        "interleaving shortens the makespan: {} vs {}",
        cu.makespan.as_secs(),
        su.makespan.as_secs()
    );
    assert!(
        cu.core_utilization > su.core_utilization,
        "concurrent utilization {} must beat serial {}",
        cu.core_utilization,
        su.core_utilization
    );
}

/// Per-query timeouts and cancellation surface as errors without
/// poisoning the rest of the batch.
#[test]
fn zero_timeout_aborts_only_the_impatient_query() {
    let db = db();
    let all = plans();
    let batch = vec![
        BatchQuery::from_plan(all[0].1.clone()),
        BatchQuery::from_plan(all[1].1.clone()).with_timeout(std::time::Duration::from_secs(0)),
        BatchQuery::from_plan(all[2].1.clone()).with_priority(3),
    ];
    let outcome = db.execute_batch(&batch, cfg(1, 3));
    assert!(outcome.results[0].is_ok(), "untimed query unaffected");
    assert!(outcome.results[1].is_err(), "zero timeout must abort");
    assert!(outcome.results[2].is_ok(), "prioritized query unaffected");
}

/// `execute_batch` replays its schedule through the interference analyzer
/// in a debug build, and that replay can fail: a scheduler told its DPU has
/// 64-byte scratchpads places every stage over budget. The same batch on
/// the scratchpads the engine really has returns (every other test here is
/// that clean run).
#[test]
#[cfg(debug_assertions)]
fn execute_batch_panics_on_an_interfering_schedule_only() {
    let db = db();
    let batch = [BatchQuery::from_plan(plans()[0].1.clone())];
    let clean = db.execute_batch(&batch, cfg(1, 1));
    assert!(
        clean.sched.utilization.stages > 0,
        "the batch placed stages"
    );
    let cramped = SchedConfig {
        dmem_bytes: 64,
        ..cfg(1, 1)
    };
    let run = std::panic::AssertUnwindSafe(|| db.execute_batch(&batch, cramped));
    let panic = std::panic::catch_unwind(run)
        .expect_err("an over-budget schedule must not come back as an outcome");
    let message = panic.downcast_ref::<String>().expect("a formatted panic");
    assert!(
        message.contains("schedule interference") && message.contains("C-QUERY-BUDGET"),
        "{message}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Property (satellite of the scheduler subsystem): ANY subset of the
    /// TPC-H workload, with ANY priorities, returns exactly the serial rows
    /// for every query.
    #[test]
    fn any_batch_matches_serial(
        picks in proptest::collection::vec((0usize..11, 0u8..4), 2..9),
    ) {
        let db = db();
        let all = plans();
        let batch: Vec<BatchQuery> = picks
            .iter()
            .map(|(i, prio)| {
                BatchQuery::from_plan(all[*i].1.clone()).with_priority(*prio)
            })
            .collect();
        let outcome = db.execute_batch(&batch, cfg(4, batch.len()));
        for ((i, _), got) in picks.iter().zip(&outcome.results) {
            let (name, lp) = &all[*i];
            let expect = db.execute_plan(lp).expect(name);
            let got = got.as_ref().unwrap_or_else(|e| panic!("{name}: {e:?}"));
            prop_assert_eq!(&got.columns, &expect.columns, "{} columns", name);
            prop_assert_eq!(&got.rows, &expect.rows, "{} rows", name);
        }
    }
}
