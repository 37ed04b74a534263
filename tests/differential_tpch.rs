//! Differential testing: the three engines — RAPID on the simulated DPU,
//! RAPID software on native threads, and the host Volcano executor — must
//! produce identical results for all eleven TPC-H queries.
//!
//! This is the strongest correctness evidence in the repository: the
//! Volcano engine is an independent implementation (row-at-a-time over
//! `Value`s) sharing only the DSB arithmetic rules with the columnar
//! engine. The two RAPID configurations are one engine: at the same core
//! count they return the same rows and the same simulated series, bit for
//! bit, and only the host wall clock tells them apart.

use std::sync::Arc;

use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qcomp::logical::LogicalPlan;
use rapid::qef::engine::Engine;
use rapid::qef::engine::QueryReport;
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::Catalog;
use rapid::qef::trace::{MemorySink, StageEvent};
use rapid_fuzz::canonical;

fn setup() -> (HostDb, Catalog) {
    let data = tpch::generate(&tpch::TpchConfig {
        scale_factor: 0.005,
        seed: 20260705,
        chunk_rows: 1024,
    });
    let db = HostDb::new(ExecContext::dpu().with_cores(8));
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let catalog = db.rapid().read().catalog().clone();
    (db, catalog)
}

/// One of the eleven statements, planned.
fn query(name: &str) -> LogicalPlan {
    let found = tpch::queries::all().into_iter().find(|(n, _)| *n == name);
    found.unwrap_or_else(|| panic!("no {name}")).1
}

// Canonicalization (numeric normalization + row sort) is shared with the
// differential fuzzer: `rapid_fuzz::canonical`.

#[test]
fn all_eleven_queries_agree_across_engines() {
    let (db, catalog) = setup();
    let params = CostParams::default();
    // Native and a DPU of as many cores, each tracing its stages.
    let (native_trace, dpu_trace) = (MemorySink::new(), MemorySink::new());
    let mut native = Engine::new(ExecContext::native(4).with_trace(native_trace.clone()));
    let mut dpu = Engine::new(
        ExecContext::dpu()
            .with_cores(4)
            .with_trace(dpu_trace.clone()),
    );
    for t in catalog.values() {
        native.load_table(Arc::clone(t));
        dpu.load_table(Arc::clone(t));
    }

    for (name, lp) in tpch::queries::all() {
        // Engine 1: host Volcano.
        let host = db
            .execute_on_host(&lp)
            .unwrap_or_else(|e| panic!("{name} host: {e}"));
        // Engine 2: RAPID on the simulated DPU (through the offload path).
        let rapid_dpu = db
            .execute_on_rapid(&lp)
            .unwrap_or_else(|e| panic!("{name} rapid: {e}"));
        // Engine 3: RAPID software on native threads.
        let compiled = rapid::qcomp::compile(&lp, &catalog, &params)
            .unwrap_or_else(|e| panic!("{name} compile: {e}"));
        let (nout, native_report) = native
            .execute(&compiled.plan)
            .unwrap_or_else(|e| panic!("{name} native: {e}"));
        let native_rows = hostdb::db::decode_batch(&nout.batch, &nout.meta, native.catalog());
        // The same plan on the DPU at the same core count: one engine.
        let (dout, dpu_report) = dpu
            .execute(&compiled.plan)
            .unwrap_or_else(|e| panic!("{name} dpu(4): {e}"));
        let dpu_rows = hostdb::db::decode_batch(&dout.batch, &dout.meta, dpu.catalog());
        assert_eq!(
            native_rows, dpu_rows,
            "{name}: native vs dpu(4) rows differ"
        );
        assert_eq!(
            simulated(&native_report),
            simulated(&dpu_report),
            "{name}: native vs dpu(4) simulated report differs"
        );
        let (native_events, dpu_events) = (native_trace.take(), dpu_trace.take());
        assert_eq!(
            deterministic(&native_events),
            deterministic(&dpu_events),
            "{name}: native vs dpu(4) stage events differ"
        );
        // Both clocks on every stage: the DPU's stages carry host time that
        // sums, in emission order, to the report's.
        let wall: f64 = dpu_events.iter().map(|e| e.wall_secs).sum();
        assert_eq!(wall.to_bits(), dpu_report.wall_secs.to_bits(), "{name}");
        assert!(wall > 0.0, "{name}: no host wall on the DPU");

        let h = canonical(&host.rows);
        let d = canonical(&rapid_dpu.rows);
        let n = canonical(&native_rows);
        assert_eq!(
            h.len(),
            d.len(),
            "{name}: row count host={} dpu={}",
            h.len(),
            d.len()
        );
        assert_eq!(h, d, "{name}: host vs DPU rows differ");
        assert_eq!(h, n, "{name}: host vs native rows differ");
        assert!(!h.is_empty() || name == "Q18", "{name} returned no rows");
    }
}

/// A report's simulated fields, by their bits.
fn simulated(r: &QueryReport) -> [u64; 8] {
    [
        r.sim_secs.to_bits(),
        r.sim_cycles.to_bits(),
        r.energy_joules.to_bits(),
        r.stages as u64,
        r.branches,
        r.mispredicts,
        r.dms_bytes,
        r.dms_descriptors,
    ]
}

fn deterministic(events: &[StageEvent]) -> Vec<StageEvent> {
    events.iter().map(StageEvent::deterministic_view).collect()
}

#[test]
fn sorted_queries_respect_their_sort_keys() {
    // Beyond set equality: verify ordering on the engines' actual output.
    let (db, _) = setup();
    let r = db.execute_on_rapid(&query("Q3")).expect("q3");
    // Q3 output: l_orderkey, o_orderdate, o_shippriority, revenue — sorted
    // by revenue desc then o_orderdate asc.
    let rev: Vec<f64> = r
        .rows
        .iter()
        .map(|row| row[3].to_f64().expect("rev"))
        .collect();
    assert!(
        rev.windows(2).all(|w| w[0] >= w[1] - 1e-9),
        "revenue not descending: {rev:?}"
    );
    assert!(r.rows.len() <= 10, "top-10 respected");

    let r = db.execute_on_rapid(&query("Q1")).expect("q1");
    let keys: Vec<(String, String)> = r
        .rows
        .iter()
        .map(|row| (row[0].to_string(), row[1].to_string()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "Q1 group ordering");
}

#[test]
fn q18_having_filter_semantics() {
    // Q18 keeps only orders whose total quantity exceeds 300; verify the
    // aggregate in every returned row actually exceeds the threshold.
    let (db, _) = setup();
    let r = db.execute_on_rapid(&query("Q18")).expect("q18");
    for row in &r.rows {
        let qty = row[5].to_f64().expect("sum_qty");
        assert!(qty > 300.0, "row with sum_qty {qty} leaked through HAVING");
    }
}

#[test]
fn q14_ratio_is_a_sane_percentage() {
    let (db, _) = setup();
    let q14 = query("Q14");
    let host = db.execute_on_host(&q14).expect("host");
    let rapid = db.execute_on_rapid(&q14).expect("rapid");
    let h = host.rows[0][0].to_f64().expect("ratio");
    let r = rapid.rows[0][0].to_f64().expect("ratio");
    assert!((h - r).abs() < 1e-6, "promo ratio host {h} vs rapid {r}");
    // PROMO is 1 of 6 type prefixes -> ratio near 16.7 %.
    assert!((5.0..30.0).contains(&r), "promo revenue = {r}%");
}

#[test]
fn repeated_runs_are_deterministic() {
    // Simulated timing and results must be bit-identical across runs —
    // the property resume/debugging workflows rely on.
    let (_db, catalog) = setup();
    let params = CostParams::default();
    let mut engine = Engine::new(ExecContext::dpu().with_cores(8));
    for t in catalog.values() {
        engine.load_table(Arc::clone(t));
    }
    for (name, lp) in ["Q3", "Q9"].map(|name| (name, query(name))) {
        let compiled = rapid::qcomp::compile(&lp, &catalog, &params).expect("compile");
        let (a, ra) = engine.execute(&compiled.plan).expect("run1");
        let (b, rb) = engine.execute(&compiled.plan).expect("run2");
        assert_eq!(a.batch, b.batch, "{name} results differ across runs");
        assert!(
            (ra.sim_secs - rb.sim_secs).abs() < 1e-12,
            "{name} simulated time not deterministic: {} vs {}",
            ra.sim_secs,
            rb.sim_secs
        );
    }
}
