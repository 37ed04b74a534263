//! Cardinality-estimator oracle tests plus a join-reordering safety
//! property, both over the fuzzer's adversarial datagen tables.
//!
//! * `estimator_oracle_*` compares the optimizer's estimated output rows
//!   (`Compiled::cost.rows`) against the rows actually produced by the
//!   RAPID engine, per operator, on tables that are NULL-dense, draw
//!   from the i64 boundary (`ta_big`), and dictionary-code their
//!   varchars (`ta_s`). The assertion is a bounded Q-error
//!   (`max(est/actual, actual/est)` with both floored at one row) — the
//!   estimator does not have to be right, but it must be in the
//!   ballpark the histograms and NDVs put within reach.
//! * `reordering_preserves_results` is the correctness property behind
//!   the cost-based join enumerator: for seeded random 3-relation join
//!   chains, the plan compiled with `reorder_joins: true` must produce
//!   bit-identical canonicalized results to the declared-order lowering.

use proptest::prelude::*;

use hostdb::HostDb;
use rapid::qcomp::logical::{LAgg, LExpr, LNamed, LPred, LogicalPlan};
use rapid::qcomp::CostParams;
use rapid::qef::exec::ExecContext;
use rapid::qef::primitives::agg::AggFunc;
use rapid::qef::primitives::filter::CmpOp;
use rapid::storage::types::Value;
use rapid_fuzz::datagen::{gen_tables, TableSpec};
use rapid_fuzz::rng::Rng;

/// Load the given generated tables into a fresh HostDb + RAPID engine.
fn load(tables: &[TableSpec]) -> HostDb {
    let db = HostDb::new(ExecContext::dpu());
    for t in tables {
        db.create_table(&t.name, t.schema());
        db.bulk_insert(&t.name, t.rows.iter().cloned());
        db.load_into_rapid(&t.name)
            .unwrap_or_else(|e| panic!("load {}: {e}", t.name));
    }
    db
}

/// Compile under `params`, execute on the RAPID engine, and return the
/// estimated output rows alongside the decoded actual rows.
fn estimate_and_run(db: &HostDb, lp: &LogicalPlan, params: &CostParams) -> (f64, Vec<Vec<Value>>) {
    let rapid = db.rapid().read();
    let compiled = rapid::qcomp::compile_unverified(lp, rapid.catalog(), params)
        .unwrap_or_else(|e| panic!("compile: {e}"));
    let (out, _report) = rapid
        .execute(&compiled.plan)
        .unwrap_or_else(|e| panic!("execute: {e}"));
    let rows = hostdb::db::decode_batch(&out.batch, &out.meta, rapid.catalog());
    (compiled.cost.rows, rows)
}

/// Q-error with both sides floored at one row (the standard guard for
/// empty results).
fn q_error(est: f64, actual: usize) -> f64 {
    let est = est.max(1.0);
    let act = (actual as f64).max(1.0);
    (est / act).max(act / est)
}

fn cmp(col: &str, op: CmpOp, v: Value) -> LPred {
    LPred::Cmp {
        left: LExpr::col(col),
        op,
        right: LExpr::Lit(v),
    }
}

/// Per-operator oracle cases over one seeded pair of datagen tables.
/// Returns `(label, q_error)` for every case so the caller can assert
/// bounds and print the whole table on failure.
fn oracle_cases(seed: u64) -> Vec<(String, f64)> {
    let tables = gen_tables(&mut Rng::new(seed));
    let db = load(&tables);
    let p = CostParams::default();

    let cases: Vec<(&str, LogicalPlan)> = vec![
        (
            "scan/range on NULL-dense ta_k",
            LogicalPlan::scan_where(
                "ta",
                LPred::Between {
                    col: "ta_k".into(),
                    lo: Value::Int(1),
                    hi: Value::Int(2),
                },
            ),
        ),
        (
            "scan/gt on extreme-i64 ta_big",
            LogicalPlan::scan_where("ta", cmp("ta_big", CmpOp::Gt, Value::Int(0))),
        ),
        (
            "scan/eq on dictionary ta_s",
            LogicalPlan::scan_where("ta", cmp("ta_s", CmpOp::Eq, Value::Str("apple".into()))),
        ),
        (
            "filter/ge above scan",
            LogicalPlan::scan("ta").filter(cmp("ta_k", CmpOp::Ge, Value::Int(2))),
        ),
        (
            "join/ta_k=tb_k",
            LogicalPlan::scan("ta").join(LogicalPlan::scan("tb"), &["ta_k"], &["tb_k"]),
        ),
        (
            "groupby/ta_k",
            LogicalPlan::scan("ta").aggregate(
                vec![LNamed::new("ta_k", LExpr::col("ta_k"))],
                vec![LAgg {
                    func: AggFunc::Count,
                    input: LExpr::col("ta_id"),
                    name: "n".into(),
                }],
            ),
        ),
    ];

    cases
        .into_iter()
        .map(|(label, lp)| {
            let (est, rows) = estimate_and_run(&db, &lp, &p);
            (format!("seed {seed}: {label}"), q_error(est, rows.len()))
        })
        .collect()
}

/// The estimator must stay within a bounded Q-error on every operator
/// across several seeds. The bound leaves headroom for small-table
/// noise — these tables have tens of rows, so a single row of error is
/// already a large relative miss — but it is far below what the old
/// hardcoded selectivities produced (a constant 0.5 join selectivity on
/// a 40×30 cross space is off by >50× when the key is near-unique).
#[test]
fn estimator_oracle_bounds_q_error_per_operator() {
    const BOUND: f64 = 4.0;
    let mut report = String::new();
    let mut worst: f64 = 1.0;
    for seed in [3, 11, 41, 0x5EED] {
        for (label, q) in oracle_cases(seed) {
            report.push_str(&format!("  {label:44} q={q:6.2}\n"));
            worst = worst.max(q);
        }
    }
    assert!(
        worst <= BOUND,
        "estimator Q-error exceeded {BOUND}:\n{report}"
    );
}

/// Build a third relation so join chains have three base tables: `tc`
/// is `tb` with renamed columns and every other row dropped, giving the
/// enumerator a genuinely smaller relation to prefer.
fn third_table(tb: &TableSpec) -> TableSpec {
    let mut tc = tb.clone();
    tc.name = "tc".into();
    for c in &mut tc.columns {
        c.name = c.name.replace("tb_", "tc_");
    }
    tc.rows = tc.rows.into_iter().step_by(2).collect();
    tc
}

/// Canonicalize decoded rows the same way the differential fuzzer does
/// (sorted, numerics normalized) so row order is irrelevant.
fn canon(rows: Vec<Vec<Value>>) -> Vec<Vec<String>> {
    rapid_fuzz::canonical(&rows)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// For seeded random 3-relation join chains over the adversarial
    /// datagen tables, cost-based reordering must not change results:
    /// the reordered plan and the declared-order plan produce
    /// bit-identical canonicalized rows.
    #[test]
    fn reordering_preserves_results(seed in 0u64..4096, wide in any::<bool>()) {
        let mut tables = gen_tables(&mut Rng::new(seed));
        let tc = third_table(&tables[1]);
        tables.push(tc);
        let db = load(&tables);

        // Two chain shapes: `wide` keys the second join off the first
        // table (a star), the other chains through `tb`.
        let (k2l, k2r): (&str, &str) = if wide {
            ("ta_k", "tc_k")
        } else {
            ("tb_id", "tc_id")
        };
        let lp = LogicalPlan::scan("ta")
            .join(LogicalPlan::scan("tb"), &["ta_k"], &["tb_k"])
            .join(LogicalPlan::scan("tc"), &[k2l], &[k2r]);

        let reordered = CostParams::default();
        let declared = CostParams { reorder_joins: false, ..CostParams::default() };
        let (_, rows_on) = estimate_and_run(&db, &lp, &reordered);
        let (_, rows_off) = estimate_and_run(&db, &lp, &declared);
        prop_assert_eq!(canon(rows_on), canon(rows_off));
    }
}

/// Every scan of the eleven TPC-H statements is estimated within a factor
/// of 2.5 of the rows it returns. Before the two halves of a range on one
/// column were intersected, Q14's `l_shipdate` month was off by 19x and the
/// `o_orderdate` quarters of Q4 and Q10 by more than 5x; what is left is
/// the flat 0.3 of a column-to-column comparison (Q4's lineitem, 2.1x).
#[test]
fn tpch_scans_are_estimated_within_q_error_2_5() {
    use rapid::qef::trace::MemorySink;
    let data = tpch::generate(&tpch::TpchConfig::sf(0.02));
    let sink = MemorySink::new();
    let db = HostDb::new(ExecContext::dpu().with_trace(sink.clone()));
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let rapid = db.rapid().read();
    let params = CostParams::default();
    let mut scans = 0;
    for (name, plan) in tpch::queries::all() {
        let compiled = rapid::qcomp::compile(&plan, rapid.catalog(), &params)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let estimates =
            rapid::qcomp::estimate_rows_per_node(&compiled.plan, rapid.catalog(), &params);
        rapid.execute(&compiled.plan).expect("execute");
        // A scan is the bottom operator of its task's event.
        for e in sink.take().iter().filter(|e| e.scan.is_some()) {
            let (node_id, _, operator, rows) = e.operators().last().expect("the event's own");
            assert!(operator.starts_with("scan("), "{name}: {e:?}");
            let q = q_error(estimates[node_id as usize], rows as usize);
            assert!(
                q <= 2.5,
                "{name} {operator}: estimated {:.0} rows, returned {rows} (q = {q:.2})",
                estimates[node_id as usize],
            );
            scans += 1;
        }
    }
    assert!(scans >= 30, "only {scans} scans checked");
}
