//! TPC-H through the SQL front door: the eleven statements of
//! `tpch::queries` enter as text, so the parser, the binder, the compiler's
//! column pruning and its join-order search are all on their path.

use std::sync::Arc;

use hostdb::db::decode_batch;
use hostdb::{parse_sql, HostDb};
use rapid::qcomp::cost::CostParams;
use rapid::qcomp::logical::LogicalPlan;
use rapid::qcomp::Compiled;
use rapid::qef::engine::{Engine, QueryReport};
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::{Catalog, JoinType, PlanNode};
use rapid::storage::types::days_from_civil;
use rapid_fuzz::canonical;

fn tpch_db(scale_factor: f64) -> (HostDb, Catalog) {
    let data = tpch::generate(&tpch::TpchConfig {
        scale_factor,
        seed: 3,
        chunk_rows: 1024,
    });
    let db = HostDb::new(ExecContext::dpu().with_cores(8));
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let catalog = db.rapid().read().catalog().clone();
    (db, catalog)
}

fn engine(ctx: ExecContext, catalog: &Catalog) -> Engine {
    let mut engine = Engine::new(ctx);
    for t in catalog.values() {
        engine.load_table(Arc::clone(t));
    }
    engine
}

/// One of the eleven statements, planned.
fn query(name: &str) -> LogicalPlan {
    let found = tpch::queries::all().into_iter().find(|(n, _)| *n == name);
    found.unwrap_or_else(|| panic!("no {name}")).1
}

/// Execute; the rows come back in `rapid_fuzz::canonical` form.
fn run(engine: &Engine, compiled: &Compiled) -> (Vec<Vec<String>>, QueryReport) {
    let (out, report) = engine.execute(&compiled.plan).expect("execute");
    assert_eq!(out.meta.len(), compiled.output.len(), "arity");
    let rows = decode_batch(&out.batch, &out.meta, engine.catalog());
    (canonical(&rows), report)
}

/// The join structure of a physical plan, `(probe⋈build)` over scan table
/// names, ignoring every other operator.
fn join_shape(plan: &PlanNode) -> String {
    match plan {
        PlanNode::Scan { table, .. } => table.clone(),
        PlanNode::HashJoin { build, probe, .. } => {
            format!("({}⋈{})", join_shape(probe), join_shape(build))
        }
        other => other.inputs().map(join_shape).collect(),
    }
}

/// Give every scan of `plan` the projection `columns` lists for its table.
fn project_scans(plan: &mut LogicalPlan, columns: &[(&str, &[&str])]) {
    if let LogicalPlan::Scan {
        table, projection, ..
    } = plan
    {
        let (_, cols) = columns.iter().find(|(t, _)| t == table).expect("listed");
        *projection = Some(cols.iter().map(|c| c.to_string()).collect());
    }
    plan.inputs_mut()
        .for_each(|child| project_scans(child, columns));
}

#[test]
fn join_order_is_chosen_from_the_columns_that_move() {
    // Q10 without its nation join: three wide tables of which the statement
    // reads a few columns each. The join search must see the same relation
    // widths whether the scans arrive unpruned (what the SQL front end
    // emits) or pruned by hand — that is, it must run after the pruning.
    let (_, catalog) = tpch_db(0.01);
    let schemas = catalog
        .iter()
        .map(|(name, t)| {
            let names = t.schema.fields.iter().map(|f| f.name.clone()).collect();
            (name.clone(), names)
        })
        .collect();
    let unpruned = parse_sql(
        "SELECT c_custkey, c_name, c_acctbal, c_phone,
                SUM(l_extendedprice * (1 - l_discount)) AS revenue
         FROM lineitem
              JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
         WHERE l_returnflag = 'R'
           AND o_orderdate >= DATE '1993-10-01'
           AND o_orderdate < DATE '1994-01-01'
         GROUP BY c_custkey, c_name, c_acctbal, c_phone
         ORDER BY revenue DESC
         LIMIT 20",
        &schemas,
    )
    .expect("parse");
    let mut by_hand = unpruned.clone();
    project_scans(
        &mut by_hand,
        &[
            ("lineitem", &["l_orderkey", "l_extendedprice", "l_discount"]),
            ("orders", &["o_orderkey", "o_custkey"]),
            ("customer", &["c_custkey", "c_name", "c_phone", "c_acctbal"]),
        ],
    );

    let dpu = engine(ExecContext::dpu().with_cores(8), &catalog);
    let compile = |plan| rapid::qcomp::compile(plan, &catalog, &CostParams::default()).unwrap();
    let (a, b) = (compile(&unpruned), compile(&by_hand));
    assert_eq!(join_shape(&a.plan), join_shape(&b.plan));
    assert_eq!(a.optimize, b.optimize);
    let ((rows_a, report_a), (rows_b, report_b)) = (run(&dpu, &a), run(&dpu, &b));
    assert_eq!(rows_a, rows_b);
    assert_eq!(report_a.sim_cycles, report_b.sim_cycles);
    assert_eq!(report_a.dms_bytes, report_b.dms_bytes);
}

#[test]
fn every_statement_parses_prunes_and_agrees_on_three_engines() {
    let (db, catalog) = tpch_db(0.002);
    let dpu = engine(ExecContext::dpu().with_cores(8), &catalog);
    let native = engine(ExecContext::native(4), &catalog);
    // Costed for the cores the plans run on, as the host database does.
    let params = CostParams::from_exec(dpu.context());
    let statements = tpch::queries::STATEMENTS.iter();
    for (&(name, sql), (_, plan)) in statements.zip(tpch::queries::all()) {
        let compiled = rapid::qcomp::compile(&plan, &catalog, &params)
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        // Nothing is pruned in the text, everything in the compiler: a scan
        // moves only columns the statement names, which is fewer than the
        // table has wherever the statement does not name them all.
        fn scans<'a>(plan: &'a PlanNode, out: &mut Vec<(&'a str, &'a [usize])>) {
            if let PlanNode::Scan { table, columns, .. } = plan {
                out.push((table, columns));
            }
            plan.inputs().for_each(|child| scans(child, out));
        }
        let mut moved = Vec::new();
        scans(&compiled.plan, &mut moved);
        assert!(!moved.is_empty());
        for (table, columns) in moved {
            let fields = &catalog[table].schema.fields;
            let unnamed = columns.iter().find(|&&c| !sql.contains(&fields[c].name));
            assert_eq!(unnamed, None, "{name}: {table} moves an unnamed column");
            let names_all = (name, table) == ("Q5", "nation");
            assert!(columns.len() < fields.len() || names_all, "{name}: {table}");
        }

        let host = db
            .execute_on_host(&plan)
            .unwrap_or_else(|e| panic!("{name} host: {e}"));
        let (on_dpu, report) = run(&dpu, &compiled);
        assert!(report.sim_secs > 0.0, "{name} simulated time");
        // The compiler's estimate against the cycles the simulator charged,
        // within 7x either way: 0.46-1.79x here, 1.22-6.33x at sf 0.02 on
        // 32 cores (ROADMAP item 7, which tightens this to 1.5x).
        let estimated = compiled.cost.exec_secs * params.ctx.cost_model.freq_hz;
        let ratio = estimated / report.sim_cycles;
        assert!(
            (1.0 / 7.0..=7.0).contains(&ratio),
            "{name}: estimated {estimated:.0} cycles, simulated {}, ratio {ratio:.2}",
            report.sim_cycles
        );
        assert_eq!(canonical(&host.rows), on_dpu, "{name}: host vs DPU");
        assert_eq!(on_dpu, run(&native, &compiled).0, "{name}: DPU vs native");
    }
}

#[test]
fn q18_semi_join_sits_directly_on_the_orders_scan() {
    fn find(plan: &LogicalPlan) -> Option<&LogicalPlan> {
        match plan {
            LogicalPlan::Join {
                join_type: JoinType::LeftSemi,
                ..
            } => Some(plan),
            other => other.inputs().find_map(find),
        }
    }
    let q18 = query("Q18");
    let Some(LogicalPlan::Join {
        left,
        right,
        left_keys,
        right_keys,
        ..
    }) = find(&q18)
    else {
        panic!("no semi join in {q18:?}")
    };
    assert!(
        matches!(&**left, LogicalPlan::Scan { table, .. } if table == "orders"),
        "{left:?}"
    );
    // HAVING's own SUM is lowered although the subquery does not select
    // it, and the subquery's one-column select list is not materialised.
    let LogicalPlan::Filter { input, .. } = &**right else {
        panic!("{right:?}")
    };
    let LogicalPlan::Aggregate { group_by, aggs, .. } = &**input else {
        panic!("{input:?}")
    };
    assert_eq!((group_by.len(), aggs.len()), (1, 1));
    assert_eq!(
        (&left_keys[..], &right_keys[..]),
        (
            &["o_orderkey".to_string()][..],
            &[group_by[0].name.clone()][..]
        )
    );
}

#[test]
fn cost_based_search_reorders_a_join_heavy_query() {
    let (_, catalog) = tpch_db(0.002);
    let dpu = engine(ExecContext::dpu().with_cores(8), &catalog);
    let declared = CostParams {
        reorder_joins: false,
        ..CostParams::default()
    };
    let mut any_changed = false;
    for target in ["Q3", "Q5", "Q9", "Q10"] {
        let plan = query(target);
        let c0 = rapid::qcomp::compile(&plan, &catalog, &declared).unwrap();
        let c1 = rapid::qcomp::compile(&plan, &catalog, &CostParams::default()).unwrap();
        assert!(
            c1.optimize.plans_considered > 0,
            "{target}: search did not run"
        );
        any_changed |= join_shape(&c0.plan) != join_shape(&c1.plan);
        // Reordered or not, the rows are the same.
        assert_eq!(run(&dpu, &c0).0, run(&dpu, &c1).0, "{target}");
    }
    assert!(any_changed, "no join-heavy query changed join order");
}

#[test]
fn q6_matches_naive_evaluation() {
    let (_, catalog) = tpch_db(0.002);
    let dpu = engine(ExecContext::dpu().with_cores(4), &catalog);
    let c = rapid::qcomp::compile(&query("Q6"), &catalog, &CostParams::default()).unwrap();
    let (out, _) = dpu.execute(&c.plan).unwrap();
    // Naive reference over the raw table, each bound in its column's own
    // DSB scale.
    let li = &catalog["lineitem"];
    let column = |name: &str| li.column_i64(li.schema.index_of(name).unwrap());
    let (ship, disc) = (column("l_shipdate"), column("l_discount"));
    let (qty, price) = (column("l_quantity"), column("l_extendedprice"));
    let lo = days_from_civil(1994, 1, 1) as i64;
    let hi = days_from_civil(1995, 1, 1) as i64;
    let q_bound = 24 * 10i64.pow(li.scales[li.schema.index_of("l_quantity").unwrap()] as u32);
    let expect: i64 = (0..ship.len())
        .filter(|&i| (lo..hi).contains(&ship[i]) && (5..=7).contains(&disc[i]) && qty[i] < q_bound)
        .map(|i| price[i] * disc[i])
        .sum();
    assert_eq!(out.batch.column(0).data.get_i64(0), expect);
}

#[test]
fn q9_explain_verify_ws_bytes_is_each_partition_stage_dmem_peak() {
    // The partition twin of hostdb's scan check, on the statement with the
    // widest passes: EXPLAIN VERIFY budgets a pass or a broadcast probe —
    // and the task it runs in, where the side is a scan — from the widths
    // its columns are encoded in, which is what a lane of it reserves — so
    // the table's `ws-bytes` is the trace's `dmem_peak`, not a bound above
    // it.
    let data = tpch::generate(&tpch::TpchConfig::sf(0.02));
    let db = HostDb::new(ExecContext::dpu());
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let (_, q9) = tpch::queries::STATEMENTS
        .iter()
        .find(|(name, _)| *name == "Q9")
        .expect("Q9");
    let verify = db.explain_verify(q9).expect("EXPLAIN VERIFY");
    assert!(verify.contains("PASS"), "{verify}");
    let analyzed = db.explain_analyze(q9).expect("EXPLAIN ANALYZE");
    // The bytes of the join filter each join declares, by node id.
    let catalog = db.rapid().read().catalog().clone();
    let (_, plan) = tpch::queries::all()
        .into_iter()
        .find(|(name, _)| *name == "Q9")
        .expect("Q9");
    let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default()).expect("compile");
    // A ranged join's filter is held beside each lane's table, by no
    // partition round.
    fn filters(plan: &PlanNode, out: &mut Vec<u64>) {
        let bits = match plan {
            PlanNode::HashJoin { filter, .. } if plan.ranged_scheme().is_none() => {
                filter.unwrap_or(0)
            }
            _ => 0,
        };
        out.push(bits as u64 / 8);
        plan.inputs().for_each(|child| filters(child, out));
    }
    let mut filter_bytes = Vec::new();
    filters(&compiled.plan, &mut filter_bytes);
    // Three joins read one input by range — nation, partsupp and orders —
    // and partition the other, a round each; the other two — part into
    // lineitem, and the nation-supplier join into what the partsupp and
    // orders joins handed on — are broadcast, a probe stage each whose
    // state is the half of DMEM its build side's table is built in, beside
    // the join filter of the first.
    let staged: Vec<_> = analyzed
        .events
        .iter()
        .filter(|e| e.partition.is_some() || e.operator == "join.probe")
        .collect();
    let probes = staged.iter().filter(|e| e.partition.is_none()).count();
    assert_eq!((staged.len() - probes, probes), (3, 2));
    let dmem = ExecContext::dpu().dmem_bytes as u64;
    for e in staged {
        let line = verify
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|l| l.len() > 5 && l[0] == e.node_id.to_string() && l[1] == e.operator)
            .unwrap_or_else(|| panic!("node {} {} not in:\n{verify}", e.node_id, e.operator));
        let (tile, ws_bytes, state, b_per_row) = (line[2], line[3], line[4], line[5]);
        assert_eq!(tile, "256", "{line:?}");
        assert_eq!(ws_bytes, e.dmem_peak_bytes.to_string(), "{line:?}");
        // The state of every operator of the task, then two tile buffers of
        // every stream.
        let state: u64 = state.parse().expect("state");
        let own = if e.partition.is_some() { 64 } else { dmem / 2 };
        let held = filter_bytes[e.node_id as usize];
        assert_eq!(state, own + held + 64 * e.fused.len() as u64, "{line:?}");
        let row: u64 = b_per_row.parse().expect("B/row");
        assert_eq!(e.dmem_peak_bytes, state + 2 * row * 256, "{line:?}");
        // A probe's line says, before its lanes, how many of its sides'
        // columns the join writes.
        let (head, lanes) = match e.partition {
            Some(_) => (
                format!("{}  ", e.operator),
                format!("lanes={} round 1/1 fanout ", e.parallelism),
            ),
            None => (
                format!("{} cols ", e.operator),
                format!("  lanes={} rows=", e.parallelism),
            ),
        };
        let found = analyzed
            .text
            .lines()
            .any(|l| l.trim_start().starts_with(&head) && l.contains(&lanes));
        assert!(found, "no `{head}..{lanes}` in:\n{}", analyzed.text);
    }
    // The lineitem probe: six columns, 48 declared bytes a row, 12 stored,
    // probed by the lanes that scan them beside the hash lane they are
    // looked up by.
    let widest = analyzed
        .events
        .iter()
        .find(|e| e.operator == "join.probe" && e.scan.is_some())
        .expect("the probe");
    let scan: Vec<_> = widest
        .fused
        .iter()
        .map(|op| (&*op.operator, op.rows))
        .collect();
    assert_eq!(scan, [("scan(lineitem)", 119_771)], "{widest:?}");
    let held = filter_bytes[widest.node_id as usize];
    assert_eq!(held, 1024, "the filter of 8,192 bits over its part keys");
    assert_eq!(
        widest.dmem_peak_bytes,
        64 + dmem / 2 + held + 2 * (12 + 4) * 256
    );
}
