//! Key ranges, end to end: `orders` and `lineitem` are stored in order-key
//! order, so Q4's semi join, Q5's and Q10's `orders ⋈ lineitem` and Q18's
//! inner `GROUP BY l_orderkey` run as one stage of key ranges — no partition
//! round, no `join.filter` and no `join.pairs` stage — and return the host
//! engine's rows on both RAPID backends. The same plans return the same rows
//! over tables dealt to shuffled slots and after a commit that stores keys
//! out of order: slower, never wrong. A NULL key lands in the last range,
//! where an anti join, an outer join and a group-by keep it.

use std::sync::Arc;

use hostdb::db::decode_batch;
use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::{Catalog, PlanNode};
use rapid::qef::trace::MemorySink;
use rapid::storage::schema::{Field, Schema};
use rapid::storage::scn::RowChange;
use rapid::storage::table::{Table, TableBuilder};
use rapid::storage::types::{DataType, Value};
use rapid_fuzz::canonical;

/// The statements whose order-key join or group-by runs over key ranges.
const RANGED: [&str; 4] = ["Q4", "Q5", "Q10", "Q18"];

/// What no node run over key ranges may run as.
fn is_pass_stage(operator: &str) -> bool {
    operator.contains(".partition") || operator == "join.filter" || operator == "join.pairs"
}

fn engine(catalog: &Catalog, ctx: ExecContext) -> Engine {
    let mut engine = Engine::new(ctx);
    for t in catalog.values() {
        engine.load_table(Arc::clone(t));
    }
    engine
}

/// Pre-order ids of the joins and group-bys of `plan` on the order key: over
/// scans of `orders` and `lineitem` keyed by column 0 of each.
fn order_key_nodes(plan: &PlanNode) -> Vec<u32> {
    fn on_order_key(input: &PlanNode, keys: &[usize]) -> bool {
        input.scan_chain().is_some_and(|chain| {
            ["orders", "lineitem"].contains(&chain.table)
                && chain.table_columns(keys).as_deref() == Some(&[0])
        })
    }
    fn walk(plan: &PlanNode, next: &mut u32, out: &mut Vec<u32>) {
        let keyed = match plan {
            PlanNode::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                ..
            } => on_order_key(build, build_keys) && on_order_key(probe, probe_keys),
            PlanNode::GroupBy { input, keys, .. } => on_order_key(input, keys),
            _ => false,
        };
        if keyed {
            out.push(*next);
        }
        *next += 1;
        plan.inputs().for_each(|child| walk(child, next, out));
    }
    let mut out = Vec::new();
    walk(plan, &mut 0, &mut out);
    out
}

/// Pre-order ids of the ranged nodes of `plan`.
fn ranged_nodes(plan: &PlanNode) -> Vec<u32> {
    fn walk(plan: &PlanNode, next: &mut u32, out: &mut Vec<u32>) {
        if plan.ranged_scheme().is_some() {
            out.push(*next);
        }
        *next += 1;
        plan.inputs().for_each(|child| walk(child, next, out));
    }
    let mut out = Vec::new();
    walk(plan, &mut 0, &mut out);
    out
}

/// `plan`'s rows on `engine`, canonical.
fn rows_on(engine: &Engine, plan: &PlanNode) -> Vec<Vec<String>> {
    let (out, _) = engine.execute(plan).expect("execute");
    canonical(&decode_batch(&out.batch, &out.meta, engine.catalog()))
}

/// A host database of the TPC-H tables at `sf`, loaded into RAPID.
fn tpch_db(sf: f64) -> (HostDb, Catalog) {
    let data = tpch::generate(&tpch::TpchConfig::sf(sf));
    let db = HostDb::new(ExecContext::dpu());
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let catalog = db.rapid().read().catalog().clone();
    (db, catalog)
}

#[test]
fn order_key_operators_run_as_ranges_and_agree_with_the_host() {
    for sf in [0.01, 0.02, 0.05] {
        let (db, catalog) = tpch_db(sf);
        let sink = MemorySink::new();
        let dpu = engine(&catalog, ExecContext::dpu().with_trace(sink.clone()));
        let native = engine(&catalog, ExecContext::native(4));
        for (name, plan) in tpch::queries::all() {
            let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let ranged = ranged_nodes(&compiled.plan);
            if !RANGED.contains(&name) {
                continue;
            }
            // Every order-key operator over two scans is ranged, or — Q10's
            // join at sf 0.01, whose build side fits a lane — broadcast:
            // neither runs a partition round. At sf 0.05 the join-order
            // search joins Q5's customers and orders first, and its
            // order-key join's build side is that join, no scan.
            let keyed = order_key_nodes(&compiled.plan);
            let joined_first = (name, sf) == ("Q5", 0.05);
            assert_eq!(keyed.is_empty(), joined_first, "sf {sf} {name}: {keyed:?}");
            let on_dpu = rows_on(&dpu, &compiled.plan);
            let events = sink.take();
            for id in &keyed {
                let of_node: Vec<&str> = events
                    .iter()
                    .filter(|e| e.node_id == *id)
                    .map(|e| e.operator.as_str())
                    .collect();
                assert!(
                    of_node.iter().all(|op| !is_pass_stage(op)),
                    "sf {sf} {name} node {id}: {of_node:?}"
                );
                assert_eq!(of_node.len(), 1, "sf {sf} {name} node {id}: {of_node:?}");
                let ran = if ranged.contains(id) {
                    ".ranged"
                } else {
                    "join.probe"
                };
                assert!(of_node[0].ends_with(ran), "sf {sf} {name}: {of_node:?}");
            }
            assert!(
                !ranged.is_empty() || joined_first || (name, sf) == ("Q10", 0.01),
                "sf {sf} {name}: no ranged node"
            );
            let host = db
                .execute_on_host(&plan)
                .unwrap_or_else(|e| panic!("{name} host: {e}"));
            assert_eq!(canonical(&host.rows), on_dpu, "sf {sf} {name}: host vs DPU");
            assert_eq!(
                rows_on(&native, &compiled.plan),
                on_dpu,
                "sf {sf} {name}: native"
            );
        }
    }
}

/// The rows of `t` in slot order.
fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    let cols: Vec<Vec<i64>> = (0..t.schema.len()).map(|c| t.column_i64(c)).collect();
    let nulls: Vec<_> = (0..t.schema.len()).map(|c| t.column_nulls(c)).collect();
    (0..t.rows())
        .map(|r| {
            (0..t.schema.len())
                .map(|c| match nulls[c].get(r) {
                    true => Value::Null,
                    false => t.decode_value(c, cols[c][r]),
                })
                .collect()
        })
        .collect()
}

/// `t` with its rows dealt to the heap slots in a seeded random order.
fn shuffled(t: &Table) -> Table {
    let mut rows = rows_of(t);
    let mut state = 20_261_019u64;
    for i in (1..rows.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        rows.swap(i, ((state >> 33) % (i as u64 + 1)) as usize);
    }
    let mut b = TableBuilder::new(t.name.clone(), t.schema.clone()).chunk_rows(t.chunk_rows);
    b.extend_rows(rows);
    b.finish()
}

#[test]
fn ranged_plans_return_the_same_rows_over_shuffled_slots_and_after_a_commit() {
    let (db, catalog) = tpch_db(0.01);
    let params = CostParams::default();
    let plans: Vec<_> = tpch::queries::all()
        .into_iter()
        .filter(|(name, _)| RANGED.contains(name))
        .map(|(name, plan)| {
            let compiled = rapid::qcomp::compile(&plan, &catalog, &params).expect("compile");
            let ranged = !ranged_nodes(&compiled.plan).is_empty();
            assert!(ranged || name == "Q10", "{name}");
            (name, plan, compiled.plan)
        })
        .collect();
    // The plans compiled for the clustered tables, run over shuffled ones:
    // every range reads every chunk whole and tests its rows.
    let mut dealt = catalog.clone();
    for name in ["orders", "lineitem"] {
        let t = shuffled(&catalog[name]);
        assert!(!t.clustered_on(0), "{name} is still in key order");
        dealt.insert(name.into(), Arc::new(t));
    }
    for ctx in [ExecContext::dpu(), ExecContext::native(3)] {
        let shuffled = engine(&dealt, ctx);
        for (name, plan, ranged) in &plans {
            let host = db.execute_on_host(plan).expect("host");
            assert_eq!(rows_on(&shuffled, ranged), canonical(&host.rows), "{name}");
        }
    }
    // A commit stores keys out of order: an order and its line land in the
    // last heap slots with the least key, and a line of order 7 is moved
    // to order 1. The plans compiled before it are run as they are.
    let orders = rows_of(&catalog["orders"]);
    let lineitem = rows_of(&catalog["lineitem"]);
    let mut order = orders[0].clone();
    order[0] = Value::Int(0);
    let mut line = lineitem[0].clone();
    line[0] = Value::Int(0);
    let mut moved = lineitem[10].clone();
    moved[0] = Value::Int(1);
    db.commit("orders", vec![RowChange::Insert(order)])
        .expect("commit");
    db.commit(
        "lineitem",
        vec![
            RowChange::Insert(line),
            RowChange::Update {
                rid: 10,
                row: moved,
            },
        ],
    )
    .expect("commit");
    for (name, plan, ranged) in &plans {
        // A statement's admission checkpoints what it reads.
        let host = canonical(&db.execute_on_host(plan).expect("host").rows);
        let rapid = canonical(&db.execute_on_rapid(plan).expect("rapid").rows);
        assert_eq!(rapid, host, "{name}");
        let committed = db.rapid().read().catalog().clone();
        assert!(!committed["orders"].clustered_on(0));
        for ctx in [ExecContext::dpu(), ExecContext::native(3)] {
            let after = engine(&committed, ctx);
            assert_eq!(rows_on(&after, ranged), host, "{name}");
        }
    }
}

/// A host database of `a(ak, av)` and `b(bk, bv)`, `rows` rows each stored
/// in key order, one key in ten NULL — and `a`'s keys only every other of
/// `b`'s.
fn keyed_db(rows: i64) -> HostDb {
    let db = HostDb::new(ExecContext::dpu());
    for (name, stride) in [("a", 2), ("b", 1)] {
        let schema = Schema::new(vec![
            Field::nullable(format!("{name}k"), DataType::Int),
            Field::new(format!("{name}v"), DataType::Int),
        ]);
        db.create_table(name, schema);
        let rows = (0..rows).map(|i| {
            let key = match i % 10 {
                9 => Value::Null,
                _ => Value::Int(i * stride),
            };
            vec![key, Value::Int(i % 7)]
        });
        db.bulk_insert(name, rows);
        db.load_into_rapid(name).expect("load");
    }
    db
}

#[test]
fn null_keys_land_in_the_last_range_and_are_kept_where_the_operator_keeps_them() {
    let db = keyed_db(6_000);
    let catalog = db.rapid().read().catalog().clone();
    let statements = [
        ("anti", "SELECT ak, av FROM a ANTI JOIN b ON ak = bk"),
        ("outer", "SELECT ak, av, bk FROM a LEFT JOIN b ON ak = bk"),
        (
            "group",
            "SELECT bk, COUNT(*) AS n, SUM(bv) AS s FROM b GROUP BY bk",
        ),
    ];
    let schemas = [
        ("a".to_string(), vec!["ak".to_string(), "av".to_string()]),
        ("b".to_string(), vec!["bk".to_string(), "bv".to_string()]),
    ]
    .into_iter()
    .collect();
    let native = engine(&catalog, ExecContext::native(4));
    for (what, sql) in statements {
        let plan = hostdb::sql::parse_sql(sql, &schemas).expect("parse");
        let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default())
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(
            !ranged_nodes(&compiled.plan).is_empty(),
            "{what}: {:?}",
            compiled.plan
        );
        let host = canonical(&db.execute_on_host(&plan).expect("host").rows);
        let nulls = host.iter().filter(|r| r[0] == "NULL").count();
        assert_eq!(nulls, if what == "group" { 1 } else { 600 }, "{what}");
        assert_eq!(
            canonical(&db.execute_on_rapid(&plan).expect("rapid").rows),
            host,
            "{what}: DPU"
        );
        assert_eq!(rows_on(&native, &compiled.plan), host, "{what}: native");
    }
}
