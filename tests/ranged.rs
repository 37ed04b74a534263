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
            // order-key join's build side is that join, no scan: the join
            // reads lineitem by range and partitions its build side alone.
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
                !ranged.is_empty() || (name, sf) == ("Q10", 0.01),
                "sf {sf} {name}: no ranged node"
            );
            if joined_first {
                let one_sided = one_clustered(&compiled.plan, &catalog);
                let lineitem = |j: &(u32, usize, String, bool, bool)| j.2 == "lineitem" && j.3;
                assert!(
                    one_sided.iter().any(lineitem),
                    "sf {sf} {name}: {one_sided:?}"
                );
            }
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

/// Whether `input` is a scan-fed chain of a table stored in the order of
/// one of `keys`.
fn clustered_on_a_key(input: &PlanNode, keys: &[usize], catalog: &Catalog) -> Option<String> {
    let chain = input.scan_chain()?;
    let cols = keys.iter().filter_map(|&k| input.chain_column(k));
    let clustered = cols
        .map(|(_, col)| col)
        .any(|col| catalog[chain.table].clustered_on(col));
    clustered.then(|| chain.table.to_string())
}

/// Pre-order ids of the partitioned joins of `plan` exactly one of whose
/// inputs scans a table stored in the order of one of its keys: that input
/// (0 build, 1 probe), its table, whether the plan reads it by range, and
/// whether the join declares a filter.
fn one_clustered(plan: &PlanNode, catalog: &Catalog) -> Vec<(u32, usize, String, bool, bool)> {
    fn walk(
        plan: &PlanNode,
        catalog: &Catalog,
        next: &mut u32,
        out: &mut Vec<(u32, usize, String, bool, bool)>,
    ) {
        if let PlanNode::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            scheme,
            filter,
            ..
        } = plan
        {
            let sides = [
                clustered_on_a_key(build, build_keys, catalog),
                clustered_on_a_key(probe, probe_keys, catalog),
            ];
            if let (false, [Some(table), None] | [None, Some(table)]) = (scheme.is_empty(), &sides)
            {
                let edge = usize::from(sides[0].is_none());
                let ranged = plan.reads_by_range(edge) && !plan.reads_by_range(1 - edge);
                out.push((*next, edge, table.clone(), ranged, filter.is_some()));
            }
        }
        *next += 1;
        plan.inputs()
            .for_each(|child| walk(child, catalog, next, out));
    }
    let mut out = Vec::new();
    walk(plan, catalog, &mut 0, &mut out);
    out
}

/// Check every join of `plan` with one input stored in key order against
/// the stages `events` ran: read by range — one `join.ranged` stage, no
/// `join.pairs`, no partition round over its ranged scan — unless its build
/// side is the ranged one and partitioning both declares a filter. Returns
/// the joins read by range: `(node, table)`.
fn check_one_sided(
    what: &str,
    plan: &PlanNode,
    catalog: &Catalog,
    events: &[rapid::qef::trace::StageEvent],
) -> Vec<(u32, String)> {
    let mut ranged = Vec::new();
    for (id, edge, table, by_range, filtered) in one_clustered(plan, catalog) {
        assert!(
            by_range || (edge == 0 && filtered),
            "{what} node {id}: {table} is read whole"
        );
        if !by_range {
            continue;
        }
        let of_node: Vec<_> = events.iter().filter(|e| e.node_id == id).collect();
        let ops: Vec<&str> = of_node.iter().map(|e| e.operator.as_str()).collect();
        assert_eq!(
            ops.iter().filter(|op| **op == "join.ranged").count(),
            1,
            "{what} node {id}: {ops:?}"
        );
        assert!(
            !ops.iter()
                .any(|op| *op == "join.pairs" || *op == "join.filter"),
            "{what} node {id}: {ops:?}"
        );
        let scan = format!("scan({table})");
        for e in of_node
            .iter()
            .filter(|e| e.operator.starts_with("join.partition"))
        {
            assert!(
                e.fused.iter().all(|op| op.operator != scan),
                "{what} node {id}: a partition round over {scan}"
            );
        }
        ranged.push((id, table));
    }
    ranged
}

#[test]
fn a_join_with_one_input_in_key_order_partitions_only_the_other() {
    // At sf 0.02: Q3's lineitem, Q9's orders and partsupp, Q14's and Q19's
    // part; and at sf 0.05 Q5's order-key join, whose build side is a join.
    let named: [(&str, &[&str]); 5] = [
        ("Q3", &["lineitem"]),
        ("Q5", &[]),
        ("Q9", &["orders", "partsupp"]),
        ("Q14", &["part"]),
        ("Q19", &["part"]),
    ];
    for sf in [0.01, 0.02, 0.05] {
        let (db, catalog) = tpch_db(sf);
        let sink = MemorySink::new();
        let dpu = engine(&catalog, ExecContext::dpu().with_trace(sink.clone()));
        let native = engine(&catalog, ExecContext::native(4));
        for (name, plan) in tpch::queries::all() {
            let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let on_dpu = rows_on(&dpu, &compiled.plan);
            let what = format!("sf {sf} {name}");
            let ranged = check_one_sided(&what, &compiled.plan, &catalog, &sink.take());
            if let Some((_, tables)) = named.iter().find(|(n, _)| *n == name) {
                let mut tables: Vec<&str> = tables.to_vec();
                if (name, sf) == ("Q5", 0.05) {
                    tables.push("lineitem");
                }
                for table in tables.iter().filter(|_| sf == 0.02 || name == "Q5") {
                    assert!(
                        ranged.iter().any(|(_, t)| t == table),
                        "{what}: {table} is not read by range: {ranged:?}"
                    );
                }
            }
            let host = db.execute_on_host(&plan).expect("host");
            assert_eq!(canonical(&host.rows), on_dpu, "{what}: host vs DPU");
            assert_eq!(rows_on(&native, &compiled.plan), on_dpu, "{what}: native");
        }
    }
}

/// The column names of every table of `catalog`, for the SQL front end.
fn schemas(catalog: &Catalog) -> std::collections::HashMap<String, Vec<String>> {
    let names = |t: &Table| t.schema.fields.iter().map(|f| f.name.clone()).collect();
    catalog
        .iter()
        .map(|(name, t)| (name.clone(), names(t)))
        .collect()
}

/// `dml_refresh`'s join of customers and their orders.
const CUSTOMER_ORDERS: &str = "SELECT c_mktsegment, COUNT(*) AS n FROM customer JOIN orders \
                               ON c_custkey = o_custkey GROUP BY c_mktsegment";

#[test]
fn customers_and_their_orders_read_customer_by_range() {
    for sf in [0.01, 0.02, 0.05] {
        let (db, catalog) = tpch_db(sf);
        let plan = hostdb::sql::parse_sql(CUSTOMER_ORDERS, &schemas(&catalog)).expect("parse");
        let compiled =
            rapid::qcomp::compile(&plan, &catalog, &CostParams::default()).expect("compile");
        let sink = MemorySink::new();
        let dpu = engine(&catalog, ExecContext::dpu().with_trace(sink.clone()));
        let on_dpu = rows_on(&dpu, &compiled.plan);
        let what = format!("sf {sf} customer JOIN orders");
        let ranged = check_one_sided(&what, &compiled.plan, &catalog, &sink.take());
        assert_eq!(ranged.len(), 1, "{what}: {ranged:?}");
        assert_eq!(ranged[0].1, "customer", "{what}");
        let host = db.execute_on_host(&plan).expect("host");
        assert_eq!(canonical(&host.rows), on_dpu, "{what}: host vs DPU");
        let native = engine(&catalog, ExecContext::native(4));
        assert_eq!(rows_on(&native, &compiled.plan), on_dpu, "{what}: native");
    }
}

#[test]
fn one_sided_plans_return_the_same_rows_over_shuffled_slots_and_after_a_commit() {
    let (db, catalog) = tpch_db(0.02);
    let params = CostParams::default();
    let mut plans: Vec<_> = tpch::queries::all()
        .into_iter()
        .filter(|(name, _)| ["Q3", "Q9", "Q14", "Q19"].contains(name))
        .map(|(name, plan)| (name.to_string(), plan))
        .collect();
    let plan = hostdb::sql::parse_sql(CUSTOMER_ORDERS, &schemas(&catalog)).expect("parse");
    plans.push(("customer JOIN orders".into(), plan));
    let plans: Vec<_> = plans
        .into_iter()
        .map(|(name, plan)| {
            let compiled = rapid::qcomp::compile(&plan, &catalog, &params).expect("compile");
            let one_sided = one_clustered(&compiled.plan, &catalog);
            assert!(one_sided.iter().any(|j| j.3), "{name}: {one_sided:?}");
            (name, plan, compiled.plan)
        })
        .collect();
    // The plans compiled for the clustered tables, run over shuffled ones:
    // the value-bit cut is read off the shuffled zone maps, and every range
    // reads every chunk whole and tests its rows.
    let mut dealt = catalog.clone();
    for name in ["orders", "part", "partsupp", "customer", "lineitem"] {
        let t = shuffled(&catalog[name]);
        assert!(!t.clustered_on(0), "{name} is still in key order");
        dealt.insert(name.into(), Arc::new(t));
    }
    for ctx in [ExecContext::dpu(), ExecContext::native(3)] {
        let shuffled = engine(&dealt, ctx);
        for (name, plan, one_sided) in &plans {
            let host = db.execute_on_host(plan).expect("host");
            assert_eq!(
                rows_on(&shuffled, one_sided),
                canonical(&host.rows),
                "{name}"
            );
        }
    }
    // A commit stores keys out of order: a part and a customer land in the
    // last heap slots with the least keys, and a part's line moves to it.
    // The plans compiled before it are run as they are.
    let mut part = rows_of(&catalog["part"])[5].clone();
    part[0] = Value::Int(0);
    let mut customer = rows_of(&catalog["customer"])[5].clone();
    customer[0] = Value::Int(0);
    db.commit("part", vec![RowChange::Insert(part)])
        .expect("commit");
    db.commit("customer", vec![RowChange::Insert(customer)])
        .expect("commit");
    let mut line = rows_of(&catalog["lineitem"])[3].clone();
    line[1] = Value::Int(0);
    db.commit("lineitem", vec![RowChange::Update { rid: 3, row: line }])
        .expect("commit");
    for (name, plan, one_sided) in &plans {
        let host = canonical(&db.execute_on_host(plan).expect("host").rows);
        let rapid = canonical(&db.execute_on_rapid(plan).expect("rapid").rows);
        assert_eq!(rapid, host, "{name}");
        let committed = db.rapid().read().catalog().clone();
        for ctx in [ExecContext::dpu(), ExecContext::native(3)] {
            let after = engine(&committed, ctx);
            assert_eq!(rows_on(&after, one_sided), host, "{name}");
        }
    }
    let committed = db.rapid().read().catalog().clone();
    assert!(!committed["part"].clustered_on(0));
    assert!(!committed["customer"].clustered_on(0));
}

#[test]
fn null_keys_on_the_partitioned_side_are_kept_where_the_join_keeps_them() {
    // `b` is stored in key order; `c`'s keys are dealt out of order, one in
    // ten NULL, half of them past `b`'s greatest key and a few below its
    // least.
    let db = keyed_db(6_000);
    let schema = Schema::new(vec![
        Field::nullable("ck", DataType::Int),
        Field::new("cv", DataType::Int),
    ]);
    db.create_table("c", schema);
    let rows = (0..6_000i64).map(|i| {
        let key = match i % 10 {
            9 => Value::Null,
            _ => Value::Int((i * 7_919) % 12_000 - 10),
        };
        vec![key, Value::Int(i % 5)]
    });
    db.bulk_insert("c", rows);
    db.load_into_rapid("c").expect("load");
    let catalog = db.rapid().read().catalog().clone();
    assert!(!catalog["c"].clustered_on(0) && catalog["b"].clustered_on(0));
    let schemas = [
        ("b".to_string(), vec!["bk".to_string(), "bv".to_string()]),
        ("c".to_string(), vec!["ck".to_string(), "cv".to_string()]),
    ]
    .into_iter()
    .collect();
    let native = engine(&catalog, ExecContext::native(4));
    for (what, sql) in [
        ("anti", "SELECT ck, cv FROM c ANTI JOIN b ON ck = bk"),
        ("outer", "SELECT ck, cv, bk FROM c LEFT JOIN b ON ck = bk"),
    ] {
        let plan = hostdb::sql::parse_sql(sql, &schemas).expect("parse");
        let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default())
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let one_sided = one_clustered(&compiled.plan, &catalog);
        assert!(
            matches!(one_sided[..], [(_, 0, _, true, false)]),
            "{what}: {one_sided:?}"
        );
        let host = canonical(&db.execute_on_host(&plan).expect("host").rows);
        let nulls = host.iter().filter(|r| r[0] == "NULL").count();
        assert_eq!(nulls, 600, "{what}");
        assert_eq!(
            canonical(&db.execute_on_rapid(&plan).expect("rapid").rows),
            host,
            "{what}: DPU"
        );
        assert_eq!(rows_on(&native, &compiled.plan), host, "{what}: native");
    }
}
