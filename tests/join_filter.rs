//! Join filters where the estimate says most probe rows miss, and nowhere
//! else: at the benchmark's scale factor exactly two partitioned, two
//! ranged and six broadcast joins of the eleven TPC-H statements declare
//! one, a partitioned join's `join.filter` stage builds it and the lanes of
//! a broadcast join's probe, or of a ranged join, build theirs beside their
//! tables, with no stage of their own; the stage
//! that tests a probe row — the probe's scan on the gather path, else the
//! probe side's round one or a broadcast join's probe — keeps every row that
//! joins and few more, and a join whose every probe row matches —
//! `dml_refresh`'s `customer JOIN orders`, Q10's `customer ⋈ nation` —
//! declares none.

use std::collections::HashMap;

use hostdb::db::decode_batch;
use hostdb::{parse_sql, HostDb};
use rapid::qcomp::cost::CostParams;
use rapid::qef::engine::Engine;
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::{Catalog, PlanNode};
use rapid::qef::trace::MemorySink;
use rapid_fuzz::canonical;

/// The TPC-H tables at `sf`, loaded.
fn tpch_catalog(sf: f64) -> (HostDb, Catalog) {
    let data = tpch::generate(&tpch::TpchConfig::sf(sf));
    let db = HostDb::new(ExecContext::dpu());
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let catalog = db.rapid().read().catalog().clone();
    (db, catalog)
}

/// `(pre-order node id, filter bits, filters built)` of every join of `plan`
/// with a filter: a ranged join builds one for each of its key ranges, any
/// other join one.
fn filtered_joins(plan: &PlanNode) -> Vec<(u32, usize, usize)> {
    fn walk(plan: &PlanNode, next: &mut u32, out: &mut Vec<(u32, usize, usize)>) {
        let id = *next;
        *next += 1;
        if let PlanNode::HashJoin {
            filter: Some(bits), ..
        } = plan
        {
            let ranges = plan.ranged_scheme().map_or(1, |s| s.iter().product());
            out.push((id, *bits, ranges));
        }
        plan.inputs().for_each(|child| walk(child, next, out));
    }
    let mut out = Vec::new();
    walk(plan, &mut 0, &mut out);
    out
}

/// `plan` with every join filter taken out.
fn unfiltered(plan: &PlanNode) -> PlanNode {
    fn strip(plan: &mut PlanNode) {
        if let PlanNode::HashJoin { filter, .. } = plan {
            *filter = None;
        }
        plan.inputs_mut().for_each(strip);
    }
    let mut plan = plan.clone();
    strip(&mut plan);
    plan
}

#[test]
fn exactly_the_joins_whose_probe_rows_mostly_miss_declare_a_filter() {
    let (db, catalog) = tpch_catalog(0.02);
    let sink = MemorySink::new();
    let mut engine = Engine::new(ExecContext::dpu().with_trace(sink.clone()));
    for t in catalog.values() {
        engine.load_table(std::sync::Arc::clone(t));
    }
    let params = CostParams::default();
    let mut declared = Vec::new();
    for (name, plan) in tpch::queries::all() {
        let compiled = rapid::qcomp::compile(&plan, &catalog, &params).expect("compile");
        let joins = filtered_joins(&compiled.plan);
        engine
            .execute(&unfiltered(&compiled.plan))
            .expect("execute");
        let plain = sink.take();
        let (out, _) = engine.execute(&compiled.plan).expect("execute");
        let events = sink.take();
        for &(node, bits, ranges) in &joins {
            // The filter is sized from the estimated build rows, 8 to 16
            // bits a row, in the room the probe side's first stage leaves:
            // a word for each of round one's partitions, or the one slice
            // of a broadcast join.
            let of_node = |events: &[rapid::qef::trace::StageEvent], op: &str| {
                let mut it = events
                    .iter()
                    .filter(|e| e.node_id == node && e.operator == op);
                it.next_back()
                    .unwrap_or_else(|| panic!("{name} node {node}: no {op}"))
                    .clone()
            };
            // A partitioned join's filter is built by a `join.filter`
            // stage over the build side's keys; a broadcast join's by the
            // lanes of its probe, beside their tables, from the rows its
            // build side handed on; a ranged join's by each of its lanes,
            // from the rows of its range its build side's chain handed on.
            let built = events
                .iter()
                .filter(|e| e.node_id == node && e.operator == "join.filter");
            let build_rows = match built.clone().next_back() {
                Some(built) => built.rows,
                None => {
                    let ops = events.iter().flat_map(|e| e.operators());
                    let build = ops.filter(|op| op.0 == node + 1).last();
                    build.map_or(0, |op| op.3)
                }
            };
            // Each probe row is tested once, by the stage that holds its key
            // first: the probe's scan, on the gather path, or else round one
            // of a partitioned join's probe side or a broadcast join's probe.
            let tested: Vec<_> = events.iter().filter(|e| e.filter.is_some()).collect();
            let tested: Vec<_> = tested.iter().filter(|e| e.node_id == node).collect();
            assert_eq!(tested.len(), 1, "{name} node {node}: {tested:?}");
            let (probe, filter) = (tested[0], tested[0].filter.expect("tested"));
            let least = match probe.operator.as_str() {
                "join.partition-probe" => 32 * 64,
                "join.probe" | "join.ranged" => 64,
                other => panic!("{name} node {node}: tested by {other}"),
            };
            assert!(bits.is_power_of_two() && bits >= least, "{name}: {bits}");
            let stages = usize::from(probe.operator == "join.partition-probe");
            assert_eq!(built.count(), stages, "{name} node {node}");
            if probe.scan.is_some_and(|s| s.keyed) {
                // The scan's rows are what its predicate kept: the rows
                // that entered the test.
                assert_eq!(probe.fused.last().map(|s| s.rows), Some(filter.tested));
            }
            // Every row that joins is kept: the join hands on what it does
            // unfiltered.
            let joins = match probe.operator.as_str() {
                "join.partition-probe" => "join.pairs",
                other => other,
            };
            let joined = |events: &[_]| of_node(events, joins).rows;
            let joined_rows = joined(&events);
            assert_eq!(joined_rows, joined(&plain), "{name} node {node}");
            // And the rows that do not join are few: a false positive's
            // chance is 1 − e^(−keys/bits), over the keys of one range
            // where each range's lane builds a filter of its own.
            let keys = build_rows as f64 / ranges as f64;
            let chance = 1.0 - (-keys / bits as f64).exp();
            let missed = (filter.tested - filter.kept) as f64;
            assert!(
                missed >= 0.5 * (1.0 - chance) * (filter.tested as f64 - joined_rows as f64),
                "{name} node {node}: kept {filter:?} of which {joined_rows} joined"
            );
            declared.push((name, node));
        }
        let rows = decode_batch(&out.batch, &out.meta, engine.catalog());
        let host = db.execute_on_host(&plan).expect("host");
        assert_eq!(
            canonical(&rows),
            canonical(&host.rows),
            "{name}: Volcano vs DPU"
        );
    }
    // Partitioned: Q3's customer join. Ranged: Q5's and Q10's lineitem
    // joins, and reading their probe side alone by range, Q3's lineitem,
    // Q9's orders and Q14's part joins.
    // Broadcast:
    // the probes of Q5's supplier, Q9's lineitem, Q12's orders, and Q18's
    // customer, orders and lineitem. Q10's customer ⋈ nation, whose every
    // probe row matches, declares none.
    assert_eq!(
        declared,
        [
            ("Q3", 3),
            ("Q3", 4),
            ("Q5", 5),
            ("Q5", 11),
            ("Q9", 7),
            ("Q9", 10),
            ("Q10", 4),
            ("Q12", 3),
            ("Q14", 3),
            ("Q18", 2),
            ("Q18", 3),
            ("Q18", 4)
        ]
    );
}

#[test]
fn a_join_whose_probe_rows_all_match_declares_no_filter() {
    let (db, catalog) = tpch_catalog(0.02);
    let schemas: HashMap<String, Vec<String>> = catalog
        .iter()
        .map(|(name, t)| {
            let fields = t.schema.fields.iter().map(|f| f.name.clone()).collect();
            (name.clone(), fields)
        })
        .collect();
    let sql = "SELECT c_mktsegment, COUNT(*) AS n FROM customer JOIN orders \
               ON c_custkey = o_custkey GROUP BY c_mktsegment";
    let plan = parse_sql(sql, &schemas).expect("parse");
    let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default()).expect("compile");
    assert!(
        matches!(&compiled.plan, p if has_partitioned_join(p)),
        "a partitioned join: {:?}",
        compiled.plan
    );
    assert_eq!(filtered_joins(&compiled.plan), []);
    let text = db.explain_analyze(sql).expect("explain").text;
    // Partitioned on its orders side alone: customer is read by range.
    assert!(text.contains("join.ranged"), "{text}");
    assert!(
        !text.contains("join.filter") && !text.contains("filter kept="),
        "{text}"
    );
}

#[test]
fn explain_analyze_says_what_a_filter_kept() {
    // Q3 on the 32 cores of the whole DPU: its two partitioned joins filter
    // their probe sides — orders in round one of its pass, and lineitem,
    // which the join reads by range, in its scan's key pass.
    let (db, _) = tpch_catalog(0.02);
    let (_, q3) = tpch::queries::STATEMENTS
        .iter()
        .find(|(name, _)| *name == "Q3")
        .expect("Q3");
    let text = db.explain_analyze(q3).expect("explain").text;
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("join.partition-probe") || l.contains("join.ranged"))
        .filter_map(|l| l.split(" filter kept=").nth(1))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    assert_eq!(kept.len(), 2, "{text}");
    for kept in kept {
        let (k, of) = kept.split_once('/').expect("kept/tested");
        let (k, of): (u64, u64) = (k.parse().expect("kept"), of.parse().expect("tested"));
        assert!(0 < k && k < of / 2, "{kept}");
    }
    assert_eq!(text.matches("join.filter").count(), 1, "{text}");

    // Q18's three broadcast joins test their probe rows too, all three
    // scans in a key pass: the customer scan's too since its 3,000 rows are
    // dealt over 32 lanes of 94 (`budget::Deal`), where streaming them was
    // shorter on 12 lanes of 256. Each probe line says what was kept of the
    // rows its scan's predicate kept, and no stage builds their filters:
    // every lane of a probe sets the bits of its copy beside its table.
    let (_, q18) = tpch::queries::STATEMENTS
        .iter()
        .find(|(name, _)| *name == "Q18")
        .expect("Q18");
    let text = db.explain_analyze(q18).expect("explain").text;
    let probes = text.lines().filter(|l| l.contains("join.probe"));
    assert_eq!(
        probes.filter(|l| l.contains(" filter kept=")).count(),
        3,
        "{text}"
    );
    assert_eq!(text.matches("join.filter").count(), 0, "{text}");
    let keyed = text.lines().filter(|l| l.contains("gather passes=2 (key)"));
    let keyed: Vec<_> = keyed.filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(
        keyed,
        ["scan(customer)", "scan(lineitem)", "scan(orders)"],
        "{text}"
    );
}

fn has_partitioned_join(plan: &PlanNode) -> bool {
    match plan {
        PlanNode::HashJoin { scheme, .. } if !scheme.is_empty() => true,
        other => other.inputs().any(has_partitioned_join),
    }
}
