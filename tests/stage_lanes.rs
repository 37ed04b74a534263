//! Tasks run on every dpCore: over the eleven TPC-H statements at the
//! benchmark's scale factor, a scan and the operators that run in its task
//! are ONE stage of `min(cores, tiles)` tile-aligned
//! lanes — whatever the table's chunks — holding in DMEM exactly the working
//! set the verifier derives for the task, timed by the stage rule applied
//! once; a partition round over what a task materialized is a stage of as
//! many lanes as it has tiles; no stage that streams more than a tile on one
//! lane holds a real share of a query; and the lane count changes the clock
//! only — the rows, the bytes the DMS moves and the instructions retired are
//! those of one core streaming the input alone.
//!
//! A pass runs the rounds its plan node declares, joins and group-bys alike,
//! every pass of the eleven statements a single round; a join of no rounds
//! is broadcast and runs no pass and no pairs stage, only the probe its
//! every lane builds the whole table for, and, where it declares a join
//! filter, its copy of the filter beside the table: no stage builds a
//! broadcast join's filter, where a partitioned join's `join.filter` stage
//! builds its own. Each probe row is tested against a filter once, by the
//! stage its task ends with or by its scan's key pass.
//!
//! Against the figures recorded from the commit that ran one operator per
//! stage no statement takes more cycles or moves more bytes; and where the
//! operators of a chain and its consumer do not fit one scratchpad the
//! engine runs them cut, whatever scratchpad the plan was compiled for, and
//! the verifier reports the same two stages.

use std::sync::Arc;

use hostdb::db::decode_batch;
use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qef::budget;
use rapid::qef::engine::{Engine, QueryReport};
use rapid::qef::exec::ExecContext;
use rapid::qef::ops::filter::ChunkList;
use rapid::qef::plan::{Catalog, PlanNode};
use rapid::qef::primitives::costs;
use rapid::qef::trace::{MemorySink, StageEvent};
use rapid_fuzz::canonical;

const CORES: usize = 32;

/// `(statement, simulated cycles, DMS bytes)` at sf 0.02 on 32 cores when
/// every operator was a stage of its own and scans ran a lane a chunk:
/// `rapid-report trace --sf 0.02` at commit cd3e0bb, cycles rounded up.
/// 33 scan-fed chains ran as 33 scan stages and the filters, maps and first
/// consumer stages over them.
const PER_OPERATOR: [(&str, f64, u64); 11] = [
    ("Q1", 571_555.0, 2_515_968),
    ("Q3", 306_346.0, 1_869_008),
    ("Q4", 206_477.0, 1_443_768),
    ("Q5", 437_320.0, 2_677_856),
    ("Q6", 42_098.0, 315_400),
    ("Q9", 809_819.0, 5_042_128),
    ("Q10", 221_245.0, 1_369_536),
    ("Q12", 152_447.0, 1_152_964),
    ("Q14", 75_102.0, 603_292),
    ("Q18", 439_582.0, 2_215_384),
    ("Q19", 133_007.0, 922_112),
];

/// `(statement, node id)` of every join broadcast at sf 0.02 on 32 cores:
/// a build side whose table fits half a scratchpad, of at most a 32nd of
/// the probe's rows. The build sides of Q9's node 10 (part), Q10's node 7
/// (nation) and Q12's node 3 (lineitem) are scans; the rest are what a join
/// handed on, or — Q18's node 4 — the HAVING filter over a group-by. All
/// probe in their scan's task but Q9's node 3, whose probe side is a join.
const BROADCAST: [(&str, u32); 9] = [
    ("Q5", 4),
    ("Q5", 5),
    ("Q9", 3),
    ("Q9", 10),
    ("Q10", 7),
    ("Q12", 3),
    ("Q18", 2),
    ("Q18", 3),
    ("Q18", 4),
];

fn is_partition_stage(e: &StageEvent) -> bool {
    matches!(
        e.operator.as_str(),
        "join.partition-build" | "join.partition-probe" | "groupby.partition"
    )
}

/// Every stage a node's partitioned join runs.
fn is_partitioned_join_stage(e: &StageEvent) -> bool {
    matches!(
        e.operator.as_str(),
        "join.partition-build" | "join.partition-probe" | "join.pairs"
    )
}

/// Nodes of `plan` in the pre-order the tracer numbers them in.
fn pre_order<'a>(plan: &'a PlanNode, out: &mut Vec<&'a PlanNode>) {
    out.push(plan);
    plan.inputs().for_each(|child| pre_order(child, out));
}

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

fn engine(catalog: &Catalog, ctx: ExecContext) -> Engine {
    let mut engine = Engine::new(ctx);
    for t in catalog.values() {
        engine.load_table(Arc::clone(t));
    }
    engine
}

#[test]
fn partition_stages_run_the_rounds_their_plan_node_declares() {
    // The plan says what runs: every partition stage of the eleven
    // statements is a round of the scheme its join or group-by node
    // carries — nothing between compiler and lanes chooses a fan-out.
    for sf in [0.01, 0.02] {
        let (_db, catalog) = tpch_catalog(sf);
        let sink = MemorySink::new();
        let engine = engine(&catalog, ExecContext::dpu().with_trace(sink.clone()));
        let mut group_by_schemes = Vec::new();
        for (name, plan) in tpch::queries::all() {
            let compiled = rapid::qcomp::compile(&plan, &catalog, &CostParams::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut nodes = Vec::new();
            pre_order(&compiled.plan, &mut nodes);
            engine.execute(&compiled.plan).expect("execute");
            let events = sink.take();
            for (id, node) in nodes.iter().enumerate() {
                let ran: Vec<(u32, u32, u32)> = events
                    .iter()
                    .filter(|e| e.node_id as usize == id && is_partition_stage(e))
                    .map(|e| {
                        let p = e.partition.expect("a partition stage says its round");
                        (p.round, p.rounds, p.fanout)
                    })
                    .collect();
                // A node whose partitions are key ranges runs no pass over
                // an input it reads by range.
                if let (Some(scheme), None) = (node.ranged_scheme(), node.partition_scheme()) {
                    assert_eq!(ran, [], "{name} node {id} runs key ranges");
                    if matches!(node, PlanNode::GroupBy { .. }) {
                        group_by_schemes.push((name, scheme.to_vec()));
                    }
                    continue;
                }
                let Some(scheme) = node.partition_scheme() else {
                    assert_eq!(ran, [], "{name} node {id} declares no pass");
                    continue;
                };
                if scheme.is_empty() && matches!(node, PlanNode::HashJoin { .. }) {
                    assert_eq!(ran, [], "{name} node {id} is broadcast");
                    continue;
                }
                // A pass is a stage a round — round one the last operator
                // of a task where the side is a scan — and an input of one
                // tile or less that is no task runs the whole scheme as one
                // item.
                let by_round: Vec<_> = (1..)
                    .zip(scheme)
                    .map(|(round, &fanout)| (round, scheme.len() as u32, fanout as u32))
                    .collect();
                let at_once = [(1, 1, scheme.iter().product::<usize>() as u32)];
                let passes = match node {
                    PlanNode::HashJoin { .. } => {
                        (0..2).filter(|&e| !node.reads_by_range(e)).count()
                    }
                    _ => 1,
                };
                assert_eq!(ran.len() % passes, 0, "{name} node {id}: {ran:?}");
                for pass in ran.chunks(ran.len() / passes) {
                    assert!(
                        pass == by_round || pass == at_once,
                        "{name} sf {sf} node {id} declares {scheme:?} and ran {pass:?}"
                    );
                }
                if matches!(node, PlanNode::GroupBy { .. }) {
                    group_by_schemes.push((name, scheme.to_vec()));
                }
            }
        }
        // Q18's inner group-by on `l_orderkey` cuts its scheme's
        // partitions as key ranges of `lineitem`.
        let inner = if sf < 0.02 { 64 } else { 128 };
        assert_eq!(
            group_by_schemes,
            [
                ("Q3", vec![32]),
                ("Q10", vec![32]),
                ("Q18", vec![32]),
                ("Q18", vec![inner])
            ],
            "sf {sf}"
        );
    }
}

/// Where the scans of a task's event lie among its operators, topmost
/// first: one, or one for each input of a stage over key ranges.
fn scans_of(e: &StageEvent) -> Vec<usize> {
    let ops = e.operators().enumerate();
    ops.filter(|(_, op)| op.2.starts_with("scan("))
        .map(|(at, _)| at)
        .collect()
}

/// Rows a task's scan lists: the chunks of its table its predicate's zone
/// maps do not rule out ([`ChunkList`]), the rows its lanes are dealt.
fn listed_rows(e: &StageEvent, nodes: &[&PlanNode], catalog: &Catalog) -> usize {
    let (id, ..) = e.operators().last().expect("the event's own operator");
    let PlanNode::Scan { table, pred, .. } = nodes[id as usize] else {
        panic!("{e:?}: a task opens with a scan");
    };
    ChunkList::of(pred.as_ref(), &catalog[table.as_str()].chunks).rows()
}

#[test]
fn partition_stages_use_every_core_and_change_only_the_clock() {
    let (db, catalog) = tpch_catalog(0.02);
    let traced = |cores: usize| {
        let sink = MemorySink::new();
        let ctx = ExecContext::dpu().with_cores(cores);
        (engine(&catalog, ctx.with_trace(sink.clone())), sink)
    };
    let (dpu, sink) = traced(CORES);
    let fewer_cores = [traced(1), traced(8)];
    let native = engine(&catalog, ExecContext::native(4));
    assert_eq!(dpu.context().cores, CORES);

    let params = CostParams::default();
    let (mut tasks, mut fused_tasks, mut dms_bound, mut wide_rounds) = (0, 0, 0, 0);
    let mut ranged = 0;
    let mut other_path = Vec::new();
    let mut underived = std::collections::BTreeSet::new();
    let (mut broadcast, mut builds_subtracted) = (Vec::new(), 0);
    let (mut filters_subtracted, mut filters_set) = (0, 0);
    for (name, plan) in tpch::queries::all() {
        let compiled = rapid::qcomp::compile(&plan, &catalog, &params)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut nodes = Vec::new();
        pre_order(&compiled.plan, &mut nodes);
        // The joins of no rounds, and what one lane of each reads of its
        // build side — the build node's rows at the widths it hands them on
        // — and hashes: its keys. And the joins with a filter, which every
        // lane of a partitioned join's probe side reads whole, and every
        // lane of a broadcast join's sets the bits of beside its table.
        let mut build_bytes = std::collections::HashMap::new();
        let mut filter_bytes = std::collections::HashMap::new();
        for (id, node) in nodes.iter().enumerate() {
            if let PlanNode::HashJoin {
                build,
                build_keys,
                scheme,
                filter,
                ..
            } = node
            {
                if scheme.is_empty() {
                    let widths = build.output_widths(&catalog).expect("widths");
                    let row_bytes = widths.iter().sum::<usize>() as u64;
                    build_bytes.insert(id as u32, (row_bytes, build_keys.len()));
                    broadcast.push((name, id as u32));
                }
                if let Some(bits) = filter {
                    filter_bytes.insert(id as u32, *bits as u64 / 8);
                }
            }
        }
        let run = |engine: &Engine| -> (Vec<Vec<String>>, QueryReport) {
            let (out, report) = engine.execute(&compiled.plan).expect("execute");
            let rows = decode_batch(&out.batch, &out.meta, engine.catalog());
            (canonical(&rows), report)
        };
        let (rows, report) = run(&dpu);
        let events = sink.take();
        assert_eq!(events.len(), report.stages, "{name}: an event per stage");

        let &(_, cycles, bytes) = PER_OPERATOR
            .iter()
            .find(|(q, ..)| *q == name)
            .unwrap_or_else(|| panic!("{name}: no figure recorded"));
        assert!(
            report.sim_cycles <= cycles,
            "{name}: {} cycles, {cycles} an operator a stage",
            report.sim_cycles
        );
        assert!(
            report.dms_bytes <= bytes,
            "{name}: {} DMS bytes, {bytes} an operator a stage",
            report.dms_bytes
        );

        let verified = rapid_verify::verify(&compiled.plan, &catalog, &params.ctx);
        let derived = |e: &StageEvent| {
            verified
                .stages
                .iter()
                .find(|s| s.node_id == e.node_id as usize && s.stage == e.operator)
        };
        let stage_of = |e: &StageEvent| {
            derived(e).unwrap_or_else(|| panic!("{name}: no {} stage verified", e.operator))
        };
        // The verifier numbers nodes in the tracer's pre-order and names a
        // stage as the engine does: every stage that ran is one it derived.
        underived.extend(
            events
                .iter()
                .filter(|e| derived(e).is_none())
                .map(|e| e.operator.clone()),
        );
        // A broadcast join runs its probe and nothing else: no partition
        // pass and no pairs stage. Its `join.probe` — the last operator of
        // its probe's task, or a stage over what the probe side handed on —
        // holds in DMEM what the verifier derives for it.
        for e in &events {
            let broadcast = build_bytes.contains_key(&e.node_id);
            assert!(
                !(broadcast && is_partitioned_join_stage(e)),
                "{name}: node {} is broadcast and ran {}",
                e.node_id,
                e.operator
            );
            if e.operator == "join.probe" {
                assert!(broadcast, "{name}: node {} probes unpartitioned", e.node_id);
                assert_eq!(
                    e.dmem_peak_bytes,
                    stage_of(e).working_set_bytes as u64,
                    "{name}: node {} join.probe",
                    e.node_id
                );
            }
            // A partitioned join's filter is built by a stage of its own, a
            // lane a slice, a broadcast join's by its probe's lanes; either
            // is tested by the probe side's first stage alone — round one of
            // its pass or a broadcast join's probe, or the scan in its task
            // — whose event says what it kept.
            let filtered = filter_bytes.contains_key(&e.node_id);
            if e.operator == "join.filter" {
                assert!(filtered, "{name}: node {} declares no filter", e.node_id);
                assert!(!broadcast, "{name}: node {} is broadcast", e.node_id);
                assert_eq!(
                    e.dmem_peak_bytes,
                    stage_of(e).working_set_bytes as u64,
                    "{name}: node {} join.filter",
                    e.node_id
                );
            }
            let probes = matches!(
                e.operator.as_str(),
                "join.partition-probe" | "join.probe" | "join.ranged"
            );
            assert_eq!(e.filter.is_some(), filtered && probes, "{name}: {e:?}");
        }
        // Every scan is in a task, and a task is one event: the chain with
        // the stage that consumes it, wherever they fit together — or, of a
        // join over key ranges, both sides' chains with it.
        let scans = nodes.iter().filter(|n| matches!(n, PlanNode::Scan { .. }));
        let of_tasks: Vec<&StageEvent> = events.iter().filter(|e| e.scan.is_some()).collect();
        let scanned: usize = of_tasks.iter().map(|e| scans_of(e).len()).sum();
        assert_eq!(scanned, scans.count(), "{name}: every scan in a task");
        for e in &of_tasks {
            let stage = stage_of(e);
            // Its operators are the verifier's, scan first there, last here;
            // a lone scan's is its label. A ranged stage's row is its last
            // input's task: the chains before it run first in each lane.
            let mut ran: Vec<&str> = e.operators().map(|op| op.2).collect();
            if let [.., before, _] = scans_of(e)[..] {
                ran.drain(1..before + 1);
            }
            let derived: Vec<&str> = match stage.operators.as_str() {
                "" => vec![stage.stage.as_str()],
                operators => operators.rsplit(" -> ").collect(),
            };
            assert_eq!(ran, derived, "{name}");
            // The lanes `budget::Deal` deals the rows the scan lists to at
            // the task's one vector size: whole tiles for a lone scan chain and
            // for lanes that read a join filter from DRAM, equal shares over
            // every core the rows feed for a task that ends in a consumer —
            // one-chunk `part` (16 tiles) feeds its round on 32 lanes — and
            // either for a broadcast probe, whichever the scan's model
            // prices shorter. A ranged stage has a lane a key range.
            let tile = stage.effective_tile.expect("a verified task fits");
            let rows = listed_rows(e, &nodes, &catalog);
            let (whole, shares) = (
                budget::Deal::whole_tiles(rows, tile, CORES).lanes.max(1),
                budget::Deal::shares(rows, tile, CORES).lanes.max(1),
            );
            let lone =
                e.operator.starts_with("scan(") || matches!(e.operator.as_str(), "map" | "filter");
            let reads_filter = e.filter.is_some() && e.operator != "join.probe";
            let ranges = nodes[e.node_id as usize]
                .ranged_scheme()
                .filter(|_| e.operator.ends_with(".ranged"));
            let dealt = match ranges {
                Some(scheme) => vec![CORES.min(scheme.iter().product())],
                None if lone || reads_filter => vec![whole],
                None if e.operator == "join.probe" => vec![whole, shares],
                None => vec![shares],
            };
            assert!(dealt.contains(&e.parallelism), "{name}: {dealt:?} {e:?}");
            ranged += usize::from(ranges.is_some());
            // What a lane reserved is what the verifier derives: the
            // `ws-bytes` of EXPLAIN VERIFY is the task's `dmem_peak`.
            assert_eq!(
                e.dmem_peak_bytes, stage.working_set_bytes as u64,
                "{name} {}",
                e.operator
            );
            assert!(
                e.dmem_peak_bytes <= params.ctx.dmem_bytes as u64,
                "{name}: {e:?}"
            );
            assert!(
                e.dmem_peak_bytes > (1 + e.fused.len()) as u64 * budget::BASE_STATE_BYTES as u64,
                "{name} {}: lanes hold their tile buffers beside every operator's state",
                e.operator
            );
            // The stage rule, once: the busiest lane's compute of every
            // operator, or the DMS time of all of them, to the bit.
            let elapsed = dpu_sim::clock::Cycles(e.compute_cycles.max(e.dms_cycles));
            let sim = elapsed.to_time(dpu.context().cost_model.freq_hz);
            assert_eq!(
                e.sim_secs.to_bits(),
                sim.as_secs().to_bits(),
                "{name}: {e:?}"
            );
            tasks += 1;
            fused_tasks += usize::from(ran.len() > 1 && stage.stage != "map");
            dms_bound += usize::from(e.dms_cycles >= e.compute_cycles);
        }
        for e in events.iter().filter(|e| is_partition_stage(e)) {
            // At the widths the columns are encoded in every pass fits its
            // partitions into one round.
            let round = e.partition.map(|p| (p.round, p.rounds));
            assert_eq!(round, Some((1, 1)), "{name} {}: {e:?}", e.operator);
            if e.scan.is_none() {
                assert_eq!(
                    stage_of(e).effective_tile,
                    Some(params.ctx.tile_rows),
                    "{name}"
                );
                assert_eq!(
                    e.dmem_peak_bytes,
                    stage_of(e).working_set_bytes as u64,
                    "{name} {}",
                    e.operator
                );
            }
            // A round's tiles are dealt to min(cores, tiles) lanes; only an
            // input of one tile or less runs its rounds as one item. (A
            // task's lanes, checked above, are its table's tiles.)
            if e.scan.is_none() && e.tiles >= CORES as u64 {
                assert_eq!(e.parallelism, CORES, "{name} {}: {e:?}", e.operator);
            }
            wide_rounds += usize::from(e.parallelism == CORES);
        }
        for e in events.iter().filter(|e| e.parallelism == 1 && e.tiles > 1) {
            assert!(
                e.sim_secs <= 0.05 * report.sim_secs,
                "{name}: single-lane {} over {} tiles holds {:.1} % of the query",
                e.operator,
                e.tiles,
                100.0 * e.sim_secs / report.sim_secs
            );
        }

        // Fewer cores: the same rows, and in every stage that partitions or
        // scans the same rows, bytes and instructions on fewer lanes — a
        // lane's last tile is charged for the rows it holds, a bit-vector
        // for the words of it a run ends and a row set in the representation
        // its scan chose, so how the rows are cut into lanes moves nothing;
        // a round over batches, whose lanes are whole tiles of its input,
        // also takes the same tiles and descriptors. Where the rows do not
        // fill a tile on every core they are dealt in equal shares at a
        // finer tile (`budget::Deal`): the same instructions, and at least
        // the bytes, tiles and descriptors — every vector a lane writes
        // rounds up to its bursts. One thing a scan
        // decides from the cores it has: its access path, by stage time,
        // which one lane and thirty do not share — a task whose scan changed
        // path is compared on its rows alone. And one thing a broadcast
        // join's task does once per lane: every lane reads the build side
        // and builds its table. With one build a lane subtracted — the bytes
        // of the build side's rows, and the same instructions whichever
        // lanes are compared — the task moves and retires what it does on
        // one core. Where the join declares a filter each of those lanes
        // also sets a bit a build row beside its table: instructions, and no
        // bytes. The first stage of a partitioned join's probe side that
        // tests its rows against a join filter is the same: every lane reads
        // the whole filter, and with one read a lane subtracted it moves
        // what it does on one core.
        type Work = (
            String,
            Vec<u64>,
            (u64, u64),
            Option<(u64, u64)>,
            Option<(u32, u64)>,
            u64,
        );
        let build_rows = |join: u32| {
            let build = events.iter().rfind(|e| e.node_id == join + 1);
            build.map_or(0, |e| e.rows)
        };
        let retired = |cost: dpu_sim::isa::KernelCost, rows: u64| {
            let cost = cost.scaled(rows as f64);
            (cost.alu + cost.lsu + cost.mul) as u64
        };
        let work = |events: &[StageEvent]| -> Vec<Work> {
            let streamed = events
                .iter()
                .filter(|e| e.scan.is_some() || is_partition_stage(e));
            streamed
                .map(|e| {
                    let path = e.scan.map(|s| s.path.to_string()).unwrap_or_default();
                    // What every operator beneath the stage's own handed on;
                    // of a stage that is no task, what it was handed.
                    let rows = match e.fused.as_slice() {
                        [] => vec![e.rows],
                        fused => fused.iter().map(|op| op.rows).collect(),
                    };
                    let moved = (e.dms_bytes, e.instructions);
                    let over_batches = e.scan.is_none().then_some((e.tiles, e.dms_descriptors));
                    // A ranged join's lanes are its key ranges, however
                    // many cores run them.
                    let ranged = e.operator.ends_with(".ranged");
                    let once_a_lane = !ranged && (e.operator == "join.probe" || e.filter.is_some());
                    let builds = once_a_lane.then_some((e.node_id, e.parallelism as u64));
                    let label = format!("{} {path}", e.operator);
                    (label, rows, moved, over_batches, builds, e.tiles)
                })
                .collect()
        };
        let at_all_cores = work(&events);
        let mut one_build = std::collections::HashMap::new();
        for (fewer, fewer_sink) in &fewer_cores {
            let cores = fewer.context().cores;
            let (rows_fewer, report_fewer) = run(fewer);
            let events_fewer = fewer_sink.take();
            assert_eq!(rows_fewer, rows, "{name}: {cores} cores vs {CORES}");
            assert_eq!(events_fewer.len(), events.len(), "{name}: {cores} cores");
            for (few, all) in work(&events_fewer).iter().zip(&at_all_cores) {
                assert_eq!(few.1, all.1, "{name}: {cores} cores vs {CORES}");
                if few.0 != all.0 {
                    other_path.push(cores);
                    continue;
                }
                assert_eq!(few.4.map(|b| b.0), all.4.map(|b| b.0), "{name}");
                let lanes = |w: &Work| w.4.map_or(0, |(_, lanes)| lanes);
                let extra = lanes(all) - lanes(few);
                if let (Some((join, _)), true) = (all.4, extra > 0) {
                    let (bytes, instructions) = (all.2 .0 - few.2 .0, all.2 .1 - few.2 .1);
                    // Dealt at a finer tile, the lanes' vectors round up to
                    // more bursts beside the builds.
                    let finer = few.5 < all.5;
                    assert_eq!(instructions % extra, 0, "{name}");
                    let bytes = match finer {
                        true => bytes - bytes % extra,
                        false => bytes,
                    };
                    assert_eq!(bytes % extra, 0, "{name}");
                    let per_lane = (bytes / extra, instructions / extra);
                    let filter = filter_bytes.get(&join).copied();
                    if let Some(&(row_bytes, keys)) = build_bytes.get(&join) {
                        // The build side read; its keys hashed, its table
                        // built and, with a filter, a bit set a row.
                        let rows = build_rows(join);
                        let built = retired(costs::hash_per_row_per_key(), rows * keys as u64)
                            + retired(costs::join_build_per_row(), rows);
                        let set = match filter {
                            Some(_) => retired(costs::join_filter_set_per_row(), rows),
                            None => 0,
                        };
                        let expect = (rows * row_bytes, built + set);
                        match finer {
                            true => assert!(
                                per_lane.1 == expect.1 && per_lane.0 >= expect.0,
                                "{name}: node {join}: {per_lane:?} against {expect:?}"
                            ),
                            false => assert_eq!(per_lane, expect, "{name}: node {join}"),
                        }
                        let first = *one_build.entry(join).or_insert(expect);
                        assert_eq!(expect, first, "{name}: node {join}, {cores} cores");
                        filters_set += usize::from(filter.is_some());
                    } else {
                        filters_subtracted += usize::from(filter.is_some());
                        assert_eq!(
                            Some(per_lane),
                            filter.map(|f| (f, 0)),
                            "{name}: node {join}"
                        );
                    }
                } else if few.5 == all.5 {
                    assert_eq!(few.2, all.2, "{name}: {cores} cores vs {CORES}");
                } else {
                    // Dealt at a finer tile on more cores.
                    assert!(few.5 < all.5, "{name}: {cores} cores vs {CORES}");
                    assert_eq!(few.2 .1, all.2 .1, "{name}: {cores} cores vs {CORES}");
                    assert!(few.2 .0 <= all.2 .0, "{name}: {cores} cores vs {CORES}");
                }
                assert_eq!(few.0, all.0, "{name}: {cores} cores vs {CORES}");
                match (few.3, all.3) {
                    (Some(few), Some(all)) if few.0 < all.0 => assert!(few.1 <= all.1, "{name}"),
                    (few, all) => assert_eq!(few, all, "{name}: {cores} cores vs {CORES}"),
                }
            }
            assert!(events_fewer.iter().all(|e| e.parallelism <= cores));
            assert!(
                report_fewer.sim_cycles >= report.sim_cycles,
                "{name}: more cores are not slower"
            );
        }
        builds_subtracted += one_build.len();

        let host = db
            .execute_on_host(&plan)
            .unwrap_or_else(|e| panic!("{name} host: {e}"));
        assert_eq!(canonical(&host.rows), rows, "{name}: Volcano vs DPU");
        assert_eq!(run(&native).0, rows, "{name}: native vs DPU");
    }
    // Gathering computes less and moves more: on one core, where compute
    // is the stage, seven of the 33 scans gather that stream on 32 (two
    // more since codes and dates are stored narrow: a gather pass moves
    // fewer bytes; five fewer since the probe scans of Q5's and Q9's
    // lineitem, Q12's orders and Q18's lineitem and orders gather on 32
    // too, testing their join filter in a key pass; one fewer, and none on
    // eight, since Q18's customer probe, which gathered for the same key
    // pass on one and eight, is dealt over all 32 lanes and gathers there
    // too — `budget::Deal`). The lineitem scans of Q1
    // and Q3 gathered there while the stream path compacted every projected
    // column of the rows it kept, and stream now that the operators above
    // read them through the selection vector.
    // The merges are the stages it does not derive: one core folds what the
    // lanes of the stage before left.
    let merges = ["groupby.merge", "sort.merge", "topk.merge"];
    assert_eq!(underived, merges.map(String::from).into());
    assert_eq!(broadcast, BROADCAST);
    // Every broadcast task but Q5's one-tile supplier probe has fewer lanes
    // on fewer cores: seven joins whose per-lane build was subtracted. Q18's
    // customer probe streamed on 32 cores and was compared on its rows
    // alone until its rows were dealt over all 32 (`budget::Deal`): it
    // gathers and tests its filter in a key pass on 8 and 32 cores alike.
    assert_eq!(builds_subtracted, 7);
    // The one filtered partitioned probe task (Q3's node 4), compared on 1
    // and on 8 cores: a filter read a lane — Q3's node 3, Q5's node 11 and
    // Q10's node 4 run over key ranges, a filter built a range, whatever
    // the cores. And five filtered broadcast ones (Q9's node 10, Q12's
    // node 3 and Q18's nodes 2, 3 and 4 — Q5's node 5 is one tile; Q18's
    // node 2 kept its path since its rows are dealt over every core),
    // beside their build: a filter set a lane.
    assert_eq!((filters_subtracted, filters_set), (2, 10));
    let gathers_on = |cores| other_path.iter().filter(|&&c| c == cores).count();
    // Two on eight since a scan a one-sided join reads by range decides its
    // path for the lanes its ranges are dealt to, not a partition round's.
    assert_eq!((gathers_on(1), gathers_on(8)), (7, 2), "{other_path:?}");
    // 33 scans, 30 tasks: Q4's, Q5's and Q10's order-key joins read both
    // their scans in one stage of key ranges, and Q18's inner group-by its
    // one. All but three end with the first stage of their consumer, which
    // in 32 KiB fits every time: the three are the build sides of broadcast
    // joins (Q9's part, Q10's nation, Q12's lineitem), whose consumer has
    // no stage over them. Eleven ranged since Q3's lineitem, Q5's region,
    // Q9's nation, partsupp and orders, and Q14's and Q19's part joins read
    // one input by range and partition the other.
    assert_eq!((tasks, fused_tasks, ranged), (30, 27, 11));
    // Sixteen end bound by the DMS — every large one but Q1's and Q18's
    // two over lineitem: fewer bytes is the next lever, not more cores. The
    // orders probes of Q3, Q9 and Q12 were DMS-bound too until dates and
    // codes were stored at the width their values need. Broadcast joins
    // took the partition write off Q9's lineitem probe and Q18's orders
    // probe, which stay DMS-bound; Q12's lineitem scan is DMS-bound as a
    // task of its own as it was with its partition round; the one added is
    // Q10's nation scan, 25 rows a task of their own with nothing to
    // compute; and the last, Q3's orders probe partition, since the rows its
    // scan keeps stay behind a selection vector: no longer compacting them
    // took its compute under its DMS time. Seventeen since Q18's probe of
    // lineitem tests its join filter in a key pass: probing 1,889 rows
    // where it probed 119,771 took its compute (65,069 cycles) under its
    // DMS time (23,449). Fourteen since the three order-key joins run
    // over key ranges: their six DMS-bound scan tasks are three DMS-bound
    // stages, each reading both its tables once; Q18's inner group-by over
    // key ranges is bound by its group tables' compute. Fifteen since Q18's
    // customer probe is dealt over 32 lanes: its compute fell under the
    // build-side reads of its lanes.
    assert_eq!(
        dms_bound, 15,
        "tasks whose DMS time is their compute time or more"
    );
    // Rounds on all 32 cores, in tasks and over what joins handed on: the
    // broadcast joins partition nothing, and nor do the ranged joins and
    // group-by. Seventeen since a round's rows are dealt over every core
    // they feed: the rounds over Q3's, Q5's, Q10's, Q14's and Q19's small
    // inputs took 2 to 21 lanes. Twelve since a join that reads one input
    // by range runs no round over it.
    assert_eq!(
        wide_rounds, 12,
        "partition rounds on {CORES} lanes at sf 0.02"
    );
}

#[test]
fn a_task_that_does_not_fit_runs_cut() {
    let (_db, catalog) = tpch_catalog(0.002);
    // Q1 without its sort: scan(lineitem) -> map -> groupby.consume. In the
    // whole scratchpad the three are one task.
    let schemas = catalog
        .iter()
        .map(|(name, t)| {
            let columns = t.schema.fields.iter().map(|f| f.name.clone());
            (name.clone(), columns.collect())
        })
        .collect();
    let sql = "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
               SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, COUNT(*) AS n \
               FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
               GROUP BY l_returnflag, l_linestatus";
    let q1 = hostdb::parse_sql(sql, &schemas).expect("parse");
    let group_by = |plan: &PlanNode| -> PlanNode {
        let mut nodes = Vec::new();
        pre_order(plan, &mut nodes);
        let found = nodes.iter().find(|n| matches!(n, PlanNode::GroupBy { .. }));
        (*found.expect("Q1 aggregates")).clone()
    };
    let whole = rapid::qcomp::compile(&q1, &catalog, &CostParams::default()).expect("Q1");
    let consumer = group_by(&whole.plan);
    let tile = ExecContext::dpu().tile_rows;
    let task_in = |dmem: usize| {
        consumer
            .input_task(0, &catalog, tile, dmem)
            .expect("declared")
    };
    let task = task_in(32 * 1024).expect("one task in 32 KiB");
    let names: Vec<String> = task.decls.iter().map(|d| d.name.to_string()).collect();
    assert_eq!(names, ["scan(lineitem)", "map", "groupby.consume"]);
    // Shrink the scratchpad until scan + map + consume no longer fit at 64
    // rows, the chain and the group table each still do.
    let dmem = (1024..32 * 1024)
        .rev()
        .step_by(64)
        .find(|&dmem| task_in(dmem).is_none())
        .expect("a scratchpad the task does not fit");
    assert!(task_in(dmem + 64).is_some(), "{dmem}");
    let (chain, widths) = task.chain.clone().task(&catalog).expect("the chain");
    let consume = consumer
        .first_stage(0, &widths, dmem)
        .expect("groupby.consume");
    assert!(budget::task_tile(tile, &chain.decls, dmem).is_some());
    assert!(budget::task_tile(tile, std::slice::from_ref(&consume), dmem).is_some());

    // Compiled for the small scratchpad or for 32 KiB, the plan runs cut in
    // the small one: two tasks, and the rows of the whole scratchpad.
    let full = engine(&catalog, ExecContext::dpu());
    let (expect, _) = full.execute(&whole.plan).expect("Q1");
    let sink = MemorySink::new();
    let ctx = ExecContext {
        dmem_bytes: dmem,
        ..ExecContext::dpu().with_trace(sink.clone())
    };
    let small = engine(&catalog, ctx);
    let params = CostParams::from_exec(small.context());
    let cut = rapid::qcomp::compile(&q1, &catalog, &params).expect("Q1 in a small scratchpad");
    for plan in [&cut.plan, &whole.plan] {
        let (out, _) = small.execute(plan).expect("the task runs cut");
        let events = sink.take();
        let ran: Vec<Vec<&str>> = events
            .iter()
            .take(2)
            .map(|e| e.operators().map(|op| op.2).collect())
            .collect();
        assert_eq!(
            ran,
            [vec!["map", "scan(lineitem)"], vec!["groupby.consume"]]
        );
        assert_eq!(out.batch, expect.batch);
    }

    // The verifier reports the same two stages, and no finding.
    let report = rapid_verify::verify(&cut.plan, &catalog, small.context());
    assert!(report.diagnostics.is_empty(), "{report:?}");
    let stages: Vec<(&str, &str)> = report
        .stages
        .iter()
        .take(2)
        .map(|s| (&*s.stage, &*s.operators))
        .collect();
    assert_eq!(
        stages,
        [("map", "scan(lineitem) -> map"), ("groupby.consume", "")]
    );
}

#[test]
fn a_pair_table_holds_no_more_dmem_than_its_stage_declares() {
    // `join.pairs` declares half of DMEM for the partition pair's table
    // (EXPLAIN VERIFY's state): a pair lane's table holds no more, whatever
    // its build rows, and the rest overflow to DRAM.
    let params = CostParams::default();
    let declared = params.ctx.dmem_bytes as u64 / 2;
    let mut pairs = 0;
    for sf in [0.01, 0.02, 0.05] {
        let (_, catalog) = tpch_catalog(sf);
        let sink = MemorySink::new();
        let dpu = engine(&catalog, ExecContext::dpu().with_trace(sink.clone()));
        for (name, plan) in tpch::queries::all() {
            let compiled = rapid::qcomp::compile(&plan, &catalog, &params)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            dpu.execute(&compiled.plan).expect("dpu");
            for e in sink.take().iter().filter(|e| e.operator == "join.pairs") {
                pairs += 1;
                assert!(
                    e.dmem_peak_bytes <= declared,
                    "{name} at sf {sf}: a pair lane held {} B, {declared} B declared",
                    e.dmem_peak_bytes
                );
            }
        }
    }
    assert!(pairs > 0, "the statements run partition pairs");
}
