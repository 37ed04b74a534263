//! Partition passes run on every dpCore: over the eleven TPC-H statements
//! at the benchmark's scale factor, a partition round is a stage of as many
//! lanes as it has tiles (up to the 32 cores), no stage that streams more
//! than a tile on one lane holds a real share of a query, and the lane
//! count changes the clock only — the rows, the bytes the DMS moves and the
//! instructions retired are those of one core streaming the input alone.
//!
//! A pass runs the rounds its plan node declares, joins and group-bys alike.
//!
//! And a pass is budgeted from the widths its columns are encoded in: every
//! pass of the eleven statements is a single round, a lane holds in DMEM
//! exactly the working set the verifier derives for its stage, and against
//! the figures recorded from the commit that budgeted from declared widths
//! no statement takes more cycles or moves more bytes.

use std::sync::Arc;

use hostdb::db::decode_batch;
use hostdb::HostDb;
use rapid::qcomp::cost::CostParams;
use rapid::qef::engine::{Engine, QueryReport};
use rapid::qef::exec::ExecContext;
use rapid::qef::plan::{GroupStrategy, PlanNode};
use rapid::qef::trace::{MemorySink, StageEvent};
use rapid_fuzz::canonical;

const CORES: usize = 32;

/// `(statement, simulated cycles, DMS bytes)` at sf 0.02 on 32 cores when
/// partition passes were budgeted from declared widths: `rapid-report trace
/// --sf 0.02` at commit da0c5d9, cycles rounded up. Seventeen of its 65
/// partition stages were second rounds.
const DECLARED_WIDTHS: [(&str, f64, u64); 11] = [
    ("Q1", 571_555.0, 2_515_968),
    ("Q3", 372_151.0, 2_353_104),
    ("Q4", 206_477.0, 1_443_768),
    ("Q5", 495_721.0, 3_045_911),
    ("Q6", 42_098.0, 315_400),
    ("Q9", 1_198_535.0, 8_361_492),
    ("Q10", 253_608.0, 1_603_008),
    ("Q12", 152_447.0, 1_152_964),
    ("Q14", 75_102.0, 603_292),
    ("Q18", 530_521.0, 2_639_832),
    ("Q19", 133_007.0, 922_112),
];

fn is_partition_stage(e: &StageEvent) -> bool {
    matches!(
        e.operator.as_str(),
        "join.partition-build" | "join.partition-probe" | "groupby.partition"
    )
}

/// The scheme `node` declares for its partition passes, if it has any.
fn declared_scheme(node: &PlanNode) -> Option<&[usize]> {
    match node {
        PlanNode::HashJoin { scheme, .. } => Some(scheme),
        PlanNode::GroupBy {
            strategy: GroupStrategy::Partitioned(scheme),
            ..
        } => Some(scheme),
        _ => None,
    }
}

/// Nodes of `plan` in the pre-order the tracer numbers them in.
fn pre_order<'a>(plan: &'a PlanNode, out: &mut Vec<&'a PlanNode>) {
    out.push(plan);
    plan.inputs().for_each(|child| pre_order(child, out));
}

#[test]
fn partition_stages_run_the_rounds_their_plan_node_declares() {
    // The plan says what runs: every partition stage of the eleven
    // statements is a round of the scheme its join or group-by node
    // carries — nothing between compiler and lanes chooses a fan-out.
    for sf in [0.01, 0.02] {
        let data = tpch::generate(&tpch::TpchConfig::sf(sf));
        let db = HostDb::new(ExecContext::dpu());
        for t in data.tables() {
            db.import_table(t).expect("load");
        }
        let catalog = db.rapid().read().catalog().clone();
        let sink = MemorySink::new();
        let mut engine = Engine::new(ExecContext::dpu().with_trace(sink.clone()));
        for t in catalog.values() {
            engine.load_table(Arc::clone(t));
        }
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
                let Some(scheme) = declared_scheme(node) else {
                    assert_eq!(ran, [], "{name} node {id} declares no pass");
                    continue;
                };
                // A pass of more than a tile is a stage a round; an input of
                // one tile or less runs the whole scheme as one item.
                let by_round: Vec<_> = (1..)
                    .zip(scheme)
                    .map(|(round, &fanout)| (round, scheme.len() as u32, fanout as u32))
                    .collect();
                let at_once = [(1, 1, scheme.iter().product::<usize>() as u32)];
                let passes = if matches!(node, PlanNode::HashJoin { .. }) {
                    2
                } else {
                    1
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

#[test]
fn partition_stages_use_every_core_and_change_only_the_clock() {
    let data = tpch::generate(&tpch::TpchConfig::sf(0.02));
    let db = HostDb::new(ExecContext::dpu());
    for t in data.tables() {
        db.import_table(t).expect("load");
    }
    let catalog = db.rapid().read().catalog().clone();
    let engine = |ctx: ExecContext| {
        let mut engine = Engine::new(ctx);
        for t in catalog.values() {
            engine.load_table(Arc::clone(t));
        }
        engine
    };
    let sink = MemorySink::new();
    let dpu = engine(ExecContext::dpu().with_trace(sink.clone()));
    let one_core_sink = MemorySink::new();
    let one_core = engine(
        ExecContext::dpu()
            .with_cores(1)
            .with_trace(one_core_sink.clone()),
    );
    let native = engine(ExecContext::native(4));
    assert_eq!(dpu.context().cores, CORES);

    let params = CostParams::default();
    let (mut wide_rounds, mut a_tenth_fewer) = (0, Vec::new());
    for (name, plan) in tpch::queries::all() {
        let compiled = rapid::qcomp::compile(&plan, &catalog, &params)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let run = |engine: &Engine| -> (Vec<Vec<String>>, QueryReport) {
            let (out, report) = engine.execute(&compiled.plan).expect("execute");
            let rows = decode_batch(&out.batch, &out.meta, engine.catalog());
            (canonical(&rows), report)
        };
        let (rows, report) = run(&dpu);
        let events = sink.take();
        assert_eq!(events.len(), report.stages, "{name}: an event per stage");

        let &(_, cycles, bytes) = DECLARED_WIDTHS
            .iter()
            .find(|(q, ..)| *q == name)
            .unwrap_or_else(|| panic!("{name}: no figure recorded"));
        assert!(
            report.sim_cycles <= cycles,
            "{name}: {} cycles, {cycles} at declared widths",
            report.sim_cycles
        );
        assert!(
            report.dms_bytes <= bytes,
            "{name}: {} DMS bytes, {bytes} at declared widths",
            report.dms_bytes
        );
        if report.dms_bytes * 10 <= bytes * 9 {
            a_tenth_fewer.push(name);
        }

        let verified = rapid_verify::verify(
            &compiled.plan,
            &catalog,
            &rapid::qcomp::verify_config(&params),
        );
        for e in events.iter().filter(|e| is_partition_stage(e)) {
            // At the widths the columns are encoded in every pass fits its
            // partitions into one round, at the configured tile.
            let round = e.partition.map(|p| (p.round, p.rounds));
            assert_eq!(round, Some((1, 1)), "{name} {}: {e:?}", e.operator);
            // What a lane reserved is what the verifier derives: the
            // `ws-bytes` of EXPLAIN VERIFY is the stage's `dmem_peak`.
            let stage = verified
                .stages
                .iter()
                .find(|s| s.node_id == e.node_id as usize && s.stage == e.operator)
                .unwrap_or_else(|| panic!("{name}: no {} stage verified", e.operator));
            assert_eq!(stage.effective_tile, Some(params.tile_rows), "{name}");
            assert_eq!(
                e.dmem_peak_bytes, stage.working_set_bytes as u64,
                "{name} {}",
                e.operator
            );
            // A round's tiles are dealt to min(cores, tiles) lanes; only an
            // input of one tile or less runs its rounds as one item.
            if e.tiles >= CORES as u64 {
                assert_eq!(e.parallelism, CORES, "{name} {}: {e:?}", e.operator);
                wide_rounds += 1;
            }
            assert!(
                e.dmem_peak_bytes > rapid::qef::budget::BASE_STATE_BYTES as u64,
                "{name} {}: lanes hold their tile buffers in DMEM",
                e.operator
            );
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

        // One core: the same rows, and in every round of every pass — the
        // scheme is the plan's, for a group-by as for a join — the same
        // tiles, bytes, descriptors and instructions on one lane where
        // there were many. (A scan picks its access path by stage time,
        // which one lane and thirty do not share: the total is of what the
        // other stages move.)
        let (rows_one_core, report_one_core) = run(&one_core);
        let events_one_core = one_core_sink.take();
        assert_eq!(rows_one_core, rows, "{name}: 1 core vs {CORES}");
        let rounds = |events: &[StageEvent]| -> Vec<(u64, u64, u64, u64)> {
            let rounds = events.iter().filter(|e| is_partition_stage(e));
            rounds
                .map(|e| (e.tiles, e.instructions, e.dms_bytes, e.dms_descriptors))
                .collect()
        };
        assert_eq!(rounds(&events_one_core), rounds(&events), "{name}");
        let moved = |events: &[StageEvent]| {
            let past_scans = events.iter().filter(|e| e.scan.is_none());
            past_scans.fold((0, 0), |(bytes, descriptors), e| {
                (bytes + e.dms_bytes, descriptors + e.dms_descriptors)
            })
        };
        assert_eq!(moved(&events_one_core), moved(&events), "{name}");
        assert!(events_one_core.iter().all(|e| e.parallelism == 1));
        assert!(
            report_one_core.sim_cycles >= report.sim_cycles,
            "{name}: more cores are not slower"
        );

        let host = db
            .execute_on_host(&plan)
            .unwrap_or_else(|e| panic!("{name} host: {e}"));
        assert_eq!(canonical(&host.rows), rows, "{name}: Volcano vs DPU");
        assert_eq!(run(&native).0, rows, "{name}: native vs DPU");
    }
    // Q3 2, Q4 1, Q5 2, Q9 6, Q10 1, Q12 1, Q18 3, Q19 1: none of them a
    // second round over rows a first already moved.
    assert_eq!(
        wide_rounds, 17,
        "partition rounds of {CORES} tiles or more at sf 0.02"
    );
    assert_eq!(a_tenth_fewer, ["Q3", "Q5", "Q9", "Q10", "Q18"]);
}
