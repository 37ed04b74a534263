//! The mutation harnesses: corrupt known-good inputs, prove each rule of
//! `rapid_verify::Rule::ALL` fires.
//!
//! A verifier that never rejects anything is indistinguishable from one
//! that checks nothing. This module builds a small demo catalog and a
//! physical plan that verifies **clean** under the default configuration,
//! then provides one mutation per plan invariant class — swap a column
//! reference out of bounds, inflate a fan-out past the DMS buffer limit,
//! shrink DMEM under the working set — each of which must produce a
//! diagnostic carrying its rule id. [`InterferenceMutation`] does the same
//! for the `C-*` schedule rules over a trace a real scheduler recorded,
//! [`base_trace`]. `rapid-report schedcheck --mutations` replays the
//! schedule kill matrix in release; the crate's `mutations` and
//! `schedcheck` tests assert both matrices.

use std::sync::Arc;

use dpu_sim::clock::Cycles;
use rapid_qef::exec::ExecContext;
use rapid_qef::expr::{Expr, Pred};
use rapid_qef::ops::join_filter::MIN_SLICE_BITS;
use rapid_qef::plan::{AggSpec, ByRange, Catalog, GroupStrategy, JoinType, NamedExpr, PlanNode};
use rapid_qef::primitives::agg::AggFunc;
use rapid_qef::primitives::filter::CmpOp;
use rapid_sched::trace::SchedTrace;
use rapid_storage::schema::{Field, Schema};
use rapid_storage::table::TableBuilder;
use rapid_storage::types::{DataType, Value};
use rapid_verify::{Rule, VerifyReport};

/// Two-table demo catalog: a 2000-row fact table (unique `id`, 3-distinct
/// `grp`, decimal `price`, small-domain `qty`, date `d`) and a 100-row
/// dimension (`id`, `name`, decimal `rate`).
pub fn demo_catalog() -> Catalog {
    let fact_schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("grp", DataType::Varchar),
        Field::new("price", DataType::Decimal { scale: 2 }),
        Field::new("qty", DataType::Int),
        Field::new("d", DataType::Date),
    ]);
    let mut fb = TableBuilder::new("t_fact", fact_schema);
    for i in 0..2000i64 {
        fb.push_row(vec![
            Value::Int(i),
            Value::Str(["a", "b", "c"][(i % 3) as usize].into()),
            Value::Decimal {
                unscaled: 100 + i,
                scale: 2,
            },
            Value::Int(i % 7),
            Value::Date(10_000 + (i as i32 % 50)),
        ]);
    }
    let dim_schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("name", DataType::Varchar),
        Field::new("rate", DataType::Decimal { scale: 4 }),
    ]);
    let mut db = TableBuilder::new("t_dim", dim_schema);
    for i in 0..100i64 {
        db.push_row(vec![
            Value::Int(i),
            Value::Str(format!("n{i}")),
            Value::Decimal {
                unscaled: 5000 + i,
                scale: 4,
            },
        ]);
    }
    let mut c = Catalog::new();
    c.insert("t_fact".into(), Arc::new(fb.finish()));
    c.insert("t_dim".into(), Arc::new(db.finish()));
    c
}

/// A plan that verifies clean on the full DPU, [`ExecContext::dpu`]: an
/// aggregation over a mapped join of the demo tables, with an explicit 32-way
/// partition scheme and an on-the-fly group-by on the 3-distinct key.
pub fn base_plan() -> PlanNode {
    let build = PlanNode::Scan {
        table: "t_dim".into(),
        columns: vec![0, 2], // id, rate
        pred: None,
    };
    let probe = PlanNode::Scan {
        table: "t_fact".into(),
        columns: vec![0, 1, 2], // id, grp, price
        pred: Some(Pred::CmpConst {
            col: 3, // qty, streamed but not projected
            op: CmpOp::Gt,
            value: 1,
        }),
    };
    let join = PlanNode::HashJoin {
        build: Box::new(build),
        probe: Box::new(probe),
        build_keys: vec![0],
        probe_keys: vec![0],
        join_type: JoinType::Inner,
        scheme: vec![32],
        filter: None,
        ranged: ByRange::Neither,
        output: (0..5).collect(),
    };
    // Join output: [fact.id Int, grp Varchar, price Dec(2), dim.id Int,
    // rate Dec(4)].
    let map = PlanNode::Map {
        input: Box::new(join),
        exprs: vec![
            NamedExpr {
                expr: Expr::Col(0),
                name: "id".into(),
                dtype: DataType::Int,
                scale: 0,
                dict: None,
            },
            NamedExpr {
                expr: Expr::Col(1),
                name: "grp".into(),
                dtype: DataType::Varchar,
                scale: 0,
                dict: Some(("t_fact".into(), 1)),
            },
            NamedExpr {
                expr: Expr::mul(Expr::Col(2), Expr::Col(4)),
                name: "revenue".into(),
                dtype: DataType::Decimal { scale: 6 },
                scale: 6,
                dict: None,
            },
        ],
    };
    PlanNode::GroupBy {
        input: Box::new(map),
        keys: vec![1],
        aggs: vec![AggSpec {
            func: AggFunc::Sum,
            col: 2,
        }],
        strategy: GroupStrategy::OnTheFly { slots: None },
    }
}

/// What a mutation produced: the corrupted input to re-verify.
#[derive(Debug, Clone)]
pub enum Mutated {
    /// A corrupted physical plan (verify with [`rapid_verify::verify`]).
    Plan(PlanNode),
    /// A corrupted execution context (verify the base plan under it).
    Config(ExecContext),
}

impl Mutated {
    /// Verify what the mutation produced against `catalog`.
    pub fn verify(&self, catalog: &Catalog) -> VerifyReport {
        match self {
            Mutated::Plan(p) => rapid_verify::verify(p, catalog, &ExecContext::dpu()),
            Mutated::Config(ctx) => rapid_verify::verify(&base_plan(), catalog, ctx),
        }
    }
}

/// One mutation class per verifier rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Group-by key swapped to a column the input does not produce.
    SwapColumnRef,
    /// Probe key list emptied.
    BreakJoinArity,
    /// Build key re-pointed at a decimal, probing with an integer.
    MismatchJoinKeyTypes,
    /// Scan re-pointed at a table that is not in the catalog.
    CorruptSchema,
    /// Partition round fan-out set to 24 (not a power of two).
    NonPow2Fanout,
    /// Three 1024-way rounds: 30 hash bits against a 28-bit budget.
    ExcessHashBits,
    /// Single 256-way round: past the local-buffer fan-out limit.
    OverFanout,
    /// Single 2-way round: fewer partitions than cores (warning).
    StarveCores,
    /// Group-by partitioned in one 128-way round: past the local-buffer
    /// limit of its 11-byte input rows, within that of the join's 5.
    GroupByOverFanout,
    /// Group-by partitioned in one 48-way round (not a power of two).
    GroupByNonPow2Fanout,
    /// DMEM shrunk to 1 KiB under the same plan.
    InflatePastDmem,
    /// Tile configured below the 64-row minimum vector.
    TileBelowMin,
    /// On-the-fly group-by re-keyed to the 2000-distinct column.
    OnTheFlyOverLimit,
    /// A join filter on an anti join, which keeps the probe rows that match
    /// nothing.
    FilterAntiJoin,
    /// The same on a broadcast anti join: its one slice does not make it
    /// one that may drop a probe row.
    FilterBroadcastAntiJoin,
    /// The demo group-by cut into key ranges: its input is a join, whose
    /// rows lie in no table's slots.
    RangedOverAJoin,
    /// The demo join re-keyed on the fact table's `qty`, which its slots
    /// do not hold in order, beside the dimension's `id`, which they do: a
    /// join that reads the dimension by range and partitions the facts by
    /// value bits, marked as reading the facts by range too.
    RangedUnclusteredSide,
}

impl Mutation {
    /// Every mutation class: one per rule, and the two fan-out rules once
    /// more over a partitioned group-by.
    pub fn all() -> Vec<Mutation> {
        use Mutation::*;
        vec![
            SwapColumnRef,
            BreakJoinArity,
            MismatchJoinKeyTypes,
            CorruptSchema,
            NonPow2Fanout,
            ExcessHashBits,
            OverFanout,
            StarveCores,
            GroupByOverFanout,
            GroupByNonPow2Fanout,
            InflatePastDmem,
            TileBelowMin,
            OnTheFlyOverLimit,
            FilterAntiJoin,
            FilterBroadcastAntiJoin,
            RangedOverAJoin,
            RangedUnclusteredSide,
        ]
    }

    /// The rule this mutation must trigger.
    pub fn expected_rule(self) -> Rule {
        match self {
            Mutation::SwapColumnRef => Rule::ColBounds,
            Mutation::BreakJoinArity => Rule::JoinArity,
            Mutation::MismatchJoinKeyTypes => Rule::TypeMismatch,
            Mutation::CorruptSchema => Rule::Schema,
            Mutation::NonPow2Fanout => Rule::FanoutPow2,
            Mutation::ExcessHashBits => Rule::HashBits,
            Mutation::OverFanout => Rule::FanoutBuffer,
            Mutation::StarveCores => Rule::SchemeCores,
            Mutation::GroupByOverFanout => Rule::FanoutBuffer,
            Mutation::GroupByNonPow2Fanout => Rule::FanoutPow2,
            Mutation::InflatePastDmem => Rule::DmemFit,
            Mutation::TileBelowMin => Rule::TileMin,
            Mutation::OnTheFlyOverLimit => Rule::GroupLimit,
            Mutation::FilterAntiJoin | Mutation::FilterBroadcastAntiJoin => Rule::JoinFilter,
            Mutation::RangedOverAJoin | Mutation::RangedUnclusteredSide => Rule::Ranged,
        }
    }

    /// Apply the mutation to the known-good plan or configuration.
    pub fn apply(self) -> Mutated {
        match self {
            Mutation::SwapColumnRef => Mutated::Plan(plan_mut(|p| {
                if let PlanNode::GroupBy { keys, .. } = p {
                    *keys = vec![7];
                }
            })),
            Mutation::BreakJoinArity => Mutated::Plan(plan_mut(|p| {
                if let PlanNode::HashJoin { probe_keys, .. } = demo_join(p) {
                    probe_keys.clear();
                }
            })),
            Mutation::MismatchJoinKeyTypes => Mutated::Plan(plan_mut(|p| {
                if let PlanNode::HashJoin { build_keys, .. } = demo_join(p) {
                    *build_keys = vec![1]; // rate: Decimal(4) vs Int probe key
                }
            })),
            Mutation::CorruptSchema => Mutated::Plan(plan_mut(|p| {
                if let PlanNode::HashJoin { probe, .. } = demo_join(p) {
                    if let PlanNode::Scan { table, .. } = probe.as_mut() {
                        *table = "ghost".into();
                    }
                }
            })),
            Mutation::NonPow2Fanout => Mutated::Plan(set_scheme(vec![24])),
            Mutation::ExcessHashBits => Mutated::Plan(set_scheme(vec![1024, 1024, 1024])),
            Mutation::OverFanout => Mutated::Plan(set_scheme(vec![256])),
            Mutation::StarveCores => Mutated::Plan(set_scheme(vec![2])),
            Mutation::GroupByOverFanout => Mutated::Plan(partition_groupby(vec![128])),
            Mutation::GroupByNonPow2Fanout => Mutated::Plan(partition_groupby(vec![48])),
            Mutation::InflatePastDmem => Mutated::Config(ExecContext {
                dmem_bytes: 1024,
                ..ExecContext::dpu()
            }),
            Mutation::TileBelowMin => Mutated::Config(ExecContext::dpu().with_tile_rows(16)),
            Mutation::OnTheFlyOverLimit => Mutated::Plan(plan_mut(|p| {
                if let PlanNode::GroupBy { keys, .. } = p {
                    *keys = vec![0]; // fact.id: 2000 distinct values
                }
            })),
            Mutation::FilterAntiJoin => {
                Mutated::Plan(filtered_join(JoinType::LeftAnti, Some(FILTER_BITS)))
            }
            Mutation::FilterBroadcastAntiJoin => {
                let mut plan = filtered_join(JoinType::LeftAnti, Some(MIN_SLICE_BITS));
                if let PlanNode::GroupBy { input, .. } = &mut plan {
                    if let PlanNode::HashJoin { scheme, .. } = input.as_mut() {
                        scheme.clear();
                    }
                }
                Mutated::Plan(plan)
            }
            Mutation::RangedOverAJoin => Mutated::Plan(plan_mut(|p| {
                if let PlanNode::GroupBy { strategy, .. } = p {
                    *strategy = GroupStrategy::Ranged(vec![32]);
                }
            })),
            Mutation::RangedUnclusteredSide => Mutated::Plan(plan_mut(|p| {
                if let PlanNode::HashJoin { probe, ranged, .. } = demo_join(p) {
                    if let PlanNode::Scan { columns, .. } = probe.as_mut() {
                        columns[0] = 3; // qty, in place of id
                    }
                    *ranged = ByRange::Both;
                }
            })),
        }
    }
}

fn plan_mut(f: impl FnOnce(&mut PlanNode)) -> PlanNode {
    let mut p = base_plan();
    f(&mut p);
    p
}

/// Descend to the demo plan's join node.
fn demo_join(p: &mut PlanNode) -> &mut PlanNode {
    let PlanNode::GroupBy { input, .. } = p else {
        panic!("demo plan shape changed: expected GroupBy root");
    };
    let PlanNode::Map { input, .. } = input.as_mut() else {
        panic!("demo plan shape changed: expected Map under GroupBy");
    };
    input.as_mut()
}

/// The demo plan with `s` as its join's scheme.
pub fn set_scheme(s: Vec<usize>) -> PlanNode {
    plan_mut(|p| {
        if let PlanNode::HashJoin { scheme, .. } = demo_join(p) {
            *scheme = s;
        }
    })
}

/// A join filter of a word for each of the demo join's 32 partitions.
pub const FILTER_BITS: usize = 32 * 64;

/// The fact rows of each `grp` that a `join_type` join of the demo tables on
/// `id` keeps, counted — a join whose output is its probe side's columns
/// or more whatever its type — partitioned 32 ways, with a join filter of
/// `filter` bits.
pub fn filtered_join(join_type: JoinType, filter: Option<usize>) -> PlanNode {
    let PlanNode::GroupBy { input, .. } = base_plan() else {
        panic!("demo plan shape changed: expected GroupBy root");
    };
    let PlanNode::Map { input: join, .. } = *input else {
        panic!("demo plan shape changed: expected Map under GroupBy");
    };
    let PlanNode::HashJoin {
        build,
        probe,
        build_keys,
        probe_keys,
        scheme,
        ..
    } = *join
    else {
        panic!("demo plan shape changed: expected HashJoin under Map");
    };
    PlanNode::GroupBy {
        input: Box::new(PlanNode::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            join_type,
            scheme,
            filter,
            ranged: ByRange::Neither,
            // The probe side's columns, which every join type writes.
            output: (0..3).collect(),
        }),
        keys: vec![1],
        aggs: vec![AggSpec {
            func: AggFunc::Count,
            col: 0,
        }],
        strategy: GroupStrategy::OnTheFly { slots: None },
    }
}

/// The demo plan with its group-by partitioned through `scheme` first.
pub fn partition_groupby(scheme: Vec<usize>) -> PlanNode {
    plan_mut(|p| {
        if let PlanNode::GroupBy { strategy, .. } = p {
            *strategy = GroupStrategy::Partitioned(scheme);
        }
    })
}

// ---------------------------------------------------------------------------
// Mutation harness: one injected interference bug per C-* rule class.
// ---------------------------------------------------------------------------

/// A corrupted schedule trace and the rule it must trip.
#[derive(Debug)]
pub struct MutatedTrace {
    /// Human-readable mutation name.
    pub name: &'static str,
    /// The corrupted trace.
    pub trace: SchedTrace,
    /// The rule the mutation must trip.
    pub expected: Rule,
}

/// Every interference-bug class the mutation harness can inject, one per
/// `C-*` rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterferenceMutation {
    /// Admission edge and core order contradict: the graph has a cycle.
    InjectHbCycle,
    /// A placement's DMS window shifted into its predecessor's.
    OverlapDms,
    /// A placement moved onto a core another stage still holds.
    DoubleBookCore,
    /// A placement's lane count inflated past the physical cores.
    OvercommitDmem,
    /// A placement's DMEM peak inflated past the scratchpad.
    ExceedQueryBudget,
    /// A stage dispatched before its predecessor completed.
    EarlyPlace,
}

impl InterferenceMutation {
    /// All mutation classes.
    pub fn all() -> Vec<InterferenceMutation> {
        vec![
            InterferenceMutation::InjectHbCycle,
            InterferenceMutation::OverlapDms,
            InterferenceMutation::DoubleBookCore,
            InterferenceMutation::OvercommitDmem,
            InterferenceMutation::ExceedQueryBudget,
            InterferenceMutation::EarlyPlace,
        ]
    }

    /// The rule the mutation must trip.
    pub fn expected_rule(&self) -> Rule {
        match self {
            InterferenceMutation::InjectHbCycle => Rule::HbCycle,
            InterferenceMutation::OverlapDms => Rule::DmsExcl,
            InterferenceMutation::DoubleBookCore => Rule::CoreExcl,
            InterferenceMutation::OvercommitDmem => Rule::DmemCap,
            InterferenceMutation::ExceedQueryBudget => Rule::QueryBudget,
            InterferenceMutation::EarlyPlace => Rule::LostWakeup,
        }
    }

    /// Apply the mutation to a fresh [`base_trace`].
    pub fn apply(&self) -> MutatedTrace {
        let mut trace = base_trace();
        // Base layout (see `base_trace`): record 0 = q0 stage 0 (compute,
        // cores {0,1}, [0, 1000)), record 1 = q0 stage 1 (DMS, core 2,
        // [1000, 1200)), record 2 = q1 stage 0 (compute+DMS, cores {3,4},
        // from 1000), record 3 = q2 stage 0 (compute, admitted after q0
        // finished).
        let name = match self {
            InterferenceMutation::InjectHbCycle => {
                // q2 was admitted after q0 finished (admission edge
                // q0.last -> q2.first), but its record claims it ran on
                // q0's DMS core *earlier in time* (core edge q2 -> q0.s1):
                // a 2-cycle with no interval overlap anywhere.
                let core = trace.placements[1].core_mask;
                let r = &mut trace.placements[3];
                r.core_mask = core;
                r.lanes = 1;
                r.ready = Cycles(100.0);
                r.start = Cycles(100.0);
                r.end = Cycles(400.0);
                "inject-hb-cycle: admission edge vs core time order"
            }
            InterferenceMutation::OverlapDms => {
                // Slide q1's DMS window into q0 stage 1's [1000, 1200).
                let r = &mut trace.placements[2];
                r.dms_start = Cycles(1100.0);
                r.dms_end = Cycles(1200.0);
                "overlap-dms: two transfer windows on the single engine"
            }
            InterferenceMutation::DoubleBookCore => {
                // Put q1 stage 0 on q0 stage 1's core while both run.
                let core = trace.placements[1].core_mask;
                let r = &mut trace.placements[2];
                r.core_mask = core;
                r.lanes = 1;
                "double-book-core: two stages hold one core at once"
            }
            InterferenceMutation::OvercommitDmem => {
                // A scheduler bug granted more lanes than the DPU has:
                // the aggregate footprint check catches it even though no
                // two records overlap on any core.
                let r = &mut trace.placements[0];
                r.lanes = 200;
                "overcommit-dmem: lane grant exceeds physical cores"
            }
            InterferenceMutation::ExceedQueryBudget => {
                let r = &mut trace.placements[3];
                r.dmem_peak = 40_000;
                "exceed-query-budget: stage peak above the 32 KiB scratchpad"
            }
            InterferenceMutation::EarlyPlace => {
                // q0 stage 1 dispatched at 500, before stage 0's barrier
                // at 1000 — the lost-wakeup shape. Its core and DMS
                // windows move with it, overlapping nothing.
                let r = &mut trace.placements[1];
                r.ready = Cycles(500.0);
                r.start = Cycles(500.0);
                r.end = Cycles(700.0);
                r.dms_start = Cycles(500.0);
                r.dms_end = Cycles(700.0);
                "early-place: stage dispatched before its predecessor's barrier"
            }
        };
        MutatedTrace {
            name,
            trace,
            expected: self.expected_rule(),
        }
    }
}

/// A small known-good trace, produced by driving a real scheduler (not
/// hand-built), so the mutations corrupt exactly what production runs
/// record.
pub fn base_trace() -> SchedTrace {
    use dpu_sim::account::CycleAccount;
    use rapid_qef::exec::{StageProfile, StageRouter};
    use rapid_sched::{SchedConfig, Scheduler};

    fn compute(cycles: f64) -> CycleAccount {
        let mut a = CycleAccount::new();
        a.charge_compute(Cycles(cycles));
        a
    }
    fn dms(cycles: f64) -> CycleAccount {
        let mut a = CycleAccount::new();
        a.charge_dms(Cycles(cycles), 1024, 1);
        a
    }
    fn profile(qid: u64, lanes: Vec<CycleAccount>, peak: u64) -> StageProfile {
        StageProfile {
            query_id: qid,
            lanes,
            dmem_peak: peak,
        }
    }

    // One thread places every stage, so it asks in the scheduler's own
    // order: the admitted query with the smallest (ready, id) first. q1
    // arrives at 1000, where q0's second stage becomes ready.
    let sched = Arc::new(Scheduler::new(SchedConfig {
        max_active: 2,
        queue_capacity: 4,
        ..SchedConfig::default()
    }));
    let q0 = sched.submit(0, None).expect("queue has room");
    let q1 = sched
        .submit_at(0, None, Some(Cycles(1000.0)))
        .expect("queue has room");
    let q2 = sched.submit(0, None).expect("queue has room");
    sched
        .route_stage(&profile(
            q0.id(),
            vec![compute(1000.0), compute(900.0)],
            8192,
        ))
        .expect("place q0 stage 0");
    sched
        .route_stage(&profile(q0.id(), vec![dms(200.0)], 4096))
        .expect("place q0 stage 1");
    q0.finish(); // admits q2 at q0's completion instant
    sched
        .route_stage(&profile(q1.id(), vec![compute(500.0), dms(100.0)], 8192))
        .expect("place q1 stage 0");
    q1.finish();
    q2.await_admission().expect("q2 admitted");
    sched
        .route_stage(&profile(q2.id(), vec![compute(300.0)], 2048))
        .expect("place q2 stage 0");
    q2.finish();
    sched.schedule_trace()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_plan_verifies_clean() {
        let report = rapid_verify::verify(&base_plan(), &demo_catalog(), &ExecContext::dpu());
        assert!(
            report.diagnostics.is_empty(),
            "base plan must be clean: {:?}",
            report.diagnostics
        );
        assert!(report.ok());
        // The plan's stage list: each join side a task of its scan and
        // round one of its pass, the pair joins, the map, the group table
        // and its merge.
        let stages: Vec<_> = report
            .stages
            .iter()
            .map(|s| (&*s.stage, &*s.operators))
            .collect();
        assert_eq!(
            stages,
            [
                (
                    "join.partition-build",
                    "scan(t_dim) -> join.partition-build"
                ),
                (
                    "join.partition-probe",
                    "scan(t_fact) -> join.partition-probe"
                ),
                ("join.pairs", ""),
                ("map", ""),
                ("groupby.consume", ""),
                ("groupby.merge", ""),
            ]
        );
    }

    #[test]
    fn every_rule_has_a_mutation() {
        use std::collections::HashSet;
        // The group-by's two are the join's rules over another node, the
        // broadcast anti join's filter the partitioned one's rule over a
        // join of no rounds, and a join's unclustered side read by range
        // the ranged group-by's rule over a join's input.
        let (once_more, of_rule): (Vec<Mutation>, Vec<Mutation>) =
            Mutation::all().into_iter().partition(|m| {
                matches!(
                    m,
                    Mutation::GroupByOverFanout
                        | Mutation::GroupByNonPow2Fanout
                        | Mutation::FilterBroadcastAntiJoin
                        | Mutation::RangedUnclusteredSide
                )
            });
        let covered: HashSet<&str> = of_rule.iter().map(|m| m.expected_rule().id()).collect();
        assert_eq!(covered.len(), of_rule.len(), "one rule per mutation");
        assert_eq!(once_more.len(), 4);
        assert!(once_more
            .iter()
            .all(|m| covered.contains(m.expected_rule().id())));
    }
}
