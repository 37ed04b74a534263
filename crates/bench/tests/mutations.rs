//! The mutation harness contract: every rule has a mutation, every mutation
//! is rejected with its rule id, and the un-mutated plan verifies clean.

use rapid_qef::exec::ExecContext;
use rapid_report::mutate::{base_plan, demo_catalog, InterferenceMutation, Mutated, Mutation};
use rapid_verify::diag::Severity;
use rapid_verify::{check, verify, Rule};

#[test]
fn every_rule_is_the_expected_rule_of_a_mutation() {
    let plan = Mutation::all().into_iter().map(Mutation::expected_rule);
    let schedule = InterferenceMutation::all().into_iter();
    let killed: Vec<Rule> = plan.chain(schedule.map(|m| m.expected_rule())).collect();
    for rule in Rule::ALL {
        assert!(killed.contains(&rule), "no mutation trips {}", rule.id());
    }
}

#[test]
fn base_artifacts_are_clean() {
    let cat = demo_catalog();
    let report = verify(&base_plan(), &cat, &ExecContext::dpu());
    assert!(
        report.diagnostics.is_empty(),
        "un-mutated plan must verify clean: {}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[test]
fn every_mutation_class_is_rejected_with_its_rule_id() {
    let cat = demo_catalog();
    for m in Mutation::all() {
        let expected = m.expected_rule();
        let report = m.apply().verify(&cat);
        let hit: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == expected)
            .collect();
        assert!(
            !hit.is_empty(),
            "{m:?} must trigger {} but produced: [{}]",
            expected.id(),
            report
                .diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
        match expected.severity() {
            Severity::Error => assert!(
                !report.ok(),
                "{m:?} produced only warnings; an {} violation must fail verification",
                expected.id()
            ),
            Severity::Warning => assert!(
                report.ok(),
                "{m:?} should warn, not fail: {}",
                report.error_summary()
            ),
        }
    }
}

#[test]
fn diagnostics_are_human_readable_and_located() {
    let cat = demo_catalog();
    for m in Mutation::all() {
        let report = m.apply().verify(&cat);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == m.expected_rule())
            .unwrap_or_else(|| panic!("{m:?} produced no {} diagnostic", m.expected_rule().id()));
        let text = d.to_string();
        assert!(text.contains(d.rule.id()), "{m:?}: {text}");
        assert!(text.contains("node "), "{m:?}: {text}");
        assert!(!d.path.is_empty(), "{m:?}: empty operator path");
        assert!(!d.message.is_empty(), "{m:?}: empty message");
    }
}

#[test]
fn mutation_diagnostics_are_distinct_per_class() {
    // Two different mutations of the same artifact must not be
    // indistinguishable: the (rule id, message) pair differs per class.
    let cat = demo_catalog();
    let mut seen = std::collections::HashSet::new();
    for m in Mutation::all() {
        let report = m.apply().verify(&cat);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == m.expected_rule())
            .expect("checked by the rejection test");
        assert!(
            seen.insert(format!("{} {}", d.rule.id(), d.message)),
            "{m:?} duplicates another class's diagnostic"
        );
    }
}

#[test]
fn over_fanout_is_killed_at_the_encoded_row_width() {
    // R-FANOUT-BUFFER budgets the local buffers from the widths the join's
    // inputs arrive in. The demo probe row is id (2 bytes as stored), grp
    // (a 1-byte code: three strings) and price (2): 5 bytes where 20 are
    // declared, so 128 sixteen-row buffers fit half of DMEM — and 256 still
    // do not.
    use rapid_qef::plan::PlanNode;
    use rapid_verify::diag::Rule;
    let cat = demo_catalog();
    let with_scheme = |fanout: usize| {
        let mut plan = base_plan();
        let PlanNode::GroupBy { input, .. } = &mut plan else {
            panic!("demo plan shape changed")
        };
        let PlanNode::Map { input, .. } = input.as_mut() else {
            panic!("demo plan shape changed")
        };
        let PlanNode::HashJoin { scheme, probe, .. } = input.as_mut() else {
            panic!("demo plan shape changed")
        };
        assert_eq!(probe.output_widths(&cat).unwrap(), [2, 1, 2]);
        *scheme = vec![fanout];
        plan
    };
    let buffer_findings = |plan: &PlanNode| -> Vec<String> {
        let report = verify(plan, &cat, &ExecContext::dpu());
        let hits = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::FanoutBuffer);
        hits.map(|d| d.message.clone()).collect()
    };
    assert!(buffer_findings(&with_scheme(128)).is_empty());
    let Mutated::Plan(over) = Mutation::OverFanout.apply() else {
        panic!("OverFanout mutates the plan")
    };
    assert_eq!(over, with_scheme(256));
    let findings = buffer_findings(&over);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].contains("256 exceeds the 128-way local-buffer limit for 5-byte rows"),
        "{findings:?}"
    );
}

#[test]
fn a_partitioned_group_by_is_checked_like_a_join_pass() {
    // The group-by's input is the Map's output: id as stored (2 bytes), the
    // 1-byte grp code and the 8-byte product, 11 bytes a row where the
    // join's sides are 5. Its pass buffers 64 ways, not 128, and the stage
    // table carries the fan-outs it declares.
    use rapid_qef::plan::PlanNode;
    use rapid_report::mutate::partition_groupby;
    use rapid_verify::diag::Rule;
    let cat = demo_catalog();
    let report_of = |plan: &PlanNode| verify(plan, &cat, &ExecContext::dpu());
    for fits in [vec![32], vec![64], vec![8, 4]] {
        let report = report_of(&partition_groupby(fits.clone()));
        assert!(report.diagnostics.is_empty(), "{fits:?}: {report:?}");
        let declared: Vec<_> = report
            .stages
            .iter()
            .filter(|s| s.stage == "groupby.partition")
            .map(|s| (s.fanouts.clone(), s.stream_bytes_per_row))
            .collect();
        assert_eq!(declared, [(fits, 11 + 4)]);
    }
    let Mutated::Plan(over) = Mutation::GroupByOverFanout.apply() else {
        panic!("GroupByOverFanout mutates the plan")
    };
    assert_eq!(over, partition_groupby(vec![128]));
    let report = report_of(&over);
    let findings: Vec<_> = report.errors().map(|d| (d.rule, &d.message)).collect();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].0, Rule::FanoutBuffer);
    assert!(
        findings[0]
            .1
            .contains("128 exceeds the 64-way local-buffer limit for 11-byte rows"),
        "{findings:?}"
    );
    let Mutated::Plan(odd) = Mutation::GroupByNonPow2Fanout.apply() else {
        panic!("GroupByNonPow2Fanout mutates the plan")
    };
    let report = report_of(&odd);
    let rules: Vec<_> = report.errors().map(|d| d.rule).collect();
    assert_eq!(rules, [Rule::FanoutPow2]);
}

#[test]
fn a_join_of_no_rounds_is_broadcast_and_starves_no_core() {
    // A join of no rounds partitions nothing, so A-SCHEME-CORES has no
    // partitions to count: every core holds the whole build side's table.
    // One round of two still leaves thirty cores idle, and warns.
    use rapid_report::mutate::set_scheme;
    let cat = demo_catalog();
    let report = verify(&set_scheme(vec![]), &cat, &ExecContext::dpu());
    assert!(report.diagnostics.is_empty(), "{report:?}");
    let stages: Vec<_> = report.stages.iter().map(|s| &*s.stage).collect();
    assert_eq!(
        stages,
        ["scan(t_dim)", "join.probe", "map", "groupby.consume"]
    );
    let Mutated::Plan(starved) = Mutation::StarveCores.apply() else {
        panic!("StarveCores mutates the plan")
    };
    assert_eq!(starved, set_scheme(vec![2]));
    let report = verify(&starved, &cat, &ExecContext::dpu());
    let rules: Vec<_> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules, [Rule::SchemeCores]);
}

/// A scan-fed chain and its consumer: an on-the-fly group-by of `t_fact`
/// on `grp` over a map that doubles `price`. `grp`'s code is stored in 1
/// byte and `price` in 2; the map writes one 8-byte vector.
fn task_plan() -> rapid_qef::plan::PlanNode {
    use rapid_qef::expr::Expr;
    use rapid_qef::plan::{AggSpec, GroupStrategy, NamedExpr, PlanNode};
    use rapid_qef::primitives::agg::AggFunc;
    use rapid_storage::types::DataType;
    let scan = PlanNode::Scan {
        table: "t_fact".into(),
        columns: vec![1, 2], // grp, price
        pred: None,
    };
    let map = PlanNode::Map {
        input: Box::new(scan),
        exprs: vec![
            NamedExpr {
                expr: Expr::Col(0),
                name: "grp".into(),
                dtype: DataType::Varchar,
                scale: 0,
                dict: Some(("t_fact".into(), 1)),
            },
            NamedExpr {
                expr: Expr::mul(Expr::Col(1), Expr::Lit(2)),
                name: "twice".into(),
                dtype: DataType::Decimal { scale: 2 },
                scale: 2,
                dict: None,
            },
        ],
    };
    PlanNode::GroupBy {
        input: Box::new(map),
        keys: vec![0],
        aggs: vec![AggSpec {
            func: AggFunc::Sum,
            col: 1,
        }],
        strategy: GroupStrategy::OnTheFly { slots: None },
    }
}

#[test]
fn a_task_is_checked_on_what_it_holds_together_and_cut_where_it_does_not_fit() {
    let cat = demo_catalog();
    // In the whole scratchpad the chain and its consumer are one stage: one
    // row, its three operators, one vector size, the working set they hold
    // together.
    let whole = verify(&task_plan(), &cat, &ExecContext::dpu());
    assert!(whole.diagnostics.is_empty(), "{whole:?}");
    let [task] = whole.stages.as_slice() else {
        panic!("one task, not {:?}", whole.stages)
    };
    assert_eq!(task.operators, "scan(t_fact) -> map -> groupby.consume");
    assert_eq!((task.node_id, task.stage.as_str()), (0, "groupby.consume"));
    assert_eq!(task.state_bytes, 64 + 64 + 32 * 1024 / 2);
    assert_eq!(task.stream_bytes_per_row, 1 + 2 + 8);
    assert_eq!(task.effective_tile, Some(256));
    assert_eq!(task.working_set_bytes, 128 + 16 * 1024 + 2 * 11 * 256);
    assert_eq!(task.scan_columns, Some((2, 5)));
    assert_eq!(
        task.descriptors, 6,
        "two buffers of each of the three streams"
    );
    let line = whole.render(32 * 1024, 256);
    assert!(
        line.contains("cols 2/5  [scan(t_fact) -> map -> groupby.consume]"),
        "{line}"
    );

    // In 1600 B the scan and map fit as a task of their own (128 B of state
    // + 11 B/row), the group table as a stage of its own (half the
    // scratchpad + 9 B/row), and the three together — 128 B + half the
    // scratchpad + 11 B/row — do not, even single-buffered at 64 rows. The
    // task is cut where the engine cuts it: two stages, and no finding.
    let tight = ExecContext {
        dmem_bytes: 1600,
        ..ExecContext::dpu()
    };
    let two = verify(&task_plan(), &cat, &tight);
    assert!(two.diagnostics.is_empty(), "{two:?}");
    let stages: Vec<_> = two
        .stages
        .iter()
        .map(|s| (&*s.stage, &*s.operators))
        .collect();
    assert_eq!(
        stages,
        [("map", "scan(t_fact) -> map"), ("groupby.consume", "")]
    );
}

#[test]
fn check_is_ok_for_the_demo_plan() {
    let cat = demo_catalog();
    assert_eq!(check(&base_plan(), &cat, &ExecContext::dpu()), Ok(()));
}

#[test]
fn check_renders_rule_ids_into_the_error() {
    let cat = demo_catalog();
    let plan = base_plan();
    let ctx = ExecContext {
        dmem_bytes: 1024,
        ..ExecContext::dpu()
    };
    let err = check(&plan, &cat, &ctx).unwrap_err();
    assert!(err.contains("R-DMEM-FIT"), "{err}");
}

#[test]
fn a_join_filter_is_a_stage_of_its_own_and_state_of_the_probe_round() {
    // The demo join's 100 dimension ids are stored in 1 byte; a filter of a
    // word for each of its 32 partitions is 256 bytes, 8 a slice.
    use rapid_qef::plan::JoinType;
    use rapid_report::mutate::{filtered_join, FILTER_BITS};
    let cat = demo_catalog();
    let report = verify(
        &filtered_join(JoinType::LeftSemi, Some(FILTER_BITS)),
        &cat,
        &ExecContext::dpu(),
    );
    assert!(report.diagnostics.is_empty(), "{report:?}");
    let stages: Vec<_> = report
        .stages
        .iter()
        .map(|s| (&*s.stage, s.state_bytes, s.stream_bytes_per_row))
        .collect();
    assert_eq!(
        stages,
        [
            ("join.partition-build", 64 + 64, 2 + 1 + 4),
            ("join.filter", 64 + 8, 1 + 4),
            // id, grp, price and the predicate's qty, the selection it
            // leaves, the hash lane.
            ("join.partition-probe", 64 + 64 + 256, 2 + 1 + 2 + 1 + 2 + 4),
            ("join.pairs", 16 * 1024, 8 + 8 + 8 + 8),
            ("groupby.consume", 16 * 1024, 2 + 1),
        ]
    );
    let plain = verify(
        &filtered_join(JoinType::LeftSemi, None),
        &cat,
        &ExecContext::dpu(),
    );
    let probe = |r: &rapid_verify::VerifyReport| {
        let s = r.stages.iter().find(|s| s.stage == "join.partition-probe");
        s.map(|s| (s.state_bytes, s.effective_tile, s.working_set_bytes))
    };
    let (with, without) = (probe(&report).unwrap(), probe(&plain).unwrap());
    assert_eq!((with.0 - without.0, with.1), (256, without.1));
    assert_eq!(with.2 - without.2, 256);
    // A size that is not a power of two, or an outer join, is refused.
    for (join_type, bits) in [(JoinType::Inner, 3000), (JoinType::LeftOuter, FILTER_BITS)] {
        let report = verify(
            &filtered_join(join_type, Some(bits)),
            &cat,
            &ExecContext::dpu(),
        );
        let rules: Vec<_> = report.errors().map(|d| d.rule).collect();
        assert_eq!(rules, [Rule::JoinFilter], "{join_type:?} {bits}");
    }
}
