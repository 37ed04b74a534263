//! The mutation harness contract: every invariant class has a mutation,
//! every mutation is rejected with its rule id, and the un-mutated
//! artifacts verify clean.

use rapid_verify::diag::Severity;
use rapid_verify::mutate::{base_plan, demo_catalog, Mutated, Mutation};
use rapid_verify::{dms, verify, StageGraph, VerifyConfig, VerifyReport};

#[test]
fn base_artifacts_are_clean() {
    let cat = demo_catalog();
    let report = verify(&base_plan(), &cat, &VerifyConfig::default());
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
        let report = match m.apply() {
            Mutated::Plan(p) => verify(&p, &cat, &VerifyConfig::default()),
            Mutated::Config(cfg) => verify(&base_plan(), &cat, &cfg),
            Mutated::PlanUnder(p, cfg) => verify(&p, &cat, &cfg),
            Mutated::Graph(g) => {
                let mut r = VerifyReport::default();
                g.check(&mut r);
                r
            }
            Mutated::Program(p) => {
                let mut r = VerifyReport::default();
                dms::check_program(&p, 0, "(program)", &mut r);
                r
            }
        };
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
        let report = match m.apply() {
            Mutated::Plan(p) => verify(&p, &cat, &VerifyConfig::default()),
            Mutated::Config(cfg) => verify(&base_plan(), &cat, &cfg),
            Mutated::PlanUnder(p, cfg) => verify(&p, &cat, &cfg),
            Mutated::Graph(g) => {
                let mut r = VerifyReport::default();
                g.check(&mut r);
                r
            }
            Mutated::Program(p) => {
                let mut r = VerifyReport::default();
                dms::check_program(&p, 3, "GroupBy/Map/HashJoin", &mut r);
                r
            }
        };
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
        let report = match m.apply() {
            Mutated::Plan(p) => verify(&p, &cat, &VerifyConfig::default()),
            Mutated::Config(cfg) => verify(&base_plan(), &cat, &cfg),
            Mutated::PlanUnder(p, cfg) => verify(&p, &cat, &cfg),
            Mutated::Graph(g) => {
                let mut r = VerifyReport::default();
                g.check(&mut r);
                r
            }
            Mutated::Program(p) => {
                let mut r = VerifyReport::default();
                dms::check_program(&p, 0, "(program)", &mut r);
                r
            }
        };
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
fn stage_graph_matches_pre_order_walker_ids() {
    // The graph's ids must agree with the walker's numbering, otherwise
    // diagnostics from the two passes point at different nodes.
    let cat = demo_catalog();
    let plan = base_plan();
    let g = StageGraph::from_plan(&plan);
    let report = verify(&plan, &cat, &VerifyConfig::default());
    assert_eq!(g.nodes.len(), 5); // GroupBy, Map, HashJoin, two scans
    for s in &report.stages {
        let node = &g.nodes[s.node_id];
        assert_eq!(node.path, s.path, "stage {} path mismatch", s.stage);
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
        let report = verify(plan, &cat, &VerifyConfig::default());
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
    use rapid_verify::diag::Rule;
    use rapid_verify::mutate::partition_groupby;
    let cat = demo_catalog();
    let report_of = |plan: &PlanNode| verify(plan, &cat, &VerifyConfig::default());
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
fn a_task_mark_is_checked_on_what_the_task_holds_together_and_on_what_it_opens_with() {
    use rapid_qef::plan::PlanNode;
    use rapid_verify::diag::Rule;
    use rapid_verify::mutate::{task_plan, task_plan_tight_config};
    let cat = demo_catalog();
    // In the whole scratchpad the marked chain and its consumer are one
    // stage: one row, its three operators, one vector size, the working set
    // they hold together.
    let whole = verify(&task_plan(), &cat, &VerifyConfig::default());
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
    assert_eq!(task.descriptors, 6, "the descriptor program of all three");
    let line = whole.render(32 * 1024, 256);
    assert!(
        line.contains("cols 2/5  [scan(t_fact) -> map -> groupby.consume]"),
        "{line}"
    );

    // Tight, the same operators fit as two tasks and not as one: only the
    // mark is wrong.
    let tight = task_plan_tight_config();
    let mut cut = task_plan();
    let PlanNode::GroupBy { fused, .. } = &mut cut else {
        panic!("task plan shape changed")
    };
    *fused = false;
    let two = verify(&cut, &cat, &tight);
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
    let Mutated::PlanUnder(marked, cfg) = Mutation::TaskOverDmem.apply() else {
        panic!("TaskOverDmem mutates a plan under a configuration")
    };
    assert_eq!((&marked, cfg.dmem_bytes), (&task_plan(), tight.dmem_bytes));
    let one = verify(&marked, &cat, &cfg);
    let findings: Vec<_> = one.errors().map(|d| (d.rule, &d.message)).collect();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].0, Rule::DmemFit);
    assert!(
        findings[0].1.contains(
            "the task of scan(t_fact) -> map -> groupby.consume) needs 928 B state + 11 B/row"
        ),
        "{findings:?}"
    );

    // A mark on an edge that does not come from a scan names the edge.
    let Mutated::Plan(unfed) = Mutation::TaskOnJoinOutput.apply() else {
        panic!("TaskOnJoinOutput mutates the plan")
    };
    let report = verify(&unfed, &cat, &VerifyConfig::default());
    let findings: Vec<_> = report.errors().collect();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::TaskEdge);
    assert_eq!(
        (findings[0].node_id, findings[0].path.as_str()),
        (0, "GroupBy")
    );
    assert!(
        findings[0].message.contains("input 0 (Map) is marked")
            && findings[0].message.contains("not a scan-fed chain"),
        "{}",
        findings[0]
    );
    // And on one into a node with no stage to run there: a partition pass
    // without a round.
    let mut no_round = task_plan();
    let PlanNode::GroupBy { strategy, .. } = &mut no_round else {
        panic!("task plan shape changed")
    };
    *strategy = rapid_qef::plan::GroupStrategy::Partitioned(vec![]);
    let report = verify(&no_round, &cat, &VerifyConfig::default());
    assert!(
        report
            .errors()
            .any(|d| d.rule == Rule::TaskEdge && d.message.contains("none to run there")),
        "{}",
        report.error_summary()
    );
}
