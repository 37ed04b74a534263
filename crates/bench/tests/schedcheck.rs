//! `check_trace` is what the owners of a scheduler call — `HostDb::execute_batch`
//! and the wire server's drain in debug builds, the fuzzer's concurrent mode
//! always. It has to pass real schedules and fail corrupted ones; nothing
//! stands between a caller and the verdict.

use std::sync::Arc;

use dpu_sim::account::CycleAccount;
use dpu_sim::clock::Cycles;
use rapid_qef::exec::{StageProfile, StageRouter};
use rapid_report::mutate::{base_trace, InterferenceMutation};
use rapid_sched::{SchedConfig, Scheduler};
use rapid_verify::schedcheck::{check_schedule, check_trace, render};
use rapid_verify::{Diagnostic, Rule};

/// Two queries on two host threads: whatever order their stage requests
/// arrived in, the recorded schedule is clean.
#[test]
fn a_real_two_query_run_replays_clean() {
    let sched = Arc::new(Scheduler::new(SchedConfig {
        max_active: 2,
        queue_capacity: 2,
        ..SchedConfig::default()
    }));
    let handles = [0, 1].map(|_| sched.submit(0, None).expect("room for two"));
    std::thread::scope(|scope| {
        for h in &handles {
            let sched = &sched;
            scope.spawn(move || {
                for (lanes, cycles) in [(2, 900.0), (1, 200.0), (4, 450.0)] {
                    let mut compute = CycleAccount::new();
                    compute.charge_compute(Cycles(cycles));
                    let mut dms = CycleAccount::new();
                    dms.charge_dms(Cycles(cycles / 4.0), 1024, 1);
                    let mut accounts = vec![CycleAccount::new(); lanes];
                    accounts[0].absorb(&compute);
                    accounts[lanes - 1].absorb(&dms);
                    let stage = StageProfile {
                        query_id: h.id(),
                        lanes: accounts,
                        dmem_peak: 8192,
                    };
                    sched.route_stage(&stage).expect("placed");
                }
                h.finish();
            });
        }
    });
    let trace = sched.schedule_trace();
    assert_eq!(trace.placements.len(), 6);
    assert_eq!(check_trace(&trace), Ok(()));
}

/// The same recorded run with one interference bug injected is rejected,
/// and the verdict names the rule.
#[test]
fn one_mutation_of_a_real_run_is_rejected_with_its_rule_id() {
    assert_eq!(check_trace(&base_trace()), Ok(()));
    for m in [
        InterferenceMutation::OverlapDms,
        InterferenceMutation::ExceedQueryBudget,
        InterferenceMutation::EarlyPlace,
    ] {
        let mutated = m.apply();
        let verdict = check_trace(&mutated.trace).expect_err(mutated.name);
        assert!(
            verdict.contains(mutated.expected.id()),
            "{}: expected {} in: {verdict}",
            mutated.name,
            mutated.expected.id()
        );
    }
}

/// Two stages holding one core at once, each with the DMEM peak the real
/// run recorded, are one finding: the core conflict, named once.
#[test]
fn a_double_booked_core_is_one_finding() {
    let mutated = InterferenceMutation::DoubleBookCore.apply();
    let peaks = |trace: &rapid_sched::trace::SchedTrace| {
        trace
            .placements
            .iter()
            .map(|p| p.dmem_peak)
            .collect::<Vec<_>>()
    };
    assert_eq!(peaks(&mutated.trace), peaks(&base_trace()));
    assert!(peaks(&mutated.trace).iter().all(|&peak| peak > 0));
    let report = check_schedule(&mutated.trace);
    let errors: Vec<Rule> = report.errors().map(|d| d.rule).collect();
    assert_eq!(errors, [Rule::CoreExcl], "{}", report.error_summary());
}

#[test]
fn base_trace_is_clean() {
    let trace = base_trace();
    assert_eq!(trace.placements.len(), 4);
    let report = check_schedule(&trace);
    assert!(
        report.ok() && report.diagnostics.is_empty(),
        "base trace must verify clean: {}",
        report.error_summary()
    );
    assert_eq!(check_trace(&trace), Ok(()));
}

#[test]
fn base_trace_layout_matches_mutation_assumptions() {
    let t = base_trace();
    let p = &t.placements;
    assert_eq!((p[0].query_id, p[0].seq), (0, 0));
    assert_eq!((p[1].query_id, p[1].seq), (0, 1));
    assert_eq!((p[2].query_id, p[2].seq), (1, 0));
    assert_eq!((p[3].query_id, p[3].seq), (2, 0));
    assert!(p[1].dms.get() > 0.0 && p[2].dms.get() > 0.0);
    assert_eq!(p[1].dms_start, Cycles(1000.0));
    assert_eq!(p[1].dms_end, Cycles(1200.0));
    assert_eq!(p[2].dms_start, Cycles(1200.0));
    // q2 rode q0's freed slot.
    assert!(t
        .admissions
        .iter()
        .any(|a| a.query_id == 2 && a.after == Some(0)));
    // q0's cores and q1's cores are disjoint; q0 stage 1 runs alone
    // on its core.
    assert_eq!(p[0].core_mask & p[2].core_mask, 0);
    assert_eq!(p[0].core_mask & p[1].core_mask, 0);
}

#[test]
fn every_interference_mutation_is_rejected_with_its_rule() {
    let mut seen = std::collections::HashSet::new();
    for m in InterferenceMutation::all() {
        let mutated = m.apply();
        let report = check_schedule(&mutated.trace);
        assert!(!report.ok(), "{}: mutation must be rejected", mutated.name);
        let hit: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == mutated.expected)
            .collect();
        assert!(
            !hit.is_empty(),
            "{}: expected {} among: {}",
            mutated.name,
            mutated.expected.id(),
            report.error_summary()
        );
        // Located: the diagnostic names a concrete record and query.
        for d in &hit {
            assert!(d.node_id < mutated.trace.placements.len());
            assert!(d.path.contains("query"), "path locates a query: {}", d.path);
        }
        seen.insert(mutated.expected.id());
    }
    assert_eq!(
        seen.len(),
        InterferenceMutation::all().len(),
        "each mutation class maps to a distinct C-* rule id"
    );
}

#[test]
fn vector_clocks_label_concurrency_in_diagnostics() {
    let mutated = InterferenceMutation::DoubleBookCore.apply();
    let report = check_schedule(&mutated.trace);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::CoreExcl)
        .expect("core conflict found");
    assert!(
        d.message.contains("happens-before-concurrent"),
        "q0 and q1 share no happens-before path: {}",
        d.message
    );
}

#[test]
fn truncated_history_skips_dangling_admission_edges() {
    // Evict early records: edges to them must be skipped, not
    // reported as violations.
    let mut trace = base_trace();
    trace.placements.remove(0);
    trace.placements.remove(0); // q0 fully evicted
    trace.history_dropped = 2;
    let report = check_schedule(&trace);
    assert!(
        report.ok(),
        "truncated window stays clean: {}",
        report.error_summary()
    );
}

#[test]
fn render_carries_verdict_and_rule_ids() {
    let trace = base_trace();
    let clean = render(&trace, &check_schedule(&trace));
    assert!(clean.contains("PASS"));
    let mutated = InterferenceMutation::OverlapDms.apply();
    let text = render(&mutated.trace, &check_schedule(&mutated.trace));
    assert!(text.contains("FAIL"));
    assert!(text.contains("C-DMS-EXCL"));
}
