//! `check_trace` is what the owners of a scheduler call — `HostDb::execute_batch`
//! and the wire server's drain in debug builds, the fuzzer's concurrent mode
//! always. It has to pass real schedules and fail corrupted ones; nothing
//! stands between a caller and the verdict.

use std::sync::Arc;

use dpu_sim::account::CycleAccount;
use dpu_sim::clock::Cycles;
use rapid_qef::exec::{StageProfile, StageRouter};
use rapid_sched::{SchedConfig, Scheduler};
use rapid_verify::schedcheck::{base_trace, check_schedule, check_trace, InterferenceMutation};
use rapid_verify::Rule;

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
