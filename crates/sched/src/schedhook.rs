//! Registration point for the schedule interference analyzer.
//!
//! The analyzer lives in `rapid-verify`, which depends on this crate for
//! the trace types — so the scheduler cannot link it directly. Instead
//! the analyzer installs a check function here (done as a side effect of
//! `rapid_verify::install`, which the compiler triggers on first use),
//! and [`Scheduler::report`](crate::scheduler::Scheduler::report) replays
//! the run's [`SchedTrace`](crate::trace::SchedTrace) through it:
//!
//! * always under `debug_assertions`,
//! * in release builds when `RAPID_SCHEDCHECK=1` is set,
//! * never when `RAPID_SCHEDCHECK=0` is set (force-off, e.g. to time the
//!   scheduler without the check).
//!
//! A violation panics: like a race detector, an interference finding
//! means the *scheduler* is broken, and no caller has a sensible way to
//! continue. Release-mode callers that want a verdict instead of a panic
//! use [`Scheduler::check_interference`](crate::scheduler::Scheduler::check_interference)
//! (the fuzzer's concurrent mode and `rapid-report schedcheck` do).

use std::sync::OnceLock;

use crate::trace::SchedTrace;

/// A schedule interference check: `Err` carries rendered diagnostics.
pub type ScheduleCheckFn = fn(&SchedTrace) -> Result<(), String>;

static HOOK: OnceLock<ScheduleCheckFn> = OnceLock::new();

/// Install the analyzer (idempotent; the first installation wins).
pub fn install(f: ScheduleCheckFn) {
    let _ = HOOK.set(f);
}

/// The installed analyzer, if any.
pub fn installed() -> Option<ScheduleCheckFn> {
    HOOK.get().copied()
}

/// Whether [`Scheduler::report`](crate::scheduler::Scheduler::report)
/// should replay the trace through the installed analyzer.
pub fn recheck_enabled() -> bool {
    match std::env::var("RAPID_SCHEDCHECK") {
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => false,
        Ok(_) => true,
        Err(_) => cfg!(debug_assertions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_first_wins_idempotent() {
        fn ok(_: &SchedTrace) -> Result<(), String> {
            Ok(())
        }
        fn other(_: &SchedTrace) -> Result<(), String> {
            Err("second".into())
        }
        install(ok);
        let first = installed().expect("installed");
        install(other);
        assert!(std::ptr::fn_addr_eq(
            installed().expect("still installed"),
            first
        ));
    }
}
