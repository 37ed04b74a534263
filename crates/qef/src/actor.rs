//! The actor-model stage runner.
//!
//! "RAPID executes multiple hardware threads that communicate among each
//! other with software control due to lack of cache coherency. [...] Actors
//! explicitly communicate and share data via asynchronous message passing."
//! (§5.1)
//!
//! A pipeline stage is a **task**: a set of independent work items — the
//! lanes of a scan and of the operators that run in its task, each a
//! tile-aligned range of the table's rows; the lanes of a partition round;
//! partitions; partition pairs — processed by `cores` actors. An item runs
//! every operator of its task under the one `CoreCtx` it is handed, so a
//! task's compute adds up per lane and its transfers per stage, and the
//! stage rule below is applied once to all of it. Work is assigned
//! statically round-robin — the QEF scheduling is "explicitly driven (by
//! the query compiler) in an asynchronous and non-preemptive manner", and
//! static assignment keeps simulated timing deterministic.
//!
//! The backend decides one thing: where the lanes run. On the **Dpu
//! backend** they are simulated cores run one after another in host time
//! (one handle stands for each in turn); on the **Native backend** each is
//! an OS thread with a handle of its own. Either way each lane accrues its
//! own cycle account, and one fold turns the lanes into the stage's
//! [`StageTiming`]: the stage rule, [`dpu_sim::account::StageSpan`],
//! max(busiest lane's compute, Σ DMS), its counters, kernels and DMEM peak.
//! A multi-query router is handed the same accounts, so a stage has the
//! same lanes in every schedule; it only decides when they run. A stage's
//! host wall time is stamped by the engine when it absorbs the stage.

use dpu_sim::account::{Counters, KernelSplit, StageSpan};
use dpu_sim::clock::{Cycles, SimTime};

use crate::error::{QefError, QefResult};
use crate::exec::{Backend, CoreCtx, ExecContext, StageProfile};

/// Simulated timing of one completed stage, the same on both backends.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTiming {
    /// Simulated elapsed time.
    pub sim: SimTime,
    /// Simulated elapsed cycles — the exact cycle count behind `sim`.
    /// Kept alongside the seconds so reports can expose stable cycle
    /// figures without re-deriving them through a frequency division.
    pub elapsed: Cycles,
    /// What the stage rule saw: busiest lane's elapsed and compute
    /// cycles, total DMS cycles.
    pub span: StageSpan,
    /// Operation counters merged across cores (branches feed Figure 13,
    /// the rest the tracing subsystem).
    pub counters: Counters,
    /// Compute cycles and instructions by kernel, summed across cores.
    pub kernels: KernelSplit,
    /// Lanes the stage ran with: `min(cores, items)`, at least 1.
    pub parallelism: usize,
    /// Compute cycles of all its lanes together.
    pub lane_compute: Cycles,
    /// Max per-core DMEM high-water mark in bytes.
    pub dmem_peak: u64,
}

impl StageTiming {
    /// The busiest lane's compute cycles over the mean lane's: 1 where the
    /// lanes are even, or did no compute.
    pub fn lane_imbalance(&self) -> f64 {
        let total = self.lane_compute.get();
        match total > 0.0 {
            true => self.span.max_lane_compute.get() * self.parallelism as f64 / total,
            false => 1.0,
        }
    }
}

/// Run `items` through `f` across the context's cores. Item `i` is handled
/// by lane `i % cores`; results come back in item order.
pub fn run_stage<W, R, F>(
    ctx: &ExecContext,
    items: Vec<W>,
    f: F,
) -> QefResult<(Vec<R>, StageTiming)>
where
    W: Send,
    R: Send,
    F: Fn(&mut CoreCtx, W) -> QefResult<R> + Sync,
{
    let cores = ctx.cores.max(1);
    let n = items.len();
    let mut timing = StageTiming::default();
    // The lanes a multi-query router places: the ones the stage rule folds.
    let mut routed = ctx
        .router
        .as_ref()
        .map(|_| Vec::with_capacity(cores.min(n)));
    // Lanes are folded in lane order on both backends, so the stage's
    // floating-point sums are the same bits wherever the lanes ran.
    let mut fold = |core: &CoreCtx| {
        timing.span.add_lane(&core.account);
        timing.lane_compute += core.account.compute_cycles();
        if let Some(lanes) = &mut routed {
            lanes.push(core.account.clone());
        }
        timing.counters = timing.counters.merged(core.account.counters());
        timing.kernels = timing.kernels.merged(&core.kernels);
        timing.dmem_peak = timing.dmem_peak.max(core.dmem.peak() as u64);
    };
    let results = match ctx.backend {
        // One simulated core at a time; its account covers all its items:
        // `core_id`, `core_id + cores`, ... in that order. The cores run one
        // after another, so one handle stands for each in turn, its account
        // and scratchpad emptied in between.
        Backend::Dpu => {
            let mut core = CoreCtx::new(ctx, 0);
            let next = |core: &mut CoreCtx, core_id: usize| {
                core.core_id = core_id;
                core.account.reset();
                core.kernels = KernelSplit::default();
                core.dmem.reset();
            };
            if n <= cores {
                // An item a core: the results come in item order.
                let mut results = Vec::with_capacity(n);
                for (core_id, w) in items.into_iter().enumerate() {
                    next(&mut core, core_id);
                    results.push(f(&mut core, w)?);
                    fold(&core);
                }
                results
            } else {
                let mut items: Vec<Option<W>> = items.into_iter().map(Some).collect();
                let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
                for core_id in 0..cores {
                    next(&mut core, core_id);
                    for i in (core_id..n).step_by(cores) {
                        let w = items[i].take().ok_or_else(|| {
                            QefError::Internal(format!("stage item {i} visited twice"))
                        })?;
                        results[i] = Some(f(&mut core, w)?);
                    }
                    fold(&core);
                }
                every_result(results)?
            }
        }
        Backend::Native => {
            let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
            for (core, lane) in run_threads(ctx, items, &f)? {
                fold(&core);
                for (i, r) in lane {
                    results[i] = Some(r);
                }
            }
            every_result(results)?
        }
    };
    timing.parallelism = cores.min(n).max(1);
    timing.elapsed = match (&ctx.router, routed) {
        (Some(router), Some(lanes)) if n > 0 => {
            let profile = StageProfile {
                query_id: ctx.query_id,
                lanes,
                dmem_peak: timing.dmem_peak,
            };
            router
                .route_stage(&profile)
                .map_err(|a| QefError::Aborted(format!("query {}: {}", ctx.query_id, a.reason)))?
        }
        _ => timing.span.elapsed(),
    };
    timing.sim = timing.elapsed.to_time(ctx.cost_model.freq_hz);
    Ok((results, timing))
}

/// A lane that ran on a thread: its core handle, and its results tagged by
/// item index.
type Lane<R> = (CoreCtx, Vec<(usize, R)>);

/// Each lane's items on a scoped thread of its own, with its own handle:
/// the lanes in lane order.
fn run_threads<W, R, F>(ctx: &ExecContext, items: Vec<W>, f: &F) -> QefResult<Vec<Lane<R>>>
where
    W: Send,
    R: Send,
    F: Fn(&mut CoreCtx, W) -> QefResult<R> + Sync,
{
    let lanes = ctx.cores.max(1).min(items.len());
    let mut assigned: Vec<Vec<(usize, W)>> = (0..lanes).map(|_| Vec::new()).collect();
    for (i, w) in items.into_iter().enumerate() {
        assigned[i % lanes].push((i, w));
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = assigned
            .into_iter()
            .enumerate()
            .map(|(core_id, work)| {
                scope.spawn(move || {
                    let mut core = CoreCtx::new(ctx, core_id);
                    let lane = work
                        .into_iter()
                        .map(|(i, w)| f(&mut core, w).map(|r| (i, r)))
                        .collect::<QefResult<Vec<_>>>()?;
                    Ok((core, lane))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // A panicking actor fails its own query instead of tearing
                // down the process (and, under execute_batch, its siblings).
                Err(payload) => Err(QefError::Internal(format!(
                    "actor panicked: {}",
                    panic_message(&*payload)
                ))),
            })
            .collect()
    })
}

/// The stage's results in item order; an item without one is an engine
/// bug, failed as the stage's error.
fn every_result<R>(results: Vec<Option<R>>) -> QefResult<Vec<R>> {
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| QefError::Internal(format!("stage item {i} has no result"))))
        .collect()
}

/// Best-effort text of a thread panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_sim::account::Kernel;
    use dpu_sim::isa::KernelCost;

    #[test]
    fn results_preserve_item_order_on_both_backends() {
        for ctx in [ExecContext::dpu().with_cores(4), ExecContext::native(4)] {
            let items: Vec<usize> = (0..37).collect();
            let (out, _) = run_stage(&ctx, items, |_, i| Ok(i * 2)).unwrap();
            assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lane_imbalance_is_the_busiest_lane_over_the_mean_of_the_lanes_that_ran() {
        let hash = |core: &mut CoreCtx, cycles: f64| {
            core.charge_kernel(Kernel::Hash, &KernelCost::paired(cycles, 0.0));
            Ok(core.account.compute_cycles().get())
        };
        for ctx in [ExecContext::dpu().with_cores(4), ExecContext::native(4)] {
            // Three lanes of 100 cycles and one of 300: 300 over a mean of 150.
            let (lanes, t) = run_stage(&ctx, vec![100.0, 100.0, 100.0, 300.0], hash).unwrap();
            assert_eq!(t.parallelism, 4);
            let mean = lanes.iter().sum::<f64>() / lanes.len() as f64;
            assert_eq!(t.lane_imbalance(), t.span.max_lane_compute.get() / mean);
            assert!((t.lane_imbalance() - 2.0).abs() < 1e-9);
            // Two lanes of four cores ran: the idle cores are not lanes.
            let (_, t) = run_stage(&ctx, vec![50.0, 50.0], hash).unwrap();
            assert_eq!((t.parallelism, t.lane_imbalance()), (2, 1.0));
            // Items past the cores add to their core's lane.
            let (_, t) = run_stage(&ctx, vec![10.0; 5], hash).unwrap();
            assert!((t.lane_imbalance() - 20.0 / 12.5).abs() < 1e-9);
            // No compute at all is even.
            let (_, t) = run_stage(&ctx, vec![0.0; 3], hash).unwrap();
            assert_eq!(t.lane_imbalance(), 1.0);
        }
    }

    #[test]
    fn item_i_runs_on_core_i_mod_cores() {
        for ctx in [ExecContext::dpu().with_cores(4), ExecContext::native(4)] {
            let (cores, _) =
                run_stage(&ctx, (0..10).collect(), |core, _: usize| Ok(core.core_id)).unwrap();
            assert_eq!(cores, [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
        }
    }

    #[test]
    fn a_stage_folds_the_same_bits_wherever_its_lanes_run() {
        // Uneven lanes: item i computes i² cycles' worth and moves i KiB.
        let work = |core: &mut CoreCtx, i: usize| {
            let n = (i * i) as f64;
            core.charge_kernel(Kernel::Hash, &KernelCost::paired(n, n / 3.0));
            core.charge_dms(&dms(i as f64 * 7.0));
            let _scratch = core.dmem.reserve_raw(i * 64).unwrap();
            Ok(i)
        };
        let timed = |ctx: ExecContext| {
            let (out, t) = run_stage(&ctx, (0..37).collect(), work).unwrap();
            let span = [
                t.span.max_lane_elapsed,
                t.span.max_lane_compute,
                t.span.dms_total,
            ];
            let bits = [t.sim.as_secs(), t.elapsed.get()].map(f64::to_bits);
            (
                out,
                span.map(|c| c.get().to_bits()),
                bits,
                t.counters,
                t.kernels,
                t.dmem_peak,
            )
        };
        let dpu = timed(ExecContext::dpu().with_cores(4));
        assert!(dpu.3.instructions > 0 && dpu.5 > 0);
        assert_eq!(timed(ExecContext::native(4)), dpu);
    }

    #[test]
    fn simulated_time_reflects_parallelism() {
        // 32 items of equal compute across 32 cores should take ~1 item's
        // time; across 1 core, 32x that.
        let work = |core: &mut CoreCtx, _: usize| {
            core.charge_kernel(Kernel::Other, &KernelCost::paired(1000.0, 1000.0));
            Ok(())
        };
        let (_, t32) =
            run_stage(&ExecContext::dpu().with_cores(32), (0..32).collect(), work).unwrap();
        let (_, t1) =
            run_stage(&ExecContext::dpu().with_cores(1), (0..32).collect(), work).unwrap();
        let ratio = t1.sim.as_secs() / t32.sim.as_secs();
        assert!((ratio - 32.0).abs() < 0.5, "ratio = {ratio}");
    }

    #[test]
    fn errors_propagate() {
        let ctx = ExecContext::dpu().with_cores(2);
        let r = run_stage(&ctx, vec![1, 2, 3], |_, i| {
            if i == 2 {
                Err(crate::error::QefError::Internal("boom".into()))
            } else {
                Ok(i)
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn native_errors_propagate() {
        let ctx = ExecContext::native(2);
        let r = run_stage(&ctx, vec![1, 2, 3], |_, i| {
            if i == 3 {
                Err(crate::error::QefError::Internal("boom".into()))
            } else {
                Ok(i)
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn native_panics_become_errors() {
        // A panicking stage closure must fail its own query, not the
        // process (execute_batch runs sibling queries in the same scope).
        let ctx = ExecContext::native(2);
        let r = run_stage(&ctx, vec![1, 2, 3], |_, i| {
            if i == 2 {
                panic!("kaboom {i}");
            }
            Ok(i)
        });
        match r {
            Err(QefError::Internal(m)) => assert!(m.contains("kaboom"), "{m}"),
            other => panic!("expected Internal error, got {other:?}"),
        }
    }

    #[test]
    fn empty_stage_is_fine() {
        let ctx = ExecContext::dpu();
        let (out, t) = run_stage(&ctx, Vec::<usize>::new(), |_, i| Ok(i)).unwrap();
        assert!(out.is_empty());
        assert_eq!(t.sim, SimTime::ZERO);
    }

    fn dms(cycles: f64) -> dpu_sim::dms::engine::DmsCost {
        dpu_sim::dms::engine::DmsCost {
            cycles,
            bytes: 4096,
            descriptors: 1,
        }
    }

    #[test]
    fn dms_heavy_stage_serializes_on_engine() {
        let work = |core: &mut CoreCtx, _: usize| {
            core.charge_dms(&dms(1000.0));
            Ok(())
        };
        let (_, t) = run_stage(&ExecContext::dpu().with_cores(4), (0..4).collect(), work).unwrap();
        // 4 cores x 1000 DMS cycles share one engine: 4000 cycles.
        assert!((t.span.dms_total.get() - 4000.0).abs() < 1e-9);
        assert!((t.sim.as_secs() - 4000.0 / 800.0e6).abs() < 1e-12);
        assert_eq!(t.counters.dms_bytes, 4 * 4096);
        assert_eq!(t.counters.dms_descriptors, 4);
    }

    #[test]
    fn per_core_overlap_is_resolved_before_the_stage_rule() {
        // Each core: compute 100 beside transfer 60.
        let work = |core: &mut CoreCtx, _: usize| {
            core.charge_kernel(Kernel::Other, &KernelCost::paired(100.0, 100.0));
            core.charge_dms(&dms(60.0));
            Ok(())
        };
        let (_, t) = run_stage(&ExecContext::dpu().with_cores(2), (0..2).collect(), work).unwrap();
        // Per-core elapsed = 100; cross-core DMS sum = 120 > 100.
        assert_eq!(t.span.max_lane_compute, Cycles(100.0));
        assert_eq!(t.elapsed, Cycles(120.0));
    }

    #[test]
    fn every_stage_starts_from_empty_accounts_and_times_add_at_the_dpu_clock() {
        let ctx = ExecContext::dpu().with_cores(2);
        let work = |core: &mut CoreCtx, _: usize| {
            core.account.charge_compute(Cycles(800.0));
            Ok(core.account.compute_cycles())
        };
        let (seen1, t1) = run_stage(&ctx, (0..2).collect(), work).unwrap();
        let (seen2, t2) = run_stage(&ctx, (0..2).collect(), work).unwrap();
        // Nothing of the first stage is left on the second's cores.
        assert_eq!(seen1, seen2);
        assert_eq!(t2.elapsed, Cycles(800.0));
        assert_eq!(t2.counters, t1.counters);
        // Two stages of 800 cycles at 800 MHz = 2 us.
        let total = t1.sim.as_secs() + t2.sim.as_secs();
        assert!((total * 1e6 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stage_energy_uses_provisioned_power() {
        let work = |core: &mut CoreCtx, _: usize| {
            core.account.charge_compute(Cycles(8.0e8)); // 1 s
            Ok(())
        };
        let (_, t) = run_stage(&ExecContext::dpu().with_cores(1), vec![0], work).unwrap();
        let joules = dpu_sim::PowerModel::dpu().energy_joules(t.sim);
        assert!((joules - 5.8).abs() < 1e-6);
    }
}
