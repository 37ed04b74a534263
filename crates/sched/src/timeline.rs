//! The shared-DPU timeline: simulated-time placement of pipeline stages
//! from concurrent queries onto one set of physical dpCores and the single
//! shared DMS engine.
//!
//! A stage's span is the stage rule the engine applies when it owns the
//! DPU alone, [`dpu_sim::account::StageSpan`], with one input the engine
//! never has: `dms_delay`, how long the stage's first descriptor waits
//! behind transfers another query already queued on the shared engine. A
//! stage placed on an otherwise idle timeline has `dms_delay == 0` and
//! takes the bits `rapid_qef::actor::run_stage` computes without a router;
//! contention only ever *delays* stages.

use std::borrow::Cow;
use std::collections::VecDeque;

use dpu_sim::account::{CycleAccount, StageSpan};
use dpu_sim::clock::{Cycles, SimTime};
use dpu_sim::isa::CostModel;
use dpu_sim::power::PowerModel;
use rapid_qef::exec::StageProfile;

/// One placed stage on the timeline.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// Simulated instant the stage's cores start.
    pub start: Cycles,
    /// Simulated instant the stage completes (compute and DMS drained).
    pub end: Cycles,
    /// Duration as observed by the query: waiting for cores included.
    pub duration: Cycles,
}

/// Retained record of one placed stage, tagged with its query — the
/// scheduler-side aggregation of the engine's stage trace and the evidence
/// the schedule interference analyzer (`rapid-verify`'s `schedcheck`)
/// replays.
#[derive(Debug, Clone, Copy)]
pub struct PlacementRecord {
    /// Query the stage belongs to.
    pub query_id: u64,
    /// Stage index within its query (0-based program order): the per-query
    /// happens-before chain the analyzer rebuilds.
    pub seq: u64,
    /// The query-side ready instant the stage was placed no earlier than.
    pub ready: Cycles,
    /// Simulated instant the stage's cores start.
    pub start: Cycles,
    /// Simulated instant the stage completes.
    pub end: Cycles,
    /// Cores the stage gang-scheduled.
    pub lanes: usize,
    /// Bitmask of the granted physical core ids (bit `c` = core `c`).
    /// Covers cores 0..64; the simulated DPU has 32.
    pub core_mask: u64,
    /// Core-busy cycles across the stage's lanes.
    pub core_busy: Cycles,
    /// DMS cycles the stage queued on the shared engine.
    pub dms: Cycles,
    /// Instant the stage's first descriptor starts on the shared DMS
    /// engine. Equal to `dms_end` when the stage moved no bytes.
    pub dms_start: Cycles,
    /// Instant the stage's last descriptor drains off the DMS engine.
    pub dms_end: Cycles,
    /// Max per-lane DMEM high-water mark in bytes; the stage's live span
    /// is exactly `[0, dmem_peak)` on each granted core (bump allocator).
    pub dmem_peak: u64,
}

/// Utilization and energy summary of everything placed so far.
///
/// Every field is derived from the *simulated* timeline — no host wall
/// clock enters here, so two runs of one batch produce bit-identical
/// values. The `*_cycles` fields are the exact cycle counts
/// behind the `SimTime` figures, exposed so downstream reports (the bench
/// regression gate in particular) can compare stable integers-of-f64
/// without re-deriving them through a frequency division.
#[derive(Debug, Clone, Copy)]
pub struct Utilization {
    /// Simulated makespan: the latest stage end placed on the timeline.
    pub makespan: SimTime,
    /// Makespan in simulated cycles — the exact count behind `makespan`.
    pub makespan_cycles: f64,
    /// Total core-busy simulated time across all cores.
    pub core_busy: SimTime,
    /// Core-busy total in simulated cycles.
    pub core_busy_cycles: f64,
    /// DMS-engine-busy total in simulated cycles.
    pub dms_busy_cycles: f64,
    /// Core busy time over `cores × makespan` in [0, 1].
    pub core_utilization: f64,
    /// DMS engine occupancy over the makespan in [0, 1].
    pub dms_utilization: f64,
    /// Energy at the DPU's provisioned power over the makespan.
    pub energy_joules: f64,
    /// Stages placed.
    pub stages: usize,
}

/// Simulated-time occupancy of the DPU's cores and single DMS engine.
#[derive(Debug)]
pub struct DpuTimeline {
    /// Per physical core: the instant it becomes free.
    core_free: Vec<Cycles>,
    /// Per physical core: cycles it actually spent working.
    core_busy: Vec<Cycles>,
    /// The instant the shared DMS engine becomes free.
    dms_free: Cycles,
    /// Cycles the DMS engine spent transferring.
    dms_busy: Cycles,
    /// Latest stage end placed so far.
    makespan: Cycles,
    /// Stages placed.
    stages: usize,
    /// Retained placements, oldest first. A capped ring when
    /// `history_cap > 0`: the oldest record is evicted on overflow and
    /// `history_dropped` counts evictions, so a long-lived server run
    /// holds at most `history_cap` records.
    history: VecDeque<PlacementRecord>,
    /// Max records retained; 0 means unbounded.
    history_cap: usize,
    /// Records evicted from the front of the capped ring.
    history_dropped: u64,
}

impl DpuTimeline {
    /// An idle timeline over `cores` physical dpCores, retaining the full
    /// placement history.
    pub fn new(cores: usize) -> Self {
        let cores = cores.max(1);
        DpuTimeline {
            core_free: vec![Cycles::ZERO; cores],
            core_busy: vec![Cycles::ZERO; cores],
            dms_free: Cycles::ZERO,
            dms_busy: Cycles::ZERO,
            makespan: Cycles::ZERO,
            stages: 0,
            history: VecDeque::new(),
            history_cap: 0,
            history_dropped: 0,
        }
    }

    /// Cap the retained placement history at `cap` records (0 = unbounded).
    /// Aggregate utilization is unaffected; only the per-record series and
    /// the interference analyzer see a truncated window.
    pub fn with_history_cap(mut self, cap: usize) -> Self {
        self.history_cap = cap;
        self.trim_history();
        self
    }

    fn trim_history(&mut self) {
        if self.history_cap > 0 {
            while self.history.len() > self.history_cap {
                self.history.pop_front();
                self.history_dropped += 1;
            }
        }
    }

    /// Number of physical cores.
    pub fn cores(&self) -> usize {
        self.core_free.len()
    }

    /// Records evicted from the capped history ring so far.
    pub fn history_dropped(&self) -> u64 {
        self.history_dropped
    }

    /// Latest stage end placed so far.
    pub fn makespan(&self) -> Cycles {
        self.makespan
    }

    /// Place stage `seq` of its query (0-based, in the query's program
    /// order: the scheduler counts them) no earlier than `ready`, the
    /// query's own clock.
    ///
    /// The stage gang-schedules one of the earliest-free cores (ties broken
    /// by core id) per lane the engine ran it with, holds them until the
    /// stage's barrier, and serializes its DMS total behind the transfers
    /// already queued on the shared engine.
    pub fn place(&mut self, ready: Cycles, seq: u64, profile: &StageProfile) -> Placement {
        let cores = self.core_free.len();
        // A stage built for more cores than this DPU has folds its lanes
        // onto the cores there are, round-robin as the engine deals items.
        let lanes = if profile.lanes.len() <= cores {
            Cow::Borrowed(profile.lanes.as_slice())
        } else {
            let mut folded = vec![CycleAccount::new(); cores];
            for (j, lane) in profile.lanes.iter().enumerate() {
                folded[j % cores].absorb(lane);
            }
            Cow::Owned(folded)
        };
        let k = lanes.len().max(1);
        // Earliest-free cores, ties by id: deterministic grant.
        let mut order: Vec<usize> = (0..cores).collect();
        order.sort_by(|&a, &b| {
            self.core_free[a]
                .get()
                .total_cmp(&self.core_free[b].get())
                .then(a.cmp(&b))
        });
        let granted = &order[..k];

        // Gang start: all lanes begin together once the query is ready and
        // every granted core is free.
        let mut start = ready;
        for &c in granted {
            start = start.max(self.core_free[c]);
        }

        let stage = StageSpan::of_lanes(lanes.iter());
        let dms_total = stage.dms_total;

        // The stage rule, placed in time. The engine window is derived
        // with an exact f64 `max` (never a subtract-and-re-add round trip),
        // so consecutive stages' recorded `[dms_start, dms_end)` windows
        // are exactly non-overlapping — the interference analyzer compares
        // them with strict `<`.
        let dms_busy_from = if dms_total.get() > 0.0 {
            self.dms_free.max(start)
        } else {
            start
        };
        let span = stage.elapsed_behind(dms_busy_from - start);
        let end = start + span;

        let mut stage_busy = Cycles::ZERO;
        for (lane, &c) in lanes.iter().zip(granted) {
            self.core_busy[c] += lane.elapsed_cycles();
            self.core_free[c] = end;
            stage_busy += lane.elapsed_cycles();
        }
        let dms_end = dms_busy_from + dms_total;
        if dms_total.get() > 0.0 {
            self.dms_free = dms_end;
            self.dms_busy += dms_total;
        }
        self.makespan = self.makespan.max(end);
        self.stages += 1;
        let core_mask = granted
            .iter()
            .filter(|&&c| c < 64)
            .fold(0u64, |m, &c| m | (1u64 << c));
        self.history.push_back(PlacementRecord {
            query_id: profile.query_id,
            seq,
            ready,
            start,
            end,
            lanes: k,
            core_mask,
            core_busy: stage_busy,
            dms: dms_total,
            dms_start: dms_busy_from,
            dms_end,
            dmem_peak: profile.dmem_peak,
        });
        self.trim_history();

        // Observed duration = wait for cores + the stage span; for a query
        // alone this is exactly `StageSpan::elapsed`.
        Placement {
            start,
            end,
            duration: (start - ready) + span,
        }
    }

    /// Retained placements in placement order (the most recent
    /// `history_cap` when the history ring is capped).
    pub fn placements(&self) -> Vec<PlacementRecord> {
        self.history.iter().copied().collect()
    }

    /// Utilization and energy over everything placed so far, at the DPU's
    /// provisioned power.
    pub fn utilization(&self, cost_model: &CostModel) -> Utilization {
        let makespan = self.makespan.to_time(cost_model.freq_hz);
        let busy: Cycles = self.core_busy.iter().copied().sum();
        let denom = self.makespan.get() * self.core_free.len() as f64;
        Utilization {
            makespan,
            makespan_cycles: self.makespan.get(),
            core_busy: busy.to_time(cost_model.freq_hz),
            core_busy_cycles: busy.get(),
            dms_busy_cycles: self.dms_busy.get(),
            core_utilization: if denom > 0.0 { busy.get() / denom } else { 0.0 },
            dms_utilization: if self.makespan.get() > 0.0 {
                self.dms_busy.get() / self.makespan.get()
            } else {
                0.0
            },
            energy_joules: PowerModel::dpu().energy_joules(makespan),
            stages: self.stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_item(cycles: f64) -> CycleAccount {
        let mut a = CycleAccount::new();
        a.charge_compute(Cycles(cycles));
        a
    }

    fn dms_item(cycles: f64) -> CycleAccount {
        let mut a = CycleAccount::new();
        a.charge_dms(Cycles(cycles), 1024, 1);
        a
    }

    fn profile(qid: u64, lanes: Vec<CycleAccount>) -> StageProfile {
        StageProfile {
            query_id: qid,
            lanes,
            dmem_peak: 0,
        }
    }

    #[test]
    fn solo_stage_matches_engine_local_rule() {
        // 4 lanes, compute 1000 each, plus 4x100 DMS: rule says
        // max(1000, 400) = 1000.
        let mut tl = DpuTimeline::new(32);
        let mut items = Vec::new();
        for _ in 0..4 {
            items.push(compute_item(1000.0));
            items.push(dms_item(100.0));
        }
        let p = tl.place(Cycles::ZERO, 0, &profile(1, items));
        assert_eq!(p.start, Cycles::ZERO);
        assert_eq!(p.duration, Cycles(1000.0));
        assert_eq!(p.end, Cycles(1000.0));
    }

    #[test]
    fn a_routed_stage_has_the_bits_of_the_engine_local_stage() {
        use std::sync::{Arc, Mutex};

        use rapid_qef::actor::run_stage;
        use rapid_qef::exec::{CoreCtx, ExecContext, StageAbort, StageRouter};

        /// Each stage alone on an idle timeline.
        #[derive(Debug, Default)]
        struct Idle(Mutex<Vec<usize>>);
        impl StageRouter for Idle {
            fn route_stage(&self, profile: &StageProfile) -> Result<Cycles, StageAbort> {
                self.0.lock().unwrap().push(profile.lanes.len());
                let p = DpuTimeline::new(32).place(Cycles::ZERO, 0, profile);
                assert_eq!(p.end, p.duration, "idle timeline");
                Ok(p.duration)
            }
        }

        let local = ExecContext::dpu().with_cores(3);
        let idle = Arc::new(Idle::default());
        let routed = local.clone().with_router(Arc::clone(&idle) as _, 1);
        // Eleven skewed items on three lanes, every one charged twice, in
        // fractions whose sums depend on the order they are added in; once
        // bound by the busiest lane, once by the DMS total.
        for dms_scale in [1.0, 40.0] {
            let charges: Vec<(f64, f64)> = (0..11)
                .map(|i| {
                    let dms = 100.7 / (i + 3) as f64;
                    (1000.3 / (i + 1) as f64, dms * dms_scale)
                })
                .collect();
            let stage = |ctx: &ExecContext| {
                let (_, t) = run_stage(ctx, charges.clone(), |core: &mut CoreCtx, (c, d)| {
                    core.account.charge_compute(Cycles(c));
                    core.account.charge_dms(Cycles(d), 1024, 1);
                    core.account.charge_compute(Cycles(c / 7.0));
                    Ok(())
                })
                .unwrap();
                t
            };
            let (alone, placed) = (stage(&local), stage(&routed));
            assert_eq!(alone.span.dms_bound(), dms_scale > 1.0);
            assert_eq!(
                alone.elapsed.get().to_bits(),
                placed.elapsed.get().to_bits()
            );
        }
        assert_eq!(*idle.0.lock().unwrap(), [3, 3], "the engine's three lanes");
    }

    #[test]
    fn dms_serializes_across_queries() {
        // Two DMS-bound stages from different queries: the second's
        // transfers queue behind the first's on the single engine.
        let mut tl = DpuTimeline::new(32);
        let a = tl.place(Cycles::ZERO, 0, &profile(1, vec![dms_item(1000.0)]));
        let b = tl.place(Cycles::ZERO, 0, &profile(2, vec![dms_item(1000.0)]));
        assert_eq!(a.end, Cycles(1000.0));
        // Query 2 starts its core at 0 (different core is free) but its
        // transfer waits for the engine: ends at 2000.
        assert_eq!(b.start, Cycles::ZERO);
        assert_eq!(b.end, Cycles(2000.0));
    }

    #[test]
    fn compute_stages_overlap_on_disjoint_cores() {
        // Two 8-lane compute stages on a 32-core DPU run side by side.
        let mut tl = DpuTimeline::new(32);
        let items = |n: usize| (0..n).map(|_| compute_item(1000.0)).collect::<Vec<_>>();
        let a = tl.place(Cycles::ZERO, 0, &profile(1, items(8)));
        let b = tl.place(Cycles::ZERO, 0, &profile(2, items(8)));
        assert_eq!(a.end, Cycles(1000.0));
        assert_eq!(b.end, Cycles(1000.0), "disjoint cores: no queueing");
        let u = tl.utilization(&CostModel::default());
        assert!(
            (u.core_utilization - 0.5).abs() < 1e-9,
            "16 of 32 cores busy"
        );
    }

    #[test]
    fn gang_waits_for_granted_cores() {
        // A 32-lane stage must wait for every core, including the ones the
        // first stage still holds.
        let mut tl = DpuTimeline::new(32);
        let items = |n: usize| (0..n).map(|_| compute_item(1000.0)).collect::<Vec<_>>();
        tl.place(Cycles::ZERO, 0, &profile(1, items(8)));
        let b = tl.place(Cycles::ZERO, 0, &profile(2, items(32)));
        assert_eq!(b.start, Cycles(1000.0));
        assert_eq!(b.duration, Cycles(2000.0), "wait + span");
    }

    #[test]
    fn a_stage_wider_than_the_dpu_folds_its_lanes_onto_its_cores() {
        // Five lanes on two cores: lanes 0, 2, 4 share core 0.
        let mut tl = DpuTimeline::new(2);
        let lanes = [100.0, 10.0, 100.0, 10.0, 100.0].map(compute_item);
        let p = tl.place(Cycles::ZERO, 0, &profile(1, lanes.to_vec()));
        assert_eq!(p.duration, Cycles(300.0));
        let recs = tl.placements();
        assert_eq!(recs[0].lanes, 2);
        assert_eq!(recs[0].core_busy, Cycles(320.0));
    }

    #[test]
    fn placements_are_tagged_with_their_query() {
        let mut tl = DpuTimeline::new(4);
        tl.place(
            Cycles::ZERO,
            0,
            &profile(7, vec![compute_item(1000.0), dms_item(100.0)]),
        );
        tl.place(Cycles::ZERO, 0, &profile(9, vec![compute_item(500.0)]));
        let recs = tl.placements();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].query_id, 7);
        assert_eq!(recs[0].lanes, 2);
        assert_eq!(recs[0].dms, Cycles(100.0));
        assert_eq!(recs[1].query_id, 9);
        assert_eq!(recs[1].core_busy, Cycles(500.0));
    }

    #[test]
    fn history_cap_evicts_oldest_and_counts_drops() {
        let mut tl = DpuTimeline::new(2).with_history_cap(4);
        for q in 0..10u64 {
            tl.place(Cycles::ZERO, 0, &profile(q, vec![compute_item(10.0)]));
        }
        let recs = tl.placements();
        assert_eq!(recs.len(), 4, "ring holds at most the cap");
        assert_eq!(tl.history_dropped(), 6);
        let kept: Vec<u64> = recs.iter().map(|r| r.query_id).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest evicted first");
        // Aggregate utilization still covers all ten stages.
        let u = tl.utilization(&CostModel::default());
        assert_eq!(u.stages, 10);
        assert!((u.core_busy_cycles - 100.0).abs() < 1e-9);
    }

    #[test]
    fn records_carry_interference_evidence() {
        let mut tl = DpuTimeline::new(4);
        let mut p0 = profile(7, vec![compute_item(100.0), dms_item(50.0)]);
        p0.dmem_peak = 4096;
        tl.place(Cycles::ZERO, 0, &p0);
        tl.place(Cycles(100.0), 1, &profile(7, vec![dms_item(25.0)]));
        let recs = tl.placements();
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].seq, 1, "per-query stage order");
        assert_eq!(recs[0].ready, Cycles::ZERO);
        assert_eq!(recs[1].ready, Cycles(100.0));
        assert_eq!(recs[0].core_mask.count_ones() as usize, recs[0].lanes);
        assert_eq!(recs[0].dmem_peak, 4096);
        // DMS windows are exact and non-overlapping: stage 0 holds the
        // engine for [0, 50), stage 1 for [100, 125).
        assert_eq!(recs[0].dms_start, Cycles::ZERO);
        assert_eq!(recs[0].dms_end, Cycles(50.0));
        assert_eq!(recs[1].dms_start, Cycles(100.0));
        assert_eq!(recs[1].dms_end, Cycles(125.0));
        // A stage with no transfers records an empty window.
        tl.place(Cycles::ZERO, 0, &profile(9, vec![compute_item(10.0)]));
        let recs = tl.placements();
        assert_eq!(recs[2].dms_start, recs[2].dms_end);
    }

    #[test]
    fn utilization_reports_energy_at_provisioned_power() {
        let mut tl = DpuTimeline::new(1);
        // 8e8 cycles at 800 MHz = 1 simulated second.
        tl.place(Cycles::ZERO, 0, &profile(1, vec![compute_item(8.0e8)]));
        let u = tl.utilization(&CostModel::default());
        assert!((u.makespan.as_secs() - 1.0).abs() < 1e-9);
        assert!((u.energy_joules - 5.8).abs() < 1e-6);
        assert!((u.core_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_timeline_utilization_is_zero() {
        let tl = DpuTimeline::new(32);
        let u = tl.utilization(&CostModel::default());
        assert_eq!(u.core_utilization, 0.0);
        assert_eq!(u.dms_utilization, 0.0);
        assert_eq!(u.stages, 0);
    }
}
