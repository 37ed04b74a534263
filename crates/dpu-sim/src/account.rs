//! Per-core cycle accounting.
//!
//! Every dpCore carries a [`CycleAccount`] that splits accrued time into
//! **compute cycles** (instructions retired by the core) and **DMS cycles**
//! (time its DMS descriptor loops spent moving data). The two streams are
//! kept separate because the engine overlaps them: with double buffering,
//! a loop iteration costs `max(compute, transfer)`, not their sum. The
//! overlap is resolved when a pipeline stage finishes, by [`StageSpan`] —
//! the one place lane accounts become a stage duration.

use crate::clock::Cycles;
use crate::isa::{CostModel, KernelCost};

/// Event counters useful for explaining performance (Fig 13 of the paper
/// reports branch-misprediction reductions from vectorization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Instructions retired (ALU + LSU + MUL).
    pub instructions: u64,
    /// Branches executed.
    pub branches: u64,
    /// Branches mispredicted.
    pub branch_mispredicts: u64,
    /// Bytes moved by this core's DMS descriptor programs.
    pub dms_bytes: u64,
    /// DMS descriptors executed.
    pub dms_descriptors: u64,
    /// Tiles processed by operator control loops.
    pub tiles: u64,
    /// ATE messages sent.
    pub ate_messages: u64,
}

impl Counters {
    /// Component-wise sum of two counter sets.
    pub fn merged(&self, other: &Counters) -> Counters {
        Counters {
            instructions: self.instructions + other.instructions,
            branches: self.branches + other.branches,
            branch_mispredicts: self.branch_mispredicts + other.branch_mispredicts,
            dms_bytes: self.dms_bytes + other.dms_bytes,
            dms_descriptors: self.dms_descriptors + other.dms_descriptors,
            tiles: self.tiles + other.tiles,
            ate_messages: self.ate_messages + other.ate_messages,
        }
    }
}

/// The kernel family a compute charge is tagged with: what a stage's
/// cycles were spent on ([`KernelSplit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Predicate loops of a scan or filter: compares, bit-vectors, RID emit.
    Predicate,
    /// Compaction of the rows a predicate kept, where a lane writes them
    /// into vectors of its own.
    Compact,
    /// Reads of the rows a predicate kept where they lie, through the
    /// selection vector over the tiles.
    Select,
    /// An addition loop.
    Add,
    /// A subtraction loop.
    Sub,
    /// A multiply loop (the multiplier stalls).
    Mul,
    /// A division loop.
    Div,
    /// CRC32 over key columns.
    Hash,
    /// Group-table lookup and insert by hash.
    GroupLookup,
    /// Group slot from code keys, by shifts and ORs.
    GroupSlot,
    /// Aggregate accumulation, merge and finalize.
    Aggregate,
    /// Join build, probe and emit.
    Join,
    /// Partition maps and their column gathers.
    Partition,
    /// The per-tile operator control loop.
    TileControl,
    /// The rest: sort, top-k, window, CASE, YEAR, row-at-a-time dispatch,
    /// ATE messages.
    Other,
}

impl Kernel {
    /// Every kernel, in [`KernelSplit`] order.
    pub const ALL: [Kernel; 15] = [
        Kernel::Predicate,
        Kernel::Compact,
        Kernel::Select,
        Kernel::Add,
        Kernel::Sub,
        Kernel::Mul,
        Kernel::Div,
        Kernel::Hash,
        Kernel::GroupLookup,
        Kernel::GroupSlot,
        Kernel::Aggregate,
        Kernel::Join,
        Kernel::Partition,
        Kernel::TileControl,
        Kernel::Other,
    ];

    /// Short lower-case name, as traces and `EXPLAIN ANALYZE` print it.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Predicate => "predicate",
            Kernel::Compact => "compact",
            Kernel::Select => "select",
            Kernel::Add => "add",
            Kernel::Sub => "sub",
            Kernel::Mul => "mul",
            Kernel::Div => "div",
            Kernel::Hash => "hash",
            Kernel::GroupLookup => "group-lookup",
            Kernel::GroupSlot => "group-slot",
            Kernel::Aggregate => "aggregate",
            Kernel::Join => "join",
            Kernel::Partition => "partition",
            Kernel::TileControl => "tile-control",
            Kernel::Other => "other",
        }
    }
}

/// Compute cycles and instructions charged to one [`Kernel`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTally {
    /// Compute cycles.
    pub cycles: f64,
    /// Instructions retired, truncated per charge as
    /// [`Counters::instructions`] is.
    pub instructions: u64,
}

/// A core's or a stage's compute split by kernel, in a fixed array:
/// tallying a charge allocates nothing. The account a charge goes to does
/// not carry it (the scheduler copies accounts per work item); the core
/// that charged does, `rapid_qef::exec::CoreCtx`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelSplit([KernelTally; Kernel::ALL.len()]);

impl KernelSplit {
    /// Tally a charge of `cycles` and `instructions` to `kernel`.
    pub fn add(&mut self, kernel: Kernel, cycles: f64, instructions: u64) {
        let tally = &mut self.0[kernel as usize];
        tally.cycles += cycles;
        tally.instructions += instructions;
    }

    /// What `kernel` was charged.
    pub fn get(&self, kernel: Kernel) -> KernelTally {
        self.0[kernel as usize]
    }

    /// Every kernel with what it was charged, in [`Kernel::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Kernel, KernelTally)> + '_ {
        Kernel::ALL.into_iter().zip(self.0.iter().copied())
    }

    /// Component-wise sum of two splits.
    pub fn merged(&self, other: &KernelSplit) -> KernelSplit {
        let mut out = *self;
        for (kernel, tally) in other.iter() {
            out.add(kernel, tally.cycles, tally.instructions);
        }
        out
    }
}

/// Accrued simulated work of one dpCore.
#[derive(Debug, Clone, Default)]
pub struct CycleAccount {
    compute: Cycles,
    dms: Cycles,
    counters: Counters,
}

impl CycleAccount {
    /// Fresh, empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge pure compute cycles.
    #[inline]
    pub fn charge_compute(&mut self, cycles: Cycles) {
        self.compute += cycles;
    }

    /// Charge a kernel described by measured operation counts; returns the
    /// cycles and instructions it added.
    pub fn charge_kernel(&mut self, cm: &CostModel, cost: &KernelCost) -> KernelTally {
        let tally = KernelTally {
            cycles: cm.kernel_cycles(cost),
            instructions: (cost.alu + cost.lsu + cost.mul) as u64,
        };
        self.compute += Cycles(tally.cycles);
        self.counters.instructions += tally.instructions;
        self.counters.branches += cost.branches as u64;
        self.counters.branch_mispredicts += cost.mispredicts as u64;
        tally
    }

    /// Charge the per-tile operator control-flow overhead.
    pub fn charge_tile_overhead(&mut self, cm: &CostModel) {
        self.compute += Cycles(cm.per_tile_overhead_cycles);
        self.counters.tiles += 1;
    }

    /// Charge DMS transfer time attributed to this core's descriptor loops.
    #[inline]
    pub fn charge_dms(&mut self, cycles: Cycles, bytes: u64, descriptors: u64) {
        self.dms += cycles;
        self.counters.dms_bytes += bytes;
        self.counters.dms_descriptors += descriptors;
    }

    /// Record an ATE message send.
    pub fn charge_ate(&mut self, cycles: Cycles) {
        self.compute += cycles;
        self.counters.ate_messages += 1;
    }

    /// Compute cycles accrued so far.
    pub fn compute_cycles(&self) -> Cycles {
        self.compute
    }

    /// DMS cycles accrued so far.
    pub fn dms_cycles(&self) -> Cycles {
        self.dms
    }

    /// Effective elapsed cycles for this core under the overlap rule:
    /// `max(compute, dms)` over everything charged, which models
    /// steady-state double buffering of a streaming operator — the DMS
    /// fetches the next tile while the core computes on this one. Across
    /// lanes the stage rule, [`StageSpan`], resolves it again.
    pub fn elapsed_cycles(&self) -> Cycles {
        self.compute.max(self.dms)
    }

    /// Event counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Merge another account into this one (serial composition: the other
    /// stage ran after this one on the same core).
    pub fn absorb(&mut self, other: &CycleAccount) {
        self.compute += other.compute;
        self.dms += other.dms;
        self.counters = self.counters.merged(&other.counters);
    }

    /// Reset to empty (reuse between stages).
    pub fn reset(&mut self) {
        *self = CycleAccount::default();
    }
}

/// The stage rule: how long a parallel pipeline stage takes, given the
/// accounts of its lanes (one per dpCore the stage runs on).
///
/// Following the paper's cost model (§5.2: "the total cost of a RAPID
/// operator is analytically modeled on top of data transfer (I/O) and
/// compute cost functions considering the potential overlap"):
///
/// ```text
/// stage_elapsed = max( max_i lane_i.elapsed , dms_delay + Σ_i lane_i.dms )
/// ```
///
/// — lanes run in parallel, every lane's DMS transfers serialize on the
/// single shared engine (behind `dms_delay` cycles of transfers another
/// query already queued there; zero for a query alone), and double
/// buffering overlaps the two streams. This reproduces both regimes the
/// paper reports: a single-core filter is compute-bound at 1.65
/// cycles/tuple, while the 32-core filter saturates the DMS at ~9.6 GB/s.
///
/// Every simulated clock in the workspace goes through this value: the
/// engine-local one (`rapid_qef::actor::run_stage`) and the shared timeline
/// of concurrent queries (`rapid_sched::DpuTimeline::place`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSpan {
    /// Busiest lane's elapsed cycles, its own overlap resolved.
    pub max_lane_elapsed: Cycles,
    /// Busiest lane's compute cycles (the parallel-compute critical path).
    pub max_lane_compute: Cycles,
    /// Total occupancy of the shared DMS engine.
    pub dms_total: Cycles,
}

impl StageSpan {
    /// Fold one more lane into the stage.
    pub fn add_lane(&mut self, lane: &CycleAccount) {
        self.max_lane_elapsed = self.max_lane_elapsed.max(lane.elapsed_cycles());
        self.max_lane_compute = self.max_lane_compute.max(lane.compute_cycles());
        self.dms_total += lane.dms_cycles();
    }

    /// The span of a stage made of `lanes`.
    pub fn of_lanes<'a>(lanes: impl IntoIterator<Item = &'a CycleAccount>) -> Self {
        let mut span = StageSpan::default();
        for lane in lanes {
            span.add_lane(lane);
        }
        span
    }

    /// Elapsed cycles of a stage that has the DMS engine to itself.
    pub fn elapsed(&self) -> Cycles {
        self.elapsed_behind(Cycles::ZERO)
    }

    /// Elapsed cycles of a stage whose first descriptor waits `dms_delay`
    /// cycles behind transfers already queued on the shared engine.
    pub fn elapsed_behind(&self, dms_delay: Cycles) -> Cycles {
        self.max_lane_elapsed.max(dms_delay + self.dms_total)
    }

    /// Whether the stage is bound by the DMS (memory bandwidth) rather
    /// than by compute.
    pub fn dms_bound(&self) -> bool {
        self.dms_total.get() >= self.max_lane_compute.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_charge_updates_cycles_and_counters() {
        let cm = CostModel::default();
        let mut acc = CycleAccount::new();
        acc.charge_kernel(&cm, &KernelCost::paired(64.0, 64.0));
        assert!((acc.compute_cycles().get() - 64.0).abs() < 1e-9);
        assert_eq!(acc.counters().instructions, 128);
    }

    #[test]
    fn a_kernel_split_tallies_and_merges_what_each_kernel_was_charged() {
        let cm = CostModel::default();
        let mut acc = CycleAccount::new();
        let mut split = KernelSplit::default();
        for (kernel, n) in [(Kernel::Mul, 64.0), (Kernel::Add, 10.0), (Kernel::Mul, 6.0)] {
            let t = acc.charge_kernel(&cm, &KernelCost::paired(n, n));
            split.add(kernel, t.cycles, t.instructions);
        }
        assert_eq!(split.get(Kernel::Mul).cycles, 70.0);
        assert_eq!(split.get(Kernel::Mul).instructions, 140);
        assert_eq!(split.get(Kernel::Add).instructions, 20);
        let total: f64 = split.iter().map(|(_, t)| t.cycles).sum();
        assert_eq!(total, acc.compute_cycles().get());
        let instructions: u64 = split.iter().map(|(_, t)| t.instructions).sum();
        assert_eq!(instructions, acc.counters().instructions);
        let twice = split.merged(&split);
        assert_eq!(twice.get(Kernel::Mul).cycles, 140.0);
        assert_eq!(twice.get(Kernel::Hash), KernelTally::default());
    }

    #[test]
    fn compute_and_transfer_resolve_as_the_larger_of_the_two() {
        let mut acc = CycleAccount::new();
        acc.charge_compute(Cycles(50.0));
        acc.charge_dms(Cycles(80.0), 1024, 1);
        assert!((acc.elapsed_cycles().get() - 80.0).abs() < 1e-9);
        assert_eq!(acc.counters().dms_bytes, 1024);
    }

    #[test]
    fn absorb_is_serial_composition() {
        let mut a = CycleAccount::new();
        a.charge_compute(Cycles(10.0));
        let mut b = CycleAccount::new();
        b.charge_compute(Cycles(5.0));
        a.absorb(&b);
        assert!((a.compute_cycles().get() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_cycles_and_counters() {
        let mut acc = CycleAccount::new();
        acc.charge_kernel(&CostModel::default(), &KernelCost::paired(100.0, 100.0));
        acc.charge_dms(Cycles(5.0), 64, 1);
        acc.reset();
        assert_eq!(acc.elapsed_cycles(), Cycles::ZERO);
        assert_eq!(acc.dms_cycles(), Cycles::ZERO);
        assert_eq!(acc.counters(), &Counters::default());
    }

    fn lanes(n: usize, charge: impl Fn(&mut CycleAccount)) -> Vec<CycleAccount> {
        (0..n)
            .map(|_| {
                let mut lane = CycleAccount::new();
                charge(&mut lane);
                lane
            })
            .collect()
    }

    #[test]
    fn span_compute_parallelizes_across_lanes() {
        let cm = CostModel::default();
        let span = StageSpan::of_lanes(&lanes(4, |l| {
            l.charge_kernel(&cm, &KernelCost::paired(1000.0, 1000.0));
        }));
        // 4 lanes each doing 1000 cycles of paired work -> 1000 elapsed.
        assert_eq!(span.elapsed(), Cycles(1000.0));
        assert_eq!(span.max_lane_compute, Cycles(1000.0));
        assert!(!span.dms_bound());
    }

    #[test]
    fn span_dms_serializes_across_lanes() {
        let span = StageSpan::of_lanes(&lanes(4, |l| l.charge_dms(Cycles(100.0), 1200, 1)));
        // 4 lanes' transfers share one engine -> 400 cycles.
        assert_eq!(span.elapsed(), Cycles(400.0));
        assert_eq!(span.dms_total, Cycles(400.0));
        assert!(span.dms_bound());
    }

    #[test]
    fn span_respects_per_lane_overlap() {
        // Each lane: compute 100 beside transfer 60.
        let cm = CostModel::default();
        let span = StageSpan::of_lanes(&lanes(2, |l| {
            l.charge_kernel(&cm, &KernelCost::paired(100.0, 100.0));
            l.charge_dms(Cycles(60.0), 720, 1);
        }));
        // Per-lane elapsed = 100; cross-lane dms sum = 120 > 100.
        assert_eq!(span.max_lane_elapsed, Cycles(100.0));
        assert_eq!(span.elapsed(), Cycles(120.0));
    }

    #[test]
    fn span_behind_a_queued_transfer_only_delays_dms() {
        let mut skewed = lanes(3, |l| l.charge_dms(Cycles(100.0), 1200, 1));
        skewed[1].charge_compute(Cycles(450.0));
        let span = StageSpan::of_lanes(&skewed);
        // Alone: busiest lane 450 over 300 of DMS.
        assert_eq!(span.elapsed(), Cycles(450.0));
        assert_eq!(span.elapsed_behind(Cycles::ZERO), span.elapsed());
        // A delay the compute hides changes nothing; a longer one shows.
        assert_eq!(span.elapsed_behind(Cycles(150.0)), Cycles(450.0));
        assert_eq!(span.elapsed_behind(Cycles(200.0)), Cycles(500.0));
        // An empty stage takes no time.
        assert_eq!(StageSpan::default().elapsed(), Cycles::ZERO);
    }
}
