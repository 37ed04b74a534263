//! Execution contexts: one engine under two configurations.
//!
//! The same operator code runs on both backends — that is the point of the
//! paper's Figure 16 ("RAPID software is also amenable to better
//! performance on x86"). On both, every primitive charges the calibrated
//! cost model into its core's [`CycleAccount`], and every stage is timed on
//! both clocks: simulated cycles and host wall time. The backend decides
//! one thing only, where a stage's lanes run (see [`crate::actor`]):
//!
//! * [`Backend::Dpu`] — one after another on simulated dpCores;
//! * [`Backend::Native`] — each on an OS thread of the host.
//!
//! So a query returns the same rows and the same simulated series on both;
//! only the host wall clock differs.

use std::sync::{Arc, OnceLock};

use dpu_sim::account::{CycleAccount, Kernel, KernelSplit};
use dpu_sim::clock::Cycles;
use dpu_sim::dmem::Dmem;
use dpu_sim::dms::engine::{DmsCost, DmsEngine};
use dpu_sim::isa::{CostModel, KernelCost};

use crate::trace::TraceSink;

/// Where a stage's lanes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The simulated RAPID DPU: the lanes run in sequence, one simulated
    /// dpCore each, and the query reports simulated time.
    Dpu,
    /// Native x86: each lane runs on an OS thread, and the query reports
    /// host wall time. The DMEM budget shapes operator buffers and the cost
    /// model is charged exactly as on the DPU.
    Native,
}

/// Cost profile of one executed stage, handed to a [`StageRouter`] for
/// placement on a timeline shared with other queries.
///
/// The actor runner hands over one [`CycleAccount`] per lane, exactly the
/// lanes the stage rule folds when the engine owns the DPU alone; the router
/// decides only *when* the stage's cores and its slice of the single shared
/// DMS engine run, and answers with the stage's duration as observed by the
/// query — waiting for resources included.
#[derive(Debug, Clone)]
pub struct StageProfile {
    /// Query the stage belongs to (see [`ExecContext::with_router`]).
    pub query_id: u64,
    /// Accrued cost per lane: `min(ctx.cores, items)` lanes, at least 1.
    pub lanes: Vec<CycleAccount>,
    /// Max per-lane DMEM high-water mark in bytes. The engine's budget
    /// allocator is a bump arena from offset 0, so `[0, dmem_peak)` is
    /// exactly the DMEM region the stage's descriptor programs touch on
    /// each granted core — the schedule interference analyzer uses it as
    /// the stage's live span.
    pub dmem_peak: u64,
}

/// A stage refused by the router: the query was cancelled, timed out, or
/// evicted by admission control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageAbort {
    /// Human-readable reason.
    pub reason: String,
}

/// Places pipeline stages of concurrent queries onto the shared DPU.
///
/// When installed in an [`ExecContext`], the timing of every simulated
/// stage is delegated to the router instead of being read off the stage
/// rule, [`dpu_sim::account::StageSpan`], directly. A router applies the
/// same rule *within* a stage (`elapsed_behind` the DMS queue, where the
/// engine alone calls `elapsed`) but decides when the stage's gang of cores
/// and its DMS transfers fit on a timeline shared by all concurrent queries
/// (implemented by the `rapid-sched` crate). Routing never changes query
/// results — only the simulated clock.
pub trait StageRouter: Send + Sync + std::fmt::Debug {
    /// Place one stage; returns its duration in cycles as observed by the
    /// query (resource waiting included), or an abort.
    fn route_stage(&self, profile: &StageProfile) -> Result<Cycles, StageAbort>;
}

/// Shared, immutable execution configuration.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Backend selection.
    pub backend: Backend,
    /// Calibrated cost model: what every core charges, and what cost-aware
    /// operator decisions weigh.
    pub cost_model: Arc<CostModel>,
    /// Number of cores to parallelize across.
    pub cores: usize,
    /// DMEM capacity per core in bytes.
    pub dmem_bytes: usize,
    /// Default tile size in rows.
    pub tile_rows: usize,
    /// Vectorized execution on (Figure 13's ablation switch). When off,
    /// primitives run row-at-a-time with per-row dispatch overhead.
    pub vectorized: bool,
    /// Multi-query stage router. `None` means this engine owns the DPU
    /// alone and stages are timed by the local stage rule.
    pub router: Option<Arc<dyn StageRouter>>,
    /// Query id stamped into [`StageProfile`]s when a router is installed.
    pub query_id: u64,
    /// Stage-event sink. `None` (the default) disables tracing: the engine
    /// then skips event construction, leaving one `Option` test per stage.
    pub trace: Option<Arc<dyn TraceSink>>,
}

impl ExecContext {
    /// Context for the full simulated DPU: the one place its core count,
    /// DMEM and default tile are written. The default configurations of the
    /// compiler, verifier and scheduler are derived from it, some of them
    /// once per statement, so it shares one default cost model and
    /// allocates nothing.
    pub fn dpu() -> Self {
        static DEFAULT_COST_MODEL: OnceLock<Arc<CostModel>> = OnceLock::new();
        ExecContext {
            backend: Backend::Dpu,
            cost_model: Arc::clone(DEFAULT_COST_MODEL.get_or_init(Arc::default)),
            cores: 32,
            dmem_bytes: dpu_sim::dmem::DMEM_BYTES,
            tile_rows: 256,
            vectorized: true,
            router: None,
            query_id: 0,
            trace: None,
        }
    }

    /// Context for native execution with `cores` worker threads.
    pub fn native(cores: usize) -> Self {
        ExecContext {
            backend: Backend::Native,
            cores: cores.max(1),
            ..Self::dpu()
        }
    }

    /// Override the tile size.
    pub fn with_tile_rows(mut self, rows: usize) -> Self {
        self.tile_rows = rows.max(1);
        self
    }

    /// Override the core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores.max(1);
        self
    }

    /// Toggle vectorized execution.
    pub fn with_vectorized(mut self, on: bool) -> Self {
        self.vectorized = on;
        self
    }

    /// Install a multi-query stage router; stages executed under this
    /// context are placed on the router's shared timeline as `query_id`.
    pub fn with_router(mut self, router: Arc<dyn StageRouter>, query_id: u64) -> Self {
        self.router = Some(router);
        self.query_id = query_id;
        self
    }

    /// Install a stage-event sink; stages executed under this context emit
    /// one [`crate::trace::StageEvent`] each.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// A DMS engine over this context's cost model.
    pub fn dms(&self) -> DmsEngine {
        DmsEngine::new((*self.cost_model).clone())
    }
}

/// Per-core execution handle: the thing primitives charge and allocate on.
#[derive(Debug)]
pub struct CoreCtx {
    /// Core id within the stage (0-based).
    pub core_id: usize,
    /// Cost model reference.
    pub cost_model: Arc<CostModel>,
    /// This core's cycle account (read back by the engine per stage).
    pub account: CycleAccount,
    /// The compute this core charged, by kernel family (read back with the
    /// account; kept here, not in it, so the per-item accounts a router
    /// takes stay as small as they were).
    pub kernels: KernelSplit,
    /// This core's DMEM budget handle.
    pub dmem: Dmem,
    /// Whether primitives run vectorized (see [`ExecContext::vectorized`]).
    pub vectorized: bool,
}

impl CoreCtx {
    /// A fresh core context for `core_id` under `ctx`.
    pub fn new(ctx: &ExecContext, core_id: usize) -> Self {
        CoreCtx {
            core_id,
            cost_model: Arc::clone(&ctx.cost_model),
            account: CycleAccount::new(),
            kernels: KernelSplit::default(),
            dmem: Dmem::with_capacity(ctx.dmem_bytes),
            vectorized: ctx.vectorized,
        }
    }

    /// Charge a kernel's measured operation counts, tagged with the kernel
    /// family it belongs to.
    #[inline]
    pub fn charge_kernel(&mut self, kernel: Kernel, cost: &KernelCost) {
        let t = self.account.charge_kernel(&self.cost_model, cost);
        self.kernels.add(kernel, t.cycles, t.instructions);
    }

    /// Charge the per-tile operator control-flow overhead.
    #[inline]
    pub fn charge_tile(&mut self) {
        self.account.charge_tile_overhead(&self.cost_model);
        let cycles = self.cost_model.per_tile_overhead_cycles;
        self.kernels.add(Kernel::TileControl, cycles, 0);
    }

    /// Charge an ATE message send of `cycles`.
    #[inline]
    pub fn charge_ate(&mut self, cycles: Cycles) {
        self.account.charge_ate(cycles);
        self.kernels.add(Kernel::Other, cycles.get(), 0);
    }

    /// Charge a DMS transfer attributed to this core's descriptor loops.
    #[inline]
    pub fn charge_dms(&mut self, cost: &DmsCost) {
        self.account
            .charge_dms(Cycles(cost.cycles), cost.bytes, cost.descriptors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpu_context_defaults_match_hardware() {
        let ctx = ExecContext::dpu();
        assert_eq!(ctx.cores, 32);
        assert_eq!(ctx.dmem_bytes, 32 * 1024);
        assert!(ctx.vectorized);
    }

    #[test]
    fn a_native_core_charges_what_a_dpu_core_charges() {
        let charge = |ctx: &ExecContext| {
            let mut core = CoreCtx::new(ctx, 0);
            core.charge_kernel(Kernel::Mul, &KernelCost::paired(100.0, 100.0));
            core.charge_tile();
            core.charge_ate(Cycles(40.0));
            let transfer = DmsCost {
                cycles: 60.0,
                bytes: 4096,
                descriptors: 2,
            };
            core.charge_dms(&transfer);
            core
        };
        let seen = |core: CoreCtx| {
            let a = &core.account;
            let cycles = [a.compute_cycles(), a.dms_cycles(), a.elapsed_cycles()];
            (
                cycles.map(|c| c.get().to_bits()),
                *a.counters(),
                core.kernels,
            )
        };
        let dpu = seen(charge(&ExecContext::dpu()));
        assert!(dpu.1.instructions > 0 && dpu.1.dms_bytes > 0);
        assert_eq!(seen(charge(&ExecContext::native(4))), dpu);
    }

    #[test]
    fn dpu_backend_charges() {
        let ctx = ExecContext::dpu();
        let mut core = CoreCtx::new(&ctx, 0);
        core.charge_kernel(Kernel::Mul, &KernelCost::paired(100.0, 100.0));
        assert!((core.account.compute_cycles().get() - 100.0).abs() < 1e-9);
        core.charge_tile();
        assert_eq!(core.account.counters().tiles, 1);
        // The core tallies each charge to its kernel.
        assert_eq!(core.kernels.get(Kernel::Mul).cycles, 100.0);
        assert_eq!(core.kernels.get(Kernel::Mul).instructions, 200);
        let tiles = core.kernels.get(Kernel::TileControl).cycles;
        assert_eq!(tiles, core.cost_model.per_tile_overhead_cycles);
    }

    #[test]
    fn builder_style_overrides() {
        let ctx = ExecContext::dpu()
            .with_tile_rows(512)
            .with_cores(8)
            .with_vectorized(false);
        assert_eq!(ctx.tile_rows, 512);
        assert_eq!(ctx.cores, 8);
        assert!(!ctx.vectorized);
    }
}
