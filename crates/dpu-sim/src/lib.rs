//! # dpu-sim — a functional + timing simulator of the RAPID Data Processing Unit
//!
//! The RAPID paper (Balkesen et al., SIGMOD'18) co-designs an analytical query
//! engine with a custom low-power processor, the **DPU**:
//!
//! * 32 in-order, dual-issue **dpCores** at 800 MHz with a MIPS-like ISA that
//!   includes single-cycle database instructions (`BVLD`, `FILT`, `CRC32`),
//!   a multi-cycle low-power multiplier and *no* floating-point unit,
//! * a 32 KiB software-managed scratchpad (**DMEM**) per core,
//! * a descriptor-programmed **Data Movement System (DMS)** that moves data
//!   between DRAM and DMEM and can hash/range/radix/round-robin partition
//!   rows *while* transferring them,
//! * an **Atomic Transaction Engine (ATE)** crossbar for point-to-point
//!   ordered messaging between cores (no cache coherency), modelled here by
//!   the hop latency a message is charged,
//! * a provisioned power budget of 5.8 W (51 mW dynamic per core).
//!
//! That silicon does not exist outside Oracle Labs, so this crate provides the
//! substitution mandated by the reproduction plan (see `DESIGN.md` at the
//! repository root): a simulator that **executes query primitives on real
//! bytes** while a calibrated cost model accounts for the cycles the DPU
//! would have spent. Simulated elapsed time (and hence energy at the DPU's
//! provisioned power) is derived from those accounts using the same
//! compute/transfer overlap rule the paper's cost model uses.
//!
//! The simulator is *not* cycle-accurate RTL; it is a throughput model whose
//! constants are calibrated against every operating point the paper reports
//! (filter = 1.65 cycles/tuple, DMS ≥ 9 GiB/s at 128-row tiles, hardware
//! partitioning ≈ 9.3 GiB/s, join build ≈ 46 M rows/s/core at 256-row tiles,
//! …). Each calibration point is pinned by a unit test in this crate, except
//! hardware partitioning's: that engine is modelled beside Figure 8 in
//! `rapid-report`, whose tests pin it, until a query stage runs it.
//!
//! ## Module map
//!
//! | module | role |
//! |---|---|
//! | [`clock`] | cycle/time arithmetic at the DPU clock frequency |
//! | [`isa`] | instruction-class latencies and the calibrated [`isa::CostModel`] |
//! | [`account`] | per-core [`account::CycleAccount`] (cycles + event counters) and the stage rule, [`account::StageSpan`]: lane accounts → stage duration |
//! | [`dmem`] | the 32 KiB scratchpad budget allocator |
//! | [`crc32`] | the hardware CRC32 hash engine (software model) |
//! | [`dms`] | descriptor-programmed transfers and their timing |
//! | [`ate`] | the hop latency of a core-to-core message, within or across a macro |
//! | [`power`] | provisioned-power / energy model for perf-per-watt numbers |
//!
//! There is no assembled-DPU type here: a stage runs on the query engine's
//! `rapid_qef::actor::run_stage`, one `CoreCtx` (account + DMEM) per lane,
//! and is timed by [`account::StageSpan`].

#![warn(missing_docs)]

pub mod account;
pub mod ate;
pub mod clock;
pub mod crc32;
pub mod dmem;
pub mod dms;
pub mod isa;
pub mod power;

pub use account::{Counters, CycleAccount, StageSpan};
pub use clock::{Cycles, SimTime};
pub use dmem::{Dmem, DmemError};
pub use isa::{CostModel, KernelCost};
pub use power::PowerModel;
