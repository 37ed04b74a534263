//! # rapid-sched — concurrent multi-query scheduling over the shared DPU
//!
//! The engine crates simulate one query at a time owning the whole DPU.
//! This crate adds the missing system layer for RAPID as a *database
//! accelerator*: many sessions sharing one 32-core DPU and its single DMS
//! engine, with admission control in front.
//!
//! | module | contents |
//! |---|---|
//! | [`timeline`] | [`DpuTimeline`]: sim-time placement of stages onto cores + the DMS engine |
//! | [`scheduler`] | [`Scheduler`]: admission queue, priorities, cancellation, the dispatch order |
//! | [`trace`] | [`SchedTrace`]: a run's placement + admission evidence for interference analysis |
//!
//! The scheduler implements [`rapid_qef::exec::StageRouter`]; install it
//! into a forked engine context per session:
//!
//! ```
//! use std::sync::Arc;
//! use rapid_qef::exec::{ExecContext, StageRouter};
//! use rapid_sched::{SchedConfig, Scheduler};
//!
//! let sched = Arc::new(Scheduler::new(SchedConfig::default()));
//! let handle = sched.submit(0, None).unwrap();
//! let router: Arc<dyn StageRouter> = Arc::clone(&sched) as _;
//! let ctx = ExecContext::dpu().with_cores(8).with_router(router, handle.id());
//! // engine.fork(ctx).execute(&plan) now places its stages on the shared
//! // timeline; handle.finish() (or drop) releases the admission slot.
//! ```
//!
//! Invariants the tests pin down:
//!
//! * routing never changes query *results* — only the simulated clock;
//! * a query running alone reproduces the engine-local stage timing stage
//!   by stage, bit for bit: both are [`dpu_sim::account::StageSpan`] over
//!   the lanes the engine ran, the router's with the DMS queue delay of an
//!   idle engine, zero;
//! * of the admitted queries, the one with the smallest
//!   `(ready, -priority, id)` key places next, so the timings of a batch
//!   submitted whole are a pure function of it — bit-identical across runs
//!   regardless of host thread interleaving.

#![warn(missing_docs)]
// Scheduler/server code handles request-shaped data (client frames,
// submitted queries, admission races): a stray unwrap is a
// denial-of-service panic, so escalate the lints outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod scheduler;
pub mod timeline;
pub mod trace;

pub use scheduler::{QueryHandle, QueryStats, SchedConfig, SchedError, SchedReport, Scheduler};
pub use timeline::{DpuTimeline, Placement, PlacementRecord, Utilization};
pub use trace::{AdmissionEvent, SchedTrace};

// Simulated-time units, re-exported so callers passing explicit arrival
// times (see [`Scheduler::submit_at`]) need not depend on `dpu-sim`.
pub use dpu_sim::clock::{Cycles, SimTime};
