//! # rapid-qef — the RAPID Query Execution Framework (§5, §6)
//!
//! The QEF provides the four properties §5.1 of the paper calls out:
//!
//! 1. **push-based execution** — data is pushed tile-by-tile through the
//!    operators of a task; only task boundaries materialize to DRAM,
//! 2. **an actor model for parallelism** — cores communicate by explicit
//!    messages (no shared mutable state, matching the non-coherent caches),
//! 3. **hardware-aware design** — operators declare DMEM needs, consume
//!    data through the relation accessor (which programs the DMS), and
//!    charge the simulated cost model for every kernel,
//! 4. **vectorized processing** — primitives are type-specialized, tight,
//!    branch-free loops over column vectors ("multiple rows at a time" in
//!    the MonetDB/X100 sense, not SIMD).
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`batch`] | the tile of column vectors flowing between operators |
//! | [`budget`] | shared DMEM working-set math: task and tile fitting, fan-out caps |
//! | [`exec`] | execution context: backend (where a stage's lanes run: simulated dpCores or OS threads), core handle, [`StageRouter`](exec::StageRouter) hook |
//! | [`expr`] | vectorized scalar expressions and predicates |
//! | [`primitives`] | the generated primitive library (filter, arithmetic, hash, partition map, aggregation) |
//! | [`ra`] | the relation accessor: sequential/gather DMS access patterns |
//! | [`selectivity`] | predicate selectivity from column statistics, shared with the compiler's cost model |
//! | [`ops`] | data processing operators: filter, partition, hash join, group-by, top-k, sort, window, set ops |
//! | [`plan`] | the serializable physical query execution plan (QEP) |
//! | [`task`] | which operators of a plan run as one stage: scan-fed chains, the marked edges into their consumers, what each operator declares against DMEM |
//! | [`engine`] | the plan interpreter driving tasks across dpCores |
//! | [`actor`] | the stage runner: a stage's lanes on either backend, folded into one simulated timing |
//!
//! An engine normally owns the whole simulated DPU. For concurrent
//! multi-query execution, [`Engine::fork`](engine::Engine::fork) a
//! per-session context carrying a [`StageRouter`](exec::StageRouter) —
//! the `rapid-sched` crate's scheduler implements it to interleave stages
//! from many queries on one shared simulated DPU.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod actor;
pub mod batch;
pub mod budget;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod ops;
pub mod plan;
pub mod primitives;
pub mod ra;
pub mod selectivity;
pub mod task;
pub mod trace;
pub mod util;

pub use batch::Batch;
pub use engine::{Engine, QueryOutput, QueryReport};
pub use error::{QefError, QefResult};
pub use exec::{Backend, ExecContext, StageAbort, StageProfile, StageRouter};
pub use plan::PlanNode;
pub use trace::{MemorySink, StageEvent, TraceSink};
