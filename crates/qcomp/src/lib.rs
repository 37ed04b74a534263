//! # rapid-qcomp — the RAPID query compiler and optimizer (§5.2, §5.3)
//!
//! *QComp* is "a cost-based physical query optimizer working on top of the
//! logical query optimizations by the host database": it takes a logical
//! query tree, resolves names and types against the RAPID catalog, encodes
//! literals into the widened physical domain (DSB mantissas, dictionary
//! codes, epoch days), and emits the physical QEP that `rapid-qef`
//! executes — making the physical choices the paper enumerates:
//!
//! * join-order search over inner-join chains from estimated
//!   cardinalities ([`joinorder`]),
//! * physical operator options (build-side selection, group-by strategy),
//! * predicate ordering from statistics,
//! * encoding/primitive selection (code-range vs code-bitmap string
//!   predicates),
//! * degree of parallelization,
//! * partition schemes from §5.3's heuristics ([`partition_opt`]),
//! * an analytically calibrated cost model ([`cost`]) with derived
//!   per-node column statistics, reused by the host database's offload
//!   decision.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod compiler;
pub mod cost;
pub mod joinorder;
pub mod logical;
pub mod partition_opt;

pub use compiler::{compile, compile_unverified, verify_config, CompileError, Compiled};
pub use cost::{estimate_rows_per_node, CostParams, PlanCost};
pub use joinorder::OptimizeStats;
pub use logical::{LExpr, LPred, LogicalPlan};
