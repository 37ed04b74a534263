//! # hostdb — the "System X" substrate (§3 of the paper)
//!
//! RAPID is "pluggable and can attach to an operational relational database
//! for offloading analytical queries". The paper integrates with a
//! commercial RDBMS it calls *System X*; this crate is the from-scratch
//! stand-in:
//!
//! * a **row-store** with SCN-stamped commits ([`store`]),
//! * a small **SQL front end** ([`sql`]) producing the same logical plans
//!   the RAPID compiler consumes,
//! * a **Volcano executor** ([`volcano`]) implementing the classic
//!   `allocate/start/fetch/close/release` iterator contract — the
//!   conventional tuple-at-a-time engine RAPID is compared against,
//! * the **offload planner** ([`offload`]): cost-based full/partial/no
//!   offload decisions, the RAPID placeholder operator with SCN admission
//!   checks, and fallback to local execution,
//! * the assembled database ([`db`]): `LOAD` into RAPID, checkpointing
//!   (a stale table is shipped again from the row store at the host's SCN,
//!   the chunks a commit touched encoded anew and the rest shared, by
//!   admission or by a background thread), and end-to-end `execute_sql`.
//!
//! Exact-decimal arithmetic over [`rapid_storage::types::Value`] lives in
//! [`valmath`] and deliberately mirrors the RAPID compiler's DSB scale
//! rules so the two engines produce comparable numbers — which the
//! differential tests exploit.

#![warn(missing_docs)]
// The request path must convert, not panic (same discipline as rapid-sched
// and rapid-server; ci.sh's scoped clippy sweep evaluates it).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod db;
pub mod offload;
pub mod sql;
pub mod store;
pub mod valmath;
pub mod volcano;

pub use cache::{CacheStats, CachedPlan, PlanCache};
pub use db::{
    BatchOutcome, BatchQuery, DbError, ExecutionSite, ExplainAnalysis, HostDb, PreparedStatement,
    QueryResult,
};
pub use sql::{parse_sql, strip_explain_analyze, strip_explain_verify};
pub use store::{HostTable, RowStore};
