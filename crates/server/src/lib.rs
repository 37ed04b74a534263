//! # rapid-server — the SQL wire service in front of the offload engine
//!
//! The paper's RAPID is not a library: it is an offload engine living
//! behind a host RDBMS ("System X") that real client sessions connect to
//! over the network. This crate is that front end for the reproduction — a
//! TCP service over [`hostdb`] with the shared simulated DPU arbitrated by
//! one long-lived `rapid-sched` scheduler:
//!
//! * [`protocol`] — the length-prefixed JSON frame protocol: handshake,
//!   query, prepared-statement prepare/execute/close, out-of-band cancel,
//!   server stats, graceful bye; streamed result-set frames and typed
//!   error frames that preserve [`hostdb::DbError`] kind/message parity
//!   with in-process execution.
//! * [`server`] — thread-per-connection service on `std::net` (the
//!   workspace is offline/vendored, so no async runtime): a connection cap
//!   that sheds load with an explicit "server busy" frame, admission
//!   backpressure wired to the scheduler's bounded queue, per-connection
//!   idle timeouts, per-query execution timeouts, and graceful shutdown
//!   that drains in-flight queries and joins every spawned thread.
//! * [`client`] — a small blocking client used by tests and the
//!   repository benchmark's wire workloads.
//!
//! Run the bundled binaries:
//!
//! ```text
//! cargo run --release -p rapid-server --bin server -- --sf 0.01 --port 7878
//! cargo run --release -p rapid-server --bin sql -- --addr 127.0.0.1:7878 "SELECT 1 AS x"
//! ```

#![warn(missing_docs)]
// Scheduler/server code handles request-shaped data (client frames,
// submitted queries, admission races): a stray unwrap is a
// denial-of-service panic, so escalate the lints outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{CancelToken, Client, ClientError, WireResult};
pub use protocol::{Request, Response, ServerStats, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ShutdownStats};
