//! Structured per-stage query tracing.
//!
//! The paper's whole evaluation (§7) is a set of per-stage breakdowns —
//! cycles per operator, DMS bytes moved, energy per query — so the engine
//! emits one [`StageEvent`] per executed pipeline stage, tagged with the
//! (query id, stage id, operator, plan node) it belongs to. A task — a scan
//! and the operators that run in its lanes — is one stage and one event:
//! the event is its topmost operator's and lists the others beneath it
//! ([`StageEvent::fused`]). Events flow to
//! a pluggable [`TraceSink`]; when no sink is installed the engine skips
//! event construction entirely, so tracing is a single `Option` test per
//! *stage* (not per row) when disabled.
//!
//! Reconciliation invariant: `sim_secs` and `wall_secs` of an event are the
//! **identical** `f64`s the engine absorbs into [`QueryReport::sim_secs`]
//! and `wall_secs`, and events are emitted in absorption order, so summing
//! either over a query's events reproduces the report total bit-for-bit
//! (f64 addition in the same order).
//! `EXPLAIN ANALYZE` and `rapid-report trace` both lean on this.
//!
//! [`QueryReport::sim_secs`]: crate::engine::QueryReport

use std::sync::{Arc, Mutex};

use crate::ra::AccessPath;

/// One executed pipeline stage, as observed by the engine.
///
/// Cycle/counter fields are the merge of the stage's per-core
/// [`CycleAccount`]s; `sim_secs` is the stage's contribution to the query's
/// simulated elapsed time (router waiting included when a multi-query
/// scheduler is installed) and `wall_secs` its contribution to the host
/// wall time. Both clocks are read on both backends: a stage's simulated
/// fields are the same bits on either, only `wall_secs` differs.
///
/// [`CycleAccount`]: dpu_sim::account::CycleAccount
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct StageEvent {
    /// Query the stage belongs to.
    pub query_id: u64,
    /// Stage sequence number within the query (emission order).
    pub stage_id: u32,
    /// Plan node the stage implements (pre-order id within the query).
    pub node_id: u32,
    /// Depth of that node in the plan tree (root = 0).
    pub depth: u32,
    /// Operator label, e.g. `"scan"`, `"join.partition-build"`.
    pub operator: String,
    /// Lanes (cores) the stage ran with.
    pub parallelism: usize,
    /// Rows produced by the stage (groups for aggregation stages).
    pub rows: u64,
    /// Simulated elapsed seconds — the exact value absorbed into the
    /// query's `QueryReport`.
    pub sim_secs: f64,
    /// Max per-core compute cycles.
    pub compute_cycles: f64,
    /// Total DMS cycles across cores.
    pub dms_cycles: f64,
    /// Instructions retired across cores.
    pub instructions: u64,
    /// Branches executed across cores.
    pub branches: u64,
    /// Branches mispredicted across cores.
    pub mispredicts: u64,
    /// Bytes moved by DMS descriptor programs.
    pub dms_bytes: u64,
    /// DMS descriptors executed.
    pub dms_descriptors: u64,
    /// Tiles processed by operator control loops.
    pub tiles: u64,
    /// ATE messages sent.
    pub ate_messages: u64,
    /// Max per-core DMEM high-water mark in bytes.
    pub dmem_peak_bytes: u64,
    /// For a stage that scans — a task — how it read its table.
    #[serde(default)]
    pub scan: Option<ScanAccess>,
    /// For a stage that partitions, which round of its pass it ran.
    #[serde(default)]
    pub partition: Option<PartitionRound>,
    /// For the stage that tested a join's probe rows against its join
    /// filter — round one of the probe side's pass, a broadcast join's
    /// `join.probe`, or the task its scan's key pass ran in — how many it
    /// tested and kept.
    #[serde(default)]
    pub filter: Option<FilterKept>,
    /// The operators that ran in this stage's lanes beneath `operator`, in
    /// plan order down to the scan: empty unless the stage is a task of
    /// more than one operator.
    #[serde(default)]
    pub fused: Vec<FusedOp>,
    /// The stage's compute by kernel family, summed over its lanes, in
    /// [`Kernel::ALL`] order: the families it charged nothing are left out.
    ///
    /// [`Kernel::ALL`]: dpu_sim::account::Kernel::ALL
    #[serde(default)]
    pub kernels: Vec<KernelShare>,
    /// Energy at the DPU's provisioned power over `sim_secs`, in joules.
    pub energy_joules: f64,
    /// Host wall-clock seconds since the stage before it was absorbed (or
    /// the query began) — the exact value absorbed into the query's
    /// `QueryReport::wall_secs`.
    pub wall_secs: f64,
}

/// An operator of a task beneath the one its event is named for.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FusedOp {
    /// Plan node the operator implements (pre-order id within the query).
    pub node_id: u32,
    /// Depth of that node in the plan tree.
    pub depth: u32,
    /// Operator label, e.g. `"map"`, `"scan(lineitem)"`.
    pub operator: String,
    /// Rows it handed to the operator above it, over all lanes.
    pub rows: u64,
    /// Bytes its descriptor programs moved, of the stage's `dms_bytes`: the
    /// scan's share of a task's traffic is its own line's.
    #[serde(default)]
    pub dms_bytes: u64,
}

/// What one kernel family was charged in a stage (see
/// [`dpu_sim::account::KernelSplit`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KernelShare {
    /// The family's name, e.g. `"mul"`, `"group-slot"`.
    pub kernel: String,
    /// Compute cycles, summed over the stage's lanes.
    pub cycles: f64,
    /// Instructions retired, summed over the stage's lanes.
    pub instructions: u64,
}

impl KernelShare {
    /// The families of `split` that were charged anything, in order.
    pub fn of(split: &dpu_sim::account::KernelSplit) -> Vec<KernelShare> {
        split
            .iter()
            .filter(|(_, t)| t.cycles != 0.0 || t.instructions != 0)
            .map(|(k, t)| KernelShare {
                kernel: k.name().to_string(),
                cycles: t.cycles,
                instructions: t.instructions,
            })
            .collect()
    }
}

/// How a scan read its table (see [`crate::ops::filter::ScanPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ScanAccess {
    /// The relation-accessor pattern its chunks were read by.
    pub path: AccessPath,
    /// Trips through the DMS per run of rows: one on the stream path, the
    /// predicate passes, the key pass and the projection's gather on the
    /// gather path.
    pub passes: u32,
    /// Whether one of the passes is the key pass: the scan tested its
    /// task's join filter.
    #[serde(default)]
    pub keyed: bool,
    /// Chunks of the table the scan did not read: its predicate's zone
    /// maps ruled them out ([`crate::ops::filter::chunk_run`]).
    #[serde(default)]
    pub pruned: u32,
}

/// Which round of a partition pass a stage ran (see
/// [`crate::ops::partition::partition_pass`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PartitionRound {
    /// The round, from 1.
    pub round: u32,
    /// Rounds the pass ran as stages. A pass of at most one tile runs its
    /// whole scheme as one item of one stage: round 1 of 1.
    pub rounds: u32,
    /// Partitions the stage made of each one it read: the round's fan-out,
    /// or the product of the scheme where one stage ran all of it.
    pub fanout: u32,
}

/// What a join filter kept of the probe rows a stage tested (see
/// [`crate::ops::join_filter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FilterKept {
    /// Rows the stage tested.
    pub tested: u64,
    /// Rows whose bit was set: the ones it partitioned or probed.
    pub kept: u64,
}

impl StageEvent {
    /// Every operator that ran in the stage, topmost first, as `(node id,
    /// depth, label, rows it handed on)`: the event's own, then the fused
    /// ones down to the scan.
    pub fn operators(&self) -> impl Iterator<Item = (u32, u32, &str, u64)> {
        let own = (self.node_id, self.depth, self.operator.as_str(), self.rows);
        let fused = self.fused.iter();
        let fused = fused.map(|op| (op.node_id, op.depth, op.operator.as_str(), op.rows));
        std::iter::once(own).chain(fused)
    }

    /// The DMS bytes of the stage's scan, where it has one: the whole of a
    /// lone scan's traffic, the scan's share of a task's.
    pub fn scan_dms_bytes(&self) -> Option<u64> {
        self.scan?;
        let fused = self
            .fused
            .iter()
            .find(|op| op.operator.starts_with("scan("));
        Some(fused.map_or(self.dms_bytes, |scan| scan.dms_bytes))
    }

    /// The event with host-side wall-clock zeroed — the deterministic
    /// portion compared bit-for-bit across runs of a scheduled batch.
    pub fn deterministic_view(&self) -> StageEvent {
        StageEvent {
            wall_secs: 0.0,
            ..self.clone()
        }
    }
}

/// Receives stage events. Implementations must tolerate concurrent calls —
/// sessions of a multi-query batch trace into one sink from their own
/// threads.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Record one completed stage.
    fn record(&self, event: StageEvent);
}

/// A sink that buffers events in memory, for `EXPLAIN ANALYZE`, tests, and
/// `rapid-report trace`.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<StageEvent>>,
}

impl MemorySink {
    /// A fresh shared sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Drain all buffered events in canonical order: sorted by
    /// (query_id, stage_id). Within a query, stage ids follow emission
    /// order, so per-query event order is exactly absorption order; the
    /// sort only makes the interleaving of concurrent queries canonical.
    pub fn take(&self) -> Vec<StageEvent> {
        let mut events = std::mem::take(&mut *self.lock());
        events.sort_by_key(|e| (e.query_id, e.stage_id));
        events
    }

    /// Number of events buffered so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<StageEvent>> {
        // A panicking session must not wedge tracing for the others.
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: StageEvent) {
        self.lock().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(query_id: u64, stage_id: u32) -> StageEvent {
        StageEvent {
            query_id,
            stage_id,
            operator: "scan".into(),
            sim_secs: 1e-6,
            wall_secs: 0.125,
            ..Default::default()
        }
    }

    #[test]
    fn memory_sink_drains_in_canonical_order() {
        let sink = MemorySink::new();
        sink.record(ev(2, 0));
        sink.record(ev(1, 1));
        sink.record(ev(1, 0));
        assert_eq!(sink.len(), 3);
        let order: Vec<_> = sink
            .take()
            .iter()
            .map(|e| (e.query_id, e.stage_id))
            .collect();
        assert_eq!(order, vec![(1, 0), (1, 1), (2, 0)]);
        assert!(sink.is_empty());
    }

    #[test]
    fn deterministic_view_zeroes_only_wall_clock() {
        let e = ev(1, 0);
        let d = e.deterministic_view();
        assert_eq!(d.wall_secs, 0.0);
        assert_eq!(d.sim_secs, e.sim_secs);
        assert_eq!(d.operator, e.operator);
    }

    #[test]
    fn events_round_trip_through_json() {
        let e = ev(7, 3);
        let json = serde_json::to_string(&e).unwrap();
        let back: StageEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
