//! The schedule trace: everything a completed (or in-flight) scheduler
//! run exposes to the interference analyzer in `rapid-verify`.
//!
//! A [`SchedTrace`] is evidence, not state: placement records from the
//! [`DpuTimeline`](crate::timeline::DpuTimeline) history plus the
//! admission edges the [`Scheduler`](crate::scheduler::Scheduler) logged.
//! The analyzer rebuilds the happens-before order from three edge
//! families:
//!
//! * **program order** — placements of one query, by
//!   [`PlacementRecord::seq`](crate::timeline::PlacementRecord::seq);
//! * **resource order** — placements sharing a core (or the single DMS
//!   engine), by time;
//! * **admission order** — a query promoted into a freed slot starts
//!   after the finisher's last placement ([`AdmissionEvent::after`]).

use dpu_sim::clock::Cycles;

use crate::timeline::PlacementRecord;

/// One query entering the active set.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionEvent {
    /// The admitted query.
    pub query_id: u64,
    /// The finished query whose released slot admitted this one; `None`
    /// when the query was admitted directly at submission (a slot was
    /// free), which creates no happens-before edge.
    pub after: Option<u64>,
    /// Simulated instant the admission took effect.
    pub at: Cycles,
}

/// Snapshot of a scheduler run for interference analysis.
#[derive(Debug, Clone)]
pub struct SchedTrace {
    /// Physical cores of the shared DPU.
    pub cores: usize,
    /// Per-core DMEM scratchpad capacity in bytes.
    pub dmem_bytes: u64,
    /// Admission slots (`max_active`).
    pub max_active: usize,
    /// Retained placements in placement order (the most recent window
    /// when the timeline history ring is capped).
    pub placements: Vec<PlacementRecord>,
    /// Admission events, in admission order (capped like the placements).
    pub admissions: Vec<AdmissionEvent>,
    /// Records evicted from the capped history rings (placements,
    /// admissions, finished queries); when nonzero the analyzer is looking
    /// at a truncated window and edges to evicted placements are skipped
    /// rather than reported.
    pub history_dropped: u64,
}
