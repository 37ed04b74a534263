//! The multi-query scheduler: bounded admission, priorities, cancellation,
//! and one dispatch order over one [`DpuTimeline`].
//!
//! Sessions [`submit`](Scheduler::submit) queries and receive a
//! [`QueryHandle`]; each session then executes its query on its own OS
//! thread with the scheduler installed as the engine's
//! [`StageRouter`]. Host threads run concurrently — only the *simulated*
//! clock is arbitrated here:
//!
//! * **Admission control** — at most `max_active` queries occupy the DPU;
//!   up to `queue_capacity` more wait in a priority queue, and submission
//!   beyond that is refused (backpressure). Each query can carry a
//!   wall-clock timeout and can be cancelled from any thread.
//! * **Dispatch order** — of the admitted queries, the one with the
//!   smallest `(ready, -priority, id)` key places its next stage; a stage
//!   request of any other query waits. A query's `ready` moves only when it
//!   places, so a query still working on the host cannot later ask for an
//!   earlier slot than its key says, and nobody waits for it to ask. The
//!   placement sequence — and therefore every simulated timing — is a pure
//!   function of the queries and their arrivals, independent of host
//!   thread scheduling, once they are submitted: a batch submitted whole
//!   repeats bit for bit, while an open stream (a server's sessions)
//!   places a late submission behind what was placed before it arrived.
//!   A finished query keeps its slot until its key comes up, so slots free
//!   in the order the queries complete in simulated time, not the order
//!   their threads end. The lanes of a stage are the engine's, so they too
//!   are the same in every schedule.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dpu_sim::clock::{Cycles, SimTime};
use dpu_sim::isa::CostModel;
use rapid_qef::exec::{ExecContext, StageAbort, StageProfile, StageRouter};

use crate::timeline::{DpuTimeline, Utilization};
use crate::trace::{AdmissionEvent, SchedTrace};

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Queries allowed on the DPU concurrently (admission slots).
    pub max_active: usize,
    /// Queries allowed to wait for admission; submission past this bound
    /// is refused with [`SchedError::QueueFull`].
    pub queue_capacity: usize,
    /// Per-core DMEM scratchpad capacity in bytes — the budget the
    /// interference analyzer checks placements against. Must match the
    /// engine contexts routing stages here (both default to the
    /// hardware's 32 KiB).
    pub dmem_bytes: u64,
    /// Records retained of each kind — placements, admissions and finished
    /// queries (their [`QueryStats`] and completion times); 0 (the default)
    /// keeps everything. Long-lived servers set a cap so soak runs don't
    /// grow without bound; evictions are counted, not silent.
    pub history_cap: usize,
    /// Cost model used to convert cycles into reported simulated time.
    pub cost_model: CostModel,
}

impl Default for SchedConfig {
    fn default() -> Self {
        let dpu = ExecContext::dpu();
        SchedConfig {
            max_active: 8,
            queue_capacity: 64,
            dmem_bytes: dpu.dmem_bytes as u64,
            history_cap: 0,
            cost_model: (*dpu.cost_model).clone(),
        }
    }
}

/// Scheduler-side errors surfaced to sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The admission queue is full; try again later (backpressure).
    QueueFull {
        /// The configured waiting-queue bound that was hit.
        capacity: usize,
    },
    /// The query was cancelled via [`QueryHandle::cancel`].
    Cancelled,
    /// The query's wall-clock timeout expired.
    TimedOut,
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} waiting queries)")
            }
            SchedError::Cancelled => write!(f, "query cancelled"),
            SchedError::TimedOut => write!(f, "query timed out"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Final accounting for one query.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Scheduler-assigned query id (submission order).
    pub query_id: u64,
    /// Priority it ran with (higher is served first).
    pub priority: u8,
    /// Stages the scheduler placed for it.
    pub stages: usize,
    /// Simulated time spent waiting for admission.
    pub queued: SimTime,
    /// Simulated latency from submission to completion (queueing included).
    pub latency: SimTime,
    /// Simulated instant the query completed.
    pub completed_at: SimTime,
    /// Why the query aborted, if it did not run to completion.
    pub aborted: Option<String>,
}

/// Snapshot of finished queries plus whole-DPU utilization.
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// Per-query stats, ordered by query id (the most recently finished
    /// `history_cap` when the scheduler's history is capped).
    pub queries: Vec<QueryStats>,
    /// Queries finished over the scheduler's life, evicted records
    /// included.
    pub finished: u64,
    /// Core/DMS occupancy and energy over everything placed so far.
    pub utilization: Utilization,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Waiting,
    Active,
    /// Its session is done with it, but it keeps its slot until its key is
    /// the smallest: slots free in simulated-completion order.
    Leaving,
    Done,
}

#[derive(Debug)]
struct QueryState {
    priority: u8,
    phase: Phase,
    /// The query's own simulated clock: when its next stage may start.
    ready: Cycles,
    submitted_at: Cycles,
    admitted_at: Cycles,
    stages: usize,
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

#[derive(Debug)]
struct Inner {
    timeline: DpuTimeline,
    queries: HashMap<u64, QueryState>,
    next_id: u64,
    /// Admitted queries, in admission order: the ones a stage waits for.
    active: Vec<u64>,
    waiting: usize,
    /// Stats of finished queries in completion order, a ring capped like
    /// the timeline history; a query evicted here leaves `queries` too.
    finished: VecDeque<QueryStats>,
    /// Queries ever finished, evicted ones included.
    finished_total: u64,
    /// Admission log for the interference analyzer, capped the same way.
    admissions: VecDeque<AdmissionEvent>,
    /// Finished-query and admission records evicted from their rings.
    records_dropped: u64,
}

impl Inner {
    fn log_admission(&mut self, ev: AdmissionEvent, cap: usize) {
        self.admissions.push_back(ev);
        if cap > 0 && self.admissions.len() > cap {
            self.admissions.pop_front();
            self.records_dropped += 1;
        }
    }

    /// Record a finished query, forgetting the oldest finished one — its
    /// stats and its completion time — past the cap.
    fn log_finished(&mut self, stats: QueryStats, cap: usize) {
        self.finished.push_back(stats);
        self.finished_total += 1;
        if cap > 0 && self.finished.len() > cap {
            if let Some(old) = self.finished.pop_front() {
                self.queries.remove(&old.query_id);
            }
            self.records_dropped += 1;
        }
    }
}

/// The concurrent multi-query scheduler owning the simulated DPU.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedConfig,
    inner: Mutex<Inner>,
    cv: Condvar,
}

/// A submitted query's handle: identity, cancellation, and completion.
///
/// Dropping the handle marks the query finished (releasing its admission
/// slot), so sessions cannot leak slots on error paths.
#[derive(Debug)]
pub struct QueryHandle {
    id: u64,
    sched: Arc<Scheduler>,
    cancelled: Arc<AtomicBool>,
    finished: AtomicBool,
}

impl Scheduler {
    /// A scheduler over an idle DPU: the physical dpCores of
    /// [`ExecContext::dpu`].
    pub fn new(cfg: SchedConfig) -> Scheduler {
        let timeline = DpuTimeline::new(ExecContext::dpu().cores).with_history_cap(cfg.history_cap);
        Scheduler {
            cfg,
            inner: Mutex::new(Inner {
                timeline,
                queries: HashMap::new(),
                next_id: 0,
                active: Vec::new(),
                waiting: 0,
                finished: VecDeque::new(),
                finished_total: 0,
                admissions: VecDeque::new(),
                records_dropped: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Submit a query. Returns immediately: the query is either admitted
    /// (slot free) or queued by `(priority desc, id asc)`; a full queue is
    /// refused. `timeout` is a wall-clock bound on the whole query.
    ///
    /// The query's simulated arrival is the current timeline makespan — a
    /// conservative mapping that serializes a closed-loop stream of
    /// submissions behind everything already placed. Streams that know
    /// their own simulated history (wire sessions) should use
    /// [`submit_at`](Self::submit_at) instead.
    pub fn submit(
        self: &Arc<Self>,
        priority: u8,
        timeout: Option<Duration>,
    ) -> Result<QueryHandle, SchedError> {
        self.submit_at(priority, timeout, None)
    }

    /// Submit a query with an explicit simulated arrival time.
    ///
    /// `arrival` is where this query's clock starts on the shared
    /// timeline; placement never starts a stage before it (contention can
    /// only delay). A closed-loop session passes the completion time of
    /// its *own* previous query (see
    /// [`completion_cycles`](Self::completion_cycles)), so N independent
    /// sessions overlap in simulated time exactly like N clients sharing
    /// one DPU — rather than serializing behind the global makespan.
    /// `None` falls back to the conservative makespan arrival.
    pub fn submit_at(
        self: &Arc<Self>,
        priority: u8,
        timeout: Option<Duration>,
        arrival: Option<Cycles>,
    ) -> Result<QueryHandle, SchedError> {
        let mut inner = self.lock();
        if inner.active.len() >= self.cfg.max_active && inner.waiting >= self.cfg.queue_capacity {
            return Err(SchedError::QueueFull {
                capacity: self.cfg.queue_capacity,
            });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let now = arrival.unwrap_or_else(|| inner.timeline.makespan());
        let admit = inner.active.len() < self.cfg.max_active;
        let cancelled = Arc::new(AtomicBool::new(false));
        inner.queries.insert(
            id,
            QueryState {
                priority,
                phase: if admit { Phase::Active } else { Phase::Waiting },
                ready: now,
                submitted_at: now,
                admitted_at: now,
                stages: 0,
                cancelled: Arc::clone(&cancelled),
                deadline: timeout.map(|t| Instant::now() + t),
            },
        );
        if admit {
            inner.active.push(id);
            inner.log_admission(
                AdmissionEvent {
                    query_id: id,
                    after: None,
                    at: now,
                },
                self.cfg.history_cap,
            );
        } else {
            inner.waiting += 1;
        }
        self.cv.notify_all();
        Ok(QueryHandle {
            id,
            sched: Arc::clone(self),
            cancelled,
            finished: AtomicBool::new(false),
        })
    }

    /// Simulated completion time (cycles) of a query its session has
    /// finished, or `None` while it is still live or the id is unknown —
    /// never submitted, or finished more than `history_cap` queries ago.
    /// This is what a closed-loop session feeds back into
    /// [`submit_at`](Self::submit_at) as its next query's arrival.
    pub fn completion_cycles(&self, id: u64) -> Option<Cycles> {
        let inner = self.lock();
        inner
            .queries
            .get(&id)
            .filter(|q| matches!(q.phase, Phase::Leaving | Phase::Done))
            .map(|q| q.ready)
    }

    /// Cancel a query by scheduler id from any thread (out-of-band cancel:
    /// a wire service maps a client's cancel request to the target
    /// session's live query id). Returns `true` if the query was still
    /// live — waiting or active — and its flag was raised; `false` if the
    /// id is unknown or already finished. The owning session observes the
    /// flag at its next stage boundary, exactly as with
    /// [`QueryHandle::cancel`].
    pub fn cancel(&self, id: u64) -> bool {
        let inner = self.lock();
        let live = inner
            .queries
            .get(&id)
            .filter(|q| matches!(q.phase, Phase::Waiting | Phase::Active))
            .map(|q| Arc::clone(&q.cancelled));
        drop(inner);
        match live {
            Some(flag) => {
                flag.store(true, Ordering::Relaxed);
                self.cv.notify_all();
                true
            }
            None => false,
        }
    }

    /// Snapshot: finished queries (by id) plus whole-DPU utilization.
    /// Whether the schedule behind it was interference-free is a question
    /// for `rapid_verify::schedcheck::check_trace` on
    /// [`schedule_trace`](Self::schedule_trace).
    pub fn report(&self) -> SchedReport {
        let inner = self.lock();
        let mut queries: Vec<QueryStats> = inner.finished.iter().cloned().collect();
        queries.sort_by_key(|q| q.query_id);
        let (finished, utilization) = self.totals_locked(&inner);
        SchedReport {
            queries,
            finished,
            utilization,
        }
    }

    /// Queries finished so far and whole-DPU utilization: the
    /// [`report`](Self::report) without its per-query records, in O(cores)
    /// — what a server's STATS frame reads.
    pub fn totals(&self) -> (u64, Utilization) {
        self.totals_locked(&self.lock())
    }

    fn totals_locked(&self, inner: &Inner) -> (u64, Utilization) {
        let utilization = inner.timeline.utilization(&self.cfg.cost_model);
        (inner.finished_total, utilization)
    }

    /// The run's schedule trace so far: placement records plus admission
    /// events, the input to `rapid-verify`'s interference analyzer.
    pub fn schedule_trace(&self) -> SchedTrace {
        let inner = self.lock();
        SchedTrace {
            cores: inner.timeline.cores(),
            dmem_bytes: self.cfg.dmem_bytes,
            max_active: self.cfg.max_active,
            placements: inner.timeline.placements(),
            admissions: inner.admissions.iter().copied().collect(),
            history_dropped: inner.timeline.history_dropped() + inner.records_dropped,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(
        &self,
        guard: MutexGuard<'a, Inner>,
        deadline: Option<Instant>,
    ) -> MutexGuard<'a, Inner> {
        match deadline {
            None => self.cv.wait(guard).unwrap_or_else(|e| e.into_inner()),
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return guard; // caller re-checks the deadline
                }
                self.cv
                    .wait_timeout(guard, remaining)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
        }
    }

    /// Cancel/timeout check for one query.
    fn abort_reason(q: &QueryState) -> Option<String> {
        if q.cancelled.load(Ordering::Relaxed) {
            return Some("cancelled".into());
        }
        if let Some(d) = q.deadline {
            if Instant::now() >= d {
                return Some("timed out".into());
            }
        }
        None
    }

    /// Promote waiters into freed slots at simulated instant `at`.
    /// `after` names the finished query whose release triggered the
    /// promotion — the happens-before edge the admission log records.
    fn promote_locked(&self, inner: &mut Inner, at: Cycles, after: Option<u64>) {
        while inner.active.len() < self.cfg.max_active {
            let next = inner
                .queries
                .iter()
                .filter(|(_, q)| q.phase == Phase::Waiting)
                .min_by(|(ida, qa), (idb, qb)| {
                    (u8::MAX - qa.priority, *ida).cmp(&(u8::MAX - qb.priority, *idb))
                })
                .map(|(&id, _)| id);
            let Some(id) = next else { break };
            let Some(q) = inner.queries.get_mut(&id) else {
                break;
            };
            q.phase = Phase::Active;
            q.admitted_at = at.max(q.submitted_at);
            q.ready = q.admitted_at;
            let admitted_at = q.admitted_at;
            inner.waiting -= 1;
            inner.active.push(id);
            inner.log_admission(
                AdmissionEvent {
                    query_id: id,
                    after,
                    at: admitted_at,
                },
                self.cfg.history_cap,
            );
        }
    }

    /// The admitted query whose next stage places first: the smallest
    /// `(ready, -priority, id)`.
    fn next_to_place(inner: &Inner) -> Option<u64> {
        inner
            .active
            .iter()
            .filter_map(|id| Some((*id, inner.queries.get(id)?)))
            .min_by(|(ida, a), (idb, b)| {
                a.ready
                    .get()
                    .total_cmp(&b.ready.get())
                    .then(b.priority.cmp(&a.priority))
                    .then(ida.cmp(idb))
            })
            .map(|(id, _)| id)
    }

    /// Place a stage for `id` and advance the query's clock. The id is
    /// request-shaped (it arrives stamped in an engine context), so an
    /// unknown query is a routing abort, not a scheduler panic.
    fn place_locked(
        &self,
        inner: &mut Inner,
        id: u64,
        profile: &StageProfile,
    ) -> Result<Cycles, StageAbort> {
        let Some((prev_ready, seq)) = inner.queries.get(&id).map(|q| (q.ready, q.stages)) else {
            return Err(StageAbort {
                reason: "unknown query (submit it first)".into(),
            });
        };
        let p = inner.timeline.place(prev_ready, seq as u64, profile);
        if let Some(q) = inner.queries.get_mut(&id) {
            q.ready = p.end;
            q.stages += 1;
        }
        Ok(p.duration)
    }

    /// Retire a query now, then settle the queries that were leaving.
    fn finish_locked(&self, inner: &mut Inner, id: u64, aborted: Option<String>) {
        self.release_locked(inner, id, aborted);
        self.settle_locked(inner);
    }

    /// Release, in key order, every leaving query whose key has become the
    /// smallest, and wake the requests waiting on the scheduler.
    fn settle_locked(&self, inner: &mut Inner) {
        while let Some(id) = Self::next_to_place(inner)
            .filter(|id| inner.queries.get(id).map(|q| q.phase) == Some(Phase::Leaving))
        {
            self.release_locked(inner, id, None);
        }
        self.cv.notify_all();
    }

    /// Release a query's slot, record its stats and promote waiters.
    fn release_locked(&self, inner: &mut Inner, id: u64, aborted: Option<String>) {
        let freq = self.cfg.cost_model.freq_hz;
        let Some(q) = inner.queries.get_mut(&id) else {
            return;
        };
        if q.phase == Phase::Done {
            return;
        }
        let was_waiting = q.phase == Phase::Waiting;
        q.phase = Phase::Done;
        let stats = QueryStats {
            query_id: id,
            priority: q.priority,
            stages: q.stages,
            queued: (q.admitted_at - q.submitted_at).to_time(freq),
            latency: (q.ready - q.submitted_at).to_time(freq),
            completed_at: q.ready.to_time(freq),
            aborted,
        };
        let at = q.ready;
        if was_waiting {
            inner.waiting -= 1;
        } else {
            inner.active.retain(|&a| a != id);
        }
        inner.log_finished(stats, self.cfg.history_cap);
        self.promote_locked(inner, at, Some(id));
    }

    /// Block until `id` is admitted. Shared by [`QueryHandle::await_admission`]
    /// and [`StageRouter::route_stage`].
    fn wait_admitted<'a>(
        &self,
        mut inner: MutexGuard<'a, Inner>,
        id: u64,
    ) -> Result<MutexGuard<'a, Inner>, StageAbort> {
        loop {
            let Some(q) = inner.queries.get(&id) else {
                return Err(StageAbort {
                    reason: "unknown query (submit it first)".into(),
                });
            };
            if matches!(q.phase, Phase::Leaving | Phase::Done) {
                return Err(StageAbort {
                    reason: "query already finished".into(),
                });
            }
            if let Some(reason) = Self::abort_reason(q) {
                self.finish_locked(&mut inner, id, Some(reason.clone()));
                return Err(StageAbort { reason });
            }
            if q.phase == Phase::Active {
                return Ok(inner);
            }
            let deadline = q.deadline;
            inner = self.wait(inner, deadline);
        }
    }
}

impl StageRouter for Scheduler {
    fn route_stage(&self, profile: &StageProfile) -> Result<Cycles, StageAbort> {
        let id = profile.query_id;
        let mut inner = self.wait_admitted(self.lock(), id)?;
        while Self::next_to_place(&inner) != Some(id) {
            let Some(q) = inner.queries.get(&id).filter(|q| q.phase == Phase::Active) else {
                return Err(StageAbort {
                    reason: "query finished mid-request".into(),
                });
            };
            if let Some(reason) = Self::abort_reason(q) {
                self.finish_locked(&mut inner, id, Some(reason.clone()));
                return Err(StageAbort { reason });
            }
            let deadline = q.deadline;
            inner = self.wait(inner, deadline);
        }
        let duration = self.place_locked(&mut inner, id, profile)?;
        // The query's clock moved on: a peer may now hold the smallest key.
        self.settle_locked(&mut inner);
        Ok(duration)
    }
}

impl QueryHandle {
    /// The scheduler-assigned query id (stamp it into the engine context
    /// via `ExecContext::with_router`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Request cancellation: the query's next stage request aborts.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
        drop(self.sched.lock());
        self.sched.cv.notify_all();
    }

    /// Whether cancellation was requested.
    pub fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Whether the wall-clock timeout has expired.
    pub fn timed_out(&self) -> bool {
        let inner = self.sched.lock();
        inner
            .queries
            .get(&self.id)
            .is_some_and(|q| q.deadline.is_some_and(|d| Instant::now() >= d))
    }

    /// Block until this query holds an admission slot (backpressure point
    /// for sessions; stage routing would otherwise block here lazily).
    pub fn await_admission(&self) -> Result<(), SchedError> {
        match self.sched.wait_admitted(self.sched.lock(), self.id) {
            Ok(_) => Ok(()),
            Err(_) => {
                if self.cancelled() {
                    Err(SchedError::Cancelled)
                } else {
                    Err(SchedError::TimedOut)
                }
            }
        }
    }

    /// Mark the query finished, releasing its admission slot — at once if
    /// it was still waiting for one, else once no admitted query has a
    /// smaller key. Never blocks. Idempotent; also invoked on drop.
    pub fn finish(&self) {
        if self.finished.swap(true, Ordering::AcqRel) {
            return;
        }
        let mut inner = self.sched.lock();
        match inner.queries.get_mut(&self.id) {
            Some(q) if q.phase == Phase::Active => {
                q.phase = Phase::Leaving;
                self.sched.settle_locked(&mut inner);
            }
            _ => self.sched.finish_locked(&mut inner, self.id, None),
        }
    }
}

impl Drop for QueryHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_item(cycles: f64) -> dpu_sim::account::CycleAccount {
        let mut a = dpu_sim::account::CycleAccount::new();
        a.charge_compute(Cycles(cycles));
        a
    }

    fn dms_item(cycles: f64) -> dpu_sim::account::CycleAccount {
        let mut a = dpu_sim::account::CycleAccount::new();
        a.charge_dms(Cycles(cycles), 1024, 1);
        a
    }

    fn stage(qid: u64, lanes: Vec<dpu_sim::account::CycleAccount>) -> StageProfile {
        StageProfile {
            query_id: qid,
            lanes,
            dmem_peak: 0,
        }
    }

    fn cfg(max_active: usize, queue: usize) -> SchedConfig {
        SchedConfig {
            max_active,
            queue_capacity: queue,
            ..Default::default()
        }
    }

    #[test]
    fn solo_query_reproduces_stage_rule() {
        let s = Arc::new(Scheduler::new(cfg(1, 0)));
        let h = s.submit(0, None).unwrap();
        let d1 = s
            .route_stage(&stage(
                h.id(),
                vec![compute_item(1000.0), compute_item(500.0)],
            ))
            .unwrap();
        assert_eq!(d1, Cycles(1000.0));
        let d2 = s
            .route_stage(&stage(h.id(), vec![dms_item(300.0), dms_item(300.0)]))
            .unwrap();
        assert_eq!(d2, Cycles(600.0), "DMS serializes within the stage");
        h.finish();
        let r = s.report();
        assert_eq!(r.queries.len(), 1);
        assert_eq!(r.queries[0].stages, 2);
        assert!((r.queries[0].latency.as_secs() - 1600.0 / 800.0e6).abs() < 1e-18);
    }

    #[test]
    fn admission_bounds_active_queries() {
        let s = Arc::new(Scheduler::new(cfg(1, 4)));
        let a = s.submit(0, None).unwrap();
        let b = s.submit(0, None).unwrap();
        // b is queued; a stage for it would block — verify non-blockingly.
        {
            let inner = s.lock();
            assert_eq!(inner.active.len(), 1);
            assert_eq!(inner.waiting, 1);
        }
        s.route_stage(&stage(a.id(), vec![compute_item(100.0)]))
            .unwrap();
        a.finish();
        b.await_admission().unwrap();
        let d = s
            .route_stage(&stage(b.id(), vec![compute_item(100.0)]))
            .unwrap();
        // b was admitted at a's completion instant; its core is free then.
        assert_eq!(d, Cycles(100.0));
        b.finish();
        let r = s.report();
        assert!(r.queries[1].queued.as_secs() > 0.0, "b waited in the queue");
    }

    /// Explicit arrivals are what let independent closed-loop sessions
    /// overlap in simulated time: the default makespan arrival serializes
    /// a host-serial stream, while per-session completion chaining lets
    /// the same work from two sessions land on different cores.
    #[test]
    fn submit_at_overlaps_independent_sessions() {
        let freq = SchedConfig::default().cost_model.freq_hz;

        // Conservative default: a host-serial stream serializes.
        let s = Arc::new(Scheduler::new(cfg(8, 8)));
        for _ in 0..4 {
            let h = s.submit(0, None).unwrap();
            s.route_stage(&stage(h.id(), vec![compute_item(1000.0)]))
                .unwrap();
            h.finish();
        }
        let serial = s.report().utilization.makespan.as_secs();
        assert!((serial - 4000.0 / freq).abs() < 1e-15, "serial {serial}");

        // Two sessions, two queries each, chained per session: each chain
        // ends at 2000 cycles and the sessions overlap on separate cores.
        let s = Arc::new(Scheduler::new(cfg(8, 8)));
        let mut last = [Cycles::ZERO; 2];
        for _round in 0..2 {
            for arrival in last.iter_mut() {
                let h = s.submit_at(0, None, Some(*arrival)).unwrap();
                s.route_stage(&stage(h.id(), vec![compute_item(1000.0)]))
                    .unwrap();
                h.finish();
                *arrival = s.completion_cycles(h.id()).expect("finished");
            }
        }
        let overlapped = s.report().utilization.makespan.as_secs();
        assert!(
            (overlapped - 2000.0 / freq).abs() < 1e-15,
            "chained sessions must overlap: {overlapped}"
        );
        // A live query has no completion yet; unknown ids have none.
        let live = s.submit_at(0, None, Some(Cycles::ZERO)).unwrap();
        assert_eq!(s.completion_cycles(live.id()), None);
        assert_eq!(s.completion_cycles(987_654), None);
    }

    #[test]
    fn queue_full_is_backpressure() {
        let s = Arc::new(Scheduler::new(cfg(1, 1)));
        let _a = s.submit(0, None).unwrap();
        let _b = s.submit(0, None).unwrap();
        assert_eq!(
            s.submit(0, None).unwrap_err(),
            SchedError::QueueFull { capacity: 1 }
        );
    }

    #[test]
    fn higher_priority_waiter_admitted_first() {
        let s = Arc::new(Scheduler::new(cfg(1, 4)));
        let a = s.submit(0, None).unwrap();
        let low = s.submit(1, None).unwrap();
        let high = s.submit(9, None).unwrap();
        a.finish();
        {
            let inner = s.lock();
            assert_eq!(inner.queries[&high.id()].phase, Phase::Active);
            assert_eq!(inner.queries[&low.id()].phase, Phase::Waiting);
        }
        high.finish();
        low.await_admission().unwrap();
    }

    #[test]
    fn cancelled_query_aborts_its_stages() {
        let s = Arc::new(Scheduler::new(cfg(2, 0)));
        let h = s.submit(0, None).unwrap();
        h.cancel();
        let err = s
            .route_stage(&stage(h.id(), vec![compute_item(1.0)]))
            .unwrap_err();
        assert_eq!(err.reason, "cancelled");
        let r = s.report();
        assert_eq!(r.queries[0].aborted.as_deref(), Some("cancelled"));
    }

    #[test]
    fn expired_timeout_aborts() {
        let s = Arc::new(Scheduler::new(cfg(2, 0)));
        let h = s.submit(0, Some(Duration::from_millis(0))).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        let err = s
            .route_stage(&stage(h.id(), vec![compute_item(1.0)]))
            .unwrap_err();
        assert_eq!(err.reason, "timed out");
        assert!(h.timed_out());
    }

    #[test]
    fn waiting_query_can_be_cancelled() {
        let s = Arc::new(Scheduler::new(cfg(1, 2)));
        let _a = s.submit(0, None).unwrap();
        let b = s.submit(0, None).unwrap();
        b.cancel();
        assert_eq!(b.await_admission().unwrap_err(), SchedError::Cancelled);
    }

    #[test]
    fn cancel_by_id_reaches_live_queries_only() {
        let s = Arc::new(Scheduler::new(cfg(1, 2)));
        let active = s.submit(0, None).unwrap();
        let waiting = s.submit(0, None).unwrap();
        // Out-of-band cancel of a waiting query by id alone.
        assert!(s.cancel(waiting.id()));
        assert_eq!(
            waiting.await_admission().unwrap_err(),
            SchedError::Cancelled
        );
        // Active query: flag raised, next stage request aborts.
        assert!(s.cancel(active.id()));
        let err = s
            .route_stage(&stage(active.id(), vec![compute_item(1.0)]))
            .unwrap_err();
        assert_eq!(err.reason, "cancelled");
        // Finished or unknown ids report false.
        assert!(!s.cancel(active.id()), "finished query is no longer live");
        assert!(!s.cancel(12345), "unknown id");
    }

    /// Drive `n` concurrent synthetic queries through the scheduler on real
    /// threads and return (per-query latency secs, makespan secs).
    fn run_batch(n: usize) -> (Vec<f64>, f64) {
        let s = Arc::new(Scheduler::new(cfg(n, n)));
        let handles: Vec<_> = (0..n)
            .map(|i| s.submit((i % 3) as u8, None).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for (i, h) in handles.iter().enumerate() {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    // Each query: a compute stage, a DMS stage, and a mixed
                    // stage, with per-query sizes.
                    let c = 100.0 * (i as f64 + 1.0);
                    s.route_stage(&stage(h.id(), vec![compute_item(c), compute_item(c / 2.0)]))
                        .unwrap();
                    s.route_stage(&stage(h.id(), vec![dms_item(50.0 + c)]))
                        .unwrap();
                    s.route_stage(&stage(h.id(), vec![compute_item(c), dms_item(c / 4.0)]))
                        .unwrap();
                    h.finish();
                });
            }
        });
        let r = s.report();
        assert_eq!(r.queries.len(), n);
        (
            r.queries.iter().map(|q| q.latency.as_secs()).collect(),
            r.utilization.makespan.as_secs(),
        )
    }

    #[test]
    fn a_batch_is_bit_identical_across_runs() {
        let (lat1, mk1) = run_batch(6);
        let (lat2, mk2) = run_batch(6);
        assert_eq!(lat1, lat2, "latencies must be bit-identical");
        assert_eq!(mk1, mk2, "makespan must be bit-identical");
    }

    #[test]
    fn a_batch_completes_every_query_and_beats_serial_execution() {
        let (lat, mk) = run_batch(6);
        assert!(lat.iter().all(|&l| l > 0.0));
        assert!(mk > 0.0);
        // Interleaving must beat fully serial execution of the same work.
        let (_, serial) = {
            let s = Arc::new(Scheduler::new(cfg(1, 8)));
            for i in 0..6usize {
                let h = s.submit(0, None).unwrap();
                h.await_admission().unwrap();
                let c = 100.0 * (i as f64 + 1.0);
                s.route_stage(&stage(h.id(), vec![compute_item(c), compute_item(c / 2.0)]))
                    .unwrap();
                s.route_stage(&stage(h.id(), vec![dms_item(50.0 + c)]))
                    .unwrap();
                s.route_stage(&stage(h.id(), vec![compute_item(c), dms_item(c / 4.0)]))
                    .unwrap();
                h.finish();
            }
            ((), s.report().utilization.makespan.as_secs())
        };
        assert!(mk <= serial, "concurrent makespan {mk} vs serial {serial}");
    }

    #[test]
    fn panicking_session_leaves_scheduler_serving_others() {
        // A query whose stage closure panics must fail alone: unwinding
        // drops its QueryHandle (releasing the admission slot) and every
        // other session keeps running to completion.
        let s = Arc::new(Scheduler::new(cfg(2, 8)));
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..4)
                .map(|i| {
                    let s = Arc::clone(&s);
                    scope.spawn(move || {
                        let h = s.submit(0, None).unwrap();
                        h.await_admission().unwrap();
                        s.route_stage(&stage(h.id(), vec![compute_item(100.0)]))
                            .unwrap();
                        if i == 1 {
                            panic!("session {i} dies mid-query");
                        }
                        s.route_stage(&stage(h.id(), vec![dms_item(40.0)])).unwrap();
                        h.finish();
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join()).collect()
        });
        assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1);
        let r = s.report();
        assert_eq!(r.queries.len(), 4, "panicked query retired too");
        assert_eq!(
            r.queries.iter().filter(|q| q.stages == 2).count(),
            3,
            "survivors placed both their stages"
        );
        // The scheduler still serves fresh queries afterwards.
        let h = s.submit(0, None).unwrap();
        h.await_admission().unwrap();
        s.route_stage(&stage(h.id(), vec![compute_item(10.0)]))
            .unwrap();
        h.finish();
        assert_eq!(s.report().queries.len(), 5);
    }

    #[test]
    fn schedule_trace_records_admission_edges() {
        let s = Arc::new(Scheduler::new(cfg(1, 4)));
        let a = s.submit(0, None).unwrap();
        let b = s.submit(0, None).unwrap();
        s.route_stage(&stage(a.id(), vec![compute_item(100.0)]))
            .unwrap();
        a.finish();
        b.await_admission().unwrap();
        s.route_stage(&stage(b.id(), vec![compute_item(100.0)]))
            .unwrap();
        b.finish();
        let trace = s.schedule_trace();
        assert_eq!(trace.cores, 32);
        assert_eq!(trace.placements.len(), 2);
        assert_eq!(trace.history_dropped, 0);
        assert_eq!(trace.admissions.len(), 2);
        // a was admitted at submission (no edge); b rode a's freed slot.
        assert_eq!(trace.admissions[0].query_id, a.id());
        assert_eq!(trace.admissions[0].after, None);
        assert_eq!(trace.admissions[1].query_id, b.id());
        assert_eq!(trace.admissions[1].after, Some(a.id()));
        assert!(trace.admissions[1].at >= trace.placements[0].end);
    }

    #[test]
    fn history_cap_bounds_trace_growth() {
        let s = Arc::new(Scheduler::new(SchedConfig {
            max_active: 2,
            queue_capacity: 8,
            history_cap: 3,
            ..Default::default()
        }));
        for _ in 0..8 {
            let h = s.submit(0, None).unwrap();
            h.await_admission().unwrap();
            s.route_stage(&stage(h.id(), vec![compute_item(10.0)]))
                .unwrap();
            h.finish();
        }
        let trace = s.schedule_trace();
        assert_eq!(trace.placements.len(), 3, "placement ring capped");
        assert!(trace.admissions.len() <= 3, "admission log capped");
        assert!(trace.history_dropped > 0, "evictions are counted");
    }

    /// A long-lived scheduler holds `history_cap` records of each kind, not
    /// one per query it ever served, and still counts every query.
    #[test]
    fn history_cap_bounds_a_long_lived_scheduler() {
        let s = Arc::new(Scheduler::new(SchedConfig {
            max_active: 2,
            queue_capacity: 8,
            history_cap: 3,
            ..Default::default()
        }));
        let mut last = None;
        for _ in 0..1000 {
            let h = s.submit(0, None).unwrap();
            h.await_admission().unwrap();
            s.route_stage(&stage(h.id(), vec![compute_item(10.0)]))
                .unwrap();
            h.finish();
            // A session asks about its own previous query: always inside
            // the window.
            last = s.completion_cycles(h.id());
            assert!(last.is_some(), "query {} just finished", h.id());
        }
        assert_eq!(last, Some(Cycles(10_000.0)));
        {
            let inner = s.lock();
            assert!(inner.finished.len() <= 3, "finished ring capped");
            assert!(inner.queries.len() <= 3, "done entries leave with it");
            assert!(inner.admissions.len() <= 3, "admission ring capped");
        }
        let r = s.report();
        assert_eq!(r.queries.len(), 3);
        assert_eq!(r.queries[2].query_id, 999, "the most recent are kept");
        assert_eq!(r.finished, 1000, "evicted queries still count");
        assert_eq!(s.totals().0, 1000);
        assert_eq!(s.completion_cycles(0), None, "outside the window");
        // 997 placements, 997 admissions and 997 finished records went.
        assert_eq!(s.schedule_trace().history_dropped, 3 * 997);
    }

    /// An open stream: a session admitted but still on the host (parsing,
    /// compiling, running a partial offload's host remainder) holds no
    /// one up whose key is smaller. A barrier that waits for every admitted
    /// query to ask for a stage stalls here, because the peer asks only
    /// after it has seen the first query's stage placed.
    #[test]
    fn the_smallest_key_places_while_a_peer_is_still_on_the_host() {
        use std::sync::mpsc;

        let s = Arc::new(Scheduler::new(cfg(2, 0)));
        let first = s.submit_at(0, None, Some(Cycles::ZERO)).unwrap();
        let peer = s.submit_at(0, None, Some(Cycles(500.0))).unwrap();
        let (placed, seen) = mpsc::channel();
        std::thread::scope(|scope| {
            let s = &s;
            let first = &first;
            scope.spawn(move || {
                s.route_stage(&stage(first.id(), vec![compute_item(100.0)]))
                    .unwrap();
                placed.send(()).unwrap();
                // Ready at 100, before the peer's 500: places again.
                s.route_stage(&stage(first.id(), vec![compute_item(100.0)]))
                    .unwrap();
                first.finish();
            });
            seen.recv_timeout(Duration::from_secs(30))
                .expect("the first query placed while its peer was on the host");
            s.route_stage(&stage(peer.id(), vec![compute_item(100.0)]))
                .unwrap();
            peer.finish();
        });
        let order: Vec<u64> = s
            .schedule_trace()
            .placements
            .iter()
            .map(|p| p.query_id)
            .collect();
        assert_eq!(order, [first.id(), first.id(), peer.id()]);
    }

    /// Stage requests place in key order, not in the order their threads
    /// ask: the later-arriving query's request, made first, waits until
    /// the earlier one has placed every stage that starts before it.
    #[test]
    fn stages_place_in_key_order_not_host_order() {
        let s = Arc::new(Scheduler::new(cfg(2, 0)));
        let early = s.submit_at(0, None, Some(Cycles::ZERO)).unwrap();
        let late = s.submit_at(0, None, Some(Cycles(150.0))).unwrap();
        std::thread::scope(|scope| {
            let s = &s;
            let late = &late;
            scope.spawn(move || {
                s.route_stage(&stage(late.id(), vec![compute_item(100.0)]))
                    .unwrap();
                late.finish();
            });
            // Give the late query's request the head start in host time.
            std::thread::sleep(Duration::from_millis(20));
            for _ in 0..3 {
                s.route_stage(&stage(early.id(), vec![compute_item(100.0)]))
                    .unwrap();
            }
            early.finish();
        });
        let placed: Vec<(u64, f64)> = s
            .schedule_trace()
            .placements
            .iter()
            .map(|p| (p.query_id, p.ready.get()))
            .collect();
        // Early's stages are ready at 0, 100 and 200; late's at 150.
        assert_eq!(
            placed,
            [
                (early.id(), 0.0),
                (early.id(), 100.0),
                (late.id(), 150.0),
                (early.id(), 200.0)
            ]
        );
    }
}
