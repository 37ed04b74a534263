//! The schedule interference analyzer: happens-before race detection over
//! a completed scheduler run.
//!
//! Where the `S-*`/`R-*`/`A-*` rules check a *plan* before a row moves,
//! the `C-*` rules check a *schedule* after it ran: the
//! [`SchedTrace`] a [`rapid_sched::Scheduler`] hands back — placement
//! records from the shared-DPU timeline plus admission events — is
//! replayed against the interference invariants of the paper's hardware
//! model (one DMS engine, 32 exclusive dpCores, 32 KiB per-core DMEM):
//!
//! * **`C-HB-CYCLE`** — a happens-before graph is rebuilt from program
//!   order (a query's stages by `seq`), resource order (placements sharing
//!   a core or the DMS engine, by time) and admission order (a promoted
//!   query starts after its finisher's last placement). The graph must be
//!   acyclic: otherwise no order of placements produces the recorded
//!   times.
//! * **`C-DMS-EXCL` / `C-CORE-EXCL`** — no two placements overlap on the
//!   single shared DMS engine or hold the same dpCore at the same
//!   instant. The timeline derives both windows with exact f64 `max`
//!   operations (never a subtract-and-re-add round trip), so these are
//!   strict comparisons with zero false positives. Two stages on one core
//!   at once are one finding, `C-CORE-EXCL`: a stage's buffers are
//!   bump-allocated from offset 0 of its core's scratchpad, so stages that
//!   share a core in time share its DMEM as well.
//! * **`C-DMEM-CAP` / `C-QUERY-BUDGET`** — at every placement boundary
//!   the live placements' aggregate footprint `Σ lanes × dmem_peak` fits
//!   `cores × dmem_bytes`, and each stage's per-core peak fits the
//!   query's scratchpad budget.
//! * **`C-LOST-WAKEUP`** — no stage is dispatched before its
//!   program-order predecessor completes, and none starts before its own
//!   ready instant (the lost-wakeup shape).
//!
//! Diagnostics reuse the [`VerifyReport`] machinery: `node_id` is the
//! placement's index in the trace and the path names the query and stage,
//! so a finding points at the exact record a timeline dump would show.
//! The [`InterferenceMutation`] harness corrupts a known-good trace one
//! interference bug per rule class and proves each rule fires.

use std::collections::HashMap;

use dpu_sim::clock::Cycles;
use rapid_sched::timeline::PlacementRecord;
use rapid_sched::trace::SchedTrace;

use crate::diag::{Diagnostic, Rule, VerifyReport};

/// Above this many placements the analyzer skips vector-clock
/// construction (quadratic in admission-chained queries) and relies on
/// the cycle/linear-extension checks alone; exclusivity diagnostics then
/// omit the HB-concurrency label.
const CLOCK_NODE_LIMIT: usize = 2048;

/// One happens-before edge between placement indices.
#[derive(Debug, Clone, Copy)]
struct Edge {
    from: usize,
    to: usize,
    kind: &'static str,
}

/// Check a schedule trace against every `C-*` rule.
pub fn check_schedule(trace: &SchedTrace) -> VerifyReport {
    let mut report = VerifyReport::default();
    let recs = &trace.placements;
    if recs.is_empty() {
        return report;
    }

    let edges = build_edges(trace);
    let clocks = check_acyclic(recs, &edges, &mut report);
    check_dms_exclusive(recs, clocks.as_ref(), &mut report);
    check_cores(trace, clocks.as_ref(), &mut report);
    check_dmem(trace, &mut report);
    check_dispatch_order(recs, &mut report);
    report
}

/// The analyzer's verdict on a scheduler's `schedule_trace()`, as its
/// callers take it: `Ok` on a clean trace, `Err` carrying one line per
/// violation.
pub fn check_trace(trace: &SchedTrace) -> Result<(), String> {
    let report = check_schedule(trace);
    if report.ok() {
        Ok(())
    } else {
        Err(report.error_summary())
    }
}

fn place_path(r: &PlacementRecord) -> String {
    format!("query {} stage {}", r.query_id, r.seq)
}

fn pair_path(a: &PlacementRecord, b: &PlacementRecord) -> String {
    format!("{} / {}", place_path(a), place_path(b))
}

/// Placement indices per query, sorted by stage seq.
fn by_query(recs: &[PlacementRecord]) -> HashMap<u64, Vec<usize>> {
    let mut map: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, r) in recs.iter().enumerate() {
        map.entry(r.query_id).or_default().push(i);
    }
    for idxs in map.values_mut() {
        idxs.sort_by_key(|&i| recs[i].seq);
    }
    map
}

/// The happens-before edge set: program, per-core, DMS, and admission
/// order. Edges to placements evicted from a capped history ring are
/// simply absent — the analyzer sees a truncated but consistent window.
fn build_edges(trace: &SchedTrace) -> Vec<Edge> {
    let recs = &trace.placements;
    let mut edges = Vec::new();
    let queries = by_query(recs);

    // Program order: consecutive retained stages of one query.
    for idxs in queries.values() {
        for w in idxs.windows(2) {
            edges.push(Edge {
                from: w[0],
                to: w[1],
                kind: "program",
            });
        }
    }

    // Resource order, per core. Stable sort by start keeps zero-width
    // stages (equal starts) in recorded order rather than inventing an
    // ordering the scheduler never chose.
    for core in 0..trace.cores.min(64) {
        let bit = 1u64 << core;
        let mut on_core: Vec<usize> = (0..recs.len())
            .filter(|&i| recs[i].core_mask & bit != 0)
            .collect();
        on_core.sort_by(|&a, &b| recs[a].start.get().total_cmp(&recs[b].start.get()));
        for w in on_core.windows(2) {
            edges.push(Edge {
                from: w[0],
                to: w[1],
                kind: "core",
            });
        }
    }

    // Resource order on the single DMS engine.
    let mut on_dms: Vec<usize> = (0..recs.len())
        .filter(|&i| recs[i].dms.get() > 0.0)
        .collect();
    on_dms.sort_by(|&a, &b| recs[a].dms_start.get().total_cmp(&recs[b].dms_start.get()));
    for w in on_dms.windows(2) {
        edges.push(Edge {
            from: w[0],
            to: w[1],
            kind: "dms",
        });
    }

    // Admission order: the finisher's last retained placement precedes
    // the promoted query's first retained placement.
    for ev in &trace.admissions {
        let Some(finisher) = ev.after else { continue };
        let Some(last) = queries.get(&finisher).and_then(|v| v.last()) else {
            continue;
        };
        let Some(first) = queries.get(&ev.query_id).and_then(|v| v.first()) else {
            continue;
        };
        edges.push(Edge {
            from: *last,
            to: *first,
            kind: "admission",
        });
    }
    edges
}

/// Per-placement vector clock: for each query id, one past the highest
/// stage seq that happens-before (or is) this placement.
type VectorClock = HashMap<u64, u64>;

/// C-HB-CYCLE: Kahn's algorithm over the full edge set. On an acyclic
/// graph (small enough), vector clocks are computed along the topological
/// order — over the *logical* edges only (program + admission), the
/// synchronization order that makes two stages semantically concurrent —
/// and returned for the exclusivity checks' concurrency labels. Resource
/// edges are deliberately excluded from the clocks: they are the
/// schedule's serialization of concurrent work, exactly what a conflict
/// must not hide behind (the same split a data-race detector makes
/// between sync edges and access order).
fn check_acyclic(
    recs: &[PlacementRecord],
    edges: &[Edge],
    report: &mut VerifyReport,
) -> Option<Vec<VectorClock>> {
    let n = recs.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut logical_preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for e in edges {
        succs[e.from].push(e.to);
        if e.kind == "program" || e.kind == "admission" {
            logical_preds[e.to].push(e.from);
        }
        indeg[e.to] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut topo = Vec::with_capacity(n);
    while let Some(i) = ready.pop() {
        topo.push(i);
        for &s in &succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    if topo.len() < n {
        let cycle = extract_cycle(&succs, &indeg);
        let names: Vec<String> = cycle.iter().map(|&i| place_path(&recs[i])).collect();
        let anchor = cycle.first().copied().unwrap_or(0);
        report.diagnostics.push(Diagnostic::new(
            Rule::HbCycle,
            anchor,
            &place_path(&recs[anchor]),
            format!(
                "happens-before graph has a cycle: {} -> (back to start); \
                 the schedule cannot be linearized",
                names.join(" -> ")
            ),
        ));
        return None;
    }
    if n > CLOCK_NODE_LIMIT {
        return None;
    }
    let mut clocks: Vec<VectorClock> = vec![HashMap::new(); n];
    for &i in &topo {
        let mut clock = VectorClock::new();
        for &p in &logical_preds[i] {
            for (&q, &c) in &clocks[p] {
                let e = clock.entry(q).or_insert(0);
                *e = (*e).max(c);
            }
        }
        let own = clock.entry(recs[i].query_id).or_insert(0);
        *own = (*own).max(recs[i].seq + 1);
        clocks[i] = clock;
    }
    Some(clocks)
}

/// Find one concrete cycle among the nodes Kahn never released. Those
/// nodes lie on or downstream of a cycle, so a DFS restricted to them
/// must eventually revisit a node on its own stack.
fn extract_cycle(succs: &[Vec<usize>], indeg: &[usize]) -> Vec<usize> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = indeg.len();
    let mut color = vec![WHITE; n];
    for root in (0..n).filter(|&i| indeg[i] > 0) {
        if color[root] != WHITE {
            continue;
        }
        // Iterative DFS: (node, next-successor position) frames.
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = GRAY;
        while let Some(&(node, pos)) = stack.last() {
            if pos >= succs[node].len() {
                color[node] = BLACK;
                stack.pop();
                continue;
            }
            if let Some(frame) = stack.last_mut() {
                frame.1 += 1;
            }
            let s = succs[node][pos];
            if indeg[s] == 0 || color[s] == BLACK {
                continue;
            }
            if color[s] == GRAY {
                // Found: the stack from s's frame down is the cycle.
                let mut cycle: Vec<usize> = stack.iter().map(|&(v, _)| v).collect();
                if let Some(at) = cycle.iter().position(|&v| v == s) {
                    cycle.drain(..at);
                }
                return cycle;
            }
            color[s] = GRAY;
            stack.push((s, 0));
        }
    }
    Vec::new()
}

/// Whether `a` happens-before `b` under the computed clocks.
fn hb(clocks: &[VectorClock], recs: &[PlacementRecord], a: usize, b: usize) -> bool {
    clocks[b]
        .get(&recs[a].query_id)
        .is_some_and(|&c| c > recs[a].seq)
        && a != b
}

fn concurrency_label(
    clocks: Option<&Vec<VectorClock>>,
    recs: &[PlacementRecord],
    a: usize,
    b: usize,
) -> &'static str {
    match clocks {
        Some(c) => {
            if hb(c, recs, a, b) || hb(c, recs, b, a) {
                "happens-before-ordered yet overlapping"
            } else {
                "happens-before-concurrent"
            }
        }
        None => "overlapping",
    }
}

/// C-DMS-EXCL: the single shared DMS engine serves one placement's
/// transfers at a time.
fn check_dms_exclusive(
    recs: &[PlacementRecord],
    clocks: Option<&Vec<VectorClock>>,
    report: &mut VerifyReport,
) {
    let mut on_dms: Vec<usize> = (0..recs.len())
        .filter(|&i| recs[i].dms.get() > 0.0)
        .collect();
    on_dms.sort_by(|&a, &b| recs[a].dms_start.get().total_cmp(&recs[b].dms_start.get()));
    for w in on_dms.windows(2) {
        let (i, j) = (w[0], w[1]);
        if recs[i].dms_end.get() > recs[j].dms_start.get() {
            report.diagnostics.push(Diagnostic::new(
                Rule::DmsExcl,
                j,
                &pair_path(&recs[i], &recs[j]),
                format!(
                    "two placements hold the single DMS engine at once \
                     ({}): [{}, {}) overlaps [{}, {})",
                    concurrency_label(clocks, recs, i, j),
                    recs[i].dms_start.get(),
                    recs[i].dms_end.get(),
                    recs[j].dms_start.get(),
                    recs[j].dms_end.get(),
                ),
            ));
        }
    }
}

/// C-CORE-EXCL: per physical core, placements holding the core must not
/// overlap in time.
fn check_cores(trace: &SchedTrace, clocks: Option<&Vec<VectorClock>>, report: &mut VerifyReport) {
    let recs = &trace.placements;
    for core in 0..trace.cores.min(64) {
        let bit = 1u64 << core;
        let mut on_core: Vec<usize> = (0..recs.len())
            .filter(|&i| recs[i].core_mask & bit != 0)
            .collect();
        on_core.sort_by(|&a, &b| recs[a].start.get().total_cmp(&recs[b].start.get()));
        for (pos, &i) in on_core.iter().enumerate() {
            for &j in &on_core[pos + 1..] {
                if recs[j].start.get() >= recs[i].end.get() {
                    break; // sorted by start: nothing later overlaps i
                }
                report.diagnostics.push(Diagnostic::new(
                    Rule::CoreExcl,
                    j,
                    &pair_path(&recs[i], &recs[j]),
                    format!(
                        "core {core} double-booked ({}): [{}, {}) overlaps [{}, {})",
                        concurrency_label(clocks, recs, i, j),
                        recs[i].start.get(),
                        recs[i].end.get(),
                        recs[j].start.get(),
                        recs[j].end.get(),
                    ),
                ));
            }
        }
    }
}

/// C-DMEM-CAP and C-QUERY-BUDGET: a time sweep over placement boundaries
/// checks the aggregate footprint of live placements against the whole
/// DPU, and each placement's per-core peak against the scratchpad.
fn check_dmem(trace: &SchedTrace, report: &mut VerifyReport) {
    let recs = &trace.placements;
    let cap = trace.cores as u64 * trace.dmem_bytes;

    for (i, r) in recs.iter().enumerate() {
        if r.dmem_peak > trace.dmem_bytes {
            report.diagnostics.push(Diagnostic::new(
                Rule::QueryBudget,
                i,
                &place_path(r),
                format!(
                    "per-core DMEM peak {} B exceeds the query's {} B scratchpad budget",
                    r.dmem_peak, trace.dmem_bytes
                ),
            ));
        }
    }

    // Event sweep: ends apply before starts at the same instant (a stage
    // ending exactly when another starts does not overlap it).
    #[derive(Clone, Copy)]
    struct Ev {
        t: f64,
        is_start: bool,
        idx: usize,
    }
    let mut events = Vec::with_capacity(recs.len() * 2);
    for (i, r) in recs.iter().enumerate() {
        if r.end.get() <= r.start.get() {
            continue; // zero-width stages hold nothing
        }
        events.push(Ev {
            t: r.start.get(),
            is_start: true,
            idx: i,
        });
        events.push(Ev {
            t: r.end.get(),
            is_start: false,
            idx: i,
        });
    }
    events.sort_by(|a, b| a.t.total_cmp(&b.t).then(a.is_start.cmp(&b.is_start)));
    let mut live: u64 = 0;
    for ev in &events {
        let footprint = recs[ev.idx].lanes as u64 * recs[ev.idx].dmem_peak;
        if ev.is_start {
            live += footprint;
            if live > cap {
                report.diagnostics.push(Diagnostic::new(
                    Rule::DmemCap,
                    ev.idx,
                    &place_path(&recs[ev.idx]),
                    format!(
                        "aggregate DMEM footprint {} B of live placements at t={} \
                         exceeds the DPU's {} cores x {} B = {} B",
                        live, ev.t, trace.cores, trace.dmem_bytes, cap
                    ),
                ));
            }
        } else {
            live = live.saturating_sub(footprint);
        }
    }
}

/// C-LOST-WAKEUP: program order must be respected in time — a stage is
/// dispatched no earlier than its predecessor's completion and placed no
/// earlier than its own ready instant.
fn check_dispatch_order(recs: &[PlacementRecord], report: &mut VerifyReport) {
    for (i, r) in recs.iter().enumerate() {
        if r.start.get() < r.ready.get() {
            report.diagnostics.push(Diagnostic::new(
                Rule::LostWakeup,
                i,
                &place_path(r),
                format!(
                    "stage starts at {} before its own ready instant {}",
                    r.start.get(),
                    r.ready.get()
                ),
            ));
        }
    }
    for idxs in by_query(recs).values() {
        for w in idxs.windows(2) {
            let (p, n) = (&recs[w[0]], &recs[w[1]]);
            if n.ready.get() < p.end.get() {
                report.diagnostics.push(Diagnostic::new(
                    Rule::LostWakeup,
                    w[1],
                    &pair_path(p, n),
                    format!(
                        "stage {} of query {} dispatched at {} before its \
                         predecessor (stage {}) completed at {} — lost-wakeup shape",
                        n.seq,
                        n.query_id,
                        n.ready.get(),
                        p.seq,
                        p.end.get()
                    ),
                ));
            }
        }
    }
}

/// Render a human-readable schedule verification report — the body of the
/// `rapid-report schedcheck`.
pub fn render(trace: &SchedTrace, report: &VerifyReport) -> String {
    let mut s = format!(
        "SCHEDCHECK ({} cores, {} B DMEM/core, {} placements, {} evicted)\n",
        trace.cores,
        trace.dmem_bytes,
        trace.placements.len(),
        trace.history_dropped,
    );
    if report.diagnostics.is_empty() {
        s.push_str("no findings\n");
    } else {
        for d in &report.diagnostics {
            s.push_str(&format!("error: {d}\n"));
        }
    }
    let errs = report.errors().count();
    s.push_str(&format!(
        "{} ({errs} errors)\n",
        if errs == 0 { "PASS" } else { "FAIL" }
    ));
    s
}

// ---------------------------------------------------------------------------
// Mutation harness: one injected interference bug per C-* rule class.
// ---------------------------------------------------------------------------

/// A corrupted schedule trace and the rule it must trip.
#[derive(Debug)]
pub struct MutatedTrace {
    /// Human-readable mutation name.
    pub name: &'static str,
    /// The corrupted trace.
    pub trace: SchedTrace,
    /// The rule the mutation must trip.
    pub expected: Rule,
}

/// Every interference-bug class the mutation harness can inject, one per
/// `C-*` rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterferenceMutation {
    /// Admission edge and core order contradict: the graph has a cycle.
    InjectHbCycle,
    /// A placement's DMS window shifted into its predecessor's.
    OverlapDms,
    /// A placement moved onto a core another stage still holds.
    DoubleBookCore,
    /// A placement's lane count inflated past the physical cores.
    OvercommitDmem,
    /// A placement's DMEM peak inflated past the scratchpad.
    ExceedQueryBudget,
    /// A stage dispatched before its predecessor completed.
    EarlyPlace,
}

impl InterferenceMutation {
    /// All mutation classes.
    pub fn all() -> Vec<InterferenceMutation> {
        vec![
            InterferenceMutation::InjectHbCycle,
            InterferenceMutation::OverlapDms,
            InterferenceMutation::DoubleBookCore,
            InterferenceMutation::OvercommitDmem,
            InterferenceMutation::ExceedQueryBudget,
            InterferenceMutation::EarlyPlace,
        ]
    }

    /// The rule the mutation must trip.
    pub fn expected_rule(&self) -> Rule {
        match self {
            InterferenceMutation::InjectHbCycle => Rule::HbCycle,
            InterferenceMutation::OverlapDms => Rule::DmsExcl,
            InterferenceMutation::DoubleBookCore => Rule::CoreExcl,
            InterferenceMutation::OvercommitDmem => Rule::DmemCap,
            InterferenceMutation::ExceedQueryBudget => Rule::QueryBudget,
            InterferenceMutation::EarlyPlace => Rule::LostWakeup,
        }
    }

    /// Apply the mutation to a fresh [`base_trace`].
    pub fn apply(&self) -> MutatedTrace {
        let mut trace = base_trace();
        // Base layout (see `base_trace`): record 0 = q0 stage 0 (compute,
        // cores {0,1}, [0, 1000)), record 1 = q0 stage 1 (DMS, core 2,
        // [1000, 1200)), record 2 = q1 stage 0 (compute+DMS, cores {3,4},
        // from 1000), record 3 = q2 stage 0 (compute, admitted after q0
        // finished).
        let name = match self {
            InterferenceMutation::InjectHbCycle => {
                // q2 was admitted after q0 finished (admission edge
                // q0.last -> q2.first), but its record claims it ran on
                // q0's DMS core *earlier in time* (core edge q2 -> q0.s1):
                // a 2-cycle with no interval overlap anywhere.
                let core = trace.placements[1].core_mask;
                let r = &mut trace.placements[3];
                r.core_mask = core;
                r.lanes = 1;
                r.ready = Cycles(100.0);
                r.start = Cycles(100.0);
                r.end = Cycles(400.0);
                "inject-hb-cycle: admission edge vs core time order"
            }
            InterferenceMutation::OverlapDms => {
                // Slide q1's DMS window into q0 stage 1's [1000, 1200).
                let r = &mut trace.placements[2];
                r.dms_start = Cycles(1100.0);
                r.dms_end = Cycles(1200.0);
                "overlap-dms: two transfer windows on the single engine"
            }
            InterferenceMutation::DoubleBookCore => {
                // Put q1 stage 0 on q0 stage 1's core while both run.
                let core = trace.placements[1].core_mask;
                let r = &mut trace.placements[2];
                r.core_mask = core;
                r.lanes = 1;
                "double-book-core: two stages hold one core at once"
            }
            InterferenceMutation::OvercommitDmem => {
                // A scheduler bug granted more lanes than the DPU has:
                // the aggregate footprint check catches it even though no
                // two records overlap on any core.
                let r = &mut trace.placements[0];
                r.lanes = 200;
                "overcommit-dmem: lane grant exceeds physical cores"
            }
            InterferenceMutation::ExceedQueryBudget => {
                let r = &mut trace.placements[3];
                r.dmem_peak = 40_000;
                "exceed-query-budget: stage peak above the 32 KiB scratchpad"
            }
            InterferenceMutation::EarlyPlace => {
                // q0 stage 1 dispatched at 500, before stage 0's barrier
                // at 1000 — the lost-wakeup shape. Its core and DMS
                // windows move with it, overlapping nothing.
                let r = &mut trace.placements[1];
                r.ready = Cycles(500.0);
                r.start = Cycles(500.0);
                r.end = Cycles(700.0);
                r.dms_start = Cycles(500.0);
                r.dms_end = Cycles(700.0);
                "early-place: stage dispatched before its predecessor's barrier"
            }
        };
        MutatedTrace {
            name,
            trace,
            expected: self.expected_rule(),
        }
    }
}

/// A small known-good trace, produced by driving a real scheduler (not
/// hand-built), so the mutations corrupt exactly what production runs
/// record.
pub fn base_trace() -> SchedTrace {
    use dpu_sim::account::CycleAccount;
    use rapid_qef::exec::{StageProfile, StageRouter};
    use rapid_sched::{SchedConfig, Scheduler};
    use std::sync::Arc;

    fn compute(cycles: f64) -> CycleAccount {
        let mut a = CycleAccount::new();
        a.charge_compute(Cycles(cycles));
        a
    }
    fn dms(cycles: f64) -> CycleAccount {
        let mut a = CycleAccount::new();
        a.charge_dms(Cycles(cycles), 1024, 1);
        a
    }
    fn profile(qid: u64, lanes: Vec<CycleAccount>, peak: u64) -> StageProfile {
        StageProfile {
            query_id: qid,
            lanes,
            dmem_peak: peak,
        }
    }

    // One thread places every stage, so it asks in the scheduler's own
    // order: the admitted query with the smallest (ready, id) first. q1
    // arrives at 1000, where q0's second stage becomes ready.
    let sched = Arc::new(Scheduler::new(SchedConfig {
        max_active: 2,
        queue_capacity: 4,
        ..SchedConfig::default()
    }));
    let q0 = sched.submit(0, None).expect("queue has room");
    let q1 = sched
        .submit_at(0, None, Some(Cycles(1000.0)))
        .expect("queue has room");
    let q2 = sched.submit(0, None).expect("queue has room");
    sched
        .route_stage(&profile(
            q0.id(),
            vec![compute(1000.0), compute(900.0)],
            8192,
        ))
        .expect("place q0 stage 0");
    sched
        .route_stage(&profile(q0.id(), vec![dms(200.0)], 4096))
        .expect("place q0 stage 1");
    q0.finish(); // admits q2 at q0's completion instant
    sched
        .route_stage(&profile(q1.id(), vec![compute(500.0), dms(100.0)], 8192))
        .expect("place q1 stage 0");
    q1.finish();
    q2.await_admission().expect("q2 admitted");
    sched
        .route_stage(&profile(q2.id(), vec![compute(300.0)], 2048))
        .expect("place q2 stage 0");
    q2.finish();
    sched.schedule_trace()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_trace_is_clean() {
        let trace = base_trace();
        assert_eq!(trace.placements.len(), 4);
        let report = check_schedule(&trace);
        assert!(
            report.ok() && report.diagnostics.is_empty(),
            "base trace must verify clean: {}",
            report.error_summary()
        );
        assert_eq!(check_trace(&trace), Ok(()));
    }

    #[test]
    fn base_trace_layout_matches_mutation_assumptions() {
        let t = base_trace();
        let p = &t.placements;
        assert_eq!((p[0].query_id, p[0].seq), (0, 0));
        assert_eq!((p[1].query_id, p[1].seq), (0, 1));
        assert_eq!((p[2].query_id, p[2].seq), (1, 0));
        assert_eq!((p[3].query_id, p[3].seq), (2, 0));
        assert!(p[1].dms.get() > 0.0 && p[2].dms.get() > 0.0);
        assert_eq!(p[1].dms_start, Cycles(1000.0));
        assert_eq!(p[1].dms_end, Cycles(1200.0));
        assert_eq!(p[2].dms_start, Cycles(1200.0));
        // q2 rode q0's freed slot.
        assert!(t
            .admissions
            .iter()
            .any(|a| a.query_id == 2 && a.after == Some(0)));
        // q0's cores and q1's cores are disjoint; q0 stage 1 runs alone
        // on its core.
        assert_eq!(p[0].core_mask & p[2].core_mask, 0);
        assert_eq!(p[0].core_mask & p[1].core_mask, 0);
    }

    #[test]
    fn every_interference_mutation_is_rejected_with_its_rule() {
        let mut seen = std::collections::HashSet::new();
        for m in InterferenceMutation::all() {
            let mutated = m.apply();
            let report = check_schedule(&mutated.trace);
            assert!(!report.ok(), "{}: mutation must be rejected", mutated.name);
            let hit: Vec<&Diagnostic> = report
                .diagnostics
                .iter()
                .filter(|d| d.rule == mutated.expected)
                .collect();
            assert!(
                !hit.is_empty(),
                "{}: expected {} among: {}",
                mutated.name,
                mutated.expected.id(),
                report.error_summary()
            );
            // Located: the diagnostic names a concrete record and query.
            for d in &hit {
                assert!(d.node_id < mutated.trace.placements.len());
                assert!(d.path.contains("query"), "path locates a query: {}", d.path);
            }
            seen.insert(mutated.expected.id());
        }
        assert_eq!(
            seen.len(),
            InterferenceMutation::all().len(),
            "each mutation class maps to a distinct C-* rule id"
        );
    }

    #[test]
    fn vector_clocks_label_concurrency_in_diagnostics() {
        let mutated = InterferenceMutation::DoubleBookCore.apply();
        let report = check_schedule(&mutated.trace);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::CoreExcl)
            .expect("core conflict found");
        assert!(
            d.message.contains("happens-before-concurrent"),
            "q0 and q1 share no happens-before path: {}",
            d.message
        );
    }

    #[test]
    fn empty_trace_is_clean() {
        let trace = SchedTrace {
            cores: 32,
            dmem_bytes: 32768,
            max_active: 8,
            placements: Vec::new(),
            admissions: Vec::new(),
            history_dropped: 0,
        };
        assert!(check_schedule(&trace).ok());
    }

    #[test]
    fn truncated_history_skips_dangling_admission_edges() {
        // Evict early records: edges to them must be skipped, not
        // reported as violations.
        let mut trace = base_trace();
        trace.placements.remove(0);
        trace.placements.remove(0); // q0 fully evicted
        trace.history_dropped = 2;
        let report = check_schedule(&trace);
        assert!(
            report.ok(),
            "truncated window stays clean: {}",
            report.error_summary()
        );
    }

    #[test]
    fn render_carries_verdict_and_rule_ids() {
        let trace = base_trace();
        let clean = render(&trace, &check_schedule(&trace));
        assert!(clean.contains("PASS"));
        let mutated = InterferenceMutation::OverlapDms.apply();
        let text = render(&mutated.trace, &check_schedule(&mutated.trace));
        assert!(text.contains("FAIL"));
        assert!(text.contains("C-DMS-EXCL"));
    }
}
