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
//! `rapid-report`'s mutation harness (`rapid_report::mutate`) corrupts a
//! known-good trace one interference bug per rule class and proves each
//! rule fires.

use std::collections::HashMap;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
