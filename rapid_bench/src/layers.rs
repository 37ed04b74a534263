//! Re-enactment of one operation as timed calls into each crate's public
//! functions, in the order the real path makes them. The same walk, with
//! its timings ignored, yields the exact simulated counts of an operation.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use hostdb::db::decode_batch;
use hostdb::offload::{decide, referenced_tables, OffloadDecision};
use hostdb::{parse_sql, HostDb};
use rapid_qcomp::{compile_unverified, verify_config, CostParams, LogicalPlan};
use rapid_qef::exec::{ExecContext, StageRouter};
use rapid_qef::trace::MemorySink;
use rapid_qef::PlanNode;
use rapid_sched::{QueryHandle, SchedConfig, Scheduler};
use rapid_server::protocol::{self, write_frame};
use rapid_server::{Response, ServerConfig};
use rapid_storage::scn::RowChange;
use rapid_storage::types::Value;

use crate::spans::Spans;

/// Column names per table, as `parse_sql` wants them.
pub type Schemas = HashMap<String, Vec<String>>;

pub fn schemas(db: &HostDb) -> Schemas {
    db.store()
        .table_names()
        .into_iter()
        .filter_map(|name| {
            let table = db.store().table(&name)?;
            let cols = table
                .read()
                .schema
                .fields
                .iter()
                .map(|f| f.name.clone())
                .collect();
            Some((name, cols))
        })
        .collect()
}

/// Which steps a workload's real path has.
#[derive(Debug, Clone, Default)]
pub struct Path {
    /// The SQL front end runs (plan-cache miss).
    pub parse: bool,
    /// The operation goes through `HostDb`: offload decision, SCN
    /// admission (checkpoint) and result decode.
    pub hostdb: bool,
    /// Stages are routed through a scheduler with this configuration.
    pub admit: Option<SchedConfig>,
    /// The result crosses the wire.
    pub wire: bool,
}

/// One operation of the traced block.
#[derive(Debug, Clone)]
pub enum TracedOp {
    Query {
        /// Identifies the statement: equal keys have equal simulated counts.
        key: String,
        sql: Option<String>,
        plan: LogicalPlan,
    },
    Commit(Vec<RowChange>),
}

/// Exact counts of one operation (all zero when it stays on the host).
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact {
    pub rapid_site: bool,
    pub sim_cycles: f64,
    pub dms_bytes: u64,
    pub dms_descriptors: u64,
    pub stages: u64,
    pub tiles: u64,
    pub instructions: u64,
    pub compute_cycles: f64,
    pub dms_cycles: f64,
    pub dmem_peak: u64,
    pub energy_joules: f64,
    pub result_rows: u64,
    pub plans_considered: u64,
    pub memo_entries: u64,
    /// Bytes of the `RowBatch` frames (the other frames carry wall times).
    pub row_frame_bytes: u64,
    pub frames: u64,
}

/// What a walk leaves behind for the caller.
struct Walk {
    exact: Exact,
    /// The physical plan, when the operation ran on RAPID.
    physical: Option<PlanNode>,
}

/// Where and how operations are walked.
struct Walker<'a> {
    db: &'a HostDb,
    schemas: &'a Schemas,
    path: &'a Path,
    /// The scheduler stages are routed through, when the path has one.
    sched: Option<&'a Arc<Scheduler>>,
}

/// Give the admission slot back, as part of the admission step's time.
fn release(handle: &Option<QueryHandle>, spans: &mut Spans, root: usize) {
    if let Some(h) = handle {
        spans.time("sched.admit", root, || h.finish());
    }
}

impl Walker<'_> {
    /// Walk one query through the layers under `root`, timing each public
    /// call as a child span.
    fn query(
        &self,
        sql: Option<&str>,
        plan: &LogicalPlan,
        spans: &mut Spans,
        root: usize,
    ) -> Result<Walk, String> {
        let Walker {
            db,
            schemas,
            path,
            sched,
        } = *self;
        let params = CostParams::default();
        let mut exact = Exact::default();

        let parsed;
        let plan = match sql.filter(|_| path.parse) {
            Some(sql) => {
                let p = spans.time("hostdb.parse", root, || parse_sql(sql, schemas));
                parsed = p.map_err(|e| e.to_string())?;
                &parsed
            }
            None => plan,
        };

        exact.rapid_site = !path.hostdb || {
            let d = spans.time("hostdb.decide", root, || {
                decide(plan, db.rapid().read().catalog(), &params)
            });
            !matches!(d, OffloadDecision::None(_))
        };

        let handle = match sched {
            Some(s) => {
                let h = spans.time("sched.admit", root, || {
                    let h = s.submit_at(0, None, None)?;
                    h.await_admission()?;
                    Ok::<_, rapid_sched::SchedError>(h)
                });
                Some(h.map_err(|e| e.to_string())?)
            }
            None => None,
        };

        let columns: Vec<String>;
        let rows: Vec<Vec<Value>>;
        let mut physical = None;
        if exact.rapid_site {
            if path.hostdb {
                spans.time("hostdb.checkpoint", root, || {
                    let mut tables = HashSet::new();
                    referenced_tables(plan, &mut tables);
                    for t in &tables {
                        db.checkpoint(t).ok();
                    }
                });
            }
            let sink = MemorySink::new();
            let engine = {
                let rapid = db.rapid().read();
                let mut ctx = rapid.context().clone().with_trace(sink.clone());
                if let (Some(s), Some(h)) = (sched, &handle) {
                    ctx = ctx.with_router(Arc::clone(s) as Arc<dyn StageRouter>, h.id());
                }
                rapid.fork(ctx)
            };
            let compiled = spans.time("qcomp.compile", root, || {
                compile_unverified(plan, engine.catalog(), &params)
            });
            let compiled = compiled.map_err(|e| e.to_string())?;
            let report = spans.time("verify.check", root, || {
                rapid_verify::verify(&compiled.plan, engine.catalog(), &verify_config(&params))
            });
            if !report.ok() {
                return Err("static verifier rejected the plan".into());
            }
            let out = spans.time("qef.execute", root, || engine.execute(&compiled.plan));
            let (out, qr) = out.map_err(|e| e.to_string())?;
            release(&handle, spans, root);
            rows = if path.hostdb {
                spans.time("hostdb.decode", root, || {
                    decode_batch(&out.batch, &out.meta, engine.catalog())
                })
            } else {
                Vec::new()
            };
            columns = compiled.output.iter().map(|c| c.name.clone()).collect();

            exact.sim_cycles = qr.sim_cycles;
            exact.dms_bytes = qr.dms_bytes;
            exact.dms_descriptors = qr.dms_descriptors;
            exact.stages = qr.stages as u64;
            exact.result_rows = qr.rows as u64;
            exact.plans_considered = compiled.optimize.plans_considered;
            exact.memo_entries = compiled.optimize.memo_entries;
            for e in sink.take() {
                exact.tiles += e.tiles;
                exact.instructions += e.instructions;
                exact.compute_cycles += e.compute_cycles;
                exact.dms_cycles += e.dms_cycles;
                exact.dmem_peak = exact.dmem_peak.max(e.dmem_peak_bytes);
                exact.energy_joules += e.energy_joules;
            }
            physical = Some(compiled.plan);
        } else {
            release(&handle, spans, root);
            let r = spans.time("hostdb.volcano", root, || db.execute_on_host(plan));
            let r = r.map_err(|e| e.to_string())?;
            exact.result_rows = r.rows.len() as u64;
            columns = r.columns;
            rows = r.rows;
        }

        if path.wire {
            let site = if exact.rapid_site { "Rapid" } else { "Host" };
            let row_batch = ServerConfig::default().row_batch;
            let frames = spans.time("server.encode", root, || {
                encode_frames(&columns, &rows, site, row_batch)
            });
            let frames = frames.map_err(|e| e.to_string())?;
            exact.frames = frames.len() as u64;
            exact.row_frame_bytes = frames[1..frames.len() - 1]
                .iter()
                .map(|f| f.len() as u64)
                .sum();
            let decoded = spans.time("server.decode", root, || {
                frames
                    .iter()
                    .try_for_each(|f| protocol::decode::<Response>(&f[4..]).map(drop))
            });
            decoded.map_err(|e| e.to_string())?;
        }
        Ok(Walk { exact, physical })
    }
}

/// The frames the server streams for one result: header, row batches, done.
fn encode_frames(
    columns: &[String],
    rows: &[Vec<Value>],
    site: &str,
    row_batch: usize,
) -> std::io::Result<Vec<Vec<u8>>> {
    let mut frames = Vec::new();
    let mut push = |r: &Response| {
        let mut buf = Vec::new();
        write_frame(&mut buf, r).map(|()| frames.push(buf))
    };
    push(&Response::RowHeader {
        columns: columns.to_vec(),
    })?;
    for chunk in rows.chunks(row_batch) {
        push(&Response::RowBatch {
            rows: chunk.to_vec(),
        })?;
    }
    push(&Response::QueryDone {
        row_count: rows.len() as u64,
        site: site.into(),
        rapid_secs: 0.0,
        host_secs: 0.0,
    })?;
    Ok(frames)
}

/// Exact counts summed over operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactTotals {
    pub ops: u64,
    pub rapid_ops: u64,
    pub sum: Exact,
}

impl ExactTotals {
    fn add(&mut self, e: &Exact) {
        self.ops += 1;
        self.rapid_ops += u64::from(e.rapid_site);
        let s = &mut self.sum;
        s.sim_cycles += e.sim_cycles;
        s.dms_bytes += e.dms_bytes;
        s.dms_descriptors += e.dms_descriptors;
        s.stages += e.stages;
        s.tiles += e.tiles;
        s.instructions += e.instructions;
        s.compute_cycles += e.compute_cycles;
        s.dms_cycles += e.dms_cycles;
        s.dmem_peak = s.dmem_peak.max(e.dmem_peak);
        s.energy_joules += e.energy_joules;
        s.result_rows += e.result_rows;
        s.plans_considered += e.plans_considered;
        s.memo_entries += e.memo_entries;
        s.row_frame_bytes += e.row_frame_bytes;
        s.frames += e.frames;
    }
}

/// The exact counts of the traced operations. Statements with equal keys
/// are walked once; nothing is routed through a scheduler, so the counts do
/// not depend on what ran before. A commit adds an operation and no cycles.
pub fn exact_pass(
    db: &HostDb,
    groups: &[Vec<TracedOp>],
    path: &Path,
) -> Result<ExactTotals, String> {
    let schemas = schemas(db);
    let walker = Walker {
        db,
        schemas: &schemas,
        path,
        sched: None,
    };
    let mut seen: BTreeMap<&str, Exact> = BTreeMap::new();
    let mut totals = ExactTotals::default();
    let mut scratch = Spans::default();
    for op in groups.iter().flatten() {
        match op {
            TracedOp::Commit(_) => totals.add(&Exact::default()),
            TracedOp::Query { key, sql, plan } => {
                if !seen.contains_key(key.as_str()) {
                    let root = scratch.open("op", None, 0);
                    let walk = walker.query(sql.as_deref(), plan, &mut scratch, root)?;
                    seen.insert(key, walk.exact);
                }
                totals.add(&seen[key.as_str()]);
            }
        }
    }
    Ok(totals)
}

/// Host-clock totals of the traced block.
#[derive(Debug, Default)]
pub struct Timed {
    /// Per span name: nanoseconds and the operations that had such a span.
    pub steps: BTreeMap<&'static str, (u64, u64)>,
    pub root_ns: u64,
    pub child_ns: u64,
    /// The same operations through the real path, in order: wall
    /// nanoseconds, and whether the operation is a query.
    pub real: Vec<(u64, bool)>,
    /// The statements of a wire workload through `HostDb::execute_sql`
    /// in-process.
    pub execute_sql_ns: Vec<u64>,
    /// The RAPID-site physical plans again on the native engine.
    pub native_ns: u64,
    pub rows_decoded: u64,
    pub rows_on_wire: u64,
}

impl Timed {
    pub fn step_ns(&self, name: &str) -> u64 {
        self.steps.get(name).map_or(0, |s| s.0)
    }

    /// Mean nanoseconds of a step over the operations that ran it.
    pub fn step_mean_ns(&self, name: &str) -> f64 {
        match self.steps.get(name) {
            Some(&(ns, n)) if n > 0 => ns as f64 / n as f64,
            _ => 0.0,
        }
    }
}

/// What the traced pass needs from a workload: the real path of one
/// operation, and the database it runs on.
pub trait RealPath {
    fn db(&self) -> &Arc<HostDb>;
    /// Run `op` once through the real path and return its wall time.
    fn real(&mut self, op: &TracedOp) -> Result<u64, String>;
}

/// The traced block: each group's operations are walked layer by layer,
/// then run through the real path for the reference time.
pub fn traced_pass(
    w: &mut dyn RealPath,
    groups: &[Vec<TracedOp>],
    path: &Path,
    spans: &mut Spans,
) -> Result<Timed, String> {
    let db = Arc::clone(w.db());
    let schemas = schemas(&db);
    let sched = path.admit.clone().map(|cfg| Arc::new(Scheduler::new(cfg)));
    let walker = Walker {
        db: &db,
        schemas: &schemas,
        path,
        sched: sched.as_ref(),
    };
    let mut t = Timed::default();
    let mut op_id = 0u32;
    for group in groups {
        for op in group {
            let root = spans.open("op", None, op_id);
            op_id += 1;
            let first_child = spans.spans.len();
            let mut physical = None;
            match op {
                TracedOp::Commit(changes) => {
                    let changes = changes.clone();
                    spans.time("hostdb.commit", root, || db.commit("orders", changes));
                }
                TracedOp::Query { sql, plan, .. } => {
                    let walk = walker.query(sql.as_deref(), plan, spans, root)?;
                    if walk.exact.rapid_site && path.hostdb {
                        t.rows_decoded += walk.exact.result_rows;
                    }
                    if path.wire {
                        t.rows_on_wire += walk.exact.result_rows;
                    }
                    physical = walk.physical;
                }
            }
            spans.close(root);
            t.root_ns += spans.spans[root].duration_ns();
            let mut per_op: BTreeMap<&'static str, u64> = BTreeMap::new();
            for s in &spans.spans[first_child..] {
                *per_op.entry(s.name).or_default() += s.duration_ns();
                t.child_ns += s.duration_ns();
            }
            for (name, ns) in per_op {
                let slot = t.steps.entry(name).or_default();
                slot.0 += ns;
                slot.1 += 1;
            }
            // The two engines are one engine under two configurations:
            // time the same physical plan on the native one.
            if let Some(physical) = physical {
                let native = db.rapid().read().fork(ExecContext::native(1));
                let t0 = Instant::now();
                native.execute(&physical).map_err(|e| e.to_string())?;
                t.native_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        for op in group {
            let is_query = matches!(op, TracedOp::Query { .. });
            t.real.push((w.real(op)?, is_query));
        }
        // Last, so that the in-process run cannot warm the plan cache for
        // the wire run of the same text.
        for op in group {
            if let (true, TracedOp::Query { sql: Some(sql), .. }) = (path.wire, op) {
                let t0 = Instant::now();
                db.execute_sql(sql).map_err(|e| e.to_string())?;
                t.execute_sql_ns.push(t0.elapsed().as_nanos() as u64);
            }
        }
    }
    Ok(t)
}
