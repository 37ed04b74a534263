//! The assembled host database with RAPID attached.
//!
//! [`HostDb`] owns the row store (single source of truth), the RAPID node
//! (a `rapid-qef` engine on either backend), the offload planner, and the
//! background checkpointer that keeps RAPID's tables at the host's SCNs
//! (§3.3). A change reaches RAPID one way: a commit moves a host table to a
//! new SCN, and the next checkpoint rebuilds that table from the row store.
//! `execute_sql` is the end-to-end path: parse (through the plan cache) →
//! admission (every RAPID table the statement reads checkpointed to the
//! host's SCN) → offload decision → RAPID execution with host fallback.
//! Every entry point reaches that one path (`HostDb::run`, RAPID leg
//! `run_on_fork`) and differs only in the `Request` it brings. A request
//! sees one snapshot of RAPID: the decision compiles against the catalog
//! the request's fork is taken from, under the same read lock, so the plan
//! it costed is the plan that runs, and every fragment of a partial offload
//! runs on that one fork. Compiling is [`crate::offload`]'s.

use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rapid_qcomp::cost::CostParams;
use rapid_qcomp::logical::LogicalPlan;
use rapid_qcomp::Compiled;
use rapid_qef::engine::Engine;
use rapid_qef::exec::{ExecContext, StageRouter};
use rapid_qef::plan::{Catalog, ColMeta, PlanNode};
use rapid_qef::trace::{MemorySink, StageEvent, TraceSink};
use rapid_sched::{SchedConfig, SchedReport, Scheduler};
use rapid_storage::bitvec::BitVec;
use rapid_storage::schema::Schema;
use rapid_storage::scn::{RowChange, Scn};
use rapid_storage::table::{Table, TableBuilder};
use rapid_storage::types::{DataType, Value};

use crate::cache::{CachedPlan, PlanCache};
use crate::offload::{compile, plan_offload, referenced_tables, NoOffloadReason, OffloadPlan};
use crate::sql::{parse_sql, SqlError};
use crate::store::{HostTable, RowStore};
use crate::volcano;

/// Where a query (or part of it) executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionSite {
    /// Fully on the RAPID node.
    Rapid,
    /// Fully on the host Volcano engine.
    Host,
    /// RAPID fragments + host post-processing.
    Mixed,
}

/// An executed query's results and accounting.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows as values.
    pub rows: Vec<Vec<Value>>,
    /// Where execution happened.
    pub site: ExecutionSite,
    /// Seconds attributed to RAPID (simulated on the Dpu backend, wall on
    /// Native).
    pub rapid_secs: f64,
    /// Wall seconds attributed to the host engine (planning excluded).
    pub host_secs: f64,
}

impl QueryResult {
    /// Fraction of elapsed time spent in RAPID (Figure 15's metric).
    pub fn rapid_fraction(&self) -> f64 {
        let total = self.rapid_secs + self.host_secs;
        if total <= 0.0 {
            0.0
        } else {
            self.rapid_secs / total
        }
    }
}

/// `EXPLAIN ANALYZE` output: the executed query's result plus the
/// per-stage trace it produced and a rendered operator tree.
#[derive(Debug, Clone)]
pub struct ExplainAnalysis {
    /// The inner query's result (it really executed).
    pub result: QueryResult,
    /// Per-stage trace events in canonical `(query, stage)` order — empty
    /// when the query ran entirely on the host (no RAPID trace exists).
    pub events: Vec<StageEvent>,
    /// Human-readable operator tree with per-stage simulated cycles, rows
    /// and energy, plus a reconciling TOTAL footer.
    pub text: String,
}

/// The text or pre-built plan a [`BatchQuery`] executes.
#[derive(Debug, Clone)]
enum BatchSource {
    Sql(String),
    Plan(LogicalPlan),
}

/// One query of a concurrent batch session (see [`HostDb::execute_batch`]).
#[derive(Debug, Clone)]
pub struct BatchQuery {
    source: BatchSource,
    /// Scheduler priority — higher values are admitted first.
    pub priority: u8,
    /// Optional wall-clock bound on the whole query (queueing included).
    pub timeout: Option<Duration>,
}

impl BatchQuery {
    /// A default-priority SQL query with no timeout.
    pub fn new(sql: impl Into<String>) -> Self {
        BatchQuery {
            source: BatchSource::Sql(sql.into()),
            priority: 0,
            timeout: None,
        }
    }

    /// A batch query from an already-built logical plan.
    pub fn from_plan(plan: LogicalPlan) -> Self {
        BatchQuery {
            source: BatchSource::Plan(plan),
            priority: 0,
            timeout: None,
        }
    }

    /// Set the scheduler priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Set the wall-clock timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// Outcome of a concurrent batch: per-query results in submission order
/// plus the scheduler's accounting of the shared DPU.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One result per submitted query, in submission order.
    pub results: Vec<Result<QueryResult, DbError>>,
    /// Per-query simulated latency plus whole-DPU utilization/energy.
    pub sched: SchedReport,
}

/// Errors from the end-to-end path.
#[derive(Debug)]
pub enum DbError {
    /// SQL front-end failure.
    Sql(SqlError),
    /// Host executor failure.
    Volcano(volcano::VolcanoError),
    /// RAPID failure that also failed to fall back.
    Rapid(String),
    /// Unknown table.
    NoSuchTable(String),
    /// A batch session thread panicked; only that query is lost.
    SessionPanic(String),
    /// Admission refused: the scheduler's waiting queue is full. Callers
    /// shed load (a wire service answers with a "server busy" frame)
    /// instead of queueing forever.
    Busy {
        /// The waiting-queue bound that was hit.
        capacity: usize,
    },
    /// The query was cancelled.
    Cancelled,
    /// The query's execution timeout expired.
    QueryTimeout,
}

impl DbError {
    /// Stable machine-readable error kind. Wire services ship this next to
    /// the display message so remote clients can match on the same variant
    /// an in-process caller would (error parity across transports).
    pub fn kind(&self) -> &'static str {
        match self {
            DbError::Sql(_) => "Sql",
            DbError::Volcano(_) => "Volcano",
            DbError::Rapid(_) => "Rapid",
            DbError::NoSuchTable(_) => "NoSuchTable",
            DbError::SessionPanic(_) => "SessionPanic",
            DbError::Busy { .. } => "Busy",
            DbError::Cancelled => "Cancelled",
            DbError::QueryTimeout => "QueryTimeout",
        }
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Sql(e) => write!(f, "{e}"),
            DbError::Volcano(e) => write!(f, "{e}"),
            DbError::Rapid(m) => write!(f, "RAPID error: {m}"),
            DbError::NoSuchTable(t) => write!(f, "no such table '{t}'"),
            DbError::SessionPanic(m) => write!(f, "session panicked: {m}"),
            DbError::Busy { capacity } => {
                write!(f, "server busy: admission queue full ({capacity} waiting)")
            }
            DbError::Cancelled => write!(f, "query cancelled"),
            DbError::QueryTimeout => write!(f, "query timed out"),
        }
    }
}

impl std::error::Error for DbError {}

/// Typed mapping from scheduler refusals to the end-to-end error surface.
fn sched_err(e: rapid_sched::SchedError) -> DbError {
    match e {
        rapid_sched::SchedError::QueueFull { capacity } => DbError::Busy { capacity },
        rapid_sched::SchedError::Cancelled => DbError::Cancelled,
        rapid_sched::SchedError::TimedOut => DbError::QueryTimeout,
    }
}

/// A prepared statement: SQL validated by [`HostDb::prepare`] whose plan
/// sits in the server-side [`PlanCache`] keyed by the statement text.
/// Executing it re-validates the cached plan against the DDL epoch, so a
/// prepared statement that DDL made stale transparently re-plans rather
/// than mis-binds.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    sql: String,
}

impl PreparedStatement {
    /// The statement text (the plan-cache key).
    pub fn sql(&self) -> &str {
        &self.sql
    }
}

/// The host database with an attached RAPID node.
pub struct HostDb {
    store: Arc<RowStore>,
    rapid: Arc<RwLock<Engine>>,
    plan_cache: PlanCache,
    /// Force every query to RAPID / to the host (benchmark harness knobs).
    pub force_site: Option<ExecutionSite>,
    checkpointer_stop: Arc<AtomicBool>,
    checkpointer: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for HostDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostDb")
            .field("tables", &self.store.table_names())
            .finish()
    }
}

impl HostDb {
    /// A database with a RAPID node on the given execution context.
    pub fn new(rapid_ctx: ExecContext) -> Self {
        HostDb {
            store: Arc::new(RowStore::new()),
            rapid: Arc::new(RwLock::new(Engine::new(rapid_ctx))),
            plan_cache: PlanCache::default(),
            force_site: None,
            checkpointer_stop: Arc::new(AtomicBool::new(false)),
            checkpointer: None,
        }
    }

    /// The row store.
    pub fn store(&self) -> &RowStore {
        &self.store
    }

    /// The attached RAPID engine.
    pub fn rapid(&self) -> &Arc<RwLock<Engine>> {
        &self.rapid
    }

    /// Create a host table.
    pub fn create_table(&self, name: &str, schema: Schema) {
        self.store.create_table(name, schema);
    }

    /// Bulk-insert rows (initial population).
    pub fn bulk_insert(&self, table: &str, rows: impl IntoIterator<Item = Vec<Value>>) {
        self.store.bulk_insert(table, rows);
    }

    /// Import a columnar table wholesale: create the host table with its
    /// schema, populate the row store with its decoded rows (NULLs,
    /// decimals at the column's scale, dates, dictionary strings), and
    /// `LOAD` it into RAPID — how generated data sets such as TPC-H get
    /// into both engines.
    pub fn import_table(&self, table: &Table) -> Result<(), DbError> {
        self.create_table(&table.name, table.schema.clone());
        let ncols = table.schema.len();
        let cols: Vec<Vec<i64>> = (0..ncols).map(|c| table.column_i64(c)).collect();
        let nulls: Vec<BitVec> = (0..ncols).map(|c| table.column_nulls(c)).collect();
        let rows = (0..table.rows()).map(|r| {
            (0..ncols)
                .map(|c| {
                    if nulls[c].get(r) {
                        Value::Null
                    } else {
                        table.decode_value(c, cols[c][r])
                    }
                })
                .collect::<Vec<_>>()
        });
        self.bulk_insert(&table.name, rows);
        self.load_into_rapid(&table.name)
    }

    /// Commit changes to one table (DML path): apply them to the row store
    /// and return the table's new SCN. A commit with a row the table's
    /// schema does not admit (wrong arity, or a value its column cannot
    /// store as given, see [`Schema::admits`]) is refused whole: `None`,
    /// nothing applied, no SCN ticked. `None` too for an unknown table.
    pub fn commit(&self, table: &str, changes: Vec<RowChange>) -> Option<Scn> {
        self.store.commit(table, changes)
    }

    /// The `LOAD` command (§4.4): snapshot a host table into RAPID's
    /// columnar store at the current SCN.
    pub fn load_into_rapid(&self, table: &str) -> Result<(), DbError> {
        let host = self
            .store
            .table(table)
            .ok_or_else(|| DbError::NoSuchTable(table.into()))?;
        ship_snapshot(&self.rapid, table, &host);
        Ok(())
    }

    /// Bring one table in RAPID up to the host's SCN (§3.3's query
    /// checkpointing). No-op when RAPID holds the table at that SCN, or does
    /// not hold it at all.
    ///
    /// The host row store is the single source of truth: the table is
    /// shipped from its heap slots at the host's SCN, the chunks whose slots
    /// changed encoded anew and the rest shared with RAPID's copy. A
    /// `RowChange` rid is a heap slot that survives deletes, while a
    /// snapshot holds only live rows, so changes are never replayed onto
    /// the previous snapshot.
    pub fn checkpoint(&self, table: &str) -> Result<(), DbError> {
        checkpoint_table(&self.store, &self.rapid, table)
    }

    /// Start the periodic background checkpointer (§3.3: "we utilize
    /// periodic background threads for scanning and propagating the
    /// changes"): every interval, [`checkpoint`](Self::checkpoint) each
    /// table.
    pub fn start_checkpointer(&mut self, interval: Duration) {
        let stop = Arc::clone(&self.checkpointer_stop);
        let store = Arc::clone(&self.store);
        let rapid = Arc::clone(&self.rapid);
        self.checkpointer = Some(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for name in store.table_names() {
                    // A table dropped since the listing has nothing to ship.
                    let _ = checkpoint_table(&store, &rapid, &name);
                }
                std::thread::sleep(interval);
            }
        }));
    }

    /// Schemas visible to the SQL planner.
    fn schemas(&self) -> HashMap<String, Vec<String>> {
        let mut m = HashMap::new();
        for name in self.store.table_names() {
            if let Some(t) = self.store.table(&name) {
                m.insert(
                    name,
                    t.read()
                        .schema
                        .fields
                        .iter()
                        .map(|f| f.name.clone())
                        .collect(),
                );
            }
        }
        m
    }

    /// Simulate a RAPID node failure: the node loses its entire columnar
    /// state (§3.4: "RAPID relies on the host database system for
    /// durability and failure recovery").
    pub fn simulate_rapid_failure(&self) {
        let ctx = self.rapid.read().context().clone();
        *self.rapid.write() = Engine::new(ctx);
    }

    /// The recovery protocol: bring up a (spare) node and reload it with
    /// every table the failed node held — from the host, the single
    /// source of truth.
    pub fn recover_rapid(&self, tables: &[&str]) -> Result<(), DbError> {
        tables.iter().try_for_each(|t| self.load_into_rapid(t))
    }

    /// Parse and execute a SQL query end-to-end. A statement prefixed
    /// with `EXPLAIN ANALYZE` executes the inner query and returns the
    /// rendered per-operator trace as a one-column (`QUERY PLAN`) result,
    /// the way interactive databases surface it.
    pub fn execute_sql(&self, sql: &str) -> Result<QueryResult, DbError> {
        if crate::sql::strip_explain_verify(sql).is_some() {
            let text = self.explain_verify(sql)?;
            return Ok(QueryResult {
                columns: vec!["QUERY PLAN".into()],
                rows: text.lines().map(|l| vec![Value::Str(l.into())]).collect(),
                site: ExecutionSite::Host,
                rapid_secs: 0.0,
                host_secs: 0.0,
            });
        }
        if crate::sql::strip_explain_analyze(sql).is_some() {
            let analysis = self.explain_analyze(sql)?;
            return Ok(QueryResult {
                columns: vec!["QUERY PLAN".into()],
                rows: analysis
                    .text
                    .lines()
                    .map(|l| vec![Value::Str(l.into())])
                    .collect(),
                site: analysis.result.site,
                rapid_secs: analysis.result.rapid_secs,
                host_secs: analysis.result.host_secs,
            });
        }
        let cached = self.plan_sql_cached(sql)?;
        self.execute_plan(&cached.plan)
    }

    /// Parse `sql` through the server-side plan cache: an entry of the
    /// current DDL epoch skips the SQL front end; one DDL made stale is
    /// invalidated and re-planned. Committed DML re-plans nothing: the parse
    /// reads only table and column names.
    fn plan_sql_cached(&self, sql: &str) -> Result<Arc<CachedPlan>, DbError> {
        let ddl_epoch = self.store.ddl_epoch();
        if let Some(hit) = self.plan_cache.lookup(sql, ddl_epoch) {
            return Ok(hit);
        }
        let plan = parse_sql(sql, &self.schemas()).map_err(DbError::Sql)?;
        Ok(self.plan_cache.insert(sql, CachedPlan { plan, ddl_epoch }))
    }

    /// The plan cache's hit/miss/invalidation counters.
    pub fn plan_cache_stats(&self) -> crate::cache::CacheStats {
        self.plan_cache.stats()
    }

    /// Prepare a statement: validate it through the SQL front end and warm
    /// the plan cache. The returned handle is cheap to clone and re-execute.
    /// Only DDL re-plans it: a `CREATE` invalidates the cached plan
    /// underneath it and the next execution transparently parses again,
    /// while committed DML leaves the plan cached — each execution is
    /// admitted, and compiled, against the data as of its own start.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement, DbError> {
        let inner = crate::sql::strip_explain_analyze(sql)
            .or_else(|| crate::sql::strip_explain_verify(sql))
            .unwrap_or(sql);
        self.plan_sql_cached(inner)?;
        Ok(PreparedStatement { sql: sql.into() })
    }

    /// Run the static verifier over the compiled plan of `sql` (the
    /// `EXPLAIN VERIFY` prefix is optional) *without executing it*:
    /// returns the per-stage DMEM / effective-tile / fan-out / descriptor
    /// table plus any rule-id diagnostics, ending in a PASS/FAIL line.
    /// Unlike normal execution (whose compile gate makes violations hard
    /// errors), a failing plan still renders — the point is to see *why*.
    pub fn explain_verify(&self, sql: &str) -> Result<String, DbError> {
        let inner = crate::sql::strip_explain_verify(sql).unwrap_or(sql);
        let plan = parse_sql(inner, &self.schemas()).map_err(DbError::Sql)?;
        let rapid = self.rapid.read();
        let ctx = rapid.context();
        let compiled =
            rapid_qcomp::compile_unverified(&plan, rapid.catalog(), &CostParams::from_exec(ctx))
                .map_err(|e| DbError::Rapid(e.to_string()))?;
        let report = rapid_verify::verify(&compiled.plan, rapid.catalog(), ctx);
        Ok(report.render(ctx.dmem_bytes, ctx.tile_rows))
    }

    /// Execute `sql` (the `EXPLAIN ANALYZE` prefix is optional) with
    /// per-stage tracing and return result + events + rendered tree.
    pub fn explain_analyze(&self, sql: &str) -> Result<ExplainAnalysis, DbError> {
        let inner = crate::sql::strip_explain_analyze(sql).unwrap_or(sql);
        let plan = parse_sql(inner, &self.schemas()).map_err(DbError::Sql)?;
        self.explain_analyze_plan(&plan)
    }

    /// [`explain_analyze`](Self::explain_analyze) over an already-built
    /// logical plan. The plan is executed on RAPID with a trace sink
    /// installed; if RAPID execution fails (e.g. tables not loaded) the
    /// query falls back to the host and the rendering says so — host
    /// Volcano execution has no simulated trace.
    pub fn explain_analyze_plan(&self, plan: &LogicalPlan) -> Result<ExplainAnalysis, DbError> {
        let sink = MemorySink::new();
        let traced = Request {
            sched: None,
            trace: Some(Arc::clone(&sink) as _),
        };
        let engine = self.snapshot(plan, &traced);
        let ran = compile_on(&engine, plan)
            .and_then(|compiled| Ok((run_on_fork(&engine, &compiled)?, compiled)));
        match ran {
            Ok((result, compiled)) => {
                let events = sink.take();
                // The estimator's view of the physical plan that just ran,
                // on the catalog it ran on: per-node estimated rows in the
                // tracer's pre-order id space, so every operator line can
                // carry its Q-error.
                let mut scans = Vec::new();
                scan_columns(&compiled.plan, engine.catalog(), &mut scans);
                let estimates = rapid_qcomp::estimate_rows_per_node(
                    &compiled.plan,
                    engine.catalog(),
                    &CostParams::from_exec(engine.context()),
                );
                let text = render_explain(&events, &result, &estimates, &scans);
                Ok(ExplainAnalysis {
                    result,
                    events,
                    text,
                })
            }
            Err(_) => {
                let result = self.execute_on_host(plan)?;
                let text = format!(
                    "EXPLAIN ANALYZE (site=Host — query did not offload, no RAPID trace)\n\
                     rows: {}\nhost wall: {:.6}s\n",
                    result.rows.len(),
                    result.host_secs
                );
                Ok(ExplainAnalysis {
                    result,
                    events: Vec::new(),
                    text,
                })
            }
        }
    }

    /// Execute a logical plan end-to-end (offload decision included).
    pub fn execute_plan(&self, plan: &LogicalPlan) -> Result<QueryResult, DbError> {
        self.run(plan, &Request::default())
    }

    /// The request path: admit `plan` — checkpoint every RAPID table it
    /// reads — then decide where it runs, by the `force_site` knob if set,
    /// else by the cost-based offload planner over the RAPID catalog, which
    /// compiles the statement; an offload forks the engine under the same
    /// read lock, so the fork holds the tables the decision compiled against.
    /// `force_site == Host` skips RAPID, admission included.
    ///
    /// A failed full offload re-runs on the host (§3.2: "In case ...
    /// execution in RAPID fails, the RAPID operator can either fail or
    /// fallback"), a failed partial offload fails; a query its scheduler
    /// cancelled or timed out aborts with that typed error in either case.
    /// Host execution never holds a DPU admission slot.
    fn run(&self, plan: &LogicalPlan, req: &Request<'_>) -> Result<QueryResult, DbError> {
        if self.force_site != Some(ExecutionSite::Host) {
            let tables = self.admit(plan);
            let rapid = self.rapid.read();
            let params = CostParams::from_exec(rapid.context());
            let offload = match self.force_site {
                Some(ExecutionSite::Rapid) => compile(plan, rapid.catalog(), &params).map_or(
                    OffloadPlan::None(NoOffloadReason::TablesNotLoaded),
                    OffloadPlan::Full,
                ),
                _ => plan_offload(plan, &tables, rapid.catalog(), &params),
            };
            match offload {
                OffloadPlan::Full(compiled) => {
                    let engine = req.fork(&rapid);
                    drop(rapid);
                    if let Ok(result) = run_on_fork(&engine, &compiled) {
                        return Ok(result);
                    }
                    if let Some(refused) = req.refusal() {
                        return Err(refused);
                    }
                }
                OffloadPlan::Partial {
                    remainder,
                    fragments,
                } => {
                    let engine = req.fork(&rapid);
                    drop(rapid);
                    return self
                        .run_partial(&engine, &remainder, fragments)
                        .map_err(|e| req.refusal().unwrap_or(e));
                }
                OffloadPlan::None(_) => {}
            }
        }
        if let Some((_, handle)) = req.sched {
            handle.finish(); // give the DPU slot back first
        }
        self.execute_on_host(plan)
    }

    /// Admission (§3.3): the query SCN must not be younger than any RAPID
    /// table the plan reads, so every lagging one is checkpointed. Returns
    /// the plan's [`referenced_tables`].
    fn admit(&self, plan: &LogicalPlan) -> HashSet<String> {
        let mut tables = HashSet::new();
        referenced_tables(plan, &mut tables);
        for t in &tables {
            self.checkpoint(t).ok();
        }
        tables
    }

    /// Admission, then the request's fork of the engine: the one snapshot of
    /// RAPID a statement that always runs there compiles against and runs on.
    fn snapshot(&self, plan: &LogicalPlan, req: &Request<'_>) -> Engine {
        self.admit(plan);
        req.fork(&self.rapid.read())
    }

    /// Execute a batch of SQL queries concurrently — one session thread
    /// per query — sharing the simulated DPU through a `rapid-sched`
    /// scheduler. Per-query offload decisions and SCN admission checks are
    /// unchanged from the serial path; only the simulated clock is
    /// arbitrated. Queries that stay on the host release their DPU
    /// admission slot before running.
    ///
    /// Results come back in submission order; the scheduler report carries
    /// per-query simulated latency and whole-DPU utilization/energy. A
    /// debug build first replays the batch's schedule through the
    /// interference analyzer and panics on a finding, like a race detector
    /// firing: it means the scheduler is broken, and no caller has a
    /// sensible way to continue.
    pub fn execute_batch(&self, queries: &[BatchQuery], cfg: SchedConfig) -> BatchOutcome {
        let sched = Arc::new(Scheduler::new(cfg));
        let results = self.run_batch(queries, &sched);
        if cfg!(debug_assertions) {
            if let Err(e) = rapid_verify::schedcheck::check_trace(&sched.schedule_trace()) {
                panic!("schedule interference detected: {e}");
            }
        }
        BatchOutcome {
            results,
            sched: sched.report(),
        }
    }

    /// [`execute_batch`](Self::execute_batch) on a scheduler the caller owns
    /// and can inspect afterwards; checking its schedule trace
    /// (`rapid_verify::schedcheck::check_trace`) is then the caller's too.
    pub fn run_batch(
        &self,
        queries: &[BatchQuery],
        sched: &Arc<Scheduler>,
    ) -> Vec<Result<QueryResult, DbError>> {
        // Submit in input order so scheduler ids (and the dispatch order's
        // tie-breaks) are a function of the batch alone.
        let handles: Vec<_> = queries
            .iter()
            .map(|q| self.submit_query_at(q, sched, None))
            .collect();
        std::thread::scope(|scope| {
            let spawned: Vec<_> = queries
                .iter()
                .zip(handles)
                .map(|(q, h)| scope.spawn(move || self.execute_scheduled(q, h?, sched)))
                .collect();
            spawned
                .into_iter()
                .map(|j| match j.join() {
                    Ok(r) => r,
                    // A panicking session fails its own slot only: the
                    // QueryHandle was moved into the thread, so unwinding
                    // dropped it and released the admission slot — siblings
                    // keep running and the batch still returns in order.
                    Err(payload) => Err(DbError::SessionPanic(panic_message(&*payload).into())),
                })
                .collect()
        })
    }

    /// Submit one query to a shared scheduler, mapping admission refusals to
    /// typed errors ([`DbError::Busy`] when the waiting queue is full). Wire
    /// services call this from connection threads against one long-lived
    /// scheduler; [`run_batch`](Self::run_batch) uses it per batch.
    ///
    /// `arrival` is the simulated arrival time. A closed-loop session passes
    /// the completion of its own previous query
    /// ([`Scheduler::completion_cycles`]) so that N independent sessions
    /// overlap on the shared DPU timeline instead of serializing behind the
    /// global makespan; `None` keeps the conservative makespan arrival.
    pub fn submit_query_at(
        &self,
        q: &BatchQuery,
        sched: &Arc<Scheduler>,
        arrival: Option<rapid_sched::Cycles>,
    ) -> Result<rapid_sched::QueryHandle, DbError> {
        sched
            .submit_at(q.priority, q.timeout, arrival)
            .map_err(sched_err)
    }

    /// One concurrent session: admission, then the request path with RAPID
    /// stages routed through the shared scheduler. Scheduler refusals
    /// surface as the same typed errors an in-process caller sees
    /// ([`DbError::Cancelled`] / [`DbError::QueryTimeout`]).
    pub fn execute_scheduled(
        &self,
        q: &BatchQuery,
        handle: rapid_sched::QueryHandle,
        sched: &Arc<Scheduler>,
    ) -> Result<QueryResult, DbError> {
        handle.await_admission().map_err(sched_err)?;
        let cached;
        let plan = match &q.source {
            BatchSource::Sql(sql) => {
                // EXPLAIN ANALYZE needs the serial tracing path; it holds no
                // concurrent-DPU slot (parity fix: the session path used to
                // hand the raw prefix to the parser and fail, while
                // `execute_sql` stripped it).
                if crate::sql::strip_explain_analyze(sql).is_some()
                    || crate::sql::strip_explain_verify(sql).is_some()
                {
                    handle.finish();
                    return self.execute_sql(sql);
                }
                cached = self.plan_sql_cached(sql)?;
                &cached.plan
            }
            BatchSource::Plan(plan) => plan,
        };
        let scheduled = Request {
            sched: Some((sched, &handle)),
            trace: None,
        };
        self.run(plan, &scheduled)
    }

    /// Partial offload (§3.1-§3.2): execute the fragments on the request's
    /// fork, land their results in host-side buffers under the temp-table
    /// names the remainder scans (the RAPID operator's result consumption),
    /// and finish the remainder on the Volcano engine.
    fn run_partial(
        &self,
        engine: &Engine,
        remainder: &LogicalPlan,
        fragments: Vec<(String, LogicalPlan)>,
    ) -> Result<QueryResult, DbError> {
        let mut rapid_secs = 0.0;
        let mut host_secs = 0.0;
        // Dropped — and the buffers with it — however this function exits.
        let mut landed = Vec::with_capacity(fragments.len());
        for (name, fragment) in fragments {
            let compiled = compile_on(engine, &fragment)?;
            let result = run_on_fork(engine, &compiled)?;
            rapid_secs += result.rapid_secs;
            host_secs += result.host_secs;
            // The temp table's schema is the fragment's compiled output
            // columns.
            let fields = compiled
                .output
                .iter()
                .map(|c| rapid_storage::schema::Field::nullable(c.name.clone(), c.dtype))
                .collect();
            landed.push(
                self.store
                    .temp_table(name, Schema::new(fields), result.rows),
            );
        }
        let t0 = Instant::now();
        let (columns, rows) = volcano::execute(remainder, &self.store).map_err(DbError::Volcano)?;
        host_secs += t0.elapsed().as_secs_f64();
        Ok(QueryResult {
            columns,
            rows,
            site: ExecutionSite::Mixed,
            rapid_secs,
            host_secs,
        })
    }

    /// Run the whole plan on the RAPID node: admission, one fork, compile
    /// and execute on it.
    pub fn execute_on_rapid(&self, plan: &LogicalPlan) -> Result<QueryResult, DbError> {
        let engine = self.snapshot(plan, &Request::default());
        run_on_fork(&engine, &compile_on(&engine, plan)?)
    }

    /// Run the whole plan on the host Volcano engine.
    pub fn execute_on_host(&self, plan: &LogicalPlan) -> Result<QueryResult, DbError> {
        let start = Instant::now();
        let (names, rows) = volcano::execute(plan, &self.store).map_err(DbError::Volcano)?;
        Ok(QueryResult {
            columns: names,
            rows,
            site: ExecutionSite::Host,
            rapid_secs: 0.0,
            host_secs: start.elapsed().as_secs_f64(),
        })
    }
}

/// What one request brings to the request path besides its plan.
#[derive(Default)]
struct Request<'a> {
    /// A scheduled session: RAPID stages are placed on this scheduler's
    /// shared timeline as the handle's query.
    sched: Option<(&'a Arc<Scheduler>, &'a rapid_sched::QueryHandle)>,
    /// `EXPLAIN ANALYZE`: per-stage trace events are recorded here.
    trace: Option<Arc<dyn TraceSink>>,
}

impl Request<'_> {
    /// The request's fork of `rapid`, with its router and trace sink: the
    /// catalog shares the table `Arc`s, and the engine lock is not held while
    /// the fork executes, so concurrent sessions parked inside the scheduler
    /// do not block checkpoint writers.
    fn fork(&self, rapid: &Engine) -> Engine {
        let mut ctx = rapid.context().clone();
        if let Some((sched, handle)) = self.sched {
            ctx = ctx.with_router(Arc::clone(sched) as Arc<dyn StageRouter>, handle.id());
        }
        if let Some(sink) = &self.trace {
            ctx = ctx.with_trace(Arc::clone(sink));
        }
        rapid.fork(ctx)
    }

    /// The typed error of a query its scheduler cancelled or timed out.
    fn refusal(&self) -> Option<DbError> {
        let (_, handle) = self.sched?;
        if handle.cancelled() {
            Some(DbError::Cancelled)
        } else if handle.timed_out() {
            Some(DbError::QueryTimeout)
        } else {
            None
        }
    }
}

/// Compile `plan` against the request's fork, for the DPU it runs on.
fn compile_on(engine: &Engine, plan: &LogicalPlan) -> Result<Compiled, DbError> {
    let params = CostParams::from_exec(engine.context());
    compile(plan, engine.catalog(), &params).map_err(|e| DbError::Rapid(e.to_string()))
}

/// The RAPID leg of the request path: execute `compiled` on the request's
/// fork — the engine whose catalog it was compiled against — and decode the
/// result at the host (§3.2's "decoding and other transformations" after
/// the RDMA transfer). Compile time is excluded, matching the paper's
/// elapsed split.
fn run_on_fork(engine: &Engine, compiled: &Compiled) -> Result<QueryResult, DbError> {
    let (out, report) = engine
        .execute(&compiled.plan)
        .map_err(|e| DbError::Rapid(e.to_string()))?;
    let decode_start = Instant::now();
    let rows = decode_batch(&out.batch, &out.meta, engine.catalog());
    let host_secs = decode_start.elapsed().as_secs_f64();
    Ok(QueryResult {
        columns: compiled.output.iter().map(|c| c.name.clone()).collect(),
        rows,
        site: ExecutionSite::Rapid,
        rapid_secs: report.elapsed_secs(engine.context().backend),
        host_secs,
    })
}

/// The one snapshot routine behind `LOAD`, query checkpointing, recovery
/// and the background checkpointer: build a columnar copy of `host` at its
/// current SCN — outside the engine lock — and install it unless RAPID
/// already holds the table at that SCN or a later one. A slower builder can
/// finish after a faster one that started later; letting it win would put
/// data older than an admitted query's SCN under that query (§3.3).
///
/// Chunk `k` of the copy holds the live rows of heap slots `[k ×
/// DEFAULT_CHUNK_ROWS, (k + 1) × DEFAULT_CHUNK_ROWS)`. Against the copy RAPID
/// holds, only the chunks stamped after its SCN are encoded again, with its
/// encodings, and the others are shared; a copy of a table this one replaced
/// is no base. The host table is read-locked only while the chunks are
/// encoded: the statistics read the chunks, so a commit need not wait them
/// out.
fn ship_snapshot(rapid: &RwLock<Engine>, name: &str, host: &RwLock<HostTable>) {
    let base = rapid.read().catalog().get(name).cloned();
    let guard = host.read();
    let scn = guard.scn;
    let mut b = TableBuilder::over_slots(name, guard.schema.clone(), guard.slots())
        .chunk_rows(rapid_storage::DEFAULT_CHUNK_ROWS);
    if let Some(base) = base.as_deref().filter(|t| t.scn >= guard.created) {
        b = b.reusing(base, guard.stamps());
    }
    let encoded = b.encode();
    drop(guard);
    let snapshot = Arc::new(encoded.finish_at_scn(scn));
    {
        let mut engine = rapid.write();
        if engine.catalog().get(name).is_some_and(|t| t.scn >= scn) {
            return;
        }
        engine.load_table(snapshot);
    }
}

/// Ship `table` to RAPID if RAPID holds it at an older SCN than the host.
fn checkpoint_table(store: &RowStore, rapid: &RwLock<Engine>, table: &str) -> Result<(), DbError> {
    let host = store
        .table(table)
        .ok_or_else(|| DbError::NoSuchTable(table.into()))?;
    let Some(current) = rapid.read().catalog().get(table).map(|t| t.scn) else {
        return Ok(()); // not loaded: nothing to keep fresh
    };
    if host.read().scn > current {
        ship_snapshot(rapid, table, &host);
    }
    Ok(())
}

impl Drop for HostDb {
    fn drop(&mut self) {
        self.checkpointer_stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.checkpointer.take() {
            let _ = h.join();
        }
    }
}

/// Render a traced query as a per-operator tree plus a reconciling footer.
///
/// Tree lines are ordered by `(node_id, stage_id)` — node ids are assigned
/// pre-order over the plan, so a parent prints above its children, indented
/// by depth; a node's stages keep their emission order. A stage is a task:
/// its line is its topmost operator's, with the stage's lanes, cycles and
/// bytes, then a `kernels:` line splitting its compute cycles by kernel
/// family (summed over the lanes), and the operators that ran in its lanes
/// beneath it follow, one line each down to the scan, with the rows each
/// handed on. The TOTAL
/// footer sums `sim_secs`, energy and the stages' host `wall_secs` in
/// stage-emission order, which reproduces the engine's
/// `QueryReport::{sim_secs, energy_joules, wall_secs}` bit-for-bit (same f64
/// values, same addition order — see `rapid_qef::trace`).
///
/// `estimates` carries the compiler's estimated output rows per node
/// (indexed by the same pre-order node id, from
/// `rapid_qcomp::estimate_rows_per_node`); each operator's last line then
/// shows `est=` and the Q-error `q = max(est/actual, actual/est)`, making
/// mis-estimates visible next to the operator that suffered them.
///
/// `scans` (from [`scan_columns`], same id space) puts `cols k/n` on every
/// scan line: the columns the compiled scan moves, of its table's. Beside it
/// the line names what ran: the access path (`stream` or `gather`) and the
/// trips through the DMS each run of rows took, `(key)` where one of them
/// was the key pass that tested a join filter, and `chunks=k/n` where its
/// predicate's zone maps left it only `k` of the table's `n` chunks to read.
/// A partition line says after its lanes which round of its pass it is and
/// the round's fan-out; the stage that tested a join filter — a probe
/// side's round one, a broadcast join's `join.probe` — says what it kept of
/// the rows that entered the test, `filter kept=K/N`.
fn render_explain(
    events: &[StageEvent],
    result: &QueryResult,
    estimates: &[f64],
    scans: &[Option<(usize, usize, usize)>],
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "EXPLAIN ANALYZE (site={:?}, {} stages, simulated DPU)",
        result.site,
        events.len()
    );
    // A node's actual output rows are reported by its final stage.
    let mut last_stage: HashMap<u32, u32> = HashMap::new();
    for e in events {
        let st = last_stage.entry(e.node_id).or_insert(e.stage_id);
        *st = (*st).max(e.stage_id);
    }
    let estimated = |s: &mut String, node_id: u32, rows: u64| {
        if let Some(est) = estimates.get(node_id as usize) {
            let actual = (rows as f64).max(1.0);
            let estimated = est.max(1.0);
            let q = (estimated / actual).max(actual / estimated);
            let _ = write!(s, " est={:.0} q={:.2}", est, q);
        }
    };
    let mut tree: Vec<&StageEvent> = events.iter().collect();
    tree.sort_by_key(|e| (e.node_id, e.stage_id));
    for e in &tree {
        for (i, (node_id, depth, operator, rows)) in e.operators().enumerate() {
            let _ = write!(s, "{:indent$}{operator}", "", indent = depth as usize * 2);
            if let Some(Some((moved, of, chunks))) = scans.get(node_id as usize) {
                let _ = write!(s, " cols {moved}/{of}");
                if let Some(scan) = e.scan {
                    let _ = write!(s, " {} passes={}", scan.path, scan.passes);
                    if scan.keyed {
                        let _ = write!(s, " (key)");
                    }
                    if scan.pruned > 0 {
                        let read = chunks.saturating_sub(scan.pruned as usize);
                        let _ = write!(s, " chunks={read}/{chunks}");
                    }
                }
            }
            if i > 0 {
                // An operator of the task above: the rows it handed on.
                let _ = write!(s, "  rows={rows}");
                estimated(&mut s, node_id, rows);
                let _ = writeln!(s);
                continue;
            }
            let _ = write!(s, "  lanes={}", e.parallelism);
            if let Some(p) = e.partition {
                let _ = write!(s, " round {}/{} fanout {}", p.round, p.rounds, p.fanout);
            }
            if let Some(f) = e.filter {
                let _ = write!(s, " filter kept={}/{}", f.kept, f.tested);
            }
            let _ = write!(
                s,
                " rows={} sim={:.9}s cycles={:.0}c+{:.0}d instr={} \
                 bytes={} dmem_peak={} energy={:.3e}J wall={:.6}s",
                e.rows,
                e.sim_secs,
                e.compute_cycles,
                e.dms_cycles,
                e.instructions,
                e.dms_bytes,
                e.dmem_peak_bytes,
                e.energy_joules,
                e.wall_secs,
            );
            if last_stage.get(&e.node_id) == Some(&e.stage_id) {
                estimated(&mut s, e.node_id, e.rows);
            }
            let _ = writeln!(s);
            if !e.kernels.is_empty() {
                // Where the stage's compute went, summed over its lanes.
                let _ = write!(s, "{:indent$}kernels:", "", indent = depth as usize * 2 + 4);
                for k in &e.kernels {
                    let _ = write!(s, " {}={:.0}c", k.kernel, k.cycles);
                }
                let _ = writeln!(s);
            }
        }
    }
    let mut emission: Vec<&StageEvent> = events.iter().collect();
    emission.sort_by_key(|e| e.stage_id);
    let total: f64 = emission.iter().map(|e| e.sim_secs).sum();
    let energy: f64 = emission.iter().map(|e| e.energy_joules).sum();
    let wall: f64 = emission.iter().map(|e| e.wall_secs).sum();
    let _ = writeln!(
        s,
        "TOTAL simulated: {total:.9}s, {energy:.3e}J wall={wall:.6}s \
         (each sums bit-exactly to QueryReport)"
    );
    let _ = writeln!(s, "host wall (decode + host ops): {:.6}s", result.host_secs);
    s
}

/// Per pre-order node id of a compiled plan (the tracer's `node_id`): for
/// a scan, how many columns it moves, how many its table has and how many
/// chunks.
fn scan_columns(plan: &PlanNode, catalog: &Catalog, out: &mut Vec<Option<(usize, usize, usize)>>) {
    out.push(match plan {
        PlanNode::Scan { table, columns, .. } => catalog
            .get(table)
            .map(|t| (columns.len(), t.schema.len(), t.chunks.len())),
        _ => None,
    });
    plan.inputs()
        .for_each(|child| scan_columns(child, catalog, out));
}

/// Best-effort text of a thread panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Decode a RAPID result batch into host values using the plan metadata.
pub fn decode_batch(
    batch: &rapid_qef::batch::Batch,
    meta: &[ColMeta],
    catalog: &rapid_qef::plan::Catalog,
) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = (0..batch.rows())
        .map(|_| Vec::with_capacity(meta.len()))
        .collect();
    // Column by column, so a string column finds its dictionary once.
    for (c, m) in meta.iter().enumerate() {
        let column = batch.column(c);
        let dict = m
            .dict
            .as_ref()
            .map(|(tname, tcol)| catalog.get(tname).and_then(|t| t.dicts[*tcol].as_ref()));
        for (i, row) in rows.iter_mut().enumerate() {
            let v = match column.get(i) {
                None => Value::Null,
                Some(widened) => match (dict, m.dtype) {
                    (Some(dict), _) => Value::Str(
                        dict.and_then(|d| d.value_of(widened as u32))
                            .unwrap_or("")
                            .to_string(),
                    ),
                    (None, DataType::Date) => Value::Date(widened as i32),
                    (None, DataType::Decimal { .. }) => {
                        if m.scale == 0 {
                            Value::Int(widened)
                        } else {
                            Value::Decimal {
                                unscaled: widened,
                                scale: m.scale,
                            }
                        }
                    }
                    _ => Value::Int(widened),
                },
            };
            row.push(v);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_storage::schema::Field;

    fn db() -> HostDb {
        let db = HostDb::new(ExecContext::dpu().with_cores(4));
        db.create_table(
            "sales",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("amount", DataType::Decimal { scale: 2 }),
                Field::new("region", DataType::Varchar),
            ]),
        );
        db.bulk_insert(
            "sales",
            (0..10_000i64).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Decimal {
                        unscaled: (i % 500) * 100 + 99,
                        scale: 2,
                    },
                    Value::Str(["north", "south", "east", "west"][(i % 4) as usize].into()),
                ]
            }),
        );
        db
    }

    #[test]
    fn plans_are_compiled_for_the_cores_the_context_has() {
        fn join_scheme(plan: &PlanNode) -> Option<Vec<usize>> {
            match plan {
                PlanNode::HashJoin { scheme, .. } => Some(scheme.clone()),
                other => other.inputs().find_map(join_scheme),
            }
        }
        const SQL: &str = "SELECT a.k FROM a JOIN b ON a.k = b.k";
        let loaded = |ctx: ExecContext, rows: i64| {
            let d = HostDb::new(ctx);
            for name in ["a", "b"] {
                d.create_table(name, Schema::new(vec![Field::new("k", DataType::Int)]));
                d.bulk_insert(name, (0..rows).map(|i| vec![Value::Int(i)]));
                d.load_into_rapid(name).unwrap();
            }
            d
        };
        // The plan `d` runs, and the plan the compiler makes for `ctx`.
        let compiled_on = |d: &HostDb, ctx: &ExecContext| {
            let plan = parse_sql(SQL, &d.schemas()).unwrap();
            let engine = d.snapshot(&plan, &Request::default());
            let compiled = compile_on(&engine, &plan).unwrap();
            run_on_fork(&engine, &compiled).unwrap();
            let rapid = d.rapid.read();
            let params = CostParams::from_exec(ctx);
            let expected = rapid_qcomp::compile(&plan, rapid.catalog(), &params).unwrap();
            (compiled.plan, expected.plan)
        };
        let eight = ExecContext::dpu().with_cores(8);
        // Two thousand one-column rows need no more partitions than there
        // are cores to give one each.
        let d = loaded(eight.clone(), 2_000);
        let (on_eight, for_the_full_dpu) = compiled_on(&d, &ExecContext::dpu());
        assert_eq!(join_scheme(&on_eight), Some(vec![8]));
        assert_eq!(join_scheme(&for_the_full_dpu), Some(vec![32]));
        let d = loaded(ExecContext::dpu(), 2_000);
        let (on_the_full_dpu, for_the_full_dpu) = compiled_on(&d, &ExecContext::dpu());
        assert_eq!(on_the_full_dpu, for_the_full_dpu);

        // Half a scratchpad holds a build partition: ten thousand rows a
        // side take 16 partitions of a 16 KiB one and 8 of 32 KiB. The plan
        // is compiled, gated, verified and run for the 16 KiB the context has.
        let small = ExecContext {
            dmem_bytes: 16 * 1024,
            ..eight.clone()
        };
        let d = loaded(small.clone(), 10_000);
        let (on_small, for_small) = compiled_on(&d, &small);
        assert_eq!(on_small, for_small);
        assert_eq!(join_scheme(&on_small), Some(vec![16]));
        let (_, for_32_kib) = compiled_on(&d, &eight);
        assert_eq!(join_scheme(&for_32_kib), Some(vec![8]));
        let text = d.explain_verify(SQL).unwrap();
        assert!(
            text.starts_with("VERIFY (dmem 16384 B, tile 256 rows)"),
            "{text}"
        );
        assert!(text.contains("\nPASS ("), "{text}");
        let a = d.explain_analyze(SQL).unwrap();
        assert_eq!(a.result.rows.len(), 10_000);
        assert!(!a.events.is_empty());
        for e in &a.events {
            assert!(e.dmem_peak_bytes <= 16 * 1024, "{}", a.text);
        }

        // A 128-row tile: the verifier sizes every stage with it, and the
        // lanes of a scan's task hold the working set the verifier fitted
        // at that tile.
        let narrow = eight.with_tile_rows(128);
        let d = loaded(narrow.clone(), 2_000);
        let (on_narrow, for_narrow) = compiled_on(&d, &narrow);
        assert_eq!(on_narrow, for_narrow);
        let text = d.explain_verify(SQL).unwrap();
        assert!(
            text.starts_with("VERIFY (dmem 32768 B, tile 128 rows)"),
            "{text}"
        );
        let verified = rapid_verify::verify(&on_narrow, d.rapid.read().catalog(), &narrow);
        assert!(verified.ok(), "{text}");
        let tiles: Vec<_> = verified.stages.iter().map(|s| s.effective_tile).collect();
        assert!(tiles.iter().all(|t| t.is_some_and(|t| t <= 128)), "{text}");
        assert!(tiles.contains(&Some(128)), "{text}");
        let a = d.explain_analyze(SQL).unwrap();
        assert_eq!(a.result.rows.len(), 2_000);
        let mut matched = 0;
        for e in a.events.iter().filter(|e| e.scan.is_some()) {
            let node = e.node_id as usize;
            let stage = verified
                .stages
                .iter()
                .find(|s| s.node_id == node && s.stage == e.operator);
            if let Some(stage) = stage {
                assert_eq!(
                    e.dmem_peak_bytes, stage.working_set_bytes as u64,
                    "{}",
                    a.text
                );
                matched += 1;
            }
        }
        assert_eq!(matched, 2, "{}", a.text);
    }

    #[test]
    fn host_only_execution_works_before_load() {
        let d = db();
        let r = d
            .execute_sql("SELECT region, COUNT(*) AS n FROM sales GROUP BY region ORDER BY region")
            .unwrap();
        assert_eq!(r.site, ExecutionSite::Host);
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.rows[0][1], Value::Int(2500));
    }

    #[test]
    fn load_then_offload_and_results_match_host() {
        let d = db();
        d.load_into_rapid("sales").unwrap();
        let sql = "SELECT region, SUM(amount) AS total FROM sales GROUP BY region ORDER BY region";
        let rapid = d.execute_sql(sql).unwrap();
        assert_eq!(
            rapid.site,
            ExecutionSite::Rapid,
            "large scan should offload"
        );
        assert!(rapid.rapid_secs > 0.0);
        let host = d
            .execute_on_host(&parse_sql(sql, &d.schemas()).unwrap())
            .unwrap();
        assert_eq!(rapid.rows.len(), host.rows.len());
        for (a, b) in rapid.rows.iter().zip(&host.rows) {
            assert_eq!(a[0], b[0]);
            assert_eq!(
                a[1].to_f64().unwrap(),
                b[1].to_f64().unwrap(),
                "region {:?}",
                a[0]
            );
        }
    }

    #[test]
    fn updates_are_visible_after_admission_checkpoint() {
        let d = db();
        d.load_into_rapid("sales").unwrap();
        // Commit a change after the load.
        d.commit(
            "sales",
            vec![RowChange::Insert(vec![
                Value::Int(999_999),
                Value::Decimal {
                    unscaled: 123_456,
                    scale: 2,
                },
                Value::Str("north".into()),
            ])],
        );
        let r = d
            .execute_sql("SELECT COUNT(*) AS n FROM sales WHERE id = 999999")
            .unwrap();
        // Wherever it ran, the fresh row must be visible (admission
        // checkpointing shipped it to RAPID if the query offloaded).
        assert_eq!(r.rows[0][0], Value::Int(1));
    }

    #[test]
    fn background_checkpointer_ships_changes() {
        let mut d = db();
        d.load_into_rapid("sales").unwrap();
        d.start_checkpointer(Duration::from_millis(10));
        d.commit(
            "sales",
            vec![RowChange::Insert(vec![
                Value::Int(777_777),
                Value::Decimal {
                    unscaled: 1,
                    scale: 2,
                },
                Value::Str("east".into()),
            ])],
        );
        // Wait for the background thread to pick it up.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let current = {
                let r = d.rapid.read();
                r.catalog().get("sales").map(|t| t.rows())
            };
            if current == Some(10_001) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "checkpointer never shipped the change"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn force_site_knobs() {
        let mut d = db();
        d.load_into_rapid("sales").unwrap();
        d.force_site = Some(ExecutionSite::Host);
        let r = d.execute_sql("SELECT id FROM sales WHERE id < 5").unwrap();
        assert_eq!(r.site, ExecutionSite::Host);
        d.force_site = Some(ExecutionSite::Rapid);
        let r = d.execute_sql("SELECT id FROM sales WHERE id < 5").unwrap();
        assert_eq!(r.site, ExecutionSite::Rapid);
        assert_eq!(r.rows.len(), 5);
    }

    #[test]
    fn rapid_strings_decode_back() {
        let d = db();
        d.load_into_rapid("sales").unwrap();
        let r = d
            .execute_sql(
                "SELECT region, MIN(amount) AS lo FROM sales GROUP BY region ORDER BY region",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Str("east".into()));
        assert_eq!(r.columns, vec!["region", "lo"]);
    }

    /// `import_table` must land the source table's exact logical rows in
    /// both engines: NULLs stay NULL, decimals keep unscaled value and
    /// scale, dates stay dates, dictionary codes decode to their strings.
    #[test]
    fn import_table_reads_back_equal_from_row_store_and_rapid() {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::nullable("price", DataType::Decimal { scale: 2 }),
            Field::nullable("day", DataType::Date),
            Field::nullable("tag", DataType::Varchar),
        ]);
        let rows: Vec<Vec<Value>> = (0..300i64)
            .map(|i| {
                let unscaled = i * 37 - 4_000;
                let tag = ["red", "green", "", "blue"][(i % 4) as usize];
                let mut row = vec![
                    Value::Int(i - 150),
                    Value::Decimal { unscaled, scale: 2 },
                    Value::Date(9_000 + (i % 40) as i32),
                    Value::Str(tag.into()),
                ];
                // Every nullable column is NULL on its own seventh of the rows.
                if let 1..=3 = i % 7 {
                    row[(i % 7) as usize] = Value::Null;
                }
                row
            })
            .collect();
        let mut b = TableBuilder::new("src", schema).chunk_rows(64);
        b.extend_rows(rows.clone());
        let source = b.finish();

        // Chunks keep slot order, so every copy holds the rows in the order
        // they were pushed.
        let decode = |t: &Table| -> Vec<Vec<Value>> {
            let ncols = t.schema.len();
            let cols: Vec<Vec<i64>> = (0..ncols).map(|c| t.column_i64(c)).collect();
            let nulls: Vec<BitVec> = (0..ncols).map(|c| t.column_nulls(c)).collect();
            (0..t.rows())
                .map(|r| {
                    (0..ncols)
                        .map(|c| match nulls[c].get(r) {
                            true => Value::Null,
                            false => t.decode_value(c, cols[c][r]),
                        })
                        .collect()
                })
                .collect()
        };
        let want = decode(&source);
        assert_eq!(want, rows, "the source table itself holds the rows");

        let d = HostDb::new(ExecContext::dpu().with_cores(4));
        d.import_table(&source).unwrap();

        let host = d.store().table("src").expect("host table created");
        let stored: Vec<Vec<Value>> = host.read().scan().cloned().collect();
        assert_eq!(stored, want, "row store");

        let rapid = d.rapid().read();
        let loaded = rapid.catalog().get("src").expect("loaded into RAPID");
        assert_eq!(loaded.schema, source.schema);
        assert_eq!(decode(loaded), want, "RAPID catalog");
    }

    #[test]
    fn unknown_table_errors() {
        let d = db();
        assert!(matches!(
            d.execute_sql("SELECT x FROM ghost"),
            Err(DbError::Sql(_))
        ));
    }

    #[test]
    fn explain_analyze_reconciles_with_query_report() {
        let d = db();
        d.load_into_rapid("sales").unwrap();
        let a = d
            .explain_analyze(
                "EXPLAIN ANALYZE SELECT region, SUM(amount) AS t FROM sales \
                 GROUP BY region ORDER BY region",
            )
            .unwrap();
        assert_eq!(a.result.site, ExecutionSite::Rapid);
        assert!(!a.events.is_empty());
        // Summing the per-stage sim_secs in emission order reproduces the
        // engine's QueryReport total bit-for-bit — the tentpole invariant.
        let total: f64 = a.events.iter().map(|e| e.sim_secs).sum();
        assert_eq!(total.to_bits(), a.result.rapid_secs.to_bits());
        assert!(a.text.contains("TOTAL simulated"));
        // The scan, the map over it and `groupby.consume` are one task: one
        // stage, one event, one line with the operators beneath it. The scan
        // line says what moved — `id` did not — and how: an unfiltered table
        // streams. Operator strings stay bare stage names; the access path
        // is a field of the event.
        let task = "  groupby.consume  lanes=4 rows=16 ";
        let beneath = "\n    map  rows=10000 est=10000 q=1.00\n      \
                       scan(sales) cols 2/3 stream passes=1  rows=10000 est=10000 q=1.00\n";
        assert!(
            a.text.contains(task) && a.text.contains(beneath),
            "tree names the task, and beneath it the scan, its columns and its access path:\n{}",
            a.text
        );
        let scans: Vec<_> = a.events.iter().filter(|e| e.scan.is_some()).collect();
        assert_eq!(scans.len(), 1, "{}", a.text);
        assert_eq!(scans[0].operator, "groupby.consume");
        assert_eq!(
            scans[0].scan.map(|s| (s.path.to_string(), s.passes)),
            Some(("stream".into(), 1))
        );
        let ops: Vec<&str> = scans[0].operators().map(|op| op.2).collect();
        assert_eq!(ops, ["groupby.consume", "map", "scan(sales)"]);
        assert!(a.events.iter().all(|e| e.operator != "scan(sales)"));
        // Under the task line, its compute by kernel: the region codes index
        // their group's slot, nothing is hashed.
        let kernels = a.text.lines().find(|l| l.starts_with("      kernels:"));
        let kernels = kernels.unwrap_or_else(|| panic!("no kernels line:\n{}", a.text));
        assert!(kernels.contains(" group-slot="), "{}", a.text);
        assert!(!kernels.contains(" hash="), "{kernels}");
    }

    #[test]
    fn explain_analyze_prints_the_stages_host_wall_beside_the_simulated_total() {
        let d = db();
        d.load_into_rapid("sales").unwrap();
        let sql = "SELECT region, SUM(amount) AS t FROM sales GROUP BY region ORDER BY region";
        // On the DPU every stage is stamped with host time too, and the
        // stages' walls, summed in emission order, are the report's.
        let sink = MemorySink::new();
        let engine = {
            let rapid = d.rapid().read();
            rapid.fork(rapid.context().clone().with_trace(Arc::clone(&sink) as _))
        };
        let plan = parse_sql(sql, &d.schemas()).unwrap();
        let params = CostParams::from_exec(engine.context());
        let compiled = rapid_qcomp::compile(&plan, engine.catalog(), &params).unwrap();
        let (_, report) = engine.execute(&compiled.plan).unwrap();
        let wall: f64 = sink.take().iter().map(|e| e.wall_secs).sum();
        assert_eq!(wall.to_bits(), report.wall_secs.to_bits());
        assert!(wall > 0.0);
        // EXPLAIN ANALYZE's footer prints that sum beside the simulated one.
        let a = d
            .explain_analyze(&format!("EXPLAIN ANALYZE {sql}"))
            .unwrap();
        let wall: f64 = a.events.iter().map(|e| e.wall_secs).sum();
        assert!(wall > 0.0);
        let total = a.text.lines().find(|l| l.starts_with("TOTAL simulated"));
        let total = total.unwrap_or_else(|| panic!("no TOTAL line:\n{}", a.text));
        assert!(total.contains(&format!(" wall={wall:.6}s ")), "{total}");
    }

    #[test]
    fn explain_analyze_shows_estimates_and_q_error() {
        let d = db();
        d.load_into_rapid("sales").unwrap();
        let a = d
            .explain_analyze(
                "EXPLAIN ANALYZE SELECT region, COUNT(*) AS n FROM sales GROUP BY region",
            )
            .unwrap();
        // Every operator's final stage line carries the estimator's view.
        assert!(a.text.contains(" est="), "no estimates:\n{}", a.text);
        assert!(a.text.contains(" q="), "no Q-error column:\n{}", a.text);
        // Each traced node gets exactly one est/q annotation — the operators
        // beneath a task's own among them.
        let nodes: std::collections::HashSet<u32> = a
            .events
            .iter()
            .flat_map(|e| e.operators().map(|op| op.0))
            .collect();
        let annotations = a.text.matches(" q=").count();
        assert_eq!(annotations, nodes.len(), "{}", a.text);
    }

    #[test]
    fn explain_analyze_via_sql_surface() {
        let d = db();
        d.load_into_rapid("sales").unwrap();
        let r = d
            .execute_sql("EXPLAIN ANALYZE SELECT region, COUNT(*) AS n FROM sales GROUP BY region")
            .unwrap();
        assert_eq!(r.columns, vec!["QUERY PLAN"]);
        assert!(r
            .rows
            .iter()
            .any(|row| matches!(&row[0], Value::Str(s) if s.contains("TOTAL simulated"))));
    }

    #[test]
    fn explain_verify_renders_stage_table_without_executing() {
        let d = db();
        d.load_into_rapid("sales").unwrap();
        let text = d
            .explain_verify("SELECT region, COUNT(*) AS n FROM sales GROUP BY region")
            .unwrap();
        // One row per task, with its operators, its one vector size and the
        // working set they hold together.
        let task: Vec<&str> = text
            .lines()
            .find(|l| l.contains("groupby.consume"))
            .unwrap_or_else(|| panic!("no task in:\n{text}"))
            .split("  cols 1/3  ")
            .collect();
        assert_eq!(task[1], "[scan(sales) -> map -> groupby.consume]", "{text}");
        // `region`'s dictionary code is stored in one byte: 9 B a row.
        let columns: Vec<&str> = task[0].split_whitespace().collect();
        assert_eq!(
            columns[1..6],
            ["groupby.consume", "256", "21120", "16512", "9"],
            "{text}"
        );
        assert!(text.contains("PASS"), "{text}");
        // And through the SQL surface, as a QUERY PLAN result.
        let r = d
            .execute_sql("EXPLAIN VERIFY SELECT region, COUNT(*) AS n FROM sales GROUP BY region")
            .unwrap();
        assert_eq!(r.columns, vec!["QUERY PLAN"]);
        assert!(r
            .rows
            .iter()
            .any(|row| matches!(&row[0], Value::Str(s) if s.contains("PASS"))));
    }

    #[test]
    fn explain_verify_bounds_what_a_scan_holds_in_dmem() {
        let d = db();
        d.load_into_rapid("sales").unwrap();
        for sql in [
            "SELECT region, SUM(amount) AS t FROM sales GROUP BY region",
            "SELECT id, amount FROM sales WHERE amount >= 10 AND amount < 40 AND id < 5000",
        ] {
            let plan = parse_sql(sql, &d.schemas()).unwrap();
            let rapid = d.rapid.read();
            let params = CostParams::from_exec(rapid.context());
            let compiled =
                rapid_qcomp::compile_unverified(&plan, rapid.catalog(), &params).unwrap();
            let verified = rapid_verify::verify(&compiled.plan, rapid.catalog(), rapid.context());
            drop(rapid);
            let a = d.explain_analyze(sql).unwrap();
            let scan = a.events.iter().find(|e| e.scan.is_some()).expect("a scan");
            let bound = verified
                .stages
                .iter()
                .find(|s| s.node_id == scan.node_id as usize && s.stage == scan.operator)
                .expect("the verifier derives the scan stage");
            // Each scan item reserves the tile buffers its streams were
            // sized from — the working set the verifier fitted.
            assert!(scan.dmem_peak_bytes > 0, "{sql}: {}", a.text);
            assert_eq!(
                scan.dmem_peak_bytes, bound.working_set_bytes as u64,
                "{sql}"
            );
        }
    }

    #[test]
    fn explain_verify_says_what_a_partition_lane_holds_in_dmem() {
        // 10,000 distinct ids: the group-by partitions, round one in the
        // lanes of the scan's task. `id` is stored in 2 bytes and `amount` in
        // 4, so a row streams 6 bytes and the hash lane 4 — not the 20 of two
        // declared 8-byte columns — beside the state of the task's three
        // operators.
        let d = db();
        d.load_into_rapid("sales").unwrap();
        let sql = "SELECT id, SUM(amount) AS t FROM sales GROUP BY id";
        let a = d.explain_analyze(sql).unwrap();
        let rounds: Vec<_> = a
            .events
            .iter()
            .filter(|e| e.operator == "groupby.partition")
            .collect();
        assert_eq!(rounds.len(), 1, "{}", a.text);
        let round = rounds[0];
        assert_eq!(
            round.dmem_peak_bytes,
            3 * 64 + 2 * (6 + 4) * 256,
            "{}",
            a.text
        );
        // The line says which round of how many it is, after its lanes.
        let p = round.partition.expect("a partition stage says its round");
        assert_eq!((p.round, p.rounds), (1, 1));
        let line = format!(
            "groupby.partition  lanes={} round 1/1 fanout {} rows=10000 ",
            round.parallelism, p.fanout
        );
        assert!(a.text.contains(&line), "no `{line}` in:\n{}", a.text);
        assert!(a
            .events
            .iter()
            .all(|e| e.partition.is_none() || e.operator == "groupby.partition"));
        // EXPLAIN VERIFY derives the same stage before anything runs: its
        // `ws-bytes` is the lane's `dmem_peak`, its `B/row` the encoded
        // row plus the hash lane.
        let text = d.explain_verify(sql).unwrap();
        let stage: Vec<&str> = text
            .lines()
            .find(|l| l.contains("groupby.partition"))
            .unwrap_or_else(|| panic!("no partition stage in:\n{text}"))
            .split_whitespace()
            .collect();
        let ws = round.dmem_peak_bytes.to_string();
        assert_eq!(stage[1..6], ["groupby.partition", "256", &ws, "192", "10"]);
        assert_eq!(
            stage[stage.len() - 5..].join(" "),
            "[scan(sales) -> map -> groupby.partition]"
        );
    }

    #[test]
    fn explain_analyze_host_fallback_has_no_trace() {
        let d = db(); // nothing loaded into RAPID
        let a = d
            .explain_analyze("SELECT region, COUNT(*) AS n FROM sales GROUP BY region")
            .unwrap();
        assert_eq!(a.result.site, ExecutionSite::Host);
        assert!(a.events.is_empty());
        assert!(a.text.contains("Host"));
    }

    #[test]
    fn negative_key_join_round_trips() {
        // Regression for the radix-partition sign bug: negative i64 join
        // keys must land in partitions consistently on both sides and
        // match exactly what the host engine produces.
        let d = HostDb::new(ExecContext::dpu().with_cores(4));
        d.create_table(
            "facts",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
        );
        d.create_table(
            "dims",
            Schema::new(vec![
                Field::new("dk", DataType::Int),
                Field::new("label", DataType::Varchar),
            ]),
        );
        let keys: Vec<i64> = vec![-1_000_000_007, -50, -3, -1, 0, 1, 7, 42, 1_000_003];
        d.bulk_insert(
            "facts",
            keys.iter()
                .enumerate()
                .map(|(i, k)| vec![Value::Int(*k), Value::Int(i as i64)]),
        );
        d.bulk_insert(
            "dims",
            keys.iter()
                .map(|k| vec![Value::Int(*k), Value::Str(format!("key{k}"))]),
        );
        d.load_into_rapid("facts").unwrap();
        d.load_into_rapid("dims").unwrap();
        let sql = "SELECT k, label FROM facts JOIN dims ON k = dk ORDER BY k";
        let plan = parse_sql(sql, &d.schemas()).unwrap();
        let rapid = d.execute_on_rapid(&plan).unwrap();
        let host = d.execute_on_host(&plan).unwrap();
        assert_eq!(rapid.rows.len(), keys.len(), "every negative key matched");
        assert_eq!(rapid.rows, host.rows);
    }

    #[test]
    fn null_group_keys_round_trip_through_sql() {
        let d = HostDb::new(ExecContext::dpu().with_cores(4));
        d.create_table(
            "obs",
            Schema::new(vec![
                Field::nullable("g", DataType::Int),
                Field::new("x", DataType::Int),
            ]),
        );
        d.bulk_insert(
            "obs",
            (0..300i64).map(|i| {
                let g = if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 3)
                };
                vec![g, Value::Int(1)]
            }),
        );
        d.load_into_rapid("obs").unwrap();
        let sql = "SELECT g, COUNT(*) AS n FROM obs GROUP BY g ORDER BY g";
        let plan = parse_sql(sql, &d.schemas()).unwrap();
        let rapid = d.execute_on_rapid(&plan).unwrap();
        let host = d.execute_on_host(&plan).unwrap();
        assert_eq!(rapid.rows, host.rows, "NULL group keys agree with host");
        // NULLs form exactly one group alongside the three integer groups.
        assert_eq!(rapid.rows.len(), 4);
        assert!(rapid
            .rows
            .iter()
            .any(|r| r[0] == Value::Null && r[1] == Value::Int(60)));
    }

    #[test]
    fn null_join_keys_round_trip_through_sql() {
        let d = HostDb::new(ExecContext::dpu().with_cores(4));
        d.create_table(
            "l",
            Schema::new(vec![
                Field::nullable("lk", DataType::Int),
                Field::new("lv", DataType::Int),
            ]),
        );
        d.create_table(
            "r",
            Schema::new(vec![
                Field::nullable("rk", DataType::Int),
                Field::new("rv", DataType::Int),
            ]),
        );
        // 1/4 of keys NULL on each side; NULL never equals NULL in SQL.
        d.bulk_insert(
            "l",
            (0..200i64).map(|i| {
                let k = if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 10)
                };
                vec![k, Value::Int(i)]
            }),
        );
        d.bulk_insert(
            "r",
            (0..40i64).map(|i| {
                let k = if i % 4 == 1 {
                    Value::Null
                } else {
                    Value::Int(i % 10)
                };
                vec![k, Value::Int(i)]
            }),
        );
        d.load_into_rapid("l").unwrap();
        d.load_into_rapid("r").unwrap();
        let sql = "SELECT lk, COUNT(*) AS n FROM l JOIN r ON lk = rk GROUP BY lk ORDER BY lk";
        let plan = parse_sql(sql, &d.schemas()).unwrap();
        let rapid = d.execute_on_rapid(&plan).unwrap();
        let host = d.execute_on_host(&plan).unwrap();
        assert_eq!(rapid.rows, host.rows, "NULL join keys agree with host");
        assert!(
            rapid.rows.iter().all(|r| r[0] != Value::Null),
            "NULL keys never match"
        );
    }

    #[test]
    fn deterministic_batch_traces_are_bit_identical() {
        // A trace sink installed on the base context is inherited by every
        // forked per-session engine; the drained trace of a batch is a pure
        // function of it.
        let run = || {
            let sink = MemorySink::new();
            let trace: Arc<dyn TraceSink> = Arc::clone(&sink) as _;
            let mut d = HostDb::new(ExecContext::dpu().with_cores(4).with_trace(trace));
            d.create_table(
                "t",
                Schema::new(vec![
                    Field::new("k", DataType::Int),
                    Field::new("v", DataType::Int),
                ]),
            );
            d.bulk_insert(
                "t",
                (0..5_000i64).map(|i| vec![Value::Int(i % 7), Value::Int(i)]),
            );
            d.load_into_rapid("t").unwrap();
            d.force_site = Some(ExecutionSite::Rapid);
            let queries = vec![
                BatchQuery::new("SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY k"),
                BatchQuery::new("SELECT COUNT(*) AS n FROM t WHERE v < 1000"),
                BatchQuery::new("SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k"),
            ];
            let out = d.execute_batch(&queries, SchedConfig::default());
            for r in &out.results {
                assert!(r.is_ok(), "{r:?}");
            }
            sink.take()
                .iter()
                .map(|e| e.deterministic_view())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty(), "batch produced trace events");
        assert_eq!(a, b, "deterministic traces are bit-identical");
    }

    #[test]
    fn concurrent_partial_offloads_use_unique_temp_names() {
        // Partial offload materializes RAPID fragments as host temp tables;
        // concurrent sessions must not collide on those names. Join a
        // loaded table against an unloaded one so every query takes the
        // Mixed path, then hammer it from several threads at once.
        let d = db_with_unloaded_dimension();
        let sql = "SELECT pretty, COUNT(*) AS n FROM sales \
                   JOIN region_names ON region = key GROUP BY pretty ORDER BY pretty";
        let expected = d.execute_sql(sql).unwrap();
        assert_eq!(expected.site, ExecutionSite::Mixed);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let d = &d;
                    let expected = &expected;
                    scope.spawn(move || {
                        for _ in 0..3 {
                            let r = d.execute_sql(sql).expect("concurrent partial offload");
                            assert_eq!(r.site, ExecutionSite::Mixed);
                            assert_eq!(r.rows, expected.rows);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        // No temp-table leftovers once every session finished.
        assert!(d.schemas().keys().all(|t| !t.contains("__")));
    }

    /// `sales` loaded plus an unloaded `region_names`: joins of the two
    /// offload partially.
    fn db_with_unloaded_dimension() -> HostDb {
        let d = db();
        d.load_into_rapid("sales").unwrap();
        d.create_table(
            "region_names",
            Schema::new(vec![
                Field::new("key", DataType::Varchar),
                Field::new("pretty", DataType::Varchar),
            ]),
        );
        d.bulk_insert(
            "region_names",
            ["north", "south", "east", "west"]
                .iter()
                .map(|r| vec![Value::Str((*r).into()), Value::Str(format!("The {r}"))]),
        );
        d
    }

    #[test]
    fn partial_offload_leaves_cached_plans_valid() {
        // Landing fragment results is not DDL: it used to bump the DDL
        // epoch twice per Mixed query and stale every cached plan.
        let d = db_with_unloaded_dimension();
        let ps = d.prepare("SELECT COUNT(*) AS n FROM sales").unwrap();
        d.execute_sql(ps.sql()).unwrap();
        let before = d.plan_cache_stats();
        let mixed = d
            .execute_sql(
                "SELECT pretty, COUNT(*) AS n FROM sales \
                 JOIN region_names ON region = key GROUP BY pretty",
            )
            .unwrap();
        assert_eq!(mixed.site, ExecutionSite::Mixed);
        d.execute_sql(ps.sql()).unwrap();
        let after = d.plan_cache_stats();
        assert_eq!(after.invalidations, before.invalidations);
        assert_eq!(after.hits, before.hits + 1, "the prepared plan was reused");
    }

    #[test]
    fn failed_fragment_leaves_no_temp_tables_behind() {
        // Two fragments; the second (an overflowing SUM) fails after the
        // first has landed its result. Nothing may stay in the row store.
        use rapid_qcomp::logical::{LAgg, LExpr, LNamed};
        let d = db_with_unloaded_dimension();
        d.create_table(
            "huge",
            Schema::new(vec![
                Field::new("hk", DataType::Int),
                Field::new("x", DataType::Int),
            ]),
        );
        d.bulk_insert(
            "huge",
            (0..4).map(|_| vec![Value::Int(1), Value::Int(i64::MAX / 2)]),
        );
        d.load_into_rapid("huge").unwrap();
        let overflowing = LogicalPlan::scan("huge").aggregate(
            vec![LNamed::new("hk", LExpr::col("hk"))],
            vec![LAgg {
                func: rapid_qef::primitives::agg::AggFunc::Sum,
                input: LExpr::col("x"),
                name: "total".into(),
            }],
        );
        let plan = LogicalPlan::scan("sales")
            .join(LogicalPlan::scan("region_names"), &["region"], &["key"])
            .join(overflowing, &["id"], &["hk"]);
        let rapid = d.rapid.read();
        let params = CostParams::from_exec(rapid.context());
        let decision = crate::offload::decide(&plan, rapid.catalog(), &params);
        drop(rapid);
        assert_eq!(decision, crate::offload::OffloadDecision::Partial(2));

        let mut before = d.store().table_names();
        before.sort();
        let err = d.execute_plan(&plan).unwrap_err();
        assert_eq!(err.kind(), "Rapid", "{err}");
        let mut after = d.store().table_names();
        after.sort();
        assert_eq!(after, before);
    }

    #[test]
    fn an_older_snapshot_never_replaces_a_newer_one() {
        // Snapshots are built outside the engine lock, so the slower of two
        // builders can finish last; installing it would move RAPID's copy
        // (and the query that forks it next) back in time.
        let d = db();
        let host = d.store().table("sales").unwrap();
        let ship_at = |scn: u64| {
            host.write().scn = Scn(scn);
            ship_snapshot(&d.rapid, "sales", &host);
            d.rapid.read().catalog()["sales"].scn
        };
        assert_eq!(ship_at(7), Scn(7));
        assert_eq!(ship_at(6), Scn(7), "the older snapshot is refused");
        assert_eq!(ship_at(8), Scn(8));
    }

    #[test]
    fn a_recreated_table_replaces_its_loaded_predecessor() {
        // The replacement starts empty, yet it is the later state.
        let d = db();
        d.load_into_rapid("sales").unwrap();
        d.create_table("sales", Schema::new(vec![Field::new("id", DataType::Int)]));
        d.load_into_rapid("sales").unwrap();
        assert_eq!(d.rapid.read().catalog()["sales"].rows(), 0);
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_after_dml() {
        let d = db();
        let sql = "SELECT COUNT(*) AS n FROM sales WHERE id < 100";
        d.execute_sql(sql).unwrap();
        let s0 = d.plan_cache_stats();
        assert_eq!(s0.hits, 0);
        d.execute_sql(sql).unwrap();
        let s1 = d.plan_cache_stats();
        assert_eq!(s1.hits, 1, "second execution reuses the cached plan");
        // Committed DML moves the table's SCN, not the names the parse read:
        // the entry stays valid.
        d.commit(
            "sales",
            vec![RowChange::Insert(vec![
                Value::Int(-1),
                Value::Decimal {
                    unscaled: 0,
                    scale: 2,
                },
                Value::Str("north".into()),
            ])],
        );
        let r = d.execute_sql(sql).unwrap();
        let s2 = d.plan_cache_stats();
        assert_eq!(s2.hits, s1.hits + 1, "the commit re-plans nothing");
        assert_eq!(s2.invalidations, s1.invalidations);
        assert_eq!(
            r.rows[0][0],
            Value::Int(101),
            "the cached plan sees the new row"
        );
    }

    /// A commit re-plans nothing on the offload path either: the cached
    /// logical plan names columns, not dictionary codes, and each execution
    /// is admitted and compiled against the reloaded table — so a string the
    /// dictionary did not hold when the statement was cached is found.
    #[test]
    fn a_commit_does_not_re_plan_and_the_cached_plan_sees_it() {
        let d = db();
        d.load_into_rapid("sales").unwrap();
        let sql = "SELECT id, region FROM sales WHERE region = 'central' OR id < 3 ORDER BY id";
        let plan = parse_sql(sql, &d.schemas()).unwrap();
        let insert = |id: i64| {
            let row = vec![
                Value::Int(id),
                Value::Decimal {
                    unscaled: 100,
                    scale: 2,
                },
                Value::Str("central".into()),
            ];
            d.commit("sales", vec![RowChange::Insert(row)]).unwrap();
        };
        let central = |r: &QueryResult| {
            let central = Value::Str("central".into());
            r.rows.iter().filter(|row| row[1] == central).count()
        };
        let ps = d.prepare(sql).unwrap();
        let before = d.execute_sql(ps.sql()).unwrap();
        assert_eq!(
            before.site,
            ExecutionSite::Rapid,
            "the test must take the offload path"
        );
        assert_eq!(central(&before), 0);
        let cached = d.plan_cache_stats();

        // Through `execute_sql`.
        insert(20_000);
        let r = d.execute_sql(sql).unwrap();
        assert_eq!(r.site, ExecutionSite::Rapid);
        assert_eq!(central(&r), 1, "the new string is found");
        assert_eq!(r.rows, d.execute_on_host(&plan).unwrap().rows);
        // Through a prepared statement.
        insert(20_001);
        let ps = d.prepare(sql).unwrap();
        let r = d.execute_sql(ps.sql()).unwrap();
        assert_eq!(r.site, ExecutionSite::Rapid);
        assert_eq!(central(&r), 2);
        assert_eq!(r.rows, d.execute_on_host(&plan).unwrap().rows);

        let after = d.plan_cache_stats();
        assert_eq!(
            after.hits,
            cached.hits + 3,
            "every lookup after the commits hit"
        );
        assert_eq!(
            (after.misses, after.invalidations),
            (cached.misses, cached.invalidations)
        );
    }

    #[test]
    fn plan_cache_invalidates_on_ddl() {
        let d = db();
        let sql = "SELECT COUNT(*) AS n FROM sales";
        d.execute_sql(sql).unwrap();
        d.create_table(
            "unrelated",
            Schema::new(vec![Field::new("x", DataType::Int)]),
        );
        d.execute_sql(sql).unwrap();
        assert_eq!(
            d.plan_cache_stats().invalidations,
            1,
            "any DDL bumps the epoch and conservatively re-plans"
        );
    }

    #[test]
    fn prepared_statement_round_trips_and_survives_ddl() {
        let d = db();
        let ps = d
            .prepare("SELECT region, COUNT(*) AS n FROM sales GROUP BY region ORDER BY region")
            .unwrap();
        let direct = d.execute_sql(ps.sql()).unwrap();
        let via = d.execute_sql(ps.sql()).unwrap();
        assert_eq!(via.rows, direct.rows);
        assert!(d.plan_cache_stats().hits >= 1, "prepare warmed the cache");
        // DDL after prepare: execution transparently re-plans.
        d.create_table("other", Schema::new(vec![Field::new("x", DataType::Int)]));
        assert_eq!(d.execute_sql(ps.sql()).unwrap().rows, direct.rows);
        // Invalid SQL is rejected at prepare time with the parse error.
        let err = d.prepare("SELECT FROM nothing").unwrap_err();
        assert_eq!(err.kind(), "Sql");
    }

    #[test]
    fn scheduled_explain_analyze_matches_serial_path() {
        // Parity fix: EXPLAIN ANALYZE through the batch/session path used
        // to hand the raw prefix to the parser and fail with a Sql error
        // while `execute_sql` succeeded.
        let d = db();
        d.load_into_rapid("sales").unwrap();
        let sql = "EXPLAIN ANALYZE SELECT region, COUNT(*) AS n FROM sales GROUP BY region";
        let serial = d.execute_sql(sql).unwrap();
        let out = d.execute_batch(&[BatchQuery::new(sql)], SchedConfig::default());
        let batched = out.results.into_iter().next().unwrap().unwrap();
        assert_eq!(batched.rows.len(), serial.rows.len());
        assert_eq!(batched.rows[0][0], serial.rows[0][0]);
    }
}
