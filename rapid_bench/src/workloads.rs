//! The five workloads: what each runs, how its inputs come from the seed,
//! how each result is checked, and its real path for the traced block.
//!
//! Operation counts are fixed per block, not timed out: the cost of a
//! query on a long-lived server depends on the queries already served, so
//! only equal counts compare across commits. `FULL_*` are the counts of one
//! block at the benchmark's `run_seconds`; a run scales them by
//! `--seconds / run_seconds`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use hostdb::db::decode_batch;
use hostdb::{parse_sql, BatchQuery, HostDb};
use rapid_qcomp::{CostParams, LogicalPlan};
use rapid_qef::exec::ExecContext;
use rapid_qef::{Engine, QueryOutput};
use rapid_sched::{SchedConfig, SchedReport};
use rapid_server::{Client, Server, ServerConfig};
use rapid_storage::scn::RowChange;
use rapid_storage::types::Value;

use crate::alloc::uncounted;
use crate::layers::{schemas, Path, RealPath, TracedOp};
use crate::metrics::Values;
use crate::setup::process_cpu_secs;
use crate::stats::median;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub sf: f64,
    pub blocks: usize,
    /// Share of the full per-block operation counts to run.
    pub work: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub trace: bool,
    /// Self-test: spoil the expected results so every check must fail.
    pub corrupt_reference: bool,
}

impl Config {
    fn count(&self, full: usize) -> usize {
        ((full as f64 * self.work).round() as usize).max(1)
    }
}

const FULL_TPCH_SWEEPS: usize = 5;
const FULL_SCHED_BATCHES: usize = 4;
const FULL_POINT_OPS_PER_CONN: usize = 1500;
const FULL_WIDE_OPS_PER_CONN: usize = 20;
const FULL_DML_CYCLES: usize = 15;

/// Client connections of the wire workloads (the box has two cores).
const CONNS: usize = 2;

/// Operations the traced block walks at most, per workload kind.
const TRACED_SWEEPS: usize = 2;
const TRACED_WIRE_OPS: usize = 200;
const TRACED_DML_CYCLES: usize = 6;

/// One block's measurements.
#[derive(Debug, Default)]
pub struct Block {
    /// Per connection (one for in-process workloads), each call's wall
    /// latency in nanoseconds, in issue order.
    pub latencies: Vec<Vec<u64>>,
    /// Operations completed: one per call, except that a batch call
    /// completes one operation per query in it.
    pub ops: usize,
    pub failed: usize,
    /// CPU seconds the block spent running the oracle, which its host
    /// cost must not include.
    pub oracle_cpu_secs: f64,
}

impl Block {
    /// The block's wall time with the clock stopped during checks: the
    /// longest per-connection sum of call latencies.
    pub fn busy_secs(&self) -> f64 {
        let busy = self.latencies.iter().map(|l| l.iter().sum::<u64>()).max();
        busy.unwrap_or(0) as f64 / 1e9
    }
}

pub trait Workload: RealPath {
    /// Expected results from the independent Volcano oracle
    /// (`HostDb::execute_on_host`), computed with the clock stopped.
    fn reference(&mut self);
    /// Run block `b`; block 0 is the warm-up.
    fn block(&mut self, b: usize) -> Block;
    fn path(&self) -> Path;
    /// The first operations of block 1, grouped as the traced block walks
    /// them: a group is walked layer by layer, then re-run on the real path.
    fn traced_groups(&mut self) -> Vec<Vec<TracedOp>>;
    /// Simulated cycles per operation where the timed run defines them
    /// (the batch makespan); otherwise they come from the traced operations.
    fn sim_cycles_per_op(&self) -> Option<f64> {
        None
    }
    /// Layer metrics only this workload can supply.
    fn layer_extras(&mut self, _out: &mut Values) {}
    /// Tear down; returns the number of leaked server threads.
    fn finish(self: Box<Self>) -> u64 {
        0
    }
}

/// Attach the named workload to a loaded database: server start, connects
/// and prepares still count towards `setup_s`.
pub fn attach(name: &str, db: Arc<HostDb>, cfg: &Config) -> Option<Box<dyn Workload>> {
    Some(match name {
        "tpch_serial" => Box::new(TpchSerial::attach(db, cfg)),
        "sched_batch" => Box::new(SchedBatch::attach(db, cfg)),
        "wire_point_prepared" => Box::new(WirePoint::attach(db, cfg)),
        "wire_adhoc_wide" => Box::new(WireWide::attach(db, cfg)),
        "dml_refresh" => Box::new(DmlRefresh::attach(db, cfg)),
        _ => return None,
    })
}

/// Checksum of a result in canonical form: row order and decimal scale
/// representation do not matter, values do.
pub fn checksum(rows: &[Vec<Value>]) -> u64 {
    let mut h = DefaultHasher::new();
    rapid_fuzz::canonical(rows).hash(&mut h);
    h.finish()
}

/// Expected checksums; `corrupt` spoils every entry (the self-test that the
/// benchmark can fail).
#[derive(Debug)]
struct Expected<K> {
    sums: HashMap<K, u64>,
    corrupt: bool,
}

impl<K: Hash + Eq> Expected<K> {
    fn new(corrupt: bool) -> Self {
        Expected {
            sums: HashMap::new(),
            corrupt,
        }
    }

    fn insert(&mut self, key: K, rows: &[Vec<Value>]) {
        self.sums
            .insert(key, checksum(rows) ^ u64::from(self.corrupt));
    }

    fn matches(&self, key: &K, rows: &[Vec<Value>]) -> bool {
        self.sums.get(key) == Some(&checksum(rows))
    }
}

/// SplitMix64: the benchmark's own input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// A walk over `0..n` that visits every value once, from a start the seed
/// picks. The stride is the golden section of `n` (nudged to be coprime
/// with it), so any run of consecutive steps spreads evenly over the
/// range: two seeds give different values with the same coverage.
#[derive(Debug, Clone)]
struct Walk {
    n: u64,
    start: u64,
    stride: u64,
}

impl Walk {
    fn new(n: u64, rng: &mut Rng) -> Walk {
        let n = n.max(1);
        let mut stride = ((n as f64 * 0.618_033_988_75).round() as u64).max(1);
        while gcd(stride, n) != 1 {
            stride += 1;
        }
        Walk {
            n,
            start: rng.below(n),
            stride,
        }
    }

    fn at(&self, k: u64) -> u64 {
        ((self.start as u128 + k as u128 * self.stride as u128) % self.n as u128) as u64
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn tpch_ops(plans: &[(&'static str, LogicalPlan)], sweeps: usize) -> Vec<Vec<TracedOp>> {
    (0..sweeps)
        .flat_map(|_| plans.iter())
        .map(|(name, plan)| {
            vec![TracedOp::Query {
                key: name.to_string(),
                sql: None,
                plan: plan.clone(),
            }]
        })
        .collect()
}

fn tpch_reference(
    db: &HostDb,
    plans: &[(&'static str, LogicalPlan)],
    expected: &mut Expected<usize>,
) {
    for (i, (name, plan)) in plans.iter().enumerate() {
        let r = db
            .execute_on_host(plan)
            .unwrap_or_else(|e| panic!("oracle failed on {name}: {e}"));
        expected.insert(i, &r.rows);
    }
}

// ------------------------------------------------------------ tpch_serial --

/// In-process, one thread: the eleven TPC-H plans, each compiled and
/// executed on the simulated DPU.
struct TpchSerial {
    db: Arc<HostDb>,
    engine: Engine,
    plans: Vec<(&'static str, LogicalPlan)>,
    expected: Expected<usize>,
    sweeps: usize,
}

impl TpchSerial {
    fn attach(db: Arc<HostDb>, cfg: &Config) -> Self {
        let engine = db.rapid().read().fork(ExecContext::dpu());
        TpchSerial {
            db,
            engine,
            plans: tpch::queries::all(),
            expected: Expected::new(cfg.corrupt_reference),
            sweeps: cfg.count(FULL_TPCH_SWEEPS),
        }
    }

    /// The operation: compile, then execute.
    fn run(&self, plan: &LogicalPlan) -> Result<(u64, QueryOutput), String> {
        let t0 = Instant::now();
        let compiled = rapid_qcomp::compile(plan, self.engine.catalog(), &CostParams::default())
            .map_err(|e| e.to_string())?;
        let (out, _) = self
            .engine
            .execute(&compiled.plan)
            .map_err(|e| e.to_string())?;
        Ok((ns_since(t0), out))
    }
}

impl RealPath for TpchSerial {
    fn db(&self) -> &Arc<HostDb> {
        &self.db
    }

    fn real(&mut self, op: &TracedOp) -> Result<u64, String> {
        match op {
            TracedOp::Query { plan, .. } => self.run(plan).map(|r| r.0),
            TracedOp::Commit(_) => Err("tpch_serial has no commits".into()),
        }
    }
}

impl Workload for TpchSerial {
    fn reference(&mut self) {
        tpch_reference(&self.db, &self.plans, &mut self.expected);
    }

    fn block(&mut self, _b: usize) -> Block {
        let mut block = Block {
            latencies: vec![Vec::new()],
            ..Block::default()
        };
        for _ in 0..self.sweeps {
            for (i, (_, plan)) in self.plans.iter().enumerate() {
                block.ops += 1;
                match self.run(plan) {
                    Ok((ns, out)) => {
                        block.latencies[0].push(ns);
                        // Decoded for the check only, off every clock.
                        let ok = uncounted(|| {
                            let rows = decode_batch(&out.batch, &out.meta, self.engine.catalog());
                            self.expected.matches(&i, &rows)
                        });
                        block.failed += usize::from(!ok);
                    }
                    Err(_) => block.failed += 1,
                }
            }
        }
        block
    }

    fn path(&self) -> Path {
        Path::default()
    }

    fn traced_groups(&mut self) -> Vec<Vec<TracedOp>> {
        tpch_ops(&self.plans, self.sweeps.min(TRACED_SWEEPS))
    }
}

// ------------------------------------------------------------ sched_batch --

/// In-process, one generator thread: the eleven plans as one
/// `execute_batch` through admission, the baton protocol and the shared
/// timeline. The program spawns a session thread per query.
struct SchedBatch {
    db: Arc<HostDb>,
    plans: Vec<(&'static str, LogicalPlan)>,
    queries: Vec<BatchQuery>,
    expected: Expected<usize>,
    batches: usize,
    last: Option<SchedReport>,
}

impl SchedBatch {
    fn attach(db: Arc<HostDb>, cfg: &Config) -> Self {
        let plans = tpch::queries::all();
        SchedBatch {
            db,
            queries: plans
                .iter()
                .map(|(_, p)| BatchQuery::from_plan(p.clone()))
                .collect(),
            plans,
            expected: Expected::new(cfg.corrupt_reference),
            batches: cfg.count(FULL_SCHED_BATCHES),
            last: None,
        }
    }
}

impl RealPath for SchedBatch {
    fn db(&self) -> &Arc<HostDb> {
        &self.db
    }

    /// One query as a batch of its own: same admission, session thread and
    /// router as the full batch, without its neighbours.
    fn real(&mut self, op: &TracedOp) -> Result<u64, String> {
        let TracedOp::Query { plan, .. } = op else {
            return Err("sched_batch has no commits".into());
        };
        let query = [BatchQuery::from_plan(plan.clone())];
        let t0 = Instant::now();
        let outcome = self.db.execute_batch(&query, SchedConfig::default());
        let ns = ns_since(t0);
        outcome
            .results
            .into_iter()
            .try_for_each(|r| r.map(drop).map_err(|e| e.to_string()))?;
        Ok(ns)
    }
}

impl Workload for SchedBatch {
    fn reference(&mut self) {
        tpch_reference(&self.db, &self.plans, &mut self.expected);
    }

    fn block(&mut self, _b: usize) -> Block {
        let mut block = Block {
            latencies: vec![Vec::new()],
            ..Block::default()
        };
        for _ in 0..self.batches {
            let t0 = Instant::now();
            let outcome = self.db.execute_batch(&self.queries, SchedConfig::default());
            block.latencies[0].push(ns_since(t0));
            for (i, r) in outcome.results.iter().enumerate() {
                block.ops += 1;
                let ok = uncounted(|| r.as_ref().is_ok_and(|r| self.expected.matches(&i, &r.rows)));
                block.failed += usize::from(!ok);
            }
            self.last = Some(outcome.sched);
        }
        block
    }

    fn path(&self) -> Path {
        Path {
            hostdb: true,
            admit: Some(SchedConfig::default()),
            ..Path::default()
        }
    }

    fn traced_groups(&mut self) -> Vec<Vec<TracedOp>> {
        tpch_ops(&self.plans, 1)
    }

    fn sim_cycles_per_op(&self) -> Option<f64> {
        let report = self.last.as_ref()?;
        Some(report.utilization.makespan_cycles / self.queries.len() as f64)
    }

    fn layer_extras(&mut self, out: &mut Values) {
        if let Some(report) = &self.last {
            sched_metrics(report, out);
        }
        // The same plans as one batch and one after the other, three times.
        let mut batch = Vec::new();
        let mut serial = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            self.db.execute_batch(&self.queries, SchedConfig::default());
            batch.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            for (_, plan) in &self.plans {
                self.db.execute_plan(plan).ok();
            }
            serial.push(t0.elapsed().as_secs_f64());
        }
        out.set(
            "sched.batch_over_serial_ratio",
            median(&batch) / median(&serial),
        );
    }
}

fn sched_metrics(report: &SchedReport, out: &mut Values) {
    let freq_hz = SchedConfig::default().cost_model.freq_hz;
    out.set(
        "sched.core_utilization",
        report.utilization.core_utilization,
    );
    out.set("sched.dms_utilization", report.utilization.dms_utilization);
    let queued: f64 = report
        .queries
        .iter()
        .map(|q| q.queued.as_secs() * freq_hz)
        .sum();
    out.set(
        "sched.queued_cycles_per_op",
        queued / report.queries.len().max(1) as f64,
    );
}

// ------------------------------------------------------------------- wire --

/// An in-process server on the loaded database and the client connections
/// of a wire workload.
struct Wire {
    db: Arc<HostDb>,
    server: Option<Server>,
    clients: Vec<Client>,
    connect_ms: Vec<f64>,
}

impl Wire {
    fn start(db: Arc<HostDb>) -> Wire {
        let server = Server::start(Arc::clone(&db), ServerConfig::default(), ("127.0.0.1", 0))
            .expect("bind a loopback port");
        let mut clients = Vec::new();
        let mut connect_ms = Vec::new();
        for _ in 0..CONNS {
            let t0 = Instant::now();
            clients.push(Client::connect(server.local_addr()).expect("connect"));
            connect_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        Wire {
            db,
            server: Some(server),
            clients,
            connect_ms,
        }
    }

    /// Each connection issues `n` calls in a closed loop on its own thread;
    /// `call` returns the rows or an error text, `check` judges the rows.
    fn block(
        &mut self,
        n: usize,
        call: impl Fn(&mut Client, usize, usize) -> Result<Vec<Vec<Value>>, String> + Sync,
        check: impl Fn(usize, usize, &[Vec<Value>]) -> bool + Sync,
    ) -> Block {
        let (call, check) = (&call, &check);
        let per_conn: Vec<(Vec<u64>, usize)> = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut latencies = Vec::with_capacity(n);
                        let mut failed = 0;
                        for i in 0..n {
                            let t0 = Instant::now();
                            let result = call(client, c, i);
                            let ns = ns_since(t0);
                            match result {
                                Ok(rows) => {
                                    latencies.push(ns);
                                    failed += usize::from(!uncounted(|| check(c, i, &rows)));
                                }
                                Err(_) => failed += 1,
                            }
                        }
                        (latencies, failed)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread"))
                .collect()
        });
        Block {
            ops: n * per_conn.len(),
            failed: per_conn.iter().map(|p| p.1).sum(),
            latencies: per_conn.into_iter().map(|p| p.0).collect(),
            oracle_cpu_secs: 0.0,
        }
    }

    fn layer_extras(&self, out: &mut Values) {
        out.set("server.connect_ms", median(&self.connect_ms));
        if let Some(server) = &self.server {
            sched_metrics(&server.scheduler().report(), out);
        }
    }

    /// Close the sessions, drain the server and count leaked threads.
    fn finish(&mut self) -> u64 {
        let unclean = self.clients.drain(..).filter_map(|c| c.bye().err()).count() as u64;
        let stats = self.server.take().map(Server::shutdown);
        unclean + stats.map_or(0, |s| s.threads_spawned.abs_diff(s.threads_joined))
    }

    fn path(parse: bool) -> Path {
        Path {
            parse,
            hostdb: true,
            admit: Some(ServerConfig::default().sched),
            wire: true,
        }
    }
}

const POINT_STATEMENTS: [&str; 4] = [
    "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = 7",
    "SELECT COUNT(*) AS n FROM supplier WHERE s_nationkey = 3",
    "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 1234",
    "SELECT o_orderstatus, o_totalprice FROM orders WHERE o_orderkey = 4711",
];

/// Two connections execute four prepared point statements round-robin:
/// execution is tiny, so codec, socket hop, plan-cache hit, per-execution
/// compile and verify, admission and scheduler bookkeeping dominate.
struct WirePoint {
    wire: Wire,
    /// Per connection, the prepared ids of [`POINT_STATEMENTS`].
    stmts: Vec<Vec<u64>>,
    plans: Vec<LogicalPlan>,
    expected: Expected<usize>,
    ops_per_conn: usize,
}

impl WirePoint {
    fn attach(db: Arc<HostDb>, cfg: &Config) -> Self {
        let mut wire = Wire::start(db);
        let stmts = wire
            .clients
            .iter_mut()
            .map(|c| {
                POINT_STATEMENTS
                    .iter()
                    .map(|sql| c.prepare(sql).expect("prepare"))
                    .collect()
            })
            .collect();
        let schemas = schemas(&wire.db);
        WirePoint {
            wire,
            stmts,
            plans: POINT_STATEMENTS
                .iter()
                .map(|sql| parse_sql(sql, &schemas).expect("point statement parses"))
                .collect(),
            expected: Expected::new(cfg.corrupt_reference),
            ops_per_conn: cfg.count(FULL_POINT_OPS_PER_CONN),
        }
    }
}

impl RealPath for WirePoint {
    fn db(&self) -> &Arc<HostDb> {
        &self.wire.db
    }

    fn real(&mut self, op: &TracedOp) -> Result<u64, String> {
        let TracedOp::Query { key, .. } = op else {
            return Err("wire_point_prepared has no commits".into());
        };
        let s: usize = key.parse().map_err(|_| "bad statement key")?;
        let t0 = Instant::now();
        self.wire.clients[0]
            .execute(self.stmts[0][s])
            .map_err(|e| e.to_string())?;
        Ok(ns_since(t0))
    }
}

impl Workload for WirePoint {
    fn reference(&mut self) {
        for (s, plan) in self.plans.iter().enumerate() {
            let r = self.wire.db.execute_on_host(plan).expect("oracle");
            self.expected.insert(s, &r.rows);
        }
    }

    fn block(&mut self, _b: usize) -> Block {
        let (stmts, expected) = (&self.stmts, &self.expected);
        let which = |c: usize, i: usize| (c + i) % POINT_STATEMENTS.len();
        self.wire.block(
            self.ops_per_conn,
            |client, c, i| {
                let r = client.execute(stmts[c][which(c, i)]);
                r.map(|r| r.rows).map_err(|e| e.to_string())
            },
            |c, i, rows| expected.matches(&which(c, i), rows),
        )
    }

    fn path(&self) -> Path {
        Wire::path(false)
    }

    fn traced_groups(&mut self) -> Vec<Vec<TracedOp>> {
        (0..self.ops_per_conn.min(TRACED_WIRE_OPS))
            .map(|i| {
                let s = i % POINT_STATEMENTS.len();
                vec![TracedOp::Query {
                    key: s.to_string(),
                    sql: Some(POINT_STATEMENTS[s].into()),
                    plan: self.plans[s].clone(),
                }]
            })
            .collect()
    }

    fn layer_extras(&mut self, out: &mut Values) {
        self.wire.layer_extras(out);
    }

    fn finish(mut self: Box<Self>) -> u64 {
        self.wire.finish()
    }
}

/// Order keys per ad-hoc statement: keys are dense in this generator, so
/// this is the number of rows that come back.
const WIDE_WINDOW: i64 = 1000;

const WIDE_COLUMNS: &str =
    "o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_orderpriority, o_shippriority";

/// Two connections send ad-hoc range queries whose text never repeats: few
/// large results, so result encode, decode and socket write dominate, and
/// every statement misses the plan cache.
struct WireWide {
    wire: Wire,
    lows: Walk,
    expected: Expected<i64>,
    ops_per_conn: usize,
    blocks: usize,
    schemas: crate::layers::Schemas,
}

impl WireWide {
    fn attach(db: Arc<HostDb>, cfg: &Config) -> Self {
        let orders = db
            .store()
            .table("orders")
            .expect("orders")
            .read()
            .row_count();
        let span = (orders as i64 - WIDE_WINDOW).max(1) as u64;
        let schemas = schemas(&db);
        WireWide {
            wire: Wire::start(db),
            lows: Walk::new(span, &mut Rng::new(cfg.seed)),
            expected: Expected::new(cfg.corrupt_reference),
            ops_per_conn: cfg.count(FULL_WIDE_OPS_PER_CONN),
            blocks: cfg.blocks,
            schemas,
        }
    }

    /// The lower key of call `i` of connection `c` in block `b`: every
    /// call of a run gets a range of its own.
    fn low(&self, b: usize, c: usize, i: usize) -> i64 {
        let k = (b * CONNS + c) * self.ops_per_conn + i;
        1 + self.lows.at(k as u64) as i64
    }

    fn sql(low: i64) -> String {
        format!(
            "SELECT {WIDE_COLUMNS} FROM orders WHERE o_orderkey >= {low} AND o_orderkey < {}",
            low + WIDE_WINDOW
        )
    }
}

impl RealPath for WireWide {
    fn db(&self) -> &Arc<HostDb> {
        &self.wire.db
    }

    fn real(&mut self, op: &TracedOp) -> Result<u64, String> {
        let TracedOp::Query { sql: Some(sql), .. } = op else {
            return Err("wire_adhoc_wide runs SQL text only".into());
        };
        let t0 = Instant::now();
        self.wire.clients[0].query(sql).map_err(|e| e.to_string())?;
        Ok(ns_since(t0))
    }
}

impl Workload for WireWide {
    /// One oracle run over the whole table; each statement's expected rows
    /// are its key range of that result.
    fn reference(&mut self) {
        let all = format!("SELECT {WIDE_COLUMNS} FROM orders");
        let plan = parse_sql(&all, &self.schemas).expect("reference statement parses");
        let mut rows = self.wire.db.execute_on_host(&plan).expect("oracle").rows;
        let key = |r: &Vec<Value>| match r[0] {
            Value::Int(k) => k,
            _ => panic!("o_orderkey is an integer"),
        };
        rows.sort_by_key(key);
        for b in 0..=self.blocks {
            for c in 0..CONNS {
                for i in 0..self.ops_per_conn {
                    let low = self.low(b, c, i);
                    let from = rows.partition_point(|r| key(r) < low);
                    let to = rows.partition_point(|r| key(r) < low + WIDE_WINDOW);
                    self.expected.insert(low, &rows[from..to]);
                }
            }
        }
    }

    fn block(&mut self, b: usize) -> Block {
        let this = &*self;
        let lows: Vec<Vec<i64>> = (0..CONNS)
            .map(|c| (0..this.ops_per_conn).map(|i| this.low(b, c, i)).collect())
            .collect();
        let (lows, expected) = (&lows, &self.expected);
        self.wire.block(
            self.ops_per_conn,
            |client, c, i| {
                let r = client.query(&Self::sql(lows[c][i]));
                r.map(|r| r.rows).map_err(|e| e.to_string())
            },
            |c, i, rows| expected.matches(&lows[c][i], rows),
        )
    }

    fn path(&self) -> Path {
        Wire::path(true)
    }

    fn traced_groups(&mut self) -> Vec<Vec<TracedOp>> {
        let calls = (0..self.ops_per_conn).flat_map(|i| (0..CONNS).map(move |c| (c, i)));
        calls
            .take(TRACED_WIRE_OPS)
            .map(|(c, i)| {
                let sql = Self::sql(self.low(1, c, i));
                vec![TracedOp::Query {
                    key: sql.clone(),
                    plan: parse_sql(&sql, &self.schemas).expect("ad-hoc statement parses"),
                    sql: Some(sql),
                }]
            })
            .collect()
    }

    fn layer_extras(&mut self, out: &mut Values) {
        self.wire.layer_extras(out);
    }

    fn finish(mut self: Box<Self>) -> u64 {
        self.wire.finish()
    }
}

// ------------------------------------------------------------ dml_refresh --

const DML_STATEMENTS: [&str; 4] = [
    "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders GROUP BY o_orderstatus",
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY o_orderpriority",
    "SELECT c_mktsegment, COUNT(*) AS n FROM customer JOIN orders ON c_custkey = o_custkey \
     GROUP BY c_mktsegment",
    "SELECT o_orderstatus, o_totalprice FROM orders WHERE o_orderkey = 4711",
];

/// A cycle's results are checked against the oracle every this many
/// cycles, starting with the first.
const DML_CHECK_EVERY: u64 = 10;

/// In-process, one thread: cycles of a four-row commit to `orders`
/// followed by four statements over `orders` and `customer`. The statement
/// after a commit pays SCN admission, a checkpoint and a plan-cache
/// invalidation; nothing else in the suite writes.
struct DmlRefresh {
    db: Arc<HostDb>,
    /// `orders` as loaded: row `rid` is what an update rewrites.
    orders: Vec<Vec<Value>>,
    customers: u64,
    rids: Walk,
    rng: Rng,
    /// Commits made so far; fixes the next commit's rows.
    commits: u64,
    plans: Vec<LogicalPlan>,
    cycles: usize,
    corrupt: bool,
}

impl DmlRefresh {
    fn attach(db: Arc<HostDb>, cfg: &Config) -> Self {
        let table = |t: &str| db.store().table(t).expect("TPC-H table");
        let orders: Vec<Vec<Value>> = table("orders").read().scan().cloned().collect();
        let customers = table("customer").read().row_count() as u64;
        let mut rng = Rng::new(cfg.seed ^ 0xd31);
        let schemas = schemas(&db);
        DmlRefresh {
            rids: Walk::new(orders.len() as u64, &mut rng),
            customers,
            orders,
            rng,
            commits: 0,
            plans: DML_STATEMENTS
                .iter()
                .map(|sql| parse_sql(sql, &schemas).expect("refresh statement parses"))
                .collect(),
            cycles: cfg.count(FULL_DML_CYCLES),
            corrupt: cfg.corrupt_reference,
            db,
        }
    }

    /// The next commit: one insert, two updates, one delete, each on a row
    /// no earlier commit touched.
    fn changes(&mut self) -> Vec<RowChange> {
        let k = self.commits;
        self.commits += 1;
        let price = |rng: &mut Rng| Value::Decimal {
            unscaled: 10_000 + rng.below(40_000_000) as i64,
            scale: 2,
        };
        let rid = |j: u64| self.rids.at(3 * k + j);
        let mut insert = self.orders[rid(0) as usize].clone();
        insert[0] = Value::Int(self.orders.len() as i64 + 1 + k as i64);
        insert[1] = Value::Int(1 + self.rng.below(self.customers) as i64);
        insert[3] = price(&mut self.rng);
        let mut update = |rid: u64| {
            let mut row = self.orders[rid as usize].clone();
            row[2] = Value::Str(if self.rng.below(2) == 0 { "O" } else { "F" }.into());
            row[3] = price(&mut self.rng);
            RowChange::Update { rid, row }
        };
        vec![
            RowChange::Insert(insert),
            update(rid(0)),
            update(rid(1)),
            RowChange::Delete { rid: rid(2) },
        ]
    }

    fn statement(&self, s: usize) -> Result<(u64, Vec<Vec<Value>>), String> {
        let t0 = Instant::now();
        let r = self
            .db
            .execute_sql(DML_STATEMENTS[s])
            .map_err(|e| e.to_string())?;
        Ok((ns_since(t0), r.rows))
    }
}

impl RealPath for DmlRefresh {
    fn db(&self) -> &Arc<HostDb> {
        &self.db
    }

    fn real(&mut self, op: &TracedOp) -> Result<u64, String> {
        match op {
            TracedOp::Commit(_) => {
                let changes = self.changes();
                let t0 = Instant::now();
                self.db
                    .commit("orders", changes)
                    .ok_or("orders is missing")?;
                Ok(ns_since(t0))
            }
            TracedOp::Query { key, .. } => {
                let s: usize = key.parse().map_err(|_| "bad statement key")?;
                self.statement(s).map(|r| r.0)
            }
        }
    }
}

impl Workload for DmlRefresh {
    /// The data changes under this workload, so the oracle runs inside the
    /// blocks (clock stopped), every [`DML_CHECK_EVERY`]th cycle.
    fn reference(&mut self) {}

    fn block(&mut self, _b: usize) -> Block {
        let mut block = Block {
            latencies: vec![Vec::new()],
            ..Block::default()
        };
        for _ in 0..self.cycles {
            let changes = self.changes();
            let t0 = Instant::now();
            let committed = self.db.commit("orders", changes).is_some();
            block.latencies[0].push(ns_since(t0));
            block.ops += 1;
            block.failed += usize::from(!committed);

            let check = self.commits % DML_CHECK_EVERY == 1;
            for (s, plan) in self.plans.iter().enumerate() {
                block.ops += 1;
                let Ok((ns, rows)) = self.statement(s) else {
                    block.failed += 1;
                    continue;
                };
                block.latencies[0].push(ns);
                if check {
                    let cpu0 = process_cpu_secs();
                    let ok = uncounted(|| {
                        let oracle = self.db.execute_on_host(plan).expect("oracle");
                        checksum(&oracle.rows) ^ u64::from(self.corrupt) == checksum(&rows)
                    });
                    block.failed += usize::from(!ok);
                    block.oracle_cpu_secs += process_cpu_secs() - cpu0;
                }
            }
        }
        block
    }

    fn path(&self) -> Path {
        Path {
            parse: true,
            hostdb: true,
            ..Path::default()
        }
    }

    fn traced_groups(&mut self) -> Vec<Vec<TracedOp>> {
        (0..self.cycles.min(TRACED_DML_CYCLES))
            .map(|_| {
                let mut cycle = vec![TracedOp::Commit(self.changes())];
                cycle.extend(
                    self.plans
                        .iter()
                        .enumerate()
                        .map(|(s, plan)| TracedOp::Query {
                            key: s.to_string(),
                            sql: Some(DML_STATEMENTS[s].into()),
                            plan: plan.clone(),
                        }),
                );
                cycle
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_walk_visits_every_value_once() {
        for seed in 0..20 {
            let mut rng = Rng::new(seed);
            let n = 1 + rng.below(500);
            let walk = Walk::new(n, &mut rng);
            let mut seen: Vec<u64> = (0..n).map(|k| walk.at(k)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "seed {seed}, n {n}");
        }
    }

    #[test]
    fn checksums_ignore_row_order_and_scale_but_not_values() {
        let a = vec![
            vec![
                Value::Int(1),
                Value::Decimal {
                    unscaled: 150,
                    scale: 2,
                },
            ],
            vec![Value::Int(2), Value::Null],
        ];
        let b = vec![
            vec![Value::Int(2), Value::Null],
            vec![
                Value::Int(1),
                Value::Decimal {
                    unscaled: 15,
                    scale: 1,
                },
            ],
        ];
        assert_eq!(checksum(&a), checksum(&b));
        let mut expected = Expected::new(false);
        expected.insert(0, &a);
        assert!(expected.matches(&0, &b));
        assert!(!expected.matches(&0, &a[..1]));
        assert!(!expected.matches(&1, &a));

        let mut spoiled = Expected::new(true);
        spoiled.insert(0, &a);
        assert!(!spoiled.matches(&0, &a), "a corrupted reference must fail");
    }

    #[test]
    fn block_time_is_the_busiest_connection() {
        let block = Block {
            latencies: vec![vec![1_000_000_000, 500_000_000], vec![2_000_000_000]],
            ops: 3,
            ..Block::default()
        };
        assert_eq!(block.busy_secs(), 2.0);
    }
}
