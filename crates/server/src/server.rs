//! The TCP service: thread-per-connection over `std::net`.
//!
//! One long-lived [`rapid_sched::Scheduler`] arbitrates the simulated DPU
//! across every connection, exactly as PR 1's batch path does for a single
//! `execute_batch` call — the server is that machinery kept running. Load
//! shedding is explicit at both layers:
//!
//! * the **connection cap** answers surplus `connect()`s with a `Busy`
//!   frame and closes, instead of letting them hang in the accept queue;
//! * the **admission queue** bound surfaces as a per-query `Busy` frame
//!   (the session stays open and may retry), via [`hostdb::DbError::Busy`].
//!
//! Graceful shutdown sets one flag: the acceptor stops accepting, every
//! connection thread finishes the query it is executing (drain), streams
//! its result, and exits at the next frame boundary; [`Server::shutdown`]
//! then joins the acceptor and every connection thread and reports
//! spawned-vs-joined counts so callers can assert nothing leaked.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hostdb::{BatchQuery, DbError, HostDb};
use parking_lot::Mutex;
use rapid_sched::{SchedConfig, Scheduler};

use crate::protocol::{
    decode, write_frame, FrameError, Request, Response, ServerStats, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};

/// Server identification sent in `HelloOk`.
const SERVER_NAME: &str = "rapid-server";

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Open-connection cap; surplus connects get a `Busy` frame and close.
    pub max_connections: usize,
    /// A session idle (no frame) this long is closed with an
    /// `Error { kind: "IdleTimeout" }` frame.
    pub idle_timeout: Duration,
    /// Wall-clock bound applied to every query (queueing included);
    /// `None` = unbounded.
    pub query_timeout: Option<Duration>,
    /// Scheduler configuration for the shared DPU (admission slots, queue
    /// bound).
    pub sched: SchedConfig,
    /// Rows per `RowBatch` frame.
    pub row_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            query_timeout: None,
            // The placement history is capped because this scheduler
            // lives as long as the process: an always-on server would
            // otherwise grow one record per stage forever. Evictions are
            // counted, and the interference analyzer tolerates a
            // truncated prefix (aggregate utilization is unaffected).
            sched: SchedConfig {
                history_cap: 65_536,
                ..SchedConfig::default()
            },
            row_batch: 512,
        }
    }
}

/// Thread accounting returned by [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownStats {
    /// Connections accepted over the server's lifetime (shed ones included).
    pub connections_served: u64,
    /// Connection threads spawned.
    pub threads_spawned: u64,
    /// Connection threads joined (must equal `threads_spawned` after a
    /// clean shutdown — the "no leaked threads" check).
    pub threads_joined: u64,
}

/// Per-connection registry entry (cancel bookkeeping).
struct ConnState {
    secret: u64,
    /// Scheduler id of the query this session is executing right now.
    active_query: Option<u64>,
}

struct Shared {
    db: Arc<HostDb>,
    sched: Arc<Scheduler>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    conns: Mutex<HashMap<u64, ConnState>>,
    next_conn: AtomicU64,
    live: AtomicU64,
    served: AtomicU64,
    spawned: AtomicU64,
    joined: AtomicU64,
    nonce: u64,
}

/// A running wire service; dropping it shuts it down (prefer calling
/// [`shutdown`](Server::shutdown) to get the thread accounting).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

/// Cheap deterministic bit mixer for cancel secrets (SplitMix64 finalizer;
/// this guards against accidental cross-session cancels, not adversaries —
/// the service binds to loopback in every shipped configuration).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Server {
    /// Bind `addr` (port 0 = ephemeral) and start serving `db`.
    pub fn start(
        db: Arc<HostDb>,
        cfg: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let sched = Arc::new(Scheduler::new(cfg.sched.clone()));
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed);
        let shared = Arc::new(Shared {
            db,
            sched,
            cfg,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            live: AtomicU64::new(0),
            served: AtomicU64::new(0),
            spawned: AtomicU64::new(0),
            joined: AtomicU64::new(0),
            nonce,
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(Server {
            shared,
            addr: local,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared scheduler (DPU utilization reporting lives here).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.shared.sched
    }

    /// The served database.
    pub fn db(&self) -> &Arc<HostDb> {
        &self.shared.db
    }

    /// Whether a client's `Shutdown` frame (or [`shutdown`](Server::shutdown))
    /// has been observed.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Block until someone requests shutdown over the wire (binaries park
    /// their main thread here).
    pub fn wait_shutdown_requested(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Graceful shutdown: stop accepting, drain in-flight queries, join
    /// every thread, and report the accounting. A debug build then replays
    /// the retained schedule (the last `history_cap` records) through the
    /// interference analyzer and panics on a finding, as
    /// `HostDb::execute_batch` does for its batch.
    pub fn shutdown(mut self) -> ShutdownStats {
        let stats = self.shutdown_inner();
        if cfg!(debug_assertions) {
            let trace = self.shared.sched.schedule_trace();
            if let Err(e) = rapid_verify::schedcheck::check_trace(&trace) {
                panic!("schedule interference detected: {e}");
            }
        }
        stats
    }

    fn shutdown_inner(&mut self) -> ShutdownStats {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let threads = acceptor.join().unwrap_or_default();
            for t in threads {
                if t.join().is_ok() {
                    self.shared.joined.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        ShutdownStats {
            connections_served: self.shared.served.load(Ordering::Relaxed),
            threads_spawned: self.shared.spawned.load(Ordering::Relaxed),
            threads_joined: self.shared.joined.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown_inner();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) -> Vec<std::thread::JoinHandle<()>> {
    let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.served.fetch_add(1, Ordering::Relaxed);
                if shared.live.load(Ordering::Relaxed) >= shared.cfg.max_connections as u64 {
                    // Shed: an explicit busy frame instead of a hang.
                    let mut s = stream;
                    let _ = write_frame(
                        &mut s,
                        &Response::Busy {
                            capacity: shared.cfg.max_connections,
                            message: format!(
                                "server busy: connection cap {} reached",
                                shared.cfg.max_connections
                            ),
                        },
                    );
                    continue;
                }
                shared.live.fetch_add(1, Ordering::Relaxed);
                shared.spawned.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                threads.push(std::thread::spawn(move || serve_conn(conn_shared, stream)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Opportunistically reap finished sessions so a long-lived
                // server does not accumulate join handles.
                let mut i = 0;
                while i < threads.len() {
                    if threads[i].is_finished() {
                        let t = threads.swap_remove(i);
                        if t.join().is_ok() {
                            shared.joined.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        i += 1;
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    threads
}

/// Why the per-connection read loop stopped.
enum ReadEnd {
    /// Client closed cleanly at a frame boundary.
    Eof,
    /// No frame within the idle timeout.
    Idle,
    /// The server is shutting down.
    Shutdown,
    /// Oversized frame announced.
    TooLarge(u32),
    /// Undecodable frame body.
    Malformed(String),
    /// Transport error (payload dropped: the session just closes).
    Io,
}

struct Session {
    shared: Arc<Shared>,
    stream: TcpStream,
    conn_id: u64,
    secret: u64,
    hello_done: bool,
    stmts: HashMap<u64, hostdb::PreparedStatement>,
    next_stmt: u64,
    /// Simulated completion of this session's previous query: the next
    /// query's arrival on the shared timeline. Closed-loop chaining makes
    /// N sessions overlap in simulated time instead of serializing behind
    /// the global makespan (a fresh session starts at the sim epoch).
    last_completion: rapid_sched::Cycles,
}

fn serve_conn(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // Short read timeout so the loop can observe shutdown and idleness
    // without losing partial frames (reads accumulate into a buffer).
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
    let secret = mix(shared.nonce ^ conn_id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut session = Session {
        shared: Arc::clone(&shared),
        stream,
        conn_id,
        secret,
        hello_done: false,
        stmts: HashMap::new(),
        next_stmt: 0,
        last_completion: rapid_sched::Cycles::ZERO,
    };
    session.run();
    shared.conns.lock().remove(&conn_id);
    shared.live.fetch_sub(1, Ordering::Relaxed);
}

impl Session {
    fn run(&mut self) {
        loop {
            match self.read_request() {
                Ok(req) => match self.handle(req) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => break,
                },
                Err(ReadEnd::Idle) => {
                    let _ = self.send(&Response::Error {
                        kind: "IdleTimeout".into(),
                        message: format!(
                            "idle for more than {:?}, closing",
                            self.shared.cfg.idle_timeout
                        ),
                    });
                    break;
                }
                Err(ReadEnd::Shutdown) => {
                    let _ = self.send(&Response::ShuttingDown);
                    break;
                }
                Err(ReadEnd::TooLarge(len)) => {
                    let _ = self.send(&Response::Error {
                        kind: "FrameTooLarge".into(),
                        message: format!(
                            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
                        ),
                    });
                    break;
                }
                Err(ReadEnd::Malformed(m)) => {
                    let _ = self.send(&Response::Error {
                        kind: "Protocol".into(),
                        message: format!("malformed frame: {m}"),
                    });
                    break;
                }
                Err(ReadEnd::Eof) | Err(ReadEnd::Io) => break,
            }
        }
    }

    fn send(&mut self, resp: &Response) -> io::Result<()> {
        write_frame(&mut self.stream, resp)
    }

    /// Read one request, polling in short slices so idleness and shutdown
    /// are observed without dropping partially-read bytes.
    fn read_request(&mut self) -> Result<Request, ReadEnd> {
        let deadline = Instant::now() + self.shared.cfg.idle_timeout;
        let mut hdr = [0u8; 4];
        self.read_buf(&mut hdr, deadline, true)?;
        let len = u32::from_be_bytes(hdr);
        if len > MAX_FRAME_BYTES {
            return Err(ReadEnd::TooLarge(len));
        }
        let mut body = vec![0u8; len as usize];
        self.read_buf(&mut body, deadline, false)?;
        decode(&body).map_err(|e| match e {
            FrameError::Malformed(m) => ReadEnd::Malformed(m),
            other => ReadEnd::Malformed(other.to_string()),
        })
    }

    fn read_buf(
        &mut self,
        buf: &mut [u8],
        deadline: Instant,
        at_boundary: bool,
    ) -> Result<(), ReadEnd> {
        let mut filled = 0usize;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) if filled == 0 && at_boundary => return Err(ReadEnd::Eof),
                Ok(0) => return Err(ReadEnd::Io),
                Ok(n) => filled += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Only interrupt at a frame boundary: a half-read frame
                    // is finished even during shutdown, so the request is
                    // either fully served or never parsed.
                    if filled == 0 && at_boundary {
                        if self.shared.shutdown.load(Ordering::Acquire) {
                            return Err(ReadEnd::Shutdown);
                        }
                        if Instant::now() >= deadline {
                            return Err(ReadEnd::Idle);
                        }
                    } else if Instant::now() >= deadline {
                        return Err(ReadEnd::Io); // frame stalled mid-transfer
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(ReadEnd::Io),
            }
        }
        Ok(())
    }

    /// Handle one request; `Ok(false)` ends the session.
    fn handle(&mut self, req: Request) -> io::Result<bool> {
        match req {
            Request::Hello { version, client: _ } => {
                if version != PROTOCOL_VERSION {
                    self.send(&Response::Error {
                        kind: "Protocol".into(),
                        message: format!(
                            "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                        ),
                    })?;
                    return Ok(false);
                }
                self.shared.conns.lock().insert(
                    self.conn_id,
                    ConnState {
                        secret: self.secret,
                        active_query: None,
                    },
                );
                self.hello_done = true;
                self.send(&Response::HelloOk {
                    version: PROTOCOL_VERSION,
                    conn: self.conn_id,
                    secret: self.secret,
                    server: SERVER_NAME.into(),
                })?;
                Ok(true)
            }
            Request::Cancel { conn, secret } => {
                // Allowed pre-Hello: cancel connections are fresh sockets.
                let target = {
                    let conns = self.shared.conns.lock();
                    conns.get(&conn).and_then(|c| {
                        if c.secret == secret {
                            c.active_query
                        } else {
                            None
                        }
                    })
                };
                let delivered = match target {
                    Some(qid) => self.shared.sched.cancel(qid),
                    None => false,
                };
                self.send(&Response::CancelOk { delivered })?;
                Ok(true)
            }
            Request::Bye => {
                self.send(&Response::Bye)?;
                Ok(false)
            }
            Request::Shutdown => {
                self.shared.shutdown.store(true, Ordering::Release);
                self.send(&Response::ShuttingDown)?;
                Ok(false)
            }
            req if !self.hello_done => {
                self.send(&Response::Error {
                    kind: "Protocol".into(),
                    message: format!("handshake required before {req:?}"),
                })?;
                Ok(true)
            }
            Request::Query { sql } => {
                self.run_query(&sql)?;
                Ok(true)
            }
            Request::Prepare { sql } => {
                match self.shared.db.prepare(&sql) {
                    Ok(ps) => {
                        self.next_stmt += 1;
                        let id = self.next_stmt;
                        self.stmts.insert(id, ps);
                        self.send(&Response::Prepared { stmt: id })?;
                    }
                    Err(e) => self.send_db_error(&e)?,
                }
                Ok(true)
            }
            Request::ExecutePrepared { stmt } => {
                match self.stmts.get(&stmt).map(|ps| ps.sql().to_string()) {
                    Some(sql) => self.run_query(&sql)?,
                    None => self.send(&Response::Error {
                        kind: "Protocol".into(),
                        message: format!("unknown prepared statement {stmt}"),
                    })?,
                }
                Ok(true)
            }
            Request::ClosePrepared { stmt } => {
                self.stmts.remove(&stmt);
                self.send(&Response::Closed { stmt })?;
                Ok(true)
            }
            Request::Stats => {
                let stats = self.gather_stats();
                self.send(&Response::Stats { stats })?;
                Ok(true)
            }
        }
    }

    fn gather_stats(&self) -> ServerStats {
        let (queries_finished, utilization) = self.shared.sched.totals();
        let cache = self.shared.db.plan_cache_stats();
        ServerStats {
            queries_finished,
            makespan_secs: utilization.makespan.as_secs(),
            core_utilization: utilization.core_utilization,
            dms_utilization: utilization.dms_utilization,
            energy_joules: utilization.energy_joules,
            plan_cache_hits: cache.hits,
            plan_cache_misses: cache.misses,
            plan_cache_invalidations: cache.invalidations,
            connections: self.shared.live.load(Ordering::Relaxed),
        }
    }

    fn send_db_error(&mut self, e: &DbError) -> io::Result<()> {
        match e {
            DbError::Busy { capacity } => self.send(&Response::Busy {
                capacity: *capacity,
                message: e.to_string(),
            }),
            other => self.send(&Response::Error {
                kind: other.kind().into(),
                message: other.to_string(),
            }),
        }
    }

    /// Execute `sql` through the shared scheduler and stream the result.
    fn run_query(&mut self, sql: &str) -> io::Result<()> {
        let mut q = BatchQuery::new(sql);
        if let Some(t) = self.shared.cfg.query_timeout {
            q = q.with_timeout(t);
        }
        let handle =
            match self
                .shared
                .db
                .submit_query_at(&q, &self.shared.sched, Some(self.last_completion))
            {
                Ok(h) => h,
                Err(e) => return self.send_db_error(&e),
            };
        // Expose the live query id so out-of-band Cancel can reach it.
        let qid = handle.id();
        if let Some(c) = self.shared.conns.lock().get_mut(&self.conn_id) {
            c.active_query = Some(qid);
        }
        let result = self
            .shared
            .db
            .execute_scheduled(&q, handle, &self.shared.sched);
        if let Some(c) = self.shared.conns.lock().get_mut(&self.conn_id) {
            c.active_query = None;
        }
        if let Some(done) = self.shared.sched.completion_cycles(qid) {
            self.last_completion = self.last_completion.max(done);
        }
        match result {
            Ok(r) => {
                let row_count = r.rows.len() as u64;
                self.send(&Response::RowHeader { columns: r.columns })?;
                // The rows are ours: each batch moves its share out, no
                // value is copied.
                let batch = self.shared.cfg.row_batch.max(1);
                let mut rows = r.rows.into_iter();
                while rows.len() > 0 {
                    self.send(&Response::RowBatch {
                        rows: rows.by_ref().take(batch).collect(),
                    })?;
                }
                self.send(&Response::QueryDone {
                    row_count,
                    site: format!("{:?}", r.site),
                    rapid_secs: r.rapid_secs,
                    host_secs: r.host_secs,
                })
            }
            Err(e) => self.send_db_error(&e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The server's scheduler is the long-lived one: its placement
    /// history must be bounded or an always-on process grows without
    /// limit. (The ring's eviction behavior itself is pinned in
    /// `rapid-sched`; this pins that the server actually opts in.)
    #[test]
    fn default_config_bounds_scheduler_history() {
        let cfg = ServerConfig::default();
        assert!(
            cfg.sched.history_cap > 0,
            "server scheduler must cap placement history"
        );
    }
}
