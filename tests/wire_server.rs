//! Robustness of the wire server: every abuse case must leave the server
//! serving *other* connections, and every path must account for its
//! threads (spawned == joined at shutdown — nothing leaks).

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hostdb::HostDb;
use rapid::server::protocol::{read_frame, write_frame, Request, Response};
use rapid::server::{Client, ClientError, Server, ServerConfig, MAX_FRAME_BYTES, PROTOCOL_VERSION};
use rapid::storage::schema::{Field, Schema};
use rapid::storage::types::{DataType, Value};

/// A small single-table database — robustness tests don't need TPC-H.
fn small_db(rows: i64) -> Arc<HostDb> {
    let db = HostDb::new(rapid::qef::exec::ExecContext::dpu().with_cores(8));
    db.create_table(
        "t",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    );
    db.bulk_insert(
        "t",
        (0..rows).map(|i| vec![Value::Int(i), Value::Int(i % 101)]),
    );
    db.load_into_rapid("t").expect("load");
    Arc::new(db)
}

const COUNT: &str = "SELECT COUNT(*) AS n FROM t";

fn start(cfg: ServerConfig) -> Server {
    Server::start(small_db(10_000), cfg, ("127.0.0.1", 0)).expect("bind")
}

/// Manual handshake on a raw socket, for tests that then misbehave.
fn raw_hello(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).ok();
    s.set_read_timeout(Some(Duration::from_secs(30))).ok();
    write_frame(
        &mut s,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            client: "raw-test".into(),
        },
    )
    .expect("hello");
    match read_frame::<Response>(&mut s, MAX_FRAME_BYTES).expect("hello reply") {
        Response::HelloOk { .. } => s,
        other => panic!("expected HelloOk, got {other:?}"),
    }
}

fn assert_serving(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).expect("server must keep serving");
    let r = client.query(COUNT).expect("query must succeed");
    assert_eq!(r.rows, vec![vec![Value::Int(10_000)]]);
    client.bye().expect("bye");
}

/// A connection beyond the cap receives an explicit busy frame instead of
/// hanging, and a slot freed by a departing client is reusable.
#[test]
fn surplus_connection_gets_busy_frame_then_slot_frees_up() {
    let server = start(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let a = Client::connect(addr).expect("conn 1");
    let b = Client::connect(addr).expect("conn 2");
    match Client::connect(addr) {
        Err(ClientError::Busy { capacity, message }) => {
            assert_eq!(capacity, 2);
            assert!(message.contains("busy"), "message: {message}");
        }
        other => panic!("expected Busy, got {other:?}"),
    }

    // Existing sessions were not disturbed by the shed connection.
    drop(a);
    b.bye().expect("bye");
    // Slots free once the server reaps the departed sessions.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr) {
            Ok(c) => {
                c.bye().expect("bye");
                break;
            }
            Err(ClientError::Busy { .. }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.threads_spawned, stats.threads_joined);
}

/// An oversized frame header is refused before any allocation, the abuser
/// is disconnected, and everyone else keeps working.
#[test]
fn oversized_frame_is_refused_and_server_keeps_serving() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    let mut s = raw_hello(addr);
    let huge = (MAX_FRAME_BYTES + 1).to_be_bytes();
    std::io::Write::write_all(&mut s, &huge).expect("header");
    match read_frame::<Response>(&mut s, MAX_FRAME_BYTES).expect("reply") {
        Response::Error { kind, .. } => assert_eq!(kind, "FrameTooLarge"),
        other => panic!("expected FrameTooLarge error, got {other:?}"),
    }
    // The abusive connection is closed...
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).unwrap_or(0), 0, "must be closed");
    // ...and the server still serves.
    assert_serving(addr);
    let stats = server.shutdown();
    assert_eq!(stats.threads_spawned, stats.threads_joined);
}

/// A well-framed garbage body is a protocol error, not a crash.
#[test]
fn garbage_frame_is_rejected_and_server_keeps_serving() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    let mut s = raw_hello(addr);
    let junk = b"\x00\xffnot json at all\x01";
    let mut msg = (junk.len() as u32).to_be_bytes().to_vec();
    msg.extend_from_slice(junk);
    std::io::Write::write_all(&mut s, &msg).expect("junk frame");
    match read_frame::<Response>(&mut s, MAX_FRAME_BYTES).expect("reply") {
        Response::Error { kind, .. } => assert_eq!(kind, "Protocol"),
        other => panic!("expected Protocol error, got {other:?}"),
    }
    assert_serving(addr);
    let stats = server.shutdown();
    assert_eq!(stats.threads_spawned, stats.threads_joined);
}

/// A frame nested a million levels deep under a key the decoder skips is
/// malformed: the decoder stops at its nesting bound instead of recursing
/// off the end of the session thread's stack and aborting the process.
#[test]
fn deeply_nested_frame_is_malformed_and_server_keeps_serving() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let mut bystander = Client::connect(addr).expect("bystander");

    let mut s = raw_hello(addr);
    let body = format!("{{\"Query\":{{\"x\":{}", "[".repeat(1_000_000));
    let mut msg = (body.len() as u32).to_be_bytes().to_vec();
    msg.extend_from_slice(body.as_bytes());
    std::io::Write::write_all(&mut s, &msg).expect("nested frame");
    match read_frame::<Response>(&mut s, MAX_FRAME_BYTES).expect("reply") {
        Response::Error { kind, message } => {
            assert_eq!(kind, "Protocol");
            assert!(message.contains("nested too deeply"), "{message}");
        }
        other => panic!("expected Protocol error, got {other:?}"),
    }
    let r = bystander
        .query(COUNT)
        .expect("the open session still serves");
    assert_eq!(r.rows, vec![vec![Value::Int(10_000)]]);
    bystander.bye().expect("bye");
    assert_serving(addr);
    let stats = server.shutdown();
    assert_eq!(stats.threads_spawned, stats.threads_joined);
}

/// A session that goes quiet past the idle timeout is told why and
/// disconnected; active sessions are unaffected.
#[test]
fn idle_timeout_expires_quiet_sessions_only() {
    let server = start(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut idle = raw_hello(addr);
    std::thread::sleep(Duration::from_millis(700));
    match read_frame::<Response>(&mut idle, MAX_FRAME_BYTES).expect("reply") {
        Response::Error { kind, .. } => assert_eq!(kind, "IdleTimeout"),
        other => panic!("expected IdleTimeout error, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(
        idle.read_to_end(&mut rest).unwrap_or(0),
        0,
        "idle session must be closed"
    );
    // A fresh session still gets served (it stays under the timeout by
    // issuing its query immediately).
    assert_serving(addr);
    let stats = server.shutdown();
    assert_eq!(stats.threads_spawned, stats.threads_joined);
}

/// A client that vanishes mid-query (request sent, socket dropped) costs
/// the server nothing: the session cleans up and others keep working.
#[test]
fn mid_query_disconnect_leaves_server_healthy() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    for _ in 0..3 {
        let mut s = raw_hello(addr);
        write_frame(&mut s, &Request::Query { sql: COUNT.into() }).expect("query");
        drop(s); // vanish before reading any result frame
    }
    // Give the sessions a moment to hit the broken pipe and clean up,
    // then verify the server still serves and nothing leaked.
    std::thread::sleep(Duration::from_millis(200));
    assert_serving(addr);
    let stats = server.shutdown();
    assert_eq!(
        stats.threads_spawned, stats.threads_joined,
        "leaked session threads"
    );
}

/// Out-of-band cancel: the token reaches the server on a fresh
/// connection; whether it lands before the (fast) query finishes is
/// timing-dependent, but the session must stay usable either way.
#[test]
fn cancel_token_is_delivered_and_session_survives() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let token = client.cancel_token();

    let canceller = std::thread::spawn(move || token.cancel().expect("cancel delivery"));
    match client.query(COUNT) {
        Ok(r) => assert_eq!(r.rows, vec![vec![Value::Int(10_000)]]),
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "Cancelled"),
        Err(other) => panic!("unexpected failure: {other}"),
    }
    canceller.join().expect("canceller thread");

    // The session keeps working after a cancel (delivered or not).
    let r = client.query(COUNT).expect("follow-up query");
    assert_eq!(r.rows, vec![vec![Value::Int(10_000)]]);
    client.bye().expect("bye");

    // A bogus secret must not cancel anyone.
    let mut other = Client::connect(addr).expect("connect 2");
    let mut s = TcpStream::connect(addr).expect("raw connect");
    write_frame(
        &mut s,
        &Request::Cancel {
            conn: other.conn_id(),
            secret: 0xdead_beef,
        },
    )
    .expect("bogus cancel");
    match read_frame::<Response>(&mut s, MAX_FRAME_BYTES).expect("reply") {
        Response::CancelOk { delivered } => assert!(!delivered, "bogus secret must not cancel"),
        other => panic!("expected CancelOk, got {other:?}"),
    }
    let r = other.query(COUNT).expect("unaffected session");
    assert_eq!(r.rows.len(), 1);
    other.bye().expect("bye");

    let stats = server.shutdown();
    assert_eq!(stats.threads_spawned, stats.threads_joined);
}

/// Graceful shutdown: in-flight work drains, every thread joins, and the
/// listener stops accepting.
#[test]
fn graceful_shutdown_drains_and_joins_everything() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let worker = std::thread::spawn(move || {
        // Racing the shutdown request: the query either completes (it was
        // in flight and drained) or the session reports the shutdown.
        match client.query(COUNT) {
            Ok(r) => assert_eq!(r.rows, vec![vec![Value::Int(10_000)]]),
            Err(ClientError::Protocol(m)) => {
                assert!(m.contains("ShuttingDown"), "unexpected: {m}")
            }
            Err(ClientError::Io(_)) => {} // closed at the frame boundary
            Err(other) => panic!("unexpected failure: {other}"),
        }
    });

    let mut controller = Client::connect(addr).expect("controller");
    controller.request_shutdown().expect("shutdown ack");
    worker.join().expect("worker");

    assert!(server.shutdown_requested());
    let stats = server.shutdown();
    assert_eq!(
        stats.threads_spawned, stats.threads_joined,
        "leaked threads"
    );

    // The listener is gone: new connections fail outright.
    assert!(
        Client::connect(addr).is_err(),
        "listener must stop accepting after shutdown"
    );
}

/// Prepared statements round-trip over the wire and survive heavy reuse.
#[test]
fn prepared_statements_over_the_wire() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let stmt = client
        .prepare("SELECT v, COUNT(*) AS n FROM t WHERE v < 3 GROUP BY v ORDER BY v")
        .expect("prepare");
    let first = client.execute(stmt).expect("execute");
    for _ in 0..4 {
        let again = client.execute(stmt).expect("re-execute");
        // Timings are wall-clock and jitter; the data must not.
        assert_eq!(again.columns, first.columns);
        assert_eq!(again.rows, first.rows);
    }
    client.close_stmt(stmt).expect("close");
    match client.execute(stmt) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "Protocol"),
        other => panic!("closed statement must be gone, got {other:?}"),
    }
    // Preparing unparsable SQL fails with the engine's SQL error (column
    // resolution is execution-time in this engine, so the probe here is a
    // syntax error), session intact.
    match client.prepare("SELECT v FROM t WHERE") {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "Sql"),
        other => panic!("expected Sql error, got {other:?}"),
    }
    let r = client.query(COUNT).expect("session survives");
    assert_eq!(r.rows.len(), 1);
    client.bye().expect("bye");
    let stats = server.shutdown();
    assert_eq!(stats.threads_spawned, stats.threads_joined);
}

/// The drain replays the server's schedule through the interference
/// analyzer in a debug build, and that replay can fail: a scheduler told its
/// DPU has 64-byte scratchpads placed every stage over budget. (Every other
/// test's `shutdown` is the clean replay.)
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "C-QUERY-BUDGET")]
fn drain_panics_on_an_interfering_schedule() {
    let mut cfg = ServerConfig::default();
    cfg.sched.dmem_bytes = 64;
    let server = start(cfg);
    assert_serving(server.local_addr());
    assert!(
        !server.scheduler().schedule_trace().placements.is_empty(),
        "the query placed no stage: nothing to replay"
    );
    server.shutdown();
}
