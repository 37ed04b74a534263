//! A small blocking client for the wire protocol.
//!
//! Used by the integration tests, the `sql` binary, and the repository
//! benchmark's wire workloads. One [`Client`] is one session; result sets
//! are collected into a [`WireResult`]. Server-side failures surface as
//! [`ClientError::Server`] carrying the same kind/message pair the
//! in-process [`hostdb::DbError`] would produce — the error-parity tests
//! pin this. Out-of-band cancellation goes through a [`CancelToken`]
//! (clonable, sendable to another thread), which opens a fresh connection
//! exactly like a Postgres cancel request.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use rapid_storage::types::Value;

use crate::protocol::{
    read_frame, write_frame, FrameError, Request, Response, ServerStats, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes the server closing mid-stream).
    Io(io::Error),
    /// The server shed this connection or query with a busy frame.
    Busy {
        /// The bound that was hit.
        capacity: usize,
        /// Server's description.
        message: String,
    },
    /// A typed server error: `kind` matches [`hostdb::DbError::kind`] for
    /// engine errors (`"IdleTimeout"` / `"Protocol"` / `"FrameTooLarge"`
    /// for connection-level ones), `message` the in-process display text.
    Server {
        /// Stable machine-readable kind.
        kind: String,
        /// Display message.
        message: String,
    },
    /// The server spoke out of turn (unexpected frame for this request).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Busy { message, .. } => write!(f, "{message}"),
            ClientError::Server { kind, message } => write!(f, "[{kind}] {message}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Eof => ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// A collected result set.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// All rows, in result order.
    pub rows: Vec<Vec<Value>>,
    /// Execution site as reported by the server (`"Rapid"` etc.).
    pub site: String,
    /// Seconds attributed to RAPID.
    pub rapid_secs: f64,
    /// Wall seconds attributed to the host engine.
    pub host_secs: f64,
}

/// Authorization to cancel one session's in-flight query from anywhere.
#[derive(Debug, Clone)]
pub struct CancelToken {
    addr: SocketAddr,
    conn: u64,
    secret: u64,
}

impl CancelToken {
    /// Open a fresh connection and deliver the cancel. Returns whether a
    /// live query was found and flagged.
    pub fn cancel(&self) -> Result<bool, ClientError> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        write_frame(
            &mut stream,
            &Request::Cancel {
                conn: self.conn,
                secret: self.secret,
            },
        )?;
        match read_frame::<Response>(&mut stream, MAX_FRAME_BYTES)? {
            Response::CancelOk { delivered } => Ok(delivered),
            Response::Busy { capacity, message } => Err(ClientError::Busy { capacity, message }),
            other => Err(ClientError::Protocol(format!(
                "expected CancelOk, got {other:?}"
            ))),
        }
    }
}

/// One blocking wire session.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    conn: u64,
    secret: u64,
    server: String,
}

impl Client {
    /// Connect and complete the handshake. A server at its connection cap
    /// answers with a busy frame, surfaced as [`ClientError::Busy`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        // Generous guard so a wedged server cannot hang tests forever.
        stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
        let addr = stream.peer_addr()?;
        let mut client = Client {
            stream,
            addr,
            conn: 0,
            secret: 0,
            server: String::new(),
        };
        client.request(&Request::Hello {
            version: PROTOCOL_VERSION,
            client: "rapid-client".into(),
        })?;
        match client.read()? {
            Response::HelloOk {
                conn,
                secret,
                server,
                ..
            } => {
                client.conn = conn;
                client.secret = secret;
                client.server = server;
                Ok(client)
            }
            Response::Busy { capacity, message } => Err(ClientError::Busy { capacity, message }),
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            other => Err(ClientError::Protocol(format!(
                "expected HelloOk, got {other:?}"
            ))),
        }
    }

    /// This session's connection id.
    pub fn conn_id(&self) -> u64 {
        self.conn
    }

    /// The server identification from the handshake.
    pub fn server_name(&self) -> &str {
        &self.server
    }

    /// A token that can cancel this session's in-flight query from another
    /// thread.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            addr: self.addr,
            conn: self.conn,
            secret: self.secret,
        }
    }

    fn request(&mut self, req: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.stream, req).map_err(ClientError::from)
    }

    fn read(&mut self) -> Result<Response, ClientError> {
        read_frame(&mut self.stream, MAX_FRAME_BYTES).map_err(ClientError::from)
    }

    /// Execute one SQL statement and collect the streamed result.
    pub fn query(&mut self, sql: &str) -> Result<WireResult, ClientError> {
        self.request(&Request::Query { sql: sql.into() })?;
        self.collect_result()
    }

    /// Validate and cache a statement server-side; returns its id.
    pub fn prepare(&mut self, sql: &str) -> Result<u64, ClientError> {
        self.request(&Request::Prepare { sql: sql.into() })?;
        match self.read()? {
            Response::Prepared { stmt } => Ok(stmt),
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            Response::Busy { capacity, message } => Err(ClientError::Busy { capacity, message }),
            other => Err(ClientError::Protocol(format!(
                "expected Prepared, got {other:?}"
            ))),
        }
    }

    /// Execute a prepared statement.
    pub fn execute(&mut self, stmt: u64) -> Result<WireResult, ClientError> {
        self.request(&Request::ExecutePrepared { stmt })?;
        self.collect_result()
    }

    /// Release a prepared statement.
    pub fn close_stmt(&mut self, stmt: u64) -> Result<(), ClientError> {
        self.request(&Request::ClosePrepared { stmt })?;
        match self.read()? {
            Response::Closed { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected Closed, got {other:?}"
            ))),
        }
    }

    /// Fetch scheduler / plan-cache counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.request(&Request::Stats)?;
        match self.read()? {
            Response::Stats { stats } => Ok(stats),
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            other => Err(ClientError::Protocol(format!(
                "expected Stats, got {other:?}"
            ))),
        }
    }

    /// Ask the server to shut down gracefully (drains in-flight queries).
    pub fn request_shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown)?;
        match self.read()? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected ShuttingDown, got {other:?}"
            ))),
        }
    }

    /// Close the session cleanly.
    pub fn bye(mut self) -> Result<(), ClientError> {
        self.request(&Request::Bye)?;
        match self.read()? {
            Response::Bye => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected Bye, got {other:?}"
            ))),
        }
    }

    fn collect_result(&mut self) -> Result<WireResult, ClientError> {
        let columns = match self.read()? {
            Response::RowHeader { columns } => columns,
            Response::Busy { capacity, message } => {
                return Err(ClientError::Busy { capacity, message })
            }
            Response::Error { kind, message } => return Err(ClientError::Server { kind, message }),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected RowHeader, got {other:?}"
                )))
            }
        };
        let mut rows: Vec<Vec<Value>> = Vec::new();
        loop {
            match self.read()? {
                // The first batch's vector becomes the result's.
                Response::RowBatch { rows: batch } if rows.is_empty() => rows = batch,
                Response::RowBatch { rows: batch } => rows.extend(batch),
                Response::QueryDone {
                    row_count,
                    site,
                    rapid_secs,
                    host_secs,
                } => {
                    if row_count as usize != rows.len() {
                        return Err(ClientError::Protocol(format!(
                            "QueryDone claims {row_count} rows, streamed {}",
                            rows.len()
                        )));
                    }
                    return Ok(WireResult {
                        columns,
                        rows,
                        site,
                        rapid_secs,
                        host_secs,
                    });
                }
                Response::Error { kind, message } => {
                    return Err(ClientError::Server { kind, message })
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected RowBatch/QueryDone, got {other:?}"
                    )))
                }
            }
        }
    }
}
