//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message is one frame: a 4-byte big-endian length followed by that
//! many bytes of JSON encoding a [`Request`] or [`Response`] (externally
//! tagged, via the workspace serde shim, which writes the text straight
//! into the frame's buffer and reads values straight back from the
//! received bytes — no intermediate value is built on either side; the
//! tests pin one golden text per variant). Result sets stream as a
//! `RowHeader` frame, zero or more `RowBatch` frames, and a terminating
//! `QueryDone` frame, so clients can consume arbitrarily large results
//! without the server materializing one giant frame.
//!
//! | request | responses |
//! |---|---|
//! | `Hello` | `HelloOk` (or `Busy` straight from the acceptor) |
//! | `Query { sql }` | `RowHeader`, `RowBatch`*, `QueryDone` — or `Busy` / `Error` |
//! | `Prepare { sql }` | `Prepared { stmt }` or `Error` |
//! | `ExecutePrepared { stmt }` | same stream as `Query` |
//! | `ClosePrepared { stmt }` | `Closed { stmt }` |
//! | `Cancel { conn, secret }` | `CancelOk { delivered }` (allowed pre-`Hello`) |
//! | `Stats` | `Stats` |
//! | `Shutdown` | `ShuttingDown`, then the server drains and exits |
//! | `Bye` | `Bye`, connection closes |
//!
//! `Error` frames carry [`hostdb::DbError::kind`] plus the display
//! message, so a remote client can match the exact variant an in-process
//! caller would see (error parity across transports). Frames above
//! [`MAX_FRAME_BYTES`] are refused before the body is read — a garbage
//! length prefix cannot make the server allocate unbounded memory.

use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

use rapid_storage::types::Value;

/// Protocol revision carried in the handshake.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a single frame body, enforced by both sides.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Handshake: must be the first frame of a session (except `Cancel`).
    Hello {
        /// Client's protocol revision.
        version: u32,
        /// Free-form client identification for logs.
        client: String,
    },
    /// Execute one SQL statement.
    Query {
        /// Statement text.
        sql: String,
    },
    /// Validate and cache a statement server-side.
    Prepare {
        /// Statement text.
        sql: String,
    },
    /// Execute a statement previously returned by `Prepared`.
    ExecutePrepared {
        /// Server-assigned statement id.
        stmt: u64,
    },
    /// Release a prepared statement.
    ClosePrepared {
        /// Server-assigned statement id.
        stmt: u64,
    },
    /// Out-of-band cancel of `conn`'s in-flight query (Postgres style:
    /// sent on a *fresh* connection, before any `Hello`, authorized by the
    /// secret issued in that session's `HelloOk`).
    Cancel {
        /// Target connection id.
        conn: u64,
        /// The target session's cancel secret.
        secret: u64,
    },
    /// Ask for scheduler / plan-cache counters.
    Stats,
    /// Request graceful server shutdown (drains in-flight queries).
    Shutdown,
    /// Close this session cleanly.
    Bye,
}

/// Scheduler and plan-cache counters reported by `Stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Queries the shared scheduler has finished since startup.
    pub queries_finished: u64,
    /// Simulated makespan of everything placed on the DPU so far.
    pub makespan_secs: f64,
    /// Core-busy fraction of `cores × makespan`.
    pub core_utilization: f64,
    /// DMS-engine occupancy over the makespan.
    pub dms_utilization: f64,
    /// Energy at the DPU's provisioned power over the makespan.
    pub energy_joules: f64,
    /// Plan-cache lookups answered from cache.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that re-planned.
    pub plan_cache_misses: u64,
    /// Plan-cache entries dropped on DDL.
    pub plan_cache_invalidations: u64,
    /// Currently open connections.
    pub connections: u64,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// Server's protocol revision.
        version: u32,
        /// This session's connection id (cancel target).
        conn: u64,
        /// This session's cancel secret.
        secret: u64,
        /// Server identification string.
        server: String,
    },
    /// Load shed: the connection cap or the scheduler's admission queue is
    /// full. Sent instead of hanging; after a per-query `Busy` the session
    /// stays open and may retry.
    Busy {
        /// The bound that was hit (connections or queue slots).
        capacity: usize,
        /// Human-readable description.
        message: String,
    },
    /// Result-set start: output column names.
    RowHeader {
        /// Column names, in output order.
        columns: Vec<String>,
    },
    /// One batch of result rows (the stream may contain any number).
    RowBatch {
        /// Rows in result order.
        rows: Vec<Vec<Value>>,
    },
    /// Result-set end.
    QueryDone {
        /// Total rows streamed.
        row_count: u64,
        /// Where execution happened (`Rapid` / `Host` / `Mixed`).
        site: String,
        /// Seconds attributed to RAPID (simulated on the DPU backend).
        rapid_secs: f64,
        /// Wall seconds attributed to the host engine.
        host_secs: f64,
    },
    /// Statement cached server-side.
    Prepared {
        /// Id to pass to `ExecutePrepared` / `ClosePrepared`.
        stmt: u64,
    },
    /// Prepared statement released.
    Closed {
        /// The released id.
        stmt: u64,
    },
    /// Cancel processed.
    CancelOk {
        /// Whether a live query was found and flagged.
        delivered: bool,
    },
    /// Scheduler / cache counters.
    Stats {
        /// The counters.
        stats: ServerStats,
    },
    /// Typed failure: `kind` matches [`hostdb::DbError::kind`] for engine
    /// errors; connection-level kinds are `"Protocol"`, `"FrameTooLarge"`
    /// and `"IdleTimeout"`.
    Error {
        /// Stable machine-readable kind.
        kind: String,
        /// Display message (identical to the in-process error's).
        message: String,
    },
    /// Graceful shutdown acknowledged; the server is draining.
    ShuttingDown,
    /// Session closed cleanly.
    Bye,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end-of-stream at a frame boundary.
    Eof,
    /// Transport failure (including EOF mid-frame).
    Io(io::Error),
    /// The length prefix exceeds the negotiated bound.
    TooLarge {
        /// Announced body length.
        len: u32,
        /// Enforced maximum.
        max: u32,
    },
    /// The body was not valid JSON for the expected type.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame: 4-byte big-endian length, then the JSON body. The
/// frame is built in one buffer — a length placeholder, the body serialized
/// straight behind it, then the length patched in — and written at once.
pub fn write_frame<T: Serialize>(w: &mut impl Write, frame: &T) -> io::Result<()> {
    let mut buf = vec![0u8; 4];
    frame.serialize(&mut buf);
    let len = u32::try_from(buf.len() - 4)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    buf[..4].copy_from_slice(&len.to_be_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// Blocking read of one frame (used by the client; the server uses its own
/// polling reader so it can observe idle timeouts and shutdown).
pub fn read_frame<T: Deserialize>(r: &mut impl Read, max: u32) -> Result<T, FrameError> {
    let mut hdr = [0u8; 4];
    let mut filled = 0usize;
    while filled < hdr.len() {
        match r.read(&mut hdr[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Eof),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(hdr);
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    decode(&body)
}

/// Decode a complete frame body, reading the value straight from its bytes.
pub fn decode<T: Deserialize>(body: &[u8]) -> Result<T, FrameError> {
    let text =
        std::str::from_utf8(body).map_err(|e| FrameError::Malformed(format!("not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| FrameError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let msgs = vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
                client: "t".into(),
            },
            Request::Query {
                sql: "SELECT 1 AS x".into(),
            },
            Request::Cancel {
                conn: 3,
                secret: 0xdead_beef,
            },
            Request::Bye,
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut r = &buf[..];
        for m in &msgs {
            let back: Request = read_frame(&mut r, MAX_FRAME_BYTES).unwrap();
            assert_eq!(&back, m);
        }
        assert!(matches!(
            read_frame::<Request>(&mut r, MAX_FRAME_BYTES),
            Err(FrameError::Eof)
        ));
    }

    #[test]
    fn response_rows_roundtrip() {
        let resp = Response::RowBatch {
            rows: vec![
                vec![Value::Int(-7), Value::Null, Value::Str("x".into())],
                vec![
                    Value::Decimal {
                        unscaled: -12345,
                        scale: 2,
                    },
                    Value::Date(9000),
                    Value::Int(i64::MAX),
                ],
            ],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp).unwrap();
        let back: Response = read_frame(&mut &buf[..], MAX_FRAME_BYTES).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn oversized_frame_refused_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"junk");
        match read_frame::<Request>(&mut &buf[..], MAX_FRAME_BYTES) {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn garbage_body_is_malformed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_be_bytes());
        buf.extend_from_slice(b"@@@@");
        assert!(matches!(
            read_frame::<Request>(&mut &buf[..], MAX_FRAME_BYTES),
            Err(FrameError::Malformed(_))
        ));
    }

    /// `msg` is written as exactly `text` behind its length prefix, and
    /// `text` reads back as `msg`.
    fn golden<T>(msg: &T, text: &str)
    where
        T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
    {
        let mut frame = Vec::new();
        write_frame(&mut frame, msg).unwrap();
        let (len, body) = frame.split_at(4);
        assert_eq!(std::str::from_utf8(body).unwrap(), text);
        assert_eq!(len, (text.len() as u32).to_be_bytes());
        assert_eq!(&decode::<T>(text.as_bytes()).unwrap(), msg);
    }

    fn read<T: Deserialize>(text: &str) -> Result<T, FrameError> {
        decode(text.as_bytes())
    }

    #[test]
    fn every_request_variant_has_its_golden_bytes() {
        golden(
            &Request::Hello {
                version: PROTOCOL_VERSION,
                client: "rapid-sql/0.1".into(),
            },
            r#"{"Hello":{"version":1,"client":"rapid-sql/0.1"}}"#,
        );
        golden(
            &Request::Query {
                sql: "SELECT 'a\"b\\c', '\u{1}\u{1f}\t\n\r', '🦀 世界' AS x".into(),
            },
            r#"{"Query":{"sql":"SELECT 'a\"b\\c', '\u0001\u001f\t\n\r', '🦀 世界' AS x"}}"#,
        );
        golden(
            &Request::Prepare {
                sql: "SELECT o_orderkey FROM orders WHERE o_orderkey = 1".into(),
            },
            r#"{"Prepare":{"sql":"SELECT o_orderkey FROM orders WHERE o_orderkey = 1"}}"#,
        );
        golden(
            &Request::ExecutePrepared { stmt: u64::MAX },
            r#"{"ExecutePrepared":{"stmt":18446744073709551615}}"#,
        );
        golden(
            &Request::ClosePrepared { stmt: 7 },
            r#"{"ClosePrepared":{"stmt":7}}"#,
        );
        golden(
            &Request::Cancel {
                conn: 3,
                secret: 0xdead_beef,
            },
            r#"{"Cancel":{"conn":3,"secret":3735928559}}"#,
        );
        golden(&Request::Stats, r#""Stats""#);
        golden(&Request::Shutdown, r#""Shutdown""#);
        golden(&Request::Bye, r#""Bye""#);
    }

    #[test]
    fn every_response_variant_has_its_golden_bytes() {
        golden(
            &Response::HelloOk {
                version: PROTOCOL_VERSION,
                conn: 12,
                secret: 9_876_543_210,
                server: "rapid".into(),
            },
            r#"{"HelloOk":{"version":1,"conn":12,"secret":9876543210,"server":"rapid"}}"#,
        );
        golden(
            &Response::Busy {
                capacity: 64,
                message: "server busy: 64 connections".into(),
            },
            r#"{"Busy":{"capacity":64,"message":"server busy: 64 connections"}}"#,
        );
        golden(
            &Response::RowHeader {
                columns: vec!["o_orderkey".into(), "o_comment".into(), String::new()],
            },
            r#"{"RowHeader":{"columns":["o_orderkey","o_comment",""]}}"#,
        );
        golden(
            &Response::RowBatch {
                rows: vec![
                    vec![
                        Value::Null,
                        Value::Int(0),
                        Value::Int(-7),
                        Value::Int(i64::MAX),
                        Value::Int(i64::MIN),
                    ],
                    vec![
                        Value::Decimal {
                            unscaled: -12345,
                            scale: 2,
                        },
                        Value::Decimal {
                            unscaled: 0,
                            scale: 0,
                        },
                        Value::Decimal {
                            unscaled: i64::MAX,
                            scale: 255,
                        },
                    ],
                    vec![Value::Date(9000), Value::Date(-1), Value::Date(i32::MIN)],
                    vec![
                        Value::Str(String::new()),
                        Value::Str("quote \" back \\ slash".into()),
                        Value::Str("\u{0}\u{7}\u{8}\u{c}\u{1b}\u{7f} nl\n cr\r tab\t".into()),
                        Value::Str("ünïcödé 世界 🦀 \u{10ffff}".into()),
                    ],
                    vec![],
                ],
            },
            concat!(
                r#"{"RowBatch":{"rows":[["Null",{"Int":0},{"Int":-7},"#,
                r#"{"Int":9223372036854775807},{"Int":-9223372036854775808}],"#,
                r#"[{"Decimal":{"unscaled":-12345,"scale":2}},"#,
                r#"{"Decimal":{"unscaled":0,"scale":0}},"#,
                r#"{"Decimal":{"unscaled":9223372036854775807,"scale":255}}],"#,
                r#"[{"Date":9000},{"Date":-1},{"Date":-2147483648}],"#,
                r#"[{"Str":""},{"Str":"quote \" back \\ slash"},"#,
                r#"{"Str":"\u0000\u0007\u0008\u000c\u001b"#,
                "\u{7f}",
                r#" nl\n cr\r tab\t"},{"Str":"ünïcödé 世界 🦀 "#,
                "\u{10ffff}",
                r#""}],[]]}}"#,
            ),
        );
        golden(
            &Response::RowBatch { rows: vec![] },
            r#"{"RowBatch":{"rows":[]}}"#,
        );
        golden(
            &Response::QueryDone {
                row_count: 1000,
                site: "Rapid".into(),
                rapid_secs: 0.000_123_4,
                host_secs: 1.5e300,
            },
            concat!(
                r#"{"QueryDone":{"row_count":1000,"site":"Rapid","#,
                r#""rapid_secs":0.0001234,"host_secs":1.5e300}}"#,
            ),
        );
        golden(
            &Response::QueryDone {
                row_count: 0,
                site: "Host".into(),
                rapid_secs: -0.0,
                host_secs: 2.0,
            },
            r#"{"QueryDone":{"row_count":0,"site":"Host","rapid_secs":-0.0,"host_secs":2.0}}"#,
        );
        golden(
            &Response::Prepared { stmt: 1 },
            r#"{"Prepared":{"stmt":1}}"#,
        );
        golden(&Response::Closed { stmt: 0 }, r#"{"Closed":{"stmt":0}}"#);
        golden(
            &Response::CancelOk { delivered: true },
            r#"{"CancelOk":{"delivered":true}}"#,
        );
        golden(
            &Response::Stats {
                stats: ServerStats {
                    queries_finished: 5,
                    makespan_secs: 1e-7,
                    core_utilization: 0.5,
                    dms_utilization: 0.25,
                    energy_joules: 3.0,
                    plan_cache_hits: 4,
                    plan_cache_misses: 1,
                    plan_cache_invalidations: 0,
                    connections: 2,
                },
            },
            concat!(
                r#"{"Stats":{"stats":{"queries_finished":5,"makespan_secs":1e-7,"#,
                r#""core_utilization":0.5,"dms_utilization":0.25,"energy_joules":3.0,"#,
                r#""plan_cache_hits":4,"plan_cache_misses":1,"#,
                r#""plan_cache_invalidations":0,"connections":2}}}"#,
            ),
        );
        golden(
            &Response::Error {
                kind: "Parse".into(),
                message: "unexpected token ')'".into(),
            },
            r#"{"Error":{"kind":"Parse","message":"unexpected token ')'"}}"#,
        );
        golden(&Response::ShuttingDown, r#""ShuttingDown""#);
        golden(&Response::Bye, r#""Bye""#);
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        let mut frame = Vec::new();
        let done = Response::QueryDone {
            row_count: 1,
            site: "Host".into(),
            rapid_secs: f64::NAN,
            host_secs: f64::NEG_INFINITY,
        };
        write_frame(&mut frame, &done).unwrap();
        assert_eq!(
            &frame[4..],
            br#"{"QueryDone":{"row_count":1,"site":"Host","rapid_secs":null,"host_secs":null}}"#
        );
    }

    #[test]
    fn the_decoder_accepts_any_layout_of_the_same_values() {
        let cancel = Request::Cancel {
            conn: 3,
            secret: 0xdead_beef,
        };
        // Keys in any order.
        assert_eq!(
            read::<Request>(r#"{"Cancel":{"secret":3735928559,"conn":3}}"#).unwrap(),
            cancel
        );
        // Any JSON whitespace between tokens.
        assert_eq!(
            read::<Request>(" \t\n{ \"Cancel\" :\r{ \"conn\" : 3 ,\n\"secret\":3735928559 } }\n")
                .unwrap(),
            cancel
        );
        // Unknown keys are skipped, whatever valid JSON they hold.
        assert_eq!(
            read::<Request>(concat!(
                r#"{"Cancel":{"extra":[1,{"a":null},"s\u0041\"",true,-1.5e3,[]],"#,
                r#""conn":3,"secret":3735928559,"more":{}}}"#
            ))
            .unwrap(),
            cancel
        );
        // A duplicate key: the first one wins, the second need only be JSON.
        assert_eq!(
            read::<Response>(r#"{"Closed":{"stmt":1,"stmt":2}}"#).unwrap(),
            Response::Closed { stmt: 1 }
        );
        assert_eq!(
            read::<Response>(r#"{"Closed":{"stmt":1,"stmt":"two"}}"#).unwrap(),
            Response::Closed { stmt: 1 }
        );
        // An escaped key names the same field.
        assert_eq!(
            read::<Request>(r#"{"Query":{"s\u0071l":"x"}}"#).unwrap(),
            Request::Query { sql: "x".into() }
        );
        // A client that escapes non-ASCII text sends a non-BMP character
        // as a surrogate pair: it arrives as the one character.
        assert_eq!(
            read::<Request>(r#"{"Query":{"sql":"SELECT '\ud83e\udd80'"}}"#).unwrap(),
            Request::Query {
                sql: "SELECT '🦀'".into()
            }
        );
        // A whole number written as a float fills an integer field.
        assert_eq!(
            read::<Response>(r#"{"Closed":{"stmt":7.0}}"#).unwrap(),
            Response::Closed { stmt: 7 }
        );
        assert_eq!(
            read::<Response>(r#"{"RowBatch":{"rows":[[{"Int":1.0},{"Date":2e3},{"Int":-0}]]}}"#)
                .unwrap(),
            Response::RowBatch {
                rows: vec![vec![Value::Int(1), Value::Date(2000), Value::Int(0)]]
            }
        );
        // An integer fills a float field.
        assert_eq!(
            read::<Response>(
                r#"{"QueryDone":{"row_count":1,"site":"Host","rapid_secs":3,"host_secs":-0}}"#
            )
            .unwrap(),
            Response::QueryDone {
                row_count: 1,
                site: "Host".into(),
                rapid_secs: 3.0,
                host_secs: 0.0,
            }
        );
    }

    #[test]
    fn the_decoder_rejects_what_is_not_one_frame_of_the_type() {
        for bad in [
            // Trailing characters after the value.
            r#""Bye"x"#,
            r#""Bye" "Bye""#,
            r#"{"Prepared":{"stmt":1}}}"#,
            // Not JSON, or not all of it.
            "",
            r#"{"Closed":{"stmt":1,}}"#,
            r#"{"Closed":{"stmt":1,"x":[1,]}}"#,
            r#"{"Closed":{"stmt":1,"x":nul}}"#,
            r#"{"Closed":{"stmt":1,"x":"\q"}}"#,
            r#"{"Closed":{"stmt":1"#,
            // Not the type.
            r#""Hello""#,
            r#"{"Bye":null}"#,
            r#"{"Nope":{"stmt":1}}"#,
            r#"{"Closed":{"stmt":1},"Prepared":{"stmt":1}}"#,
            r#"{}"#,
            r#"{"Closed":{}}"#,
            r#"{"Closed":{"stmt":-1}}"#,
            r#"{"Closed":{"stmt":1.5}}"#,
            r#"{"Closed":{"stmt":"1"}}"#,
            r#"{"CancelOk":{"delivered":1}}"#,
            r#"{"RowBatch":{"rows":[[{"Int":9223372036854775808}]]}}"#,
            r#"{"RowBatch":{"rows":[[{"Date":2147483648}]]}}"#,
            r#"{"RowBatch":{"rows":[["Int"]]}}"#,
            r#"{"QueryDone":{"row_count":1,"site":"Host","rapid_secs":null,"host_secs":0}}"#,
        ] {
            assert!(
                matches!(read::<Response>(bad), Err(FrameError::Malformed(_))),
                "accepted {bad:?}"
            );
        }
    }
}
