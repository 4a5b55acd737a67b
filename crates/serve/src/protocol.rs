//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every message is one JSON value on one line (externally tagged, the
//! serde default), so the protocol is trivially inspectable with `nc` and
//! resilient to partial failure: a malformed line produces a typed
//! [`ProtocolError`], an [`Response::Error`] reply, and nothing else — the
//! connection stays up and no shard state is touched.
//!
//! Producer flow (`dbcatcher emit`):
//!
//! ```text
//! → Hello{unit, dbs, kpis, participation}     ← HelloAck{unit, next_tick, resumed}
//! → Tick{unit, tick, frame}                   ← Accepted{unit, tick}
//! → Tick{unit, tick, frame}   (queue full)    ← Rejected{unit, tick, expected, retry_after_ms, reason}
//!                                             ← Verdict{unit, at_tick, verdict}   (async)
//! → Flush{unit}                               ← FlushAck{unit, ticks_ingested, verdicts, next_tick}
//! ```
//!
//! Consumer flow: `Subscribe` switches the connection into a verdict
//! stream (`Subscribed`, then `Verdict` messages for every unit). `Stats`
//! returns one [`crate::metrics::MetricsSnapshot`]. `Stop` asks the
//! daemon to shut down cleanly.
//!
//! Ticks are *absolute* and must arrive in order per unit: the server
//! tracks the next expected tick and rejects anything else
//! (`reason: "out-of-order"`, carrying the expected tick so the client can
//! rewind). Backpressure is the same shape: a full ingress queue rejects
//! with `reason: "backpressure"` and a retry hint — ingress memory never
//! grows without bound.
//!
//! Non-finite samples survive the wire: JSON has no NaN, so the serde shim
//! writes `null` and reads it back as `f64::NAN`, which the ingest layer's
//! gap repair then handles exactly as in the offline path.

use dbcatcher_core::pipeline::Verdict;
use dbcatcher_hierarchy::ScopeVerdict;
use serde::{Deserialize, Serialize};
use std::io::Write;

use crate::metrics::MetricsSnapshot;
use crate::wire;

/// Hard cap on one wire line, bounding per-connection memory. A frame of
/// 64 databases x 64 KPIs is ~100 KiB of JSON; 1 MiB leaves generous room.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Registers (or re-attaches to) one unit stream. Must precede any
    /// `Tick` for that unit on any connection.
    Hello {
        /// Unit id, `< max_units` of the server.
        unit: usize,
        /// Databases in the unit.
        dbs: usize,
        /// KPIs per database.
        kpis: usize,
        /// Optional Table II participation mask, `mask[kpi][db]`.
        participation: Option<Vec<Vec<bool>>>,
    },
    /// One monitoring frame (`frame[db][kpi]`) for an absolute tick.
    Tick {
        /// Unit id.
        unit: usize,
        /// Absolute tick index; must equal the server's expected tick.
        tick: u64,
        /// The KPI frame.
        frame: Vec<Vec<f64>>,
    },
    /// Barrier: the reply arrives only after every tick enqueued for the
    /// unit so far has been processed (and its verdicts sent).
    Flush {
        /// Unit id.
        unit: usize,
    },
    /// Turns this connection into a verdict-stream consumer.
    Subscribe,
    /// Requests one metrics snapshot.
    Stats,
    /// Operator override: clears a hard-degraded unit back onto
    /// probation so a repaired producer can resume streaming.
    ResetUnit {
        /// Unit id.
        unit: usize,
    },
    /// Asks the daemon to shut down cleanly.
    Stop,
}

/// Why a `Tick` was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The unit's bounded ingress queue is full; retry after the hint.
    Backpressure,
    /// The tick is not the next expected one; resend from `expected`.
    OutOfOrder,
    /// The unit's detector rejected an earlier frame and stopped.
    Degraded,
    /// No `Hello` has registered this unit yet.
    UnknownUnit,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// `Hello` acknowledgement.
    HelloAck {
        /// Unit id.
        unit: usize,
        /// Next tick the server expects (0 for a fresh unit, the
        /// snapshot's next tick after a warm restart).
        next_tick: u64,
        /// Whether the unit state was restored from a snapshot.
        resumed: bool,
    },
    /// The tick was enqueued.
    Accepted {
        /// Unit id.
        unit: usize,
        /// The enqueued tick.
        tick: u64,
    },
    /// The tick was dropped; the client must resend it (and everything
    /// after it) starting at `expected`.
    Rejected {
        /// Unit id.
        unit: usize,
        /// The rejected tick.
        tick: u64,
        /// Next tick the server will accept.
        expected: u64,
        /// Suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
        /// Why the tick was dropped.
        reason: RejectReason,
    },
    /// A verdict became final.
    Verdict {
        /// Unit id.
        unit: usize,
        /// Tick whose ingestion resolved the verdict (the offline
        /// emission order is `(unit, at_tick, db, start_tick)`).
        at_tick: u64,
        /// The unit-local verdict.
        verdict: Verdict,
    },
    /// `Flush` acknowledgement: everything enqueued before it was
    /// processed.
    FlushAck {
        /// Unit id.
        unit: usize,
        /// Ticks ingested for the unit so far.
        ticks_ingested: u64,
        /// Verdicts emitted for the unit so far.
        verdicts: u64,
        /// Next tick the detector expects. Lets producers detect ticks
        /// that were accepted but died with a failed worker generation
        /// (never reaching the WAL) and resend the tail — the flush
        /// barrier is an end-to-end position check, not just a drain.
        next_tick: u64,
    },
    /// A fleet-scope alarm transition from the hierarchy engine
    /// (broadcast to subscribers when the daemon runs with
    /// `--hierarchy`).
    ScopeVerdict(ScopeVerdict),
    /// `Subscribe` acknowledgement; `Verdict` messages follow.
    Subscribed,
    /// `ResetUnit` acknowledgement: the unit accepts ticks again (on
    /// probation until it earns back full health).
    ResetAck {
        /// Unit id.
        unit: usize,
        /// Next tick the server expects from the producer.
        next_tick: u64,
    },
    /// One metrics snapshot.
    Stats(MetricsSnapshot),
    /// `Stop` acknowledgement; the daemon is shutting down.
    Stopping,
    /// Protocol-level failure (malformed line, bad arity, unknown unit…).
    /// The connection survives; no shard state was touched.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// A typed wire-decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The line exceeds [`MAX_LINE_BYTES`].
    Oversized {
        /// Cap that was exceeded.
        max: usize,
    },
    /// The line is not valid JSON for the expected message type.
    Malformed {
        /// Parser diagnostic.
        detail: String,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Oversized { max } => {
                write!(f, "line exceeds the {max}-byte wire limit")
            }
            ProtocolError::Malformed { detail } => write!(f, "malformed message: {detail}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Encodes any serialisable message as one wire line (no trailing
/// newline; the writer appends it).
pub fn encode<T: Serialize>(message: &T) -> String {
    serde_json::to_string(message).unwrap_or_else(|e| {
        // Unreachable for the shim data model; degrade to a protocol
        // error the peer can at least report.
        format!("{{\"Error\":{{\"message\":\"encode failed: {e}\"}}}}")
    })
}

/// Writes one response as a wire line: the bytes of [`encode`] and a
/// newline. `Accepted` and `Verdict`, the per-tick replies, are written
/// straight into `out` without an intermediate `String`; every other
/// variant goes through [`encode`].
///
/// # Errors
/// Propagates the writer's I/O errors.
pub fn write_response(response: &Response, out: &mut impl Write) -> std::io::Result<()> {
    match response {
        Response::Accepted { unit, tick } => wire::write_accepted(out, *unit, *tick),
        Response::Verdict {
            unit,
            at_tick,
            verdict,
        } => wire::write_verdict(out, *unit, *at_tick, verdict),
        other => writeln!(out, "{}", encode(other)),
    }
}

/// Decodes one request line. A `Tick` line in the shape [`encode`]
/// writes is scanned without the generic JSON tree; any other line, or
/// any deviation from that shape, takes the generic path, which decides
/// exactly as it would alone.
///
/// # Errors
/// [`ProtocolError::Oversized`] past [`MAX_LINE_BYTES`],
/// [`ProtocolError::Malformed`] for anything `serde_json` rejects.
pub fn decode_request(line: &str) -> Result<Request, ProtocolError> {
    let text = bounded(line)?;
    match wire::decode_tick(text) {
        Some(tick) => Ok(tick),
        None => parse(text),
    }
}

/// Decodes one response line.
///
/// # Errors
/// Same conditions as [`decode_request`].
pub fn decode_response(line: &str) -> Result<Response, ProtocolError> {
    parse(bounded(line)?)
}

/// The line without its trailing whitespace, once its length is checked.
fn bounded(line: &str) -> Result<&str, ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::Oversized {
            max: MAX_LINE_BYTES,
        });
    }
    Ok(line.trim_end())
}

fn parse<T: Deserialize>(text: &str) -> Result<T, ProtocolError> {
    serde_json::from_str(text).map_err(|e| ProtocolError::Malformed {
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_variants_round_trip() {
        for req in [Request::Subscribe, Request::Stats, Request::Stop] {
            let line = encode(&req);
            assert_eq!(decode_request(&line).unwrap(), req);
        }
    }

    #[test]
    fn reset_unit_round_trips() {
        let req = Request::ResetUnit { unit: 7 };
        assert_eq!(decode_request(&encode(&req)).unwrap(), req);
        let ack = Response::ResetAck {
            unit: 7,
            next_tick: 42,
        };
        assert_eq!(decode_response(&encode(&ack)).unwrap(), ack);
    }

    #[test]
    fn tick_round_trips_with_nan() {
        let req = Request::Tick {
            unit: 3,
            tick: 41,
            frame: vec![vec![1.5, f64::NAN], vec![-2.0, f64::INFINITY]],
        };
        let line = encode(&req);
        match decode_request(&line).unwrap() {
            Request::Tick { unit, tick, frame } => {
                assert_eq!((unit, tick), (3, 41));
                assert_eq!(frame[0][0], 1.5);
                assert!(frame[0][1].is_nan(), "NaN must survive as null");
                assert!(frame[1][1].is_nan(), "Inf degrades to null -> NaN");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_lines_yield_typed_errors() {
        for bad in ["", "{", "[1,2", "\"Tick\"", "{\"Tick\":{}}", "null{}"] {
            assert!(
                matches!(decode_request(bad), Err(ProtocolError::Malformed { .. })),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn oversized_line_rejected() {
        let huge = "x".repeat(MAX_LINE_BYTES + 1);
        assert_eq!(
            decode_request(&huge),
            Err(ProtocolError::Oversized {
                max: MAX_LINE_BYTES
            })
        );
    }
}
