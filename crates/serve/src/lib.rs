//! Online detection service for DBCatcher (paper §III-A).
//!
//! The paper frames DBCatcher as an *online* system: a monitoring plane
//! continuously collects KPI frames from cloud-database units and the
//! detector answers within the collection cycle. This crate supplies that
//! missing operational shape on top of `dbcatcher-core`:
//!
//! - [`server::DetectionServer`] — a std-only TCP daemon (thread-per
//!   connection, no async runtime) speaking a newline-delimited JSON
//!   protocol ([`protocol`]), sharding units across worker threads that
//!   own their [`dbcatcher_core::pipeline::DbCatcher`] state.
//! - Bounded ingress with explicit backpressure: per-unit in-flight caps
//!   enforced at the socket reader, rejects carrying `retry_after_ms` and
//!   the expected tick so producers rewind instead of buffering.
//! - Fault containment via the PR 2 hardened ingest layer: malformed
//!   frames degrade one unit (visible in [`metrics`]), never a shard.
//! - Warm restart: periodic [`dbcatcher_core::snapshot`] persistence and
//!   `--resume`, with `HelloAck{next_tick}` telling producers where to
//!   pick the stream back up.
//! - Durability: a per-shard write-ahead log ([`wal`]) records every
//!   accepted tick *before* detection, so restarts replay
//!   `snapshot + WAL suffix` and lose nothing — not even the tick a
//!   crash interrupted mid-detection.
//! - Self-healing: a `supervisor` monitors shard workers, replacing
//!   panicked or wedged generations from their durable state; units pass
//!   through a probation lifecycle instead of degrading permanently, and
//!   operators can `ResetUnit` a hard-degraded stream.
//! - [`client`] — the `dbcatcher emit` engine (windowed, rewind-on-
//!   reject, capped jittered backoff), plus `stats` / `stop` /
//!   `reset_unit` / subscription helpers.

#![forbid(unsafe_code)]

pub mod client;
pub mod hierarchy;
pub mod metrics;
pub mod protocol;
pub mod server;
mod shard;
pub(crate) mod supervisor;
pub(crate) mod sync;
pub mod wal;
mod wire;

pub use client::{
    emit, emit_surviving, fetch_stats, reset_unit, send_stop, EmitOptions, EmitReport, Subscriber,
    UnitStream,
};
pub use hierarchy::{HierarchyOptions, HIERARCHY_WAL_FILE};
pub use metrics::{MetricsSnapshot, ServerMetrics, ShardStatus, UnitMetrics};
pub use protocol::{Request, Response};
pub use server::{DetectionServer, ServeConfig, ServerHandle};
pub use shard::{CrashSwitch, DetectorTemplate, ShardChaos, READMIT_AFTER, STRIKE_LIMIT};
