//! Metric collection, the per-layer budget and the result line.

use crate::check::quantile;
use crate::plan::Workload;
use crate::replay::{Layers, Replay};
use crate::trace::{self_times, write_spans, Layer, LAYERS, NONE};
use dbcatcher_serve::MetricsSnapshot;
use std::fmt::Write as _;
use std::path::Path;

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.entries.push((name, value, unit));
    }

    /// Prints every metric by name with its unit.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.entries {
            eprintln!("  {name:<32} {value:>14.4} {unit}");
        }
    }

    /// The JSON result line. A metric that could not be measured (not a
    /// finite number) makes the run incorrect rather than invalid JSON.
    pub fn json_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let finite = self.entries.iter().all(|(_, v, _)| v.is_finite());
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
            correct && finite
        )
    }
}

/// Values joined with spaces at `digits` decimals.
pub fn join(values: &[f64], digits: usize) -> String {
    values
        .iter()
        .map(|v| format!("{v:.digits$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Per-layer totals over the traced replay.
#[derive(Debug, Default, Clone, Copy)]
struct Row {
    calls: u64,
    self_ns: u64,
    timed_self_ns: u64,
}

/// Computes the per-layer metrics from a traced replay, prints the
/// budget table and writes the spans out.
///
/// `overhead_pct` is the tracing overhead measured beside the replay;
/// `cpu_us_per_tick` and `stats` come from the end-to-end run.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    metrics: &mut Metrics,
    w: &Workload,
    traced: &Replay,
    overhead_pct: f64,
    cpu_us_per_tick: f64,
    stats: Option<&MetricsSnapshot>,
    spans_path: &Path,
) -> Result<(), String> {
    let spans = traced.tracer.spans();
    let own = self_times(spans);
    write_spans(spans_path, spans, &own).map_err(|e| format!("write spans: {e}"))?;

    let notes = &traced.notes;
    let timed = |tick: u32| tick != NONE && notes[tick as usize].timed;
    let mut rows = [Row::default(); LAYERS.len()];
    let mut push_ns = Vec::new();
    let mut judge_ns = Vec::new();
    for (span, &ns) in spans.iter().zip(&own) {
        let row = &mut rows[span.layer as usize];
        row.calls += 1;
        row.self_ns += ns;
        if timed(span.tick) {
            row.timed_self_ns += ns;
            if span.layer == Layer::Ingest {
                if notes[span.tick as usize].judging {
                    judge_ns.push(ns as f64);
                } else {
                    push_ns.push(ns as f64);
                }
            }
        }
    }
    let row = |layer: Layer| rows[layer as usize];
    let per_call_us = |layer: Layer| {
        let r = row(layer);
        r.self_ns as f64 / r.calls.max(1) as f64 / 1e3
    };
    let timed_notes: Vec<_> = notes.iter().filter(|n| n.timed).collect();
    let ticks = timed_notes.len().max(1) as f64;
    let per_tick_us = |layer: Layer| row(layer).timed_self_ns as f64 / ticks / 1e3;
    let sum = |f: &dyn Fn(&crate::replay::TickNote) -> u64| -> f64 {
        timed_notes.iter().map(|n| f(n)).sum::<u64>() as f64
    };
    let verdicts = sum(&|n| u64::from(n.verdicts));
    let verdicts_per_tick = verdicts / ticks;
    let ingest_ns = row(Layer::Ingest).timed_self_ns as f64;

    // The workload's per-tick budget: the layers its daemon runs.
    let layers = Layers::of(w);
    let budget: f64 = LAYERS
        .iter()
        .filter(|l| layers.active(**l))
        .map(|l| per_tick_us(*l))
        .sum();
    // Shares are of the daemon's own CPU per tick; what the replayed
    // layers do not account for is socket I/O and thread hand-off.
    let share = |us: f64| format!("{:.1}%", 100.0 * us / cpu_us_per_tick);
    eprintln!(
        "  per-layer budget ({} timed ticks, single thread; * = the daemon runs it; \
         share of the daemon's {cpu_us_per_tick:.2} us/tick):",
        timed_notes.len()
    );
    eprintln!(
        "    {:<24} {:>8} {:>12} {:>12} {:>7}",
        "layer", "calls", "self us/call", "us/tick", "share"
    );
    for layer in LAYERS {
        let r = row(layer);
        if r.calls == 0 || layer == Layer::Tick {
            continue;
        }
        let active = layers.active(layer);
        let tick_us = per_tick_us(layer);
        let (tick_col, share_col) = if active {
            (format!("{tick_us:.2}"), share(tick_us))
        } else {
            ("-".into(), "-".into())
        };
        eprintln!(
            "    {:<24} {:>8} {:>12.2} {:>12} {:>7}",
            format!("{}{}", layer.name(), if active { " *" } else { "" }),
            r.calls,
            per_call_us(layer),
            tick_col,
            share_col
        );
    }
    let handoff = cpu_us_per_tick - budget;
    eprintln!(
        "    {:<24} {:>8} {:>12} {:>12.2} {:>7}",
        "server.handoff (rest)",
        "",
        "",
        handoff,
        share(handoff)
    );
    let shard_ns = stats.map_or(f64::NAN, |s| {
        let ticks: u64 = s.shard_status.iter().map(|st| st.ticks).sum();
        let weighted: f64 = s
            .shard_status
            .iter()
            .map(|st| st.ns_per_tick as f64 * st.ticks as f64)
            .sum();
        weighted / ticks.max(1) as f64
    });
    // The shard's own timer wraps detection in the daemon, where it
    // shares caches and cores with the wire threads; what it adds over
    // the replay's core.ingest is part of the rest above.
    eprintln!(
        "    {:<24} {:>8} {:>12} {:>12.2} {:>7}",
        "core.ingest in daemon",
        "",
        "",
        shard_ns / 1e3,
        share(shard_ns / 1e3)
    );

    let span_ms = |layer: Layer| row(layer).self_ns as f64 / 1e6;

    metrics.put("protocol.decode_us", per_tick_us(Layer::Decode), "us");
    metrics.put(
        "protocol.tick_bytes",
        sum(&|n| u64::from(n.in_bytes)) / ticks,
        "bytes",
    );
    metrics.put(
        "protocol.encode_verdict_us",
        per_tick_us(Layer::Encode),
        "us",
    );
    metrics.put(
        "protocol.out_bytes_per_tick",
        sum(&|n| u64::from(n.out_bytes)) / ticks,
        "bytes",
    );
    metrics.put("server.handoff_us", handoff, "us");
    metrics.put("shard.ns_per_tick", shard_ns, "ns");
    metrics.put(
        "server.rejects",
        stats.map_or(f64::NAN, |s| s.total_rejects as f64),
        "count",
    );
    metrics.put(
        "core.push_us",
        push_ns.iter().sum::<f64>() / push_ns.len().max(1) as f64 / 1e3,
        "us",
    );
    metrics.put(
        "core.judge_us",
        quantile(&judge_ns, 0.5).unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    metrics.put(
        "core.correlation_share",
        sum(&|n| n.correlation_ns) / ingest_ns.max(1.0),
        "ratio",
    );
    metrics.put("core.verdicts_per_tick", verdicts_per_tick, "count");
    metrics.put(
        "core.expansions_per_verdict",
        sum(&|n| u64::from(n.expansions)) / verdicts.max(1.0),
        "count",
    );
    metrics.put("core.hello_us", per_call_us(Layer::Hello), "us");
    metrics.put("wal.append_us", per_call_us(Layer::Wal), "us");
    metrics.put("wal.record_bytes", traced.wal_record_bytes as f64, "bytes");
    metrics.put(
        "snapshot.persist_ms",
        per_call_us(Layer::Snapshot) / 1e3,
        "ms",
    );
    metrics.put(
        "snapshot.bytes",
        traced.snapshot_bytes as f64 / traced.snapshots.max(1) as f64,
        "bytes",
    );
    metrics.put(
        "hierarchy.observe_us",
        per_call_us(Layer::Hierarchy) * verdicts_per_tick,
        "us",
    );
    metrics.put(
        "hierarchy.scope_verdicts",
        traced.scope_verdicts as f64,
        "count",
    );
    metrics.put("hierarchy.journal_us", per_call_us(Layer::Journal), "us");
    metrics.put("wal.recover_ms", span_ms(Layer::WalRecover), "ms");
    metrics.put("snapshot.restore_ms", span_ms(Layer::SnapshotRestore), "ms");
    metrics.put("core.replay_ticks", traced.replay_ticks as f64, "count");
    metrics.put("hierarchy.replay_ms", span_ms(Layer::JournalReplay), "ms");
    metrics.put("trace.overhead_pct", overhead_pct, "%");
    Ok(())
}
