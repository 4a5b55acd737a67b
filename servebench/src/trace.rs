//! In-memory spans of the traced replay and their self-time analysis.
//!
//! A span records one call into a layer: its name, start, end, the span
//! that caused it and the id of the tick it served. Spans are kept in
//! memory and written out once the run is over. A span's self time is
//! its duration minus the part of that interval its child spans cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layers the replay calls, in the order the shard calls them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One replayed tick (root of its layer spans).
    Tick,
    /// `DbCatcher::try_new` + `with_participation` for one unit.
    Hello,
    /// `serve::protocol::decode_request` of one Tick line.
    Decode,
    /// `serve::wal::WalWriter::append`.
    Wal,
    /// `DbCatcher::try_ingest_tick_with`.
    Ingest,
    /// `serve::protocol::encode` of the ack and the verdicts.
    Encode,
    /// Hierarchy journal: `render_unit_line` + append + flush.
    Journal,
    /// `FleetReplay::observe` + `drain`.
    Hierarchy,
    /// `DbCatcher::snapshot` + `to_json` + write/rename.
    Snapshot,
    /// `serve::wal::recover_shard`.
    WalRecover,
    /// `DetectorSnapshot::from_json` + `DbCatcher::try_restore`.
    SnapshotRestore,
    /// Re-ingesting the WAL suffix above a unit's snapshot.
    SuffixReplay,
    /// Re-reading the hierarchy journal into a fresh `FleetReplay`.
    JournalReplay,
}

/// Every layer, for tables.
pub const LAYERS: [Layer; 13] = [
    Layer::Tick,
    Layer::Hello,
    Layer::Decode,
    Layer::Wal,
    Layer::Ingest,
    Layer::Encode,
    Layer::Journal,
    Layer::Hierarchy,
    Layer::Snapshot,
    Layer::WalRecover,
    Layer::SnapshotRestore,
    Layer::SuffixReplay,
    Layer::JournalReplay,
];

impl Layer {
    /// Stable name used in the span file and the tables.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Tick => "tick",
            Layer::Hello => "core.hello",
            Layer::Decode => "protocol.decode",
            Layer::Wal => "wal.append",
            Layer::Ingest => "core.ingest",
            Layer::Encode => "protocol.encode",
            Layer::Journal => "hierarchy.journal",
            Layer::Hierarchy => "hierarchy.observe",
            Layer::Snapshot => "snapshot.persist",
            Layer::WalRecover => "wal.recover",
            Layer::SnapshotRestore => "snapshot.restore",
            Layer::SuffixReplay => "core.replay",
            Layer::JournalReplay => "hierarchy.replay",
        }
    }
}

/// No parent / no tick.
pub const NONE: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer called.
    pub layer: Layer,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Replay sequence number of the tick served, or [`NONE`] for set-up
    /// and recovery work.
    pub tick: u32,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span of `layer` for `tick` under the innermost open span.
    pub fn enter(&mut self, layer: Layer, tick: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            layer,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            tick,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(index) = self.open.pop() {
            self.spans[index as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NONE {
            children[span.parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (lo, hi) = (span.start_ns, span.end_ns);
            let mut covered = 0;
            let mut reach = lo;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(hi));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Writes the spans as tab-separated text, one span per line:
/// `id parent layer tick start_ns end_ns self_ns` (`-` for no parent or
/// no tick).
pub fn write_spans(path: &Path, spans: &[Span], self_ns: &[u64]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 48);
    out.push_str("id\tparent\tlayer\ttick\tstart_ns\tend_ns\tself_ns\n");
    let opt = |v: u32| {
        if v == NONE {
            "-".to_string()
        } else {
            v.to_string()
        }
    };
    for (id, (span, own)) in spans.iter().zip(self_ns).enumerate() {
        let _ = writeln!(
            out,
            "{id}\t{}\t{}\t{}\t{}\t{}\t{own}",
            opt(span.parent),
            span.layer.name(),
            opt(span.tick),
            span.start_ns,
            span.end_ns,
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            tick: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(Layer::Tick, 0, 100, NONE),
            span(Layer::Decode, 10, 30, 0),
            span(Layer::Ingest, 40, 70, 0),
            span(Layer::Encode, 45, 50, 2),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips() {
        let spans = [
            span(Layer::Tick, 0, 100, NONE),
            span(Layer::Decode, 10, 30, 0),
            span(Layer::Ingest, 20, 40, 0),
            span(Layer::Encode, 90, 120, 0),
        ];
        // Children cover [10, 40) and [90, 100): 40 ns of the parent.
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.enter(Layer::Tick, 7);
        tracer.enter(Layer::Decode, 7);
        tracer.exit();
        tracer.enter(Layer::Ingest, 7);
        tracer.exit();
        tracer.exit();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let own = self_times(spans);
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        let mut off = Tracer::new(false);
        off.enter(Layer::Tick, 1);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
