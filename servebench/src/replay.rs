//! The single-threaded replay: the generated Tick lines pushed through
//! each layer's public functions in the order a shard calls them —
//! decode → WAL → ingest → encode → hierarchy → snapshot.
//!
//! With the tracer off and only decode/ingest/encode enabled it is the
//! offline reference the daemon's verdicts are checked against. With
//! every layer enabled it is the single-threaded baseline of the same
//! job, and with the tracer on it yields the per-layer budget. A layer
//! the workload's daemon bypasses still runs, but only for its first
//! [`PROBE_CALLS`] calls: enough to time one call, not enough to count
//! in the workload's per-tick sum.

use crate::plan::{Item, Lines, Workload, SNAPSHOT_EVERY};
use crate::trace::{Layer, Tracer, NONE};
use dbcatcher_core::config::DbCatcherConfig;
use dbcatcher_core::pipeline::DbCatcher;
use dbcatcher_core::scratch::TickScratch;
use dbcatcher_core::snapshot::DetectorSnapshot;
use dbcatcher_hierarchy::{
    parse_unit_line, render_unit_line, FleetReplay, HierarchyConfig, Topology, UnitVerdict,
};
use dbcatcher_serve::protocol::{decode_request, encode, Request, Response};
use dbcatcher_serve::wal::{self, ShardRecovery, WalWriter};
use dbcatcher_workload::UnitData;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Calls a bypassed layer gets in a traced run.
pub const PROBE_CALLS: u64 = 256;

/// Rollup topology of `serve --hierarchy` (its defaults).
pub const UNITS_PER_CLUSTER: usize = 4;
/// See [`UNITS_PER_CLUSTER`].
pub const CLUSTERS_PER_REGION: usize = 4;

/// WAL fsync cadence of `serve` (`--fsync-every` default).
const FSYNC_EVERY: u64 = 8;

/// Verdict identity used to deduplicate and compare streams.
pub type Key = (usize, u64, usize, u64);

/// Which layers run, and whether bypassed ones are probed. No workload
/// turns on the WAL, snapshots or the hierarchy journal, so those run
/// only as probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layers {
    /// Hierarchy observe + drain.
    pub hierarchy: bool,
    /// Run bypassed layers for [`PROBE_CALLS`] calls, and time recovery.
    pub probes: bool,
}

impl Layers {
    /// Decode, ingest and encode only: the offline reference.
    pub const REFERENCE: Layers = Layers {
        hierarchy: false,
        probes: false,
    };

    /// The layers `w`'s daemon runs, with every other layer probed.
    pub fn of(w: &Workload) -> Layers {
        Layers {
            hierarchy: w.hierarchy,
            probes: true,
        }
    }

    /// Whether the daemon of this layer set runs `layer` on every tick.
    pub fn active(&self, layer: Layer) -> bool {
        match layer {
            Layer::Decode | Layer::Ingest | Layer::Encode => true,
            Layer::Hierarchy => self.hierarchy,
            _ => false,
        }
    }
}

/// Admission of one optional layer: always when active, otherwise for
/// the first [`PROBE_CALLS`] calls of a probing run.
#[derive(Debug)]
struct Gate {
    active: bool,
    probes: bool,
    calls: u64,
}

impl Gate {
    fn new(active: bool, probes: bool) -> Self {
        Gate {
            active,
            probes,
            calls: 0,
        }
    }

    fn open(&mut self) -> bool {
        let go = self.active || (self.probes && self.calls < PROBE_CALLS);
        if go {
            self.calls += 1;
        }
        go
    }
}

/// The replay's inputs.
#[derive(Debug)]
pub struct Input<'a> {
    /// Unit recordings (geometry and participation masks).
    pub units: &'a [UnitData],
    /// Warm-up then timed phase: lines and their schedule items.
    pub phases: [(&'a Lines, &'a [Item]); 2],
    /// Scratch directory for the WAL, snapshots and journal (wiped).
    pub dir: &'a Path,
}

/// Per-tick facts the spans do not carry.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickNote {
    /// The tick belongs to the timed phase.
    pub timed: bool,
    /// Some window was judged on this tick.
    pub judging: bool,
    /// Correlation time `DbCatcher::timing()` added on this tick.
    pub correlation_ns: u64,
    /// Verdicts resolved.
    pub verdicts: u32,
    /// Window expansions of those verdicts.
    pub expansions: u32,
    /// Bytes of the Tick line, newline included.
    pub in_bytes: u32,
    /// Bytes of the encoded ack and verdicts, newlines included.
    pub out_bytes: u32,
}

/// What a replay produced.
#[derive(Debug)]
pub struct Replay {
    /// Encoded `Verdict` line of every verdict, by identity.
    pub verdicts: BTreeMap<Key, String>,
    /// Every verdict as the hierarchy sees it, in replay order.
    pub records: Vec<UnitVerdict>,
    /// One note per replayed tick, by replay sequence number.
    pub notes: Vec<TickNote>,
    /// Wall time of the whole replay.
    pub wall_ns: u64,
    /// Scope verdicts drained from the hierarchy engine.
    pub scope_verdicts: u64,
    /// Bytes of one WAL record.
    pub wal_record_bytes: u64,
    /// Snapshot JSON bytes written, summed.
    pub snapshot_bytes: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// WAL-suffix ticks re-ingested by the recovery probe.
    pub replay_ticks: u64,
    /// The spans (empty when the tracer was off).
    pub tracer: Tracer,
}

/// Replays `input` through `layers`.
pub fn run(input: &Input, layers: Layers, tracer: Tracer) -> Result<Replay, String> {
    let dir = input.dir;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let started = Instant::now();
    let mut state = State::new(input, layers, tracer)?;
    for (phase, (lines, items)) in input.phases.iter().enumerate() {
        for (i, item) in items.iter().enumerate() {
            state.tick(lines.line(i), phase == 1, *item)?;
        }
    }
    // Recovery over whatever the probes wrote.
    if layers.probes {
        state.recover()?;
    }
    let State { mut out, .. } = state;
    out.wall_ns = started.elapsed().as_nanos() as u64;
    Ok(out)
}

struct State<'a> {
    input: &'a Input<'a>,
    catchers: Vec<DbCatcher>,
    scratch: TickScratch,
    wal_gate: Gate,
    snapshot_gate: Gate,
    hierarchy_gate: Gate,
    journal_gate: Gate,
    wal: Option<WalWriter>,
    journal: Option<BufWriter<File>>,
    fleet: FleetReplay,
    topology: Topology,
    out: Replay,
}

impl<'a> State<'a> {
    fn new(input: &'a Input<'a>, layers: Layers, mut tracer: Tracer) -> Result<Self, String> {
        let mut catchers = Vec::with_capacity(input.units.len());
        for data in input.units {
            tracer.enter(Layer::Hello, NONE);
            let catcher = new_catcher(data)?;
            tracer.exit();
            catchers.push(catcher);
        }
        let topology = Topology::new(input.units.len(), UNITS_PER_CLUSTER, CLUSTERS_PER_REGION)
            .map_err(|e| format!("topology: {e}"))?;
        let ticks: usize = input.phases.iter().map(|(_, items)| items.len()).sum();
        Ok(State {
            input,
            catchers,
            scratch: TickScratch::new(),
            wal_gate: Gate::new(false, layers.probes),
            snapshot_gate: Gate::new(false, layers.probes),
            hierarchy_gate: Gate::new(layers.hierarchy, layers.probes),
            journal_gate: Gate::new(false, layers.probes),
            wal: None,
            journal: None,
            fleet: FleetReplay::new(HierarchyConfig::new(topology.clone())),
            topology,
            out: Replay {
                verdicts: BTreeMap::new(),
                records: Vec::new(),
                notes: Vec::with_capacity(ticks),
                wall_ns: 0,
                scope_verdicts: 0,
                wal_record_bytes: 0,
                snapshot_bytes: 0,
                snapshots: 0,
                replay_ticks: 0,
                tracer,
            },
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.input.dir.join(name)
    }

    fn tick(&mut self, line: &[u8], timed: bool, item: Item) -> Result<(), String> {
        let seq = self.out.notes.len() as u32;
        let mut note = TickNote {
            timed,
            in_bytes: line.len() as u32 + 1,
            ..TickNote::default()
        };
        let tracer = &mut self.out.tracer;
        tracer.enter(Layer::Tick, seq);

        tracer.enter(Layer::Decode, seq);
        let text = std::str::from_utf8(line).map_err(|e| format!("tick line: {e}"))?;
        let request = decode_request(text).map_err(|e| format!("decode tick: {e}"))?;
        tracer.exit();
        let Request::Tick { unit, tick, frame } = request else {
            return Err(format!("line {seq} is not a Tick"));
        };
        if (unit, tick) != (item.unit as usize, u64::from(item.tick)) {
            return Err(format!("line {seq} carries unit {unit} tick {tick}"));
        }

        if self.wal_gate.open() {
            if self.wal.is_none() {
                let writer = WalWriter::open(
                    &self.input.dir.join("wal"),
                    FSYNC_EVERY,
                    &ShardRecovery::default(),
                )
                .map_err(|e| format!("open WAL: {e}"))?;
                self.wal = Some(writer);
                self.out.wal_record_bytes = wal::encode_record(unit, tick, &frame).len() as u64;
            }
            let writer = self.wal.as_mut().expect("opened above");
            tracer.enter(Layer::Wal, seq);
            writer
                .append(unit, tick, &frame)
                .map_err(|e| format!("WAL append: {e}"))?;
            tracer.exit();
        }

        let catcher = &mut self.catchers[unit];
        tracer.enter(Layer::Ingest, seq);
        let before = catcher.timing();
        let report = catcher
            .try_ingest_tick_with(&frame, &mut self.scratch)
            .map_err(|e| format!("unit {unit} tick {tick}: {e}"))?;
        let after = catcher.timing();
        tracer.exit();
        note.judging =
            after.correlation + after.observation > before.correlation + before.observation;
        note.correlation_ns = (after.correlation - before.correlation).as_nanos() as u64;

        tracer.enter(Layer::Encode, seq);
        let ack = encode(&Response::Accepted { unit, tick });
        let mut out_bytes = ack.len() + 1;
        let mut encoded = Vec::with_capacity(report.verdicts.len());
        for verdict in report.verdicts {
            let response = Response::Verdict {
                unit,
                at_tick: tick,
                verdict,
            };
            let line = encode(&response);
            out_bytes += line.len() + 1;
            let Response::Verdict { verdict, .. } = response else {
                unreachable!("built as a Verdict above");
            };
            encoded.push((verdict, line));
        }
        tracer.exit();
        note.out_bytes = out_bytes as u32;

        for (verdict, line) in encoded {
            note.verdicts += 1;
            note.expansions += verdict.expansions;
            let key = (unit, tick, verdict.db, verdict.start_tick);
            let record = UnitVerdict {
                unit,
                at_tick: tick,
                verdict,
            };
            if self.journal_gate.open() {
                if self.journal.is_none() {
                    let file = File::create(self.input.dir.join("hierarchy.wal"))
                        .map_err(|e| format!("create journal: {e}"))?;
                    self.journal = Some(BufWriter::new(file));
                }
                let journal = self.journal.as_mut().expect("opened above");
                tracer.enter(Layer::Journal, seq);
                let text = render_unit_line(&record);
                journal
                    .write_all(text.as_bytes())
                    .and_then(|()| journal.write_all(b"\n"))
                    .and_then(|()| journal.flush())
                    .map_err(|e| format!("journal append: {e}"))?;
                tracer.exit();
            }
            if self.hierarchy_gate.open() {
                let copy = record.clone();
                tracer.enter(Layer::Hierarchy, seq);
                self.fleet.observe(copy);
                let drained = self.fleet.engine_mut().map_or(0, |e| e.drain().len());
                tracer.exit();
                self.out.scope_verdicts += drained as u64;
            }
            self.out.verdicts.insert(key, line);
            self.out.records.push(record);
        }

        let catcher = &self.catchers[unit];
        if catcher.next_tick().is_multiple_of(SNAPSHOT_EVERY) && self.snapshot_gate.open() {
            let dir = self.input.dir.join("snaps");
            tracer.enter(Layer::Snapshot, seq);
            let bytes = persist_snapshot(&dir, unit, catcher)?;
            tracer.exit();
            self.out.snapshot_bytes += bytes;
            self.out.snapshots += 1;
        }
        tracer.exit();
        self.out.notes.push(note);
        Ok(())
    }

    /// Recovery as a restarted daemon does it: read the WAL, restore
    /// each unit's snapshot, re-ingest the WAL suffix above it, replay
    /// the hierarchy journal.
    fn recover(&mut self) -> Result<(), String> {
        if let Some(writer) = self.wal.as_mut() {
            writer.sync().map_err(|e| format!("WAL sync: {e}"))?;
        }
        if let Some(journal) = self.journal.as_mut() {
            journal.flush().map_err(|e| format!("journal flush: {e}"))?;
        }
        let snaps = self.path("snaps");
        let journal = self.path("hierarchy.wal");
        let tracer = &mut self.out.tracer;
        tracer.enter(Layer::WalRecover, NONE);
        let recovery = wal::recover_shard(&self.input.dir.join("wal"))
            .map_err(|e| format!("WAL recovery: {e}"))?;
        tracer.exit();
        let mut units: BTreeSet<usize> = recovery.pending.keys().copied().collect();
        for unit in 0..self.input.units.len() {
            if snapshot_path(&snaps, unit).exists() {
                units.insert(unit);
            }
        }
        for unit in units {
            let data = &self.input.units[unit];
            let path = snapshot_path(&snaps, unit);
            let mut catcher = if path.exists() {
                tracer.enter(Layer::SnapshotRestore, NONE);
                let json = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let snapshot = DetectorSnapshot::from_json(&json)
                    .map_err(|e| format!("parse {}: {e}", path.display()))?;
                let catcher = DbCatcher::try_restore(snapshot)
                    .map_err(|e| format!("restore {}: {e}", path.display()))?;
                tracer.exit();
                catcher
            } else {
                new_catcher(data)?
            };
            if let Some(frames) = recovery.pending.get(&unit) {
                tracer.enter(Layer::SuffixReplay, NONE);
                let mut next = catcher.next_tick();
                while let Some(frame) = frames.get(&next) {
                    catcher
                        .try_ingest_tick_with(frame, &mut self.scratch)
                        .map_err(|e| format!("replay unit {unit} tick {next}: {e}"))?;
                    next += 1;
                    self.out.replay_ticks += 1;
                }
                tracer.exit();
            }
        }
        if journal.exists() {
            tracer.enter(Layer::JournalReplay, NONE);
            let text =
                std::fs::read_to_string(&journal).map_err(|e| format!("read journal: {e}"))?;
            let mut replay = FleetReplay::new(HierarchyConfig::new(self.topology.clone()));
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                replay.observe(parse_unit_line(line)?);
            }
            tracer.exit();
        }
        Ok(())
    }
}

/// A fresh detector for `data`, as the daemon builds one on `Hello`.
fn new_catcher(data: &UnitData) -> Result<DbCatcher, String> {
    Ok(DbCatcher::try_new(
        DbCatcherConfig::with_kpis(data.num_kpis()),
        data.num_databases(),
    )
    .map_err(|e| format!("detector config: {e}"))?
    .with_participation(data.participation.clone()))
}

fn snapshot_path(dir: &Path, unit: usize) -> PathBuf {
    dir.join(format!("unit_{unit}.json"))
}

/// The daemon's snapshot write: serialise, write a temporary file,
/// rename it into place. Returns the JSON size.
fn persist_snapshot(dir: &Path, unit: usize, catcher: &DbCatcher) -> Result<u64, String> {
    let json = catcher
        .snapshot()
        .to_json()
        .map_err(|e| format!("serialise snapshot: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let tmp = dir.join(format!("unit_{unit}.json.tmp"));
    std::fs::write(&tmp, &json).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, snapshot_path(dir, unit)).map_err(|e| format!("rename snapshot: {e}"))?;
    Ok(json.len() as u64)
}
