//! The fleet-scope hierarchy feed: daemon-side wiring of
//! [`dbcatcher_hierarchy::FleetEngine`].
//!
//! A single feed thread registers itself as an internal subscriber of the
//! verdict broadcast, so every per-unit verdict a shard fans out also
//! reaches the hierarchy engine — same channel discipline as external
//! subscribers, no new hooks in the shard hot path. For each verdict the
//! feed:
//!
//! 1. appends the [`UnitVerdict`] as one JSONL line to
//!    `wal_dir/hierarchy.wal` (flushed per line, *before* the engine sees
//!    it) — the hierarchy WAL doubles as the `analyze-fleet` input, which
//!    is what makes the online/offline byte-identity checkable;
//! 2. feeds the engine and broadcasts every emitted
//!    [`Response::ScopeVerdict`] to the subscribers.
//!
//! On startup the feed replays an existing hierarchy WAL (without
//! flushing), so a restarted daemon resumes scope state exactly where the
//! log left it, and cuts off a torn tail (a last line without its `\n`)
//! before appending; duplicate verdicts re-emitted by the unit-WAL replay
//! are deduplicated inside the engine. On clean shutdown the engine is
//! flushed and the full scope-verdict history is rewritten to the
//! configured `scope_out` file; a (simulated) crash skips both, exactly
//! like a real kill would.

use crate::metrics::ServerMetrics;
use crate::protocol::Response;
use crate::shard::CrashSwitch;
use crate::sync::LockRecover;
use dbcatcher_hierarchy::{
    parse_unit_line, render_scope_line, render_unit_line, FleetReplay, HierarchyConfig,
    ScopeVerdict, Topology, UnitVerdict,
};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// File name of the hierarchy WAL inside the daemon's `--wal-dir`.
pub const HIERARCHY_WAL_FILE: &str = "hierarchy.wal";

/// Operator-facing hierarchy knobs (`dbcatcher serve --hierarchy`).
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyOptions {
    /// Units per cluster in the rollup topology.
    pub units_per_cluster: usize,
    /// Clusters per region in the rollup topology.
    pub clusters_per_region: usize,
    /// Where the scope-verdict stream is written on clean shutdown
    /// (rewritten whole, so a resumed daemon's file equals an offline
    /// replay of the full hierarchy WAL).
    pub scope_out: Option<PathBuf>,
}

impl Default for HierarchyOptions {
    fn default() -> Self {
        Self {
            units_per_cluster: 4,
            clusters_per_region: 4,
            scope_out: None,
        }
    }
}

/// Everything the feed thread needs from the server.
pub(crate) struct FeedContext {
    pub options: HierarchyOptions,
    pub max_units: usize,
    pub wal_dir: Option<PathBuf>,
    pub metrics: Arc<ServerMetrics>,
    pub subscribers: Arc<Mutex<Vec<Sender<Response>>>>,
    pub crash: Option<Arc<CrashSwitch>>,
}

/// Handle of the running feed thread; joined by the server after the
/// subscriber list is cleared (which closes the feed's channel).
pub(crate) struct HierarchyFeed {
    handle: std::thread::JoinHandle<()>,
}

impl HierarchyFeed {
    pub fn join(self) {
        let _ = self.handle.join();
    }
}

/// Spawns the feed thread and registers it on the verdict broadcast.
pub(crate) fn spawn(ctx: FeedContext) -> HierarchyFeed {
    let (tx, rx) = channel::<Response>();
    ctx.subscribers.lock_clean().push(tx);
    let handle = std::thread::Builder::new()
        .name("dbcatcher-hierarchy".into())
        .spawn(move || run_feed(rx, ctx))
        // dbclint: allow(panic-free) — OS thread-spawn failure has no graceful recovery; fail loud at startup
        .expect("spawn hierarchy feed");
    HierarchyFeed { handle }
}

fn run_feed(rx: Receiver<Response>, ctx: FeedContext) {
    let topology = match Topology::new(
        ctx.max_units,
        ctx.options.units_per_cluster,
        ctx.options.clusters_per_region,
    ) {
        Ok(t) => t,
        Err(e) => {
            ctx.metrics
                .record_shard_note(0, format!("hierarchy disabled: {e}"));
            // Drain the channel so fan-out sends keep succeeding.
            while rx.recv().is_ok() {}
            return;
        }
    };
    ctx.metrics.record_hierarchy_enabled();
    let config = HierarchyConfig::new(topology);
    let mut replay = FleetReplay::new(config);
    let mut history: Vec<ScopeVerdict> = Vec::new();
    let wal_path = ctx.wal_dir.as_ref().map(|d| d.join(HIERARCHY_WAL_FILE));

    // Resume: replay the hierarchy WAL a previous incarnation appended.
    // No flush — buffered ticks stay buffered so the live stream
    // continues them, keeping the final output equal to one offline
    // replay of the whole log.
    if let Some(path) = &wal_path {
        if let Err(e) = replay_journal(path, &mut replay) {
            ctx.metrics
                .record_shard_note(0, format!("hierarchy WAL resume: {e}"));
        }
        publish(&mut replay, &mut history, &ctx);
    }

    let mut wal = wal_path.as_ref().and_then(|path| {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match OpenOptions::new().create(true).append(true).open(path) {
            Ok(file) => Some(BufWriter::new(file)),
            Err(e) => {
                ctx.metrics
                    .record_shard_note(0, format!("hierarchy WAL disabled: {e}"));
                None
            }
        }
    });

    while let Ok(response) = rx.recv() {
        let Response::Verdict {
            unit,
            at_tick,
            verdict,
        } = response
        else {
            continue; // our own ScopeVerdict echoes, control frames
        };
        let record = UnitVerdict {
            unit,
            at_tick,
            verdict,
        };
        // Durable point: the verdict reaches the hierarchy WAL before the
        // engine can act on it, so a crash never loses an observed line.
        if let Some(writer) = wal.as_mut() {
            let line = render_unit_line(&record);
            if writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .is_err()
            {
                ctx.metrics
                    .record_wal_error(record.unit, "hierarchy WAL append failed".into());
            }
        }
        replay.observe(record);
        publish(&mut replay, &mut history, &ctx);
    }

    // Channel closed: daemon is going down. A (simulated) crash gets no
    // flush and no scope file — resume recovers from the WAL instead.
    if ctx.crash.as_ref().is_some_and(|c| c.tripped()) {
        return;
    }
    if let Some(engine) = replay.engine_mut() {
        engine.flush();
    }
    publish(&mut replay, &mut history, &ctx);
    if let Some(path) = &ctx.options.scope_out {
        if let Err(e) = write_scope_file(path, &history) {
            ctx.metrics
                .record_shard_note(0, format!("scope output failed: {e}"));
        }
    }
}

/// Replays every newline-terminated record of the journal at `path`, then
/// truncates the torn tail a crash mid-append leaves after the last `\n`,
/// so the next append starts its own line instead of gluing onto the
/// fragment. Malformed lines are skipped, as `analyze-fleet` does. A
/// missing journal is an empty one.
fn replay_journal(path: &Path, replay: &mut FleetReplay) -> std::io::Result<()> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let mut reader = BufReader::new(file);
    let mut line = Vec::new();
    let mut complete = 0u64;
    loop {
        line.clear();
        let read = reader.read_until(b'\n', &mut line)?;
        if read == 0 {
            return Ok(());
        }
        if line.last() != Some(&b'\n') {
            break;
        }
        complete += read as u64;
        if let Ok(record) = parse_unit_line(String::from_utf8_lossy(&line).trim_end()) {
            replay.observe(record);
        }
    }
    OpenOptions::new().write(true).open(path)?.set_len(complete)
}

/// Drains newly emitted scope verdicts: metrics, subscriber broadcast,
/// history append.
fn publish(replay: &mut FleetReplay, history: &mut Vec<ScopeVerdict>, ctx: &FeedContext) {
    let Some(engine) = replay.engine_mut() else {
        return;
    };
    let emitted = engine.drain();
    if emitted.is_empty() {
        return;
    }
    ctx.metrics
        .record_scope_verdicts(emitted.len() as u64, engine.alarms_active() as u64);
    {
        let mut subs = ctx.subscribers.lock_clean();
        for sv in &emitted {
            subs.retain(|s| s.send(Response::ScopeVerdict(sv.clone())).is_ok());
        }
    }
    history.extend(emitted);
}

/// Rewrites the scope-verdict file atomically (tmp + rename).
fn write_scope_file(path: &Path, history: &[ScopeVerdict]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("tmp");
    {
        let mut writer = BufWriter::new(File::create(&tmp)?);
        for sv in history {
            writer.write_all(render_scope_line(sv).as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcatcher_core::{DbState, Verdict};
    use dbcatcher_hierarchy::replay;

    /// An abnormal verdict of unit 0's database 0 resolving at `at_tick`.
    fn abnormal(at_tick: u64) -> UnitVerdict {
        UnitVerdict {
            unit: 0,
            at_tick,
            verdict: Verdict {
                db: 0,
                start_tick: at_tick - 19,
                end_tick: at_tick + 1,
                state: DbState::Abnormal,
                window_size: 20,
                expansions: 0,
                scores: vec![0.05, 0.05],
            },
        }
    }

    /// One feed incarnation over `dir`: resume from the journal there,
    /// observe `fed`, then stop cleanly, which writes `scope.jsonl`.
    fn run_incarnation(dir: &Path, fed: &[UnitVerdict]) {
        let (tx, rx) = channel();
        for record in fed {
            tx.send(Response::Verdict {
                unit: record.unit,
                at_tick: record.at_tick,
                verdict: record.verdict.clone(),
            })
            .expect("feed channel open");
        }
        drop(tx);
        run_feed(
            rx,
            FeedContext {
                options: HierarchyOptions {
                    units_per_cluster: 1,
                    clusters_per_region: 1,
                    scope_out: Some(dir.join("scope.jsonl")),
                },
                max_units: 1,
                wal_dir: Some(dir.to_path_buf()),
                metrics: Arc::new(ServerMetrics::new(1, 1)),
                subscribers: Arc::new(Mutex::new(Vec::new())),
                crash: None,
            },
        );
    }

    #[test]
    fn torn_journal_tail_does_not_swallow_the_next_verdict() {
        let dir =
            std::env::temp_dir().join(format!("dbcatcher_torn_journal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let journal = dir.join(HIERARCHY_WAL_FILE);
        let kept = abnormal(20);
        let fed = abnormal(21);
        // A crash mid-append left half a line with no trailing newline.
        let torn = render_unit_line(&abnormal(30));
        std::fs::write(
            &journal,
            format!("{}\n{}", render_unit_line(&kept), &torn[..torn.len() / 2]),
        )
        .expect("seed journal");

        run_incarnation(&dir, std::slice::from_ref(&fed));
        assert_eq!(
            std::fs::read_to_string(&journal).expect("journal"),
            format!("{}\n{}\n", render_unit_line(&kept), render_unit_line(&fed)),
            "the fed verdict must start its own line"
        );

        // Resume again with nothing new: the scope stream of the clean
        // stop replays both records. Two abnormal ticks raise the alarm;
        // the kept record alone would not.
        run_incarnation(&dir, &[]);
        let config = HierarchyConfig::new(Topology::new(1, 1, 1).expect("topology"));
        let want: String = replay(config, [kept, fed])
            .iter()
            .map(|sv| render_scope_line(sv) + "\n")
            .collect();
        assert!(want.contains("\"Alarm\""), "{want}");
        assert_eq!(
            std::fs::read_to_string(dir.join("scope.jsonl")).expect("scope file"),
            want
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
