//! Shard workers: the threads that own detector state.
//!
//! Units are independent (paper §IV-D4), so the daemon shards them across
//! long-lived workers by `unit % shards`, each fed from bounded network
//! ingress queues. Each worker owns the [`DbCatcher`] pipelines of its
//! units and drives them through one shared scratch arena, the wiring of
//! [`dbcatcher_core::fleet::score_batch`]; nothing else ever touches
//! them, so no detector state is shared or locked.
//!
//! Durability: when a WAL is configured, every accepted tick is appended
//! to the shard's log *before* detection (see [`crate::wal`]), so a
//! restart — clean, crashed, or a supervisor-replaced worker — replays
//! `snapshot + WAL suffix` and recovers exactly what was accepted.
//!
//! Failure containment goes through a probation lifecycle instead of a
//! one-way degradation: a frame the hardened ingest layer rejects costs
//! the unit a *strike* — the worker substitutes a fully-missing (all-NaN)
//! frame so the detector stays in lockstep with the wire tick counter,
//! and the unit re-earns full health after [`READMIT_AFTER`] clean ticks.
//! [`STRIKE_LIMIT`] strikes hard-degrade the unit until an operator
//! `ResetUnit`. A worker itself never dies to a bad frame; panics and
//! wedges are the supervisor's job ([`crate::supervisor`]).

use crate::metrics::ServerMetrics;
use crate::protocol::Response;
use crate::server::ServerHandle;
use crate::sync::LockRecover;
use crate::wal::{self, PendingFrames, ShardRecovery, WalWriter};
use dbcatcher_core::config::DbCatcherConfig;
use dbcatcher_core::ingest::{GapPolicy, IngestReport};
use dbcatcher_core::pipeline::DbCatcher;
use dbcatcher_core::scratch::TickScratch;
use dbcatcher_core::snapshot::DetectorSnapshot;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Clean ingests a unit on probation needs before it is re-admitted to
/// full health (mirrors `core::ingest`'s clean-streak re-admission).
pub const READMIT_AFTER: u64 = 8;

/// Failed-frame strikes (without an intervening re-admission) that
/// hard-degrade a unit until an operator `ResetUnit`.
pub const STRIKE_LIMIT: u32 = 3;

/// Deterministic kill point for chaos tests.
///
/// Armed with a tick budget and handed to [`crate::server::ServeConfig`],
/// the switch trips on the N-th ingested tick across all units and the
/// daemon dies as if killed mid-tick: the tripping tick's verdicts and
/// snapshot never escape, queued-but-unprocessed ticks are discarded, and
/// no final shutdown snapshots are written. The harness keeps its own
/// `Arc` and reads [`Self::ingested`] afterwards to know exactly how far
/// each unit got. With a WAL configured the tripping tick is already
/// durable, which is what tightens the resume contract from "≤ 1 tick
/// lost" to exactly-once recovery.
#[derive(Debug, Default)]
pub struct CrashSwitch {
    /// Total ingested ticks that trigger the kill; `0` means disarmed.
    after_ticks: u64,
    /// Per-unit ingested-tick counts for this server lifetime.
    counts: Mutex<BTreeMap<usize, u64>>,
    tripped: AtomicBool,
}

impl CrashSwitch {
    /// Arms a switch that kills the daemon on the `after_ticks`-th
    /// ingested tick (counted across all units).
    pub fn armed(after_ticks: u64) -> Arc<Self> {
        Arc::new(Self {
            after_ticks,
            counts: Mutex::new(BTreeMap::new()),
            tripped: AtomicBool::new(false),
        })
    }

    /// Whether the kill has fired.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// Ticks ingested per unit during the crashed server's lifetime
    /// (includes each unit's final, unsnapshotted tick).
    pub fn ingested(&self) -> BTreeMap<usize, u64> {
        self.counts.lock_clean().clone()
    }

    /// Records one ingested tick; returns `true` exactly once, on the
    /// tick that trips the kill.
    fn note_ingest(&self, unit: usize) -> bool {
        let mut counts = self.counts.lock_clean();
        *counts.entry(unit).or_insert(0) += 1;
        let total: u64 = counts.values().sum();
        if self.after_ticks > 0 && total >= self.after_ticks {
            return !self.tripped.swap(true, Ordering::SeqCst);
        }
        false
    }
}

/// Deterministic *shard-failure* injector for supervisor tests: unlike
/// [`CrashSwitch`] (which models the whole process dying) this takes down
/// one worker thread — by panic or by wedging it past the heartbeat
/// deadline — and the daemon is expected to survive.
#[derive(Debug, Default)]
pub struct ShardChaos {
    /// Countdown of tick jobs until an injected panic; `0` is disarmed.
    panic_countdown: AtomicU64,
    /// Countdown of tick jobs until an injected wedge; `0` is disarmed.
    wedge_countdown: AtomicU64,
}

impl ShardChaos {
    /// Arms a panic on the `n`-th tick job processed (across all shards).
    pub fn panic_after(n: u64) -> Arc<Self> {
        Arc::new(Self {
            panic_countdown: AtomicU64::new(n),
            wedge_countdown: AtomicU64::new(0),
        })
    }

    /// Arms a wedge (worker stalls until fenced) on the `n`-th tick job.
    pub fn wedge_after(n: u64) -> Arc<Self> {
        Arc::new(Self {
            panic_countdown: AtomicU64::new(0),
            wedge_countdown: AtomicU64::new(n),
        })
    }

    fn fire(counter: &AtomicU64) -> bool {
        counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .map(|previous| previous == 1)
            .unwrap_or(false)
    }

    pub(crate) fn should_panic(&self) -> bool {
        Self::fire(&self.panic_countdown)
    }

    pub(crate) fn should_wedge(&self) -> bool {
        Self::fire(&self.wedge_countdown)
    }
}

/// Shard heartbeat: the reader side counts enqueued jobs, the worker
/// counts processed ones. The supervisor reads both to detect wedges
/// (backlog without progress) and the server derives the adaptive
/// backpressure hint from the same counters.
#[derive(Debug, Default)]
pub struct ShardBeat {
    enqueued: AtomicU64,
    processed: AtomicU64,
}

impl ShardBeat {
    pub(crate) fn note_enqueued(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_processed(&self) {
        self.processed.fetch_add(1, Ordering::Relaxed);
    }

    /// Monotonic processed-job count (wedge detection).
    pub(crate) fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Jobs enqueued but not yet processed. Saturates at zero across the
    /// counter reset of a worker replacement.
    pub(crate) fn backlog(&self) -> u64 {
        self.enqueued
            .load(Ordering::Relaxed)
            .saturating_sub(self.processed.load(Ordering::Relaxed))
    }

    /// Re-aligns the counters after a worker replacement: jobs lost in
    /// the dead generation's queue will never be processed and must not
    /// read as a permanent backlog.
    pub(crate) fn reset(&self) {
        let processed = self.processed.load(Ordering::Relaxed);
        self.enqueued.store(processed, Ordering::Relaxed);
    }
}

/// Health lifecycle of one unit, as the connection readers see it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) enum UnitHealth {
    /// Accepting ticks, no recent strikes.
    #[default]
    Healthy,
    /// Accepting ticks, but a recent frame failed ingest; counting clean
    /// ticks toward re-admission.
    Probation,
    /// Strike limit reached: ticks are rejected until `ResetUnit`.
    Degraded,
}

impl UnitHealth {
    pub fn is_degraded(&self) -> bool {
        matches!(self, UnitHealth::Degraded)
    }
}

/// Reader-visible state of one unit slot, updated by shard workers on
/// registration/health transitions and by connection readers on every
/// accepted tick. The reader consults it synchronously, so accept/reject
/// replies are ordered with the request stream. `dbs`/`kpis`/
/// `participation` are remembered from `Hello` so the supervisor can
/// rebuild the detector even when no snapshot exists yet.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnitEntry {
    /// A `Hello` has created the detector.
    pub registered: bool,
    /// Next absolute tick the unit accepts.
    pub expected: u64,
    /// Declared databases in the unit.
    pub dbs: usize,
    /// Declared KPIs per database.
    pub kpis: usize,
    /// Declared participation mask, if any.
    pub participation: Option<Vec<Vec<bool>>>,
    /// Probation lifecycle state.
    pub health: UnitHealth,
}

/// Shared unit table, sized to the server's `max_units`.
#[derive(Debug)]
pub(crate) struct Registry {
    entries: Mutex<Vec<UnitEntry>>,
}

impl Registry {
    pub fn new(max_units: usize) -> Self {
        Self {
            entries: Mutex::new(vec![UnitEntry::default(); max_units]),
        }
    }

    pub fn with_entry<R>(&self, unit: usize, f: impl FnOnce(&mut UnitEntry) -> R) -> Option<R> {
        let mut entries = self.entries.lock_clean();
        entries.get_mut(unit).map(f)
    }

    /// Clones the registered entries as `(unit, entry)` pairs — the
    /// supervisor's view of which units a replacement worker must re-own.
    pub fn registered(&self) -> Vec<(usize, UnitEntry)> {
        let entries = self.entries.lock_clean();
        entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.registered)
            .map(|(unit, e)| (unit, e.clone()))
            .collect()
    }
}

/// Work items routed to a shard. Every tick job carries the origin
/// connection's outbound sender so verdicts stream back to the producer.
pub(crate) enum Job {
    Hello {
        unit: usize,
        dbs: usize,
        kpis: usize,
        participation: Option<Vec<Vec<bool>>>,
        reply: Sender<Response>,
    },
    Tick {
        unit: usize,
        tick: u64,
        frame: Vec<Vec<f64>>,
        reply: Sender<Response>,
    },
    Flush {
        unit: usize,
        reply: Sender<Response>,
    },
    Reset {
        unit: usize,
        reply: Sender<Response>,
    },
    Stop,
}

/// Detector-configuration template applied to every unit the daemon
/// creates (the per-unit KPI count comes from `Hello`).
#[derive(Debug, Clone, Default)]
pub struct DetectorTemplate {
    /// Gap-repair policy of the ingest layer.
    pub gap_policy: GapPolicy,
}

impl DetectorTemplate {
    fn config(&self, kpis: usize) -> DbCatcherConfig {
        let mut config = DbCatcherConfig::with_kpis(kpis);
        config.ingest.gap_policy = self.gap_policy;
        config
    }
}

/// Knobs a shard worker needs beyond its job queue.
pub(crate) struct ShardContext {
    pub shard: usize,
    pub template: DetectorTemplate,
    pub snapshot_dir: Option<PathBuf>,
    pub snapshot_every: u64,
    pub resume_dir: Option<PathBuf>,
    /// This shard's WAL directory (`wal_root/shard_{s}`), if durability
    /// is enabled.
    pub wal_dir: Option<PathBuf>,
    /// WAL fsync batching cadence.
    pub fsync_every: u64,
    pub metrics: Arc<ServerMetrics>,
    pub registry: Arc<Registry>,
    pub subscribers: Arc<Mutex<Vec<Sender<Response>>>>,
    /// Artificial per-tick delay — a load-testing / backpressure-test
    /// hook, never set by the CLI defaults.
    pub slow_tick: Option<Duration>,
    /// Deterministic mid-tick kill point (chaos tests only).
    pub crash: Option<Arc<CrashSwitch>>,
    /// Deterministic shard panic/wedge injector (supervisor tests only).
    pub chaos: Option<Arc<ShardChaos>>,
    /// Remote control for the daemon, so a tripping crash switch can take
    /// the whole process down like a real kill would.
    pub handle: ServerHandle,
    /// Heartbeat shared with the supervisor and the backpressure hint.
    pub beat: Arc<ShardBeat>,
    /// Generation fence: set by the supervisor when this worker is
    /// replaced. A fenced worker must stop touching shared state — its
    /// successor owns the shard now.
    pub fence: Arc<AtomicBool>,
}

impl ShardContext {
    /// Whether the simulated kill has fired (always `false` in normal
    /// operation).
    fn crashed(&self) -> bool {
        self.crash.as_ref().is_some_and(|c| c.tripped())
    }

    fn fenced(&self) -> bool {
        self.fence.load(Ordering::Acquire)
    }
}

/// One unit's state inside a worker.
pub(crate) struct UnitSlot {
    pub catcher: DbCatcher,
    pub resumed: bool,
    /// Hard-degraded (strike limit reached).
    pub degraded: bool,
    /// On probation: counting clean ticks toward re-admission. Set by a
    /// strike and by an operator reset (which clears `strikes` but must
    /// still earn back full health).
    pub probation: bool,
    /// Strikes since the last re-admission/reset.
    pub strikes: u32,
    /// Clean ingests since the last strike.
    pub clean: u64,
    pub ticks: u64,
    pub verdicts: u64,
    /// Replayed verdicts waiting for a producer channel: WAL replay can
    /// happen before any connection exists (supervisor restart), so the
    /// worker buffers them and delivers on the unit's next job.
    pub pending_out: Vec<Response>,
}

impl UnitSlot {
    fn new(catcher: DbCatcher, resumed: bool) -> Self {
        Self {
            catcher,
            resumed,
            degraded: false,
            probation: false,
            strikes: 0,
            clean: 0,
            ticks: 0,
            verdicts: 0,
            pending_out: Vec::new(),
        }
    }
}

/// Everything a worker generation starts from: pre-revived unit slots
/// (supervisor restarts) and the recovered WAL state.
pub(crate) struct WorkerSeed {
    pub slots: HashMap<usize, UnitSlot>,
    pub recovery: ShardRecovery,
}

/// Builds the seed for a new worker generation of `ctx.shard`: recovers
/// the shard's WAL and — when `revive` is set — re-owns every registered
/// unit of the shard from `snapshot + WAL suffix`, resetting the
/// registry's expected tick and the unit's in-flight counter to match.
pub(crate) fn build_seed(ctx: &ShardContext, shards: usize, revive: bool) -> WorkerSeed {
    let recovery = match &ctx.wal_dir {
        Some(dir) => match wal::recover_shard(dir) {
            Ok(recovery) => recovery,
            Err(e) => {
                ctx.metrics
                    .record_shard_note(ctx.shard, format!("WAL recovery failed: {e}"));
                ShardRecovery::default()
            }
        },
        None => ShardRecovery::default(),
    };
    if !recovery.diagnostics.is_empty() {
        ctx.metrics
            .record_shard_note(ctx.shard, recovery.diagnostics.join("; "));
    }
    let mut slots = HashMap::new();
    if revive {
        // Seed-time replay arena; the worker generation builds its own
        // long-lived one in `run_worker`.
        let mut scratch = TickScratch::new();
        for (unit, entry) in ctx.registry.registered() {
            if unit % shards != ctx.shard {
                continue;
            }
            let mut slot = revive_unit(ctx, &recovery, unit, &entry);
            replay_pending(ctx, &recovery.pending, &mut slot, unit, false, &mut scratch);
            let next_tick = slot.catcher.next_tick();
            ctx.registry.with_entry(unit, |e| e.expected = next_tick);
            ctx.metrics.reset_queue(unit);
            slots.insert(unit, slot);
        }
    }
    WorkerSeed { slots, recovery }
}

/// Rebuilds one unit's detector for a replacement worker: from its
/// snapshot when one exists, else fresh from the `Hello` parameters the
/// registry remembered (WAL replay then brings it forward).
fn revive_unit(
    ctx: &ShardContext,
    _recovery: &ShardRecovery,
    unit: usize,
    entry: &UnitEntry,
) -> UnitSlot {
    let resumed = ctx
        .resume_dir
        .as_deref()
        .or(ctx.snapshot_dir.as_deref())
        .and_then(|dir| try_resume(dir, unit, entry.dbs, entry.kpis, &ctx.metrics));
    let mut slot = match resumed {
        Some(catcher) => UnitSlot::new(catcher, true),
        None => {
            let config = ctx.template.config(entry.kpis);
            let catcher = match DbCatcher::try_new(config, entry.dbs) {
                Ok(mut c) => {
                    if let Some(mask) = entry.participation.clone() {
                        c = c.with_participation(mask);
                    }
                    c
                }
                Err(e) => {
                    // Registered shape no longer constructs a detector —
                    // should be impossible; degrade the unit loudly.
                    ctx.metrics
                        .record_degraded(unit, format!("revive failed: {e}"));
                    ctx.registry
                        .with_entry(unit, |e| e.health = UnitHealth::Degraded);
                    let fallback = DbCatcher::new(DbCatcherConfig::with_kpis(1), 1);
                    let mut slot = UnitSlot::new(fallback, false);
                    slot.degraded = true;
                    return slot;
                }
            };
            UnitSlot::new(catcher, false)
        }
    };
    slot.degraded = entry.health.is_degraded();
    slot.probation = matches!(entry.health, UnitHealth::Probation);
    slot
}

fn snapshot_path(dir: &Path, unit: usize) -> PathBuf {
    dir.join(format!("unit_{unit}.json"))
}

/// Writes the unit snapshot atomically (tmp + rename), so a crash mid-write
/// never corrupts the resume state.
fn persist_snapshot(dir: &Path, unit: usize, catcher: &DbCatcher) -> Result<(), String> {
    let json = catcher
        .snapshot()
        .to_json()
        .map_err(|e| format!("serialize snapshot: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let tmp = dir.join(format!("unit_{unit}.json.tmp"));
    std::fs::write(&tmp, json).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    let path = snapshot_path(dir, unit);
    std::fs::rename(&tmp, &path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

/// Attempts a warm restore; `None` (fresh start) when no snapshot exists
/// or it mismatches the declared unit shape.
fn try_resume(
    dir: &Path,
    unit: usize,
    dbs: usize,
    kpis: usize,
    metrics: &ServerMetrics,
) -> Option<DbCatcher> {
    let path = snapshot_path(dir, unit);
    let json = std::fs::read_to_string(&path).ok()?;
    let snapshot = match DetectorSnapshot::from_json(&json) {
        Ok(s) => s,
        Err(e) => {
            metrics.record_error(unit, format!("unreadable snapshot {}: {e}", path.display()));
            return None;
        }
    };
    if snapshot.num_dbs != dbs || snapshot.config.num_kpis != kpis {
        metrics.record_error(
            unit,
            format!(
                "snapshot {} mismatches Hello({dbs} dbs, {kpis} kpis)",
                path.display()
            ),
        );
        return None;
    }
    match DbCatcher::try_restore(snapshot) {
        Ok(catcher) => Some(catcher),
        Err(e) => {
            metrics.record_error(unit, format!("invalid snapshot {}: {e}", path.display()));
            None
        }
    }
}

/// Takes the response by value: subscribers get clones, the producing
/// connection receives the original — zero clones when nobody subscribes.
fn fan_out(
    response: Response,
    reply: &Sender<Response>,
    subscribers: &Mutex<Vec<Sender<Response>>>,
) {
    {
        let mut subs = subscribers.lock_clean();
        subs.retain(|s| s.send(response.clone()).is_ok());
    }
    let _ = reply.send(response);
}

/// Flushes a unit's buffered replay verdicts onto the producer channel
/// (and subscribers) — called on the unit's next job after a replay.
fn deliver_pending(
    slot: &mut UnitSlot,
    reply: &Sender<Response>,
    subscribers: &Mutex<Vec<Sender<Response>>>,
) {
    for response in slot.pending_out.drain(..) {
        fan_out(response, reply, subscribers);
    }
}

/// Mutable per-generation worker state.
struct WorkerState {
    slots: HashMap<usize, UnitSlot>,
    /// WAL frames recovered at startup, replayed lazily at `Hello` for
    /// units the seed did not pre-revive.
    pending: PendingFrames,
    wal: Option<WalWriter>,
    /// One scratch arena shared by every unit this worker owns: batched
    /// scoring reuses the same pooled buffers across units, so per-tick
    /// setup (and its allocations) amortises over the whole shard.
    scratch: TickScratch,
}

pub(crate) fn run_worker(ctx: ShardContext, jobs: Receiver<Job>, seed: WorkerSeed) {
    let wal = match (&ctx.wal_dir, &seed.recovery) {
        (Some(dir), recovery) => match WalWriter::open(dir, ctx.fsync_every, recovery) {
            Ok(writer) => Some(writer),
            Err(e) => {
                ctx.metrics
                    .record_shard_note(ctx.shard, format!("WAL disabled: {e}"));
                None
            }
        },
        (None, _) => None,
    };
    let mut state = WorkerState {
        slots: seed.slots,
        pending: seed.recovery.pending,
        wal,
        scratch: TickScratch::new(),
    };
    while let Ok(job) = jobs.recv() {
        if ctx.fenced() {
            // A replacement generation owns the shard; drop everything
            // (including final snapshots — the successor's state wins).
            return;
        }
        if ctx.crashed() {
            // Simulated kill: everything still queued is discarded exactly
            // as a real crash would drop it. Only `Stop` is honoured so the
            // pool can join the worker.
            if matches!(job, Job::Stop) {
                break;
            }
            ctx.beat.note_processed();
            continue;
        }
        match job {
            Job::Hello {
                unit,
                dbs,
                kpis,
                participation,
                reply,
            } => {
                handle_hello(&ctx, &mut state, unit, dbs, kpis, participation, &reply);
            }
            Job::Tick {
                unit,
                tick,
                frame,
                reply,
            } => {
                handle_tick(&ctx, &mut state, unit, tick, frame, &reply);
                ctx.metrics.release_slot(unit);
            }
            Job::Flush { unit, reply } => {
                let response = match state.slots.get_mut(&unit) {
                    Some(slot) => {
                        deliver_pending(slot, &reply, &ctx.subscribers);
                        Response::FlushAck {
                            unit,
                            ticks_ingested: slot.ticks,
                            verdicts: slot.verdicts,
                            next_tick: slot.catcher.next_tick(),
                        }
                    }
                    None => Response::Error {
                        message: format!("flush for unregistered unit {unit}"),
                    },
                };
                let _ = reply.send(response);
            }
            Job::Reset { unit, reply } => {
                handle_reset(&ctx, &mut state, unit, &reply);
            }
            Job::Stop => break,
        }
        ctx.beat.note_processed();
        if ctx.fenced() {
            return;
        }
    }
    // Final snapshots on clean shutdown: the daemon restarts warm even
    // when the last periodic snapshot is stale. A crashed daemon gets no
    // such courtesy — resume state is whatever the periodic snapshots
    // already persisted (plus the WAL, which has everything).
    if ctx.crashed() || ctx.fenced() {
        return;
    }
    if let Some(dir) = &ctx.snapshot_dir {
        for (unit, slot) in &state.slots {
            if slot.ticks > 0 {
                match persist_snapshot(dir, *unit, &slot.catcher) {
                    Ok(()) => {
                        if let Some(wal) = state.wal.as_mut() {
                            wal.note_floor(*unit, slot.catcher.next_tick());
                        }
                    }
                    Err(e) => ctx.metrics.record_snapshot_error(*unit, e),
                }
            }
        }
    }
    if let Some(wal) = state.wal.as_mut() {
        if let Err(e) = wal.sync() {
            ctx.metrics
                .record_shard_note(ctx.shard, format!("WAL final sync: {e}"));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_hello(
    ctx: &ShardContext,
    state: &mut WorkerState,
    unit: usize,
    dbs: usize,
    kpis: usize,
    participation: Option<Vec<Vec<bool>>>,
    reply: &Sender<Response>,
) {
    if let Some(slot) = state.slots.get_mut(&unit) {
        // Re-attach (e.g. a producer reconnecting): the state stands.
        let _ = reply.send(Response::HelloAck {
            unit,
            next_tick: slot.catcher.next_tick(),
            resumed: slot.resumed,
        });
        deliver_pending(slot, reply, &ctx.subscribers);
        return;
    }
    if let Some(mask) = &participation {
        let arity_ok = mask.len() == kpis && mask.iter().all(|row| row.len() == dbs);
        if !arity_ok {
            let _ = reply.send(Response::Error {
                message: format!("participation mask mismatches {kpis} KPIs x {dbs} databases"),
            });
            return;
        }
    }
    let (catcher, resumed) = match ctx
        .resume_dir
        .as_deref()
        .and_then(|dir| try_resume(dir, unit, dbs, kpis, &ctx.metrics))
    {
        Some(catcher) => (catcher, true),
        None => {
            let config = ctx.template.config(kpis);
            match DbCatcher::try_new(config, dbs) {
                Ok(mut c) => {
                    if let Some(mask) = participation.clone() {
                        c = c.with_participation(mask);
                    }
                    (c, false)
                }
                Err(e) => {
                    let _ = reply.send(Response::Error {
                        message: format!("cannot create detector for unit {unit}: {e}"),
                    });
                    return;
                }
            }
        }
    };
    let mut slot = UnitSlot::new(catcher, resumed);
    // Bring the unit forward through the WAL suffix: ticks accepted (and
    // acknowledged) by a previous incarnation that never made a snapshot.
    // Their verdicts are buffered and delivered right after the ack.
    replay_pending(
        ctx,
        &state.pending,
        &mut slot,
        unit,
        true,
        &mut state.scratch,
    );
    let next_tick = slot.catcher.next_tick();
    ctx.metrics.register_unit(unit, ctx.shard);
    // A restored snapshot can carry demoted databases; reflect them in
    // stats immediately instead of waiting for the next health event.
    let non_voting = slot.catcher.non_voting();
    if !non_voting.is_empty() {
        ctx.metrics.record_demoted(unit, non_voting);
    }
    ctx.registry.with_entry(unit, |entry| {
        entry.registered = true;
        entry.expected = next_tick;
        entry.dbs = dbs;
        entry.kpis = kpis;
        entry.participation = participation;
        entry.health = UnitHealth::Healthy;
    });
    let resumed = slot.resumed;
    let _ = reply.send(Response::HelloAck {
        unit,
        next_tick,
        resumed,
    });
    deliver_pending(&mut slot, reply, &ctx.subscribers);
    state.slots.insert(unit, slot);
}

/// Replays a unit's contiguous WAL suffix into its detector. Verdicts
/// are buffered on the slot (`pending_out`); `count_metrics` is set for
/// Hello-time replay (the ticks were counted by a *previous boot*) and
/// clear for supervisor restarts (they were already counted this boot).
/// A non-contiguous suffix — only possible after corrupt segments were
/// discarded — stops the replay loudly at the gap.
fn replay_pending(
    ctx: &ShardContext,
    pending: &PendingFrames,
    slot: &mut UnitSlot,
    unit: usize,
    count_metrics: bool,
    scratch: &mut TickScratch,
) {
    let Some(ticks) = pending.get(&unit) else {
        return;
    };
    let mut next = slot.catcher.next_tick();
    let start = next;
    while let Some(frame) = ticks.get(&next) {
        // dbclint: allow(determinism) — per-tick latency metric only; never feeds detection state or verdicts
        let started = Instant::now();
        let report = ingest_with_probation(ctx, slot, unit, next, frame, None, scratch);
        let Some(report) = report else {
            break; // hard degraded mid-replay; recorded inside
        };
        if count_metrics {
            let nanos = started.elapsed().as_nanos();
            ctx.metrics.record_tick(unit, nanos);
            ctx.metrics.record_shard_tick(ctx.shard, nanos);
        }
        slot.ticks += 1;
        if !report.demoted.is_empty() || !report.readmitted.is_empty() {
            ctx.metrics.record_demoted(unit, slot.catcher.non_voting());
        }
        let (mut healthy, mut abnormal) = (0u64, 0u64);
        for verdict in report.verdicts {
            if verdict.state.is_abnormal() {
                abnormal += 1;
            } else {
                healthy += 1;
            }
            slot.pending_out.push(Response::Verdict {
                unit,
                at_tick: next,
                verdict,
            });
        }
        slot.verdicts += healthy + abnormal;
        if count_metrics && healthy + abnormal > 0 {
            ctx.metrics.record_verdicts(unit, healthy, abnormal);
        }
        next += 1;
    }
    if let Some((&max, _)) = ticks.iter().next_back() {
        if max >= next && !slot.degraded {
            ctx.metrics.record_error(
                unit,
                format!(
                    "WAL replay for unit {unit} stopped at tick {next} (records up to {max} \
                     unreachable past a gap); the producer must resend from {next}"
                ),
            );
        }
    }
    if next > start {
        slot.resumed = true;
    }
}

/// Ingests one frame under the probation lifecycle. A frame the ingest
/// layer rejects is replaced by a fully-missing (all-NaN) frame — which
/// gap repair treats as one lost collection interval — so the detector
/// position stays in lockstep with the wire tick counter. Returns `None`
/// only when the unit hard-degrades (strike limit, or even the
/// substitute failing). `reply` carries the strike diagnostics when a
/// producer is attached; replay passes `None`.
#[allow(clippy::too_many_arguments)]
fn ingest_with_probation(
    ctx: &ShardContext,
    slot: &mut UnitSlot,
    unit: usize,
    tick: u64,
    frame: &[Vec<f64>],
    reply: Option<&Sender<Response>>,
    scratch: &mut TickScratch,
) -> Option<IngestReport> {
    match slot.catcher.try_ingest_tick_with(frame, scratch) {
        Ok(report) => {
            if slot.probation {
                slot.clean += 1;
                if slot.clean >= READMIT_AFTER {
                    slot.probation = false;
                    slot.strikes = 0;
                    slot.clean = 0;
                    ctx.registry
                        .with_entry(unit, |e| e.health = UnitHealth::Healthy);
                    ctx.metrics.record_readmitted(unit);
                }
            }
            Some(report)
        }
        Err(e) => {
            let dbs = slot.catcher.num_databases();
            let kpis = slot.catcher.config().num_kpis;
            let substitute = vec![vec![f64::NAN; kpis]; dbs];
            match slot.catcher.try_ingest_tick_with(&substitute, scratch) {
                Ok(report) => {
                    slot.probation = true;
                    slot.strikes += 1;
                    slot.clean = 0;
                    if slot.strikes >= STRIKE_LIMIT {
                        slot.degraded = true;
                        ctx.registry
                            .with_entry(unit, |e| e.health = UnitHealth::Degraded);
                        ctx.metrics.record_degraded(
                            unit,
                            format!("tick {tick}: {e} (strike {}/{STRIKE_LIMIT})", slot.strikes),
                        );
                        if let Some(reply) = reply {
                            let _ = reply.send(Response::Error {
                                message: format!(
                                    "unit {unit} degraded at tick {tick}: {e} \
                                     (strike limit reached; send ResetUnit to re-admit)"
                                ),
                            });
                        }
                    } else {
                        ctx.registry
                            .with_entry(unit, |e| e.health = UnitHealth::Probation);
                        ctx.metrics
                            .record_strike(unit, slot.strikes, format!("tick {tick}: {e}"));
                        if let Some(reply) = reply {
                            let _ = reply.send(Response::Error {
                                message: format!(
                                    "unit {unit} tick {tick} failed ingest ({e}); substituted a \
                                     missing frame, strike {}/{STRIKE_LIMIT}",
                                    slot.strikes
                                ),
                            });
                        }
                    }
                    Some(report)
                }
                Err(fatal) => {
                    slot.degraded = true;
                    ctx.registry
                        .with_entry(unit, |e| e.health = UnitHealth::Degraded);
                    ctx.metrics
                        .record_degraded(unit, format!("tick {tick}: {e}; substitute: {fatal}"));
                    if let Some(reply) = reply {
                        let _ = reply.send(Response::Error {
                            message: format!("unit {unit} degraded at tick {tick}: {e}"),
                        });
                    }
                    None
                }
            }
        }
    }
}

fn handle_tick(
    ctx: &ShardContext,
    state: &mut WorkerState,
    unit: usize,
    tick: u64,
    frame: Vec<Vec<f64>>,
    reply: &Sender<Response>,
) {
    let Some(slot) = state.slots.get_mut(&unit) else {
        let _ = reply.send(Response::Error {
            message: format!("tick for unregistered unit {unit}"),
        });
        return;
    };
    if slot.degraded {
        return; // reader already rejects; drain anything in flight
    }
    deliver_pending(slot, reply, &ctx.subscribers);
    if tick != slot.catcher.next_tick() {
        // Only reachable across a supervisor-restart race window; the
        // reader's expected tick was rewound, so the producer will be
        // rejected into a rewind and resend this range in order.
        ctx.metrics.record_error(
            unit,
            format!(
                "dropped stale tick {tick} (detector at {}); producer rewind in progress",
                slot.catcher.next_tick()
            ),
        );
        return;
    }
    if let Some(pause) = ctx.slow_tick {
        // dbclint: allow(determinism) — chaos knob: configured slow-tick stall; affects timing only, never verdict bytes
        std::thread::sleep(pause);
    }
    if let Some(chaos) = &ctx.chaos {
        if chaos.should_wedge() {
            // Injected wedge: stall (pre-WAL, so the job is simply lost)
            // until the supervisor fences this generation.
            while !ctx.fenced() {
                // dbclint: allow(determinism) — chaos hook: injected wedge stalls until the supervisor fences this generation
                std::thread::sleep(Duration::from_millis(2));
            }
            return;
        }
    }
    // Durable point: the accepted tick reaches the log before detection,
    // so nothing past this line can lose it.
    if let Some(wal) = state.wal.as_mut() {
        if let Err(e) = wal.append(unit, tick, &frame) {
            ctx.metrics
                .record_wal_error(unit, format!("WAL append tick {tick}: {e}"));
        }
    }
    // dbclint: allow(determinism) — per-tick latency metric only; never feeds detection state or verdicts
    let started = Instant::now();
    let Some(report) = ingest_with_probation(
        ctx,
        slot,
        unit,
        tick,
        &frame,
        Some(reply),
        &mut state.scratch,
    ) else {
        return;
    };
    if let Some(crash) = &ctx.crash {
        // The kill point sits between ingestion and everything
        // downstream (verdict fan-out, snapshot persist): a tick the
        // detector consumed but the world never saw. With a WAL the tick
        // is already durable, so resume replays it instead of losing it.
        let tripping = crash.note_ingest(unit);
        if tripping {
            ctx.handle.stop();
        }
        if crash.tripped() {
            return;
        }
    }
    let nanos = started.elapsed().as_nanos();
    ctx.metrics.record_tick(unit, nanos);
    ctx.metrics.record_shard_tick(ctx.shard, nanos);
    slot.ticks += 1;
    if let Some(chaos) = &ctx.chaos {
        if chaos.should_panic() {
            // Injected worker death *after* the tick is durable and
            // counted but before its verdicts escape — the worst case the
            // supervisor's snapshot+WAL re-own has to cover.
            // dbclint: allow(panic-free) — deliberate chaos-injection worker death (env hook); exercises supervisor panic containment
            panic!(
                "injected shard panic (test hook): shard {} tick {tick}",
                ctx.shard
            );
        }
    }
    if !report.demoted.is_empty() || !report.readmitted.is_empty() {
        ctx.metrics.record_demoted(unit, slot.catcher.non_voting());
    }
    let (mut healthy, mut abnormal) = (0u64, 0u64);
    for verdict in report.verdicts {
        if verdict.state.is_abnormal() {
            abnormal += 1;
        } else {
            healthy += 1;
        }
        fan_out(
            Response::Verdict {
                unit,
                at_tick: tick,
                verdict,
            },
            reply,
            &ctx.subscribers,
        );
    }
    slot.verdicts += healthy + abnormal;
    if healthy + abnormal > 0 {
        ctx.metrics.record_verdicts(unit, healthy, abnormal);
    }
    if let Some(dir) = &ctx.snapshot_dir {
        let every = ctx.snapshot_every.max(1);
        if slot.catcher.next_tick() % every == 0 {
            match persist_snapshot(dir, unit, &slot.catcher) {
                Ok(()) => {
                    if let Some(wal) = state.wal.as_mut() {
                        wal.note_floor(unit, slot.catcher.next_tick());
                    }
                }
                Err(e) => ctx.metrics.record_snapshot_error(unit, e),
            }
        }
    }
}

fn handle_reset(
    ctx: &ShardContext,
    state: &mut WorkerState,
    unit: usize,
    reply: &Sender<Response>,
) {
    let Some(slot) = state.slots.get_mut(&unit) else {
        let _ = reply.send(Response::Error {
            message: format!("reset for unregistered unit {unit}"),
        });
        return;
    };
    slot.degraded = false;
    slot.probation = true;
    slot.strikes = 0;
    slot.clean = 0;
    let next_tick = slot.catcher.next_tick();
    ctx.registry.with_entry(unit, |e| {
        e.health = UnitHealth::Probation;
        e.expected = next_tick;
    });
    ctx.metrics.record_reset(unit);
    deliver_pending(slot, reply, &ctx.subscribers);
    let _ = reply.send(Response::ResetAck { unit, next_tick });
}
