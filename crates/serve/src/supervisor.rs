//! Shard supervision: keeps detector workers alive across panics and
//! wedges.
//!
//! Each shard seat owns the current worker generation: its job channel,
//! its heartbeat, and a *generation fence*. The monitor thread polls the
//! seats and replaces a generation that has died (its thread finished
//! outside shutdown — a panic) or wedged (jobs queued but the processed
//! counter stalled past the deadline). A replacement is rebuilt
//! synchronously from `snapshot + WAL suffix` (see [`crate::shard::build_seed`])
//! before it takes the seat, so the registry's expected ticks and the
//! detector positions always agree by the time producers are re-admitted.
//!
//! The restart ordering is the load-bearing part. While a seat is
//! `restarting`, connection readers reject ticks with a backpressure
//! hint — checked *inside* the registry critical section, so the
//! registry mutex orders it against the seed's expected-tick resets:
//! any reader that can observe a reset expected tick also observes
//! `restarting` and rejects. Ticks accepted before the fence but never
//! processed are recovered by the client's out-of-order rewind — the
//! reset expected tick sits at the recovered detector position, below
//! anything that was lost, so the producer resends the gap in order.
//! With a WAL the replay itself loses nothing; without one the rewind
//! still re-feeds the detector from its last snapshot.
//!
//! A seat that exhausts `restart_limit` is marked failed: its units are
//! hard-degraded (the readers reject with `Degraded`), the failure is
//! visible in [`crate::metrics::ShardStatus`], and the rest of the
//! daemon keeps serving.

use crate::metrics::ServerMetrics;
use crate::server::ServerHandle;
use crate::shard::{build_seed, run_worker, Job, Registry, ShardBeat, ShardContext, UnitHealth};
use crate::sync::LockRecover;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Monitor poll cadence.
const MONITOR_POLL: Duration = Duration::from_millis(25);

/// How long control-plane jobs (`Hello`/`Flush`/`Reset`) keep retrying
/// a mid-swap shard channel before giving up.
const SEND_DEADLINE: Duration = Duration::from_secs(5);

/// How long a clean shutdown waits for a worker before fencing and
/// abandoning it.
const STOP_DEADLINE: Duration = Duration::from_secs(10);

type Factory = Box<dyn Fn(usize, Arc<ShardBeat>, Arc<AtomicBool>) -> ShardContext + Send + Sync>;

struct WorkerCell {
    handle: JoinHandle<()>,
    fence: Arc<AtomicBool>,
}

/// One shard's seat: whatever generation currently owns the shard.
struct Seat {
    sender: Mutex<Sender<Job>>,
    beat: Arc<ShardBeat>,
    cell: Mutex<Option<WorkerCell>>,
    restarts: AtomicU32,
    restarting: AtomicBool,
    failed: AtomicBool,
}

pub(crate) struct ShardSupervisor {
    shards: usize,
    /// Jobs a shard may hold at once: `units_per_shard × queue_cap` tick
    /// slots plus control-plane headroom. The per-unit slot reservation
    /// enforces it, so the job channel itself is unbounded; this is only
    /// the scale of the backpressure retry hint.
    channel_cap: usize,
    restart_limit: u32,
    wedge_timeout: Duration,
    factory: Factory,
    registry: Arc<Registry>,
    metrics: Arc<ServerMetrics>,
    handle: ServerHandle,
    seats: Vec<Seat>,
    stopping: AtomicBool,
    monitor: Mutex<Option<JoinHandle<()>>>,
}

impl ShardSupervisor {
    /// Spawns the initial worker generation per shard plus the monitor
    /// thread.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        shards: usize,
        max_units: usize,
        queue_cap: usize,
        restart_limit: u32,
        wedge_timeout: Duration,
        registry: Arc<Registry>,
        metrics: Arc<ServerMetrics>,
        handle: ServerHandle,
        factory: impl Fn(usize, Arc<ShardBeat>, Arc<AtomicBool>) -> ShardContext + Send + Sync + 'static,
    ) -> Arc<Self> {
        let factory: Factory = Box::new(factory);
        let channel_cap = max_units.div_ceil(shards) * queue_cap + 8;
        let mut seats = Vec::with_capacity(shards);
        for shard in 0..shards {
            let beat = Arc::new(ShardBeat::default());
            let (sender, cell) = Self::launch(&factory, shard, shards, Arc::clone(&beat), false);
            seats.push(Seat {
                sender: Mutex::new(sender),
                beat,
                cell: Mutex::new(Some(cell)),
                restarts: AtomicU32::new(0),
                restarting: AtomicBool::new(false),
                failed: AtomicBool::new(false),
            });
        }
        let supervisor = Arc::new(Self {
            shards,
            channel_cap,
            restart_limit,
            wedge_timeout,
            factory,
            registry,
            metrics,
            handle,
            seats,
            stopping: AtomicBool::new(false),
            monitor: Mutex::new(None),
        });
        let monitor_ref = Arc::clone(&supervisor);
        let monitor = std::thread::Builder::new()
            .name("dbcatcher-supervisor".into())
            .spawn(move || monitor_ref.monitor_loop())
            // dbclint: allow(panic-free) — OS thread-spawn failure at daemon boot is unrecoverable; fail loud
            .expect("spawn shard supervisor");
        *supervisor.monitor.lock_clean() = Some(monitor);
        supervisor
    }

    /// Builds one worker generation: context, recovered seed, channel,
    /// thread. `revive` re-owns the shard's registered units (restarts).
    fn launch(
        factory: &Factory,
        shard: usize,
        shards: usize,
        beat: Arc<ShardBeat>,
        revive: bool,
    ) -> (Sender<Job>, WorkerCell) {
        let fence = Arc::new(AtomicBool::new(false));
        let ctx = factory(shard, beat, Arc::clone(&fence));
        let seed = build_seed(&ctx, shards, revive);
        let (sender, receiver) = channel();
        let handle = std::thread::Builder::new()
            .name(format!("dbcatcher-shard-{shard}"))
            .spawn(move || run_worker(ctx, receiver, seed))
            // dbclint: allow(panic-free) — OS thread-spawn failure has no graceful recovery; fail loud
            .expect("spawn shard worker");
        (sender, WorkerCell { handle, fence })
    }

    fn seat(&self, unit: usize) -> &Seat {
        &self.seats[unit % self.shards]
    }

    /// Whether the unit's shard currently accepts new ticks. Readers
    /// must consult this *inside* the registry critical section — the
    /// registry mutex is what orders it against restart-time expected
    /// resets.
    pub fn accepting(&self, unit: usize) -> bool {
        let seat = self.seat(unit);
        !seat.failed.load(Ordering::SeqCst) && !seat.restarting.load(Ordering::SeqCst)
    }

    /// Queue-depth-proportional backpressure hint: an idle shard says
    /// "retry almost immediately", a saturated one backs producers off
    /// up to the configured base.
    pub fn retry_hint(&self, unit: usize, base: u64) -> u64 {
        let backlog = self.seat(unit).beat.backlog();
        ((base * backlog) / self.channel_cap as u64).clamp(1, base.max(1))
    }

    /// Enqueues a tick job without blocking; it fails only while a dead
    /// generation's channel is being swapped out, and the caller maps
    /// that to a backpressure rejection.
    pub fn try_send_tick(&self, unit: usize, job: Job) -> Result<(), ()> {
        let seat = self.seat(unit);
        let result = {
            let sender = seat.sender.lock_clean();
            sender.send(job)
        };
        match result {
            Ok(()) => {
                seat.beat.note_enqueued();
                Ok(())
            }
            Err(_) => Err(()),
        }
    }

    /// Enqueues a control-plane job, retrying across generation swaps for
    /// up to [`SEND_DEADLINE`].
    pub fn send(&self, unit: usize, job: Job) -> Result<(), ()> {
        let seat = self.seat(unit);
        let deadline = Instant::now() + SEND_DEADLINE;
        let mut job = job;
        loop {
            if seat.failed.load(Ordering::SeqCst) {
                return Err(());
            }
            let result = {
                let sender = seat.sender.lock_clean();
                sender.send(job)
            };
            match result {
                Ok(()) => {
                    seat.beat.note_enqueued();
                    return Ok(());
                }
                Err(returned) => job = returned.0,
            }
            if Instant::now() >= deadline {
                return Err(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn monitor_loop(self: Arc<Self>) {
        let now = Instant::now();
        let mut progress: Vec<(u64, Instant)> = self
            .seats
            .iter()
            .map(|s| (s.beat.processed(), now))
            .collect();
        while !self.stopping.load(Ordering::SeqCst) && !self.handle.stopping() {
            std::thread::sleep(MONITOR_POLL);
            for (shard, seen) in progress.iter_mut().enumerate().take(self.shards) {
                let seat = &self.seats[shard];
                if seat.failed.load(Ordering::SeqCst) {
                    continue;
                }
                if self.stopping.load(Ordering::SeqCst) || self.handle.stopping() {
                    return;
                }
                let finished = seat
                    .cell
                    .lock_clean()
                    .as_ref()
                    .is_some_and(|c| c.handle.is_finished());
                if finished {
                    self.replace(shard, None);
                    *seen = (seat.beat.processed(), Instant::now());
                    continue;
                }
                let processed = seat.beat.processed();
                if processed != seen.0 || seat.beat.backlog() == 0 {
                    *seen = (processed, Instant::now());
                } else if seen.1.elapsed() >= self.wedge_timeout {
                    let stalled = format!(
                        "wedged: {} jobs queued, no progress for {:?}",
                        seat.beat.backlog(),
                        self.wedge_timeout
                    );
                    self.replace(shard, Some(stalled));
                    *seen = (seat.beat.processed(), Instant::now());
                }
            }
        }
    }

    /// Replaces the worker generation of `shard` (or fails the shard when
    /// the restart budget is spent). `wedge` carries the stall diagnostic
    /// when the old generation is stuck rather than dead.
    fn replace(&self, shard: usize, wedge: Option<String>) {
        let seat = &self.seats[shard];
        // Gate new accepts for the whole swap window. This store is
        // sequenced before the seed's registry writes, so the registry
        // mutex makes it visible to any reader that could see a reset
        // expected tick.
        seat.restarting.store(true, Ordering::SeqCst);
        let old = seat.cell.lock_clean().take();
        if let Some(cell) = &old {
            cell.fence.store(true, Ordering::SeqCst);
        }
        let reason = match &wedge {
            Some(stall) => {
                // A wedged worker is still running; fencing it is all we
                // can do — it exits at its next fence poll. Joining here
                // could block the monitor, so the handle is dropped.
                drop(old);
                stall.clone()
            }
            None => old
                .map(|cell| match cell.handle.join() {
                    Err(payload) => panic_message(payload.as_ref()),
                    Ok(()) => "worker exited unexpectedly".to_string(),
                })
                .unwrap_or_else(|| "worker missing".to_string()),
        };
        let attempt = seat.restarts.fetch_add(1, Ordering::SeqCst) + 1;
        if attempt > self.restart_limit {
            seat.failed.store(true, Ordering::SeqCst);
            seat.restarting.store(false, Ordering::SeqCst);
            self.metrics.record_shard_failed(
                shard,
                format!("restart limit ({}) exhausted: {reason}", self.restart_limit),
            );
            for (unit, _) in self.registry.registered() {
                if unit % self.shards == shard {
                    self.registry
                        .with_entry(unit, |e| e.health = UnitHealth::Degraded);
                    self.metrics
                        .record_degraded(unit, format!("shard {shard} failed: {reason}"));
                }
            }
            return;
        }
        // Rebuild synchronously: `build_seed(revive=true)` restores every
        // registered unit of this shard from snapshot + WAL suffix and
        // resets the registry expected ticks to the recovered positions.
        let (sender, cell) = Self::launch(
            &self.factory,
            shard,
            self.shards,
            Arc::clone(&seat.beat),
            true,
        );
        // Swapping drops the old generation's sender; a fenced-but-alive
        // worker blocked on `recv` wakes on the disconnect and exits.
        *seat.sender.lock_clean() = sender;
        seat.beat.reset();
        *seat.cell.lock_clean() = Some(cell);
        seat.restarting.store(false, Ordering::SeqCst);
        self.metrics
            .record_shard_restart(shard, wedge.is_some(), reason);
    }

    /// Clean shutdown: stop the monitor, drain the workers via `Stop`
    /// jobs (final snapshots + WAL sync happen in the workers), fence and
    /// abandon anything that will not finish.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.lock_clean().take() {
            let _ = monitor.join();
        }
        for seat in &self.seats {
            // A disconnected channel means the generation is already gone.
            let _ = seat.sender.lock_clean().send(Job::Stop);
        }
        for seat in &self.seats {
            let Some(cell) = seat.cell.lock_clean().take() else {
                continue;
            };
            let deadline = Instant::now() + STOP_DEADLINE;
            while !cell.handle.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if cell.handle.is_finished() {
                let _ = cell.handle.join();
            } else {
                // Wedged past the deadline: fence it (skips final
                // snapshots) and leave the thread to die with the process.
                cell.fence.store(true, Ordering::SeqCst);
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: (non-string payload)".to_string()
    }
}
