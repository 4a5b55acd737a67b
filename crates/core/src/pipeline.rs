//! The streaming detection pipeline (paper Fig. 6).
//!
//! [`DbCatcher`] wires the data-processing queues, the correlation
//! measurement, the level quantisation and the flexible-window state
//! machine into an online detector: call [`DbCatcher::ingest_tick`] once
//! per 5-second monitoring frame and collect the final verdicts it emits.
//!
//! Per-component wall-clock accounting ([`ComponentTiming`]) reproduces
//! the paper's §IV-D4 breakdown (correlation measurement ≈ 70 % of the
//! online cost, window observation ≈ 30 %).

use crate::config::{ConfigError, CorrelationBackend, DbCatcherConfig};
use crate::ingest::{IngestError, IngestReport, TelemetryHealth};
use crate::kcd::kcd_normalized;
use crate::kcd_incremental::pair_score;
use crate::levels::{aggregate_scores, level_row};
use crate::queues::KpiQueues;
use crate::scratch::{BatchEntry, TickScratch};
use crate::state::{determine_state, DbState};
use crate::window::{WindowAction, WindowTracker};
use dbcatcher_signal::normalize::min_max_in_place;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// A final (healthy/abnormal) judgement of one database over one window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Database index within the unit.
    pub db: usize,
    /// First tick of the judged window.
    pub start_tick: u64,
    /// One past the last tick of the judged window.
    pub end_tick: u64,
    /// The resolved state — never [`DbState::Observable`].
    pub state: DbState,
    /// Final window size in ticks.
    pub window_size: usize,
    /// How many times the window expanded before resolving.
    pub expansions: u32,
    /// Aggregated per-KPI correlation scores that produced the verdict
    /// (`NaN` where the database does not participate). These are the
    /// "judgment records" the adaptive threshold learner re-plays.
    pub scores: Vec<f64>,
}

/// Accumulated per-component wall-clock time (paper §IV-D4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentTiming {
    /// Time spent computing KCD scores / correlation matrices.
    pub correlation: Duration,
    /// Time spent on window observation (levels, state, bookkeeping).
    pub observation: Duration,
}

/// The online detector for one database unit.
#[derive(Debug, Clone)]
pub struct DbCatcher {
    config: DbCatcherConfig,
    num_dbs: usize,
    queues: KpiQueues,
    trackers: Vec<WindowTracker>,
    /// Telemetry health ledger (gap repair, staleness, non-voting state).
    health: TelemetryHealth,
    /// Reusable per-tick buffers; not part of the persisted state.
    scratch: TickScratch,
    timing: ComponentTiming,
    window_size_sum: u64,
    verdict_count: u64,
}

impl DbCatcher {
    /// Creates a detector for a unit of `num_dbs` databases.
    ///
    /// # Panics
    /// Panics when [`Self::try_new`] would return an error.
    pub fn new(config: DbCatcherConfig, num_dbs: usize) -> Self {
        // dbclint: allow(panic-free) — documented panicking wrapper; try_new is the fallible form.
        Self::try_new(config, num_dbs).expect("invalid DbCatcher configuration")
    }

    /// Fallible constructor: validates the configuration instead of
    /// panicking.
    ///
    /// # Errors
    /// The first [`ConfigError`] found, including [`ConfigError::NoDatabases`]
    /// for an empty unit.
    pub fn try_new(config: DbCatcherConfig, num_dbs: usize) -> Result<Self, ConfigError> {
        config.validate()?;
        if num_dbs == 0 {
            return Err(ConfigError::NoDatabases);
        }
        let capacity = config.max_window * 2 + config.initial_window;
        let queues = KpiQueues::new(num_dbs, config.num_kpis, capacity);
        let trackers = (0..num_dbs)
            .map(|_| WindowTracker::new(0, config.initial_window))
            // dbclint: allow(hot-path-alloc) — one-time tracker allocation at construction.
            .collect();
        let health = TelemetryHealth::new(num_dbs, config.num_kpis);
        Ok(Self {
            config,
            num_dbs,
            queues,
            trackers,
            health,
            scratch: TickScratch::new(),
            timing: ComponentTiming::default(),
            window_size_sum: 0,
            verdict_count: 0,
        })
    }

    /// Installs a participation mask (`mask[kpi][db]`, Table II
    /// semantics).
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn with_participation(mut self, mask: Vec<Vec<bool>>) -> Self {
        assert_eq!(mask.len(), self.config.num_kpis, "mask KPI arity mismatch");
        for row in &mask {
            assert_eq!(row.len(), self.num_dbs, "mask database arity mismatch");
        }
        self.config.participation = Some(mask);
        self
    }

    /// Current configuration (the feedback module reads thresholds here).
    pub fn config(&self) -> &DbCatcherConfig {
        &self.config
    }

    /// Replaces the learned thresholds (α, θ, N) at runtime.
    pub fn set_genes(&mut self, genes: &crate::ga::Genes) {
        self.config.apply_genes(genes);
    }

    /// Number of databases monitored.
    pub fn num_databases(&self) -> usize {
        self.num_dbs
    }

    /// Next absolute tick the detector expects — equal to the number of
    /// ticks ingested since creation, and preserved across
    /// snapshot/restore. Online front-ends use this to resume a stream
    /// exactly where the detector left off.
    pub fn next_tick(&self) -> u64 {
        self.queues.next_tick()
    }

    /// Per-component timing accumulated so far.
    pub fn timing(&self) -> ComponentTiming {
        self.timing
    }

    /// Total verdicts emitted so far.
    pub fn verdict_count(&self) -> u64 {
        self.verdict_count
    }

    /// The telemetry health ledger: repair counters, staleness, voting
    /// state.
    pub fn health(&self) -> &TelemetryHealth {
        &self.health
    }

    /// Databases currently demoted to non-voting, ascending.
    pub fn non_voting(&self) -> Vec<usize> {
        self.health.non_voting()
    }

    /// Internal: queue state (snapshot support).
    pub(crate) fn queues_ref(&self) -> &crate::queues::KpiQueues {
        &self.queues
    }

    /// Internal: tracker state (snapshot support).
    pub(crate) fn trackers_ref(&self) -> &[crate::window::WindowTracker] {
        &self.trackers
    }

    /// Internal: raw window-size accumulator (snapshot support).
    pub(crate) fn window_size_sum_raw(&self) -> u64 {
        self.window_size_sum
    }

    /// Internal: rebuilds a detector from persisted parts (snapshot
    /// support). Timing accumulators restart at zero — wall-clock
    /// accounting is per-process.
    pub(crate) fn from_parts(
        config: crate::config::DbCatcherConfig,
        num_dbs: usize,
        queues: crate::queues::KpiQueues,
        trackers: Vec<crate::window::WindowTracker>,
        health: TelemetryHealth,
        window_size_sum: u64,
        verdict_count: u64,
    ) -> Self {
        Self {
            config,
            num_dbs,
            queues,
            trackers,
            health,
            scratch: TickScratch::new(),
            timing: ComponentTiming::default(),
            window_size_sum,
            verdict_count,
        }
    }

    /// Mean final window size over all verdicts (the paper's Window-Size
    /// efficiency metric).
    pub fn average_window_size(&self) -> f64 {
        if self.verdict_count == 0 {
            return 0.0;
        }
        self.window_size_sum as f64 / self.verdict_count as f64
    }

    /// Ingests one monitoring frame (`frame[db][kpi]`) and returns the
    /// verdicts that became final at this tick.
    ///
    /// # Panics
    /// Panics when [`Self::try_ingest_tick`] would return an error.
    pub fn ingest_tick(&mut self, frame: &[Vec<f64>]) -> Vec<Verdict> {
        match self.try_ingest_tick(frame) {
            Ok(report) => report.verdicts,
            // dbclint: allow(panic-free) — documented panicking wrapper; try_ingest_tick is the fallible form.
            Err(e) => panic!("frame rejected: {e}"),
        }
    }

    /// Ingests one monitoring frame without panicking: the frame shape is
    /// validated, non-finite samples are repaired by the configured
    /// [`crate::ingest::GapPolicy`], and the telemetry health ledger
    /// (staleness, non-voting demotion / re-admission) is updated before
    /// any window is judged.
    ///
    /// # Errors
    /// [`IngestError::FrameArity`] / [`IngestError::KpiArity`] on shape
    /// mismatch — the frame is rejected whole and the detector state is
    /// untouched. [`IngestError::WindowUnavailable`] signals an internal
    /// retention inconsistency (never expected with a validated
    /// configuration).
    pub fn try_ingest_tick(&mut self, frame: &[Vec<f64>]) -> Result<IngestReport, IngestError> {
        // Swap the owned arena out so the shared-arena entry point below
        // is the single implementation (both swaps are plain moves and
        // the `Default` placeholder buffers are empty — no allocation).
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.try_ingest_tick_with(frame, &mut scratch);
        self.scratch = scratch;
        result
    }

    /// [`Self::try_ingest_tick`] staging through a caller-owned
    /// [`TickScratch`] arena — the batch entry point. A shard or fleet
    /// worker that owns many detectors drives them all through one arena
    /// per thread ([`crate::fleet::score_batch`]), so the pooled batch
    /// matrices, staging buffers and score vectors stay warm across the
    /// whole batch instead of per unit.
    ///
    /// # Errors
    /// Same contract as [`Self::try_ingest_tick`].
    pub fn try_ingest_tick_with(
        &mut self,
        frame: &[Vec<f64>],
        scratch: &mut TickScratch,
    ) -> Result<IngestReport, IngestError> {
        if frame.len() != self.num_dbs {
            return Err(IngestError::FrameArity {
                expected: self.num_dbs,
                got: frame.len(),
            });
        }
        for (db, kpis) in frame.iter().enumerate() {
            if kpis.len() != self.config.num_kpis {
                return Err(IngestError::KpiArity {
                    db,
                    expected: self.config.num_kpis,
                    got: kpis.len(),
                });
            }
        }
        let tick = self.queues.next_tick();
        // Sanitize into the reusable staging buffer; the queues then read
        // it by shared borrow — on a clean steady-state tick nothing below
        // allocates.
        let tick_health = self.health.observe_into(
            frame,
            tick,
            &self.config.ingest,
            self.queues.capacity(),
            &mut scratch.sanitized,
        );
        self.queues.push(&scratch.sanitized);
        let next_tick = self.queues.next_tick();
        let mut report = IngestReport {
            repaired: tick_health.repaired,
            stale: tick_health.stale,
            demoted: tick_health.demoted,
            readmitted: tick_health.readmitted,
            ..IngestReport::default()
        };
        // KCD scores are symmetric and window-scoped; when several
        // databases judge the same bounds in one tick, share the work
        // through the scratch memo — the naive backend's pair cache and
        // the incremental backend's pooled batch matrices (both reset
        // each tick, capacity kept — this arena may have just served a
        // different unit of the same shard).
        scratch.pair_cache.clear();
        scratch.batch_used = 0;
        for db in 0..self.num_dbs {
            // A database may resolve several consecutive windows in one
            // tick only if sizes shrank; normally at most one iteration.
            while self.trackers[db].action(next_tick) == WindowAction::Judge {
                match self.judge(db, scratch)? {
                    Some(v) => {
                        self.window_size_sum += v.window_size as u64;
                        self.verdict_count += 1;
                        report.verdicts.push(v);
                    }
                    None => break, // window expanded; wait for data
                }
            }
        }
        Ok(report)
    }

    /// Judges database `db`'s current window. Returns `Ok(None)` when the
    /// state was observable and the window expanded instead of resolving.
    fn judge(
        &mut self,
        db: usize,
        scratch: &mut TickScratch,
    ) -> Result<Option<Verdict>, IngestError> {
        let tracker = self.trackers[db];
        let (start, size) = (tracker.start, tracker.size);

        let t0 = Instant::now();
        let scores = self.aggregated_scores(db, start, size, scratch)?;
        self.timing.correlation += t0.elapsed();

        let t1 = Instant::now();
        let row = level_row(&scores, &self.config.alphas, self.config.theta);
        let state = determine_state(&row, self.config.max_tolerance);

        let resolved = match state {
            DbState::Observable => {
                let step = self.config.expansion_step();
                if self.trackers[db].expand(step, self.config.max_window) {
                    self.timing.observation += t1.elapsed();
                    return Ok(None); // wait for the expanded window to fill
                }
                match self.config.resolve_at_max {
                    crate::config::ResolvePolicy::Abnormal => DbState::Abnormal,
                    crate::config::ResolvePolicy::Healthy => DbState::Healthy,
                }
            }
            final_state => final_state,
        };

        let tracker = self.trackers[db];
        let verdict = Verdict {
            db,
            start_tick: tracker.start,
            end_tick: tracker.end(),
            state: resolved,
            window_size: tracker.size,
            expansions: tracker.expansions,
            scores,
        };
        self.trackers[db].advance(self.config.initial_window);
        self.timing.observation += t1.elapsed();
        Ok(Some(verdict))
    }

    /// Aggregated per-KPI scores of `db` against participating peers over
    /// the window. `NaN` marks KPIs without a vote.
    ///
    /// Participation per `(kpi, d)` combines four gates: the
    /// unused-database rule (paper §III-B, computed into the scratch
    /// mask), the configured Table II mask, the telemetry voting state (a
    /// demoted database contributes to no peer's score) and — under
    /// mark-missing gap repair — a clean window (no repaired sample inside
    /// the judged range).
    ///
    /// Everything transient lives in the [`TickScratch`] arena; only the
    /// returned score vector (owned by the eventual [`Verdict`]) is
    /// allocated here.
    fn aggregated_scores(
        &self,
        db: usize,
        start: u64,
        size: usize,
        scratch: &mut TickScratch,
    ) -> Result<Vec<f64>, IngestError> {
        let Self {
            config,
            num_dbs,
            queues,
            health,
            ..
        } = self;
        let num_dbs = *num_dbs;
        let TickScratch {
            usable,
            own_norm,
            peer_norm,
            pair_scores,
            pair_cache,
            batch,
            batch_used,
            ..
        } = scratch;

        // A database is *usable* in a window when any KPI shows activity
        // above the unused-epsilon (paper §III-B unused-database rule).
        usable.clear();
        usable.extend((0..num_dbs).map(|d| {
            (0..config.num_kpis).any(|k| {
                queues
                    .window_max_abs(d, k, start, size)
                    .map(|m| m > config.unused_epsilon)
                    .unwrap_or(false)
            })
        }));
        let usable: &[bool] = usable;

        let max_delay = config.delay_scan.max_lag(size);
        let mut out = Vec::with_capacity(config.num_kpis);
        for kpi in 0..config.num_kpis {
            let participates = |d: usize| {
                health.is_voting(d)
                    && usable[d]
                    && config
                        .participation
                        .as_ref()
                        .map(|m| m[kpi][d])
                        .unwrap_or(true)
                    && health.window_clean(d, kpi, start, size)
            };
            if !participates(db) {
                out.push(f64::NAN);
                continue;
            }
            if config.backend == CorrelationBackend::Incremental {
                // Batched fast path: all of this tick's judgements over
                // one `(kpi, window)` share a pooled entry. Its miss
                // normalises each participating database's window once,
                // and each pair then runs the kernel sweep at most once
                // per tick via the lazy row fill.
                let key = (kpi, start, size);
                let idx = match (0..*batch_used).find(|&i| batch[i].key == key) {
                    Some(i) => i,
                    None => {
                        if *batch_used == batch.len() {
                            // Pool growth: at most one entry per KPI,
                            // then steady-state reuse of the free list.
                            batch.push(BatchEntry::default());
                        }
                        let i = *batch_used;
                        let entry = &mut batch[i];
                        entry.key = key;
                        entry.mask.clear();
                        entry.mask.extend((0..num_dbs).map(&participates));
                        entry.rows.clear();
                        entry.rows.resize(num_dbs, false);
                        entry.matrix.from_pairwise_into(num_dbs, |_, _| 0.0);
                        if entry.windows.len() < num_dbs {
                            entry.windows.resize_with(num_dbs, Default::default);
                        }
                        for d in 0..num_dbs {
                            if entry.mask[d] {
                                let w = queues.window_slice(d, kpi, start, size).ok_or(
                                    IngestError::WindowUnavailable {
                                        db: d,
                                        kpi,
                                        start,
                                        len: size,
                                    },
                                )?;
                                entry.windows[d].fill(w);
                            }
                        }
                        // Live only once filled: a refused window leaves
                        // the slot on the free list.
                        *batch_used += 1;
                        i
                    }
                };
                let BatchEntry {
                    matrix,
                    mask,
                    rows,
                    windows,
                    ..
                } = &mut batch[idx];
                if !rows[db] {
                    rows[db] = true;
                    for peer in 0..num_dbs {
                        // A peer whose own row is filled already holds
                        // the symmetric entry — skip the recompute.
                        if peer != db && mask[peer] && !rows[peer] {
                            matrix.set(
                                db,
                                peer,
                                pair_score(&windows[db], &windows[peer], max_delay),
                            );
                        }
                    }
                }
                pair_scores.clear();
                for peer in 0..num_dbs {
                    if peer != db && mask[peer] {
                        pair_scores.push(matrix.get(db, peer));
                    }
                }
                out.push(aggregate_scores(pair_scores, config.aggregation).unwrap_or(f64::NAN));
                continue;
            }
            // Naive path (the differential oracle): `db`'s normalised
            // window is shared across every peer of this KPI, symmetric
            // pairs memoised in the tick-scoped cache.
            let mut own_valid = false;
            pair_scores.clear();
            for peer in 0..num_dbs {
                if peer == db || !participates(peer) {
                    continue;
                }
                let key = (db.min(peer), db.max(peer), kpi, start, size);
                let score = if let Some(&s) = pair_cache.get(&key) {
                    s
                } else {
                    if !own_valid {
                        let w = queues.window_slice(db, kpi, start, size).ok_or(
                            IngestError::WindowUnavailable {
                                db,
                                kpi,
                                start,
                                len: size,
                            },
                        )?;
                        own_norm.clear();
                        own_norm.extend_from_slice(w);
                        min_max_in_place(own_norm);
                        own_valid = true;
                    }
                    let w = queues.window_slice(peer, kpi, start, size).ok_or(
                        IngestError::WindowUnavailable {
                            db: peer,
                            kpi,
                            start,
                            len: size,
                        },
                    )?;
                    peer_norm.clear();
                    peer_norm.extend_from_slice(w);
                    min_max_in_place(peer_norm);
                    let s = kcd_normalized(own_norm, peer_norm, max_delay);
                    pair_cache.insert(key, s);
                    s
                };
                pair_scores.push(score);
            }
            out.push(aggregate_scores(pair_scores, config.aggregation).unwrap_or(f64::NAN));
        }
        Ok(out)
    }
}

// Offline replay lives in `crate::offline`; re-exported here because the
// evaluation harness and integration tests historically import it from
// the pipeline module.
pub use crate::offline::detect_series;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DelayScan, ResolvePolicy};

    /// A synthetic 3-database unit: a shared sinusoid trend with per-db
    /// gain/offset, optionally distorting one database over a tick range.
    fn unit_series(
        dbs: usize,
        kpis: usize,
        ticks: usize,
        distort_db: Option<(usize, std::ops::Range<usize>)>,
    ) -> Vec<Vec<Vec<f64>>> {
        (0..dbs)
            .map(|db| {
                (0..kpis)
                    .map(|kpi| {
                        (0..ticks)
                            .map(|t| {
                                let trend =
                                    ((t as f64) * std::f64::consts::TAU / 30.0 + kpi as f64).sin();
                                let mut v = 100.0
                                    + 40.0 * trend * (1.0 + 0.1 * db as f64)
                                    + 10.0 * db as f64;
                                if let Some((target, range)) = &distort_db {
                                    if db == *target && range.contains(&t) {
                                        // opposite trend: strong de-correlation
                                        v = 100.0 - 60.0 * trend + 10.0 * db as f64;
                                    }
                                }
                                v
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    fn small_config(kpis: usize) -> DbCatcherConfig {
        DbCatcherConfig {
            initial_window: 10,
            max_window: 30,
            delay_scan: DelayScan::Fixed(3),
            ..DbCatcherConfig::with_kpis(kpis)
        }
    }

    #[test]
    fn healthy_unit_stays_healthy() {
        let series = unit_series(3, 4, 120, None);
        let (verdicts, predictions) = detect_series(small_config(4), &series, None);
        assert!(!verdicts.is_empty());
        assert!(
            verdicts.iter().all(|v| v.state == DbState::Healthy),
            "{verdicts:?}"
        );
        assert!(predictions.iter().flatten().all(|&p| !p));
    }

    #[test]
    fn distorted_database_flagged_abnormal() {
        // 5 databases as in the paper's units: the median aggregation needs
        // >= 3 healthy peers to stay robust when one database goes bad.
        let series = unit_series(5, 4, 120, Some((1, 40..80)));
        let (verdicts, predictions) = detect_series(small_config(4), &series, None);
        // db 1 must be abnormal somewhere inside 40..80
        let hit = predictions[1][40..80].iter().any(|&p| p);
        assert!(hit, "distortion not detected: {verdicts:?}");
        // healthy databases stay clean
        for db in [0usize, 2, 3, 4] {
            assert!(
                predictions[db].iter().all(|&p| !p),
                "db {db} falsely flagged"
            );
        }
    }

    #[test]
    fn verdict_windows_tile_the_timeline() {
        let series = unit_series(3, 2, 100, None);
        let (verdicts, _) = detect_series(small_config(2), &series, None);
        for db in 0..3 {
            let mut windows: Vec<(u64, u64)> = verdicts
                .iter()
                .filter(|v| v.db == db)
                .map(|v| (v.start_tick, v.end_tick))
                .collect();
            windows.sort_unstable();
            assert!(!windows.is_empty());
            assert_eq!(windows[0].0, 0);
            for pair in windows.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "gap/overlap between windows");
            }
        }
    }

    #[test]
    fn observable_state_expands_window() {
        // Craft a borderline score by a mild distortion: use Min
        // aggregation + large theta so slight deviations yield level-2.
        let mut config = small_config(4);
        config.alphas = vec![0.95; 4];
        config.theta = 0.5; // level-2 band: [0.45, 0.95)
        config.max_tolerance = 10; // all four KPIs may sit at level-2
        let series = unit_series(3, 4, 200, Some((2, 30..45)));
        let (verdicts, _) = detect_series(config, &series, None);
        let expanded = verdicts.iter().any(|v| v.expansions > 0);
        assert!(expanded, "no window ever expanded: {verdicts:?}");
        // expanded windows never exceed W_M
        assert!(verdicts.iter().all(|v| v.window_size <= 30));
    }

    #[test]
    fn resolve_policy_at_max_window() {
        // Force perpetual observability: alpha > 1 so no score reaches
        // level-3, theta = 1 so only scores below ~0.5 would be level-1 —
        // the healthy unit's scores sit at ~1.0, always level-2.
        let mut config = small_config(2);
        config.alphas = vec![1.5; 2];
        config.theta = 1.0;
        config.max_tolerance = 99;
        config.resolve_at_max = ResolvePolicy::Abnormal;
        let series = unit_series(2, 2, 100, None);
        let (verdicts, _) = detect_series(config.clone(), &series, None);
        assert!(verdicts.iter().all(|v| v.state == DbState::Abnormal));
        assert!(verdicts.iter().all(|v| v.window_size == config.max_window));

        config.resolve_at_max = ResolvePolicy::Healthy;
        let (verdicts, _) = detect_series(config, &series, None);
        assert!(verdicts.iter().all(|v| v.state == DbState::Healthy));
    }

    #[test]
    fn participation_mask_silences_kpi() {
        // distort only KPI 0 of db 0, then exclude db 0 from KPI 0:
        // the anomaly becomes invisible.
        let mut series = unit_series(3, 2, 100, None);
        for t in 30..60 {
            series[0][0][t] = 500.0 - series[0][0][t];
        }
        let (_, with_mask) = detect_series(
            small_config(2),
            &series,
            Some(vec![vec![false, true, true], vec![true, true, true]]),
        );
        assert!(with_mask[0].iter().all(|&p| !p), "masked KPI still fired");
        let (_, without_mask) = detect_series(small_config(2), &series, None);
        assert!(
            without_mask[0][30..60].iter().any(|&p| p),
            "unmasked anomaly missed"
        );
    }

    #[test]
    fn unused_database_not_flagged() {
        let mut series = unit_series(3, 2, 100, None);
        // db 2 is unused: all zeros
        for kpi in series[2].iter_mut() {
            kpi.iter_mut().for_each(|v| *v = 0.0);
        }
        let (verdicts, predictions) = detect_series(small_config(2), &series, None);
        assert!(predictions[2].iter().all(|&p| !p), "unused db flagged");
        // the remaining pair still judges healthy
        assert!(verdicts
            .iter()
            .filter(|v| v.db != 2)
            .all(|v| v.state == DbState::Healthy));
    }

    #[test]
    fn average_window_size_tracks_verdicts() {
        let series = unit_series(3, 2, 100, None);
        let mut catcher = DbCatcher::new(small_config(2), 3);
        let mut frame: Vec<Vec<f64>> = vec![Vec::new(); 3];
        for t in 0..100 {
            for (row, db) in frame.iter_mut().zip(&series) {
                row.clear();
                row.extend(db.iter().map(|k| k[t]));
            }
            catcher.ingest_tick(&frame);
        }
        assert!((catcher.average_window_size() - 10.0).abs() < 1e-9);
        let timing = catcher.timing();
        assert!(timing.correlation > Duration::ZERO);
    }

    #[test]
    fn scores_recorded_for_feedback() {
        let series = unit_series(3, 4, 60, None);
        let (verdicts, _) = detect_series(small_config(4), &series, None);
        for v in &verdicts {
            assert_eq!(v.scores.len(), 4);
            assert!(v
                .scores
                .iter()
                .all(|s| s.is_nan() || (-1.0..=1.0).contains(s)));
        }
    }

    #[test]
    #[should_panic(expected = "invalid DbCatcher configuration")]
    fn invalid_config_panics() {
        let mut config = DbCatcherConfig::default();
        config.alphas.pop();
        let _ = DbCatcher::new(config, 3);
    }

    #[test]
    fn set_genes_changes_behaviour() {
        let mut catcher = DbCatcher::new(small_config(2), 3);
        let genes = crate::ga::Genes {
            alphas: vec![0.65, 0.75],
            theta: 0.12,
            max_tolerance: 1,
        };
        catcher.set_genes(&genes);
        assert_eq!(catcher.config().alphas, genes.alphas);
    }
}
