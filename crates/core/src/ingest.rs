//! Ingestion hardening: frame validation, gap repair and the telemetry
//! health ledger.
//!
//! The paper assumes every database delivers a clean KPI frame each
//! 5-second cycle; real collectors drop, duplicate and corrupt samples.
//! This module sits in front of [`crate::queues::KpiQueues`]: every
//! incoming sample is checked for finiteness and staleness, bad samples
//! are repaired by a configurable [`GapPolicy`] (the correlation engines
//! must never see a non-finite value — `NaN` would corrupt a window's
//! min–max extremes and every score drawn from it), and every repair is
//! recorded in a per-`(db, kpi)` [`TelemetryHealth`] ledger.
//!
//! A database whose recent frames are mostly bad is *demoted to
//! non-voting*: it is excluded from every correlation matrix and level
//! aggregation through the same participation path as the paper's
//! unused-database rule, so a flaky collector cannot drag healthy peers'
//! scores down. After enough consecutive clean ticks the database is
//! re-admitted automatically. See DESIGN.md §"Degraded-mode semantics".
//!
//! Everything here is a pure function of the observed stream, so both
//! correlation backends see identical sanitized data and demotion
//! decisions — the differential harness checks exactly that.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How a missing (non-finite) sample is replaced before entering the
/// queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GapPolicy {
    /// Repeat the last good value (default; a flat segment keeps KCD's
    /// constant-window conventions well-defined).
    #[default]
    HoldLast,
    /// Continue the last good slope (`last + (last − prev)`), falling
    /// back to hold-last with fewer than two good points.
    LinearFill,
    /// Fill with the last good value but *mark the tick missing*: any
    /// window overlapping it excludes the `(db, kpi)` pair from
    /// participation, so repaired data never votes.
    MarkMissing,
}

impl std::str::FromStr for GapPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hold-last" => Ok(GapPolicy::HoldLast),
            "linear-fill" => Ok(GapPolicy::LinearFill),
            "mark-missing" => Ok(GapPolicy::MarkMissing),
            other => Err(format!("unknown gap policy: {other}")),
        }
    }
}

/// Ingestion-hardening knobs, embedded in
/// [`crate::config::DbCatcherConfig`]. The defaults leave a clean stream
/// bit-identical to a detector without the ingest layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestConfig {
    /// Repair policy for missing samples.
    pub gap_policy: GapPolicy,
    /// A sensor repeating the exact same value for more than this many
    /// consecutive ticks is *stale* (wedged); `0` disables the check.
    pub stale_after: usize,
    /// Fraction of bad ticks within [`Self::health_window`] beyond which
    /// a database is demoted to non-voting.
    pub demote_ratio: f64,
    /// Length in ticks of the sliding badness window.
    pub health_window: usize,
    /// Consecutive clean ticks a demoted database needs for re-admission.
    pub readmit_after: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            gap_policy: GapPolicy::HoldLast,
            stale_after: 0,
            demote_ratio: 0.5,
            health_window: 60,
            readmit_after: 20,
        }
    }
}

/// Typed ingestion failure; [`crate::DbCatcher::try_ingest_tick`] returns
/// it instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The frame's database count mismatches the unit.
    FrameArity {
        /// Databases expected.
        expected: usize,
        /// Databases delivered.
        got: usize,
    },
    /// One database's KPI count mismatches the configuration.
    KpiArity {
        /// Offending database.
        db: usize,
        /// KPIs expected.
        expected: usize,
        /// KPIs delivered.
        got: usize,
    },
    /// A judged window reaches outside the retained queue history —
    /// internal inconsistency surfaced as an error instead of a panic.
    WindowUnavailable {
        /// Database whose window was read.
        db: usize,
        /// KPI whose window was read.
        kpi: usize,
        /// First tick of the window.
        start: u64,
        /// Window length.
        len: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::FrameArity { expected, got } => {
                write!(
                    f,
                    "frame has {got} database(s), detector expects {expected}"
                )
            }
            IngestError::KpiArity { db, expected, got } => {
                write!(
                    f,
                    "database {db} delivered {got} KPI(s), configuration expects {expected}"
                )
            }
            IngestError::WindowUnavailable {
                db,
                kpi,
                start,
                len,
            } => {
                write!(
                    f,
                    "window [{start}, {start}+{len}) of (db {db}, kpi {kpi}) is not retained"
                )
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// What one successful [`crate::DbCatcher::try_ingest_tick`] call did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngestReport {
    /// Verdicts that became final at this tick.
    pub verdicts: Vec<crate::pipeline::Verdict>,
    /// Samples repaired (missing → gap-policy substitute) this tick.
    pub repaired: usize,
    /// Samples flagged stale this tick.
    pub stale: usize,
    /// Databases demoted to non-voting at this tick.
    pub demoted: Vec<usize>,
    /// Databases re-admitted to voting at this tick.
    pub readmitted: Vec<usize>,
}

/// Per-tick outcome of [`TelemetryHealth::observe`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickHealth {
    /// Samples repaired this tick.
    pub repaired: usize,
    /// Samples flagged stale this tick.
    pub stale: usize,
    /// Databases demoted this tick.
    pub demoted: Vec<usize>,
    /// Databases re-admitted this tick.
    pub readmitted: Vec<usize>,
}

/// Lifetime counters and repair state of one `(db, kpi)` sensor.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SensorHealth {
    /// Samples observed.
    pub total: u64,
    /// Samples that arrived non-finite.
    pub missing: u64,
    /// Samples flagged stale.
    pub stale: u64,
    /// Samples substituted by the gap policy.
    pub repaired: u64,
    /// Most recent value pushed into the queues (always finite).
    last_good: Option<f64>,
    /// The value before `last_good` (linear-fill slope).
    prev_good: Option<f64>,
    /// Last *delivered* finite value, for stale-run tracking.
    last_raw: Option<f64>,
    /// Length of the current identical-value run.
    run_length: u64,
}

/// The per-unit telemetry health ledger: sensor counters, the per-database
/// sliding badness window, voting status and (under
/// [`GapPolicy::MarkMissing`]) the recorded missing ticks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryHealth {
    num_dbs: usize,
    num_kpis: usize,
    /// Flattened `db * num_kpis + kpi`.
    sensors: Vec<SensorHealth>,
    /// Per-database ring of per-tick badness flags (≤ `health_window`).
    recent_bad: Vec<VecDeque<bool>>,
    /// Cached count of `true` entries in each ring.
    bad_counts: Vec<usize>,
    /// `false` = demoted to non-voting.
    voting: Vec<bool>,
    /// Consecutive clean ticks per database (re-admission counter).
    clean_streak: Vec<u64>,
    /// Per-sensor missing-tick log, kept only under
    /// [`GapPolicy::MarkMissing`], pruned to the queue retention.
    missing_ticks: Vec<VecDeque<u64>>,
    /// Lifetime demotion count.
    demotions: u64,
    /// Lifetime re-admission count.
    readmissions: u64,
}

impl TelemetryHealth {
    /// A fresh ledger for `num_dbs × num_kpis` sensors, all voting.
    pub fn new(num_dbs: usize, num_kpis: usize) -> Self {
        let sensors = num_dbs * num_kpis;
        Self {
            num_dbs,
            num_kpis,
            sensors: vec![SensorHealth::default(); sensors],
            recent_bad: vec![VecDeque::new(); num_dbs],
            bad_counts: vec![0; num_dbs],
            voting: vec![true; num_dbs],
            clean_streak: vec![0; num_dbs],
            missing_ticks: vec![VecDeque::new(); sensors],
            demotions: 0,
            readmissions: 0,
        }
    }

    #[inline]
    fn idx(&self, db: usize, kpi: usize) -> usize {
        db * self.num_kpis + kpi
    }

    /// Validates and repairs one frame, updates the ledger, and applies
    /// demotion / re-admission. Returns the sanitized frame (every value
    /// finite) plus what happened. `retention` bounds the missing-tick log
    /// to what any window can still read.
    pub fn observe(
        &mut self,
        frame: &[Vec<f64>],
        tick: u64,
        cfg: &IngestConfig,
        retention: usize,
    ) -> (Vec<Vec<f64>>, TickHealth) {
        let mut out = Vec::with_capacity(frame.len());
        let summary = self.observe_into(frame, tick, cfg, retention, &mut out);
        (out, summary)
    }

    /// [`Self::observe`] writing the sanitized frame into a reusable
    /// staging buffer instead of allocating one — `out` is reshaped to the
    /// frame (rows keep their capacity across ticks), so a warmed-up
    /// caller pays zero allocations on a clean tick.
    pub fn observe_into(
        &mut self,
        frame: &[Vec<f64>],
        tick: u64,
        cfg: &IngestConfig,
        retention: usize,
        out: &mut Vec<Vec<f64>>,
    ) -> TickHealth {
        out.resize_with(frame.len(), Vec::new);
        let mut summary = TickHealth::default();
        for ((db, kpis), row) in frame.iter().enumerate().zip(out.iter_mut()) {
            let mut db_bad = false;
            row.clear();
            for (kpi, &raw) in kpis.iter().enumerate() {
                let i = self.idx(db, kpi);
                let s = &mut self.sensors[i];
                s.total += 1;
                let value = if raw.is_finite() {
                    let same = s.last_raw.is_some_and(|p| p.to_bits() == raw.to_bits());
                    s.run_length = if same { s.run_length + 1 } else { 1 };
                    s.last_raw = Some(raw);
                    let is_stale = cfg.stale_after > 0 && s.run_length > cfg.stale_after as u64;
                    if is_stale {
                        s.stale += 1;
                        summary.stale += 1;
                        db_bad = true;
                    }
                    s.prev_good = s.last_good;
                    s.last_good = Some(raw);
                    if is_stale && cfg.gap_policy == GapPolicy::MarkMissing {
                        self.missing_ticks[i].push_back(tick);
                    }
                    raw
                } else {
                    s.missing += 1;
                    s.repaired += 1;
                    summary.repaired += 1;
                    db_bad = true;
                    // a broken stale-run is over; the next finite sample
                    // starts a fresh run
                    s.run_length = 0;
                    s.last_raw = None;
                    let fill = match cfg.gap_policy {
                        GapPolicy::HoldLast | GapPolicy::MarkMissing => s.last_good.unwrap_or(0.0),
                        GapPolicy::LinearFill => match (s.last_good, s.prev_good) {
                            (Some(last), Some(prev)) => last + (last - prev),
                            (Some(last), None) => last,
                            _ => 0.0,
                        },
                    };
                    let fill = if fill.is_finite() {
                        fill
                    } else {
                        s.last_good.unwrap_or(0.0)
                    };
                    s.prev_good = s.last_good;
                    s.last_good = Some(fill);
                    if cfg.gap_policy == GapPolicy::MarkMissing {
                        self.missing_ticks[i].push_back(tick);
                    }
                    fill
                };
                // prune entries no retained window can read anymore
                let log = &mut self.missing_ticks[i];
                while log.front().is_some_and(|&t| t + retention as u64 <= tick) {
                    log.pop_front();
                }
                row.push(value);
            }

            // sliding badness window + voting state
            let ring = &mut self.recent_bad[db];
            ring.push_back(db_bad);
            if db_bad {
                self.bad_counts[db] += 1;
            }
            while ring.len() > cfg.health_window {
                if ring.pop_front() == Some(true) {
                    self.bad_counts[db] -= 1;
                }
            }
            if self.voting[db] {
                if self.bad_counts[db] as f64 > cfg.demote_ratio * cfg.health_window as f64 {
                    self.voting[db] = false;
                    self.clean_streak[db] = 0;
                    self.demotions += 1;
                    summary.demoted.push(db);
                }
            } else if db_bad {
                self.clean_streak[db] = 0;
            } else {
                self.clean_streak[db] += 1;
                if self.clean_streak[db] >= cfg.readmit_after as u64 {
                    self.voting[db] = true;
                    self.clean_streak[db] = 0;
                    self.recent_bad[db].clear();
                    self.bad_counts[db] = 0;
                    self.readmissions += 1;
                    summary.readmitted.push(db);
                }
            }
        }
        summary
    }

    /// Whether database `db` currently votes in correlation matrices and
    /// level aggregation.
    pub fn is_voting(&self, db: usize) -> bool {
        self.voting.get(db).copied().unwrap_or(true)
    }

    /// Currently demoted databases, ascending.
    pub fn non_voting(&self) -> Vec<usize> {
        (0..self.num_dbs).filter(|&db| !self.voting[db]).collect()
    }

    /// `true` when no recorded missing tick of `(db, kpi)` overlaps the
    /// window `[start, start + len)` — always `true` outside
    /// [`GapPolicy::MarkMissing`].
    pub fn window_clean(&self, db: usize, kpi: usize, start: u64, len: usize) -> bool {
        let end = start + len as u64;
        !self.missing_ticks[self.idx(db, kpi)]
            .iter()
            .any(|&t| t >= start && t < end)
    }

    /// Lifetime counters of one sensor.
    pub fn sensor(&self, db: usize, kpi: usize) -> &SensorHealth {
        &self.sensors[self.idx(db, kpi)]
    }

    /// Lifetime demotion count.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Lifetime re-admission count.
    pub fn readmissions(&self) -> u64 {
        self.readmissions
    }

    /// Total missing samples across all sensors.
    pub fn total_missing(&self) -> u64 {
        self.sensors.iter().map(|s| s.missing).sum()
    }

    /// Total repaired samples across all sensors.
    pub fn total_repaired(&self) -> u64 {
        self.sensors.iter().map(|s| s.repaired).sum()
    }

    /// Total stale samples across all sensors.
    pub fn total_stale(&self) -> u64 {
        self.sensors.iter().map(|s| s.stale).sum()
    }

    /// One-line summary for CLI reports.
    pub fn summary_line(&self) -> String {
        format!(
            "{} sample(s) repaired, {} stale, {} demotion(s), {} re-admission(s), \
             non-voting now: {:?}",
            self.total_repaired(),
            self.total_stale(),
            self.demotions,
            self.readmissions,
            self.non_voting()
        )
    }
}

/// Validates the ingest knobs (called from
/// [`crate::config::DbCatcherConfig::validate`]).
pub(crate) fn validate_ingest(cfg: &IngestConfig) -> Result<(), crate::config::ConfigError> {
    use crate::config::ConfigError;
    if !(cfg.demote_ratio > 0.0 && cfg.demote_ratio <= 1.0) {
        return Err(ConfigError::DemoteRatioOutOfRange {
            ratio: cfg.demote_ratio,
        });
    }
    if cfg.health_window == 0 {
        return Err(ConfigError::ZeroHealthWindow);
    }
    if cfg.readmit_after == 0 {
        return Err(ConfigError::ZeroReadmitAfter);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> IngestConfig {
        IngestConfig {
            health_window: 10,
            demote_ratio: 0.5,
            readmit_after: 4,
            ..IngestConfig::default()
        }
    }

    fn observe_row(
        health: &mut TelemetryHealth,
        cfg: &IngestConfig,
        tick: u64,
        values: &[f64],
    ) -> (Vec<f64>, TickHealth) {
        let frame: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        let (out, summary) = health.observe(&frame, tick, cfg, 100);
        (out.into_iter().map(|row| row[0]).collect(), summary)
    }

    #[test]
    fn clean_stream_passes_through_untouched() {
        let mut health = TelemetryHealth::new(2, 1);
        let cfg = cfg();
        for t in 0..20 {
            let (out, summary) = observe_row(&mut health, &cfg, t, &[t as f64, t as f64 * 2.0]);
            assert_eq!(out, vec![t as f64, t as f64 * 2.0]);
            assert_eq!(summary, TickHealth::default());
        }
        assert_eq!(health.total_repaired(), 0);
        assert!(health.is_voting(0) && health.is_voting(1));
    }

    #[test]
    fn hold_last_repairs_nan_and_inf() {
        let mut health = TelemetryHealth::new(1, 1);
        let cfg = cfg();
        observe_row(&mut health, &cfg, 0, &[5.0]);
        let (out, s) = observe_row(&mut health, &cfg, 1, &[f64::NAN]);
        assert_eq!(out, vec![5.0]);
        assert_eq!(s.repaired, 1);
        let (out, _) = observe_row(&mut health, &cfg, 2, &[f64::INFINITY]);
        assert_eq!(out, vec![5.0]);
        assert_eq!(health.sensor(0, 0).missing, 2);
    }

    #[test]
    fn leading_gap_fills_zero() {
        let mut health = TelemetryHealth::new(1, 1);
        let (out, _) = observe_row(&mut health, &cfg(), 0, &[f64::NAN]);
        assert_eq!(out, vec![0.0]);
    }

    #[test]
    fn linear_fill_continues_slope() {
        let mut health = TelemetryHealth::new(1, 1);
        let cfg = IngestConfig {
            gap_policy: GapPolicy::LinearFill,
            ..cfg()
        };
        observe_row(&mut health, &cfg, 0, &[10.0]);
        observe_row(&mut health, &cfg, 1, &[12.0]);
        let (out, _) = observe_row(&mut health, &cfg, 2, &[f64::NAN]);
        assert_eq!(out, vec![14.0]);
        let (out, _) = observe_row(&mut health, &cfg, 3, &[f64::NAN]);
        assert_eq!(out, vec![16.0], "consecutive gaps keep extrapolating");
    }

    #[test]
    fn mark_missing_taints_overlapping_windows() {
        let mut health = TelemetryHealth::new(1, 1);
        let cfg = IngestConfig {
            gap_policy: GapPolicy::MarkMissing,
            ..cfg()
        };
        for t in 0..10 {
            let v = if t == 4 { f64::NAN } else { t as f64 };
            observe_row(&mut health, &cfg, t, &[v]);
        }
        assert!(!health.window_clean(0, 0, 0, 10));
        assert!(!health.window_clean(0, 0, 4, 1));
        assert!(health.window_clean(0, 0, 0, 4));
        assert!(health.window_clean(0, 0, 5, 5));
    }

    #[test]
    fn hold_last_windows_always_clean() {
        let mut health = TelemetryHealth::new(1, 1);
        let cfg = cfg();
        for t in 0..10 {
            observe_row(&mut health, &cfg, t, &[f64::NAN]);
        }
        assert!(health.window_clean(0, 0, 0, 10));
    }

    #[test]
    fn stale_run_detected_after_threshold() {
        let mut health = TelemetryHealth::new(1, 1);
        let cfg = IngestConfig {
            stale_after: 3,
            ..cfg()
        };
        let mut stale_ticks = 0;
        for t in 0..8 {
            let (_, s) = observe_row(&mut health, &cfg, t, &[42.0]);
            stale_ticks += s.stale;
        }
        // runs 1..=8; stale from run 4 on → ticks 3..8 = 5 samples
        assert_eq!(stale_ticks, 5);
        // a changed value resets the run
        let (_, s) = observe_row(&mut health, &cfg, 8, &[43.0]);
        assert_eq!(s.stale, 0);
    }

    #[test]
    fn demotion_and_readmission_lifecycle() {
        let mut health = TelemetryHealth::new(2, 1);
        let cfg = cfg(); // window 10, ratio 0.5, readmit 4
        let mut demoted_at = None;
        let mut readmitted_at = None;
        for t in 0..40 {
            // db 0 loses every sample during ticks 5..15, db 1 stays clean
            let v0 = if (5..15).contains(&t) {
                f64::NAN
            } else {
                t as f64
            };
            let (_, s) = observe_row(&mut health, &cfg, t, &[v0, t as f64]);
            if s.demoted == vec![0] && demoted_at.is_none() {
                demoted_at = Some(t);
            }
            if s.readmitted == vec![0] {
                readmitted_at = Some(t);
            }
        }
        // > 5 bad ticks in the 10-tick window → demotion at tick 10
        assert_eq!(demoted_at, Some(10));
        // clean from tick 15; 4 consecutive clean ticks → back at 18
        assert_eq!(readmitted_at, Some(18));
        assert!(health.is_voting(0));
        assert_eq!(health.demotions(), 1);
        assert_eq!(health.readmissions(), 1);
        assert!(health.is_voting(1), "clean peer never demoted");
    }

    #[test]
    fn bad_ticks_during_demotion_reset_the_streak() {
        let mut health = TelemetryHealth::new(1, 1);
        let cfg = cfg();
        for t in 0..11 {
            observe_row(&mut health, &cfg, t, &[f64::NAN]);
        }
        assert!(!health.is_voting(0));
        // alternate clean/bad: streak never reaches 4
        for t in 11..30 {
            let v = if t % 2 == 0 { f64::NAN } else { 1.0 };
            observe_row(&mut health, &cfg, t, &[v]);
        }
        assert!(!health.is_voting(0));
        assert_eq!(health.readmissions(), 0);
    }

    #[test]
    fn missing_log_pruned_to_retention() {
        let mut health = TelemetryHealth::new(1, 1);
        let cfg = IngestConfig {
            gap_policy: GapPolicy::MarkMissing,
            demote_ratio: 1.0,
            ..cfg()
        };
        for t in 0..50 {
            let frame = vec![vec![f64::NAN]];
            health.observe(&frame, t, &cfg, 10);
        }
        assert!(health.missing_ticks[0].len() <= 10);
        assert!(!health.window_clean(0, 0, 45, 5));
    }

    #[test]
    fn summary_line_mentions_counts() {
        let mut health = TelemetryHealth::new(1, 1);
        observe_row(&mut health, &cfg(), 0, &[f64::NAN]);
        let line = health.summary_line();
        assert!(line.contains("1 sample(s) repaired"), "{line}");
    }

    #[test]
    fn ledger_serde_round_trips() {
        let mut health = TelemetryHealth::new(2, 2);
        let cfg = IngestConfig {
            gap_policy: GapPolicy::MarkMissing,
            ..cfg()
        };
        for t in 0..12 {
            let frame = vec![vec![t as f64, f64::NAN], vec![1.0, 2.0]];
            health.observe(&frame, t, &cfg, 100);
        }
        let json = serde_json::to_string(&health).expect("serialize");
        let back: TelemetryHealth = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(health, back);
    }

    #[test]
    fn gap_policy_parses() {
        assert_eq!("hold-last".parse::<GapPolicy>(), Ok(GapPolicy::HoldLast));
        assert_eq!(
            "linear-fill".parse::<GapPolicy>(),
            Ok(GapPolicy::LinearFill)
        );
        assert_eq!(
            "mark-missing".parse::<GapPolicy>(),
            Ok(GapPolicy::MarkMissing)
        );
        assert!("zero".parse::<GapPolicy>().is_err());
    }
}
