//! Detector configuration.
//!
//! Default values follow the paper's stated parameter ranges (§III-D):
//! correlation thresholds α ∈ [0.6, 0.8], tolerance θ ∈ [0.1, 0.3],
//! tolerance deviation number N ∈ [0, 3], initial window W ∈ [15, 25],
//! maximum window W_M ∈ [45, 75] — we default to each range's midpoint.

use crate::ingest::IngestConfig;
use serde::{Deserialize, Serialize};

/// A specific, typed configuration violation found by
/// [`DbCatcherConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `num_kpis` is zero.
    NoKpis,
    /// `alphas` length mismatches `num_kpis`.
    AlphaArity {
        /// Entries in `alphas`.
        alphas: usize,
        /// Configured KPI count.
        kpis: usize,
    },
    /// `initial_window` below the 2-tick minimum a correlation needs.
    InitialWindowTooSmall {
        /// Configured initial window.
        initial_window: usize,
    },
    /// `max_window` smaller than `initial_window`.
    MaxWindowBelowInitial {
        /// Configured maximum window.
        max_window: usize,
        /// Configured initial window.
        initial_window: usize,
    },
    /// `theta` outside `[0, 1]`.
    ThetaOutOfRange {
        /// Configured theta.
        theta: f64,
    },
    /// Participation mask row count mismatches `num_kpis`.
    ParticipationArity {
        /// Mask rows.
        rows: usize,
        /// Configured KPI count.
        kpis: usize,
    },
    /// Ingest `demote_ratio` outside `(0, 1]`.
    DemoteRatioOutOfRange {
        /// Configured ratio.
        ratio: f64,
    },
    /// Ingest `health_window` is zero.
    ZeroHealthWindow,
    /// Ingest `readmit_after` is zero.
    ZeroReadmitAfter,
    /// A detector was built for zero databases.
    NoDatabases,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoKpis => write!(f, "num_kpis must be >= 1"),
            ConfigError::AlphaArity { alphas, kpis } => {
                write!(f, "alphas has {alphas} entries for {kpis} KPIs")
            }
            ConfigError::InitialWindowTooSmall { initial_window } => {
                write!(f, "initial_window {initial_window} must be >= 2")
            }
            ConfigError::MaxWindowBelowInitial {
                max_window,
                initial_window,
            } => write!(
                f,
                "max_window {max_window} must be >= initial_window {initial_window}"
            ),
            ConfigError::ThetaOutOfRange { theta } => {
                write!(f, "theta {theta} must lie in [0, 1]")
            }
            ConfigError::ParticipationArity { rows, kpis } => {
                write!(f, "participation mask has {rows} rows for {kpis} KPIs")
            }
            ConfigError::DemoteRatioOutOfRange { ratio } => {
                write!(f, "ingest demote_ratio {ratio} must lie in (0, 1]")
            }
            ConfigError::ZeroHealthWindow => write!(f, "ingest health_window must be >= 1"),
            ConfigError::ZeroReadmitAfter => write!(f, "ingest readmit_after must be >= 1"),
            ConfigError::NoDatabases => write!(f, "unit must contain at least one database"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How many lags the KCD scan covers (paper Eq. 3 scans up to m = n/2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DelayScan {
    /// Scan s ∈ [−n/2, n/2] as in the paper.
    HalfWindow,
    /// Scan a fixed ±k lag range — cheaper when the deployment's
    /// collection delays are known to be small (ablation knob).
    Fixed(usize),
}

impl DelayScan {
    /// Resolves the scan bound for a window of `n` points.
    pub fn max_lag(self, n: usize) -> usize {
        match self {
            DelayScan::HalfWindow => n / 2,
            DelayScan::Fixed(k) => k.min(n.saturating_sub(1)),
        }
    }
}

/// Which correlation engine the pipeline runs (see
/// [`crate::kcd_incremental`] and DESIGN.md).
///
/// Both backends implement the same KCD semantics; `Naive` recomputes
/// every evaluation from scratch and serves as the oracle the
/// differential suite checks `Incremental` against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorrelationBackend {
    /// Window copy + fresh normalisation + two-pass lag scan per pair.
    Naive,
    /// Each window normalised once per tick and shared by all its
    /// pairings, prefix-sum moments (default).
    #[default]
    Incremental,
}

/// How a database's N−1 pairwise scores reduce to one score per KPI.
///
/// The paper's Algorithm 1 leaves this open; see DESIGN.md §3.2. Median is
/// the default: an anomalous database de-correlates from *all* peers, while
/// a single low pairwise score more likely indicts the other database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LevelAggregation {
    /// Median of the pairwise scores (robust default).
    Median,
    /// Minimum — most sensitive, most false-positive-prone.
    Min,
    /// Arithmetic mean.
    Mean,
}

/// What to do when a window reaches the maximum size while the database is
/// still *observable* (the paper does not say; see DESIGN.md §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResolvePolicy {
    /// A deviation that outlives every expansion did not behave like a
    /// temporal fluctuation — resolve abnormal (default).
    Abnormal,
    /// Give the database the benefit of the doubt.
    Healthy,
}

/// Full configuration of a [`crate::DbCatcher`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DbCatcherConfig {
    /// Number of KPIs per database (the paper's Q; 14 for Table II).
    pub num_kpis: usize,
    /// Per-KPI correlation thresholds α_i.
    pub alphas: Vec<f64>,
    /// Tolerance threshold θ separating level-1 from level-2.
    pub theta: f64,
    /// Maximum tolerance deviation number N: level-2 counts below it are
    /// *observable*, at or above it *abnormal*.
    pub max_tolerance: usize,
    /// Initial window size W in ticks.
    pub initial_window: usize,
    /// Expansion step Δ; `0` means "same as the initial window" (paper:
    /// "the length Δ of each expansion is generally the same as the
    /// initial window size").
    pub expansion: usize,
    /// Maximum window size W_M.
    pub max_window: usize,
    /// KCD lag-scan policy.
    pub delay_scan: DelayScan,
    /// Correlation engine implementation.
    pub backend: CorrelationBackend,
    /// Pairwise-score aggregation.
    pub aggregation: LevelAggregation,
    /// Resolution policy at W_M.
    pub resolve_at_max: ResolvePolicy,
    /// A database whose every KPI stays below this absolute value over a
    /// whole window is *unused* and excluded from judgement (paper §III-B).
    pub unused_epsilon: f64,
    /// Optional participation mask `mask[kpi][db]`: `false` entries are
    /// excluded from that KPI's level computation (Table II semantics).
    pub participation: Option<Vec<Vec<bool>>>,
    /// Ingestion-hardening knobs (gap repair, staleness, non-voting
    /// demotion); defaults are behaviour-neutral on clean streams.
    pub ingest: IngestConfig,
}

impl Default for DbCatcherConfig {
    fn default() -> Self {
        Self {
            num_kpis: 14,
            alphas: vec![0.7; 14],
            theta: 0.2,
            // top of the paper's N ∈ [0, 3] range: up to two slight
            // deviations are *observable* (window expands) rather than
            // immediately abnormal, letting the flexible window absorb
            // temporal fluctuations as §III-C intends
            max_tolerance: 3,
            initial_window: 20,
            expansion: 0,
            max_window: 60,
            // The paper's Eq. 3 scans up to n/2 lags, but on 20-point
            // windows that almost always finds a spurious alignment and
            // destroys discrimination; ±3 covers realistic collection
            // delays (see DESIGN.md §3.6 and the `kcd` ablation bench).
            delay_scan: DelayScan::Fixed(3),
            backend: CorrelationBackend::Incremental,
            aggregation: LevelAggregation::Median,
            resolve_at_max: ResolvePolicy::Abnormal,
            unused_epsilon: 1e-9,
            participation: None,
            ingest: IngestConfig::default(),
        }
    }
}

impl DbCatcherConfig {
    /// A default configuration for `num_kpis` KPIs.
    pub fn with_kpis(num_kpis: usize) -> Self {
        Self {
            num_kpis,
            alphas: vec![0.7; num_kpis],
            ..Self::default()
        }
    }

    /// The effective expansion step.
    pub fn expansion_step(&self) -> usize {
        if self.expansion == 0 {
            self.initial_window
        } else {
            self.expansion
        }
    }

    /// Installs the thresholds learned by the genetic algorithm.
    pub fn apply_genes(&mut self, genes: &crate::ga::Genes) {
        assert_eq!(
            genes.alphas.len(),
            self.num_kpis,
            "gene arity mismatches KPI count"
        );
        self.alphas = genes.alphas.clone();
        self.theta = genes.theta;
        self.max_tolerance = genes.max_tolerance;
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns the first violation found as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_kpis == 0 {
            return Err(ConfigError::NoKpis);
        }
        if self.alphas.len() != self.num_kpis {
            return Err(ConfigError::AlphaArity {
                alphas: self.alphas.len(),
                kpis: self.num_kpis,
            });
        }
        if self.initial_window < 2 {
            return Err(ConfigError::InitialWindowTooSmall {
                initial_window: self.initial_window,
            });
        }
        if self.max_window < self.initial_window {
            return Err(ConfigError::MaxWindowBelowInitial {
                max_window: self.max_window,
                initial_window: self.initial_window,
            });
        }
        if !(0.0..=1.0).contains(&self.theta) {
            return Err(ConfigError::ThetaOutOfRange { theta: self.theta });
        }
        if let Some(mask) = &self.participation {
            if mask.len() != self.num_kpis {
                return Err(ConfigError::ParticipationArity {
                    rows: mask.len(),
                    kpis: self.num_kpis,
                });
            }
        }
        crate::ingest::validate_ingest(&self.ingest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_midpoints() {
        let c = DbCatcherConfig::default();
        assert_eq!(c.num_kpis, 14);
        assert!(c.alphas.iter().all(|&a| (0.6..=0.8).contains(&a)));
        assert!((0.1..=0.3).contains(&c.theta));
        assert!(c.max_tolerance <= 3);
        assert!((15..=25).contains(&c.initial_window));
        assert!((45..=75).contains(&c.max_window));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn expansion_defaults_to_initial_window() {
        let c = DbCatcherConfig::default();
        assert_eq!(c.expansion_step(), c.initial_window);
        let c2 = DbCatcherConfig {
            expansion: 10,
            ..DbCatcherConfig::default()
        };
        assert_eq!(c2.expansion_step(), 10);
    }

    #[test]
    fn delay_scan_bounds() {
        assert_eq!(DelayScan::HalfWindow.max_lag(20), 10);
        assert_eq!(DelayScan::Fixed(3).max_lag(20), 3);
        assert_eq!(DelayScan::Fixed(50).max_lag(20), 19);
        assert_eq!(DelayScan::Fixed(3).max_lag(0), 0);
    }

    #[test]
    fn with_kpis_sizes_alphas() {
        let c = DbCatcherConfig::with_kpis(5);
        assert_eq!(c.alphas.len(), 5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_mistakes() {
        let mut c = DbCatcherConfig::default();
        c.alphas.pop();
        assert!(c.validate().is_err());

        let c = DbCatcherConfig {
            max_window: 5,
            ..DbCatcherConfig::default()
        };
        assert!(c.validate().is_err());

        let c = DbCatcherConfig {
            theta: 2.0,
            ..DbCatcherConfig::default()
        };
        assert!(c.validate().is_err());

        let c = DbCatcherConfig {
            num_kpis: 0,
            alphas: vec![],
            ..DbCatcherConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_errors_are_typed() {
        let mut c = DbCatcherConfig::default();
        c.alphas.pop();
        assert_eq!(
            c.validate(),
            Err(ConfigError::AlphaArity {
                alphas: 13,
                kpis: 14
            })
        );

        let mut c = DbCatcherConfig::default();
        c.ingest.demote_ratio = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::DemoteRatioOutOfRange { .. })
        ));

        let mut c = DbCatcherConfig::default();
        c.ingest.health_window = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroHealthWindow));

        let mut c = DbCatcherConfig::default();
        c.ingest.readmit_after = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroReadmitAfter));
    }

    #[test]
    fn config_errors_display_human_readable() {
        let err = ConfigError::MaxWindowBelowInitial {
            max_window: 5,
            initial_window: 20,
        };
        assert!(err.to_string().contains("max_window 5"));
    }

    #[test]
    fn apply_genes_installs_thresholds() {
        let mut c = DbCatcherConfig::with_kpis(3);
        let genes = crate::ga::Genes {
            alphas: vec![0.61, 0.72, 0.79],
            theta: 0.15,
            max_tolerance: 1,
        };
        c.apply_genes(&genes);
        assert_eq!(c.alphas, genes.alphas);
        assert_eq!(c.theta, 0.15);
        assert_eq!(c.max_tolerance, 1);
    }

    #[test]
    #[should_panic(expected = "gene arity")]
    fn apply_genes_arity_mismatch_panics() {
        let mut c = DbCatcherConfig::with_kpis(3);
        c.apply_genes(&crate::ga::Genes {
            alphas: vec![0.7; 2],
            theta: 0.2,
            max_tolerance: 1,
        });
    }
}
