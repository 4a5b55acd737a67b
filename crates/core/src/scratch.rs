//! Reusable per-tick scratch buffers (the hot path's arena).
//!
//! Every [`crate::DbCatcher`] owns one [`TickScratch`]. An owner of many
//! detectors — a serve shard, or a [`crate::fleet::score_batch`] caller —
//! drives them all through one arena per thread instead, with no sharing
//! or locking; units of different database counts may share it.
//!
//! Ownership rules:
//!
//! * buffers are **borrowed for the duration of one call** and always
//!   left in a reusable state (`clear()` keeps capacity);
//! * nothing in here is detector *state* — snapshots skip it entirely and
//!   a restored detector starts with an empty arena that re-warms within
//!   one tick;
//! * callers that need several buffers at once destructure the struct so
//!   the borrows are visibly disjoint.
//!
//! After a short warmup (capacities grow to the unit's steady shape) the
//! arena makes the non-judging `ingest_tick` path allocation-free; the
//! counting-allocator harness in `tests/zero_alloc.rs` pins that budget.
//!
//! The arena also holds the default backend's normalised windows (one per
//! participating database per pooled batch entry). They are rebuilt from
//! the queues whenever an entry is claimed, so a detector keeps no copy
//! of its samples beyond [`crate::queues::KpiQueues`], and the arena's
//! size follows the widest tick it served, not the unit's retention.

use crate::kcd_incremental::NormWindow;
use crate::matrix::CorrelationMatrix;
use std::collections::HashMap;

/// Cache key for one symmetric pair score within a tick:
/// `(min(db, peer), max(db, peer), kpi, window start, window size)`.
pub(crate) type PairKey = (usize, usize, usize, u64, usize);

/// Reusable buffers for one detector's tick processing.
#[derive(Debug, Clone, Default)]
pub struct TickScratch {
    /// Sanitized frame staging (`[db][kpi]`), filled by
    /// [`crate::ingest::TelemetryHealth::observe_into`].
    pub(crate) sanitized: Vec<Vec<f64>>,
    /// Per-database unused-rule mask for the window being judged.
    pub(crate) usable: Vec<bool>,
    /// Naive backend: min–max-normalised window of the judged database.
    pub(crate) own_norm: Vec<f64>,
    /// Naive backend: min–max-normalised window of the current peer.
    pub(crate) peer_norm: Vec<f64>,
    /// Per-KPI peer scores awaiting aggregation.
    pub(crate) pair_scores: Vec<f64>,
    /// Symmetric pair-score memo shared by every judgement within one
    /// tick (naive backend); cleared (capacity kept) at the start of
    /// each tick.
    pub(crate) pair_cache: HashMap<PairKey, f64>,
    /// Incremental backend: pooled batch entries, one per distinct
    /// `(kpi, window)` judged this tick. Entries past `batch_used` are
    /// free-list slots whose inner buffers keep their capacity, so the
    /// pool stops allocating once it has grown to the unit's widest tick
    /// (at most one entry per KPI).
    pub(crate) batch: Vec<BatchEntry>,
    /// Number of live entries in [`Self::batch`] this tick; reset to 0
    /// at the start of each unit's tick instead of clearing the pool.
    pub(crate) batch_used: usize,
}

impl TickScratch {
    /// A fresh, empty arena; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One pooled batch entry: the normalised windows and pairwise scores of
/// every participating database for one `(kpi, window start, window
/// size)`, filled once per tick and read by all of the unit's judgements
/// over that window.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchEntry {
    /// `(kpi, window start, window size)` the matrix was filled for.
    pub(crate) key: (usize, u64, usize),
    pub(crate) matrix: CorrelationMatrix,
    /// Participation mask the fill used (per database; independent of
    /// the judging database, so every judgement shares it).
    pub(crate) mask: Vec<bool>,
    /// `rows[db]` — whether `db`'s matrix row has been scored. Rows fill
    /// lazily as databases judge, and a row fill skips peers whose own
    /// row is already present (the symmetric entry exists), so each pair
    /// is scored at most once per tick.
    pub(crate) rows: Vec<bool>,
    /// `windows[db]` — `db`'s normalised window, filled from the queues
    /// when the entry is claimed, for every database in `mask`. Each
    /// entry owns its windows, so two windows of one KPI judged in the
    /// same tick never share a buffer. May be longer than the unit's
    /// database count after serving a wider unit.
    pub(crate) windows: Vec<NormWindow>,
}
