//! Multi-unit detection: many units through one scratch arena.
//!
//! The paper deploys DBCatcher over 50 units at once (§IV-D4). Units are
//! independent, so an owner of several detectors drives them tick by
//! tick through [`score_batch`] with one [`TickScratch`] per thread. The
//! `serve` shards do exactly that for the units they own; an offline
//! driver that wants parallelism splits its units into chunks, one
//! thread and one arena per chunk, with no per-tick synchronisation.
//! Failure containment (strikes, wedges, worker restarts) belongs to the
//! `serve` supervisor, not to this module.

use crate::ingest::IngestError;
use crate::pipeline::{DbCatcher, Verdict};
use crate::scratch::TickScratch;

/// A verdict tagged with the unit that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetVerdict {
    /// Index of the unit within the batch.
    pub unit: usize,
    /// The unit-local verdict.
    pub verdict: Verdict,
}

/// Ingests one tick for a batch of co-owned units through one shared
/// scratch arena — the shard-granularity batch entry point. `frames[i]`
/// feeds the `i`-th detector of the batch and verdicts come back tagged
/// with that index, in unit order. The shared arena is what amortises
/// the lag-scan setup across the batch: the pooled batch matrices, frame
/// staging buffers and pair-score vectors carry their capacity from unit
/// to unit instead of re-warming per detector — the same wiring the
/// serve shard loop uses internally. Units of different database counts
/// may share one arena.
///
/// # Errors
/// Stops at the first rejected frame, returning the offending unit index
/// with its [`IngestError`]; earlier units' ticks were already ingested.
///
/// # Panics
/// Panics when `frames` is shorter than the unit batch.
pub fn score_batch<'a>(
    units: impl IntoIterator<Item = &'a mut DbCatcher>,
    frames: &[Vec<Vec<f64>>],
    scratch: &mut TickScratch,
) -> Result<Vec<FleetVerdict>, (usize, IngestError)> {
    let mut verdicts = Vec::new();
    for (unit, catcher) in units.into_iter().enumerate() {
        let report = catcher
            .try_ingest_tick_with(&frames[unit], scratch)
            .map_err(|e| (unit, e))?;
        verdicts.extend(
            report
                .verdicts
                .into_iter()
                .map(|verdict| FleetVerdict { unit, verdict }),
        );
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbCatcherConfig;

    #[test]
    fn score_batch_reports_offending_unit() {
        let mut batched: Vec<DbCatcher> = (0..2)
            .map(|_| DbCatcher::new(DbCatcherConfig::with_kpis(3), 3))
            .collect();
        let mut arena = TickScratch::new();
        let mut frames = vec![vec![vec![1.0; 3]; 3]; 2];
        frames[1][0].pop(); // short KPI row on unit 1
        let err = score_batch(batched.iter_mut(), &frames, &mut arena).unwrap_err();
        assert_eq!(err.0, 1);
    }
}
