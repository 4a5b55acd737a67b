//! Post-run decoding of the daemon's replies: latencies from due times,
//! failure accounting, and the comparisons against the offline replay.

use crate::daemon::Inbox;
use crate::plan::Schedule;
use crate::replay::{Key, CLUSTERS_PER_REGION, UNITS_PER_CLUSTER};
use dbcatcher_hierarchy::{render_scope_line, replay, HierarchyConfig, Topology, UnitVerdict};
use dbcatcher_serve::protocol::{decode_response, Response};
use dbcatcher_serve::MetricsSnapshot;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Everything the daemon said, decoded and deduplicated.
#[derive(Debug, Default)]
pub struct Online {
    /// First delivery of every verdict line, by identity.
    pub verdicts: BTreeMap<Key, Vec<u8>>,
    /// Re-deliveries whose bytes differ from the first delivery.
    pub redelivery_mismatches: u64,
    /// `(due offset in ns, due → Accepted in ms)` per timed tick.
    pub acks: Vec<(u64, f64)>,
    /// `(due offset in ns, due → Verdict in ms)` per timed verdict (first
    /// delivery only), timed from the due time of the resolving tick.
    pub verdicts_due: Vec<(u64, f64)>,
    /// `Accepted` replies.
    pub accepted: u64,
    /// `Rejected` replies.
    pub rejected: u64,
    /// `Error` replies and undecodable lines.
    pub errors: Vec<String>,
    /// Highest `next_tick` any `FlushAck` reported, per unit.
    pub flushed_to: BTreeMap<usize, u64>,
    /// The last `Stats` reply.
    pub stats: Option<MetricsSnapshot>,
}

impl Online {
    /// Decodes every line of `inbox`. With `timing`, ticks of the timed
    /// phase (which started at the given instant) are timed from their
    /// due times.
    pub fn absorb(&mut self, inbox: &Inbox, timing: Option<(&Schedule, Instant)>) {
        for (line, arrived) in inbox.lines() {
            let decoded = std::str::from_utf8(line)
                .map_err(|e| e.to_string())
                .and_then(|text| decode_response(text).map_err(|e| e.to_string()));
            let response = match decoded {
                Ok(response) => response,
                Err(e) => {
                    self.errors.push(format!("undecodable reply: {e}"));
                    continue;
                }
            };
            let since_due = |unit: usize, tick: u64| -> Option<(u64, f64)> {
                let (schedule, t0) = timing?;
                if !schedule.is_timed(unit, tick) {
                    return None;
                }
                let due_ns = schedule.due_ns(unit, tick);
                let due = t0 + Duration::from_nanos(due_ns);
                Some((
                    due_ns,
                    arrived.saturating_duration_since(due).as_secs_f64() * 1e3,
                ))
            };
            match response {
                Response::Accepted { unit, tick } => {
                    self.accepted += 1;
                    if let Some(sample) = since_due(unit, tick) {
                        self.acks.push(sample);
                    }
                }
                Response::Rejected {
                    unit, tick, reason, ..
                } => {
                    self.rejected += 1;
                    self.errors
                        .push(format!("unit {unit} tick {tick} rejected: {reason:?}"));
                }
                Response::Verdict {
                    unit,
                    at_tick,
                    verdict,
                } => {
                    let key = (unit, at_tick, verdict.db, verdict.start_tick);
                    match self.verdicts.get(&key) {
                        Some(first) => {
                            if first.as_slice() != line {
                                self.redelivery_mismatches += 1;
                            }
                        }
                        None => {
                            self.verdicts.insert(key, line.to_vec());
                            if let Some(sample) = since_due(unit, at_tick) {
                                self.verdicts_due.push(sample);
                            }
                        }
                    }
                }
                Response::FlushAck {
                    unit, next_tick, ..
                } => {
                    let to = self.flushed_to.entry(unit).or_insert(0);
                    *to = (*to).max(next_tick);
                }
                Response::Stats(snapshot) => self.stats = Some(snapshot),
                Response::Error { message } => self.errors.push(message),
                _ => {}
            }
        }
    }
}

/// Verdict-stream comparison against the offline reference.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct VerdictDiff {
    /// In the reference, never delivered online.
    pub missing: u64,
    /// Delivered online, not in the reference.
    pub extra: u64,
    /// Same identity, different bytes.
    pub mismatched: u64,
}

impl VerdictDiff {
    /// Total failed verdicts.
    pub fn total(&self) -> u64 {
        self.missing + self.extra + self.mismatched
    }
}

/// Compares the deduplicated online stream with the reference lines.
pub fn diff_verdicts(
    online: &BTreeMap<Key, Vec<u8>>,
    reference: &BTreeMap<Key, String>,
) -> VerdictDiff {
    let mut diff = VerdictDiff::default();
    for (key, line) in reference {
        match online.get(key) {
            None => diff.missing += 1,
            Some(got) if got.as_slice() != line.as_bytes() => diff.mismatched += 1,
            Some(_) => {}
        }
    }
    diff.extra = online.keys().filter(|k| !reference.contains_key(k)).count() as u64;
    diff
}

/// The scope stream an offline `hierarchy::replay` of `records` renders,
/// for a roster of `units` under the daemon's default topology.
pub fn expected_scope(records: &[UnitVerdict], units: usize) -> Result<Vec<String>, String> {
    let topology = Topology::new(units, UNITS_PER_CLUSTER, CLUSTERS_PER_REGION)
        .map_err(|e| format!("topology: {e}"))?;
    Ok(
        replay(HierarchyConfig::new(topology), records.iter().cloned())
            .iter()
            .map(render_scope_line)
            .collect(),
    )
}

/// Lines that differ between two scope streams (position by position,
/// plus any length difference).
pub fn diff_lines(got: &[&str], want: &[String]) -> u64 {
    let differing = got
        .iter()
        .zip(want)
        .filter(|(g, w)| **g != w.as_str())
        .count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// The `q`-quantile of each of `segments` equal slices of `[0, span_ns)`,
/// by due time (the last slice also takes anything later); NaN for an
/// empty slice.
pub fn segment_quantiles(
    samples: &[(u64, f64)],
    span_ns: u64,
    segments: usize,
    q: f64,
) -> Vec<f64> {
    let mut slices = vec![Vec::new(); segments];
    for &(due, ms) in samples {
        slices[segment_of(due, span_ns, segments)].push(ms);
    }
    slices
        .iter()
        .map(|s| quantile(s, q).unwrap_or(f64::NAN))
        .collect()
}

/// The segment of `[0, span_ns)` cut into `segments` equal slices that
/// `due_ns` falls in; anything later falls in the last.
pub fn segment_of(due_ns: u64, span_ns: u64, segments: usize) -> usize {
    let width = (span_ns / segments as u64).max(1);
    ((due_ns / width) as usize).min(segments - 1)
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn segment_quantiles_slice_by_due_time() {
        let samples = [
            (0, 1.0),
            (10, 3.0),
            (50, 5.0),
            (60, 7.0),
            (99, 9.0),
            (150, 11.0),
        ];
        assert_eq!(segment_quantiles(&samples, 100, 2, 0.5), vec![2.0, 8.0]);
    }

    #[test]
    fn verdict_diff_counts_each_kind() {
        let reference: BTreeMap<Key, String> = [
            ((0, 19, 0, 0), "a".to_string()),
            ((0, 19, 1, 0), "b".to_string()),
            ((1, 19, 0, 0), "c".to_string()),
        ]
        .into_iter()
        .collect();
        let online: BTreeMap<Key, Vec<u8>> = [
            ((0, 19, 0, 0), b"a".to_vec()),
            ((0, 19, 1, 0), b"x".to_vec()),
            ((2, 19, 0, 0), b"d".to_vec()),
        ]
        .into_iter()
        .collect();
        let diff = diff_verdicts(&online, &reference);
        assert_eq!(
            diff,
            VerdictDiff {
                missing: 1,
                extra: 1,
                mismatched: 1
            }
        );
    }
}
