//! Property-based tests (proptest) over the cross-crate invariants.

use dbcatcher::core::kcd::kcd;
use dbcatcher::core::kcd_incremental::{pair_score, NormWindow};
use dbcatcher::core::levels::{level_row, score_to_level, Level};
use dbcatcher::core::queues::KpiQueues;
use dbcatcher::core::state::{determine_state, DbState};
use dbcatcher::eval::metrics::{confusion_from, point_adjust, Confusion};
use dbcatcher::signal::normalize::min_max;
use proptest::prelude::*;
use std::collections::VecDeque;

fn finite_series(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 2..max_len)
}

proptest! {
    /// KCD is symmetric and bounded.
    #[test]
    fn kcd_symmetric_and_bounded(
        x in finite_series(40),
        lag in 0usize..10,
    ) {
        let y: Vec<f64> = x.iter().rev().cloned().collect();
        let a = kcd(&x, &y, lag);
        let b = kcd(&y, &x, lag);
        prop_assert!((a - b).abs() < 1e-9);
        prop_assert!((-1.0..=1.0).contains(&a));
    }

    /// KCD is invariant under positive affine transforms of either input.
    #[test]
    fn kcd_affine_invariant(
        x in finite_series(40),
        scale in 0.1f64..100.0,
        shift in -1e4f64..1e4,
    ) {
        let y: Vec<f64> = x.iter().map(|v| (v * 1.3).sin() * 10.0).collect();
        let y2: Vec<f64> = y.iter().map(|v| v * scale + shift).collect();
        let a = kcd(&x, &y, 3);
        let b = kcd(&x, &y2, 3);
        prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    /// Self-correlation is perfect.
    #[test]
    fn kcd_self_is_one(x in finite_series(40)) {
        prop_assert!((kcd(&x, &x, 5) - 1.0).abs() < 1e-9);
    }

    /// A shift by s ticks is fully recovered by any lag scan with m >= s
    /// (the paper's point-in-time delay tolerance), provided the
    /// overlapping segment actually varies.
    #[test]
    fn kcd_recovers_shift_within_scan(
        base in finite_series(60),
        s in 0usize..5,
    ) {
        if base.len() <= s + 2 {
            return; // too short for this shift — skip the draw
        }
        let n = base.len() - s;
        let x: Vec<f64> = base[s..].to_vec();
        let y: Vec<f64> = base[..n].to_vec();
        // degenerate overlaps (constant segment) take the convention
        // branches instead of scoring 1
        let seg = &base[s..n];
        let spread = seg.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - seg.iter().cloned().fold(f64::INFINITY, f64::min);
        if spread <= 1e-6 {
            return;
        }
        let score = kcd(&x, &y, s);
        prop_assert!(score > 1.0 - 1e-9, "shift {s} not recovered: {score}");
    }

    /// Constant-window conventions: constant–constant pairs score exactly
    /// 1, constant–varying pairs exactly 0 (paper §III-B unused rule).
    #[test]
    fn kcd_constant_conventions(
        c1 in -1e6f64..1e6,
        c2 in -1e6f64..1e6,
        varying in finite_series(40),
    ) {
        let n = varying.len();
        let spread = varying.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - varying.iter().cloned().fold(f64::INFINITY, f64::min);
        if spread <= 0.0 {
            return; // a flat draw would test the wrong convention
        }
        let flat1 = vec![c1; n];
        let flat2 = vec![c2; n];
        prop_assert_eq!(kcd(&flat1, &flat2, 3), 1.0);
        prop_assert_eq!(kcd(&flat1, &varying, 3), 0.0);
        prop_assert_eq!(kcd(&varying, &flat2, 3), 0.0);
    }

    /// The incremental engine agrees with the naive oracle on arbitrary
    /// window contents and scan ranges.
    #[test]
    fn incremental_matches_naive_oracle(
        x in finite_series(50),
        seed in 0u64..1000,
        m in 0usize..6,
    ) {
        // derive a second stream deterministically from the first
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| (v * 0.7).sin() * 100.0 + ((seed + i as u64) % 13) as f64)
            .collect();
        let (mut wx, mut wy) = (NormWindow::default(), NormWindow::default());
        wx.fill(&x);
        wy.fill(&y);
        let fast = pair_score(&wx, &wy, m);
        let slow = kcd(&x, &y, m);
        prop_assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
    }

    /// Min–max output always lies in [0, 1] and is idempotent.
    #[test]
    fn min_max_contract(x in finite_series(60)) {
        let once = min_max(&x);
        prop_assert!(once.iter().all(|v| (0.0..=1.0).contains(v)));
        let twice = min_max(&once);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Level quantisation is monotone in the score.
    #[test]
    fn levels_monotone(
        s1 in -1.0f64..1.0,
        s2 in -1.0f64..1.0,
        alpha in 0.3f64..0.95,
        theta in 0.05f64..0.3,
    ) {
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let l_lo = score_to_level(lo, alpha, theta);
        let l_hi = score_to_level(hi, alpha, theta);
        prop_assert!(l_lo <= l_hi, "{l_lo:?} > {l_hi:?}");
    }

    /// State determination: adding a level-1 KPI can only make the state
    /// worse, and a fully correlated row is healthy.
    #[test]
    fn state_decision_sane(
        scores in prop::collection::vec(0.71f64..1.0, 1..14),
        tolerance in 0usize..4,
    ) {
        let alphas = vec![0.7; scores.len()];
        let row = level_row(&scores, &alphas, 0.2);
        prop_assert_eq!(determine_state(&row, tolerance), DbState::Healthy);
        // degrade one KPI to extreme deviation
        let mut bad = scores.clone();
        bad[0] = 0.1;
        let row = level_row(&bad, &alphas, 0.2);
        prop_assert_eq!(determine_state(&row, tolerance), DbState::Abnormal);
    }

    /// Precision/recall/F1 stay in [0, 1] and point-adjust never reduces
    /// recall.
    #[test]
    fn metrics_bounds_and_adjust_monotonicity(
        preds in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let labels: Vec<bool> = preds.iter().enumerate().map(|(i, _)| i % 7 < 2).collect();
        let raw: Confusion = confusion_from(&preds, &labels);
        for v in [raw.precision(), raw.recall(), raw.f_measure()] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        let mut adjusted = preds.clone();
        point_adjust(&mut adjusted, &labels);
        let adj = confusion_from(&adjusted, &labels);
        prop_assert!(adj.recall() + 1e-12 >= raw.recall());
        // adjustment never invents alarms on healthy ticks
        for (i, (&a, &p)) in adjusted.iter().zip(&preds).enumerate() {
            if !labels[i] {
                prop_assert_eq!(a, p);
            }
        }
    }

    /// The flat slab layout of [`KpiQueues`] is observationally identical
    /// — bit for bit — to the original nested `VecDeque` rings across
    /// pushes, wrap-arounds and snapshot/restore cycles.
    #[test]
    fn flat_queues_match_nested_ring_model(
        dbs in 1usize..4,
        kpis in 1usize..4,
        cap in 1usize..9,
        seeds in prop::collection::vec(-1e9f64..1e9, 1..80),
        restore_every in 1usize..20,
    ) {
        let mut q = KpiQueues::new(dbs, kpis, cap);
        let mut model: Vec<Vec<VecDeque<f64>>> = vec![vec![VecDeque::new(); kpis]; dbs];
        for (t, &seed) in seeds.iter().enumerate() {
            let frame: Vec<Vec<f64>> = (0..dbs)
                .map(|db| {
                    (0..kpis)
                        .map(|k| seed * (1.0 + 0.1 * db as f64) + k as f64)
                        .collect()
                })
                .collect();
            q.push(&frame);
            for (db, kpis_row) in frame.iter().enumerate() {
                for (k, &v) in kpis_row.iter().enumerate() {
                    let ring = &mut model[db][k];
                    ring.push_back(v);
                    if ring.len() > cap {
                        ring.pop_front();
                    }
                }
            }
            // periodic serde round trip: a warm restart mid-stream must
            // not perturb a single bit
            if (t + 1) % restore_every == 0 {
                let json = serde_json::to_string(&q).expect("serialize");
                q = serde_json::from_str(&json).expect("restore");
            }
            let base = (t as u64 + 1).saturating_sub(cap as u64);
            prop_assert_eq!(q.base_tick(), base);
            prop_assert_eq!(q.next_tick(), t as u64 + 1);
            let retained = (q.next_tick() - base) as usize;
            for (db, rings) in model.iter().enumerate() {
                for (k, ring) in rings.iter().enumerate() {
                    let slice = q.window_slice(db, k, base, retained)
                        .expect("retained span addressable");
                    prop_assert_eq!(slice.len(), ring.len());
                    for (a, b) in slice.iter().zip(ring.iter()) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                    if base > 0 {
                        prop_assert!(
                            q.window_slice(db, k, base - 1, 1).is_none(),
                            "evicted tick must stay refused"
                        );
                    }
                }
            }
        }
    }

    /// Window verdict expansion covers exactly the judged ticks.
    #[test]
    fn verdict_ticks_cover_windows(
        scores in prop::collection::vec(0.0f64..10.0, 20..120),
        w in 5usize..30,
        thr in 0.0f64..10.0,
    ) {
        let ticks = dbcatcher::eval::metrics::verdict_ticks(&scores, w, thr);
        prop_assert_eq!(ticks.len(), scores.len());
        // trailing partial window always healthy
        let full = (scores.len() / w) * w;
        for &t in &ticks[full..] {
            prop_assert!(!t);
        }
        // each full window is all-true or all-false
        for chunk in ticks[..full].chunks(w) {
            let first = chunk[0];
            prop_assert!(chunk.iter().all(|&c| c == first));
        }
    }
}

/// Non-proptest sanity: Level ordering used by the monotonicity property.
#[test]
fn level_order_is_semantic() {
    assert!(Level::ExtremeDeviation < Level::SlightDeviation);
    assert!(Level::SlightDeviation < Level::Correlated);
}
