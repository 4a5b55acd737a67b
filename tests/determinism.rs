//! Determinism of the shared scratch arena: a serve shard and
//! [`score_batch`] drive every unit they own through one [`TickScratch`].
//! Here units of 3, 5 and 16 databases share one arena, so its buffers
//! are reshaped on every unit hand-over. Each tick's verdicts must equal
//! those of isolated detectors (each with its own arena) bit for bit and
//! in the same order, under both correlation backends.

use dbcatcher::core::config::CorrelationBackend;
use dbcatcher::core::scratch::TickScratch;
use dbcatcher::core::{score_batch, DbCatcher, DbCatcherConfig, FleetVerdict};
use dbcatcher::workload::scenario::UnitScenario;

#[test]
fn shared_scratch_matches_isolated_detectors_on_both_backends() {
    // Quickstart units resized to 3, 5 and 16 databases; each carries the
    // injected load-skew episode on database 2, so abnormal verdicts are
    // compared too.
    let units: Vec<_> = [(11u64, 3usize), (42, 5), (99, 16)]
        .iter()
        .map(|&(seed, dbs)| {
            let mut scenario = UnitScenario::quickstart(seed);
            scenario.num_databases = dbs;
            scenario.generate()
        })
        .collect();
    let ticks = units[0].num_ticks();
    let kpis = units[0].num_kpis();
    // a verdict as comparable bits: masked KPIs score NaN, so `Vec<f64>`
    // equality would reject identical verdicts
    let bits = |fv: &FleetVerdict| {
        let v = &fv.verdict;
        let scores: Vec<u64> = v.scores.iter().map(|s| s.to_bits()).collect();
        let fields = (v.db, v.start_tick, v.end_tick, v.state, v.window_size);
        (fv.unit, fields, v.expansions, scores)
    };

    for backend in [CorrelationBackend::Naive, CorrelationBackend::Incremental] {
        let config = DbCatcherConfig {
            backend,
            ..DbCatcherConfig::with_kpis(kpis)
        };
        let build = || -> Vec<DbCatcher> {
            units
                .iter()
                .map(|u| {
                    DbCatcher::new(config.clone(), u.num_databases())
                        .with_participation(u.participation.clone())
                })
                .collect()
        };
        let (mut isolated, mut shared) = (build(), build());
        let mut scratch = TickScratch::new();
        let mut judged = [false; 3];
        let mut abnormal = 0usize;
        for t in 0..ticks {
            let frames: Vec<Vec<Vec<f64>>> = units.iter().map(|u| u.tick_matrix(t)).collect();
            let mut expect = Vec::new();
            for (unit, catcher) in isolated.iter_mut().enumerate() {
                for verdict in catcher.ingest_tick(&frames[unit]) {
                    expect.push(FleetVerdict { unit, verdict });
                }
            }
            let got = score_batch(shared.iter_mut(), &frames, &mut scratch)
                .expect("clean frames accepted");
            assert_eq!(
                expect.iter().map(bits).collect::<Vec<_>>(),
                got.iter().map(bits).collect::<Vec<_>>(),
                "{backend:?} tick {t}"
            );
            for v in &got {
                judged[v.unit] = true;
                abnormal += usize::from(v.verdict.state.is_abnormal());
            }
        }
        assert_eq!(judged, [true; 3], "{backend:?}: a unit was never judged");
        assert!(
            abnormal > 0,
            "{backend:?}: scenario never alarmed — comparison too weak"
        );
    }
}
