//! Fleet-scale monitoring with root-cause hints: many units detected
//! together (paper §IV-D4 runs 50 units), each alarm explained by the
//! ranked deviating KPIs and a cause hypothesis (paper future work §V).
//! Every tick goes through `score_batch`, which drives all units through
//! one shared scratch arena — the same wiring a `serve` shard uses.
//!
//! ```bash
//! cargo run --release --example fleet_monitoring
//! ```

use dbcatcher::core::diagnosis::diagnose;
use dbcatcher::core::scratch::TickScratch;
use dbcatcher::core::{score_batch, DbCatcher, DbCatcherConfig};
use dbcatcher::sim::{interpret_cause, Kpi};
use dbcatcher::workload::scenario::UnitScenario;

fn main() {
    // Eight units: most healthy, two carrying the paper's case studies.
    let scenarios: Vec<UnitScenario> = (0..8)
        .map(|i| match i {
            2 => UnitScenario::case_study_fragmentation(7),
            5 => UnitScenario::case_study_resource_hog(7),
            _ => UnitScenario::burst_demo(100 + i as u64),
        })
        .collect();
    let recordings: Vec<_> = scenarios.iter().map(|s| s.generate()).collect();
    let ticks = recordings.iter().map(|r| r.num_ticks()).min().unwrap();

    let config = DbCatcherConfig::default();
    let mut fleet: Vec<DbCatcher> = recordings
        .iter()
        .map(|r| {
            DbCatcher::new(config.clone(), r.num_databases())
                .with_participation(r.participation.clone())
        })
        .collect();
    let mut scratch = TickScratch::new();
    println!(
        "monitoring {} units through one scratch arena\n",
        fleet.len()
    );

    let started = std::time::Instant::now();
    let mut alarms = 0;
    for t in 0..ticks {
        let frames: Vec<_> = recordings.iter().map(|r| r.tick_matrix(t)).collect();
        let verdicts =
            score_batch(fleet.iter_mut(), &frames, &mut scratch).expect("clean recordings");
        for fv in verdicts {
            if !fv.verdict.state.is_abnormal() {
                continue;
            }
            alarms += 1;
            let diagnosis = diagnose(&fv.verdict, &config);
            let kpis: Vec<Kpi> = diagnosis
                .deviations
                .iter()
                .map(|d| Kpi::from_index(d.kpi))
                .collect();
            let hint = interpret_cause(&kpis);
            println!(
                "unit {} db {} [{}..{}): {:?}",
                fv.unit,
                fv.verdict.db + 1,
                fv.verdict.start_tick,
                fv.verdict.end_tick,
                hint
            );
            println!("   {}", hint.description());
            for d in diagnosis.deviations.iter().take(3) {
                println!(
                    "   {} score {:.2} ({:?})",
                    Kpi::from_index(d.kpi).name(),
                    d.score,
                    d.level
                );
            }
        }
    }
    let verdict_count: u64 = fleet.iter().map(DbCatcher::verdict_count).sum();
    let window_sum: f64 = fleet
        .iter()
        .map(|c| c.average_window_size() * c.verdict_count() as f64)
        .sum();
    let avg_window = window_sum / verdict_count.max(1) as f64;
    let correlation: std::time::Duration = fleet.iter().map(|c| c.timing().correlation).sum();
    let observation: std::time::Duration = fleet.iter().map(|c| c.timing().observation).sum();
    println!(
        "\n{} alarms over {} unit-ticks in {:.2?}; avg window {:.1} ticks; \
         correlation {:.0}% / observation {:.0}% of detection time",
        alarms,
        ticks * recordings.len(),
        started.elapsed(),
        avg_window,
        100.0 * correlation.as_secs_f64() / (correlation + observation).as_secs_f64(),
        100.0 * observation.as_secs_f64() / (correlation + observation).as_secs_f64(),
    );
    assert!(alarms >= 2, "both case studies must alarm");
}
