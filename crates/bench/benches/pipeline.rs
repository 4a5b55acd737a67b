//! Criterion bench: DBCatcher's streaming pipeline — cost per ingested
//! monitoring tick for a 5-database unit, plus a whole-window judgement.

use criterion::{criterion_group, criterion_main, Criterion};
use dbcatcher_core::{DbCatcher, DbCatcherConfig};
use std::hint::black_box;

fn frames(ticks: usize) -> Vec<Vec<Vec<f64>>> {
    (0..ticks)
        .map(|t| {
            (0..5)
                .map(|db| {
                    (0..14)
                        .map(|kpi| {
                            let tf = t as f64;
                            100.0 * (1.0 + 0.1 * db as f64)
                                + 30.0 * (std::f64::consts::TAU * (tf + kpi as f64) / 40.0).sin()
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("dbcatcher_pipeline");

    // steady-state cost per tick (includes one full judgement per window)
    let frames_200 = frames(200);
    group.bench_function("ingest_200_ticks_unit5x14", |b| {
        b.iter(|| {
            let mut catcher = DbCatcher::new(DbCatcherConfig::default(), 5);
            for f in &frames_200 {
                black_box(catcher.ingest_tick(black_box(f)));
            }
            catcher.average_window_size()
        })
    });

    // component split mirror of §IV-D4
    group.bench_function("ingest_200_ticks_lag_halfwindow", |b| {
        let config = DbCatcherConfig {
            delay_scan: dbcatcher_core::config::DelayScan::HalfWindow,
            ..DbCatcherConfig::default()
        };
        b.iter(|| {
            let mut catcher = DbCatcher::new(config.clone(), 5);
            for f in &frames_200 {
                black_box(catcher.ingest_tick(black_box(f)));
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
