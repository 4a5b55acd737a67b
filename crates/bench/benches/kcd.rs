//! Criterion bench: the KCD correlation measurement (the 70 % component
//! of §IV-D4) against Pearson and DTW, plus the lag-scan ablation.
//!
//! Besides wall clock, the binary audits the heap: a counting global
//! allocator tallies allocations per steady-state tick for each backend
//! and, when `DBCATCHER_BENCH_ALLOCS=<path>` is set, writes them as JSON
//! for `bench_report` to merge into `BENCH_kcd.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbcatcher_baselines::correlation::{dtw_score, pearson_score};
use dbcatcher_core::kcd::kcd;
use dbcatcher_core::kcd_incremental::{pair_score, NormWindow};
use dbcatcher_core::queues::KpiQueues;
use dbcatcher_core::scratch::TickScratch;
use dbcatcher_core::{score_batch, DbCatcher, DbCatcherConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY AUDIT — the workspace's one sanctioned `unsafe` surface, the
// counting allocator (this file and its twin `tests/zero_alloc.rs` are
// excluded from dbclint's `no-unsafe` rule).
//
// `GlobalAlloc` is an unsafe trait because the allocator must uphold the
// contract rustc's codegen relies on: returned pointers are valid for
// `layout`, dealloc/realloc are only reached with pointers this allocator
// handed out, and no unwinding crosses the allocator boundary. This impl
// delegates every operation verbatim to `std::alloc::System` — the same
// allocator the program would use anyway — and only increments a relaxed
// atomic counter on the side. The counter cannot unwind, allocate, or
// touch the pointer, so the entire safety obligation is inherited from
// `System`, which upholds it by definition.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// (window k, lag scan m, databases d) spanning the deployment ranges;
/// (300, 5, 16) is the speedup acceptance point.
const CONFIGS: &[(usize, usize, usize)] = &[
    (30, 0, 4),
    (30, 3, 4),
    (60, 3, 8),
    (120, 5, 8),
    (120, 0, 8),
    (300, 5, 16),
];

fn series(n: usize, phase: f64) -> Vec<f64> {
    // deterministic noise keeps any lag from reaching exactly 1.0, so the
    // half-window scan cannot take KCD's perfect-score early exit
    let mut state = 0x5EED_u64.wrapping_add(phase as u64);
    (0..n)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5;
            100.0 + 30.0 * (std::f64::consts::TAU * (i as f64 + phase) / 24.0).sin() + 2.0 * noise
        })
        .collect()
}

fn bench_kcd(c: &mut Criterion) {
    let mut group = c.benchmark_group("correlation_measures");
    for &n in &[20usize, 40, 60] {
        let x = series(n, 0.0);
        let y = series(n, 2.0);
        group.bench_with_input(BenchmarkId::new("kcd_lag3", n), &n, |b, _| {
            b.iter(|| kcd(black_box(&x), black_box(&y), 3))
        });
        group.bench_with_input(BenchmarkId::new("kcd_halfwindow", n), &n, |b, _| {
            b.iter(|| kcd(black_box(&x), black_box(&y), n / 2))
        });
        group.bench_with_input(BenchmarkId::new("pearson", n), &n, |b, _| {
            b.iter(|| pearson_score(black_box(&x), black_box(&y)))
        });
        group.bench_with_input(BenchmarkId::new("dtw", n), &n, |b, _| {
            b.iter(|| dtw_score(black_box(&x), black_box(&y), 3))
        });
    }
    group.finish();
}

/// The incremental backend's share of one tick: normalise each
/// database's trailing window of `k` ticks once, then score every pair.
fn incremental_pairs(queues: &KpiQueues, windows: &mut [NormWindow], k: usize, m: usize) -> f64 {
    let start = queues.next_tick() - k as u64;
    for (db, w) in windows.iter_mut().enumerate() {
        w.fill(
            queues
                .window_slice(db, 0, black_box(start), k)
                .expect("window"),
        );
    }
    let mut acc = 0.0;
    for i in 0..windows.len() {
        for j in (i + 1)..windows.len() {
            acc += pair_score(&windows[i], &windows[j], m);
        }
    }
    acc
}

/// One steady-state detector tick per iteration: ingest a frame, then
/// score every database pair over the trailing window of `k` ticks —
/// exactly the per-KPI work `aggregated_scores` does at judgement time.
fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("kcd_backends");
    for &(k, m, d) in CONFIGS {
        let data: Vec<Vec<f64>> = (0..d).map(|db| series(4 * k, db as f64 * 1.7)).collect();
        let frame_at =
            |t: usize| -> Vec<Vec<f64>> { data.iter().map(|s| vec![s[t % s.len()]]).collect() };
        let label = format!("k{k}_m{m}_d{d}");

        let mut queues = KpiQueues::new(d, 1, 2 * k);
        let mut tick = 0usize;
        while tick < k {
            queues.push(&frame_at(tick));
            tick += 1;
        }
        group.bench_with_input(BenchmarkId::new("naive", &label), &k, |b, _| {
            b.iter(|| {
                queues.push(&frame_at(tick));
                tick += 1;
                let start = queues.next_tick() - k as u64;
                let mut acc = 0.0;
                for i in 0..d {
                    for j in (i + 1)..d {
                        let x = queues.window_slice(i, 0, start, k).expect("window");
                        let y = queues.window_slice(j, 0, start, k).expect("window");
                        acc += kcd(black_box(x), black_box(y), m);
                    }
                }
                black_box(acc)
            })
        });

        let mut queues = KpiQueues::new(d, 1, 2 * k);
        let mut windows = vec![NormWindow::default(); d];
        let mut tick = 0usize;
        while tick < k {
            queues.push(&frame_at(tick));
            tick += 1;
        }
        group.bench_with_input(BenchmarkId::new("incremental", &label), &k, |b, _| {
            b.iter(|| {
                queues.push(&frame_at(tick));
                tick += 1;
                black_box(incremental_pairs(&queues, &mut windows, k, m))
            })
        });
    }
    group.finish();
}

/// One full lag scan at the acceptance config (k=300, m=5): the whole
/// sweep of one pair over two normalised windows, the kernel the
/// correlation step repeats.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kcd_kernels");
    let (k, m) = (300usize, 5usize);
    let mut x = NormWindow::default();
    let mut y = NormWindow::default();
    // samples k..2k: the trailing window of a queue filled to 2k ticks
    x.fill(&series(2 * k, 0.0)[k..]);
    y.fill(&series(2 * k, 1.7)[k..]);
    group.bench_with_input(BenchmarkId::new("pair_scan", k), &k, |b, _| {
        b.iter(|| pair_score(black_box(&x), black_box(&y), m))
    });
    group.finish();
}

/// Fleet-batched vs per-unit scoring at 1/8/64 units: the same detector
/// ticks driven through `try_ingest_tick` (each unit re-warming its own
/// arena) versus `score_batch` (one shared arena amortising the pooled
/// batch matrices and staging buffers across the batch).
fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("kcd_batch");
    const DBS: usize = 4;
    const KPIS: usize = 2;
    let config = DbCatcherConfig::with_kpis(KPIS);
    let warmup = 2 * config.max_window;
    let total = 4 * config.max_window;
    for &units in &[1usize, 8, 64] {
        // frames[t][unit] — prebuilt so only ingest + scoring is timed.
        let sers: Vec<Vec<f64>> = (0..units * DBS)
            .map(|i| series(total, i as f64 * 1.7))
            .collect();
        let frames: Vec<Vec<Vec<Vec<f64>>>> = (0..total)
            .map(|t| {
                (0..units)
                    .map(|u| {
                        (0..DBS)
                            .map(|db| vec![sers[u * DBS + db][t]; KPIS])
                            .collect()
                    })
                    .collect()
            })
            .collect();

        let fresh_fleet = || -> Vec<DbCatcher> {
            let mut fleet: Vec<DbCatcher> = (0..units)
                .map(|_| DbCatcher::new(config.clone(), DBS))
                .collect();
            for frame in frames.iter().take(warmup) {
                for (u, catcher) in fleet.iter_mut().enumerate() {
                    catcher.ingest_tick(&frame[u]);
                }
            }
            fleet
        };

        let mut fleet = fresh_fleet();
        let mut tick = warmup;
        group.bench_with_input(BenchmarkId::new("per_unit", units), &units, |b, _| {
            b.iter(|| {
                let t = tick % total;
                tick += 1;
                let mut verdicts = 0usize;
                for (u, catcher) in fleet.iter_mut().enumerate() {
                    verdicts += catcher.ingest_tick(black_box(&frames[t][u])).len();
                }
                black_box(verdicts)
            })
        });

        let mut fleet = fresh_fleet();
        let mut scratch = TickScratch::new();
        let mut tick = warmup;
        group.bench_with_input(BenchmarkId::new("batched", units), &units, |b, _| {
            b.iter(|| {
                let t = tick % total;
                tick += 1;
                let verdicts = score_batch(fleet.iter_mut(), black_box(&frames[t]), &mut scratch)
                    .expect("well-shaped frames")
                    .len();
                black_box(verdicts)
            })
        });
    }
    group.finish();
}

/// Heap audit: allocations per steady-state tick for both backends, one
/// row per config, written to `DBCATCHER_BENCH_ALLOCS`. Frames are built
/// ahead of the measured span so only push + scoring are counted —
/// mirroring the timing loops above exactly.
fn audit_allocs(_c: &mut Criterion) {
    let Ok(path) = std::env::var("DBCATCHER_BENCH_ALLOCS") else {
        return;
    };
    const MEASURE: usize = 64;
    let mut rows: Vec<serde::Value> = Vec::new();
    for &(k, m, d) in CONFIGS {
        let data: Vec<Vec<f64>> = (0..d).map(|db| series(4 * k, db as f64 * 1.7)).collect();
        let total = 3 * k + MEASURE;
        let frames: Vec<Vec<Vec<f64>>> = (0..total)
            .map(|t| data.iter().map(|s| vec![s[t % s.len()]]).collect())
            .collect();
        let label = format!("k{k}_m{m}_d{d}");

        let naive_tick = |queues: &mut KpiQueues, frame: &[Vec<f64>]| -> f64 {
            queues.push(frame);
            let start = queues.next_tick() - k as u64;
            let mut acc = 0.0;
            for i in 0..d {
                for j in (i + 1)..d {
                    let x = queues.window_slice(i, 0, start, k).expect("window");
                    let y = queues.window_slice(j, 0, start, k).expect("window");
                    acc += kcd(black_box(x), black_box(y), m);
                }
            }
            acc
        };
        let mut queues = KpiQueues::new(d, 1, 2 * k);
        for frame in &frames[..k] {
            queues.push(frame);
        }
        for frame in &frames[k..3 * k] {
            black_box(naive_tick(&mut queues, frame));
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for frame in &frames[3 * k..] {
            black_box(naive_tick(&mut queues, frame));
        }
        let naive_allocs = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / MEASURE as f64;

        let incremental_tick =
            |queues: &mut KpiQueues, windows: &mut [NormWindow], frame: &[Vec<f64>]| -> f64 {
                queues.push(frame);
                incremental_pairs(queues, windows, k, m)
            };
        let mut queues = KpiQueues::new(d, 1, 2 * k);
        let mut windows = vec![NormWindow::default(); d];
        for frame in &frames[..k] {
            queues.push(frame);
        }
        for frame in &frames[k..3 * k] {
            black_box(incremental_tick(&mut queues, &mut windows, frame));
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for frame in &frames[3 * k..] {
            black_box(incremental_tick(&mut queues, &mut windows, frame));
        }
        let incremental_allocs =
            (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / MEASURE as f64;

        rows.push(serde_json::json!({
            "config": label,
            "naive_allocs_per_tick": naive_allocs,
            "incremental_allocs_per_tick": incremental_allocs,
        }));
        println!(
            "allocs/tick {label}: naive {naive_allocs:.1}, incremental {incremental_allocs:.1}"
        );
    }
    let report = serde_json::json!({ "allocs": rows });
    let json = serde_json::to_string(&report).expect("render alloc report");
    std::fs::write(&path, format!("{json}\n")).expect("write alloc report");
}

criterion_group!(
    benches,
    bench_kcd,
    bench_backends,
    bench_kernels,
    bench_batch,
    audit_allocs
);
criterion_main!(benches);
