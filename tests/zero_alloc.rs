//! Counting-allocator harness pinning the hot-path heap budget.
//!
//! The detection hot path (flat queues + scratch arenas + preallocated
//! incremental state) is designed to stop allocating once warm: after the
//! buffers have grown to the unit's steady shape, a **non-judging**
//! `ingest_tick` must perform **zero** heap allocations. Judging ticks are
//! allowed to allocate — they build `Verdict` values the caller keeps.
//!
//! The allocator below wraps `System` and counts every `alloc` /
//! `realloc` / `alloc_zeroed` in this test binary (integration tests link
//! their own binaries, so the counter never sees other suites).

use dbcatcher::core::config::{CorrelationBackend, DbCatcherConfig, DelayScan};
use dbcatcher::core::pipeline::DbCatcher;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY AUDIT — the workspace's one sanctioned `unsafe` surface, the
// counting allocator (this file and its twin `crates/bench/benches/kcd.rs`
// are excluded from dbclint's `no-unsafe` rule).
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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Healthy, correlated telemetry: every database follows the same
/// sinusoid family, so windows resolve at the initial size and nothing
/// demotes or expands.
fn fill_frame(frame: &mut [Vec<f64>], kpis: usize, t: u64) {
    for (db, row) in frame.iter_mut().enumerate() {
        row.clear();
        for k in 0..kpis {
            let tf = t as f64;
            row.push(
                100.0 * (1.0 + 0.05 * db as f64)
                    + 30.0 * (std::f64::consts::TAU * (tf + k as f64) / 30.0).sin(),
            );
        }
    }
}

#[test]
fn steady_state_tick_allocates_nothing() {
    let dbs = 4usize;
    let kpis = 6usize;
    let config = DbCatcherConfig {
        initial_window: 20,
        max_window: 60,
        delay_scan: DelayScan::Fixed(3),
        backend: CorrelationBackend::Incremental,
        ..DbCatcherConfig::with_kpis(kpis)
    };
    let mut catcher = DbCatcher::new(config, dbs);
    let mut frame: Vec<Vec<f64>> = (0..dbs).map(|_| Vec::with_capacity(kpis)).collect();

    // Warmup: roughly three retention spans, enough for every queue,
    // deque, cache and hash table to reach its steady capacity.
    let warmup = 450u64;
    for t in 0..warmup {
        fill_frame(&mut frame, kpis, t);
        catcher
            .try_ingest_tick(&frame)
            .expect("healthy frame accepted");
    }

    let mut quiet_ticks = 0u64;
    let mut judging_ticks = 0u64;
    for t in warmup..warmup + 200 {
        fill_frame(&mut frame, kpis, t);
        let before = allocations();
        let report = catcher
            .try_ingest_tick(&frame)
            .expect("healthy frame accepted");
        let allocated = allocations() - before;
        if report.verdicts.is_empty() {
            assert_eq!(
                allocated, 0,
                "non-judging tick {t} allocated {allocated} times"
            );
            quiet_ticks += 1;
        } else {
            judging_ticks += 1;
        }
    }
    assert!(
        quiet_ticks >= 150,
        "only {quiet_ticks} quiet ticks measured"
    );
    assert!(judging_ticks > 0, "windows never resolved — bad fixture");
}
