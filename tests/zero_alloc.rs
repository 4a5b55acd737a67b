//! Counting-allocator harness pinning the hot-path heap budget.
//!
//! The detection hot path (flat queues + scratch arenas holding the
//! pooled normalised windows) is designed to stop allocating once warm:
//! after the buffers have grown to the unit's steady shape, a
//! **non-judging** `ingest_tick` must perform **zero** heap allocations.
//! Judging ticks are allowed to allocate — they build `Verdict` values
//! the caller keeps.
//!
//! The second budget is size, not count: the queues are a detector's only
//! copy of its samples, so a default-config detector may hold at most
//! 1.2× its `KpiQueues` slab, fresh and after serving ticks through a
//! separate arena.
//!
//! The third budget is the wire's: decoding a steady producer's `Tick`
//! line allocates only the frame it returns (one vector per database plus
//! the outer one), and writing an `Accepted` or `Verdict` reply into a
//! warm buffer allocates nothing.
//!
//! The allocator below wraps `System` and counts every `alloc` /
//! `realloc` / `alloc_zeroed` per thread, and keeps a process-wide running
//! total of live heap bytes (integration tests link their own binaries,
//! so the counters never see other suites). The count is per thread
//! because the test harness spawns and reports tests on other threads
//! while a test measures. The live-bytes total is process-wide, so the
//! tests take [`SERIAL`] and never overlap.

use dbcatcher::core::config::{CorrelationBackend, DbCatcherConfig, DelayScan};
use dbcatcher::core::pipeline::DbCatcher;
use dbcatcher::core::scratch::TickScratch;
use dbcatcher::core::state::DbState;
use dbcatcher::core::Verdict;
use dbcatcher::serve::protocol::{decode_request, encode, write_response, Request, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAllocator;

thread_local! {
    // `const`-initialised and without `Drop`: reading it never
    // allocates and never registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

// SAFETY AUDIT — the workspace's one sanctioned `unsafe` surface, the
// counting allocator (this file and its twin `crates/bench/benches/kcd.rs`
// are excluded from dbclint's `no-unsafe` rule).
//
// `GlobalAlloc` is an unsafe trait because the allocator must uphold the
// contract rustc's codegen relies on: returned pointers are valid for
// `layout`, dealloc/realloc are only reached with pointers this allocator
// handed out, and no unwinding crosses the allocator boundary. This impl
// delegates every operation verbatim to `std::alloc::System` — the same
// allocator the program would use anyway — and only updates a relaxed
// atomic and a `const` thread-local counter on the side (`try_with`, so
// a thread being torn down is skipped, not a panic). The counters cannot
// unwind or allocate,
// and they never dereference a pointer (a null check compares its
// value), so the entire safety obligation is inherited from `System`,
// which upholds it by definition.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        let moved = System.realloc(ptr, layout, new_size);
        // on failure the old block stays allocated at its old size
        if !moved.is_null() {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Holds the counters for one test; a failed test must not wedge the rest.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
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
    let _serial = serial();
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

/// Heap bytes held by a default-config detector of `dbs` databases, as
/// `(fresh, after 400 ticks)`. The ticks run through
/// `try_ingest_tick_with` with a separate arena, dropped before the
/// second reading, so only the detector's own state is measured.
fn detector_heap(dbs: usize) -> (i64, i64) {
    let config = DbCatcherConfig::default();
    let kpis = config.num_kpis;
    let mut frame: Vec<Vec<f64>> = (0..dbs).map(|_| Vec::with_capacity(kpis)).collect();
    let mut scratch = TickScratch::new();
    let before = live_bytes();
    let mut catcher = DbCatcher::try_new(config, dbs).expect("default config is valid");
    let fresh = live_bytes() - before;
    let mut verdicts = 0usize;
    for t in 0..400 {
        fill_frame(&mut frame, kpis, t);
        verdicts += catcher
            .try_ingest_tick_with(&frame, &mut scratch)
            .expect("healthy frame accepted")
            .verdicts
            .len();
    }
    assert!(verdicts > 0, "windows never resolved — bad fixture");
    drop(scratch);
    let served = live_bytes() - before;
    drop(catcher);
    (fresh, served)
}

/// `KpiQueues` slab of a default-config unit: `dbs·kpis` series of
/// `2·capacity` samples, where the retention `capacity` is two maximum
/// windows plus an initial one.
fn queue_slab_bytes(dbs: usize) -> i64 {
    let config = DbCatcherConfig::default();
    let capacity = config.max_window * 2 + config.initial_window;
    (dbs * config.num_kpis * 2 * capacity * std::mem::size_of::<f64>()) as i64
}

#[test]
fn detector_heap_stays_within_the_queue_slab() {
    let _serial = serial();
    for (dbs, budget) in [(5usize, 188_160i64), (16, 602_112)] {
        assert_eq!(
            queue_slab_bytes(dbs) * 6 / 5,
            budget,
            "{dbs} DBs: default config moved; re-derive the budget"
        );
        let (fresh, served) = detector_heap(dbs);
        assert!(
            fresh <= budget,
            "{dbs} DBs: a fresh detector holds {fresh} B, budget {budget} B"
        );
        assert!(
            served <= budget,
            "{dbs} DBs: after 400 ticks the detector holds {served} B, budget {budget} B"
        );
    }
}

/// A producer's `Tick` line for `dbs` databases of the default 14 KPIs,
/// as `encode` writes it: fractional, whole and missing samples.
fn tick_line(dbs: usize) -> String {
    let kpis = DbCatcherConfig::default().num_kpis;
    let mut frame: Vec<Vec<f64>> = (0..dbs).map(|_| Vec::with_capacity(kpis)).collect();
    fill_frame(&mut frame, kpis, 7);
    frame[0][1] = 250.0;
    frame[dbs - 1][kpis - 1] = f64::NAN;
    encode(&Request::Tick {
        unit: 913,
        tick: 48_211,
        frame,
    })
}

#[test]
fn tick_decode_allocates_only_the_frame() {
    let _serial = serial();
    for (dbs, budget) in [(5usize, 6u64), (16, 17)] {
        let line = tick_line(dbs) + "\n";
        let before = allocations();
        let request = decode_request(&line).expect("canonical Tick line");
        let allocated = allocations() - before;
        let Request::Tick { frame, .. } = &request else {
            panic!("decoded {request:?}");
        };
        assert_eq!(frame.len(), dbs);
        assert!(
            allocated <= budget,
            "{dbs} DBs: decoding one Tick line allocated {allocated} times, budget {budget}"
        );
    }
}

#[test]
fn ack_and_verdict_writes_allocate_nothing() {
    let _serial = serial();
    let accepted = Response::Accepted {
        unit: 913,
        tick: 48_211,
    };
    let verdict = Response::Verdict {
        unit: 913,
        at_tick: 48_211,
        verdict: Verdict {
            db: 3,
            start_tick: 48_180,
            end_tick: 48_211,
            state: DbState::Abnormal,
            window_size: 31,
            expansions: 1,
            scores: vec![
                0.8125,
                1.0,
                f64::NAN,
                -0.0,
                5e-324,
                0.123_456_789_012_345_68,
            ],
        },
    };
    let mut out: Vec<u8> = Vec::with_capacity(4096);
    for response in [&accepted, &verdict] {
        out.clear();
        let before = allocations();
        write_response(response, &mut out).expect("a Vec never refuses a write");
        let allocated = allocations() - before;
        assert_eq!(
            allocated, 0,
            "writing {response:?} allocated {allocated} times"
        );
        assert_eq!(out, format!("{}\n", encode(response)).into_bytes());
    }
}
