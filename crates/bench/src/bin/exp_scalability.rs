//! Fleet scalability (extension): wall-clock detection time over a fleet
//! of units as threads grow — the deployment shape of §IV-D4 (50 units
//! at once) on a multi-core host. Offline units are independent, so each
//! thread streams the whole recording for its chunk of units through
//! `score_batch` with its own scratch arena, with no per-tick barrier.
//! Every thread count must reproduce the one-thread verdicts bit for bit.

use dbcatcher_core::config::DelayScan;
use dbcatcher_core::scratch::TickScratch;
use dbcatcher_core::{score_batch, DbCatcher, DbCatcherConfig, Verdict};
use dbcatcher_eval::experiments::Scale;
use dbcatcher_eval::report::render_table;
use dbcatcher_workload::scenario::UnitScenario;
use std::time::Instant;

/// Streams every tick of `frames[tick][unit]` through `units`, the chunk
/// starting at fleet index `first`; verdicts are tagged with fleet unit
/// indices, in emission order.
fn run_chunk(
    first: usize,
    units: &mut [DbCatcher],
    frames: &[Vec<Vec<Vec<f64>>>],
) -> Vec<(usize, Verdict)> {
    let mut scratch = TickScratch::new();
    let mut out = Vec::new();
    for tick in frames {
        let chunk = &tick[first..first + units.len()];
        let verdicts =
            score_batch(units.iter_mut(), chunk, &mut scratch).expect("clean recordings");
        out.extend(verdicts.into_iter().map(|fv| (first + fv.unit, fv.verdict)));
    }
    out
}

fn main() {
    let scale = Scale::from_args();
    let units = ((50.0 * scale.factor.max(0.3)).round() as usize).max(8);
    let ticks = 600usize;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("# Fleet scalability — {units} units x 5 databases x {ticks} ticks");
    println!("(detector configured with the paper's full ±n/2 lag scan to give each tick\n realistic correlation work; available cores: {cores})");

    // pre-generate the recordings once: frames[tick][unit][db][kpi]
    let recordings: Vec<_> = (0..units)
        .map(|u| UnitScenario::burst_demo(scale.seed + u as u64).generate())
        .collect();
    let frames: Vec<Vec<Vec<Vec<f64>>>> = (0..ticks)
        .map(|t| recordings.iter().map(|r| r.tick_matrix(t)).collect())
        .collect();
    let config = DbCatcherConfig {
        delay_scan: DelayScan::HalfWindow,
        ..DbCatcherConfig::default()
    };

    // Runs the whole fleet split into chunks of `chunk` units, one scoped
    // thread and one arena each. Returns the wall-clock seconds and the
    // verdicts in canonical order (unit-major, emission order per unit)
    // with scores as bit patterns: non-participating KPIs score `NaN`, so
    // `f64` equality would reject identical verdicts.
    let run = |chunk: usize| {
        let mut fleet: Vec<DbCatcher> = recordings
            .iter()
            .map(|r| {
                DbCatcher::new(config.clone(), r.num_databases())
                    .with_participation(r.participation.clone())
            })
            .collect();
        let t0 = Instant::now();
        let mut verdicts: Vec<(usize, Verdict)> = std::thread::scope(|s| {
            let handles: Vec<_> = fleet
                .chunks_mut(chunk)
                .enumerate()
                .map(|(i, owned)| {
                    let frames = &frames;
                    s.spawn(move || run_chunk(i * chunk, owned, frames))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("detection thread panicked"))
                .collect()
        });
        let elapsed = t0.elapsed().as_secs_f64();
        verdicts.sort_by_key(|&(unit, _)| unit);
        let bits: Vec<_> = verdicts
            .into_iter()
            .map(|(unit, v)| {
                let scores: Vec<u64> = v.scores.iter().map(|s| s.to_bits()).collect();
                let fields = (v.db, v.start_tick, v.end_tick, v.state, v.window_size);
                (unit, fields, v.expansions, scores)
            })
            .collect();
        (elapsed, bits)
    };

    // An untimed first pass keeps one-time start-up costs out of the first
    // timed row, and is the reference every timed row must match bit for
    // bit.
    let (_, reference) = run(units);
    let mut rows = Vec::new();
    let mut baseline = None;
    for threads in [1usize, 2, 4, 8] {
        let chunk = units.div_ceil(threads);
        let (elapsed, verdicts) = run(chunk);
        assert!(
            verdicts == reference,
            "{threads} threads changed the verdicts"
        );
        let base = *baseline.get_or_insert(elapsed);
        rows.push(vec![
            format!("{threads} ({} effective)", units.div_ceil(chunk)),
            format!("{:.1} ms", elapsed * 1000.0),
            format!("{:.2}x", base / elapsed),
            verdicts.len().to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Fleet detection wall-clock vs threads (verdicts bit-identical across rows)",
            &["Threads", "Time", "Speedup", "Verdicts"],
            &rows,
        )
    );
    if cores == 1 {
        println!(
            "(this host has a single core: flat/declining speedup is expected — the extra \
             threads only take turns; on an N-core host the speedup approaches \
             min(threads, N, units))"
        );
    } else {
        println!("(units shard perfectly; speedup saturates at min(threads, cores, units))");
    }
}
