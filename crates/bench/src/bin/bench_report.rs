//! Turns the criterion shim's raw JSON results (`DBCATCHER_BENCH_JSON`)
//! into the repo-root `BENCH_kcd.json` perf-trajectory artifact:
//! per-config naive/incremental ns-per-tick plus median speedup, so CI
//! runs can be compared across PRs.
//!
//! Usage:
//! `bench-report <raw-results.json> <BENCH_kcd.json>
//!     [--allocs <allocs.json>] [--baseline <old-BENCH_kcd.json>]`
//!
//! * `--allocs` merges the bench binary's `DBCATCHER_BENCH_ALLOCS` heap
//!   audit (allocations per steady-state tick) into each config row;
//! * `--baseline` is the CI regression gate: the run fails when the new
//!   median incremental ns/tick exceeds the baseline's by more than 25 %.

use serde::Value;

/// Maximum tolerated slowdown of median incremental ns/tick vs baseline.
const REGRESSION_LIMIT: f64 = 1.25;

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Loads the `{"allocs": [{config, *_allocs_per_tick}…]}` side channel
/// written by the bench binary's heap audit.
fn load_allocs(path: &str) -> Result<Vec<(String, f64, f64)>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let value: Value = serde_json::from_str(&raw).map_err(|e| format!("parse {path}: {e}"))?;
    let rows = value
        .get("allocs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no `allocs` array"))?;
    let mut out = Vec::new();
    for row in rows {
        let Some(Value::Str(config)) = row.get("config") else {
            continue;
        };
        let get = |name: &str| row.get(name).and_then(Value::as_f64).unwrap_or(0.0);
        out.push((
            config.clone(),
            get("naive_allocs_per_tick"),
            get("incremental_allocs_per_tick"),
        ));
    }
    Ok(out)
}

/// The CI regression gate: compares the freshly-measured median
/// incremental ns/tick against a previous `BENCH_kcd.json`.
fn check_baseline(path: &str, new_median: f64) -> Result<(), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let value: Value = serde_json::from_str(&raw).map_err(|e| format!("parse {path}: {e}"))?;
    let old_median = value
        .get("median_incremental_ns_per_tick")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{path}: no median_incremental_ns_per_tick"))?;
    if old_median <= 0.0 {
        println!("baseline median is {old_median}; skipping regression gate");
        return Ok(());
    }
    let ratio = new_median / old_median;
    println!(
        "regression gate: median incremental {new_median:.0} ns/tick vs baseline \
         {old_median:.0} ns/tick ({ratio:.2}x, limit {REGRESSION_LIMIT:.2}x)"
    );
    if ratio > REGRESSION_LIMIT {
        return Err(format!(
            "median incremental ns/tick regressed {ratio:.2}x over the baseline \
             (limit {REGRESSION_LIMIT:.2}x)"
        ));
    }
    Ok(())
}

fn run(
    raw_path: &str,
    out_path: &str,
    allocs_path: Option<&str>,
    baseline_path: Option<&str>,
) -> Result<(), String> {
    let raw = std::fs::read_to_string(raw_path).map_err(|e| format!("read {raw_path}: {e}"))?;
    let value: Value = serde_json::from_str(&raw).map_err(|e| format!("parse {raw_path}: {e}"))?;
    let results = value
        .get("results")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{raw_path}: no `results` array"))?;

    // label shape: kcd_backends/<backend>/k<k>_m<m>_d<d>
    let mut configs: Vec<(String, Option<f64>, Option<f64>)> = Vec::new();
    for entry in results {
        let label = match entry.get("label") {
            Some(Value::Str(s)) => s.clone(),
            _ => continue,
        };
        let ns = entry
            .get("ns_per_iter")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let mut parts = label.split('/');
        if parts.next() != Some("kcd_backends") {
            continue;
        }
        let (Some(backend), Some(config)) = (parts.next(), parts.next()) else {
            continue;
        };
        let slot = match configs.iter_mut().find(|(c, _, _)| c == config) {
            Some(slot) => slot,
            None => {
                configs.push((config.to_string(), None, None));
                configs.last_mut().ok_or("push failed")?
            }
        };
        match backend {
            "naive" => slot.1 = Some(ns),
            "incremental" => slot.2 = Some(ns),
            _ => {}
        }
    }
    if configs.is_empty() {
        return Err(format!("{raw_path}: no kcd_backends results"));
    }

    // label shape: kcd_kernels/<kernel>/<n> — per-sweep ns.
    let mut kernels = Vec::new();
    // label shape: kcd_batch/<mode>/<units> — per-unit vs batched ticks.
    let mut batch: Vec<(String, Option<f64>, Option<f64>)> = Vec::new();
    for entry in results {
        let label = match entry.get("label") {
            Some(Value::Str(s)) => s.clone(),
            _ => continue,
        };
        let ns = entry
            .get("ns_per_iter")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let mut parts = label.split('/');
        match parts.next() {
            Some("kcd_kernels") => {
                let (Some(kernel), Some(n)) = (parts.next(), parts.next()) else {
                    continue;
                };
                kernels.push(serde_json::json!({
                    "kernel": kernel,
                    "n": n,
                    "ns_per_iter": ns,
                }));
            }
            Some("kcd_batch") => {
                let (Some(mode), Some(units)) = (parts.next(), parts.next()) else {
                    continue;
                };
                let slot = match batch.iter_mut().find(|(u, _, _)| u == units) {
                    Some(slot) => slot,
                    None => {
                        batch.push((units.to_string(), None, None));
                        batch.last_mut().ok_or("push failed")?
                    }
                };
                match mode {
                    "per_unit" => slot.1 = Some(ns),
                    "batched" => slot.2 = Some(ns),
                    _ => {}
                }
            }
            _ => continue,
        }
    }
    let batch_rows: Vec<Value> = batch
        .iter()
        .map(|(units, per_unit, batched)| {
            serde_json::json!({
                "units": units,
                "per_unit_ns_per_tick": per_unit.unwrap_or(0.0),
                "batched_ns_per_tick": batched.unwrap_or(0.0),
                "batch_speedup": match (per_unit, batched) {
                    (Some(p), Some(b)) if *b > 0.0 => p / b,
                    _ => 0.0,
                },
            })
        })
        .collect();

    let allocs = match allocs_path {
        Some(path) => load_allocs(path)?,
        None => Vec::new(),
    };

    let mut rows = Vec::new();
    let mut naive_all = Vec::new();
    let mut incremental_all = Vec::new();
    let mut speedups = Vec::new();
    for (config, naive, incremental) in &configs {
        let mut row = serde_json::json!({
            "config": config,
            "naive_ns_per_tick": naive.unwrap_or(0.0),
            "incremental_ns_per_tick": incremental.unwrap_or(0.0),
            "speedup": match (naive, incremental) {
                (Some(n), Some(i)) if *i > 0.0 => n / i,
                _ => 0.0,
            },
        });
        if let Some((_, naive_allocs, incr_allocs)) = allocs.iter().find(|(c, _, _)| c == config) {
            if let Value::Object(fields) = &mut row {
                fields.push((
                    "naive_allocs_per_tick".to_string(),
                    Value::F64(*naive_allocs),
                ));
                fields.push((
                    "incremental_allocs_per_tick".to_string(),
                    Value::F64(*incr_allocs),
                ));
            }
        }
        if let Some(n) = naive {
            naive_all.push(*n);
        }
        if let Some(i) = incremental {
            incremental_all.push(*i);
            if let Some(n) = naive {
                if *i > 0.0 {
                    speedups.push(n / i);
                }
            }
        }
        rows.push(row);
    }

    let fast = std::env::var("DBCATCHER_BENCH_FAST").is_ok_and(|v| v == "1");
    let median_incremental = median(incremental_all);
    let report = serde_json::json!({
        "bench": "kcd_backends",
        "mode": if fast { "fast" } else { "full" },
        "unit": "ns_per_tick (one detector tick: push + all-pairs window scores)",
        "configs": rows,
        "median_naive_ns_per_tick": median(naive_all),
        "median_incremental_ns_per_tick": median_incremental,
        "median_speedup": median(speedups),
        "kernels": kernels,
        "batch": batch_rows,
    });
    let json = serde_json::to_string(&report).map_err(|e| format!("render report: {e}"))?;
    std::fs::write(out_path, format!("{json}\n")).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("wrote {out_path} ({} config(s))", configs.len());

    if let Some(path) = baseline_path {
        check_baseline(path, median_incremental)?;
    }
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: bench-report <raw-results.json> <BENCH_kcd.json> \
         [--allocs <allocs.json>] [--baseline <old-BENCH_kcd.json>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut allocs = None;
    let mut baseline = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--allocs" => {
                allocs = args.get(i + 1).cloned();
                if allocs.is_none() {
                    usage();
                }
                i += 2;
            }
            "--baseline" => {
                baseline = args.get(i + 1).cloned();
                if baseline.is_none() {
                    usage();
                }
                i += 2;
            }
            other if other.starts_with("--") => usage(),
            other => {
                positional.push(other.to_string());
                i += 1;
            }
        }
    }
    let [raw, out] = positional.as_slice() else {
        usage();
    };
    if let Err(message) = run(raw, out, allocs.as_deref(), baseline.as_deref()) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}
