//! # dbcatcher-bench
//!
//! Criterion micro-benchmarks (`benches/`) and experiment runners
//! (`src/bin/exp_*.rs`) reproducing every table and figure of the
//! DBCatcher paper. See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.
//!
//! Every `exp_*` binary accepts `--scale F --repeats N --seed S`
//! (defaults: the laptop scale of
//! [`dbcatcher_eval::experiments::Scale::lab`]); `--scale 1.0` regenerates
//! paper-sized datasets.

#![forbid(unsafe_code)]

use dbcatcher_eval::experiments::DatasetComparison;
use dbcatcher_eval::report::{pct, render_table, secs};

/// Prints a Fig. 8/9/10-style performance block (Precision / Recall /
/// F-Measure with mean [min, max] over repetitions).
pub fn print_performance(title: &str, comparisons: &[DatasetComparison]) {
    for cmp in comparisons {
        let rows: Vec<Vec<String>> = cmp
            .cells
            .iter()
            .map(|c| {
                let spread = |s: &dbcatcher_eval::metrics::Spread| {
                    format!("{} [{}, {}]", pct(s.mean), pct(s.min), pct(s.max))
                };
                vec![
                    c.method.name().to_string(),
                    spread(&c.precision),
                    spread(&c.recall),
                    spread(&c.f_measure),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!("{title} — {}", cmp.dataset),
                &["Model", "Precision", "Recall", "F-Measure"],
                &rows,
            )
        );
    }
}

/// Prints a Table V/VII/VIII-style window-size block.
pub fn print_window_sizes(title: &str, comparisons: &[DatasetComparison]) {
    let headers: Vec<String> = std::iter::once("Model".to_string())
        .chain(comparisons.iter().map(|c| format!("{} Size", c.dataset)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let methods = &comparisons[0].cells;
    let rows: Vec<Vec<String>> = methods
        .iter()
        .enumerate()
        .map(|(mi, cell)| {
            std::iter::once(cell.method.name().to_string())
                .chain(
                    comparisons
                        .iter()
                        .map(|c| format!("{:.0}", c.cells[mi].window_size)),
                )
                .collect()
        })
        .collect();
    println!("{}", render_table(title, &header_refs, &rows));
}

/// Prints a Table VI-style training-time block.
pub fn print_train_times(title: &str, comparisons: &[DatasetComparison]) {
    let headers: Vec<String> = std::iter::once("Model".to_string())
        .chain(comparisons.iter().map(|c| format!("{} Time", c.dataset)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let methods = &comparisons[0].cells;
    let rows: Vec<Vec<String>> = methods
        .iter()
        .enumerate()
        .map(|(mi, cell)| {
            std::iter::once(cell.method.name().to_string())
                .chain(comparisons.iter().map(|c| secs(c.cells[mi].train_secs)))
                .collect()
        })
        .collect();
    println!("{}", render_table(title, &header_refs, &rows));
}

/// Prints the scale banner every experiment binary leads with.
pub fn print_scale_banner(experiment: &str, scale: &dbcatcher_eval::experiments::Scale) {
    println!(
        "# {experiment}  (scale {:.3}, repeats {}, seed {}; --scale 1.0 = paper-sized)",
        scale.factor, scale.repeats, scale.seed
    );
}
