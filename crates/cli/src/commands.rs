//! Command implementations.

use crate::args::{Command, USAGE};
use dbcatcher_core::config::DbCatcherConfig;
use dbcatcher_core::pipeline::DbCatcher;
use dbcatcher_eval::methods::train_dbcatcher;
use dbcatcher_eval::metrics::{adjusted_confusion, windowed_any};
use dbcatcher_eval::protocol::ProtocolConfig;
use dbcatcher_hierarchy::{
    parse_unit_line, render_scope_line, replay, HierarchyConfig, ScopeState, Topology, UnitVerdict,
};
use dbcatcher_serve::server::{DetectionServer, ServeConfig};
use dbcatcher_serve::{DetectorTemplate, EmitOptions, HierarchyOptions, UnitStream};
use dbcatcher_sim::faults::{FaultInjector, FaultPreset};
use dbcatcher_sim::CorrelatedKind;
use dbcatcher_simulator::{self as simulator, SimOpts};
use dbcatcher_workload::anomaly::AnomalyPlanConfig;
use dbcatcher_workload::dataset::{Dataset, DatasetSpec, UnitData};
use dbcatcher_workload::io::{export_unit_csv, load_dataset, save_dataset};
use dbcatcher_workload::profile::RareEventConfig;
use std::io::Write;
use std::path::PathBuf;

/// A typed CLI failure. The long-running daemon records unit-scoped
/// problems in its metrics (`dbcatcher stats`) instead of surfacing them
/// here; this type covers the failures that genuinely end a command.
#[derive(Debug)]
pub enum CliError {
    /// Filesystem / socket failure, with what the CLI was doing.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Dataset serialisation trouble (load/save/export).
    Data {
        /// What was being attempted.
        context: String,
        /// The underlying diagnostic.
        detail: String,
    },
    /// The detector rejected its input.
    Detect(String),
    /// Wire-client failure talking to a daemon.
    Client(String),
    /// Invalid argument values that the parser could not catch.
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io { context, source } => write!(f, "{context}: {source}"),
            CliError::Data { context, detail } => write!(f, "{context}: {detail}"),
            CliError::Detect(m) | CliError::Usage(m) => write!(f, "{m}"),
            CliError::Client(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    fn io(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> Self {
        let context = context.into();
        move |source| CliError::Io { context, source }
    }

    fn data(context: impl Into<String>) -> impl FnOnce(dbcatcher_workload::io::IoError) -> Self {
        let context = context.into();
        move |e| CliError::Data {
            context,
            detail: e.to_string(),
        }
    }
}

/// Executes a parsed command.
///
/// # Errors
/// A typed [`CliError`] on any failure.
pub fn run(command: Command) -> Result<(), CliError> {
    match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Simulate {
            kind,
            subset,
            units,
            ticks,
            seed,
            anomaly_ratio,
            correlated,
            group,
            out,
        } => {
            if let Some(kind) = correlated {
                return simulate_correlated(kind, units, group, ticks, seed, &out);
            }
            let spec = DatasetSpec {
                name: format!("{} ({subset:?})", kind.name()),
                kind,
                subset,
                num_units: units,
                ticks,
                databases_per_unit: 5,
                anomalies: AnomalyPlanConfig {
                    target_ratio: anomaly_ratio,
                    ..AnomalyPlanConfig::default()
                },
                rare_events: RareEventConfig::default(),
                seed,
            };
            let dataset = spec.build();
            let stats = dataset.stats();
            save_dataset(&dataset, &out).map_err(CliError::data(format!("write {out}")))?;
            println!(
                "wrote {out}: {} units x 5 databases x {} KPIs, {} points, {:.2}% anomalous",
                stats.units,
                stats.dimensions,
                stats.total_points,
                stats.abnormal_ratio * 100.0
            );
            Ok(())
        }
        Command::Chaos {
            seed,
            units,
            ticks,
            boots,
            no_crash,
            out,
            verdicts,
            no_shrink,
        } => run_chaos(
            seed, units, ticks, boots, no_crash, out, verdicts, no_shrink,
        ),
        Command::Detect {
            data,
            learn,
            train_frac,
            out,
            faults,
            fault_seed,
            gap_policy,
        } => {
            let dataset = load_dataset(&data).map_err(CliError::data(format!("load {data}")))?;
            let (mut config, test) = prepare(&dataset, learn, train_frac)?;
            config.ingest.gap_policy = gap_policy;
            let mut sink: Box<dyn Write> = match out {
                Some(path) => Box::new(
                    std::fs::File::create(&path).map_err(CliError::io(format!("create {path}")))?,
                ),
                None => Box::new(std::io::stdout()),
            };
            let mut total = 0usize;
            for (unit_idx, unit) in test.units.iter().enumerate() {
                let mut catcher = DbCatcher::new(config.clone(), unit.num_databases())
                    .with_participation(unit.participation.clone());
                let mut injector = unit_injector(faults, fault_seed, unit_idx, unit);
                for t in 0..unit.num_ticks() {
                    let mut frame = unit.tick_matrix(t);
                    if let Some(inj) = injector.as_mut() {
                        inj.apply(t as u64, &mut frame);
                    }
                    let report = catcher
                        .try_ingest_tick(&frame)
                        .map_err(|e| CliError::Detect(format!("unit {unit_idx} tick {t}: {e}")))?;
                    for v in report.verdicts {
                        if v.state.is_abnormal() {
                            total += 1;
                            write_verdict_record(&mut sink, unit_idx, &v)?;
                        }
                    }
                }
                report_health(unit_idx, &catcher, faults);
            }
            eprintln!("{total} abnormal verdict(s)");
            Ok(())
        }
        Command::Evaluate {
            data,
            learn,
            train_frac,
            faults,
            fault_seed,
            gap_policy,
        } => {
            let dataset = load_dataset(&data).map_err(CliError::data(format!("load {data}")))?;
            let (mut config, test) = prepare(&dataset, learn, train_frac)?;
            config.ingest.gap_policy = gap_policy;
            let eval_w = 20usize;
            let mut confusion = dbcatcher_eval::metrics::Confusion::default();
            for (unit_idx, unit) in test.units.iter().enumerate() {
                let mut catcher = DbCatcher::new(config.clone(), unit.num_databases())
                    .with_participation(unit.participation.clone());
                let mut injector = unit_injector(faults, fault_seed, unit_idx, unit);
                let mut tick_preds = vec![false; unit.num_ticks()];
                for t in 0..unit.num_ticks() {
                    let mut frame = unit.tick_matrix(t);
                    if let Some(inj) = injector.as_mut() {
                        inj.apply(t as u64, &mut frame);
                    }
                    let report = catcher
                        .try_ingest_tick(&frame)
                        .map_err(|e| CliError::Detect(format!("unit {unit_idx} tick {t}: {e}")))?;
                    for v in report.verdicts {
                        if v.state.is_abnormal() {
                            let end = (v.end_tick as usize).min(unit.num_ticks());
                            tick_preds[v.start_tick as usize..end]
                                .iter_mut()
                                .for_each(|p| *p = true);
                        }
                    }
                }
                report_health(unit_idx, &catcher, faults);
                let labels: Vec<bool> = (0..unit.num_ticks())
                    .map(|t| unit.any_anomalous(t))
                    .collect();
                confusion.merge(&adjusted_confusion(
                    &windowed_any(&tick_preds, eval_w),
                    &windowed_any(&labels, eval_w),
                ));
            }
            println!(
                "precision {:.1}%  recall {:.1}%  f-measure {:.1}%  ({} windows)",
                confusion.precision() * 100.0,
                confusion.recall() * 100.0,
                confusion.f_measure() * 100.0,
                confusion.total()
            );
            Ok(())
        }
        Command::Serve {
            listen,
            units,
            shards,
            queue_cap,
            snapshot_dir,
            snapshot_every,
            resume,
            wal_dir,
            fsync_every,
            shard_restart_limit,
            wedge_timeout_ms,
            gap_policy,
            port_file,
            hierarchy,
            units_per_cluster,
            clusters_per_region,
            scope_out,
        } => {
            let config = ServeConfig {
                max_units: units,
                shards,
                queue_cap,
                snapshot_dir: snapshot_dir.map(PathBuf::from),
                snapshot_every,
                resume_dir: resume.map(PathBuf::from),
                wal_dir: wal_dir.map(PathBuf::from),
                fsync_every,
                shard_restart_limit,
                wedge_timeout: std::time::Duration::from_millis(wedge_timeout_ms),
                chaos: chaos_from_env(),
                template: DetectorTemplate { gap_policy },
                hierarchy: (hierarchy || scope_out.is_some()).then(|| HierarchyOptions {
                    units_per_cluster,
                    clusters_per_region,
                    scope_out: scope_out.map(PathBuf::from),
                }),
                ..ServeConfig::default()
            };
            let server = DetectionServer::bind(listen.as_str(), config)
                .map_err(CliError::io(format!("bind {listen}")))?;
            let addr = server.local_addr();
            if let Some(path) = port_file {
                std::fs::write(&path, format!("{addr}\n"))
                    .map_err(CliError::io(format!("write {path}")))?;
            }
            eprintln!("dbcatcher serve: listening on {addr} (units <= {units})");
            server.run().map_err(CliError::io("serve"))?;
            eprintln!("dbcatcher serve: clean shutdown");
            Ok(())
        }
        Command::Emit {
            connect,
            data,
            rate,
            window,
            faults,
            fault_seed,
            out,
            stop_server,
        } => {
            let dataset = load_dataset(&data).map_err(CliError::data(format!("load {data}")))?;
            let streams = dataset_streams(&dataset, faults, fault_seed);
            let options = EmitOptions {
                rate,
                window,
                stop_after: stop_server,
                // Decorrelate concurrent producers' backoff jitter the
                // same way their fault dice are decorrelated.
                retry_seed: fault_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..EmitOptions::default()
            };
            let report = dbcatcher_serve::emit(connect.as_str(), streams, &options)
                .map_err(|e| CliError::Client(e.to_string()))?;
            let mut sink: Box<dyn Write> = match out {
                Some(path) => Box::new(
                    std::fs::File::create(&path).map_err(CliError::io(format!("create {path}")))?,
                ),
                None => Box::new(std::io::stdout()),
            };
            // Restart replays re-deliver bit-identical verdicts; the
            // sorted stream dedups them so the output matches `detect`.
            let mut total = 0usize;
            let mut last_key: Option<(usize, u64, usize, u64)> = None;
            for record in report.sorted_verdicts() {
                let key = (
                    record.unit,
                    record.at_tick,
                    record.verdict.db,
                    record.verdict.start_tick,
                );
                if last_key == Some(key) {
                    continue;
                }
                last_key = Some(key);
                if record.verdict.state.is_abnormal() {
                    total += 1;
                    write_verdict_record(&mut sink, record.unit, &record.verdict)?;
                }
            }
            for (unit, next_tick) in &report.resumed {
                eprintln!("unit {unit}: server resumed from snapshot at tick {next_tick}");
            }
            for message in &report.errors {
                eprintln!("server: {message}");
            }
            eprintln!(
                "{} tick(s) accepted, {} backpressure reject(s), {} out-of-order reject(s)",
                report.ticks_accepted, report.rejects_backpressure, report.rejects_order
            );
            if report.backoff_waits > 0 || report.flush_rewinds > 0 || report.control_retries > 0 {
                eprintln!(
                    "{} backoff wait(s) ({} ms total), {} flush rewind(s), {} control retry(ies)",
                    report.backoff_waits,
                    report.backoff_ms_total,
                    report.flush_rewinds,
                    report.control_retries
                );
            }
            eprintln!("{total} abnormal verdict(s)");
            Ok(())
        }
        Command::Stats { connect } => {
            let snapshot = dbcatcher_serve::fetch_stats(connect.as_str())
                .map_err(|e| CliError::Client(e.to_string()))?;
            let json = serde_json::to_string(&snapshot).map_err(|e| CliError::Data {
                context: "render stats".into(),
                detail: e.to_string(),
            })?;
            println!("{json}");
            Ok(())
        }
        Command::ResetUnit { connect, unit } => {
            let next_tick = dbcatcher_serve::reset_unit(connect.as_str(), unit)
                .map_err(|e| CliError::Client(e.to_string()))?;
            println!("unit {unit}: re-admitted on probation, next tick {next_tick}");
            Ok(())
        }
        Command::AnalyzeFleet {
            verdicts,
            units,
            units_per_cluster,
            clusters_per_region,
            out,
        } => analyze_fleet(
            &verdicts,
            units,
            units_per_cluster,
            clusters_per_region,
            out.as_deref(),
        ),
        Command::ExportCsv { data, unit, out } => {
            let dataset = load_dataset(&data).map_err(CliError::data(format!("load {data}")))?;
            let unit_data: &UnitData = dataset.units.get(unit).ok_or_else(|| {
                CliError::Usage(format!("unit {unit} of {}", dataset.units.len()))
            })?;
            export_unit_csv(unit_data, &out).map_err(CliError::data(format!("write {out}")))?;
            println!(
                "wrote {out}: {} ticks x {} databases x {} KPIs",
                unit_data.num_ticks(),
                unit_data.num_databases(),
                unit_data.num_kpis()
            );
            Ok(())
        }
    }
}

/// `simulate --correlated`: builds a fleet dataset sharing one scheduled
/// correlated failure and reports the planned ground truth so smoke
/// scripts can check the hierarchy layer's blame against it.
fn simulate_correlated(
    kind: CorrelatedKind,
    units: usize,
    group: usize,
    ticks: usize,
    seed: u64,
    out: &str,
) -> Result<(), CliError> {
    if units < 2 {
        return Err(CliError::Usage(format!(
            "--correlated needs at least 2 units, got {units}"
        )));
    }
    // Default blast radius: every unit but one, keeping a clean
    // bystander, and never fewer than the correlator's minimum group.
    let group = if group == 0 {
        units.saturating_sub(1).max(2)
    } else {
        group
    }
    .min(units);
    if group < 2 {
        return Err(CliError::Usage(format!(
            "--group must cover at least 2 units, got {group}"
        )));
    }
    let members: Vec<usize> = (0..group).collect();
    let scenario =
        dbcatcher_workload::FleetScenario::correlated(seed, kind, units, &members, ticks);
    let dataset = scenario.generate();
    let stats = dataset.stats();
    save_dataset(&dataset, out).map_err(CliError::data(format!("write {out}")))?;
    println!(
        "wrote {out}: {} units x {} databases, {} points, {:.2}% anomalous \
         ({} over units 0..{group}, epicenter {}, onset tick {})",
        stats.units,
        dataset.units.first().map_or(0, UnitData::num_databases),
        stats.total_points,
        stats.abnormal_ratio * 100.0,
        scenario.correlated.kind.name(),
        scenario.correlated.epicenter,
        scenario.correlated.onset,
    );
    Ok(())
}

/// `analyze-fleet`: replays a unit-verdict JSONL (a daemon's
/// `hierarchy.wal`, or any stream in the same format) through the
/// hierarchy engine offline, skipping malformed lines exactly as the
/// online feed does, and renders the scope stream — byte-identical to
/// what a `--hierarchy` daemon writes to `--scope-out`.
fn analyze_fleet(
    verdicts: &str,
    units: usize,
    units_per_cluster: usize,
    clusters_per_region: usize,
    out: Option<&str>,
) -> Result<(), CliError> {
    let text =
        std::fs::read_to_string(verdicts).map_err(CliError::io(format!("read {verdicts}")))?;
    let mut skipped = 0usize;
    let records: Vec<UnitVerdict> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| match parse_unit_line(line) {
            Ok(record) => Some(record),
            Err(_) => {
                skipped += 1;
                None
            }
        })
        .collect();
    let roster = if units > 0 {
        units
    } else {
        records.iter().map(|r| r.unit + 1).max().unwrap_or(1)
    };
    let topology = Topology::new(roster, units_per_cluster, clusters_per_region)
        .map_err(|e| CliError::Usage(format!("bad topology: {e}")))?;
    let consumed = records.len();
    let scope = replay(HierarchyConfig::new(topology), records);
    let mut sink: Box<dyn Write> = match out {
        Some(path) => {
            Box::new(std::fs::File::create(path).map_err(CliError::io(format!("create {path}")))?)
        }
        None => Box::new(std::io::stdout()),
    };
    for verdict in &scope {
        writeln!(sink, "{}", render_scope_line(verdict))
            .map_err(CliError::io("write scope stream"))?;
    }
    let alarms = scope
        .iter()
        .filter(|v| v.state == ScopeState::Alarm)
        .count();
    if skipped > 0 {
        eprintln!("{skipped} malformed line(s) skipped");
    }
    eprintln!(
        "{consumed} unit verdict(s) over {roster} unit(s): {} scope transition(s), {alarms} alarm(s)",
        scope.len()
    );
    Ok(())
}

/// Test hook for the CI recovery smoke: arms a deterministic shard
/// failure from the environment — `DBCATCHER_CHAOS_SHARD_PANIC=N`
/// panics (and `DBCATCHER_CHAOS_SHARD_WEDGE=N` wedges) the worker
/// processing the `N`-th tick job, which the supervisor must contain.
/// Unset in production; panic wins when both are set.
fn chaos_from_env() -> Option<std::sync::Arc<dbcatcher_serve::ShardChaos>> {
    let armed = |name: &str| {
        std::env::var(name)
            .ok()
            .and_then(|raw| raw.parse::<u64>().ok())
            .filter(|&n| n > 0)
    };
    if let Some(n) = armed("DBCATCHER_CHAOS_SHARD_PANIC") {
        eprintln!("dbcatcher serve: chaos hook armed — shard panic on tick job {n}");
        return Some(dbcatcher_serve::ShardChaos::panic_after(n));
    }
    if let Some(n) = armed("DBCATCHER_CHAOS_SHARD_WEDGE") {
        eprintln!("dbcatcher serve: chaos hook armed — shard wedge on tick job {n}");
        return Some(dbcatcher_serve::ShardChaos::wedge_after(n));
    }
    None
}

/// `simulate --chaos`: one seed, one deterministic whole-system run.
/// Failures print the invariant violations plus a minimized schedule to
/// stderr and surface as a [`CliError::Detect`] (nonzero exit).
#[allow(clippy::too_many_arguments, clippy::fn_params_excessive_bools)]
fn run_chaos(
    seed: Option<u64>,
    units: usize,
    ticks: usize,
    boots: usize,
    no_crash: bool,
    out: Option<String>,
    verdicts: Option<String>,
    no_shrink: bool,
) -> Result<(), CliError> {
    let seed = match seed.or_else(|| std::env::var("SEED").ok().and_then(|raw| raw.parse().ok())) {
        Some(seed) => seed,
        None => {
            return Err(CliError::Usage(
                "simulate --chaos needs a seed: pass --seed N or set SEED=N".into(),
            ))
        }
    };
    let opts = SimOpts {
        max_units: units.max(1),
        max_ticks: ticks,
        max_boots: boots.max(1),
        allow_crash: !no_crash,
    };
    eprintln!("chaos: running seed {seed} (units <= {units}, ticks <= {ticks}, boots <= {boots})");
    let outcome = simulator::run_seed(seed, &opts);

    match &out {
        Some(path) => std::fs::write(path, outcome.event_log())
            .map_err(CliError::io(format!("write {path}")))?,
        None => print!("{}", outcome.event_log()),
    }
    if let Some(path) = &verdicts {
        std::fs::write(path, outcome.verdict_log())
            .map_err(CliError::io(format!("write {path}")))?;
    }

    if outcome.passed() {
        eprintln!(
            "chaos: seed {seed} passed ({} canonical verdict(s))",
            outcome.verdicts.len()
        );
        return Ok(());
    }

    eprintln!("chaos: seed {seed} FAILED:");
    for failure in &outcome.failures {
        eprintln!("  - {failure}");
    }
    if no_shrink {
        eprintln!("chaos: failing plan (shrink skipped):");
        eprintln!("{}", outcome.plan.to_json());
    } else {
        eprintln!("chaos: minimizing the failing schedule...");
        let report = simulator::shrink(&outcome.plan, 24);
        for edit in &report.applied {
            eprintln!("  kept failing after: {edit}");
        }
        eprintln!(
            "chaos: minimized plan after {} re-run(s) (replay it with `simulate --chaos --seed {seed}`):",
            report.runs
        );
        eprintln!("{}", report.plan.to_json());
    }
    Err(CliError::Detect(format!(
        "chaos seed {seed} violated {} invariant check(s)",
        outcome.failures.len()
    )))
}

/// Writes one abnormal verdict in the CLI's JSONL format (shared by
/// `detect` and `emit` so loopback output diffs clean against offline).
fn write_verdict_record(
    sink: &mut dyn Write,
    unit: usize,
    v: &dbcatcher_core::pipeline::Verdict,
) -> Result<(), CliError> {
    let record = serde_json::json!({
        "unit": unit,
        "db": v.db,
        "start_tick": v.start_tick,
        "end_tick": v.end_tick,
        "window_size": v.window_size,
        "expansions": v.expansions,
    });
    writeln!(sink, "{record}").map_err(CliError::io("write verdicts"))
}

/// Converts a dataset into per-unit wire streams, pre-applying collector
/// faults exactly as the offline path does (same seeds, same order), so a
/// loopback run sees bit-identical telemetry.
fn dataset_streams(dataset: &Dataset, faults: FaultPreset, fault_seed: u64) -> Vec<UnitStream> {
    dataset
        .units
        .iter()
        .enumerate()
        .map(|(unit_idx, unit)| {
            let mut injector = unit_injector(faults, fault_seed, unit_idx, unit);
            let frames = (0..unit.num_ticks())
                .map(|t| {
                    let mut frame = unit.tick_matrix(t);
                    if let Some(inj) = injector.as_mut() {
                        inj.apply(t as u64, &mut frame);
                    }
                    frame
                })
                .collect();
            UnitStream {
                unit: unit_idx,
                dbs: unit.num_databases(),
                kpis: unit.num_kpis(),
                participation: Some(unit.participation.clone()),
                frames,
            }
        })
        .collect()
}

/// Builds the per-unit fault injector for `--faults`, seeded so every
/// unit corrupts differently but reproducibly.
fn unit_injector(
    faults: FaultPreset,
    fault_seed: u64,
    unit_idx: usize,
    unit: &UnitData,
) -> Option<FaultInjector> {
    if faults == FaultPreset::None {
        return None;
    }
    Some(FaultInjector::with_preset(
        faults,
        unit.num_databases(),
        unit.num_ticks() as u64,
        fault_seed.wrapping_add(unit_idx as u64),
    ))
}

/// Prints the unit's telemetry-health ledger to stderr when anything
/// noteworthy happened (faults requested, or bad samples in the data).
fn report_health(unit_idx: usize, catcher: &DbCatcher, faults: FaultPreset) {
    let health = catcher.health();
    if faults != FaultPreset::None || health.total_repaired() > 0 || health.total_stale() > 0 {
        eprintln!(
            "unit {unit_idx} telemetry health: {}",
            health.summary_line()
        );
    }
}

/// Optionally learns thresholds on the leading fraction and returns the
/// configuration plus the split to detect on.
fn prepare(
    dataset: &Dataset,
    learn: bool,
    train_frac: f64,
) -> Result<(DbCatcherConfig, Dataset), CliError> {
    if !(0.0..1.0).contains(&train_frac) {
        return Err(CliError::Usage(format!(
            "train-frac {train_frac} must lie in [0, 1)"
        )));
    }
    if learn {
        let (train, test) = dataset.split(train_frac);
        let cfg = ProtocolConfig::default();
        let (config, train_f1) = train_dbcatcher(&train, &cfg);
        eprintln!(
            "thresholds learned on {:.0}% of the data (train F-Measure {train_f1:.2})",
            train_frac * 100.0
        );
        Ok((config, test))
    } else {
        Ok((DbCatcherConfig::default(), dataset.clone()))
    }
}
