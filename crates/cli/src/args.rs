//! Hand-rolled argument parsing (the workspace's dependency policy keeps
//! the CLI free of an argument-parser crate).

use dbcatcher_core::ingest::GapPolicy;
use dbcatcher_sim::faults::FaultPreset;
use dbcatcher_sim::CorrelatedKind;
use dbcatcher_workload::dataset::{Subset, WorkloadKind};

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
dbcatcher — cloud-database anomaly detection (DBCatcher, ICDE 2023)

USAGE:
  dbcatcher simulate  --kind <tencent|sysbench|tpcc> [--subset <mixed|irregular|periodic>]
                      [--units N] [--ticks T] [--seed S] [--anomaly-ratio R] --out <ds.json>
  dbcatcher simulate  --correlated <noisy-neighbour|shared-storage|rolling-regression>
                      [--units N] [--group G] [--ticks T] [--seed S] --out <ds.json>
  dbcatcher simulate  --chaos [--seed S] [--units N] [--ticks T] [--boots B] [--no-crash]
                      [--out <events.jsonl>] [--verdicts <verdicts.jsonl>] [--no-shrink]
  dbcatcher detect    --data <ds.json> [--learn] [--train-frac F] [--out <verdicts.jsonl>]
                      [--faults <none|standard|heavy>] [--fault-seed S]
                      [--gap-policy <hold-last|linear-fill|mark-missing>]
  dbcatcher evaluate  --data <ds.json> [--learn] [--train-frac F]
                      [--faults <none|standard|heavy>] [--fault-seed S]
                      [--gap-policy <hold-last|linear-fill|mark-missing>]
  dbcatcher export-csv --data <ds.json> [--unit I] --out <unit.csv>
  dbcatcher serve     --listen <addr> [--units N] [--shards S] [--queue-cap Q]
                      [--snapshot-dir D] [--snapshot-every T] [--resume D]
                      [--wal-dir D] [--fsync-every N] [--shard-restart-limit N]
                      [--wedge-timeout-ms T]
                      [--gap-policy <hold-last|linear-fill|mark-missing>]
                      [--port-file <path>]
                      [--hierarchy] [--units-per-cluster N] [--clusters-per-region N]
                      [--scope-out <scope.jsonl>]
  dbcatcher emit      --connect <addr> --data <ds.json> [--rate R] [--window W]
                      [--faults <none|standard|heavy>] [--fault-seed S]
                      [--out <verdicts.jsonl>] [--stop-server]
  dbcatcher stats     --connect <addr>
  dbcatcher reset-unit --connect <addr> --unit I
  dbcatcher analyze-fleet --verdicts <hierarchy.wal> [--units N]
                      [--units-per-cluster N] [--clusters-per-region N]
                      [--out <scope.jsonl>]
  dbcatcher help

--faults corrupts the telemetry stream on its way into the detector
(dropped frames, NaN bursts, duplicated ticks, stuck sensors, collector
outages); --gap-policy selects how the ingest layer repairs the gaps.

serve runs the online daemon (newline-delimited JSON over TCP); emit
streams a dataset to it and collects the verdicts; stats prints one
metrics snapshot as JSON. --listen 127.0.0.1:0 picks an ephemeral port
(written to --port-file for scripts). --wal-dir enables the per-shard
write-ahead log: every accepted tick is durable before detection, so a
restart with --resume replays snapshot + WAL and loses nothing
(--fsync-every batches fsyncs). A supervisor restarts panicked or wedged
shard workers (no progress for --wedge-timeout-ms with work queued) up to
--shard-restart-limit times per shard; past that the
shard's units are hard-degraded and reset-unit re-admits a stream on
probation.

simulate --correlated generates a fleet dataset sharing one scheduled
correlated failure: the first --group unit ids form the blast radius
(default: all but one unit, keeping a clean bystander) and the rest run
clean. serve --hierarchy turns on fleet-scope detection: per-unit
verdicts roll up a unit -> cluster -> region -> fleet topology, scope
alarms (with CUSUM incident class and a blamed epicenter) are broadcast
to subscribers, every consumed verdict is appended to
<wal-dir>/hierarchy.wal, and a clean shutdown writes the scope stream
to --scope-out. analyze-fleet replays such a verdict JSONL offline and
prints the byte-identical scope stream (--units defaults to the highest
unit id seen + 1).

simulate --chaos runs the deterministic whole-system chaos simulator:
one seed (--seed or the SEED env var) draws unit topology, anomaly and
collector-fault schedules, producer churn and daemon kill/resume points,
executes them against a real in-process daemon and property-checks the
verdicts against an offline replay. Same seed, same bytes. On failure the
minimized schedule is printed to stderr and the exit code is nonzero.
";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a dataset and write it as JSON.
    Simulate {
        /// Benchmark family.
        kind: WorkloadKind,
        /// Periodicity subset.
        subset: Subset,
        /// Number of units.
        units: usize,
        /// Ticks per unit.
        ticks: usize,
        /// Master seed.
        seed: u64,
        /// Target fraction of anomalous database-ticks.
        anomaly_ratio: f64,
        /// Correlated-failure fleet mode: the scheduled failure kind.
        correlated: Option<CorrelatedKind>,
        /// Units in the correlated group (first `group` unit ids);
        /// `0` = auto (all but one unit, at least two).
        group: usize,
        /// Output path.
        out: String,
    },
    /// Run the deterministic whole-system chaos simulator.
    Chaos {
        /// Seed; `None` falls back to the `SEED` env var at run time.
        seed: Option<u64>,
        /// Most units in the plan.
        units: usize,
        /// Most ticks per unit.
        ticks: usize,
        /// Most daemon boots (restarts).
        boots: usize,
        /// Disallow simulated mid-tick kills.
        no_crash: bool,
        /// Optional event-log path (stdout when absent).
        out: Option<String>,
        /// Optional canonical verdict-stream path.
        verdicts: Option<String>,
        /// Skip schedule minimization when the run fails.
        no_shrink: bool,
    },
    /// Stream a dataset through the detector, emitting verdicts.
    Detect {
        /// Dataset path.
        data: String,
        /// Learn thresholds on a leading fraction first.
        learn: bool,
        /// Fraction used for threshold learning when `--learn` is given.
        train_frac: f64,
        /// Optional JSONL output path (stdout when absent).
        out: Option<String>,
        /// Collector faults injected into the telemetry stream.
        faults: FaultPreset,
        /// Seed for the fault injector's dice.
        fault_seed: u64,
        /// Gap-repair policy of the ingest layer.
        gap_policy: GapPolicy,
    },
    /// Detect and score against the dataset's ground truth.
    Evaluate {
        /// Dataset path.
        data: String,
        /// Learn thresholds on a leading fraction first.
        learn: bool,
        /// Fraction used for threshold learning.
        train_frac: f64,
        /// Collector faults injected into the telemetry stream.
        faults: FaultPreset,
        /// Seed for the fault injector's dice.
        fault_seed: u64,
        /// Gap-repair policy of the ingest layer.
        gap_policy: GapPolicy,
    },
    /// Run the online detection daemon.
    Serve {
        /// Listen address (`host:port`; port `0` = ephemeral).
        listen: String,
        /// Maximum unit id is `units - 1`.
        units: usize,
        /// Shard worker threads (`0` = auto).
        shards: usize,
        /// Per-unit bounded ingress queue depth.
        queue_cap: usize,
        /// Directory for periodic detector snapshots.
        snapshot_dir: Option<String>,
        /// Snapshot every N ingested ticks per unit.
        snapshot_every: u64,
        /// Directory to restore unit snapshots from at Hello time.
        resume: Option<String>,
        /// Root directory for per-shard write-ahead logs.
        wal_dir: Option<String>,
        /// Batch this many WAL appends per fsync.
        fsync_every: u64,
        /// Supervisor restarts tolerated per shard before it is failed.
        shard_restart_limit: u32,
        /// Milliseconds without shard progress (with work queued) before the
        /// supervisor declares a wedge and replaces the worker.
        wedge_timeout_ms: u64,
        /// Gap-repair policy of the ingest layer.
        gap_policy: GapPolicy,
        /// File to write the bound address to (ephemeral-port scripting).
        port_file: Option<String>,
        /// Enable the fleet-scope hierarchy feed.
        hierarchy: bool,
        /// Consecutive units per cluster in the rollup topology.
        units_per_cluster: usize,
        /// Consecutive clusters per region in the rollup topology.
        clusters_per_region: usize,
        /// Scope-verdict stream written on clean shutdown.
        scope_out: Option<String>,
    },
    /// Stream a dataset to a running daemon and collect verdicts.
    Emit {
        /// Daemon address.
        connect: String,
        /// Dataset path.
        data: String,
        /// Ticks per second per unit (`0` = full speed).
        rate: f64,
        /// Max unacknowledged ticks in flight.
        window: usize,
        /// Collector faults injected into the stream before sending.
        faults: FaultPreset,
        /// Seed for the fault injector's dice.
        fault_seed: u64,
        /// Optional JSONL output path (stdout when absent).
        out: Option<String>,
        /// Ask the daemon to shut down after the stream completes.
        stop_server: bool,
    },
    /// Print one daemon metrics snapshot as JSON.
    Stats {
        /// Daemon address.
        connect: String,
    },
    /// Re-admit a hard-degraded unit (it restarts on probation).
    ResetUnit {
        /// Daemon address.
        connect: String,
        /// Unit index.
        unit: usize,
    },
    /// Replay a unit-verdict JSONL through the hierarchy engine offline.
    AnalyzeFleet {
        /// Unit-verdict JSONL path (a daemon's `hierarchy.wal` or any
        /// stream in the same format).
        verdicts: String,
        /// Fleet roster size (`0` = highest unit id seen + 1).
        units: usize,
        /// Consecutive units per cluster in the rollup topology.
        units_per_cluster: usize,
        /// Consecutive clusters per region in the rollup topology.
        clusters_per_region: usize,
        /// Optional scope-stream output path (stdout when absent).
        out: Option<String>,
    },
    /// Export one unit as CSV.
    ExportCsv {
        /// Dataset path.
        data: String,
        /// Unit index.
        unit: usize,
        /// Output path.
        out: String,
    },
    /// Print usage.
    Help,
}

/// The synopsis entries of USAGE, each as its words with `[`/`]`
/// stripped: `["dbcatcher", <command>, "--flag", <placeholder>, …]`.
fn usage_entries() -> Vec<Vec<&'static str>> {
    let mut entries: Vec<Vec<&'static str>> = Vec::new();
    let mut open = false;
    for line in USAGE.lines() {
        if line.starts_with("  dbcatcher ") {
            entries.push(Vec::new());
            open = true;
        } else if !line.starts_with("    ") {
            open = false;
        }
        if let (true, Some(entry)) = (open, entries.last_mut()) {
            entry.extend(line.split_whitespace().map(|w| w.trim_matches(['[', ']'])));
        }
    }
    entries
}

/// The `--flags` that the USAGE entries of `command` list, each with
/// whether it takes a value (a placeholder follows it in USAGE), or
/// `None` when no entry names the command. `simulate --chaos` has its own
/// entry, kept apart from the dataset `simulate` entries.
fn usage_flags(command: &str, chaos: bool) -> Option<Vec<(&'static str, bool)>> {
    let mut flags = None;
    for words in usage_entries() {
        if words.get(1) == Some(&command) && words.contains(&"--chaos") == chaos {
            let listed = flags.get_or_insert_with(Vec::new);
            for (i, word) in words.iter().enumerate() {
                if word.starts_with("--") {
                    let takes_value = words.get(i + 1).is_some_and(|w| !w.starts_with("--"));
                    listed.push((*word, takes_value));
                }
            }
        }
    }
    flags
}

fn value<'a>(argv: &'a [String], flag: &str) -> Option<&'a str> {
    argv.windows(2)
        .find(|w| w[0] == flag)
        .map(|w| w[1].as_str())
}

fn parse_num<T: std::str::FromStr>(argv: &[String], flag: &str, default: T) -> Result<T, String> {
    match value(argv, flag) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value for {flag}: {raw}")),
    }
}

/// Parses an argument vector (without the program name).
///
/// # Errors
/// A human-readable message for unknown commands, flags the command's
/// USAGE entry does not list, value-taking flags given no value (last, or
/// followed by another flag), bad values or missing required arguments.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some(command) = argv.first() else {
        return Err("missing command".into());
    };
    let rest = &argv[1..];
    let chaos = command == "simulate" && rest.iter().any(|a| a == "--chaos");
    if let Some(allowed) = usage_flags(command, chaos) {
        for (i, arg) in rest.iter().enumerate() {
            if !arg.starts_with("--") {
                continue;
            }
            match allowed.iter().find(|(flag, _)| flag == arg) {
                None => return Err(format!("unknown flag for {command}: {arg}")),
                Some((_, true)) if rest.get(i + 1).is_none_or(|v| v.starts_with("--")) => {
                    return Err(format!("missing value for {arg}"));
                }
                Some(_) => {}
            }
        }
    }
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "simulate" if chaos => Ok(Command::Chaos {
            seed: match value(rest, "--seed") {
                None => None,
                Some(raw) => Some(
                    raw.parse()
                        .map_err(|_| format!("invalid value for --seed: {raw}"))?,
                ),
            },
            units: parse_num(rest, "--units", 3)?,
            ticks: parse_num(rest, "--ticks", 240)?,
            boots: parse_num(rest, "--boots", 3)?,
            no_crash: rest.iter().any(|a| a == "--no-crash"),
            out: value(rest, "--out").map(str::to_string),
            verdicts: value(rest, "--verdicts").map(str::to_string),
            no_shrink: rest.iter().any(|a| a == "--no-shrink"),
        }),
        "simulate" => {
            let kind = match value(rest, "--kind").unwrap_or("tencent") {
                "tencent" => WorkloadKind::Tencent,
                "sysbench" => WorkloadKind::Sysbench,
                "tpcc" => WorkloadKind::Tpcc,
                other => return Err(format!("unknown workload kind: {other}")),
            };
            let subset = match value(rest, "--subset").unwrap_or("mixed") {
                "mixed" => Subset::Mixed,
                "irregular" => Subset::Irregular,
                "periodic" => Subset::Periodic,
                other => return Err(format!("unknown subset: {other}")),
            };
            let correlated = match value(rest, "--correlated") {
                None => None,
                Some(name) => Some(
                    CorrelatedKind::parse(name)
                        .ok_or_else(|| format!("unknown correlated kind: {name}"))?,
                ),
            };
            Ok(Command::Simulate {
                kind,
                subset,
                units: parse_num(rest, "--units", 4)?,
                ticks: parse_num(rest, "--ticks", 400)?,
                seed: parse_num(rest, "--seed", 1)?,
                anomaly_ratio: parse_num(rest, "--anomaly-ratio", 0.035)?,
                correlated,
                group: parse_num(rest, "--group", 0)?,
                out: value(rest, "--out")
                    .ok_or("simulate requires --out <path>")?
                    .to_string(),
            })
        }
        "detect" => Ok(Command::Detect {
            data: value(rest, "--data")
                .ok_or("detect requires --data <path>")?
                .to_string(),
            learn: rest.iter().any(|a| a == "--learn"),
            train_frac: parse_num(rest, "--train-frac", 0.5)?,
            out: value(rest, "--out").map(str::to_string),
            faults: parse_num(rest, "--faults", FaultPreset::None)?,
            fault_seed: parse_num(rest, "--fault-seed", 7)?,
            gap_policy: parse_num(rest, "--gap-policy", GapPolicy::default())?,
        }),
        "evaluate" => Ok(Command::Evaluate {
            data: value(rest, "--data")
                .ok_or("evaluate requires --data <path>")?
                .to_string(),
            learn: rest.iter().any(|a| a == "--learn"),
            train_frac: parse_num(rest, "--train-frac", 0.5)?,
            faults: parse_num(rest, "--faults", FaultPreset::None)?,
            fault_seed: parse_num(rest, "--fault-seed", 7)?,
            gap_policy: parse_num(rest, "--gap-policy", GapPolicy::default())?,
        }),
        "serve" => Ok(Command::Serve {
            listen: value(rest, "--listen")
                .ok_or("serve requires --listen <addr>")?
                .to_string(),
            units: parse_num(rest, "--units", 64)?,
            shards: parse_num(rest, "--shards", 0)?,
            queue_cap: parse_num(rest, "--queue-cap", 256)?,
            snapshot_dir: value(rest, "--snapshot-dir").map(str::to_string),
            snapshot_every: parse_num(rest, "--snapshot-every", 64)?,
            resume: value(rest, "--resume").map(str::to_string),
            wal_dir: value(rest, "--wal-dir").map(str::to_string),
            fsync_every: parse_num(rest, "--fsync-every", 8)?,
            shard_restart_limit: parse_num(rest, "--shard-restart-limit", 3)?,
            wedge_timeout_ms: parse_num(rest, "--wedge-timeout-ms", 2000)?,
            gap_policy: parse_num(rest, "--gap-policy", GapPolicy::default())?,
            port_file: value(rest, "--port-file").map(str::to_string),
            hierarchy: rest.iter().any(|a| a == "--hierarchy"),
            units_per_cluster: parse_num(rest, "--units-per-cluster", 4)?,
            clusters_per_region: parse_num(rest, "--clusters-per-region", 4)?,
            scope_out: value(rest, "--scope-out").map(str::to_string),
        }),
        "emit" => Ok(Command::Emit {
            connect: value(rest, "--connect")
                .ok_or("emit requires --connect <addr>")?
                .to_string(),
            data: value(rest, "--data")
                .ok_or("emit requires --data <path>")?
                .to_string(),
            rate: parse_num(rest, "--rate", 0.0)?,
            window: parse_num(rest, "--window", 32)?,
            faults: parse_num(rest, "--faults", FaultPreset::None)?,
            fault_seed: parse_num(rest, "--fault-seed", 7)?,
            out: value(rest, "--out").map(str::to_string),
            stop_server: rest.iter().any(|a| a == "--stop-server"),
        }),
        "stats" => Ok(Command::Stats {
            connect: value(rest, "--connect")
                .ok_or("stats requires --connect <addr>")?
                .to_string(),
        }),
        "reset-unit" => Ok(Command::ResetUnit {
            connect: value(rest, "--connect")
                .ok_or("reset-unit requires --connect <addr>")?
                .to_string(),
            unit: value(rest, "--unit")
                .ok_or("reset-unit requires --unit <index>")?
                .parse()
                .map_err(|_| "invalid value for --unit".to_string())?,
        }),
        "analyze-fleet" => Ok(Command::AnalyzeFleet {
            verdicts: value(rest, "--verdicts")
                .ok_or("analyze-fleet requires --verdicts <path>")?
                .to_string(),
            units: parse_num(rest, "--units", 0)?,
            units_per_cluster: parse_num(rest, "--units-per-cluster", 4)?,
            clusters_per_region: parse_num(rest, "--clusters-per-region", 4)?,
            out: value(rest, "--out").map(str::to_string),
        }),
        "export-csv" => Ok(Command::ExportCsv {
            data: value(rest, "--data")
                .ok_or("export-csv requires --data <path>")?
                .to_string(),
            unit: parse_num(rest, "--unit", 0)?,
            out: value(rest, "--out")
                .ok_or("export-csv requires --out <path>")?
                .to_string(),
        }),
        other => Err(format!("unknown command: {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn simulate_full() {
        let cmd = parse(&argv(
            "simulate --kind sysbench --subset periodic --units 6 --ticks 300 --seed 9 \
             --anomaly-ratio 0.05 --out ds.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                kind: WorkloadKind::Sysbench,
                subset: Subset::Periodic,
                units: 6,
                ticks: 300,
                seed: 9,
                anomaly_ratio: 0.05,
                correlated: None,
                group: 0,
                out: "ds.json".into(),
            }
        );
    }

    #[test]
    fn simulate_correlated() {
        let cmd = parse(&argv(
            "simulate --correlated shared-storage --units 3 --group 2 --ticks 200 \
             --seed 5 --out fleet.json",
        ))
        .unwrap();
        match cmd {
            Command::Simulate {
                correlated,
                units,
                group,
                ticks,
                seed,
                ..
            } => {
                assert_eq!(correlated, Some(CorrelatedKind::SharedStorageStall));
                assert_eq!((units, group, ticks, seed), (3, 2, 200, 5));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("simulate --correlated avalanche --out x.json")).is_err());
    }

    #[test]
    fn simulate_defaults() {
        let cmd = parse(&argv("simulate --out x.json")).unwrap();
        match cmd {
            Command::Simulate {
                kind, units, ticks, ..
            } => {
                assert_eq!(kind, WorkloadKind::Tencent);
                assert_eq!(units, 4);
                assert_eq!(ticks, 400);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn simulate_requires_out() {
        assert!(parse(&argv("simulate --kind tpcc")).is_err());
    }

    #[test]
    fn simulate_chaos_full() {
        let cmd = parse(&argv(
            "simulate --chaos --seed 17 --units 2 --ticks 160 --boots 2 --no-crash \
             --out e.jsonl --verdicts v.jsonl --no-shrink",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Chaos {
                seed: Some(17),
                units: 2,
                ticks: 160,
                boots: 2,
                no_crash: true,
                out: Some("e.jsonl".into()),
                verdicts: Some("v.jsonl".into()),
                no_shrink: true,
            }
        );
    }

    #[test]
    fn simulate_chaos_defaults_leave_seed_to_env() {
        let cmd = parse(&argv("simulate --chaos")).unwrap();
        assert_eq!(
            cmd,
            Command::Chaos {
                seed: None,
                units: 3,
                ticks: 240,
                boots: 3,
                no_crash: false,
                out: None,
                verdicts: None,
                no_shrink: false,
            }
        );
        assert!(parse(&argv("simulate --chaos --seed banana")).is_err());
    }

    #[test]
    fn detect_and_evaluate() {
        let cmd = parse(&argv("detect --data ds.json --learn --out v.jsonl")).unwrap();
        assert_eq!(
            cmd,
            Command::Detect {
                data: "ds.json".into(),
                learn: true,
                train_frac: 0.5,
                out: Some("v.jsonl".into()),
                faults: FaultPreset::None,
                fault_seed: 7,
                gap_policy: GapPolicy::HoldLast,
            }
        );
        let cmd = parse(&argv("evaluate --data ds.json --train-frac 0.6")).unwrap();
        assert_eq!(
            cmd,
            Command::Evaluate {
                data: "ds.json".into(),
                learn: false,
                train_frac: 0.6,
                faults: FaultPreset::None,
                fault_seed: 7,
                gap_policy: GapPolicy::HoldLast,
            }
        );
    }

    #[test]
    fn fault_and_gap_flags() {
        let cmd = parse(&argv(
            "detect --data ds.json --faults heavy --fault-seed 99 --gap-policy linear-fill",
        ))
        .unwrap();
        match cmd {
            Command::Detect {
                faults,
                fault_seed,
                gap_policy,
                ..
            } => {
                assert_eq!(faults, FaultPreset::Heavy);
                assert_eq!(fault_seed, 99);
                assert_eq!(gap_policy, GapPolicy::LinearFill);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "evaluate --data ds.json --faults standard --gap-policy mark-missing",
        ))
        .unwrap();
        match cmd {
            Command::Evaluate {
                faults, gap_policy, ..
            } => {
                assert_eq!(faults, FaultPreset::Standard);
                assert_eq!(gap_policy, GapPolicy::MarkMissing);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("detect --data ds.json --faults catastrophic")).is_err());
        assert!(parse(&argv("detect --data ds.json --gap-policy zero-fill")).is_err());
    }

    #[test]
    fn export_csv() {
        let cmd = parse(&argv("export-csv --data ds.json --unit 2 --out u.csv")).unwrap();
        assert_eq!(
            cmd,
            Command::ExportCsv {
                data: "ds.json".into(),
                unit: 2,
                out: "u.csv".into(),
            }
        );
    }

    #[test]
    fn serve_and_emit() {
        let cmd = parse(&argv(
            "serve --listen 127.0.0.1:0 --units 8 --shards 2 --queue-cap 16 \
             --snapshot-dir snaps --snapshot-every 32 --resume snaps \
             --wal-dir wal --fsync-every 4 --shard-restart-limit 5 --wedge-timeout-ms 750 \
             --port-file p.txt --hierarchy --units-per-cluster 2 --clusters-per-region 2 \
             --scope-out scope.jsonl",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                listen: "127.0.0.1:0".into(),
                units: 8,
                shards: 2,
                queue_cap: 16,
                snapshot_dir: Some("snaps".into()),
                snapshot_every: 32,
                resume: Some("snaps".into()),
                wal_dir: Some("wal".into()),
                fsync_every: 4,
                shard_restart_limit: 5,
                wedge_timeout_ms: 750,
                gap_policy: GapPolicy::HoldLast,
                port_file: Some("p.txt".into()),
                hierarchy: true,
                units_per_cluster: 2,
                clusters_per_region: 2,
                scope_out: Some("scope.jsonl".into()),
            }
        );
        let cmd = parse(&argv(
            "emit --connect 127.0.0.1:7070 --data ds.json --rate 50 --window 8 \
             --faults standard --out v.jsonl --stop-server",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Emit {
                connect: "127.0.0.1:7070".into(),
                data: "ds.json".into(),
                rate: 50.0,
                window: 8,
                faults: FaultPreset::Standard,
                fault_seed: 7,
                out: Some("v.jsonl".into()),
                stop_server: true,
            }
        );
        assert_eq!(
            parse(&argv("stats --connect 127.0.0.1:7070")).unwrap(),
            Command::Stats {
                connect: "127.0.0.1:7070".into()
            }
        );
        assert_eq!(
            parse(&argv("reset-unit --connect 127.0.0.1:7070 --unit 3")).unwrap(),
            Command::ResetUnit {
                connect: "127.0.0.1:7070".into(),
                unit: 3,
            }
        );
        assert!(parse(&argv("serve --units 4")).is_err());
        assert!(parse(&argv("emit --connect x")).is_err());
        assert!(parse(&argv("stats")).is_err());
        assert!(parse(&argv("reset-unit --connect x")).is_err());
    }

    #[test]
    fn serve_durability_defaults() {
        let cmd = parse(&argv("serve --listen 127.0.0.1:0")).unwrap();
        match cmd {
            Command::Serve {
                wal_dir,
                fsync_every,
                shard_restart_limit,
                wedge_timeout_ms,
                hierarchy,
                units_per_cluster,
                clusters_per_region,
                scope_out,
                ..
            } => {
                assert_eq!(wal_dir, None);
                assert_eq!(fsync_every, 8);
                assert_eq!(shard_restart_limit, 3);
                assert_eq!(wedge_timeout_ms, 2000);
                assert!(!hierarchy);
                assert_eq!(units_per_cluster, 4);
                assert_eq!(clusters_per_region, 4);
                assert_eq!(scope_out, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn analyze_fleet() {
        let cmd = parse(&argv(
            "analyze-fleet --verdicts wal/hierarchy.wal --units 6 --units-per-cluster 3 \
             --clusters-per-region 2 --out scope.jsonl",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::AnalyzeFleet {
                verdicts: "wal/hierarchy.wal".into(),
                units: 6,
                units_per_cluster: 3,
                clusters_per_region: 2,
                out: Some("scope.jsonl".into()),
            }
        );
        let cmd = parse(&argv("analyze-fleet --verdicts v.jsonl")).unwrap();
        assert_eq!(
            cmd,
            Command::AnalyzeFleet {
                verdicts: "v.jsonl".into(),
                units: 0,
                units_per_cluster: 4,
                clusters_per_region: 4,
                out: None,
            }
        );
        assert!(parse(&argv("analyze-fleet --units 4")).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        for (line, flag) in [
            ("detect --data ds.json --backend naive", "--backend"),
            ("detect --data ds.json --fault-sed 3", "--fault-sed"),
            ("simulate --chaos --kind tpcc", "--kind"),
            ("stats --connect x --units 3", "--units"),
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert_eq!(err, format!("unknown flag for {}: {flag}", argv(line)[0]));
        }
    }

    #[test]
    fn value_flags_never_swallow_the_next_flag() {
        // `--out` must not take `--learn` as its path, and a trailing
        // `--faults` must not fall back to its default.
        for (line, flag) in [
            ("detect --data ds.json --out --learn", "--out"),
            ("detect --data ds.json --faults", "--faults"),
            ("simulate --chaos --seed", "--seed"),
            ("serve --listen --hierarchy", "--listen"),
        ] {
            assert_eq!(
                parse(&argv(line)),
                Err(format!("missing value for {flag}")),
                "{line}"
            );
        }
        // boolean flags take no value, wherever they stand
        assert!(parse(&argv("detect --learn --data ds.json --learn")).is_ok());
        assert!(parse(&argv("simulate --chaos --no-crash --no-shrink")).is_ok());
    }

    #[test]
    fn every_usage_flag_parses() {
        // Each USAGE entry with every flag it lists, values shaped by the
        // placeholder: the first choice of `<a|b>`, otherwise `1`.
        let entries = usage_entries();
        assert_eq!(entries.len(), 12, "one entry per `dbcatcher` USAGE line");
        for words in entries {
            let mut args = vec![words[1].to_string()];
            for (i, word) in words.iter().enumerate().skip(2) {
                if !word.starts_with("--") {
                    continue;
                }
                args.push(word.to_string());
                if let Some(next) = words.get(i + 1).filter(|w| !w.starts_with("--")) {
                    let value = match next.strip_prefix('<').and_then(|p| p.split_once('|')) {
                        Some((first, _)) => first,
                        None => "1",
                    };
                    args.push(value.to_string());
                }
            }
            assert!(parse(&args).is_ok(), "{args:?}: {:?}", parse(&args));
        }
    }

    #[test]
    fn errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("simulate --kind nosql --out x")).is_err());
        assert!(parse(&argv("simulate --units abc --out x")).is_err());
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }
}
