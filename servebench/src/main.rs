//! `servebench`: an open-loop benchmark of the `dbcatcher serve` daemon.
//!
//! ```text
//! servebench --workload fleet|wide --seed N --seconds S --trace 0|1 \
//!            --daemon <path to dbcatcher> --work <scratch dir>
//! ```
//!
//! One run spawns the daemon, registers every unit (several times, to
//! time set-up), streams a warm-up, then streams the timed phase at the
//! workload's fixed rate and stops the daemon cleanly. It checks the
//! verdict stream (and, with the hierarchy on, the scope stream) against
//! an offline replay of the same frames. With `--trace 1` it also replays
//! the frames through each layer on one thread, with spans, and reports
//! the per-layer budget instead of the end-to-end metrics.
//!
//! A human-readable report goes to stderr; the last line of stdout is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod daemon;
mod drive;
mod pin;
mod plan;
mod replay;
mod report;
mod trace;

use check::{
    diff_lines, diff_verdicts, expected_scope, quantile, segment_of, segment_quantiles, Online,
};
use daemon::{Daemon, Inbox, Launch};
use dbcatcher_serve::protocol::{encode, Request};
use plan::{flush_lines, hello_lines, tick_lines, Lines, Schedule, Workload};
use replay::Layers;
use report::Metrics;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-up is repeated for this long, and at least [`SETUP_REPS`] times.
/// The host's speed changes from one second to the next; set-ups spread
/// over several seconds sample those changes instead of landing all in
/// one of them. The first [`SETUP_WARMUP`] are discarded (page cache,
/// allocator and first-touch effects), the rest reported as their median.
const SETUP_PHASE: Duration = Duration::from_secs(5);
/// See [`SETUP_PHASE`].
const SETUP_REPS: usize = 10;
/// See [`SETUP_PHASE`].
const SETUP_WARMUP: usize = 3;

/// Segments the timed phase is cut into, by due time: one second each
/// at the benchmark's 30-second runs. CPU time, machine steal and every
/// latency quantile are taken per segment; a latency metric is the median
/// of its values over the kept segments.
const SEGMENTS: usize = 30;

/// A segment in which the hypervisor stole more than this share of the
/// machine's CPU time (%) is left out of the reported latencies. On a
/// shared host, steal bursts of a few percent multiply tail latency
/// several times over; dropping them measures the daemon rather than its
/// neighbours. At least [`MIN_SEGMENTS`] are always kept (the quietest).
const MAX_STEAL_PCT: f64 = 2.5;
/// See [`MAX_STEAL_PCT`]. Few: a steal episode often covers most of a
/// run, and keeping half the segments then reports stolen ones.
const MIN_SEGMENTS: usize = SEGMENTS / 5;

/// The generator fell behind if 1 % of the ticks of the reported segments
/// went out later than this (ms)... Host stalls of 10-30 ms are routine
/// on a shared machine and stay below it; a rate the pair cannot sustain
/// does not.
const P99_LATENESS_MS: f64 = 20.0;
/// ...or if any tick went out this late (ms).
const MAX_LATENESS_MS: f64 = 250.0;
/// The daemon's backlog grew if its last ack came this long after the
/// last due time (ms).
const MAX_DRAIN_MS: f64 = 1000.0;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let name = value("--workload")?;
    Ok(Args {
        workload: plan::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        daemon: PathBuf::from(value("--daemon")?),
        work: PathBuf::from(value("--work")?),
    })
}

fn main() {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

/// The generated inputs of one run.
struct Inputs {
    schedule: Schedule,
    units: Vec<dbcatcher_workload::UnitData>,
    prefix_items: Vec<plan::Item>,
    prefix: Lines,
    timed_items: Vec<plan::Item>,
    timed: Lines,
    hellos: Lines,
    flushes: Lines,
}

fn generate(w: &Workload, seed: u64, seconds: f64) -> Inputs {
    let schedule = Schedule::new(w, seed, seconds);
    let units = plan::generate_units(w, &schedule, seed);
    let prefix_items = schedule.prefix_items();
    let timed_items = schedule.timed_items();
    Inputs {
        prefix: tick_lines(&units, &prefix_items),
        timed: tick_lines(&units, &timed_items),
        hellos: hello_lines(&units),
        flushes: flush_lines(w.units),
        schedule,
        units,
        prefix_items,
        timed_items,
    }
}

/// Registers every unit; returns the replies so far.
fn hello(
    daemon: &mut Daemon,
    hellos: &Lines,
    units: usize,
    capacity: usize,
) -> Result<Inbox, String> {
    daemon.send(&hellos.bytes)?;
    let mut inbox = Inbox::with_capacity(capacity);
    inbox.read_until(&mut daemon.stream, |ib| ib.hello_acks >= units)?;
    Ok(inbox)
}

/// What the end-to-end run measured.
struct EndToEnd {
    online: Online,
    setups_s: Vec<f64>,
    cpu_us_per_tick: f64,
    cpu_by_segment: Vec<f64>,
    rss_mb: f64,
    lateness_ms: Vec<f64>,
    steal_by_segment: Vec<f64>,
    kept: Vec<usize>,
    ticks_sent: u64,
    scope_file: Option<String>,
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    // Before the split below narrows this thread's CPUs.
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let split = pin::Split::claim();
    let started = Instant::now();
    let inputs = generate(&w, args.seed, args.seconds);
    eprintln!(
        "servebench {}: seed {}, {} units x {} dbs, {} shard(s), {:.0} ticks/s, {} warm-up + {} \
         timed ticks (generated in {:.1} s); {} CPUs, {}",
        w.name,
        args.seed,
        w.units,
        w.dbs,
        w.shards,
        w.rate,
        inputs.prefix_items.len(),
        inputs.timed_items.len(),
        started.elapsed().as_secs_f64(),
        cpus,
        if split.is_some() {
            "daemon and generator on CPUs of their own"
        } else {
            "daemon and generator share every CPU"
        }
    );
    let _ = std::fs::remove_dir_all(&args.work);
    std::fs::create_dir_all(&args.work).map_err(|e| format!("create work dir: {e}"))?;

    let e2e = end_to_end(args, &inputs, split.as_ref())?;

    let replay_input = replay::Input {
        units: &inputs.units,
        phases: [
            (&inputs.prefix, &inputs.prefix_items),
            (&inputs.timed, &inputs.timed_items),
        ],
        dir: &args.work.join("replay"),
    };
    let layers = if args.trace {
        Layers::of(&w)
    } else {
        Layers::REFERENCE
    };
    let reference = replay::run(&replay_input, layers, Tracer::new(false))?;
    let mut checks = check(&w, &inputs, &e2e, &reference)?;
    let timed = Timed::of(&inputs, &e2e);
    timed.validate(&mut checks.problems);
    timed.print(&e2e);
    eprintln!(
        "  checks: {} ticks sent, {} accepted, {} rejected; {} online verdicts vs {} offline; \
         scope {}",
        e2e.ticks_sent,
        e2e.online.accepted,
        e2e.online.rejected,
        e2e.online.verdicts.len(),
        reference.verdicts.len(),
        checks.scope_note,
    );
    for p in &checks.problems {
        eprintln!("  FAIL: {p}");
    }
    let correct = checks.failed == 0 && checks.problems.is_empty();

    let mut metrics = Metrics::default();
    if args.trace {
        let traced = replay::run(&replay_input, Layers::of(&w), Tracer::new(true))?;
        let overhead_pct = tracing_overhead_pct(&replay_input, &w)?;
        report::per_layer(
            &mut metrics,
            &w,
            &traced,
            overhead_pct,
            e2e.cpu_us_per_tick,
            e2e.online.stats.as_ref(),
            &args.work.join("spans.tsv"),
        )?;
    } else {
        metrics.put(
            "setup_s",
            quantile(&e2e.setups_s[SETUP_WARMUP..], 0.5).unwrap_or(f64::NAN),
            "s",
        );
        metrics.put("ack_p50_ms", timed.reported(&timed.ack_p50), "ms");
        metrics.put("verdict_p50_ms", timed.reported(&timed.verdict_p50), "ms");
        metrics.put("verdict_p90_ms", timed.reported(&timed.verdict_p90), "ms");
        metrics.put("cpu_us_per_tick", e2e.cpu_us_per_tick, "us");
        metrics.put("rss_mb", e2e.rss_mb, "MB");
    }
    metrics.print_table();
    eprintln!(
        "  {} in {:.1} s",
        if correct { "correct" } else { "NOT CORRECT" },
        started.elapsed().as_secs_f64()
    );
    Ok(metrics.json_line(correct, checks.attempted, checks.failed))
}

/// Traced/untraced replay pairs the tracing overhead is taken from.
const OVERHEAD_PAIRS: usize = 3;

/// Tracing overhead (%): the fastest traced replay of the workload's own
/// layers against the fastest untraced one, run in alternation so that a
/// drift of the host hits both sides alike. Bypassed layers are not probed
/// here: their disk I/O would swamp spans that cost well under a
/// microsecond a tick. The reference replay before this warmed caches and
/// the allocator.
fn tracing_overhead_pct(input: &replay::Input, w: &Workload) -> Result<f64, String> {
    let layers = Layers {
        probes: false,
        ..Layers::of(w)
    };
    let mut fastest = [u64::MAX; 2];
    for _ in 0..OVERHEAD_PAIRS {
        for (slot, traced) in fastest.iter_mut().zip([false, true]) {
            let wall_ns = replay::run(input, layers, Tracer::new(traced))?.wall_ns;
            *slot = (*slot).min(wall_ns);
        }
    }
    let [untraced, traced] = fastest.map(|ns| ns as f64);
    Ok(100.0 * (traced - untraced) / untraced.max(1.0))
}

/// Correctness and failure accounting of one run.
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    scope_note: String,
}

/// Compares everything the daemon said with the offline `reference`.
fn check(
    w: &Workload,
    inputs: &Inputs,
    e2e: &EndToEnd,
    reference: &replay::Replay,
) -> Result<Checks, String> {
    let online = &e2e.online;
    let mut problems: Vec<String> = Vec::new();
    let unacked = e2e
        .ticks_sent
        .saturating_sub(online.accepted + online.rejected);
    let mut failed = online.rejected + unacked + online.errors.len() as u64;
    if unacked > 0 {
        problems.push(format!("{unacked} tick(s) never acknowledged"));
    }
    problems.extend(online.errors.iter().take(5).cloned());
    let diff = diff_verdicts(&online.verdicts, &reference.verdicts);
    let bad_verdicts = diff.total() + online.redelivery_mismatches;
    failed += bad_verdicts;
    if bad_verdicts > 0 {
        problems.push(format!(
            "verdicts vs offline: {} missing, {} extra, {} mismatched, {} re-deliveries differ",
            diff.missing, diff.extra, diff.mismatched, online.redelivery_mismatches
        ));
    }
    for unit in 0..w.units {
        let want = inputs.schedule.total_ticks(unit);
        let got = online.flushed_to.get(&unit).copied().unwrap_or(0);
        if got != want {
            failed += 1;
            problems.push(format!("unit {unit} flushed to tick {got}, sent {want}"));
        }
    }
    let mut scope_note = String::from("off");
    if let Some(text) = &e2e.scope_file {
        let want = expected_scope(&reference.records, w.units)?;
        let got: Vec<&str> = text.lines().collect();
        let bad = diff_lines(&got, &want);
        failed += bad;
        scope_note = format!(
            "{} line(s), {bad} differ from the offline replay",
            want.len()
        );
        if bad > 0 {
            problems.push(format!("scope stream: {scope_note}"));
        }
    }
    Ok(Checks {
        attempted: e2e.ticks_sent + reference.verdicts.len() as u64,
        failed,
        problems,
        scope_note,
    })
}

/// Per-segment figures of the timed phase.
struct Timed {
    kept: Vec<usize>,
    ack_p50: Vec<f64>,
    verdict_p50: Vec<f64>,
    verdict_p90: Vec<f64>,
    verdict_p99: f64,
    verdicts: usize,
    /// Ack p50, verdict p50 and verdict p90 (ms) over the whole timed
    /// phase, printed beside the reported figures but not reported.
    whole_run: [f64; 3],
    /// Generator lateness (ms): median overall, p99 over the kept
    /// segments, max overall; and how long after the last due time the
    /// last ack came.
    late_p50: f64,
    late_p99: f64,
    late_max: f64,
    drain_ms: f64,
}

impl Timed {
    fn of(inputs: &Inputs, e2e: &EndToEnd) -> Timed {
        let span = inputs.schedule.timed_span_ns();
        let online = &e2e.online;
        let by_segment =
            |samples: &[(u64, f64)], q: f64| segment_quantiles(samples, span, SEGMENTS, q);
        let kept_lateness: Vec<f64> = inputs
            .timed_items
            .iter()
            .zip(&e2e.lateness_ms)
            .filter(|(item, _)| e2e.kept.contains(&segment_of(item.due_ns, span, SEGMENTS)))
            .map(|(_, &ms)| ms)
            .collect();
        let ack_ms: Vec<f64> = online.acks.iter().map(|s| s.1).collect();
        let verdict_ms: Vec<f64> = online.verdicts_due.iter().map(|s| s.1).collect();
        let last_due_ms = inputs
            .timed_items
            .last()
            .map_or(0.0, |i| i.due_ns as f64 / 1e6);
        Timed {
            kept: e2e.kept.clone(),
            ack_p50: by_segment(&online.acks, 0.5),
            verdict_p50: by_segment(&online.verdicts_due, 0.5),
            verdict_p90: by_segment(&online.verdicts_due, 0.9),
            verdict_p99: quantile(&verdict_ms, 0.99).unwrap_or(f64::NAN),
            verdicts: verdict_ms.len(),
            whole_run: [
                quantile(&ack_ms, 0.5).unwrap_or(f64::NAN),
                quantile(&verdict_ms, 0.5).unwrap_or(f64::NAN),
                quantile(&verdict_ms, 0.9).unwrap_or(f64::NAN),
            ],
            late_p50: quantile(&e2e.lateness_ms, 0.5).unwrap_or(0.0),
            late_p99: quantile(&kept_lateness, 0.99).unwrap_or(0.0),
            late_max: e2e.lateness_ms.iter().copied().fold(0.0, f64::max),
            drain_ms: online
                .acks
                .iter()
                .map(|&(due, ms)| due as f64 / 1e6 + ms)
                .fold(0.0, f64::max)
                - last_due_ms,
        }
    }

    /// The reported value of a per-segment series: its median over the
    /// kept segments. Stalls that hit a minority of segments (a steal
    /// burst below the filter, a scheduling hiccup) do not move it; a
    /// change in the daemon, which shows in every segment, does.
    fn reported(&self, values: &[f64]) -> f64 {
        let kept: Vec<f64> = self
            .kept
            .iter()
            .filter_map(|&i| values.get(i).copied())
            .filter(|v| v.is_finite())
            .collect();
        quantile(&kept, 0.5).unwrap_or(f64::NAN)
    }

    /// Open-loop validity: the generator kept its schedule in the kept
    /// segments and the daemon's backlog did not grow.
    fn validate(&self, problems: &mut Vec<String>) {
        if self.late_p99 > P99_LATENESS_MS || self.late_max > MAX_LATENESS_MS {
            problems.push(format!(
                "generator fell behind: lateness p99 {:.3} ms in the reported segments, \
                 max {:.3} ms",
                self.late_p99, self.late_max
            ));
        }
        if self.drain_ms > MAX_DRAIN_MS {
            problems.push(format!(
                "backlog grew: the last ack came {:.0} ms after the last due time",
                self.drain_ms
            ));
        }
    }

    fn print(&self, e2e: &EndToEnd) {
        let rows: [(&str, &[f64], usize); 6] = [
            ("set-up s, by repetition", &e2e.setups_s, 3),
            ("daemon cpu us/tick", &e2e.cpu_by_segment, 1),
            ("ack p50 ms", &self.ack_p50, 3),
            ("verdict p50 ms", &self.verdict_p50, 3),
            ("verdict p90 ms", &self.verdict_p90, 3),
            ("machine steal %", &e2e.steal_by_segment, 1),
        ];
        eprintln!(
            "  per segment (reported: {:?}; first {SETUP_WARMUP} set-ups discarded):",
            self.kept
        );
        for (name, values, digits) in rows {
            eprintln!("    {name:<24} {}", report::join(values, digits));
        }
        eprintln!(
            "  generator lateness: p50 {:.3} ms, p99 {:.3} ms (reported segments), max {:.3} ms; \
             last ack {:.1} ms after the last due time",
            self.late_p50, self.late_p99, self.late_max, self.drain_ms
        );
        // The control for the segment filter: plain whole-run quantiles,
        // every segment included.
        let [ack, v50, v90] = self.whole_run;
        eprintln!(
            "  whole run, every segment (not reported): ack p50 {ack:.4} ms, \
             verdict p50 {v50:.4} ms, verdict p90 {v90:.4} ms"
        );
        eprintln!(
            "  verdict_p99_ms {:.3} (not gated) from {} verdicts, {} beyond it",
            self.verdict_p99,
            self.verdicts,
            self.verdicts / 100
        );
    }
}

/// Indices of the segments to report: every one with at most
/// [`MAX_STEAL_PCT`] steal, or the [`MIN_SEGMENTS`] quietest if fewer
/// (earliest first on ties).
fn kept_segments(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|a, b| steal[*a].total_cmp(&steal[*b]).then(a.cmp(b)));
    let calm = order.iter().filter(|&&i| steal[i] <= MAX_STEAL_PCT).count();
    order.truncate(calm.max(MIN_SEGMENTS));
    order.sort_unstable();
    order
}

fn end_to_end(
    args: &Args,
    inputs: &Inputs,
    split: Option<&pin::Split>,
) -> Result<EndToEnd, String> {
    let w = args.workload;
    let capacity = inputs.timed.bytes.len() / 8;
    let launch = Launch {
        binary: args.daemon.clone(),
        shards: w.shards,
        units: w.units,
        scope_out: w.hierarchy.then(|| args.work.join("scope.jsonl")),
    };
    // The daemon runs on the split's daemon CPUs (one of two), through
    // set-up and streaming alike, so its times do not depend on whether
    // the host runs both CPUs at once.
    let mut setups_s = Vec::new();
    let mut last: Option<(Daemon, Inbox)> = None;
    let begun = Instant::now();
    while setups_s.len() < SETUP_REPS || begun.elapsed() < SETUP_PHASE {
        drop(last.take());
        let mut d = spawn(&launch, split)?;
        let inbox = hello(&mut d, &inputs.hellos, w.units, capacity)?;
        let acked = inbox.chunks.last().map(|c| c.1).unwrap_or(d.spawned);
        setups_s.push(acked.duration_since(d.spawned).as_secs_f64());
        last = Some((d, inbox));
    }
    let (mut d, inbox) = last.expect("at least one set-up");

    let driven = drive::drive(
        &mut d,
        &inputs.prefix,
        &inputs.prefix_items,
        &inputs.flushes,
        inbox,
        w.units,
        0,
        0,
    )?;
    let inbox = driven.inbox;
    let mut ticks_sent = inputs.prefix_items.len() as u64;
    let flushes = inbox.flush_acks + w.units;
    let timed = drive::drive(
        &mut d,
        &inputs.timed,
        &inputs.timed_items,
        &inputs.flushes,
        inbox,
        flushes,
        SEGMENTS,
        inputs.schedule.timed_span_ns(),
    )?;
    ticks_sent += inputs.timed_items.len() as u64;
    let per_tick = |a: &drive::Mark, b: &drive::Mark| {
        (b.cpu_s - a.cpu_s) / (b.sent - a.sent).max(1) as f64 * 1e6
    };
    let cpu_by_segment = timed
        .marks
        .windows(2)
        .map(|m| per_tick(&m[0], &m[1]))
        .collect();
    let steal_by_segment: Vec<f64> = timed
        .marks
        .windows(2)
        .map(|m| {
            100.0 * (m[1].jiffies.1 - m[0].jiffies.1) as f64
                / (m[1].jiffies.0 - m[0].jiffies.0).max(1) as f64
        })
        .collect();
    let kept = kept_segments(&steal_by_segment);
    // Over every segment: leaving out stolen ones did not steady it.
    let cpu_us_per_tick = per_tick(&timed.marks[0], &timed.marks[timed.marks.len() - 1]);
    let mut inbox = timed.inbox;
    d.send(format!("{}\n", encode(&Request::Stats)).as_bytes())?;
    inbox.read_until(&mut d.stream, |ib| ib.stats >= 1)?;
    let rss_mb = d.peak_rss_mb()?;
    d.send(format!("{}\n", encode(&Request::Stop)).as_bytes())?;
    d.wait_exit()?;
    let mut online = Online::default();
    online.absorb(&inbox, Some((&inputs.schedule, timed.t0)));
    let scope_file = match &launch.scope_out {
        Some(path) => Some(read(path)?),
        None => None,
    };
    Ok(EndToEnd {
        online,
        setups_s,
        cpu_us_per_tick,
        cpu_by_segment,
        rss_mb,
        lateness_ms: timed
            .lateness_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect(),
        steal_by_segment,
        kept,
        ticks_sent,
        scope_file,
    })
}

fn spawn(launch: &Launch, split: Option<&pin::Split>) -> Result<Daemon, String> {
    match split {
        Some(split) => split.on_daemon_cpus(|| Daemon::spawn(launch)),
        None => Daemon::spawn(launch),
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}
