//! Workloads, their seeded inputs and the open-loop send schedule.
//!
//! Every unit streams at the same per-unit period `P = units / rate`.
//! Two seeded offsets keep the daemon's load flat instead of bursty:
//!
//! - a *tick* offset: unit `u` streams `prefix[u] = WINDOW + k_u` warm-up
//!   ticks (`k_u < WINDOW`) before the timed phase, so window ends
//!   (judging ticks) fall on different rounds for different units;
//! - a *phase* offset: inside each round, unit `u` is due at
//!   `phase[u] * P`, so the units of one round are spread over it.
//!
//! Both offsets are stratified: every tick offset in `[0, WINDOW)` and
//! every phase slot of a round is used equally often, and the seed only
//! decides which unit gets which. The load pattern is then the same flat
//! one on every seed, which keeps seed-to-seed spread down.

use dbcatcher_serve::protocol::{encode, Request};
use dbcatcher_sim::CorrelatedKind;
use dbcatcher_workload::{DatasetSpec, FleetScenario, UnitData};

/// One benchmark workload: a fleet shape, a fixed offered rate and the
/// daemon layers it turns on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Units in the roster.
    pub units: usize,
    /// Databases per unit (14 KPIs each, Tencent-shaped).
    pub dbs: usize,
    /// Offered ticks per second over the whole fleet.
    pub rate: f64,
    /// `serve --hierarchy` (fleet-scope rollup).
    pub hierarchy: bool,
    /// Units `0..group` share one correlated incident (0: none).
    pub incident_group: usize,
    /// `serve --shards`. The daemon runs on one CPU of two (see
    /// `crate::pin`); one shard keeps long judging ticks from being
    /// time-sliced against another shard's.
    pub shards: usize,
}

/// Detection window of the default configuration (`initial_window`).
pub const WINDOW: u64 = 20;

/// Default snapshot cadence of `serve` (`--snapshot-every`).
pub const SNAPSHOT_EVERY: u64 = 64;

/// The benchmark's workloads (see `NOTES.md` for why each exists).
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "fleet",
        units: 1024,
        dbs: 5,
        rate: 5000.0,
        hierarchy: true,
        incident_group: 8,
        shards: 2,
    },
    Workload {
        name: "wide",
        units: 32,
        dbs: 16,
        rate: 1500.0,
        hierarchy: false,
        incident_group: 0,
        shards: 1,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: a small, seedable, portable generator for the schedule.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly shuffled `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        order
    }
}

/// One scheduled Tick: due time (ns from its phase's start), unit, tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Due time in nanoseconds from the start of the phase.
    pub due_ns: u64,
    /// Unit id.
    pub unit: u32,
    /// Absolute tick index of the unit.
    pub tick: u32,
}

/// The seeded timing of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Per-unit period in nanoseconds (`units / rate`).
    pub period_ns: f64,
    /// Timed rounds (one tick of every unit per round).
    pub rounds: u64,
    /// Warm-up ticks of each unit (`WINDOW + k_u`).
    pub prefix: Vec<u64>,
    /// Phase of each unit inside a round, as a fraction of the period.
    pub phase: Vec<f64>,
    /// Offered rate, ticks per second.
    pub rate: f64,
}

impl Schedule {
    /// Draws the offsets of `w` from `seed` and sizes the timed phase to
    /// `seconds` at the workload's rate.
    pub fn new(w: &Workload, seed: u64, seconds: f64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x5C4E_D01E);
        let n = w.units as u64;
        let prefix = rng
            .permutation(w.units)
            .into_iter()
            .map(|rank| WINDOW + rank as u64 * WINDOW / n)
            .collect();
        let phase = rng
            .permutation(w.units)
            .into_iter()
            .map(|rank| (rank as f64 + rng.unit_f64()) / n as f64)
            .collect();
        let rounds = ((seconds * w.rate) / w.units as f64).ceil().max(1.0) as u64;
        Schedule {
            period_ns: w.units as f64 / w.rate * 1e9,
            rounds,
            prefix,
            phase,
            rate: w.rate,
        }
    }

    /// Ticks unit `unit` streams in total.
    pub fn total_ticks(&self, unit: usize) -> u64 {
        self.prefix[unit] + self.rounds
    }

    /// Whether `tick` of `unit` belongs to the timed phase.
    pub fn is_timed(&self, unit: usize, tick: u64) -> bool {
        tick >= self.prefix[unit]
    }

    /// Due time of a timed tick, in ns from the timed phase's start.
    pub fn due_ns(&self, unit: usize, tick: u64) -> u64 {
        let round = (tick - self.prefix[unit]) as f64;
        ((round + self.phase[unit]) * self.period_ns) as u64
    }

    /// Length of the timed phase in nanoseconds.
    pub fn timed_span_ns(&self) -> u64 {
        (self.rounds as f64 * self.period_ns) as u64
    }

    /// The timed phase in send order.
    pub fn timed_items(&self) -> Vec<Item> {
        let mut items = Vec::with_capacity(self.prefix.len() * self.rounds as usize);
        for unit in 0..self.prefix.len() {
            for round in 0..self.rounds {
                let tick = self.prefix[unit] + round;
                items.push(Item {
                    due_ns: self.due_ns(unit, tick),
                    unit: unit as u32,
                    tick: tick as u32,
                });
            }
        }
        items.sort_by_key(|i| (i.due_ns, i.unit));
        items
    }

    /// The warm-up phase in send order: round by round, each round in
    /// phase order, paced evenly at the workload's rate.
    pub fn prefix_items(&self) -> Vec<Item> {
        let mut order: Vec<usize> = (0..self.prefix.len()).collect();
        order.sort_by(|a, b| self.phase[*a].total_cmp(&self.phase[*b]));
        let max = self.prefix.iter().copied().max().unwrap_or(0);
        let mut items = Vec::new();
        for tick in 0..max {
            for &unit in &order {
                if tick < self.prefix[unit] {
                    items.push(Item {
                        due_ns: (items.len() as f64 / self.rate * 1e9) as u64,
                        unit: unit as u32,
                        tick: tick as u32,
                    });
                }
            }
        }
        items
    }
}

/// Generates the KPI recordings of every unit: Tencent-shaped units
/// with the paper's ~3 % anomalies, and units `0..incident_group`
/// replaced by one correlated noisy-neighbour incident.
pub fn generate_units(w: &Workload, schedule: &Schedule, seed: u64) -> Vec<UnitData> {
    let ticks = (0..w.units)
        .map(|u| schedule.total_ticks(u))
        .max()
        .unwrap_or(0) as usize;
    let mut spec = DatasetSpec::paper_tencent(seed);
    spec.num_units = w.units;
    spec.ticks = ticks;
    spec.databases_per_unit = w.dbs;
    let mut units = spec.build().units;
    if w.incident_group >= 2 && w.dbs == 5 {
        let group: Vec<usize> = (0..w.incident_group).collect();
        let incident = FleetScenario::correlated(
            seed,
            CorrelatedKind::NoisyNeighbour,
            w.incident_group,
            &group,
            ticks,
        )
        .generate();
        for (slot, unit) in units.iter_mut().zip(incident.units) {
            *slot = unit;
        }
    }
    units
}

/// Pre-encoded wire lines of one phase, in send order.
#[derive(Debug, Default)]
pub struct Lines {
    /// Every line, newline-terminated, back to back.
    pub bytes: Vec<u8>,
    /// End offset of each line in `bytes`.
    pub ends: Vec<usize>,
}

impl Lines {
    /// Encodes one request per call and appends it.
    pub fn push(&mut self, request: &Request) {
        self.bytes.extend_from_slice(encode(request).as_bytes());
        self.bytes.push(b'\n');
        self.ends.push(self.bytes.len());
    }

    /// Line `i` without its newline.
    pub fn line(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i] - 1]
    }
}

/// Encodes the Tick lines of `items`.
pub fn tick_lines(units: &[UnitData], items: &[Item]) -> Lines {
    let mut lines = Lines::default();
    for item in items {
        lines.push(&Request::Tick {
            unit: item.unit as usize,
            tick: u64::from(item.tick),
            frame: units[item.unit as usize].tick_matrix(item.tick as usize),
        });
    }
    lines
}

/// The `Hello` line of every unit.
pub fn hello_lines(units: &[UnitData]) -> Lines {
    let mut lines = Lines::default();
    for (unit, data) in units.iter().enumerate() {
        lines.push(&Request::Hello {
            unit,
            dbs: data.num_databases(),
            kpis: data.num_kpis(),
            participation: Some(data.participation.clone()),
        });
    }
    lines
}

/// A `Flush` line for every unit.
pub fn flush_lines(units: usize) -> Lines {
    let mut lines = Lines::default();
    for unit in 0..units {
        lines.push(&Request::Flush { unit });
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        Workload {
            name: "test",
            units: 256,
            dbs: 5,
            rate: 2000.0,
            hierarchy: false,
            incident_group: 0,
            shards: 2,
        }
    }

    fn schedule_bytes(s: &Schedule) -> Vec<u8> {
        let mut out = Vec::new();
        for item in s.prefix_items().iter().chain(s.timed_items().iter()) {
            out.extend_from_slice(&item.due_ns.to_le_bytes());
            out.extend_from_slice(&item.unit.to_le_bytes());
            out.extend_from_slice(&item.tick.to_le_bytes());
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_schedule() {
        let a = Schedule::new(&small(), 42, 2.0);
        let b = Schedule::new(&small(), 42, 2.0);
        let c = Schedule::new(&small(), 43, 2.0);
        assert_eq!(schedule_bytes(&a), schedule_bytes(&b));
        assert_ne!(schedule_bytes(&a), schedule_bytes(&c));
    }

    #[test]
    fn each_unit_ticks_stay_in_order() {
        let s = Schedule::new(&small(), 7, 2.0);
        let mut next = vec![0u64; 256];
        let mut last_due = 0;
        for item in s.prefix_items() {
            assert!(item.due_ns >= last_due, "prefix pacing goes backwards");
            last_due = item.due_ns;
            assert_eq!(u64::from(item.tick), next[item.unit as usize]);
            next[item.unit as usize] += 1;
        }
        for (unit, n) in next.iter().enumerate() {
            assert_eq!(*n, s.prefix[unit]);
        }
        let mut last_due = 0;
        for item in s.timed_items() {
            assert!(item.due_ns >= last_due, "timed schedule goes backwards");
            last_due = item.due_ns;
            assert_eq!(u64::from(item.tick), next[item.unit as usize]);
            next[item.unit as usize] += 1;
        }
        for (unit, n) in next.iter().enumerate() {
            assert_eq!(*n, s.total_ticks(unit));
        }
    }

    #[test]
    fn phase_offsets_spread_the_judging_ticks() {
        // A judging tick ends a window: tick t with (t + 1) % WINDOW == 0.
        // Without offsets all 256 units would judge in the same round.
        let s = Schedule::new(&small(), 11, 4.0);
        let mut per_round = vec![0usize; s.rounds as usize];
        for unit in 0..256 {
            for round in 0..s.rounds {
                if (s.prefix[unit] + round + 1).is_multiple_of(WINDOW) {
                    per_round[round as usize] += 1;
                }
            }
        }
        let fair = 256 / WINDOW as usize;
        let worst = per_round.iter().copied().max().unwrap();
        assert!(
            worst <= 3 * fair,
            "judging ticks bunch: {worst} in one round (fair share {fair})"
        );
        // Inside a round, due times spread over the whole period too.
        let items = s.timed_items();
        let first_round: Vec<u64> = items
            .iter()
            .filter(|i| u64::from(i.tick) == s.prefix[i.unit as usize])
            .map(|i| i.due_ns)
            .collect();
        let span = first_round.iter().max().unwrap() - first_round.iter().min().unwrap();
        assert!(
            span as f64 > 0.9 * s.period_ns,
            "phases cover only {span} ns of a round"
        );
    }
}
