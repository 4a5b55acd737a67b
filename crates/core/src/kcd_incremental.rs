//! Incremental correlation engine (the fast path of [`crate::pipeline`]).
//!
//! The naive backend treats every KCD evaluation as independent: copy both
//! windows out of the queues, min–max normalise each, then run the lag
//! scan with two passes per lag. On a unit of D databases judging aligned
//! windows that costs D·(D−1)/2 normalisations per KPI per tick and
//! re-derives every segment mean from scratch.
//!
//! This module keeps per-`(db, kpi)` state across ticks and exploits three
//! structural facts of the pipeline:
//!
//! 1. **Windows are suffixes.** The window state machine judges a window
//!    exactly when its end reaches the newest tick, so every min/max query
//!    is over a suffix of the ingested history — answered in O(log k) from
//!    a pair of monotonic deques instead of an O(k) scan.
//! 2. **Normalisation is shared, and expansions extend it.** The
//!    normalised window of `(db, kpi)` is cached with the `(start, lo,
//!    hi)` that produced it; every peer pair reuses it, and an expanded
//!    window whose min/max did not change appends only the new points
//!    instead of renormalising (the cache invalidates only when the
//!    min/max actually moves or the window advances).
//! 3. **Lag-scan moments come from prefix sums.** Prefix sums of the
//!    normalised window and its squares give every lag segment's mean and
//!    energy in O(1), collapsing each lag to a single fused dot-product
//!    pass — versus two passes per lag per direction in the naive path.
//!
//! Numerical contract: scores are algebraically identical to
//! [`crate::kcd::kcd_normalized`] but may differ in the last few ulps
//! because moments are derived from prefix sums and the dot products run
//! under a fixed four-lane accumulation order (`dot` / `dot2` below).
//! That order is plain portable Rust — no intrinsics, no FMA, no
//! run-time dispatch — so every host computes the same bits, and the
//! golden verdict streams pin them. Whole-window constants take the
//! exact convention branches (detected from the deques), and
//! near-constant *segments* fall back to the exact two-pass formulation,
//! so the degenerate conventions (constant-vs-constant = 1,
//! constant-vs-varying = 0) are preserved bit-for-bit. The differential
//! suite (`tests/differential.rs`) pins the backends to
//! verdict-for-verdict equality.

use crate::queues::KpiQueues;
use std::collections::VecDeque;

/// A segment's energy below `EPS_PER_POINT · len` is treated as
/// potentially degenerate and re-evaluated with the exact two-pass
/// formula. Normalised values live in [0, 1], so this is a relative
/// threshold on the variance scale.
const EPS_PER_POINT: f64 = 1e-12;

/// Cached min–max-normalised window of one series, with prefix sums.
#[derive(Debug, Clone, Default)]
struct NormCache {
    valid: bool,
    start: u64,
    lo: f64,
    hi: f64,
    /// Normalised points; `norm.len()` is the cached window length.
    norm: Vec<f64>,
    /// `psum[i]` = sum of `norm[..i]` (length `norm.len() + 1`).
    psum: Vec<f64>,
    /// `psumsq[i]` = sum of squares of `norm[..i]`.
    psumsq: Vec<f64>,
}

impl NormCache {
    /// A cache whose buffers never reallocate for windows up to
    /// `capacity` points.
    fn with_capacity(capacity: usize) -> Self {
        Self {
            norm: Vec::with_capacity(capacity),
            psum: Vec::with_capacity(capacity + 1),
            psumsq: Vec::with_capacity(capacity + 1),
            ..Self::default()
        }
    }

    fn reset(&mut self) {
        self.valid = false;
        self.norm.clear();
        self.psum.clear();
        self.psumsq.clear();
    }

    /// Appends normalised points for `raw` under the cached `(lo, hi)`.
    fn extend(&mut self, raw: &[f64]) {
        if self.psum.is_empty() {
            self.psum.push(0.0);
            self.psumsq.push(0.0);
        }
        let range = self.hi - self.lo;
        // The leading 0.0 pushed above doubles as the neutral fallback.
        let mut sum = self.psum.last().copied().unwrap_or(0.0);
        let mut sumsq = self.psumsq.last().copied().unwrap_or(0.0);
        if range == 0.0 {
            // Constant window: min_max maps it to all zeros.
            for _ in raw {
                self.norm.push(0.0);
                self.psum.push(sum);
                self.psumsq.push(sumsq);
            }
        } else {
            let inv = 1.0 / range;
            for &x in raw {
                let v = (x - self.lo) * inv;
                self.norm.push(v);
                sum += v;
                sumsq += v * v;
                self.psum.push(sum);
                self.psumsq.push(sumsq);
            }
        }
    }
}

/// Rolling state of one `(db, kpi)` series.
#[derive(Debug, Clone, Default)]
struct SeriesState {
    /// Contiguous retained samples; `data[0]` holds absolute tick `base`.
    data: Vec<f64>,
    base: u64,
    /// `(tick, value)` candidates, ticks ascending, values ascending —
    /// front is the minimum of the whole retained suffix.
    min_deque: VecDeque<(u64, f64)>,
    /// Same, values descending — front is the maximum.
    max_deque: VecDeque<(u64, f64)>,
    cache: NormCache,
}

impl SeriesState {
    /// State sized so the steady-state push/normalise cycle never
    /// reallocates: `data` grows to `2 * capacity + 1` before its lazy
    /// compaction and the deques briefly hold `capacity + 1` candidates
    /// before horizon eviction.
    fn with_capacity(capacity: usize) -> Self {
        Self {
            data: Vec::with_capacity(capacity * 2 + 1),
            base: 0,
            min_deque: VecDeque::with_capacity(capacity + 1),
            max_deque: VecDeque::with_capacity(capacity + 1),
            cache: NormCache::with_capacity(capacity),
        }
    }

    fn push(&mut self, tick: u64, value: f64, capacity: usize) {
        self.data.push(value);
        // Compact lazily at 2× capacity so slices stay contiguous and the
        // amortised cost per push is O(1).
        if self.data.len() > capacity * 2 {
            let drop = self.data.len() - capacity;
            self.data.drain(..drop);
            self.base += drop as u64;
        }
        while self.min_deque.back().is_some_and(|&(_, v)| v >= value) {
            self.min_deque.pop_back();
        }
        self.min_deque.push_back((tick, value));
        while self.max_deque.back().is_some_and(|&(_, v)| v <= value) {
            self.max_deque.pop_back();
        }
        self.max_deque.push_back((tick, value));
        // Evict candidates that no valid window can reach any more.
        let horizon = (tick + 1).saturating_sub(capacity as u64);
        while self.min_deque.front().is_some_and(|&(t, _)| t < horizon) {
            self.min_deque.pop_front();
        }
        while self.max_deque.front().is_some_and(|&(t, _)| t < horizon) {
            self.max_deque.pop_front();
        }
    }

    /// Minimum and maximum over the suffix window starting at `start`
    /// and ending at the newest retained tick.
    fn suffix_min_max(&self, start: u64) -> (f64, f64) {
        (
            Self::suffix_query(&self.min_deque, start),
            Self::suffix_query(&self.max_deque, start),
        )
    }

    fn suffix_query(deque: &VecDeque<(u64, f64)>, start: u64) -> f64 {
        // Ticks ascend, so the first candidate at or after `start` is the
        // extremum of the suffix.
        let idx = deque.partition_point(|&(t, _)| t < start);
        deque[idx].1
    }

    /// Ensures the normalised-window cache covers `[start, start + len)`,
    /// extending incrementally when only the window length grew.
    fn ensure_normalized(&mut self, start: u64, len: usize) {
        let (lo, hi) = self.suffix_min_max(start);
        let reusable = self.cache.valid
            && self.cache.start == start
            && self.cache.lo == lo
            && self.cache.hi == hi
            && self.cache.norm.len() <= len;
        if !reusable {
            self.cache.reset();
            self.cache.start = start;
            self.cache.lo = lo;
            self.cache.hi = hi;
            self.cache.valid = true;
        }
        let cached = self.cache.norm.len();
        if cached < len {
            let offset = (start - self.base) as usize;
            // Split the borrow so the cache extends straight from the
            // retained samples — no temporary copy of the fresh points.
            let Self { data, cache, .. } = self;
            cache.extend(&data[offset + cached..offset + len]);
        }
    }
}

/// Incremental pairwise KCD engine over a unit's KPI streams.
///
/// Feed it the same frames as [`KpiQueues`] and ask for pair scores over
/// suffix windows; see the module docs for the caching contract.
#[derive(Debug, Clone)]
pub struct IncrementalCorrelator {
    num_dbs: usize,
    num_kpis: usize,
    capacity: usize,
    /// `states[db * num_kpis + kpi]`.
    states: Vec<SeriesState>,
    /// Total ticks ingested (== next absolute tick).
    len: u64,
}

impl IncrementalCorrelator {
    /// Creates an engine retaining the last `capacity` ticks per series.
    ///
    /// # Panics
    /// Panics when any dimension is zero.
    pub fn new(num_dbs: usize, num_kpis: usize, capacity: usize) -> Self {
        assert!(
            num_dbs > 0 && num_kpis > 0 && capacity > 0,
            "dimensions must be positive"
        );
        Self {
            num_dbs,
            num_kpis,
            capacity,
            states: (0..num_dbs * num_kpis)
                .map(|_| SeriesState::with_capacity(capacity))
                // dbclint: allow(hot-path-alloc) — one-time per-series state slab at construction.
                .collect(),
            len: 0,
        }
    }

    /// Rebuilds the engine from a queue snapshot by replaying its retained
    /// samples (snapshot restore support).
    pub fn from_queues(queues: &KpiQueues) -> Self {
        let mut engine = Self::new(queues.num_dbs(), queues.num_kpis(), queues.capacity());
        let base = queues.base_tick();
        let retained = (queues.next_tick() - base) as usize;
        for db in 0..engine.num_dbs {
            for kpi in 0..engine.num_kpis {
                let series = queues
                    .window_slice(db, kpi, base, retained)
                    // dbclint: allow(panic-free) — snapshot restore: the span was just computed from the same queues; failure means a corrupt snapshot worth failing loud on.
                    .expect("retained range readable");
                let state = &mut engine.states[db * engine.num_kpis + kpi];
                state.base = base;
                for (i, &v) in series.iter().enumerate() {
                    state.push(base + i as u64, v, engine.capacity);
                }
            }
        }
        engine.len = queues.next_tick();
        engine
    }

    /// Next absolute tick to be ingested.
    pub fn next_tick(&self) -> u64 {
        self.len
    }

    /// Ingests one frame (`frame[db][kpi]`), mirroring
    /// [`KpiQueues::push`].
    ///
    /// # Panics
    /// Panics when the frame shape mismatches the engine dimensions.
    pub fn push(&mut self, frame: &[Vec<f64>]) {
        assert_eq!(frame.len(), self.num_dbs, "frame database arity mismatch");
        let tick = self.len;
        for (db, kpis) in frame.iter().enumerate() {
            assert_eq!(kpis.len(), self.num_kpis, "frame KPI arity mismatch");
            for (k, &v) in kpis.iter().enumerate() {
                self.states[db * self.num_kpis + k].push(tick, v, self.capacity);
            }
        }
        self.len += 1;
    }

    /// KCD score of databases `a` and `b` on `kpi` over the suffix window
    /// `[start, start + len)`, scanning lags up to `max_delay`.
    ///
    /// # Panics
    /// Panics when the window is not the current suffix (its end must be
    /// the newest ingested tick), has been evicted, or indices are out of
    /// range.
    pub fn pair_score(
        &mut self,
        a: usize,
        b: usize,
        kpi: usize,
        start: u64,
        len: usize,
        max_delay: usize,
    ) -> f64 {
        assert!(
            a < self.num_dbs && b < self.num_dbs && kpi < self.num_kpis,
            "index out of range"
        );
        assert!(len > 0, "empty window");
        assert_eq!(
            start + len as u64,
            self.len,
            "incremental engine judges suffix windows only"
        );
        assert!(
            self.len - start <= self.capacity as u64,
            "window reaches into evicted history"
        );

        let ia = a * self.num_kpis + kpi;
        let ib = b * self.num_kpis + kpi;
        self.states[ia].ensure_normalized(start, len);
        self.states[ib].ensure_normalized(start, len);
        self.pair_score_prepared(a, b, kpi, len, max_delay)
    }

    /// Hoists the per-window setup for one `(kpi, window)` batch: checks
    /// the suffix-window contract once and refreshes the normalised cache
    /// of every series flagged in `participates`, so subsequent
    /// [`Self::pair_score_prepared`] calls over that window are read-only
    /// kernel sweeps.
    ///
    /// # Panics
    /// Panics when the window is not the current suffix, has been
    /// evicted, or `kpi` / mask arity is out of range.
    pub fn prepare_windows(&mut self, kpi: usize, start: u64, len: usize, participates: &[bool]) {
        assert!(kpi < self.num_kpis, "kpi out of range");
        assert_eq!(participates.len(), self.num_dbs, "mask arity mismatch");
        assert!(len > 0, "empty window");
        assert_eq!(
            start + len as u64,
            self.len,
            "incremental engine judges suffix windows only"
        );
        assert!(
            self.len - start <= self.capacity as u64,
            "window reaches into evicted history"
        );
        for (db, &p) in participates.iter().enumerate() {
            if p {
                self.states[db * self.num_kpis + kpi].ensure_normalized(start, len);
            }
        }
    }

    /// KCD score over window caches previously refreshed by
    /// [`Self::prepare_windows`] — the batch fast path. Immutable, so the
    /// matrix builder can sweep every pair of a unit without re-running
    /// the window checks and cache maintenance per pair.
    ///
    /// Bit-identical to [`Self::pair_score`] on the same window. Both
    /// series must have been prepared for `kpi` at window length `len`;
    /// debug builds assert the cache state.
    pub fn pair_score_prepared(
        &self,
        a: usize,
        b: usize,
        kpi: usize,
        len: usize,
        max_delay: usize,
    ) -> f64 {
        debug_assert!(
            a < self.num_dbs && b < self.num_dbs && kpi < self.num_kpis,
            "index out of range"
        );
        let sa = &self.states[a * self.num_kpis + kpi];
        let sb = &self.states[b * self.num_kpis + kpi];
        debug_assert!(
            sa.cache.valid && sa.cache.norm.len() == len,
            "series (db {a}, kpi {kpi}) not prepared for window length {len}"
        );
        debug_assert!(
            sb.cache.valid && sb.cache.norm.len() == len,
            "series (db {b}, kpi {kpi}) not prepared for window length {len}"
        );
        let a_const = sa.cache.hi == sa.cache.lo;
        let b_const = sb.cache.hi == sb.cache.lo;
        // min_max maps constants to all-zero windows; the conventions of
        // `centered_correlation` then collapse the whole lag scan.
        match (a_const, b_const) {
            (true, true) => return 1.0,
            (true, false) | (false, true) => return 0.0,
            (false, false) => {}
        }

        let max_s = max_delay.min(len.saturating_sub(2));
        // Lags 0..=2 share one five-chain sweep when the scan reaches that
        // far; shorter scans start from a plain lag-0 pass. Scores clamp
        // to [-1, 1], so folding extra lags into a sweep that already hit
        // 1.0 cannot change the maximum — early exit stays sound.
        let mut best;
        let mut s;
        if max_s >= 2 {
            let (c0, c1, c2, c3, c4) = lag_correlation_penta(&sa.cache, &sb.cache, len);
            best = c0.max(c1).max(c2).max(c3).max(c4);
            s = 3;
        } else {
            best = lag_correlation(&sa.cache, &sb.cache, 0, 0, len);
            s = 1;
        }
        // Remaining lags go two at a time — four direction chains per
        // memory sweep — with an odd final lag on the dual-chain pass.
        while s <= max_s && best < 1.0 {
            if s < max_s {
                let (c1, c2, c3, c4) = lag_correlation_quad(&sa.cache, &sb.cache, s, len - s);
                best = best.max(c1).max(c2).max(c3).max(c4);
                s += 2;
            } else {
                let (c1, c2) = lag_correlation_pair(&sa.cache, &sb.cache, s, len - s);
                best = best.max(c1).max(c2);
                s += 1;
            }
        }
        best
    }
}

/// Mean and centred energy of `c.norm[off..off + len]`, in O(1) from the
/// prefix sums.
#[inline]
fn segment_moments(c: &NormCache, off: usize, len: usize) -> (f64, f64) {
    let n = len as f64;
    let m = (c.psum[off + len] - c.psum[off]) / n;
    let e = (c.psumsq[off + len] - c.psumsq[off] - n * m * m).max(0.0);
    (m, e)
}

/// Correlation of `x.norm[x_off..x_off + len]` against
/// `y.norm[y_off..y_off + len]`, moments from prefix sums, one
/// lane-parallel dot sweep ([`dot`]). Falls back to the exact
/// two-pass formula on degenerate segments.
fn lag_correlation(x: &NormCache, y: &NormCache, x_off: usize, y_off: usize, len: usize) -> f64 {
    let n = len as f64;
    let xs = &x.norm[x_off..x_off + len];
    let ys = &y.norm[y_off..y_off + len];
    let (mx, nx) = segment_moments(x, x_off, len);
    let (my, ny) = segment_moments(y, y_off, len);
    let eps = EPS_PER_POINT * n;
    if nx <= eps || ny <= eps {
        // A (near-)constant segment: the convention branches depend on
        // *exact* zero energy, which prefix-sum cancellation cannot
        // witness — defer to the naive formulation.
        return crate::kcd::centered_correlation(xs, ys);
    }
    let centered = dot(xs, ys) - n * mx * my;
    (centered / (nx.sqrt() * ny.sqrt())).clamp(-1.0, 1.0)
}

/// Both directions of lag `s` in one fused pass: the dot products of
/// `x[s..]·y[..len]` and `x[..len]·y[s..]` run as the two chains of one
/// [`dot2`] sweep, halving the number of memory sweeps while
/// keeping each chain's lane scheme — and therefore every score bit —
/// identical to [`lag_correlation`] run twice. Either direction with a
/// (near-)degenerate segment takes the exact-oracle path unchanged.
fn lag_correlation_pair(x: &NormCache, y: &NormCache, s: usize, len: usize) -> (f64, f64) {
    let n = len as f64;
    let eps = EPS_PER_POINT * n;
    let (mx1, nx1) = segment_moments(x, s, len);
    let (my1, ny1) = segment_moments(y, 0, len);
    let (mx2, nx2) = segment_moments(x, 0, len);
    let (my2, ny2) = segment_moments(y, s, len);
    if nx1 <= eps || ny1 <= eps || nx2 <= eps || ny2 <= eps {
        return (
            lag_correlation(x, y, s, 0, len),
            lag_correlation(x, y, 0, s, len),
        );
    }
    let xa = &x.norm[s..s + len];
    let yb = &y.norm[..len];
    let xb = &x.norm[..len];
    let ya = &y.norm[s..s + len];
    let (d1, d2) = dot2(xa, yb, xb, ya);
    let c1 = ((d1 - n * mx1 * my1) / (nx1.sqrt() * ny1.sqrt())).clamp(-1.0, 1.0);
    let c2 = ((d2 - n * mx2 * my2) / (nx2.sqrt() * ny2.sqrt())).clamp(-1.0, 1.0);
    (c1, c2)
}

/// Lags 0, 1 and 2 — five chains (lag 0 is its own reverse) — grouped
/// behind one moments/degeneracy check over `x.norm[..len]` and
/// `y.norm[..len]`. Every chain runs the shared lane scheme
/// ([`dot`] / [`dot2`]), so all five scores are
/// bit-identical to the unfused passes; any (near-)degenerate segment
/// drops the whole step back to the narrower kernels. Requires
/// `len >= 4`.
fn lag_correlation_penta(x: &NormCache, y: &NormCache, len: usize) -> (f64, f64, f64, f64, f64) {
    let l1 = len - 1;
    let l2 = len - 2;
    let (n0, n1, n2) = (len as f64, l1 as f64, l2 as f64);
    let (mx0, nx0) = segment_moments(x, 0, len);
    let (my0, ny0) = segment_moments(y, 0, len);
    let (mx1, nx1) = segment_moments(x, 1, l1);
    let (my1, ny1) = segment_moments(y, 0, l1);
    let (mx2, nx2) = segment_moments(x, 0, l1);
    let (my2, ny2) = segment_moments(y, 1, l1);
    let (mx3, nx3) = segment_moments(x, 2, l2);
    let (my3, ny3) = segment_moments(y, 0, l2);
    let (mx4, nx4) = segment_moments(x, 0, l2);
    let (my4, ny4) = segment_moments(y, 2, l2);
    let (eps0, eps1, eps2) = (EPS_PER_POINT * n0, EPS_PER_POINT * n1, EPS_PER_POINT * n2);
    if nx0 <= eps0
        || ny0 <= eps0
        || nx1 <= eps1
        || ny1 <= eps1
        || nx2 <= eps1
        || ny2 <= eps1
        || nx3 <= eps2
        || ny3 <= eps2
        || nx4 <= eps2
        || ny4 <= eps2
    {
        let c0 = lag_correlation(x, y, 0, 0, len);
        let (c1, c2) = lag_correlation_pair(x, y, 1, l1);
        let (c3, c4) = lag_correlation_pair(x, y, 2, l2);
        return (c0, c1, c2, c3, c4);
    }
    let xs = &x.norm[..len];
    let ys = &y.norm[..len];
    let d0 = dot(xs, ys);
    let (d1, d2) = dot2(&xs[1..], &ys[..l1], &xs[..l1], &ys[1..]);
    let (d3, d4) = dot2(&xs[2..], &ys[..l2], &xs[..l2], &ys[2..]);
    let c0 = ((d0 - n0 * mx0 * my0) / (nx0.sqrt() * ny0.sqrt())).clamp(-1.0, 1.0);
    let c1 = ((d1 - n1 * mx1 * my1) / (nx1.sqrt() * ny1.sqrt())).clamp(-1.0, 1.0);
    let c2 = ((d2 - n1 * mx2 * my2) / (nx2.sqrt() * ny2.sqrt())).clamp(-1.0, 1.0);
    let c3 = ((d3 - n2 * mx3 * my3) / (nx3.sqrt() * ny3.sqrt())).clamp(-1.0, 1.0);
    let c4 = ((d4 - n2 * mx4 * my4) / (nx4.sqrt() * ny4.sqrt())).clamp(-1.0, 1.0);
    (c0, c1, c2, c3, c4)
}

/// Lags `s` and `s + 1` — four direction chains — grouped behind one
/// moments/degeneracy check. The lag-`s` segments are `len` points, the
/// lag-`s + 1` segments `len - 1`; each direction pair runs as one
/// [`dot2`] sweep under the shared lane scheme, so each of the
/// four scores is bit-identical to the unfused passes; any
/// (near-)degenerate segment drops the whole step back to the
/// dual-chain path.
fn lag_correlation_quad(
    x: &NormCache,
    y: &NormCache,
    s: usize,
    len: usize,
) -> (f64, f64, f64, f64) {
    let n1 = len as f64;
    let short = len - 1;
    let n2 = short as f64;
    let (mx1, nx1) = segment_moments(x, s, len);
    let (my1, ny1) = segment_moments(y, 0, len);
    let (mx2, nx2) = segment_moments(x, 0, len);
    let (my2, ny2) = segment_moments(y, s, len);
    let (mx3, nx3) = segment_moments(x, s + 1, short);
    let (my3, ny3) = segment_moments(y, 0, short);
    let (mx4, nx4) = segment_moments(x, 0, short);
    let (my4, ny4) = segment_moments(y, s + 1, short);
    let eps1 = EPS_PER_POINT * n1;
    let eps2 = EPS_PER_POINT * n2;
    if nx1 <= eps1
        || ny1 <= eps1
        || nx2 <= eps1
        || ny2 <= eps1
        || nx3 <= eps2
        || ny3 <= eps2
        || nx4 <= eps2
        || ny4 <= eps2
    {
        let (c1, c2) = lag_correlation_pair(x, y, s, len);
        let (c3, c4) = lag_correlation_pair(x, y, s + 1, short);
        return (c1, c2, c3, c4);
    }
    let xa = &x.norm[s..s + len];
    let ya = &y.norm[s..s + len];
    let xb = &x.norm[..len];
    let yb = &y.norm[..len];
    let xc = &x.norm[s + 1..s + 1 + short];
    let yd = &y.norm[s + 1..s + 1 + short];
    let (d1, d2) = dot2(xa, yb, xb, ya);
    let (d3, d4) = dot2(xc, &yb[..short], &xb[..short], yd);
    let c1 = ((d1 - n1 * mx1 * my1) / (nx1.sqrt() * ny1.sqrt())).clamp(-1.0, 1.0);
    let c2 = ((d2 - n1 * mx2 * my2) / (nx2.sqrt() * ny2.sqrt())).clamp(-1.0, 1.0);
    let c3 = ((d3 - n2 * mx3 * my3) / (nx3.sqrt() * ny3.sqrt())).clamp(-1.0, 1.0);
    let c4 = ((d4 - n2 * mx4 * my4) / (nx4.sqrt() * ny4.sqrt())).clamp(-1.0, 1.0);
    (c1, c2, c3, c4)
}

/// Dot product under the lag scan's fixed four-lane order: virtual lane
/// `j` accumulates `x[4b + j] * y[4b + j]` over the `n / 4` full blocks,
/// the lanes reduce as `(l0 + l1) + (l2 + l3)`, and the `n % 4` tail
/// elements add sequentially onto that sum. Four independent chains give
/// the compiler vector-width parallelism on any target; the order itself
/// is what the golden verdict streams pin, so it must not change.
fn dot(xs: &[f64], ys: &[f64]) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    let mut lanes = [0.0f64; 4];
    let x4 = xs.chunks_exact(4);
    let y4 = ys.chunks_exact(4);
    let xt = x4.remainder();
    let yt = y4.remainder();
    for (x, y) in x4.zip(y4) {
        lanes[0] += x[0] * y[0];
        lanes[1] += x[1] * y[1];
        lanes[2] += x[2] * y[2];
        lanes[3] += x[3] * y[3];
    }
    let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (&x, &y) in xt.iter().zip(yt.iter()) {
        sum += x * y;
    }
    sum
}

/// Two dot products over equal-length chains in one memory sweep, which
/// is how the lag scan pairs the `+s`/`-s` shifted windows. Each chain
/// keeps the lane order of [`dot`], so the pair is bit-identical to two
/// [`dot`] calls.
fn dot2(x1: &[f64], y1: &[f64], x2: &[f64], y2: &[f64]) -> (f64, f64) {
    debug_assert_eq!(x1.len(), y1.len());
    debug_assert_eq!(x1.len(), x2.len());
    debug_assert_eq!(x2.len(), y2.len());
    let mut a = [0.0f64; 4];
    let mut b = [0.0f64; 4];
    let x14 = x1.chunks_exact(4);
    let y14 = y1.chunks_exact(4);
    let x24 = x2.chunks_exact(4);
    let y24 = y2.chunks_exact(4);
    let (x1t, y1t) = (x14.remainder(), y14.remainder());
    let (x2t, y2t) = (x24.remainder(), y24.remainder());
    for (((x1c, y1c), x2c), y2c) in x14.zip(y14).zip(x24).zip(y24) {
        a[0] += x1c[0] * y1c[0];
        a[1] += x1c[1] * y1c[1];
        a[2] += x1c[2] * y1c[2];
        a[3] += x1c[3] * y1c[3];
        b[0] += x2c[0] * y2c[0];
        b[1] += x2c[1] * y2c[1];
        b[2] += x2c[2] * y2c[2];
        b[3] += x2c[3] * y2c[3];
    }
    let mut s1 = (a[0] + a[1]) + (a[2] + a[3]);
    let mut s2 = (b[0] + b[1]) + (b[2] + b[3]);
    for (&x, &y) in x1t.iter().zip(y1t.iter()) {
        s1 += x * y;
    }
    for (&x, &y) in x2t.iter().zip(y2t.iter()) {
        s2 += x * y;
    }
    (s1, s2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcd::kcd_normalized;
    use dbcatcher_signal::normalize::min_max;

    /// Deterministic pseudo-random stream.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        }
    }

    fn feed(engine: &mut IncrementalCorrelator, series: &[Vec<f64>], upto: usize) {
        let start = engine.next_tick() as usize;
        for t in start..upto {
            let frame: Vec<Vec<f64>> = series.iter().map(|kpis| vec![kpis[t]]).collect();
            engine.push(&frame);
        }
    }

    /// Reference score via the naive path over the same window.
    fn naive(series: &[Vec<f64>], a: usize, b: usize, start: usize, len: usize, m: usize) -> f64 {
        let x = min_max(&series[a][start..start + len]);
        let y = min_max(&series[b][start..start + len]);
        kcd_normalized(&x, &y, m)
    }

    #[test]
    fn matches_naive_on_random_windows() {
        let mut next = lcg(42);
        let series: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..200).map(|_| next() * 50.0).collect())
            .collect();
        let mut engine = IncrementalCorrelator::new(3, 1, 140);
        for (start, len) in [(0usize, 20usize), (20, 30), (50, 25), (75, 60)] {
            feed(&mut engine, &series, start + len);
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                for m in [0usize, 3, 5] {
                    let fast = engine.pair_score(a, b, 0, start as u64, len, m);
                    let slow = naive(&series, a, b, start, len, m);
                    assert!(
                        (fast - slow).abs() < 1e-9,
                        "({a},{b}) window ({start},{len}) m={m}: {fast} vs {slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn expansion_extends_cache_and_matches_naive() {
        let mut next = lcg(7);
        let series: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..100).map(|_| next() * 10.0 - 5.0).collect())
            .collect();
        let mut engine = IncrementalCorrelator::new(2, 1, 140);
        // same start, growing window — the expansion path
        for len in [10usize, 20, 30, 40, 60] {
            feed(&mut engine, &series, len);
            let fast = engine.pair_score(0, 1, 0, 0, len, 3);
            let slow = naive(&series, 0, 1, 0, len, 3);
            assert!((fast - slow).abs() < 1e-9, "len {len}: {fast} vs {slow}");
        }
    }

    #[test]
    fn constant_conventions_are_exact() {
        let flat = vec![5.0; 60];
        let flat2 = vec![-3.0; 60];
        let varying: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).sin()).collect();
        let series = vec![flat, flat2, varying];
        let mut engine = IncrementalCorrelator::new(3, 1, 140);
        feed(&mut engine, &series, 40);
        assert_eq!(engine.pair_score(0, 1, 0, 10, 30, 5), 1.0);
        assert_eq!(engine.pair_score(0, 2, 0, 10, 30, 5), 0.0);
        assert_eq!(engine.pair_score(2, 1, 0, 10, 30, 5), 0.0);
    }

    #[test]
    fn flat_segment_inside_varying_window_matches_naive() {
        // A window whose interior contains an exactly constant stretch —
        // the degenerate-segment fallback must reproduce the naive
        // convention for lags that align onto the flat part.
        let mut a = vec![1.0; 30];
        a[0] = 0.0; // varies overall, flat on [1..30)
        let b: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let series = vec![a, b];
        let mut engine = IncrementalCorrelator::new(2, 1, 140);
        feed(&mut engine, &series, 30);
        for m in [0usize, 5, 14] {
            let fast = engine.pair_score(0, 1, 0, 0, 30, m);
            let slow = naive(&series, 0, 1, 0, 30, m);
            assert!((fast - slow).abs() < 1e-9, "m={m}: {fast} vs {slow}");
        }
    }

    #[test]
    fn symmetric_in_arguments() {
        let mut next = lcg(99);
        let series: Vec<Vec<f64>> = (0..2).map(|_| (0..50).map(|_| next()).collect()).collect();
        let mut engine = IncrementalCorrelator::new(2, 1, 140);
        feed(&mut engine, &series, 50);
        let ab = engine.pair_score(0, 1, 0, 20, 30, 4);
        let ba = engine.pair_score(1, 0, 0, 20, 30, 4);
        assert!((ab - ba).abs() < 1e-12, "{ab} vs {ba}");
    }

    #[test]
    fn long_run_with_eviction_matches_naive() {
        let mut next = lcg(1234);
        let cap = 50usize;
        let series: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..400).map(|_| next() * 100.0).collect())
            .collect();
        let mut engine = IncrementalCorrelator::new(2, 1, cap);
        let mut start = 0usize;
        let len = 20usize;
        while start + len <= 400 {
            feed(&mut engine, &series, start + len);
            let fast = engine.pair_score(0, 1, 0, start as u64, len, 3);
            let slow = naive(&series, 0, 1, start, len, 3);
            assert!(
                (fast - slow).abs() < 1e-9,
                "start {start}: {fast} vs {slow}"
            );
            start += len;
        }
    }

    #[test]
    fn from_queues_replays_state() {
        let mut next = lcg(5);
        let series: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..80).map(|_| next() * 9.0).collect())
            .collect();
        let mut queues = KpiQueues::new(2, 1, 60);
        let mut live = IncrementalCorrelator::new(2, 1, 60);
        for t in 0..80 {
            let frame: Vec<Vec<f64>> = series.iter().map(|kpis| vec![kpis[t]]).collect();
            queues.push(&frame);
            live.push(&frame);
        }
        let mut restored = IncrementalCorrelator::from_queues(&queues);
        assert_eq!(restored.next_tick(), live.next_tick());
        let a = live.pair_score(0, 1, 0, 60, 20, 3);
        let b = restored.pair_score(0, 1, 0, 60, 20, 3);
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }

    #[test]
    fn fused_pair_is_bit_identical_to_two_single_passes() {
        // The dual-chain kernel is an instruction-scheduling change only:
        // each direction's summation order is untouched, so the golden
        // verdict streams (full-precision incremental scores) cannot move.
        let mut next = lcg(77);
        for len in [2usize, 3, 5, 17, 60, 140] {
            let raw_x: Vec<f64> = (0..len).map(|_| next() * 20.0 - 10.0).collect();
            let raw_y: Vec<f64> = (0..len).map(|_| next() * 20.0 - 10.0).collect();
            let mut cx = NormCache::with_capacity(len);
            let mut cy = NormCache::with_capacity(len);
            let (lo_x, hi_x) = raw_x
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            let (lo_y, hi_y) = raw_y
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            cx.lo = lo_x;
            cx.hi = hi_x;
            cy.lo = lo_y;
            cy.hi = hi_y;
            cx.extend(&raw_x);
            cy.extend(&raw_y);
            for s in 1..len.saturating_sub(1) {
                let seg = len - s;
                let (c1, c2) = lag_correlation_pair(&cx, &cy, s, seg);
                let r1 = lag_correlation(&cx, &cy, s, 0, seg);
                let r2 = lag_correlation(&cx, &cy, 0, s, seg);
                assert_eq!(c1.to_bits(), r1.to_bits(), "len {len} s {s} dir 1");
                assert_eq!(c2.to_bits(), r2.to_bits(), "len {len} s {s} dir 2");
            }
        }
    }

    #[test]
    fn fused_quad_is_bit_identical_to_two_pairs() {
        // Same contract one level up: folding lags s and s + 1 into one
        // sweep must leave all four scores bit-identical to the
        // dual-chain passes.
        let mut next = lcg(99);
        for len in [4usize, 5, 17, 60, 140] {
            let raw_x: Vec<f64> = (0..len).map(|_| next() * 20.0 - 10.0).collect();
            let raw_y: Vec<f64> = (0..len).map(|_| next() * 20.0 - 10.0).collect();
            let mut cx = NormCache::with_capacity(len);
            let mut cy = NormCache::with_capacity(len);
            let (lo_x, hi_x) = raw_x
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            let (lo_y, hi_y) = raw_y
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            cx.lo = lo_x;
            cx.hi = hi_x;
            cy.lo = lo_y;
            cy.hi = hi_y;
            cx.extend(&raw_x);
            cy.extend(&raw_y);
            for s in 1..len.saturating_sub(2) {
                let seg = len - s;
                let (q1, q2, q3, q4) = lag_correlation_quad(&cx, &cy, s, seg);
                let (p1, p2) = lag_correlation_pair(&cx, &cy, s, seg);
                let (p3, p4) = lag_correlation_pair(&cx, &cy, s + 1, seg - 1);
                assert_eq!(q1.to_bits(), p1.to_bits(), "len {len} s {s} lag s dir 1");
                assert_eq!(q2.to_bits(), p2.to_bits(), "len {len} s {s} lag s dir 2");
                assert_eq!(q3.to_bits(), p3.to_bits(), "len {len} s {s} lag s+1 dir 1");
                assert_eq!(q4.to_bits(), p4.to_bits(), "len {len} s {s} lag s+1 dir 2");
            }
        }
    }

    #[test]
    fn fused_penta_is_bit_identical_to_narrow_kernels() {
        // The lag-0..=2 sweep must reproduce the plain pass and both
        // dual-chain passes bit for bit.
        let mut next = lcg(1234);
        for len in [4usize, 5, 17, 60, 140] {
            let raw_x: Vec<f64> = (0..len).map(|_| next() * 20.0 - 10.0).collect();
            let raw_y: Vec<f64> = (0..len).map(|_| next() * 20.0 - 10.0).collect();
            let mut cx = NormCache::with_capacity(len);
            let mut cy = NormCache::with_capacity(len);
            let (lo_x, hi_x) = raw_x
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            let (lo_y, hi_y) = raw_y
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            cx.lo = lo_x;
            cx.hi = hi_x;
            cy.lo = lo_y;
            cy.hi = hi_y;
            cx.extend(&raw_x);
            cy.extend(&raw_y);
            let (c0, c1, c2, c3, c4) = lag_correlation_penta(&cx, &cy, len);
            let r0 = lag_correlation(&cx, &cy, 0, 0, len);
            let (r1, r2) = lag_correlation_pair(&cx, &cy, 1, len - 1);
            let (r3, r4) = lag_correlation_pair(&cx, &cy, 2, len - 2);
            assert_eq!(c0.to_bits(), r0.to_bits(), "len {len} lag 0");
            assert_eq!(c1.to_bits(), r1.to_bits(), "len {len} lag 1 dir 1");
            assert_eq!(c2.to_bits(), r2.to_bits(), "len {len} lag 1 dir 2");
            assert_eq!(c3.to_bits(), r3.to_bits(), "len {len} lag 2 dir 1");
            assert_eq!(c4.to_bits(), r4.to_bits(), "len {len} lag 2 dir 2");
        }
    }

    #[test]
    fn pair_score_is_bit_identical_to_batch_path() {
        // Both entry points (classic pair_score vs prepare + prepared)
        // must agree bit for bit over the same stream.
        let mut next = lcg(31);
        let series: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..100).map(|_| next() * 30.0 - 15.0).collect())
            .collect();
        let mask = [true, true, true];
        let mut engine = IncrementalCorrelator::new(3, 1, 140);
        feed(&mut engine, &series, 100);
        for (start, len) in [(40u64, 60usize), (70, 30)] {
            for (a, b) in [(0usize, 1usize), (0, 2), (1, 2)] {
                let direct = engine.pair_score(a, b, 0, start, len, 5);
                engine.prepare_windows(0, start, len, &mask);
                let prepared = engine.pair_score_prepared(a, b, 0, len, 5);
                assert_eq!(
                    direct.to_bits(),
                    prepared.to_bits(),
                    "({a},{b}) window ({start},{len}): batch path diverged"
                );
            }
        }
    }

    /// The lane order of `dot`, written as plainly as possible.
    fn dot_reference(xs: &[f64], ys: &[f64]) -> f64 {
        let blocks = xs.len() / 4;
        let mut lanes = [0.0f64; 4];
        for b in 0..blocks {
            for j in 0..4 {
                lanes[j] += xs[4 * b + j] * ys[4 * b + j];
            }
        }
        let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for i in 4 * blocks..xs.len() {
            sum += xs[i] * ys[i];
        }
        sum
    }

    #[test]
    fn kernels_match_the_lane_reference_bitwise() {
        // The kernel-level guard for the golden bytes: every block count
        // and all four tail lengths, both kernels, to the bit.
        let mut next = lcg(7);
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 11, 16, 29, 64, 301] {
            let mut series = || -> Vec<f64> { (0..n).map(|_| next() * 200.0 - 100.0).collect() };
            let (x1, y1, x2, y2) = (series(), series(), series(), series());
            let want1 = dot_reference(&x1, &y1);
            let want2 = dot_reference(&x2, &y2);
            assert_eq!(dot(&x1, &y1).to_bits(), want1.to_bits(), "dot n={n}");
            let (s1, s2) = dot2(&x1, &y1, &x2, &y2);
            assert_eq!(s1.to_bits(), want1.to_bits(), "dot2 chain 1 n={n}");
            assert_eq!(s2.to_bits(), want2.to_bits(), "dot2 chain 2 n={n}");
        }
    }

    #[test]
    fn steady_state_pair_scores_do_not_reallocate() {
        // After warmup the per-series buffers (data, deques, norm cache)
        // must hold their allocations through push + pair_score cycles.
        let mut next = lcg(2024);
        let cap = 60usize;
        let mut engine = IncrementalCorrelator::new(2, 1, cap);
        let len = 20usize;
        for t in 0..3 * cap as u64 {
            engine.push(&[vec![next() * 4.0], vec![next() * 4.0]]);
            if t as usize + 1 >= len {
                let _ = engine.pair_score(0, 1, 0, t + 1 - len as u64, len, 3);
            }
        }
        let fingerprints: Vec<(*const f64, usize)> = engine
            .states
            .iter()
            .map(|s| (s.data.as_ptr(), s.data.capacity()))
            .collect();
        let norm_caps: Vec<usize> = engine
            .states
            .iter()
            .map(|s| s.cache.norm.capacity())
            .collect();
        for t in 3 * cap as u64..5 * cap as u64 {
            engine.push(&[vec![next() * 4.0], vec![next() * 4.0]]);
            let _ = engine.pair_score(0, 1, 0, t + 1 - len as u64, len, 3);
        }
        for (state, (ptr, cap_before)) in engine.states.iter().zip(&fingerprints) {
            assert_eq!(state.data.as_ptr(), *ptr, "data buffer must not move");
            assert_eq!(state.data.capacity(), *cap_before);
        }
        for (state, cap_before) in engine.states.iter().zip(&norm_caps) {
            assert_eq!(state.cache.norm.capacity(), *cap_before);
        }
    }

    #[test]
    #[should_panic(expected = "suffix windows only")]
    fn non_suffix_window_panics() {
        let mut engine = IncrementalCorrelator::new(2, 1, 40);
        for t in 0..30 {
            engine.push(&[vec![t as f64], vec![t as f64 * 2.0]]);
        }
        let _ = engine.pair_score(0, 1, 0, 0, 20, 3);
    }
}
