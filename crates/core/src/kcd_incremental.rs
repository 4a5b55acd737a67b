//! Lag-scan engine of the default correlation backend (the fast path of
//! [`crate::pipeline`]).
//!
//! The naive backend treats every KCD evaluation as independent: copy both
//! windows out of the queues, min–max normalise each, then run the lag
//! scan with two passes per lag. On a unit of D databases judging aligned
//! windows that costs D·(D−1)/2 normalisations per KPI per tick and
//! re-derives every segment mean from scratch.
//!
//! This engine keeps no state between ticks — the [`crate::queues::KpiQueues`]
//! slabs are the only per-series store. It rests on two facts:
//!
//! 1. **Normalisation is shared.** A judged `(kpi, window)` normalises
//!    each participating database's window once, straight from its
//!    queue slice, into a [`NormWindow`]; all D−1 pairings of that
//!    database read the same value.
//! 2. **Lag-scan moments come from prefix sums.** A [`NormWindow`] also
//!    holds prefix sums of its normalised points and their squares, which
//!    give every lag segment's mean and energy in O(1), collapsing each
//!    lag to a single fused dot-product pass ([`pair_score`]) — versus two
//!    passes per lag per direction in the naive path.
//!
//! Numerical contract: scores are algebraically identical to
//! [`crate::kcd::kcd_normalized`] but may differ in the last few ulps
//! because moments are derived from prefix sums and the dot products run
//! under a fixed four-lane accumulation order (`dot` / `dot2` below).
//! That order is plain portable Rust — no intrinsics, no FMA, no
//! run-time dispatch — so every host computes the same bits, and the
//! golden verdict streams pin them. Whole-window constants take the
//! exact convention branches (detected from the window's extremes), and
//! near-constant *segments* fall back to the exact two-pass formulation,
//! so the degenerate conventions (constant-vs-constant = 1,
//! constant-vs-varying = 0) are preserved bit-for-bit. The differential
//! suite (`tests/differential.rs`) pins the backends to
//! verdict-for-verdict equality.

/// A segment's energy below `EPS_PER_POINT · len` is treated as
/// potentially degenerate and re-evaluated with the exact two-pass
/// formula. Normalised values live in [0, 1], so this is a relative
/// threshold on the variance scale.
const EPS_PER_POINT: f64 = 1e-12;

/// One min–max-normalised window with its prefix sums: the input of
/// [`pair_score`]. [`Self::fill`] rebuilds it in place, so a reused value
/// stops allocating once its buffers have grown to the longest window.
#[derive(Debug, Clone, Default)]
pub struct NormWindow {
    lo: f64,
    hi: f64,
    /// Normalised points; `norm.len()` is the window length.
    norm: Vec<f64>,
    /// `psum[i]` = sum of `norm[..i]` (length `norm.len() + 1`).
    psum: Vec<f64>,
    /// `psumsq[i]` = sum of squares of `norm[..i]`.
    psumsq: Vec<f64>,
}

impl NormWindow {
    /// Replaces the contents with the normalised form of `raw`.
    pub fn fill(&mut self, raw: &[f64]) {
        // Among equal extremes the latest sample wins (`<=` / `>=`). That
        // only tells ±0.0 apart, but it is the pick the score bits of the
        // golden verdict streams were recorded with.
        let (mut lo, mut hi) = raw.first().map_or((0.0, 0.0), |&x| (x, x));
        for &x in raw {
            if x <= lo {
                lo = x;
            }
            if x >= hi {
                hi = x;
            }
        }
        self.lo = lo;
        self.hi = hi;
        self.norm.clear();
        self.psum.clear();
        self.psumsq.clear();
        self.psum.push(0.0);
        self.psumsq.push(0.0);
        let range = hi - lo;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
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
                let v = (x - lo) * inv;
                self.norm.push(v);
                sum += v;
                sumsq += v * v;
                self.psum.push(sum);
                self.psumsq.push(sumsq);
            }
        }
    }

    /// Window length in points.
    pub fn len(&self) -> usize {
        self.norm.len()
    }

    /// Whether the window holds no points.
    pub fn is_empty(&self) -> bool {
        self.norm.is_empty()
    }
}

/// KCD score of two equally long normalised windows, scanning lags up to
/// `max_delay`.
pub fn pair_score(a: &NormWindow, b: &NormWindow, max_delay: usize) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "KCD windows must be equally long");
    let len = a.len();
    let a_const = a.hi == a.lo;
    let b_const = b.hi == b.lo;
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
        let (c0, c1, c2, c3, c4) = lag_correlation_penta(a, b, len);
        best = c0.max(c1).max(c2).max(c3).max(c4);
        s = 3;
    } else {
        best = lag_correlation(a, b, 0, 0, len);
        s = 1;
    }
    // Remaining lags go two at a time — four direction chains per
    // memory sweep — with an odd final lag on the dual-chain pass.
    while s <= max_s && best < 1.0 {
        if s < max_s {
            let (c1, c2, c3, c4) = lag_correlation_quad(a, b, s, len - s);
            best = best.max(c1).max(c2).max(c3).max(c4);
            s += 2;
        } else {
            let (c1, c2) = lag_correlation_pair(a, b, s, len - s);
            best = best.max(c1).max(c2);
            s += 1;
        }
    }
    best
}

/// Mean and centred energy of `c.norm[off..off + len]`, in O(1) from the
/// prefix sums.
#[inline]
fn segment_moments(c: &NormWindow, off: usize, len: usize) -> (f64, f64) {
    let n = len as f64;
    let m = (c.psum[off + len] - c.psum[off]) / n;
    let e = (c.psumsq[off + len] - c.psumsq[off] - n * m * m).max(0.0);
    (m, e)
}

/// Correlation of `x.norm[x_off..x_off + len]` against
/// `y.norm[y_off..y_off + len]`, moments from prefix sums, one
/// lane-parallel dot sweep ([`dot`]). Falls back to the exact
/// two-pass formula on degenerate segments.
fn lag_correlation(x: &NormWindow, y: &NormWindow, x_off: usize, y_off: usize, len: usize) -> f64 {
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
fn lag_correlation_pair(x: &NormWindow, y: &NormWindow, s: usize, len: usize) -> (f64, f64) {
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
fn lag_correlation_penta(x: &NormWindow, y: &NormWindow, len: usize) -> (f64, f64, f64, f64, f64) {
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
    x: &NormWindow,
    y: &NormWindow,
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

    fn window(raw: &[f64]) -> NormWindow {
        let mut w = NormWindow::default();
        w.fill(raw);
        w
    }

    /// Engine score of `series[a]` against `series[b]` over one window.
    fn fast(series: &[Vec<f64>], a: usize, b: usize, start: usize, len: usize, m: usize) -> f64 {
        let x = window(&series[a][start..start + len]);
        let y = window(&series[b][start..start + len]);
        pair_score(&x, &y, m)
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
        for (start, len) in [(0usize, 20usize), (20, 30), (50, 25), (75, 60)] {
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                for m in [0usize, 3, 5] {
                    let fast = fast(&series, a, b, start, len, m);
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
    fn constant_conventions_are_exact() {
        let flat = vec![5.0; 60];
        let flat2 = vec![-3.0; 60];
        let varying: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).sin()).collect();
        let series = vec![flat, flat2, varying];
        assert_eq!(fast(&series, 0, 1, 10, 30, 5), 1.0);
        assert_eq!(fast(&series, 0, 2, 10, 30, 5), 0.0);
        assert_eq!(fast(&series, 2, 1, 10, 30, 5), 0.0);
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
        for m in [0usize, 5, 14] {
            let fast = fast(&series, 0, 1, 0, 30, m);
            let slow = naive(&series, 0, 1, 0, 30, m);
            assert!((fast - slow).abs() < 1e-9, "m={m}: {fast} vs {slow}");
        }
    }

    #[test]
    fn symmetric_in_arguments() {
        let mut next = lcg(99);
        let series: Vec<Vec<f64>> = (0..2).map(|_| (0..50).map(|_| next()).collect()).collect();
        let ab = fast(&series, 0, 1, 20, 30, 4);
        let ba = fast(&series, 1, 0, 20, 30, 4);
        assert!((ab - ba).abs() < 1e-12, "{ab} vs {ba}");
    }

    #[test]
    fn tied_extremes_take_the_latest_sample() {
        // ±0.0 compare equal, so which zero becomes `lo` / `hi` is the tie
        // rule: the latest one. Its sign reaches the normalised points
        // (`-0.0 - 0.0` is `-0.0`, `-0.0 - -0.0` is `+0.0`).
        let w = window(&[0.0, -0.0, 2.0]);
        assert_eq!(w.lo.to_bits(), (-0.0f64).to_bits());
        assert_eq!(w.norm[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(w.norm[1].to_bits(), 0.0f64.to_bits());
        let w = window(&[-0.0, 0.0, 2.0]);
        assert_eq!(w.lo.to_bits(), 0.0f64.to_bits());
        assert_eq!(w.norm[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(w.norm[1].to_bits(), 0.0f64.to_bits());
        let w = window(&[-2.0, 0.0, -0.0]);
        assert_eq!(w.hi.to_bits(), (-0.0f64).to_bits());
        let w = window(&[-2.0, -0.0, 0.0]);
        assert_eq!(w.hi.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn refill_matches_a_fresh_window() {
        // A reused value (the pipeline's pooled windows) must carry
        // nothing over from its previous, longer contents.
        let mut next = lcg(5);
        let long: Vec<f64> = (0..60).map(|_| next() * 9.0).collect();
        let short: Vec<f64> = (0..20).map(|_| next() * 9.0).collect();
        let peer = window(&short);
        let mut reused = window(&long);
        reused.fill(&short);
        assert_eq!(reused.len(), 20);
        let a = pair_score(&reused, &peer, 3);
        let b = pair_score(&window(&short), &peer, 3);
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
            let (cx, cy) = (window(&raw_x), window(&raw_y));
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
            let (cx, cy) = (window(&raw_x), window(&raw_y));
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
            let (cx, cy) = (window(&raw_x), window(&raw_y));
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
}
