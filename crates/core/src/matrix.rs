//! Correlation matrices (paper §III-B, Eq. 5).
//!
//! One [`CorrelationMatrix`] holds the pairwise KCD scores of all N
//! databases for *one* KPI over one window; the detector maintains Q of
//! them. The matrix is symmetric with unit diagonal, so only the strict
//! upper triangle is stored (the paper: "there is no need to save the
//! information of the lower triangular matrix").

use serde::{Deserialize, Serialize};

/// Symmetric N×N correlation matrix, packed upper-triangular.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CorrelationMatrix {
    n: usize,
    /// Strict upper triangle, row-major: (0,1), (0,2), …, (n-2,n-1).
    scores: Vec<f64>,
}

impl CorrelationMatrix {
    /// Rebuilds `self` in place (the score buffer keeps its capacity) by
    /// asking `score(i, j)` for every `i < j` pair — the batch scoring
    /// path's allocation-free form: one matrix per `(kpi, window)` is
    /// filled once per tick and shared by every judgement of the unit.
    /// Symmetry is supplied by the packing: each pair is evaluated once.
    pub fn from_pairwise_into(&mut self, n: usize, mut score: impl FnMut(usize, usize) -> f64) {
        self.n = n;
        self.scores.clear();
        self.scores.resize(n * n.saturating_sub(1) / 2, 0.0);
        let mut idx = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                // packed strict upper triangle is exactly this iteration
                // order, so the write cursor just advances
                self.scores[idx] = score(i, j);
                idx += 1;
            }
        }
    }

    /// Number of databases.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty (no databases).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        // offset of row i in the packed strict upper triangle
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Score between databases `i` and `j` (1 on the diagonal).
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        if i == j {
            return 1.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.scores[self.idx(a, b)]
    }

    /// Sets the (symmetric) score between `i` and `j`.
    ///
    /// # Panics
    /// Panics on out-of-range indices or `i == j`.
    pub fn set(&mut self, i: usize, j: usize, score: f64) {
        assert!(i < self.n && j < self.n, "index out of range");
        assert_ne!(i, j, "diagonal is fixed at 1");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let idx = self.idx(a, b);
        self.scores[idx] = score;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An identity-like matrix (all off-diagonal scores zero).
    fn zeros(n: usize) -> CorrelationMatrix {
        let mut m = CorrelationMatrix::default();
        m.from_pairwise_into(n, |_, _| 0.0);
        m
    }

    #[test]
    fn packing_round_trips() {
        let mut m = zeros(4);
        let mut v = 0.1;
        for i in 0..4 {
            for j in (i + 1)..4 {
                m.set(i, j, v);
                v += 0.1;
            }
        }
        let mut expect = 0.1;
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!((m.get(i, j) - expect).abs() < 1e-12);
                assert!((m.get(j, i) - expect).abs() < 1e-12, "symmetry");
                expect += 0.1;
            }
        }
    }

    #[test]
    fn diagonal_is_one() {
        let m = zeros(3);
        for i in 0..3 {
            assert_eq!(m.get(i, i), 1.0);
        }
    }

    #[test]
    fn storage_is_triangular() {
        let m = zeros(5);
        assert_eq!(m.scores.len(), 10); // 5*4/2
    }

    #[test]
    fn from_pairwise_into_reuses_buffer_without_changing_results() {
        let mut m = CorrelationMatrix::default();
        let mut calls = Vec::new();
        m.from_pairwise_into(4, |i, j| {
            calls.push((i, j));
            (i * 10 + j) as f64
        });
        assert_eq!(calls.len(), 6);
        assert!(calls.iter().all(|&(i, j)| i < j), "only upper triangle");
        assert_eq!(m.get(3, 1), 13.0, "symmetry from packing");
        let cap = m.scores.capacity();
        // refill at the same and a smaller arity: results exact, no growth
        m.from_pairwise_into(4, |i, j| (i + j) as f64);
        assert_eq!(m.get(1, 3), 4.0);
        assert_eq!(m.scores.capacity(), cap);
        m.from_pairwise_into(2, |_, _| 0.25);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(0, 1), 0.25);
        assert_eq!(m.scores.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn set_diagonal_panics() {
        let mut m = zeros(2);
        m.set(1, 1, 0.3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let m = zeros(2);
        let _ = m.get(0, 5);
    }

    #[test]
    fn empty_matrix() {
        let m = zeros(0);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
