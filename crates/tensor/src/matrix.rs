//! The dense row-major `f32` matrix.

use crate::rng::Rng;

/// A dense row-major matrix of `f32` (`rows × cols`).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major storage, `rows * cols` elements.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from explicit data (length must equal `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Deterministic uniform init in `[-limit, limit]` (Xavier-style when
    /// `limit = sqrt(6 / (fan_in + fan_out))`).
    pub fn uniform(rows: usize, cols: usize, limit: f32, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.uniform_f32(-limit, limit))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot initialization with a deterministic seed.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        Matrix::uniform(rows, cols, limit, seed)
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Select a contiguous row range `[start, end)` as a new matrix —
    /// how a mini-batch is split into micro-batches.
    pub fn rows_slice(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows);
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Frobenius-style maximum absolute difference against another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        *m.get_mut(1, 2) = 5.0;
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn deterministic_init() {
        let a = Matrix::xavier(4, 4, 42);
        let b = Matrix::xavier(4, 4, 42);
        let c = Matrix::xavier(4, 4, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_within_limit() {
        let m = Matrix::xavier(16, 16, 7);
        let limit = (6.0 / 32.0f32).sqrt();
        assert!(m.data.iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn rows_slice() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let s = m.rows_slice(1, 3);
        assert_eq!(s.rows, 2);
        assert_eq!(s.data, vec![3., 4., 5., 6.]);
        assert_eq!(m.row(1), &[3., 4.]);
    }

    #[test]
    fn max_abs_diff() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![1., 2.5, 3.]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}
