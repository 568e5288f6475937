//! Row-major dense matrices.

use std::ops::{Index, IndexMut};

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An `nrows x ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_row_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "row-major data length mismatch");
        DenseMatrix { nrows, ncols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Swaps rows `a` and `b`.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(b * self.ncols);
        head[a * self.ncols..(a + 1) * self.ncols].swap_with_slice(&mut tail[..self.ncols]);
    }

    /// Matrix–vector product `y = A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for r in 0..self.nrows {
            y[r] = self.row(r).iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// Transposed product `y = Aᵀ x`.
    pub fn matvec_transpose(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows);
        assert_eq!(y.len(), self.ncols);
        y.fill(0.0);
        for r in 0..self.nrows {
            let xr = x[r];
            for (out, a) in y.iter_mut().zip(self.row(r)) {
                *out += a * xr;
            }
        }
    }

    /// Dense matrix product `A * B`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, other.nrows, "matmul dimension mismatch");
        let mut out = DenseMatrix::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.ncols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        out
    }

    /// Gram matrix `Aᵀ A` (symmetric, used for normal equations).
    pub fn gram(&self) -> DenseMatrix {
        let mut g = DenseMatrix::zeros(self.ncols, self.ncols);
        for r in 0..self.nrows {
            let row = self.row(r);
            for i in 0..self.ncols {
                let ai = row[i];
                if ai == 0.0 {
                    continue;
                }
                for j in i..self.ncols {
                    g[(i, j)] += ai * row[j];
                }
            }
        }
        for i in 0..self.ncols {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        &self.data[r * self.ncols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        &mut self.data[r * self.ncols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let i = DenseMatrix::identity(3);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        i.matvec(&x, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn swap_rows_exchanges_contents() {
        let mut m = DenseMatrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[3.0, 4.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
        m.swap_rows(1, 1);
        assert_eq!(m.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = DenseMatrix::from_row_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_row_major(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = DenseMatrix::from_row_major(3, 2, vec![1.0, 2.0, 0.0, 1.0, -1.0, 3.0]);
        let g = a.gram();
        assert_eq!(g[(0, 0)], 2.0);
        assert_eq!(g[(0, 1)], -1.0);
        assert_eq!(g[(1, 0)], -1.0);
        assert_eq!(g[(1, 1)], 14.0);
    }

    #[test]
    fn matvec_transpose_matches_manual() {
        let a = DenseMatrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut y = vec![0.0; 2];
        a.matvec_transpose(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![4.0, 6.0]);
    }
}
