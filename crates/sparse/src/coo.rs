//! Coordinate-format (triplet) sparse matrices.
//!
//! [`CooMatrix`] is the mutable construction format: entries are appended in
//! any order (duplicates allowed, summed on conversion) and then converted
//! to [`CsrMatrix`] for computation.
//!
//! [`CsrMatrix`]: crate::CsrMatrix

use crate::{CsrMatrix, LinalgError, Result};

/// A sparse matrix in coordinate (triplet) format.
///
/// Primarily a builder for [`CsrMatrix`]. Duplicate coordinates are legal
/// and are summed during conversion, which makes assembly of finite-element
/// style matrices (e.g. the Wathen generator) straightforward.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty matrix with reserved capacity for `nnz` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Appends the entry `(row, col, val)`.
    ///
    /// Returns an error if the coordinate is out of bounds. Zero values are
    /// kept; use [`CsrMatrix::prune`] after conversion if explicit zeros are
    /// undesirable.
    pub fn push(&mut self, row: usize, col: usize, val: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(LinalgError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
    }

    /// Appends a symmetric pair of entries `(row, col, val)` and
    /// `(col, row, val)`; the diagonal is pushed once.
    pub fn push_sym(&mut self, row: usize, col: usize, val: f64) -> Result<()> {
        self.push(row, col, val)?;
        if row != col {
            self.push(col, row, val)?;
        }
        Ok(())
    }

    /// Iterates over `(row, col, value)` triplets in insertion order.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSR format, summing duplicate coordinates.
    #[expect(
        clippy::expect_used,
        reason = "conversion sorts and merges per row; CSR invariants hold by construction"
    )]
    pub fn to_csr(&self) -> CsrMatrix {
        // Classic two-pass counting sort on rows, then a per-row column sort
        // with duplicate coalescing.
        let mut row_counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        let mut next = row_counts.clone();
        for ((&r, &c), &v) in self.rows.iter().zip(&self.cols).zip(&self.vals) {
            let slot = next[r];
            col_idx[slot] = c;
            values[slot] = v;
            next[r] += 1;
        }

        // Sort within each row and coalesce duplicates.
        let mut out_ptr = vec![0usize; self.nrows + 1];
        let mut out_cols = Vec::with_capacity(self.nnz());
        let mut out_vals = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            let (lo, hi) = (row_counts[r], row_counts[r + 1]);
            scratch.clear();
            scratch.extend(
                col_idx[lo..hi]
                    .iter()
                    .copied()
                    .zip(values[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                out_cols.push(c);
                out_vals.push(v);
                i = j;
            }
            out_ptr[r + 1] = out_cols.len();
        }

        CsrMatrix::from_raw_parts(self.nrows, self.ncols, out_ptr, out_cols, out_vals)
            .expect("COO->CSR conversion produced invalid CSR; this is a bug")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_has_no_entries() {
        let coo = CooMatrix::new(3, 3);
        assert_eq!(coo.nnz(), 0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.nrows(), 3);
    }

    #[test]
    fn push_out_of_bounds_is_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 2, 1.0).is_err());
        assert!(coo.push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn duplicates_are_summed_in_csr() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.5).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 0), 3.5);
        assert_eq!(csr.get(1, 0), -1.0);
        assert_eq!(csr.get(1, 1), 0.0);
    }

    #[test]
    fn push_sym_mirrors_off_diagonals() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_sym(0, 1, 2.0).unwrap();
        coo.push_sym(2, 2, 5.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 1), 2.0);
        assert_eq!(csr.get(1, 0), 2.0);
        assert_eq!(csr.get(2, 2), 5.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn columns_are_sorted_after_conversion() {
        let mut coo = CooMatrix::new(1, 5);
        for c in [4, 0, 2, 3, 1] {
            coo.push(0, c, c as f64).unwrap();
        }
        let csr = coo.to_csr();
        let row: Vec<usize> = csr.row_cols(0).to_vec();
        assert_eq!(row, vec![0, 1, 2, 3, 4]);
    }
}
