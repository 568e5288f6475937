//! Compressed sparse row matrices and matrix–vector kernels.

use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;

use crate::dense::DenseMatrix;
use crate::{LinalgError, Result};

/// Stored-entry threshold above which [`CsrMatrix::spmv_auto`] switches
/// to the chunked parallel kernel. `0` means "not yet initialized from
/// the environment"; [`par_spmv_threshold`] resolves that lazily.
static PAR_SPMV_NNZ: AtomicUsize = AtomicUsize::new(0);

/// Default for [`par_spmv_threshold`]: high enough that small campaign
/// matrices (which already run many units in parallel) never pay scoped
/// thread-spawn overhead per iteration, low enough that the large
/// scaling-study matrices go parallel.
pub const PAR_SPMV_NNZ_DEFAULT: usize = 400_000;

/// Rows per parallel chunk in [`CsrMatrix::spmv_auto`]. Large enough to
/// amortize dispatch, small enough to load-balance irregular rows.
pub const PAR_SPMV_CHUNK_ROWS: usize = 4096;

/// The active `nnz` threshold for [`CsrMatrix::spmv_auto`].
///
/// Resolved once from the `RSLS_PAR_SPMV_NNZ` environment variable
/// (default [`PAR_SPMV_NNZ_DEFAULT`]); a value of `0` disables the
/// parallel path entirely. The gate only selects *which* bit-identical
/// kernel runs, so it can never affect results — only speed.
pub fn par_spmv_threshold() -> usize {
    match PAR_SPMV_NNZ.load(Ordering::Relaxed) {
        0 => {
            let v = std::env::var("RSLS_PAR_SPMV_NNZ")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .map_or(
                    PAR_SPMV_NNZ_DEFAULT,
                    |n| if n == 0 { usize::MAX } else { n },
                );
            PAR_SPMV_NNZ.store(v, Ordering::Relaxed);
            v
        }
        v => v,
    }
}

/// Overrides the [`par_spmv_threshold`] gate for this process.
///
/// `usize::MAX` forces the serial kernel, `1` forces the parallel one.
/// Tests use this instead of environment variables, which race between
/// threads of one test binary.
pub fn set_par_spmv_threshold(nnz: usize) {
    PAR_SPMV_NNZ.store(nnz.max(1), Ordering::Relaxed);
}

/// An immutable sparse matrix in compressed-sparse-row format.
///
/// # Example
///
/// ```
/// use rsls_sparse::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 2.0).unwrap();
/// coo.push_sym(0, 1, -1.0).unwrap();
/// coo.push(1, 1, 2.0).unwrap();
/// let a = coo.to_csr();
///
/// let mut y = vec![0.0; 2];
/// a.spmv(&[1.0, 2.0], &mut y);
/// assert_eq!(y, vec![0.0, 3.0]);
/// ```
///
/// The CSR invariants are validated on construction and relied upon
/// everywhere else:
///
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[nrows] == col_idx.len() == values.len()`,
/// * `row_ptr` is non-decreasing,
/// * column indices within each row are strictly increasing and in bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating all invariants.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != nrows + 1 {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "row_ptr has length {} but expected {}",
                    row_ptr.len(),
                    nrows + 1
                ),
            });
        }
        if row_ptr[0] != 0 || row_ptr[nrows] != col_idx.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "row_ptr endpoints do not match col_idx length".to_string(),
            });
        }
        if col_idx.len() != values.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "col_idx and values have different lengths".to_string(),
            });
        }
        for r in 0..nrows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(LinalgError::DimensionMismatch {
                    context: format!("row_ptr decreases at row {r}"),
                });
            }
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(LinalgError::DimensionMismatch {
                        context: format!("columns not strictly increasing in row {r}"),
                    });
                }
            }
            if let Some(&c) = row.last() {
                if c >= ncols {
                    return Err(LinalgError::IndexOutOfBounds {
                        row: r,
                        col: c,
                        nrows,
                        ncols,
                    });
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
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

    /// Number of stored (explicit) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Average number of stored entries per row.
    pub fn nnz_per_row(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// The CSR row-pointer array (`nrows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The CSR column-index array (one entry per stored value).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The stored values, row-major (parallel to [`CsrMatrix::col_idx`]).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Column indices of row `r`.
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Values of row `r` (parallel to [`CsrMatrix::row_cols`]).
    pub fn row_vals(&self, r: usize) -> &[f64] {
        &self.values[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Value at `(r, c)`, `0.0` when the entry is not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let cols = self.row_cols(r);
        match cols.binary_search(&c) {
            Ok(k) => self.row_vals(r)[k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over `(row, col, value)` of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            self.row_cols(r)
                .iter()
                .zip(self.row_vals(r))
                .map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Serial sparse matrix–vector product `y = A x`.
    ///
    /// `inline(never)` keeps exactly one compiled copy of this loop:
    /// the parallel kernels delegate here when only one worker is
    /// effective, and an inlined duplicate inside a delegating caller
    /// can codegen a few percent differently — enough to read as a
    /// phantom "parallel slowdown" in the kernel matrix.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    #[inline(never)]
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        for r in 0..self.nrows {
            let mut acc = 0.0;
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            y[r] = acc;
        }
    }

    /// Rayon-parallel sparse matrix–vector product `y = A x`.
    ///
    /// Rows are distributed over the rayon thread pool; results are
    /// bit-identical to [`CsrMatrix::spmv`] because each row is reduced
    /// serially.
    pub fn par_spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "par_spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "par_spmv: y length mismatch");
        let row_ptr = &self.row_ptr;
        let col_idx = &self.col_idx;
        let values = &self.values;
        y.par_iter_mut().enumerate().for_each(|(r, out)| {
            let mut acc = 0.0;
            for k in row_ptr[r]..row_ptr[r + 1] {
                acc += values[k] * x[col_idx[k]];
            }
            *out = acc;
        });
    }

    /// Row-chunked parallel product `y = A x`, bit-identical to
    /// [`CsrMatrix::spmv`].
    ///
    /// The output is split into chunks of `chunk_rows` rows; worker
    /// threads claim chunks from a shared cursor, and each row is still
    /// reduced serially, so chunking and scheduling can never change a
    /// single bit of the result. Compared to [`CsrMatrix::par_spmv`]
    /// (one static chunk per thread) the finer chunks load-balance
    /// matrices whose nnz varies across row ranges.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols`, `y.len() != nrows`, or
    /// `chunk_rows == 0`.
    pub fn par_spmv_chunked(&self, x: &[f64], y: &mut [f64], chunk_rows: usize) {
        assert_eq!(x.len(), self.ncols, "par_spmv_chunked: x length mismatch");
        assert_eq!(y.len(), self.nrows, "par_spmv_chunked: y length mismatch");
        assert!(chunk_rows > 0, "par_spmv_chunked: chunk_rows must be > 0");
        // One effective worker cannot win anything from the chunked
        // dispatch, but its differently-shaped inner loop can lose to
        // the serial kernel's codegen (measured once as a 0.84x
        // "parallel speedup" on one thread). Run the serial kernel
        // itself instead.
        if rayon::effective_num_threads() <= 1 {
            return self.spmv(x, y);
        }
        let row_ptr = &self.row_ptr;
        let col_idx = &self.col_idx;
        let values = &self.values;
        y.par_chunks_mut(chunk_rows)
            .enumerate()
            .for_each(|(ci, out)| {
                let base = ci * chunk_rows;
                for (i, slot) in out.iter_mut().enumerate() {
                    let r = base + i;
                    let mut acc = 0.0;
                    for k in row_ptr[r]..row_ptr[r + 1] {
                        acc += values[k] * x[col_idx[k]];
                    }
                    *slot = acc;
                }
            });
    }

    /// Size-gated product `y = A x`: the chunked parallel kernel for
    /// matrices with at least [`par_spmv_threshold`] stored entries
    /// (when more than one thread is available), the serial kernel
    /// otherwise. Both kernels are bit-identical, so the gate is purely
    /// a performance decision.
    pub fn spmv_auto(&self, x: &[f64], y: &mut [f64]) {
        if self.nnz() >= par_spmv_threshold() && rayon::effective_num_threads() > 1 {
            self.par_spmv_chunked(x, y, PAR_SPMV_CHUNK_ROWS);
        } else {
            self.spmv(x, y);
        }
    }

    /// Transposed product `y = Aᵀ x` (scatter formulation).
    ///
    /// # Panics
    /// Panics if `x.len() != nrows` or `y.len() != ncols`.
    pub fn spmv_transpose(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "spmv_transpose: x length mismatch");
        assert_eq!(y.len(), self.ncols, "spmv_transpose: y length mismatch");
        y.fill(0.0);
        for r in 0..self.nrows {
            // Structurally empty rows skip before the value test: no
            // `x[r]` load or float compare for rows with nothing to
            // scatter (common in tall panels from irregular meshes).
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if lo == hi {
                continue;
            }
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for k in lo..hi {
                y[self.col_idx[k]] += self.values[k] * xr;
            }
        }
    }

    /// Restricted product over a row range: `y = A[rows, :] x`.
    pub fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), rows.len());
        for (out, r) in y.iter_mut().zip(rows) {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *out = acc;
        }
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut next = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let slot = next[c];
                col_idx[slot] = r;
                values[slot] = self.values[k];
                next[c] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr: counts,
            col_idx,
            values,
        }
    }

    /// Extracts the dense submatrix `A[rows, cols]`.
    ///
    /// The LI reconstruction uses this with `rows == cols` to obtain the
    /// diagonal block `A_{p_i, p_i}` of the failed process (Eq. 19).
    pub fn dense_block(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> DenseMatrix {
        let mut block = DenseMatrix::zeros(rows.len(), cols.len());
        for (i, r) in rows.clone().enumerate() {
            let rc = self.row_cols(r);
            let rv = self.row_vals(r);
            // Stored columns are sorted; locate the [cols) window.
            let start = rc.partition_point(|&c| c < cols.start);
            let end = rc.partition_point(|&c| c < cols.end);
            for k in start..end {
                block[(i, rc[k] - cols.start)] = rv[k];
            }
        }
        block
    }

    /// Extracts the sparse submatrix `A[rows, cols]` in CSR form.
    ///
    /// The optimized LI reconstruction runs a *local CG* on the sparse
    /// diagonal block `A_{p_i,p_i}` (§4.1), so the block must stay sparse.
    pub fn sparse_block(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in rows.clone() {
            let rc = self.row_cols(r);
            let rv = self.row_vals(r);
            let start = rc.partition_point(|&c| c < cols.start);
            let end = rc.partition_point(|&c| c < cols.end);
            for k in start..end {
                col_idx.push(rc[k] - cols.start);
                values.push(rv[k]);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows: rows.len(),
            ncols: cols.len(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Extracts the sparse row panel `A[rows, :]` as its own CSR matrix.
    ///
    /// The LSI reconstruction operates on the failed process's row panel
    /// `A_{p_i,:}` (Eq. 21).
    pub fn row_panel(&self, rows: std::ops::Range<usize>) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let lo = self.row_ptr[rows.start];
        let hi = self.row_ptr[rows.end];
        let col_idx = self.col_idx[lo..hi].to_vec();
        let values = self.values[lo..hi].to_vec();
        for r in rows.clone() {
            row_ptr.push(self.row_ptr[r + 1] - lo);
        }
        CsrMatrix {
            nrows: rows.len(),
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of stored entries in `A[rows, :]` that fall outside
    /// `[cols)` — i.e. the halo/off-block entries a rank must gather.
    pub fn off_block_nnz(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> usize {
        let mut n = 0;
        for r in rows {
            let rc = self.row_cols(r);
            let start = rc.partition_point(|&c| c < cols.start);
            let end = rc.partition_point(|&c| c < cols.end);
            n += rc.len() - (end - start);
        }
        n
    }

    /// Checks structural and numerical symmetry to tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        self.iter()
            .all(|(r, c, v)| (self.get(c, r) - v).abs() <= tol)
    }

    /// Converts to a dense matrix (tests and small blocks only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// Returns a copy with entries of magnitude `<= threshold` removed.
    pub fn prune(&self, threshold: f64) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                if self.values[k].abs() > threshold {
                    col_idx.push(self.col_idx[k]);
                    values.push(self.values[k]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The diagonal of the matrix as a vector (missing entries are `0.0`).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Flops of one matrix–vector product (`2 * nnz`), used by the
    /// cluster performance model.
    pub fn spmv_flops(&self) -> u64 {
        2 * self.nnz() as u64
    }

    /// Bytes of one in-memory copy of the matrix (CSR arrays).
    pub fn storage_bytes(&self) -> u64 {
        (self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn sample() -> CsrMatrix {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 2.0).unwrap();
        }
        coo.push_sym(0, 1, -1.0).unwrap();
        coo.push_sym(1, 2, -1.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn raw_parts_validation_rejects_bad_row_ptr() {
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(
            CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err()
        );
    }

    #[test]
    fn raw_parts_validation_rejects_unsorted_columns() {
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn raw_parts_validation_rejects_out_of_bounds_column() {
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
    }

    #[test]
    fn spmv_matches_dense_reference() {
        let a = sample();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn par_spmv_matches_serial() {
        let a = sample();
        let x = vec![0.5, -1.5, 2.0];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        a.spmv(&x, &mut y1);
        a.par_spmv(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn par_spmv_chunked_matches_serial_at_every_chunk_size() {
        let a = sample();
        let x = vec![0.5, -1.5, 2.0];
        let mut want = vec![0.0; 3];
        a.spmv(&x, &mut want);
        for chunk_rows in [1, 2, 3, 7] {
            let mut got = vec![0.0; 3];
            a.par_spmv_chunked(&x, &mut got, chunk_rows);
            assert_eq!(want, got, "chunk_rows={chunk_rows}");
        }
    }

    #[test]
    fn spmv_auto_is_bit_identical_across_the_gate() {
        let a = sample();
        let x = vec![1.25, -0.75, 3.5];
        let mut serial = vec![0.0; 3];
        a.spmv(&x, &mut serial);
        // Force each side of the gate in turn; restore the default after.
        for forced in [1usize, usize::MAX] {
            set_par_spmv_threshold(forced);
            let mut got = vec![0.0; 3];
            a.spmv_auto(&x, &mut got);
            assert_eq!(serial, got, "threshold={forced}");
        }
        set_par_spmv_threshold(PAR_SPMV_NNZ_DEFAULT);
    }

    #[test]
    fn spmv_transpose_skips_structurally_empty_rows() {
        // Row 1 is structurally empty but x[1] != 0; row 2 has entries
        // but x[2] == 0. Both must be skipped without affecting y.
        let mut coo = CooMatrix::new(3, 2);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(2, 1, 5.0).unwrap();
        let a = coo.to_csr();
        let x = vec![3.0, 7.0, 0.0];
        let mut y = vec![f64::NAN, f64::NAN];
        a.spmv_transpose(&x, &mut y);
        assert_eq!(y, vec![6.0, 0.0]);
        let at = a.transpose();
        let mut want = vec![0.0; 2];
        at.spmv(&x, &mut want);
        assert_eq!(y, want);
    }

    #[test]
    fn transpose_of_symmetric_matrix_is_identical() {
        let a = sample();
        assert_eq!(a.transpose(), a);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn spmv_transpose_matches_transpose_spmv() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        let a = coo.to_csr();
        let x = vec![4.0, 5.0];
        let mut y1 = vec![0.0; 3];
        a.spmv_transpose(&x, &mut y1);
        let at = a.transpose();
        let mut y2 = vec![0.0; 3];
        at.spmv(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn dense_block_extracts_diagonal_block() {
        let a = sample();
        let block = a.dense_block(1..3, 1..3);
        assert_eq!(block[(0, 0)], 2.0);
        assert_eq!(block[(0, 1)], -1.0);
        assert_eq!(block[(1, 0)], -1.0);
        assert_eq!(block[(1, 1)], 2.0);
    }

    #[test]
    fn sparse_block_matches_dense_block() {
        let a = sample();
        let sb = a.sparse_block(1..3, 1..3);
        let db = a.dense_block(1..3, 1..3);
        assert_eq!(sb.to_dense(), db);
        assert_eq!(sb.nrows(), 2);
        assert_eq!(sb.ncols(), 2);
    }

    #[test]
    fn row_panel_preserves_rows() {
        let a = sample();
        let panel = a.row_panel(1..3);
        assert_eq!(panel.nrows(), 2);
        assert_eq!(panel.ncols(), 3);
        assert_eq!(panel.get(0, 0), -1.0);
        assert_eq!(panel.get(0, 1), 2.0);
        assert_eq!(panel.get(1, 2), 2.0);
    }

    #[test]
    fn off_block_nnz_counts_halo_entries() {
        let a = sample();
        // Rows 1..3, block columns 1..3: row 1 has entry at col 0 outside.
        assert_eq!(a.off_block_nnz(1..3, 1..3), 1);
        assert_eq!(a.off_block_nnz(0..3, 0..3), 0);
    }

    #[test]
    fn prune_drops_small_entries() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1e-15).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csr().prune(1e-12);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(1, 1), 1.0);
    }

    #[test]
    fn identity_acts_as_identity() {
        let i = CsrMatrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        let mut y = vec![0.0; 4];
        i.spmv(&x, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn spmv_rows_matches_full_spmv() {
        let a = sample();
        let x = vec![1.0, 2.0, 3.0];
        let mut full = vec![0.0; 3];
        a.spmv(&x, &mut full);
        let mut part = vec![0.0; 2];
        a.spmv_rows(1..3, &x, &mut part);
        assert_eq!(part, full[1..3]);
    }

    #[test]
    fn diagonal_returns_matrix_diagonal() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
    }
}
