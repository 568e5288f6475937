//! SELL-C-σ (sliced ELLPACK) storage and SpMV kernels.
//!
//! CSR's SpMV reduces each row through one serial dependency chain; for
//! the suite's stencil matrices (~5 stored entries per row) the chain is
//! so short that the kernel is latency-bound, not bandwidth-bound. The
//! SELL-C-σ layout (Kreutzer et al.) groups rows into *chunks* of `C`
//! lanes stored column-major, so one pass of the inner loop advances `C`
//! independent accumulators at once — the instruction-level parallelism
//! CSR cannot expose. Rows are sorted by descending length inside
//! windows of `σ` rows, which keeps chunk padding low without destroying
//! locality of `x` accesses.
//!
//! # Determinism
//!
//! Every kernel here is **bit-identical to [`CsrMatrix::spmv`]**:
//!
//! * each lane accumulates its row's entries left to right in CSR order
//!   — the same serial chain, just interleaved across lanes;
//! * padding slots are never read: the inner loop is bounded by the
//!   number of *active* lanes at each column step (lanes are sorted by
//!   descending length, so active lanes are a prefix). Folding padding
//!   into the sum would already break bit-identity, because
//!   `-0.0 + 0.0 == +0.0`;
//! * `σ` is rounded up to a multiple of `C`, so every chunk lies inside
//!   one sorting window and the row permutation is *window-local*. The
//!   parallel kernel hands each window's `y` slice to one worker —
//!   disjoint writes, no scatter pass, no dependence on scheduling.

use std::sync::atomic::Ordering;

use rayon::prelude::*;

use crate::csr::par_spmv_threshold;
use crate::CsrMatrix;

/// Default chunk height: eight f64 lanes fill two AVX2 (or one AVX-512)
/// vector registers, and eight independent accumulator chains are enough
/// to hide FMA latency on current cores.
pub const SELL_DEFAULT_C: usize = 8;

/// Default sorting window. Also the parallel grain: each window of rows
/// is one unit of work, so ~100k-row suite matrices yield enough windows
/// to balance 4 workers while each window still amortizes dispatch.
pub const SELL_DEFAULT_SIGMA: usize = 4096;

/// Upper bound on the chunk height `C` (sizes the stack-resident
/// accumulator block in the kernels).
pub const SELL_MAX_C: usize = 64;

/// Lane sentinel for padding rows appended past `nrows`.
const PAD: usize = usize::MAX;

/// A sparse matrix in SELL-C-σ format, converted from [`CsrMatrix`].
///
/// Construction never fails for a valid CSR matrix; the converted form
/// represents exactly the same operator and its kernels produce results
/// bit-identical to the CSR reference.
#[derive(Debug, Clone, PartialEq)]
pub struct SellMatrix {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    c: usize,
    sigma: usize,
    /// `perm[lane] = original row` (lanes sorted by descending row
    /// length inside each σ-window; [`PAD`] past `nrows`).
    perm: Vec<usize>,
    /// Stored-entry count of each lane's row (`0` for padding lanes).
    row_len: Vec<usize>,
    /// Start offset of each chunk in `col_idx` / `values`
    /// (`n_chunks + 1` entries; chunk width = span / C).
    chunk_ptr: Vec<usize>,
    /// Column indices, column-major per chunk, padded with `0`. Stored
    /// as `u32`: SpMV is bandwidth-bound, and narrow indices cut a
    /// third of the per-entry index traffic next to CSR's `usize`.
    col_idx: Vec<u32>,
    /// Values, column-major per chunk, padded with `0.0` (never read).
    values: Vec<f64>,
}

impl SellMatrix {
    /// Converts a CSR matrix with the default `C` and `σ`.
    pub fn from_csr(a: &CsrMatrix) -> SellMatrix {
        SellMatrix::from_csr_with(a, SELL_DEFAULT_C, SELL_DEFAULT_SIGMA)
    }

    /// Converts a CSR matrix with chunk height `c` and sorting window
    /// `sigma`. `sigma` is rounded up to a multiple of `c` so chunks
    /// never straddle window boundaries.
    ///
    /// # Panics
    /// Panics if `c == 0`, `c > SELL_MAX_C`, or the matrix has more
    /// columns than the 32-bit index storage can address.
    pub fn from_csr_with(a: &CsrMatrix, c: usize, sigma: usize) -> SellMatrix {
        assert!(c > 0, "SellMatrix: chunk height must be positive");
        assert!(
            c <= SELL_MAX_C,
            "SellMatrix: chunk height above {SELL_MAX_C}"
        );
        assert!(
            a.ncols() <= u32::MAX as usize,
            "SellMatrix: column count exceeds u32 index storage"
        );
        let sigma = sigma.max(c).div_ceil(c) * c;
        let nrows = a.nrows();
        let n_lanes = nrows.div_ceil(c) * c;
        let n_chunks = n_lanes / c;

        // Window-local sort: rows by (length desc, index asc) — fully
        // deterministic, and padding lanes (length 0) sort last.
        let mut perm = Vec::with_capacity(n_lanes);
        let mut window: Vec<(usize, usize)> = Vec::with_capacity(sigma);
        let row_ptr = a.row_ptr();
        let mut w0 = 0;
        while w0 < nrows {
            let w1 = (w0 + sigma).min(nrows);
            window.clear();
            window.extend((w0..w1).map(|r| (row_ptr[r + 1] - row_ptr[r], r)));
            window.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
            perm.extend(window.iter().map(|&(_, r)| r));
            w0 = w1;
        }
        perm.resize(n_lanes, PAD);

        let row_len: Vec<usize> = perm
            .iter()
            .map(|&r| {
                if r == PAD {
                    0
                } else {
                    row_ptr[r + 1] - row_ptr[r]
                }
            })
            .collect();

        let mut chunk_ptr = Vec::with_capacity(n_chunks + 1);
        chunk_ptr.push(0usize);
        for ch in 0..n_chunks {
            // Lanes descend in length, so the chunk width is lane 0's.
            let width = row_len[ch * c];
            chunk_ptr.push(chunk_ptr[ch] + width * c);
        }

        let slots = *chunk_ptr.last().unwrap_or(&0);
        let mut col_idx = vec![0u32; slots];
        let mut values = vec![0f64; slots];
        for ch in 0..n_chunks {
            let base = chunk_ptr[ch];
            for lane in 0..c {
                let r = perm[ch * c + lane];
                if r == PAD {
                    continue;
                }
                let cols = a.row_cols(r);
                let vals = a.row_vals(r);
                for (j, (&cj, &vj)) in cols.iter().zip(vals).enumerate() {
                    col_idx[base + j * c + lane] = cj as u32;
                    values[base + j * c + lane] = vj;
                }
            }
        }

        SellMatrix {
            nrows,
            ncols: a.ncols(),
            nnz: a.nnz(),
            c,
            sigma,
            perm,
            row_len,
            chunk_ptr,
            col_idx,
            values,
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

    /// Stored entries of the source matrix (excludes padding).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The chunk height `C`.
    pub fn chunk_height(&self) -> usize {
        self.c
    }

    /// The effective sorting window `σ` (rounded to a multiple of `C`).
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Allocated value slots including padding.
    pub fn padded_slots(&self) -> usize {
        self.values.len()
    }

    /// `padded_slots / nnz` — the storage (and wasted-lane) overhead of
    /// the layout; `1.0` means no padding at all.
    pub fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.padded_slots() as f64 / self.nnz as f64
        }
    }

    /// Bytes of one in-memory copy (perm, lengths, pointers, padded arrays).
    pub fn storage_bytes(&self) -> u64 {
        ((self.perm.len() + self.row_len.len() + self.chunk_ptr.len())
            * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Serial SELL-C-σ product `y = A x`, bit-identical to
    /// [`CsrMatrix::spmv`] on the source matrix.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "sell spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "sell spmv: y length mismatch");
        for (w, out) in y.chunks_mut(self.sigma).enumerate() {
            self.spmv_window(w, x, out);
        }
    }

    /// Window-parallel product `y = A x`, bit-identical to
    /// [`SellMatrix::spmv`] (and therefore to the CSR reference): the
    /// row permutation is window-local, so each σ-window's `y` slice is
    /// written by exactly one worker and scheduling cannot reorder any
    /// accumulation.
    pub fn par_spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "sell par_spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "sell par_spmv: y length mismatch");
        y.par_chunks_mut(self.sigma)
            .enumerate()
            .for_each(|(w, out)| self.spmv_window(w, x, out));
    }

    /// Size-gated product `y = A x`: window-parallel for matrices with
    /// at least [`par_spmv_threshold`] stored entries, serial otherwise.
    /// Both kernels are bit-identical, so the gate is purely a
    /// performance decision.
    pub fn spmv_auto(&self, x: &[f64], y: &mut [f64]) {
        if self.nnz >= par_spmv_threshold() {
            self.par_spmv(x, y);
        } else {
            self.spmv(x, y);
        }
    }

    /// Computes one σ-window of the product into `out` (the `y` slice
    /// of rows `[w*σ, w*σ + out.len())`).
    fn spmv_window(&self, w: usize, x: &[f64], out: &mut [f64]) {
        // The default chunk height gets a monomorphized kernel whose
        // inner loop has a compile-time lane count; other heights (test
        // configurations, tuning experiments) share a dynamic fallback.
        if self.c == SELL_DEFAULT_C {
            self.spmv_window_fixed::<SELL_DEFAULT_C>(w, x, out);
        } else {
            self.spmv_window_dyn(w, x, out);
        }
    }

    /// `spmv_window` for chunk height known at compile time. Splitting
    /// each chunk at the shortest lane's length gives a *full* region
    /// where all `C` lanes are live — a fixed `C`-wide block over
    /// `[f64; C]` column groups that the compiler unrolls into `C`
    /// independent accumulator chains with no per-lane bounds checks —
    /// and a short tail where the active prefix shrinks per step.
    fn spmv_window_fixed<const C: usize>(&self, w: usize, x: &[f64], out: &mut [f64]) {
        let chunks_per_window = self.sigma / C;
        let ch0 = w * chunks_per_window;
        let ch1 = (ch0 + chunks_per_window).min(self.chunk_ptr.len() - 1);
        let row0 = w * self.sigma;
        for ch in ch0..ch1 {
            let base = self.chunk_ptr[ch];
            let width = (self.chunk_ptr[ch + 1] - base) / C;
            let lane0 = ch * C;
            let mut acc = [0.0f64; C];
            let (cols, _) = self.col_idx[base..base + width * C].as_chunks::<C>();
            let (vals, _) = self.values[base..base + width * C].as_chunks::<C>();
            // All lanes are live below the shortest lane's length.
            let full = self.row_len[lane0 + C - 1].min(width);
            for (cs, vs) in cols.iter().zip(vals).take(full) {
                for l in 0..C {
                    acc[l] += vs[l] * x[cs[l] as usize];
                }
            }
            // Tail: lanes are sorted by descending length, so the lanes
            // still active at column step j form a prefix; shrink the
            // bound instead of multiplying padding into the
            // accumulators.
            let mut active = C;
            for j in full..width {
                while active > 0 && self.row_len[lane0 + active - 1] <= j {
                    active -= 1;
                }
                let (cs, vs) = (&cols[j], &vals[j]);
                for (l, a) in acc[..active].iter_mut().enumerate() {
                    *a += vs[l] * x[cs[l] as usize];
                }
            }
            for (l, &a) in acc.iter().enumerate() {
                let r = self.perm[lane0 + l];
                if r != PAD {
                    out[r - row0] = a;
                }
            }
        }
    }

    /// `spmv_window` for arbitrary chunk heights (accumulators sized by
    /// [`SELL_MAX_C`], loop bounds dynamic).
    fn spmv_window_dyn(&self, w: usize, x: &[f64], out: &mut [f64]) {
        let chunks_per_window = self.sigma / self.c;
        let ch0 = w * chunks_per_window;
        let ch1 = (ch0 + chunks_per_window).min(self.chunk_ptr.len() - 1);
        let row0 = w * self.sigma;
        let mut acc = [0.0f64; SELL_MAX_C];
        for ch in ch0..ch1 {
            let base = self.chunk_ptr[ch];
            let width = (self.chunk_ptr[ch + 1] - base) / self.c;
            let lane0 = ch * self.c;
            acc[..self.c].fill(0.0);
            // Lanes are sorted by descending length, so the lanes still
            // active at column step j form a prefix; shrink the bound
            // instead of multiplying padding into the accumulators.
            let mut active = self.c;
            while active > 0 && self.row_len[lane0 + active - 1] == 0 {
                active -= 1;
            }
            for j in 0..width {
                while active > 0 && self.row_len[lane0 + active - 1] <= j {
                    active -= 1;
                }
                let col = base + j * self.c;
                for (l, a) in acc[..active].iter_mut().enumerate() {
                    *a += self.values[col + l] * x[self.col_idx[col + l] as usize];
                }
            }
            for (l, &a) in acc[..self.c].iter().enumerate() {
                let r = self.perm[lane0 + l];
                if r != PAD {
                    out[r - row0] = a;
                }
            }
        }
    }
}

/// Storage formats the solver workspaces can run their operator in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Compressed sparse row — the reference layout.
    Csr,
    /// SELL-C-σ with the default `C` and `σ`.
    Sell,
}

/// Stored-entry count below which [`select_format`] always answers
/// [`Format::Csr`]: small operators (local-CG diagonal blocks, test
/// matrices) would pay conversion and cache-key hashing without enough
/// SpMV work to ever earn it back.
pub const SELL_MIN_NNZ: usize = 10_000;

/// Padding-ratio ceiling for [`select_format`]: above this, the wasted
/// lanes cost more than the lane parallelism wins.
pub const SELL_MAX_PADDING: f64 = 1.25;

/// Deterministic format choice for an operator, from structure alone.
///
/// Computes the exact padding ratio a default-parameter SELL conversion
/// would have — per σ-window, rows sorted by descending length, each
/// C-chunk padded to its longest row — without materializing the
/// conversion. Matrices whose row lengths vary so much inside a window
/// that padding exceeds [`SELL_MAX_PADDING`] (high row-length variance)
/// stay on CSR, and so do operators with more columns than SELL's 32-bit
/// column indices can address (the conversion would refuse them). A pure
/// function of the matrix structure, so the same operator always selects
/// the same format on every machine.
pub fn select_format(a: &CsrMatrix) -> Format {
    if a.nnz() < SELL_MIN_NNZ || a.ncols() > u32::MAX as usize {
        return Format::Csr;
    }
    let (c, sigma) = (SELL_DEFAULT_C, SELL_DEFAULT_SIGMA);
    let row_ptr = a.row_ptr();
    let mut padded = 0usize;
    let mut lens: Vec<usize> = Vec::with_capacity(sigma);
    let mut w0 = 0;
    while w0 < a.nrows() {
        let w1 = (w0 + sigma).min(a.nrows());
        lens.clear();
        lens.extend((w0..w1).map(|r| row_ptr[r + 1] - row_ptr[r]));
        lens.sort_unstable_by(|x, y| y.cmp(x));
        for chunk in lens.chunks(c) {
            padded += chunk[0] * c;
        }
        w0 = w1;
    }
    if padded as f64 <= SELL_MAX_PADDING * a.nnz() as f64 {
        Format::Sell
    } else {
        Format::Csr
    }
}

/// An SpMV operator bound to the format [`select_format`] chose.
///
/// Solver workspaces construct one per operator and call
/// [`SpmvOperator::apply`] where they used to call
/// [`CsrMatrix::spmv_auto`]; every path is bit-identical to the CSR
/// reference, so the selection is invisible in results. The SELL
/// conversion is shared through the global artifact cache, so the many
/// campaign units reusing one operator convert it once.
#[derive(Debug, Clone)]
pub struct SpmvOperator<'a> {
    csr: &'a CsrMatrix,
    sell: Option<std::sync::Arc<SellMatrix>>,
}

impl<'a> SpmvOperator<'a> {
    /// Binds `a` to the format the selection heuristic picks for it.
    pub fn select(a: &'a CsrMatrix) -> SpmvOperator<'a> {
        SpmvOperator::bind(a, || crate::artifacts::MatrixKey::of(a))
    }

    /// [`SpmvOperator::select`] for a caller that already holds `a`'s
    /// content key: the same binding without hashing the matrix again.
    pub fn select_keyed(a: &'a CsrMatrix, key: crate::artifacts::MatrixKey) -> SpmvOperator<'a> {
        SpmvOperator::bind(a, || key)
    }

    fn bind(
        a: &'a CsrMatrix,
        key: impl FnOnce() -> crate::artifacts::MatrixKey,
    ) -> SpmvOperator<'a> {
        let sell = match select_format(a) {
            Format::Csr => None,
            Format::Sell => {
                Some(crate::artifacts::global().sell(key(), a, SELL_DEFAULT_C, SELL_DEFAULT_SIGMA))
            }
        };
        SpmvOperator { csr: a, sell }
    }

    /// Binds `a` to CSR unconditionally (no conversion, no hashing).
    pub fn csr_only(a: &'a CsrMatrix) -> SpmvOperator<'a> {
        SpmvOperator { csr: a, sell: None }
    }

    /// The format this operator runs in.
    pub fn format(&self) -> Format {
        if self.sell.is_some() {
            Format::Sell
        } else {
            Format::Csr
        }
    }

    /// The underlying CSR matrix.
    pub fn csr(&self) -> &'a CsrMatrix {
        self.csr
    }

    /// `y = A x` through the selected format's size-gated kernel;
    /// bit-identical to [`CsrMatrix::spmv`] in every configuration.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        match &self.sell {
            Some(sell) => sell.spmv_auto(x, y),
            None => self.csr.spmv_auto(x, y),
        }
    }
}

/// Process-wide count of SELL conversions actually materialized (cache
/// misses); tests use it to confirm sharing.
pub fn conversions() -> u64 {
    CONVERSIONS.load(Ordering::Relaxed)
}

pub(crate) static CONVERSIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::CooMatrix;

    fn laplace_1d(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    fn spmv_ref(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; a.nrows()];
        a.spmv(x, &mut y);
        y
    }

    #[test]
    fn sell_spmv_is_bit_identical_to_csr_on_stencil() {
        let a = generators::stencil_2d(13, 9);
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| ((i * 37 + 11) % 97) as f64 - 48.0)
            .collect();
        let want = spmv_ref(&a, &x);
        for (c, sigma) in [(1, 1), (4, 8), (4, 64), (8, 8), (8, 4096), (3, 7)] {
            let sell = SellMatrix::from_csr_with(&a, c, sigma);
            let mut got = vec![f64::NAN; a.nrows()];
            sell.spmv(&x, &mut got);
            assert_eq!(want, got, "C={c} sigma={sigma}");
            let mut par = vec![f64::NAN; a.nrows()];
            sell.par_spmv(&x, &mut par);
            assert_eq!(want, par, "par C={c} sigma={sigma}");
        }
    }

    #[test]
    fn sell_handles_empty_rows_and_ragged_tail() {
        // 10 rows, some empty, nrows not a multiple of C.
        let mut coo = CooMatrix::new(10, 10);
        coo.push(0, 0, 3.0).unwrap();
        coo.push(0, 9, -1.0).unwrap();
        coo.push(3, 2, 5.0).unwrap();
        coo.push(7, 7, 1.0).unwrap();
        coo.push(7, 8, 2.0).unwrap();
        coo.push(7, 9, 4.0).unwrap();
        let a = coo.to_csr();
        let x: Vec<f64> = (0..10).map(|i| i as f64 + 0.5).collect();
        let want = spmv_ref(&a, &x);
        for (c, sigma) in [(4, 4), (8, 16), (2, 6)] {
            let sell = SellMatrix::from_csr_with(&a, c, sigma);
            let mut got = vec![f64::NAN; 10];
            sell.spmv(&x, &mut got);
            assert_eq!(want, got, "C={c} sigma={sigma}");
        }
    }

    #[test]
    fn sell_padding_never_reads_x() {
        // Padding slots carry value 0.0 and column 0. If a kernel folded
        // them into the accumulators, `0.0 * x[0]` with a non-finite
        // x[0] would poison every short row's result with NaN. No real
        // entry references column 0 here, so CSR is finite — SELL must
        // match it bit for bit.
        let mut coo = CooMatrix::new(6, 6);
        coo.push(0, 1, 2.0).unwrap();
        coo.push(0, 3, -1.0).unwrap();
        coo.push(0, 5, 4.0).unwrap();
        coo.push(1, 2, 1.5).unwrap();
        coo.push(3, 4, -2.5).unwrap();
        coo.push(5, 5, 1.0).unwrap();
        let a = coo.to_csr();
        let mut x = vec![1.0; 6];
        x[0] = f64::INFINITY;
        let want = spmv_ref(&a, &x);
        assert!(want.iter().all(|v| v.is_finite()));
        for (c, sigma) in [(4, 8), (8, 8), (2, 4)] {
            let sell = SellMatrix::from_csr_with(&a, c, sigma);
            let mut got = vec![f64::NAN; 6];
            sell.spmv(&x, &mut got);
            assert_eq!(want, got, "C={c} sigma={sigma}");
        }
    }

    #[test]
    fn padding_ratio_is_one_for_uniform_rows() {
        let a = laplace_1d(64);
        // Interior rows have 3 entries, the two boundary rows 2 — near 1.
        let sell = SellMatrix::from_csr_with(&a, 4, 64);
        assert!(sell.padding_ratio() < 1.05, "{}", sell.padding_ratio());
        assert_eq!(sell.nnz(), a.nnz());
        assert!(sell.storage_bytes() > 0);
    }

    #[test]
    fn sigma_rounds_up_to_chunk_multiple() {
        let a = laplace_1d(32);
        let sell = SellMatrix::from_csr_with(&a, 4, 6);
        assert_eq!(sell.sigma(), 8);
        assert_eq!(sell.chunk_height(), 4);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn select_format_keeps_operators_too_wide_for_u32_columns_on_csr() {
        // Uniform five-entry rows: zero padding, enough nonzeros — SELL on
        // every other count. But one column lies beyond u32 indexing, so
        // the conversion's assert must stay unreachable from `select`.
        let ncols = u32::MAX as usize + 1;
        let nrows = SELL_MIN_NNZ / 5;
        let row_ptr: Vec<usize> = (0..=nrows).map(|r| 5 * r).collect();
        let col_idx: Vec<usize> = (0..nrows)
            .flat_map(|r| (0..4).map(move |k| r + k).chain([ncols - 1]))
            .collect();
        let values = vec![1.0; col_idx.len()];
        let wide = CsrMatrix::from_raw_parts(nrows, ncols, row_ptr.clone(), col_idx, values)
            .expect("valid CSR");
        assert!(wide.nnz() >= SELL_MIN_NNZ);
        assert_eq!(select_format(&wide), Format::Csr);
        assert_eq!(SpmvOperator::select(&wide).format(), Format::Csr);

        // The same structure inside the u32 range does select SELL.
        let col_idx: Vec<usize> = (0..nrows).flat_map(|r| r..r + 5).collect();
        let values = vec![1.0; col_idx.len()];
        let narrow = CsrMatrix::from_raw_parts(nrows, nrows + 4, row_ptr, col_idx, values)
            .expect("valid CSR");
        assert_eq!(select_format(&narrow), Format::Sell);
    }

    #[test]
    fn select_format_keeps_small_matrices_on_csr() {
        let a = laplace_1d(16);
        assert_eq!(select_format(&a), Format::Csr);
    }

    #[test]
    fn select_format_picks_sell_for_stencils() {
        let a = generators::stencil_2d(64, 64);
        assert!(a.nnz() >= SELL_MIN_NNZ);
        assert_eq!(select_format(&a), Format::Sell);
    }

    /// Heavy-tailed row lengths (geometrically decreasing, all
    /// distinct): even after σ-sorting, each leading chunk pads its
    /// seven shorter lanes up to a much longer one, so the padding
    /// ratio blows past the ceiling.
    fn heavy_tail_rows() -> CsrMatrix {
        let n = 12_000;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
        }
        for i in 0..14usize {
            for j in 1..(6000usize >> i) {
                coo.push(i, (i + j) % n, 0.5).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn select_format_rejects_high_variance_rows() {
        let a = heavy_tail_rows();
        assert!(a.nnz() >= SELL_MIN_NNZ);
        assert!(SellMatrix::from_csr(&a).padding_ratio() > SELL_MAX_PADDING);
        assert_eq!(select_format(&a), Format::Csr);
    }

    #[test]
    fn select_format_matches_materialized_padding() {
        for a in [generators::stencil_2d(64, 64), heavy_tail_rows()] {
            assert!(a.nnz() >= SELL_MIN_NNZ);
            let within = SellMatrix::from_csr(&a).padding_ratio() <= SELL_MAX_PADDING;
            assert_eq!(select_format(&a) == Format::Sell, within);
        }
    }

    #[test]
    fn operator_applies_identically_in_both_formats() {
        let a = generators::stencil_2d(48, 48);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 13) as f64 - 6.0).collect();
        let want = spmv_ref(&a, &x);
        let sel = SpmvOperator::select(&a);
        let mut got = vec![0.0; a.nrows()];
        sel.apply(&x, &mut got);
        assert_eq!(want, got);
        let csr = SpmvOperator::csr_only(&a);
        assert_eq!(csr.format(), Format::Csr);
        let mut got2 = vec![0.0; a.nrows()];
        csr.apply(&x, &mut got2);
        assert_eq!(want, got2);
    }
}
