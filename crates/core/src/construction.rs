//! LI / LSI reconstruction algorithms (§3.2, §4.1).
//!
//! Both interpolation schemes replace the failed process's block
//! `x_{p_i}` with an approximation built from the surviving data:
//!
//! * **LI** (Eq. 17/19) solves the diagonal-block system
//!   `A_{p_i,p_i} x_i = b_i − Σ_{j≠i} A_{p_i,p_j} x_j`,
//! * **LSI** (Eq. 18/20) solves the least-squares problem
//!   `min ‖β − A_{:,p_i} x_i‖` with `β = b − Σ_{j≠i} A_{:,p_j} x_j`,
//!   which for SPD `A` transposes into the local form of Eq. 21.
//!
//! The *exact* constructions are the baselines from Agullo et al. —
//! sequential LU for LI, parallel sparse QR for LSI (here realized as
//! normal equations + Cholesky with the parallel-QR cost charged; see
//! DESIGN.md). The *local-CG* constructions are the paper's §4.1
//! optimization: an inexact local solve that is cheaper and avoids the
//! communication of the parallel baseline.

use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rsls_solvers::{Cg, CgConfig, Cgls, CglsConfig};
use rsls_sparse::artifacts::{self, MatrixKey};
use rsls_sparse::dense::{Cholesky, Lu, Qr};
use rsls_sparse::{CsrMatrix, DenseMatrix, Partition};

/// How the LI/LSI linear systems are solved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConstructionMethod {
    /// Exact solve — sequential LU for LI (the Agullo et al. baseline),
    /// parallel-QR-equivalent for LSI.
    Exact,
    /// The paper's optimization: local CG (LI) / CGLS (LSI) to a loose
    /// tolerance on the failed process only.
    LocalCg {
        /// Relative tolerance of the inner solve (a ceiling when
        /// `adaptive` is set).
        tolerance: f64,
        /// Iteration cap of the inner solve.
        max_iterations: usize,
        /// Scale the tolerance with the solver's pre-fault residual: a
        /// reconstruction need only be as accurate as the progress it is
        /// protecting (early faults get cheap loose solves, late faults
        /// get tight ones). This realizes the trade-off the paper sweeps
        /// in Figure 4 automatically.
        adaptive: bool,
    },
}

impl ConstructionMethod {
    /// The default inner-solve setting used throughout the experiments:
    /// adaptive tolerance with a loose ceiling.
    pub fn local_cg_default() -> Self {
        ConstructionMethod::LocalCg {
            tolerance: 1e-4,
            max_iterations: 2000,
            adaptive: true,
        }
    }

    /// A fixed-tolerance local solve (the Figure 4 sweep points).
    pub fn local_cg_fixed(tolerance: f64, max_iterations: usize) -> Self {
        ConstructionMethod::LocalCg {
            tolerance,
            max_iterations,
            adaptive: false,
        }
    }

    /// The tolerance actually used for a fault at outer relative residual
    /// `outer_relres`.
    pub fn effective_tolerance(&self, outer_relres: f64) -> f64 {
        match self {
            ConstructionMethod::Exact => 0.0,
            ConstructionMethod::LocalCg {
                tolerance,
                adaptive,
                ..
            } => {
                if *adaptive {
                    // The inner solvers guard against unreachable accuracy
                    // themselves (CGLS stall detection), so the adaptive
                    // target may go as deep as the outer solve needs.
                    (outer_relres * 0.1).clamp(1e-12, *tolerance)
                } else {
                    *tolerance
                }
            }
        }
    }

    /// Short label ("LU/QR" vs "CG").
    pub fn label(&self) -> &'static str {
        match self {
            ConstructionMethod::Exact => "exact",
            ConstructionMethod::LocalCg { .. } => "CG",
        }
    }
}

/// The outcome of a reconstruction, with everything the driver needs to
/// charge time, communication, and power.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstructionResult {
    /// The reconstructed block (length = failed rank's range).
    pub x_block: Vec<f64>,
    /// Flops executed *on the failed rank only* (sequential part).
    pub local_flops: u64,
    /// Flops spread evenly over *all* ranks (parallel part — β assembly,
    /// parallel QR).
    pub parallel_flops: u64,
    /// Bytes gathered to the failed rank before the local solve.
    pub gather_bytes: u64,
    /// Extra synchronizing collective rounds (the parallel-QR baseline's
    /// communication; zero for the localized §4.1 constructions).
    pub comm_rounds: u64,
    /// Inner-solve iterations (0 for direct solves).
    pub inner_iterations: usize,
    /// True when the exact factorization failed (singular / non-SPD
    /// block) and the scheme silently degraded to an all-zero block —
    /// F0 semantics. Callers must surface this, not swallow it.
    pub fallback: bool,
}

impl ConstructionResult {
    /// This single-rank result in the k ≥ 1 shape: one block, for `rank`.
    pub(crate) fn into_multi(self, rank: usize) -> MultiConstructionResult {
        MultiConstructionResult {
            blocks: vec![(rank, self.x_block)],
            local_flops: self.local_flops,
            parallel_flops: self.parallel_flops,
            gather_bytes: self.gather_bytes,
            comm_rounds: self.comm_rounds,
            inner_iterations: self.inner_iterations,
            fallback: self.fallback,
        }
    }
}

/// Reusable scratch buffers for the reconstruction hot path.
///
/// Every fault event needs an LI right-hand side and (for LSI) three
/// full-length vectors; reusing one `Workspace` across a run's faults
/// removes those per-event allocations. The buffers carry no state
/// between calls — each use fully overwrites them — so reuse can never
/// change a result.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// LI right-hand side / dense solve scratch (block length).
    y: Vec<f64>,
    /// `x` with the failed block zeroed (full length, LSI β assembly).
    x_zeroed: Vec<f64>,
    /// `A · x_zeroed` (full length, LSI β assembly).
    ax: Vec<f64>,
    /// The LSI residual `β` (full length).
    beta: Vec<f64>,
    /// `β` restricted to the panel's row support.
    beta_sup: Vec<f64>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace::default()
    }
}

/// Builds the LI right-hand side `y = b_i − Σ_{j≠i} A_{p_i,p_j} x_j`
/// into `y` (cleared first) and returns the flops spent on it.
fn li_rhs_into(
    a: &CsrMatrix,
    part: &Partition,
    rank: usize,
    x: &[f64],
    b: &[f64],
    y: &mut Vec<f64>,
) -> u64 {
    let range = part.range(rank);
    y.clear();
    y.reserve(range.len());
    let mut flops = 0u64;
    for r in range.clone() {
        let mut acc = b[r];
        let cols = a.row_cols(r);
        let vals = a.row_vals(r);
        for (&c, &v) in cols.iter().zip(vals) {
            if !range.contains(&c) {
                acc -= v * x[c];
                flops += 2;
            }
        }
        y.push(acc);
    }
    flops
}

/// Builds the LSI residual `β = b − Σ_{j≠i} A_{:,p_j} x_j` (a full-length
/// vector: everything `A x` explains *without* the failed block) into
/// `beta`, using `x_zeroed` / `ax` as scratch. Returns the flops charged.
#[allow(clippy::too_many_arguments)] // three of these are caller-owned scratch buffers
fn lsi_beta_into(
    a: &CsrMatrix,
    part: &Partition,
    rank: usize,
    x: &[f64],
    b: &[f64],
    x_zeroed: &mut Vec<f64>,
    ax: &mut Vec<f64>,
    beta: &mut Vec<f64>,
) -> u64 {
    let range = part.range(rank);
    x_zeroed.clear();
    x_zeroed.extend_from_slice(x);
    for v in &mut x_zeroed[range] {
        *v = 0.0;
    }
    ax.resize(a.nrows(), 0.0);
    a.spmv_auto(x_zeroed, ax);
    beta.clear();
    beta.extend(b.iter().zip(ax.iter()).map(|(bi, axi)| bi - axi));
    a.spmv_flops() + a.nrows() as u64
}

/// [`CsrMatrix::dense_block`], through the artifact cache when the
/// caller supplies the matrix's content key.
fn cached_dense_block(
    key: Option<MatrixKey>,
    a: &CsrMatrix,
    rows: Range<usize>,
    cols: Range<usize>,
) -> Arc<DenseMatrix> {
    match key {
        Some(k) => artifacts::global().dense_block(k, a, rows, cols),
        None => Arc::new(a.dense_block(rows, cols)),
    }
}

/// [`CsrMatrix::sparse_block`], through the artifact cache when keyed.
fn cached_sparse_block(
    key: Option<MatrixKey>,
    a: &CsrMatrix,
    rows: Range<usize>,
    cols: Range<usize>,
) -> Arc<CsrMatrix> {
    match key {
        Some(k) => artifacts::global().sparse_block(k, a, rows, cols),
        None => Arc::new(a.sparse_block(rows, cols)),
    }
}

/// [`CsrMatrix::row_panel`], through the artifact cache when keyed.
fn cached_row_panel(key: Option<MatrixKey>, a: &CsrMatrix, rows: Range<usize>) -> Arc<CsrMatrix> {
    match key {
        Some(k) => artifacts::global().row_panel(k, a, rows),
        None => Arc::new(a.row_panel(rows)),
    }
}

/// LI reconstruction of the failed rank's block (fresh scratch buffers,
/// no artifact caching — see [`li_with`] for the driver's hot path).
pub fn li(
    a: &CsrMatrix,
    part: &Partition,
    rank: usize,
    x: &[f64],
    b: &[f64],
    method: ConstructionMethod,
    outer_relres: f64,
) -> ConstructionResult {
    li_with(
        &mut Workspace::new(),
        None,
        a,
        part,
        rank,
        x,
        b,
        method,
        outer_relres,
    )
}

/// LI reconstruction reusing the caller's [`Workspace`] and, when `key`
/// is supplied, the process-global artifact cache for block extraction.
///
/// # Panics
/// Panics on dimension mismatches. Returns an all-zero block (with
/// [`ConstructionResult::fallback`] set) if the diagonal block is
/// singular under the exact method — F0 semantics rather than a crash
/// mid-run.
#[allow(clippy::too_many_arguments)]
pub fn li_with(
    ws: &mut Workspace,
    key: Option<MatrixKey>,
    a: &CsrMatrix,
    part: &Partition,
    rank: usize,
    x: &[f64],
    b: &[f64],
    method: ConstructionMethod,
    outer_relres: f64,
) -> ConstructionResult {
    assert_eq!(x.len(), a.nrows());
    assert_eq!(b.len(), a.nrows());
    let range = part.range(rank);
    let m = range.len();
    let rhs_flops = li_rhs_into(a, part, rank, x, b, &mut ws.y);
    // The failed rank must fetch the off-block entries of x it references.
    let gather_bytes = a.off_block_nnz(range.clone(), range.clone()) as u64 * 8;

    match method {
        ConstructionMethod::Exact => {
            let block = cached_dense_block(key, a, range.clone(), range.clone());
            let (x_block, flops, fallback) = match Lu::factor(&block) {
                Ok(lu) => (
                    lu.solve(&ws.y),
                    Lu::factor_flops(m) + Lu::solve_flops(m),
                    false,
                ),
                Err(_) => (vec![0.0; m], 0, true),
            };
            ConstructionResult {
                x_block,
                local_flops: flops + rhs_flops,
                parallel_flops: 0,
                gather_bytes,
                comm_rounds: 0,
                inner_iterations: 0,
                fallback,
            }
        }
        ConstructionMethod::LocalCg { max_iterations, .. } => {
            let block = cached_sparse_block(key, a, range.clone(), range.clone());
            let mut cg = Cg::from_zero(&block, &ws.y);
            let (iters, _) = cg.solve(&CgConfig {
                tolerance: method.effective_tolerance(outer_relres),
                max_iterations,
            });
            let flops = iters as u64 * Cg::step_flops(&block) + block.spmv_flops();
            ConstructionResult {
                x_block: cg.x().to_vec(),
                local_flops: flops + rhs_flops,
                parallel_flops: 0,
                gather_bytes,
                comm_rounds: 0,
                inner_iterations: iters,
                fallback: false,
            }
        }
    }
}

/// The outcome of a multi-rank (MNF) reconstruction: one coupled solve
/// over the union of all lost blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiConstructionResult {
    /// The reconstructed blocks, one per failed rank, in ascending rank
    /// order (each the length of that rank's range).
    pub blocks: Vec<(usize, Vec<f64>)>,
    /// Flops of the union solve, shared among the replacement ranks.
    pub local_flops: u64,
    /// Flops spread evenly over all ranks.
    pub parallel_flops: u64,
    /// Bytes of surviving `x` entries gathered to the replacement ranks.
    pub gather_bytes: u64,
    /// Extra synchronizing collective rounds.
    pub comm_rounds: u64,
    /// Inner-solve iterations (0 for direct solves).
    pub inner_iterations: usize,
    /// True when the union block was singular and the scheme degraded to
    /// all-zero blocks (F0 semantics).
    pub fallback: bool,
}

/// MNF reconstruction of several simultaneously failed ranks (fresh
/// scratch buffers; see [`multi_li_with`] for the driver's hot path).
pub fn multi_li(
    a: &CsrMatrix,
    part: &Partition,
    ranks: &[usize],
    x: &[f64],
    b: &[f64],
    method: ConstructionMethod,
    outer_relres: f64,
) -> MultiConstructionResult {
    multi_li_with(
        &mut Workspace::new(),
        None,
        a,
        part,
        ranks,
        x,
        b,
        method,
        outer_relres,
    )
}

/// MNF reconstruction (Pachajoa et al., arXiv:1907.13077): solves the
/// coupled union-block system
/// `A_{F,F} x_F = b_F − A_{F,S} x_S`
/// where `F` is the union of all failed ranks' index ranges and `S` the
/// surviving indices. When the failed blocks are mutually uncoupled
/// (`A_{p_i,p_j} = 0` for failed `i ≠ j`) this degenerates to
/// independent per-rank LI solves; when they are coupled, the union
/// solve recovers cross-terms no sequence of single-rank LI solves can.
///
/// A single failed rank delegates to [`li_with`] (identical math and
/// artifact caching). The union path builds its operator fresh — unions
/// are combinatorial, so caching per-union blocks would bloat the
/// artifact store for one-shot use.
///
/// # Panics
/// Panics on dimension mismatches or an empty/out-of-range rank list.
#[allow(clippy::too_many_arguments)]
pub fn multi_li_with(
    ws: &mut Workspace,
    key: Option<MatrixKey>,
    a: &CsrMatrix,
    part: &Partition,
    ranks: &[usize],
    x: &[f64],
    b: &[f64],
    method: ConstructionMethod,
    outer_relres: f64,
) -> MultiConstructionResult {
    assert!(!ranks.is_empty(), "MNF needs at least one failed rank");
    assert_eq!(x.len(), a.nrows());
    assert_eq!(b.len(), a.nrows());
    let mut failed: Vec<usize> = ranks.to_vec();
    failed.sort_unstable();
    failed.dedup();
    for &r in &failed {
        assert!(r < part.num_ranks(), "failed rank {r} out of range");
    }

    if failed.len() == 1 {
        let rank = failed[0];
        return li_with(ws, key, a, part, rank, x, b, method, outer_relres).into_multi(rank);
    }

    // Sorted disjoint ranges make the global→local column map monotone,
    // so the union operator's rows keep their CSR column ordering.
    let ranges: Vec<Range<usize>> = failed.iter().map(|&r| part.range(r)).collect();
    let mut offsets = Vec::with_capacity(ranges.len());
    let mut m_total = 0usize;
    for rg in &ranges {
        offsets.push(m_total);
        m_total += rg.len();
    }
    let local_of = |c: usize| -> Option<usize> {
        for (rg, &off) in ranges.iter().zip(&offsets) {
            if rg.contains(&c) {
                return Some(off + (c - rg.start));
            }
        }
        None
    };

    // One pass over the union rows builds both the operator A_{F,F} and
    // the right-hand side b_F − A_{F,S} x_S.
    let mut rhs = Vec::with_capacity(m_total);
    let mut row_ptr = Vec::with_capacity(m_total + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    let mut rhs_flops = 0u64;
    let mut gather_nnz = 0u64;
    for rg in &ranges {
        for r in rg.clone() {
            let mut acc = b[r];
            let cols = a.row_cols(r);
            let vals = a.row_vals(r);
            for (&c, &v) in cols.iter().zip(vals) {
                match local_of(c) {
                    Some(lc) => {
                        col_idx.push(lc);
                        values.push(v);
                    }
                    None => {
                        acc -= v * x[c];
                        rhs_flops += 2;
                        gather_nnz += 1;
                    }
                }
            }
            row_ptr.push(col_idx.len());
            rhs.push(acc);
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "rows assembled in order from a valid CSR; invariants hold by construction"
    )]
    let union = CsrMatrix::from_raw_parts(m_total, m_total, row_ptr, col_idx, values)
        .expect("union block restriction preserves CSR invariants");
    let gather_bytes = gather_nnz * 8;

    let (x_union, solve_flops, inner_iterations, fallback) = match method {
        ConstructionMethod::Exact => match Lu::factor(&union.to_dense()) {
            Ok(lu) => (
                lu.solve(&rhs),
                Lu::factor_flops(m_total) + Lu::solve_flops(m_total),
                0,
                false,
            ),
            Err(_) => (vec![0.0; m_total], 0, 0, true),
        },
        ConstructionMethod::LocalCg { max_iterations, .. } => {
            let mut cg = Cg::from_zero(&union, &rhs);
            let (iters, _) = cg.solve(&CgConfig {
                tolerance: method.effective_tolerance(outer_relres),
                max_iterations,
            });
            let flops = iters as u64 * Cg::step_flops(&union) + union.spmv_flops();
            (cg.x().to_vec(), flops, iters, false)
        }
    };

    let blocks = failed
        .iter()
        .zip(ranges.iter().zip(&offsets))
        .map(|(&rank, (rg, &off))| (rank, x_union[off..off + rg.len()].to_vec()))
        .collect();
    MultiConstructionResult {
        blocks,
        local_flops: solve_flops + rhs_flops,
        parallel_flops: 0,
        gather_bytes,
        comm_rounds: 0,
        inner_iterations,
        fallback,
    }
}

/// LSI reconstruction of the failed rank's block (fresh scratch buffers,
/// no artifact caching — see [`lsi_with`] for the driver's hot path).
pub fn lsi(
    a: &CsrMatrix,
    part: &Partition,
    rank: usize,
    x: &[f64],
    b: &[f64],
    method: ConstructionMethod,
    outer_relres: f64,
) -> ConstructionResult {
    lsi_with(
        &mut Workspace::new(),
        None,
        a,
        part,
        rank,
        x,
        b,
        method,
        outer_relres,
    )
}

/// LSI reconstruction reusing the caller's [`Workspace`] and, when `key`
/// is supplied, the process-global artifact cache for the row panel,
/// Gram matrix, and compressed tall panel.
#[allow(clippy::too_many_arguments)]
pub fn lsi_with(
    ws: &mut Workspace,
    key: Option<MatrixKey>,
    a: &CsrMatrix,
    part: &Partition,
    rank: usize,
    x: &[f64],
    b: &[f64],
    method: ConstructionMethod,
    outer_relres: f64,
) -> ConstructionResult {
    assert_eq!(x.len(), a.nrows());
    assert_eq!(b.len(), a.nrows());
    let range = part.range(rank);
    let m = range.len();
    let n = a.nrows();
    // β is assembled in parallel (each rank computes its local rows of
    // A·x_zeroed) and gathered to the failed rank.
    let beta_flops = lsi_beta_into(
        a,
        part,
        rank,
        x,
        b,
        &mut ws.x_zeroed,
        &mut ws.ax,
        &mut ws.beta,
    );
    let gather_bytes = (n as u64) * 8;
    let panel = cached_row_panel(key, a, range.clone());

    match method {
        ConstructionMethod::Exact => {
            // Exact minimizer via the normal equations
            // (A_{p_i,:} A_{p_i,:}ᵀ) x = A_{p_i,:} β, SPD whenever the
            // panel has full row rank. The *cost charged* is that of the
            // parallel sparse QR the original work uses.
            let gram = match key {
                Some(k) => artifacts::global().gram(k, range.clone(), || panel_gram(&panel)),
                None => Arc::new(panel_gram(&panel)),
            };
            ws.y.resize(m, 0.0);
            panel.spmv(&ws.beta, &mut ws.y);
            let (x_block, fallback) = match Cholesky::factor(&gram) {
                Ok(ch) => (ch.solve(&ws.y), false),
                Err(_) => (vec![0.0; m], true),
            };
            ConstructionResult {
                x_block,
                local_flops: Cholesky::factor_flops(m) + Cholesky::solve_flops(m),
                parallel_flops: beta_flops + Qr::factor_flops(n, m),
                gather_bytes,
                comm_rounds: 2 * rsls_cluster::ceil_log2(part.num_ranks()) as u64,
                inner_iterations: 0,
                fallback,
            }
        }
        ConstructionMethod::LocalCg { max_iterations, .. } => {
            // §4.1: local CGLS on A_{:,p_i} = A_{p_i,:}ᵀ — no further
            // communication after the gather.
            //
            // CGLS works through the normal equations and therefore sees
            // the *squared* panel conditioning; started from zero it can
            // stall on thick blocks. The robust localized construction
            // warm-starts it from the (cheap, reliably convergent) LI
            // diagonal-block solve and polishes toward the least-squares
            // minimizer with a bounded budget — the CGLS residual is
            // monotone, so the result is never worse than the LI guess.
            let tolerance = method.effective_tolerance(outer_relres);
            let rhs_flops = li_rhs_into(a, part, rank, x, b, &mut ws.y);
            let block = cached_sparse_block(key, a, range.clone(), range.clone());
            let mut guess_cg = Cg::from_zero(&block, &ws.y);
            let (guess_iters, _) = guess_cg.solve(&CgConfig {
                tolerance,
                max_iterations,
            });
            let guess_flops =
                guess_iters as u64 * Cg::step_flops(&block) + block.spmv_flops() + rhs_flops;

            // The panel references only ~m + halo rows of the full
            // domain; restricting the least-squares problem to that row
            // support is exact (zero rows contribute a constant residual)
            // and keeps the CGLS vector work proportional to the block.
            // The structure (tall operator + support rows) depends only
            // on the panel, so it memoizes; β restricted to the support
            // is gathered per call into the workspace.
            let structure = match key {
                Some(k) => {
                    artifacts::global().support_panel(k, range.clone(), || tall_structure(&panel))
                }
                None => Arc::new(tall_structure(&panel)),
            };
            let (tall, support) = (&structure.0, &structure.1);
            ws.beta_sup.clear();
            ws.beta_sup.extend(support.iter().map(|&r| ws.beta[r]));
            let polish_budget = max_iterations.min(300);
            let mut cgls = Cgls::with_initial_guess(tall, &ws.beta_sup, guess_cg.x().to_vec());
            let (polish_iters, _) = cgls.solve(&CglsConfig {
                tolerance,
                max_iterations: polish_budget,
            });
            let flops =
                guess_flops + polish_iters as u64 * Cgls::step_flops(tall) + tall.spmv_flops();
            ConstructionResult {
                x_block: cgls.x().to_vec(),
                local_flops: flops,
                parallel_flops: beta_flops,
                gather_bytes,
                comm_rounds: 0,
                inner_iterations: guess_iters + polish_iters,
                fallback: false,
            }
        }
    }
}

/// Transposes a row panel onto its nonzero-column support: returns the
/// `(support × m)` operator `A_{:,p_i}` restricted to referenced rows,
/// plus the referenced row indices (for restricting `β` likewise).
fn tall_structure(panel: &CsrMatrix) -> (CsrMatrix, Vec<usize>) {
    let full = panel.transpose(); // n × m
    let mut support = Vec::new();
    let mut row_ptr = vec![0usize];
    let mut col_idx = Vec::with_capacity(full.nnz());
    let mut values = Vec::with_capacity(full.nnz());
    for r in 0..full.nrows() {
        if full.row_cols(r).is_empty() {
            continue;
        }
        support.push(r);
        col_idx.extend_from_slice(full.row_cols(r));
        values.extend_from_slice(full.row_vals(r));
        row_ptr.push(col_idx.len());
    }
    #[expect(
        clippy::expect_used,
        reason = "row_ptr/col_idx built row-by-row above, invariants hold by construction"
    )]
    let tall = CsrMatrix::from_raw_parts(support.len(), full.ncols(), row_ptr, col_idx, values)
        .expect("support restriction preserves CSR invariants");
    (tall, support)
}

/// Gram matrix `P Pᵀ` of a sparse row panel, computed column-by-column
/// (`Σ_k p_k p_kᵀ` over the panel's columns), which costs
/// `Σ_k d_k²` instead of `m²` sparse dot products.
fn panel_gram(panel: &CsrMatrix) -> rsls_sparse::DenseMatrix {
    let m = panel.nrows();
    let mut gram = rsls_sparse::DenseMatrix::zeros(m, m);
    let pt = panel.transpose(); // columns of the panel as rows
    for k in 0..pt.nrows() {
        let rows = pt.row_cols(k);
        let vals = pt.row_vals(k);
        for (i, &ri) in rows.iter().enumerate() {
            let vi = vals[i];
            for (j, &rj) in rows.iter().enumerate().skip(i) {
                let contrib = vi * vals[j];
                gram[(ri, rj)] += contrib;
                if ri != rj {
                    gram[(rj, ri)] += contrib;
                }
            }
        }
    }
    gram
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsls_sparse::generators::{banded_spd, BandedConfig};
    use rsls_sparse::vector::dist2;

    /// Small well-conditioned SPD system with known solution.
    fn setup(n: usize, p: usize) -> (CsrMatrix, Partition, Vec<f64>, Vec<f64>) {
        let a = banded_spd(&BandedConfig::regular(n, 5, 0.3, 11));
        let part = Partition::balanced(n, p);
        let xstar: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xstar, &mut b);
        (a, part, xstar, b)
    }

    #[test]
    fn li_exact_recovers_converged_solution_exactly() {
        // If x is the exact solution everywhere else, LI's interpolation is
        // exact: the diagonal-block solve reproduces x* on the failed block.
        let (a, part, xstar, b) = setup(60, 4);
        let res = li(&a, &part, 1, &xstar, &b, ConstructionMethod::Exact, 1e-8);
        let range = part.range(1);
        assert!(dist2(&res.x_block, &xstar[range]) < 1e-10);
        assert_eq!(res.comm_rounds, 0);
        assert!(res.local_flops > 0);
    }

    #[test]
    fn lsi_exact_recovers_converged_solution_exactly() {
        let (a, part, xstar, b) = setup(60, 4);
        let res = lsi(&a, &part, 2, &xstar, &b, ConstructionMethod::Exact, 1e-8);
        let range = part.range(2);
        assert!(dist2(&res.x_block, &xstar[range]) < 1e-8);
        assert!(res.comm_rounds > 0, "parallel QR baseline must communicate");
    }

    #[test]
    fn local_cg_approximates_the_exact_construction() {
        let (a, part, xstar, b) = setup(80, 4);
        let exact = li(&a, &part, 1, &xstar, &b, ConstructionMethod::Exact, 1e-8);
        let inexact = li(
            &a,
            &part,
            1,
            &xstar,
            &b,
            ConstructionMethod::local_cg_fixed(1e-10, 500),
            1e-8,
        );
        assert!(dist2(&exact.x_block, &inexact.x_block) < 1e-6);
        assert!(inexact.inner_iterations > 0);
    }

    #[test]
    fn li_beats_zero_fill_mid_solve() {
        // Mid-solve (x not yet converged), LI must approximate the lost
        // block much better than filling zeros does.
        let (a, part, xstar, b) = setup(100, 4);
        // A crude mid-solve iterate: x* plus noise.
        let x_mid: Vec<f64> = xstar
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.01 * ((i % 3) as f64 - 1.0))
            .collect();
        let range = part.range(2);
        let res = li(&a, &part, 2, &x_mid, &b, ConstructionMethod::Exact, 1e-8);
        let li_err = dist2(&res.x_block, &xstar[range.clone()]);
        let zero_err = dist2(&vec![0.0; range.len()], &xstar[range.clone()]);
        assert!(
            li_err < 0.1 * zero_err,
            "LI error {li_err} should beat F0 error {zero_err}"
        );

        // On a CG state whose failed block is NaN-filled, as a node loss
        // leaves it, LI reads only the surviving blocks: the lost values
        // never reach the reconstruction.
        let mut cg = Cg::from_zero(&a, &b);
        for _ in 0..10 {
            cg.step();
        }
        let intact = cg.x().to_vec();
        cg.x_slice_mut(range).fill(f64::NAN);
        for method in [
            ConstructionMethod::Exact,
            ConstructionMethod::local_cg_default(),
        ] {
            let want = li(&a, &part, 2, &intact, &b, method, 1e-3);
            let got = li(&a, &part, 2, cg.x(), &b, method, 1e-3);
            assert!(got.x_block.iter().all(|v| v.is_finite()));
            assert_eq!(got.x_block, want.x_block);
        }
    }

    #[test]
    fn lsi_local_cgls_matches_exact_lsi() {
        let (a, part, xstar, b) = setup(60, 3);
        let exact = lsi(&a, &part, 0, &xstar, &b, ConstructionMethod::Exact, 1e-8);
        let local = lsi(
            &a,
            &part,
            0,
            &xstar,
            &b,
            ConstructionMethod::local_cg_fixed(1e-12, 2000),
            1e-8,
        );
        assert!(dist2(&exact.x_block, &local.x_block) < 1e-6);
        assert_eq!(local.comm_rounds, 0, "§4.1: local CGLS avoids QR comm");
    }

    #[test]
    fn looser_tolerance_costs_fewer_inner_iterations() {
        let (a, part, xstar, b) = setup(120, 4);
        let loose = li(
            &a,
            &part,
            1,
            &xstar,
            &b,
            ConstructionMethod::local_cg_fixed(1e-2, 1000),
            1e-8,
        );
        let tight = li(
            &a,
            &part,
            1,
            &xstar,
            &b,
            ConstructionMethod::local_cg_fixed(1e-12, 1000),
            1e-8,
        );
        assert!(loose.inner_iterations <= tight.inner_iterations);
        assert!(loose.local_flops <= tight.local_flops);
    }

    #[test]
    fn singular_block_falls_back_to_zero_fill_and_flags_it() {
        // Rank 1's rows are identical and reference only rank 0's columns:
        // its diagonal block is all-zero (LU singular) and its row panel is
        // rank-deficient (Gram not positive definite), so both constructions
        // must degrade to F0 semantics with the fallback flag raised instead
        // of crashing.
        let n = 8;
        let mut coo = rsls_sparse::CooMatrix::new(n, n);
        for i in 0..4 {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 4..n {
            coo.push(i, 0, 1.0).unwrap();
        }
        let a = coo.to_csr();
        let part = Partition::balanced(n, 2);
        let x = vec![1.0; n];
        let b = vec![1.0; n];
        let li_res = li(&a, &part, 1, &x, &b, ConstructionMethod::Exact, 1e-8);
        assert!(li_res.fallback);
        assert_eq!(li_res.x_block, vec![0.0; 4]);
        let lsi_res = lsi(&a, &part, 1, &x, &b, ConstructionMethod::Exact, 1e-8);
        assert!(lsi_res.fallback);
        assert_eq!(lsi_res.x_block, vec![0.0; 4]);
        // The healthy rank reports no fallback.
        let ok = li(&a, &part, 0, &x, &b, ConstructionMethod::Exact, 1e-8);
        assert!(!ok.fallback);
    }

    #[test]
    fn cached_construction_is_bit_identical_to_uncached() {
        let (a, part, xstar, b) = setup(80, 4);
        let key = Some(MatrixKey::of(&a));
        let mut ws = Workspace::new();
        for method in [
            ConstructionMethod::Exact,
            ConstructionMethod::local_cg_fixed(1e-10, 500),
        ] {
            for rank in 0..4 {
                let plain = li(&a, &part, rank, &xstar, &b, method, 1e-8);
                // Twice through the cache: cold (miss) and warm (hit).
                for _ in 0..2 {
                    let cached = li_with(&mut ws, key, &a, &part, rank, &xstar, &b, method, 1e-8);
                    assert_eq!(plain.x_block, cached.x_block);
                    assert_eq!(plain.local_flops, cached.local_flops);
                }
                let plain = lsi(&a, &part, rank, &xstar, &b, method, 1e-8);
                for _ in 0..2 {
                    let cached = lsi_with(&mut ws, key, &a, &part, rank, &xstar, &b, method, 1e-8);
                    assert_eq!(plain.x_block, cached.x_block);
                    assert_eq!(plain.inner_iterations, cached.inner_iterations);
                }
            }
        }
    }

    /// SPD matrix that is block-diagonal on the partition: independent
    /// tridiagonal blocks, zero coupling between ranks.
    fn block_diagonal_setup(n: usize, p: usize) -> (CsrMatrix, Partition, Vec<f64>, Vec<f64>) {
        let part = Partition::balanced(n, p);
        let mut coo = rsls_sparse::CooMatrix::new(n, n);
        for rank in 0..p {
            let rg = part.range(rank);
            for i in rg.clone() {
                coo.push(i, i, 3.0 + (rank as f64) * 0.25).unwrap();
                if i + 1 < rg.end {
                    coo.push(i, i + 1, -1.0).unwrap();
                    coo.push(i + 1, i, -1.0).unwrap();
                }
            }
        }
        let a = coo.to_csr();
        let xstar: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 - 3.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xstar, &mut b);
        (a, part, xstar, b)
    }

    #[test]
    fn multi_rank_recovery_matches_sequential_on_block_diagonal_systems() {
        // With zero coupling between failed blocks, the union solve
        // factors into independent per-rank solves: MNF of k ranks must
        // match k sequential single-rank LI recoveries.
        let (a, part, _, b) = block_diagonal_setup(96, 6);
        // A mid-solve iterate, so the equivalence is tested away from x*.
        let x_mid: Vec<f64> = (0..96).map(|i| ((i * 5) % 11) as f64 * 0.3 - 1.0).collect();
        for failed in [vec![1usize, 4], vec![0, 2, 5]] {
            let multi = multi_li(
                &a,
                &part,
                &failed,
                &x_mid,
                &b,
                ConstructionMethod::Exact,
                1e-8,
            );
            assert!(!multi.fallback);
            assert_eq!(multi.blocks.len(), failed.len());
            for (rank, block) in &multi.blocks {
                let single = li(
                    &a,
                    &part,
                    *rank,
                    &x_mid,
                    &b,
                    ConstructionMethod::Exact,
                    1e-8,
                );
                assert!(!single.fallback);
                assert_eq!(block.len(), single.x_block.len());
                for (m, s) in block.iter().zip(&single.x_block) {
                    assert!(
                        (m - s).abs() <= 1e-10 * s.abs().max(1.0),
                        "rank {rank}: union solve {m} vs sequential {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_rank_recovery_of_coupled_adjacent_ranks_is_exact_at_convergence() {
        // Adjacent ranks of a banded matrix are coupled; if x is exact
        // everywhere else, the union solve reproduces x* on both lost
        // blocks — the case where sequential single-rank LI (each solve
        // reading the other rank's corrupted block) cannot.
        let (a, part, xstar, b) = setup(80, 4);
        let mut x_corrupt = xstar.clone();
        for v in &mut x_corrupt[part.range(1)] {
            *v = 1e6;
        }
        for v in &mut x_corrupt[part.range(2)] {
            *v = -1e6;
        }
        let res = multi_li(
            &a,
            &part,
            &[2, 1],
            &x_corrupt,
            &b,
            ConstructionMethod::Exact,
            1e-8,
        );
        assert!(!res.fallback);
        assert!(res.gather_bytes > 0);
        assert!(res.local_flops > 0);
        // Ascending rank order regardless of input order.
        assert_eq!(res.blocks[0].0, 1);
        assert_eq!(res.blocks[1].0, 2);
        for (rank, block) in &res.blocks {
            let rg = part.range(*rank);
            assert!(
                dist2(block, &xstar[rg]) < 1e-8,
                "rank {rank} block must be recovered exactly"
            );
        }
    }

    #[test]
    fn multi_rank_local_cg_approximates_the_exact_union_solve() {
        let (a, part, xstar, b) = setup(120, 6);
        let exact = multi_li(
            &a,
            &part,
            &[2, 3],
            &xstar,
            &b,
            ConstructionMethod::Exact,
            1e-8,
        );
        let inexact = multi_li(
            &a,
            &part,
            &[2, 3],
            &xstar,
            &b,
            ConstructionMethod::local_cg_fixed(1e-10, 2000),
            1e-8,
        );
        assert!(inexact.inner_iterations > 0);
        for ((_, eb), (_, ib)) in exact.blocks.iter().zip(&inexact.blocks) {
            assert!(dist2(eb, ib) < 1e-6);
        }
    }

    #[test]
    fn multi_rank_single_failure_delegates_to_li() {
        let (a, part, xstar, b) = setup(60, 4);
        let single = li(&a, &part, 2, &xstar, &b, ConstructionMethod::Exact, 1e-8);
        // Duplicate entries collapse to one failed rank.
        let multi = multi_li(
            &a,
            &part,
            &[2, 2],
            &xstar,
            &b,
            ConstructionMethod::Exact,
            1e-8,
        );
        assert_eq!(multi.blocks.len(), 1);
        assert_eq!(multi.blocks[0].0, 2);
        assert_eq!(multi.blocks[0].1, single.x_block, "delegation is exact");
        assert_eq!(multi.local_flops, single.local_flops);
    }

    #[test]
    fn panel_gram_matches_dense_reference() {
        let (a, part, _, _) = setup(40, 4);
        let panel = a.row_panel(part.range(1));
        let gram = panel_gram(&panel);
        let dense = panel.to_dense();
        // P Pᵀ = (Pᵀ)ᵀ(Pᵀ) = gram of Pᵀ.
        let mut pt = rsls_sparse::DenseMatrix::zeros(panel.ncols(), panel.nrows());
        for (r, c, v) in panel.iter() {
            pt[(c, r)] = v;
        }
        let reference = pt.gram();
        for i in 0..gram.nrows() {
            for j in 0..gram.ncols() {
                assert!((gram[(i, j)] - reference[(i, j)]).abs() < 1e-9);
            }
        }
        let _ = dense;
    }
}
