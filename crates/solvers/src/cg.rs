//! Step-wise Conjugate Gradient.

use rsls_sparse::vector::{cg_update, dot, norm2, xpby};
use rsls_sparse::{CsrMatrix, SpmvOperator};

/// CG termination parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgConfig {
    /// Relative-residual tolerance `||r|| / ||b||` (the paper uses 1e-12).
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            tolerance: 1e-12,
            max_iterations: 500_000,
        }
    }
}

/// A full Krylov-state snapshot: everything [`Cg::step`] reads besides
/// the fixed operator and rhs.
///
/// Restoring it with [`Cg::restore_state`] resumes the *exact* fault-free
/// iteration sequence — no residual recompute, no search-direction reset,
/// no reconvergence penalty — which is what the exact-state ABFT-CR
/// checkpoint scheme stores to disk (`x`, `r`, `p`, and the `rᵀr`
/// scalar, per Pachajoa et al.).
#[derive(Debug, Clone, PartialEq)]
pub struct KrylovState {
    /// Iteration count at capture time (bookkeeping only; restores do not
    /// rewind the monotonic work counter).
    pub iteration: usize,
    /// The iterate.
    pub x: Vec<f64>,
    /// The recurrence residual.
    pub r: Vec<f64>,
    /// The search direction.
    pub p: Vec<f64>,
    /// The cached `rᵀr` scalar.
    pub rr: f64,
}

/// A resumable CG iteration on `A x = b` for SPD `A`.
///
/// The struct owns the full iteration state (`x`, `r`, `p`); the caller
/// advances it with [`Cg::step`] and may mutate `x` between steps (fault
/// injection / recovery) as long as it then calls [`Cg::restart`] to
/// recompute the residual and reset the search direction — the standard
/// recovery pattern for Krylov methods under faults.
///
/// # Example
///
/// ```
/// use rsls_solvers::{Cg, CgConfig};
/// use rsls_sparse::generators::tridiagonal;
///
/// let a = tridiagonal(100, 2.5);
/// let b = vec![1.0; 100];
/// let mut cg = Cg::from_zero(&a, &b);
/// let (iters, converged) = cg.solve(&CgConfig::default());
/// assert!(converged);
/// assert!(iters < 100);
/// assert!(cg.true_relative_residual() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cg<'a> {
    op: SpmvOperator<'a>,
    b: &'a [f64],
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    rr: f64,
    b_norm: f64,
    iteration: usize,
}

impl<'a> Cg<'a> {
    /// Initializes CG from the initial guess `x0`.
    ///
    /// # Panics
    /// Panics on dimension mismatches or a non-square matrix.
    pub fn new(a: &'a CsrMatrix, b: &'a [f64], x0: Vec<f64>) -> Self {
        // Bind the operator to the format the deterministic heuristic
        // selects; every kernel behind `apply` is bit-identical to the
        // CSR reference, so trajectories (including the replayed ABFT
        // ones) do not depend on the choice.
        Cg::with_operator(SpmvOperator::select(a), b, x0)
    }

    /// Initializes CG from `x0` on an operator the caller already bound
    /// (a caller holding the matrix's `MatrixKey` binds it with
    /// [`SpmvOperator::select_keyed`] and skips the content hash).
    ///
    /// # Panics
    /// Panics on dimension mismatches or a non-square matrix.
    pub fn with_operator(op: SpmvOperator<'a>, b: &'a [f64], x0: Vec<f64>) -> Self {
        let a = op.csr();
        assert_eq!(a.nrows(), a.ncols(), "CG requires a square matrix");
        assert_eq!(b.len(), a.nrows(), "rhs length mismatch");
        assert_eq!(x0.len(), a.nrows(), "initial guess length mismatch");
        let n = a.nrows();
        let b_norm = norm2(b).max(f64::MIN_POSITIVE);
        let mut cg = Cg {
            op,
            b,
            x: x0,
            r: vec![0.0; n],
            p: vec![0.0; n],
            ap: vec![0.0; n],
            rr: 0.0,
            b_norm,
            iteration: 0,
        };
        cg.recompute_residual();
        cg
    }

    /// Initializes CG from the zero initial guess.
    pub fn from_zero(a: &'a CsrMatrix, b: &'a [f64]) -> Self {
        let n = a.nrows();
        Cg::new(a, b, vec![0.0; n])
    }

    /// Performs one CG iteration, returning the new relative residual.
    pub fn step(&mut self) -> f64 {
        self.op.apply(&self.p, &mut self.ap);
        let pap = dot(&self.p, &self.ap);
        if pap <= 0.0 || !pap.is_finite() {
            // Breakdown (indefinite operator or poisoned state): restart
            // from the current x rather than diverging silently.
            self.recompute_residual();
            self.iteration += 1;
            return self.relative_residual();
        }
        let alpha = self.rr / pap;
        // Iterate update, residual update and squared norm in one pass,
        // bit-identical to axpy(x) followed by axpy(r) and dot(r, r).
        let rr_new = cg_update(alpha, &self.p, &self.ap, &mut self.x, &mut self.r);
        let beta = rr_new / self.rr;
        xpby(&self.r, beta, &mut self.p);
        self.rr = rr_new;
        self.iteration += 1;
        self.relative_residual()
    }

    /// Recomputes `r = b − A x` and resets `p = r` — required after any
    /// external mutation of `x` (fault injection or recovery).
    pub fn restart(&mut self) {
        self.recompute_residual();
    }

    fn recompute_residual(&mut self) {
        self.op.apply(&self.x, &mut self.r);
        for (ri, bi) in self.r.iter_mut().zip(self.b) {
            *ri = bi - *ri;
        }
        self.p.copy_from_slice(&self.r);
        self.rr = dot(&self.r, &self.r);
    }

    /// `||r||₂ / ||b||₂` of the tracked (recurrence) residual.
    pub fn relative_residual(&self) -> f64 {
        self.rr.sqrt() / self.b_norm
    }

    /// The *true* relative residual `||b − A x|| / ||b||` (recomputed; the
    /// recurrence residual can drift after many iterations).
    ///
    /// Allocation-free: reuses the `ap` scratch vector, which every
    /// [`Cg::step`] overwrites before reading, so clobbering it here is
    /// invisible to the iteration.
    pub fn true_relative_residual(&mut self) -> f64 {
        self.op.apply(&self.x, &mut self.ap);
        let mut diff = 0.0;
        for (axi, bi) in self.ap.iter().zip(self.b) {
            diff += (bi - axi) * (bi - axi);
        }
        diff.sqrt() / self.b_norm
    }

    /// Completed iterations.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// The storage format the operator was bound to.
    pub fn format(&self) -> rsls_sparse::Format {
        self.op.format()
    }

    /// The current iterate.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Mutable access to a slice of the iterate — the fault injector
    /// corrupts the failed rank's range, recovery schemes overwrite it.
    /// Call [`Cg::restart`] afterwards.
    pub fn x_slice_mut(&mut self, range: std::ops::Range<usize>) -> &mut [f64] {
        &mut self.x[range]
    }

    /// Replaces the whole iterate (checkpoint rollback). Call
    /// [`Cg::restart`] afterwards.
    pub fn set_x(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.x.len());
        self.x.copy_from_slice(x);
    }

    /// Snapshots the full Krylov state (`x`, `r`, `p`, `rᵀr`).
    ///
    /// `ap` is excluded: every [`Cg::step`] overwrites it before reading.
    pub fn capture_state(&self) -> KrylovState {
        KrylovState {
            iteration: self.iteration,
            x: self.x.clone(),
            r: self.r.clone(),
            p: self.p.clone(),
            rr: self.rr,
        }
    }

    /// Restores a [`KrylovState`] snapshot taken on this system.
    ///
    /// Unlike [`Cg::set_x`] + [`Cg::restart`], this needs no residual
    /// recompute: subsequent steps replay the captured run bit-for-bit.
    /// The iteration counter is *not* rewound — it keeps counting total
    /// work performed, including the replayed stretch.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn restore_state(&mut self, state: &KrylovState) {
        assert_eq!(state.x.len(), self.x.len(), "state dimension mismatch");
        assert_eq!(state.r.len(), self.r.len(), "state dimension mismatch");
        assert_eq!(state.p.len(), self.p.len(), "state dimension mismatch");
        self.x.copy_from_slice(&state.x);
        self.r.copy_from_slice(&state.r);
        self.p.copy_from_slice(&state.p);
        self.rr = state.rr;
    }

    /// True when the relative residual is at or below `tol`.
    pub fn converged(&self, tol: f64) -> bool {
        self.relative_residual() <= tol
    }

    /// Flops of one CG step on this matrix: one SpMV plus two dots and
    /// three axpy-like updates over `n` entries.
    pub fn step_flops(a: &CsrMatrix) -> u64 {
        a.spmv_flops() + 10 * a.nrows() as u64
    }

    /// Runs to convergence, returning `(iterations, converged)`.
    pub fn solve(&mut self, cfg: &CgConfig) -> (usize, bool) {
        while self.iteration < cfg.max_iterations {
            if self.converged(cfg.tolerance) {
                return (self.iteration, true);
            }
            self.step();
        }
        (self.iteration, self.converged(cfg.tolerance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsls_sparse::generators::{banded_spd, tridiagonal, BandedConfig};
    use rsls_sparse::vector::dist2;

    fn rhs_for_known_solution(a: &CsrMatrix, xstar: &[f64]) -> Vec<f64> {
        let mut b = vec![0.0; a.nrows()];
        a.spmv(xstar, &mut b);
        b
    }

    #[test]
    fn cg_solves_tridiagonal_system() {
        let a = tridiagonal(100, 2.5);
        let xstar: Vec<f64> = (0..100).map(|i| (i % 7) as f64 - 3.0).collect();
        let b = rhs_for_known_solution(&a, &xstar);
        let mut cg = Cg::from_zero(&a, &b);
        let (iters, ok) = cg.solve(&CgConfig::default());
        assert!(ok, "did not converge in {iters} iterations");
        assert!(dist2(cg.x(), &xstar) < 1e-8);
    }

    #[test]
    fn cg_converges_in_at_most_n_iterations_in_exact_arithmetic_spirit() {
        let cfg = BandedConfig::regular(50, 5, 0.5, 2);
        let a = banded_spd(&cfg);
        let b = vec![1.0; 50];
        let mut cg = Cg::from_zero(&a, &b);
        let (iters, ok) = cg.solve(&CgConfig {
            tolerance: 1e-10,
            max_iterations: 200,
        });
        assert!(ok);
        assert!(iters <= 60, "well-conditioned SPD took {iters} iterations");
    }

    #[test]
    fn worse_conditioning_takes_more_iterations() {
        let run = |dom: f64| {
            let cfg = BandedConfig::regular(300, 5, dom, 4);
            let a = banded_spd(&cfg);
            let b = vec![1.0; 300];
            let mut cg = Cg::from_zero(&a, &b);
            cg.solve(&CgConfig {
                tolerance: 1e-10,
                max_iterations: 100_000,
            })
            .0
        };
        let well = run(1.0);
        let ill = run(0.01);
        assert!(
            ill > 2 * well,
            "expected conditioning to drive iterations: {well} vs {ill}"
        );
    }

    #[test]
    fn restart_repairs_externally_corrupted_state() {
        let a = tridiagonal(80, 3.0);
        let b = vec![1.0; 80];
        let mut cg = Cg::from_zero(&a, &b);
        for _ in 0..10 {
            cg.step();
        }
        // Corrupt a slice, as a fault would.
        for v in cg.x_slice_mut(20..40) {
            *v = f64::NAN;
        }
        // Replace with zeros (the F0 scheme) and restart.
        for v in cg.x_slice_mut(20..40) {
            *v = 0.0;
        }
        cg.restart();
        let (_, ok) = cg.solve(&CgConfig::default());
        assert!(ok);
        assert!(cg.true_relative_residual() < 1e-10);
    }

    #[test]
    fn recurrence_residual_tracks_true_residual() {
        let a = tridiagonal(60, 2.5);
        let b = vec![1.0; 60];
        let mut cg = Cg::from_zero(&a, &b);
        for _ in 0..30 {
            cg.step();
        }
        let rec = cg.relative_residual();
        let true_r = cg.true_relative_residual();
        assert!((rec - true_r).abs() <= 1e-8 + 0.1 * true_r);
    }

    #[test]
    fn set_x_rolls_back_to_checkpoint() {
        let a = tridiagonal(40, 2.5);
        let b = vec![1.0; 40];
        let mut cg = Cg::from_zero(&a, &b);
        for _ in 0..5 {
            cg.step();
        }
        let checkpoint = cg.x().to_vec();
        let res_at_checkpoint = cg.true_relative_residual();
        for _ in 0..5 {
            cg.step();
        }
        cg.set_x(&checkpoint);
        cg.restart();
        assert!((cg.true_relative_residual() - res_at_checkpoint).abs() < 1e-12);
    }

    #[test]
    fn restore_state_replays_the_fault_free_run_bit_for_bit() {
        let cfg = BandedConfig::regular(120, 5, 0.6, 3);
        let a = banded_spd(&cfg);
        let b = vec![1.0; 120];

        // Fault-free reference trajectory.
        let mut reference = Cg::from_zero(&a, &b);
        for _ in 0..10 {
            reference.step();
        }
        let snapshot = reference.capture_state();
        let (ref_iters, ok) = reference.solve(&CgConfig::default());
        assert!(ok);
        let ref_bits: Vec<u64> = reference.x().iter().map(|v| v.to_bits()).collect();

        // Faulted run: corrupt everything after the snapshot point, then
        // restore the exact Krylov state and run to convergence.
        let mut faulted = Cg::from_zero(&a, &b);
        for _ in 0..10 {
            faulted.step();
        }
        for _ in 0..7 {
            faulted.step();
        }
        for v in faulted.x_slice_mut(0..120) {
            *v = f64::NAN;
        }
        faulted.restore_state(&snapshot);
        let (faulted_iters, ok) = faulted.solve(&CgConfig::default());
        assert!(ok);
        let faulted_bits: Vec<u64> = faulted.x().iter().map(|v| v.to_bits()).collect();

        assert_eq!(ref_bits, faulted_bits, "iterates must be bit-identical");
        assert_eq!(
            faulted.relative_residual().to_bits(),
            reference.relative_residual().to_bits(),
            "final residual must be bit-identical"
        );
        // The monotonic work counter records the 7 replayed iterations.
        assert_eq!(faulted_iters, ref_iters + 7);
    }

    #[test]
    fn step_flops_counts_spmv_and_vector_work() {
        let a = tridiagonal(10, 2.0);
        assert_eq!(Cg::step_flops(&a), 2 * a.nnz() as u64 + 100);
    }

    #[test]
    fn nonzero_initial_guess_is_honored() {
        let a = tridiagonal(30, 2.5);
        let xstar: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b = rhs_for_known_solution(&a, &xstar);
        // Start from the exact solution: converged immediately.
        let cg = Cg::new(&a, &b, xstar.clone());
        assert!(cg.converged(1e-12));
    }
}
