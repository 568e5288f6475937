//! Jacobi-preconditioned CG.
//!
//! The paper evaluates plain CG; Jacobi-PCG is included as the natural
//! extension (its related work discusses PCG variants), there to show
//! recovery behaviour is not specific to the unpreconditioned method.
//!
//! The workspace runs on the same fast path as [`crate::Cg`]: the
//! operator is bound to the format the deterministic selection heuristic
//! picks (CSR or SELL-C-σ), the residual update uses the fused
//! [`axpy_dot`] kernel (which also keeps `rᵀr` current so
//! [`JacobiPcg::relative_residual`] costs nothing), and the
//! preconditioner application uses the fused [`jacobi_dot`] kernel. All
//! of those are bit-identical to their unfused/CSR counterparts, so the
//! rewrite cannot change a single iterate.

use rsls_sparse::vector::{axpy, axpy_dot, dot, jacobi_dot, xpby};
use rsls_sparse::{CsrMatrix, SpmvOperator};

use crate::cg::CgConfig;

/// Jacobi (diagonal) preconditioned CG on `A x = b`.
#[derive(Debug, Clone)]
pub struct JacobiPcg<'a> {
    op: SpmvOperator<'a>,
    inv_diag: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    rz: f64,
    rr: f64,
    b_norm: f64,
    iteration: usize,
}

impl<'a> JacobiPcg<'a> {
    /// Initializes from the zero guess.
    ///
    /// # Panics
    /// Panics if any diagonal entry is zero (Jacobi is undefined then).
    pub fn new(a: &'a CsrMatrix, b: &'a [f64]) -> Self {
        assert_eq!(a.nrows(), a.ncols());
        assert_eq!(b.len(), a.nrows());
        let inv_diag: Vec<f64> = a
            .diagonal()
            .iter()
            .map(|&d| {
                assert!(d != 0.0, "Jacobi preconditioner requires nonzero diagonal");
                1.0 / d
            })
            .collect();
        let n = a.nrows();
        let r = b.to_vec();
        let mut z = vec![0.0; n];
        let rz = jacobi_dot(&inv_diag, &r, &mut z);
        let rr = dot(&r, &r);
        JacobiPcg {
            op: SpmvOperator::select(a),
            inv_diag,
            p: z.clone(),
            z,
            r,
            x: vec![0.0; n],
            ap: vec![0.0; n],
            rz,
            rr,
            b_norm: rsls_sparse::vector::norm2(b).max(f64::MIN_POSITIVE),
            iteration: 0,
        }
    }

    /// One PCG iteration; returns the relative residual.
    ///
    /// Allocation-free: every vector it touches is preallocated by
    /// [`JacobiPcg::new`] (`tests/zero_alloc.rs` holds this at zero).
    pub fn step(&mut self) -> f64 {
        self.op.apply(&self.p, &mut self.ap);
        let pap = dot(&self.p, &self.ap);
        if pap <= 0.0 || !pap.is_finite() {
            self.iteration += 1;
            return self.relative_residual();
        }
        let alpha = self.rz / pap;
        axpy(alpha, &self.p, &mut self.x);
        // Fused residual update + squared norm: bit-identical to axpy
        // followed by dot(r, r), and keeps relative_residual() free.
        self.rr = axpy_dot(-alpha, &self.ap, &mut self.r);
        // Fused preconditioner application + rᵀz, bit-identical to the
        // elementwise z-update followed by dot(r, z).
        let rz_new = jacobi_dot(&self.inv_diag, &self.r, &mut self.z);
        let beta = rz_new / self.rz;
        xpby(&self.z, beta, &mut self.p);
        self.rz = rz_new;
        self.iteration += 1;
        self.relative_residual()
    }

    /// `||r||₂ / ||b||₂` from the tracked `rᵀr` scalar (no vector pass).
    pub fn relative_residual(&self) -> f64 {
        self.rr.sqrt() / self.b_norm
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

    /// Runs to convergence; returns `(iterations, converged)`.
    pub fn solve(&mut self, cfg: &CgConfig) -> (usize, bool) {
        while self.iteration < cfg.max_iterations {
            if self.relative_residual() <= cfg.tolerance {
                return (self.iteration, true);
            }
            self.step();
        }
        (self.iteration, self.relative_residual() <= cfg.tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsls_sparse::generators::{banded_spd, BandedConfig};

    #[test]
    fn pcg_solves_spd_system() {
        let a = banded_spd(&BandedConfig::regular(120, 5, 0.1, 6));
        let b = vec![1.0; 120];
        let mut pcg = JacobiPcg::new(&a, &b);
        let (_, ok) = pcg.solve(&CgConfig::default());
        assert!(ok);
    }

    #[test]
    fn tracked_residual_matches_recomputed_dot() {
        let a = banded_spd(&BandedConfig::regular(90, 5, 0.3, 4));
        let b: Vec<f64> = (0..90).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let mut pcg = JacobiPcg::new(&a, &b);
        for _ in 0..25 {
            pcg.step();
            let tracked = pcg.relative_residual();
            let recomputed = dot(&pcg.r, &pcg.r).sqrt() / pcg.b_norm;
            assert_eq!(tracked.to_bits(), recomputed.to_bits());
        }
    }

    #[test]
    fn pcg_is_no_slower_than_cg_on_badly_scaled_diagonal() {
        // Scale rows/cols wildly: Jacobi should shine.
        use rsls_sparse::CooMatrix;
        let n = 150;
        let base = banded_spd(&BandedConfig::regular(n, 5, 0.2, 8));
        let scale: Vec<f64> = (0..n).map(|i| 10f64.powi((i % 5) as i32 - 2)).collect();
        let mut coo = CooMatrix::new(n, n);
        for (r, c, v) in base.iter() {
            coo.push(r, c, v * scale[r] * scale[c]).unwrap();
        }
        let a = coo.to_csr();
        let b = vec![1.0; n];
        let cfg = CgConfig {
            tolerance: 1e-10,
            max_iterations: 20_000,
        };
        let pcg_iters = {
            let mut s = JacobiPcg::new(&a, &b);
            s.solve(&cfg).0
        };
        let cg_iters = {
            let mut s = crate::Cg::from_zero(&a, &b);
            s.solve(&cfg).0
        };
        assert!(
            pcg_iters <= cg_iters,
            "Jacobi PCG ({pcg_iters}) should beat CG ({cg_iters}) here"
        );
    }
}
