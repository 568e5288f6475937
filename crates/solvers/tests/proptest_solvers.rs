//! Property-based tests of the solver crate.

use proptest::prelude::*;
use rsls_solvers::{Cg, CgConfig, Cgls, CglsConfig};
use rsls_sparse::generators::{banded_spd, BandedConfig};
use rsls_sparse::Partition;

fn spd(n: usize, seed: u64) -> rsls_sparse::CsrMatrix {
    banded_spd(&BandedConfig::regular(n, 5, 0.2, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cg_always_converges_on_well_conditioned_spd(n in 10usize..150, seed in 0u64..50) {
        let a = spd(n, seed);
        let b = vec![1.0; n];
        let mut cg = Cg::from_zero(&a, &b);
        let (_, ok) = cg.solve(&CgConfig { tolerance: 1e-10, max_iterations: 10 * n + 100 });
        prop_assert!(ok);
        prop_assert!(cg.true_relative_residual() < 1e-8);
    }

    #[test]
    fn cg_residual_is_monotone_on_diagonal_systems(n in 5usize..100, d in 2.5f64..10.0) {
        // For strongly diagonally dominant systems the relative residual
        // decreases monotonically (no CG oscillation regime).
        let a = rsls_sparse::generators::tridiagonal(n, d);
        let b = vec![1.0; n];
        let mut cg = Cg::from_zero(&a, &b);
        let mut prev = cg.relative_residual();
        for _ in 0..n.min(30) {
            let r = cg.step();
            prop_assert!(r <= prev * (1.0 + 1e-9), "residual rose: {prev} -> {r}");
            prev = r;
        }
    }

    #[test]
    fn cgls_residual_never_increases(n in 10usize..100, seed in 0u64..50) {
        let a = spd(n, seed);
        let b = vec![1.0; n];
        let mut cgls = Cgls::new(&a, &b);
        // The *LS residual* ‖b − Ax‖ is monotone in CGLS (the optimality
        // residual ‖Aᵀr‖ oscillates; track the former via x).
        let mut prev = f64::INFINITY;
        for _ in 0..20 {
            cgls.step();
            let mut ax = vec![0.0; n];
            a.spmv(cgls.x(), &mut ax);
            let res: f64 = ax.iter().zip(&b).map(|(l, r)| (l - r) * (l - r)).sum::<f64>().sqrt();
            // Finite precision nudges the minimum-norm property by tiny amounts.
            prop_assert!(res <= prev * 1.01 + 1e-12);
            prev = res;
        }
        let _ = CglsConfig::default();
    }

    #[test]
    fn halo_plan_bytes_match_recv_lists(n in 20usize..200, p in 2usize..10, seed in 0u64..30) {
        let a = spd(n, seed);
        let part = Partition::balanced(n, p);
        let plan = rsls_solvers::HaloPlan::build(&a, &part);
        let from_recv: u64 = (0..p).map(|r| plan.recv_indices(r).len() as u64 * 8).sum();
        prop_assert_eq!(plan.bytes_per_exchange(), from_recv);
        // Messages are bounded by p(p-1) pairs.
        prop_assert!(plan.messages_per_exchange() <= p * (p - 1));
    }
}
