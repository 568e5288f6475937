//! Property-based tests of the analytical models.

use proptest::prelude::*;
use rsls_core::{daly_interval_s, young_interval_s};
use rsls_models::general::{FaultFreeModel, OverheadModel};
use rsls_models::schemes::{CrModel, FwModel};
use rsls_models::{project_scheme, ProjectionConfig};

proptest! {
    #[test]
    fn young_is_the_minimizer_of_cr_overhead(
        tc in 0.001f64..10.0,
        mtbf in 100.0f64..1_000_000.0,
    ) {
        let lambda = 1.0 / mtbf;
        let opt = young_interval_s(tc, mtbf);
        let frac = |i: f64| CrModel { t_c_s: tc, interval_s: i, p_ckpt_frac: 0.8 }
            .overhead_fraction(lambda);
        // Any perturbation of the interval costs more.
        for mult in [0.5, 0.8, 1.25, 2.0] {
            prop_assert!(frac(opt) <= frac(opt * mult) + 1e-12);
        }
    }

    #[test]
    fn daly_is_at_least_as_good_as_young(
        tc in 0.001f64..10.0,
        mtbf in 100.0f64..1_000_000.0,
    ) {
        let lambda = 1.0 / mtbf;
        let frac = |i: f64| CrModel { t_c_s: tc, interval_s: i, p_ckpt_frac: 0.8 }
            .overhead_fraction(lambda);
        let y = frac(young_interval_s(tc, mtbf));
        let d = frac(daly_interval_s(tc, mtbf));
        // Daly's higher-order estimate never loses more than a hair to
        // Young's in the first-order cost metric.
        prop_assert!(d <= y * 1.01);
    }

    #[test]
    fn cr_overhead_is_monotone_in_fault_rate(
        tc in 0.001f64..1.0,
        i in 1.0f64..1000.0,
        l1 in 1e-7f64..1e-3,
        l2 in 1e-7f64..1e-3,
    ) {
        let m = CrModel { t_c_s: tc, interval_s: i, p_ckpt_frac: 0.8 };
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        match (m.total_time_s(1000.0, lo), m.total_time_s(1000.0, hi)) {
            (Some(a), Some(b)) => prop_assert!(b >= a),
            (None, Some(_)) => return Err(TestCaseError::fail("halt at low rate but not high")),
            _ => {}
        }
    }

    #[test]
    fn fw_energy_and_time_are_consistent(
        tconst in 0.0f64..10.0,
        textra in 0.0f64..10.0,
        lambda in 1e-7f64..1e-4,
    ) {
        let m = FwModel {
            t_const_s: tconst,
            t_extra_per_fault_s: textra,
            active_frac: 1.0 / 24.0,
            p_idle_frac: 0.45,
        };
        if let Some(total) = m.total_time_s(1000.0, lambda) {
            prop_assert!(total >= 1000.0);
            let e = m.e_res_j(1000.0, lambda, 100.0).unwrap();
            // Energy overhead never exceeds full power for the overhead time.
            prop_assert!(e <= (total - 1000.0) * 100.0 + 1e-9);
            prop_assert!(e >= 0.0);
            let p = m.avg_power_frac(1000.0, lambda).unwrap();
            prop_assert!(p <= 1.0 + 1e-12 && p > 0.0);
        }
    }

    #[test]
    fn fault_free_energy_identity(n in 1usize..1_000_000, t in 1.0f64..10_000.0, p1 in 1.0f64..50.0) {
        let m = FaultFreeModel {
            t_solve_s: t,
            p1_w: p1,
            overhead: OverheadModel {
                spmv_comm_s: t * 0.01,
                spmv_growth_per_doubling: 0.05,
                dot_comm_per_level_s: t * 0.001,
                reference_n: 64,
            },
        };
        prop_assert!((m.energy_j(n) - m.power_w(n) * m.time_s(n)).abs() < 1e-6 * m.energy_j(n));
        prop_assert!(m.time_s(n) >= t);
    }

    #[test]
    fn projections_are_monotone_in_system_size(shift in 0usize..8) {
        let cfg = ProjectionConfig::default();
        let n1 = 1000usize << shift;
        let n2 = n1 * 2;
        for label in ["LI-DVFS", "CR-D"] {
            let a = project_scheme(label, &cfg, n1).unwrap().t_res;
            let b = project_scheme(label, &cfg, n2).unwrap().t_res;
            if a.is_finite() && b.is_finite() {
                prop_assert!(b >= a, "{label}: {a} then {b}");
            }
        }
    }
}
