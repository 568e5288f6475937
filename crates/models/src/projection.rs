//! Weak-scaling cost projection for large systems (§6, Figure 9).
//!
//! The projection keeps 50K nonzeros per process (fixed-time scaling),
//! assumes a constant per-process MTBF (so the system failure rate λ grows
//! linearly with N), and extrapolates the measured per-scheme unit costs:
//! `t_C` of CR-D and `t_const` of FW grow linearly with system size,
//! `t_C` of CR-M stays flat — exactly the trends the paper measured on its
//! 8-node cluster and assumes to continue.

use serde::{Deserialize, Serialize};

use rsls_core::Scheme;

use crate::general::OverheadModel;
use crate::predict::{checkpoint_cost_s, predict, Inputs, Prediction};

/// Calibration of the §6 projection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProjectionConfig {
    /// Nonzeros per process (the paper scales matrices to keep 50K).
    pub nnz_per_process: u64,
    /// Per-process MTBF, hours (the paper assumes 6K hours, giving a
    /// linearly decreasing system MTBF).
    pub per_process_mtbf_h: f64,
    /// Fault-free solve time of the fixed-time workload, seconds.
    pub t_solve_s: f64,
    /// Parallel overhead model `T_O(N)`.
    pub overhead: OverheadModel,
    /// CR-D per-checkpoint cost at N processes: `base + slope · N`.
    pub tc_disk_base_s: f64,
    /// CR-D per-checkpoint cost slope, seconds per process.
    pub tc_disk_slope_s: f64,
    /// CR-M per-checkpoint cost (constant with N).
    pub tc_mem_s: f64,
    /// FW per-reconstruction cost at N processes: `base + slope · N`.
    pub t_const_base_s: f64,
    /// FW per-reconstruction cost slope, seconds per process.
    pub t_const_slope_s: f64,
    /// FW extra-iteration time per fault as a fraction of the fault-free
    /// time (the paper adopts "an average normalized overhead based on the
    /// fault-free case").
    pub fw_extra_frac_per_fault: f64,
}

impl Default for ProjectionConfig {
    fn default() -> Self {
        // Constants in the range fitted from the experiment suite on the
        // modeled 8-node/192-core platform (see EXPERIMENTS.md).
        ProjectionConfig {
            nnz_per_process: 50_000,
            per_process_mtbf_h: 6_000.0,
            t_solve_s: 600.0,
            overhead: OverheadModel {
                spmv_comm_s: 30.0,
                spmv_growth_per_doubling: 0.08,
                dot_comm_per_level_s: 3.0,
                reference_n: 192,
            },
            tc_disk_base_s: 0.05,
            tc_disk_slope_s: 2.0e-4,
            tc_mem_s: 0.01,
            t_const_base_s: 0.5,
            t_const_slope_s: 1.0e-5,
            fw_extra_frac_per_fault: 0.004,
        }
    }
}

impl ProjectionConfig {
    /// Fault-free time at N processes.
    pub fn t_base_s(&self, n: usize) -> f64 {
        self.t_solve_s + self.overhead.overhead_s(n)
    }

    /// System failure rate at N processes, per second.
    pub fn lambda_per_s(&self, n: usize) -> f64 {
        n as f64 / (self.per_process_mtbf_h * 3600.0)
    }
}

/// Projects the scheme a report label names (`"CR-D"`, `"LI-DVFS"`, …)
/// at `n` processes: [`predict`] on the unit costs extrapolated to `n`.
/// `None` for a label outside the registry.
pub fn project_scheme(label: &str, cfg: &ProjectionConfig, n: usize) -> Option<Prediction> {
    let (scheme, dvfs) = Scheme::parse_run_label(label)?;
    let family = scheme.model_family();
    let t_base = cfg.t_base_s(n);
    let tc_disk = cfg.tc_disk_base_s + cfg.tc_disk_slope_s * n as f64;
    let inputs = Inputs {
        t_base_s: t_base,
        lambda_per_s: cfg.lambda_per_s(n),
        ranks: n,
        t_c_s: checkpoint_cost_s(family, cfg.tc_mem_s, tc_disk),
        t_const_s: cfg.t_const_base_s + cfg.t_const_slope_s * n as f64,
        t_extra_per_fault_s: cfg.fw_extra_frac_per_fault * t_base,
        t_restore_per_fault_s: 0.0,
        interval_s: None,
    };
    Some(predict(family, dvfs, &inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: [usize; 6] = [1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000];

    fn at(label: &str, n: usize) -> Prediction {
        project_scheme(label, &ProjectionConfig::default(), n).unwrap()
    }

    #[test]
    fn rd_is_flat_across_scales() {
        for &n in &SIZES {
            let p = at("RD", n);
            assert_eq!((p.t_res, p.e_res, p.p), (0.0, 1.0, 2.0));
        }
    }

    #[test]
    fn fw_overhead_grows_roughly_linearly() {
        // Paper: "T_res and E_res of FW increases roughly linearly".
        let t: Vec<f64> = SIZES.iter().map(|&n| at("LI-DVFS", n).t_res).collect();
        assert!(t.windows(2).all(|w| w[1] > w[0]), "monotone growth: {t:?}");
        // Linearity check: quadrupling N multiplies overhead by ~4 (±50%).
        let ratio = t[2] / t[1];
        assert!((2.0..8.0).contains(&ratio), "growth ratio {ratio}");
    }

    #[test]
    fn cr_disk_grows_faster_than_fw() {
        // Paper: "T_res and E_res of CR-D increases faster".
        let t = |label, n| at(label, n).t_res;
        assert!(
            t("CR-D", 1_000_000) > t("LI-DVFS", 1_000_000),
            "CR-D must dominate FW at exascale"
        );
        // And the growth *rate* is steeper.
        let fw_growth = t("LI-DVFS", 256_000) / t("LI-DVFS", 16_000);
        let crd_growth = t("CR-D", 256_000) / t("CR-D", 16_000);
        assert!(
            crd_growth > fw_growth,
            "CR-D {crd_growth} vs FW {fw_growth}"
        );
    }

    #[test]
    fn cr_memory_overhead_stays_negligible() {
        // Paper: CR-M performs best in the projection (near-zero overhead).
        for &n in &SIZES {
            let t_res = at("CR-M", n).t_res;
            assert!(t_res < 0.05, "CR-M overhead at {n}: {t_res}");
        }
    }

    #[test]
    fn power_of_fw_and_cr_disk_drops_at_scale() {
        // Paper: "P of FW and CR-D drops as the time cost in recovery or
        // reconstruction becomes dominant".
        for label in ["LI-DVFS", "CR-D"] {
            let small = at(label, 1_000).p;
            let large = at(label, 1_000_000).p;
            assert!(
                large < small,
                "{label}: power must drop ({small} -> {large})"
            );
        }
    }

    #[test]
    fn overheads_eventually_dominate_fault_free_cost() {
        // Paper: "T_res and E_res for FW and CR-D become larger than the
        // time and energy required for the fault-free case".
        let (fw, crd) = (at("LI-DVFS", 1_000_000), at("CR-D", 1_000_000));
        assert!(fw.t_res > 1.0 || crd.t_res > 1.0);
    }

    #[test]
    fn lambda_decreases_system_mtbf_linearly() {
        let cfg = ProjectionConfig::default();
        let l1 = cfg.lambda_per_s(1_000);
        let l2 = cfg.lambda_per_s(2_000);
        assert!((l2 / l1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn only_report_labels_are_projected() {
        let cfg = ProjectionConfig::default();
        assert_eq!(project_scheme("FW", &cfg, 1_000), None);
        assert_eq!(project_scheme("RD-DVFS", &cfg, 1_000), None);
    }
}
