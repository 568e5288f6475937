//! Scheme recommendation — the paper's research question 4.
//!
//! "Which recovery mechanism is most energy efficient for a given
//! workload? The solution to this question lies in the workload
//! properties and fault situation." (§5.3). The advisor encodes that
//! answer: given the fitted per-scheme unit costs of a workload and a
//! fault rate, it evaluates the §3.2 models for every candidate scheme
//! and ranks them under a chosen objective.

use serde::{Deserialize, Serialize};

use rsls_core::Scheme;

use crate::fit::FittedParams;
use crate::predict::{checkpoint_cost_s, predict, Inputs};

/// What to optimize for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize time-to-solution (the classical HPC objective).
    Time,
    /// Minimize energy-to-solution (the paper's focus).
    Energy,
    /// Minimize average power draw (for power-capped operation).
    Power,
}

/// Model-predicted normalized costs of one candidate scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeEstimate {
    /// Report label of the scheme ("RD", "CR-M", "LI-DVFS", …).
    pub label: String,
    /// Predicted `T / T_FF` (∞ when the scheme cannot make progress).
    pub t_norm: f64,
    /// Predicted average power relative to `N·P_1`.
    pub p_norm: f64,
    /// Predicted `E / E_FF`.
    pub e_norm: f64,
}

impl SchemeEstimate {
    /// The estimate's cost under `objective`.
    pub fn cost(&self, objective: Objective) -> f64 {
        match objective {
            Objective::Time => self.t_norm,
            Objective::Energy => self.e_norm,
            Objective::Power => self.p_norm,
        }
    }
}

/// Workload-and-fault situation the advisor reasons about.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Situation {
    /// Fault-free time-to-solution, seconds.
    pub t_ff_s: f64,
    /// Failure rate λ, per second.
    pub lambda_per_s: f64,
    /// Per-checkpoint cost to memory, seconds.
    pub tc_mem_s: f64,
    /// Per-checkpoint cost to disk, seconds.
    pub tc_disk_s: f64,
    /// Per-fault reconstruction cost of the (best) FW scheme, seconds.
    pub t_const_s: f64,
    /// Per-fault extra-iteration time of the FW scheme, seconds.
    pub t_extra_per_fault_s: f64,
    /// Number of cores (for the FW construction power mix).
    pub num_cores: usize,
    /// Whether in-memory state survives the expected fault class (false
    /// for system-wide outages — leaves only the schemes whose family
    /// `survives_outage`).
    pub memory_survives: bool,
}

impl Situation {
    /// Builds a situation from fitted measurement parameters of an FW run
    /// and a CR-D run against the same fault-free baseline.
    pub fn from_fits(
        t_ff_s: f64,
        lambda_per_s: f64,
        fw: &FittedParams,
        cr_disk: &FittedParams,
        num_cores: usize,
    ) -> Self {
        Situation {
            t_ff_s,
            lambda_per_s,
            tc_mem_s: cr_disk.t_c_s / 50.0, // memory ≫ cheaper than shared disk
            tc_disk_s: cr_disk.t_c_s,
            t_const_s: fw.t_const_s,
            t_extra_per_fault_s: fw.t_extra_per_fault_s,
            num_cores,
            memory_survives: true,
        }
    }
}

/// Evaluates [`predict`] for every candidate report label (`"RD"`,
/// `"CR-D"`, `"LI-DVFS"`, …); labels outside the registry, and schemes
/// an outage disqualifies when memory does not survive, are skipped.
pub fn estimate_all(s: &Situation, labels: &[&str]) -> Vec<SchemeEstimate> {
    labels
        .iter()
        .filter_map(|&label| {
            let (scheme, dvfs) = Scheme::parse_run_label(label)?;
            let family = scheme.model_family();
            if !s.memory_survives && !family.survives_outage() {
                return None;
            }
            let inputs = Inputs {
                t_base_s: s.t_ff_s,
                lambda_per_s: s.lambda_per_s,
                ranks: s.num_cores,
                t_c_s: checkpoint_cost_s(family, s.tc_mem_s, s.tc_disk_s),
                t_const_s: s.t_const_s,
                t_extra_per_fault_s: s.t_extra_per_fault_s,
                t_restore_per_fault_s: 0.0,
                interval_s: None,
            };
            let p = predict(family, dvfs, &inputs);
            Some(SchemeEstimate {
                label: label.to_string(),
                t_norm: 1.0 + p.t_res,
                p_norm: p.p,
                e_norm: 1.0 + p.e_res,
            })
        })
        .collect()
}

/// Ranks the candidates under `objective` (best first; ties broken by
/// energy, then time; a scheme that cannot make progress ranks last).
///
/// # Example
///
/// ```
/// use rsls_models::{recommend, Objective, Situation};
///
/// let situation = Situation {
///     t_ff_s: 1000.0,
///     lambda_per_s: 1e-3,
///     tc_mem_s: 0.01,
///     tc_disk_s: 2.0,
///     t_const_s: 1.0,
///     t_extra_per_fault_s: 20.0,
///     num_cores: 64,
///     memory_survives: true,
/// };
/// let labels = ["RD", "CR-M", "CR-D", "LI-DVFS"];
/// let ranked = recommend(&situation, &labels, Objective::Time);
/// // RD is the only scheme with zero time overhead (Eq. 12).
/// assert_eq!(ranked[0].label, "RD");
/// ```
pub fn recommend(s: &Situation, labels: &[&str], objective: Objective) -> Vec<SchemeEstimate> {
    let mut estimates = estimate_all(s, labels);
    estimates.sort_by(|a, b| {
        a.cost(objective)
            .total_cmp(&b.cost(objective))
            .then(a.e_norm.total_cmp(&b.e_norm))
            .then(a.t_norm.total_cmp(&b.t_norm))
    });
    estimates
}

#[cfg(test)]
mod tests {
    use super::*;

    const LABELS: [&str; 4] = ["RD", "CR-M", "CR-D", "LI-DVFS"];

    fn situation() -> Situation {
        Situation {
            t_ff_s: 1000.0,
            lambda_per_s: 1e-3,
            tc_mem_s: 0.01,
            tc_disk_s: 2.0,
            t_const_s: 1.0,
            t_extra_per_fault_s: 20.0,
            num_cores: 64,
            memory_survives: true,
        }
    }

    #[test]
    fn time_objective_prefers_rd() {
        // RD is the only scheme with zero time overhead (Eq. 12).
        let ranked = recommend(&situation(), &LABELS, Objective::Time);
        assert_eq!(ranked[0].label, "RD");
    }

    #[test]
    fn rd_is_never_the_power_winner() {
        let ranked = recommend(&situation(), &LABELS, Objective::Power);
        assert_ne!(ranked[0].label, "RD");
        assert_eq!(ranked.last().unwrap().label, "RD");
    }

    #[test]
    fn energy_objective_depends_on_reconstruction_cost() {
        // Cheap accurate reconstruction: FW wins energy.
        let cheap = Situation {
            t_const_s: 0.1,
            t_extra_per_fault_s: 1.0,
            ..situation()
        };
        let best_cheap = &recommend(&cheap, &LABELS, Objective::Energy)[0];
        assert!(
            best_cheap.label == "LI-DVFS" || best_cheap.label == "CR-M",
            "cheap recovery should beat RD: {best_cheap:?}"
        );
        assert!(best_cheap.e_norm < 2.0);

        // Expensive inaccurate reconstruction (the nd24k situation): the
        // ranking flips toward RD.
        let expensive = Situation {
            t_const_s: 100.0,
            t_extra_per_fault_s: 800.0,
            tc_mem_s: 300.0,
            tc_disk_s: 600.0,
            ..situation()
        };
        let ranked = recommend(&expensive, &LABELS, Objective::Energy);
        assert_eq!(ranked[0].label, "RD", "{ranked:?}");
    }

    #[test]
    fn swo_situation_disqualifies_memory_based_schemes() {
        let swo = Situation {
            memory_survives: false,
            ..situation()
        };
        let estimates = estimate_all(&swo, &LABELS);
        assert!(estimates
            .iter()
            .all(|e| e.label != "CR-M" && e.label != "LI-DVFS" && e.label != "RD"));
        assert!(estimates.iter().any(|e| e.label == "CR-D"));
    }

    #[test]
    fn estimates_cover_all_objectives() {
        let s = situation();
        for e in estimate_all(&s, &LABELS) {
            for o in [Objective::Time, Objective::Energy, Objective::Power] {
                assert!(e.cost(o) > 0.0);
            }
        }
    }

    #[test]
    fn legal_limits_rank_without_nan_or_panic() {
        // λ = 0: Young's interval is infinite, and nothing is lost.
        let no_faults = Situation {
            lambda_per_s: 0.0,
            ..situation()
        };
        for e in estimate_all(&no_faults, &LABELS) {
            assert_eq!(
                (e.t_norm, e.e_norm),
                (1.0, if e.label == "RD" { 2.0 } else { 1.0 }),
                "{e:?}"
            );
        }
        // Free memory checkpoints: no checkpoint term, no lost work.
        let free = Situation {
            tc_mem_s: 0.0,
            ..situation()
        };
        let ranked = recommend(&free, &LABELS, Objective::Time);
        let crm = ranked.iter().find(|e| e.label == "CR-M").unwrap();
        assert_eq!((crm.t_norm, crm.p_norm, crm.e_norm), (1.0, 1.0, 1.0));
        // A scheme that halts ranks last, after every finite cost.
        let hopeless = Situation {
            tc_disk_s: 1e6,
            ..situation()
        };
        let ranked = recommend(&hopeless, &LABELS, Objective::Time);
        assert_eq!(ranked.last().unwrap().label, "CR-D");
        assert_eq!(ranked.last().unwrap().t_norm, f64::INFINITY);
    }
}
