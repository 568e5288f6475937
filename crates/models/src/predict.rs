//! One cost model per family: the §3.2 equations behind every consumer.
//!
//! [`predict`] is the one place a [`ModelFamily`] is interpreted. Table 6
//! ([`crate::validate`]), the §6 projection ([`crate::project_scheme`])
//! and the advisor ([`crate::estimate_all`]) differ only in where their
//! [`Inputs`] come from, and the phase power fractions are the ones the
//! driver charges ([`DvfsPolicy::phase_power`]).

use rsls_core::{CheckpointStorage, DvfsPolicy, ModelFamily, PowerModelConfig};

use crate::schemes::{CrModel, FwModel};

/// Unit costs of one workload that [`predict`] reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inputs {
    /// Fault-free time-to-solution `T_base`, seconds.
    pub t_base_s: f64,
    /// Failure rate λ, per second.
    pub lambda_per_s: f64,
    /// Ranks, one core each: one reconstructs a lost block while the
    /// others wait (`Ñ/N = 1/ranks`).
    pub ranks: usize,
    /// Per-checkpoint cost `t_C`, seconds.
    pub t_c_s: f64,
    /// Per-fault reconstruction cost `t_const`, seconds.
    pub t_const_s: f64,
    /// Per-fault extra-iteration time `t_extra`, seconds.
    pub t_extra_per_fault_s: f64,
    /// Per-fault restore + repair cost, seconds.
    pub t_restore_per_fault_s: f64,
    /// Checkpoint interval `I_C`, seconds; `None` is Young's interval.
    pub interval_s: Option<f64>,
}

/// Predicted resilience overheads, normalized to the fault-free run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// `T_res / T_FF` (∞ without forward progress).
    pub t_res: f64,
    /// Average power relative to `N·P_1`.
    pub p: f64,
    /// `E_res / E_FF` (∞ without forward progress).
    pub e_res: f64,
}

/// `t_C` of one checkpoint of `family`, from the per-checkpoint costs of
/// the two storage levels: multilevel writes memory every time and disk
/// every `disk_every`-th time. 0 for a family that does not checkpoint.
pub(crate) fn checkpoint_cost_s(family: ModelFamily, mem_s: f64, disk_s: f64) -> f64 {
    family.checkpoint_tier().map_or(0.0, |tier| match tier {
        CheckpointStorage::Memory => mem_s,
        CheckpointStorage::Disk => disk_s,
        CheckpointStorage::Multilevel { disk_every } => mem_s + disk_s / disk_every.max(1) as f64,
    })
}

/// The §3.2 model of `family` under `dvfs`:
///
/// * baseline — no overhead;
/// * replication — no time overhead, `copies`× power, `copies − 1`
///   fault-free energies (Eq. 12);
/// * checkpoint/restart — [`CrModel`] (Eqs. 9–11) at `interval_s` or
///   Young's interval, each fault's restore folded into `t_C`;
/// * forward recovery — [`FwModel`] (Eqs. 13–16), one of `ranks` cores
///   reconstructing, the restore folded into `t_const`.
///
/// Checkpoint phases and waiting cores draw what the driver charges for
/// them at f_max under the default calibration. Without forward progress
/// `t_res = e_res = ∞` and `p` is the recovery phase's power. λ = 0 and
/// `t_C` = 0 are limits, not NaN: no lost work, no checkpoint term.
pub fn predict(family: ModelFamily, dvfs: DvfsPolicy, inputs: &Inputs) -> Prediction {
    let (t, lambda) = (inputs.t_base_s, inputs.lambda_per_s);
    let power = PowerModelConfig::default();
    let phase = dvfs.phase_power(&power, power.freq_table.max());
    let replicas = |copies: f64| Prediction {
        t_res: 0.0,
        p: copies,
        e_res: copies - 1.0,
    };
    // (total time, None without progress; recovery-phase power; average
    // power; E_res in fault-free power × seconds)
    let (total, recovery_p, p, e_res) = match family {
        // The baseline is Eq. 12 with one copy.
        ModelFamily::Baseline => return replicas(1.0),
        ModelFamily::Replication { copies } => return replicas(copies as f64),
        ModelFamily::CheckpointRestart { .. } => {
            // Young's interval √(2·t_C·MTBF) unless one is given.
            let mtbf_s = 1.0 / lambda;
            let interval_s = inputs
                .interval_s
                .unwrap_or_else(|| (2.0 * inputs.t_c_s * mtbf_s).sqrt());
            let mut m = CrModel {
                t_c_s: inputs.t_c_s,
                interval_s,
                p_ckpt_frac: phase.checkpoint,
            };
            // Restores are storage traffic too.
            m.t_c_s += inputs.t_restore_per_fault_s * m.faults_per_interval(lambda);
            (
                m.total_time_s(t, lambda),
                m.p_ckpt_frac,
                Some(m.avg_power_frac()),
                m.e_res_j(t, lambda, 1.0),
            )
        }
        ModelFamily::ForwardRecovery => {
            let m = FwModel {
                t_const_s: inputs.t_const_s + inputs.t_restore_per_fault_s,
                t_extra_per_fault_s: inputs.t_extra_per_fault_s,
                active_frac: 1.0 / inputs.ranks.max(1) as f64,
                p_idle_frac: phase.waiter,
            };
            (
                m.total_time_s(t, lambda),
                m.construction_power_frac(),
                m.avg_power_frac(t, lambda),
                m.e_res_j(t, lambda, 1.0),
            )
        }
    };
    match (total, p, e_res) {
        (Some(total), Some(p), Some(e_res)) => Prediction {
            t_res: (total - t) / t,
            p,
            e_res: e_res / t,
        },
        _ => Prediction {
            t_res: f64::INFINITY,
            p: recovery_p,
            e_res: f64::INFINITY,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsls_core::Scheme;

    fn inputs() -> Inputs {
        Inputs {
            t_base_s: 100.0,
            lambda_per_s: 0.01,
            ranks: 24,
            t_c_s: 0.5,
            t_const_s: 0.2,
            t_extra_per_fault_s: 3.0,
            t_restore_per_fault_s: 0.1,
            interval_s: None,
        }
    }

    fn family(label: &str) -> (ModelFamily, DvfsPolicy) {
        let (scheme, dvfs) = Scheme::parse_run_label(label).unwrap();
        (scheme.model_family(), dvfs)
    }

    #[test]
    fn replication_matches_eq_12() {
        for (label, expected) in [
            ("FF", (0.0, 1.0, 0.0)),
            ("RD", (0.0, 2.0, 1.0)),
            ("TMR", (0.0, 3.0, 2.0)),
        ] {
            let (f, dvfs) = family(label);
            let p = predict(f, dvfs, &inputs());
            assert_eq!((p.t_res, p.p, p.e_res), expected, "{label}");
        }
    }

    #[test]
    fn every_registry_label_has_a_finite_prediction() {
        let mut predicted = 0;
        for label in Scheme::KNOWN_LABELS {
            for dvfs in [DvfsPolicy::OsDefault, DvfsPolicy::ThrottleWaiters] {
                let Some((scheme, parsed)) =
                    Scheme::parse_run_label(&format!("{label}{}", dvfs.label_suffix()))
                else {
                    continue;
                };
                let p = predict(scheme.model_family(), parsed, &inputs());
                assert!(
                    p.t_res.is_finite() && p.p.is_finite() && p.e_res.is_finite(),
                    "{label} {dvfs:?}: {p:?}"
                );
                predicted += 1;
            }
        }
        // 16 labels, and a "-DVFS" twin for the six with a construction phase.
        assert_eq!(predicted, 22);
    }

    #[test]
    fn a_halted_run_draws_its_recovery_phase_power() {
        let power = PowerModelConfig::default();
        let fmax = power.freq_table.max();
        let hopeless = Inputs {
            lambda_per_s: 10.0,
            ..inputs()
        };
        let (cr, _) = family("CR-D");
        let p = predict(cr, DvfsPolicy::OsDefault, &hopeless);
        assert_eq!((p.t_res, p.e_res), (f64::INFINITY, f64::INFINITY));
        let checkpoint = DvfsPolicy::OsDefault.phase_power(&power, fmax).checkpoint;
        assert_eq!(p.p, checkpoint);
        let (fw, dvfs) = family("LI-DVFS");
        let p = predict(fw, dvfs, &hopeless);
        assert_eq!(p.t_res, f64::INFINITY);
        let waiter = dvfs.phase_power(&power, fmax).waiter;
        assert!((p.p - (1.0 + 23.0 * waiter) / 24.0).abs() < 1e-12, "{p:?}");
    }

    #[test]
    fn checkpoint_cost_follows_the_tier() {
        let cost = |label| checkpoint_cost_s(family(label).0, 1.0, 8.0);
        assert_eq!(cost("CR-M"), 1.0);
        assert_eq!(cost("CR-D"), 8.0);
        assert_eq!(cost("CR-LC"), 8.0);
        assert_eq!(cost("CR-ML"), 1.0 + 8.0 / 4.0);
        assert_eq!(cost("LI"), 0.0);
    }
}
