//! Per-scheme resilience cost models (§3.2, Eqs. 9–16).

use serde::{Deserialize, Serialize};

/// Checkpoint/restart cost model (Eqs. 9–11).
///
/// The paper's `T_chkpt = t_C · T_N / I_C` and `T_lost ≈ (I_C/2) · λ · T_N`
/// both reference the *total* run time on the right-hand side, so the
/// total is the fixed point
/// `T = T_base / (1 − t_C/I_C − λ·I_C/2)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrModel {
    /// Per-checkpoint cost `t_C`, seconds.
    pub t_c_s: f64,
    /// Checkpoint interval `I_C`, seconds.
    pub interval_s: f64,
    /// Power during checkpoint/restore phases relative to `N·P_1`
    /// (< 1: "CPUs are not highly utilized during checkpointing").
    pub p_ckpt_frac: f64,
}

impl CrModel {
    /// Share of total time spent checkpointing, `t_C/I_C` (0 when
    /// checkpoints are free, whatever the interval).
    fn checkpoint_share(&self) -> f64 {
        if self.t_c_s == 0.0 {
            0.0
        } else {
            self.t_c_s / self.interval_s
        }
    }

    /// Faults per interval, `λ·I_C` (0 without faults, even for Young's
    /// infinite interval).
    pub(crate) fn faults_per_interval(&self, lambda_per_s: f64) -> f64 {
        if lambda_per_s == 0.0 {
            0.0
        } else {
            lambda_per_s * self.interval_s
        }
    }

    /// The checkpointing + lost-work overhead fraction
    /// `t_C/I_C + λ·I_C/2` of total time.
    pub fn overhead_fraction(&self, lambda_per_s: f64) -> f64 {
        self.checkpoint_share() + self.faults_per_interval(lambda_per_s) / 2.0
    }

    /// Total time including resilience (fixed point of Eqs. 9–11), or
    /// `None` when the overhead fraction reaches 1 (no forward progress —
    /// the §6 "workload progress can possibly halt" regime).
    pub fn total_time_s(&self, t_base_s: f64, lambda_per_s: f64) -> Option<f64> {
        let frac = self.overhead_fraction(lambda_per_s);
        if frac >= 1.0 {
            None
        } else {
            Some(t_base_s / (1.0 - frac))
        }
    }

    /// Average power over the run relative to `N·P_1`: checkpoint phases
    /// at `p_ckpt_frac`, everything else at 1. (Lost-work recomputation is
    /// normal execution, hence full power.)
    pub fn avg_power_frac(&self) -> f64 {
        let share = self.checkpoint_share();
        share * self.p_ckpt_frac + (1.0 - share)
    }

    /// Resilience energy overhead `E_res` in joules for a system drawing
    /// `full_power_w` during execution.
    pub fn e_res_j(&self, t_base_s: f64, lambda_per_s: f64, full_power_w: f64) -> Option<f64> {
        let total = self.total_time_s(t_base_s, lambda_per_s)?;
        let ckpt_time = total * self.checkpoint_share();
        let lost_time = total - t_base_s - ckpt_time;
        Some(ckpt_time * self.p_ckpt_frac * full_power_w + lost_time.max(0.0) * full_power_w)
    }
}

/// Forward-recovery cost model (Eqs. 13–16).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FwModel {
    /// Per-reconstruction cost `t_const`, seconds (0 for F0/FI).
    pub t_const_s: f64,
    /// Extra-iteration time per fault, seconds (workload/matrix dependent;
    /// fitted from experiments).
    pub t_extra_per_fault_s: f64,
    /// Fraction of cores active during construction (`Ñ/N`; the §4.1
    /// localized constructions have `Ñ = 1`).
    pub active_frac: f64,
    /// Busy-wait core power during construction relative to `P_1`
    /// (the power model's waiter fraction, `DvfsPolicy::phase_power`).
    pub p_idle_frac: f64,
}

impl FwModel {
    /// Total time fixed point of
    /// `T = T_base + λ·T·(t_const + t_extra)` (Eqs. 13–14), or `None`
    /// when recovery work outpaces progress.
    pub fn total_time_s(&self, t_base_s: f64, lambda_per_s: f64) -> Option<f64> {
        let frac = lambda_per_s * (self.t_const_s + self.t_extra_per_fault_s);
        if frac >= 1.0 {
            None
        } else {
            Some(t_base_s / (1.0 - frac))
        }
    }

    /// Power during construction relative to `N·P_1` (Eq. 15):
    /// `(Ñ + (N−Ñ)·P_idle/P_1) / N`.
    pub fn construction_power_frac(&self) -> f64 {
        self.active_frac + (1.0 - self.active_frac) * self.p_idle_frac
    }

    /// Average power over the whole run relative to `N·P_1`.
    pub fn avg_power_frac(&self, t_base_s: f64, lambda_per_s: f64) -> Option<f64> {
        let total = self.total_time_s(t_base_s, lambda_per_s)?;
        let construct_time = total * lambda_per_s * self.t_const_s;
        let other = total - construct_time;
        Some((construct_time * self.construction_power_frac() + other) / total)
    }

    /// `E_res` (Eq. 16): construction at reduced power plus extra
    /// iterations at full power.
    pub fn e_res_j(&self, t_base_s: f64, lambda_per_s: f64, full_power_w: f64) -> Option<f64> {
        let total = self.total_time_s(t_base_s, lambda_per_s)?;
        let construct_time = total * lambda_per_s * self.t_const_s;
        let extra_time = total * lambda_per_s * self.t_extra_per_fault_s;
        Some(
            construct_time * self.construction_power_frac() * full_power_w
                + extra_time * full_power_w,
        )
    }
}

/// CR-LC reconvergence model: the compression-error / extra-iteration
/// trade-off of lossy-compressed checkpointing (Tao et al.,
/// arXiv:1804.11268), specialized to the mantissa-truncation codec.
///
/// A rollback restores an iterate carrying the codec's bounded relative
/// error `ε = 2^-keep`. When `ε` exceeds the solver's residual at the
/// checkpointed iterate, the restored state is *less converged* than the
/// exact rollback CR-D would produce, and CG must iterate the difference
/// away. With an asymptotic per-iteration contraction `ρ` the penalty is
///
/// `Δiters ≈ ln(ε / relres_ckpt) / ln(1/ρ)`,
///
/// clamped at zero once the quantization error is already below the
/// checkpointed residual — the regime where CR-LC is free accuracy-wise
/// and strictly cheaper in stored bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LcModel {
    /// Mantissa bits kept per double (1–52).
    pub keep_mantissa_bits: u8,
    /// Asymptotic CG contraction factor per iteration, `ρ ∈ (0, 1)`:
    /// the relative residual shrinks by `ρ` each step. Fit it from a
    /// fault-free run with [`LcModel::contraction_from_run`].
    pub contraction_per_iter: f64,
}

impl LcModel {
    /// Bound on the restored iterate's relative error: `2^-keep`.
    pub fn relative_error(&self) -> f64 {
        (-f64::from(self.keep_mantissa_bits.clamp(1, 52))).exp2()
    }

    /// Stored bytes relative to an uncompressed checkpoint:
    /// `(12 + keep) / 64` (sign + exponent + kept mantissa, bit-packed).
    pub fn stored_bytes_fraction(&self) -> f64 {
        (12.0 + f64::from(self.keep_mantissa_bits.clamp(1, 52))) / 64.0
    }

    /// Fits the contraction factor from a fault-free run that reduced the
    /// relative residual from 1 to `final_relres` over `iterations` steps:
    /// `ρ = final_relres^(1/iterations)`.
    pub fn contraction_from_run(final_relres: f64, iterations: usize) -> f64 {
        assert!(final_relres > 0.0 && final_relres < 1.0);
        assert!(iterations > 0);
        final_relres.powf(1.0 / iterations as f64)
    }

    /// Extra iterations one rollback costs *beyond* an exact (CR-D)
    /// rollback to the same checkpoint, given the relative residual the
    /// checkpointed iterate had reached.
    pub fn extra_iterations_per_restore(&self, relres_at_checkpoint: f64) -> f64 {
        assert!(relres_at_checkpoint > 0.0);
        let rho = self.contraction_per_iter;
        assert!(rho > 0.0 && rho < 1.0, "contraction must be in (0,1)");
        let eps = self.relative_error();
        if eps <= relres_at_checkpoint {
            return 0.0;
        }
        (eps / relres_at_checkpoint).ln() / (1.0 / rho).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cr_overhead_has_a_minimum_at_youngs_interval() {
        // d/dI (tc/I + λI/2) = 0 at I = sqrt(2 tc / λ) — Young's formula.
        let tc = 2.0f64;
        let lambda = 1.0f64 / 1000.0;
        let opt = (2.0 * tc / lambda).sqrt();
        let at = |i: f64| {
            CrModel {
                t_c_s: tc,
                interval_s: i,
                p_ckpt_frac: 0.8,
            }
            .overhead_fraction(lambda)
        };
        assert!(at(opt) < at(opt / 2.0));
        assert!(at(opt) < at(opt * 2.0));
    }

    #[test]
    fn cr_total_time_exceeds_base() {
        let m = CrModel {
            t_c_s: 1.0,
            interval_s: 50.0,
            p_ckpt_frac: 0.8,
        };
        let total = m.total_time_s(1000.0, 1e-3).unwrap();
        assert!(total > 1000.0);
        // Checkpoints plus lost work: E_res is at most T_res at full power.
        let e_res = m.e_res_j(1000.0, 1e-3, 1.0).unwrap();
        assert!(e_res > 0.0 && e_res < total - 1000.0, "{e_res} vs {total}");
    }

    #[test]
    fn cr_halts_when_overhead_reaches_unity() {
        let m = CrModel {
            t_c_s: 30.0,
            interval_s: 50.0,
            p_ckpt_frac: 0.8,
        };
        // tc/I = 0.6; λI/2 = 0.5 → 1.1 ≥ 1: no progress.
        assert!(m.total_time_s(1000.0, 0.02).is_none());
    }

    #[test]
    fn cr_average_power_is_below_full() {
        let m = CrModel {
            t_c_s: 5.0,
            interval_s: 50.0,
            p_ckpt_frac: 0.5,
        };
        let p = m.avg_power_frac();
        assert!(p < 1.0 && p > 0.9, "p = {p}");
    }

    #[test]
    fn cr_limits_are_not_nan() {
        // λ = 0 with Young's infinite interval: no lost work, no
        // checkpoint share. t_C = 0 with a zero interval: no checkpoint term.
        let no_faults = CrModel {
            t_c_s: 1.0,
            interval_s: f64::INFINITY,
            p_ckpt_frac: 0.8,
        };
        assert_eq!(no_faults.overhead_fraction(0.0), 0.0);
        assert_eq!(no_faults.e_res_j(10.0, 0.0, 1.0), Some(0.0));
        let free = CrModel {
            t_c_s: 0.0,
            interval_s: 0.0,
            p_ckpt_frac: 0.8,
        };
        assert_eq!(free.overhead_fraction(1e-3), 0.0);
        assert_eq!(free.avg_power_frac(), 1.0);
    }

    #[test]
    fn fw_localized_construction_drops_power() {
        // Ñ = 1 of 24 cores, DVFS-throttled waiters at 0.45·P1.
        let m = FwModel {
            t_const_s: 3.0,
            t_extra_per_fault_s: 10.0,
            active_frac: 1.0 / 24.0,
            p_idle_frac: 0.45,
        };
        let frac = m.construction_power_frac();
        assert!((frac - (1.0 / 24.0 + 23.0 / 24.0 * 0.45)).abs() < 1e-12);
        assert!(frac < 0.5);
    }

    #[test]
    fn fw_time_overhead_grows_with_fault_rate() {
        let m = FwModel {
            t_const_s: 2.0,
            t_extra_per_fault_s: 8.0,
            active_frac: 1.0 / 24.0,
            p_idle_frac: 0.45,
        };
        let lo = m.total_time_s(1000.0, 1e-4).unwrap() - 1000.0;
        let hi = m.total_time_s(1000.0, 1e-3).unwrap() - 1000.0;
        assert!(hi > 5.0 * lo, "lo {lo} hi {hi}");
    }

    #[test]
    fn fw_average_power_sits_between_construction_and_full() {
        let m = FwModel {
            t_const_s: 5.0,
            t_extra_per_fault_s: 5.0,
            active_frac: 1.0 / 24.0,
            p_idle_frac: 0.45,
        };
        let avg = m.avg_power_frac(100.0, 1e-3).unwrap();
        assert!(avg < 1.0);
        assert!(avg > m.construction_power_frac());
    }

    #[test]
    fn lc_penalty_is_monotone_in_compression_error() {
        let rho = LcModel::contraction_from_run(1e-12, 100);
        let penalty = |keep: u8| {
            LcModel {
                keep_mantissa_bits: keep,
                contraction_per_iter: rho,
            }
            .extra_iterations_per_restore(1e-9)
        };
        // Fewer kept bits → larger error → more reconvergence iterations.
        assert!(penalty(4) > penalty(12));
        assert!(penalty(12) > penalty(20));
        // Once the quantization error drops below the checkpointed
        // residual the rollback is effectively exact.
        assert_eq!(penalty(40), 0.0);
    }

    #[test]
    fn lc_stored_bytes_track_the_bit_packing() {
        let m = LcModel {
            keep_mantissa_bits: 20,
            contraction_per_iter: 0.7,
        };
        assert!((m.stored_bytes_fraction() - 0.5).abs() < 1e-12);
        assert!((m.relative_error() - (2.0f64).powi(-20)).abs() < 1e-18);
    }

    #[test]
    fn fw_energy_overhead_accounts_both_phases() {
        let m = FwModel {
            t_const_s: 4.0,
            t_extra_per_fault_s: 6.0,
            active_frac: 1.0 / 24.0,
            p_idle_frac: 0.45,
        };
        let e = m.e_res_j(1000.0, 1e-3, 100.0).unwrap();
        let total = m.total_time_s(1000.0, 1e-3).unwrap();
        // Upper bound: everything at full power.
        assert!(e < total * 1e-3 * 10.0 * 100.0 + 1e-9);
        assert!(e > 0.0);
    }
}
