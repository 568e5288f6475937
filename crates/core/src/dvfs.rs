//! DVFS policy during forward-recovery reconstruction (§4.2).

use serde::{Deserialize, Serialize};

use rsls_power::{CoreState, FreqTable, Governor, PowerModel, PowerModelConfig};

/// Frequency policy applied to the *non-reconstructing* cores while one
/// core rebuilds the lost data.
///
/// The reconstructing core always runs at the highest frequency, so the
/// optimization never slows the critical path — the paper's "without
/// performance degradation" property holds by construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DvfsPolicy {
    /// OS default: the `ondemand` governor sees the busy-wait cores as
    /// fully utilized (they spin in the MPI progress engine) and keeps
    /// them at the highest frequency. This is the paper's "LI" baseline,
    /// where the node draws ~0.75× of compute power during construction.
    OsDefault,
    /// The paper's optimization (LI-DVFS / LSI-DVFS): pin the waiting
    /// cores to the lowest frequency with the `userspace` governor; the
    /// node drops to ~0.45× of compute power during construction.
    ThrottleWaiters,
}

impl DvfsPolicy {
    /// Frequency of the waiting (non-reconstructing) cores.
    pub fn waiter_frequency(&self, table: &FreqTable) -> f64 {
        match self {
            // Busy-wait looks like 100% utilization to ondemand.
            DvfsPolicy::OsDefault => Governor::ondemand_default().frequency_for(table, 1.0),
            DvfsPolicy::ThrottleWaiters => Governor::Userspace {
                freq_ghz: table.min(),
            }
            .frequency_for(table, 0.0),
        }
    }

    /// Frequency of the reconstructing core — always the maximum.
    pub fn reconstructor_frequency(&self, table: &FreqTable) -> f64 {
        table.max()
    }

    /// Label suffix for scheme names ("-DVFS" when throttling).
    pub fn label_suffix(&self) -> &'static str {
        match self {
            DvfsPolicy::OsDefault => "",
            DvfsPolicy::ThrottleWaiters => "-DVFS",
        }
    }

    /// Power of the two phases the driver meters in a non-compute core
    /// state, relative to a core computing at the run frequency `f_run`
    /// (GHz, a level of `power`'s ladder): what the checkpoint-interval
    /// resolution and the analytical models charge for them.
    pub fn phase_power(&self, power: &PowerModelConfig, f_run: f64) -> PhasePower {
        let model = PowerModel::new(power.clone());
        let compute = model.core_power(CoreState::Compute, f_run);
        let f_wait = self.waiter_frequency(model.freq_table()).min(f_run);
        PhasePower {
            checkpoint: (model.core_power(CoreState::StorageWait, f_run) / compute).min(1.0),
            waiter: model.core_power(CoreState::BusyWait, f_wait) / compute,
        }
    }
}

/// Phase power relative to one computing core ([`DvfsPolicy::phase_power`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhasePower {
    /// A checkpoint or restore phase: every core in `StorageWait`.
    pub checkpoint: f64,
    /// One core waiting out a reconstruction: `BusyWait` at the policy's
    /// waiter frequency.
    pub waiter: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_default_keeps_waiters_at_max() {
        let t = FreqTable::default();
        assert_eq!(DvfsPolicy::OsDefault.waiter_frequency(&t), t.max());
    }

    #[test]
    fn throttle_drops_waiters_to_min() {
        let t = FreqTable::default();
        assert_eq!(DvfsPolicy::ThrottleWaiters.waiter_frequency(&t), t.min());
    }

    #[test]
    fn reconstructor_always_runs_flat_out() {
        let t = FreqTable::default();
        for p in [DvfsPolicy::OsDefault, DvfsPolicy::ThrottleWaiters] {
            assert_eq!(p.reconstructor_frequency(&t), t.max());
        }
    }

    #[test]
    fn phase_power_follows_the_calibration() {
        let power = PowerModelConfig::default();
        let fmax = power.freq_table.max();
        let plain = DvfsPolicy::OsDefault.phase_power(&power, fmax);
        let dvfs = DvfsPolicy::ThrottleWaiters.phase_power(&power, fmax);
        assert!((plain.checkpoint - power.storage_wait_frac).abs() < 1e-12);
        assert_eq!(dvfs.checkpoint, plain.checkpoint);
        assert!((plain.waiter - 0.739).abs() < 1e-12, "{plain:?}");
        assert!(dvfs.waiter < 0.44, "{dvfs:?}");
    }

    #[test]
    fn labels() {
        assert_eq!(DvfsPolicy::OsDefault.label_suffix(), "");
        assert_eq!(DvfsPolicy::ThrottleWaiters.label_suffix(), "-DVFS");
    }
}
