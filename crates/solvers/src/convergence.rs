//! Residual histories.

use serde::{Deserialize, Serialize};

/// A marker attached to a residual-history sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HistoryMark {
    /// Plain iteration.
    Iteration,
    /// A fault was injected before this iteration.
    Fault,
    /// A recovery action completed before this iteration.
    Recovery,
}

/// Relative-residual history of a solve, with fault/recovery markers —
/// the data behind the paper's Figure 6 plots.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResidualHistory {
    samples: Vec<(usize, f64, HistoryMark)>,
}

impl ResidualHistory {
    /// An empty history.
    pub fn new() -> Self {
        ResidualHistory::default()
    }

    /// Records the residual after `iteration`.
    pub fn push(&mut self, iteration: usize, relres: f64) {
        self.samples
            .push((iteration, relres, HistoryMark::Iteration));
    }

    /// Records a fault marker.
    pub fn mark_fault(&mut self, iteration: usize, relres: f64) {
        self.samples.push((iteration, relres, HistoryMark::Fault));
    }

    /// Records a recovery marker.
    pub fn mark_recovery(&mut self, iteration: usize, relres: f64) {
        self.samples
            .push((iteration, relres, HistoryMark::Recovery));
    }

    /// All samples `(iteration, relative residual, mark)`.
    pub fn samples(&self) -> &[(usize, f64, HistoryMark)] {
        &self.samples
    }

    /// Iterations at which faults were injected.
    pub fn fault_iterations(&self) -> Vec<usize> {
        self.samples
            .iter()
            .filter(|(_, _, m)| *m == HistoryMark::Fault)
            .map(|(i, _, _)| *i)
            .collect()
    }

    /// The largest residual *increase* across a fault marker — how much a
    /// fault set convergence back.
    pub fn worst_fault_jump(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for w in self.samples.windows(2) {
            if w[1].2 == HistoryMark::Fault || w[1].2 == HistoryMark::Recovery {
                worst = worst.max(w[1].1 / w[0].1.max(f64::MIN_POSITIVE));
            }
        }
        worst
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_records_in_order() {
        let mut h = ResidualHistory::new();
        h.push(0, 1.0);
        h.push(1, 0.5);
        h.mark_fault(2, 3.0);
        h.push(2, 3.0);
        assert_eq!(h.len(), 4);
        assert_eq!(h.fault_iterations(), vec![2]);
    }

    #[test]
    fn worst_fault_jump_detects_residual_spike() {
        let mut h = ResidualHistory::new();
        h.push(0, 1e-6);
        h.mark_fault(1, 1e-2);
        assert!((h.worst_fault_jump() - 1e4).abs() / 1e4 < 1e-9);
    }

    #[test]
    fn empty_history_has_zero_jump() {
        let h = ResidualHistory::new();
        assert_eq!(h.worst_fault_jump(), 0.0);
        assert!(h.is_empty());
    }
}
