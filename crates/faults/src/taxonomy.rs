//! Fault classification (paper §2.1).

use serde::{Deserialize, Serialize};

/// Soft vs hard faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultCategory {
    /// Erroneous deviation without interruption (bit flips, silent errors).
    Soft,
    /// Crash of a process, node, or the system.
    Hard,
}

/// The six fault classes the paper studies (§2.1, Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// Detected and Corrected Error (soft).
    Dce,
    /// Detected but Uncorrected Error (soft).
    Due,
    /// Silent Data Corruption (soft).
    Sdc,
    /// System-Wide Outage (hard).
    Swo,
    /// Single Node Failure (hard).
    Snf,
    /// Link and Node Failure (hard).
    Lnf,
}

impl FaultClass {
    /// All classes, in the paper's presentation order.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::Dce,
        FaultClass::Due,
        FaultClass::Sdc,
        FaultClass::Swo,
        FaultClass::Snf,
        FaultClass::Lnf,
    ];

    /// Whether the class is soft or hard.
    pub fn category(self) -> FaultCategory {
        match self {
            FaultClass::Dce | FaultClass::Due | FaultClass::Sdc => FaultCategory::Soft,
            FaultClass::Swo | FaultClass::Snf | FaultClass::Lnf => FaultCategory::Hard,
        }
    }

    /// Display abbreviation used in the paper.
    pub fn abbrev(self) -> &'static str {
        match self {
            FaultClass::Dce => "DCE",
            FaultClass::Due => "DUE",
            FaultClass::Sdc => "SDC",
            FaultClass::Swo => "SWO",
            FaultClass::Snf => "SNF",
            FaultClass::Lnf => "LNF",
        }
    }

    /// Whether recovery requires replacing lost *data* (hard faults and
    /// DUE/SDC) as opposed to being transparently corrected (DCE).
    pub fn needs_recovery(self) -> bool {
        !matches!(self, FaultClass::Dce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_split_three_three() {
        let soft = FaultClass::ALL
            .iter()
            .filter(|c| c.category() == FaultCategory::Soft)
            .count();
        assert_eq!(soft, 3);
    }

    #[test]
    fn only_dce_needs_no_recovery() {
        let no_recovery: Vec<_> = FaultClass::ALL
            .iter()
            .filter(|c| !c.needs_recovery())
            .collect();
        assert_eq!(no_recovery, vec![&FaultClass::Dce]);
    }

    #[test]
    fn abbreviations_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for c in FaultClass::ALL {
            assert!(seen.insert(c.abbrev()));
        }
    }
}
