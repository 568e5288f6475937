//! Experiment scale selection.

/// How large the generated workloads are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Shrunk matrices (seconds-to-minutes per experiment). Conditioning
    /// and structure are preserved, so normalized results keep their
    /// shape; absolute iteration counts are smaller than Table 3.
    Quick,
    /// Paper-sized matrices (Table 3 dimensions). Slow — hours for the
    /// full suite.
    Full,
}

impl Scale {
    /// Reads `RSLS_SCALE` from the environment (`quick` default, `full`
    /// for paper-sized runs).
    pub fn from_env() -> Scale {
        match std::env::var("RSLS_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Default rank count standing in for the paper's 256-process runs.
    /// Quick scale uses 64 so per-rank blocks stay small relative to the
    /// matrices (the paper's forward-recovery costs assume thin blocks).
    pub fn default_ranks(&self) -> usize {
        match self {
            Scale::Quick => 64,
            Scale::Full => 256,
        }
    }

    /// Rank count standing in for the paper's single 24-core node.
    pub fn node_ranks(&self) -> usize {
        24
    }

    /// Canonical label, as recorded in campaign unit specs.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_the_default() {
        assert_eq!(Scale::Quick.default_ranks(), 64);
        assert_eq!(Scale::Full.default_ranks(), 256);
        assert_eq!(Scale::Quick.node_ranks(), 24);
    }
}
