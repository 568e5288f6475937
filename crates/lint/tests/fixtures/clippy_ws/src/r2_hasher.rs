//! R2 default-hasher: a randomized-order collection fires wherever it
//! is named.

use std::collections::{BTreeMap, HashMap}; // line 4: `HashMap`

/// Per-name counters.
pub struct State {
    /// Fires: iteration order would leak into anything serialized.
    pub counts: HashMap<String, u64>, // line 9: `HashMap`
    /// Near-miss: ordered maps are fine.
    pub ordered: BTreeMap<String, u64>,
}
