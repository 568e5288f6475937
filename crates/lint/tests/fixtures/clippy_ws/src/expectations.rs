//! Every finding here carries a reasoned `#[expect]`, so nothing is
//! reported. An expectation that stopped firing would be reported as
//! unfulfilled, so these cannot rot.

use std::collections::BTreeMap;

/// Unwraps with a stated justification.
pub fn justified(v: Option<u32>) -> u32 {
    #[expect(clippy::unwrap_used, reason = "fixture: statement-level expectation")]
    let x = v.unwrap();
    x
}

/// A function-level expectation covering two lints.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "fixture: one expectation, two lints"
)]
pub fn timed(xs: &[u32]) -> usize {
    let started = std::time::Instant::now();
    let distinct: std::collections::HashSet<&u32> = xs.iter().collect();
    distinct.len() + usize::from(started.elapsed().is_zero())
}

/// Near-miss: the ordered map needs no expectation.
pub fn ordered() -> BTreeMap<u32, u32> {
    BTreeMap::new()
}
