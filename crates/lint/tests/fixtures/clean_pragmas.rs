//! Fixture, analyzed as `crates/serve/src/compute.rs` (a deterministic
//! root in an I/O-scoped crate): every R6/R7 finding carries a valid
//! pragma, so nothing is reported. With the pragmas gone, lines 13, 17,
//! 23, 25 and 30 fire.

/// Reads the clock: the taint seed every chain here ends at.
fn stamp() -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64
}

/// Same-line suppression.
pub fn slurp() -> usize {
    std::fs::read("a").map_or(0, |b| b.len()) // rsls-lint: allow(unguarded-io) -- fixture demonstrates same-line suppression
}

/// Line-above suppression cuts the call edge.
pub fn timed() -> u64 {
    // rsls-lint: allow(transitive-nondet) -- fixture demonstrates line-above suppression
    stamp()
}

/// A multi-rule pragma covering the line below.
pub fn both() -> u64 {
    // rsls-lint: allow(transitive-nondet, unguarded-io) -- fixture demonstrates a multi-rule pragma
    stamp() + std::fs::read("b").map_or(0, |b| b.len()) as u64
}

/// Justified at the root itself.
// rsls-lint: allow(transitive-nondet) -- fixture demonstrates root-level suppression
pub fn justified() -> u64 {
    stamp()
}
