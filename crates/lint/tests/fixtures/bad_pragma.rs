//! Fixture, analyzed as `crates/campaign/src/lib.rs`: malformed pragmas
//! are themselves violations (lines 8, 13, 17), and a pragma with an
//! unknown rule does NOT suppress anything, so the unregistered read on
//! line 9 still fires (4 total).

/// Carries a typo'd pragma.
pub fn f() -> usize {
    // rsls-lint: allow(unguarded-ioo) -- typo'd rule name is an error
    std::fs::read("x").map_or(0, |b| b.len())
}

/// The pragma above this item lacks `-- <reason>`.
// rsls-lint: allow(unguarded-io)
pub fn g() {}

/// The pragma above this item uses an unknown verb.
// rsls-lint: deny(unguarded-io) -- only allow() exists
pub fn h() {}
