#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]
//! R6 at a deterministic root: `forbid` cannot be reopened below it.

/// Fails to compile: an inner `#[expect]` under `forbid` is error E0453,
/// so no fn of a root crate can read a clock, however it is justified.
#[expect(clippy::disallowed_methods, reason = "fixture: rejected")] // line 7
pub fn stamped() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}
