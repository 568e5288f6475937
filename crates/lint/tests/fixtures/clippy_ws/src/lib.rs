#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
//! The rustc/clippy half of the determinism rules, one module per rule,
//! each with its near-misses. The attributes above are the ones every
//! library crate's `lib.rs` carries.

pub mod expectations;
pub mod r1_wall_clock;
pub mod r2_alias;
pub mod r2_hasher;
pub mod r3_parallel;
pub mod r4_unwrap;
pub mod r5_docs;
pub mod serve;
pub mod test_exempt;
