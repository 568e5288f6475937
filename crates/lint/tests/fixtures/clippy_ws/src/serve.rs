//! Mirrors `crates/serve`: the crate is I/O edge, so its `lib.rs`
//! allows clock reads and threads, and `compute.rs` (whose bytes become
//! `ETag`s) opts back in.

#![allow(
    clippy::disallowed_methods,
    reason = "fixture: the service's I/O edge times requests and spawns workers"
)]

pub mod compute;

/// Near-miss: the same code as [`compute::stamped_result`], allowed at
/// the edge.
pub fn edge_timing() -> String {
    let started = std::time::Instant::now();
    let _worker = std::thread::spawn(|| 1 + 1);
    format!("{:?}", started.elapsed())
}
