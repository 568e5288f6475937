//! Mirrors `crates/serve`: the edge's timing and spawning fns carry
//! their own `#[expect]`, and `compute.rs` (whose bytes become `ETag`s)
//! forbids both, so no fn there can opt back out.

pub mod compute;

/// Near-miss: the same code as [`compute::stamped_result`], accepted at
/// the edge.
#[expect(
    clippy::disallowed_methods,
    reason = "fixture: the service's I/O edge times requests and spawns workers"
)]
pub fn edge_timing() -> String {
    let started = std::time::Instant::now();
    let _worker = std::thread::spawn(|| 1 + 1);
    format!("{:?}", started.elapsed())
}
