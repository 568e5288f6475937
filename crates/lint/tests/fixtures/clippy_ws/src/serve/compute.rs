//! The service's deterministic compute path, held to the numeric
//! crates' rules again.

#![deny(clippy::disallowed_methods)]

/// Stamps the result with the current time: nondeterministic bytes
/// would change the `ETag` on every request.
pub fn stamped_result() -> String {
    let started = std::time::Instant::now(); // line 9
    let _worker = std::thread::spawn(|| 1 + 1); // line 10
    format!("{:?}", started.elapsed()) // line 11
}
