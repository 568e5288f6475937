//! R3 unordered-parallel, spawn half: ad-hoc threads fire in both
//! spellings. The reduction half cannot be written at all: the vendored
//! rayon's parallel iterators have no `sum` (see its doctests).

use std::thread;

/// Fires: a free `spawn`.
pub fn ad_hoc_thread() -> bool {
    let handle = thread::spawn(|| 1 + 1); // line 9
    handle.join().is_ok()
}

/// Fires: the builder form.
pub fn named_thread() -> bool {
    thread::Builder::new()
        .name("worker".into())
        .spawn(|| 1 + 1) // line 17
        .is_ok_and(|h| h.join().is_ok())
}

/// Near-miss: scoped workers joined in index order (the vendored
/// rayon's own pool) are allowed.
pub fn scoped(xs: &mut [f64]) {
    thread::scope(|s| {
        for x in xs.iter_mut() {
            s.spawn(move || *x *= 2.0);
        }
    });
}

/// Near-miss: a sequential reduction.
pub fn sequential_sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}
