//! Process-wide workload sharing for the experiment harnesses.
//!
//! Every figure/table harness used to regenerate its suite matrices from
//! scratch — `rsls-run --all` built `wathen100` or `crystm02` a dozen
//! times over. This module interns each `(matrix name, scale)` workload
//! behind an [`Arc`] the first time it is requested and hands the same
//! instance to every later caller, and memoizes the (O(nnz)) campaign
//! fingerprint of each interned workload so unit-spec construction stops
//! re-hashing the operator for every scheme in a line-up.
//!
//! Entries are never evicted: the suite is small (14 matrices × 2
//! scales) and the immortality of the interned [`Arc`]s is what makes
//! the pointer-identity fingerprint probe in [`fingerprint_of`] sound.
//! Iteration state is kept in [`std::collections::BTreeMap`]s so nothing
//! here depends on hash order.

// A cache hit must be bitwise the miss that would have built it, so this
// module is held to the library crates' no-panic rule.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use rsls_campaign::matrix_fingerprint;
use rsls_sparse::CsrMatrix;

use crate::{Scale, SUITE};

/// One interned workload plus its lazily computed campaign fingerprint.
#[derive(Clone)]
struct Entry {
    a: Arc<CsrMatrix>,
    b: Arc<Vec<f64>>,
    fingerprint: Arc<OnceLock<u64>>,
}

type Key = (String, &'static str);

static CACHE: OnceLock<Mutex<BTreeMap<Key, Entry>>> = OnceLock::new();
static WL_HITS: AtomicU64 = AtomicU64::new(0);
static WL_MISSES: AtomicU64 = AtomicU64::new(0);
static FP_HITS: AtomicU64 = AtomicU64::new(0);
static FP_MISSES: AtomicU64 = AtomicU64::new(0);

fn cache() -> MutexGuard<'static, BTreeMap<Key, Entry>> {
    CACHE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Cumulative workload-cache counters (for `/metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Workload requests served from the interned map.
    pub hits: u64,
    /// Workload requests that generated the matrix + rhs.
    pub misses: u64,
    /// Fingerprint requests served from the per-entry memo.
    pub fingerprint_hits: u64,
    /// Fingerprint requests that hashed the operator.
    pub fingerprint_misses: u64,
    /// Interned workloads currently held.
    pub entries: u64,
}

/// Current counter snapshot.
pub fn stats() -> WorkloadStats {
    WorkloadStats {
        hits: WL_HITS.load(Ordering::Relaxed),
        misses: WL_MISSES.load(Ordering::Relaxed),
        fingerprint_hits: FP_HITS.load(Ordering::Relaxed),
        fingerprint_misses: FP_MISSES.load(Ordering::Relaxed),
        entries: cache().len() as u64,
    }
}

/// Fetches (or generates and interns) the named suite workload.
///
/// Generation is deterministic, so a racing miss at worst builds the
/// same workload twice and keeps the first insert.
///
/// # Panics
/// Panics when `name` is not in [`SUITE`].
pub fn workload(name: &str, scale: Scale) -> (Arc<CsrMatrix>, Arc<Vec<f64>>) {
    let key = (name.to_string(), scale.label());
    if let Some(e) = cache().get(&key) {
        WL_HITS.fetch_add(1, Ordering::Relaxed);
        return (Arc::clone(&e.a), Arc::clone(&e.b));
    }
    WL_MISSES.fetch_add(1, Ordering::Relaxed);
    let (a, b) = generate(name, scale);
    let made = Entry {
        a: Arc::new(a),
        b: Arc::new(b),
        fingerprint: Arc::new(OnceLock::new()),
    };
    let mut m = cache();
    let e = m.entry(key).or_insert(made);
    (Arc::clone(&e.a), Arc::clone(&e.b))
}

/// Generates a fresh, uncached copy of the named suite workload — for
/// callers that must observe generation itself (e.g. the
/// `RSLS_MATRIX_DIR` override) rather than share the interned instance.
pub fn workload_uncached(name: &str, scale: Scale) -> (CsrMatrix, Vec<f64>) {
    generate(name, scale)
}

fn generate(name: &str, scale: Scale) -> (CsrMatrix, Vec<f64>) {
    #[expect(
        clippy::panic,
        reason = "an unknown workload name is a caller bug, and the campaign engine isolates unit panics"
    )]
    let spec = SUITE
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown suite matrix '{name}'"));
    let a = spec.generate(scale);
    let b = spec.rhs(&a);
    (a, b)
}

/// The campaign fingerprint of `(a, b)` *if* the pair is an interned
/// workload (pointer identity against the immortal cache entries),
/// memoized per entry. Returns `None` for foreign data — the caller
/// hashes it directly.
pub fn fingerprint_of(a: &CsrMatrix, b: &[f64]) -> Option<u64> {
    let entry = cache()
        .values()
        .find(|e| std::ptr::eq(e.a.as_ref(), a) && std::ptr::eq(e.b.as_slice(), b))
        .cloned()?;
    if let Some(fp) = entry.fingerprint.get() {
        FP_HITS.fetch_add(1, Ordering::Relaxed);
        return Some(*fp);
    }
    FP_MISSES.fetch_add(1, Ordering::Relaxed);
    let fp = entry.fingerprint.get_or_init(|| {
        matrix_fingerprint(
            a.nrows(),
            a.ncols(),
            a.row_ptr(),
            a.col_idx(),
            a.values(),
            b,
        )
    });
    Some(*fp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_interned_and_shared() {
        let (a1, b1) = workload("wathen100", Scale::Quick);
        let (a2, b2) = workload("wathen100", Scale::Quick);
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(Arc::ptr_eq(&b1, &b2));
        let s = stats();
        assert!(s.hits >= 1);
        assert!(s.misses >= 1);
    }

    #[test]
    fn interned_matches_uncached_generation() {
        let (a, b) = workload("bcsstk16", Scale::Quick);
        let (ua, ub) = workload_uncached("bcsstk16", Scale::Quick);
        assert_eq!(*a, ua);
        assert_eq!(*b, ub);
    }

    #[test]
    fn fingerprint_memoizes_for_interned_pairs_only() {
        let (a, b) = workload("ex15", Scale::Quick);
        let fp1 = fingerprint_of(&a, &b).expect("interned pair must fingerprint");
        let fp2 = fingerprint_of(&a, &b).expect("interned pair must fingerprint");
        assert_eq!(fp1, fp2);
        assert_eq!(
            fp1,
            matrix_fingerprint(
                a.nrows(),
                a.ncols(),
                a.row_ptr(),
                a.col_idx(),
                a.values(),
                &b
            )
        );
        // A fresh copy is bit-identical but not the interned instance.
        let (ua, ub) = workload_uncached("ex15", Scale::Quick);
        assert!(fingerprint_of(&ua, &ub).is_none());
    }
}
