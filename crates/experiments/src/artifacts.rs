//! Process-wide workload sharing for the experiment harnesses.
//!
//! Every figure/table harness used to regenerate its suite matrices from
//! scratch — `rsls-run --all` built `wathen100` or `crystm02` a dozen
//! times over. This module interns each `(matrix name, scale)` workload
//! the first time it is requested and hands the same [`Workload`]
//! handle to every later caller.
//!
//! A handle is lazy. Its unit specs need only the operator's campaign
//! fingerprint, which it resolves from the in-process memo, then from
//! the active store's recipe memo (`rsls_campaign::ResultCache::
//! load_recipe`), and only then by generating and hashing. It generates
//! the matrix when a unit misses (`Workload::system_for_miss`) or a
//! caller asks for the system itself. So a process whose units all hit
//! never builds an operator.
//!
//! A store's recipe entries are written on the miss path only, when the
//! store computes a unit of that recipe, or to replace an entry that
//! failed verification. A warm pass over a healthy store writes nothing.
//!
//! Entries are never evicted: the suite is small (14 matrices × 2
//! scales) and the immortality of the interned systems is what makes
//! the pointer-identity probe in [`fingerprint_of`] sound. Iteration
//! state is kept in [`std::collections::BTreeMap`]s so nothing here
//! depends on hash order.

// A cache hit must be bitwise the miss that would have built it, so this
// module is held to the library crates' no-panic rule.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use rsls_campaign::{matrix_fingerprint, RecipeLookup, ResultCache};
use rsls_sparse::CsrMatrix;

use crate::{MatrixSpec, Scale, SUITE};

type System = (Arc<CsrMatrix>, Arc<Vec<f64>>);

/// One interned suite workload: its recipe, and — each filled on first
/// need — the generated system and its fingerprint.
#[derive(Debug)]
struct Entry {
    spec: &'static MatrixSpec,
    scale: Scale,
    system: OnceLock<System>,
    /// The fingerprint hashed from `system` in this process.
    hashed: OnceLock<u64>,
    /// The fingerprint read from a store's recipe memo.
    remembered: OnceLock<u64>,
    /// Cache roots whose recipe entry this process has made agree with
    /// `hashed`.
    recorded: Mutex<BTreeSet<PathBuf>>,
}

type Key = (&'static str, &'static str);

static CACHE: OnceLock<Mutex<BTreeMap<Key, Arc<Entry>>>> = OnceLock::new();
static WL_HITS: AtomicU64 = AtomicU64::new(0);
static WL_MISSES: AtomicU64 = AtomicU64::new(0);
static FP_HITS: AtomicU64 = AtomicU64::new(0);
static FP_MISSES: AtomicU64 = AtomicU64::new(0);

fn cache() -> MutexGuard<'static, BTreeMap<Key, Arc<Entry>>> {
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
    /// Workloads generated (matrix + rhs built).
    pub misses: u64,
    /// Fingerprint requests served from the per-workload memo or a
    /// store's recipe memo.
    pub fingerprint_hits: u64,
    /// Fingerprints hashed from a generated operator.
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

/// The [`SUITE`] row named `name`.
///
/// # Panics
/// Panics when `name` is not in [`SUITE`].
fn spec_of(name: &str) -> &'static MatrixSpec {
    #[expect(
        clippy::panic,
        reason = "an unknown workload name is a caller bug, and the campaign engine isolates unit panics"
    )]
    SUITE
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown suite matrix '{name}'"))
}

/// The interned entry of the named suite workload, created (not
/// generated) on first request.
fn interned(name: &str, scale: Scale) -> Arc<Entry> {
    let spec = spec_of(name);
    let mut m = cache();
    if let Some(e) = m.get(&(spec.name, scale.label())) {
        WL_HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(e);
    }
    let e = Arc::new(Entry {
        spec,
        scale,
        system: OnceLock::new(),
        hashed: OnceLock::new(),
        remembered: OnceLock::new(),
        recorded: Mutex::new(BTreeSet::new()),
    });
    m.insert((spec.name, scale.label()), Arc::clone(&e));
    e
}

/// The handle of the named suite workload. Nothing is generated until a
/// unit misses or the caller asks for the system.
///
/// # Panics
/// Panics when `name` is not in [`SUITE`].
pub fn suite(name: &str, scale: Scale) -> Workload<'static> {
    Workload(Source::Suite(interned(name, scale)))
}

/// Fetches (or generates and interns) the named suite workload's
/// system.
///
/// Generation is deterministic, and concurrent first requests build it
/// once.
///
/// # Panics
/// Panics when `name` is not in [`SUITE`].
pub fn workload(name: &str, scale: Scale) -> (Arc<CsrMatrix>, Arc<Vec<f64>>) {
    interned(name, scale).system().clone()
}

/// Generates a fresh, uncached copy of the named suite workload — for
/// callers that must observe generation itself (e.g. the
/// `RSLS_MATRIX_DIR` override) rather than share the interned instance.
///
/// # Panics
/// Panics when `name` is not in [`SUITE`].
pub fn workload_uncached(name: &str, scale: Scale) -> (CsrMatrix, Vec<f64>) {
    let spec = spec_of(name);
    let a = spec.generate(scale);
    let b = spec.rhs(&a);
    (a, b)
}

/// The campaign fingerprint of `(a, b)` *if* the pair is an interned
/// workload's system (pointer identity against the immortal entries),
/// memoized per entry. Returns `None` for foreign data — the caller
/// hashes it directly.
pub fn fingerprint_of(a: &CsrMatrix, b: &[f64]) -> Option<u64> {
    owner_of(a, b).map(|e| e.fingerprint(None))
}

/// The interned entry whose generated system is `(a, b)`.
fn owner_of(a: &CsrMatrix, b: &[f64]) -> Option<Arc<Entry>> {
    cache()
        .values()
        .find(|e| {
            e.system.get().is_some_and(|(ea, eb)| {
                std::ptr::eq(ea.as_ref(), a) && std::ptr::eq(eb.as_slice(), b)
            })
        })
        .cloned()
}

fn hash_system(a: &CsrMatrix, b: &[f64]) -> u64 {
    matrix_fingerprint(
        a.nrows(),
        a.ncols(),
        a.row_ptr(),
        a.col_idx(),
        a.values(),
        b,
    )
}

impl Entry {
    fn system(&self) -> &System {
        self.system.get_or_init(|| {
            WL_MISSES.fetch_add(1, Ordering::Relaxed);
            let a = self.spec.generate(self.scale);
            let b = self.spec.rhs(&a);
            (Arc::new(a), Arc::new(b))
        })
    }

    fn hash(&self) -> u64 {
        *self.hashed.get_or_init(|| {
            FP_MISSES.fetch_add(1, Ordering::Relaxed);
            let (a, b) = self.system();
            hash_system(a, b)
        })
    }

    /// In-process memo (a hash beats a remembered value), then `store`'s
    /// recipe memo, then generate and hash. An entry that fails
    /// verification is rewritten from the hash.
    fn fingerprint(&self, store: Option<&ResultCache>) -> u64 {
        if let Some(&fp) = self.hashed.get().or(self.remembered.get()) {
            FP_HITS.fetch_add(1, Ordering::Relaxed);
            return fp;
        }
        if let (Some(store), Some(recipe)) = (store, self.spec.recipe(self.scale)) {
            match store.load_recipe(&recipe) {
                RecipeLookup::Hit(fp) => {
                    FP_HITS.fetch_add(1, Ordering::Relaxed);
                    return *self.remembered.get_or_init(|| fp);
                }
                RecipeLookup::Corrupt => self.record(store),
                RecipeLookup::Miss => {}
            }
        }
        self.hash()
    }

    /// Makes `store`'s recipe entry hold the hash of the generated
    /// system, once per store and process. An intact entry that
    /// disagrees means a generator changed without a
    /// [`crate::GENERATOR_VERSION`] bump: it is reported and rewritten.
    fn record(&self, store: &ResultCache) {
        let Some(recipe) = self.spec.recipe(self.scale) else {
            return;
        };
        let mut recorded = self.recorded.lock().unwrap_or_else(PoisonError::into_inner);
        if recorded.contains(store.dir()) {
            return;
        }
        let fp = self.hash();
        let found = store.load_recipe(&recipe);
        if found != RecipeLookup::Hit(fp) {
            if let RecipeLookup::Hit(memo) = found {
                eprintln!(
                    "recipe memo: {} at {} scale was remembered as {memo:016x} but generates \
                     {fp:016x}; bump GENERATOR_VERSION. Rewriting {}",
                    self.spec.name,
                    self.scale.label(),
                    store.recipe_path(&recipe).display()
                );
            }
            if let Err(e) = store.store_recipe(&recipe, fp) {
                eprintln!("recipe memo: cannot write {}: {e}", store.dir().display());
                return;
            }
        }
        recorded.insert(store.dir().to_path_buf());
    }
}

/// A system the campaign runs units on: an interned suite workload,
/// generated on first need, or a caller-owned `(A, b)` pair.
#[derive(Clone, Debug)]
pub struct Workload<'a>(Source<'a>);

#[derive(Clone, Debug)]
enum Source<'a> {
    Suite(Arc<Entry>),
    Borrowed(&'a CsrMatrix, &'a [f64]),
}

impl<'a> Workload<'a> {
    /// A caller-owned system. A pair that is an interned workload's
    /// system is that workload; any other is hashed directly.
    pub fn borrowed(a: &'a CsrMatrix, b: &'a [f64]) -> Self {
        Workload(match owner_of(a, b) {
            Some(entry) => Source::Suite(entry),
            None => Source::Borrowed(a, b),
        })
    }

    /// The operator and right-hand side, generating a suite workload on
    /// first call.
    pub fn system(&self) -> (&CsrMatrix, &[f64]) {
        match &self.0 {
            Source::Suite(entry) => {
                let (a, b) = entry.system();
                (a, b)
            }
            Source::Borrowed(a, b) => (a, b),
        }
    }

    /// The system, for a unit that missed in `store`: a suite workload
    /// also records its recipe's fingerprint there.
    pub(crate) fn system_for_miss(&self, store: Option<&ResultCache>) -> (&CsrMatrix, &[f64]) {
        if let (Source::Suite(entry), Some(store)) = (&self.0, store) {
            entry.record(store);
        }
        self.system()
    }

    /// The campaign fingerprint of the system: a suite workload resolves
    /// it from the in-process memo, then `store`'s recipe memo, then by
    /// generating and hashing; a foreign pair is hashed.
    pub(crate) fn fingerprint(&self, store: Option<&ResultCache>) -> u64 {
        match &self.0 {
            Source::Suite(entry) => entry.fingerprint(store),
            Source::Borrowed(a, b) => hash_system(a, b),
        }
    }

    /// Whether both handles name the same system.
    pub(crate) fn same_as(&self, other: &Workload<'_>) -> bool {
        match (&self.0, &other.0) {
            (Source::Suite(x), Source::Suite(y)) => Arc::ptr_eq(x, y),
            (Source::Borrowed(a, b), Source::Borrowed(c, d)) => {
                std::ptr::eq(*a, *c) && std::ptr::eq(*b, *d)
            }
            _ => false,
        }
    }
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
        // A handle to it is the same system.
        let handle = suite("wathen100", Scale::Quick);
        let (a3, b3) = handle.system();
        assert!(std::ptr::eq(a1.as_ref(), a3) && std::ptr::eq(b1.as_slice(), b3));
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
        assert_eq!(fp1, hash_system(&a, &b));
        // A fresh copy is bit-identical but not the interned instance.
        let (ua, ub) = workload_uncached("ex15", Scale::Quick);
        assert!(fingerprint_of(&ua, &ub).is_none());
        // As handles: the borrowed interned pair is the suite workload;
        // the copy is foreign and hashes to the same value.
        let interned = Workload::borrowed(&a, &b);
        assert!(interned.same_as(&suite("ex15", Scale::Quick)));
        let foreign = Workload::borrowed(&ua, &ub);
        assert!(!foreign.same_as(&interned));
        assert_eq!(foreign.fingerprint(None), fp1);
    }
}
