//! Content-keyed in-memory cache for derived matrix artifacts.
//!
//! A campaign run executes hundreds of units against a handful of
//! matrices, and every fault event re-extracts the same diagonal
//! blocks, row panels, and Gram matrices from the same immutable
//! operator. This module memoizes those extractions behind a
//! process-global cache keyed by *content* — a [`MatrixKey`] derived
//! from the matrix's dimensions and stored bytes — plus the block
//! ranges, handing out `Arc`s so callers share one materialization.
//!
//! Determinism: the cache only changes *when* an artifact is computed,
//! never *what* is computed — a hit returns a value bit-identical to
//! what the miss path would have built, because the underlying
//! extractions are pure functions of matrix content, and the key is
//! content-derived. All maps are `BTreeMap`s, so no iteration order
//! anywhere depends on a randomized hasher.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::dense::DenseMatrix;
use crate::sell::SellMatrix;
use crate::CsrMatrix;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Entry cap per artifact map; reaching it clears that map (a
/// deterministic, content-independent policy) before inserting.
const MAX_ENTRIES: usize = 4096;

/// Content identity of a matrix: dimensions, stored-entry count, and an
/// FNV-1a hash folded over the CSR arrays (structure and value bits).
///
/// Two matrices with equal content always produce equal keys, so keying
/// a cache by `MatrixKey` is sound regardless of where the matrix lives
/// in memory; the explicit dimension fields disambiguate the unlikely
/// 64-bit hash collision between differently-shaped matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MatrixKey {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    hash: u64,
}

impl MatrixKey {
    /// Computes the key for a matrix. `O(nnz)` word-level hashing —
    /// call it once per matrix and reuse the `Copy` key.
    pub fn of(a: &CsrMatrix) -> MatrixKey {
        let mut h = FNV_OFFSET;
        h = fnv_word(h, a.nrows() as u64);
        h = fnv_word(h, a.ncols() as u64);
        for &p in a.row_ptr() {
            h = fnv_word(h, p as u64);
        }
        for &c in a.col_idx() {
            h = fnv_word(h, c as u64);
        }
        for &v in a.values() {
            h = fnv_word(h, v.to_bits());
        }
        MatrixKey {
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz: a.nnz(),
            hash: h,
        }
    }
}

/// One FNV-1a step absorbing a 64-bit word.
fn fnv_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// `(matrix, rows.start, rows.end, cols.start, cols.end)` — identity of
/// one block extraction.
type BlockKey = (MatrixKey, usize, usize, usize, usize);

/// `(matrix, rows.start, rows.end)` — identity of one row-range artifact.
type RowKey = (MatrixKey, usize, usize);

/// `(matrix, C, σ)` — identity of one SELL-C-σ conversion.
type SellKey = (MatrixKey, usize, usize);

/// Hit/miss/occupancy counters, snapshot via [`ArtifactCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to materialize the artifact.
    pub misses: u64,
    /// Artifacts currently resident across all maps.
    pub entries: usize,
}

impl ArtifactStats {
    /// Hit fraction in `[0, 1]`; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cached support panel: the extracted rows plus their column support.
type SupportPanel = Arc<(CsrMatrix, Vec<usize>)>;

/// Process-global memo for block extractions and derived panels.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    sparse_blocks: Mutex<BTreeMap<BlockKey, Arc<CsrMatrix>>>,
    dense_blocks: Mutex<BTreeMap<BlockKey, Arc<DenseMatrix>>>,
    row_panels: Mutex<BTreeMap<RowKey, Arc<CsrMatrix>>>,
    grams: Mutex<BTreeMap<RowKey, Arc<DenseMatrix>>>,
    support_panels: Mutex<BTreeMap<RowKey, SupportPanel>>,
    sells: Mutex<BTreeMap<SellKey, Arc<SellMatrix>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        ArtifactCache::default()
    }

    /// Drops every resident artifact and zeroes the counters.
    pub fn clear(&self) {
        lock(&self.sparse_blocks).clear();
        lock(&self.dense_blocks).clear();
        lock(&self.row_panels).clear();
        lock(&self.grams).clear();
        lock(&self.support_panels).clear();
        lock(&self.sells).clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ArtifactStats {
        ArtifactStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: lock(&self.sparse_blocks).len()
                + lock(&self.dense_blocks).len()
                + lock(&self.row_panels).len()
                + lock(&self.grams).len()
                + lock(&self.support_panels).len()
                + lock(&self.sells).len(),
        }
    }

    /// Memoized [`CsrMatrix::sparse_block`].
    pub fn sparse_block(
        &self,
        key: MatrixKey,
        a: &CsrMatrix,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> Arc<CsrMatrix> {
        let id = (key, rows.start, rows.end, cols.start, cols.end);
        self.memo(&self.sparse_blocks, id, || a.sparse_block(rows, cols))
    }

    /// Memoized [`CsrMatrix::dense_block`].
    pub fn dense_block(
        &self,
        key: MatrixKey,
        a: &CsrMatrix,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> Arc<DenseMatrix> {
        let id = (key, rows.start, rows.end, cols.start, cols.end);
        self.memo(&self.dense_blocks, id, || a.dense_block(rows, cols))
    }

    /// Memoized [`CsrMatrix::row_panel`].
    pub fn row_panel(&self, key: MatrixKey, a: &CsrMatrix, rows: Range<usize>) -> Arc<CsrMatrix> {
        let id = (key, rows.start, rows.end);
        self.memo(&self.row_panels, id, || a.row_panel(rows))
    }

    /// Memoized Gram matrix of the row panel `A[rows, :]`; `build` runs
    /// only on a miss and must be a pure function of `(key, rows)`.
    pub fn gram(
        &self,
        key: MatrixKey,
        rows: Range<usize>,
        build: impl FnOnce() -> DenseMatrix,
    ) -> Arc<DenseMatrix> {
        self.memo(&self.grams, (key, rows.start, rows.end), build)
    }

    /// Memoized compressed tall panel plus its support-row indices;
    /// `build` runs only on a miss and must be a pure function of
    /// `(key, rows)`.
    pub fn support_panel(
        &self,
        key: MatrixKey,
        rows: Range<usize>,
        build: impl FnOnce() -> (CsrMatrix, Vec<usize>),
    ) -> Arc<(CsrMatrix, Vec<usize>)> {
        self.memo(&self.support_panels, (key, rows.start, rows.end), build)
    }

    /// Memoized [`SellMatrix::from_csr_with`] conversion: every solver
    /// workspace and campaign unit reusing one operator shares a single
    /// SELL materialization, like `row_panel` shares panel extractions.
    pub fn sell(&self, key: MatrixKey, a: &CsrMatrix, c: usize, sigma: usize) -> Arc<SellMatrix> {
        self.memo(&self.sells, (key, c, sigma), || {
            crate::sell::CONVERSIONS.fetch_add(1, Ordering::Relaxed);
            SellMatrix::from_csr_with(a, c, sigma)
        })
    }

    /// Shared lookup-or-build path. The builder runs outside the lock,
    /// so a racing miss may build twice; both builds are bit-identical
    /// (pure content-derived artifacts) and the first insert wins.
    fn memo<K: Ord + Copy, V>(
        &self,
        map: &Mutex<BTreeMap<K, Arc<V>>>,
        key: K,
        build: impl FnOnce() -> V,
    ) -> Arc<V> {
        if let Some(hit) = lock(map).get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let made = Arc::new(build());
        let mut m = lock(map);
        if m.len() >= MAX_ENTRIES {
            m.clear();
        }
        m.entry(key).or_insert(made).clone()
    }
}

/// Recovers the guard from a poisoned lock: every critical section here
/// is a pure map operation, so a panic elsewhere cannot leave the map
/// logically inconsistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-global artifact cache.
pub fn global() -> &'static ArtifactCache {
    static CACHE: OnceLock<ArtifactCache> = OnceLock::new();
    CACHE.get_or_init(ArtifactCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn sample() -> CsrMatrix {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 2.0 + i as f64).unwrap();
        }
        coo.push_sym(0, 1, -1.0).unwrap();
        coo.push_sym(2, 3, -0.5).unwrap();
        coo.to_csr()
    }

    #[test]
    fn key_is_content_derived_not_address_derived() {
        let a = sample();
        let b = sample();
        assert_eq!(MatrixKey::of(&a), MatrixKey::of(&b));
        let c = CsrMatrix::identity(4);
        assert_ne!(MatrixKey::of(&a), MatrixKey::of(&c));
    }

    #[test]
    fn key_distinguishes_value_changes() {
        let a = sample();
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 2.0 + i as f64).unwrap();
        }
        coo.push_sym(0, 1, -1.0).unwrap();
        coo.push_sym(2, 3, -0.25).unwrap();
        let b = coo.to_csr();
        assert_ne!(MatrixKey::of(&a), MatrixKey::of(&b));
    }

    #[test]
    fn second_lookup_is_a_hit_sharing_one_allocation() {
        let cache = ArtifactCache::new();
        let a = sample();
        let key = MatrixKey::of(&a);
        let first = cache.sparse_block(key, &a, 1..3, 1..3);
        let second = cache.sparse_block(key, &a, 1..3, 1..3);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*first, a.sparse_block(1..3, 1..3));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn distinct_ranges_and_kinds_do_not_collide() {
        let cache = ArtifactCache::new();
        let a = sample();
        let key = MatrixKey::of(&a);
        let b1 = cache.sparse_block(key, &a, 0..2, 0..2);
        let b2 = cache.sparse_block(key, &a, 2..4, 2..4);
        assert_ne!(*b1, *b2);
        let d = cache.dense_block(key, &a, 0..2, 0..2);
        assert_eq!(b1.to_dense(), *d);
        let p = cache.row_panel(key, &a, 0..2);
        assert_eq!(p.ncols(), 4);
        assert_eq!(cache.stats().entries, 4);
    }

    #[test]
    fn sell_conversions_are_shared_per_parameter_set() {
        let cache = ArtifactCache::new();
        let a = sample();
        let key = MatrixKey::of(&a);
        let first = cache.sell(key, &a, 4, 8);
        let second = cache.sell(key, &a, 4, 8);
        assert!(Arc::ptr_eq(&first, &second));
        let other_c = cache.sell(key, &a, 2, 8);
        assert!(!Arc::ptr_eq(&first, &other_c));
        assert_eq!(first.nnz(), a.nnz());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn clear_resets_contents_and_counters() {
        let cache = ArtifactCache::new();
        let a = sample();
        let key = MatrixKey::of(&a);
        let _ = cache.row_panel(key, &a, 0..4);
        let _ = cache.row_panel(key, &a, 0..4);
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn derived_builders_run_once() {
        let cache = ArtifactCache::new();
        let a = sample();
        let key = MatrixKey::of(&a);
        let mut builds = 0;
        for _ in 0..3 {
            let g = cache.gram(key, 0..2, || {
                builds += 1;
                a.row_panel(0..2).to_dense()
            });
            assert_eq!(g.nrows(), 2);
        }
        assert_eq!(builds, 1);
    }
}
