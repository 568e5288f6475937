//! Consistent-hash routing of campaign work onto per-shard object-store
//! namespaces.
//!
//! PR 8 shards the engine: independent (experiment, scale) families can
//! be served by separate [`crate::Engine`]s, each owning a disjoint
//! store namespace (`<base>/shard-<k>`). The router is a classic
//! consistent-hash ring — each shard contributes a fixed number of
//! virtual points hashed from `(shard index, virtual node)`, and a key
//! routes to the first point clockwise from its own hash. Two
//! properties matter here:
//!
//! * **Determinism.** The ring is a pure function of the shard count,
//!   and the key hash is FNV-1a — the same key routes to the same shard
//!   in every process, which is what makes a sharded store's layout
//!   reproducible (and lets the chaos-under-load test assert
//!   byte-identical stores across runs).
//! * **Stability.** Growing the ring from `n` to `n+1` shards moves
//!   only the keys that land on the new shard's points (~1/(n+1) of
//!   them); everything else keeps its namespace, so a resized
//!   deployment re-uses most of its warm store.
//!
//! Because the store is content-addressed, the *union* of the per-shard
//! object sets for any shard count equals the store a single engine
//! would have written — byte-identical objects under identical names —
//! which is exactly what the shard-count acceptance test checks.

use std::path::{Path, PathBuf};

use rsls_core::Fnv1a;

/// Virtual points each shard contributes to the ring. 64 keeps the
/// per-shard key share within a few percent of uniform for the shard
/// counts the service uses (≤ 16) while the ring stays tiny.
const VNODES_PER_SHARD: usize = 64;

/// A deterministic consistent-hash router over `shards` namespaces.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    /// Sorted `(point, shard)` ring.
    ring: Vec<(u64, usize)>,
    shards: usize,
}

impl ShardRouter {
    /// Builds the ring for `shards` namespaces (`shards` is clamped to
    /// at least 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        let mut ring = Vec::with_capacity(shards * VNODES_PER_SHARD);
        for shard in 0..shards {
            for vnode in 0..VNODES_PER_SHARD {
                let mut h = Fnv1a::new();
                h.update(b"rsls-shard-ring");
                h.update_u64(shard as u64);
                h.update_u64(vnode as u64);
                ring.push((h.finish(), shard));
            }
        }
        // Points sort by hash; ties (vanishingly rare) break toward the
        // lower shard index so the ring order is still total.
        ring.sort_unstable();
        ShardRouter { ring, shards }
    }

    /// Number of shards behind this router.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Routes `key` (an experiment/scale family like `fig4@quick`) to
    /// its shard: the first ring point at or after the key's hash,
    /// wrapping at the top.
    pub fn route(&self, key: &str) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let mut h = Fnv1a::new();
        h.update(key.as_bytes());
        let point = h.finish();
        match self.ring.binary_search_by(|probe| probe.0.cmp(&point)) {
            Ok(i) => self.ring[i].1,
            Err(i) if i < self.ring.len() => self.ring[i].1,
            Err(_) => self.ring[0].1,
        }
    }
}

/// The store namespace for `shard` of `shards` under `base`. A single
/// shard keeps the legacy flat layout (`base` itself), so an unsharded
/// deployment's store paths — and every CI job that inspects them —
/// are unchanged; sharded deployments nest `shard-<k>` directories.
pub fn shard_dir(base: &Path, shard: usize, shards: usize) -> PathBuf {
    if shards <= 1 {
        base.to_path_buf()
    } else {
        base.join(format!("shard-{shard}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let a = ShardRouter::new(4);
        let b = ShardRouter::new(4);
        for i in 0..200 {
            let key = format!("fig{i}@quick");
            let s = a.route(&key);
            assert_eq!(s, b.route(&key), "same ring, same route");
            assert!(s < 4);
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        assert_eq!(r.shards(), 1);
        for i in 0..50 {
            assert_eq!(r.route(&format!("k{i}")), 0);
        }
        // Zero clamps to one shard rather than panicking.
        assert_eq!(ShardRouter::new(0).shards(), 1);
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let r = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[r.route(&format!("family-{i}"))] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                (400..=1800).contains(&n),
                "shard {shard} got {n} of 4000 keys — ring badly skewed"
            );
        }
    }

    #[test]
    fn growing_the_ring_moves_few_keys() {
        let four = ShardRouter::new(4);
        let five = ShardRouter::new(5);
        let mut moved_elsewhere = 0;
        let total = 4000;
        for i in 0..total {
            let key = format!("family-{i}");
            let (a, b) = (four.route(&key), five.route(&key));
            // A key may move to the *new* shard; moving between old
            // shards would break consistent-hash stability.
            if a != b && b != 4 {
                moved_elsewhere += 1;
            }
        }
        assert_eq!(
            moved_elsewhere, 0,
            "keys moved between pre-existing shards when the ring grew"
        );
    }

    #[test]
    fn shard_dirs_nest_only_when_sharded() {
        let base = Path::new("/tmp/store");
        assert_eq!(shard_dir(base, 0, 1), base);
        assert_eq!(shard_dir(base, 2, 4), base.join("shard-2"));
    }
}
