//! The service's view of its campaign engines: a non-empty,
//! consistent-hash-routed engine set.
//!
//! A server bound without [`crate::ServeOptions::shard_base`] (every
//! embedded test server) serves the process-wide engine from
//! [`rsls_experiments::campaign::engine_arc`] as shard 0 of a
//! one-element set. A server bound with it owns `N` private [`Engine`]s
//! built from that template — one writes the base layout untouched,
//! more get disjoint store namespaces (`<cache>/shard-<k>`) and
//! journals. Request keys route to shards through
//! [`rsls_campaign::ShardRouter`], and compute jobs run under
//! [`rsls_experiments::campaign::with_engine`] so the harness's units
//! land in that shard's store. Read paths that span the whole corpus
//! (`/reports`, `/query`, `/compare`, `/metrics`) fan out across every
//! shard and merge.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rsls_campaign::{shard_dir, CampaignSummary, Engine, EngineOptions, ShardRouter};
use rsls_experiments::campaign;

/// Outcome of a `/reports/{sha256}` object lookup across shard stores.
#[derive(Debug)]
pub enum ReportLookup {
    /// No shard has a store (caching disabled): `404` with an
    /// explanatory body.
    Disabled,
    /// Stores exist but none holds the object.
    Missing,
    /// The object's verified bytes, from the first shard holding it
    /// (content addressing makes every copy byte-identical).
    Found(Vec<u8>),
}

/// The engines behind one server, one per shard (never empty).
pub struct ShardSet {
    engines: Vec<Arc<Engine>>,
    router: ShardRouter,
}

impl std::fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("shards", &self.count())
            .finish()
    }
}

/// Journal path for one shard: `campaign.journal` becomes
/// `shard-<k>.campaign.journal` next to the original (single shard
/// keeps the path untouched, like [`shard_dir`]).
fn shard_journal(path: &Path, shard: usize, shards: usize) -> PathBuf {
    if shards <= 1 {
        return path.to_path_buf();
    }
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "campaign.journal".to_string());
    path.with_file_name(format!("shard-{shard}.{name}"))
}

impl ShardSet {
    /// The process-wide engine as a one-shard set.
    pub fn global() -> ShardSet {
        ShardSet {
            engines: vec![campaign::engine_arc()],
            router: ShardRouter::new(1),
        }
    }

    /// Builds `shards` private engines from `base`, namespacing each
    /// one's store (`shard_dir`) and journal (`shard_journal`). The
    /// base options' chaos injector, retry policy, and job count are
    /// shared by every shard.
    pub fn build(base: &EngineOptions, shards: usize) -> io::Result<ShardSet> {
        let n = shards.max(1);
        let engines = (0..n)
            .map(|k| {
                let mut opts = base.clone();
                opts.cache_dir = shard_dir(&base.cache_dir, k, n);
                opts.journal_path = base.journal_path.as_deref().map(|p| shard_journal(p, k, n));
                Engine::new(opts).map(Arc::new)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ShardSet {
            engines,
            router: ShardRouter::new(n),
        })
    }

    /// Number of shards (≥ 1).
    pub fn count(&self) -> usize {
        self.engines.len()
    }

    /// Routes a result key to its shard.
    pub fn route(&self, key: &str) -> usize {
        self.router.route(key)
    }

    /// The engine a compute job for `shard` must run under
    /// (out-of-range shards clamp to the last one).
    pub fn engine_arc(&self, shard: usize) -> Arc<Engine> {
        Arc::clone(&self.engines[shard.min(self.engines.len() - 1)])
    }

    /// Campaign totals summed across every shard.
    pub fn summary(&self) -> CampaignSummary {
        let mut total = CampaignSummary::default();
        for engine in &self.engines {
            let s = engine.summary();
            total.total += s.total;
            total.executed += s.executed;
            total.cache_hits += s.cache_hits;
            total.failed += s.failed;
            total.degraded += s.degraded;
            total.coalesced += s.coalesced;
            total.retries += s.retries;
            total.corrupt_detected += s.corrupt_detected;
            total.quarantined += s.quarantined;
            total.circuits_open += s.circuits_open;
            total.unit_wall_s += s.unit_wall_s;
            for (label, n) in s.scheme_units {
                *total.scheme_units.entry(label).or_insert(0) += n;
            }
        }
        total
    }

    /// Every shard's per-unit summary table, in shard order — the
    /// binary's drain report.
    pub fn summary_table(&self) -> String {
        self.engines.iter().map(|e| e.summary_table()).collect()
    }

    /// Threads parked on in-flight units, summed across shards.
    pub fn coalesce_waiters(&self) -> usize {
        self.engines.iter().map(|e| e.coalesce_waiters()).sum()
    }

    /// Looks `hash` up across every shard store in shard order.
    pub fn load_report(&self, hash: &str) -> ReportLookup {
        let mut any_store = false;
        for cache in self.engines.iter().filter_map(|e| e.cache()) {
            any_store = true;
            if let Some(bytes) = cache.load_object(hash) {
                return ReportLookup::Found(bytes);
            }
        }
        if any_store {
            ReportLookup::Missing
        } else {
            ReportLookup::Disabled
        }
    }

    /// The `(cache dir, journal)` pairs the warehouse routes load —
    /// every shard with a store, in shard order. `None` when caching is
    /// disabled everywhere (there is nothing to query).
    pub fn warehouse_stores(&self) -> Option<Vec<(PathBuf, Option<PathBuf>)>> {
        let stores: Vec<(PathBuf, Option<PathBuf>)> = self
            .engines
            .iter()
            .filter_map(|e| {
                let cache = e.cache()?;
                Some((cache.dir().to_path_buf(), e.options().journal_path.clone()))
            })
            .collect();
        (!stores.is_empty()).then_some(stores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_set_is_one_unsharded_namespace() {
        let set = ShardSet::global();
        assert_eq!(set.count(), 1);
        assert_eq!(set.route("fig5@quick"), 0);
        assert!(
            std::ptr::eq(&*set.engine_arc(0), campaign::engine()),
            "shard 0 of the global set is the process-wide engine"
        );
    }

    #[test]
    fn owned_set_namespaces_stores_and_journals() {
        let dir = std::env::temp_dir().join(format!("rsls-shardset-{}", std::process::id()));
        let base = EngineOptions {
            cache_dir: dir.join("cache"),
            use_cache: true,
            journal_path: Some(dir.join("campaign.journal")),
            ..EngineOptions::default()
        };
        let set = ShardSet::build(&base, 3).unwrap();
        assert_eq!(set.count(), 3);
        for k in 0..3 {
            let engine = set.engine_arc(k);
            let cache = engine.cache().expect("sharded stores are cached");
            assert_eq!(cache.dir(), dir.join("cache").join(format!("shard-{k}")));
            assert_eq!(
                engine.options().journal_path.as_deref(),
                Some(dir.join(format!("shard-{k}.campaign.journal")).as_path())
            );
        }
        // Routing covers every shard eventually and stays in range.
        // (Short sequential keys hash-correlate under FNV-1a, so sample
        // a couple thousand before expecting full coverage.)
        let mut seen = [false; 3];
        for i in 0..2000 {
            seen[set.route(&format!("family-{i}"))] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let stores = set.warehouse_stores().expect("cached shards have stores");
        assert_eq!(stores.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
