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
//!
//! The set also owns the one warehouse over those stores. Workers keep
//! an incrementally ingested [`rsls_lab::Snapshot`]
//! ([`ShardSet::warehouse`]); the event loop never reads it, it only
//! asks [`ShardSet::probe`] which *generation* the directories are at —
//! a number that moves exactly when the pointer names, a journal's
//! length, or an awaited provenance sidecar did — so an answer computed
//! for one generation can be handed out again until the next.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rsls_campaign::{shard_dir, CampaignSummary, Engine, EngineOptions, ShardRouter};
use rsls_experiments::campaign;
use rsls_lab::{Snapshot, Warehouse};

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

/// What one look at a shard's store shows without opening an object.
#[derive(Debug, Default, PartialEq, Eq)]
struct StoreProbe {
    /// Sorted `units/*.ref` names, from one `read_dir`.
    pointers: Vec<String>,
    /// The journal's byte length (0 without a journal).
    journal_len: u64,
}

/// The event loop's side of the warehouse: what the latest
/// [`ShardSet::probe`] saw, and the number it gave that sight.
#[derive(Debug, Default)]
struct Seen {
    generation: u64,
    stores: Vec<StoreProbe>,
    /// How many of `awaited_sidecars` were still absent.
    sidecars_absent: usize,
    /// Provenance sidecars of rows the snapshot ingested before they
    /// landed (the engine writes pointer → sidecar → `done`); published
    /// by the workers after every refresh.
    awaited_sidecars: Vec<PathBuf>,
}

/// The workers' side: the incremental ingest state and the views of its
/// latest refresh.
struct Live {
    snapshot: Snapshot,
    views: Arc<Warehouse>,
}

/// The engines behind one server, one per shard (never empty), and the
/// warehouse over their stores.
pub struct ShardSet {
    engines: Vec<Arc<Engine>>,
    router: ShardRouter,
    seen: Mutex<Seen>,
    /// Opened by the first [`ShardSet::warehouse`] call.
    live: Mutex<Option<Live>>,
}

/// Recovers the guard from a poisoned lock: both mutexes here guard
/// plain values that every critical section leaves whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
        ShardSet::over(vec![campaign::engine_arc()])
    }

    fn over(engines: Vec<Arc<Engine>>) -> ShardSet {
        ShardSet {
            router: ShardRouter::new(engines.len()),
            engines,
            seen: Mutex::new(Seen::default()),
            live: Mutex::new(None),
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
        Ok(ShardSet::over(engines))
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

    /// The generation the shard stores are at, for the event loop: one
    /// `read_dir` of `units/` and one journal `stat` per shard, plus a
    /// `stat` per awaited sidecar — no object is opened. Two calls
    /// return the same number exactly when they saw the same pointer
    /// names, journal lengths and awaited sidecars; anything a
    /// [`Snapshot`] would ingest differently moves at least one of
    /// those. `None` when caching is disabled everywhere.
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: length-only stat for the generation probe; a journal that cannot be stat'ed reads as empty, exactly as ingest reads a missing one"
    )]
    pub fn probe(&self) -> Option<u64> {
        let stores: Vec<StoreProbe> = self
            .engines
            .iter()
            .filter_map(|e| {
                Some(StoreProbe {
                    pointers: e.cache()?.unit_spec_hashes(),
                    journal_len: e
                        .options()
                        .journal_path
                        .as_deref()
                        .map_or(0, |path| std::fs::metadata(path).map_or(0, |m| m.len())),
                })
            })
            .collect();
        if stores.is_empty() {
            return None;
        }
        let mut seen = lock(&self.seen);
        let sidecars_absent = seen
            .awaited_sidecars
            .iter()
            .filter(|path| !path.exists())
            .count();
        if stores != seen.stores || sidecars_absent != seen.sidecars_absent {
            seen.generation += 1;
            seen.stores = stores;
            seen.sidecars_absent = sidecars_absent;
        }
        Some(seen.generation)
    }

    /// The warehouse views over every shard store as of now, for worker
    /// threads: refreshes the snapshot (reading only what the stores
    /// gained) under its lock and hands the views out by `Arc`, so
    /// queries run outside the lock. Fails when caching is disabled or
    /// where [`Warehouse::load_shards`] fails.
    pub fn warehouse(&self) -> io::Result<Arc<Warehouse>> {
        let mut guard = lock(&self.live);
        let live = match &mut *guard {
            Some(live) => live,
            unopened => {
                let stores = self
                    .warehouse_stores()
                    .ok_or_else(|| io::Error::other("result caching is disabled"))?;
                let stores: Vec<(&Path, Option<&Path>)> = stores
                    .iter()
                    .map(|(cache, journal)| (cache.as_path(), journal.as_deref()))
                    .collect();
                let snapshot = Snapshot::open(&stores)?;
                unopened.insert(Live {
                    views: Arc::new(snapshot.warehouse()),
                    snapshot,
                })
            }
        };
        if live.snapshot.refresh()? {
            live.views = Arc::new(live.snapshot.warehouse());
            // Absent as of this refresh; the next probe counts again, so
            // one that lands in between moves the generation.
            let awaited = live.snapshot.missing_sidecars();
            let mut seen = lock(&self.seen);
            seen.sidecars_absent = awaited.len();
            seen.awaited_sidecars = awaited;
        }
        Ok(Arc::clone(&live.views))
    }
}

/// A small converged report, for the in-crate tests that plant units.
#[cfg(test)]
pub(crate) fn test_report(iterations: usize) -> rsls_core::RunReport {
    rsls_core::RunReport {
        scheme: "FF".into(),
        num_ranks: 4,
        iterations,
        converged: true,
        final_relative_residual: 1e-13,
        time_s: 1.0,
        energy_j: 100.0,
        avg_power_w: 100.0,
        faults_injected: 0,
        construction_fallbacks: 0,
        checkpoint_interval_iters: None,
        checkpoint_bytes_written: 0,
        breakdown: Default::default(),
        history: Default::default(),
        power_profile: Vec::new(),
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
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: removes the test stores"
    )]
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

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: the test grows the journal and plants sidecars by hand"
    )]
    fn probe_moves_exactly_when_pointers_journal_or_an_awaited_sidecar_do() {
        use rsls_campaign::{Provenance, ResultCache};
        use std::io::Write;

        let dir = std::env::temp_dir().join(format!("rsls-shardset-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = EngineOptions {
            cache_dir: dir.join("cache"),
            use_cache: true,
            journal_path: Some(dir.join("campaign.journal")),
            ..EngineOptions::default()
        };
        let set = ShardSet::build(&base, 2).unwrap();
        let writer = ResultCache::open(dir.join("cache").join("shard-1")).unwrap();
        let steady = |what: &str| {
            let g = set.probe().expect("stores exist");
            assert_eq!(
                set.probe(),
                Some(g),
                "{what}: nothing moved between two probes"
            );
            g
        };

        let empty = steady("empty stores");
        assert_eq!(set.warehouse().unwrap().ingested, 0);
        assert_eq!(steady("after a refresh that found nothing"), empty);

        // A pointer (pointer → sidecar is the engine's order, so the row
        // is ingested without one).
        let spec = "5".repeat(64);
        let report_hash = writer.store(&spec, &test_report(10)).unwrap();
        let with_pointer = steady("one pointer");
        assert_ne!(with_pointer, empty);
        let w = set.warehouse().unwrap();
        assert_eq!(w.ingested, 1);
        assert_eq!(w.runs.rows[0][0], rsls_lab::Datum::Null, "no sidecar yet");
        assert_eq!(steady("row ingested, sidecar awaited"), with_pointer);

        // The awaited sidecar lands: nothing else on disk changed.
        writer
            .store_provenance(&Provenance {
                spec_hash: spec.clone(),
                report_hash,
                experiment: "probe".into(),
                unit: "u".into(),
                matrix: "m".into(),
                scale: "quick".into(),
                engine_version: 1,
                matrix_fingerprint: None,
                chaos_plan_hash: None,
            })
            .unwrap();
        let with_sidecar = steady("sidecar landed");
        assert_ne!(with_sidecar, with_pointer);
        let w = set.warehouse().unwrap();
        assert_eq!(w.runs.rows[0][0], rsls_lab::Datum::Str("probe".into()));
        assert_eq!(steady("sidecar ingested"), with_sidecar);

        // A journal grows by one byte.
        std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("shard-0.campaign.journal"))
            .and_then(|mut f| f.write_all(b"\n"))
            .unwrap();
        assert_ne!(steady("journal grew"), with_sidecar);

        // Nothing to probe without a store.
        let uncached = ShardSet::build(&EngineOptions::default(), 1).unwrap();
        assert!(uncached.warehouse_stores().is_none());
        assert_eq!(uncached.probe(), None);
        assert!(uncached.warehouse().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
