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
//!
//! In steady state the probe is `stat`s only. It lists `units/` again
//! only when the directory's stamp (device, inode, mtime, ctime) is new,
//! or has been in sight for less than [`QUIET`]: a listing that starts
//! that long after the stamp was first seen holds every entry the stamp
//! can cover, and any later entry change moves the stamp
//! ([`list_or_reuse`]). The clock is the caller's; nothing here reads
//! one.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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

/// How long a `units/` stamp must have been in sight before a listing
/// taken under it is trusted to be complete. A change that could share
/// the stamp falls in the same timestamp tick, which ends within the
/// filesystem's timestamp granularity (1 s on ext4 without nanosecond
/// stamps) plus the kernel's coarse-clock lag; 2 s bounds both.
const QUIET: Duration = Duration::from_secs(2);

/// A directory's identity and change times, from one `stat`. Adding,
/// removing or renaming an entry moves `mtime` and `ctime`; replacing
/// the directory moves `dev` or `ino`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    dev: u64,
    ino: u64,
    mtime: (i64, i64),
    ctime: (i64, i64),
}

impl Stamp {
    #[cfg(unix)]
    fn of(meta: &std::fs::Metadata) -> Option<Stamp> {
        use std::os::unix::fs::MetadataExt;
        Some(Stamp {
            dev: meta.dev(),
            ino: meta.ino(),
            mtime: (meta.mtime(), meta.mtime_nsec()),
            ctime: (meta.ctime(), meta.ctime_nsec()),
        })
    }

    /// No change times to trust: every probe lists.
    #[cfg(not(unix))]
    fn of(_: &std::fs::Metadata) -> Option<Stamp> {
        None
    }
}

/// What the probe knows of one `units/` stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StampRecord {
    stamp: Stamp,
    /// When a probe first saw `stamp`.
    first_seen: Instant,
    /// Whether the latest listing under `stamp` started at least
    /// [`QUIET`] after `first_seen`.
    trusted: bool,
}

/// The list-or-reuse decision for one `units/`, given what the probe
/// knew (`prev`), the stamp it sees now (`None`: the directory cannot
/// be `stat`ed) and the caller's clock: the record to keep, and whether
/// to list. The previous listing is reused only when the stamp is
/// unchanged and that listing was trusted; a new or missing stamp
/// resets the record.
fn list_or_reuse(
    prev: Option<StampRecord>,
    current: Option<Stamp>,
    now: Instant,
) -> (Option<StampRecord>, bool) {
    let Some(stamp) = current else {
        return (None, true);
    };
    let first_seen = match prev {
        Some(rec) if rec.stamp == stamp && rec.trusted => return (prev, false),
        Some(rec) if rec.stamp == stamp => rec.first_seen,
        _ => now,
    };
    let trusted = now.saturating_duration_since(first_seen) >= QUIET;
    let record = StampRecord {
        stamp,
        first_seen,
        trusted,
    };
    (Some(record), true)
}

/// What the probe last saw of one shard store.
#[derive(Debug)]
struct StoreProbe {
    units: PathBuf,
    journal: Option<PathBuf>,
    /// `units/`'s stamp as of the listing `pointers` came from.
    stamp: Option<StampRecord>,
    /// Sorted `units/*.ref` names.
    pointers: Vec<String>,
    /// The journal's byte length (0 without a journal).
    journal_len: u64,
}

/// The event loop's side of the warehouse: what the latest
/// [`ShardSet::probe`] saw, and the number it gave that sight.
#[derive(Debug, Default)]
struct Seen {
    generation: u64,
    /// One per shard with a store, in shard order.
    stores: Vec<StoreProbe>,
    /// How many of `awaited_sidecars` were still absent.
    sidecars_absent: usize,
    /// Provenance sidecars of rows the snapshot ingested before they
    /// landed (the engine writes pointer → sidecar → `done`); published
    /// by the workers after every refresh.
    awaited_sidecars: Vec<PathBuf>,
}

/// What one [`ShardSet::probe`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probed {
    /// The generation the shard stores are at.
    pub generation: u64,
    /// `units/` listings the probe ran; 0 when every shard reused a
    /// trusted listing.
    pub listings: u64,
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
        let stores = engines
            .iter()
            .filter_map(|e| {
                Some(StoreProbe {
                    units: e.cache()?.dir().join("units"),
                    journal: e.options().journal_path.clone(),
                    stamp: None,
                    pointers: Vec::new(),
                    journal_len: 0,
                })
            })
            .collect();
        ShardSet {
            router: ShardRouter::new(engines.len()),
            engines,
            seen: Mutex::new(Seen {
                stores,
                ..Seen::default()
            }),
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

    /// The generation the shard stores are at as of `now`, for the
    /// event loop: per shard a `stat` of `units/` and of the journal,
    /// plus a `stat` per awaited sidecar — no object is opened. A shard
    /// lists `units/` (one `read_dir`) only when [`list_or_reuse`] says
    /// its last listing cannot be trusted to be complete. Two calls
    /// return the same generation exactly when they saw the same
    /// pointer names, journal lengths and awaited sidecars; anything a
    /// [`Snapshot`] would ingest differently moves at least one of
    /// those. `None` when caching is disabled everywhere.
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: stats for the generation probe; a units/ that cannot be stat'ed is listed, and a journal that cannot be stat'ed reads as empty, exactly as ingest reads a missing one"
    )]
    pub fn probe(&self, now: Instant) -> Option<Probed> {
        let mut guard = lock(&self.seen);
        let seen = &mut *guard;
        if seen.stores.is_empty() {
            return None;
        }
        let mut moved = false;
        let mut listings = 0;
        let caches = self.engines.iter().filter_map(|e| e.cache());
        for (store, cache) in seen.stores.iter_mut().zip(caches) {
            let current = std::fs::metadata(&store.units)
                .ok()
                .and_then(|m| Stamp::of(&m));
            let (stamp, list) = list_or_reuse(store.stamp, current, now);
            store.stamp = stamp;
            if list {
                listings += 1;
                let pointers = cache.unit_spec_hashes();
                if pointers != store.pointers {
                    store.pointers = pointers;
                    moved = true;
                }
            }
            let journal_len = store
                .journal
                .as_deref()
                .map_or(0, |path| std::fs::metadata(path).map_or(0, |m| m.len()));
            if journal_len != store.journal_len {
                store.journal_len = journal_len;
                moved = true;
            }
        }
        let sidecars_absent = seen
            .awaited_sidecars
            .iter()
            .filter(|path| !path.exists())
            .count();
        if moved || sidecars_absent != seen.sidecars_absent {
            seen.generation += 1;
            seen.sidecars_absent = sidecars_absent;
        }
        Some(Probed {
            generation: seen.generation,
            listings,
        })
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
        reason = "a base instant for the synthetic probe clock"
    )]
    fn a_listing_is_trusted_only_quiet_after_its_stamp_was_first_seen() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let stamp = |mtime: i64| Stamp {
            dev: 1,
            ino: 2,
            mtime: (mtime, 0),
            ctime: (mtime, 0),
        };
        let record = |stamp, first_seen, trusted| {
            Some(StampRecord {
                stamp,
                first_seen,
                trusted,
            })
        };

        // First sight, and anything short of QUIET after it: list, and
        // do not trust the listing.
        let (rec, list) = list_or_reuse(None, Some(stamp(10)), t0);
        assert_eq!((rec, list), (record(stamp(10), t0, false), true));
        let (rec, list) = list_or_reuse(rec, Some(stamp(10)), at(1_999));
        assert_eq!((rec, list), (record(stamp(10), t0, false), true));
        // The listing that starts QUIET after the first sight is trusted,
        // and from then on the same stamp reuses it.
        let (rec, list) = list_or_reuse(rec, Some(stamp(10)), at(2_000));
        assert_eq!((rec, list), (record(stamp(10), t0, true), true));
        for ms in [2_001, 60_000] {
            assert_eq!(list_or_reuse(rec, Some(stamp(10)), at(ms)), (rec, false));
        }

        // Any changed field resets the record and lists, trusted or not.
        for changed in [
            stamp(11),
            Stamp {
                ino: 3,
                ..stamp(10)
            },
            Stamp {
                dev: 4,
                ..stamp(10)
            },
            Stamp {
                ctime: (10, 1),
                ..stamp(10)
            },
        ] {
            assert_eq!(
                list_or_reuse(rec, Some(changed), at(70_000)),
                (record(changed, at(70_000), false), true)
            );
        }
        // A missing `units/` lists and forgets: when the same stamp comes
        // back, it is a first sight again.
        let (gone, list) = list_or_reuse(rec, None, at(70_000));
        assert_eq!((gone, list), (None, true));
        assert_eq!(
            list_or_reuse(gone, Some(stamp(10)), at(80_000)),
            (record(stamp(10), at(80_000), false), true)
        );
        // A clock behind the first sight never counts as quiet.
        let (rec, _) = list_or_reuse(None, Some(stamp(10)), at(5_000));
        assert_eq!(
            list_or_reuse(rec, Some(stamp(10)), at(1_000)),
            (record(stamp(10), at(5_000), false), true)
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: the test grows the journal and plants sidecars and stray entries by hand; a base instant for the injected probe clock"
    )]
    fn probe_moves_exactly_when_pointers_journal_or_an_awaited_sidecar_do() {
        use rsls_campaign::{Provenance, ResultCache};
        use std::cell::Cell;
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
        let clock = Cell::new(Instant::now());
        let listed = Cell::new(0);
        let probe = || {
            let p = set.probe(clock.get()).expect("stores exist");
            listed.set(p.listings);
            p.generation
        };
        let steady = |what: &str| {
            let g = probe();
            assert_eq!(probe(), g, "{what}: nothing moved between two probes");
            g
        };
        let sidecar = |spec: &str, report_hash: String| {
            writer
                .store_provenance(&Provenance {
                    spec_hash: spec.to_string(),
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
        };
        let grow_journal = || {
            std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("shard-0.campaign.journal"))
                .and_then(|mut f| f.write_all(b"\n"))
                .unwrap();
        };

        // The clock stands still first: no stamp has been in sight for
        // QUIET, so every probe lists both shards.
        let empty = steady("empty stores");
        assert_eq!(listed.get(), 2);
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
        sidecar(&spec, report_hash);
        let with_sidecar = steady("sidecar landed");
        assert_ne!(with_sidecar, with_pointer);
        let w = set.warehouse().unwrap();
        assert_eq!(w.runs.rows[0][0], rsls_lab::Datum::Str("probe".into()));
        assert_eq!(steady("sidecar ingested"), with_sidecar);

        // A journal grows by one byte.
        grow_journal();
        let grown = steady("journal grew");
        assert_ne!(grown, with_sidecar);
        assert_eq!(listed.get(), 2);

        // The same steps on the trusted path. Each time, the test sleeps
        // past a 1-s timestamp tick for real before the injected clock
        // jumps past QUIET, so no write it makes later can share a stamp
        // with the listing it trusts.
        let settle = || {
            std::thread::sleep(Duration::from_millis(1_100));
            clock.set(clock.get() + QUIET);
        };
        settle();
        assert_eq!(steady("trusted listings"), grown);
        assert_eq!(listed.get(), 0, "a trusted listing is reused");

        // A pointer: only the shard whose `units/` moved lists again.
        let spec = "6".repeat(64);
        let report_hash = writer.store(&spec, &test_report(20)).unwrap();
        let with_pointer = probe();
        assert_eq!(listed.get(), 1);
        assert_ne!(with_pointer, grown);
        assert_eq!(set.warehouse().unwrap().ingested, 2);
        settle();
        assert_eq!(steady("row ingested, sidecar awaited"), with_pointer);
        assert_eq!(listed.get(), 0);

        // The sidecar, then a journal byte: the generation moves, and no
        // listing runs.
        sidecar(&spec, report_hash);
        let with_sidecar = steady("sidecar landed");
        assert_ne!(with_sidecar, with_pointer);
        let w = set.warehouse().unwrap();
        assert_eq!(w.runs.rows[1][0], rsls_lab::Datum::Str("probe".into()));
        assert_eq!(steady("sidecar ingested"), with_sidecar);
        assert_eq!(listed.get(), 0);
        grow_journal();
        let grown = steady("journal grew");
        assert_ne!(grown, with_sidecar);
        assert_eq!(listed.get(), 0);

        // An entry that is no pointer moves the stamp, which lists, but
        // not the generation; a removed pointer moves both.
        let units = dir.join("cache").join("shard-1").join("units");
        std::fs::write(units.join("stray.tmp"), b"").unwrap();
        assert_eq!(probe(), grown);
        assert_eq!(listed.get(), 1);
        std::fs::remove_file(units.join(format!("{spec}.ref"))).unwrap();
        assert_ne!(probe(), grown);
        assert_eq!(listed.get(), 1);

        // Nothing to probe without a store.
        let uncached = ShardSet::build(&EngineOptions::default(), 1).unwrap();
        assert!(uncached.warehouse_stores().is_none());
        assert_eq!(uncached.probe(clock.get()), None);
        assert!(uncached.warehouse().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
