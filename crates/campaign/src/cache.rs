//! Content-addressed result cache, git-style:
//!
//! ```text
//! <dir>/objects/<sha256-of-report-json>.json   the report bytes
//! <dir>/units/<spec-content-hash>.ref          64-hex pointer to an object
//! <dir>/quarantine/<sha256>.json               objects that failed verification
//! <dir>/recipes/<sha256-of-recipe>.json        fingerprint memo of a generated operator
//! ```
//!
//! Reports live in an **object store** keyed by the SHA-256 of their own
//! canonical JSON bytes, so an object's filename certifies its content —
//! the invariant HTTP `ETag` serving (`rsls-serve`'s `/reports/{sha256}`)
//! relies on. Unit results are **pointer files** mapping a
//! [`crate::UnitSpec`] content hash to its report object; two specs that
//! happen to produce byte-identical reports share one object.
//!
//! The store is **self-healing**: every object read re-verifies the
//! SHA-256 of the bytes against the filename. A mismatch — disk
//! corruption, a torn write that somehow landed, tampering — moves the
//! object into `quarantine/` and reports [`Lookup::Corrupt`], so the unit
//! recomputes and re-stores a good object instead of serving bad bytes
//! forever. Transient read errors (`Interrupted`/`WouldBlock`) are
//! retried in place. Writes go through a temp file in the same directory
//! followed by a rename, with bounded retries on write failure, so a
//! killed or fault-injected campaign can leave at most a stray `*.tmp`,
//! never a half-written addressable entry.
//!
//! The **recipe memo** spares a warm process from building operators
//! only to hash them: a recipe is the text that determines a generated
//! operator (`rsls-experiments` spells a suite row's generator
//! parameters, scale and generator version), and its entry records the
//! [`crate::matrix_fingerprint`] that operator hashes to. An entry is
//! self-verifying — it repeats its recipe and carries a sha256 over
//! recipe and fingerprint — so a torn, truncated or tampered entry reads
//! as [`RecipeLookup::Corrupt`], never as a wrong fingerprint.
//!
//! Fault injection (`rsls-chaos`) hooks the read and write edges here:
//! an injector passed via [`ResultCache::open_chaotic`] can tear writes,
//! corrupt or truncate read bytes, and synthesize transient read errors
//! — the mechanisms above are the hardening those faults prove.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rsls_chaos::{ChaosInjector, ChaosSite};
use rsls_core::RunReport;

use crate::provenance::Provenance;

/// Bounded attempts for transiently failing object reads and writes.
/// Sized like the driver checkpoint store's budget: at the soak plan's
/// rates (≤ 350‰) the chance of exhausting it is below 1e-7 per
/// operation, so the byte-identity soak holds for any seed rather than
/// for most seeds. (At 4 attempts a ~250‰ torn-write rate exhausts the
/// budget for roughly one store in 250 — rare enough to pass small
/// campaigns, common enough to flake a scheme-mix soak.)
const IO_ATTEMPTS: usize = 16;

/// Outcome of a unit lookup — the tri-state that makes corruption
/// observable instead of a silent miss.
#[derive(Debug)]
pub enum Lookup {
    /// A verified report was found.
    Hit(RunReport),
    /// No entry (or a dangling/garbage pointer): the unit never
    /// completed here.
    Miss,
    /// A pointer resolved to an object that failed verification; the
    /// object has been quarantined and the unit must recompute.
    Corrupt {
        /// The report object hash the pointer named.
        report_hash: String,
    },
}

/// Outcome of a recipe-memo read ([`ResultCache::load_recipe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecipeLookup {
    /// A verified entry: the fingerprint of the operator the recipe builds.
    Hit(u64),
    /// No entry.
    Miss,
    /// An entry that failed verification; the caller hashes the operator
    /// itself and may rewrite the entry.
    Corrupt,
}

/// One `recipes/` entry, as stored.
#[derive(serde::Serialize, serde::Deserialize)]
struct RecipeEntry {
    recipe: String,
    /// 16 lowercase hex digits.
    fingerprint: String,
    /// sha256 of `"{recipe}\n{fingerprint}"`.
    check: String,
}

impl RecipeEntry {
    fn new(recipe: &str, fingerprint: u64) -> Self {
        let fingerprint = format!("{fingerprint:016x}");
        RecipeEntry {
            check: recipe_check(recipe, &fingerprint),
            recipe: recipe.to_string(),
            fingerprint,
        }
    }

    /// The fingerprint, if the entry is intact and records `recipe`.
    fn verified(&self, recipe: &str) -> Option<u64> {
        let intact = self.recipe == recipe
            && self.fingerprint.len() == 16
            && self.check == recipe_check(recipe, &self.fingerprint);
        intact
            .then(|| u64::from_str_radix(&self.fingerprint, 16).ok())
            .flatten()
    }
}

fn recipe_check(recipe: &str, fingerprint: &str) -> String {
    rsls_core::sha256_hex(format!("{recipe}\n{fingerprint}").as_bytes())
}

/// How one object read ended, before JSON parsing.
enum ObjectRead {
    Bytes(Vec<u8>),
    Missing,
    Corrupt,
}

/// On-disk store of completed [`RunReport`]s, keyed by unit content hash.
///
/// Lookups are forgiving by design: a missing, truncated, tampered, or
/// otherwise unparsable ref or object is at worst a [`Lookup::Corrupt`]
/// (quarantined and counted), never an error — the unit simply re-runs
/// and re-stores a good entry.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    chaos: Option<Arc<ChaosInjector>>,
    quarantined: AtomicU64,
}

impl ResultCache {
    /// Opens (and creates, if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_chaotic(dir, None)
    }

    /// Opens a cache with an optional chaos injector wired into its
    /// read/write edges (see the module docs).
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: one-time layout mkdir at open; fails before any campaign state exists"
    )]
    pub fn open_chaotic(
        dir: impl Into<PathBuf>,
        chaos: Option<Arc<ChaosInjector>>,
    ) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("objects"))?;
        fs::create_dir_all(dir.join("units"))?;
        Ok(ResultCache {
            dir,
            chaos,
            quarantined: AtomicU64::new(0),
        })
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the object holding the report whose canonical JSON hashes
    /// to `report_hash`.
    pub fn object_path(&self, report_hash: &str) -> PathBuf {
        self.dir.join("objects").join(format!("{report_hash}.json"))
    }

    /// Path of the pointer file for unit `spec_hash`.
    pub fn unit_ref_path(&self, spec_hash: &str) -> PathBuf {
        self.dir.join("units").join(format!("{spec_hash}.ref"))
    }

    /// Path a quarantined object is moved to.
    pub fn quarantine_path(&self, report_hash: &str) -> PathBuf {
        self.dir
            .join("quarantine")
            .join(format!("{report_hash}.json"))
    }

    /// Path of the provenance sidecar record for unit `spec_hash`.
    pub fn provenance_path(&self, spec_hash: &str) -> PathBuf {
        self.dir
            .join("provenance")
            .join(format!("{spec_hash}.json"))
    }

    /// Path of the recipe-memo entry for `recipe`.
    pub fn recipe_path(&self, recipe: &str) -> PathBuf {
        self.recipe_path_of(&rsls_core::sha256_hex(recipe.as_bytes()))
    }

    fn recipe_path_of(&self, recipe_hash: &str) -> PathBuf {
        self.dir.join("recipes").join(format!("{recipe_hash}.json"))
    }

    /// Sorted content hashes of every unit pointer in `units/` — the
    /// stable enumeration order warehouse ingest (`rsls-lab`) walks so
    /// query results are byte-identical regardless of directory
    /// iteration order or job count, and (one `read_dir`, no file
    /// opened) the main part of `rsls-serve`'s store-generation probe.
    pub fn unit_spec_hashes(&self) -> Vec<String> {
        Self::hashes_in(&self.dir.join("units"), ".ref")
    }

    /// Sorted content hashes of every object in `objects/`.
    pub fn object_hashes(&self) -> Vec<String> {
        Self::hashes_in(&self.dir.join("objects"), ".json")
    }

    /// Sorted sha256 stems of `<dir>/<sha256><suffix>` entries; missing
    /// or unreadable directories are simply empty. Each kept name is
    /// the entry's own file-name buffer, truncated to its stem.
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: name enumeration only (warehouse ingest order, rsls-serve's generation probe, stats); an unreadable directory is an empty listing, and per-object read faults are injected in read_object"
    )]
    fn hashes_in(dir: &Path, suffix: &str) -> Vec<String> {
        let Ok(entries) = fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut hashes: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let mut name = e.file_name().into_string().ok()?;
                let stem = name.strip_suffix(suffix)?.len();
                is_sha256_hex(&name[..stem]).then(|| {
                    name.truncate(stem);
                    name
                })
            })
            .collect();
        hashes.sort_unstable();
        hashes
    }

    /// Objects quarantined by this cache handle since it was opened.
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// The report object a unit resolves to, if a valid pointer exists.
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: unit-ref indirection read; a bad ref fails is_sha256_hex below and degrades to a miss"
    )]
    pub fn object_hash(&self, spec_hash: &str) -> Option<String> {
        let raw = fs::read_to_string(self.unit_ref_path(spec_hash)).ok()?;
        let hash = raw.trim().to_string();
        if is_sha256_hex(&hash) {
            Some(hash)
        } else {
            None
        }
    }

    /// Resolves unit `spec_hash` to its verified report, distinguishing
    /// a clean miss from detected corruption (see [`Lookup`]).
    pub fn lookup(&self, spec_hash: &str) -> Lookup {
        let Some(report_hash) = self.object_hash(spec_hash) else {
            return Lookup::Miss;
        };
        match self.read_object(&report_hash) {
            ObjectRead::Bytes(bytes) => match serde_json::from_slice(&bytes) {
                Ok(report) => Lookup::Hit(report),
                // sha-valid bytes that do not parse were *stored* bad:
                // quarantine them like any other corruption.
                Err(_) => {
                    self.quarantine(&report_hash);
                    Lookup::Corrupt { report_hash }
                }
            },
            ObjectRead::Missing => Lookup::Miss,
            ObjectRead::Corrupt => Lookup::Corrupt { report_hash },
        }
    }

    /// Loads the report cached for unit `spec_hash`, if a valid one
    /// exists ([`Lookup::Hit`] collapsed to `Option` for callers that do
    /// not distinguish miss from corruption).
    pub fn load(&self, spec_hash: &str) -> Option<RunReport> {
        match self.lookup(spec_hash) {
            Lookup::Hit(report) => Some(report),
            Lookup::Miss | Lookup::Corrupt { .. } => None,
        }
    }

    /// Reads the raw bytes of report object `report_hash`, verifying that
    /// they still hash to their filename. A mismatched object is
    /// quarantined and never served.
    pub fn load_object(&self, report_hash: &str) -> Option<Vec<u8>> {
        if !is_sha256_hex(report_hash) {
            return None;
        }
        match self.read_object(report_hash) {
            ObjectRead::Bytes(bytes) => Some(bytes),
            ObjectRead::Missing | ObjectRead::Corrupt => None,
        }
    }

    /// Reads and verifies one object, retrying transient errors and
    /// quarantining verification failures.
    #[expect(
        clippy::disallowed_methods,
        reason = "chaos: cache-read-error, cache-corrupt, cache-truncate"
    )]
    fn read_object(&self, report_hash: &str) -> ObjectRead {
        let path = self.object_path(report_hash);
        let mut bytes: Option<Vec<u8>> = None;
        for _attempt in 0..IO_ATTEMPTS {
            if let Some(chaos) = &self.chaos {
                if chaos.fire(ChaosSite::CacheReadError, report_hash) {
                    // Synthetic EINTR: behave exactly as a real one —
                    // retry the read.
                    continue;
                }
            }
            match fs::read(&path) {
                Ok(b) => {
                    bytes = Some(b);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => return ObjectRead::Missing,
                Err(e)
                    if e.kind() == io::ErrorKind::Interrupted
                        || e.kind() == io::ErrorKind::WouldBlock =>
                {
                    continue;
                }
                Err(_) => return ObjectRead::Missing,
            }
        }
        // Transient errors on every attempt: treat as a miss (the unit
        // re-runs), never as served-but-unverified bytes.
        let Some(mut bytes) = bytes else {
            return ObjectRead::Missing;
        };
        if let Some(chaos) = &self.chaos {
            if chaos.fire(ChaosSite::CacheCorrupt, report_hash) {
                chaos.corrupt(report_hash, &mut bytes);
            }
            if chaos.fire(ChaosSite::CacheTruncate, report_hash) {
                chaos.truncate(report_hash, &mut bytes);
            }
        }
        if rsls_core::sha256_hex(&bytes) == report_hash {
            ObjectRead::Bytes(bytes)
        } else {
            self.quarantine(report_hash);
            ObjectRead::Corrupt
        }
    }

    /// Moves a verification-failed object out of `objects/` so it can
    /// never be served again, and counts it. Best-effort: if the move
    /// fails the object is deleted instead; either way the address is
    /// free for a clean re-store.
    #[expect(clippy::disallowed_methods, reason = "chaos: cache-corrupt")]
    fn quarantine(&self, report_hash: &str) {
        let from = self.object_path(report_hash);
        let to = self.quarantine_path(report_hash);
        let moved = fs::create_dir_all(self.dir.join("quarantine"))
            .and_then(|_| fs::rename(&from, &to))
            .is_ok();
        if !moved {
            let _ = fs::remove_file(&from);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Persists `report` for unit `spec_hash` (atomic temp + rename for
    /// both the object and the pointer), returning the report's own
    /// content address.
    ///
    /// The serialized form is byte-deterministic for a given report, so
    /// re-storing an identical result rewrites identical bytes under an
    /// identical object name.
    pub fn store(&self, spec_hash: &str, report: &RunReport) -> io::Result<String> {
        let json = serde_json::Writer::compact().render(report);
        let report_hash = rsls_core::sha256_hex(json.as_bytes());
        self.write_atomic(
            &self.object_path(&report_hash),
            json.as_bytes(),
            &report_hash,
        )?;
        self.write_atomic(
            &self.unit_ref_path(spec_hash),
            report_hash.as_bytes(),
            spec_hash,
        )?;
        Ok(report_hash)
    }

    /// Persists the provenance sidecar record for its `spec_hash`
    /// (atomic temp + rename, canonical JSON — byte-deterministic for a
    /// given record, like the object store proper).
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: mkdir before the registered torn-write site (write_atomic) takes over"
    )]
    pub fn store_provenance(&self, prov: &Provenance) -> io::Result<()> {
        let json = serde_json::Writer::compact().render(prov);
        fs::create_dir_all(self.dir.join("provenance"))?;
        self.write_atomic(
            &self.provenance_path(&prov.spec_hash),
            json.as_bytes(),
            &prov.spec_hash,
        )
    }

    /// Loads the provenance record for unit `spec_hash`, if one exists
    /// and parses. Stores that predate provenance (or a corrupted
    /// sidecar) read as `None` — provenance is advisory metadata, never
    /// a reason to fail a lookup.
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: advisory sidecar read; any failure reads as None and provenance is re-derived"
    )]
    pub fn load_provenance(&self, spec_hash: &str) -> Option<Provenance> {
        let bytes = fs::read(self.provenance_path(spec_hash)).ok()?;
        serde_json::from_slice(&bytes).ok()
    }

    /// The fingerprint the recipe memo holds for `recipe` (see the
    /// module docs). Anything but an intact entry for exactly this
    /// recipe is [`RecipeLookup::Corrupt`].
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: advisory memo read; any failure is a miss or corrupt, and the caller hashes the operator instead"
    )]
    pub fn load_recipe(&self, recipe: &str) -> RecipeLookup {
        match fs::read(self.recipe_path(recipe)) {
            Ok(bytes) => serde_json::from_slice::<RecipeEntry>(&bytes)
                .ok()
                .and_then(|entry| entry.verified(recipe))
                .map_or(RecipeLookup::Corrupt, RecipeLookup::Hit),
            Err(e) if e.kind() == io::ErrorKind::NotFound => RecipeLookup::Miss,
            Err(_) => RecipeLookup::Corrupt,
        }
    }

    /// Records that `recipe` builds an operator fingerprinting to
    /// `fingerprint` (atomic temp + rename, canonical JSON).
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: mkdir before the registered torn-write site (write_atomic) takes over"
    )]
    pub fn store_recipe(&self, recipe: &str, fingerprint: u64) -> io::Result<()> {
        let json = serde_json::Writer::compact().render(&RecipeEntry::new(recipe, fingerprint));
        let recipe_hash = rsls_core::sha256_hex(recipe.as_bytes());
        fs::create_dir_all(self.dir.join("recipes"))?;
        self.write_atomic(
            &self.recipe_path_of(&recipe_hash),
            json.as_bytes(),
            &recipe_hash,
        )
    }

    /// Atomic write with bounded retries: a torn or failing write (real
    /// or injected) costs a retry, never a half-written entry — the
    /// rename only happens after a complete temp file landed.
    #[expect(clippy::disallowed_methods, reason = "chaos: cache-write-torn")]
    fn write_atomic(&self, path: &Path, bytes: &[u8], key: &str) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        let mut last_err = io::Error::other("no write attempt made");
        for _attempt in 0..IO_ATTEMPTS {
            if let Some(chaos) = &self.chaos {
                if chaos.fire(ChaosSite::CacheWriteTorn, key) {
                    // A torn write: partial bytes land in the temp file,
                    // the write "fails", and — crucially — no rename
                    // happens, so the store stays consistent.
                    let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
                    last_err =
                        io::Error::new(io::ErrorKind::Interrupted, "chaos: torn cache write");
                    continue;
                }
            }
            match fs::write(&tmp, bytes).and_then(|_| fs::rename(&tmp, path)) {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    last_err = e;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }
}

/// Whether `s` is a plausible lowercase-hex SHA-256 digest.
pub fn is_sha256_hex(s: &str) -> bool {
    s.len() == 64
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unguarded: test fixtures: temp stores, planted corruption, and byte checks of what the store wrote"
)]
mod tests {
    use super::*;
    use rsls_chaos::ChaosPlan;
    use rsls_core::report::RunReport;

    fn report() -> RunReport {
        RunReport {
            scheme: "FF".into(),
            num_ranks: 8,
            iterations: 120,
            converged: true,
            final_relative_residual: 3.25e-13,
            time_s: 1.5,
            energy_j: 300.0,
            avg_power_w: 200.0,
            faults_injected: 0,
            construction_fallbacks: 0,
            checkpoint_interval_iters: None,
            checkpoint_bytes_written: 0,
            breakdown: Default::default(),
            history: Default::default(),
            power_profile: Vec::new(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rsls-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_and_is_byte_stable() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let r = report();
        let h1 = cache.store("abc123", &r).unwrap();
        let first = fs::read(cache.object_path(&h1)).unwrap();
        assert_eq!(cache.load("abc123").unwrap(), r);
        let h2 = cache.store("abc123", &r).unwrap();
        let second = fs::read(cache.object_path(&h2)).unwrap();
        assert_eq!(h1, h2, "same report must address the same object");
        assert_eq!(first, second, "same report must serialize byte-identically");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn object_filename_is_sha256_of_its_bytes() {
        // The invariant `rsls-serve` ETag serving relies on: a cached
        // report round-trips byte-identically and its sha256 *is* its
        // object filename.
        let dir = tmp_dir("etag-invariant");
        let cache = ResultCache::open(&dir).unwrap();
        let r = report();
        let rhash = cache.store("spec-hash-1", &r).unwrap();
        let bytes = cache.load_object(&rhash).unwrap();
        assert_eq!(rsls_core::sha256_hex(&bytes), rhash);
        assert!(cache
            .object_path(&rhash)
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with(&rhash));
        // Byte-identical round trip: load → re-serialize → same bytes.
        let loaded = cache.load("spec-hash-1").unwrap();
        let rejson = serde_json::to_string(&loaded).unwrap();
        assert_eq!(rejson.as_bytes(), &bytes[..]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_specs_with_identical_reports_share_one_object() {
        let dir = tmp_dir("dedup");
        let cache = ResultCache::open(&dir).unwrap();
        let h1 = cache.store("spec-a", &report()).unwrap();
        let h2 = cache.store("spec-b", &report()).unwrap();
        assert_eq!(h1, h2);
        assert_eq!(cache.object_hash("spec-a"), cache.object_hash("spec-b"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_served() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.load("missing").is_none());
        assert!(matches!(cache.lookup("missing"), Lookup::Miss));

        // Truncated object: pointer resolves but the bytes no longer
        // hash to the object name → corruption, detected and quarantined.
        let h = cache.store("t1", &report()).unwrap();
        let path = cache.object_path(&h);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(
            matches!(cache.lookup("t1"), Lookup::Corrupt { ref report_hash } if *report_hash == h),
            "truncated object must be detected as corrupt"
        );
        assert!(!path.exists(), "corrupt object is moved out of objects/");
        assert!(
            cache.quarantine_path(&h).exists(),
            "corrupt object lands in quarantine/"
        );
        assert_eq!(cache.quarantined_total(), 1);
        // After quarantine the entry is a plain (dangling-ref) miss, and
        // a tampered object is never served.
        assert!(matches!(cache.lookup("t1"), Lookup::Miss));
        assert!(cache.load_object(&h).is_none());
        // Re-storing heals the entry.
        cache.store("t1", &report()).unwrap();
        assert!(matches!(cache.lookup("t1"), Lookup::Hit(_)));

        // Garbage pointer.
        fs::write(cache.unit_ref_path("t2"), b"not a hash").unwrap();
        assert!(cache.load("t2").is_none(), "garbage ref must be a miss");

        // Pointer to a missing object.
        fs::write(cache.unit_ref_path("t3"), "a".repeat(64)).unwrap();
        assert!(cache.load("t3").is_none(), "dangling ref must be a miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_read_errors_are_retried_transparently() {
        let dir = tmp_dir("transient");
        // Read errors always fire, but budgeted to fewer than the retry
        // bound: the read must succeed on a later attempt.
        let mut plan = ChaosPlan::quiet(5);
        plan.cache_read_error_permille = 1000;
        plan.max_faults_per_site = 2;
        let injector = Arc::new(ChaosInjector::new(plan));
        let cache = ResultCache::open_chaotic(&dir, Some(Arc::clone(&injector))).unwrap();
        cache.store("u", &report()).unwrap();
        assert!(matches!(cache.lookup("u"), Lookup::Hit(_)));
        assert_eq!(injector.fired(ChaosSite::CacheReadError), 2);
        assert_eq!(cache.quarantined_total(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_corruption_quarantines_and_reheals() {
        let dir = tmp_dir("chaos-corrupt");
        let mut plan = ChaosPlan::quiet(6);
        plan.cache_corrupt_permille = 1000;
        plan.max_faults_per_site = 1;
        let injector = Arc::new(ChaosInjector::new(plan));
        let cache = ResultCache::open_chaotic(&dir, Some(injector)).unwrap();
        let h = cache.store("u", &report()).unwrap();
        assert!(
            matches!(cache.lookup("u"), Lookup::Corrupt { .. }),
            "injected read corruption must be detected"
        );
        assert_eq!(cache.quarantined_total(), 1);
        // Budget exhausted: the re-store + re-read path is clean again.
        let h2 = cache.store("u", &report()).unwrap();
        assert_eq!(h, h2);
        assert!(matches!(cache.lookup("u"), Lookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_writes_are_retried_to_a_consistent_store() {
        let dir = tmp_dir("torn-write");
        let mut plan = ChaosPlan::quiet(7);
        plan.cache_write_torn_permille = 1000;
        plan.max_faults_per_site = 2;
        let injector = Arc::new(ChaosInjector::new(plan));
        let cache = ResultCache::open_chaotic(&dir, Some(injector)).unwrap();
        let h = cache.store("u", &report()).unwrap();
        let bytes = fs::read(cache.object_path(&h)).unwrap();
        assert_eq!(
            rsls_core::sha256_hex(&bytes),
            h,
            "after torn-write retries the landed object is complete"
        );
        assert!(matches!(cache.lookup("u"), Lookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn provenance_sidecars_round_trip_and_enumerate() {
        let dir = tmp_dir("provenance");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = crate::UnitSpec {
            experiment: "fig5".into(),
            unit: "crystm02/FF".into(),
            matrix: "crystm02".into(),
            matrix_fingerprint: 7,
            scale: "quick".into(),
            engine_version: crate::ENGINE_VERSION,
            config: rsls_core::RunConfig::new(rsls_core::Scheme::FaultFree, 8),
        };
        let spec_hash = spec.content_hash();
        let rhash = cache.store(&spec_hash, &report()).unwrap();
        let prov = Provenance::for_unit(&spec, &rhash, None);
        cache.store_provenance(&prov).unwrap();
        assert_eq!(cache.load_provenance(&spec_hash), Some(prov));
        assert!(cache.load_provenance(&"0".repeat(64)).is_none());
        assert_eq!(cache.unit_spec_hashes(), vec![spec_hash.clone()]);
        assert_eq!(cache.object_hashes(), vec![rhash]);
        // Re-storing writes identical bytes (byte-determinism).
        let first = fs::read(cache.provenance_path(&spec_hash)).unwrap();
        cache
            .store_provenance(&Provenance::for_unit(
                &spec,
                &cache.object_hash(&spec_hash).unwrap(),
                None,
            ))
            .unwrap();
        let second = fs::read(cache.provenance_path(&spec_hash)).unwrap();
        assert_eq!(first, second);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recipe_entries_verify_themselves() {
        let dir = tmp_dir("recipes");
        let cache = ResultCache::open(&dir).unwrap();
        let recipe = "suite v1 Kuu quick rows=7102";
        assert_eq!(cache.load_recipe(recipe), RecipeLookup::Miss);
        cache.store_recipe(recipe, 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(
            cache.load_recipe(recipe),
            RecipeLookup::Hit(0x0123_4567_89ab_cdef)
        );
        let path = cache.recipe_path(recipe);
        let good = fs::read(&path).unwrap();
        assert!(path.starts_with(dir.join("recipes")));
        // Re-storing writes identical bytes.
        cache.store_recipe(recipe, 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(fs::read(&path).unwrap(), good);

        let text = String::from_utf8(good.clone()).unwrap();
        let tampered = [
            // Torn and truncated.
            text[..text.len() / 2].to_string(),
            String::new(),
            // Still valid JSON, but the fingerprint no longer matches
            // its check.
            text.replace("0123456789abcdef", "0123456789abcdee"),
            // An intact entry of another recipe under this name.
            text.replace(recipe, "suite v1 Kuu full rows=7102"),
            "not json".to_string(),
        ];
        for bad in tampered {
            fs::write(&path, &bad).unwrap();
            assert_eq!(cache.load_recipe(recipe), RecipeLookup::Corrupt, "{bad}");
        }
        // Another recipe has its own entry.
        assert_eq!(cache.load_recipe("suite v2 Kuu quick"), RecipeLookup::Miss);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hex_validation() {
        assert!(is_sha256_hex(&"a".repeat(64)));
        assert!(!is_sha256_hex(&"A".repeat(64)));
        assert!(!is_sha256_hex(&"a".repeat(63)));
        assert!(!is_sha256_hex("../../../etc/passwd"));
    }
}
