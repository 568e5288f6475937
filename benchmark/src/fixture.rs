//! The spec set, the fixture store, and the checks on a store.
//!
//! `S4` is the four experiments every workload is built from. The
//! fixture is the store one cold pass over `S4` leaves behind: 60
//! units, one object each, provenance sidecars and the journal. It is
//! built once per build of this program, in a child process (building
//! it in-process would leave the matrix interner and the artifact memo
//! warm for the workload that follows), and copied into each run's
//! private directory.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use rsls_campaign::{Engine, EngineOptions, ResultCache};
use rsls_core::{sha256_hex, RunReport};
use rsls_experiments::{campaign, ExperimentRegistry, Scale};
use rsls_serve::compute;

/// Experiments of the spec set, in run order: six matrices (Andrews,
/// Kuu, cvxbqp1, 5-point stencil, wathen100, crystm02), regular and
/// irregular, FF/CR/LI/LSI/CR-LC/ABFT-CR/MNF.
pub const S4: [&str; 4] = ["fig3", "fig4", "fig6", "fig5x"];

/// Suite matrices `S4` solves on.
pub const S4_MATRICES: [&str; 6] = [
    "Andrews",
    "Kuu",
    "cvxbqp1",
    "5-point stencil",
    "wathen100",
    "crystm02",
];

/// Everything the harness writes lives under this directory of the
/// checkout (the current directory).
pub const WORK_ROOT: &str = ".bench_work";

/// A campaign store: cache directory plus journal file.
#[derive(Debug, Clone)]
pub struct Store {
    /// `objects/`, `units/`, `provenance/` live here.
    pub cache: PathBuf,
    /// The JSONL journal.
    pub journal: PathBuf,
}

impl Store {
    /// The store rooted at `dir`.
    pub fn at(dir: &Path) -> Store {
        Store {
            cache: dir.join("cache"),
            journal: dir.join("campaign.journal"),
        }
    }

    /// Engine options over this store: cache and journal on, one job.
    /// `resume` appends to the journal instead of truncating it.
    pub fn engine_options(&self, resume: bool) -> EngineOptions {
        EngineOptions {
            jobs: 1,
            cache_dir: self.cache.clone(),
            use_cache: true,
            resume,
            journal_path: Some(self.journal.clone()),
            ..EngineOptions::default()
        }
    }

    /// A fresh engine over this store.
    pub fn open_engine(&self, resume: bool) -> io::Result<Arc<Engine>> {
        Engine::new(self.engine_options(resume)).map(Arc::new)
    }
}

/// A run's private directory under [`WORK_ROOT`], removed on drop.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.bench_work/<label>-<pid>` (emptying a stale one) and
    /// points `TMPDIR` into it, so checkpoint files the driver writes
    /// stay inside the checkout.
    pub fn create(label: &str) -> io::Result<WorkDir> {
        let root = std::env::current_dir()?.join(WORK_ROOT);
        let path = root.join(format!("{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        let tmp = path.join("tmp");
        fs::create_dir_all(&tmp)?;
        std::env::set_var("TMPDIR", &tmp);
        Ok(WorkDir { path })
    }

    /// A subdirectory path (not created).
    pub fn join(&self, leaf: &str) -> PathBuf {
        self.path.join(leaf)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Copies a directory tree of regular files.
pub fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Runs the experiments `ids` once under `engine`, returning each
/// experiment's canonical tables JSON (the bytes `/experiments/{id}`
/// serves). `around` wraps each harness call, for timing.
pub fn run_experiments(
    engine: &Arc<Engine>,
    ids: &[&str],
    mut around: impl FnMut(usize, &mut dyn FnMut()),
) -> Result<Vec<Vec<u8>>, String> {
    let registry = ExperimentRegistry::builtin();
    let mut bodies = Vec::with_capacity(ids.len());
    for (idx, id) in ids.iter().enumerate() {
        let mut tables = None;
        around(idx, &mut || {
            tables = campaign::with_engine(Arc::clone(engine), || registry.run(id, Scale::Quick));
        });
        let tables = tables.ok_or_else(|| format!("experiment {id} is not registered"))?;
        bodies.push(compute::tables_to_json(id, Scale::Quick, tables)?);
    }
    Ok(bodies)
}

/// What [`check_store`] found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreFacts {
    /// sha256 over the sorted object hashes, one per line.
    pub digest: String,
    /// Unit pointers in the store.
    pub units: u64,
    /// Objects in the store.
    pub objects: u64,
    /// Bytes under `objects/`, `units/` and `provenance/`.
    pub bytes: u64,
    /// Σ CG iterations over unit reports.
    pub iterations: u64,
    /// Σ virtual seconds over unit reports.
    pub virtual_s: f64,
    /// Σ joules over unit reports.
    pub energy_j: f64,
    /// Σ injected faults over unit reports.
    pub faults: u64,
    /// Σ checkpoint bytes written over unit reports.
    pub ckpt_bytes: u64,
    /// Checks that failed, one message each.
    pub failures: Vec<String>,
}

/// Invariants of one report: its phases sum to its time, and its
/// energy is its average power times its time.
pub fn check_report(report: &RunReport) -> Result<(), String> {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-300);
    if !close(report.breakdown.total_s(), report.time_s) {
        return Err(format!(
            "phases sum to {} but time_s is {}",
            report.breakdown.total_s(),
            report.time_s
        ));
    }
    if !close(report.energy_j, report.avg_power_w * report.time_s) {
        return Err(format!(
            "energy_j {} is not avg_power_w·time_s {}",
            report.energy_j,
            report.avg_power_w * report.time_s
        ));
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// Reads every object and unit pointer of `cache` straight from disk
/// and checks them: an object's sha256 is its file name, it decodes as
/// a report that satisfies [`check_report`], and every unit points at
/// an object that exists.
pub fn check_store(cache: &ResultCache) -> StoreFacts {
    let mut facts = StoreFacts::default();
    let hashes = cache.object_hashes();
    facts.digest = sha256_hex(hashes.join("\n").as_bytes());
    facts.objects = hashes.len() as u64;
    for hash in &hashes {
        match fs::read(cache.object_path(hash)) {
            Ok(bytes) if sha256_hex(&bytes) == *hash => {}
            Ok(_) => facts
                .failures
                .push(format!("object {hash}: sha256 is not its name")),
            Err(e) => facts.failures.push(format!("object {hash}: {e}")),
        }
    }
    for spec in cache.unit_spec_hashes() {
        facts.units += 1;
        let report = cache
            .object_hash(&spec)
            .and_then(|object| fs::read(cache.object_path(&object)).ok())
            .and_then(|bytes| serde_json::from_slice::<RunReport>(&bytes).ok());
        let Some(report) = report else {
            facts
                .failures
                .push(format!("unit {spec}: no decodable report"));
            continue;
        };
        if let Err(e) = check_report(&report) {
            facts.failures.push(format!("unit {spec}: {e}"));
        }
        facts.iterations += report.iterations as u64;
        facts.virtual_s += report.time_s;
        facts.energy_j += report.energy_j;
        facts.faults += report.faults_injected as u64;
        facts.ckpt_bytes += report.checkpoint_bytes_written;
    }
    facts.bytes = ["objects", "units", "provenance"]
        .iter()
        .map(|leaf| dir_bytes(&cache.dir().join(leaf)))
        .sum();
    facts
}

/// The fixture on disk.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Its store.
    pub store: Store,
    /// Canonical tables JSON of each `S4` experiment, as the cold pass
    /// produced them.
    pub cold_tables: Vec<Vec<u8>>,
    /// Seconds the cold pass that filled it took.
    pub fill_s: f64,
}

impl Fixture {
    fn load(dir: &Path) -> io::Result<Fixture> {
        let mut cold_tables = Vec::new();
        for id in S4 {
            cold_tables.push(fs::read(dir.join(format!("tables-{id}.json")))?);
        }
        let fill_s = fs::read_to_string(dir.join("fill_s"))?
            .trim()
            .parse()
            .map_err(io::Error::other)?;
        Ok(Fixture {
            store: Store::at(dir),
            cold_tables,
            fill_s,
        })
    }

    /// Copies the fixture's store into `dir`.
    pub fn copy_store_to(&self, dir: &Path) -> io::Result<Store> {
        let store = Store::at(dir);
        copy_tree(&self.store.cache, &store.cache)?;
        fs::copy(&self.store.journal, &store.journal)?;
        Ok(store)
    }
}

/// Fills `dir` with the fixture: one cold `S4` pass on an empty store,
/// then the cold tables and the fill time beside it. Runs in the child
/// process [`ensure_fixture`] starts.
pub fn make_fixture(dir: &Path) -> Result<(), String> {
    let io_err = |e: io::Error| format!("fixture: {e}");
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(io_err)?;
    let store = Store::at(dir);
    let engine = store.open_engine(false).map_err(io_err)?;
    let t0 = std::time::Instant::now();
    let tables = run_experiments(&engine, &S4, |_, call| call())?;
    let fill_s = t0.elapsed().as_secs_f64();
    let summary = engine.summary();
    if summary.failed + summary.degraded > 0 {
        return Err(format!(
            "fixture: {} units failed",
            summary.failed + summary.degraded
        ));
    }
    for (id, body) in S4.iter().zip(&tables) {
        fs::write(dir.join(format!("tables-{id}.json")), body).map_err(io_err)?;
    }
    fs::write(dir.join("fill_s"), format!("{fill_s}")).map_err(io_err)
}

/// A key that changes whenever this program is rebuilt, so a fixture
/// never outlives the code that produced it.
fn build_key() -> io::Result<String> {
    let exe = std::env::current_exe()?;
    let meta = fs::metadata(&exe)?;
    let mtime = meta
        .modified()?
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let mut h = rsls_core::Fnv1a::new();
    h.update(exe.to_string_lossy().as_bytes());
    h.update_u64(meta.len());
    h.update_u64(mtime as u64);
    Ok(format!("{:016x}", h.finish()))
}

/// The fixture for this build, made now if it is not there yet.
/// Fixtures of other builds are removed. The fixture is filled in a
/// scratch directory and renamed into place, so a half-made one is
/// never seen.
pub fn ensure_fixture() -> Result<Fixture, String> {
    let io_err = |e: io::Error| format!("fixture: {e}");
    let root = std::env::current_dir().map_err(io_err)?.join(WORK_ROOT);
    fs::create_dir_all(&root).map_err(io_err)?;
    let name = format!("fixture-{}", build_key().map_err(io_err)?);
    let dir = root.join(&name);
    if !dir.join("fill_s").exists() {
        for entry in fs::read_dir(&root).map_err(io_err)?.flatten() {
            let stale = entry.file_name().to_string_lossy().starts_with("fixture-");
            if stale {
                let _ = fs::remove_dir_all(entry.path());
            }
        }
        let scratch = root.join(format!("making-{name}-{}", std::process::id()));
        let status = Command::new(std::env::current_exe().map_err(io_err)?)
            .arg("make-fixture")
            .arg(&scratch)
            .status()
            .map_err(io_err)?;
        if !status.success() {
            let _ = fs::remove_dir_all(&scratch);
            return Err(format!("fixture: child exited with {status}"));
        }
        if fs::rename(&scratch, &dir).is_err() {
            // Another run finished the same fixture first.
            let _ = fs::remove_dir_all(&scratch);
        }
    }
    Fixture::load(&dir).map_err(io_err)
}
