//! The chaos soak: a campaign under an aggressive infrastructure
//! fault-injection plan must produce reports **byte-identical** to a
//! fault-free run.
//!
//! This is the headline robustness claim of the chaos layer: torn cache
//! writes, corrupted/truncated/transiently-failing cache reads, torn
//! journal appends, and injected unit panics are all absorbed by the
//! self-healing store, journal repair, and backoff retries — the
//! science output does not change by a single byte. The test also
//! asserts the faults *actually fired* (per-site counters), so a green
//! run proves resilience rather than quiet luck.

#![expect(
    clippy::disallowed_methods,
    reason = "unguarded: scratch stores, and the byte comparison of what each run stored"
)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rsls_campaign::{
    matrix_fingerprint, Engine, EngineOptions, UnitSpec, UnitStatus, ENGINE_VERSION,
};
use rsls_chaos::{ChaosInjector, ChaosPlan};
use rsls_core::driver::{run, RunConfig};
use rsls_core::interval::CheckpointInterval;
use rsls_core::Scheme;
use rsls_faults::{FaultClass, FaultSchedule};
use rsls_sparse::generators::stencil_2d;
use rsls_sparse::CsrMatrix;

/// The soak seed. The plan is aggressive enough that every hook fires,
/// and the decisions are a pure function of this seed, so the
/// counter assertions below are deterministic.
const SOAK_SEED: u64 = 42;

fn workload() -> (CsrMatrix, Vec<f64>) {
    let a = stencil_2d(12, 12);
    let ones = vec![1.0; a.nrows()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    (a, b)
}

fn specs(a: &CsrMatrix, b: &[f64]) -> Vec<UnitSpec> {
    let fp = matrix_fingerprint(
        a.nrows(),
        a.ncols(),
        a.row_ptr(),
        a.col_idx(),
        a.values(),
        b,
    );
    let mut units: Vec<UnitSpec> = (2..=9)
        .map(|r| UnitSpec {
            experiment: "soak".into(),
            unit: format!("stencil/r{r}"),
            matrix: "stencil".into(),
            matrix_fingerprint: fp,
            scale: "quick".into(),
            engine_version: ENGINE_VERSION,
            config: RunConfig::new(Scheme::FaultFree, r),
        })
        .collect();
    // The recovery-scheme mix: each of the new schemes takes a fault
    // mid-run, so their checkpoint save/restore (CR-LC, ABFT-CR) and
    // union reconstruction (MNF) run *under* the injected checkpoint
    // I/O faults — the paths the `ckpt-write-torn` / `ckpt-read-error`
    // sites target.
    let interval = CheckpointInterval::EveryIterations(5);
    let recovery: [(&str, RunConfig); 3] = [
        (
            "stencil/CR-LC",
            RunConfig::new(
                Scheme::LossyCheckpoint {
                    interval,
                    keep_mantissa_bits: 30,
                },
                8,
            )
            .with_faults(FaultSchedule::single_at_iteration(12, 3, FaultClass::Snf)),
        ),
        (
            "stencil/ABFT-CR",
            RunConfig::new(Scheme::AbftCheckpoint { interval }, 8)
                .with_faults(FaultSchedule::single_at_iteration(12, 3, FaultClass::Snf)),
        ),
        (
            "stencil/MNF",
            RunConfig::new(Scheme::mnf(), 8).with_faults(FaultSchedule::multiple_at_iteration(
                12,
                &[0, 2],
                FaultClass::Snf,
            )),
        ),
    ];
    for (unit, mut config) in recovery {
        config.run_tag = unit.replace('/', "-");
        units.push(UnitSpec {
            experiment: "soak".into(),
            unit: unit.into(),
            matrix: "stencil".into(),
            matrix_fingerprint: fp,
            scale: "quick".into(),
            engine_version: ENGINE_VERSION,
            config,
        });
    }
    units
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsls-chaos-soak-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Serial (jobs=1) options so every injection decision index — and
/// hence the full fault pattern — is reproducible from the seed alone.
fn options(dir: &Path, resume: bool, chaos: Option<Arc<ChaosInjector>>) -> EngineOptions {
    EngineOptions {
        jobs: 1,
        cache_dir: dir.join("cache"),
        use_cache: true,
        resume,
        journal_path: Some(dir.join("campaign.journal")),
        retries: 8,
        retry_backoff_ms: 1,
        retry_backoff_cap_ms: 4,
        // The soak wants every unit to complete; breaker behavior has
        // its own test in campaign_integration.rs.
        circuit_threshold: 0,
        chaos,
    }
}

/// Every object in the store, by filename — the byte-level ground truth
/// the soak compares.
fn object_map(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut map = BTreeMap::new();
    for entry in fs::read_dir(dir.join("cache").join("objects")).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        map.insert(name, fs::read(entry.path()).unwrap());
    }
    map
}

fn report_bytes(outcomes: &[rsls_campaign::UnitOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| {
            serde_json::to_string(
                o.report.as_ref().unwrap_or_else(|| {
                    panic!("unit {} has no report (status {:?})", o.name, o.status)
                }),
            )
            .unwrap()
        })
        .collect()
}

#[test]
fn chaos_soak_is_byte_identical_to_fault_free_run() {
    let (a, b) = workload();
    let units = specs(&a, &b);
    let runner = |spec: &UnitSpec| run(&a, &b, &spec.config);

    // Fault-free baseline.
    let base_dir = scratch("baseline");
    let baseline = Engine::new(options(&base_dir, false, None)).unwrap();
    let base_out = baseline.run_units(&units, runner);
    assert!(base_out.iter().all(|o| o.status == UnitStatus::Executed));
    let base_reports = report_bytes(&base_out);
    let base_objects = object_map(&base_dir);
    assert_eq!(base_objects.len(), units.len());
    drop(baseline);

    // Cold chaos pass: fresh cache, aggressive plan. Write-side faults
    // (torn cache writes, torn journal appends, unit panics) dominate.
    let chaos_dir = scratch("chaos");
    let cold = Arc::new(ChaosInjector::new(ChaosPlan::aggressive(SOAK_SEED)));
    let engine = Engine::new(options(&chaos_dir, false, Some(Arc::clone(&cold)))).unwrap();
    let out = engine.run_units(&units, runner);
    for o in &out {
        assert!(
            o.status == UnitStatus::Executed || o.status == UnitStatus::Cached,
            "unit {} must complete under chaos, got {:?} ({:?})",
            o.name,
            o.status,
            o.error
        );
    }
    assert_eq!(
        report_bytes(&out),
        base_reports,
        "chaos reports must be byte-identical to the fault-free baseline"
    );
    assert_eq!(
        object_map(&chaos_dir),
        base_objects,
        "chaos object store must be byte-identical to the fault-free baseline"
    );
    let s = engine.summary();
    assert!(
        cold.total_fired() > 0,
        "an aggressive plan must actually fire (fired: {})",
        cold.fired_summary()
    );
    assert!(
        s.retries > 0,
        "injected unit faults must be absorbed by retries (fired: {})",
        cold.fired_summary()
    );
    drop(engine);

    // Warm chaos pass over the now-populated cache: read-side faults
    // (transient errors, corruption, truncation) dominate, exercising
    // verify-on-read, quarantine, and recompute.
    let warm = Arc::new(ChaosInjector::new(ChaosPlan::aggressive(SOAK_SEED)));
    let engine = Engine::new(options(&chaos_dir, true, Some(Arc::clone(&warm)))).unwrap();
    let out = engine.run_units(&units, runner);
    for o in &out {
        assert!(
            o.status == UnitStatus::Executed || o.status == UnitStatus::Cached,
            "unit {} must complete on the warm pass, got {:?} ({:?})",
            o.name,
            o.status,
            o.error
        );
    }
    assert_eq!(
        report_bytes(&out),
        base_reports,
        "warm-pass reports must be byte-identical to the baseline"
    );
    assert_eq!(
        object_map(&chaos_dir),
        base_objects,
        "self-healing must leave the object store byte-identical (quarantined objects are recomputed and re-stored)"
    );
    let s = engine.summary();
    assert!(
        s.corrupt_detected > 0 && s.quarantined > 0,
        "read-side corruption must be detected and quarantined, not silently missed \
         (corrupt_detected={}, quarantined={}, fired: {})",
        s.corrupt_detected,
        s.quarantined,
        warm.fired_summary()
    );
    // Quarantined objects really are set aside on disk, not deleted.
    let quarantine = chaos_dir.join("cache").join("quarantine");
    assert!(
        fs::read_dir(&quarantine).map(|d| d.count()).unwrap_or(0) as u64 >= 1,
        "quarantine/ must hold the objects that failed verification"
    );

    // The torn journal appends left a parseable journal: every line is
    // either valid JSON or the (repaired-on-resume) torn tail.
    let journal = fs::read_to_string(chaos_dir.join("campaign.journal")).unwrap();
    let complete_lines = journal
        .lines()
        .filter(|l| serde_json::from_str::<serde_json::Value>(l).is_ok())
        .count();
    assert!(
        complete_lines > 0,
        "journal must retain complete records under torn appends"
    );

    let _ = fs::remove_dir_all(&base_dir);
    let _ = fs::remove_dir_all(&chaos_dir);
}

/// Different seeds inject different fault patterns; the output bytes
/// must not depend on the pattern.
#[test]
fn chaos_soak_output_is_seed_invariant() {
    let (a, b) = workload();
    let units = specs(&a, &b);
    let runner = |spec: &UnitSpec| run(&a, &b, &spec.config);

    let mut stores: Vec<BTreeMap<String, Vec<u8>>> = Vec::new();
    for seed in [1u64, 2, 3] {
        let dir = scratch(&format!("seed{seed}"));
        let injector = Arc::new(ChaosInjector::new(ChaosPlan::aggressive(seed)));
        let engine = Engine::new(options(&dir, false, Some(injector))).unwrap();
        let out = engine.run_units(&units, runner);
        assert!(
            out.iter().all(|o| o.report.is_some()),
            "all units complete under seed {seed}"
        );
        stores.push(object_map(&dir));
        let _ = fs::remove_dir_all(&dir);
    }
    assert_eq!(stores[0], stores[1]);
    assert_eq!(stores[1], stores[2]);
}
