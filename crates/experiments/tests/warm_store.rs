//! A warm store never builds an operator: over a store one cold
//! experiment filled, a process resolves every fingerprint from the
//! store's recipe memo, so its units all hit without generating or
//! hashing a matrix — and its tables are the cold tables.
//!
//! Its own test binary with a single test: the workload interner is
//! process-wide, so the cold fills run in `rsls-run` child processes and
//! this process's interner stays cold until the warm pass.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;

use rsls_campaign::{Engine, EngineOptions, ResultCache};
use rsls_experiments::{artifacts, campaign, suite, ExperimentRegistry, Scale, Table};

/// Runs `rsls-run --experiment fig3` on the store at `cache` at quick
/// scale; with `matrix_dir`, under `RSLS_MATRIX_DIR`. Returns what it
/// printed between the experiment's `>>>` and `<<<` lines — its tables
/// — and its stderr.
fn rsls_run_fig3(cache: &Path, matrix_dir: Option<&Path>) -> (String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rsls-run"));
    cmd.args(["--experiment", "fig3", "--cache-dir"])
        .arg(cache)
        .env_remove("RSLS_SCALE")
        .env_remove("RSLS_MATRIX_DIR");
    if let Some(dir) = matrix_dir {
        cmd.env("RSLS_MATRIX_DIR", dir);
    }
    let out = cmd.output().expect("rsls-run starts");
    assert!(
        out.status.success(),
        "rsls-run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
    let body = stdout
        .split_once("\n>>> fig3")
        .and_then(|(_, rest)| rest.split_once('\n'))
        .and_then(|(_, rest)| rest.split_once("<<< fig3"))
        .map(|(tables, _)| tables.to_string());
    let tables = body.unwrap_or_else(|| panic!("no fig3 block in:\n{stdout}"));
    (tables, stderr)
}

/// Tables as `rsls-run` prints them.
fn printed(tables: &[Table]) -> String {
    tables.iter().map(|t| format!("{}\n", t.render())).collect()
}

/// Every file under `units/` and `recipes/` of the store, with its bytes.
fn snapshot(cache: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for leaf in ["units", "recipes"] {
        let Ok(entries) = std::fs::read_dir(cache.join(leaf)) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("dir entry").path();
            let name = format!("{leaf}/{}", path.file_name().unwrap().to_string_lossy());
            files.insert(name, std::fs::read(&path).expect("readable file"));
        }
    }
    files
}

fn recipes(files: &BTreeMap<String, Vec<u8>>) -> Vec<String> {
    files
        .keys()
        .filter(|name| name.starts_with("recipes/"))
        .cloned()
        .collect()
}

#[test]
fn warm_processes_build_no_operator_and_the_recipe_memo_heals_itself() {
    let base = std::env::temp_dir().join(format!("rsls-warm-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // A warm pass in this process: no generation, no operator hash, the
    // cold tables, and not one byte written to the store.
    let warm = base.join("warm").join("cache");
    let (cold_tables, _) = rsls_run_fig3(&warm, None);
    let cold_files = snapshot(&warm);
    let andrews_entry = cold_files[&recipes(&cold_files)[0]].clone();
    assert_eq!(recipes(&cold_files).len(), 1, "fig3 runs on Andrews only");
    let engine = Arc::new(
        Engine::new(EngineOptions {
            cache_dir: warm.clone(),
            use_cache: true,
            ..EngineOptions::default()
        })
        .expect("engine opens"),
    );
    let before = artifacts::stats();
    let tables = campaign::with_engine(Arc::clone(&engine), || {
        ExperimentRegistry::builtin().run("fig3", Scale::Quick)
    })
    .expect("fig3 is registered");
    let after = artifacts::stats();
    assert_eq!(
        after.misses, before.misses,
        "a warm pass generated a matrix"
    );
    assert_eq!(
        after.fingerprint_misses, before.fingerprint_misses,
        "a warm pass hashed an operator"
    );
    let summary = engine.summary();
    assert_eq!((summary.executed, summary.cache_hits), (0, summary.total));
    assert_eq!(printed(&tables), cold_tables);
    assert_eq!(
        snapshot(&warm),
        cold_files,
        "a warm pass wrote to the store"
    );
    assert_eq!(
        rayon::pool_stats().helpers,
        0,
        "a warm pass started a kernel helper"
    );

    // A torn entry is never a fingerprint: the operator is hashed again,
    // every unit still hits under its old spec hash, and the entry is
    // rewritten to the bytes it had.
    let torn = base.join("torn").join("cache");
    let (cold_tables, _) = rsls_run_fig3(&torn, None);
    let cold_files = snapshot(&torn);
    let entry = torn.join(&recipes(&cold_files)[0]);
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(rsls_run_fig3(&torn, None).0, cold_tables);
    assert_eq!(snapshot(&torn), cold_files);

    // Under RSLS_MATRIX_DIR the memo is neither read nor written: a
    // planted entry with a wrong fingerprint leaves the spec hashes
    // alone and stays as it was.
    let bypass = base.join("bypass").join("cache");
    let empty = base.join("no-matrices");
    std::fs::create_dir_all(&empty).unwrap();
    let recipe = suite::by_name("Andrews")
        .unwrap()
        .recipe(Scale::Quick)
        .expect("RSLS_MATRIX_DIR is unset here");
    ResultCache::open(&bypass)
        .unwrap()
        .store_recipe(&recipe, 0xdead_beef)
        .unwrap();
    let planted = snapshot(&bypass);
    assert_eq!(rsls_run_fig3(&bypass, Some(&empty)).0, cold_tables);
    let files = snapshot(&bypass);
    assert_eq!(
        files
            .iter()
            .filter(|(name, _)| name.starts_with("recipes/"))
            .collect::<Vec<_>>(),
        planted.iter().collect::<Vec<_>>()
    );
    assert_eq!(
        files
            .keys()
            .filter(|name| name.starts_with("units/"))
            .collect::<Vec<_>>(),
        cold_files
            .keys()
            .filter(|name| name.starts_with("units/"))
            .collect::<Vec<_>>(),
        "the memo's wrong fingerprint reached a spec hash"
    );

    // Without it, the planted entry is believed until a unit misses and
    // the operator is generated: then the disagreement is reported and
    // the entry rewritten to the true fingerprint.
    let stale = base.join("stale").join("cache");
    ResultCache::open(&stale)
        .unwrap()
        .store_recipe(&recipe, 0xdead_beef)
        .unwrap();
    let (_, stderr) = rsls_run_fig3(&stale, None);
    assert!(stderr.contains("bump GENERATOR_VERSION"), "{stderr}");
    let files = snapshot(&stale);
    assert_eq!(recipes(&files), recipes(&cold_files));
    assert_eq!(files[&recipes(&files)[0]], andrews_entry);

    let _ = std::fs::remove_dir_all(&base);
}
