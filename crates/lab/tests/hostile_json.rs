//! Ingest over JSON nobody checked: provenance sidecars and benchmark run
//! files are read from a shared directory without a hash in front of
//! them, so a file nested a million levels deep has to cost a `NULL` or a
//! rejected count — not the process. Also holds the shallow report decode
//! to the cells a full tree decode gives for the same bytes.

use std::path::PathBuf;

use rsls_campaign::{Provenance, ResultCache, UnitSpec, ENGINE_VERSION};
use rsls_core::driver::run;
use rsls_core::{sha256_hex, RunConfig, Scheme};
use rsls_lab::{Datum, Warehouse};
use rsls_sparse::generators::stencil_2d;

fn tmp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("rsls-lab-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Three real units (report, pointer, sidecar) in a fresh store.
fn filled_store(tag: &str) -> (ResultCache, Vec<UnitSpec>) {
    let cache = ResultCache::open(tmp_root(tag).join("cache")).expect("cache opens");
    let a = stencil_2d(16, 16);
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&vec![1.0; a.nrows()], &mut b);
    let specs: Vec<UnitSpec> = [Scheme::FaultFree, Scheme::Dmr, Scheme::cr_memory()]
        .into_iter()
        .map(|scheme| {
            let mut config = RunConfig::new(scheme, 4);
            config.record_history = true;
            UnitSpec {
                experiment: "hostile".to_string(),
                unit: scheme.label(),
                matrix: "stencil-16".to_string(),
                matrix_fingerprint: 7,
                scale: "quick".to_string(),
                engine_version: ENGINE_VERSION,
                config,
            }
        })
        .collect();
    for spec in &specs {
        let report = run(&a, &b, &spec.config);
        let report_hash = cache.store(&spec.content_hash(), &report).expect("stores");
        cache
            .store_provenance(&Provenance::for_unit(spec, &report_hash, None))
            .expect("sidecar stores");
    }
    (cache, specs)
}

fn deep_array() -> Vec<u8> {
    vec![b'['; 1_000_000]
}

fn deep_object() -> Vec<u8> {
    r#"{"a":"#.repeat(100_000).into_bytes()
}

#[test]
fn deeply_nested_sidecars_read_as_null_provenance() {
    let (cache, specs) = filled_store("sidecar");
    let clean = Warehouse::load(cache.dir(), None).expect("loads");
    assert_eq!((clean.ingested, clean.rejected), (3, 0));

    let hashes: Vec<String> = specs.iter().map(UnitSpec::content_hash).collect();
    std::fs::write(cache.provenance_path(&hashes[0]), deep_array()).expect("plants");
    std::fs::write(cache.provenance_path(&hashes[1]), deep_object()).expect("plants");

    let w = Warehouse::load(cache.dir(), None).expect("loads");
    assert_eq!((w.ingested, w.rejected), (3, 0));
    let spec_col = w.runs.column_index("spec_hash").expect("column");
    let experiment_col = w.runs.column_index("experiment").expect("column");
    let scheme_col = w.runs.column_index("scheme").expect("column");
    for row in &w.runs.rows {
        let planted = row[spec_col] == Datum::Str(hashes[0].clone())
            || row[spec_col] == Datum::Str(hashes[1].clone());
        let want = if planted {
            Datum::Null
        } else {
            Datum::Str("hostile".to_string())
        };
        assert_eq!(row[experiment_col], want);
        // The report cells come from the verified object either way.
        assert!(matches!(row[scheme_col], Datum::Str(_)));
    }
}

#[test]
fn deeply_nested_objects_and_run_files_are_rejected_and_counted() {
    let (cache, _) = filled_store("object");
    // A stored object is named by its own hash, so these verify — and
    // must then fail to decode, not overflow the stack.
    for (i, bytes) in [deep_array(), deep_object()].into_iter().enumerate() {
        let name = sha256_hex(&bytes);
        std::fs::write(cache.object_path(&name), &bytes).expect("plants object");
        std::fs::write(cache.unit_ref_path(&format!("{:064x}", i + 1)), &name).expect("plants ref");
    }
    let mut w = Warehouse::load(cache.dir(), None).expect("loads");
    assert_eq!((w.ingested, w.rejected), (3, 2));

    let bench_dir = cache.dir().join("bench");
    std::fs::create_dir_all(&bench_dir).expect("mkdir");
    std::fs::write(bench_dir.join("deep.json"), deep_array()).expect("plants run file");
    std::fs::write(bench_dir.join("ok.json"), br#"{"m":{"v":1.5}}"#).expect("plants run file");
    w.attach_kernels(&bench_dir);
    assert_eq!(w.rejected, 3);
    assert_eq!(w.kernels.rows.len(), 1);
}

#[test]
fn shallow_decode_keeps_the_cells_of_a_full_decode() {
    let (cache, _) = filled_store("cells");
    let w = Warehouse::load(cache.dir(), None).expect("loads");
    let columns = [
        ("scheme", "scheme"),
        ("ranks", "num_ranks"),
        ("iterations", "iterations"),
        ("converged", "converged"),
        ("residual", "final_relative_residual"),
        ("time", "time_s"),
        ("energy", "energy_j"),
        ("power", "avg_power_w"),
        ("faults", "faults_injected"),
        ("fallbacks", "construction_fallbacks"),
        ("checkpoint_interval", "checkpoint_interval_iters"),
    ];
    let report_col = w.runs.column_index("report_hash").expect("column");
    assert_eq!(w.runs.rows.len(), 3);
    for row in &w.runs.rows {
        let Datum::Str(report_hash) = &row[report_col] else {
            panic!("report_hash is text");
        };
        let bytes = cache.load_object(report_hash).expect("object verifies");
        assert!(bytes.len() > 1_000, "history was recorded");
        let tree = serde_json::from_slice::<serde_json::Value>(&bytes).expect("parses");
        for (column, field) in columns {
            let cell = &row[w.runs.column_index(column).expect("column")];
            let want = tree.get(field).map_or(Datum::Null, Datum::from_json);
            assert_eq!(cell, &want, "{column}");
        }
    }
}
