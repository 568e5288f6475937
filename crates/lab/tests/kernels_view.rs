//! The `kernels` view: the benchmark run files (`*.json`) of one
//! directory flattened to long-format rows, queryable through the same
//! SQL surface as the campaign views, with tolerant decode and
//! deterministic bytes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use rsls_lab::{Datum, Warehouse};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsls-lab-kernels-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creates temp dir");
    dir
}

/// An empty warehouse with kernels attached from `dir`. Loading a store
/// creates its directories, so the empty one is a throwaway temp dir of
/// its own — never under `dir`, which may be the checkout or may have to
/// stay missing.
fn warehouse_over(dir: &std::path::Path) -> Warehouse {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let store = tmp_dir(&format!("store-{}", CALLS.fetch_add(1, Ordering::Relaxed)));
    let mut w = Warehouse::load(&store, None).expect("empty store loads");
    let _ = std::fs::remove_dir_all(&store);
    w.attach_kernels(dir);
    w
}

#[test]
fn bench_baselines_flatten_sorted_and_queryable() {
    let dir = tmp_dir("flatten");
    std::fs::write(
        dir.join("baseline-run.json"),
        r#"{"version": 1, "host": {"threads": 1, "triad_gbs": 0.8356}}"#,
    )
    .unwrap();
    std::fs::write(
        dir.join("after.json"),
        r#"{"version": 2, "host": {"triad_gbs": 1.0},
            "runs": [{"workload": "serve_read", "ops_per_s": 900.5}]}"#,
    )
    .unwrap();
    // Non-JSON neighbours are ignored and subdirectories are not
    // entered; an unparsable run file is rejected.
    std::fs::write(dir.join("Cargo.toml"), "[package]").unwrap();
    std::fs::create_dir(dir.join("src")).unwrap();
    std::fs::write(dir.join("src").join("deeper.json"), "{\"version\": 3}").unwrap();
    std::fs::write(dir.join("broken.json"), "not json").unwrap();

    let w = warehouse_over(&dir);
    assert_eq!(w.rejected, 1, "the unparsable run file counts as rejected");
    let kernels = w.view("kernels").expect("kernels view exists");
    assert_eq!(kernels.columns, vec!["source", "metric", "value"]);
    // Long-format rows in (source, metric) order; array leaves get
    // numeric path segments.
    let rows: Vec<(String, String, Datum)> = kernels
        .rows
        .iter()
        .map(|r| match (&r[0], &r[1]) {
            (Datum::Str(s), Datum::Str(m)) => (s.clone(), m.clone(), r[2].clone()),
            other => panic!("unexpected row shape: {other:?}"),
        })
        .collect();
    let expected: Vec<(String, String, Datum)> = [
        ("after", "host.triad_gbs", Datum::Float(1.0)),
        ("after", "runs.0.ops_per_s", Datum::Float(900.5)),
        (
            "after",
            "runs.0.workload",
            Datum::Str("serve_read".to_string()),
        ),
        ("after", "version", Datum::Int(2)),
        ("baseline-run", "host.threads", Datum::Int(1)),
        ("baseline-run", "host.triad_gbs", Datum::Float(0.8356)),
        ("baseline-run", "version", Datum::Int(1)),
    ]
    .into_iter()
    .map(|(s, m, v)| (s.to_string(), m.to_string(), v))
    .collect();
    assert_eq!(rows, expected);

    // The SQL surface sees the view like any other, and repeated loads
    // return byte-identical canonical JSON (the perf-trajectory query).
    let sql = "SELECT source, value FROM kernels \
               WHERE metric = 'host.triad_gbs' ORDER BY source";
    let first = w.query(sql).expect("query runs").to_canonical_json();
    assert!(
        first.contains("baseline-run") && first.contains("0.8356"),
        "{first}"
    );
    let again = warehouse_over(&dir)
        .query(sql)
        .expect("query runs")
        .to_canonical_json();
    assert_eq!(first, again, "kernels queries are deterministic");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_baseline_run_is_queryable_from_the_checkout() {
    let w = warehouse_over(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmark"));
    let found = w.view("kernels").unwrap().rows.iter().any(|r| {
        r[0] == Datum::Str("baseline-run".to_string())
            && r[1] == Datum::Str("runs.0.workload".to_string())
    });
    assert!(found, "baseline-run.json flattens into the kernels view");
}

#[test]
fn missing_bench_dir_is_an_empty_view() {
    let dir = tmp_dir("missing");
    let missing = dir.join("does-not-exist");
    let w = warehouse_over(&missing);
    assert!(!missing.exists(), "the loader must not create it");
    assert_eq!(w.view("kernels").unwrap().rows.len(), 0);
    assert_eq!(w.rejected, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
