//! A unit spec records the scale its caller passed, not whatever
//! `RSLS_SCALE` says: the scale label is part of the spec's content
//! hash, its provenance sidecar and the warehouse's `runs.scale` column,
//! so `registry.run(id, Scale::Full)` in a process with the variable
//! unset must not file its results under `"quick"`. Every entry point
//! that submits units is checked: the line-up, the batch path, the
//! one-unit paths and the fault-free baseline.

use std::sync::Arc;

use rsls_campaign::{Engine, EngineOptions};
use rsls_core::interval::CheckpointInterval;
use rsls_core::{RunConfig, Scheme};
use rsls_experiments::artifacts::Workload;
use rsls_experiments::campaign;
use rsls_experiments::runners::{
    evenly_spaced_faults, execute_runs, resolve_lineup, run_cached, run_fault_free, run_lineup,
    run_standard_lineup, SchemeRun, TRADEOFF_LINEUP,
};
use rsls_experiments::Scale;
use rsls_sparse::generators::stencil_2d;
use rsls_sparse::CsrMatrix;

/// Runs `submit` on a private caching engine and checks that every
/// stored unit — as many as `submit` reports — records `scale`.
fn assert_units_record(scale: Scale, entry_point: &str, submit: impl FnOnce() -> usize) {
    let dir = std::env::temp_dir().join(format!(
        "rsls-lineup-scale-{entry_point}-{}-{}",
        scale.label(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Arc::new(
        Engine::new(EngineOptions {
            cache_dir: dir.clone(),
            use_cache: true,
            ..EngineOptions::default()
        })
        .expect("engine builds"),
    );
    let reports = campaign::with_engine(Arc::clone(&engine), submit);

    let cache = engine.cache().expect("caching enabled");
    let specs = cache.unit_spec_hashes();
    assert_eq!(
        specs.len(),
        reports,
        "{entry_point}: one stored unit per report"
    );
    for spec_hash in specs {
        let prov = cache
            .load_provenance(&spec_hash)
            .expect("every stored unit has a sidecar");
        assert_eq!(
            prov.scale,
            scale.label(),
            "{entry_point}: unit {}",
            prov.unit
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn stencil_12() -> (CsrMatrix, Vec<f64>) {
    let a = stencil_2d(12, 12);
    let ones = vec![1.0; a.nrows()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    (a, b)
}

#[test]
fn lineup_provenance_records_the_scale_it_was_called_with() {
    let (a, b) = stencil_12();
    let w = Workload::borrowed(&a, &b);
    // Both scales: whatever the environment says, one of them disagrees
    // with it.
    for scale in [Scale::Full, Scale::Quick] {
        assert_units_record(scale, "standard-lineup", || {
            run_standard_lineup(&w, 4, 2, "stencil-12", scale).1.len()
        });
        assert_units_record(scale, "fault-free", || {
            run_fault_free(&w, 4, scale);
            1
        });
        assert_units_record(scale, "execute", || {
            SchemeRun::on(&w, 4, Scheme::Dmr)
                .tag("stencil-12")
                .execute(scale);
            1
        });
        assert_units_record(scale, "run-cached", || {
            run_cached(&w, "stencil-12", scale, RunConfig::new(Scheme::Tmr, 4));
            1
        });
        assert_units_record(scale, "batch", || {
            let template = SchemeRun::fault_free(&w, 4)
                .faults(evenly_spaced_faults(2, 40, 4, "stencil-12"))
                .tag("stencil-12");
            let entries = resolve_lineup(TRADEOFF_LINEUP, CheckpointInterval::Young, None);
            let lineup = run_lineup(&template, &entries, scale);
            let sweep: Vec<_> = [2, 3]
                .map(|k| {
                    template
                        .clone()
                        .faults(evenly_spaced_faults(k, 40, 4, "sweep"))
                })
                .to_vec();
            lineup.len() + execute_runs(&sweep, scale).len()
        });
    }
}
