//! A line-up's unit specs record the scale the harness was *called*
//! with, not whatever `RSLS_SCALE` says: the scale label is part of the
//! spec's content hash, its provenance sidecar and the warehouse's
//! `runs.scale` column, so `registry.run(id, Scale::Full)` in a process
//! with the variable unset must not file its results under `"quick"`.

use std::sync::Arc;

use rsls_campaign::{Engine, EngineOptions};
use rsls_experiments::campaign;
use rsls_experiments::runners::run_standard_lineup;
use rsls_experiments::Scale;
use rsls_sparse::generators::stencil_2d;

#[test]
fn lineup_provenance_records_the_scale_it_was_called_with() {
    let a = stencil_2d(12, 12);
    let ones = vec![1.0; a.nrows()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);

    // Both scales: whatever the environment says, one of them disagrees
    // with it.
    for scale in [Scale::Full, Scale::Quick] {
        let dir = std::env::temp_dir().join(format!(
            "rsls-lineup-scale-{}-{}",
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
        let (_ff, reports) = campaign::with_engine(Arc::clone(&engine), || {
            run_standard_lineup(&a, &b, 4, 2, "stencil-12", scale)
        });

        let cache = engine.cache().expect("caching enabled");
        let specs = cache.unit_spec_hashes();
        assert_eq!(specs.len(), reports.len(), "one stored unit per report");
        for spec_hash in specs {
            let prov = cache
                .load_provenance(&spec_hash)
                .expect("every stored unit has a sidecar");
            assert_eq!(prov.scale, scale.label(), "unit {}", prov.unit);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
