//! Units and kernels share one core budget: `jobs` bounds the units in
//! flight, and a unit's kernels borrow only the cores no running unit
//! occupies. Read from the kernel pool's own counter of lent helpers.
//!
//! The budget is two cores (`RAYON_NUM_THREADS=2`, set before anything
//! reads it — this binary holds one test so nothing else can).

use std::sync::Barrier;

use rsls_campaign::{matrix_fingerprint, Engine, EngineOptions, UnitSpec, ENGINE_VERSION};
use rsls_core::driver::{run, RunConfig};
use rsls_core::Scheme;
use rsls_sparse::generators::stencil_2d;

/// Helpers lent while `jobs` workers run a batch of two units that each
/// call one 9-chunk kernel. With two workers, both are inside their
/// kernel call together.
fn helpers_lent(jobs: usize) -> u64 {
    let a = stencil_2d(12, 12);
    let x = vec![1.0; a.nrows()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&x, &mut b);
    let fp = matrix_fingerprint(
        a.nrows(),
        a.ncols(),
        a.row_ptr(),
        a.col_idx(),
        a.values(),
        &b,
    );
    let units: Vec<UnitSpec> = [2, 4]
        .into_iter()
        .map(|ranks| UnitSpec {
            experiment: "budget".into(),
            unit: format!("jobs{jobs}/r{ranks}"),
            matrix: "stencil".into(),
            matrix_fingerprint: fp,
            scale: "quick".into(),
            engine_version: ENGINE_VERSION,
            config: RunConfig::new(Scheme::FaultFree, ranks),
        })
        .collect();
    let together = (jobs > 1).then(|| Barrier::new(2));
    let engine = Engine::new(EngineOptions {
        jobs,
        use_cache: false,
        ..EngineOptions::default()
    })
    .unwrap();
    let before = rayon::pool_stats().lent;
    let outcomes = engine.run_units(&units, |spec| {
        let mut y = vec![0.0; a.nrows()];
        together.as_ref().map(Barrier::wait);
        a.par_spmv_chunked(&x, &mut y, 16);
        together.as_ref().map(Barrier::wait);
        assert_eq!(y, b);
        run(&a, &b, &spec.config)
    });
    assert!(outcomes.iter().all(|o| o.report.is_some()));
    rayon::pool_stats().lent - before
}

#[test]
fn units_in_flight_leave_kernels_only_the_cores_they_do_not_occupy() {
    std::env::set_var("RAYON_NUM_THREADS", "2");
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("SKIPPED: one core leaves the pool no helper to lend");
        return;
    }
    assert_eq!(helpers_lent(2), 0, "two units on two cores: no helper");
    assert_eq!(
        helpers_lent(1),
        2,
        "one unit at a time: one helper per kernel"
    );
}
