//! Determinism guarantees of the parallel hot paths.
//!
//! Two independent claims are pinned here:
//!
//! 1. The chunked parallel SpMV is **bit-identical** (`==`, not
//!    approximately equal) to the serial kernel on every matrix of the
//!    evaluation suite — each row is a serial reduction, so scheduling
//!    can never move a bit.
//! 2. A faulty multi-scheme campaign produces **byte-identical**
//!    canonical-JSON [`rsls_core::RunReport`]s whether the engine runs
//!    with one worker or four, *with the parallel kernels forced on*
//!    inside every solve.

use rsls_campaign::{Engine, EngineOptions, UnitSpec, ENGINE_VERSION};
use rsls_core::driver::run;
use rsls_core::interval::CheckpointInterval;
use rsls_core::RunConfig;
use rsls_experiments::runners::{evenly_spaced_faults, resolve_lineup, workload, STANDARD_LINEUP};
use rsls_experiments::{Scale, SUITE};
use rsls_sparse::csr::{set_par_spmv_threshold, PAR_SPMV_CHUNK_ROWS};
use rsls_sparse::generators::stencil_2d;
use rsls_sparse::CsrMatrix;

/// Deterministic pseudo-random probe vector.
fn probe(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
        .collect()
}

#[test]
fn suite_par_spmv_is_bit_identical_to_serial() {
    for spec in SUITE {
        let (a, _b) = workload(spec.name, Scale::Quick);
        let x = probe(a.ncols(), 42);
        let mut serial = vec![0.0; a.nrows()];
        a.spmv(&x, &mut serial);

        let mut par = vec![f64::NAN; a.nrows()];
        a.par_spmv(&x, &mut par);
        assert_eq!(par, serial, "par_spmv differs on {}", spec.name);

        // An awkward chunk size on top of the production one: chunk
        // boundaries must not matter either.
        for chunk in [PAR_SPMV_CHUNK_ROWS, 97] {
            let mut chunked = vec![f64::NAN; a.nrows()];
            a.par_spmv_chunked(&x, &mut chunked, chunk);
            assert_eq!(
                chunked, serial,
                "par_spmv_chunked({chunk}) differs on {}",
                spec.name
            );
        }
    }
}

/// The faulty scheme lineup on a stencil system (the fig. 3 workload
/// shape), executed on a private engine with `jobs` workers.
fn lineup_reports(a: &CsrMatrix, b: &[f64], jobs: usize) -> Vec<String> {
    let engine = Engine::new(EngineOptions {
        jobs,
        ..EngineOptions::default()
    })
    .expect("engine builds");
    let ranks = 4;
    let every = CheckpointInterval::EveryIterations(25);
    let specs: Vec<UnitSpec> = resolve_lineup(STANDARD_LINEUP, every, None)
        .into_iter()
        .map(|e| {
            let mut cfg = RunConfig::new(e.scheme, ranks).with_dvfs(e.dvfs);
            if !e.is_baseline() {
                cfg = cfg.with_faults(evenly_spaced_faults(2, 120, ranks, "determinism"));
            }
            UnitSpec {
                experiment: "parallel-determinism".to_string(),
                unit: e.scheme.label(),
                matrix: "stencil-40".to_string(),
                matrix_fingerprint: 0,
                scale: Scale::Quick.label().to_string(),
                engine_version: ENGINE_VERSION,
                config: cfg,
            }
        })
        .collect();
    engine
        .run_units(&specs, |spec| run(a, b, &spec.config))
        .into_iter()
        .map(|o| {
            let report = o.report.expect("unit succeeds");
            serde_json::to_string(&report).expect("report serializes")
        })
        .collect()
}

#[test]
fn faulty_campaign_is_byte_identical_across_job_counts() {
    // Force the parallel kernel inside every solve: the point is that
    // *with* row-chunked SpMV in the inner loop, worker count still
    // cannot move a byte of any report.
    set_par_spmv_threshold(1);

    let a = stencil_2d(40, 40);
    let ones = vec![1.0; a.nrows()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);

    let serial = lineup_reports(&a, &b, 1);
    let parallel = lineup_reports(&a, &b, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s, p, "RunReport bytes differ between --jobs 1 and --jobs 4");
    }
}
