//! Full-stack pipeline tests: matrix generation → serialization → solve →
//! fault injection → recovery → reporting, with cross-cutting invariants
//! (energy = ∫P dt, breakdown consistency, determinism).

use std::io::BufReader;

use rsls_core::driver::{run, RunConfig};
use rsls_core::{DvfsPolicy, Scheme};
use rsls_faults::{FaultClass, FaultSchedule};
use rsls_sparse::generators::{stencil_2d, wathen};
use rsls_sparse::io::{read_matrix_market, write_matrix_market};
use rsls_sparse::CsrMatrix;

fn rhs(a: &CsrMatrix) -> Vec<f64> {
    let ones = vec![1.0; a.nrows()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    b
}

#[test]
fn matrix_market_round_trip_preserves_solver_behaviour() {
    let a = wathen(6, 6, 3);
    let mut buf = Vec::new();
    write_matrix_market(&a, &mut buf).unwrap();
    let a2 = read_matrix_market(BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(a, a2);

    let b = rhs(&a);
    let r1 = run(&a, &b, &RunConfig::new(Scheme::FaultFree, 4));
    let r2 = run(&a2, &b, &RunConfig::new(Scheme::FaultFree, 4));
    assert_eq!(r1.iterations, r2.iterations);
    assert_eq!(r1.energy_j, r2.energy_j);
}

#[test]
fn energy_equals_average_power_times_time() {
    let a = stencil_2d(40, 40);
    let b = rhs(&a);
    let ff = run(&a, &b, &RunConfig::new(Scheme::FaultFree, 8));
    let faults = FaultSchedule::evenly_spaced(3, ff.iterations, 8, FaultClass::Snf, 1);
    for scheme in [
        Scheme::FaultFree,
        Scheme::Dmr,
        Scheme::li_local_cg(),
        Scheme::cr_memory(),
    ] {
        let mut cfg = RunConfig::new(scheme, 8).with_faults(faults.clone());
        cfg.run_tag = format!("pipe-{}", scheme.label().replace([' ', '(', ')'], ""));
        let r = run(&a, &b, &cfg);
        assert!(
            (r.energy_j - r.avg_power_w * r.time_s).abs() <= 1e-6 * r.energy_j,
            "{}: E = {} vs P*T = {}",
            r.scheme,
            r.energy_j,
            r.avg_power_w * r.time_s
        );
        // The power profile integrates to the same energy.
        let integral: f64 = r
            .power_profile
            .iter()
            .map(|s| s.watts * (s.t1 - s.t0))
            .sum();
        assert!((integral - r.energy_j).abs() <= 1e-6 * r.energy_j);
        // The breakdown covers the whole run.
        assert!((r.breakdown.total_s() - r.time_s).abs() <= 1e-6 * r.time_s.max(1e-12));
    }
}

#[test]
fn reports_are_bitwise_deterministic() {
    let a = stencil_2d(30, 30);
    let b = rhs(&a);
    let ff = run(&a, &b, &RunConfig::new(Scheme::FaultFree, 8));
    let faults = FaultSchedule::evenly_spaced(4, ff.iterations, 8, FaultClass::Sdc, 9);
    let mut cfg = RunConfig::new(Scheme::lsi_local_cg(), 8)
        .with_faults(faults)
        .with_dvfs(DvfsPolicy::ThrottleWaiters);
    cfg.record_history = true;
    let r1 = run(&a, &b, &cfg);
    let r2 = run(&a, &b, &cfg);
    assert_eq!(r1.iterations, r2.iterations);
    assert_eq!(r1.time_s.to_bits(), r2.time_s.to_bits());
    assert_eq!(r1.energy_j.to_bits(), r2.energy_j.to_bits());
    assert_eq!(r1.history.len(), r2.history.len());
}

#[test]
fn run_report_serializes_to_json() {
    let a = stencil_2d(20, 20);
    let b = rhs(&a);
    let r = run(&a, &b, &RunConfig::new(Scheme::FaultFree, 4));
    let json = serde_json::to_string(&r).expect("RunReport must serialize");
    assert!(json.contains("\"scheme\":\"FF\""));
    let back: rsls_core::RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.iterations, r.iterations);
}

#[test]
fn pinned_frequency_trades_time_for_power() {
    let a = stencil_2d(40, 40);
    let b = rhs(&a);
    let fast = run(&a, &b, &RunConfig::new(Scheme::FaultFree, 8));
    let mut cfg = RunConfig::new(Scheme::FaultFree, 8);
    cfg.frequency_ghz = Some(1.2);
    let slow = run(&a, &b, &cfg);
    assert_eq!(fast.iterations, slow.iterations, "math unchanged");
    assert!(slow.time_s > fast.time_s, "throttled run must be slower");
    assert!(
        slow.avg_power_w < fast.avg_power_w,
        "throttled run must draw less power"
    );
}

#[test]
fn every_fault_class_is_recoverable() {
    let a = stencil_2d(30, 30);
    let b = rhs(&a);
    let ff = run(&a, &b, &RunConfig::new(Scheme::FaultFree, 8));
    for class in [
        FaultClass::Snf,
        FaultClass::Due,
        FaultClass::Sdc,
        FaultClass::Lnf,
    ] {
        let faults = FaultSchedule::evenly_spaced(3, ff.iterations, 8, class, 4);
        let r = run(
            &a,
            &b,
            &RunConfig::new(Scheme::li_local_cg(), 8).with_faults(faults),
        );
        assert!(r.converged, "{class:?} not recovered");
        assert_eq!(r.faults_injected, 3);
    }
}

#[test]
fn zero_fault_schedule_matches_fault_free_for_any_forward_scheme() {
    let a = stencil_2d(25, 25);
    let b = rhs(&a);
    let ff = run(&a, &b, &RunConfig::new(Scheme::FaultFree, 4));
    for scheme in [Scheme::li_local_cg(), Scheme::lsi_local_cg(), Scheme::Dmr] {
        let r = run(&a, &b, &RunConfig::new(scheme, 4));
        assert_eq!(r.iterations, ff.iterations);
        assert_eq!(r.time_s, ff.time_s, "{}", r.scheme);
    }
}

#[test]
fn distributed_cg_validates_the_drivers_communication_model() {
    // The exchange an SPMD code performs and the driver's logical model
    // must agree on the data actually moved: the driver charges
    // per-iteration halo volume derived from off-block nonzeros; the halo
    // plan moves exactly the deduplicated halo entries. The model may
    // over-charge (it counts nonzeros, not unique columns) but never
    // under-charge.
    use rsls_solvers::HaloPlan;
    use rsls_sparse::Partition;

    let a = stencil_2d(40, 40);
    let p = 8;
    let part = Partition::balanced(a.nrows(), p);
    let physical_bytes = HaloPlan::build(&a, &part).bytes_per_exchange();

    // The driver's per-iteration charge: halo_bytes per rank × 2 neighbors
    // × p ranks (see iteration_costs + halo_exchange).
    let total_off: u64 = (0..p)
        .map(|r| a.off_block_nnz(part.range(r), part.range(r)) as u64)
        .sum();
    let model_bytes = (total_off / p as u64 / 2).max(8) * 8 * 2 * p as u64;
    assert!(
        model_bytes >= physical_bytes,
        "model ({model_bytes} B) must not under-charge the physical exchange ({physical_bytes} B)"
    );
    assert!(
        model_bytes <= 4 * physical_bytes,
        "model ({model_bytes} B) should stay within 4x of physical ({physical_bytes} B)"
    );
}
