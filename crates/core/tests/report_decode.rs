//! `RunReport` through the JSON reader: what the result cache reads back
//! is what it wrote, and damaged bytes are an `Err`, never a panic.
//!
//! Only the public entry points are used (`to_string`, `from_str`,
//! `from_slice`, `parse_value`), so the file holds for any reader behind
//! them.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rsls_core::driver::{run, RunConfig};
use rsls_core::report::PhaseBreakdown;
use rsls_core::{RunReport, Scheme};
use rsls_faults::{FaultClass, FaultSchedule};
use rsls_power::PowerSample;
use rsls_solvers::ResidualHistory;
use rsls_sparse::generators::{banded_spd, BandedConfig};
use serde_json::{from_slice, from_str, parse_value, to_string, Value};

/// A float from every class the writer distinguishes: finite of any
/// magnitude, signed zero, and the non-finite ones it writes as `null`.
fn random_f64(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..10u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => rng.random_range(0..1000usize) as f64,
        5 => f64::from_bits(rng.random::<u64>() >> 2),
        _ => rng.random_range(-1.0e3..1.0e3),
    }
}

fn random_report(rng: &mut StdRng, history_len: usize) -> RunReport {
    let mut history = ResidualHistory::new();
    for i in 0..history_len {
        let relres = random_f64(rng);
        match rng.random_range(0..20u32) {
            0 => history.mark_fault(i, relres),
            1 => history.mark_recovery(i, relres),
            _ => history.push(i, relres),
        }
    }
    RunReport {
        scheme: ["FF", "LI (CG)-DVFS", "CR-M \"quoted\" \\ é✓", ""][rng.random_range(0..4usize)]
            .to_string(),
        num_ranks: rng.random_range(1..4096usize),
        iterations: rng.random::<u64>() as usize >> rng.random_range(0..64u32),
        converged: rng.random(),
        final_relative_residual: random_f64(rng),
        time_s: random_f64(rng),
        energy_j: random_f64(rng),
        avg_power_w: random_f64(rng),
        faults_injected: rng.random_range(0..50usize),
        construction_fallbacks: rng.random_range(0..3usize),
        checkpoint_interval_iters: rng
            .random::<bool>()
            .then(|| rng.random_range(0..10_000usize)),
        checkpoint_bytes_written: rng.random::<u64>() >> rng.random_range(0..64u32),
        breakdown: PhaseBreakdown {
            solve_s: random_f64(rng),
            checkpoint_s: random_f64(rng),
            restore_s: random_f64(rng),
            reconstruct_s: random_f64(rng),
            repair_s: random_f64(rng),
        },
        history,
        power_profile: (0..rng.random_range(0..40usize))
            .map(|_| PowerSample {
                t0: random_f64(rng),
                t1: random_f64(rng),
                watts: random_f64(rng),
            })
            .collect(),
    }
}

#[test]
fn random_reports_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x5eed_2301);
    for case in 0..120 {
        let history_len = match case % 4 {
            0 => 0,
            1 => 5_000,
            _ => rng.random_range(1..300usize),
        };
        let report = random_report(&mut rng, history_len);
        let json = to_string(&report).unwrap();
        let back: RunReport = from_str(&json).unwrap();
        // Non-finite floats come back as NaN, so compare what the store
        // compares: the bytes.
        assert_eq!(to_string(&back).unwrap(), json, "case {case}");
        assert_eq!(back.scheme, report.scheme);
        assert_eq!(back.iterations, report.iterations);
        assert_eq!(
            back.checkpoint_interval_iters,
            report.checkpoint_interval_iters
        );
        assert_eq!(back.history.samples().len(), history_len);
        for (b, r) in back.history.samples().iter().zip(report.history.samples()) {
            assert_eq!((b.0, b.2), (r.0, r.2));
            if r.1.is_finite() {
                assert_eq!(b.1.to_bits(), r.1.to_bits());
            } else {
                assert!(b.1.is_nan());
            }
        }
        let typed: RunReport = from_slice(json.as_bytes()).unwrap();
        assert_eq!(to_string(&typed).unwrap(), json);
        assert_eq!(to_string(&parse_value(&json).unwrap()).unwrap(), json);
    }
}

/// A report the driver really produces: history with fault and recovery
/// marks, a checkpoint interval, a power profile.
fn real_report() -> Vec<u8> {
    let a = banded_spd(&BandedConfig::regular(240, 7, 0.02, 17));
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&vec![1.0; a.nrows()], &mut b);
    let scheme = Scheme::parse_label("CR-M").expect("registry label");
    let mut cfg = RunConfig::new(scheme, 8).with_faults(FaultSchedule::evenly_spaced(
        2,
        40,
        8,
        FaultClass::Snf,
        5,
    ));
    cfg.mtbf_s = Some(8.0e-6);
    cfg.record_history = true;
    let report = run(&a, &b, &cfg);
    assert!(report.converged && report.faults_injected == 2);
    assert!(report.checkpoint_interval_iters.is_some());
    to_string(&report).unwrap().into_bytes()
}

#[test]
fn damaged_reports_are_errors_never_panics() {
    let bytes = real_report();
    assert!(from_slice::<RunReport>(&bytes).is_ok());

    // Every proper prefix is an incomplete document.
    for cut in 0..bytes.len() {
        assert!(from_slice::<RunReport>(&bytes[..cut]).is_err(), "cut {cut}");
        assert!(from_slice::<Value>(&bytes[..cut]).is_err(), "cut {cut}");
    }

    // A flipped byte may still decode (a digit for a digit); whatever the
    // typed decode accepts must be a document the tree decode accepts.
    let mut rng = StdRng::seed_from_u64(0x5eed_2302);
    let (mut accepted, mut refused) = (0, 0);
    for _ in 0..2_000 {
        let mut damaged = bytes.clone();
        let at = rng.random_range(0..damaged.len());
        damaged[at] ^= 1 << rng.random_range(0..8u32);
        match from_slice::<RunReport>(&damaged) {
            Ok(_) => {
                accepted += 1;
                assert!(from_slice::<Value>(&damaged).is_ok(), "flip at {at}");
            }
            Err(_) => refused += 1,
        }
    }
    assert!(accepted > 0 && refused > 0, "{accepted} / {refused}");
}
