//! Behavioural tests of the resilient driver — each asserts one of the
//! paper's qualitative claims on a small deterministic workload.

use rsls_core::driver::{run, RunConfig};
use rsls_core::{DvfsPolicy, Scheme};
use rsls_faults::{FaultClass, FaultSchedule};
use rsls_sparse::generators::{banded_spd, BandedConfig};
use rsls_sparse::CsrMatrix;

const RANKS: usize = 8;

fn system() -> (CsrMatrix, Vec<f64>) {
    let a = banded_spd(&BandedConfig::regular(400, 7, 0.02, 17));
    let b = vec![1.0; 400];
    (a, b)
}

fn ff_report(a: &CsrMatrix, b: &[f64]) -> rsls_core::RunReport {
    run(a, b, &RunConfig::new(Scheme::FaultFree, RANKS))
}

fn faults(k: usize, ff_iters: usize) -> FaultSchedule {
    FaultSchedule::evenly_spaced(k, ff_iters, RANKS, FaultClass::Snf, 5)
}

#[test]
fn fault_free_run_converges() {
    let (a, b) = system();
    let r = ff_report(&a, &b);
    assert!(r.converged, "FF must converge: {r:?}");
    assert!(r.time_s > 0.0 && r.energy_j > 0.0);
    assert!(r.final_relative_residual <= 1e-12);
    assert_eq!(r.faults_injected, 0);
}

#[test]
fn runs_are_deterministic() {
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let cfg = RunConfig::new(Scheme::li_local_cg(), RANKS).with_faults(faults(3, ff.iterations));
    let r1 = run(&a, &b, &cfg);
    let r2 = run(&a, &b, &cfg);
    assert_eq!(r1.iterations, r2.iterations);
    assert_eq!(r1.time_s, r2.time_s);
    assert_eq!(r1.energy_j, r2.energy_j);
}

#[test]
fn dmr_matches_ff_iterations_and_doubles_energy() {
    // Paper Figure 3 / Table 5: RD has no time overhead but 2x power/energy.
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let cfg = RunConfig::new(Scheme::Dmr, RANKS).with_faults(faults(3, ff.iterations));
    let rd = run(&a, &b, &cfg);
    assert_eq!(rd.iterations, ff.iterations, "RD must track FF exactly");
    assert!(rd.time_s <= ff.time_s * 1.02, "RD adds (almost) no time");
    let ratio = rd.energy_j / ff.energy_j;
    assert!((ratio - 2.0).abs() < 0.05, "RD energy ratio {ratio}");
    let pratio = rd.avg_power_w / ff.avg_power_w;
    assert!((pratio - 2.0).abs() < 0.05, "RD power ratio {pratio}");
}

#[test]
fn zero_fill_needs_more_iterations_than_interpolation() {
    // Paper Table 4 / Figure 5: F0/FI are the least accurate, LI/LSI better.
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let sched = faults(5, ff.iterations);
    let f0 = run(
        &a,
        &b,
        &RunConfig::new(Scheme::Forward(rsls_core::ForwardKind::Zero), RANKS)
            .with_faults(sched.clone()),
    );
    let li = run(
        &a,
        &b,
        &RunConfig::new(Scheme::li_local_cg(), RANKS).with_faults(sched.clone()),
    );
    let lsi = run(
        &a,
        &b,
        &RunConfig::new(Scheme::lsi_local_cg(), RANKS).with_faults(sched),
    );
    assert!(f0.converged && li.converged && lsi.converged);
    assert!(f0.iterations > ff.iterations, "faults must cost iterations");
    assert!(
        li.iterations < f0.iterations,
        "LI ({}) must beat F0 ({})",
        li.iterations,
        f0.iterations
    );
    assert!(
        lsi.iterations <= f0.iterations,
        "LSI ({}) must not lose to F0 ({})",
        lsi.iterations,
        f0.iterations
    );
}

#[test]
fn checkpoint_rollback_recovers_and_costs_iterations() {
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let cfg = RunConfig::new(Scheme::cr_memory(), RANKS).with_faults(faults(3, ff.iterations));
    let cr = run(&a, &b, &cfg);
    assert!(cr.converged);
    assert!(cr.iterations >= ff.iterations);
    assert!(cr.breakdown.checkpoint_s > 0.0, "checkpoints must be taken");
    assert!(cr.breakdown.restore_s > 0.0, "restores must be charged");
    assert!(cr.checkpoint_interval_iters.is_some());
}

#[test]
fn disk_checkpointing_costs_more_time_than_memory() {
    // Paper Table 5: CR-D is the most expensive scheme.
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let sched = faults(3, ff.iterations);
    let cr_m = run(
        &a,
        &b,
        &RunConfig::new(Scheme::cr_memory(), RANKS).with_faults(sched.clone()),
    );
    let mut cfg_d = RunConfig::new(Scheme::cr_disk(), RANKS).with_faults(sched);
    cfg_d.run_tag = "test-crd".to_string();
    let cr_d = run(&a, &b, &cfg_d);
    assert!(cr_d.converged && cr_m.converged);
    assert!(
        cr_d.time_s > cr_m.time_s,
        "CR-D ({}) must cost more than CR-M ({})",
        cr_d.time_s,
        cr_m.time_s
    );
}

#[test]
fn dvfs_reduces_energy_without_slowing_down() {
    // Paper Figure 7: LI-DVFS keeps the same performance at lower power.
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let sched = faults(5, ff.iterations);
    let li = run(
        &a,
        &b,
        &RunConfig::new(Scheme::li_local_cg(), RANKS).with_faults(sched.clone()),
    );
    let li_dvfs = run(
        &a,
        &b,
        &RunConfig::new(Scheme::li_local_cg(), RANKS)
            .with_faults(sched)
            .with_dvfs(DvfsPolicy::ThrottleWaiters),
    );
    assert_eq!(
        li.iterations, li_dvfs.iterations,
        "DVFS must not change math"
    );
    assert!(
        (li.time_s - li_dvfs.time_s).abs() < 1e-9,
        "no slowdown allowed"
    );
    assert!(
        li_dvfs.energy_j < li.energy_j,
        "DVFS must save energy: {} vs {}",
        li_dvfs.energy_j,
        li.energy_j
    );
    assert!(li_dvfs.scheme.contains("DVFS"));
}

#[test]
fn residual_history_marks_faults_and_recoveries() {
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let mut cfg =
        RunConfig::new(Scheme::li_local_cg(), RANKS).with_faults(faults(2, ff.iterations));
    cfg.record_history = true;
    let r = run(&a, &b, &cfg);
    assert_eq!(r.history.fault_iterations().len(), 2);
    assert!(r.history.len() > r.iterations, "history records every step");
}

#[test]
fn power_profile_shows_reconstruction_dips() {
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let cfg = RunConfig::new(Scheme::li_local_cg(), RANKS)
        .with_faults(faults(3, ff.iterations))
        .with_dvfs(DvfsPolicy::ThrottleWaiters);
    let r = run(&a, &b, &cfg);
    // The profile must contain at least one segment below the compute
    // plateau (the construction dip of Figure 7a).
    let peak = r
        .power_profile
        .iter()
        .map(|s| s.watts)
        .fold(0.0f64, f64::max);
    let has_dip = r.power_profile.iter().any(|s| s.watts < 0.6 * peak);
    assert!(has_dip, "expected a power dip during reconstruction");
}

#[test]
fn fi_restores_initial_guess() {
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let mut cfg = RunConfig::new(Scheme::Forward(rsls_core::ForwardKind::InitialGuess), RANKS)
        .with_faults(faults(3, ff.iterations));
    cfg.initial_guess = Some(vec![0.5; a.nrows()]);
    let r = run(&a, &b, &cfg);
    assert!(r.converged);
    assert!(r.iterations > ff.iterations);
}

#[test]
fn sdc_bitflips_are_also_recovered() {
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let sched = FaultSchedule::evenly_spaced(3, ff.iterations, RANKS, FaultClass::Sdc, 9);
    let r = run(
        &a,
        &b,
        &RunConfig::new(Scheme::li_local_cg(), RANKS).with_faults(sched),
    );
    assert!(r.converged);
    assert_eq!(r.faults_injected, 3);
}

#[test]
fn exact_construction_converges_like_local_cg() {
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let sched = faults(3, ff.iterations);
    let exact = run(
        &a,
        &b,
        &RunConfig::new(Scheme::li_exact(), RANKS).with_faults(sched.clone()),
    );
    let local = run(
        &a,
        &b,
        &RunConfig::new(Scheme::li_local_cg(), RANKS).with_faults(sched),
    );
    assert!(exact.converged && local.converged);
    // Same recovery quality to within a few iterations.
    let diff = (exact.iterations as i64 - local.iterations as i64).abs();
    assert!(
        diff < 50,
        "exact {} vs local {}",
        exact.iterations,
        local.iterations
    );
}

#[test]
fn system_wide_outage_only_survives_with_disk_checkpoints() {
    // SWO wipes all dynamic state: DMR's replica and in-memory checkpoints
    // are gone too; only CR-D retains progress (the paper's caveat about
    // CR-M, taken to the system level).
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let swo = FaultSchedule::single_at_iteration(ff.iterations / 2, 0, FaultClass::Swo);

    let run_with = |scheme: Scheme, tag: &str| {
        let mut cfg = RunConfig::new(scheme, RANKS).with_faults(swo.clone());
        cfg.run_tag = format!("swo-{tag}");
        run(&a, &b, &cfg)
    };
    // Fixed checkpoint interval so checkpoints actually exist before the
    // outage (Young's fallback interval exceeds this tiny run).
    let interval =
        rsls_core::interval::CheckpointInterval::EveryIterations((ff.iterations / 6).max(1));
    let dmr = run_with(Scheme::Dmr, "dmr");
    let li = run_with(Scheme::li_local_cg(), "li");
    let cr_m = run_with(
        Scheme::Checkpoint {
            storage: rsls_core::CheckpointStorage::Memory,
            interval,
        },
        "crm",
    );
    let cr_d = run_with(
        Scheme::Checkpoint {
            storage: rsls_core::CheckpointStorage::Disk,
            interval,
        },
        "crd",
    );

    for r in [&dmr, &li, &cr_m, &cr_d] {
        assert!(r.converged, "{} must still converge after SWO", r.scheme);
        assert_eq!(r.faults_injected, 1);
    }
    // Schemes without persistent state lose roughly half the run: they
    // need ~1.4x the FF iterations. CR-D rolls back only to the last
    // disk checkpoint and stays clearly cheaper in iterations.
    assert!(dmr.iterations as f64 >= 1.3 * ff.iterations as f64);
    assert!(li.iterations as f64 >= 1.3 * ff.iterations as f64);
    assert!(cr_m.iterations as f64 >= 1.3 * ff.iterations as f64);
    assert!(
        (cr_d.iterations as f64) < 1.3 * ff.iterations as f64,
        "CR-D ({}) must retain progress vs FF ({})",
        cr_d.iterations,
        ff.iterations
    );
}

#[test]
fn tmr_masks_faults_at_triple_power() {
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let cfg = RunConfig::new(Scheme::Tmr, RANKS).with_faults(faults(3, ff.iterations));
    let tmr = run(&a, &b, &cfg);
    assert_eq!(tmr.iterations, ff.iterations, "TMR must track FF exactly");
    assert!(tmr.time_s <= ff.time_s * 1.02);
    let pratio = tmr.avg_power_w / ff.avg_power_w;
    assert!((pratio - 3.0).abs() < 0.05, "TMR power ratio {pratio}");
}

#[test]
fn multilevel_checkpointing_combines_cheap_restores_with_swo_survival() {
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let interval =
        rsls_core::interval::CheckpointInterval::EveryIterations((ff.iterations / 6).max(1));
    let ml_scheme = Scheme::Checkpoint {
        storage: rsls_core::CheckpointStorage::Multilevel { disk_every: 2 },
        interval,
    };
    let d_scheme = Scheme::Checkpoint {
        storage: rsls_core::CheckpointStorage::Disk,
        interval,
    };

    // Node faults: CR-ML restores from memory, much cheaper than CR-D.
    let sched = faults(3, ff.iterations);
    let mut ml_cfg = RunConfig::new(ml_scheme, RANKS).with_faults(sched.clone());
    ml_cfg.run_tag = "ml-node".into();
    let ml = run(&a, &b, &ml_cfg);
    let mut d_cfg = RunConfig::new(d_scheme, RANKS).with_faults(sched);
    d_cfg.run_tag = "d-node".into();
    let d = run(&a, &b, &d_cfg);
    assert!(ml.converged && d.converged);
    assert!(
        ml.time_s < d.time_s,
        "CR-ML ({}) must beat CR-D ({}) on node faults",
        ml.time_s,
        d.time_s
    );

    // System-wide outage: CR-ML still retains progress via its disk level.
    let swo = FaultSchedule::single_at_iteration(ff.iterations / 2, 0, FaultClass::Swo);
    let mut swo_cfg = RunConfig::new(ml_scheme, RANKS).with_faults(swo);
    swo_cfg.run_tag = "ml-swo".into();
    let ml_swo = run(&a, &b, &swo_cfg);
    assert!(ml_swo.converged);
    assert!(
        (ml_swo.iterations as f64) < 1.3 * ff.iterations as f64,
        "CR-ML ({}) must survive SWO with limited rollback (FF {})",
        ml_swo.iterations,
        ff.iterations
    );
}

#[test]
fn checkpoint_compression_pays_off_on_the_disk_tier() {
    // Compression trades CPU for storage traffic: it must speed up CR-D
    // (shared-disk bound) and leave results correct.
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let interval =
        rsls_core::interval::CheckpointInterval::EveryIterations((ff.iterations / 6).max(1));
    let scheme = Scheme::Checkpoint {
        storage: rsls_core::CheckpointStorage::Disk,
        interval,
    };
    let sched = faults(3, ff.iterations);
    let mut plain_cfg = RunConfig::new(scheme, RANKS).with_faults(sched.clone());
    plain_cfg.run_tag = "comp-plain".into();
    let plain = run(&a, &b, &plain_cfg);
    let mut comp_cfg = RunConfig::new(scheme, RANKS).with_faults(sched);
    comp_cfg.run_tag = "comp-sz".into();
    comp_cfg.checkpoint_compression = Some(rsls_core::CompressionModel::lossy_default());
    let comp = run(&a, &b, &comp_cfg);

    assert!(plain.converged && comp.converged);
    assert_eq!(
        plain.iterations, comp.iterations,
        "compression must not change math"
    );
    assert!(
        comp.breakdown.checkpoint_s < plain.breakdown.checkpoint_s,
        "compressed checkpoints must be faster to write: {} vs {}",
        comp.breakdown.checkpoint_s,
        plain.breakdown.checkpoint_s
    );
}

#[test]
fn abft_cr_replays_the_fault_free_sequence_bit_for_bit() {
    // ABFT-CR checkpoints the full (x, r, p, rᵀr) Krylov state, so a
    // restore replays the fault-free iteration sequence exactly: the
    // final residual must match the FF run to the last bit, with the
    // replayed stretch showing up as extra iterations.
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let every = ((ff.iterations / 6).max(2) / 2) * 2; // even, ≥ 2
    let interval = rsls_core::interval::CheckpointInterval::EveryIterations(every);
    // Strictly between two checkpoints, so the rollback distance is
    // nonzero and the replayed stretch is visible in the iteration count.
    let fault_iter = 2 * every + every / 2;
    assert!(fault_iter < ff.iterations);
    let mut cfg = RunConfig::new(Scheme::AbftCheckpoint { interval }, RANKS).with_faults(
        FaultSchedule::single_at_iteration(fault_iter, 3, FaultClass::Snf),
    );
    cfg.run_tag = "abft-bits".into();
    let abft = run(&a, &b, &cfg);
    assert!(abft.converged);
    assert_eq!(abft.faults_injected, 1);
    assert_eq!(
        abft.final_relative_residual.to_bits(),
        ff.final_relative_residual.to_bits(),
        "ABFT-CR restore must be exact: {} vs FF {}",
        abft.final_relative_residual,
        ff.final_relative_residual
    );
    assert!(
        abft.iterations > ff.iterations,
        "the rolled-back stretch is replayed: {} vs FF {}",
        abft.iterations,
        ff.iterations
    );
    assert!(abft.checkpoint_bytes_written > 0);
    assert_eq!(abft.scheme, "ABFT-CR");
}

#[test]
fn lossy_checkpoints_trade_stored_bytes_for_reconvergence() {
    // CR-LC vs CR-D at the same interval and fault plan: the quantized
    // checkpoints are smaller on disk but restore a perturbed iterate,
    // so they can never need fewer iterations than the exact rollback.
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let interval =
        rsls_core::interval::CheckpointInterval::EveryIterations((ff.iterations / 6).max(1));
    let sched = faults(3, ff.iterations);

    let mut d_cfg = RunConfig::new(
        Scheme::Checkpoint {
            storage: rsls_core::CheckpointStorage::Disk,
            interval,
        },
        RANKS,
    )
    .with_faults(sched.clone());
    d_cfg.run_tag = "lc-vs-d".into();
    let crd = run(&a, &b, &d_cfg);

    let mut lc_cfg = RunConfig::new(
        Scheme::LossyCheckpoint {
            interval,
            keep_mantissa_bits: 8,
        },
        RANKS,
    )
    .with_faults(sched);
    lc_cfg.run_tag = "lc-8".into();
    let lc = run(&a, &b, &lc_cfg);

    assert!(crd.converged && lc.converged);
    assert!(lc.checkpoint_bytes_written > 0);
    assert!(
        lc.checkpoint_bytes_written < crd.checkpoint_bytes_written,
        "CR-LC must store fewer bytes: {} vs CR-D {}",
        lc.checkpoint_bytes_written,
        crd.checkpoint_bytes_written
    );
    assert!(
        lc.iterations >= crd.iterations,
        "the quantization error costs reconvergence: CR-LC {} vs CR-D {}",
        lc.iterations,
        crd.iterations
    );
    assert_eq!(lc.scheme, "CR-LC");
}

#[test]
fn mnf_recovers_simultaneous_multi_rank_failures() {
    // Three ranks lost in the same iteration, reconstructed in one
    // coupled union solve — the injection path single-rank LI cannot
    // handle.
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let sched =
        FaultSchedule::multiple_at_iteration(ff.iterations / 2, &[0, 2, 5], FaultClass::Snf);
    let mnf = run(
        &a,
        &b,
        &RunConfig::new(Scheme::mnf(), RANKS).with_faults(sched.clone()),
    );
    assert!(mnf.converged, "MNF must converge: {mnf:?}");
    assert_eq!(mnf.faults_injected, 3);
    assert!(mnf.breakdown.reconstruct_s > 0.0, "union solve is charged");
    assert!(mnf.iterations >= ff.iterations);
    assert_eq!(mnf.scheme, "MNF");

    // The exact union-LU variant recovers with comparable quality.
    let exact = run(
        &a,
        &b,
        &RunConfig::new(Scheme::mnf_exact(), RANKS).with_faults(sched),
    );
    assert!(exact.converged);
    let diff = (exact.iterations as i64 - mnf.iterations as i64).abs();
    assert!(
        diff < 60,
        "exact {} vs local {}",
        exact.iterations,
        mnf.iterations
    );
}

#[test]
fn mnf_dvfs_throttles_waiters_during_the_union_solve() {
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let sched = FaultSchedule::multiple_at_iteration(ff.iterations / 2, &[1, 4], FaultClass::Snf);
    let plain = run(
        &a,
        &b,
        &RunConfig::new(Scheme::mnf(), RANKS).with_faults(sched.clone()),
    );
    let dvfs = run(
        &a,
        &b,
        &RunConfig::new(Scheme::mnf(), RANKS)
            .with_faults(sched)
            .with_dvfs(DvfsPolicy::ThrottleWaiters),
    );
    assert_eq!(
        plain.iterations, dvfs.iterations,
        "DVFS must not change math"
    );
    assert!(
        dvfs.energy_j < plain.energy_j,
        "throttled waiters must save energy: {} vs {}",
        dvfs.energy_j,
        plain.energy_j
    );
    assert!(dvfs.scheme.contains("DVFS"));
}

#[test]
fn phases_and_energy_are_conserved_for_every_label() {
    // For all 16 registry labels, under node faults and under an outage:
    // the phase times sum to the total, no phase is negative, and the
    // energy is the integral of the power profile — plus, for schemes with
    // a disk tier only, the storage subsystem's own joules.
    let (a, b) = system();
    let ff = ff_report(&a, &b);
    let shapes = [
        faults(3, ff.iterations),
        FaultSchedule::single_at_iteration(ff.iterations / 2, 1, FaultClass::Swo),
    ];
    for label in Scheme::KNOWN_LABELS {
        let scheme = Scheme::parse_label(label).expect("registry label");
        for (i, shape) in shapes.iter().enumerate() {
            let mut cfg = RunConfig::new(scheme, RANKS).with_faults(shape.clone());
            // Short MTBF: Young resolves to a few iterations on every
            // tier, so checkpoints and restores actually happen.
            cfg.mtbf_s = Some(1.0e-5);
            let r = run(&a, &b, &cfg);
            let what = format!("{label} / shape {i}");
            assert!(r.converged, "{what}");

            let bd = r.breakdown;
            for phase in [
                bd.solve_s,
                bd.checkpoint_s,
                bd.restore_s,
                bd.reconstruct_s,
                bd.repair_s,
            ] {
                assert!(phase >= 0.0, "{what}: negative phase in {bd:?}");
            }
            assert!(
                (bd.total_s() - r.time_s).abs() <= 1e-12 * r.time_s,
                "{what}: phases sum to {} but the run took {}",
                bd.total_s(),
                r.time_s
            );

            let integral: f64 = r
                .power_profile
                .iter()
                .map(|s| s.watts * (s.t1 - s.t0))
                .sum();
            let storage_j = r.energy_j - integral;
            let disk_tier = scheme.is_checkpoint() && label != "CR-M";
            if disk_tier {
                assert!(storage_j > 0.0, "{what}: disk traffic must cost energy");
            } else {
                assert!(
                    storage_j.abs() <= 1e-9 * r.energy_j,
                    "{what}: energy {} vs profile integral {integral}",
                    r.energy_j
                );
            }
        }
    }
}
