//! Beyond-paper extensions: TMR, multilevel checkpointing, energy-optimal
//! intervals, and system-wide outages.
//!
//! The paper's related work discusses TMR and SCR-style multilevel
//! checkpointing, cites the energy-optimal checkpoint period of Aupy et
//! al., and classifies system-wide outages (SWO) without evaluating them.
//! This harness measures all four on the reproduction's machinery.

use rsls_core::driver::RunConfig;
use rsls_core::interval::CheckpointInterval;
use rsls_core::{CompressionModel, Scheme};
use rsls_faults::{FaultClass, FaultSchedule};

use crate::campaign::{execute_units, unit_spec};
use crate::output::{f2, Table};
use crate::runners::{
    cr_interval_for, evenly_spaced_faults, execute_runs, lineup, poisson_faults_for, run_cached,
    run_fault_free, run_lineup, workload, SchemeRun,
};
use crate::Scale;

/// Replication and checkpoint tiers under node faults.
pub const REDUNDANCY: &[&str] = &["RD", "TMR", "CR-M", "CR-D", "CR-ML"];

/// The schemes put through a system-wide outage.
pub const SWO: &[&str] = &["RD", "LI-DVFS", "CR-M", "CR-D", "CR-ML"];

/// The scheme the interval-policy and compression studies vary.
pub const CR_D: &[&str] = &["CR-D"];

/// Runs the four extension studies.
pub fn run(scale: Scale) -> Vec<Table> {
    let ranks = scale.default_ranks();
    vec![
        redundancy_and_multilevel(scale, ranks),
        interval_policies(scale, ranks),
        swo_survival(scale, ranks),
        checkpoint_compression(scale, ranks),
    ]
}

/// SZ-style lossy checkpoint compression on the disk tier.
fn checkpoint_compression(scale: Scale, ranks: usize) -> Table {
    let (a, b) = workload("crystm02", scale);
    // A congested shared PFS (50 MB/s aggregate): the regime where
    // checkpoint *bandwidth* dominates and compression pays off.
    let machine = rsls_cluster::MachineConfig {
        disk_bw_bytes_per_sec: 5.0e7,
        ..Default::default()
    };
    let ff = {
        let mut cfg = RunConfig::new(Scheme::FaultFree, ranks);
        cfg.machine = machine.clone();
        run_cached(&a, &b, "ext-comp", scale, cfg)
    };
    let interval = CheckpointInterval::EveryIterations(cr_interval_for(scale, ff.iterations));
    let faults = evenly_spaced_faults(10, ff.iterations, ranks, "ext-comp");
    let template = SchemeRun::fault_free(&a, &b, ranks).faults(faults);

    let mut t = Table::new(
        "Extension — lossy checkpoint compression (crystm02, CR-D on a congested PFS)",
        &["compressor", "T", "E", "checkpoint share"],
    );
    let compressors = [
        ("none", None),
        (
            "SZ-like 10x @ 1 GB/s",
            Some(CompressionModel::lossy_default()),
        ),
        (
            "ZFP-like 4x @ 3 GB/s",
            Some(CompressionModel {
                ratio: 4.0,
                throughput_bytes_per_s: 3.0e9,
            }),
        ),
    ];
    let mut specs = Vec::new();
    for e in lineup(CR_D, interval) {
        for (name, comp) in &compressors {
            let mut cfg = template.clone().entry(&e).config();
            cfg.machine = machine.clone();
            cfg.checkpoint_compression = *comp;
            cfg.run_tag = format!("ext-comp-{}", name.replace([' ', '@', '/'], ""));
            specs.push(unit_spec(&a, &b, "ext-comp", scale, cfg));
        }
    }
    for ((name, _), r) in compressors.iter().zip(execute_units(&a, &b, &specs)) {
        let n = r.normalized_vs(&ff);
        t.push_row(vec![
            name.to_string(),
            f2(n.time),
            f2(n.energy),
            f2(r.breakdown.checkpoint_s / r.time_s),
        ]);
    }
    t
}

/// TMR and CR-ML against the paper's schemes under node faults.
fn redundancy_and_multilevel(scale: Scale, ranks: usize) -> Table {
    let (a, b) = workload("crystm02", scale);
    let ff = run_fault_free(&a, &b, ranks, scale);
    let interval = CheckpointInterval::EveryIterations(cr_interval_for(scale, ff.iterations));
    let template = SchemeRun::fault_free(&a, &b, ranks)
        .faults(evenly_spaced_faults(10, ff.iterations, ranks, "ext-rm"))
        .tag("ext-rm");

    let mut t = Table::new(
        "Extension — TMR and multilevel checkpointing (crystm02, 10 node faults)",
        &["scheme", "T", "P", "E", "iters"],
    );
    t.push_row(vec![
        "FF".into(),
        f2(1.0),
        f2(1.0),
        f2(1.0),
        ff.iterations.to_string(),
    ]);
    for r in run_lineup(&template, &lineup(REDUNDANCY, interval), scale) {
        let n = r.normalized_vs(&ff);
        t.push_row(vec![
            r.scheme.clone(),
            f2(n.time),
            f2(n.power),
            f2(n.energy),
            r.iterations.to_string(),
        ]);
    }
    t
}

/// Checkpoint-interval policies: fixed vs Young vs Daly vs energy-optimal.
fn interval_policies(scale: Scale, ranks: usize) -> Table {
    let (a, b) = workload("Kuu", scale);
    let ff = run_fault_free(&a, &b, ranks, scale);
    let (faults, mtbf_s) = poisson_faults_for(&ff, 4.0, ranks, "ext-int");
    let template = SchemeRun::fault_free(&a, &b, ranks)
        .faults(faults)
        .mtbf_s(mtbf_s);

    let mut t = Table::new(
        "Extension — checkpoint-interval policies (Kuu, CR-D, rate-based faults)",
        &["policy", "interval (iters)", "T", "E"],
    );
    let policies = [
        ("fixed-100", CheckpointInterval::EveryIterations(100)),
        ("Young", CheckpointInterval::Young),
        ("Daly", CheckpointInterval::Daly),
        ("energy-optimal", CheckpointInterval::EnergyOptimal),
    ];
    // Disk storage: the per-checkpoint cost is large enough that the
    // interval policies actually differ.
    let mut runs = Vec::new();
    for (name, interval) in policies {
        for e in lineup(CR_D, interval) {
            runs.push(template.clone().entry(&e).tag(format!("ext-int-{name}")));
        }
    }
    for ((name, _), r) in policies.iter().zip(execute_runs(&runs, scale)) {
        let n = r.normalized_vs(&ff);
        t.push_row(vec![
            name.to_string(),
            r.checkpoint_interval_iters
                .map(|i| i.to_string())
                .unwrap_or_else(|| "-".into()),
            f2(n.time),
            f2(n.energy),
        ]);
    }
    t
}

/// System-wide outages: which schemes retain progress.
fn swo_survival(scale: Scale, ranks: usize) -> Table {
    let (a, b) = workload("Kuu", scale);
    let ff = run_fault_free(&a, &b, ranks, scale);
    let interval = CheckpointInterval::EveryIterations(cr_interval_for(scale, ff.iterations));
    let swo = FaultSchedule::single_at_iteration(ff.iterations / 2, 0, FaultClass::Swo);
    let template = SchemeRun::fault_free(&a, &b, ranks)
        .faults(swo)
        .tag("ext-swo");

    let mut t = Table::new(
        "Extension — system-wide outage at mid-solve (Kuu)",
        &["scheme", "norm iters", "retains progress"],
    );
    for r in run_lineup(&template, &lineup(SWO, interval), scale) {
        let norm = r.iterations as f64 / ff.iterations as f64;
        t.push_row(vec![r.scheme.clone(), f2(norm), (norm < 1.3).to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsls_core::CheckpointStorage;

    #[test]
    fn interval_policies_behave_sanely() {
        // Energy-optimal checkpoints at least as often as Young (ρ ≤ 1),
        // and all policies converge.
        let ranks = 16;
        let (a, b) = workload("wathen100", Scale::Quick);
        let ff = run_fault_free(&a, &b, ranks, Scale::Quick);
        let (faults, mtbf) = poisson_faults_for(&ff, 3.0, ranks, "ext-test");
        let interval_of = |interval| {
            let scheme = Scheme::Checkpoint {
                storage: CheckpointStorage::Memory,
                interval,
            };
            let r = SchemeRun::new(&a, &b, ranks, scheme)
                .faults(faults.clone())
                .tag("ext-test")
                .mtbf_s(mtbf)
                .execute(Scale::Quick);
            assert!(r.converged);
            r.checkpoint_interval_iters.unwrap()
        };
        let young = interval_of(CheckpointInterval::Young);
        let energy = interval_of(CheckpointInterval::EnergyOptimal);
        assert!(energy <= young, "energy-optimal {energy} vs Young {young}");
    }
}
