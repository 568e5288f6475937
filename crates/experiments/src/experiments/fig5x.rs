//! Figure 5x — the related-work recovery schemes (CR-LC, ABFT-CR, MNF)
//! alongside the paper's §5.2 line-up.
//!
//! Two tables:
//!
//! 1. the full scheme comparison under one mid-run node fault — time,
//!    energy, iterations (normalized to FF), and checkpoint traffic,
//!    so the lossy-compression and exact-state trade-offs are visible
//!    next to the original seven mechanisms;
//! 2. MNF under *correlated* multi-rank failures: `k` ranks lost at
//!    the same iteration, reconstructed together from the survivors
//!    (the regime single-failure schemes cannot handle at all).

use rsls_core::interval::CheckpointInterval;
use rsls_core::RunReport;
use rsls_faults::{FaultClass, FaultSchedule};

use crate::output::{f2, f3, Table};
use crate::runners::{
    cr_interval_for, execute_runs, lineup, run_fault_free, run_lineup, workload, SchemeRun,
};
use crate::Scale;

/// The §5.2 seven plus the related-work schemes.
pub const LINEUP: &[&str] = &[
    "FF", "RD", "F0", "FI", "LI", "LSI", "CR-D", "CR-LC", "ABFT-CR", "MNF",
];

/// The scheme of the correlated-failure table.
pub const CORRELATED: &[&str] = &["MNF"];

/// The matrices the comparison runs on: one small well-conditioned
/// system and one larger one, enough to show the scheme ordering
/// without re-running the whole suite.
const MATRICES: &[&str] = &["crystm02", "wathen100"];

/// Ranks lost simultaneously in the correlated-failure table.
const MULTI_KS: &[usize] = &[2, 3, 4];

fn scheme_row(name: &str, ff: &RunReport, r: &RunReport) -> Vec<String> {
    vec![
        name.to_string(),
        r.scheme.clone(),
        r.iterations.to_string(),
        f2(r.iterations as f64 / ff.iterations.max(1) as f64),
        f3(r.time_s / ff.time_s),
        f3(r.energy_j / ff.energy_j),
        format!("{}", r.checkpoint_bytes_written),
    ]
}

/// Reproduces the extended comparison.
pub fn run(scale: Scale) -> Vec<Table> {
    let ranks = scale.default_ranks();
    let mut lineup_table = Table::new(
        format!(
            "Figure 5x — recovery-scheme comparison incl. CR-LC / ABFT-CR / MNF \
             ({ranks} processes, 1 mid-run fault)"
        ),
        &[
            "matrix",
            "scheme",
            "iters",
            "iters/FF",
            "T/T_FF",
            "E/E_FF",
            "ckpt bytes",
        ],
    );
    let mut multi = Table::new(
        format!("Figure 5x — MNF under k simultaneous rank failures ({ranks} processes)"),
        &[
            "matrix",
            "k failed",
            "iters",
            "iters/FF",
            "T/T_FF",
            "E/E_FF",
            "reconstruct [s]",
        ],
    );

    for &name in MATRICES {
        let (a, b) = workload(name, scale);
        let ff = run_fault_free(&a, &b, ranks, scale);
        let interval = cr_interval_for(scale, ff.iterations);
        // One fault strictly between two checkpoints, so the rollback
        // distance is the same for every checkpointed scheme.
        let fault_iter = (ff.iterations / 2 / interval.max(1)) * interval + interval / 2;
        let fault = FaultSchedule::single_at_iteration(fault_iter.max(1), 3, FaultClass::Snf);
        let every = CheckpointInterval::EveryIterations(interval);

        let template = SchemeRun::fault_free(&a, &b, ranks).tag(name);
        lineup_table.push_row(scheme_row(name, &ff, &ff));
        let single = template.clone().faults(fault);
        for r in run_lineup(&single, &lineup(LINEUP, every), scale) {
            lineup_table.push_row(scheme_row(name, &ff, &r));
        }

        // Correlated failures: k ranks die at the same iteration; MNF
        // rebuilds every lost block from the survivors in one union
        // solve. The failed set is spread across the partition.
        let mut runs = Vec::new();
        for e in lineup(CORRELATED, every) {
            for &k in MULTI_KS {
                let lost: Vec<usize> = (0..k).map(|i| (i * ranks) / k).collect();
                let sched =
                    FaultSchedule::multiple_at_iteration(fault_iter.max(1), &lost, FaultClass::Snf);
                runs.push(template.clone().entry(&e).faults(sched));
            }
        }
        for (&k, r) in MULTI_KS.iter().zip(execute_runs(&runs, scale)) {
            multi.push_row(vec![
                name.to_string(),
                k.to_string(),
                r.iterations.to_string(),
                f2(r.iterations as f64 / ff.iterations.max(1) as f64),
                f3(r.time_s / ff.time_s),
                f3(r.energy_j / ff.energy_j),
                f3(r.breakdown.reconstruct_s),
            ]);
        }
    }
    vec![lineup_table, multi]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5x_covers_the_new_schemes_and_multi_rank_failures() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        let lineup = tables[0].render();
        for scheme in ["FF", "CR-LC", "ABFT-CR", "MNF", "CR-D", "LI", "LSI"] {
            assert!(lineup.contains(scheme), "line-up must include {scheme}");
        }
        let multi = tables[1].render();
        for k in MULTI_KS {
            assert!(
                multi.lines().any(|l| {
                    let mut cols = l.split_whitespace();
                    cols.next().is_some() && cols.next() == Some(&k.to_string())
                }),
                "multi-rank table must include k={k}"
            );
        }
    }
}
