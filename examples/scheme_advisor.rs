//! Answer the paper's research question 4 for a concrete workload:
//! *which recovery mechanism should this job use?*
//!
//! Measures the workload once per scheme family on the virtual cluster,
//! fits the §3 model parameters, and asks the advisor for a ranking under
//! each objective (time, energy, power) — including the system-wide-outage
//! situation where memory-based schemes are disqualified.
//!
//! ```text
//! cargo run --release --example scheme_advisor [matrix]
//! ```

use rsls_core::{DvfsPolicy, Scheme};
use rsls_experiments::runners::{poisson_faults_for, run_fault_free, workload, SchemeRun};
use rsls_experiments::Scale;
use rsls_models::{recommend, FittedParams, Objective, Situation};

/// The candidates, as report labels: forward recovery is LI with DVFS.
const LABELS: [&str; 4] = ["RD", "CR-M", "CR-D", "LI-DVFS"];

fn main() {
    let matrix = std::env::args().nth(1).unwrap_or_else(|| "crystm02".into());
    let ranks = 64;
    let scale = Scale::from_env();
    let (a, b) = workload(&matrix, scale);
    println!("workload: {matrix} ({} rows), {ranks} ranks", a.nrows());

    let ff = run_fault_free(&a, &b, ranks, scale);
    let (faults, mtbf) = poisson_faults_for(&ff, 4.0, ranks, "advisor");
    println!(
        "measured fault-free: {} iterations, {:.3} s; fault rate 1/{:.3} s",
        ff.iterations, ff.time_s, mtbf
    );

    // One measurement per family to fit the unit costs.
    let fw_run = SchemeRun::new(&a, &b, ranks, Scheme::li_local_cg())
        .dvfs(DvfsPolicy::ThrottleWaiters)
        .faults(faults.clone())
        .tag("advisor-fw")
        .mtbf_s(mtbf)
        .execute(scale);
    let crd_run = SchemeRun::new(&a, &b, ranks, Scheme::cr_disk())
        .faults(faults)
        .tag("advisor-crd")
        .mtbf_s(mtbf)
        .execute(scale);
    let fw_fit = FittedParams::from_reports(&fw_run, &ff);
    let crd_fit = FittedParams::from_reports(&crd_run, &ff);

    let situation = Situation::from_fits(ff.time_s, 1.0 / mtbf, &fw_fit, &crd_fit, ranks);

    for objective in [Objective::Time, Objective::Energy, Objective::Power] {
        let ranked = recommend(&situation, &LABELS, objective);
        println!("\nobjective {objective:?}:");
        for (i, e) in ranked.iter().enumerate() {
            println!(
                "  {}. {:<7} T={:.2}x P={:.2}x E={:.2}x",
                i + 1,
                e.label,
                e.t_norm,
                e.p_norm,
                e.e_norm
            );
        }
    }

    // Same question under system-wide outages: memory-based recovery is
    // off the table.
    let swo = Situation {
        memory_survives: false,
        ..situation
    };
    let ranked = recommend(&swo, &LABELS, Objective::Energy);
    println!("\nobjective Energy, system-wide outages (no surviving memory):");
    for (i, e) in ranked.iter().enumerate() {
        println!(
            "  {}. {:<7} T={:.2}x P={:.2}x E={:.2}x",
            i + 1,
            e.label,
            e.t_norm,
            e.p_norm,
            e.e_norm
        );
    }
}
