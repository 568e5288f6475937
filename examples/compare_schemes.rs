//! Compare every recovery scheme on one suite matrix.
//!
//! ```text
//! cargo run --release --example compare_schemes [matrix] [faults]
//! # e.g.
//! cargo run --release --example compare_schemes crystm02 10
//! ```
//!
//! Prints a Table 5-style normalized comparison: time, power, energy,
//! and iterations per scheme, normalized to the fault-free run.

use rsls_core::interval::CheckpointInterval;
use rsls_experiments::output::{f2, Table};
use rsls_experiments::runners::{
    cr_interval_for, evenly_spaced_faults, lineup, run_fault_free, run_lineup, workload, SchemeRun,
};
use rsls_experiments::Scale;

/// The §5.2 schemes, interpolation with the paper's DVFS optimization.
const LINEUP: &[&str] = &["RD", "F0", "FI", "LI-DVFS", "LSI-DVFS", "CR-D"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let matrix = args.first().map(String::as_str).unwrap_or("crystm02");
    let k_faults: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
    let scale = Scale::from_env();
    let ranks = scale.default_ranks();

    let (a, b) = workload(matrix, scale);
    println!(
        "matrix {matrix}: {} rows, {:.1} nnz/row, {ranks} ranks, {k_faults} faults\n",
        a.nrows(),
        a.nnz_per_row()
    );

    let ff = run_fault_free(&a, &b, ranks, scale);
    let interval = CheckpointInterval::EveryIterations(cr_interval_for(scale, ff.iterations));
    let template = SchemeRun::fault_free(&a, &b, ranks)
        .faults(evenly_spaced_faults(k_faults, ff.iterations, ranks, matrix))
        .tag("compare");

    let mut table = Table::new(
        format!("Recovery-scheme comparison on {matrix}"),
        &["scheme", "iters", "T", "P", "E", "converged"],
    );
    let reports = run_lineup(&template, &lineup(LINEUP, interval), scale);
    for r in std::iter::once(&ff).chain(&reports) {
        let n = r.normalized_vs(&ff);
        table.push_row(vec![
            r.scheme.clone(),
            r.iterations.to_string(),
            f2(n.time),
            f2(n.power),
            f2(n.energy),
            r.converged.to_string(),
        ]);
    }
    println!("{}", table.render());
}
