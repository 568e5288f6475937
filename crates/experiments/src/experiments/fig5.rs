//! Figure 5 — iterations to convergence for the full suite, 10 faults.

use crate::artifacts::suite;
use crate::output::{f2, Table};
use crate::runners::{lineup_labels, run_standard_lineup};
use crate::{Scale, SUITE};

/// Reproduces Figure 5: for every suite matrix, the number of iterations
/// to convergence under each recovery mechanism, normalized to the
/// fault-free run of that matrix (10 evenly spaced faults, tol 1e-12,
/// CR to disk). Headers follow the active `--schemes` filter.
pub fn run(scale: Scale) -> Vec<Table> {
    let ranks = scale.default_ranks();
    let mut headers = vec!["matrix".to_string()];
    headers.extend(lineup_labels());
    let mut t = Table::new(
        format!(
            "Figure 5 — normalized iterations to convergence ({} processes, 10 faults)",
            ranks
        ),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for spec in SUITE {
        let w = suite(spec.name, scale);
        let (ff, reports) = run_standard_lineup(&w, ranks, 10, spec.name, scale);
        let mut row = vec![spec.name.to_string()];
        for r in &reports {
            row.push(f2(r.iterations as f64 / ff.iterations.max(1) as f64));
        }
        t.push_row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::run_standard_lineup;

    #[test]
    fn one_matrix_shows_the_papers_ordering() {
        // Spot-check the Figure 5 shape on one representative matrix:
        // RD == FF <= {LI, LSI} <= CR (rollback) and F0/FI worst.
        let w = suite("crystm02", Scale::Quick);
        let (ff, reports) = run_standard_lineup(&w, 8, 10, "crystm02", Scale::Quick);
        let iters: Vec<usize> = reports.iter().map(|r| r.iterations).collect();
        let (rd, f0, fi, li, lsi, cr) =
            (iters[1], iters[2], iters[3], iters[4], iters[5], iters[6]);
        assert_eq!(rd, ff.iterations, "RD tracks FF");
        assert!(li < f0, "LI {li} must beat F0 {f0}");
        assert!(lsi < f0, "LSI {lsi} must beat F0 {f0}");
        assert!(f0 > ff.iterations && fi > ff.iterations);
        assert!(cr > ff.iterations, "CR rolls back and recomputes");
    }
}
