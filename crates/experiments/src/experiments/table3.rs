//! Table 3 — matrix suite properties (paper values vs generated analogs).

use rsls_core::driver::RunConfig;
use rsls_core::Scheme;

use crate::output::{f2, Table};
use crate::runners::run_cached;
use crate::{Scale, SUITE};

/// Reproduces Table 3 with both the paper's reported properties and the
/// measured properties of the generated analogs (rows, nnz/row, fault-free
/// iterations at tolerance 1e-12).
pub fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Table 3 — suite properties (paper vs generated analog)",
        &[
            "name",
            "kind",
            "paper rows",
            "analog rows",
            "paper nnz/row",
            "analog nnz/row",
            "paper iters",
            "analog iters",
        ],
    );
    for spec in SUITE {
        let a = spec.generate(scale);
        let b = spec.rhs(&a);
        let cfg = RunConfig::new(Scheme::FaultFree, 1);
        let ff = run_cached(&a, &b, spec.name, scale, cfg);
        t.push_row(vec![
            spec.name.to_string(),
            spec.problem_kind.to_string(),
            spec.paper_rows.to_string(),
            a.nrows().to_string(),
            spec.paper_nnz_per_row.to_string(),
            f2(a.nnz_per_row()),
            spec.paper_iters.to_string(),
            ff.iterations.to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "runs the full suite; exercised by rsls-run"]
    fn table_has_all_fourteen_rows() {
        let tables = run(Scale::Quick);
        assert_eq!(tables[0].rows.len(), 14);
    }
}
