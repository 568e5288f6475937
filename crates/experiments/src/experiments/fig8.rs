//! Figure 8 — time/energy/power trade-offs for three contrasting matrices.

use rsls_core::interval::CheckpointInterval;

use crate::artifacts::suite;
use crate::output::{f2, Table};
use crate::runners::{
    lineup, poisson_faults_for, run_fault_free, run_lineup, SchemeRun, TRADEOFF_LINEUP,
};
use crate::Scale;

/// The three matrices of Figure 8 (x — irregular structure; n — very
/// dense rows; c — sparse and regular).
const MATRICES: [&str; 3] = ["x104", "nd24k", "cvxbqp1"];

/// Reproduces Figure 8: normalized time, energy, and average CPU power
/// for x104, nd24k and cvxbqp1 under RD, LI-DVFS, LSI-DVFS, CR-M, CR-D —
/// showing that the best scheme depends on the workload.
pub fn run(scale: Scale) -> Vec<Table> {
    let ranks = scale.default_ranks();
    let entries = lineup(TRADEOFF_LINEUP, CheckpointInterval::Young);
    let mut tables = Vec::new();
    for name in MATRICES {
        let w = suite(name, scale);
        let ff = run_fault_free(&w, ranks, scale);
        let (faults, mtbf_s) = poisson_faults_for(&ff, 4.0, ranks, name);

        let mut t = Table::new(
            format!("Figure 8 — normalized T/E/P for {name}"),
            &["scheme", "T", "E", "P", "iters"],
        );
        t.push_row(vec![
            "FF".to_string(),
            f2(1.0),
            f2(1.0),
            f2(1.0),
            ff.iterations.to_string(),
        ]);
        let template = SchemeRun::fault_free(&w, ranks)
            .faults(faults)
            .tag(format!("fig8-{name}"))
            .mtbf_s(mtbf_s);
        for r in run_lineup(&template, &entries, scale) {
            let n = r.normalized_vs(&ff);
            t.push_row(vec![
                r.scheme.clone(),
                f2(n.time),
                f2(n.energy),
                f2(n.power),
                r.iterations.to_string(),
            ]);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsls_core::{DvfsPolicy, Scheme};

    #[test]
    fn fw_recovery_is_structure_sensitive() {
        // Figure 8's thesis: the best scheme depends on the workload
        // because FW's recovery quality depends on matrix structure. With
        // identical fault counts, LI's *iteration* overhead on a
        // regular-banded matrix (crystm02) must be smaller than on the
        // dense-row matrix (nd24k), where the diagonal block captures a
        // smaller share of each row's coupling.
        use crate::runners::evenly_spaced_faults;
        let ranks = 8;
        let mut overheads = Vec::new();
        for name in ["crystm02", "nd24k"] {
            let w = suite(name, Scale::Quick);
            let ff = run_fault_free(&w, ranks, Scale::Quick);
            let faults = evenly_spaced_faults(5, ff.iterations, ranks, "f8t");
            let fw = SchemeRun::on(&w, ranks, Scheme::li_local_cg())
                .dvfs(DvfsPolicy::ThrottleWaiters)
                .faults(faults)
                .tag(format!("f8t-{name}"))
                .execute(Scale::Quick);
            assert!(fw.converged);
            overheads.push(fw.iterations as f64 / ff.iterations as f64);
        }
        assert!(
            overheads[0] < overheads[1],
            "regular crystm02 ({}) should recover more cheaply than dense-row nd24k ({})",
            overheads[0],
            overheads[1]
        );
    }
}
