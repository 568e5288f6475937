//! Figure 3 — accuracy and cost of different recovery mechanisms.

use rsls_core::interval::CheckpointInterval;

use crate::artifacts::suite;
use crate::output::{f2, sci, Table};
use crate::runners::{lineup, poisson_faults_for, run_fault_free, run_lineup, SchemeRun};
use crate::Scale;

/// Figure 3's recovery mechanisms after FF: RD, CR to disk, and the two
/// interpolations with DVFS.
pub const LINEUP: &[&str] = &["RD", "CR-D", "LI-DVFS", "LSI-DVFS"];

/// Reproduces Figure 3: time and energy overhead (normalized to FF) of
/// RD, CR (to disk) and FW on the Andrews matrix, with faults arriving at
/// a Poisson rate. The paper sets MTBF = 0.1 h on its testbed; here the
/// MTBF is set so the *fault count over the run* matches that regime
/// (≈ 4 faults per FF execution — see EXPERIMENTS.md).
pub fn run(scale: Scale) -> Vec<Table> {
    let ranks = scale.default_ranks();
    let w = suite("Andrews", scale);
    let ff = run_fault_free(&w, ranks, scale);
    let (faults, mtbf_s) = poisson_faults_for(&ff, 4.0, ranks, "fig3");

    let mut t = Table::new(
        "Figure 3 — accuracy and cost of recovery mechanisms (Andrews analog)",
        &[
            "scheme",
            "final residual",
            "norm time",
            "norm energy",
            "faults",
        ],
    );
    let template = SchemeRun::fault_free(&w, ranks)
        .faults(faults)
        .tag("fig3")
        .mtbf_s(mtbf_s);
    let mut reports = run_lineup(&template, &lineup(LINEUP, CheckpointInterval::Young), scale);
    reports.insert(0, ff.clone());
    for r in reports {
        let n = r.normalized_vs(&ff);
        t.push_row(vec![
            r.scheme.clone(),
            sci(r.final_relative_residual),
            f2(n.time),
            f2(n.energy),
            r.faults_injected.to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsls_core::{DvfsPolicy, Scheme};

    #[test]
    fn fw_consumes_less_energy_than_rd_and_cr() {
        // Figure 3's key observation: "FW consumes the least energy among
        // the recovery mechanisms". Enough ranks that the per-rank block
        // (and hence the reconstruction) stays thin, as on the paper's
        // 192-core platform.
        let ranks = 64;
        let w = suite("Andrews", Scale::Quick);
        let ff = run_fault_free(&w, ranks, Scale::Quick);
        let (faults, mtbf) = poisson_faults_for(&ff, 3.0, ranks, "fig3-test");
        let rd = SchemeRun::on(&w, ranks, Scheme::Dmr)
            .faults(faults.clone())
            .tag("f3t")
            .mtbf_s(mtbf)
            .execute(Scale::Quick);
        let fw = SchemeRun::on(&w, ranks, Scheme::li_local_cg())
            .dvfs(DvfsPolicy::ThrottleWaiters)
            .faults(faults.clone())
            .tag("f3t")
            .mtbf_s(mtbf)
            .execute(Scale::Quick);
        let cr = SchemeRun::on(&w, ranks, Scheme::cr_disk())
            .faults(faults)
            .tag("f3t")
            .mtbf_s(mtbf)
            .execute(Scale::Quick);
        assert!(fw.converged && cr.converged && rd.converged);
        let e_fw = fw.energy_j / ff.energy_j;
        let e_rd = rd.energy_j / ff.energy_j;
        let e_cr = cr.energy_j / ff.energy_j;
        assert!(e_fw < e_rd, "FW {e_fw} must beat RD {e_rd}");
        assert!(e_fw < e_cr, "FW {e_fw} must beat CR-D {e_cr}");
    }
}
