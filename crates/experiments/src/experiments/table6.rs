//! Table 6 — model validation for x104.

use rsls_core::interval::CheckpointInterval;
use rsls_models::validate;

use crate::output::{f2, Table};
use crate::runners::{
    lineup, poisson_faults_for, run_fault_free, run_lineup, workload, SchemeRun, TRADEOFF_LINEUP,
};
use crate::Scale;

/// Reproduces Table 6: for matrix x104, the §3 models' predicted
/// `T_res`, `P`, and `E_res` (normalized to FF) against the measured
/// values, per scheme.
pub fn run(scale: Scale) -> Vec<Table> {
    let ranks = scale.default_ranks();
    let (a, b) = workload("x104", scale);
    let ff = run_fault_free(&a, &b, ranks, scale);
    let (faults, mtbf_s) = poisson_faults_for(&ff, 4.0, ranks, "table6");

    let mut t = Table::new(
        "Table 6 — model vs experiment for x104 (normalized to FF)",
        &[
            "scheme",
            "model T_res",
            "model P",
            "model E_res",
            "exp T_res",
            "exp P",
            "exp E_res",
        ],
    );
    t.push_row(vec![
        "FF".into(),
        f2(0.0),
        f2(1.0),
        f2(0.0),
        f2(0.0),
        f2(1.0),
        f2(0.0),
    ]);
    let template = SchemeRun::fault_free(&a, &b, ranks)
        .faults(faults)
        .tag("table6")
        .mtbf_s(mtbf_s);
    let entries = lineup(TRADEOFF_LINEUP, CheckpointInterval::Young);
    for r in run_lineup(&template, &entries, scale) {
        let row = validate(&r, &ff);
        t.push_row(vec![
            row.scheme.clone(),
            f2(row.model_t_res),
            f2(row.model_p),
            f2(row.model_e_res),
            f2(row.exp_t_res),
            f2(row.exp_p),
            f2(row.exp_e_res),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsls_core::Scheme;

    #[test]
    fn model_and_experiment_agree_on_scheme_ordering() {
        // Table 6's purpose: "our main goal is to provide comparison and
        // relative order between the schemes". Check that model and
        // experiment order CR-D vs CR-M the same way.
        let ranks = 8;
        let (a, b) = workload("x104", Scale::Quick);
        let ff = run_fault_free(&a, &b, ranks, Scale::Quick);
        let (faults, mtbf) = poisson_faults_for(&ff, 4.0, ranks, "t6-test");
        let crm = SchemeRun::new(&a, &b, ranks, Scheme::cr_memory())
            .faults(faults.clone())
            .tag("t6t")
            .mtbf_s(mtbf)
            .execute(Scale::Quick);
        let crd = SchemeRun::new(&a, &b, ranks, Scheme::cr_disk())
            .faults(faults)
            .tag("t6t")
            .mtbf_s(mtbf)
            .execute(Scale::Quick);
        let vm = validate(&crm, &ff);
        let vd = validate(&crd, &ff);
        assert!(vd.exp_t_res > vm.exp_t_res, "measured: CR-D > CR-M");
        assert!(vd.model_t_res > vm.model_t_res, "modeled: CR-D > CR-M");
    }
}
