//! Table 5 — suite-average normalized time/power/energy per scheme.

use rsls_core::interval::CheckpointInterval;

use crate::artifacts::suite;
use crate::output::{f2, Table};
use crate::runners::{
    lineup, poisson_faults_for, run_fault_free, run_lineup, SchemeRun, TRADEOFF_LINEUP,
};
use crate::{Scale, SUITE};

/// Reproduces Table 5: time, power, and energy cost of resilience per
/// scheme, averaged over all suite matrices and normalized to FF.
/// Checkpoint intervals follow Young's formula (the §5.3 methodology);
/// fault arrivals are Poisson at the same per-run rate for every scheme.
pub fn run(scale: Scale) -> Vec<Table> {
    let ranks = scale.default_ranks();
    let entries = lineup(TRADEOFF_LINEUP, CheckpointInterval::Young);

    let mut sums = vec![(0.0f64, 0.0f64, 0.0f64); entries.len()];
    let mut count = 0usize;
    for spec in SUITE {
        let w = suite(spec.name, scale);
        let ff = run_fault_free(&w, ranks, scale);
        let (faults, mtbf_s) = poisson_faults_for(&ff, 4.0, ranks, spec.name);
        let template = SchemeRun::fault_free(&w, ranks)
            .faults(faults)
            .tag(format!("t5-{}", spec.name))
            .mtbf_s(mtbf_s);
        for (sum, r) in sums.iter_mut().zip(run_lineup(&template, &entries, scale)) {
            let n = r.normalized_vs(&ff);
            sum.0 += n.time;
            sum.1 += n.power;
            sum.2 += n.energy;
        }
        count += 1;
    }

    let mut t = Table::new(
        format!("Table 5 — normalized cost of resilience (suite average, {count} matrices)"),
        &["scheme", "Time", "Power", "Energy"],
    );
    t.push_row(vec!["FF".into(), f2(1.0), f2(1.0), f2(1.0)]);
    for (e, sum) in entries.iter().zip(&sums) {
        let c = count as f64;
        t.push_row(vec![
            e.run_label(),
            f2(sum.0 / c),
            f2(sum.1 / c),
            f2(sum.2 / c),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsls_core::{DvfsPolicy, Scheme};

    #[test]
    fn table5_shape_holds_on_one_matrix() {
        // The cheap slice of Table 5's ordering: RD power 2x;
        // CR-D time > CR-M time; LI-DVFS power < 1.
        let ranks = 8;
        let w = suite("crystm02", Scale::Quick);
        let ff = run_fault_free(&w, ranks, Scale::Quick);
        let (faults, mtbf) = poisson_faults_for(&ff, 4.0, ranks, "t5-test");
        let rd = SchemeRun::on(&w, ranks, Scheme::Dmr)
            .faults(faults.clone())
            .tag("t5t")
            .mtbf_s(mtbf)
            .execute(Scale::Quick);
        let li = SchemeRun::on(&w, ranks, Scheme::li_local_cg())
            .dvfs(DvfsPolicy::ThrottleWaiters)
            .faults(faults.clone())
            .tag("t5t")
            .mtbf_s(mtbf)
            .execute(Scale::Quick);
        let crm = SchemeRun::on(&w, ranks, Scheme::cr_memory())
            .faults(faults.clone())
            .tag("t5t")
            .mtbf_s(mtbf)
            .execute(Scale::Quick);
        let crd = SchemeRun::on(&w, ranks, Scheme::cr_disk())
            .faults(faults)
            .tag("t5t")
            .mtbf_s(mtbf)
            .execute(Scale::Quick);
        assert!((rd.avg_power_w / ff.avg_power_w - 2.0).abs() < 0.05);
        assert!(
            crd.time_s > crm.time_s,
            "CR-D must cost more time than CR-M"
        );
        assert!(
            li.avg_power_w < ff.avg_power_w,
            "LI-DVFS reduces average power"
        );
    }
}
