//! Figure 4 — CG-based construction vs LU/QR baselines (Kuu, 5 faults).

use rsls_core::{ConstructionMethod, ForwardKind, Scheme};

use crate::output::{f2, sci, Table};
use crate::runners::{evenly_spaced_faults, execute_runs, run_fault_free, workload, SchemeRun};
use crate::Scale;

/// Construction tolerances swept for the CG-based schemes (the paper's
/// x-axis).
const TOLERANCES: [f64; 5] = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10];

/// Reproduces Figure 4: time-to-solution of LI/LSI with the optimized
/// local-CG construction (one point per inner tolerance) against the
/// exact LU-based LI and QR-based LSI baselines.
pub fn run(scale: Scale) -> Vec<Table> {
    let ranks = scale.default_ranks();
    let (a, b) = workload("Kuu", scale);
    let ff = run_fault_free(&a, &b, ranks, scale);
    let faults = evenly_spaced_faults(5, ff.iterations, ranks, "fig4");

    let mut t = Table::new(
        "Figure 4 — time-to-solution with CG-based construction (Kuu, 5 faults)",
        &["scheme", "inner tol", "iters", "time (s)", "norm time"],
    );

    // (row label, inner tolerance, scheme): the exact baselines first,
    // then the CG-based sweep — not registry rows, so not a line-up.
    let mut points = vec![
        ("LI (LU)", "exact".to_string(), Scheme::li_exact()),
        ("LSI (QR)", "exact".to_string(), Scheme::lsi_exact()),
    ];
    for tol in TOLERANCES {
        for (label, kind) in [
            (
                "LI (CG)",
                ForwardKind::Linear as fn(ConstructionMethod) -> ForwardKind,
            ),
            (
                "LSI (CG)",
                ForwardKind::LeastSquares as fn(ConstructionMethod) -> ForwardKind,
            ),
        ] {
            let method = ConstructionMethod::local_cg_fixed(tol, 2000);
            points.push((label, sci(tol), Scheme::Forward(kind(method))));
        }
    }
    let template = SchemeRun::fault_free(&a, &b, ranks)
        .faults(faults)
        .tag("fig4");
    let runs: Vec<_> = points
        .iter()
        .map(|&(_, _, scheme)| template.clone().scheme(scheme))
        .collect();
    for ((label, tol, _), r) in points.iter().zip(execute_runs(&runs, scale)) {
        t.push_row(vec![
            label.to_string(),
            tol.clone(),
            r.iterations.to_string(),
            sci(r.time_s),
            f2(r.time_s / ff.time_s),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_based_li_is_no_slower_than_lu_based() {
        // Figure 4's claim: "using CG has a shorter time-to-solution than
        // previous solutions for both LI and LSI" (4–15%).
        let ranks = 8;
        let (a, b) = workload("Kuu", Scale::Quick);
        let ff = run_fault_free(&a, &b, ranks, Scale::Quick);
        let faults = evenly_spaced_faults(5, ff.iterations, ranks, "fig4-test");
        let lu = SchemeRun::new(&a, &b, ranks, Scheme::li_exact())
            .faults(faults.clone())
            .tag("f4t")
            .execute(Scale::Quick);
        let cg = SchemeRun::new(
            &a,
            &b,
            ranks,
            Scheme::Forward(ForwardKind::Linear(ConstructionMethod::local_cg_fixed(
                1e-6, 2000,
            ))),
        )
        .faults(faults)
        .tag("f4t")
        .execute(Scale::Quick);
        assert!(lu.converged && cg.converged);
        assert!(
            cg.time_s <= lu.time_s * 1.001,
            "CG-based LI ({}) must not lose to LU-based ({})",
            cg.time_s,
            lu.time_s
        );
    }

    #[test]
    fn qr_baseline_pays_for_communication() {
        // The parallel-QR baseline must carry visible reconstruction cost.
        let ranks = 8;
        let (a, b) = workload("Kuu", Scale::Quick);
        let ff = run_fault_free(&a, &b, ranks, Scale::Quick);
        let faults = evenly_spaced_faults(5, ff.iterations, ranks, "fig4-test2");
        let qr = SchemeRun::new(&a, &b, ranks, Scheme::lsi_exact())
            .faults(faults.clone())
            .tag("f4t2")
            .execute(Scale::Quick);
        let cgls = SchemeRun::new(&a, &b, ranks, Scheme::lsi_local_cg())
            .faults(faults)
            .tag("f4t2")
            .execute(Scale::Quick);
        assert!(qr.breakdown.reconstruct_s > 0.0);
        assert!(
            cgls.time_s <= qr.time_s * 1.001,
            "local CGLS ({}) must not lose to parallel QR ({})",
            cgls.time_s,
            qr.time_s
        );
    }
}
