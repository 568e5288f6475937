//! Figure 6 — residual histories under faults and recovery.

use rsls_core::interval::CheckpointInterval;
use rsls_core::RunReport;
use rsls_faults::{FaultClass, FaultSchedule};

use crate::artifacts::suite;
use crate::campaign::{execute_units, unit_spec_for};
use crate::output::{f2, sci, Table};
use crate::runners::{
    cr_interval_for, evenly_spaced_faults, lineup, run_fault_free, SchemeRun, STANDARD_LINEUP,
};
use crate::Scale;

/// Reproduces Figure 6: the residual-vs-iteration relation under
/// (a) a single fault at iteration 200, and (b) 10 faults on the 5-point
/// stencil. Full curves go to CSV; the printed tables summarize the jump
/// each scheme's recovery causes and the iterations to convergence.
pub fn run(scale: Scale) -> Vec<Table> {
    let ranks = scale.default_ranks();
    let (summary_a, curves_a) = single_fault_table(scale, ranks);
    vec![summary_a, curves_a, stencil_table(scale, ranks)]
}

/// Long-format residual curves (scheme, iteration, residual), downsampled
/// to ~200 points per scheme — the plottable data behind Figure 6a.
fn curves_table(title: &str, runs: &[RunReport]) -> Table {
    let mut t = Table::new(title, &["scheme", "iteration", "relative residual"]);
    for r in runs {
        let samples = r.history.samples();
        let stride = (samples.len() / 200).max(1);
        for (k, (it, res, _)) in samples.iter().enumerate() {
            if k % stride == 0 || k + 1 == samples.len() {
                t.push_row(vec![r.scheme.clone(), it.to_string(), format!("{res:.3e}")]);
            }
        }
    }
    t
}

/// The §5.2 line-up with residual histories recorded, as one batch:
/// every scheme as `template`, FF without its faults; run tags are
/// `<figure>-<scheme>`.
fn history_lineup(
    template: &SchemeRun<'_>,
    figure: &str,
    ff: &RunReport,
    scale: Scale,
) -> Vec<RunReport> {
    let every = CheckpointInterval::EveryIterations(cr_interval_for(scale, ff.iterations));
    let specs: Vec<_> = lineup(STANDARD_LINEUP, every)
        .iter()
        .map(|e| {
            let mut run = template.clone().entry(e);
            if e.is_baseline() {
                run = run.faults(FaultSchedule::fault_free());
            }
            let mut cfg = run.config();
            cfg.record_history = true;
            cfg.run_tag = format!("{figure}-{}", e.scheme.label().replace([' ', '(', ')'], ""));
            unit_spec_for(&run.workload, &run.tag, scale, cfg)
        })
        .collect();
    execute_units(&template.workload, &specs)
}

fn single_fault_table(scale: Scale, ranks: usize) -> (Table, Table) {
    // A matrix that needs comfortably more than 200 iterations.
    let w = suite("cvxbqp1", scale);
    let ff = run_fault_free(&w, ranks, scale);
    // The paper injects at iteration 200; we nudge off any multiple of the
    // checkpoint interval so CR's rollback distance is visible.
    let fault_iter = (ff.iterations / 3).clamp(10, 250);
    let fault = FaultSchedule::single_at_iteration(fault_iter, ranks / 2, FaultClass::Snf);

    let mut t = Table::new(
        format!("Figure 6a — single fault at iteration {fault_iter} (cvxbqp1 analog)"),
        &["scheme", "iters", "norm iters", "residual jump after fault"],
    );
    let template = SchemeRun::fault_free(&w, ranks)
        .faults(fault)
        .tag("fig6a-cvxbqp1");
    let runs = history_lineup(&template, "fig6a", &ff, scale);
    for r in &runs {
        t.push_row(vec![
            r.scheme.clone(),
            r.iterations.to_string(),
            f2(r.iterations as f64 / ff.iterations as f64),
            sci(r.history.worst_fault_jump()),
        ]);
    }
    let curves = curves_table("Figure 6a — residual curves (long format)", &runs);
    (t, curves)
}

fn stencil_table(scale: Scale, ranks: usize) -> Table {
    let w = suite("5-point stencil", scale);
    let ff = run_fault_free(&w, ranks, scale);

    let mut t = Table::new(
        "Figure 6b — 10 faults on the 5-point stencil",
        &["scheme", "iters", "norm iters", "converged"],
    );
    let template = SchemeRun::fault_free(&w, ranks)
        .faults(evenly_spaced_faults(10, ff.iterations, ranks, "fig6b"))
        .tag("fig6b-stencil");
    let runs = history_lineup(&template, "fig6b", &ff, scale);
    for r in runs {
        t.push_row(vec![
            r.scheme.clone(),
            r.iterations.to_string(),
            f2(r.iterations as f64 / ff.iterations as f64),
            r.converged.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::run_cached;
    use rsls_core::driver::RunConfig;
    use rsls_core::ForwardKind;
    use rsls_core::Scheme;

    #[test]
    fn single_fault_residual_jumps_except_for_rd() {
        // Figure 6a's observation: "the residual increases for all
        // recovery schemes except for RD, which overlaps with the FF case".
        let w = suite("wathen100", Scale::Quick);
        let ranks = 8;
        let ff = run_fault_free(&w, ranks, Scale::Quick);
        let fault_iter = ff.iterations / 2;

        let jump_of = |scheme: Scheme| {
            let mut cfg = RunConfig::new(scheme, ranks).with_faults(
                FaultSchedule::single_at_iteration(fault_iter, 3, FaultClass::Snf),
            );
            cfg.record_history = true;
            cfg.run_tag = format!("fig6-test-{}", scheme.label().replace([' ', '(', ')'], ""));
            run_cached(&w, "fig6-test", Scale::Quick, cfg)
                .history
                .worst_fault_jump()
        };

        let rd = jump_of(Scheme::Dmr);
        let f0 = jump_of(Scheme::Forward(ForwardKind::Zero));
        let li = jump_of(Scheme::li_local_cg());
        assert!(rd <= 1.0 + 1e-9, "RD must not jump: {rd}");
        assert!(f0 > 10.0, "F0 must jump hard: {f0}");
        assert!(li < f0, "LI's jump ({li}) must be milder than F0's ({f0})");
    }
}
