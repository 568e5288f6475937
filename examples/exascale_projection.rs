//! Project resilience costs from measured runs to exascale (§6).
//!
//! Measures one suite workload on the virtual cluster, fits the §3 model
//! parameters from the run reports, and projects `T_res`/`E_res`/power
//! for every scheme under weak scaling with a decreasing system MTBF —
//! the Figure 9 pipeline end-to-end, starting from *your own measured
//! parameters* instead of the defaults.
//!
//! ```text
//! cargo run --release --example exascale_projection
//! ```

use rsls_core::{DvfsPolicy, Scheme};
use rsls_experiments::runners::{poisson_faults_for, run_fault_free, workload, SchemeRun};
use rsls_experiments::Scale;
use rsls_models::general::OverheadModel;
use rsls_models::{project_scheme, FittedParams, ProjectionConfig};

/// The projected schemes, as report labels: forward recovery is LI with DVFS.
const LABELS: [&str; 4] = ["RD", "CR-D", "CR-M", "LI-DVFS"];

fn main() {
    let ranks = 64;
    let (a, b) = workload("crystm02", Scale::Quick);
    println!("measuring crystm02 analog on {ranks} virtual ranks...");
    let ff = run_fault_free(&a, &b, ranks, Scale::Quick);
    let (faults, mtbf) = poisson_faults_for(&ff, 4.0, ranks, "projection");

    let li = SchemeRun::new(&a, &b, ranks, Scheme::li_local_cg())
        .dvfs(DvfsPolicy::ThrottleWaiters)
        .faults(faults.clone())
        .tag("proj")
        .mtbf_s(mtbf)
        .execute(Scale::Quick);
    let crd = SchemeRun::new(&a, &b, ranks, Scheme::cr_disk())
        .faults(faults)
        .tag("proj")
        .mtbf_s(mtbf)
        .execute(Scale::Quick);

    let li_fit = FittedParams::from_reports(&li, &ff);
    let crd_fit = FittedParams::from_reports(&crd, &ff);
    println!(
        "fitted: t_iter = {:.2e} s, t_const = {:.2e} s/fault, t_C(disk) = {:.2e} s",
        li_fit.t_iter_s, li_fit.t_const_s, crd_fit.t_c_s
    );

    // Feed the fitted constants into the §6 projection. Per the paper,
    // t_C of CR-D and t_const of FW grow linearly with system size; the
    // measured values anchor the lines at the measured scale.
    let cfg = ProjectionConfig {
        t_solve_s: ff.time_s,
        overhead: OverheadModel {
            spmv_comm_s: ff.time_s * 0.05,
            spmv_growth_per_doubling: 0.08,
            dot_comm_per_level_s: ff.time_s * 0.005,
            reference_n: ranks,
        },
        tc_disk_base_s: crd_fit.t_c_s,
        tc_disk_slope_s: crd_fit.t_c_s / ranks as f64,
        t_const_base_s: li_fit.t_const_s,
        t_const_slope_s: li_fit.t_const_s / ranks as f64 * 0.1,
        fw_extra_frac_per_fault: (li_fit.t_extra_per_fault_s / ff.time_s).max(1e-4),
        ..ProjectionConfig::default()
    };

    println!("\nprojected normalized overheads (T_res | E_res | P):");
    println!(
        "{:>10}  {:>22}  {:>22}  {:>22}  {:>22}",
        "#procs", LABELS[0], LABELS[1], LABELS[2], LABELS[3]
    );
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let mut row = format!("{n:>10}");
        for label in LABELS {
            let p = project_scheme(label, &cfg, n).expect("a report label");
            row.push_str(&format!(
                "  {:>6.2} {:>6.2} {:>6.2} ",
                p.t_res, p.e_res, p.p
            ));
        }
        println!("{row}");
    }
    println!("\ntrends (paper Fig. 9): RD flat; CR-D grows fastest; CR-M negligible;");
    println!("FW grows ~linearly; FW/CR-D power drops as recovery time dominates.");
}
