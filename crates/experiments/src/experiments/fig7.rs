//! Figure 7 — DVFS power reduction and energy savings.

use rsls_core::interval::CheckpointInterval;

use crate::output::{f2, f3, Table};
use crate::runners::{
    evenly_spaced_faults, lineup, run_fault_free, run_lineup, workload, SchemeRun,
};
use crate::{Scale, SUITE};

/// LI and LSI with and without the DVFS optimization; Figure 7a is the
/// LI pair.
pub const LINEUP: &[&str] = &["LI", "LI-DVFS", "LSI", "LSI-DVFS"];

/// Figure 7a — the power profile of nd24k on a single 24-core node under
/// plain LI vs LI-DVFS. The printed table summarizes the plateau levels;
/// the full resampled profile is what the CSV dump carries.
pub fn run_a(scale: Scale) -> Vec<Table> {
    let ranks = scale.node_ranks();
    let (a, b) = workload("nd24k", scale);
    let ff = run_fault_free(&a, &b, ranks, scale);
    let faults = evenly_spaced_faults(5, ff.iterations, ranks, "fig7a");

    let mut t = Table::new(
        "Figure 7a — construction-phase power of nd24k (24-core node)",
        &[
            "scheme",
            "compute power (W)",
            "construction power (W)",
            "construction/compute",
            "reduction vs plain LI",
            "time (norm)",
        ],
    );
    let mut plain_trough = None;
    let mut traces = Table::new(
        "Figure 7a — power traces (long format)",
        &["scheme", "time (s)", "power (W)"],
    );
    let template = SchemeRun::fault_free(&a, &b, ranks)
        .faults(faults)
        .tag("fig7a");
    let entries = lineup(&LINEUP[..2], CheckpointInterval::Young);
    for r in run_lineup(&template, &entries, scale) {
        // Plateau detection from the recorded profile: the top level is the
        // compute plateau, the lowest sustained level during the run is the
        // construction plateau.
        let peak = r
            .power_profile
            .iter()
            .map(|s| s.watts)
            .fold(0.0f64, f64::max);
        let trough = r
            .power_profile
            .iter()
            .map(|s| s.watts)
            .fold(f64::INFINITY, f64::min);
        // The §4.2 headline: power reduction of the DVFS-managed
        // construction phase relative to the unmanaged one (~39-40%).
        let vs_plain = match plain_trough {
            None => {
                plain_trough = Some(trough);
                "-".to_string()
            }
            Some(p) => format!("{:.0}%", (1.0 - trough / p) * 100.0),
        };
        t.push_row(vec![
            r.scheme.clone(),
            f2(peak),
            f2(trough),
            f2(trough / peak),
            vs_plain,
            f3(r.time_s / ff.time_s),
        ]);
        // Downsample the piecewise profile to ~400 trace points.
        for seg in &r.power_profile {
            traces.push_row(vec![
                r.scheme.clone(),
                format!("{:.6e}", seg.t0),
                f2(seg.watts),
            ]);
            traces.push_row(vec![
                r.scheme.clone(),
                format!("{:.6e}", seg.t1),
                f2(seg.watts),
            ]);
        }
    }
    vec![t, traces]
}

/// Figure 7b — average normalized time/power/energy over the 14-matrix
/// suite for LI/LSI with and without the DVFS optimization, plus the
/// resilience-energy share.
pub fn run_b(scale: Scale) -> Vec<Table> {
    let ranks = scale.default_ranks();
    let entries = lineup(LINEUP, CheckpointInterval::Young);

    let mut sums = vec![(0.0f64, 0.0f64, 0.0f64, 0.0f64); entries.len()];
    let mut count = 0usize;
    for spec in SUITE {
        let (a, b) = workload(spec.name, scale);
        let ff = run_fault_free(&a, &b, ranks, scale);
        let faults = evenly_spaced_faults(10, ff.iterations, ranks, spec.name);
        let template = SchemeRun::fault_free(&a, &b, ranks)
            .faults(faults)
            .tag("fig7b");
        for (sum, r) in sums.iter_mut().zip(run_lineup(&template, &entries, scale)) {
            let n = r.normalized_vs(&ff);
            sum.0 += n.time;
            sum.1 += n.power;
            sum.2 += n.energy;
            sum.3 += r.resilience_energy_fraction();
        }
        count += 1;
    }

    let mut t = Table::new(
        format!("Figure 7b — suite-average normalized T/P/E ({count} matrices, 10 faults)"),
        &["scheme", "T", "P", "E", "E_res share"],
    );
    for (e, sum) in entries.iter().zip(&sums) {
        let c = count as f64;
        t.push_row(vec![
            e.label.to_string(),
            f2(sum.0 / c),
            f2(sum.1 / c),
            f2(sum.2 / c),
            f2(sum.3 / c),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsls_core::{DvfsPolicy, Scheme};

    #[test]
    fn dvfs_construction_power_drops_about_forty_percent() {
        // §4.2 / Figure 7a: power during reconstruction drops ~39-40%
        // relative to the un-throttled construction phase, and the node
        // sits near 0.45x of the compute plateau.
        let ranks = 24;
        let (a, b) = workload("nd24k", Scale::Quick);
        let ff = run_fault_free(&a, &b, ranks, Scale::Quick);
        let faults = evenly_spaced_faults(5, ff.iterations, ranks, "fig7a-test");
        let trough_of = |dvfs| {
            let r = SchemeRun::new(&a, &b, ranks, Scheme::li_local_cg())
                .dvfs(dvfs)
                .faults(faults.clone())
                .tag("f7t")
                .execute(Scale::Quick);
            let peak = r
                .power_profile
                .iter()
                .map(|s| s.watts)
                .fold(0.0f64, f64::max);
            let trough = r
                .power_profile
                .iter()
                .map(|s| s.watts)
                .fold(f64::INFINITY, f64::min);
            (peak, trough)
        };
        let (peak_plain, trough_plain) = trough_of(DvfsPolicy::OsDefault);
        let (_, trough_dvfs) = trough_of(DvfsPolicy::ThrottleWaiters);
        let plain_ratio = trough_plain / peak_plain;
        let dvfs_ratio = trough_dvfs / peak_plain;
        assert!(
            (plain_ratio - 0.75).abs() < 0.05,
            "plain construction ratio {plain_ratio} (paper: 0.75)"
        );
        assert!(
            (dvfs_ratio - 0.45).abs() < 0.05,
            "DVFS construction ratio {dvfs_ratio} (paper: 0.45)"
        );
        let reduction = 1.0 - trough_dvfs / trough_plain;
        assert!(
            (reduction - 0.40).abs() < 0.05,
            "DVFS reduction {reduction} (paper: ~39-40%)"
        );
    }
}
