//! Shared run orchestration for the experiment harnesses.
//!
//! Every solver invocation here goes through the process-wide campaign
//! engine ([`crate::campaign`]): runs are specified canonically, cached
//! by content address when the engine has a cache, and executed on its
//! worker pool when a batch allows it.

use std::sync::{Arc, OnceLock};

use rsls_core::driver::RunConfig;
use rsls_core::interval::CheckpointInterval;
use rsls_core::{CheckpointStorage, DvfsPolicy, ForwardKind, RunReport, Scheme};
use rsls_faults::{FaultClass, FaultSchedule};
use rsls_sparse::CsrMatrix;

use crate::campaign::{execute_unit, execute_units, unit_spec};
use crate::Scale;

/// The §5.2 scheme line-up: FF, RD, F0, FI, LI, LSI, CR.
///
/// `cr_interval` is the fixed checkpoint interval in iterations (the paper
/// uses 100 with its Table 3 iteration counts; quick-scale runs shrink it
/// proportionally via [`cr_interval_for`]).
pub fn standard_schemes(cr_interval: usize) -> Vec<(Scheme, DvfsPolicy)> {
    vec![
        (Scheme::FaultFree, DvfsPolicy::OsDefault),
        (Scheme::Dmr, DvfsPolicy::OsDefault),
        (Scheme::Forward(ForwardKind::Zero), DvfsPolicy::OsDefault),
        (
            Scheme::Forward(ForwardKind::InitialGuess),
            DvfsPolicy::OsDefault,
        ),
        (Scheme::li_local_cg(), DvfsPolicy::OsDefault),
        (Scheme::lsi_local_cg(), DvfsPolicy::OsDefault),
        (
            Scheme::Checkpoint {
                storage: CheckpointStorage::Disk,
                interval: CheckpointInterval::EveryIterations(cr_interval),
            },
            DvfsPolicy::OsDefault,
        ),
    ]
}

/// The process-wide scheme filter (`rsls-run --schemes CR-LC,MNF`):
/// when set, line-up harnesses only run the listed scheme labels.
/// FF always runs — it anchors fault schedules and normalizations.
static SCHEME_FILTER: OnceLock<Vec<String>> = OnceLock::new();

/// Restricts line-up harnesses to the given scheme labels (canonical
/// [`Scheme::label`] strings — validate with [`Scheme::parse_label`]
/// before calling). First call wins; returns `false` if a filter was
/// already installed. The default (never called) runs everything.
pub fn set_scheme_filter(labels: Vec<String>) -> bool {
    SCHEME_FILTER.set(labels).is_ok()
}

/// Whether the scheme filter lets `scheme` run. FF is always allowed;
/// without an installed filter everything is.
pub fn scheme_allowed(scheme: &Scheme) -> bool {
    if matches!(scheme, Scheme::FaultFree) {
        return true;
    }
    match SCHEME_FILTER.get() {
        None => true,
        Some(labels) => labels.iter().any(|l| *l == scheme.label()),
    }
}

/// Column labels for the line-up [`run_standard_lineup`] will actually
/// execute (FF first, then the filtered scheme order) — positional
/// tables derive their headers from this so a `--schemes` filter
/// narrows the columns instead of misaligning them.
pub fn lineup_labels() -> Vec<String> {
    standard_schemes(100)
        .into_iter()
        .filter(|(scheme, _)| scheme_allowed(scheme))
        .map(|(scheme, _)| scheme.label())
        .collect()
}

/// Checkpoint interval standing in for the paper's "every 100 iterations".
///
/// The paper's fixed 100 sits between `ff_iters/2` and `ff_iters/1000` on
/// its Table 3 workloads. Quick-scale analogs converge in fewer
/// iterations, so the interval shrinks proportionally to preserve the
/// rollback-distance shape; full scale keeps the paper's literal 100.
pub fn cr_interval_for(scale: Scale, ff_iters: usize) -> usize {
    match scale {
        Scale::Full => 100,
        Scale::Quick => (ff_iters / 12).clamp(10, 100),
    }
}

/// Runs the fault-free baseline.
pub fn run_fault_free(a: &CsrMatrix, b: &[f64], ranks: usize) -> RunReport {
    SchemeRun::new(a, b, ranks, Scheme::FaultFree).execute()
}

/// Parameters of one scheme run — the experiment knobs, named.
///
/// Construct with [`SchemeRun::new`] (fault-free, OS-default DVFS, no
/// MTBF), adjust with the builder methods, and [`execute`]
/// ([`SchemeRun::execute`]) through the campaign engine.
#[derive(Debug, Clone)]
pub struct SchemeRun<'a> {
    /// System matrix.
    pub a: &'a CsrMatrix,
    /// Right-hand side.
    pub b: &'a [f64],
    /// Virtual rank count.
    pub ranks: usize,
    /// Recovery scheme under test.
    pub scheme: Scheme,
    /// DVFS policy during reconstruction.
    pub dvfs: DvfsPolicy,
    /// Fault injection plan.
    pub faults: FaultSchedule,
    /// Matrix/workload tag — names the unit in journals and (with the
    /// data fingerprint) in cache addresses, and salts on-disk
    /// checkpoint file names.
    pub tag: String,
    /// MTBF in seconds, for Young/Daly interval resolution.
    pub mtbf_s: Option<f64>,
}

impl<'a> SchemeRun<'a> {
    /// A run with no faults, OS-default DVFS, and no MTBF.
    pub fn new(a: &'a CsrMatrix, b: &'a [f64], ranks: usize, scheme: Scheme) -> Self {
        SchemeRun {
            a,
            b,
            ranks,
            scheme,
            dvfs: DvfsPolicy::OsDefault,
            faults: FaultSchedule::fault_free(),
            tag: "run".to_string(),
            mtbf_s: None,
        }
    }

    /// Sets the DVFS policy.
    pub fn dvfs(mut self, dvfs: DvfsPolicy) -> Self {
        self.dvfs = dvfs;
        self
    }

    /// Sets the fault schedule.
    pub fn faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the workload tag.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// Sets the MTBF.
    pub fn mtbf_s(mut self, mtbf_s: f64) -> Self {
        self.mtbf_s = Some(mtbf_s);
        self
    }

    /// The [`RunConfig`] this run resolves to.
    pub fn config(&self) -> RunConfig {
        let mut cfg = RunConfig::new(self.scheme, self.ranks)
            .with_faults(self.faults.clone())
            .with_dvfs(self.dvfs);
        cfg.run_tag = format!(
            "{}-{}-{}",
            self.tag,
            self.scheme.label().replace([' ', '(', ')'], ""),
            self.ranks
        );
        cfg.mtbf_s = self.mtbf_s;
        cfg
    }

    /// Executes the run through the campaign engine.
    pub fn execute(&self) -> RunReport {
        let spec = unit_spec(self.a, self.b, &self.tag, Scale::from_env(), self.config());
        execute_unit(self.a, self.b, spec)
    }
}

/// Runs one scheme with the given fault schedule and DVFS policy
/// (convenience wrapper over [`SchemeRun`]).
pub fn run_scheme(params: SchemeRun<'_>) -> RunReport {
    params.execute()
}

/// Routes an arbitrary [`RunConfig`] through the campaign engine —
/// for harnesses that need knobs [`SchemeRun`] does not carry
/// (residual-history recording, frequency pinning, compression).
pub fn run_cached(a: &CsrMatrix, b: &[f64], tag: &str, cfg: RunConfig) -> RunReport {
    execute_unit(a, b, unit_spec(a, b, tag, Scale::from_env(), cfg))
}

/// The §5.2 fault plan: `k` faults spread evenly over the fault-free
/// iteration count, deterministic per matrix name.
pub fn evenly_spaced_faults(k: usize, ff_iters: usize, ranks: usize, name: &str) -> FaultSchedule {
    let seed = name
        .bytes()
        .fold(7u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
    FaultSchedule::evenly_spaced(k, ff_iters, ranks, FaultClass::Snf, seed)
}

/// A rate-based fault plan whose MTBF is chosen so that exactly
/// `expected_faults` arrive during the fault-free execution time — the
/// stand-in for the paper's absolute "MTBF = 0.1 h" settings, whose fault
/// counts depended on their testbed's wall-clock times (see
/// EXPERIMENTS.md). Arrivals are periodic at the MTBF rate, so slower
/// schemes keep receiving faults (as they would in reality) while the
/// comparison stays free of sampling variance.
pub fn poisson_faults_for(
    ff: &RunReport,
    expected_faults: f64,
    ranks: usize,
    name: &str,
) -> (FaultSchedule, f64) {
    let mtbf_s = ff.time_s / expected_faults;
    let seed = name
        .bytes()
        .fold(13u64, |h, b| h.wrapping_mul(37).wrapping_add(b as u64));
    (
        // Horizon 2× the FF time bounds the run-away feedback of very slow
        // schemes receiving ever more faults.
        FaultSchedule::periodic_time(mtbf_s, 2.0 * ff.time_s, ranks, FaultClass::Snf, seed),
        mtbf_s,
    )
}

/// Runs the standard scheme line-up on one suite matrix: returns
/// `(ff_report, per-scheme reports)` with the §5.2 parameters
/// (k evenly spaced faults, tolerance 1e-12).
///
/// The fault-free baseline runs first (its iteration count anchors the
/// fault schedule and checkpoint interval); the remaining schemes are
/// submitted to the campaign engine as one batch, so with `--jobs N`
/// they execute in parallel.
pub fn run_standard_lineup(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    k_faults: usize,
    name: &str,
    scale: Scale,
) -> (RunReport, Vec<RunReport>) {
    let ff_run = SchemeRun::new(a, b, ranks, Scheme::FaultFree).tag(name);
    let ff = execute_unit(a, b, unit_spec(a, b, name, scale, ff_run.config()));
    let interval = cr_interval_for(scale, ff.iterations);
    let specs: Vec<_> = standard_schemes(interval)
        .into_iter()
        .filter(|(scheme, _)| *scheme != Scheme::FaultFree && scheme_allowed(scheme))
        .map(|(scheme, dvfs)| {
            let faults = evenly_spaced_faults(k_faults, ff.iterations, ranks, name);
            let run = SchemeRun::new(a, b, ranks, scheme)
                .dvfs(dvfs)
                .faults(faults)
                .tag(name);
            unit_spec(a, b, name, scale, run.config())
        })
        .collect();
    let mut reports = execute_units(a, b, &specs);
    reports.insert(0, ff.clone());
    (ff, reports)
}

/// Convenience: fetch a suite matrix + rhs at the given scale from the
/// process-wide workload cache ([`crate::artifacts`]) — every harness
/// requesting the same `(name, scale)` shares one generated instance.
pub fn workload(name: &str, scale: Scale) -> (Arc<CsrMatrix>, Arc<Vec<f64>>) {
    crate::artifacts::workload(name, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_lineup_has_seven_schemes() {
        assert_eq!(standard_schemes(100).len(), 7);
    }

    #[test]
    fn cr_interval_scales_sensibly() {
        assert_eq!(cr_interval_for(Scale::Full, 100_000), 100);
        assert_eq!(cr_interval_for(Scale::Quick, 1200), 100);
        assert_eq!(cr_interval_for(Scale::Quick, 600), 50);
        assert_eq!(cr_interval_for(Scale::Quick, 60), 10);
    }

    #[test]
    fn lineup_runs_on_a_small_matrix() {
        let (a, b) = workload("wathen100", Scale::Quick);
        let (ff, reports) = run_standard_lineup(&a, &b, 8, 2, "wathen100", Scale::Quick);
        assert!(ff.converged);
        assert_eq!(reports.len(), 7);
        for r in &reports {
            assert!(r.converged, "{} did not converge", r.scheme);
        }
        // RD tracks FF exactly.
        assert_eq!(reports[1].iterations, ff.iterations);
    }

    #[test]
    fn poisson_plan_matches_expected_rate() {
        let (a, b) = workload("wathen100", Scale::Quick);
        let ff = run_fault_free(&a, &b, 8);
        let (sched, mtbf) = poisson_faults_for(&ff, 3.0, 8, "wathen100");
        assert!(mtbf > 0.0);
        // Expected ~3 over FF horizon, ~12 over the 4x horizon; allow slack.
        assert!(sched.len() <= 40);
    }
}
