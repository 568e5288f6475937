//! Shared run orchestration for the experiment harnesses.
//!
//! A line-up is a list of report labels (`"RD"`, `"LI-DVFS"`, `"CR-D"`):
//! [`lineup`] resolves one through the scheme registry, applying the
//! harness's checkpoint interval and the `--schemes` filter, and
//! [`run_lineup`] / [`execute_runs`] submit a table's runs on one system
//! to the process-wide campaign engine ([`crate::campaign`]) as one
//! batch — cached by content address when the engine has a cache, and
//! executed in parallel under `--jobs N`.

use std::sync::{Arc, OnceLock};

use rsls_campaign::UnitSpec;
use rsls_core::driver::RunConfig;
use rsls_core::interval::CheckpointInterval;
use rsls_core::{DvfsPolicy, RunReport, Scheme};
use rsls_faults::{FaultClass, FaultSchedule};
use rsls_sparse::CsrMatrix;

use crate::campaign::{execute_unit, execute_units, unit_spec};
use crate::Scale;

/// The §5.2 line-up (Fig. 5, Fig. 6, Table 4): FF, RD, F0, FI, LI, LSI
/// and CR to disk at the fixed interval of [`cr_interval_for`].
pub const STANDARD_LINEUP: &[&str] = &["FF", "RD", "F0", "FI", "LI", "LSI", "CR-D"];

/// The §5.3 line-up (Fig. 8, Tables 5 and 6): interpolation with the
/// DVFS optimization, checkpoints at the Young interval.
pub const TRADEOFF_LINEUP: &[&str] = &["RD", "LI-DVFS", "LSI-DVFS", "CR-M", "CR-D"];

/// One resolved line-up entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineupEntry {
    /// The label as the line-up spells it (`"LI-DVFS"`).
    pub label: &'static str,
    /// The scheme, with the line-up's checkpoint interval applied.
    pub scheme: Scheme,
    /// The DVFS policy the label names.
    pub dvfs: DvfsPolicy,
}

impl LineupEntry {
    /// The label this entry's reports carry (`"LI (CG)-DVFS"`).
    pub fn run_label(&self) -> String {
        self.scheme.run_label(self.dvfs)
    }

    /// FF: the fault-free baseline, which every filter keeps.
    pub fn is_baseline(&self) -> bool {
        self.scheme == Scheme::FaultFree
    }
}

/// The process-wide scheme filter (`rsls-run --schemes CR-LC,MNF`):
/// when set, line-ups keep only the listed scheme labels (and FF).
static SCHEME_FILTER: OnceLock<Vec<String>> = OnceLock::new();

/// Restricts line-ups to the given scheme labels (canonical
/// [`Scheme::label`] strings — validate with [`Scheme::parse_label`]
/// before calling). First call wins; returns `false` if a filter was
/// already installed. The default (never called) runs everything.
pub fn set_scheme_filter(labels: Vec<String>) -> bool {
    SCHEME_FILTER.set(labels).is_ok()
}

/// Resolves a line-up: each label through [`Scheme::parse_run_label`],
/// `interval` set on the checkpointing schemes ([`Scheme::with_interval`]),
/// and only the schemes `filter` names (canonical [`Scheme::label`]
/// strings) kept, FF always. A pure function; [`lineup`] calls it with
/// the `--schemes` filter.
///
/// # Panics
///
/// On a label that is not a report label: line-ups are constants, so
/// that is a typo.
pub fn resolve_lineup(
    labels: &[&'static str],
    interval: CheckpointInterval,
    filter: Option<&[String]>,
) -> Vec<LineupEntry> {
    labels
        .iter()
        .map(|&label| {
            let (scheme, dvfs) = Scheme::parse_run_label(label)
                .unwrap_or_else(|| panic!("line-up label {label:?} is not a report label"));
            LineupEntry {
                label,
                scheme: scheme.with_interval(interval),
                dvfs,
            }
        })
        .filter(|e| e.is_baseline() || filter.is_none_or(|f| f.contains(&e.scheme.label())))
        .collect()
}

/// [`resolve_lineup`] under the process-wide `--schemes` filter.
pub fn lineup(labels: &[&'static str], interval: CheckpointInterval) -> Vec<LineupEntry> {
    resolve_lineup(labels, interval, SCHEME_FILTER.get().map(Vec::as_slice))
}

/// The report labels [`run_standard_lineup`] returns, FF first, under the
/// `--schemes` filter — the column headers of Fig. 5 and Table 4.
pub fn lineup_labels() -> Vec<String> {
    // A label never carries the checkpoint interval.
    lineup(STANDARD_LINEUP, CheckpointInterval::Young)
        .iter()
        .map(LineupEntry::run_label)
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
pub fn run_fault_free(a: &CsrMatrix, b: &[f64], ranks: usize, scale: Scale) -> RunReport {
    SchemeRun::fault_free(a, b, ranks).execute(scale)
}

/// Parameters of one scheme run — the experiment knobs, named.
///
/// Construct with [`SchemeRun::new`] (fault-free, OS-default DVFS, no
/// MTBF), adjust with the builder methods, and submit through
/// [`execute_runs`] / [`run_lineup`].
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

    /// The fault-free baseline run — also the template a line-up starts
    /// from ([`run_lineup`] sets each entry's scheme on it).
    pub fn fault_free(a: &'a CsrMatrix, b: &'a [f64], ranks: usize) -> Self {
        SchemeRun::new(a, b, ranks, Scheme::FaultFree)
    }

    /// Sets the scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the DVFS policy.
    pub fn dvfs(mut self, dvfs: DvfsPolicy) -> Self {
        self.dvfs = dvfs;
        self
    }

    /// Sets the scheme and DVFS policy of a line-up entry.
    pub fn entry(self, entry: &LineupEntry) -> Self {
        self.scheme(entry.scheme).dvfs(entry.dvfs)
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

    /// The campaign unit this run is at `scale`.
    pub fn spec(&self, scale: Scale) -> UnitSpec {
        unit_spec(self.a, self.b, &self.tag, scale, self.config())
    }

    /// Executes the run through the campaign engine — a one-unit batch,
    /// for tests and examples.
    pub fn execute(&self, scale: Scale) -> RunReport {
        execute_unit(self.a, self.b, self.spec(scale))
    }
}

/// Executes `runs`, all on one system, through the campaign engine as
/// one batch; reports come back in submission order.
pub fn execute_runs(runs: &[SchemeRun<'_>], scale: Scale) -> Vec<RunReport> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    debug_assert!(runs.iter().all(|r| std::ptr::eq(r.a, first.a)));
    let specs: Vec<UnitSpec> = runs.iter().map(|r| r.spec(scale)).collect();
    execute_units(first.a, first.b, &specs)
}

/// Runs `template` once per line-up entry — the entry's scheme and DVFS
/// policy, everything else as the template — as one batch, reports in
/// line-up order. FF is skipped: the baseline is the caller's own
/// unfaulted run.
pub fn run_lineup(
    template: &SchemeRun<'_>,
    lineup: &[LineupEntry],
    scale: Scale,
) -> Vec<RunReport> {
    let runs: Vec<SchemeRun<'_>> = lineup
        .iter()
        .filter(|e| !e.is_baseline())
        .map(|e| template.clone().entry(e))
        .collect();
    execute_runs(&runs, scale)
}

/// Routes an arbitrary [`RunConfig`] through the campaign engine —
/// for harnesses that need knobs [`SchemeRun`] does not carry
/// (residual-history recording, frequency pinning, compression).
pub fn run_cached(a: &CsrMatrix, b: &[f64], tag: &str, scale: Scale, cfg: RunConfig) -> RunReport {
    execute_unit(a, b, unit_spec(a, b, tag, scale, cfg))
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

/// Runs the §5.2 line-up on one suite matrix: returns `(ff_report,
/// per-scheme reports)` with k evenly spaced faults, FF first.
///
/// The fault-free baseline runs first (its iteration count anchors the
/// fault schedule and checkpoint interval); the remaining schemes are
/// one batch.
pub fn run_standard_lineup(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    k_faults: usize,
    name: &str,
    scale: Scale,
) -> (RunReport, Vec<RunReport>) {
    let ff = SchemeRun::fault_free(a, b, ranks).tag(name).execute(scale);
    let interval = CheckpointInterval::EveryIterations(cr_interval_for(scale, ff.iterations));
    let faulted = SchemeRun::fault_free(a, b, ranks)
        .faults(evenly_spaced_faults(k_faults, ff.iterations, ranks, name))
        .tag(name);
    let mut reports = run_lineup(&faulted, &lineup(STANDARD_LINEUP, interval), scale);
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
    use crate::experiments::{extensions, fig3, fig5x, fig7};

    /// Every line-up constant a harness resolves.
    const LINEUPS: &[&[&str]] = &[
        STANDARD_LINEUP,
        TRADEOFF_LINEUP,
        fig3::LINEUP,
        fig5x::LINEUP,
        fig5x::CORRELATED,
        fig7::LINEUP,
        extensions::REDUNDANCY,
        extensions::SWO,
        extensions::CR_D,
    ];

    #[test]
    fn standard_lineup_has_seven_schemes() {
        let entries = resolve_lineup(STANDARD_LINEUP, CheckpointInterval::Young, None);
        assert_eq!(entries.len(), 7);
        let labels: Vec<String> = entries.iter().map(LineupEntry::run_label).collect();
        assert_eq!(
            labels,
            ["FF", "RD", "F0", "FI", "LI (CG)", "LSI (CG)", "CR-D"],
            "the column labels of Fig. 5 and Table 4"
        );
    }

    #[test]
    fn every_lineup_resolves_with_its_interval() {
        let every = CheckpointInterval::EveryIterations(17);
        for &labels in LINEUPS {
            let entries = resolve_lineup(labels, every, None);
            assert_eq!(entries.len(), labels.len(), "{labels:?}");
            for (e, &label) in entries.iter().zip(labels) {
                assert_eq!(e.label, label);
                let (scheme, dvfs) = Scheme::parse_run_label(label).unwrap();
                assert_eq!((e.scheme, e.dvfs), (scheme.with_interval(every), dvfs));
                assert_eq!(
                    Scheme::parse_run_label(&e.run_label()),
                    Some((scheme, dvfs))
                );
            }
        }
    }

    #[test]
    fn the_filter_keeps_ff_and_the_named_schemes_in_lineup_order() {
        let filter = ["CR-D".to_string(), "LI (CG)".to_string()];
        for &labels in LINEUPS {
            let entries = resolve_lineup(labels, CheckpointInterval::Young, Some(&filter));
            let expected: Vec<&str> = labels
                .iter()
                .copied()
                .filter(|l| {
                    let (s, _) = Scheme::parse_run_label(l).unwrap();
                    s == Scheme::FaultFree || filter.contains(&s.label())
                })
                .collect();
            let kept: Vec<&str> = entries.iter().map(|e| e.label).collect();
            assert_eq!(kept, expected, "{labels:?}");
        }
        // Fig. 7b keeps its spelled row labels, LI and LI-DVFS together.
        let fig7 = resolve_lineup(fig7::LINEUP, CheckpointInterval::Young, Some(&filter));
        assert_eq!(
            fig7.iter().map(|e| e.label).collect::<Vec<_>>(),
            ["LI", "LI-DVFS"]
        );
        let none = resolve_lineup(TRADEOFF_LINEUP, CheckpointInterval::Young, Some(&[]));
        assert!(none.is_empty(), "FF is kept only where the line-up has it");
        let ff_only = resolve_lineup(STANDARD_LINEUP, CheckpointInterval::Young, Some(&[]));
        assert_eq!(ff_only.len(), 1);
        assert!(ff_only[0].is_baseline());
    }

    #[test]
    #[should_panic(expected = "not a report label")]
    fn a_typo_in_a_lineup_panics() {
        resolve_lineup(&["RD-DVFS"], CheckpointInterval::Young, None);
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
        let ff = run_fault_free(&a, &b, 8, Scale::Quick);
        let (sched, mtbf) = poisson_faults_for(&ff, 3.0, 8, "wathen100");
        assert!(mtbf > 0.0);
        // Expected ~3 over FF horizon, ~12 over the 4x horizon; allow slack.
        assert!(sched.len() <= 40);
    }
}
