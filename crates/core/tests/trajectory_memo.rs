//! The trajectory memo changes how long a run takes, never its report.
//!
//! Every report a run produces through a memo other runs filled — in any
//! order, under eviction, or beside a concurrent run — must be the bytes
//! the same run produces alone on an empty memo. The counters pin what
//! the memo saves: a run that repeats a recorded trajectory steps nothing
//! live.

use proptest::prelude::*;
use rsls_core::driver::{run_with_memo, RunConfig};
use rsls_core::interval::CheckpointInterval;
use rsls_core::trajectory::{TrajectoryMemo, BUDGET_BYTES};
use rsls_core::Scheme;
use rsls_faults::{FaultClass, FaultSchedule};
use rsls_sparse::generators::{banded_spd, BandedConfig};
use rsls_sparse::CsrMatrix;

const RANKS: usize = 4;
/// Short enough that Young intervals resolve to a few iterations, so the
/// checkpoint schemes checkpoint before each fault.
const MTBF_S: f64 = 8.0e-6;

fn system(n: usize, seed: u64) -> (CsrMatrix, Vec<f64>) {
    system_with(n, 0.05, seed)
}

fn system_with(n: usize, dominance: f64, seed: u64) -> (CsrMatrix, Vec<f64>) {
    let a = banded_spd(&BandedConfig::regular(n, 5, dominance, seed));
    let ones = vec![1.0; n];
    let mut b = vec![0.0; n];
    a.spmv(&ones, &mut b);
    (a, b)
}

fn bytes(memo: &TrajectoryMemo, a: &CsrMatrix, b: &[f64], cfg: &RunConfig) -> String {
    serde_json::to_string(&run_with_memo(memo, a, b, cfg)).expect("RunReport serializes")
}

/// The report of `cfg` run alone on an empty memo.
fn alone(a: &CsrMatrix, b: &[f64], cfg: &RunConfig) -> String {
    bytes(&TrajectoryMemo::new(BUDGET_BYTES), a, b, cfg)
}

/// Fault plans: evenly spaced node faults, two ranks in one iteration,
/// and time-triggered faults.
fn faults(shape: usize, ff: &rsls_core::RunReport, seed: u64) -> FaultSchedule {
    match shape {
        0 => FaultSchedule::evenly_spaced(2, ff.iterations, RANKS, FaultClass::Snf, seed),
        1 => FaultSchedule::multiple_at_iteration(ff.iterations / 2, &[1, 2], FaultClass::Snf),
        _ => FaultSchedule::periodic_time(ff.time_s / 2.5, ff.time_s, RANKS, FaultClass::Snf, seed),
    }
}

/// The units of one case, in the order `order` picks.
fn units(
    labels: &[usize],
    shape: usize,
    ff: &rsls_core::RunReport,
    seed: u64,
    order: u64,
) -> Vec<RunConfig> {
    let mut units: Vec<RunConfig> = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            let scheme = Scheme::parse_label(Scheme::KNOWN_LABELS[l]).expect("registry label");
            let mut cfg = RunConfig::new(scheme, RANKS).with_faults(faults(shape, ff, seed));
            cfg.mtbf_s = Some(MTBF_S);
            cfg.record_history = i % 2 == 0;
            cfg.run_tag = format!("traj-{i}");
            cfg
        })
        .collect();
    units.push(RunConfig::new(Scheme::FaultFree, RANKS));
    // A seeded Fisher–Yates shuffle.
    let mut state = order | 1;
    for i in (1..units.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        units.swap(i, (state % (i as u64 + 1)) as usize);
    }
    units
}

fn check_case(
    budget: usize,
    n: usize,
    seed: u64,
    labels: &[usize],
    shape: usize,
    order: u64,
) -> Result<(), TestCaseError> {
    let (a, b) = system(n, seed);
    let ff = run_with_memo(
        &TrajectoryMemo::new(0),
        &a,
        &b,
        &RunConfig::new(Scheme::FaultFree, RANKS),
    );
    let memo = TrajectoryMemo::new(budget);
    for cfg in units(labels, shape, &ff, seed, order) {
        let shared = bytes(&memo, &a, &b, &cfg);
        prop_assert_eq!(shared, alone(&a, &b, &cfg), "{}", cfg.scheme.label());
    }
    if budget < BUDGET_BYTES {
        prop_assert!(memo.stats().evictions > 0, "the small budget must evict");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_memo_reports_match_runs_alone(
        n in 40usize..160,
        seed in 0u64..1000,
        labels in proptest::collection::vec(0usize..16, 2..6),
        shape in 0usize..3,
        order in 0u64..1_000_000,
    ) {
        check_case(BUDGET_BYTES, n, seed, &labels, shape, order)?;
    }

    #[test]
    fn evicting_memo_reports_match_runs_alone(
        n in 40usize..160,
        seed in 0u64..1000,
        labels in proptest::collection::vec(0usize..16, 2..6),
        shape in 0usize..3,
        order in 0u64..1_000_000,
    ) {
        // Room for the rhs and one segment start: every snapshot evicts.
        check_case(24 * n, n, seed, &labels, shape, order)?;
    }
}

#[test]
fn concurrent_units_match_runs_alone() {
    let (a, b) = system(300, 7);
    let memo = TrajectoryMemo::new(BUDGET_BYTES);
    let ff = run_with_memo(&memo, &a, &b, &RunConfig::new(Scheme::FaultFree, RANKS));
    let plan = FaultSchedule::evenly_spaced(2, ff.iterations, RANKS, FaultClass::Snf, 3);
    let cfgs: Vec<RunConfig> = ["F0", "FI", "LI", "MNF", "RD", "ABFT-CR", "CR-D", "FF"]
        .iter()
        .map(|label| {
            let mut cfg = RunConfig::new(Scheme::parse_label(label).expect("label"), RANKS)
                .with_faults(plan.clone());
            cfg.mtbf_s = Some(MTBF_S);
            cfg.record_history = true;
            cfg
        })
        .collect();
    let shared = rayon::run_indexed_with(2, cfgs.len(), |i| bytes(&memo, &a, &b, &cfgs[i]));
    for (cfg, got) in cfgs.iter().zip(shared) {
        assert_eq!(got, alone(&a, &b, cfg), "{}", cfg.scheme.label());
    }
}

/// Live steps and replayed steps `cfg` adds to `memo`'s counters, and
/// its report's iterations.
fn counted(memo: &TrajectoryMemo, a: &CsrMatrix, b: &[f64], cfg: &RunConfig) -> (u64, u64, usize) {
    let before = memo.stats();
    let report = run_with_memo(memo, a, b, cfg);
    let after = memo.stats();
    (
        after.steps_computed - before.steps_computed,
        after.steps_replayed - before.steps_replayed,
        report.iterations,
    )
}

#[test]
fn repeated_trajectories_step_nothing_live() {
    let (a, b) = system_with(400, 0.001, 11);
    let memo = TrajectoryMemo::new(BUDGET_BYTES);
    let ff_cfg = RunConfig::new(Scheme::FaultFree, RANKS);
    let (computed, replayed, n) = counted(&memo, &a, &b, &ff_cfg);
    assert_eq!(
        (computed, replayed),
        (n as u64, 0),
        "the first FF steps live"
    );
    assert!(n > 100, "the system needs a long enough trajectory: {n}");

    // RD masks every fault without touching x; FF with history is FF.
    let fault = FaultSchedule::single_at_iteration(n / 2, 1, FaultClass::Snf);
    let rd = RunConfig::new(Scheme::Dmr, RANKS).with_faults(fault.clone());
    let mut history = ff_cfg.clone();
    history.record_history = true;
    for cfg in [rd, history] {
        let (computed, replayed, iters) = counted(&memo, &a, &b, &cfg);
        assert_eq!(
            (computed, replayed),
            (0, iters as u64),
            "{}",
            cfg.scheme.label()
        );
    }

    // ABFT-CR checkpoints once, at `every`, before the fault at `at`, and
    // converges before a second checkpoint: after its restore it replays.
    let every = n / 2 + 3;
    let at = every + (n - every) / 2;
    let abft = RunConfig::new(
        Scheme::AbftCheckpoint {
            interval: CheckpointInterval::EveryIterations(every),
        },
        RANKS,
    )
    .with_faults(FaultSchedule::single_at_iteration(at, 1, FaultClass::Snf));
    let (computed, replayed, iters) = counted(&memo, &a, &b, &abft);
    assert_eq!(
        iters,
        n + (at - every),
        "the restore replays {at} − {every} steps"
    );
    assert_eq!(replayed, iters as u64, "every ABFT-CR step is a lookup");
    assert!(
        computed < 64,
        "only the checkpoint's materialization steps live, from the grid: {computed}"
    );
    let (computed, ..) = counted(&memo, &a, &b, &abft);
    assert_eq!(computed, 0, "a second ABFT-CR finds its checkpoint state");

    // FI fills the lost block from x0 = 0, as F0 does: after F0 it only
    // materializes the fault point F0 left in the memo.
    let plan = FaultSchedule::evenly_spaced(3, n, RANKS, FaultClass::Snf, 9);
    let f0 =
        RunConfig::new(Scheme::parse_label("F0").expect("label"), RANKS).with_faults(plan.clone());
    let fi = RunConfig::new(Scheme::parse_label("FI").expect("label"), RANKS).with_faults(plan);
    let (computed, ..) = counted(&memo, &a, &b, &f0);
    assert!(computed > 0, "F0's post-fault segments are new");
    let (computed, replayed, iters) = counted(&memo, &a, &b, &fi);
    assert_eq!((computed, replayed), (0, iters as u64), "FI replays F0");
}
