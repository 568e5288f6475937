//! End-to-end engine behavior: caching across campaigns, resume after an
//! interrupted run, failure isolation, retries, and parallel determinism.
//!
//! These tests drive the real CG solver (tiny stencil systems — each unit
//! runs in milliseconds) through `Engine::run_units`, the same path
//! `rsls-run` uses.

#![expect(
    clippy::disallowed_methods,
    reason = "tests bound their waits with a wall-clock deadline"
)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use rsls_campaign::{
    matrix_fingerprint, Engine, EngineOptions, Journal, UnitSpec, UnitStatus, ENGINE_VERSION,
};
use rsls_core::driver::{run, RunConfig};
use rsls_core::Scheme;
use rsls_sparse::generators::stencil_2d;
use rsls_sparse::CsrMatrix;

fn workload() -> (CsrMatrix, Vec<f64>) {
    let a = stencil_2d(12, 12);
    let ones = vec![1.0; a.nrows()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    (a, b)
}

/// One spec per rank count — distinct content addresses, same workload.
fn specs(a: &CsrMatrix, b: &[f64], ranks: &[usize]) -> Vec<UnitSpec> {
    let fp = matrix_fingerprint(
        a.nrows(),
        a.ncols(),
        a.row_ptr(),
        a.col_idx(),
        a.values(),
        b,
    );
    ranks
        .iter()
        .map(|&r| UnitSpec {
            experiment: "it".into(),
            unit: format!("stencil/r{r}"),
            matrix: "stencil".into(),
            matrix_fingerprint: fp,
            scale: "quick".into(),
            engine_version: ENGINE_VERSION,
            config: RunConfig::new(Scheme::FaultFree, r),
        })
        .collect()
}

/// Fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsls-campaign-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cached_options(dir: &Path, resume: bool) -> EngineOptions {
    EngineOptions {
        jobs: 1,
        cache_dir: dir.join("cache"),
        use_cache: true,
        resume,
        journal_path: Some(dir.join("campaign.journal")),
        retries: 0,
        ..EngineOptions::default()
    }
}

#[test]
fn second_campaign_is_all_cache_hits_with_byte_identical_reports() {
    let dir = scratch("rerun");
    let (a, b) = workload();
    let units = specs(&a, &b, &[2, 4, 8]);

    let solves = AtomicUsize::new(0);
    let runner = |spec: &UnitSpec| {
        solves.fetch_add(1, Ordering::SeqCst);
        run(&a, &b, &spec.config)
    };

    let first = Engine::new(cached_options(&dir, false)).unwrap();
    let out1 = first.run_units(&units, runner);
    assert_eq!(solves.load(Ordering::SeqCst), 3);
    assert!(out1.iter().all(|o| o.status == UnitStatus::Executed));
    drop(first);

    // A brand-new engine over the same cache: zero solves, identical bytes.
    let second = Engine::new(cached_options(&dir, false)).unwrap();
    let out2 = second.run_units(&units, runner);
    assert_eq!(solves.load(Ordering::SeqCst), 3, "no unit may re-solve");
    assert!(out2.iter().all(|o| o.status == UnitStatus::Cached));
    assert_eq!(second.summary().hit_rate(), 1.0);
    for (o1, o2) in out1.iter().zip(&out2) {
        let j1 = serde_json::to_string(o1.report.as_ref().unwrap()).unwrap();
        let j2 = serde_json::to_string(o2.report.as_ref().unwrap()).unwrap();
        assert_eq!(
            j1, j2,
            "cached report must be byte-identical for {}",
            o1.name
        );
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_reruns_only_unfinished_units() {
    let dir = scratch("resume");
    let (a, b) = workload();
    let units = specs(&a, &b, &[2, 4, 6, 8]);

    // Campaign one is "killed" after completing the first two units: run
    // them for real, then hand-append a dangling `start` for the third —
    // exactly what the journal of an interrupted campaign looks like.
    let solves = AtomicUsize::new(0);
    let runner = |spec: &UnitSpec| {
        solves.fetch_add(1, Ordering::SeqCst);
        run(&a, &b, &spec.config)
    };
    let first = Engine::new(cached_options(&dir, false)).unwrap();
    first.run_units(&units[..2], runner);
    drop(first);
    let journal_path = dir.join("campaign.journal");
    {
        use std::io::Write;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .unwrap();
        writeln!(
            f,
            "{{\"event\":\"start\",\"hash\":\"{}\",\"unit\":\"{}\"}}",
            units[2].content_hash(),
            units[2].qualified_name()
        )
        .unwrap();
    }
    assert_eq!(solves.load(Ordering::SeqCst), 2);
    let lines_before = fs::read_to_string(&journal_path).unwrap().lines().count();

    // --resume: the finished units come from the cache; the in-flight
    // third unit and the never-started fourth run now.
    let resumed = Engine::new(cached_options(&dir, true)).unwrap();
    let out = resumed.run_units(&units, runner);
    assert_eq!(
        solves.load(Ordering::SeqCst),
        4,
        "exactly units 3 and 4 re-run"
    );
    assert_eq!(out[0].status, UnitStatus::Cached);
    assert_eq!(out[1].status, UnitStatus::Cached);
    assert_eq!(out[2].status, UnitStatus::Executed);
    assert_eq!(out[3].status, UnitStatus::Executed);
    assert!(Journal::completed_hashes(&journal_path)
        .unwrap()
        .contains(&units[3].content_hash()));

    // Resume appended to the interrupted journal instead of truncating it.
    let lines_after = fs::read_to_string(&journal_path).unwrap().lines().count();
    assert!(
        lines_after > lines_before,
        "resume must append ({lines_before} -> {lines_after})"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn panicking_unit_is_isolated_and_campaign_completes() {
    let dir = scratch("panic");
    let (a, b) = workload();
    let units = specs(&a, &b, &[2, 4, 8]);
    let poisoned = units[1].content_hash();

    let engine = Engine::new(cached_options(&dir, false)).unwrap();
    let out = engine.run_units(&units, |spec: &UnitSpec| {
        if spec.content_hash() == poisoned {
            panic!("injected unit failure");
        }
        run(&a, &b, &spec.config)
    });

    assert_eq!(out[0].status, UnitStatus::Executed);
    assert_eq!(out[1].status, UnitStatus::Failed);
    assert_eq!(out[2].status, UnitStatus::Executed, "siblings still run");
    assert!(out[1].report.is_none());
    assert!(out[1]
        .error
        .as_deref()
        .unwrap()
        .contains("injected unit failure"));
    let s = engine.summary();
    assert_eq!((s.total, s.executed, s.failed), (3, 2, 1));
    assert!(engine.summary_table().contains("FAILED"));

    // The failure is journaled but not `done`: a resumed campaign would
    // try it again, and it must not have poisoned the cache.
    let done = Journal::completed_hashes(dir.join("campaign.journal")).unwrap();
    assert!(!done.contains(&poisoned));
    assert!(!dir
        .join("cache")
        .join("units")
        .join(format!("{poisoned}.ref"))
        .exists());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_units_coalesce_onto_one_computation() {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    let dir = scratch("coalesce");
    let (a, b) = workload();
    let unit = &specs(&a, &b, &[4])[0];
    let engine = Engine::new(cached_options(&dir, false)).unwrap();

    let solves = AtomicUsize::new(0);
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    // The runner closure must be Sync; channel endpoints are not.
    let entered_tx = std::sync::Mutex::new(entered_tx);
    let release_rx = std::sync::Mutex::new(release_rx);

    let (lead_out, follow_out) = std::thread::scope(|s| {
        // Leader: starts computing, signals that it is inside the
        // runner, then blocks until the follower is provably parked.
        let leader = s.spawn(|| {
            engine.run_units(std::slice::from_ref(unit), |spec: &UnitSpec| {
                solves.fetch_add(1, Ordering::SeqCst);
                entered_tx.lock().unwrap().send(()).unwrap();
                release_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(30))
                    .expect("test deadlock: leader never released");
                run(&a, &b, &spec.config)
            })
        });
        entered_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("leader never entered the runner");

        // Follower: same content address; its runner must never fire.
        let follower = s.spawn(|| {
            engine.run_units(std::slice::from_ref(unit), |_spec: &UnitSpec| {
                panic!("duplicate submission must coalesce, not recompute")
            })
        });

        // The follower is coalesced exactly when it parks on the
        // leader's latch — observable via the waiter gauge.
        let deadline = Instant::now() + Duration::from_secs(30);
        while engine.coalesce_waiters() == 0 {
            assert!(
                Instant::now() < deadline,
                "follower never parked on the in-flight unit"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        release_tx.send(()).unwrap();
        (leader.join().unwrap(), follower.join().unwrap())
    });

    assert_eq!(solves.load(Ordering::SeqCst), 1, "exactly one computation");
    assert_eq!(lead_out[0].status, UnitStatus::Executed);
    assert_eq!(follow_out[0].status, UnitStatus::Cached);
    let j1 = serde_json::to_string(lead_out[0].report.as_ref().unwrap()).unwrap();
    let j2 = serde_json::to_string(follow_out[0].report.as_ref().unwrap()).unwrap();
    assert_eq!(j1, j2, "coalesced report must be byte-identical");
    let s = engine.summary();
    assert_eq!((s.executed, s.coalesced), (1, 1));
    assert_eq!(engine.coalesce_waiters(), 0, "gauge drains after the wait");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn retries_recover_a_transiently_failing_unit() {
    let dir = scratch("retry");
    let (a, b) = workload();
    let units = specs(&a, &b, &[4]);

    let attempts = AtomicUsize::new(0);
    let flaky = |spec: &UnitSpec| {
        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("transient failure");
        }
        run(&a, &b, &spec.config)
    };

    // Without retries the first panic is terminal.
    let strict = Engine::new(EngineOptions {
        retries: 0,
        ..cached_options(&dir.join("strict"), false)
    })
    .unwrap();
    assert_eq!(
        strict.run_units(&units, flaky)[0].status,
        UnitStatus::Failed
    );

    // With one retry the second attempt lands.
    attempts.store(0, Ordering::SeqCst);
    let lenient = Engine::new(EngineOptions {
        retries: 1,
        ..cached_options(&dir.join("lenient"), false)
    })
    .unwrap();
    let out = lenient.run_units(&units, flaky);
    assert_eq!(out[0].status, UnitStatus::Executed);
    assert_eq!(attempts.load(Ordering::SeqCst), 2);
    assert!(out[0].report.as_ref().unwrap().converged);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn circuit_breaker_degrades_experiment_without_aborting_campaign() {
    let dir = scratch("circuit");
    let (a, b) = workload();
    // Six units in experiment `it` (all doomed), one in `other` (fine).
    let mut units = specs(&a, &b, &[2, 3, 4, 5, 6, 7]);
    let mut healthy = specs(&a, &b, &[8]);
    healthy[0].experiment = "other".into();
    units.append(&mut healthy);

    let engine = Engine::new(EngineOptions {
        circuit_threshold: 2,
        ..cached_options(&dir, false)
    })
    .unwrap();
    let out = engine.run_units(&units, |spec: &UnitSpec| {
        if spec.experiment == "it" {
            panic!("hard failure");
        }
        run(&a, &b, &spec.config)
    });

    // Two hard failures trip the breaker; the experiment's remaining
    // units are explicitly degraded, never run, and the campaign still
    // completes — including other experiments.
    assert_eq!(out[0].status, UnitStatus::Failed);
    assert_eq!(out[1].status, UnitStatus::Failed);
    for o in &out[2..6] {
        assert_eq!(o.status, UnitStatus::Degraded, "unit {}", o.name);
        assert!(o.report.is_none());
        assert!(o.error.as_deref().unwrap().contains("circuit open"));
    }
    assert_eq!(
        out[6].status,
        UnitStatus::Executed,
        "an open circuit in one experiment must not block another"
    );
    let s = engine.summary();
    assert_eq!(
        (s.failed, s.degraded, s.executed, s.circuits_open),
        (2, 4, 1, 1)
    );
    assert!(engine.summary_table().contains("DEGRADED"));
    assert!(engine.summary_table().contains("circuits open"));

    // Degraded units are journaled as such — and are *not* done, so a
    // resumed campaign (fault fixed) runs them.
    let journal_path = dir.join("campaign.journal");
    let text = fs::read_to_string(&journal_path).unwrap();
    assert!(text.contains("\"event\":\"degraded\""));
    let done = Journal::completed_hashes(&journal_path).unwrap();
    assert!(done.contains(&units[6].content_hash()));
    assert!(!done.contains(&units[2].content_hash()));

    let resumed = Engine::new(EngineOptions {
        circuit_threshold: 2,
        ..cached_options(&dir, true)
    })
    .unwrap();
    let out = resumed.run_units(&units, |spec: &UnitSpec| run(&a, &b, &spec.config));
    assert!(
        out.iter().all(|o| o.report.is_some()),
        "with the fault gone, resume completes every previously degraded unit"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn backoff_delays_are_deterministic_and_capped() {
    // The retry schedule is part of the reproducibility contract:
    // base·2^(k-1), clamped. Observed indirectly — a unit failing twice
    // with base 1ms must still succeed on the third attempt.
    let dir = scratch("backoff");
    let (a, b) = workload();
    let units = specs(&a, &b, &[4]);
    let attempts = AtomicUsize::new(0);
    let engine = Engine::new(EngineOptions {
        retries: 4,
        retry_backoff_ms: 1,
        retry_backoff_cap_ms: 2,
        ..cached_options(&dir, false)
    })
    .unwrap();
    let out = engine.run_units(&units, |spec: &UnitSpec| {
        if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
            panic!("transient");
        }
        run(&a, &b, &spec.config)
    });
    assert_eq!(out[0].status, UnitStatus::Executed);
    assert_eq!(attempts.load(Ordering::SeqCst), 3);
    assert_eq!(engine.summary().retries, 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    let (a, b) = workload();
    let units = specs(&a, &b, &[2, 3, 4, 5, 6, 7, 8, 9]);
    let runner = |spec: &UnitSpec| run(&a, &b, &spec.config);

    // No cache, no journal: pure execution on 1 vs 4 workers.
    let serial = Engine::new(EngineOptions::default()).unwrap();
    let parallel = Engine::new(EngineOptions {
        jobs: 4,
        ..EngineOptions::default()
    })
    .unwrap();
    let out1 = serial.run_units(&units, runner);
    let out4 = parallel.run_units(&units, runner);

    assert_eq!(out1.len(), out4.len());
    for (o1, o4) in out1.iter().zip(&out4) {
        assert_eq!(o1.name, o4.name, "outcomes must keep submission order");
        let j1 = serde_json::to_string(o1.report.as_ref().unwrap()).unwrap();
        let j4 = serde_json::to_string(o4.report.as_ref().unwrap()).unwrap();
        assert_eq!(
            j1, j4,
            "jobs=4 must be bit-identical to jobs=1 for {}",
            o1.name
        );
    }
}
