//! The two campaign workloads: `S4` cold on an empty store, and warm
//! against the fixture with a fresh engine per pass.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use rsls_campaign::{Engine, Journal, JournalEvent, ResultCache};
use rsls_experiments::artifacts::workload;
use rsls_experiments::Scale;

use crate::clock::RefClock;
use crate::fixture::{
    check_store, ensure_fixture, run_experiments, Fixture, Store, StoreFacts, WorkDir, S4,
    S4_MATRICES,
};
use crate::host::process_cpu_s;
use crate::layers;
use crate::report::{Outcome, Workload};
use crate::trace::Tracer;
use crate::RunArgs;

/// Child processes that repeat a set-up that can only happen once per
/// process (it fills process-wide memos).
pub const SETUP_PROBES: usize = 4;

/// One `S4` pass under `engine`: the tables it returned, its wall time,
/// and the engine's unit wall time. A harness that panics (a unit
/// failed) is caught and reported.
struct Pass {
    tables: Result<Vec<Vec<u8>>, String>,
    wall_s: f64,
    /// When each experiment's harness call began and ended.
    calls: Vec<(Instant, Instant)>,
}

fn timed_pass(engine: &Arc<Engine>, ids: &[&str], tracer: &mut Tracer, pass: u64) -> Pass {
    let t0 = Instant::now();
    let mut calls = Vec::with_capacity(ids.len());
    let tables = panic::catch_unwind(AssertUnwindSafe(|| {
        run_experiments(engine, ids, |idx, call| {
            let began = Instant::now();
            let before = engine.summary().unit_wall_s;
            tracer.span(
                "experiments.run",
                pass * S4.len() as u64 + idx as u64,
                |t| {
                    call();
                    // Time the engine spent inside its units, as it reports
                    // it: the campaign layer and everything below.
                    let units_s = engine.summary().unit_wall_s - before;
                    t.child_of_known_duration(
                        "campaign.units",
                        pass * S4.len() as u64 + idx as u64,
                        (units_s * 1e9) as u64,
                    );
                },
            );
            calls.push((began, Instant::now()));
        })
    }))
    .unwrap_or_else(|_| Err("an experiment harness panicked (a unit failed)".to_string()));
    Pass {
        tables,
        wall_s: t0.elapsed().as_secs_f64(),
        calls,
    }
}

fn push_store_facts(out: &mut Outcome, facts: &StoreFacts) {
    let rows = [
        ("store_digest", facts.digest.clone()),
        ("units", facts.units.to_string()),
        ("objects", facts.objects.to_string()),
        ("cg_iters", facts.iterations.to_string()),
        ("virtual_s", format!("{:?}", facts.virtual_s)),
        ("energy_j", format!("{:?}", facts.energy_j)),
        ("faults_injected", facts.faults.to_string()),
        ("ckpt_bytes", facts.ckpt_bytes.to_string()),
    ];
    out.facts
        .extend(rows.into_iter().map(|(k, v)| (k.to_string(), v)));
}

/// The set-up a cold campaign pays before its first unit: opening the
/// engine on an empty store and generating the matrices. The matrices
/// stay interned for the process, so the measured passes start from an
/// empty store and an empty artifact memo but never generate.
fn cold_setup(dir: &std::path::Path, clock: &RefClock) -> Result<f64, String> {
    let t0 = Instant::now();
    let engine = Store::at(dir)
        .open_engine(false)
        .map_err(|e| format!("campaign_cold: {e}"))?;
    for name in S4_MATRICES {
        std::hint::black_box(workload(name, Scale::Quick));
    }
    drop(engine);
    Ok(clock.reference_seconds(t0, Instant::now()))
}

/// The set-up probe of `campaign_cold`, run in a child process.
pub fn cold_setup_probe(clock: &RefClock, work: &WorkDir) -> Result<f64, String> {
    cold_setup(&work.join("setup"), clock)
}

/// `campaign_cold`: whole `S4` passes, each on an empty store with
/// cache and journal on, until `--seconds` have been measured (at least
/// one pass). An op is a campaign unit; its latency is the wall time
/// the engine journals for it, at the clock of its experiment's call.
pub fn cold(args: &RunArgs, clock: &RefClock, work: &WorkDir) -> Result<Outcome, String> {
    let io_err = |e: std::io::Error| format!("campaign_cold: {e}");
    let mut out = Outcome {
        setup_samples_s: crate::setup_probes(Workload::CampaignCold, args)?,
        ..Outcome::default()
    };
    out.setup_samples_s
        .push(cold_setup(&work.join("setup"), clock)?);

    // A smoke run solves the first experiment only.
    let ids: &[&str] = if args.smoke() { &S4[..1] } else { &S4 };
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut first: Option<(Vec<Vec<u8>>, StoreFacts)> = None;
    let mut last_store = None;
    let mut pass = 0u64;
    let mut reference_s = 0.0;
    // Fixed work: a pass is never cut short and a second one starts
    // only when the first left most of the budget, so the pass count is
    // the same on every run of a given `--seconds`.
    while pass < cold_passes(args.seconds) {
        let store = Store::at(&work.join(&format!("cold-{pass}")));
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let engine = store.open_engine(false).map_err(io_err)?;
        let run = timed_pass(&engine, ids, &mut tracer, pass);
        let t1 = Instant::now();
        out.wall_s += (t1 - t0).as_secs_f64();
        reference_s += clock.reference_seconds(t0, t1);
        out.cpu_s += process_cpu_s() - cpu0;

        // Outputs, checked outside the measured time.
        let summary = engine.summary();
        out.attempted += summary.total as u64;
        out.failed += (summary.failed + summary.degraded) as u64;
        for event in Journal::read_events(&store.journal).map_err(io_err)? {
            if let JournalEvent::Done { wall_s, unit, .. } = event {
                // A unit's qualified name starts with its experiment.
                let factor = S4
                    .iter()
                    .position(|id| unit.split('/').next() == Some(id))
                    .and_then(|idx| run.calls.get(idx))
                    .map_or(1.0, |(began, ended)| clock.mean_factor(*began, *ended));
                out.latency.record_ns((wall_s * factor * 1e9) as u64);
            }
        }
        let cache = ResultCache::open(&store.cache).map_err(io_err)?;
        let facts = check_store(&cache);
        for failure in &facts.failures {
            out.fail(failure.clone());
        }
        match (&run.tables, &first) {
            (Err(e), _) => out.fail(e.clone()),
            (Ok(tables), Some((first_tables, first_facts))) => {
                if tables != first_tables {
                    out.fail(format!("pass {pass}: tables differ from the first pass"));
                }
                if facts.digest != first_facts.digest {
                    out.fail(format!(
                        "pass {pass}: store digest differs from the first pass"
                    ));
                }
            }
            (Ok(tables), None) => first = Some((tables.clone(), facts.clone())),
        }
        if pass == 0 {
            out.layer("campaign.fixture_fill_s", run.wall_s);
            out.layer("campaign.units", summary.total as f64);
            out.layer("campaign.executed", summary.executed as f64);
            out.layer("campaign.hit_rate", summary.hit_rate());
            out.layer(
                "campaign.store_bytes_per_unit",
                facts.bytes as f64 / facts.units.max(1) as f64,
            );
        }
        last_store = Some(store);
        pass += 1;
    }
    out.rate_per_s = out.attempted as f64 / reference_s.max(1e-9);
    out.clock_factor = reference_s / out.wall_s.max(1e-9);
    out.facts.push(("passes".to_string(), pass.to_string()));
    if let Some((_, facts)) = &first {
        push_store_facts(&mut out, facts);
    }

    if args.trace {
        let store = last_store.ok_or("campaign_cold: no pass ran")?;
        let facts = first.map(|(_, f)| f).unwrap_or_default();
        layers::cold_layers(&mut out, &tracer, work, &store, &facts, pass, args.smoke())?;
        out.finish_trace(tracer.spans().to_vec());
    }
    Ok(out)
}

/// Seconds of budget one cold pass stands for (it takes about 15 on
/// the box the benchmark was sized on).
const COLD_PASS_BUDGET_S: f64 = 20.0;

/// Passes a cold run of `seconds` makes: one, and one more for every
/// further whole budget.
fn cold_passes(seconds: f64) -> u64 {
    ((seconds / COLD_PASS_BUDGET_S).floor() as u64).max(1)
}

/// The set-up a warm campaign (and every later `rsls-run` invocation)
/// pays once per process: open the engine over the store and touch
/// every experiment — matrix generation, fingerprints, cache loads.
fn warm_setup(store: &Store, clock: &RefClock) -> Result<(f64, Vec<Vec<u8>>), String> {
    let t0 = Instant::now();
    let engine = store
        .open_engine(true)
        .map_err(|e| format!("campaign_warm: {e}"))?;
    let tables = run_experiments(&engine, &S4, |_, call| call())?;
    Ok((clock.reference_seconds(t0, Instant::now()), tables))
}

/// The set-up probe of `campaign_warm`, run in a child process: prints
/// the seconds its own first touch took.
pub fn warm_setup_probe(clock: &RefClock, work: &WorkDir) -> Result<f64, String> {
    let fixture = ensure_fixture()?;
    let store = fixture
        .copy_store_to(&work.join("store"))
        .map_err(|e| format!("campaign_warm: {e}"))?;
    warm_setup(&store, clock).map(|(s, _)| s)
}

/// `campaign_warm`: `S4` passes against the fixture until `--seconds`
/// have been measured, a fresh `Engine::new` per pass — what each
/// `rsls-run` invocation pays. Every unit is a cache hit: spec hash,
/// lookup, sha256 re-verification and decode are all the work. An op is
/// a unit; its latency is its pass's wall time over the pass's units.
pub fn warm(args: &RunArgs, clock: &RefClock, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fixture = ensure_fixture()?;
    let store = fixture
        .copy_store_to(&work.join("store"))
        .map_err(|e| format!("campaign_warm: {e}"))?;
    out.setup_samples_s = crate::setup_probes(Workload::CampaignWarm, args)?;
    let (own_setup_s, first_tables) = warm_setup(&store, clock)?;
    out.setup_samples_s.push(own_setup_s);
    check_tables(&mut out, &fixture, &first_tables, "set-up pass");

    let units_per_pass = check_store(&ResultCache::open(&store.cache).map_err(|e| e.to_string())?);
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut pass = 0u64;
    let mut hits = 0u64;
    let mut executed = 0u64;
    let mut rates = Vec::new();
    let cpu0 = process_cpu_s();
    while pass == 0 || out.wall_s < args.seconds {
        let t0 = Instant::now();
        let (engine, run) = tracer.span("campaign.pass", pass, |t| {
            let engine = t.span("campaign.engine_open", pass, |_| store.open_engine(true));
            let engine = match engine {
                Ok(engine) => engine,
                Err(e) => return Err(format!("campaign_warm: {e}")),
            };
            let run = timed_pass(&engine, &S4, t, pass);
            Ok((engine, run))
        })?;
        let pass_s = t0.elapsed().as_secs_f64();
        out.wall_s += pass_s;

        let summary = engine.summary();
        out.attempted += summary.total as u64;
        hits += summary.cache_hits as u64;
        executed += summary.executed as u64;
        // A unit that ran, failed or was skipped did not come from the
        // cache: on this workload that is a wrong answer.
        out.failed += (summary.total - summary.cache_hits) as u64;
        // Each pass is a slice: its rate and per-unit time at the clock
        // it ran under.
        let pass_reference_s = pass_s * clock.factor();
        rates.push(summary.total as f64 / pass_reference_s.max(1e-12));
        let per_unit_ns = pass_reference_s * 1e9 / summary.total.max(1) as f64;
        out.latency.record_ns(per_unit_ns as u64);
        match run.tables {
            Ok(tables) => check_tables(&mut out, &fixture, &tables, "warm pass"),
            Err(e) => out.fail(e),
        }
        pass += 1;
    }
    out.cpu_s = process_cpu_s() - cpu0;
    out.rate_per_s = crate::hist::median(&rates);
    out.clock_factor = clock.mean_factor(origin, Instant::now());

    // The store must be exactly what it was: warm passes write nothing.
    let after = check_store(&ResultCache::open(&store.cache).map_err(|e| e.to_string())?);
    for failure in &after.failures {
        out.fail(failure.clone());
    }
    if after.digest != units_per_pass.digest {
        out.fail("the store changed under warm passes".to_string());
    }
    out.facts.push(("passes".to_string(), pass.to_string()));
    push_store_facts(&mut out, &after);

    if args.trace {
        out.layer("campaign.units", after.units as f64);
        out.layer("campaign.executed", executed as f64);
        out.layer(
            "campaign.hit_rate",
            hits as f64 / out.attempted.max(1) as f64,
        );
        out.layer("campaign.fixture_fill_s", fixture.fill_s);
        layers::warm_layers(&mut out, &tracer, &store, pass)?;
        out.finish_trace(tracer.spans().to_vec());
    }
    Ok(out)
}

fn check_tables(out: &mut Outcome, fixture: &Fixture, tables: &[Vec<u8>], what: &str) {
    for ((id, warm), cold) in S4.iter().zip(tables).zip(&fixture.cold_tables) {
        if warm != cold {
            out.fail(format!("{what}: {id} tables differ from the cold tables"));
        }
    }
}
