//! Per-layer probes of the traced run.
//!
//! Every number here comes from timing a call into a layer's public
//! API from outside. Layers below `core` cannot be observed while the
//! driver runs, so they are replayed: the workload's own operators are
//! timed per call and scaled by the exact call counts the unit reports
//! imply. What the replay cannot explain stays in the parent's self
//! time, and what no layer row explains is `trace.unattributed_s`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rsls_campaign::{matrix_fingerprint, Engine, Journal, JournalEvent, ResultCache};
use rsls_cluster::{Cluster, MachineConfig};
use rsls_core::checkpoint::{CheckpointStore, DiskStore};
use rsls_core::construction::{li_with, lsi_with, ConstructionMethod, Workspace};
use rsls_core::interval::CheckpointInterval;
use rsls_core::{CheckpointStorage, Scheme};
use rsls_experiments::artifacts::{fingerprint_of, workload, workload_uncached};
use rsls_experiments::campaign::unit_spec;
use rsls_experiments::runners::{evenly_spaced_faults, SchemeRun};
use rsls_experiments::{campaign, ExperimentRegistry, Scale};
use rsls_power::{CoreState, EnergyMeter, PowerModel, PowerModelConfig};
use rsls_solvers::Cg;
use rsls_sparse::artifacts::MatrixKey;
use rsls_sparse::sell::{SELL_DEFAULT_C, SELL_DEFAULT_SIGMA};
use rsls_sparse::vector::{axpy, axpy_dot, dot, xpby};
use rsls_sparse::{CsrMatrix, Format, Partition, SellMatrix, SpmvOperator};

use crate::fixture::{Store, StoreFacts, WorkDir, S4_MATRICES};
use crate::hist::median;
use crate::host::HostFacts;
use crate::report::Outcome;
use crate::trace::{self_seconds, total_times, Tracer};

/// Seconds per call of `f`: `rounds` rounds, each repeating `f` until
/// `round_s` seconds have passed, the fastest round winning (a slower
/// round was disturbed; none can be faster than the code allows).
pub fn per_call_s(round_s: f64, rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let mut calls = 0u64;
        let t0 = Instant::now();
        loop {
            f();
            calls += 1;
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed >= round_s {
                best = best.min(elapsed / calls as f64);
                break;
            }
        }
    }
    best
}

fn median_call_s(repeats: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Largest triad array. A guest reports the host's last-level cache
/// (260 MiB here) and pays ~20 us of system time per first-touched
/// page, so three arrays of four times that would cost a traced run
/// 18 s; beyond this cap the run says the triad is not LLC-clear.
const TRIAD_ARRAY_CAP: u64 = 128 << 20;

fn triad_gbs(n: usize, round_s: f64) -> f64 {
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut a = vec![0.0f64; n];
    let s = 3.0f64;
    let secs = per_call_s(round_s, 3, || {
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
    });
    (3 * 8 * n) as f64 / secs / 1e9
}

/// Calibration a traced run prints: processors and the threads the
/// thread pool really uses. With `working_set` (the run that replays
/// kernels), also the sustainable memory bandwidth from a STREAM triad
/// — once with arrays of at least four times the summed last-level
/// caches (at most a quarter of RAM for the three of them), once with
/// the three arrays together the size of `working_set`. Runs that
/// bypass the kernels skip the triad and report 0.
pub fn host_layers(out: &mut Outcome, working_set: Option<u64>) {
    let host = HostFacts::gather();
    out.layer("host.nproc", host.nproc as f64);
    out.layer("host.effective_threads", host.effective_threads as f64);
    let Some(ws) = working_set else {
        return;
    };
    let llc = if host.llc_bytes > 0 {
        host.llc_bytes
    } else {
        8 << 20
    };
    let ram_cap = if host.ram_bytes > 0 {
        host.ram_bytes / 4 / 3
    } else {
        u64::MAX
    };
    let wanted = (4 * llc).min(ram_cap).max(1 << 20);
    let array_bytes = wanted.min(TRIAD_ARRAY_CAP);
    out.layer(
        "host.triad_gbs",
        triad_gbs((array_bytes / 8) as usize, 0.05),
    );
    out.facts.push((
        "triad_array_bytes".to_string(),
        format!(
            "{array_bytes} (3 arrays; summed LLC {llc}; 4x LLC within a quarter of RAM would be {wanted}{})",
            if array_bytes < wanted { ", capped: not LLC-clear" } else { "" }
        ),
    ));
    let n = (ws / 3 / 8).max(1024) as usize;
    out.layer("host.triad_ws_gbs", triad_gbs(n, 0.02));
    out.facts
        .push(("triad_ws_bytes".to_string(), format!("{}", 3 * 8 * n)));
}

/// One `S4` operator, replayed.
struct Replay {
    format: Format,
    spmv_s: f64,
    step_s: f64,
    blas1_s: f64,
    gen_s: f64,
    convert_s: f64,
    flops: f64,
    bytes: f64,
    working_set: u64,
}

fn replay_operator(name: &str, a: &CsrMatrix, b: &[f64], steps: usize) -> Replay {
    let n = a.nrows();
    let op = SpmvOperator::select(a);
    let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64 / 17.0).collect();
    let mut y = vec![0.0; n];
    let spmv_s = per_call_s(0.02, 3, || op.apply(black_box(&x), &mut y));

    let (matrix_bytes, convert_s) = match op.format() {
        Format::Csr => (a.storage_bytes(), 0.0),
        Format::Sell => {
            let t0 = Instant::now();
            let sell = SellMatrix::from_csr_with(a, SELL_DEFAULT_C, SELL_DEFAULT_SIGMA);
            (sell.storage_bytes(), t0.elapsed().as_secs_f64())
        }
    };

    // A CG that has converged keeps stepping on rounding noise, so the
    // replay restarts from zero every `steps` (the fault-free count).
    let steps = steps.clamp(1, 400);
    let step_s = {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut cg = Cg::from_zero(a, b);
            let t0 = Instant::now();
            for _ in 0..steps {
                black_box(cg.step());
            }
            best = best.min(t0.elapsed().as_secs_f64() / steps as f64);
        }
        best
    };

    let (mut p, mut r, mut xs) = (x.clone(), y.clone(), vec![0.0; n]);
    let blas1_s = per_call_s(0.01, 3, || {
        let pap = dot(&p, &y);
        axpy(1e-9 * pap.signum(), &p, &mut xs);
        let rr = axpy_dot(-1e-9, &y, &mut r);
        xpby(&r, 1e-9 * rr.signum(), &mut p);
    });

    let t0 = Instant::now();
    black_box(workload_uncached(name, Scale::Quick));
    let gen_s = t0.elapsed().as_secs_f64();

    Replay {
        format: op.format(),
        spmv_s,
        step_s,
        blas1_s,
        gen_s,
        convert_s,
        flops: a.spmv_flops() as f64,
        // Computed from array sizes, not measured: the matrix once, x
        // read once, y written once.
        bytes: (matrix_bytes + 16 * n as u64) as f64,
        working_set: matrix_bytes + 16 * n as u64,
    }
}

/// `(matrix name → (Σ iterations, units, fault-free iterations))` of a
/// store, resolved through the provenance fingerprints.
fn iterations_by_matrix(cache: &ResultCache) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut by_fingerprint = BTreeMap::new();
    for name in S4_MATRICES {
        let (a, b) = workload(name, Scale::Quick);
        if let Some(fp) = fingerprint_of(&a, &b) {
            by_fingerprint.insert(format!("{fp:016x}"), name);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for spec in cache.unit_spec_hashes() {
        let Some(prov) = cache.load_provenance(&spec) else {
            continue;
        };
        let Some(report) = cache.load(&spec) else {
            continue;
        };
        let Some(name) = prov
            .matrix_fingerprint
            .and_then(|fp| by_fingerprint.get(&fp).copied())
        else {
            continue;
        };
        let entry = out.entry(name).or_insert((0, 0, 0));
        entry.0 += report.iterations as u64;
        entry.1 += 1;
        if report.scheme == "FF" {
            entry.2 = report.iterations as u64;
        }
    }
    out
}

/// Heap allocations while running `f` (single-threaded sections only).
fn allocations(f: impl FnOnce()) -> u64 {
    let before = crate::alloc_count();
    f();
    crate::alloc_count() - before
}

/// Probes of the `core` layer and of the virtual bookkeeping under it.
fn core_probes(out: &mut Outcome, a: &CsrMatrix, b: &[f64]) {
    let ranks = Scale::Quick.default_ranks();
    let part = Partition::balanced(a.nrows(), ranks);
    let key = Some(MatrixKey::of(a));
    let x = vec![0.0; a.nrows()];
    let mut ws = Workspace::new();
    let method = ConstructionMethod::local_cg_default();
    let mut li = || li_with(&mut ws, key, a, &part, 3 % ranks, &x, b, method, 1e-6);
    black_box(li());
    out.layer(
        "core.reconstruct_us",
        per_call_s(0.02, 3, || drop(black_box(li()))) * 1e6,
    );
    let mut ws = Workspace::new();
    let exact = ConstructionMethod::Exact;
    li_with(&mut ws, key, a, &part, 3 % ranks, &x, b, exact, 1e-6);
    out.layer(
        "core.li_warm_allocs",
        allocations(|| {
            drop(li_with(
                &mut ws,
                key,
                a,
                &part,
                3 % ranks,
                &x,
                b,
                exact,
                1e-6,
            ))
        }) as f64,
    );
    lsi_with(&mut ws, key, a, &part, 3 % ranks, &x, b, exact, 1e-6);
    out.layer(
        "core.lsi_warm_allocs",
        allocations(|| {
            drop(lsi_with(
                &mut ws,
                key,
                a,
                &part,
                3 % ranks,
                &x,
                b,
                exact,
                1e-6,
            ))
        }) as f64,
    );

    let mut disk = DiskStore::in_temp_dir("rsls-benchmark-probe");
    let mut iteration = 0;
    out.layer(
        "core.ckpt_save_us",
        per_call_s(0.02, 3, || {
            iteration += 1;
            disk.save(iteration, &x)
                .expect("checkpoint probe: work dir is writable");
        }) * 1e6,
    );

    // One CG iteration's virtual charges, as `core::driver` issues them:
    // compute, a two-neighbour halo exchange, two scalar reductions.
    let mut cluster = Cluster::new(MachineConfig::default(), ranks);
    out.layer(
        "cluster.iter_charge_ns",
        per_call_s(0.01, 3, || {
            cluster.compute_all(200_000);
            cluster.halo_exchange(4096, 2);
            cluster.allreduce(8);
            cluster.allreduce(8);
        }) * 1e9,
    );
    black_box(cluster.max_clock());
    // The meter keeps a sample per call, so each round gets a fresh one.
    let model = PowerModel::new(PowerModelConfig::default());
    let fmax = model.freq_table().max();
    let mix = [(CoreState::Compute, fmax, ranks)];
    let mut rounds = Vec::new();
    for _ in 0..5 {
        let mut meter = EnergyMeter::new(model.clone());
        let t0 = Instant::now();
        for i in 0..5_000 {
            meter.account(i as f64, i as f64 + 1.0, &mix);
        }
        rounds.push(t0.elapsed().as_secs_f64() / 5_000.0);
        black_box(meter.joules());
    }
    out.layer("power.account_ns", median(&rounds) * 1e9);
}

/// A probe spec list on one operator, driven through `Engine::run_units`
/// by the harness with the runner timed: the campaign layer's own time
/// per unit is the call's wall time minus the runners', over the units.
fn campaign_overhead_per_unit_s(work: &WorkDir, a: &CsrMatrix, b: &[f64]) -> Result<f64, String> {
    let ranks = Scale::Quick.default_ranks();
    let store = Store::at(&work.join("probe-units"));
    let engine = store.open_engine(false).map_err(|e| e.to_string())?;
    let faults = evenly_spaced_faults(2, 300, ranks, "probe");
    let schemes = [
        Scheme::FaultFree,
        Scheme::li_local_cg(),
        Scheme::lsi_local_cg(),
        Scheme::Checkpoint {
            storage: CheckpointStorage::Disk,
            interval: CheckpointInterval::EveryIterations(50),
        },
    ];
    campaign::set_experiment("probe");
    let specs: Vec<_> = schemes
        .into_iter()
        .map(|scheme| {
            let mut run = SchemeRun::new(a, b, ranks, scheme).tag("probe");
            if scheme != Scheme::FaultFree {
                run = run.faults(faults.clone());
            }
            unit_spec(a, b, "probe", Scale::Quick, run.config())
        })
        .collect();
    let runner_ns = AtomicU64::new(0);
    let t0 = Instant::now();
    let outcomes = engine.run_units(&specs, |spec| {
        let r0 = Instant::now();
        let report = rsls_core::run(a, b, &spec.config);
        runner_ns.fetch_add(r0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        report
    });
    let wall_s = t0.elapsed().as_secs_f64();
    if outcomes.iter().any(|o| o.report.is_none()) {
        return Err("campaign probe: a unit failed".to_string());
    }
    let runner_s = runner_ns.load(Ordering::Relaxed) as f64 / 1e9;
    Ok((wall_s - runner_s).max(0.0) / specs.len() as f64)
}

fn store_and_journal_probes(
    out: &mut Outcome,
    work: &WorkDir,
    cache: &ResultCache,
) -> Result<(), String> {
    let io_err = |e: std::io::Error| format!("campaign probe: {e}");
    let scratch = ResultCache::open(work.join("probe-store")).map_err(io_err)?;
    let mut samples = Vec::new();
    for spec in cache.unit_spec_hashes() {
        let (Some(report), Some(prov)) = (cache.load(&spec), cache.load_provenance(&spec)) else {
            continue;
        };
        let t0 = Instant::now();
        scratch.store(&spec, &report).map_err(io_err)?;
        scratch.store_provenance(&prov).map_err(io_err)?;
        samples.push(t0.elapsed().as_secs_f64());
    }
    out.layer("campaign.store_us", median(&samples) * 1e6);

    let journal = Journal::create(work.join("probe.journal")).map_err(io_err)?;
    let event = JournalEvent::Done {
        hash: "0".repeat(64),
        unit: "probe/Kuu/FF".to_string(),
        wall_s: 0.125,
    };
    let per_append = per_call_s(0.02, 3, || {
        journal
            .record(&event)
            .expect("journal probe: work dir is writable");
    });
    out.layer("campaign.journal_append_us", per_append * 1e6);
    Ok(())
}

/// Probes of the `experiments` layer shared by both campaign workloads.
fn experiments_probes(out: &mut Outcome, engine: &Arc<Engine>, a: &CsrMatrix, b: &[f64]) {
    let stats = rsls_experiments::artifacts::stats();
    out.layer(
        "experiments.workload_hit_rate",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    out.layer(
        "experiments.fingerprint_us",
        per_call_s(0.01, 3, || {
            black_box(matrix_fingerprint(
                a.nrows(),
                a.ncols(),
                a.row_ptr(),
                a.col_idx(),
                a.values(),
                b,
            ));
        }) * 1e6,
    );
    // The largest table set of S4, served from the store.
    let tables = campaign::with_engine(Arc::clone(engine), || {
        ExperimentRegistry::builtin().run("fig6", Scale::Quick)
    })
    .unwrap_or_default();
    out.layer(
        "experiments.tables_json_us",
        per_call_s(0.01, 3, || {
            black_box(
                rsls_serve::compute::tables_to_json("fig6", Scale::Quick, tables.clone()).ok(),
            );
        }) * 1e6,
    );
}

/// Layer metrics of a traced `campaign_cold` run.
pub fn cold_layers(
    out: &mut Outcome,
    tracer: &Tracer,
    work: &WorkDir,
    store: &Store,
    facts: &StoreFacts,
    passes: u64,
    smoke: bool,
) -> Result<(), String> {
    let io_err = |e: std::io::Error| format!("campaign_cold trace: {e}");
    let cache = ResultCache::open(&store.cache).map_err(io_err)?;
    let passes_f = passes as f64;

    // Replay every operator of S4 and scale by the exact call counts.
    let by_matrix = iterations_by_matrix(&cache);
    let (mut spmv_calls, mut sell_calls) = (0u64, 0u64);
    let (mut spmv_s, mut cg_s, mut blas1_s, mut gen_s, mut convert_s) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut flops, mut bytes) = (0.0, 0.0);
    let mut largest: Option<(u64, &'static str)> = None;
    for (name, (iters, units, ff_iters)) in &by_matrix {
        let (a, b) = workload(name, Scale::Quick);
        let replay = replay_operator(name, &a, &b, *ff_iters as usize);
        // One SpMV per CG step, plus the initial residual of each unit.
        let calls = iters + units;
        spmv_calls += calls;
        if replay.format == Format::Sell {
            sell_calls += calls;
        }
        spmv_s += calls as f64 * replay.spmv_s;
        cg_s += *iters as f64 * replay.step_s;
        blas1_s += *iters as f64 * replay.blas1_s;
        flops += calls as f64 * replay.flops;
        bytes += calls as f64 * replay.bytes;
        gen_s += replay.gen_s;
        convert_s += replay.convert_s;
        if largest.is_none_or(|(ws, _)| replay.working_set > ws) {
            largest = Some((replay.working_set, name));
        }
    }
    host_layers(out, largest.map(|(ws, _)| ws));
    let ws_gbs = out.layers.get("host.triad_ws_gbs").copied().unwrap_or(0.0);
    out.layer("sparse.spmv_calls", spmv_calls as f64);
    out.layer("sparse.spmv_s", spmv_s * passes_f);
    out.layer("sparse.spmv_gflops", flops / spmv_s.max(1e-12) / 1e9);
    out.layer("sparse.spmv_gbs_computed", bytes / spmv_s.max(1e-12) / 1e9);
    out.layer(
        "sparse.spmv_roofline_frac",
        if ws_gbs > 0.0 {
            bytes / spmv_s.max(1e-12) / 1e9 / ws_gbs
        } else {
            0.0
        },
    );
    out.layer(
        "sparse.sell_share",
        sell_calls as f64 / spmv_calls.max(1) as f64,
    );
    out.layer("sparse.sell_convert_s", convert_s);
    out.layer("sparse.blas1_s", blas1_s * passes_f);
    out.layer("sparse.gen_s", gen_s);
    out.layer(
        "sparse.artifact_hit_rate",
        rsls_sparse::artifacts::global().stats().hit_rate(),
    );
    out.layer("solvers.cg_iters", facts.iterations as f64);
    out.layer("solvers.cg_s", cg_s * passes_f);
    out.layer(
        "solvers.cg_step_us",
        cg_s / facts.iterations.max(1) as f64 * 1e6,
    );
    out.layer("solvers.cg_spmv_frac", spmv_s / cg_s.max(1e-12));

    let (kuu, kuu_b) = workload("Kuu", Scale::Quick);
    {
        let mut cg = Cg::from_zero(&kuu, &kuu_b);
        cg.step();
        cg.step();
        let allocs = allocations(|| {
            for _ in 0..100 {
                cg.step();
            }
        });
        out.layer("solvers.cg_step_allocs", allocs as f64);
    }

    // The parallel kernel is only a parallel measurement with two real
    // threads; otherwise the cell is refused, not reported as 1.0.
    let effective = out
        .layers
        .get("host.effective_threads")
        .copied()
        .unwrap_or(1.0);
    let speedup = match (effective >= 2.0, largest) {
        (true, Some((_, name))) => {
            let (a, _) = workload(name, Scale::Quick);
            let x = vec![1.0; a.ncols()];
            let mut y = vec![0.0; a.nrows()];
            let serial = per_call_s(0.02, 3, || a.spmv(black_box(&x), &mut y));
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(2)
                .build()
                .map_err(|e| format!("thread pool: {e}"))?;
            let parallel =
                pool.install(|| per_call_s(0.02, 3, || a.par_spmv(black_box(&x), &mut y)));
            serial / parallel
        }
        _ => 0.0,
    };
    out.layer("sparse.par_spmv_speedup_t2", speedup);

    // Spans: Σ experiments.run, and inside them the engine's unit time.
    let totals = total_times(tracer.spans());
    let selfs = self_seconds(tracer.spans());
    let units_s = totals.get("campaign.units").copied().unwrap_or(0) as f64 / 1e9;
    let per_unit_s = campaign_overhead_per_unit_s(work, &kuu, &kuu_b)?;
    let campaign_self_s = (per_unit_s * facts.units as f64 * passes_f).min(units_s);
    let run_s = units_s - campaign_self_s;
    let run_self_s = (run_s - cg_s * passes_f).max(0.0);
    out.layer("campaign.self_s", campaign_self_s);
    out.layer("core.run_s", run_s);
    out.layer("core.run_self_s", run_self_s);
    out.layer("core.virtual_s", facts.virtual_s);
    out.layer("core.energy_j", facts.energy_j);
    out.layer("core.faults_injected", facts.faults as f64);
    out.layer("core.ckpt_bytes", facts.ckpt_bytes as f64);
    out.layer(
        "core.sim_speed",
        facts.virtual_s * passes_f / run_s.max(1e-9),
    );
    core_probes(out, &kuu, &kuu_b);
    store_and_journal_probes(out, work, &cache)?;

    // Generation happened in set-up; the SELL conversions happen on the
    // first solve of each operator, inside the harness call.
    let harness_s = selfs.get("experiments.run").copied().unwrap_or(0.0);
    let harness_self_s = (harness_s - convert_s).max(0.0);
    out.layer("experiments.harness_self_s", harness_self_s);
    let engine = store.open_engine(true).map_err(io_err)?;
    experiments_probes(out, &engine, &kuu, &kuu_b);

    // The same experiment, one job against two, both with warm memos.
    let registry = ExperimentRegistry::builtin();
    // Three seconds of solves: not in a smoke run.
    let mut jobs_s = [0.0f64; 2];
    for (slot, jobs) in [1usize, 2]
        .into_iter()
        .enumerate()
        .take(if smoke { 0 } else { 2 })
    {
        let probe = Store::at(&work.join(&format!("probe-jobs{jobs}")));
        let mut opts = probe.engine_options(false);
        opts.jobs = jobs;
        let engine = Arc::new(Engine::new(opts).map_err(io_err)?);
        let t0 = Instant::now();
        black_box(campaign::with_engine(engine, || {
            registry.run("fig4", Scale::Quick)
        }));
        jobs_s[slot] = t0.elapsed().as_secs_f64();
    }
    out.layer("campaign.jobs2_speedup", jobs_s[0] / jobs_s[1].max(1e-9));

    let kernels_s = (spmv_s + blas1_s) * passes_f;
    out.layer_self_s = vec![
        ("experiments".to_string(), harness_self_s),
        ("sparse.sell_convert".to_string(), convert_s.min(harness_s)),
        ("campaign".to_string(), campaign_self_s),
        ("core".to_string(), run_self_s),
        (
            "solvers".to_string(),
            (cg_s * passes_f - kernels_s).max(0.0).min(run_s),
        ),
        (
            "sparse.kernels".to_string(),
            kernels_s.min(cg_s * passes_f).min(run_s),
        ),
    ];
    Ok(())
}

/// Layer metrics of a traced `campaign_warm` run.
pub fn warm_layers(
    out: &mut Outcome,
    tracer: &Tracer,
    store: &Store,
    passes: u64,
) -> Result<(), String> {
    let io_err = |e: std::io::Error| format!("campaign_warm trace: {e}");
    host_layers(out, None);
    let totals = total_times(tracer.spans());
    let selfs = self_seconds(tracer.spans());
    let total_s = |name: &str| totals.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let open_s = total_s("campaign.engine_open");
    let units_s = total_s("campaign.units");
    let glue_s = selfs.get("campaign.pass").copied().unwrap_or(0.0);
    let harness_s = selfs.get("experiments.run").copied().unwrap_or(0.0);
    out.layer(
        "campaign.engine_open_us",
        open_s / passes.max(1) as f64 * 1e6,
    );
    out.layer("campaign.self_s", units_s + open_s + glue_s);
    out.layer("experiments.harness_self_s", harness_s);

    let cache = ResultCache::open(&store.cache).map_err(io_err)?;
    let specs = cache.unit_spec_hashes();
    let objects: Vec<String> = specs.iter().filter_map(|s| cache.object_hash(s)).collect();
    let n = specs.len().max(1) as f64;
    out.layer(
        "campaign.lookup_us",
        per_call_s(0.02, 3, || {
            for spec in &specs {
                black_box(cache.lookup(spec));
            }
        }) / n
            * 1e6,
    );
    out.layer(
        "campaign.load_us",
        per_call_s(0.02, 3, || {
            for object in &objects {
                black_box(cache.load_object(object));
            }
        }) / n
            * 1e6,
    );
    let (kuu, kuu_b) = workload("Kuu", Scale::Quick);
    campaign::set_experiment("probe");
    let spec = unit_spec(
        &kuu,
        &kuu_b,
        "probe",
        Scale::Quick,
        SchemeRun::new(
            &kuu,
            &kuu_b,
            Scale::Quick.default_ranks(),
            Scheme::FaultFree,
        )
        .config(),
    );
    out.layer(
        "campaign.spec_hash_us",
        per_call_s(0.01, 3, || drop(black_box(spec.content_hash()))) * 1e6,
    );
    let engine = store.open_engine(true).map_err(io_err)?;
    experiments_probes(out, &engine, &kuu, &kuu_b);

    out.layer_self_s = vec![
        ("experiments".to_string(), harness_s),
        ("campaign".to_string(), units_s + open_s + glue_s),
    ];
    Ok(())
}

/// Timings of the warehouse over `store`, as `/query` uses it.
#[derive(Debug, Clone, Default)]
pub struct LabTimes {
    /// `Warehouse::load_shards`, seconds.
    pub ingest_s: f64,
    /// Mean `parse` over the canonical queries, seconds.
    pub parse_s: f64,
    /// Mean execution (query minus parse) over them, seconds.
    pub exec_s: f64,
    /// `compare_filtered`, seconds.
    pub compare_s: f64,
}

/// Probes of the `lab` layer on `store`: the ingest every `/query`
/// pays, and parse/execute of the canonical queries.
pub fn lab_layers(
    out: &mut Outcome,
    store: &Store,
    queries: &[String],
    compare: (&str, &str),
) -> Result<LabTimes, String> {
    let lab_err = |e: rsls_lab::LabError| format!("lab probe: {e}");
    let stores = [(store.cache.as_path(), Some(store.journal.as_path()))];
    let load = || rsls_lab::Warehouse::load_shards(&stores);
    let warehouse = load().map_err(|e| format!("lab probe: {e}"))?;
    let ingest_s = median_call_s(15, || drop(black_box(load())));
    let store_bytes =
        crate::fixture::check_store(&ResultCache::open(&store.cache).map_err(|e| e.to_string())?)
            .bytes;
    let mut parse_s = 0.0;
    let mut query_s = 0.0;
    for sql in queries {
        parse_s += per_call_s(0.003, 3, || drop(black_box(rsls_lab::parse(sql))));
        query_s += per_call_s(0.003, 3, || drop(black_box(warehouse.query(sql))));
    }
    let nq = queries.len().max(1) as f64;
    let (parse_s, exec_s) = (parse_s / nq, (query_s - parse_s).max(0.0) / nq);
    let ea = rsls_lab::parse_filter(compare.0).map_err(|e| lab_err(e.into()))?;
    let eb = rsls_lab::parse_filter(compare.1).map_err(|e| lab_err(e.into()))?;
    let compare_s = per_call_s(0.005, 3, || {
        black_box(rsls_lab::compare_filtered(&warehouse, &ea, compare.0, &eb, compare.1).ok());
    });
    out.layer("lab.ingest_ms", ingest_s * 1e3);
    out.layer("lab.ingest_objects", warehouse.ingested as f64);
    out.layer("lab.ingest_rejected", warehouse.rejected as f64);
    out.layer(
        "lab.ingest_mb_s",
        store_bytes as f64 / 1e6 / ingest_s.max(1e-9),
    );
    out.layer("lab.parse_us", parse_s * 1e6);
    out.layer("lab.exec_us", exec_s * 1e6);
    out.layer("lab.compare_us", compare_s * 1e6);
    out.layer(
        "lab.ingest_share",
        ingest_s / (ingest_s + parse_s + exec_s).max(1e-12),
    );
    Ok(LabTimes {
        ingest_s,
        parse_s,
        exec_s,
        compare_s,
    })
}

/// Probes of the service's HTTP codec: parsing a typical request head
/// and serializing a typical report response.
pub fn http_probes(out: &mut Outcome, sample_body: &[u8]) {
    use rsls_serve::http::{ParseStep, RequestBuffer};
    let head = crate::http::encode_get(
        &format!("/reports/{}", "a".repeat(64)),
        Some(&"a".repeat(64)),
    );
    out.layer(
        "serve.http_parse_ns",
        per_call_s(0.01, 3, || {
            let mut buffer = RequestBuffer::new();
            buffer.extend(&head);
            assert!(matches!(buffer.next_request(), ParseStep::Request(_)));
        }) * 1e9,
    );
    let response = rsls_serve::Response::json(200, sample_body.to_vec())
        .header("ETag", format!("\"{}\"", "a".repeat(64)));
    out.layer(
        "serve.http_serialize_ns",
        per_call_s(0.01, 3, || drop(black_box(response.serialize(false, true)))) * 1e9,
    );
}
