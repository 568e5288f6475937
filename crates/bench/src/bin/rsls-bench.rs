//! `rsls-bench` — deterministic hot-path measurement and regression gate.
//!
//! Two modes:
//!
//! ```text
//! rsls-bench run [--out PATH]                # measure, write a BenchReport JSON
//! rsls-bench compare CURRENT BASELINE       # gate CURRENT against BASELINE
//! rsls-bench compare-serve CURRENT BASELINE # gate rsls-load soak reports
//! ```
//!
//! `run` measures the PR's hot paths with fixed workloads and iteration
//! counts: the threads × format SpMV matrix (serial and chunk-parallel
//! CSR and SELL-C-σ under 1/2/4-thread pools), the fused `axpy_dot`
//! kernel, solver allocation counts via an instrumented global
//! allocator, artifact-cache hit rates, and a cold-vs-warm faulty
//! mini-campaign. `compare` applies [`rsls_bench::gate`] and exits
//! nonzero when any counter regresses beyond tolerance, printing one
//! line per gate so CI logs show exactly which counter moved.
//!
//! Allocation counters are exact and machine-independent; timings use
//! best-of-N wall clock and are gated against conservative floors, never
//! raw seconds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rsls_bench::{
    gate, large_stencil, rhs, serve_gate, small_regular, time_seconds, AllocBench, BenchReport,
    CacheBench, E2eBench, GateResult, KernelBench, KernelCell, ServeBenchReport,
};
use rsls_core::construction::{li_with, lsi_with, ConstructionMethod, Workspace};
use rsls_core::Scheme;
use rsls_experiments::runners::{evenly_spaced_faults, workload, SchemeRun};
use rsls_experiments::{Scale, SUITE};
use rsls_solvers::{Cg, Ic0Pcg, JacobiPcg};
use rsls_sparse::artifacts::MatrixKey;
use rsls_sparse::csr::PAR_SPMV_CHUNK_ROWS;
use rsls_sparse::generators::stencil_2d;
use rsls_sparse::sell::{SELL_DEFAULT_C, SELL_DEFAULT_SIGMA};
use rsls_sparse::vector::{axpy, axpy_dot, dot};
use rsls_sparse::{CsrMatrix, Format, Partition, SellMatrix};

/// Schema version of the emitted report. Version 2 added the
/// threads × format SpMV matrix and the PCG warm-allocation counters;
/// `compare` reads v2 only (`rsls-lab`'s `kernels` view is the tolerant
/// reader of the v1 `BENCH_PR5.json`).
const REPORT_VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// Counting allocator: exact, deterministic allocation counters for the
// zero-alloc hot-path claims. Lives in the binary (the library crates
// deny unsafe code); counted sections run single-threaded.
// ---------------------------------------------------------------------------

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations performed while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

fn measure_alloc() -> AllocBench {
    // 100 CG steps after a 2-step warm-up: every buffer is sized by then,
    // so the steady state should be allocation-free.
    let (a, b) = small_regular();
    let mut cg = Cg::new(&a, &b, vec![0.0; a.nrows()]);
    cg.step();
    cg.step();
    let cg_steps_allocs = allocations(|| {
        for _ in 0..100 {
            cg.step();
        }
    });

    // Warm-cache reconstructions: the first call populates the artifact
    // cache and grows the workspace; the second is the recovery hot path.
    let part = Partition::balanced(a.nrows(), 8);
    let key = Some(MatrixKey::of(&a));
    let x = vec![0.0; a.nrows()];
    let mut ws = Workspace::new();
    li_with(
        &mut ws,
        key,
        &a,
        &part,
        3,
        &x,
        &b,
        ConstructionMethod::Exact,
        1e-6,
    );
    let li_warm_allocs = allocations(|| {
        li_with(
            &mut ws,
            key,
            &a,
            &part,
            3,
            &x,
            &b,
            ConstructionMethod::Exact,
            1e-6,
        );
    });
    lsi_with(
        &mut ws,
        key,
        &a,
        &part,
        3,
        &x,
        &b,
        ConstructionMethod::Exact,
        1e-6,
    );
    let lsi_warm_allocs = allocations(|| {
        lsi_with(
            &mut ws,
            key,
            &a,
            &part,
            3,
            &x,
            &b,
            ConstructionMethod::Exact,
            1e-6,
        );
    });
    // Warm PCG steady states on a SELL-selected operator: stencil_2d(64,
    // 64) clears SELL_MIN_NNZ (so the format heuristic binds the solvers
    // to the SELL kernel) while staying under the parallel-SpMV
    // threshold, keeping the counted section single-threaded. Both
    // solvers preallocate every buffer in `new`, so 100 warm steps must
    // be allocation-free.
    let sp = stencil_2d(64, 64);
    let sb = rhs(&sp);
    let mut pcg = JacobiPcg::new(&sp, &sb);
    assert_eq!(pcg.format(), Format::Sell, "stencil must select SELL");
    pcg.step();
    pcg.step();
    let jacobi_warm_allocs = allocations(|| {
        for _ in 0..100 {
            pcg.step();
        }
    });
    let mut ic = Ic0Pcg::new(&sp, &sb).expect("stencil is SPD");
    ic.step();
    ic.step();
    let ic0_warm_allocs = allocations(|| {
        for _ in 0..100 {
            ic.step();
        }
    });

    AllocBench {
        cg_steps_allocs,
        li_warm_allocs,
        lsi_warm_allocs,
        jacobi_warm_allocs,
        ic0_warm_allocs,
    }
}

fn measure_cache() -> CacheBench {
    // Sparse artifact cache: reconstruct every rank of a partitioned
    // system four times — passes 2..4 (and the repeated blocks within a
    // pass) must be cache hits.
    let (a, b) = small_regular();
    let part = Partition::balanced(a.nrows(), 8);
    let key = Some(MatrixKey::of(&a));
    let x = vec![0.0; a.nrows()];
    let mut ws = Workspace::new();
    let s0 = rsls_sparse::artifacts::global().stats();
    for _pass in 0..4 {
        for rank in 0..part.num_ranks() {
            for method in [
                ConstructionMethod::Exact,
                ConstructionMethod::local_cg_default(),
            ] {
                li_with(&mut ws, key, &a, &part, rank, &x, &b, method, 1e-6);
                lsi_with(&mut ws, key, &a, &part, rank, &x, &b, method, 1e-6);
            }
        }
    }
    let s1 = rsls_sparse::artifacts::global().stats();
    let (hits, misses) = (s1.hits - s0.hits, s1.misses - s0.misses);
    let artifact_hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    // Workload interner: acquiring the full `rsls-run --all` quick suite
    // cold (generated) vs warm (interned).
    let names: Vec<&str> = SUITE.iter().map(|m| m.name).collect();
    let w0 = rsls_experiments::artifacts::stats();
    let suite_cold_s = time_seconds(1, || {
        for name in &names {
            std::hint::black_box(workload(name, Scale::Quick));
        }
    });
    let suite_warm_s = time_seconds(3, || {
        for name in &names {
            std::hint::black_box(workload(name, Scale::Quick));
        }
    });
    let w1 = rsls_experiments::artifacts::stats();
    let (whits, wmisses) = (w1.hits - w0.hits, w1.misses - w0.misses);
    CacheBench {
        artifact_hit_rate,
        workload_hit_rate: whits as f64 / (whits + wmisses).max(1) as f64,
        suite_warm_speedup: suite_cold_s / suite_warm_s.max(1e-9),
    }
}

/// One faulty multi-scheme pass over two suite matrices — the shape of a
/// small `rsls-run --all` slice. `acquire` supplies each workload.
fn faulty_pass(acquire: impl Fn(&str) -> (Arc<CsrMatrix>, Arc<Vec<f64>>)) {
    for name in ["bcsstk06", "ex10hs"] {
        let (a, b) = acquire(name);
        for scheme in [
            Scheme::li_exact(),
            Scheme::li_local_cg(),
            Scheme::lsi_local_cg(),
        ] {
            let faults = evenly_spaced_faults(2, 400, 4, name);
            let report = SchemeRun::new(&a, &b, 4, scheme)
                .faults(faults)
                .tag(name)
                .execute();
            std::hint::black_box(report);
        }
    }
}

fn measure_e2e() -> E2eBench {
    let campaign_cold_s = time_seconds(1, || {
        faulty_pass(|name| {
            let (a, b) = rsls_experiments::artifacts::workload_uncached(name, Scale::Quick);
            (Arc::new(a), Arc::new(b))
        });
    });
    let campaign_warm_s = time_seconds(2, || {
        faulty_pass(|name| workload(name, Scale::Quick));
    });
    E2eBench {
        campaign_cold_s,
        campaign_warm_s,
        campaign_warm_speedup: campaign_cold_s / campaign_warm_s.max(1e-9),
    }
}

/// Thread budgets of the parallel columns of the SpMV matrix.
const MATRIX_THREADS: [usize; 3] = [1, 2, 4];

fn measure_kernel() -> KernelBench {
    let (a, _) = large_stencil();
    let sell = SellMatrix::from_csr_with(&a, SELL_DEFAULT_C, SELL_DEFAULT_SIGMA);
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64 / 17.0).collect();
    let mut y = vec![0.0; n];
    const SPMV_ITERS: usize = 20;
    let flops = SPMV_ITERS as f64 * a.spmv_flops() as f64;

    // Pools are built once per thread budget so the matrix is measured
    // identically whether the ambient pool was pinned
    // (RAYON_NUM_THREADS=4 in CI) or not. `effective` records what the
    // machine actually supplied — on a small box the kernels
    // serial-delegate and the cell documents that honestly.
    let pools: Vec<(usize, rayon::ThreadPool, usize)> = MATRIX_THREADS
        .iter()
        .map(|&threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            let effective = pool.install(rayon::effective_num_threads);
            (threads, pool, effective)
        })
        .collect();

    // Interleaved passes: one timed rep of *every* cell per pass,
    // best-of across passes. Timing each cell to completion in sequence
    // lets slow drift (thermal throttling, a container CPU quota
    // burning down) penalize whichever cell happens to run last;
    // round-robin exposes every cell to the same conditions, and the
    // min converges on each cell's unthrottled speed. The starting cell
    // rotates each pass: with a fixed order, periodic interference
    // (quota refill windows) can alias onto fixed cell positions and
    // read as a persistent speed difference between identical kernels.
    const PASSES: usize = 12;
    let n_cells = 2 + 2 * MATRIX_THREADS.len();
    let mut best = [f64::INFINITY; 2 + 2 * MATRIX_THREADS.len()];
    for pass in 0..PASSES {
        for slot in 0..n_cells {
            let ci = (slot + pass) % n_cells;
            let t = match ci {
                0 => time_seconds(1, || {
                    for _ in 0..SPMV_ITERS {
                        a.spmv(std::hint::black_box(&x), &mut y);
                    }
                }),
                1 => time_seconds(1, || {
                    for _ in 0..SPMV_ITERS {
                        sell.spmv(std::hint::black_box(&x), &mut y);
                    }
                }),
                _ => {
                    let (_, pool, _) = &pools[(ci - 2) / 2];
                    if ci.is_multiple_of(2) {
                        pool.install(|| {
                            time_seconds(1, || {
                                for _ in 0..SPMV_ITERS {
                                    a.par_spmv_chunked(
                                        std::hint::black_box(&x),
                                        &mut y,
                                        PAR_SPMV_CHUNK_ROWS,
                                    );
                                }
                            })
                        })
                    } else {
                        pool.install(|| {
                            time_seconds(1, || {
                                for _ in 0..SPMV_ITERS {
                                    sell.par_spmv(std::hint::black_box(&x), &mut y);
                                }
                            })
                        })
                    }
                }
            };
            best[ci] = best[ci].min(t);
        }
    }

    let serial_csr_s = best[0];
    let serial_sell_s = best[1];
    let cell = |format: &str, parallel: bool, threads, effective_threads, secs: f64| KernelCell {
        format: format.to_string(),
        parallel,
        threads,
        effective_threads,
        mflops: flops / secs.max(1e-9) / 1e6,
        speedup_vs_serial_csr: serial_csr_s / secs.max(1e-9),
    };
    let mut matrix = vec![
        cell("csr", false, 1, 1, serial_csr_s),
        cell("sell", false, 1, 1, serial_sell_s),
    ];
    let mut par4_csr_s = serial_csr_s;
    for (pi, &(threads, _, effective)) in pools.iter().enumerate() {
        matrix.push(cell("csr", true, threads, effective, best[2 + 2 * pi]));
        matrix.push(cell("sell", true, threads, effective, best[3 + 2 * pi]));
        if threads == 4 {
            par4_csr_s = best[2 + 2 * pi];
        }
    }

    // Fused axpy_dot vs the separate axpy-then-dot it replaces in the CG
    // update (one pass over the vectors instead of two).
    let m = 1 << 20;
    let xs: Vec<f64> = (0..m)
        .map(|i| ((i * 31 + 7) % 101) as f64 / 101.0)
        .collect();
    let mut ys = vec![1.0; m];
    let mut acc = 0.0;
    let sep_s = time_seconds(9, || {
        axpy(5e-4, &xs, &mut ys);
        acc += dot(&ys, &ys);
    });
    let fused_s = time_seconds(9, || {
        acc += axpy_dot(5e-4, &xs, &mut ys);
    });
    std::hint::black_box(acc);

    // The aggregate scalars derive from the 4-thread parallel-CSR
    // column, the measurement they have always described.
    KernelBench {
        threads: rayon::current_num_threads(),
        effective_threads: rayon::effective_num_threads(),
        spmv_serial_mflops: flops / serial_csr_s.max(1e-9) / 1e6,
        par_spmv_mflops: flops / par4_csr_s.max(1e-9) / 1e6,
        par_spmv_speedup: serial_csr_s / par4_csr_s.max(1e-9),
        axpy_dot_speedup: sep_s / fused_s.max(1e-9),
        matrix,
    }
}

fn measure() -> BenchReport {
    // Allocation counters run first (single-threaded, before any worker
    // threads exist to perturb the counts); kernels last so their thread
    // spawns don't interleave with the counted sections.
    eprintln!("rsls-bench: measuring allocation counters");
    let alloc = measure_alloc();
    eprintln!("rsls-bench: measuring cache effectiveness");
    let cache = measure_cache();
    eprintln!("rsls-bench: measuring cold/warm campaign pass");
    let e2e = measure_e2e();
    eprintln!("rsls-bench: measuring kernels");
    let kernel = measure_kernel();
    BenchReport {
        version: REPORT_VERSION,
        kernel,
        alloc,
        cache,
        e2e,
    }
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

fn load<T: serde::Deserialize>(path: &str) -> T {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")))
}

/// Prints gate lines and exits nonzero on any failure.
fn report_gates(results: &[GateResult]) {
    let mut failed = false;
    for g in results {
        let status = match (g.ok, g.skipped) {
            (_, Some(why)) => format!("SKIP ({why})"),
            (true, None) => "ok".to_string(),
            (false, None) => {
                failed = true;
                "FAIL".to_string()
            }
        };
        println!(
            "{:28} current {:>12.4}  required {:>12.4}  {status}",
            g.name, g.current, g.required
        );
    }
    if failed {
        eprintln!("rsls-bench: regression gate FAILED");
        std::process::exit(1);
    }
    eprintln!("rsls-bench: regression gate passed");
}

fn die(msg: &str) -> ! {
    eprintln!("rsls-bench: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    die(
        "usage: rsls-bench run [--out PATH] | rsls-bench compare CURRENT BASELINE \
         | rsls-bench compare-serve CURRENT BASELINE",
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let out = match args.get(1).map(String::as_str) {
                Some("--out") => Some(args.get(2).cloned().unwrap_or_else(|| usage())),
                Some(_) => usage(),
                None => None,
            };
            let report = measure();
            let json = serde_json::to_string_pretty(&report).expect("report serializes");
            match out {
                Some(path) => {
                    std::fs::write(&path, json + "\n")
                        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                    eprintln!("rsls-bench: wrote {path}");
                }
                None => println!("{json}"),
            }
        }
        Some("compare") => {
            let (cur, base): (BenchReport, BenchReport) = match (args.get(1), args.get(2)) {
                (Some(c), Some(b)) => (load(c), load(b)),
                _ => usage(),
            };
            report_gates(&gate(&cur, &base));
        }
        Some("compare-serve") => {
            let (cur, base): (ServeBenchReport, ServeBenchReport) = match (args.get(1), args.get(2))
            {
                (Some(c), Some(b)) => (load(c), load(b)),
                _ => usage(),
            };
            report_gates(&serve_gate(&cur, &base));
        }
        _ => usage(),
    }
}
