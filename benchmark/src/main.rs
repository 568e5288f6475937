//! `rsls-benchmark` — one layered benchmark for the whole RSLS stack.
//!
//! ```text
//! rsls-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rsls-benchmark run --seed <n> --out <file> [--seconds <s>] [--smoke]
//! rsls-benchmark compare <set-a files…> -- <set-b files…>
//! ```
//!
//! The first form runs one workload and ends its standard output with
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`): the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `run` executes every workload that way, untraced then
//! traced, each in a fresh child process, and collects the results in
//! one file; `compare` judges two sets of such files.
//!
//! The layers are linked in: the code measured is the code at HEAD,
//! and every number comes from timing calls into public functions.

mod campaign;
mod clock;
mod compare;
mod fixture;
mod hist;
mod host;
mod http;
mod layers;
mod report;
mod rng;
mod serve;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::clock::RefClock;
use crate::fixture::WorkDir;
use crate::report::{result_line, Outcome, Workload, PER_LAYER};

// Exact allocation counts for the zero-allocation probes, per thread:
// the probing thread must not see what the clock sampler or a server
// thread allocates meanwhile. One thread-local increment per
// allocation, in every run alike.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's last frees can run while its locals are
    // being torn down; those need no counting.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised `Cell` without a destructor, so touching it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread has made.
pub fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the request streams.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans and run the layer probes.
    pub trace: bool,
}

impl RunArgs {
    /// A run too short to measure anything: for checking that every
    /// workload still runs and passes its checks.
    pub fn smoke(&self) -> bool {
        self.seconds < 2.0
    }
}

const USAGE: &str = "usage:
  rsls-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  rsls-benchmark run --seed <n> --out <file> [--seconds <s>] [--smoke]
  rsls-benchmark compare <set-a files...> -- <set-b files...>
workloads: campaign_cold, campaign_warm, serve_read, serve_query, serve_query_growing";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload '{workload}'"))?;
    let seed = flag(args, "--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = flag(args, "--seconds")
        .ok_or("missing --seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match flag(args, "--trace").ok_or("missing --trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Settings that change what the layers do must not leak in from the
/// caller's environment: every run measures the defaults.
fn scrub_environment() {
    for name in [
        "RSLS_SCALE",
        "RSLS_PAR_SPMV_NNZ",
        "RSLS_MATRIX_DIR",
        "RAYON_NUM_THREADS",
    ] {
        std::env::remove_var(name);
    }
}

/// Set-up times of `workload` measured by fresh child processes: a
/// set-up fills process-wide memos, so one process can only pay it once.
pub fn setup_probes(workload: Workload, args: &RunArgs) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    let probes = if args.smoke() {
        1
    } else {
        campaign::SETUP_PROBES
    };
    for _ in 0..probes {
        let output = Command::new(&exe)
            .args(["setup-probe", workload.name()])
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "setup probe exited with {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        let seconds = text
            .lines()
            .last()
            .and_then(|l| l.trim().parse::<f64>().ok())
            .ok_or("setup probe printed no time")?;
        samples.push(seconds);
    }
    Ok(samples)
}

fn run_setup_probe(name: &str) -> Result<(), String> {
    let workload = Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?;
    let work = WorkDir::create("probe").map_err(|e| e.to_string())?;
    let clock = RefClock::start();
    let seconds = match workload {
        Workload::CampaignCold => campaign::cold_setup_probe(&clock, &work)?,
        Workload::CampaignWarm => campaign::warm_setup_probe(&clock, &work)?,
        served => serve::setup_probe(served, &clock, &work)?,
    };
    println!("{seconds}");
    Ok(())
}

fn run_workload(args: &RunArgs, clock: &RefClock) -> Result<Outcome, String> {
    let work = WorkDir::create(args.workload.name()).map_err(|e| e.to_string())?;
    match args.workload {
        Workload::CampaignCold => campaign::cold(args, clock, &work),
        Workload::CampaignWarm => campaign::warm(args, clock, &work),
        served => serve::run(served, args, clock, &work),
    }
}

/// Runs one workload, prints everything by name with its unit, writes
/// the spans of a traced run next to the work directory, and ends with
/// the result line. Returns whether every check passed.
fn contract_run(args: &RunArgs) -> Result<bool, String> {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host::HostFacts::gather().describe());
    let clock = RefClock::start();
    let outcome = run_workload(args, &clock)?;
    let (low, mid, high) = clock.range();
    println!(
        "reference clock: factor {:.3} over the measured phase (run: low {low:.3} median {mid:.3} high {high:.3}); \
         wall {:.3} s, {:.1} ops per wall second",
        outcome.clock_factor,
        outcome.wall_s,
        outcome.attempted.saturating_sub(outcome.failed) as f64 / outcome.wall_s.max(1e-9),
    );
    drop(clock);
    for (name, value) in &outcome.facts {
        println!("fact {name} = {value}");
    }
    for failure in &outcome.failures {
        println!("FAILED CHECK {failure}");
    }
    let tail = args.workload.tail_quantile();
    println!(
        "ops attempted {} failed {} | latency samples {} | tail = p{} ({} samples beyond{})",
        outcome.attempted,
        outcome.failed,
        outcome.latency.count(),
        tail * 100.0,
        outcome.latency.samples_beyond(tail),
        if outcome.tail_supported(args.workload) {
            ""
        } else {
            "; FEWER THAN 10: lengthen the run"
        },
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;

    let metrics: Vec<(&str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, _)| (*name, outcome.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        outcome.end_to_end(args.workload)
    };
    for (name, value) in &metrics {
        println!(
            "{name:<40} {value:>18.6} {}",
            report::unit_of(name).unwrap_or("")
        );
    }
    if args.trace {
        println!(
            "layer self times (s) of {:.6} s traced:",
            outcome.traced_total_s
        );
        let mut sum = 0.0;
        for (layer, seconds) in &outcome.layer_self_s {
            println!("  {layer:<24} {seconds:>12.6}");
            sum += seconds;
        }
        let rest = outcome
            .layers
            .get("trace.unattributed_s")
            .copied()
            .unwrap_or(0.0);
        println!("  {:<24} {rest:>12.6}", "trace.unattributed_s");
        println!("  {:<24} {:>12.6}", "sum", sum + rest);
        let path = std::path::Path::new(fixture::WORK_ROOT).join(format!(
            "trace-{}-{}.json",
            args.workload.name(),
            args.seed
        ));
        let threads: Vec<(&str, &[trace::Span])> = outcome
            .spans
            .iter()
            .map(|(thread, spans)| (thread.as_str(), spans.as_slice()))
            .collect();
        let json =
            serde_json::to_string(&trace::spans_to_json(&threads)).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    Ok(correct)
}

/// `run`: every workload untraced, then every workload traced, each in
/// a fresh child process; results collected into `--out`.
fn run_all(args: &[String]) -> Result<bool, String> {
    let seed = flag(args, "--seed").unwrap_or("1");
    let out = flag(args, "--out").ok_or("run: missing --out <file>")?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let seconds = flag(args, "--seconds").unwrap_or(if smoke { "0.5" } else { "15" });
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    let mut all_correct = true;
    for trace in ["0", "1"] {
        for workload in Workload::ALL {
            let output = Command::new(&exe)
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    seed,
                    "--seconds",
                    seconds,
                    "--trace",
                    trace,
                ])
                .output()
                .map_err(|e| format!("run: {e}"))?;
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            let line = text.lines().last().unwrap_or("");
            let result = serde_json::parse_value(line).map_err(|e| {
                format!(
                    "run: {} printed no result ({e}): {}",
                    workload.name(),
                    String::from_utf8_lossy(&output.stderr)
                )
            })?;
            all_correct &=
                output.status.success() && result.get("correct") == Some(&Value::Bool(true));
            let facts: Vec<(String, Value)> = text
                .lines()
                .filter_map(|l| l.strip_prefix("fact ")?.split_once(" = "))
                .map(|(k, v)| (k.to_string(), Value::Str(v.to_string())))
                .collect();
            rows.push(Value::Object(vec![
                (
                    "workload".to_string(),
                    Value::Str(workload.name().to_string()),
                ),
                ("trace".to_string(), Value::Bool(trace == "1")),
                ("facts".to_string(), Value::Object(facts)),
                ("result".to_string(), result),
            ]));
        }
    }
    let file = Value::Object(vec![
        ("seed".to_string(), Value::Str(seed.to_string())),
        ("seconds".to_string(), Value::Str(seconds.to_string())),
        ("runs".to_string(), Value::Array(rows)),
    ]);
    let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
    println!("results written to {out}");
    Ok(all_correct)
}

fn main() -> ExitCode {
    scrub_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("setup-probe") => {
            run_setup_probe(args.get(1).map_or("", String::as_str)).map(|()| true)
        }
        Some("make-fixture") => WorkDir::create("filling")
            .map_err(|e| e.to_string())
            .and_then(|_work| {
                let dir = args.get(1).ok_or("make-fixture: missing directory")?;
                fixture::make_fixture(std::path::Path::new(dir))
            })
            .map(|()| true),
        Some(first) if first.starts_with("--") && first != "--help" => {
            parse_run_args(&args).and_then(|run| contract_run(&run))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("rsls-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
