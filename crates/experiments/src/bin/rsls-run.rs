//! Command-line entry point for the paper-reproduction harnesses.
//!
//! ```text
//! rsls-run --list                 list available experiments
//! rsls-run --experiment fig5      run one experiment
//! rsls-run --all                  run every experiment
//! rsls-run --all --csv out/       additionally dump CSV files
//! rsls-run --all --jobs 8        run campaign units on 8 workers
//! rsls-run --all --resume         continue an interrupted campaign
//! rsls-run --all --query "SELECT scheme, avg(energy) FROM runs GROUP BY scheme"
//! rsls-run --query "SELECT * FROM schemes"   query an existing store, run nothing
//! RSLS_SCALE=full rsls-run --all  paper-sized matrices (slow)
//! ```
//!
//! Every solver invocation goes through the campaign engine
//! (`rsls-campaign`): completed runs are cached by content address under
//! `--cache-dir` (default `results/cache`), so re-running an experiment
//! re-reads its reports instead of re-solving, and `--jobs N` executes
//! independent units in parallel without changing any result byte.
//! Experiment dispatch goes through `rsls_experiments::ExperimentRegistry`
//! — the same registry `rsls-serve` serves from.

#![expect(
    clippy::disallowed_methods,
    reason = "the CLI edge prints per-experiment wall time; it never reaches a result byte"
)]

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rsls_campaign::EngineOptions;
use rsls_chaos::{ChaosInjector, ChaosPlan};
use rsls_experiments::campaign;
use rsls_experiments::ExperimentRegistry;

fn usage() -> ! {
    eprintln!(
        "usage: rsls-run [--list] [--all] [--experiment <name>] [--csv <dir>] [--svg <dir>]\n\
         \x20               [--jobs <n>] [--cache-dir <dir>] [--resume] [--no-cache]\n\
         \x20               [--chaos-seed <n>] [--query <sql>]\n\
         \x20               [--schemes <label,label,...>]\n\
         experiments: {}\n\
         schemes: {}",
        ExperimentRegistry::builtin().ids().join(", "),
        rsls_core::Scheme::KNOWN_LABELS.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let registry = ExperimentRegistry::builtin();
    let mut run_all = false;
    let mut names: Vec<String> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut svg_dir: Option<PathBuf> = None;
    let mut jobs = 1usize;
    let mut cache_dir = PathBuf::from("results/cache");
    let mut resume = false;
    let mut use_cache = true;
    let mut chaos_seed: Option<u64> = None;
    let mut query_sql: Option<String> = None;
    let mut scheme_filter: Option<Vec<String>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for e in registry.entries() {
                    println!("{:<8} {}", e.name, e.description);
                }
                return;
            }
            "--all" => run_all = true,
            "--experiment" | "-e" => {
                i += 1;
                if i >= args.len() {
                    usage();
                }
                names.push(args[i].clone());
            }
            "--csv" => {
                i += 1;
                if i >= args.len() {
                    usage();
                }
                csv_dir = Some(PathBuf::from(&args[i]));
            }
            "--svg" => {
                i += 1;
                if i >= args.len() {
                    usage();
                }
                svg_dir = Some(PathBuf::from(&args[i]));
            }
            "--jobs" | "-j" => {
                i += 1;
                if i >= args.len() {
                    usage();
                }
                jobs = match args[i].parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--jobs takes a positive integer");
                        usage();
                    }
                };
            }
            "--cache-dir" => {
                i += 1;
                if i >= args.len() {
                    usage();
                }
                cache_dir = PathBuf::from(&args[i]);
            }
            "--resume" => resume = true,
            "--no-cache" => use_cache = false,
            "--chaos-seed" => {
                i += 1;
                if i >= args.len() {
                    usage();
                }
                chaos_seed = match args[i].parse() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        eprintln!("--chaos-seed takes an unsigned integer");
                        usage();
                    }
                };
            }
            "--query" => {
                i += 1;
                if i >= args.len() {
                    usage();
                }
                query_sql = Some(args[i].clone());
            }
            "--schemes" => {
                i += 1;
                if i >= args.len() {
                    usage();
                }
                // Validate every label up front and canonicalize it
                // (`LI` → `LI (CG)`), so the filter compares against
                // exactly what `Scheme::label()` prints.
                let mut labels = Vec::new();
                for raw in args[i].split(',') {
                    match rsls_core::Scheme::parse_label(raw) {
                        Some(scheme) => labels.push(scheme.label()),
                        None => {
                            eprintln!(
                                "--schemes: unknown scheme label '{}' (known: {})",
                                raw.trim(),
                                rsls_core::Scheme::KNOWN_LABELS.join(", ")
                            );
                            std::process::exit(2);
                        }
                    }
                }
                scheme_filter = Some(labels);
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    if let Some(labels) = scheme_filter {
        println!("schemes: restricted to FF + {}", labels.join(", "));
        rsls_experiments::runners::set_scheme_filter(labels);
    }

    // Fail fast on a malformed --query before any unit runs: a typo
    // should cost nothing.
    if let Some(sql) = &query_sql {
        if let Err(e) = rsls_lab::parse(sql) {
            eprintln!("--query: {e}");
            std::process::exit(2);
        }
    }

    let journal_path = cache_dir
        .parent()
        .map(|p| p.join("campaign.journal"))
        .unwrap_or_else(|| PathBuf::from("campaign.journal"));
    // Under chaos the engine needs retry headroom: every injected
    // transient must be absorbable, so the run's outputs stay identical
    // to a fault-free campaign.
    let chaos = chaos_seed.map(|seed| Arc::new(ChaosInjector::new(ChaosPlan::aggressive(seed))));
    if let Err(e) = campaign::configure(EngineOptions {
        jobs,
        cache_dir: cache_dir.clone(),
        use_cache,
        resume,
        journal_path: Some(journal_path.clone()),
        retries: if chaos.is_some() { 8 } else { 0 },
        chaos: chaos.clone(),
        ..EngineOptions::default()
    }) {
        eprintln!("failed to configure campaign engine: {e}");
        std::process::exit(1);
    }

    let scale = rsls_experiments::Scale::from_env();
    let selected: Vec<&str> = if run_all {
        registry.ids()
    } else {
        names
            .iter()
            .map(|n| {
                registry
                    .get(n)
                    .unwrap_or_else(|| {
                        eprintln!("unknown experiment '{n}'");
                        usage();
                    })
                    .name
            })
            .collect()
    };
    // With --query and no experiments, query the existing store; the
    // banners stay quiet so stdout is exactly the canonical JSON.
    if selected.is_empty() && query_sql.is_none() {
        usage();
    }
    if !selected.is_empty() {
        println!(
            "scale: {:?} (set RSLS_SCALE=full for paper-sized matrices)",
            scale
        );
        println!(
            "campaign: {jobs} worker{}, cache {} at {}{}{}\n",
            if jobs == 1 { "" } else { "s" },
            if use_cache { "enabled" } else { "disabled" },
            cache_dir.display(),
            if resume { ", resuming" } else { "" },
            match chaos_seed {
                Some(seed) => format!(", chaos seed {seed}"),
                None => String::new(),
            },
        );
    }

    // (name, passed, seconds) per experiment, for the final summary.
    let mut outcomes: Vec<(&str, bool, f64)> = Vec::new();
    for name in selected {
        let e = registry.get(name).expect("selected ids are registered");
        let start = Instant::now();
        println!(">>> {} — {}", e.name, e.description);
        // A failed unit panics out of the harness (its siblings have
        // already been journaled and cached); isolate it so the rest of
        // the campaign still runs.
        let tables = match panic::catch_unwind(AssertUnwindSafe(|| {
            registry.run(e.name, scale).expect("id is registered")
        })) {
            Ok(tables) => tables,
            Err(_) => {
                eprintln!("<<< {} FAILED (see campaign journal)\n", e.name);
                outcomes.push((e.name, false, start.elapsed().as_secs_f64()));
                continue;
            }
        };
        for (i, t) in tables.iter().enumerate() {
            println!("{}", t.render());
            if let Some(dir) = &csv_dir {
                let path = dir.join(format!("{}-{}.csv", e.name, i));
                if let Err(err) = t.write_csv(&path) {
                    eprintln!("warning: failed to write {}: {err}", path.display());
                } else {
                    println!("csv: {}", path.display());
                }
            }
            if let Some(dir) = &svg_dir {
                if let Some(svg) = rsls_experiments::plot::render_auto(t) {
                    let path = dir.join(format!("{}-{}.svg", e.name, i));
                    if let Err(err) =
                        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, svg))
                    {
                        eprintln!("warning: failed to write {}: {err}", path.display());
                    } else {
                        println!("svg: {}", path.display());
                    }
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        println!("<<< {} done in {secs:.1}s\n", e.name);
        outcomes.push((e.name, true, secs));
    }

    // Journal per-site chaos fired counts so the warehouse `chaos`
    // view can ingest them.
    campaign::engine().journal_chaos_summary();

    if !outcomes.is_empty() {
        print!("{}", campaign::engine().summary_table());
    }
    if let Some(chaos) = &chaos {
        println!(
            "chaos: {} fault{} injected ({})",
            chaos.total_fired(),
            if chaos.total_fired() == 1 { "" } else { "s" },
            chaos.fired_summary()
        );
    }

    // Per-experiment pass/fail summary, and a nonzero exit if anything
    // failed — CI and scripts key off both.
    let failed: Vec<&str> = outcomes
        .iter()
        .filter(|(_, ok, _)| !ok)
        .map(|&(name, _, _)| name)
        .collect();
    if outcomes.len() > 1 || !failed.is_empty() {
        println!("\nexperiment summary:");
        for (name, ok, secs) in &outcomes {
            println!(
                "  {name:<12} {} {secs:>8.1}s",
                if *ok { "PASS" } else { "FAIL" }
            );
        }
    }
    if !failed.is_empty() {
        eprintln!("failed experiments: {}", failed.join(", "));
        std::process::exit(1);
    }

    // --query passthrough: load the warehouse over the store this run
    // populated (or an existing one) and print canonical JSON — the
    // same bytes `rsls-lab query` and `rsls-serve /query` produce. The
    // run files under `benchmark/` attach as the `kernels` view (as in
    // `rsls-lab`'s default), so the perf trajectory plots from the same
    // query surface as the experiment results.
    if let Some(sql) = &query_sql {
        let mut warehouse = match rsls_lab::Warehouse::load(&cache_dir, Some(&journal_path)) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("failed to load warehouse from {}: {e}", cache_dir.display());
                std::process::exit(1);
            }
        };
        warehouse.attach_kernels(std::path::Path::new("benchmark"));
        match warehouse.query(sql) {
            Ok(result) => println!("{}", result.to_canonical_json()),
            Err(e) => {
                eprintln!("--query: {e}");
                std::process::exit(2);
            }
        }
    }
}
