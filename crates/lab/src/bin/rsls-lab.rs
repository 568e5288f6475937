//! Command-line surface of the results warehouse.
//!
//! ```text
//! rsls-lab query "SELECT scheme, avg(energy) FROM runs GROUP BY scheme ORDER BY avg(energy)"
//! rsls-lab views                          list views, columns, row counts
//! rsls-lab scoreboard                     Fig-5-style energy ranking
//! rsls-lab compare --a "scheme = 'CR-M'" --b "scheme = 'CR-D'"
//! rsls-lab compare results/cache other/cache
//! ```
//!
//! All commands read `--cache-dir` (default `results/cache`) and the
//! campaign journal next to it (`--journal` to override). Query output
//! is canonical JSON by default (`--format table` for humans) — the
//! same bytes `rsls-serve`'s `/query` route serves and ETags.
//!
//! Exit codes: 0 success, 1 I/O failure, 2 usage/SQL errors.

use std::path::PathBuf;

use rsls_lab::{compare_filtered, compare_warehouses, render_scoreboard, Warehouse};

fn usage() -> ! {
    eprintln!(
        "usage: rsls-lab <command> [options]\n\
         commands:\n\
         \x20 query <sql>            run a SQL query (views: runs, units, schemes, chaos, kernels)\n\
         \x20 views                  list views with columns and row counts\n\
         \x20 scoreboard             render the per-scheme energy ranking\n\
         \x20 compare <dirA> <dirB>  diff two campaign stores\n\
         \x20 compare --a <f> --b <f> diff two filtered slices of one store\n\
         options:\n\
         \x20 --cache-dir <dir>      campaign cache (default results/cache)\n\
         \x20 --journal <file>       campaign journal (default <cache-dir>/../campaign.journal)\n\
         \x20 --bench-dir <dir>      directory of benchmark run files (*.json)\n\
         \x20                        for the kernels view (default benchmark)\n\
         \x20 --format <json|table>  query output format (default json)"
    );
    std::process::exit(2);
}

/// The journal path a campaign at `cache_dir` writes by default.
fn default_journal(cache_dir: &std::path::Path) -> PathBuf {
    cache_dir
        .parent()
        .map(|p| p.join("campaign.journal"))
        .unwrap_or_else(|| PathBuf::from("campaign.journal"))
}

fn load(cache_dir: &std::path::Path, journal: &Option<PathBuf>) -> Warehouse {
    let journal = journal
        .clone()
        .unwrap_or_else(|| default_journal(cache_dir));
    match Warehouse::load(cache_dir, Some(&journal)) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("failed to load warehouse from {}: {e}", cache_dir.display());
            std::process::exit(1);
        }
    }
}

fn load_with_bench(
    cache_dir: &std::path::Path,
    journal: &Option<PathBuf>,
    bench_dir: &std::path::Path,
) -> Warehouse {
    let mut w = load(cache_dir, journal);
    w.attach_kernels(bench_dir);
    w
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args[0].clone();
    let mut positional: Vec<String> = Vec::new();
    let mut cache_dir = PathBuf::from("results/cache");
    let mut journal: Option<PathBuf> = None;
    let mut bench_dir = PathBuf::from("benchmark");
    let mut format = "json".to_string();
    let mut filter_a: Option<String> = None;
    let mut filter_b: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        let need = |i: usize| {
            if i + 1 >= args.len() {
                usage();
            }
        };
        match args[i].as_str() {
            "--cache-dir" => {
                need(i);
                i += 1;
                cache_dir = PathBuf::from(&args[i]);
            }
            "--journal" => {
                need(i);
                i += 1;
                journal = Some(PathBuf::from(&args[i]));
            }
            "--bench-dir" => {
                need(i);
                i += 1;
                bench_dir = PathBuf::from(&args[i]);
            }
            "--format" => {
                need(i);
                i += 1;
                format = args[i].clone();
                if format != "json" && format != "table" {
                    eprintln!("--format takes `json` or `table`");
                    usage();
                }
            }
            "--a" => {
                need(i);
                i += 1;
                filter_a = Some(args[i].clone());
            }
            "--b" => {
                need(i);
                i += 1;
                filter_b = Some(args[i].clone());
            }
            other if other.starts_with("--") => {
                eprintln!("unknown argument: {other}");
                usage();
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }

    match command.as_str() {
        "query" => {
            let Some(sql) = positional.first() else {
                eprintln!("query: missing SQL text");
                usage();
            };
            let w = load_with_bench(&cache_dir, &journal, &bench_dir);
            match w.query(sql) {
                Ok(result) => {
                    if format == "table" {
                        print!("{}", result.render_table());
                    } else {
                        println!("{}", result.to_canonical_json());
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        }
        "views" => {
            let w = load_with_bench(&cache_dir, &journal, &bench_dir);
            for view in w.views() {
                println!(
                    "{:<10} {:>6} rows  ({})",
                    view.name,
                    view.rows.len(),
                    view.columns.join(", ")
                );
            }
            println!("{} ingested, {} rejected", w.ingested, w.rejected);
        }
        "scoreboard" => {
            let w = load(&cache_dir, &journal);
            print!("{}", render_scoreboard(&w));
        }
        "compare" => {
            let report = match (&filter_a, &filter_b, positional.len()) {
                (Some(a), Some(b), 0) => {
                    let w = load(&cache_dir, &journal);
                    let parse = |text: &str| match rsls_lab::parse_filter(text) {
                        Ok(e) => e,
                        Err(e) => {
                            eprintln!("{e}");
                            std::process::exit(2);
                        }
                    };
                    let (ea, eb) = (parse(a), parse(b));
                    match compare_filtered(&w, &ea, a, &eb, b) {
                        Ok(v) => v,
                        Err(e) => {
                            eprintln!("{e}");
                            std::process::exit(2);
                        }
                    }
                }
                (None, None, 2) => {
                    let (dir_a, dir_b) =
                        (PathBuf::from(&positional[0]), PathBuf::from(&positional[1]));
                    let wa = load(&dir_a, &Some(default_journal(&dir_a)));
                    let wb = load(&dir_b, &Some(default_journal(&dir_b)));
                    compare_warehouses(&wa, &positional[0], &wb, &positional[1])
                }
                _ => {
                    eprintln!("compare: give either two store directories or --a/--b filters");
                    usage();
                }
            };
            println!("{}", rsls_lab::canonical_json(&report));
        }
        _ => {
            eprintln!("unknown command: {command}");
            usage();
        }
    }
}
