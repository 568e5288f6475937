//! CLI for `rsls-lint`: scans the workspace, prints diagnostics, and
//! exits nonzero when the reproducibility contract is violated.
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error.

#![expect(
    clippy::disallowed_methods,
    reason = "CLI-only run timing for the stats line; never reaches analysis results"
)]

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rsls_lint::{analyze_workspace, render_json, render_sarif, render_stats_line};

/// Writes to stdout, ignoring broken pipes so `rsls-lint … | head`
/// exits quietly instead of panicking mid-write.
fn out(text: std::fmt::Arguments) {
    let _ = std::io::stdout().write_fmt(text);
}

const USAGE: &str = "\
rsls-lint — workspace call-graph determinism analyzer (R6–R7)

USAGE:
    rsls-lint [--root <path>] [--format <text|json|sarif>]

OPTIONS:
    --root <path>      Workspace root (default: ascend from the current
                       directory to the first one containing `crates/`)
    --format <fmt>     Output format: `text` (default), `json` (report
                       plus a final one-line stats object), or `sarif`
                       (SARIF 2.1.0 for PR annotation)
    -h, --help         Show this help

Rules and pragma syntax are documented in LINTING.md.";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = String::from("text");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root requires a path"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = "text".into(),
                Some("json") => format = "json".into(),
                Some("sarif") => format = "sarif".into(),
                other => {
                    return usage_error(&format!(
                        "--format must be `text`, `json`, or `sarif`, got {other:?}"
                    ))
                }
            },
            "-h" | "--help" => {
                out(format_args!("{USAGE}\n"));
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unrecognized argument `{other}`")),
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("rsls-lint: no `crates/` directory found here or above; pass --root");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rsls-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed().as_secs_f64();
    let violations = &report.violations;
    let scanned = report.stats.files_scanned;

    match format.as_str() {
        "json" => {
            out(format_args!("{}", render_json(violations, scanned)));
            out(format_args!(
                "{}",
                render_stats_line(&report.stats, elapsed)
            ));
        }
        "sarif" => {
            out(format_args!("{}", render_sarif(violations)));
        }
        _ => {
            for v in violations {
                out(format_args!("{}\n", v.render_text()));
            }
            if violations.is_empty() {
                out(format_args!(
                    "rsls-lint: {scanned} files clean ({} fns, {} call edges, {elapsed:.2}s)\n",
                    report.stats.functions_resolved, report.stats.call_edges,
                ));
            } else {
                out(format_args!(
                    "rsls-lint: {} violation(s) in {} file(s), {scanned} files scanned ({elapsed:.2}s)\n",
                    violations.len(),
                    {
                        let mut files: Vec<&str> =
                            violations.iter().map(|v| v.file.as_str()).collect();
                        files.dedup();
                        files.len()
                    },
                ));
            }
        }
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Ascends from the current directory to the first one with `crates/`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("rsls-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
