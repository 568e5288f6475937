#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs, missing_debug_implementations)]
//! `rsls-lint` — the workspace determinism analyzer.
//!
//! Every claim this reproduction makes — exact figure reproduction,
//! 100% cache hits on warm campaign re-runs, byte-identical results
//! for any `--jobs` count or chaos seed — rests on the codebase staying
//! deterministic. A single stray `Instant::now()` in a cost model or
//! one `HashMap` iteration serialized into a report silently destroys
//! that property.
//!
//! The per-file half of that contract (R1–R5: no clock reads, no
//! default hashers, no ad-hoc threads, no panics in libraries, public
//! docs) is rustc/clippy's job: the workspace `clippy.toml` bans the
//! methods and types, and each library's `lib.rs` scopes the lints.
//! This crate checks what only a call graph sees (R6–R7): a
//! lightweight recursive-descent parser ([`parse`]) builds each file's
//! item tree; [`graph`] links them into a workspace-wide symbol table
//! and call graph; [`taint`] marks every function that directly uses a
//! banned source and propagates the taint along call edges across
//! crate boundaries, so a `solvers` function calling a `campaign`
//! helper that reads a clock is caught even though clippy allows the
//! clock in `campaign`. The same pass checks that every
//! `std::fs`/`std::net` entry in the I/O-scoped crates is a
//! manifest-registered chaos injection site.
//!
//! Violations are suppressible only via an inline
//! `// rsls-lint: allow(<rule>) -- <reason>` pragma; a pragma with an
//! unknown rule name or a missing reason is itself an error. The
//! `rsls-lint` binary exits nonzero on any violation and offers
//! `--format json` (plus `--format sarif` for PR annotation) for CI.
//!
//! Pipeline: [`workspace::collect`] → [`lexer::lex`] →
//! [`pragma::parse_pragmas`] → [`parse::parse_file`] → [`graph::build`]
//! → [`taint::propagate`].

pub mod diagnostics;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod pragma;
pub mod rules;
pub mod taint;
pub mod workspace;

pub use diagnostics::{render_json, render_sarif, render_stats_line, Violation};
pub use rules::Rule;

use std::io;
use std::path::Path;

use graph::FileUnit;

/// Path of the I/O-site manifest, relative to the workspace root.
pub const IO_MANIFEST_LABEL: &str = "crates/lint/io_sites.txt";

/// Run statistics for one workspace analysis, emitted as the final
/// JSON line in `--format json` mode so the CI log tracks the
/// analysis's growth over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintStats {
    /// Source files scanned.
    pub files_scanned: usize,
    /// Non-test functions resolved into call-graph nodes.
    pub functions_resolved: usize,
    /// Distinct resolved (caller, callee) edges.
    pub call_edges: usize,
    /// Surviving violations.
    pub violation_count: usize,
}

/// The result of one full workspace analysis.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// Surviving violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Run statistics.
    pub stats: LintStats,
}

/// Lexes and parses every workspace file once, returning the file
/// units plus the malformed-pragma violations found along the way.
fn load_units(root: &Path) -> io::Result<(Vec<FileUnit>, Vec<Violation>)> {
    let files = workspace::collect(root)?;
    let mut units: Vec<FileUnit> = Vec::with_capacity(files.len());
    let mut violations = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(&file.path)?;
        let tokens = lexer::lex(&src);
        let (pragmas, bad_pragmas) = pragma::parse_pragmas(&tokens, &file.label);
        violations.extend(bad_pragmas);
        let sig = parse::significant(&tokens);
        let skip = parse::test_skip_mask(&sig);
        let ast = parse::parse_file(&sig, &skip);
        units.push(FileUnit {
            crate_name: file.crate_name,
            label: file.label,
            module: file.module,
            sig,
            skip,
            ast,
            pragmas,
        });
    }
    Ok((units, violations))
}

/// Builds the analyzed file units and the call graph for the workspace
/// at `root`, without running any rules — the raw material the golden
/// graph tests (and ad-hoc tooling) inspect directly.
pub fn graph_for(root: &Path) -> io::Result<(Vec<FileUnit>, graph::CallGraph)> {
    let (units, _) = load_units(root)?;
    let call_graph = graph::build(&units, &workspace::crate_deps(root)?);
    Ok((units, call_graph))
}

/// Analyzes the whole workspace rooted at `root`: the call-graph taint
/// and I/O-coverage passes across files, plus malformed pragmas.
pub fn analyze_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let (units, mut violations) = load_units(root)?;
    let call_graph = graph::build(&units, &workspace::crate_deps(root)?);
    let taint_map = taint::propagate(&units, &call_graph);
    violations.extend(taint::transitive_violations(
        &units,
        &call_graph,
        &taint_map,
    ));

    let manifest_path = root.join(IO_MANIFEST_LABEL);
    let entries = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => {
            let (entries, manifest_violations) = taint::parse_manifest(IO_MANIFEST_LABEL, &text);
            violations.extend(manifest_violations);
            entries
        }
        Err(_) => Vec::new(), // no manifest: every I/O site is unregistered
    };
    violations.extend(taint::io_violations(
        &units,
        &call_graph,
        IO_MANIFEST_LABEL,
        &entries,
    ));

    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let stats = LintStats {
        files_scanned: units.len(),
        functions_resolved: call_graph.fns.len(),
        call_edges: call_graph.distinct_edges(),
        violation_count: violations.len(),
    };
    Ok(WorkspaceReport { violations, stats })
}
