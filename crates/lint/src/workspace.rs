//! Maps workspace crates to the rule sets they must satisfy, and
//! collects their source files.
//!
//! The scope table is the machine-readable form of the reproducibility
//! contract (see `LINTING.md`):
//!
//! * **Deterministic crates** (`core`, `cluster`, `solvers`, `sparse`,
//!   `faults`, `models`, `power`) — the simulation itself. No wall
//!   clock, no randomized hashers, no ad-hoc parallelism, no panics.
//! * **`campaign`** — owns the order-preserving pool and measures real
//!   wall time by design, so `wall-clock` and `unordered-parallel` do
//!   not apply; everything else does, plus full public docs.
//! * **`experiments`** — application crate; it may time and print, but
//!   must not spawn ad-hoc threads.
//! * **artifact caches** (`sparse/src/artifacts.rs`,
//!   `experiments/src/artifacts.rs`) — per-file tightened to the full
//!   deterministic set: a cache hit must be bitwise-indistinguishable
//!   from the miss that would have built it.
//! * **`lint`** (this crate) — held to the same hygiene it enforces.
//!
//! `vendor/` stand-ins are not audited: they mimic external crates'
//! APIs and carry their own conventions. Within a crate, `src/bin/`,
//! `tests/`, `benches/`, and `examples/` are exempt (binaries and
//! tests may unwrap and time freely).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::Rule;

/// One source file queued for analysis, with the rules that apply.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Path relative to the workspace root, for diagnostics.
    pub label: String,
    /// Crate directory name under `crates/`.
    pub crate_name: String,
    /// Module path derived from the file's location under `src/`
    /// (`lib.rs`/`main.rs` → empty, `foo.rs`/`foo/mod.rs` → `["foo"]`).
    pub module: Vec<String>,
    /// Rules to enforce on this file.
    pub rules: Vec<Rule>,
}

/// Derives the file's module path from its location inside `src/`.
pub fn module_path(rel: &str) -> Vec<String> {
    let rel = rel.replace('\\', "/");
    let mut parts: Vec<&str> = rel.split('/').collect();
    let Some(last) = parts.pop() else {
        return Vec::new();
    };
    let stem = last.strip_suffix(".rs").unwrap_or(last);
    if stem != "lib" && stem != "main" && stem != "mod" {
        parts.push(stem);
    }
    parts.into_iter().map(str::to_string).collect()
}

/// Direct workspace (`rsls-*`) dependencies of each crate directory,
/// read from its `Cargo.toml` `[dependencies]` (and `[dev-dependencies]`
/// — test-only edges never produce graph nodes, so over-approximating
/// here is harmless). The graph uses the transitive closure of this map
/// to keep method-name resolution from crossing impossible crate edges.
pub fn crate_deps(root: &Path) -> io::Result<BTreeMap<String, BTreeSet<String>>> {
    let crates_dir = root.join("crates");
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.path().join("src").is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    let known: BTreeSet<&str> = names.iter().map(String::as_str).collect();
    let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for name in &names {
        let mut direct = BTreeSet::new();
        if let Ok(manifest) = fs::read_to_string(crates_dir.join(name).join("Cargo.toml")) {
            for line in manifest.lines() {
                let line = line.trim();
                // `rsls-core = { path = "../core" }` or `[dependencies.rsls-core]`.
                for token in line.split(|c: char| !(c.is_alphanumeric() || c == '-' || c == '_')) {
                    if let Some(dep) = token.strip_prefix("rsls-") {
                        if known.contains(dep) && dep != name {
                            direct.insert(dep.to_string());
                        }
                    }
                }
            }
        }
        deps.insert(name.clone(), direct);
    }
    Ok(deps)
}

/// Rules enforced on a crate, by the directory name under `crates/`.
pub fn crate_rules(name: &str) -> Vec<Rule> {
    use Rule::*;
    match name {
        "core" => vec![
            WallClock,
            DefaultHasher,
            UnorderedParallel,
            NoUnwrap,
            MissingDocs,
        ],
        "cluster" | "solvers" | "sparse" | "faults" | "models" | "power" => {
            vec![WallClock, DefaultHasher, UnorderedParallel, NoUnwrap]
        }
        "campaign" => vec![DefaultHasher, NoUnwrap, MissingDocs],
        // The fault injector must be *more* deterministic than the code
        // it attacks — every decision derives from the plan seed and a
        // site counter, never wall-clock or entropy — so it gets the
        // full numeric-crate rule set.
        "chaos" => vec![
            WallClock,
            DefaultHasher,
            UnorderedParallel,
            NoUnwrap,
            MissingDocs,
        ],
        // The warehouse exists to prove byte-identical analytics: the
        // same SQL over the same store must print the same bytes from
        // any surface, so its whole library (lexer, planner, ingest,
        // canonical JSON) gets the full deterministic rule set. The
        // `views-live` polling loop needs a clock, which is why it
        // lives in `src/bin/` (exempt) with the interval passed in.
        "lab" => vec![
            WallClock,
            DefaultHasher,
            UnorderedParallel,
            NoUnwrap,
            MissingDocs,
        ],
        // The service is I/O edge by nature — it spawns connection
        // threads and times requests — so `wall-clock` and
        // `unordered-parallel` do not apply crate-wide; its compute
        // path is re-tightened per file in [`file_rules`].
        "serve" => vec![DefaultHasher, NoUnwrap, MissingDocs],
        // The soak harness measures wall-clock latency by design and
        // drives ordered worker fan-out through the vendored pool, so
        // `wall-clock` does not apply; everything else does, and its
        // network edges are R7 I/O-scoped like serve's.
        "load" => vec![DefaultHasher, UnorderedParallel, NoUnwrap, MissingDocs],
        "lint" => vec![DefaultHasher, UnorderedParallel, NoUnwrap, MissingDocs],
        "experiments" => vec![UnorderedParallel],
        // A new crate gets the hygiene baseline until it is classified
        // here; add it to this table (and LINTING.md) when it lands.
        _ => vec![DefaultHasher, UnorderedParallel, NoUnwrap],
    }
}

/// Rules for one file: the crate baseline from [`crate_rules`], plus
/// per-file tightenings. `rel` is the path inside the crate's `src/`.
///
/// Tightenings:
///
/// * `serve/src/compute.rs` — the service's deterministic compute path;
///   its output bytes hash into the `ETag` clients revalidate against,
///   so it is held to the numeric-crate rules (`wall-clock`,
///   `unordered-parallel`) even though the rest of the crate is I/O edge.
/// * `sparse/src/artifacts.rs` and `experiments/src/artifacts.rs` — the
///   shared artifact caches sit inside every solver hot path and hand
///   out data that must be bitwise-transparent (a hit returns exactly
///   what a miss would build), so they get the full deterministic rule
///   set plus public docs regardless of the crate baseline.
pub fn file_rules(name: &str, rel: &str) -> Vec<Rule> {
    use Rule::*;
    let tighten: &[Rule] = match (name, rel) {
        ("serve", "compute.rs") => &[WallClock, UnorderedParallel],
        ("sparse", "artifacts.rs") | ("experiments", "artifacts.rs") => &[
            WallClock,
            DefaultHasher,
            UnorderedParallel,
            NoUnwrap,
            MissingDocs,
        ],
        _ => &[],
    };
    let mut rules = crate_rules(name);
    if !tighten.is_empty() {
        for extra in tighten {
            if !rules.contains(extra) {
                rules.push(*extra);
            }
        }
        rules.sort();
    }
    rules
}

/// Collects every auditable `.rs` file under `<root>/crates/*/src`,
/// sorted by path so diagnostics and JSON output are deterministic.
pub fn collect(root: &Path) -> io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no `crates/` directory under {}", root.display()),
        ));
    }
    let mut crate_names: Vec<String> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.path().join("src").is_dir() {
            crate_names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    crate_names.sort();

    let mut files = Vec::new();
    for name in &crate_names {
        let src_dir = crates_dir.join(name).join("src");
        let mut paths = Vec::new();
        walk_rs(&src_dir, &mut paths)?;
        paths.sort();
        for path in paths {
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            let rel = path
                .strip_prefix(&src_dir)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            files.push(SourceFile {
                path,
                label,
                crate_name: name.clone(),
                module: module_path(&rel),
                rules: file_rules(name, &rel),
            });
        }
    }
    Ok(files)
}

/// Recursively gathers `.rs` files, skipping `bin/` subtrees (binaries
/// are exempt — they may time, print, and unwrap at the top level).
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() == "bin" {
                continue;
            }
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
