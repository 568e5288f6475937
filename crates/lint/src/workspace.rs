//! Collects the workspace's source files and its crate dependency map.
//!
//! Every `.rs` file under `crates/*/src` is analyzed, outside `src/bin/`
//! (binaries are the edge: they time, print and exit). `tests/`,
//! `benches/` and `examples/` lie outside `src/` and are not read, and
//! `vendor/` stand-ins are not audited: they mimic external crates'
//! APIs and carry their own conventions. Which per-file rules apply
//! where is clippy's business (`lib.rs` attributes, see `LINTING.md`);
//! R6 and R7 carry their own scope tables in [`crate::taint`].

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source file queued for analysis.
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
