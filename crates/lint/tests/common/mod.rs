//! Shared by the lint test binaries: run the analyzer over a synthetic
//! workspace written to a temporary directory.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Writes `files` (`(path relative to the root, contents)`) into a
/// fresh temporary workspace, analyzes it, deletes it, and returns
/// `(rule id, file, line)` for every violation, in report order.
pub fn findings(files: &[(&str, &str)]) -> Vec<(&'static str, String, u32)> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let root: PathBuf = std::env::temp_dir().join(format!(
        "rsls-lint-ws-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    for (rel, src) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("file paths have a parent"))
            .expect("creating the temporary workspace");
        std::fs::write(&path, src).expect("writing the temporary workspace");
    }
    let report = rsls_lint::analyze_workspace(&root);
    std::fs::remove_dir_all(&root).expect("removing the temporary workspace");
    report
        .expect("temporary workspace is readable")
        .violations
        .into_iter()
        .map(|v| (v.rule.id(), v.file, v.line))
        .collect()
}
