//! Fixture tests for every rule.
//!
//! R1–R5 are rustc/clippy lints: `cargo clippy` runs once over the
//! fixture crate `tests/fixtures/clippy_ws` (which reads the workspace
//! `clippy.toml`), and each test pins the exact `(line, lint)` list of
//! one fixture file, near-misses included by their absence. Dropping a
//! `clippy.toml` entry or the fixture's `lib.rs` deny fails a test here.
//!
//! The pragma tests and the end-to-end binary test cover `rsls-lint`'s
//! own rules (R6 `transitive-nondet`, R7 `unguarded-io`) on synthetic
//! workspaces.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

mod common;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The lint behind each diagnostic message clippy prints.
const MESSAGES: &[(&str, &str)] = &[
    ("use of a disallowed method", "disallowed_methods"),
    ("use of a disallowed type", "disallowed_types"),
    ("used `unwrap()`", "unwrap_used"),
    ("used `expect()`", "expect_used"),
    ("`panic` should not be present", "panic"),
    ("missing documentation", "missing_docs"),
    (
        "this lint expectation is unfulfilled",
        "unfulfilled_lint_expectations",
    ),
];

/// Every diagnostic of one `cargo clippy` run over the fixture crate,
/// as `(file, line, lint)` sorted by file and line. A message outside
/// [`MESSAGES`] keeps its text as the lint, so it shows in a diff.
fn clippy_findings() -> &'static [(String, u32, String)] {
    static RUN: OnceLock<Vec<(String, u32, String)>> = OnceLock::new();
    RUN.get_or_init(|| {
        let target = std::env::temp_dir().join(format!("rsls-clippy-ws-{}", std::process::id()));
        let out = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
            .args(["clippy", "--offline", "--all-targets", "--keep-going"])
            .args(["--message-format=short", "--color=never"])
            .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy_ws"))
            .env("CARGO_TARGET_DIR", &target)
            .output()
            .expect("running cargo clippy");
        std::fs::remove_dir_all(&target).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("Checking rsls-lint-clippy-fixture"),
            "cargo clippy did not check the fixture:\n{stderr}"
        );
        // `src/x.rs:LINE:COL: level: message`; the lib and lib-test
        // targets repeat the lib's diagnostics, so collapse exact repeats.
        let lines: BTreeSet<&str> = stderr.lines().filter(|l| l.starts_with("src/")).collect();
        let mut found: Vec<(String, u32, String)> = lines
            .into_iter()
            .map(|l| {
                let mut parts = l.splitn(4, ':');
                let file = parts.next().unwrap_or_default().to_string();
                let line = parts.next().and_then(|n| n.parse().ok()).unwrap_or(0);
                let rest = parts.nth(1).unwrap_or_default();
                let message = rest.split_once(": ").map_or(rest, |(_, m)| m);
                let lint = MESSAGES
                    .iter()
                    .find(|(prefix, _)| message.starts_with(prefix))
                    .map_or(message, |(_, lint)| lint);
                (file, line, lint.to_string())
            })
            .collect();
        found.sort();
        found
    })
}

/// The findings in one fixture file, as `(line, lint)`.
fn clippy(file: &str) -> Vec<(u32, &'static str)> {
    clippy_findings()
        .iter()
        .filter(|(f, _, _)| f == file)
        .map(|(_, line, lint)| (*line, lint.as_str()))
        .collect()
}

#[test]
fn r1_wall_clock_fixture() {
    assert_eq!(
        clippy("src/r1_wall_clock.rs"),
        vec![
            (7, "disallowed_methods"),  // Instant::now
            (8, "disallowed_methods"),  // Instant::elapsed
            (13, "disallowed_methods"), // SystemTime::now
            (14, "disallowed_methods"), // SystemTime::elapsed
        ]
    );
}

#[test]
fn r2_default_hasher_fixture() {
    assert_eq!(
        clippy("src/r2_hasher.rs"),
        vec![(4, "disallowed_types"), (9, "disallowed_types")]
    );
}

/// `use std::collections::HashMap as Map;` followed by `Map::new()`
/// fires like `HashMap::new()` (and likewise for a clock alias):
/// renaming a banned item cannot launder it.
#[test]
fn r2_alias_fixture_sees_through_use_renames() {
    assert_eq!(
        clippy("src/r2_alias.rs"),
        vec![
            (4, "disallowed_types"),    // the `use … HashMap as Map` itself
            (5, "disallowed_types"),    // `HashSet as Uniq`
            (10, "disallowed_types"),   // `Map::new()` via alias
            (12, "disallowed_types"),   // `Uniq<u32>` annotation via alias
            (12, "disallowed_types"),   // `Uniq::new()` via alias
            (13, "disallowed_methods"), // `Clock::now()` via alias
            (15, "disallowed_methods"), // `.elapsed()` on the aliased type
        ]
    );
}

/// Both spawn spellings fire, `thread::Builder::new().spawn(..)`
/// included; scoped workers do not.
#[test]
fn r3_unordered_parallel_fixture() {
    assert_eq!(
        clippy("src/r3_parallel.rs"),
        vec![(9, "disallowed_methods"), (17, "disallowed_methods")]
    );
}

#[test]
fn r4_no_unwrap_fixture() {
    assert_eq!(
        clippy("src/r4_unwrap.rs"),
        vec![(5, "unwrap_used"), (6, "expect_used"), (8, "panic")]
    );
}

#[test]
fn r5_missing_docs_fixture() {
    assert_eq!(
        clippy("src/r5_docs.rs"),
        vec![(3, "missing_docs"), (12, "missing_docs")]
    );
}

/// Reasoned suppressions suppress everything they name: clippy's
/// `#[expect]` (an unfulfilled one would be reported), and
/// `rsls-lint`'s same-line, line-above, multi-rule and root pragmas.
#[test]
fn valid_pragmas_suppress_everything() {
    assert_eq!(clippy("src/expectations.rs"), vec![]);

    let src = fixture("clean_pragmas.rs");
    let at = "crates/serve/src/compute.rs";
    assert_eq!(common::findings(&[(at, &src)]), vec![]);
    let bare = src.replace("rsls-lint:", "no pragma:");
    let lines: Vec<(&str, u32)> = common::findings(&[(at, &bare)])
        .into_iter()
        .map(|(rule, _, line)| (rule, line))
        .collect();
    assert_eq!(
        lines,
        vec![
            ("unguarded-io", 13),
            ("transitive-nondet", 17),
            ("transitive-nondet", 23),
            ("unguarded-io", 25),
            ("transitive-nondet", 30),
        ]
    );
}

/// Tests may unwrap, expect and panic; they may not use a default
/// hasher (or read a clock) any more than library code may.
#[test]
fn test_code_is_exempt() {
    assert_eq!(
        clippy("src/test_exempt.rs"),
        vec![(6, "unwrap_used"), (24, "disallowed_types")]
    );
}

/// `serve` is I/O edge, so its `lib.rs` allows clock reads and threads;
/// its compute path (whose output bytes become `ETag`s) denies them
/// again.
#[test]
fn serve_compute_path_is_held_to_deterministic_rules() {
    assert_eq!(
        clippy("src/serve.rs"),
        vec![],
        "the edge may time and spawn"
    );
    assert_eq!(
        clippy("src/serve/compute.rs"),
        vec![
            (9, "disallowed_methods"),  // Instant::now
            (10, "disallowed_methods"), // thread::spawn
            (11, "disallowed_methods"), // Instant::elapsed
        ]
    );
}

#[test]
fn malformed_pragmas_are_violations_and_do_not_suppress() {
    let got: Vec<(&str, u32)> =
        common::findings(&[("crates/campaign/src/lib.rs", &fixture("bad_pragma.rs"))])
            .into_iter()
            .map(|(rule, _, line)| (rule, line))
            .collect();
    // Three bad pragmas (unknown rule, missing reason, unknown verb)
    // plus the read the typo'd pragma failed to suppress.
    assert_eq!(
        got,
        vec![
            ("pragma", 8),
            ("unguarded-io", 9),
            ("pragma", 13),
            ("pragma", 17),
        ]
    );
}

/// The clippy run with every lint at once reports exactly the union of
/// the per-rule lists above: no rule masks another, and nothing fires
/// in any other fixture file.
#[test]
fn full_catalog_superset_of_single_rule() {
    let pinned = [
        "src/r1_wall_clock.rs",
        "src/r2_alias.rs",
        "src/r2_hasher.rs",
        "src/r3_parallel.rs",
        "src/r4_unwrap.rs",
        "src/r5_docs.rs",
        "src/serve/compute.rs",
        "src/test_exempt.rs",
    ];
    let stray: Vec<_> = clippy_findings()
        .iter()
        .filter(|(file, _, _)| !pinned.contains(&file.as_str()))
        .collect();
    assert!(stray.is_empty(), "{stray:?}");
}

/// The workspace carries the attributes the fixture mirrors: every
/// library crate but the application crate `experiments` denies panics
/// in its `lib.rs` (a new crate starts there too), only the I/O edge
/// (`campaign`, `serve`) allows clock reads and threads, and the two
/// files held to stricter rules than their crate carry their own.
#[test]
fn library_crates_carry_the_scoping_attributes() {
    const NO_PANICS: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let read = |rel: &str| std::fs::read_to_string(crates.join(rel)).unwrap_or_default();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        let lib = read(&format!("{name}/src/lib.rs"));
        assert_eq!(lib.contains(NO_PANICS), name != "experiments", "{name}");
        let edge = name == "campaign" || name == "serve";
        assert_eq!(lib.contains("clippy::disallowed_methods"), edge, "{name}");
    }
    assert!(read("serve/src/compute.rs").contains("#![deny(clippy::disallowed_methods)]"));
    assert!(read("experiments/src/artifacts.rs").contains(NO_PANICS));
}

/// End-to-end: the compiled binary exits nonzero (and reports the
/// violation in JSON) on an unregistered `fs::read` in a synthetic
/// `campaign` crate, and exits zero once it is removed.
#[test]
fn binary_exits_nonzero_on_injected_violation() {
    let root = std::env::temp_dir().join(format!("rsls-lint-e2e-{}", std::process::id()));
    let src_dir = root.join("crates/campaign/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        "//! Reads outside any chaos site.\n\n/// Unregistered.\npub fn slurp() -> usize {\n    std::fs::read(\"x\").map_or(0, |b| b.len())\n}\n",
    )
    .unwrap();

    let run_bin = |fmt: &str| {
        Command::new(env!("CARGO_BIN_EXE_rsls-lint"))
            .args(["--root", root.to_str().unwrap(), "--format", fmt])
            .output()
            .unwrap()
    };

    let out = run_bin("json");
    assert_eq!(out.status.code(), Some(1), "expected exit 1 on violation");
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"rule\": \"unguarded-io\""), "{json}");
    assert!(json.contains("\"line\": 5"), "{json}");

    // Replace the violating file with clean code → exit 0.
    std::fs::write(
        src_dir.join("lib.rs"),
        "//! Clean module.\n\n/// Adds one.\npub fn add_one(x: u32) -> u32 {\n    x + 1\n}\n",
    )
    .unwrap();
    let out = run_bin("text");
    assert_eq!(out.status.code(), Some(0), "expected exit 0 on clean tree");

    std::fs::remove_dir_all(&root).unwrap();
}
