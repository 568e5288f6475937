//! The determinism rules R1–R7 (see LINTING.md), pinned.
//!
//! Every rule is a rustc/clippy lint or an edge the crate graph cannot
//! have. `cargo clippy` runs once over the fixture workspace
//! `tests/clippy_ws`, and each fixture test pins the exact
//! `(line, lint)` list of one file, near-misses included by their
//! absence. The fixture's root package reads the repository's
//! `clippy.toml`, its `io` member the symlinked `crates/io.clippy.toml`,
//! and its `root` member forbids the bans the way a root crate does.
//! Dropping a config entry or an attribute fails a test here.
//!
//! The other tests read the workspace itself: the scoping attributes,
//! the two clippy configs, the chaos sites named in `#[expect]`
//! reasons, and the two R6 edges cargo's dependency graph allows.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The repository root (this test is hosted by `crates/experiments`).
fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = repo().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(rs_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out
}

/// The workspace crates, by directory name.
fn crate_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(repo().join("crates"))
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
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
    (
        "expect(clippy::disallowed_methods) incompatible with previous forbid",
        "E0453",
    ),
];

/// Every diagnostic of one `cargo clippy` run over the fixture
/// workspace, as `(file, line, lint)` sorted by file and line. A
/// message outside [`MESSAGES`] keeps its text as the lint, so it shows
/// in a diff.
fn clippy_findings() -> &'static [(String, u32, String)] {
    static RUN: OnceLock<Vec<(String, u32, String)>> = OnceLock::new();
    RUN.get_or_init(|| {
        let target = std::env::temp_dir().join(format!("rsls-clippy-ws-{}", std::process::id()));
        let out = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
            .args([
                "clippy",
                "--offline",
                "--workspace",
                "--all-targets",
                "--keep-going",
            ])
            .args(["--message-format=short", "--color=never"])
            .current_dir(repo().join("tests/clippy_ws"))
            .env("CARGO_TARGET_DIR", &target)
            .output()
            .expect("running cargo clippy");
        std::fs::remove_dir_all(&target).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        for package in ["", "-io", "-root"] {
            assert!(
                stderr.contains(&format!("Checking rsls-clippy-fixture{package} v")),
                "cargo clippy did not check rsls-clippy-fixture{package}:\n{stderr}"
            );
        }
        // `path/x.rs:LINE:COL: level: message`; the lib and lib-test
        // targets repeat the lib's diagnostics, so collapse exact repeats.
        let lines: BTreeSet<&str> = stderr
            .lines()
            .filter(|l| l.split(':').next().is_some_and(|f| f.ends_with(".rs")))
            .collect();
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

/// Reasoned `#[expect]`s suppress everything they name; an unfulfilled
/// one would be reported.
#[test]
fn valid_pragmas_suppress_everything() {
    assert_eq!(clippy("src/expectations.rs"), vec![]);
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

/// `serve`'s timing and spawning fns each carry an `#[expect]`; its
/// compute path (whose output bytes become `ETag`s) forbids the bans.
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

/// R7: in an I/O-scoped crate every entry point into the file system or
/// the network fires, unless its fn names a `chaos:` site or an
/// `unguarded:` reason. A write through a held handle does not fire,
/// and the root config's clock bans still do.
#[test]
fn io_crate_fixture_bans_every_entry_point() {
    assert_eq!(
        clippy("io/src/lib.rs"),
        vec![
            (11, "disallowed_methods"), // unregistered `fs::read`
            (16, "disallowed_methods"), // File::open
            (17, "disallowed_methods"), // File::create
            (18, "disallowed_methods"), // OpenOptions::open
            (24, "disallowed_methods"), // TcpListener::bind
            (25, "disallowed_methods"), // TcpStream::connect
            (26, "disallowed_methods"), // TcpListener::accept
            (52, "disallowed_methods"), // Instant::now
            (52, "disallowed_methods"), // Instant::elapsed
        ]
    );
}

/// R6 at a root: `forbid` cannot be reopened, so an inner `#[expect]`
/// is a hard error (E0453), not a suppression.
#[test]
fn an_expect_under_a_root_forbid_is_a_hard_error() {
    assert_eq!(clippy("root/src/lib.rs"), vec![(7, "E0453")]);
}

/// The clippy run with every lint at once reports exactly the union of
/// the per-rule lists above: no rule masks another, and nothing fires
/// in any other fixture file.
#[test]
fn full_catalog_superset_of_single_rule() {
    let pinned = [
        "io/src/lib.rs",
        "root/src/lib.rs",
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

/// The attribute that makes a crate (or file) a deterministic root.
const FORBID: &str = "#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]";

/// The workspace carries the attributes the fixture mirrors: every
/// library crate but the application crate `experiments` denies panics
/// in its `lib.rs` (a new crate starts there too), no `lib.rs` names
/// `disallowed_methods` but in a root's `forbid` (so none allows clock
/// reads or threads crate-wide), and every root carries that `forbid`.
#[test]
fn library_crates_carry_the_scoping_attributes() {
    const NO_PANICS: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    const ROOTS: [&str; 4] = ["chaos", "lab", "solvers", "sparse"];
    for name in crate_names() {
        let lib = read(&format!("crates/{name}/src/lib.rs"));
        assert_eq!(lib.contains(NO_PANICS), name != "experiments", "{name}");
        let unscoped = lib.replace(FORBID, "");
        assert!(!unscoped.contains("disallowed_methods"), "{name}");
        assert_eq!(
            lib.contains(FORBID),
            ROOTS.contains(&name.as_str()),
            "{name}"
        );
    }
    for file in ["serve/src/compute.rs", "experiments/src/artifacts.rs"] {
        assert!(read(&format!("crates/{file}")).contains(FORBID), "{file}");
    }
    assert!(read("crates/experiments/src/artifacts.rs").contains(NO_PANICS));
}

/// The I/O-scoped crates read `crates/io.clippy.toml` through a
/// symlink, and that file holds every entry of the root `clippy.toml`
/// unchanged, so the R1–R4 bans are the same in every crate.
#[test]
fn io_clippy_toml_is_the_root_config_plus_the_io_bans() {
    let io = repo().join("crates/io.clippy.toml");
    for name in ["campaign", "core", "serve"] {
        let link = repo().join(format!("crates/{name}/clippy.toml"));
        assert_eq!(
            std::fs::read_link(&link).unwrap(),
            Path::new("../io.clippy.toml"),
            "{name}"
        );
        assert_eq!(
            link.canonicalize().unwrap(),
            io.canonicalize().unwrap(),
            "{name}"
        );
    }
    let io = read("crates/io.clippy.toml");
    let io_lines: BTreeSet<&str> = io.lines().collect();
    let root = read("clippy.toml");
    let entries: Vec<&str> = root
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .collect();
    assert!(entries.len() > 10, "{entries:?}");
    for entry in entries {
        assert!(
            io_lines.contains(entry),
            "missing from io.clippy.toml: {entry}"
        );
    }
}

/// Sites that fault the compute closure inside `Engine::run_one`, which
/// performs no direct file or network I/O of its own (the cache and
/// journal do it), so no `chaos:` reason can name them.
const COMPUTE_CLOSURE_SITES: [&str; 2] = ["unit-panic", "unit-transient"];

/// R7's coverage direction: every chaos site but the two compute-closure
/// ones is named by some `#[expect(.., reason = "chaos: <site>, …")]` in
/// the workspace, and every name in such a reason is a real site. (The
/// other direction, an expectation that no longer fires, is rustc's
/// `unfulfilled_lint_expectations`.)
#[test]
fn every_chaos_site_is_named_by_a_chaos_reason() {
    const MARK: &str = "reason = \"chaos: ";
    let mut named = BTreeSet::new();
    for name in crate_names() {
        for file in rs_files(&repo().join(format!("crates/{name}/src"))) {
            let src = std::fs::read_to_string(&file).unwrap();
            for (at, _) in src.match_indices(MARK) {
                let rest = &src[at + MARK.len()..];
                let sites = rest[..rest.find('"').unwrap()].split(" (").next().unwrap();
                named.extend(sites.split(", ").map(str::to_string));
            }
        }
    }
    let all: BTreeSet<String> = rsls_chaos::ChaosSite::ALL
        .iter()
        .map(|s| s.label().to_string())
        .collect();
    let expected: BTreeSet<String> = all
        .iter()
        .filter(|s| !COMPUTE_CLOSURE_SITES.contains(&s.as_str()))
        .cloned()
        .collect();
    assert_eq!(named, expected);
}

/// R6 across crates: cargo already rejects a root depending on `serve`
/// (a cycle). What it cannot see is a file inside `serve`:
/// `compute.rs` reaches nothing of its own crate.
#[test]
fn serve_compute_names_nothing_of_its_own_crate() {
    assert!(!read("crates/serve/src/compute.rs").contains("crate::"));
}

/// R6 across crates: `lab` and the workload interner may depend on
/// `campaign`, but never name `Engine`, the one campaign type whose
/// methods read the clock.
#[test]
fn deterministic_roots_never_name_the_engine() {
    let mut files = rs_files(&repo().join("crates/lab/src"));
    files.push(repo().join("crates/experiments/src/artifacts.rs"));
    for file in files {
        let src = std::fs::read_to_string(&file).unwrap();
        let named = src.match_indices("Engine").any(|(at, _)| {
            let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
            let before = at.checked_sub(1).map(|i| src.as_bytes()[i]);
            let after = src.as_bytes().get(at + "Engine".len()).copied();
            !before.is_some_and(word) && !after.is_some_and(word)
        });
        assert!(!named, "{} names Engine", file.display());
    }
}
