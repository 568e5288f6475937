//! Transitive determinism-taint (R6) and I/O-site coverage (R7).
//!
//! **R6 `transitive-nondet`** — a function is a *taint seed* when its
//! body directly uses a banned nondeterminism source (wall-clock or
//! entropy, a default-hasher map, an ad-hoc `thread::spawn`), in any
//! crate and whatever clippy allows there, without a justifying pragma.
//! Seeds are found by identifier, so holding an `Instant` or naming a
//! `use … as` alias of one counts. Taint propagates backwards along the
//! workspace call graph: every function that can reach a seed is
//! tainted, across crate boundaries, with a witness chain recorded for
//! the diagnostic. The rule fires for tainted members of the
//! *deterministic root set* — the code whose output bytes the repo's
//! reproducibility claims rest on. A chain is broken by fixing the
//! source, pragma-ing the seed line, pragma-ing a call edge on the
//! chain, or pragma-ing the root itself (each with a reason).
//!
//! **R7 `unguarded-io`** — every `std::fs` / `std::net` entry point in
//! the [`IO_SCOPED_CRATES`] must belong to a function
//! registered in the checked-in I/O-site manifest
//! (`crates/lint/io_sites.txt`), which maps it to one of the chaos
//! injector's named fault sites. New I/O can therefore never silently
//! escape fault coverage: it either registers (and the chaos soak
//! exercises it) or carries a reasoned `allow(unguarded-io)` pragma.
//! Manifest entries that no longer match an I/O-bearing function are
//! themselves violations, so the manifest cannot rot.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::diagnostics::Violation;
use crate::graph::{CallGraph, Edge, FileUnit};
use crate::lexer::TokenKind;
use crate::parse::{FileAst, SigTok};
use crate::rules::Rule;

/// The deterministic root set: `(crate, module-prefix)` pairs. An empty
/// prefix covers the whole crate. These are the functions whose
/// transitive purity the repo's claims depend on (see LINTING.md for
/// the rationale per row).
pub const DETERMINISTIC_ROOTS: &[(&str, &str)] = &[
    ("solvers", ""),              // the solver hot path
    ("serve", "compute"),         // response bytes → ETag content addresses
    ("lab", ""),                  // byte-identical SQL analytics
    ("chaos", ""),                // fault decisions must replay from seed
    ("sparse", "artifacts"),      // shared artifact cache (hit ≡ miss)
    ("experiments", "artifacts"), // workload interner (hit ≡ miss)
];

/// Crates whose `std::fs` / `std::net` usage must be registered
/// chaos-injection sites (R7). `core` joined when the checkpoint
/// `DiskStore` became a chaos-hardened injection target (the
/// `ckpt-*` sites).
pub const IO_SCOPED_CRATES: &[&str] = &["campaign", "core", "load", "serve"];

/// Identifiers that enter the filesystem or the network when used in
/// path position (`fs::read`, `TcpStream::connect`, …).
pub const IO_IDENTS: &[&str] = &[
    "fs",
    "File",
    "OpenOptions",
    "TcpListener",
    "TcpStream",
    "UdpSocket",
];

/// The chaos sites a manifest entry may name (kept in sync with
/// `rsls_chaos::ChaosSite::ALL` — the lint crate is dependency-free by
/// design, so the list is mirrored, and the manifest check is what
/// keeps drift visible). The `server-*` rows are the PR-8 event-loop
/// sites.
pub const CHAOS_SITE_NAMES: &[&str] = &[
    "cache-read-error",
    "cache-corrupt",
    "cache-truncate",
    "cache-write-torn",
    "journal-torn",
    "unit-panic",
    "unit-transient",
    "client-reset",
    "client-garble",
    "client-delay",
    "server-accept",
    "server-read",
    "server-write",
    "ckpt-write-torn",
    "ckpt-read-error",
];

/// Identifiers that mean wall-clock time or OS entropy reached the code.
const WALL_CLOCK_IDENTS: &[&str] = &[
    "SystemTime",
    "Instant",
    "UNIX_EPOCH",
    "thread_rng",
    "OsRng",
    "from_entropy",
];

/// Default-hasher collection types with randomized iteration order.
const HASHER_IDENTS: &[&str] = &["HashMap", "HashSet"];

/// Seed kinds, named after the per-file rule (now a clippy lint) whose
/// source they are; each witness chain ends in one.
const WALL_CLOCK: &str = "wall-clock";
const DEFAULT_HASHER: &str = "default-hasher";
const UNORDERED_PARALLEL: &str = "unordered-parallel";

/// One direct use of a banned source inside a fn body.
#[derive(Debug, Clone)]
struct Seed {
    node: usize,
    /// Rendered source token (`Instant::now`, `HashMap`, `thread::spawn`).
    token: String,
    /// Seed kind (`wall-clock`, `default-hasher`, `unordered-parallel`).
    kind: &'static str,
    line: u32,
}

/// The seed kind of a banned identifier, if `name` is one.
fn ident_kind(name: &str) -> Option<&'static str> {
    if WALL_CLOCK_IDENTS.contains(&name) {
        Some(WALL_CLOCK)
    } else if HASHER_IDENTS.contains(&name) {
        Some(DEFAULT_HASHER)
    } else {
        None
    }
}

/// Names bound to a banned identifier by `use … as …`, mapped to its
/// seed kind. The parser resolves nested groups, so
/// `use std::collections::{HashMap as Map, …}` is tracked the same as
/// a plain rename.
fn banned_aliases(ast: &FileAst) -> BTreeMap<&str, &'static str> {
    let mut aliases = BTreeMap::new();
    for u in &ast.uses {
        let Some(last) = u.path.last() else { continue };
        if u.alias == "*" || u.alias == *last {
            continue;
        }
        if let Some(kind) = ident_kind(last) {
            aliases.insert(u.alias.as_str(), kind);
        }
    }
    aliases
}

/// Scans every non-test fn body for unsuppressed banned sources.
fn collect_seeds(units: &[FileUnit], graph: &CallGraph) -> Vec<Seed> {
    let mut seeds = Vec::new();
    for (id, f) in graph.fns.iter().enumerate() {
        let unit = &units[f.file_idx];
        let Some((start, end)) = f.body else { continue };
        let aliases = banned_aliases(&unit.ast);
        let sig = &unit.sig;
        for j in start..=end.min(sig.len().saturating_sub(1)) {
            let t = &sig[j];
            if unit.skip[j] || t.kind != TokenKind::Ident {
                continue;
            }
            let text = t.text.as_str();
            let hit = match ident_kind(text).or_else(|| aliases.get(text).copied()) {
                Some(WALL_CLOCK) => Some((path_render(sig, j, end), WALL_CLOCK)),
                Some(kind) => Some((text.to_string(), kind)),
                None if text == "thread"
                    && j + 3 <= end
                    && sig[j + 1].is_punct(':')
                    && sig[j + 2].is_punct(':')
                    && sig[j + 3].is_ident("spawn") =>
                {
                    Some(("thread::spawn".to_string(), UNORDERED_PARALLEL))
                }
                None => None,
            };
            if let Some((token, kind)) = hit {
                if !unit.allows(Rule::TransitiveNondet, t.line) {
                    seeds.push(Seed {
                        node: id,
                        token,
                        kind,
                        line: t.line,
                    });
                }
            }
        }
    }
    seeds
}

/// Renders `Ident` (plus a following `::segment`, when present) for a
/// readable chain tail: `Instant::now`, `SystemTime`.
fn path_render(sig: &[SigTok], j: usize, end: usize) -> String {
    if j + 3 <= end
        && sig[j + 1].is_punct(':')
        && sig[j + 2].is_punct(':')
        && sig[j + 3].kind == TokenKind::Ident
    {
        format!("{}::{}", sig[j].text, sig[j + 3].text)
    } else {
        sig[j].text.clone()
    }
}

/// True when graph node `f` belongs to the deterministic root set.
fn is_root(f: &crate::graph::FnNode) -> bool {
    DETERMINISTIC_ROOTS.iter().any(|(krate, prefix)| {
        f.crate_name == *krate
            && (prefix.is_empty() || f.module.first().map(String::as_str) == Some(*prefix))
    })
}

/// The taint state of the workspace: which fns reach a seed, and the
/// witness step each tainted fn takes toward one.
#[derive(Debug)]
pub struct TaintMap {
    /// Node id → index into `seeds` when the fn itself is a seed.
    seed_of: BTreeMap<usize, usize>,
    /// Node id → the call edge its witness chain follows next.
    next_hop: BTreeMap<usize, Edge>,
    seeds: Vec<Seed>,
}

impl TaintMap {
    /// True when `node` is tainted (is, or reaches, a seed).
    pub fn is_tainted(&self, node: usize) -> bool {
        self.seed_of.contains_key(&node) || self.next_hop.contains_key(&node)
    }

    /// Number of tainted nodes (for tests and stats).
    pub fn tainted_count(&self) -> usize {
        let mut ids: BTreeSet<usize> = self.seed_of.keys().copied().collect();
        ids.extend(self.next_hop.keys().copied());
        ids.len()
    }

    /// The witness chain from `node` to its seed token, rendered as
    /// `a::f -> b::g -> Instant::now (crates/x/src/y.rs:12) [wall-clock]`.
    pub fn chain(&self, node: usize, graph: &CallGraph) -> Option<String> {
        let mut parts = vec![graph.fns[node].qual()];
        let mut cur = node;
        let mut hops = 0;
        while let Some(edge) = self.next_hop.get(&cur) {
            cur = edge.to;
            parts.push(graph.fns[cur].qual());
            hops += 1;
            if hops > graph.fns.len() {
                return None; // cycle guard; unreachable by construction
            }
        }
        let seed = &self.seeds[*self.seed_of.get(&cur)?];
        let f = &graph.fns[cur];
        parts.push(format!(
            "{} ({}:{}) [{}]",
            seed.token, f.file, seed.line, seed.kind
        ));
        Some(parts.join(" -> "))
    }
}

/// Runs seed collection and backward propagation over the call graph.
/// Call edges whose call-site line carries an `allow(transitive-nondet)`
/// pragma are cut before propagating.
pub fn propagate(units: &[FileUnit], graph: &CallGraph) -> TaintMap {
    let seeds = collect_seeds(units, graph);
    let mut seed_of: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, s) in seeds.iter().enumerate() {
        seed_of.entry(s.node).or_insert(i); // first (lowest-line) seed wins
    }

    // Reverse adjacency, skipping pragma-cut edges.
    let mut rev: BTreeMap<usize, Vec<Edge>> = BTreeMap::new();
    for e in &graph.edges {
        let caller = &graph.fns[e.from];
        if units[caller.file_idx].allows(Rule::TransitiveNondet, e.line) {
            continue;
        }
        rev.entry(e.to).or_default().push(*e);
    }

    let mut next_hop: BTreeMap<usize, Edge> = BTreeMap::new();
    let mut queue: VecDeque<usize> = seed_of.keys().copied().collect();
    let mut visited: BTreeSet<usize> = seed_of.keys().copied().collect();
    while let Some(n) = queue.pop_front() {
        if let Some(callers) = rev.get(&n) {
            for e in callers {
                if visited.insert(e.from) {
                    next_hop.insert(e.from, *e);
                    queue.push_back(e.from);
                }
            }
        }
    }

    TaintMap {
        seed_of,
        next_hop,
        seeds,
    }
}

/// R6: one violation per tainted deterministic-root function that is
/// not itself a seed (direct uses are clippy's jurisdiction — no root
/// file allows `disallowed_methods` or `disallowed_types`).
pub fn transitive_violations(
    units: &[FileUnit],
    graph: &CallGraph,
    taint: &TaintMap,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (id, f) in graph.fns.iter().enumerate() {
        if !is_root(f) || !taint.next_hop.contains_key(&id) {
            continue;
        }
        if units[f.file_idx].allows(Rule::TransitiveNondet, f.line) {
            continue;
        }
        let Some(chain) = taint.chain(id, graph) else {
            continue;
        };
        out.push(Violation {
            rule: Rule::TransitiveNondet,
            file: f.file.clone(),
            line: f.line,
            message: format!(
                "deterministic root transitively reaches a nondeterminism source: {chain}; \
                 break the chain, or justify an edge or this root with allow(transitive-nondet)"
            ),
        });
    }
    out
}

/// One parsed manifest entry: `<site> <file> <qualified-fn>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoSiteEntry {
    /// Chaos site name (one of [`CHAOS_SITE_NAMES`]).
    pub site: String,
    /// File label relative to the workspace root.
    pub file: String,
    /// Fully qualified function name (`campaign::cache::ResultCache::store`).
    pub func: String,
    /// 1-based manifest line.
    pub line: u32,
}

/// Parses the I/O-site manifest: one `<site> <file> <fn>` entry per
/// line, `#` comments and blank lines ignored. Malformed lines are
/// returned as violations against the manifest itself.
pub fn parse_manifest(label: &str, text: &str) -> (Vec<IoSiteEntry>, Vec<Violation>) {
    let mut entries = Vec::new();
    let mut violations = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = (idx + 1) as u32;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        if fields.len() != 3 {
            violations.push(Violation {
                rule: Rule::UnguardedIo,
                file: label.to_string(),
                line,
                message: format!(
                    "malformed manifest entry (expected `<site> <file> <fn>`, got {} fields)",
                    fields.len()
                ),
            });
            continue;
        }
        if !CHAOS_SITE_NAMES.contains(&fields[0]) {
            violations.push(Violation {
                rule: Rule::UnguardedIo,
                file: label.to_string(),
                line,
                message: format!(
                    "unknown chaos site `{}` in manifest (known: {})",
                    fields[0],
                    CHAOS_SITE_NAMES.join(", ")
                ),
            });
            continue;
        }
        entries.push(IoSiteEntry {
            site: fields[0].to_string(),
            file: fields[1].to_string(),
            func: fields[2].to_string(),
            line,
        });
    }
    (entries, violations)
}

/// R7: every `std::fs`/`std::net` entry point in the I/O-scoped crates
/// must sit in a manifest-registered function (or carry a pragma), and
/// every manifest entry must still match an I/O-bearing function.
pub fn io_violations(
    units: &[FileUnit],
    graph: &CallGraph,
    manifest_label: &str,
    entries: &[IoSiteEntry],
) -> Vec<Violation> {
    let registered: BTreeSet<(&str, &str)> = entries
        .iter()
        .map(|e| (e.file.as_str(), e.func.as_str()))
        .collect();
    let mut out = Vec::new();

    for f in graph.fns.iter() {
        if !IO_SCOPED_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        let unit = &units[f.file_idx];
        let Some((start, end)) = f.body else { continue };
        let qual = f.qual();
        let is_registered = registered.contains(&(f.file.as_str(), qual.as_str()));
        let sig = &unit.sig;
        for j in start..=end.min(sig.len().saturating_sub(1)) {
            let line = sig[j].line;
            if is_io_entry(unit, j, end) && !is_registered && !unit.allows(Rule::UnguardedIo, line)
            {
                out.push(Violation {
                    rule: Rule::UnguardedIo,
                    file: f.file.clone(),
                    line,
                    message: format!(
                        "`{}` in `{qual}` is not a registered chaos injection site; \
                         add it to {manifest_label} under one of the fault sites \
                         so the chaos soak covers it, or justify with allow(unguarded-io)",
                        path_render(sig, j, end)
                    ),
                });
            }
        }
    }

    // Match the entry list against every I/O-bearing function so stale
    // entries are reported (the manifest must not rot).
    let io_fns: BTreeSet<(String, String)> = graph
        .fns
        .iter()
        .filter(|f| IO_SCOPED_CRATES.contains(&f.crate_name.as_str()))
        .filter(|f| fn_has_io(&units[f.file_idx], f))
        .map(|f| (f.file.clone(), f.qual()))
        .collect();
    for e in entries {
        if !io_fns.contains(&(e.file.clone(), e.func.clone())) {
            out.push(Violation {
                rule: Rule::UnguardedIo,
                file: manifest_label.to_string(),
                line: e.line,
                message: format!(
                    "stale manifest entry: `{}` in {} no longer performs std::fs/std::net I/O \
                     (moved, renamed, or cleaned up) — update or remove the entry",
                    e.func, e.file
                ),
            });
        }
    }
    out
}

/// True when `f`'s body contains an I/O entry token (outside tests).
fn fn_has_io(unit: &FileUnit, f: &crate::graph::FnNode) -> bool {
    let Some((start, end)) = f.body else {
        return false;
    };
    (start..=end.min(unit.sig.len().saturating_sub(1))).any(|j| is_io_entry(unit, j, end))
}

/// True when token `j` (inside a body ending at `end`) is an I/O entry
/// in path position (`fs::…`, `TcpStream::…`) outside test code.
fn is_io_entry(unit: &FileUnit, j: usize, end: usize) -> bool {
    let sig = &unit.sig;
    sig[j].kind == TokenKind::Ident
        && IO_IDENTS.contains(&sig[j].text.as_str())
        && j + 2 <= end
        && sig[j + 1].is_punct(':')
        && sig[j + 2].is_punct(':')
        && !unit.skip[j]
}
