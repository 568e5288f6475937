//! Workspace-wide symbol table and call graph.
//!
//! Built from the per-file item trees ([`crate::parse`]): every
//! non-test function in the workspace becomes a node, and call
//! expressions in its body become edges, resolved through the file's
//! `use` aliases, `crate::`/`self::`/`super::` paths, `pub use`
//! re-exports, and inherent/trait method names. Resolution is
//! deliberately conservative where Rust's type system would be needed:
//!
//! * A path call (`campaign::cache::ResultCache::lookup(…)`) resolves
//!   exactly, through aliases and re-exports.
//! * A method call `self.m(…)` resolves to the enclosing impl's `m`
//!   when it has one.
//! * Any other method call `expr.m(…)` resolves to **every** workspace
//!   method named `m` in crates the caller's crate can actually reach
//!   (its transitive `rsls-*` dependency closure) — over-approximating
//!   the callee set keeps the taint analysis sound, while the
//!   dependency filter keeps `vec.drain(…)` in a solver from aliasing
//!   a service method of the same name.
//!
//! Unresolvable calls (std, vendored crates) produce no edge; direct
//! uses of banned identifiers are caught by the seed scan in
//! [`crate::taint`] instead, so nothing is lost at the graph boundary.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::parse::{FileAst, SigTok};
use crate::pragma::Pragma;
use crate::rules::Rule;

/// One analyzed source file, carrying everything the graph and taint
/// passes need (tokens, parse tree, pragmas, provenance).
#[derive(Debug, Clone)]
pub struct FileUnit {
    /// Crate directory name under `crates/` (e.g. `campaign`).
    pub crate_name: String,
    /// Diagnostic label (path relative to the workspace root).
    pub label: String,
    /// Module path derived from the file's location under `src/`
    /// (`lib.rs` → empty, `foo.rs`/`foo/mod.rs` → `["foo"]`).
    pub module: Vec<String>,
    /// Significant (comment-free) token stream.
    pub sig: Vec<SigTok>,
    /// Test-skip mask aligned with `sig`.
    pub skip: Vec<bool>,
    /// Parsed item tree.
    pub ast: FileAst,
    /// Suppression pragmas parsed from the file.
    pub pragmas: Vec<Pragma>,
}

impl FileUnit {
    /// True when a pragma in this file allows `rule` at `line`.
    pub fn allows(&self, rule: Rule, line: u32) -> bool {
        self.pragmas.iter().any(|p| p.suppresses(rule, line))
    }
}

/// One function node in the call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Crate directory name.
    pub crate_name: String,
    /// Full module path (file module + inline modules).
    pub module: Vec<String>,
    /// Enclosing impl/trait type for methods.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// Index into the `FileUnit` slice the node was built from.
    pub file_idx: usize,
    /// Diagnostic label of the defining file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body token span in the file's significant stream.
    pub body: Option<(usize, usize)>,
}

impl FnNode {
    /// Fully qualified display name: `crate::module::Type::name`.
    pub fn qual(&self) -> String {
        let mut parts: Vec<&str> = vec![self.crate_name.as_str()];
        parts.extend(self.module.iter().map(String::as_str));
        if let Some(ty) = &self.self_ty {
            parts.push(ty);
        }
        parts.push(&self.name);
        parts.join("::")
    }
}

/// One resolved call edge (caller → callee) at a call-site line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Caller node index.
    pub from: usize,
    /// Callee node index.
    pub to: usize,
    /// 1-based call-site line in the caller's file.
    pub line: u32,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All non-test function nodes, in deterministic (file, line) order.
    pub fns: Vec<FnNode>,
    /// All resolved edges, sorted and deduplicated by (from, to, line).
    pub edges: Vec<Edge>,
}

impl CallGraph {
    /// Number of distinct (caller, callee) pairs — the stat the CI log
    /// tracks over time.
    pub fn distinct_edges(&self) -> usize {
        self.edges
            .iter()
            .map(|e| (e.from, e.to))
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Human-readable `caller -> callee` labels for the distinct edge
    /// set, sorted — the shape the golden tests pin.
    pub fn edge_labels(&self) -> Vec<String> {
        let set: BTreeSet<String> = self
            .edges
            .iter()
            .map(|e| format!("{} -> {}", self.fns[e.from].qual(), self.fns[e.to].qual()))
            .collect();
        set.into_iter().collect()
    }
}

/// An absolute path inside the workspace: crate + module/type segments.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct AbsPath {
    krate: String,
    segs: Vec<String>,
}

/// Symbol-resolution context shared across files.
struct Resolver {
    /// Workspace crate directory names.
    crates: BTreeSet<String>,
    /// `(crate, module-path, name)` → node ids, free functions.
    free_fns: BTreeMap<(String, Vec<String>, String), Vec<usize>>,
    /// `(crate, type, name)` → node ids, methods (module-agnostic:
    /// a type name is assumed unique within its crate).
    typed_fns: BTreeMap<(String, String, String), Vec<usize>>,
    /// Method name → node ids, workspace-wide (the conservative pool).
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Every known `(crate, module-path)`.
    modules: BTreeSet<(String, Vec<String>)>,
    /// `(crate, module-path, alias)` → re-export target (`pub use`).
    reexports: BTreeMap<(String, Vec<String>, String), AbsPath>,
    /// `(crate, module-path)` → glob-import targets (`use x::*`).
    globs: BTreeMap<(String, Vec<String>), Vec<AbsPath>>,
    /// Per-module import map: alias → absolute target.
    imports: BTreeMap<(String, Vec<String>), BTreeMap<String, AbsPath>>,
    /// Transitive `rsls-*` dependency closure per crate (incl. itself).
    dep_closure: BTreeMap<String, BTreeSet<String>>,
    /// Crate of each fn node, indexed by node id.
    crate_of: Vec<String>,
}

/// Builds the call graph. `deps` maps each crate directory name to its
/// direct workspace dependencies (from `Cargo.toml`); the resolver
/// computes the transitive closure to scope method-name resolution.
pub fn build(units: &[FileUnit], deps: &BTreeMap<String, BTreeSet<String>>) -> CallGraph {
    let crates: BTreeSet<String> = units.iter().map(|u| u.crate_name.clone()).collect();
    let mut fns: Vec<FnNode> = Vec::new();
    for (file_idx, unit) in units.iter().enumerate() {
        for f in &unit.ast.fns {
            if f.in_test {
                continue;
            }
            let mut module = unit.module.clone();
            module.extend(f.module.iter().cloned());
            fns.push(FnNode {
                crate_name: unit.crate_name.clone(),
                module,
                self_ty: f.self_ty.clone(),
                name: f.name.clone(),
                file_idx,
                file: unit.label.clone(),
                line: f.line,
                body: f.body,
            });
        }
    }

    let mut r = Resolver {
        crates,
        free_fns: BTreeMap::new(),
        typed_fns: BTreeMap::new(),
        methods_by_name: BTreeMap::new(),
        modules: BTreeSet::new(),
        reexports: BTreeMap::new(),
        globs: BTreeMap::new(),
        imports: BTreeMap::new(),
        dep_closure: closure(deps),
        crate_of: fns.iter().map(|f| f.crate_name.clone()).collect(),
    };

    for (id, f) in fns.iter().enumerate() {
        let key_mod = f.module.clone();
        r.modules.insert((f.crate_name.clone(), key_mod.clone()));
        // Register every module prefix too, so `crate::cache::…`
        // resolves even when `cache` has submodules only.
        for k in 0..f.module.len() {
            r.modules
                .insert((f.crate_name.clone(), f.module[..k].to_vec()));
        }
        match &f.self_ty {
            Some(ty) => {
                r.typed_fns
                    .entry((f.crate_name.clone(), ty.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
                r.methods_by_name
                    .entry(f.name.clone())
                    .or_default()
                    .push(id);
            }
            None => {
                r.free_fns
                    .entry((f.crate_name.clone(), key_mod, f.name.clone()))
                    .or_default()
                    .push(id);
            }
        }
    }

    for unit in units {
        for u in &unit.ast.uses {
            let mut module = unit.module.clone();
            module.extend(u.module.iter().cloned());
            let abs = absolutize(&u.path, &unit.crate_name, &module, &r.crates).or_else(|| {
                // 2018 uniform path: a bare head naming a sibling module
                // (`use inner::relay;` at the crate root) is resolved
                // relative to the declaring module.
                let head = u.path.first()?;
                let mut sibling = module.clone();
                sibling.push(head.clone());
                if r.modules.contains(&(unit.crate_name.clone(), sibling)) {
                    let mut segs = module.clone();
                    segs.extend(u.path.iter().cloned());
                    Some(AbsPath {
                        krate: unit.crate_name.clone(),
                        segs,
                    })
                } else {
                    None
                }
            });
            let Some(abs) = abs else {
                continue;
            };
            let scope = (unit.crate_name.clone(), module);
            if u.alias == "*" {
                let mut target = abs;
                target.segs.pop(); // drop the trailing `*`
                r.globs.entry(scope.clone()).or_default().push(target);
                continue;
            }
            if u.is_pub {
                r.reexports.insert(
                    (scope.0.clone(), scope.1.clone(), u.alias.clone()),
                    abs.clone(),
                );
            }
            r.imports
                .entry(scope)
                .or_default()
                .insert(u.alias.clone(), abs);
        }
    }

    let mut edges: BTreeSet<Edge> = BTreeSet::new();
    for (id, f) in fns.iter().enumerate() {
        let unit = &units[f.file_idx];
        let Some((start, end)) = f.body else { continue };
        collect_calls(&mut edges, id, f, unit, start, end, &r);
    }

    CallGraph {
        fns,
        edges: edges.into_iter().collect(),
    }
}

/// Transitive closure of the crate dependency map (each crate's closure
/// includes itself).
fn closure(deps: &BTreeMap<String, BTreeSet<String>>) -> BTreeMap<String, BTreeSet<String>> {
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for name in deps.keys() {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack = vec![name.clone()];
        while let Some(c) = stack.pop() {
            if !seen.insert(c.clone()) {
                continue;
            }
            if let Some(direct) = deps.get(&c) {
                stack.extend(direct.iter().cloned());
            }
        }
        out.insert(name.clone(), seen);
    }
    out
}

/// Scans one fn body for call expressions and records resolved edges.
fn collect_calls(
    edges: &mut BTreeSet<Edge>,
    caller: usize,
    f: &FnNode,
    unit: &FileUnit,
    start: usize,
    end: usize,
    r: &Resolver,
) {
    let sig = &unit.sig;
    let mut j = start;
    while j <= end && j < sig.len() {
        let t = &sig[j];
        if t.kind != TokenKind::Ident {
            j += 1;
            continue;
        }
        let next_open = j < end && sig[j + 1].is_punct('(');
        let next_bang = j < end && sig[j + 1].is_punct('!');
        if next_bang || !next_open {
            j += 1;
            continue;
        }
        // `fn name(` — a nested definition, not a call.
        if j > 0 && sig[j - 1].is_ident("fn") {
            j += 1;
            continue;
        }
        // Method call: `. name (`.
        if j > 0 && sig[j - 1].is_punct('.') {
            let receiver_is_self = j >= 2 && sig[j - 2].is_ident("self");
            for callee in resolve_method(f, &t.text, receiver_is_self, r) {
                edges.insert(Edge {
                    from: caller,
                    to: callee,
                    line: t.line,
                });
            }
            j += 1;
            continue;
        }
        // Path call: walk `seg::seg::name(` backwards from `name`.
        let mut segs = vec![t.text.clone()];
        let mut k = j;
        while k >= 3
            && sig[k - 1].is_punct(':')
            && sig[k - 2].is_punct(':')
            && sig[k - 3].kind == TokenKind::Ident
        {
            segs.insert(0, sig[k - 3].text.clone());
            k -= 3;
        }
        for callee in resolve_path_call(f, &segs, r) {
            edges.insert(Edge {
                from: caller,
                to: callee,
                line: t.line,
            });
        }
        j += 1;
    }
}

/// Resolves `expr.m(…)`: the enclosing impl's method for `self.m(…)`,
/// else every reachable workspace method named `m`.
fn resolve_method(f: &FnNode, name: &str, receiver_is_self: bool, r: &Resolver) -> Vec<usize> {
    if receiver_is_self {
        if let Some(ty) = &f.self_ty {
            let key = (f.crate_name.clone(), ty.clone(), name.to_string());
            if let Some(ids) = r.typed_fns.get(&key) {
                return ids.clone();
            }
        }
    }
    let Some(pool) = r.methods_by_name.get(name) else {
        return Vec::new();
    };
    let reach = r.dep_closure.get(&f.crate_name);
    pool.iter()
        .copied()
        .filter(|&id| {
            // Only methods in crates the caller can actually depend on.
            reach.is_none_or(|set| set.contains(&r.crate_of[id]))
        })
        .collect()
}

/// Resolves a (possibly qualified) path call from inside `f`.
fn resolve_path_call(f: &FnNode, segs: &[String], r: &Resolver) -> Vec<usize> {
    if segs.len() == 1 {
        let name = &segs[0];
        // Same-module free fn.
        let key = (f.crate_name.clone(), f.module.clone(), name.clone());
        if let Some(ids) = r.free_fns.get(&key) {
            return ids.clone();
        }
        // Imported fn (`use crate::helpers::tick;` then `tick()`).
        if let Some(abs) = lookup_import(f, name, r) {
            return resolve_abs(&abs, r, 0);
        }
        // Glob imports of this module.
        if let Some(globs) = r.globs.get(&(f.crate_name.clone(), f.module.clone())) {
            let mut out = Vec::new();
            for g in globs {
                let mut abs = g.clone();
                abs.segs.push(name.clone());
                out.extend(resolve_abs(&abs, r, 0));
            }
            return out;
        }
        return Vec::new();
    }
    let Some(abs) = absolutize_call(segs, f, r) else {
        return Vec::new();
    };
    resolve_abs(&abs, r, 0)
}

/// Looks up `name` in the import map of `f`'s module.
fn lookup_import(f: &FnNode, name: &str, r: &Resolver) -> Option<AbsPath> {
    r.imports
        .get(&(f.crate_name.clone(), f.module.clone()))?
        .get(name)
        .cloned()
}

/// Converts the head of a written call path into an absolute workspace
/// path, using the caller's module for `crate`/`self`/`super`/`Self`,
/// its imports for aliases, and sibling-module names.
fn absolutize_call(segs: &[String], f: &FnNode, r: &Resolver) -> Option<AbsPath> {
    let head = segs[0].as_str();
    if head == "Self" {
        let ty = f.self_ty.clone()?;
        let mut s = vec![ty];
        s.extend(segs[1..].iter().cloned());
        return Some(AbsPath {
            krate: f.crate_name.clone(),
            segs: s,
        });
    }
    if let Some(abs) = lookup_import(f, head, r) {
        let mut s = abs.segs.clone();
        s.extend(segs[1..].iter().cloned());
        return Some(AbsPath {
            krate: abs.krate,
            segs: s,
        });
    }
    if let Some(abs) = absolutize(segs, &f.crate_name, &f.module, &r.crates) {
        return Some(abs);
    }
    // A sibling/child module of the caller's module (2015-style path or
    // same-file `mod` block): `cache::helper(…)`.
    let mut child = f.module.clone();
    child.push(head.to_string());
    if r.modules.contains(&(f.crate_name.clone(), child.clone())) {
        let mut s = f.module.clone();
        s.extend(segs.iter().cloned());
        return Some(AbsPath {
            krate: f.crate_name.clone(),
            segs: s,
        });
    }
    // A type defined in the caller's own crate: `ResultCache::open(…)`.
    if segs.len() >= 2 {
        let key = (
            f.crate_name.clone(),
            head.to_string(),
            segs[segs.len() - 1].clone(),
        );
        if r.typed_fns.contains_key(&key) {
            return Some(AbsPath {
                krate: f.crate_name.clone(),
                segs: segs.to_vec(),
            });
        }
    }
    None
}

/// Converts a written `use`-style path to an absolute workspace path.
/// Returns `None` for external paths (std, vendored crates).
fn absolutize(
    path: &[String],
    krate: &str,
    module: &[String],
    crates: &BTreeSet<String>,
) -> Option<AbsPath> {
    let head = path.first()?.as_str();
    if head == "crate" {
        return Some(AbsPath {
            krate: krate.to_string(),
            segs: path[1..].to_vec(),
        });
    }
    if head == "self" {
        let mut segs = module.to_vec();
        segs.extend(path[1..].iter().cloned());
        return Some(AbsPath {
            krate: krate.to_string(),
            segs,
        });
    }
    if head == "super" {
        let mut up = 0;
        while up < path.len() && path[up] == "super" {
            up += 1;
        }
        let keep = module.len().checked_sub(up)?;
        let mut segs = module[..keep].to_vec();
        segs.extend(path[up..].iter().cloned());
        return Some(AbsPath {
            krate: krate.to_string(),
            segs,
        });
    }
    if let Some(dir) = head.strip_prefix("rsls_") {
        if crates.contains(dir) {
            return Some(AbsPath {
                krate: dir.to_string(),
                segs: path[1..].to_vec(),
            });
        }
    }
    None
}

/// Resolves an absolute path to fn nodes: free fn, then method, then
/// through `pub use` re-exports and glob re-exports (depth-capped so a
/// re-export cycle cannot loop).
fn resolve_abs(abs: &AbsPath, r: &Resolver, depth: usize) -> Vec<usize> {
    if depth > 8 || abs.segs.is_empty() {
        return Vec::new();
    }
    let name = abs.segs[abs.segs.len() - 1].clone();
    let mods = abs.segs[..abs.segs.len() - 1].to_vec();
    if let Some(ids) = r
        .free_fns
        .get(&(abs.krate.clone(), mods.clone(), name.clone()))
    {
        return ids.clone();
    }
    // `module::Type::method` — the segment before the name is a type.
    if !mods.is_empty() {
        let ty = mods[mods.len() - 1].clone();
        if let Some(ids) = r.typed_fns.get(&(abs.krate.clone(), ty, name.clone())) {
            return ids.clone();
        }
    }
    // Re-exports: find the longest module prefix that re-exports the
    // next segment, splice the target, and retry.
    for split in (0..abs.segs.len()).rev() {
        let prefix = abs.segs[..split].to_vec();
        let seg = abs.segs[split].clone();
        if let Some(target) = r.reexports.get(&(abs.krate.clone(), prefix, seg)) {
            let mut spliced = target.clone();
            spliced.segs.extend(abs.segs[split + 1..].iter().cloned());
            let found = resolve_abs(&spliced, r, depth + 1);
            if !found.is_empty() {
                return found;
            }
        }
    }
    // Glob re-exports (`pub use inner::*;`) at any module prefix.
    for split in (0..abs.segs.len()).rev() {
        let prefix = abs.segs[..split].to_vec();
        if let Some(globs) = r.globs.get(&(abs.krate.clone(), prefix)) {
            for g in globs {
                let mut spliced = g.clone();
                spliced.segs.extend(abs.segs[split..].iter().cloned());
                if &spliced == abs {
                    continue;
                }
                let found = resolve_abs(&spliced, r, depth + 1);
                if !found.is_empty() {
                    return found;
                }
            }
        }
    }
    Vec::new()
}
