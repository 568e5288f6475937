//! A lightweight recursive-descent parser over the lexed token stream.
//!
//! This is not a full Rust parser: it recovers exactly the structure the
//! workspace analysis needs — the module tree (inline `mod` blocks plus
//! the file's own path-derived module), `use` declarations with alias
//! resolution (including nested `{…}` groups, `as` renames, globs, and
//! `pub use` re-exports), and every function definition with its
//! enclosing impl/trait type and the token span of its body. Anything
//! else (structs, enums, consts, macros) is skipped with balanced-brace
//! recovery, so an unhandled construct can never desynchronize the
//! item walk.
//!
//! The output feeds [`crate::graph`] (symbol table + call graph) and
//! [`crate::taint`] (transitive determinism analysis), which also scan
//! the significant-token stream and the test-skip mask defined here.

use crate::lexer::{Token, TokenKind};

/// A comment-free token.
#[derive(Debug, Clone)]
pub struct SigTok {
    /// Token classification (comments never appear here).
    pub kind: TokenKind,
    /// Source text of the token.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl SigTok {
    /// True when this token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == word
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// Drops comments.
pub fn significant(tokens: &[Token]) -> Vec<SigTok> {
    tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|t| SigTok {
            kind: t.kind,
            text: t.text.clone(),
            line: t.line,
        })
        .collect()
}

/// Marks token ranges belonging to `#[test]` / `#[cfg(test)]` items
/// (the attribute, any further attributes, and the item through its
/// closing brace or semicolon). Ranges are brace-balanced, so callers
/// can skip them without desynchronizing depth tracking.
pub fn test_skip_mask(sig: &[SigTok]) -> Vec<bool> {
    let mut skip = vec![false; sig.len()];
    let mut i = 0;
    while i < sig.len() {
        if sig[i].is_punct('#') && i + 1 < sig.len() && sig[i + 1].is_punct('[') {
            let attr_end = match matching_bracket(sig, i + 1) {
                Some(e) => e,
                None => break,
            };
            let is_test_attr = sig[i..=attr_end].iter().any(|t| t.is_ident("test"));
            if is_test_attr {
                let item_end = skip_item(sig, attr_end + 1);
                for s in skip.iter_mut().take(item_end + 1).skip(i) {
                    *s = true;
                }
                i = item_end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    skip
}

/// Index of the `]` matching the `[` at `open`.
pub fn matching_bracket(sig: &[SigTok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in sig.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Returns the index of the token ending the item starting at `from`:
/// a `;` before any brace opens, or the `}` matching the first `{`.
/// Leading additional attributes are stepped over.
pub fn skip_item(sig: &[SigTok], from: usize) -> usize {
    let mut i = from;
    // Step over further attributes on the same item.
    while i + 1 < sig.len() && sig[i].is_punct('#') && sig[i + 1].is_punct('[') {
        match matching_bracket(sig, i + 1) {
            Some(e) => i = e + 1,
            None => return sig.len().saturating_sub(1),
        }
    }
    let mut depth = 0usize;
    while i < sig.len() {
        let t = &sig[i];
        if t.is_punct(';') && depth == 0 {
            return i;
        }
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    sig.len().saturating_sub(1)
}

/// One `use` declaration, flattened: a nested group produces one
/// [`UseDecl`] per leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// Inline-module path of the scope the `use` appears in (relative
    /// to the file's own module; usually empty).
    pub module: Vec<String>,
    /// Full path segments as written (`["std", "collections", "HashMap"]`).
    /// A glob import ends with `"*"`.
    pub path: Vec<String>,
    /// The name the import binds in this scope: the `as` alias when
    /// present, else the last path segment. `"*"` for glob imports.
    pub alias: String,
    /// True for `pub use` (a re-export other modules can resolve through).
    pub is_pub: bool,
    /// 1-based line of the leaf (the `use` keyword's line for groups).
    pub line: u32,
}

/// One function definition (free fn, inherent/trait method, or trait
/// default method) with the token span of its body.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Inline-module path within the file (the file's own module path
    /// is prepended by the workspace walker).
    pub module: Vec<String>,
    /// Enclosing `impl`/`trait` type name, if this is a method.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Significant-token index range `[start, end]` of the body,
    /// including both braces. `None` for bodyless trait signatures.
    pub body: Option<(usize, usize)>,
    /// True when the definition sits inside `#[cfg(test)]` / `#[test]`.
    pub in_test: bool,
    /// True for `pub` fns (any restriction form counts as pub here).
    pub is_pub: bool,
}

/// The parsed structure of one source file.
#[derive(Debug, Clone, Default)]
pub struct FileAst {
    /// All `use` declarations, flattened.
    pub uses: Vec<UseDecl>,
    /// All function definitions.
    pub fns: Vec<FnDef>,
}

/// Parses the significant-token stream of one file. `skip` is the
/// test-skip mask from [`test_skip_mask`]; items inside it are still
/// parsed (so fixtures can assert on them) but flagged `in_test`.
pub fn parse_file(sig: &[SigTok], skip: &[bool]) -> FileAst {
    let mut p = Parser {
        sig,
        skip,
        ast: FileAst::default(),
    };
    p.items(0, sig.len(), &mut Vec::new(), None);
    p.ast
}

/// What kind of scope a brace at item level opened.
struct Parser<'a> {
    sig: &'a [SigTok],
    skip: &'a [bool],
    ast: FileAst,
}

impl Parser<'_> {
    /// Parses items in `sig[i..end)` with the given inline-module path
    /// and enclosing impl/trait type, recursing into `mod`/`impl`/`trait`
    /// blocks and recording `fn` definitions.
    fn items(&mut self, mut i: usize, end: usize, module: &mut Vec<String>, self_ty: Option<&str>) {
        let mut is_pub = false;
        while i < end {
            let t = &self.sig[i];
            if t.is_punct('#') && i + 1 < end && self.sig[i + 1].is_punct('[') {
                // Attribute: step over it without disturbing `is_pub`.
                i = matching_bracket(self.sig, i + 1).map_or(end, |e| e + 1);
                continue;
            }
            if t.is_ident("pub") {
                is_pub = true;
                i += 1;
                // Step over a `pub(crate)` / `pub(in path)` restriction.
                if i < end && self.sig[i].is_punct('(') {
                    i = matching_paren(self.sig, i).map_or(end, |e| e + 1);
                }
                continue;
            }
            if t.is_ident("use") {
                i = self.use_decl(i, end, module, is_pub);
            } else if t.is_ident("mod") {
                i = self.mod_decl(i, end, module);
            } else if t.is_ident("fn") {
                i = self.fn_def(i, end, module, self_ty, is_pub);
            } else if t.is_ident("impl") || t.is_ident("trait") {
                i = self.impl_or_trait(i, end, module);
            } else if t.is_punct('{') {
                // An unclassified brace (struct/enum body, const block):
                // skip it wholesale so its contents can't masquerade as
                // items.
                i = matching_brace(self.sig, i).map_or(end, |e| e + 1);
            } else {
                i += 1;
            }
            is_pub = false;
        }
    }

    /// `use path::{a, b as c};` — flattens the tree into leaf decls.
    fn use_decl(&mut self, i: usize, end: usize, module: &[String], is_pub: bool) -> usize {
        let line = self.sig[i].line;
        let semi = (i..end)
            .find(|&j| self.sig[j].is_punct(';'))
            .unwrap_or(end.saturating_sub(1));
        let mut leaves = Vec::new();
        self.use_tree(i + 1, semi, &mut Vec::new(), &mut leaves);
        for (path, alias) in leaves {
            if path.is_empty() {
                continue;
            }
            self.ast.uses.push(UseDecl {
                module: module.to_vec(),
                path,
                alias,
                is_pub,
                line,
            });
        }
        semi + 1
    }

    /// Parses one use-tree level in `sig[i..end)` under `prefix`,
    /// appending `(full_path, alias)` leaves.
    fn use_tree(
        &mut self,
        mut i: usize,
        end: usize,
        prefix: &mut Vec<String>,
        out: &mut Vec<(Vec<String>, String)>,
    ) {
        let base = prefix.len();
        while i < end {
            let t = &self.sig[i];
            if t.kind == TokenKind::Ident && t.text != "as" {
                prefix.push(t.text.clone());
                i += 1;
            } else if t.is_punct(':') {
                i += 1; // `::` separators
            } else if t.is_punct('*') {
                prefix.push("*".to_string());
                out.push((prefix.clone(), "*".to_string()));
                prefix.truncate(base);
                i += 1;
            } else if t.is_ident("as") {
                if let Some(alias) = self.sig.get(i + 1) {
                    out.push((prefix.clone(), alias.text.clone()));
                }
                prefix.truncate(base);
                i += 2;
            } else if t.is_punct('{') {
                let close = matching_brace(self.sig, i).unwrap_or(end);
                // Split the group on top-level commas, recursing per arm.
                let mut arm_start = i + 1;
                let mut depth = 0usize;
                for j in i + 1..close {
                    if self.sig[j].is_punct('{') {
                        depth += 1;
                    } else if self.sig[j].is_punct('}') {
                        depth -= 1;
                    } else if self.sig[j].is_punct(',') && depth == 0 {
                        self.use_arm(arm_start, j, prefix, out);
                        arm_start = j + 1;
                    }
                }
                self.use_arm(arm_start, close, prefix, out);
                prefix.truncate(base);
                i = close + 1;
            } else if t.is_punct(',') {
                self.flush_leaf(prefix, base, out);
                i += 1;
            } else {
                i += 1;
            }
        }
        self.flush_leaf(prefix, base, out);
    }

    /// One comma-separated arm of a `{…}` group (recursive use-tree).
    fn use_arm(
        &mut self,
        start: usize,
        end: usize,
        prefix: &[String],
        out: &mut Vec<(Vec<String>, String)>,
    ) {
        if start >= end {
            return;
        }
        // `self` inside a group imports the prefix itself.
        if end - start == 1 && self.sig[start].is_ident("self") {
            if let Some(last) = prefix.last().cloned() {
                out.push((prefix.to_vec(), last));
            }
            return;
        }
        let mut sub = prefix.to_vec();
        self.use_tree(start, end, &mut sub, out);
    }

    /// Emits a pending simple leaf (`use a::b::C`) if one accumulated.
    fn flush_leaf(
        &mut self,
        prefix: &mut Vec<String>,
        base: usize,
        out: &mut Vec<(Vec<String>, String)>,
    ) {
        if prefix.len() > base {
            let alias = prefix.last().cloned().unwrap_or_default();
            out.push((prefix.clone(), alias));
            prefix.truncate(base);
        }
    }

    /// `mod name { … }` recurses with the extended module path;
    /// `mod name;` is inert (the file walker maps file modules).
    fn mod_decl(&mut self, i: usize, end: usize, module: &mut Vec<String>) -> usize {
        let Some(name) = self.sig.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            return i + 1;
        };
        let name = name.text.clone();
        let mut j = i + 2;
        while j < end && !self.sig[j].is_punct('{') && !self.sig[j].is_punct(';') {
            j += 1;
        }
        if j >= end || self.sig[j].is_punct(';') {
            return j + 1;
        }
        let close = matching_brace(self.sig, j).unwrap_or(end);
        module.push(name);
        self.items(j + 1, close, module, None);
        module.pop();
        close + 1
    }

    /// `fn name … { body }` (or `;` for bodyless trait signatures).
    fn fn_def(
        &mut self,
        i: usize,
        end: usize,
        module: &[String],
        self_ty: Option<&str>,
        is_pub: bool,
    ) -> usize {
        let Some(name_tok) = self.sig.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            // `fn(…)` pointer type in an item position — not a definition.
            return i + 1;
        };
        let name = name_tok.text.clone();
        let line = self.sig[i].line;
        let mut j = i + 2;
        while j < end && !self.sig[j].is_punct('{') && !self.sig[j].is_punct(';') {
            // Closures in const-generic defaults aside, a fn signature
            // contains no braces, so the first `{` starts the body.
            j += 1;
        }
        let body = if j < end && self.sig[j].is_punct('{') {
            let close = matching_brace(self.sig, j).unwrap_or(end.saturating_sub(1));
            Some((j, close))
        } else {
            None
        };
        self.ast.fns.push(FnDef {
            module: module.to_vec(),
            self_ty: self_ty.map(str::to_string),
            name,
            line,
            body,
            in_test: self.skip.get(i).copied().unwrap_or(false),
            is_pub,
        });
        body.map_or(j + 1, |(_, close)| close + 1)
    }

    /// `impl [<…>] Type { … }`, `impl Trait for Type { … }`, or
    /// `trait Name { … }` — recurses with the self type set.
    fn impl_or_trait(&mut self, i: usize, end: usize, module: &mut Vec<String>) -> usize {
        let is_trait = self.sig[i].is_ident("trait");
        let mut j = i + 1;
        // Skip generic parameters `<…>` (balanced; `->` never appears
        // in an impl/trait header before the brace).
        if j < end && self.sig[j].is_punct('<') {
            let mut depth = 0usize;
            while j < end {
                if self.sig[j].is_punct('<') {
                    depth += 1;
                } else if self.sig[j].is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Collect the head up to `{` (or `;` for `trait X;`-style edge),
        // remembering the last ident before any `<`/`{` both before and
        // after a `for` keyword.
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut angle = 0usize;
        while j < end && !self.sig[j].is_punct('{') && !self.sig[j].is_punct(';') {
            let t = &self.sig[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle = angle.saturating_sub(1);
            } else if angle == 0 && t.is_ident("for") {
                saw_for = true;
            } else if angle == 0 && t.is_ident("where") {
                break;
            } else if angle == 0 && t.kind == TokenKind::Ident {
                if saw_for {
                    after_for = Some(t.text.clone());
                } else {
                    last_ident = Some(t.text.clone());
                }
            }
            j += 1;
        }
        while j < end && !self.sig[j].is_punct('{') && !self.sig[j].is_punct(';') {
            j += 1;
        }
        if j >= end || self.sig[j].is_punct(';') {
            return j + 1;
        }
        let self_ty = if is_trait {
            // `trait Name` — the name directly follows the keyword.
            self.sig.get(i + 1).map(|t| t.text.clone())
        } else {
            after_for.or(last_ident)
        };
        let close = matching_brace(self.sig, j).unwrap_or(end);
        self.items(j + 1, close, module, self_ty.as_deref());
        close + 1
    }
}

/// Index of the `}` matching the `{` at `open`.
pub fn matching_brace(sig: &[SigTok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in sig.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the `)` matching the `(` at `open`.
pub fn matching_paren(sig: &[SigTok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in sig.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}
