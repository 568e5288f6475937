//! The rule catalog.
//!
//! `rsls-lint` checks only what needs the workspace call graph (see
//! `LINTING.md` for the full catalog and rationale):
//!
//! | id | guards against |
//! |----|----------------|
//! | `transitive-nondet` | a deterministic root *reaching* a nondeterminism source through calls (see [`crate::taint`]) |
//! | `unguarded-io` | `std::fs`/`std::net` outside registered chaos sites (see [`crate::taint`]) |
//!
//! plus the meta-rule `pragma` (malformed or unknown suppressions),
//! which can never itself be suppressed. The per-file rules R1–R5
//! (wall clock, default hasher, ad-hoc threads, unwrap, docs) are
//! rustc/clippy lints configured by the workspace `clippy.toml` and
//! each library's `lib.rs`.

/// A lint rule. `Pragma` is the meta-rule for malformed suppressions;
/// it is reported like any other but cannot be allowed away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R6: no deterministic root may transitively reach a
    /// nondeterminism source through the workspace call graph.
    TransitiveNondet,
    /// R7: no `std::fs`/`std::net` in the I/O-scoped crates outside a
    /// manifest-registered chaos injection site.
    UnguardedIo,
    /// Meta: a pragma that does not parse or names an unknown rule.
    Pragma,
}

impl Rule {
    /// The suppressible rules, in R6–R7 order.
    pub fn catalog() -> [Rule; 2] {
        [Rule::TransitiveNondet, Rule::UnguardedIo]
    }

    /// Stable kebab-case identifier (used in pragmas and JSON output).
    pub fn id(self) -> &'static str {
        match self {
            Rule::TransitiveNondet => "transitive-nondet",
            Rule::UnguardedIo => "unguarded-io",
            Rule::Pragma => "pragma",
        }
    }

    /// One-line description (used by the SARIF rule metadata).
    pub fn describe(self) -> &'static str {
        match self {
            Rule::TransitiveNondet => {
                "deterministic root transitively reaches a nondeterminism source"
            }
            Rule::UnguardedIo => "std::fs/std::net outside a registered chaos injection site",
            Rule::Pragma => "malformed or unknown suppression pragma",
        }
    }

    /// Parses a rule id as used in `allow(...)` lists. The meta-rule
    /// `pragma` is deliberately not allowable.
    pub fn from_id(name: &str) -> Option<Rule> {
        Rule::catalog().into_iter().find(|r| r.id() == name)
    }
}
