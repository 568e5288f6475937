//! R5 missing-docs: rustc's own `missing_docs`.

pub fn undocumented() {} // line 3

/// Documented: not flagged.
pub fn documented() {
    restricted_needs_no_docs();
}

/// Documented struct with one undocumented public field.
pub struct Mixed {
    pub naked: u32, // line 12
    /// Documented field: not flagged.
    pub covered: u32,
}

pub(crate) fn restricted_needs_no_docs() {}

pub use std::time::Duration;
