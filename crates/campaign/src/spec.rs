//! Canonical unit specifications and their content addresses.

use rsls_core::{Fnv1a, RunConfig};

/// Version of the run engine baked into every content address.
///
/// Bump this whenever the *meaning* of a [`RunConfig`] changes — a new
/// cost term in the driver, a recalibrated power model default, a solver
/// change — so stale cached reports from older engine semantics become
/// misses instead of silently wrong hits.
pub const ENGINE_VERSION: u32 = 3;

/// One independently executable experiment unit: everything needed to
/// reproduce a single [`rsls_core::run`] call, in canonical form.
///
/// The spec is the cache key: [`UnitSpec::content_hash`] digests the
/// serialized spec, so any field change — scheme, DVFS policy, fault
/// schedule (including its seed), rank count, tolerance, scale, matrix
/// identity, or engine version — yields a different address. The matrix
/// itself is represented by its name *and* a fingerprint of its numeric
/// content, so two experiments that reuse a tag for different systems
/// (or regenerate a matrix differently) cannot collide.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UnitSpec {
    /// Owning experiment (e.g. `"fig5"`).
    pub experiment: String,
    /// Unit label, unique within the experiment (e.g. `"crystm02/LI-DVFS"`).
    pub unit: String,
    /// Matrix name (e.g. `"wathen100"`).
    pub matrix: String,
    /// FNV-1a fingerprint of the matrix arrays and right-hand side
    /// (see [`matrix_fingerprint`]).
    pub matrix_fingerprint: u64,
    /// Problem-scale label the campaign ran at (`"quick"` / `"full"`).
    pub scale: String,
    /// Engine semantics version ([`ENGINE_VERSION`]).
    pub engine_version: u32,
    /// The full driver configuration, including the fault schedule and
    /// its seed — per-unit seeding is deterministic because the seed is
    /// part of the spec, not of execution order.
    pub config: RunConfig,
}

impl UnitSpec {
    /// Stable content address of this spec: SHA-256 of its canonical
    /// JSON serialization, as lowercase hex.
    pub fn content_hash(&self) -> String {
        let json = serde_json::Writer::compact().render(self);
        rsls_core::sha256_hex(json.as_bytes())
    }

    /// `experiment/unit`, for journals and progress reporting.
    pub fn qualified_name(&self) -> String {
        format!("{}/{}", self.experiment, self.unit)
    }
}

/// Fingerprints a CSR system `(A, b)` by folding its dimensions, sparsity
/// structure, and values (as IEEE-754 bit patterns) into an FNV-1a digest.
///
/// This is a cheap integrity key, not a cryptographic one: it guards the
/// cache against *accidental* reuse of a matrix tag for different data.
pub fn matrix_fingerprint(
    nrows: usize,
    ncols: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    b: &[f64],
) -> u64 {
    let mut h = Fnv1a::new();
    h.update_u64(nrows as u64);
    h.update_u64(ncols as u64);
    for &p in row_ptr {
        h.update_u64(p as u64);
    }
    for &c in col_idx {
        h.update_u64(c as u64);
    }
    for &v in values {
        h.update_f64(v);
    }
    h.update_u64(b.len() as u64);
    for &v in b {
        h.update_f64(v);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsls_core::Scheme;

    fn spec() -> UnitSpec {
        UnitSpec {
            experiment: "fig5".into(),
            unit: "crystm02/FF".into(),
            matrix: "crystm02".into(),
            matrix_fingerprint: 0xdead_beef,
            scale: "quick".into(),
            engine_version: ENGINE_VERSION,
            config: RunConfig::new(Scheme::FaultFree, 8),
        }
    }

    #[test]
    fn hash_is_stable_across_calls() {
        assert_eq!(spec().content_hash(), spec().content_hash());
        assert_eq!(spec().content_hash().len(), 64);
    }

    #[test]
    fn hash_depends_on_every_identity_field() {
        let base = spec().content_hash();
        let mut s = spec();
        s.experiment = "fig6".into();
        assert_ne!(s.content_hash(), base);
        let mut s = spec();
        s.unit = "crystm02/CR-D".into();
        assert_ne!(s.content_hash(), base);
        let mut s = spec();
        s.matrix_fingerprint ^= 1;
        assert_ne!(s.content_hash(), base);
        let mut s = spec();
        s.scale = "full".into();
        assert_ne!(s.content_hash(), base);
        let mut s = spec();
        s.engine_version += 1;
        assert_ne!(s.content_hash(), base);
        let mut s = spec();
        s.config.num_ranks = 16;
        assert_ne!(s.content_hash(), base);
        let mut s = spec();
        s.config.tolerance = 1e-10;
        assert_ne!(s.content_hash(), base);
    }

    #[test]
    fn fingerprint_sees_structure_and_values() {
        let base = matrix_fingerprint(2, 2, &[0, 1, 2], &[0, 1], &[1.0, 2.0], &[0.5, 0.5]);
        assert_ne!(
            base,
            matrix_fingerprint(2, 2, &[0, 1, 2], &[0, 1], &[1.0, 2.5], &[0.5, 0.5])
        );
        assert_ne!(
            base,
            matrix_fingerprint(2, 2, &[0, 1, 2], &[1, 1], &[1.0, 2.0], &[0.5, 0.5])
        );
        assert_ne!(
            base,
            matrix_fingerprint(2, 2, &[0, 1, 2], &[0, 1], &[1.0, 2.0], &[0.5, 0.25])
        );
    }
}
