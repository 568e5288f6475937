//! Generator golden: the quick-scale campaign fingerprint of every
//! `SUITE` operator, pinned.
//!
//! A store's recipe memo vouches for these fingerprints under the
//! recipe text, which includes `GENERATOR_VERSION`. A change that moves
//! any of them — a generator, a `SUITE` row, the right-hand side — must
//! bump `GENERATOR_VERSION`, or warm processes would keep filing units
//! under the old operators' fingerprints. This test is the reminder,
//! the same discipline `spec_hash_golden.rs` applies to spec bytes.

use rsls_campaign::matrix_fingerprint;
use rsls_experiments::artifacts::workload_uncached;
use rsls_experiments::{Scale, GENERATOR_VERSION, SUITE};

/// The generator version [`GOLDEN`] was taken at.
const GOLDEN_VERSION: u32 = 1;

/// `(name, fingerprint)` at quick scale, in `SUITE` order.
const GOLDEN: [(&str, u64); 14] = [
    ("bcsstk06", 0x9b4fa139536fd37b),
    ("msc01050", 0xf04c35a7fbf65d41),
    ("ex10hs", 0x1c59c893ed85e622),
    ("bcsstk16", 0x28b3cf7093a7dcb7),
    ("ex15", 0x6b4566125d2f765a),
    ("Kuu", 0x7f8675cba9c2f168),
    ("t2dahe", 0xc59c70092ee7a9e1),
    ("crystm02", 0x7c38957fd05a1da7),
    ("wathen100", 0xb7fb2b54b555cf2e),
    ("cvxbqp1", 0x1d29f40e7e4b6954),
    ("Andrews", 0x44721439592d9907),
    ("nd24k", 0xfe6e5d2b647c2a64),
    ("x104", 0x4559bf104b4209a2),
    ("5-point stencil", 0xfa3755c518e4aa39),
];

#[test]
fn quick_suite_fingerprints_are_pinned_to_the_generator_version() {
    assert!(
        std::env::var_os("RSLS_MATRIX_DIR").is_none(),
        "the golden covers the generated analogs; unset RSLS_MATRIX_DIR"
    );
    let actual: Vec<(&str, u64)> = SUITE
        .iter()
        .map(|spec| {
            let (a, b) = workload_uncached(spec.name, Scale::Quick);
            let fp = matrix_fingerprint(
                a.nrows(),
                a.ncols(),
                a.row_ptr(),
                a.col_idx(),
                a.values(),
                &b,
            );
            (spec.name, fp)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, fp)| format!("    ({name:?}, 0x{fp:016x}),\n"))
        .collect();
    assert_eq!(
        GENERATOR_VERSION, GOLDEN_VERSION,
        "GENERATOR_VERSION moved: set GOLDEN_VERSION to it and pin these fingerprints:\n{table}"
    );
    assert!(
        actual == GOLDEN,
        "a suite operator changed at generator version {GENERATOR_VERSION}. Bump \
         GENERATOR_VERSION in crates/experiments/src/suite.rs, then pin GOLDEN_VERSION \
         and these fingerprints here:\n{table}"
    );
}
