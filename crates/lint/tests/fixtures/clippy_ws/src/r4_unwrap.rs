//! R4 no-unwrap: a library propagates errors instead of panicking.

/// Takes every shortcut.
pub fn takes_shortcuts(v: Option<u32>, r: Result<u32, String>) -> u32 {
    let a = v.unwrap(); // line 5
    let b = r.expect("should not fail"); // line 6
    if a + b == 0 {
        panic!("zero"); // line 8
    }
    a + b
}

/// Near-miss: `unwrap_or` cannot panic.
pub fn not_flagged(v: Option<u32>) -> u32 {
    v.unwrap_or(0)
}
