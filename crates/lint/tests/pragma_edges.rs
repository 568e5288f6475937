//! Pragma scoping edge cases: a pragma on the very last line of a file
//! (no trailing newline), CRLF line endings, and a malformed pragma on
//! the last line. In every case a pragma must suppress exactly its own
//! line plus the next line — nothing more, nothing less. Each source is
//! analyzed as `crates/campaign/src/lib.rs`, where an unregistered
//! `std::fs` call fires `unguarded-io`.

mod common;

fn ids(src: &str) -> Vec<(&'static str, u32)> {
    common::findings(&[("crates/campaign/src/lib.rs", src)])
        .into_iter()
        .map(|(rule, _, line)| (rule, line))
        .collect()
}

#[test]
fn last_line_pragma_without_trailing_newline_suppresses_its_own_line() {
    // The file ends mid-comment: no `\n` after the pragma.
    let src = "fn f() -> usize {\n    std::fs::read(\"x\").map_or(0, |b| b.len()) } // rsls-lint: allow(unguarded-io) -- edge-case test";
    assert!(!src.ends_with('\n'));
    assert_eq!(ids(src), vec![]);
}

#[test]
fn last_line_pragma_does_not_reach_backwards() {
    // Violation on line 2, pragma alone on line 3 (the last line):
    // a pragma covers its own line and the NEXT one, never earlier lines.
    let src = "fn f() -> usize {\n    std::fs::read(\"x\").map_or(0, |b| b.len())\n} // rsls-lint: allow(unguarded-io) -- must not reach line 2";
    assert_eq!(ids(src), vec![("unguarded-io", 2)]);
}

#[test]
fn crlf_pragma_suppresses_exactly_own_and_next_line() {
    // Whole file uses \r\n endings. Pragma on line 2 must suppress the
    // violation on line 3 and NOT the one on line 4, and the \r before
    // the line break must not corrupt the parsed reason.
    let src = "fn f() -> usize {\r\n    // rsls-lint: allow(unguarded-io) -- crlf edge-case test\r\n    let a = std::fs::read(\"a\").map_or(0, |b| b.len());\r\n    let b = std::fs::read(\"b\").map_or(0, |b| b.len());\r\n    a + b\r\n}\r\n";
    assert_eq!(ids(src), vec![("unguarded-io", 4)]);
}

#[test]
fn crlf_trailing_pragma_reason_survives_the_carriage_return() {
    // Trailing pragma on the violating CRLF line: same-line suppression,
    // and the reason must parse as non-empty despite the trailing \r.
    let src = "fn f() -> usize {\r\n    let a = std::fs::read(\"a\").map_or(0, |b| b.len()); // rsls-lint: allow(unguarded-io) -- crlf reason\r\n    a\r\n}\r\n";
    assert_eq!(ids(src), vec![]);
}

#[test]
fn malformed_pragma_on_last_line_is_reported_not_ignored() {
    // Unknown rule name, sitting on the unterminated last line: it must
    // surface as a `pragma` violation at that line, and the I/O hit it
    // failed to suppress must survive.
    let src = "fn f() -> usize {\n    std::fs::read(\"x\").map_or(0, |b| b.len()) } // rsls-lint: allow(unguardedio) -- typo'd rule id";
    let got = ids(src);
    assert!(got.contains(&("pragma", 2)), "{got:?}");
    assert!(got.contains(&("unguarded-io", 2)), "{got:?}");
    assert_eq!(got.len(), 2, "{got:?}");
}
