//! Lexer and pragma-parser edge cases: the constructs where a naive
//! regex-based scanner would misfire, and which the lint therefore must
//! get exactly right — raw strings, nested block comments, `//` inside
//! string literals, char-vs-lifetime, and strict pragma parsing.

use rsls_lint::lexer::{lex, TokenKind};
use rsls_lint::pragma::parse_pragmas;
use rsls_lint::Rule;

mod common;

fn kinds(src: &str) -> Vec<(TokenKind, String)> {
    lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
}

/// Lines where `src`, analyzed as `crates/campaign/src/lib.rs`, makes
/// an unregistered `std::fs` call.
fn io_lines(src: &str) -> Vec<u32> {
    common::findings(&[("crates/campaign/src/lib.rs", src)])
        .into_iter()
        .map(|(_, _, line)| line)
        .collect()
}

#[test]
fn raw_string_contents_are_not_code() {
    // `fs::read` and `//` inside a raw string must stay inside the Str
    // token; the real `fs::read` on line 3 must still be seen.
    let src =
        "fn f() {\n    let s = r#\"fs::read(p) // not code \"quoted\" \"#;\n    let _ = fs::read(s);\n}\n";
    let toks = lex(src);
    let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
    assert_eq!(strs.len(), 1);
    assert!(strs[0].text.starts_with("r#\"") && strs[0].text.ends_with("\"#"));
    assert_eq!(io_lines(src), vec![3]);
}

#[test]
fn raw_string_hash_arity_matters() {
    // A `"#` inside an `r##"…"##` string does not terminate it.
    let src = "let s = r##\"contains \"# inside\"##;";
    let toks = kinds(src);
    let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Str).collect();
    assert_eq!(strs.len(), 1);
    assert_eq!(strs[0].1, "r##\"contains \"# inside\"##");
}

#[test]
fn nested_block_comments() {
    let src = "/* outer /* inner fs::read(p) */ still comment */ fn f() {\n    fs::read(p);\n}\n";
    let toks = lex(src);
    assert_eq!(toks[0].kind, TokenKind::BlockComment);
    assert!(toks[0].text.ends_with("still comment */"));
    assert!(toks.iter().any(|t| t.is_ident("fn")));
    assert_eq!(io_lines(src), vec![2]);
}

#[test]
fn multiline_block_comment_tracks_lines() {
    let src = "/* line1\nline2\nline3 */\nfn f() { fs::read(p); }\n";
    assert_eq!(io_lines(src), vec![4]);
}

#[test]
fn slashes_inside_string_are_not_a_comment() {
    // The `//` in the URL must not eat the rest of the line.
    let src = "fn f() { let url = \"https://example.com\"; fs::read(url); }\n";
    assert_eq!(io_lines(src), vec![1]);
    let toks = kinds(src);
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokenKind::Str && t.contains("https://")));
    assert!(!toks.iter().any(|(k, _)| *k == TokenKind::LineComment));
}

#[test]
fn escaped_quotes_do_not_end_strings() {
    let src = "fn f() { let s = \"he said \\\"hi\\\" once\"; fs::read(s); }\n";
    assert_eq!(io_lines(src), vec![1]);
}

#[test]
fn multiline_string_tracks_lines() {
    let src = "fn f() {\n    let s = \"line one\nline two\";\n    fs::read(s);\n}\n";
    assert_eq!(io_lines(src), vec![4]);
}

#[test]
fn char_literal_vs_lifetime() {
    let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
    assert!(toks.contains(&(TokenKind::Lifetime, "'a".to_string())));
    assert!(toks.contains(&(TokenKind::Char, "'x'".to_string())));

    // Escaped char literals, including a quote char.
    let toks = kinds(r"let a = '\''; let b = '\n'; let c = '\u{1F600}';");
    let chars: Vec<_> = toks
        .iter()
        .filter(|(k, _)| *k == TokenKind::Char)
        .map(|(_, t)| t.as_str())
        .collect();
    assert_eq!(chars, vec![r"'\''", r"'\n'", r"'\u{1F600}'"]);

    // `'static` in a type position is a lifetime, not an unterminated char.
    let toks = kinds("fn f() -> &'static str { \"s\" }");
    assert!(toks.contains(&(TokenKind::Lifetime, "'static".to_string())));
}

#[test]
fn byte_and_raw_identifier_forms() {
    let toks = kinds(r##"let a = b"bytes"; let b = br#"raw bytes"#; let c = b'x'; let d = r#fn;"##);
    assert!(toks.contains(&(TokenKind::Str, "b\"bytes\"".to_string())));
    assert!(toks.contains(&(TokenKind::Str, "br#\"raw bytes\"#".to_string())));
    assert!(toks.contains(&(TokenKind::Char, "b'x'".to_string())));
    assert!(toks.contains(&(TokenKind::Ident, "r#fn".to_string())));
}

#[test]
fn numbers_do_not_swallow_range_dots() {
    let toks = kinds("for i in 0..10 { let x = 1.5e-3_f64; }");
    // `0..10` must lex as Number, `.`, `.`, Number — not `0.` `.10`.
    let range: Vec<_> = toks.iter().skip(3).take(4).cloned().collect();
    assert_eq!(
        range,
        vec![
            (TokenKind::Number, "0".to_string()),
            (TokenKind::Punct, ".".to_string()),
            (TokenKind::Punct, ".".to_string()),
            (TokenKind::Number, "10".to_string()),
        ]
    );
    // Signed exponents split at `-` (fine for linting: the pieces stay
    // Number/Punct, never merged into identifiers).
    assert!(toks.contains(&(TokenKind::Number, "1.5e".to_string())));
    assert!(toks.contains(&(TokenKind::Number, "3_f64".to_string())));
}

#[test]
fn pragma_parses_rules_and_reason() {
    let toks = lex(
        "// rsls-lint: allow(unguarded-io, transitive-nondet) -- timing is display-only\nfoo();\n",
    );
    let (pragmas, violations) = parse_pragmas(&toks, "t.rs");
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(pragmas.len(), 1);
    assert_eq!(
        pragmas[0].rules,
        vec![Rule::UnguardedIo, Rule::TransitiveNondet]
    );
    assert_eq!(pragmas[0].reason, "timing is display-only");
    assert_eq!(pragmas[0].line, 1);
    // Scope: own line and the next line only.
    assert!(pragmas[0].suppresses(Rule::UnguardedIo, 1));
    assert!(pragmas[0].suppresses(Rule::UnguardedIo, 2));
    assert!(!pragmas[0].suppresses(Rule::UnguardedIo, 3));
    assert!(!pragmas[0].suppresses(Rule::Pragma, 2));
}

#[test]
fn pragma_unknown_rule_is_an_error() {
    let toks = lex("// rsls-lint: allow(no-such-rule) -- whatever\n");
    let (pragmas, violations) = parse_pragmas(&toks, "t.rs");
    assert!(pragmas.is_empty());
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].rule, Rule::Pragma);
    assert!(violations[0]
        .message
        .contains("unknown rule `no-such-rule`"));
    // The diagnostic lists the known rules so the fix is obvious.
    assert!(violations[0].message.contains("unguarded-io"));
    // The per-file rules are clippy lints now: their old ids are unknown.
    for retired in [
        "wall-clock",
        "default-hasher",
        "unordered-parallel",
        "no-unwrap",
        "missing-docs",
    ] {
        assert!(Rule::from_id(retired).is_none(), "{retired}");
    }
}

#[test]
fn pragma_missing_reason_is_an_error() {
    for src in [
        "// rsls-lint: allow(unguarded-io)\n",
        "// rsls-lint: allow(unguarded-io) --\n",
        "// rsls-lint: allow() -- empty list\n",
        "// rsls-lint: deny(unguarded-io) -- wrong verb\n",
    ] {
        let (pragmas, violations) = parse_pragmas(&lex(src), "t.rs");
        assert!(pragmas.is_empty(), "{src}");
        assert_eq!(violations.len(), 1, "{src}");
        assert_eq!(violations[0].rule, Rule::Pragma, "{src}");
    }
}

#[test]
fn pragma_in_doc_comment_is_inert() {
    // Documentation may quote pragma syntax without activating it, and
    // without it being a malformed-pragma error either.
    for src in [
        "/// rsls-lint: allow(bogus-rule) -- doc example\n",
        "//! rsls-lint: allow(unguarded-io)\n",
        "/* rsls-lint: allow(bogus-rule) -- block comments inert */\n",
    ] {
        let (pragmas, violations) = parse_pragmas(&lex(src), "t.rs");
        assert!(pragmas.is_empty(), "{src}");
        assert!(violations.is_empty(), "{src}");
    }
}

#[test]
fn pragma_meta_rule_is_not_allowable() {
    // `pragma` itself cannot be named in an allow-list: a pragma cannot
    // suppress pragma errors.
    assert!(Rule::from_id("pragma").is_none());
    let (pragmas, violations) =
        parse_pragmas(&lex("// rsls-lint: allow(pragma) -- nice try\n"), "t.rs");
    assert!(pragmas.is_empty());
    assert_eq!(violations.len(), 1);
}
