//! A lightweight Rust lexer, sufficient for the call-graph analysis.
//!
//! This is not a full Rust tokenizer: it produces a flat token stream
//! with line numbers and classifies just enough structure for the
//! parser and the R6/R7 scans — identifiers, punctuation, literals, and
//! comments. What it *must* get exactly right (and has edge-case tests
//! for) is where tokens **end**: an `fs::read` inside a string literal,
//! a `//` inside a URL string, or an identifier inside a nested block
//! comment must never leak into the significant-token stream.
//!
//! Handled: line comments (incl. `///` and `//!` doc forms), nested
//! block comments (`/* /* */ */`), string literals with escapes, raw
//! strings with any hash arity (`r#"…"#`), byte and byte-raw strings,
//! char literals vs. lifetimes, raw identifiers (`r#fn`), and numeric
//! literals with suffixes.

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `HashMap`, …).
    Ident,
    /// Numeric literal, including suffixes (`42`, `0xff_u64`, `1.5e-3`).
    Number,
    /// String literal of any form (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'a'`, `'\n'`, `b'x'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// A single punctuation character (`.`, `:`, `{`, …).
    Punct,
    /// `//`-style comment, text including the leading slashes.
    LineComment,
    /// `/* … */` comment (possibly nested), text including delimiters.
    BlockComment,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token's source text (for `Punct`, the single character).
    pub text: String,
    /// 1-based line where the token starts.
    pub line: u32,
}

impl Token {
    /// True when this token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == word
    }
}

/// Lexes `src` into a token stream. Whitespace is dropped; comments are
/// kept (pragma parsing needs them). The lexer never
/// fails: unterminated constructs extend to end of input.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.chars.len() {
            let c = self.chars[self.pos];
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                '\'' => self.char_or_lifetime(),
                _ if c.is_ascii_digit() => self.number(),
                _ if is_ident_start(c) => self.ident_or_prefixed_literal(),
                _ => {
                    self.push(TokenKind::Punct, c.to_string(), self.line);
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.push(Token { kind, text, line });
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self.pos < self.chars.len() && self.chars[self.pos] != '\n' {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokenKind::LineComment, text, line);
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.pos += 2; // consume `/*`
        let mut depth = 1usize;
        while self.pos < self.chars.len() && depth > 0 {
            if self.chars[self.pos] == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.pos += 2;
            } else if self.chars[self.pos] == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.pos += 2;
            } else {
                if self.chars[self.pos] == '\n' {
                    self.line += 1;
                }
                self.pos += 1;
            }
        }
        let text: String = self.chars[start..self.pos.min(self.chars.len())]
            .iter()
            .collect();
        self.push(TokenKind::BlockComment, text, line);
    }

    /// A plain `"…"` string with `\`-escapes; multi-line allowed.
    fn string(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.pos += 1; // opening quote
        while self.pos < self.chars.len() {
            match self.chars[self.pos] {
                '\\' => self.pos += 2,
                '"' => {
                    self.pos += 1;
                    break;
                }
                c => {
                    if c == '\n' {
                        self.line += 1;
                    }
                    self.pos += 1;
                }
            }
        }
        let text: String = self.chars[start..self.pos.min(self.chars.len())]
            .iter()
            .collect();
        self.push(TokenKind::Str, text, line);
    }

    /// A raw string `r"…"` / `r#"…"#` (any hash arity); caller has
    /// consumed nothing — `self.pos` is at the `r` (or `b` of `br`).
    fn raw_string(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self.pos < self.chars.len()
            && self.chars[self.pos] != '#'
            && self.chars[self.pos] != '"'
        {
            self.pos += 1; // `r` or `br`
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
                       // Scan for `"` followed by `hashes` hash characters.
        while self.pos < self.chars.len() {
            if self.chars[self.pos] == '"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.pos += 1 + hashes;
                    break;
                }
            }
            if self.chars[self.pos] == '\n' {
                self.line += 1;
            }
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos.min(self.chars.len())]
            .iter()
            .collect();
        self.push(TokenKind::Str, text, line);
    }

    /// Disambiguates `'a'` / `'\n'` (char literal) from `'a` (lifetime).
    fn char_or_lifetime(&mut self) {
        let start = self.pos;
        let line = self.line;
        if self.peek(1) == Some('\\') {
            // Escaped char literal: consume to the closing quote.
            self.pos += 2; // `'` and `\`
            self.pos += 1; // the escaped character itself
            while self.pos < self.chars.len() && self.chars[self.pos] != '\'' {
                self.pos += 1; // e.g. `\u{1F600}` payloads
            }
            self.pos += 1;
            let text: String = self.chars[start..self.pos.min(self.chars.len())]
                .iter()
                .collect();
            self.push(TokenKind::Char, text, line);
        } else if self.peek(2) == Some('\'') && self.peek(1) != Some('\'') {
            // One-character literal like 'x' (including unicode chars).
            self.pos += 3;
            let text: String = self.chars[start..self.pos].iter().collect();
            self.push(TokenKind::Char, text, line);
        } else {
            // Lifetime: `'` followed by an identifier (or `'_`).
            self.pos += 1;
            while self.pos < self.chars.len() && is_ident_continue(self.chars[self.pos]) {
                self.pos += 1;
            }
            let text: String = self.chars[start..self.pos].iter().collect();
            self.push(TokenKind::Lifetime, text, line);
        }
    }

    fn number(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self.pos < self.chars.len()
            && (self.chars[self.pos].is_ascii_alphanumeric() || self.chars[self.pos] == '_')
        {
            self.pos += 1;
        }
        // Fractional part — but not `..` range syntax.
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
            while self.pos < self.chars.len()
                && (self.chars[self.pos].is_ascii_alphanumeric() || self.chars[self.pos] == '_')
            {
                self.pos += 1;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokenKind::Number, text, line);
    }

    /// An identifier — or one of the literal prefixes `r"`, `r#"`,
    /// `b"`, `br"`, `b'`, or a raw identifier `r#ident`.
    fn ident_or_prefixed_literal(&mut self) {
        let c = self.chars[self.pos];
        if c == 'r' || c == 'b' {
            let (next, next2) = (self.peek(1), self.peek(2));
            let raw_after = |n: Option<char>| n == Some('"') || n == Some('#');
            if c == 'r' && raw_after(next) {
                // `r#foo` is a raw identifier, `r#"` / `r"` a raw string.
                if next == Some('#') && next2.is_some_and(is_ident_start) {
                    let start = self.pos;
                    let line = self.line;
                    self.pos += 2;
                    while self.pos < self.chars.len() && is_ident_continue(self.chars[self.pos]) {
                        self.pos += 1;
                    }
                    let text: String = self.chars[start..self.pos].iter().collect();
                    self.push(TokenKind::Ident, text, line);
                } else {
                    self.raw_string();
                }
                return;
            }
            if c == 'b' {
                if next == Some('"') {
                    self.pos += 1; // skip `b`, lex as plain string
                    self.string();
                    // Patch the token to include the `b` prefix.
                    if let Some(tok) = self.out.last_mut() {
                        tok.text.insert(0, 'b');
                    }
                    return;
                }
                if next == Some('\'') {
                    self.pos += 1;
                    self.char_or_lifetime();
                    if let Some(tok) = self.out.last_mut() {
                        tok.text.insert(0, 'b');
                    }
                    return;
                }
                if next == Some('r') && raw_after(next2) {
                    self.raw_string();
                    return;
                }
            }
        }
        let start = self.pos;
        let line = self.line;
        while self.pos < self.chars.len() && is_ident_continue(self.chars[self.pos]) {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokenKind::Ident, text, line);
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}
