//! A self-contained Rust token scanner.
//!
//! The build environment has no crates.io access, so the lint cannot lean on
//! `syn` or rustc internals; instead this module lexes source bytes directly.
//! It is *not* a full parser — it produces a flat token stream — but it is
//! exact about the one thing every lexical lint lives or dies by: what is
//! code and what is not. Line comments, nested block comments, string
//! literals with escapes, raw strings (`r"…"`, `r#"…"#`, any guard depth),
//! byte strings, char literals and lifetimes are all classified, so a rule
//! matching the identifier `unwrap` can never fire on `"unwrap"` in a string
//! or on a commented-out line.
//!
//! The scanner is total: it accepts **arbitrary bytes** (including invalid
//! UTF-8 and unterminated literals), never panics, and always partitions the
//! input — every byte belongs to exactly one token or to whitespace. The
//! property tests in `tests/scanner_props.rs` hold it to that contract.

/// Classification of one lexed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers, `r#match`).
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Numeric literal (integer or float, any base, with suffixes).
    Number,
    /// String-ish literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// Char or byte-char literal: `'x'`, `b'\n'`.
    Char,
    /// `// …` comment (including `///` and `//!` doc comments).
    LineComment,
    /// `/* … */` comment, nested blocks included.
    BlockComment,
    /// A single punctuation byte.
    Punct,
    /// Any byte the lexer has no rule for (e.g. stray non-UTF-8 bytes).
    Unknown,
}

/// One token with its byte span and 1-based source position.
#[derive(Clone, Debug)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based byte column of the first byte.
    pub col: u32,
    /// 1-based line of the last byte (differs for multi-line tokens).
    pub end_line: u32,
}

impl Token {
    /// The token's text, lossily decoded (only comments need their text).
    pub fn text<'a>(&self, src: &'a [u8]) -> std::borrow::Cow<'a, str> {
        String::from_utf8_lossy(src.get(self.start..self.end).unwrap_or(&[]))
    }

    /// True for either comment kind.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// True when the token is exactly the ASCII punctuation byte `b`.
    pub fn is_punct(&self, src: &[u8], b: u8) -> bool {
        self.kind == TokenKind::Punct && src.get(self.start) == Some(&b)
    }

    /// True when the token is the identifier `name`.
    pub fn is_ident(&self, src: &[u8], name: &str) -> bool {
        self.kind == TokenKind::Ident && src.get(self.start..self.end) == Some(name.as_bytes())
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Cursor state shared by the sub-lexers; all reads are bounds-checked.
struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Scanner<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking line/column.
    fn bump(&mut self) {
        if self.src.get(self.pos) == Some(&b'\n') {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            if self.pos >= self.src.len() {
                break;
            }
            self.bump();
        }
    }

    /// Consumes a line comment (`//` to end of line, newline excluded).
    fn line_comment(&mut self) {
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
    }

    /// Consumes a block comment with nesting; unterminated comments extend
    /// to end of input (still a valid single token).
    fn block_comment(&mut self) {
        self.bump_n(2); // the opening "/*"
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump_n(2);
                }
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump_n(2);
                }
                (Some(_), _) => self.bump(),
                (None, _) => break,
            }
        }
    }

    /// Consumes a `"…"` body after the opening quote, honouring `\` escapes;
    /// unterminated strings extend to end of input.
    fn quoted(&mut self, quote: u8) {
        self.bump(); // opening quote
        while let Some(b) = self.peek(0) {
            if b == b'\\' {
                self.bump_n(2);
            } else if b == quote {
                self.bump();
                return;
            } else {
                self.bump();
            }
        }
    }

    /// Consumes a raw-string body starting at the first `#`-or-quote after
    /// the `r`/`br` prefix. Returns false (consuming nothing further) if
    /// what follows is not actually a raw string (e.g. a raw identifier).
    fn raw_string(&mut self, prefix_len: usize) -> bool {
        let mut guards = 0usize;
        while self.peek(prefix_len + guards) == Some(b'#') {
            guards += 1;
        }
        if self.peek(prefix_len + guards) != Some(b'"') {
            return false;
        }
        self.bump_n(prefix_len + guards + 1);
        // Scan for `"` followed by `guards` hashes.
        'outer: while let Some(b) = self.peek(0) {
            if b == b'"' {
                for g in 0..guards {
                    if self.peek(1 + g) != Some(b'#') {
                        self.bump();
                        continue 'outer;
                    }
                }
                self.bump_n(1 + guards);
                return true;
            }
            self.bump();
        }
        true // unterminated raw string: token runs to end of input
    }

    /// Consumes an identifier (continuation bytes only; the caller vetted
    /// the start byte).
    fn ident(&mut self) {
        while let Some(b) = self.peek(0) {
            if is_ident_continue(b) {
                self.bump();
            } else {
                break;
            }
        }
    }

    /// Consumes a number. Accepts digits, base prefixes, suffixes and a
    /// decimal point followed by a digit — but never eats the `..` of a
    /// range expression.
    fn number(&mut self) {
        while let Some(b) = self.peek(0) {
            let continues = is_ident_continue(b) || (b == b'.' && self.peek(1).is_some_and(|n| n.is_ascii_digit()));
            if !continues {
                break;
            }
            self.bump();
        }
    }

    /// Lexes at `'`: a lifetime (`'a`, `'_`, `'static`) or a char literal.
    fn lifetime_or_char(&mut self) -> TokenKind {
        // Lifetime: `'` + ident not closed by another `'`.
        if self.peek(1).is_some_and(is_ident_start) {
            let mut n = 2;
            while self.peek(n).is_some_and(is_ident_continue) {
                n += 1;
            }
            if self.peek(n) != Some(b'\'') {
                self.bump_n(n);
                return TokenKind::Lifetime;
            }
        }
        self.quoted(b'\'');
        TokenKind::Char
    }
}

/// Lexes `src` into a complete token stream. Whitespace is skipped; every
/// other byte lands in exactly one token. Never panics, for any input.
pub fn scan(src: &[u8]) -> Vec<Token> {
    let mut s = Scanner { src, pos: 0, line: 1, col: 1 };
    let mut out = Vec::new();
    while let Some(b) = s.peek(0) {
        if b.is_ascii_whitespace() {
            s.bump();
            continue;
        }
        let (start, line, col) = (s.pos, s.line, s.col);
        let kind = match b {
            b'/' if s.peek(1) == Some(b'/') => {
                s.line_comment();
                TokenKind::LineComment
            }
            b'/' if s.peek(1) == Some(b'*') => {
                s.block_comment();
                TokenKind::BlockComment
            }
            b'"' => {
                s.quoted(b'"');
                TokenKind::Str
            }
            b'\'' => s.lifetime_or_char(),
            b'r' if s.raw_string(1) => TokenKind::Str,
            b'b' if s.peek(1) == Some(b'"') => {
                s.bump();
                s.quoted(b'"');
                TokenKind::Str
            }
            b'b' if s.peek(1) == Some(b'\'') => {
                s.bump();
                s.quoted(b'\'');
                TokenKind::Char
            }
            b'b' if s.peek(1) == Some(b'r') && s.raw_string(2) => TokenKind::Str,
            _ if is_ident_start(b) => {
                // Raw identifier `r#name`: the `r#` of a raw *string* was
                // already taken above, so a surviving `r#` is an identifier.
                if b == b'r' && s.peek(1) == Some(b'#') {
                    s.bump_n(2);
                }
                s.ident();
                TokenKind::Ident
            }
            _ if b.is_ascii_digit() => {
                s.number();
                TokenKind::Number
            }
            _ if b.is_ascii_punctuation() => {
                s.bump();
                TokenKind::Punct
            }
            _ => {
                s.bump();
                TokenKind::Unknown
            }
        };
        // Defensive: a sub-lexer that consumed nothing would loop forever.
        if s.pos == start {
            s.bump();
        }
        out.push(Token { kind, start, end: s.pos, line, col, end_line: s.line });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        scan(src.as_bytes()).into_iter().map(|t| (t.kind, t.text(src.as_bytes()).into_owned())).collect()
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let toks = kinds(r#"let x = "unsafe // not a comment"; // unwrap"#);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Str && t.contains("unsafe")));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::LineComment && t.contains("unwrap")));
        assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "unsafe"));
    }

    #[test]
    fn raw_strings_with_guards_and_quotes() {
        let src = r###"let s = r#"quote " inside, and */ too"#; x"###;
        let toks = kinds(src);
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("*/"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "x"));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = kinds(r##"(b"bytes", br#"raw "bytes""#, b'x')"##);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(), 1);
    }

    #[test]
    fn raw_identifier_is_an_ident_not_a_string() {
        let toks = kinds("let r#match = 1;");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "r#match"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still comment */ code");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::BlockComment).count(), 1);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "code"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let s = 'static; }");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).count(), 3);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(), 1);
    }

    #[test]
    fn escaped_quotes_in_literals() {
        let toks = kinds(r#"("a\"b", '\'', "c\\")"#);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(), 1);
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let toks = kinds("for i in 0..10 { a[i] = 1.5; }");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Number && t == "0"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Number && t == "10"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Number && t == "1.5"));
    }

    #[test]
    fn positions_are_one_based_lines_and_columns() {
        let toks = scan(b"ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn multiline_token_records_its_end_line() {
        let toks = scan(b"/* a\nb\nc */ x");
        assert_eq!(toks[0].end_line, 3);
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn tokens_partition_arbitrary_garbage() {
        let garbage: Vec<u8> = (0u16..=255).map(|b| b as u8).cycle().take(2048).collect();
        let toks = scan(&garbage);
        let covered: usize = toks.iter().map(|t| t.end - t.start).sum();
        let ws = garbage.iter().filter(|b| b.is_ascii_whitespace()).count();
        // Whitespace inside string/comment tokens belongs to the token, so
        // coverage + skipped-whitespace is at least the input; the partition
        // property (no overlap, monotone) is what matters.
        assert!(covered + ws >= garbage.len());
        for w in toks.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }
}
