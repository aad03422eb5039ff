//! Tokenizer for the `.jil` format.
//!
//! Tokens borrow from the source: an identifier or a string literal is a
//! slice of it, so lexing allocates nothing but the token vector.

use std::borrow::Cow;
use std::fmt;

/// A token kind with its payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum TokenKind<'a> {
    /// Keyword or identifier, including `/`-separated class paths and
    /// leading-dot directives (`.class`, `.method`, …).
    Ident(&'a str),
    /// Variable reference `v<N>`.
    Var(u32),
    /// Integer literal (decimal, optionally negative).
    Int(i64),
    /// Floating literal with a trailing `f` (e.g. `1.5f`).
    Float(f64),
    /// Double-quoted string literal with `\"`, `\\` and `\n` escapes.
    Str(RawStr<'a>),
    /// `=`
    Eq,
    /// `:`
    Colon,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `.` (only when not starting a directive ident)
    Dot,
    /// `_` (used for "no variable")
    Underscore,
}

/// A string literal's text between its quotes, escapes as written. The
/// lexer has checked them; [`RawStr::unescape`] resolves them, and `Debug`
/// shows the resolved value.
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct RawStr<'a>(&'a str);

impl<'a> RawStr<'a> {
    /// The literal's value; borrowed unless it has an escape.
    pub(crate) fn unescape(self) -> Cow<'a, str> {
        if !self.0.contains('\\') {
            return Cow::Borrowed(self.0);
        }
        let mut out = String::with_capacity(self.0.len());
        let mut chars = self.0.chars();
        while let Some(c) = chars.next() {
            out.push(match c {
                '\\' => match chars.next() {
                    Some('n') => '\n',
                    Some(escaped) => escaped,
                    None => break,
                },
                c => c,
            });
        }
        Cow::Owned(out)
    }
}

impl fmt::Debug for RawStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.unescape(), f)
    }
}

/// A token with its source line (1-based) for diagnostics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Token<'a> {
    /// The kind and payload.
    pub kind: TokenKind<'a>,
    /// 1-based source line.
    pub line: u32,
}

/// A lexing failure.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    /// Human-readable message.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// The tokenizer; [`Lexer::tokenize`] runs it over a whole input.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'$'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'/' || b == b'$' || b == b'<' || b == b'>'
}

impl<'a> Lexer<'a> {
    /// Tokenizes the whole input.
    pub(crate) fn tokenize(src: &'a str) -> Result<Vec<Token<'a>>, LexError> {
        let mut lx = Lexer { src, pos: 0, line: 1 };
        let mut out = Vec::new();
        while let Some(tok) = lx.next_token()? {
            out.push(tok);
        }
        Ok(out)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError { message: message.into(), line: self.line }
    }

    /// Produces the next token, or `None` at end of input.
    fn next_token(&mut self) -> Result<Option<Token<'a>>, LexError> {
        self.skip_ws_and_comments();
        let line = self.line;
        let start = self.pos;
        let Some(b) = self.peek() else { return Ok(None) };
        let kind = match b {
            b'=' => {
                self.bump();
                TokenKind::Eq
            }
            b':' => {
                self.bump();
                TokenKind::Colon
            }
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b'{' => {
                self.bump();
                TokenKind::LBrace
            }
            b'}' => {
                self.bump();
                TokenKind::RBrace
            }
            b'[' => {
                self.bump();
                TokenKind::LBracket
            }
            b']' => {
                self.bump();
                TokenKind::RBracket
            }
            b'"' => {
                self.bump();
                loop {
                    match self.bump() {
                        Some(b'"') => break,
                        Some(b'\\') => match self.bump() {
                            Some(b'"' | b'\\' | b'n') => {}
                            other => {
                                return Err(self.err(format!(
                                    "invalid string escape: {:?}",
                                    other.map(|c| c as char)
                                )))
                            }
                        },
                        Some(_) => {}
                        None => return Err(self.err("unterminated string literal")),
                    }
                }
                // Both quotes are ASCII, so the slice is on char boundaries.
                TokenKind::Str(RawStr(&self.src[start + 1..self.pos - 1]))
            }
            b'.' => {
                // Either a directive (`.class`) or a field-access dot.
                self.bump();
                if self.peek().map(is_ident_start).unwrap_or(false) {
                    TokenKind::Ident(self.ident_from(start))
                } else {
                    TokenKind::Dot
                }
            }
            b'_' => {
                self.bump();
                // Bare underscore is the "no var" marker; `_foo` is an ident.
                if self.peek().map(is_ident_cont).unwrap_or(false) {
                    TokenKind::Ident(self.ident_from(start))
                } else {
                    TokenKind::Underscore
                }
            }
            b'-' => {
                self.bump();
                self.lex_number(start)?
            }
            b if b.is_ascii_digit() => self.lex_number(start)?,
            b'v' => {
                // `v<digits>` is a var ref; `v<alpha>` is an ident.
                self.bump();
                if self.peek().map(|c| c.is_ascii_digit()).unwrap_or(false) {
                    let mut n: u64 = 0;
                    while let Some(c) = self.peek() {
                        if !c.is_ascii_digit() {
                            break;
                        }
                        n = n * 10 + u64::from(c - b'0');
                        if n > u64::from(u32::MAX) {
                            return Err(self.err("variable index overflow"));
                        }
                        self.bump();
                    }
                    // `v12abc` would be malformed; treat as ident.
                    if self.peek().map(is_ident_cont).unwrap_or(false) {
                        TokenKind::Ident(self.ident_from(start))
                    } else {
                        TokenKind::Var(n as u32)
                    }
                } else {
                    TokenKind::Ident(self.ident_from(start))
                }
            }
            b if is_ident_start(b) => match self.ident_from(start) {
                "true" => TokenKind::Int(1),
                "false" => TokenKind::Int(0),
                ident => TokenKind::Ident(ident),
            },
            other => return Err(self.err(format!("unexpected character {:?}", other as char))),
        };
        Ok(Some(Token { kind, line }))
    }

    /// Consumes identifier bytes and returns the source from `start` to
    /// the end of them.
    fn ident_from(&mut self, start: usize) -> &'a str {
        while let Some(b) = self.peek() {
            if !is_ident_cont(b) {
                break;
            }
            self.bump();
        }
        &self.src[start..self.pos]
    }

    /// Lexes a number whose text (sign included) begins at `start`.
    fn lex_number(&mut self, start: usize) -> Result<TokenKind<'a>, LexError> {
        let negative = self.src.as_bytes()[start] == b'-';
        let digits_start = self.pos;
        while let Some(b) = self.peek() {
            if !b.is_ascii_digit() {
                break;
            }
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            // Lookahead: digit after the dot makes it a float literal.
            if self.src.as_bytes().get(self.pos + 1).map(|c| c.is_ascii_digit()).unwrap_or(false) {
                is_float = true;
                self.bump(); // '.'
                while let Some(b) = self.peek() {
                    if !b.is_ascii_digit() {
                        break;
                    }
                    self.bump();
                }
                if self.peek() == Some(b'e') || self.peek() == Some(b'E') {
                    self.bump();
                    if self.peek() == Some(b'-') || self.peek() == Some(b'+') {
                        self.bump();
                    }
                    while let Some(b) = self.peek() {
                        if !b.is_ascii_digit() {
                            break;
                        }
                        self.bump();
                    }
                }
            }
        }
        let signed = &self.src[start..self.pos];
        let text = &self.src[digits_start..self.pos];
        // Trailing `f` marks floats explicitly; an integer part with `.` also
        // parses as float.
        if self.peek() == Some(b'f') {
            self.bump();
            is_float = true;
        }
        if is_float {
            let v: f64 =
                text.parse().map_err(|e| self.err(format!("bad float literal {text:?}: {e}")))?;
            Ok(TokenKind::Float(if negative { -v } else { v }))
        } else {
            // The signed text parses, so `i64::MIN` reads back; when it does
            // not, the digits' own error is the message.
            let v: i64 = signed
                .parse()
                .or_else(|_| text.parse())
                .map_err(|e| self.err(format!("bad int literal {text:?}: {e}")))?;
            Ok(TokenKind::Int(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        Lexer::tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_directives_and_idents() {
        assert_eq!(
            kinds(".class com/example/A : java/lang/Object"),
            vec![
                TokenKind::Ident(".class"),
                TokenKind::Ident("com/example/A"),
                TokenKind::Colon,
                TokenKind::Ident("java/lang/Object"),
            ]
        );
    }

    #[test]
    fn lexes_vars_and_numbers() {
        assert_eq!(
            kinds("v0 v12 42 -7 -9223372036854775808 1.5f 2.25 vx"),
            vec![
                TokenKind::Var(0),
                TokenKind::Var(12),
                TokenKind::Int(42),
                TokenKind::Int(-7),
                TokenKind::Int(i64::MIN),
                TokenKind::Float(1.5),
                TokenKind::Float(2.25),
                TokenKind::Ident("vx"),
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let src = r#""hello \"w\\orld\n" "plaïn 中文""#;
        let [TokenKind::Str(escaped), TokenKind::Str(plain)] = kinds(src)[..] else {
            panic!("two string tokens");
        };
        assert_eq!(escaped, RawStr(r#"hello \"w\\orld\n"#));
        assert_eq!(escaped.unescape(), "hello \"w\\orld\n");
        assert!(matches!(plain.unescape(), Cow::Borrowed("plaïn 中文")));
        // Error messages show the resolved value, as they always have.
        assert_eq!(format!("{escaped:?}"), format!("{:?}", "hello \"w\\orld\n"));
    }

    #[test]
    fn lexes_punctuation_and_underscore() {
        assert_eq!(
            kinds("( ) { } [ ] = . _ _tmp"),
            vec![
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::LBracket,
                TokenKind::RBracket,
                TokenKind::Eq,
                TokenKind::Dot,
                TokenKind::Underscore,
                TokenKind::Ident("_tmp"),
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let toks = Lexer::tokenize("# header\nfoo # trailing\nbar").unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].line, 2);
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn booleans_lex_as_ints() {
        assert_eq!(kinds("true false"), vec![TokenKind::Int(1), TokenKind::Int(0)]);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(Lexer::tokenize("\"oops").is_err());
    }

    #[test]
    fn angle_brackets_in_idents_for_ctors() {
        // '<' cannot start an identifier — constructors are written `init`.
        assert!(Lexer::tokenize("<init>").is_err());
        // But '<'/'>' are allowed inside an identifier body.
        assert_eq!(kinds("init$<clinit>"), vec![TokenKind::Ident("init$<clinit>")]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The lexer never panics: any input either tokenizes or returns a
        /// structured error.
        #[test]
        fn lexer_is_total(src in "\\PC*") {
            let _ = Lexer::tokenize(&src);
        }

        /// Tokenizing twice is deterministic.
        #[test]
        fn lexer_is_deterministic(src in "[a-z0-9 .(){}\\[\\]=_\"\\\\#\n-]*") {
            let a = Lexer::tokenize(&src);
            let b = Lexer::tokenize(&src);
            match (a, b) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                _ => prop_assert!(false, "tokenize nondeterministic"),
            }
        }

        /// Integer and variable tokens roundtrip through their textual form.
        #[test]
        fn numbers_and_vars_roundtrip(n in 0u32..1_000_000) {
            let src = format!("v{n} {n} -{n}");
            let toks = Lexer::tokenize(&src).unwrap();
            prop_assert_eq!(toks.len(), 3);
            prop_assert_eq!(&toks[0].kind, &TokenKind::Var(n));
            prop_assert_eq!(&toks[1].kind, &TokenKind::Int(i64::from(n)));
            prop_assert_eq!(&toks[2].kind, &TokenKind::Int(-i64::from(n)));
        }
    }
}
