//! Lexer for the Λnum surface syntax (the notation of the paper's Figs.
//! 7–9: `function` definitions, `(|a, b|)` cartesian pairs, `M[2*eps]num`
//! types, and so on).
//!
//! Tokens borrow the source and are produced on demand, one at a time, so
//! reading a program builds no token vector.

use std::fmt;

/// A token with its source position (1-based line/column).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Token<'a> {
    pub(crate) kind: Tok<'a>,
    pub(crate) line: u32,
    pub(crate) col: u32,
}

/// Token kinds; identifiers and numbers are slices of the source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Tok<'a> {
    /// Identifier (primes allowed: `x'`); keywords are identifiers too.
    Ident(&'a str),
    /// Numeric literal (decimal, optional fraction/exponent).
    Number(&'a str),
    LParen,
    RParen,
    /// `(|`
    LPairW,
    /// `|)`
    RPairW,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Lt,
    Gt,
    Comma,
    Semi,
    Colon,
    Eq,
    Dot,
    Plus,
    Star,
    Slash,
    /// `-o`
    Lolli,
    Pipe,
    Bang,
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let glyph = match self {
            Tok::Ident(s) => return write!(f, "identifier `{s}`"),
            Tok::Number(s) => return write!(f, "number `{s}`"),
            Tok::Eof => return write!(f, "end of input"),
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LPairW => "(|",
            Tok::RPairW => "|)",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::Lt => "<",
            Tok::Gt => ">",
            Tok::Comma => ",",
            Tok::Semi => ";",
            Tok::Colon => ":",
            Tok::Eq => "=",
            Tok::Dot => ".",
            Tok::Plus => "+",
            Tok::Star => "*",
            Tok::Slash => "/",
            Tok::Lolli => "-o",
            Tok::Pipe => "|",
            Tok::Bang => "!",
        };
        write!(f, "`{glyph}`")
    }
}

/// A syntax error with position information.
#[derive(Clone, Debug, PartialEq)]
pub struct SyntaxError {
    /// Human-readable description.
    pub msg: String,
    /// 1-based line (0 when unknown).
    pub line: u32,
    /// 1-based column (0 when unknown).
    pub col: u32,
}

impl SyntaxError {
    pub(crate) fn new(msg: impl Into<String>, line: u32, col: u32) -> Self {
        SyntaxError { msg: msg.into(), line, col }
    }
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: {}", self.line, self.col, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for SyntaxError {}

/// An on-demand tokenizer. `//` comments run to end of line.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    at: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer { src, at: 0, line: 1, col: 1 }
    }

    /// The next token; [`Tok::Eof`] (repeatedly) once the input is read.
    ///
    /// # Errors
    ///
    /// A [`SyntaxError`] on a byte that cannot begin a token.
    pub(crate) fn next_token(&mut self) -> Result<Token<'a>, SyntaxError> {
        let bytes = self.src.as_bytes();
        let at = |i: usize| bytes.get(i).copied().unwrap_or(0);
        loop {
            let i = self.at;
            let (line, col) = (self.line, self.col);
            let Some(&c) = bytes.get(i) else {
                return Ok(Token { kind: Tok::Eof, line, col });
            };
            let (kind, len) = match c {
                b'\n' => {
                    self.at += 1;
                    self.line += 1;
                    self.col = 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' => {
                    self.at += 1;
                    self.col += 1;
                    continue;
                }
                b'/' if at(i + 1) == b'/' => {
                    while self.at < bytes.len() && bytes[self.at] != b'\n' {
                        self.at += 1;
                    }
                    continue;
                }
                b'(' if at(i + 1) == b'|' => (Tok::LPairW, 2),
                b'|' if at(i + 1) == b')' => (Tok::RPairW, 2),
                b'-' if at(i + 1) == b'o' => (Tok::Lolli, 2),
                // A negative literal: the sign belongs to the number.
                b'-' if at(i + 1).is_ascii_digit() || at(i + 1) == b'.' => {
                    let end = number_end(bytes, i + 1);
                    (Tok::Number(&self.src[i..end]), end - i)
                }
                b'(' => (Tok::LParen, 1),
                b')' => (Tok::RParen, 1),
                b'[' => (Tok::LBracket, 1),
                b']' => (Tok::RBracket, 1),
                b'{' => (Tok::LBrace, 1),
                b'}' => (Tok::RBrace, 1),
                b'<' => (Tok::Lt, 1),
                b'>' => (Tok::Gt, 1),
                b',' => (Tok::Comma, 1),
                b';' => (Tok::Semi, 1),
                b':' => (Tok::Colon, 1),
                b'=' => (Tok::Eq, 1),
                b'.' if !at(i + 1).is_ascii_digit() => (Tok::Dot, 1),
                b'+' => (Tok::Plus, 1),
                b'*' => (Tok::Star, 1),
                b'/' => (Tok::Slash, 1),
                b'|' => (Tok::Pipe, 1),
                b'!' => (Tok::Bang, 1),
                _ if c.is_ascii_digit() || c == b'.' => {
                    let end = number_end(bytes, i);
                    (Tok::Number(&self.src[i..end]), end - i)
                }
                _ if c.is_ascii_alphabetic() || c == b'_' => {
                    let mut end = i + 1;
                    while end < bytes.len()
                        && (bytes[end].is_ascii_alphanumeric()
                            || bytes[end] == b'_'
                            || bytes[end] == b'\'')
                    {
                        end += 1;
                    }
                    (Tok::Ident(&self.src[i..end]), end - i)
                }
                _ => {
                    // Name the whole character, not its first byte: `i`
                    // is on a character boundary, because every token
                    // above is ASCII and a comment ends at a newline.
                    let ch = self.src[i..].chars().next().expect("a byte remains at `i`");
                    let msg = format!("unexpected character `{ch}`");
                    return Err(SyntaxError::new(msg, line, col));
                }
            };
            self.at += len;
            self.col += len as u32;
            return Ok(Token { kind, line, col });
        }
    }

    /// The first lexical error in the rest of the input, if any: lexing
    /// is context-free, so a bad character anywhere in a program wins
    /// over a syntax error before it.
    pub(crate) fn rest_error(&mut self) -> Option<SyntaxError> {
        loop {
            match self.next_token() {
                Err(e) => return Some(e),
                Ok(Token { kind: Tok::Eof, .. }) => return None,
                Ok(_) => {}
            }
        }
    }
}

/// The end of a numeric literal whose digits start at `i`: digits and
/// dots, then an exponent (`e`/`E`, optional sign, digits) if one
/// follows.
fn number_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
        i += 1;
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lexer.next_token().unwrap();
            out.push(t.kind);
            if t.kind == Tok::Eof {
                return out;
            }
        }
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("function f (x: num) : M[eps]num { rnd x }"),
            vec![
                Tok::Ident("function"),
                Tok::Ident("f"),
                Tok::LParen,
                Tok::Ident("x"),
                Tok::Colon,
                Tok::Ident("num"),
                Tok::RParen,
                Tok::Colon,
                Tok::Ident("M"),
                Tok::LBracket,
                Tok::Ident("eps"),
                Tok::RBracket,
                Tok::Ident("num"),
                Tok::LBrace,
                Tok::Ident("rnd"),
                Tok::Ident("x"),
                Tok::RBrace,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn pair_delimiters_and_lolli() {
        assert_eq!(
            kinds("(|a,z|) (x,y) -o"),
            vec![
                Tok::LPairW,
                Tok::Ident("a"),
                Tok::Comma,
                Tok::Ident("z"),
                Tok::RPairW,
                Tok::LParen,
                Tok::Ident("x"),
                Tok::Comma,
                Tok::Ident("y"),
                Tok::RParen,
                Tok::Lolli,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn numbers_and_primes() {
        assert_eq!(
            kinds("2*eps x' 0.5 1e-5 2.5E+3 -.5 1e"),
            vec![
                Tok::Number("2"),
                Tok::Star,
                Tok::Ident("eps"),
                Tok::Ident("x'"),
                Tok::Number("0.5"),
                Tok::Number("1e-5"),
                Tok::Number("2.5E+3"),
                Tok::Number("-.5"),
                Tok::Number("1"),
                Tok::Ident("e"),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_positions() {
        let mut lexer = Lexer::new("x // comment\ny // trailing");
        let x = lexer.next_token().unwrap();
        assert_eq!((x.kind, x.line, x.col), (Tok::Ident("x"), 1, 1));
        let y = lexer.next_token().unwrap();
        assert_eq!((y.kind, y.line, y.col), (Tok::Ident("y"), 2, 1));
        // A trailing comment leaves the end of input where it began.
        let eof = lexer.next_token().unwrap();
        assert_eq!((eof.kind, eof.line, eof.col), (Tok::Eof, 2, 3));
    }

    #[test]
    fn rejects_garbage_anywhere_in_the_rest() {
        let mut lexer = Lexer::new("x ) # y");
        assert_eq!(lexer.next_token().unwrap().kind, Tok::Ident("x"));
        let e = lexer.rest_error().expect("a bad character follows");
        assert_eq!((e.msg.as_str(), e.line, e.col), ("unexpected character `#`", 1, 5));
        assert_eq!(Lexer::new("x y").rest_error(), None);
        // A non-ASCII character is named whole, not by its first byte.
        for (src, bad, col) in
            [("rnd é", "é", 5), ("\u{feff}rnd 1.5", "\u{feff}", 1), ("x 😀", "😀", 3)]
        {
            let e = Lexer::new(src).rest_error().expect("a bad character");
            let msg = format!("unexpected character `{bad}`");
            assert_eq!((e.msg.as_str(), e.line, e.col), (msg.as_str(), 1, col), "{src:?}");
        }
    }

    #[test]
    fn dot_vs_decimal() {
        // `.` before a digit is part of a number; standalone `.` is Dot.
        assert_eq!(
            kinds("inl x . e"),
            vec![Tok::Ident("inl"), Tok::Ident("x"), Tok::Dot, Tok::Ident("e"), Tok::Eof]
        );
    }
}
