//! Tokenizer for the `.cpn` format.
//!
//! The input is read as bytes. An ASCII byte, nearly every byte of a
//! document, is classified by a table; a non-ASCII character is decoded
//! and tested with the `char` predicates that define the language
//! (`is_whitespace`, `is_alphanumeric`). Tokens borrow the input:
//! identifiers are slices of it, and a string literal is the slice
//! between its quotes, decoded by [`Literal::value`] (which allocates
//! only when the literal holds an escape).

use crate::parser::{ParseError, ParseErrorKind};
use std::borrow::Cow;
use std::fmt;

/// A token with its line number (for error messages).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Token<'a> {
    /// The token kind and payload.
    pub kind: TokenKind<'a>,
    /// 1-based source line.
    pub line: usize,
}

/// Token kinds of the `.cpn` grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind<'a> {
    /// An identifier (also used for keywords; the parser distinguishes).
    Ident(&'a str),
    /// A quoted string literal (generic net labels).
    Str(Literal<'a>),
    /// A non-negative integer.
    Number(u32),
    /// A single punctuation byte: `{ } ; : = & * + - ~ # ?`.
    Punct(u8),
}

/// A string literal as written: the text between its quotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Literal<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> Literal<'a> {
    /// The literal's value: `raw` itself, or, when it holds an escape,
    /// a copy in which each `\` has taken the character after it
    /// literally.
    pub fn value(self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.raw);
        }
        let mut out = String::with_capacity(self.raw.len());
        let mut chars = self.raw.chars();
        while let Some(c) = chars.next() {
            // The lexer ends a literal only at an unescaped quote, so
            // every backslash in `raw` has a character after it.
            out.extend(if c == '\\' { chars.next() } else { Some(c) });
        }
        Cow::Owned(out)
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Str(lit) => write!(f, "string {:?}", lit.value()),
            TokenKind::Number(n) => write!(f, "number {n}"),
            TokenKind::Punct(c) => write!(f, "`{}`", char::from(c)),
        }
    }
}

/// What a byte starts (or, for [`Class::Ident`] and [`Class::Digit`],
/// continues).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Newline,
    Space,
    Slash,
    Quote,
    Digit,
    Ident,
    Punct,
    /// The first byte of a non-ASCII character, or a later one (which
    /// the lexer never meets, as it steps over whole characters).
    NonAscii,
    Other,
}

/// The class of every byte: for ASCII, the `char` rules of the grammar
/// spelled out for the fast path (a unit test holds the two equal).
const CLASS: [Class; 256] = {
    let mut table = [Class::NonAscii; 256];
    let mut b = 0;
    while b < 128 {
        table[b] = match b as u8 {
            b'\n' => Class::Newline,
            b'\t' | 0x0B | 0x0C | b'\r' | b' ' => Class::Space,
            b'/' => Class::Slash,
            b'"' => Class::Quote,
            b'0'..=b'9' => Class::Digit,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'.' | b'\'' | b'(' | b')' | b',' => Class::Ident,
            b'{' | b'}' | b';' | b':' | b'=' | b'&' | b'*' | b'+' | b'-' | b'~' | b'#' | b'?' => {
                Class::Punct
            }
            _ => Class::Other,
        };
        b += 1;
    }
    table
};

/// Whether a character may appear in an identifier. Dots are allowed so
/// generated place names (`tr.rec.s1`) survive round-trips.
fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '.' | '\'' | '′' | '(' | ')' | ',')
}

fn syntax(message: impl Into<String>, line: usize) -> ParseError {
    ParseError {
        message: message.into(),
        line,
        kind: ParseErrorKind::Syntax,
    }
}

struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    line: usize,
    tokens: Vec<Token<'a>>,
    /// Tokens lexed so far; past `max_tokens` they are counted, not kept.
    count: usize,
    max_tokens: usize,
}

impl<'a> Lexer<'a> {
    fn push(&mut self, kind: TokenKind<'a>) {
        if self.count < self.max_tokens {
            self.tokens.push(Token {
                kind,
                line: self.line,
            });
        }
        self.count += 1;
    }

    /// The non-ASCII character at `pos`, which is a character boundary.
    fn char_at(&self, pos: usize) -> char {
        self.input[pos..]
            .chars()
            .next()
            .expect("a non-ASCII byte starts a character")
    }

    /// Lexes the identifier at `pos`.
    fn ident(&mut self) {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let mut end = start;
        while let Some(&b) = bytes.get(end) {
            match CLASS[usize::from(b)] {
                Class::Ident | Class::Digit => end += 1,
                Class::NonAscii => {
                    let c = self.char_at(end);
                    if !is_ident_char(c) {
                        break;
                    }
                    end += c.len_utf8();
                }
                _ => break,
            }
        }
        self.push(TokenKind::Ident(&self.input[start..end]));
        self.pos = end;
    }

    /// Lexes the string literal whose opening quote is at `pos`.
    fn literal(&mut self) -> Result<(), ParseError> {
        let bytes = self.input.as_bytes();
        let start = self.pos + 1;
        let mut end = start;
        let mut escaped = false;
        loop {
            match bytes.get(end) {
                Some(b'"') => break,
                // The escaped character is taken whatever it is, a quote
                // or a newline included. Skipping only its first byte is
                // enough: the rest of a multi-byte character is never a
                // quote, backslash or newline.
                Some(b'\\') => {
                    if end + 1 == bytes.len() {
                        return Err(syntax("unterminated string escape", self.line));
                    }
                    escaped = true;
                    end += 2;
                }
                Some(b'\n') => return Err(syntax("newline in string", self.line)),
                Some(_) => end += 1,
                None => return Err(syntax("unterminated string", self.line)),
            }
        }
        self.push(TokenKind::Str(Literal {
            raw: &self.input[start..end],
            escaped,
        }));
        self.pos = end + 1;
        Ok(())
    }

    /// Lexes the number at `pos`.
    fn number(&mut self) -> Result<(), ParseError> {
        let bytes = self.input.as_bytes();
        let mut pos = self.pos;
        let mut n: u32 = 0;
        // A digit followed by identifier characters is a number and then
        // an identifier (`0ack`); place names never start with a digit.
        while let Some(&d) = bytes.get(pos).filter(|d| d.is_ascii_digit()) {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u32::from(d - b'0')))
                .ok_or_else(|| syntax("number too large", self.line))?;
            pos += 1;
        }
        self.push(TokenKind::Number(n));
        self.pos = pos;
        Ok(())
    }

    fn run(&mut self) -> Result<(), ParseError> {
        let bytes = self.input.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match CLASS[usize::from(b)] {
                Class::Space => self.pos += 1,
                Class::Ident => self.ident(),
                Class::Punct => {
                    self.push(TokenKind::Punct(b));
                    self.pos += 1;
                }
                Class::Newline => {
                    self.line += 1;
                    self.pos += 1;
                }
                Class::Quote => self.literal()?,
                Class::Digit => self.number()?,
                Class::Slash => {
                    if bytes.get(self.pos + 1) != Some(&b'/') {
                        return Err(syntax("expected `//` comment", self.line));
                    }
                    match bytes[self.pos + 2..].iter().position(|&b| b == b'\n') {
                        Some(k) => {
                            self.line += 1;
                            self.pos += 2 + k + 1;
                        }
                        None => self.pos = bytes.len(),
                    }
                }
                Class::NonAscii => {
                    let c = self.char_at(self.pos);
                    if c.is_whitespace() {
                        self.pos += c.len_utf8();
                    } else if is_ident_char(c) {
                        self.ident();
                    } else {
                        return Err(syntax(format!("unexpected character {c:?}"), self.line));
                    }
                }
                Class::Other => {
                    return Err(syntax(
                        format!("unexpected character {:?}", char::from(b)),
                        self.line,
                    ))
                }
            }
        }
        Ok(())
    }
}

/// Tokenizes the input, keeping at most `max_tokens` tokens.
///
/// `//` starts a comment running to end of line (`#` is the unstable
/// signal-edge suffix, so hash comments would be ambiguous).
///
/// # Errors
///
/// A syntax error on unterminated strings, numbers past `u32` or
/// unexpected characters; then, when the whole input lexes, an
/// [`ParseErrorKind::InputTooLarge`] error if it holds more than
/// `max_tokens` tokens.
pub(crate) fn lex(input: &str, max_tokens: usize) -> Result<Vec<Token<'_>>, ParseError> {
    // About one token per three bytes in written documents; the cap
    // keeps a huge input from reserving memory it may never fill.
    let capacity = (input.len() / 3).min(max_tokens).min(1 << 16);
    let mut lexer = Lexer {
        input,
        pos: 0,
        line: 1,
        tokens: Vec::with_capacity(capacity),
        count: 0,
        max_tokens,
    };
    lexer.run()?;
    if lexer.count > max_tokens {
        return Err(ParseError {
            message: format!(
                "document has {} tokens; the limit is {max_tokens}",
                lexer.count
            ),
            line: 0,
            kind: ParseErrorKind::InputTooLarge,
        });
    }
    Ok(lexer.tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Token kinds, with literals decoded.
    #[derive(Debug, PartialEq, Eq)]
    enum Tok {
        Ident(String),
        Str(String),
        Number(u32),
        Punct(char),
    }

    fn kinds(input: &str) -> Vec<Tok> {
        lex(input, usize::MAX)
            .unwrap()
            .into_iter()
            .map(|t| match t.kind {
                TokenKind::Ident(s) => Tok::Ident(s.into()),
                TokenKind::Str(lit) => Tok::Str(lit.value().into()),
                TokenKind::Number(n) => Tok::Number(n),
                TokenKind::Punct(c) => Tok::Punct(char::from(c)),
            })
            .collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("net x { }"),
            vec![
                Tok::Ident("net".into()),
                Tok::Ident("x".into()),
                Tok::Punct('{'),
                Tok::Punct('}'),
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            kinds(r#""hello" "a\"b""#),
            vec![Tok::Str("hello".into()), Tok::Str("a\"b".into())]
        );
        // Only a literal holding an escape is copied.
        let tokens = lex(r#""plain" "a\\b""#, usize::MAX).unwrap();
        let values: Vec<_> = tokens
            .iter()
            .map(|t| match t.kind {
                TokenKind::Str(lit) => lit.value(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert!(matches!(values[0], Cow::Borrowed("plain")));
        assert!(matches!(&values[1], Cow::Owned(s) if s == "a\\b"));
    }

    #[test]
    fn numbers_and_stars() {
        assert_eq!(
            kinds("p0*2"),
            vec![Tok::Ident("p0".into()), Tok::Punct('*'), Tok::Number(2)]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("a // comment\nb"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into())]
        );
        // line numbers advance past comments
        let toks = lex("a // c\nb", usize::MAX).unwrap();
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn hash_is_a_suffix_not_a_comment() {
        assert_eq!(kinds("x#"), vec![Tok::Ident("x".into()), Tok::Punct('#')]);
    }

    #[test]
    fn signal_suffixes() {
        assert_eq!(
            kinds("req+ ack- x~"),
            vec![
                Tok::Ident("req".into()),
                Tok::Punct('+'),
                Tok::Ident("ack".into()),
                Tok::Punct('-'),
                Tok::Ident("x".into()),
                Tok::Punct('~'),
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        let err = lex("\"abc", usize::MAX).unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn unexpected_character_errors() {
        let err = lex("a @ b", usize::MAX).unwrap_err();
        assert!(err.message.contains('@'));
    }

    #[test]
    fn dots_in_identifiers() {
        assert_eq!(kinds("tr.rec.s1"), vec![Tok::Ident("tr.rec.s1".into())]);
    }

    /// The class the `char` rules give an ASCII character, in the order
    /// the grammar tests them.
    fn char_class(c: char) -> Class {
        match c {
            '\n' => Class::Newline,
            c if c.is_whitespace() => Class::Space,
            '/' => Class::Slash,
            '"' => Class::Quote,
            c if c.is_ascii_digit() => Class::Digit,
            c if is_ident_char(c) => Class::Ident,
            '{' | '}' | ';' | ':' | '=' | '&' | '*' | '+' | '-' | '~' | '#' | '?' => Class::Punct,
            _ => Class::Other,
        }
    }

    #[test]
    fn byte_table_matches_the_char_rules() {
        for b in 0..128u8 {
            assert_eq!(
                CLASS[usize::from(b)],
                char_class(char::from(b)),
                "byte {b:#04x}"
            );
        }
        assert!(CLASS[128..].iter().all(|&c| c == Class::NonAscii));
    }

    #[test]
    fn non_ascii_identifiers_and_whitespace() {
        assert_eq!(
            kinds("þorn\u{3000}x′\u{85}é1"),
            vec![
                Tok::Ident("þorn".into()),
                Tok::Ident("x′".into()),
                Tok::Ident("é1".into())
            ]
        );
        let err = lex("a\u{2028}→", usize::MAX).unwrap_err();
        assert_eq!(err.message, "unexpected character '→'");
    }

    #[test]
    fn token_cap_counts_past_the_cap() {
        let err = lex("a b c d", 2).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::InputTooLarge);
        assert_eq!(err.message, "document has 4 tokens; the limit is 2");
        // A lexing error anywhere still comes first.
        assert_eq!(lex("a b c @", 2).unwrap_err().kind, ParseErrorKind::Syntax);
        assert_eq!(lex("a b", 2).unwrap().len(), 2);
    }
}
