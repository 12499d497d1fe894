//! Tokenizer for the `.cpn` format.

use std::fmt;

/// A token with its line number (for error messages).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
}

/// Token kinds of the `.cpn` grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier (also used for keywords; the parser distinguishes).
    Ident(String),
    /// A quoted string literal (generic net labels).
    Str(String),
    /// A non-negative integer.
    Number(u32),
    /// A single punctuation character: `{ } ; : = & * + - ~ # ?`.
    Punct(char),
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Str(s) => write!(f, "string {s:?}"),
            TokenKind::Number(n) => write!(f, "number {n}"),
            TokenKind::Punct(c) => write!(f, "`{c}`"),
        }
    }
}

/// A lexing error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Whether a character may appear in an identifier. Dots are allowed so
/// generated place names (`tr.rec.s1`) survive round-trips.
fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '.' | '\'' | '′' | '(' | ')' | ',')
}

/// Tokenizes the input.
///
/// `//` starts a comment running to end of line (`#` is the unstable
/// signal-edge suffix, so hash comments would be ambiguous).
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated strings or unexpected
/// characters.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                if chars.peek() != Some(&'/') {
                    return Err(LexError {
                        message: "expected `//` comment".into(),
                        line,
                    });
                }
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some(e) => s.push(e),
                            None => {
                                return Err(LexError {
                                    message: "unterminated string escape".into(),
                                    line,
                                })
                            }
                        },
                        Some('\n') => {
                            return Err(LexError {
                                message: "newline in string".into(),
                                line,
                            })
                        }
                        Some(c) => s.push(c),
                        None => {
                            return Err(LexError {
                                message: "unterminated string".into(),
                                line,
                            })
                        }
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let mut n: u32 = 0;
                while let Some(&d) = chars.peek() {
                    // A digit followed by identifier characters is an
                    // identifier like `0ack` — disallowed; place names in
                    // this grammar never start with a digit.
                    if d.is_ascii_digit() {
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(d as u32 - '0' as u32))
                            .ok_or_else(|| LexError {
                                message: "number too large".into(),
                                line,
                            })?;
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Number(n),
                    line,
                });
            }
            c if is_ident_char(c) => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if is_ident_char(d) {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(s),
                    line,
                });
            }
            '{' | '}' | ';' | ':' | '=' | '&' | '*' | '+' | '-' | '~' | '#' | '?' => {
                tokens.push(Token {
                    kind: TokenKind::Punct(c),
                    line,
                });
                chars.next();
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character {other:?}"),
                    line,
                })
            }
        }
    }
    Ok(tokens)
}
