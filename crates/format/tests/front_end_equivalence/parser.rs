//! Recursive-descent parser for the `.cpn` format.

use crate::lexer::{lex, LexError, Token, TokenKind};
use cpn_petri::{PetriNet, PlaceId};
use cpn_stg::{Edge, Guard, Signal, SignalDir, Stg};
use std::collections::BTreeMap;
use std::fmt;

/// A parsed `.cpn` document: named generic nets and named STGs, in
/// source order.
#[derive(Debug, Default)]
pub struct Document {
    /// `net NAME { … }` items (labels are free-form strings).
    pub nets: Vec<(String, PetriNet<String>)>,
    /// `stg NAME { … }` items.
    pub stgs: Vec<(String, Stg)>,
}

/// A named module of a `.cpnlib` document: a behaviour net plus its
/// interface alphabets. Plain data — interface validation and
/// instantiation live in `cpn-core`'s `ModuleLib`.
#[derive(Debug, Clone)]
pub struct LibModule {
    /// The module's library name.
    pub name: String,
    /// Input action labels.
    pub inputs: Vec<String>,
    /// Output action labels.
    pub outputs: Vec<String>,
    /// The behaviour net.
    pub net: PetriNet<String>,
}

/// An instantiation item of a `.cpnlib` document: stamp out `module`
/// under `rename`.
#[derive(Debug, Clone)]
pub struct LibInstance {
    /// The instance's name.
    pub name: String,
    /// The library module being instantiated.
    pub module: String,
    /// Injective label renaming `old → new` applied at instantiation.
    pub rename: BTreeMap<String, String>,
}

/// A parsed `.cpnlib` module-library document: named modules and their
/// instantiations, in source order.
#[derive(Debug, Default)]
pub struct LibDocument {
    /// `module NAME { … }` items.
    pub modules: Vec<LibModule>,
    /// `instance NAME of MODULE { … }` items.
    pub instances: Vec<LibInstance>,
}

/// The broad class of a [`ParseError`], so resource-limit rejections
/// (which a caller may want to answer differently from plain syntax
/// errors, e.g. a server shedding an adversarial document) are typed
/// rather than string-matched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// Malformed input (lexing or grammar).
    #[default]
    Syntax,
    /// Brace nesting exceeded [`ParseLimits::max_depth`].
    NestingTooDeep,
    /// The document exceeded a size cap ([`ParseLimits::max_input_bytes`]
    /// or [`ParseLimits::max_tokens`]).
    InputTooLarge,
}

/// Resource caps applied while parsing untrusted `.cpn` documents.
///
/// The grammar itself is non-recursive, so the depth cap is a guard
/// rail for future grammar growth and for adversarial brace floods; the
/// size caps bound memory spent on hostile inputs before any net is
/// built. [`parse`] uses `ParseLimits::default()`; callers facing the
/// network (the `cpn-serve` daemon) pass tighter ones via
/// [`parse_with_limits`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum input size in bytes (default 64 MiB).
    pub max_input_bytes: usize,
    /// Maximum number of lexed tokens (default 8M).
    pub max_tokens: usize,
    /// Maximum brace-nesting depth (default 64).
    pub max_depth: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_input_bytes: 64 << 20,
            max_tokens: 8_000_000,
            max_depth: 64,
        }
    }
}

/// A parse error with source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line (0 for end-of-input).
    pub line: usize,
    /// The broad error class (syntax vs. resource limits).
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            kind: ParseErrorKind::Syntax,
        }
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn line(&self) -> usize {
        self.tokens.get(self.pos).map_or(0, |t| t.line)
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        self.pos += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: self.line(),
            kind: ParseErrorKind::Syntax,
        }
    }

    /// Tracks brace depth on every consumed `{`/`}`; exceeding the cap
    /// is a typed [`ParseErrorKind::NestingTooDeep`] error rather than
    /// unbounded work (or, were the grammar ever to become recursive, a
    /// stack overflow).
    fn note_brace(&mut self, c: char) -> Result<(), ParseError> {
        match c {
            '{' => {
                self.depth += 1;
                if self.depth > self.max_depth {
                    return Err(ParseError {
                        message: format!("brace nesting exceeds depth limit {}", self.max_depth),
                        line: self.tokens.get(self.pos - 1).map_or(0, |t| t.line),
                        kind: ParseErrorKind::NestingTooDeep,
                    });
                }
            }
            '}' => self.depth = self.depth.saturating_sub(1),
            _ => {}
        }
        Ok(())
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.bump() {
            Some(TokenKind::Punct(p)) if p == c => {
                self.note_brace(c)?;
                Ok(())
            }
            other => Err(ParseError {
                kind: ParseErrorKind::Syntax,
                message: format!(
                    "expected `{c}`, found {}",
                    other.map_or("end of input".to_owned(), |t| t.to_string())
                ),
                line: self.tokens.get(self.pos - 1).map_or(0, |t| t.line),
            }),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(TokenKind::Ident(s)) => Ok(s),
            other => Err(ParseError {
                kind: ParseErrorKind::Syntax,
                message: format!(
                    "expected identifier, found {}",
                    other.map_or("end of input".to_owned(), |t| t.to_string())
                ),
                line: self.tokens.get(self.pos - 1).map_or(0, |t| t.line),
            }),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let line = self.line();
        let got = self.expect_ident()?;
        if got == kw {
            Ok(())
        } else {
            Err(ParseError {
                kind: ParseErrorKind::Syntax,
                message: format!("expected `{kw}`, found `{got}`"),
                line,
            })
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(&TokenKind::Punct(c)) {
            self.pos += 1;
            // Depth cap violations surface on the next `expect_punct`;
            // `eat` sites only ever consume closing braces or one
            // opening brace per item, so only the counter matters here.
            if c == '{' {
                self.depth += 1;
            } else if c == '}' {
                self.depth = self.depth.saturating_sub(1);
            }
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(TokenKind::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// `places { name (*N?)? ... }` — returns name→id and sets markings.
    fn parse_places<F>(&mut self, mut add: F) -> Result<BTreeMap<String, PlaceId>, ParseError>
    where
        F: FnMut(&str, u32) -> PlaceId,
    {
        self.expect_keyword("places")?;
        self.expect_punct('{')?;
        let mut map = BTreeMap::new();
        loop {
            if self.eat_punct('}') {
                break;
            }
            let line = self.line();
            let name = self.expect_ident()?;
            if map.contains_key(&name) {
                return Err(ParseError {
                    kind: ParseErrorKind::Syntax,
                    message: format!("duplicate place `{name}`"),
                    line,
                });
            }
            let mut tokens_count = 0u32;
            if self.eat_punct('*') {
                tokens_count = match self.peek() {
                    Some(TokenKind::Number(n)) => {
                        let n = *n;
                        self.pos += 1;
                        n
                    }
                    _ => 1,
                };
            }
            let id = add(&name, tokens_count);
            map.insert(name, id);
        }
        Ok(map)
    }

    /// `pre: a b; post: c d` inside braces (either list may be empty).
    fn parse_flows(
        &mut self,
        places: &BTreeMap<String, PlaceId>,
    ) -> Result<(Vec<PlaceId>, Vec<PlaceId>), ParseError> {
        self.expect_punct('{')?;
        self.expect_keyword("pre")?;
        self.expect_punct(':')?;
        let mut pre = Vec::new();
        while let Some(TokenKind::Ident(_)) = self.peek() {
            let line = self.line();
            let name = self.expect_ident()?;
            pre.push(*places.get(&name).ok_or(ParseError {
                kind: ParseErrorKind::Syntax,
                message: format!("unknown place `{name}`"),
                line,
            })?);
        }
        self.expect_punct(';')?;
        self.expect_keyword("post")?;
        self.expect_punct(':')?;
        let mut post = Vec::new();
        while let Some(TokenKind::Ident(_)) = self.peek() {
            let line = self.line();
            let name = self.expect_ident()?;
            post.push(*places.get(&name).ok_or(ParseError {
                kind: ParseErrorKind::Syntax,
                message: format!("unknown place `{name}`"),
                line,
            })?);
        }
        self.expect_punct('}')?;
        Ok((pre, post))
    }

    fn expect_str(&mut self) -> Result<String, ParseError> {
        let line = self.line();
        match self.bump() {
            Some(TokenKind::Str(s)) => Ok(s),
            other => Err(ParseError {
                kind: ParseErrorKind::Syntax,
                message: format!(
                    "expected quoted label, found {}",
                    other.map_or("end of input".to_owned(), |t| t.to_string())
                ),
                line,
            }),
        }
    }

    /// The body of a `net` item, after its opening `{`: a `places`
    /// section, an optional `symbols` alphabet section, then
    /// transitions until the closing `}`.
    fn parse_net_body(&mut self) -> Result<PetriNet<String>, ParseError> {
        let mut net: PetriNet<String> = PetriNet::new();
        let places = self.parse_places(|n, tok| {
            let id = net.add_place(n);
            net.set_initial(id, tok);
            id
        })?;
        // Optional explicit symbol table: quoted labels declared in the
        // alphabet whether or not any transition carries them (the
        // alphabet is part of the net per Definition 2.1, and parallel
        // composition synchronizes on it).
        if self.eat_keyword("symbols") {
            self.expect_punct('{')?;
            loop {
                if self.eat_punct('}') {
                    break;
                }
                let label = self.expect_str()?;
                net.declare_label(label);
            }
        }
        loop {
            if self.eat_punct('}') {
                break;
            }
            let line = self.line();
            self.expect_keyword("transition")?;
            let label = self.expect_str()?;
            let (pre, post) = self.parse_flows(&places)?;
            net.add_transition(pre, label, post)
                .map_err(|e| ParseError {
                    kind: ParseErrorKind::Syntax,
                    message: e.to_string(),
                    line,
                })?;
        }
        Ok(net)
    }

    fn parse_net(&mut self) -> Result<(String, PetriNet<String>), ParseError> {
        let name = self.expect_ident()?;
        self.expect_punct('{')?;
        let net = self.parse_net_body()?;
        Ok((name, net))
    }

    /// A quoted-label list section: `KEYWORD { "a" "b" … }`.
    fn parse_label_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect_punct('{')?;
        let mut out = Vec::new();
        loop {
            if self.eat_punct('}') {
                break;
            }
            out.push(self.expect_str()?);
        }
        Ok(out)
    }

    /// `module NAME { [inputs {…}] [outputs {…}] net { … } }`
    fn parse_module(&mut self) -> Result<LibModule, ParseError> {
        let name = self.expect_ident()?;
        self.expect_punct('{')?;
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        loop {
            if self.eat_keyword("inputs") {
                inputs = self.parse_label_list()?;
            } else if self.eat_keyword("outputs") {
                outputs = self.parse_label_list()?;
            } else {
                break;
            }
        }
        self.expect_keyword("net")?;
        self.expect_punct('{')?;
        let net = self.parse_net_body()?;
        self.expect_punct('}')?;
        Ok(LibModule {
            name,
            inputs,
            outputs,
            net,
        })
    }

    /// `instance NAME of MODULE { [rename { "old" = "new" … }] }`
    fn parse_instance(&mut self) -> Result<LibInstance, ParseError> {
        let name = self.expect_ident()?;
        self.expect_keyword("of")?;
        let module = self.expect_ident()?;
        self.expect_punct('{')?;
        let mut rename = BTreeMap::new();
        if self.eat_keyword("rename") {
            self.expect_punct('{')?;
            loop {
                if self.eat_punct('}') {
                    break;
                }
                let line = self.line();
                let from = self.expect_str()?;
                self.expect_punct('=')?;
                let to = self.expect_str()?;
                if rename.insert(from.clone(), to).is_some() {
                    return Err(ParseError {
                        kind: ParseErrorKind::Syntax,
                        message: format!("label {from:?} renamed twice"),
                        line,
                    });
                }
            }
        }
        self.expect_punct('}')?;
        Ok(LibInstance {
            name,
            module,
            rename,
        })
    }

    fn parse_edge_suffix(&mut self) -> Result<Edge, ParseError> {
        match self.bump() {
            Some(TokenKind::Punct(c)) => Edge::from_suffix(c).ok_or(ParseError {
                kind: ParseErrorKind::Syntax,
                message: format!("`{c}` is not a signal edge"),
                line: self.tokens.get(self.pos - 1).map_or(0, |t| t.line),
            }),
            // `=` is lexed as Punct('='), handled above; nothing else fits.
            other => Err(ParseError {
                kind: ParseErrorKind::Syntax,
                message: format!(
                    "expected signal edge suffix, found {}",
                    other.map_or("end of input".to_owned(), |t| t.to_string())
                ),
                line: self.tokens.get(self.pos - 1).map_or(0, |t| t.line),
            }),
        }
    }

    fn parse_guard(&mut self) -> Result<Guard, ParseError> {
        self.expect_punct('{')?;
        let mut guard = Guard::new();
        loop {
            let line = self.line();
            let name = self.expect_ident()?;
            self.expect_punct('=')?;
            let value = match self.bump() {
                Some(TokenKind::Number(0)) => false,
                Some(TokenKind::Number(1)) => true,
                other => {
                    return Err(ParseError {
                        kind: ParseErrorKind::Syntax,
                        message: format!(
                            "guard value must be 0 or 1, found {}",
                            other.map_or("end of input".to_owned(), |t| t.to_string())
                        ),
                        line,
                    })
                }
            };
            guard = guard.require(Signal::new(name), value);
            if !self.eat_punct('&') {
                break;
            }
        }
        self.expect_punct('}')?;
        Ok(guard)
    }

    fn parse_stg(&mut self) -> Result<(String, Stg), ParseError> {
        let name = self.expect_ident()?;
        self.expect_punct('{')?;
        let mut stg = Stg::new();

        // Signal declarations.
        loop {
            let dir = if self.eat_keyword("input") {
                SignalDir::Input
            } else if self.eat_keyword("output") {
                SignalDir::Output
            } else if self.eat_keyword("internal") {
                SignalDir::Internal
            } else {
                break;
            };
            loop {
                let line = self.line();
                let sig = self.expect_ident()?;
                stg.try_add_signal(&sig, dir).map_err(|e| ParseError {
                    kind: ParseErrorKind::Syntax,
                    message: e.to_string(),
                    line,
                })?;
                if self.eat_punct(';') {
                    break;
                }
            }
        }

        let places = self.parse_places(|n, tok| {
            let id = stg.add_place(n);
            stg.set_initial(id, tok);
            id
        })?;

        loop {
            if self.eat_punct('}') {
                break;
            }
            let line = self.line();
            let tid = if self.eat_keyword("dummy") {
                let (pre, post) = self.parse_flows(&places)?;
                stg.add_dummy(pre, post).map_err(|e| ParseError {
                    kind: ParseErrorKind::Syntax,
                    message: e.to_string(),
                    line,
                })?
            } else {
                self.expect_keyword("transition")?;
                let sig = self.expect_ident()?;
                let edge = self.parse_edge_suffix()?;
                let (pre, post) = self.parse_flows(&places)?;
                stg.add_signal_transition(pre, (Signal::new(sig), edge), post)
                    .map_err(|e| ParseError {
                        kind: ParseErrorKind::Syntax,
                        message: e.to_string(),
                        line,
                    })?
            };
            if self.eat_keyword("guard") {
                let guard = self.parse_guard()?;
                stg.set_guard(tid, guard);
            }
        }
        Ok((name, stg))
    }
}

/// Parses a `.cpn` document.
///
/// # Errors
///
/// [`ParseError`] with the offending line on malformed input.
///
/// # Example
///
/// ```
/// let doc = cpn_format::parse(
///     "net tick { places { p* q } transition \"t\" { pre: p; post: q } }",
/// )?;
/// assert_eq!(doc.nets.len(), 1);
/// assert_eq!(doc.nets[0].1.transition_count(), 1);
/// # Ok::<(), cpn_format::ParseError>(())
/// ```
pub fn parse(input: &str) -> Result<Document, ParseError> {
    parse_with_limits(input, &ParseLimits::default())
}

/// Applies the resource caps and builds a [`Parser`] over the lexed
/// tokens — the shared front half of [`parse_with_limits`] and
/// [`parse_lib_with_limits`].
fn make_parser(input: &str, limits: &ParseLimits) -> Result<Parser, ParseError> {
    if input.len() > limits.max_input_bytes {
        return Err(ParseError {
            message: format!(
                "document is {} bytes; the limit is {}",
                input.len(),
                limits.max_input_bytes
            ),
            line: 0,
            kind: ParseErrorKind::InputTooLarge,
        });
    }
    let tokens = lex(input)?;
    if tokens.len() > limits.max_tokens {
        return Err(ParseError {
            message: format!(
                "document has {} tokens; the limit is {}",
                tokens.len(),
                limits.max_tokens
            ),
            line: 0,
            kind: ParseErrorKind::InputTooLarge,
        });
    }
    // Brace-depth pre-scan: the grammar is flat, so any brace run past
    // the cap is adversarial; rejecting here (rather than only inside
    // the descent, which bails on the grammar error first) guarantees
    // the typed error regardless of which production trips.
    let mut depth = 0usize;
    for t in &tokens {
        match t.kind {
            TokenKind::Punct('{') => {
                depth += 1;
                if depth > limits.max_depth {
                    return Err(ParseError {
                        message: format!("brace nesting exceeds depth limit {}", limits.max_depth),
                        line: t.line,
                        kind: ParseErrorKind::NestingTooDeep,
                    });
                }
            }
            TokenKind::Punct('}') => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    Ok(Parser {
        tokens,
        pos: 0,
        depth: 0,
        max_depth: limits.max_depth,
    })
}

/// [`parse`] with explicit resource caps for untrusted input.
///
/// # Errors
///
/// [`ParseError`] with [`ParseErrorKind::InputTooLarge`] /
/// [`ParseErrorKind::NestingTooDeep`] when a cap trips, or
/// [`ParseErrorKind::Syntax`] on malformed input. Never panics and
/// never recurses on input data, whatever the bytes.
pub fn parse_with_limits(input: &str, limits: &ParseLimits) -> Result<Document, ParseError> {
    let mut p = make_parser(input, limits)?;
    let mut doc = Document::default();
    while p.peek().is_some() {
        if p.eat_keyword("net") {
            doc.nets.push(p.parse_net()?);
        } else if p.eat_keyword("stg") {
            doc.stgs.push(p.parse_stg()?);
        } else {
            return Err(p.err("expected `net` or `stg`"));
        }
    }
    Ok(doc)
}

/// Parses a `.cpnlib` module-library document.
///
/// # Errors
///
/// [`ParseError`] with the offending line on malformed input.
///
/// # Example
///
/// ```
/// let lib = cpn_format::parse_lib(
///     r#"module buf {
///          inputs { "req" } outputs { "ack" }
///          net { places { idle* busy }
///                transition "req" { pre: idle; post: busy }
///                transition "ack" { pre: busy; post: idle } }
///        }
///        instance buf0 of buf { rename { "req" = "r0" "ack" = "a0" } }"#,
/// )?;
/// assert_eq!(lib.modules.len(), 1);
/// assert_eq!(lib.instances[0].rename.len(), 2);
/// # Ok::<(), cpn_format::ParseError>(())
/// ```
pub fn parse_lib(input: &str) -> Result<LibDocument, ParseError> {
    parse_lib_with_limits(input, &ParseLimits::default())
}

/// [`parse_lib`] with explicit resource caps for untrusted input.
///
/// # Errors
///
/// As [`parse_with_limits`]: typed resource-limit errors or syntax
/// errors, never a panic.
pub fn parse_lib_with_limits(input: &str, limits: &ParseLimits) -> Result<LibDocument, ParseError> {
    let mut p = make_parser(input, limits)?;
    let mut doc = LibDocument::default();
    while p.peek().is_some() {
        if p.eat_keyword("module") {
            doc.modules.push(p.parse_module()?);
        } else if p.eat_keyword("instance") {
            doc.instances.push(p.parse_instance()?);
        } else {
            return Err(p.err("expected `module` or `instance`"));
        }
    }
    Ok(doc)
}
