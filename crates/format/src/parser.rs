//! Recursive-descent parser for the `.cpn` format.

use crate::lexer::{lex, Token, TokenKind};
use cpn_petri::{PetriNet, PlaceId};
use cpn_stg::{Edge, Guard, Signal, SignalDir, Stg};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
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

/// A recursive-descent parser over borrowed tokens.
///
/// Every error it reports keeps the message and line of the former
/// owned-token parser, which the differential suite holds it to.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// The place names of the net being parsed, for resolving arcs.
    places: HashMap<&'a str, PlaceId>,
    /// Arc buffers, reused across transitions.
    pre: Vec<PlaceId>,
    post: Vec<PlaceId>,
}

/// How an error names the token it found.
fn found(token: Option<Token<'_>>) -> String {
    token.map_or("end of input".to_owned(), |t| t.kind.to_string())
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<TokenKind<'a>> {
        self.tokens.get(self.pos).map(|t| t.kind)
    }

    fn line(&self) -> usize {
        self.tokens.get(self.pos).map_or(0, |t| t.line)
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).copied();
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

    /// An error about the token just consumed (line 0 past the end).
    fn err_at(token: Option<Token<'_>>, message: String) -> ParseError {
        ParseError {
            message,
            line: token.map_or(0, |t| t.line),
            kind: ParseErrorKind::Syntax,
        }
    }

    // The brace-depth cap needs no counter here: `make_parser` scanned
    // every brace before the descent, and the descent consumes braces
    // in that order.
    fn expect_punct(&mut self, c: u8) -> Result<(), ParseError> {
        match self.bump() {
            Some(Token {
                kind: TokenKind::Punct(p),
                ..
            }) if p == c => Ok(()),
            other => Err(Self::err_at(
                other,
                format!("expected `{}`, found {}", char::from(c), found(other)),
            )),
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.bump() {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) => Ok(s),
            other => Err(Self::err_at(
                other,
                format!("expected identifier, found {}", found(other)),
            )),
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

    fn eat_punct(&mut self, c: u8) -> bool {
        if self.peek() == Some(TokenKind::Punct(c)) {
            self.pos += 1;
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

    /// How many identifiers and strings come before the next `}`: the
    /// entries of the section being read, to reserve room for them.
    fn items_before_close(&self) -> usize {
        self.tokens
            .get(self.pos..)
            .unwrap_or_default()
            .iter()
            .take_while(|t| t.kind != TokenKind::Punct(b'}'))
            .filter(|t| matches!(t.kind, TokenKind::Ident(_) | TokenKind::Str(_)))
            .count()
    }

    /// `places { name (*N?)? ... }` — adds the places in order through
    /// `add` and maps their names to their ids.
    fn parse_places<F>(&mut self, mut add: F) -> Result<(), ParseError>
    where
        F: FnMut(&str, u32) -> PlaceId,
    {
        self.expect_keyword("places")?;
        self.expect_punct(b'{')?;
        self.places.clear();
        // Room for every name the section lists, so the map never grows
        // (growing it rehashes every name).
        self.places.reserve(self.items_before_close());
        loop {
            if self.eat_punct(b'}') {
                break;
            }
            let line = self.line();
            let name = self.expect_ident()?;
            if self.places.contains_key(name) {
                return Err(ParseError {
                    kind: ParseErrorKind::Syntax,
                    message: format!("duplicate place `{name}`"),
                    line,
                });
            }
            let mut tokens_count = 0u32;
            if self.eat_punct(b'*') {
                tokens_count = match self.peek() {
                    Some(TokenKind::Number(n)) => {
                        self.pos += 1;
                        n
                    }
                    _ => 1,
                };
            }
            self.places.insert(name, add(name, tokens_count));
        }
        Ok(())
    }

    /// The places named up to the next non-identifier, into the `post`
    /// buffer or the `pre` one.
    fn parse_arcs(&mut self, post: bool) -> Result<(), ParseError> {
        let out = if post { &mut self.post } else { &mut self.pre };
        out.clear();
        while let Some(&Token {
            kind: TokenKind::Ident(name),
            line,
        }) = self.tokens.get(self.pos)
        {
            self.pos += 1;
            out.push(*self.places.get(name).ok_or_else(|| ParseError {
                kind: ParseErrorKind::Syntax,
                message: format!("unknown place `{name}`"),
                line,
            })?);
        }
        Ok(())
    }

    /// `{ pre: a b; post: c d }` (either list may be empty), into the
    /// `pre` and `post` buffers.
    fn parse_flows(&mut self) -> Result<(), ParseError> {
        self.expect_punct(b'{')?;
        self.expect_keyword("pre")?;
        self.expect_punct(b':')?;
        self.parse_arcs(false)?;
        self.expect_punct(b';')?;
        self.expect_keyword("post")?;
        self.expect_punct(b':')?;
        self.parse_arcs(true)?;
        self.expect_punct(b'}')
    }

    fn expect_str(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let line = self.line();
        match self.bump() {
            Some(Token {
                kind: TokenKind::Str(lit),
                ..
            }) => Ok(lit.value()),
            other => Err(ParseError {
                kind: ParseErrorKind::Syntax,
                message: format!("expected quoted label, found {}", found(other)),
                line,
            }),
        }
    }

    /// The body of a `net` item, after its opening `{`: a `places`
    /// section, an optional `symbols` alphabet section, then
    /// transitions until the closing `}`.
    fn parse_net_body(&mut self) -> Result<PetriNet<String>, ParseError> {
        let mut net: PetriNet<String> = PetriNet::new();
        self.parse_places(|n, tok| {
            let id = net.add_place(n);
            net.set_initial(id, tok);
            id
        })?;
        // Optional explicit symbol table: quoted labels declared in the
        // alphabet whether or not any transition carries them (the
        // alphabet is part of the net per Definition 2.1, and parallel
        // composition synchronizes on it).
        if self.eat_keyword("symbols") {
            self.expect_punct(b'{')?;
            net.reserve_labels(self.items_before_close());
            loop {
                if self.eat_punct(b'}') {
                    break;
                }
                let label = self.expect_str()?;
                let sym = net.intern_str(&label);
                net.declare_sym(sym);
            }
        }
        loop {
            if self.eat_punct(b'}') {
                break;
            }
            let line = self.line();
            self.expect_keyword("transition")?;
            let label = self.expect_str()?;
            self.parse_flows()?;
            let sym = net.intern_str(&label);
            net.add_transition_sym(self.pre.iter().copied(), sym, self.post.iter().copied())
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
        self.expect_punct(b'{')?;
        let net = self.parse_net_body()?;
        Ok((name.to_owned(), net))
    }

    /// A quoted-label list section: `KEYWORD { "a" "b" … }`.
    fn parse_label_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect_punct(b'{')?;
        let mut out = Vec::new();
        loop {
            if self.eat_punct(b'}') {
                break;
            }
            out.push(self.expect_str()?.into_owned());
        }
        Ok(out)
    }

    /// `module NAME { [inputs {…}] [outputs {…}] net { … } }`
    fn parse_module(&mut self) -> Result<LibModule, ParseError> {
        let name = self.expect_ident()?;
        self.expect_punct(b'{')?;
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
        self.expect_punct(b'{')?;
        let net = self.parse_net_body()?;
        self.expect_punct(b'}')?;
        Ok(LibModule {
            name: name.to_owned(),
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
        self.expect_punct(b'{')?;
        let mut rename = BTreeMap::new();
        if self.eat_keyword("rename") {
            self.expect_punct(b'{')?;
            loop {
                if self.eat_punct(b'}') {
                    break;
                }
                let line = self.line();
                let from = self.expect_str()?.into_owned();
                self.expect_punct(b'=')?;
                let to = self.expect_str()?.into_owned();
                if rename.contains_key(&from) {
                    return Err(ParseError {
                        kind: ParseErrorKind::Syntax,
                        message: format!("label {from:?} renamed twice"),
                        line,
                    });
                }
                rename.insert(from, to);
            }
        }
        self.expect_punct(b'}')?;
        Ok(LibInstance {
            name: name.to_owned(),
            module: module.to_owned(),
            rename,
        })
    }

    fn parse_edge_suffix(&mut self) -> Result<Edge, ParseError> {
        match self.bump() {
            Some(
                t @ Token {
                    kind: TokenKind::Punct(c),
                    ..
                },
            ) => Edge::from_suffix(char::from(c)).ok_or_else(|| {
                Self::err_at(Some(t), format!("`{}` is not a signal edge", char::from(c)))
            }),
            other => Err(Self::err_at(
                other,
                format!("expected signal edge suffix, found {}", found(other)),
            )),
        }
    }

    fn parse_guard(&mut self) -> Result<Guard, ParseError> {
        self.expect_punct(b'{')?;
        let mut guard = Guard::new();
        loop {
            let line = self.line();
            let name = self.expect_ident()?;
            self.expect_punct(b'=')?;
            let value = match self.bump() {
                Some(Token {
                    kind: TokenKind::Number(0),
                    ..
                }) => false,
                Some(Token {
                    kind: TokenKind::Number(1),
                    ..
                }) => true,
                other => {
                    return Err(ParseError {
                        kind: ParseErrorKind::Syntax,
                        message: format!("guard value must be 0 or 1, found {}", found(other)),
                        line,
                    })
                }
            };
            guard = guard.require(Signal::new(name), value);
            if !self.eat_punct(b'&') {
                break;
            }
        }
        self.expect_punct(b'}')?;
        Ok(guard)
    }

    fn parse_stg(&mut self) -> Result<(String, Stg), ParseError> {
        let name = self.expect_ident()?;
        self.expect_punct(b'{')?;
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
                stg.try_add_signal(sig, dir).map_err(|e| ParseError {
                    kind: ParseErrorKind::Syntax,
                    message: e.to_string(),
                    line,
                })?;
                if self.eat_punct(b';') {
                    break;
                }
            }
        }

        self.parse_places(|n, tok| {
            let id = stg.add_place(n);
            stg.set_initial(id, tok);
            id
        })?;

        loop {
            if self.eat_punct(b'}') {
                break;
            }
            let line = self.line();
            let added = if self.eat_keyword("dummy") {
                self.parse_flows()?;
                stg.add_dummy(self.pre.iter().copied(), self.post.iter().copied())
            } else {
                self.expect_keyword("transition")?;
                let sig = self.expect_ident()?;
                let edge = self.parse_edge_suffix()?;
                self.parse_flows()?;
                stg.add_signal_transition(
                    self.pre.iter().copied(),
                    (Signal::new(sig), edge),
                    self.post.iter().copied(),
                )
            };
            let tid = added.map_err(|e| ParseError {
                kind: ParseErrorKind::Syntax,
                message: e.to_string(),
                line,
            })?;
            if self.eat_keyword("guard") {
                let guard = self.parse_guard()?;
                stg.set_guard(tid, guard);
            }
        }
        Ok((name.to_owned(), stg))
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
/// [`parse_lib_with_limits`]. The caps apply in order: bytes before
/// lexing, tokens after it, then brace depth before the descent.
fn make_parser<'a>(input: &'a str, limits: &ParseLimits) -> Result<Parser<'a>, ParseError> {
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
    let tokens = lex(input, limits.max_tokens)?;
    // Brace-depth pre-scan: the grammar is flat, so any brace run past
    // the cap is adversarial; rejecting here (rather than only inside
    // the descent, which bails on the grammar error first) guarantees
    // the typed error regardless of which production trips.
    let mut depth = 0usize;
    for t in &tokens {
        match t.kind {
            TokenKind::Punct(b'{') => {
                depth += 1;
                if depth > limits.max_depth {
                    return Err(ParseError {
                        message: format!("brace nesting exceeds depth limit {}", limits.max_depth),
                        line: t.line,
                        kind: ParseErrorKind::NestingTooDeep,
                    });
                }
            }
            TokenKind::Punct(b'}') => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    Ok(Parser {
        tokens,
        pos: 0,
        places: HashMap::new(),
        pre: Vec::new(),
        post: Vec::new(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_net() {
        let doc = parse(
            r#"net cycle {
                places { p* q }
                transition "a" { pre: p; post: q }
                transition "b" { pre: q; post: p }
            }"#,
        )
        .unwrap();
        let (name, net) = &doc.nets[0];
        assert_eq!(name, "cycle");
        assert_eq!(net.place_count(), 2);
        assert_eq!(net.transition_count(), 2);
        assert_eq!(net.initial_marking().total(), 1);
    }

    #[test]
    fn parse_multi_token_marking() {
        let doc = parse("net n { places { p*3 } }").unwrap();
        assert_eq!(doc.nets[0].1.initial_marking().total(), 3);
    }

    #[test]
    fn parse_stg_with_guard_and_dummy() {
        let doc = parse(
            r#"stg t {
                input DATA; output x;
                places { p* q r }
                dummy { pre: p; post: q }
                transition x+ { pre: q; post: r } guard { DATA=1 }
            }"#,
        )
        .unwrap();
        let (_, stg) = &doc.stgs[0];
        assert_eq!(stg.signals().len(), 2);
        assert_eq!(stg.net().transition_count(), 2);
        let guarded = cpn_petri::TransitionId::from_index(1);
        assert!(!stg.guard(guarded).is_true());
    }

    #[test]
    fn parse_all_edge_suffixes() {
        let doc = parse(
            r#"stg t {
                output x;
                places { p* }
                transition x+ { pre: p; post: p }
                transition x- { pre: p; post: p }
                transition x~ { pre: p; post: p }
                transition x= { pre: p; post: p }
                transition x# { pre: p; post: p }
                transition x? { pre: p; post: p }
            }"#,
        )
        .unwrap();
        assert_eq!(doc.stgs[0].1.net().transition_count(), 6);
    }

    #[test]
    fn unknown_place_reported_with_line() {
        let err = parse("net n {\n places { p }\n transition \"a\" { pre: ghost; post: p }\n}")
            .unwrap_err();
        assert!(err.message.contains("ghost"));
        assert_eq!(err.line, 3);
    }

    #[test]
    fn duplicate_place_rejected() {
        let err = parse("net n { places { p p } }").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn undeclared_signal_rejected() {
        let err = parse("stg s { places { p* } transition x+ { pre: p; post: p } }").unwrap_err();
        assert!(err.message.contains("not declared"));
    }

    #[test]
    fn junk_toplevel_rejected() {
        let err = parse("widget w { }").unwrap_err();
        assert!(err.message.contains("expected `net` or `stg`"));
    }

    #[test]
    fn empty_input_is_empty_document() {
        let doc = parse("").unwrap();
        assert!(doc.nets.is_empty() && doc.stgs.is_empty());
    }

    #[test]
    fn signal_list_declaration() {
        let doc = parse("stg s { input a b c; places { p* } }").unwrap();
        assert_eq!(doc.stgs[0].1.signals().len(), 3);
    }

    #[test]
    fn input_byte_cap_reports_typed_error() {
        let limits = ParseLimits {
            max_input_bytes: 16,
            ..ParseLimits::default()
        };
        let err = parse_with_limits("net n { places { p } }", &limits).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::InputTooLarge);
        assert!(err.message.contains("bytes"));
    }

    #[test]
    fn token_cap_reports_typed_error() {
        let limits = ParseLimits {
            max_tokens: 4,
            ..ParseLimits::default()
        };
        let err = parse_with_limits("net n { places { p } }", &limits).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::InputTooLarge);
        assert!(err.message.contains("tokens"));
    }

    #[test]
    fn deep_brace_nesting_reports_typed_error_without_overflow() {
        // A pathological run of opening braces. The grammar is flat, so
        // legitimate documents never get near the cap; the parser must
        // reject the run with a typed error rather than recurse or loop.
        let doc = format!("net n {}", "{".repeat(100_000));
        let err = parse(&doc).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::NestingTooDeep);
    }

    #[test]
    fn well_formed_document_fits_default_depth() {
        // The deepest well-formed construct is 2 braces (net → section);
        // the default cap of 64 leaves a wide margin.
        let doc = parse(
            r#"net d {
                places { p* q }
                transition "a" { pre: p; post: q }
            }"#,
        )
        .unwrap();
        assert_eq!(doc.nets.len(), 1);
    }

    #[test]
    fn symbols_section_declares_alphabet() {
        let doc = parse(
            r#"net n {
                places { p* }
                symbols { "a" "quiet" }
                transition "a" { pre: p; post: p }
            }"#,
        )
        .unwrap();
        let net = &doc.nets[0].1;
        assert!(net.alphabet_contains(&"quiet".to_owned()));
        assert_eq!(net.alphabet_len(), 2);
        assert_eq!(net.transition_count(), 1);
    }

    #[test]
    fn lib_document_parses_modules_and_instances() {
        let lib = parse_lib(
            r#"module wire {
                inputs { "in" }
                outputs { "out" }
                net {
                    places { w }
                    transition "in" { pre: ; post: w }
                    transition "out" { pre: w; post: }
                }
            }
            instance w1 of wire { rename { "in" = "a" "out" = "b" } }
            instance w2 of wire { }"#,
        )
        .unwrap();
        assert_eq!(lib.modules.len(), 1);
        assert_eq!(lib.modules[0].name, "wire");
        assert_eq!(lib.modules[0].net.transition_count(), 2);
        assert_eq!(lib.instances.len(), 2);
        assert_eq!(lib.instances[0].rename.len(), 2);
        assert!(lib.instances[1].rename.is_empty());
    }

    #[test]
    fn lib_duplicate_rename_rejected() {
        let err = parse_lib(
            r#"module m { net { places { p* } } }
               instance i of m { rename { "a" = "b" "a" = "c" } }"#,
        )
        .unwrap_err();
        assert!(err.message.contains("renamed twice"));
    }

    #[test]
    fn lib_junk_toplevel_rejected() {
        let err = parse_lib("net n { places { p } }").unwrap_err();
        assert!(err.message.contains("expected `module` or `instance`"));
    }

    #[test]
    fn syntax_errors_keep_syntax_kind() {
        let err = parse("net n { places { p p } }").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::Syntax);
        let err = parse("net n {").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::Syntax);
    }
}
