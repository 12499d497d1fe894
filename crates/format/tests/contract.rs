//! The parse contract that serve's `bad-request` replies expose: each
//! `ParseLimits` cap at its boundary, the order the caps are checked
//! in, and the line number of every kind of error. Messages are pinned
//! verbatim, because clients see them.

use cpn_format::{
    parse, parse_lib_with_limits, parse_with_limits, ParseError, ParseErrorKind, ParseLimits,
};

const NET: &str = "net n {\n  places { p* q }\n  transition \"a\" { pre: p; post: q }\n}\n";
/// Tokens of [`NET`].
const NET_TOKENS: usize = 21;
/// Brace depth of [`NET`], reached on line 2.
const NET_DEPTH: usize = 2;

const LIB: &str = "module m {\n  inputs { \"a\" }\n  net {\n    places { p* q }\n    \
                   transition \"a\" { pre: p; post: q }\n  }\n}\n\
                   instance i of m { rename { \"a\" = \"b\" } }\n";
/// Tokens of [`LIB`].
const LIB_TOKENS: usize = 40;
/// Brace depth of [`LIB`], reached on line 4.
const LIB_DEPTH: usize = 3;

fn limits(max_input_bytes: usize, max_tokens: usize, max_depth: usize) -> ParseLimits {
    ParseLimits {
        max_input_bytes,
        max_tokens,
        max_depth,
    }
}

fn error(kind: ParseErrorKind, line: usize, message: &str) -> ParseError {
    ParseError {
        message: message.to_owned(),
        line,
        kind,
    }
}

fn net_err(doc: &str, limits: &ParseLimits) -> ParseError {
    parse_with_limits(doc, limits).expect_err("the document must be rejected")
}

fn lib_err(doc: &str, limits: &ParseLimits) -> ParseError {
    parse_lib_with_limits(doc, limits).expect_err("the document must be rejected")
}

fn syntax(doc: &str) -> ParseError {
    let err = parse(doc).expect_err("the document must be rejected");
    assert_eq!(err.kind, ParseErrorKind::Syntax, "{err}");
    err
}

#[test]
fn byte_cap_boundary() {
    let n = NET.len();
    assert!(parse_with_limits(NET, &limits(n, NET_TOKENS, NET_DEPTH)).is_ok());
    assert_eq!(
        net_err(NET, &limits(n - 1, NET_TOKENS, NET_DEPTH)),
        error(
            ParseErrorKind::InputTooLarge,
            0,
            &format!("document is {n} bytes; the limit is {}", n - 1)
        )
    );
    let n = LIB.len();
    assert!(parse_lib_with_limits(LIB, &limits(n, LIB_TOKENS, LIB_DEPTH)).is_ok());
    assert_eq!(
        lib_err(LIB, &limits(n - 1, LIB_TOKENS, LIB_DEPTH)),
        error(
            ParseErrorKind::InputTooLarge,
            0,
            &format!("document is {n} bytes; the limit is {}", n - 1)
        )
    );
}

#[test]
fn token_cap_boundary() {
    assert!(parse_with_limits(NET, &limits(NET.len(), NET_TOKENS, NET_DEPTH)).is_ok());
    assert_eq!(
        net_err(NET, &limits(NET.len(), NET_TOKENS - 1, NET_DEPTH)),
        error(
            ParseErrorKind::InputTooLarge,
            0,
            "document has 21 tokens; the limit is 20"
        )
    );
    assert!(parse_lib_with_limits(LIB, &limits(LIB.len(), LIB_TOKENS, LIB_DEPTH)).is_ok());
    assert_eq!(
        lib_err(LIB, &limits(LIB.len(), LIB_TOKENS - 1, LIB_DEPTH)),
        error(
            ParseErrorKind::InputTooLarge,
            0,
            "document has 40 tokens; the limit is 39"
        )
    );
}

#[test]
fn depth_cap_boundary() {
    assert!(parse_with_limits(NET, &limits(NET.len(), NET_TOKENS, NET_DEPTH)).is_ok());
    assert_eq!(
        net_err(NET, &limits(NET.len(), NET_TOKENS, NET_DEPTH - 1)),
        error(
            ParseErrorKind::NestingTooDeep,
            2,
            "brace nesting exceeds depth limit 1"
        )
    );
    assert!(parse_lib_with_limits(LIB, &limits(LIB.len(), LIB_TOKENS, LIB_DEPTH)).is_ok());
    assert_eq!(
        lib_err(LIB, &limits(LIB.len(), LIB_TOKENS, LIB_DEPTH - 1)),
        error(
            ParseErrorKind::NestingTooDeep,
            4,
            "brace nesting exceeds depth limit 2"
        )
    );
}

#[test]
fn caps_apply_in_order_bytes_lexing_tokens_depth_grammar() {
    // The byte cap comes before lexing: the stray `@` is never seen.
    assert_eq!(
        net_err("net n { @ }", &limits(4, 100, 64)),
        error(
            ParseErrorKind::InputTooLarge,
            0,
            "document is 11 bytes; the limit is 4"
        )
    );
    // A lexing error comes before the token cap.
    assert_eq!(
        net_err("net n { @ }", &limits(100, 1, 64)),
        error(ParseErrorKind::Syntax, 1, "unexpected character '@'")
    );
    // A lexing error after a brace run still comes before the depth cap.
    assert_eq!(
        net_err("{{{{\n@", &limits(100, 100, 1)),
        error(ParseErrorKind::Syntax, 2, "unexpected character '@'")
    );
    // The token cap comes before the depth scan.
    assert_eq!(
        net_err("{{{{", &limits(100, 2, 1)),
        error(
            ParseErrorKind::InputTooLarge,
            0,
            "document has 4 tokens; the limit is 2"
        )
    );
    // The depth scan comes before the descent, which would stop at the
    // first token.
    assert_eq!(
        net_err("widget\n{{{", &limits(100, 100, 2)),
        error(
            ParseErrorKind::NestingTooDeep,
            2,
            "brace nesting exceeds depth limit 2"
        )
    );
    assert_eq!(
        lib_err("net n {{{", &limits(100, 100, 2)),
        error(
            ParseErrorKind::NestingTooDeep,
            1,
            "brace nesting exceeds depth limit 2"
        )
    );
    // Closing braces never take the depth below zero.
    assert_eq!(
        net_err("}}}}\n{{{", &limits(100, 100, 2)),
        error(
            ParseErrorKind::NestingTooDeep,
            2,
            "brace nesting exceeds depth limit 2"
        )
    );
}

#[test]
fn comment_lines_count() {
    assert_eq!(
        syntax("// one\n// two\nnet n { places { p p } }"),
        error(ParseErrorKind::Syntax, 3, "duplicate place `p`")
    );
    assert_eq!(
        syntax("net n { // trailing\n places { p }\n} /"),
        error(ParseErrorKind::Syntax, 3, "expected `//` comment")
    );
    // A comment at the end of the input needs no newline.
    assert!(parse("net n { places { p } } // done").is_ok());
}

#[test]
fn crlf_counts_one_line() {
    assert_eq!(
        syntax("net n {\r\n  places { p }\r\n  transition \"a\" { pre: ghost; post: p }\r\n}\r\n"),
        error(ParseErrorKind::Syntax, 3, "unknown place `ghost`")
    );
}

#[test]
fn unicode_line_separators_are_whitespace_not_line_breaks() {
    // U+0085 (next line), U+2028 (line separator) and U+2029 (paragraph
    // separator) separate tokens but do not advance the line count.
    assert_eq!(
        syntax("net n {\u{85}places {\u{2028}p\u{2029}p } }"),
        error(ParseErrorKind::Syntax, 1, "duplicate place `p`")
    );
    assert_eq!(
        syntax("net n {\u{85}\n places {\u{2028}p\u{85}p } }"),
        error(ParseErrorKind::Syntax, 2, "duplicate place `p`")
    );
}

#[test]
fn escaped_quote_stays_in_the_label() {
    assert_eq!(
        syntax(
            "net n {\n  places { p }\n  transition \"say \\\"hi\\\"\" { pre: ghost; post: p }\n}"
        ),
        error(ParseErrorKind::Syntax, 3, "unknown place `ghost`")
    );
    let doc = parse("net n { places { p* } transition \"say \\\"hi\\\"\" { pre: p; post: p } }")
        .expect("escaped quotes parse");
    let net = &doc.nets[0].1;
    assert_eq!(
        net.label_of(cpn_petri::TransitionId::from_index(0)),
        "say \"hi\""
    );
    // An unexpected token quoted in a message shows the decoded label.
    assert_eq!(
        syntax("net n { places { p } symbols { } \"a\\\"b\" }"),
        error(
            ParseErrorKind::Syntax,
            1,
            "expected identifier, found string \"a\\\"b\""
        )
    );
}

#[test]
fn escaped_newline_does_not_advance_the_line() {
    // A backslash takes the next character literally, a newline
    // included, and the line count does not see it.
    assert_eq!(
        syntax("net n {\n places { p* }\n transition \"a\\\nb\" { pre: p; post: p }\n ghost\n}"),
        error(
            ParseErrorKind::Syntax,
            4,
            "expected `transition`, found `ghost`"
        )
    );
}

#[test]
fn newline_in_string() {
    assert_eq!(
        syntax("net n {\n places { p }\n transition \"a\nb\" { pre: p; post: p }\n}"),
        error(ParseErrorKind::Syntax, 3, "newline in string")
    );
    assert_eq!(
        syntax("net n {\n transition \"a"),
        error(ParseErrorKind::Syntax, 2, "unterminated string")
    );
    assert_eq!(
        syntax("net n {\n transition \"a\\"),
        error(ParseErrorKind::Syntax, 2, "unterminated string escape")
    );
}

#[test]
fn number_too_large() {
    assert!(parse("net n {\n places { p*4294967295 } }").is_ok());
    assert_eq!(
        syntax("net n {\n places { p*4294967296 } }"),
        error(ParseErrorKind::Syntax, 2, "number too large")
    );
}

#[test]
fn end_of_input_errors_are_line_zero() {
    let eoi = |doc: &str, message: &str| {
        assert_eq!(
            syntax(doc),
            error(ParseErrorKind::Syntax, 0, message),
            "{doc:?}"
        );
    };
    eoi("net n", "expected `{`, found end of input");
    eoi("net n {", "expected identifier, found end of input");
    eoi(
        "net n {\n places { p }",
        "expected identifier, found end of input",
    );
    eoi(
        "net n {\n places { p* }\n transition",
        "expected quoted label, found end of input",
    );
    eoi(
        "net n {\n places { p* }\n transition \"a\" { pre: p; post: p }",
        "expected identifier, found end of input",
    );
    eoi(
        "stg s {\n output x;\n places { p* }\n transition x",
        "expected signal edge suffix, found end of input",
    );
    // A guard value reports the line of its signal, even at the end.
    assert_eq!(
        syntax("stg s {\n input D; output x;\n places { p* }\n transition x+ { pre: p; post: p } guard { D="),
        error(
            ParseErrorKind::Syntax,
            4,
            "guard value must be 0 or 1, found end of input"
        )
    );
}
