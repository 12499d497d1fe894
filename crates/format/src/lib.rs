//! A text format (`.cpn`) for labeled Petri nets and STGs.
//!
//! The paper's prototype was "a LISP implementation" (Section 6); an
//! interchange format is the modern equivalent of its s-expressions and
//! makes the repository's models inspectable and scriptable. The format
//! is line-oriented and astg-inspired:
//!
//! ```text
//! net counter {
//!   places { p0*2 p1 }
//!   transition "tick" { pre: p0; post: p1 }
//!   transition "tock" { pre: p1; post: p0 }
//! }
//!
//! stg handshake {
//!   input req;
//!   output ack;
//!   places { p0* p1 p2 p3 }
//!   transition req+ { pre: p0; post: p1 }
//!   transition ack+ { pre: p1; post: p2 }
//!   transition req- { pre: p2; post: p3 }
//!   transition ack- { pre: p3; post: p0 }
//! }
//! ```
//!
//! * `p*` marks one initial token, `p*N` marks `N`.
//! * Generic net labels are quoted strings; STG labels are
//!   `signal` + suffix (`+ - ~ = # ?`), `dummy` is ε.
//! * STG transitions may carry a guard:
//!   `transition x+ { pre: a; post: b } guard { DATA=1 & STROBE=0 }`.
//!
//! [`parse`] and the [`write_net`]/[`write_stg`] printers round-trip
//! (property-tested).

mod lexer;
pub mod parser;
pub mod writer;

pub use parser::{
    parse, parse_lib, parse_lib_with_limits, parse_with_limits, Document, LibDocument, LibInstance,
    LibModule, ParseError, ParseErrorKind, ParseLimits,
};
pub use writer::{
    write_document, write_lib, write_lib_instance, write_lib_module, write_net,
    write_net_canonical, write_stg,
};
