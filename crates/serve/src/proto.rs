//! Typed requests and responses, and their wire codec.
//!
//! A request payload is UTF-8 text: one command line (`verb key=value
//! ...`), then — for verbs that analyse a net — the `.cpn` document on
//! the following lines, exactly as `cpn-format` parses it. Responses
//! are a single line of the same `verb key=value` shape. Reusing the
//! workspace text format keeps the daemon debuggable with `nc`/`socat`
//! and means the server-side document parser is the same hardened
//! [`cpn_format::parse_with_limits`] the rest of the workspace uses.
//!
//! ## Protocol v2 additions
//!
//! * **Correlation ids** — any frame may be prefixed `@<id> ` (a
//!   decimal `u64` chosen by the client); every response frame to that
//!   request carries the same prefix, so a pipelined client matching
//!   out-of-order completions needs no bookkeeping beyond the id. See
//!   [`split_corr`]/[`with_corr`].
//! * **[`Request::Batch`]** — N sub-requests (reach/cover/verify) in
//!   one frame, answered by N [`Response::Item`] frames *in order*
//!   followed by one [`Response::BatchDone`]. Each item is
//!   byte-length-prefixed (`item <len>` line, then exactly `len` bytes
//!   of the sub-request text), so documents containing arbitrary lines
//!   cannot desynchronize the batch. Item framing is validated against
//!   [`BatchLimits`] — per-item size accounting, a cap on the item
//!   count, and **no** allocation sized from attacker-controlled
//!   headers: items are collected incrementally as they actually
//!   arrive.
//! * **[`Request::Verify`]** — the paper pipeline server-side: compose
//!   `module ‖ env`, check receptiveness of the composition, and
//!   reduce the module against the environment (hide the internal
//!   labels). Answered with [`Response::VerifyResult`].
//! * **[`Request::Stats`]** — live service and cache counters,
//!   answered with [`Response::Stats`].
//! * **[`Response::Progress`]** — non-final streamed frames emitted
//!   while a long exploration or verify pipeline runs, when the
//!   request set `stream=true`.

use std::fmt;
use std::time::Duration;

/// Default cap on hiding contractions per label in a server-side
/// verify (the client may lower it with `hide_budget=`).
pub const DEFAULT_HIDE_BUDGET: usize = 100_000;

/// Hard protocol ceiling on items per batch. A server may impose a
/// lower cap via [`BatchLimits`]; beyond this, the frame is rejected
/// regardless of configuration.
pub const MAX_BATCH_ITEMS: usize = 1024;

/// Validation limits for decoding batch frames.
#[derive(Clone, Copy, Debug)]
pub struct BatchLimits {
    /// Maximum number of items in one batch frame.
    pub max_items: usize,
    /// Maximum size in bytes of a single item's sub-request text
    /// (command line + document). Servers derive this from their
    /// `ParseLimits::max_input_bytes`.
    pub max_item_bytes: usize,
}

impl Default for BatchLimits {
    fn default() -> Self {
        BatchLimits {
            max_items: MAX_BATCH_ITEMS,
            max_item_bytes: crate::frame::DEFAULT_MAX_FRAME,
        }
    }
}

/// One entry of a decoded batch.
///
/// Item *framing* errors that can be skipped safely (an oversized
/// per-item length with the bytes still inside the frame) and item
/// *content* errors (a sub-request that does not decode) surface as
/// [`BatchItem::Malformed`] so the server can answer that single item
/// with a typed `BadRequest` while its siblings still run — one bad
/// item must not poison the batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchItem {
    /// A well-formed sub-request (reach, cover, or verify).
    Request(Request),
    /// The item was framed but is not a servable sub-request; the
    /// message explains why.
    Malformed(String),
}

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Live service and cache counters (v2); answered inline.
    Stats,
    /// Explore the reachability graph of the named net in the document.
    Reach {
        /// Name of the `net` item inside `doc` to analyse.
        net: String,
        /// State cap (server further caps this).
        max_states: usize,
        /// Per-request wall-clock deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Accepted and validated (`0` and values above
        /// [`MAX_REQUEST_THREADS`](crate::server::MAX_REQUEST_THREADS)
        /// are rejected), but the exploration itself is sequential;
        /// present so existing clients keep working.
        threads: usize,
        /// Stream non-final [`Response::Progress`] frames while the
        /// exploration runs (v2 connections only; ignored inside a
        /// batch).
        stream: bool,
        /// The `.cpn` document text.
        doc: String,
    },
    /// Build the Karp–Miller coverability tree of the named net.
    Cover {
        /// Name of the `net` item inside `doc` to analyse.
        net: String,
        /// Node cap (server further caps this).
        max_states: usize,
        /// Per-request wall-clock deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Accepted and validated like `Reach::threads`, but the tree
        /// build itself is sequential (Karp–Miller node construction is
        /// inherently ordered); present so clients can set one knob.
        threads: usize,
        /// The `.cpn` document text.
        doc: String,
    },
    /// The paper pipeline server-side (v2): compose `module ‖ env`,
    /// then check receptiveness of the composition and reduce the module
    /// against the environment (dead pruning, hiding of the
    /// environment-internal labels, structural reduction), both from one
    /// exploration of the composition
    /// (`cpn_core::verify_against_environment`).
    Verify {
        /// Name of the module net inside `doc`.
        module: String,
        /// Name of the environment net inside `doc`.
        env: String,
        /// Labels the module drives (outputs of the left operand).
        /// Labels containing whitespace are not expressible on the
        /// wire; commas and `%` are percent-escaped.
        louts: Vec<String>,
        /// Labels the environment drives (outputs of the right operand).
        routs: Vec<String>,
        /// State cap for the exploration of the composition and for the
        /// cleanup pass after hiding.
        max_states: usize,
        /// Per-request wall-clock deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Cap on hiding contractions per hidden label.
        hide_budget: usize,
        /// Stream per-stage [`Response::Progress`] frames.
        stream: bool,
        /// The `.cpn` document text (must contain both nets).
        doc: String,
    },
    /// N sub-requests in one frame (v2), answered in order with
    /// [`Response::Item`] frames and closed by [`Response::BatchDone`].
    Batch {
        /// Umbrella wall-clock deadline for the whole batch in
        /// milliseconds; items not yet started when it passes are
        /// answered `DeadlineExceeded` individually.
        deadline_ms: Option<u64>,
        /// The sub-requests, in answer order.
        items: Vec<BatchItem>,
    },
}

impl Request {
    /// A batch of well-formed sub-requests.
    ///
    /// # Errors
    ///
    /// A description of the first item that is not batchable (only
    /// reach, cover, and verify are) or a count over
    /// [`MAX_BATCH_ITEMS`].
    pub fn batch(items: Vec<Request>, deadline_ms: Option<u64>) -> Result<Request, String> {
        if items.len() > MAX_BATCH_ITEMS {
            return Err(format!(
                "batch of {} items exceeds the protocol cap of {MAX_BATCH_ITEMS}",
                items.len()
            ));
        }
        for (i, item) in items.iter().enumerate() {
            match item {
                Request::Reach { .. } | Request::Cover { .. } | Request::Verify { .. } => {}
                other => {
                    return Err(format!(
                        "item {i}: `{}` cannot appear inside a batch",
                        other.verb()
                    ))
                }
            }
        }
        Ok(Request::Batch {
            deadline_ms,
            items: items.into_iter().map(BatchItem::Request).collect(),
        })
    }

    /// The wire verb of this request.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Stats => "stats",
            Request::Reach { .. } => "reach",
            Request::Cover { .. } => "cover",
            Request::Verify { .. } => "verify",
            Request::Batch { .. } => "batch",
        }
    }

    /// The per-request deadline, if the client set one (for a batch:
    /// the umbrella deadline).
    pub fn deadline(&self) -> Option<Duration> {
        match self {
            Request::Ping | Request::Stats => None,
            Request::Reach { deadline_ms, .. }
            | Request::Cover { deadline_ms, .. }
            | Request::Verify { deadline_ms, .. }
            | Request::Batch { deadline_ms, .. } => deadline_ms.map(Duration::from_millis),
        }
    }

    /// Serializes to the wire text form.
    pub fn encode(&self) -> String {
        match self {
            Request::Ping => "ping".to_owned(),
            Request::Stats => "stats".to_owned(),
            Request::Reach {
                net,
                max_states,
                deadline_ms,
                threads,
                stream,
                doc,
            } => encode_doc_request(
                "reach",
                net,
                *max_states,
                *deadline_ms,
                *threads,
                *stream,
                doc,
            ),
            Request::Cover {
                net,
                max_states,
                deadline_ms,
                threads,
                doc,
            } => encode_doc_request(
                "cover",
                net,
                *max_states,
                *deadline_ms,
                *threads,
                false,
                doc,
            ),
            Request::Verify {
                module,
                env,
                louts,
                routs,
                max_states,
                deadline_ms,
                hide_budget,
                stream,
                doc,
            } => {
                let mut line = format!("verify module={module} env={env} max_states={max_states}");
                if !louts.is_empty() {
                    line.push_str(&format!(" louts={}", encode_label_list(louts)));
                }
                if !routs.is_empty() {
                    line.push_str(&format!(" routs={}", encode_label_list(routs)));
                }
                if let Some(ms) = deadline_ms {
                    line.push_str(&format!(" deadline_ms={ms}"));
                }
                if *hide_budget != DEFAULT_HIDE_BUDGET {
                    line.push_str(&format!(" hide_budget={hide_budget}"));
                }
                if *stream {
                    line.push_str(" stream=true");
                }
                line.push('\n');
                line.push_str(doc);
                line
            }
            Request::Batch { deadline_ms, items } => {
                let mut out = format!("batch n={}", items.len());
                if let Some(ms) = deadline_ms {
                    out.push_str(&format!(" deadline_ms={ms}"));
                }
                out.push('\n');
                for item in items {
                    let text = match item {
                        BatchItem::Request(req) => req.encode(),
                        // A decoded-as-malformed item re-encodes as an
                        // intentionally invalid verb carrying its message,
                        // so encode∘decode is total (it will decode as
                        // Malformed again).
                        BatchItem::Malformed(msg) => format!("!malformed {msg}"),
                    };
                    out.push_str(&format!("item {}\n", text.len()));
                    out.push_str(&text);
                    out.push('\n');
                }
                out
            }
        }
    }

    /// Parses the wire text form under default [`BatchLimits`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformation; the server
    /// maps it to [`Response::BadRequest`].
    pub fn decode(text: &str) -> Result<Request, String> {
        Request::decode_with_limits(text, &BatchLimits::default())
    }

    /// Parses the wire text form, validating batch frames against
    /// explicit limits.
    ///
    /// # Errors
    ///
    /// As [`Request::decode`]. Batch *framing* violations (item count
    /// over the cap, a length running past the frame, trailing bytes)
    /// are errors naming the item index; a recoverable single item
    /// (oversized but skippable, or undecodable content) comes back as
    /// [`BatchItem::Malformed`] instead so its siblings still run.
    pub fn decode_with_limits(text: &str, limits: &BatchLimits) -> Result<Request, String> {
        let (line, rest) = match text.split_once('\n') {
            Some((l, r)) => (l, r),
            None => (text, ""),
        };
        let mut words = line.split_whitespace();
        let verb = words.next().ok_or("empty request")?;
        match verb {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "reach" | "cover" => {
                let mut net = None;
                let mut max_states = 100_000usize;
                let mut deadline_ms = None;
                let mut threads = 1usize;
                let mut stream = false;
                for word in words {
                    let (k, v) = word
                        .split_once('=')
                        .ok_or_else(|| format!("malformed option `{word}` (expected key=value)"))?;
                    match k {
                        "net" => net = Some(v.to_owned()),
                        "max_states" => {
                            max_states = v.parse().map_err(|_| format!("bad max_states `{v}`"))?;
                        }
                        "deadline_ms" => {
                            deadline_ms =
                                Some(v.parse().map_err(|_| format!("bad deadline_ms `{v}`"))?);
                        }
                        "threads" => {
                            threads = v.parse().map_err(|_| format!("bad threads `{v}`"))?;
                        }
                        "stream" if verb == "reach" => {
                            stream = parse_bool(v)?;
                        }
                        other => return Err(format!("unknown option `{other}`")),
                    }
                }
                let net = net.ok_or("missing `net=` option")?;
                let doc = rest.to_owned();
                Ok(if verb == "reach" {
                    Request::Reach {
                        net,
                        max_states,
                        deadline_ms,
                        threads,
                        stream,
                        doc,
                    }
                } else {
                    Request::Cover {
                        net,
                        max_states,
                        deadline_ms,
                        threads,
                        doc,
                    }
                })
            }
            "verify" => {
                let mut module = None;
                let mut env = None;
                let mut louts = Vec::new();
                let mut routs = Vec::new();
                let mut max_states = 100_000usize;
                let mut deadline_ms = None;
                let mut hide_budget = DEFAULT_HIDE_BUDGET;
                let mut stream = false;
                for word in words {
                    let (k, v) = word
                        .split_once('=')
                        .ok_or_else(|| format!("malformed option `{word}` (expected key=value)"))?;
                    match k {
                        "module" => module = Some(v.to_owned()),
                        "env" => env = Some(v.to_owned()),
                        "louts" => louts = decode_label_list(v),
                        "routs" => routs = decode_label_list(v),
                        "max_states" => {
                            max_states = v.parse().map_err(|_| format!("bad max_states `{v}`"))?;
                        }
                        "deadline_ms" => {
                            deadline_ms =
                                Some(v.parse().map_err(|_| format!("bad deadline_ms `{v}`"))?);
                        }
                        "hide_budget" => {
                            hide_budget =
                                v.parse().map_err(|_| format!("bad hide_budget `{v}`"))?;
                        }
                        "stream" => stream = parse_bool(v)?,
                        other => return Err(format!("unknown option `{other}`")),
                    }
                }
                Ok(Request::Verify {
                    module: module.ok_or("missing `module=` option")?,
                    env: env.ok_or("missing `env=` option")?,
                    louts,
                    routs,
                    max_states,
                    deadline_ms,
                    hide_budget,
                    stream,
                    doc: rest.to_owned(),
                })
            }
            "batch" => decode_batch(words, rest, limits),
            other => Err(format!("unknown verb `{other}`")),
        }
    }
}

/// Parses the body of a `batch` frame: `item <len>` lines each followed
/// by exactly `len` bytes of sub-request text and a terminating
/// newline. Items are collected as they arrive — never pre-allocated
/// from the claimed `n=` — and `n=` must match the actual count.
fn decode_batch<'a>(
    words: impl Iterator<Item = &'a str>,
    body: &str,
    limits: &BatchLimits,
) -> Result<Request, String> {
    let mut declared: Option<usize> = None;
    let mut deadline_ms = None;
    for word in words {
        let (k, v) = word
            .split_once('=')
            .ok_or_else(|| format!("malformed option `{word}` (expected key=value)"))?;
        match k {
            "n" => declared = Some(v.parse().map_err(|_| format!("bad n `{v}`"))?),
            "deadline_ms" => {
                deadline_ms = Some(v.parse().map_err(|_| format!("bad deadline_ms `{v}`"))?);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let declared = declared.ok_or("missing `n=` option")?;
    let max_items = limits.max_items.min(MAX_BATCH_ITEMS);
    if declared > max_items {
        return Err(format!(
            "batch of {declared} items exceeds the {max_items}-item cap"
        ));
    }

    let mut items = Vec::new(); // grown per parsed item, never from `n=`
    let mut at = 0usize;
    let bytes = body.as_bytes();
    while at < bytes.len() {
        let index = items.len();
        if index >= declared {
            return Err(format!(
                "batch declared n={declared} but carries trailing bytes after item {}",
                declared.saturating_sub(1)
            ));
        }
        let line_end = body[at..]
            .find('\n')
            .map(|o| at + o)
            .ok_or_else(|| format!("item {index}: unterminated item header"))?;
        let header = &body[at..line_end];
        let len: usize = header
            .strip_prefix("item ")
            .and_then(|l| l.trim().parse().ok())
            .ok_or_else(|| format!("item {index}: malformed item header `{header}`"))?;
        let start = line_end + 1;
        // Size accounting happens *before* touching the payload, and a
        // length running past the frame is a framing error for the
        // whole batch (nothing after it can be trusted).
        if len > body.len().saturating_sub(start) {
            return Err(format!(
                "item {index}: length {len} runs past the end of the frame"
            ));
        }
        let end = start + len;
        let item = if len > limits.max_item_bytes {
            // Oversized but skippable: reject this item, keep siblings.
            Some(BatchItem::Malformed(format!(
                "item of {len} bytes exceeds the {}-byte per-item cap",
                limits.max_item_bytes
            )))
        } else {
            match body.get(start..end) {
                None => {
                    return Err(format!(
                        "item {index}: length {len} splits a UTF-8 character"
                    ))
                }
                Some(text) => Some(match Request::decode_with_limits(text, limits) {
                    Ok(
                        req @ (Request::Reach { .. }
                        | Request::Cover { .. }
                        | Request::Verify { .. }),
                    ) => BatchItem::Request(req),
                    Ok(other) => BatchItem::Malformed(format!(
                        "`{}` cannot appear inside a batch",
                        other.verb()
                    )),
                    Err(msg) => BatchItem::Malformed(msg),
                }),
            }
        };
        if let Some(item) = item {
            items.push(item);
        }
        at = end;
        // Each item body is followed by exactly one newline.
        if bytes.get(at) == Some(&b'\n') {
            at += 1;
        } else if at < bytes.len() {
            return Err(format!("item {index}: missing terminator after item body"));
        }
    }
    if items.len() != declared {
        return Err(format!(
            "batch declared n={declared} but carries {} items",
            items.len()
        ));
    }
    Ok(Request::Batch { deadline_ms, items })
}

fn parse_bool(v: &str) -> Result<bool, String> {
    match v {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("bad boolean `{other}`")),
    }
}

fn encode_doc_request(
    verb: &str,
    net: &str,
    max_states: usize,
    deadline_ms: Option<u64>,
    threads: usize,
    stream: bool,
    doc: &str,
) -> String {
    let mut line = format!("{verb} net={net} max_states={max_states}");
    if let Some(ms) = deadline_ms {
        line.push_str(&format!(" deadline_ms={ms}"));
    }
    // `threads=1` is the default: omit it so pre-threads peers still
    // parse requests from new clients.
    if threads != 1 {
        line.push_str(&format!(" threads={threads}"));
    }
    if stream {
        line.push_str(" stream=true");
    }
    line.push('\n');
    line.push_str(doc);
    line
}

/// How far an exploration got, complete or not.
///
/// A stopped answer reports what was charged to the budget, as a
/// stopped `verify` does, so a `stopped=states` answer reads `states`
/// equal to the effective state cap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreSummary {
    /// Distinct states (or tree nodes) discovered; when stopped, the
    /// states charged to the budget.
    pub states: usize,
    /// Edges examined: the graph's edges for a complete `reach`, 0 for
    /// a complete `cover`, and the transitions charged to the budget
    /// when stopped.
    pub edges: usize,
    /// `None` if the exploration completed; otherwise the resource that
    /// ran out first (`states`, `transitions`, `deadline`, `cancelled`).
    pub stopped: Option<String>,
    /// Verb-specific detail: the token bound for `reach`, the
    /// boundedness verdict for `cover`.
    pub detail: String,
}

impl ExploreSummary {
    /// Whether the exploration saw the whole structure.
    pub fn is_complete(&self) -> bool {
        self.stopped.is_none()
    }
}

/// Tri-state receptiveness answer carried by [`Response::VerifyResult`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Receptive {
    /// The composition is receptive (full state space explored).
    Yes,
    /// A definite violation was found on the explored prefix.
    No,
    /// The budget ran out before a definite answer.
    Unknown,
}

impl fmt::Display for Receptive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Receptive::Yes => "true",
            Receptive::No => "false",
            Receptive::Unknown => "unknown",
        })
    }
}

/// Result of a server-side verify pipeline.
///
/// `reduced_transitions.is_some() == stopped.is_none()`: a reply either
/// completed every stage or names the resource that stopped it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifySummary {
    /// The receptiveness verdict for `module ‖ env`.
    pub receptive: Receptive,
    /// Labels that can mis-fire (non-empty iff `receptive` is `No`).
    pub failures: Vec<String>,
    /// States explored when the receptiveness pass stopped early
    /// (0 for definite verdicts, which report no exploration counts).
    pub states: usize,
    /// Edges explored when the receptiveness pass stopped early.
    pub edges: usize,
    /// `None` when every pipeline stage completed; otherwise the first
    /// resource that ran out.
    pub stopped: Option<String>,
    /// Transitions of the composition before reduction.
    pub composed_transitions: usize,
    /// Transitions of the reduced module, when the reduction completed
    /// (`None` exactly when `stopped` is set).
    pub reduced_transitions: Option<usize>,
    /// Dead transitions removed by the reduction stage.
    pub dead_removed: usize,
}

/// Live service and cache counters carried by [`Response::Stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Final frames written so far with a non-shed answer (batch items
    /// count individually); an answer counts once its write succeeds.
    pub served: u64,
    /// Requests or connections shed with `Overloaded` so far.
    pub shed: u64,
    /// `bad-request` answers written so far.
    pub bad_requests: u64,
    /// Worker panics caught so far.
    pub panics: u64,
    /// Compiled-net cache hits (byte + structural).
    pub cache_hits: u64,
    /// Byte-tier hits: identical document text, answered with no parse.
    pub cache_byte_hits: u64,
    /// Structural-tier hits: byte-distinct documents whose canonical
    /// net identity was already resident (parsed, but not recompiled).
    pub cache_structural_hits: u64,
    /// Compiled-net cache misses.
    pub cache_misses: u64,
    /// Compiled-net cache evictions (LRU victims).
    pub cache_evictions: u64,
    /// Entries currently resident in the cache.
    pub cache_len: usize,
    /// Configured cache capacity.
    pub cache_capacity: usize,
    /// Approximate bytes held by resident cache entries.
    pub cache_bytes: u64,
    /// Verify answers returned from the cache's verdict tier, without
    /// composing or exploring (0 from a server that does not report it).
    pub verdict_hits: u64,
}

/// A non-final streamed update for a `stream=true` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgressUpdate {
    /// Pipeline stage (`explore` for sliced reachability; `composed`,
    /// `checked`, `reduced` for the verify pipeline).
    pub stage: String,
    /// States discovered so far (stage-specific; for `explore`, the
    /// states charged to the slice's budget).
    pub states: usize,
    /// Edges examined so far (stage-specific; for `explore`, the
    /// transitions charged to the slice's budget).
    pub edges: usize,
}

/// A server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A verification result — definite if `summary.is_complete()`,
    /// otherwise a sound partial answer (the `Unknown` arm of the
    /// workspace's verdict lattice).
    Result(ExploreSummary),
    /// Answer to [`Request::Verify`].
    VerifyResult(VerifySummary),
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
    /// A non-final streamed update (only on v2 connections, only for
    /// `stream=true` requests); one or more may precede the final
    /// response with the same correlation id.
    Progress(ProgressUpdate),
    /// One batch item's answer, tagged with its index; non-final.
    Item {
        /// Zero-based index of the item inside its batch.
        index: usize,
        /// The item's own response (never `Item`/`BatchDone`/`Progress`).
        inner: Box<Response>,
    },
    /// Final frame of a batch: all `n` items have been answered.
    BatchDone {
        /// Number of item frames that preceded this one.
        n: usize,
    },
    /// The bounded work queue was full; retry with backoff.
    Overloaded,
    /// The request's deadline passed before a worker picked it up.
    DeadlineExceeded,
    /// The request was malformed (framing was fine, content was not).
    BadRequest(String),
    /// The worker handling the request panicked; the daemon survives.
    InternalError(String),
}

impl Response {
    /// Whether this frame completes its request (a pipelined client
    /// keeps reading for the same correlation id until a final frame).
    pub fn is_final(&self) -> bool {
        !matches!(self, Response::Progress(_) | Response::Item { .. })
    }

    /// Serializes to the wire text form.
    pub fn encode(&self) -> String {
        match self {
            Response::Pong => "pong".to_owned(),
            Response::Result(s) => {
                let mut line = format!("result states={} edges={}", s.states, s.edges);
                match &s.stopped {
                    None => line.push_str(" complete=true"),
                    Some(r) => {
                        line.push_str(&format!(" complete=false stopped={r}"));
                    }
                }
                if !s.detail.is_empty() {
                    line.push_str(&format!(" detail={}", s.detail));
                }
                line
            }
            Response::VerifyResult(s) => {
                let mut line = format!(
                    "verify-result receptive={} states={} edges={} composed_transitions={} \
                     dead_removed={}",
                    s.receptive, s.states, s.edges, s.composed_transitions, s.dead_removed
                );
                if let Some(rt) = s.reduced_transitions {
                    line.push_str(&format!(" reduced_transitions={rt}"));
                }
                if let Some(r) = &s.stopped {
                    line.push_str(&format!(" stopped={r}"));
                }
                if !s.failures.is_empty() {
                    line.push_str(&format!(" failures={}", encode_label_list(&s.failures)));
                }
                line
            }
            Response::Stats(s) => format!(
                "stats served={} shed={} bad_requests={} panics={} cache_hits={} \
                 cache_byte_hits={} cache_structural_hits={} cache_misses={} \
                 cache_evictions={} cache_len={} cache_capacity={} cache_bytes={} \
                 verdict_hits={}",
                s.served,
                s.shed,
                s.bad_requests,
                s.panics,
                s.cache_hits,
                s.cache_byte_hits,
                s.cache_structural_hits,
                s.cache_misses,
                s.cache_evictions,
                s.cache_len,
                s.cache_capacity,
                s.cache_bytes,
                s.verdict_hits
            ),
            Response::Progress(p) => format!(
                "progress stage={} states={} edges={}",
                p.stage, p.states, p.edges
            ),
            Response::Item { index, inner } => format!("item {index} {}", inner.encode()),
            Response::BatchDone { n } => format!("batch-done n={n}"),
            Response::Overloaded => "overloaded".to_owned(),
            Response::DeadlineExceeded => "deadline-exceeded".to_owned(),
            Response::BadRequest(msg) => format!("bad-request {}", escape(msg)),
            Response::InternalError(msg) => format!("internal-error {}", escape(msg)),
        }
    }

    /// Parses the wire text form.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformation; the client
    /// surfaces it as a protocol error.
    pub fn decode(text: &str) -> Result<Response, String> {
        let line = text.lines().next().unwrap_or("");
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r),
            None => (line, ""),
        };
        match verb {
            "pong" => Ok(Response::Pong),
            "overloaded" => Ok(Response::Overloaded),
            "deadline-exceeded" => Ok(Response::DeadlineExceeded),
            "bad-request" => Ok(Response::BadRequest(unescape(rest))),
            "internal-error" => Ok(Response::InternalError(unescape(rest))),
            "batch-done" => {
                let n = rest
                    .strip_prefix("n=")
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or_else(|| format!("malformed batch-done `{rest}`"))?;
                Ok(Response::BatchDone { n })
            }
            "item" => {
                let (idx, inner) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("malformed item frame `{rest}`"))?;
                let index = idx.parse().map_err(|_| format!("bad item index `{idx}`"))?;
                let inner = Response::decode(inner)?;
                if !matches!(
                    inner,
                    Response::Result(_)
                        | Response::VerifyResult(_)
                        | Response::BadRequest(_)
                        | Response::DeadlineExceeded
                        | Response::InternalError(_)
                        | Response::Overloaded
                ) {
                    return Err(format!("invalid nested item response `{inner:?}`"));
                }
                Ok(Response::Item {
                    index,
                    inner: Box::new(inner),
                })
            }
            "progress" => {
                let mut p = ProgressUpdate {
                    stage: String::new(),
                    states: 0,
                    edges: 0,
                };
                for word in rest.split_whitespace() {
                    let (k, v) = word
                        .split_once('=')
                        .ok_or_else(|| format!("malformed field `{word}`"))?;
                    match k {
                        "stage" => p.stage = v.to_owned(),
                        "states" => p.states = v.parse().map_err(|_| "bad states")?,
                        "edges" => p.edges = v.parse().map_err(|_| "bad edges")?,
                        other => return Err(format!("unknown field `{other}`")),
                    }
                }
                if p.stage.is_empty() {
                    return Err("progress frame missing stage".to_owned());
                }
                Ok(Response::Progress(p))
            }
            "stats" => {
                // A tolerant reader: a counter this decoder does not know
                // (one a later server reports) is skipped, so adding a
                // counter breaks no client. Words without `=` and bad
                // values of known counters are still errors.
                let mut s = StatsReply::default();
                for word in rest.split_whitespace() {
                    let (k, v) = word
                        .split_once('=')
                        .ok_or_else(|| format!("malformed field `{word}`"))?;
                    let parsed = || v.parse::<u64>().map_err(|_| format!("bad {k}"));
                    match k {
                        "served" => s.served = parsed()?,
                        "shed" => s.shed = parsed()?,
                        "bad_requests" => s.bad_requests = parsed()?,
                        "panics" => s.panics = parsed()?,
                        "cache_hits" => s.cache_hits = parsed()?,
                        "cache_byte_hits" => s.cache_byte_hits = parsed()?,
                        "cache_structural_hits" => s.cache_structural_hits = parsed()?,
                        "cache_misses" => s.cache_misses = parsed()?,
                        "cache_evictions" => s.cache_evictions = parsed()?,
                        "cache_len" => s.cache_len = parsed()? as usize,
                        "cache_capacity" => s.cache_capacity = parsed()? as usize,
                        "cache_bytes" => s.cache_bytes = parsed()?,
                        "verdict_hits" => s.verdict_hits = parsed()?,
                        _ => {}
                    }
                }
                Ok(Response::Stats(s))
            }
            "verify-result" => {
                let mut s = VerifySummary {
                    receptive: Receptive::Unknown,
                    failures: Vec::new(),
                    states: 0,
                    edges: 0,
                    stopped: None,
                    composed_transitions: 0,
                    reduced_transitions: None,
                    dead_removed: 0,
                };
                let mut saw_receptive = false;
                for word in rest.split_whitespace() {
                    let (k, v) = word
                        .split_once('=')
                        .ok_or_else(|| format!("malformed field `{word}`"))?;
                    match k {
                        "receptive" => {
                            saw_receptive = true;
                            s.receptive = match v {
                                "true" => Receptive::Yes,
                                "false" => Receptive::No,
                                "unknown" => Receptive::Unknown,
                                other => return Err(format!("bad receptive `{other}`")),
                            };
                        }
                        "states" => s.states = v.parse().map_err(|_| "bad states")?,
                        "edges" => s.edges = v.parse().map_err(|_| "bad edges")?,
                        "stopped" => s.stopped = Some(v.to_owned()),
                        "composed_transitions" => {
                            s.composed_transitions =
                                v.parse().map_err(|_| "bad composed_transitions")?;
                        }
                        "reduced_transitions" => {
                            s.reduced_transitions =
                                Some(v.parse().map_err(|_| "bad reduced_transitions")?);
                        }
                        "dead_removed" => {
                            s.dead_removed = v.parse().map_err(|_| "bad dead_removed")?;
                        }
                        "failures" => s.failures = decode_label_list(v),
                        other => return Err(format!("unknown field `{other}`")),
                    }
                }
                if !saw_receptive {
                    return Err("verify-result missing receptive field".to_owned());
                }
                if s.receptive == Receptive::No && s.failures.is_empty() {
                    return Err("non-receptive result missing failures".to_owned());
                }
                Ok(Response::VerifyResult(s))
            }
            "result" => {
                let mut s = ExploreSummary {
                    states: 0,
                    edges: 0,
                    stopped: None,
                    detail: String::new(),
                };
                let mut complete = false;
                for word in rest.split_whitespace() {
                    let (k, v) = word
                        .split_once('=')
                        .ok_or_else(|| format!("malformed field `{word}`"))?;
                    match k {
                        "states" => s.states = v.parse().map_err(|_| "bad states")?,
                        "edges" => s.edges = v.parse().map_err(|_| "bad edges")?,
                        "complete" => complete = v == "true",
                        "stopped" => s.stopped = Some(v.to_owned()),
                        "detail" => s.detail = v.to_owned(),
                        other => return Err(format!("unknown field `{other}`")),
                    }
                }
                if complete && s.stopped.is_some() {
                    return Err("complete result carries a stop reason".to_owned());
                }
                if !complete && s.stopped.is_none() {
                    return Err("incomplete result missing stop reason".to_owned());
                }
                Ok(Response::Result(s))
            }
            other => Err(format!("unknown response verb `{other}`")),
        }
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Prefixes a frame's text with a correlation id (`@<id> `); the
/// identity when `corr` is `None` (v1 frames carry no id).
pub fn with_corr(corr: Option<u64>, text: &str) -> String {
    match corr {
        Some(id) => format!("@{id} {text}"),
        None => text.to_owned(),
    }
}

/// Splits an optional `@<id> ` correlation prefix off a frame's text.
///
/// # Errors
///
/// A description of a malformed prefix (an `@` not followed by
/// `digits `+space).
pub fn split_corr(text: &str) -> Result<(Option<u64>, &str), String> {
    let Some(rest) = text.strip_prefix('@') else {
        return Ok((None, text));
    };
    let (id, body) = rest
        .split_once(' ')
        .ok_or("malformed correlation prefix (no body)")?;
    let id = id
        .parse()
        .map_err(|_| format!("bad correlation id `{id}`"))?;
    Ok((Some(id), body))
}

/// Encodes a label list as a single `key=value` word: items joined by
/// commas with `%`, `,`, and whitespace percent-escaped (labels are
/// arbitrary strings; command-line words must contain neither spaces
/// nor newlines).
fn encode_label_list(labels: &[String]) -> String {
    let mut out = String::new();
    for (i, l) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        for ch in l.chars() {
            match ch {
                '%' => out.push_str("%25"),
                ',' => out.push_str("%2C"),
                ' ' => out.push_str("%20"),
                '\n' => out.push_str("%0A"),
                '\t' => out.push_str("%09"),
                '\r' => out.push_str("%0D"),
                other => out.push(other),
            }
        }
    }
    out
}

fn decode_label_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|item| {
            let mut out = String::with_capacity(item.len());
            let mut chars = item.chars().peekable();
            while let Some(ch) = chars.next() {
                if ch == '%' {
                    let hex: String = chars.by_ref().take(2).collect();
                    match u8::from_str_radix(&hex, 16) {
                        Ok(b) => out.push(b as char),
                        Err(_) => {
                            out.push('%');
                            out.push_str(&hex);
                        }
                    }
                } else {
                    out.push(ch);
                }
            }
            out
        })
        .collect()
}

/// Newlines and the field separator cannot appear inside a message.
fn escape(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

fn unescape(msg: &str) -> String {
    msg.to_owned()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    const DOC: &str = "net n { places { p* q } transition \"t\" { pre: p; post: q } }";

    fn reach(net: &str, max_states: usize) -> Request {
        Request::Reach {
            net: net.into(),
            max_states,
            deadline_ms: None,
            threads: 1,
            stream: false,
            doc: DOC.into(),
        }
    }

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Reach {
                net: "n".into(),
                max_states: 500,
                deadline_ms: Some(50),
                threads: 1,
                stream: false,
                doc: DOC.into(),
            },
            Request::Reach {
                net: "n".into(),
                max_states: 500,
                deadline_ms: None,
                threads: 4,
                stream: true,
                doc: DOC.into(),
            },
            Request::Cover {
                net: "n".into(),
                max_states: 1000,
                deadline_ms: None,
                threads: 2,
                doc: DOC.into(),
            },
            Request::Verify {
                module: "m".into(),
                env: "e".into(),
                louts: vec!["req".into(), "weird,label".into()],
                routs: vec!["ack".into()],
                max_states: 2000,
                deadline_ms: Some(250),
                hide_budget: 99,
                stream: true,
                doc: DOC.into(),
            },
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn batch_round_trips() {
        let batch = Request::batch(
            vec![
                reach("n", 100),
                Request::Cover {
                    net: "n".into(),
                    max_states: 10,
                    deadline_ms: Some(5),
                    threads: 1,
                    doc: DOC.into(),
                },
                Request::Verify {
                    module: "m".into(),
                    env: "e".into(),
                    louts: vec!["a".into()],
                    routs: vec![],
                    max_states: 50,
                    deadline_ms: None,
                    hide_budget: DEFAULT_HIDE_BUDGET,
                    stream: false,
                    doc: DOC.into(),
                },
            ],
            Some(750),
        )
        .unwrap();
        assert_eq!(Request::decode(&batch.encode()).unwrap(), batch);
    }

    #[test]
    fn batch_rejects_unbatchable_items_at_construction() {
        assert!(Request::batch(vec![Request::Ping], None).is_err());
        assert!(Request::batch(vec![Request::Stats], None).is_err());
    }

    #[test]
    fn batch_count_mismatch_rejected() {
        let good = Request::batch(vec![reach("n", 100)], None)
            .unwrap()
            .encode();
        let lying = good.replacen("batch n=1", "batch n=2", 1);
        assert!(Request::decode(&lying).unwrap_err().contains("1 items"));
        let lying_low = {
            let two = Request::batch(vec![reach("n", 100), reach("n", 200)], None)
                .unwrap()
                .encode();
            two.replacen("batch n=2", "batch n=1", 1)
        };
        assert!(Request::decode(&lying_low).is_err());
    }

    #[test]
    fn batch_item_running_past_frame_rejected() {
        let wire = "batch n=1\nitem 99999\nshort";
        let err = Request::decode(wire).unwrap_err();
        assert!(err.contains("item 0"), "{err}");
        assert!(err.contains("runs past"), "{err}");
    }

    #[test]
    fn batch_over_item_cap_rejected_without_allocation() {
        let wire = format!("batch n={}\n", usize::MAX);
        let err = Request::decode(&wire).unwrap_err();
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn oversized_item_is_typed_per_item_and_siblings_survive() {
        let limits = BatchLimits {
            max_items: 16,
            max_item_bytes: 32,
        };
        let small = "reach net=n max_states=5\n";
        let big = format!("reach net=n max_states=5\n{}", "x".repeat(100));
        let wire = format!(
            "batch n=2\nitem {}\n{}\nitem {}\n{}\n",
            big.len(),
            big,
            small.len(),
            small
        );
        match Request::decode_with_limits(&wire, &limits).unwrap() {
            Request::Batch { items, .. } => {
                assert!(matches!(&items[0], BatchItem::Malformed(m) if m.contains("per-item")));
                assert!(matches!(
                    &items[1],
                    BatchItem::Request(Request::Reach { .. })
                ));
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn malformed_item_content_is_per_item_not_fatal() {
        let bad = "frobnicate x=1";
        let good = "reach net=n max_states=5\n";
        let wire = format!(
            "batch n=2\nitem {}\n{}\nitem {}\n{}\n",
            bad.len(),
            bad,
            good.len(),
            good
        );
        match Request::decode(&wire).unwrap() {
            Request::Batch { items, .. } => {
                assert!(matches!(&items[0], BatchItem::Malformed(_)));
                assert!(matches!(&items[1], BatchItem::Request(_)));
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn nested_batch_is_per_item_malformed() {
        let inner = Request::batch(vec![reach("n", 5)], None).unwrap().encode();
        let wire = format!("batch n=1\nitem {}\n{}\n", inner.len(), inner);
        match Request::decode(&wire).unwrap() {
            Request::Batch { items, .. } => {
                assert!(matches!(&items[0], BatchItem::Malformed(m) if m.contains("batch")));
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn default_threads_stays_off_the_wire() {
        let req = reach("n", 500);
        assert!(!req.encode().contains("threads="));
        assert!(!req.encode().contains("stream="));
        // Absent on the wire decodes back to the default.
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn correlation_prefix_round_trips() {
        assert_eq!(with_corr(None, "ping"), "ping");
        assert_eq!(with_corr(Some(7), "ping"), "@7 ping");
        assert_eq!(split_corr("ping").unwrap(), (None, "ping"));
        assert_eq!(split_corr("@7 ping").unwrap(), (Some(7), "ping"));
        assert_eq!(
            split_corr("@12 reach net=n\ndoc").unwrap(),
            (Some(12), "reach net=n\ndoc")
        );
        assert!(split_corr("@x ping").is_err());
        assert!(split_corr("@7").is_err());
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Pong,
            Response::Result(ExploreSummary {
                states: 12,
                edges: 30,
                stopped: None,
                detail: "bound=1".into(),
            }),
            Response::Result(ExploreSummary {
                states: 4096,
                edges: 9999,
                stopped: Some("deadline".into()),
                detail: String::new(),
            }),
            Response::VerifyResult(VerifySummary {
                receptive: Receptive::No,
                failures: vec!["req".into(), "comma,label".into()],
                states: 40,
                edges: 80,
                stopped: None,
                composed_transitions: 12,
                reduced_transitions: Some(4),
                dead_removed: 2,
            }),
            Response::VerifyResult(VerifySummary {
                receptive: Receptive::Unknown,
                failures: vec![],
                states: 7,
                edges: 9,
                stopped: Some("deadline".into()),
                composed_transitions: 12,
                reduced_transitions: None,
                dead_removed: 0,
            }),
            Response::Stats(StatsReply {
                served: 10,
                shed: 1,
                bad_requests: 2,
                panics: 0,
                cache_hits: 5,
                cache_byte_hits: 4,
                cache_structural_hits: 1,
                cache_misses: 6,
                cache_evictions: 3,
                cache_len: 3,
                cache_capacity: 64,
                cache_bytes: 4096,
                verdict_hits: 12,
            }),
            Response::Progress(ProgressUpdate {
                stage: "explore".into(),
                states: 4096,
                edges: 20480,
            }),
            Response::Item {
                index: 3,
                inner: Box::new(Response::DeadlineExceeded),
            },
            Response::Item {
                index: 0,
                inner: Box::new(Response::Result(ExploreSummary {
                    states: 2,
                    edges: 2,
                    stopped: None,
                    detail: "bound=1".into(),
                })),
            },
            Response::BatchDone { n: 64 },
            Response::Overloaded,
            Response::DeadlineExceeded,
            Response::BadRequest("missing `net=` option".into()),
            Response::InternalError("worker panicked".into()),
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn finality_is_classified() {
        assert!(Response::Pong.is_final());
        assert!(Response::BatchDone { n: 0 }.is_final());
        assert!(!Response::Progress(ProgressUpdate {
            stage: "explore".into(),
            states: 0,
            edges: 0
        })
        .is_final());
        assert!(!Response::Item {
            index: 0,
            inner: Box::new(Response::DeadlineExceeded)
        }
        .is_final());
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(Request::decode("").is_err());
        assert!(Request::decode("frobnicate x=1").is_err());
        assert!(Request::decode("reach max_states=10").is_err()); // no net=
        assert!(Request::decode("reach net=n max_states=banana").is_err());
        assert!(Request::decode("reach net=n bogus").is_err());
        assert!(Request::decode("reach net=n threads=many").is_err());
        assert!(Request::decode("reach net=n threads=-2").is_err());
        assert!(Request::decode("reach net=n stream=maybe").is_err());
        assert!(Request::decode("cover net=n stream=true").is_err());
        assert!(Request::decode("verify env=e").is_err()); // no module=
        assert!(Request::decode("verify module=m").is_err()); // no env=
        assert!(Request::decode("batch deadline_ms=5\n").is_err()); // no n=
    }

    #[test]
    fn stats_decoder_skips_unknown_counters() {
        let reply = Response::Stats(StatsReply {
            served: 5,
            cache_hits: 3,
            cache_len: 2,
            cache_capacity: 64,
            ..StatsReply::default()
        });
        let text = reply.encode();
        let extended = format!("{text} future_counter=7 future=x");
        assert_eq!(Response::decode(&extended).unwrap(), reply);
        assert_eq!(Response::decode(&text).unwrap(), reply);
        // A reply from a server that does not report `verdict_hits`.
        let older = text.replace(" verdict_hits=0", "");
        assert_ne!(older, text);
        assert_eq!(Response::decode(&older).unwrap(), reply);
        // Still strict: malformed words and bad values of known fields.
        assert!(Response::decode(&format!("{text} future_counter")).is_err());
        assert!(Response::decode("stats verdict_hits=x").is_err());
        assert!(Response::decode("stats served=x").is_err());
        assert!(Response::decode("stats cache_len=-1").is_err());
        // The other replies stay strict about unknown fields.
        assert!(Response::decode("result states=1 edges=0 complete=true future=x").is_err());
        assert!(Response::decode("verify-result receptive=true future=x").is_err());
        assert!(Response::decode("progress stage=explore future=x").is_err());
    }

    #[test]
    fn inconsistent_results_rejected() {
        assert!(
            Response::decode("result states=1 edges=0 complete=true stopped=deadline").is_err()
        );
        assert!(Response::decode("result states=1 edges=0 complete=false").is_err());
        assert!(Response::decode("verify-result states=1 edges=0").is_err());
        assert!(Response::decode("verify-result receptive=false states=1 edges=0").is_err());
        assert!(Response::decode("item 0 progress stage=explore").is_err());
        assert!(Response::decode("item 0 item 1 pong").is_err());
    }
}
