//! # cpn-serve — a fault-tolerant verification daemon
//!
//! Long-running verification service over the workspace's Petri-net
//! kernel: clients submit `.cpn` documents over TCP or Unix domain
//! sockets and receive typed verdicts. The design goal is *graceful
//! degradation everywhere* — every overload, deadline, malformed
//! input, transport fault, or worker panic maps to a typed response or
//! a clean close, never a crash, hang, or silent wrong answer:
//!
//! * **Framing** ([`frame`]) — magic + version handshake, then
//!   length-prefixed frames with the length validated before any
//!   allocation.
//! * **Protocol** ([`proto`]) — typed [`Request`]/[`Response`] enums
//!   with a text codec (`key=value` command line + `.cpn` document),
//!   debuggable with `nc`.
//! * **Pool** ([`server`]) — fixed worker threads behind a bounded
//!   queue; a full queue sheds with [`Response::Overloaded`]; worker
//!   panics are isolated per-request with `catch_unwind`.
//! * **Budgets** — every request runs under a `cpn-petri` [`Budget`]
//!   with a wall-clock deadline and the server's cancellation token,
//!   so explosive state spaces return `Unknown`-style partial results
//!   on time (no head-of-line blocking past the deadline).
//! * **Drain** — SIGTERM (or [`ServerHandle::begin_drain`]) stops
//!   accepting, sheds new work, lets in-flight requests finish under a
//!   shrinking deadline, then cancels stragglers and joins the pool.
//! * **Cache** ([`cache`]) — three LRU tiers: compiled nets found by
//!   document bytes, then by canonical net identity (`NetId`, so a
//!   respelled document is not recompiled), and verify verdicts keyed
//!   by the two entries they were computed on. An edit-verify loop pays
//!   parse + compile once per edit, a batch hash-conses repeated
//!   documents, and a repeated `verify` is answered without composing
//!   or exploring.
//! * **Client** ([`client`]) — handshake, typed errors, and
//!   retry-with-full-jitter backoff for sheds and transient faults.
//!
//! ## Protocol v2: batching, pipelining, streaming, server-side verify
//!
//! The handshake negotiates `min(client, server)` versions. Both run
//! one connection loop; a v1 client is answered in lock-step with the
//! bytes it always got (no correlation ids, batches or progress
//! frames), except that an answer overdue past its deadline plus
//! `io_timeout` plus 2 s becomes an `internal-error` and closes the
//! connection. On a v2 connection:
//!
//! * [`Request::Batch`] carries N sub-requests in one frame, answered
//!   in order with [`Response::Item`] frames and closed by
//!   [`Response::BatchDone`] — one round trip for N verdicts, with a
//!   batch-level umbrella deadline degrading unstarted items to typed
//!   `DeadlineExceeded` partials instead of poisoning siblings.
//! * [`PipelinedClient`] keeps a configurable window of correlated
//!   requests in flight on one connection; frames carry `@<id>`
//!   correlation prefixes so completions are matched out of order.
//! * `stream=true` requests emit non-final [`Response::Progress`]
//!   frames while long explorations run.
//! * [`Request::Verify`] runs the paper pipeline server-side: compose
//!   `module ‖ env`, then check receptiveness and reduce against the
//!   environment from one exploration of the composition — answered
//!   with [`Response::VerifyResult`].
//! * [`Request::Stats`] reports live service and cache counters,
//!   verdict-tier hits included.
//!
//! [`Budget`]: cpn_petri::Budget
//!
//! ## Example (in-process round trip)
//!
//! ```
//! use cpn_serve::{Client, Endpoint, Request, Response, Server, ServerConfig};
//!
//! let server = Server::bind(
//!     &[Endpoint::Tcp("127.0.0.1:0".into())],
//!     ServerConfig::default(),
//! )?;
//! let ep = server.local_endpoints()?.remove(0);
//! let handle = server.handle();
//! let join = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(&ep)?;
//! assert_eq!(client.request(&Request::Ping)?, Response::Pong);
//!
//! handle.begin_drain();
//! let stats = join.join().expect("server thread");
//! assert_eq!(stats.accepted, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub mod transport;

pub use cache::{CacheMiss, CacheStats, CachedNet, NetCache};
pub use client::{request_with_retry, Client, ClientError, PipelinedClient, RetryPolicy};
pub use frame::{FrameError, DEFAULT_MAX_FRAME, MAGIC, MIN_PROTO_VERSION, PROTO_VERSION};
pub use proto::{
    BatchItem, BatchLimits, ExploreSummary, ProgressUpdate, Receptive, Request, Response,
    StatsReply, VerifySummary, DEFAULT_HIDE_BUDGET, MAX_BATCH_ITEMS,
};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats, MAX_REQUEST_THREADS};
pub use transport::{Conn, Endpoint, Listener};
