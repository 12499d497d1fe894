//! The verification daemon: accept loop, bounded worker pool, load
//! shedding, panic isolation, and graceful drain.
//!
//! ## Architecture
//!
//! One lightweight thread per connection reads frames and decodes
//! requests; compute runs on a **fixed pool** of worker threads fed by
//! a **bounded queue**. When the queue is full the connection thread
//! answers [`Response::Overloaded`] immediately instead of buffering —
//! explicit load shedding, so a flood of explosive requests degrades
//! into fast typed refusals rather than unbounded memory growth.
//!
//! Every compute request runs under a [`Budget`] carrying a wall-clock
//! [`Deadline`] and the server's [`CancelToken`](cpn_petri::CancelToken); the kernel's
//! explorers poll both coarsely and return sound partial results
//! (`Unknown` verdicts) rather than overrunning. Worker panics are
//! caught per-request with `catch_unwind`; the worker survives and the
//! client receives [`Response::InternalError`].
//!
//! ## One connection loop for both protocol versions
//!
//! The handshake negotiates `min(client, PROTO_VERSION)` per
//! connection, and every connection runs the same loop: the connection
//! thread reads frames through one buffered reader and dispatches them,
//! while workers write responses through a shared, mutex-serialized
//! clone of the socket (the connection's sink). On v2 each frame is
//! tagged with the request's correlation id. That gives
//!
//! * **pipelining** — many requests in flight on one connection, each
//!   answered as it finishes;
//! * **batches** — one frame carrying N sub-requests, executed as a
//!   single pool job that emits [`Response::Item`] frames in order and
//!   closes with [`Response::BatchDone`]. A per-batch umbrella deadline
//!   caps the whole batch: items not started when it passes degrade to
//!   per-item `DeadlineExceeded` without poisoning finished siblings,
//!   and a panicking item is caught per-item. Documents repeated across
//!   items hash-cons through the compiled-net cache, so N items over
//!   one net parse once;
//! * **streaming** — `stream=true` explorations emit non-final
//!   [`Response::Progress`] frames (geometrically growing exploration
//!   slices; total re-exploration overhead is bounded by a constant
//!   factor of the final run) before the final answer.
//!
//! A v1 connection gets none of the three, derived from its version:
//! frame text is never split for `@<id>`, a `batch` frame is refused
//! with `BadRequest`, `stream=true` sends no progress frames, and after
//! a pool dispatch the next frame is read only once the answer has been
//! written — one frame in, one frame out, as v1 clients expect. An
//! answer overdue past the request's deadline (capped by the default)
//! plus `io_timeout` plus 2 s is replaced by
//! `internal-error worker did not reply in time`, and the connection
//! then closes, so the late answer can never be read as the reply to a
//! later request.
//!
//! ## Writes
//!
//! Every frame is written when it is produced: `ping`, `stats`, bad
//! requests, sheds, inline answers and progress frames by the thread
//! that made them, and a pool job's final frame by its worker, in the
//! same critical section that retires the job from the connection's
//! in-flight count (v1's lock-step wait relies on that). Each is one
//! frame and one `write_all`. A batch is one request's answer: its job
//! collects the item frames in a buffer of its own and writes it each
//! time it passes 64 KiB, and with `batch-done`. No buffer, counter or
//! flush decision spans two requests, so no answer waits for another
//! request to finish. An answer counts in `served` or `bad_requests`
//! only once the write that holds it succeeds: an answer to a peer that
//! has gone is not counted.
//!
//! ## Drain
//!
//! [`ServerHandle::begin_drain`] (wired to SIGTERM in the binary)
//! stops the accept loop and stamps a drain deadline. Requests already
//! queued or executing finish under a deadline shrunk to the drain
//! deadline; new requests are shed. When the grace period ends, the
//! server cancels its token — in-flight explorations stop at the next
//! poll with partial results — and the pool is joined.

use crate::cache::{CacheMiss, NetCache, VerdictKey};
use crate::frame::{
    read_frame_payload, read_handshake_in, write_frame, write_handshake_version, FrameError,
    DEFAULT_MAX_FRAME, MIN_PROTO_VERSION, PROTO_VERSION,
};
use crate::proto::{
    split_corr, with_corr, BatchItem, BatchLimits, ExploreSummary, ProgressUpdate, Receptive,
    Request, Response, StatsReply, VerifySummary,
};
use crate::transport::{Conn, Endpoint, Listener};
use cpn_core::{parallel_tracked_common, verify_against_environment};
use cpn_format::ParseLimits;
use cpn_petri::{
    state_space_bounded_compiled, Bounded, Budget, CancelScope, CoverabilityOutcome,
    CoverabilityTree, Deadline, Resource, Verdict,
};
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Protocol ceiling on `threads=` in a request: values above it (or `0`)
/// are nonsense and rejected with `BadRequest`. Valid values have no
/// effect; exploration is sequential.
pub const MAX_REQUEST_THREADS: usize = 64;

/// First streamed exploration slice (states); each subsequent slice is
/// four times larger, so the re-explored prefix sums to at most a third
/// of the final slice.
const STREAM_FIRST_SLICE: usize = 4096;

/// Tunables for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Compute worker threads (the fixed pool).
    pub workers: usize,
    /// Bounded depth of the work queue; a full queue sheds.
    pub queue_depth: usize,
    /// Cap on a single frame's payload.
    pub max_frame: usize,
    /// Idle timeout: a connection sending nothing for this long closes.
    pub idle_timeout: Duration,
    /// I/O timeout for mid-frame reads and response writes (a stalled
    /// peer is cut off, not waited on forever).
    pub io_timeout: Duration,
    /// Deadline applied to requests that do not set their own (and the
    /// cap on those that do).
    pub default_deadline: Duration,
    /// How long in-flight work may run after drain begins.
    pub drain_grace: Duration,
    /// Cap on concurrently served connections; beyond it new
    /// connections are shed with `Overloaded`.
    pub max_connections: usize,
    /// Cap on `max_states` a request may ask for.
    pub max_states_cap: usize,
    /// Has no effect: exploration is sequential. Kept so existing
    /// configurations still compile.
    #[doc(hidden)]
    pub max_threads: usize,
    /// Parse limits for client documents (also bound per-item batch
    /// sizes).
    pub parse_limits: ParseLimits,
    /// Cap on items in one batch frame.
    pub max_batch_items: usize,
    /// Compiled-net cache entries.
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 32,
            max_frame: DEFAULT_MAX_FRAME,
            idle_timeout: Duration::from_secs(60),
            io_timeout: Duration::from_secs(10),
            default_deadline: Duration::from_secs(30),
            drain_grace: Duration::from_secs(5),
            max_connections: 256,
            max_states_cap: 5_000_000,
            max_threads: 1,
            parse_limits: ParseLimits::default(),
            max_batch_items: crate::proto::MAX_BATCH_ITEMS,
            cache_capacity: 64,
        }
    }
}

impl ServerConfig {
    /// The batch-frame validation limits this configuration implies:
    /// per-item text is bounded by both the frame cap and the document
    /// parse limits, so an item can never smuggle in a document the
    /// parser would refuse standalone.
    fn batch_limits(&self) -> BatchLimits {
        BatchLimits {
            max_items: self.max_batch_items,
            max_item_bytes: self.max_frame.min(self.parse_limits.max_input_bytes),
        }
    }

    /// A request's own deadline capped by `default_deadline`, which also
    /// stands in when the request sets none.
    fn capped_deadline(&self, request: &Request) -> Duration {
        request
            .deadline()
            .map_or(self.default_deadline, |d| d.min(self.default_deadline))
    }
}

/// Counters exposed after [`Server::run`] returns (all monotonic).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and handshaken.
    pub accepted: u64,
    /// Final frames written with a non-shed answer (batch items count
    /// individually; `batch-done` and `progress` frames do not). An
    /// answer counts once the write that holds it succeeds, so an answer
    /// to a peer that has gone does not.
    pub served: u64,
    /// Requests or connections shed with `Overloaded`.
    pub shed: u64,
    /// Worker panics caught (each produced an `InternalError`).
    pub panics: u64,
    /// `BadRequest` answers written (counted like `served`).
    pub bad_requests: u64,
    /// Requests whose deadline passed before compute started.
    pub deadline_rejected: u64,
    /// Connections dropped during handshake (bad magic/version/EOF).
    pub handshake_failures: u64,
    /// Compiled-net cache hits / misses.
    pub cache_hits: u64,
    /// Compiled-net cache misses.
    pub cache_misses: u64,
    /// Verify answers returned from the cache's verdict tier, without
    /// composing or exploring.
    pub verdict_hits: u64,
    /// Workers that exited cleanly at drain (equals the pool size when
    /// the drain left the pool idle).
    pub workers_joined: usize,
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    panics: AtomicU64,
    bad_requests: AtomicU64,
    deadline_rejected: AtomicU64,
    handshake_failures: AtomicU64,
}

struct Shared {
    config: ServerConfig,
    cache: NetCache,
    counters: Arc<Counters>,
    accepting: AtomicBool,
    draining: AtomicBool,
    hard_stop: AtomicBool,
    stop_workers: AtomicBool,
    drain_deadline: Mutex<Option<Deadline>>,
    cancel: CancelScope,
    active_conns: AtomicUsize,
    /// Permits for the v2 inline fast path (see [`inline_eligible`]):
    /// connection threads may run at most this many small queries
    /// beside the pool, so total concurrent compute stays bounded by
    /// `2 * workers` even with many pipelining clients.
    inline_permits: AtomicUsize,
}

impl Shared {
    /// The deadline stamped by `begin_drain`, if draining.
    fn drain_deadline(&self) -> Option<Deadline> {
        *lock(&self.drain_deadline)
    }

    /// A point-in-time snapshot for `Request::Stats`.
    fn stats_reply(&self) -> StatsReply {
        let cache = self.cache.full_stats();
        StatsReply {
            served: self.counters.served.load(Ordering::SeqCst),
            shed: self.counters.shed.load(Ordering::SeqCst),
            bad_requests: self.counters.bad_requests.load(Ordering::SeqCst),
            panics: self.counters.panics.load(Ordering::SeqCst),
            cache_hits: cache.hits,
            cache_byte_hits: cache.byte_hits,
            cache_structural_hits: cache.structural_hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_len: cache.len,
            cache_capacity: cache.capacity,
            cache_bytes: cache.bytes,
            verdict_hits: cache.verdict_hits,
        }
    }
}

/// Remote control over a running [`Server`] (cloneable, thread-safe).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins a graceful drain: stop accepting, shed new requests, let
    /// in-flight work finish under the shrinking drain deadline.
    pub fn begin_drain(&self) {
        let mut dd = lock(&self.shared.drain_deadline);
        if dd.is_none() {
            *dd = Some(Deadline::after(self.shared.config.drain_grace));
        }
        drop(dd);
        self.shared.accepting.store(false, Ordering::SeqCst);
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Cancels all in-flight explorations immediately (they return
    /// partial results at their next poll).
    pub fn hard_cancel(&self) {
        self.shared.hard_stop.store(true, Ordering::SeqCst);
        self.shared.cancel.cancel();
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }
}

/// A batch job writes the item frames it has collected once they pass
/// this many bytes, so a batch costs one `write` per 64 KiB.
const BATCH_WRITE_BYTES: usize = 64 * 1024;

/// Frames encoded for one `write_all`, with what their answers add to
/// the `served` and `bad_requests` counters once that write succeeds.
#[derive(Default)]
struct Outbox {
    bytes: Vec<u8>,
    served: u64,
    bad_requests: u64,
    /// A frame over the cap was refused; writing this outbox breaks the
    /// sink instead.
    overrun: bool,
}

impl Outbox {
    /// Counts one frame's answer: a final answer counts, a batch item
    /// as its inner answer; `progress`, `batch-done` and a shed (counted
    /// where it happens) add nothing.
    fn count(&mut self, response: &Response) {
        match response {
            Response::Item { inner, .. } => self.count(inner),
            Response::BadRequest(_) => self.bad_requests += 1,
            Response::Progress(_) | Response::BatchDone { .. } | Response::Overloaded => {}
            _ => self.served += 1,
        }
    }
}

/// The writer half of a [`ConnSink`]: the socket clone and the
/// in-flight count, guarded together so a request leaves the count in
/// the same step that writes its final frame.
struct SinkState {
    conn: Conn,
    /// Requests dispatched to the pool whose final frame has not been
    /// written yet.
    in_flight: usize,
    /// Whether the connection thread waits in [`ConnSink::wait_idle`]
    /// (a notify is a syscall even with no waiter, so it is skipped).
    waiting: bool,
}

/// The write half of a connection, shared between the connection
/// thread and the workers computing its requests. Every write happens
/// when its frames are produced, whole and under the mutex, so
/// concurrent completions interleave at frame granularity and no frame
/// waits for another request. An answer counts once its write succeeds.
struct ConnSink {
    state: Mutex<SinkState>,
    /// Signalled, while the connection thread waits, when the in-flight
    /// count reaches zero or the sink breaks.
    idle: Condvar,
    counters: Arc<Counters>,
    max_frame: usize,
    /// Whether `stream=true` requests get progress frames (v2 only).
    streams: bool,
    /// Set on the first write failure; workers stop computing for a
    /// connection whose peer is gone.
    broken: AtomicBool,
}

impl ConnSink {
    fn new(conn: Conn, counters: Arc<Counters>, max_frame: usize, streams: bool) -> ConnSink {
        ConnSink {
            state: Mutex::new(SinkState {
                conn,
                in_flight: 0,
                waiting: false,
            }),
            idle: Condvar::new(),
            counters,
            max_frame,
            streams,
            broken: AtomicBool::new(false),
        }
    }

    /// Appends one frame, tagged with `corr`, to `out`.
    fn push(&self, out: &mut Outbox, corr: Option<u64>, response: &Response) {
        let text = with_corr(corr, &response.encode());
        if text.len() > self.max_frame {
            // Our own encodings stay under the cap; treat an overrun
            // like a dead peer rather than desynchronize the stream.
            out.overrun = true;
            return;
        }
        out.bytes
            .extend_from_slice(&(text.len() as u32).to_be_bytes());
        out.bytes.extend_from_slice(text.as_bytes());
        out.count(response);
    }

    /// Writes `out` with one `write_all` and empties it. Its answers
    /// count if the write succeeds; the sink breaks if it fails.
    fn write_locked(&self, state: &mut SinkState, out: &mut Outbox) {
        let out = std::mem::take(out);
        if out.overrun {
            self.break_locked(state);
        }
        if self.is_broken() {
            return;
        }
        if state.conn.write_all(&out.bytes).is_err() {
            self.break_locked(state);
            return;
        }
        self.counters.served.fetch_add(out.served, Ordering::SeqCst);
        self.counters
            .bad_requests
            .fetch_add(out.bad_requests, Ordering::SeqCst);
    }

    fn write(&self, out: &mut Outbox) {
        self.write_locked(&mut lock(&self.state), out);
    }

    /// Marks the sink broken: nothing more is written through it.
    fn break_locked(&self, state: &SinkState) {
        self.broken.store(true, Ordering::SeqCst);
        if state.waiting {
            self.idle.notify_all();
        }
    }

    /// Writes one frame now.
    fn send(&self, corr: Option<u64>, response: &Response) {
        let mut out = Outbox::default();
        self.push(&mut out, corr, response);
        self.write(&mut out);
    }

    /// Writes a dispatched request's last frames and retires the request
    /// from the in-flight count in one critical section, so a connection
    /// thread that stops waiting for it either finds them written or
    /// keeps them from ever being written.
    fn finish(&self, mut out: Outbox) {
        let mut state = lock(&self.state);
        self.write_locked(&mut state, &mut out);
        state.in_flight -= 1;
        if state.in_flight == 0 && state.waiting {
            self.idle.notify_all();
        }
    }

    /// Blocks until no dispatched request is in flight, the sink breaks,
    /// or `timeout` passes. Returns the lock, so the caller acts on what
    /// it finds before any worker writes again.
    fn wait_idle(&self, timeout: Duration) -> MutexGuard<'_, SinkState> {
        let mut state = lock(&self.state);
        state.waiting = true;
        let (mut state, _) = self
            .idle
            .wait_timeout_while(state, timeout, |s| s.in_flight > 0 && !self.is_broken())
            .unwrap_or_else(PoisonError::into_inner);
        state.waiting = false;
        state
    }

    fn is_broken(&self) -> bool {
        self.broken.load(Ordering::SeqCst)
    }
}

/// One request for the pool; the worker writes its frames through
/// `sink`, tagged with `corr`.
struct Job {
    request: Request,
    sink: Arc<ConnSink>,
    corr: Option<u64>,
}

/// Streaming context threaded into a handler when the client asked for
/// progress frames (v2, non-batch only).
struct StreamCtx<'a> {
    sink: &'a ConnSink,
    corr: Option<u64>,
}

impl StreamCtx<'_> {
    fn progress(&self, stage: &str, states: usize, edges: usize) {
        let update = ProgressUpdate {
            stage: stage.to_owned(),
            states,
            edges,
        };
        self.sink.send(self.corr, &Response::Progress(update));
    }
}

/// The verification daemon. Bind with [`Server::bind`], then
/// [`Server::run`] until a [`ServerHandle::begin_drain`] completes.
pub struct Server {
    listeners: Vec<Listener>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds every endpoint and prepares the pool.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if any endpoint fails to bind.
    pub fn bind(endpoints: &[Endpoint], config: ServerConfig) -> io::Result<Server> {
        let listeners = endpoints
            .iter()
            .map(Listener::bind)
            .collect::<io::Result<Vec<_>>>()?;
        let cache = NetCache::new(config.cache_capacity, config.parse_limits);
        let inline_slots = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            cache,
            counters: Arc::default(),
            accepting: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            hard_stop: AtomicBool::new(false),
            stop_workers: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            cancel: CancelScope::new(),
            active_conns: AtomicUsize::new(0),
            inline_permits: AtomicUsize::new(inline_slots),
        });
        Ok(Server { listeners, shared })
    }

    /// A handle for drain/cancel control from other threads (e.g. the
    /// signal handler poll loop).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The concrete bound endpoints (resolves `:0` ports).
    ///
    /// # Errors
    ///
    /// [`io::Error`] if a local address cannot be read.
    pub fn local_endpoints(&self) -> io::Result<Vec<Endpoint>> {
        self.listeners
            .iter()
            .map(Listener::local_endpoint)
            .collect()
    }

    /// Serves until a drain completes; returns the final counters.
    pub fn run(self) -> ServerStats {
        let Server { listeners, shared } = self;
        let (job_tx, job_rx) = sync_channel::<Job>(shared.config.queue_depth);
        let job_rx = Arc::new(Mutex::new(job_rx));

        let workers: Vec<JoinHandle<()>> = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&job_rx);
                thread::Builder::new()
                    .name(format!("cpn-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .unwrap_or_else(|e| panic!("spawning worker {i}: {e}"))
            })
            .collect();

        let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
        while shared.accepting.load(Ordering::SeqCst) {
            let mut any = false;
            for listener in &listeners {
                match listener.try_accept() {
                    Ok(Some(conn)) => {
                        any = true;
                        self::accept_conn(&shared, conn, &job_tx, &mut conn_threads);
                    }
                    Ok(None) => {}
                    Err(_) => {}
                }
            }
            conn_threads.retain(|h| !h.is_finished());
            if !any {
                thread::sleep(Duration::from_millis(5));
            }
        }
        // Stop accepting: drop the listeners now so the OS refuses new
        // connections for the rest of the drain.
        drop(listeners);

        // Let in-flight connections finish under the drain deadline.
        loop {
            let deadline = shared.drain_deadline();
            let idle = shared.active_conns.load(Ordering::SeqCst) == 0;
            if idle {
                break;
            }
            if let Some(d) = deadline {
                if d.expired() {
                    // Grace over: cancel in-flight exploration; give
                    // connections a short moment to flush replies.
                    shared.hard_stop.store(true, Ordering::SeqCst);
                    shared.cancel.cancel();
                    if d.instant().elapsed() > shared.config.io_timeout {
                        break;
                    }
                }
            }
            thread::sleep(Duration::from_millis(10));
        }

        // Retire the pool.
        shared.stop_workers.store(true, Ordering::SeqCst);
        drop(job_tx);
        let mut joined = 0;
        for w in workers {
            if w.join().is_ok() {
                joined += 1;
            }
        }
        for h in conn_threads {
            let _ = h.join();
        }

        let cache = shared.cache.full_stats();
        let c = &shared.counters;
        ServerStats {
            accepted: c.accepted.load(Ordering::SeqCst),
            served: c.served.load(Ordering::SeqCst),
            shed: c.shed.load(Ordering::SeqCst),
            panics: c.panics.load(Ordering::SeqCst),
            bad_requests: c.bad_requests.load(Ordering::SeqCst),
            deadline_rejected: c.deadline_rejected.load(Ordering::SeqCst),
            handshake_failures: c.handshake_failures.load(Ordering::SeqCst),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            verdict_hits: cache.verdict_hits,
            workers_joined: joined,
        }
    }
}

fn accept_conn(
    shared: &Arc<Shared>,
    conn: Conn,
    job_tx: &SyncSender<Job>,
    conn_threads: &mut Vec<JoinHandle<()>>,
) {
    let active = shared.active_conns.load(Ordering::SeqCst);
    if active >= shared.config.max_connections {
        // Shed at the door: complete the (negotiated) handshake so the
        // client can read a typed refusal, then close.
        shared.counters.shed.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(shared);
        let _ = thread::Builder::new()
            .name("cpn-serve-shed".to_owned())
            .spawn(move || {
                let mut conn = conn;
                let _ = conn.set_read_timeout(Some(shared.config.io_timeout));
                let _ = conn.set_write_timeout(Some(shared.config.io_timeout));
                if let Ok(peer) = read_handshake_in(&mut conn, MIN_PROTO_VERSION..=PROTO_VERSION) {
                    if write_handshake_version(&mut conn, peer.min(PROTO_VERSION)).is_ok() {
                        let _ = write_frame(
                            &mut conn,
                            Response::Overloaded.encode().as_bytes(),
                            shared.config.max_frame,
                        );
                    }
                }
            });
        return;
    }
    shared.active_conns.fetch_add(1, Ordering::SeqCst);
    let shared_cl = Arc::clone(shared);
    let tx = job_tx.clone();
    let spawned = thread::Builder::new()
        .name("cpn-serve-conn".to_owned())
        .spawn(move || {
            serve_conn(&shared_cl, conn, &tx);
            shared_cl.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
    match spawned {
        Ok(h) => conn_threads.push(h),
        Err(_) => {
            shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn serve_conn(shared: &Arc<Shared>, mut conn: Conn, job_tx: &SyncSender<Job>) {
    let _ = conn.set_write_timeout(Some(shared.config.io_timeout));
    let _ = conn.set_read_timeout(Some(shared.config.io_timeout));
    let peer = match read_handshake_in(&mut conn, MIN_PROTO_VERSION..=PROTO_VERSION) {
        Ok(v) => v,
        Err(_) => {
            shared
                .counters
                .handshake_failures
                .fetch_add(1, Ordering::SeqCst);
            conn.shutdown();
            return;
        }
    };
    let version = peer.min(PROTO_VERSION);
    if write_handshake_version(&mut conn, version).is_err() {
        shared
            .counters
            .handshake_failures
            .fetch_add(1, Ordering::SeqCst);
        conn.shutdown();
        return;
    }
    shared.counters.accepted.fetch_add(1, Ordering::SeqCst);
    serve_frames(shared, conn, version < 2, job_tx);
}

/// The connection loop: the connection thread only reads and
/// dispatches; workers write through the shared [`ConnSink`]. Inline
/// verbs (`ping`, `stats`) are answered from this thread so they never
/// queue behind compute. A `lock_step` (v1) connection reads no
/// correlation ids, refuses batches, streams no progress, and reads its
/// next frame only once the request dispatched before it is answered.
fn serve_frames(shared: &Arc<Shared>, conn: Conn, lock_step: bool, job_tx: &SyncSender<Job>) {
    let writer = match conn.try_clone() {
        Ok(w) => w,
        Err(_) => {
            conn.shutdown();
            return;
        }
    };
    let _ = writer.set_write_timeout(Some(shared.config.io_timeout));
    let sink = Arc::new(ConnSink::new(
        writer,
        Arc::clone(&shared.counters),
        shared.config.max_frame,
        !lock_step,
    ));
    let limits = shared.config.batch_limits();
    // Buffer reads: a pipelined burst of small request frames arrives
    // in one TCP segment and is parsed from one `read` syscall.
    let mut reader = BufReader::with_capacity(64 * 1024, conn);
    // Sticky "this peer pipelines" bit: set the first time a frame
    // arrives with another already buffered behind it. It lets the
    // *tail* frame of a burst take the inline fast path too — without
    // it every burst pays one pool handoff, which dominates the cost
    // of a burst of microsecond queries.
    let mut bursty = false;
    let mut read_timeout = ReadTimeout::default();

    loop {
        if sink.is_broken() {
            break;
        }
        let payload = match read_frame_buffered(shared, &mut reader, &mut read_timeout) {
            Ok(Some(p)) => p,
            Ok(None) => break, // drain/hard stop, peer idle
            Err(FrameError::Oversized { claimed, max }) => {
                let resp = Response::BadRequest(format!(
                    "frame of {claimed} bytes exceeds the {max}-byte cap"
                ));
                sink.send(None, &resp);
                break; // stream desynchronized
            }
            Err(_) => break,
        };
        let (corr, decoded) = decode_frame(&payload, lock_step, &limits);
        let answer = match decoded {
            Err(msg) => Response::BadRequest(msg),
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Stats) => {
                // A write in progress on this connection finishes, and
                // counts, before the snapshot: the reply counts every
                // answer this peer has read.
                drop(lock(&sink.state));
                Response::Stats(shared.stats_reply())
            }
            Ok(request) => {
                // Fast path for pipelined bursts: when another complete
                // frame is already waiting in the read buffer, a small
                // query over an already-compiled net runs right here —
                // the pool handoff costs two context switches that
                // dwarf the exploration itself. A lock-step client
                // (empty buffer) stays on the pool: it is RTT-bound, so
                // inlining buys nothing and the read loop stays free.
                bursty |= frame_buffered(&reader);
                if bursty
                    && !shared.draining.load(Ordering::SeqCst)
                    && inline_eligible(shared, &request)
                    && try_acquire_inline(shared)
                {
                    let response = run_guarded(shared, &request, None, None);
                    shared.inline_permits.fetch_add(1, Ordering::SeqCst);
                    sink.send(corr, &response);
                    continue;
                }
                let deadline = shared.config.capped_deadline(&request);
                if let Some(resp) = dispatch(shared, request, corr, &sink, job_tx) {
                    // Shed (never queued): answer from this thread.
                    sink.send(corr, &resp);
                } else if lock_step && !await_final(shared, &sink, deadline) {
                    break;
                }
                continue;
            }
        };
        sink.send(corr, &answer);
    }

    // Stop reading, but let dispatched work write its final frames
    // before the socket closes — a pipelined client is owed exactly one
    // final frame per accepted request.
    let grace =
        shared.config.drain_grace.max(shared.config.io_timeout) + shared.config.default_deadline;
    drop(sink.wait_idle(grace));
    reader.into_inner().shutdown();
}

/// Splits a frame into its correlation id and its request. On a
/// `lock_step` (v1) connection the text is never split for `@<id>` and
/// a `batch` is refused; an error is the `bad-request` message.
fn decode_frame(
    payload: &[u8],
    lock_step: bool,
    limits: &BatchLimits,
) -> (Option<u64>, Result<Request, String>) {
    let Ok(text) = std::str::from_utf8(payload) else {
        return (None, Err("request is not UTF-8".to_owned()));
    };
    let (corr, body) = if lock_step {
        (None, text)
    } else {
        match split_corr(text) {
            Ok(split) => split,
            Err(msg) => return (None, Err(msg)),
        }
    };
    match Request::decode_with_limits(body, limits) {
        Ok(Request::Batch { .. }) if lock_step => {
            (corr, Err("batch requires protocol v2".to_owned()))
        }
        decoded => (corr, decoded),
    }
}

/// The lock-step wait of a v1 connection: blocks until the request just
/// dispatched has written its final frame. An answer overdue past its
/// `deadline` plus `io_timeout` plus 2 s of queueing and poll slack is
/// replaced by `internal-error worker did not reply in time`, and the
/// sink breaks so the late answer is never written. Returns whether the
/// connection may read on.
fn await_final(shared: &Shared, sink: &ConnSink, deadline: Duration) -> bool {
    let bound = deadline + shared.config.io_timeout + Duration::from_secs(2);
    let mut state = sink.wait_idle(bound);
    if state.in_flight == 0 {
        return true;
    }
    let mut out = Outbox::default();
    let late = Response::InternalError("worker did not reply in time".to_owned());
    sink.push(&mut out, None, &late);
    sink.write_locked(&mut state, &mut out);
    sink.break_locked(&state);
    false
}

/// The read timeout last set on a connection's socket. Setting one is a
/// `setsockopt` call, so [`read_frame_buffered`] sets a timeout only
/// for a read that will consult the socket, and only when it differs
/// from the one already set.
#[derive(Default)]
struct ReadTimeout(Option<Duration>);

impl ReadTimeout {
    fn set(&mut self, conn: &Conn, timeout: Duration) -> io::Result<()> {
        if self.0 != Some(timeout) {
            conn.set_read_timeout(Some(timeout))?;
            self.0 = Some(timeout);
        }
        Ok(())
    }
}

/// Reads one frame with separate idle and I/O timeouts. Returns
/// `Ok(None)` when the server is draining or hard-stopping and the peer
/// is idle. Consecutive small frames are served from one underlying
/// `read`; timeouts only bite when the buffer runs short and the socket
/// is actually consulted, so only then is one set.
fn read_frame_buffered(
    shared: &Shared,
    reader: &mut BufReader<Conn>,
    timeout: &mut ReadTimeout,
) -> Result<Option<Vec<u8>>, FrameError> {
    // Idle phase: poll for the first byte in short slices so drain and
    // hard-stop are observed promptly.
    let poll = Duration::from_millis(200);
    let started = Instant::now();
    let mut first = [0u8; 1];
    loop {
        if reader.buffer().is_empty() {
            timeout.set(reader.get_ref(), poll)?;
        }
        match reader.read(&mut first) {
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed",
                )))
            }
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // A peer that has not started a frame is closed as soon
                // as a drain begins (once its dispatched work is
                // answered) rather than holding the drain open for the
                // whole grace.
                if shared.hard_stop.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst)
                {
                    return Ok(None);
                }
                if started.elapsed() >= shared.config.idle_timeout {
                    return Err(FrameError::Io(e));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    // Frame phase: the peer has started a frame; finish it under the
    // I/O timeout (a stalled writer is cut off, not waited on).
    if !rest_buffered(reader, first[0]) {
        timeout.set(reader.get_ref(), shared.config.io_timeout)?;
    }
    let mut rest = [0u8; 3];
    reader.read_exact(&mut rest)?;
    let claimed = u32::from_be_bytes([first[0], rest[0], rest[1], rest[2]]) as usize;
    read_frame_payload(reader, claimed, shared.config.max_frame).map(Some)
}

/// Ceiling on `max_states` for the inline fast path: an exploration
/// this small finishes in microseconds, so running it on the
/// connection thread costs less than waking a worker for it.
const INLINE_MAX_STATES: usize = 10_000;

/// Whether the read buffer holds the rest of a frame whose first
/// length byte was `first`: the other three length bytes and the whole
/// payload.
fn rest_buffered(reader: &BufReader<Conn>, first: u8) -> bool {
    let buf = reader.buffer();
    buf.len() >= 3 && buf.len() - 3 >= u32::from_be_bytes([first, buf[0], buf[1], buf[2]]) as usize
}

/// Whether the read buffer already holds a complete frame — i.e. the
/// peer pipelines, so small queries may take the inline fast path.
fn frame_buffered(reader: &BufReader<Conn>) -> bool {
    let buf = reader.buffer();
    buf.len() >= 4 && buf.len() - 4 >= u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
}

/// Whether a request may run on the connection thread instead of the
/// pool: a non-streaming reach/cover query capped small enough
/// ([`INLINE_MAX_STATES`]) to finish in microseconds, over a net that
/// is already compiled (a cache miss would put an unbounded parse on
/// the read loop). Routing hint only — the answer is byte-identical on
/// either path.
fn inline_eligible(shared: &Shared, request: &Request) -> bool {
    let (net, doc, max_states) = match request {
        Request::Reach {
            stream: false,
            net,
            doc,
            max_states,
            ..
        } => (net, doc, max_states),
        Request::Cover {
            net,
            doc,
            max_states,
            ..
        } => (net, doc, max_states),
        _ => return false,
    };
    *max_states <= INLINE_MAX_STATES && shared.cache.peek(doc, net)
}

/// Takes one inline permit if any are free. Released by incrementing
/// [`Shared::inline_permits`] after the inline run.
fn try_acquire_inline(shared: &Shared) -> bool {
    shared
        .inline_permits
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

/// Queues a compute request. Returns `Some(shed response)` when the
/// request never reached the pool, `None` when a worker now owns
/// answering it.
fn dispatch(
    shared: &Arc<Shared>,
    request: Request,
    corr: Option<u64>,
    sink: &Arc<ConnSink>,
    job_tx: &SyncSender<Job>,
) -> Option<Response> {
    if shared.draining.load(Ordering::SeqCst) {
        // New work during drain is shed; only already-queued requests
        // finish.
        shared.counters.shed.fetch_add(1, Ordering::SeqCst);
        return Some(Response::Overloaded);
    }
    // Count the request in flight before the send: the worker may
    // finish (and decrement) before try_send even returns.
    lock(&sink.state).in_flight += 1;
    match job_tx.try_send(Job {
        request,
        sink: Arc::clone(sink),
        corr,
    }) {
        Ok(()) => None,
        Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
            lock(&sink.state).in_flight -= 1;
            shared.counters.shed.fetch_add(1, Ordering::SeqCst);
            Some(Response::Overloaded)
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let guard = lock(rx);
            guard.recv_timeout(Duration::from_millis(100))
        };
        match job {
            Ok(job) => {
                let last = run_job(shared, &job.request, &job.sink, job.corr);
                job.sink.finish(last);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop_workers.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Runs one request's handler inside `catch_unwind`, converting a panic
/// into `InternalError` (and counting it) without killing the worker.
fn run_guarded(
    shared: &Shared,
    request: &Request,
    umbrella: Option<Deadline>,
    stream: Option<&StreamCtx<'_>>,
) -> Response {
    catch_unwind(AssertUnwindSafe(|| {
        handle_request_opts(shared, request, umbrella, stream)
    }))
    .unwrap_or_else(|panic| {
        shared.counters.panics.fetch_add(1, Ordering::SeqCst);
        Response::InternalError(format!("worker panicked: {}", panic_message(&panic)))
    })
}

/// Executes one pool job: computes it, writes the frames that precede
/// its last ones (progress frames when streamed, a batch's items each
/// time they pass [`BATCH_WRITE_BYTES`]), and returns the last ones
/// (the final answer, or a batch's remaining items and `batch-done`)
/// for [`ConnSink::finish`] to write.
fn run_job(shared: &Shared, request: &Request, sink: &ConnSink, corr: Option<u64>) -> Outbox {
    let mut out = Outbox::default();
    match request {
        Request::Batch { items, .. } => {
            // Umbrella deadline for the whole batch, capped by the
            // server default and the drain deadline like any single
            // request's.
            let mut umbrella = Deadline::after(shared.config.capped_deadline(request));
            if let Some(dd) = shared.drain_deadline() {
                umbrella = umbrella.min(dd);
            }
            // Repeated identical items hash-cons their *answers*: the
            // kernel's determinism contract makes a completed or
            // cap-exhausted verdict a pure function of the request,
            // so byte-identical items share one computation. Verdicts
            // cut short by the wall clock, a cancellation or a refused
            // allocation are not pure and always recompute.
            let mut memo: HashMap<String, Response> = HashMap::new();
            for (index, item) in items.iter().enumerate() {
                // A gone peer makes the remaining compute pointless.
                if sink.is_broken() {
                    break;
                }
                let inner = match item {
                    BatchItem::Malformed(msg) => {
                        Response::BadRequest(format!("item {index}: {msg}"))
                    }
                    BatchItem::Request(_) if umbrella.expired() => {
                        // Umbrella over: unstarted items degrade to
                        // typed partials; finished siblings stand.
                        shared
                            .counters
                            .deadline_rejected
                            .fetch_add(1, Ordering::SeqCst);
                        Response::DeadlineExceeded
                    }
                    BatchItem::Request(req) => {
                        let key = req.encode();
                        match memo.get(&key) {
                            Some(hit) => hit.clone(),
                            None => {
                                let resp = run_guarded(shared, req, Some(umbrella), None);
                                if response_is_pure(&resp) {
                                    memo.insert(key, resp.clone());
                                }
                                resp
                            }
                        }
                    }
                };
                let item = Response::Item {
                    index,
                    inner: Box::new(inner),
                };
                sink.push(&mut out, corr, &item);
                if out.overrun {
                    break;
                }
                if out.bytes.len() >= BATCH_WRITE_BYTES {
                    sink.write(&mut out);
                }
            }
            // Always close the batch, even when every item degraded —
            // the client's collect loop keys on this frame.
            sink.push(&mut out, corr, &Response::BatchDone { n: items.len() });
        }
        // A gone peer makes the compute pointless.
        _ if sink.is_broken() => {}
        _ => {
            let wants_stream = sink.streams
                && matches!(
                    request,
                    Request::Reach { stream: true, .. } | Request::Verify { stream: true, .. }
                );
            let ctx = StreamCtx { sink, corr };
            let response = run_guarded(shared, request, None, wants_stream.then_some(&ctx));
            sink.push(&mut out, corr, &response);
        }
    }
    out
}

/// Whether a response is a pure function of its request — reusable for
/// a byte-identical sibling in the same batch.
fn response_is_pure(resp: &Response) -> bool {
    match resp {
        Response::Result(s) => stop_is_pure(&s.stopped),
        Response::VerifyResult(v) => stop_is_pure(&v.stopped),
        Response::BadRequest(_) => true,
        _ => false,
    }
}

/// Whether an answer with this stop is a pure function of its request:
/// complete, or stopped by the state or transition cap (the kernel's
/// determinism contract). A stop the wall clock, a cancellation or a
/// refused allocation (`storage`) caused is not.
fn stop_is_pure(stopped: &Option<String>) -> bool {
    matches!(
        stopped.as_deref(),
        None | Some("states") | Some("transitions")
    )
}

/// Computes one request under its budget. Runs inside `catch_unwind`.
fn handle_request_opts(
    shared: &Shared,
    request: &Request,
    umbrella: Option<Deadline>,
    stream: Option<&StreamCtx<'_>>,
) -> Response {
    let (net_name, max_states, threads, doc, is_cover) = match request {
        // The connection answers these itself, and runs a batch item by
        // item.
        Request::Ping | Request::Stats | Request::Batch { .. } => {
            return Response::InternalError(format!("`{}` is not a computation", request.verb()))
        }
        Request::Verify { .. } => return handle_verify(shared, request, umbrella, stream),
        Request::Reach {
            net,
            max_states,
            threads,
            doc,
            ..
        } => (net, *max_states, *threads, doc, false),
        Request::Cover {
            net,
            max_states,
            threads,
            doc,
            ..
        } => (net, *max_states, *threads, doc, true),
    };

    // Zero threads or requests beyond the protocol ceiling are client
    // nonsense and get a typed rejection; any other value is accepted
    // and has no effect.
    if threads == 0 || threads > MAX_REQUEST_THREADS {
        return Response::BadRequest(format!(
            "threads must be in 1..={MAX_REQUEST_THREADS}, got {threads}"
        ));
    }

    // Chaos hook: with CPN_SERVE_CHAOS set, a request for this net name
    // panics inside the worker on purpose, so panic isolation is
    // testable end-to-end over the real wire path. Inert in normal
    // operation.
    if net_name == "__chaos_panic" && std::env::var_os("CPN_SERVE_CHAOS").is_some() {
        panic!("chaos hook: deliberate worker panic");
    }

    let deadline = match effective_deadline(shared, request, umbrella) {
        Some(d) => d,
        None => return Response::DeadlineExceeded,
    };
    let cap = max_states.min(shared.config.max_states_cap);

    let cached = match shared.cache.get_or_compile(doc, net_name) {
        Ok(c) => c,
        Err(miss) => return miss.into(),
    };

    let summary = if is_cover {
        let budget = Budget::states(cap)
            .with_deadline_at(deadline)
            .with_cancel(shared.cancel.token());
        match CoverabilityTree::build_compiled(&cached.compiled, &cached.m0, &budget) {
            Bounded::Complete(tree) => {
                let detail = match tree.outcome() {
                    CoverabilityOutcome::Bounded { bound } => format!("bounded={bound}"),
                    CoverabilityOutcome::Unbounded { witnesses } => {
                        format!("unbounded_witnesses={}", witnesses.len())
                    }
                };
                ExploreSummary {
                    states: tree.markings().len(),
                    edges: 0,
                    stopped: None,
                    detail,
                }
            }
            Bounded::Exhausted { info, .. } => ExploreSummary {
                states: info.states_explored,
                edges: info.transitions_explored,
                stopped: Some(info.resource.to_string()),
                detail: String::new(),
            },
        }
    } else {
        explore_reach(shared, &cached, cap, deadline, stream)
    };
    Response::Result(summary)
}

/// The shrunk per-request deadline (client's, server default, batch
/// umbrella, drain), or `None` when it has already passed.
fn effective_deadline(
    shared: &Shared,
    request: &Request,
    umbrella: Option<Deadline>,
) -> Option<Deadline> {
    let mut deadline = Deadline::after(shared.config.capped_deadline(request));
    if let Some(u) = umbrella {
        deadline = deadline.min(u);
    }
    if let Some(dd) = shared.drain_deadline() {
        deadline = deadline.min(dd);
    }
    if deadline.expired() {
        shared
            .counters
            .deadline_rejected
            .fetch_add(1, Ordering::SeqCst);
        return None;
    }
    Some(deadline)
}

/// Reachability, optionally streamed. The answer reads counts and the
/// token bound, so the exploration stores states but no edges (a
/// [`StateSpace`](cpn_petri::StateSpace)). The streamed variant
/// re-explores in geometrically growing slices (×4), emitting a
/// `progress` frame after each exhausted slice; because the slices grow
/// geometrically, the re-explored prefixes sum to less than a third of
/// the final exploration, and the final answer is byte-identical to the
/// unstreamed one (the kernel is deterministic under a states cap).
fn explore_reach(
    shared: &Shared,
    cached: &crate::cache::CachedNet,
    cap: usize,
    deadline: Deadline,
    stream: Option<&StreamCtx<'_>>,
) -> ExploreSummary {
    let mut slice = match stream {
        Some(_) => STREAM_FIRST_SLICE.min(cap),
        None => cap,
    };
    loop {
        let budget = Budget::states(slice)
            .with_deadline_at(deadline)
            .with_cancel(shared.cancel.token());
        match state_space_bounded_compiled(&cached.compiled, &cached.m0, &budget) {
            Bounded::Complete(space) => {
                return ExploreSummary {
                    states: space.state_count(),
                    edges: space.edge_count(),
                    stopped: None,
                    detail: format!("bound={}", space.token_bound()),
                }
            }
            Bounded::Exhausted { info, .. } => {
                if slice < cap && matches!(info.resource, Resource::States) {
                    if let Some(ctx) = stream {
                        ctx.progress("explore", info.states_explored, info.transitions_explored);
                    }
                    slice = slice.saturating_mul(4).min(cap);
                    continue;
                }
                return ExploreSummary {
                    states: info.states_explored,
                    edges: info.transitions_explored,
                    stopped: Some(info.resource.to_string()),
                    detail: String::new(),
                };
            }
        }
    }
}

/// A document that does not parse, or lacks the requested net, is the
/// client's error.
impl From<CacheMiss> for Response {
    fn from(miss: CacheMiss) -> Response {
        Response::BadRequest(match miss {
            CacheMiss::Parse(msg) => format!("parse error: {msg}"),
            CacheMiss::NoSuchNet(name) => format!("no net named `{name}` in document"),
        })
    }
}

/// The paper pipeline server-side: compose, then check receptiveness and
/// reduce against the environment from one exploration of the
/// composition, under the one shared budget; each stage boundary is
/// streamed when asked. A pure answer is recorded in the cache's verdict
/// tier, which answers the same pair and parameters again without
/// composing or exploring.
fn handle_verify(
    shared: &Shared,
    request: &Request,
    umbrella: Option<Deadline>,
    stream: Option<&StreamCtx<'_>>,
) -> Response {
    let Request::Verify {
        module,
        env,
        louts,
        routs,
        max_states,
        hide_budget,
        doc,
        ..
    } = request
    else {
        return Response::InternalError("handle_verify on non-verify request".to_owned());
    };
    let deadline = match effective_deadline(shared, request, umbrella) {
        Some(d) => d,
        None => return Response::DeadlineExceeded,
    };
    let cap = (*max_states).min(shared.config.max_states_cap);

    // Both nets come out of the same cache the single-request paths
    // use, from at most one parse of the document, so a batch fanning
    // one document across many (module, env) pairs parses it once.
    let nets = match shared.cache.get_or_compile_many(doc, &[module, env]) {
        Ok(nets) => nets,
        Err(miss) => return miss.into(),
    };
    let (module_net, env_net) = (&nets[0], &nets[1]);
    let key = VerdictKey::new(
        module_net,
        env_net,
        louts.iter().cloned().collect(),
        routs.iter().cloned().collect(),
        cap,
        *hide_budget,
    );
    if let Some(hit) = shared.cache.verdict(&key) {
        if let Some(ctx) = stream {
            // The frames the computation streams, each a function of
            // its answer.
            ctx.progress("composed", 0, hit.composed_transitions);
            ctx.progress("checked", hit.states, hit.edges);
            if let Some(reduced) = hit.reduced_transitions {
                ctx.progress("reduced", 0, reduced);
            }
        }
        return Response::VerifyResult(hit);
    }
    let budget = Budget::states(cap)
        .with_deadline_at(deadline)
        .with_cancel(shared.cancel.token());

    let comp = match parallel_tracked_common(&module_net.net, &env_net.net) {
        Ok(c) => c,
        Err(err) => return Response::BadRequest(format!("composition failed: {err}")),
    };
    let composed_transitions = comp.net.transition_count();
    if let Some(ctx) = stream {
        ctx.progress("composed", 0, composed_transitions);
    }

    let check = verify_against_environment(
        &comp,
        &module_net.net.alphabet(),
        &key.louts,
        &key.routs,
        &budget,
        *hide_budget,
    );
    let (receptive, failures, states, edges) = match check.receptiveness {
        Verdict::Holds => (Receptive::Yes, Vec::new(), 0, 0),
        Verdict::Fails(report) => {
            let labels = report.failures.into_iter().map(|f| f.label).collect();
            (Receptive::No, labels, 0, 0)
        }
        Verdict::Unknown(info) => (
            Receptive::Unknown,
            Vec::new(),
            info.states_explored,
            info.transitions_explored,
        ),
    };
    if let Some(ctx) = stream {
        ctx.progress("checked", states, edges);
    }

    let (reduced_transitions, dead_removed, stopped) = match check.reduction {
        Ok(Bounded::Complete(red)) => {
            if let Some(ctx) = stream {
                ctx.progress("reduced", 0, red.net.transition_count());
            }
            (Some(red.net.transition_count()), red.dead_removed, None)
        }
        // An `Unknown` verdict stopped the same exploration, so this is
        // its stop too.
        Ok(Bounded::Exhausted { partial, info }) => {
            (None, partial.dead_removed, Some(info.resource.to_string()))
        }
        // Divergent hiding is a property of the submitted nets
        // (unbounded internal behaviour), not of the server: typed
        // rejection, like a parse failure.
        Err(err) => return Response::BadRequest(format!("reduction failed: {err}")),
    };

    let summary = VerifySummary {
        receptive,
        failures,
        states,
        edges,
        stopped,
        composed_transitions,
        reduced_transitions,
        dead_removed,
    };
    if stop_is_pure(&summary.stopped) {
        shared.cache.record_verdict(key, summary.clone());
    }
    Response::VerifyResult(summary)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Locks a mutex, recovering from poisoning (a panicking worker has
/// already been isolated; the guarded state stays consistent).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Only complete answers and answers stopped by the state or
    /// transition cap are reused: a `storage` stop comes from a refused
    /// allocation, which the next attempt need not meet.
    #[test]
    fn only_complete_and_cap_stopped_answers_are_pure() {
        let verify = |stopped: Option<String>| {
            Response::VerifyResult(VerifySummary {
                receptive: Receptive::Unknown,
                failures: Vec::new(),
                states: 3,
                edges: 4,
                stopped,
                composed_transitions: 5,
                reduced_transitions: None,
                dead_removed: 0,
            })
        };
        let result = |stopped: Option<String>| {
            Response::Result(ExploreSummary {
                states: 3,
                edges: 4,
                stopped,
                detail: String::new(),
            })
        };
        for answer in [verify, result] {
            assert!(response_is_pure(&answer(None)));
            for pure in [Resource::States, Resource::Transitions] {
                assert!(response_is_pure(&answer(Some(pure.to_string()))), "{pure}");
            }
            for impure in [Resource::Deadline, Resource::Cancelled, Resource::Storage] {
                let stopped = Some(impure.to_string());
                assert!(!response_is_pure(&answer(stopped)), "{impure}");
            }
        }
    }
}
