//! Client library: handshake negotiation, request/response, batches,
//! pipelining, and retry-with-jittered-backoff for transient failures.
//!
//! Three client shapes, cheapest first:
//!
//! * [`Client::request`] — one request, one response, lock-step. Works
//!   against v1 and v2 servers (the handshake negotiates down
//!   automatically).
//! * [`Client::batch`] — N sub-requests in one frame, N answers in one
//!   round trip (v2). The dominant cost of small verification requests
//!   is the per-round-trip overhead, not the exploration; batching
//!   amortizes it across the batch.
//! * [`PipelinedClient`] — a configurable window of requests in flight
//!   at once, correlated by id, completions consumable out of order
//!   (v2). Keeps the connection's pipe full without waiting for each
//!   answer before sending the next question.

use crate::frame::{
    read_frame, read_handshake_in, write_frame, write_handshake, FrameError, MIN_PROTO_VERSION,
    PROTO_VERSION,
};
use crate::proto::{split_corr, with_corr, ProgressUpdate, Request, Response};
use crate::transport::{Conn, Endpoint};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::io::{BufReader, Write};
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Dial, handshake, or framing failed.
    Transport(FrameError),
    /// The server's bytes decoded but were not a valid response.
    Protocol(String),
    /// A batch was refused as a whole before any item ran (shed,
    /// malformed frame, …); holds the server's typed answer.
    Refused(Response),
    /// Every attempt of a retried request failed; holds the last error.
    RetriesExhausted(Box<ClientError>),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::Refused(resp) => write!(f, "refused: {resp}"),
            ClientError::RetriesExhausted(last) => {
                write!(f, "retries exhausted; last error: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Transport(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Transport(FrameError::Io(e))
    }
}

fn decode_frame(payload: &[u8]) -> Result<(Option<u64>, Response), ClientError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ClientError::Protocol("response is not UTF-8".to_owned()))?;
    let (corr, body) = split_corr(text).map_err(ClientError::Protocol)?;
    let response = Response::decode(body).map_err(ClientError::Protocol)?;
    Ok((corr, response))
}

/// A connected, handshaken client.
///
/// Reads are buffered: a burst of frames (a batch's items, written up
/// to 64 KiB at a time, or pipelined completions) is consumed with one
/// `read` syscall instead of two per frame.
pub struct Client {
    reader: BufReader<Conn>,
    max_frame: usize,
    io_timeout: Duration,
    version: u16,
}

impl Client {
    /// Dials and handshakes (negotiating the protocol version down to
    /// what the server speaks).
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on dial/handshake failure.
    pub fn connect(ep: &Endpoint) -> Result<Client, ClientError> {
        Client::connect_with(ep, crate::frame::DEFAULT_MAX_FRAME, Duration::from_secs(30))
    }

    /// [`Client::connect`] with an explicit frame cap and I/O timeout.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on dial/handshake failure.
    pub fn connect_with(
        ep: &Endpoint,
        max_frame: usize,
        io_timeout: Duration,
    ) -> Result<Client, ClientError> {
        let mut conn = Conn::dial(ep)?;
        conn.set_read_timeout(Some(io_timeout))?;
        conn.set_write_timeout(Some(io_timeout))?;
        write_handshake(&mut conn).map_err(FrameError::Io)?;
        let version = read_handshake_in(&mut conn, MIN_PROTO_VERSION..=PROTO_VERSION)?;
        Ok(Client {
            reader: BufReader::with_capacity(64 * 1024, conn),
            max_frame,
            io_timeout,
            version,
        })
    }

    /// The protocol version negotiated with the server.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Sends one request and waits for its final response, discarding
    /// any streamed progress frames.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on I/O failure,
    /// [`ClientError::Protocol`] if the server's reply does not decode.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.request_streaming(req, |_| {})
    }

    /// Sends one request, invoking `on_progress` for each streamed
    /// [`Response::Progress`] frame, and returns the final response.
    ///
    /// # Errors
    ///
    /// As [`Client::request`]. A batch request gets a whole-batch error
    /// here — use [`Client::batch`] for batches.
    pub fn request_streaming(
        &mut self,
        req: &Request,
        mut on_progress: impl FnMut(ProgressUpdate),
    ) -> Result<Response, ClientError> {
        write_frame(
            self.reader.get_mut(),
            req.encode().as_bytes(),
            self.max_frame,
        )?;
        loop {
            let payload = read_frame(&mut self.reader, self.max_frame)?;
            let (_, response) = decode_frame(&payload)?;
            match response {
                Response::Progress(p) => on_progress(p),
                Response::Item { .. } | Response::BatchDone { .. } => {
                    return Err(ClientError::Protocol(
                        "unexpected batch frame for a single request".to_owned(),
                    ))
                }
                final_resp => return Ok(final_resp),
            }
        }
    }

    /// Sends `items` as one batch frame and collects the per-item
    /// answers, in item order, through the closing `batch-done` frame.
    /// Requires a v2 server.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] on a v1 connection or a malformed item
    /// list, [`ClientError::Refused`] when the server answered the
    /// whole batch with a single typed refusal (e.g. `Overloaded`),
    /// [`ClientError::Transport`] on I/O failure.
    pub fn batch(
        &mut self,
        items: Vec<Request>,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<Response>, ClientError> {
        if self.version < 2 {
            return Err(ClientError::Protocol(
                "batch requires protocol v2; server negotiated v1".to_owned(),
            ));
        }
        let n = items.len();
        let req = Request::batch(items, deadline_ms).map_err(ClientError::Protocol)?;
        write_frame(
            self.reader.get_mut(),
            req.encode().as_bytes(),
            self.max_frame,
        )?;

        // Item frames may be spaced by whole explorations; wait per
        // frame for the umbrella deadline (or the server's default),
        // plus margin, instead of the plain I/O timeout.
        let umbrella = deadline_ms.map_or(Duration::from_secs(30), Duration::from_millis);
        self.reader
            .get_mut()
            .set_read_timeout(Some(crate::frame::reply_timeout(umbrella)))?;
        let result = self.collect_batch(n);
        let _ = self
            .reader
            .get_mut()
            .set_read_timeout(Some(self.io_timeout));
        result
    }

    fn collect_batch(&mut self, n: usize) -> Result<Vec<Response>, ClientError> {
        let mut out: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        let mut filled = 0usize;
        loop {
            let payload = read_frame(&mut self.reader, self.max_frame)?;
            let (_, response) = decode_frame(&payload)?;
            match response {
                Response::Progress(_) => {}
                Response::Item { index, inner } => {
                    let slot = out.get_mut(index).ok_or_else(|| {
                        ClientError::Protocol(format!("item index {index} out of range 0..{n}"))
                    })?;
                    if slot.replace(*inner).is_some() {
                        return Err(ClientError::Protocol(format!(
                            "item {index} answered twice"
                        )));
                    }
                    filled += 1;
                }
                Response::BatchDone { n: done } => {
                    if done != n || filled != n {
                        return Err(ClientError::Protocol(format!(
                            "batch-done n={done} after {filled} of {n} items"
                        )));
                    }
                    return Ok(out.into_iter().flatten().collect());
                }
                refusal if filled == 0 => return Err(ClientError::Refused(refusal)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected mid-batch frame `{other}`"
                    )))
                }
            }
        }
    }
}

/// A v2 client keeping up to `window` requests in flight on one
/// connection. Submissions past the window block until a completion
/// frees a slot; completions are correlated by id, so they can be
/// consumed out of submission order.
///
/// Writes coalesce: submitted frames collect in a buffer that is
/// flushed in one syscall the moment the client turns around to read
/// (window full, [`PipelinedClient::recv`], [`PipelinedClient::drain`])
/// or on an explicit [`PipelinedClient::flush`]. A full window of
/// small requests therefore costs one `write`, not `window` of them.
pub struct PipelinedClient {
    reader: BufReader<Conn>,
    wbuf: Vec<u8>,
    max_frame: usize,
    window: usize,
    next_corr: u64,
    in_flight: HashSet<u64>,
    ready: VecDeque<(u64, Response)>,
    progress: Vec<(u64, ProgressUpdate)>,
}

impl PipelinedClient {
    /// Dials, handshakes, and requires protocol v2.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on dial/handshake failure,
    /// [`ClientError::Protocol`] if the server only speaks v1.
    pub fn connect(ep: &Endpoint, window: usize) -> Result<PipelinedClient, ClientError> {
        PipelinedClient::connect_with(
            ep,
            window,
            crate::frame::DEFAULT_MAX_FRAME,
            Duration::from_secs(30),
        )
    }

    /// [`PipelinedClient::connect`] with an explicit frame cap and I/O
    /// timeout.
    ///
    /// # Errors
    ///
    /// As [`PipelinedClient::connect`].
    pub fn connect_with(
        ep: &Endpoint,
        window: usize,
        max_frame: usize,
        io_timeout: Duration,
    ) -> Result<PipelinedClient, ClientError> {
        let mut conn = Conn::dial(ep)?;
        conn.set_read_timeout(Some(io_timeout))?;
        conn.set_write_timeout(Some(io_timeout))?;
        write_handshake(&mut conn).map_err(FrameError::Io)?;
        let version = read_handshake_in(&mut conn, MIN_PROTO_VERSION..=PROTO_VERSION)?;
        if version < 2 {
            return Err(ClientError::Protocol(
                "pipelining requires protocol v2; server negotiated v1".to_owned(),
            ));
        }
        Ok(PipelinedClient {
            reader: BufReader::with_capacity(64 * 1024, conn),
            wbuf: Vec::new(),
            max_frame,
            window: window.max(1),
            next_corr: 1,
            in_flight: HashSet::new(),
            ready: VecDeque::new(),
            progress: Vec::new(),
        })
    }

    /// Requests currently awaiting their final frame.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Submits a request, returning its correlation id. Blocks (by
    /// receiving completions) while the in-flight window is full.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] for a batch request (one batch is
    /// already a pipeline — submit it via [`Client::batch`]),
    /// [`ClientError::Transport`] on I/O failure.
    pub fn submit(&mut self, req: &Request) -> Result<u64, ClientError> {
        if matches!(req, Request::Batch { .. }) {
            return Err(ClientError::Protocol(
                "submit individual requests; batches go through Client::batch".to_owned(),
            ));
        }
        // Hysteresis: when the window fills, receive until *half* of
        // it is free rather than exactly one slot. Submissions then
        // alternate between a burst of writes (one coalesced syscall)
        // and a burst of reads, instead of degenerating into strict
        // one-in-one-out lock-step at full depth. A window of 1 keeps
        // exact lock-step.
        if self.in_flight.len() >= self.window {
            let refill = (self.window / 2).max(1);
            while self.in_flight.len() > self.window - refill {
                self.pump_one()?;
            }
        }
        let corr = self.next_corr;
        self.next_corr += 1;
        let text = with_corr(Some(corr), &req.encode());
        // Into the coalescing buffer (a Vec sinks write_frame's single
        // write); the wire write happens at the next flush point.
        write_frame(&mut self.wbuf, text.as_bytes(), self.max_frame)?;
        self.in_flight.insert(corr);
        Ok(corr)
    }

    /// Pushes any buffered submissions onto the wire now. Called
    /// automatically before every read; useful when the window is not
    /// yet full and the caller wants the server started immediately.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on I/O failure.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        let conn = self.reader.get_mut();
        conn.write_all(&self.wbuf)?;
        conn.flush()?;
        self.wbuf.clear();
        Ok(())
    }

    /// The next completed `(correlation id, final response)`, in
    /// completion order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when nothing is in flight, or on a
    /// frame that violates the protocol; [`ClientError::Transport`] on
    /// I/O failure.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        loop {
            if let Some(done) = self.ready.pop_front() {
                return Ok(done);
            }
            if self.in_flight.is_empty() {
                return Err(ClientError::Protocol("no requests in flight".to_owned()));
            }
            self.pump_one()?;
        }
    }

    /// Receives until every in-flight request has completed; returns
    /// all buffered completions in completion order.
    ///
    /// # Errors
    ///
    /// As [`PipelinedClient::recv`].
    pub fn drain(&mut self) -> Result<Vec<(u64, Response)>, ClientError> {
        while !self.in_flight.is_empty() {
            self.pump_one()?;
        }
        Ok(self.ready.drain(..).collect())
    }

    /// Takes the streamed progress frames buffered so far (tagged with
    /// their request's correlation id).
    pub fn take_progress(&mut self) -> Vec<(u64, ProgressUpdate)> {
        std::mem::take(&mut self.progress)
    }

    /// Reads frames until one final response completes some request.
    fn pump_one(&mut self) -> Result<(), ClientError> {
        self.flush()?; // everything we owe the server goes first
        loop {
            let payload = read_frame(&mut self.reader, self.max_frame)?;
            let (corr, response) = decode_frame(&payload)?;
            let corr = corr.ok_or_else(|| {
                ClientError::Protocol(format!("response `{response}` missing correlation id"))
            })?;
            match response {
                Response::Progress(p) => {
                    self.progress.push((corr, p));
                }
                Response::Item { .. } | Response::BatchDone { .. } => {
                    return Err(ClientError::Protocol(
                        "unexpected batch frame on a pipelined connection".to_owned(),
                    ))
                }
                final_resp => {
                    if !self.in_flight.remove(&corr) {
                        return Err(ClientError::Protocol(format!(
                            "completion for unknown correlation id {corr}"
                        )));
                    }
                    self.ready.push_back((corr, final_resp));
                    return Ok(());
                }
            }
        }
    }
}

/// Backoff policy for [`request_with_retry`]: exponential growth from
/// `base` capped at `cap`, with full jitter (each sleep is uniform in
/// `[0, backoff]`, the AWS "full jitter" scheme — it decorrelates a
/// thundering herd of clients retrying a shed server).
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub attempts: u32,
    /// First backoff before jitter.
    pub base: Duration,
    /// Upper bound on the un-jittered backoff.
    pub cap: Duration,
    /// Seed for the jitter stream — deterministic tests pass a fixed
    /// seed; production callers can derive one from the PID or clock.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            seed: 0x5EED,
        }
    }
}

/// One request with reconnect-and-retry on transient failures: dial
/// errors, transport errors, and [`Response::Overloaded`] sheds all
/// back off and retry; definitive responses (results, typed errors)
/// return immediately.
///
/// # Errors
///
/// [`ClientError::RetriesExhausted`] wrapping the last failure once the
/// attempt budget is spent.
pub fn request_with_retry(
    ep: &Endpoint,
    req: &Request,
    policy: &RetryPolicy,
) -> Result<Response, ClientError> {
    let mut jitter = SplitMix64::new(policy.seed);
    let mut backoff = policy.base;
    let mut last: Option<ClientError> = None;
    for attempt in 0..policy.attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(jitter.duration_in(backoff));
            backoff = (backoff * 2).min(policy.cap);
        }
        let outcome = Client::connect(ep).and_then(|mut c| c.request(req));
        match outcome {
            Ok(Response::Overloaded) => {
                last = Some(ClientError::Protocol("server overloaded".to_owned()));
            }
            Ok(resp) => return Ok(resp),
            Err(e) => last = Some(e),
        }
    }
    Err(ClientError::RetriesExhausted(Box::new(last.unwrap_or(
        ClientError::Protocol("no attempts made".to_owned()),
    ))))
}

/// Minimal SplitMix64 for jitter — the client must not depend on the
/// test-only `cpn-testkit` crate.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform duration in `[0, max]` (full jitter).
    fn duration_in(&mut self, max: Duration) -> Duration {
        let nanos = max.as_nanos().min(u128::from(u64::MAX)) as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(((u128::from(self.next_u64()) * u128::from(nanos + 1)) >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let max = Duration::from_millis(100);
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..100 {
            let d = a.duration_in(max);
            assert!(d <= max);
            assert_eq!(d, b.duration_in(max));
        }
    }

    #[test]
    fn retry_against_dead_endpoint_exhausts() {
        // Port 1 on localhost is essentially never listening.
        let ep = Endpoint::Tcp("127.0.0.1:1".to_owned());
        let policy = RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 1,
        };
        match request_with_retry(&ep, &Request::Ping, &policy) {
            Err(ClientError::RetriesExhausted(_)) => {}
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }
}
