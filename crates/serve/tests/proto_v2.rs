//! Protocol v2 end-to-end tests: version negotiation with v1 clients,
//! server-side `verify` (the paper pipeline) and its answers from the
//! cache's verdict tier, batching with per-item results and umbrella
//! deadlines, live stats with cache counters, streaming progress
//! frames, and pipelined correlation.

use cpn_core::{check_receptiveness, parallel_tracked_common, reduce_against_environment};
use cpn_petri::{
    reachability_bounded_compiled, Bounded, Budget, CoverabilityTree, PetriNet, Verdict,
};
use cpn_serve::frame::{
    encode_frame, read_frame, read_handshake, read_handshake_in, write_handshake_version,
    MIN_PROTO_VERSION, PROTO_VERSION,
};
use cpn_serve::proto::{split_corr, with_corr};
use cpn_serve::{
    BatchItem, Client, Endpoint, PipelinedClient, ProgressUpdate, Receptive, Request, Response,
    Server, ServerConfig, VerifySummary,
};
use cpn_testkit::TestRng;
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::time::Duration;

const SMALL_NET: &str = r#"net small {
    places { p* q }
    transition "a" { pre: p; post: q }
    transition "b" { pre: q; post: p }
}"#;

/// The paper's running example: a producer/consumer handshake pair in
/// one document. `req` is the module's output, `ack` the
/// environment's; the composition is receptive.
const HANDSHAKE_DOC: &str = r#"net producer {
    places { a0* a1 }
    transition "req" { pre: a0; post: a1 }
    transition "ack" { pre: a1; post: a0 }
}

net consumer {
    places { b0* b1 }
    transition "req" { pre: b0; post: b1 }
    transition "ack" { pre: b1; post: b0 }
}"#;

/// Same pair with the consumer phase-shifted half a handshake: the
/// producer can offer `req` when the consumer is not ready.
const BROKEN_DOC: &str = r#"net producer {
    places { a0* a1 }
    transition "req" { pre: a0; post: a1 }
    transition "ack" { pre: a1; post: a0 }
}

net consumer {
    places { b0 b1* }
    transition "req" { pre: b0; post: b1 }
    transition "ack" { pre: b1; post: b0 }
}"#;

fn explosive_doc(n: usize) -> String {
    let mut doc = String::from("net boom {\n    places {");
    for i in 0..n {
        doc.push_str(&format!(" a{i}* b{i}"));
    }
    doc.push_str(" }\n");
    for i in 0..n {
        doc.push_str(&format!(
            "    transition \"up{i}\" {{ pre: a{i}; post: b{i} }}\n"
        ));
        doc.push_str(&format!(
            "    transition \"down{i}\" {{ pre: b{i}; post: a{i} }}\n"
        ));
    }
    doc.push('}');
    doc
}

fn small_reach(deadline_ms: Option<u64>) -> Request {
    Request::Reach {
        net: "small".into(),
        max_states: 1000,
        deadline_ms,
        threads: 1,
        stream: false,
        doc: SMALL_NET.into(),
    }
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        queue_depth: 32,
        default_deadline: Duration::from_secs(10),
        drain_grace: Duration::from_secs(2),
        idle_timeout: Duration::from_secs(5),
        io_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

fn start() -> (
    Endpoint,
    cpn_serve::ServerHandle,
    std::thread::JoinHandle<cpn_serve::ServerStats>,
) {
    start_with(config())
}

fn start_with(
    config: ServerConfig,
) -> (
    Endpoint,
    cpn_serve::ServerHandle,
    std::thread::JoinHandle<cpn_serve::ServerStats>,
) {
    let server = Server::bind(&[Endpoint::Tcp("127.0.0.1:0".into())], config).expect("bind");
    let ep = server.local_endpoints().expect("endpoints").remove(0);
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (ep, handle, join)
}

/// A v1 client (advertising version 1) still handshakes and runs the
/// lock-step loop unchanged against the v2 server; batch frames are
/// refused with a typed error instead of a protocol break.
#[test]
fn v1_client_handshakes_and_works_unchanged() {
    let (ep, handle, join) = start();
    let mut conn = cpn_serve::Conn::dial(&ep).expect("dial");
    let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
    write_handshake_version(&mut conn, 1).expect("handshake out");
    let negotiated =
        read_handshake_in(&mut conn, MIN_PROTO_VERSION..=PROTO_VERSION).expect("handshake in");
    assert_eq!(negotiated, 1, "server must meet a v1 client at v1");

    // Lock-step request/response, no correlation prefixes.
    for _ in 0..2 {
        conn.write_all(&encode_frame(small_reach(None).encode().as_bytes()))
            .expect("request frame");
        let payload = read_frame(&mut conn, 1 << 20).expect("response frame");
        let text = std::str::from_utf8(&payload).expect("UTF-8");
        assert!(
            !text.starts_with('@'),
            "v1 responses must not carry correlation ids: {text}"
        );
        match Response::decode(text).expect("typed") {
            Response::Result(s) => assert_eq!(s.states, 2),
            other => panic!("expected Result, got {other:?}"),
        }
    }

    // Batch is a v2 feature: typed refusal, connection stays up.
    let batch = Request::batch(vec![small_reach(None)], None).expect("batch");
    conn.write_all(&encode_frame(batch.encode().as_bytes()))
        .expect("batch frame");
    let payload = read_frame(&mut conn, 1 << 20).expect("refusal");
    match Response::decode(std::str::from_utf8(&payload).expect("UTF-8")).expect("typed") {
        Response::BadRequest(msg) => assert!(msg.contains("v2"), "msg: {msg}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    conn.shutdown();
    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!(stats.panics, 0);
}

/// Dials `ep` advertising protocol v1 only.
fn dial_v1(ep: &Endpoint) -> cpn_serve::Conn {
    let mut conn = cpn_serve::Conn::dial(ep).expect("dial");
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    write_handshake_version(&mut conn, 1).expect("handshake out");
    let negotiated =
        read_handshake_in(&mut conn, MIN_PROTO_VERSION..=PROTO_VERSION).expect("handshake in");
    assert_eq!(negotiated, 1, "server must meet a v1 client at v1");
    conn
}

/// The text of the next frame on `conn`.
fn read_text(conn: &mut cpn_serve::Conn) -> String {
    String::from_utf8(read_frame(conn, 1 << 20).expect("frame")).expect("UTF-8")
}

/// A v1 client that writes six frames at once is still answered in
/// lock-step: one frame per request, in request order, even when the
/// first request is the slowest. v1 has no correlation ids (`@7 ping`
/// is an unknown verb), and `stream=true` sends no progress frames. A
/// frame over the cap is refused and closes its connection, and an
/// idle v1 connection closes as soon as a drain begins.
#[test]
fn v1_frames_written_together_are_answered_in_lock_step() {
    let (ep, handle, join) = start();
    let mut conn = dial_v1(&ep);
    let boom = Request::Reach {
        net: "boom".into(),
        max_states: 60_000,
        deadline_ms: None,
        threads: 1,
        stream: true,
        doc: explosive_doc(16),
    };
    let verify = Request::Verify {
        module: "producer".into(),
        env: "consumer".into(),
        louts: vec!["req".into()],
        routs: vec!["ack".into()],
        max_states: 100_000,
        deadline_ms: None,
        hide_budget: 10_000,
        stream: true,
        doc: HANDSHAKE_DOC.into(),
    };
    let frames = [
        boom.encode(),
        small_reach(None).encode(),
        verify.encode(),
        small_reach(None).encode(),
        with_corr(Some(7), &Request::Ping.encode()),
        Request::Ping.encode(),
    ];
    let burst: Vec<u8> = frames
        .iter()
        .flat_map(|text| encode_frame(text.as_bytes()))
        .collect();
    conn.write_all(&burst).expect("six frames in one write");

    let replies: Vec<String> = frames.iter().map(|_| read_text(&mut conn)).collect();
    for text in &replies {
        assert!(
            !text.starts_with('@') && !text.starts_with("progress"),
            "v1 replies carry no correlation id and no progress: {replies:?}"
        );
    }
    let decoded: Vec<Response> = replies
        .iter()
        .map(|text| Response::decode(text).expect("typed"))
        .collect();
    match &decoded[0] {
        Response::Result(s) => {
            assert_eq!(s.states, 60_000, "{replies:?}");
            assert_eq!(s.stopped.as_deref(), Some("states"), "{replies:?}");
        }
        other => panic!("expected the capped reach first, got {other:?}: {replies:?}"),
    }
    for i in [1, 3] {
        assert!(
            matches!(&decoded[i], Response::Result(s) if s.states == 2),
            "reply {i}: {replies:?}"
        );
    }
    assert!(
        matches!(&decoded[2], Response::VerifyResult(v) if v.receptive == Receptive::Yes),
        "{replies:?}"
    );
    assert_eq!(
        decoded[4],
        Response::BadRequest("unknown verb `@7`".into()),
        "{replies:?}"
    );
    assert_eq!(decoded[5], Response::Pong, "{replies:?}");

    // A frame over the cap: typed refusal, then the connection closes.
    let max = ServerConfig::default().max_frame;
    let mut oversized = dial_v1(&ep);
    oversized
        .write_all(&(max as u32 + 1).to_be_bytes())
        .expect("oversized header");
    assert_eq!(
        Response::decode(&read_text(&mut oversized)).expect("typed"),
        Response::BadRequest(format!(
            "frame of {} bytes exceeds the {max}-byte cap",
            max + 1
        ))
    );
    assert!(
        read_frame(&mut oversized, 1 << 20).is_err(),
        "closed after the refusal"
    );

    // The first connection is idle now: a drain closes it promptly.
    let drained = std::time::Instant::now();
    handle.begin_drain();
    assert!(
        read_frame(&mut conn, 1 << 20).is_err(),
        "closed by the drain"
    );
    assert!(
        drained.elapsed() < Duration::from_secs(1),
        "idle v1 connection closed {:?} after the drain began",
        drained.elapsed()
    );
    let stats = join.join().expect("server");
    assert_eq!(stats.served, 5, "{stats:?}");
    assert_eq!(
        stats.bad_requests, 2,
        "`@7` and the oversized frame: {stats:?}"
    );
    assert_eq!(stats.panics, 0);
}

/// A v1 answer overdue past the lock-step bound (the request's deadline,
/// capped by `default_deadline`, plus `io_timeout` plus 2 s) is replaced
/// by `internal-error worker did not reply in time`, and the connection
/// then closes, so the late answer can never be read as the reply to a
/// later request. The overdue request counts once, as its
/// `internal-error`: its own answer is never written, so never counted.
#[test]
fn v1_overdue_answer_is_an_internal_error_then_a_close() {
    let (ep, handle, join) = start_with(ServerConfig {
        workers: 1,
        io_timeout: Duration::from_millis(200),
        ..config()
    });
    // Occupy the only worker with a batch under a 6 s umbrella. The
    // `ping` behind it is answered only once the batch is queued.
    let mut busy = cpn_serve::Conn::dial(&ep).expect("dial");
    let _ = busy.set_read_timeout(Some(Duration::from_secs(20)));
    write_handshake_version(&mut busy, PROTO_VERSION).expect("handshake out");
    assert_eq!(read_handshake(&mut busy).expect("handshake in"), 2);
    let long = busy_batch(6_000);
    let mut frames = encode_frame(with_corr(Some(1), &long.encode()).as_bytes());
    frames.extend(encode_frame(
        with_corr(Some(2), &Request::Ping.encode()).as_bytes(),
    ));
    busy.write_all(&frames).expect("batch and ping");
    assert_eq!(read_text(&mut busy), "@2 pong");

    let mut conn = dial_v1(&ep);
    let started = std::time::Instant::now();
    conn.write_all(&encode_frame(small_reach(Some(100)).encode().as_bytes()))
        .expect("request frame");
    let reply = read_text(&mut conn);
    let waited = started.elapsed();
    assert_eq!(
        Response::decode(&reply).expect("typed"),
        Response::InternalError("worker did not reply in time".into())
    );
    assert!(
        waited >= Duration::from_millis(2_200) && waited < Duration::from_secs(6),
        "answered after {waited:?}; the bound is 100 ms + 200 ms + 2 s"
    );
    let _ = conn.write_all(&encode_frame(Request::Ping.encode().as_bytes()));
    let after = read_frame(&mut conn, 1 << 20);
    assert!(
        after.is_err(),
        "the connection closes after an overdue answer, got {:?}",
        after.map(String::from_utf8)
    );

    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!(stats.panics, 0);
    assert_eq!(
        stats.served, 402,
        "400 batch items, `@2 pong` and the `internal-error`: {stats:?}"
    );
}

/// A batch that keeps the only worker busy: 400 distinct capped
/// explorations (distinct caps, so no two share an answer) under an
/// umbrella of `umbrella_ms`.
fn busy_batch(umbrella_ms: u64) -> Request {
    let items = (0..400)
        .map(|i| Request::Reach {
            net: "boom".into(),
            max_states: 140_000 + i,
            deadline_ms: None,
            threads: 1,
            stream: false,
            doc: explosive_doc(17),
        })
        .collect();
    Request::batch(items, Some(umbrella_ms)).expect("batch")
}

/// A reach of `explosive_doc(16)` capped at 60,000 states: too big for
/// the inline fast path, so it runs on the pool.
fn capped_reach() -> Request {
    Request::Reach {
        net: "boom".into(),
        max_states: 60_000,
        deadline_ms: None,
        threads: 1,
        stream: false,
        doc: explosive_doc(16),
    }
}

/// A finished answer is written when it is produced, never held until
/// an unrelated request finishes. With one worker, a capped reach and a
/// batch under a 4 s umbrella arrive in one write; the reach's answer
/// is read long before the umbrella ends (the batch starts only once
/// the reach is done, so `batch-done` comes about 4 s after it), and the
/// batch still answers every item in order.
#[test]
fn an_answer_is_written_before_the_batch_queued_behind_it() {
    let (ep, handle, join) = start_with(ServerConfig {
        workers: 1,
        ..config()
    });
    let mut conn = cpn_serve::Conn::dial(&ep).expect("dial");
    let _ = conn.set_read_timeout(Some(Duration::from_secs(20)));
    write_handshake_version(&mut conn, PROTO_VERSION).expect("handshake out");
    assert_eq!(read_handshake(&mut conn).expect("handshake in"), 2);
    let mut frames = encode_frame(with_corr(Some(1), &capped_reach().encode()).as_bytes());
    frames.extend(encode_frame(
        with_corr(Some(2), &busy_batch(4_000).encode()).as_bytes(),
    ));
    conn.write_all(&frames).expect("reach and batch");

    let first = read_text(&mut conn);
    let answered = std::time::Instant::now();
    match split_corr(&first).expect("corr") {
        (Some(1), text) => match Response::decode(text).expect("typed") {
            Response::Result(s) => assert_eq!(s.states, 60_000, "{first}"),
            other => panic!("expected the capped reach, got {other:?}"),
        },
        other => panic!("expected `@1` first, got {other:?}"),
    }

    let mut items = 0;
    loop {
        let text = read_text(&mut conn);
        let (corr, body) = split_corr(&text).expect("corr");
        assert_eq!(corr, Some(2), "{text}");
        match Response::decode(body).expect("typed") {
            Response::Item { index, .. } => {
                assert_eq!(index, items, "{text}");
                items += 1;
            }
            Response::BatchDone { n } => {
                assert_eq!((n, items), (400, 400));
                break;
            }
            other => panic!("expected an item or batch-done, got {other:?}"),
        }
    }
    let before_done = answered.elapsed();
    assert!(
        before_done >= Duration::from_secs(2),
        "the reach's answer was read only {before_done:?} before `batch-done`, held behind the batch"
    );
    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!((stats.panics, stats.served), (0, 401), "{stats:?}");
}

/// Serves one v2 connection over a Unix socket, where a write to a
/// closed peer fails at once (over TCP the first one still succeeds):
/// the peer sends `requests`, then a malformed frame, reads the
/// `bad-request` that answers it, closes, and the server drains. The
/// connection thread answers the malformed frame itself, so reading its
/// answer shows that every request ahead of it was dispatched before
/// the peer closed.
#[cfg(unix)]
fn hang_up_after(test: &str, config: ServerConfig, requests: &[Request]) -> cpn_serve::ServerStats {
    let dir = std::env::temp_dir().join(format!("cpn-serve-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let server = Server::bind(&[Endpoint::Unix(dir.join("peer.sock"))], config).expect("bind");
    let ep = server.local_endpoints().expect("endpoints").remove(0);
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let mut conn = cpn_serve::Conn::dial(&ep).expect("dial");
    write_handshake_version(&mut conn, PROTO_VERSION).expect("handshake out");
    assert_eq!(read_handshake(&mut conn).expect("handshake in"), 2);
    let mut frames = Vec::new();
    for (corr, req) in (1..).zip(requests) {
        frames.extend(encode_frame(
            with_corr(Some(corr), &req.encode()).as_bytes(),
        ));
    }
    frames.extend(encode_frame(b"@0 frobnicate"));
    conn.write_all(&frames)
        .expect("requests and a malformed frame");
    assert_eq!(
        read_text(&mut conn),
        "@0 bad-request unknown verb `frobnicate`"
    );
    drop(conn);

    handle.begin_drain();
    let stats = join.join().expect("server");
    let _ = std::fs::remove_dir_all(&dir);
    stats
}

/// An answer counts once it is written. A peer sends a capped reach and
/// closes before it is answered: the worker's write fails, and
/// `served` stays 0.
#[cfg(unix)]
#[test]
fn an_answer_to_a_peer_that_has_gone_is_not_counted() {
    let stats = hang_up_after("gone-peer", config(), &[capped_reach()]);
    assert_eq!(
        (stats.accepted, stats.shed, stats.cache_misses, stats.panics),
        (1, 0, 1, 0),
        "the reach ran on the pool: {stats:?}"
    );
    assert_eq!(
        (stats.served, stats.bad_requests),
        (0, 1),
        "only the `bad-request` was written: {stats:?}"
    );
}

/// A request queued for a peer that has gone is not computed. With one
/// worker, a capped reach runs while a reach of a second, uncached
/// document waits behind it; the peer closes, the first answer's write
/// fails, and the worker drops the second request without compiling or
/// exploring it: one cache miss, not two.
#[cfg(unix)]
#[test]
fn a_request_queued_for_a_peer_that_has_gone_is_not_computed() {
    let second = Request::Reach {
        net: "boom".into(),
        max_states: 1_000,
        deadline_ms: None,
        threads: 1,
        stream: false,
        doc: explosive_doc(4),
    };
    let config = ServerConfig {
        workers: 1,
        ..config()
    };
    let stats = hang_up_after("queued-for-gone-peer", config, &[capped_reach(), second]);
    assert_eq!(
        (stats.accepted, stats.shed, stats.panics),
        (1, 0, 0),
        "{stats:?}"
    );
    assert_eq!(
        stats.cache_misses, 1,
        "only the first reach was computed: {stats:?}"
    );
    assert_eq!(
        (stats.served, stats.bad_requests),
        (0, 1),
        "only the `bad-request` was written: {stats:?}"
    );
}

#[test]
fn default_client_negotiates_v2() {
    let (ep, handle, join) = start();
    let client = Client::connect(&ep).expect("connect");
    assert_eq!(client.version(), PROTO_VERSION);
    drop(client);
    handle.begin_drain();
    join.join().expect("server");
}

/// The tentpole `verify` request: compose module ‖ environment, check
/// receptiveness, reduce against the environment — one round trip.
#[test]
fn verify_runs_the_paper_pipeline_server_side() {
    let (ep, handle, join) = start();
    let mut client = Client::connect(&ep).expect("connect");

    let req = Request::Verify {
        module: "producer".into(),
        env: "consumer".into(),
        louts: vec!["req".into()],
        routs: vec!["ack".into()],
        max_states: 100_000,
        deadline_ms: Some(5_000),
        hide_budget: 10_000,
        stream: false,
        doc: HANDSHAKE_DOC.into(),
    };
    match client.request(&req).expect("verify") {
        Response::VerifyResult(v) => {
            assert_eq!(v.receptive, Receptive::Yes, "{v:?}");
            assert!(v.failures.is_empty());
            assert_eq!(v.composed_transitions, 2, "req and ack synchronize");
            assert!(v.stopped.is_none());
            assert!(
                v.reduced_transitions.is_some(),
                "reduction stage ran: {v:?}"
            );
        }
        other => panic!("expected VerifyResult, got {other:?}"),
    }

    let broken = Request::Verify {
        module: "producer".into(),
        env: "consumer".into(),
        louts: vec!["req".into()],
        routs: vec!["ack".into()],
        max_states: 100_000,
        deadline_ms: Some(5_000),
        hide_budget: 10_000,
        stream: false,
        doc: BROKEN_DOC.into(),
    };
    match client.request(&broken).expect("verify broken") {
        Response::VerifyResult(v) => {
            assert_eq!(v.receptive, Receptive::No, "{v:?}");
            assert!(
                v.failures.iter().any(|l| l == "req"),
                "failing label reported: {v:?}"
            );
        }
        other => panic!("expected VerifyResult, got {other:?}"),
    }
    drop(client);
    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!(stats.panics, 0);
}

/// A requester of two lanes (one and two handshakes) against a worker
/// that takes one private step `e` per request: hiding the `e` steps
/// changes the composition, so the reduction runs its cleanup pass.
const PRIVATE_STEP_DOC: &str = r#"net requester {
    places { m0* m1 n0* n1 n2 n3 }
    transition "r0" { pre: m0; post: m1 }
    transition "a0" { pre: m1; post: m0 }
    transition "r1" { pre: n0; post: n1 }
    transition "a1" { pre: n1; post: n2 }
    transition "r2" { pre: n2; post: n3 }
    transition "a2" { pre: n3; post: n0 }
}

net worker {
    places { x0* x1 x2 y0* y1 y2 y3 y4 y5 }
    transition "r0" { pre: x0; post: x1 }
    transition "e0" { pre: x1; post: x2 }
    transition "a0" { pre: x2; post: x0 }
    transition "r1" { pre: y0; post: y1 }
    transition "e1" { pre: y1; post: y2 }
    transition "a1" { pre: y2; post: y3 }
    transition "r2" { pre: y3; post: y4 }
    transition "e2" { pre: y4; post: y5 }
    transition "a2" { pre: y5; post: y0 }
}"#;

/// The nets named `module` and `env` in `doc`.
fn parse_pair(doc: &str, (module, env): (&str, &str)) -> (PetriNet<String>, PetriNet<String>) {
    let nets = cpn_format::parse(doc).expect("document parses").nets;
    let net = |name: &str| {
        let found = nets.iter().find(|(n, _)| n == name);
        found.expect("net in document").1.clone()
    };
    (net(module), net(env))
}

/// A verify case: the document, the names of the module and the
/// environment in it, and their outputs.
type VerifyCase = (
    &'static str,
    (&'static str, &'static str),
    Vec<String>,
    Vec<String>,
);

fn labels(ls: &[&str]) -> Vec<String> {
    ls.iter().map(|l| l.to_string()).collect()
}

/// A receptive pair, a non-receptive pair and a pair whose reduction
/// hides private steps.
fn verify_cases() -> Vec<VerifyCase> {
    vec![
        (
            HANDSHAKE_DOC,
            ("producer", "consumer"),
            labels(&["req"]),
            labels(&["ack"]),
        ),
        (
            BROKEN_DOC,
            ("producer", "consumer"),
            labels(&["req"]),
            labels(&["ack"]),
        ),
        (
            PRIVATE_STEP_DOC,
            ("requester", "worker"),
            labels(&["r0", "r1", "r2"]),
            labels(&["a0", "a1", "a2"]),
        ),
    ]
}

/// The verify pipeline as two calls that each explore the composition:
/// `check_receptiveness`, then `reduce_against_environment` unless the
/// check stopped. With no deadline in play the server must answer the
/// same.
fn two_call_reference(
    (module, env): &(PetriNet<String>, PetriNet<String>),
    louts: &BTreeSet<String>,
    routs: &BTreeSet<String>,
    budget: &Budget,
    hide_budget: usize,
) -> VerifySummary {
    let comp = parallel_tracked_common(module, env).expect("pair composes");
    let mut summary = VerifySummary {
        receptive: Receptive::Yes,
        failures: Vec::new(),
        states: 0,
        edges: 0,
        stopped: None,
        composed_transitions: comp.net.transition_count(),
        reduced_transitions: None,
        dead_removed: 0,
    };
    match check_receptiveness(&comp, louts, routs, budget) {
        Verdict::Holds => {}
        Verdict::Fails(report) => {
            summary.receptive = Receptive::No;
            summary.failures = report.failures.into_iter().map(|f| f.label).collect();
        }
        Verdict::Unknown(info) => {
            summary.receptive = Receptive::Unknown;
            summary.states = info.states_explored;
            summary.edges = info.transitions_explored;
            summary.stopped = Some(info.resource.to_string());
        }
    }
    if summary.stopped.is_none() {
        match reduce_against_environment(module, env, budget, hide_budget) {
            Ok(Bounded::Complete(red)) => {
                summary.reduced_transitions = Some(red.net.transition_count());
                summary.dead_removed = red.dead_removed;
            }
            Ok(Bounded::Exhausted { partial, info }) => {
                summary.dead_removed = partial.dead_removed;
                summary.stopped = Some(info.resource.to_string());
            }
            Err(err) => panic!("reduction failed: {err}"),
        }
    }
    summary
}

/// Every state cap from 0 to one past the composition's state count, on
/// a receptive pair, a non-receptive pair and a pair whose reduction
/// hides private steps: the server's one-pass verify answers exactly
/// what the two-call pipeline answers, and every reply either completed
/// the reduction or names its stop.
#[test]
fn verify_budget_sweep_matches_two_call_reference() {
    let (ep, handle, join) = start();
    let mut client = Client::connect(&ep).expect("connect");
    let hide_budget = 10_000;
    for (doc, (module, env), louts, routs) in verify_cases() {
        let lset: BTreeSet<String> = louts.iter().cloned().collect();
        let rset: BTreeSet<String> = routs.iter().cloned().collect();
        let pair = parse_pair(doc, (module, env));
        let comp = parallel_tracked_common(&pair.0, &pair.1).expect("pair composes");
        let states = comp.net.reachability_bounded(&Budget::default());
        let states = states.complete().expect("small pair").state_count();
        let (mut complete, mut stopped) = (0, 0);
        for max_states in 0..=states + 1 {
            let req = Request::Verify {
                module: module.into(),
                env: env.into(),
                louts: louts.clone(),
                routs: routs.clone(),
                max_states,
                deadline_ms: None,
                hide_budget,
                stream: false,
                doc: doc.into(),
            };
            let budget = Budget::states(max_states);
            let expected = two_call_reference(&pair, &lset, &rset, &budget, hide_budget);
            match client.request(&req).expect("verify") {
                Response::VerifyResult(v) => {
                    assert_eq!(v, expected, "{module}/{env} max_states={max_states}");
                    assert_eq!(
                        v.reduced_transitions.is_some(),
                        v.stopped.is_none(),
                        "{v:?}"
                    );
                    if v.stopped.is_none() {
                        complete += 1;
                    } else {
                        stopped += 1;
                    }
                }
                other => panic!("expected VerifyResult, got {other:?}"),
            }
        }
        assert!(
            complete > 0 && stopped > 0,
            "{module}/{env}: {complete}/{stopped}"
        );
    }
    drop(client);
    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!(stats.panics, 0);
}

/// The progress frames a streamed verify answered `v` must send: the
/// composition's size, the receptiveness pass's counts, and the reduced
/// size when the reduction completed.
fn verify_frames(v: &VerifySummary) -> Vec<ProgressUpdate> {
    let frame = |stage: &str, states, edges| ProgressUpdate {
        stage: stage.to_owned(),
        states,
        edges,
    };
    let mut frames = vec![
        frame("composed", 0, v.composed_transitions),
        frame("checked", v.states, v.edges),
    ];
    frames.extend(v.reduced_transitions.map(|n| frame("reduced", 0, n)));
    frames
}

/// A streamed verify repeated on the same connection is answered from
/// the cache's verdict tier, and is indistinguishable on the wire from
/// the computed one: the same `composed`, `checked` and `reduced`
/// frames with the same counts, then the unstreamed request's final
/// answer. Both a complete and a cap-stopped answer are repeated.
#[test]
fn streamed_verify_repeats_send_the_computed_frames() {
    let (ep, handle, join) = start();
    let mut client = Client::connect(&ep).expect("connect");
    let hide_budget = 10_000;
    let mut repeats = 0;
    for (doc, (module, env), louts, routs) in verify_cases() {
        let pair = parse_pair(doc, (module, env));
        let lset: BTreeSet<String> = louts.iter().cloned().collect();
        let rset: BTreeSet<String> = routs.iter().cloned().collect();
        for max_states in [100_000, 1] {
            let req = |stream| Request::Verify {
                module: module.into(),
                env: env.into(),
                louts: louts.clone(),
                routs: routs.clone(),
                max_states,
                deadline_ms: None,
                hide_budget,
                stream,
                doc: doc.into(),
            };
            let at = format!("{module}/{env} max_states={max_states}");
            let streamed: Vec<_> = (0..2)
                .map(|_| {
                    let mut frames = Vec::new();
                    let last = client
                        .request_streaming(&req(true), |p| frames.push(p))
                        .expect("streamed verify");
                    (frames, last)
                })
                .collect();
            assert_eq!(streamed[0], streamed[1], "{at}: repeat differs");
            let plain = client.request(&req(false)).expect("verify");
            assert_eq!(streamed[0].1, plain, "{at}: streamed final");
            let expected = two_call_reference(
                &pair,
                &lset,
                &rset,
                &Budget::states(max_states),
                hide_budget,
            );
            assert_eq!(plain, Response::VerifyResult(expected.clone()), "{at}");
            assert_eq!(streamed[0].0, verify_frames(&expected), "{at}: frames");
            repeats += 2;
        }
    }
    drop(client);
    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.verdict_hits, repeats, "every repeat is a verdict hit");
}

/// A fourth pair: the module chooses between two requests, and the
/// environment takes a private step before it acknowledges.
const CHOICE_DOC: &str = r#"net chooser {
    places { c0* c1 }
    transition "d0" { pre: c0; post: c1 }
    transition "d1" { pre: c0; post: c1 }
    transition "ack" { pre: c1; post: c0 }
}

net acceptor {
    places { r0* r1 r2 }
    transition "d0" { pre: r0; post: r1 }
    transition "d1" { pre: r0; post: r1 }
    transition "w" { pre: r1; post: r2 }
    transition "ack" { pre: r2; post: r0 }
}"#;

/// `items` in a seeded order (Fisher–Yates).
fn shuffle<T>(items: &mut [T], rng: &mut TestRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `doc` spelled differently: every place renamed, and places,
/// transitions and the nets themselves declared in a shuffled order.
/// Every net keeps its `NetId`.
fn respell(doc: &str, rng: &mut TestRng) -> String {
    let mut nets = cpn_format::parse(doc).expect("document parses").nets;
    shuffle(&mut nets, rng);
    let salt = rng.below(1_000_000);
    let mut out = String::new();
    for (name, net) in &nets {
        let mut copy: PetriNet<String> = PetriNet::new();
        let mut places: Vec<_> = net.place_ids().collect();
        shuffle(&mut places, rng);
        let mut renamed = HashMap::new();
        for p in places {
            let q = copy.add_place(format!("s{salt}_{}", p.index()));
            copy.set_initial(q, net.initial_marking().tokens(p));
            renamed.insert(p, q);
        }
        let mut transitions: Vec<_> = net.transition_ids().collect();
        shuffle(&mut transitions, rng);
        for t in transitions {
            let tr = net.transition(t);
            copy.add_transition(
                tr.preset().iter().map(|p| renamed[p]),
                net.label_of(t).clone(),
                tr.postset().iter().map(|p| renamed[p]),
            )
            .expect("copied transition is valid");
        }
        out.push_str(&cpn_format::write_net(name, &copy));
    }
    out
}

/// The verdict tier under churn: a server holding three nets answers a
/// few hundred verify requests over four pairs (six distinct nets: the
/// handshake's two are one), so entries are evicted and compiled again,
/// and their verdicts purged, all the time. Each request is sent byte-identical or respelled, with
/// its labels as declared, with either side's outputs left out, and
/// with a state cap of 0, 1, half, all or one past all of the
/// composition's states; some are streamed. Every answer must equal the
/// two-call reference on the parsed pair.
#[test]
fn verify_answers_under_cache_churn_match_two_call_reference() {
    let (ep, handle, join) = start_with(ServerConfig {
        cache_capacity: 3,
        ..config()
    });
    let mut client = Client::connect(&ep).expect("connect");
    let mut cases = verify_cases();
    cases.push((
        CHOICE_DOC,
        ("chooser", "acceptor"),
        labels(&["d0", "d1"]),
        labels(&["ack"]),
    ));
    let pairs: Vec<_> = cases
        .iter()
        .map(|&(doc, names, ..)| parse_pair(doc, names))
        .collect();
    let caps: Vec<Vec<usize>> = pairs
        .iter()
        .map(|(module, env)| {
            let comp = parallel_tracked_common(module, env).expect("pair composes");
            let all = comp.net.reachability_bounded(&Budget::default());
            let all = all.complete().expect("small pair").state_count();
            vec![0, 1, all / 2, all, all + 1]
        })
        .collect();
    let hide_budget = 10_000;
    let mut reference = HashMap::new();
    let mut rng = TestRng::seed_from_u64(0x5eed_7e5d);
    let (mut verified, mut streamed) = (0, 0);
    for _ in 0..400 {
        let i = rng.below(cases.len());
        let (doc, (module, env), louts, routs) = &cases[i];
        let max_states = *rng.choose(&caps[i]);
        let outputs = rng.below(3);
        let (louts, routs) = match outputs {
            0 => (louts.clone(), routs.clone()),
            1 => (louts.clone(), Vec::new()),
            _ => (Vec::new(), routs.clone()),
        };
        let doc = if rng.gen_bool() {
            (*doc).to_owned()
        } else {
            respell(doc, &mut rng)
        };
        let stream = rng.gen_ratio(1, 4);
        let expected = reference
            .entry((i, max_states, outputs))
            .or_insert_with(|| {
                let lset = louts.iter().cloned().collect();
                let rset = routs.iter().cloned().collect();
                let budget = Budget::states(max_states);
                two_call_reference(&pairs[i], &lset, &rset, &budget, hide_budget)
            })
            .clone();
        let req = Request::Verify {
            module: (*module).into(),
            env: (*env).into(),
            louts,
            routs,
            max_states,
            deadline_ms: None,
            hide_budget,
            stream,
            doc,
        };
        let at = format!("{module}/{env} max_states={max_states} outputs={outputs}");
        let mut frames = Vec::new();
        let answer = client
            .request_streaming(&req, |p| frames.push(p))
            .expect("verify");
        if stream {
            assert_eq!(frames, verify_frames(&expected), "{at}: frames");
            streamed += 1;
        } else {
            assert!(frames.is_empty(), "{at}: unasked frames");
        }
        assert_eq!(answer, Response::VerifyResult(expected), "{at}");
        verified += 1;
    }
    let Response::Stats(cache) = client.request(&Request::Stats).expect("stats") else {
        panic!("expected Stats");
    };
    drop(client);
    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!((stats.panics, stats.served), (0, verified + 1));
    assert!(streamed > 0);
    // Hits, purges and re-inserts all ran: verdicts were answered,
    // entries evicted (dropping their verdicts), and nets compiled
    // again after eviction (more misses than distinct nets).
    let distinct: BTreeSet<_> = pairs
        .iter()
        .flat_map(|(module, env)| [module.net_id(), env.net_id()])
        .collect();
    assert_eq!(distinct.len(), 6);
    assert!(stats.verdict_hits > 0, "{stats:?}");
    assert!(cache.cache_evictions > 0, "{cache:?}");
    assert!(cache.cache_misses > distinct.len() as u64, "{cache:?}");
}

/// Every state cap from 0 to one past the state (or tree node) count,
/// for reach and cover: a stopped answer reports what was charged to the
/// budget, as a stopped verify does, so a `stopped=states` answer reads
/// `states` equal to the cap; reach answers what the kernel returns
/// under the same budget, and cover what the Karp–Miller build returns.
#[test]
fn stopped_explorations_report_the_budget_counts() {
    let (ep, handle, join) = start();
    let mut client = Client::connect(&ep).expect("connect");
    let boom = explosive_doc(3);
    for (doc, name) in [(SMALL_NET, "small"), (boom.as_str(), "boom")] {
        let nets = cpn_format::parse(doc).expect("document parses").nets;
        let net = &nets.iter().find(|(n, _)| n == name).expect("net").1;
        let (compiled, m0) = (net.compile(), net.initial_marking());
        // (states, edges, stop) as the server must answer them.
        let expect = |is_cover: bool, budget: &Budget| {
            let built = if is_cover {
                CoverabilityTree::build_bounded(net, budget).map(|t| (t.markings().len(), 0))
            } else {
                reachability_bounded_compiled(&compiled, m0.as_slice(), budget)
                    .map(|rg| (rg.state_count(), rg.edge_count()))
            };
            match built {
                Bounded::Complete((states, edges)) => (states, edges, None),
                Bounded::Exhausted { info, .. } => (
                    info.states_explored,
                    info.transitions_explored,
                    Some(info.resource.to_string()),
                ),
            }
        };
        for (verb, is_cover) in [("reach", false), ("cover", true)] {
            let (total, _, stopped) = expect(is_cover, &Budget::default());
            assert!(stopped.is_none(), "{verb} {name} completes");
            for max_states in 0..=total + 1 {
                let (net, doc) = (name.to_owned(), doc.to_owned());
                let req = if is_cover {
                    Request::Cover {
                        net,
                        max_states,
                        deadline_ms: None,
                        threads: 1,
                        doc,
                    }
                } else {
                    Request::Reach {
                        net,
                        max_states,
                        deadline_ms: None,
                        threads: 1,
                        stream: false,
                        doc,
                    }
                };
                let at = format!("{verb} {name} max_states={max_states}");
                let Response::Result(s) = client.request(&req).expect("explore") else {
                    panic!("{at}: expected a Result");
                };
                assert_eq!(
                    (s.states, s.edges, s.stopped.clone()),
                    expect(is_cover, &Budget::states(max_states)),
                    "{at}"
                );
                if s.stopped.as_deref() == Some("states") {
                    assert_eq!(s.states, max_states, "{at}: states must equal the cap");
                }
            }
        }
    }
    drop(client);
    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!(stats.panics, 0);
}

/// A batch answers every item in submission order, including typed
/// per-item errors; siblings of a bad item are unaffected.
#[test]
fn batch_answers_every_item_in_order() {
    let (ep, handle, join) = start();
    let mut client = Client::connect(&ep).expect("connect");
    let items = vec![
        small_reach(None),
        Request::Cover {
            net: "small".into(),
            max_states: 1000,
            deadline_ms: None,
            threads: 1,
            doc: SMALL_NET.into(),
        },
        Request::Reach {
            net: "ghost".into(),
            max_states: 10,
            deadline_ms: None,
            threads: 1,
            stream: false,
            doc: SMALL_NET.into(),
        },
        small_reach(None),
    ];
    let replies = client.batch(items, Some(10_000)).expect("batch");
    assert_eq!(replies.len(), 4);
    assert!(matches!(&replies[0], Response::Result(s) if s.states == 2));
    assert!(matches!(&replies[1], Response::Result(_)));
    assert!(matches!(&replies[2], Response::BadRequest(_)));
    assert!(matches!(&replies[3], Response::Result(s) if s.states == 2));
    drop(client);
    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!(stats.bad_requests, 1);
    assert_eq!(stats.served, 3, "good items served, BatchDone uncounted");
}

/// A frame that arrives behind a complete one, in the same read, but
/// only in part: the server answers the complete frame from its read
/// buffer, then waits for the rest of the partial one for `io_timeout`
/// (not the 200 ms idle poll, nor the far longer `idle_timeout`) and
/// closes the connection.
#[test]
fn partly_buffered_frame_times_out_after_io_timeout() {
    let io_timeout = Duration::from_millis(1500);
    let (ep, handle, join) = start_with(ServerConfig {
        io_timeout,
        idle_timeout: Duration::from_secs(30),
        ..config()
    });
    let mut conn = cpn_serve::Conn::dial(&ep).expect("dial");
    let _ = conn.set_read_timeout(Some(Duration::from_secs(20)));
    write_handshake_version(&mut conn, PROTO_VERSION).expect("handshake out");
    assert_eq!(read_handshake(&mut conn).expect("handshake in"), 2);

    let mut bytes = encode_frame(with_corr(Some(1), &Request::Ping.encode()).as_bytes());
    let partial = encode_frame(with_corr(Some(2), &small_reach(None).encode()).as_bytes());
    bytes.extend_from_slice(&partial[..partial.len() / 2]);
    conn.write_all(&bytes).expect("frames");
    let started = std::time::Instant::now();

    let payload = read_frame(&mut conn, 1 << 20).expect("pong frame");
    let text = std::str::from_utf8(&payload).expect("UTF-8");
    let (corr, body) = split_corr(text).expect("corr");
    assert_eq!(corr, Some(1));
    assert_eq!(Response::decode(body).expect("typed"), Response::Pong);
    // The server gives up on the partial frame and closes.
    assert!(
        read_frame(&mut conn, 1 << 20).is_err(),
        "no reply to a partial frame"
    );
    let waited = started.elapsed();
    assert!(
        waited >= io_timeout - Duration::from_millis(300) && waited < Duration::from_secs(10),
        "closed after {waited:?}, io_timeout is {io_timeout:?}"
    );

    handle.begin_drain();
    join.join().expect("server");
}

/// An undecodable item inside a batch frame gets its own typed
/// `BadRequest` naming the index; well-formed siblings still run.
#[test]
fn malformed_batch_item_does_not_poison_siblings() {
    let (ep, handle, join) = start();
    let mut conn = cpn_serve::Conn::dial(&ep).expect("dial");
    let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
    write_handshake_version(&mut conn, PROTO_VERSION).expect("handshake out");
    assert_eq!(read_handshake(&mut conn).expect("handshake in"), 2);

    let batch = Request::Batch {
        deadline_ms: Some(5_000),
        items: vec![
            BatchItem::Request(small_reach(None)),
            BatchItem::Malformed("unparseable verb".into()),
            BatchItem::Request(small_reach(None)),
        ],
    };
    conn.write_all(&encode_frame(
        with_corr(Some(9), &batch.encode()).as_bytes(),
    ))
    .expect("batch frame");

    let mut by_index = std::collections::BTreeMap::new();
    loop {
        let payload = read_frame(&mut conn, 1 << 20).expect("frame");
        let text = std::str::from_utf8(&payload).expect("UTF-8");
        let (corr, body) = split_corr(text).expect("corr");
        assert_eq!(corr, Some(9), "batch replies echo the request id");
        match Response::decode(body).expect("typed") {
            Response::Item { index, inner } => {
                assert!(
                    by_index.insert(index, *inner).is_none(),
                    "index {index} twice"
                );
            }
            Response::BatchDone { n } => {
                assert_eq!(n, 3);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(by_index.len(), 3, "every item answered exactly once");
    assert!(matches!(&by_index[&0], Response::Result(s) if s.states == 2));
    match &by_index[&1] {
        Response::BadRequest(msg) => assert!(msg.contains("item 1"), "msg: {msg}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert!(matches!(&by_index[&2], Response::Result(s) if s.states == 2));

    conn.shutdown();
    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!(stats.bad_requests, 1);
}

/// An explosive item under a batch umbrella deadline degrades to a
/// typed partial; already-finished siblings keep their results, and
/// unstarted siblings get `DeadlineExceeded` rather than hanging.
#[test]
fn batch_umbrella_deadline_degrades_without_poisoning() {
    let (ep, handle, join) = start();
    let mut client = Client::connect(&ep).expect("connect");
    let items = vec![
        small_reach(None),
        Request::Reach {
            net: "boom".into(),
            max_states: 50_000_000,
            deadline_ms: None,
            threads: 1,
            stream: false,
            doc: explosive_doc(24),
        },
        small_reach(None),
    ];
    let replies = client.batch(items, Some(400)).expect("batch");
    assert_eq!(replies.len(), 3, "every item answered");
    assert!(
        matches!(&replies[0], Response::Result(s) if s.is_complete()),
        "first item ran before the umbrella expired: {:?}",
        replies[0]
    );
    match &replies[1] {
        Response::Result(s) => {
            assert!(!s.is_complete(), "2^24 states cannot finish in 400ms");
            assert_eq!(s.stopped.as_deref(), Some("deadline"));
        }
        Response::DeadlineExceeded => {}
        other => panic!("expected typed degradation, got {other:?}"),
    }
    assert!(
        matches!(
            &replies[2],
            Response::Result(_) | Response::DeadlineExceeded
        ),
        "trailing item typed, not hung: {:?}",
        replies[2]
    );
    drop(client);
    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!(stats.panics, 0);
}

/// `stats` reports live service counters and the compiled-net cache's
/// hit/miss/eviction numbers.
#[test]
fn stats_reports_cache_counters() {
    let (ep, handle, join) = start();
    let mut client = Client::connect(&ep).expect("connect");
    for _ in 0..2 {
        match client.request(&small_reach(None)).expect("reach") {
            Response::Result(_) => {}
            other => panic!("expected Result, got {other:?}"),
        }
    }
    match client.request(&Request::Stats).expect("stats") {
        Response::Stats(s) => {
            assert!(s.served >= 2, "{s:?}");
            assert_eq!(s.cache_misses, 1, "first reach compiled: {s:?}");
            assert!(s.cache_hits >= 1, "second reach hit: {s:?}");
            assert_eq!(s.cache_evictions, 0, "{s:?}");
            assert_eq!(s.cache_len, 1, "{s:?}");
            assert!(s.cache_capacity >= 1, "{s:?}");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    drop(client);
    handle.begin_drain();
    join.join().expect("server");
}

/// `stats` reports the verdict tier: a repeated `verify` is answered
/// from it and moves `verdict_hits` by one.
#[test]
fn stats_reports_verdict_hits() {
    let (ep, handle, join) = start();
    let mut client = Client::connect(&ep).expect("connect");
    let verify = Request::Verify {
        module: "producer".into(),
        env: "consumer".into(),
        louts: vec!["req".into()],
        routs: vec!["ack".into()],
        max_states: 100_000,
        deadline_ms: None,
        hide_budget: 10_000,
        stream: false,
        doc: HANDSHAKE_DOC.into(),
    };
    let verdict_hits = |client: &mut Client| match client.request(&Request::Stats) {
        Ok(Response::Stats(s)) => s.verdict_hits,
        other => panic!("expected Stats, got {other:?}"),
    };
    let before = verdict_hits(&mut client);
    let first = client.request(&verify).expect("verify");
    let computed = verdict_hits(&mut client);
    let repeat = client.request(&verify).expect("verify");
    let after = verdict_hits(&mut client);
    assert_eq!(
        (before, computed, after),
        (0, 0, 1),
        "only the repeat is a verdict hit"
    );
    assert!(matches!(&first, Response::VerifyResult(v) if v.receptive == Receptive::Yes));
    assert_eq!(first, repeat);
    drop(client);
    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!(stats.verdict_hits, 1);
}

/// A streaming reach emits monotone progress frames and a final answer
/// byte-identical to the unstreamed one.
#[test]
fn streaming_reach_emits_progress_and_identical_final() {
    let (ep, handle, join) = start();
    let doc = explosive_doc(16); // 65536 states: several stream slices
    let mut client = Client::connect(&ep).expect("connect");

    let unstreamed = client
        .request(&Request::Reach {
            net: "boom".into(),
            max_states: 1_000_000,
            deadline_ms: Some(30_000),
            threads: 1,
            stream: false,
            doc: doc.clone(),
        })
        .expect("plain reach");

    let mut progress = Vec::new();
    let streamed = client
        .request_streaming(
            &Request::Reach {
                net: "boom".into(),
                max_states: 1_000_000,
                deadline_ms: Some(30_000),
                threads: 1,
                stream: true,
                doc,
            },
            |p| progress.push(p.clone()),
        )
        .expect("streaming reach");

    assert!(
        !progress.is_empty(),
        "65536 states must cross the first stream slice"
    );
    assert!(progress.iter().all(|p| p.stage == "explore"));
    assert!(
        progress.windows(2).all(|w| w[0].states <= w[1].states),
        "progress is monotone: {progress:?}"
    );
    assert_eq!(
        streamed.encode(),
        unstreamed.encode(),
        "streamed final byte-identical to unstreamed"
    );
    match streamed {
        Response::Result(s) => assert_eq!(s.states, 65536),
        other => panic!("expected Result, got {other:?}"),
    }
    drop(client);
    handle.begin_drain();
    join.join().expect("server");
}

/// Pipelined requests settle against the right correlation ids even
/// when answers differ per request.
#[test]
fn pipelined_client_matches_answers_to_submissions() {
    let (ep, handle, join) = start();
    let mut client = PipelinedClient::connect(&ep, 4).expect("pipelined connect");
    let mut expected = std::collections::HashMap::new();
    for i in 0..12 {
        let (req, kind) = if i % 3 == 2 {
            (
                Request::Reach {
                    net: "ghost".into(),
                    max_states: 10,
                    deadline_ms: None,
                    threads: 1,
                    stream: false,
                    doc: SMALL_NET.into(),
                },
                "bad",
            )
        } else {
            (small_reach(None), "ok")
        };
        let corr = client.submit(&req).expect("submit");
        expected.insert(corr, kind);
    }
    let settled = client.drain().expect("drain");
    assert_eq!(settled.len(), 12);
    for (corr, resp) in settled {
        match (expected[&corr], resp) {
            ("ok", Response::Result(s)) => assert_eq!(s.states, 2),
            ("bad", Response::BadRequest(_)) => {}
            (kind, other) => panic!("corr {corr} expected {kind}, got {other:?}"),
        }
    }
    drop(client);
    handle.begin_drain();
    let stats = join.join().expect("server");
    assert_eq!(stats.panics, 0);
}
