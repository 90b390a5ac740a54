//! Loopback end-to-end: the hospital workload through real sockets.
//!
//! The headline claim: driving a 4-partition sharded cluster through the
//! TCP front end — frames, worker pool, engine thread — leaves *exactly*
//! the committed store an in-process `Engine` produces for the same
//! command sequence at the same seed. The socket layer adds transport,
//! not semantics.
//!
//! Around it, the failure-path cases the front end exists for: malformed
//! frames answered with typed errors (never a panic or a hang), half-open
//! connections reaped by the idle deadline, backpressure surfacing as
//! `Busy` when the engine queue is full, version negotiation, and
//! graceful shutdown that drains before exiting.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use threev_server::engine::Engine;
use threev_server::load::{schedule, LoadConfig};
use threev_server::proto::{codes, read_frame, Request, Response, PROTOCOL_VERSION};
use threev_server::{serve, Client, ClientError, ServerConfig};
use threev_shard::ShardedConfig;
use threev_sim::SimDuration;

const SEED: u64 = 0x3E0;
const PARTITIONS: u16 = 4;
const NODES: u16 = 2;
const ADVANCE_EVERY: u64 = 8;

fn load_config(rate_tps: f64, duration_ms: u64) -> LoadConfig {
    LoadConfig {
        partitions: PARTITIONS,
        nodes_per_partition: NODES,
        rate_tps,
        duration: SimDuration::from_millis(duration_ms),
        read_pct: 20,
        seed: SEED,
    }
}

fn fresh_engine() -> Engine {
    let hospital = load_config(1_000.0, 1).hospital();
    Engine::new(
        &hospital.schema(),
        ShardedConfig::new(PARTITIONS, NODES).seed(SEED),
        ADVANCE_EVERY,
    )
}

fn start_server(cfg: ServerConfig) -> (threev_server::ServerHandle, std::net::SocketAddr) {
    let handle = serve(fresh_engine(), cfg).expect("bind loopback");
    let addr = handle.addr();
    (handle, addr)
}

fn stop_server(handle: threev_server::ServerHandle, addr: std::net::SocketAddr) {
    if let Ok(mut c) = Client::connect(addr) {
        let _ = c.shutdown();
    } else {
        handle.request_shutdown();
    }
    handle.join().expect("server threads exit cleanly");
}

/// The tentpole: a hospital workload replayed over a real socket matches
/// the in-process driver fingerprint-for-fingerprint at the same seed.
#[test]
fn socket_run_matches_in_process_driver() {
    let jobs = schedule(&load_config(4_000.0, 60).hospital());
    assert!(jobs.len() > 50, "workload too small to be convincing");

    // In-process reference: same engine construction, same plan sequence.
    let mut reference = fresh_engine();
    let mut ref_committed = 0u64;
    for (_, plan) in &jobs {
        if reference.submit(plan).expect("in-process submit").committed {
            ref_committed += 1;
        }
    }
    let ref_fp = reference.fingerprint_hash();

    // Socket path: one connection, the same plans in the same order.
    let (handle, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.version(), PROTOCOL_VERSION);
    let mut committed = 0u64;
    for (_, plan) in &jobs {
        let out = client.submit(plan).expect("socket submit");
        if out.committed {
            committed += 1;
        }
    }
    let socket_fp = client.fingerprint().expect("fingerprint");
    let stats = client.stats().expect("stats");
    stop_server(handle, addr);

    assert_eq!(committed, ref_committed, "commit counts diverged");
    assert!(committed > 0, "nothing committed");
    assert_eq!(
        socket_fp, ref_fp,
        "socket-path store diverged from in-process driver"
    );
    assert_eq!(stats.submitted, jobs.len() as u64);
    assert_eq!(stats.committed + stats.aborted, jobs.len() as u64);
    assert!(
        stats.cross_messages > 0,
        "4-partition hospital must cross partitions"
    );
}

/// Reads through the socket see committed values once versions advance.
#[test]
fn socket_reads_observe_committed_state() {
    let (handle, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let hospital = load_config(1_000.0, 1).hospital();
    let schema = hospital.schema();
    let key = schema.decls()[0].key;
    let node = schema.decls()[0].node;
    let plan = threev_model::TxnPlan::commuting(
        threev_model::SubtxnPlan::new(node).update(key, threev_model::UpdateOp::Add(17)),
    );
    assert!(client.submit(&plan).expect("submit").committed);
    client.trigger_advancement().expect("advance");
    let reads = client.read(&[key]).expect("read");
    assert_eq!(reads.len(), 1);
    assert_eq!(reads[0].key, key);
    assert_eq!(reads[0].value.as_counter(), Some(17));

    // Unknown keys come back as typed errors, connection intact.
    match client.read(&[threev_model::Key(u64::MAX)]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::UNKNOWN_KEY),
        other => panic!("expected UNKNOWN_KEY, got {other:?}"),
    }
    // Structurally invalid plans too.
    let invalid = threev_model::TxnPlan::commuting(threev_model::SubtxnPlan::new(node));
    match client.submit(&invalid) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::INVALID_PLAN),
        other => panic!("expected INVALID_PLAN, got {other:?}"),
    }
    // The connection survived both errors.
    client.stats().expect("stats after errors");
    stop_server(handle, addr);
}

/// Malformed bytes get a typed MALFORMED error and a closed connection —
/// the server neither panics nor hangs, and keeps serving others.
#[test]
fn malformed_frames_are_rejected_with_typed_errors() {
    let (handle, addr) = start_server(ServerConfig::default());

    // Garbage before Hello.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    let (kind, payload) = read_frame(&mut raw).expect("typed reply").expect("not EOF");
    match Response::decode(kind, &payload).expect("decodes") {
        Response::Error { code, .. } => assert_eq!(code, codes::MALFORMED),
        other => panic!("expected MALFORMED error, got {other:?}"),
    }
    // ... then the server closes the connection.
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).expect("EOF");
    assert!(rest.is_empty());

    // A valid header announcing a payload whose checksum does not match.
    let mut raw = TcpStream::connect(addr).expect("connect");
    let hello = Request::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    }
    .encode()
    .expect("encode");
    raw.write_all(&hello).expect("write hello");
    let (kind, payload) = read_frame(&mut raw).expect("hello reply").expect("not EOF");
    assert!(matches!(
        Response::decode(kind, &payload),
        Ok(Response::HelloOk { .. })
    ));
    let mut corrupt = Request::Stats.encode().expect("encode");
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF; // flip inside the header checksum field
    raw.write_all(&corrupt).expect("write corrupt");
    let (kind, payload) = read_frame(&mut raw).expect("typed reply").expect("not EOF");
    match Response::decode(kind, &payload).expect("decodes") {
        Response::Error { code, .. } => assert_eq!(code, codes::MALFORMED),
        other => panic!("expected MALFORMED error, got {other:?}"),
    }

    // The server still serves healthy clients afterwards.
    let mut client = Client::connect(addr).expect("connect after abuse");
    client.stats().expect("stats");
    stop_server(handle, addr);
}

/// A request before Hello is a protocol violation; a Hello the server
/// cannot satisfy is an unsupported-version rejection.
#[test]
fn handshake_is_enforced() {
    let (handle, addr) = start_server(ServerConfig::default());

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(&Request::Stats.encode().expect("encode"))
        .expect("write");
    let (kind, payload) = read_frame(&mut raw).expect("reply").expect("not EOF");
    match Response::decode(kind, &payload).expect("decodes") {
        Response::Error { code, .. } => assert_eq!(code, codes::PROTOCOL_VIOLATION),
        other => panic!("expected PROTOCOL_VIOLATION, got {other:?}"),
    }

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(
        &Request::Hello {
            min_version: 900,
            max_version: 901,
        }
        .encode()
        .expect("encode"),
    )
    .expect("write");
    let (kind, payload) = read_frame(&mut raw).expect("reply").expect("not EOF");
    match Response::decode(kind, &payload).expect("decodes") {
        Response::Error { code, .. } => assert_eq!(code, codes::UNSUPPORTED_VERSION),
        other => panic!("expected UNSUPPORTED_VERSION, got {other:?}"),
    }
    stop_server(handle, addr);
}

/// A connection that goes quiet — before or mid-frame — is reaped after
/// the idle deadline instead of pinning a worker forever.
#[test]
fn half_open_connections_are_reaped() {
    let (handle, addr) = start_server(ServerConfig {
        idle_timeout: Duration::from_millis(300),
        workers: 1, // one worker: a leaked connection would wedge the server
        ..ServerConfig::default()
    });

    // Silent connection, then a mid-frame stall: send half a Hello frame.
    let mut quiet = TcpStream::connect(addr).expect("connect");
    let hello = Request::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    }
    .encode()
    .expect("encode");
    quiet.write_all(&hello[..7]).expect("half a frame");

    let start = Instant::now();
    let mut buf = Vec::new();
    quiet
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    quiet.read_to_end(&mut buf).expect("server closes");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "reap took too long: {:?}",
        start.elapsed()
    );

    // The lone worker is free again: a healthy client gets served.
    let mut client = Client::connect(addr).expect("connect after reap");
    client.stats().expect("stats");
    stop_server(handle, addr);
}

/// With a queue bound of 1 and the engine held busy, the second queued
/// request waits and the third is shed with `Busy` — the backpressure
/// contract, observed from the client side.
#[test]
fn backpressure_surfaces_as_busy() {
    let (handle, addr) = start_server(ServerConfig {
        queue_capacity: 1,
        allow_stall: true,
        ..ServerConfig::default()
    });

    // Hold the engine for long enough to stage the queue behind it.
    let mut staller = Client::connect(addr).expect("connect staller");
    let stall_thread = std::thread::spawn(move || staller.stall(900));
    // Let the engine dequeue the stall (frees the queue slot).
    std::thread::sleep(Duration::from_millis(250));

    // Occupies the single queue slot for the stall's remainder.
    let mut waiter = Client::connect(addr).expect("connect waiter");
    let waiter_thread = std::thread::spawn(move || waiter.stats());
    std::thread::sleep(Duration::from_millis(200));

    // Queue full: this one must bounce, quickly and typed.
    let mut shed = Client::connect(addr).expect("connect shed");
    let started = Instant::now();
    match shed.stats() {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "Busy must be immediate, took {:?}",
        started.elapsed()
    );

    stall_thread.join().expect("join").expect("stall ok");
    let stats = waiter_thread
        .join()
        .expect("join")
        .expect("queued request eventually served");
    assert!(stats.busy_rejections >= 1, "rejection must be counted");

    // Stall is a harness hook: servers without allow_stall refuse it.
    stop_server(handle, addr);
    let (handle, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    match client.stall(10) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::STALL_DISABLED),
        other => panic!("expected STALL_DISABLED, got {other:?}"),
    }
    stop_server(handle, addr);
}

/// Shutdown over the wire: Ok to the requester, SHUTTING_DOWN or a
/// closed socket to everyone after, and every thread exits.
#[test]
fn graceful_shutdown_drains_and_exits() {
    let (handle, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    assert!(client.submit(&simple_plan()).expect("submit").committed);
    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("all server threads exited");

    // The listener is gone (give the OS a beat to tear it down).
    std::thread::sleep(Duration::from_millis(100));
    if let Ok(mut c) = Client::connect(addr) {
        // Accepted by a dying listener backlog at worst — any request
        // must fail now.
        assert!(c.stats().is_err());
    }
}

fn simple_plan() -> threev_model::TxnPlan {
    let schema = load_config(1_000.0, 1).hospital().schema();
    let d = &schema.decls()[0];
    threev_model::TxnPlan::commuting(
        threev_model::SubtxnPlan::new(d.node).update(d.key, threev_model::UpdateOp::Add(1)),
    )
}
