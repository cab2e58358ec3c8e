//! Stress tests for the server's readiness reactor.
//!
//! The reactor exists for exactly one reason: connection *count* must cost
//! registrations, not threads. These tests hold that claim under the two
//! classic adversaries:
//!
//! 1. **A thousand mostly-idle connections** — the acceptor must keep
//!    accepting and an active pusher must ingest at full speed while a
//!    thousand negotiated connections sit idle on two event loops, and the
//!    estimates served from that melee must be bit-identical to a local
//!    batch fold of the same reports.
//! 2. **A slow-loris peer** — a connection dripping one byte per poll of a
//!    multi-megabyte claimed frame must not starve an active client, must
//!    not grow per-connection memory past the incremental-read bound, and
//!    must eventually be reaped by the per-frame idle deadline.

#![cfg(unix)]

use idldp_core::budget::Epsilon;
use idldp_core::grr::GeneralizedRandomizedResponse;
use idldp_core::mechanism::Mechanism;
use idldp_core::report::ReportData;
use idldp_server::{
    encode_reports_frame, Frame, ReportClient, ReportServer, ServerConfig, PROTOCOL_VERSION,
};
use idldp_stream::{ReportAccumulator, ShapedAccumulator};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn mechanism() -> Arc<dyn Mechanism> {
    Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 16).unwrap())
}

fn reactor_config(workers: usize, idle: Option<Duration>) -> ServerConfig {
    ServerConfig::builder()
        .connection_workers(workers)
        .idle_timeout(idle)
        .build()
        .unwrap()
}

/// Deterministic report population: folding is deterministic, so a server
/// fed this sequence must answer exactly what a local fold of it does.
fn population(n: usize) -> Vec<ReportData> {
    (0..n).map(|i| ReportData::Value((i * 7) % 16)).collect()
}

/// Pushes the population in 250-report frames and returns the settled
/// `(users, estimates)` answer.
fn push_and_query(
    server: &ReportServer,
    mech: &dyn Mechanism,
    all: &[ReportData],
) -> (u64, Vec<f64>) {
    let (mut client, resumed) = ReportClient::connect(server.local_addr(), mech).unwrap();
    assert_eq!(resumed, 0);
    for chunk in all.chunks(250) {
        client.push_all(chunk).unwrap();
    }
    client.query_estimates().unwrap()
}

/// A thousand negotiated-then-idle connections multiplexed onto two event
/// loops: accept must not stall at any point (every handshake is a full
/// round trip), an active pusher must ingest and query through the crowd,
/// and the answer must be bit-identical to the batch reference: the same
/// reports folded into a local accumulator and estimated by the oracle.
#[test]
fn thousand_idle_connections_do_not_stall_accept_or_ingest() {
    let mech = mechanism();
    let all = population(4000);

    // Reference answer: fold the population locally, estimate once.
    let mut reference = ShapedAccumulator::for_mechanism(mech.as_ref());
    let reports: Vec<_> = all.iter().map(|r| r.as_report()).collect();
    reference.accumulate_batch(&reports).unwrap();
    let want_users = reference.num_users();
    let want = mech
        .frequency_oracle(want_users)
        .estimate_from(&reference.snapshot())
        .unwrap();
    assert_eq!(want_users, all.len() as u64);

    // No idle timeout: a reap here would mean the reactor confused "idle"
    // with "dead" under load.
    let server = ReportServer::start(Arc::clone(&mech), reactor_config(2, None)).unwrap();

    // Half the crowd connects before any ingest...
    let mut crowd = Vec::with_capacity(1000);
    for _ in 0..500 {
        crowd.push(ReportClient::connect(server.local_addr(), mech.as_ref()).unwrap());
    }
    // ...the pusher streams half the population through the crowd...
    let (mut pusher, _) = ReportClient::connect(server.local_addr(), mech.as_ref()).unwrap();
    let half = all.len() / 2;
    for chunk in all[..half].chunks(250) {
        pusher.push_all(chunk).unwrap();
    }
    // ...and accept is still live mid-ingest: the other half of the crowd
    // handshakes (each a full round trip), then ingest finishes.
    for _ in 0..500 {
        crowd.push(ReportClient::connect(server.local_addr(), mech.as_ref()).unwrap());
    }
    assert_eq!(crowd.len(), 1000);
    for chunk in all[half..].chunks(250) {
        pusher.push_all(chunk).unwrap();
    }

    let (users, estimates) = pusher.query_estimates().unwrap();
    assert_eq!(
        users, want_users,
        "ingest completed through 1000 idle peers"
    );
    assert_eq!(estimates.len(), want.len());
    for (i, (g, w)) in estimates.iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "estimate {i} differs from the batch reference ({g} vs {w})"
        );
    }

    // A random crowd member still answers a query — the loops are not
    // wedged serving the pusher.
    let (users, _) = crowd[777].0.query_estimates().unwrap();
    assert_eq!(users, want_users);

    assert_eq!(server.fold_failures(), 0);
    assert_eq!(
        server.reaped_connections(),
        0,
        "no idle timeout configured, so nothing may be reaped"
    );
    drop(crowd);
    server.shutdown();
}

/// A slow-loris peer drips one byte per poll of a frame claiming a
/// multi-megabyte payload. The per-frame idle deadline must reap it (a
/// byte per poll never *completes* a frame), per-connection memory must
/// stay at the bytes actually received — not the claimed length — and an
/// active pusher sharing the loops must ingest at full speed throughout.
#[test]
fn slow_loris_is_reaped_and_does_not_starve_active_ingest() {
    let mech = mechanism();
    let idle = Duration::from_millis(300);
    let server = ReportServer::start(Arc::clone(&mech), reactor_config(2, Some(idle))).unwrap();

    // A backdrop of negotiated-then-silent connections (these too will hit
    // the idle deadline eventually — that is the deadline working).
    let mut crowd = Vec::with_capacity(100);
    for _ in 0..100 {
        crowd.push(ReportClient::connect(server.local_addr(), mech.as_ref()).unwrap());
    }

    // The loris: a real handshake, then a drip of a huge claimed frame.
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        kind: mech.kind().to_string(),
        shape: mech.report_shape(),
        report_len: mech.report_len() as u64,
        ldp_eps_bits: mech.ldp_epsilon().to_bits(),
        tenant: String::new(),
    };
    let mut loris = TcpStream::connect(server.local_addr()).unwrap();
    loris.write_all(&hello.encode()).unwrap();
    match Frame::read_from(&mut loris).unwrap() {
        Some(Frame::HelloAck { .. }) => {}
        other => panic!("loris handshake drew {other:?}"),
    }
    // ~500k reports encode to a multi-megabyte Reports frame; the loris
    // will deliver only a few hundred bytes of it, one per poll.
    let huge = encode_reports_frame(&population(500_000));
    let claimed = huge.len();
    assert!(claimed > 2 << 20, "claimed frame is only {claimed} bytes");
    loris.set_nodelay(true).unwrap();

    // Drip in a background thread until the server hangs up on us.
    let loris_thread = std::thread::spawn(move || {
        for byte in huge.iter().take(4096) {
            if loris.write_all(std::slice::from_ref(byte)).is_err() {
                return true; // reaped: the server reset the connection
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    });

    // Meanwhile the active pusher ingests the whole population, each frame
    // completing well inside the idle deadline.
    let all = population(3000);
    let (users, estimates) = push_and_query(&server, mech.as_ref(), &all);
    assert_eq!(users, all.len() as u64, "pusher was not starved");
    assert_eq!(estimates.len(), 16);

    // The loris must be reaped: its write eventually fails, and the
    // server's reap counter moves.
    assert!(
        loris_thread.join().unwrap(),
        "loris dripped its whole budget without being reaped"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.reaped_connections() == 0 {
        assert!(Instant::now() < deadline, "reap counter never moved");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Incremental-read bound: the server never buffered anything close to
    // the claimed frame — only bytes actually received are held. The bound
    // is generous (the pusher's own 250-report frames are a few KiB).
    let peak = server.peak_buffered_bytes();
    assert!(
        peak < claimed / 4,
        "peak buffered {peak} bytes approaches the {claimed}-byte claim"
    );

    assert_eq!(server.fold_failures(), 0);
    drop(crowd);
    server.shutdown();
}
