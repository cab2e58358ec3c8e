//! Stress tests for the coordinator frontend, which runs on the same
//! readiness event loops as a collector (`reactor_stress.rs` holds the
//! collector's cases, including the reaping and buffered-bytes bounds the
//! two frontends share).
//!
//! 1. **A thousand mostly-idle connections** — accept must stay live and
//!    an active pusher must ingest through the coordinator while a
//!    thousand negotiated connections sit idle, and the estimates read
//!    off the coordinator must be bit-identical to a local batch fold.
//! 2. **A slow-loris peer** — a connection dripping one byte per poll of
//!    a multi-megabyte claimed frame must not starve an active pusher.
//! 3. **Shutdown** — stopping the coordinator closes live connections, so
//!    a client's next push fails instead of being routed.

#![cfg(unix)]

use idldp_coord::{CoordServer, Coordinator};
use idldp_core::budget::Epsilon;
use idldp_core::grr::GeneralizedRandomizedResponse;
use idldp_core::mechanism::Mechanism;
use idldp_core::report::ReportData;
use idldp_server::{
    encode_reports_frame, Frame, ReportClient, ReportServer, ServerConfig, PROTOCOL_VERSION,
};
use idldp_sim::stream::{ReportAccumulator, ShapedAccumulator};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn mechanism() -> Arc<dyn Mechanism> {
    Arc::new(GeneralizedRandomizedResponse::new(Epsilon::new(1.2).unwrap(), 16).unwrap())
}

/// Deterministic report population: folding is deterministic, so the
/// fleet fed this sequence must answer exactly what a local fold does.
fn population(n: usize) -> Vec<ReportData> {
    (0..n).map(|i| ReportData::Value((i * 7) % 16)).collect()
}

/// Two fresh collectors and a coordinator frontend over them.
fn start_fleet(mech: &Arc<dyn Mechanism>) -> (Vec<ReportServer>, CoordServer) {
    let collectors: Vec<ReportServer> = (0..2)
        .map(|_| ReportServer::start(Arc::clone(mech), ServerConfig::default()).unwrap())
        .collect();
    let addrs: Vec<(String, usize)> = collectors
        .iter()
        .map(|c| (c.local_addr().to_string(), 1))
        .collect();
    let (coordinator, _) = Coordinator::connect(Arc::clone(mech), None, &addrs).unwrap();
    let front = CoordServer::start(coordinator, "127.0.0.1:0").unwrap();
    (collectors, front)
}

fn stop_fleet(collectors: Vec<ReportServer>, front: CoordServer) {
    front.shutdown();
    for c in collectors {
        assert_eq!(c.fold_failures(), 0);
        c.shutdown();
    }
}

/// A thousand negotiated-then-idle connections to the coordinator: accept
/// must not stall (every handshake is a full round trip, taken while the
/// pusher is mid-ingest), and the pusher's answer must be bit-identical
/// to the same reports folded into a local accumulator and estimated once.
#[test]
fn thousand_idle_connections_do_not_stall_coordinator_accept_or_ingest() {
    let mech = mechanism();
    let all = population(4000);

    let mut reference = ShapedAccumulator::for_mechanism(mech.as_ref());
    let reports: Vec<_> = all.iter().map(|r| r.as_report()).collect();
    reference.accumulate_batch(&reports).unwrap();
    let want = mech
        .frequency_oracle(reference.num_users())
        .estimate_from(&reference.snapshot())
        .unwrap();

    let (collectors, front) = start_fleet(&mech);
    let addr = front.local_addr();
    let mut crowd = Vec::with_capacity(1000);
    for _ in 0..500 {
        crowd.push(ReportClient::connect(addr, mech.as_ref()).unwrap());
    }
    let (mut pusher, _) = ReportClient::connect(addr, mech.as_ref()).unwrap();
    let half = all.len() / 2;
    for chunk in all[..half].chunks(250) {
        pusher.push_all(chunk).unwrap();
    }
    for _ in 0..500 {
        crowd.push(ReportClient::connect(addr, mech.as_ref()).unwrap());
    }
    assert_eq!(crowd.len(), 1000);
    for chunk in all[half..].chunks(250) {
        pusher.push_all(chunk).unwrap();
    }

    let (users, estimates) = pusher.query_estimates().unwrap();
    assert_eq!(
        users,
        all.len() as u64,
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
    // A crowd member still answers — no loop is wedged on the pusher.
    let (users, _) = crowd[777].0.query_estimates().unwrap();
    assert_eq!(users, all.len() as u64);

    drop(crowd);
    stop_fleet(collectors, front);
}

/// A slow-loris peer drips one byte per poll of a frame claiming a
/// multi-megabyte payload while an active pusher ingests through the
/// coordinator. The pusher must finish while the loris is still
/// dripping: a frame that never completes must not hold up its loop.
#[test]
fn slow_loris_does_not_starve_coordinator_ingest() {
    let mech = mechanism();
    let (collectors, front) = start_fleet(&mech);
    let addr = front.local_addr();

    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        kind: mech.kind().to_string(),
        shape: mech.report_shape(),
        report_len: mech.report_len() as u64,
        ldp_eps_bits: mech.ldp_epsilon().to_bits(),
        tenant: String::new(),
    };
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(&hello.encode()).unwrap();
    match Frame::read_from(&mut loris).unwrap() {
        Some(Frame::HelloAck { .. }) => {}
        other => panic!("loris handshake drew {other:?}"),
    }
    loris.set_nodelay(true).unwrap();
    let huge = encode_reports_frame(&population(500_000));
    assert!(
        huge.len() > 2 << 20,
        "claimed frame is only {} bytes",
        huge.len()
    );

    // A backdrop of idle peers. Connections are dealt round-robin over the
    // default four loops, so the pusher (the 101st) shares the loris's.
    let mut crowd = Vec::with_capacity(99);
    for _ in 0..99 {
        crowd.push(ReportClient::connect(addr, mech.as_ref()).unwrap());
    }

    let dripped = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let loris_thread = {
        let (dripped, done) = (Arc::clone(&dripped), Arc::clone(&done));
        std::thread::spawn(move || {
            for byte in huge.iter().take(4096) {
                if done.load(Ordering::SeqCst)
                    || loris.write_all(std::slice::from_ref(byte)).is_err()
                {
                    return;
                }
                dripped.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while dripped.load(Ordering::SeqCst) < 10 {
        assert!(
            Instant::now() < deadline,
            "the loris never started dripping"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let all = population(3000);
    let (mut pusher, _) = ReportClient::connect(addr, mech.as_ref()).unwrap();
    for chunk in all.chunks(250) {
        pusher.push_all(chunk).unwrap();
    }
    let (users, estimates) = pusher.query_estimates().unwrap();
    assert_eq!(users, all.len() as u64, "pusher was not starved");
    assert_eq!(estimates.len(), 16);
    let at_finish = dripped.load(Ordering::SeqCst);
    assert!(
        at_finish < 4096,
        "the loris finished its drip before the pusher did"
    );

    done.store(true, Ordering::SeqCst);
    loris_thread.join().unwrap();
    drop(crowd);
    stop_fleet(collectors, front);
}

/// `CoordServer::shutdown` returns promptly and closes live connections:
/// a connected client's next push fails, and nothing of it reaches the
/// collectors.
#[test]
fn shutdown_closes_live_coordinator_connections() {
    let mech = mechanism();
    let (collectors, front) = start_fleet(&mech);
    let (mut client, _) = ReportClient::connect(front.local_addr(), mech.as_ref()).unwrap();
    let batch = population(64);
    client.push_all(&batch).unwrap();
    let (users, _) = client.query_estimates().unwrap();
    assert_eq!(users, 64);

    let started = Instant::now();
    front.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        started.elapsed()
    );
    assert!(
        client.push_all(&batch).is_err(),
        "a push after shutdown must fail, not be routed"
    );
    let routed: u64 = collectors.iter().map(|c| c.snapshot().num_users()).sum();
    assert_eq!(routed, 64, "nothing after shutdown reached the fleet");
    for c in collectors {
        c.shutdown();
    }
}
