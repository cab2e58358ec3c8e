//! TCP loopback ≡ batch conformance (the acceptance bar of the ingestion
//! service).
//!
//! Drives the full networked path — mechanism → [`ReportClient`] → frame
//! codec → TCP → [`ReportServer`] → bounded ingest queue →
//! `ShardedAccumulator` → snapshot → oracle — and asserts that the
//! estimates received *over the socket* are **bit-identical** to a batch
//! [`SimulationPipeline`] run of the same `(mechanism, inputs, seed)`, for
//! all eight mechanisms in their native wire shapes. On top of the
//! streaming ≡ batch contract (`streaming_conformance.rs`) this adds the
//! transport: framing, the event loops, the queue, and the
//! query-after-ingest linearization must all preserve every report
//! exactly.
//!
//! Also covered: the backpressure contract (a full ingest queue answers
//! `Busy`, and a retrying client still converges to the exact batch
//! estimates — accepted reports are never dropped), handshake rejection of
//! mismatched mechanism configs and malformed frames, typed rejection of
//! invalid reports, the top-k query against batch `identify_top_k`, and
//! checkpoint → restart → resume bit-identity over the socket.

use idldp_core::budget::Epsilon;
use idldp_core::grr::GeneralizedRandomizedResponse;
use idldp_core::idue::Idue;
use idldp_core::idue_ps::IduePs;
use idldp_core::levels::LevelPartition;
use idldp_core::matrix_mech::PerturbationMatrix;
use idldp_core::mechanism::{BatchMechanism, InputBatch, Mechanism};
use idldp_core::olh::OptimalLocalHashing;
use idldp_core::params::LevelParams;
use idldp_core::ps::PsMechanism;
use idldp_core::report::ReportData;
use idldp_core::snapshot::StoreKind;
use idldp_core::subset::SubsetSelection;
use idldp_core::ue::UnaryEncoding;
use idldp_server::{
    ClientError, Frame, PushOutcome, ReportClient, ReportServer, ServerConfig, PROTOCOL_VERSION,
};
use idldp_sim::heavy_hitters::identify_top_k;
use idldp_sim::stream::SeededReportStream;
use idldp_sim::SimulationPipeline;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const SEED: u64 = 20200707;
const CHUNK: usize = 256;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn items(n: usize, m: usize) -> Vec<u32> {
    (0..n).map(|i| ((i * i) % m) as u32).collect()
}

fn sets(n: usize, m: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| {
            let a = (i % m) as u32;
            let b = ((i / 2 + 1) % m) as u32;
            if a == b {
                vec![a]
            } else {
                vec![a, b]
            }
        })
        .collect()
}

/// Owned inputs, borrowable as an [`InputBatch`].
enum OwnedInputs {
    Items(Vec<u32>),
    Sets(Vec<Vec<u32>>),
}

impl OwnedInputs {
    fn as_batch(&self) -> InputBatch<'_> {
        match self {
            OwnedInputs::Items(items) => InputBatch::Items(items),
            OwnedInputs::Sets(sets) => InputBatch::Sets(sets),
        }
    }
}

/// All eight mechanisms with loopback-sized populations, covering every
/// wire shape (bits, value, hashed pair, item set).
fn lineup() -> Vec<(&'static str, Arc<dyn BatchMechanism>, OwnedInputs)> {
    let idue = {
        let levels =
            LevelPartition::new(vec![0, 0, 1, 1, 1, 1, 1, 1, 1, 1], vec![eps(1.0), eps(3.0)])
                .unwrap();
        let params = LevelParams::new(vec![0.59, 0.67], vec![0.33, 0.28]).unwrap();
        Idue::new(levels, &params).unwrap()
    };
    vec![
        (
            "grr",
            Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 24).unwrap())
                as Arc<dyn BatchMechanism>,
            OwnedInputs::Items(items(3000, 24)),
        ),
        (
            "rappor",
            Arc::new(UnaryEncoding::symmetric(eps(1.0), 20).unwrap()),
            OwnedInputs::Items(items(2500, 20)),
        ),
        (
            "oue",
            Arc::new(UnaryEncoding::optimized(eps(1.0), 20).unwrap()),
            OwnedInputs::Items(items(2500, 20)),
        ),
        ("idue", Arc::new(idue), OwnedInputs::Items(items(2500, 10))),
        (
            "ps",
            Arc::new(PsMechanism::new(12, 3).unwrap()),
            OwnedInputs::Sets(sets(2000, 12)),
        ),
        (
            "idue-ps",
            Arc::new(IduePs::oue_ps(12, eps(2.0), 3).unwrap()),
            OwnedInputs::Sets(sets(2000, 12)),
        ),
        (
            "matrix",
            Arc::new(PerturbationMatrix::grr(eps(1.5), 10).unwrap()),
            OwnedInputs::Items(items(2000, 10)),
        ),
        (
            "olh",
            Arc::new(OptimalLocalHashing::new(eps(1.2), 24).unwrap()),
            OwnedInputs::Items(items(3000, 24)),
        ),
        (
            "ss",
            Arc::new(SubsetSelection::new(eps(1.0), 20).unwrap()),
            OwnedInputs::Items(items(2500, 20)),
        ),
    ]
}

/// The reference answer: batch pipeline counts + oracle estimates.
fn batch_estimates(mechanism: &dyn BatchMechanism, inputs: InputBatch<'_>) -> (u64, Vec<f64>) {
    let snapshot = SimulationPipeline::new()
        .with_chunk_size(CHUNK)
        .run_snapshot(mechanism, inputs, SEED)
        .unwrap();
    let users = snapshot.num_users();
    let estimates = mechanism
        .frequency_oracle(users)
        .estimate_from(&snapshot)
        .unwrap();
    (users, estimates)
}

/// Streams the seeded population into owned wire reports, chunk by chunk.
fn wire_chunks(mechanism: &dyn Mechanism, inputs: InputBatch<'_>) -> Vec<Vec<ReportData>> {
    let mut stream = SeededReportStream::new(mechanism, inputs, SEED).with_chunk_size(CHUNK);
    let mut chunks = Vec::new();
    loop {
        let mut chunk = Vec::new();
        let got = stream
            .next_chunk_with(|report| {
                chunk.push(report.to_data());
                Ok(())
            })
            .unwrap();
        if got == 0 {
            return chunks;
        }
        chunks.push(chunk);
    }
}

/// The `Hello` a well-behaved client sends for `mechanism`.
fn hello(mechanism: &dyn Mechanism) -> Frame {
    Frame::Hello {
        version: PROTOCOL_VERSION,
        kind: mechanism.kind().to_string(),
        shape: mechanism.report_shape(),
        report_len: mechanism.report_len() as u64,
        ldp_eps_bits: mechanism.ldp_epsilon().to_bits(),
        tenant: String::new(),
    }
}

/// Sends raw `bytes` on a fresh connection — after a completed handshake
/// when `negotiated` is given — and returns the `Reject` message they
/// draw, checking that the connection is closed right after it.
fn raw_reject(addr: SocketAddr, negotiated: Option<&dyn Mechanism>, bytes: &[u8]) -> String {
    let mut raw = TcpStream::connect(addr).unwrap();
    if let Some(mechanism) = negotiated {
        raw.write_all(&hello(mechanism).encode()).unwrap();
        match Frame::read_from(&mut raw).unwrap() {
            Some(Frame::HelloAck { .. }) => {}
            other => panic!("handshake drew {other:?}"),
        }
    }
    raw.write_all(bytes).unwrap();
    let message = match Frame::read_from(&mut raw).unwrap() {
        Some(Frame::Reject { message, .. }) => message,
        other => panic!("a malformed frame must draw a Reject, got {other:?}"),
    };
    assert!(
        matches!(Frame::read_from(&mut raw), Ok(None)),
        "the connection closes after `{message}`"
    );
    message
}

/// A frame header with a tag no protocol version defines.
const UNKNOWN_TAG: [u8; 5] = [0xEE, 0, 0, 0, 0];
/// A `Reports` header claiming a payload over the 16 MiB frame cap.
const OVERSIZED: [u8; 5] = [0x03, 0xFF, 0xFF, 0xFF, 0xFF];

fn assert_bit_identical(name: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{name}: estimate vector length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{name}: estimate {i} differs over TCP ({g} vs {w})"
        );
    }
}

#[test]
fn loopback_estimates_are_bit_identical_to_batch_for_all_eight_mechanisms() {
    for (mech_name, mechanism, inputs) in lineup() {
        let (want_users, want) = batch_estimates(mechanism.as_ref(), inputs.as_batch());

        let name = mech_name;
        let server = ReportServer::start(
            mechanism.clone() as Arc<dyn Mechanism>,
            ServerConfig::default(),
        )
        .unwrap();
        let (mut client, resumed) =
            ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();
        assert_eq!(resumed, 0, "{name}: fresh server starts empty");

        for chunk in wire_chunks(mechanism.as_ref(), inputs.as_batch()) {
            client.push_all(&chunk).unwrap();
        }

        let (users, estimates) = client.query_estimates().unwrap();
        assert_eq!(users, want_users, "{name}: user count over TCP");
        assert_bit_identical(name, &estimates, &want);

        // The top-k query ranks exactly like batch identification.
        let k = 5;
        let (_, candidates) = client.query_top_k(k).unwrap();
        let want_top: Vec<u64> = identify_top_k(&want, k).iter().map(|&i| i as u64).collect();
        let got_top: Vec<u64> = candidates.iter().map(|&(item, _)| item).collect();
        assert_eq!(got_top, want_top, "{name}: top-{k} over TCP");
        for &(item, estimate) in &candidates {
            assert_eq!(
                estimate.to_bits(),
                want[item as usize].to_bits(),
                "{name}: candidate estimate bits"
            );
        }

        assert_eq!(server.fold_failures(), 0, "{name}: no post-accept failures");
        server.shutdown();
    }
}

#[test]
fn full_ingest_queue_yields_busy_and_a_retrying_client_still_converges() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 16).unwrap());
    let inputs = OwnedInputs::Items(items(2000, 16));
    let (want_users, want) = batch_estimates(mechanism.as_ref(), inputs.as_batch());

    let capacity = 64;
    let server = ReportServer::start(
        mechanism.clone() as Arc<dyn Mechanism>,
        ServerConfig::builder()
            .queue_capacity(capacity)
            .build()
            .unwrap(),
    )
    .unwrap();
    let (mut client, _) = ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();
    client = client.with_retry_backoff(std::time::Duration::from_millis(1));

    // Freeze the fold side: accepted reports pile up in the bounded queue.
    server.pause_ingest();
    let chunks = wire_chunks(mechanism.as_ref(), inputs.as_batch());
    let oversized: Vec<ReportData> = chunks
        .iter()
        .flatten()
        .take(capacity + 40)
        .cloned()
        .collect();
    match client.push(&oversized).unwrap() {
        PushOutcome::Busy { accepted } => {
            assert_eq!(
                accepted, capacity as u64,
                "exactly the queue capacity is accepted before Busy"
            );
        }
        PushOutcome::Ingested => panic!("a full queue must answer Busy"),
    }
    // Still paused: nothing further fits, but nothing breaks either.
    match client.push(&oversized[capacity..]).unwrap() {
        PushOutcome::Busy { accepted } => assert_eq!(accepted, 0),
        PushOutcome::Ingested => panic!("queue is still full"),
    }

    // Resume folding and push the whole population through the retry loop,
    // skipping the `capacity` reports the server already accepted.
    server.resume_ingest();
    let all: Vec<ReportData> = chunks.into_iter().flatten().collect();
    client.push_all(&all[capacity..]).unwrap();

    let (users, estimates) = client.query_estimates().unwrap();
    assert_eq!(users, want_users, "no accepted report was dropped");
    assert_bit_identical("busy-retry", &estimates, &want);
    assert_eq!(server.fold_failures(), 0);
    server.shutdown();
}

#[test]
fn handshake_rejects_mismatched_mechanism_config() {
    let server_mech: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 16).unwrap());
    let server = ReportServer::start(
        server_mech.clone() as Arc<dyn Mechanism>,
        ServerConfig::default(),
    )
    .unwrap();

    // Wrong kind + shape (OLH sends hashed pairs, server runs GRR).
    let olh = OptimalLocalHashing::new(eps(1.2), 16).unwrap();
    let err = ReportClient::connect(server.local_addr(), &olh)
        .map(|_| ())
        .expect_err("mismatched hello must be rejected");
    match err {
        ClientError::Rejected { message, .. } => {
            assert!(message.contains("mismatch"), "unexpected reason: {message}")
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }

    // Same kind, wrong width.
    let narrow = GeneralizedRandomizedResponse::new(eps(1.2), 8).unwrap();
    assert!(matches!(
        ReportClient::connect(server.local_addr(), &narrow),
        Err(ClientError::Rejected { .. })
    ));

    // Same kind, same shape, same width — different privacy budget. The
    // reports would fold cleanly but calibrate wrongly, so the handshake
    // must refuse (the Hello carries the exact ε bits).
    let other_eps = GeneralizedRandomizedResponse::new(eps(2.0), 16).unwrap();
    assert!(matches!(
        ReportClient::connect(server.local_addr(), &other_eps),
        Err(ClientError::Rejected { .. })
    ));

    // A malformed first frame: the typed handshake refusal, then EOF.
    let message = raw_reject(server.local_addr(), None, &UNKNOWN_TAG);
    assert!(message.starts_with("handshake: "), "{message}");

    // A matching client still gets through afterwards.
    let (mut client, _) = ReportClient::connect(server.local_addr(), server_mech.as_ref()).unwrap();
    client.push_all(&[ReportData::Value(3)]).unwrap();
    let (users, _) = client.query_estimates().unwrap();
    assert_eq!(users, 1);
    server.shutdown();
}

#[test]
fn invalid_reports_are_rejected_without_corrupting_counts() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 8).unwrap());
    let server = ReportServer::start(
        mechanism.clone() as Arc<dyn Mechanism>,
        ServerConfig::default(),
    )
    .unwrap();
    let (mut client, _) = ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();

    // A hostile frame mixing valid and invalid reports is rejected
    // *atomically*: the whole frame validates before anything is queued,
    // so nothing folds — not even the valid prefix — and the reply names
    // the offending report.
    let batch = vec![
        ReportData::Value(1),
        ReportData::Value(2),
        ReportData::Value(8), // out of 0..8
        ReportData::Value(3),
    ];
    match client.push_all(&batch) {
        Err(ClientError::Rejected { accepted, message }) => {
            assert_eq!(accepted, 0, "mixed frames reject atomically");
            assert!(message.contains("report 2"), "{message}");
            assert!(message.contains("out of range"), "{message}");
        }
        other => panic!("invalid report must be rejected, got {other:?}"),
    }
    // A wrong-shape report is refused too (connection negotiated values).
    assert!(matches!(
        client.push_all(&[ReportData::Hashed { seed: 1, value: 0 }]),
        Err(ClientError::Rejected { .. })
    ));

    // The connection survives rejection, and only valid frames count.
    client.push_all(&[ReportData::Value(3)]).unwrap();

    // A malformed frame after the handshake cannot be resynchronised: it
    // draws the typed `bad frame:` refusal, then the server hangs up.
    let message = raw_reject(server.local_addr(), Some(mechanism.as_ref()), &OVERSIZED);
    assert!(message.starts_with("bad frame: "), "{message}");

    let (users, estimates) = client.query_estimates().unwrap();
    assert_eq!(users, 1, "only the clean frame after the rejections folds");
    assert_eq!(estimates.len(), 8);
    assert_eq!(server.fold_failures(), 0);
    server.shutdown();
}

/// One multi-report `Reports` frame draws exactly one `Ingested` reply
/// covering the whole batch (the frame is the unit of ingestion — one
/// queue slot run, one lock, one batched fold), and the handshake's pinned
/// item-set cardinality is enforced per report: a wrong-sized
/// subset-selection set rejects the frame atomically.
#[test]
fn one_frame_one_ack_and_pinned_item_set_cardinality() {
    // A 100-report frame is one push, one Ingested.
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 8).unwrap());
    let server = ReportServer::start(
        mechanism.clone() as Arc<dyn Mechanism>,
        ServerConfig::default(),
    )
    .unwrap();
    let (mut client, _) = ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();
    let batch: Vec<ReportData> = (0..100).map(|i| ReportData::Value(i % 8)).collect();
    assert_eq!(client.push(&batch).unwrap(), PushOutcome::Ingested);
    let (users, _) = client.query_estimates().unwrap();
    assert_eq!(users, 100, "the whole frame folded behind the single ack");
    assert_eq!(server.fold_failures(), 0);
    server.shutdown();

    // Subset selection pins k in the handshake shape; a set of any other
    // size is refused and poisons its whole frame.
    let ss = SubsetSelection::new(eps(1.0), 20).unwrap();
    let k = ss.subset_size();
    assert!((1..20).contains(&k));
    let mechanism: Arc<dyn BatchMechanism> = Arc::new(ss);
    let server = ReportServer::start(
        mechanism.clone() as Arc<dyn Mechanism>,
        ServerConfig::default(),
    )
    .unwrap();
    let (mut client, _) = ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();
    let valid = ReportData::ItemSet((0..k).collect());
    client.push_all(std::slice::from_ref(&valid)).unwrap();
    let wrong_size = ReportData::ItemSet((0..k + 1).collect());
    match client.push_all(&[valid, wrong_size]) {
        Err(ClientError::Rejected { accepted, message }) => {
            assert_eq!(accepted, 0, "the valid lead report must not fold");
            assert!(message.contains("cardinality"), "{message}");
        }
        other => panic!("wrong-sized set must be rejected, got {other:?}"),
    }
    let (users, _) = client.query_estimates().unwrap();
    assert_eq!(users, 1, "only the clean frame counts");
    assert_eq!(server.fold_failures(), 0);
    server.shutdown();
}

#[test]
fn checkpoint_restart_resumes_bit_identically_over_tcp() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(UnaryEncoding::optimized(eps(1.0), 16).unwrap());
    let inputs = OwnedInputs::Items(items(2048, 16));
    let (want_users, want) = batch_estimates(mechanism.as_ref(), inputs.as_batch());

    // Every checkpoint backend: write → kill →
    // restore → resume must be bit-identical regardless of whether the
    // checkpoint was one flat file or an appended delta log.
    for store in StoreKind::ALL {
        let label = store.to_string();
        let dir = std::env::temp_dir().join(format!(
            "idldp-server-loopback-{}-{store}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("serve.ckpt");
        let config = ServerConfig::builder()
            .checkpoint_path(ckpt.clone())
            .checkpoint_store(store)
            .build()
            .unwrap();

        let chunks = wire_chunks(mechanism.as_ref(), inputs.as_batch());
        let half = chunks.len() / 2;

        // First server: ingest half the stream, checkpoint over the
        // socket — twice, so the delta backend's second record is a
        // true delta appended after a base, not just one base record.
        let server =
            ReportServer::start(mechanism.clone() as Arc<dyn Mechanism>, config.clone()).unwrap();
        let (mut client, resumed) =
            ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();
        assert_eq!(resumed, 0);
        let quarter = half / 2;
        for chunk in &chunks[..quarter] {
            client.push_all(chunk).unwrap();
        }
        assert_eq!(client.checkpoint().unwrap(), (quarter * CHUNK) as u64);
        for chunk in &chunks[quarter..half] {
            client.push_all(chunk).unwrap();
        }
        let covered = client.checkpoint().unwrap();
        assert_eq!(covered, (half * CHUNK) as u64, "{label}");
        drop(client);
        server.shutdown();

        // "Restart": a new server restores the checkpoint; the client
        // learns the resume point from the HelloAck and pushes only the
        // tail.
        let server = ReportServer::start(mechanism.clone() as Arc<dyn Mechanism>, config).unwrap();
        let (mut client, resumed) =
            ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();
        assert_eq!(
            resumed, covered,
            "{label}: HelloAck reports the restored users"
        );
        for chunk in &chunks[half..] {
            client.push_all(chunk).unwrap();
        }
        let (users, estimates) = client.query_estimates().unwrap();
        assert_eq!(users, want_users, "{label}");
        assert_bit_identical(&format!("checkpoint-restart/{label}"), &estimates, &want);
        server.shutdown();

        // A differently configured server refuses the checkpoint
        // outright — whether the mechanism kind differs...
        let other: Arc<dyn BatchMechanism> =
            Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 16).unwrap());
        let again = ServerConfig::builder()
            .checkpoint_path(ckpt.clone())
            .checkpoint_store(store)
            .build()
            .unwrap();
        assert!(
            ReportServer::start(other as Arc<dyn Mechanism>, again).is_err(),
            "{label}: other kind must refuse"
        );
        // ...or only the privacy budget does (same kind, same shape,
        // same width: counts perturbed under a different ε must not be
        // restored, because the oracle would calibrate them wrongly).
        let other_eps: Arc<dyn BatchMechanism> =
            Arc::new(UnaryEncoding::optimized(eps(2.5), 16).unwrap());
        let again = ServerConfig::builder()
            .checkpoint_path(ckpt)
            .checkpoint_store(store)
            .build()
            .unwrap();
        assert!(
            ReportServer::start(other_eps as Arc<dyn Mechanism>, again).is_err(),
            "{label}: other ε must refuse"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A v1 flat checkpoint written by the pre-store single-file format is
/// restored transparently by every backend, and checkpointing again
/// migrates it to the backend's native format without losing a count.
#[test]
fn v1_flat_checkpoints_migrate_through_every_store_over_tcp() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(UnaryEncoding::optimized(eps(1.0), 16).unwrap());
    let inputs = OwnedInputs::Items(items(1024, 16));
    let (want_users, want) = batch_estimates(mechanism.as_ref(), inputs.as_batch());
    let chunks = wire_chunks(mechanism.as_ref(), inputs.as_batch());
    let half = chunks.len() / 2;

    for store in StoreKind::ALL {
        let label = format!("v1-migrate/{store}");
        let dir =
            std::env::temp_dir().join(format!("idldp-v1-migrate-{}-{store}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("serve.ckpt");

        // Write a v1 flat checkpoint the way the pre-store server did:
        // merged snapshot text + run line, one atomic file.
        let config = ServerConfig::builder()
            .checkpoint_path(ckpt.clone())
            .checkpoint_store(StoreKind::File)
            .build()
            .unwrap();
        let server = ReportServer::start(mechanism.clone() as Arc<dyn Mechanism>, config).unwrap();
        let (mut client, _) =
            ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();
        for chunk in &chunks[..half] {
            client.push_all(chunk).unwrap();
        }
        let covered = client.checkpoint().unwrap();
        drop(client);
        server.shutdown();

        // Restart under the backend being tested: the v1 file restores,
        // a new checkpoint migrates it, and a second restart restores
        // from the migrated form.
        let config = ServerConfig::builder()
            .checkpoint_path(ckpt.clone())
            .checkpoint_store(store)
            .build()
            .unwrap();
        let server =
            ReportServer::start(mechanism.clone() as Arc<dyn Mechanism>, config.clone()).unwrap();
        let (mut client, resumed) =
            ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();
        assert_eq!(resumed, covered, "{label}: v1 flat file restores");
        for chunk in &chunks[half..] {
            client.push_all(chunk).unwrap();
        }
        assert_eq!(client.checkpoint().unwrap(), want_users, "{label}");
        drop(client);
        server.shutdown();

        let server = ReportServer::start(mechanism.clone() as Arc<dyn Mechanism>, config).unwrap();
        let (mut client, resumed) =
            ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();
        assert_eq!(resumed, want_users, "{label}: migrated form restores");
        let (users, estimates) = client.query_estimates().unwrap();
        assert_eq!(users, want_users, "{label}");
        assert_bit_identical(&label, &estimates, &want);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A server bound to the unspecified address must still shut down cleanly:
/// shutdown wakes the event loops through their pollers, so it never needs
/// to connect *to* 0.0.0.0 (which is not connectable on every platform).
#[test]
fn shutdown_completes_when_bound_to_the_unspecified_address() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.0), 8).unwrap());
    let config = ServerConfig::builder().addr("0.0.0.0:0").build().unwrap();
    let server = ReportServer::start(mechanism as Arc<dyn Mechanism>, config).unwrap();
    assert!(server.local_addr().ip().is_unspecified());
    let done = std::thread::spawn(move || server.shutdown());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !done.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "shutdown hung on an unspecified-address bind"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    done.join().unwrap();
}

/// A bit-vector mechanism wider than the wire protocol's
/// `MAX_BIT_REPORT_SLOTS` is refused at startup with a typed config error
/// (every report it emits would be undecodable), not a panic and not a
/// per-frame rejection marathon.
#[test]
fn too_wide_bit_mechanism_is_a_typed_startup_error() {
    let too_wide = idldp_server::MAX_BIT_REPORT_SLOTS + 1;
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(UnaryEncoding::optimized(eps(1.0), too_wide).unwrap());
    let err = ReportServer::start(mechanism as Arc<dyn Mechanism>, ServerConfig::default())
        .err()
        .expect("over-cap width must not start");
    assert!(
        err.to_string().contains("wire cap"),
        "unexpected error: {err}"
    );
}

/// A query while ingest is paused (and accepted reports are still queued)
/// must answer with a typed `Reject` rather than settling until resume —
/// a maintenance window must not leave queries hanging.
#[test]
fn query_during_paused_ingest_is_refused_not_blocked() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.0), 8).unwrap());
    let inputs = OwnedInputs::Items(items(200, 8));
    let (want_users, want) = batch_estimates(mechanism.as_ref(), inputs.as_batch());

    let server = ReportServer::start(
        mechanism.clone() as Arc<dyn Mechanism>,
        ServerConfig::default(),
    )
    .unwrap();
    let (mut client, _) = ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();

    server.pause_ingest();
    for chunk in wire_chunks(mechanism.as_ref(), inputs.as_batch()) {
        client.push_all(&chunk).unwrap(); // capacity 65_536 ≫ 200: all queue
    }
    match client.query_estimates() {
        Err(ClientError::Rejected { message, .. }) => {
            assert!(message.contains("paused"), "unexpected reason: {message}")
        }
        other => panic!("expected a typed paused refusal, got {other:?}"),
    }

    // The refusal is not sticky: resume, and the same connection settles.
    server.resume_ingest();
    let (users, estimates) = client.query_estimates().unwrap();
    assert_eq!(users, want_users);
    assert_bit_identical("paused-resume", &estimates, &want);
    server.shutdown();
}
