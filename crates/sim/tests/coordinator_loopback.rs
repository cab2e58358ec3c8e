//! Coordinator ≡ batch conformance (the acceptance bar of the
//! multi-collector tier).
//!
//! Drives the full distributed path — mechanism → [`ReportClient`] → TCP
//! → [`CoordServer`] → routed across N [`ReportServer`] collectors →
//! per-collector snapshots → exact merge → oracle — and asserts that the
//! estimates read off the *coordinator* are **bit-identical** to a batch
//! [`SimulationPipeline`] run of the same `(mechanism, inputs, seed)`,
//! for all eight mechanisms, for fleet sizes {1, 2, 4}. The partition the router induces is
//! irrelevant by construction (integer counts commute under any split);
//! this suite is what pins that law end to end through two protocol hops.
//!
//! Also covered: top-k through the coordinator against batch
//! `identify_top_k`, weighted round-robin routing, `Busy` spill off
//! a saturated collector (and a whole-fleet `Busy` that a retrying client
//! still converges through — exactly, nothing dropped or doubled),
//! fleet-identity refusal at registration, coordinated checkpoints with
//! a per-collector generation vector and bit-identical restart, and the
//! exactness-over-availability rule: one dead collector means a typed
//! refusal, never a silently partial estimate. A collector that reaped the
//! coordinator's idle connection is reconnected before the next exchange;
//! one that restarted with fewer users than it held is refused instead.
//! A malformed frame draws the same typed `Reject` from the coordinator as
//! from a collector — a `Reports` frame whose body breaks the report
//! grammar too, refused at the coordinator before any collector sees it.
//! A frame that fails part-way through a spill draws a `Reject` naming the
//! reports that landed.

use idldp_coord::{CoordError, CoordServer, Coordinator};
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
use idldp_core::report::{ReportData, ReportShape};
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
use std::time::Duration;

const SEED: u64 = 20200707;
/// Smaller than the server-loopback chunk so even a 4-collector fleet
/// sees several round-robin turns per mechanism.
const CHUNK: usize = 128;

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

/// All eight mechanisms (coordinator-sized populations), covering every
/// wire shape the router has to carry.
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
            OwnedInputs::Items(items(1536, 24)),
        ),
        (
            "rappor",
            Arc::new(UnaryEncoding::symmetric(eps(1.0), 20).unwrap()),
            OwnedInputs::Items(items(1024, 20)),
        ),
        (
            "oue",
            Arc::new(UnaryEncoding::optimized(eps(1.0), 20).unwrap()),
            OwnedInputs::Items(items(1024, 20)),
        ),
        ("idue", Arc::new(idue), OwnedInputs::Items(items(1024, 10))),
        (
            "ps",
            Arc::new(PsMechanism::new(12, 3).unwrap()),
            OwnedInputs::Sets(sets(768, 12)),
        ),
        (
            "idue-ps",
            Arc::new(IduePs::oue_ps(12, eps(2.0), 3).unwrap()),
            OwnedInputs::Sets(sets(768, 12)),
        ),
        (
            "matrix",
            Arc::new(PerturbationMatrix::grr(eps(1.5), 10).unwrap()),
            OwnedInputs::Items(items(768, 10)),
        ),
        (
            "olh",
            Arc::new(OptimalLocalHashing::new(eps(1.2), 24).unwrap()),
            OwnedInputs::Items(items(1536, 24)),
        ),
        (
            "ss",
            Arc::new(SubsetSelection::new(eps(1.0), 20).unwrap()),
            OwnedInputs::Items(items(1024, 20)),
        ),
    ]
}

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

fn wire_chunks(mechanism: &dyn Mechanism, inputs: InputBatch<'_>) -> Vec<Vec<ReportData>> {
    let mut stream = SeededReportStream::new(mechanism, inputs, SEED).with_chunk_size(CHUNK);
    let mut chunks = Vec::new();
    loop {
        let chunk = stream.next_chunk().unwrap();
        if chunk.is_empty() {
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

/// A protocol-v3 `Hello` built by hand: version, kind, shape, width and ε
/// bits, with no tenant field after them. GRR's value shape is the single
/// shape byte 1.
fn v3_hello(mechanism: &dyn Mechanism) -> Vec<u8> {
    assert_eq!(mechanism.report_shape(), ReportShape::Value);
    let kind = mechanism.kind();
    let mut payload = 3u32.to_le_bytes().to_vec();
    payload.extend_from_slice(&(kind.len() as u32).to_le_bytes());
    payload.extend_from_slice(kind.as_bytes());
    payload.push(1);
    payload.extend_from_slice(&(mechanism.report_len() as u64).to_le_bytes());
    payload.extend_from_slice(&mechanism.ldp_epsilon().to_bits().to_le_bytes());
    let mut hello = vec![0x01];
    hello.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    hello.extend_from_slice(&payload);
    hello
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
            "{name}: estimate {i} differs through the coordinator ({g} vs {w})"
        );
    }
}

/// Starts `fleet` fresh collectors and a coordinator frontend over them.
fn start_fleet(
    mechanism: &Arc<dyn BatchMechanism>,
    fleet: usize,
) -> (Vec<ReportServer>, CoordServer) {
    let collectors: Vec<ReportServer> = (0..fleet)
        .map(|_| {
            ReportServer::start(
                mechanism.clone() as Arc<dyn Mechanism>,
                ServerConfig::default(),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<(String, usize)> = collectors
        .iter()
        .map(|c| (c.local_addr().to_string(), 1))
        .collect();
    let (coordinator, restored) =
        Coordinator::connect(mechanism.clone() as Arc<dyn Mechanism>, None, &addrs).unwrap();
    assert_eq!(restored, 0, "fresh collectors start empty");
    let front = CoordServer::start(coordinator, "127.0.0.1:0").unwrap();
    (collectors, front)
}

/// The tentpole: for every mechanism, for fleets of 1, 2, and 4
/// collectors, the estimates and the
/// top-k ranking read off the coordinator are bit-identical to batch —
/// and the reports really were partitioned (every collector in a
/// multi-collector fleet absorbed some).
#[test]
fn coordinator_estimates_and_top_k_are_bit_identical_to_batch() {
    for (mech_name, mechanism, inputs) in lineup() {
        let (want_users, want) = batch_estimates(mechanism.as_ref(), inputs.as_batch());
        let chunks = wire_chunks(mechanism.as_ref(), inputs.as_batch());
        let k = 5;
        let want_top: Vec<u64> = identify_top_k(&want, k).iter().map(|&i| i as u64).collect();

        for fleet in [1usize, 2, 4] {
            let name = format!("{mech_name}/x{fleet}");
            let (collectors, front) = start_fleet(&mechanism, fleet);
            let (mut client, resumed) =
                ReportClient::connect(front.local_addr(), mechanism.as_ref()).unwrap();
            assert_eq!(resumed, 0, "{name}");

            for chunk in &chunks {
                client.push_all(chunk).unwrap();
            }

            let (users, estimates) = client.query_estimates().unwrap();
            assert_eq!(users, want_users, "{name}: user count through the fleet");
            assert_bit_identical(&name, &estimates, &want);

            // Top-k through the coordinator ranks the merged
            // estimates — and must equal batch identification exactly,
            // bits included.
            let (tk_users, candidates) = client.query_top_k(k).unwrap();
            assert_eq!(tk_users, want_users, "{name}");
            let got_top: Vec<u64> = candidates.iter().map(|&(item, _)| item).collect();
            assert_eq!(got_top, want_top, "{name}: top-{k} through the fleet");
            for &(item, estimate) in &candidates {
                assert_eq!(
                    estimate.to_bits(),
                    want[item as usize].to_bits(),
                    "{name}: candidate {item} estimate bits"
                );
            }

            // The routing really sharded the stream: nothing lost,
            // and in a multi-collector fleet nothing degenerated to a
            // single collector either.
            let stats = front.coordinator().lock().unwrap().stats();
            assert_eq!(
                stats.iter().map(|s| s.accepted).sum::<u64>(),
                want_users,
                "{name}: every report landed exactly once"
            );
            if fleet > 1 {
                assert!(
                    stats.iter().all(|s| s.accepted > 0),
                    "{name}: round-robin reached every collector: {stats:?}"
                );
            }

            for c in &collectors {
                assert_eq!(c.fold_failures(), 0, "{name}");
            }
            drop(client);
            front.shutdown();
            for c in collectors {
                c.shutdown();
            }
        }
    }
}

/// Weighted round-robin: a collector with weight `w` takes `w`
/// consecutive frames per turn. (Weights shape load only — the estimate
/// law above already proves any split is exact.)
#[test]
fn weighted_round_robin_respects_weights() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 8).unwrap());
    let a = ReportServer::start(
        mechanism.clone() as Arc<dyn Mechanism>,
        ServerConfig::default(),
    )
    .unwrap();
    let b = ReportServer::start(
        mechanism.clone() as Arc<dyn Mechanism>,
        ServerConfig::default(),
    )
    .unwrap();
    let addrs = vec![
        (a.local_addr().to_string(), 1),
        (b.local_addr().to_string(), 3),
    ];
    let (mut coordinator, _) =
        Coordinator::connect(mechanism.clone() as Arc<dyn Mechanism>, None, &addrs).unwrap();

    // Eight single-report frames = two full turns of the (1, 3) cycle.
    for i in 0..8u64 {
        let outcome = coordinator
            .route(&[ReportData::Value((i % 8) as usize)])
            .unwrap();
        assert_eq!(outcome, PushOutcome::Ingested);
    }
    let stats = coordinator.stats();
    assert_eq!(stats[0].accepted, 2, "weight 1 of 4 → 2 of 8 frames");
    assert_eq!(stats[1].accepted, 6, "weight 3 of 4 → 6 of 8 frames");
    assert_eq!(coordinator.users(), 8);
    drop(coordinator);
    a.shutdown();
    b.shutdown();
}

/// The Busy contract through the coordinator. A saturated collector's
/// remainder spills to its neighbour instead of burning retries; a
/// whole-fleet saturation surfaces as a protocol-conformant `Busy` with
/// the contiguous accepted prefix, and a retrying client converges to
/// the exact batch estimates once capacity returns — no report dropped,
/// none double-counted.
#[test]
fn busy_saturated_collector_spills_and_a_retrying_client_converges_exactly() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 16).unwrap());
    let inputs = OwnedInputs::Items(items(2048, 16));
    let (want_users, want) = batch_estimates(mechanism.as_ref(), inputs.as_batch());
    let chunks = wire_chunks(mechanism.as_ref(), inputs.as_batch());

    let capacity = 64; // CHUNK = 128 > capacity: one frame overfills a queue
    let config = ServerConfig::builder()
        .queue_capacity(capacity)
        .build()
        .unwrap();
    let slow =
        ReportServer::start(mechanism.clone() as Arc<dyn Mechanism>, config.clone()).unwrap();
    let fast = ReportServer::start(mechanism.clone() as Arc<dyn Mechanism>, config).unwrap();
    let addrs = vec![
        (slow.local_addr().to_string(), 1),
        (fast.local_addr().to_string(), 1),
    ];
    let (coordinator, _) =
        Coordinator::connect(mechanism.clone() as Arc<dyn Mechanism>, None, &addrs).unwrap();
    let front = CoordServer::start(coordinator, "127.0.0.1:0").unwrap();
    let (client, _) = ReportClient::connect(front.local_addr(), mechanism.as_ref()).unwrap();
    let mut client = client.with_retry_backoff(std::time::Duration::from_millis(1));

    // Whole fleet frozen: a frame bigger than the fleet's combined
    // queue space (2 × 64) fills both queues — slow takes its prefix,
    // the remainder spills, fast takes the spill's prefix — and the
    // coordinator's reply is Busy with exactly the contiguous
    // accepted prefix of the frame.
    slow.pause_ingest();
    fast.pause_ingest();
    let oversized: Vec<ReportData> = chunks
        .iter()
        .flatten()
        .take(2 * capacity + 40)
        .cloned()
        .collect();
    let accepted = match client.push(&oversized).unwrap() {
        PushOutcome::Busy { accepted } => accepted,
        PushOutcome::Ingested => panic!("a frozen fleet must answer Busy"),
    };
    assert_eq!(
        accepted,
        2 * capacity as u64,
        "both queues filled before the Busy"
    );

    // Fast thaws; slow stays frozen with a full queue for the rest of
    // the stream — every frame routed its way yields a zero-progress
    // Busy and spills wholesale to fast.
    fast.resume_ingest();
    let all: Vec<ReportData> = chunks.iter().flatten().cloned().collect();
    client.push_all(&all[accepted as usize..]).unwrap();

    {
        let coordinator = front.coordinator();
        let coordinator = coordinator.lock().unwrap();
        let stats = coordinator.stats();
        assert_eq!(
            stats.iter().map(|s| s.accepted).sum::<u64>(),
            want_users,
            "accepted across the fleet covers the population"
        );
        assert_eq!(stats[0].accepted, capacity as u64, "slow froze early");
        assert!(stats[0].busy_replies > 0, "slow pushed back: {stats:?}");
        assert!(
            stats[1].spilled_in >= (want_users - 2 * capacity as u64),
            "the remainder spilled to fast: {stats:?}"
        );
    }

    // Exactness over availability: with slow still paused (its 64
    // accepted reports unfolded), a query draws a typed refusal, not
    // a partial answer.
    match client.query_estimates() {
        Err(ClientError::Rejected { message, .. }) => {
            assert!(message.contains("paused"), "unexpected reason: {message}")
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }

    // Thaw slow: the same connection settles to the exact batch
    // estimates — the spill/retry dance lost and duplicated nothing.
    slow.resume_ingest();
    let (users, estimates) = client.query_estimates().unwrap();
    assert_eq!(users, want_users);
    assert_bit_identical("busy-spill", &estimates, &want);
    assert_eq!(slow.fold_failures() + fast.fold_failures(), 0);
    drop(client);
    front.shutdown();
    slow.shutdown();
    fast.shutdown();
}

/// Registration is where a mixed fleet dies: a collector whose
/// run-identity line (mechanism identity + CLI config stamp) differs
/// from the coordinator's is refused by name before any report flows.
#[test]
fn registration_refuses_mismatched_fleets() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 16).unwrap());
    let stamped = |stamp: &str| ServerConfig::builder().config_stamp(stamp).build().unwrap();
    let a = ReportServer::start(
        mechanism.clone() as Arc<dyn Mechanism>,
        stamped("mechanism=grr m=16 eps=1.2 seed=1"),
    )
    .unwrap();
    let b = ReportServer::start(
        mechanism.clone() as Arc<dyn Mechanism>,
        stamped("mechanism=grr m=16 eps=1.2 seed=2"),
    )
    .unwrap();

    // Same wire mechanism, different seed stamp: the Hello handshake
    // passes (the frames are compatible) but the fleet identity does not
    // — seed 2's reports belong to a different experiment.
    let addrs = vec![
        (a.local_addr().to_string(), 1),
        (b.local_addr().to_string(), 1),
    ];
    match Coordinator::connect(
        mechanism.clone() as Arc<dyn Mechanism>,
        Some("mechanism=grr m=16 eps=1.2 seed=1"),
        &addrs,
    ) {
        Err(CoordError::IdentityMismatch { addr, got, want }) => {
            assert_eq!(addr, b.local_addr().to_string());
            assert!(got.contains("seed=2"), "{got}");
            assert!(want.contains("seed=1"), "{want}");
        }
        Err(other) => panic!("mixed seeds must refuse registration, got {other:?}"),
        Ok(_) => panic!("mixed seeds must refuse registration, got a coordinator"),
    }

    // A matching single-collector fleet registers fine.
    let (coordinator, restored) = Coordinator::connect(
        mechanism.clone() as Arc<dyn Mechanism>,
        Some("mechanism=grr m=16 eps=1.2 seed=1"),
        &addrs[..1],
    )
    .unwrap();
    assert_eq!(restored, 0);
    assert!(coordinator.run_line().contains("seed=1"));
    drop(coordinator);

    // A different mechanism config is refused one hop earlier, by the
    // collector's own Hello validation.
    let other: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(2.0), 16).unwrap());
    assert!(matches!(
        Coordinator::connect(other as Arc<dyn Mechanism>, None, &addrs[..1]),
        Err(CoordError::Collector { .. })
    ));

    // Config errors are typed too: empty fleets and zero weights.
    assert!(matches!(
        Coordinator::connect(mechanism.clone() as Arc<dyn Mechanism>, None, &[]),
        Err(CoordError::Config(_))
    ));
    assert!(matches!(
        Coordinator::connect(
            mechanism.clone() as Arc<dyn Mechanism>,
            None,
            &[(a.local_addr().to_string(), 0)],
        ),
        Err(CoordError::Config(_))
    ));

    a.shutdown();
    b.shutdown();
}

/// Coordinated checkpoints: one `Checkpoint` frame at the coordinator
/// fans out to every collector, the generation vector records who held
/// what, and a fleet restart restores the whole population — with the
/// post-restart estimates still bit-identical to batch.
#[test]
fn coordinated_checkpoint_covers_the_fleet_and_restores_bit_identically() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(UnaryEncoding::optimized(eps(1.0), 16).unwrap());
    let inputs = OwnedInputs::Items(items(1024, 16));
    let (want_users, want) = batch_estimates(mechanism.as_ref(), inputs.as_batch());
    let chunks = wire_chunks(mechanism.as_ref(), inputs.as_batch());
    let half = chunks.len() / 2;

    let dir = std::env::temp_dir().join(format!("idldp-coord-loopback-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpts = [dir.join("a.ckpt"), dir.join("b.ckpt")];
    let config = |ckpt: &std::path::Path| {
        ServerConfig::builder()
            .checkpoint_path(ckpt)
            .build()
            .unwrap()
    };

    // First life: ingest half the stream through the coordinator, then
    // checkpoint the fleet over the socket.
    let collectors: Vec<ReportServer> = ckpts
        .iter()
        .map(|c| ReportServer::start(mechanism.clone() as Arc<dyn Mechanism>, config(c)).unwrap())
        .collect();
    let addrs: Vec<(String, usize)> = collectors
        .iter()
        .map(|c| (c.local_addr().to_string(), 1))
        .collect();
    let (coordinator, _) =
        Coordinator::connect(mechanism.clone() as Arc<dyn Mechanism>, None, &addrs).unwrap();
    let front = CoordServer::start(coordinator, "127.0.0.1:0").unwrap();
    let (mut client, _) = ReportClient::connect(front.local_addr(), mechanism.as_ref()).unwrap();
    for chunk in &chunks[..half] {
        client.push_all(chunk).unwrap();
    }
    let covered = client.checkpoint().unwrap();
    assert_eq!(covered, (half * CHUNK) as u64, "the ack sums the fleet");
    {
        let coordinator = front.coordinator();
        let coordinator = coordinator.lock().unwrap();
        let generation = coordinator.last_generation().unwrap().to_vec();
        assert_eq!(generation.len(), 2, "one entry per collector");
        assert_eq!(generation.iter().sum::<u64>(), covered);
        assert!(
            generation.iter().all(|&g| g > 0),
            "both collectors held reports: {generation:?}"
        );
    }
    drop(client);
    front.shutdown();
    for c in collectors {
        c.shutdown();
    }

    // Second life: the collectors restore their checkpoints, registration
    // reports the restored fleet total, and the tail of the stream brings
    // the estimates to exact batch equality.
    let collectors: Vec<ReportServer> = ckpts
        .iter()
        .map(|c| ReportServer::start(mechanism.clone() as Arc<dyn Mechanism>, config(c)).unwrap())
        .collect();
    let addrs: Vec<(String, usize)> = collectors
        .iter()
        .map(|c| (c.local_addr().to_string(), 1))
        .collect();
    let (coordinator, restored) =
        Coordinator::connect(mechanism.clone() as Arc<dyn Mechanism>, None, &addrs).unwrap();
    assert_eq!(restored, covered, "registration sums the restored users");
    let front = CoordServer::start(coordinator, "127.0.0.1:0").unwrap();
    let (mut client, resumed) =
        ReportClient::connect(front.local_addr(), mechanism.as_ref()).unwrap();
    assert_eq!(resumed, covered, "the HelloAck reports the fleet total");
    for chunk in &chunks[half..] {
        client.push_all(chunk).unwrap();
    }
    let (users, estimates) = client.query_estimates().unwrap();
    assert_eq!(users, want_users);
    assert_bit_identical("checkpoint-restart", &estimates, &want);
    drop(client);
    front.shutdown();
    for c in collectors {
        c.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Exactness over availability: when a collector dies, queries through
/// the coordinator draw a typed refusal — never an estimate computed
/// over the surviving subset as if it were the whole population.
#[test]
fn a_dead_collector_means_a_typed_refusal_not_a_partial_answer() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 8).unwrap());
    let (collectors, front) = start_fleet(&mechanism, 2);
    let (mut client, _) = ReportClient::connect(front.local_addr(), mechanism.as_ref()).unwrap();
    let batch: Vec<ReportData> = (0..64).map(|i| ReportData::Value(i % 8)).collect();
    client.push_all(&batch).unwrap();
    let (users, _) = client.query_estimates().unwrap();
    assert_eq!(users, 64);

    // Kill one collector; the other still holds its share.
    let mut collectors = collectors;
    collectors.remove(1).shutdown();

    match client.query_estimates() {
        Err(ClientError::Rejected { message, .. }) => assert!(
            message.contains("collector"),
            "the refusal names the collector tier: {message}"
        ),
        other => panic!("a dead collector must refuse the query, got {other:?}"),
    }
    drop(client);
    front.shutdown();
    for c in collectors {
        c.shutdown();
    }
}

/// Collectors reap connections idle past their idle timeout, the
/// coordinator's own included. Before each exchange the coordinator
/// re-handshakes a reaped connection, so after an idle pause a push and a
/// query through the coordinator frontend both succeed, and the estimates
/// stay bit-identical to a local fold. A collector whose paused queue
/// still holds accepted reports announces them at the re-handshake, so
/// the reconnect is not mistaken for a restart.
#[test]
fn coordinator_reconnects_collectors_that_reaped_its_idle_connections() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(OptimalLocalHashing::new(eps(1.2), 24).unwrap());
    let inputs = OwnedInputs::Items(items(1536, 24));
    let (want_users, want) = batch_estimates(mechanism.as_ref(), inputs.as_batch());
    let chunks = wire_chunks(mechanism.as_ref(), inputs.as_batch());
    let idle = ServerConfig::builder()
        .idle_timeout(Some(Duration::from_millis(300)))
        .build()
        .unwrap();
    let collectors: Vec<ReportServer> = (0..2)
        .map(|_| {
            ReportServer::start(mechanism.clone() as Arc<dyn Mechanism>, idle.clone()).unwrap()
        })
        .collect();
    let addrs: Vec<(String, usize)> = collectors
        .iter()
        .map(|c| (c.local_addr().to_string(), 1))
        .collect();
    let (coordinator, _) =
        Coordinator::connect(mechanism.clone() as Arc<dyn Mechanism>, None, &addrs).unwrap();
    let front = CoordServer::start(coordinator, "127.0.0.1:0").unwrap();
    let (mut client, _) = ReportClient::connect(front.local_addr(), mechanism.as_ref()).unwrap();

    let (before, after) = chunks.split_at(chunks.len() / 2);
    for chunk in before {
        client.push_all(chunk).unwrap();
    }
    let (users, _) = client.query_estimates().unwrap();
    let pushed_before = before.iter().map(Vec::len).sum::<usize>() as u64;
    assert_eq!(users, pushed_before);

    // With ingest paused, each collector accepts a chunk it cannot fold
    // yet, and still holds it when the coordinator reconnects.
    for c in &collectors {
        c.pause_ingest();
    }
    let (held, after) = after.split_at(2);
    for chunk in held {
        client.push_all(chunk).unwrap();
    }
    std::thread::sleep(Duration::from_secs(1));
    for c in &collectors {
        assert!(
            c.reaped_connections() >= 1,
            "the pause outlasts the collector's idle timeout"
        );
    }

    // The push reconnects the collector it routes to first (its queued
    // chunk counts as held); the query reconnects every collector still
    // closed.
    client.push_all(&after[0]).unwrap();
    for c in &collectors {
        c.resume_ingest();
    }
    for chunk in &after[1..] {
        client.push_all(chunk).unwrap();
    }
    let (users, estimates) = client.query_estimates().unwrap();
    assert_eq!(users, want_users);
    assert_bit_identical("olh after an idle pause", &estimates, &want);
    let stats = front.coordinator().lock().unwrap().stats();
    assert_eq!(stats.iter().map(|s| s.accepted).sum::<u64>(), want_users);

    drop(client);
    front.shutdown();
    for c in collectors {
        assert_eq!(c.fold_failures(), 0);
        c.shutdown();
    }
}

/// A collector that restarts from an older checkpoint behind a live
/// coordinator has lost acknowledged reports. The coordinator's reconnect
/// sees its `HelloAck` announce fewer users than it held and refuses,
/// naming the collector and both counts — for queries and pushes alike,
/// never answering from the shrunken fleet.
#[test]
fn a_collector_restarted_from_an_older_checkpoint_is_refused_on_reconnect() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 8).unwrap());
    let dir = std::env::temp_dir().join(format!("idldp-coord-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("collector.ckpt");
    let config = |addr: &str| {
        ServerConfig::builder()
            .addr(addr)
            .checkpoint_path(&ckpt)
            .build()
            .unwrap()
    };
    let collector = ReportServer::start(
        mechanism.clone() as Arc<dyn Mechanism>,
        config("127.0.0.1:0"),
    )
    .unwrap();
    let addr = collector.local_addr().to_string();
    let (coordinator, _) = Coordinator::connect(
        mechanism.clone() as Arc<dyn Mechanism>,
        None,
        &[(addr.clone(), 1)],
    )
    .unwrap();
    let front = CoordServer::start(coordinator, "127.0.0.1:0").unwrap();
    let (mut client, _) = ReportClient::connect(front.local_addr(), mechanism.as_ref()).unwrap();
    let batch: Vec<ReportData> = (0..64).map(|i| ReportData::Value(i % 8)).collect();
    client.push_all(&batch).unwrap();
    assert_eq!(client.checkpoint().unwrap(), 64);
    client.push_all(&batch).unwrap();
    assert_eq!(client.query_estimates().unwrap().0, 128);

    // The collector restarts on the same address from its checkpoint,
    // which holds only the first 64 acknowledged reports.
    collector.shutdown();
    let collector =
        ReportServer::start(mechanism.clone() as Arc<dyn Mechanism>, config(&addr)).unwrap();
    assert_eq!(collector.num_users(), 64);

    for _ in 0..2 {
        match client.query_estimates() {
            Err(ClientError::Rejected { message, .. }) => {
                assert!(message.contains(&addr), "{message}");
                assert!(
                    message.contains("announced 64") && message.contains("held 128"),
                    "{message}"
                );
            }
            other => panic!("a collector that lost reports must be refused, got {other:?}"),
        }
    }
    assert!(matches!(
        client.push_all(&batch),
        Err(ClientError::Rejected { accepted: 0, .. })
    ));
    assert_eq!(
        collector.num_users(),
        64,
        "nothing reached the restarted collector"
    );
    drop(client);
    front.shutdown();
    collector.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A malformed frame after the handshake draws the same typed `bad frame:`
/// `Reject` a collector sends, then the coordinator closes the connection
/// — for an unknown tag and an over-cap length prefix alike. The frontend
/// keeps serving well-formed clients.
#[test]
fn malformed_frames_draw_a_typed_reject_from_the_coordinator() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.0), 8).unwrap());
    let (collectors, front) = start_fleet(&mechanism, 2);

    for (case, bytes) in [("unknown tag", UNKNOWN_TAG), ("oversized", OVERSIZED)] {
        let message = raw_reject(front.local_addr(), Some(mechanism.as_ref()), &bytes);
        assert!(message.starts_with("bad frame: "), "{case}: {message}");
    }
    let message = raw_reject(front.local_addr(), None, &UNKNOWN_TAG);
    assert!(message.starts_with("handshake: "), "{message}");
    // A v3 client is refused by its version, before the rest of its Hello.
    let message = raw_reject(front.local_addr(), None, &v3_hello(mechanism.as_ref()));
    assert_eq!(
        message,
        format!("handshake: protocol version 3 unsupported (server speaks {PROTOCOL_VERSION})")
    );

    let (mut client, _) = ReportClient::connect(front.local_addr(), mechanism.as_ref()).unwrap();
    client.push_all(&[ReportData::Value(3)]).unwrap();
    let (users, _) = client.query_estimates().unwrap();
    assert_eq!(users, 1, "malformed peers left no reports behind");
    drop(client);
    front.shutdown();
    for c in collectors {
        c.shutdown();
    }
}

/// A `Reports` frame around a hand-built payload.
fn reports_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![0x03];
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// A report count, then raw report bytes.
fn reports_payload(count: u32, reports: &[&[u8]]) -> Vec<u8> {
    let mut payload = count.to_le_bytes().to_vec();
    for report in reports {
        payload.extend_from_slice(report);
    }
    payload
}

/// The coordinator checks a `Reports` frame against the report grammar
/// before it forwards the bytes. A frame whose body breaks the grammar
/// draws exactly the `bad frame:` refusal a collector sends for the same
/// bytes, the connection closes, and no collector counts a report.
#[test]
fn malformed_report_bodies_are_refused_at_the_coordinator() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.0), 8).unwrap());
    let (collectors, front) = start_fleet(&mechanism, 2);
    let value = [&[1u8][..], &3u64.to_le_bytes()].concat();
    let over_cap = [
        &[0u8][..],
        &(idldp_server::MAX_BIT_REPORT_SLOTS as u32 + 1).to_le_bytes(),
    ]
    .concat();
    let padded = [&[0u8][..], &3u32.to_le_bytes(), &[0b1000_0111]].concat();
    let cases = [
        (
            "unknown report tag",
            reports_payload(1, &[&[9], &3u64.to_le_bytes()]),
        ),
        ("truncated report", reports_payload(1, &[&value[..5]])),
        ("count past the payload", reports_payload(3, &[&value])),
        ("trailing bytes", reports_payload(1, &[&value, &[0, 0, 0]])),
        (
            "bit report over the slot cap",
            reports_payload(1, &[&over_cap]),
        ),
        ("nonzero padding bits", reports_payload(1, &[&padded])),
    ];
    let negotiated = Some(mechanism.as_ref() as &dyn Mechanism);
    for (case, payload) in &cases {
        let bytes = reports_frame(payload);
        let at_coordinator = raw_reject(front.local_addr(), negotiated, &bytes);
        assert!(
            at_coordinator.starts_with("bad frame: "),
            "{case}: {at_coordinator}"
        );
        let at_collector = raw_reject(collectors[0].local_addr(), negotiated, &bytes);
        assert_eq!(at_coordinator, at_collector, "{case}");
    }

    let (mut client, _) = ReportClient::connect(front.local_addr(), mechanism.as_ref()).unwrap();
    let (users, _) = client.query_estimates().unwrap();
    assert_eq!(
        users, 0,
        "no collector counted a report of a malformed frame"
    );
    let stats = front.coordinator().lock().unwrap().stats();
    assert!(stats.iter().all(|s| s.accepted == 0), "{stats:?}");
    client.push_all(&[ReportData::Value(3)]).unwrap();
    assert_eq!(client.query_estimates().unwrap().0, 1);
    drop(client);
    front.shutdown();
    for c in collectors {
        c.shutdown();
    }
}

/// A frame that fails after a spill began is refused with the reports
/// that landed. The paused collector takes the first 64 reports of the
/// frame (`Busy`), the spill then finds the other collector gone, and the
/// coordinator's `Reject` names those 64: the users the paused collector
/// gains once it resumes, and the users the coordinator counts.
#[test]
fn a_reject_after_a_partial_spill_names_the_reports_that_landed() {
    let mechanism: Arc<dyn BatchMechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 8).unwrap());
    let small = ServerConfig::builder().queue_capacity(64).build().unwrap();
    let paused = ReportServer::start(mechanism.clone() as Arc<dyn Mechanism>, small).unwrap();
    let gone = ReportServer::start(
        mechanism.clone() as Arc<dyn Mechanism>,
        ServerConfig::default(),
    )
    .unwrap();
    let addrs = vec![
        (paused.local_addr().to_string(), 1),
        (gone.local_addr().to_string(), 1),
    ];
    let (coordinator, _) =
        Coordinator::connect(mechanism.clone() as Arc<dyn Mechanism>, None, &addrs).unwrap();
    let front = CoordServer::start(coordinator, "127.0.0.1:0").unwrap();
    let (mut client, _) = ReportClient::connect(front.local_addr(), mechanism.as_ref()).unwrap();

    paused.pause_ingest();
    gone.shutdown();
    let batch: Vec<ReportData> = (0..128).map(|i| ReportData::Value(i % 8)).collect();
    let accepted = match client.push(&batch) {
        Err(ClientError::Rejected { accepted, message }) => {
            assert!(message.contains("collector"), "{message}");
            accepted
        }
        other => panic!("a spill into a dead collector must be refused, got {other:?}"),
    };
    assert_eq!(accepted, 64, "the paused collector's queue took 64 reports");
    assert_eq!(front.coordinator().lock().unwrap().users(), accepted);

    paused.resume_ingest();
    let (mut direct, _) = ReportClient::connect(paused.local_addr(), mechanism.as_ref()).unwrap();
    let (users, _) = direct.query_estimates().unwrap();
    assert_eq!(
        users, accepted,
        "the Reject names exactly the reports that landed"
    );
    drop(direct);
    drop(client);
    front.shutdown();
    paused.shutdown();
}
