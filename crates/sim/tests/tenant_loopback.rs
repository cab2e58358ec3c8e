//! Multi-tenant loopback ≡ batch conformance (the acceptance bar of
//! tenancy).
//!
//! One [`ReportServer`] hosts several fully independent `(mechanism, ε,
//! seed)` streams — tenants — selected by the v4 `Hello` handshake. This
//! suite proves the isolation contract end to end over real sockets:
//!
//! * Two tenants with *different* mechanisms and privacy budgets, pushed
//!   through one server concurrently, each answer estimates
//!   **bit-identical** to their own standalone batch
//!   [`SimulationPipeline`] run — sharing a process adds nothing and
//!   leaks nothing.
//! * A `Hello` naming a tenant whose mechanism config does not match is
//!   refused with the same typed reject a single-tenant server sends;
//!   a `Hello` naming a tenant the server does not host is refused by
//!   name.
//! * A protocol-v3 `Hello` (no tenant field on the wire at all) draws a
//!   typed handshake `Reject` and is never counted: v3 is retired.
//! * Backpressure is per tenant: with folding frozen, a hot tenant with
//!   a small ingest queue answers `Busy` while the default tenant keeps
//!   accepting — and after resuming, both converge to their exact batch
//!   answers through the retry loop.
//! * Checkpoints are per tenant: each tenant persists at its own
//!   namespaced path, and a restart restores every tenant's count
//!   independently, resuming to bit-identical estimates.
//! * Admission applies each tenant's own report rules: a frame with one
//!   report that breaks them (a bit report of the wrong width, a value
//!   or hashed value out of range, an item set of the wrong size, with a
//!   repeated member or a member out of range) draws a typed `Reject`
//!   naming that report, counts nothing, and the next valid frame lands.

use idldp_core::budget::Epsilon;
use idldp_core::grr::GeneralizedRandomizedResponse;
use idldp_core::identity::TenantId;
use idldp_core::mechanism::{BatchMechanism, InputBatch, Mechanism};
use idldp_core::olh::OptimalLocalHashing;
use idldp_core::report::{PackedBits, ReportData, ReportShape};
use idldp_core::subset::SubsetSelection;
use idldp_core::ue::UnaryEncoding;
use idldp_server::{
    ClientError, Frame, PushOutcome, ReportClient, ReportServer, ServerConfig, ServerConfigBuilder,
    TenantConfig, PROTOCOL_VERSION,
};
use idldp_sim::stream::SeededReportStream;
use idldp_sim::SimulationPipeline;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

const SEED: u64 = 20200707;
const CHUNK: usize = 256;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn items(n: usize, m: usize) -> Vec<u32> {
    (0..n).map(|i| ((i * i) % m) as u32).collect()
}

/// One tenant's whole experiment: a name, a mechanism, and its input
/// population. Kept together so the batch reference, the wire stream,
/// and the server-side tenant all come from the same triple.
struct Stream {
    tenant: TenantId,
    mechanism: Arc<dyn BatchMechanism>,
    inputs: Vec<u32>,
}

impl Stream {
    fn batch(&self) -> (u64, Vec<f64>) {
        let snapshot = SimulationPipeline::new()
            .with_chunk_size(CHUNK)
            .run_snapshot(
                self.mechanism.as_ref(),
                InputBatch::Items(&self.inputs),
                SEED,
            )
            .unwrap();
        let users = snapshot.num_users();
        let estimates = self
            .mechanism
            .frequency_oracle(users)
            .estimate_from(&snapshot)
            .unwrap();
        (users, estimates)
    }

    fn wire_chunks(&self) -> Vec<Vec<ReportData>> {
        let mut stream = SeededReportStream::new(
            self.mechanism.as_ref(),
            InputBatch::Items(&self.inputs),
            SEED,
        )
        .with_chunk_size(CHUNK);
        let mut chunks = Vec::new();
        loop {
            let chunk = stream.next_chunk().unwrap();
            if chunk.is_empty() {
                return chunks;
            }
            chunks.push(chunk);
        }
    }

    fn connect(&self, server: &ReportServer) -> (ReportClient, u64) {
        let tenant = (!self.tenant.is_default()).then_some(&self.tenant);
        ReportClient::connect_tenant(server.local_addr(), self.mechanism.as_ref(), tenant).unwrap()
    }
}

/// The default stream plus two named tenants, all with different
/// mechanisms, domain widths, and privacy budgets — nothing any two
/// tenants could accidentally share and still answer correctly.
fn three_streams() -> Vec<Stream> {
    vec![
        Stream {
            tenant: TenantId::default_tenant(),
            mechanism: Arc::new(UnaryEncoding::optimized(eps(1.0), 20).unwrap()),
            inputs: items(2500, 20),
        },
        Stream {
            tenant: TenantId::new("alpha").unwrap(),
            mechanism: Arc::new(GeneralizedRandomizedResponse::new(eps(1.2), 24).unwrap()),
            inputs: items(3000, 24),
        },
        Stream {
            tenant: TenantId::new("beta").unwrap(),
            mechanism: Arc::new(OptimalLocalHashing::new(eps(2.0), 16).unwrap()),
            inputs: items(2000, 16),
        },
    ]
}

/// A builder preloaded with `streams[0]` as the implied default tenant's
/// config and every later stream as a named [`TenantConfig`].
fn tenanted_builder(streams: &[Stream]) -> ServerConfigBuilder {
    let mut builder = ServerConfig::builder();
    for stream in &streams[1..] {
        builder = builder.tenant(TenantConfig::new(
            stream.tenant.clone(),
            Arc::clone(&stream.mechanism) as Arc<dyn Mechanism>,
        ));
    }
    builder
}

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

/// The tentpole contract: tenants pushed concurrently through one server
/// each answer exactly what a standalone batch run of their own
/// `(mechanism, inputs, seed)` answers. Chunks are interleaved
/// round-robin across the tenants' clients, so the per-tenant queues and
/// accumulators are exercised under real interleaving, not one tenant at
/// a time.
#[test]
fn tenants_are_each_bit_identical_to_their_own_batch_run() {
    let streams = three_streams();
    let reference: Vec<(u64, Vec<f64>)> = streams.iter().map(Stream::batch).collect();

    let server = ReportServer::start(
        Arc::clone(&streams[0].mechanism) as Arc<dyn Mechanism>,
        tenanted_builder(&streams).build().unwrap(),
    )
    .unwrap();
    assert_eq!(
        server.tenant_ids(),
        streams.iter().map(|s| s.tenant.clone()).collect::<Vec<_>>(),
        "default tenant first, then registration order"
    );

    let mut clients: Vec<ReportClient> = streams
        .iter()
        .map(|stream| {
            let (client, resumed) = stream.connect(&server);
            assert_eq!(resumed, 0, "{}: fresh server", stream.tenant);
            client
        })
        .collect();

    // Interleave: one chunk per tenant per round until all are drained.
    let mut chunks: Vec<Vec<Vec<ReportData>>> = streams.iter().map(Stream::wire_chunks).collect();
    let rounds = chunks.iter().map(Vec::len).max().unwrap();
    for round in 0..rounds {
        for (client, chunks) in clients.iter_mut().zip(&chunks) {
            if let Some(chunk) = chunks.get(round) {
                client.push_all(chunk).unwrap();
            }
        }
    }
    chunks.clear();

    for ((stream, client), (want_users, want)) in streams.iter().zip(&mut clients).zip(&reference) {
        let name = stream.tenant.to_string();
        let (users, estimates) = client.query_estimates().unwrap();
        assert_eq!(users, *want_users, "{name}: every report folded");
        assert_bit_identical(&name, &estimates, want);
        assert_eq!(
            server.num_users_for(&stream.tenant).unwrap(),
            *want_users,
            "{name}: server-side count agrees"
        );
    }
    assert_eq!(server.fold_failures(), 0);
    server.shutdown();
}

/// Tenant selection is checked before config, and config is checked
/// against the *named* tenant: a client speaking tenant `alpha`'s
/// protocol but announcing the default tenant's mechanism is refused,
/// and an unknown tenant is refused by name with the hosted list.
#[test]
fn wrong_and_unknown_tenants_draw_typed_rejects() {
    let streams = three_streams();
    let server = ReportServer::start(
        Arc::clone(&streams[0].mechanism) as Arc<dyn Mechanism>,
        tenanted_builder(&streams).build().unwrap(),
    )
    .unwrap();

    // Right tenant name, wrong mechanism config (the default
    // tenant's OUE against tenant alpha's GRR).
    let alpha = TenantId::new("alpha").unwrap();
    let err = ReportClient::connect_tenant(
        server.local_addr(),
        streams[0].mechanism.as_ref(),
        Some(&alpha),
    )
    .map(|_| ())
    .expect_err("mismatched config against a named tenant must be rejected");
    match err {
        ClientError::Rejected { message, .. } => assert!(
            message.contains("mechanism config mismatch"),
            "unhelpful reject `{message}`"
        ),
        other => panic!("expected a typed reject, got {other:?}"),
    }

    // A tenant this server does not host, with an otherwise valid
    // config: refused by name, and the reject lists what is hosted.
    let ghost = TenantId::new("ghost").unwrap();
    let err = ReportClient::connect_tenant(
        server.local_addr(),
        streams[1].mechanism.as_ref(),
        Some(&ghost),
    )
    .map(|_| ())
    .expect_err("an unhosted tenant must be rejected");
    match err {
        ClientError::Rejected { message, .. } => assert!(
            message.contains("unknown tenant `ghost`") && message.contains("alpha"),
            "unhelpful reject `{message}`"
        ),
        other => panic!("expected a typed reject, got {other:?}"),
    }

    // The rejects left the tenants untouched and the server serving:
    // a correct handshake still lands.
    let (_client, resumed) = streams[1].connect(&server);
    assert_eq!(resumed, 0);
    server.shutdown();
}

/// Protocol v3 is retired. A pre-tenancy `Hello` has no tenant field on
/// the wire, so it does not decode: the server answers it with the typed
/// handshake refusal, never acks it, and no tenant counts anything.
#[test]
fn a_v3_hello_draws_a_typed_reject() {
    let streams = three_streams();
    let server = ReportServer::start(
        Arc::clone(&streams[0].mechanism) as Arc<dyn Mechanism>,
        tenanted_builder(&streams).build().unwrap(),
    )
    .unwrap();

    // The v3 layout by hand: version, kind, shape, width and ε bits, with
    // nothing after. OUE's bit shape is the single shape byte 0.
    let mechanism = streams[0].mechanism.as_ref();
    assert_eq!(mechanism.report_shape(), ReportShape::Bits);
    let kind = mechanism.kind();
    let mut payload = 3u32.to_le_bytes().to_vec();
    payload.extend_from_slice(&(kind.len() as u32).to_le_bytes());
    payload.extend_from_slice(kind.as_bytes());
    payload.push(0);
    payload.extend_from_slice(&(mechanism.report_len() as u64).to_le_bytes());
    payload.extend_from_slice(&mechanism.ldp_epsilon().to_bits().to_le_bytes());
    let mut hello = vec![0x01];
    hello.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    hello.extend_from_slice(&payload);

    let mut socket = TcpStream::connect(server.local_addr()).unwrap();
    socket.write_all(&hello).unwrap();
    match Frame::read_from(&mut socket).unwrap() {
        Some(Frame::Reject {
            accepted: 0,
            message,
        }) => assert_eq!(
            message,
            format!("handshake: protocol version 3 unsupported (server speaks {PROTOCOL_VERSION})")
        ),
        other => panic!("v3 handshake drew {other:?}"),
    }
    assert!(
        !matches!(Frame::read_from(&mut socket), Ok(Some(_))),
        "the refused connection must close without another frame"
    );
    for stream in &streams {
        assert_eq!(
            server.num_users_for(&stream.tenant).unwrap(),
            0,
            "{}: a v3 connection must count nothing",
            stream.tenant
        );
    }
    server.shutdown();
}

/// Each tenant's rules at admission, over TCP: one server hosts a bit,
/// a value, a hashed and an item-set tenant, and each case sends a frame
/// of valid reports with one that breaks a rule of its tenant. The frame
/// draws a `Reject` naming the first bad report with `accepted: 0` and
/// no user counted, and a valid frame sent after it lands.
#[test]
fn admission_refuses_each_tenant_rule_by_report() {
    let mut streams = three_streams();
    let ss = SubsetSelection::new(eps(1.0), 20).unwrap();
    let k = ss.subset_size();
    assert!((2..19).contains(&k), "k = {k}");
    streams.push(Stream {
        tenant: TenantId::new("gamma").unwrap(),
        mechanism: Arc::new(ss),
        inputs: Vec::new(),
    });
    let server = ReportServer::start(
        Arc::clone(&streams[0].mechanism) as Arc<dyn Mechanism>,
        tenanted_builder(&streams).build().unwrap(),
    )
    .unwrap();

    let bits = |slots: usize| ReportData::Bits(PackedBits::from_slots(&vec![1; slots]).unwrap());
    let ReportShape::Hashed { range } = streams[2].mechanism.report_shape() else {
        panic!("beta is the OLH tenant")
    };
    let set = |items: &[usize]| ReportData::ItemSet(items.to_vec());
    let valid_set: Vec<usize> = (0..k).collect();
    let mut repeated = valid_set.clone();
    repeated[k - 1] = repeated[0];
    let mut outside = valid_set.clone();
    outside[1] = 20;
    let hashed = |value: usize| ReportData::Hashed { seed: 9, value };
    // (stream, valid report, frame with one bad report, its index, what
    // the refusal says)
    let cases: Vec<(usize, ReportData, Vec<ReportData>, usize, &str)> = vec![
        (
            0,
            bits(20),
            vec![bits(20), bits(19), bits(20)],
            1,
            "expected length 20, got 19",
        ),
        (
            1,
            ReportData::Value(3),
            vec![
                ReportData::Value(3),
                ReportData::Value(7),
                ReportData::Value(24),
            ],
            2,
            "categorical report value index 24 out of range",
        ),
        (
            2,
            hashed(0),
            vec![hashed(range), hashed(0)],
            0,
            "hashed report value",
        ),
        (
            3,
            set(&valid_set),
            vec![set(&valid_set), set(&(0..=k).collect::<Vec<_>>())],
            1,
            "cardinality",
        ),
        (
            3,
            set(&valid_set),
            vec![set(&valid_set), set(&repeated)],
            1,
            "repeats item 0",
        ),
        (
            3,
            set(&valid_set),
            vec![set(&outside), set(&valid_set)],
            0,
            "item-set report member index 20",
        ),
    ];
    for (stream, valid, frame, index, says) in cases {
        let stream = &streams[stream];
        let (mut client, _) = stream.connect(&server);
        let before = client.query_estimates().unwrap().0;
        match client.push(&frame) {
            Err(ClientError::Rejected { accepted, message }) => {
                assert_eq!(accepted, 0, "{}: {message}", stream.tenant);
                assert!(
                    message.starts_with(&format!("report {index}: ")),
                    "{}: {message}",
                    stream.tenant
                );
                assert!(message.contains(says), "{}: {message}", stream.tenant);
            }
            other => panic!("{}: a bad report drew {other:?}", stream.tenant),
        }
        assert_eq!(
            client.query_estimates().unwrap().0,
            before,
            "{}: a refused frame counts no user",
            stream.tenant
        );
        assert_eq!(
            client.push(&[valid.clone(), valid]).unwrap(),
            PushOutcome::Ingested
        );
        assert_eq!(
            client.query_estimates().unwrap().0,
            before + 2,
            "{}",
            stream.tenant
        );
    }
    assert_eq!(server.fold_failures(), 0);
    server.shutdown();
}

#[test]
fn a_busy_tenant_does_not_starve_another() {
    let streams = three_streams();
    let capacity = 64;
    let (default_want_users, default_want) = streams[0].batch();
    let (alpha_want_users, alpha_want) = streams[1].batch();

    let mut builder = ServerConfig::builder();
    builder = builder.tenant(
        TenantConfig::new(
            streams[1].tenant.clone(),
            Arc::clone(&streams[1].mechanism) as Arc<dyn Mechanism>,
        )
        .with_queue_capacity(capacity),
    );
    let server = ReportServer::start(
        Arc::clone(&streams[0].mechanism) as Arc<dyn Mechanism>,
        builder.build().unwrap(),
    )
    .unwrap();

    let (mut default_client, _) = streams[0].connect(&server);
    let (mut alpha_client, _) = streams[1].connect(&server);
    alpha_client = alpha_client.with_retry_backoff(std::time::Duration::from_millis(1));

    // Freeze folding on every tenant: accepted reports pile up in the
    // per-tenant bounded queues.
    server.pause_ingest();
    let alpha_chunks = streams[1].wire_chunks();
    let oversized: Vec<ReportData> = alpha_chunks
        .iter()
        .flatten()
        .take(capacity + 40)
        .cloned()
        .collect();
    match alpha_client.push(&oversized).unwrap() {
        PushOutcome::Busy { accepted } => assert_eq!(
            accepted, capacity as u64,
            "alpha accepts exactly its own queue capacity"
        ),
        PushOutcome::Ingested => panic!("alpha's full queue must answer Busy"),
    }

    // Alpha is wedged; the default tenant's (default-capacity) queue
    // still accepts the same burst outright.
    let default_chunks = streams[0].wire_chunks();
    let burst: Vec<ReportData> = default_chunks
        .iter()
        .flatten()
        .take(capacity + 40)
        .cloned()
        .collect();
    match default_client.push(&burst).unwrap() {
        PushOutcome::Ingested => {}
        PushOutcome::Busy { .. } => {
            panic!("alpha's backpressure leaked into the default tenant")
        }
    }

    // Resume folding; both tenants finish their populations and land
    // exactly on their own batch answers.
    server.resume_ingest();
    let alpha_all: Vec<ReportData> = alpha_chunks.into_iter().flatten().collect();
    alpha_client.push_all(&alpha_all[capacity..]).unwrap();
    let default_all: Vec<ReportData> = default_chunks.into_iter().flatten().collect();
    default_client
        .push_all(&default_all[burst.len()..])
        .unwrap();

    let (users, estimates) = alpha_client.query_estimates().unwrap();
    assert_eq!(users, alpha_want_users, "alpha dropped nothing");
    assert_bit_identical("busy-alpha", &estimates, &alpha_want);
    let (users, estimates) = default_client.query_estimates().unwrap();
    assert_eq!(users, default_want_users, "default dropped nothing");
    assert_bit_identical("busy-default", &estimates, &default_want);
    assert_eq!(server.fold_failures(), 0);
    server.shutdown();
}

/// Checkpoints are tenant-namespaced and restore independently: each
/// tenant checkpoints half its stream at its own path (the default
/// tenant at the configured path, every other at the `.tenant-<name>`
/// sibling), a restarted server restores every tenant's own count, and
/// resumed pushes land bit-identical to the uninterrupted batch runs.
#[test]
fn per_tenant_checkpoints_restore_independently() {
    let streams = three_streams();
    let reference: Vec<(u64, Vec<f64>)> = streams.iter().map(Stream::batch).collect();

    let dir = std::env::temp_dir().join(format!("idldp-tenant-loopback-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("serve.ckpt");
    let config = || {
        tenanted_builder(&streams)
            .checkpoint_path(ckpt.clone())
            .build()
            .unwrap()
    };

    // First life: half of every tenant's stream, then one checkpoint
    // frame per tenant.
    let server = ReportServer::start(
        Arc::clone(&streams[0].mechanism) as Arc<dyn Mechanism>,
        config(),
    )
    .unwrap();
    let mut halves = Vec::new();
    for stream in &streams {
        let (mut client, resumed) = stream.connect(&server);
        assert_eq!(resumed, 0, "{}", stream.tenant);
        let chunks = stream.wire_chunks();
        let half = chunks.len() / 2;
        for chunk in &chunks[..half] {
            client.push_all(chunk).unwrap();
        }
        let covered = client.checkpoint().unwrap();
        assert_eq!(covered, (half * CHUNK) as u64, "{}", stream.tenant);
        halves.push((chunks, half));
    }
    server.shutdown();

    // Every tenant persisted to its own file: the default tenant at
    // the exact configured path, the named tenants at sibling paths.
    assert!(ckpt.exists(), "default tenant checkpoint");
    for stream in &streams[1..] {
        let sibling = dir.join(format!("serve.ckpt.tenant-{}", stream.tenant));
        assert!(
            sibling.exists(),
            "{}: tenant-namespaced checkpoint at {sibling:?}",
            stream.tenant
        );
    }

    // Second life: every tenant resumes from its own count and its
    // tail push converges to the uninterrupted batch answer.
    let server = ReportServer::start(
        Arc::clone(&streams[0].mechanism) as Arc<dyn Mechanism>,
        config(),
    )
    .unwrap();
    for (stream, ((chunks, half), (want_users, want))) in
        streams.iter().zip(halves.iter().zip(&reference))
    {
        let name = stream.tenant.to_string();
        let (mut client, resumed) = stream.connect(&server);
        assert_eq!(
            resumed,
            (half * CHUNK) as u64,
            "{name}: HelloAck reports this tenant's restored users"
        );
        for chunk in &chunks[*half..] {
            client.push_all(chunk).unwrap();
        }
        let (users, estimates) = client.query_estimates().unwrap();
        assert_eq!(users, *want_users, "{name}");
        assert_bit_identical(&format!("checkpoint-restart/{name}"), &estimates, want);
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
