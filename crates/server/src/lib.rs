//! # `idldp-server` — the networked ingestion service
//!
//! Everything below this crate treats a report stream as an in-process
//! iterator; this crate puts the reports on an actual socket, completing
//! the paper's client→server pipeline as a deployable service (the way
//! RAPPOR-style collectors are structured):
//!
//! * [`frame`] — the length-prefixed binary frame codec shared by both
//!   sides: the three compact report wire shapes
//!   ([`idldp_core::report::ReportData`] — packed bit vectors, categorical
//!   values, hashed `(seed, value)` pairs, item sets) plus the control
//!   frames (`Hello` mechanism-config handshake, `Query`, `TopKQuery`,
//!   `Checkpoint`) and their typed replies. Decoding is total: arbitrary
//!   bytes either parse or yield a typed [`FrameError`], never a panic.
//! * [`queue`] — the bounded [`IngestQueue`] between the event loops and
//!   the fold workers: the backpressure point (full ⇒ typed `Busy` reply,
//!   never a silent drop) and the drain watermark that linearizes queries
//!   after ingestion.
//! * [`server`] — [`ReportServer`]: ingest workers folding into an
//!   [`idldp_stream::ShardedAccumulator`], snapshot/estimate/top-k queries
//!   served over the same socket, atomic checkpoint persistence, and a
//!   readiness reactor multiplexing all connections onto a fixed set of
//!   event loops (epoll on Linux, poll(2) on other unix hosts). The
//!   per-connection protocol is a transport-free module the reactor
//!   drives.
//! * [`client`] — [`ReportClient`]: connect + handshake, batched pushes
//!   with `Busy`-absorbing retry, and the query calls. Backs the `idldp
//!   push` CLI.
//!
//! The load-bearing property, proven by
//! `crates/sim/tests/server_loopback.rs` for all eight mechanisms:
//! estimates obtained over TCP (client → frames → server → snapshot →
//! oracle) are **bit-identical** to a batch `SimulationPipeline` run of
//! the same `(mechanism, inputs, seed)` — the transport adds latency, not
//! error — and a full ingest queue yields `Busy`, after which a retrying
//! client still converges to the exact same estimates.
//!
//! A server hosts one or more *tenants* — fully independent (mechanism,
//! ε) streams with per-tenant accumulators, ingest queues, and
//! checkpoints. The mechanism passed to [`ReportServer::start`] serves
//! the default tenant; [`server::TenantConfig`] adds more, and the
//! `Hello` selects one by name (an empty name selects the default).
//!
//! ```no_run
//! use idldp_core::budget::Epsilon;
//! use idldp_core::grr::GeneralizedRandomizedResponse;
//! use idldp_core::mechanism::{Input, Mechanism};
//! use idldp_server::{ReportClient, ReportServer, ServerConfig};
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mechanism: Arc<dyn Mechanism> =
//!     Arc::new(GeneralizedRandomizedResponse::new(Epsilon::new(1.0).unwrap(), 16).unwrap());
//! let config = ServerConfig::builder().build().unwrap();
//! let server = ReportServer::start(Arc::clone(&mechanism), config).unwrap();
//!
//! let (mut client, _resumed) =
//!     ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let reports: Vec<_> = (0..1000)
//!     .map(|i| mechanism.perturb_data(Input::Item(i % 16), &mut rng).unwrap())
//!     .collect();
//! client.push_all(&reports).unwrap();
//! let (users, estimates) = client.query_estimates().unwrap();
//! assert_eq!(users, 1000);
//! assert_eq!(estimates.len(), 16);
//! server.shutdown();
//! ```

#![deny(missing_docs)]

pub mod client;
mod conn;
pub mod frame;
pub mod queue;
#[cfg(unix)]
mod reactor;
pub mod server;

pub use client::{ClientError, PushOutcome, Query, Reply, ReportClient, MAX_STALLED_RETRIES};
pub use conn::{check_hello, encode_reply, hello_tenant};
pub use frame::{
    encode_reports_frame, encoded_report_len, estimates_reply_frames, snapshot_reply_frames, Frame,
    FrameAssembler, FrameError, CHUNK_ELEMS, MAX_BIT_REPORT_SLOTS, MAX_PAYLOAD_LEN,
    PROTOCOL_VERSION,
};
pub use queue::{IngestQueue, PushRefusal, WaitOutcome};
pub use server::{
    run_identity_line, ReportServer, ServerConfig, ServerConfigBuilder, ServerError, TenantConfig,
};
