//! The report server: TCP listener, readiness event loops, bounded ingest
//! queue, sharded accumulation, and snapshot queries.
//!
//! ```text
//! listener ──(loop 0 accepts, deals sockets round-robin)──▶
//!   event loops ──(admit: checked bytes; bounded queue full ⇒ typed Busy reply)──▶
//!     ingest workers ──(fold from the bytes)──▶ ShardedAccumulator ──(snapshot)──▶ oracle
//! ```
//!
//! Connections are served by the readiness reactor (`reactor.rs`):
//! [`ServerConfigBuilder::connection_workers`] event loops multiplex every
//! socket, so an idle peer costs a registration, not a thread. Backpressure
//! has one explicit point: a full ingest queue makes the event loop answer
//! [`Busy`](crate::frame::Frame::Busy) with the count of reports it *did*
//! accept — the client re-sends the rest. An accepted report is never
//! dropped: it is either folded or the server was shut down.
//!
//! Queries linearize after ingestion: `Query`/`TopKQuery`/`Checkpoint`
//! are answered only once the fold side reaches the accept watermark taken
//! when the request arrived ([`crate::queue::BatchQueue::poll_processed`]),
//! so the reply reflects every report any client had pushed by then. That
//! is what makes loopback estimates *bit-identical* to a batch pipeline
//! run — `crates/sim/tests/server_loopback.rs` proves it for all eight
//! mechanisms.

use crate::conn::Backend;
use crate::queue::BatchQueue;
use idldp_core::identity::{RunIdentity, TenantId};
use idldp_core::mechanism::Mechanism;
use idldp_core::report::{CheckedReports, ReportShape};
use idldp_core::snapshot::{open_store, AccumulatorSnapshot, SnapshotStore, StoreKind};
use idldp_stream::{ShapedAccumulator, ShardedAccumulator};
use polling::Poller;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server construction/runtime errors.
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure (bind, accept setup).
    Io(std::io::Error),
    /// The configured checkpoint exists but cannot back this server
    /// (parse failure, width mismatch, or a different run stamp).
    Checkpoint(String),
    /// The mechanism cannot be served over this wire protocol (a
    /// bit-vector report wider than
    /// [`crate::frame::MAX_BIT_REPORT_SLOTS`] — every report would be
    /// undecodable, so startup refuses instead of rejecting per frame).
    Config(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o: {e}"),
            ServerError::Checkpoint(detail) => write!(f, "server checkpoint: {detail}"),
            ServerError::Config(detail) => write!(f, "server config: {detail}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// One additional tenant (stream) a [`ReportServer`] hosts alongside the
/// default tenant. Each tenant is a fully independent accumulation
/// stream: its own mechanism, its own `ShardedAccumulator`, its own
/// bounded ingest queue (so one hot tenant's `Busy` backpressure cannot
/// starve another), and — when checkpointing is configured — its own
/// tenant-namespaced checkpoint with independent restore.
#[derive(Clone)]
pub struct TenantConfig {
    pub(crate) id: TenantId,
    pub(crate) mechanism: Arc<dyn Mechanism>,
    pub(crate) config_stamp: Option<String>,
    pub(crate) queue_capacity: Option<usize>,
}

impl TenantConfig {
    /// A tenant named `id` served by `mechanism`, with the server-wide
    /// queue capacity and no config stamp.
    pub fn new(id: TenantId, mechanism: Arc<dyn Mechanism>) -> Self {
        Self {
            id,
            mechanism,
            config_stamp: None,
            queue_capacity: None,
        }
    }

    /// Stamps this tenant's run identity with extra free-form config text
    /// (the CLI stamps `mechanism=… m=… eps=… seed=…`), refusing
    /// checkpoint restores under different construction parameters.
    #[must_use]
    pub fn with_config_stamp(mut self, stamp: impl Into<String>) -> Self {
        self.config_stamp = Some(stamp.into());
        self
    }

    /// Overrides the server-wide ingest-queue capacity for this tenant.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// The tenant's name.
    #[must_use]
    pub fn id(&self) -> &TenantId {
        &self.id
    }

    /// A one-line human summary (`name = kind (stamp)`) for startup
    /// banners.
    #[must_use]
    pub fn summary_line(&self) -> String {
        match &self.config_stamp {
            Some(stamp) => format!("{} = {} ({stamp})", self.id, self.mechanism.kind()),
            None => format!("{} = {}", self.id, self.mechanism.kind()),
        }
    }
}

impl std::fmt::Debug for TenantConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantConfig")
            .field("id", &self.id)
            .field("kind", &self.mechanism.kind())
            .field("config_stamp", &self.config_stamp)
            .field("queue_capacity", &self.queue_capacity)
            .finish()
    }
}

/// Tunables of a [`ReportServer`], built through
/// [`ServerConfig::builder`] — the builder validates everything once at
/// [`ServerConfigBuilder::build`], so a `ServerConfig` value is always
/// internally consistent (positive worker counts, positive capacities,
/// distinct tenant names).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    pub(crate) addr: String,
    pub(crate) shards: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) ingest_workers: usize,
    pub(crate) connection_workers: usize,
    pub(crate) idle_timeout: Option<Duration>,
    pub(crate) checkpoint_path: Option<PathBuf>,
    pub(crate) checkpoint_store: StoreKind,
    pub(crate) config_stamp: Option<String>,
    pub(crate) tenants: Vec<TenantConfig>,
}

impl ServerConfig {
    /// Starts a builder populated with the validated defaults: loopback
    /// ephemeral bind, [`idldp_stream::DEFAULT_SHARDS`] shards, a 65 536
    /// report queue, 2 ingest workers, 4 event loops, a 60 s idle
    /// timeout, no checkpointing, and no extra tenants.
    #[must_use]
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            shards: idldp_stream::DEFAULT_SHARDS,
            queue_capacity: 65_536,
            ingest_workers: 2,
            connection_workers: 4,
            idle_timeout: Some(Duration::from_secs(60)),
            checkpoint_path: None,
            checkpoint_store: StoreKind::default(),
            config_stamp: None,
            tenants: Vec::new(),
        }
    }
}

/// Builder for [`ServerConfig`]. Every setter is chainable;
/// [`ServerConfigBuilder::build`] validates the whole configuration and
/// returns a typed [`ServerError::Config`] instead of letting a zero
/// worker count or a duplicate tenant name reach the server.
#[derive(Clone, Debug)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Bind address; port `0` picks an ephemeral port (read it back from
    /// [`ReportServer::local_addr`]).
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Accumulator shards per tenant (see
    /// [`idldp_stream::ShardedAccumulator`]).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Per-tenant ingest-queue capacity — the backpressure bound.
    /// Accepted-but-unfolded reports of one tenant never exceed this, and
    /// the bound is accounted per tenant: a hot tenant filling its queue
    /// draws `Busy` on its own connections without consuming another
    /// tenant's admission capacity.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Fold workers draining each tenant's ingest queue.
    #[must_use]
    pub fn ingest_workers(mut self, workers: usize) -> Self {
        self.config.ingest_workers = workers;
        self
    }

    /// Event loops serving connections; each multiplexes any number of
    /// them.
    #[must_use]
    pub fn connection_workers(mut self, workers: usize) -> Self {
        self.config.connection_workers = workers;
        self
    }

    /// Reap a connection that completes no frame for this long — a silent
    /// peer must not pin a registration forever. `None` disables reaping.
    #[must_use]
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.config.idle_timeout = timeout;
        self
    }

    /// Checkpoint path: restored (if present) at startup, written durably
    /// on every `Checkpoint` control frame — through the [`SnapshotStore`]
    /// backend selected by [`ServerConfigBuilder::checkpoint_store`]. The
    /// default tenant checkpoints at this exact path; every other tenant
    /// at the tenant-namespaced sibling `<path>.tenant-<name>`, restored
    /// independently.
    #[must_use]
    pub fn checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.checkpoint_path = Some(path.into());
        self
    }

    /// Which [`SnapshotStore`] backend persists checkpoints: `file`
    /// (single atomic rewrite) or `delta` (append-only delta log,
    /// O(traffic) per checkpoint). Either backend transparently restores
    /// a checkpoint written by the plain file format.
    #[must_use]
    pub fn checkpoint_store(mut self, store: StoreKind) -> Self {
        self.config.checkpoint_store = store;
        self
    }

    /// Extra run-identity text stamped into the *default* tenant's
    /// checkpoints and `HelloAck` alongside the mechanism's
    /// kind/shape/width/ε. Embedders put everything that went into
    /// constructing the mechanism here (the CLI stamps `mechanism=… m=…
    /// eps=… seed=…`), so a restart under different parameters refuses
    /// the old counts instead of silently restoring a population
    /// perturbed under a different configuration. Additional tenants
    /// stamp via [`TenantConfig::with_config_stamp`].
    #[must_use]
    pub fn config_stamp(mut self, stamp: impl Into<String>) -> Self {
        self.config.config_stamp = Some(stamp.into());
        self
    }

    /// Adds a tenant (stream) alongside the default tenant, which is
    /// always present and served by the mechanism passed to
    /// [`ReportServer::start`]. The `Hello` selects a tenant by name; a
    /// client that names none lands on the default tenant.
    #[must_use]
    pub fn tenant(mut self, tenant: TenantConfig) -> Self {
        self.config.tenants.push(tenant);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// [`ServerError::Config`] when `shards`, `queue_capacity`,
    /// `ingest_workers`, or `connection_workers` is zero, when a
    /// per-tenant queue capacity is zero, or when two tenants (including
    /// the implicit default) share a name.
    pub fn build(self) -> Result<ServerConfig, ServerError> {
        let config = self.config;
        for (what, value) in [
            ("shards", config.shards),
            ("queue_capacity", config.queue_capacity),
            ("ingest_workers", config.ingest_workers),
            ("connection_workers", config.connection_workers),
        ] {
            if value == 0 {
                return Err(ServerError::Config(format!("{what} must be positive")));
            }
        }
        let mut seen = vec![TenantId::default_tenant()];
        for tenant in &config.tenants {
            if seen.contains(&tenant.id) {
                return Err(ServerError::Config(format!(
                    "duplicate tenant `{}` (the default tenant is always present)",
                    tenant.id
                )));
            }
            if tenant.queue_capacity == Some(0) {
                return Err(ServerError::Config(format!(
                    "tenant `{}`: queue_capacity must be positive",
                    tenant.id
                )));
            }
            seen.push(tenant.id.clone());
        }
        Ok(config)
    }
}

/// One tenant's live server-side state: everything that accumulates or
/// persists reports is per tenant, so streams cannot contaminate each
/// other — not through the fold, not through backpressure, and not
/// through a checkpoint.
pub(crate) struct Tenant {
    pub(crate) id: TenantId,
    pub(crate) mechanism: Arc<dyn Mechanism>,
    pub(crate) sink: ShardedAccumulator<ShapedAccumulator>,
    /// This tenant's bounded ingest queue — per-tenant capacity
    /// accounting, so a hot tenant's `Busy` cannot starve another
    /// tenant's admissions, and per-tenant watermarks, so queries
    /// linearize against their own stream only. It holds the admitted
    /// frames' checked bytes; capacity is counted in reports.
    pub(crate) queue: BatchQueue<CheckedReports>,
    /// Users restored from the checkpoint at start. Plus the queue's
    /// accept watermark, the users this tenant holds, folded or queued.
    pub(crate) restored: u64,
    /// This tenant's parsed run identity (sent in `HelloAck`, stamped
    /// into checkpoints).
    pub(crate) identity: RunIdentity,
    /// Reports that failed to fold after acceptance (cannot happen: a
    /// batch is checked against this tenant's shape and width at
    /// admission, and the fold only confirms that; counted defensively).
    fold_failures: AtomicU64,
    /// The open checkpoint store, if checkpointing is configured — at the
    /// tenant-namespaced path. The mutex serializes concurrent
    /// `Checkpoint` frames: the delta backend appends relative to the
    /// snapshot it saved last, so saves must not interleave.
    pub(crate) store: Option<Mutex<Box<dyn SnapshotStore>>>,
}

impl Tenant {
    /// The run-identity stamp appended to this tenant's checkpoints and
    /// sent in its `HelloAck`, refusing restores into a differently
    /// configured stream.
    pub(crate) fn run_line(&self) -> String {
        self.identity.to_string()
    }

    /// Counts a batch that failed to fold after acceptance.
    pub(crate) fn count_fold_failures(&self, reports: u64) {
        self.fold_failures.fetch_add(reports, Ordering::SeqCst);
    }
}

/// The tenant registry: the collector's [`crate::Backend`], shared by the
/// event loops and the ingest workers.
pub(crate) struct Registry {
    /// Index 0 is always the default tenant (the mechanism passed to
    /// [`ReportServer::start`]); a connection binds to exactly one tenant
    /// at handshake time and carries its index for the rest of its life.
    pub(crate) tenants: Vec<Tenant>,
}

impl Registry {
    /// The tenant a connection bound to at handshake time.
    pub(crate) fn tenant(&self, index: usize) -> &Tenant {
        &self.tenants[index]
    }

    /// Resolves a `Hello`'s tenant name to a registry index. The empty
    /// name (a client that names no tenant) maps to the default tenant.
    ///
    /// # Errors
    /// A client-visible reject message naming the unknown tenant and the
    /// streams this server does host.
    pub(crate) fn resolve_tenant(&self, name: &str) -> Result<usize, String> {
        if name.is_empty() {
            return Ok(0);
        }
        self.tenants
            .iter()
            .position(|t| t.id.as_str() == name)
            .ok_or_else(|| {
                let hosted: Vec<&str> = self.tenants.iter().map(|t| t.id.as_str()).collect();
                format!(
                    "unknown tenant `{name}` (this server hosts: {})",
                    hosted.join(", ")
                )
            })
    }
}

/// The run-identity stamp, computable before the internal shared state exists
/// (startup restores the checkpoint against it prior to spawning
/// anything). Public because it is also the fleet-identity contract: the
/// server sends this exact line in its `HelloAck`, and a coordinator
/// computes its *expected* line through this same function to refuse
/// collectors running a different mechanism/m/ε/seed config. A thin
/// wrapper over [`RunIdentity::for_mechanism`] — the one typed builder
/// every tier shares, so the identity format can never drift between the
/// server, the coordinator, and the checkpoint stores.
pub fn run_identity_line(mechanism: &dyn Mechanism, config_stamp: Option<&str>) -> String {
    RunIdentity::for_mechanism(RunIdentity::PRODUCER_SERVE, mechanism, config_stamp).to_string()
}

/// A running ingestion service. Dropping the handle leaks the threads;
/// call [`ReportServer::shutdown`] for an orderly stop.
pub struct ReportServer {
    addr: SocketAddr,
    shared: Arc<Registry>,
    /// The ingest workers.
    workers: Vec<JoinHandle<()>>,
    loops: EventLoops,
}

impl ReportServer {
    /// Binds, restores every tenant's checkpoint if one exists, and
    /// spawns the event-loop and ingest-worker threads.
    /// `mechanism` serves the default tenant; additional tenants come
    /// from [`ServerConfigBuilder::tenant`].
    ///
    /// # Errors
    /// Bind failures, unusable checkpoints, invalid configurations
    /// (builder-validated fields re-checked here, so a hand-rolled
    /// `Default` config is held to the same rules), and a
    /// [`ServerError::Config`] for a bit-vector mechanism wider than the
    /// wire protocol's [`crate::frame::MAX_BIT_REPORT_SLOTS`] (every
    /// report would be undecodable — fail at startup, not per frame). A
    /// host without a unix readiness backend is a [`ServerError::Io`].
    pub fn start(mechanism: Arc<dyn Mechanism>, config: ServerConfig) -> Result<Self, ServerError> {
        // Re-validate: `Default` and `Clone` can produce a config without
        // going through the builder.
        let config = ServerConfigBuilder { config }.build()?;

        let mut tenants = Vec::with_capacity(1 + config.tenants.len());
        tenants.push(Self::start_tenant(
            TenantConfig {
                id: TenantId::default_tenant(),
                mechanism,
                config_stamp: config.config_stamp.clone(),
                queue_capacity: None,
            },
            &config,
        )?);
        for tenant in &config.tenants {
            tenants.push(Self::start_tenant(tenant.clone(), &config)?);
        }

        let shared = Arc::new(Registry { tenants });

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        // The event loops start first, so a host without a readiness
        // backend fails before any thread exists.
        let loops = EventLoops::spawn(listener, Arc::clone(&shared), &config)?;

        // Fold workers are per tenant: each tenant's queue drains
        // independently, so a paused or saturated tenant cannot stall
        // another tenant's fold pipeline.
        let mut workers = Vec::new();
        for tenant_index in 0..shared.tenants.len() {
            for _ in 0..config.ingest_workers {
                let shared = Arc::clone(&shared);
                workers.push(std::thread::spawn(move || {
                    ingest_worker(&shared, tenant_index)
                }));
            }
        }

        Ok(Self {
            addr,
            shared,
            workers,
            loops,
        })
    }

    /// Builds one tenant's live state: accumulator, bounded queue, run
    /// identity, and — when checkpointing is configured — the open store
    /// at the tenant-namespaced path, with the existing checkpoint (if
    /// any) restored and identity-checked.
    fn start_tenant(tenant: TenantConfig, config: &ServerConfig) -> Result<Tenant, ServerError> {
        let TenantConfig {
            id,
            mechanism,
            config_stamp,
            queue_capacity,
        } = tenant;
        if matches!(mechanism.report_shape(), ReportShape::Bits)
            && mechanism.report_len() > crate::frame::MAX_BIT_REPORT_SLOTS
        {
            return Err(ServerError::Config(format!(
                "tenant `{id}`: bit-vector mechanism width {} exceeds the wire cap of {} slots",
                mechanism.report_len(),
                crate::frame::MAX_BIT_REPORT_SLOTS
            )));
        }
        let identity = RunIdentity::for_mechanism(
            RunIdentity::PRODUCER_SERVE,
            mechanism.as_ref(),
            config_stamp.as_deref(),
        );
        let sink = ShardedAccumulator::new(
            ShapedAccumulator::for_mechanism(mechanism.as_ref()),
            config.shards,
        );

        // Restore-at-start goes through the configured store backend; the
        // store stays open in the tenant to serve `Checkpoint` frames. Any
        // backend accepts a v1 flat checkpoint here (migration on read),
        // so switching `--checkpoint-store` across restarts is safe.
        let store = match &config.checkpoint_path {
            Some(base) => {
                let path = tenant_checkpoint_path(base, &id);
                let mut store = open_store(config.checkpoint_store, path.clone());
                let want = identity.to_string();
                match store.load() {
                    Ok(Some(restored)) => {
                        match restored.run_line() {
                            Some(line) if line == want => {}
                            Some(line) => {
                                return Err(ServerError::Checkpoint(format!(
                                    "{}: stamped `{line}`, this server is `{want}`",
                                    path.display()
                                )))
                            }
                            None => {
                                return Err(ServerError::Checkpoint(format!(
                                    "{}: missing run-identity line",
                                    path.display()
                                )))
                            }
                        }
                        sink.restore(restored.into_snapshot()).map_err(|e| {
                            ServerError::Checkpoint(format!("{}: {e}", path.display()))
                        })?;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        return Err(ServerError::Checkpoint(format!("{}: {e}", path.display())))
                    }
                }
                Some(Mutex::new(store))
            }
            None => None,
        };

        Ok(Tenant {
            id,
            mechanism,
            restored: sink.num_users(),
            sink,
            queue: BatchQueue::new(queue_capacity.unwrap_or(config.queue_capacity)),
            identity,
            fold_failures: AtomicU64::new(0),
            store,
        })
    }

    /// The bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Users folded into the *default* tenant's accumulator so far.
    pub fn num_users(&self) -> u64 {
        self.shared.tenants[0].sink.num_users()
    }

    /// Users folded into the named tenant's accumulator so far.
    ///
    /// # Errors
    /// The same unknown-tenant message a wire client would see in its
    /// `Reject`.
    pub fn num_users_for(&self, tenant: &TenantId) -> Result<u64, String> {
        let index = self.shared.resolve_tenant(tenant.as_str())?;
        Ok(self.shared.tenants[index].sink.num_users())
    }

    /// Every tenant this server hosts, default tenant first.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.shared.tenants.iter().map(|t| t.id.clone()).collect()
    }

    /// Accepted reports that failed to fold, summed across tenants (always
    /// `0` unless a validator / accumulator disagreement is introduced —
    /// monitored by tests).
    pub fn fold_failures(&self) -> u64 {
        self.shared
            .tenants
            .iter()
            .map(|t| t.fold_failures.load(Ordering::SeqCst))
            .sum()
    }

    /// Connections reaped for completing no frame within the configured
    /// [`ServerConfigBuilder::idle_timeout`] — silent peers and slow-loris drips
    /// alike.
    pub fn reaped_connections(&self) -> u64 {
        self.loops.state.reaped.load(Ordering::SeqCst)
    }

    /// High-water mark of any single connection's buffered frame bytes.
    /// Bounded by what a peer has actually transmitted of its current
    /// frame (never its claimed length prefix) — the incremental-read
    /// memory bound the hostile-peer stress test asserts.
    pub fn peak_buffered_bytes(&self) -> usize {
        self.loops.state.peak_buffered.load(Ordering::Relaxed)
    }

    /// Freezes the *default* tenant's merged accumulator view after
    /// draining its queue (or the current view as-is when draining cannot
    /// complete — paused ingest or shutdown). For tests and embedders;
    /// remote callers use the `Query` frame.
    pub fn snapshot(&self) -> AccumulatorSnapshot {
        let tenant = &self.shared.tenants[0];
        tenant.queue.wait_processed(tenant.queue.watermark());
        tenant.sink.snapshot()
    }

    /// Pauses folding on every tenant: accepted reports stay queued, so
    /// the bounded queues fill and further pushes draw `Busy` —
    /// deterministic backpressure for tests and maintenance windows.
    /// Queries whose watermark needs still-queued reports answer with a
    /// typed `Reject` while paused (holding them would pin their
    /// connections until resume).
    pub fn pause_ingest(&self) {
        for tenant in &self.shared.tenants {
            tenant.queue.set_paused(true);
        }
    }

    /// Resumes folding after [`Self::pause_ingest`].
    pub fn resume_ingest(&self) {
        for tenant in &self.shared.tenants {
            tenant.queue.set_paused(false);
        }
    }

    /// Orderly stop: refuse new work, stop the event loops (each closes
    /// its connections), and join all threads. In-queue (accepted but
    /// unfolded) reports at this instant are discarded — clients that need
    /// durability send a `Checkpoint` frame first.
    pub fn shutdown(self) {
        for tenant in &self.shared.tenants {
            tenant.queue.close();
        }
        self.loops.shutdown();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// The readiness event loops (`reactor.rs`) serving one listener for one
/// [`crate::Backend`] — the collector's tenant registry or the coordinator
/// frontend. Owns the loops' threads and their own state: the stop flag
/// and the reaping and buffering counters.
pub struct EventLoops {
    pub(crate) state: Arc<LoopState>,
    /// One poller per event loop, notified on shutdown so the loops
    /// observe the stop flag.
    pub(crate) pollers: Vec<Arc<Poller>>,
    pub(crate) threads: Vec<JoinHandle<()>>,
}

/// What the event loops themselves track, apart from any backend.
#[derive(Default)]
pub(crate) struct LoopState {
    pub(crate) stop: AtomicBool,
    /// Connections reaped for idling past the configured timeout.
    pub(crate) reaped: AtomicU64,
    /// High-water mark of any one connection's buffered frame bytes — the
    /// incremental-read memory bound the hostile-peer stress test pins.
    pub(crate) peak_buffered: AtomicUsize,
}

impl EventLoops {
    /// Starts `config`'s [`ServerConfigBuilder::connection_workers`] event
    /// loops serving `listener` for `backend`, reaping connections idle
    /// past its [`ServerConfigBuilder::idle_timeout`]. The listener is
    /// switched to non-blocking and owned by loop 0.
    ///
    /// # Errors
    /// Poller construction failure, or a host without a unix readiness
    /// backend (epoll or poll).
    pub fn spawn<B: Backend>(
        listener: TcpListener,
        backend: Arc<B>,
        config: &ServerConfig,
    ) -> std::io::Result<Self> {
        #[cfg(not(unix))]
        {
            let _ = (listener, backend, config);
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "event loops require a unix readiness backend (epoll or poll)",
            ))
        }
        #[cfg(unix)]
        crate::reactor::spawn(
            listener,
            backend,
            config.connection_workers,
            config.idle_timeout,
        )
    }

    /// Stops every loop — each closes its connections, live ones
    /// included — and joins them.
    pub fn shutdown(self) {
        self.state.stop.store(true, Ordering::SeqCst);
        for poller in &self.pollers {
            let _ = poller.notify();
        }
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Where a tenant's checkpoints live. The default tenant uses the
/// configured path verbatim — a single-tenant server checkpoints exactly
/// where every earlier protocol version did. A named tenant gets the
/// sibling `<path>.tenant-<name>` (tenant ids cannot contain separators,
/// so the name embeds verbatim), keeping all of one server's checkpoints
/// next to each other while every tenant restores independently.
pub(crate) fn tenant_checkpoint_path(base: &Path, id: &TenantId) -> PathBuf {
    if id.is_default() {
        return base.to_path_buf();
    }
    match base.file_name() {
        Some(name) => {
            let mut name = name.to_os_string();
            name.push(format!(".tenant-{id}"));
            base.with_file_name(name)
        }
        None => base.join(format!("tenant-{id}")),
    }
}

/// Drains one tenant's ingest queue into its sharded accumulator, one
/// whole batch (one admitted `Reports` frame, or its accepted prefix) per
/// pop: a frame costs one lock acquisition and one batched fold
/// ([`ShardedAccumulator::push_checked`]), read straight from the frame's
/// checked bytes — no report is rebuilt or checked again. The
/// [`crate::queue::BatchTicket`] from `pop` is handed back to
/// `mark_processed` so the queue's completion frontier stays contiguous
/// across workers — a query watermark is only satisfied once every
/// report below it is actually folded, not merely an equal *count* of
/// later ones.
fn ingest_worker(shared: &Registry, tenant_index: usize) {
    let tenant = shared.tenant(tenant_index);
    while let Some((ticket, batch)) = tenant.queue.pop() {
        if tenant.sink.push_checked(&batch).is_err() {
            // Cannot happen: admission checked the batch against this
            // tenant's shape and width, which is all the fold confirms;
            // counted defensively, batch-atomically.
            tenant.count_fold_failures(batch.len() as u64);
        }
        tenant.queue.mark_processed(ticket);
    }
}
