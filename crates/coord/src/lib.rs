//! # `idldp-coord` — the multi-collector coordinator
//!
//! One `idldp-server` collector shards its accumulator *within* a
//! process; this crate shards the stream *across* N collector processes
//! and keeps every answer bit-identical to a single batch run. The whole
//! design leans on one law, proven by the stream-layer proptests: integer
//! report counts commute under any partition —
//! `AccumulatorSnapshot::merge` of per-collector counts equals the counts
//! of an unsharded run, exactly. Calibrated float estimates do *not*
//! commute, which dictates the architecture: route raw reports out,
//! fetch raw counts back, merge, and estimate **once** over the merged
//! vector.
//!
//! * [`Coordinator`] — the registration, routing, and merge engine.
//!   Registration connects a [`ReportClient`] to each collector and
//!   compares its `HelloAck` run-identity line against the line this
//!   coordinator's own config produces (a parsed
//!   [`idldp_core::identity::RunIdentity`]): a
//!   collector running a different mechanism, domain size, ε, or seed is
//!   refused at registration, not discovered as garbage estimates later.
//!   Routing sends each report frame to one collector (weighted
//!   round-robin); a `Busy` collector keeps its accepted prefix and the
//!   *remainder spills to the next collector* instead of burning a retry
//!   budget against the stuck one — total accepted stays a contiguous
//!   prefix of the frame, so the coordinator's own `Busy` replies obey
//!   the protocol contract and an upstream `push_all` converges. Queries
//!   fetch per-collector snapshots over [`Frame::SnapshotQuery`], merge
//!   them, and run the frequency oracle once; top-k ranks those merged
//!   estimates with the shared NaN-safe ordering, which equals batch
//!   `identify_top_k` exactly.
//! * [`CoordServer`] — the TCP frontend. It runs on the collector's own
//!   readiness event loops ([`idldp_server::EventLoops`]) behind the
//!   [`idldp_server::Backend`] trait, and speaks the *same* framed
//!   protocol (handshake validated by [`idldp_server::check_hello`]), so
//!   every existing client — `idldp push`, `ReportClient`, the loopback
//!   harness — works against a coordinator unchanged. Its loops are
//!   bounded, reap idle peers, and close live connections on shutdown.
//!
//! Failure rules (exactness over availability): a query is answered only
//! if **every** collector answers — one unreachable or paused collector
//! draws a typed `Reject`, never a silently partial estimate. Routing
//! keeps accepting while at least one collector has capacity; reports
//! are never dropped or double-sent (each spill forwards exactly the
//! unaccepted tail). Coordinated checkpoints fan a `Checkpoint` frame to
//! every collector and record the per-collector user counts as the
//! generation vector. A collector closes a connection idle past its idle
//! timeout, so before each exchange the coordinator checks its connection
//! and re-handshakes a closed one (same tenant, same run identity); a
//! connection that fails mid-exchange is never retried, because that
//! frame's fate is unknown.

#![deny(missing_docs)]

use idldp_core::identity::{RunIdentity, TenantId};
use idldp_core::mechanism::Mechanism;
use idldp_core::report::ReportData;
use idldp_core::snapshot::AccumulatorSnapshot;
use idldp_num::vecops::{cmp_desc_nan_last, top_k_indices};
use idldp_server::{
    check_hello, Backend, ClientError, EventLoops, Frame, FrameAction, PushOutcome, ReportClient,
    ServerConfig,
};
use std::convert::Infallible;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::Poll;

/// Coordinator-side failures.
#[derive(Debug)]
pub enum CoordError {
    /// A coordinator needs at least one collector (and positive weights).
    Config(String),
    /// A collector connection failed at the transport or protocol level.
    Collector {
        /// The collector's address.
        addr: String,
        /// What went wrong.
        detail: String,
    },
    /// A collector's run-identity line disagrees with the coordinator's
    /// config — a mixed fleet would merge meaningless counts.
    IdentityMismatch {
        /// The mismatched collector's address.
        addr: String,
        /// The line the collector announced.
        got: String,
        /// The line this coordinator's config produces.
        want: String,
    },
    /// A collector answered a typed `Reject`.
    Rejected {
        /// The rejecting collector's address.
        addr: String,
        /// Reports of the current frame accepted (anywhere) before the
        /// refusal.
        accepted: u64,
        /// The collector's reason.
        message: String,
    },
    /// Merging or estimating over the fetched snapshots failed.
    Merge(String),
    /// A reconnected collector announced fewer users than it is known to
    /// hold: it restarted empty or from an older checkpoint, losing
    /// acknowledged reports.
    UsersLost {
        /// The collector's address.
        addr: String,
        /// Users it held: restored at registration plus accepted since.
        held: u64,
        /// Users its `HelloAck` announced on reconnect.
        announced: u64,
    },
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Config(detail) => write!(f, "coordinator config: {detail}"),
            CoordError::Collector { addr, detail } => {
                write!(f, "collector {addr}: {detail}")
            }
            CoordError::IdentityMismatch { addr, got, want } => write!(
                f,
                "collector {addr} runs `{got}`, coordinator expects `{want}`"
            ),
            CoordError::Rejected {
                addr,
                accepted,
                message,
            } => write!(
                f,
                "collector {addr} rejected (accepted {accepted}): {message}"
            ),
            CoordError::Merge(detail) => write!(f, "merge: {detail}"),
            CoordError::UsersLost {
                addr,
                held,
                announced,
            } => write!(
                f,
                "collector {addr} announced {announced} users on reconnect but held \
                 {held}: it lost acknowledged reports"
            ),
        }
    }
}

impl std::error::Error for CoordError {}

/// Per-collector routing statistics, surfaced so saturation is
/// observable: which collector absorbed how much, how often it pushed
/// back, and how many reports had to spill *away* from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectorStats {
    /// The collector's address as registered.
    pub addr: String,
    /// Round-robin weight (consecutive frames per turn).
    pub weight: usize,
    /// Reports this collector accepted.
    pub accepted: u64,
    /// `Busy` replies this collector returned.
    pub busy_replies: u64,
    /// Reports that arrived here as spill from a busy collector.
    pub spilled_in: u64,
}

struct Collector {
    client: ReportClient,
    /// Users the collector held at registration.
    restored: u64,
    stats: CollectorStats,
}

/// The registration, routing, and merge engine. See the crate docs for
/// the design; [`CoordServer`] puts this behind a socket.
pub struct Coordinator {
    mechanism: Arc<dyn Mechanism>,
    /// The tenant every collector connection selects (`None`: default).
    tenant: Option<TenantId>,
    /// The run identity every collector must announce, and its line.
    identity: RunIdentity,
    run_line: String,
    collectors: Vec<Collector>,
    /// Weighted round-robin position: next collector index …
    cursor: usize,
    /// … and how many frames it has already taken this turn.
    cursor_spent: usize,
    /// Users absorbed: restored at registration + routed since.
    users: u64,
    /// Per-collector user counts of the last coordinated checkpoint.
    last_generation: Option<Vec<u64>>,
}

impl Coordinator {
    /// Connects to and registers every collector. `collectors` is a list
    /// of `(address, weight)` pairs; weight is the number of consecutive
    /// report frames the collector takes per round-robin turn (capacity
    /// proportioning — any split is exact, so weights only shape load).
    ///
    /// Each collector's `HelloAck` run-identity line must parse to the
    /// exact [`RunIdentity`] this coordinator's own
    /// `(mechanism, config_stamp)` produces — the stamp carries the
    /// CLI-level `mechanism=… m=… eps=… seed=…`, so a collector started
    /// under a different seed or ε is refused here. The comparison is the
    /// typed struct, not string bytes, so the check cannot drift from the
    /// format the server and the checkpoint stores share.
    ///
    /// Returns the coordinator and the total users already absorbed
    /// across the fleet (nonzero when collectors restored checkpoints).
    ///
    /// # Errors
    /// Empty fleet, zero weights, connection failures, or an identity
    /// mismatch.
    pub fn connect(
        mechanism: Arc<dyn Mechanism>,
        config_stamp: Option<&str>,
        collectors: &[(String, usize)],
    ) -> Result<(Self, u64), CoordError> {
        Self::connect_tenant(mechanism, config_stamp, collectors, None)
    }

    /// Like [`Self::connect`], but registers against the named tenant on
    /// every collector of a multi-tenant fleet (`None` is the default
    /// tenant). Each collector must host the tenant with exactly this
    /// coordinator's `(mechanism, config_stamp)` identity; a collector
    /// without the tenant, or hosting it under a different config, is
    /// refused at registration.
    ///
    /// # Errors
    /// Same conditions as [`Self::connect`], plus a typed
    /// [`CoordError::Collector`] when a collector rejects the tenant.
    pub fn connect_tenant(
        mechanism: Arc<dyn Mechanism>,
        config_stamp: Option<&str>,
        collectors: &[(String, usize)],
        tenant: Option<&TenantId>,
    ) -> Result<(Self, u64), CoordError> {
        if collectors.is_empty() {
            return Err(CoordError::Config("no collectors to register".into()));
        }
        if let Some((addr, _)) = collectors.iter().find(|(_, weight)| *weight == 0) {
            return Err(CoordError::Config(format!(
                "collector {addr} has weight 0 (weights must be positive)"
            )));
        }
        let want = RunIdentity::for_mechanism(
            RunIdentity::PRODUCER_SERVE,
            mechanism.as_ref(),
            config_stamp,
        );
        let mut registered = Vec::with_capacity(collectors.len());
        let mut users = 0u64;
        for (addr, weight) in collectors {
            let (client, restored) = handshake(addr, mechanism.as_ref(), tenant, &want)?;
            users += restored;
            registered.push(Collector {
                client,
                restored,
                stats: CollectorStats {
                    addr: addr.clone(),
                    weight: *weight,
                    accepted: 0,
                    busy_replies: 0,
                    spilled_in: 0,
                },
            });
        }
        Ok((
            Self {
                mechanism,
                tenant: tenant.cloned(),
                run_line: want.to_string(),
                identity: want,
                collectors: registered,
                cursor: 0,
                cursor_spent: 0,
                users,
                last_generation: None,
            },
            users,
        ))
    }

    /// The fleet's run-identity line (every collector announced exactly
    /// this line at registration).
    pub fn run_line(&self) -> &str {
        &self.run_line
    }

    /// Registered collector count.
    pub fn num_collectors(&self) -> usize {
        self.collectors.len()
    }

    /// Users absorbed across the fleet: restored at registration plus
    /// every report routed since.
    pub fn users(&self) -> u64 {
        self.users
    }

    /// Per-collector routing statistics, in registration order.
    pub fn stats(&self) -> Vec<CollectorStats> {
        self.collectors.iter().map(|c| c.stats.clone()).collect()
    }

    /// The per-collector user counts recorded by the last
    /// [`Self::checkpoint`] (registration order), if one completed.
    pub fn last_generation(&self) -> Option<&[u64]> {
        self.last_generation.as_deref()
    }

    /// Reconnects collector `idx` if it has closed its connection, as a
    /// collector does to a connection idle past its idle timeout. The
    /// fresh connection selects the same tenant and must announce the
    /// same run identity as at registration, and at least the users the
    /// collector is known to hold (restored at registration plus accepted
    /// since). Fewer means it restarted and lost acknowledged reports: a
    /// typed refusal, repeated on every later exchange, never a silent
    /// adoption. More is allowed — another writer may push to the
    /// collector directly. Only a connection whose last exchange
    /// completed is replaced, so no frame's fate is unknown and nothing is
    /// resent; a failure mid-exchange stays an error, as before.
    fn reconnect_if_closed(&mut self, idx: usize) -> Result<(), CoordError> {
        let collector = &mut self.collectors[idx];
        if collector.client.peer_closed() {
            let (client, announced) = handshake(
                &collector.stats.addr,
                self.mechanism.as_ref(),
                self.tenant.as_ref(),
                &self.identity,
            )?;
            let held = collector.restored + collector.stats.accepted;
            if announced < held {
                return Err(CoordError::UsersLost {
                    addr: collector.stats.addr.clone(),
                    held,
                    announced,
                });
            }
            collector.client = client;
        }
        Ok(())
    }

    /// Advances the weighted round-robin cursor and returns the collector
    /// index that takes the next frame.
    fn pick(&mut self) -> usize {
        let idx = self.cursor;
        self.cursor_spent += 1;
        if self.cursor_spent >= self.collectors[idx].stats.weight {
            self.cursor = (idx + 1) % self.collectors.len();
            self.cursor_spent = 0;
        }
        idx
    }

    /// Routes one report frame. The frame goes to the round-robin-chosen
    /// collector; on `Busy { accepted }` the accepted prefix stays and
    /// the remainder spills to the next collector, on through the fleet.
    /// One pass, one push attempt per collector — the upstream client
    /// owns retry pacing, exactly as it does against a single server.
    ///
    /// Returns `Ingested` when every report landed, `Busy { accepted }`
    /// with the contiguous accepted prefix when the whole fleet is
    /// saturated — protocol-identical to a single collector, so
    /// `ReportClient::push_all` converges against a coordinator unchanged.
    ///
    /// # Errors
    /// [`CoordError::Rejected`] when a collector refuses the batch
    /// (invalid reports — nothing from the refused remainder was queued
    /// anywhere), [`CoordError::Collector`] on transport failure.
    pub fn route(&mut self, reports: &[ReportData]) -> Result<PushOutcome, CoordError> {
        let fleet = self.collectors.len();
        let first = self.pick();
        let mut rest = reports;
        let mut accepted_total = 0u64;
        for hop in 0..fleet {
            if rest.is_empty() {
                break;
            }
            let idx = (first + hop) % fleet;
            if let Err(e) = self.reconnect_if_closed(idx) {
                self.users += accepted_total;
                return Err(e);
            }
            let collector = &mut self.collectors[idx];
            if hop > 0 {
                collector.stats.spilled_in += rest.len() as u64;
            }
            match collector.client.push(rest) {
                Ok(PushOutcome::Ingested) => {
                    collector.stats.accepted += rest.len() as u64;
                    accepted_total += rest.len() as u64;
                    rest = &[];
                }
                Ok(PushOutcome::Busy { accepted }) => {
                    collector.stats.busy_replies += 1;
                    collector.stats.accepted += accepted;
                    accepted_total += accepted;
                    rest = &rest[accepted as usize..];
                }
                Err(ClientError::Rejected { accepted, message }) => {
                    // A refusal validates whole-frame-atomically on the
                    // collector, so `accepted` is 0 in practice; forward
                    // whatever prefix landed anywhere before it.
                    self.users += accepted_total + accepted;
                    return Err(CoordError::Rejected {
                        addr: collector.stats.addr.clone(),
                        accepted: accepted_total + accepted,
                        message,
                    });
                }
                Err(e) => {
                    self.users += accepted_total;
                    return Err(CoordError::Collector {
                        addr: collector.stats.addr.clone(),
                        detail: e.to_string(),
                    });
                }
            }
        }
        self.users += accepted_total;
        if rest.is_empty() {
            Ok(PushOutcome::Ingested)
        } else {
            Ok(PushOutcome::Busy {
                accepted: accepted_total,
            })
        }
    }

    /// Fetches every collector's snapshot and merges them — the exact
    /// integer-count merge, identical to an unsharded accumulator over
    /// the union of the collectors' reports.
    ///
    /// # Errors
    /// Any collector failing or refusing (a paused collector's typed
    /// refusal propagates — exactness over availability).
    pub fn merged_snapshot(&mut self) -> Result<AccumulatorSnapshot, CoordError> {
        let mut merged: Option<AccumulatorSnapshot> = None;
        for idx in 0..self.collectors.len() {
            self.reconnect_if_closed(idx)?;
            let collector = &mut self.collectors[idx];
            let addr = collector.stats.addr.clone();
            let (users, counts) = collector
                .client
                .query_snapshot()
                .map_err(|e| collector_error(&addr, e))?;
            let snapshot = AccumulatorSnapshot::new(counts, users)
                .map_err(|e| CoordError::Merge(format!("collector {addr}: {e}")))?;
            match &mut merged {
                None => merged = Some(snapshot),
                Some(m) => m
                    .merge(&snapshot)
                    .map_err(|e| CoordError::Merge(format!("collector {addr}: {e}")))?,
            }
        }
        merged.ok_or_else(|| CoordError::Config("no collectors to query".into()))
    }

    /// Calibrated frequency estimates over the merged fleet snapshot —
    /// one oracle run over the merged counts, which is what makes the
    /// result bit-identical to a batch run (estimating per-collector and
    /// averaging would not be).
    ///
    /// # Errors
    /// Collector failures or an oracle error.
    pub fn query_estimates(&mut self) -> Result<(u64, Vec<f64>), CoordError> {
        let merged = self.merged_snapshot()?;
        let users = merged.num_users();
        if users == 0 {
            return Ok((0, Vec::new()));
        }
        self.mechanism
            .frequency_oracle(users)
            .estimate_from(&merged)
            .map(|estimates| (users, estimates))
            .map_err(|e| CoordError::Merge(e.to_string()))
    }

    /// The top-k items of the merged estimates ([`Self::query_estimates`]),
    /// ranked by the shared NaN-safe ordering — exactly batch
    /// `identify_top_k` over the fleet. No collector is asked for its
    /// local top-k: the merged estimates already decide the answer (see
    /// [`merge_candidates`]).
    ///
    /// # Errors
    /// Collector failures or an oracle error.
    pub fn query_top_k(&mut self, k: usize) -> Result<(u64, Vec<(u64, f64)>), CoordError> {
        let (users, estimates) = self.query_estimates()?;
        let items = top_k_indices(&estimates, k)
            .into_iter()
            .map(|i| (i as u64, estimates[i]))
            .collect();
        Ok((users, items))
    }

    /// Coordinated checkpoint: triggers a `Checkpoint` on every collector
    /// and records the per-collector covered user counts as the
    /// generation vector ([`Self::last_generation`]). Returns the total
    /// users covered across the fleet.
    ///
    /// # Errors
    /// Any collector failing or refusing (no checkpoint path, write
    /// error). Collectors that already checkpointed keep their files —
    /// the generation vector is only recorded when the whole fleet
    /// succeeded.
    pub fn checkpoint(&mut self) -> Result<u64, CoordError> {
        let mut generation = Vec::with_capacity(self.collectors.len());
        for idx in 0..self.collectors.len() {
            self.reconnect_if_closed(idx)?;
            let collector = &mut self.collectors[idx];
            let addr = collector.stats.addr.clone();
            let users = collector
                .client
                .checkpoint()
                .map_err(|e| collector_error(&addr, e))?;
            generation.push(users);
        }
        let total = generation.iter().sum();
        self.last_generation = Some(generation);
        Ok(total)
    }
}

/// Connects to the collector at `addr` for `mechanism` and `tenant`, and
/// checks that its `HelloAck` announces exactly the run identity `want`.
/// Returns the client and the collector's current user count.
fn handshake(
    addr: &str,
    mechanism: &dyn Mechanism,
    tenant: Option<&TenantId>,
    want: &RunIdentity,
) -> Result<(ReportClient, u64), CoordError> {
    let (client, users) = ReportClient::connect_tenant(addr, mechanism, tenant).map_err(|e| {
        CoordError::Collector {
            addr: addr.to_string(),
            detail: e.to_string(),
        }
    })?;
    // Typed comparison: an unparseable line is a mismatch too (a
    // pre-identity server cannot prove its config).
    let got = client.server_run_line();
    if got.parse::<RunIdentity>().ok().as_ref() != Some(want) {
        return Err(CoordError::IdentityMismatch {
            addr: addr.to_string(),
            got: got.to_string(),
            want: want.to_string(),
        });
    }
    Ok((client, users))
}

fn collector_error(addr: &str, e: ClientError) -> CoordError {
    match e {
        ClientError::Rejected { accepted, message } => CoordError::Rejected {
            addr: addr.to_string(),
            accepted,
            message,
        },
        other => CoordError::Collector {
            addr: addr.to_string(),
            detail: other.to_string(),
        },
    }
}

/// Merges per-collector top-k `Candidates` replies into the exact global
/// top-k. The candidate pool is the union of every collector's local
/// candidates **plus** the top-k indices of the merged estimate vector;
/// the pool is ranked by the shared NaN-safe ordering
/// ([`cmp_desc_nan_last`], ties toward the smaller item) and truncated
/// to k.
///
/// Exactness: local top-k unions alone are *not* sufficient (an item can
/// be second everywhere yet first globally), but seeding the pool with
/// `top_k_indices(merged, k)` guarantees the true global top-k is in the
/// pool, and ranking the pool by the same total order `top_k_indices`
/// uses makes the first k of the pool equal the first k of the whole
/// domain — so the result is identical to batch `identify_top_k` on the
/// merged estimates, whatever the locals say. That is why
/// [`Coordinator::query_top_k`] ranks the merged estimates alone and asks
/// no collector for candidates. The service benchmark still times this
/// merge (`coord.merge_candidates_us`).
pub fn merge_candidates(
    locals: &[Vec<(u64, f64)>],
    merged_estimates: &[f64],
    k: usize,
) -> Vec<(u64, f64)> {
    let mut pool: Vec<usize> = locals
        .iter()
        .flatten()
        .map(|&(item, _)| item as usize)
        // Tolerate (ignore) candidates outside the merged domain rather
        // than panicking on a hostile or misconfigured collector.
        .filter(|&item| item < merged_estimates.len())
        .chain(top_k_indices(merged_estimates, k))
        .collect();
    pool.sort_unstable();
    pool.dedup();
    pool.sort_by(|&a, &b| {
        cmp_desc_nan_last(merged_estimates[a], merged_estimates[b]).then(a.cmp(&b))
    });
    pool.truncate(k);
    pool.into_iter()
        .map(|item| (item as u64, merged_estimates[item]))
        .collect()
}

/// The coordinator's TCP frontend, served by the same readiness event
/// loops as a collector ([`EventLoops`], with [`ServerConfig::default`]'s
/// loop count and idle timeout): a bounded set of loops multiplexes every
/// connection, idle peers are reaped, and [`CoordServer::shutdown`] closes
/// live connections. Routing and queries serialize on the coordinator
/// lock, which is what linearizes a query after every previously
/// acknowledged push. Speaks byte-identical protocol to a collector —
/// handshake via [`check_hello`], replies encoded by the shared loops — so
/// existing clients work against it unchanged.
pub struct CoordServer {
    local_addr: SocketAddr,
    coordinator: Arc<Mutex<Coordinator>>,
    loops: EventLoops,
}

impl CoordServer {
    /// Binds `addr` (port 0 picks an ephemeral port) and starts serving.
    ///
    /// # Errors
    /// Bind failures, or a host without a unix readiness backend.
    pub fn start<A: ToSocketAddrs>(
        coordinator: Coordinator,
        addr: A,
    ) -> Result<Self, std::io::Error> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let coordinator = Arc::new(Mutex::new(coordinator));
        let loops = EventLoops::spawn(
            listener,
            Arc::new(Frontend(Arc::clone(&coordinator))),
            &ServerConfig::default(),
        )?;
        Ok(Self {
            local_addr,
            coordinator,
            loops,
        })
    }

    /// The bound address (the ephemeral port under `--port 0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared coordinator — for stats and generation-vector
    /// inspection while serving.
    pub fn coordinator(&self) -> Arc<Mutex<Coordinator>> {
        Arc::clone(&self.coordinator)
    }

    /// Stops the event loops, closing every connection (live ones
    /// included), and joins them.
    pub fn shutdown(self) {
        self.loops.shutdown();
    }
}

/// The coordinator's side of the shared event loops. Every reply either
/// comes from the coordinator's fleet operations or is a typed `Reject` —
/// a collector failure mid-query never silently degrades an answer. Fleet
/// calls block the loop that made them; they serialize on the coordinator
/// lock regardless, so the loop adds no ordering the lock does not.
struct Frontend(Arc<Mutex<Coordinator>>);

impl Frontend {
    fn coordinator(&self) -> MutexGuard<'_, Coordinator> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Backend for Frontend {
    type Session = ();
    /// The coordinator answers every frame at once; it never settles.
    type Settle = Infallible;

    /// The collector's acceptance rule (shared code), plus the
    /// coordinator's own run line in the ack.
    fn hello(&self, frame: Frame) -> Result<((), Frame), Frame> {
        // The frontend exposes exactly one stream — the fleet it
        // coordinates. A Hello naming a tenant is refused before the
        // config check, with a message pointing at the right fix
        // (multi-tenant selection happens on the collectors, via
        // `Coordinator::connect_tenant`).
        if let Frame::Hello { tenant, .. } = &frame {
            if !tenant.is_empty() {
                return Err(Frame::reject(format!(
                    "unknown tenant `{tenant}`: a coordinator frontend exposes a single \
                     stream — connect without a tenant"
                )));
            }
        }
        let coord = self.coordinator();
        check_hello(coord.mechanism.as_ref(), &frame).map_err(Frame::reject)?;
        Ok((
            (),
            Frame::HelloAck {
                users: coord.users(),
                run_line: coord.run_line().to_string(),
            },
        ))
    }

    fn frame(&self, (): (), frame: Frame) -> FrameAction<Infallible> {
        let mut coord = self.coordinator();
        let reply = match frame {
            Frame::Reports(reports) => match coord.route(&reports) {
                Ok(PushOutcome::Ingested) => Ok(Frame::Ingested {
                    accepted: reports.len() as u64,
                }),
                Ok(PushOutcome::Busy { accepted }) => Ok(Frame::Busy { accepted }),
                Err(CoordError::Rejected {
                    accepted, message, ..
                }) => Ok(Frame::Reject { accepted, message }),
                Err(e) => Err(e),
            },
            Frame::Query => coord
                .query_estimates()
                .map(|(users, estimates)| Frame::Estimates { users, estimates }),
            Frame::TopKQuery { k } => coord
                .query_top_k(k as usize)
                .map(|(users, items)| Frame::Candidates { users, items }),
            Frame::SnapshotQuery => coord.merged_snapshot().map(|merged| {
                let users = merged.num_users();
                let counts = merged.into_counts();
                Frame::Snapshot {
                    users,
                    total: counts.len() as u64,
                    offset: 0,
                    counts,
                }
            }),
            Frame::Checkpoint => coord
                .checkpoint()
                .map(|users| Frame::CheckpointAck { users }),
            Frame::Hello { .. } => Ok(Frame::reject("connection is already negotiated")),
            other => Ok(Frame::reject(format!(
                "unexpected frame on the coordinator: {other:?}"
            ))),
        };
        FrameAction::Reply(reply.unwrap_or_else(|e| Frame::reject(e.to_string())))
    }

    fn poll_settle(&self, settle: &Infallible) -> Poll<Option<Frame>> {
        match *settle {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `merge_candidates` must equal `top_k_indices` over the merged
    /// estimates — including when locals are useless (empty or
    /// out-of-domain) and when NaNs and exact ties are in play.
    #[test]
    fn merge_candidates_equals_global_top_k() {
        let cases: Vec<(Vec<f64>, usize)> = vec![
            (vec![0.1, 0.5, 0.5, 0.3, f64::NAN, 0.5], 3),
            (vec![f64::NAN, f64::NAN, 1.0], 2),
            (vec![0.25; 8], 5),
            (vec![], 4),
            (vec![0.9, -0.1], 0),
            (vec![-0.0, 0.0, 0.7], 2),
        ];
        for (merged, k) in cases {
            let want: Vec<(u64, f64)> = top_k_indices(&merged, k)
                .into_iter()
                .map(|i| (i as u64, merged[i]))
                .collect();
            let locals_variants: Vec<Vec<Vec<(u64, f64)>>> = vec![
                vec![],
                vec![vec![]],
                // A local list naming out-of-domain and duplicate items.
                vec![vec![(999, 0.9), (0, 0.0)], vec![(0, 0.1)]],
                // Locals that already name the right answer.
                vec![want.clone()],
            ];
            for locals in locals_variants {
                let got = merge_candidates(&locals, &merged, k);
                assert_eq!(got.len(), want.len(), "merged={merged:?} k={k}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.0, w.0, "merged={merged:?} k={k}");
                    assert_eq!(
                        g.1.to_bits(),
                        w.1.to_bits(),
                        "merged={merged:?} k={k} item={}",
                        g.0
                    );
                }
            }
        }
    }

    /// The NaN-safe tie-break identity, spelled out: equal estimates rank
    /// by smaller item, NaN ranks last — matching `cmp_desc_nan_last`.
    #[test]
    fn merge_candidates_nan_and_tie_identity() {
        let merged = vec![0.5, f64::NAN, 0.5, 0.8];
        // Local candidates deliberately list NaN first.
        let locals = vec![vec![(1, f64::NAN), (3, 0.8)]];
        let got = merge_candidates(&locals, &merged, 4);
        let items: Vec<u64> = got.iter().map(|&(i, _)| i).collect();
        assert_eq!(items, vec![3, 0, 2, 1], "ties → smaller item, NaN last");
        assert!(got[3].1.is_nan());
    }
}
