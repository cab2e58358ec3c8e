//! The per-connection protocol, free of any transport.
//!
//! [`Backend`] is what the event loops (`reactor.rs`) call on a
//! connection's frames: the decoded Hello handshake, then one
//! [`FrameAction`] per frame, handed over as it arrived ([`WireFrame`]).
//! The loops own the bytes — reading, flushing replies, and polling a
//! settling reply — and never interpret a frame past the handshake, so
//! the collector and the coordinator frontend share them. Neither decodes
//! a `Reports` frame: the collector admits it into a checked batch of its
//! received bytes, and the coordinator forwards its bytes. Every other
//! frame is decoded.
//!
//! The collector's backend is its tenant [`Registry`]: `Reports` meet the
//! bounded queue's typed `Busy` backpressure, and queries linearize on the
//! accept watermark. A query is split in two on purpose: [`Backend::frame`]
//! captures the accept watermark *at frame-processing time* (the
//! linearization point) and returns [`FrameAction::Settle`];
//! [`Backend::poll_settle`] then polls [`BatchQueue::poll_processed`] and
//! builds the reply once the fold frontier's verdict ([`WaitOutcome`]) is
//! in, so a settling query never blocks an event loop.
//!
//! [`BatchQueue::poll_processed`]: crate::queue::BatchQueue::poll_processed

use crate::frame::{check_version, Admission, Frame, FrameError, WireFrame};
use crate::queue::{PushRefusal, WaitOutcome};
use crate::server::{Registry, Tenant};
use idldp_num::vecops::top_k_indices;
use std::task::Poll;

/// The reply a settling query gives while ingest is paused and its
/// watermark needs still-queued reports (blocking would park the
/// connection until resume).
const PAUSED_MSG: &str =
    "ingest is paused; accepted reports are not yet folded — retry after resume";

/// The protocol one event-loop frontend serves. The loops call
/// [`Backend::hello`] on a connection's first frame, [`Backend::frame`] on
/// every later one, and [`Backend::poll_settle`] at a short tick while a
/// reply is settling; each returned frame is written back as the reply.
/// Implemented by the collector's tenant registry and by the coordinator
/// frontend (`idldp-coord`), which never settles.
pub trait Backend: Send + Sync + 'static {
    /// What a connection binds to at its handshake (the collector: the
    /// tenant index its `Hello` selected).
    type Session: Copy + Send;
    /// A reply the backend cannot give yet (the collector: a query pinned
    /// to the accept watermark of its tenant).
    type Settle: Send;

    /// Handles a connection's first frame. `Ok` is the session and the
    /// `HelloAck` to send before the frame loop; `Err` is the `Reject` to
    /// send before closing.
    ///
    /// # Errors
    /// The refusal frame (not a `Hello`, unknown tenant, config mismatch).
    fn hello(&self, frame: Frame) -> Result<(Self::Session, Frame), Frame>;

    /// Handles one frame of a negotiated connection, as it arrived.
    ///
    /// # Errors
    /// The frame breaks the grammar: the loops answer with the typed
    /// `bad frame:` `Reject` and close the connection.
    fn frame(
        &self,
        session: Self::Session,
        frame: WireFrame,
    ) -> Result<FrameAction<Self::Settle>, FrameError>;

    /// Polls a settling reply: `Pending` until it can be built, then the
    /// reply, or `None` to hang up without one (the backend shut down).
    fn poll_settle(&self, settle: &Self::Settle) -> Poll<Option<Frame>>;
}

/// What a negotiated connection should do with one decoded frame.
pub enum FrameAction<S> {
    /// Send this reply and keep serving.
    Reply(Frame),
    /// The reply is not ready: stop reading and poll
    /// [`Backend::poll_settle`] until it is.
    Settle(S),
}

/// A query waiting for the fold frontier: which reply to build, pinned to
/// the accept watermark captured when the query frame was processed.
pub(crate) struct PendingQuery {
    /// Which reply to build once settled.
    kind: QueryKind,
    /// The tenant the connection bound to at handshake — the query
    /// settles against (and answers from) this tenant's queue and
    /// accumulator only.
    tenant: usize,
    /// The accept watermark at the query's linearization point.
    watermark: u64,
}

/// The reply family of a pending query.
enum QueryKind {
    /// `Query` → `Estimates`.
    Estimates,
    /// `TopKQuery { k }` → `Candidates`.
    TopK(u64),
    /// `Checkpoint` → `CheckpointAck` (the path is known to be configured;
    /// [`Backend::frame`] rejects the frame outright otherwise).
    Checkpoint,
    /// `SnapshotQuery` → `Snapshot` (raw merged counts — what a
    /// coordinator fetches, since integer counts merge exactly where
    /// calibrated floats would not).
    Snapshot,
}

/// Validates a connection's first frame against a mechanism config: it
/// must be a [`Frame::Hello`] of
/// [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION) announcing exactly this
/// mechanism's kind/shape/width/ε. Shared by the collector (against the
/// *selected tenant's* mechanism) and the coordinator frontend, which
/// speaks the same handshake on behalf of its collector fleet — one
/// implementation, so the acceptance rule cannot drift. Tenant selection
/// is deliberately not this function's business: the collector resolves
/// the name first via its registry, the coordinator refuses named
/// tenants.
///
/// # Errors
/// The human-readable refusal to send in a [`Frame::Reject`].
pub fn check_hello(
    mech: &dyn idldp_core::mechanism::Mechanism,
    frame: &Frame,
) -> Result<(), String> {
    let Frame::Hello {
        version,
        kind,
        shape,
        report_len,
        ldp_eps_bits,
        tenant: _,
    } = frame
    else {
        return Err("expected Hello as the first frame".into());
    };
    // A `Hello` of another version from the wire never gets here (the
    // codec refuses it by its version word); one built in memory is
    // refused with the same message.
    check_version(*version).map_err(|e| e.to_string())?;
    if *kind != mech.kind()
        || *shape != mech.report_shape()
        || *report_len != mech.report_len() as u64
        // ε compared as exact bits, like the checkpoint stamp: same-kind
        // reports perturbed under a different budget would fold cleanly
        // but calibrate wrongly.
        || *ldp_eps_bits != mech.ldp_epsilon().to_bits()
    {
        return Err(format!(
            "mechanism config mismatch: server runs kind={} shape={} report_len={} \
             ldp_eps={}, client sent kind={kind} shape={} report_len={report_len} \
             ldp_eps={}",
            mech.kind(),
            mech.report_shape().label(),
            mech.report_len(),
            mech.ldp_epsilon(),
            shape.label(),
            f64::from_bits(*ldp_eps_bits)
        ));
    }
    Ok(())
}

/// The collector's protocol over its tenant registry. A connection binds
/// to one tenant at handshake; every later frame is served against that
/// tenant's queue and accumulator only.
impl Backend for Registry {
    type Session = usize;
    type Settle = PendingQuery;

    /// Resolves the named tenant, checks the announced config against
    /// *that tenant's* mechanism, and binds the connection to it (the codec
    /// already refused another version).
    fn hello(&self, frame: Frame) -> Result<(usize, Frame), Frame> {
        let Frame::Hello {
            tenant: ref tenant_name,
            ..
        } = frame
        else {
            return Err(Frame::reject("expected Hello as the first frame"));
        };
        let index = self.resolve_tenant(tenant_name).map_err(Frame::reject)?;
        let tenant = self.tenant(index);
        check_hello(tenant.mechanism.as_ref(), &frame).map_err(Frame::reject)?;
        Ok((
            index,
            Frame::HelloAck {
                // Every user the tenant holds, folded or still queued: a
                // coordinator refuses a reconnect that announces fewer
                // than it routed here.
                users: tenant.restored + tenant.queue.watermark(),
                // The same stamp this tenant's checkpoints carry — lets a
                // coordinator refuse a collector whose config (including
                // the CLI seed) differs from the rest of its fleet.
                run_line: tenant.run_line(),
            },
        ))
    }

    /// Admits a `Reports` frame ([`ingest`]): whole-frame-atomically,
    /// against *this tenant's* rules, then *this tenant's* queue's typed
    /// backpressure (per-tenant capacity accounting — another tenant's
    /// saturation is invisible here). Decodes every other frame: queries
    /// capture this tenant's watermark and settle; everything else draws
    /// a typed reply.
    fn frame(
        &self,
        session: usize,
        frame: WireFrame,
    ) -> Result<FrameAction<PendingQuery>, FrameError> {
        let tenant = self.tenant(session);
        if frame.is_reports() {
            return ingest(tenant, frame).map(FrameAction::Reply);
        }
        let kind = match frame.decode()? {
            Frame::Query => QueryKind::Estimates,
            Frame::TopKQuery { k } => QueryKind::TopK(k),
            Frame::SnapshotQuery => QueryKind::Snapshot,
            Frame::Checkpoint if tenant.store.is_some() => QueryKind::Checkpoint,
            Frame::Checkpoint => {
                return Ok(FrameAction::Reply(Frame::reject(
                    "server has no checkpoint path configured",
                )))
            }
            Frame::Hello { .. } => {
                return Ok(FrameAction::Reply(Frame::reject(
                    "connection is already negotiated",
                )))
            }
            other => {
                return Ok(FrameAction::Reply(Frame::reject(format!(
                    "unexpected frame on the server side: {other:?}"
                ))))
            }
        };
        Ok(FrameAction::Settle(PendingQuery {
            kind,
            tenant: session,
            watermark: tenant.queue.watermark(),
        }))
    }

    /// Polls the tenant's fold frontier against the query's watermark. A
    /// closed queue hangs up, a paused one draws the typed [`PAUSED_MSG`]
    /// refusal, and a reached watermark computes the reply over the
    /// now-complete merged view.
    fn poll_settle(&self, pending: &PendingQuery) -> Poll<Option<Frame>> {
        let tenant = self.tenant(pending.tenant);
        let Some(outcome) = tenant.queue.poll_processed(pending.watermark) else {
            return Poll::Pending;
        };
        Poll::Ready(match outcome {
            WaitOutcome::Closed => None,
            WaitOutcome::Paused => Some(Frame::reject(PAUSED_MSG)),
            WaitOutcome::Reached => Some(settled_reply(tenant, &pending.kind)),
        })
    }
}

/// Admits one `Reports` frame to the tenant's queue. One walk of the
/// frame's bytes applies the report grammar and the tenant's report rules
/// ([`WireFrame::admit_reports`]) before anything is queued — the
/// synchronous half of ingestion, and the only check a report gets: the
/// queued batch is the checked bytes, which the fold reads without
/// checking again, so an accepted report can never fail to fold. A
/// hostile frame mixing valid and invalid reports is rejected atomically,
/// naming the first bad report: no partial fold, nothing to un-count.
/// (Backpressure is the one partial outcome: `Busy{accepted}` names the
/// queued prefix, which the client re-sends from.)
///
/// # Errors
/// A frame that breaks the grammar: the loops answer `bad frame:` and
/// close, as for any undecodable frame.
fn ingest(tenant: &Tenant, frame: WireFrame) -> Result<Frame, FrameError> {
    let mechanism = tenant.mechanism.as_ref();
    let batch = match frame.admit_reports(mechanism.report_shape(), mechanism.report_len()) {
        Ok(batch) => batch,
        Err(Admission::Frame(e)) => return Err(e),
        Err(Admission::Report(e)) => return Ok(Frame::reject(e.to_string())),
    };
    let batch_len = batch.len();
    Ok(match tenant.queue.try_push_batch(batch) {
        Ok(accepted) if accepted == batch_len => Frame::Ingested {
            accepted: accepted as u64,
        },
        Ok(accepted) => Frame::Busy {
            accepted: accepted as u64,
        },
        Err(PushRefusal::Full) => Frame::Busy { accepted: 0 },
        Err(PushRefusal::Closed) => Frame::reject("server is shutting down"),
    })
}

/// Estimates over one tenant's current merged view (empty while no
/// users). Called only after the fold frontier reached the query's
/// watermark.
fn estimates_now(tenant: &Tenant) -> Result<(u64, Vec<f64>), String> {
    let snapshot = tenant.sink.snapshot();
    let users = snapshot.num_users();
    if users == 0 {
        return Ok((0, Vec::new()));
    }
    tenant
        .mechanism
        .frequency_oracle(users)
        .estimate_from(&snapshot)
        .map(|estimates| (users, estimates))
        .map_err(|e| e.to_string())
}

/// Builds the reply of a query whose watermark the fold frontier reached.
fn settled_reply(tenant: &Tenant, kind: &QueryKind) -> Frame {
    match kind {
        QueryKind::Estimates => match estimates_now(tenant) {
            Ok((users, estimates)) => Frame::Estimates { users, estimates },
            Err(message) => Frame::reject(message),
        },
        QueryKind::TopK(k) => match estimates_now(tenant) {
            Ok((users, estimates)) => {
                let items = top_k_indices(&estimates, *k as usize)
                    .into_iter()
                    .map(|i| (i as u64, estimates[i]))
                    .collect();
                Frame::Candidates { users, items }
            }
            Err(message) => Frame::reject(message),
        },
        QueryKind::Checkpoint => match &tenant.store {
            Some(store) => {
                let snapshot = tenant.sink.snapshot();
                let users = snapshot.num_users();
                let run_line = tenant.run_line();
                let mut store = store
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                match store.save(std::slice::from_ref(&snapshot), &run_line) {
                    Ok(()) => Frame::CheckpointAck { users },
                    Err(e) => Frame::reject(format!("checkpoint write: {e}")),
                }
            }
            // Unreachable: `frame` rejects Checkpoint before settling when
            // no path is configured.
            None => Frame::reject("server has no checkpoint path configured"),
        },
        QueryKind::Snapshot => {
            let snapshot = tenant.sink.snapshot();
            let users = snapshot.num_users();
            let counts = snapshot.into_counts();
            Frame::Snapshot {
                users,
                total: counts.len() as u64,
                offset: 0,
                counts,
            }
        }
    }
}

/// Encodes a reply for the wire. Replies that fit one frame encode
/// directly (the universal case, byte-identical to protocol 2). Estimate
/// and snapshot vectors too large for one frame are split into contiguous
/// continuation chunks ([`Frame::EstimatesPart`] / [`Frame::Snapshot`])
/// and written as one buffer — the reactor treats a reply as opaque
/// bytes. Any other oversized reply (a `Candidates` list with millions of
/// entries) still draws the typed over-cap refusal instead of a dead
/// connection.
///
/// Public because svcbench times reply encoding through it.
pub fn encode_reply(frame: &Frame) -> Vec<u8> {
    if frame.fits_one_frame() {
        return frame.encode();
    }
    crate::frame::encode_reply_parts(frame).unwrap_or_else(|| {
        Frame::reject(format!(
            "reply exceeds the {} MiB frame cap (domain too large for one frame)",
            crate::frame::MAX_PAYLOAD_LEN >> 20
        ))
        .encode()
    })
}
