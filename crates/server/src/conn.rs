//! The per-connection protocol, free of any transport.
//!
//! Hello handshake, then a frame loop where `Reports` meet the bounded
//! queue's typed `Busy` backpressure and queries linearize on the accept
//! watermark. Every function here maps a decoded [`Frame`] (plus the
//! shared server state) to a [`FrameAction`] and never touches a socket;
//! the reactor (`reactor.rs`) owns the bytes — reading, flushing replies,
//! and waiting out a query's watermark.
//!
//! The query path is split in two on purpose: [`apply_frame`] captures the
//! accept watermark *at frame-processing time* (the linearization point)
//! and returns [`FrameAction::Settle`]; [`settle_reply`] then builds the
//! reply once the fold frontier's verdict ([`WaitOutcome`]) is in. The
//! reactor polls [`IngestQueue::poll_processed`] for that verdict between
//! events, so a settling query never blocks an event loop.
//!
//! [`IngestQueue::poll_processed`]: crate::queue::IngestQueue::poll_processed

use crate::frame::{Frame, PROTOCOL_VERSION};
use crate::queue::{PushRefusal, WaitOutcome};
use crate::server::{Shared, Tenant};
use idldp_core::report::{ReportData, ReportShape};
use idldp_num::vecops::top_k_indices;

/// The reply [`settle_reply`] gives while ingest is paused and the query's
/// watermark needs still-queued reports (blocking would park the
/// connection until resume).
pub(crate) const PAUSED_MSG: &str =
    "ingest is paused; accepted reports are not yet folded — retry after resume";

/// What a negotiated connection should do with one decoded frame.
pub(crate) enum FrameAction {
    /// Send this reply and keep serving.
    Reply(Frame),
    /// The frame is a query: its watermark is captured; produce the reply
    /// via [`settle_reply`] once the fold frontier reaches it.
    Settle(PendingQuery),
}

/// A query waiting for the fold frontier: which reply to build, pinned to
/// the accept watermark captured when the query frame was processed.
pub(crate) struct PendingQuery {
    /// Which reply to build once settled.
    pub(crate) kind: QueryKind,
    /// The tenant the connection bound to at handshake — the query
    /// settles against (and answers from) this tenant's queue and
    /// accumulator only.
    pub(crate) tenant: usize,
    /// The accept watermark at the query's linearization point.
    pub(crate) watermark: u64,
}

/// The reply family of a pending query.
pub(crate) enum QueryKind {
    /// `Query` → `Estimates`.
    Estimates,
    /// `TopKQuery { k }` → `Candidates`.
    TopK(u64),
    /// `Checkpoint` → `CheckpointAck` (the path is known to be configured;
    /// [`apply_frame`] rejects the frame outright otherwise).
    Checkpoint,
    /// `SnapshotQuery` → `Snapshot` (raw merged counts — what a
    /// coordinator fetches, since integer counts merge exactly where
    /// calibrated floats would not).
    Snapshot,
}

fn reject(message: impl Into<String>) -> Frame {
    Frame::Reject {
        accepted: 0,
        message: message.into(),
    }
}

/// The tenant name a [`Frame::Hello`] carries (the empty string selects
/// the default tenant); `None` when the frame is not a `Hello` at all.
/// Public for single-stream frontends — the coordinator hosts exactly one
/// stream and refuses named tenants through this before [`check_hello`].
#[must_use]
pub fn hello_tenant(frame: &Frame) -> Option<&str> {
    match frame {
        Frame::Hello { tenant, .. } => Some(tenant),
        _ => None,
    }
}

/// A server accepts [`PROTOCOL_VERSION`] only. (A v3 `Hello` never gets
/// here: it has no tenant field, so it does not decode.)
fn check_hello_version(version: u32) -> Result<(), String> {
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
        ));
    }
    Ok(())
}

/// Validates a connection's first frame against a mechanism config: it
/// must be a [`Frame::Hello`] of [`PROTOCOL_VERSION`] announcing
/// exactly this mechanism's kind/shape/width/ε. Shared by the server
/// (via the internal `apply_hello`, against the *selected tenant's*
/// mechanism) and the coordinator frontend, which speaks the same
/// handshake on behalf of its collector fleet — one implementation,
/// so the acceptance rule cannot drift. Tenant selection is deliberately
/// not this function's business: the server resolves the name first via
/// its registry, the coordinator refuses named tenants via
/// [`hello_tenant`].
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
    check_hello_version(*version)?;
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

/// Handles the first frame of a connection: resolves the named tenant,
/// checks the announced config against *that tenant's* mechanism, and
/// binds the connection to the tenant. `Ok` is the tenant index plus the
/// `HelloAck` to send before entering the frame loop; `Err` is the
/// `Reject` to send before closing (version mismatch, unknown tenant,
/// config mismatch, or not a Hello at all).
pub(crate) fn apply_hello(shared: &Shared, frame: Frame) -> Result<(usize, Frame), Frame> {
    let Frame::Hello {
        version,
        tenant: ref tenant_name,
        ..
    } = frame
    else {
        return Err(reject("expected Hello as the first frame"));
    };
    // Version precedes tenant resolution: an unsupported version draws the
    // version refusal even if it happens to name a known tenant.
    check_hello_version(version).map_err(reject)?;
    let index = shared.resolve_tenant(tenant_name).map_err(reject)?;
    let tenant = shared.tenant(index);
    check_hello(tenant.mechanism.as_ref(), &frame).map_err(reject)?;
    Ok((
        index,
        Frame::HelloAck {
            users: tenant.sink.num_users(),
            // The same stamp this tenant's checkpoints carry — lets a
            // coordinator refuse a collector whose config (including the
            // CLI seed) differs from the rest of its fleet.
            run_line: tenant.run_line(),
        },
    ))
}

/// Validates one decoded report against the negotiated mechanism config —
/// the *synchronous* half of ingestion, so every malformed report is
/// refused in the connection reply and accepted reports can never fail to
/// fold. The shape must be the connection's negotiated wire shape; the
/// content rules are the core [`idldp_core::report::Report::validate`],
/// the same definition `fold_into` enforces — which is what makes the
/// accepted ⇒ foldable invariant definitional rather than two hand-synced
/// rule sets.
fn validate_report(
    report: &ReportData,
    shape: ReportShape,
    report_len: usize,
) -> Result<(), String> {
    let matches_shape = matches!(
        (report, shape),
        (ReportData::Bits(_), ReportShape::Bits)
            | (ReportData::Value(_), ReportShape::Value)
            | (ReportData::Hashed { .. }, ReportShape::Hashed { .. })
            | (ReportData::ItemSet(_), ReportShape::ItemSet { .. })
    );
    if !matches_shape {
        let got = match report {
            ReportData::Bits(_) => "bit-vector",
            ReportData::Value(_) => "categorical value",
            ReportData::Hashed { .. } => "hashed (seed, value)",
            ReportData::ItemSet(_) => "item-set",
        };
        return Err(format!(
            "report shape mismatch: connection negotiated {}, got a {got} report",
            shape.label()
        ));
    }
    let shape_param = match shape {
        ReportShape::Hashed { range } => range,
        ReportShape::ItemSet { k } => k,
        _ => 0,
    };
    report
        .as_report()
        .validate(report_len, shape_param)
        .map_err(|e| e.to_string())
}

/// Handles one frame of a negotiated connection, against the tenant the
/// connection bound to at handshake. Pure protocol: `Reports` validate
/// whole-frame-atomically and meet *this tenant's* queue's typed
/// backpressure (per-tenant capacity accounting — another tenant's
/// saturation is invisible here); queries capture this tenant's watermark
/// and become [`FrameAction::Settle`]; everything else draws a typed
/// reply.
pub(crate) fn apply_frame(shared: &Shared, tenant: usize, frame: Frame) -> FrameAction {
    let tenant_index = tenant;
    let tenant = shared.tenant(tenant_index);
    let shape = tenant.mechanism.report_shape();
    let report_len = tenant.mechanism.report_len();
    let reply = match frame {
        Frame::Reports(reports) => {
            // The whole frame validates before anything is queued: a
            // hostile frame mixing valid and invalid reports is rejected
            // atomically — no partial fold, nothing to un-count.
            // (Backpressure is the one partial outcome: `Busy{accepted}`
            // names the queued prefix, which the client re-sends from.)
            let invalid = reports.iter().enumerate().find_map(|(idx, report)| {
                validate_report(report, shape, report_len)
                    .err()
                    .map(|e| format!("report {idx}: {e}"))
            });
            if let Some(message) = invalid {
                reject(message)
            } else {
                let batch_len = reports.len();
                match tenant.queue.try_push_batch(reports) {
                    Ok(accepted) if accepted == batch_len => Frame::Ingested {
                        accepted: accepted as u64,
                    },
                    Ok(accepted) => Frame::Busy {
                        accepted: accepted as u64,
                    },
                    Err(PushRefusal::Full) => Frame::Busy { accepted: 0 },
                    Err(PushRefusal::Closed) => reject("server is shutting down"),
                }
            }
        }
        Frame::Query => {
            return FrameAction::Settle(PendingQuery {
                kind: QueryKind::Estimates,
                tenant: tenant_index,
                watermark: tenant.queue.watermark(),
            })
        }
        Frame::TopKQuery { k } => {
            return FrameAction::Settle(PendingQuery {
                kind: QueryKind::TopK(k),
                tenant: tenant_index,
                watermark: tenant.queue.watermark(),
            })
        }
        Frame::SnapshotQuery => {
            return FrameAction::Settle(PendingQuery {
                kind: QueryKind::Snapshot,
                tenant: tenant_index,
                watermark: tenant.queue.watermark(),
            })
        }
        Frame::Checkpoint => {
            if tenant.store.is_none() {
                reject("server has no checkpoint path configured")
            } else {
                return FrameAction::Settle(PendingQuery {
                    kind: QueryKind::Checkpoint,
                    tenant: tenant_index,
                    watermark: tenant.queue.watermark(),
                });
            }
        }
        Frame::Hello { .. } => reject("connection is already negotiated"),
        other => reject(format!("unexpected frame on the server side: {other:?}")),
    };
    FrameAction::Reply(reply)
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

/// Builds the reply of a settled query from the watermark wait's verdict.
/// `None` means the server closed mid-wait — hang up without a reply. A
/// paused queue draws the typed [`PAUSED_MSG`] refusal; a reached
/// watermark computes the reply over the now-complete merged view.
pub(crate) fn settle_reply(
    shared: &Shared,
    pending: &PendingQuery,
    outcome: WaitOutcome,
) -> Option<Frame> {
    match outcome {
        WaitOutcome::Closed => return None,
        WaitOutcome::Paused => return Some(reject(PAUSED_MSG)),
        WaitOutcome::Reached => {}
    }
    let tenant = shared.tenant(pending.tenant);
    let reply = match &pending.kind {
        QueryKind::Estimates => match estimates_now(tenant) {
            Ok((users, estimates)) => Frame::Estimates { users, estimates },
            Err(message) => reject(message),
        },
        QueryKind::TopK(k) => match estimates_now(tenant) {
            Ok((users, estimates)) => {
                let items = top_k_indices(&estimates, *k as usize)
                    .into_iter()
                    .map(|i| (i as u64, estimates[i]))
                    .collect();
                Frame::Candidates { users, items }
            }
            Err(message) => reject(message),
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
                    Err(e) => reject(format!("checkpoint write: {e}")),
                }
            }
            // Unreachable: `apply_frame` rejects Checkpoint before
            // settling when no path is configured.
            None => reject("server has no checkpoint path configured"),
        },
        QueryKind::Snapshot => {
            let snapshot = tenant.sink.snapshot();
            Frame::Snapshot {
                users: snapshot.num_users(),
                total: snapshot.counts().len() as u64,
                offset: 0,
                counts: snapshot.counts().to_vec(),
            }
        }
    };
    Some(reply)
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
/// Public because the coordinator frontend encodes its replies through
/// this too — coordinator and collector replies chunk identically.
pub fn encode_reply(frame: &Frame) -> Vec<u8> {
    if frame.fits_one_frame() {
        return frame.encode();
    }
    let parts = match frame {
        Frame::Estimates { users, estimates } => {
            crate::frame::estimates_reply_frames(*users, estimates)
        }
        Frame::Snapshot { users, counts, .. } => {
            crate::frame::snapshot_reply_frames(*users, counts)
        }
        _ => {
            let refusal = reject(format!(
                "reply exceeds the {} MiB frame cap (domain too large for one frame)",
                crate::frame::MAX_PAYLOAD_LEN >> 20
            ));
            return refusal.encode();
        }
    };
    let mut out = Vec::with_capacity(parts.iter().map(|f| 5 + f.encoded_payload_len()).sum());
    for part in &parts {
        out.extend_from_slice(&part.encode());
    }
    out
}
