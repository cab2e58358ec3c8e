//! The report client: the push half of the serve/push pair.
//!
//! A [`ReportClient`] speaks the strict request/response protocol of
//! [`crate::server::ReportServer`]: one `Hello` handshake, then any mix of
//! report batches and queries, each answered by exactly one frame. The
//! `Busy` backpressure reply surfaces as [`PushOutcome::Busy`] from
//! [`ReportClient::push`]; [`ReportClient::push_all`] wraps it in the
//! retry loop a well-behaved producer runs (resend the unaccepted tail
//! after a short backoff), so an ingestion burst slows down instead of
//! losing reports.

use crate::frame::{
    encoded_report_len, Frame, FrameError, ReportsFrame, MAX_PAYLOAD_LEN, PROTOCOL_VERSION,
};
use idldp_core::identity::TenantId;
use idldp_core::mechanism::Mechanism;
use idldp_core::report::ReportData;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A typed request for [`ReportClient::query`] — every post-handshake
/// request/response exchange the protocol offers, in one place, so a new
/// query frame extends this enum (and the one settle/reassemble loop in
/// `query`) instead of growing a fourth hand-rolled method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// Calibrated estimates over everything ingested so far →
    /// [`Reply::Estimates`].
    Estimates,
    /// The current top-`k` heavy-hitter candidates →
    /// [`Reply::Candidates`].
    TopK(usize),
    /// The raw merged accumulator counts (the coordinator's fetch path:
    /// integer counts merge exactly where calibrated floats would not) →
    /// [`Reply::Snapshot`].
    Snapshot,
    /// Persist a durable checkpoint server-side →
    /// [`Reply::CheckpointAck`].
    Checkpoint,
}

/// A settled, fully reassembled reply from [`ReportClient::query`]. Each
/// [`Query`] variant maps to exactly one `Reply` variant — chunked wire
/// replies (`EstimatesPart`, `Snapshot` continuations) arrive here
/// already reassembled and validated.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Answer to [`Query::Estimates`]: the user count and the exact
    /// IEEE-754 estimate bits the server computed.
    Estimates {
        /// Users folded in when the query settled.
        users: u64,
        /// Calibrated per-item frequency estimates.
        estimates: Vec<f64>,
    },
    /// Answer to [`Query::TopK`]: ranked `(item, estimate)` pairs.
    Candidates {
        /// Users folded in when the query settled.
        users: u64,
        /// The top-k candidates, best first.
        items: Vec<(u64, f64)>,
    },
    /// Answer to [`Query::Snapshot`]: the raw merged counts.
    Snapshot {
        /// Users folded in when the query settled.
        users: u64,
        /// The merged accumulator counts.
        counts: Vec<u64>,
    },
    /// Answer to [`Query::Checkpoint`]: the user count the written
    /// checkpoint covers.
    CheckpointAck {
        /// Users covered by the durable checkpoint.
        users: u64,
    },
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode to a frame.
    Frame(FrameError),
    /// The server refused the request with a typed [`Frame::Reject`].
    Rejected {
        /// Reports of the offending batch that were still accepted.
        accepted: u64,
        /// The server's reason.
        message: String,
    },
    /// The peer answered with a frame the protocol does not allow here
    /// (or closed the connection mid-exchange).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o: {e}"),
            ClientError::Frame(e) => write!(f, "client frame: {e}"),
            ClientError::Rejected { accepted, message } => {
                write!(
                    f,
                    "server rejected the request (accepted {accepted}): {message}"
                )
            }
            ClientError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// Consecutive zero-progress `Busy` replies [`ReportClient::push_all`]
/// tolerates before giving up with a typed error. With the default 2 ms
/// base backoff doubling to a ~1 s cap, this rides out roughly a minute
/// of full-queue backpressure — far beyond a transient burst, short
/// enough that a paused or wedged server surfaces as an error instead of
/// a silent infinite retry loop.
pub const MAX_STALLED_RETRIES: u32 = 64;

/// Outcome of one [`ReportClient::push`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// Every report of the batch was accepted.
    Ingested,
    /// The server's ingest queue filled after accepting `accepted`
    /// reports; the caller must resend the rest.
    Busy {
        /// Reports accepted before the refusal.
        accepted: u64,
    },
}

/// A connected, handshaken client.
pub struct ReportClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Backoff between [`ReportClient::push_all`] retries after `Busy`.
    retry_backoff: Duration,
    /// Total `Busy` replies absorbed by [`ReportClient::push_all`].
    busy_retries: u64,
    /// The server's run-identity line from the `HelloAck`.
    server_run_line: String,
}

impl ReportClient {
    /// Connects and handshakes for `mechanism`'s report configuration,
    /// against the server's default tenant. Equivalent to
    /// [`Self::connect_tenant`] with no tenant.
    ///
    /// Returns the client and the server's current user count (nonzero
    /// when the server restored a checkpoint — the resume signal).
    ///
    /// # Errors
    /// Connection failures, a rejected handshake (config mismatch), or a
    /// protocol violation.
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        mechanism: &dyn Mechanism,
    ) -> Result<(Self, u64), ClientError> {
        Self::connect_tenant(addr, mechanism, None)
    }

    /// Connects and handshakes for `mechanism`'s report configuration
    /// against the named tenant of a multi-tenant server (`None` selects
    /// the default tenant). The v4 `Hello` names the tenant; the server
    /// checks the announced config against *that tenant's* mechanism and
    /// answers with that tenant's run identity and user count.
    ///
    /// # Errors
    /// Connection failures, a rejected handshake (unknown tenant or a
    /// config mismatch with the selected tenant), or a protocol
    /// violation.
    pub fn connect_tenant<A: ToSocketAddrs>(
        addr: A,
        mechanism: &dyn Mechanism,
        tenant: Option<&TenantId>,
    ) -> Result<(Self, u64), ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let write_half = stream.try_clone()?;
        let mut client = Self {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            retry_backoff: Duration::from_millis(2),
            busy_retries: 0,
            server_run_line: String::new(),
        };
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            kind: mechanism.kind().to_string(),
            shape: mechanism.report_shape(),
            report_len: mechanism.report_len() as u64,
            ldp_eps_bits: mechanism.ldp_epsilon().to_bits(),
            tenant: tenant.map(|t| t.as_str().to_string()).unwrap_or_default(),
        };
        match client.exchange(&hello)? {
            Frame::HelloAck { users, run_line } => {
                client.server_run_line = run_line;
                Ok((client, users))
            }
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// The server's run-identity line from its `HelloAck` — mechanism
    /// kind, shape, width, exact ε bits, plus the embedder's config stamp.
    /// A coordinator compares these across collectors to refuse a fleet
    /// with mixed mechanism/m/ε/seed configurations.
    pub fn server_run_line(&self) -> &str {
        &self.server_run_line
    }

    /// Whether the server has closed this connection since the last
    /// exchange: a non-blocking peek finds end-of-stream or a reset where
    /// an open, quiet connection has nothing to read. A server reaps
    /// connections idle past its idle timeout, so a caller that keeps a
    /// client across idle periods checks this before an exchange and
    /// reconnects, instead of sending a frame the server will never read.
    /// Buffered bytes, or a peek that cannot run, count as open.
    pub fn peer_closed(&self) -> bool {
        if !self.reader.buffer().is_empty() {
            return false;
        }
        let stream = self.reader.get_ref();
        if stream.set_nonblocking(true).is_err() {
            return false;
        }
        let closed = match stream.peek(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
            ),
        };
        // The write half shares this socket, and its blocking mode.
        let _ = stream.set_nonblocking(false);
        closed
    }

    /// Overrides the `Busy` retry backoff of [`Self::push_all`].
    pub fn with_retry_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// `Busy` replies absorbed by [`Self::push_all`] so far.
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    fn exchange(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        request.write_to(&mut self.writer)?;
        self.writer.flush()?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<Frame, ClientError> {
        match Frame::read_from(&mut self.reader)? {
            Some(Frame::Reject { accepted, message }) => {
                Err(ClientError::Rejected { accepted, message })
            }
            Some(frame) => Ok(frame),
            None => Err(ClientError::Protocol(
                "server closed the connection mid-exchange".into(),
            )),
        }
    }

    /// Sends one report batch, surfacing backpressure to the caller.
    ///
    /// # Errors
    /// Transport errors, [`ClientError::Rejected`] when the server refused
    /// a report (its `accepted` count says how many of the batch were
    /// still queued), or a typed [`ClientError::Protocol`] when the batch
    /// would not fit one frame ([`Self::push_all`] splits automatically)
    /// or a bit report is wider than
    /// [`MAX_BIT_REPORT_SLOTS`](crate::frame::MAX_BIT_REPORT_SLOTS), which
    /// is found while encoding, before any bytes are written.
    pub fn push(&mut self, reports: &[ReportData]) -> Result<PushOutcome, ClientError> {
        // Encoded straight from the borrowed slice — no clone per (re)send,
        // which matters when Busy backpressure retries frame-cap-sized
        // batches.
        let frame = ReportsFrame::encode(reports).map_err(ClientError::Protocol)?;
        self.push_frame(&frame)
    }

    /// Sends one already-encoded `Reports` frame as it is, in one write,
    /// and checks the reply against the frame's report count the way
    /// [`Self::push`] does: `Ingested` must count every report, and `Busy`
    /// must name a strict prefix.
    ///
    /// # Errors
    /// Transport errors, [`ClientError::Rejected`] when the server refused
    /// the frame, or a typed [`ClientError::Protocol`] for a reply that
    /// breaks those rules.
    pub fn push_frame(&mut self, frame: &ReportsFrame<'_>) -> Result<PushOutcome, ClientError> {
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()?;
        let count = frame.len();
        match self.read_reply()? {
            Frame::Ingested { accepted } if accepted == count as u64 => Ok(PushOutcome::Ingested),
            Frame::Ingested { accepted } => Err(ClientError::Protocol(format!(
                "server acknowledged {accepted} of {count} reports without Busy"
            ))),
            // `accepted` must be a strict prefix of the batch — a server
            // that accepted everything replies Ingested, and a count past
            // the batch end would make the caller's resend slice nonsense
            // (push_all indexes pending[accepted..]).
            Frame::Busy { accepted } if (accepted as usize) < count => {
                Ok(PushOutcome::Busy { accepted })
            }
            Frame::Busy { accepted } => Err(ClientError::Protocol(format!(
                "server answered Busy claiming {accepted} accepted of a {count}-report batch"
            ))),
            other => Err(unexpected("Ingested/Busy", &other)),
        }
    }

    /// Pushes every report, splitting the batch so each `Reports` frame
    /// stays under [`MAX_PAYLOAD_LEN`] and absorbing `Busy` backpressure
    /// by resending the unaccepted tail after the configured backoff
    /// (doubling, capped at 512× the base, while the server makes no
    /// progress). No report is ever skipped or sent twice.
    ///
    /// # Errors
    /// Same conditions as [`Self::push`]; additionally a typed error if a
    /// *single* report cannot fit one frame (an item set of ~2M members —
    /// far beyond any real domain), a bit report is wider than
    /// [`MAX_BIT_REPORT_SLOTS`](crate::frame::MAX_BIT_REPORT_SLOTS), or
    /// the server answers `Busy` without accepting anything
    /// [`MAX_STALLED_RETRIES`] times in a row (ingest paused or wedged) —
    /// a bounded, visible failure instead of retrying silently forever.
    pub fn push_all(&mut self, reports: &[ReportData]) -> Result<(), ClientError> {
        let backoff_cap = self.retry_backoff.saturating_mul(512);
        let mut rest = reports;
        while !rest.is_empty() {
            let count = frame_sized_prefix(rest)?;
            let (batch, tail) = rest.split_at(count);
            let mut pending = batch;
            let mut stalled = 0u32;
            let mut backoff = self.retry_backoff;
            loop {
                match self.push(pending)? {
                    PushOutcome::Ingested => break,
                    PushOutcome::Busy { accepted } => {
                        self.busy_retries += 1;
                        if accepted > 0 {
                            pending = &pending[accepted as usize..];
                            stalled = 0;
                            backoff = self.retry_backoff;
                        } else {
                            stalled += 1;
                            if stalled >= MAX_STALLED_RETRIES {
                                return Err(ClientError::Protocol(format!(
                                    "server answered Busy without progress {stalled} times \
                                     in a row — ingest appears stalled; {} reports of the \
                                     current batch unsent",
                                    pending.len()
                                )));
                            }
                            backoff = backoff.saturating_mul(2).min(backoff_cap);
                        }
                        std::thread::sleep(backoff);
                    }
                }
            }
            rest = tail;
        }
        Ok(())
    }

    /// Runs one typed request/response exchange: sends the query frame,
    /// settles on the reply, and reassembles chunked replies
    /// (`EstimatesPart` / `Snapshot` continuations) transparently. This is
    /// the *one* settle/reassemble loop — [`Self::query_estimates`],
    /// [`Self::query_snapshot`], [`Self::query_top_k`], and
    /// [`Self::checkpoint`] are thin wrappers over it, so the next query
    /// frame extends [`Query`]/[`Reply`] instead of cloning this logic.
    ///
    /// # Errors
    /// Transport errors, a server-side rejection
    /// ([`ClientError::Rejected`]), or a typed [`ClientError::Protocol`]
    /// when the server's reply does not answer the query or its chunks
    /// are inconsistent (out of order, disagreeing headers).
    pub fn query(&mut self, query: Query) -> Result<Reply, ClientError> {
        match query {
            Query::Estimates => match self.exchange(&Frame::Query)? {
                Frame::Estimates { users, estimates } => Ok(Reply::Estimates { users, estimates }),
                Frame::EstimatesPart {
                    users,
                    total,
                    offset,
                    estimates,
                } => {
                    let estimates =
                        self.reassemble("estimates", users, total, offset, estimates, |frame| {
                            match frame {
                                Frame::EstimatesPart {
                                    users,
                                    total,
                                    offset,
                                    estimates,
                                } => Ok((users, total, offset, estimates)),
                                other => Err(unexpected("EstimatesPart", &other)),
                            }
                        })?;
                    Ok(Reply::Estimates { users, estimates })
                }
                other => Err(unexpected("Estimates", &other)),
            },
            Query::TopK(k) => match self.exchange(&Frame::TopKQuery { k: k as u64 })? {
                Frame::Candidates { users, items } => Ok(Reply::Candidates { users, items }),
                other => Err(unexpected("Candidates", &other)),
            },
            Query::Snapshot => match self.exchange(&Frame::SnapshotQuery)? {
                Frame::Snapshot {
                    users,
                    total,
                    offset,
                    counts,
                } => {
                    let counts =
                        self.reassemble("snapshot", users, total, offset, counts, |frame| {
                            match frame {
                                Frame::Snapshot {
                                    users,
                                    total,
                                    offset,
                                    counts,
                                } => Ok((users, total, offset, counts)),
                                other => Err(unexpected("Snapshot", &other)),
                            }
                        })?;
                    Ok(Reply::Snapshot { users, counts })
                }
                other => Err(unexpected("Snapshot", &other)),
            },
            Query::Checkpoint => match self.exchange(&Frame::Checkpoint)? {
                Frame::CheckpointAck { users } => Ok(Reply::CheckpointAck { users }),
                other => Err(unexpected("CheckpointAck", &other)),
            },
        }
    }

    /// Reads and validates continuation chunks until the vector announced
    /// by the first chunk's header is complete. `next` projects each
    /// subsequent frame to its `(users, total, offset, chunk)` header or a
    /// typed mismatch error.
    fn reassemble<T>(
        &mut self,
        what: &str,
        users: u64,
        total: u64,
        offset: u64,
        first: Vec<T>,
        next: impl Fn(Frame) -> Result<(u64, u64, u64, Vec<T>), ClientError>,
    ) -> Result<Vec<T>, ClientError> {
        let mut acc = ChunkAccumulator::start(what, users, total, offset)?;
        acc.push(first)?;
        while !acc.complete() {
            let (users, total, offset, chunk) = next(self.read_reply()?)?;
            acc.check_next(what, users, total, offset)?;
            acc.push(chunk)?;
        }
        Ok(acc.into_vec())
    }

    /// Queries calibrated estimates over everything ingested so far (by
    /// any client). Returns `(users, estimates)`; estimates are the exact
    /// IEEE-754 bits the server computed. A thin wrapper over
    /// [`Self::query`] with [`Query::Estimates`], kept for callers that
    /// want the tuple shape.
    ///
    /// # Errors
    /// Same conditions as [`Self::query`].
    pub fn query_estimates(&mut self) -> Result<(u64, Vec<f64>), ClientError> {
        match self.query(Query::Estimates)? {
            Reply::Estimates { users, estimates } => Ok((users, estimates)),
            _ => unreachable!("query(Estimates) answers with Reply::Estimates by construction"),
        }
    }

    /// Queries the server's raw merged accumulator counts (the snapshot
    /// body). Returns `(users, counts)`. A thin wrapper over
    /// [`Self::query`] with [`Query::Snapshot`], kept for callers that
    /// want the tuple shape.
    ///
    /// # Errors
    /// Same conditions as [`Self::query`].
    pub fn query_snapshot(&mut self) -> Result<(u64, Vec<u64>), ClientError> {
        match self.query(Query::Snapshot)? {
            Reply::Snapshot { users, counts } => Ok((users, counts)),
            _ => unreachable!("query(Snapshot) answers with Reply::Snapshot by construction"),
        }
    }

    /// Queries the current top-`k` heavy-hitter candidates (ranked
    /// `(item, estimate)` pairs). A thin wrapper over [`Self::query`]
    /// with [`Query::TopK`], kept for callers that want the tuple shape.
    ///
    /// # Errors
    /// Same conditions as [`Self::query`].
    pub fn query_top_k(&mut self, k: usize) -> Result<(u64, Vec<(u64, f64)>), ClientError> {
        match self.query(Query::TopK(k))? {
            Reply::Candidates { users, items } => Ok((users, items)),
            _ => unreachable!("query(TopK) answers with Reply::Candidates by construction"),
        }
    }

    /// Asks the server to persist its checkpoint; returns the user count
    /// the written checkpoint covers. A thin wrapper over [`Self::query`]
    /// with [`Query::Checkpoint`].
    ///
    /// # Errors
    /// Same conditions as [`Self::query`]; notably
    /// [`ClientError::Rejected`] when the server has no checkpoint path
    /// configured or the write failed.
    pub fn checkpoint(&mut self) -> Result<u64, ClientError> {
        match self.query(Query::Checkpoint)? {
            Reply::CheckpointAck { users } => Ok(users),
            _ => {
                unreachable!("query(Checkpoint) answers with Reply::CheckpointAck by construction")
            }
        }
    }
}

fn unexpected(wanted: &str, got: &Frame) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}

/// Reassembles a chunked reply (`EstimatesPart` / `Snapshot` chunks):
/// chunks must arrive contiguously from offset 0 with consistent
/// `users`/`total` headers, and every non-final chunk must make progress —
/// so a hostile or buggy server yields a typed error, never a hang or a
/// silently misassembled vector. Memory grows only with elements actually
/// received (each chunk already passed the frame cap), not with the
/// claimed `total`.
struct ChunkAccumulator<T> {
    users: u64,
    total: u64,
    got: Vec<T>,
}

impl<T> ChunkAccumulator<T> {
    fn start(what: &str, users: u64, total: u64, offset: u64) -> Result<Self, ClientError> {
        if offset != 0 {
            return Err(ClientError::Protocol(format!(
                "{what} reply started at offset {offset}, not 0"
            )));
        }
        if usize::try_from(total).is_err() {
            return Err(ClientError::Protocol(format!(
                "{what} total {total} overflows usize"
            )));
        }
        Ok(Self {
            users,
            total,
            got: Vec::new(),
        })
    }

    fn check_next(
        &self,
        what: &str,
        users: u64,
        total: u64,
        offset: u64,
    ) -> Result<(), ClientError> {
        if users != self.users || total != self.total {
            return Err(ClientError::Protocol(format!(
                "{what} chunk header changed mid-reply: users {users} (was {}), \
                 total {total} (was {})",
                self.users, self.total
            )));
        }
        if offset != self.got.len() as u64 {
            return Err(ClientError::Protocol(format!(
                "{what} chunk at offset {offset}, expected {} (chunks must be contiguous)",
                self.got.len()
            )));
        }
        Ok(())
    }

    fn push(&mut self, chunk: Vec<T>) -> Result<(), ClientError> {
        // The decoder already rejected offset + len > total, and offsets
        // are contiguous, so this cannot overshoot — but a zero-progress
        // chunk before completion would loop forever waiting for more.
        if chunk.is_empty() && !self.complete() {
            return Err(ClientError::Protocol(
                "empty reply chunk before the vector was complete".into(),
            ));
        }
        self.got.extend(chunk);
        Ok(())
    }

    fn complete(&self) -> bool {
        self.got.len() as u64 == self.total
    }

    fn into_vec(self) -> Vec<T> {
        self.got
    }
}

/// Length of the longest prefix of `reports` whose `Reports` frame stays
/// under [`MAX_PAYLOAD_LEN`] (always ≥ 1 on success).
///
/// # Errors
/// A typed error when even the first report alone exceeds the cap.
fn frame_sized_prefix(reports: &[ReportData]) -> Result<usize, ClientError> {
    let mut payload = 4usize; // batch count prefix
    for (i, report) in reports.iter().enumerate() {
        payload += encoded_report_len(report);
        if payload > MAX_PAYLOAD_LEN {
            if i == 0 {
                return Err(ClientError::Protocol(format!(
                    "one report encodes to {payload} payload bytes, over the \
                     {MAX_PAYLOAD_LEN}-byte frame cap"
                )));
            }
            return Ok(i);
        }
    }
    Ok(reports.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_BIT_REPORT_SLOTS;
    use idldp_core::report::PackedBits;

    /// A fake server that speaks raw frames lets the client's defenses be
    /// tested against replies a real `ReportServer` never produces: a
    /// `Busy` claiming more accepted reports than the batch held must be a
    /// typed protocol error, not an out-of-bounds resend slice. The
    /// client-side wire-form check (the bit-report width cap) fires before
    /// any bytes are written.
    #[test]
    fn hostile_busy_counts_and_over_wide_bit_reports_are_typed_errors() {
        use idldp_core::budget::Epsilon;
        use idldp_core::grr::GeneralizedRandomizedResponse;
        use std::io::BufRead;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake_server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            match Frame::read_from(&mut reader).unwrap() {
                Some(Frame::Hello { .. }) => {}
                other => panic!("expected Hello, got {other:?}"),
            }
            Frame::HelloAck {
                users: 0,
                run_line: String::new(),
            }
            .write_to(&mut writer)
            .unwrap();
            writer.flush().unwrap();
            match Frame::read_from(&mut reader).unwrap() {
                Some(Frame::Reports(batch)) => assert_eq!(batch.len(), 3),
                other => panic!("expected Reports, got {other:?}"),
            }
            // Claim more accepted than the batch held.
            Frame::Busy { accepted: 1000 }
                .write_to(&mut writer)
                .unwrap();
            writer.flush().unwrap();
            // Drain until the client hangs up so its writes cannot fail on
            // a closed socket before it reads the Busy reply.
            let _ = reader.fill_buf();
        });

        let mechanism = GeneralizedRandomizedResponse::new(Epsilon::new(1.0).unwrap(), 4).unwrap();
        let (mut client, users) = ReportClient::connect(addr, &mechanism).unwrap();
        assert_eq!(users, 0);

        // Refused before any bytes hit the wire: a bit report over the
        // width cap is a typed error, not a panic.
        let too_wide = [ReportData::Bits(
            PackedBits::from_slots(&vec![0; MAX_BIT_REPORT_SLOTS + 1]).unwrap(),
        )];
        match client.push(&too_wide) {
            Err(ClientError::Protocol(message)) => {
                assert!(message.contains("MAX_BIT_REPORT_SLOTS"), "{message}")
            }
            other => panic!("expected a typed protocol error, got {other:?}"),
        }

        // The hostile Busy count is a typed error, not a panic.
        let batch = vec![ReportData::Value(1); 3];
        assert!(matches!(client.push(&batch), Err(ClientError::Protocol(_))));
        drop(client);
        fake_server.join().unwrap();
    }

    /// A server that answers `Busy` without ever accepting anything must
    /// turn into a bounded typed error, not an infinite silent retry loop
    /// (`idldp push` would otherwise hang forever against a paused or
    /// wedged server).
    #[test]
    fn zero_progress_busy_is_bounded() {
        use idldp_core::budget::Epsilon;
        use idldp_core::grr::GeneralizedRandomizedResponse;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake_server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            assert!(matches!(
                Frame::read_from(&mut reader).unwrap(),
                Some(Frame::Hello { .. })
            ));
            Frame::HelloAck {
                users: 0,
                run_line: String::new(),
            }
            .write_to(&mut writer)
            .unwrap();
            writer.flush().unwrap();
            let mut busies = 0u32;
            while let Ok(Some(Frame::Reports(_))) = Frame::read_from(&mut reader) {
                Frame::Busy { accepted: 0 }.write_to(&mut writer).unwrap();
                writer.flush().unwrap();
                busies += 1;
            }
            busies
        });

        let mechanism = GeneralizedRandomizedResponse::new(Epsilon::new(1.0).unwrap(), 4).unwrap();
        let (client, _) = ReportClient::connect(addr, &mechanism).unwrap();
        let mut client = client.with_retry_backoff(Duration::ZERO);
        let reports = vec![ReportData::Value(1); 8];
        match client.push_all(&reports) {
            Err(ClientError::Protocol(message)) => {
                assert!(message.contains("stalled"), "unexpected reason: {message}")
            }
            other => panic!("expected a typed stall error, got {other:?}"),
        }
        assert_eq!(client.busy_retries(), u64::from(MAX_STALLED_RETRIES));
        drop(client);
        assert_eq!(fake_server.join().unwrap(), MAX_STALLED_RETRIES);
    }

    #[test]
    fn frame_sized_prefix_packs_under_the_cap() {
        // ~1 MiB encoded per report: 16 fit (4 + 16·(5 + 2^20) < 16 MiB),
        // a 17th would not.
        let wide = ReportData::Bits(PackedBits::from_slots(&vec![1; 8 << 20]).unwrap());
        let per = encoded_report_len(&wide);
        let fits = (MAX_PAYLOAD_LEN - 4) / per;
        let reports: Vec<ReportData> = std::iter::repeat_n(wide, fits + 3).collect();
        assert_eq!(frame_sized_prefix(&reports).unwrap(), fits);
        assert_eq!(frame_sized_prefix(&reports[..fits]).unwrap(), fits);
        // Small batches pass through whole.
        let small = vec![ReportData::Value(1); 1000];
        assert_eq!(frame_sized_prefix(&small).unwrap(), 1000);
        // A single impossible report is a typed error, not a panic or loop.
        let huge = ReportData::ItemSet(vec![0; (MAX_PAYLOAD_LEN / 8) + 1]);
        assert!(matches!(
            frame_sized_prefix(&[huge]),
            Err(ClientError::Protocol(_))
        ));
    }
}
