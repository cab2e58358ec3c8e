//! The length-prefixed binary frame codec of the ingestion service.
//!
//! Every message on the wire — in either direction — is one *frame*:
//!
//! ```text
//! frame   := tag(u8)  payload_len(u32 LE)  payload
//! ```
//!
//! The payload grammar is the frame table in this file (`frame_table!`):
//! one line per [`Frame`] variant giving its tag and its fields in wire
//! order. The encoder, the decoder and the payload length are all
//! generated from that table, so the grammar is written once. Strings and
//! vectors carry a `u32` length prefix; all integers are
//! little-endian, floats travel as their IEEE-754 bit patterns
//! ([`f64::to_bits`]), so estimates received over TCP are *bit-identical*
//! to the server's local computation. Reports are framed in their native
//! compact wire shape ([`ReportData`]): bit vectors are packed 8 slots per
//! byte, categorical values are one `u64`, OLH reports are the `(seed,
//! value)` pair, and subset-selection reports are the item list — the
//! transport twin of the in-memory shapes introduced in
//! [`idldp_core::report`].
//!
//! Decoding is *total*: any byte sequence either parses to a frame or
//! returns a typed [`FrameError`] — truncated input, an oversized length
//! prefix ([`MAX_PAYLOAD_LEN`]), an unknown tag, or malformed payload
//! content. Nothing panics and nothing allocates proportionally to a
//! length field before the bytes backing it have arrived. A bit report
//! decodes into its owned packed form ([`idldp_core::report::PackedBits`])
//! as a copy of the wire bytes into words, after the
//! [`MAX_BIT_REPORT_SLOTS`] width cap, the truncation test and the padding
//! check (the property suite in `tests/proptest_frames.rs` hammers all of
//! this with arbitrary mutations).
//!
//! A frame need not be decoded to be checked. The event loops hand a
//! backend each frame as it arrived ([`WireFrame`]). The report grammar
//! is one walker, [`idldp_core::report::walk_report`], and this file
//! keeps the frame header and the frame table around it. The decoder
//! builds each report from what the walker reads. A [`ReportsFrame`] is a
//! `Reports` frame checked against the grammar and counted without
//! building a [`ReportData`]: the coordinator forwards those bytes
//! unchanged. The collector admits a `Reports` frame
//! ([`WireFrame::admit_reports`]) into a [`CheckedReports`]: the same
//! walk, with the tenant's report rules applied to each report on the
//! way, keeping the received bytes as the batch. All three accept the
//! same frames and fail with the same error.

use idldp_core::report::{
    walk_batch, walk_report, AdmitError, CheckedReports, ReportData, ReportShape, REPORT_BITS,
    REPORT_HASHED, REPORT_ITEM_SET, REPORT_VALUE,
};
use idldp_core::wire::{WireCursor, WireError};
use std::borrow::Cow;
use std::io::{Read, Write};

/// Protocol version negotiated in [`Frame::Hello`]. Bump on any grammar
/// change; servers reject other versions with [`Frame::Reject`].
///
/// Version 2 added the pinned cardinality `k` to the item-set shape in
/// [`Frame::Hello`], so handshakes agree on the exact set size
/// subset-selection reports must carry.
///
/// Version 3 added the distributed-aggregation surface: the server's
/// run-identity line in [`Frame::HelloAck`] (so a coordinator can refuse
/// collectors running a different mechanism/m/ε/seed), the raw-count
/// snapshot fetch ([`Frame::SnapshotQuery`] / [`Frame::Snapshot`]), and
/// chunked estimate replies ([`Frame::EstimatesPart`]) for domains whose
/// estimate vector exceeds one frame.
///
/// Version 4 added tenancy: a tenant-name string at the end of
/// [`Frame::Hello`] selects which of the server's streams the connection
/// addresses, and the [`Frame::HelloAck`] `run_line` is that tenant's run
/// identity. Servers accept this version only. A v3 `Hello` has no tenant
/// field, so it does not decode, and the server answers it with a typed
/// `handshake:` [`Frame::Reject`].
pub const PROTOCOL_VERSION: u32 = 4;

/// Elements per chunk of a chunked reply ([`Frame::EstimatesPart`] /
/// [`Frame::Snapshot`]): 2²⁰ × 8-byte elements = 8 MiB of payload per
/// part, comfortably under [`MAX_PAYLOAD_LEN`].
pub const CHUNK_ELEMS: usize = 1 << 20;

/// Hard ceiling on a frame's payload length (16 MiB). A length prefix
/// above this is rejected *before* any allocation, so a corrupt or hostile
/// peer cannot make the decoder reserve unbounded memory.
pub const MAX_PAYLOAD_LEN: usize = 16 << 20;

pub use idldp_core::report::MAX_BIT_REPORT_SLOTS;

/// Typed decode/transport errors. Every malformed input maps to one of
/// these — the codec never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The input ended before the frame did.
    Truncated {
        /// Bytes the decoder still needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// The declared payload length.
        len: usize,
        /// The allowed maximum.
        max: usize,
    },
    /// The frame tag byte is not part of the protocol.
    UnknownTag(u8),
    /// The payload violates its tag's grammar (bad count, bad UTF-8,
    /// nonzero padding bits, trailing bytes, …).
    Malformed(String),
    /// A `Hello` of a protocol version other than [`PROTOCOL_VERSION`],
    /// refused by its leading version word before the rest is parsed.
    UnsupportedVersion(u32),
    /// An I/O error while reading or writing a socket.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            FrameError::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: payload of {len} bytes exceeds max {max}"
                )
            }
            FrameError::UnknownTag(tag) => write!(f, "unknown frame tag 0x{tag:02x}"),
            FrameError::Malformed(detail) => write!(f, "malformed frame: {detail}"),
            FrameError::UnsupportedVersion(version) => write!(
                f,
                "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
            ),
            FrameError::Io(detail) => write!(f, "frame i/o: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e.to_string())
    }
}

/// The wire reader's errors are the frame's: a read past the payload is a
/// truncated frame, a grammar break a malformed one.
impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { needed, available } => {
                FrameError::Truncated { needed, available }
            }
            WireError::Malformed(detail) => FrameError::Malformed(detail),
        }
    }
}

/// One protocol message. Client→server frames: `Hello`, `Reports`,
/// `Query`, `TopKQuery`, `Checkpoint`, `SnapshotQuery`. Server→client
/// frames: `HelloAck`, `Ingested`, `Busy`, `Estimates`, `EstimatesPart`,
/// `Candidates`, `CheckpointAck`, `Snapshot`, `Reject`. The codec itself
/// is direction-agnostic — both sides share it, so there is exactly one
/// implementation of the grammar.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Connection handshake: the client announces the mechanism
    /// configuration its reports were perturbed under. The server accepts
    /// ([`Frame::HelloAck`]) only if the config matches its own mechanism —
    /// mixing reports from different mechanisms would silently corrupt the
    /// accumulated counts.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// The mechanism's stable kind name
        /// ([`idldp_core::mechanism::Mechanism::kind`]).
        kind: String,
        /// The wire shape the client will send.
        shape: ReportShape,
        /// The report width
        /// ([`idldp_core::mechanism::Mechanism::report_len`]).
        report_len: u64,
        /// The mechanism's plain-LDP budget as raw IEEE-754 bits
        /// ([`idldp_core::mechanism::Mechanism::ldp_epsilon`]). Two
        /// mechanisms of the same kind and width but different ε produce
        /// incompatible counts, so the server refuses the mismatch just
        /// like its checkpoint run-identity stamp does.
        ldp_eps_bits: u64,
        /// The tenant (stream) this connection addresses. Empty means the
        /// default tenant.
        tenant: String,
    },
    /// Handshake accepted; `users` reports are already held server-side
    /// (nonzero after a checkpoint restore).
    HelloAck {
        /// Users held: restored at start plus every report accepted
        /// since, folded or still queued.
        users: u64,
        /// The server's run-identity line (the same stamp its checkpoints
        /// carry): mechanism kind, shape, width, ε, plus the CLI config
        /// stamp (`mechanism=… m=… eps=… seed=…`) when one was set. A
        /// coordinator compares these lines across collectors and refuses
        /// a mismatched fleet — merged counts from different configs would
        /// be silently meaningless.
        run_line: String,
    },
    /// A batch of perturbed reports in the mechanism's native wire shape.
    Reports(Vec<ReportData>),
    /// Every report of the batch was accepted into the ingest queue.
    Ingested {
        /// Number of reports accepted (= the batch size).
        accepted: u64,
    },
    /// The bounded ingest queue filled up mid-batch: the first `accepted`
    /// reports were queued, the rest were *not* — the client must resend
    /// them. This is the backpressure signal; the server never silently
    /// drops an accepted report.
    Busy {
        /// Reports accepted before the queue filled.
        accepted: u64,
    },
    /// Request calibrated frequency estimates. The server first waits for
    /// every previously accepted report to be folded, so the reply
    /// reflects all reports the client has pushed.
    Query,
    /// Estimates reply. `estimates` is empty while `users == 0`.
    Estimates {
        /// Users reflected in the estimates.
        users: u64,
        /// Per-item calibrated frequency estimates (exact IEEE-754 bits).
        estimates: Vec<f64>,
    },
    /// Request the current top-`k` heavy-hitter candidates.
    TopKQuery {
        /// How many candidates to return.
        k: u64,
    },
    /// Top-k reply: `(item, estimate)` pairs, largest estimate first, ties
    /// toward the smaller item — the canonical
    /// [`idldp_num::vecops::top_k_indices`] ranking, identical to batch
    /// `identify_top_k`.
    Candidates {
        /// Users reflected in the candidate estimates.
        users: u64,
        /// Ranked `(item, estimate)` pairs.
        items: Vec<(u64, f64)>,
    },
    /// Ask the server to persist its accumulator snapshot to its
    /// configured checkpoint path (atomic temp-file + rename).
    Checkpoint,
    /// Checkpoint written; `users` reports are covered by it.
    CheckpointAck {
        /// Users covered by the written checkpoint.
        users: u64,
    },
    /// Typed refusal: handshake mismatch, invalid report, or an
    /// unsupported request. `accepted` reports earlier in the same batch
    /// were still queued (zero for non-ingest refusals).
    Reject {
        /// Reports of the offending batch accepted before the refusal.
        accepted: u64,
        /// Human-readable reason.
        message: String,
    },
    /// Request the server's raw accumulator counts (the
    /// `AccumulatorSnapshot` body). Integer counts merge exactly under any
    /// partition, so this — not the calibrated float estimates — is what a
    /// coordinator fetches from each collector before estimating once over
    /// the merged vector. Linearized like [`Frame::Query`]: the reply
    /// reflects every report accepted before it.
    SnapshotQuery,
    /// One chunk of a snapshot reply. `total` is the full count-vector
    /// length; `offset` is where this chunk starts. A snapshot that fits
    /// one frame arrives as a single chunk (`offset == 0`,
    /// `counts.len() == total`); larger ones arrive as contiguous chunks
    /// in order, each under [`MAX_PAYLOAD_LEN`].
    Snapshot {
        /// Users reflected in the counts.
        users: u64,
        /// Length of the complete count vector.
        total: u64,
        /// Element offset of this chunk.
        offset: u64,
        /// This chunk's counts.
        counts: Vec<u64>,
    },
    /// One chunk of an estimates reply that exceeds one frame. Same
    /// header as [`Frame::Snapshot`]; the client reassembles contiguous
    /// chunks into the full vector. Replies that fit one frame still use
    /// plain [`Frame::Estimates`], so small-domain wire bytes are
    /// unchanged from protocol 2.
    EstimatesPart {
        /// Users reflected in the estimates.
        users: u64,
        /// Length of the complete estimate vector.
        total: u64,
        /// Element offset of this chunk.
        offset: u64,
        /// This chunk's estimates (exact IEEE-754 bits).
        estimates: Vec<f64>,
    },
}

/// The tags the codec needs outside the frame table: a `Hello` is refused
/// by its version word before it is parsed, [`try_encode_reports_frame`]
/// writes a `Reports` frame from a borrowed slice, and
/// [`encode_reply_parts`] writes the chunk frames of an over-cap reply
/// from the reply's own vector.
const TAG_HELLO: u8 = 0x01;
const TAG_REPORTS: u8 = 0x03;
const TAG_SNAPSHOT: u8 = 0x0E;
const TAG_ESTIMATES_PART: u8 = 0x0F;

const SHAPE_BITS: u8 = 0;
const SHAPE_VALUE: u8 = 1;
const SHAPE_HASHED: u8 = 2;
const SHAPE_ITEM_SET: u8 = 3;

/// One payload field's wire form: the one place a field type is written,
/// sized and read. The frame table composes every frame from these.
trait Field: Sized {
    /// The fewest wire bytes one value takes, which bounds a vector's
    /// element count by the payload actually received.
    const MIN_LEN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn wire_len(&self) -> usize;
    /// Reads one value; `what` names the field in a malformed-frame error.
    fn read(c: &mut WireCursor<'_>, what: &str) -> Result<Self, FrameError>;
}

impl Field for u32 {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn wire_len(&self) -> usize {
        4
    }
    fn read(c: &mut WireCursor<'_>, _: &str) -> Result<Self, FrameError> {
        Ok(c.read_u32()?)
    }
}

impl Field for u64 {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn wire_len(&self) -> usize {
        8
    }
    fn read(c: &mut WireCursor<'_>, _: &str) -> Result<Self, FrameError> {
        Ok(c.read_u64()?)
    }
}

/// Floats travel as their IEEE-754 bits, so they arrive bit-identical.
impl Field for f64 {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn wire_len(&self) -> usize {
        8
    }
    fn read(c: &mut WireCursor<'_>, _: &str) -> Result<Self, FrameError> {
        Ok(c.read_u64().map(f64::from_bits)?)
    }
}

/// A `u32` byte length, then UTF-8.
impl Field for String {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn wire_len(&self) -> usize {
        4 + self.len()
    }
    fn read(c: &mut WireCursor<'_>, what: &str) -> Result<Self, FrameError> {
        let len = c.read_count(what, 1)?;
        String::from_utf8(c.take(len)?.to_vec())
            .map_err(|_| FrameError::Malformed(format!("{what} is not valid UTF-8")))
    }
}

/// A shape tag byte, then the shape's parameter as a `u64` when it has one.
impl Field for ReportShape {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            ReportShape::Bits => out.push(SHAPE_BITS),
            ReportShape::Value => out.push(SHAPE_VALUE),
            ReportShape::Hashed { range } => {
                out.push(SHAPE_HASHED);
                (range as u64).put(out);
            }
            ReportShape::ItemSet { k } => {
                out.push(SHAPE_ITEM_SET);
                (k as u64).put(out);
            }
        }
    }
    fn wire_len(&self) -> usize {
        match self {
            ReportShape::Hashed { .. } | ReportShape::ItemSet { .. } => 1 + 8,
            ReportShape::Bits | ReportShape::Value => 1,
        }
    }
    fn read(c: &mut WireCursor<'_>, _: &str) -> Result<Self, FrameError> {
        match c.read_u8()? {
            SHAPE_BITS => Ok(ReportShape::Bits),
            SHAPE_VALUE => Ok(ReportShape::Value),
            SHAPE_HASHED => Ok(ReportShape::Hashed {
                range: c.read_len("hash range")?,
            }),
            SHAPE_ITEM_SET => Ok(ReportShape::ItemSet {
                k: c.read_len("item-set cardinality")?,
            }),
            other => Err(FrameError::Malformed(format!("unknown shape tag {other}"))),
        }
    }
}

/// A top-k candidate: the item, then its estimate.
impl Field for (u64, f64) {
    const MIN_LEN: usize = 16;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn wire_len(&self) -> usize {
        16
    }
    fn read(c: &mut WireCursor<'_>, what: &str) -> Result<Self, FrameError> {
        Ok((u64::read(c, what)?, f64::read(c, what)?))
    }
}

/// A field whose every value takes exactly [`Field::MIN_LEN`] bytes.
trait FixedWidth: Field {}
impl FixedWidth for u64 {}
impl FixedWidth for f64 {}
impl FixedWidth for (u64, f64) {}

/// A `u32` element count, then the elements. The count is checked against
/// the payload left before anything is reserved, so the reservation is
/// exact and never exceeds what the frame carries; the elements' bytes are
/// then taken in one step and decoded from that slice.
impl<T: FixedWidth> Field for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_elems(out, self);
    }
    fn wire_len(&self) -> usize {
        4 + T::MIN_LEN * self.len()
    }
    fn read(c: &mut WireCursor<'_>, what: &str) -> Result<Self, FrameError> {
        let count = c.read_count(what, T::MIN_LEN)?;
        let mut elems = WireCursor::new(c.take(count * T::MIN_LEN)?);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(T::read(&mut elems, what)?);
        }
        Ok(out)
    }
}

/// A `u32` element count, then the elements: the wire form of a
/// `Vec<T>` field, written from a borrowed slice.
fn put_elems<T: FixedWidth>(out: &mut Vec<u8>, elems: &[T]) {
    (elems.len() as u32).put(out);
    for x in elems {
        x.put(out);
    }
}

/// The report batch: the hot path, written by hand over [`put_report`] and
/// the core report walker ([`walk_batch`]), which names the field itself
/// (the frame table gives it the same name, `Reports.reports`).
impl Field for Vec<ReportData> {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_reports(out, self).unwrap_or_else(|e| panic!("{e}"));
    }
    fn wire_len(&self) -> usize {
        4 + self.iter().map(encoded_report_len).sum::<usize>()
    }
    fn read(c: &mut WireCursor<'_>, _: &str) -> Result<Self, FrameError> {
        // The reservation is clamped: an in-memory `ReportData` is ~6× the
        // minimum wire size, so trusting a hostile count even within the
        // payload bound would reserve far more than the bytes received —
        // the Vec grows to the true count as reports actually parse.
        Ok(walk_batch(
            c,
            |count| Vec::with_capacity(count.min(1 << 16)),
            |reports, _, report| {
                reports.push(report.to_data()?);
                Ok(())
            },
        )?)
    }
}

/// Refuses a protocol version other than [`PROTOCOL_VERSION`].
///
/// # Errors
/// [`FrameError::UnsupportedVersion`] naming `version`.
pub(crate) fn check_version(version: u32) -> Result<(), FrameError> {
    if version != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Refuses a `Hello` of another protocol version by its leading version
/// word, before the rest is parsed: the codec knows only this version's
/// `Hello` layout (a v3 `Hello` has no tenant field), so parsing on would
/// report an old client as a truncated frame instead of by its version.
fn check_hello_version(tag: u8, payload: &[u8]) -> Result<(), FrameError> {
    match payload.first_chunk() {
        Some(&word) if tag == TAG_HELLO => check_version(u32::from_le_bytes(word)),
        _ => Ok(()),
    }
}

/// Rejects a chunk reply whose claimed span falls outside its own `total`
/// — keeps non-contiguity the *only* invalid state a reassembling client
/// has to detect.
fn check_chunk_bounds(frame: &Frame) -> Result<(), FrameError> {
    let (what, total, offset, count) = match frame {
        Frame::Snapshot {
            total,
            offset,
            counts,
            ..
        } => ("snapshot chunk", *total, *offset, counts.len()),
        Frame::EstimatesPart {
            total,
            offset,
            estimates,
            ..
        } => ("estimates chunk", *total, *offset, estimates.len()),
        _ => return Ok(()),
    };
    let end = offset.checked_add(count as u64);
    if end.is_none_or(|end| end > total) {
        return Err(FrameError::Malformed(format!(
            "{what} at offset {offset} with {count} elements overruns total {total}"
        )));
    }
    Ok(())
}

/// Encodes an estimates or snapshot reply too large for one frame as
/// contiguous chunk frames of [`CHUNK_ELEMS`] elements — a
/// [`Frame::EstimatesPart`] or [`Frame::Snapshot`] sequence — written
/// straight from the reply's vector into one buffer. `None` for any other
/// frame. The collector and the coordinator encode replies through this,
/// so chunking behaves identically everywhere.
pub(crate) fn encode_reply_parts(frame: &Frame) -> Option<Vec<u8>> {
    match frame {
        Frame::Estimates { users, estimates } => {
            Some(encode_parts(TAG_ESTIMATES_PART, *users, estimates))
        }
        Frame::Snapshot { users, counts, .. } => Some(encode_parts(TAG_SNAPSHOT, *users, counts)),
        _ => None,
    }
}

/// The chunk frames of one reply vector, in the field order the frame
/// table declares for `Snapshot` and `EstimatesPart`: `users`, `total`,
/// the chunk's `offset`, then its elements as a counted vector.
fn encode_parts<T: FixedWidth>(tag: u8, users: u64, elems: &[T]) -> Vec<u8> {
    const FIXED: usize = 3 * 8 + 4;
    let parts = elems.len().div_ceil(CHUNK_ELEMS);
    let mut out = Vec::with_capacity(parts * (5 + FIXED) + T::MIN_LEN * elems.len());
    for (i, chunk) in elems.chunks(CHUNK_ELEMS).enumerate() {
        out.push(tag);
        ((FIXED + T::MIN_LEN * chunk.len()) as u32).put(&mut out);
        users.put(&mut out);
        (elems.len() as u64).put(&mut out);
        ((i * CHUNK_ELEMS) as u64).put(&mut out);
        put_elems(&mut out, chunk);
    }
    out
}

/// A frame's 5-byte header, in a buffer with room for its payload. The
/// `u32` length prefix is a hard invariant (a 4 GiB frame is
/// unconstructible through the public senders, which split or refuse
/// first).
fn frame_header(tag: u8, payload_len: usize) -> Vec<u8> {
    assert!(
        u32::try_from(payload_len).is_ok(),
        "frame payload exceeds the u32 length prefix"
    );
    let mut out = Vec::with_capacity(5 + payload_len);
    out.push(tag);
    (payload_len as u32).put(&mut out);
    out
}

/// Appends the [`Frame::Reports`] payload of a borrowed slice to `out`.
///
/// # Errors
/// Why the first unencodable report cannot travel (see [`put_report`]);
/// `out` then holds a partial payload and must be discarded.
fn put_reports(out: &mut Vec<u8>, reports: &[ReportData]) -> Result<(), String> {
    (reports.len() as u32).put(out);
    for r in reports {
        put_report(out, r)?;
    }
    Ok(())
}

/// Encodes a [`Frame::Reports`] frame from a borrowed slice, or says why
/// the batch cannot travel: a bit report wider than
/// [`MAX_BIT_REPORT_SLOTS`], which no compliant peer could decode.
pub(crate) fn try_encode_reports_frame(reports: &[ReportData]) -> Result<Vec<u8>, String> {
    let payload_len = 4 + reports.iter().map(encoded_report_len).sum::<usize>();
    let mut out = frame_header(TAG_REPORTS, payload_len);
    put_reports(&mut out, reports)?;
    debug_assert_eq!(out.len(), 5 + payload_len, "encoded_report_len drifted");
    Ok(out)
}

/// Encodes a [`Frame::Reports`] frame directly from a borrowed slice —
/// the sender-side hot path, sparing the clone that building an owned
/// [`Frame::Reports`] would force on every (re)send.
///
/// # Panics
/// Panics on a bit report wider than [`MAX_BIT_REPORT_SLOTS`], which no
/// compliant peer could decode; callers that take reports from untrusted
/// input use the fallible path instead (as
/// [`crate::client::ReportClient::push`] does, returning a typed error).
pub fn encode_reports_frame(reports: &[ReportData]) -> Vec<u8> {
    try_encode_reports_frame(reports).unwrap_or_else(|e| panic!("{e}"))
}

/// Exact encoded size of one report inside a [`Frame::Reports`] payload —
/// what senders use to pack batches under [`MAX_PAYLOAD_LEN`] without
/// encoding twice.
pub fn encoded_report_len(report: &ReportData) -> usize {
    match report {
        ReportData::Bits(bits) => 1 + 4 + bits.slots().div_ceil(8),
        ReportData::Value(_) => 1 + 8,
        ReportData::Hashed { .. } => 1 + 8 + 8,
        ReportData::ItemSet(items) => 1 + 4 + 8 * items.len(),
    }
}

/// Encodes one report in its compact wire form. A bit report is already
/// packed: the wire carries the first `⌈slots/8⌉` little-endian bytes of
/// its words, 8 slots per byte, LSB first.
///
/// # Errors
/// A bit report over the [`MAX_BIT_REPORT_SLOTS`] width cap, refused
/// *before* the wire because every compliant decoder rejects it.
fn put_report(out: &mut Vec<u8>, report: &ReportData) -> Result<(), String> {
    match report {
        ReportData::Bits(bits) => {
            if bits.slots() > MAX_BIT_REPORT_SLOTS {
                return Err(format!(
                    "bit report of {} slots exceeds MAX_BIT_REPORT_SLOTS ({MAX_BIT_REPORT_SLOTS})",
                    bits.slots()
                ));
            }
            out.push(REPORT_BITS);
            (bits.slots() as u32).put(out);
            bits.extend_le_bytes(out);
        }
        ReportData::Value(v) => {
            out.push(REPORT_VALUE);
            (*v as u64).put(out);
        }
        ReportData::Hashed { seed, value } => {
            out.push(REPORT_HASHED);
            seed.put(out);
            (*value as u64).put(out);
        }
        ReportData::ItemSet(items) => {
            out.push(REPORT_ITEM_SET);
            (items.len() as u32).put(out);
            for &item in items {
                (item as u64).put(out);
            }
        }
    }
    Ok(())
}

/// Checks a `Reports` payload against the grammar the decoder applies —
/// the same walk, the same errors — and returns its report count.
fn check_reports_payload(payload: &[u8]) -> Result<usize, FrameError> {
    let mut c = WireCursor::new(payload);
    let count = walk_batch(&mut c, |count| count, |_, _, _| Ok(()))?;
    c.finish("frame payload")?;
    Ok(count)
}

/// The frame table: each variant's tag and its fields in wire order. It
/// is the payload grammar. `tag`, the payload encoder, the payload decoder
/// and [`Frame::encoded_payload_len`] are all generated from it, so a field
/// is declared once. A missing or misnamed field does not compile: the
/// patterns name every field and the decoder builds the variant literally.
/// Fields decode in the order listed, each through its [`Field`] impl,
/// which the variant's field type selects.
macro_rules! frame_table {
    ($($tag:tt => $variant:ident $(($tuple:ident))? $({ $($field:ident),* })?,)*) => {
        impl Frame {
            fn tag(&self) -> u8 {
                match self {
                    $(Frame::$variant { .. } => $tag,)*
                }
            }

            fn put_payload(&self, out: &mut Vec<u8>) {
                match self {
                    $(Frame::$variant $(($tuple))? $({ $($field),* })? => {
                        $($tuple.put(out);)?
                        $($($field.put(out);)*)?
                    })*
                }
            }

            /// Exact byte length of this frame's payload, computed
            /// arithmetically (the per-shape twin of [`encoded_report_len`])
            /// — what [`Self::fits_one_frame`] uses so that sizing a reply
            /// never builds and discards the actual payload bytes.
            pub fn encoded_payload_len(&self) -> usize {
                match self {
                    $(Frame::$variant $(($tuple))? $({ $($field),* })? => {
                        0 $(+ $tuple.wire_len())? $($(+ $field.wire_len())*)?
                    })*
                }
            }

            fn parse_payload(tag: u8, payload: &[u8]) -> Result<Frame, FrameError> {
                check_hello_version(tag, payload)?;
                let mut c = WireCursor::new(payload);
                let frame = match tag {
                    $($tag => Frame::$variant
                        $((Field::read(
                            &mut c,
                            concat!(stringify!($variant), ".", stringify!($tuple)),
                        )?))?
                        $({ $($field: Field::read(
                            &mut c,
                            concat!(stringify!($variant), ".", stringify!($field)),
                        )?),* })?,)*
                    other => return Err(FrameError::UnknownTag(other)),
                };
                c.finish("frame payload")?;
                check_chunk_bounds(&frame)?;
                Ok(frame)
            }
        }
    };
}

frame_table! {
    TAG_HELLO => Hello { version, kind, shape, report_len, ldp_eps_bits, tenant },
    0x02 => HelloAck { users, run_line },
    TAG_REPORTS => Reports(reports),
    0x04 => Ingested { accepted },
    0x05 => Busy { accepted },
    0x06 => Query,
    0x07 => Estimates { users, estimates },
    0x08 => TopKQuery { k },
    0x09 => Candidates { users, items },
    0x0A => Checkpoint,
    0x0B => CheckpointAck { users },
    0x0C => Reject { accepted, message },
    0x0D => SnapshotQuery,
    TAG_SNAPSHOT => Snapshot { users, total, offset, counts },
    TAG_ESTIMATES_PART => EstimatesPart { users, total, offset, estimates },
}

impl Frame {
    /// A [`Frame::Reject`] that accepted no reports.
    pub fn reject(message: impl Into<String>) -> Frame {
        Frame::Reject {
            accepted: 0,
            message: message.into(),
        }
    }

    /// Encodes the frame — header and payload — into bytes.
    pub fn encode(&self) -> Vec<u8> {
        let len = self.encoded_payload_len();
        let mut out = frame_header(self.tag(), len);
        self.put_payload(&mut out);
        debug_assert_eq!(out.len(), 5 + len, "encoded_payload_len drifted");
        out
    }

    /// `true` when this frame's payload fits under [`MAX_PAYLOAD_LEN`] —
    /// a peer rejects anything larger, so senders of variably sized
    /// frames (estimate replies, report batches) check before writing and
    /// substitute a typed refusal instead of killing the connection.
    pub fn fits_one_frame(&self) -> bool {
        self.encoded_payload_len() <= MAX_PAYLOAD_LEN
    }

    /// Decodes exactly one frame from `buf`, requiring the buffer to end
    /// with it (no trailing bytes).
    ///
    /// # Errors
    /// Any of the typed [`FrameError`] conditions; never panics.
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        let (tag, payload) = split_frame(buf)?;
        Self::parse_payload(tag, payload)
    }

    /// Writes the frame to a stream (one `write_all`; callers flush).
    ///
    /// # Errors
    /// Propagates I/O errors as [`FrameError::Io`].
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), FrameError> {
        w.write_all(&self.encode())?;
        Ok(())
    }

    /// Reads one frame from a stream through a [`FrameAssembler`], never
    /// past the frame's end, so a pipelined next frame stays in the
    /// stream. Returns `Ok(None)` on a clean EOF at a frame boundary (the
    /// peer closed the connection); EOF *inside* a frame is
    /// [`FrameError::Truncated`].
    ///
    /// # Errors
    /// Typed decode errors or [`FrameError::Io`].
    pub fn read_from<R: Read>(r: &mut R) -> Result<Option<Frame>, FrameError> {
        let mut asm = FrameAssembler::new();
        let mut buf = Vec::new();
        loop {
            if let Some(frame) = asm.next_frame() {
                return Ok(Some(frame));
            }
            buf.resize(asm.pending().min(READ_CHUNK), 0);
            match r.read(&mut buf) {
                Ok(0) => return asm.eof_truncation().map_or(Ok(None), Err),
                Ok(n) => asm.feed(&buf[..n])?,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Splits a buffer holding exactly one frame into its tag and payload.
///
/// # Errors
/// A truncated or oversized header, a payload shorter than its length
/// prefix, or bytes after the frame end.
fn split_frame(buf: &[u8]) -> Result<(u8, &[u8]), FrameError> {
    let header = buf.first_chunk().ok_or(FrameError::Truncated {
        needed: 5,
        available: buf.len(),
    })?;
    let (tag, len) = read_header(header)?;
    if buf.len() - 5 < len {
        return Err(FrameError::Truncated {
            needed: len,
            available: buf.len() - 5,
        });
    }
    if buf.len() - 5 > len {
        return Err(FrameError::Malformed(format!(
            "{} bytes after the frame end",
            buf.len() - 5 - len
        )));
    }
    Ok((tag, &buf[5..]))
}

/// One frame as it arrived, header and payload, not yet decoded. The event
/// loops hand each one to their backend: the collector admits a `Reports`
/// frame ([`Self::admit_reports`]) and decodes the rest
/// ([`Self::decode`]); the coordinator checks a `Reports` frame
/// ([`Self::check_reports`]) and forwards its bytes.
///
/// The bytes always hold the 5-byte header and exactly the payload it
/// announces, under [`MAX_PAYLOAD_LEN`]: both constructors (the event
/// loops' assembler and [`Self::new`]) check that, so the header reads
/// below index a buffer known to hold it.
#[derive(Debug, PartialEq, Eq)]
pub struct WireFrame {
    /// The 5-byte header, then the payload it announces.
    bytes: Vec<u8>,
}

impl WireFrame {
    /// One frame from its bytes, as a peer sent it.
    ///
    /// # Errors
    /// The header is cut short or over [`MAX_PAYLOAD_LEN`], or the bytes
    /// do not end with the payload it announces.
    pub fn new(bytes: Vec<u8>) -> Result<Self, FrameError> {
        split_frame(&bytes)?;
        Ok(Self { bytes })
    }

    /// The frame's tag byte.
    fn tag(&self) -> u8 {
        self.bytes[0]
    }

    /// Whether this is a `Reports` frame.
    pub fn is_reports(&self) -> bool {
        self.tag() == TAG_REPORTS
    }

    /// The whole frame: header, then payload.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Decodes the frame, as [`Frame::decode`] would its bytes.
    ///
    /// # Errors
    /// Any typed [`FrameError`] of the payload grammar.
    pub fn decode(&self) -> Result<Frame, FrameError> {
        Frame::parse_payload(self.tag(), &self.bytes[5..])
    }

    /// Checks a `Reports` frame against the report grammar without
    /// decoding it (see [`ReportsFrame::check`]).
    ///
    /// # Errors
    /// The error [`Self::decode`] would return, or a typed refusal of a
    /// frame of another kind.
    pub fn check_reports(&self) -> Result<ReportsFrame<'_>, FrameError> {
        ReportsFrame::from_parts(self.tag(), &self.bytes)
    }

    /// Admits a `Reports` frame against a tenant's `shape` and
    /// `report_len`: one walk applies the report grammar and the report
    /// rules ([`CheckedReports::check`]), and the frame's own buffer
    /// becomes the batch, nothing decoded or copied. It accepts exactly
    /// the frames that [`Self::decode`] turns into [`Frame::Reports`]
    /// whose reports then pass [`idldp_core::report::validate`].
    ///
    /// # Errors
    /// [`Admission::Frame`] with [`Self::decode`]'s error for a frame that
    /// does not parse (or is not a `Reports` frame);
    /// [`Admission::Report`] with `validate`'s error, naming the first bad
    /// report, for one that parses.
    pub fn admit_reports(
        self,
        shape: ReportShape,
        report_len: usize,
    ) -> Result<CheckedReports, Admission> {
        if !self.is_reports() {
            return Err(Admission::Frame(not_reports(self.tag())));
        }
        CheckedReports::check(self.bytes, 5, shape, report_len).map_err(|e| match e {
            AdmitError::Wire(e) => Admission::Frame(e.into()),
            AdmitError::Report(e) => Admission::Report(e),
        })
    }
}

/// Why [`WireFrame::admit_reports`] refused a frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Admission {
    /// The frame breaks the grammar: the collector answers `bad frame:`
    /// and closes the connection, as for any undecodable frame.
    Frame(FrameError),
    /// A report breaks the tenant's rules: the collector refuses the
    /// whole frame with a typed `Reject` and keeps serving.
    Report(idldp_core::Error),
}

/// The refusal of a frame of another kind where a `Reports` frame belongs.
fn not_reports(tag: u8) -> FrameError {
    FrameError::Malformed(format!("expected a Reports frame, got tag 0x{tag:02x}"))
}

/// A `Reports` frame held as its wire bytes: checked against the report
/// grammar and counted, never decoded. This is how the coordinator routes
/// a frame. It forwards the bytes it received, and after a `Busy` it cuts
/// the unaccepted suffix ([`Self::suffix`]) from the same bytes.
///
/// Every constructor (the check, the encoder, the suffix) leaves `bytes`
/// holding the 9-byte header and count, then exactly `count` reports that
/// pass the report grammar.
#[derive(Debug, PartialEq, Eq)]
pub struct ReportsFrame<'a> {
    /// The whole frame: header, report count, reports.
    bytes: Cow<'a, [u8]>,
    /// Reports in the frame.
    count: usize,
}

impl<'a> ReportsFrame<'a> {
    /// Checks that `frame` is exactly one well-formed `Reports` frame. It
    /// walks the report grammar the decoder walks, so it accepts exactly
    /// the frames [`Frame::decode`] turns into [`Frame::Reports`], with the
    /// same report count, and fails with the decoder's error otherwise.
    ///
    /// # Errors
    /// The error [`Frame::decode`] returns for these bytes, or a typed
    /// refusal of a well-formed frame of another kind.
    pub fn check(frame: &'a [u8]) -> Result<Self, FrameError> {
        let (tag, _) = split_frame(frame)?;
        Self::from_parts(tag, frame)
    }

    /// The check of a frame whose header is already known to be sound.
    fn from_parts(tag: u8, frame: &'a [u8]) -> Result<Self, FrameError> {
        if tag != TAG_REPORTS {
            return Err(not_reports(tag));
        }
        Ok(Self {
            count: check_reports_payload(&frame[5..])?,
            bytes: Cow::Borrowed(frame),
        })
    }

    /// Encodes `reports` into one frame, the bytes
    /// [`encode_reports_frame`] writes.
    ///
    /// # Errors
    /// Why the batch cannot travel as one frame: its payload is over
    /// [`MAX_PAYLOAD_LEN`], or a bit report is wider than
    /// [`MAX_BIT_REPORT_SLOTS`].
    pub fn encode(reports: &[ReportData]) -> Result<ReportsFrame<'static>, String> {
        let payload = 4 + reports.iter().map(encoded_report_len).sum::<usize>();
        if payload > MAX_PAYLOAD_LEN {
            return Err(format!(
                "batch of {} reports encodes to {payload} payload bytes, over the \
                 {MAX_PAYLOAD_LEN}-byte frame cap — split it (ReportClient::push_all does this)",
                reports.len()
            ));
        }
        Ok(ReportsFrame {
            bytes: Cow::Owned(try_encode_reports_frame(reports)?),
            count: reports.len(),
        })
    }

    /// Reports in the frame.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the frame holds no report.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The whole frame, as it goes on the wire.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The frame of the reports from index `k` on: a new header and count
    /// before the bytes behind report `k`, equal to encoding those reports
    /// afresh. Finding report `k` walks the `k` reports before it.
    ///
    /// # Errors
    /// `k` is past the frame's report count. (The walk itself cannot
    /// fail on a frame the constructors built; its error stays typed.)
    pub fn suffix(&self, k: usize) -> Result<ReportsFrame<'static>, FrameError> {
        if k > self.count {
            return Err(FrameError::Malformed(format!(
                "suffix from report {k} of a {}-report frame",
                self.count
            )));
        }
        let mut c = WireCursor::new(self.bytes.get(9..).unwrap_or_default());
        for _ in 0..k {
            walk_report(&mut c)?;
        }
        let rest = c.rest();
        let mut out = frame_header(TAG_REPORTS, 4 + rest.len());
        ((self.count - k) as u32).put(&mut out);
        out.extend_from_slice(rest);
        Ok(ReportsFrame {
            bytes: Cow::Owned(out),
            count: self.count - k,
        })
    }
}

/// Largest single read [`Frame::read_from`] makes, and the payload
/// reservation a header alone earns: a peer claiming 16 MiB holds no more
/// than this until it delivers the bytes.
const READ_CHUNK: usize = 64 << 10;

/// Reads a frame header: the tag and the payload length, refusing a length
/// over [`MAX_PAYLOAD_LEN`] before anything is allocated for it.
fn read_header(header: &[u8; 5]) -> Result<(u8, usize), FrameError> {
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(FrameError::Oversized {
            len,
            max: MAX_PAYLOAD_LEN,
        });
    }
    Ok((header[0], len))
}

/// What the [`WireAssembler`] is in the middle of.
enum AssemblerState {
    /// Collecting the 5-byte `tag + payload_len` header.
    Header { buf: [u8; 5], len: usize },
    /// Header complete; collecting the frame's `need` bytes, header
    /// included, in `frame`.
    Payload { need: usize, frame: Vec<u8> },
}

/// Push-based incremental frame splitter: feed it whatever bytes the
/// socket produced — any fragmentation, down to one byte at a time — and
/// it yields each complete frame as it arrived ([`WireFrame`]), without
/// decoding it. The event loops keep one per connection, because they
/// cannot block for the rest of a frame, and hand each frame to their
/// backend; [`FrameAssembler`] decodes what one yields.
///
/// An oversized length prefix fails at header completion *before* any
/// payload allocation, and the frame buffer grows only as bytes actually
/// arrive (small initial reservation), so a peer claiming a 16 MiB frame
/// holds no more memory than it has transmitted
/// ([`Self::buffered_bytes`] is the live measure; the hostile-peer stress
/// test pins it down). A header error is sticky: after it there is no way
/// to resynchronise on a length-prefixed wire.
pub(crate) struct WireAssembler {
    state: AssemblerState,
    ready: std::collections::VecDeque<WireFrame>,
    failed: Option<FrameError>,
}

impl WireAssembler {
    /// An assembler at a frame boundary with nothing buffered.
    pub(crate) fn new() -> Self {
        Self {
            state: AssemblerState::Header {
                buf: [0; 5],
                len: 0,
            },
            ready: std::collections::VecDeque::new(),
            failed: None,
        }
    }

    /// Absorbs `bytes`, queueing every frame they complete for
    /// [`Self::next_frame`]. Partial trailing bytes are buffered for the
    /// next feed.
    ///
    /// # Errors
    /// An oversized length prefix. The error is sticky: once returned,
    /// every later call returns it again (frames already complete remain
    /// retrievable).
    pub(crate) fn feed(&mut self, mut bytes: &[u8]) -> Result<(), FrameError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        loop {
            match &mut self.state {
                // A frame completes on the byte that fills it — including
                // the zero-payload case right after the header — so
                // completion is checked before asking for more input.
                AssemblerState::Payload { need, frame } if frame.len() == *need => {
                    self.ready.push_back(WireFrame {
                        bytes: std::mem::take(frame),
                    });
                    self.state = AssemblerState::Header {
                        buf: [0; 5],
                        len: 0,
                    };
                }
                _ if bytes.is_empty() => return Ok(()),
                AssemblerState::Header { buf, len } => {
                    let take = (buf.len() - *len).min(bytes.len());
                    buf[*len..*len + take].copy_from_slice(&bytes[..take]);
                    *len += take;
                    bytes = &bytes[take..];
                    if *len == buf.len() {
                        let (_, payload) = read_header(buf).inspect_err(|e| {
                            self.failed = Some(e.clone());
                        })?;
                        // Reserve small and grow as bytes arrive.
                        let mut frame = Vec::with_capacity(5 + payload.min(READ_CHUNK));
                        frame.extend_from_slice(buf);
                        self.state = AssemblerState::Payload {
                            need: 5 + payload,
                            frame,
                        };
                    }
                }
                AssemblerState::Payload { need, frame } => {
                    let take = (*need - frame.len()).min(bytes.len());
                    frame.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                }
            }
        }
    }

    /// The next complete frame, in arrival order.
    pub(crate) fn next_frame(&mut self) -> Option<WireFrame> {
        self.ready.pop_front()
    }

    /// Bytes still missing from the part in progress: the rest of the
    /// header, or the rest of the payload. Reading no more than this never
    /// consumes a byte past the current frame.
    fn pending(&self) -> usize {
        match &self.state {
            AssemblerState::Header { buf, len } => buf.len() - len,
            AssemblerState::Payload { need, frame } => need - frame.len(),
        }
    }

    /// Bytes buffered for the frame in progress (header + partial
    /// payload). This — not the peer's claimed length prefix — is what a
    /// connection's read path holds in memory, which is what the
    /// slow-loris stress bound measures.
    pub(crate) fn buffered_bytes(&self) -> usize {
        match &self.state {
            AssemblerState::Header { len, .. } => *len,
            AssemblerState::Payload { frame, .. } => frame.len(),
        }
    }

    /// The typed error an EOF at this point amounts to: `None` at a frame
    /// boundary (clean close), [`FrameError::Truncated`] mid-frame.
    pub(crate) fn eof_truncation(&self) -> Option<FrameError> {
        match &self.state {
            AssemblerState::Header { len: 0, .. } => None,
            AssemblerState::Header { len, .. } => Some(FrameError::Truncated {
                needed: 5,
                available: *len,
            }),
            AssemblerState::Payload { need, frame } => Some(FrameError::Truncated {
                needed: need - 5,
                available: frame.len() - 5,
            }),
        }
    }
}

/// Push-based incremental frame decoder: feed it whatever bytes the
/// socket produced — any fragmentation, down to one byte at a time — and
/// it yields exactly the frames [`Frame::decode`] would yield on the
/// concatenation. It splits the stream with the same assembler the event
/// loops use and decodes each frame as it completes; the blocking
/// [`Frame::read_from`] is a loop over one.
///
/// A peer claiming a 16 MiB frame holds no more memory than it has
/// transmitted ([`Self::buffered_bytes`]).
///
/// Decode errors are *sticky*: after a byte stream has violated the
/// grammar there is no way to resynchronise on a length-prefixed wire,
/// so every later [`Self::feed`] returns the same error and the
/// connection must be torn down.
pub struct FrameAssembler {
    wire: WireAssembler,
    ready: std::collections::VecDeque<Frame>,
    failed: Option<FrameError>,
}

impl Default for FrameAssembler {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameAssembler {
    /// An assembler at a frame boundary with nothing buffered.
    pub fn new() -> Self {
        Self {
            wire: WireAssembler::new(),
            ready: std::collections::VecDeque::new(),
            failed: None,
        }
    }

    /// Absorbs `bytes`, decoding as many complete frames as they finish;
    /// decoded frames queue up for [`Self::next_frame`]. Partial trailing
    /// bytes are buffered for the next feed.
    ///
    /// # Errors
    /// The typed [`FrameError`] the concatenated stream violates the
    /// grammar with — the first in stream order. The error is sticky:
    /// once returned, every later call returns it again (frames already
    /// decoded remain retrievable).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), FrameError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        // The frames a header error follows come first in the stream, so
        // their decode errors win over it.
        let split = self.wire.feed(bytes);
        while let Some(frame) = self.wire.next_frame() {
            match frame.decode() {
                Ok(frame) => self.ready.push_back(frame),
                Err(e) => {
                    self.failed = Some(e.clone());
                    return Err(e);
                }
            }
        }
        split.inspect_err(|e| self.failed = Some(e.clone()))
    }

    /// The next fully decoded frame, in arrival order.
    pub fn next_frame(&mut self) -> Option<Frame> {
        self.ready.pop_front()
    }

    /// Bytes still missing from the part in progress.
    fn pending(&self) -> usize {
        self.wire.pending()
    }

    /// Bytes buffered for the frame in progress (header + partial
    /// payload) — not the peer's claimed length prefix.
    pub fn buffered_bytes(&self) -> usize {
        self.wire.buffered_bytes()
    }

    /// The typed error an EOF at this point amounts to: `None` at a frame
    /// boundary (clean close), [`FrameError::Truncated`] mid-frame. This
    /// is what [`Frame::read_from`] returns at EOF.
    pub fn eof_truncation(&self) -> Option<FrameError> {
        self.wire.eof_truncation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::encode_reply;
    use idldp_core::report::PackedBits;

    fn bit_report(slots: &[u8]) -> ReportData {
        ReportData::Bits(PackedBits::from_slots(slots).unwrap())
    }

    fn round_trip(frame: Frame) {
        let bytes = frame.encode();
        assert_eq!(
            frame.encoded_payload_len(),
            bytes.len() - 5,
            "arithmetic size disagrees with the encoder for {frame:?}"
        );
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
        // Stream reader agrees with the slice decoder.
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(frame));
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn every_frame_kind_round_trips() {
        round_trip(Frame::Hello {
            version: PROTOCOL_VERSION,
            kind: "idue".into(),
            shape: ReportShape::Hashed { range: 7 },
            report_len: 64,
            ldp_eps_bits: 1.25f64.to_bits(),
            tenant: "alpha".into(),
        });
        round_trip(Frame::Hello {
            version: PROTOCOL_VERSION,
            kind: "ss".into(),
            shape: ReportShape::ItemSet { k: 3 },
            report_len: 16,
            ldp_eps_bits: 2.0f64.to_bits(),
            tenant: String::new(),
        });
        round_trip(Frame::HelloAck {
            users: 12,
            run_line: "run idldp-serve kind=idue shape=bits report_len=64 ldp_eps=1.25".into(),
        });
        round_trip(Frame::Reports(vec![
            bit_report(&[1, 0, 1, 1, 0, 0, 0, 1, 1]),
            ReportData::Value(3),
            ReportData::Hashed { seed: 9, value: 2 },
            ReportData::ItemSet(vec![0, 5, 17]),
        ]));
        round_trip(Frame::Ingested { accepted: 1024 });
        round_trip(Frame::Busy { accepted: 7 });
        round_trip(Frame::Query);
        round_trip(Frame::Estimates {
            users: 5,
            estimates: vec![0.25, -1.5e-9, 0.0, 1.0],
        });
        round_trip(Frame::TopKQuery { k: 5 });
        round_trip(Frame::Candidates {
            users: 100,
            items: vec![(3, 0.5), (1, 0.25)],
        });
        round_trip(Frame::Checkpoint);
        round_trip(Frame::CheckpointAck { users: 42 });
        round_trip(Frame::Reject {
            accepted: 3,
            message: "shape mismatch".into(),
        });
        round_trip(Frame::SnapshotQuery);
        round_trip(Frame::Snapshot {
            users: 9,
            total: 10,
            offset: 4,
            counts: vec![1, 0, 7, 2],
        });
        round_trip(Frame::EstimatesPart {
            users: 9,
            total: 6,
            offset: 2,
            estimates: vec![0.5, -0.25, 0.0],
        });
    }

    /// Hex with optional spaces (one field per group) to bytes.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// The wire gate: every frame kind, every `ReportShape` and every
    /// report kind against literal bytes. Round-trips cannot see a layout
    /// change that the encoder and decoder agree on; these bytes can.
    #[test]
    fn every_frame_kind_has_pinned_bytes() {
        let hello = |kind: &str, shape, report_len, eps: f64, tenant: &str| Frame::Hello {
            version: PROTOCOL_VERSION,
            kind: kind.into(),
            shape,
            report_len,
            ldp_eps_bits: eps.to_bits(),
            tenant: tenant.into(),
        };
        let cases = [
            (
                hello("oue", ReportShape::Bits, 20, 1.0, ""),
                "01 20000000 04000000 03000000 6f7565 00 1400000000000000 \
                 000000000000f03f 00000000",
            ),
            (
                hello("grr", ReportShape::Value, 16, 1.25, "ads"),
                "01 23000000 04000000 03000000 677272 01 1000000000000000 \
                 000000000000f43f 03000000 616473",
            ),
            (
                hello("olh", ReportShape::Hashed { range: 7 }, 64, 2.0, "t"),
                "01 29000000 04000000 03000000 6f6c68 02 0700000000000000 \
                 4000000000000000 0000000000000040 01000000 74",
            ),
            (
                hello("ss", ReportShape::ItemSet { k: 3 }, 16, 0.5, ""),
                "01 27000000 04000000 02000000 7373 03 0300000000000000 \
                 1000000000000000 000000000000e03f 00000000",
            ),
            (
                Frame::HelloAck {
                    users: 12,
                    run_line: "run".into(),
                },
                "02 0f000000 0c00000000000000 03000000 72756e",
            ),
            (
                Frame::Reports(vec![
                    bit_report(&[1, 0, 1, 1, 0, 0, 0, 1, 1]),
                    ReportData::Value(3),
                    ReportData::Hashed { seed: 9, value: 2 },
                    ReportData::ItemSet(vec![0, 5]),
                ]),
                "03 3a000000 04000000 00 09000000 8d01 01 0300000000000000 \
                 02 0900000000000000 0200000000000000 \
                 03 02000000 0000000000000000 0500000000000000",
            ),
            (
                Frame::Ingested { accepted: 1024 },
                "04 08000000 0004000000000000",
            ),
            (Frame::Busy { accepted: 7 }, "05 08000000 0700000000000000"),
            (Frame::Query, "06 00000000"),
            (
                Frame::Estimates {
                    users: 5,
                    estimates: vec![0.25, -1.5],
                },
                "07 1c000000 0500000000000000 02000000 000000000000d03f 000000000000f8bf",
            ),
            (Frame::TopKQuery { k: 5 }, "08 08000000 0500000000000000"),
            (
                Frame::Candidates {
                    users: 100,
                    items: vec![(3, 0.5), (1, 0.25)],
                },
                "09 2c000000 6400000000000000 02000000 0300000000000000 000000000000e03f \
                 0100000000000000 000000000000d03f",
            ),
            (Frame::Checkpoint, "0a 00000000"),
            (
                Frame::CheckpointAck { users: 42 },
                "0b 08000000 2a00000000000000",
            ),
            (
                Frame::Reject {
                    accepted: 3,
                    message: "no".into(),
                },
                "0c 0e000000 0300000000000000 02000000 6e6f",
            ),
            (Frame::SnapshotQuery, "0d 00000000"),
            (
                Frame::Snapshot {
                    users: 9,
                    total: 10,
                    offset: 4,
                    counts: vec![1, 7],
                },
                "0e 2c000000 0900000000000000 0a00000000000000 0400000000000000 02000000 \
                 0100000000000000 0700000000000000",
            ),
            (
                Frame::EstimatesPart {
                    users: 9,
                    total: 6,
                    offset: 2,
                    estimates: vec![0.5],
                },
                "0f 24000000 0900000000000000 0600000000000000 0200000000000000 01000000 \
                 000000000000e03f",
            ),
        ];
        for (frame, hex) in cases {
            let bytes = unhex(hex);
            assert_eq!(frame.encode(), bytes, "encode of {frame:?}");
            assert_eq!(Frame::decode(&bytes).unwrap(), frame, "decode of {hex}");
        }
    }

    #[test]
    fn estimates_survive_bit_exactly() {
        let estimates = vec![0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1.0 / 3.0];
        let frame = Frame::Estimates {
            users: 9,
            estimates: estimates.clone(),
        };
        match Frame::decode(&frame.encode()).unwrap() {
            Frame::Estimates {
                estimates: decoded, ..
            } => {
                for (a, b) in decoded.iter().zip(&estimates) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = Frame::Reports(vec![
            bit_report(&[1, 0, 1]),
            ReportData::ItemSet(vec![2, 4]),
        ])
        .encode();
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(FrameError::Truncated { .. }) | Err(FrameError::Malformed(_)) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_and_unknown_are_rejected() {
        let mut oversized = vec![0x06]; // Query
        oversized.extend_from_slice(&(MAX_PAYLOAD_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(
            Frame::decode(&oversized),
            Err(FrameError::Oversized { .. })
        ));
        let unknown = [0xEEu8, 0, 0, 0, 0];
        assert_eq!(Frame::decode(&unknown), Err(FrameError::UnknownTag(0xEE)));
        // Trailing garbage after a valid frame.
        let mut trailing = Frame::Query.encode();
        trailing.push(0);
        assert!(matches!(
            Frame::decode(&trailing),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn nonzero_padding_bits_are_rejected() {
        let mut bytes = Frame::Reports(vec![bit_report(&[1, 1, 1])]).encode();
        // The packed byte is 0b0000_0111; set a padding bit above slot 2.
        let last = bytes.len() - 1;
        bytes[last] |= 0b1000_0000;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn stream_reader_counts_partial_payloads_without_preallocating() {
        // A header claiming 100 payload bytes followed by only 10: the
        // reader reports exactly what arrived (it buffers incrementally —
        // a stalling peer cannot make it hold a length-prefix-sized
        // allocation).
        let mut bytes = vec![0x0C]; // Reject
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 10]);
        let mut cursor = std::io::Cursor::new(bytes);
        match Frame::read_from(&mut cursor) {
            Err(FrameError::Truncated { needed, available }) => {
                assert_eq!((needed, available), (100, 10));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    /// A reader that hands out as much as each read asks for, recording
    /// the sizes asked.
    struct Greedy {
        bytes: std::io::Cursor<Vec<u8>>,
        asks: Vec<usize>,
    }

    impl Read for Greedy {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.asks.push(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn stream_reader_reads_in_bounded_steps_and_not_past_the_frame() {
        // An 800 KB snapshot reply, then a pipelined frame.
        let snapshot = Frame::Snapshot {
            users: 7,
            total: 100_000,
            offset: 0,
            counts: (0..100_000).collect(),
        };
        let next = Frame::Ingested { accepted: 3 };
        let mut bytes = snapshot.encode();
        let payload = bytes.len() - 5;
        bytes.extend_from_slice(&next.encode());
        let mut reader = Greedy {
            bytes: std::io::Cursor::new(bytes),
            asks: Vec::new(),
        };
        assert_eq!(Frame::read_from(&mut reader).unwrap(), Some(snapshot));
        assert_eq!(reader.asks.len(), 1 + payload.div_ceil(READ_CHUNK));
        assert!(reader.asks.iter().all(|&ask| ask <= READ_CHUNK));
        assert_eq!(Frame::read_from(&mut reader).unwrap(), Some(next));
        assert_eq!(Frame::read_from(&mut reader).unwrap(), None);
    }

    #[test]
    fn bit_reports_over_the_width_cap_are_rejected() {
        // count=1, REPORT_BITS, one slot over the cap — refused before the
        // decoder even looks for (or allocates) the packed bytes.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(REPORT_BITS);
        payload.extend_from_slice(&(MAX_BIT_REPORT_SLOTS as u32 + 1).to_le_bytes());
        let mut bytes = vec![TAG_REPORTS];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Malformed(_))
        ));
        // Exactly at the cap the report still round-trips.
        let at_cap = Frame::Reports(vec![bit_report(&vec![1; MAX_BIT_REPORT_SLOTS])]);
        assert_eq!(Frame::decode(&at_cap.encode()).unwrap(), at_cap);
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A Reports frame claiming u32::MAX reports in a 4-byte payload.
        let mut bytes = vec![TAG_REPORTS, 4, 0, 0, 0];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn encoded_report_len_matches_the_encoder() {
        let reports = [
            bit_report(&[]),
            bit_report(&[1; 7]),
            bit_report(&[0; 8]),
            bit_report(&[1; 65]),
            ReportData::Value(3),
            ReportData::Hashed { seed: 1, value: 2 },
            ReportData::ItemSet(vec![]),
            ReportData::ItemSet(vec![0, 5, 9]),
        ];
        for report in &reports {
            let mut out = Vec::new();
            put_report(&mut out, report).unwrap();
            assert_eq!(out.len(), encoded_report_len(report), "{report:?}");
        }
        // A whole batch frame is header + count + the per-report sizes.
        let frame = Frame::Reports(reports.to_vec());
        let want: usize = 5 + 4 + reports.iter().map(encoded_report_len).sum::<usize>();
        assert_eq!(frame.encode().len(), want);
    }

    #[test]
    fn slice_encoder_matches_owned_encoder() {
        let reports = vec![
            bit_report(&[1, 0, 1]),
            ReportData::Value(2),
            ReportData::Hashed { seed: 3, value: 1 },
            ReportData::ItemSet(vec![0, 4]),
        ];
        assert_eq!(
            encode_reports_frame(&reports),
            Frame::Reports(reports).encode()
        );
    }

    /// The spill suffix from every report index equals encoding the
    /// remaining reports afresh, across every report shape, and is itself
    /// a checked frame of the remaining count.
    #[test]
    fn a_suffix_equals_the_remaining_reports_encoded_afresh() {
        let reports = vec![
            bit_report(&[1, 0, 1]),
            ReportData::Value(2),
            bit_report(&[1; 70]),
            ReportData::Hashed { seed: 3, value: 1 },
            ReportData::ItemSet(vec![0, 4]),
            ReportData::ItemSet(vec![]),
            bit_report(&[]),
        ];
        let bytes = encode_reports_frame(&reports);
        let frame = ReportsFrame::check(&bytes).unwrap();
        assert_eq!(frame.len(), reports.len());
        for k in 0..=reports.len() {
            let suffix = frame.suffix(k).unwrap();
            assert_eq!(
                suffix.as_bytes(),
                encode_reports_frame(&reports[k..]),
                "k={k}"
            );
            assert_eq!(suffix.len(), reports.len() - k);
            assert_eq!(ReportsFrame::check(suffix.as_bytes()).unwrap(), suffix);
        }
        // A suffix of a suffix cuts from the bytes it holds.
        assert_eq!(
            frame.suffix(2).unwrap().suffix(3).unwrap().as_bytes(),
            encode_reports_frame(&reports[5..])
        );
        // A cut past the last report is a typed refusal, not a panic.
        let past = frame.suffix(reports.len() + 1).unwrap_err();
        assert!(past.to_string().contains("suffix from report 8"), "{past}");
    }

    /// `ReportsFrame::encode` writes the bytes `encode_reports_frame` does,
    /// counted, and refuses a batch over the frame cap before encoding it.
    #[test]
    fn reports_frame_encode_matches_the_slice_encoder_and_refuses_over_cap() {
        let reports = vec![ReportData::Value(9), bit_report(&[0, 1])];
        let frame = ReportsFrame::encode(&reports).unwrap();
        assert_eq!(frame.as_bytes(), encode_reports_frame(&reports));
        assert_eq!(frame.len(), 2);
        let over = vec![ReportData::Value(1); MAX_PAYLOAD_LEN / 9 + 1];
        let refusal = ReportsFrame::encode(&over).unwrap_err();
        assert!(refusal.contains("frame cap"), "{refusal}");
        let too_wide = [bit_report(&vec![0; MAX_BIT_REPORT_SLOTS + 1])];
        let refusal = ReportsFrame::encode(&too_wide).unwrap_err();
        assert!(refusal.contains("MAX_BIT_REPORT_SLOTS"), "{refusal}");
    }

    /// The wire assembler yields each frame as the bytes that were sent;
    /// decoding one equals `Frame::decode` of those bytes, and checking a
    /// `Reports` one equals `ReportsFrame::check` of them.
    #[test]
    fn wire_frames_are_the_bytes_sent() {
        let frames = [
            Frame::Query,
            Frame::Reports(vec![bit_report(&[1, 0, 1]), ReportData::Value(4)]),
            Frame::Ingested { accepted: 2 },
        ];
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let mut asm = WireAssembler::new();
        for byte in stream {
            asm.feed(&[byte]).unwrap();
        }
        for frame in &frames {
            let wire = asm.next_frame().unwrap();
            let bytes = frame.encode();
            assert_eq!(wire.as_bytes(), bytes);
            assert_eq!(wire.decode().unwrap(), *frame);
            assert_eq!(wire.is_reports(), matches!(frame, Frame::Reports(_)));
            match ReportsFrame::check(&bytes) {
                Ok(checked) => assert_eq!(wire.check_reports().unwrap(), checked),
                Err(e) => assert_eq!(wire.check_reports().unwrap_err(), e),
            }
        }
        assert!(asm.next_frame().is_none());
        assert_eq!(asm.buffered_bytes(), 0);
    }

    #[test]
    fn fits_one_frame_flags_oversized_replies() {
        assert!(Frame::Query.fits_one_frame());
        let small = Frame::Estimates {
            users: 1,
            estimates: vec![0.5; 100],
        };
        assert!(small.fits_one_frame());
        let oversized = Frame::Estimates {
            users: 1,
            estimates: vec![0.5; MAX_PAYLOAD_LEN / 8 + 16],
        };
        assert!(!oversized.fits_one_frame());
    }

    /// The bit codec at every width across the 8-slot chunk and 64-slot
    /// word edges: the wire bytes are the LSB-first packing, decode ∘
    /// encode is the identity on reports and encode ∘ decode on bytes, and
    /// a set padding bit is still refused.
    #[test]
    fn bit_codec_round_trips_every_width() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for slots in 0..=130usize {
            let bits: Vec<u8> = (0..slots).map(|_| u8::from(rng.random_bool(0.5))).collect();
            let mut packed = vec![0u8; slots.div_ceil(8)];
            for (i, &bit) in bits.iter().enumerate() {
                packed[i / 8] |= bit << (i % 8);
            }
            let reports = vec![ReportData::Value(7), bit_report(&bits)];
            let bytes = encode_reports_frame(&reports);
            // Header (5), batch count (4), the value report (9), the bit
            // report's tag and slot count (5), then the packed slots.
            assert_eq!(&bytes[23..], packed, "slots={slots}: wire bytes");
            let decoded = Frame::decode(&bytes).unwrap();
            assert_eq!(decoded, Frame::Reports(reports), "slots={slots}");
            assert_eq!(decoded.encode(), bytes, "slots={slots}: bytes");
            if slots % 8 != 0 {
                let mut padded = bytes.clone();
                *padded.last_mut().unwrap() |= 1 << (slots % 8);
                assert!(
                    matches!(Frame::decode(&padded), Err(FrameError::Malformed(_))),
                    "slots={slots}: nonzero padding accepted"
                );
            }
        }
    }

    #[test]
    fn bit_packing_is_compact() {
        let bytes = Frame::Reports(vec![bit_report(&[1; 64])]).encode();
        // 5 header + 4 batch count + 1 report tag + 4 slot count + 8 packed.
        assert_eq!(bytes.len(), 5 + 4 + 1 + 4 + 8);
    }

    #[test]
    fn assembler_reassembles_byte_at_a_time() {
        let frames = vec![
            Frame::Query,
            Frame::Reports(vec![
                bit_report(&[1, 0, 1, 1, 0, 0, 0, 1, 1]),
                ReportData::ItemSet(vec![0, 5, 17]),
            ]),
            Frame::Estimates {
                users: 3,
                estimates: vec![0.25, -0.5],
            },
            Frame::Checkpoint,
        ];
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for byte in stream {
            asm.feed(&[byte]).unwrap();
            while let Some(f) = asm.next_frame() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(
            asm.eof_truncation(),
            None,
            "stream ended at a frame boundary"
        );
        assert_eq!(asm.buffered_bytes(), 0);
    }

    #[test]
    fn assembler_decodes_many_frames_from_one_feed() {
        let frames = vec![
            Frame::Query,
            Frame::HelloAck {
                users: 2,
                run_line: "run".into(),
            },
            Frame::Query,
        ];
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let mut asm = FrameAssembler::new();
        asm.feed(&stream).unwrap();
        let got: Vec<_> = std::iter::from_fn(|| asm.next_frame()).collect();
        assert_eq!(got, frames);
    }

    #[test]
    fn assembler_oversized_fails_before_payload_and_sticks() {
        let mut header = vec![TAG_REPORTS];
        header.extend_from_slice(&(MAX_PAYLOAD_LEN as u32 + 1).to_le_bytes());
        let mut asm = FrameAssembler::new();
        assert!(matches!(
            asm.feed(&header),
            Err(FrameError::Oversized { .. })
        ));
        // Sticky: the stream cannot resynchronise.
        assert!(matches!(
            asm.feed(&Frame::Query.encode()),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn assembler_malformed_payload_sticks_but_keeps_earlier_frames() {
        let mut stream = Frame::Query.encode();
        stream.extend_from_slice(&[0xEE, 0, 0, 0, 0]); // unknown tag
        let mut asm = FrameAssembler::new();
        assert_eq!(asm.feed(&stream), Err(FrameError::UnknownTag(0xEE)));
        assert_eq!(asm.next_frame(), Some(Frame::Query));
        assert_eq!(asm.next_frame(), None);
        assert_eq!(asm.feed(&[0]), Err(FrameError::UnknownTag(0xEE)));
    }

    /// Every frame of an encoded reply, decoded in order.
    fn decode_reply(bytes: &[u8]) -> Vec<Frame> {
        let mut asm = FrameAssembler::new();
        asm.feed(bytes).unwrap();
        let frames: Vec<Frame> = std::iter::from_fn(|| asm.next_frame()).collect();
        assert_eq!(
            asm.buffered_bytes(),
            0,
            "the reply ends on a frame boundary"
        );
        frames
    }

    #[test]
    fn small_estimate_replies_stay_on_the_legacy_frame() {
        // The chunker must not change a single wire byte for domains that
        // already fit one frame — protocol-2 clients' replies are sacred.
        let estimates: Vec<f64> = (0..1000).map(|i| i as f64 / 7.0).collect();
        let reply = Frame::Estimates {
            users: 42,
            estimates,
        };
        let bytes = encode_reply(&reply);
        assert_eq!(bytes, reply.encode());
        assert_eq!(decode_reply(&bytes), vec![reply]);
    }

    #[test]
    fn chunked_replies_are_contiguous_and_reassemble_exactly() {
        // Just over the single-frame cap: payload 12 + 8n > 16 MiB.
        let n = (MAX_PAYLOAD_LEN - 12) / 8 + 1;
        let estimates: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let frames = decode_reply(&encode_reply(&Frame::Estimates {
            users: 5,
            estimates: estimates.clone(),
        }));
        assert!(frames.len() >= 2, "must actually chunk");
        let mut got = Vec::new();
        for frame in &frames {
            assert!(frame.fits_one_frame(), "every chunk must fit a frame");
            match frame {
                Frame::EstimatesPart {
                    users,
                    total,
                    offset,
                    estimates: chunk,
                } => {
                    assert_eq!(*users, 5);
                    assert_eq!(*total, n as u64);
                    assert_eq!(*offset, got.len() as u64, "chunks arrive contiguously");
                    got.extend_from_slice(chunk);
                }
                other => panic!("expected EstimatesPart, got {other:?}"),
            }
        }
        assert_eq!(got.len(), n);
        for (a, b) in got.iter().zip(&estimates) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn snapshot_chunker_covers_empty_and_large() {
        let empty = Frame::Snapshot {
            users: 0,
            total: 0,
            offset: 0,
            counts: vec![],
        };
        assert_eq!(decode_reply(&encode_reply(&empty)), vec![empty]);
        let counts: Vec<u64> = (0..(CHUNK_ELEMS * 2 + 3) as u64).collect();
        let frames = decode_reply(&encode_reply(&Frame::Snapshot {
            users: 7,
            total: counts.len() as u64,
            offset: 0,
            counts: counts.clone(),
        }));
        assert_eq!(frames.len(), 3);
        let mut got = Vec::new();
        for frame in &frames {
            assert!(frame.fits_one_frame());
            match frame {
                Frame::Snapshot {
                    users,
                    total,
                    offset,
                    counts: chunk,
                } => {
                    assert_eq!(*users, 7);
                    assert_eq!(*total, counts.len() as u64);
                    assert_eq!(*offset, got.len() as u64);
                    got.extend_from_slice(chunk);
                }
                other => panic!("expected Snapshot, got {other:?}"),
            }
        }
        assert_eq!(got, counts);
    }

    /// An over-cap reply's bytes are exactly its chunk frames encoded one
    /// by one through the frame table and concatenated.
    #[test]
    fn over_cap_replies_equal_their_parts_encoded_one_by_one() {
        let n = CHUNK_ELEMS * 2 + 5;
        let estimates: Vec<f64> = (0..n).map(|i| i as f64 / 3.0).collect();
        let counts: Vec<u64> = (0..n as u64).map(|i| i * 7).collect();
        let mut want_estimates = Vec::new();
        let mut want_snapshot = Vec::new();
        for (i, (e, c)) in estimates
            .chunks(CHUNK_ELEMS)
            .zip(counts.chunks(CHUNK_ELEMS))
            .enumerate()
        {
            let offset = (i * CHUNK_ELEMS) as u64;
            want_estimates.extend(
                Frame::EstimatesPart {
                    users: 9,
                    total: n as u64,
                    offset,
                    estimates: e.to_vec(),
                }
                .encode(),
            );
            want_snapshot.extend(
                Frame::Snapshot {
                    users: 9,
                    total: n as u64,
                    offset,
                    counts: c.to_vec(),
                }
                .encode(),
            );
        }
        let estimates_reply = Frame::Estimates {
            users: 9,
            estimates,
        };
        assert!(!estimates_reply.fits_one_frame());
        assert_eq!(encode_reply(&estimates_reply), want_estimates);
        let snapshot_reply = Frame::Snapshot {
            users: 9,
            total: n as u64,
            offset: 0,
            counts,
        };
        assert!(!snapshot_reply.fits_one_frame());
        assert_eq!(encode_reply(&snapshot_reply), want_snapshot);
    }

    #[test]
    fn a_hello_of_another_version_is_refused_by_its_version_word() {
        // The v3 layout: no tenant field after the ε bits.
        let mut v3 = vec![TAG_HELLO, 0, 0, 0, 0];
        v3.extend_from_slice(&3u32.to_le_bytes());
        "oue".to_string().put(&mut v3);
        ReportShape::Bits.put(&mut v3);
        16u64.put(&mut v3);
        1f64.to_bits().put(&mut v3);
        let len = (v3.len() - 5) as u32;
        v3[1..5].copy_from_slice(&len.to_le_bytes());
        assert_eq!(Frame::decode(&v3), Err(FrameError::UnsupportedVersion(3)));
        assert_eq!(
            FrameError::UnsupportedVersion(3).to_string(),
            format!("protocol version 3 unsupported (server speaks {PROTOCOL_VERSION})")
        );
        // A later version's Hello is refused the same way, whatever follows.
        let v5 = Frame::Hello {
            version: 5,
            kind: "oue".into(),
            shape: ReportShape::Bits,
            report_len: 16,
            ldp_eps_bits: 1f64.to_bits(),
            tenant: String::new(),
        };
        assert_eq!(
            Frame::decode(&v5.encode()),
            Err(FrameError::UnsupportedVersion(5))
        );
        // Without a whole version word there is nothing to refuse by.
        assert!(matches!(
            Frame::decode(&[TAG_HELLO, 2, 0, 0, 0, 4, 0]),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn chunk_overrunning_its_total_is_rejected() {
        // offset + len > total is unrepresentable through the chunkers, so
        // the decoder treats it as malformed rather than passing the
        // contradiction to reassembly.
        let frame = Frame::Snapshot {
            users: 1,
            total: 3,
            offset: 2,
            counts: vec![1, 2],
        };
        assert!(matches!(
            Frame::decode(&frame.encode()),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn assembler_buffers_only_received_bytes_of_a_big_claim() {
        // Header claiming 1 MiB, then a 10-byte drip: the assembler holds
        // ~15 bytes, not the claimed megabyte.
        let mut drip = vec![TAG_REPORTS];
        drip.extend_from_slice(&(1u32 << 20).to_le_bytes());
        drip.extend_from_slice(&[0u8; 10]);
        let mut asm = FrameAssembler::new();
        asm.feed(&drip).unwrap();
        assert!(asm.eof_truncation().is_some());
        assert_eq!(asm.buffered_bytes(), 15);
    }
}
