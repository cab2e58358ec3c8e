//! The length-prefixed binary frame codec of the ingestion service.
//!
//! Every message on the wire — in either direction — is one *frame*:
//!
//! ```text
//! frame   := tag(u8)  payload_len(u32 LE)  payload
//! ```
//!
//! The payload grammar is per-tag (see [`Frame`]); all integers are
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
//! decodes into its owned packed form ([`PackedBits`]) as a copy of the
//! wire bytes into words, after the [`MAX_BIT_REPORT_SLOTS`] width cap,
//! the truncation test and the padding check (the property suite in
//! `tests/proptest_frames.rs` hammers all of this with arbitrary
//! mutations).

use idldp_core::report::{PackedBits, ReportData, ReportShape};
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
/// Version 4 added tenancy: a trailing tenant-name string in
/// [`Frame::Hello`] selects which of the server's streams the connection
/// addresses, and the [`Frame::HelloAck`] `run_line` is that tenant's
/// run identity. The tenant field is appended *after* every v3 field and
/// is only encoded when `version >= 4`, so a v3 `Hello` is byte-identical
/// under both codecs — servers still accept
/// [`LEGACY_PROTOCOL_VERSION`]-speaking clients and map them to the
/// default tenant.
pub const PROTOCOL_VERSION: u32 = 4;

/// The oldest protocol version servers still accept (v3: the pre-tenancy
/// grammar). A v3 `Hello` carries no tenant name and lands on the default
/// tenant; every reply frame it can draw is grammatically unchanged, so
/// v3 clients interoperate byte-for-byte.
pub const LEGACY_PROTOCOL_VERSION: u32 = 3;

/// Elements per chunk of a chunked reply ([`Frame::EstimatesPart`] /
/// [`Frame::Snapshot`]): 2²⁰ × 8-byte elements = 8 MiB of payload per
/// part, comfortably under [`MAX_PAYLOAD_LEN`].
pub const CHUNK_ELEMS: usize = 1 << 20;

/// Hard ceiling on a frame's payload length (16 MiB). A length prefix
/// above this is rejected *before* any allocation, so a corrupt or hostile
/// peer cannot make the decoder reserve unbounded memory.
pub const MAX_PAYLOAD_LEN: usize = 16 << 20;

/// Hard ceiling on the slot count of one packed bit report (2²³ slots =
/// 1 MiB on the wire). A report decodes into its packed words, about as
/// many bytes as it takes on the wire, so the cap bounds a report's
/// width, not an expansion; the decoder checks it before it looks for the
/// bytes behind a claim. It is far wider than any realistic
/// unary-encoding domain; servers refuse to start for a bit-vector
/// mechanism wider than this, and senders refuse to encode a wider
/// report.
pub const MAX_BIT_REPORT_SLOTS: usize = 1 << 23;

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
        /// The tenant (stream) this connection addresses — on the wire
        /// only when `version >= 4`, appended after every v3 field so the
        /// v3 byte layout is unchanged. Empty means the default tenant
        /// (what every v3 client gets, since its `Hello` has no tenant
        /// field to decode).
        tenant: String,
    },
    /// Handshake accepted; `users` reports are already accumulated
    /// server-side (nonzero after a checkpoint restore).
    HelloAck {
        /// Users absorbed so far.
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

const TAG_HELLO: u8 = 0x01;
const TAG_HELLO_ACK: u8 = 0x02;
const TAG_REPORTS: u8 = 0x03;
const TAG_INGESTED: u8 = 0x04;
const TAG_BUSY: u8 = 0x05;
const TAG_QUERY: u8 = 0x06;
const TAG_ESTIMATES: u8 = 0x07;
const TAG_TOP_K_QUERY: u8 = 0x08;
const TAG_CANDIDATES: u8 = 0x09;
const TAG_CHECKPOINT: u8 = 0x0A;
const TAG_CHECKPOINT_ACK: u8 = 0x0B;
const TAG_REJECT: u8 = 0x0C;
const TAG_SNAPSHOT_QUERY: u8 = 0x0D;
const TAG_SNAPSHOT: u8 = 0x0E;
const TAG_ESTIMATES_PART: u8 = 0x0F;

const SHAPE_BITS: u8 = 0;
const SHAPE_VALUE: u8 = 1;
const SHAPE_HASHED: u8 = 2;
const SHAPE_ITEM_SET: u8 = 3;

const REPORT_BITS: u8 = 0;
const REPORT_VALUE: u8 = 1;
const REPORT_HASHED: u8 = 2;
const REPORT_ITEM_SET: u8 = 3;

/// Bounds-checked little-endian reader over a payload slice. All `read_*`
/// methods return [`FrameError::Truncated`] instead of slicing past the
/// end, which is what makes the decoder total.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn read_u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn read_u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn read_u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn read_f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// A `u64` that must fit the platform's `usize`.
    fn read_len(&mut self, what: &str) -> Result<usize, FrameError> {
        let v = self.read_u64()?;
        usize::try_from(v).map_err(|_| FrameError::Malformed(format!("{what} {v} overflows usize")))
    }

    /// An element count whose elements occupy at least `min_elem` bytes
    /// each — bounded by the remaining payload, so `Vec::with_capacity`
    /// can never reserve more than the frame actually carries.
    fn read_count(&mut self, what: &str, min_elem: usize) -> Result<usize, FrameError> {
        let count = self.read_u32()? as usize;
        let bound = self.remaining() / min_elem.max(1);
        if count > bound {
            return Err(FrameError::Malformed(format!(
                "{what} count {count} exceeds what the payload can hold ({bound})"
            )));
        }
        Ok(count)
    }

    fn read_string(&mut self, what: &str) -> Result<String, FrameError> {
        let len = self.read_count(what, 1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::Malformed(format!("{what} is not valid UTF-8")))
    }

    fn finish(self, what: &str) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::Malformed(format!(
                "{what}: {} trailing payload bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_shape(out: &mut Vec<u8>, shape: ReportShape) {
    match shape {
        ReportShape::Bits => out.push(SHAPE_BITS),
        ReportShape::Value => out.push(SHAPE_VALUE),
        ReportShape::Hashed { range } => {
            out.push(SHAPE_HASHED);
            put_u64(out, range as u64);
        }
        ReportShape::ItemSet { k } => {
            out.push(SHAPE_ITEM_SET);
            put_u64(out, k as u64);
        }
    }
}

fn read_shape(c: &mut Cursor<'_>) -> Result<ReportShape, FrameError> {
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

/// Reads the `(total, offset)` header shared by the chunked reply frames.
fn read_chunk_header(c: &mut Cursor<'_>) -> Result<(u64, u64), FrameError> {
    Ok((c.read_u64()?, c.read_u64()?))
}

/// Rejects a chunk whose claimed span falls outside its own `total` —
/// keeps non-contiguity the *only* invalid state a reassembling client
/// has to detect.
fn check_chunk_bounds(what: &str, total: u64, offset: u64, count: usize) -> Result<(), FrameError> {
    let end = offset.checked_add(count as u64);
    if end.is_none_or(|end| end > total) {
        return Err(FrameError::Malformed(format!(
            "{what} at offset {offset} with {count} elements overruns total {total}"
        )));
    }
    Ok(())
}

/// Splits an estimate reply into wire frames: one plain
/// [`Frame::Estimates`] when it fits a frame (byte-identical to the
/// protocol-2 reply for every small domain), otherwise a sequence of
/// contiguous [`Frame::EstimatesPart`] chunks of [`CHUNK_ELEMS`] elements.
/// The collector and the coordinator encode replies through this, so
/// chunking behaves identically everywhere.
pub fn estimates_reply_frames(users: u64, estimates: &[f64]) -> Vec<Frame> {
    let whole = Frame::Estimates {
        users,
        estimates: Vec::new(),
    };
    if whole.encoded_payload_len() + 8 * estimates.len() <= MAX_PAYLOAD_LEN {
        return vec![Frame::Estimates {
            users,
            estimates: estimates.to_vec(),
        }];
    }
    let total = estimates.len() as u64;
    estimates
        .chunks(CHUNK_ELEMS)
        .enumerate()
        .map(|(i, chunk)| Frame::EstimatesPart {
            users,
            total,
            offset: (i * CHUNK_ELEMS) as u64,
            estimates: chunk.to_vec(),
        })
        .collect()
}

/// Splits a raw-count snapshot reply into contiguous [`Frame::Snapshot`]
/// chunks (a single chunk when it fits one frame). Unlike estimates there
/// is no unchunked legacy form — `Snapshot` always carries the
/// `(total, offset)` header.
pub fn snapshot_reply_frames(users: u64, counts: &[u64]) -> Vec<Frame> {
    let total = counts.len() as u64;
    if counts.is_empty() {
        return vec![Frame::Snapshot {
            users,
            total,
            offset: 0,
            counts: Vec::new(),
        }];
    }
    counts
        .chunks(CHUNK_ELEMS)
        .enumerate()
        .map(|(i, chunk)| Frame::Snapshot {
            users,
            total,
            offset: (i * CHUNK_ELEMS) as u64,
            counts: chunk.to_vec(),
        })
        .collect()
}

/// Assembles header + payload.
fn frame_bytes(tag: u8, payload: Vec<u8>) -> Vec<u8> {
    let mut out = frame_header(tag, payload.len());
    out.extend_from_slice(&payload);
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
    put_u32(&mut out, payload_len as u32);
    out
}

/// Appends the [`Frame::Reports`] payload of a borrowed slice to `out`.
///
/// # Errors
/// Why the first unencodable report cannot travel (see [`put_report`]);
/// `out` then holds a partial payload and must be discarded.
fn put_reports(out: &mut Vec<u8>, reports: &[ReportData]) -> Result<(), String> {
    put_u32(out, reports.len() as u32);
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
            put_u32(out, bits.slots() as u32);
            bits.extend_le_bytes(out);
        }
        ReportData::Value(v) => {
            out.push(REPORT_VALUE);
            put_u64(out, *v as u64);
        }
        ReportData::Hashed { seed, value } => {
            out.push(REPORT_HASHED);
            put_u64(out, *seed);
            put_u64(out, *value as u64);
        }
        ReportData::ItemSet(items) => {
            out.push(REPORT_ITEM_SET);
            put_u32(out, items.len() as u32);
            for &item in items {
                put_u64(out, item as u64);
            }
        }
    }
    Ok(())
}

fn read_report(c: &mut Cursor<'_>) -> Result<ReportData, FrameError> {
    match c.read_u8()? {
        REPORT_BITS => {
            let slots = c.read_u32()? as usize;
            // Checked before the truncation test, so a hostile claim is
            // refused before the decoder looks for the bytes behind it.
            if slots > MAX_BIT_REPORT_SLOTS {
                return Err(FrameError::Malformed(format!(
                    "bit report claims {slots} slots, over the {MAX_BIT_REPORT_SLOTS}-slot cap"
                )));
            }
            let bytes_needed = slots.div_ceil(8);
            if bytes_needed > c.remaining() {
                return Err(FrameError::Truncated {
                    needed: bytes_needed,
                    available: c.remaining(),
                });
            }
            // Padding bits above `slots` must be zero, so every encoding of
            // a report is canonical (encode ∘ decode is the identity on
            // bytes too, not just on reports).
            PackedBits::from_le_bytes(slots, c.take(bytes_needed)?)
                .map(ReportData::Bits)
                .map_err(|e| FrameError::Malformed(e.to_string()))
        }
        REPORT_VALUE => Ok(ReportData::Value(c.read_len("report value")?)),
        REPORT_HASHED => Ok(ReportData::Hashed {
            seed: c.read_u64()?,
            value: c.read_len("hashed report value")?,
        }),
        REPORT_ITEM_SET => {
            let count = c.read_count("item set", 8)?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(c.read_len("item-set member")?);
            }
            Ok(ReportData::ItemSet(items))
        }
        other => Err(FrameError::Malformed(format!("unknown report tag {other}"))),
    }
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TAG_HELLO,
            Frame::HelloAck { .. } => TAG_HELLO_ACK,
            Frame::Reports(_) => TAG_REPORTS,
            Frame::Ingested { .. } => TAG_INGESTED,
            Frame::Busy { .. } => TAG_BUSY,
            Frame::Query => TAG_QUERY,
            Frame::Estimates { .. } => TAG_ESTIMATES,
            Frame::TopKQuery { .. } => TAG_TOP_K_QUERY,
            Frame::Candidates { .. } => TAG_CANDIDATES,
            Frame::Checkpoint => TAG_CHECKPOINT,
            Frame::CheckpointAck { .. } => TAG_CHECKPOINT_ACK,
            Frame::Reject { .. } => TAG_REJECT,
            Frame::SnapshotQuery => TAG_SNAPSHOT_QUERY,
            Frame::Snapshot { .. } => TAG_SNAPSHOT,
            Frame::EstimatesPart { .. } => TAG_ESTIMATES_PART,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Hello {
                version,
                kind,
                shape,
                report_len,
                ldp_eps_bits,
                tenant,
            } => {
                put_u32(&mut out, *version);
                put_string(&mut out, kind);
                put_shape(&mut out, *shape);
                put_u64(&mut out, *report_len);
                put_u64(&mut out, *ldp_eps_bits);
                if *version >= PROTOCOL_VERSION {
                    put_string(&mut out, tenant);
                }
            }
            Frame::Ingested { accepted: users }
            | Frame::Busy { accepted: users }
            | Frame::CheckpointAck { users } => put_u64(&mut out, *users),
            Frame::HelloAck { users, run_line } => {
                put_u64(&mut out, *users);
                put_string(&mut out, run_line);
            }
            Frame::Reports(reports) => {
                put_reports(&mut out, reports).unwrap_or_else(|e| panic!("{e}"))
            }
            Frame::Query | Frame::Checkpoint | Frame::SnapshotQuery => {}
            Frame::Estimates { users, estimates } => {
                put_u64(&mut out, *users);
                put_u32(&mut out, estimates.len() as u32);
                for e in estimates {
                    put_u64(&mut out, e.to_bits());
                }
            }
            Frame::TopKQuery { k } => put_u64(&mut out, *k),
            Frame::Candidates { users, items } => {
                put_u64(&mut out, *users);
                put_u32(&mut out, items.len() as u32);
                for (item, estimate) in items {
                    put_u64(&mut out, *item);
                    put_u64(&mut out, estimate.to_bits());
                }
            }
            Frame::Reject { accepted, message } => {
                put_u64(&mut out, *accepted);
                put_string(&mut out, message);
            }
            Frame::Snapshot {
                users,
                total,
                offset,
                counts,
            } => {
                put_u64(&mut out, *users);
                put_u64(&mut out, *total);
                put_u64(&mut out, *offset);
                put_u32(&mut out, counts.len() as u32);
                for c in counts {
                    put_u64(&mut out, *c);
                }
            }
            Frame::EstimatesPart {
                users,
                total,
                offset,
                estimates,
            } => {
                put_u64(&mut out, *users);
                put_u64(&mut out, *total);
                put_u64(&mut out, *offset);
                put_u32(&mut out, estimates.len() as u32);
                for e in estimates {
                    put_u64(&mut out, e.to_bits());
                }
            }
        }
        out
    }

    fn parse_payload(tag: u8, payload: &[u8]) -> Result<Frame, FrameError> {
        let mut c = Cursor::new(payload);
        let frame = match tag {
            TAG_HELLO => {
                let version = c.read_u32()?;
                let kind = c.read_string("mechanism kind")?;
                let shape = read_shape(&mut c)?;
                let report_len = c.read_u64()?;
                let ldp_eps_bits = c.read_u64()?;
                // The tenant field exists only from v4 on; a v3 payload
                // ends exactly here and maps to the default (empty) tenant.
                let tenant = if version >= PROTOCOL_VERSION {
                    c.read_string("tenant name")?
                } else {
                    String::new()
                };
                Frame::Hello {
                    version,
                    kind,
                    shape,
                    report_len,
                    ldp_eps_bits,
                    tenant,
                }
            }
            TAG_HELLO_ACK => Frame::HelloAck {
                users: c.read_u64()?,
                run_line: c.read_string("run-identity line")?,
            },
            TAG_REPORTS => {
                // Every report is at least 5 bytes on the wire (tag + the
                // 4-byte count of an empty bits/item-set body). The
                // reservation is additionally clamped: an in-memory
                // `ReportData` is ~6× the minimum wire size, so trusting a
                // hostile count even within the payload bound would
                // reserve far more than the bytes received — the Vec
                // grows to the true count as reports actually parse.
                let count = c.read_count("report batch", 5)?;
                let mut reports = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    reports.push(read_report(&mut c)?);
                }
                Frame::Reports(reports)
            }
            TAG_INGESTED => Frame::Ingested {
                accepted: c.read_u64()?,
            },
            TAG_BUSY => Frame::Busy {
                accepted: c.read_u64()?,
            },
            TAG_QUERY => Frame::Query,
            TAG_ESTIMATES => {
                let users = c.read_u64()?;
                let count = c.read_count("estimate vector", 8)?;
                let mut estimates = Vec::with_capacity(count);
                for _ in 0..count {
                    estimates.push(c.read_f64()?);
                }
                Frame::Estimates { users, estimates }
            }
            TAG_TOP_K_QUERY => Frame::TopKQuery { k: c.read_u64()? },
            TAG_CANDIDATES => {
                let users = c.read_u64()?;
                let count = c.read_count("candidate list", 16)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    let item = c.read_u64()?;
                    items.push((item, c.read_f64()?));
                }
                Frame::Candidates { users, items }
            }
            TAG_CHECKPOINT => Frame::Checkpoint,
            TAG_CHECKPOINT_ACK => Frame::CheckpointAck {
                users: c.read_u64()?,
            },
            TAG_REJECT => Frame::Reject {
                accepted: c.read_u64()?,
                message: c.read_string("reject message")?,
            },
            TAG_SNAPSHOT_QUERY => Frame::SnapshotQuery,
            TAG_SNAPSHOT => {
                let users = c.read_u64()?;
                let (total, offset) = read_chunk_header(&mut c)?;
                let count = c.read_count("snapshot chunk", 8)?;
                check_chunk_bounds("snapshot chunk", total, offset, count)?;
                let mut counts = Vec::with_capacity(count);
                for _ in 0..count {
                    counts.push(c.read_u64()?);
                }
                Frame::Snapshot {
                    users,
                    total,
                    offset,
                    counts,
                }
            }
            TAG_ESTIMATES_PART => {
                let users = c.read_u64()?;
                let (total, offset) = read_chunk_header(&mut c)?;
                let count = c.read_count("estimates chunk", 8)?;
                check_chunk_bounds("estimates chunk", total, offset, count)?;
                let mut estimates = Vec::with_capacity(count);
                for _ in 0..count {
                    estimates.push(c.read_f64()?);
                }
                Frame::EstimatesPart {
                    users,
                    total,
                    offset,
                    estimates,
                }
            }
            other => return Err(FrameError::UnknownTag(other)),
        };
        c.finish("frame payload")?;
        Ok(frame)
    }

    /// Encodes the frame — header and payload — into bytes.
    pub fn encode(&self) -> Vec<u8> {
        frame_bytes(self.tag(), self.payload())
    }

    /// Exact byte length of this frame's payload, computed arithmetically
    /// (the per-shape twin of [`encoded_report_len`]) — what
    /// [`Self::fits_one_frame`] uses so that sizing a reply never builds
    /// and discards the actual payload bytes.
    pub fn encoded_payload_len(&self) -> usize {
        fn shape_len(shape: ReportShape) -> usize {
            match shape {
                ReportShape::Hashed { .. } | ReportShape::ItemSet { .. } => 1 + 8,
                ReportShape::Bits | ReportShape::Value => 1,
            }
        }
        match self {
            Frame::Hello {
                version,
                kind,
                shape,
                tenant,
                ..
            } => {
                let tenant_len = if *version >= PROTOCOL_VERSION {
                    4 + tenant.len()
                } else {
                    0
                };
                4 + (4 + kind.len()) + shape_len(*shape) + 8 + 8 + tenant_len
            }
            Frame::Ingested { .. }
            | Frame::Busy { .. }
            | Frame::CheckpointAck { .. }
            | Frame::TopKQuery { .. } => 8,
            Frame::HelloAck { run_line, .. } => 8 + 4 + run_line.len(),
            Frame::Reports(reports) => 4 + reports.iter().map(encoded_report_len).sum::<usize>(),
            Frame::Query | Frame::Checkpoint | Frame::SnapshotQuery => 0,
            Frame::Estimates { estimates, .. } => 8 + 4 + 8 * estimates.len(),
            Frame::Candidates { items, .. } => 8 + 4 + 16 * items.len(),
            Frame::Reject { message, .. } => 8 + 4 + message.len(),
            Frame::Snapshot { counts, .. } => 8 + 8 + 8 + 4 + 8 * counts.len(),
            Frame::EstimatesPart { estimates, .. } => 8 + 8 + 8 + 4 + 8 * estimates.len(),
        }
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
        if buf.len() < 5 {
            return Err(FrameError::Truncated {
                needed: 5,
                available: buf.len(),
            });
        }
        let tag = buf[0];
        let len = u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD_LEN {
            return Err(FrameError::Oversized {
                len,
                max: MAX_PAYLOAD_LEN,
            });
        }
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
        Self::parse_payload(tag, &buf[5..5 + len])
    }

    /// Writes the frame to a stream (one `write_all`; callers flush).
    ///
    /// # Errors
    /// Propagates I/O errors as [`FrameError::Io`].
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), FrameError> {
        w.write_all(&self.encode())?;
        Ok(())
    }

    /// Reads one frame from a stream. Returns `Ok(None)` on a clean EOF at
    /// a frame boundary (the peer closed the connection); EOF *inside* a
    /// frame is [`FrameError::Truncated`].
    ///
    /// # Errors
    /// Typed decode errors or [`FrameError::Io`].
    pub fn read_from<R: Read>(r: &mut R) -> Result<Option<Frame>, FrameError> {
        let mut header = [0u8; 5];
        let mut got = 0;
        while got < header.len() {
            match r.read(&mut header[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => {
                    return Err(FrameError::Truncated {
                        needed: header.len(),
                        available: got,
                    })
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        let tag = header[0];
        let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD_LEN {
            return Err(FrameError::Oversized {
                len,
                max: MAX_PAYLOAD_LEN,
            });
        }
        // The payload buffer grows as bytes actually arrive (`take` +
        // `read_to_end`), with only a small initial reservation — a peer
        // sending a 5-byte header claiming 16 MiB must deliver the bytes
        // before the reader holds them, keeping the module's
        // no-allocation-ahead-of-data guarantee true for the stream
        // reader too, not just the slice decoder.
        let mut payload = Vec::with_capacity(len.min(64 << 10));
        let got = r
            .by_ref()
            .take(len as u64)
            .read_to_end(&mut payload)
            .map_err(|e| FrameError::Io(e.to_string()))?;
        if got < len {
            return Err(FrameError::Truncated {
                needed: len,
                available: got,
            });
        }
        Self::parse_payload(tag, &payload).map(Some)
    }
}

/// What the [`FrameAssembler`] is in the middle of.
enum AssemblerState {
    /// Collecting the 5-byte `tag + payload_len` header.
    Header { buf: [u8; 5], len: usize },
    /// Header complete; collecting `need` payload bytes.
    Payload {
        tag: u8,
        need: usize,
        payload: Vec<u8>,
    },
}

/// Push-based incremental frame decoder: feed it whatever bytes the
/// socket produced — any fragmentation, down to one byte at a time — and
/// it yields exactly the frames [`Frame::decode`] would yield on the
/// concatenation. This is the non-blocking twin of [`Frame::read_from`]:
/// the reactor cannot block for the rest of a frame, so the
/// decoder keeps its place between reads instead.
///
/// The stream reader's safety properties carry over unchanged:
/// an oversized length prefix fails at header completion *before* any
/// payload allocation, and the payload buffer grows only as bytes
/// actually arrive (small initial reservation), so a peer claiming a
/// 16 MiB frame holds no more memory than it has transmitted
/// ([`Self::buffered_bytes`] is the live measure; the hostile-peer
/// stress test pins it down).
///
/// Decode errors are *sticky*: after a byte stream has violated the
/// grammar there is no way to resynchronise on a length-prefixed wire,
/// so every later [`Self::feed`] returns the same error and the
/// connection must be torn down (after flushing the typed
/// [`Frame::Reject`], as the reactor does).
pub struct FrameAssembler {
    state: AssemblerState,
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
            state: AssemblerState::Header {
                buf: [0; 5],
                len: 0,
            },
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
    /// grammar with. The error is sticky: once returned, every later call
    /// returns it again (frames already decoded remain retrievable).
    pub fn feed(&mut self, mut bytes: &[u8]) -> Result<(), FrameError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        loop {
            match &mut self.state {
                // A frame completes on the byte that fills its payload —
                // including the zero-payload case right after the header —
                // so completion is checked before asking for more input.
                AssemblerState::Payload { tag, need, payload } if payload.len() == *need => {
                    match Frame::parse_payload(*tag, payload) {
                        Ok(frame) => self.ready.push_back(frame),
                        Err(e) => {
                            self.failed = Some(e.clone());
                            return Err(e);
                        }
                    }
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
                        let tag = buf[0];
                        let need =
                            u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes")) as usize;
                        if need > MAX_PAYLOAD_LEN {
                            let e = FrameError::Oversized {
                                len: need,
                                max: MAX_PAYLOAD_LEN,
                            };
                            self.failed = Some(e.clone());
                            return Err(e);
                        }
                        self.state = AssemblerState::Payload {
                            tag,
                            need,
                            // Same incremental-growth policy as
                            // `Frame::read_from`: reserve small, grow as
                            // bytes arrive.
                            payload: Vec::with_capacity(need.min(64 << 10)),
                        };
                    }
                }
                AssemblerState::Payload { need, payload, .. } => {
                    let take = (*need - payload.len()).min(bytes.len());
                    payload.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                }
            }
        }
    }

    /// The next fully decoded frame, in arrival order.
    pub fn next_frame(&mut self) -> Option<Frame> {
        self.ready.pop_front()
    }

    /// Bytes buffered for the frame in progress (header + partial
    /// payload). This — not the peer's claimed length prefix — is what a
    /// connection's decode path holds in memory, which is what the
    /// slow-loris stress bound measures.
    pub fn buffered_bytes(&self) -> usize {
        match &self.state {
            AssemblerState::Header { len, .. } => *len,
            AssemblerState::Payload { payload, .. } => 5 + payload.len(),
        }
    }

    /// `true` when the stream stopped inside a frame — an EOF now is a
    /// truncation (the blocking reader's [`FrameError::Truncated`]), not
    /// a clean close.
    pub fn mid_frame(&self) -> bool {
        !matches!(self.state, AssemblerState::Header { len: 0, .. })
    }

    /// The typed error an EOF at this point amounts to: `None` at a frame
    /// boundary (clean close), [`FrameError::Truncated`] mid-frame — the
    /// same classification [`Frame::read_from`] makes, so both decoders
    /// report an interrupted frame identically.
    pub fn eof_truncation(&self) -> Option<FrameError> {
        match &self.state {
            AssemblerState::Header { len: 0, .. } => None,
            AssemblerState::Header { len, .. } => Some(FrameError::Truncated {
                needed: 5,
                available: *len,
            }),
            AssemblerState::Payload { need, payload, .. } => Some(FrameError::Truncated {
                needed: *need,
                available: payload.len(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // A legacy v3 Hello has no tenant field on the wire; it decodes
        // back to the empty (default) tenant and round-trips bytewise.
        round_trip(Frame::Hello {
            version: LEGACY_PROTOCOL_VERSION,
            kind: "oue".into(),
            shape: ReportShape::Bits,
            report_len: 20,
            ldp_eps_bits: 1.0f64.to_bits(),
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

    /// The v4 tenant field cannot disturb the v3 byte layout: a v3
    /// `Hello` encoded by this codec is byte-identical to the hand-built
    /// pre-tenancy layout (version, kind, shape, width, ε — nothing
    /// after), and those bytes decode to the default (empty) tenant.
    #[test]
    fn v3_hello_bytes_are_unchanged_by_the_tenant_field() {
        let kind = "oue";
        let mut payload = Vec::new();
        put_u32(&mut payload, LEGACY_PROTOCOL_VERSION);
        put_string(&mut payload, kind);
        put_shape(&mut payload, ReportShape::Bits);
        put_u64(&mut payload, 20);
        put_u64(&mut payload, 1.0f64.to_bits());
        let legacy_bytes = frame_bytes(TAG_HELLO, payload);

        let hello = Frame::Hello {
            version: LEGACY_PROTOCOL_VERSION,
            kind: kind.into(),
            shape: ReportShape::Bits,
            report_len: 20,
            ldp_eps_bits: 1.0f64.to_bits(),
            tenant: String::new(),
        };
        assert_eq!(hello.encode(), legacy_bytes, "v3 encode drifted");
        assert_eq!(Frame::decode(&legacy_bytes).unwrap(), hello);

        // And a v4 Hello is the same prefix plus exactly the tenant
        // string — nothing reordered.
        let v4 = Frame::Hello {
            version: PROTOCOL_VERSION,
            kind: kind.into(),
            shape: ReportShape::Bits,
            report_len: 20,
            ldp_eps_bits: 1.0f64.to_bits(),
            tenant: "alpha".into(),
        };
        let v4_bytes = v4.encode();
        let legacy_payload = &legacy_bytes[5..];
        // Same fields after the version word, in the same order...
        assert_eq!(
            &v4_bytes[5 + 4..5 + legacy_payload.len()],
            &legacy_payload[4..],
            "the v4 payload must extend the v3 layout, not reorder it"
        );
        // ...with the tenant string appended at the very end.
        assert_eq!(&v4_bytes[v4_bytes.len() - 5..], b"alpha");
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
        let mut oversized = vec![TAG_QUERY];
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
        let mut bytes = vec![TAG_REJECT];
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
        assert!(!asm.mid_frame(), "stream ended at a frame boundary");
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

    #[test]
    fn small_estimate_replies_stay_on_the_legacy_frame() {
        // The chunker must not change a single wire byte for domains that
        // already fit one frame — protocol-2 clients' replies are sacred.
        let estimates: Vec<f64> = (0..1000).map(|i| i as f64 / 7.0).collect();
        let frames = estimates_reply_frames(42, &estimates);
        assert_eq!(
            frames,
            vec![Frame::Estimates {
                users: 42,
                estimates
            }]
        );
    }

    #[test]
    fn chunked_replies_are_contiguous_and_reassemble_exactly() {
        // Just over the single-frame cap: payload 12 + 8n > 16 MiB.
        let n = (MAX_PAYLOAD_LEN - 12) / 8 + 1;
        let estimates: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let frames = estimates_reply_frames(5, &estimates);
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
        assert_eq!(
            snapshot_reply_frames(0, &[]),
            vec![Frame::Snapshot {
                users: 0,
                total: 0,
                offset: 0,
                counts: vec![]
            }]
        );
        let counts: Vec<u64> = (0..(CHUNK_ELEMS * 2 + 3) as u64).collect();
        let frames = snapshot_reply_frames(7, &counts);
        assert_eq!(frames.len(), 3);
        let mut got = Vec::new();
        for frame in &frames {
            assert!(frame.fits_one_frame());
            match frame {
                Frame::Snapshot {
                    total,
                    offset,
                    counts: chunk,
                    ..
                } => {
                    assert_eq!(*total, counts.len() as u64);
                    assert_eq!(*offset, got.len() as u64);
                    got.extend_from_slice(chunk);
                }
                other => panic!("expected Snapshot, got {other:?}"),
            }
        }
        assert_eq!(got, counts);
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
        assert!(asm.mid_frame());
        assert_eq!(asm.buffered_bytes(), 15);
    }
}
