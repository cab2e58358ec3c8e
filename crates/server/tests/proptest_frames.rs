//! Property tests for the frame codec.
//!
//! Three laws:
//!
//! 1. **Round-trip identity** — for arbitrary [`ReportData`] of every wire
//!    shape and arbitrary control frames, `decode(encode(f)) == f`, both
//!    through the slice decoder and the stream reader.
//! 2. **Total decoding** — truncations, length-prefix corruption, and
//!    arbitrary byte mutations of valid frames either decode to *some*
//!    frame or return a typed [`FrameError`]; the decoder never panics and
//!    never accepts an oversized length prefix.
//! 3. **Fragmentation invariance** — the incremental [`FrameAssembler`]
//!    (the decode path of the reactor and of the blocking stream reader)
//!    fed any byte-fragmentation schedule of a frame sequence yields
//!    exactly the frames of a whole-frame decode and buffers no more than
//!    one frame at a time; the stream reader, fed a few bytes per read,
//!    never reads past a frame's end and classifies an EOF cut as a clean
//!    close or a truncation.

use idldp_core::report::{PackedBits, ReportData};
use idldp_server::{Frame, FrameAssembler, FrameError, MAX_PAYLOAD_LEN, PROTOCOL_VERSION};
use proptest::prelude::*;
use std::io::Read;

/// A reader that hands out at most `drip` bytes per call, like a socket
/// delivering a stream in small segments.
struct Drip<'a> {
    bytes: &'a [u8],
    drip: usize,
}

impl Read for Drip<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.drip).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Arbitrary report of any of the four wire shapes.
fn arb_report() -> impl Strategy<Value = ReportData> {
    (
        0usize..4,
        prop::collection::vec(0u8..=1, 0..50),
        0usize..100_000,
        (any::<u64>(), 0usize..1_000),
        prop::collection::vec(0usize..500, 0..12),
    )
        .prop_map(
            |(kind, bits, value, (seed, hashed_value), mut items)| match kind {
                0 => ReportData::Bits(PackedBits::from_slots(&bits).unwrap()),
                1 => ReportData::Value(value),
                2 => ReportData::Hashed {
                    seed,
                    value: hashed_value,
                },
                _ => {
                    // Item sets need distinct members to be valid reports; the
                    // codec itself does not care, but keep both flavors in play.
                    items.sort_unstable();
                    items.dedup();
                    ReportData::ItemSet(items)
                }
            },
        )
}

/// Arbitrary frame of every protocol message kind.
fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        0usize..15,
        prop::collection::vec(arb_report(), 0..8),
        any::<u64>(),
        prop::collection::vec((0.0f64..1.0, any::<bool>()), 0..20),
        prop::collection::vec(0u8..=255, 0..24),
    )
        .prop_map(|(kind, reports, number, floats, text_bytes)| {
            // Signed/subnormal/zero estimates all travel as raw bits.
            let estimates: Vec<f64> = floats
                .iter()
                .map(|&(f, neg)| if neg { -f * 1e-300 } else { f })
                .collect();
            let message: String = text_bytes.iter().map(|&b| char::from(b)).collect();
            match kind {
                0 => Frame::Hello {
                    version: PROTOCOL_VERSION,
                    // Any string must survive the codec round trip, not
                    // just validated tenant ids: decode is total.
                    tenant: message.chars().rev().collect(),
                    kind: message,
                    shape: reports
                        .first()
                        .map(|r| match r {
                            ReportData::Bits(_) => idldp_core::report::ReportShape::Bits,
                            ReportData::Value(_) => idldp_core::report::ReportShape::Value,
                            ReportData::Hashed { value, .. } => {
                                idldp_core::report::ReportShape::Hashed { range: value + 1 }
                            }
                            ReportData::ItemSet(items) => {
                                idldp_core::report::ReportShape::ItemSet { k: items.len() }
                            }
                        })
                        .unwrap_or(idldp_core::report::ReportShape::Bits),
                    report_len: number,
                    ldp_eps_bits: number.rotate_left(17),
                },
                1 => Frame::HelloAck {
                    users: number,
                    run_line: message,
                },
                2 => Frame::Reports(reports),
                3 => Frame::Ingested { accepted: number },
                4 => Frame::Busy { accepted: number },
                5 => Frame::Query,
                6 => Frame::Estimates {
                    users: number,
                    estimates,
                },
                7 => Frame::TopKQuery { k: number },
                8 => Frame::Candidates {
                    users: number,
                    items: estimates
                        .iter()
                        .enumerate()
                        .map(|(i, &e)| (i as u64, e))
                        .collect(),
                },
                9 => Frame::Checkpoint,
                10 => Frame::CheckpointAck { users: number },
                11 => Frame::SnapshotQuery,
                12 => {
                    // The chunk header must be self-consistent
                    // (offset + len ≤ total) or the decoder rejects it.
                    let counts: Vec<u64> = estimates.iter().map(|e| e.to_bits()).collect();
                    let offset = number % 4096;
                    Frame::Snapshot {
                        users: number,
                        total: offset + counts.len() as u64 + number % 3,
                        offset,
                        counts,
                    }
                }
                13 => {
                    let offset = number % 4096;
                    Frame::EstimatesPart {
                        users: number,
                        total: offset + estimates.len() as u64 + number % 5,
                        offset,
                        estimates,
                    }
                }
                _ => Frame::Reject {
                    accepted: number,
                    message,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// encode → decode is the identity for every frame kind, through both
    /// decoder entry points.
    #[test]
    fn frame_round_trip(frame in arb_frame()) {
        let bytes = frame.encode();
        prop_assert_eq!(Frame::decode(&bytes).unwrap(), frame.clone());
        let mut cursor = std::io::Cursor::new(&bytes);
        prop_assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(frame));
        prop_assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
    }

    /// Every strict prefix of a valid frame is rejected with a typed
    /// error — never a panic, never a bogus success.
    #[test]
    fn truncation_never_panics(frame in arb_frame(), cut in any::<prop::sample::Index>()) {
        let bytes = frame.encode();
        let cut = cut.index(bytes.len().max(1)).min(bytes.len().saturating_sub(1));
        match Frame::decode(&bytes[..cut]) {
            Err(FrameError::Truncated { .. }) | Err(FrameError::Malformed(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
            Ok(decoded) => prop_assert!(false, "prefix decoded to {decoded:?}"),
        }
        // The stream reader agrees (EOF inside a frame is Truncated; a cut
        // at 0 is a clean EOF).
        let mut cursor = std::io::Cursor::new(&bytes[..cut]);
        match Frame::read_from(&mut cursor) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only at the frame boundary"),
            Ok(Some(decoded)) => prop_assert!(false, "prefix read as {decoded:?}"),
            Err(FrameError::Truncated { .. }) | Err(FrameError::Malformed(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }

    /// Arbitrary single-byte mutations of a valid frame either decode to
    /// some frame or fail with a typed error — decoding is total.
    #[test]
    fn mutation_never_panics(
        frame in arb_frame(),
        at in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = frame.encode();
        let at = at.index(bytes.len());
        bytes[at] ^= xor;
        match Frame::decode(&bytes) {
            Ok(_) => {}
            Err(
                FrameError::Truncated { .. }
                | FrameError::Oversized { .. }
                | FrameError::UnknownTag(_)
                | FrameError::Malformed(_),
            ) => {}
            Err(FrameError::Io(detail)) => {
                prop_assert!(false, "slice decode cannot do i/o: {detail}")
            }
        }
    }

    /// Oversized length prefixes are rejected before any allocation, for
    /// every tag byte.
    #[test]
    fn oversized_prefix_is_always_rejected(tag in 0u8..=255, extra in 1u32..1_000_000) {
        let len = MAX_PAYLOAD_LEN as u32 + extra;
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&len.to_le_bytes());
        prop_assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized {
                len: len as usize,
                max: MAX_PAYLOAD_LEN,
            })
        );
    }

    /// The incremental assembler is fragmentation-invariant: any chunking
    /// of an interleaved frame sequence — byte-at-a-time drips, chunks
    /// straddling frame boundaries, many frames in one chunk — reassembles
    /// to exactly the frames a whole-frame decode yields, in order, and
    /// ends at a clean frame boundary. Along the way the assembler never
    /// buffers more than the one in-flight frame (the incremental-read
    /// bound the reactor's slow-loris defence rests on).
    #[test]
    fn assembler_reassembles_any_fragmentation_schedule(
        frames in prop::collection::vec(arb_frame(), 1..6),
        splits in prop::collection::vec(any::<prop::sample::Index>(), 0..32),
    ) {
        let mut bytes = Vec::new();
        let mut max_wire = 0usize;
        for frame in &frames {
            let encoded = frame.encode();
            max_wire = max_wire.max(encoded.len());
            bytes.extend_from_slice(&encoded);
        }
        let mut cuts: Vec<usize> = splits.iter().map(|i| i.index(bytes.len() + 1)).collect();
        cuts.push(bytes.len());
        cuts.sort_unstable();
        cuts.dedup();

        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        let mut prev = 0usize;
        for cut in cuts {
            asm.feed(&bytes[prev..cut]).unwrap();
            prop_assert!(
                asm.buffered_bytes() <= max_wire,
                "assembler buffers {} bytes, largest frame is {max_wire}",
                asm.buffered_bytes()
            );
            while let Some(frame) = asm.next_frame() {
                got.push(frame);
            }
            prev = cut;
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(asm.eof_truncation(), None, "stream must end at a frame boundary");
    }

    /// Over any prefix of a frame sequence, with a reader that hands out
    /// 1–7 bytes per call, successive `read_from` calls yield exactly the
    /// whole frames before the cut, then `Ok(None)` when the cut is at a
    /// frame boundary or `Truncated` when it is inside a frame. Each call
    /// must stop at its frame's end: a byte read past it would be lost to
    /// the next call, and the next frame would not decode.
    #[test]
    fn stream_reader_stops_at_each_frame_end(
        frames in prop::collection::vec(arb_frame(), 1..5),
        cut in any::<prop::sample::Index>(),
        drip in 1usize..8,
    ) {
        let mut bytes = Vec::new();
        let mut ends = vec![0];
        for frame in &frames {
            bytes.extend_from_slice(&frame.encode());
            ends.push(bytes.len());
        }
        let cut = cut.index(bytes.len() + 1);
        let whole = ends[1..].iter().filter(|&&end| end <= cut).count();

        let mut reader = Drip { bytes: &bytes[..cut], drip };
        for frame in &frames[..whole] {
            prop_assert_eq!(Frame::read_from(&mut reader).unwrap().as_ref(), Some(frame));
        }
        match Frame::read_from(&mut reader) {
            Ok(None) => prop_assert!(ends.contains(&cut), "clean EOF inside a frame"),
            Err(FrameError::Truncated { .. }) => {
                prop_assert!(!ends.contains(&cut), "truncation reported at a boundary")
            }
            other => prop_assert!(false, "cut at {cut} read as {other:?}"),
        }
    }
}
