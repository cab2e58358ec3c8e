//! Property tests for the frame codec.
//!
//! Four laws:
//!
//! 1. **Round-trip identity** — for arbitrary [`ReportData`] of every wire
//!    shape and arbitrary control frames, `decode(encode(f)) == f`, both
//!    through the slice decoder and the stream reader.
//! 2. **Total decoding** — truncations, length-prefix corruption, and
//!    arbitrary byte mutations of valid frames either decode to *some*
//!    frame or return a typed [`FrameError`]; the decoder never panics and
//!    never accepts an oversized length prefix.
//! 3. **Fragmentation invariance** — the incremental [`FrameAssembler`]
//!    (the decode path of the blocking stream reader, over the splitter
//!    the event loops use)
//!    fed any byte-fragmentation schedule of a frame sequence yields
//!    exactly the frames of a whole-frame decode and buffers no more than
//!    one frame at a time; the stream reader, fed a few bytes per read,
//!    never reads past a frame's end and classifies an EOF cut as a clean
//!    close or a truncation.
//! 4. **One report grammar** — the wire check ([`ReportsFrame::check`],
//!    what the coordinator routes by) accepts exactly the bytes
//!    [`Frame::decode`] turns into a `Reports` frame, with the same count,
//!    and fails with the decoder's own error on a `Reports` frame it
//!    refuses: over valid frames of every report shape, and over truncated
//!    and byte-flipped copies of them.
//! 5. **Admission is decode, then validate** — the collector's admission
//!    ([`WireFrame::admit_reports`], one walk applying the grammar and a
//!    tenant's report rules) accepts exactly the frames [`Frame::decode`]
//!    turns into reports that [`validate`] then accepts, and refuses the
//!    rest with the same error: the decoder's for bytes that do not
//!    parse, `validate`'s (same text, same report index) for a report
//!    that breaks a rule. Every admitted batch folds from its bytes
//!    ([`ReportAccumulator::accumulate_checked`]) to the counts and users
//!    `accumulate_batch` gives the decoded reports, whole or cut at a
//!    `Busy` prefix and folded with the re-admitted rest.

use idldp_core::report::{hash_bucket, validate, PackedBits, Report, ReportData, ReportShape};
use idldp_server::{
    Admission, Frame, FrameAssembler, FrameError, ReportsFrame, WireFrame, MAX_PAYLOAD_LEN,
    PROTOCOL_VERSION,
};
use idldp_stream::{ReportAccumulator, ShapedAccumulator};
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

/// A `Reports` frame of one report shape (`shape` 0–3) or of all four
/// mixed (`shape` 4). Bit reports reach past one packed word.
fn arb_reports_frame() -> impl Strategy<Value = Vec<ReportData>> {
    (
        0usize..5,
        prop::collection::vec(
            (
                arb_report(),
                prop::collection::vec(0u8..=1, 0..140),
                0usize..4,
            ),
            0..10,
        ),
    )
        .prop_map(|(shape, reports)| {
            reports
                .into_iter()
                .map(|(report, wide_bits, own_shape)| {
                    match if shape == 4 { own_shape } else { shape } {
                        0 => ReportData::Bits(PackedBits::from_slots(&wide_bits).unwrap()),
                        1 => ReportData::Value(wide_bits.len() * 7919),
                        2 => ReportData::Hashed {
                            seed: (wide_bits.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            value: wide_bits.len(),
                        },
                        _ => match report {
                            ReportData::ItemSet(items) => ReportData::ItemSet(items),
                            _ => ReportData::ItemSet((0..wide_bits.len() % 9).collect()),
                        },
                    }
                })
                .collect()
        })
}

/// Law 4 on one byte string: the check and the decoder agree on it.
fn check_agrees_with_decode(bytes: &[u8]) {
    match (Frame::decode(bytes), ReportsFrame::check(bytes)) {
        (Ok(Frame::Reports(reports)), Ok(checked)) => {
            prop_assert_eq!(checked.len(), reports.len(), "report counts differ");
            prop_assert_eq!(checked.as_bytes(), bytes);
        }
        (Ok(Frame::Reports(reports)), Err(e)) => {
            prop_assert!(
                false,
                "check refused {} decodable reports: {e}",
                reports.len()
            )
        }
        (Ok(other), Ok(_)) => prop_assert!(false, "check accepted a {other:?}"),
        // Another frame kind: not the check's to accept.
        (Ok(_), Err(_)) => {}
        (Err(e), Ok(checked)) => {
            prop_assert!(
                false,
                "check accepted {} reports decode refuses: {e}",
                checked.len()
            )
        }
        (Err(decoded), Err(checked)) => {
            if bytes.first() == Some(&0x03) {
                prop_assert_eq!(checked, decoded, "a refused Reports frame, two errors");
            }
        }
    }
}

/// A tenant `(shape, width)` and a frame of reports for it: most obey the
/// tenant's rules, and some break one — a bit report one slot too wide or
/// narrow, a value or hashed value out of range, an item set that is
/// empty, of the wrong pinned size, repeats a member or holds one out of
/// range — or arrive in another shape.
fn arb_tenant_frame() -> impl Strategy<Value = (ReportShape, usize, Vec<ReportData>)> {
    (
        0usize..4,
        1usize..140,
        2usize..7,
        0usize..3,
        prop::collection::vec((0u8..24, any::<u64>()), 0..14),
    )
        .prop_map(|(kind, m, g, k, picks)| {
            let k = if m >= 2 { k.min(m - 1) } else { 0 };
            let shape = match kind {
                0 => ReportShape::Bits,
                1 => ReportShape::Value,
                2 => ReportShape::Hashed { range: g },
                _ => ReportShape::ItemSet { k },
            };
            let bits = |slots: usize, x: u64| {
                let row: Vec<u8> = (0..slots).map(|i| hash_bucket(x, i, 2) as u8).collect();
                ReportData::Bits(PackedBits::from_slots(&row).unwrap())
            };
            // `len` distinct members of `0..m` from a rotation by `x`.
            let set = |len: usize, x: u64| -> Vec<usize> {
                (0..len.min(m)).map(|j| (x as usize + j) % m).collect()
            };
            let set_len = |x: u64| {
                if k > 0 {
                    k
                } else {
                    1 + (x as usize) % m.min(6)
                }
            };
            let reports = picks
                .into_iter()
                .map(|(pick, x)| match (shape, pick) {
                    (ReportShape::Bits, 20) => bits(m + 1, x),
                    (ReportShape::Bits, 21) => bits(m - 1, x),
                    (ReportShape::Bits, _) if pick < 20 => bits(m, x),
                    (ReportShape::Value, 20) => ReportData::Value(m + x as usize % 3),
                    (ReportShape::Value, _) if pick < 20 => ReportData::Value(x as usize % m),
                    (ReportShape::Hashed { range }, 20) => ReportData::Hashed {
                        seed: x,
                        value: range + (x >> 40) as usize % 3,
                    },
                    (ReportShape::Hashed { range }, _) if pick < 20 => ReportData::Hashed {
                        seed: x,
                        value: (x >> 40) as usize % range,
                    },
                    (ReportShape::ItemSet { .. }, 20) => ReportData::ItemSet(Vec::new()),
                    (ReportShape::ItemSet { .. }, 21) => {
                        let mut items = set(set_len(x), x);
                        items.push(items[0]);
                        ReportData::ItemSet(items)
                    }
                    (ReportShape::ItemSet { .. }, 22) => {
                        let mut items = set(set_len(x), x);
                        items[0] = m + x as usize % 5;
                        ReportData::ItemSet(items)
                    }
                    (ReportShape::ItemSet { .. }, _) if pick < 20 => {
                        ReportData::ItemSet(set(set_len(x), x))
                    }
                    // A set one member longer than a pinned `k` (any
                    // distinct set passes when `k` is not pinned), or a
                    // report of another shape.
                    (ReportShape::ItemSet { .. }, _) => ReportData::ItemSet(set(set_len(x) + 1, x)),
                    (_, _) => match x % 3 {
                        0 => bits(m, x),
                        1 => ReportData::Value(x as usize % m),
                        _ => ReportData::ItemSet(set(1, x)),
                    },
                })
                .collect();
            (shape, m, reports)
        })
}

/// Law 5 on one byte string: admission agrees with decode + validate, and
/// an admitted batch folds like the decoded reports, whole and split at
/// the `Busy` prefix `split` (an index into `0..=len`).
fn admission_agrees_with_decode_then_validate(
    shape: ReportShape,
    m: usize,
    bytes: &[u8],
    split: prop::sample::Index,
) {
    let admitted = WireFrame::new(bytes.to_vec())
        .map_err(Admission::Frame)
        .and_then(|frame| frame.admit_reports(shape, m));
    match (Frame::decode(bytes), admitted) {
        (Ok(Frame::Reports(reports)), Ok(batch)) => {
            let views: Vec<Report<'_>> = reports.iter().map(ReportData::as_report).collect();
            prop_assert!(validate(shape, m, views.iter().copied()).is_ok());
            prop_assert_eq!(batch.len(), reports.len());
            let mut want = ShapedAccumulator::for_shape(shape, m);
            want.accumulate_batch(&views).unwrap();

            let mut whole = ShapedAccumulator::for_shape(shape, m);
            whole.accumulate_checked(&batch).unwrap();
            prop_assert_eq!(&whole, &want, "whole batch");

            // `Busy { accepted: k }`: the queue keeps the first k reports,
            // and the client's resend of the rest is admitted afresh.
            let k = split.index(batch.len() + 1);
            let mut prefix = batch.clone();
            prefix.truncate(k);
            let rest = ReportsFrame::check(bytes).unwrap().suffix(k).unwrap();
            let rest = WireFrame::new(rest.as_bytes().to_vec())
                .unwrap()
                .admit_reports(shape, m)
                .unwrap();
            prop_assert_eq!((prefix.len(), rest.len()), (k, batch.len() - k));
            let mut split_fold = ShapedAccumulator::for_shape(shape, m);
            split_fold.accumulate_checked(&prefix).unwrap();
            split_fold.accumulate_checked(&rest).unwrap();
            prop_assert_eq!(&split_fold, &want, "split at {}", k);
        }
        (Ok(Frame::Reports(reports)), Err(Admission::Report(refused))) => {
            let views: Vec<Report<'_>> = reports.iter().map(ReportData::as_report).collect();
            let validated = validate(shape, m, views.iter().copied());
            prop_assert_eq!(validated.as_ref().err(), Some(&refused));
            prop_assert_eq!(
                validated.unwrap_err().to_string(),
                refused.to_string(),
                "refusal text"
            );
        }
        (Ok(Frame::Reports(reports)), Err(Admission::Frame(e))) => prop_assert!(
            false,
            "admission refused {} decodable reports as a bad frame: {e}",
            reports.len()
        ),
        // Another frame kind is never admitted.
        (Ok(other), admitted) => prop_assert!(
            matches!(admitted, Err(Admission::Frame(_))),
            "admission of a {other:?}: {admitted:?}"
        ),
        (Err(decoded), Err(Admission::Frame(refused))) => {
            if bytes.first() == Some(&0x03) {
                prop_assert_eq!(refused, decoded, "a refused Reports frame, two errors");
            }
        }
        (Err(decoded), admitted) => prop_assert!(
            false,
            "admission gave {admitted:?} for bytes decode refuses: {decoded}"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Law 5: frames for a tenant of every shape, mixing valid reports
    /// with ones that break a rule, then one truncated copy (the header's
    /// length fixed up, so the cut lands in the report grammar), one
    /// byte-flipped copy, and one with its report count rewritten.
    #[test]
    fn admission_is_decode_then_validate(
        (shape, m, reports) in arb_tenant_frame(),
        cut in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        xor in 1u8..=255,
        recount in 0u32..16,
        split in any::<prop::sample::Index>(),
    ) {
        let bytes = Frame::Reports(reports).encode();
        admission_agrees_with_decode_then_validate(shape, m, &bytes, split);

        let cut = cut.index(bytes.len());
        if cut >= 5 {
            let mut fixed = bytes[..cut].to_vec();
            fixed[1..5].copy_from_slice(&((cut - 5) as u32).to_le_bytes());
            admission_agrees_with_decode_then_validate(shape, m, &fixed, split);
        }

        let mut flipped = bytes.clone();
        flipped[at.index(bytes.len())] ^= xor;
        admission_agrees_with_decode_then_validate(shape, m, &flipped, split);

        let mut recounted = bytes.clone();
        recounted[5..9].copy_from_slice(&recount.to_le_bytes());
        admission_agrees_with_decode_then_validate(shape, m, &recounted, split);
    }

    /// Law 4: valid `Reports` frames of every report shape, then one
    /// truncated copy (the header's length fixed up, so the cut lands in
    /// the report grammar, and left as sent), one byte-flipped copy, one
    /// with bytes appended behind the last report, and one whose report
    /// count is rewritten.
    #[test]
    fn wire_check_accepts_exactly_what_decode_accepts(
        reports in arb_reports_frame(),
        cut in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        xor in 1u8..=255,
        extra in prop::collection::vec(0u8..=255, 1..12),
        recount in 0u32..16,
    ) {
        let bytes = Frame::Reports(reports.clone()).encode();
        check_agrees_with_decode(&bytes);
        prop_assert_eq!(ReportsFrame::check(&bytes).unwrap().len(), reports.len());

        let cut = cut.index(bytes.len());
        check_agrees_with_decode(&bytes[..cut]);
        if cut >= 5 {
            let mut fixed = bytes[..cut].to_vec();
            fixed[1..5].copy_from_slice(&((cut - 5) as u32).to_le_bytes());
            check_agrees_with_decode(&fixed);
        }

        let mut flipped = bytes.clone();
        flipped[at.index(bytes.len())] ^= xor;
        check_agrees_with_decode(&flipped);

        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&extra);
        let len = (trailing.len() - 5) as u32;
        trailing[1..5].copy_from_slice(&len.to_le_bytes());
        check_agrees_with_decode(&trailing);

        let mut recounted = bytes.clone();
        recounted[5..9].copy_from_slice(&recount.to_le_bytes());
        check_agrees_with_decode(&recounted);
    }

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
                | FrameError::Malformed(_)
                | FrameError::UnsupportedVersion(_),
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
