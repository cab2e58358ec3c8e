//! The shape-polymorphic report wire format.
//!
//! PR 1/2 baked one assumption into every layer above the mechanisms: a
//! client report is a 0/1 bit vector of [`crate::mechanism::Mechanism::report_len`]
//! slots. That model fits the unary-encoding family exactly and categorical
//! mechanisms tolerably (a one-hot vector), but it cannot express the wire
//! format of hash-based protocols (OLH sends a `(seed, value in 0..g)`
//! pair) or subset-selection (a small item set) without exploding the
//! report width. This module promotes *report shape* to a first-class
//! abstraction:
//!
//! * [`ReportShape`] — the static shape a mechanism emits, carried by
//!   [`crate::mechanism::Mechanism::report_shape`] and used by servers to
//!   pick the matching accumulator.
//! * [`Report`] — one borrowed report in any shape: the type every
//!   accumulator ingests (`idldp-stream`'s
//!   `ReportAccumulator::accumulate_batch` takes a slice of them).
//! * [`validate`] — the report rules, written once: a batch of reports
//!   against the negotiated shape and width. `idldp-stream`'s
//!   `accumulate_batch` opens its fold with it; the collector's admission
//!   applies the same rules ([`CheckedReports::check`]).
//! * [`walk_report`] / [`walk_batch`] — the report wire grammar, written
//!   once: the transport's decoder, the coordinator's check and the
//!   collector's admission all read reports through it.
//! * [`CheckedReports`] — a `Reports` payload that passed the grammar and
//!   the rules of one shape in a single walk, held as the bytes it
//!   arrived in. Only [`CheckedReports::check`] builds one, and the
//!   accumulators fold straight from its bytes, with no second check.
//! * [`ReportData`] — the owned twin, produced by
//!   [`crate::mechanism::Mechanism::perturb_data`]; what a transport would
//!   serialize.
//! * [`PackedBits`] — the owned bit report: its slots packed 64 per word,
//!   the same bits the wire carries 8 per byte, so a bit report decodes
//!   and folds as the words it arrived in.
//! * [`hash_bucket`] — the shared client/server hash for
//!   [`ReportShape::Hashed`] reports, defined exactly once. The client
//!   encodes with it; the server folds with [`crate::fold::HashedFold`],
//!   which runs the same hash and reduction (a mask for power-of-two
//!   ranges, `%` otherwise) for every pair of a batch across the whole
//!   item domain, without a branch (tested equal to it).
//!
//! Every shape folds to the same server-side state — per-bucket counts over
//! `report_len` buckets ([`crate::mechanism::CountAccumulator`]) — which is
//! what keeps sharded accumulation exact (integer merges commute) for all
//! shapes alike:
//!
//! | shape | wire payload | fold into counts |
//! |---|---|---|
//! | `Bits` | `report_len` bits, packed | add each bit |
//! | `Value` | one value in `0..report_len` | increment that bucket |
//! | `Hashed` | `(seed, value in 0..range)` | increment every `v` with `hash_bucket(seed, v, range) == value` |
//! | `ItemSet` | distinct items in `0..report_len` | increment each member |

use crate::error::{Error, Result};
use crate::fold::{pack_bits_row, packed_words, HashedFold};
use crate::wire::{fit_usize, le_u64, WireCursor, WireError};

/// The report shape a mechanism emits on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportShape {
    /// A 0/1 bit vector of `report_len` slots (the unary-encoding family).
    Bits,
    /// A single categorical value in `0..report_len` (GRR, matrix
    /// mechanisms, PS — transported as the value, foldable as one-hot).
    Value,
    /// A hashed report `(seed, value)` with `value` in `0..range` (OLH).
    /// The server folds it over the item domain with [`hash_bucket`].
    Hashed {
        /// The hash range `g` the per-user hash maps items into.
        range: usize,
    },
    /// A small set of distinct items in `0..report_len` (subset-selection).
    ItemSet {
        /// The exact set cardinality the mechanism emits, or `0` when the
        /// cardinality is not pinned. Subset selection always reports
        /// exactly `k` items; a wrong-sized set would fold cleanly but
        /// bias the `(p, (k−p)/(m−1))` calibration, so the handshake and
        /// [`Report::validate`] refuse it when `k` is pinned.
        k: usize,
    },
}

impl ReportShape {
    /// Short human-readable label (`idldp mechanisms` output).
    pub fn label(&self) -> String {
        match self {
            ReportShape::Bits => "bits".to_string(),
            ReportShape::Value => "value".to_string(),
            ReportShape::Hashed { range } => format!("hashed (seed, value in 0..{range})"),
            ReportShape::ItemSet { k: 0 } => "item-set".to_string(),
            ReportShape::ItemSet { k } => format!("item-set ({k} items)"),
        }
    }
}

/// One client report, borrowed, in whichever shape the transport delivered
/// it. This is the type every report-ingestion API accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Report<'a> {
    /// A 0/1 bit vector of the mechanism's report width, packed, as
    /// [`ReportData::Bits`] owns it and the wire carries it.
    Packed(&'a PackedBits),
    /// A categorical report: the single reported value in
    /// `0..report_len` (GRR and matrix-mechanism wire format).
    Value(usize),
    /// A hashed report: the per-user hash seed and the perturbed hash
    /// value in `0..range` (OLH wire format).
    Hashed {
        /// The per-user hash seed the client drew.
        seed: u64,
        /// The (perturbed) hash value in `0..range`.
        value: usize,
    },
    /// A subset-selection report: the reported distinct items.
    ItemSet(&'a [usize]),
}

impl Report<'_> {
    /// Copies the report into its owned form.
    pub fn to_data(&self) -> ReportData {
        match *self {
            Report::Packed(bits) => ReportData::Bits(bits.clone()),
            Report::Value(v) => ReportData::Value(v),
            Report::Hashed { seed, value } => ReportData::Hashed { seed, value },
            Report::ItemSet(items) => ReportData::ItemSet(items.to_vec()),
        }
    }

    /// Checks this report against a mechanism configuration without
    /// counting anything: a one-report call of [`validate`], the shape
    /// taken from the report's variant. `shape_param` is the hash range
    /// `g` for [`Report::Hashed`] reports and the pinned set cardinality
    /// `k` for [`Report::ItemSet`] reports (`0` = cardinality unchecked);
    /// the other shapes ignore it. [`Report::fold_into`] validates through
    /// this before touching any count. An item set pays an `O(report_len)`
    /// distinctness row here; batches share one row through [`validate`].
    ///
    /// # Errors
    /// Width mismatch (bit reports), out-of-domain value
    /// (categorical/hashed), or an empty, repeating, wrong-cardinality, or
    /// out-of-domain item set.
    pub fn validate(&self, report_len: usize, shape_param: usize) -> Result<()> {
        let shape = match self {
            Report::Packed(_) => ReportShape::Bits,
            Report::Value(_) => ReportShape::Value,
            Report::Hashed { .. } => ReportShape::Hashed { range: shape_param },
            Report::ItemSet(_) => ReportShape::ItemSet { k: shape_param },
        };
        Checker::new(shape, report_len).check(self.facts())
    }

    /// What the report rules read from this report.
    #[inline]
    fn facts(&self) -> Facts<std::iter::Copied<std::slice::Iter<'_, usize>>> {
        match *self {
            Report::Packed(bits) => Facts::Bits {
                slots: bits.slots(),
            },
            Report::Value(v) => Facts::Value(v),
            Report::Hashed { value, .. } => Facts::Hashed { value },
            Report::ItemSet(items) => Facts::ItemSet(items.iter().copied()),
        }
    }

    /// Folds this report into per-bucket counts of width `report_len`,
    /// with `shape_param` interpreted as in [`Report::validate`] (the hash
    /// range for [`Report::Hashed`], the pinned cardinality for
    /// [`Report::ItemSet`], ignored by the other shapes) — the reference
    /// implementation of the fold table in the module docs, which every
    /// accumulator's batch fold is tested equal to. It takes a packed
    /// report for any shape, folding it as the support vector. One
    /// successful call accounts for exactly one user.
    ///
    /// # Errors
    /// Any [`Report::validate`] failure; nothing is counted on failure.
    pub fn fold_into(&self, counts: &mut [u64], shape_param: usize) -> Result<()> {
        self.validate(counts.len(), shape_param)?;
        match *self {
            Report::Packed(bits) => {
                for slot in bits.ones() {
                    counts[slot] += 1;
                }
            }
            Report::Value(v) => counts[v] += 1,
            Report::Hashed { seed, value } => {
                HashedFold::new(shape_param).count_into(&[(seed, value)], counts);
            }
            Report::ItemSet(items) => {
                for &item in items {
                    counts[item] += 1;
                }
            }
        }
        Ok(())
    }
}

/// Checks a batch of reports against the negotiated `shape` and
/// `report_len`: **the** definition of a well-formed report. Each report's
/// variant must match the shape, then its content must fit: a bit report
/// has exactly `report_len` slots; a value lies in `0..report_len`; a
/// hashed value lies in a hash range of at least two buckets; an item set
/// is non-empty, has the pinned cardinality (if any), and holds distinct
/// members in `0..report_len`. Item-set distinctness is checked against
/// one scratch row per batch, stamped with each set's number.
///
/// Every `idldp-stream` accumulator opens its `accumulate_batch` with
/// this. The collector applies the same rules (the same `Checker`) to
/// each report as it walks a frame's bytes ([`CheckedReports::check`]),
/// so an acknowledged report can never fail to fold. Nothing is
/// allocated unless the batch holds an item set.
///
/// # Errors
/// [`Error::Report`] naming the first malformed report's index, wrapping
/// [`Error::ShapeMismatch`] or the content rule it breaks.
pub fn validate<'a>(
    shape: ReportShape,
    report_len: usize,
    reports: impl IntoIterator<Item = Report<'a>>,
) -> Result<()> {
    let mut checker = Checker::new(shape, report_len);
    for (index, report) in reports.into_iter().enumerate() {
        checker
            .check(report.facts())
            .map_err(|source| at_report(index, source))?;
    }
    Ok(())
}

/// The error of the report at `index` of its batch.
fn at_report(index: usize, source: Error) -> Error {
    Error::Report {
        index,
        source: Box::new(source),
    }
}

/// What the report rules read from one report, whichever form it arrived
/// in: a borrowed [`Report`] or a report's wire form ([`WireReport`]).
/// `I` yields an item set's members.
enum Facts<I> {
    Bits { slots: usize },
    Value(usize),
    Hashed { value: usize },
    ItemSet(I),
}

impl<I> Facts<I> {
    /// What kind of report this is, for a shape-mismatch error.
    fn kind(&self) -> &'static str {
        match self {
            Facts::Bits { .. } => "bit-vector",
            Facts::Value(_) => "categorical value",
            Facts::Hashed { .. } => "hashed (seed, value)",
            Facts::ItemSet(_) => "item-set",
        }
    }
}

/// The report rules of [`validate`], fed one report at a time.
struct Checker {
    shape: ReportShape,
    report_len: usize,
    /// Per item, the number of the last item set holding it (allocated at
    /// the first item set).
    seen: Vec<u32>,
    /// Item sets checked so far.
    sets: u32,
}

impl Checker {
    fn new(shape: ReportShape, report_len: usize) -> Self {
        Self {
            shape,
            report_len,
            seen: Vec::new(),
            sets: 0,
        }
    }

    #[inline]
    fn check<I: ExactSizeIterator<Item = usize>>(&mut self, report: Facts<I>) -> Result<()> {
        let m = self.report_len;
        match (self.shape, report) {
            // Every packed slot is 0/1 by construction (and the wire
            // grammar refuses set padding bits): only the width is left
            // to check.
            (ReportShape::Bits, Facts::Bits { slots }) if slots != m => {
                Err(Error::DimensionMismatch {
                    what: "bit report".into(),
                    expected: m,
                    actual: slots,
                })
            }
            (ReportShape::Bits, Facts::Bits { .. }) => Ok(()),
            (ReportShape::Value, Facts::Value(v)) => in_range("categorical report value", v, m),
            // A one-bucket hash supports every item whatever the client
            // held: no mechanism emits it, and it cannot fold.
            (ReportShape::Hashed { range }, Facts::Hashed { .. }) if range < 2 => {
                Err(Error::Empty {
                    what: "hash range (needs at least two buckets)".into(),
                })
            }
            (ReportShape::Hashed { range }, Facts::Hashed { value }) => {
                in_range("hashed report value", value, range)
            }
            (ReportShape::ItemSet { k }, Facts::ItemSet(items)) => self.check_items(items, k),
            (expected, got) => Err(Error::ShapeMismatch {
                expected,
                got: got.kind(),
            }),
        }
    }

    fn check_items(&mut self, items: impl ExactSizeIterator<Item = usize>, k: usize) -> Result<()> {
        // No registered item-set mechanism emits an empty set; an empty
        // report would count a user without touching any bucket, silently
        // biasing calibration.
        if items.len() == 0 {
            return Err(Error::Empty {
                what: "item-set report".into(),
            });
        }
        // A pinned cardinality is exact: subset selection emits exactly k
        // items, and any other size folds cleanly but biases the
        // (p, (k−p)/(m−1)) calibration.
        if k > 0 && items.len() != k {
            return Err(Error::DimensionMismatch {
                what: "item-set report cardinality".into(),
                expected: k,
                actual: items.len(),
            });
        }
        if self.seen.is_empty() {
            self.seen = vec![0; self.report_len];
        }
        self.sets += 1;
        for item in items {
            in_range("item-set report member", item, self.report_len)?;
            if self.seen[item] == self.sets {
                return Err(Error::ParameterOrdering {
                    detail: format!("item-set report repeats item {item}"),
                });
            }
            self.seen[item] = self.sets;
        }
        Ok(())
    }
}

fn in_range(what: &str, index: usize, bound: usize) -> Result<()> {
    if index >= bound {
        return Err(Error::IndexOutOfRange {
            what: what.into(),
            index,
            bound,
        });
    }
    Ok(())
}

/// One client report, owned: what [`crate::mechanism::Mechanism::perturb_data`]
/// emits and what a transport would serialize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReportData {
    /// A 0/1 bit vector of the mechanism's report width, packed.
    Bits(PackedBits),
    /// A categorical report value in `0..report_len`.
    Value(usize),
    /// A hashed report `(seed, value in 0..range)`.
    Hashed {
        /// The per-user hash seed the client drew.
        seed: u64,
        /// The (perturbed) hash value in `0..range`.
        value: usize,
    },
    /// A subset-selection report: distinct items in `0..report_len`.
    ItemSet(Vec<usize>),
}

impl ReportData {
    /// Borrows the report for ingestion.
    pub fn as_report(&self) -> Report<'_> {
        match self {
            ReportData::Bits(bits) => Report::Packed(bits),
            ReportData::Value(v) => Report::Value(*v),
            ReportData::Hashed { seed, value } => Report::Hashed {
                seed: *seed,
                value: *value,
            },
            ReportData::ItemSet(items) => Report::ItemSet(items),
        }
    }

    /// Folds this report into per-bucket counts — the owned-form
    /// convenience over [`Report::fold_into`].
    ///
    /// # Errors
    /// Same conditions as [`Report::fold_into`].
    pub fn fold_into(&self, counts: &mut [u64], shape_param: usize) -> Result<()> {
        self.as_report().fold_into(counts, shape_param)
    }
}

/// Hard ceiling on the slot count of one packed bit report (2²³ slots =
/// 1 MiB on the wire). A report decodes into its packed words, about as
/// many bytes as it takes on the wire, so the cap bounds a report's
/// width, not an expansion; [`walk_report`] checks it before it looks for
/// the bytes behind a claim. It is far wider than any realistic
/// unary-encoding domain; servers refuse to start for a bit-vector
/// mechanism wider than this, and senders refuse to encode a wider
/// report.
pub const MAX_BIT_REPORT_SLOTS: usize = 1 << 23;

/// Wire tag of a bit report: a `u32` slot count, then `⌈slots/8⌉` bytes,
/// slot `i` at bit `i % 8` of byte `i / 8`, padding bits zero.
pub const REPORT_BITS: u8 = 0;
/// Wire tag of a categorical report: the value as a `u64`.
pub const REPORT_VALUE: u8 = 1;
/// Wire tag of a hashed report: the seed, then the value, as `u64`s.
pub const REPORT_HASHED: u8 = 2;
/// Wire tag of an item-set report: a `u32` member count, then the members
/// as `u64`s.
pub const REPORT_ITEM_SET: u8 = 3;

/// The fewest wire bytes one report takes: its tag and the 4-byte count of
/// an empty bit or item-set body.
const MIN_REPORT_LEN: usize = 5;

/// The name a `Reports` frame's report batch goes by in a refusal of its
/// count (the field name the transport's frame table gives it), so every
/// reader of a batch refuses a bad count alike.
const BATCH_FIELD: &str = "Reports.reports";

/// The payload name a refusal of trailing bytes after a batch carries, as
/// the frame decoder names them.
const PAYLOAD: &str = "frame payload";

/// One report as the wire carries it, borrowed from the payload: what
/// [`walk_report`] reads once every rule of the report grammar has passed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireReport<'a> {
    /// A bit report: the slot count and the `⌈slots/8⌉` packed bytes,
    /// padding bits zero.
    Bits {
        /// Slots in the report, at most [`MAX_BIT_REPORT_SLOTS`].
        slots: usize,
        /// The packed bytes.
        bytes: &'a [u8],
    },
    /// A categorical report value.
    Value(usize),
    /// A hashed report.
    Hashed {
        /// The per-user hash seed.
        seed: u64,
        /// The hash value.
        value: usize,
    },
    /// An item-set report: its members' little-endian `u64`s, each known
    /// to fit a `usize`.
    ItemSet(&'a [u8]),
}

impl WireReport<'_> {
    /// The owned report.
    ///
    /// # Errors
    /// None for a report [`walk_report`] returned, which checked every
    /// rule the bit report's constructor checks again; the error stays
    /// typed rather than assumed away.
    #[inline]
    pub fn to_data(&self) -> std::result::Result<ReportData, WireError> {
        Ok(match *self {
            WireReport::Bits { slots, bytes } => ReportData::Bits(
                PackedBits::from_le_bytes(slots, bytes)
                    .map_err(|e| WireError::Malformed(e.to_string()))?,
            ),
            WireReport::Value(v) => ReportData::Value(v),
            WireReport::Hashed { seed, value } => ReportData::Hashed { seed, value },
            WireReport::ItemSet(members) => ReportData::ItemSet(members_of(members).collect()),
        })
    }

    /// What the report rules read from this report.
    #[inline]
    fn facts(&self) -> Facts<impl ExactSizeIterator<Item = usize> + '_> {
        match *self {
            WireReport::Bits { slots, .. } => Facts::Bits { slots },
            WireReport::Value(v) => Facts::Value(v),
            WireReport::Hashed { value, .. } => Facts::Hashed { value },
            WireReport::ItemSet(members) => Facts::ItemSet(members_of(members)),
        }
    }
}

/// The members of an item set's wire body, 8 little-endian bytes each.
/// Only bodies whose every member fits a `usize` reach this (the grammar
/// checks them), so the cast keeps each member's value.
#[inline]
fn members_of(body: &[u8]) -> impl ExactSizeIterator<Item = usize> + '_ {
    body.chunks_exact(8).map(|m| le_u64(m) as usize)
}

/// The report grammar: reads one report's wire form, checking every rule
/// a report obeys on the wire (a known tag, the bit-report width cap, the
/// bytes present, zero padding bits, values and members that fit a
/// `usize`). The transport's decoder, its coordinator-side check and the
/// collector's admission ([`CheckedReports::check`]) all read reports
/// through this, and nothing else reads a report off the wire.
///
/// # Errors
/// The first rule the bytes break.
#[inline]
pub fn walk_report<'a>(c: &mut WireCursor<'a>) -> std::result::Result<WireReport<'a>, WireError> {
    match c.read_u8()? {
        REPORT_BITS => {
            let slots = c.read_u32()? as usize;
            // Checked before the truncation test, so a hostile claim is
            // refused before the reader looks for the bytes behind it.
            if slots > MAX_BIT_REPORT_SLOTS {
                return Err(WireError::Malformed(format!(
                    "bit report claims {slots} slots, over the {MAX_BIT_REPORT_SLOTS}-slot cap"
                )));
            }
            let bytes = c.take(slots.div_ceil(8))?;
            // Padding bits above `slots` must be zero, so every encoding of
            // a report is canonical (encode ∘ decode is the identity on
            // bytes too, not just on reports). Only the last byte has any.
            if let Some(&last) = bytes.last() {
                if !slots.is_multiple_of(8) && last >> (slots % 8) != 0 {
                    return Err(WireError::Malformed(format!(
                        "bit report of {slots} slots has nonzero padding bits"
                    )));
                }
            }
            Ok(WireReport::Bits { slots, bytes })
        }
        REPORT_VALUE => Ok(WireReport::Value(c.read_len("report value")?)),
        REPORT_HASHED => Ok(WireReport::Hashed {
            seed: c.read_u64()?,
            value: c.read_len("hashed report value")?,
        }),
        REPORT_ITEM_SET => {
            let count = c.read_count("item set", 8)?;
            let members = c.take(count * 8)?;
            for m in members.chunks_exact(8) {
                fit_usize(le_u64(m), "item-set member")?;
            }
            Ok(WireReport::ItemSet(members))
        }
        other => Err(WireError::Malformed(format!("unknown report tag {other}"))),
    }
}

/// The report batch grammar: a `u32` count, then that many reports, each
/// read by [`walk_report`]. `start` sees the count and `step` each report
/// with its index, in order: the decoder collects them, the
/// coordinator's check drops them, and admission checks each against the
/// tenant's rules.
///
/// # Errors
/// A count the bytes cannot hold, any [`walk_report`] error, or the first
/// error `step` returns.
#[inline]
pub fn walk_batch<'a, S>(
    c: &mut WireCursor<'a>,
    start: impl FnOnce(usize) -> S,
    mut step: impl FnMut(&mut S, usize, WireReport<'a>) -> std::result::Result<(), WireError>,
) -> std::result::Result<S, WireError> {
    let count = c.read_count(BATCH_FIELD, MIN_REPORT_LEN)?;
    let mut acc = start(count);
    for index in 0..count {
        step(&mut acc, index, walk_report(c)?)?;
    }
    Ok(acc)
}

/// Why [`CheckedReports::check`] refused a payload.
#[derive(Clone, Debug, PartialEq)]
pub enum AdmitError {
    /// The bytes break the report grammar: the error decoding them
    /// returns.
    Wire(WireError),
    /// The bytes parse, and a report breaks the shape's rules: the error
    /// [`validate`] returns for the decoded reports, naming the first bad
    /// report's index.
    Report(Error),
}

impl From<WireError> for AdmitError {
    fn from(e: WireError) -> Self {
        AdmitError::Wire(e)
    }
}

/// A batch of reports that passed the report grammar and the rules of one
/// shape and width, held as the bytes it arrived in.
///
/// Only [`CheckedReports::check`] builds one, in one walk of the payload.
/// It accepts exactly the payloads that decoding and then [`validate`]
/// accept, and refuses the rest with the same error. A checked batch is
/// folded straight from its bytes (by the accumulators' checked entry in
/// `idldp-stream`) with no second check.
///
/// The constructor establishes the invariant every reader relies on: the
/// bytes from the body's start are exactly [`Self::len`] reports of the
/// checked shape back to back, each obeying its rules. So each report
/// record has its shape's length: 9 bytes for a value, 17 for a hashed
/// pair, `5 + ⌈m/8⌉` for a bit row of width `m`, and `5 + 8·n` for an
/// item set of `n` members (`5 + 8·k` when `k` is pinned). Values lie in
/// `0..m`, hashed values in `0..range`, and item-set members in `0..m`,
/// distinct within their set. Two batches are equal when they hold the
/// same reports under the same shape and width, whatever buffer holds
/// them.
#[derive(Clone, Debug)]
pub struct CheckedReports {
    /// The buffer the payload arrived in; the reports start at `body`.
    bytes: Vec<u8>,
    /// Where the first report starts in `bytes`.
    body: usize,
    /// Reports in the batch.
    count: usize,
    /// The shape the reports were checked against.
    shape: ReportShape,
    /// The width the reports were checked against.
    report_len: usize,
}

impl CheckedReports {
    /// Checks the `Reports` payload at `bytes[start..]` (a `u32` report
    /// count, then the reports, then nothing) against the report grammar
    /// and the rules of `shape` and `report_len`, in one walk, and keeps
    /// the buffer as the batch.
    ///
    /// After a report breaks a rule, the walk goes on checking only the
    /// grammar, so a payload that does not parse is refused as such
    /// wherever its defect lies, as decoding first would refuse it.
    ///
    /// # Errors
    /// [`AdmitError::Wire`] with the decoder's error for bytes that do not
    /// parse; otherwise [`AdmitError::Report`] with [`validate`]'s error
    /// for the first report that breaks a rule.
    pub fn check(
        bytes: Vec<u8>,
        start: usize,
        shape: ReportShape,
        report_len: usize,
    ) -> std::result::Result<Self, AdmitError> {
        let payload = bytes.get(start..).unwrap_or_default();
        let mut c = WireCursor::new(payload);
        let mut checker = Checker::new(shape, report_len);
        let (count, broken) = walk_batch(
            &mut c,
            |count| (count, None),
            |(_, broken), index, report| {
                if broken.is_none() {
                    if let Err(source) = checker.check(report.facts()) {
                        *broken = Some(at_report(index, source));
                    }
                }
                Ok(())
            },
        )?;
        c.finish(PAYLOAD)?;
        if let Some(e) = broken {
            return Err(AdmitError::Report(e));
        }
        Ok(Self {
            bytes,
            // The walk read the `u32` count in front of the reports.
            body: start + 4,
            count,
            shape,
            report_len,
        })
    }

    /// Reports in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the batch holds no report.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The reports' bytes, back to back.
    fn body(&self) -> &[u8] {
        self.bytes.get(self.body..).unwrap_or_default()
    }

    /// Keeps the first `len` reports and drops the rest (no change when
    /// `len` is not below [`Self::len`]): what a collector queues when
    /// its queue takes only a prefix of a frame.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.count {
            return;
        }
        let end: usize = self.records().take(len).map(<[u8]>::len).sum();
        self.bytes.truncate(self.body + end);
        self.count = len;
    }

    /// Each report's wire bytes, tag first, in order. By the type's
    /// invariant every record is whole and has its shape's length, so
    /// the readers below slice fields at fixed offsets inside a record;
    /// the walk itself reads no byte past the buffer, and ends early
    /// rather than panic if the invariant were ever broken.
    fn records(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let fixed = match self.shape {
            ReportShape::Bits => Some(5 + self.report_len.div_ceil(8)),
            ReportShape::Value => Some(9),
            ReportShape::Hashed { .. } => Some(17),
            ReportShape::ItemSet { k: 0 } => None,
            ReportShape::ItemSet { k } => Some(5 + 8 * k),
        };
        let mut rest = self.body();
        std::iter::from_fn(move || {
            let len = match fixed {
                Some(len) => len,
                None => 5 + 8 * le_u64(rest.get(1..5)?) as usize,
            };
            let (record, tail) = rest.split_at_checked(len)?;
            rest = tail;
            Some(record)
        })
    }

    /// Refuses a fold of this batch under another shape or width than it
    /// was checked against: its records would be read at the wrong
    /// offsets, or its values could overrun the counts.
    fn expect(&self, shape: ReportShape, report_len: usize) -> Result<()> {
        if (shape, report_len) != (self.shape, self.report_len) {
            return Err(Error::ParameterOrdering {
                detail: format!(
                    "a batch checked as {} over {} buckets cannot fold as {} over {report_len}",
                    self.shape.label(),
                    self.report_len,
                    shape.label()
                ),
            });
        }
        Ok(())
    }

    /// The values of a batch checked as [`ReportShape::Value`] over
    /// `report_len` buckets, each in `0..report_len`.
    ///
    /// # Errors
    /// The batch was checked against another shape or width.
    pub fn values(&self, report_len: usize) -> Result<impl Iterator<Item = usize> + '_> {
        self.expect(ReportShape::Value, report_len)?;
        Ok(self.records().map(|r| le_u64(&r[1..9]) as usize))
    }

    /// The `(seed, value)` pairs of a batch checked as
    /// [`ReportShape::Hashed`] with hash range `range` over `report_len`
    /// items, each value in `0..range`.
    ///
    /// # Errors
    /// The batch was checked against another shape, range or width.
    pub fn hashed_pairs(
        &self,
        range: usize,
        report_len: usize,
    ) -> Result<impl Iterator<Item = (u64, usize)> + '_> {
        self.expect(ReportShape::Hashed { range }, report_len)?;
        Ok(self
            .records()
            .map(|r| (le_u64(&r[1..9]), le_u64(&r[9..17]) as usize)))
    }

    /// The rows of a batch checked as [`ReportShape::Bits`] of width
    /// `report_len`, each as its `⌈report_len/64⌉` little-endian words,
    /// bits above the width zero: the rows
    /// [`crate::fold::BitPlanes::add_words`] adds.
    ///
    /// # Errors
    /// The batch was checked against another shape or width.
    pub fn bit_rows(
        &self,
        report_len: usize,
    ) -> Result<impl Iterator<Item = impl Iterator<Item = u64> + '_> + '_> {
        self.expect(ReportShape::Bits, report_len)?;
        Ok(self.records().map(|r| r[5..].chunks(8).map(le_u64)))
    }

    /// The member lists of a batch checked as [`ReportShape::ItemSet`]
    /// with pinned cardinality `k` (`0` for none) over `report_len`
    /// items: each set non-empty, its members distinct and in
    /// `0..report_len`.
    ///
    /// # Errors
    /// The batch was checked against another shape, cardinality or width.
    pub fn item_sets(
        &self,
        k: usize,
        report_len: usize,
    ) -> Result<impl Iterator<Item = impl Iterator<Item = usize> + '_> + '_> {
        self.expect(ReportShape::ItemSet { k }, report_len)?;
        Ok(self.records().map(|r| members_of(&r[5..])))
    }
}

impl PartialEq for CheckedReports {
    fn eq(&self, other: &Self) -> bool {
        (self.shape, self.report_len, self.count) == (other.shape, other.report_len, other.count)
            && self.body() == other.body()
    }
}

impl Eq for CheckedReports {}

/// Words a [`PackedBits`] keeps in place (128 slots): two words and the
/// slot count are what fit in [`ReportData`]'s 32 bytes, so the packed bit
/// report makes no report variant larger.
const INLINE_WORDS: usize = 2;

/// A 0/1 bit report, packed: slot `i` is bit `i % 64` of word `i / 64`,
/// and every bit above [`PackedBits::slots`] is zero. The words are the
/// wire form read as little-endian `u64`s, and the row
/// [`crate::fold::BitPlanes::add_row`] folds, so a report decodes and
/// folds without a byte per slot. Reports of up to 128 slots live inline;
/// wider ones keep their words in one boxed slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedBits(Storage);

/// Which storage holds the words is fixed by the slot count, and inline
/// words past `⌈slots/64⌉` stay zero, so derived equality compares
/// reports, not layouts.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Storage {
    Inline {
        slots: u32,
        words: [u64; INLINE_WORDS],
    },
    Heap {
        slots: u32,
        words: Box<[u64]>,
    },
}

impl Default for PackedBits {
    /// The empty report (no slots).
    fn default() -> Self {
        Self(Storage::Inline {
            slots: 0,
            words: [0; INLINE_WORDS],
        })
    }
}

impl PackedBits {
    /// All-zero slots, in the storage the slot count calls for.
    #[inline]
    fn zeroed(slots: usize) -> Result<Self> {
        let count = u32::try_from(slots).map_err(|_| Error::IndexOutOfRange {
            what: "bit report slot count".into(),
            index: slots,
            bound: u32::MAX as usize + 1,
        })?;
        let words = packed_words(slots);
        Ok(Self(if words <= INLINE_WORDS {
            Storage::Inline {
                slots: count,
                words: [0; INLINE_WORDS],
            }
        } else {
            Storage::Heap {
                slots: count,
                words: vec![0; words].into_boxed_slice(),
            }
        }))
    }

    /// Packs a report of one 0/1 byte per slot.
    ///
    /// # Errors
    /// A slot other than 0/1 (see [`pack_bits_row`]), or more than
    /// `u32::MAX` slots.
    pub fn from_slots(slots: &[u8]) -> Result<Self> {
        let mut packed = Self::zeroed(slots.len())?;
        pack_bits_row(slots, packed.words_mut())?;
        Ok(packed)
    }

    /// Reads `slots` slots from `⌈slots/8⌉` little-endian bytes, slot `i`
    /// at bit `i % 8` of byte `i / 8`: the packed wire form.
    ///
    /// # Errors
    /// `bytes` is not `⌈slots/8⌉` long, a padding bit above `slots` is
    /// set (so every report has exactly one byte encoding), or there are
    /// more than `u32::MAX` slots.
    #[inline]
    pub fn from_le_bytes(slots: usize, bytes: &[u8]) -> Result<Self> {
        if bytes.len() != slots.div_ceil(8) {
            return Err(Error::DimensionMismatch {
                what: "packed bit report bytes".into(),
                expected: slots.div_ceil(8),
                actual: bytes.len(),
            });
        }
        let mut packed = Self::zeroed(slots)?;
        let words = packed.words_mut();
        let mut chunks = bytes.chunks_exact(8);
        for (word, chunk) in words.iter_mut().zip(&mut chunks) {
            *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if let Some(last) = words.last_mut() {
            for (i, &byte) in chunks.remainder().iter().enumerate() {
                *last |= u64::from(byte) << (8 * i);
            }
            if !slots.is_multiple_of(64) && *last >> (slots % 64) != 0 {
                return Err(Error::ParameterOrdering {
                    detail: "nonzero padding bits in packed bit report".into(),
                });
            }
        }
        Ok(packed)
    }

    /// Appends the `⌈slots/8⌉`-byte little-endian form
    /// [`PackedBits::from_le_bytes`] reads.
    #[inline]
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        let mut left = self.slots().div_ceil(8);
        for word in self.words() {
            let take = left.min(8);
            out.extend_from_slice(&word.to_le_bytes()[..take]);
            left -= take;
        }
    }

    /// Number of slots.
    #[inline]
    pub fn slots(&self) -> usize {
        match self.0 {
            Storage::Inline { slots, .. } | Storage::Heap { slots, .. } => slots as usize,
        }
    }

    /// The `⌈slots/64⌉` packed words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.0 {
            Storage::Inline { slots, words } => &words[..packed_words(*slots as usize)],
            Storage::Heap { words, .. } => words,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Storage::Inline { slots, words } => &mut words[..packed_words(*slots as usize)],
            Storage::Heap { words, .. } => words,
        }
    }

    /// The set slots, in increasing order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    slot
                })
            })
        })
    }
}

/// The shared client/server hash for [`ReportShape::Hashed`] reports: maps
/// `item` into `0..range` under the per-user `seed`.
///
/// A client encodes its input as `hash_bucket(seed, x, g)` before
/// perturbation; the server folds a `(seed, value)` report by counting
/// every item whose bucket equals `value`. This function is the wire-level
/// definition of that mapping, stable across runs and platforms (pure
/// integer arithmetic — a SplitMix64 finalizer over `seed ⊕ mix(item)`).
/// The server's batch fold, [`crate::fold::HashedFold`], computes
/// the same buckets: with `z % range`, or with the equal mask
/// `z & (range − 1)` when `range` is a power of two.
///
/// # Panics
/// Panics if `range == 0` (hash ranges are validated positive at mechanism
/// construction).
#[inline]
pub fn hash_bucket(seed: u64, item: usize, range: usize) -> usize {
    assert!(range > 0, "hash range must be positive");
    (hash_word(seed ^ (item as u64).wrapping_mul(ITEM_MIX)) % range as u64) as usize
}

/// The per-item multiplier of [`hash_bucket`]: item `v` enters the hash as
/// `seed ⊕ v · ITEM_MIX`.
pub(crate) const ITEM_MIX: u64 = 0xA24B_AED4_963E_E407;

/// The SplitMix64 finalizer [`hash_bucket`] applies to `seed ⊕ v · ITEM_MIX`
/// before reducing into the hash range. Shared with
/// [`crate::fold::HashedFold`], which computes each item group's terms
/// once per tile of pairs.
#[inline]
pub(crate) fn hash_word(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(slots: &[u8]) -> ReportData {
        ReportData::Bits(PackedBits::from_slots(slots).unwrap())
    }

    #[test]
    fn shape_labels() {
        assert_eq!(ReportShape::Bits.label(), "bits");
        assert_eq!(ReportShape::Value.label(), "value");
        assert_eq!(
            ReportShape::Hashed { range: 5 }.label(),
            "hashed (seed, value in 0..5)"
        );
        assert_eq!(ReportShape::ItemSet { k: 0 }.label(), "item-set");
        assert_eq!(ReportShape::ItemSet { k: 3 }.label(), "item-set (3 items)");
    }

    #[test]
    fn pinned_cardinality_refuses_wrong_sized_sets() {
        let report = ReportData::ItemSet(vec![0, 2]);
        // Unpinned (k = 0): any distinct, in-domain set validates.
        assert!(report.as_report().validate(4, 0).is_ok());
        // Pinned to the emitted size: accepted.
        assert!(report.as_report().validate(4, 2).is_ok());
        // Pinned to any other size: refused before anything is counted.
        let mut counts = vec![0u64; 4];
        for wrong_k in [1usize, 3] {
            let err = report.as_report().validate(4, wrong_k).unwrap_err();
            assert!(
                err.to_string().contains("cardinality"),
                "unexpected error: {err}"
            );
            assert!(report.fold_into(&mut counts, wrong_k).is_err());
        }
        assert_eq!(counts, vec![0, 0, 0, 0], "failed folds count nothing");
    }

    #[test]
    fn owned_and_borrowed_round_trip() {
        let cases = [
            bits(&[1, 0, 1]),
            ReportData::Value(2),
            ReportData::Hashed { seed: 9, value: 1 },
            ReportData::ItemSet(vec![0, 2]),
        ];
        for data in cases {
            assert_eq!(data.as_report().to_data(), data);
        }
    }

    #[test]
    fn hash_bucket_is_deterministic_and_in_range() {
        for seed in [0u64, 1, 0xDEADBEEF, u64::MAX] {
            for item in 0..50 {
                for range in [1usize, 2, 7, 64] {
                    let b = hash_bucket(seed, item, range);
                    assert!(b < range);
                    assert_eq!(b, hash_bucket(seed, item, range), "stable");
                }
            }
        }
        // Different seeds decorrelate the bucket of the same item.
        let spread: std::collections::HashSet<usize> =
            (0..64u64).map(|s| hash_bucket(s, 3, 16)).collect();
        assert!(spread.len() > 8, "only {} distinct buckets", spread.len());
    }

    #[test]
    fn hash_bucket_roughly_uniform() {
        let range = 8;
        let mut hist = vec![0u32; range];
        let trials = 40_000;
        for i in 0..trials {
            hist[hash_bucket(i as u64, (i * 7) % 100, range)] += 1;
        }
        for (b, &h) in hist.iter().enumerate() {
            let rate = f64::from(h) / trials as f64;
            assert!(
                (rate - 1.0 / range as f64).abs() < 0.01,
                "bucket {b} rate {rate}"
            );
        }
    }

    #[test]
    fn fold_matches_shapes() {
        let mut counts = vec![0u64; 4];
        bits(&[1, 0, 1, 0]).fold_into(&mut counts, 0).unwrap();
        ReportData::Value(3).fold_into(&mut counts, 0).unwrap();
        ReportData::ItemSet(vec![1, 3])
            .fold_into(&mut counts, 0)
            .unwrap();
        assert_eq!(counts, vec![1, 1, 1, 2]);

        // A hashed fold counts exactly the support of (seed, value).
        let (seed, range) = (77u64, 3usize);
        let value = hash_bucket(seed, 2, range);
        let mut hashed = vec![0u64; 4];
        ReportData::Hashed { seed, value }
            .fold_into(&mut hashed, range)
            .unwrap();
        for (v, &c) in hashed.iter().enumerate() {
            let want = u64::from(hash_bucket(seed, v, range) == value);
            assert_eq!(c, want, "item {v}");
        }
        assert_eq!(hashed[2], 1, "the preimage item is always supported");
    }

    #[test]
    fn fold_rejects_invalid_reports() {
        let mut counts = vec![0u64; 3];
        assert!(bits(&[1, 0]).fold_into(&mut counts, 0).is_err());
        assert!(ReportData::Value(3).fold_into(&mut counts, 0).is_err());
        assert!(ReportData::Hashed { seed: 1, value: 4 }
            .fold_into(&mut counts, 4)
            .is_err());
        assert!(ReportData::ItemSet(vec![0, 3])
            .fold_into(&mut counts, 0)
            .is_err());
        assert!(ReportData::ItemSet(vec![1, 1])
            .fold_into(&mut counts, 0)
            .is_err());
        assert!(ReportData::ItemSet(vec![])
            .fold_into(&mut counts, 0)
            .is_err());
        assert_eq!(counts, vec![0, 0, 0], "failed folds count nothing");
    }

    #[test]
    fn one_bucket_hash_range_is_refused() {
        let mut counts = vec![0u64; 3];
        let report = ReportData::Hashed { seed: 5, value: 0 };
        assert!(report.as_report().validate(3, 1).is_err());
        assert!(report.fold_into(&mut counts, 1).is_err());
        assert_eq!(counts, vec![0, 0, 0], "failed folds count nothing");
    }

    #[test]
    fn validate_agrees_with_fold() {
        // validate() succeeding must imply fold_into() succeeding — the
        // contract transport servers rely on when they acknowledge a
        // report before folding it.
        let (fits, narrow) = (bits(&[1, 0, 1]), bits(&[1, 0]));
        let cases = [
            (fits.as_report(), 0usize),
            (narrow.as_report(), 0),
            (Report::Value(2), 0),
            (Report::Value(3), 0),
            (Report::Hashed { seed: 7, value: 1 }, 4),
            (Report::Hashed { seed: 7, value: 4 }, 4),
            (Report::Hashed { seed: 7, value: 0 }, 1),
            (Report::ItemSet(&[0, 2]), 0),
            (Report::ItemSet(&[]), 0),
            (Report::ItemSet(&[1, 1]), 0),
            (Report::ItemSet(&[5]), 0),
        ];
        for (report, range) in cases {
            let valid = report.validate(3, range).is_ok();
            let mut counts = vec![0u64; 3];
            assert_eq!(
                valid,
                report.fold_into(&mut counts, range).is_ok(),
                "{report:?}"
            );
        }
    }

    /// Pseudo-random 0/1 rows at every width across the 64-slot word
    /// edges and the 128/129 inline/heap edge, and one wide row.
    fn random_rows() -> impl Iterator<Item = Vec<u8>> {
        (1..=130usize)
            .chain([1000])
            .map(|m| (0..m).map(|i| hash_bucket(m as u64, i, 2) as u8).collect())
    }

    #[test]
    fn packed_bits_fold_and_round_trip_like_their_slots() {
        for slots in random_rows() {
            let m = slots.len();
            let packed = PackedBits::from_slots(&slots).unwrap();
            assert_eq!(packed.slots(), m);
            assert_eq!(packed.words().len(), m.div_ceil(64), "m={m}");
            let ones: Vec<usize> = (0..m).filter(|&i| slots[i] == 1).collect();
            assert_eq!(packed.ones().collect::<Vec<_>>(), ones, "m={m}");

            let mut counts = vec![0u64; m];
            Report::Packed(&packed).fold_into(&mut counts, 0).unwrap();
            let want: Vec<u64> = slots.iter().map(|&b| u64::from(b)).collect();
            assert_eq!(counts, want, "m={m}");
            assert!(Report::Packed(&packed).validate(m + 1, 0).is_err());

            let data = ReportData::Bits(packed.clone());
            assert_eq!(data.as_report().to_data(), data, "m={m}");

            let mut bytes = Vec::new();
            packed.extend_le_bytes(&mut bytes);
            assert_eq!(bytes.len(), m.div_ceil(8));
            assert_eq!(PackedBits::from_le_bytes(m, &bytes).unwrap(), packed);
        }
    }

    /// A slot of 2 has no packed form wherever it sits: in a full 8-slot
    /// chunk, in the tail, inline or on the heap.
    #[test]
    fn from_slots_rejects_a_non_binary_slot_anywhere() {
        for m in [13usize, 130] {
            for at in 0..m {
                let mut slots = vec![1u8; m];
                slots[at] = 2;
                let err = PackedBits::from_slots(&slots).unwrap_err();
                assert!(err.to_string().contains("slots must be 0/1"), "{err}");
            }
        }
    }

    #[test]
    fn packed_bytes_must_fit_the_slot_count() {
        assert!(PackedBits::from_le_bytes(9, &[0xFF, 0x01]).is_ok());
        assert!(PackedBits::from_le_bytes(9, &[0xFF]).is_err(), "short");
        assert!(PackedBits::from_le_bytes(9, &[0xFF, 1, 0]).is_err(), "long");
        assert!(
            PackedBits::from_le_bytes(9, &[0xFF, 0x03]).is_err(),
            "padding"
        );
    }

    /// Packed bit reports keep [`ReportData`] at its 32 bytes, so queues
    /// of value and hashed reports do not grow.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn report_data_stays_32_bytes() {
        assert!(std::mem::size_of::<ReportData>() <= 32);
    }

    /// The wire form of a batch: a `u32` count, then each report's tag and
    /// fields (the transport's encoder writes the same bytes).
    fn payload(reports: &[ReportData]) -> Vec<u8> {
        let mut out = (reports.len() as u32).to_le_bytes().to_vec();
        for report in reports {
            match report {
                ReportData::Bits(bits) => {
                    out.push(REPORT_BITS);
                    out.extend_from_slice(&(bits.slots() as u32).to_le_bytes());
                    bits.extend_le_bytes(&mut out);
                }
                ReportData::Value(v) => {
                    out.push(REPORT_VALUE);
                    out.extend_from_slice(&(*v as u64).to_le_bytes());
                }
                ReportData::Hashed { seed, value } => {
                    out.push(REPORT_HASHED);
                    out.extend_from_slice(&seed.to_le_bytes());
                    out.extend_from_slice(&(*value as u64).to_le_bytes());
                }
                ReportData::ItemSet(items) => {
                    out.push(REPORT_ITEM_SET);
                    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                    for &item in items {
                        out.extend_from_slice(&(item as u64).to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Admission refuses a rule break with `validate`'s error for the
    /// decoded reports, by index; a payload that also breaks the grammar
    /// later is refused as a grammar break, as decoding first would.
    #[test]
    fn check_refuses_like_decode_then_validate() {
        let reports = [
            ReportData::Value(1),
            ReportData::Value(9),
            ReportData::Value(2),
        ];
        let views: Vec<Report<'_>> = reports.iter().map(ReportData::as_report).collect();
        let want = validate(ReportShape::Value, 4, views.iter().copied()).unwrap_err();
        let bytes = payload(&reports);
        match CheckedReports::check(bytes.clone(), 0, ReportShape::Value, 4) {
            Err(AdmitError::Report(e)) => {
                assert_eq!(e, want);
                assert!(e.to_string().starts_with("report 1: "), "{e}");
            }
            other => panic!("expected the rule refusal, got {other:?}"),
        }
        // Cut inside the last report: the grammar break wins.
        let cut = bytes[..bytes.len() - 1].to_vec();
        assert!(matches!(
            CheckedReports::check(cut, 0, ReportShape::Value, 4),
            Err(AdmitError::Wire(WireError::Truncated { .. }))
        ));
        // Bytes after the last report are refused as the decoder names them.
        let mut trailing = payload(&reports[..1]);
        trailing.push(0);
        assert_eq!(
            CheckedReports::check(trailing, 0, ReportShape::Value, 4),
            Err(AdmitError::Wire(WireError::Malformed(
                "frame payload: 1 trailing payload bytes".into()
            )))
        );
        // A payload may start past a header the caller keeps.
        let mut framed = vec![0xAA; 5];
        framed.extend_from_slice(&payload(&reports[..1]));
        let batch = CheckedReports::check(framed, 5, ReportShape::Value, 4).unwrap();
        assert_eq!(batch.values(4).unwrap().collect::<Vec<_>>(), vec![1]);
    }

    /// Each reader returns the checked reports' primitives, a prefix cut
    /// keeps exactly the first reports, and a read under another shape or
    /// width is a typed refusal.
    #[test]
    fn checked_batches_read_back_their_reports() {
        let m = 70;
        let rows: Vec<PackedBits> = (0..5u64)
            .map(|r| {
                PackedBits::from_slots(
                    &(0..m)
                        .map(|i| hash_bucket(r, i, 2) as u8)
                        .collect::<Vec<_>>(),
                )
                .unwrap()
            })
            .collect();
        let bits: Vec<ReportData> = rows.iter().cloned().map(ReportData::Bits).collect();
        let batch = CheckedReports::check(payload(&bits), 0, ReportShape::Bits, m).unwrap();
        let read: Vec<Vec<u64>> = batch.bit_rows(m).unwrap().map(Iterator::collect).collect();
        let want: Vec<Vec<u64>> = rows.iter().map(|r| r.words().to_vec()).collect();
        assert_eq!(read, want);
        assert!(batch.bit_rows(m + 1).is_err());
        assert!(batch.values(m).is_err());

        let pairs = [(7u64, 0usize), (u64::MAX, 2)];
        let hashed: Vec<ReportData> = pairs
            .iter()
            .map(|&(seed, value)| ReportData::Hashed { seed, value })
            .collect();
        let shape = ReportShape::Hashed { range: 3 };
        let batch = CheckedReports::check(payload(&hashed), 0, shape, 10).unwrap();
        assert_eq!(
            batch.hashed_pairs(3, 10).unwrap().collect::<Vec<_>>(),
            pairs
        );
        assert!(batch.hashed_pairs(4, 10).is_err(), "another range");

        // Unpinned item sets are variable-length records.
        let sets = [vec![3usize], vec![0, 5, 9], vec![4, 1]];
        let data: Vec<ReportData> = sets.iter().cloned().map(ReportData::ItemSet).collect();
        let shape = ReportShape::ItemSet { k: 0 };
        let mut batch = CheckedReports::check(payload(&data), 0, shape, 10).unwrap();
        let read: Vec<Vec<usize>> = batch
            .item_sets(0, 10)
            .unwrap()
            .map(Iterator::collect)
            .collect();
        assert_eq!(read, sets);
        assert!(batch.item_sets(2, 10).is_err(), "another cardinality");
        for keep in (0..=3).rev() {
            batch.truncate(keep);
            assert_eq!(batch.len(), keep);
            let read: Vec<Vec<usize>> = batch
                .item_sets(0, 10)
                .unwrap()
                .map(Iterator::collect)
                .collect();
            assert_eq!(read, sets[..keep]);
        }
        assert!(batch.is_empty());
    }

    /// Item-set distinctness is one stamped row per batch, for small and
    /// large sets alike — large sets are the untrusted network input a
    /// quadratic scan would turn into a CPU amplifier. One repeat at any
    /// position of a set of more than 16 items is refused by the
    /// one-report check and by the batch validator, which names it.
    #[test]
    fn large_item_set_duplicates_are_caught() {
        let m = 1000;
        let shape = ReportShape::ItemSet { k: 0 };
        let distinct: Vec<usize> = (0..100).map(|i| i * 7 % m).collect();
        assert!(Report::ItemSet(&distinct).validate(m, 0).is_ok());
        for len in [17usize, 40, 100] {
            for at in 0..len {
                let mut repeated = distinct[..len].to_vec();
                repeated[at] = repeated[(at + 1 + hash_bucket(at as u64, len, len - 1)) % len];
                let err = Report::ItemSet(&repeated).validate(m, 0).unwrap_err();
                assert!(err.to_string().contains("repeats item"), "{err}");
                let batch = [Report::ItemSet(&distinct), Report::ItemSet(&repeated)];
                let err = validate(shape, m, batch).unwrap_err();
                assert!(err.to_string().starts_with("report 1: "), "{err}");
                assert!(err.to_string().contains("repeats item"), "{err}");
            }
        }
        // The small sets agree on the same defect.
        assert!(Report::ItemSet(&[4, 9, 4]).validate(m, 0).is_err());
        // Distinct sets sharing members pass in one batch: the row is
        // stamped per set.
        let batch = [Report::ItemSet(&distinct[..20]), Report::ItemSet(&distinct)];
        assert!(validate(shape, m, batch).is_ok());
    }
}
