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
//!   against the negotiated shape and width. The collector admits frames
//!   through it and every accumulator opens its fold with it.
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
        Checker::new(shape, report_len).check(*self)
    }

    /// What kind of report this is, for a shape-mismatch error.
    fn kind(&self) -> &'static str {
        match self {
            Report::Packed(_) => "bit-vector",
            Report::Value(_) => "categorical value",
            Report::Hashed { .. } => "hashed (seed, value)",
            Report::ItemSet(_) => "item-set",
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
/// The collector admits a `Reports` frame through this, and every
/// `idldp-stream` accumulator opens its batch fold with it, so an
/// acknowledged report can never fail to fold. Nothing is allocated
/// unless the batch holds an item set.
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
        checker.check(report).map_err(|source| Error::Report {
            index,
            source: Box::new(source),
        })?;
    }
    Ok(())
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
    fn check(&mut self, report: Report<'_>) -> Result<()> {
        let m = self.report_len;
        match (self.shape, report) {
            // Every packed slot is 0/1 by construction: only the width
            // is left to check.
            (ReportShape::Bits, Report::Packed(bits)) if bits.slots() != m => {
                Err(Error::DimensionMismatch {
                    what: "bit report".into(),
                    expected: m,
                    actual: bits.slots(),
                })
            }
            (ReportShape::Bits, Report::Packed(_)) => Ok(()),
            (ReportShape::Value, Report::Value(v)) => in_range("categorical report value", v, m),
            // A one-bucket hash supports every item whatever the client
            // held: no mechanism emits it, and it cannot fold.
            (ReportShape::Hashed { range }, Report::Hashed { .. }) if range < 2 => {
                Err(Error::Empty {
                    what: "hash range (needs at least two buckets)".into(),
                })
            }
            (ReportShape::Hashed { range }, Report::Hashed { value, .. }) => {
                in_range("hashed report value", value, range)
            }
            (ReportShape::ItemSet { k }, Report::ItemSet(items)) => self.check_items(items, k),
            (expected, got) => Err(Error::ShapeMismatch {
                expected,
                got: got.kind(),
            }),
        }
    }

    fn check_items(&mut self, items: &[usize], k: usize) -> Result<()> {
        // No registered item-set mechanism emits an empty set; an empty
        // report would count a user without touching any bucket, silently
        // biasing calibration.
        if items.is_empty() {
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
        for &item in items {
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
