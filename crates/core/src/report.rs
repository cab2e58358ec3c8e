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
//!   accumulator ingests (`idldp-stream`'s `ReportAccumulator::accumulate`).
//! * [`ReportData`] — the owned twin, produced by
//!   [`crate::mechanism::Mechanism::perturb_data`]; what a transport would
//!   serialize.
//! * [`PackedBits`] — the owned bit report: its slots packed 64 per word,
//!   the same bits the wire carries 8 per byte, so a bit report decodes
//!   and folds as the words it arrived in.
//! * [`hash_bucket`] — the shared client/server hash for
//!   [`ReportShape::Hashed`] reports, defined exactly once. The client
//!   encodes with it; the server folds with [`crate::fold::HashedFold`],
//!   which walks the same hash and reduction (a mask for power-of-two
//!   ranges, `%` otherwise) across the whole item domain in one
//!   branchless pass (tested equal to it).
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

    /// Checks this report against a mechanism configuration — width
    /// `report_len` plus the shape parameter `shape_param` — without
    /// counting anything. `shape_param` is the hash range `g` for
    /// [`Report::Hashed`] reports and the pinned set cardinality `k` for
    /// [`Report::ItemSet`] reports (`0` = cardinality unchecked); the
    /// other shapes ignore it. **The** definition of report
    /// well-formedness: [`Report::fold_into`] validates through this
    /// before touching any count, and transport servers (`idldp-server`)
    /// call it to refuse a malformed report in the connection reply, so an
    /// acknowledged report can never fail to fold later.
    ///
    /// # Errors
    /// Width mismatch (bit reports), out-of-domain value
    /// (categorical/hashed), or an empty, repeating, wrong-cardinality, or
    /// out-of-domain item set.
    pub fn validate(&self, report_len: usize, shape_param: usize) -> Result<()> {
        match *self {
            // Every packed slot is 0/1 by construction: only the width
            // is left to check.
            Report::Packed(bits) => {
                if bits.slots() != report_len {
                    return Err(Error::DimensionMismatch {
                        what: "bit report".into(),
                        expected: report_len,
                        actual: bits.slots(),
                    });
                }
            }
            Report::Value(v) => {
                if v >= report_len {
                    return Err(Error::IndexOutOfRange {
                        what: "categorical report value".into(),
                        index: v,
                        bound: report_len,
                    });
                }
            }
            Report::Hashed { value, .. } => {
                // A one-bucket hash supports every item whatever the
                // client held: no mechanism emits it, and it cannot fold.
                if shape_param < 2 {
                    return Err(Error::Empty {
                        what: "hash range (needs at least two buckets)".into(),
                    });
                }
                if value >= shape_param {
                    return Err(Error::IndexOutOfRange {
                        what: "hashed report value".into(),
                        index: value,
                        bound: shape_param,
                    });
                }
            }
            Report::ItemSet(items) => {
                // No registered item-set mechanism emits an empty set; an
                // empty report would count a user without touching any
                // bucket, silently biasing calibration.
                if items.is_empty() {
                    return Err(Error::Empty {
                        what: "item-set report".into(),
                    });
                }
                // A pinned cardinality is exact: subset selection emits
                // exactly k items, and any other size folds cleanly but
                // biases the (p, (k−p)/(m−1)) calibration.
                if shape_param > 0 && items.len() != shape_param {
                    return Err(Error::DimensionMismatch {
                        what: "item-set report cardinality".into(),
                        expected: shape_param,
                        actual: items.len(),
                    });
                }
                for &item in items {
                    if item >= report_len {
                        return Err(Error::IndexOutOfRange {
                            what: "item-set report member".into(),
                            index: item,
                            bound: report_len,
                        });
                    }
                }
                // Distinctness. The allocation-free prefix scan is O(k²),
                // fine for the small sets mechanisms emit but a CPU
                // amplifier when validating untrusted network input
                // (servers run this synchronously per report) — large
                // sets sort a copy and look for adjacent equals instead.
                if items.len() <= 16 {
                    for (k, &item) in items.iter().enumerate() {
                        if items[..k].contains(&item) {
                            return Err(Error::ParameterOrdering {
                                detail: format!("item-set report repeats item {item}"),
                            });
                        }
                    }
                } else {
                    let mut sorted = items.to_vec();
                    sorted.sort_unstable();
                    if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
                        return Err(Error::ParameterOrdering {
                            detail: format!("item-set report repeats item {}", pair[0]),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Folds this report into per-bucket counts of width `report_len`,
    /// with `shape_param` interpreted as in [`Report::validate`] (the hash
    /// range for [`Report::Hashed`], the pinned cardinality for
    /// [`Report::ItemSet`], ignored by the other shapes) — **the**
    /// implementation of the fold table in the module docs, which every
    /// server-side accumulator delegates to. One successful call accounts
    /// for exactly one user.
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
                let slots = counts.len();
                HashedFold::new(shape_param).preimage_words(seed, value, slots, |w, mut bits| {
                    while bits != 0 {
                        counts[w * 64 + bits.trailing_zeros() as usize] += 1;
                        bits &= bits - 1;
                    }
                });
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

    /// Re-packs `slots` in place, reusing the word storage when the slot
    /// count is unchanged: the allocation-free twin of
    /// [`PackedBits::from_slots`] for a caller packing report after report.
    ///
    /// # Errors
    /// As [`PackedBits::from_slots`]; the report then holds unspecified,
    /// still well-formed, bits.
    pub fn repack(&mut self, slots: &[u8]) -> Result<()> {
        if self.slots() != slots.len() {
            *self = Self::zeroed(slots.len())?;
        }
        pack_bits_row(slots, self.words_mut())
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
/// The server's domain-wide pass, [`crate::fold::HashedFold`], computes
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
/// [`crate::fold::HashedFold`], which steps the item term from one item to
/// the next instead of multiplying it out.
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
        let mut reused = PackedBits::default();
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

            reused.repack(&slots).unwrap();
            assert_eq!(reused, packed, "m={m}");
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

    /// Item-set distinctness must agree between the small (prefix-scan)
    /// and large (sort-a-copy) branches — large sets are the untrusted
    /// network input a quadratic scan would turn into a CPU amplifier.
    #[test]
    fn large_item_set_duplicates_are_caught() {
        let m = 1000;
        let distinct: Vec<usize> = (0..100).map(|i| i * 7 % m).collect();
        assert!(Report::ItemSet(&distinct).validate(m, 0).is_ok());
        let mut repeated = distinct.clone();
        repeated[99] = repeated[3];
        let err = Report::ItemSet(&repeated).validate(m, 0).unwrap_err();
        assert!(
            err.to_string().contains("repeats item"),
            "unexpected error: {err}"
        );
        // The small branch agrees on the same defect.
        assert!(Report::ItemSet(&[4, 9, 4]).validate(m, 0).is_err());
    }
}
