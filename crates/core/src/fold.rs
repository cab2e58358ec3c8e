//! The batched, word-packed fold engine.
//!
//! Per-report folding pays two per-report costs the batch ingest path does
//! not have to: bit-vector reports are added byte at a time (`m` adds per
//! report), and hashed reports evaluate [`hash_bucket`] over the whole item
//! domain (`m` hashes per report). This module provides the primitives that
//! turn a *batch* of reports into word and register operations; the
//! `accumulate_batch` folds of `idldp-stream`'s accumulators build on them:
//!
//! * [`HashedFold`] — the one hash loop of `(seed, value)` reports. It is
//!   item-major: for each group of eight items it walks a whole tile of
//!   pairs, counting the pairs each item supports in eight counters that
//!   stay in registers (one vector register on AVX-512 CPUs), and adds the
//!   eight counts into the caller's row once per tile. A power-of-two range
//!   reduces with a mask, any other with `%`. Every hashed fold runs it:
//!   the accumulator's batch fold, [`crate::report::Report::fold_into`] and
//!   [`crate::olh::OptimalLocalHashing::fold_support_into`] (batches of
//!   one), OLH's batch perturbation, and the [`SeedPreimageCache`] miss
//!   path.
//! * [`pack_bits_row`] — packs a 0/1 byte-per-slot report into `u64` words
//!   (64 slots per word, LSB-first) with a carry-free multiply-gather, so
//!   a row enters the fold as `m/64` words instead of `m` bytes. It builds
//!   [`crate::report::PackedBits`], the owned bit report, whose words the
//!   wire carries and the fold adds as they are.
//! * [`BitPlanes`] — a SWAR bit-sliced counter for packed bit rows: eight
//!   `u64` bit-planes per 64-slot lane accumulate packed rows with a
//!   carry-save add (no per-slot loop), and spill into ordinary `u64`
//!   counts. The **spill invariant**: eight planes hold per-slot partial
//!   sums up to 255, so at most 255 rows may be pending between spills —
//!   [`BitPlanes::add_row`] enforces this by spilling automatically.
//! * [`SeedPreimageCache`] — an LRU map from a hashed report's
//!   `(seed, value)` to the packed bitmap of items it supports
//!   (`{v : hash_bucket(seed, v, g) == value}`). No fold uses it: clients
//!   draw a fresh seed per report, so real traffic never repeats a pair,
//!   and the item-major kernel already folds a pair for less than a miss
//!   costs. It stays only for the hit and miss counters the service
//!   benchmark reports. The cache is bounded: each entry is `⌈m/64⌉` words
//!   (`≈ m/8` bytes), and the default capacity keeps the whole cache within
//!   ~1 MiB (clamped to `16..=4096` entries), evicting least-recently-used
//!   entries beyond that.
//!
//! All of them are pure integer arithmetic, so folds routed through them are
//! **bit-identical** to the scalar per-report fold
//! ([`crate::report::Report::fold_into`]) — the streaming conformance and
//! property suites assert exactly that.

use crate::error::{Error, Result};
use crate::report::{hash_word, ITEM_MIX};
use std::collections::HashMap;

#[cfg(doc)]
use crate::report::hash_bucket;

/// Number of `u64` words needed to pack `slots` bits.
#[inline]
pub fn packed_words(slots: usize) -> usize {
    slots.div_ceil(64)
}

/// `(seed, value)` pairs per tile of [`HashedFold`]: 1024 pairs are 16 KiB,
/// which stay in L1 while every item group walks them.
pub const TILE: usize = 1024;

/// The item-major hash fold of hashed `(seed, value)` reports over one hash
/// range: for every item `v`, the number of pairs with
/// `hash_bucket(seed, v, range) == value`.
///
/// A report-major fold hashes one pair across the whole item domain, packs
/// the preimage and adds it to the counts, so every report pays a pass
/// over a row of counters as well as its hashes. This kernel turns the
/// loops around. It cuts the pairs into tiles of [`TILE`] and the items
/// into groups of eight. For each group it walks the whole tile, and for
/// each pair it hashes the group's eight items, tests each bucket against
/// the value and bumps that item's counter. The eight counters live in
/// registers for the whole tile and reach the caller once per tile, so the
/// counts row is touched once per [`TILE`] pairs instead of once per pair,
/// and no bucket test is a branch.
///
/// Each tile runs one of three arms, chosen from the range and, for the
/// first, the CPU:
///
/// * **AVX-512 mask arm** — a power-of-two range (`2, 4, 8, …`; OLH's `g`
///   at `ε = 1` and `ε = 2`) on an x86-64 CPU with `avx512f` and
///   `avx512dq`, detected at run time (std caches the probe). A group's
///   eight items are the eight lanes of a vector: the SplitMix64
///   finalizer's two 64-bit multiplies are one `vpmullq` each, one
///   `vpcmpeqq` writes the eight bucket tests into a mask, and one masked
///   add puts them into the group's counter register. Every lane runs
///   the same wrapping 64-bit adds, multiplies and xor-shifts as
///   [`hash_bucket`] on its own item. Each pair's seed and value are
///   broadcast once for two groups, whose hashes are independent and
///   overlap in the pipeline.
/// * **Scalar mask arm** — a power-of-two range on any other CPU: the same
///   loop with eight scalar counters.
/// * **Remainder arm** — every other range (`3, 5, …`), with the hardware
///   remainder `z % range`, exactly as [`hash_bucket`] computes it. There
///   is no vector integer divide, so it has no vector form.
///
/// The mask `z & (range − 1)` is exact: for `range = 2^k`, `z % 2^k` is the
/// low `k` bits of `z`, so the mask equals the [`hash_bucket`] remainder
/// for every `z`. The two scalar arms run one generic loop, so each
/// compiles its own loop with no per-item branch between them. A value
/// outside the range matches no item.
///
/// The scalar mask replaces a 64-bit `div` (about 4 ns per item, the
/// remainder loop's throughput limit) with one AND. An exact multiply-high
/// reduction by a precomputed `⌈2^128 / range⌉` (Granlund & Montgomery,
/// PLDI 1994) was tried for every range and dropped: on a 2-vCPU Xeon VM
/// its median was barely better, and its timings spread four to five times
/// wider than the divider's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HashedFold {
    range: u64,
}

impl HashedFold {
    /// The kernel for hash range `range`.
    ///
    /// # Panics
    /// Panics if `range < 2` (a one-bucket hash supports every item, and
    /// no mechanism emits one).
    pub fn new(range: usize) -> Self {
        assert!(range >= 2, "hash range must have at least two buckets");
        Self {
            range: range as u64,
        }
    }

    /// Adds to `row[v]`, for every item `v` in `0..row.len()`, the number
    /// of `(seed, value)` pairs in `pairs` that support `v`, one [`TILE`]
    /// at a time.
    pub fn count_into<C: FoldCount>(&self, pairs: &[(u64, usize)], row: &mut [C]) {
        let range = self.range;
        for tile in pairs.chunks(TILE) {
            if range.is_power_of_two() {
                let mask = range - 1;
                if !try_count_tile_avx512(tile, mask, row) {
                    count_tile(tile, |z| z & mask, row);
                }
            } else {
                count_tile(tile, |z| z % range, row);
            }
        }
    }
}

/// A cell of the row [`HashedFold::count_into`] adds into: a `u64` count,
/// or a `u8` support flag for a batch of one pair (a `u8` cell holds at
/// most 255).
pub trait FoldCount: Copy {
    /// Adds the support of `n` pairs to this cell.
    fn add(&mut self, n: u64);
}

impl FoldCount for u64 {
    #[inline(always)]
    fn add(&mut self, n: u64) {
        *self += n;
    }
}

impl FoldCount for u8 {
    #[inline(always)]
    fn add(&mut self, n: u64) {
        debug_assert!(n <= 255, "a u8 count cell holds at most 255");
        *self += n as u8;
    }
}

/// Adds group `group`'s eight lane counts into its items of `row`: lane
/// `i` is item `8 · group + i`, and lanes past the row's end are dropped.
#[inline(always)]
fn add_group<C: FoldCount>(row: &mut [C], group: usize, counts: [u64; 8]) {
    let cells = &mut row[8 * group..];
    // A whole group adds as a fixed eight-cell array, with no per-lane
    // bound test; only the row's last group can be short.
    if let Some(whole) = cells.first_chunk_mut::<8>() {
        for (cell, n) in whole.iter_mut().zip(counts) {
            cell.add(n);
        }
    } else {
        for (cell, n) in cells.iter_mut().zip(counts) {
            cell.add(n);
        }
    }
}

/// The scalar arms of [`HashedFold`] over one tile: eight counters per item
/// group, generic over the bucket reduction `bucket(z)` so each reduction
/// compiles its own loop with no per-item branch on which one applies.
/// Group `j` covers items `8j..8j + 8`; lanes past the row are counted
/// too, and dropped.
#[inline(always)]
fn count_tile<C: FoldCount>(pairs: &[(u64, usize)], bucket: impl Fn(u64) -> u64, row: &mut [C]) {
    for group in 0..row.len().div_ceil(8) {
        let first = 8 * group as u64;
        let mix: [u64; 8] =
            std::array::from_fn(|lane| (first + lane as u64).wrapping_mul(ITEM_MIX));
        let mut counts = [0u64; 8];
        for &(seed, value) in pairs {
            for (count, &mix) in counts.iter_mut().zip(&mix) {
                *count += u64::from(bucket(hash_word(seed ^ mix)) == value as u64);
            }
        }
        add_group(row, group, counts);
    }
}

/// Runs the AVX-512 mask arm (bucket `z & mask`) over one tile into `row`
/// if this host has `avx512f` and `avx512dq`, and returns whether it ran;
/// `row` is untouched when it returns `false`.
#[cfg(target_arch = "x86_64")]
fn try_count_tile_avx512<C: FoldCount>(pairs: &[(u64, usize)], mask: u64, row: &mut [C]) -> bool {
    // std caches the CPUID probe, so each check is a load and a bit test.
    if !(std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq"))
    {
        return false;
    }
    #[allow(unsafe_code)]
    // SAFETY: `avx512::count_tile` only requires the `avx512f` and
    // `avx512dq` target features, and both were detected on this CPU
    // (with OS support for the AVX-512 register state) just above.
    unsafe {
        avx512::count_tile(pairs, mask, row)
    };
    true
}

/// No AVX-512 arm off x86-64: the scalar mask arm always runs.
#[cfg(not(target_arch = "x86_64"))]
fn try_count_tile_avx512<C: FoldCount>(
    _pairs: &[(u64, usize)],
    _mask: u64,
    _row: &mut [C],
) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{add_group, FoldCount};
    use crate::report::ITEM_MIX;
    use std::arch::x86_64::{
        __m512i, _mm256_extract_epi64, _mm512_add_epi64, _mm512_and_si512, _mm512_castsi512_si256,
        _mm512_cmpeq_epi64_mask, _mm512_extracti64x4_epi64, _mm512_mask_add_epi64,
        _mm512_mullo_epi64, _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512,
        _mm512_srli_epi64, _mm512_xor_si512,
    };

    /// Item groups one walk over a tile counts: each pair's seed and value
    /// are broadcast once for this many groups, whose hash chains are
    /// independent and overlap in the pipeline.
    const BLOCK: usize = 2;

    /// `lane · ITEM_MIX` for lane `0..8`: the item terms of one group of
    /// eight consecutive items, relative to the group's first.
    const fn lane_mix(lane: u64) -> i64 {
        lane.wrapping_mul(ITEM_MIX) as i64
    }

    /// [`crate::report::hash_word`] on eight lanes: the same three
    /// wrapping adds/multiplies and xor-shifts, lane by lane.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn hash_word8(z: __m512i) -> __m512i {
        let z = _mm512_add_epi64(z, _mm512_set1_epi64(0x9E37_79B9_7F4A_7C15_u64 as i64));
        let z = _mm512_mullo_epi64(
            _mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)),
            _mm512_set1_epi64(0xBF58_476D_1CE4_E5B9_u64 as i64),
        );
        let z = _mm512_mullo_epi64(
            _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)),
            _mm512_set1_epi64(0x94D0_49BB_1331_11EB_u64 as i64),
        );
        _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
    }

    /// The eight lanes of `v`, lane 0 first.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn lanes(v: __m512i) -> [u64; 8] {
        let (lo, hi) = (_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
        [
            _mm256_extract_epi64::<0>(lo) as u64,
            _mm256_extract_epi64::<1>(lo) as u64,
            _mm256_extract_epi64::<2>(lo) as u64,
            _mm256_extract_epi64::<3>(lo) as u64,
            _mm256_extract_epi64::<0>(hi) as u64,
            _mm256_extract_epi64::<1>(hi) as u64,
            _mm256_extract_epi64::<2>(hi) as u64,
            _mm256_extract_epi64::<3>(hi) as u64,
        ]
    }

    /// The mask arm over one tile into `row`: [`BLOCK`] item groups per
    /// walk over the tile, and single groups for the rest.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn count_tile<C: FoldCount>(pairs: &[(u64, usize)], mask: u64, row: &mut [C]) {
        let groups = row.len().div_ceil(8);
        let mut group = 0;
        while group + BLOCK <= groups {
            count_block::<BLOCK, C>(pairs, mask, group, row);
            group += BLOCK;
        }
        for group in group..groups {
            count_block::<1, C>(pairs, mask, group, row);
        }
    }

    /// Groups `first..first + G` over one tile: lane `i` of group `j` is
    /// item `8j + i`, and its counter is lane `i` of counter register `j`.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn count_block<const G: usize, C: FoldCount>(
        pairs: &[(u64, usize)],
        mask: u64,
        first: usize,
        row: &mut [C],
    ) {
        let mask = _mm512_set1_epi64(mask as i64);
        let one = _mm512_set1_epi64(1);
        let lane_mixes = _mm512_set_epi64(
            lane_mix(7),
            lane_mix(6),
            lane_mix(5),
            lane_mix(4),
            lane_mix(3),
            lane_mix(2),
            lane_mix(1),
            lane_mix(0),
        );
        let mut mix = [lane_mixes; G];
        for (g, mix) in mix.iter_mut().enumerate() {
            let group_mix = (8 * (first + g) as u64).wrapping_mul(ITEM_MIX);
            *mix = _mm512_add_epi64(lane_mixes, _mm512_set1_epi64(group_mix as i64));
        }
        let mut counts = [_mm512_setzero_si512(); G];
        for &(seed, value) in pairs {
            let seed = _mm512_set1_epi64(seed as i64);
            let value = _mm512_set1_epi64(value as i64);
            for (count, &mix) in counts.iter_mut().zip(&mix) {
                let z = hash_word8(_mm512_xor_si512(seed, mix));
                let hits = _mm512_cmpeq_epi64_mask(_mm512_and_si512(z, mask), value);
                *count = _mm512_mask_add_epi64(*count, hits, *count, one);
            }
        }
        for (g, &count) in counts.iter().enumerate() {
            add_group(row, first + g, lanes(count));
        }
    }
}

/// Every byte's low bit must be the whole byte: a 0/1 lane mask.
const LANE_MASK: u64 = 0x0101_0101_0101_0101;

/// Multiply-gather constant: collects the LSB of each of 8 little-endian
/// bytes into the top byte of the product. All 64 partial-product bits
/// land on distinct positions (`8j − 7i` collides only at `j − j' = 7t`,
/// `i − i' = 8t`, impossible in `0..8`), so the gather is carry-free.
const GATHER: u64 = 0x0102_0408_1020_4080;

/// Packs a 0/1 byte-per-slot bit report into `u64` words, 64 slots per
/// word, slot `i` at bit `i % 64` of word `i / 64` (LSB-first). Padding
/// bits beyond `bits.len()` are zero. Eight slots are gathered per `u64`
/// load via a carry-free multiply, so packing is `O(m/8)` word work.
///
/// # Errors
/// Returns an error if `words` is not exactly [`packed_words`]`(bits.len())`
/// long or any slot is not 0/1 (`words` may be partially written on
/// failure; callers treat any error as validation failure and discard).
pub fn pack_bits_row(bits: &[u8], words: &mut [u64]) -> Result<()> {
    if words.len() != packed_words(bits.len()) {
        return Err(Error::DimensionMismatch {
            what: "packed row width (words)".into(),
            expected: packed_words(bits.len()),
            actual: words.len(),
        });
    }
    words.fill(0);
    let mut chunks = bits.chunks_exact(8);
    for (i, chunk) in (&mut chunks).enumerate() {
        let x = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        if x & !LANE_MASK != 0 {
            return Err(Error::ParameterOrdering {
                detail: "bit report slots must be 0/1".into(),
            });
        }
        words[i / 8] |= (x.wrapping_mul(GATHER) >> 56) << ((i % 8) * 8);
    }
    let base = bits.len() - chunks.remainder().len();
    for (j, &b) in chunks.remainder().iter().enumerate() {
        if b > 1 {
            return Err(Error::ParameterOrdering {
                detail: "bit report slots must be 0/1".into(),
            });
        }
        let bit = base + j;
        words[bit / 64] |= u64::from(b) << (bit % 64);
    }
    Ok(())
}

/// SWAR bit-sliced counter: eight `u64` bit-planes over `⌈slots/64⌉`-word
/// lanes. Each packed 0/1 row is added with a carry-save ripple across the
/// planes (word-parallel — no per-slot loop), and the per-slot partial
/// sums (each ≤ 255) are spilled into ordinary `u64` counts on demand.
#[derive(Clone, Debug)]
pub struct BitPlanes {
    /// Plane `p` occupies `planes[p * words .. (p + 1) * words]`.
    planes: Vec<u64>,
    words: usize,
    slots: usize,
    /// Rows added since the last spill (always ≤ 255).
    pending: u32,
}

impl BitPlanes {
    /// Eight planes hold per-slot sums up to `2^8 − 1`: the spill
    /// invariant caps pending rows at 255 between spills.
    pub const MAX_PENDING_ROWS: u32 = 255;

    /// An empty counter over `slots` slots.
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "bit-plane counter needs at least one slot");
        let words = packed_words(slots);
        Self {
            planes: vec![0; 8 * words],
            words,
            slots,
            pending: 0,
        }
    }

    /// Number of slots counted per row.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Adds one packed 0/1 row (as produced by [`pack_bits_row`], or the
    /// words of a [`crate::report::PackedBits`]). Spills into `counts` first if the
    /// 255-row plane capacity is reached, so the spill invariant holds by
    /// construction.
    ///
    /// # Panics
    /// Panics if `row` is not `⌈slots/64⌉` words or `counts` is not
    /// `slots` long.
    pub fn add_row(&mut self, row: &[u64], counts: &mut [u64]) {
        assert_eq!(row.len(), self.words, "packed row width");
        self.add_words(row.iter().copied(), counts);
    }

    /// Adds one packed 0/1 row given as its words in order: the row
    /// [`Self::add_row`] takes, or one read word by word from its
    /// little-endian wire bytes. Words past the row's `⌈slots/64⌉` are
    /// not read, and bits above `slots` must be zero.
    ///
    /// # Panics
    /// Panics if `counts` is not `slots` long when a spill is due.
    #[inline]
    pub fn add_words(&mut self, row: impl IntoIterator<Item = u64>, counts: &mut [u64]) {
        if self.pending == Self::MAX_PENDING_ROWS {
            self.spill_into(counts);
        }
        for (w, bits) in row.into_iter().take(self.words).enumerate() {
            let mut carry = bits;
            let mut p = 0usize;
            while carry != 0 {
                debug_assert!(p < 8, "spill invariant violated: plane overflow");
                let plane = &mut self.planes[p * self.words + w];
                let t = *plane & carry;
                *plane ^= carry;
                carry = t;
                p += 1;
            }
        }
        self.pending += 1;
    }

    /// Adds the pending per-slot sums into `counts` and resets the planes.
    ///
    /// # Panics
    /// Panics if `counts` is not `slots` long.
    pub fn spill_into(&mut self, counts: &mut [u64]) {
        assert_eq!(counts.len(), self.slots, "spill target width");
        if self.pending == 0 {
            return;
        }
        for p in 0..8 {
            let weight = 1u64 << p;
            for w in 0..self.words {
                let mut bits = std::mem::take(&mut self.planes[p * self.words + w]);
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    debug_assert!(slot < self.slots, "padding bits must stay zero");
                    counts[slot] += weight;
                    bits &= bits - 1;
                }
            }
        }
        self.pending = 0;
    }
}

const NIL: usize = usize::MAX;

#[derive(Clone, Debug)]
struct CacheEntry {
    key: (u64, usize),
    bitmap: Vec<u64>,
    prev: usize,
    next: usize,
}

/// Bounded LRU cache from a hashed report's `(seed, value)` to the packed
/// preimage bitmap `{v in 0..slots : hash_bucket(seed, v, range) == value}`.
///
/// Off the fold path: no fold consults it, since real traffic draws a
/// fresh seed per report and never repeats a pair. It stays only for its
/// hit and miss counters, which the service benchmark reports. A miss
/// pays one [`HashedFold`] pass over a batch of one; a hit returns the
/// stored `⌈slots/64⌉` words. The map allocates on first insert, so a
/// cache that is never consulted costs nothing. Memory is bounded at
/// `capacity × ⌈slots/64⌉ × 8` bytes (plus map overhead); the default
/// capacity keeps that under ~1 MiB, clamped to `16..=4096` entries.
#[derive(Clone, Debug)]
pub struct SeedPreimageCache {
    slots: usize,
    fold: HashedFold,
    capacity: usize,
    map: HashMap<(u64, usize), usize>,
    entries: Vec<CacheEntry>,
    head: usize,
    tail: usize,
    hits: u64,
    misses: u64,
}

impl SeedPreimageCache {
    /// A cache for hashed reports over `slots` items with hash range
    /// `range`, using the default ~1 MiB capacity bound.
    ///
    /// # Panics
    /// Panics if `slots == 0` or `range < 2`.
    pub fn new(slots: usize, range: usize) -> Self {
        let entry_bytes = packed_words(slots) * 8;
        let capacity = ((1usize << 20) / entry_bytes.max(1)).clamp(16, 4096);
        Self::with_capacity(slots, range, capacity)
    }

    /// A cache with an explicit entry capacity.
    ///
    /// # Panics
    /// Panics if `slots == 0`, `range < 2`, or `capacity == 0`.
    pub fn with_capacity(slots: usize, range: usize, capacity: usize) -> Self {
        assert!(slots > 0, "preimage cache needs at least one slot");
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            slots,
            fold: HashedFold::new(range),
            capacity,
            map: HashMap::new(),
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum entries before LRU eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to build the bitmap so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The packed preimage bitmap of `(seed, value)`: bit `v` is set iff
    /// `hash_bucket(seed, v, range) == value`. Builds and caches the
    /// bitmap on a miss (evicting the least-recently-used entry at
    /// capacity) with one [`HashedFold`] pass, and marks the entry
    /// most-recently-used either way.
    /// Padding bits beyond `slots` are always zero.
    pub fn preimage(&mut self, seed: u64, value: usize) -> &[u64] {
        if let Some(&idx) = self.map.get(&(seed, value)) {
            self.hits += 1;
            self.move_to_front(idx);
            return &self.entries[idx].bitmap;
        }
        self.misses += 1;
        let idx = if self.entries.len() == self.capacity {
            // Evict the LRU entry, reusing its slab slot and allocation.
            let idx = self.tail;
            self.unlink(idx);
            let old_key = self.entries[idx].key;
            self.map.remove(&old_key);
            self.entries[idx].key = (seed, value);
            idx
        } else {
            self.entries.push(CacheEntry {
                key: (seed, value),
                bitmap: Vec::new(),
                prev: NIL,
                next: NIL,
            });
            self.entries.len() - 1
        };
        let mut support = vec![0u8; self.slots];
        self.fold.count_into(&[(seed, value)], &mut support);
        let bitmap = &mut self.entries[idx].bitmap;
        bitmap.resize(packed_words(self.slots), 0);
        pack_bits_row(&support, bitmap).expect("a batch of one flags each item 0 or 1");
        self.map.insert((seed, value), idx);
        self.push_front(idx);
        &self.entries[idx].bitmap
    }

    fn unlink(&mut self, idx: usize) {
        let (p, n) = (self.entries[idx].prev, self.entries[idx].next);
        if p == NIL {
            self.head = n;
        } else {
            self.entries[p].next = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.entries[n].prev = p;
        }
        self.entries[idx].prev = NIL;
        self.entries[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head == NIL {
            self.tail = idx;
        } else {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::hash_bucket;

    /// Deterministic 0/1 stream (no external RNG in unit tests).
    fn bit(i: usize, salt: u64) -> u8 {
        (hash_bucket(salt, i, 2)) as u8
    }

    /// Ranges at the edges of the bucket arithmetic: tiny, 2^k and
    /// 2^k ± 1 up to 2^63, the 32-bit boundary, and the largest `usize`.
    fn edge_ranges() -> Vec<usize> {
        let mut ranges = vec![2, 3, 4, 5, 7];
        for k in 1..=63u32 {
            let p = 1usize << k;
            ranges.extend([p - 1, p, p + 1]);
        }
        ranges.extend([u32::MAX as usize, u32::MAX as usize + 1, usize::MAX]);
        ranges.retain(|&r| r >= 2);
        ranges
    }

    /// Item-domain widths around the eight-item group and the 64-item
    /// word, plus the benchmark's `m = 1000`.
    const WIDTHS: [usize; 8] = [1, 7, 8, 9, 63, 64, 65, 1000];

    /// Tile lengths the arms see: empty, one pair, a short tile, and a
    /// full tile and one short of it. (Batches longer than a tile are cut
    /// by `count_into`; `tests/hashed_fold.rs` covers those.)
    const TILE_LENGTHS: [usize; 5] = [0, 1, 10, TILE - 1, TILE];

    /// `len` deterministic pairs for `range`: seeds 0, `u64::MAX` and
    /// hashed ones; values an item hashes to (so huge ranges still have
    /// support), the last bucket, an arbitrary bucket, and values outside
    /// the range.
    fn pairs_for(range: usize, len: usize, salt: u64) -> Vec<(u64, usize)> {
        (0..len)
            .map(|i| {
                let seed = match i {
                    0 => 0,
                    1 => u64::MAX,
                    _ => hash_word(salt ^ i as u64),
                };
                let value = match i % 5 {
                    0 | 1 => hash_bucket(seed, i % 1000, range),
                    2 => range - 1,
                    3 => seed as usize % range,
                    _ if i % 10 == 4 => range,
                    _ => usize::MAX,
                };
                (seed, value)
            })
            .collect()
    }

    /// `counts[v] = #{(seed, value) : hash_bucket(seed, v, range) == value}`,
    /// one pair and one item at a time.
    fn naive_counts(pairs: &[(u64, usize)], range: usize, slots: usize) -> Vec<u64> {
        let mut counts = vec![0u64; slots];
        for &(seed, value) in pairs {
            for (v, count) in counts.iter_mut().enumerate() {
                *count += u64::from(hash_bucket(seed, v, range) == value);
            }
        }
        counts
    }

    /// The counts an arm adds into a zeroed row of `slots` items.
    fn arm_counts(slots: usize, run: impl FnOnce(&mut [u64])) -> Vec<u64> {
        let mut row = vec![0u64; slots];
        run(&mut row);
        row
    }

    #[test]
    fn kernel_rows_match_hash_bucket() {
        for range in edge_ranges() {
            let fold = HashedFold::new(range);
            let pairs = pairs_for(range, 10, range as u64);
            for slots in WIDTHS {
                let mut counts = vec![0u64; slots];
                fold.count_into(&pairs, &mut counts);
                assert_eq!(
                    counts,
                    naive_counts(&pairs, range, slots),
                    "range={range} slots={slots}"
                );
            }
        }
    }

    /// A `u8` row of a batch of one holds the 0/1 support flags.
    #[test]
    fn u8_row_of_one_pair_flags_its_support() {
        for range in [4usize, 5] {
            for &(seed, value) in &pairs_for(range, 10, 11) {
                let mut flags = vec![0u8; 1000];
                HashedFold::new(range).count_into(&[(seed, value)], &mut flags);
                let flags: Vec<u64> = flags.into_iter().map(u64::from).collect();
                assert_eq!(flags, naive_counts(&[(seed, value)], range, 1000));
            }
        }
    }

    /// The tile lengths one range runs: every length for a few ranges,
    /// the short ones for the rest (a full tile hashes the long way).
    fn tile_lengths(every: bool) -> &'static [usize] {
        if every {
            &TILE_LENGTHS
        } else {
            &TILE_LENGTHS[..3]
        }
    }

    /// Hands every mask-arm input to `check(pairs, mask, slots, naive)`:
    /// ranges `2^1..=2^63`, every width, and the tile lengths (the arms
    /// run one tile at a time).
    fn for_each_mask_input(mut check: impl FnMut(&[(u64, usize)], u64, usize, &[u64])) {
        for k in 1..=63u32 {
            let range = 1usize << k;
            for &len in tile_lengths(k % 16 == 2) {
                let pairs = pairs_for(range, len, u64::from(k));
                for slots in WIDTHS {
                    let naive = naive_counts(&pairs, range, slots);
                    check(&pairs, range as u64 - 1, slots, &naive);
                }
            }
        }
    }

    /// The scalar mask arm, called directly so it stays tested on hosts
    /// where the dispatch picks the AVX-512 arm.
    #[test]
    fn scalar_mask_arm_matches_hash_bucket() {
        for_each_mask_input(|pairs, mask, slots, naive| {
            let scalar = arm_counts(slots, |row| count_tile(pairs, |z| z & mask, row));
            assert_eq!(scalar, naive, "mask={mask:#x} slots={slots}");
        });
    }

    /// The remainder arm, called directly, at every edge range (it is
    /// exact for powers of two too, which the dispatch sends elsewhere).
    #[test]
    fn remainder_arm_matches_hash_bucket() {
        for range in edge_ranges() {
            for &len in tile_lengths(matches!(range, 3 | 5 | 7)) {
                let pairs = pairs_for(range, len, 5);
                for slots in WIDTHS {
                    let got =
                        arm_counts(slots, |row| count_tile(&pairs, |z| z % range as u64, row));
                    let at = format!("range={range} slots={slots} pairs={len}");
                    assert_eq!(got, naive_counts(&pairs, range, slots), "{at}");
                }
            }
        }
    }

    /// The AVX-512 arm equals the scalar mask arm and `hash_bucket`.
    /// Needs `avx512f` and `avx512dq`.
    #[test]
    fn avx512_arm_matches_scalar_arm_and_hash_bucket() {
        if !try_count_tile_avx512::<u64>(&[], 3, &mut []) {
            eprintln!("avx512_arm_matches_scalar_arm_and_hash_bucket: no avx512f/avx512dq on this CPU, AVX-512 arm not run");
            return;
        }
        for_each_mask_input(|pairs, mask, slots, naive| {
            let scalar = arm_counts(slots, |row| count_tile(pairs, |z| z & mask, row));
            let avx512 = arm_counts(slots, |row| {
                assert!(try_count_tile_avx512(pairs, mask, row));
            });
            let at = format!("mask={mask:#x} slots={slots} pairs={}", pairs.len());
            assert_eq!(avx512, scalar, "{at}");
            assert_eq!(avx512, naive, "{at}");
        });
    }

    #[test]
    fn out_of_range_value_has_empty_preimage() {
        let mut counts = vec![0u64; 130];
        HashedFold::new(4).count_into(&[(9, 4), (9, usize::MAX)], &mut counts);
        assert!(counts.iter().all(|&n| n == 0));
    }

    #[test]
    #[should_panic(expected = "at least two buckets")]
    fn one_bucket_kernel_is_refused() {
        HashedFold::new(1);
    }

    #[test]
    fn pack_matches_naive_for_awkward_widths() {
        for slots in [1usize, 7, 8, 9, 63, 64, 65, 100, 128, 130] {
            let bits: Vec<u8> = (0..slots).map(|i| bit(i, 42)).collect();
            let mut words = vec![u64::MAX; packed_words(slots)];
            pack_bits_row(&bits, &mut words).unwrap();
            for (i, &b) in bits.iter().enumerate() {
                let got = (words[i / 64] >> (i % 64)) & 1;
                assert_eq!(got, u64::from(b), "slots={slots} bit {i}");
            }
            // Padding bits beyond `slots` are zero.
            let used = slots % 64;
            if used != 0 {
                assert_eq!(words[slots / 64] >> used, 0, "slots={slots} padding");
            }
        }
    }

    #[test]
    fn pack_rejects_non_binary_and_wrong_width() {
        for bad_at in [0usize, 5, 8, 63, 64, 66] {
            let mut bits = vec![0u8; 67];
            bits[bad_at] = 2;
            let mut words = vec![0u64; packed_words(67)];
            assert!(pack_bits_row(&bits, &mut words).is_err(), "slot {bad_at}");
        }
        let mut words = vec![0u64; 1];
        assert!(pack_bits_row(&[0u8; 65], &mut words).is_err());
    }

    #[test]
    fn bit_planes_match_scalar_sums_across_spills() {
        // 700 rows > 2 × 255 forces automatic spills mid-stream.
        let slots = 130;
        let mut planes = BitPlanes::new(slots);
        assert_eq!(planes.slots(), slots);
        let mut counts = vec![0u64; slots];
        let mut want = vec![0u64; slots];
        let mut row = vec![0u64; packed_words(slots)];
        for r in 0..700usize {
            let bits: Vec<u8> = (0..slots).map(|i| bit(i + r * slots, 7)).collect();
            for (w, &b) in want.iter_mut().zip(&bits) {
                *w += u64::from(b);
            }
            pack_bits_row(&bits, &mut row).unwrap();
            planes.add_row(&row, &mut counts);
            assert!(planes.pending <= BitPlanes::MAX_PENDING_ROWS);
        }
        planes.spill_into(&mut counts);
        assert_eq!(counts, want);
        assert_eq!(planes.pending, 0);
        // A second spill is a no-op.
        planes.spill_into(&mut counts);
        assert_eq!(counts, want);
    }

    #[test]
    fn preimage_cache_agrees_with_direct_hashing() {
        let (slots, range) = (100usize, 7usize);
        let mut cache = SeedPreimageCache::new(slots, range);
        for (seed, value) in [(3u64, 0usize), (99, 6), (3, 0), (u64::MAX, 3)] {
            let bitmap = cache.preimage(seed, value).to_vec();
            for v in 0..slots {
                let want = hash_bucket(seed, v, range) == value;
                let got = (bitmap[v / 64] >> (v % 64)) & 1 == 1;
                assert_eq!(got, want, "seed={seed} value={value} item {v}");
            }
            let padding = slots % 64;
            assert_eq!(bitmap[slots / 64] >> padding, 0, "padding stays zero");
        }
        assert_eq!(cache.misses(), 3, "repeated key hits");
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut cache = SeedPreimageCache::with_capacity(32, 4, 2);
        cache.preimage(1, 0);
        cache.preimage(2, 0);
        cache.preimage(1, 0); // touch 1: now 2 is LRU
        cache.preimage(3, 0); // evicts 2
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
        cache.preimage(1, 0); // still cached
        assert_eq!(cache.hits(), 2);
        cache.preimage(2, 0); // was evicted: a miss again
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.len(), 2, "capacity bound holds");
        assert_eq!(cache.capacity(), 2);
    }

    #[test]
    fn default_capacity_is_memory_bounded() {
        // Tiny domains clamp up to 16; huge domains clamp down so the
        // cache stays within ~1 MiB of bitmap payload.
        let small = SeedPreimageCache::new(8, 2);
        assert_eq!(small.capacity(), 4096);
        let big = SeedPreimageCache::new(1 << 22, 2);
        assert!(big.capacity() >= 16);
        assert!(big.capacity() * packed_words(1 << 22) * 8 <= (1 << 20) * 16);
        assert!(small.is_empty());
    }
}
