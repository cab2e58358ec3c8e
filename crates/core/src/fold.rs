//! The batched, word-packed fold engine.
//!
//! Per-report folding pays two per-report costs the batch ingest path does
//! not have to: bit-vector reports are added byte at a time (`m` adds per
//! report), and hashed reports evaluate [`hash_bucket`] over the whole item
//! domain (`m` hashes per report). This module provides the primitives that
//! turn a *batch* of reports into word operations and make the one
//! unavoidable hash pass cheap; the `accumulate_batch` folds of
//! `idldp-stream`'s accumulators build on them:
//!
//! * [`HashedFold`] — the one domain-wide hash loop of a `(seed, value)`
//!   report: it hashes the seed across the item domain in a single pass
//!   and packs the preimage 64 items per `u64` word without a
//!   data-dependent branch, reducing a power-of-two range with a mask
//!   (eight items per instruction on AVX-512 CPUs) and any other with
//!   `%`. [`crate::report::Report::fold_into`], the
//!   [`SeedPreimageCache`] miss path and
//!   [`crate::olh::OptimalLocalHashing::fold_support_into`] all run it.
//! * [`pack_bits_row`] — packs a 0/1 byte-per-slot report into `u64` words
//!   (64 slots per word, LSB-first) with a carry-free multiply-gather, so
//!   a row enters the fold as `m/64` words instead of `m` bytes. It builds
//!   [`crate::report::PackedBits`], the owned bit report, whose words the
//!   wire carries and the fold adds as they are.
//! * [`BitPlanes`] — a SWAR bit-sliced counter: eight `u64` bit-planes per
//!   64-slot lane accumulate packed rows with a carry-save add (no
//!   per-slot loop), and spill into ordinary `u64` counts. The **spill
//!   invariant**: eight planes hold per-slot partial sums up to 255, so at
//!   most 255 rows may be pending between spills — [`BitPlanes::add_row`]
//!   enforces this by spilling automatically.
//! * [`SeedPreimageCache`] — an LRU map from a hashed report's
//!   `(seed, value)` to the packed bitmap of items it supports
//!   (`{v : hash_bucket(seed, v, g) == value}`). A miss costs one
//!   [`HashedFold`] pass; a hit replays the report as an `O(m/64)` word
//!   row. Clients draw a fresh seed per report, so real traffic always
//!   misses; hits need a repeated pair. The cache is bounded: each entry
//!   is `⌈m/64⌉` words (`≈ m/8` bytes), and the default capacity keeps the
//!   whole cache within ~1 MiB (clamped to `16..=4096` entries), evicting
//!   least-recently-used entries beyond that.
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

/// The hash fold of hashed `(seed, value)` reports over one hash range:
/// the packed preimage `{v : hash_bucket(seed, v, range) == value}`,
/// computed in one pass over the item domain.
///
/// A naive fold branches on every item's bucket, and at OLH's `g = 4`
/// that branch mispredicts about a quarter of the time. No arm of this
/// kernel branches on an item. In the scalar arms each item enters its
/// word as `bits = (bits << 1) | u64::from(bucket == value)`, 64 items
/// per word walked from the highest lane down, so the loop has neither a
/// data-dependent branch nor a per-lane variable shift. The item term
/// `v · ITEM_MIX` is walked by subtraction.
///
/// Each call runs one of three arms, chosen once per call from the range
/// and, for the first, the CPU:
///
/// * **AVX-512 mask arm** — a power-of-two range (`2, 4, 8, …`; OLH's `g`
///   at `ε = 1` and `ε = 2`) on an x86-64 CPU with `avx512f` and
///   `avx512dq`, detected at run time (std caches the probe). It hashes
///   eight consecutive items per instruction: the SplitMix64 finalizer's
///   two 64-bit multiplies are one `vpmullq` each for all eight lanes, and
///   one `vpcmpeqq` writes the eight bucket tests into an 8-bit mask that
///   becomes one byte of the word. Every lane runs the same wrapping
///   64-bit adds, multiplies and xor-shifts as [`hash_bucket`] on its own
///   item, and lane `i` of the word's group `j` is item `64w + 8j + i`,
///   whose test lands at bit `8j + i`, so each word is exactly the scalar
///   arm's word. The last word hashes whole groups past `slots` and clears
///   those bits, so padding stays zero.
/// * **Scalar mask arm** — a power-of-two range on any other CPU.
/// * **Remainder arm** — every other range (`3, 5, …`), with the hardware
///   remainder `z % range`, exactly as [`hash_bucket`] computes it. There
///   is no vector integer divide, so it has no vector form.
///
/// The mask `z & (range − 1)` is exact: for `range = 2^k`, `z % 2^k` is the
/// low `k` bits of `z`, so the mask equals the [`hash_bucket`] remainder
/// for every `z`. The two scalar arms run one generic word walk, so each
/// compiles its own loop with no per-item branch between them.
///
/// The scalar mask replaces a 64-bit `div` (about 4 ns per item, the
/// loop's throughput limit) with one AND. An exact multiply-high reduction
/// by a precomputed `⌈2^128 / range⌉` (Granlund & Montgomery, PLDI 1994)
/// was tried for every range and dropped: on a 2-vCPU Xeon VM its median
/// was barely better (4.3–4.5 µs against 4.5–4.6 µs per `m = 1000`
/// preimage), and its one-second windows spread 0.17–0.21 of the median
/// against 0.035 with the divider. Without the divider to wait on, the
/// scalar mask loop is dispatch-bound at about 21 µops per item (1.7–2.3 µs
/// per `m = 1000` preimage); the AVX-512 arm spends under three µops per
/// item, and on the same kind of VM builds that preimage in about 0.5 µs.
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

    /// Hashes `seed` across items `0..slots` and hands each packed word of
    /// the preimage of `value` to `emit(word_index, bits)`, in order. Item
    /// `v` is bit `v % 64` of word `v / 64`, and padding bits beyond
    /// `slots` are zero. A `value` outside the range has an empty
    /// preimage.
    #[inline]
    pub fn preimage_words(
        &self,
        seed: u64,
        value: usize,
        slots: usize,
        mut emit: impl FnMut(usize, u64),
    ) {
        let range = self.range;
        if range.is_power_of_two() {
            let mask = range - 1;
            if !try_walk_words_avx512(seed, value as u64, mask, slots, &mut emit) {
                walk_words(seed, value as u64, slots, |z| z & mask, emit);
            }
        } else {
            walk_words(seed, value as u64, slots, |z| z % range, emit);
        }
    }

    /// Writes the packed preimage of `(seed, value)` over `slots` items
    /// into `row` (see [`HashedFold::preimage_words`]).
    ///
    /// # Panics
    /// Panics if `row` is not [`packed_words`]`(slots)` long.
    pub fn preimage_into(&self, seed: u64, value: usize, slots: usize, row: &mut [u64]) {
        assert_eq!(row.len(), packed_words(slots), "packed row width");
        self.preimage_words(seed, value, slots, |w, bits| row[w] = bits);
    }
}

/// The word walk of [`HashedFold::preimage_words`], generic over the
/// bucket reduction `bucket(z)` so each reduction compiles its own loop
/// with no per-item branch on which one applies.
#[inline(always)]
fn walk_words(
    seed: u64,
    value: u64,
    slots: usize,
    bucket: impl Fn(u64) -> u64,
    mut emit: impl FnMut(usize, u64),
) {
    let word = |first: usize, lanes: usize| {
        // Walk the word's items from the last down, shifting each in at
        // bit 0, so no per-lane variable shift is needed.
        let mut item_mix = ((first + lanes - 1) as u64).wrapping_mul(ITEM_MIX);
        let mut bits = 0u64;
        for _ in 0..lanes {
            bits = (bits << 1) | u64::from(bucket(hash_word(seed ^ item_mix)) == value);
            item_mix = item_mix.wrapping_sub(ITEM_MIX);
        }
        bits
    };
    let (full, tail) = (slots / 64, slots % 64);
    for w in 0..full {
        emit(w, word(w * 64, 64));
    }
    if tail > 0 {
        emit(full, word(full * 64, tail));
    }
}

/// Runs the AVX-512 word walk of the mask arm (bucket `z & mask`) if this
/// host has `avx512f` and `avx512dq`, and returns whether it ran; `emit`
/// is not called when it returns `false`.
#[cfg(target_arch = "x86_64")]
fn try_walk_words_avx512(
    seed: u64,
    value: u64,
    mask: u64,
    slots: usize,
    emit: impl FnMut(usize, u64),
) -> bool {
    // std caches the CPUID probe, so each check is a load and a bit test.
    if !(std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq"))
    {
        return false;
    }
    #[allow(unsafe_code)]
    // SAFETY: `walk_words_avx512` only requires the `avx512f` and
    // `avx512dq` target features, and both were detected on this CPU
    // (with OS support for the AVX-512 register state) just above.
    unsafe {
        avx512::walk_words_avx512(seed, value, mask, slots, emit)
    };
    true
}

/// No AVX-512 arm off x86-64: the scalar mask arm always runs.
#[cfg(not(target_arch = "x86_64"))]
fn try_walk_words_avx512(
    _seed: u64,
    _value: u64,
    _mask: u64,
    _slots: usize,
    _emit: impl FnMut(usize, u64),
) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use crate::report::ITEM_MIX;
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_cmpeq_epi64_mask, _mm512_mullo_epi64,
        _mm512_set1_epi64, _mm512_set_epi64, _mm512_srli_epi64, _mm512_xor_si512,
    };

    /// `lane · ITEM_MIX` for lane `0..8`: the item terms of one group of
    /// eight consecutive items, relative to the group's first.
    const fn lane_mix(lane: u64) -> i64 {
        lane.wrapping_mul(ITEM_MIX) as i64
    }

    /// [`crate::report::hash_word`] on eight lanes: the same three
    /// wrapping adds/multiplies and xor-shifts, lane by lane.
    #[target_feature(enable = "avx512f,avx512dq")]
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

    /// The mask arm's word walk, eight items per vector: lane `i` of group
    /// `j` in word `w` is item `64w + 8j + i`, and its compare result is
    /// bit `i` of the group's 8-bit mask, so the group's mask lands at
    /// bits `8j..8j + 8` of the word, exactly where the scalar walk puts
    /// those items. The last word hashes whole groups past `slots` and
    /// clears those bits before it is emitted.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn walk_words_avx512(
        seed: u64,
        value: u64,
        mask: u64,
        slots: usize,
        mut emit: impl FnMut(usize, u64),
    ) {
        let seed = _mm512_set1_epi64(seed as i64);
        let mask = _mm512_set1_epi64(mask as i64);
        let value = _mm512_set1_epi64(value as i64);
        let step = _mm512_set1_epi64(lane_mix(8));
        let mut item_mix = _mm512_set_epi64(
            lane_mix(7),
            lane_mix(6),
            lane_mix(5),
            lane_mix(4),
            lane_mix(3),
            lane_mix(2),
            lane_mix(1),
            lane_mix(0),
        );
        let words = super::packed_words(slots);
        for w in 0..words {
            let mut bits = 0u64;
            for group in 0..8 {
                let z = hash_word8(_mm512_xor_si512(seed, item_mix));
                let hits = _mm512_cmpeq_epi64_mask(_mm512_and_si512(z, mask), value);
                bits |= u64::from(hits) << (8 * group);
                item_mix = _mm512_add_epi64(item_mix, step);
            }
            let used = slots - w * 64;
            if used < 64 {
                bits &= (1u64 << used) - 1;
            }
            emit(w, bits);
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

    /// Adds one packed 0/1 row (as produced by [`pack_bits_row`], the
    /// words of a [`crate::report::PackedBits`], or a
    /// [`SeedPreimageCache`] bitmap). Spills into `counts` first if the
    /// 255-row plane capacity is reached, so the spill invariant holds by
    /// construction.
    ///
    /// # Panics
    /// Panics if `row` is not `⌈slots/64⌉` words or `counts` is not
    /// `slots` long.
    pub fn add_row(&mut self, row: &[u64], counts: &mut [u64]) {
        assert_eq!(row.len(), self.words, "packed row width");
        if self.pending == Self::MAX_PENDING_ROWS {
            self.spill_into(counts);
        }
        for (w, &bits) in row.iter().enumerate() {
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
/// The hot-seed fast path of the batched hashed fold: a miss pays the one
/// `O(slots)` hash pass, a hit replays the report as `⌈slots/64⌉` word ORs
/// into a [`BitPlanes`] row. Memory is bounded at
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
            map: HashMap::with_capacity(capacity.min(4096)),
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
        let bitmap = &mut self.entries[idx].bitmap;
        bitmap.resize(packed_words(self.slots), 0);
        self.fold.preimage_into(seed, value, self.slots, bitmap);
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

    #[test]
    fn kernel_rows_match_hash_bucket() {
        for range in edge_ranges() {
            let fold = HashedFold::new(range);
            for slots in [1usize, 63, 64, 65, 130, 1000] {
                for seed in [0u64, 0x5EED_F00D, u64::MAX] {
                    // One value with a non-empty preimage even for huge
                    // ranges, plus the range's extremes.
                    let hit = hash_bucket(seed, slots / 2, range);
                    for value in [0, range - 1, hit] {
                        let mut row = vec![u64::MAX; packed_words(slots)];
                        fold.preimage_into(seed, value, slots, &mut row);
                        for v in 0..slots {
                            let want = hash_bucket(seed, v, range) == value;
                            let got = (row[v / 64] >> (v % 64)) & 1 == 1;
                            assert_eq!(
                                got, want,
                                "range={range} slots={slots} seed={seed} item {v}"
                            );
                        }
                        let used = slots % 64;
                        if used > 0 {
                            assert_eq!(row[slots / 64] >> used, 0, "padding stays zero");
                        }
                    }
                }
            }
        }
    }

    /// Hands every mask-arm input to `check(seed, value, mask, slots,
    /// naive)`, with `naive` the packed `hash_bucket` preimage: ranges
    /// `2^1..=2^63`, widths `1..=130` and 1000, three seeds, and values
    /// inside the range (0, the last bucket, one an item hashes to) and
    /// outside it (the range itself and `u64::MAX`).
    fn for_each_mask_input(mut check: impl FnMut(u64, u64, u64, usize, &[u64])) {
        for k in 1..=63u32 {
            let range = 1u64 << k;
            for slots in (1..=130usize).chain([1000]) {
                for seed in [0u64, 0x5EED_F00D, u64::MAX] {
                    let hit = hash_bucket(seed, slots / 2, range as usize) as u64;
                    for value in [0, range - 1, hit, range, u64::MAX] {
                        let mut naive = vec![0u64; packed_words(slots)];
                        for v in 0..slots {
                            let bucket = hash_bucket(seed, v, range as usize) as u64;
                            naive[v / 64] |= u64::from(bucket == value) << (v % 64);
                        }
                        if value >= range {
                            assert!(naive.iter().all(|&w| w == 0));
                        }
                        check(seed, value, range - 1, slots, &naive);
                    }
                }
            }
        }
    }

    /// The scalar mask arm, called directly so it stays tested on hosts
    /// where the dispatch picks the AVX-512 arm.
    #[test]
    fn scalar_mask_arm_matches_hash_bucket() {
        for_each_mask_input(|seed, value, mask, slots, naive| {
            let mut row = vec![u64::MAX; packed_words(slots)];
            walk_words(seed, value, slots, |z| z & mask, |w, bits| row[w] = bits);
            assert_eq!(
                row, naive,
                "mask={mask:#x} slots={slots} seed={seed} value={value}"
            );
        });
    }

    /// The AVX-512 arm equals the scalar mask arm and `hash_bucket`,
    /// padding included. Needs `avx512f` and `avx512dq`.
    #[test]
    fn avx512_arm_matches_scalar_arm_and_hash_bucket() {
        let mut probe = [0u64; 1];
        if !try_walk_words_avx512(0, 0, 3, 1, |w, bits| probe[w] = bits) {
            eprintln!("avx512_arm_matches_scalar_arm_and_hash_bucket: no avx512f/avx512dq on this CPU, AVX-512 arm not run");
            return;
        }
        for_each_mask_input(|seed, value, mask, slots, naive| {
            let mut scalar = vec![u64::MAX; packed_words(slots)];
            walk_words(seed, value, slots, |z| z & mask, |w, bits| scalar[w] = bits);
            let mut avx512 = vec![u64::MAX; packed_words(slots)];
            assert!(try_walk_words_avx512(
                seed,
                value,
                mask,
                slots,
                |w, bits| { avx512[w] = bits }
            ));
            let at = format!("mask={mask:#x} slots={slots} seed={seed} value={value}");
            assert_eq!(avx512, scalar, "{at}");
            assert_eq!(avx512, naive, "{at}");
        });
    }

    #[test]
    fn out_of_range_value_has_empty_preimage() {
        let fold = HashedFold::new(4);
        let mut row = vec![u64::MAX; packed_words(130)];
        fold.preimage_into(9, 4, 130, &mut row);
        assert!(row.iter().all(|&w| w == 0));
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
