//! Property tests for the OLH hash-fold kernel: for arbitrary batches of
//! `(seed, value)` pairs, hash ranges and domain widths, [`HashedFold`]
//! counts exactly what a naive `hash_bucket(seed, v, range) == value` loop
//! does, and every fold built on it agrees, on every arm it dispatches to
//! (the mask for power-of-two ranges, on AVX-512 where the CPU has it, and
//! the remainder otherwise) and across tile edges.

use idldp_core::budget::Epsilon;
use idldp_core::fold::{HashedFold, TILE};
use idldp_core::olh::OptimalLocalHashing;
use idldp_core::report::{hash_bucket, Report};
use proptest::prelude::*;

/// Hash ranges from every regime the bucket arithmetic must get right:
/// small (OLH's `g = e^ε + 1`), `2^k` and `2^k ± 1`, and arbitrary
/// 64-bit.
fn arb_range() -> impl Strategy<Value = usize> {
    (0u32..3, 2usize..64, 1u32..64, 0usize..3, any::<u64>()).prop_map(
        |(regime, small, k, offset, wide)| match regime {
            0 => small,
            1 => ((1usize << k) + offset - 1).max(2),
            _ => (wide as usize).max(2),
        },
    )
}

/// Adds each pair's naive support to `counts`, one item at a time.
fn add_naive(counts: &mut [u64], (seed, value): (u64, usize), range: usize) {
    for (v, count) in counts.iter_mut().enumerate() {
        *count += u64::from(hash_bucket(seed, v, range) == value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Kernel count rows equal the naive loop, for any batch (repeated
    /// pairs and out-of-range values included) and any starting row.
    #[test]
    fn kernel_rows_match_naive_hash_loop(
        range in arb_range(),
        slots in 1usize..1100,
        picks in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u32..3), 0..12),
        base in any::<u32>(),
    ) {
        // Pairs pick a value some item hashes to (so preimages are
        // non-empty even for huge ranges), any in-range value, or one
        // outside the range.
        let pairs: Vec<(u64, usize)> = picks
            .iter()
            .map(|&(seed, pick, kind)| {
                let value = match kind {
                    0 => hash_bucket(seed, pick as usize % slots, range),
                    1 => pick as usize % range,
                    _ => range.saturating_add(pick as usize % 2),
                };
                (seed, value)
            })
            .collect();
        let mut want = vec![u64::from(base); slots];
        for &pair in &pairs {
            add_naive(&mut want, pair, range);
        }
        let mut counts = vec![u64::from(base); slots];
        HashedFold::new(range).count_into(&pairs, &mut counts);
        prop_assert_eq!(counts, want);
    }

    /// The sequential fold and OLH's support vector, both routed through
    /// the kernel, count exactly the naive preimage.
    #[test]
    fn folds_through_the_kernel_match_naive(
        seed in any::<u64>(),
        eps in 0.2f64..4.0,
        m in 2usize..300,
        pick in any::<u64>(),
    ) {
        let olh = OptimalLocalHashing::new(Epsilon::new(eps).unwrap(), m).unwrap();
        let g = olh.hash_range();
        let value = pick as usize % g;
        let naive: Vec<u64> = (0..m)
            .map(|v| u64::from(hash_bucket(seed, v, g) == value))
            .collect();
        let mut counts = vec![0u64; m];
        Report::Hashed { seed, value }.fold_into(&mut counts, g).unwrap();
        prop_assert_eq!(&counts, &naive);
        let mut support = vec![7u8; m];
        olh.fold_support_into(seed, value, &mut support);
        let support: Vec<u64> = support.iter().map(|&b| u64::from(b)).collect();
        prop_assert_eq!(&support, &naive);
    }
}

/// Every batch length around the tile edge (empty, one pair, a tile and
/// one either side, three tiles and a bit) at every width around the
/// eight-item group and the 64-item word, on the mask arm (AVX-512 where
/// the CPU has it) and the remainder arm, small and wide.
#[test]
fn batch_lengths_across_tiles_match_naive() {
    let lengths = [0, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5];
    let longest = lengths[lengths.len() - 1];
    for range in [4usize, 5, 1 << 33, (1 << 33) + 1] {
        let pairs: Vec<(u64, usize)> = (0..longest as u64)
            .map(|i| {
                let seed = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ range as u64;
                // Mostly values an item hashes to, so wide ranges count.
                let value = match i % 3 {
                    0 => i as usize % range,
                    _ => hash_bucket(seed, i as usize % 1000, range),
                };
                (seed, value)
            })
            .collect();
        let fold = HashedFold::new(range);
        for slots in [1usize, 7, 8, 9, 63, 64, 65, 1000] {
            // The naive rows of every prefix length, in one pass.
            let mut naive = vec![0u64; slots];
            let mut want = vec![naive.clone()];
            for (i, &pair) in pairs.iter().enumerate() {
                add_naive(&mut naive, pair, range);
                if lengths.contains(&(i + 1)) {
                    want.push(naive.clone());
                }
            }
            for (&len, want) in lengths.iter().zip(&want) {
                let mut counts = vec![0u64; slots];
                fold.count_into(&pairs[..len], &mut counts);
                assert_eq!(&counts, want, "range={range} slots={slots} len={len}");
            }
        }
    }
}

/// The workload's width at the budgets that pick each reduction arm: OLH's
/// `g = round(e^ε) + 1` is 3 and 5 (remainder) and 4 and 8 (mask) at
/// ε = 0.5, 1, 1.5 and 2, and explicit ranges g = 4 and g = 8 put the mask
/// arm (AVX-512 where the CPU has it) under other budgets too. Both kernel
/// folds must equal the naive loop.
#[test]
fn olh_ranges_of_both_reduction_arms_match_naive() {
    let m = 1000;
    let mut cases = Vec::new();
    for (eps, want_g) in [(0.5, 3usize), (1.0, 4), (1.5, 5), (2.0, 8)] {
        let olh = OptimalLocalHashing::new(Epsilon::new(eps).unwrap(), m).unwrap();
        assert_eq!(olh.hash_range(), want_g, "ε = {eps}");
        cases.push((eps, olh));
    }
    for (eps, g) in [(0.5, 4usize), (1.5, 4), (0.5, 8), (1.0, 8)] {
        let olh = OptimalLocalHashing::with_hash_range(Epsilon::new(eps).unwrap(), m, g).unwrap();
        assert_eq!(olh.hash_range(), g, "ε = {eps}");
        cases.push((eps, olh));
    }
    for (eps, olh) in cases {
        let g = olh.hash_range();
        for seed in [0u64, 1, 0x5EED_F00D, 0xDEAD_BEEF_CAFE_F00D, u64::MAX] {
            for value in 0..g {
                let naive: Vec<u64> = (0..m)
                    .map(|v| u64::from(hash_bucket(seed, v, g) == value))
                    .collect();
                let at = format!("ε = {eps} g = {g} seed = {seed} value = {value}");
                let mut counts = vec![0u64; m];
                Report::Hashed { seed, value }
                    .fold_into(&mut counts, g)
                    .unwrap();
                assert_eq!(counts, naive, "{at}");
                let mut support = vec![7u8; m];
                olh.fold_support_into(seed, value, &mut support);
                let support: Vec<u64> = support.iter().map(|&b| u64::from(b)).collect();
                assert_eq!(support, naive, "{at}");
            }
        }
    }
}
