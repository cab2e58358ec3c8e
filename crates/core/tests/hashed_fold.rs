//! Property tests for the OLH hash-fold kernel: for arbitrary seeds,
//! values, hash ranges and domain widths, [`HashedFold`] computes exactly
//! the preimage a naive `hash_bucket(seed, v, range) == value` loop does,
//! and every fold built on it agrees, on every arm it dispatches to (the
//! mask for power-of-two ranges, on AVX-512 where the CPU has it, and the
//! remainder otherwise).

use idldp_core::budget::Epsilon;
use idldp_core::fold::{packed_words, HashedFold};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Kernel rows equal the naive loop bit for bit, padding included.
    #[test]
    fn kernel_rows_match_naive_hash_loop(
        seed in any::<u64>(),
        range in arb_range(),
        slots in 1usize..1100,
        pick in any::<u64>(),
        hit in any::<bool>(),
    ) {
        // Half the cases pick a value some item hashes to, so preimages
        // are non-empty even for huge ranges.
        let value = if hit {
            hash_bucket(seed, pick as usize % slots, range)
        } else {
            pick as usize % range
        };
        let fold = HashedFold::new(range);
        let mut row = vec![u64::MAX; packed_words(slots)];
        fold.preimage_into(seed, value, slots, &mut row);
        for v in 0..slots {
            let want = hash_bucket(seed, v, range) == value;
            prop_assert_eq!((row[v / 64] >> (v % 64)) & 1 == 1, want);
        }
        let used = slots % 64;
        if used > 0 {
            prop_assert_eq!(row[slots / 64] >> used, 0);
        }
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
