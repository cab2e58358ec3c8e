//! Optimal Local Hashing (OLH, Wang et al., USENIX Security'17).
//!
//! The classical LDP baseline for *large* domains: each client draws a
//! fresh hash seed, maps its item into a small range `g` with the shared
//! [`crate::report::hash_bucket`] hash, and perturbs the hashed value with
//! GRR over `g` categories. The wire report is the `(seed, value)` pair —
//! `8 + ⌈log g⌉` bits instead of `m` — which is exactly the shape the
//! bit-vector-only pipeline of PR 1/2 could not express and the reason
//! the report layer is shape-polymorphic
//! ([`crate::report::ReportShape::Hashed`]).
//!
//! Server side, a `(seed, value)` report *supports* every item `v` with
//! `hash_bucket(seed, v, g) == value`; folding reports into per-item
//! support counts gives the per-bucket Bernoulli structure
//!
//! ```text
//! Pr[support v | v true]  = p = e^ε / (e^ε + g − 1)
//! Pr[support v | v other] = 1/g
//! ```
//!
//! so the standard Eq. 8 calibration applies with `(a, b) = (p, 1/g)`.
//! The *optimal* hash range `g = e^ε + 1` minimizes the resulting
//! variance — the choice [`OptimalLocalHashing::new`] makes.

use crate::budget::Epsilon;
use crate::error::{Error, Result};
use crate::fold::HashedFold;
use crate::report::hash_bucket;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// The OLH mechanism over an item domain of size `m`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OptimalLocalHashing {
    m: usize,
    g: usize,
    p: f64,
    q: f64,
}

impl OptimalLocalHashing {
    /// Creates OLH at the optimal hash range `g = round(e^ε) + 1`.
    ///
    /// # Errors
    /// Returns an error if `m < 2`.
    pub fn new(eps: Epsilon, m: usize) -> Result<Self> {
        let g = (eps.exp().round() as usize).saturating_add(1).max(2);
        Self::with_hash_range(eps, m, g)
    }

    /// Creates OLH with an explicit hash range `g >= 2` (BLH is `g = 2`).
    ///
    /// # Errors
    /// Returns an error if `m < 2` or `g < 2`.
    pub fn with_hash_range(eps: Epsilon, m: usize, g: usize) -> Result<Self> {
        if m < 2 {
            return Err(Error::Empty {
                what: "OLH domain (needs at least two items)".into(),
            });
        }
        if g < 2 {
            return Err(Error::Empty {
                what: "OLH hash range (needs at least two buckets)".into(),
            });
        }
        let e = eps.exp();
        // `Epsilon` validates finite ε, but e^ε can still overflow to
        // infinity (ε ≳ 709), which would make p = inf/inf = NaN and panic
        // deep inside perturbation; reject it here instead.
        if !e.is_finite() {
            return Err(Error::InvalidEpsilon { value: eps.get() });
        }
        let denom = e + g as f64 - 1.0;
        Ok(Self {
            m,
            g,
            p: e / denom,
            q: 1.0 / denom,
        })
    }

    /// The hash range `g` client hashes map into.
    pub fn hash_range(&self) -> usize {
        self.g
    }

    /// Probability of reporting the true hashed value.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability of reporting any particular other hashed value.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Runs the client protocol: draw a fresh hash seed, encode, perturb
    /// with GRR over the hash range. Returns the `(seed, value)` wire pair.
    ///
    /// # Errors
    /// Returns an error if `input >= m`.
    pub fn perturb<R: Rng + ?Sized>(&self, input: usize, rng: &mut R) -> Result<(u64, usize)> {
        if input >= self.m {
            return Err(Error::IndexOutOfRange {
                what: "OLH input".into(),
                index: input,
                bound: self.m,
            });
        }
        let seed = rng.next_u64();
        let encoded = hash_bucket(seed, input, self.g);
        // GRR over the g hash buckets, drawing exactly like
        // `GeneralizedRandomizedResponse::perturb`.
        let value = if rng.random_bool(self.p) {
            encoded
        } else {
            let mut v = rng.random_range(0..self.g - 1);
            if v >= encoded {
                v += 1;
            }
            v
        };
        Ok((seed, value))
    }

    /// The items a `(seed, value)` report supports — the server-side fold
    /// of one report, as 0/1 over the item domain, through the shared
    /// [`HashedFold`] kernel as a batch of one.
    pub fn fold_support_into(&self, seed: u64, value: usize, report: &mut [u8]) {
        report.fill(0);
        HashedFold::new(self.g).count_into(&[(seed, value)], report);
    }
}

// ---------------------------------------------------------------------------
// Unified trait layer
// ---------------------------------------------------------------------------

use crate::estimator::FrequencyEstimator;
use crate::mechanism::{
    check_item_input, check_report_width, BatchMechanism, BitProfile, CountAccumulator,
    FrequencyOracle, Input, InputBatch, InputKind, Mechanism,
};
use crate::oracle::CalibratingOracle;
use crate::report::{ReportData, ReportShape};

impl Mechanism for OptimalLocalHashing {
    fn kind(&self) -> &'static str {
        "olh"
    }

    fn domain_size(&self) -> usize {
        self.m
    }

    /// The *folded* width: OLH counts live over the item domain itself.
    fn report_len(&self) -> usize {
        self.m
    }

    fn input_kind(&self) -> InputKind {
        InputKind::Item
    }

    fn report_shape(&self) -> ReportShape {
        ReportShape::Hashed { range: self.g }
    }

    /// Writes the folded support vector of the `(seed, value)` report —
    /// the server-side view. Draws randomness identically to
    /// [`Self::perturb_data`], which emits the compact wire pair.
    fn perturb_into(
        &self,
        input: Input<'_>,
        rng: &mut dyn RngCore,
        report: &mut [u8],
    ) -> Result<()> {
        let item = check_item_input(input, self.m)?;
        check_report_width(report, self.m)?;
        let (seed, value) = self.perturb(item, rng)?;
        self.fold_support_into(seed, value, report);
        Ok(())
    }

    fn perturb_data(&self, input: Input<'_>, rng: &mut dyn RngCore) -> Result<ReportData> {
        let item = check_item_input(input, self.m)?;
        let (seed, value) = self.perturb(item, rng)?;
        Ok(ReportData::Hashed { seed, value })
    }

    fn encode_hot(&self, input: Input<'_>, _rng: &mut dyn RngCore) -> Result<usize> {
        check_item_input(input, self.m)
    }

    fn ldp_epsilon(&self) -> f64 {
        // Hashing is input-independent preprocessing; the GRR stage over g
        // buckets carries the whole budget.
        (self.p / self.q).ln()
    }

    fn frequency_oracle(&self, n: u64) -> Box<dyn FrequencyOracle> {
        // Support counts are Bernoulli(p) for holders and Bernoulli(1/g)
        // for everyone else — Eq. 8 with (a, b) = (p, 1/g).
        let b = 1.0 / self.g as f64;
        let est = FrequencyEstimator::new(vec![self.p; self.m], vec![b; self.m], n, 1.0)
            .expect("p > 1/g for every positive budget");
        Box::new(CalibratingOracle::new(est, self.m).expect("widths match"))
    }

    fn bit_profile(&self) -> Option<BitProfile> {
        // Marginally exact per bucket (support bits are correlated through
        // the shared hash, as GRR's one-hot bits are through the single
        // reported value) — sufficient for the aggregate simulation path.
        Some(BitProfile {
            a: vec![self.p; self.m],
            b: vec![1.0 / self.g as f64; self.m],
        })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl BatchMechanism for OptimalLocalHashing {
    /// Fast path: draws every user's `(seed, value)` pair, then folds the
    /// whole batch straight into the accumulator through the item-major
    /// [`HashedFold`] kernel, skipping the intermediate report buffers.
    /// Randomness is drawn by the same [`OptimalLocalHashing::perturb`] the
    /// per-user loop uses, so batch ≡ loop bit for bit. A batch holding an
    /// out-of-domain item folds nothing.
    fn perturb_batch(
        &self,
        batch: InputBatch<'_>,
        rng: &mut dyn RngCore,
        acc: &mut CountAccumulator,
    ) -> Result<()> {
        let InputBatch::Items(items) = batch else {
            check_item_input(Input::Set(&[]), self.m)?;
            unreachable!("set inputs are rejected above");
        };
        if acc.counts().len() != self.m {
            return Err(Error::DimensionMismatch {
                what: "batch accumulator".into(),
                expected: self.m,
                actual: acc.counts().len(),
            });
        }
        let pairs = items
            .iter()
            .map(|&item| self.perturb(item as usize, rng))
            .collect::<Result<Vec<_>>>()?;
        HashedFold::new(self.g).count_into(&pairs, acc.counts_mut());
        acc.add_users(pairs.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idldp_num::rng::SplitMix64;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn optimal_range_tracks_budget() {
        // g = round(e^ε) + 1: ε = ln 3 → 4; small ε → binary-ish hashing.
        let olh = OptimalLocalHashing::new(eps(3.0_f64.ln()), 100).unwrap();
        assert_eq!(olh.hash_range(), 4);
        let tight = OptimalLocalHashing::new(eps(0.1), 100).unwrap();
        assert_eq!(tight.hash_range(), 2);
        // At the optimum p = e^ε/(e^ε + g − 1) with g = e^ε + 1 → p ≈ 1/2.
        let e = 3.0_f64.ln();
        let p = e.exp() / (e.exp() + 3.0);
        assert!((olh.p() - p).abs() < 1e-12);
        assert!((Mechanism::ldp_epsilon(&olh) - e).abs() < 1e-12);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(OptimalLocalHashing::new(eps(1.0), 1).is_err());
        assert!(OptimalLocalHashing::with_hash_range(eps(1.0), 10, 1).is_err());
        assert!(OptimalLocalHashing::with_hash_range(eps(1.0), 10, 2).is_ok());
        // ε is finite but e^ε overflows: must error, not produce NaN
        // probabilities that panic at perturb time.
        assert!(OptimalLocalHashing::new(eps(710.0), 10).is_err());
        assert!(OptimalLocalHashing::with_hash_range(eps(710.0), 10, 4).is_err());
    }

    #[test]
    fn perturb_keeps_hashed_value_at_rate_p() {
        let olh = OptimalLocalHashing::with_hash_range(eps(1.5), 30, 5).unwrap();
        let mut rng = SplitMix64::new(7);
        assert!(olh.perturb(30, &mut rng).is_err());
        let trials = 40_000;
        let mut kept = 0u32;
        for _ in 0..trials {
            let (seed, value) = olh.perturb(11, &mut rng).unwrap();
            assert!(value < 5);
            kept += u32::from(hash_bucket(seed, 11, 5) == value);
        }
        let rate = f64::from(kept) / f64::from(trials);
        assert!(
            (rate - olh.p()).abs() < 0.01,
            "rate {rate} vs p {}",
            olh.p()
        );
    }

    #[test]
    fn off_item_support_rate_is_one_over_g() {
        let g = 4;
        let olh = OptimalLocalHashing::with_hash_range(eps(2.0), 20, g).unwrap();
        let mut rng = SplitMix64::new(8);
        let trials = 40_000u32;
        let mut supported = 0u32;
        for _ in 0..trials {
            let (seed, value) = olh.perturb(3, &mut rng).unwrap();
            // Item 15 ≠ 3: supported with probability 1/g.
            supported += u32::from(hash_bucket(seed, 15, g) == value);
        }
        let rate = f64::from(supported) / f64::from(trials);
        assert!(
            (rate - 1.0 / g as f64).abs() < 0.01,
            "off-item support rate {rate}"
        );
    }

    #[test]
    fn trait_report_is_fold_of_wire_pair() {
        let olh = OptimalLocalHashing::new(eps(1.0), 12).unwrap();
        let mut r1 = SplitMix64::new(31);
        let mut r2 = SplitMix64::new(31);
        let report = olh.perturb_report(Input::Item(4), &mut r1).unwrap();
        let data = olh.perturb_data(Input::Item(4), &mut r2).unwrap();
        let ReportData::Hashed { seed, value } = data else {
            panic!("OLH must emit hashed reports, got {data:?}");
        };
        let mut folded = vec![0u8; 12];
        olh.fold_support_into(seed, value, &mut folded);
        assert_eq!(report, folded, "perturb_into ≡ fold(perturb_data)");
        assert_eq!(
            olh.report_shape(),
            ReportShape::Hashed {
                range: olh.hash_range()
            }
        );
    }

    #[test]
    fn estimates_are_unbiased() {
        let m = 10;
        let olh = OptimalLocalHashing::new(eps(2.0), m).unwrap();
        let n = 4000usize;
        let items: Vec<u32> = (0..n).map(|i| if i % 5 == 0 { 2 } else { 7 }).collect();
        let trials = 30u64;
        let oracle = olh.frequency_oracle(n as u64);
        let mut mean = vec![0.0; m];
        for t in 0..trials {
            let mut rng = SplitMix64::new(100 + t);
            let mut acc = CountAccumulator::new(m);
            olh.perturb_batch(InputBatch::Items(&items), &mut rng, &mut acc)
                .unwrap();
            for (s, e) in mean.iter_mut().zip(oracle.estimate(acc.counts()).unwrap()) {
                *s += e / trials as f64;
            }
        }
        assert!(
            (mean[2] - n as f64 / 5.0).abs() < 0.05 * n as f64,
            "{mean:?}"
        );
        assert!(
            (mean[7] - 4.0 * n as f64 / 5.0).abs() < 0.05 * n as f64,
            "{mean:?}"
        );
        assert!(mean[0].abs() < 0.05 * n as f64, "{mean:?}");
    }

    #[test]
    fn olh_beats_grr_on_large_domains() {
        // The point of hashing: at large m, OLH's variance is independent
        // of m while GRR's grows linearly.
        let n = 10_000u64;
        let e = eps(1.0);
        let m = 1024;
        let olh = OptimalLocalHashing::new(e, m).unwrap();
        let grr = crate::grr::GeneralizedRandomizedResponse::new(e, m).unwrap();
        let zeros = vec![0.0; m];
        let olh_mse = olh
            .frequency_oracle(n)
            .theoretical_total_mse(&zeros)
            .unwrap();
        let grr_mse = Mechanism::frequency_oracle(&grr, n)
            .theoretical_total_mse(&zeros)
            .unwrap();
        assert!(
            olh_mse * 10.0 < grr_mse,
            "OLH {olh_mse} should beat GRR {grr_mse} at m = {m}"
        );
    }
}
