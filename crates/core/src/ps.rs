//! The Padding-and-Sampling protocol (Algorithm 2, after Wang et al. S&P'18).
//!
//! Item-set inputs are first padded with dummy items from a disjoint domain
//! `S` (|S| = ℓ) — or truncated — to a fixed length ℓ, then exactly one item
//! is sampled uniformly from the padded set. This turns a set-valued input
//! into a single (real or dummy) item, at the cost of a known 1/ℓ sampling
//! rate that the estimator corrects for.

use crate::error::{Error, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The outcome of padding-and-sampling one input set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SampledItem {
    /// A real item `i ∈ I` (index into the item domain).
    Real(usize),
    /// Dummy item `⊥_j` with `j ∈ 0..ℓ` (index into the dummy domain `S`).
    Dummy(usize),
}

impl SampledItem {
    /// Position of this item in the extended `(m + ℓ)`-bit encoding used by
    /// IDUE-PS: real items map to their own index, dummy `⊥_j` to `m + j`.
    pub fn encoded_index(&self, m: usize) -> usize {
        match *self {
            SampledItem::Real(i) => i,
            SampledItem::Dummy(j) => m + j,
        }
    }
}

/// Internal position-level sampling outcome (index into the input set, or a
/// dummy index).
enum SampledPosition {
    Real(usize),
    Dummy(usize),
}

/// Padding-and-Sampling with padding length ℓ over dummy domain `S` of the
/// same size ℓ.
///
/// # Examples
/// ```
/// use idldp_core::ps::PaddingAndSampling;
/// use rand::SeedableRng;
/// let ps = PaddingAndSampling::new(3).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // A 2-item set against ℓ = 3: sampled item is real w.p. η = 2/3.
/// assert_eq!(ps.eta(2), 2.0 / 3.0);
/// let sampled = ps.pad_and_sample(&[4, 9], &mut rng);
/// // Result is either one of {4, 9} or a dummy ⊥_j with j < 3.
/// let _ = sampled.encoded_index(10);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaddingAndSampling {
    l: usize,
}

impl PaddingAndSampling {
    /// Creates the protocol with padding length `l >= 1`.
    pub fn new(l: usize) -> Result<Self> {
        if l == 0 {
            return Err(Error::Empty {
                what: "padding length".into(),
            });
        }
        Ok(Self { l })
    }

    /// Padding length ℓ (also the dummy-domain size |S|).
    pub fn padding_length(&self) -> usize {
        self.l
    }

    /// The position-level core of Algorithm 2: given only the set size `k`,
    /// returns either the *position* of the sampled real item inside the
    /// set or the sampled dummy index. Shared by the `usize` and `u32` set
    /// entry points so both consume randomness identically.
    fn sample_position<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> SampledPosition {
        let l = self.l;
        if k >= l {
            // Truncating uniformly at random and then sampling uniformly is
            // a uniform draw over the original set; see `sample_fast` for
            // the equivalence test.
            return SampledPosition::Real(rng.random_range(0..k));
        }
        // Pad with (l − k) distinct dummies chosen uniformly from S (|S|=l):
        // partial Fisher–Yates over the dummy indices.
        let need = l - k;
        let mut dummies: Vec<usize> = (0..l).collect();
        for i in 0..need {
            let j = rng.random_range(i..l);
            dummies.swap(i, j);
        }
        // x_p = x ∪ {chosen dummies}; sample uniformly from the l slots.
        let slot = rng.random_range(0..l);
        if slot < k {
            SampledPosition::Real(slot)
        } else {
            SampledPosition::Dummy(dummies[slot - k])
        }
    }

    /// Runs Algorithm 2 literally: build the padded set `x_p` (pad with
    /// uniformly chosen distinct dummies, or drop uniformly chosen items),
    /// then sample one element uniformly from `x_p`.
    ///
    /// `x` must contain distinct item indices (an item-*set*).
    pub fn pad_and_sample<R: Rng + ?Sized>(&self, x: &[usize], rng: &mut R) -> SampledItem {
        match self.sample_position(x.len(), rng) {
            SampledPosition::Real(pos) => SampledItem::Real(x[pos]),
            SampledPosition::Dummy(j) => SampledItem::Dummy(j),
        }
    }

    /// [`Self::pad_and_sample`] over the compact `u32` set representation
    /// used by datasets and the batched trait layer. Consumes randomness
    /// identically to the `usize` path.
    pub fn pad_and_sample_u32<R: Rng + ?Sized>(&self, x: &[u32], rng: &mut R) -> SampledItem {
        match self.sample_position(x.len(), rng) {
            SampledPosition::Real(pos) => SampledItem::Real(x[pos] as usize),
            SampledPosition::Dummy(j) => SampledItem::Dummy(j),
        }
    }

    /// Distribution-equivalent fast path: with probability `|x|/ℓ` sample a
    /// uniform real item, otherwise a uniform dummy (only when `|x| < ℓ`;
    /// for `|x| >= ℓ` a uniform real item). Avoids materializing the padded
    /// set; the equivalence with [`Self::pad_and_sample`] is asserted in
    /// tests.
    pub fn sample_fast<R: Rng + ?Sized>(&self, x: &[usize], rng: &mut R) -> SampledItem {
        let l = self.l;
        let k = x.len();
        if k >= l {
            return SampledItem::Real(x[rng.random_range(0..k)]);
        }
        if k > 0 && rng.random_range(0..l) < k {
            SampledItem::Real(x[rng.random_range(0..k)])
        } else {
            SampledItem::Dummy(rng.random_range(0..l))
        }
    }

    /// The paper's `η_x = |x| / max(|x|, ℓ)` — the probability that the
    /// sampled item is real.
    pub fn eta(&self, set_size: usize) -> f64 {
        set_size as f64 / set_size.max(self.l) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idldp_num::rng::SplitMix64;

    #[test]
    fn rejects_zero_length() {
        assert!(PaddingAndSampling::new(0).is_err());
        assert!(PaddingAndSampling::new(1).is_ok());
    }

    #[test]
    fn eta_definition() {
        let ps = PaddingAndSampling::new(3).unwrap();
        assert_eq!(ps.eta(0), 0.0);
        assert_eq!(ps.eta(1), 1.0 / 3.0);
        assert_eq!(ps.eta(3), 1.0);
        assert_eq!(ps.eta(7), 1.0);
    }

    #[test]
    fn empty_set_always_dummy() {
        let ps = PaddingAndSampling::new(4).unwrap();
        let mut rng = SplitMix64::new(1);
        for _ in 0..100 {
            match ps.pad_and_sample(&[], &mut rng) {
                SampledItem::Dummy(j) => assert!(j < 4),
                other => panic!("expected dummy, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_set_samples_uniformly() {
        let ps = PaddingAndSampling::new(2).unwrap();
        let x = [3usize, 7, 9, 11];
        let mut rng = SplitMix64::new(2);
        let trials = 40_000;
        let mut hist = std::collections::HashMap::new();
        for _ in 0..trials {
            match ps.pad_and_sample(&x, &mut rng) {
                SampledItem::Real(i) => *hist.entry(i).or_insert(0u32) += 1,
                SampledItem::Dummy(_) => panic!("oversized set must sample real items"),
            }
        }
        for &i in &x {
            let rate = hist[&i] as f64 / trials as f64;
            assert!((rate - 0.25).abs() < 0.01, "item {i} rate {rate}");
        }
    }

    #[test]
    fn undersized_set_real_probability_is_eta() {
        let ps = PaddingAndSampling::new(5).unwrap();
        let x = [1usize, 2];
        let mut rng = SplitMix64::new(3);
        let trials = 50_000;
        let mut real = 0u32;
        let mut dummy_hist = [0u32; 5];
        for _ in 0..trials {
            match ps.pad_and_sample(&x, &mut rng) {
                SampledItem::Real(i) => {
                    assert!(x.contains(&i));
                    real += 1;
                }
                SampledItem::Dummy(j) => dummy_hist[j] += 1,
            }
        }
        let real_rate = real as f64 / trials as f64;
        assert!((real_rate - 0.4).abs() < 0.01, "real rate {real_rate}");
        // Dummies are marginally uniform over S.
        for (j, &h) in dummy_hist.iter().enumerate() {
            let rate = h as f64 / trials as f64;
            assert!((rate - 0.6 / 5.0).abs() < 0.01, "dummy {j} rate {rate}");
        }
    }

    #[test]
    fn fast_path_matches_literal_path_distribution() {
        let ps = PaddingAndSampling::new(4).unwrap();
        let x = [10usize, 20, 30];
        let trials = 60_000;
        let mut r1 = SplitMix64::new(4);
        let mut r2 = SplitMix64::new(5);
        let mut h1 = std::collections::HashMap::new();
        let mut h2 = std::collections::HashMap::new();
        for _ in 0..trials {
            *h1.entry(ps.pad_and_sample(&x, &mut r1).encoded_index(100))
                .or_insert(0u32) += 1;
            *h2.entry(ps.sample_fast(&x, &mut r2).encoded_index(100))
                .or_insert(0u32) += 1;
        }
        // Compare per-outcome rates within Monte-Carlo tolerance.
        for key in h1.keys().chain(h2.keys()) {
            let p1 = *h1.get(key).unwrap_or(&0) as f64 / trials as f64;
            let p2 = *h2.get(key).unwrap_or(&0) as f64 / trials as f64;
            assert!((p1 - p2).abs() < 0.012, "outcome {key}: {p1} vs {p2}");
        }
    }

    #[test]
    fn encoded_index_layout() {
        assert_eq!(SampledItem::Real(3).encoded_index(10), 3);
        assert_eq!(SampledItem::Dummy(2).encoded_index(10), 12);
        assert!(matches!(SampledItem::Real(0), SampledItem::Real(_)));
        assert!(!matches!(SampledItem::Dummy(0), SampledItem::Real(_)));
    }

    #[test]
    fn exact_length_set_never_pads() {
        let ps = PaddingAndSampling::new(3).unwrap();
        let x = [5usize, 6, 7];
        let mut rng = SplitMix64::new(6);
        for _ in 0..200 {
            assert!(matches!(
                ps.pad_and_sample(&x, &mut rng),
                SampledItem::Real(_)
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Unified trait layer
// ---------------------------------------------------------------------------

use crate::estimator::FrequencyEstimator;
use crate::mechanism::{
    check_report_width, check_set_input, BatchMechanism, BitProfile, CountAccumulator,
    FrequencyOracle, Input, InputBatch, InputKind, Mechanism,
};
use crate::oracle::CalibratingOracle;
use crate::report::{ReportData, ReportShape};
use rand::RngCore;

/// Padding-and-Sampling as a standalone [`Mechanism`]: sample one (real or
/// dummy) item and report it *in the clear* as a one-hot vector over
/// `m + ℓ` buckets.
///
/// This is the paper's Algorithm 2 without a perturbation stage — useful as
/// the no-noise baseline in ablations (its reported
/// [`Mechanism::ldp_epsilon`] is infinite) and as the sampling harness the
/// composed [`crate::idue_ps::IduePs`] is validated against. The oracle
/// inverts only the known 1/ℓ sampling rate (`ĉ_i = ℓ · c_i`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PsMechanism {
    ps: PaddingAndSampling,
    m: usize,
}

impl PsMechanism {
    /// Creates the mechanism over an item domain of size `m >= 1` with
    /// padding length `l >= 1`.
    ///
    /// # Errors
    /// Returns an error if `m == 0` or `l == 0`.
    pub fn new(m: usize, l: usize) -> Result<Self> {
        if m == 0 {
            return Err(Error::Empty {
                what: "PS item domain".into(),
            });
        }
        Ok(Self {
            ps: PaddingAndSampling::new(l)?,
            m,
        })
    }

    /// The underlying sampling protocol.
    pub fn sampling(&self) -> &PaddingAndSampling {
        &self.ps
    }

    /// Padding length ℓ.
    pub fn padding_length(&self) -> usize {
        self.ps.padding_length()
    }
}

impl Mechanism for PsMechanism {
    fn kind(&self) -> &'static str {
        "ps"
    }

    fn domain_size(&self) -> usize {
        self.m
    }

    fn report_len(&self) -> usize {
        self.m + self.ps.padding_length()
    }

    fn input_kind(&self) -> InputKind {
        InputKind::Set
    }

    fn report_shape(&self) -> ReportShape {
        // One sampled (real or dummy) item in the clear: a categorical
        // value over the m + ℓ extended buckets.
        ReportShape::Value
    }

    fn perturb_into(
        &self,
        input: Input<'_>,
        rng: &mut dyn RngCore,
        report: &mut [u8],
    ) -> Result<()> {
        let set = check_set_input(input, self.m)?;
        check_report_width(report, self.report_len())?;
        let hot = self.ps.pad_and_sample_u32(set, rng).encoded_index(self.m);
        report.fill(0);
        report[hot] = 1;
        Ok(())
    }

    fn perturb_data(&self, input: Input<'_>, rng: &mut dyn RngCore) -> Result<ReportData> {
        let set = check_set_input(input, self.m)?;
        Ok(ReportData::Value(
            self.ps.pad_and_sample_u32(set, rng).encoded_index(self.m),
        ))
    }

    fn encode_hot(&self, input: Input<'_>, rng: &mut dyn RngCore) -> Result<usize> {
        let set = check_set_input(input, self.m)?;
        Ok(self.ps.pad_and_sample_u32(set, rng).encoded_index(self.m))
    }

    fn ldp_epsilon(&self) -> f64 {
        // Reports are unperturbed: no finite LDP budget.
        f64::INFINITY
    }

    fn frequency_oracle(&self, n: u64) -> Box<dyn FrequencyOracle> {
        // The identity bit channel (a = 1, b = 0) with scale ℓ: ĉ_i = ℓ·c_i.
        let l = self.ps.padding_length() as f64;
        let est = FrequencyEstimator::new(vec![1.0; self.m], vec![0.0; self.m], n, l)
            .expect("identity channel parameters are ordered");
        Box::new(CalibratingOracle::new(est, self.report_len()).expect("widths match"))
    }

    fn bit_profile(&self) -> Option<BitProfile> {
        let bits = self.report_len();
        Some(BitProfile {
            a: vec![1.0; bits],
            b: vec![0.0; bits],
        })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl BatchMechanism for PsMechanism {
    fn perturb_batch(
        &self,
        batch: InputBatch<'_>,
        rng: &mut dyn RngCore,
        acc: &mut CountAccumulator,
    ) -> Result<()> {
        let InputBatch::Sets(sets) = batch else {
            check_set_input(Input::Item(0), self.m)?;
            unreachable!("item inputs are rejected above");
        };
        if acc.counts().len() != self.report_len() {
            return Err(Error::DimensionMismatch {
                what: "batch accumulator".into(),
                expected: self.report_len(),
                actual: acc.counts().len(),
            });
        }
        for set in sets {
            let hot = self.encode_hot(Input::Set(set), rng)?;
            acc.add_bit(hot);
            acc.add_user();
        }
        Ok(())
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use idldp_num::rng::SplitMix64;

    #[test]
    fn ps_mechanism_reports_sampled_item_in_clear() {
        let mech = PsMechanism::new(5, 3).unwrap();
        assert_eq!(mech.report_len(), 8);
        let mut rng = SplitMix64::new(21);
        let set = [1u32, 4];
        for _ in 0..50 {
            let report = mech.perturb_report(Input::Set(&set), &mut rng).unwrap();
            assert_eq!(report.iter().map(|&b| b as u64).sum::<u64>(), 1);
            let hot = report.iter().position(|&b| b == 1).unwrap();
            // Hot is a set member or a dummy bucket.
            assert!(hot == 1 || hot == 4 || hot >= 5, "hot {hot}");
        }
    }

    #[test]
    fn ps_oracle_inverts_sampling_rate() {
        let mech = PsMechanism::new(3, 2).unwrap();
        let oracle = mech.frequency_oracle(100);
        // 30 samples of item 0 with ℓ = 2 → estimate 60 holders.
        let est = oracle.estimate(&[30, 10, 5, 40, 15]).unwrap();
        assert_eq!(est.len(), 3);
        assert!((est[0] - 60.0).abs() < 1e-12);
        assert!((est[1] - 20.0).abs() < 1e-12);
    }
}
