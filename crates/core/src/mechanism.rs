//! The unified mechanism trait layer.
//!
//! Every LDP protocol in this workspace — [`crate::grr`], [`crate::ue`],
//! [`crate::idue`], [`crate::ps`], [`crate::idue_ps`] and
//! [`crate::matrix_mech`] — implements the same three-trait contract:
//!
//! * [`Mechanism`] — the client side: perturb one input into a fixed-width
//!   report vector. Object-safe, so simulation runners, the CLI, and the
//!   bench harness all work with `dyn Mechanism` and adding a protocol never
//!   adds a `match` arm anywhere above `idldp-core`.
//! * [`BatchMechanism`] — perturb a whole slice of inputs with one RNG and
//!   one [`CountAccumulator`]. The default implementation loops
//!   [`Mechanism::perturb_into`] over a reused report buffer; GRR and the
//!   unary-encoding family override it with fast paths that hoist the
//!   probability lookups and skip the intermediate report buffer while
//!   drawing randomness in *exactly* the same order (batch ≡ loop, bit for
//!   bit — asserted by the conformance suite).
//! * [`FrequencyOracle`] — the server side: calibrate accumulated counts
//!   into unbiased frequency estimates and predict their MSE. Subsumes the
//!   concrete [`crate::estimator::FrequencyEstimator`], which backs the
//!   oracle of every unary-encoding mechanism.
//!
//! The split matches the paper's Fig. 2 pipeline: *encode → perturb*
//! (client, [`Mechanism`]) and *aggregate → calibrate* (server,
//! [`FrequencyOracle`]), with [`Mechanism::encode_hot`] and
//! [`Mechanism::bit_profile`] exposing the structure that the fast
//! aggregate simulation path exploits.

use crate::error::{Error, Result};
use crate::report::{PackedBits, ReportData, ReportShape};
use crate::snapshot::AccumulatorSnapshot;
use rand::RngCore;

/// One client's private input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input<'a> {
    /// A single item index in `0..domain_size`.
    Item(usize),
    /// A set of distinct item indices (stored as `u32`, matching
    /// `idldp-data`'s compact dataset layout).
    Set(&'a [u32]),
}

/// The input kind a mechanism accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputKind {
    /// Single-item inputs ([`Input::Item`]).
    Item,
    /// Item-set inputs ([`Input::Set`]).
    Set,
}

impl Input<'_> {
    /// The kind of this input.
    pub fn kind(&self) -> InputKind {
        match self {
            Input::Item(_) => InputKind::Item,
            Input::Set(_) => InputKind::Set,
        }
    }
}

/// A batch of client inputs, borrowing a dataset's storage.
#[derive(Clone, Copy, Debug)]
pub enum InputBatch<'a> {
    /// One item per user.
    Items(&'a [u32]),
    /// One set per user.
    Sets(&'a [Vec<u32>]),
}

impl InputBatch<'_> {
    /// Number of users in the batch.
    pub fn len(&self) -> usize {
        match self {
            InputBatch::Items(items) => items.len(),
            InputBatch::Sets(sets) => sets.len(),
        }
    }

    /// `true` if the batch has no users.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The input kind of the batch.
    pub fn kind(&self) -> InputKind {
        match self {
            InputBatch::Items(_) => InputKind::Item,
            InputBatch::Sets(_) => InputKind::Set,
        }
    }
}

/// Per-bit Bernoulli decomposition of a mechanism's report distribution:
/// bucket `i` of a report is 1 with probability `a[i]` when the encoded
/// input is hot at `i`, and `b[i]` otherwise.
///
/// Used by the aggregate simulation path to draw per-bucket counts as two
/// binomials instead of `n` per-user reports. For unary-encoding mechanisms
/// the decomposition is exact *jointly*; for categorical mechanisms (GRR,
/// matrix) it is exact *marginally* per bucket, which is sufficient for
/// every per-item statistic the experiments report (estimates, variances,
/// total MSE in expectation).
#[derive(Clone, Debug, PartialEq)]
pub struct BitProfile {
    /// `Pr[report[i] = 1 | hot at i]`.
    pub a: Vec<f64>,
    /// `Pr[report[i] = 1 | not hot at i]`.
    pub b: Vec<f64>,
}

/// Mergeable server-side accumulation state: per-bucket report counts.
///
/// The parallel simulation pipeline gives every worker chunk its own
/// accumulator and merges them in chunk order; counts are integers, so the
/// merged result is identical to a sequential run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountAccumulator {
    counts: Vec<u64>,
    users: u64,
}

impl CountAccumulator {
    /// An empty accumulator over `report_len` buckets.
    pub fn new(report_len: usize) -> Self {
        Self {
            counts: vec![0; report_len],
            users: 0,
        }
    }

    /// Adds one report (0/1 per bucket).
    ///
    /// # Errors
    /// Returns an error if the report length differs from the accumulator
    /// width (the same typed contract as the streaming
    /// `ReportAccumulator::accumulate_batch` in `idldp-stream`); nothing is
    /// counted on failure.
    pub fn accumulate_report(&mut self, report: &[u8]) -> Result<()> {
        if report.len() != self.counts.len() {
            return Err(Error::DimensionMismatch {
                what: "accumulated report width".into(),
                expected: self.counts.len(),
                actual: report.len(),
            });
        }
        for (c, &bit) in self.counts.iter_mut().zip(report) {
            *c += u64::from(bit);
        }
        self.users += 1;
        Ok(())
    }

    /// Direct bucket increment plus user count — for batch fast paths that
    /// bypass report buffers. Callers must pair every simulated user with
    /// exactly one [`Self::add_user`] call.
    #[inline]
    pub fn add_bit(&mut self, bucket: usize) {
        self.counts[bucket] += 1;
    }

    /// Records that one more user's report has been absorbed.
    #[inline]
    pub fn add_user(&mut self) {
        self.users += 1;
    }

    /// Merges another accumulator (the parallel reduce step).
    ///
    /// # Panics
    /// Panics if the widths differ.
    pub fn merge(&mut self, other: &CountAccumulator) {
        assert_eq!(
            other.counts.len(),
            self.counts.len(),
            "accumulator width mismatch"
        );
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.users += other.users;
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Mutable view of the per-bucket counts — the spill target for
    /// batched fold engines ([`crate::fold`]) that add word-packed lanes
    /// directly instead of going through per-report folds. Callers must
    /// pair every counted report with [`Self::add_user`] /
    /// [`Self::add_users`], exactly as with [`Self::add_bit`].
    #[inline]
    pub fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.counts
    }

    /// Records `n` more users in one step (the batched sibling of
    /// [`Self::add_user`]).
    #[inline]
    pub fn add_users(&mut self, n: u64) {
        self.users += n;
    }

    /// Freezes the current state into an [`AccumulatorSnapshot`] (the input
    /// of the incremental oracle path,
    /// [`FrequencyOracle::estimate_from`]).
    ///
    /// # Panics
    /// Panics if the accumulator has zero width (unconstructible through
    /// any mechanism, whose report widths are validated positive).
    pub fn snapshot(&self) -> AccumulatorSnapshot {
        AccumulatorSnapshot::new(self.counts.clone(), self.users)
            .expect("accumulators have positive width")
    }

    /// Rebuilds an accumulator from checkpointed state, so a restarted
    /// aggregation service resumes counting where it left off. The
    /// snapshot's count vector becomes the accumulator's, uncopied.
    pub fn from_snapshot(snapshot: AccumulatorSnapshot) -> Self {
        let users = snapshot.num_users();
        Self {
            counts: snapshot.into_counts(),
            users,
        }
    }

    /// Consumes the accumulator, returning the counts.
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
    }

    /// Number of users accumulated.
    pub fn num_users(&self) -> u64 {
        self.users
    }
}

/// The client side of an LDP protocol: perturb one input into a report.
///
/// Object safety is deliberate — everything above `idldp-core` dispatches
/// through `&dyn Mechanism` / `Box<dyn BatchMechanism>`, so a new protocol
/// is one `impl` plus one registry entry.
pub trait Mechanism: Send + Sync {
    /// Short stable kind name (`"grr"`, `"idue"`, …) for diagnostics and
    /// registry lookups.
    fn kind(&self) -> &'static str;

    /// Size of the *item* domain `m` (estimates are produced for these).
    fn domain_size(&self) -> usize;

    /// Width of one report vector (`m` for single-item UE mechanisms,
    /// `m + ℓ` for PS-extended ones, `m` one-hot for categorical ones).
    fn report_len(&self) -> usize;

    /// Which input kind this mechanism perturbs.
    fn input_kind(&self) -> InputKind;

    /// The wire shape this mechanism's reports take (see
    /// [`crate::report::ReportShape`]). Defaults to the 0/1 bit vector of
    /// width [`Self::report_len`]; compact-shape mechanisms (categorical,
    /// hashed, item-set) override it so servers can pick the matching
    /// accumulator without a per-mechanism `match`.
    fn report_shape(&self) -> ReportShape {
        ReportShape::Bits
    }

    /// Perturbs `input`, writing the 0/1 report into `report`
    /// (length [`Self::report_len`]; every slot is overwritten).
    ///
    /// # Errors
    /// Returns an error on an input of the wrong kind or out of domain, or
    /// if `report` has the wrong width.
    fn perturb_into(
        &self,
        input: Input<'_>,
        rng: &mut dyn RngCore,
        report: &mut [u8],
    ) -> Result<()>;

    /// The *encoding* stage alone: the report bucket that is "hot" for this
    /// input before perturbation. Deterministic for single-item mechanisms;
    /// consumes randomness for sampling-based ones (PS).
    ///
    /// # Errors
    /// Same conditions as [`Self::perturb_into`].
    fn encode_hot(&self, input: Input<'_>, rng: &mut dyn RngCore) -> Result<usize>;

    /// The tightest plain-LDP budget the mechanism satisfies
    /// (`f64::INFINITY` for non-private building blocks such as bare PS).
    fn ldp_epsilon(&self) -> f64;

    /// The matching server-side oracle for `n` users.
    fn frequency_oracle(&self, n: u64) -> Box<dyn FrequencyOracle>;

    /// Per-bucket Bernoulli decomposition, when one exists (see
    /// [`BitProfile`]). Enables the `O(n + m)` aggregate simulation path.
    fn bit_profile(&self) -> Option<BitProfile> {
        None
    }

    /// The shape-aware emission path: perturbs `input` into an owned
    /// [`ReportData`] in the mechanism's native wire shape
    /// ([`Self::report_shape`]).
    ///
    /// Implementations **must** consume randomness exactly like
    /// [`Self::perturb_into`] (same draws, same order), so that a stream
    /// emitting native-shape reports and a batch run folding bit vectors
    /// produce identical counts per seed — the streaming conformance suite
    /// holds every mechanism to this. The default covers bit-shaped
    /// mechanisms by packing `perturb_into`'s buffer (the same draws, so
    /// the same report); `perturb_into` remains the zero-alloc fast path
    /// for callers with a reusable buffer.
    ///
    /// # Errors
    /// Same conditions as [`Self::perturb_into`].
    fn perturb_data(&self, input: Input<'_>, rng: &mut dyn RngCore) -> Result<ReportData> {
        let mut report = vec![0u8; self.report_len()];
        self.perturb_into(input, rng, &mut report)?;
        Ok(ReportData::Bits(PackedBits::from_slots(&report)?))
    }

    /// Convenience: perturb into a freshly allocated report.
    ///
    /// (Named `perturb_report` so it never shadows the mechanisms' inherent
    /// `perturb` methods, which keep their historical typed signatures.)
    ///
    /// # Errors
    /// Same conditions as [`Self::perturb_into`].
    fn perturb_report(&self, input: Input<'_>, rng: &mut dyn RngCore) -> Result<Vec<u8>> {
        let mut report = vec![0u8; self.report_len()];
        self.perturb_into(input, rng, &mut report)?;
        Ok(report)
    }

    /// Upcast helper for callers that need the concrete type back (tests,
    /// typed builders).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Batched perturbation: a slice of users, one RNG, one accumulator.
///
/// Implementations **must** consume randomness exactly as the default loop
/// would (same draws, same order) so that chunked simulation results are
/// independent of whether a fast path was taken — the conformance suite
/// asserts `batch == loop` bit-for-bit for every mechanism.
pub trait BatchMechanism: Mechanism {
    /// Perturbs every input in `batch`, accumulating reports into `acc`.
    ///
    /// # Errors
    /// Returns the first per-input error encountered.
    fn perturb_batch(
        &self,
        batch: InputBatch<'_>,
        rng: &mut dyn RngCore,
        acc: &mut CountAccumulator,
    ) -> Result<()> {
        let mut report = vec![0u8; self.report_len()];
        match batch {
            InputBatch::Items(items) => {
                for &item in items {
                    self.perturb_into(Input::Item(item as usize), rng, &mut report)?;
                    acc.accumulate_report(&report)?;
                }
            }
            InputBatch::Sets(sets) => {
                for set in sets {
                    self.perturb_into(Input::Set(set), rng, &mut report)?;
                    acc.accumulate_report(&report)?;
                }
            }
        }
        Ok(())
    }
}

/// The server side of an LDP protocol: calibrate accumulated counts into
/// unbiased frequency estimates and predict their error.
pub trait FrequencyOracle: Send + Sync {
    /// Width of the count vectors this oracle consumes (the mechanism's
    /// [`Mechanism::report_len`]).
    fn report_len(&self) -> usize;

    /// Number of item estimates produced (the mechanism's
    /// [`Mechanism::domain_size`]).
    fn domain_size(&self) -> usize;

    /// Unbiased frequency estimates from accumulated per-bucket counts
    /// (length [`Self::report_len`]; PS-extended oracles ignore the dummy
    /// buckets).
    ///
    /// # Errors
    /// Returns an error if `counts` has the wrong width.
    fn estimate(&self, counts: &[u64]) -> Result<Vec<f64>>;

    /// Theoretical total MSE (= total variance, by unbiasedness) given the
    /// expected *hot counts* of the first [`Self::domain_size`] buckets.
    ///
    /// # Errors
    /// Returns an error if `expected_hot` has the wrong width.
    fn theoretical_total_mse(&self, expected_hot: &[f64]) -> Result<f64>;

    /// The incremental path: estimates straight from frozen accumulator
    /// state, without ever materializing individual reports.
    ///
    /// Streaming aggregation periodically freezes its sharded accumulators
    /// into an [`AccumulatorSnapshot`] and calls this to serve estimates
    /// mid-stream. Oracles that bake the population size into their
    /// calibration (every [`crate::oracle::CalibratingOracle`]) must be
    /// constructed for the snapshot's user count — i.e. obtain the oracle
    /// from [`Mechanism::frequency_oracle`]`(snapshot.num_users())` at each
    /// emission; construction is cheap relative to estimation.
    ///
    /// # Errors
    /// Returns an error if the snapshot width differs from
    /// [`Self::report_len`].
    fn estimate_from(&self, snapshot: &AccumulatorSnapshot) -> Result<Vec<f64>> {
        self.estimate(snapshot.counts())
    }
}

/// Checks an [`Input`] against a mechanism's kind/domain, returning the
/// canonical error. Shared by the trait impls.
pub(crate) fn check_item_input(input: Input<'_>, m: usize) -> Result<usize> {
    match input {
        Input::Item(item) if item < m => Ok(item),
        Input::Item(item) => Err(Error::IndexOutOfRange {
            what: "mechanism input item".into(),
            index: item,
            bound: m,
        }),
        Input::Set(_) => Err(Error::DimensionMismatch {
            what: "input kind (mechanism takes single items, got a set)".into(),
            expected: 1,
            actual: 0,
        }),
    }
}

/// Checks a set-valued [`Input`] against the item domain.
pub(crate) fn check_set_input<'a>(input: Input<'a>, m: usize) -> Result<&'a [u32]> {
    match input {
        Input::Set(set) => {
            for &item in set {
                if item as usize >= m {
                    return Err(Error::IndexOutOfRange {
                        what: "mechanism input set item".into(),
                        index: item as usize,
                        bound: m,
                    });
                }
            }
            Ok(set)
        }
        Input::Item(_) => Err(Error::DimensionMismatch {
            what: "input kind (mechanism takes item sets, got a single item)".into(),
            expected: 0,
            actual: 1,
        }),
    }
}

/// Checks a report buffer width.
pub(crate) fn check_report_width(report: &[u8], expected: usize) -> Result<()> {
    if report.len() != expected {
        return Err(Error::DimensionMismatch {
            what: "report buffer".into(),
            expected,
            actual: report.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_merge_equals_sequential() {
        let mut a = CountAccumulator::new(3);
        let mut b = CountAccumulator::new(3);
        let mut whole = CountAccumulator::new(3);
        for (i, report) in [[1u8, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]]
            .iter()
            .enumerate()
        {
            if i < 2 {
                a.accumulate_report(report).unwrap();
            } else {
                b.accumulate_report(report).unwrap();
            }
            whole.accumulate_report(report).unwrap();
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.num_users(), 4);
        assert_eq!(a.counts(), &[2, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn accumulator_rejects_mismatched_merge() {
        let mut a = CountAccumulator::new(3);
        a.merge(&CountAccumulator::new(4));
    }

    #[test]
    fn accumulator_rejects_mismatched_report() {
        let mut a = CountAccumulator::new(3);
        assert!(a.accumulate_report(&[1, 0]).is_err());
        assert!(a.accumulate_report(&[1, 0, 1, 0]).is_err());
        assert_eq!(a.num_users(), 0, "failed accumulations count nothing");
        a.accumulate_report(&[1, 0, 1]).unwrap();
        assert_eq!(a.num_users(), 1);
    }

    #[test]
    fn input_batch_shapes() {
        let items = [1u32, 2, 3];
        let batch = InputBatch::Items(&items);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(batch.kind(), InputKind::Item);
        let sets = vec![vec![1u32], vec![]];
        let batch = InputBatch::Sets(&sets);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.kind(), InputKind::Set);
        assert_eq!(Input::Item(0).kind(), InputKind::Item);
        assert_eq!(Input::Set(&[]).kind(), InputKind::Set);
    }

    #[test]
    fn input_checks() {
        assert_eq!(check_item_input(Input::Item(2), 5).unwrap(), 2);
        assert!(check_item_input(Input::Item(5), 5).is_err());
        assert!(check_item_input(Input::Set(&[]), 5).is_err());
        assert_eq!(check_set_input(Input::Set(&[0, 4]), 5).unwrap(), &[0, 4]);
        assert!(check_set_input(Input::Set(&[5]), 5).is_err());
        assert!(check_set_input(Input::Item(0), 5).is_err());
        assert!(check_report_width(&[0; 3], 3).is_ok());
        assert!(check_report_width(&[0; 2], 3).is_err());
    }
}
