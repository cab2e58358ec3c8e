//! Mergeable per-shard accumulation state for every report shape.
//!
//! A streaming server never stores reports; each arriving batch of reports
//! (one transport frame, one stream chunk) is folded into an accumulator
//! immediately. The [`ReportAccumulator`] trait is the contract that makes
//! this shardable: accumulation is per-shard local state (`Send`), shards
//! [`ReportAccumulator::merge_from`] exactly (integer counts — no floating
//! point, no order dependence), and a frozen [`AccumulatorSnapshot`] of the
//! merged state feeds the incremental oracle path
//! ([`idldp_core::mechanism::FrequencyOracle::estimate_from`]).
//!
//! Every accumulator is one fold over one count state. The fold is the
//! only part each shape writes: one body per shape, over the shape's
//! primitives (values, `(seed, value)` pairs, bit rows as little-endian
//! words, item-set members). Two entries feed it:
//! [`ReportAccumulator::accumulate_batch`] takes borrowed [`Report`]s (the
//! batch pipeline, the CLI, replay benchmarks) and
//! [`ReportAccumulator::accumulate_checked`] takes a batch the collector
//! admitted ([`CheckedReports`]) and reads it straight from its wire
//! bytes. The count state is the core [`CountAccumulator`], and the
//! trait's provided methods (width, users, merge, snapshot, restore) are
//! written once over it. How reports are grouped into batches never
//! changes the counts: the stream property suite checks every shape's
//! batched fold against the core reference fold
//! ([`idldp_core::report::Report::fold_into`]) for any split.
//!
//! Reports arrive as [`idldp_core::report::Report`] in any of the four wire
//! shapes; one accumulator exists per shape, and [`ShapedAccumulator`]
//! dispatches on [`idldp_core::report::ReportShape`] so servers stay free
//! of per-mechanism `match`es:
//!
//! * [`BitReportAccumulator`] — 0/1 bit-vector reports, the shape of the
//!   unary-encoding family (UE/RAPPOR/OUE, IDUE, and the PS-extended
//!   IDUE-PS/PS over `m + ℓ` buckets).
//! * [`OneHotReportAccumulator`] — categorical reports that are a single
//!   value in `0..report_len`: GRR's value reports and the one-hot rows of
//!   a [`idldp_core::matrix_mech::PerturbationMatrix`] mechanism.
//! * [`HashedReportAccumulator`] — OLH-style `(seed, value)` reports,
//!   folded over the item domain through the shared
//!   [`idldp_core::report::hash_bucket`] — the *server half* of the hash
//!   protocol, so client and server agree on the mapping by construction.
//! * [`ItemSetReportAccumulator`] — subset-selection reports: a small set
//!   of distinct items, each incrementing its own bucket.
//!
//! Each accumulator folds only its own shape, and each report is checked
//! once. [`ReportAccumulator::accumulate_batch`] validates its reports
//! with the core [`validate`] against [`ReportAccumulator::shape`] and
//! then folds. [`ReportAccumulator::accumulate_checked`] validates
//! nothing: [`CheckedReports::check`] applied the same rules when the
//! collector admitted the frame, and the fold only confirms the batch was
//! checked against this accumulator's shape and width. A report of
//! another shape, a packed bit report included, is refused: the batch
//! pipeline folds the *folded* bit-vector form
//! ([`idldp_core::mechanism::Mechanism::perturb_into`]) through the core
//! [`CountAccumulator`], not through these accumulators.

use idldp_core::error::{Error, Result};
use idldp_core::fold::{BitPlanes, HashedFold, SeedPreimageCache};
use idldp_core::mechanism::CountAccumulator;
use idldp_core::report::{validate, CheckedReports, ReportShape};
use idldp_core::snapshot::AccumulatorSnapshot;

pub use idldp_core::report::Report;

/// Mergeable, shard-local report accumulation state: one fold over one
/// count state.
///
/// An implementation supplies its [`Self::shape`], its count state and its
/// fold, [`Self::accumulate_batch`]; everything else is provided here
/// once. The *exact-merge law* follows: for any partition of a report
/// multiset across accumulators, any batching of each part, and any merge
/// tree over them, the merged counts equal the reference fold of every
/// report. (Counts are integers; the property test suite checks this for
/// streams generated by all eight mechanisms, in every wire shape.)
///
/// # Examples
/// ```
/// use idldp_core::report::PackedBits;
/// use idldp_stream::{BitReportAccumulator, Report, ReportAccumulator};
///
/// let packed = |slots: &[u8]| PackedBits::from_slots(slots).unwrap();
/// let (a, b, c) = (packed(&[1, 0, 1]), packed(&[0, 1, 1]), packed(&[1, 1, 0]));
/// let mut shard_a = BitReportAccumulator::new(3);
/// let mut shard_b = BitReportAccumulator::new(3);
/// shard_a.accumulate_batch(&[Report::Packed(&a)]).unwrap();
/// shard_b.accumulate_batch(&[Report::Packed(&b), Report::Packed(&c)]).unwrap();
///
/// // Shards merge exactly, regardless of how reports were distributed.
/// shard_a.merge_from(&shard_b).unwrap();
/// let snapshot = shard_a.snapshot();
/// assert_eq!(snapshot.counts(), &[2, 2, 2]);
/// assert_eq!(snapshot.num_users(), 3);
/// ```
pub trait ReportAccumulator: Send {
    /// The wire shape this accumulator folds, hash range and pinned
    /// cardinality included. Only accumulators of one shape merge.
    fn shape(&self) -> ReportShape;

    /// The folded per-bucket counts and user total.
    fn count_state(&self) -> &CountAccumulator;

    /// Mutable access to the count state, for the provided merge and
    /// restore steps. Counts changed through it bypass report validation.
    fn count_state_mut(&mut self) -> &mut CountAccumulator;

    /// Folds a whole batch of reports (one stream chunk; a single report
    /// is a one-element batch) through the accumulator's fold body.
    ///
    /// Atomic: the batch opens with the core [`validate`] against
    /// [`Self::shape`], before any bucket moves, so a batch containing any
    /// invalid report counts nothing. The counts after a successful call
    /// equal the core reference fold ([`Report::fold_into`]) of the same
    /// reports, for every way of splitting a stream into batches (the
    /// batched fold engine in [`idldp_core::fold`] is pure integer
    /// arithmetic).
    ///
    /// # Errors
    /// The first malformed report's [`validate`] error: the wrong shape for
    /// this accumulator, the wrong width, or an out-of-range value.
    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()>;

    /// Folds a batch the collector admitted ([`CheckedReports::check`],
    /// one `Reports` frame or its accepted prefix) straight from its wire
    /// bytes, through the same fold body as [`Self::accumulate_batch`].
    /// No report is checked again: the batch type can only hold reports
    /// that passed [`validate`]'s rules. The counts equal
    /// [`Self::accumulate_batch`] of the decoded reports.
    ///
    /// # Errors
    /// The batch was checked against another shape or width than this
    /// accumulator's; nothing is counted.
    fn accumulate_checked(&mut self, batch: &CheckedReports) -> Result<()>;

    /// Width of the folded count state (the mechanism's
    /// [`idldp_core::mechanism::Mechanism::report_len`]).
    fn report_len(&self) -> usize {
        self.count_state().counts().len()
    }

    /// Number of reports absorbed so far.
    fn num_users(&self) -> u64 {
        self.count_state().num_users()
    }

    /// Adds another accumulator's state (the shard-merge step).
    ///
    /// # Errors
    /// Returns an error if the shapes or the widths differ.
    fn merge_from(&mut self, other: &Self) -> Result<()>
    where
        Self: Sized,
    {
        if self.shape() != other.shape() {
            return Err(Error::ParameterOrdering {
                detail: format!(
                    "cannot merge accumulators of different shapes ({:?} vs {:?})",
                    self.shape(),
                    other.shape()
                ),
            });
        }
        check_width(
            "accumulator merge width",
            self.report_len(),
            other.report_len(),
        )?;
        self.count_state_mut().merge(other.count_state());
        Ok(())
    }

    /// Freezes the current counts into a snapshot for estimation or
    /// checkpointing.
    fn snapshot(&self) -> AccumulatorSnapshot {
        self.count_state().snapshot()
    }

    /// Replaces the state with checkpointed counts (restart recovery).
    /// The snapshot's count vector becomes this accumulator's row as it
    /// is, so a restore copies no counts.
    ///
    /// # Errors
    /// Returns an error if the snapshot width differs from
    /// [`Self::report_len`].
    fn restore(&mut self, snapshot: AccumulatorSnapshot) -> Result<()> {
        check_width(
            "restored snapshot width",
            self.report_len(),
            snapshot.report_len(),
        )?;
        *self.count_state_mut() = CountAccumulator::from_snapshot(snapshot);
        Ok(())
    }
}

fn check_width(what: &str, expected: usize, actual: usize) -> Result<()> {
    if expected != actual {
        return Err(Error::DimensionMismatch {
            what: what.into(),
            expected,
            actual,
        });
    }
    Ok(())
}

/// Accumulator for 0/1 bit-vector reports (the UE/IDUE/IDUE-PS shape).
///
/// Thin streaming wrapper over the core
/// [`CountAccumulator`], which the batch pipeline uses for the same
/// merge-exact accumulation — both paths therefore count identically by
/// construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitReportAccumulator {
    inner: CountAccumulator,
}

impl BitReportAccumulator {
    /// An empty accumulator over `report_len` buckets.
    ///
    /// # Panics
    /// Panics if `report_len == 0`.
    pub fn new(report_len: usize) -> Self {
        assert!(report_len > 0, "report width must be positive");
        Self {
            inner: CountAccumulator::new(report_len),
        }
    }
}

impl From<CountAccumulator> for BitReportAccumulator {
    /// Adopts batch-accumulated counts as streaming shard state (the batch
    /// pipeline's bridge into the sharded layer).
    fn from(inner: CountAccumulator) -> Self {
        Self { inner }
    }
}

impl ReportAccumulator for BitReportAccumulator {
    fn shape(&self) -> ReportShape {
        ReportShape::Bits
    }

    fn count_state(&self) -> &CountAccumulator {
        &self.inner
    }

    fn count_state_mut(&mut self) -> &mut CountAccumulator {
        &mut self.inner
    }

    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        validate(self.shape(), self.report_len(), reports.iter().copied())?;
        self.fold(reports.iter().filter_map(|report| match report {
            Report::Packed(bits) => Some(bits.words().iter().copied()),
            _ => None,
        }));
        Ok(())
    }

    fn accumulate_checked(&mut self, batch: &CheckedReports) -> Result<()> {
        self.fold(batch.bit_rows(self.report_len())?);
        Ok(())
    }
}

impl BitReportAccumulator {
    /// The fold body, one user per row: each row's words are
    /// carry-save-added into SWAR bit-planes, which spill into the counts.
    fn fold<W: IntoIterator<Item = u64>>(&mut self, rows: impl Iterator<Item = W>) {
        let mut planes = BitPlanes::new(self.report_len());
        let counts = self.inner.counts_mut();
        let mut users = 0u64;
        for row in rows {
            planes.add_words(row, counts);
            users += 1;
        }
        planes.spill_into(counts);
        self.inner.add_users(users);
    }
}

/// Accumulator for categorical (one-hot) reports: GRR value reports,
/// matrix-mechanism rows, and PS's sampled item.
///
/// Folds [`Report::Value`] reports only, each incrementing its bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OneHotReportAccumulator {
    inner: CountAccumulator,
}

impl OneHotReportAccumulator {
    /// An empty accumulator over `report_len` categories.
    ///
    /// # Panics
    /// Panics if `report_len == 0`.
    pub fn new(report_len: usize) -> Self {
        assert!(report_len > 0, "report width must be positive");
        Self {
            inner: CountAccumulator::new(report_len),
        }
    }
}

impl ReportAccumulator for OneHotReportAccumulator {
    fn shape(&self) -> ReportShape {
        ReportShape::Value
    }

    fn count_state(&self) -> &CountAccumulator {
        &self.inner
    }

    fn count_state_mut(&mut self) -> &mut CountAccumulator {
        &mut self.inner
    }

    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        validate(self.shape(), self.report_len(), reports.iter().copied())?;
        self.fold(reports.iter().filter_map(|report| match *report {
            Report::Value(v) => Some(v),
            _ => None,
        }));
        Ok(())
    }

    fn accumulate_checked(&mut self, batch: &CheckedReports) -> Result<()> {
        self.fold(batch.values(self.report_len())?);
        Ok(())
    }
}

impl OneHotReportAccumulator {
    /// The fold body, one user per value: each value increments its
    /// bucket.
    fn fold(&mut self, values: impl Iterator<Item = usize>) {
        let mut users = 0u64;
        for v in values {
            self.inner.add_bit(v);
            users += 1;
        }
        self.inner.add_users(users);
    }
}

/// Accumulator for hashed `(seed, value)` reports (the OLH wire shape).
///
/// The server half of the hash protocol: each report increments every item
/// `v` whose [`idldp_core::report::hash_bucket`]`(seed, v, range)` equals
/// the reported value — the same shared hash the client encoded with,
/// through the one [`HashedFold`] kernel, which counts a whole batch item
/// group by item group. Folds [`Report::Hashed`] reports only.
///
/// The fold never consults the [`SeedPreimageCache`] the accumulator
/// still holds: clients draw a fresh seed per report, so real traffic
/// never repeats a pair. The cache stays empty, its counters read zero,
/// and it is kept only because the service benchmark reports them; it is
/// excluded from equality.
#[derive(Clone, Debug)]
pub struct HashedReportAccumulator {
    inner: CountAccumulator,
    range: usize,
    cache: SeedPreimageCache,
}

impl PartialEq for HashedReportAccumulator {
    fn eq(&self, other: &Self) -> bool {
        // The preimage cache holds no counts; equality is counts + range.
        self.inner == other.inner && self.range == other.range
    }
}

impl Eq for HashedReportAccumulator {}

impl HashedReportAccumulator {
    /// An empty accumulator over `report_len` items for hashed reports with
    /// values in `0..range`.
    ///
    /// # Panics
    /// Panics if `report_len == 0` or `range < 2`.
    pub fn new(report_len: usize, range: usize) -> Self {
        assert!(report_len > 0, "report width must be positive");
        assert!(range >= 2, "hash range must have at least two buckets");
        Self {
            inner: CountAccumulator::new(report_len),
            range,
            cache: SeedPreimageCache::new(report_len, range),
        }
    }

    /// The hash range `g` reported values must lie in.
    pub fn hash_range(&self) -> usize {
        self.range
    }

    /// The seed-preimage cache this accumulator holds. The fold never
    /// consults it, so its hit and miss counters stay zero.
    pub fn preimage_cache(&self) -> &SeedPreimageCache {
        &self.cache
    }
}

impl ReportAccumulator for HashedReportAccumulator {
    fn shape(&self) -> ReportShape {
        ReportShape::Hashed { range: self.range }
    }

    fn count_state(&self) -> &CountAccumulator {
        &self.inner
    }

    fn count_state_mut(&mut self) -> &mut CountAccumulator {
        &mut self.inner
    }

    /// Item-major batch fold: [`HashedFold`] counts the batch's
    /// `(seed, value)` pairs in [`idldp_core::fold::TILE`]-pair tiles,
    /// each item group's counters held in registers across a tile. The
    /// counts are exactly what the scalar hash fold would increment.
    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        validate(self.shape(), self.report_len(), reports.iter().copied())?;
        self.fold(reports.iter().filter_map(|report| match *report {
            Report::Hashed { seed, value } => Some((seed, value)),
            _ => None,
        }));
        Ok(())
    }

    fn accumulate_checked(&mut self, batch: &CheckedReports) -> Result<()> {
        self.fold(batch.hashed_pairs(self.range, self.report_len())?);
        Ok(())
    }
}

impl HashedReportAccumulator {
    /// The fold body, one user per pair: the batch's pairs gathered into
    /// one slice for [`HashedFold::count_into`].
    fn fold(&mut self, pairs: impl Iterator<Item = (u64, usize)>) {
        let pairs: Vec<(u64, usize)> = pairs.collect();
        HashedFold::new(self.range).count_into(&pairs, self.inner.counts_mut());
        self.inner.add_users(pairs.len() as u64);
    }
}

/// Accumulator for item-set reports (the subset-selection wire shape).
///
/// Each [`Report::ItemSet`] report is a small set of distinct items; every
/// member increments its own bucket and the report counts as one user.
///
/// When built with [`ItemSetReportAccumulator::with_cardinality`] the
/// accumulator pins the exact set size `k` the mechanism emits
/// ([`ReportShape::ItemSet`]'s `k` field) and refuses sets of any other
/// size — a wrong-sized set folds cleanly but biases the subset-selection
/// estimator's `(p, (k - p) / (m - 1))` calibration, so the server
/// rejects it at the door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemSetReportAccumulator {
    inner: CountAccumulator,
    /// Pinned set cardinality, or `0` when unchecked.
    k: usize,
}

impl ItemSetReportAccumulator {
    /// An empty accumulator over `report_len` items, accepting any set
    /// cardinality.
    ///
    /// # Panics
    /// Panics if `report_len == 0`.
    pub fn new(report_len: usize) -> Self {
        Self::with_cardinality(report_len, 0)
    }

    /// An empty accumulator over `report_len` items that refuses item sets
    /// whose size differs from `k` (`k == 0` leaves the cardinality
    /// unchecked).
    ///
    /// # Panics
    /// Panics if `report_len == 0` or `k >= report_len`.
    pub fn with_cardinality(report_len: usize, k: usize) -> Self {
        assert!(report_len > 0, "report width must be positive");
        assert!(
            k < report_len,
            "pinned cardinality must leave room for exclusion (k < m)"
        );
        Self {
            inner: CountAccumulator::new(report_len),
            k,
        }
    }

    /// The pinned set cardinality, or `0` when any size is accepted.
    pub fn cardinality(&self) -> usize {
        self.k
    }
}

impl ReportAccumulator for ItemSetReportAccumulator {
    fn shape(&self) -> ReportShape {
        ReportShape::ItemSet { k: self.k }
    }

    fn count_state(&self) -> &CountAccumulator {
        &self.inner
    }

    fn count_state_mut(&mut self) -> &mut CountAccumulator {
        &mut self.inner
    }

    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        validate(self.shape(), self.report_len(), reports.iter().copied())?;
        self.fold(reports.iter().filter_map(|report| match *report {
            Report::ItemSet(items) => Some(items.iter().copied()),
            _ => None,
        }));
        Ok(())
    }

    fn accumulate_checked(&mut self, batch: &CheckedReports) -> Result<()> {
        self.fold(batch.item_sets(self.k, self.report_len())?);
        Ok(())
    }
}

impl ItemSetReportAccumulator {
    /// The fold body, one user per set: every member increments its own
    /// bucket.
    fn fold<S: IntoIterator<Item = usize>>(&mut self, sets: impl Iterator<Item = S>) {
        let counts = self.inner.counts_mut();
        let mut users = 0u64;
        for set in sets {
            for item in set {
                counts[item] += 1;
            }
            users += 1;
        }
        self.inner.add_users(users);
    }
}

/// Shape-dispatching accumulator: wraps the matching shape-specific
/// accumulator for any [`ReportShape`], so servers (the CLI's `ingest`, an
/// ingestion service) pick their sink from
/// [`idldp_core::mechanism::Mechanism::report_shape`] without a
/// per-mechanism `match`.
///
/// # Examples
/// ```
/// use idldp_core::budget::Epsilon;
/// use idldp_core::mechanism::Mechanism;
/// use idldp_core::olh::OptimalLocalHashing;
/// use idldp_stream::{Report, ReportAccumulator, ShapedAccumulator};
///
/// let olh = OptimalLocalHashing::new(Epsilon::new(1.0).unwrap(), 16).unwrap();
/// let mut acc = ShapedAccumulator::for_mechanism(&olh);
/// acc.accumulate_batch(&[Report::Hashed { seed: 7, value: 1 }, Report::Hashed { seed: 8, value: 0 }])
///     .unwrap();
/// assert_eq!(acc.num_users(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShapedAccumulator {
    /// Bit-vector reports ([`ReportShape::Bits`]).
    Bits(BitReportAccumulator),
    /// Categorical reports ([`ReportShape::Value`]).
    Value(OneHotReportAccumulator),
    /// Hashed reports ([`ReportShape::Hashed`]).
    Hashed(HashedReportAccumulator),
    /// Item-set reports ([`ReportShape::ItemSet`]).
    ItemSet(ItemSetReportAccumulator),
}

impl ShapedAccumulator {
    /// The accumulator matching `shape` over `report_len` buckets.
    ///
    /// A pinned [`ReportShape::ItemSet`] cardinality carries through: the
    /// item-set accumulator then refuses wrong-sized sets.
    ///
    /// # Panics
    /// Panics if `report_len == 0`, a hashed shape has `range < 2`, or an
    /// item-set shape has `k >= report_len`.
    pub fn for_shape(shape: ReportShape, report_len: usize) -> Self {
        match shape {
            ReportShape::Bits => Self::Bits(BitReportAccumulator::new(report_len)),
            ReportShape::Value => Self::Value(OneHotReportAccumulator::new(report_len)),
            ReportShape::Hashed { range } => {
                Self::Hashed(HashedReportAccumulator::new(report_len, range))
            }
            ReportShape::ItemSet { k } => {
                Self::ItemSet(ItemSetReportAccumulator::with_cardinality(report_len, k))
            }
        }
    }

    /// The accumulator matching a mechanism's declared shape and width.
    pub fn for_mechanism(mechanism: &dyn idldp_core::mechanism::Mechanism) -> Self {
        Self::for_shape(mechanism.report_shape(), mechanism.report_len())
    }
}

impl ReportAccumulator for ShapedAccumulator {
    fn shape(&self) -> ReportShape {
        match self {
            Self::Bits(a) => a.shape(),
            Self::Value(a) => a.shape(),
            Self::Hashed(a) => a.shape(),
            Self::ItemSet(a) => a.shape(),
        }
    }

    fn count_state(&self) -> &CountAccumulator {
        match self {
            Self::Bits(a) => a.count_state(),
            Self::Value(a) => a.count_state(),
            Self::Hashed(a) => a.count_state(),
            Self::ItemSet(a) => a.count_state(),
        }
    }

    fn count_state_mut(&mut self) -> &mut CountAccumulator {
        match self {
            Self::Bits(a) => a.count_state_mut(),
            Self::Value(a) => a.count_state_mut(),
            Self::Hashed(a) => a.count_state_mut(),
            Self::ItemSet(a) => a.count_state_mut(),
        }
    }

    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        match self {
            Self::Bits(a) => a.accumulate_batch(reports),
            Self::Value(a) => a.accumulate_batch(reports),
            Self::Hashed(a) => a.accumulate_batch(reports),
            Self::ItemSet(a) => a.accumulate_batch(reports),
        }
    }

    fn accumulate_checked(&mut self, batch: &CheckedReports) -> Result<()> {
        match self {
            Self::Bits(a) => a.accumulate_checked(batch),
            Self::Value(a) => a.accumulate_checked(batch),
            Self::Hashed(a) => a.accumulate_checked(batch),
            Self::ItemSet(a) => a.accumulate_checked(batch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idldp_core::report::{hash_bucket, PackedBits, ReportData};

    fn packed(slots: &[u8]) -> PackedBits {
        PackedBits::from_slots(slots).unwrap()
    }

    /// Folds one report as a one-element batch.
    fn fold_one<A: ReportAccumulator>(acc: &mut A, report: Report<'_>) -> Result<()> {
        acc.accumulate_batch(&[report])
    }

    /// The core reference fold of `reports`, one report at a time.
    fn reference(reports: &[Report<'_>], width: usize, shape_param: usize) -> Vec<u64> {
        let mut counts = vec![0u64; width];
        for r in reports {
            r.fold_into(&mut counts, shape_param).unwrap();
        }
        counts
    }

    #[test]
    fn bit_accumulator_counts_and_merges() {
        let mut a = BitReportAccumulator::new(3);
        let mut b = BitReportAccumulator::new(3);
        let mut whole = BitReportAccumulator::new(3);
        let reports: [[u8; 3]; 4] = [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]];
        let rows: Vec<PackedBits> = reports.iter().map(|r| packed(r)).collect();
        for (i, r) in rows.iter().enumerate() {
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            fold_one(target, Report::Packed(r)).unwrap();
        }
        let views: Vec<Report<'_>> = rows.iter().map(Report::Packed).collect();
        whole.accumulate_batch(&views).unwrap();
        a.merge_from(&b).unwrap();
        assert_eq!(a.snapshot(), whole.snapshot());
        assert_eq!(a.num_users(), 4);
        assert_eq!(a.snapshot().counts(), &[2, 2, 3]);
    }

    #[test]
    fn bit_accumulator_rejects_bad_shapes() {
        let mut a = BitReportAccumulator::new(3);
        assert!(fold_one(&mut a, Report::Packed(&packed(&[1, 0]))).is_err());
        assert!(fold_one(&mut a, Report::Value(1)).is_err());
        assert!(fold_one(&mut a, Report::Hashed { seed: 1, value: 0 }).is_err());
        assert!(fold_one(&mut a, Report::ItemSet(&[0])).is_err());
        let b = BitReportAccumulator::new(4);
        assert!(a.merge_from(&b).is_err());
        assert_eq!(a.num_users(), 0, "failed accumulations count nothing");
    }

    #[test]
    fn one_hot_accumulator_counts_values() {
        let mut a = OneHotReportAccumulator::new(4);
        a.accumulate_batch(&[Report::Value(2), Report::Value(2), Report::Value(0)])
            .unwrap();
        let snap = a.snapshot();
        assert_eq!(snap.counts(), &[1, 0, 2, 0]);
        assert_eq!(snap.num_users(), 3);
    }

    #[test]
    fn one_hot_accumulator_rejects_invalid() {
        let mut a = OneHotReportAccumulator::new(3);
        assert!(fold_one(&mut a, Report::Value(3)).is_err());
        // A one-hot row of the right width is still a bit report.
        let err = fold_one(&mut a, Report::Packed(&packed(&[0, 1, 0]))).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");
        assert!(fold_one(&mut a, Report::ItemSet(&[1])).is_err());
        assert_eq!(a.num_users(), 0);
    }

    #[test]
    fn hashed_accumulator_folds_through_shared_hash() {
        let (m, g) = (6usize, 3usize);
        let mut a = HashedReportAccumulator::new(m, g);
        assert_eq!(a.hash_range(), g);
        let (seed, value) = (99u64, 1usize);
        fold_one(&mut a, Report::Hashed { seed, value }).unwrap();
        let snap = a.snapshot();
        for v in 0..m {
            let want = u64::from(hash_bucket(seed, v, g) == value);
            assert_eq!(snap.counts()[v], want, "item {v}");
        }
        assert_eq!(snap.num_users(), 1);

        // The pre-folded support vector counts identically through the
        // reference fold, and the hashed accumulator refuses it.
        let mut bits = vec![0u8; m];
        for (v, b) in bits.iter_mut().enumerate() {
            *b = u8::from(hash_bucket(seed, v, g) == value);
        }
        let support = packed(&bits);
        assert_eq!(reference(&[Report::Packed(&support)], m, g), snap.counts());
        assert!(fold_one(&mut a, Report::Packed(&support)).is_err());
        assert_eq!(a.snapshot(), snap, "a refused report counts nothing");
    }

    #[test]
    fn hashed_accumulator_rejects_invalid() {
        let mut a = HashedReportAccumulator::new(4, 3);
        assert!(fold_one(&mut a, Report::Hashed { seed: 1, value: 3 }).is_err());
        assert!(fold_one(&mut a, Report::Value(1)).is_err());
        assert!(fold_one(&mut a, Report::ItemSet(&[0])).is_err());
        assert!(fold_one(&mut a, Report::Packed(&packed(&[1, 0]))).is_err());
        assert_eq!(a.num_users(), 0);
        // Merging across hash ranges is refused (folds would disagree).
        let b = HashedReportAccumulator::new(4, 5);
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn item_set_accumulator_counts_members_once() {
        let mut a = ItemSetReportAccumulator::new(5);
        a.accumulate_batch(&[
            Report::ItemSet(&[0, 3]),
            Report::ItemSet(&[3]),
            Report::ItemSet(&[1, 3]),
        ])
        .unwrap();
        let snap = a.snapshot();
        assert_eq!(snap.counts(), &[1, 1, 0, 3, 0]);
        assert_eq!(snap.num_users(), 3);
        // The k-hot membership vector is a bit report: refused.
        assert!(fold_one(&mut a, Report::Packed(&packed(&[0, 1, 0, 1, 0]))).is_err());
        assert_eq!(a.snapshot(), snap);
    }

    #[test]
    fn item_set_accumulator_rejects_invalid() {
        let mut a = ItemSetReportAccumulator::new(3);
        assert!(fold_one(&mut a, Report::ItemSet(&[3])).is_err());
        assert!(fold_one(&mut a, Report::ItemSet(&[1, 1])).is_err());
        assert!(fold_one(&mut a, Report::Value(0)).is_err());
        assert!(fold_one(&mut a, Report::Hashed { seed: 0, value: 0 }).is_err());
        assert_eq!(a.num_users(), 0, "failed accumulations count nothing");

        // Sets of more than 16 items, each with one repeat at a
        // pseudo-random position, behind a valid set in the same batch.
        let m = 1000;
        let mut wide = ItemSetReportAccumulator::new(m);
        for len in 17..60usize {
            let mut items: Vec<usize> = (0..len).map(|i| (i * 37 + len) % m).collect();
            let at = hash_bucket(len as u64, 0, len);
            items[at] = items[(at + 1 + hash_bucket(len as u64, 1, len - 1)) % len];
            let err = wide
                .accumulate_batch(&[Report::ItemSet(&[0, 1]), Report::ItemSet(&items)])
                .unwrap_err();
            assert!(err.to_string().contains("report 1: "), "{err}");
            assert!(err.to_string().contains("repeats item"), "{err}");
        }
        assert_eq!(wide.num_users(), 0, "failed accumulations count nothing");
        assert!(wide.snapshot().counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn shaped_accumulator_dispatches_every_shape() {
        let cases: Vec<(ReportShape, ReportData)> = vec![
            (
                ReportShape::Bits,
                ReportData::Bits(PackedBits::from_slots(&[1, 0, 1, 0]).unwrap()),
            ),
            (ReportShape::Value, ReportData::Value(2)),
            (
                ReportShape::Hashed { range: 3 },
                ReportData::Hashed { seed: 5, value: 1 },
            ),
            (
                ReportShape::ItemSet { k: 0 },
                ReportData::ItemSet(vec![0, 2]),
            ),
            (
                ReportShape::ItemSet { k: 2 },
                ReportData::ItemSet(vec![0, 2]),
            ),
        ];
        for (shape, data) in cases {
            let mut acc = ShapedAccumulator::for_shape(shape, 4);
            assert_eq!(acc.shape(), shape);
            assert_eq!(acc.report_len(), 4);
            fold_one(&mut acc, data.as_report()).unwrap();
            assert_eq!(acc.num_users(), 1, "{shape:?}");
            // Merge-from an identical clone doubles the state...
            let other = acc.clone();
            acc.merge_from(&other).unwrap();
            assert_eq!(acc.num_users(), 2);
            // ...and restore round-trips.
            let snap = acc.snapshot();
            let mut fresh = ShapedAccumulator::for_shape(shape, 4);
            fresh.restore(snap.clone()).unwrap();
            assert_eq!(fresh.snapshot(), snap);
        }
        // Cross-shape merges are refused.
        let mut bits = ShapedAccumulator::for_shape(ReportShape::Bits, 4);
        let value = ShapedAccumulator::for_shape(ReportShape::Value, 4);
        assert!(bits.merge_from(&value).is_err());
    }

    #[test]
    fn item_set_accumulator_pins_cardinality() {
        let mut a = ItemSetReportAccumulator::with_cardinality(5, 2);
        assert_eq!(a.cardinality(), 2);
        fold_one(&mut a, Report::ItemSet(&[0, 3])).unwrap();
        assert!(fold_one(&mut a, Report::ItemSet(&[1])).is_err());
        assert!(fold_one(&mut a, Report::ItemSet(&[1, 2, 4])).is_err());
        assert_eq!(a.num_users(), 1, "wrong-sized sets count nothing");
        // Merging across pinned cardinalities is refused.
        let other = ItemSetReportAccumulator::with_cardinality(5, 3);
        assert!(a.merge_from(&other).is_err());
        // The shape round-trips the pinned k.
        let shaped = ShapedAccumulator::for_shape(ReportShape::ItemSet { k: 2 }, 5);
        assert_eq!(shaped.shape(), ReportShape::ItemSet { k: 2 });
    }

    #[test]
    fn batch_matches_sequential_for_every_shape() {
        // The core batched-fold guarantee: accumulate_batch equals the
        // sequential reference fold (`Report::fold_into`, one report at a
        // time), for every shape, with enough bit rows to cross a SWAR
        // spill boundary.
        let m = 9usize;
        let bit_rows: Vec<PackedBits> = (0..600u64)
            .map(|r| {
                (0..m)
                    .map(|i| hash_bucket(r, i, 2) as u8)
                    .collect::<Vec<_>>()
            })
            .map(|row| packed(&row))
            .collect();
        let bit_reports: Vec<Report<'_>> = bit_rows.iter().map(Report::Packed).collect();
        let mut batched = BitReportAccumulator::new(m);
        batched.accumulate_batch(&bit_reports).unwrap();
        assert_eq!(batched.snapshot().counts(), reference(&bit_reports, m, 0));

        let values: Vec<Report<'_>> = (0..40).map(|v| Report::Value(v % m)).collect();
        let mut batched = OneHotReportAccumulator::new(m);
        batched.accumulate_batch(&values).unwrap();
        assert_eq!(batched.snapshot().counts(), reference(&values, m, 0));

        // Hashed: seeds repeat (seven across 300 reports, so pairs recur
        // within one tile).
        let g = 3usize;
        let hashed: Vec<Report<'_>> = (0..300u64)
            .map(|i| Report::Hashed {
                seed: i % 7,
                value: (i % g as u64) as usize,
            })
            .collect();
        let mut batched = HashedReportAccumulator::new(m, g);
        batched.accumulate_batch(&hashed).unwrap();
        assert_eq!(batched.snapshot().counts(), reference(&hashed, m, g));
        // Exact counts over the same repeated seeds, straight from
        // `hash_bucket`, independent of any fold kernel.
        let mut exact = vec![0u64; m];
        for report in &hashed {
            let Report::Hashed { seed, value } = *report else {
                unreachable!("hashed reports only")
            };
            for (v, count) in exact.iter_mut().enumerate() {
                *count += u64::from(hash_bucket(seed, v, g) == value);
            }
        }
        assert_eq!(batched.snapshot().counts(), exact);
        let cache = batched.preimage_cache();
        assert_eq!(
            (cache.hits(), cache.misses()),
            (0, 0),
            "the fold has no cache path"
        );

        let sets: Vec<Vec<usize>> = (0..30usize).map(|i| vec![i % m, (i + 3) % m]).collect();
        let set_reports: Vec<Report<'_>> = sets.iter().map(|s| Report::ItemSet(s)).collect();
        let mut batched = ItemSetReportAccumulator::new(m);
        batched.accumulate_batch(&set_reports).unwrap();
        assert_eq!(batched.snapshot().counts(), reference(&set_reports, m, 0));
        assert_eq!(batched.num_users(), set_reports.len() as u64);
    }

    /// The bit accumulator folds packed reports to the counts of their
    /// 0/1 rows, in one-report batches and in one whole batch, at every
    /// width across the 64-slot word and 128/129 inline/heap edges. Every
    /// other shape refuses each packed row and counts nothing.
    #[test]
    fn packed_reports_fold_to_their_rows() {
        for m in (1..=130usize).chain([1000]) {
            // 300 rows cross a bit-plane spill; the one-hot rows are the
            // folded form of a categorical report.
            let mut rows: Vec<Vec<u8>> = (0..300u64)
                .map(|r| {
                    (0..m)
                        .map(|i| hash_bucket(r << 16 | m as u64, i, 2) as u8)
                        .collect()
                })
                .collect();
            rows.extend((0..4).map(|r| {
                let mut row = vec![0u8; m];
                row[r * 7 % m] = 1;
                row
            }));
            let reports: Vec<PackedBits> = rows.iter().map(|row| packed(row)).collect();
            let mut want = vec![0u64; m];
            for row in &rows {
                for (w, &bit) in want.iter_mut().zip(row) {
                    *w += u64::from(bit);
                }
            }

            let mut one_by_one = BitReportAccumulator::new(m);
            for bits in &reports {
                fold_one(&mut one_by_one, Report::Packed(bits)).unwrap();
            }
            assert_eq!(one_by_one.snapshot().counts(), want, "m={m}");
            assert_eq!(one_by_one.num_users(), rows.len() as u64, "m={m}");

            let views: Vec<Report<'_>> = reports.iter().map(Report::Packed).collect();
            let mut batched = BitReportAccumulator::new(m);
            batched.accumulate_batch(&views).unwrap();
            assert_eq!(batched, one_by_one, "m={m}");

            for shape in [
                ReportShape::Value,
                ReportShape::Hashed { range: 3 },
                ReportShape::ItemSet { k: 0 },
            ] {
                let mut other = ShapedAccumulator::for_shape(shape, m);
                for bits in &reports {
                    assert!(fold_one(&mut other, Report::Packed(bits)).is_err());
                }
                assert!(other.accumulate_batch(&views).is_err());
                assert_eq!(other.num_users(), 0, "{shape:?} m={m}");
            }
        }
    }

    #[test]
    fn batch_with_any_invalid_report_counts_nothing() {
        // Atomicity: one bad report anywhere in the batch leaves the
        // accumulator untouched — no partial fold, no user counted.
        let (good, bad_width) = (packed(&[1, 0, 1]), packed(&[1, 0]));
        let mut bits = BitReportAccumulator::new(3);
        assert!(bits
            .accumulate_batch(&[
                Report::Packed(&good),
                Report::Packed(&good),
                Report::Packed(&bad_width),
            ])
            .is_err());
        assert_eq!(bits.num_users(), 0);
        assert_eq!(bits.snapshot().counts(), &[0, 0, 0]);

        let mut one_hot = OneHotReportAccumulator::new(3);
        assert!(one_hot
            .accumulate_batch(&[Report::Value(1), Report::Value(3)])
            .is_err());
        assert_eq!(one_hot.num_users(), 0);

        let mut hashed = HashedReportAccumulator::new(3, 2);
        assert!(hashed
            .accumulate_batch(&[
                Report::Hashed { seed: 1, value: 0 },
                Report::Hashed { seed: 2, value: 2 },
            ])
            .is_err());
        assert_eq!(hashed.num_users(), 0);
        assert_eq!(hashed.snapshot().counts(), &[0, 0, 0]);

        let mut sets = ItemSetReportAccumulator::with_cardinality(3, 2);
        assert!(sets
            .accumulate_batch(&[Report::ItemSet(&[0, 1]), Report::ItemSet(&[2])])
            .is_err());
        assert_eq!(sets.num_users(), 0);
        assert_eq!(sets.snapshot().counts(), &[0, 0, 0]);
    }

    /// A checked batch folds like the reports it holds, and only into an
    /// accumulator of the shape and width it was checked against: any
    /// other refuses it and counts nothing.
    #[test]
    fn checked_batches_fold_only_as_what_they_were_checked_against() {
        let values = [2usize, 0, 2];
        let mut payload = (values.len() as u32).to_le_bytes().to_vec();
        for &v in &values {
            payload.push(idldp_core::report::REPORT_VALUE);
            payload.extend_from_slice(&(v as u64).to_le_bytes());
        }
        let batch = CheckedReports::check(payload, 0, ReportShape::Value, 4).unwrap();
        let mut checked = ShapedAccumulator::for_shape(ReportShape::Value, 4);
        checked.accumulate_checked(&batch).unwrap();
        let mut reports = ShapedAccumulator::for_shape(ReportShape::Value, 4);
        let views: Vec<Report<'_>> = values.iter().map(|&v| Report::Value(v)).collect();
        reports.accumulate_batch(&views).unwrap();
        assert_eq!(checked, reports);
        for (shape, width) in [
            (ReportShape::Value, 5),
            (ReportShape::Bits, 4),
            (ReportShape::Hashed { range: 2 }, 4),
            (ReportShape::ItemSet { k: 0 }, 4),
        ] {
            let mut other = ShapedAccumulator::for_shape(shape, width);
            let err = other.accumulate_checked(&batch).unwrap_err();
            assert!(err.to_string().contains("cannot fold"), "{err}");
            assert_eq!(other.num_users(), 0, "{shape:?} over {width}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut acc = ShapedAccumulator::for_shape(ReportShape::Bits, 4);
        acc.accumulate_batch(&[]).unwrap();
        assert_eq!(acc.num_users(), 0);
    }

    #[test]
    fn restore_round_trips() {
        let mut a = OneHotReportAccumulator::new(3);
        a.accumulate_batch(&[Report::Value(1), Report::Value(1)])
            .unwrap();
        let snap = a.snapshot();
        let mut fresh = OneHotReportAccumulator::new(3);
        fresh.restore(snap.clone()).unwrap();
        assert_eq!(fresh, a);
        let mut bits = BitReportAccumulator::new(3);
        bits.restore(snap.clone()).unwrap();
        assert_eq!(bits.snapshot(), snap);
        assert!(bits
            .restore(idldp_core::snapshot::AccumulatorSnapshot::empty(5).unwrap())
            .is_err());
    }
}
