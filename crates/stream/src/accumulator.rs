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
//! Every accumulator is one fold over one count state. The fold,
//! [`ReportAccumulator::accumulate_batch`], is the only part each shape
//! writes; the count state is the core [`CountAccumulator`], and the
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
//! Every accumulator also accepts the report's *folded* bit-vector form
//! as a [`Report::Packed`] bit report (the support vector
//! [`idldp_core::mechanism::Mechanism::perturb_into`] writes, packed), so
//! streams and batch pipelines interoperate with either representation
//! and the counts are identical by the fold laws tested in `idldp-core`.

use idldp_core::error::{Error, Result};
use idldp_core::fold::{BitPlanes, HashedFold, SeedPreimageCache};
use idldp_core::mechanism::CountAccumulator;
use idldp_core::report::{PackedBits, ReportShape};
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

    /// Folds a whole batch of reports (one `Reports` frame, one stream
    /// chunk; a single report is a one-element batch) — the accumulator's
    /// only fold.
    ///
    /// Atomic: every report validates before any bucket moves, so a batch
    /// containing any invalid report counts nothing. The transport server
    /// relies on this to reject a hostile mixed frame without a partial
    /// fold. The counts after a successful call equal the core reference
    /// fold ([`Report::fold_into`]) of the same reports, for every way of
    /// splitting a stream into batches (the batched fold engine in
    /// [`idldp_core::fold`] is pure integer arithmetic).
    ///
    /// # Errors
    /// Returns the first report's validation error: the wrong width, the
    /// wrong shape for this accumulator, or an out-of-range value.
    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()>;

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
    ///
    /// # Errors
    /// Returns an error if the snapshot width differs from
    /// [`Self::report_len`].
    fn restore(&mut self, snapshot: &AccumulatorSnapshot) -> Result<()> {
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

fn wrong_shape(accumulator: &str, got: &Report<'_>, width: usize) -> Error {
    let shape = match got {
        Report::Packed(_) => "bit-vector",
        Report::Value(_) => "categorical value",
        Report::Hashed { .. } => "hashed (seed, value)",
        Report::ItemSet(_) => "item-set",
    };
    Error::DimensionMismatch {
        what: format!("report shape ({accumulator} accumulator got a {shape} report)"),
        expected: width,
        actual: 0,
    }
}

/// Adds a batch's staged per-bucket sums into the count state and counts
/// its users: the commit step of the staged folds, run only once the whole
/// batch has validated.
fn commit_staged(inner: &mut CountAccumulator, staged: &[u64], users: usize) {
    for (c, &s) in inner.counts_mut().iter_mut().zip(staged) {
        *c += s;
    }
    inner.add_users(users as u64);
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

    /// Word-packed batch fold: each report's words are carry-save-added
    /// into SWAR bit-planes. They spill into a staged buffer that only
    /// commits once the whole batch has validated.
    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        let m = self.report_len();
        let mut planes = BitPlanes::new(m);
        let mut staged = vec![0u64; m];
        for report in reports {
            match *report {
                Report::Packed(bits) => {
                    check_width("accumulated report width", m, bits.slots())?;
                    planes.add_row(bits.words(), &mut staged);
                }
                ref other => return Err(wrong_shape("bit", other, m)),
            }
        }
        planes.spill_into(&mut staged);
        commit_staged(&mut self.inner, &staged, reports.len());
        Ok(())
    }
}

/// Accumulator for categorical (one-hot) reports: GRR value reports,
/// matrix-mechanism rows, and PS's sampled item.
///
/// Accepts [`Report::Value`] directly, or a [`Report::Packed`] bit
/// report that is exactly one-hot — the folded form
/// [`idldp_core::mechanism::Mechanism::perturb_into`] writes for these
/// mechanisms. Shares the core [`CountAccumulator`] state with
/// [`BitReportAccumulator`]; only the accepted report shape differs.
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

    fn hot_index(&self, bits: &PackedBits) -> Result<usize> {
        check_width("one-hot report", self.report_len(), bits.slots())?;
        let mut ones = bits.ones();
        match (ones.next(), ones.next()) {
            (Some(hot), None) => Ok(hot),
            _ => Err(Error::ParameterOrdering {
                detail: "categorical report must be one-hot (one bit set)".into(),
            }),
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

    /// Batch fold: resolves every report to its hot index first (the
    /// all-or-nothing validation pass), then applies the increments.
    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        let m = self.report_len();
        let mut values = Vec::with_capacity(reports.len());
        for report in reports {
            let value = match *report {
                Report::Value(v) if v < m => v,
                Report::Value(v) => {
                    return Err(Error::IndexOutOfRange {
                        what: "categorical report value".into(),
                        index: v,
                        bound: m,
                    })
                }
                Report::Packed(bits) => self.hot_index(bits)?,
                ref other => return Err(wrong_shape("categorical", other, m)),
            };
            values.push(value);
        }
        for value in values {
            self.inner.add_bit(value);
        }
        self.inner.add_users(reports.len() as u64);
        Ok(())
    }
}

/// Accumulator for hashed `(seed, value)` reports (the OLH wire shape).
///
/// The server half of the hash protocol: each report increments every item
/// `v` whose [`idldp_core::report::hash_bucket`]`(seed, v, range)` equals
/// the reported value — the same shared hash the client encoded with,
/// through the one [`HashedFold`] kernel, which counts a whole batch item
/// group by item group. Also accepts the pre-folded [`Report::Packed`]
/// support vector (what
/// [`idldp_core::mechanism::Mechanism::perturb_into`] writes for OLH), so
/// either representation of the same report yields identical counts.
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

    /// Item-major batch fold: the validation pass gathers every
    /// `(seed, value)` pair, and [`HashedFold`] counts them into a staged
    /// buffer in [`idldp_core::fold::TILE`]-pair tiles, each item group's
    /// counters held in registers across a tile. Packed support vectors,
    /// if any, carry-save-add into SWAR bit-planes over the same buffer,
    /// which commits only once the whole batch has validated. The counts
    /// are exactly what the scalar hash fold would increment.
    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        let m = self.report_len();
        // Validation pass first: nothing folds if any report is invalid.
        let mut pairs = Vec::with_capacity(reports.len());
        let mut packed = false;
        for report in reports {
            match *report {
                Report::Hashed { seed, value } => {
                    report.validate(m, self.range)?;
                    pairs.push((seed, value));
                }
                Report::Packed(_) => {
                    report.validate(m, self.range)?;
                    packed = true;
                }
                ref other => return Err(wrong_shape("hashed", other, m)),
            }
        }
        let mut staged = vec![0u64; m];
        HashedFold::new(self.range).count_into(&pairs, &mut staged);
        if packed {
            let mut planes = BitPlanes::new(m);
            for report in reports {
                if let Report::Packed(bits) = *report {
                    planes.add_row(bits.words(), &mut staged);
                }
            }
            planes.spill_into(&mut staged);
        }
        commit_staged(&mut self.inner, &staged, reports.len());
        Ok(())
    }
}

/// Accumulator for item-set reports (the subset-selection wire shape).
///
/// Each report is a small set of distinct items; every member increments
/// its own bucket and the report counts as one user. Also accepts the
/// k-hot [`Report::Packed`] membership vector.
///
/// When built with [`ItemSetReportAccumulator::with_cardinality`] the
/// accumulator pins the exact set size `k` the mechanism emits
/// ([`ReportShape::ItemSet`]'s `k` field) and refuses explicit item-set
/// reports of any other size — a wrong-sized set folds cleanly but biases
/// the subset-selection estimator's `(p, (k - p) / (m - 1))` calibration,
/// so the server rejects it at the door.
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

    /// An empty accumulator over `report_len` items that refuses explicit
    /// item-set reports whose size differs from `k` (`k == 0` leaves the
    /// cardinality unchecked).
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

    /// Batch fold: validates every report (width, domain, distinctness,
    /// pinned cardinality) before any bucket moves, then applies the
    /// member increments.
    ///
    /// Distinctness is checked against an epoch-stamped scratch row shared
    /// by the whole batch, replacing the per-report sort-and-scan of
    /// [`Report::validate`] with one `O(k)` pass and no per-report
    /// allocation — the same errors, amortized over the batch.
    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        let m = self.report_len();
        let mut stamp = vec![0u32; m];
        let mut epoch = 0u32;
        for report in reports {
            let items = match report {
                Report::ItemSet(items) => *items,
                Report::Packed(_) => {
                    report.validate(m, self.k)?;
                    continue;
                }
                other => return Err(wrong_shape("item-set", other, m)),
            };
            if items.is_empty() {
                return Err(Error::Empty {
                    what: "item-set report".into(),
                });
            }
            if self.k > 0 && items.len() != self.k {
                return Err(Error::DimensionMismatch {
                    what: "item-set report cardinality".into(),
                    expected: self.k,
                    actual: items.len(),
                });
            }
            epoch += 1;
            for &item in items {
                if item >= m {
                    return Err(Error::IndexOutOfRange {
                        what: "item-set report member".into(),
                        index: item,
                        bound: m,
                    });
                }
                if stamp[item] == epoch {
                    return Err(Error::ParameterOrdering {
                        detail: format!("item-set report repeats item {item}"),
                    });
                }
                stamp[item] = epoch;
            }
        }
        let counts = self.inner.counts_mut();
        for report in reports {
            match *report {
                Report::ItemSet(items) => {
                    for &item in items {
                        counts[item] += 1;
                    }
                }
                Report::Packed(bits) => {
                    for slot in bits.ones() {
                        counts[slot] += 1;
                    }
                }
                _ => unreachable!("shapes checked in the validation pass"),
            }
        }
        self.inner.add_users(reports.len() as u64);
        Ok(())
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use idldp_core::report::{hash_bucket, ReportData};

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
    fn one_hot_accumulator_accepts_both_shapes() {
        let mut a = OneHotReportAccumulator::new(4);
        let (two, zero) = (packed(&[0, 0, 1, 0]), packed(&[1, 0, 0, 0]));
        a.accumulate_batch(&[
            Report::Value(2),
            Report::Packed(&two),
            Report::Packed(&zero),
        ])
        .unwrap();
        let snap = a.snapshot();
        assert_eq!(snap.counts(), &[1, 0, 2, 0]);
        assert_eq!(snap.num_users(), 3);
    }

    #[test]
    fn one_hot_accumulator_rejects_invalid() {
        let mut a = OneHotReportAccumulator::new(3);
        assert!(fold_one(&mut a, Report::Value(3)).is_err());
        assert!(fold_one(&mut a, Report::Packed(&packed(&[0, 0, 0]))).is_err());
        assert!(fold_one(&mut a, Report::Packed(&packed(&[1, 1, 0]))).is_err());
        assert!(fold_one(&mut a, Report::Packed(&packed(&[1, 0]))).is_err());
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

        // The pre-folded bits form counts identically.
        let mut bits = vec![0u8; m];
        for (v, b) in bits.iter_mut().enumerate() {
            *b = u8::from(hash_bucket(seed, v, g) == value);
        }
        let mut via_bits = HashedReportAccumulator::new(m, g);
        fold_one(&mut via_bits, Report::Packed(&packed(&bits))).unwrap();
        assert_eq!(via_bits.snapshot(), snap);
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
        let k_hot = packed(&[0, 1, 0, 1, 0]);
        a.accumulate_batch(&[
            Report::ItemSet(&[0, 3]),
            Report::ItemSet(&[3]),
            Report::Packed(&k_hot),
        ])
        .unwrap();
        let snap = a.snapshot();
        assert_eq!(snap.counts(), &[1, 1, 0, 3, 0]);
        assert_eq!(snap.num_users(), 3);
    }

    #[test]
    fn item_set_accumulator_rejects_invalid() {
        let mut a = ItemSetReportAccumulator::new(3);
        assert!(fold_one(&mut a, Report::ItemSet(&[3])).is_err());
        assert!(fold_one(&mut a, Report::ItemSet(&[1, 1])).is_err());
        assert!(fold_one(&mut a, Report::Value(0)).is_err());
        assert!(fold_one(&mut a, Report::Hashed { seed: 0, value: 0 }).is_err());
        assert_eq!(a.num_users(), 0, "failed accumulations count nothing");
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
            fresh.restore(&snap).unwrap();
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
        // within one tile), and a mixed-in pre-folded bits row exercises
        // the packed-row path.
        let g = 3usize;
        let hashed: Vec<Report<'_>> = (0..300u64)
            .map(|i| Report::Hashed {
                seed: i % 7,
                value: (i % g as u64) as usize,
            })
            .chain(std::iter::once(Report::Packed(&bit_rows[0])))
            .collect();
        let mut batched = HashedReportAccumulator::new(m, g);
        batched.accumulate_batch(&hashed).unwrap();
        assert_eq!(batched.snapshot().counts(), reference(&hashed, m, g));
        // Exact counts over the same repeated seeds, straight from
        // `hash_bucket`, independent of any fold kernel.
        let mut exact = vec![0u64; m];
        for report in &hashed {
            match *report {
                Report::Hashed { seed, value } => {
                    for (v, count) in exact.iter_mut().enumerate() {
                        *count += u64::from(hash_bucket(seed, v, g) == value);
                    }
                }
                Report::Packed(bits) => bits.ones().for_each(|slot| exact[slot] += 1),
                _ => unreachable!("hashed and packed reports only"),
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
        let set_reports: Vec<Report<'_>> = sets
            .iter()
            .map(|s| Report::ItemSet(s))
            .chain(std::iter::once(Report::Packed(&bit_rows[1])))
            .collect();
        let mut batched = ItemSetReportAccumulator::new(m);
        batched.accumulate_batch(&set_reports).unwrap();
        assert_eq!(batched.snapshot().counts(), reference(&set_reports, m, 0));
        assert_eq!(batched.num_users(), set_reports.len() as u64);
    }

    /// Every accumulator that takes bit reports folds packed reports to
    /// the counts of their 0/1 rows, in one-report batches and in one
    /// whole batch, at every width across the 64-slot word and 128/129
    /// inline/heap edges.
    #[test]
    fn packed_reports_fold_to_their_rows() {
        for m in (1..=130usize).chain([1000]) {
            // 300 rows cross a bit-plane spill; the one-hot rows are the
            // only ones the categorical accumulator takes.
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
            for shape in [
                ReportShape::Bits,
                ReportShape::Value,
                ReportShape::Hashed { range: 3 },
                ReportShape::ItemSet { k: 0 },
            ] {
                let takes = |row: &[u8]| {
                    shape != ReportShape::Value || row.iter().filter(|&&b| b == 1).count() == 1
                };
                let taken: Vec<usize> = (0..rows.len()).filter(|&r| takes(&rows[r])).collect();
                let mut want = vec![0u64; m];
                for &r in &taken {
                    for (w, &bit) in want.iter_mut().zip(&rows[r]) {
                        *w += u64::from(bit);
                    }
                }

                let mut one_by_one = ShapedAccumulator::for_shape(shape, m);
                for (row, bits) in rows.iter().zip(&reports) {
                    assert_eq!(
                        fold_one(&mut one_by_one, Report::Packed(bits)).is_ok(),
                        takes(row),
                        "{shape:?} m={m}"
                    );
                }
                assert_eq!(one_by_one.snapshot().counts(), want, "{shape:?} m={m}");
                assert_eq!(
                    one_by_one.num_users(),
                    taken.len() as u64,
                    "{shape:?} m={m}"
                );

                let views: Vec<Report<'_>> =
                    taken.iter().map(|&r| Report::Packed(&reports[r])).collect();
                let mut batched = ShapedAccumulator::for_shape(shape, m);
                batched.accumulate_batch(&views).unwrap();
                assert_eq!(batched, one_by_one, "{shape:?} m={m}");
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
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh, a);
        let mut bits = BitReportAccumulator::new(3);
        bits.restore(&snap).unwrap();
        assert_eq!(bits.snapshot(), snap);
        assert!(bits
            .restore(&idldp_core::snapshot::AccumulatorSnapshot::empty(5).unwrap())
            .is_err());
    }
}
