//! Mergeable per-shard accumulation state for every report shape.
//!
//! A streaming server never stores reports; each arriving report is folded
//! into an accumulator immediately. The [`ReportAccumulator`] trait is the
//! contract that makes this shardable: accumulation is per-shard local
//! state (`Send`), shards [`ReportAccumulator::merge_from`] exactly
//! (integer counts — no floating point, no order dependence), and a frozen
//! [`AccumulatorSnapshot`] of the merged state feeds the incremental oracle
//! path ([`idldp_core::mechanism::FrequencyOracle::estimate_from`]).
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
use idldp_core::fold::{BitPlanes, SeedPreimageCache};
use idldp_core::mechanism::CountAccumulator;
use idldp_core::report::{PackedBits, ReportShape};
use idldp_core::snapshot::AccumulatorSnapshot;

pub use idldp_core::report::Report;

/// Mergeable, shard-local report accumulation state.
///
/// Implementations must satisfy the *exact-merge law*: for any partition of
/// a report multiset across accumulators and any merge tree over them, the
/// merged counts equal those of a single accumulator fed every report
/// sequentially. (Counts are integers; the property test suite checks this
/// for streams generated by all eight mechanisms, in every wire shape.)
///
/// # Examples
/// ```
/// use idldp_core::report::PackedBits;
/// use idldp_stream::{BitReportAccumulator, Report, ReportAccumulator};
///
/// let packed = |slots: &[u8]| PackedBits::from_slots(slots).unwrap();
/// let mut shard_a = BitReportAccumulator::new(3);
/// let mut shard_b = BitReportAccumulator::new(3);
/// shard_a.accumulate(Report::Packed(&packed(&[1, 0, 1]))).unwrap();
/// shard_b.accumulate(Report::Packed(&packed(&[0, 1, 1]))).unwrap();
///
/// // Shards merge exactly, regardless of how reports were distributed.
/// shard_a.merge_from(&shard_b).unwrap();
/// let snapshot = shard_a.snapshot();
/// assert_eq!(snapshot.counts(), &[1, 1, 2]);
/// assert_eq!(snapshot.num_users(), 2);
/// ```
pub trait ReportAccumulator: Send {
    /// Width of the folded count state (the mechanism's
    /// [`idldp_core::mechanism::Mechanism::report_len`]).
    fn report_len(&self) -> usize;

    /// Number of reports absorbed so far.
    fn num_users(&self) -> u64;

    /// Folds one report into the state.
    ///
    /// # Errors
    /// Returns an error if the report has the wrong width, the wrong shape
    /// for this accumulator, or an out-of-range value; nothing is counted
    /// on failure.
    fn accumulate(&mut self, report: Report<'_>) -> Result<()>;

    /// Folds a whole batch of reports (one `Reports` frame, one stream
    /// chunk) in a single call, so servers pay one lock acquisition and
    /// one fold per frame instead of per-report round trips.
    ///
    /// The default implementation loops [`Self::accumulate`] and is
    /// therefore **not atomic** — reports before the first invalid one
    /// stay counted. Every accumulator in this crate overrides it with an
    /// atomic *validate-all-then-fold* specialization: a batch containing
    /// any invalid report counts nothing, which is what the transport
    /// server relies on to reject a hostile mixed frame without a partial
    /// fold. Counts after a successful call are bit-identical to
    /// sequential [`Self::accumulate`] of the same reports (the batched
    /// fold engine in [`idldp_core::fold`] is pure integer arithmetic) —
    /// the stream property suite asserts this for every shape and every
    /// batch split.
    ///
    /// # Errors
    /// Returns the first report's validation error.
    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        for report in reports {
            self.accumulate(*report)?;
        }
        Ok(())
    }

    /// Adds another accumulator's state (the shard-merge step).
    ///
    /// # Errors
    /// Returns an error if the widths differ.
    fn merge_from(&mut self, other: &Self) -> Result<()>
    where
        Self: Sized;

    /// Freezes the current counts into a snapshot for estimation or
    /// checkpointing.
    fn snapshot(&self) -> AccumulatorSnapshot;

    /// Adds this accumulator's per-bucket counts into `out` and returns
    /// its user count — the allocation-free half of [`Self::snapshot`].
    /// A caller merging many shards sums them all into one preallocated
    /// buffer in a single pass instead of allocating an intermediate
    /// snapshot per shard and merging pairwise.
    ///
    /// The default implementation goes through [`Self::snapshot`]; every
    /// accumulator in this crate overrides it to add straight from its
    /// count state without allocating.
    ///
    /// # Panics
    /// Panics if `out.len() != self.report_len()`.
    fn add_counts_into(&self, out: &mut [u64]) -> u64 {
        let snapshot = self.snapshot();
        assert_eq!(
            out.len(),
            snapshot.report_len(),
            "count buffer width mismatch"
        );
        for (o, &c) in out.iter_mut().zip(snapshot.counts()) {
            *o += c;
        }
        snapshot.num_users()
    }

    /// Replaces the state with checkpointed counts (restart recovery).
    ///
    /// # Errors
    /// Returns an error if the snapshot width differs from
    /// [`Self::report_len`].
    fn restore(&mut self, snapshot: &AccumulatorSnapshot) -> Result<()>;
}

/// Shared [`ReportAccumulator::add_counts_into`] override for the four
/// count-backed accumulators: add straight out of the count state, no
/// intermediate snapshot.
fn add_inner_counts(inner: &CountAccumulator, out: &mut [u64]) -> u64 {
    assert_eq!(
        out.len(),
        inner.counts().len(),
        "count buffer width mismatch"
    );
    for (o, &c) in out.iter_mut().zip(inner.counts()) {
        *o += c;
    }
    inner.num_users()
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
    fn report_len(&self) -> usize {
        self.inner.counts().len()
    }

    fn num_users(&self) -> u64 {
        self.inner.num_users()
    }

    fn accumulate(&mut self, report: Report<'_>) -> Result<()> {
        match report {
            Report::Packed(_) => self.inner.fold_report(report, 0),
            other => Err(wrong_shape("bit", &other, self.report_len())),
        }
    }

    /// Word-packed batch fold: each report's words are carry-save-added
    /// into SWAR bit-planes. They spill into a staged buffer that only
    /// commits once the whole batch has validated, so the fold is atomic
    /// and bit-identical to the sequential one.
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
        for (c, &s) in self.inner.counts_mut().iter_mut().zip(&staged) {
            *c += s;
        }
        self.inner.add_users(reports.len() as u64);
        Ok(())
    }

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        check_width(
            "accumulator merge width",
            self.report_len(),
            other.report_len(),
        )?;
        self.inner.merge(&other.inner);
        Ok(())
    }

    fn snapshot(&self) -> AccumulatorSnapshot {
        self.inner.snapshot()
    }

    fn add_counts_into(&self, out: &mut [u64]) -> u64 {
        add_inner_counts(&self.inner, out)
    }

    fn restore(&mut self, snapshot: &AccumulatorSnapshot) -> Result<()> {
        check_width(
            "restored snapshot width",
            self.report_len(),
            snapshot.report_len(),
        )?;
        self.inner = CountAccumulator::from_snapshot(snapshot);
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
/// [`BitReportAccumulator`], so there is a single implementation of the
/// exact-merge law; only the accepted report shape differs.
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
            _ => Err(not_one_hot()),
        }
    }
}

fn not_one_hot() -> Error {
    Error::ParameterOrdering {
        detail: "categorical report must be one-hot (one bit set)".into(),
    }
}

impl ReportAccumulator for OneHotReportAccumulator {
    fn report_len(&self) -> usize {
        self.inner.counts().len()
    }

    fn num_users(&self) -> u64 {
        self.inner.num_users()
    }

    fn accumulate(&mut self, report: Report<'_>) -> Result<()> {
        let value = match report {
            Report::Value(v) if v < self.report_len() => v,
            Report::Value(v) => {
                return Err(Error::IndexOutOfRange {
                    what: "categorical report value".into(),
                    index: v,
                    bound: self.report_len(),
                })
            }
            Report::Packed(bits) => self.hot_index(bits)?,
            other => return Err(wrong_shape("categorical", &other, self.report_len())),
        };
        self.inner.add_bit(value);
        self.inner.add_user();
        Ok(())
    }

    /// Batch fold: resolves every report to its hot index first (the
    /// all-or-nothing validation pass), then applies the increments — a
    /// batch containing any invalid report counts nothing.
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

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        check_width(
            "accumulator merge width",
            self.report_len(),
            other.report_len(),
        )?;
        self.inner.merge(&other.inner);
        Ok(())
    }

    fn snapshot(&self) -> AccumulatorSnapshot {
        self.inner.snapshot()
    }

    fn add_counts_into(&self, out: &mut [u64]) -> u64 {
        add_inner_counts(&self.inner, out)
    }

    fn restore(&mut self, snapshot: &AccumulatorSnapshot) -> Result<()> {
        check_width(
            "restored snapshot width",
            self.report_len(),
            snapshot.report_len(),
        )?;
        self.inner = CountAccumulator::from_snapshot(snapshot);
        Ok(())
    }
}

/// Accumulator for hashed `(seed, value)` reports (the OLH wire shape).
///
/// The server half of the hash protocol: each report increments every item
/// `v` whose [`idldp_core::report::hash_bucket`]`(seed, v, range)` equals
/// the reported value — the same shared hash the client encoded with,
/// through the one shared fold. Also accepts the
/// pre-folded [`Report::Packed`] support vector (what
/// [`idldp_core::mechanism::Mechanism::perturb_into`] writes for OLH), so
/// either representation of the same report yields identical counts.
///
/// Both fold paths run the one [`idldp_core::fold::HashedFold`] kernel.
/// The batched path reaches it through a bounded [`SeedPreimageCache`]:
/// repeated `(seed, value)` pairs replay as `O(m/64)` word rows, but
/// clients draw a fresh seed per report, so real traffic always misses and
/// pays the kernel's one `O(m)` pass. The cache is a performance artifact,
/// not state — it never affects counts (cached bitmaps are exactly what
/// the hash pass would recompute) and is excluded from equality.
#[derive(Clone, Debug)]
pub struct HashedReportAccumulator {
    inner: CountAccumulator,
    range: usize,
    cache: SeedPreimageCache,
}

impl PartialEq for HashedReportAccumulator {
    fn eq(&self, other: &Self) -> bool {
        // The preimage cache is derived data; equality is counts + range.
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

    /// The seed-preimage cache behind the batched fold path (statistics
    /// and capacity introspection; the cache never affects counts).
    pub fn preimage_cache(&self) -> &SeedPreimageCache {
        &self.cache
    }
}

impl ReportAccumulator for HashedReportAccumulator {
    fn report_len(&self) -> usize {
        self.inner.counts().len()
    }

    fn num_users(&self) -> u64 {
        self.inner.num_users()
    }

    fn accumulate(&mut self, report: Report<'_>) -> Result<()> {
        match report {
            // Both the wire pair and its pre-folded support vector go
            // through the one shared fold (`Report::fold_into`).
            Report::Hashed { .. } | Report::Packed(_) => self.inner.fold_report(report, self.range),
            other => Err(wrong_shape("hashed", &other, self.report_len())),
        }
    }

    /// Bucket-inverted batch fold: every `(seed, value)` pair resolves to
    /// its packed preimage bitmap (one `O(m)` hash pass per cache miss,
    /// `O(m/64)` word adds per hit) and carry-save-adds into SWAR
    /// bit-planes, spilling into a staged buffer that only commits once
    /// the whole batch has validated. The bitmap rows are exactly what the
    /// scalar hash fold would increment, so counts stay bit-identical to
    /// sequential [`ReportAccumulator::accumulate`].
    fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        let m = self.report_len();
        // Validation pass first: nothing folds if any report is invalid.
        for report in reports {
            match report {
                Report::Hashed { .. } | Report::Packed(_) => report.validate(m, self.range)?,
                other => return Err(wrong_shape("hashed", other, m)),
            }
        }
        let mut planes = BitPlanes::new(m);
        let mut staged = vec![0u64; m];
        for report in reports {
            match *report {
                Report::Hashed { seed, value } => {
                    let bitmap = self.cache.preimage(seed, value);
                    planes.add_row(bitmap, &mut staged);
                }
                Report::Packed(bits) => planes.add_row(bits.words(), &mut staged),
                _ => unreachable!("shapes checked in the validation pass"),
            }
        }
        planes.spill_into(&mut staged);
        for (c, &s) in self.inner.counts_mut().iter_mut().zip(&staged) {
            *c += s;
        }
        self.inner.add_users(reports.len() as u64);
        Ok(())
    }

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        check_width(
            "accumulator merge width",
            self.report_len(),
            other.report_len(),
        )?;
        check_width("accumulator hash range", self.range, other.range)?;
        self.inner.merge(&other.inner);
        Ok(())
    }

    fn snapshot(&self) -> AccumulatorSnapshot {
        self.inner.snapshot()
    }

    fn add_counts_into(&self, out: &mut [u64]) -> u64 {
        add_inner_counts(&self.inner, out)
    }

    fn restore(&mut self, snapshot: &AccumulatorSnapshot) -> Result<()> {
        check_width(
            "restored snapshot width",
            self.report_len(),
            snapshot.report_len(),
        )?;
        self.inner = CountAccumulator::from_snapshot(snapshot);
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
    fn report_len(&self) -> usize {
        self.inner.counts().len()
    }

    fn num_users(&self) -> u64 {
        self.inner.num_users()
    }

    fn accumulate(&mut self, report: Report<'_>) -> Result<()> {
        match report {
            // Both the wire set and its k-hot membership vector go through
            // the one shared fold (`Report::fold_into`), which validates
            // range, distinctness, and the pinned cardinality before
            // counting anything.
            Report::ItemSet(_) | Report::Packed(_) => self.inner.fold_report(report, self.k),
            other => Err(wrong_shape("item-set", &other, self.report_len())),
        }
    }

    /// Batch fold: validates every report (width, domain, distinctness,
    /// pinned cardinality) before any bucket moves, then applies the
    /// member increments — a batch containing any invalid report counts
    /// nothing.
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

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        check_width(
            "accumulator merge width",
            self.report_len(),
            other.report_len(),
        )?;
        check_width("accumulator item-set cardinality", self.k, other.k)?;
        self.inner.merge(&other.inner);
        Ok(())
    }

    fn snapshot(&self) -> AccumulatorSnapshot {
        self.inner.snapshot()
    }

    fn add_counts_into(&self, out: &mut [u64]) -> u64 {
        add_inner_counts(&self.inner, out)
    }

    fn restore(&mut self, snapshot: &AccumulatorSnapshot) -> Result<()> {
        check_width(
            "restored snapshot width",
            self.report_len(),
            snapshot.report_len(),
        )?;
        self.inner = CountAccumulator::from_snapshot(snapshot);
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
/// acc.accumulate(Report::Hashed { seed: 7, value: 1 }).unwrap();
/// assert_eq!(acc.num_users(), 1);
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

    /// The shape this accumulator ingests.
    pub fn shape(&self) -> ReportShape {
        match self {
            Self::Bits(_) => ReportShape::Bits,
            Self::Value(_) => ReportShape::Value,
            Self::Hashed(h) => ReportShape::Hashed {
                range: h.hash_range(),
            },
            Self::ItemSet(a) => ReportShape::ItemSet { k: a.cardinality() },
        }
    }
}

impl ReportAccumulator for ShapedAccumulator {
    fn report_len(&self) -> usize {
        match self {
            Self::Bits(a) => a.report_len(),
            Self::Value(a) => a.report_len(),
            Self::Hashed(a) => a.report_len(),
            Self::ItemSet(a) => a.report_len(),
        }
    }

    fn num_users(&self) -> u64 {
        match self {
            Self::Bits(a) => a.num_users(),
            Self::Value(a) => a.num_users(),
            Self::Hashed(a) => a.num_users(),
            Self::ItemSet(a) => a.num_users(),
        }
    }

    fn accumulate(&mut self, report: Report<'_>) -> Result<()> {
        match self {
            Self::Bits(a) => a.accumulate(report),
            Self::Value(a) => a.accumulate(report),
            Self::Hashed(a) => a.accumulate(report),
            Self::ItemSet(a) => a.accumulate(report),
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

    fn merge_from(&mut self, other: &Self) -> Result<()> {
        match (self, other) {
            (Self::Bits(a), Self::Bits(b)) => a.merge_from(b),
            (Self::Value(a), Self::Value(b)) => a.merge_from(b),
            (Self::Hashed(a), Self::Hashed(b)) => a.merge_from(b),
            (Self::ItemSet(a), Self::ItemSet(b)) => a.merge_from(b),
            (me, other) => Err(Error::ParameterOrdering {
                detail: format!(
                    "cannot merge accumulators of different shapes ({:?} vs {:?})",
                    me.shape(),
                    other.shape()
                ),
            }),
        }
    }

    fn snapshot(&self) -> AccumulatorSnapshot {
        match self {
            Self::Bits(a) => a.snapshot(),
            Self::Value(a) => a.snapshot(),
            Self::Hashed(a) => a.snapshot(),
            Self::ItemSet(a) => a.snapshot(),
        }
    }

    fn add_counts_into(&self, out: &mut [u64]) -> u64 {
        match self {
            Self::Bits(a) => a.add_counts_into(out),
            Self::Value(a) => a.add_counts_into(out),
            Self::Hashed(a) => a.add_counts_into(out),
            Self::ItemSet(a) => a.add_counts_into(out),
        }
    }

    fn restore(&mut self, snapshot: &AccumulatorSnapshot) -> Result<()> {
        match self {
            Self::Bits(a) => a.restore(snapshot),
            Self::Value(a) => a.restore(snapshot),
            Self::Hashed(a) => a.restore(snapshot),
            Self::ItemSet(a) => a.restore(snapshot),
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

    #[test]
    fn bit_accumulator_counts_and_merges() {
        let mut a = BitReportAccumulator::new(3);
        let mut b = BitReportAccumulator::new(3);
        let mut seq = BitReportAccumulator::new(3);
        let reports: [[u8; 3]; 4] = [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]];
        for (i, r) in reports.iter().enumerate() {
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            let r = packed(r);
            target.accumulate(Report::Packed(&r)).unwrap();
            seq.accumulate(Report::Packed(&r)).unwrap();
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.snapshot(), seq.snapshot());
        assert_eq!(a.num_users(), 4);
        assert_eq!(a.snapshot().counts(), &[2, 2, 3]);
    }

    #[test]
    fn bit_accumulator_rejects_bad_shapes() {
        let mut a = BitReportAccumulator::new(3);
        assert!(a.accumulate(Report::Packed(&packed(&[1, 0]))).is_err());
        assert!(a.accumulate(Report::Value(1)).is_err());
        assert!(a.accumulate(Report::Hashed { seed: 1, value: 0 }).is_err());
        assert!(a.accumulate(Report::ItemSet(&[0])).is_err());
        let b = BitReportAccumulator::new(4);
        assert!(a.merge_from(&b).is_err());
        assert_eq!(a.num_users(), 0, "failed accumulations count nothing");
    }

    #[test]
    fn one_hot_accumulator_accepts_both_shapes() {
        let mut a = OneHotReportAccumulator::new(4);
        a.accumulate(Report::Value(2)).unwrap();
        a.accumulate(Report::Packed(&packed(&[0, 0, 1, 0])))
            .unwrap();
        a.accumulate(Report::Packed(&packed(&[1, 0, 0, 0])))
            .unwrap();
        let snap = a.snapshot();
        assert_eq!(snap.counts(), &[1, 0, 2, 0]);
        assert_eq!(snap.num_users(), 3);
    }

    #[test]
    fn one_hot_accumulator_rejects_invalid() {
        let mut a = OneHotReportAccumulator::new(3);
        assert!(a.accumulate(Report::Value(3)).is_err());
        assert!(a.accumulate(Report::Packed(&packed(&[0, 0, 0]))).is_err());
        assert!(a.accumulate(Report::Packed(&packed(&[1, 1, 0]))).is_err());
        assert!(a.accumulate(Report::Packed(&packed(&[1, 0]))).is_err());
        assert!(a.accumulate(Report::ItemSet(&[1])).is_err());
        assert_eq!(a.num_users(), 0);
    }

    #[test]
    fn hashed_accumulator_folds_through_shared_hash() {
        let (m, g) = (6usize, 3usize);
        let mut a = HashedReportAccumulator::new(m, g);
        assert_eq!(a.hash_range(), g);
        let (seed, value) = (99u64, 1usize);
        a.accumulate(Report::Hashed { seed, value }).unwrap();
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
        via_bits.accumulate(Report::Packed(&packed(&bits))).unwrap();
        assert_eq!(via_bits.snapshot(), snap);
    }

    #[test]
    fn hashed_accumulator_rejects_invalid() {
        let mut a = HashedReportAccumulator::new(4, 3);
        assert!(a.accumulate(Report::Hashed { seed: 1, value: 3 }).is_err());
        assert!(a.accumulate(Report::Value(1)).is_err());
        assert!(a.accumulate(Report::ItemSet(&[0])).is_err());
        assert!(a.accumulate(Report::Packed(&packed(&[1, 0]))).is_err());
        assert_eq!(a.num_users(), 0);
        // Merging across hash ranges is refused (folds would disagree).
        let b = HashedReportAccumulator::new(4, 5);
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn item_set_accumulator_counts_members_once() {
        let mut a = ItemSetReportAccumulator::new(5);
        a.accumulate(Report::ItemSet(&[0, 3])).unwrap();
        a.accumulate(Report::ItemSet(&[3])).unwrap();
        a.accumulate(Report::Packed(&packed(&[0, 1, 0, 1, 0])))
            .unwrap();
        let snap = a.snapshot();
        assert_eq!(snap.counts(), &[1, 1, 0, 3, 0]);
        assert_eq!(snap.num_users(), 3);
    }

    #[test]
    fn item_set_accumulator_rejects_invalid() {
        let mut a = ItemSetReportAccumulator::new(3);
        assert!(a.accumulate(Report::ItemSet(&[3])).is_err());
        assert!(a.accumulate(Report::ItemSet(&[1, 1])).is_err());
        assert!(a.accumulate(Report::Value(0)).is_err());
        assert!(a.accumulate(Report::Hashed { seed: 0, value: 0 }).is_err());
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
            acc.accumulate(data.as_report()).unwrap();
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
        a.accumulate(Report::ItemSet(&[0, 3])).unwrap();
        assert!(a.accumulate(Report::ItemSet(&[1])).is_err());
        assert!(a.accumulate(Report::ItemSet(&[1, 2, 4])).is_err());
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
        // The core batched-fold guarantee: accumulate_batch is
        // bit-identical to sequential accumulate, for every shape, with
        // enough bit rows to cross a SWAR spill boundary.
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

        let mut seq = BitReportAccumulator::new(m);
        for r in &bit_reports {
            seq.accumulate(*r).unwrap();
        }
        let mut batched = BitReportAccumulator::new(m);
        batched.accumulate_batch(&bit_reports).unwrap();
        assert_eq!(batched.snapshot(), seq.snapshot());

        let mut seq = OneHotReportAccumulator::new(m);
        let mut batched = OneHotReportAccumulator::new(m);
        let values: Vec<Report<'_>> = (0..40).map(|v| Report::Value(v % m)).collect();
        for r in &values {
            seq.accumulate(*r).unwrap();
        }
        batched.accumulate_batch(&values).unwrap();
        assert_eq!(batched.snapshot(), seq.snapshot());

        // Hashed: repeated seeds exercise the preimage-cache hit path, and
        // a mixed-in pre-folded bits row exercises the packed-row path.
        let g = 3usize;
        let hashed: Vec<Report<'_>> = (0..300u64)
            .map(|i| Report::Hashed {
                seed: i % 7,
                value: (i % g as u64) as usize,
            })
            .chain(std::iter::once(Report::Packed(&bit_rows[0])))
            .collect();
        let mut seq = HashedReportAccumulator::new(m, g);
        for r in &hashed {
            seq.accumulate(*r).unwrap();
        }
        let mut batched = HashedReportAccumulator::new(m, g);
        batched.accumulate_batch(&hashed).unwrap();
        assert_eq!(batched.snapshot(), seq.snapshot());
        assert!(batched.preimage_cache().hits() > 0, "repeated seeds hit");

        let sets: Vec<Vec<usize>> = (0..30usize).map(|i| vec![i % m, (i + 3) % m]).collect();
        let set_reports: Vec<Report<'_>> = sets
            .iter()
            .map(|s| Report::ItemSet(s))
            .chain(std::iter::once(Report::Packed(&bit_rows[1])))
            .collect();
        let mut seq = ItemSetReportAccumulator::new(m);
        for r in &set_reports {
            seq.accumulate(*r).unwrap();
        }
        let mut batched = ItemSetReportAccumulator::new(m);
        batched.accumulate_batch(&set_reports).unwrap();
        assert_eq!(batched.snapshot(), seq.snapshot());
    }

    /// Every accumulator that takes bit reports folds packed reports to
    /// the counts of their 0/1 rows, one at a time and batched, at every
    /// width across the 64-slot word and 128/129 inline/heap edges.
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

                let mut seq = ShapedAccumulator::for_shape(shape, m);
                for (row, bits) in rows.iter().zip(&reports) {
                    assert_eq!(
                        seq.accumulate(Report::Packed(bits)).is_ok(),
                        takes(row),
                        "{shape:?} m={m}"
                    );
                }
                assert_eq!(seq.snapshot().counts(), want, "{shape:?} m={m}");
                assert_eq!(seq.num_users(), taken.len() as u64, "{shape:?} m={m}");

                let views: Vec<Report<'_>> =
                    taken.iter().map(|&r| Report::Packed(&reports[r])).collect();
                let mut batched = ShapedAccumulator::for_shape(shape, m);
                batched.accumulate_batch(&views).unwrap();
                assert_eq!(batched, seq, "{shape:?} m={m}");
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
        a.accumulate(Report::Value(1)).unwrap();
        a.accumulate(Report::Value(1)).unwrap();
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
