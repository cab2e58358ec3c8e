//! Striped sharding over any [`ReportAccumulator`].
//!
//! A single mutex around one accumulator would serialize every ingestion
//! thread; [`ShardedAccumulator`] stripes the state across `N` shards, each
//! behind its own lock, and fans incoming reports over them round-robin.
//! Writers contend only `1/N` of the time, and because accumulator merges
//! are exact (integer counts), the merged view — materialized on demand by
//! [`ShardedAccumulator::snapshot`] — is identical for every shard count
//! and every interleaving of writers. The streaming conformance suite
//! asserts exactly that against the batch pipeline for all eight mechanisms.

use crate::accumulator::{Report, ReportAccumulator};
use idldp_core::error::{Error, Result};
use idldp_core::snapshot::AccumulatorSnapshot;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default shard count: enough stripes to keep a few ingestion threads from
/// colliding without bloating the merged snapshot work.
pub const DEFAULT_SHARDS: usize = 8;

/// `N` independently locked accumulator shards with round-robin fan-out
/// and exact merge-on-demand.
///
/// # Examples
/// ```
/// use idldp_stream::{Report, ShardedAccumulator, OneHotReportAccumulator};
///
/// // Four GRR-style categorical buckets across 3 shards.
/// let sharded = ShardedAccumulator::new(OneHotReportAccumulator::new(4), 3);
/// for value in [0, 2, 2, 3, 1, 2] {
///     sharded.push(Report::Value(value)).unwrap();
/// }
/// let snapshot = sharded.snapshot();
/// assert_eq!(snapshot.counts(), &[1, 1, 3, 1]);
/// assert_eq!(snapshot.num_users(), 6);
/// ```
pub struct ShardedAccumulator<A> {
    shards: Vec<Mutex<A>>,
    next: AtomicUsize,
}

impl<A: ReportAccumulator + Clone> ShardedAccumulator<A> {
    /// Creates `num_shards` shards, each a clone of the (empty)
    /// `prototype`.
    ///
    /// # Panics
    /// Panics if `num_shards == 0` or the prototype already holds users
    /// (cloning non-empty state into every shard would multiply it).
    pub fn new(prototype: A, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert_eq!(
            prototype.num_users(),
            0,
            "shard prototype must be an empty accumulator"
        );
        Self {
            shards: (0..num_shards)
                .map(|_| Mutex::new(prototype.clone()))
                .collect(),
            next: AtomicUsize::new(0),
        }
    }
}

impl<A: ReportAccumulator> ShardedAccumulator<A> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Report width accepted by every shard.
    pub fn report_len(&self) -> usize {
        self.shards[0].lock().report_len()
    }

    /// Total users absorbed across all shards.
    pub fn num_users(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().num_users()).sum()
    }

    /// Folds one report into the next shard (round-robin), locking only
    /// that shard.
    ///
    /// # Errors
    /// Propagates the shard accumulator's shape/width errors; the
    /// round-robin cursor still advances, so one malformed report cannot
    /// pin a shard.
    pub fn push(&self, report: Report<'_>) -> Result<()> {
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[shard].lock().accumulate(report)
    }

    /// Folds a whole batch of reports (one transport frame, one stream
    /// chunk) into a single shard under one lock acquisition, through the
    /// accumulator's atomic [`ReportAccumulator::accumulate_batch`] — the
    /// ingestion fast path: one frame costs one cursor bump, one lock, and
    /// one batched fold instead of per-report round trips.
    ///
    /// Counts are bit-identical to pushing each report individually (the
    /// exact-merge law makes shard placement irrelevant), and a batch
    /// containing any invalid report counts nothing.
    ///
    /// # Errors
    /// Returns the first report's validation error; the round-robin cursor
    /// still advances.
    pub fn push_batch(&self, reports: &[Report<'_>]) -> Result<()> {
        if reports.is_empty() {
            return Ok(());
        }
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[shard].lock().accumulate_batch(reports)
    }

    /// Folds one report into an explicit shard — for callers that partition
    /// upstream (e.g. one network listener per shard) instead of
    /// round-robin.
    ///
    /// # Errors
    /// Returns an error if `shard >= num_shards` or the report is invalid.
    pub fn push_to(&self, shard: usize, report: Report<'_>) -> Result<()> {
        let slot = self
            .shards
            .get(shard)
            .ok_or_else(|| Error::IndexOutOfRange {
                what: "shard index".into(),
                index: shard,
                bound: self.shards.len(),
            })?;
        slot.lock().accumulate(report)
    }

    /// Merges a locally accumulated `A` (e.g. a worker's chunk state) into
    /// the next shard in one lock acquisition — the batch-sized sibling of
    /// [`Self::push`].
    ///
    /// # Errors
    /// Returns an error if the widths differ.
    pub fn absorb(&self, local: &A) -> Result<()> {
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[shard].lock().merge_from(local)
    }

    /// Freezes the merged view of all shards — counts and user totals are
    /// exact sums, identical for any shard count and writer interleaving.
    ///
    /// One preallocated buffer, one pass: each shard adds its counts into
    /// the same vector under its own lock
    /// ([`ReportAccumulator::add_counts_into`]), instead of allocating an
    /// intermediate snapshot per shard and merging pairwise.
    pub fn snapshot(&self) -> AccumulatorSnapshot {
        let mut counts = vec![0u64; self.report_len()];
        let mut users = 0u64;
        for shard in &self.shards {
            users += shard.lock().add_counts_into(&mut counts);
        }
        AccumulatorSnapshot::new(counts, users).expect("shards have nonzero width")
    }

    /// Freezes every shard separately — one snapshot per shard, no merge.
    /// The exact-merge law guarantees the merged view of the parts equals
    /// [`Self::snapshot`] of the whole, so a checkpoint store may merge
    /// them and a restore lands the sum in any shard count.
    pub fn snapshot_shards(&self) -> Vec<AccumulatorSnapshot> {
        self.shards.iter().map(|s| s.lock().snapshot()).collect()
    }

    /// Consumes the sharding, returning one fully merged accumulator.
    pub fn into_merged(self) -> A {
        let mut shards = self.shards.into_iter().map(Mutex::into_inner);
        let mut merged = shards.next().expect("at least one shard");
        for shard in shards {
            merged
                .merge_from(&shard)
                .expect("shards share one width by construction");
        }
        merged
    }

    /// Restores checkpointed state into shard 0 of an **empty** sharding —
    /// the restart-recovery path. A snapshot has no per-shard structure and
    /// needs none (merge order is irrelevant), so the other shards simply
    /// start from zero.
    ///
    /// # Errors
    /// Returns an error if the snapshot width differs, or if any shard
    /// already holds users (restoring over live counts would double-count;
    /// build a fresh `ShardedAccumulator` to restore into).
    pub fn restore(&self, snapshot: &AccumulatorSnapshot) -> Result<()> {
        if self.num_users() != 0 {
            return Err(Error::ParameterOrdering {
                detail: "restore requires empty shards (counts already present)".into(),
            });
        }
        self.shards[0].lock().restore(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::BitReportAccumulator;
    use idldp_core::report::PackedBits;

    fn packed(slots: &[u8]) -> PackedBits {
        PackedBits::from_slots(slots).unwrap()
    }

    #[test]
    fn round_robin_covers_all_shards() {
        let sharded = ShardedAccumulator::new(BitReportAccumulator::new(2), 4);
        for _ in 0..8 {
            sharded.push(Report::Packed(&packed(&[1, 0]))).unwrap();
        }
        assert_eq!(sharded.num_users(), 8);
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.report_len(), 2);
        let snap = sharded.snapshot();
        assert_eq!(snap.counts(), &[8, 0]);
        // Every shard saw exactly 2 reports.
        let merged = sharded.into_merged();
        assert_eq!(merged.num_users(), 8);
    }

    #[test]
    fn shard_count_does_not_change_counts() {
        let reports: Vec<PackedBits> = (0..100)
            .map(|i| packed(&[(i % 2) as u8, ((i / 2) % 2) as u8, ((i / 4) % 2) as u8]))
            .collect();
        let mut reference: Option<AccumulatorSnapshot> = None;
        for shards in [1, 2, 3, 7, 100, 128] {
            let sharded = ShardedAccumulator::new(BitReportAccumulator::new(3), shards);
            for r in &reports {
                sharded.push(Report::Packed(r)).unwrap();
            }
            let snap = sharded.snapshot();
            if let Some(ref want) = reference {
                assert_eq!(&snap, want, "shards = {shards}");
            } else {
                reference = Some(snap);
            }
        }
    }

    #[test]
    fn push_to_and_errors() {
        let sharded = ShardedAccumulator::new(BitReportAccumulator::new(2), 2);
        sharded
            .push_to(1, Report::Packed(&packed(&[0, 1])))
            .unwrap();
        assert!(sharded
            .push_to(2, Report::Packed(&packed(&[0, 1])))
            .is_err());
        assert!(sharded.push(Report::Packed(&packed(&[1]))).is_err());
        assert_eq!(sharded.num_users(), 1);
    }

    #[test]
    fn push_batch_matches_per_report_pushes() {
        let rows: Vec<PackedBits> = (0..90)
            .map(|i| packed(&[(i % 2) as u8, ((i / 2) % 2) as u8, ((i / 4) % 2) as u8]))
            .collect();
        let reports: Vec<Report<'_>> = rows.iter().map(Report::Packed).collect();

        let per_report = ShardedAccumulator::new(BitReportAccumulator::new(3), 4);
        for r in &reports {
            per_report.push(*r).unwrap();
        }
        let batched = ShardedAccumulator::new(BitReportAccumulator::new(3), 4);
        for chunk in reports.chunks(7) {
            batched.push_batch(chunk).unwrap();
        }
        assert_eq!(batched.snapshot(), per_report.snapshot());

        // An invalid report anywhere in a batch counts nothing.
        let before = batched.snapshot();
        assert!(batched
            .push_batch(&[
                Report::Packed(&packed(&[1, 0, 1])),
                Report::Packed(&packed(&[1, 0]))
            ])
            .is_err());
        assert_eq!(batched.snapshot(), before);
        batched.push_batch(&[]).unwrap();
        assert_eq!(batched.snapshot(), before, "empty batch is a no-op");
    }

    #[test]
    fn absorb_merges_worker_state() {
        let sharded = ShardedAccumulator::new(BitReportAccumulator::new(2), 3);
        let mut local = BitReportAccumulator::new(2);
        local.accumulate(Report::Packed(&packed(&[1, 1]))).unwrap();
        local.accumulate(Report::Packed(&packed(&[1, 0]))).unwrap();
        sharded.absorb(&local).unwrap();
        sharded.push(Report::Packed(&packed(&[0, 1]))).unwrap();
        let snap = sharded.snapshot();
        assert_eq!(snap.counts(), &[2, 2]);
        assert_eq!(snap.num_users(), 3);
    }

    #[test]
    fn restore_then_continue() {
        let checkpoint = AccumulatorSnapshot::new(vec![5, 7], 12).unwrap();
        let sharded = ShardedAccumulator::new(BitReportAccumulator::new(2), 3);
        sharded.restore(&checkpoint).unwrap();
        sharded.push(Report::Packed(&packed(&[1, 0]))).unwrap();
        let snap = sharded.snapshot();
        assert_eq!(snap.counts(), &[6, 7]);
        assert_eq!(snap.num_users(), 13);
        // Restoring over live counts is refused.
        assert!(sharded.restore(&checkpoint).is_err());
        // So is a snapshot of another width.
        let fresh = ShardedAccumulator::new(BitReportAccumulator::new(2), 3);
        let wrong = AccumulatorSnapshot::new(vec![1, 2, 3], 1).unwrap();
        assert!(fresh.restore(&wrong).is_err());
    }

    #[test]
    fn shard_snapshots_restore_across_any_shard_count() {
        let source = ShardedAccumulator::new(BitReportAccumulator::new(3), 5);
        for i in 0..100u32 {
            let row = packed(&[(i % 2) as u8, ((i / 2) % 2) as u8, ((i / 4) % 2) as u8]);
            source.push(Report::Packed(&row)).unwrap();
        }
        let want = source.snapshot();
        let parts = source.snapshot_shards();
        assert_eq!(parts.len(), 5);
        // The merged 5-way split restores into 1, 3, 5, or 8 shards —
        // views identical by the exact-merge law.
        let mut merged = parts[0].clone();
        for part in &parts[1..] {
            merged.merge(part).unwrap();
        }
        for shards in [1, 3, 5, 8] {
            let target = ShardedAccumulator::new(BitReportAccumulator::new(3), shards);
            target.restore(&merged).unwrap();
            assert_eq!(target.snapshot(), want, "restore into {shards} shards");
            // The restored sharding keeps accepting reports.
            target.push(Report::Packed(&packed(&[1, 1, 1]))).unwrap();
            assert_eq!(target.num_users(), want.num_users() + 1);
        }
    }

    #[test]
    fn concurrent_pushes_are_exact() {
        let sharded = ShardedAccumulator::new(BitReportAccumulator::new(2), 4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sharded = &sharded;
                scope.spawn(move || {
                    let report = packed(&[u8::from(t % 2 == 0), u8::from(t % 2 == 1)]);
                    for _ in 0..1000 {
                        sharded.push(Report::Packed(&report)).unwrap();
                    }
                });
            }
        });
        let snap = sharded.snapshot();
        assert_eq!(snap.num_users(), 4000);
        assert_eq!(snap.counts(), &[2000, 2000]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedAccumulator::new(BitReportAccumulator::new(2), 0);
    }
}
