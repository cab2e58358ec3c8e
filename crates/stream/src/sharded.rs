//! Striped sharding over any [`ReportAccumulator`].
//!
//! A single mutex around one accumulator would serialize every ingestion
//! thread; [`ShardedAccumulator`] stripes the state across `N` shards, each
//! behind its own lock, and fans incoming report batches over them
//! round-robin.
//! Writers contend only `1/N` of the time, and because accumulator merges
//! are exact (integer counts), the merged view — materialized on demand by
//! [`ShardedAccumulator::snapshot`] — is identical for every shard count
//! and every interleaving of writers. The streaming conformance suite
//! asserts exactly that against the batch pipeline for all eight mechanisms.

use crate::accumulator::{Report, ReportAccumulator};
use idldp_core::error::{Error, Result};
use idldp_core::mechanism::CountAccumulator;
use idldp_core::report::CheckedReports;
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
/// // Four GRR-style categorical buckets across 3 shards, one batch per
/// // arriving frame.
/// let sharded = ShardedAccumulator::new(OneHotReportAccumulator::new(4), 3);
/// for frame in [&[0, 2][..], &[2, 3, 1], &[2]] {
///     let reports: Vec<Report> = frame.iter().map(|&v| Report::Value(v)).collect();
///     sharded.push_batch(&reports).unwrap();
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
    /// Creates `num_shards` shards from an empty `prototype`: the
    /// prototype itself becomes shard 0, and every other shard is a copy
    /// of it on a fresh zero row of the same width.
    ///
    /// The prototype's count row is never copied. It is set aside while
    /// the other shards are cloned around a one-bucket placeholder, so at
    /// a wide domain no shard's construction writes, or faults in, a page
    /// of zeros: each row's pages are first touched by the fold (or the
    /// restore) that fills them.
    ///
    /// # Panics
    /// Panics if `num_shards == 0` or the prototype already holds users
    /// (its state lands in shard 0, and a restore would then double-count
    /// it).
    pub fn new(mut prototype: A, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert_eq!(
            prototype.num_users(),
            0,
            "shard prototype must be an empty accumulator"
        );
        let width = prototype.report_len();
        let row = std::mem::replace(prototype.count_state_mut(), CountAccumulator::new(1));
        debug_assert!(
            row.counts().iter().all(|&c| c == 0),
            "shard prototype must hold zero counts"
        );
        let mut shards: Vec<Mutex<A>> = Vec::with_capacity(num_shards);
        shards.extend((1..num_shards).map(|_| {
            let mut shard = prototype.clone();
            *shard.count_state_mut() = CountAccumulator::new(width);
            Mutex::new(shard)
        }));
        *prototype.count_state_mut() = row;
        shards.insert(0, Mutex::new(prototype));
        Self {
            shards,
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

    /// Folds a whole batch of reports (one transport frame, one stream
    /// chunk) into the next shard (round-robin) under one lock
    /// acquisition, through the accumulator's atomic
    /// [`ReportAccumulator::accumulate_batch`]: one frame costs one cursor
    /// bump, one lock, and one batched fold.
    ///
    /// Counts are identical for every batching and shard placement (the
    /// exact-merge law), and a batch containing any invalid report counts
    /// nothing.
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

    /// Folds a batch the collector admitted ([`CheckedReports`]) into the
    /// next shard (round-robin) under one lock acquisition, straight from
    /// its bytes ([`ReportAccumulator::accumulate_checked`]): the
    /// collector's ingest path, with no report checked again. Counts
    /// equal [`Self::push_batch`] of the decoded reports.
    ///
    /// # Errors
    /// The batch was checked against another shape or width than the
    /// shards'; nothing is counted, and the round-robin cursor still
    /// advances.
    pub fn push_checked(&self, batch: &CheckedReports) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[shard].lock().accumulate_checked(batch)
    }

    /// Merges a locally accumulated `A` (e.g. a worker's chunk state) into
    /// the next shard in one lock acquisition — the pre-folded sibling of
    /// [`Self::push_batch`].
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
    /// One preallocated buffer, one pass: each shard adds its counts
    /// ([`ReportAccumulator::count_state`]) into the same vector under its
    /// own lock, instead of allocating an intermediate snapshot per shard
    /// and merging pairwise. Every shard has the prototype's width.
    pub fn snapshot(&self) -> AccumulatorSnapshot {
        let mut counts = vec![0u64; self.report_len()];
        let mut users = 0u64;
        for shard in &self.shards {
            let shard = shard.lock();
            let state = shard.count_state();
            for (c, &s) in counts.iter_mut().zip(state.counts()) {
                *c += s;
            }
            users += state.num_users();
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

    /// Restores checkpointed state into shard 0 of an **empty** sharding —
    /// the restart-recovery path. A snapshot has no per-shard structure and
    /// needs none (merge order is irrelevant), so the other shards simply
    /// start from zero.
    ///
    /// An owned snapshot's count vector becomes shard 0's row as it is
    /// (the restored counts are not copied into a second row); a borrowed
    /// one is copied once.
    ///
    /// # Errors
    /// Returns an error if the snapshot width differs, or if any shard
    /// already holds users (restoring over live counts would double-count;
    /// build a fresh `ShardedAccumulator` to restore into).
    pub fn restore(&self, snapshot: impl Into<AccumulatorSnapshot>) -> Result<()> {
        if self.num_users() != 0 {
            return Err(Error::ParameterOrdering {
                detail: "restore requires empty shards (counts already present)".into(),
            });
        }
        self.shards[0].lock().restore(snapshot.into())
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

    fn rows(n: u32) -> Vec<PackedBits> {
        (0..n)
            .map(|i| packed(&[(i % 2) as u8, ((i / 2) % 2) as u8, ((i / 4) % 2) as u8]))
            .collect()
    }

    #[test]
    fn round_robin_covers_all_shards() {
        let sharded = ShardedAccumulator::new(BitReportAccumulator::new(2), 4);
        let row = packed(&[1, 0]);
        for _ in 0..8 {
            sharded.push_batch(&[Report::Packed(&row)]).unwrap();
        }
        assert_eq!(sharded.num_users(), 8);
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.report_len(), 2);
        let snap = sharded.snapshot();
        assert_eq!(snap.counts(), &[8, 0]);
        // Every shard saw exactly 2 reports.
        for shard in sharded.snapshot_shards() {
            assert_eq!(shard.num_users(), 2);
        }
    }

    #[test]
    fn shard_count_does_not_change_counts() {
        let rows = rows(100);
        let reports: Vec<Report<'_>> = rows.iter().map(Report::Packed).collect();
        let mut reference: Option<AccumulatorSnapshot> = None;
        for shards in [1, 2, 3, 7, 100, 128] {
            let sharded = ShardedAccumulator::new(BitReportAccumulator::new(3), shards);
            for batch in reports.chunks(shards) {
                sharded.push_batch(batch).unwrap();
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
    fn failed_batch_counts_nothing_and_advances_the_cursor() {
        let sharded = ShardedAccumulator::new(BitReportAccumulator::new(2), 2);
        let (good, narrow) = (packed(&[0, 1]), packed(&[1]));
        assert!(sharded
            .push_batch(&[Report::Packed(&good), Report::Packed(&narrow)])
            .is_err());
        assert_eq!(sharded.num_users(), 0);
        // The refused batch still took shard 0's turn: the next one lands
        // on shard 1, so one malformed frame cannot pin a shard.
        sharded.push_batch(&[Report::Packed(&good)]).unwrap();
        let shards = sharded.snapshot_shards();
        assert_eq!(shards[0].num_users(), 0);
        assert_eq!(shards[1].num_users(), 1);
    }

    #[test]
    fn push_batch_matches_per_report_pushes() {
        let rows = rows(90);
        let reports: Vec<Report<'_>> = rows.iter().map(Report::Packed).collect();

        let per_report = ShardedAccumulator::new(BitReportAccumulator::new(3), 4);
        for r in &reports {
            per_report.push_batch(std::slice::from_ref(r)).unwrap();
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
        let (a, b, c) = (packed(&[1, 1]), packed(&[1, 0]), packed(&[0, 1]));
        local
            .accumulate_batch(&[Report::Packed(&a), Report::Packed(&b)])
            .unwrap();
        sharded.absorb(&local).unwrap();
        sharded.push_batch(&[Report::Packed(&c)]).unwrap();
        let snap = sharded.snapshot();
        assert_eq!(snap.counts(), &[2, 2]);
        assert_eq!(snap.num_users(), 3);
    }

    #[test]
    fn restore_then_continue() {
        let checkpoint = AccumulatorSnapshot::new(vec![5, 7], 12).unwrap();
        let sharded = ShardedAccumulator::new(BitReportAccumulator::new(2), 3);
        sharded.restore(&checkpoint).unwrap();
        sharded
            .push_batch(&[Report::Packed(&packed(&[1, 0]))])
            .unwrap();
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
        let rows = rows(100);
        let reports: Vec<Report<'_>> = rows.iter().map(Report::Packed).collect();
        for batch in reports.chunks(3) {
            source.push_batch(batch).unwrap();
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
        let ones = packed(&[1, 1, 1]);
        for shards in [1, 3, 5, 8] {
            let target = ShardedAccumulator::new(BitReportAccumulator::new(3), shards);
            target.restore(&merged).unwrap();
            assert_eq!(target.snapshot(), want, "restore into {shards} shards");
            // The restored sharding keeps accepting reports.
            target.push_batch(&[Report::Packed(&ones)]).unwrap();
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
                    let batch = [Report::Packed(&report); 10];
                    for _ in 0..100 {
                        sharded.push_batch(&batch).unwrap();
                    }
                });
            }
        });
        let snap = sharded.snapshot();
        assert_eq!(snap.num_users(), 4000);
        assert_eq!(snap.counts(), &[2000, 2000]);
    }

    /// Every shard of a wide sharding has the prototype's shape and
    /// width and starts at zero, though only the prototype's own row was
    /// built by the caller.
    #[test]
    fn new_gives_every_shard_a_zero_row_of_the_prototype_width() {
        use crate::accumulator::ShapedAccumulator;
        use idldp_core::report::ReportShape;
        let m = 100_000;
        for shape in [
            ReportShape::Value,
            ReportShape::Hashed { range: 5 },
            ReportShape::ItemSet { k: 3 },
        ] {
            let sharded = ShardedAccumulator::new(ShapedAccumulator::for_shape(shape, m), 8);
            assert_eq!(sharded.num_shards(), 8);
            for (i, shard) in sharded.shards.iter().enumerate() {
                let shard = shard.lock();
                assert_eq!(shard.shape(), shape, "shard {i}");
                assert_eq!(shard.report_len(), m, "shard {i}");
                assert_eq!(shard.num_users(), 0, "shard {i}");
                assert!(shard.count_state().counts().iter().all(|&c| c == 0));
            }
            // Each shard folds into its own row.
            for item in 0..8 {
                let report = match shape {
                    ReportShape::Hashed { .. } => Report::Hashed {
                        seed: item,
                        value: 1,
                    },
                    ReportShape::ItemSet { .. } => Report::ItemSet(&[0, 1, m - 1]),
                    _ => Report::Value(m - 1),
                };
                sharded.push_batch(&[report]).unwrap();
            }
            for part in sharded.snapshot_shards() {
                assert_eq!(part.num_users(), 1, "{shape:?}");
            }
        }
    }

    /// A restored checkpoint, snapshotted again, writes the same bytes.
    #[test]
    fn restore_then_snapshot_is_bit_identical_to_the_checkpoint() {
        use crate::accumulator::OneHotReportAccumulator;
        let m = 100_000;
        let counts: Vec<u64> = (0..m as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 64))
            .collect();
        let text = AccumulatorSnapshot::new(counts, 200_000)
            .unwrap()
            .to_checkpoint_string();
        for shards in [1, 8] {
            let restored = AccumulatorSnapshot::from_checkpoint_str(&text).unwrap();
            let sharded = ShardedAccumulator::new(OneHotReportAccumulator::new(m), shards);
            sharded.restore(restored).unwrap();
            assert_eq!(sharded.snapshot().to_checkpoint_string(), text);
        }
    }

    #[test]
    #[should_panic(expected = "shard prototype must be an empty accumulator")]
    fn prototype_with_users_panics() {
        let mut prototype = BitReportAccumulator::new(2);
        let row = packed(&[1, 0]);
        prototype.accumulate_batch(&[Report::Packed(&row)]).unwrap();
        let _ = ShardedAccumulator::new(prototype, 4);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedAccumulator::new(BitReportAccumulator::new(2), 0);
    }
}
