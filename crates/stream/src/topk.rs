//! Online heavy-hitter tracking: the snapshot → prune → re-estimate loop.
//!
//! The batch path identifies heavy hitters *offline*: materialize every
//! report, estimate all `m` frequencies once, sort (`idldp-sim`'s
//! `heavy_hitters::identify_top_k`). [`HeavyHitterTracker`] answers the
//! same question *online*, over millions of streamed reports, without ever
//! holding a report:
//!
//! 1. **snapshot** — every [`HeavyHitterTracker::cadence`] reports the
//!    tracker freezes its [`ShardedAccumulator`] into an
//!    [`AccumulatorSnapshot`] (exact integer merge, any shard count);
//! 2. **re-estimate** — it builds the mechanism's oracle for the snapshot's
//!    user count and runs the incremental
//!    [`idldp_core::mechanism::FrequencyOracle::estimate_from`] path;
//! 3. **prune** — the fresh estimates are cut down to a small candidate
//!    set: the top `k + slack` items ([`TrackerMode::TopK`]) or everything
//!    above a threshold ([`TrackerMode::Threshold`]).
//!
//! Between refreshes the tracker's work is one batched accumulator fold
//! per arriving batch, and queries ([`HeavyHitterTracker::candidates`],
//! [`HeavyHitterTracker::top_k`]) touch only the pruned candidates —
//! steady-state cost is `O(candidates)`, not `O(domain)`; the `O(domain)`
//! estimation bill is paid once per cadence and amortizes to
//! `O(domain / cadence)` per report.
//!
//! ## Equivalence guarantee
//!
//! Because candidates are *recomputed from the full frozen counts* at every
//! refresh (never incrementally patched), the final answer after
//! [`HeavyHitterTracker::finish`] depends only on the final accumulator
//! state — which is bit-identical to a batch run of the same
//! `(mechanism, inputs, seed)` by the streaming conformance contract. The
//! tracker's final top-k therefore **equals** batch `identify_top_k` for
//! every mechanism, every shard count, every snapshot cadence, and every
//! report→shard assignment; `crates/sim/tests/topk_conformance.rs` proves
//! it for all eight mechanisms, and both rankings share the one comparator
//! ([`idldp_num::vecops::top_k_indices`]), so the tie-break rules can never
//! drift apart.
//!
//! ```
//! use idldp_core::budget::Epsilon;
//! use idldp_core::grr::GeneralizedRandomizedResponse;
//! use idldp_core::mechanism::{InputBatch, Mechanism};
//! use idldp_stream::{HeavyHitterTracker, SeededReportStream, TrackerMode};
//!
//! let grr = GeneralizedRandomizedResponse::new(Epsilon::new(3.0).unwrap(), 8).unwrap();
//! let items: Vec<u32> = (0..9000).map(|i| if i % 3 == 0 { (i % 8) as u32 } else { 5 }).collect();
//!
//! let mut tracker = HeavyHitterTracker::for_mechanism(
//!     &grr,
//!     4,                                     // shards
//!     TrackerMode::TopK { k: 2, slack: 2 },  // keep 2 + 2 candidates
//!     1000,                                  // snapshot every 1000 reports
//! )
//! .unwrap();
//! let mut stream = SeededReportStream::new(&grr, InputBatch::Items(&items), 7);
//! while stream.track_chunk(&mut tracker).unwrap() > 0 {}
//! assert_eq!(tracker.finish().unwrap()[0], 5, "item 5 dominates the stream");
//! ```

use crate::accumulator::{Report, ReportAccumulator, ShapedAccumulator};
use crate::sharded::ShardedAccumulator;
use idldp_core::error::{Error, Result};
use idldp_core::mechanism::Mechanism;
use idldp_core::snapshot::AccumulatorSnapshot;
use idldp_num::vecops::top_k_indices;

/// Default snapshot cadence: re-estimate every 4096 reports. Large enough
/// that the `O(domain)` estimation amortizes to well under one fold per
/// report for paper-scale domains, small enough that dashboards see fresh
/// candidates every fraction of a second at realistic ingest rates.
pub const DEFAULT_CADENCE: usize = 4096;

/// What the tracker keeps between refreshes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrackerMode {
    /// Track the `k` largest estimates, retaining `slack` extra runner-up
    /// candidates so items hovering around rank `k` stay visible between
    /// refreshes. Slack never changes the final top-k (candidates are
    /// recomputed from full counts at every refresh); it only widens the
    /// served view.
    TopK {
        /// Number of heavy hitters to identify.
        k: usize,
        /// Extra runner-up candidates retained beyond `k`.
        slack: usize,
    },
    /// Track every item whose estimate is at least `threshold` (an absolute
    /// estimated count, not a fraction).
    Threshold {
        /// Minimum estimate for an item to remain a candidate.
        threshold: f64,
    },
}

/// One tracked item: its index and its estimate at the last refresh.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// Item index in `0..domain_size`.
    pub item: usize,
    /// Estimated count at the most recent refresh.
    pub estimate: f64,
}

/// Online top-k / threshold tracker over any sharded report accumulator.
///
/// See the [module docs](self) for the snapshot → prune → re-estimate loop
/// and the batch-equivalence guarantee. Construct with
/// [`HeavyHitterTracker::for_mechanism`] (shape-dispatched sink) or
/// [`HeavyHitterTracker::new`] (bring your own sharding).
pub struct HeavyHitterTracker<'a, A: ReportAccumulator = ShapedAccumulator> {
    mechanism: &'a dyn Mechanism,
    sink: ShardedAccumulator<A>,
    mode: TrackerMode,
    cadence: usize,
    since_refresh: usize,
    refreshes: u64,
    candidates: Vec<Candidate>,
}

impl<'a> HeavyHitterTracker<'a, ShapedAccumulator> {
    /// A tracker whose sink ingests the mechanism's native wire shape,
    /// striped over `num_shards` shards — the configuration `idldp ingest
    /// --top-k` runs.
    ///
    /// # Errors
    /// Same conditions as [`Self::new`].
    ///
    /// # Panics
    /// Panics if `num_shards == 0` (the [`ShardedAccumulator`] contract).
    pub fn for_mechanism(
        mechanism: &'a dyn Mechanism,
        num_shards: usize,
        mode: TrackerMode,
        cadence: usize,
    ) -> Result<Self> {
        Self::new(
            mechanism,
            ShardedAccumulator::new(ShapedAccumulator::for_mechanism(mechanism), num_shards),
            mode,
            cadence,
        )
    }
}

impl<'a, A: ReportAccumulator> HeavyHitterTracker<'a, A> {
    /// Wraps an existing sharded sink. The sink may already hold users
    /// (e.g. it was restored from a checkpoint); the tracker refreshes
    /// immediately in that case so the served candidates reflect it.
    ///
    /// # Errors
    /// Returns an error if `cadence == 0`, the sink width differs from the
    /// mechanism's report width, or the mode is degenerate (`k == 0`, or a
    /// NaN threshold, under which no item could ever qualify).
    pub fn new(
        mechanism: &'a dyn Mechanism,
        sink: ShardedAccumulator<A>,
        mode: TrackerMode,
        cadence: usize,
    ) -> Result<Self> {
        if cadence == 0 {
            return Err(Error::ParameterOrdering {
                detail: "tracker cadence must be positive".into(),
            });
        }
        match mode {
            TrackerMode::TopK { k: 0, .. } => {
                return Err(Error::ParameterOrdering {
                    detail: "tracker k must be positive".into(),
                })
            }
            TrackerMode::Threshold { threshold } if threshold.is_nan() => {
                return Err(Error::ParameterOrdering {
                    detail: "tracker threshold must not be NaN".into(),
                })
            }
            _ => {}
        }
        if sink.report_len() != mechanism.report_len() {
            return Err(Error::DimensionMismatch {
                what: "tracker sink width".into(),
                expected: mechanism.report_len(),
                actual: sink.report_len(),
            });
        }
        let mut tracker = Self {
            mechanism,
            sink,
            mode,
            cadence,
            since_refresh: 0,
            refreshes: 0,
            candidates: Vec::new(),
        };
        if tracker.sink.num_users() > 0 {
            tracker.refresh()?;
        }
        Ok(tracker)
    }

    /// The tracked mechanism.
    pub fn mechanism(&self) -> &dyn Mechanism {
        self.mechanism
    }

    /// The tracking mode.
    pub fn mode(&self) -> TrackerMode {
        self.mode
    }

    /// Reports between automatic refreshes.
    pub fn cadence(&self) -> usize {
        self.cadence
    }

    /// The wrapped sharded sink (read access — e.g. for checkpointing the
    /// raw snapshot alongside tracker output).
    pub fn sink(&self) -> &ShardedAccumulator<A> {
        &self.sink
    }

    /// Total reports absorbed.
    pub fn num_users(&self) -> u64 {
        self.sink.num_users()
    }

    /// Number of refreshes performed so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// `true` if reports arrived since the last refresh (the served
    /// candidate view is stale).
    pub fn is_dirty(&self) -> bool {
        self.since_refresh > 0 || self.refreshes == 0
    }

    /// Folds a batch of reports (one stream chunk, one frame) into the
    /// sink, refreshing the candidate set at every cadence boundary inside
    /// it. The batch is split at those boundaries, each piece folds
    /// through one [`ShardedAccumulator::push_batch`], and each refresh
    /// therefore lands on exactly the report count that a refresh every
    /// [`Self::cadence`] reports would see, however the stream was
    /// chunked.
    ///
    /// # Errors
    /// Propagates sink shape/width errors and refresh errors. Each piece
    /// folds atomically: the piece holding an invalid report counts
    /// nothing and does not advance the cadence counter, while pieces
    /// before it stay counted.
    pub fn push_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        let mut rest = reports;
        while !rest.is_empty() {
            let take = rest.len().min(self.cadence - self.since_refresh);
            let (piece, tail) = rest.split_at(take);
            self.sink.push_batch(piece)?;
            self.since_refresh += take;
            if self.since_refresh == self.cadence {
                self.refresh()?;
            }
            rest = tail;
        }
        Ok(())
    }

    /// Forces the snapshot → re-estimate → prune cycle now, regardless of
    /// cadence position: freezes the shards, builds the mechanism's oracle
    /// at the frozen user count, runs the incremental `estimate_from` path
    /// over the full domain, and prunes the estimates down to the
    /// candidate set.
    ///
    /// Candidates are recomputed from scratch — never patched — so the
    /// state after a refresh is a pure function of the accumulated counts.
    /// That is the whole equivalence argument: any schedule of refreshes
    /// ends in the same final candidates.
    ///
    /// # Errors
    /// Propagates oracle estimation errors (width mismatch).
    pub fn refresh(&mut self) -> Result<()> {
        self.refresh_estimates().map(|_| ())
    }

    /// Like [`Self::refresh`], but also returns the full-domain estimates
    /// the cycle computed (empty while no reports have arrived) — for
    /// callers that serve the un-pruned view alongside the candidates
    /// (e.g. `idldp ingest`'s periodic estimate line) without snapshotting
    /// and estimating a second time.
    ///
    /// # Errors
    /// Same conditions as [`Self::refresh`].
    pub fn refresh_estimates(&mut self) -> Result<Vec<f64>> {
        self.since_refresh = 0;
        self.refreshes += 1;
        let snapshot = self.sink.snapshot();
        if snapshot.num_users() == 0 {
            self.candidates.clear();
            return Ok(Vec::new());
        }
        let oracle = self.mechanism.frequency_oracle(snapshot.num_users());
        let estimates = oracle.estimate_from(&snapshot)?;
        self.candidates = match self.mode {
            TrackerMode::TopK { k, slack } => top_k_indices(&estimates, k.saturating_add(slack))
                .into_iter()
                .map(|item| Candidate {
                    item,
                    estimate: estimates[item],
                })
                .collect(),
            TrackerMode::Threshold { threshold } => estimates
                .iter()
                .enumerate()
                .filter(|&(_, &e)| e >= threshold)
                .map(|(item, &e)| Candidate { item, estimate: e })
                .collect(),
        };
        Ok(estimates)
    }

    /// The candidate set as of the last refresh: the top `k + slack` items
    /// in rank order ([`TrackerMode::TopK`]) or every item at/above the
    /// threshold in index order ([`TrackerMode::Threshold`]). Possibly
    /// stale by up to `cadence - 1` reports ([`Self::is_dirty`]); `O(1)`.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// The identified heavy hitters as of the last refresh: the first `k`
    /// candidates (slack trimmed) in TopK mode, every candidate in
    /// threshold mode. `O(candidates)`.
    pub fn top_k(&self) -> Vec<usize> {
        let take = match self.mode {
            TrackerMode::TopK { k, .. } => k,
            TrackerMode::Threshold { .. } => self.candidates.len(),
        };
        self.candidates.iter().take(take).map(|c| c.item).collect()
    }

    /// Refreshes if any reports arrived since the last refresh, then
    /// returns [`Self::top_k`] — the final, batch-identical answer.
    ///
    /// # Errors
    /// Same conditions as [`Self::refresh`].
    pub fn finish(&mut self) -> Result<Vec<usize>> {
        if self.is_dirty() {
            self.refresh()?;
        }
        Ok(self.top_k())
    }

    /// Restores checkpointed counts into an **empty** tracker and refreshes
    /// so the candidates reflect the restored state — the restart-recovery
    /// path (pair with `SeededReportStream::seek_to_user`, as `idldp
    /// ingest` does). Continuing ingestion after a restore yields final
    /// top-k bit-identical to an uninterrupted run.
    ///
    /// # Errors
    /// Returns an error if the snapshot width differs or the tracker
    /// already holds users (the [`ShardedAccumulator::restore`] contract).
    pub fn restore(&mut self, snapshot: impl Into<AccumulatorSnapshot>) -> Result<()> {
        self.sink.restore(snapshot)?;
        self.refresh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idldp_core::budget::Epsilon;
    use idldp_core::grr::GeneralizedRandomizedResponse;
    use idldp_core::idue::Idue;
    use idldp_core::mechanism::InputBatch;
    use idldp_core::olh::OptimalLocalHashing;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// Items 0..heavy are ~90% of the stream, the rest uniform tail.
    fn skewed(n: usize, m: usize, heavy: usize) -> Vec<u32> {
        (0..n)
            .map(|i| {
                if i % 10 < 9 {
                    (i % heavy) as u32
                } else {
                    (heavy + i % (m - heavy)) as u32
                }
            })
            .collect()
    }

    fn drain<'a, A: ReportAccumulator>(
        tracker: &mut HeavyHitterTracker<'a, A>,
        mech: &dyn Mechanism,
        items: &[u32],
        seed: u64,
    ) {
        let mut stream = crate::SeededReportStream::new(mech, InputBatch::Items(items), seed)
            .with_chunk_size(128);
        while stream.track_chunk(tracker).unwrap() > 0 {}
    }

    #[test]
    fn construction_validates() {
        let mech = Idue::oue(6, eps(1.0)).unwrap();
        let ok = |mode, cadence| HeavyHitterTracker::for_mechanism(&mech, 2, mode, cadence);
        assert!(ok(TrackerMode::TopK { k: 1, slack: 0 }, 1).is_ok());
        assert!(ok(TrackerMode::TopK { k: 1, slack: 0 }, 0).is_err());
        assert!(ok(TrackerMode::TopK { k: 0, slack: 3 }, 10).is_err());
        assert!(ok(
            TrackerMode::Threshold {
                threshold: f64::NAN
            },
            10
        )
        .is_err());
        // Width-mismatched sink.
        let narrow = ShardedAccumulator::new(crate::BitReportAccumulator::new(3), 2);
        assert!(
            HeavyHitterTracker::new(&mech, narrow, TrackerMode::TopK { k: 1, slack: 0 }, 10)
                .is_err()
        );
    }

    #[test]
    fn identifies_clear_heavy_hitters_online() {
        let m = 12;
        let mech = Idue::oue(m, eps(2.0)).unwrap();
        let items = skewed(40_000, m, 3);
        let mut tracker =
            HeavyHitterTracker::for_mechanism(&mech, 3, TrackerMode::TopK { k: 3, slack: 2 }, 1000)
                .unwrap();
        drain(&mut tracker, &mech, &items, 11);
        let mut found = tracker.finish().unwrap();
        found.sort_unstable();
        assert_eq!(found, vec![0, 1, 2]);
        assert_eq!(tracker.candidates().len(), 5, "k + slack candidates");
        assert_eq!(tracker.num_users(), 40_000);
        assert!(!tracker.is_dirty());
        // The candidate view is rank-ordered with estimates attached.
        let c = tracker.candidates();
        assert!(c[0].estimate >= c[1].estimate);
    }

    #[test]
    fn cadence_controls_refresh_count_but_not_answer() {
        let m = 8;
        let mech = GeneralizedRandomizedResponse::new(eps(2.5), m).unwrap();
        let items = skewed(6000, m, 2);
        let mut answers = Vec::new();
        for cadence in [1usize, 37, 1000, usize::MAX] {
            let mut tracker = HeavyHitterTracker::for_mechanism(
                &mech,
                2,
                TrackerMode::TopK { k: 2, slack: 1 },
                cadence,
            )
            .unwrap();
            drain(&mut tracker, &mech, &items, 5);
            if cadence == 1 {
                assert_eq!(tracker.refreshes(), 6000, "refresh per report");
                assert!(!tracker.is_dirty());
            }
            if cadence == usize::MAX {
                assert_eq!(tracker.refreshes(), 0, "no cadence refresh yet");
                assert!(tracker.is_dirty());
            }
            answers.push((tracker.finish().unwrap(), tracker.candidates().to_vec()));
        }
        for other in &answers[1..] {
            assert_eq!(other, &answers[0], "cadence changed the final answer");
        }
    }

    #[test]
    fn threshold_mode_tracks_items_above() {
        let m = 10;
        let mech = Idue::oue(m, eps(3.0)).unwrap();
        let n = 30_000usize;
        let items = skewed(n, m, 2);
        let mut tracker = HeavyHitterTracker::for_mechanism(
            &mech,
            2,
            TrackerMode::Threshold {
                threshold: 0.2 * n as f64,
            },
            512,
        )
        .unwrap();
        drain(&mut tracker, &mech, &items, 3);
        let found = tracker.finish().unwrap();
        // Items 0 and 1 hold ~45% each; nothing else comes close to 20%.
        assert_eq!(found, vec![0, 1], "threshold candidates in index order");
        for c in tracker.candidates() {
            assert!(c.estimate >= 0.2 * n as f64);
        }
    }

    #[test]
    fn empty_tracker_serves_empty_answers() {
        let mech = Idue::oue(4, eps(1.0)).unwrap();
        let mut tracker =
            HeavyHitterTracker::for_mechanism(&mech, 1, TrackerMode::TopK { k: 2, slack: 0 }, 8)
                .unwrap();
        assert!(tracker.candidates().is_empty());
        assert!(tracker.top_k().is_empty());
        assert!(tracker.finish().unwrap().is_empty());
        assert_eq!(tracker.num_users(), 0);
    }

    #[test]
    fn checkpoint_restores_counts_and_candidates() {
        let m = 16;
        let mech = OptimalLocalHashing::new(eps(2.0), m).unwrap();
        let items = skewed(8192, m, 2);
        let mut tracker =
            HeavyHitterTracker::for_mechanism(&mech, 3, TrackerMode::TopK { k: 2, slack: 2 }, 256)
                .unwrap();
        drain(&mut tracker, &mech, &items, 21);
        tracker.refresh().unwrap();
        // The checkpoint is the sink's snapshot, through the stable format.
        let text = tracker.sink().snapshot().to_checkpoint_string();
        let checkpoint = AccumulatorSnapshot::from_checkpoint_str(&text).unwrap();

        // Fresh tracker, different shard count: identical state after restore.
        let mut restored =
            HeavyHitterTracker::for_mechanism(&mech, 7, TrackerMode::TopK { k: 2, slack: 2 }, 256)
                .unwrap();
        restored.restore(&checkpoint).unwrap();
        assert_eq!(restored.num_users(), tracker.num_users());
        assert_eq!(restored.candidates(), tracker.candidates());
        assert_eq!(restored.top_k(), tracker.top_k());
        // Restoring over live counts is refused.
        assert!(restored.restore(&checkpoint).is_err());
    }

    #[test]
    fn push_failure_counts_nothing() {
        let mech = GeneralizedRandomizedResponse::new(eps(1.0), 4).unwrap();
        let mut tracker =
            HeavyHitterTracker::for_mechanism(&mech, 2, TrackerMode::TopK { k: 1, slack: 0 }, 2)
                .unwrap();
        assert!(tracker
            .push_batch(&[Report::Value(1), Report::Value(99)])
            .is_err());
        assert_eq!(tracker.num_users(), 0);
        assert_eq!(tracker.refreshes(), 0);
        // Good reports still land and the cadence still fires.
        tracker.push_batch(&[Report::Value(1)]).unwrap();
        assert_eq!(tracker.refreshes(), 0);
        tracker.push_batch(&[Report::Value(1)]).unwrap();
        assert_eq!(tracker.refreshes(), 1, "cadence refresh");
        assert_eq!(tracker.top_k(), vec![1]);
        // A batch spanning a boundary refreshes there, and an invalid
        // report fails only its own piece: the piece before the boundary
        // (one report, completing the cadence) stays counted.
        tracker
            .push_batch(&[Report::Value(0), Report::Value(2), Report::Value(3)])
            .unwrap();
        assert_eq!((tracker.num_users(), tracker.refreshes()), (5, 2));
        assert!(tracker
            .push_batch(&[Report::Value(0), Report::Value(0), Report::Value(7)])
            .is_err());
        assert_eq!((tracker.num_users(), tracker.refreshes()), (6, 3));
    }
}
