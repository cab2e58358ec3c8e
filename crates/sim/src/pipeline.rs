//! The batched, parallel client-simulation pipeline.
//!
//! Simulates the client side of the paper's Fig. 2 for *any*
//! [`BatchMechanism`]: users are split into fixed-size chunks, every chunk
//! gets its own RNG stream derived from `(seed, chunk_index)` and its own
//! [`CountAccumulator`], chunks run in parallel on rayon, and the per-chunk
//! accumulators are merged in chunk order.
//!
//! ## Determinism contract
//!
//! Results depend only on `(mechanism, inputs, seed, chunk_size)` — **not**
//! on the worker-thread count and not on whether the run was parallel or
//! sequential at all: [`SimulationPipeline::run`] and
//! [`SimulationPipeline::run_sequential`] return byte-identical counts for
//! the same seed. Chunk RNG streams are independent [`stream_rng`] streams,
//! and merged counts are integer sums, so no floating-point reassociation
//! can creep in.
//!
//! ## Relationship to the streaming layer
//!
//! The pipeline runs *on top of* the `idldp-stream` accumulator layer: the
//! chunk grid is [`idldp_stream::chunk_ranges`] (shared with
//! [`idldp_stream::SeededReportStream`]), and the parallel reduce fans
//! per-chunk [`CountAccumulator`]s into a
//! [`ShardedAccumulator`]`<`[`BitReportAccumulator`]`>` — the same striped
//! state an online ingestion service uses. Streaming the identical seeded
//! report stream therefore reproduces a batch run's counts bit for bit
//! (asserted by `tests/streaming_conformance.rs` for all eight mechanisms).

use idldp_core::error::Result;
use idldp_core::mechanism::{BatchMechanism, CountAccumulator, InputBatch};
use idldp_core::snapshot::AccumulatorSnapshot;
use idldp_num::rng::stream_rng;
use idldp_stream::{
    BitReportAccumulator, Candidate, HeavyHitterTracker, SeededReportStream, ShardedAccumulator,
    TrackerMode,
};
use rayon::prelude::*;

/// Default number of users per chunk: large enough to amortize the chunk
/// RNG setup and accumulator merge, small enough to load-balance tens of
/// cores on the smallest paper-scale datasets. Shared with the streaming
/// layer ([`idldp_stream::DEFAULT_CHUNK_SIZE`]).
pub const DEFAULT_CHUNK_SIZE: usize = idldp_stream::DEFAULT_CHUNK_SIZE;

/// Final answer of an online top-k tracking run
/// ([`SimulationPipeline::run_top_k`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TopKRun {
    /// The identified heavy hitters, rank order (or index order in
    /// threshold mode) — identical to batch `identify_top_k` /
    /// `identify_above` on the full-population estimates.
    pub top_k: Vec<usize>,
    /// The tracker's final candidate set (top-k answer plus slack
    /// runners-up), with the estimate each candidate held.
    pub candidates: Vec<Candidate>,
    /// How many snapshot → prune → re-estimate cycles ran.
    pub refreshes: u64,
    /// Total reports streamed.
    pub num_users: u64,
}

/// A reusable, mechanism-agnostic client-simulation runner.
#[derive(Clone, Copy, Debug)]
pub struct SimulationPipeline {
    chunk_size: usize,
}

impl Default for SimulationPipeline {
    fn default() -> Self {
        Self {
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

impl SimulationPipeline {
    /// A pipeline with the default chunk size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the chunk size (changing it changes the RNG chunking and
    /// therefore the sampled counts — it is part of the seed, not a tuning
    /// knob to flip between runs being compared).
    ///
    /// # Panics
    /// Panics if `chunk_size == 0`.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Runs every user through `mechanism` in parallel, returning the
    /// merged per-bucket report counts (length `mechanism.report_len()`).
    ///
    /// # Errors
    /// Returns the first per-input error (wrong input kind, out-of-domain
    /// item).
    pub fn run(
        &self,
        mechanism: &dyn BatchMechanism,
        inputs: InputBatch<'_>,
        seed: u64,
    ) -> Result<Vec<u64>> {
        Ok(self.run_snapshot(mechanism, inputs, seed)?.into_counts())
    }

    /// Like [`Self::run`], but returns the frozen accumulator state
    /// ([`AccumulatorSnapshot`]) — counts *plus* user total — ready for the
    /// incremental oracle path
    /// ([`idldp_core::mechanism::FrequencyOracle::estimate_from`]) or a
    /// checkpoint file.
    ///
    /// Internally each rayon chunk accumulates locally and is absorbed into
    /// a striped [`ShardedAccumulator`]; integer merges commute, so the
    /// result is independent of shard count and absorption order.
    ///
    /// # Errors
    /// Same conditions as [`Self::run`].
    pub fn run_snapshot(
        &self,
        mechanism: &dyn BatchMechanism,
        inputs: InputBatch<'_>,
        seed: u64,
    ) -> Result<AccumulatorSnapshot> {
        let sink = ShardedAccumulator::new(
            BitReportAccumulator::new(mechanism.report_len()),
            idldp_stream::DEFAULT_SHARDS,
        );
        // (map + reduce rather than try_for_each: the vendored rayon shim
        // exposes only the map/for_each/reduce/collect subset.)
        self.chunk_ranges(inputs.len())
            .into_par_iter()
            .map(|(ci, lo, hi)| {
                let chunk = self.run_chunk(mechanism, inputs, seed, ci, lo, hi)?;
                sink.absorb(&BitReportAccumulator::from(chunk))
                    .expect("chunk width equals sink width");
                Ok(())
            })
            .reduce(|| Ok(()), |left: Result<()>, right| left.and(right))?;
        Ok(sink.snapshot())
    }

    /// The sequential reference path: same chunking, same RNG streams, same
    /// merge order, no threads. Byte-identical to [`Self::run`].
    ///
    /// # Errors
    /// Same conditions as [`Self::run`].
    pub fn run_sequential(
        &self,
        mechanism: &dyn BatchMechanism,
        inputs: InputBatch<'_>,
        seed: u64,
    ) -> Result<Vec<u64>> {
        let mut merged = CountAccumulator::new(mechanism.report_len());
        for (ci, lo, hi) in self.chunk_ranges(inputs.len()) {
            let chunk = self.run_chunk(mechanism, inputs, seed, ci, lo, hi)?;
            merged.merge(&chunk);
        }
        Ok(merged.into_counts())
    }

    /// The snapshot-driven online variant: streams the same seeded report
    /// population chunk by chunk into a
    /// [`HeavyHitterTracker`] (shape-dispatched sink over `num_shards`
    /// shards, one `push_batch` per chunk, snapshot → prune → re-estimate
    /// every `cadence` reports) and returns its final answer.
    ///
    /// The stream shares the batch chunk/RNG grid, so the tracker's counts
    /// — and therefore its final top-k — are **identical** to running
    /// [`Self::run_snapshot`] and ranking the oracle estimates offline,
    /// for every shard count and every cadence
    /// (`crates/sim/tests/topk_conformance.rs` asserts this for all eight
    /// mechanisms). What changes with `cadence` is only how often a fresh
    /// candidate set would have been served mid-stream
    /// ([`TopKRun::refreshes`]).
    ///
    /// # Errors
    /// Returns the first perturbation or tracker error (wrong input kind,
    /// out-of-domain item, invalid mode/cadence).
    pub fn run_top_k(
        &self,
        mechanism: &dyn BatchMechanism,
        inputs: InputBatch<'_>,
        seed: u64,
        num_shards: usize,
        mode: TrackerMode,
        cadence: usize,
    ) -> Result<TopKRun> {
        let mut tracker = HeavyHitterTracker::for_mechanism(mechanism, num_shards, mode, cadence)?;
        let mut stream =
            SeededReportStream::new(mechanism, inputs, seed).with_chunk_size(self.chunk_size);
        while stream.track_chunk(&mut tracker)? > 0 {}
        let top_k = tracker.finish()?;
        Ok(TopKRun {
            top_k,
            candidates: tracker.candidates().to_vec(),
            refreshes: tracker.refreshes(),
            num_users: tracker.num_users(),
        })
    }

    fn chunk_ranges(&self, n: usize) -> Vec<(u64, usize, usize)> {
        // The grid is defined once, in the streaming layer, so batch and
        // streaming runs can never drift apart.
        idldp_stream::chunk_ranges(n, self.chunk_size)
    }

    fn run_chunk(
        &self,
        mechanism: &dyn BatchMechanism,
        inputs: InputBatch<'_>,
        seed: u64,
        chunk_index: u64,
        lo: usize,
        hi: usize,
    ) -> Result<CountAccumulator> {
        let mut rng = stream_rng(seed, chunk_index);
        let mut acc = CountAccumulator::new(mechanism.report_len());
        let slice = match inputs {
            InputBatch::Items(items) => InputBatch::Items(&items[lo..hi]),
            InputBatch::Sets(sets) => InputBatch::Sets(&sets[lo..hi]),
        };
        mechanism.perturb_batch(slice, &mut rng, &mut acc)?;
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idldp_core::budget::Epsilon;
    use idldp_core::idue::Idue;
    use idldp_core::idue_ps::IduePs;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn parallel_equals_sequential_bytewise() {
        let mech = Idue::oue(12, eps(1.5)).unwrap();
        let items: Vec<u32> = (0..10_000).map(|i| (i % 12) as u32).collect();
        let p = SimulationPipeline::new().with_chunk_size(256);
        let par = p.run(&mech, InputBatch::Items(&items), 77).unwrap();
        let seq = p
            .run_sequential(&mech, InputBatch::Items(&items), 77)
            .unwrap();
        assert_eq!(par, seq);
        // And a different seed changes the counts.
        let other = p.run(&mech, InputBatch::Items(&items), 78).unwrap();
        assert_ne!(par, other);
    }

    #[test]
    fn set_mechanism_runs_through_pipeline() {
        let mech = IduePs::oue_ps(6, eps(2.0), 3).unwrap();
        let sets: Vec<Vec<u32>> = (0..3000)
            .map(|i| vec![(i % 6) as u32, ((i + 2) % 6) as u32])
            .collect();
        let p = SimulationPipeline::new().with_chunk_size(100);
        let par = p.run(&mech, InputBatch::Sets(&sets), 5).unwrap();
        let seq = p.run_sequential(&mech, InputBatch::Sets(&sets), 5).unwrap();
        assert_eq!(par, seq);
        assert_eq!(par.len(), 9);
    }

    #[test]
    fn counts_calibrate_back_to_truth() {
        let m = 8;
        let mech = Idue::oue(m, eps(2.0)).unwrap();
        let n = 40_000usize;
        let items: Vec<u32> = (0..n).map(|i| if i % 4 == 0 { 1 } else { 6 }).collect();
        let counts = SimulationPipeline::new()
            .run(&mech, InputBatch::Items(&items), 9)
            .unwrap();
        let oracle = idldp_core::mechanism::Mechanism::frequency_oracle(&mech, n as u64);
        let est = oracle.estimate(&counts).unwrap();
        assert!((est[1] - n as f64 / 4.0).abs() < 0.03 * n as f64, "{est:?}");
        assert!(
            (est[6] - 3.0 * n as f64 / 4.0).abs() < 0.03 * n as f64,
            "{est:?}"
        );
    }

    #[test]
    fn wrong_kind_surfaces_error() {
        let mech = Idue::oue(4, eps(1.0)).unwrap();
        let sets: Vec<Vec<u32>> = vec![vec![0]];
        let p = SimulationPipeline::new();
        assert!(p.run(&mech, InputBatch::Sets(&sets), 1).is_err());
    }

    #[test]
    fn empty_batch_yields_zero_counts() {
        let mech = Idue::oue(4, eps(1.0)).unwrap();
        let counts = SimulationPipeline::new()
            .run(&mech, InputBatch::Items(&[]), 1)
            .unwrap();
        assert_eq!(counts, vec![0; 4]);
    }

    #[test]
    fn run_top_k_matches_offline_ranking() {
        let m = 10;
        let mech = Idue::oue(m, eps(2.0)).unwrap();
        let n = 20_000usize;
        let items: Vec<u32> = (0..n).map(|i| if i % 3 == 0 { 7 } else { 2 }).collect();
        let p = SimulationPipeline::new().with_chunk_size(512);
        // Offline reference: batch snapshot → oracle → rank.
        let snap = p.run_snapshot(&mech, InputBatch::Items(&items), 6).unwrap();
        let oracle = idldp_core::mechanism::Mechanism::frequency_oracle(&mech, n as u64);
        let est = oracle.estimate_from(&snap).unwrap();
        let want = idldp_num::vecops::top_k_indices(&est, 2);
        // Online: same seed, snapshot-driven tracker.
        for cadence in [700, 4096] {
            let run = p
                .run_top_k(
                    &mech,
                    InputBatch::Items(&items),
                    6,
                    3,
                    TrackerMode::TopK { k: 2, slack: 1 },
                    cadence,
                )
                .unwrap();
            assert_eq!(run.top_k, want);
            assert_eq!(run.top_k, vec![2, 7]);
            assert_eq!(run.num_users, n as u64);
            assert_eq!(run.candidates.len(), 3);
            // Candidate estimates are the exact offline estimates.
            for c in &run.candidates {
                assert_eq!(c.estimate, est[c.item], "item {}", c.item);
            }
        }
        // Degenerate tracker configuration surfaces as an error.
        assert!(p
            .run_top_k(
                &mech,
                InputBatch::Items(&items),
                6,
                1,
                TrackerMode::TopK { k: 0, slack: 0 },
                64,
            )
            .is_err());
    }

    #[test]
    fn snapshot_carries_counts_and_users() {
        let mech = Idue::oue(4, eps(1.0)).unwrap();
        let items: Vec<u32> = (0..5000).map(|i| (i % 4) as u32).collect();
        let p = SimulationPipeline::new().with_chunk_size(512);
        let snap = p.run_snapshot(&mech, InputBatch::Items(&items), 3).unwrap();
        assert_eq!(snap.num_users(), 5000);
        let counts = p.run(&mech, InputBatch::Items(&items), 3).unwrap();
        assert_eq!(snap.counts(), counts.as_slice());
        // The incremental oracle path agrees with the direct one.
        let oracle = idldp_core::mechanism::Mechanism::frequency_oracle(&mech, 5000);
        assert_eq!(
            oracle.estimate_from(&snap).unwrap(),
            oracle.estimate(&counts).unwrap()
        );
    }
}
