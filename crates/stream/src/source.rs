//! Seeded report streams: the online twin of the batch pipeline.
//!
//! A [`SeededReportStream`] replays the exact client population a batch
//! `SimulationPipeline` run (in `idldp-sim`) would simulate, but chunk by
//! chunk, as owned wire reports. Determinism is anchored to the same
//! *chunk grid* the pipeline uses — users are split into fixed-size chunks
//! and chunk `i` draws from the independent RNG stream `(seed, i)` — which
//! is defined once here ([`chunk_ranges`]) and reused by the pipeline. The
//! `BatchMechanism` contract (batch ≡ loop, bit for bit) then guarantees
//! that streaming the reports into any sharded accumulator reproduces the
//! batch counts exactly; `crates/sim/tests/streaming_conformance.rs`
//! asserts it for all eight mechanisms.
//!
//! Chunks being independent RNG streams also makes checkpoint/restore
//! trivial: a restarted service restores the accumulator snapshot and
//! [`SeededReportStream::seek_to_user`]s past the users it already
//! ingested, without replaying a single draw.

use crate::accumulator::{Report, ReportAccumulator};
use crate::sharded::ShardedAccumulator;
use crate::topk::HeavyHitterTracker;
use idldp_core::error::{Error, Result};
use idldp_core::mechanism::{Input, InputBatch, Mechanism};
use idldp_core::report::{PackedBits, ReportData, ReportShape};
use idldp_num::rng::stream_rng;

/// Default users per chunk. Identical to the batch pipeline's default so
/// that batch and streaming runs of the same `(mechanism, inputs, seed)`
/// are interchangeable.
pub const DEFAULT_CHUNK_SIZE: usize = 1024;

/// The canonical chunk grid: `(chunk_index, lo, hi)` triples covering
/// `0..n` in `chunk_size` steps. Both the batch pipeline and the report
/// streams derive their per-chunk RNG streams from these indices, so the
/// grid is the single source of truth for reproducibility.
///
/// # Panics
/// Panics if `chunk_size == 0`.
pub fn chunk_ranges(n: usize, chunk_size: usize) -> Vec<(u64, usize, usize)> {
    assert!(chunk_size > 0, "chunk size must be positive");
    (0..n.div_ceil(chunk_size))
        .map(|ci| {
            let lo = ci * chunk_size;
            (ci as u64, lo, (lo + chunk_size).min(n))
        })
        .collect()
}

/// A deterministic, chunked stream of perturbed client reports.
///
/// # Examples
///
/// The streaming happy path — generate reports chunk by chunk, fan them
/// across shards, and serve estimates mid-stream:
///
/// ```
/// use idldp_core::budget::Epsilon;
/// use idldp_core::idue::Idue;
/// use idldp_core::mechanism::{InputBatch, Mechanism};
/// use idldp_stream::{BitReportAccumulator, SeededReportStream, ShardedAccumulator};
///
/// let mechanism = Idue::oue(4, Epsilon::new(1.0).unwrap()).unwrap();
/// let items: Vec<u32> = (0..3000).map(|i| (i % 4) as u32).collect();
///
/// let sink = ShardedAccumulator::new(BitReportAccumulator::new(4), 3);
/// let mut stream = SeededReportStream::new(&mechanism, InputBatch::Items(&items), 7);
/// while stream.ingest_chunk(&sink).unwrap() > 0 {
///     // After any chunk we can already serve calibrated estimates.
///     let snapshot = sink.snapshot();
///     let oracle = mechanism.frequency_oracle(snapshot.num_users());
///     let estimates = oracle.estimate_from(&snapshot).unwrap();
///     assert_eq!(estimates.len(), 4);
/// }
/// assert_eq!(sink.num_users(), 3000);
/// ```
pub struct SeededReportStream<'a> {
    mechanism: &'a dyn Mechanism,
    inputs: InputBatch<'a>,
    seed: u64,
    chunk_size: usize,
    next_chunk: u64,
    shape: ReportShape,
    buffer: Vec<u8>,
}

impl<'a> SeededReportStream<'a> {
    /// A stream over `inputs` with the default chunk size. Reports are
    /// emitted in the mechanism's *native wire shape*
    /// ([`Mechanism::report_shape`]): the bit-vector shape is perturbed
    /// into a reused buffer and packed into a [`ReportData::Bits`], while
    /// the compact shapes are emitted via [`Mechanism::perturb_data`]
    /// ([`ReportData::Value`] / [`ReportData::Hashed`] /
    /// [`ReportData::ItemSet`]).
    /// Both emission paths draw randomness identically, so the shape never
    /// changes the counts — pair the stream with
    /// [`crate::ShapedAccumulator::for_mechanism`] and any mechanism's
    /// reports land in a matching sink.
    pub fn new(mechanism: &'a dyn Mechanism, inputs: InputBatch<'a>, seed: u64) -> Self {
        let shape = mechanism.report_shape();
        // Only the bit-vector shape uses the reused buffer; compact shapes
        // emit through `perturb_data` and never touch it.
        let buffer = if shape == ReportShape::Bits {
            vec![0u8; mechanism.report_len()]
        } else {
            Vec::new()
        };
        Self {
            mechanism,
            inputs,
            seed,
            chunk_size: DEFAULT_CHUNK_SIZE,
            next_chunk: 0,
            shape,
            buffer,
        }
    }

    /// The wire shape this stream emits.
    pub fn report_shape(&self) -> ReportShape {
        self.shape
    }

    /// Overrides the chunk size. As in the batch pipeline, the chunk size
    /// is part of the RNG grid — streams being compared must share it.
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

    /// Total users in the underlying population.
    pub fn num_users(&self) -> usize {
        self.inputs.len()
    }

    /// Users already emitted (the stream position).
    pub fn position(&self) -> usize {
        ((self.next_chunk as usize) * self.chunk_size).min(self.inputs.len())
    }

    /// Users not yet emitted.
    pub fn remaining(&self) -> usize {
        self.inputs.len() - self.position()
    }

    /// Fast-forwards to user `user` without generating reports. Chunks are
    /// independent RNG streams, so skipping whole chunks costs nothing;
    /// `user` must therefore lie on a chunk boundary (which it always does
    /// when it came from a snapshot written at chunk granularity, e.g. by
    /// `idldp ingest --checkpoint`).
    ///
    /// # Errors
    /// Returns an error if `user` is not a chunk boundary or exceeds the
    /// population.
    pub fn seek_to_user(&mut self, user: usize) -> Result<()> {
        if user > self.inputs.len() {
            return Err(Error::IndexOutOfRange {
                what: "stream seek target".into(),
                index: user,
                bound: self.inputs.len() + 1,
            });
        }
        if !user.is_multiple_of(self.chunk_size) && user != self.inputs.len() {
            return Err(Error::ParameterOrdering {
                detail: format!(
                    "stream seek target {user} is not a multiple of the chunk size {}",
                    self.chunk_size
                ),
            });
        }
        self.next_chunk = user.div_ceil(self.chunk_size) as u64;
        Ok(())
    }

    /// Generates the next chunk of reports in user order, as owned reports
    /// in the stream's wire shape — what a client sends as one frame.
    /// Returns an empty chunk once the stream is exhausted.
    ///
    /// # Errors
    /// Returns the first perturbation error; the stream does not advance
    /// past a failed chunk.
    pub fn next_chunk(&mut self) -> Result<Vec<ReportData>> {
        let chunk = self.current_chunk()?;
        self.next_chunk += u64::from(!chunk.is_empty());
        Ok(chunk)
    }

    /// Folds the next chunk into a sharded accumulator as one batch
    /// ([`ShardedAccumulator::push_batch`]). Returns the number of users
    /// ingested (`0` when exhausted).
    ///
    /// # Errors
    /// Returns the first perturbation or sink error; the stream does not
    /// advance past a failed chunk.
    pub fn ingest_chunk<A: ReportAccumulator>(
        &mut self,
        sink: &ShardedAccumulator<A>,
    ) -> Result<usize> {
        self.fold_next_chunk(|reports| sink.push_batch(reports))
    }

    /// Folds the next chunk into a heavy-hitter tracker
    /// ([`HeavyHitterTracker::push_batch`], which refreshes at every
    /// cadence boundary inside the chunk). Returns the number of users
    /// ingested (`0` when exhausted).
    ///
    /// # Errors
    /// Same conditions as [`Self::ingest_chunk`], plus refresh errors.
    pub fn track_chunk<A: ReportAccumulator>(
        &mut self,
        tracker: &mut HeavyHitterTracker<'_, A>,
    ) -> Result<usize> {
        self.fold_next_chunk(|reports| tracker.push_batch(reports))
    }

    /// Hands the next chunk's reports to `fold` as one batch and advances
    /// past the chunk only once generating and folding it both succeeded.
    fn fold_next_chunk(&mut self, fold: impl FnOnce(&[Report<'_>]) -> Result<()>) -> Result<usize> {
        let chunk = self.current_chunk()?;
        let reports: Vec<Report<'_>> = chunk.iter().map(ReportData::as_report).collect();
        fold(&reports)?;
        self.next_chunk += u64::from(!chunk.is_empty());
        Ok(chunk.len())
    }

    /// Generates the chunk at the stream position without advancing; empty
    /// once the stream is exhausted.
    fn current_chunk(&mut self) -> Result<Vec<ReportData>> {
        let n = self.inputs.len();
        let lo = (self.next_chunk as usize) * self.chunk_size;
        if lo >= n {
            return Ok(Vec::new());
        }
        let hi = (lo + self.chunk_size).min(n);
        let mut rng = stream_rng(self.seed, self.next_chunk);
        let mut chunk = Vec::with_capacity(hi - lo);
        for user in lo..hi {
            let input = match self.inputs {
                InputBatch::Items(items) => Input::Item(items[user] as usize),
                InputBatch::Sets(sets) => Input::Set(&sets[user]),
            };
            if self.shape == ReportShape::Bits {
                // `perturb_data`'s draws and packing, through one reused
                // m-wide buffer instead of one per report.
                self.mechanism
                    .perturb_into(input, &mut rng, &mut self.buffer)?;
                chunk.push(ReportData::Bits(PackedBits::from_slots(&self.buffer)?));
            } else {
                // Native compact wire shapes (categorical value, hashed
                // pair, item set): no m-wide buffer at all.
                chunk.push(self.mechanism.perturb_data(input, &mut rng)?);
            }
        }
        Ok(chunk)
    }

    /// Drains the whole remaining stream into a sharded accumulator,
    /// returning the total users ingested.
    ///
    /// # Errors
    /// Same conditions as [`Self::ingest_chunk`].
    pub fn ingest_all<A: ReportAccumulator>(
        &mut self,
        sink: &ShardedAccumulator<A>,
    ) -> Result<usize> {
        let mut total = 0;
        loop {
            let ingested = self.ingest_chunk(sink)?;
            if ingested == 0 {
                return Ok(total);
            }
            total += ingested;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::BitReportAccumulator;
    use idldp_core::budget::Epsilon;
    use idldp_core::idue::Idue;

    fn oue(m: usize) -> Idue {
        Idue::oue(m, Epsilon::new(1.5).unwrap()).unwrap()
    }

    #[test]
    fn grid_matches_spec() {
        assert_eq!(chunk_ranges(0, 4), vec![]);
        assert_eq!(chunk_ranges(4, 4), vec![(0, 0, 4)]);
        assert_eq!(chunk_ranges(5, 4), vec![(0, 0, 4), (1, 4, 5)]);
        assert_eq!(
            chunk_ranges(10, 3),
            vec![(0, 0, 3), (1, 3, 6), (2, 6, 9), (3, 9, 10)]
        );
    }

    #[test]
    fn stream_is_deterministic_and_chunked() {
        let mech = oue(5);
        let items: Vec<u32> = (0..700).map(|i| (i % 5) as u32).collect();
        let run = |seed| {
            let sink = ShardedAccumulator::new(BitReportAccumulator::new(5), 2);
            let mut stream = SeededReportStream::new(&mech, InputBatch::Items(&items), seed)
                .with_chunk_size(256);
            let mut chunks = vec![];
            loop {
                let got = stream.ingest_chunk(&sink).unwrap();
                if got == 0 {
                    break;
                }
                chunks.push(got);
            }
            (chunks, sink.snapshot())
        };
        let (chunks, snap1) = run(3);
        assert_eq!(chunks, vec![256, 256, 188]);
        let (_, snap2) = run(3);
        assert_eq!(snap1, snap2, "same seed, same counts");
        let (_, snap3) = run(4);
        assert_ne!(snap1, snap3, "different seed, different counts");
        assert_eq!(snap1.num_users(), 700);
    }

    #[test]
    fn seek_skips_exactly_whole_chunks() {
        let mech = oue(3);
        let items: Vec<u32> = (0..40).map(|i| (i % 3) as u32).collect();
        // Reference: full run, but only counting users >= 20.
        let tail_sink = ShardedAccumulator::new(BitReportAccumulator::new(3), 1);
        let mut full =
            SeededReportStream::new(&mech, InputBatch::Items(&items), 9).with_chunk_size(10);
        let mut seen = 0usize;
        loop {
            let chunk = full.next_chunk().unwrap();
            if chunk.is_empty() {
                break;
            }
            if seen >= 20 {
                let reports: Vec<Report<'_>> = chunk.iter().map(ReportData::as_report).collect();
                tail_sink.push_batch(&reports).unwrap();
            }
            seen += chunk.len();
        }
        // Seeked run over the same tail.
        let seek_sink = ShardedAccumulator::new(BitReportAccumulator::new(3), 1);
        let mut seeked =
            SeededReportStream::new(&mech, InputBatch::Items(&items), 9).with_chunk_size(10);
        seeked.seek_to_user(20).unwrap();
        assert_eq!(seeked.position(), 20);
        assert_eq!(seeked.remaining(), 20);
        seeked.ingest_all(&seek_sink).unwrap();
        assert_eq!(tail_sink.snapshot(), seek_sink.snapshot());
        // Invalid seeks.
        let mut s =
            SeededReportStream::new(&mech, InputBatch::Items(&items), 9).with_chunk_size(10);
        assert!(s.seek_to_user(15).is_err());
        assert!(s.seek_to_user(41).is_err());
        assert!(s.seek_to_user(40).is_ok(), "end is always reachable");
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn set_inputs_stream() {
        use idldp_core::idue_ps::IduePs;
        let mech = IduePs::oue_ps(4, Epsilon::new(2.0).unwrap(), 2).unwrap();
        let sets: Vec<Vec<u32>> = (0..120).map(|i| vec![(i % 4) as u32]).collect();
        let sink = ShardedAccumulator::new(BitReportAccumulator::new(6), 3);
        let mut stream =
            SeededReportStream::new(&mech, InputBatch::Sets(&sets), 5).with_chunk_size(50);
        assert_eq!(stream.ingest_all(&sink).unwrap(), 120);
        assert_eq!(sink.snapshot().num_users(), 120);
        assert_eq!(sink.report_len(), 6);
    }
}
