//! # `idldp-stream` — online, sharded report aggregation
//!
//! The batch crates simulate a whole client population and estimate once;
//! a real ID-LDP deployment ingests perturbed reports *continuously*. This
//! crate is that online layer:
//!
//! * [`accumulator`] — [`ReportAccumulator`]: mergeable, `Send` per-shard
//!   count state with one batched fold per wire shape
//!   ([`BitReportAccumulator`] for the unary-encoding family,
//!   [`OneHotReportAccumulator`] for GRR/matrix/PS value reports,
//!   [`HashedReportAccumulator`] for OLH `(seed, value)` pairs folded
//!   through the shared hash, [`ItemSetReportAccumulator`] for
//!   subset-selection item sets) plus the shape-dispatching
//!   [`ShapedAccumulator`] picked from
//!   [`idldp_core::mechanism::Mechanism::report_shape`].
//! * [`sharded`] — [`ShardedAccumulator`]: stripes the state across `N`
//!   independently locked shards, one batch per round-robin turn, with
//!   exact merge-on-demand snapshots.
//! * [`source`] — [`SeededReportStream`]: the deterministic report stream,
//!   chunk by chunk, sharing the batch pipeline's chunk/RNG grid
//!   ([`chunk_ranges`]), so streaming counts are bit-identical to a batch
//!   `SimulationPipeline::run` of the same `(mechanism, inputs, seed)`.
//! * [`topk`] — [`HeavyHitterTracker`]: online heavy-hitter identification
//!   over any sharded sink via the snapshot → prune → re-estimate loop;
//!   its final top-k is provably identical to the batch answer (see the
//!   module docs and `crates/sim/tests/topk_conformance.rs`).
//!
//! The server-side estimate path is *incremental*: freeze the shards into
//! an [`idldp_core::snapshot::AccumulatorSnapshot`], build the mechanism's
//! oracle for the snapshot's user count, and call
//! [`idldp_core::mechanism::FrequencyOracle::estimate_from`]. Snapshots
//! serialize to a stable checkpoint format, so an ingestion service can
//! restart mid-stream (`idldp ingest --checkpoint`).
//!
//! ```
//! use idldp_core::budget::Epsilon;
//! use idldp_core::grr::GeneralizedRandomizedResponse;
//! use idldp_core::mechanism::Mechanism;
//! use idldp_stream::{OneHotReportAccumulator, Report, ShardedAccumulator};
//!
//! // A GRR server accumulating categorical value reports over 4 shards.
//! let grr = GeneralizedRandomizedResponse::new(Epsilon::new(2.0).unwrap(), 5).unwrap();
//! let sink = ShardedAccumulator::new(OneHotReportAccumulator::new(grr.report_len()), 4);
//! let frame: Vec<Report> = [0usize, 3, 3, 1, 4, 3].map(Report::Value).to_vec();
//! sink.push_batch(&frame).unwrap();
//! let snapshot = sink.snapshot();
//! let estimates = grr
//!     .frequency_oracle(snapshot.num_users())
//!     .estimate_from(&snapshot)
//!     .unwrap();
//! assert_eq!(estimates.len(), 5);
//! ```

#![deny(missing_docs)]

pub mod accumulator;
pub mod sharded;
pub mod source;
pub mod topk;

pub use accumulator::{
    BitReportAccumulator, HashedReportAccumulator, ItemSetReportAccumulator,
    OneHotReportAccumulator, Report, ReportAccumulator, ShapedAccumulator,
};
pub use sharded::{ShardedAccumulator, DEFAULT_SHARDS};
pub use source::{chunk_ranges, SeededReportStream, DEFAULT_CHUNK_SIZE};
pub use topk::{Candidate, HeavyHitterTracker, TrackerMode, DEFAULT_CADENCE};
