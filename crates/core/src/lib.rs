//! # `idldp-core` — Input-Discriminative Local Differential Privacy
//!
//! A faithful implementation of the privacy notions and mechanisms from
//!
//! > Xiaolan Gu, Ming Li, Li Xiong, Yang Cao.
//! > *Providing Input-Discriminative Protection for Local Differential
//! > Privacy.* IEEE ICDE 2020.
//!
//! ## What lives here
//!
//! * **Notions** — [`budget::Epsilon`] and [`levels::LevelPartition`] describe
//!   per-input privacy requirements; [`notion::RFunction`] and
//!   [`notion::Notion`] define ε-LDP, E-ID-LDP and its MinID/AvgID/MaxID
//!   instantiations (Definitions 1–3 of the paper); [`relations`] implements
//!   the Lemma 1 sandwich between LDP and MinID-LDP; [`composition`]
//!   implements the sequential-composition accountants (Theorems 1 and 2);
//!   [`leakage`] computes the prior–posterior leakage bounds of Table I.
//! * **Mechanisms** — [`grr::GeneralizedRandomizedResponse`],
//!   [`ue::UnaryEncoding`] (with SUE/RAPPOR and OUE constructors),
//!   [`idue::Idue`] (Algorithm 1), the [`ps`] Padding-and-Sampling protocol
//!   (Algorithm 2, after Wang et al. S&P'18) and [`idue_ps::IduePs`]
//!   (Algorithm 3), plus a generic [`matrix_mech::PerturbationMatrix`]
//!   mechanism used for auditing and baselines, and the classical LDP
//!   baselines with compact wire formats:
//!   [`olh::OptimalLocalHashing`] (hashed `(seed, value)` reports) and
//!   [`subset::SubsetSelection`] (size-`k` item-set reports).
//! * **Trait layer** — [`mechanism::Mechanism`],
//!   [`mechanism::BatchMechanism`] and [`mechanism::FrequencyOracle`]: the
//!   unified client/server contract every mechanism implements, so
//!   simulation, CLI, and benchmarks dispatch over `dyn Mechanism` and a
//!   new protocol is one `impl` plus one registry entry (in `idldp-sim`).
//! * **Report wire format** — [`report`]: the shape-polymorphic report
//!   layer ([`report::ReportShape`], borrowed [`report::Report`], owned
//!   [`report::ReportData`], the packed bit report
//!   [`report::PackedBits`], and the shared client/server
//!   [`report::hash_bucket`]); [`mechanism::Mechanism::report_shape`] and
//!   [`mechanism::Mechanism::perturb_data`] are the shape-aware emission
//!   path, with `perturb_into` the zero-alloc folded bit-vector twin.
//!   The report wire grammar lives there too: one walker
//!   ([`report::walk_report`]) that decoding, the coordinator's check and
//!   the collector's admission all read reports through, and
//!   [`report::CheckedReports`], the admitted batch a collector queues as
//!   the bytes it received, read by [`wire::WireCursor`].
//! * **Fold engine** — [`fold`]: the batched server-side folding
//!   primitives ([`fold::HashedFold`], the item-major batch kernel every
//!   hashed-report fold runs, counting a tile of pairs per item group in
//!   registers; [`fold::BitPlanes`] SWAR bit-slice counters for packed bit
//!   rows; carry-free [`fold::pack_bits_row`] packing; and the bounded
//!   [`fold::SeedPreimageCache`], which no fold consults) that the
//!   streaming accumulators' `accumulate_batch` specializations build on.
//! * **Estimation** — [`estimator::FrequencyEstimator`]: the unbiased
//!   calibrated estimator of Eq. 8 and the closed-form MSE of Eq. 9;
//!   [`oracle::CalibratingOracle`] and [`oracle::MatrixOracle`] adapt it
//!   (and exact LU inversion) to the oracle trait.
//! * **Streaming state** — [`snapshot::AccumulatorSnapshot`]: frozen
//!   accumulator counts with checkpoint/restore serialization; the oracle
//!   trait's incremental path
//!   ([`mechanism::FrequencyOracle::estimate_from`]) serves estimates from
//!   snapshots mid-stream. The sharded online accumulators themselves live
//!   in the `idldp-stream` crate.
//! * **Auditing** — [`audit`]: analytic and exhaustive verification that a
//!   mechanism satisfies a notion (used to validate Theorem 4 numerically).
//!
//! The numeric *solvers* that pick IDUE's perturbation probabilities live in
//! the sibling crate `idldp-opt`; this crate defines the
//! [`params::LevelParams`] container they produce.
//!
//! ## Quick example
//!
//! ```
//! use idldp_core::budget::Epsilon;
//! use idldp_core::levels::LevelPartition;
//! use idldp_core::params::LevelParams;
//! use idldp_core::idue::Idue;
//! use rand::SeedableRng;
//!
//! // Five items; item 0 (say, "HIV") is more sensitive than the rest.
//! let levels = LevelPartition::new(
//!     vec![0, 1, 1, 1, 1],
//!     vec![Epsilon::new(4.0_f64.ln()).unwrap(), Epsilon::new(6.0_f64.ln()).unwrap()],
//! ).unwrap();
//! // Hand-picked feasible parameters (normally produced by idldp-opt).
//! let params = LevelParams::new(vec![0.59, 0.67], vec![0.33, 0.28]).unwrap();
//! let idue = Idue::new(levels, &params).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let report = idue.perturb_item(0, &mut rng); // length-5 bit vector
//! assert_eq!(report.len(), 5);
//! ```

#![deny(missing_docs)]

pub mod audit;
pub mod budget;
pub mod composition;
pub mod error;
pub mod estimator;
pub mod fold;
pub mod grr;
pub mod identity;
pub mod idue;
pub mod idue_ps;
pub mod leakage;
pub mod levels;
pub mod matrix_mech;
pub mod mechanism;
pub mod notion;
pub mod olh;
pub mod oracle;
pub mod params;
pub mod policy;
pub mod ps;
pub mod relations;
pub mod report;
pub mod snapshot;
pub mod subset;
pub mod ue;
pub mod wire;

pub use budget::Epsilon;
pub use error::Error;
pub use estimator::FrequencyEstimator;
pub use idue::Idue;
pub use idue_ps::IduePs;
pub use levels::LevelPartition;
pub use mechanism::{
    BatchMechanism, BitProfile, CountAccumulator, FrequencyOracle, Input, InputBatch, InputKind,
    Mechanism,
};
pub use notion::{Notion, RFunction};
pub use olh::OptimalLocalHashing;
pub use params::LevelParams;
pub use policy::PolicyGraph;
pub use report::{hash_bucket, PackedBits, Report, ReportData, ReportShape};
pub use snapshot::AccumulatorSnapshot;
pub use subset::SubsetSelection;
pub use ue::UnaryEncoding;
