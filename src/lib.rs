//! # `idldp` — Input-Discriminative Local Differential Privacy
//!
//! A Rust implementation of
//!
//! > Xiaolan Gu, Ming Li, Li Xiong, Yang Cao.
//! > *Providing Input-Discriminative Protection for Local Differential
//! > Privacy.* IEEE ICDE 2020 (arXiv:1911.01402).
//!
//! Standard ε-LDP protects every input with the same budget, so deployments
//! must calibrate to the most sensitive input and over-protect everything
//! else. **ID-LDP** assigns each input its own budget ε_x and bounds each
//! *pair* of inputs by a function of the two budgets; **MinID-LDP** uses
//! `min(ε_x, ε_x')`. The **IDUE** mechanism (unary encoding with per-level
//! bit probabilities, chosen by convex/non-convex optimization) exploits
//! this to deliver strictly better frequency-estimation utility than
//! RAPPOR/OUE at equal protection for the sensitive inputs; **IDUE-PS**
//! extends it to item-set data via Padding-and-Sampling.
//!
//! This crate is a facade over the workspace:
//!
//! * [`core`] ([`idldp_core`]) — notions, mechanisms, estimation, auditing;
//! * [`opt`] ([`idldp_opt`]) — the opt0/opt1/opt2 parameter solvers;
//! * [`data`] ([`idldp_data`]) — synthetic datasets and surrogate
//!   generators for Kosarak/Retail/MSNBC;
//! * [`sim`] ([`idldp_sim`]) — client/server simulation and experiment
//!   runners;
//! * [`stream`] ([`idldp_stream`]) — online aggregation: mergeable sharded
//!   accumulators, seeded report streams, snapshot checkpointing, and
//!   online heavy-hitter tracking;
//! * [`num`] ([`idldp_num`]) — the numerical substrate (solvers, samplers).
//!
//! ## Quickstart
//!
//! ```
//! use idldp::prelude::*;
//! use rand::SeedableRng;
//!
//! // 1. Declare the domain: 5 medical answers, one highly sensitive.
//! let levels = LevelPartition::new(
//!     vec![0, 1, 1, 1, 1], // item 0 = "HIV", items 1..5 = common symptoms
//!     vec![
//!         Epsilon::new(4.0_f64.ln()).unwrap(),
//!         Epsilon::new(6.0_f64.ln()).unwrap(),
//!     ],
//! )
//! .unwrap();
//!
//! // 2. Solve for the optimal IDUE parameters and build the mechanism.
//! let params = IdueSolver::new(Model::Opt0).solve(&levels).unwrap();
//! let mechanism = Idue::new(levels, &params).unwrap();
//!
//! // 3. Clients perturb locally…
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let n = 10_000u64;
//! let mut counts = vec![0u64; 5];
//! for user in 0..n {
//!     let item = (user % 5) as usize; // each user's true answer
//!     let report = mechanism.perturb_item(item, &mut rng);
//!     for (c, bit) in counts.iter_mut().zip(&report) {
//!         *c += *bit as u64;
//!     }
//! }
//!
//! // 4. …and the server calibrates unbiased frequency estimates.
//! let estimates = mechanism.estimator(n).estimate(&counts).unwrap();
//! assert_eq!(estimates.len(), 5);
//! ```

pub use idldp_core as core;
pub use idldp_data as data;
pub use idldp_num as num;
pub use idldp_opt as opt;
pub use idldp_sim as sim;
pub use idldp_stream as stream;

/// The most common imports in one place.
pub mod prelude {
    pub use idldp_core::budget::{BudgetSet, Epsilon};
    pub use idldp_core::estimator::FrequencyEstimator;
    pub use idldp_core::idue::Idue;
    pub use idldp_core::idue_ps::IduePs;
    pub use idldp_core::levels::LevelPartition;
    pub use idldp_core::notion::{Notion, RFunction};
    pub use idldp_core::olh::OptimalLocalHashing;
    pub use idldp_core::params::LevelParams;
    pub use idldp_core::report::{PackedBits, ReportData, ReportShape};
    pub use idldp_core::snapshot::AccumulatorSnapshot;
    pub use idldp_core::subset::SubsetSelection;
    pub use idldp_core::ue::UnaryEncoding;
    pub use idldp_opt::{IdueSolver, Model};
    pub use idldp_sim::{ItemSetExperiment, MechanismSpec, SingleItemExperiment};
    pub use idldp_stream::{
        BitReportAccumulator, HeavyHitterTracker, Report, ReportAccumulator, SeededReportStream,
        ShapedAccumulator, ShardedAccumulator, TrackerMode,
    };
}
