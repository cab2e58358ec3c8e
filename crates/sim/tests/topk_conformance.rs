//! Online ≡ batch heavy-hitter conformance (the acceptance bar of the
//! `idldp-stream::topk` tracker).
//!
//! The tracker identifies heavy hitters *online*: reports stream into a
//! sharded accumulator, and every `cadence` reports a snapshot → prune →
//! re-estimate cycle rebuilds a pruned candidate set. This suite proves the
//! headline guarantee — the tracker's **final** top-k is *identical* (not
//! approximately equal) to batch `identify_top_k` over the full
//! population's oracle estimates:
//!
//! * for all eight mechanisms, each streaming its native wire shape,
//! * for shard counts {1, 3, 8} and k ∈ {1, 5, 16} with several slacks,
//! * for several snapshot cadences (from every-97-reports to a single
//!   final snapshot),
//! * in threshold mode against batch `identify_above`,
//! * across a checkpoint → restore → resume restart (bit-identical final
//!   candidates), and
//! * — by property test — under *any* snapshot schedule (random manual
//!   refreshes on top of any cadence) and *any* batching of the stream
//!   into pushes, and so any assignment of report runs to shards.
//!
//! The equivalence rests on two invariants proven elsewhere: streaming
//! counts are bit-identical to batch counts (streaming conformance suite),
//! and both rankings share the one `total_cmp` comparator
//! (`idldp_num::vecops::top_k_indices`). This suite also carries the
//! identification-quality floor for the PR 3 mechanisms (OLH, subset
//! selection), so heavy-hitter coverage spans all eight mechanisms.

use idldp_core::budget::Epsilon;
use idldp_core::grr::GeneralizedRandomizedResponse;
use idldp_core::idue::Idue;
use idldp_core::idue_ps::IduePs;
use idldp_core::levels::LevelPartition;
use idldp_core::matrix_mech::PerturbationMatrix;
use idldp_core::mechanism::{BatchMechanism, InputBatch, Mechanism};
use idldp_core::olh::OptimalLocalHashing;
use idldp_core::params::LevelParams;
use idldp_core::ps::PsMechanism;
use idldp_core::report::{Report, ReportData};
use idldp_core::snapshot::AccumulatorSnapshot;
use idldp_core::subset::SubsetSelection;
use idldp_core::ue::UnaryEncoding;
use idldp_num::rng::SplitMix64;
use idldp_sim::heavy_hitters::{identify_above, identify_top_k, quality, tracked_quality};
use idldp_sim::stream::{HeavyHitterTracker, SeededReportStream, TrackerMode};
use idldp_sim::SimulationPipeline;
use proptest::prelude::*;

const SEED: u64 = 20200707;
const CHUNK: usize = 256;
const N: usize = 3000;
/// Domain size: > 16 so the largest tested k still prunes.
const M: usize = 20;
const SHARD_COUNTS: [usize; 3] = [1, 3, 8];
const KS: [usize; 3] = [1, 5, 16];
/// Snapshot cadences, paired index-wise with a slack: refresh every 97
/// reports, every 1024, and only at the very end (cadence beyond n).
const CADENCES: [usize; 3] = [97, 1024, 1 << 30];
const SLACKS: [usize; 3] = [0, 2, 7];

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn items(n: usize, m: usize) -> Vec<u32> {
    // Skewed inputs so every bucket count differs (a symmetric dataset
    // could mask ranking/permutation bugs).
    (0..n).map(|i| ((i * i) % m) as u32).collect()
}

fn sets(n: usize, m: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| {
            let a = (i % m) as u32;
            let b = ((i / 2 + 1) % m) as u32;
            if a == b {
                vec![a]
            } else {
                vec![a.min(b), a.max(b)]
            }
        })
        .collect()
}

/// The acceptance criterion: for every `(k, slack, shards, cadence)`, the
/// tracker's final top-k over the streamed population equals batch
/// `identify_top_k` over the batch pipeline's oracle estimates, and the
/// final candidate estimates are the offline estimates, bit for bit.
fn assert_tracker_matches_batch(
    name: &str,
    mechanism: &dyn BatchMechanism,
    inputs: InputBatch<'_>,
) {
    let n = inputs.len() as u64;
    let pipeline = SimulationPipeline::new().with_chunk_size(CHUNK);
    let snapshot = pipeline.run_snapshot(mechanism, inputs, SEED).unwrap();
    let oracle = mechanism.frequency_oracle(n);
    let estimates = oracle.estimate_from(&snapshot).unwrap();

    for &k in &KS {
        let want = identify_top_k(&estimates, k);
        assert_eq!(want.len(), k.min(mechanism.domain_size()), "{name}");
        for &shards in &SHARD_COUNTS {
            for (&cadence, &slack) in CADENCES.iter().zip(&SLACKS) {
                let run = pipeline
                    .run_top_k(
                        mechanism,
                        inputs,
                        SEED,
                        shards,
                        TrackerMode::TopK { k, slack },
                        cadence,
                    )
                    .unwrap();
                let label =
                    format!("{name}: k={k} slack={slack} shards={shards} cadence={cadence}");
                assert_eq!(run.top_k, want, "{label}");
                assert_eq!(run.num_users, n, "{label}");
                assert_eq!(
                    run.candidates.len(),
                    (k + slack).min(mechanism.domain_size()),
                    "{label}"
                );
                for c in &run.candidates {
                    assert!(
                        c.estimate == estimates[c.item],
                        "{label}: candidate {} estimate {} != offline {}",
                        c.item,
                        c.estimate,
                        estimates[c.item]
                    );
                }
            }
        }
    }
}

#[test]
fn grr_tracker_matches_batch() {
    let mech = GeneralizedRandomizedResponse::new(eps(1.2), M).unwrap();
    let inputs = items(N, M);
    assert_tracker_matches_batch("grr", &mech, InputBatch::Items(&inputs));
}

#[test]
fn ue_tracker_matches_batch() {
    let mech = UnaryEncoding::optimized(eps(1.0), M).unwrap();
    let inputs = items(N, M);
    assert_tracker_matches_batch("oue", &mech, InputBatch::Items(&inputs));
}

#[test]
fn idue_tracker_matches_batch() {
    let assignment: Vec<usize> = (0..M).map(|i| usize::from(i % 3 != 0)).collect();
    let levels = LevelPartition::new(assignment, vec![eps(1.0), eps(3.0)]).unwrap();
    let params = LevelParams::new(vec![0.59, 0.67], vec![0.33, 0.28]).unwrap();
    let mech = Idue::new(levels, &params).unwrap();
    let inputs = items(N, M);
    assert_tracker_matches_batch("idue", &mech, InputBatch::Items(&inputs));
}

#[test]
fn ps_tracker_matches_batch() {
    let mech = PsMechanism::new(M, 3).unwrap();
    let inputs = sets(N, M);
    assert_tracker_matches_batch("ps", &mech, InputBatch::Sets(&inputs));
}

#[test]
fn idue_ps_tracker_matches_batch() {
    let mech = IduePs::oue_ps(M, eps(2.0), 3).unwrap();
    let inputs = sets(N, M);
    assert_tracker_matches_batch("idue-ps", &mech, InputBatch::Sets(&inputs));
}

#[test]
fn matrix_tracker_matches_batch() {
    let mech = PerturbationMatrix::grr(eps(1.5), M).unwrap();
    let inputs = items(N, M);
    assert_tracker_matches_batch("matrix", &mech, InputBatch::Items(&inputs));
}

#[test]
fn olh_tracker_matches_batch() {
    let mech = OptimalLocalHashing::new(eps(1.2), M).unwrap();
    let inputs = items(N, M);
    assert_tracker_matches_batch("olh", &mech, InputBatch::Items(&inputs));
}

#[test]
fn subset_selection_tracker_matches_batch() {
    let mech = SubsetSelection::new(eps(1.0), M).unwrap();
    let inputs = items(N, M);
    assert_tracker_matches_batch("ss", &mech, InputBatch::Items(&inputs));
}

#[test]
fn threshold_mode_matches_batch_identify_above() {
    let mech = UnaryEncoding::optimized(eps(1.0), M).unwrap();
    let inputs = items(N, M);
    let batch = InputBatch::Items(&inputs);
    let pipeline = SimulationPipeline::new().with_chunk_size(CHUNK);
    let snapshot = pipeline.run_snapshot(&mech, batch, SEED).unwrap();
    let estimates = mech
        .frequency_oracle(N as u64)
        .estimate_from(&snapshot)
        .unwrap();
    // Thresholds from "admits most items" to "admits none".
    for threshold in [0.0, 0.02 * N as f64, 0.1 * N as f64, N as f64] {
        let want = identify_above(&estimates, threshold);
        for &shards in &SHARD_COUNTS {
            let run = pipeline
                .run_top_k(
                    &mech,
                    batch,
                    SEED,
                    shards,
                    TrackerMode::Threshold { threshold },
                    512,
                )
                .unwrap();
            assert_eq!(
                run.top_k, want,
                "threshold={threshold} shards={shards} diverges from identify_above"
            );
        }
    }
}

/// Satellite: checkpoint → restore → continue must be bit-identical to an
/// uninterrupted run — answer *and* candidate estimates.
#[test]
fn tracker_checkpoint_resume_is_bit_identical() {
    let mech = OptimalLocalHashing::new(eps(2.0), 16).unwrap();
    let inputs = items(4096, 16);
    let batch = InputBatch::Items(&inputs);
    let mode = TrackerMode::TopK { k: 4, slack: 3 };

    // Uninterrupted reference run.
    let mut whole = HeavyHitterTracker::for_mechanism(&mech, 4, mode, 300).unwrap();
    let mut stream = SeededReportStream::new(&mech, batch, SEED).with_chunk_size(CHUNK);
    while stream.track_chunk(&mut whole).unwrap() > 0 {}
    let want = whole.finish().unwrap();

    // Interrupted run: ingest half, checkpoint, "restart" into a tracker
    // with a different shard count AND a different cadence, seek, finish.
    let mut first = HeavyHitterTracker::for_mechanism(&mech, 2, mode, 300).unwrap();
    let mut stream = SeededReportStream::new(&mech, batch, SEED).with_chunk_size(CHUNK);
    for _ in 0..8 {
        assert_eq!(stream.track_chunk(&mut first).unwrap(), CHUNK);
    }
    let checkpoint = first.sink().snapshot().to_checkpoint_string();

    let mut resumed = HeavyHitterTracker::for_mechanism(&mech, 7, mode, 511).unwrap();
    resumed
        .restore(AccumulatorSnapshot::from_checkpoint_str(&checkpoint).unwrap())
        .unwrap();
    assert_eq!(resumed.num_users(), (8 * CHUNK) as u64);
    let mut stream = SeededReportStream::new(&mech, batch, SEED).with_chunk_size(CHUNK);
    stream.seek_to_user(resumed.num_users() as usize).unwrap();
    while stream.track_chunk(&mut resumed).unwrap() > 0 {}

    assert_eq!(resumed.finish().unwrap(), want);
    assert_eq!(
        resumed.candidates(),
        whole.candidates(),
        "candidate estimates must match bit for bit after resume"
    );
}

/// Satellite: identification quality for the PR 3 mechanisms (OLH, subset
/// selection) on a skewed synthetic dataset — precision/recall must beat
/// the random-guess baseline (a uniform guess of k of m items scores
/// precision = recall = f1 = k/m in expectation), and with this much
/// signal they should in fact be perfect.
#[test]
fn olh_and_subset_selection_identify_heavy_hitters() {
    let m = 20;
    let k = 3;
    let n = 60_000usize;
    // Items 0..3 carry 90% of the users; 4..20 share the rest.
    let inputs: Vec<u32> = (0..n)
        .map(|i| {
            if i % 10 < 9 {
                (i % 3) as u32
            } else {
                3 + (i % (m - 3)) as u32
            }
        })
        .collect();
    let truth = [0usize, 1, 2];
    let baseline = k as f64 / m as f64;

    let olh = OptimalLocalHashing::new(eps(2.0), m).unwrap();
    let ss = SubsetSelection::new(eps(2.0), m).unwrap();
    let mechanisms: [(&str, &dyn BatchMechanism); 2] = [("olh", &olh), ("ss", &ss)];
    for (name, mech) in mechanisms {
        // Offline: batch estimates, ranked.
        let snapshot = SimulationPipeline::new()
            .run_snapshot(mech, InputBatch::Items(&inputs), SEED)
            .unwrap();
        let estimates = mech
            .frequency_oracle(n as u64)
            .estimate_from(&snapshot)
            .unwrap();
        let q = quality(&identify_top_k(&estimates, k), &truth);
        assert!(
            q.f1 > baseline,
            "{name}: batch f1 {} does not beat random-guess baseline {baseline}",
            q.f1
        );
        assert!(q.f1 > 0.99, "{name}: batch identification quality {q:?}");

        // Online: the tracker's final answer scores identically.
        let (run, tq) = tracked_quality(
            mech,
            InputBatch::Items(&inputs),
            SEED,
            TrackerMode::TopK { k, slack: 2 },
            4096,
            &truth,
        )
        .unwrap();
        assert_eq!(run.num_users, n as u64, "{name}");
        assert!(tq.f1 > baseline, "{name}: online f1 {}", tq.f1);
        assert_eq!(tq, q, "{name}: online and batch quality must coincide");
    }
}

/// Builds one of the eight mechanisms by index (the generator behind the
/// property tests), over a domain of size `m`.
fn mechanism(kind: usize, m: usize) -> Box<dyn BatchMechanism> {
    match kind {
        0 => Box::new(GeneralizedRandomizedResponse::new(eps(1.2), m).unwrap()),
        1 => Box::new(UnaryEncoding::optimized(eps(1.0), m).unwrap()),
        2 => {
            let assignment: Vec<usize> = (0..m).map(|i| usize::from(i % 3 != 0)).collect();
            let levels = LevelPartition::new(assignment, vec![eps(1.0), eps(3.0)]).unwrap();
            let params = LevelParams::new(vec![0.59, 0.67], vec![0.33, 0.28]).unwrap();
            Box::new(Idue::new(levels, &params).unwrap())
        }
        3 => Box::new(PsMechanism::new(m, 2).unwrap()),
        4 => Box::new(IduePs::oue_ps(m, eps(2.0), 2).unwrap()),
        5 => Box::new(PerturbationMatrix::grr(eps(1.5), m).unwrap()),
        6 => Box::new(OptimalLocalHashing::new(eps(1.3), m).unwrap()),
        _ => Box::new(SubsetSelection::new(eps(1.1), m).unwrap()),
    }
}

enum OwnedInputs {
    Items(Vec<u32>),
    Sets(Vec<Vec<u32>>),
}

impl OwnedInputs {
    fn batch(&self) -> InputBatch<'_> {
        match self {
            OwnedInputs::Items(v) => InputBatch::Items(v),
            OwnedInputs::Sets(v) => InputBatch::Sets(v),
        }
    }
}

fn inputs_for(mech: &dyn BatchMechanism, n: usize) -> OwnedInputs {
    match mech.input_kind() {
        idldp_core::mechanism::InputKind::Item => OwnedInputs::Items(items(n, mech.domain_size())),
        idldp_core::mechanism::InputKind::Set => OwnedInputs::Sets(sets(n, mech.domain_size())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot-cadence invariance: *any* snapshot schedule — any cadence,
    /// plus randomly injected manual `refresh()` calls — and *any*
    /// batching of the stream (random `push_batch` cuts, each batch on the
    /// next of any number of shards) land on exactly the same final
    /// candidate set as the canonical
    /// round-robin run at a different cadence and shard count.
    #[test]
    fn any_schedule_and_sharding_yields_the_same_final_candidates(
        kind in 0usize..8,
        n in 100usize..700,
        k in 1usize..6,
        slack in 0usize..4,
        cadence_a in 1usize..300,
        cadence_b in 1usize..300,
        shards_a in 1usize..7,
        shards_b in 1usize..7,
        seed in any::<u64>(),
        schedule_seed in any::<u64>(),
    ) {
        let m = 12;
        let mech = mechanism(kind, m);
        let inputs = inputs_for(mech.as_ref(), n);
        let mode = TrackerMode::TopK { k, slack };
        let pipeline = SimulationPipeline::new().with_chunk_size(64);

        // Route A: the canonical round-robin pipeline run.
        let reference = pipeline
            .run_top_k(mech.as_ref(), inputs.batch(), seed, shards_a, mode, cadence_a)
            .unwrap();
        prop_assert_eq!(reference.num_users, n as u64);

        // Route B: a hand-driven tracker — every chunk cut into random
        // batches (each landing on the next round-robin shard), a
        // different cadence, and random extra refreshes between chunks
        // (an arbitrary snapshot schedule).
        let mut tracker =
            HeavyHitterTracker::for_mechanism(mech.as_ref(), shards_b, mode, cadence_b).unwrap();
        let mut schedule = SplitMix64::new(schedule_seed);
        let mut stream =
            SeededReportStream::new(mech.as_ref(), inputs.batch(), seed).with_chunk_size(64);
        loop {
            let chunk = stream.next_chunk().unwrap();
            if chunk.is_empty() {
                break;
            }
            let reports: Vec<Report<'_>> = chunk.iter().map(ReportData::as_report).collect();
            let mut rest = &reports[..];
            while !rest.is_empty() {
                let take = 1 + (schedule.next() % rest.len() as u64) as usize;
                let (batch, tail) = rest.split_at(take);
                tracker.push_batch(batch).unwrap();
                rest = tail;
            }
            if schedule.next().is_multiple_of(3) {
                tracker.refresh().unwrap();
            }
        }
        let top_k = tracker.finish().unwrap();

        prop_assert_eq!(&top_k, &reference.top_k);
        prop_assert_eq!(tracker.candidates(), reference.candidates.as_slice());
    }
}
