//! Property tests for the streaming accumulator layer.
//!
//! The central law under test: **any** sharding of a report set, under
//! **any** batching and **any** merge order, yields counts identical to
//! the core reference fold of every report — for report streams generated
//! by all eight mechanisms, in their native wire shapes (bit vectors,
//! categorical values, hashed `(seed, value)` pairs, item sets).

use idldp_core::budget::Epsilon;
use idldp_core::error::Error;
use idldp_core::grr::GeneralizedRandomizedResponse;
use idldp_core::idue::Idue;
use idldp_core::idue_ps::IduePs;
use idldp_core::levels::LevelPartition;
use idldp_core::matrix_mech::PerturbationMatrix;
use idldp_core::mechanism::{InputBatch, Mechanism};
use idldp_core::olh::OptimalLocalHashing;
use idldp_core::params::LevelParams;
use idldp_core::ps::PsMechanism;
use idldp_core::report::{validate, PackedBits, Report, ReportData, ReportShape};
use idldp_core::snapshot::AccumulatorSnapshot;
use idldp_core::subset::SubsetSelection;
use idldp_num::rng::SplitMix64;
use idldp_stream::{
    BitReportAccumulator, HashedReportAccumulator, ItemSetReportAccumulator,
    OneHotReportAccumulator, ReportAccumulator, SeededReportStream, ShapedAccumulator,
    ShardedAccumulator,
};
use proptest::prelude::*;

/// Number of registered mechanism kinds the generators draw from.
const NUM_KINDS: usize = 8;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// Builds one of the eight mechanisms by index, over a domain scaled to `m`.
fn mechanism(kind: usize, m: usize) -> Box<dyn Mechanism> {
    match kind {
        0 => Box::new(GeneralizedRandomizedResponse::new(eps(1.2), m).unwrap()),
        1 => Box::new(idldp_core::ue::UnaryEncoding::optimized(eps(1.0), m).unwrap()),
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

fn inputs_for(mech: &dyn Mechanism, n: usize) -> OwnedInputs {
    let m = mech.domain_size();
    match mech.input_kind() {
        idldp_core::mechanism::InputKind::Item => {
            OwnedInputs::Items((0..n).map(|i| ((i * 13 + 5) % m) as u32).collect())
        }
        idldp_core::mechanism::InputKind::Set => OwnedInputs::Sets(
            (0..n)
                .map(|i| {
                    let a = (i % m) as u32;
                    let b = ((i / 3 + 1) % m) as u32;
                    if a == b {
                        vec![a]
                    } else {
                        vec![a.min(b), a.max(b)]
                    }
                })
                .collect(),
        ),
    }
}

enum OwnedInputs {
    Items(Vec<u32>),
    Sets(Vec<Vec<u32>>),
}

impl OwnedInputs {
    fn batch(&self) -> InputBatch<'_> {
        match self {
            OwnedInputs::Items(items) => InputBatch::Items(items),
            OwnedInputs::Sets(sets) => InputBatch::Sets(sets),
        }
    }
}

/// Collects all reports of a seeded stream into owned, native-shape values.
fn materialize(mech: &dyn Mechanism, inputs: InputBatch<'_>, seed: u64) -> Vec<ReportData> {
    let mut reports = Vec::with_capacity(inputs.len());
    let mut stream = SeededReportStream::new(mech, inputs, seed).with_chunk_size(64);
    loop {
        let chunk = stream.next_chunk().unwrap();
        if chunk.is_empty() {
            return reports;
        }
        reports.extend(chunk);
    }
}

fn views(reports: &[ReportData]) -> Vec<Report<'_>> {
    reports.iter().map(ReportData::as_report).collect()
}

/// Cuts `items` into consecutive batches of 1 to `max` elements at
/// pseudo-random points.
fn random_split<'r, T>(items: &'r [T], rng: &mut SplitMix64, max: u64) -> Vec<&'r [T]> {
    let mut batches = Vec::new();
    let mut start = 0usize;
    while start < items.len() {
        let end = (start + 1 + (rng.next() % max) as usize).min(items.len());
        batches.push(&items[start..end]);
        start = end;
    }
    batches
}

/// One accumulator, every report in one batch.
fn folded<A: ReportAccumulator>(mut acc: A, reports: &[ReportData]) -> AccumulatorSnapshot {
    acc.accumulate_batch(&views(reports)).unwrap();
    acc.snapshot()
}

/// The shape parameter the core fold takes: the hash range of a hashed
/// shape, the pinned cardinality of an item-set shape.
fn shape_param(shape: ReportShape) -> usize {
    match shape {
        ReportShape::Hashed { range } => range,
        ReportShape::ItemSet { k } => k,
        ReportShape::Bits | ReportShape::Value => 0,
    }
}

/// Folds native-shape reports by hand via the core reference fold.
fn reference_fold(reports: &[ReportData], width: usize, shape_param: usize) -> Vec<u64> {
    let mut counts = vec![0u64; width];
    for r in reports {
        r.fold_into(&mut counts, shape_param).unwrap();
    }
    counts
}

/// The reference state of a mechanism's report stream: the core fold's
/// counts and one user per report.
fn reference(mech: &dyn Mechanism, reports: &[ReportData]) -> AccumulatorSnapshot {
    let counts = reference_fold(reports, mech.report_len(), shape_param(mech.report_shape()));
    AccumulatorSnapshot::new(counts, reports.len() as u64).unwrap()
}

/// Sharded run with a pseudo-random report→shard assignment, each shard's
/// part folded in pseudo-random batches, plus a pseudo-random merge order.
fn sharded_any_order<A: ReportAccumulator + Clone>(
    prototype: A,
    reports: &[ReportData],
    shards: usize,
    order_seed: u64,
) -> AccumulatorSnapshot {
    let mut rng = SplitMix64::new(order_seed);
    let mut parts: Vec<Vec<Report<'_>>> = vec![Vec::new(); shards];
    for r in reports {
        parts[(rng.next() % shards as u64) as usize].push(r.as_report());
    }
    let sink = ShardedAccumulator::new(prototype.clone(), shards);
    for part in &parts {
        let mut local = prototype.clone();
        for batch in random_split(part, &mut rng, 31) {
            local.accumulate_batch(batch).unwrap();
        }
        sink.absorb(&local).unwrap();
    }
    let snap = sink.snapshot();
    // Independently: a shuffled pairwise merge tree over a random
    // partition of the same reports must land on the same state.
    let mut order: Vec<usize> = (0..reports.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut merged = AccumulatorSnapshot::empty(snap.report_len()).unwrap();
    for chunk in order.chunks(17) {
        let mut part = AccumulatorSnapshot::empty(snap.report_len()).unwrap();
        for &i in chunk {
            let mut one = prototype.clone();
            one.accumulate_batch(&[reports[i].as_report()]).unwrap();
            part.merge(&one.snapshot()).unwrap();
        }
        merged.merge(&part).unwrap();
    }
    assert_eq!(merged, snap, "shuffled merge differs from sharded snapshot");
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any sharding/batching/merge order equals the reference fold — all
    /// eight mechanisms, through the shape-dispatching accumulator in each
    /// mechanism's native wire shape.
    #[test]
    fn sharding_never_changes_counts(
        kind in 0usize..NUM_KINDS,
        n in 50usize..800,
        m in 4usize..16,
        shards in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mech = mechanism(kind, m);
        let inputs = inputs_for(mech.as_ref(), n);
        let reports = materialize(mech.as_ref(), inputs.batch(), seed);
        prop_assert_eq!(reports.len(), n);

        let proto = ShapedAccumulator::for_mechanism(mech.as_ref());
        let want = reference(mech.as_ref(), &reports);
        prop_assert_eq!(want.num_users(), n as u64);
        let got = sharded_any_order(proto, &reports, shards, seed ^ 0xDEAD_BEEF);
        prop_assert_eq!(got, want);
    }

    /// The categorical accumulator on one-hot mechanisms (GRR and matrix
    /// rows) agrees with the bit accumulator fed the folded form.
    #[test]
    fn one_hot_and_bit_accumulators_agree(
        one_hot_kind in 0usize..2,
        n in 50usize..600,
        m in 4usize..12,
        shards in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mech = mechanism(if one_hot_kind == 0 { 0 } else { 5 }, m);
        let inputs = inputs_for(mech.as_ref(), n);
        let reports = materialize(mech.as_ref(), inputs.batch(), seed);

        // Fold the native values into bit vectors by hand...
        let bit_reports: Vec<ReportData> = reports
            .iter()
            .map(|r| {
                let ReportData::Value(v) = r else { panic!("one-hot mechanisms emit values") };
                let mut bits = vec![0u8; mech.report_len()];
                bits[*v] = 1;
                ReportData::Bits(PackedBits::from_slots(&bits).unwrap())
            })
            .collect();
        let via_bits = folded(BitReportAccumulator::new(mech.report_len()), &bit_reports);
        // ...and compare with sharded native-value accumulation.
        let via_one_hot = sharded_any_order(
            OneHotReportAccumulator::new(mech.report_len()),
            &reports,
            shards,
            seed ^ 0xBEEF,
        );
        prop_assert_eq!(via_one_hot, via_bits);
    }

    /// Hashed-shape law (OLH): the exact-merge/sharding invariance holds
    /// for `(seed, value)` reports, and the server-side fold through the
    /// shared hash matches the reference fold and the streamed user total.
    #[test]
    fn hashed_accumulator_merges_exactly(
        n in 50usize..600,
        m in 4usize..16,
        shards in 1usize..10,
        seed in any::<u64>(),
    ) {
        let mech = mechanism(6, m);
        let range = match mech.report_shape() {
            idldp_core::report::ReportShape::Hashed { range } => range,
            other => panic!("OLH must declare a hashed shape, got {other:?}"),
        };
        let inputs = inputs_for(mech.as_ref(), n);
        let reports = materialize(mech.as_ref(), inputs.batch(), seed);
        prop_assert!(reports.iter().all(|r| matches!(r, ReportData::Hashed { .. })));

        let proto = HashedReportAccumulator::new(m, range);
        let want = folded(proto.clone(), &reports);
        let got = sharded_any_order(proto, &reports, shards, seed ^ 0xA5A5);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.counts(), reference_fold(&reports, m, range).as_slice());
        prop_assert_eq!(got.num_users(), n as u64);
    }

    /// Item-set-shape law (subset selection): exact merge/sharding
    /// invariance, reference fold agreement, and per-user membership k.
    #[test]
    fn item_set_accumulator_merges_exactly(
        n in 50usize..600,
        m in 4usize..16,
        shards in 1usize..10,
        seed in any::<u64>(),
    ) {
        let mech = mechanism(7, m);
        let inputs = inputs_for(mech.as_ref(), n);
        let reports = materialize(mech.as_ref(), inputs.batch(), seed);
        let k = mech
            .as_any()
            .downcast_ref::<SubsetSelection>()
            .unwrap()
            .subset_size();
        prop_assert!(reports
            .iter()
            .all(|r| matches!(r, ReportData::ItemSet(items) if items.len() == k)));

        let proto = ItemSetReportAccumulator::new(m);
        let want = folded(proto.clone(), &reports);
        let got = sharded_any_order(proto, &reports, shards, seed ^ 0x5A5A);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.counts(), reference_fold(&reports, m, 0).as_slice());
        prop_assert_eq!(got.counts().iter().sum::<u64>(), (n * k) as u64);
    }

    /// Batched-fold law: `accumulate_batch` over **any** split of the
    /// stream equals the core reference fold — for every mechanism's
    /// native wire shape through the shape-dispatching accumulator, and
    /// again through the sharded `push_batch` fan-out (whole batches
    /// landing on round-robin shards, merged on demand). A batch holding
    /// one invalid report counts nothing. This is the contract the
    /// transport server's one-frame-one-fold ingest path rests on.
    #[test]
    fn batched_fold_equals_reference_fold_for_any_split(
        kind in 0usize..NUM_KINDS,
        n in 50usize..700,
        m in 4usize..14,
        shards in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mech = mechanism(kind, m);
        let inputs = inputs_for(mech.as_ref(), n);
        let reports = materialize(mech.as_ref(), inputs.batch(), seed);
        let views = views(&reports);
        let want = reference(mech.as_ref(), &reports);

        // One accumulator, the stream cut at pseudo-random split points.
        let mut rng = SplitMix64::new(seed ^ 0xF01D);
        let proto = ShapedAccumulator::for_mechanism(mech.as_ref());
        let mut batched = proto.clone();
        for batch in random_split(&views, &mut rng, 97) {
            batched.accumulate_batch(batch).unwrap();
        }
        prop_assert_eq!(batched.snapshot(), want.clone());
        prop_assert_eq!(batched.num_users(), n as u64);

        // All or nothing: a too-wide bit report (refused by every shape),
        // or a well-formed report of another shape, spliced into a copy of
        // one batch leaves the state untouched. Admission refuses the same
        // report, by its index.
        let too_wide = PackedBits::from_slots(&vec![0u8; m + 1]).unwrap();
        let full_width = PackedBits::from_slots(&vec![1u8; mech.report_len()]).unwrap();
        let stranger = match mech.report_shape() {
            ReportShape::Bits => Report::Value(0),
            _ => Report::Packed(&full_width),
        };
        let batch = random_split(&views, &mut rng, 97)[0];
        for spliced in [Report::Packed(&too_wide), stranger] {
            let at = (rng.next() % (batch.len() as u64 + 1)) as usize;
            let mut poisoned = batch.to_vec();
            poisoned.insert(at, spliced);
            let (shape, width) = (mech.report_shape(), mech.report_len());
            let admitted = validate(shape, width, poisoned.iter().copied());
            let is_at = matches!(admitted, Err(Error::Report { index, .. }) if index == at);
            prop_assert!(is_at, "{:?}", admitted);
            prop_assert!(batched.accumulate_batch(&poisoned).is_err());
            prop_assert_eq!(batched.snapshot(), want.clone());
        }

        // The sharded batch fan-out: a different split, whole batches
        // placed round-robin, counts identical after the shard merge.
        let sink = ShardedAccumulator::new(proto, shards);
        for batch in random_split(&views, &mut rng, 61) {
            sink.push_batch(batch).unwrap();
        }
        prop_assert_eq!(sink.snapshot(), want);
    }

    /// One-report round-robin batches equal explicit partitioning equal
    /// the reference fold — native shapes through the shape-dispatching
    /// accumulator.
    #[test]
    fn round_robin_equals_partitioned(
        kind in 0usize..NUM_KINDS,
        n in 20usize..400,
        shards in 1usize..6,
        seed in any::<u64>(),
    ) {
        let m = 8;
        let mech = mechanism(kind, m);
        let inputs = inputs_for(mech.as_ref(), n);
        let reports = materialize(mech.as_ref(), inputs.batch(), seed);

        let proto = ShapedAccumulator::for_mechanism(mech.as_ref());
        let rr = ShardedAccumulator::new(proto.clone(), shards);
        for r in views(&reports) {
            rr.push_batch(&[r]).unwrap();
        }
        let want = reference(mech.as_ref(), &reports);
        prop_assert_eq!(rr.snapshot(), want.clone());
        prop_assert_eq!(sharded_any_order(proto, &reports, shards, seed), want);
    }

    /// Tracker law: after `finish`, the pruned candidate set is exactly
    /// the top `k + slack` of the direct oracle estimates over the
    /// reference state — for any mechanism, cadence, shard count, and
    /// batching.
    /// (The sim-level conformance suite layers batch equivalence on top.)
    #[test]
    fn tracker_candidates_match_direct_estimates(
        kind in 0usize..NUM_KINDS,
        n in 30usize..400,
        k in 1usize..5,
        slack in 0usize..3,
        cadence in 1usize..200,
        shards in 1usize..6,
        seed in any::<u64>(),
    ) {
        use idldp_stream::{HeavyHitterTracker, TrackerMode};
        let m = 9;
        let mech = mechanism(kind, m);
        let inputs = inputs_for(mech.as_ref(), n);
        let reports = materialize(mech.as_ref(), inputs.batch(), seed);

        let mut tracker = HeavyHitterTracker::for_mechanism(
            mech.as_ref(),
            shards,
            TrackerMode::TopK { k, slack },
            cadence,
        )
        .unwrap();
        let mut rng = SplitMix64::new(seed ^ 0x7AC4);
        for batch in random_split(&views(&reports), &mut rng, 150) {
            tracker.push_batch(batch).unwrap();
        }
        let top_k = tracker.finish().unwrap();

        let snap = reference(mech.as_ref(), &reports);
        let estimates = mech
            .frequency_oracle(snap.num_users())
            .estimate_from(&snap)
            .unwrap();
        let want = idldp_num::vecops::top_k_indices(&estimates, k + slack);
        prop_assert_eq!(&top_k, &want[..k.min(want.len())]);
        let candidates = tracker.candidates();
        prop_assert_eq!(candidates.len(), want.len());
        for (c, &item) in candidates.iter().zip(&want) {
            prop_assert_eq!(c.item, item);
            prop_assert_eq!(c.estimate, estimates[item]);
        }
    }

    /// Cadence law: however the stream is chunked into `push_batch`
    /// calls, the tracker refreshes exactly once per `cadence` reports
    /// (`n / cadence` times before `finish`), and neither the chunking
    /// nor the refresh schedule changes the final answer.
    #[test]
    fn tracker_refreshes_once_per_cadence_for_any_chunking(
        kind in 0usize..NUM_KINDS,
        n in 30usize..400,
        cadence in 1usize..120,
        shards in 1usize..5,
        seed in any::<u64>(),
    ) {
        use idldp_stream::{HeavyHitterTracker, TrackerMode};
        let mech = mechanism(kind, 9);
        let inputs = inputs_for(mech.as_ref(), n);
        let reports = materialize(mech.as_ref(), inputs.batch(), seed);
        let views = views(&reports);
        let mode = TrackerMode::TopK { k: 2, slack: 1 };

        let mut answers = Vec::new();
        let mut rng = SplitMix64::new(seed ^ 0xCADE);
        for max in [1, 7, 300] {
            let mut tracker =
                HeavyHitterTracker::for_mechanism(mech.as_ref(), shards, mode, cadence).unwrap();
            for batch in random_split(&views, &mut rng, max) {
                tracker.push_batch(batch).unwrap();
            }
            prop_assert_eq!(tracker.refreshes(), (n / cadence) as u64);
            prop_assert_eq!(tracker.is_dirty(), n % cadence != 0);
            answers.push((tracker.finish().unwrap(), tracker.candidates().to_vec()));
        }
        for other in &answers[1..] {
            prop_assert_eq!(other, &answers[0]);
        }
    }

    /// Checkpoint serialization round-trips any reachable snapshot.
    #[test]
    fn checkpoint_round_trips(
        kind in 0usize..NUM_KINDS,
        n in 10usize..300,
        seed in any::<u64>(),
    ) {
        let m = 6;
        let mech = mechanism(kind, m);
        let inputs = inputs_for(mech.as_ref(), n);
        let reports = materialize(mech.as_ref(), inputs.batch(), seed);
        let snap = reference(mech.as_ref(), &reports);
        let restored =
            AccumulatorSnapshot::from_checkpoint_str(&snap.to_checkpoint_string()).unwrap();
        prop_assert_eq!(restored, snap);
    }
}
