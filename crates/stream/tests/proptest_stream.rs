//! Property tests for the streaming accumulator layer.
//!
//! The central law under test: **any** sharding of a report set, under
//! **any** merge order, yields counts identical to feeding every report
//! into a single accumulator sequentially — for report streams generated
//! by all eight mechanisms, in their native wire shapes (bit vectors,
//! categorical values, hashed `(seed, value)` pairs, item sets).

use idldp_core::budget::Epsilon;
use idldp_core::grr::GeneralizedRandomizedResponse;
use idldp_core::idue::Idue;
use idldp_core::idue_ps::IduePs;
use idldp_core::levels::LevelPartition;
use idldp_core::matrix_mech::PerturbationMatrix;
use idldp_core::mechanism::{InputBatch, Mechanism};
use idldp_core::olh::OptimalLocalHashing;
use idldp_core::params::LevelParams;
use idldp_core::ps::PsMechanism;
use idldp_core::report::{PackedBits, ReportData};
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
        let got = stream
            .next_chunk_with(|r| {
                reports.push(r.to_data()?);
                Ok(())
            })
            .unwrap();
        if got == 0 {
            break;
        }
    }
    reports
}

/// Sequential reference: one accumulator, reports in order.
fn sequential<A: ReportAccumulator>(mut acc: A, reports: &[ReportData]) -> AccumulatorSnapshot {
    for r in reports {
        acc.accumulate(r.as_report()).unwrap();
    }
    acc.snapshot()
}

/// Sharded run with a pseudo-random report→shard assignment and a
/// pseudo-random shard merge order.
fn sharded_any_order<A: ReportAccumulator + Clone>(
    prototype: A,
    reports: &[ReportData],
    shards: usize,
    order_seed: u64,
) -> AccumulatorSnapshot {
    let mut rng = SplitMix64::new(order_seed);
    let sink = ShardedAccumulator::new(prototype.clone(), shards);
    for r in reports {
        let shard = (rng.next() % shards as u64) as usize;
        sink.push_to(shard, r.as_report()).unwrap();
    }
    let snap = sink.snapshot();
    // Independently: a shuffled pairwise merge tree over a random
    // partition of the same reports must land on the same state.
    let mut parts: Vec<AccumulatorSnapshot> = Vec::new();
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
            one.accumulate(reports[i].as_report()).unwrap();
            part.merge(&one.snapshot()).unwrap();
        }
        parts.push(part);
    }
    for part in &parts {
        merged.merge(part).unwrap();
    }
    assert_eq!(merged, snap, "shuffled merge differs from sharded snapshot");
    snap
}

/// Folds native-shape reports by hand via the core reference fold.
fn reference_fold(reports: &[ReportData], width: usize, range: usize) -> Vec<u64> {
    let mut counts = vec![0u64; width];
    for r in reports {
        r.fold_into(&mut counts, range).unwrap();
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any sharding/merge order equals sequential accumulation — all eight
    /// mechanisms, through the shape-dispatching accumulator in each
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
        let want = sequential(proto.clone(), &reports);
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
        let via_bits = sequential(BitReportAccumulator::new(mech.report_len()), &bit_reports);
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
        let want = sequential(proto.clone(), &reports);
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
        let want = sequential(proto.clone(), &reports);
        let got = sharded_any_order(proto, &reports, shards, seed ^ 0x5A5A);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.counts(), reference_fold(&reports, m, 0).as_slice());
        prop_assert_eq!(got.counts().iter().sum::<u64>(), (n * k) as u64);
    }

    /// Batched-fold law: `accumulate_batch` over **any** split of the
    /// stream is bit-identical to sequential `accumulate` — for every
    /// mechanism's native wire shape through the shape-dispatching
    /// accumulator, and again through the sharded `push_batch` fan-out
    /// (whole batches landing on round-robin shards, merged on demand).
    /// This is the contract the transport server's one-frame-one-fold
    /// ingest path rests on.
    #[test]
    fn batched_fold_equals_sequential_for_any_split(
        kind in 0usize..NUM_KINDS,
        n in 50usize..700,
        m in 4usize..14,
        shards in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mech = mechanism(kind, m);
        let inputs = inputs_for(mech.as_ref(), n);
        let reports = materialize(mech.as_ref(), inputs.batch(), seed);
        let views: Vec<_> = reports.iter().map(|r| r.as_report()).collect();

        let proto = ShapedAccumulator::for_mechanism(mech.as_ref());
        let want = sequential(proto.clone(), &reports);

        // One accumulator, the stream cut at pseudo-random split points.
        let mut rng = SplitMix64::new(seed ^ 0xF01D);
        let mut batched = proto.clone();
        let mut start = 0usize;
        while start < views.len() {
            let end = (start + 1 + (rng.next() % 97) as usize).min(views.len());
            batched.accumulate_batch(&views[start..end]).unwrap();
            start = end;
        }
        prop_assert_eq!(batched.snapshot(), want.clone());
        prop_assert_eq!(batched.num_users(), n as u64);

        // The sharded batch fan-out: a different split, whole batches
        // placed round-robin, counts identical after the shard merge.
        let sink = ShardedAccumulator::new(proto, shards);
        let mut start = 0usize;
        while start < views.len() {
            let end = (start + 1 + (rng.next() % 61) as usize).min(views.len());
            sink.push_batch(&views[start..end]).unwrap();
            start = end;
        }
        prop_assert_eq!(sink.snapshot(), want.clone());
        // ...and the consuming merge lands on the same state too.
        prop_assert_eq!(sink.into_merged().snapshot(), want);
    }

    /// Round-robin fan-out equals explicit partitioning equals sequential —
    /// native shapes through the shape-dispatching accumulator.
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
        for r in &reports {
            rr.push(r.as_report()).unwrap();
        }
        let want = sequential(proto, &reports);
        prop_assert_eq!(rr.snapshot(), want);
    }

    /// Tracker law: after `finish`, the pruned candidate set is exactly
    /// the top `k + slack` of the direct oracle estimates over the final
    /// sequential state — for any mechanism, cadence, and shard count.
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
        for r in &reports {
            tracker.push(r.as_report()).unwrap();
        }
        let top_k = tracker.finish().unwrap();

        let snap = sequential(ShapedAccumulator::for_mechanism(mech.as_ref()), &reports);
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
        let snap = sequential(ShapedAccumulator::for_mechanism(mech.as_ref()), &reports);
        let restored =
            AccumulatorSnapshot::from_checkpoint_str(&snap.to_checkpoint_string()).unwrap();
        prop_assert_eq!(restored, snap);
    }
}
