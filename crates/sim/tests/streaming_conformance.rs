//! Streaming ≡ batch conformance (the acceptance bar of the streaming
//! subsystem).
//!
//! Feeds the *same* seeded report stream through two independent routes:
//!
//! 1. **Batch** — [`SimulationPipeline::run`] / `run_snapshot`
//!    (`perturb_batch` fast paths, rayon chunks, sharded absorption), and
//! 2. **Streaming** — [`SeededReportStream`] generating the same reports
//!    chunk by chunk, each chunk one batch on a [`ShardedAccumulator`],
//!
//! and asserts identical per-bucket counts *and* identical oracle
//! estimates, for all eight mechanisms and for several shard counts — with
//! the stream emitting each mechanism's *native wire shape* (bit vectors,
//! categorical values, hashed `(seed, value)` pairs, item sets) into the
//! matching shape accumulator. The contract that makes this possible is
//! layered: `BatchMechanism` implementations draw randomness exactly like
//! the per-user loop and `perturb_data` draws exactly like `perturb_into`
//! (conformance suite in `idldp-core`), the chunk/RNG grid is defined once
//! in `idldp-stream`, and integer count merges commute.

use idldp_core::budget::Epsilon;
use idldp_core::grr::GeneralizedRandomizedResponse;
use idldp_core::idue::Idue;
use idldp_core::idue_ps::IduePs;
use idldp_core::levels::LevelPartition;
use idldp_core::matrix_mech::PerturbationMatrix;
use idldp_core::mechanism::{BatchMechanism, InputBatch};
use idldp_core::olh::OptimalLocalHashing;
use idldp_core::params::LevelParams;
use idldp_core::ps::PsMechanism;
use idldp_core::snapshot::AccumulatorSnapshot;
use idldp_core::subset::SubsetSelection;
use idldp_core::ue::UnaryEncoding;
use idldp_sim::stream::{
    BitReportAccumulator, OneHotReportAccumulator, ReportAccumulator, SeededReportStream,
    ShapedAccumulator, ShardedAccumulator,
};
use idldp_sim::SimulationPipeline;

const SEED: u64 = 20200505;
const CHUNK: usize = 256;
const SHARD_COUNTS: [usize; 3] = [1, 3, 8];

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn items(n: usize, m: usize) -> Vec<u32> {
    // Skewed inputs so every bucket count differs (a symmetric dataset
    // could mask index-permutation bugs).
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
                vec![a, b]
            }
        })
        .collect()
}

/// Runs one mechanism through both routes and asserts bit-identity of
/// counts, users, and oracle estimates, for every shard count.
fn assert_streaming_matches_batch<A>(
    name: &str,
    mechanism: &dyn BatchMechanism,
    inputs: InputBatch<'_>,
    make_accumulator: impl Fn(&dyn BatchMechanism) -> A,
) where
    A: ReportAccumulator + Clone,
{
    let n = inputs.len() as u64;
    let pipeline = SimulationPipeline::new().with_chunk_size(CHUNK);
    let batch_counts = pipeline.run(mechanism, inputs, SEED).unwrap();
    let batch_snapshot = pipeline.run_snapshot(mechanism, inputs, SEED).unwrap();
    assert_eq!(
        batch_snapshot.counts(),
        batch_counts.as_slice(),
        "{name}: run vs run_snapshot"
    );
    assert_eq!(batch_snapshot.num_users(), n, "{name}: snapshot user total");

    let oracle = mechanism.frequency_oracle(n);
    let batch_estimates = oracle.estimate(&batch_counts).unwrap();

    for shards in SHARD_COUNTS {
        let sink = ShardedAccumulator::new(make_accumulator(mechanism), shards);
        let mut stream = SeededReportStream::new(mechanism, inputs, SEED).with_chunk_size(CHUNK);
        // Chunked ingestion: after every chunk the snapshot must be
        // serveable (width + monotone users), even before the end.
        let mut last_users = 0;
        loop {
            let ingested = stream.ingest_chunk(&sink).unwrap();
            if ingested == 0 {
                break;
            }
            let mid = sink.snapshot();
            assert_eq!(mid.report_len(), mechanism.report_len());
            assert!(mid.num_users() > last_users);
            last_users = mid.num_users();
        }
        let streamed = sink.snapshot();
        assert_eq!(
            streamed, batch_snapshot,
            "{name}: streaming counts diverge from batch at {shards} shards"
        );
        let streamed_estimates = oracle.estimate_from(&streamed).unwrap();
        assert_eq!(
            streamed_estimates, batch_estimates,
            "{name}: oracle estimates diverge at {shards} shards"
        );
    }

    // Checkpoint round-trip: the frozen state survives serialization.
    let restored =
        AccumulatorSnapshot::from_checkpoint_str(&batch_snapshot.to_checkpoint_string()).unwrap();
    assert_eq!(restored, batch_snapshot, "{name}: checkpoint round-trip");
    assert_eq!(
        oracle.estimate_from(&restored).unwrap(),
        batch_estimates,
        "{name}: estimates after restore"
    );
}

/// The shape-matched sink every mechanism can stream into.
fn shaped(mech: &dyn BatchMechanism) -> ShapedAccumulator {
    ShapedAccumulator::for_mechanism(mech)
}

/// The plain bit sink, for mechanisms whose wire shape *is* the bit vector.
fn bits(mech: &dyn BatchMechanism) -> BitReportAccumulator {
    BitReportAccumulator::new(mech.report_len())
}

#[test]
fn grr_streaming_matches_batch() {
    let m = 24;
    let mech = GeneralizedRandomizedResponse::new(eps(1.2), m).unwrap();
    let inputs = items(6000, m);
    // GRR reports stream natively as categorical values: through the
    // shape-dispatched accumulator...
    assert_streaming_matches_batch("grr/shaped", &mech, InputBatch::Items(&inputs), shaped);
    // ...and into the explicit one-hot accumulator — identical counts.
    assert_streaming_matches_batch(
        "grr/one-hot",
        &mech,
        InputBatch::Items(&inputs),
        |m: &dyn BatchMechanism| OneHotReportAccumulator::new(m.report_len()),
    );
}

#[test]
fn ue_streaming_matches_batch() {
    let m = 20;
    for (name, mech) in [
        ("rappor", UnaryEncoding::symmetric(eps(1.0), m).unwrap()),
        ("oue", UnaryEncoding::optimized(eps(1.0), m).unwrap()),
    ] {
        let inputs = items(5000, m);
        assert_streaming_matches_batch(name, &mech, InputBatch::Items(&inputs), bits);
        assert_streaming_matches_batch(name, &mech, InputBatch::Items(&inputs), shaped);
    }
}

#[test]
fn idue_streaming_matches_batch() {
    let levels =
        LevelPartition::new(vec![0, 0, 1, 1, 1, 1, 1, 1, 1, 1], vec![eps(1.0), eps(3.0)]).unwrap();
    let params = LevelParams::new(vec![0.59, 0.67], vec![0.33, 0.28]).unwrap();
    let mech = Idue::new(levels, &params).unwrap();
    let inputs = items(5000, 10);
    assert_streaming_matches_batch("idue", &mech, InputBatch::Items(&inputs), bits);
}

#[test]
fn ps_streaming_matches_batch() {
    let m = 12;
    let mech = PsMechanism::new(m, 3).unwrap();
    let inputs = sets(4000, m);
    // PS streams its sampled item as a categorical value over m + ℓ.
    assert_streaming_matches_batch("ps", &mech, InputBatch::Sets(&inputs), shaped);
}

#[test]
fn idue_ps_streaming_matches_batch() {
    let m = 12;
    let mech = IduePs::oue_ps(m, eps(2.0), 3).unwrap();
    let inputs = sets(4000, m);
    assert_streaming_matches_batch("idue-ps", &mech, InputBatch::Sets(&inputs), bits);
}

#[test]
fn matrix_streaming_matches_batch() {
    let m = 10;
    let mech = PerturbationMatrix::grr(eps(1.5), m).unwrap();
    let inputs = items(4000, m);
    assert_streaming_matches_batch(
        "matrix/one-hot",
        &mech,
        InputBatch::Items(&inputs),
        |m: &dyn BatchMechanism| OneHotReportAccumulator::new(m.report_len()),
    );
    assert_streaming_matches_batch("matrix/shaped", &mech, InputBatch::Items(&inputs), shaped);
}

#[test]
fn olh_streaming_matches_batch() {
    // The first compact wire shape: hashed (seed, value) pairs, folded
    // server-side through the shared hash. Streaming the pairs must
    // reproduce the batch pipeline's folded counts bit for bit.
    let m = 24;
    let mech = OptimalLocalHashing::new(eps(1.2), m).unwrap();
    let inputs = items(6000, m);
    assert_streaming_matches_batch("olh/shaped", &mech, InputBatch::Items(&inputs), shaped);
}

#[test]
fn subset_selection_streaming_matches_batch() {
    // The second compact wire shape: size-k item sets.
    let m = 20;
    let mech = SubsetSelection::new(eps(1.0), m).unwrap();
    let inputs = items(5000, m);
    assert_streaming_matches_batch("ss/shaped", &mech, InputBatch::Items(&inputs), shaped);
}

#[test]
fn checkpoint_resume_matches_uninterrupted_stream() {
    // Simulated service restart: ingest half, checkpoint, restore into a
    // fresh sharded accumulator with a different shard count, seek, finish.
    let m = 16;
    let mech = UnaryEncoding::optimized(eps(1.0), m).unwrap();
    let inputs = items(4096, m);
    let batch = InputBatch::Items(&inputs);

    let full_sink = ShardedAccumulator::new(BitReportAccumulator::new(m), 4);
    SeededReportStream::new(&mech, batch, SEED)
        .with_chunk_size(CHUNK)
        .ingest_all(&full_sink)
        .unwrap();
    let want = full_sink.snapshot();

    let first_half = ShardedAccumulator::new(BitReportAccumulator::new(m), 2);
    let mut stream = SeededReportStream::new(&mech, batch, SEED).with_chunk_size(CHUNK);
    for _ in 0..8 {
        assert_eq!(stream.ingest_chunk(&first_half).unwrap(), CHUNK);
    }
    let checkpoint = first_half.snapshot().to_checkpoint_string();

    // "Restart": new process state, different shard count.
    let resumed_snapshot = AccumulatorSnapshot::from_checkpoint_str(&checkpoint).unwrap();
    let second_half = ShardedAccumulator::new(BitReportAccumulator::new(m), 7);
    second_half.restore(&resumed_snapshot).unwrap();
    let mut resumed = SeededReportStream::new(&mech, batch, SEED).with_chunk_size(CHUNK);
    resumed
        .seek_to_user(resumed_snapshot.num_users() as usize)
        .unwrap();
    resumed.ingest_all(&second_half).unwrap();

    assert_eq!(second_half.snapshot(), want);
}

#[test]
fn whole_chunks_equal_one_report_batches() {
    // Chunk-sized vs one-report batches over round-robin shards: same
    // counts — exercised for one mechanism per wire shape.
    let m = 8;
    let bits_mech = UnaryEncoding::symmetric(eps(1.0), m).unwrap();
    let value_mech = GeneralizedRandomizedResponse::new(eps(1.0), m).unwrap();
    let hashed_mech = OptimalLocalHashing::new(eps(1.0), m).unwrap();
    let set_mech = SubsetSelection::new(eps(1.0), m).unwrap();
    let mechanisms: [&dyn BatchMechanism; 4] = [&bits_mech, &value_mech, &hashed_mech, &set_mech];
    let inputs = items(1000, m);
    let batch = InputBatch::Items(&inputs);

    for mech in mechanisms {
        let whole_chunks = ShardedAccumulator::new(ShapedAccumulator::for_mechanism(mech), 3);
        SeededReportStream::new(mech, batch, SEED)
            .ingest_all(&whole_chunks)
            .unwrap();

        let one_by_one = ShardedAccumulator::new(ShapedAccumulator::for_mechanism(mech), 3);
        let mut stream = SeededReportStream::new(mech, batch, SEED);
        loop {
            let chunk = stream.next_chunk().unwrap();
            if chunk.is_empty() {
                break;
            }
            for report in &chunk {
                one_by_one.push_batch(&[report.as_report()]).unwrap();
            }
        }
        assert_eq!(
            whole_chunks.snapshot(),
            one_by_one.snapshot(),
            "{}",
            mech.kind()
        );
    }
}
