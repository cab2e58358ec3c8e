//! Checkpoint-store ≡ batch conformance (the acceptance bar of the
//! pluggable checkpoint backends).
//!
//! Drives the full `idldp ingest`-style kill/resume cycle in process:
//! stream part of a seeded population into a [`ShardedAccumulator`], save
//! through a [`SnapshotStore`], drop everything (the "kill"), reopen a
//! fresh store, restore into a fresh sink, seek the stream past the
//! restored users, and stream the rest — then assert the final counts and
//! oracle estimates are **bit-identical** to a batch
//! [`SimulationPipeline`] run that never checkpointed at all. Both
//! backends (`file`, `delta`) must pass, across shard counts, including
//! restores into a *different* shard count than the one that saved (the
//! merge law makes any J-way split restorable into any N shards).
//!
//! The delta backend additionally runs a many-cycle torture loop: a
//! checkpoint after every chunk with an aggressive compaction schedule,
//! killed and resumed repeatedly, so the log crosses several
//! base/delta/compaction boundaries before the final identity check.

use idldp_core::budget::Epsilon;
use idldp_core::mechanism::{BatchMechanism, InputBatch, Mechanism};
use idldp_core::snapshot::store::DeltaStore;
use idldp_core::snapshot::{open_store, SnapshotStore, StoreKind};
use idldp_core::ue::UnaryEncoding;
use idldp_sim::stream::{SeededReportStream, ShapedAccumulator, ShardedAccumulator};
use idldp_sim::SimulationPipeline;
use std::path::PathBuf;

const SEED: u64 = 20200909;
const CHUNK: usize = 128;
const RUN_LINE: &str = "run idldp-ingest mechanism=oue dataset=test n=2048 m=16 \
                        eps=1 seed=20200909 chunk=128";

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn mechanism() -> UnaryEncoding {
    UnaryEncoding::optimized(eps(1.0), 16).unwrap()
}

fn items(n: usize, m: usize) -> Vec<u32> {
    (0..n).map(|i| ((i * i) % m) as u32).collect()
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "idldp-checkpoint-conformance-{}-{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fresh_sink(
    mechanism: &dyn BatchMechanism,
    shards: usize,
) -> ShardedAccumulator<ShapedAccumulator> {
    ShardedAccumulator::new(ShapedAccumulator::for_mechanism(mechanism), shards)
}

/// Streams users `[from, to)` of the seeded population into the sink.
/// `from` and `to` must be chunk-aligned (or `to` the stream's end), which
/// every caller here guarantees by construction.
fn stream_range(
    mechanism: &dyn BatchMechanism,
    inputs: InputBatch<'_>,
    sink: &ShardedAccumulator<ShapedAccumulator>,
    from: usize,
    to: usize,
) {
    let mut stream = SeededReportStream::new(mechanism, inputs, SEED).with_chunk_size(CHUNK);
    stream.seek_to_user(from).unwrap();
    let mut at = from;
    while at < to {
        let got = stream.ingest_chunk(sink).unwrap();
        assert!(got > 0, "stream exhausted before user {to}");
        at += got;
    }
    assert_eq!(at, to, "range not chunk-aligned");
}

#[test]
fn kill_and_resume_through_every_store_is_bit_identical_to_batch() {
    let mechanism = mechanism();
    let inputs = items(2048, 16);
    let inputs = InputBatch::Items(&inputs);
    let n = inputs.len();

    let batch = SimulationPipeline::new()
        .with_chunk_size(CHUNK)
        .run_snapshot(&mechanism, inputs, SEED)
        .unwrap();
    let oracle = mechanism.frequency_oracle(batch.num_users());
    let want = oracle.estimate_from(&batch).unwrap();

    // Save under `save_shards` shards, restore into `load_shards`: the
    // persisted form must not depend on the sharding that produced it.
    for store_kind in StoreKind::ALL {
        for (save_shards, load_shards) in [(1, 1), (4, 4), (4, 7), (7, 3)] {
            let label = format!("{store_kind}/s{save_shards}->s{load_shards}");
            let dir = test_dir(&format!("{store_kind}-{save_shards}-{load_shards}"));
            let path = dir.join("ingest.ckpt");

            // First "process": half the stream, one checkpoint, killed.
            let sink = fresh_sink(&mechanism, save_shards);
            stream_range(&mechanism, inputs, &sink, 0, n / 2);
            let mut store = open_store(store_kind, &path);
            assert!(store.load().unwrap().is_none(), "{label}: starts empty");
            store.save(&sink.snapshot_shards(), RUN_LINE).unwrap();
            drop(store);
            drop(sink);

            // Second "process": restore, stream the rest, final identity.
            let mut store = open_store(store_kind, &path);
            let restored = store
                .load()
                .unwrap()
                .unwrap_or_else(|| panic!("{label}: checkpoint must restore"));
            assert_eq!(restored.run_line(), Some(RUN_LINE), "{label}: run stamp");
            assert_eq!(restored.num_users(), (n / 2) as u64, "{label}");
            let sink = fresh_sink(&mechanism, load_shards);
            sink.restore(restored.snapshot()).unwrap();
            stream_range(&mechanism, inputs, &sink, n / 2, n);

            let streamed = sink.snapshot();
            assert_eq!(
                streamed, batch,
                "{label}: counts after kill/resume diverge from batch"
            );
            let got = oracle.estimate_from(&streamed).unwrap();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{label}: estimate {i} differs after kill/resume"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn delta_log_survives_many_kill_resume_cycles_across_compactions() {
    let mechanism = mechanism();
    let inputs = items(2048, 16);
    let inputs = InputBatch::Items(&inputs);
    let n = inputs.len();

    let batch = SimulationPipeline::new()
        .with_chunk_size(CHUNK)
        .run_snapshot(&mechanism, inputs, SEED)
        .unwrap();

    let dir = test_dir("delta-torture");
    let path = dir.join("ingest.ckpt");

    // An aggressive schedule (compact every 3 deltas) so the torture loop
    // crosses several base → delta → compaction boundaries.
    let open = || -> Box<dyn SnapshotStore> { Box::new(DeltaStore::with_compaction(&path, 3, 4)) };

    // 8 "process lifetimes", each restoring whatever the previous one
    // saved, streaming a slice, and checkpointing after every chunk.
    let lifetimes = 8;
    let per_lifetime = n / lifetimes;
    for lifetime in 0..lifetimes {
        let mut store = open();
        let restored = store.load().unwrap();
        let from = lifetime * per_lifetime;
        match &restored {
            None => assert_eq!(lifetime, 0, "only the first lifetime starts empty"),
            Some(r) => assert_eq!(r.num_users(), from as u64, "lifetime {lifetime}"),
        }
        let sink = fresh_sink(&mechanism, 4);
        if let Some(restored) = restored {
            assert_eq!(restored.run_line(), Some(RUN_LINE));
            sink.restore(restored.snapshot()).unwrap();
        }
        let to = if lifetime == lifetimes - 1 {
            n
        } else {
            from + per_lifetime
        };
        // Checkpoint after every chunk, like `--emit-every` one chunk.
        let mut at = from;
        while at < to {
            let next = (at + CHUNK).min(to);
            stream_range(&mechanism, inputs, &sink, at, next);
            store.save(&sink.snapshot_shards(), RUN_LINE).unwrap();
            at = next;
        }
    }

    let mut store = open();
    let survived = store.load().unwrap().expect("final log restores");
    assert_eq!(survived.merged(), batch, "delta log diverged from batch");
    std::fs::remove_dir_all(&dir).unwrap();
}
