//! Crash-consistency contract of the checkpoint store backends.
//!
//! The [`SnapshotStore`] trait promises that a crash at any instant leaves
//! `load` returning either the previous committed checkpoint or the new
//! one, never a torn hybrid. The unit tests in `snapshot::store` cover the
//! happy paths; this suite attacks the commit machinery from the outside,
//! with the damage a real crash (or operator) leaves behind:
//!
//! - **DeltaStore** — every record seals itself with a digest, and a
//!   reload replays the longest intact prefix. A property test truncates
//!   the log at (and just past) every record boundary and asserts the
//!   restored state is exactly the checkpoint the surviving records
//!   describe — and that saving on top of the truncated log (append or
//!   compaction) round-trips the new state exactly.
//! - **Foreign formats** — a checkpoint neither backend wrote (here, the
//!   manifest and shard file of the retired per-shard layout) is
//!   corruption for both backends and for the server restoring through
//!   them, never an empty restore that silently drops the counts.

use idldp_core::budget::Epsilon;
use idldp_core::snapshot::store::DeltaStore;
use idldp_core::snapshot::{open_store, AccumulatorSnapshot, SnapshotStore, StoreError, StoreKind};
use idldp_core::ue::UnaryEncoding;
use idldp_server::{ReportServer, ServerConfig, ServerError};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const RUN: &str = "run idldp-test mechanism=oue m=4 eps=1";

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "idldp-checkpoint-stores-{}-{:?}-{tag}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn snap(counts: &[u64], users: u64) -> AccumulatorSnapshot {
    AccumulatorSnapshot::new(counts.to_vec(), users).unwrap()
}

/// FNV-1a, as the store's sealed records use it — re-derived here so the
/// tests can forge digest-clean files.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn sealed(body: &str) -> String {
    format!("{body}check {:016x}\n", fnv1a(body.as_bytes()))
}

/// A checkpoint the retired per-shard store committed at `path`: a sealed
/// `idldp-manifest v1` naming generation 1, and that generation's one
/// shard file beside it.
fn write_retired_sharded_checkpoint(path: &std::path::Path) {
    std::fs::write(
        path,
        sealed(&format!(
            "idldp-manifest v1\ngen 1\nshards 1\nusers 7\n{RUN}\n"
        )),
    )
    .unwrap();
    let mut shard = path.as_os_str().to_owned();
    shard.push(".g1.s0");
    std::fs::write(
        shard,
        sealed(&format!(
            "idldp-shard v1\ngen 1\nshard 0 of 1\nusers 7\ncounts 3 1 2 4\n{RUN}\n"
        )),
    )
    .unwrap();
}

#[test]
fn retired_sharded_checkpoint_is_corrupt_not_an_empty_restore() {
    let dir = test_dir("retired-sharded");
    for kind in StoreKind::ALL {
        let path = dir.join(format!("{kind}.ckpt"));
        write_retired_sharded_checkpoint(&path);
        match open_store(kind, &path).load() {
            Err(StoreError::Corrupt(_)) => {}
            Ok(None) => panic!("{kind}: a retired checkpoint restored as empty"),
            other => panic!("{kind}: expected Corrupt, got {other:?}"),
        }

        // The server restoring through the same store refuses to start
        // rather than serving from zero.
        let mechanism = UnaryEncoding::optimized(Epsilon::new(1.0).unwrap(), 4).unwrap();
        let config = ServerConfig::builder()
            .checkpoint_path(path.clone())
            .checkpoint_store(kind)
            .build()
            .unwrap();
        match ReportServer::start(Arc::new(mechanism), config) {
            Err(ServerError::Checkpoint(_)) => {}
            Err(e) => panic!("{kind}: expected a checkpoint error, got {e}"),
            Ok(server) => {
                let users = server.num_users();
                server.shutdown();
                panic!("{kind}: server started over a retired checkpoint with {users} users");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// DeltaStore: truncation property

/// Byte offsets at which a record of the sealed log ends (one per
/// `check` line) — the boundaries a torn tail is truncated back to.
fn record_boundaries(text: &str) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut pos = 0;
    for line in text.split_inclusive('\n') {
        pos += line.len();
        if line.starts_with("check ") && line.ends_with('\n') {
            boundaries.push(pos);
        }
    }
    boundaries
}

/// Deterministic pseudo-random byte used to grow the counts between saves
/// (proptest drives only the seed, so shrinking stays meaningful).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any prefix of the delta log cut at a record boundary restores
    /// exactly the checkpoint its surviving records describe; a cut
    /// *inside* a record falls back to the boundary before it; and saving
    /// on top of any truncated log round-trips the new state exactly.
    #[test]
    fn delta_log_prefixes_restore_exact_checkpoints(
        width in 1usize..6,
        saves in 1usize..8,
        compact_every in 1u64..5,
        seed in any::<u64>(),
    ) {
        let dir = test_dir(&format!("proptest-{width}-{saves}-{compact_every}-{seed:x}"));
        let path = dir.join("ckpt");

        // A monotone history of merged states, saved one after another.
        let mut store = DeltaStore::with_compaction(&path, compact_every, 1_000_000);
        let mut counts = vec![0u64; width];
        let mut users = 0u64;
        let mut history: Vec<AccumulatorSnapshot> = Vec::new();
        for s in 0..saves {
            for (i, c) in counts.iter_mut().enumerate() {
                *c += mix(seed, (s * width + i) as u64) % 4;
            }
            users += 1 + mix(seed, (saves * width + s) as u64) % 3;
            let state = snap(&counts, users);
            store.save(std::slice::from_ref(&state), RUN).unwrap();
            history.push(state);
        }
        drop(store);

        let text = std::fs::read_to_string(&path).unwrap();
        let boundaries = record_boundaries(&text);
        prop_assert!(!boundaries.is_empty());
        prop_assert_eq!(*boundaries.last().unwrap(), text.len());
        // The log's records are the tail of the history: a base record
        // written by the last compaction, then one delta per later save.
        let first_covered = saves - boundaries.len();

        for (k, &cut) in boundaries.iter().enumerate() {
            let want = &history[first_covered + k];

            // Cut exactly at the boundary: k+1 intact records.
            let torn = dir.join(format!("torn-{k}"));
            std::fs::write(&torn, &text.as_bytes()[..cut]).unwrap();
            let mut reopened = DeltaStore::with_compaction(&torn, compact_every, 1_000_000);
            let restored = reopened.load().unwrap().expect("an intact prefix restores");
            prop_assert_eq!(&restored.merged(), want);

            // Cut mid-record (one byte short): the damaged record is
            // dropped, the boundary before it wins — or, when the base
            // record itself is torn, nothing committed remains.
            let ragged = dir.join(format!("ragged-{k}"));
            std::fs::write(&ragged, &text.as_bytes()[..cut - 1]).unwrap();
            let mut reopened = DeltaStore::with_compaction(&ragged, compact_every, 1_000_000);
            match reopened.load().unwrap() {
                Some(prev) => {
                    prop_assert!(k > 0, "a torn base record cannot restore");
                    prop_assert_eq!(&prev.merged(), &history[first_covered + k - 1]);
                }
                None => prop_assert_eq!(k, 0),
            }

            // Compaction round-trip on the truncated log: one more save
            // (append or compact, whatever the schedule says) must leave
            // the new state exactly restorable.
            let mut next_counts = want.counts().to_vec();
            for (i, c) in next_counts.iter_mut().enumerate() {
                *c += mix(seed, (2 * saves * width + i) as u64) % 4;
            }
            let next = snap(&next_counts, want.num_users() + 1);
            let mut writer = DeltaStore::with_compaction(&torn, compact_every, 1_000_000);
            writer.save(std::slice::from_ref(&next), RUN).unwrap();
            drop(writer);
            let mut reopened = DeltaStore::with_compaction(&torn, compact_every, 1_000_000);
            let round_tripped = reopened.load().unwrap().unwrap();
            prop_assert_eq!(round_tripped.merged(), next);
            prop_assert_eq!(round_tripped.run_line(), Some(RUN));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
