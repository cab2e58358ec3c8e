//! Point-in-time accumulator state for streaming aggregation.
//!
//! A streaming deployment never materializes individual reports: shards
//! absorb them into count state ([`crate::mechanism::CountAccumulator`] or
//! any `idldp-stream` accumulator) and the server periodically freezes that
//! state into an [`AccumulatorSnapshot`] — the per-bucket counts plus the
//! number of users absorbed so far. Snapshots are what the incremental
//! oracle path ([`crate::mechanism::FrequencyOracle::estimate_from`])
//! consumes, and they serialize to a stable, versioned text format so an
//! ingestion service can checkpoint its state and restore it after a
//! restart ([`AccumulatorSnapshot::to_checkpoint_string`] /
//! [`AccumulatorSnapshot::from_checkpoint_str`]).
//!
//! Because counts are integers, snapshots merge exactly: any tree of
//! [`AccumulatorSnapshot::merge`] calls over a partition of the same report
//! set yields identical state, independent of shard count or merge order.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};

pub mod store;

pub use store::{open_store, RestoredCheckpoint, SnapshotStore, StoreError, StoreKind};

/// The checkpoint format version written by
/// [`AccumulatorSnapshot::to_checkpoint_string`].
pub const CHECKPOINT_VERSION: u32 = 1;

/// Frozen accumulator state: per-bucket report counts and the number of
/// users they came from.
///
/// # Examples
/// ```
/// use idldp_core::snapshot::AccumulatorSnapshot;
///
/// let mut left = AccumulatorSnapshot::new(vec![3, 1, 0], 4).unwrap();
/// let right = AccumulatorSnapshot::new(vec![0, 2, 5], 6).unwrap();
/// left.merge(&right).unwrap();
/// assert_eq!(left.counts(), &[3, 3, 5]);
/// assert_eq!(left.num_users(), 10);
///
/// // Round-trips through the stable checkpoint format.
/// let restored =
///     AccumulatorSnapshot::from_checkpoint_str(&left.to_checkpoint_string()).unwrap();
/// assert_eq!(restored, left);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccumulatorSnapshot {
    counts: Vec<u64>,
    users: u64,
}

impl AccumulatorSnapshot {
    /// Wraps per-bucket counts gathered from `users` reports.
    ///
    /// # Errors
    /// Returns an error if `counts` is empty (a zero-width accumulator
    /// cannot belong to any mechanism).
    pub fn new(counts: Vec<u64>, users: u64) -> Result<Self> {
        if counts.is_empty() {
            return Err(Error::Empty {
                what: "snapshot counts".into(),
            });
        }
        Ok(Self { counts, users })
    }

    /// An all-zero snapshot over `report_len` buckets.
    ///
    /// # Errors
    /// Returns an error if `report_len == 0`.
    pub fn empty(report_len: usize) -> Result<Self> {
        Self::new(vec![0; report_len], 0)
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Consumes the snapshot, returning the counts.
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
    }

    /// Number of buckets (the owning mechanism's report width).
    pub fn report_len(&self) -> usize {
        self.counts.len()
    }

    /// Number of users whose reports are reflected in the counts.
    pub fn num_users(&self) -> u64 {
        self.users
    }

    /// Adds another snapshot's counts and users. Integer sums commute, so
    /// any merge order over a partition of the same reports is exact.
    ///
    /// # Errors
    /// Returns an error if the widths differ.
    pub fn merge(&mut self, other: &AccumulatorSnapshot) -> Result<()> {
        if other.counts.len() != self.counts.len() {
            return Err(Error::DimensionMismatch {
                what: "snapshot merge width".into(),
                expected: self.counts.len(),
                actual: other.counts.len(),
            });
        }
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.users += other.users;
        Ok(())
    }

    /// Serializes to the stable, versioned checkpoint format:
    ///
    /// ```text
    /// idldp-snapshot v1
    /// users <u>
    /// counts <c0> <c1> ...
    /// check <hex digest>
    /// ```
    ///
    /// The digest (FNV-1a over users and counts) catches truncated or
    /// hand-edited files on restore. The format is plain ASCII so
    /// checkpoints stay inspectable and diffable.
    pub fn to_checkpoint_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "idldp-snapshot v{CHECKPOINT_VERSION}\nusers {}\ncounts",
            self.users
        );
        for c in &self.counts {
            write!(out, " {c}").expect("writing to String cannot fail");
        }
        write!(out, "\ncheck {:016x}\n", self.digest()).expect("writing to String cannot fail");
        out
    }

    /// Parses the format written by [`Self::to_checkpoint_string`].
    ///
    /// The counts line is read in one pass over its bytes, straight into
    /// the count vector (see `parse_counts_line`), and only in the form
    /// the writer emits: one space before each count, ASCII digits only.
    /// A repeated or tab separator, a sign, a trailing space or a value
    /// past `u64::MAX` is refused as a bad count.
    ///
    /// Lines after the `check` line are ignored, so callers may append
    /// their own metadata (e.g. `idldp ingest` stamps a run-identity line)
    /// without breaking the snapshot itself.
    ///
    /// # Errors
    /// Returns an error on an unknown header/version, malformed fields, a
    /// digest mismatch, or an empty count list.
    pub fn from_checkpoint_str(s: &str) -> Result<Self> {
        let malformed = |detail: &str| Error::ParameterOrdering {
            detail: format!("snapshot checkpoint: {detail}"),
        };
        let mut lines = s.lines();
        let header = lines.next().ok_or_else(|| malformed("empty input"))?;
        if header.trim() != format!("idldp-snapshot v{CHECKPOINT_VERSION}") {
            return Err(malformed(&format!("unsupported header `{header}`")));
        }
        let users_line = lines
            .next()
            .ok_or_else(|| malformed("missing users line"))?;
        let users: u64 = users_line
            .strip_prefix("users ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| malformed(&format!("bad users line `{users_line}`")))?;
        let counts_line = lines
            .next()
            .ok_or_else(|| malformed("missing counts line"))?;
        let counts = parse_counts_line(counts_line).map_err(|detail| malformed(&detail))?;
        let check_line = lines
            .next()
            .ok_or_else(|| malformed("missing check line"))?;
        let check = check_line
            .strip_prefix("check ")
            .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
            .ok_or_else(|| malformed(&format!("bad check line `{check_line}`")))?;
        let snapshot = Self::new(counts, users)?;
        if snapshot.digest() != check {
            return Err(malformed("digest mismatch (truncated or edited file?)"));
        }
        Ok(snapshot)
    }

    /// FNV-1a over the user count and the count vector, little-endian.
    fn digest(&self) -> u64 {
        self.counts
            .iter()
            .fold(fnv1a_u64(FNV_OFFSET, self.users), |h, &c| fnv1a_u64(h, c))
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// `FNV_PRIME^k` for `k` in `0..=8`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Byte-serial FNV-1a of the 8 little-endian bytes of `v` from state `h`,
/// in fewer steps. A zero byte leaves `h ^ byte` as `h`, so it only
/// multiplies by the prime: the bytes above a value's highest nonzero one
/// fold into one multiply by a power of the prime. Most counts fit one or
/// two bytes, so this takes two or three multiplies where the definition
/// takes eight.
#[inline]
fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    let significant = 8 - (v.leading_zeros() / 8) as usize;
    let mut rest = v;
    for _ in 0..significant {
        h ^= rest & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
        rest >>= 8;
    }
    h.wrapping_mul(FNV_PRIME_POW[8 - significant])
}

/// A copy of a borrowed snapshot, so a restore that takes an owned
/// snapshot (and moves its counts into place) also accepts `&snapshot`.
impl From<&AccumulatorSnapshot> for AccumulatorSnapshot {
    fn from(snapshot: &AccumulatorSnapshot) -> Self {
        snapshot.clone()
    }
}

/// Parses a `counts <c0> <c1> ...` line, the count grammar of both the
/// flat checkpoint and the delta log's base record, in one pass: each
/// count is one space and then ASCII digits, folded with checked `u64`
/// arithmetic straight into the vector. Anything else, including the
/// separators and signs `split_whitespace` and `u64::from_str` would let
/// through, is a `bad count`. A bare `counts` parses to no counts.
fn parse_counts_line(line: &str) -> std::result::Result<Vec<u64>, String> {
    let body = line
        .strip_prefix("counts")
        .ok_or_else(|| format!("bad counts line `{line}`"))?;
    let bytes = body.as_bytes();
    // The token from `at` to the next space; spaces are ASCII, so the
    // slice ends on a character boundary.
    let bad = |at: usize| {
        let end = bytes[at..]
            .iter()
            .position(|&b| b == b' ')
            .map_or(bytes.len(), |len| at + len);
        format!("bad count `{}`", &body[at..end])
    };
    // Every count takes at least two bytes: its space and one digit.
    let mut counts = Vec::with_capacity(bytes.len() / 2);
    let mut at = 0;
    while at < bytes.len() {
        if bytes[at] != b' ' {
            return Err(bad(at));
        }
        at += 1;
        let start = at;
        let mut value = 0u64;
        while at < bytes.len() && bytes[at] != b' ' {
            let digit = bytes[at].wrapping_sub(b'0');
            if digit > 9 {
                return Err(bad(start));
            }
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(digit)))
                .ok_or_else(|| bad(start))?;
            at += 1;
        }
        if at == start {
            return Err(bad(start));
        }
        counts.push(value);
    }
    Ok(counts)
}

/// Writes `payload` to `path` atomically: the bytes go to a uniquely
/// named sibling temp file first, are fsynced, and are renamed into
/// place, so a crash (or kill, or power loss) mid-write can never leave
/// a torn or truncated checkpoint behind — without the fsync, a
/// journaling filesystem may commit the rename before the temp file's
/// data blocks, replacing the previous intact checkpoint with an empty
/// one at exactly the wrong moment. The previous checkpoint, if any,
/// stays intact until the rename commits. The temp name carries the
/// process id plus a per-process counter, so *concurrent* writers (e.g.
/// two server connection workers handling simultaneous checkpoint
/// frames) never share a temp file: each rename installs one complete
/// payload, and the last one wins whole.
///
/// This is **the** checkpoint write path: `idldp ingest` and the
/// `idldp-server` checkpoint frame both go through it, so the durability
/// rule is defined exactly once.
///
/// # Errors
/// Propagates filesystem errors. A failed write or fsync removes the
/// temp file (nothing durable was lost — the previous checkpoint is
/// still whole, and a half-written temp would only be mistaken for
/// salvageable state); a failed *rename* leaves the fully-written,
/// fsynced temp file behind for inspection, since at that point it holds
/// a complete payload that only failed to be installed.
pub fn write_checkpoint_atomic(
    path: impl AsRef<std::path::Path>,
    payload: &str,
) -> std::io::Result<()> {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    let written = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut file, payload.as_bytes())?;
        #[cfg(test)]
        if tests::fault::sync_should_fail() {
            return Err(std::io::Error::other("injected fsync failure"));
        }
        // Data must be on disk before the rename is journaled, or the
        // rename can survive a power loss that the payload does not.
        file.sync_all()
    })();
    if let Err(err) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(err);
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself (the directory entry); best-effort where
    // directories cannot be opened for sync.
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(dir) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flat checkpoint file: the snapshot, then `trailer`.
    fn write(
        snapshot: &AccumulatorSnapshot,
        path: &std::path::Path,
        trailer: &str,
    ) -> std::io::Result<()> {
        write_checkpoint_atomic(
            path,
            &format!("{}{trailer}", snapshot.to_checkpoint_string()),
        )
    }

    /// Test-only fault injection for [`write_checkpoint_atomic`]: flipping
    /// the flag makes the next sync step fail, standing in for an fsync
    /// error (full disk, dying device) that is otherwise impossible to
    /// provoke deterministically.
    pub(super) mod fault {
        use std::cell::Cell;

        // Thread-local so a test injecting a failure cannot poison the
        // checkpoint writes of tests running concurrently on other
        // threads.
        thread_local! {
            static FAIL_SYNC: Cell<bool> = const { Cell::new(false) };
        }

        pub(crate) fn sync_should_fail() -> bool {
            FAIL_SYNC.with(Cell::get)
        }

        pub(super) fn set_fail_sync(fail: bool) {
            FAIL_SYNC.with(|f| f.set(fail));
        }
    }

    #[test]
    fn construction_and_accessors() {
        let s = AccumulatorSnapshot::new(vec![1, 2, 3], 5).unwrap();
        assert_eq!(s.counts(), &[1, 2, 3]);
        assert_eq!(s.report_len(), 3);
        assert_eq!(s.num_users(), 5);
        assert_eq!(s.clone().into_counts(), vec![1, 2, 3]);
        assert!(AccumulatorSnapshot::new(vec![], 0).is_err());
        let e = AccumulatorSnapshot::empty(4).unwrap();
        assert_eq!(e.counts(), &[0; 4]);
        assert_eq!(e.num_users(), 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let parts = [
            AccumulatorSnapshot::new(vec![1, 0], 1).unwrap(),
            AccumulatorSnapshot::new(vec![0, 7], 3).unwrap(),
            AccumulatorSnapshot::new(vec![2, 2], 2).unwrap(),
        ];
        let mut forward = AccumulatorSnapshot::empty(2).unwrap();
        let mut backward = AccumulatorSnapshot::empty(2).unwrap();
        for p in &parts {
            forward.merge(p).unwrap();
        }
        for p in parts.iter().rev() {
            backward.merge(p).unwrap();
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.counts(), &[3, 9]);
        assert_eq!(forward.num_users(), 6);
    }

    #[test]
    fn merge_rejects_width_mismatch() {
        let mut a = AccumulatorSnapshot::empty(2).unwrap();
        let b = AccumulatorSnapshot::empty(3).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn checkpoint_round_trip() {
        let s = AccumulatorSnapshot::new(vec![0, u64::MAX, 42], 1_000_000).unwrap();
        let text = s.to_checkpoint_string();
        let restored = AccumulatorSnapshot::from_checkpoint_str(&text).unwrap();
        assert_eq!(restored, s);
    }

    #[test]
    fn atomic_checkpoint_write_round_trips_and_never_tears() {
        let dir = std::env::temp_dir().join(format!(
            "idldp-snapshot-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");

        // First write lands whole and parses back.
        let first = AccumulatorSnapshot::new(vec![1, 2, 3], 6).unwrap();
        write(&first, &path, "run test-stamp\n").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("run test-stamp\n"));
        assert_eq!(
            AccumulatorSnapshot::from_checkpoint_str(&text).unwrap(),
            first
        );
        // No temp sibling may linger after a successful rename.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);

        // Overwrite replaces the content in one step (regression for the
        // pre-atomic plain `fs::write`, which could tear on crash: the
        // visible file is only ever a complete payload).
        let second = AccumulatorSnapshot::new(vec![9, 9, 9], 12).unwrap();
        write(&second, &path, "").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            AccumulatorSnapshot::from_checkpoint_str(&text).unwrap(),
            second
        );
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);

        // Concurrent writers never tear: every interleaving commits one
        // complete payload (unique temp names make the renames disjoint).
        let a = first.clone();
        let b = second.clone();
        let path_a = path.clone();
        let path_b = path.clone();
        let ta = std::thread::spawn(move || {
            for _ in 0..50 {
                write(&a, &path_a, "").unwrap();
            }
        });
        let tb = std::thread::spawn(move || {
            for _ in 0..50 {
                write(&b, &path_b, "").unwrap();
            }
        });
        ta.join().unwrap();
        tb.join().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let survivor = AccumulatorSnapshot::from_checkpoint_str(&text).unwrap();
        assert!(
            survivor == first || survivor == second,
            "whole payload wins"
        );
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // Re-establish a known state (either writer may have won above).
        write(&second, &path, "").unwrap();

        // A failed write (unwritable directory) must not touch the
        // existing checkpoint.
        let bogus = dir.join("missing-subdir").join("state.ckpt");
        assert!(write(&first, &bogus, "").is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            AccumulatorSnapshot::from_checkpoint_str(&text).unwrap(),
            second,
            "failed writes leave the previous checkpoint intact"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_or_sync_removes_temp_file_but_rename_failure_keeps_it() {
        let dir = std::env::temp_dir().join(format!(
            "idldp-snapshot-fault-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let snap = AccumulatorSnapshot::new(vec![4, 4], 2).unwrap();
        write(&snap, &path, "").unwrap();

        let tmp_count = || {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .ends_with(".tmp")
                })
                .count()
        };

        // A write-path failure (injected at the fsync step) must clean up
        // its temp file and leave the previous checkpoint untouched.
        fault::set_fail_sync(true);
        let err = write(&snap, &path, "").unwrap_err();
        fault::set_fail_sync(false);
        assert!(err.to_string().contains("injected fsync failure"));
        assert_eq!(tmp_count(), 0, "failed write must not leave a .tmp file");
        assert_eq!(
            AccumulatorSnapshot::from_checkpoint_str(&std::fs::read_to_string(&path).unwrap())
                .unwrap(),
            snap,
            "previous checkpoint survives the failed write"
        );

        // A *rename* failure keeps the fully-written temp file for
        // inspection (documented behavior): the target being a directory
        // makes the rename fail after a successful write + fsync.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(blocked.join("occupier")).unwrap();
        assert!(write(&snap, &blocked, "").is_err());
        assert_eq!(
            tmp_count(),
            1,
            "rename failure leaves the complete temp payload behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The digest's definition, byte-serial FNV-1a over the 8
    /// little-endian bytes of the user count and of every count, kept here
    /// only as the oracle the faster digest is checked against.
    fn byte_serial_digest(users: u64, counts: &[u64]) -> u64 {
        let mut h = FNV_OFFSET;
        for v in std::iter::once(&users).chain(counts) {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    /// The digest folds a count's high zero bytes into one multiply; its
    /// value stays the byte-serial one, at every byte width and at the
    /// edges of each.
    #[test]
    fn digest_equals_the_byte_serial_definition() {
        use rand::{Rng, SeedableRng};
        let mut edges = vec![0, 1, 255, 256, (1 << 56) - 1, u64::MAX];
        for shift in 0..64 {
            edges.extend([1u64 << shift, (1u64 << shift) - 1, (1u64 << shift) + 1]);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let random: Vec<u64> = (0..4096)
            .map(|_| rng.random::<u64>() >> rng.random_range(0..64))
            .collect();
        for counts in [vec![], edges.clone(), random] {
            for users in [0, 1, 256, u64::MAX] {
                let snapshot = AccumulatorSnapshot {
                    counts: counts.clone(),
                    users,
                };
                assert_eq!(
                    snapshot.digest(),
                    byte_serial_digest(users, &counts),
                    "users={users} counts={}",
                    counts.len()
                );
            }
        }
        for v in edges {
            assert_eq!(
                fnv1a_u64(FNV_OFFSET, v),
                byte_serial_digest(v, &[]),
                "{v:#x}"
            );
        }
    }

    /// The count-line grammar before the one-pass parser, kept here only
    /// as the oracle the parser is checked against.
    fn old_parse_counts_line(line: &str) -> Option<Vec<u64>> {
        line.strip_prefix("counts")?
            .split_whitespace()
            .map(|tok| tok.parse::<u64>().ok())
            .collect()
    }

    /// A checkpoint whose counts line is `line`, sealed with the digest of
    /// the values the old parser read from it (so only the counts line
    /// can make a parse fail).
    fn checkpoint_with_counts_line(line: &str, users: u64) -> String {
        let values = old_parse_counts_line(line).unwrap_or_default();
        let digest = AccumulatorSnapshot {
            counts: values,
            users,
        }
        .digest();
        format!("idldp-snapshot v1\nusers {users}\n{line}\ncheck {digest:016x}\n")
    }

    #[test]
    fn writer_output_parses_to_identical_counts() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut cases = vec![vec![0], vec![u64::MAX], vec![0, u64::MAX, 10, 9, 100]];
        for width in [1usize, 2, 63, 1000, 100_000] {
            // Small counts (one or two digits, like a restored GRR row),
            // then full-range ones.
            cases.push((0..width).map(|_| rng.random_range(0..100u64)).collect());
            cases.push(
                (0..width)
                    .map(|_| rng.next_u64() >> rng.random_range(0..64u32))
                    .collect(),
            );
        }
        for counts in cases {
            let snapshot = AccumulatorSnapshot::new(counts.clone(), 3).unwrap();
            let text = snapshot.to_checkpoint_string();
            let line = text.lines().nth(2).unwrap();
            assert_eq!(old_parse_counts_line(line).as_ref(), Some(&counts));
            assert_eq!(parse_counts_line(line).unwrap(), counts);
            assert_eq!(
                AccumulatorSnapshot::from_checkpoint_str(&text).unwrap(),
                snapshot
            );
        }
    }

    #[test]
    fn count_lines_the_old_parser_refused_are_still_refused() {
        let malformed = |line: &str| {
            assert!(old_parse_counts_line(line).is_none(), "oracle: {line:?}");
            assert!(parse_counts_line(line).is_err(), "{line:?}");
            let text = checkpoint_with_counts_line(line, 1);
            match AccumulatorSnapshot::from_checkpoint_str(&text) {
                Err(Error::ParameterOrdering { detail }) => {
                    assert!(detail.contains("bad count"), "{line:?}: {detail}")
                }
                other => panic!("{line:?}: expected a malformed-field error, got {other:?}"),
            }
        };
        malformed("counts 18446744073709551616"); // u64::MAX + 1
        malformed("counts 1 99999999999999999999 2");
        malformed("counts 5 x 6");
        malformed("counts 5 6x");
        malformed("counts -1");
        malformed("counts \u{0663}"); // ARABIC-INDIC DIGIT THREE
        malformed("counts 1 \u{ff11}"); // FULLWIDTH DIGIT ONE
        malformed("counts 1 + 2");
        malformed("count 1 2");
        // An empty count list parses to no counts in both, and the
        // snapshot refuses it as empty.
        assert_eq!(old_parse_counts_line("counts"), Some(vec![]));
        assert_eq!(parse_counts_line("counts").unwrap(), Vec::<u64>::new());
        assert!(matches!(
            AccumulatorSnapshot::from_checkpoint_str(&checkpoint_with_counts_line("counts", 0)),
            Err(Error::Empty { .. })
        ));
    }

    /// Forms only a hand edit produces, which `split_whitespace` and
    /// `u64::from_str` let through, are refused as corrupt, never read as
    /// other counts: the file is damaged, and its owner should know.
    #[test]
    fn non_canonical_count_lines_are_refused_as_corrupt() {
        for line in [
            "counts  5 6",     // repeated separator
            "counts 5\t6",     // tab separator
            "counts\t5 6",     // tab after the keyword
            "counts 5 6 ",     // trailing space
            "counts +5 6",     // leading plus
            "counts5 6",       // no separator after the keyword
            "counts 5\u{a0}6", // no-break space
        ] {
            let values = old_parse_counts_line(line).expect("the old parser accepted it");
            assert!(!values.is_empty(), "{line:?}");
            assert!(parse_counts_line(line).is_err(), "{line:?}");
            let text = checkpoint_with_counts_line(line, 2);
            assert!(
                matches!(
                    AccumulatorSnapshot::from_checkpoint_str(&text),
                    Err(Error::ParameterOrdering { .. })
                ),
                "{line:?}"
            );
        }
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let s = AccumulatorSnapshot::new(vec![5, 6], 11).unwrap();
        let text = s.to_checkpoint_string();
        // Flip one count: digest must catch it.
        let tampered = text.replace("counts 5 6", "counts 5 7");
        assert!(AccumulatorSnapshot::from_checkpoint_str(&tampered).is_err());
        // Truncation.
        let truncated = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(AccumulatorSnapshot::from_checkpoint_str(&truncated).is_err());
        // Wrong version.
        let wrong = text.replace("v1", "v99");
        assert!(AccumulatorSnapshot::from_checkpoint_str(&wrong).is_err());
        // Garbage.
        assert!(AccumulatorSnapshot::from_checkpoint_str("").is_err());
        assert!(AccumulatorSnapshot::from_checkpoint_str("hello\nworld").is_err());
    }
}
