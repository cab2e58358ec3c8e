//! Pluggable checkpoint stores: one durability contract, two layouts.
//!
//! Every checkpoint writer in the system — `idldp ingest` persisting its
//! progress, the server's `Checkpoint` frame — used to rewrite one flat
//! text file per checkpoint: O(domain) bytes even when only a handful of
//! reports arrived since the last one. [`SnapshotStore`] abstracts the
//! layout behind a two-method contract (`save` the accumulator's shard
//! snapshots durably, `load` the last committed state), with two backends:
//!
//! - [`FileStore`] — the original single-file atomic format, byte-for-byte
//!   compatible with checkpoints written before the trait existed.
//! - [`DeltaStore`] — a log-structured backend appending only the count
//!   *deltas* since the previous checkpoint, compacting to a full base
//!   record every K deltas or when the log outgrows its base by a size
//!   ratio. Each record carries its own digest, so a torn tail truncates
//!   cleanly to the last intact record. Steady-state checkpoint cost is
//!   O(reports since last checkpoint), not O(domain).
//!
//! Both backends merge the shard snapshots before writing — the exact-merge
//! law makes every shard split of the counts equivalent, so the split
//! carries nothing an estimate can see — and a load hands back one
//! snapshot. Both transparently migrate a v1 flat checkpoint
//! (`idldp-snapshot v1`) on read, and both carry the caller's run-identity
//! line so a restore can refuse state from a differently configured run.

use super::{write_checkpoint_atomic, AccumulatorSnapshot};
use std::fmt;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Which [`SnapshotStore`] backend to open. Parses from / displays as the
/// CLI flag values `file` and `delta`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreKind {
    /// Single flat file, rewritten whole and atomically each checkpoint.
    #[default]
    File,
    /// Append-only delta log with periodic compaction.
    Delta,
}

impl StoreKind {
    /// Every backend, in CLI-flag order — handy for conformance loops.
    pub const ALL: [StoreKind; 2] = [StoreKind::File, StoreKind::Delta];
}

impl fmt::Display for StoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StoreKind::File => "file",
            StoreKind::Delta => "delta",
        })
    }
}

impl std::str::FromStr for StoreKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "file" => Ok(StoreKind::File),
            "delta" => Ok(StoreKind::Delta),
            other => Err(format!(
                "unknown checkpoint store `{other}` (expected file or delta)"
            )),
        }
    }
}

/// Failure modes of a [`SnapshotStore`] operation.
#[derive(Debug)]
pub enum StoreError {
    /// The filesystem said no (permissions, full disk, vanished file).
    Io(std::io::Error),
    /// The on-disk state exists but cannot be trusted: bad header, digest
    /// mismatch, a file in another format, and so on.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "{e}"),
            StoreError::Corrupt(detail) => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What a successful [`SnapshotStore::load`] hands back: the merged
/// snapshot plus the run-identity line the checkpoint was stamped with, if
/// any.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestoredCheckpoint {
    snapshot: AccumulatorSnapshot,
    run_line: Option<String>,
}

impl RestoredCheckpoint {
    /// The restored counts and user total.
    pub fn snapshot(&self) -> &AccumulatorSnapshot {
        &self.snapshot
    }

    /// The run-identity line (`run ...`) the checkpoint carries, if any.
    pub fn run_line(&self) -> Option<&str> {
        self.run_line.as_deref()
    }

    /// Users the checkpoint covers.
    pub fn num_users(&self) -> u64 {
        self.snapshot.num_users()
    }

    /// An owned copy of [`Self::snapshot`].
    pub fn merged(&self) -> AccumulatorSnapshot {
        self.snapshot.clone()
    }
}

/// A durable home for accumulator state across process generations.
///
/// `save` must be atomic at the store's commit point: after a crash at any
/// instant, `load` returns either the previous committed checkpoint or the
/// new one, never a torn hybrid. `load` returns `Ok(None)` when no
/// checkpoint has ever been committed at the path.
pub trait SnapshotStore: Send {
    /// Which backend this is.
    fn kind(&self) -> StoreKind;

    /// The path the store commits at.
    fn path(&self) -> &Path;

    /// Reads the last committed checkpoint, if any. All backends accept a
    /// v1 flat checkpoint (`idldp-snapshot v1`) at the path and migrate it
    /// transparently; the store rewrites it in its own format on the next
    /// [`SnapshotStore::save`].
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Corrupt`]
    /// when on-disk state exists but cannot be restored.
    fn load(&mut self) -> Result<Option<RestoredCheckpoint>, StoreError>;

    /// Merges the given shard snapshots and durably commits the result,
    /// stamped with `run_line` (pass `""` for no stamp). Callers pass
    /// snapshots whose counts only ever grow between saves; a shrinking
    /// count or width change is handled (stores fall back to a full
    /// rewrite) but defeats the delta backend's incrementality.
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failure; [`StoreError::Corrupt`]
    /// if `shards` is empty or the widths disagree.
    fn save(&mut self, shards: &[AccumulatorSnapshot], run_line: &str) -> Result<(), StoreError>;
}

/// Opens the backend selected by `kind` at `path`.
pub fn open_store(kind: StoreKind, path: impl Into<PathBuf>) -> Box<dyn SnapshotStore> {
    match kind {
        StoreKind::File => Box::new(FileStore::new(path)),
        StoreKind::Delta => Box::new(DeltaStore::new(path)),
    }
}

// ---------------------------------------------------------------------------
// shared plumbing

/// FNV-1a over raw bytes — the same hash family the snapshot digest uses,
/// here applied to whole records so every store can detect torn or edited
/// state without parsing past the damage.
fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Appends the `check <hex>` line sealing `body` (digest over every byte
/// before the check line).
fn seal(mut body: String) -> String {
    use std::fmt::Write as _;
    let digest = fnv1a(body.as_bytes());
    writeln!(body, "check {digest:016x}").expect("writing to String cannot fail");
    body
}

fn parse_counts_line(line: &str) -> Result<Vec<u64>, String> {
    line.strip_prefix("counts")
        .ok_or_else(|| format!("bad counts line `{line}`"))?
        .split_whitespace()
        .map(|tok| tok.parse::<u64>().map_err(|_| format!("bad count `{tok}`")))
        .collect()
}

fn push_counts_line(out: &mut String, counts: &[u64]) {
    use std::fmt::Write as _;
    out.push_str("counts");
    for c in counts {
        write!(out, " {c}").expect("writing to String cannot fail");
    }
    out.push('\n');
}

fn push_run_line(out: &mut String, run_line: &str) {
    if !run_line.is_empty() {
        out.push_str(run_line);
        out.push('\n');
    }
}

fn find_run_line(text: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with("run "))
        .map(str::to_owned)
}

/// Merges the shard snapshots a `save` was handed into the one snapshot
/// both backends persist.
fn merge_shards(shards: &[AccumulatorSnapshot]) -> Result<AccumulatorSnapshot, StoreError> {
    let (first, rest) = shards
        .split_first()
        .ok_or_else(|| StoreError::Corrupt("save called with no shards".into()))?;
    let mut merged = first.clone();
    for shard in rest {
        merged
            .merge(shard)
            .map_err(|e| StoreError::Corrupt(format!("save called with unequal shards: {e}")))?;
    }
    Ok(merged)
}

/// Parses a v1 flat checkpoint (`idldp-snapshot v1` + optional trailing
/// run line) into the restored form every backend migrates from.
fn load_v1_flat(text: &str) -> Result<RestoredCheckpoint, StoreError> {
    let snap = AccumulatorSnapshot::from_checkpoint_str(text)
        .map_err(|e| StoreError::Corrupt(e.to_string()))?;
    Ok(RestoredCheckpoint {
        snapshot: snap,
        run_line: find_run_line(text),
    })
}

// ---------------------------------------------------------------------------
// FileStore

/// Backend #1: the original single-file layout. Each save merges the
/// shard snapshots and atomically rewrites the whole checkpoint —
/// `idldp-snapshot v1` text plus the run line — so its output is
/// byte-for-byte what `idldp ingest` and the server wrote before stores
/// existed, and every pre-store checkpoint loads unchanged.
#[derive(Debug)]
pub struct FileStore {
    path: PathBuf,
}

impl FileStore {
    /// A file store committing at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }
}

impl SnapshotStore for FileStore {
    fn kind(&self) -> StoreKind {
        StoreKind::File
    }

    fn path(&self) -> &Path {
        &self.path
    }

    fn load(&mut self) -> Result<Option<RestoredCheckpoint>, StoreError> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        load_v1_flat(&text).map(Some)
    }

    fn save(&mut self, shards: &[AccumulatorSnapshot], run_line: &str) -> Result<(), StoreError> {
        let mut payload = merge_shards(shards)?.to_checkpoint_string();
        push_run_line(&mut payload, run_line);
        write_checkpoint_atomic(&self.path, &payload).map_err(StoreError::Io)
    }
}

// ---------------------------------------------------------------------------
// DeltaStore

/// Default number of delta records appended before the log is compacted
/// back to a single base record.
pub const DELTA_COMPACT_EVERY: u64 = 64;

/// Default size ratio: the log is compacted when it would exceed this
/// multiple of its base record's size.
pub const DELTA_SIZE_RATIO: u64 = 4;

/// Backend #2: a log-structured checkpoint.
///
/// The log is a sequence of self-sealed records. A **base** record holds a
/// full snapshot; a **delta** record holds only the per-bucket count
/// increases and the user increment since the record before it — computed
/// against the previous snapshot the writer already holds in memory, so an
/// append costs O(reports since last checkpoint), not O(domain). Every
/// record ends with a `check` digest over its own bytes, so a reload
/// replays the longest intact prefix and a torn tail (crash mid-append) is
/// truncated at the last record boundary before new records land.
///
/// Compaction — an atomic rewrite of the whole log as one base record —
/// triggers after [`DELTA_COMPACT_EVERY`] deltas, when the log outgrows
/// [`DELTA_SIZE_RATIO`] × the base record, or whenever a delta cannot
/// express the change (first save, shrinking counts, width or run-line
/// change, or a v1 flat file being migrated).
#[derive(Debug)]
pub struct DeltaStore {
    path: PathBuf,
    compact_every: u64,
    size_ratio: u64,
    loaded: bool,
    /// The last durably saved snapshot — the baseline the next delta is
    /// computed against.
    prev: Option<AccumulatorSnapshot>,
    prev_run: Option<String>,
    /// Byte length of the intact record prefix; appends truncate to this
    /// first, so a torn tail can never sit between committed records.
    valid_len: usize,
    base_bytes: usize,
    deltas_since_base: u64,
    force_compact: bool,
}

impl DeltaStore {
    /// A delta store with the default compaction policy.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self::with_compaction(path, DELTA_COMPACT_EVERY, DELTA_SIZE_RATIO)
    }

    /// A delta store compacting every `compact_every` deltas or when the
    /// log exceeds `size_ratio` × the base record size — exposed so tests
    /// and benches can force compaction cycles quickly.
    pub fn with_compaction(path: impl Into<PathBuf>, compact_every: u64, size_ratio: u64) -> Self {
        Self {
            path: path.into(),
            compact_every: compact_every.max(1),
            size_ratio: size_ratio.max(1),
            loaded: false,
            prev: None,
            prev_run: None,
            valid_len: 0,
            base_bytes: 0,
            deltas_since_base: 0,
            force_compact: false,
        }
    }

    /// Number of delta records appended since the last base record —
    /// observability for tests asserting compaction behavior.
    pub fn deltas_since_base(&self) -> u64 {
        self.deltas_since_base
    }

    /// Atomically rewrites the log as a single base record.
    fn compact(&mut self, merged: &AccumulatorSnapshot, run_line: &str) -> Result<(), StoreError> {
        let mut body = format!("idldp-delta v1 base\nusers {}\n", merged.num_users());
        push_counts_line(&mut body, merged.counts());
        push_run_line(&mut body, run_line);
        let payload = seal(body);
        write_checkpoint_atomic(&self.path, &payload)?;
        self.valid_len = payload.len();
        self.base_bytes = payload.len();
        self.deltas_since_base = 0;
        self.force_compact = false;
        Ok(())
    }

    /// Appends one sealed delta record after truncating any torn tail.
    fn append(&mut self, record: &str) -> Result<(), StoreError> {
        let mut file = match std::fs::OpenOptions::new().write(true).open(&self.path) {
            Ok(file) => file,
            Err(e) => return Err(StoreError::Io(e)),
        };
        let valid = self.valid_len as u64;
        // Physically drop any torn tail first so the new record lands
        // immediately after the last intact one.
        file.set_len(valid)?;
        file.seek(SeekFrom::Start(valid))?;
        file.write_all(record.as_bytes())?;
        file.sync_all()?;
        self.valid_len += record.len();
        self.deltas_since_base += 1;
        Ok(())
    }
}

/// One sealed delta record: user increment + sparse count increases.
fn delta_record(
    prev: &AccumulatorSnapshot,
    merged: &AccumulatorSnapshot,
    run_line: &str,
) -> String {
    use std::fmt::Write as _;
    let du = merged.num_users() - prev.num_users();
    let mut body = format!("idldp-delta v1 delta\nusers +{du}\ncounts");
    for (i, (&p, &c)) in prev.counts().iter().zip(merged.counts()).enumerate() {
        if c != p {
            write!(body, " {i}:{}", c - p).expect("writing to String cannot fail");
        }
    }
    body.push('\n');
    push_run_line(&mut body, run_line);
    seal(body)
}

enum DeltaRecord {
    Base {
        counts: Vec<u64>,
        users: u64,
    },
    Delta {
        entries: Vec<(usize, u64)>,
        users: u64,
    },
}

/// Parses one record at the start of `s`. Returns the record and its byte
/// length, or `None` when the bytes are not one complete, digest-clean
/// record (the torn-tail / damage stop condition).
fn parse_delta_record(s: &str) -> Option<(usize, DeltaRecord, Option<String>)> {
    fn take_line<'a>(s: &'a str, pos: &mut usize) -> Option<&'a str> {
        let nl = s[*pos..].find('\n')? + *pos;
        let line = &s[*pos..nl];
        *pos = nl + 1;
        Some(line)
    }

    let mut pos = 0;
    let header = take_line(s, &mut pos)?;
    let is_base = match header {
        "idldp-delta v1 base" => true,
        "idldp-delta v1 delta" => false,
        _ => return None,
    };
    let users_line = take_line(s, &mut pos)?;
    let counts_line = take_line(s, &mut pos)?;
    let mut line = take_line(s, &mut pos)?;
    let mut run_line = None;
    if line.starts_with("run ") {
        run_line = Some(line.to_owned());
        line = take_line(s, &mut pos)?;
    }
    let check = u64::from_str_radix(line.strip_prefix("check ")?.trim(), 16).ok()?;
    let check_line_start = pos - (line.len() + 1);
    if fnv1a(&s.as_bytes()[..check_line_start]) != check {
        return None;
    }
    let record = if is_base {
        let users = users_line.strip_prefix("users ")?.trim().parse().ok()?;
        let counts = parse_counts_line(counts_line).ok()?;
        if counts.is_empty() {
            return None;
        }
        DeltaRecord::Base { counts, users }
    } else {
        let users = users_line.strip_prefix("users +")?.trim().parse().ok()?;
        let entries = counts_line
            .strip_prefix("counts")?
            .split_whitespace()
            .map(|tok| {
                let (i, d) = tok.split_once(':')?;
                Some((i.parse().ok()?, d.parse().ok()?))
            })
            .collect::<Option<Vec<(usize, u64)>>>()?;
        DeltaRecord::Delta { entries, users }
    };
    Some((pos, record, run_line))
}

impl SnapshotStore for DeltaStore {
    fn kind(&self) -> StoreKind {
        StoreKind::Delta
    }

    fn path(&self) -> &Path {
        &self.path
    }

    fn load(&mut self) -> Result<Option<RestoredCheckpoint>, StoreError> {
        self.loaded = true;
        self.prev = None;
        self.prev_run = None;
        self.valid_len = 0;
        self.base_bytes = 0;
        self.deltas_since_base = 0;
        self.force_compact = false;
        let bytes = match std::fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        if bytes.is_empty() {
            return Ok(None);
        }
        // A torn tail may cut a record mid-byte; treat trailing invalid
        // UTF-8 like any other torn suffix and parse the valid prefix.
        let text = match std::str::from_utf8(&bytes) {
            Ok(text) => text,
            Err(e) => std::str::from_utf8(&bytes[..e.valid_up_to()])
                .expect("prefix up to the reported error index is valid UTF-8"),
        };
        if text.starts_with("idldp-snapshot ") {
            // v1 flat checkpoint: migrate on read, rewrite as a delta-log
            // base record on the next save.
            let restored = load_v1_flat(text)?;
            self.prev = Some(restored.snapshot.clone());
            self.prev_run = restored.run_line.clone();
            self.force_compact = true;
            return Ok(Some(restored));
        }
        if !text.starts_with("idldp-delta v1 ") {
            let header = text.lines().next().unwrap_or_default();
            return Err(StoreError::Corrupt(format!(
                "`{}` is not a delta checkpoint log (header `{header}`)",
                self.path.display()
            )));
        }
        // Replay the longest intact record prefix; stop at the first torn
        // or damaged record.
        let mut pos = 0usize;
        let mut state: Option<(Vec<u64>, u64)> = None;
        while pos < text.len() {
            let Some((len, record, run_line)) = parse_delta_record(&text[pos..]) else {
                break;
            };
            match record {
                DeltaRecord::Base { counts, users } => {
                    state = Some((counts, users));
                    self.base_bytes = len;
                    self.deltas_since_base = 0;
                }
                DeltaRecord::Delta { entries, users } => {
                    let Some((counts, total_users)) = state.as_mut() else {
                        break;
                    };
                    let fits = entries.iter().all(|&(i, _)| i < counts.len());
                    if !fits {
                        break;
                    }
                    for (i, d) in entries {
                        counts[i] += d;
                    }
                    *total_users += users;
                    self.deltas_since_base += 1;
                }
            }
            self.prev_run = run_line;
            pos += len;
        }
        self.valid_len = pos;
        match state {
            Some((counts, users)) => {
                let snap = AccumulatorSnapshot::new(counts, users)
                    .map_err(|e| StoreError::Corrupt(e.to_string()))?;
                self.prev = Some(snap.clone());
                Ok(Some(RestoredCheckpoint {
                    snapshot: snap,
                    run_line: self.prev_run.clone(),
                }))
            }
            None => Ok(None),
        }
    }

    fn save(&mut self, shards: &[AccumulatorSnapshot], run_line: &str) -> Result<(), StoreError> {
        let merged = merge_shards(shards)?;
        if !self.loaded {
            self.load()?;
        }
        let run = (!run_line.is_empty()).then(|| run_line.to_owned());
        let need_full = self.force_compact
            || match &self.prev {
                None => true,
                Some(prev) => {
                    prev.report_len() != merged.report_len()
                        || prev.num_users() > merged.num_users()
                        || prev
                            .counts()
                            .iter()
                            .zip(merged.counts())
                            .any(|(p, c)| p > c)
                        || self.prev_run != run
                }
            };
        if need_full {
            self.compact(&merged, run_line)?;
        } else {
            let prev = self.prev.as_ref().expect("need_full is false");
            let record = delta_record(prev, &merged, run_line);
            let over_ratio = (self.valid_len + record.len()) as u64
                > self.size_ratio.saturating_mul(self.base_bytes as u64);
            if self.deltas_since_base >= self.compact_every || over_ratio {
                self.compact(&merged, run_line)?;
            } else {
                match self.append(&record) {
                    Ok(()) => {}
                    // The log vanished underneath us (e.g. deleted by an
                    // operator): rebuild it whole instead of failing.
                    Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                        self.compact(&merged, run_line)?;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        self.prev = Some(merged);
        self.prev_run = run;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "idldp-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snap(counts: &[u64], users: u64) -> AccumulatorSnapshot {
        AccumulatorSnapshot::new(counts.to_vec(), users).unwrap()
    }

    #[test]
    fn store_kind_parses_and_displays() {
        for kind in StoreKind::ALL {
            assert_eq!(kind.to_string().parse::<StoreKind>().unwrap(), kind);
        }
        assert!("zfs".parse::<StoreKind>().is_err());
        let retired = "sharded".parse::<StoreKind>().unwrap_err();
        assert!(
            retired.contains("file") && retired.contains("delta"),
            "{retired}"
        );
        assert_eq!(StoreKind::default(), StoreKind::File);
    }

    #[test]
    fn every_backend_round_trips_shards_and_run_line() {
        let dir = test_dir("roundtrip");
        let shards = [
            snap(&[1, 0, 5], 3),
            snap(&[0, 2, 0], 2),
            snap(&[4, 4, 4], 7),
        ];
        let merged = merge_shards(&shards).unwrap();
        for kind in StoreKind::ALL {
            let path = dir.join(format!("{kind}.ckpt"));
            let mut store = open_store(kind, &path);
            assert_eq!(store.kind(), kind);
            assert!(
                store.load().unwrap().is_none(),
                "{kind}: fresh path is empty"
            );
            store.save(&shards, "run test kind=demo").unwrap();
            // A brand-new store instance (fresh process) must see it.
            let mut reopened = open_store(kind, &path);
            let restored = reopened.load().unwrap().unwrap();
            assert_eq!(restored.merged(), merged, "{kind}");
            assert_eq!(restored.num_users(), 12, "{kind}");
            assert_eq!(restored.run_line(), Some("run test kind=demo"), "{kind}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_output_is_byte_compatible_with_legacy_writers() {
        let dir = test_dir("bytecompat");
        let path = dir.join("legacy.ckpt");
        let merged = snap(&[10, 20, 30], 6);
        // What `idldp ingest` / the server wrote before stores existed.
        merged
            .write_checkpoint(&path, "run legacy stamp\n")
            .unwrap();
        let legacy = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        FileStore::new(&path)
            .save(&[merged], "run legacy stamp")
            .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), legacy);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_backend_migrates_v1_flat_checkpoints() {
        let dir = test_dir("migrate");
        let merged = snap(&[7, 0, 9, 2], 11);
        for kind in StoreKind::ALL {
            let path = dir.join(format!("{kind}.ckpt"));
            merged.write_checkpoint(&path, "run old-format\n").unwrap();
            let mut store = open_store(kind, &path);
            let restored = store.load().unwrap().unwrap();
            assert_eq!(restored.merged(), merged, "{kind}");
            assert_eq!(restored.run_line(), Some("run old-format"), "{kind}");
            // The next save rewrites in the store's own format, and it
            // still round-trips.
            let grown = snap(&[8, 1, 9, 2], 12);
            store
                .save(std::slice::from_ref(&grown), "run old-format")
                .unwrap();
            let again = open_store(kind, &path).load().unwrap().unwrap();
            assert_eq!(again.merged(), grown, "{kind}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_store_appends_then_compacts_on_schedule() {
        let dir = test_dir("compaction");
        let path = dir.join("d.log");
        let mut store = DeltaStore::with_compaction(&path, 3, 1_000_000);
        let mut counts = vec![10u64, 0, 0];
        let mut users = 10u64;
        store.save(&[snap(&counts, users)], "run r").unwrap();
        assert_eq!(store.deltas_since_base(), 0, "first save is a base");
        for round in 1..=7u64 {
            counts[(round % 3) as usize] += 1;
            users += 1;
            store.save(&[snap(&counts, users)], "run r").unwrap();
        }
        // 7 saves after the base with compact_every=3: deltas 1,2,3 then
        // compact resets, deltas 1,2,3 then compact again... the counter
        // never exceeds the bound.
        assert!(store.deltas_since_base() <= 3);
        let restored = DeltaStore::new(&path).load().unwrap().unwrap();
        assert_eq!(restored.merged(), snap(&counts, users));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_store_truncates_torn_tail_to_last_intact_record() {
        let dir = test_dir("torntail");
        let path = dir.join("d.log");
        let mut store = DeltaStore::with_compaction(&path, 1_000, 1_000_000);
        let mut sizes = Vec::new();
        let mut snaps = Vec::new();
        let mut counts = vec![5u64, 5, 5];
        let mut users = 5u64;
        for round in 0..4u64 {
            counts[(round % 3) as usize] += round + 1;
            users += 1;
            let s = snap(&counts, users);
            store.save(std::slice::from_ref(&s), "run torn").unwrap();
            sizes.push(std::fs::metadata(&path).unwrap().len());
            snaps.push(s);
        }
        let whole = std::fs::read(&path).unwrap();
        // Cut mid-way into the last record: the reload must land exactly
        // on the state after the third save.
        let cut = ((sizes[2] + sizes[3]) / 2) as usize;
        std::fs::write(&path, &whole[..cut]).unwrap();
        let mut reopened = DeltaStore::new(&path);
        let restored = reopened.load().unwrap().unwrap();
        assert_eq!(restored.merged(), snaps[2]);
        // Saving after the truncation drops the torn bytes and continues
        // the log from the intact prefix.
        let next = snap(&[99, 99, 99], 99);
        reopened
            .save(std::slice::from_ref(&next), "run torn")
            .unwrap();
        assert_eq!(
            DeltaStore::new(&path).load().unwrap().unwrap().merged(),
            next
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_store_compacts_when_counts_shrink_or_run_line_changes() {
        let dir = test_dir("fullrewrite");
        let path = dir.join("d.log");
        let mut store = DeltaStore::with_compaction(&path, 1_000, 1_000_000);
        store.save(&[snap(&[4, 4], 4)], "run a").unwrap();
        store.save(&[snap(&[5, 4], 5)], "run a").unwrap();
        assert_eq!(store.deltas_since_base(), 1);
        // Run line changed: the delta lineage is broken, rewrite whole.
        store.save(&[snap(&[6, 4], 6)], "run b").unwrap();
        assert_eq!(store.deltas_since_base(), 0);
        // Shrinking counts (a reset) likewise force a fresh base.
        store.save(&[snap(&[1, 1], 1)], "run b").unwrap();
        assert_eq!(store.deltas_since_base(), 0);
        let restored = DeltaStore::new(&path).load().unwrap().unwrap();
        assert_eq!(restored.merged(), snap(&[1, 1], 1));
        assert_eq!(restored.run_line(), Some("run b"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_rejects_empty_or_mismatched_shards() {
        let dir = test_dir("badargs");
        for kind in StoreKind::ALL {
            let mut store = open_store(kind, dir.join(format!("{kind}.ckpt")));
            assert!(store.save(&[], "").is_err(), "{kind}: empty shard list");
            assert!(
                store.save(&[snap(&[1], 1), snap(&[1, 2], 1)], "").is_err(),
                "{kind}: width mismatch"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
