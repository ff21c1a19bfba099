//! Disk persistence for feature snapshots, keyed by environment fingerprint.
//!
//! The paper's FST workflow fits a snapshot once per environment and reuses
//! it for every model trained under that environment — including after a
//! restart or on a different machine with the same configuration. The store
//! lays an environment's serving state out as sibling files:
//!
//! ```text
//! <root>/<benchmark>/<fingerprint>.qcfs             feature snapshot log (QCFL)
//! <root>/<benchmark>/<fingerprint>.qvec             knob vector (QVEC)
//! <root>/<benchmark>/<fingerprint>.<estimator>.qcfw trained weights (QCFW)
//! ```
//!
//! using the versioned binary codec family (`QCFS` in
//! [`qcfe_core::snapshot`], `QCFW` in [`qcfe_core::model_codec`] /
//! `qcfe_nn::codec`, `QVEC` and `QCFL` below), which round-trips every
//! coefficient and weight bit-exactly: a reloaded snapshot or model yields
//! *identical* estimates, not merely close ones. The weight sidecars are
//! what make a restarted estimator self-serving — [`SnapshotStore::load_model`]
//! hands back a ready [`PersistedModel`] instead of forcing a retrain.
//! Weight and knob-vector files are written through a temp file plus
//! rename, so a crashed writer never leaves a torn file behind and
//! concurrent readers only ever observe complete frames.
//!
//! # The snapshot log
//!
//! The gateway persists every online refit before it swaps the refit in,
//! hundreds of times a second under feedback, so a `.qcfs` file is an
//! append-only log of `QCFS` frames, newest last:
//!
//! ```text
//! offset   bytes  field
//! 0        4      magic "QCFL"
//! 4        4      u32 LE log version (1)
//! 8        4      record: u32 LE frame length (<= SNAPSHOT_MAX_ENCODED_LEN)
//! 12       4      record: u32 LE CRC-32 of the frame
//! 16       len    record: the QCFS frame (FeatureSnapshot::to_bytes)
//! 16+len   ...    further records
//! ```
//!
//! **Write path.** [`SnapshotStore::save`] appends one record with one
//! `O_APPEND` write. It writes a fresh one-record log through
//! [`SnapshotStore::write_atomic`] (temp file + rename) instead when the
//! file is missing, when it is not a log of this version (a legacy
//! single-frame `QCFS` file, or garbage), or when the record would take it
//! past [`SnapshotStore::LOG_COMPACT_BYTES`]: the log's create and compact
//! step. A compaction can rename a fresh log over the path between an
//! append's open and its write, which leaves the record in the replaced
//! file; the append then sees that the path no longer names the file it
//! wrote (device and inode differ) and saves again. So a save returns only
//! once its record is in the file at the path, and the last save to
//! complete wins, as with a rename.
//!
//! **Read path.** [`SnapshotStore::load`], [`SnapshotStore::snapshot_bytes`]
//! and [`SnapshotStore::manifest`] read the log's last CRC-valid record:
//! the frame a single-frame file would hold, so replication ships and
//! manifests hash the same bytes on either side of the format change. The
//! reader steps a byte at a time past bytes that do not frame a CRC-valid
//! record, and rejects a length above the longest `QCFS` frame before
//! hashing. A torn tail or appended garbage therefore never hides the
//! previous record, a record appended after a torn tail is the one read,
//! and a garbage log scans in bounded time. A concurrent reader gets the
//! current record or the previous one, never a torn frame. A log with no
//! valid record fails typed ([`StoreError::Codec`]), never as `Ok(None)`.
//!
//! **Legacy files and downgrades.** A single-frame `.qcfs` file (the
//! format before the log) loads unchanged, and its first save converts it
//! to a log. A binary built before the log reads a log as `BadMagic`: a
//! typed failure, and the limit of a downgrade.
//!
//! **Power loss** is out of scope, as it was for the rename: neither path
//! calls `fsync`. A process crash loses no record a save returned for.
//! ext4 starts writeback of a file renamed over another at the rename
//! (`auto_da_alloc`), but an append gets no such early writeback. After a
//! power loss, the newest refits can therefore be missing for up to the
//! kernel's dirty-writeback interval, not the journal commit interval.

use qcfe_core::model_codec::{ModelCodecError, PersistedModel};
use qcfe_core::pipeline::EstimatorKind;
use qcfe_core::snapshot::{
    FeatureSnapshot, SnapshotCodecError, SNAPSHOT_MAGIC, SNAPSHOT_MAX_ENCODED_LEN,
};
use qcfe_db::env::{knob_distance, EnvFingerprint};
use qcfe_db::DbEnvironment;
use qcfe_nn::codec::crc32;
use qcfe_workloads::BenchmarkKind;
use std::fs::{File, Metadata, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of knob-vector sidecar files.
const VECTOR_MAGIC: &[u8; 4] = b"QVEC";
/// Current knob-vector codec version.
const VECTOR_VERSION: u16 = 1;

/// Magic prefix of snapshot log files.
const LOG_MAGIC: &[u8; 4] = b"QCFL";
/// Current snapshot-log codec version.
const LOG_VERSION: u32 = 1;
/// The header every snapshot log of this version starts with.
const LOG_HEADER: [u8; 8] = {
    let (m, v) = (*LOG_MAGIC, LOG_VERSION.to_le_bytes());
    [m[0], m[1], m[2], m[3], v[0], v[1], v[2], v[3]]
};
/// Bytes of a log record's `[u32 len][u32 crc32]` prefix.
const RECORD_PREFIX_LEN: usize = 8;

/// The `QCFS` frame of the log record that starts `bytes`, or `None` when
/// they do not frame a CRC-valid record. A length above the longest frame
/// is rejected before hashing.
fn record_frame(bytes: &[u8]) -> Option<&[u8]> {
    let field = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    if bytes.len() < RECORD_PREFIX_LEN {
        return None;
    }
    let len = field(0) as usize;
    if len > SNAPSHOT_MAX_ENCODED_LEN {
        return None;
    }
    let frame = bytes.get(RECORD_PREFIX_LEN..RECORD_PREFIX_LEN + len)?;
    (frame.starts_with(SNAPSHOT_MAGIC) && crc32(frame) == field(4)).then_some(frame)
}

/// The `QCFS` frame a snapshot file holds now: a log's last CRC-valid
/// record, or a legacy single-frame file whole. Bytes that do not frame a
/// record (a torn tail, garbage) are stepped past one at a time, so a
/// record appended after them is still found. A log with no valid record
/// is [`SnapshotCodecError::Truncated`]; one of an unknown version is
/// [`SnapshotCodecError::UnsupportedVersion`].
fn current_frame(file: &[u8]) -> Result<&[u8], SnapshotCodecError> {
    let Some(body) = file.strip_prefix(LOG_MAGIC) else {
        return Ok(file);
    };
    let version = body.get(..4).ok_or(SnapshotCodecError::Truncated)?;
    let version = u32::from_le_bytes(version.try_into().expect("4 bytes"));
    if version != LOG_VERSION {
        return Err(SnapshotCodecError::UnsupportedVersion(version));
    }
    let mut rest = &body[4..];
    let mut last = None;
    while !rest.is_empty() {
        match record_frame(rest) {
            Some(frame) => {
                last = Some(frame);
                rest = &rest[RECORD_PREFIX_LEN + frame.len()..];
            }
            None => rest = &rest[1..],
        }
    }
    last.ok_or(SnapshotCodecError::Truncated)
}

/// A one-record snapshot log holding `snapshot`: the log header, then the
/// record `save` appends to an existing log.
fn one_record_log(snapshot: &FeatureSnapshot) -> Vec<u8> {
    let frame = snapshot.to_bytes();
    let mut log = Vec::with_capacity(LOG_HEADER.len() + RECORD_PREFIX_LEN + frame.len());
    log.extend_from_slice(&LOG_HEADER);
    log.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    log.extend_from_slice(&crc32(&frame).to_le_bytes());
    log.extend_from_slice(&frame);
    log
}

/// What one attempt to append a record to a snapshot log did.
#[derive(Debug, PartialEq, Eq)]
enum Append {
    /// The record is in the file the path names.
    Written,
    /// The file is missing, is not a log of this version, or would outgrow
    /// [`SnapshotStore::LOG_COMPACT_BYTES`]: write a fresh one-record log
    /// instead.
    Compact,
    /// A compaction renamed a fresh log over the path after the file was
    /// opened, so the record went to the replaced file: save again.
    Replaced,
}

/// Whether two metadata records describe the same file.
#[cfg(unix)]
fn same_file(a: &Metadata, b: &Metadata) -> bool {
    use std::os::unix::fs::MetadataExt;
    (a.dev(), a.ino()) == (b.dev(), b.ino())
}

/// Without inode numbers a replaced log cannot be told from the one that
/// was opened, so the check passes.
#[cfg(not(unix))]
fn same_file(_: &Metadata, _: &Metadata) -> bool {
    true
}

/// Errors from the snapshot store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file exists but does not decode (corruption or version skew).
    Codec(SnapshotCodecError),
    /// A knob-vector sidecar file exists but does not decode.
    Vector(String),
    /// A model-weight sidecar file exists but does not decode, or the
    /// save/load request is inconsistent with the estimator family.
    Model(ModelCodecError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot store I/O error: {e}"),
            StoreError::Codec(e) => write!(f, "snapshot store codec error: {e}"),
            StoreError::Vector(e) => write!(f, "snapshot store knob-vector error: {e}"),
            StoreError::Model(e) => write!(f, "snapshot store model-weight error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            StoreError::Vector(_) => None,
            StoreError::Model(e) => Some(e),
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<SnapshotCodecError> for StoreError {
    fn from(e: SnapshotCodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<ModelCodecError> for StoreError {
    fn from(e: ModelCodecError) -> Self {
        StoreError::Model(e)
    }
}

/// Decode a knob-vector sidecar file.
fn decode_vector(bytes: &[u8]) -> Result<Vec<f64>, StoreError> {
    if bytes.len() < 8 || &bytes[..4] != VECTOR_MAGIC {
        return Err(StoreError::Vector("not a QVEC file (bad magic)".into()));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VECTOR_VERSION {
        return Err(StoreError::Vector(format!(
            "unsupported knob-vector version {version}"
        )));
    }
    let dim = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
    let body = &bytes[8..];
    if body.len() != dim * 8 {
        return Err(StoreError::Vector(format!(
            "knob-vector body is {} bytes, expected {} for dim {dim}",
            body.len(),
            dim * 8
        )));
    }
    Ok(body
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect())
}

/// File-system slug for a benchmark directory.
fn benchmark_slug(kind: BenchmarkKind) -> &'static str {
    match kind {
        BenchmarkKind::Tpch => "tpch",
        BenchmarkKind::JobLight => "joblight",
        BenchmarkKind::Sysbench => "sysbench",
    }
}

/// File-system slug of an estimator family (embedded in weight-sidecar
/// names).
fn estimator_slug(kind: EstimatorKind) -> &'static str {
    match kind {
        EstimatorKind::Pgsql => "pgsql",
        EstimatorKind::Mscn => "mscn",
        EstimatorKind::QppNet => "qppnet",
        EstimatorKind::QcfeMscn => "qcfe-mscn",
        EstimatorKind::QcfeQpp => "qcfe-qpp",
    }
}

/// Inverse of [`estimator_slug`], used when listing persisted weights.
fn estimator_from_slug(slug: &str) -> Option<EstimatorKind> {
    EstimatorKind::ALL
        .iter()
        .copied()
        .find(|k| estimator_slug(*k) == slug)
}

/// Whether a decoded weight payload belongs to the estimator family it was
/// requested (or is being saved) under. The analytical `PGSQL` baseline has
/// no weights at all.
fn model_matches_estimator(model: &PersistedModel, estimator: EstimatorKind) -> bool {
    matches!(
        (model, estimator),
        (
            PersistedModel::Mscn(_),
            EstimatorKind::Mscn | EstimatorKind::QcfeMscn
        ) | (
            PersistedModel::QppNet(_),
            EstimatorKind::QppNet | EstimatorKind::QcfeQpp
        )
    )
}

/// One entry of a store manifest: the identity of a persisted artifact
/// plus a CRC-32 over the exact payload replication ships — a snapshot's
/// current `QCFS` frame (not its log file) or a weight sidecar's verbatim
/// `QCFW` file bytes. Two stores hold bit-identical state for a key
/// exactly when their entries for it carry equal CRCs, however their
/// snapshot logs got there, which is what the revival catch-up handshake
/// diffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ManifestEntry {
    /// A persisted feature snapshot (`<fp>.qcfs`).
    Snapshot {
        /// The benchmark directory the snapshot lives under.
        benchmark: BenchmarkKind,
        /// The environment fingerprint it is keyed by.
        fingerprint: EnvFingerprint,
        /// CRC-32 over the current `QCFS` frame
        /// ([`SnapshotStore::snapshot_bytes`]), not the log file.
        crc: u32,
    },
    /// Persisted model weights (`<fp>.<estimator>.qcfw`).
    Model {
        /// The benchmark directory the weights live under.
        benchmark: BenchmarkKind,
        /// The estimator family of the serving key.
        estimator: EstimatorKind,
        /// The environment fingerprint of the serving key.
        fingerprint: EnvFingerprint,
        /// CRC-32 over the verbatim `QCFW` file bytes.
        crc: u32,
    },
}

/// A directory of persisted feature snapshots keyed by
/// `(benchmark, environment fingerprint)`.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    root: PathBuf,
}

impl SnapshotStore {
    /// Extension of snapshot files.
    pub const EXTENSION: &'static str = "qcfs";

    /// A snapshot save whose record would take the log past this many
    /// bytes writes a fresh one-record log instead: about 200 records of
    /// a typical snapshot between two compactions.
    const LOG_COMPACT_BYTES: u64 = 64 * 1024;

    /// The crash-safe write of weight and knob-vector files, and the
    /// snapshot log's create and compact step: a temp file unique per
    /// process *and* per call (pid + process-wide sequence number, so
    /// concurrent savers of the same key never interleave writes into one
    /// file) followed by an atomic rename — last writer wins and readers
    /// only ever observe complete files. A failed write or rename removes
    /// the temp file.
    fn write_atomic(path: &Path, tmp_tag: &str, bytes: &[u8]) -> Result<(), StoreError> {
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = path.parent().expect("store paths have a parent");
        std::fs::create_dir_all(dir)?;
        let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dir.join(format!(".{tmp_tag}.{}.{}.tmp", std::process::id(), seq));
        if let Err(e) = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path)) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Append one log record to the snapshot log at `path` with one
    /// `O_APPEND` write, unless the file is missing, is not a log of this
    /// version, or the record would take it past
    /// [`SnapshotStore::LOG_COMPACT_BYTES`] ([`Append::Compact`]).
    fn append_record(path: &Path, record: &[u8]) -> Result<Append, StoreError> {
        let mut file = match OpenOptions::new().read(true).append(true).open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Append::Compact),
            Err(e) => return Err(e.into()),
        };
        let opened = file.metadata()?;
        let mut header = [0u8; LOG_HEADER.len()];
        if opened.len() + record.len() as u64 > Self::LOG_COMPACT_BYTES
            || file.read_exact(&mut header).is_err()
            || header != LOG_HEADER
        {
            return Ok(Append::Compact);
        }
        Self::append_to(&mut file, &opened, path, record)
    }

    /// Write `record` to the end of the open log `file` in one write, then
    /// check that `path` still names that file: a compaction that renamed
    /// a fresh log over the path since `opened` was taken left the record
    /// in the replaced file ([`Append::Replaced`]).
    fn append_to(
        file: &mut File,
        opened: &Metadata,
        path: &Path,
        record: &[u8],
    ) -> Result<Append, StoreError> {
        // One write, so concurrent appenders never interleave parts of
        // their records; a short write would leave a torn record behind.
        if file.write(record)? != record.len() {
            return Err(
                io::Error::new(io::ErrorKind::WriteZero, "short append to a snapshot log").into(),
            );
        }
        match std::fs::metadata(path) {
            Ok(now) if same_file(&now, opened) => Ok(Append::Written),
            Ok(_) => Ok(Append::Replaced),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Append::Replaced),
            Err(e) => Err(e.into()),
        }
    }

    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(SnapshotStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path a snapshot is stored at.
    pub fn path_for(&self, benchmark: BenchmarkKind, fingerprint: EnvFingerprint) -> PathBuf {
        self.root.join(benchmark_slug(benchmark)).join(format!(
            "{}.{}",
            fingerprint.to_hex(),
            Self::EXTENSION
        ))
    }

    /// Persist a snapshot: append one record to the key's snapshot log, or
    /// write a fresh one-record log when the file is missing, legacy or
    /// due for compaction (see the module docs). Returns once the record
    /// is in the file the path names.
    pub fn save(
        &self,
        benchmark: BenchmarkKind,
        fingerprint: EnvFingerprint,
        snapshot: &FeatureSnapshot,
    ) -> Result<PathBuf, StoreError> {
        let path = self.path_for(benchmark, fingerprint);
        let log = one_record_log(snapshot);
        loop {
            match Self::append_record(&path, &log[LOG_HEADER.len()..])? {
                Append::Written => return Ok(path),
                Append::Replaced => continue,
                Append::Compact => {
                    Self::write_atomic(&path, &fingerprint.to_hex(), &log)?;
                    return Ok(path);
                }
            }
        }
    }

    /// The file bytes of a persisted snapshot; `Ok(None)` when never
    /// persisted.
    fn snapshot_file(
        &self,
        benchmark: BenchmarkKind,
        fingerprint: EnvFingerprint,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        match std::fs::read(self.path_for(benchmark, fingerprint)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Load a snapshot: the last CRC-valid record of its log, or a legacy
    /// single-frame file. `Ok(None)` when never persisted; a file that
    /// holds no decodable snapshot is a typed [`StoreError::Codec`].
    pub fn load(
        &self,
        benchmark: BenchmarkKind,
        fingerprint: EnvFingerprint,
    ) -> Result<Option<FeatureSnapshot>, StoreError> {
        let Some(file) = self.snapshot_file(benchmark, fingerprint)? else {
            return Ok(None);
        };
        Ok(Some(FeatureSnapshot::from_bytes(current_frame(&file)?)?))
    }

    /// Whether a snapshot is persisted for the key.
    pub fn contains(&self, benchmark: BenchmarkKind, fingerprint: EnvFingerprint) -> bool {
        self.path_for(benchmark, fingerprint).is_file()
    }

    /// Delete a persisted snapshot; returns whether one existed.
    pub fn remove(
        &self,
        benchmark: BenchmarkKind,
        fingerprint: EnvFingerprint,
    ) -> Result<bool, StoreError> {
        match std::fs::remove_file(self.path_for(benchmark, fingerprint)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Fingerprints persisted for a benchmark, in ascending order.
    pub fn list(&self, benchmark: BenchmarkKind) -> Result<Vec<EnvFingerprint>, StoreError> {
        let dir = self.root.join(benchmark_slug(benchmark));
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut out = Vec::new();
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(Self::EXTENSION) {
                continue;
            }
            if let Some(fp) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(EnvFingerprint::from_hex)
            {
                out.push(fp);
            }
        }
        out.sort();
        Ok(out)
    }

    /// Extension of knob-vector sidecar files.
    pub const VECTOR_EXTENSION: &'static str = "qvec";

    /// Path an environment's knob vector is stored at.
    pub fn vector_path_for(
        &self,
        benchmark: BenchmarkKind,
        fingerprint: EnvFingerprint,
    ) -> PathBuf {
        self.root.join(benchmark_slug(benchmark)).join(format!(
            "{}.{}",
            fingerprint.to_hex(),
            Self::VECTOR_EXTENSION
        ))
    }

    /// Persist an environment's knob vector next to its snapshot (atomic
    /// temp-file + rename, [`SnapshotStore::write_atomic`]). The vector makes
    /// the fingerprint *searchable*: nearest-neighbour lookups over
    /// persisted vectors drive the gateway's cross-environment snapshot
    /// transfer.
    ///
    /// A file that already holds exactly these bytes is left as it is, with
    /// no temp file and no rename. The knob vector is a function of the
    /// fingerprinted environment, so every online refit re-saves the bytes
    /// already on disk; only a missing, differing or corrupt file is
    /// rewritten.
    pub fn save_vector(
        &self,
        benchmark: BenchmarkKind,
        fingerprint: EnvFingerprint,
        vector: &[f64],
    ) -> Result<PathBuf, StoreError> {
        let path = self.vector_path_for(benchmark, fingerprint);
        let mut bytes = Vec::with_capacity(8 + 8 * vector.len());
        bytes.extend_from_slice(VECTOR_MAGIC);
        bytes.extend_from_slice(&VECTOR_VERSION.to_le_bytes());
        let dim = u16::try_from(vector.len())
            .map_err(|_| StoreError::Vector(format!("vector dim {} too large", vector.len())))?;
        bytes.extend_from_slice(&dim.to_le_bytes());
        for v in vector {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        if std::fs::read(&path).is_ok_and(|on_disk| on_disk == bytes) {
            return Ok(path);
        }
        Self::write_atomic(&path, &format!("{}.qvec", fingerprint.to_hex()), &bytes)?;
        Ok(path)
    }

    /// Load a persisted knob vector; `Ok(None)` when never persisted.
    pub fn load_vector(
        &self,
        benchmark: BenchmarkKind,
        fingerprint: EnvFingerprint,
    ) -> Result<Option<Vec<f64>>, StoreError> {
        let path = self.vector_path_for(benchmark, fingerprint);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(decode_vector(&bytes)?))
    }

    /// Persist both halves of an environment's serving state — its feature
    /// snapshot and its knob vector — under the environment's fingerprint.
    /// This is the publication path the gateway uses; environments saved
    /// this way participate in nearest-fingerprint transfer.
    pub fn save_env(
        &self,
        benchmark: BenchmarkKind,
        environment: &DbEnvironment,
        snapshot: &FeatureSnapshot,
    ) -> Result<PathBuf, StoreError> {
        let fingerprint = environment.fingerprint();
        let path = self.save(benchmark, fingerprint, snapshot)?;
        self.save_vector(benchmark, fingerprint, &environment.knob_vector())?;
        Ok(path)
    }

    /// Every persisted `(fingerprint, knob vector)` pair for a benchmark,
    /// in ascending fingerprint order. Unreadable or corrupt sidecar files
    /// are skipped — a damaged vector must degrade transfer candidates, not
    /// fail lookups.
    pub fn list_vectors(
        &self,
        benchmark: BenchmarkKind,
    ) -> Result<Vec<(EnvFingerprint, Vec<f64>)>, StoreError> {
        let dir = self.root.join(benchmark_slug(benchmark));
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut out = Vec::new();
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(Self::VECTOR_EXTENSION) {
                continue;
            }
            let Some(fp) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(EnvFingerprint::from_hex)
            else {
                continue;
            };
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            if let Ok(vector) = decode_vector(&bytes) {
                out.push((fp, vector));
            }
        }
        out.sort_by_key(|(fp, _)| *fp);
        Ok(out)
    }

    /// The persisted environment nearest to `query` in knob-vector space,
    /// as a `(fingerprint, distance)` pair.
    ///
    /// Only environments with *both* a knob vector and a decodable snapshot
    /// count as candidates (a vector without its snapshot cannot seed a
    /// warm start), and `exclude` — normally the querying environment's own
    /// fingerprint — never matches itself.
    ///
    /// Deterministic under ties: candidates at exactly equal distance
    /// resolve to the smallest fingerprint, independent of directory
    /// enumeration or save order, so transfer provenance is reproducible
    /// across runs.
    pub fn nearest_environment(
        &self,
        benchmark: BenchmarkKind,
        query: &[f64],
        exclude: EnvFingerprint,
    ) -> Result<Option<(EnvFingerprint, f64)>, StoreError> {
        let mut best: Option<(EnvFingerprint, f64)> = None;
        for (fp, vector) in self.list_vectors(benchmark)? {
            if fp == exclude || !self.contains(benchmark, fp) {
                continue;
            }
            let d = knob_distance(query, &vector);
            if !d.is_finite() {
                continue;
            }
            // The explicit fingerprint tie-break keeps the result stable
            // even if the candidate iteration order ever stops being
            // fingerprint-sorted.
            if best
                .map(|(bfp, bd)| d < bd || (d == bd && fp < bfp))
                .unwrap_or(true)
            {
                best = Some((fp, d));
            }
        }
        Ok(best)
    }

    /// Extension of model-weight sidecar files.
    pub const MODEL_EXTENSION: &'static str = "qcfw";

    /// Path a trained model's weights are stored at. The estimator family
    /// is part of the file name because one environment can serve several
    /// families concurrently.
    pub fn model_path_for(
        &self,
        benchmark: BenchmarkKind,
        estimator: EstimatorKind,
        fingerprint: EnvFingerprint,
    ) -> PathBuf {
        self.root.join(benchmark_slug(benchmark)).join(format!(
            "{}.{}.{}",
            fingerprint.to_hex(),
            estimator_slug(estimator),
            Self::MODEL_EXTENSION
        ))
    }

    /// Persist a trained model's weights next to the environment's snapshot
    /// (atomic temp-file + rename, [`SnapshotStore::write_atomic`]): readers
    /// never observe a partially written weight file. Rejects saving a
    /// model under an estimator family it does not belong to.
    pub fn save_model(
        &self,
        benchmark: BenchmarkKind,
        estimator: EstimatorKind,
        fingerprint: EnvFingerprint,
        model: &PersistedModel,
    ) -> Result<PathBuf, StoreError> {
        if !model_matches_estimator(model, estimator) {
            return Err(StoreError::Model(ModelCodecError::Malformed(format!(
                "a {} payload cannot be saved under the {} estimator key",
                model.name(),
                estimator.name()
            ))));
        }
        let path = self.model_path_for(benchmark, estimator, fingerprint);
        let tag = format!("{}.{}", fingerprint.to_hex(), estimator_slug(estimator));
        Self::write_atomic(&path, &tag, &model.to_bytes())?;
        Ok(path)
    }

    /// Load persisted model weights; `Ok(None)` when never persisted. A
    /// present-but-corrupt file (or one holding a different estimator
    /// family than the name claims) surfaces a typed
    /// [`StoreError::Model`] — never garbage weights.
    pub fn load_model(
        &self,
        benchmark: BenchmarkKind,
        estimator: EstimatorKind,
        fingerprint: EnvFingerprint,
    ) -> Result<Option<PersistedModel>, StoreError> {
        let path = self.model_path_for(benchmark, estimator, fingerprint);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let model = PersistedModel::from_bytes(&bytes)?;
        if !model_matches_estimator(&model, estimator) {
            return Err(StoreError::Model(ModelCodecError::Malformed(format!(
                "weight file for {} holds a {} payload",
                estimator.name(),
                model.name()
            ))));
        }
        Ok(Some(model))
    }

    /// Whether model weights are persisted for the key.
    pub fn contains_model(
        &self,
        benchmark: BenchmarkKind,
        estimator: EstimatorKind,
        fingerprint: EnvFingerprint,
    ) -> bool {
        self.model_path_for(benchmark, estimator, fingerprint)
            .is_file()
    }

    /// Delete persisted model weights; returns whether a file existed.
    pub fn remove_model(
        &self,
        benchmark: BenchmarkKind,
        estimator: EstimatorKind,
        fingerprint: EnvFingerprint,
    ) -> Result<bool, StoreError> {
        match std::fs::remove_file(self.model_path_for(benchmark, estimator, fingerprint)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Move an *undecodable* weight sidecar aside as `<name>.corrupt`,
    /// returning the new path (`Ok(None)` when no file existed or the
    /// current content loads fine). The gateway's disk loader quarantines
    /// failed files this way: the canonical path reads as a clean miss on
    /// every later restart (no repeated doomed decode), the evidence stays
    /// on disk for inspection, and a later `publish_model` rewrites the
    /// canonical path.
    ///
    /// The file is re-verified immediately before the rename, so a
    /// concurrent republish that already replaced a corrupt sidecar with
    /// valid weights is left untouched instead of being quarantined on the
    /// strength of a stale read.
    pub fn quarantine_model(
        &self,
        benchmark: BenchmarkKind,
        estimator: EstimatorKind,
        fingerprint: EnvFingerprint,
    ) -> Result<Option<PathBuf>, StoreError> {
        if self.load_model(benchmark, estimator, fingerprint).is_ok() {
            // Absent, or decodes cleanly now (e.g. republished since the
            // caller's failed read): nothing to quarantine.
            return Ok(None);
        }
        let path = self.model_path_for(benchmark, estimator, fingerprint);
        let mut quarantined = path.clone().into_os_string();
        quarantined.push(".corrupt");
        let quarantined = PathBuf::from(quarantined);
        match std::fs::rename(&path, &quarantined) {
            Ok(()) => Ok(Some(quarantined)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Every `(estimator, fingerprint)` pair with persisted weights for a
    /// benchmark, in ascending `(fingerprint, estimator slug)` order.
    /// Files with unparseable names are skipped; contents are *not*
    /// decoded here (listing stays cheap).
    pub fn list_models(
        &self,
        benchmark: BenchmarkKind,
    ) -> Result<Vec<(EstimatorKind, EnvFingerprint)>, StoreError> {
        let dir = self.root.join(benchmark_slug(benchmark));
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut out = Vec::new();
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(Self::MODEL_EXTENSION) {
                continue;
            }
            // The stem of `<hex>.<slug>.qcfw` is `<hex>.<slug>`.
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Some((hex, slug)) = stem.split_once('.') else {
                continue;
            };
            let (Some(fp), Some(estimator)) =
                (EnvFingerprint::from_hex(hex), estimator_from_slug(slug))
            else {
                continue;
            };
            out.push((estimator, fp));
        }
        out.sort_by_key(|(estimator, fp)| (*fp, estimator_slug(*estimator)));
        Ok(out)
    }

    /// The verbatim `QCFS` frame of a persisted snapshot: its log's last
    /// CRC-valid record, or a legacy single-frame file whole; `Ok(None)`
    /// when never persisted. This is the replication payload: shipping the
    /// persisted frame untouched (rather than decode + re-encode) keeps the
    /// receiver's copy bit-identical to the sender's, so manifest CRCs
    /// agree however differently the two logs got there. A log with no
    /// valid record yields its file bytes, which no peer holds and every
    /// peer rejects typed.
    pub fn snapshot_bytes(
        &self,
        benchmark: BenchmarkKind,
        fingerprint: EnvFingerprint,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self
            .snapshot_file(benchmark, fingerprint)?
            .map(|file| match current_frame(&file) {
                Ok(frame) => frame.to_vec(),
                Err(_) => file,
            }))
    }

    /// The verbatim bytes of a persisted weight sidecar; `Ok(None)` when
    /// never persisted. See [`SnapshotStore::snapshot_bytes`].
    pub fn model_bytes(
        &self,
        benchmark: BenchmarkKind,
        estimator: EstimatorKind,
        fingerprint: EnvFingerprint,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        match std::fs::read(self.model_path_for(benchmark, estimator, fingerprint)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// A deterministic manifest of every persisted snapshot and weight
    /// sidecar across all benchmarks: the anti-entropy summary a revived
    /// peer sends so the survivors can diff stores and re-ship exactly the
    /// divergent keys.
    ///
    /// Order is fully determined by the content, never by directory
    /// enumeration: benchmarks in `BenchmarkKind::ALL` order, and within a
    /// benchmark the snapshots (ascending fingerprint, from
    /// [`SnapshotStore::list`]) before the models (ascending
    /// `(fingerprint, estimator slug)`, from [`SnapshotStore::list_models`]).
    /// Each entry's CRC-32 covers what replication would ship: a snapshot's
    /// current `QCFS` frame ([`SnapshotStore::snapshot_bytes`]) or a weight
    /// file's verbatim bytes. A file that vanishes between listing and
    /// hashing (concurrent republish) is skipped — it will show up as
    /// missing and simply be re-shipped.
    pub fn manifest(&self) -> Result<Vec<ManifestEntry>, StoreError> {
        let mut out = Vec::new();
        for benchmark in BenchmarkKind::ALL {
            for fingerprint in self.list(benchmark)? {
                if let Some(bytes) = self.snapshot_bytes(benchmark, fingerprint)? {
                    out.push(ManifestEntry::Snapshot {
                        benchmark,
                        fingerprint,
                        crc: crc32(&bytes),
                    });
                }
            }
            for (estimator, fingerprint) in self.list_models(benchmark)? {
                if let Some(bytes) = self.model_bytes(benchmark, estimator, fingerprint)? {
                    out.push(ManifestEntry::Model {
                        benchmark,
                        estimator,
                        fingerprint,
                        crc: crc32(&bytes),
                    });
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TempDir;
    use qcfe_core::pipeline::EstimatorKind;
    use qcfe_core::snapshot::OperatorSample;
    use qcfe_db::plan::OperatorKind;
    use qcfe_db::DbEnvironment;

    fn sample_snapshot(slope: f64) -> FeatureSnapshot {
        let samples: Vec<OperatorSample> = (1..=40)
            .map(|i| {
                let n = (i * 50) as f64;
                OperatorSample {
                    kind: OperatorKind::SeqScan,
                    n1: n,
                    n2: 0.0,
                    self_ms: slope * n + 0.25,
                }
            })
            .collect();
        FeatureSnapshot::fit(&samples)
    }

    /// A store in a fresh temp directory, removed with the returned guard.
    fn temp_store(tag: &str) -> (TempDir, SnapshotStore) {
        let dir = TempDir::new(&format!("qcfe-store-test-{tag}"));
        let store = SnapshotStore::open(dir.path()).expect("store opens");
        (dir, store)
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let (_dir, store) = temp_store("roundtrip");
        let fp = DbEnvironment::reference().fingerprint();
        let snap = sample_snapshot(0.004);
        let path = store.save(BenchmarkKind::Sysbench, fp, &snap).unwrap();
        assert!(path.is_file());
        let loaded = store
            .load(BenchmarkKind::Sysbench, fp)
            .unwrap()
            .expect("present");
        assert_eq!(loaded, snap);
    }

    #[test]
    fn missing_snapshots_read_as_none_and_listing_tracks_saves() {
        let (_dir, store) = temp_store("listing");
        let fp1 = DbEnvironment::reference().fingerprint();
        let mut env2 = DbEnvironment::reference();
        env2.os_overhead = 1.07;
        let fp2 = env2.fingerprint();
        assert!(store.load(BenchmarkKind::Tpch, fp1).unwrap().is_none());
        assert!(store.list(BenchmarkKind::Tpch).unwrap().is_empty());
        store
            .save(BenchmarkKind::Tpch, fp1, &sample_snapshot(0.001))
            .unwrap();
        store
            .save(BenchmarkKind::Tpch, fp2, &sample_snapshot(0.002))
            .unwrap();
        let mut expected = vec![fp1, fp2];
        expected.sort();
        assert_eq!(store.list(BenchmarkKind::Tpch).unwrap(), expected);
        assert!(store.contains(BenchmarkKind::Tpch, fp1));
        assert!(
            !store.contains(BenchmarkKind::Sysbench, fp1),
            "keys are per benchmark"
        );
        assert!(store.remove(BenchmarkKind::Tpch, fp1).unwrap());
        assert!(!store.remove(BenchmarkKind::Tpch, fp1).unwrap());
    }

    #[test]
    fn knob_vectors_roundtrip_and_list() {
        let (_dir, store) = temp_store("vectors");
        let env = DbEnvironment::reference();
        let fp = env.fingerprint();
        assert!(store
            .load_vector(BenchmarkKind::Tpch, fp)
            .unwrap()
            .is_none());
        assert!(store.list_vectors(BenchmarkKind::Tpch).unwrap().is_empty());
        store
            .save_env(BenchmarkKind::Tpch, &env, &sample_snapshot(0.002))
            .unwrap();
        let loaded = store
            .load_vector(BenchmarkKind::Tpch, fp)
            .unwrap()
            .expect("vector persisted");
        assert_eq!(loaded, env.knob_vector());
        assert_eq!(
            store.list_vectors(BenchmarkKind::Tpch).unwrap(),
            vec![(fp, env.knob_vector())]
        );
        // Corrupt sidecars are skipped by listing but surfaced by load.
        std::fs::write(store.vector_path_for(BenchmarkKind::Tpch, fp), b"junk").unwrap();
        assert!(store.list_vectors(BenchmarkKind::Tpch).unwrap().is_empty());
        match store.load_vector(BenchmarkKind::Tpch, fp) {
            Err(StoreError::Vector(_)) => {}
            other => panic!("expected vector error, got {other:?}"),
        }
    }

    /// Re-saving an environment leaves its unchanged `.qvec` file in place
    /// (a rename would give it a new inode); a missing, differing or
    /// corrupt vector file is rewritten.
    #[cfg(unix)]
    #[test]
    fn unchanged_knob_vectors_are_not_rewritten() {
        use std::os::unix::fs::MetadataExt;
        let (_dir, store) = temp_store("vector-skip");
        let kind = BenchmarkKind::Tpch;
        let env = DbEnvironment::reference();
        let fp = env.fingerprint();
        let path = store.vector_path_for(kind, fp);
        let inode = |path: &Path| std::fs::metadata(path).unwrap().ino();
        let expected = env.knob_vector();

        store.save_env(kind, &env, &sample_snapshot(0.002)).unwrap();
        let first = inode(&path);
        store.save_env(kind, &env, &sample_snapshot(0.003)).unwrap();
        store.save_env(kind, &env, &sample_snapshot(0.004)).unwrap();
        assert_eq!(
            inode(&path),
            first,
            "an unchanged vector must not be replaced"
        );
        assert_eq!(store.load(kind, fp).unwrap(), Some(sample_snapshot(0.004)));

        std::fs::remove_file(&path).unwrap();
        store.save_env(kind, &env, &sample_snapshot(0.002)).unwrap();
        assert_eq!(store.load_vector(kind, fp).unwrap(), Some(expected.clone()));

        let mut other = expected.clone();
        other[0] += 1.0;
        store.save_vector(kind, fp, &other).unwrap();
        let differing = inode(&path);
        store.save_env(kind, &env, &sample_snapshot(0.002)).unwrap();
        assert_ne!(inode(&path), differing, "a differing vector is replaced");
        assert_eq!(store.load_vector(kind, fp).unwrap(), Some(expected.clone()));

        std::fs::write(&path, b"junk").unwrap();
        store.save_env(kind, &env, &sample_snapshot(0.002)).unwrap();
        assert_eq!(store.load_vector(kind, fp).unwrap(), Some(expected));
    }

    #[test]
    fn nearest_environment_finds_the_closest_persisted_fingerprint() {
        let (_dir, store) = temp_store("nearest");
        let kind = BenchmarkKind::Sysbench;
        let reference = DbEnvironment::reference();
        let mut far = reference.clone();
        far.os_overhead = 1.5;
        let mut near = reference.clone();
        near.os_overhead = 1.01;
        store.save_env(kind, &far, &sample_snapshot(0.001)).unwrap();
        store
            .save_env(kind, &near, &sample_snapshot(0.002))
            .unwrap();

        let query = reference.knob_vector();
        let (fp, d) = store
            .nearest_environment(kind, &query, reference.fingerprint())
            .unwrap()
            .expect("two candidates persisted");
        assert_eq!(fp, near.fingerprint(), "closest os_overhead must win");
        assert!(d > 0.0 && d < reference.distance_to(&far));

        // The querying environment never matches itself.
        let (self_fp, self_d) = store
            .nearest_environment(kind, &near.knob_vector(), near.fingerprint())
            .unwrap()
            .expect("other candidate remains");
        assert_eq!(self_fp, far.fingerprint());
        assert!(self_d > 0.0);

        // A vector whose snapshot was deleted is no longer a candidate.
        store.remove(kind, near.fingerprint()).unwrap();
        let (fp, _) = store
            .nearest_environment(kind, &query, reference.fingerprint())
            .unwrap()
            .expect("far candidate remains");
        assert_eq!(fp, far.fingerprint());
    }

    /// Satellite acceptance: equal knob distances tie-break
    /// deterministically on the fingerprint (smallest wins), regardless of
    /// the order the candidates were persisted in — so transfer provenance
    /// is reproducible across runs.
    #[test]
    fn nearest_environment_tie_breaks_deterministically_on_fingerprint() {
        let kind = BenchmarkKind::Sysbench;
        let query = vec![1.0, 2.0, 3.0];
        // Two synthetic fingerprints sharing one knob vector: both sit at
        // distance zero from the query — a perfect tie.
        let low = EnvFingerprint(0x1111_1111_1111_1111);
        let high = EnvFingerprint(0xeeee_eeee_eeee_eeee);
        let probe = EnvFingerprint(0xabcd_abcd_abcd_abcd);
        for (tag, order) in [("lo-hi", [low, high]), ("hi-lo", [high, low])] {
            let (_dir, store) = temp_store(&format!("tie-{tag}"));
            for fp in order {
                store.save(kind, fp, &sample_snapshot(0.001)).unwrap();
                store.save_vector(kind, fp, &query).unwrap();
            }
            for _ in 0..3 {
                let (fp, d) = store
                    .nearest_environment(kind, &query, probe)
                    .unwrap()
                    .expect("two candidates");
                assert_eq!(d, 0.0, "both candidates are exact matches");
                assert_eq!(
                    fp, low,
                    "equal distances must resolve to the smallest fingerprint \
                     (save order {tag})"
                );
            }
        }
    }

    use crate::test_support::tiny_mscn;

    #[test]
    fn model_weights_roundtrip_and_list() {
        let (_dir, store) = temp_store("models");
        let kind = BenchmarkKind::Sysbench;
        let fp = DbEnvironment::reference().fingerprint();
        let estimator = qcfe_core::pipeline::EstimatorKind::QcfeMscn;
        assert!(store.load_model(kind, estimator, fp).unwrap().is_none());
        assert!(store.list_models(kind).unwrap().is_empty());
        let model = tiny_mscn(7);
        let path = store.save_model(kind, estimator, fp, &model).unwrap();
        assert!(path.is_file());
        assert!(store.contains_model(kind, estimator, fp));
        let loaded = store
            .load_model(kind, estimator, fp)
            .unwrap()
            .expect("persisted");
        assert_eq!(loaded.to_bytes(), model.to_bytes(), "bit-exact round-trip");
        assert_eq!(store.list_models(kind).unwrap(), vec![(estimator, fp)]);
        // Weight files are keyed per estimator family.
        assert!(!store.contains_model(kind, qcfe_core::pipeline::EstimatorKind::Mscn, fp));
        assert!(store.remove_model(kind, estimator, fp).unwrap());
        assert!(!store.remove_model(kind, estimator, fp).unwrap());
        assert!(store.list_models(kind).unwrap().is_empty());
    }

    #[test]
    fn model_family_mismatches_are_rejected_typed() {
        let (_dir, store) = temp_store("model-family");
        let kind = BenchmarkKind::Sysbench;
        let fp = DbEnvironment::reference().fingerprint();
        let model = tiny_mscn(9);
        // Saving an MSCN payload under a QPPNet (or weight-free PGSQL) key
        // fails typed.
        for wrong in [
            qcfe_core::pipeline::EstimatorKind::QppNet,
            qcfe_core::pipeline::EstimatorKind::QcfeQpp,
            qcfe_core::pipeline::EstimatorKind::Pgsql,
        ] {
            match store.save_model(kind, wrong, fp, &model) {
                Err(StoreError::Model(_)) => {}
                other => panic!("expected model error, got {other:?}"),
            }
        }
        // A weight file renamed across families is rejected on load.
        let mscn_key = qcfe_core::pipeline::EstimatorKind::QcfeMscn;
        let qpp_key = qcfe_core::pipeline::EstimatorKind::QcfeQpp;
        store.save_model(kind, mscn_key, fp, &model).unwrap();
        std::fs::rename(
            store.model_path_for(kind, mscn_key, fp),
            store.model_path_for(kind, qpp_key, fp),
        )
        .unwrap();
        match store.load_model(kind, qpp_key, fp) {
            Err(StoreError::Model(_)) => {}
            other => panic!("expected model error, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_only_moves_genuinely_corrupt_files() {
        let (_dir, store) = temp_store("quarantine");
        let kind = BenchmarkKind::Sysbench;
        let fp = DbEnvironment::reference().fingerprint();
        let estimator = qcfe_core::pipeline::EstimatorKind::QcfeMscn;
        // Nothing persisted: nothing to quarantine.
        assert!(store
            .quarantine_model(kind, estimator, fp)
            .unwrap()
            .is_none());
        // A healthy sidecar is re-verified and left untouched — the
        // defence against quarantining a concurrently republished file.
        let path = store
            .save_model(kind, estimator, fp, &tiny_mscn(13))
            .unwrap();
        assert!(store
            .quarantine_model(kind, estimator, fp)
            .unwrap()
            .is_none());
        assert!(path.is_file(), "valid weights must survive");
        // A corrupt sidecar is moved aside.
        std::fs::write(&path, b"garbage").unwrap();
        let quarantined = store
            .quarantine_model(kind, estimator, fp)
            .unwrap()
            .expect("corrupt file quarantined");
        assert!(!path.exists());
        assert!(quarantined.is_file());
        assert!(quarantined.to_string_lossy().ends_with(".corrupt"));
    }

    #[test]
    fn corrupted_model_files_surface_typed_errors() {
        let (_dir, store) = temp_store("model-corrupt");
        let kind = BenchmarkKind::Sysbench;
        let fp = DbEnvironment::reference().fingerprint();
        let estimator = qcfe_core::pipeline::EstimatorKind::QcfeMscn;
        let model = tiny_mscn(11);
        let path = store.save_model(kind, estimator, fp, &model).unwrap();
        let valid = std::fs::read(&path).unwrap();

        // Garbage, truncation, flipped magic and a single flipped payload
        // byte all fail typed — never garbage weights, never a panic.
        for corrupt in [
            b"garbage".to_vec(),
            valid[..valid.len() / 2].to_vec(),
            {
                let mut b = valid.clone();
                b[0] = b'X';
                b
            },
            {
                let mut b = valid.clone();
                let last = b.len() - 1;
                b[last] ^= 0x10;
                b
            },
        ] {
            std::fs::write(&path, &corrupt).unwrap();
            match store.load_model(kind, estimator, fp) {
                Err(StoreError::Model(e)) => {
                    assert!(!e.to_string().is_empty());
                }
                other => panic!("expected model error, got {other:?}"),
            }
        }
    }

    /// The manifest must be a pure function of store *content*: identical
    /// files yield identical, identically ordered entries regardless of
    /// save order, and the CRC tracks the verbatim bytes (a re-publish with
    /// different coefficients changes it; a bit-identical re-save does not).
    #[test]
    fn manifest_is_deterministic_and_tracks_content() {
        let kind = BenchmarkKind::Sysbench;
        let fp1 = EnvFingerprint(0x1111_1111_1111_1111);
        let fp2 = EnvFingerprint(0xeeee_eeee_eeee_eeee);
        let estimator = qcfe_core::pipeline::EstimatorKind::QcfeMscn;
        let build = |tag: &str, order: [EnvFingerprint; 2]| {
            let (dir, store) = temp_store(&format!("manifest-{tag}"));
            for fp in order {
                store.save(kind, fp, &sample_snapshot(0.004)).unwrap();
            }
            store
                .save_model(kind, estimator, fp1, &tiny_mscn(7))
                .unwrap();
            (dir, store)
        };
        let (_a_dir, a) = build("a", [fp1, fp2]);
        let (_b_dir, b) = build("b", [fp2, fp1]);
        let manifest = a.manifest().unwrap();
        assert_eq!(
            manifest,
            b.manifest().unwrap(),
            "identical content must yield an identical manifest regardless of save order"
        );
        assert_eq!(manifest.len(), 3);
        assert_eq!(
            manifest,
            {
                let mut sorted = manifest.clone();
                sorted.sort_by_key(|e| match *e {
                    ManifestEntry::Snapshot { fingerprint, .. } => (0u8, fingerprint, ""),
                    ManifestEntry::Model {
                        fingerprint,
                        estimator,
                        ..
                    } => (1u8, fingerprint, estimator_slug(estimator)),
                });
                sorted
            },
            "snapshots come before models, each in ascending key order"
        );
        // Re-publishing with different coefficients changes the CRC; a
        // bit-identical re-save does not.
        a.save(kind, fp1, &sample_snapshot(0.009)).unwrap();
        assert_ne!(a.manifest().unwrap(), manifest);
        a.save(kind, fp1, &sample_snapshot(0.004)).unwrap();
        assert_eq!(a.manifest().unwrap(), manifest);
    }

    #[test]
    fn corrupted_files_surface_codec_errors() {
        let (_dir, store) = temp_store("corrupt");
        let fp = DbEnvironment::reference().fingerprint();
        let path = store.path_for(BenchmarkKind::Sysbench, fp);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"garbage").unwrap();
        match store.load(BenchmarkKind::Sysbench, fp) {
            Err(StoreError::Codec(_)) => {}
            other => panic!("expected codec error, got {other:?}"),
        }
    }

    // ---- the snapshot log ----

    /// A snapshot of every operator kind whose coefficients spell out
    /// `(tag, index)`, so each one is distinct and recognisable on load.
    fn tagged_snapshot(tag: u64, index: u64) -> FeatureSnapshot {
        FeatureSnapshot::from_entries(
            OperatorKind::ALL
                .map(|kind| (kind, [tag as f64, index as f64, kind.index() as f64, 0.5])),
            1.0,
        )
    }

    /// A seeded snapshot over a random subset of operator kinds with
    /// random coefficient and cost bit patterns (NaNs included, so tests
    /// compare encoded bytes).
    fn random_snapshot(rng: &mut rand::rngs::StdRng) -> FeatureSnapshot {
        use rand::{Rng, RngCore};
        let kinds = rng.gen_range(1..=OperatorKind::ALL.len());
        let mut entries = Vec::with_capacity(kinds);
        for &kind in &OperatorKind::ALL[..kinds] {
            let mut coefficients = [0.0; qcfe_core::snapshot::SNAPSHOT_DIM];
            for c in &mut coefficients {
                *c = f64::from_bits(rng.next_u64());
            }
            entries.push((kind, coefficients));
        }
        FeatureSnapshot::from_entries(entries, f64::from_bits(rng.next_u64()))
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    /// Saves below the bound append to one file — no temp file and no
    /// rename, so the inode stays — and the file grows by one record per
    /// save. The last record is what every read path returns.
    #[cfg(unix)]
    #[test]
    fn saves_below_the_bound_append_to_the_same_file() {
        use std::os::unix::fs::MetadataExt;
        let (_dir, store) = temp_store("log-append");
        let kind = BenchmarkKind::Tpch;
        let fp = EnvFingerprint(0xa11e);
        let path = store.path_for(kind, fp);
        let record_len = (RECORD_PREFIX_LEN + SNAPSHOT_MAX_ENCODED_LEN) as u64;
        store.save(kind, fp, &tagged_snapshot(1, 0)).unwrap();
        let inode = std::fs::metadata(&path).unwrap().ino();
        assert_eq!(&std::fs::read(&path).unwrap()[..8], &LOG_HEADER);
        for i in 1..50 {
            store.save(kind, fp, &tagged_snapshot(1, i)).unwrap();
            assert_eq!(
                std::fs::metadata(&path).unwrap().ino(),
                inode,
                "save {i} below the bound must not replace the file"
            );
        }
        assert_eq!(file_len(&path), LOG_HEADER.len() as u64 + 50 * record_len);
        let last = tagged_snapshot(1, 49);
        assert_eq!(store.load(kind, fp).unwrap(), Some(last.clone()));
        assert_eq!(
            store.snapshot_bytes(kind, fp).unwrap(),
            Some(last.to_bytes())
        );
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| name.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp files: {leftovers:?}");
    }

    /// A save that would take the log past its bound writes a fresh
    /// one-record log instead: the file never exceeds the bound, and the
    /// compaction loses nothing a later load needs.
    #[cfg(unix)]
    #[test]
    fn a_log_at_its_bound_compacts_to_one_record() {
        use std::os::unix::fs::MetadataExt;
        let (_dir, store) = temp_store("log-compact");
        let kind = BenchmarkKind::Tpch;
        let fp = EnvFingerprint(0xc0);
        let path = store.path_for(kind, fp);
        let record_len = (RECORD_PREFIX_LEN + SNAPSHOT_MAX_ENCODED_LEN) as u64;
        let per_log = (SnapshotStore::LOG_COMPACT_BYTES - LOG_HEADER.len() as u64) / record_len;
        let mut compactions = 0;
        let mut inode = None;
        for i in 0..3 * per_log + 5 {
            store.save(kind, fp, &tagged_snapshot(2, i)).unwrap();
            let meta = std::fs::metadata(&path).unwrap();
            assert!(meta.len() <= SnapshotStore::LOG_COMPACT_BYTES);
            if inode.is_some_and(|inode| inode != meta.ino()) {
                compactions += 1;
                assert_eq!(meta.len(), LOG_HEADER.len() as u64 + record_len);
            }
            inode = Some(meta.ino());
            assert_eq!(store.load(kind, fp).unwrap(), Some(tagged_snapshot(2, i)));
        }
        assert_eq!(compactions, 3, "{per_log} records per log");
    }

    /// A log with no CRC-valid record fails typed, as a garbage file does,
    /// and never reads as absent; so does a log of an unknown version.
    #[test]
    fn a_log_without_a_valid_record_fails_typed() {
        let (_dir, store) = temp_store("log-empty");
        let kind = BenchmarkKind::Sysbench;
        let fp = EnvFingerprint(0xe);
        let path = store.path_for(kind, fp);
        store.save(kind, fp, &sample_snapshot(0.002)).unwrap();
        let log = std::fs::read(&path).unwrap();
        let mut flipped = log.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        let mut future = log.clone();
        future[4] = 2;
        for (case, bytes, expected) in [
            (
                "header only",
                log[..8].to_vec(),
                SnapshotCodecError::Truncated,
            ),
            (
                "torn header",
                log[..6].to_vec(),
                SnapshotCodecError::Truncated,
            ),
            (
                "torn record",
                log[..log.len() - 1].to_vec(),
                SnapshotCodecError::Truncated,
            ),
            ("flipped frame bit", flipped, SnapshotCodecError::Truncated),
            (
                "header then garbage",
                [&log[..8], b"garbage, not a record"].concat(),
                SnapshotCodecError::Truncated,
            ),
            (
                "zeroed tail",
                [&log[..8], &[0u8; 400][..]].concat(),
                SnapshotCodecError::Truncated,
            ),
            (
                "unknown version",
                future,
                SnapshotCodecError::UnsupportedVersion(2),
            ),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            match store.load(kind, fp) {
                Err(StoreError::Codec(e)) => assert_eq!(e, expected, "{case}"),
                other => panic!("{case}: expected a codec error, got {other:?}"),
            }
            // Replication ships, and manifests hash, the file itself: no
            // peer holds it, so anti-entropy replaces it.
            assert_eq!(
                store.snapshot_bytes(kind, fp).unwrap(),
                Some(bytes),
                "{case}"
            );
        }
    }

    /// A single-frame `.qcfs` file, the format before the log, loads and
    /// replicates unchanged; its first save converts it to a log whose
    /// record is what later loads return.
    #[test]
    fn legacy_single_frame_files_load_and_convert_on_the_first_save() {
        let (_dir, store) = temp_store("log-legacy");
        let kind = BenchmarkKind::JobLight;
        let fp = EnvFingerprint(0x1e9);
        let path = store.path_for(kind, fp);
        let legacy = sample_snapshot(0.003);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, legacy.to_bytes()).unwrap();
        assert_eq!(store.load(kind, fp).unwrap(), Some(legacy.clone()));
        assert_eq!(
            store.snapshot_bytes(kind, fp).unwrap(),
            Some(legacy.to_bytes())
        );
        assert_eq!(
            store.manifest().unwrap(),
            vec![ManifestEntry::Snapshot {
                benchmark: kind,
                fingerprint: fp,
                crc: crc32(&legacy.to_bytes()),
            }]
        );
        let next = sample_snapshot(0.004);
        store.save(kind, fp, &next).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), one_record_log(&next));
        assert_eq!(store.load(kind, fp).unwrap(), Some(next));
    }

    /// Replication ships the current `QCFS` frame, exactly what a
    /// single-frame file holds, so stores whose logs hold different
    /// histories of the same current snapshot have equal manifests.
    #[test]
    fn replication_reads_the_current_frame_whatever_the_history() {
        let kind = BenchmarkKind::Tpch;
        let fp = EnvFingerprint(0x7e91);
        let current = sample_snapshot(0.005);
        let (_long_dir, long) = temp_store("log-history-long");
        for i in 0..40 {
            long.save(kind, fp, &sample_snapshot(0.001 * (i + 1) as f64))
                .unwrap();
        }
        long.save(kind, fp, &current).unwrap();
        let (_short_dir, short) = temp_store("log-history-short");
        short.save(kind, fp, &current).unwrap();
        let (_legacy_dir, legacy) = temp_store("log-history-legacy");
        let legacy_path = legacy.path_for(kind, fp);
        std::fs::create_dir_all(legacy_path.parent().unwrap()).unwrap();
        std::fs::write(&legacy_path, current.to_bytes()).unwrap();

        assert_ne!(
            std::fs::read(long.path_for(kind, fp)).unwrap(),
            std::fs::read(short.path_for(kind, fp)).unwrap()
        );
        for store in [&long, &short, &legacy] {
            assert_eq!(
                store.snapshot_bytes(kind, fp).unwrap(),
                Some(current.to_bytes())
            );
        }
        assert_eq!(long.manifest().unwrap(), short.manifest().unwrap());
        assert_eq!(long.manifest().unwrap(), legacy.manifest().unwrap());
        // A torn tail on one side changes neither the frame nor the CRC.
        let mut torn = std::fs::read(long.path_for(kind, fp)).unwrap();
        torn.extend_from_slice(&[0x2a; 13]);
        std::fs::write(long.path_for(kind, fp), torn).unwrap();
        assert_eq!(long.manifest().unwrap(), short.manifest().unwrap());
    }

    /// A compaction that renames a fresh log over the path between an
    /// append's open and its write leaves the record in the replaced file.
    /// The append reports it, and the save that follows lands in the log
    /// the path names.
    #[cfg(unix)]
    #[test]
    fn an_append_into_a_replaced_log_is_detected_and_saved_again() {
        let (_dir, store) = temp_store("log-replaced");
        let kind = BenchmarkKind::Tpch;
        let fp = EnvFingerprint(0x1a7e);
        let path = store.path_for(kind, fp);
        store.save(kind, fp, &tagged_snapshot(3, 0)).unwrap();

        let mut stale = OpenOptions::new().append(true).open(&path).unwrap();
        let opened = stale.metadata().unwrap();
        // A concurrent compaction replaces the file after the open.
        SnapshotStore::write_atomic(&path, "race", &one_record_log(&tagged_snapshot(3, 1)))
            .unwrap();

        let late = one_record_log(&tagged_snapshot(3, 2));
        let record = &late[LOG_HEADER.len()..];
        assert_eq!(
            SnapshotStore::append_to(&mut stale, &opened, &path, record).unwrap(),
            Append::Replaced
        );
        assert_eq!(
            store.load(kind, fp).unwrap(),
            Some(tagged_snapshot(3, 1)),
            "the record went to the replaced file"
        );
        // Unreplaced, the same append reports success.
        let mut current = OpenOptions::new().append(true).open(&path).unwrap();
        let opened = current.metadata().unwrap();
        assert_eq!(
            SnapshotStore::append_to(&mut current, &opened, &path, record).unwrap(),
            Append::Written
        );
        assert_eq!(store.load(kind, fp).unwrap(), Some(tagged_snapshot(3, 2)));
    }

    /// A temp file whose write or rename fails is removed, not left next to
    /// the store's files (here the rename fails: the target path is a
    /// non-empty directory).
    #[test]
    fn failed_atomic_writes_leave_no_temp_file() {
        let (_dir, store) = temp_store("tmp-leak");
        let kind = BenchmarkKind::Sysbench;
        let fp = EnvFingerprint(0x7);
        let estimator = EstimatorKind::QcfeMscn;
        let path = store.model_path_for(kind, estimator, fp);
        std::fs::create_dir_all(path.join("occupied")).unwrap();
        match store.save_model(kind, estimator, fp, &tiny_mscn(5)) {
            Err(StoreError::Io(_)) => {}
            other => panic!("expected an I/O error, got {other:?}"),
        }
        let names: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|name| !name.ends_with(".tmp")),
            "a failed write left its temp file: {names:?}"
        );
    }

    /// Seeded crash property over one long history of saves that crosses
    /// the compaction bound many times: after each few saves, a copy of
    /// the log is torn inside its last record or has random bytes
    /// appended. Load must return the last completely written snapshot bit
    /// for bit (or fail typed when the torn record was the log's only
    /// one), and one more save must be what load then returns.
    #[test]
    fn a_torn_or_garbage_tail_never_hides_the_last_complete_snapshot() {
        use rand::{Rng, RngCore, SeedableRng};
        const CASES: usize = 1000;
        let (_dir, store) = temp_store("log-crash-history");
        let (_crashed_dir, crashed) = temp_store("log-crash-copy");
        let kind = BenchmarkKind::Tpch;
        let fp = EnvFingerprint(0xc4a5);
        let (path, crashed_path) = (store.path_for(kind, fp), crashed.path_for(kind, fp));
        std::fs::create_dir_all(crashed_path.parent().unwrap()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x51_0c);
        let mut history: Vec<Vec<u8>> = Vec::new();
        let mut compactions = 0;
        let (mut torn_cases, mut typed_failures) = (0, 0);
        for case in 0..CASES {
            for _ in 0..rng.gen_range(1..=8) {
                let snapshot = random_snapshot(&mut rng);
                let before = std::fs::metadata(&path).map_or(0, |m| m.len());
                store.save(kind, fp, &snapshot).unwrap();
                if file_len(&path) < before {
                    compactions += 1;
                }
                history.push(snapshot.to_bytes());
            }
            let log = std::fs::read(&path).unwrap();
            assert!(log.len() as u64 <= SnapshotStore::LOG_COMPACT_BYTES);
            let last = &history[history.len() - 1];
            let last_start = log.len() - RECORD_PREFIX_LEN - last.len();
            let (damaged, expected) = if rng.gen_bool(0.5) {
                torn_cases += 1;
                let cut = rng.gen_range(last_start..log.len());
                let previous = (last_start > LOG_HEADER.len()).then(|| &history[history.len() - 2]);
                (log[..cut].to_vec(), previous)
            } else {
                let mut damaged = log.clone();
                damaged.extend((0..rng.gen_range(1..=64)).map(|_| rng.next_u64() as u8));
                (damaged, Some(last))
            };
            std::fs::write(&crashed_path, &damaged).unwrap();
            match (crashed.load(kind, fp), expected) {
                (Ok(Some(loaded)), Some(expected)) => {
                    assert_eq!(&loaded.to_bytes(), expected, "case {case}")
                }
                (Err(StoreError::Codec(_)), None) => typed_failures += 1,
                (other, expected) => panic!(
                    "case {case}: loaded {other:?}, expected {}",
                    if expected.is_some() {
                        "a snapshot"
                    } else {
                        "a codec error"
                    }
                ),
            }
            let next = random_snapshot(&mut rng);
            crashed.save(kind, fp, &next).unwrap();
            let reloaded = crashed.load(kind, fp).unwrap().expect("just saved");
            assert_eq!(
                reloaded.to_bytes(),
                next.to_bytes(),
                "case {case}: save after the crash"
            );
        }
        assert!(
            compactions >= 10,
            "the history crossed the bound {compactions} times"
        );
        assert!(
            torn_cases >= CASES / 3 && typed_failures > 0,
            "{torn_cases} torn, {typed_failures} typed"
        );
    }

    /// 8 threads save distinct snapshots of one key across several
    /// compactions while readers load in a loop: every load decodes to a
    /// snapshot some thread saved, the log never outgrows its bound by
    /// more than one record per writer, and after the join the log holds
    /// the last snapshot of one of the threads.
    #[test]
    fn concurrent_saves_across_compactions_never_expose_a_torn_snapshot() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const WRITERS: u64 = 8;
        const SAVES: u64 = 150;
        let (_dir, store) = temp_store("log-concurrent");
        let kind = BenchmarkKind::Tpch;
        let fp = EnvFingerprint(0xc0c0);
        let path = store.path_for(kind, fp);
        let record_len = (RECORD_PREFIX_LEN + SNAPSHOT_MAX_ENCODED_LEN) as u64;
        assert!(
            WRITERS * SAVES * record_len > 4 * SnapshotStore::LOG_COMPACT_BYTES,
            "the run must cross the compaction bound several times"
        );
        let written = |snapshot: &FeatureSnapshot| {
            let c = snapshot.coefficients(OperatorKind::SeqScan);
            (c[0] as u64) < WRITERS
                && (c[1] as u64) < SAVES
                && *snapshot == tagged_snapshot(c[0] as u64, c[1] as u64)
        };
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let store = &store;
                    scope.spawn(move || {
                        for i in 0..SAVES {
                            store.save(kind, fp, &tagged_snapshot(w, i)).unwrap();
                        }
                    })
                })
                .collect();
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (store, done, path) = (&store, &done, &path);
                    scope.spawn(move || {
                        let mut loads = 0;
                        while !done.load(Ordering::Acquire) {
                            match store.load(kind, fp) {
                                Ok(None) => {}
                                Ok(Some(snapshot)) => {
                                    assert!(
                                        written(&snapshot),
                                        "a load returned a snapshot no thread saved"
                                    );
                                    loads += 1;
                                }
                                Err(e) => panic!("a reader saw an undecodable log: {e}"),
                            }
                            if let Ok(meta) = std::fs::metadata(path) {
                                assert!(
                                    meta.len()
                                        <= SnapshotStore::LOG_COMPACT_BYTES + WRITERS * record_len
                                );
                            }
                        }
                        loads
                    })
                })
                .collect();
            for writer in writers {
                writer.join().expect("writer saves");
            }
            done.store(true, Ordering::Release);
            for reader in readers {
                reader.join().expect("every load decodes");
            }
        });
        let last = store.load(kind, fp).unwrap().expect("saved");
        assert!(
            (0..WRITERS).any(|w| last == tagged_snapshot(w, SAVES - 1)),
            "the log must end with some thread's last save"
        );
    }
}
