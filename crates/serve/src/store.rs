//! Disk persistence for feature snapshots, keyed by environment fingerprint.
//!
//! The paper's FST workflow fits a snapshot once per environment and reuses
//! it for every model trained under that environment — including after a
//! restart or on a different machine with the same configuration. The store
//! lays an environment's serving state out as sibling files:
//!
//! ```text
//! <root>/<benchmark>/<fingerprint>.qcfs             feature snapshot (QCFS)
//! <root>/<benchmark>/<fingerprint>.qvec             knob vector (QVEC)
//! <root>/<benchmark>/<fingerprint>.<estimator>.qcfw trained weights (QCFW)
//! ```
//!
//! using the versioned binary codec family (`QCFS` in
//! [`qcfe_core::snapshot`], `QCFW` in [`qcfe_core::model_codec`] /
//! `qcfe_nn::codec`, `QVEC` below), which round-trips every coefficient and
//! weight bit-exactly: a reloaded snapshot or model yields *identical*
//! estimates, not merely close ones. The weight sidecars are what make a
//! restarted estimator self-serving — [`SnapshotStore::load_model`] hands
//! back a ready [`PersistedModel`] instead of forcing a retrain. All writes
//! go through a temp file plus rename so a crashed writer never leaves a
//! torn file behind, and concurrent readers only ever observe complete
//! frames.

use qcfe_core::model_codec::{ModelCodecError, PersistedModel};
use qcfe_core::pipeline::EstimatorKind;
use qcfe_core::snapshot::{FeatureSnapshot, SnapshotCodecError};
use qcfe_db::env::{knob_distance, EnvFingerprint};
use qcfe_db::DbEnvironment;
use qcfe_workloads::BenchmarkKind;
use std::io;
use std::path::{Path, PathBuf};

/// Magic prefix of knob-vector sidecar files.
const VECTOR_MAGIC: &[u8; 4] = b"QVEC";
/// Current knob-vector codec version.
const VECTOR_VERSION: u16 = 1;

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
/// plus a CRC-32 over its *verbatim file bytes* — the exact `QCFS`/`QCFW`
/// payload replication ships. Two stores hold bit-identical state for a
/// key exactly when their entries for it carry equal CRCs, which is what
/// the revival catch-up handshake diffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ManifestEntry {
    /// A persisted feature snapshot (`<fp>.qcfs`).
    Snapshot {
        /// The benchmark directory the snapshot lives under.
        benchmark: BenchmarkKind,
        /// The environment fingerprint it is keyed by.
        fingerprint: EnvFingerprint,
        /// CRC-32 over the verbatim `QCFS` file bytes.
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

    /// The crash-safe write shared by every sidecar kind: a temp file
    /// unique per process *and* per call (pid + process-wide sequence
    /// number, so concurrent savers of the same key never interleave
    /// writes into one file) followed by an atomic rename — last writer
    /// wins and readers only ever observe complete files.
    fn write_atomic(path: &Path, tmp_tag: &str, bytes: &[u8]) -> Result<(), StoreError> {
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = path.parent().expect("store paths have a parent");
        std::fs::create_dir_all(dir)?;
        let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dir.join(format!(".{tmp_tag}.{}.{}.tmp", std::process::id(), seq));
        std::fs::write(&tmp, bytes)?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
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

    /// Persist a snapshot (atomic temp-file + rename via
    /// [`SnapshotStore::write_atomic`]).
    pub fn save(
        &self,
        benchmark: BenchmarkKind,
        fingerprint: EnvFingerprint,
        snapshot: &FeatureSnapshot,
    ) -> Result<PathBuf, StoreError> {
        let path = self.path_for(benchmark, fingerprint);
        Self::write_atomic(&path, &fingerprint.to_hex(), &snapshot.to_bytes())?;
        Ok(path)
    }

    /// Load a snapshot; `Ok(None)` when never persisted.
    pub fn load(
        &self,
        benchmark: BenchmarkKind,
        fingerprint: EnvFingerprint,
    ) -> Result<Option<FeatureSnapshot>, StoreError> {
        let path = self.path_for(benchmark, fingerprint);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(FeatureSnapshot::from_bytes(&bytes)?))
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
    /// temp-file + rename, like [`SnapshotStore::save`]). The vector makes
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
    /// (atomic temp-file + rename, like [`SnapshotStore::save`]): readers
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

    /// The verbatim bytes of a persisted snapshot file; `Ok(None)` when
    /// never persisted. This is the replication payload: shipping the file
    /// bytes untouched (rather than decode + re-encode) keeps the receiver's
    /// copy bit-identical to the sender's, so manifest CRCs agree.
    pub fn snapshot_bytes(
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
    /// Each entry's CRC-32 covers the verbatim file bytes. A file that
    /// vanishes between listing and hashing (concurrent republish) is
    /// skipped — it will show up as missing and simply be re-shipped.
    pub fn manifest(&self) -> Result<Vec<ManifestEntry>, StoreError> {
        let mut out = Vec::new();
        for benchmark in BenchmarkKind::ALL {
            for fingerprint in self.list(benchmark)? {
                if let Some(bytes) = self.snapshot_bytes(benchmark, fingerprint)? {
                    out.push(ManifestEntry::Snapshot {
                        benchmark,
                        fingerprint,
                        crc: qcfe_nn::codec::crc32(&bytes),
                    });
                }
            }
            for (estimator, fingerprint) in self.list_models(benchmark)? {
                if let Some(bytes) = self.model_bytes(benchmark, estimator, fingerprint)? {
                    out.push(ManifestEntry::Model {
                        benchmark,
                        estimator,
                        fingerprint,
                        crc: qcfe_nn::codec::crc32(&bytes),
                    });
                }
            }
        }
        Ok(out)
    }

    /// Load the snapshot for an environment, or fit one with `fit` and
    /// persist it — the serving layer's "warm start after restart" path.
    pub fn load_or_insert_with<F>(
        &self,
        benchmark: BenchmarkKind,
        fingerprint: EnvFingerprint,
        fit: F,
    ) -> Result<FeatureSnapshot, StoreError>
    where
        F: FnOnce() -> FeatureSnapshot,
    {
        if let Some(snapshot) = self.load(benchmark, fingerprint)? {
            return Ok(snapshot);
        }
        let snapshot = fit();
        self.save(benchmark, fingerprint, &snapshot)?;
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn temp_store(tag: &str) -> SnapshotStore {
        let dir =
            std::env::temp_dir().join(format!("qcfe-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).expect("store opens")
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let store = temp_store("roundtrip");
        let fp = DbEnvironment::reference().fingerprint();
        let snap = sample_snapshot(0.004);
        let path = store.save(BenchmarkKind::Sysbench, fp, &snap).unwrap();
        assert!(path.is_file());
        let loaded = store
            .load(BenchmarkKind::Sysbench, fp)
            .unwrap()
            .expect("present");
        assert_eq!(loaded, snap);
        assert_eq!(loaded.relative_difference(&snap), 0.0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn missing_snapshots_read_as_none_and_listing_tracks_saves() {
        let store = temp_store("listing");
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
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn load_or_insert_fits_once_then_reuses() {
        let store = temp_store("loi");
        let fp = DbEnvironment::reference().fingerprint();
        let mut fits = 0;
        let first = store
            .load_or_insert_with(BenchmarkKind::JobLight, fp, || {
                fits += 1;
                sample_snapshot(0.003)
            })
            .unwrap();
        let second = store
            .load_or_insert_with(BenchmarkKind::JobLight, fp, || {
                fits += 1;
                sample_snapshot(0.009)
            })
            .unwrap();
        assert_eq!(fits, 1, "second call must come from disk");
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn knob_vectors_roundtrip_and_list() {
        let store = temp_store("vectors");
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
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Re-saving an environment leaves its unchanged `.qvec` file in place
    /// (a rename would give it a new inode); a missing, differing or
    /// corrupt vector file is rewritten.
    #[cfg(unix)]
    #[test]
    fn unchanged_knob_vectors_are_not_rewritten() {
        use std::os::unix::fs::MetadataExt;
        let store = temp_store("vector-skip");
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
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn nearest_environment_finds_the_closest_persisted_fingerprint() {
        let store = temp_store("nearest");
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
        let _ = std::fs::remove_dir_all(store.root());
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
            let store = temp_store(&format!("tie-{tag}"));
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
            let _ = std::fs::remove_dir_all(store.root());
        }
    }

    use crate::test_support::tiny_mscn;

    #[test]
    fn model_weights_roundtrip_and_list() {
        let store = temp_store("models");
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
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn model_family_mismatches_are_rejected_typed() {
        let store = temp_store("model-family");
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
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn quarantine_only_moves_genuinely_corrupt_files() {
        let store = temp_store("quarantine");
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
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupted_model_files_surface_typed_errors() {
        let store = temp_store("model-corrupt");
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
        let _ = std::fs::remove_dir_all(store.root());
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
            let store = temp_store(&format!("manifest-{tag}"));
            for fp in order {
                store.save(kind, fp, &sample_snapshot(0.004)).unwrap();
            }
            store
                .save_model(kind, estimator, fp1, &tiny_mscn(7))
                .unwrap();
            store
        };
        let a = build("a", [fp1, fp2]);
        let b = build("b", [fp2, fp1]);
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
        let _ = std::fs::remove_dir_all(a.root());
        let _ = std::fs::remove_dir_all(b.root());
    }

    #[test]
    fn corrupted_files_surface_codec_errors() {
        let store = temp_store("corrupt");
        let fp = DbEnvironment::reference().fingerprint();
        let path = store.path_for(BenchmarkKind::Sysbench, fp);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"garbage").unwrap();
        match store.load(BenchmarkKind::Sysbench, fp) {
            Err(StoreError::Codec(_)) => {}
            other => panic!("expected codec error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(store.root());
    }
}
