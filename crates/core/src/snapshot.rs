//! The feature snapshot (Section III of the paper).
//!
//! A feature snapshot is, per physical operator kind, the vector of fitted
//! coefficients of the operator's *logical cost formula* (Table I):
//!
//! | formula                                   | operators                             |
//! |-------------------------------------------|---------------------------------------|
//! | `F = c0*n + c1`                           | scans, materialize, aggregate, joins   |
//! | `F = c0*n*log n + c1`                     | sort                                   |
//! | `F = c0*n1*n2 + c1*n1 + c2*n2 + c3`       | nested loop                            |
//!
//! The coefficients are obtained by least squares over labeled operator
//! executions — either from the original workload (FSO) or from the cheap
//! simplified templates of Algorithm 1 (FST). Because the coefficients move
//! with knobs, hardware and storage format, appending them to the operator
//! encoding injects the "ignored variables" into the learned estimator.
//!
//! # The binary codec family
//!
//! Snapshots persist in the versioned `QCFS` format defined below. It is
//! the founding member of a small codec family sharing the same
//! conventions — 4-byte ASCII magic, explicit little-endian version field,
//! raw `f64` bit patterns (bit-exact round-trips), typed decode errors and
//! a hard no-panic rule on corrupt input:
//!
//! | magic  | contents                  | defined in                            |
//! |--------|---------------------------|---------------------------------------|
//! | `QCFS` | feature snapshot          | this module                           |
//! | `QVEC` | environment knob vector   | `qcfe_serve::store`                   |
//! | `QCFW` | trained model weights     | `qcfe_nn::codec` + [`crate::model_codec`] |
//! | `QCFP` | network request/response  | `qcfe_net::wire`                      |
//!
//! `QCFW` additionally carries a CRC-32 over its payload, because weight
//! files are large enough that a silently flipped bit would otherwise just
//! decode to different estimates. Versioning policy across the family: any
//! layout change bumps the format's version constant, and decoders reject
//! unknown versions instead of guessing. `QCFS` is at version 2 (version 1
//! plus a flags byte carrying the [`FeatureSnapshot::refined`] provenance
//! bit); version-1 buffers still decode, with `refined = false`.
//!
//! `QCFW` is also at version 2. Its version-2 frames are byte-identical to
//! version 1 apart from the version field, and both decode unchanged;
//! payload kinds outside 0–2 are a typed `UnknownPayload` error.
//!
//! `QCFP` is the family's only *wire* format — the length-framed protocol
//! the `qcfe-net` reactor serves estimates over. It inherits the `QCFW`
//! CRC-32 (over every frame body, so a flipped bit in transit is a typed
//! checksum error, not a wrong estimate), adds a per-frame flags byte
//! whose unknown bits are rejected, and bounds every length field before
//! allocating — the no-panic rule extended to hostile network input.
//!
//! `QCFP` request payloads carry a per-request **option-bits** byte; bits
//! `1` (allow-transfer) and `1 << 1` (shed-load) date from the protocol's
//! introduction, and bit `1 << 2` is the **tenant tag** for the serving
//! layer's multi-tenant scheduler: when set, a `u32 LE` tenant id follows
//! the fixed deadline field; when clear, no tenant bytes travel and the
//! frame is byte-identical to a pre-tenant frame (the anonymous tenant).
//! Strict rejection applies at both granularities: any *other* option bit
//! is an unknown-tag error, and a set tenant bit carrying the reserved
//! anonymous id `0` is rejected the same way — extensions spend reserved
//! bits explicitly, they never reinterpret existing bytes.
//!
//! `QCFP` frame kinds `3`–`5` are the **replication frames** of the
//! replicated serving layer: `ShipSnapshot` (kind 3) and `ShipModel`
//! (kind 4) carry the *verbatim persisted* `QCFS`/`QCFW` codec bytes from
//! one replica to its peers (the durable codecs double as the replication
//! format — a shipped artifact re-validates through the same
//! magic/version/checksum gauntlet a disk load does, so an absorbed shard
//! is bit-identical or rejected typed), and `ShipAck` (kind 5) answers
//! with accept/reject. The frame version stays `1`: pre-replication
//! decoders already reject unknown kinds with a typed error, which is
//! exactly the strict-rejection behaviour a mixed-version peer set needs.
//!
//! `QCFP` frame kinds `6`–`7` are the **manifest frames** of replica
//! anti-entropy: before a revived peer is routed traffic again, a survivor
//! interrogates it with `ManifestRequest` (kind 6, empty payload — a bare
//! kind/flags/request-id body) and the peer answers `ManifestReply`
//! (kind 7): a `u32 LE` entry count (capped at 32 Ki entries, checked
//! before allocation) followed by per-entry records opening with a
//! one-byte **entry-kind tag** — `1` = snapshot (`u8` benchmark tag,
//! `u64 LE` fingerprint, `u32 LE` CRC-32 of the persisted `QCFS` bytes),
//! `2` = model (`u8` benchmark tag, `u8` estimator tag, `u64 LE`
//! fingerprint, `u32 LE` CRC-32 of the persisted `QCFW` bytes); unknown
//! tags reject typed, the record-tag strictness rule again. Because the
//! hashes are over the *verbatim persisted* codec bytes, a manifest diff
//! is exactly the set of keys whose durable state diverged while the peer
//! was down — the survivor re-ships those through kinds 3–4 and only then
//! promotes the peer back into placement. Kinds 6–7 keep frame version
//! `1` for the same mixed-version reason as kinds 3–5.
//!
//! # Online refinement
//!
//! The paper's transfer loop (Table VII) does not end at the warm start: a
//! cold environment that borrowed a neighbour's snapshot keeps collecting
//! its *own* labeled operator executions and refits from them.
//! [`FeatureSnapshot::refit_with`] is that incremental step — it fits fresh
//! coefficients from the observed labels while retaining the previous
//! coefficients for operators the feedback window never covered, and marks
//! the result [`FeatureSnapshot::refined`] so the provenance survives the
//! codec round-trip.
//!
//! The serving gateway refits inline, on the feedback path, every few
//! hundred labels over a window of thousands, so the fit is one pass that
//! allocates nothing per sample. [`FeatureSnapshot::fit`] walks the samples
//! once and adds each one's design row ([`formula_arity`] entries, at most
//! [`SNAPSHOT_DIM`]) into its operator's fixed-size `XᵀX` and `Xᵀy`; no
//! design matrix, per-operator grouping or per-sample `Vec` is built. Each
//! operator's system then goes to `qcfe_nn::linalg::solve_normal_equations`,
//! the solve [`qcfe_nn::linalg::least_squares`] ends in too. The pass is
//! bit-identical to `least_squares` over the materialised per-operator
//! design matrix: it performs the additions of that path's `XᵀX` product
//! (`qcfe_nn::kernel::t_matmul_sparse`, which skips a zero design entry)
//! and of its `Xᵀy` (which does not) with the same operands in the same
//! sample order, and floating-point sums in one order have one result. A
//! property test holds the two to the bit on seeded windows, zero entries,
//! undersampled operators and collinear (ridge-fallback) windows included.

use qcfe_db::executor::ExecutedQuery;
use qcfe_db::plan::{OperatorKind, PlanNode};
use qcfe_nn::linalg::solve_normal_equations;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Number of snapshot coefficients stored per operator (shorter formulas are
/// zero-padded).
pub const SNAPSHOT_DIM: usize = 4;

/// One labeled operator execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatorSample {
    /// Operator kind.
    pub kind: OperatorKind,
    /// Cardinality of the first (outer) input; for scans this is the number
    /// of rows produced by the scan.
    pub n1: f64,
    /// Cardinality of the second (inner) input; 0 for non-join operators.
    pub n2: f64,
    /// Observed time spent in the operator itself (exclusive), ms.
    pub self_ms: f64,
}

/// Extract operator samples from an executed plan.
pub fn operator_samples(executed: &ExecutedQuery) -> Vec<OperatorSample> {
    fn walk(node: &PlanNode, out: &mut Vec<OperatorSample>) {
        let (n1, n2) = match node.children.len() {
            0 => (node.actual_rows, 0.0),
            1 => (node.children[0].actual_rows, 0.0),
            _ => (node.children[0].actual_rows, node.children[1].actual_rows),
        };
        out.push(OperatorSample {
            kind: node.op.kind(),
            n1,
            n2,
            self_ms: node.actual_self_ms,
        });
        for c in &node.children {
            walk(c, out);
        }
    }
    let mut out = Vec::with_capacity(executed.root.node_count());
    walk(&executed.root, &mut out);
    out
}

/// Extract operator samples from a batch of executed queries.
pub fn operator_samples_from(executions: &[ExecutedQuery]) -> Vec<OperatorSample> {
    executions.iter().flat_map(operator_samples).collect()
}

/// The design-matrix row of the logical cost formula for one operator
/// sample: [`formula_arity`] meaningful entries, zero-padded.
fn design_row(kind: OperatorKind, n1: f64, n2: f64) -> [f64; SNAPSHOT_DIM] {
    match kind {
        OperatorKind::Sort => {
            let n = n1.max(0.0);
            [n * (n + 1.0).log2(), 1.0, 0.0, 0.0]
        }
        OperatorKind::NestedLoop => [n1 * n2, n1, n2, 1.0],
        // Every other operator follows the linear formula F = c0*n + c1 with
        // n the total input cardinality.
        _ => [n1 + n2, 1.0, 0.0, 0.0],
    }
}

/// One operator's least-squares system, accumulated sample by sample:
/// `XᵀX` (row-major with row stride `arity`, so its first `arity²` entries
/// are the matrix) and `Xᵀy` over the operator's design rows.
#[derive(Clone, Copy)]
struct NormalSystem {
    samples: usize,
    xtx: [f64; SNAPSHOT_DIM * SNAPSHOT_DIM],
    xty: [f64; SNAPSHOT_DIM],
}

impl NormalSystem {
    const EMPTY: NormalSystem = NormalSystem {
        samples: 0,
        xtx: [0.0; SNAPSHOT_DIM * SNAPSHOT_DIM],
        xty: [0.0; SNAPSHOT_DIM],
    };

    /// Add one design row (`ARITY` entries) with its target: the additions
    /// `t_matmul_sparse` makes into `XᵀX` for that row of a materialised
    /// design matrix, zero skip included, and those of `Xᵀy`, which has no
    /// skip.
    fn add<const ARITY: usize>(&mut self, row: &[f64; ARITY], target: f64) {
        self.samples += 1;
        for (i, &xi) in row.iter().enumerate() {
            if xi != 0.0 {
                for (cell, &xj) in self.xtx[i * ARITY..(i + 1) * ARITY].iter_mut().zip(row) {
                    *cell += xi * xj;
                }
            }
            self.xty[i] += xi * target;
        }
    }

    /// The fitted coefficients, zero-padded; zeros when the operator has
    /// fewer samples than coefficients or the solve fails.
    fn solve(&self, arity: usize) -> [f64; SNAPSHOT_DIM] {
        let mut packed = [0.0; SNAPSHOT_DIM];
        if self.samples >= arity {
            if let Ok(beta) =
                solve_normal_equations(&self.xtx[..arity * arity], &self.xty[..arity], 0.0)
            {
                packed[..arity].copy_from_slice(&beta);
            }
        }
        packed
    }
}

/// Number of *meaningful* coefficients of an operator's formula.
pub fn formula_arity(kind: OperatorKind) -> usize {
    match kind {
        OperatorKind::NestedLoop => 4,
        _ => 2,
    }
}

/// Magic prefix of the binary snapshot codec.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"QCFS";

/// Current version of the binary snapshot codec (version 2 added the flags
/// byte carrying [`FeatureSnapshot::refined`]).
pub const SNAPSHOT_CODEC_VERSION: u32 = 2;

/// Oldest snapshot codec version this build still decodes.
pub const SNAPSHOT_CODEC_MIN_VERSION: u32 = 1;

/// Bit 0 of the version-2 flags byte: the snapshot was refined online from
/// the serving environment's own observed labels.
const SNAPSHOT_FLAG_REFINED: u8 = 0b0000_0001;

/// Errors produced when decoding a persisted feature snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotCodecError {
    /// The buffer did not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The buffer's codec version is not understood by this build.
    UnsupportedVersion(u32),
    /// The buffer ended before the declared entries were read.
    Truncated,
    /// An operator index outside [`OperatorKind::ALL`].
    UnknownOperator(u8),
    /// Extra bytes after the declared entries.
    TrailingBytes(usize),
    /// A version-2 flags byte with bits this build does not understand.
    UnknownFlags(u8),
}

impl std::fmt::Display for SnapshotCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotCodecError::BadMagic => write!(f, "not a QCFS snapshot (bad magic)"),
            SnapshotCodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot codec version {v}")
            }
            SnapshotCodecError::Truncated => write!(f, "snapshot buffer truncated"),
            SnapshotCodecError::UnknownOperator(i) => {
                write!(f, "unknown operator index {i} in snapshot")
            }
            SnapshotCodecError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after snapshot entries")
            }
            SnapshotCodecError::UnknownFlags(flags) => {
                write!(f, "unknown snapshot flag bits {flags:#04x}")
            }
        }
    }
}

impl std::error::Error for SnapshotCodecError {}

/// A fitted feature snapshot: per operator kind, `SNAPSHOT_DIM` coefficients.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FeatureSnapshot {
    coefficients: HashMap<OperatorKind, [f64; SNAPSHOT_DIM]>,
    /// Simulated cost (ms of query execution) spent collecting the labeled
    /// set used to fit this snapshot.
    pub collection_cost_ms: f64,
    /// Whether this snapshot was refined online from the serving
    /// environment's own observed labels ([`FeatureSnapshot::refit_with`]).
    /// Carried through the `QCFS` codec (version 2), so a restarted node
    /// can tell a refined snapshot from a freshly published one.
    pub refined: bool,
}

impl FeatureSnapshot {
    /// Fit a snapshot from labeled operator samples, in one pass over them
    /// (see "Online refinement" in the module docs).
    ///
    /// Operators with fewer samples than coefficients fall back to zeroed
    /// coefficients (they contribute nothing to the encoding, which is the
    /// safe default).
    pub fn fit(samples: &[OperatorSample]) -> Self {
        let mut systems = [NormalSystem::EMPTY; OperatorKind::ALL.len()];
        for s in samples {
            let row = design_row(s.kind, s.n1, s.n2);
            let system = &mut systems[s.kind.index()];
            // A constant arity per arm lets the additions unroll.
            match formula_arity(s.kind) {
                4 => system.add::<4>(&row, s.self_ms),
                2 => system.add::<2>(&[row[0], row[1]], s.self_ms),
                arity => unreachable!("Table I has no {arity}-coefficient formula"),
            }
        }
        let coefficients = OperatorKind::ALL
            .iter()
            .zip(&systems)
            .filter(|(_, system)| system.samples > 0)
            .map(|(&kind, system)| (kind, system.solve(formula_arity(kind))))
            .collect();
        FeatureSnapshot {
            coefficients,
            collection_cost_ms: 0.0,
            refined: false,
        }
    }

    /// Refit this snapshot from freshly observed labels — the online half of
    /// the paper's transfer loop. Operators the new labels cover (with
    /// enough samples for their formula arity) get coefficients fitted from
    /// those labels alone; operators the feedback window never covered (or
    /// undersampled, which [`FeatureSnapshot::fit`] zeroes) retain this
    /// snapshot's coefficients, so refinement never forgets what the warm
    /// start knew. The result is marked [`FeatureSnapshot::refined`] and
    /// keeps this snapshot's collection cost (feedback labels are free — the
    /// queries ran anyway).
    pub fn refit_with(&self, samples: &[OperatorSample]) -> FeatureSnapshot {
        let mut refit = FeatureSnapshot::fit(samples);
        for (&kind, &coeffs) in &self.coefficients {
            let fitted = refit.coefficients.entry(kind).or_insert(coeffs);
            // An all-zero fit is `fit`'s undersampled fallback, never a real
            // least-squares solution over observed runtimes.
            if *fitted == [0.0; SNAPSHOT_DIM] {
                *fitted = coeffs;
            }
        }
        refit.collection_cost_ms = self.collection_cost_ms;
        refit.refined = true;
        refit
    }

    /// Fit a snapshot from whole executed queries, recording the collection
    /// cost (the summed simulated latency of the labeling queries — this is
    /// what Table V reports in hours for the real system).
    pub fn fit_from_executions(executions: &[ExecutedQuery]) -> Self {
        let samples = operator_samples_from(executions);
        let mut snapshot = Self::fit(&samples);
        snapshot.collection_cost_ms = executions.iter().map(|e| e.total_ms).sum();
        snapshot
    }

    /// Coefficient vector for an operator (zeros when the operator never
    /// appeared in the labeled set).
    pub fn coefficients(&self, kind: OperatorKind) -> [f64; SNAPSHOT_DIM] {
        self.coefficients
            .get(&kind)
            .copied()
            .unwrap_or([0.0; SNAPSHOT_DIM])
    }

    /// Predicted operator time from the fitted logical formula (used in
    /// tests and for snapshot-quality diagnostics).
    pub fn predict(&self, kind: OperatorKind, n1: f64, n2: f64) -> f64 {
        let c = self.coefficients(kind);
        design_row(kind, n1, n2)
            .iter()
            .zip(c.iter())
            .map(|(x, b)| x * b)
            .sum()
    }

    /// Operators covered by this snapshot.
    pub fn covered_operators(&self) -> Vec<OperatorKind> {
        let mut kinds: Vec<OperatorKind> = self.coefficients.keys().copied().collect();
        kinds.sort();
        kinds
    }

    /// Sorted `(operator, coefficients)` view of the snapshot (stable order
    /// for codecs and diffing).
    pub fn entries(&self) -> Vec<(OperatorKind, [f64; SNAPSHOT_DIM])> {
        let mut entries: Vec<_> = self.coefficients.iter().map(|(k, c)| (*k, *c)).collect();
        entries.sort_by_key(|(k, _)| k.index());
        entries
    }

    /// Rebuild a snapshot from entries (the inverse of
    /// [`FeatureSnapshot::entries`]); duplicate operators keep the last
    /// entry.
    pub fn from_entries(
        entries: impl IntoIterator<Item = (OperatorKind, [f64; SNAPSHOT_DIM])>,
        collection_cost_ms: f64,
    ) -> Self {
        FeatureSnapshot {
            coefficients: entries.into_iter().collect(),
            collection_cost_ms,
            refined: false,
        }
    }

    /// Serialise to the versioned `QCFS` binary format.
    ///
    /// Layout (all little-endian): magic `"QCFS"`, `u32` version, `u8`
    /// flags (bit 0: [`FeatureSnapshot::refined`]), `f64` collection cost,
    /// `u32` entry count, then per entry one `u8` operator index
    /// ([`OperatorKind::index`]) followed by [`SNAPSHOT_DIM`] raw `f64` bit
    /// patterns. Coefficients round-trip bit-exactly, so a reloaded
    /// snapshot produces *identical* estimates. (Version 1 had no flags
    /// byte; [`FeatureSnapshot::from_bytes`] still decodes it.)
    pub fn to_bytes(&self) -> Vec<u8> {
        let entries = self.entries();
        let mut out =
            Vec::with_capacity(SNAPSHOT_MAGIC.len() + 17 + entries.len() * (1 + 8 * SNAPSHOT_DIM));
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_CODEC_VERSION.to_le_bytes());
        out.push(if self.refined {
            SNAPSHOT_FLAG_REFINED
        } else {
            0
        });
        out.extend_from_slice(&self.collection_cost_ms.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (kind, coeffs) in entries {
            out.push(kind.index() as u8);
            for c in coeffs {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    /// Parse the `QCFS` binary format written by [`FeatureSnapshot::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotCodecError> {
        fn take<'a>(cursor: &mut &'a [u8], n: usize) -> Result<&'a [u8], SnapshotCodecError> {
            if cursor.len() < n {
                return Err(SnapshotCodecError::Truncated);
            }
            let (head, tail) = cursor.split_at(n);
            *cursor = tail;
            Ok(head)
        }
        let mut cursor = bytes;
        if take(&mut cursor, SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(SnapshotCodecError::BadMagic);
        }
        let version = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().expect("4 bytes"));
        if !(SNAPSHOT_CODEC_MIN_VERSION..=SNAPSHOT_CODEC_VERSION).contains(&version) {
            return Err(SnapshotCodecError::UnsupportedVersion(version));
        }
        // Version 2 added the flags byte; version-1 buffers carry no flags
        // and decode with `refined = false`.
        let refined = if version >= 2 {
            let flags = take(&mut cursor, 1)?[0];
            if flags & !SNAPSHOT_FLAG_REFINED != 0 {
                return Err(SnapshotCodecError::UnknownFlags(flags));
            }
            flags & SNAPSHOT_FLAG_REFINED != 0
        } else {
            false
        };
        let collection_cost_ms =
            f64::from_le_bytes(take(&mut cursor, 8)?.try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().expect("4 bytes")) as usize;
        // Bound the declared count by what the buffer can actually hold
        // (1 index byte + SNAPSHOT_DIM f64s per entry) before allocating,
        // so a corrupted count field cannot trigger a huge allocation.
        if count > cursor.len() / (1 + 8 * SNAPSHOT_DIM) {
            return Err(SnapshotCodecError::Truncated);
        }
        let mut coefficients = HashMap::with_capacity(count);
        for _ in 0..count {
            let index = take(&mut cursor, 1)?[0] as usize;
            let kind = *OperatorKind::ALL
                .get(index)
                .ok_or(SnapshotCodecError::UnknownOperator(index as u8))?;
            let mut coeffs = [0.0; SNAPSHOT_DIM];
            for c in &mut coeffs {
                *c = f64::from_le_bytes(take(&mut cursor, 8)?.try_into().expect("8 bytes"));
            }
            coefficients.insert(kind, coeffs);
        }
        if !cursor.is_empty() {
            return Err(SnapshotCodecError::TrailingBytes(cursor.len()));
        }
        Ok(FeatureSnapshot {
            coefficients,
            collection_cost_ms,
            refined,
        })
    }

    /// Root-mean-square relative difference between two snapshots over the
    /// operators they share — used to compare FST against FSO (Table V) and
    /// to verify hardware transfer (Table VII).
    pub fn relative_difference(&self, other: &FeatureSnapshot) -> f64 {
        let mut acc = 0.0;
        let mut count = 0usize;
        for (kind, a) in &self.coefficients {
            let Some(b) = other.coefficients.get(kind) else {
                continue;
            };
            for (x, y) in a.iter().zip(b.iter()) {
                let scale = x.abs().max(y.abs());
                if scale > 1e-12 {
                    acc += ((x - y) / scale).powi(2);
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            (acc / count as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_samples(kind: OperatorKind, c0: f64, c1: f64) -> Vec<OperatorSample> {
        (1..=60)
            .map(|i| {
                let n = (i * 50) as f64;
                OperatorSample {
                    kind,
                    n1: n,
                    n2: 0.0,
                    self_ms: c0 * n + c1,
                }
            })
            .collect()
    }

    #[test]
    fn fits_linear_operators_exactly() {
        let samples = linear_samples(OperatorKind::SeqScan, 0.002, 0.5);
        let snap = FeatureSnapshot::fit(&samples);
        let c = snap.coefficients(OperatorKind::SeqScan);
        assert!((c[0] - 0.002).abs() < 1e-9, "c0 {}", c[0]);
        assert!((c[1] - 0.5).abs() < 1e-6, "c1 {}", c[1]);
        assert_eq!(c[2], 0.0);
        assert!((snap.predict(OperatorKind::SeqScan, 1000.0, 0.0) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn fits_sort_with_nlogn_formula() {
        let samples: Vec<OperatorSample> = (1..=60)
            .map(|i| {
                let n = (i * 100) as f64;
                OperatorSample {
                    kind: OperatorKind::Sort,
                    n1: n,
                    n2: 0.0,
                    self_ms: 0.001 * n * (n + 1.0).log2() + 2.0,
                }
            })
            .collect();
        let snap = FeatureSnapshot::fit(&samples);
        let c = snap.coefficients(OperatorKind::Sort);
        assert!((c[0] - 0.001).abs() < 1e-8);
        assert!((c[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn fits_nested_loop_bilinear_formula() {
        let mut samples = Vec::new();
        for i in 1..=20 {
            for j in 1..=20 {
                let (n1, n2) = ((i * 10) as f64, (j * 7) as f64);
                samples.push(OperatorSample {
                    kind: OperatorKind::NestedLoop,
                    n1,
                    n2,
                    self_ms: 0.0005 * n1 * n2 + 0.01 * n1 + 0.02 * n2 + 1.0,
                });
            }
        }
        let snap = FeatureSnapshot::fit(&samples);
        let c = snap.coefficients(OperatorKind::NestedLoop);
        assert!((c[0] - 0.0005).abs() < 1e-8);
        assert!((c[1] - 0.01).abs() < 1e-6);
        assert!((c[2] - 0.02).abs() < 1e-6);
        assert!((c[3] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn unseen_and_undersampled_operators_are_zeroed() {
        let snap = FeatureSnapshot::fit(&[OperatorSample {
            kind: OperatorKind::Limit,
            n1: 5.0,
            n2: 0.0,
            self_ms: 1.0,
        }]);
        assert_eq!(snap.coefficients(OperatorKind::Limit), [0.0; SNAPSHOT_DIM]);
        assert_eq!(
            snap.coefficients(OperatorKind::HashJoin),
            [0.0; SNAPSHOT_DIM]
        );
        assert_eq!(snap.predict(OperatorKind::HashJoin, 10.0, 10.0), 0.0);
    }

    #[test]
    fn snapshots_differ_across_coefficient_scales() {
        let slow = FeatureSnapshot::fit(&linear_samples(OperatorKind::SeqScan, 0.01, 1.0));
        let fast = FeatureSnapshot::fit(&linear_samples(OperatorKind::SeqScan, 0.001, 0.1));
        assert!(slow.relative_difference(&fast) > 0.5);
        assert!(slow.relative_difference(&slow) < 1e-12);
        assert_eq!(slow.covered_operators(), vec![OperatorKind::SeqScan]);
    }

    #[test]
    fn binary_codec_roundtrips_bit_exactly() {
        let mut samples = linear_samples(OperatorKind::SeqScan, 0.0031, 0.77);
        samples.extend(linear_samples(OperatorKind::Sort, 0.0007, 2.2));
        let mut snap = FeatureSnapshot::fit(&samples);
        snap.collection_cost_ms = 123.456;
        let bytes = snap.to_bytes();
        let back = FeatureSnapshot::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, snap, "codec must be bit-exact");
        assert_eq!(back.relative_difference(&snap), 0.0);
        assert_eq!(back.collection_cost_ms, 123.456);
        // predictions are identical, not merely close
        for kind in [OperatorKind::SeqScan, OperatorKind::Sort] {
            assert_eq!(
                back.predict(kind, 5000.0, 0.0).to_bits(),
                snap.predict(kind, 5000.0, 0.0).to_bits()
            );
        }
    }

    #[test]
    fn codec_rejects_corrupted_buffers() {
        let snap = FeatureSnapshot::fit(&linear_samples(OperatorKind::SeqScan, 0.002, 0.5));
        let bytes = snap.to_bytes();
        assert_eq!(
            FeatureSnapshot::from_bytes(b"QC"),
            Err(SnapshotCodecError::Truncated)
        );
        assert_eq!(
            FeatureSnapshot::from_bytes(b"nope"),
            Err(SnapshotCodecError::BadMagic)
        );
        assert_eq!(
            FeatureSnapshot::from_bytes(b"XXXX\x01\x00\x00\x00"),
            Err(SnapshotCodecError::BadMagic)
        );
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(
            FeatureSnapshot::from_bytes(&wrong_version),
            Err(SnapshotCodecError::UnsupportedVersion(99))
        );
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 3);
        assert_eq!(
            FeatureSnapshot::from_bytes(&truncated),
            Err(SnapshotCodecError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            FeatureSnapshot::from_bytes(&trailing),
            Err(SnapshotCodecError::TrailingBytes(1))
        );
        // a corrupted count field must fail cleanly, not allocate huge
        let mut huge_count = bytes.clone();
        huge_count[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            FeatureSnapshot::from_bytes(&huge_count),
            Err(SnapshotCodecError::Truncated)
        );
        // flag bits this build does not understand are rejected, not guessed
        let mut bad_flags = bytes.clone();
        bad_flags[8] = 0x82;
        assert_eq!(
            FeatureSnapshot::from_bytes(&bad_flags),
            Err(SnapshotCodecError::UnknownFlags(0x82))
        );
        let mut bad_op = bytes;
        // first entry's operator-index byte:
        // magic(4) + version(4) + flags(1) + cost(8) + count(4)
        bad_op[21] = 200;
        assert_eq!(
            FeatureSnapshot::from_bytes(&bad_op),
            Err(SnapshotCodecError::UnknownOperator(200))
        );
    }

    /// A version-1 buffer (no flags byte) still decodes, as an unrefined
    /// snapshot with identical coefficients.
    #[test]
    fn version_one_buffers_decode_as_unrefined() {
        let snap = FeatureSnapshot::fit(&linear_samples(OperatorKind::SeqScan, 0.002, 0.5));
        let v2 = snap.to_bytes();
        let mut v1 = Vec::with_capacity(v2.len() - 1);
        v1.extend_from_slice(SNAPSHOT_MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&v2[9..]); // cost + count + entries, minus the flags byte
        let decoded = FeatureSnapshot::from_bytes(&v1).expect("v1 decodes");
        assert!(!decoded.refined);
        assert_eq!(decoded, snap);
    }

    /// The refined provenance bit survives the codec round-trip.
    #[test]
    fn refined_flag_roundtrips_through_the_codec() {
        let samples = linear_samples(OperatorKind::SeqScan, 0.002, 0.5);
        let refit = FeatureSnapshot::fit(&samples).refit_with(&samples);
        assert!(refit.refined);
        let back = FeatureSnapshot::from_bytes(&refit.to_bytes()).expect("decodes");
        assert!(back.refined, "refined bit must persist");
        assert_eq!(back, refit);
    }

    /// Refitting replaces coefficients for operators the labels cover and
    /// retains the previous coefficients for operators they do not.
    #[test]
    fn refit_covers_observed_operators_and_retains_the_rest() {
        let mut offline = linear_samples(OperatorKind::SeqScan, 0.002, 0.5);
        offline.extend(linear_samples(OperatorKind::HashJoin, 0.004, 1.0));
        let warm = FeatureSnapshot::fit(&offline);

        // Feedback only covers SeqScan, with twice the slope, plus a single
        // Sort sample (undersampled for its 2-coefficient formula).
        let mut feedback = linear_samples(OperatorKind::SeqScan, 0.004, 0.5);
        feedback.push(OperatorSample {
            kind: OperatorKind::Sort,
            n1: 10.0,
            n2: 0.0,
            self_ms: 1.0,
        });
        let refit = warm.refit_with(&feedback);
        assert!(refit.refined);
        assert_eq!(refit.collection_cost_ms, warm.collection_cost_ms);
        let c = refit.coefficients(OperatorKind::SeqScan);
        assert!((c[0] - 0.004).abs() < 1e-9, "observed operator refitted");
        assert_eq!(
            refit.coefficients(OperatorKind::HashJoin),
            warm.coefficients(OperatorKind::HashJoin),
            "uncovered operator keeps the warm-start coefficients"
        );
        assert_eq!(
            refit.coefficients(OperatorKind::Sort),
            [0.0; SNAPSHOT_DIM],
            "an operator neither side ever fitted stays zero"
        );

        // Refitting on the labels a snapshot was fitted from is idempotent
        // on the coefficients (only the provenance bit flips).
        let again = warm.refit_with(&offline);
        for kind in [OperatorKind::SeqScan, OperatorKind::HashJoin] {
            let a = warm.coefficients(kind);
            let b = again.coefficients(kind);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{kind:?} must refit bit-stably");
            }
        }
    }

    #[test]
    fn entries_are_sorted_and_rebuild_the_snapshot() {
        let mut samples = linear_samples(OperatorKind::Sort, 0.001, 1.0);
        samples.extend(linear_samples(OperatorKind::SeqScan, 0.002, 0.5));
        let snap = FeatureSnapshot::fit(&samples);
        let entries = snap.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].0.index() < entries[1].0.index());
        let rebuilt = FeatureSnapshot::from_entries(entries, snap.collection_cost_ms);
        assert_eq!(rebuilt, snap);
    }

    #[test]
    fn formula_arity_matches_table_one() {
        assert_eq!(formula_arity(OperatorKind::SeqScan), 2);
        assert_eq!(formula_arity(OperatorKind::Sort), 2);
        assert_eq!(formula_arity(OperatorKind::NestedLoop), 4);
    }
}
