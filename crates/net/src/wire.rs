//! The `QCFP` wire protocol: length-framed, versioned, CRC-checked
//! request/response records for remote cost estimation.
//!
//! `QCFP` is the fourth member of the workspace's binary codec family
//! (`QCFS` snapshots, `QVEC` knob vectors, `QCFW` model weights — see the
//! format table in [`qcfe_core::snapshot`]) and follows the same rules:
//! a 4-byte ASCII magic, an explicit little-endian version, raw `f64` bit
//! patterns for lossless round-trips, **strict** rejection of unknown
//! versions/flags/tags, and no-panic bounds-checked decoding — a hostile
//! or corrupt frame produces a typed [`WireError`], never a crash or an
//! unbounded allocation.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic "QCFP"
//! 4       4     u32 LE codec version (currently 1)
//! 8       4     u32 LE body length
//! 12      4     u32 LE CRC-32 over the body
//! 16      n     body
//! ```
//!
//! The body starts with its own fixed header — `kind: u8` (1 = request,
//! 2 = response, 3 = ship-snapshot, 4 = ship-model, 5 = ship-ack,
//! 6 = manifest-request, 7 = manifest-reply),
//! `flags: u8` (must be zero in v1), `request id: u64 LE`
//! (echoed verbatim in the response, correlating pipelined replies) —
//! followed by the kind-specific payload. Putting the length and checksum
//! *before* the body keeps the CRC contiguous and lets a stream reader
//! find the frame boundary ([`frame_length`]) from the first 16 bytes,
//! rejecting garbage (bad magic, wrong version, oversized length) before
//! buffering a payload for it. Encoders write the payload behind a
//! reserved prelude and seal the length and CRC in place, so a frame is
//! built in one buffer; [`encode_estimate_request`] encodes a borrowed
//! gateway request without copying its environment or plan.
//!
//! # Decode hardening
//!
//! Every variable-length field is bounded *before* allocation: strings at
//! [`MAX_STRING_LEN`], lists at [`MAX_LIST_LEN`], plan trees at
//! [`MAX_PLAN_NODES`] nodes / [`MAX_PLAN_DEPTH`] depth, whole frames at
//! [`MAX_BODY_LEN`]. Deadline budgets are clamp-validated on **both**
//! ends ([`MAX_DEADLINE_US`]): a corrupt or hostile frame cannot smuggle
//! an unbounded budget into the gateway — it fails typed with
//! [`WireError::DeadlineOutOfRange`].
//!
//! # Tenant tag
//!
//! Request frames may carry a tenant id for the gateway's multi-tenant
//! scheduler ([`qcfe_serve::sched`]). The tag spends one of the reserved
//! option bits (`1 << 2`): when set, a `u32 LE` tenant id follows the
//! deadline field; when clear, no tenant bytes are emitted and the frame
//! is byte-identical to a pre-tenant v1 frame, so old and new peers
//! interoperate for the anonymous tenant. The strict-rejection rule
//! applies unchanged: any *other* unknown option bit still fails decoding
//! with [`WireError::UnknownTag`], and a set tenant bit carrying the
//! reserved anonymous id `0` is rejected the same way (a compliant
//! encoder never emits it).
//!
//! # Replication frames
//!
//! Frame kinds 3–5 extend `QCFP` into the replication plane of a peer
//! set of `qcfe-served` processes: [`WireShipSnapshot`] and
//! [`WireShipModel`] carry the **verbatim persisted codec bytes** — the
//! CRC-checked `QCFS` v2 snapshot / `QCFW` v2 weight payloads the origin
//! just wrote to its own store — to every peer, which answers each with a
//! [`WireShipAck`]. Reusing the durable codecs as the replication format
//! means shipped state is bit-identical to persisted state by
//! construction, and corruption is rejected typed twice: once by the
//! frame CRC here, once by the codec's own magic/version/checksum when
//! the receiver re-validates the payload before applying it. The version
//! stays 1 — pre-replication decoders already reject the new kinds typed
//! with [`WireError::UnknownFrameKind`], which is exactly the strict
//! behaviour the family mandates. Blobs are bounded by
//! [`MAX_SHIP_BYTES`] before allocation, like every other field.
//!
//! # Manifest frames
//!
//! Frame kinds 6–7 close the anti-entropy gap the fire-and-forget ship
//! frames leave open: when a survivor's heartbeat sees a peer transition
//! dead→alive, it sends a [`WireManifestRequest`] (empty payload) and the
//! revived peer answers with a [`WireManifestReply`] — a deterministic
//! listing of every persisted artifact as `(key, CRC-32 of the verbatim
//! file bytes)` [`WireManifestEntry`] records. The survivor diffs the
//! reply against its own store manifest and re-ships divergent or missing
//! keys through the ordinary kind-3/4 path before routing traffic back.
//! Like kinds 3–5, the version stays 1 and pre-manifest decoders reject
//! the new kinds typed with [`WireError::UnknownFrameKind`]. Entry counts
//! are bounded by [`MAX_MANIFEST_ENTRIES`] before allocation.

use qcfe_core::pipeline::EstimatorKind;
use qcfe_db::env::EnvFingerprint;
use qcfe_db::expr::{ColumnRef, CompareOp, JoinCondition, Predicate};
use qcfe_db::plan::{PhysicalOp, PlanNode};
use qcfe_db::query::Aggregate;
use qcfe_db::types::Value;
use qcfe_db::{DbEnvironment, HardwareProfile, KnobConfig};
use qcfe_nn::codec::crc32;
use qcfe_serve::registry::ModelKey;
use qcfe_serve::request::{
    EstimateRequest, EstimateResponse, Provenance, RequestOptions, SnapshotOrigin,
};
use qcfe_serve::sched::TenantId;
use qcfe_serve::service::ServiceError;
use qcfe_serve::QcfeError;
use qcfe_storage::{DiskKind, StorageFormat};
use qcfe_workloads::BenchmarkKind;
use std::sync::Arc;
use std::time::Duration;

/// Frame magic: `QCFP` in ASCII.
pub const WIRE_MAGIC: [u8; 4] = *b"QCFP";
/// Current wire version. Decoders reject anything else.
pub const WIRE_VERSION: u32 = 1;
/// Bytes before the body: magic + version + body length + CRC-32.
pub const PRELUDE_LEN: usize = 16;
/// Fixed body header: kind (1) + flags (1) + request id (8).
pub const BODY_HEADER_LEN: usize = 10;
/// Body kind of a request frame.
pub const FRAME_REQUEST: u8 = 1;
/// Body kind of a response frame.
pub const FRAME_RESPONSE: u8 = 2;
/// Body kind of a snapshot-shipping frame (peer replication).
pub const FRAME_SHIP_SNAPSHOT: u8 = 3;
/// Body kind of a model-shipping frame (peer replication).
pub const FRAME_SHIP_MODEL: u8 = 4;
/// Body kind of a shipping acknowledgement (peer replication).
pub const FRAME_SHIP_ACK: u8 = 5;
/// Body kind of a store-manifest request (revival anti-entropy).
pub const FRAME_MANIFEST_REQUEST: u8 = 6;
/// Body kind of a store-manifest reply (revival anti-entropy).
pub const FRAME_MANIFEST_REPLY: u8 = 7;
/// Upper bound on one frame's body, bounding what a reader buffers for a
/// single length prefix.
pub const MAX_BODY_LEN: usize = 1 << 20;
/// Upper bound on any string field (table/column/environment names).
pub const MAX_STRING_LEN: usize = 4096;
/// Upper bound on any list field (predicates, sort keys, IN-list values,
/// aggregate functions, children of one node).
pub const MAX_LIST_LEN: usize = 1024;
/// Upper bound on plan-tree size.
pub const MAX_PLAN_NODES: usize = 4096;
/// Upper bound on plan-tree depth (bounds decoder recursion).
pub const MAX_PLAN_DEPTH: usize = 64;
/// Largest admissible deadline budget: one minute, in microseconds.
/// Anything above is a corrupt or hostile frame, not a plausible
/// per-query estimation budget.
pub const MAX_DEADLINE_US: u64 = 60_000_000;
/// Upper bound on a shipped `QCFS`/`QCFW` blob, leaving headroom inside
/// [`MAX_BODY_LEN`] for the ship frame's own header and knob vector.
pub const MAX_SHIP_BYTES: usize = MAX_BODY_LEN - 16 * 1024;
/// Upper bound on the entries of one manifest reply. Entries are at most
/// 15 bytes each, so a full reply stays well inside [`MAX_BODY_LEN`];
/// the cap is far above [`MAX_LIST_LEN`] because a manifest enumerates a
/// whole store, not one frame's fields.
pub const MAX_MANIFEST_ENTRIES: usize = 32 * 1024;

/// Any failure to encode or decode a `QCFP` frame. Decoding is total:
/// every byte sequence maps to a value or to one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with `QCFP`.
    BadMagic([u8; 4]),
    /// The frame's version is not [`WIRE_VERSION`].
    UnsupportedVersion(u32),
    /// Reserved flag bits were set (v1 defines none).
    UnknownFlags(u8),
    /// The body kind is neither request nor response.
    UnknownFrameKind(u8),
    /// The declared body length exceeds [`MAX_BODY_LEN`].
    FrameTooLarge {
        /// Declared body length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The declared body length cannot even hold the body header.
    BodyTooShort(usize),
    /// The body's CRC-32 does not match the prelude's.
    Checksum {
        /// CRC the prelude declared.
        expected: u32,
        /// CRC of the received body.
        actual: u32,
    },
    /// Fewer bytes than a field (or the declared frame) requires.
    Truncated,
    /// Bytes left over after a complete decode.
    TrailingBytes(usize),
    /// An enum tag outside the type's range.
    UnknownTag {
        /// Which wire type carried the tag.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadString,
    /// A string field exceeded [`MAX_STRING_LEN`].
    StringTooLong {
        /// Declared length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// A list field exceeded [`MAX_LIST_LEN`].
    ListTooLong {
        /// Which list.
        what: &'static str,
        /// Declared length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// A plan tree exceeded [`MAX_PLAN_NODES`].
    PlanTooLarge {
        /// The cap it exceeded.
        max: usize,
    },
    /// A plan tree exceeded [`MAX_PLAN_DEPTH`].
    PlanTooDeep {
        /// The cap it exceeded.
        max: usize,
    },
    /// A deadline budget above [`MAX_DEADLINE_US`] — rejected on both the
    /// encode and the decode side, so neither a buggy client nor a corrupt
    /// frame can request an effectively unbounded budget.
    DeadlineOutOfRange {
        /// The offending budget in microseconds.
        micros: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// A shipped codec blob exceeded [`MAX_SHIP_BYTES`] — rejected on
    /// both ends, before the decoder allocates for it.
    ShipTooLarge {
        /// Declared blob length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad QCFP magic {m:?}"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported QCFP version {v} (expected {WIRE_VERSION})")
            }
            WireError::UnknownFlags(bits) => write!(f, "unknown QCFP flag bits {bits:#04x}"),
            WireError::UnknownFrameKind(kind) => write!(f, "unknown QCFP frame kind {kind}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "QCFP body of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::BodyTooShort(len) => {
                write!(f, "QCFP body of {len} bytes cannot hold its header")
            }
            WireError::Checksum { expected, actual } => write!(
                f,
                "QCFP checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
            ),
            WireError::Truncated => write!(f, "truncated QCFP frame"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after QCFP frame"),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadString => write!(f, "QCFP string is not valid UTF-8"),
            WireError::StringTooLong { len, max } => {
                write!(f, "QCFP string of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::ListTooLong { what, len, max } => {
                write!(f, "QCFP {what} list of {len} entries exceeds the {max} cap")
            }
            WireError::PlanTooLarge { max } => {
                write!(f, "QCFP plan tree exceeds {max} nodes")
            }
            WireError::PlanTooDeep { max } => {
                write!(f, "QCFP plan tree exceeds depth {max}")
            }
            WireError::DeadlineOutOfRange { micros, max } => {
                write!(f, "deadline budget of {micros} us exceeds the {max} us cap")
            }
            WireError::ShipTooLarge { len, max } => {
                write!(f, "shipped blob of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Wire-level request/response types.
// ---------------------------------------------------------------------------

/// One decoded request frame: an [`EstimateRequest`] plus the wire-only
/// correlation id. The deadline is carried in microseconds and validated
/// against [`MAX_DEADLINE_US`] at both ends.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed in the response. Pipelined
    /// requests on one connection are answered in completion order; the id
    /// is how the client reassociates them.
    pub request_id: u64,
    /// The benchmark/schema the plan belongs to.
    pub benchmark: BenchmarkKind,
    /// The estimator family to serve the request.
    pub estimator: EstimatorKind,
    /// Whether an unseen environment may warm-start from the nearest
    /// persisted fingerprint.
    pub allow_transfer: bool,
    /// Whether a full shard queue fails the request instead of queueing it
    /// behind the reactor's backpressure.
    pub shed_load: bool,
    /// Optional deadline budget in microseconds (≤ [`MAX_DEADLINE_US`]).
    pub deadline_us: Option<u64>,
    /// The tenant the request is accounted to (`0` = anonymous). Nonzero
    /// ids travel behind the tenant option bit; `0` emits no tenant bytes,
    /// keeping anonymous frames byte-identical to pre-tenant `QCFP`.
    pub tenant: u32,
    /// The complete environment the client runs under.
    pub environment: DbEnvironment,
    /// The physical plan to estimate.
    pub plan: PlanNode,
}

impl WireRequest {
    /// Build a wire request from a gateway request, validating the
    /// deadline budget. The encode-side half of the clamp: a buggy caller
    /// fails here instead of emitting a frame every compliant decoder
    /// rejects.
    pub fn from_estimate_request(
        request_id: u64,
        request: &EstimateRequest,
    ) -> Result<Self, WireError> {
        Ok(WireRequest {
            request_id,
            benchmark: request.benchmark,
            estimator: request.options.estimator,
            allow_transfer: request.options.allow_transfer,
            shed_load: request.options.shed_load,
            deadline_us: deadline_us(request.deadline)?,
            tenant: request.options.tenant.0,
            environment: (*request.environment).clone(),
            plan: request.plan.clone(),
        })
    }

    /// Convert into the gateway's request type.
    pub fn into_estimate_request(self) -> EstimateRequest {
        EstimateRequest {
            benchmark: self.benchmark,
            environment: Arc::new(self.environment),
            plan: self.plan,
            deadline: self.deadline_us.map(Duration::from_micros),
            options: RequestOptions {
                estimator: self.estimator,
                allow_transfer: self.allow_transfer,
                shed_load: self.shed_load,
                tenant: TenantId(self.tenant),
            },
        }
    }
}

/// A gateway deadline as the wire's microsecond budget: the encode-side
/// half of the clamp, shared by every request encoder.
fn deadline_us(deadline: Option<Duration>) -> Result<Option<u64>, WireError> {
    let Some(deadline) = deadline else {
        return Ok(None);
    };
    let micros = deadline.as_micros();
    if micros > MAX_DEADLINE_US as u128 {
        return Err(WireError::DeadlineOutOfRange {
            micros: micros.min(u64::MAX as u128) as u64,
            max: MAX_DEADLINE_US,
        });
    }
    Ok(Some(micros as u64))
}

/// The success payload of a response frame: a bit-exact wire projection
/// of [`EstimateResponse`] (the `f64` travels as raw bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireEstimate {
    /// Predicted query latency in milliseconds.
    pub cost_ms: f64,
    /// Size of the micro-batch the request was served in.
    pub batch_size: u32,
    /// Whether the plan encoding came from the shard's encoding cache.
    pub encoding_cache_hit: bool,
    /// Whether the shard's model weights were restored from disk.
    pub model_from_disk: bool,
    /// Whether the serving snapshot has been refined online.
    pub refined: bool,
    /// Whether this request cold-started the shard.
    pub cold_start: bool,
    /// Serving key: benchmark.
    pub benchmark: BenchmarkKind,
    /// Serving key: estimator family.
    pub estimator: EstimatorKind,
    /// Serving key: environment fingerprint.
    pub fingerprint: u64,
    /// Where the serving snapshot came from.
    pub origin: SnapshotOrigin,
    /// Microseconds from shard submission until the reply was consumed.
    pub service_us: u64,
    /// Microseconds end-to-end inside the gateway.
    pub total_us: u64,
}

impl WireEstimate {
    /// Project a gateway response onto the wire.
    pub fn from_response(response: &EstimateResponse) -> Self {
        let p = &response.provenance;
        WireEstimate {
            cost_ms: response.cost_ms,
            batch_size: u32::try_from(response.batch_size).unwrap_or(u32::MAX),
            encoding_cache_hit: response.encoding_cache_hit,
            model_from_disk: p.model_from_disk,
            refined: p.refined,
            cold_start: p.cold_start,
            benchmark: p.model_key.benchmark,
            estimator: p.model_key.estimator,
            fingerprint: p.model_key.fingerprint.0,
            origin: p.snapshot_origin,
            service_us: p.service_us,
            total_us: p.total_us,
        }
    }

    /// Reassemble the gateway response type.
    pub fn into_response(self) -> EstimateResponse {
        EstimateResponse {
            cost_ms: self.cost_ms,
            batch_size: self.batch_size as usize,
            encoding_cache_hit: self.encoding_cache_hit,
            provenance: Provenance {
                model_key: ModelKey::new(
                    self.benchmark,
                    self.estimator,
                    EnvFingerprint(self.fingerprint),
                ),
                snapshot_origin: self.origin,
                model_from_disk: self.model_from_disk,
                refined: self.refined,
                cold_start: self.cold_start,
                service_us: self.service_us,
                total_us: self.total_us,
            },
        }
    }
}

/// The failure payload of a response frame: the [`QcfeError`] taxonomy
/// projected onto the wire, plus [`WireFault::BadRequest`] for requests
/// the server could frame-correlate but not honour (body decode failures,
/// out-of-range deadlines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFault {
    /// The shard's estimation service is closed.
    ServiceClosed,
    /// The shard's queue (or the tenant's admission quota) was full and
    /// the request shed load. Carries the observed depth and the limit it
    /// hit, so a client can distinguish "the whole shard is saturated"
    /// from "my tenant's share is spent" and size its backoff.
    QueueFull {
        /// Entries queued (or admitted for the tenant) when the request
        /// was shed.
        depth: u64,
        /// The configured bound the request ran into.
        limit: u64,
    },
    /// No snapshot was resolvable for the environment.
    SnapshotMissing {
        /// The benchmark the request targeted.
        benchmark: BenchmarkKind,
        /// The fingerprint no snapshot could be resolved for.
        fingerprint: u64,
    },
    /// No model was resolvable under the serving key.
    ModelMissing {
        /// Serving key: benchmark.
        benchmark: BenchmarkKind,
        /// Serving key: estimator family.
        estimator: EstimatorKind,
        /// Serving key: environment fingerprint.
        fingerprint: u64,
    },
    /// The request's deadline elapsed before an estimate was produced.
    DeadlineExceeded {
        /// Time spent when the deadline fired, microseconds.
        elapsed_us: u64,
        /// The deadline the request carried, microseconds.
        deadline_us: u64,
    },
    /// The gateway's snapshot store failed.
    Store {
        /// Rendered store error.
        message: String,
    },
    /// The server rejected the request itself (malformed body, invalid
    /// deadline) — a protocol-level failure, not an estimation one.
    BadRequest {
        /// Rendered wire error.
        message: String,
    },
    /// This replica does not own the request's shard under the peer set's
    /// rendezvous placement. Carries the owning peer's address so a
    /// shard-aware client can follow the redirect instead of guessing.
    NotOwner {
        /// The address of the peer that owns the shard.
        owner: String,
    },
}

impl From<&QcfeError> for WireFault {
    fn from(error: &QcfeError) -> Self {
        match error {
            QcfeError::Service(ServiceError::Closed) => WireFault::ServiceClosed,
            QcfeError::Service(ServiceError::QueueFull { depth, limit }) => WireFault::QueueFull {
                depth: *depth as u64,
                limit: *limit as u64,
            },
            // The gateway's From<ServiceError> already folds scheduler
            // deadline drops into QcfeError::DeadlineExceeded; map a raw
            // one the same way rather than leaving a hole.
            QcfeError::Service(ServiceError::DeadlineExpired { waited, deadline }) => {
                WireFault::DeadlineExceeded {
                    elapsed_us: waited.as_micros().min(u64::MAX as u128) as u64,
                    deadline_us: deadline.as_micros().min(u64::MAX as u128) as u64,
                }
            }
            QcfeError::SnapshotMissing {
                benchmark,
                fingerprint,
            } => WireFault::SnapshotMissing {
                benchmark: *benchmark,
                fingerprint: fingerprint.0,
            },
            QcfeError::ModelMissing { key } => WireFault::ModelMissing {
                benchmark: key.benchmark,
                estimator: key.estimator,
                fingerprint: key.fingerprint.0,
            },
            QcfeError::DeadlineExceeded { elapsed, deadline } => WireFault::DeadlineExceeded {
                elapsed_us: elapsed.as_micros().min(u64::MAX as u128) as u64,
                deadline_us: deadline.as_micros().min(u64::MAX as u128) as u64,
            },
            QcfeError::Store(e) => WireFault::Store {
                message: e.to_string(),
            },
        }
    }
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireFault::ServiceClosed => write!(f, "estimation service is closed"),
            WireFault::QueueFull { depth, limit } => {
                write!(
                    f,
                    "estimation queue is full ({depth} queued, limit {limit})"
                )
            }
            WireFault::SnapshotMissing {
                benchmark,
                fingerprint,
            } => write!(
                f,
                "no feature snapshot resolvable for {} environment {fingerprint:016x}",
                benchmark.name()
            ),
            WireFault::ModelMissing {
                benchmark,
                estimator,
                fingerprint,
            } => write!(
                f,
                "no {} model for {} environment {fingerprint:016x}",
                estimator.name(),
                benchmark.name()
            ),
            WireFault::DeadlineExceeded {
                elapsed_us,
                deadline_us,
            } => write!(
                f,
                "deadline of {deadline_us} us exceeded after {elapsed_us} us"
            ),
            WireFault::Store { message } => write!(f, "store error: {message}"),
            WireFault::BadRequest { message } => write!(f, "bad request: {message}"),
            WireFault::NotOwner { owner } => {
                write!(f, "shard not owned by this replica; owner is {owner}")
            }
        }
    }
}

impl std::error::Error for WireFault {}

/// One decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The correlation id echoed from the request (0 when the server could
    /// not trust the request's id, e.g. on a checksum failure).
    pub request_id: u64,
    /// The estimate, or the typed failure.
    pub outcome: Result<WireEstimate, WireFault>,
}

/// A shipped feature snapshot: the verbatim persisted `QCFS` v2 bytes of
/// one `(benchmark, fingerprint)` environment, plus its knob vector (the
/// `QVEC` sidecar content, so the receiver can serve nearest-fingerprint
/// transfer for the environment too).
#[derive(Debug, Clone, PartialEq)]
pub struct WireShipSnapshot {
    /// Sender-chosen correlation id, echoed in the [`WireShipAck`].
    pub request_id: u64,
    /// The benchmark the snapshot belongs to.
    pub benchmark: BenchmarkKind,
    /// The environment fingerprint it is keyed under.
    pub fingerprint: u64,
    /// The environment's knob vector (may be empty when unknown).
    pub knobs: Vec<f64>,
    /// The verbatim `QCFS` v2 codec bytes (≤ [`MAX_SHIP_BYTES`]).
    pub snapshot: Vec<u8>,
}

/// Shipped model weights: the verbatim persisted `QCFW` v2 bytes of one
/// serving key.
#[derive(Debug, Clone, PartialEq)]
pub struct WireShipModel {
    /// Sender-chosen correlation id, echoed in the [`WireShipAck`].
    pub request_id: u64,
    /// Serving key: benchmark.
    pub benchmark: BenchmarkKind,
    /// Serving key: estimator family.
    pub estimator: EstimatorKind,
    /// Serving key: environment fingerprint.
    pub fingerprint: u64,
    /// The verbatim `QCFW` v2 codec bytes (≤ [`MAX_SHIP_BYTES`]).
    pub weights: Vec<u8>,
}

/// The receiver's answer to a ship frame. `accepted = false` means the
/// payload failed the receiver's codec validation or store write — the
/// artifact is *not* applied and `message` carries the rendered reason;
/// the sender's connection stays healthy either way.
#[derive(Debug, Clone, PartialEq)]
pub struct WireShipAck {
    /// The correlation id echoed from the ship frame.
    pub request_id: u64,
    /// Whether the shipped artifact was validated and applied.
    pub accepted: bool,
    /// Rendered rejection reason (empty when accepted).
    pub message: String,
}

/// A request for a peer's store manifest, sent by a survivor when its
/// heartbeat sees the peer transition dead→alive. The payload is empty —
/// the correlation id is the whole message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireManifestRequest {
    /// Sender-chosen correlation id, echoed in the [`WireManifestReply`].
    pub request_id: u64,
}

/// One record of a manifest reply: the identity of a persisted artifact
/// plus a CRC-32 over its verbatim `QCFS`/`QCFW` file bytes. Mirrors
/// `qcfe_serve`'s store-level manifest entry with the wire's raw-`u64`
/// fingerprint convention (same as the ship frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireManifestEntry {
    /// A persisted feature snapshot.
    Snapshot {
        /// The benchmark the snapshot belongs to.
        benchmark: BenchmarkKind,
        /// The environment fingerprint it is keyed under.
        fingerprint: u64,
        /// CRC-32 over the verbatim `QCFS` file bytes.
        crc: u32,
    },
    /// Persisted model weights.
    Model {
        /// Serving key: benchmark.
        benchmark: BenchmarkKind,
        /// Serving key: estimator family.
        estimator: EstimatorKind,
        /// Serving key: environment fingerprint.
        fingerprint: u64,
        /// CRC-32 over the verbatim `QCFW` file bytes.
        crc: u32,
    },
}

impl From<qcfe_serve::store::ManifestEntry> for WireManifestEntry {
    fn from(entry: qcfe_serve::store::ManifestEntry) -> Self {
        match entry {
            qcfe_serve::store::ManifestEntry::Snapshot {
                benchmark,
                fingerprint,
                crc,
            } => WireManifestEntry::Snapshot {
                benchmark,
                fingerprint: fingerprint.0,
                crc,
            },
            qcfe_serve::store::ManifestEntry::Model {
                benchmark,
                estimator,
                fingerprint,
                crc,
            } => WireManifestEntry::Model {
                benchmark,
                estimator,
                fingerprint: fingerprint.0,
                crc,
            },
        }
    }
}

/// A peer's answer to a [`WireManifestRequest`]: its complete store
/// manifest, in the store's deterministic order. The requester diffs this
/// against its own manifest and re-ships anything divergent or missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireManifestReply {
    /// The correlation id echoed from the manifest request.
    pub request_id: u64,
    /// Every persisted artifact (≤ [`MAX_MANIFEST_ENTRIES`]).
    pub entries: Vec<WireManifestEntry>,
}

/// Any decoded `QCFP` frame.
///
/// The request side is boxed: a [`WireRequest`] carries a full
/// [`DbEnvironment`] and plan tree inline, far larger than a response, and
/// the enum would otherwise cost every response that padding. Ship frames
/// are boxed for the same reason — they carry whole codec blobs.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A client-to-server request.
    Request(Box<WireRequest>),
    /// A server-to-client response.
    Response(WireResponse),
    /// A peer-to-peer shipped snapshot.
    ShipSnapshot(Box<WireShipSnapshot>),
    /// A peer-to-peer shipped model.
    ShipModel(Box<WireShipModel>),
    /// A peer's answer to a ship frame.
    ShipAck(WireShipAck),
    /// A survivor's request for a revived peer's store manifest.
    ManifestRequest(WireManifestRequest),
    /// The revived peer's store manifest.
    ManifestReply(WireManifestReply),
}

// ---------------------------------------------------------------------------
// Little-endian writer/reader.
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn string(&mut self, s: &str) -> Result<(), WireError> {
        if s.len() > MAX_STRING_LEN {
            return Err(WireError::StringTooLong {
                len: s.len(),
                max: MAX_STRING_LEN,
            });
        }
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    fn list_len(&mut self, what: &'static str, len: usize) -> Result<(), WireError> {
        if len > MAX_LIST_LEN {
            return Err(WireError::ListTooLong {
                what,
                len,
                max: MAX_LIST_LEN,
            });
        }
        self.u32(len as u32);
        Ok(())
    }

    fn blob(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        if bytes.len() > MAX_SHIP_BYTES {
            return Err(WireError::ShipTooLarge {
                len: bytes.len(),
                max: MAX_SHIP_BYTES,
            });
        }
        self.u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
        Ok(())
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_STRING_LEN {
            return Err(WireError::StringTooLong {
                len,
                max: MAX_STRING_LEN,
            });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadString)
    }

    fn list_len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_LIST_LEN {
            return Err(WireError::ListTooLong {
                what,
                len,
                max: MAX_LIST_LEN,
            });
        }
        Ok(len)
    }

    fn blob(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_SHIP_BYTES {
            return Err(WireError::ShipTooLarge {
                len,
                max: MAX_SHIP_BYTES,
            });
        }
        Ok(self.take(len)?.to_vec())
    }

    fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

// ---------------------------------------------------------------------------
// Enum tags: the wire tag of every closed enum is its index in the type's
// canonical `ALL` order, so the wire order is pinned to the same constant
// the encoders one-hot against.
// ---------------------------------------------------------------------------

fn tag_in<T: Copy + PartialEq>(all: &[T], value: T) -> u8 {
    all.iter()
        .position(|v| *v == value)
        .expect("value present in ALL") as u8
}

fn tag_out<T: Copy>(all: &[T], tag: u8, what: &'static str) -> Result<T, WireError> {
    all.get(tag as usize)
        .copied()
        .ok_or(WireError::UnknownTag { what, tag })
}

// ---------------------------------------------------------------------------
// Payload encoders/decoders.
// ---------------------------------------------------------------------------

fn write_column(w: &mut Writer, column: &ColumnRef) -> Result<(), WireError> {
    w.string(&column.table)?;
    w.string(&column.column)
}

fn read_column(r: &mut Reader<'_>) -> Result<ColumnRef, WireError> {
    Ok(ColumnRef {
        table: r.string()?,
        column: r.string()?,
    })
}

fn write_join(w: &mut Writer, condition: &JoinCondition) -> Result<(), WireError> {
    write_column(w, &condition.left)?;
    write_column(w, &condition.right)
}

fn read_join(r: &mut Reader<'_>) -> Result<JoinCondition, WireError> {
    Ok(JoinCondition {
        left: read_column(r)?,
        right: read_column(r)?,
    })
}

fn write_value(w: &mut Writer, value: &Value) -> Result<(), WireError> {
    match value {
        Value::Int(v) => {
            w.u8(0);
            w.i64(*v);
        }
        Value::Float(v) => {
            w.u8(1);
            w.f64(*v);
        }
        Value::Text(s) => {
            w.u8(2);
            w.string(s)?;
        }
        Value::Date(v) => {
            w.u8(3);
            w.i64(*v);
        }
        Value::Bool(v) => {
            w.u8(4);
            w.u8(*v as u8);
        }
        Value::Null => w.u8(5),
    }
    Ok(())
}

fn read_value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => Ok(Value::Float(r.f64()?)),
        2 => Ok(Value::Text(r.string()?)),
        3 => Ok(Value::Date(r.i64()?)),
        4 => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            tag => Err(WireError::UnknownTag { what: "bool", tag }),
        },
        5 => Ok(Value::Null),
        tag => Err(WireError::UnknownTag { what: "value", tag }),
    }
}

fn write_predicate(w: &mut Writer, predicate: &Predicate) -> Result<(), WireError> {
    match predicate {
        Predicate::Compare { column, op, value } => {
            w.u8(0);
            write_column(w, column)?;
            w.u8(tag_in(&CompareOp::ALL, *op));
            write_value(w, value)
        }
        Predicate::Between { column, low, high } => {
            w.u8(1);
            write_column(w, column)?;
            write_value(w, low)?;
            write_value(w, high)
        }
        Predicate::InList { column, values } => {
            w.u8(2);
            write_column(w, column)?;
            w.list_len("in-list", values.len())?;
            for value in values {
                write_value(w, value)?;
            }
            Ok(())
        }
        Predicate::Like { column, pattern } => {
            w.u8(3);
            write_column(w, column)?;
            w.string(pattern)
        }
    }
}

fn read_predicate(r: &mut Reader<'_>) -> Result<Predicate, WireError> {
    match r.u8()? {
        0 => Ok(Predicate::Compare {
            column: read_column(r)?,
            op: tag_out(&CompareOp::ALL, r.u8()?, "compare-op")?,
            value: read_value(r)?,
        }),
        1 => Ok(Predicate::Between {
            column: read_column(r)?,
            low: read_value(r)?,
            high: read_value(r)?,
        }),
        2 => {
            let column = read_column(r)?;
            let len = r.list_len("in-list")?;
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(read_value(r)?);
            }
            Ok(Predicate::InList { column, values })
        }
        3 => Ok(Predicate::Like {
            column: read_column(r)?,
            pattern: r.string()?,
        }),
        tag => Err(WireError::UnknownTag {
            what: "predicate",
            tag,
        }),
    }
}

fn write_aggregate(w: &mut Writer, aggregate: &Aggregate) -> Result<(), WireError> {
    match aggregate {
        Aggregate::CountStar => {
            w.u8(0);
            Ok(())
        }
        Aggregate::Sum(c) => {
            w.u8(1);
            write_column(w, c)
        }
        Aggregate::Avg(c) => {
            w.u8(2);
            write_column(w, c)
        }
        Aggregate::Min(c) => {
            w.u8(3);
            write_column(w, c)
        }
        Aggregate::Max(c) => {
            w.u8(4);
            write_column(w, c)
        }
    }
}

fn read_aggregate(r: &mut Reader<'_>) -> Result<Aggregate, WireError> {
    match r.u8()? {
        0 => Ok(Aggregate::CountStar),
        1 => Ok(Aggregate::Sum(read_column(r)?)),
        2 => Ok(Aggregate::Avg(read_column(r)?)),
        3 => Ok(Aggregate::Min(read_column(r)?)),
        4 => Ok(Aggregate::Max(read_column(r)?)),
        tag => Err(WireError::UnknownTag {
            what: "aggregate",
            tag,
        }),
    }
}

fn write_op(w: &mut Writer, op: &PhysicalOp) -> Result<(), WireError> {
    match op {
        PhysicalOp::SeqScan { table } => {
            w.u8(0);
            w.string(table)
        }
        PhysicalOp::IndexScan { table, column } => {
            w.u8(1);
            w.string(table)?;
            w.string(column)
        }
        PhysicalOp::Sort { keys } => {
            w.u8(2);
            w.list_len("sort-keys", keys.len())?;
            for key in keys {
                write_column(w, key)?;
            }
            Ok(())
        }
        PhysicalOp::Aggregate {
            group_by,
            functions,
        } => {
            w.u8(3);
            w.list_len("group-by", group_by.len())?;
            for column in group_by {
                write_column(w, column)?;
            }
            w.list_len("aggregates", functions.len())?;
            for function in functions {
                write_aggregate(w, function)?;
            }
            Ok(())
        }
        PhysicalOp::HashJoin { condition } => {
            w.u8(4);
            write_join(w, condition)
        }
        PhysicalOp::MergeJoin { condition } => {
            w.u8(5);
            write_join(w, condition)
        }
        PhysicalOp::NestedLoop { condition } => {
            w.u8(6);
            match condition {
                None => {
                    w.u8(0);
                    Ok(())
                }
                Some(condition) => {
                    w.u8(1);
                    write_join(w, condition)
                }
            }
        }
        PhysicalOp::Materialize => {
            w.u8(7);
            Ok(())
        }
        PhysicalOp::Limit { count } => {
            w.u8(8);
            w.u64(*count);
            Ok(())
        }
    }
}

fn read_op(r: &mut Reader<'_>) -> Result<PhysicalOp, WireError> {
    match r.u8()? {
        0 => Ok(PhysicalOp::SeqScan { table: r.string()? }),
        1 => Ok(PhysicalOp::IndexScan {
            table: r.string()?,
            column: r.string()?,
        }),
        2 => {
            let len = r.list_len("sort-keys")?;
            let mut keys = Vec::with_capacity(len);
            for _ in 0..len {
                keys.push(read_column(r)?);
            }
            Ok(PhysicalOp::Sort { keys })
        }
        3 => {
            let len = r.list_len("group-by")?;
            let mut group_by = Vec::with_capacity(len);
            for _ in 0..len {
                group_by.push(read_column(r)?);
            }
            let len = r.list_len("aggregates")?;
            let mut functions = Vec::with_capacity(len);
            for _ in 0..len {
                functions.push(read_aggregate(r)?);
            }
            Ok(PhysicalOp::Aggregate {
                group_by,
                functions,
            })
        }
        4 => Ok(PhysicalOp::HashJoin {
            condition: read_join(r)?,
        }),
        5 => Ok(PhysicalOp::MergeJoin {
            condition: read_join(r)?,
        }),
        6 => match r.u8()? {
            0 => Ok(PhysicalOp::NestedLoop { condition: None }),
            1 => Ok(PhysicalOp::NestedLoop {
                condition: Some(read_join(r)?),
            }),
            tag => Err(WireError::UnknownTag {
                what: "nested-loop-condition",
                tag,
            }),
        },
        7 => Ok(PhysicalOp::Materialize),
        8 => Ok(PhysicalOp::Limit { count: r.u64()? }),
        tag => Err(WireError::UnknownTag {
            what: "physical-op",
            tag,
        }),
    }
}

fn write_plan(w: &mut Writer, root: &PlanNode) -> Result<(), WireError> {
    fn walk(
        w: &mut Writer,
        node: &PlanNode,
        budget: &mut usize,
        depth: usize,
    ) -> Result<(), WireError> {
        if *budget == 0 {
            return Err(WireError::PlanTooLarge {
                max: MAX_PLAN_NODES,
            });
        }
        if depth > MAX_PLAN_DEPTH {
            return Err(WireError::PlanTooDeep {
                max: MAX_PLAN_DEPTH,
            });
        }
        *budget -= 1;
        write_op(w, &node.op)?;
        w.list_len("predicates", node.predicates.len())?;
        for predicate in &node.predicates {
            write_predicate(w, predicate)?;
        }
        w.f64(node.est_rows);
        w.f64(node.est_width);
        w.f64(node.est_cost);
        w.f64(node.actual_rows);
        w.f64(node.actual_self_ms);
        w.f64(node.actual_total_ms);
        w.list_len("children", node.children.len())?;
        for child in &node.children {
            walk(w, child, budget, depth + 1)?;
        }
        Ok(())
    }
    let mut budget = MAX_PLAN_NODES;
    walk(w, root, &mut budget, 0)
}

fn read_plan(r: &mut Reader<'_>) -> Result<PlanNode, WireError> {
    fn walk(r: &mut Reader<'_>, budget: &mut usize, depth: usize) -> Result<PlanNode, WireError> {
        if *budget == 0 {
            return Err(WireError::PlanTooLarge {
                max: MAX_PLAN_NODES,
            });
        }
        if depth > MAX_PLAN_DEPTH {
            return Err(WireError::PlanTooDeep {
                max: MAX_PLAN_DEPTH,
            });
        }
        *budget -= 1;
        let op = read_op(r)?;
        let len = r.list_len("predicates")?;
        let mut predicates = Vec::with_capacity(len);
        for _ in 0..len {
            predicates.push(read_predicate(r)?);
        }
        let est_rows = r.f64()?;
        let est_width = r.f64()?;
        let est_cost = r.f64()?;
        let actual_rows = r.f64()?;
        let actual_self_ms = r.f64()?;
        let actual_total_ms = r.f64()?;
        let len = r.list_len("children")?;
        let mut children = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            children.push(walk(r, budget, depth + 1)?);
        }
        let mut node = PlanNode::new(op, children);
        node.predicates = predicates;
        node.est_rows = est_rows;
        node.est_width = est_width;
        node.est_cost = est_cost;
        node.actual_rows = actual_rows;
        node.actual_self_ms = actual_self_ms;
        node.actual_total_ms = actual_total_ms;
        Ok(node)
    }
    let mut budget = MAX_PLAN_NODES;
    walk(r, &mut budget, 0)
}

/// Bit layout of the knob booleans (must stay append-only).
const KNOB_BITS: usize = 5;

fn write_environment(w: &mut Writer, env: &DbEnvironment) -> Result<(), WireError> {
    w.string(&env.name)?;
    let k = &env.knobs;
    w.f64(k.seq_page_cost);
    w.f64(k.random_page_cost);
    w.f64(k.cpu_tuple_cost);
    w.f64(k.cpu_index_tuple_cost);
    w.f64(k.cpu_operator_cost);
    w.u64(k.work_mem_kb);
    w.u64(k.shared_buffers_mb);
    w.u64(k.effective_cache_size_mb);
    let mut bits = 0u8;
    for (i, flag) in [
        k.enable_seqscan,
        k.enable_indexscan,
        k.enable_hashjoin,
        k.enable_mergejoin,
        k.enable_nestloop,
    ]
    .into_iter()
    .enumerate()
    {
        bits |= (flag as u8) << i;
    }
    w.u8(bits);
    w.u32(k.max_parallel_workers);
    let h = &env.hardware;
    w.string(&h.name)?;
    w.f64(h.cpu_speed);
    w.u32(h.cores);
    w.u32(h.memory_gb);
    w.u8(tag_in(&DiskKind::ALL, h.disk));
    w.u8(tag_in(&StorageFormat::ALL, env.storage_format));
    w.f64(env.os_overhead);
    Ok(())
}

fn read_environment(r: &mut Reader<'_>) -> Result<DbEnvironment, WireError> {
    let name = r.string()?;
    let seq_page_cost = r.f64()?;
    let random_page_cost = r.f64()?;
    let cpu_tuple_cost = r.f64()?;
    let cpu_index_tuple_cost = r.f64()?;
    let cpu_operator_cost = r.f64()?;
    let work_mem_kb = r.u64()?;
    let shared_buffers_mb = r.u64()?;
    let effective_cache_size_mb = r.u64()?;
    let bits = r.u8()?;
    if bits >> KNOB_BITS != 0 {
        return Err(WireError::UnknownTag {
            what: "knob-bits",
            tag: bits,
        });
    }
    let max_parallel_workers = r.u32()?;
    let knobs = KnobConfig {
        seq_page_cost,
        random_page_cost,
        cpu_tuple_cost,
        cpu_index_tuple_cost,
        cpu_operator_cost,
        work_mem_kb,
        shared_buffers_mb,
        effective_cache_size_mb,
        enable_seqscan: bits & 1 != 0,
        enable_indexscan: bits & 2 != 0,
        enable_hashjoin: bits & 4 != 0,
        enable_mergejoin: bits & 8 != 0,
        enable_nestloop: bits & 16 != 0,
        max_parallel_workers,
    };
    let hardware = HardwareProfile {
        name: r.string()?,
        cpu_speed: r.f64()?,
        cores: r.u32()?,
        memory_gb: r.u32()?,
        disk: tag_out(&DiskKind::ALL, r.u8()?, "disk-kind")?,
    };
    let storage_format = tag_out(&StorageFormat::ALL, r.u8()?, "storage-format")?;
    let os_overhead = r.f64()?;
    Ok(DbEnvironment {
        name,
        knobs,
        hardware,
        storage_format,
        os_overhead,
    })
}

const OPTION_ALLOW_TRANSFER: u8 = 1;
const OPTION_SHED_LOAD: u8 = 1 << 1;
const OPTION_HAS_TENANT: u8 = 1 << 2;
const OPTION_BITS: usize = 3;

/// The fields of a request frame, borrowed from whichever request type
/// is being encoded — a decoded [`WireRequest`] or a caller's
/// [`EstimateRequest`] — so neither encoder clones the environment or the
/// plan.
struct RequestFields<'a> {
    benchmark: BenchmarkKind,
    estimator: EstimatorKind,
    allow_transfer: bool,
    shed_load: bool,
    deadline_us: Option<u64>,
    tenant: u32,
    environment: &'a DbEnvironment,
    plan: &'a PlanNode,
}

impl<'a> RequestFields<'a> {
    fn of_wire(request: &'a WireRequest) -> Self {
        RequestFields {
            benchmark: request.benchmark,
            estimator: request.estimator,
            allow_transfer: request.allow_transfer,
            shed_load: request.shed_load,
            deadline_us: request.deadline_us,
            tenant: request.tenant,
            environment: &request.environment,
            plan: &request.plan,
        }
    }

    fn of_estimate(request: &'a EstimateRequest) -> Result<Self, WireError> {
        Ok(RequestFields {
            benchmark: request.benchmark,
            estimator: request.options.estimator,
            allow_transfer: request.options.allow_transfer,
            shed_load: request.options.shed_load,
            deadline_us: deadline_us(request.deadline)?,
            tenant: request.options.tenant.0,
            environment: &request.environment,
            plan: &request.plan,
        })
    }
}

fn write_request_payload(w: &mut Writer, request: &RequestFields<'_>) -> Result<(), WireError> {
    w.u8(tag_in(&BenchmarkKind::ALL, request.benchmark));
    w.u8(tag_in(&EstimatorKind::ALL, request.estimator));
    let mut bits = 0u8;
    if request.allow_transfer {
        bits |= OPTION_ALLOW_TRANSFER;
    }
    if request.shed_load {
        bits |= OPTION_SHED_LOAD;
    }
    if request.tenant != 0 {
        bits |= OPTION_HAS_TENANT;
    }
    w.u8(bits);
    match request.deadline_us {
        None => {
            w.u8(0);
            w.u64(0);
        }
        Some(micros) => {
            if micros > MAX_DEADLINE_US {
                return Err(WireError::DeadlineOutOfRange {
                    micros,
                    max: MAX_DEADLINE_US,
                });
            }
            w.u8(1);
            w.u64(micros);
        }
    }
    // The tenant id rides behind its option bit, *after* the fixed
    // deadline field: anonymous frames stay byte-identical to pre-tenant
    // QCFP, and the deadline keeps its fixed body offset either way.
    if request.tenant != 0 {
        w.u32(request.tenant);
    }
    write_environment(w, request.environment)?;
    write_plan(w, request.plan)
}

fn read_request_payload(r: &mut Reader<'_>, request_id: u64) -> Result<WireRequest, WireError> {
    let benchmark = tag_out(&BenchmarkKind::ALL, r.u8()?, "benchmark")?;
    let estimator = tag_out(&EstimatorKind::ALL, r.u8()?, "estimator")?;
    let bits = r.u8()?;
    if bits >> OPTION_BITS != 0 {
        return Err(WireError::UnknownTag {
            what: "option-bits",
            tag: bits,
        });
    }
    let has_deadline = r.u8()?;
    let micros = r.u64()?;
    let deadline_us = match has_deadline {
        0 => {
            if micros != 0 {
                return Err(WireError::UnknownTag {
                    what: "deadline-presence",
                    tag: has_deadline,
                });
            }
            None
        }
        1 => {
            // The decode-side deadline clamp: a corrupt or hostile frame
            // cannot request an unbounded budget.
            if micros > MAX_DEADLINE_US {
                return Err(WireError::DeadlineOutOfRange {
                    micros,
                    max: MAX_DEADLINE_US,
                });
            }
            Some(micros)
        }
        tag => {
            return Err(WireError::UnknownTag {
                what: "deadline-presence",
                tag,
            })
        }
    };
    let tenant = if bits & OPTION_HAS_TENANT != 0 {
        let tenant = r.u32()?;
        if tenant == 0 {
            // The anonymous id never travels behind the tenant bit: a
            // compliant encoder omits the field entirely, so a set bit
            // carrying 0 is a corrupt or hostile frame.
            return Err(WireError::UnknownTag {
                what: "tenant-tag",
                tag: 0,
            });
        }
        tenant
    } else {
        0
    };
    let environment = read_environment(r)?;
    let plan = read_plan(r)?;
    Ok(WireRequest {
        request_id,
        benchmark,
        estimator,
        allow_transfer: bits & OPTION_ALLOW_TRANSFER != 0,
        shed_load: bits & OPTION_SHED_LOAD != 0,
        deadline_us,
        tenant,
        environment,
        plan,
    })
}

const ESTIMATE_CACHE_HIT: u8 = 1;
const ESTIMATE_FROM_DISK: u8 = 1 << 1;
const ESTIMATE_REFINED: u8 = 1 << 2;
const ESTIMATE_COLD_START: u8 = 1 << 3;
const ESTIMATE_BITS: usize = 4;

const STATUS_OK: u8 = 0;
const STATUS_SERVICE_CLOSED: u8 = 1;
const STATUS_QUEUE_FULL: u8 = 2;
const STATUS_SNAPSHOT_MISSING: u8 = 3;
const STATUS_MODEL_MISSING: u8 = 4;
const STATUS_DEADLINE_EXCEEDED: u8 = 5;
const STATUS_STORE: u8 = 6;
const STATUS_BAD_REQUEST: u8 = 7;
const STATUS_NOT_OWNER: u8 = 8;

const ORIGIN_TRAINED_HERE: u8 = 0;
const ORIGIN_TRANSFERRED: u8 = 1;
const ORIGIN_FROM_DISK: u8 = 2;
const ORIGIN_NONE: u8 = 3;

fn write_response_payload(w: &mut Writer, response: &WireResponse) -> Result<(), WireError> {
    match &response.outcome {
        Ok(estimate) => {
            w.u8(STATUS_OK);
            w.f64(estimate.cost_ms);
            w.u32(estimate.batch_size);
            let mut bits = 0u8;
            if estimate.encoding_cache_hit {
                bits |= ESTIMATE_CACHE_HIT;
            }
            if estimate.model_from_disk {
                bits |= ESTIMATE_FROM_DISK;
            }
            if estimate.refined {
                bits |= ESTIMATE_REFINED;
            }
            if estimate.cold_start {
                bits |= ESTIMATE_COLD_START;
            }
            w.u8(bits);
            w.u8(tag_in(&BenchmarkKind::ALL, estimate.benchmark));
            w.u8(tag_in(&EstimatorKind::ALL, estimate.estimator));
            w.u64(estimate.fingerprint);
            match estimate.origin {
                SnapshotOrigin::TrainedHere => w.u8(ORIGIN_TRAINED_HERE),
                SnapshotOrigin::Transferred { source, distance } => {
                    w.u8(ORIGIN_TRANSFERRED);
                    w.u64(source.0);
                    w.f64(distance);
                }
                SnapshotOrigin::LoadedFromDisk => w.u8(ORIGIN_FROM_DISK),
                SnapshotOrigin::None => w.u8(ORIGIN_NONE),
            }
            w.u64(estimate.service_us);
            w.u64(estimate.total_us);
            Ok(())
        }
        Err(fault) => {
            match fault {
                WireFault::ServiceClosed => w.u8(STATUS_SERVICE_CLOSED),
                WireFault::QueueFull { depth, limit } => {
                    w.u8(STATUS_QUEUE_FULL);
                    w.u64(*depth);
                    w.u64(*limit);
                }
                WireFault::SnapshotMissing {
                    benchmark,
                    fingerprint,
                } => {
                    w.u8(STATUS_SNAPSHOT_MISSING);
                    w.u8(tag_in(&BenchmarkKind::ALL, *benchmark));
                    w.u64(*fingerprint);
                }
                WireFault::ModelMissing {
                    benchmark,
                    estimator,
                    fingerprint,
                } => {
                    w.u8(STATUS_MODEL_MISSING);
                    w.u8(tag_in(&BenchmarkKind::ALL, *benchmark));
                    w.u8(tag_in(&EstimatorKind::ALL, *estimator));
                    w.u64(*fingerprint);
                }
                WireFault::DeadlineExceeded {
                    elapsed_us,
                    deadline_us,
                } => {
                    w.u8(STATUS_DEADLINE_EXCEEDED);
                    w.u64(*elapsed_us);
                    w.u64(*deadline_us);
                }
                WireFault::Store { message } => {
                    w.u8(STATUS_STORE);
                    w.string(message)?;
                }
                WireFault::BadRequest { message } => {
                    w.u8(STATUS_BAD_REQUEST);
                    w.string(message)?;
                }
                WireFault::NotOwner { owner } => {
                    w.u8(STATUS_NOT_OWNER);
                    w.string(owner)?;
                }
            }
            Ok(())
        }
    }
}

fn read_response_payload(r: &mut Reader<'_>, request_id: u64) -> Result<WireResponse, WireError> {
    let status = r.u8()?;
    let outcome = match status {
        STATUS_OK => {
            let cost_ms = r.f64()?;
            let batch_size = r.u32()?;
            let bits = r.u8()?;
            if bits >> ESTIMATE_BITS != 0 {
                return Err(WireError::UnknownTag {
                    what: "estimate-bits",
                    tag: bits,
                });
            }
            let benchmark = tag_out(&BenchmarkKind::ALL, r.u8()?, "benchmark")?;
            let estimator = tag_out(&EstimatorKind::ALL, r.u8()?, "estimator")?;
            let fingerprint = r.u64()?;
            let origin = match r.u8()? {
                ORIGIN_TRAINED_HERE => SnapshotOrigin::TrainedHere,
                ORIGIN_TRANSFERRED => SnapshotOrigin::Transferred {
                    source: EnvFingerprint(r.u64()?),
                    distance: r.f64()?,
                },
                ORIGIN_FROM_DISK => SnapshotOrigin::LoadedFromDisk,
                ORIGIN_NONE => SnapshotOrigin::None,
                tag => {
                    return Err(WireError::UnknownTag {
                        what: "snapshot-origin",
                        tag,
                    })
                }
            };
            Ok(WireEstimate {
                cost_ms,
                batch_size,
                encoding_cache_hit: bits & ESTIMATE_CACHE_HIT != 0,
                model_from_disk: bits & ESTIMATE_FROM_DISK != 0,
                refined: bits & ESTIMATE_REFINED != 0,
                cold_start: bits & ESTIMATE_COLD_START != 0,
                benchmark,
                estimator,
                fingerprint,
                origin,
                service_us: r.u64()?,
                total_us: r.u64()?,
            })
        }
        STATUS_SERVICE_CLOSED => Err(WireFault::ServiceClosed),
        STATUS_QUEUE_FULL => Err(WireFault::QueueFull {
            depth: r.u64()?,
            limit: r.u64()?,
        }),
        STATUS_SNAPSHOT_MISSING => Err(WireFault::SnapshotMissing {
            benchmark: tag_out(&BenchmarkKind::ALL, r.u8()?, "benchmark")?,
            fingerprint: r.u64()?,
        }),
        STATUS_MODEL_MISSING => Err(WireFault::ModelMissing {
            benchmark: tag_out(&BenchmarkKind::ALL, r.u8()?, "benchmark")?,
            estimator: tag_out(&EstimatorKind::ALL, r.u8()?, "estimator")?,
            fingerprint: r.u64()?,
        }),
        STATUS_DEADLINE_EXCEEDED => Err(WireFault::DeadlineExceeded {
            elapsed_us: r.u64()?,
            deadline_us: r.u64()?,
        }),
        STATUS_STORE => Err(WireFault::Store {
            message: r.string()?,
        }),
        STATUS_BAD_REQUEST => Err(WireFault::BadRequest {
            message: r.string()?,
        }),
        STATUS_NOT_OWNER => Err(WireFault::NotOwner { owner: r.string()? }),
        tag => {
            return Err(WireError::UnknownTag {
                what: "response-status",
                tag,
            })
        }
    };
    Ok(WireResponse {
        request_id,
        outcome,
    })
}

// ---------------------------------------------------------------------------
// Replication (ship) payloads.
// ---------------------------------------------------------------------------

fn write_ship_snapshot_payload(w: &mut Writer, ship: &WireShipSnapshot) -> Result<(), WireError> {
    w.u8(tag_in(&BenchmarkKind::ALL, ship.benchmark));
    w.u64(ship.fingerprint);
    w.list_len("knob-vector", ship.knobs.len())?;
    for &knob in &ship.knobs {
        w.f64(knob);
    }
    w.blob(&ship.snapshot)
}

fn read_ship_snapshot_payload(
    r: &mut Reader<'_>,
    request_id: u64,
) -> Result<WireShipSnapshot, WireError> {
    let benchmark = tag_out(&BenchmarkKind::ALL, r.u8()?, "benchmark")?;
    let fingerprint = r.u64()?;
    let knob_count = r.list_len("knob-vector")?;
    let mut knobs = Vec::with_capacity(knob_count);
    for _ in 0..knob_count {
        knobs.push(r.f64()?);
    }
    let snapshot = r.blob()?;
    Ok(WireShipSnapshot {
        request_id,
        benchmark,
        fingerprint,
        knobs,
        snapshot,
    })
}

fn write_ship_model_payload(w: &mut Writer, ship: &WireShipModel) -> Result<(), WireError> {
    w.u8(tag_in(&BenchmarkKind::ALL, ship.benchmark));
    w.u8(tag_in(&EstimatorKind::ALL, ship.estimator));
    w.u64(ship.fingerprint);
    w.blob(&ship.weights)
}

fn read_ship_model_payload(
    r: &mut Reader<'_>,
    request_id: u64,
) -> Result<WireShipModel, WireError> {
    Ok(WireShipModel {
        request_id,
        benchmark: tag_out(&BenchmarkKind::ALL, r.u8()?, "benchmark")?,
        estimator: tag_out(&EstimatorKind::ALL, r.u8()?, "estimator")?,
        fingerprint: r.u64()?,
        weights: r.blob()?,
    })
}

fn write_ship_ack_payload(w: &mut Writer, ack: &WireShipAck) -> Result<(), WireError> {
    w.u8(ack.accepted as u8);
    w.string(&ack.message)
}

fn read_ship_ack_payload(r: &mut Reader<'_>, request_id: u64) -> Result<WireShipAck, WireError> {
    let accepted = match r.u8()? {
        0 => false,
        1 => true,
        tag => {
            return Err(WireError::UnknownTag {
                what: "ship-ack-accepted",
                tag,
            })
        }
    };
    Ok(WireShipAck {
        request_id,
        accepted,
        message: r.string()?,
    })
}

// ---------------------------------------------------------------------------
// Manifest (anti-entropy) payloads.
// ---------------------------------------------------------------------------

/// Wire tag of a snapshot manifest entry.
const MANIFEST_ENTRY_SNAPSHOT: u8 = 1;
/// Wire tag of a model manifest entry.
const MANIFEST_ENTRY_MODEL: u8 = 2;

fn write_manifest_entry(w: &mut Writer, entry: &WireManifestEntry) {
    match *entry {
        WireManifestEntry::Snapshot {
            benchmark,
            fingerprint,
            crc,
        } => {
            w.u8(MANIFEST_ENTRY_SNAPSHOT);
            w.u8(tag_in(&BenchmarkKind::ALL, benchmark));
            w.u64(fingerprint);
            w.u32(crc);
        }
        WireManifestEntry::Model {
            benchmark,
            estimator,
            fingerprint,
            crc,
        } => {
            w.u8(MANIFEST_ENTRY_MODEL);
            w.u8(tag_in(&BenchmarkKind::ALL, benchmark));
            w.u8(tag_in(&EstimatorKind::ALL, estimator));
            w.u64(fingerprint);
            w.u32(crc);
        }
    }
}

fn read_manifest_entry(r: &mut Reader<'_>) -> Result<WireManifestEntry, WireError> {
    match r.u8()? {
        MANIFEST_ENTRY_SNAPSHOT => Ok(WireManifestEntry::Snapshot {
            benchmark: tag_out(&BenchmarkKind::ALL, r.u8()?, "benchmark")?,
            fingerprint: r.u64()?,
            crc: r.u32()?,
        }),
        MANIFEST_ENTRY_MODEL => Ok(WireManifestEntry::Model {
            benchmark: tag_out(&BenchmarkKind::ALL, r.u8()?, "benchmark")?,
            estimator: tag_out(&EstimatorKind::ALL, r.u8()?, "estimator")?,
            fingerprint: r.u64()?,
            crc: r.u32()?,
        }),
        tag => Err(WireError::UnknownTag {
            what: "manifest-entry-kind",
            tag,
        }),
    }
}

fn write_manifest_reply_payload(
    w: &mut Writer,
    reply: &WireManifestReply,
) -> Result<(), WireError> {
    // Manifests enumerate a whole store, so their count carries its own
    // cap rather than the per-field MAX_LIST_LEN the generic helper
    // enforces.
    if reply.entries.len() > MAX_MANIFEST_ENTRIES {
        return Err(WireError::ListTooLong {
            what: "manifest-entries",
            len: reply.entries.len(),
            max: MAX_MANIFEST_ENTRIES,
        });
    }
    w.u32(reply.entries.len() as u32);
    for entry in &reply.entries {
        write_manifest_entry(w, entry);
    }
    Ok(())
}

fn read_manifest_reply_payload(
    r: &mut Reader<'_>,
    request_id: u64,
) -> Result<WireManifestReply, WireError> {
    let count = r.u32()? as usize;
    if count > MAX_MANIFEST_ENTRIES {
        return Err(WireError::ListTooLong {
            what: "manifest-entries",
            len: count,
            max: MAX_MANIFEST_ENTRIES,
        });
    }
    // Each entry is at least 14 bytes; a count the remaining bytes cannot
    // possibly hold is truncation, caught before the allocation.
    if r.remaining() < count * 14 {
        return Err(WireError::Truncated);
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(read_manifest_entry(r)?);
    }
    Ok(WireManifestReply {
        request_id,
        entries,
    })
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// Initial capacity of a frame buffer: enough for a typical request (a
/// few hundred bytes of environment and plan) or response, so most frames
/// take exactly one allocation.
const FRAME_CAPACITY: usize = 1024;

/// Build one frame in a single buffer: write the prelude and body header
/// with the length and CRC zeroed, let `payload` append the kind-specific
/// payload after them, then seal the length and CRC in place.
fn frame(
    kind: u8,
    request_id: u64,
    payload: impl FnOnce(&mut Writer) -> Result<(), WireError>,
) -> Result<Vec<u8>, WireError> {
    let mut w = Writer {
        buf: Vec::with_capacity(FRAME_CAPACITY),
    };
    w.buf.extend_from_slice(&WIRE_MAGIC);
    w.u32(WIRE_VERSION);
    w.u32(0); // body length, sealed below
    w.u32(0); // CRC, sealed below
    w.u8(kind);
    w.u8(0); // flags (v1: none)
    w.u64(request_id);
    payload(&mut w)?;
    let body_len = w.buf.len() - PRELUDE_LEN;
    if body_len > MAX_BODY_LEN {
        return Err(WireError::FrameTooLarge {
            len: body_len,
            max: MAX_BODY_LEN,
        });
    }
    let crc = crc32(&w.buf[PRELUDE_LEN..]);
    w.buf[8..12].copy_from_slice(&(body_len as u32).to_le_bytes());
    w.buf[12..16].copy_from_slice(&crc.to_le_bytes());
    Ok(w.buf)
}

/// Encode one request frame.
pub fn encode_request(request: &WireRequest) -> Result<Vec<u8>, WireError> {
    frame(FRAME_REQUEST, request.request_id, |w| {
        write_request_payload(w, &RequestFields::of_wire(request))
    })
}

/// Encode one request frame straight from a gateway request, without
/// building (and cloning into) a [`WireRequest`] first. The frame is
/// byte-identical to `encode_request` of
/// [`WireRequest::from_estimate_request`]`(request_id, request)`, and the
/// same deadline clamp applies.
pub fn encode_estimate_request(
    request_id: u64,
    request: &EstimateRequest,
) -> Result<Vec<u8>, WireError> {
    let fields = RequestFields::of_estimate(request)?;
    frame(FRAME_REQUEST, request_id, |w| {
        write_request_payload(w, &fields)
    })
}

/// Encode one response frame.
pub fn encode_response(response: &WireResponse) -> Result<Vec<u8>, WireError> {
    frame(FRAME_RESPONSE, response.request_id, |w| {
        write_response_payload(w, response)
    })
}

/// Encode one ship-snapshot frame.
pub fn encode_ship_snapshot(ship: &WireShipSnapshot) -> Result<Vec<u8>, WireError> {
    frame(FRAME_SHIP_SNAPSHOT, ship.request_id, |w| {
        write_ship_snapshot_payload(w, ship)
    })
}

/// Encode one ship-model frame.
pub fn encode_ship_model(ship: &WireShipModel) -> Result<Vec<u8>, WireError> {
    frame(FRAME_SHIP_MODEL, ship.request_id, |w| {
        write_ship_model_payload(w, ship)
    })
}

/// Encode one ship-acknowledgement frame.
pub fn encode_ship_ack(ack: &WireShipAck) -> Result<Vec<u8>, WireError> {
    frame(FRAME_SHIP_ACK, ack.request_id, |w| {
        write_ship_ack_payload(w, ack)
    })
}

/// Encode one manifest-request frame (empty payload).
pub fn encode_manifest_request(request: &WireManifestRequest) -> Result<Vec<u8>, WireError> {
    frame(FRAME_MANIFEST_REQUEST, request.request_id, |_| Ok(()))
}

/// Encode one manifest-reply frame.
pub fn encode_manifest_reply(reply: &WireManifestReply) -> Result<Vec<u8>, WireError> {
    frame(FRAME_MANIFEST_REPLY, reply.request_id, |w| {
        write_manifest_reply_payload(w, reply)
    })
}

/// Incremental frame delimiting for stream readers: given the bytes
/// buffered so far (starting at a frame boundary), return the total frame
/// length once the prelude declares it, `None` while more bytes are
/// needed, or the typed error as soon as the prefix is provably invalid —
/// bad magic, wrong version and oversized bodies are rejected from the
/// first bytes, before any payload is buffered for them.
pub fn frame_length(buf: &[u8]) -> Result<Option<usize>, WireError> {
    let seen = buf.len().min(4);
    if buf[..seen] != WIRE_MAGIC[..seen] {
        let mut magic = [0u8; 4];
        magic[..seen].copy_from_slice(&buf[..seen]);
        return Err(WireError::BadMagic(magic));
    }
    if buf.len() < 8 {
        return Ok(None);
    }
    let version = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    if buf.len() < PRELUDE_LEN {
        return Ok(None);
    }
    let body_len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(WireError::FrameTooLarge {
            len: body_len,
            max: MAX_BODY_LEN,
        });
    }
    if body_len < BODY_HEADER_LEN {
        return Err(WireError::BodyTooShort(body_len));
    }
    if buf.len() < PRELUDE_LEN + body_len {
        return Ok(None);
    }
    Ok(Some(PRELUDE_LEN + body_len))
}

/// Decode one complete frame (exactly one: trailing bytes are an error).
/// Verifies magic, version, length, CRC and flags, then decodes the
/// kind-specific payload with full bounds checking.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    let total = frame_length(bytes)?.ok_or(WireError::Truncated)?;
    if bytes.len() > total {
        return Err(WireError::TrailingBytes(bytes.len() - total));
    }
    let body = &bytes[PRELUDE_LEN..total];
    let expected = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    let actual = crc32(body);
    if expected != actual {
        return Err(WireError::Checksum { expected, actual });
    }
    let mut r = Reader::new(body);
    let kind = r.u8()?;
    let flags = r.u8()?;
    if flags != 0 {
        return Err(WireError::UnknownFlags(flags));
    }
    let request_id = r.u64()?;
    let frame = match kind {
        FRAME_REQUEST => Frame::Request(Box::new(read_request_payload(&mut r, request_id)?)),
        FRAME_RESPONSE => Frame::Response(read_response_payload(&mut r, request_id)?),
        FRAME_SHIP_SNAPSHOT => {
            Frame::ShipSnapshot(Box::new(read_ship_snapshot_payload(&mut r, request_id)?))
        }
        FRAME_SHIP_MODEL => {
            Frame::ShipModel(Box::new(read_ship_model_payload(&mut r, request_id)?))
        }
        FRAME_SHIP_ACK => Frame::ShipAck(read_ship_ack_payload(&mut r, request_id)?),
        FRAME_MANIFEST_REQUEST => Frame::ManifestRequest(WireManifestRequest { request_id }),
        FRAME_MANIFEST_REPLY => {
            Frame::ManifestReply(read_manifest_reply_payload(&mut r, request_id)?)
        }
        kind => return Err(WireError::UnknownFrameKind(kind)),
    };
    r.finish()?;
    Ok(frame)
}

/// Best-effort peek at a frame's request id without validating the body:
/// used to correlate an error response to a frame whose payload failed to
/// decode. Returns `None` when even the body header is missing or the
/// checksum fails (an untrustworthy id is worse than none).
pub fn peek_request_id(bytes: &[u8]) -> Option<u64> {
    let total = frame_length(bytes).ok().flatten()?;
    let body = &bytes[PRELUDE_LEN..total];
    let expected = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    if crc32(body) != expected {
        return None;
    }
    Some(u64::from_le_bytes([
        body[2], body[3], body[4], body[5], body[6], body[7], body[8], body[9],
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcfe_db::plan::PhysicalOp;

    fn request(id: u64) -> WireRequest {
        let mut plan = PlanNode::new(
            PhysicalOp::HashJoin {
                condition: JoinCondition {
                    left: ColumnRef {
                        table: "a".into(),
                        column: "id".into(),
                    },
                    right: ColumnRef {
                        table: "b".into(),
                        column: "a_id".into(),
                    },
                },
            },
            vec![
                PlanNode::new(PhysicalOp::SeqScan { table: "a".into() }, vec![]),
                PlanNode::new(
                    PhysicalOp::IndexScan {
                        table: "b".into(),
                        column: "a_id".into(),
                    },
                    vec![],
                ),
            ],
        );
        plan.est_rows = 123.5;
        plan.est_cost = 77.25;
        plan.predicates = vec![Predicate::Compare {
            column: ColumnRef {
                table: "a".into(),
                column: "v".into(),
            },
            op: CompareOp::Le,
            value: Value::Float(0.5),
        }];
        WireRequest {
            request_id: id,
            benchmark: BenchmarkKind::Sysbench,
            estimator: EstimatorKind::QcfeMscn,
            allow_transfer: true,
            shed_load: false,
            deadline_us: Some(250_000),
            tenant: 0,
            environment: DbEnvironment::reference(),
            plan,
        }
    }

    #[test]
    fn request_round_trips_exactly() {
        let original = request(42);
        let bytes = encode_request(&original).unwrap();
        assert_eq!(frame_length(&bytes).unwrap(), Some(bytes.len()));
        match decode_frame(&bytes).unwrap() {
            Frame::Request(decoded) => assert_eq!(*decoded, original),
            other => panic!("wrong frame kind: {other:?}"),
        }
    }

    #[test]
    fn response_round_trips_exactly() {
        let response = WireResponse {
            request_id: 7,
            outcome: Ok(WireEstimate {
                cost_ms: 1.25e-3,
                batch_size: 9,
                encoding_cache_hit: true,
                model_from_disk: true,
                refined: false,
                cold_start: true,
                benchmark: BenchmarkKind::Tpch,
                estimator: EstimatorKind::QcfeQpp,
                fingerprint: 0xdead_beef_f00d_cafe,
                origin: SnapshotOrigin::Transferred {
                    source: EnvFingerprint(99),
                    distance: 0.125,
                },
                service_us: 1500,
                total_us: 1800,
            }),
        };
        let bytes = encode_response(&response).unwrap();
        match decode_frame(&bytes).unwrap() {
            Frame::Response(decoded) => assert_eq!(decoded, response),
            other => panic!("wrong frame kind: {other:?}"),
        }
    }

    #[test]
    fn every_fault_variant_round_trips() {
        let faults = [
            WireFault::ServiceClosed,
            WireFault::QueueFull {
                depth: 256,
                limit: 256,
            },
            WireFault::SnapshotMissing {
                benchmark: BenchmarkKind::JobLight,
                fingerprint: 3,
            },
            WireFault::ModelMissing {
                benchmark: BenchmarkKind::Tpch,
                estimator: EstimatorKind::Pgsql,
                fingerprint: 4,
            },
            WireFault::DeadlineExceeded {
                elapsed_us: 1500,
                deadline_us: 1000,
            },
            WireFault::Store {
                message: "disk gone".into(),
            },
            WireFault::BadRequest {
                message: "unknown benchmark tag 9".into(),
            },
        ];
        for fault in faults {
            let response = WireResponse {
                request_id: 11,
                outcome: Err(fault.clone()),
            };
            let bytes = encode_response(&response).unwrap();
            match decode_frame(&bytes).unwrap() {
                Frame::Response(decoded) => assert_eq!(decoded.outcome, Err(fault)),
                other => panic!("wrong frame kind: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_reject_from_the_first_bytes() {
        let bytes = encode_request(&request(1)).unwrap();
        let mut flipped = bytes.clone();
        flipped[0] ^= 0xff;
        assert!(matches!(
            frame_length(&flipped[..2]),
            Err(WireError::BadMagic(_))
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xfe;
        assert!(matches!(
            frame_length(&wrong_version[..8]),
            Err(WireError::UnsupportedVersion(_))
        ));
        let mut oversized = bytes;
        oversized[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            frame_length(&oversized),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn nonzero_flags_reject() {
        let mut bytes = encode_request(&request(1)).unwrap();
        bytes[PRELUDE_LEN + 1] = 0x80;
        // Re-seal the CRC so the flags check (not the checksum) fires.
        let crc = crc32(&bytes[PRELUDE_LEN..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(WireError::UnknownFlags(0x80)));
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut bytes = encode_request(&request(1)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::Checksum { .. })
        ));
    }

    #[test]
    fn truncation_is_incomplete_not_an_error() {
        let bytes = encode_request(&request(1)).unwrap();
        for cut in [0, 3, 8, PRELUDE_LEN, bytes.len() - 1] {
            assert_eq!(
                frame_length(&bytes[..cut]).unwrap(),
                None,
                "cut at {cut} must read as incomplete"
            );
        }
        assert_eq!(
            decode_frame(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn oversized_deadlines_reject_on_both_ends() {
        let mut hostile = request(1);
        hostile.deadline_us = Some(MAX_DEADLINE_US + 1);
        assert!(matches!(
            encode_request(&hostile),
            Err(WireError::DeadlineOutOfRange { .. })
        ));
        // Hand-craft the frame a compliant encoder refuses to build: patch
        // the deadline field post-encode and re-seal the CRC, simulating a
        // hostile client.
        let mut legit = request(1);
        legit.deadline_us = Some(1);
        let mut bytes = encode_request(&legit).unwrap();
        // deadline micros live right after kind+flags+id+benchmark+
        // estimator+options+presence in the body
        let offset = PRELUDE_LEN + BODY_HEADER_LEN + 4;
        bytes[offset..offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc = crc32(&bytes[PRELUDE_LEN..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::DeadlineOutOfRange {
                micros: u64::MAX,
                max: MAX_DEADLINE_US
            })
        );
    }

    #[test]
    fn tenant_tag_round_trips_and_anonymous_frames_stay_pre_tenant() {
        // A tenanted request spends the option bit, carries the u32 id and
        // round-trips exactly.
        let mut tenanted = request(7);
        tenanted.tenant = 42;
        let bytes = encode_request(&tenanted).unwrap();
        match decode_frame(&bytes).unwrap() {
            Frame::Request(decoded) => assert_eq!(*decoded, tenanted),
            other => panic!("wrong frame kind: {other:?}"),
        }

        // The anonymous tenant emits no tenant bytes at all: the frame is
        // byte-identical to one built before the tag existed, so old
        // decoders keep accepting anonymous traffic.
        let anonymous = request(7);
        let anon_bytes = encode_request(&anonymous).unwrap();
        assert_eq!(anon_bytes.len() + 4, bytes.len(), "tenant costs 4 bytes");
        let options_offset = PRELUDE_LEN + BODY_HEADER_LEN + 2;
        assert_eq!(anon_bytes[options_offset] & (1 << 2), 0);
        assert_eq!(bytes[options_offset] & (1 << 2), 1 << 2);

        // Strict rejection: the tenant bit set while carrying the reserved
        // anonymous id 0 is a frame no compliant encoder builds.
        let mut hostile = anon_bytes.clone();
        hostile[options_offset] |= 1 << 2;
        // Splice four zero bytes in after the deadline field and re-seal
        // length + CRC, simulating a hostile encoder.
        let tenant_offset = PRELUDE_LEN + BODY_HEADER_LEN + 4 + 8;
        hostile.splice(tenant_offset..tenant_offset, [0u8; 4]);
        let body_len = (hostile.len() - PRELUDE_LEN) as u32;
        hostile[8..12].copy_from_slice(&body_len.to_le_bytes());
        let crc = crc32(&hostile[PRELUDE_LEN..]);
        hostile[12..16].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_frame(&hostile),
            Err(WireError::UnknownTag {
                what: "tenant-tag",
                tag: 0
            })
        );
    }

    #[test]
    fn estimate_request_conversion_round_trips() {
        let env = DbEnvironment::reference();
        let original = EstimateRequest::new(
            BenchmarkKind::Tpch,
            env,
            PlanNode::new(PhysicalOp::Materialize, vec![]),
        )
        .with_deadline(Duration::from_millis(30))
        .with_tenant(TenantId(9));
        let wire = WireRequest::from_estimate_request(5, &original).unwrap();
        let back = wire.clone().into_estimate_request();
        assert_eq!(back.benchmark, original.benchmark);
        assert_eq!(back.deadline, original.deadline);
        assert_eq!(back.options, original.options);
        assert_eq!(back.plan, original.plan);
        assert_eq!(*back.environment, *original.environment);
        assert_eq!(
            back.environment.fingerprint(),
            original.environment.fingerprint(),
            "the decoded environment must route to the same shard"
        );
    }

    #[test]
    fn peek_request_id_reads_sealed_frames_only() {
        let bytes = encode_request(&request(0x0102_0304_0506_0708)).unwrap();
        assert_eq!(peek_request_id(&bytes), Some(0x0102_0304_0506_0708));
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        assert_eq!(peek_request_id(&corrupt), None, "untrusted id is withheld");
        assert_eq!(peek_request_id(&bytes[..10]), None);
    }

    #[test]
    fn manifest_frames_round_trip_exactly() {
        let request = WireManifestRequest { request_id: 42 };
        let bytes = encode_manifest_request(&request).unwrap();
        assert_eq!(
            decode_frame(&bytes).unwrap(),
            Frame::ManifestRequest(request)
        );

        let reply = WireManifestReply {
            request_id: 43,
            entries: vec![
                WireManifestEntry::Snapshot {
                    benchmark: BenchmarkKind::Sysbench,
                    fingerprint: 0xdead_beef_cafe_f00d,
                    crc: 0x1234_5678,
                },
                WireManifestEntry::Model {
                    benchmark: BenchmarkKind::Tpch,
                    estimator: EstimatorKind::QcfeMscn,
                    fingerprint: 7,
                    crc: 0,
                },
            ],
        };
        let bytes = encode_manifest_reply(&reply).unwrap();
        match decode_frame(&bytes).unwrap() {
            Frame::ManifestReply(decoded) => assert_eq!(decoded, reply),
            other => panic!("expected manifest reply, got {other:?}"),
        }
        // Empty manifests (a freshly revived peer with a wiped store) are
        // legal, not an error.
        let empty = WireManifestReply {
            request_id: 44,
            entries: Vec::new(),
        };
        let bytes = encode_manifest_reply(&empty).unwrap();
        match decode_frame(&bytes).unwrap() {
            Frame::ManifestReply(decoded) => assert_eq!(decoded, empty),
            other => panic!("expected manifest reply, got {other:?}"),
        }
    }

    #[test]
    fn manifest_corruption_rejects_typed() {
        // A manifest request carries trailing garbage: rejected.
        let sealed = frame(FRAME_MANIFEST_REQUEST, 9, |w| {
            w.u8(0xAA);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            decode_frame(&sealed),
            Err(WireError::TrailingBytes(1)),
            "a manifest request's payload must be empty"
        );
        // An unknown entry-kind tag rejects typed. The body is padded to
        // one full entry width so the pre-allocation truncation guard
        // passes and the tag itself is what gets judged.
        let sealed = frame(FRAME_MANIFEST_REPLY, 9, |w| {
            w.u32(1);
            w.u8(9); // neither snapshot (1) nor model (2)
            w.buf.extend_from_slice(&[0u8; 13]);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            decode_frame(&sealed),
            Err(WireError::UnknownTag {
                what: "manifest-entry-kind",
                tag: 9
            })
        );
        // A count the body cannot hold is truncation, before allocation.
        let sealed = frame(FRAME_MANIFEST_REPLY, 9, |w| {
            w.u32(1000);
            Ok(())
        })
        .unwrap();
        assert_eq!(decode_frame(&sealed), Err(WireError::Truncated));
        // A count above the cap rejects typed on both ends.
        let sealed = frame(FRAME_MANIFEST_REPLY, 9, |w| {
            w.u32((MAX_MANIFEST_ENTRIES + 1) as u32);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            decode_frame(&sealed),
            Err(WireError::ListTooLong {
                what: "manifest-entries",
                len: MAX_MANIFEST_ENTRIES + 1,
                max: MAX_MANIFEST_ENTRIES,
            })
        );
        let oversized = WireManifestReply {
            request_id: 9,
            entries: vec![
                WireManifestEntry::Snapshot {
                    benchmark: BenchmarkKind::Sysbench,
                    fingerprint: 0,
                    crc: 0,
                };
                MAX_MANIFEST_ENTRIES + 1
            ],
        };
        assert_eq!(
            encode_manifest_reply(&oversized),
            Err(WireError::ListTooLong {
                what: "manifest-entries",
                len: MAX_MANIFEST_ENTRIES + 1,
                max: MAX_MANIFEST_ENTRIES,
            })
        );
    }
}
