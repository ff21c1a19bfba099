//! Typed requests and responses of the serving front door.
//!
//! An [`EstimateRequest`] names *what* to estimate (a physical plan), *for
//! which deployment* (`benchmark` + the full [`DbEnvironment`] the client
//! runs under) and *how* ([`RequestOptions`]: estimator family, transfer
//! policy, load-shedding, plus an optional deadline). The gateway answers
//! with an [`EstimateResponse`] carrying the prediction and its
//! [`Provenance`] — which model produced it, where the feature snapshot
//! came from ([`SnapshotOrigin`]), and where the time went.

use crate::registry::ModelKey;
use crate::sched::TenantId;
use qcfe_core::pipeline::EstimatorKind;
use qcfe_db::env::EnvFingerprint;
use qcfe_db::plan::PlanNode;
use qcfe_db::DbEnvironment;
use qcfe_workloads::BenchmarkKind;
use std::sync::Arc;
use std::time::Duration;

/// Per-request policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOptions {
    /// Which estimator family serves the request.
    pub estimator: EstimatorKind,
    /// Whether an unseen environment may warm-start from the nearest
    /// persisted fingerprint (the paper's snapshot-transfer workflow).
    /// With transfer disabled, QCFE estimators fail fast with
    /// [`crate::QcfeError::SnapshotMissing`] instead.
    pub allow_transfer: bool,
    /// `true` submits open-loop: a full shard queue fails the request with
    /// [`crate::service::ServiceError::QueueFull`] instead of blocking.
    pub shed_load: bool,
    /// The tenant the request is accounted to. Defaults to
    /// [`TenantId::ANONYMOUS`], under which all pre-scheduling callers
    /// run. With a `GatewayBuilder::scheduling` policy in force, the
    /// tenant selects the admission quota and the per-tenant metric lane.
    pub tenant: TenantId,
}

impl Default for RequestOptions {
    fn default() -> Self {
        RequestOptions {
            estimator: EstimatorKind::QcfeMscn,
            allow_transfer: true,
            shed_load: false,
            tenant: TenantId::ANONYMOUS,
        }
    }
}

/// One typed estimation request.
#[derive(Debug, Clone)]
pub struct EstimateRequest {
    /// The benchmark/schema the plan belongs to.
    pub benchmark: BenchmarkKind,
    /// The complete environment the client runs under. The gateway derives
    /// the routing fingerprint and — for unseen environments — the
    /// knob vector used for nearest-fingerprint transfer from it. Shared
    /// via `Arc` so steady-state clients re-submit their environment
    /// without deep-cloning knobs and hardware per request.
    pub environment: Arc<DbEnvironment>,
    /// The physical plan to estimate.
    pub plan: PlanNode,
    /// Optional end-to-end deadline. When it elapses before the estimate
    /// is produced, the request fails with
    /// [`crate::QcfeError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Policy knobs.
    pub options: RequestOptions,
}

impl EstimateRequest {
    /// A request with default options and no deadline. Accepts either an
    /// owned [`DbEnvironment`] or a pre-shared `Arc<DbEnvironment>` — hot
    /// loops should build the `Arc` once and clone the pointer per request.
    pub fn new(
        benchmark: BenchmarkKind,
        environment: impl Into<Arc<DbEnvironment>>,
        plan: PlanNode,
    ) -> Self {
        EstimateRequest {
            benchmark,
            environment: environment.into(),
            plan,
            deadline: None,
            options: RequestOptions::default(),
        }
    }

    /// Set the estimator family.
    pub fn with_estimator(mut self, estimator: EstimatorKind) -> Self {
        self.options.estimator = estimator;
        self
    }

    /// Set the end-to-end deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Account the request to a tenant (admission quota + metric lane).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.options.tenant = tenant;
        self
    }

    /// Replace the full option set.
    pub fn with_options(mut self, options: RequestOptions) -> Self {
        self.options = options;
        self
    }
}

/// Where the serving snapshot behind a response came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SnapshotOrigin {
    /// The snapshot was persisted under the request's own fingerprint —
    /// this environment was profiled (or published) here.
    TrainedHere,
    /// The environment was unseen; the shard warm-started from the nearest
    /// persisted fingerprint.
    Transferred {
        /// The fingerprint the snapshot was transferred from.
        source: EnvFingerprint,
        /// Knob-vector distance between the request's environment and the
        /// source environment.
        distance: f64,
    },
    /// The shard's serving state was restored from persisted `QCFW` model
    /// weights (plus the fingerprint's own snapshot, when the estimator
    /// needs one) — a cold-restarted gateway answering *without
    /// retraining*. Estimates are bit-identical to the pre-restart model.
    /// When the snapshot itself was transferred from a neighbour, the
    /// origin stays [`SnapshotOrigin::Transferred`] (preserving its
    /// observables) and the disk load is reported through
    /// [`Provenance::model_from_disk`] instead.
    LoadedFromDisk,
    /// The shard serves without a snapshot (non-QCFE baselines only).
    None,
}

impl SnapshotOrigin {
    /// Whether the snapshot was transferred from another fingerprint.
    pub fn is_transferred(&self) -> bool {
        matches!(self, SnapshotOrigin::Transferred { .. })
    }

    /// Whether the shard's model weights were reloaded from disk instead of
    /// trained (or registered) in this process.
    pub fn is_from_disk(&self) -> bool {
        matches!(self, SnapshotOrigin::LoadedFromDisk)
    }
}

/// How a response was produced.
///
/// The snapshot provenance (`snapshot_origin`, `refined`) is read from the
/// shard when the reply is consumed. A refit landing *concurrently* with an
/// in-flight request can therefore label that one response with the
/// neighbouring snapshot generation (the estimate itself is never torn —
/// each inference batch runs entirely under one snapshot). Once a caller
/// has observed the promoted provenance, it never regresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Provenance {
    /// The serving key — benchmark, estimator family and environment
    /// fingerprint — that answered.
    pub model_key: ModelKey,
    /// Where the shard's feature snapshot came from.
    pub snapshot_origin: SnapshotOrigin,
    /// Whether the shard's model weights were restored from a persisted
    /// `QCFW` sidecar. Carried separately from [`SnapshotOrigin`] so a
    /// transferred snapshot keeps its `source`/`distance` observables even
    /// when the model came from disk (in that combination
    /// `snapshot_origin` stays [`SnapshotOrigin::Transferred`] and this
    /// flag records the disk load).
    pub model_from_disk: bool,
    /// Whether the serving snapshot has been refined online from this
    /// environment's own observed labels
    /// ([`crate::QcfeGateway::record_execution`]): set when a resident
    /// shard's snapshot was refit and swapped live, and restored across
    /// restarts from the persisted snapshot's
    /// [`qcfe_core::snapshot::FeatureSnapshot::refined`] bit. A promoted
    /// shard reports `TrainedHere` + `refined = true` — the completed
    /// Table VII loop.
    pub refined: bool,
    /// Whether this request started the shard (cold start) rather than
    /// reusing a running one.
    pub cold_start: bool,
    /// Microseconds from shard submission until this reply was consumed:
    /// queue wait plus batched inference.
    pub service_us: u64,
    /// Microseconds end-to-end inside the gateway, including routing and
    /// any cold-start work.
    pub total_us: u64,
}

/// One answered estimation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateResponse {
    /// Predicted query latency in milliseconds.
    pub cost_ms: f64,
    /// Size of the micro-batch the request was served in.
    pub batch_size: usize,
    /// Whether the plan encoding came from the shard's encoding cache.
    pub encoding_cache_hit: bool,
    /// How the estimate was produced.
    pub provenance: Provenance,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcfe_db::plan::PhysicalOp;

    fn plan() -> PlanNode {
        PlanNode::new(PhysicalOp::SeqScan { table: "t".into() }, vec![])
    }

    #[test]
    fn request_builders_compose() {
        let request =
            EstimateRequest::new(BenchmarkKind::Sysbench, DbEnvironment::reference(), plan())
                .with_estimator(EstimatorKind::Pgsql)
                .with_deadline(Duration::from_millis(5));
        assert_eq!(request.options.estimator, EstimatorKind::Pgsql);
        assert_eq!(request.deadline, Some(Duration::from_millis(5)));
        assert!(request.options.allow_transfer, "defaults preserved");
        assert!(!request.options.shed_load);

        let strict = request.with_options(RequestOptions {
            estimator: EstimatorKind::QcfeMscn,
            allow_transfer: false,
            shed_load: true,
            ..RequestOptions::default()
        });
        assert!(!strict.options.allow_transfer);
        assert!(strict.options.shed_load);
        assert!(strict.options.tenant.is_anonymous(), "default tenant");

        let tenanted = strict.with_tenant(TenantId(7));
        assert_eq!(tenanted.options.tenant, TenantId(7));
    }

    #[test]
    fn snapshot_origin_classification() {
        assert!(!SnapshotOrigin::TrainedHere.is_transferred());
        assert!(!SnapshotOrigin::None.is_transferred());
        assert!(SnapshotOrigin::Transferred {
            source: EnvFingerprint(7),
            distance: 0.25
        }
        .is_transferred());
    }
}
