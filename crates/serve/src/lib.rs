//! # qcfe-serve — the online cost-estimation service layer
//!
//! The QCFE paper frames snapshot-based cost estimation as something a
//! *running database* consults per query, across many concurrent
//! environments — each `(benchmark, knob configuration)` pair with its own
//! feature snapshot and trained estimator. This crate's front door is the
//! [`gateway::QcfeGateway`]: one routed, typed API that owns the
//! persistence, the model registry and a shard of per-environment
//! inference services, so callers submit requests instead of wiring
//! infrastructure.
//!
//! * [`gateway::QcfeGateway`] (built via [`gateway::GatewayBuilder`]) —
//!   routes a typed [`request::EstimateRequest`] to a lazily-started
//!   per-`(benchmark, estimator, fingerprint)` shard, warm-starts unseen
//!   environments from the nearest persisted fingerprint in knob-vector
//!   space (the paper's Table VII snapshot-transfer workflow, online),
//!   retires idle shards under an LRU cap, and answers with an
//!   [`request::EstimateResponse`] carrying full provenance.
//! * [`gateway::QcfeGateway::record_execution`] + [`refine`] — the online
//!   refinement loop: observed executions stream labels into bounded
//!   per-shard buffers; accumulating past the refit threshold refits the
//!   shard's snapshot from its own labels, persists it, swaps it into the
//!   running service without a restart, and promotes a transferred shard's
//!   provenance `Transferred → TrainedHere` (the paper's full Table VII
//!   transfer loop, online).
//! * [`error::QcfeError`] — the one error taxonomy every fallible gateway
//!   operation returns; [`service::ServiceError`] and [`store::StoreError`]
//!   convert into it via `From`.
//! * [`store::SnapshotStore`] — feature snapshots persisted to disk in the
//!   versioned `QCFS` binary codec, keyed by the
//!   [`qcfe_db::EnvFingerprint`], with knob-vector sidecars (`QVEC`) that
//!   make fingerprints searchable for nearest-neighbour transfer, and
//!   model-weight sidecars (`QCFW`) that persist trained estimators
//!   bit-exactly so a restarted node serves without retraining.
//! * [`registry::ModelRegistry`] — trained estimators behind
//!   `Arc<dyn CostModel + Send + Sync>` keyed by
//!   `(benchmark, estimator, fingerprint)`, with LRU eviction bounding
//!   resident models and an installable loader that lazily reloads
//!   evicted models from the store's `QCFW` sidecars
//!   (load-before-rebuild).
//! * [`service::EstimationService`] — a worker-thread pool draining a
//!   bounded request queue with **micro-batched inference**: every plan's
//!   `PlanEncoding` comes from an LRU plan-encoding cache or
//!   `CostModel::encode_plan`, and each drained batch is one
//!   `CostModel::predict_encoded` call (the per-shard engine behind the
//!   gateway; still usable standalone).
//! * [`sched`] — multi-tenant admission control and deadline-aware batch
//!   formation between submission and the workers, configured via
//!   [`gateway::GatewayBuilder::scheduling`]. The pipeline is
//!   **admission → EDF → batch**: (1) *admission* — every request carries
//!   a [`sched::TenantId`] ([`sched::TenantId::ANONYMOUS`] by default, so
//!   single-tenant callers are untouched) checked against its tenant's
//!   token-bucket rate and bounded queue share; over-quota and
//!   exhausted-deadline submissions are rejected immediately with the
//!   typed, depth-and-limit-carrying [`service::ServiceError::QueueFull`]
//!   / [`error::QcfeError::DeadlineExceeded`], never parked; (2) *EDF* —
//!   admitted requests queue earliest-deadline-first (deadline-less
//!   requests sort last, FIFO among themselves, and age into the front
//!   after [`sched::SchedPolicy::age_after`] so they cannot starve);
//!   entries whose deadline passes while queued are dropped at pop with
//!   the typed fault instead of wasting inference; (3) *batch* — workers
//!   drain up to `max_batch` entries in that order into one batched
//!   inference call. The default policy is disabled: plain FIFO,
//!   bit-for-bit the pre-scheduling service.
//! * [`metrics::ServiceMetrics`] — lock-free throughput, latency
//!   percentiles, queue depth, batch sizes and cache hit rate, surfaced
//!   per shard via [`gateway::QcfeGateway::shard_metrics`]; with
//!   scheduling on, per-tenant [`metrics::TenantLane`]s (admitted,
//!   shed_quota, shed_deadline, batches_formed, queue-wait percentiles)
//!   make fairness measurable rather than asserted.
//! * [`replica`] — replicated serving across a static peer set:
//!   rendezvous (HRW) shard placement over `(benchmark, estimator,
//!   fingerprint)` keys with an advisory liveness mask
//!   ([`replica::ReplicaSet`]), and fire-and-forget state shipping
//!   ([`replica::ShipEvent`] through a [`replica::ReplicationSink`]) of
//!   the exact persisted `QCFS`/`QCFW` bytes on every publish and refit,
//!   so surviving peers can absorb a dead peer's shards bit-identically
//!   ([`gateway::QcfeGateway::apply_shipped_snapshot`] /
//!   [`gateway::QcfeGateway::apply_shipped_model`]). Revival is
//!   anti-entropic: a peer seen dead→alive parks in a *reviving* state
//!   (excluded from placement) while the observer diffs store manifests
//!   ([`store::SnapshotStore::manifest`]) and re-ships divergent keys,
//!   promoting it back only once the diff drains. The network layer
//!   (`qcfe-net`) provides the QCFP transport and failover routing.
//!
//! ## Quick start
//!
//! ```no_run
//! use qcfe_serve::prelude::*;
//! use qcfe_core::pipeline::{prepare_context, ContextConfig, EstimatorKind};
//! use qcfe_core::estimators::MscnEstimator;
//! use qcfe_core::encoding::FeatureEncoder;
//! use qcfe_workloads::BenchmarkKind;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! // Train once …
//! let kind = BenchmarkKind::Sysbench;
//! let ctx = prepare_context(kind, &ContextConfig::quick(kind));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
//! let (model, _) =
//!     MscnEstimator::train(encoder, &ctx.workload, Some(&ctx.snapshots_fso), None, 30, &mut rng);
//!
//! // … build the gateway, publish the environment, register the model …
//! let env = ctx.workload.environments[0].clone();
//! let snapshot = ctx.snapshots_fso[0].clone().unwrap();
//! let gateway = QcfeGateway::builder("target/snapshots").build().unwrap();
//! gateway.publish_snapshot(kind, &env, &snapshot).unwrap();
//! let key = ModelKey::new(kind, EstimatorKind::QcfeMscn, env.fingerprint());
//! gateway.register_model(key, Arc::new(model));
//!
//! // … and serve typed requests from any number of client threads.
//! # let plan: qcfe_db::plan::PlanNode = unimplemented!();
//! let response = gateway
//!     .estimate(EstimateRequest::new(kind, env, plan))
//!     .unwrap();
//! println!("{} ms via {:?}", response.cost_ms, response.provenance.snapshot_origin);
//! ```

pub mod error;
pub mod gateway;
pub mod lru;
pub mod metrics;
pub mod refine;
pub mod registry;
pub mod replica;
pub mod request;
pub mod sched;
pub mod service;
pub mod store;
#[cfg(test)]
mod test_support;

pub use error::QcfeError;
pub use gateway::{
    GatewayBuilder, GatewayStats, ModelProvider, PendingResponse, QcfeGateway, Rejected,
};
pub use lru::LruCache;
pub use metrics::TenantLane;
pub use metrics::{MetricsSnapshot, ReplicationHealth, ServiceMetrics};
pub use refine::{FeedbackOutcome, LabelBuffer, RefinementConfig};
pub use registry::{
    EvictedModel, ModelKey, ModelLoader, ModelRegistry, ModelSource, RegistryStats, ResolvedModel,
};
pub use replica::{ReplicaError, ReplicaSet, ReplicationSink, ShipEvent};
pub use request::{EstimateRequest, EstimateResponse, Provenance, RequestOptions, SnapshotOrigin};
pub use sched::{SchedPolicy, TenantId, TenantQuota};
pub use service::{
    plan_key, CompletionNotify, Estimate, EstimationService, PendingEstimate, ServiceConfig,
    ServiceError, ServiceHandle,
};
pub use store::{ManifestEntry, SnapshotStore, StoreError};

/// Convenient glob import for downstream crates, benches and examples.
pub mod prelude {
    pub use crate::error::QcfeError;
    pub use crate::gateway::{GatewayBuilder, GatewayStats, PendingResponse, QcfeGateway};
    pub use crate::metrics::{MetricsSnapshot, ReplicationHealth, TenantLane};
    pub use crate::refine::{FeedbackOutcome, RefinementConfig};
    pub use crate::registry::{ModelKey, ModelRegistry};
    pub use crate::replica::{ReplicaSet, ReplicationSink, ShipEvent};
    pub use crate::request::{
        EstimateRequest, EstimateResponse, Provenance, RequestOptions, SnapshotOrigin,
    };
    pub use crate::sched::{SchedPolicy, TenantId, TenantQuota};
    pub use crate::service::{
        Estimate, EstimationService, ServiceConfig, ServiceError, ServiceHandle,
    };
    pub use crate::store::{ManifestEntry, SnapshotStore};
}
