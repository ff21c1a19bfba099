//! The serving front door: one routed, typed gateway over every
//! environment.
//!
//! The paper's deployment story is many concurrent environments — each
//! `(benchmark, knob configuration)` pair has its own feature snapshot and
//! trained estimator. [`QcfeGateway`] turns that story into one object:
//! clients submit a typed [`EstimateRequest`] naming their benchmark and
//! full [`DbEnvironment`], and the gateway
//!
//! 1. **routes** the request to a *shard* — a lazily-started
//!    [`EstimationService`] keyed by `(benchmark, estimator, environment
//!    fingerprint)`, started on first use and retired least-recently-used
//!    when the shard cap is exceeded;
//! 2. **resolves the snapshot**: a fingerprint seen before loads its own
//!    persisted snapshot ([`SnapshotOrigin::TrainedHere`]); an unseen
//!    fingerprint warm-starts from the *nearest* persisted neighbour in
//!    knob-vector space ([`SnapshotOrigin::Transferred`] — the paper's
//!    Table VII snapshot-transfer workflow, online);
//! 3. **resolves the model** from the owned [`ModelRegistry`], falling
//!    back to the store's persisted `QCFW` weight sidecar
//!    (load-before-rebuild: a cold-restarted gateway answers from disk
//!    with provenance [`SnapshotOrigin::LoadedFromDisk`], bit-identical
//!    and without retraining), then to the builder-supplied model
//!    provider (and, for the analytical `PGSQL` baseline, to the built-in
//!    stateless estimator);
//! 4. answers with an [`EstimateResponse`] whose [`Provenance`] records
//!    the serving key, the snapshot origin, whether the shard was
//!    cold-started and where the microseconds went.
//!
//! # The refinement lifecycle: `Transferred` → refit → `TrainedHere`
//!
//! Snapshot transfer is only the first half of the paper's Table VII loop:
//! a shard that warm-started from a neighbour's snapshot serves *borrowed*
//! coefficients, and should graduate to its own once the environment has
//! executed enough queries. [`QcfeGateway::record_execution`] closes that
//! loop online:
//!
//! 1. **feedback** — clients report each observed execution (a plan
//!    annotated with actual rows and timings); the gateway extracts its
//!    [`qcfe_core::snapshot::OperatorSample`]s and routes them to every
//!    resident shard of the `(benchmark, fingerprint)`, which accumulates
//!    them in a bounded per-shard [`crate::refine::LabelBuffer`];
//! 2. **refit** — once [`crate::refine::RefinementConfig::refit_threshold`]
//!    samples accumulate, the shard's current snapshot is refit from its
//!    own labels ([`FeatureSnapshot::refit_with`]: observed operators get
//!    fresh coefficients, uncovered ones keep the warm-start's). At most
//!    one refit runs per trigger, even under concurrent feedback writers;
//! 3. **persist, then swap** — the refit snapshot (marked
//!    [`FeatureSnapshot::refined`]) is appended to the key's snapshot log
//!    *first* (one CRC-framed record per refit; see [`crate::store`]),
//!    then swapped into the running [`EstimationService`] without a restart
//!    ([`ServiceHandle::install_snapshot`]; in-flight batches finish under
//!    the old snapshot, later batches use the new one — never a mixture),
//!    so persisted state is always at least as fresh as served state and a
//!    restart reloads the refit bit-identically (provenance
//!    [`SnapshotOrigin::LoadedFromDisk`] + [`Provenance::refined`]);
//! 4. **promotion** — a shard serving a transferred snapshot flips its
//!    provenance `Transferred { source, distance }` → `TrainedHere`,
//!    exactly once and never backwards; [`Provenance::refined`] and
//!    [`GatewayStats`]`::{refits, promotions}` make the lifecycle
//!    observable.
//!
//! Construction goes through [`GatewayBuilder`]; every failure is a
//! [`QcfeError`].

use crate::error::QcfeError;
use crate::metrics::{MetricsSnapshot, ReplicationHealth, TenantLane};
use crate::refine::{FeedbackOutcome, LabelBuffer, RefinementConfig};
use crate::registry::{EvictedModel, ModelKey, ModelRegistry, ModelSource, RegistryStats};
use crate::replica::{ReplicaSet, ReplicationSink, ShipEvent};
use crate::request::{
    EstimateRequest, EstimateResponse, Provenance, RequestOptions, SnapshotOrigin,
};
use crate::sched::{SchedPolicy, TenantId};
use crate::service::{
    BatchJob, CompletionNotify, EstimationService, PendingEstimate, ServiceConfig, ServiceHandle,
    SubmitSpec,
};
use crate::store::{SnapshotStore, StoreError};
use crate::LruCache;
use qcfe_core::cost_model::CostModel;
use qcfe_core::estimators::PgEstimator;
use qcfe_core::model_codec::PersistedModel;
use qcfe_core::pipeline::EstimatorKind;
use qcfe_core::snapshot::{operator_samples, FeatureSnapshot, OperatorSample};
use qcfe_db::executor::ExecutedQuery;
use qcfe_db::{DbEnvironment, EnvFingerprint};
use qcfe_workloads::BenchmarkKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A model provider: called on a registry miss with the serving key and
/// the already-resolved snapshot, it returns a model to register (train,
/// load from disk, …) or `None` when it cannot supply one.
pub type ModelProvider =
    dyn Fn(&ModelKey, Option<&FeatureSnapshot>) -> Option<Arc<dyn CostModel>> + Send + Sync;

/// One running shard: a per-`(benchmark, estimator, fingerprint)`
/// estimation service plus the provenance of the snapshot it serves under.
///
/// Shards are shared as `Arc`s between the routing map and in-flight
/// requests; retiring a shard only drops the map's reference, so requests
/// already holding it finish normally and the service shuts down when the
/// last reference goes away.
struct Shard {
    handle: ServiceHandle,
    /// The snapshot provenance, mutable because online refinement promotes
    /// it (`Transferred` → `TrainedHere`, `refined` → true). One mutex
    /// keeps the pair coherent: a reader sees either the pre-promotion or
    /// the post-promotion state, never a torn mixture.
    provenance: Mutex<ShardProvenance>,
    /// Whether the shard's model weights came from a persisted `QCFW`
    /// sidecar (surfaced as [`Provenance::model_from_disk`]).
    model_from_disk: bool,
    /// Online-refinement state: the label window plus the single-refitter
    /// guard.
    refinement: ShardRefinement,
    /// Owns the worker pool; kept only for its `Drop` (shutdown + join).
    _service: EstimationService,
}

/// The mutable half of a shard's provenance (see [`Shard::provenance`]).
#[derive(Debug, Clone, Copy)]
struct ShardProvenance {
    origin: SnapshotOrigin,
    refined: bool,
}

/// Per-shard refinement state.
struct ShardRefinement {
    /// Observed labels awaiting (or retained across) refits.
    buffer: Mutex<LabelBuffer>,
    /// Held by the one feedback thread performing a triggered refit;
    /// losers of the compare-exchange skip, so a trigger refits at most
    /// once no matter how many writers race on it.
    refitting: AtomicBool,
}

impl ShardRefinement {
    fn new(buffer_capacity: usize) -> Self {
        ShardRefinement {
            buffer: Mutex::new(LabelBuffer::new(buffer_capacity)),
            refitting: AtomicBool::new(false),
        }
    }
}

impl Shard {
    /// A coherent copy of the shard's current provenance pair.
    fn read_provenance(&self) -> ShardProvenance {
        *self.provenance.lock().expect("shard provenance poisoned")
    }
}

/// Monotonic gateway counters (all relaxed atomics; read via
/// [`QcfeGateway::stats`]).
#[derive(Debug, Default)]
struct GatewayCounters {
    requests: AtomicU64,
    shard_starts: AtomicU64,
    shard_retirements: AtomicU64,
    snapshot_transfers: AtomicU64,
    model_evictions: AtomicU64,
    model_loads: AtomicU64,
    /// Incremented by the registry's disk loader (the closure holds its
    /// own `Arc` to this struct).
    model_load_failures: AtomicU64,
    labels_recorded: AtomicU64,
    refits: AtomicU64,
    promotions: AtomicU64,
    ships_emitted: AtomicU64,
    ships_applied: AtomicU64,
}

/// A point-in-time view of the gateway's routing activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayStats {
    /// Estimation requests accepted (including failed ones).
    pub requests: u64,
    /// Shards started (cold starts).
    pub shard_starts: u64,
    /// Currently resident shards.
    pub shards_resident: usize,
    /// Shards retired, by the LRU cap or by a model registered under a
    /// running shard's key.
    pub shard_retirements: u64,
    /// Shard starts that warm-started from a transferred snapshot.
    pub snapshot_transfers: u64,
    /// Models evicted from the registry, as observed through
    /// [`ModelRegistry::insert`]'s return value.
    pub model_evictions: u64,
    /// Shard starts whose model came back from persisted `QCFW` weights
    /// instead of the registry, a provider or a rebuild.
    pub model_loads: u64,
    /// Weight-sidecar loads that failed (corrupt or unreadable `QCFW`
    /// files; each one is quarantined as `<name>.corrupt` and the request
    /// falls through to the model provider). A nonzero value means
    /// persistence is broken for some key and restarts are silently paying
    /// for retraining.
    pub model_load_failures: u64,
    /// Observed operator samples routed to resident shards through
    /// [`QcfeGateway::record_execution`].
    pub labels_recorded: u64,
    /// Online refits performed: a shard's snapshot fitted from its own
    /// observed labels, persisted, and swapped into the running service.
    pub refits: u64,
    /// `Transferred → TrainedHere` provenance promotions — completed
    /// Table VII transfer loops. At most one per shard start, never
    /// reversed.
    pub promotions: u64,
    /// Replication events handed to the configured
    /// [`ReplicationSink`] (published snapshots and models plus
    /// online refits). Zero when replication is not configured.
    pub ships_emitted: u64,
    /// Shipped peer states absorbed through
    /// [`QcfeGateway::apply_shipped_snapshot`] /
    /// [`QcfeGateway::apply_shipped_model`] — each one persisted through
    /// the same codecs the shipping peer wrote, so the absorbed state is
    /// bit-identical or rejected typed.
    pub ships_applied: u64,
    /// The replication sink's own health: ship outcomes, drops (silent
    /// replication loss an operator must be able to see), probe failures
    /// and revival catch-up counters. All zeros when replication is not
    /// configured or the sink does not report (e.g. a plain test sink).
    pub replication: ReplicationHealth,
    /// The owned model registry's lookup/eviction statistics.
    pub registry: RegistryStats,
    /// Per-tenant scheduling lanes aggregated across every resident shard
    /// (counters summed; queue-wait percentiles re-quantiled from the
    /// bucket-wise sum of the shards' wait histograms via
    /// [`TenantLane::merge_from`], so a tenant's pooled p50 reflects all
    /// of its waits rather than the worst shard's), sorted by tenant id.
    /// Empty until a non-anonymous tenant submits or a
    /// [`GatewayBuilder::scheduling`] policy is enabled.
    pub tenants: Vec<TenantLane>,
}

/// Builder for [`QcfeGateway`] — the replacement for hand-wiring
/// [`SnapshotStore`], [`ModelRegistry`] and per-environment
/// [`EstimationService`]s in every caller.
pub struct GatewayBuilder {
    root: PathBuf,
    service_config: ServiceConfig,
    sched: SchedPolicy,
    refinement: RefinementConfig,
    registry_capacity: usize,
    max_shards: usize,
    model_provider: Option<Arc<ModelProvider>>,
    preregistered: Vec<(ModelKey, Arc<dyn CostModel>)>,
    replicas: Option<Arc<ReplicaSet>>,
    ship_sink: Option<Arc<dyn ReplicationSink>>,
}

impl GatewayBuilder {
    /// Start building a gateway whose snapshot store lives at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        GatewayBuilder {
            root: root.into(),
            service_config: ServiceConfig::default(),
            sched: SchedPolicy::default(),
            refinement: RefinementConfig::default(),
            registry_capacity: 64,
            max_shards: 16,
            model_provider: None,
            preregistered: Vec::new(),
            replicas: None,
            ship_sink: None,
        }
    }

    /// Configuration applied to every shard's estimation service.
    pub fn service_config(mut self, config: ServiceConfig) -> Self {
        self.service_config = config;
        self
    }

    /// Scheduling policy applied to every shard's estimation service:
    /// per-tenant admission quotas and earliest-deadline-first micro-batch
    /// formation (see [`crate::sched`]). The default
    /// ([`SchedPolicy::fifo`]) keeps the pre-scheduling FIFO behaviour
    /// bit-for-bit, so existing single-tenant callers are untouched.
    pub fn scheduling(mut self, policy: SchedPolicy) -> Self {
        self.sched = policy;
        self
    }

    /// Online-refinement policy applied to every shard (refit threshold,
    /// label-window size). See
    /// [`QcfeGateway::record_execution`].
    pub fn refinement(mut self, config: RefinementConfig) -> Self {
        self.refinement = config;
        self
    }

    /// Capacity of the owned model registry (LRU-bounded, minimum 1).
    pub fn registry_capacity(mut self, capacity: usize) -> Self {
        self.registry_capacity = capacity.max(1);
        self
    }

    /// Maximum concurrently running shards (minimum 1). Exceeding the cap
    /// retires the least-recently-used shard; its in-flight requests
    /// complete and the next request for that fingerprint cold-starts it
    /// again.
    pub fn max_shards(mut self, max_shards: usize) -> Self {
        self.max_shards = max_shards.max(1);
        self
    }

    /// Install a model provider consulted on registry misses (e.g. a
    /// trainer, or a loader for persisted weights).
    pub fn model_provider<F>(mut self, provider: F) -> Self
    where
        F: Fn(&ModelKey, Option<&FeatureSnapshot>) -> Option<Arc<dyn CostModel>>
            + Send
            + Sync
            + 'static,
    {
        self.model_provider = Some(Arc::new(provider));
        self
    }

    /// Pre-register a model under its serving key.
    pub fn with_model(mut self, key: ModelKey, model: Arc<dyn CostModel>) -> Self {
        self.preregistered.push((key, model));
        self
    }

    /// Join a replica set: `replicas` is this node's view of the static
    /// peer set (rendezvous placement + liveness mask), `sink` receives a
    /// [`ShipEvent`] for every snapshot/model publish and every online
    /// refit — the exact persisted `QCFS`/`QCFW` bytes, fire-and-forget,
    /// so peers can absorb this node's shards bit-identically if it dies.
    /// Shipping is strictly after the local persist (the same
    /// persist-before-swap anchor refinement uses), so a shipped state is
    /// never ahead of the shipper's disk.
    pub fn replication(
        mut self,
        replicas: Arc<ReplicaSet>,
        sink: Arc<dyn ReplicationSink>,
    ) -> Self {
        self.replicas = Some(replicas);
        self.ship_sink = Some(sink);
        self
    }

    /// Open the snapshot store and assemble the gateway.
    ///
    /// The owned registry gets a default disk-backed loader over the
    /// store's `QCFW` weight sidecars: any registry miss first tries
    /// [`SnapshotStore::load_model`], so a cold-restarted gateway answers
    /// from persisted weights (provenance
    /// [`SnapshotOrigin::LoadedFromDisk`]) instead of demanding a retrain.
    /// An unreadable or corrupt weight file degrades to a miss and falls
    /// through to the builder's model provider.
    pub fn build(self) -> Result<QcfeGateway, QcfeError> {
        let store = SnapshotStore::open(self.root)?;
        let mut registry = ModelRegistry::new(self.registry_capacity);
        let counters = Arc::new(GatewayCounters::default());
        let loader_store = store.clone();
        let loader_counters = Arc::clone(&counters);
        registry.set_loader(move |key: &ModelKey| {
            match loader_store.load_model(key.benchmark, key.estimator, key.fingerprint) {
                Ok(model) => model.map(PersistedModel::into_cost_model),
                Err(_) => {
                    // Corrupt or unreadable weights: count the failure
                    // (surfaced via GatewayStats::model_load_failures) and
                    // quarantine the file — re-verified before the rename,
                    // so a concurrent republish survives — letting later
                    // restarts see a clean miss instead of silently
                    // retrying a doomed decode.
                    loader_counters
                        .model_load_failures
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = loader_store.quarantine_model(
                        key.benchmark,
                        key.estimator,
                        key.fingerprint,
                    );
                    None
                }
            }
        });
        let gateway = QcfeGateway {
            store,
            registry,
            shards: Mutex::new(LruCache::new(self.max_shards)),
            service_config: self.service_config,
            sched: self.sched,
            refinement: self.refinement.normalized(),
            model_provider: self.model_provider,
            counters,
            replicas: self.replicas,
            ship_sink: self.ship_sink,
        };
        for (key, model) in self.preregistered {
            gateway.register_model(key, model);
        }
        Ok(gateway)
    }
}

/// The routed, typed front door for online cost estimation. See the
/// [module docs](self) for the full routing story.
pub struct QcfeGateway {
    store: SnapshotStore,
    registry: ModelRegistry,
    shards: Mutex<LruCache<ModelKey, Arc<Shard>>>,
    service_config: ServiceConfig,
    sched: SchedPolicy,
    refinement: RefinementConfig,
    model_provider: Option<Arc<ModelProvider>>,
    counters: Arc<GatewayCounters>,
    replicas: Option<Arc<ReplicaSet>>,
    ship_sink: Option<Arc<dyn ReplicationSink>>,
}

impl std::fmt::Debug for QcfeGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("QcfeGateway")
            .field("store_root", &self.store.root())
            .field("shards_resident", &stats.shards_resident)
            .field("shard_starts", &stats.shard_starts)
            .field("requests", &stats.requests)
            .finish()
    }
}

impl QcfeGateway {
    /// Start building a gateway rooted at `root`.
    pub fn builder(root: impl Into<PathBuf>) -> GatewayBuilder {
        GatewayBuilder::new(root)
    }

    /// Estimate one plan. Routes to the environment's shard (starting or
    /// warm-starting it if needed), submits, and returns the prediction
    /// with full [`Provenance`]. A deadline bounds the wait itself: the
    /// call returns [`QcfeError::DeadlineExceeded`] as soon as the deadline
    /// fires, even while the shard is still working (the in-flight reply is
    /// discarded).
    pub fn estimate(&self, request: EstimateRequest) -> Result<EstimateResponse, QcfeError> {
        self.submit(request)?.wait()
    }

    /// Submit one plan without waiting for the answer: the non-blocking
    /// half of [`QcfeGateway::estimate`]. Routing, snapshot/model
    /// resolution and admission run synchronously (a cold start still
    /// pays its resolution cost here); the returned [`PendingResponse`]
    /// ticket is then polled with [`PendingResponse::try_wait`] or awaited
    /// with [`PendingResponse::wait`]. Admission follows
    /// `options.shed_load`: open-loop submissions fail fast with
    /// [`crate::service::ServiceError::QueueFull`] instead of blocking.
    pub fn submit(&self, request: EstimateRequest) -> Result<PendingResponse, QcfeError> {
        let started = Instant::now();
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let (key, shard, cold_start, spec) = self.route(&request, started)?;
        let submitted = Instant::now();
        let ticket = shard.handle.submit(request.plan, spec, None)?;
        Ok(PendingResponse {
            ticket,
            shard,
            key,
            cold_start,
            started,
            submitted,
            deadline: request.deadline,
        })
    }

    /// Submit many requests at once, each with an optional
    /// [`CompletionNotify`] hook that fires exactly once when its shard
    /// finishes (or drops) it — the wakeup an event-loop front end pairs
    /// with [`PendingResponse::try_wait`].
    ///
    /// Each request is routed like [`QcfeGateway::submit`], deadline check
    /// included; the routed requests are then grouped by shard, and each
    /// shard admits its share under one queue lock with one worker wake-up
    /// per micro-batch. The call never blocks: a full queue rejects with
    /// [`crate::service::ServiceError::QueueFull`] whatever
    /// `options.shed_load` says, since a blocked event loop would stall
    /// every connection it multiplexes.
    ///
    /// Results come back in input order. A rejected request comes back
    /// whole in a [`Rejected`], so a caller can park and resubmit it without
    /// cloning it up front. `Provenance::total_us − service_us` of an
    /// admitted request includes the time spent routing the rest of the
    /// batch before its shard call.
    pub fn submit_batch(
        &self,
        requests: Vec<(EstimateRequest, Option<CompletionNotify>)>,
    ) -> Vec<Result<PendingResponse, Box<Rejected>>> {
        /// What a routed request keeps while its plan is in the shard call.
        struct Routed {
            index: usize,
            key: ModelKey,
            cold_start: bool,
            started: Instant,
            benchmark: BenchmarkKind,
            environment: Arc<DbEnvironment>,
            deadline: Option<std::time::Duration>,
            options: RequestOptions,
        }
        let mut results: Vec<Option<Result<PendingResponse, Box<Rejected>>>> =
            requests.iter().map(|_| None).collect();
        let mut groups: Vec<(Arc<Shard>, Vec<Routed>, Vec<BatchJob>)> = Vec::new();
        for (index, (request, notify)) in requests.into_iter().enumerate() {
            let started = Instant::now();
            self.counters.requests.fetch_add(1, Ordering::Relaxed);
            let (key, shard, cold_start, spec) = match self.route(&request, started) {
                Ok(routed) => routed,
                Err(error) => {
                    results[index] = Some(Err(Box::new(Rejected { error, request })));
                    continue;
                }
            };
            let group = match groups.iter().position(|(s, _, _)| Arc::ptr_eq(s, &shard)) {
                Some(group) => group,
                None => {
                    groups.push((shard, Vec::new(), Vec::new()));
                    groups.len() - 1
                }
            };
            let EstimateRequest {
                benchmark,
                environment,
                plan,
                deadline,
                options,
            } = request;
            let (_, routed, jobs) = &mut groups[group];
            routed.push(Routed {
                index,
                key,
                cold_start,
                started,
                benchmark,
                environment,
                deadline,
                options,
            });
            jobs.push((plan, spec, notify));
        }
        for (shard, routed, jobs) in groups {
            let submitted = Instant::now();
            let outcomes = shard.handle.submit_batch(jobs);
            for (meta, outcome) in routed.into_iter().zip(outcomes) {
                results[meta.index] = Some(match outcome {
                    Ok(ticket) => Ok(PendingResponse {
                        ticket,
                        shard: Arc::clone(&shard),
                        key: meta.key,
                        cold_start: meta.cold_start,
                        started: meta.started,
                        submitted,
                        deadline: meta.deadline,
                    }),
                    Err((error, plan)) => Err(Box::new(Rejected {
                        error: error.into(),
                        request: EstimateRequest {
                            benchmark: meta.benchmark,
                            environment: meta.environment,
                            plan,
                            deadline: meta.deadline,
                            options: meta.options,
                        },
                    })),
                });
            }
        }
        results
            .into_iter()
            .map(|result| result.expect("every request is answered"))
            .collect()
    }

    /// Wait for one in-flight reply, bounded by the request deadline:
    /// without one, block until the reply; with one, wait only for the
    /// remaining budget and fail with [`QcfeError::DeadlineExceeded`] when
    /// it runs out (the shard's eventual reply is discarded).
    fn await_ticket(
        ticket: PendingEstimate,
        deadline: Option<std::time::Duration>,
        started: Instant,
    ) -> Result<crate::service::Estimate, QcfeError> {
        match deadline {
            None => Ok(ticket.wait()?),
            Some(deadline) => {
                let remaining = deadline.saturating_sub(started.elapsed());
                match ticket.wait_timeout(remaining)? {
                    Some(estimate) => Ok(estimate),
                    None => Err(QcfeError::DeadlineExceeded {
                        elapsed: started.elapsed(),
                        deadline,
                    }),
                }
            }
        }
    }

    /// Report an observed query execution — the feedback half of the
    /// paper's Table VII transfer loop.
    ///
    /// The executed plan's [`OperatorSample`]s are routed to every resident
    /// shard of `(benchmark, environment.fingerprint())` (all estimator
    /// families), accumulating in each shard's bounded label window. Once a
    /// shard accumulates [`RefinementConfig::refit_threshold`] samples, its
    /// snapshot is refit from its own labels, persisted (one record
    /// appended to the snapshot log, plus the knob vector when it changed —
    /// persisted state always leads served state), swapped into the
    /// running service without a restart, and — for a shard that
    /// warm-started from a transferred snapshot — its provenance is
    /// promoted `Transferred → TrainedHere`, exactly once.
    ///
    /// Returns what the call did ([`FeedbackOutcome`]); `shards == 0` means
    /// no shard of the fingerprint is running and the labels were dropped.
    /// Shards serving without a snapshot (the analytical `PGSQL` baseline)
    /// accumulate nothing.
    pub fn record_execution(
        &self,
        benchmark: BenchmarkKind,
        environment: &DbEnvironment,
        executed: &ExecutedQuery,
    ) -> Result<FeedbackOutcome, QcfeError> {
        let samples = operator_samples(executed);
        let fingerprint = environment.fingerprint();
        // Snapshot the owning shards without touching recency (feedback is
        // not a request) and without holding the routing lock across fits
        // or disk writes.
        let owners: Vec<Arc<Shard>> = {
            let shards = self.shards.lock().expect("shard map poisoned");
            shards
                .keys_by_recency()
                .into_iter()
                .filter(|key| key.benchmark == benchmark && key.fingerprint == fingerprint)
                .filter_map(|key| shards.peek(&key).map(Arc::clone))
                .collect()
        };
        let mut outcome = FeedbackOutcome {
            samples: samples.len(),
            ..FeedbackOutcome::default()
        };
        for shard in owners {
            // A snapshot-free shard has nothing to refine.
            if shard.handle.snapshot().is_none() {
                continue;
            }
            outcome.shards += 1;
            self.counters
                .labels_recorded
                .fetch_add(samples.len() as u64, Ordering::Relaxed);
            self.feed_shard(benchmark, environment, &shard, &samples, &mut outcome)?;
        }
        Ok(outcome)
    }

    /// Accumulate `samples` into one shard's label window and, when the
    /// refit threshold is reached, perform the refit under the shard's
    /// single-refitter guard (a trigger refits at most once; racing
    /// feedback writers skip).
    fn feed_shard(
        &self,
        benchmark: BenchmarkKind,
        environment: &DbEnvironment,
        shard: &Shard,
        samples: &[OperatorSample],
        outcome: &mut FeedbackOutcome,
    ) -> Result<(), QcfeError> {
        let due = {
            let mut buffer = shard
                .refinement
                .buffer
                .lock()
                .expect("label buffer poisoned");
            buffer.push(samples);
            buffer.since_refit() >= self.refinement.refit_threshold
        };
        if !due {
            return Ok(());
        }
        if shard
            .refinement
            .refitting
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Acquire)
            .is_err()
        {
            // Another feedback thread owns this trigger.
            return Ok(());
        }
        let result = self.refit_shard(benchmark, environment, shard, outcome);
        shard.refinement.refitting.store(false, Ordering::Release);
        result
    }

    /// One refit pass: fit the label window against the serving snapshot,
    /// persist, swap live, promote. Runs with the shard's refit guard held.
    fn refit_shard(
        &self,
        benchmark: BenchmarkKind,
        environment: &DbEnvironment,
        shard: &Shard,
        outcome: &mut FeedbackOutcome,
    ) -> Result<(), QcfeError> {
        let labels = {
            let mut buffer = shard
                .refinement
                .buffer
                .lock()
                .expect("label buffer poisoned");
            // Resetting the trigger here (not after the fit) keeps the
            // window sliding while the fit runs; labels arriving mid-refit
            // count toward the *next* trigger.
            buffer.take_window()
        };
        let Some(current) = shard.handle.snapshot() else {
            return Ok(());
        };
        let candidate = current.refit_with(&labels);
        // Persist before swapping: a crash between the two leaves disk
        // *ahead* of the serving state, never behind it, so a restart can
        // only be fresher. The knob vector rides along, making the refined
        // environment a transfer candidate for its own future neighbours.
        self.store.save_env(benchmark, environment, &candidate)?;
        // Shipping reuses the exact bytes just persisted — the QCFS codec
        // IS the replication format — and runs strictly after the local
        // persist, so a peer can never hold state this node's disk lacks.
        self.ship_snapshot(benchmark, environment, &candidate);
        shard.handle.install_snapshot(Some(Arc::new(candidate)));
        self.counters.refits.fetch_add(1, Ordering::Relaxed);
        outcome.refits += 1;
        let mut provenance = shard.provenance.lock().expect("shard provenance poisoned");
        if provenance.origin.is_transferred() {
            // The completed Table VII loop: the shard now serves
            // coefficients fitted from its own environment's labels.
            // Promotion is monotonic — nothing ever assigns `Transferred`
            // back.
            provenance.origin = SnapshotOrigin::TrainedHere;
            self.counters.promotions.fetch_add(1, Ordering::Relaxed);
            outcome.promotions += 1;
        }
        provenance.refined = true;
        Ok(())
    }

    /// Publish an environment: persist its feature snapshot *and* its knob
    /// vector under its fingerprint, making it both directly servable and
    /// a transfer candidate for future unseen environments.
    pub fn publish_snapshot(
        &self,
        benchmark: BenchmarkKind,
        environment: &DbEnvironment,
        snapshot: &FeatureSnapshot,
    ) -> Result<PathBuf, QcfeError> {
        let path = self.store.save_env(benchmark, environment, snapshot)?;
        self.ship_snapshot(benchmark, environment, snapshot);
        Ok(path)
    }

    /// Publish a trained model: persist its weights as a `QCFW` sidecar in
    /// the owned store *and* register it under its serving key. A gateway
    /// rebuilt later on the same store directory reloads the weights on
    /// demand and serves bit-identical estimates without retraining.
    pub fn publish_model(
        &self,
        key: ModelKey,
        model: PersistedModel,
    ) -> Result<PathBuf, QcfeError> {
        let path = self
            .store
            .save_model(key.benchmark, key.estimator, key.fingerprint, &model)?;
        self.ship(ShipEvent::Model {
            key,
            weights: model.to_bytes(),
        });
        self.register_model(key, model.into_cost_model());
        Ok(path)
    }

    /// Register (or replace) a model under its serving key, returning the
    /// entry this insert evicted, if any. Evictions observed here feed
    /// [`GatewayStats::model_evictions`]. A shard already running under the
    /// key is retired, so the next request cold-starts on the new model
    /// instead of serving the one the shard started with.
    pub fn register_model(&self, key: ModelKey, model: Arc<dyn CostModel>) -> Option<EvictedModel> {
        // Registry::insert clears the key's disk-load mark under the
        // registry lock: an in-process registration supersedes any earlier
        // disk load, atomically with the model swap.
        let evicted = self.registry.insert(key, model);
        if evicted.is_some() {
            self.counters
                .model_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
        let retired = self.shards.lock().expect("shard map poisoned").remove(&key);
        // Dropped outside the lock, as in `shard`: the final drop joins the
        // service's worker threads.
        if let Some(shard) = retired {
            self.counters
                .shard_retirements
                .fetch_add(1, Ordering::Relaxed);
            drop(shard);
        }
        evicted
    }

    /// This node's view of the replica set, when replication is
    /// configured via [`GatewayBuilder::replication`].
    pub fn replicas(&self) -> Option<&Arc<ReplicaSet>> {
        self.replicas.as_ref()
    }

    /// Hand a replication event to the configured sink (fire-and-forget;
    /// a no-op without one). Never fails and never blocks serving.
    fn ship(&self, event: ShipEvent) {
        if let Some(sink) = &self.ship_sink {
            self.counters.ships_emitted.fetch_add(1, Ordering::Relaxed);
            sink.ship(event);
        }
    }

    /// Ship an environment's just-persisted snapshot state: the exact
    /// `QCFS` bytes plus the knob vector that makes the fingerprint a
    /// transfer candidate on the receiving peer.
    fn ship_snapshot(
        &self,
        benchmark: BenchmarkKind,
        environment: &DbEnvironment,
        snapshot: &FeatureSnapshot,
    ) {
        if self.ship_sink.is_none() {
            return;
        }
        self.ship(ShipEvent::Snapshot {
            benchmark,
            fingerprint: environment.fingerprint(),
            snapshot: snapshot.to_bytes(),
            knobs: environment.knob_vector(),
        });
    }

    /// Absorb a peer's shipped snapshot state: decode the `QCFS` bytes
    /// through the same codec the shipping peer persisted with (corrupt or
    /// truncated payloads are rejected typed, nothing is written), persist
    /// snapshot + knob vector locally, and swap the snapshot into any
    /// resident shard of the fingerprint so a shard this node is already
    /// serving converges without a restart. Deliberately does **not**
    /// re-ship — publish and refit are the only producers, so shipped
    /// state cannot echo between peers.
    pub fn apply_shipped_snapshot(
        &self,
        benchmark: BenchmarkKind,
        fingerprint: EnvFingerprint,
        snapshot_bytes: &[u8],
        knobs: &[f64],
    ) -> Result<(), QcfeError> {
        let snapshot = FeatureSnapshot::from_bytes(snapshot_bytes).map_err(StoreError::from)?;
        self.store.save(benchmark, fingerprint, &snapshot)?;
        self.store.save_vector(benchmark, fingerprint, knobs)?;
        let residents: Vec<Arc<Shard>> = {
            let shards = self.shards.lock().expect("shard map poisoned");
            shards
                .keys_by_recency()
                .into_iter()
                .filter(|key| key.benchmark == benchmark && key.fingerprint == fingerprint)
                .filter_map(|key| shards.peek(&key).map(Arc::clone))
                .collect()
        };
        if !residents.is_empty() {
            let shared = Arc::new(snapshot);
            for shard in residents {
                shard.handle.install_snapshot(Some(Arc::clone(&shared)));
            }
        }
        self.counters.ships_applied.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Absorb a peer's shipped model weights: decode the `QCFW` bytes
    /// through the persistence codec (checksum-verified — corrupt weights
    /// are rejected typed, nothing is written), persist the sidecar
    /// locally and register the model under its serving key, so this node
    /// serves the peer's estimates bit-identically if the peer dies. Does
    /// not re-ship (see [`QcfeGateway::apply_shipped_snapshot`]).
    pub fn apply_shipped_model(&self, key: ModelKey, weights: &[u8]) -> Result<(), QcfeError> {
        let model = PersistedModel::from_bytes(weights).map_err(StoreError::from)?;
        self.store
            .save_model(key.benchmark, key.estimator, key.fingerprint, &model)?;
        self.register_model(key, model.into_cost_model());
        self.counters.ships_applied.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The gateway's routing statistics.
    pub fn stats(&self) -> GatewayStats {
        GatewayStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            shard_starts: self.counters.shard_starts.load(Ordering::Relaxed),
            tenants: self.tenant_lanes(),
            shards_resident: self.shards.lock().expect("shard map poisoned").len(),
            shard_retirements: self.counters.shard_retirements.load(Ordering::Relaxed),
            snapshot_transfers: self.counters.snapshot_transfers.load(Ordering::Relaxed),
            model_evictions: self.counters.model_evictions.load(Ordering::Relaxed),
            model_loads: self.counters.model_loads.load(Ordering::Relaxed),
            model_load_failures: self.counters.model_load_failures.load(Ordering::Relaxed),
            labels_recorded: self.counters.labels_recorded.load(Ordering::Relaxed),
            refits: self.counters.refits.load(Ordering::Relaxed),
            promotions: self.counters.promotions.load(Ordering::Relaxed),
            ships_emitted: self.counters.ships_emitted.load(Ordering::Relaxed),
            ships_applied: self.counters.ships_applied.load(Ordering::Relaxed),
            replication: self
                .ship_sink
                .as_ref()
                .map(|sink| sink.health())
                .unwrap_or_default(),
            registry: self.registry.stats(),
        }
    }

    /// Per-tenant scheduling lanes merged across every resident shard:
    /// counters are summed and the queue-wait percentiles are re-quantiled
    /// from the bucket-wise sum of the shards' wait histograms
    /// ([`TenantLane::merge_from`]) — never the `.max()` of any one shard,
    /// which would let a lightly-used slow shard mask where the tenant's
    /// traffic actually waits.
    fn tenant_lanes(&self) -> Vec<TenantLane> {
        let shards: Vec<Arc<Shard>> = {
            let map = self.shards.lock().expect("shard map poisoned");
            map.keys_by_recency()
                .iter()
                .filter_map(|key| map.peek(key).map(Arc::clone))
                .collect()
        };
        let mut merged: std::collections::BTreeMap<TenantId, TenantLane> =
            std::collections::BTreeMap::new();
        for shard in shards {
            for lane in shard.handle.metrics().tenants {
                merged
                    .entry(lane.tenant)
                    .and_modify(|m| m.merge_from(&lane))
                    .or_insert(lane);
            }
        }
        merged.into_values().collect()
    }

    /// Service metrics of a resident shard (`None` when the shard is not
    /// running). Does not touch shard recency.
    pub fn shard_metrics(&self, key: &ModelKey) -> Option<MetricsSnapshot> {
        self.shards
            .lock()
            .expect("shard map poisoned")
            .peek(key)
            .map(|shard| shard.handle.metrics())
    }

    /// Serving keys of the resident shards, least recently used first.
    pub fn resident_shards(&self) -> Vec<ModelKey> {
        self.shards
            .lock()
            .expect("shard map poisoned")
            .keys_by_recency()
    }

    /// The owned snapshot store (advanced callers: direct persistence).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// The owned model registry (advanced callers: direct registration).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The routing prelude every submission shares: resolve (or start) the
    /// request's shard, fail with [`QcfeError::DeadlineExceeded`] if routing
    /// already spent the deadline, and build the scheduler-facing
    /// [`SubmitSpec`] — the tenant, whatever deadline budget remains, and
    /// the blocking mode `options.shed_load` selects. Returns the serving
    /// key, the shard, whether this call started it, and the spec.
    fn route(
        &self,
        request: &EstimateRequest,
        started: Instant,
    ) -> Result<(ModelKey, Arc<Shard>, bool, SubmitSpec), QcfeError> {
        let key = ModelKey::new(
            request.benchmark,
            request.options.estimator,
            request.environment.fingerprint(),
        );
        let (shard, cold_start) =
            self.shard(key, &request.environment, request.options.allow_transfer)?;
        let elapsed = started.elapsed();
        if let Some(deadline) = request.deadline {
            if elapsed > deadline {
                return Err(QcfeError::DeadlineExceeded { elapsed, deadline });
            }
        }
        let spec = SubmitSpec {
            tenant: request.options.tenant,
            deadline: request.deadline.map(|d| d.saturating_sub(elapsed)),
            block_on_full: !request.options.shed_load,
        };
        Ok((key, shard, cold_start, spec))
    }

    /// Resolve (or start) the shard for `key`, returning it together with
    /// whether *this* call started it.
    ///
    /// The fast path is one short lock acquisition. A miss resolves the
    /// snapshot and model *outside* the lock (disk reads and model
    /// training must not block routing), then re-checks under the lock so
    /// concurrent cold-starters converge on one shard — the same
    /// first-registration-wins discipline as
    /// [`ModelRegistry::get_or_insert_with`].
    fn shard(
        &self,
        key: ModelKey,
        environment: &DbEnvironment,
        allow_transfer: bool,
    ) -> Result<(Arc<Shard>, bool), QcfeError> {
        if let Some(shard) = self.shards.lock().expect("shard map poisoned").get(&key) {
            return Ok((Arc::clone(shard), false));
        }
        let (snapshot, origin) = self.resolve_snapshot(&key, environment, allow_transfer)?;
        let (model, model_from_disk) = self.resolve_model(&key, snapshot.as_ref())?;
        // The transfer statistic tracks what resolve_snapshot actually did,
        // independent of the provenance override below.
        let snapshot_transferred = origin.is_transferred();
        // A previous life's online refinement survives the restart through
        // the persisted snapshot's refined bit.
        let refined = snapshot.as_ref().is_some_and(|s| s.refined);
        // A disk-restored model rewrites a TrainedHere/None origin to
        // LoadedFromDisk — the shard serves pre-restart state without
        // retraining. A Transferred origin is preserved (its source and
        // distance are the Table VII observables); the disk load stays
        // visible through Provenance::model_from_disk either way.
        let origin = if model_from_disk && !snapshot_transferred {
            SnapshotOrigin::LoadedFromDisk
        } else {
            origin
        };
        let retired;
        let result = {
            let mut shards = self.shards.lock().expect("shard map poisoned");
            if let Some(shard) = shards.get(&key) {
                // A racer started it while we resolved; our snapshot/model
                // work is dropped and we converge on the running shard.
                return Ok((Arc::clone(shard), false));
            }
            let service = EstimationService::start_with_policy(
                model,
                snapshot,
                self.service_config,
                self.sched.clone(),
            );
            let shard = Arc::new(Shard {
                handle: service.handle(),
                provenance: Mutex::new(ShardProvenance { origin, refined }),
                model_from_disk,
                refinement: ShardRefinement::new(self.refinement.buffer_capacity),
                _service: service,
            });
            retired = shards.insert(key, Arc::clone(&shard));
            self.counters.shard_starts.fetch_add(1, Ordering::Relaxed);
            if snapshot_transferred {
                self.counters
                    .snapshot_transfers
                    .fetch_add(1, Ordering::Relaxed);
            }
            (shard, true)
        };
        // Retired shard (if any) drops outside the lock: its service joins
        // worker threads on the final drop, which must not stall routing.
        if let Some((_, shard)) = retired {
            self.counters
                .shard_retirements
                .fetch_add(1, Ordering::Relaxed);
            drop(shard);
        }
        Ok(result)
    }

    /// Resolve the serving snapshot for a shard start: the fingerprint's
    /// own persisted snapshot, else — with transfer allowed — the nearest
    /// persisted neighbour's, else none (only legal for non-QCFE
    /// baselines).
    fn resolve_snapshot(
        &self,
        key: &ModelKey,
        environment: &DbEnvironment,
        allow_transfer: bool,
    ) -> Result<(Option<FeatureSnapshot>, SnapshotOrigin), QcfeError> {
        if let Some(snapshot) = self.store.load(key.benchmark, key.fingerprint)? {
            return Ok((Some(snapshot), SnapshotOrigin::TrainedHere));
        }
        if allow_transfer {
            let query = environment.knob_vector();
            if let Some((source, distance)) =
                self.store
                    .nearest_environment(key.benchmark, &query, key.fingerprint)?
            {
                if let Some(snapshot) = self.store.load(key.benchmark, source)? {
                    return Ok((
                        Some(snapshot),
                        SnapshotOrigin::Transferred { source, distance },
                    ));
                }
            }
        }
        if key.estimator.is_qcfe() {
            return Err(QcfeError::SnapshotMissing {
                benchmark: key.benchmark,
                fingerprint: key.fingerprint,
            });
        }
        Ok((None, SnapshotOrigin::None))
    }

    /// Resolve the serving model for a shard start, returning it together
    /// with whether it was reloaded from persisted `QCFW` weights. The
    /// order is: registry hit, else the store's weight sidecar
    /// (load-before-rebuild, via the registry's disk-backed loader), else
    /// the builder's model provider, else the built-in stateless `PGSQL`
    /// baseline (which needs no training), else a typed failure.
    ///
    /// Loader and provider results register through
    /// [`ModelRegistry::insert_if_absent`], so cold-starters racing on the
    /// same key converge on one resident instance (a losing racer's
    /// provider output is dropped) and the registry can never hold a
    /// different model than the shard serves.
    fn resolve_model(
        &self,
        key: &ModelKey,
        snapshot: Option<&FeatureSnapshot>,
    ) -> Result<(Arc<dyn CostModel>, bool), QcfeError> {
        if let Some(resolved) = self.registry.get_or_load(key) {
            if resolved.source == ModelSource::Reloaded {
                self.counters.model_loads.fetch_add(1, Ordering::Relaxed);
            }
            if resolved.evicted.is_some() {
                self.counters
                    .model_evictions
                    .fetch_add(1, Ordering::Relaxed);
            }
            // from_disk is the registry's lock-coupled provenance mark:
            // sticky while the disk-loaded model stays resident, cleared
            // atomically by any in-process registration.
            return Ok((resolved.model, resolved.from_disk));
        }
        let built: Option<Arc<dyn CostModel>> = if let Some(provider) = &self.model_provider {
            provider(key, snapshot)
        } else {
            None
        };
        let built = built.or_else(|| {
            (key.estimator == EstimatorKind::Pgsql)
                .then(|| Arc::new(PgEstimator) as Arc<dyn CostModel>)
        });
        match built {
            Some(model) => {
                // insert_if_absent clears the key's disk mark when this
                // build wins residency (lock-coupled with the insert), so
                // a stale mark can never tag a retrained model.
                let (resident, evicted) = self.registry.insert_if_absent(*key, model);
                if evicted.is_some() {
                    self.counters
                        .model_evictions
                        .fetch_add(1, Ordering::Relaxed);
                }
                Ok((resident, false))
            }
            None => Err(QcfeError::ModelMissing { key: *key }),
        }
    }
}

/// Assemble the caller-facing response from one consumed shard reply: the
/// single point where both the blocking ([`PendingResponse::wait`], which
/// [`QcfeGateway::estimate`] calls) and the polled
/// ([`PendingResponse::try_wait`]) paths stamp provenance, so the two are
/// bit-identical for the same reply.
fn assemble_response(
    estimate: crate::service::Estimate,
    shard: &Shard,
    key: ModelKey,
    cold_start: bool,
    started: Instant,
    submitted: Instant,
) -> EstimateResponse {
    let service_us = submitted.elapsed().as_micros() as u64;
    let provenance = shard.read_provenance();
    EstimateResponse {
        cost_ms: estimate.cost_ms,
        batch_size: estimate.batch_size,
        encoding_cache_hit: estimate.encoding_cache_hit,
        provenance: Provenance {
            model_key: key,
            snapshot_origin: provenance.origin,
            refined: provenance.refined,
            model_from_disk: shard.model_from_disk,
            cold_start,
            service_us,
            total_us: started.elapsed().as_micros() as u64,
        },
    }
}

/// A request [`QcfeGateway::submit_batch`] did not admit: the typed error,
/// and the request itself, handed back unchanged.
#[derive(Debug)]
pub struct Rejected {
    /// Why the request was not admitted.
    pub error: QcfeError,
    /// The request as submitted.
    pub request: EstimateRequest,
}

/// An admitted-but-unanswered gateway request: the ticket returned by
/// [`QcfeGateway::submit`]. Holds the shard alive (a concurrent LRU
/// retirement cannot strand the reply) and carries everything needed to
/// stamp full [`Provenance`] when the answer is consumed.
///
/// Two consumption styles:
/// * [`PendingResponse::try_wait`] — non-blocking poll, for event loops
///   multiplexing many tickets on one thread (pair with the
///   [`CompletionNotify`] hooks of [`QcfeGateway::submit_batch`]);
/// * [`PendingResponse::wait`] — block until the answer (or the deadline).
///
/// Dropping the ticket abandons the request; the shard's eventual reply is
/// discarded.
pub struct PendingResponse {
    ticket: PendingEstimate,
    shard: Arc<Shard>,
    key: ModelKey,
    cold_start: bool,
    started: Instant,
    submitted: Instant,
    deadline: Option<std::time::Duration>,
}

impl std::fmt::Debug for PendingResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingResponse")
            .field("key", &self.key)
            .field("cold_start", &self.cold_start)
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl PendingResponse {
    /// The serving key the request was routed to.
    pub fn model_key(&self) -> ModelKey {
        self.key
    }

    /// Whether this submission started the shard.
    pub fn cold_start(&self) -> bool {
        self.cold_start
    }

    /// Poll without blocking: `Ok(Some)` with the full response when the
    /// estimate is ready, `Ok(None)` while it is in flight and within
    /// budget. A lapsed deadline fails with
    /// [`QcfeError::DeadlineExceeded`]; a shard that dropped the request
    /// (shutdown/abort) fails with the service error. An already-produced
    /// estimate is returned even if the deadline lapsed meanwhile —
    /// matching [`QcfeGateway::estimate`], which only fails on a deadline
    /// it actually waited out.
    pub fn try_wait(&self) -> Result<Option<EstimateResponse>, QcfeError> {
        match self.ticket.try_wait()? {
            Some(estimate) => Ok(Some(assemble_response(
                estimate,
                &self.shard,
                self.key,
                self.cold_start,
                self.started,
                self.submitted,
            ))),
            None => match self.deadline {
                Some(deadline) if self.started.elapsed() > deadline => {
                    Err(QcfeError::DeadlineExceeded {
                        elapsed: self.started.elapsed(),
                        deadline,
                    })
                }
                _ => Ok(None),
            },
        }
    }

    /// Block until the answer, bounded by the request deadline — the
    /// blocking consumption of a submitted ticket, equivalent to having
    /// called [`QcfeGateway::estimate`].
    pub fn wait(self) -> Result<EstimateResponse, QcfeError> {
        let PendingResponse {
            ticket,
            shard,
            key,
            cold_start,
            started,
            submitted,
            deadline,
        } = self;
        let estimate = QcfeGateway::await_ticket(ticket, deadline, started)?;
        Ok(assemble_response(
            estimate, &shard, key, cold_start, started, submitted,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceError;
    use crate::test_support::TempDir;
    use qcfe_core::cost_model::PlanEncoding;
    use qcfe_core::snapshot::OperatorSample;
    use qcfe_db::plan::{OperatorKind, PhysicalOp, PlanNode};
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// Deterministic stub: cost = 3 * est_rows. Counts instantiations so
    /// tests can assert how often a provider was invoked.
    #[derive(Debug)]
    struct TripleRows;

    impl CostModel for TripleRows {
        fn name(&self) -> &'static str {
            "TripleRows"
        }
        fn encode_plan(&self, root: &PlanNode, _: Option<&FeatureSnapshot>) -> PlanEncoding {
            PlanEncoding::flat(vec![root.est_rows])
        }
        fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
            encodings.iter().map(|e| 3.0 * e.values()[0]).collect()
        }
    }

    /// Deterministic stub: cost = 2 * est_rows, told apart from
    /// [`TripleRows`] when one replaces the other.
    #[derive(Debug)]
    struct DoubleRows;

    impl CostModel for DoubleRows {
        fn name(&self) -> &'static str {
            "DoubleRows"
        }
        fn encode_plan(&self, root: &PlanNode, _: Option<&FeatureSnapshot>) -> PlanEncoding {
            PlanEncoding::flat(vec![root.est_rows])
        }
        fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
            encodings.iter().map(|e| 2.0 * e.values()[0]).collect()
        }
    }

    fn scan_plan(rows: f64) -> PlanNode {
        let mut node = PlanNode::new(PhysicalOp::SeqScan { table: "t".into() }, vec![]);
        node.est_rows = rows;
        node.est_cost = rows * 0.01;
        node
    }

    fn tiny_snapshot(slope: f64) -> FeatureSnapshot {
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

    /// A fresh gateway root, removed with the returned guard.
    fn temp_root(tag: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new(&format!("qcfe-gateway-test-{tag}"));
        let root = dir.path();
        (dir, root)
    }

    fn env_with_overhead(os_overhead: f64) -> DbEnvironment {
        let mut env = DbEnvironment::reference();
        env.os_overhead = os_overhead;
        env
    }

    fn mscn_request(env: &DbEnvironment, rows: f64) -> EstimateRequest {
        // `Mscn` (non-QCFE) keeps stub-model tests snapshot-free.
        EstimateRequest::new(BenchmarkKind::Sysbench, env.clone(), scan_plan(rows))
            .with_estimator(EstimatorKind::Mscn)
    }

    #[test]
    fn second_request_to_the_same_fingerprint_reuses_the_shard() {
        let (_dir, root) = temp_root("reuse");
        let env = DbEnvironment::reference();
        let key = ModelKey::new(
            BenchmarkKind::Sysbench,
            EstimatorKind::Mscn,
            env.fingerprint(),
        );
        let gateway = QcfeGateway::builder(&root)
            .with_model(key, Arc::new(TripleRows))
            .build()
            .unwrap();

        let first = gateway.estimate(mscn_request(&env, 10.0)).unwrap();
        assert_eq!(first.cost_ms, 30.0);
        assert!(
            first.provenance.cold_start,
            "first request starts the shard"
        );
        assert_eq!(first.provenance.model_key, key);

        let second = gateway.estimate(mscn_request(&env, 20.0)).unwrap();
        assert_eq!(second.cost_ms, 60.0);
        assert!(
            !second.provenance.cold_start,
            "same fingerprint must not start a new service"
        );
        let stats = gateway.stats();
        assert_eq!(stats.shard_starts, 1);
        assert_eq!(stats.shards_resident, 1);
        assert_eq!(stats.requests, 2);
        assert_eq!(gateway.resident_shards(), vec![key]);
        let metrics = gateway.shard_metrics(&key).expect("shard resident");
        assert_eq!(metrics.completed, 2);
    }

    #[test]
    fn registering_a_model_retires_the_running_shard() {
        let (_dir, root) = temp_root("replace");
        let env = DbEnvironment::reference();
        let key = ModelKey::new(
            BenchmarkKind::Sysbench,
            EstimatorKind::Mscn,
            env.fingerprint(),
        );
        let gateway = QcfeGateway::builder(&root).build().unwrap();
        gateway.register_model(key, Arc::new(TripleRows));
        let first = gateway.estimate(mscn_request(&env, 10.0)).unwrap();
        assert_eq!(first.cost_ms, 30.0);
        assert!(first.provenance.cold_start);

        gateway.register_model(key, Arc::new(DoubleRows));
        assert_eq!(gateway.stats().shard_retirements, 1);
        assert_eq!(gateway.stats().shards_resident, 0);
        let replaced = gateway.estimate(mscn_request(&env, 10.0)).unwrap();
        assert_eq!(replaced.cost_ms, 20.0, "the replacement model serves");
        assert!(
            replaced.provenance.cold_start,
            "the shard restarts on the replacement"
        );
        assert_eq!(gateway.stats().shard_starts, 2);
    }

    #[test]
    fn shard_cap_retires_least_recently_used_shards() {
        let (_dir, root) = temp_root("cap");
        let envs: Vec<DbEnvironment> = (0..3)
            .map(|i| env_with_overhead(1.0 + i as f64 * 0.01))
            .collect();
        let mut builder = QcfeGateway::builder(&root).max_shards(2);
        for env in &envs {
            builder = builder.with_model(
                ModelKey::new(
                    BenchmarkKind::Sysbench,
                    EstimatorKind::Mscn,
                    env.fingerprint(),
                ),
                Arc::new(TripleRows),
            );
        }
        let gateway = builder.build().unwrap();

        for env in &envs {
            gateway.estimate(mscn_request(env, 1.0)).unwrap();
        }
        let stats = gateway.stats();
        assert_eq!(stats.shard_starts, 3);
        assert_eq!(stats.shards_resident, 2, "cap holds");
        assert_eq!(stats.shard_retirements, 1, "LRU victim retired");
        // The retired (least recently used) shard was env 0's; touching it
        // again cold-starts it.
        let again = gateway.estimate(mscn_request(&envs[0], 1.0)).unwrap();
        assert!(again.provenance.cold_start);
        assert_eq!(gateway.stats().shard_starts, 4);
    }

    #[test]
    fn unseen_fingerprint_warm_starts_from_the_nearest_neighbour() {
        let (_dir, root) = temp_root("transfer");
        let published = env_with_overhead(1.05);
        let far = env_with_overhead(1.40);
        let unseen = env_with_overhead(1.051);
        let key = |env: &DbEnvironment| {
            ModelKey::new(
                BenchmarkKind::Sysbench,
                EstimatorKind::Mscn,
                env.fingerprint(),
            )
        };
        let gateway = QcfeGateway::builder(&root)
            .with_model(key(&published), Arc::new(TripleRows))
            .with_model(key(&far), Arc::new(TripleRows))
            .with_model(key(&unseen), Arc::new(TripleRows))
            .build()
            .unwrap();
        gateway
            .publish_snapshot(BenchmarkKind::Sysbench, &published, &tiny_snapshot(0.002))
            .unwrap();
        gateway
            .publish_snapshot(BenchmarkKind::Sysbench, &far, &tiny_snapshot(0.009))
            .unwrap();

        // Published environment serves from its own snapshot.
        let own = gateway.estimate(mscn_request(&published, 2.0)).unwrap();
        assert_eq!(own.provenance.snapshot_origin, SnapshotOrigin::TrainedHere);

        // The unseen environment warm-starts from its nearest neighbour.
        let transferred = gateway.estimate(mscn_request(&unseen, 2.0)).unwrap();
        match transferred.provenance.snapshot_origin {
            SnapshotOrigin::Transferred { source, distance } => {
                assert_eq!(source, published.fingerprint(), "nearest must win");
                assert!(distance > 0.0 && distance < unseen.distance_to(&far));
            }
            other => panic!("expected transfer, got {other:?}"),
        }
        assert_eq!(gateway.stats().snapshot_transfers, 1);

        // With transfer disabled, a QCFE estimator fails typed.
        let strict = EstimateRequest::new(
            BenchmarkKind::Sysbench,
            env_with_overhead(1.3),
            scan_plan(1.0),
        )
        .with_options(RequestOptions {
            estimator: EstimatorKind::QcfeMscn,
            allow_transfer: false,
            shed_load: false,
            ..RequestOptions::default()
        });
        match gateway.estimate(strict) {
            Err(QcfeError::SnapshotMissing { benchmark, .. }) => {
                assert_eq!(benchmark, BenchmarkKind::Sysbench)
            }
            other => panic!("expected SnapshotMissing, got {other:?}"),
        }
    }

    #[test]
    fn model_resolution_prefers_registry_then_provider_then_pgsql() {
        let (_dir, root) = temp_root("resolve");
        let env = DbEnvironment::reference();
        let provided = Arc::new(AtomicUsize::new(0));
        let calls = Arc::clone(&provided);
        let gateway = QcfeGateway::builder(&root)
            .model_provider(move |key, snapshot| {
                assert!(snapshot.is_none(), "no snapshot published in this test");
                calls.fetch_add(1, Ordering::Relaxed);
                (key.estimator == EstimatorKind::Mscn)
                    .then(|| Arc::new(TripleRows) as Arc<dyn CostModel>)
            })
            .build()
            .unwrap();

        // Provider supplies the MSCN model and it gets registered.
        let response = gateway.estimate(mscn_request(&env, 4.0)).unwrap();
        assert_eq!(response.cost_ms, 12.0);
        assert_eq!(provided.load(Ordering::Relaxed), 1);
        assert_eq!(gateway.stats().registry.resident, 1);

        // The PGSQL baseline needs neither registration nor provider.
        let pg = gateway
            .estimate(
                EstimateRequest::new(BenchmarkKind::Sysbench, env.clone(), scan_plan(5.0))
                    .with_estimator(EstimatorKind::Pgsql),
            )
            .unwrap();
        assert!(pg.cost_ms.is_finite() && pg.cost_ms > 0.0);
        assert_eq!(pg.provenance.snapshot_origin, SnapshotOrigin::None);

        // An estimator the provider declines fails typed.
        match gateway.estimate(
            EstimateRequest::new(BenchmarkKind::Sysbench, env.clone(), scan_plan(1.0))
                .with_estimator(EstimatorKind::QppNet),
        ) {
            Err(QcfeError::ModelMissing { key }) => {
                assert_eq!(key.estimator, EstimatorKind::QppNet)
            }
            other => panic!("expected ModelMissing, got {other:?}"),
        }
    }

    /// A gateway serving `TripleRows` for every given environment.
    fn triple_rows_gateway(
        root: &PathBuf,
        envs: &[&DbEnvironment],
        config: ServiceConfig,
    ) -> QcfeGateway {
        let mut builder = QcfeGateway::builder(root).service_config(config);
        for env in envs {
            let key = ModelKey::new(
                BenchmarkKind::Sysbench,
                EstimatorKind::Mscn,
                env.fingerprint(),
            );
            builder = builder.with_model(key, Arc::new(TripleRows));
        }
        builder.build().unwrap()
    }

    fn unhooked(requests: &[EstimateRequest]) -> Vec<(EstimateRequest, Option<CompletionNotify>)> {
        requests.iter().map(|r| (r.clone(), None)).collect()
    }

    #[test]
    fn a_batch_call_to_a_warm_shard_forms_one_micro_batch_in_input_order() {
        let (_dir, root) = temp_root("batch-one");
        let env = DbEnvironment::reference();
        let gateway = triple_rows_gateway(&root, &[&env], ServiceConfig::default());
        gateway.estimate(mscn_request(&env, 1.0)).unwrap(); // warm the shard
        let requests: Vec<EstimateRequest> = (0..16)
            .map(|i| mscn_request(&env, 10.0 + i as f64))
            .collect();
        let responses: Vec<EstimateResponse> = gateway
            .submit_batch(unhooked(&requests))
            .into_iter()
            .map(|outcome| outcome.expect("admitted").wait().unwrap())
            .collect();
        for (request, response) in requests.iter().zip(&responses) {
            assert_eq!(response.batch_size, 16, "one micro-batch of 16");
            let expected = gateway.estimate(request.clone()).unwrap();
            assert_eq!(
                response.cost_ms.to_bits(),
                expected.cost_ms.to_bits(),
                "answers in input order, bit-identical to estimate"
            );
            assert!(!response.provenance.cold_start);
        }
        assert_eq!(gateway.stats().requests, 1 + 16 + 16);
    }

    #[test]
    fn a_full_queue_hands_rejected_requests_back_whole() {
        let (_dir, root) = temp_root("batch-full");
        let env = DbEnvironment::reference();
        let config = ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServiceConfig::default()
        };
        let gateway = triple_rows_gateway(&root, &[&env], config);
        gateway.estimate(mscn_request(&env, 1.0)).unwrap(); // warm the shard
                                                            // Closed-loop requests: the batch call sheds them all the same.
        let requests: Vec<EstimateRequest> = (0..16)
            .map(|i| mscn_request(&env, 10.0 + i as f64))
            .collect();
        let outcomes = gateway.submit_batch(unhooked(&requests));
        let mut admitted = Vec::new();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(pending) if i < 8 => admitted.push(pending),
                Err(rejected) if i >= 8 => {
                    assert!(
                        matches!(
                            rejected.error,
                            QcfeError::Service(ServiceError::QueueFull { limit: 8, .. })
                        ),
                        "request {i}: {:?}",
                        rejected.error
                    );
                    assert_eq!(rejected.request.plan, requests[i].plan);
                    assert_eq!(rejected.request.options, requests[i].options);
                }
                Ok(_) => panic!("request {i} should have been shed"),
                Err(rejected) => panic!("request {i} rejected: {:?}", rejected.error),
            }
        }
        for (i, pending) in admitted.into_iter().enumerate() {
            assert_eq!(pending.wait().unwrap().cost_ms, 3.0 * (10.0 + i as f64));
        }
    }

    #[test]
    fn a_batch_for_two_environments_forms_one_micro_batch_per_shard() {
        let (_dir, root) = temp_root("batch-two");
        let (a, b) = (env_with_overhead(0.5), env_with_overhead(2.0));
        let gateway = triple_rows_gateway(&root, &[&a, &b], ServiceConfig::default());
        gateway.estimate(mscn_request(&a, 1.0)).unwrap();
        gateway.estimate(mscn_request(&b, 1.0)).unwrap();
        let requests: Vec<EstimateRequest> = (0..16)
            .map(|i| mscn_request(if i % 2 == 0 { &a } else { &b }, 10.0 + i as f64))
            .collect();
        let responses: Vec<EstimateResponse> = gateway
            .submit_batch(unhooked(&requests))
            .into_iter()
            .map(|outcome| outcome.expect("admitted").wait().unwrap())
            .collect();
        for (i, (request, response)) in requests.iter().zip(&responses).enumerate() {
            assert_eq!(response.batch_size, 8, "request {i}: one batch per shard");
            assert_eq!(response.cost_ms, 3.0 * request.plan.est_rows);
            assert_eq!(
                response.provenance.model_key.fingerprint,
                request.environment.fingerprint()
            );
        }
        assert_eq!(gateway.stats().shard_starts, 2);
    }

    #[test]
    fn deadlines_fail_fast_with_a_typed_error() {
        let (_dir, root) = temp_root("deadline");
        let env = DbEnvironment::reference();
        let key = ModelKey::new(
            BenchmarkKind::Sysbench,
            EstimatorKind::Mscn,
            env.fingerprint(),
        );
        let gateway = QcfeGateway::builder(&root)
            .with_model(key, Arc::new(TripleRows))
            .build()
            .unwrap();
        // An already-expired deadline cannot be met.
        let request = mscn_request(&env, 1.0).with_deadline(Duration::ZERO);
        match gateway.estimate(request) {
            Err(QcfeError::DeadlineExceeded { deadline, elapsed }) => {
                assert_eq!(deadline, Duration::ZERO);
                assert!(elapsed >= deadline);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // A generous deadline passes.
        let request = mscn_request(&env, 1.0).with_deadline(Duration::from_secs(30));
        assert!(gateway.estimate(request).is_ok());
    }

    /// A deadline bounds the *wait*, not just pre/post checks: a shard
    /// stuck in slow inference must not hold the caller past its deadline.
    #[test]
    fn deadlines_interrupt_a_blocked_wait() {
        #[derive(Debug)]
        struct SlowModel;
        impl CostModel for SlowModel {
            fn name(&self) -> &'static str {
                "SlowModel"
            }
            fn encode_plan(&self, _: &PlanNode, _: Option<&FeatureSnapshot>) -> PlanEncoding {
                PlanEncoding::flat(Vec::new())
            }
            fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
                std::thread::sleep(Duration::from_millis(300) * encodings.len() as u32);
                vec![1.0; encodings.len()]
            }
        }
        let (_dir, root) = temp_root("slow");
        let env = DbEnvironment::reference();
        let key = ModelKey::new(
            BenchmarkKind::Sysbench,
            EstimatorKind::Mscn,
            env.fingerprint(),
        );
        let gateway = QcfeGateway::builder(&root)
            .with_model(key, Arc::new(SlowModel))
            .build()
            .unwrap();
        let waited = Instant::now();
        let request = mscn_request(&env, 1.0).with_deadline(Duration::from_millis(20));
        match gateway.estimate(request) {
            Err(QcfeError::DeadlineExceeded { elapsed, deadline }) => {
                assert_eq!(deadline, Duration::from_millis(20));
                assert!(elapsed >= deadline);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            waited.elapsed() < Duration::from_millis(250),
            "the caller must be released at the deadline, not after inference"
        );
    }

    #[test]
    fn concurrent_cold_starts_converge_on_one_shard() {
        let (_dir, root) = temp_root("race");
        let env = DbEnvironment::reference();
        let key = ModelKey::new(
            BenchmarkKind::Sysbench,
            EstimatorKind::Mscn,
            env.fingerprint(),
        );
        let gateway = Arc::new(
            QcfeGateway::builder(&root)
                .with_model(key, Arc::new(TripleRows))
                .build()
                .unwrap(),
        );
        std::thread::scope(|scope| {
            for i in 0..8 {
                let gateway = Arc::clone(&gateway);
                let env = env.clone();
                scope.spawn(move || {
                    let response = gateway
                        .estimate(mscn_request(&env, i as f64 + 1.0))
                        .unwrap();
                    assert_eq!(response.cost_ms, 3.0 * (i as f64 + 1.0));
                });
            }
        });
        let stats = gateway.stats();
        assert_eq!(stats.shards_resident, 1, "racers converge on one shard");
        assert_eq!(stats.shard_starts, 1, "only one racer starts the service");
        assert_eq!(stats.requests, 8);
    }

    use crate::test_support::tiny_mscn as tiny_persisted_mscn;

    /// Tentpole acceptance (unit scale): publish weights, drop the gateway,
    /// rebuild on the same root — the restarted gateway answers from disk,
    /// bit-identically, with [`SnapshotOrigin::LoadedFromDisk`] provenance
    /// and no provider in sight.
    #[test]
    fn restarted_gateway_serves_from_persisted_weights() {
        let (_dir, root) = temp_root("restart");
        let env = DbEnvironment::reference();
        let key = ModelKey::new(
            BenchmarkKind::Sysbench,
            EstimatorKind::Mscn,
            env.fingerprint(),
        );
        let persisted = tiny_persisted_mscn(31);
        let plans: Vec<PlanNode> = (1..=6).map(|i| scan_plan(i as f64 * 10.0)).collect();

        let before: Vec<u64> = {
            let gateway = QcfeGateway::builder(&root).build().unwrap();
            gateway
                .publish_model(key, persisted.clone())
                .expect("weights persisted");
            plans
                .iter()
                .map(|p| {
                    let mut request = mscn_request(&env, 1.0);
                    request.plan = p.clone();
                    gateway.estimate(request).unwrap().cost_ms.to_bits()
                })
                .collect()
            // Gateway (and its shards) dropped here — the "process exit".
        };

        let gateway = QcfeGateway::builder(&root).build().unwrap();
        for (plan, &expected) in plans.iter().zip(&before) {
            let mut request = mscn_request(&env, 1.0);
            request.plan = plan.clone();
            let response = gateway.estimate(request).unwrap();
            assert_eq!(
                response.cost_ms.to_bits(),
                expected,
                "restarted gateway must serve bit-identical estimates"
            );
            assert!(
                response.provenance.snapshot_origin.is_from_disk(),
                "provenance must record the disk load, got {:?}",
                response.provenance.snapshot_origin
            );
            assert!(response.provenance.model_from_disk);
        }
        let stats = gateway.stats();
        assert_eq!(stats.model_loads, 1, "one disk load serves every request");
        assert_eq!(stats.registry.loads, 1);
    }

    /// Disk-loaded weights do not erase a transferred snapshot's
    /// provenance: the `Transferred { source, distance }` observables stay
    /// on the response and the disk load is reported via
    /// `model_from_disk`.
    #[test]
    fn transferred_snapshot_keeps_its_provenance_with_a_disk_model() {
        let (_dir, root) = temp_root("transfer-disk");
        let published = env_with_overhead(1.05);
        let unseen = env_with_overhead(1.051);
        let key = ModelKey::new(
            BenchmarkKind::Sysbench,
            EstimatorKind::Mscn,
            unseen.fingerprint(),
        );
        {
            let gateway = QcfeGateway::builder(&root).build().unwrap();
            // The unseen fingerprint has persisted *weights* but no
            // snapshot of its own; the published neighbour has a snapshot.
            gateway
                .publish_snapshot(BenchmarkKind::Sysbench, &published, &tiny_snapshot(0.002))
                .unwrap();
            gateway
                .store()
                .save_model(
                    key.benchmark,
                    key.estimator,
                    key.fingerprint,
                    &tiny_persisted_mscn(61),
                )
                .unwrap();
        }
        let gateway = QcfeGateway::builder(&root).build().unwrap();
        let response = gateway.estimate(mscn_request(&unseen, 2.0)).unwrap();
        match response.provenance.snapshot_origin {
            SnapshotOrigin::Transferred { source, distance } => {
                assert_eq!(source, published.fingerprint());
                assert!(distance > 0.0);
            }
            other => panic!("transfer observables must survive, got {other:?}"),
        }
        assert!(
            response.provenance.model_from_disk,
            "the disk load must still be visible"
        );
        let stats = gateway.stats();
        assert_eq!(stats.model_loads, 1);
        assert_eq!(stats.snapshot_transfers, 1);
    }

    /// A corrupt weight sidecar degrades to a provider call instead of
    /// serving garbage or failing the request.
    #[test]
    fn corrupt_weight_file_falls_through_to_the_provider() {
        let (_dir, root) = temp_root("corrupt-weights");
        let env = DbEnvironment::reference();
        let key = ModelKey::new(
            BenchmarkKind::Sysbench,
            EstimatorKind::Mscn,
            env.fingerprint(),
        );
        {
            let gateway = QcfeGateway::builder(&root).build().unwrap();
            let path = gateway
                .publish_model(key, tiny_persisted_mscn(32))
                .expect("weights persisted");
            // Flip one payload byte: the CRC makes the file undecodable.
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
        }
        let provided = Arc::new(AtomicUsize::new(0));
        let calls = Arc::clone(&provided);
        let gateway = QcfeGateway::builder(&root)
            .model_provider(move |_, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                Some(Arc::new(TripleRows) as Arc<dyn CostModel>)
            })
            .build()
            .unwrap();
        let response = gateway.estimate(mscn_request(&env, 4.0)).unwrap();
        assert_eq!(response.cost_ms, 12.0, "provider model served");
        assert_eq!(provided.load(Ordering::Relaxed), 1);
        assert!(
            !response.provenance.snapshot_origin.is_from_disk(),
            "a rebuilt model must not claim disk provenance"
        );
        let stats = gateway.stats();
        assert_eq!(stats.model_loads, 0);
        assert_eq!(
            stats.model_load_failures, 1,
            "the broken sidecar must be observable"
        );
        // The corrupt file was quarantined: the canonical path is a clean
        // miss for future restarts and the evidence is kept alongside.
        let canonical =
            gateway
                .store()
                .model_path_for(key.benchmark, key.estimator, key.fingerprint);
        assert!(!canonical.exists(), "corrupt sidecar must be moved aside");
        let mut quarantined = canonical.into_os_string();
        quarantined.push(".corrupt");
        assert!(
            std::path::PathBuf::from(quarantined).is_file(),
            "quarantined copy must remain for inspection"
        );
    }

    /// Disk provenance is sticky: with a 1-shard cap, retiring and
    /// restarting a shard whose disk-loaded model is still
    /// registry-resident must keep reporting [`SnapshotOrigin::LoadedFromDisk`],
    /// not flip to [`SnapshotOrigin::TrainedHere`].
    #[test]
    fn disk_provenance_survives_shard_retirement() {
        let (_dir, root) = temp_root("sticky");
        let env_a = env_with_overhead(1.0);
        let env_b = env_with_overhead(1.2);
        let key_for = |env: &DbEnvironment| {
            ModelKey::new(
                BenchmarkKind::Sysbench,
                EstimatorKind::Mscn,
                env.fingerprint(),
            )
        };
        {
            let gateway = QcfeGateway::builder(&root).build().unwrap();
            gateway
                .publish_model(key_for(&env_a), tiny_persisted_mscn(41))
                .unwrap();
            gateway
                .publish_model(key_for(&env_b), tiny_persisted_mscn(42))
                .unwrap();
        }
        let gateway = QcfeGateway::builder(&root).max_shards(1).build().unwrap();
        let first = gateway.estimate(mscn_request(&env_a, 1.0)).unwrap();
        assert!(first.provenance.snapshot_origin.is_from_disk());
        // Starting B's shard retires A's (cap 1)...
        let other = gateway.estimate(mscn_request(&env_b, 1.0)).unwrap();
        assert!(other.provenance.snapshot_origin.is_from_disk());
        // ...so this request restarts A's shard with the model still
        // resident in the registry: provenance must not change.
        let again = gateway.estimate(mscn_request(&env_a, 1.0)).unwrap();
        assert!(again.provenance.cold_start, "shard was retired");
        assert!(
            again.provenance.snapshot_origin.is_from_disk(),
            "disk provenance must survive shard retirement, got {:?}",
            again.provenance.snapshot_origin
        );
        assert_eq!(
            gateway.stats().model_loads,
            2,
            "each model loaded from disk exactly once"
        );
        // An in-process registration supersedes the disk mark, and retires
        // A's running shard so the next request restarts it on the new
        // model.
        gateway.register_model(key_for(&env_a), Arc::new(TripleRows));
        let replaced = gateway.estimate(mscn_request(&env_a, 1.0)).unwrap();
        assert!(
            replaced.provenance.cold_start,
            "registration retired A's shard"
        );
        assert!(
            !replaced.provenance.snapshot_origin.is_from_disk(),
            "a freshly registered model is TrainedHere again"
        );
    }

    /// A provider rebuild clears a stale disk mark: once the sidecar is
    /// gone and the model is retrained, later shard restarts serving the
    /// registry-resident rebuild must not claim disk provenance.
    #[test]
    fn provider_rebuild_clears_stale_disk_provenance() {
        let (_dir, root) = temp_root("stale-mark");
        let env_a = env_with_overhead(1.0);
        let env_b = env_with_overhead(1.2);
        let key_for = |env: &DbEnvironment| {
            ModelKey::new(
                BenchmarkKind::Sysbench,
                EstimatorKind::Mscn,
                env.fingerprint(),
            )
        };
        {
            let gateway = QcfeGateway::builder(&root).build().unwrap();
            gateway
                .publish_model(key_for(&env_a), tiny_persisted_mscn(51))
                .unwrap();
        }
        let gateway = QcfeGateway::builder(&root)
            .max_shards(1)
            .model_provider(|_, _| Some(Arc::new(TripleRows) as Arc<dyn CostModel>))
            .build()
            .unwrap();
        let first = gateway.estimate(mscn_request(&env_a, 1.0)).unwrap();
        assert!(first.provenance.snapshot_origin.is_from_disk());
        // Operator forces a retrain: drop the sidecar and the resident
        // model.
        let ka = key_for(&env_a);
        gateway
            .store()
            .remove_model(ka.benchmark, ka.estimator, ka.fingerprint)
            .unwrap();
        gateway.registry().remove(&ka);
        // Retire A's shard (cap 1), then rebuild A via the provider.
        gateway.estimate(mscn_request(&env_b, 1.0)).unwrap();
        let rebuilt = gateway.estimate(mscn_request(&env_a, 2.0)).unwrap();
        assert_eq!(rebuilt.cost_ms, 6.0, "provider model serves");
        assert!(!rebuilt.provenance.snapshot_origin.is_from_disk());
        // Retire once more; the provider-built model is still
        // registry-resident — the stale disk mark must not resurface.
        gateway.estimate(mscn_request(&env_b, 1.0)).unwrap();
        let again = gateway.estimate(mscn_request(&env_a, 3.0)).unwrap();
        assert!(again.provenance.cold_start, "shard was retired");
        assert_eq!(again.cost_ms, 9.0, "still the provider model");
        assert!(
            !again.provenance.snapshot_origin.is_from_disk(),
            "a retrained model must never resurrect disk provenance, got {:?}",
            again.provenance.snapshot_origin
        );
    }

    /// A stub whose prediction is the snapshot's SeqScan formula applied to
    /// the plan's `est_rows` — refinement tests can tell *which* snapshot
    /// served an estimate, bit-for-bit.
    #[derive(Debug)]
    struct SnapshotSlope;

    impl CostModel for SnapshotSlope {
        fn name(&self) -> &'static str {
            "SnapshotSlope"
        }
        fn encode_plan(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> PlanEncoding {
            let cost = snapshot.map_or(-1.0, |s| {
                s.predict(OperatorKind::SeqScan, root.est_rows, 0.0)
            });
            PlanEncoding::flat(vec![cost])
        }
        fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
            encodings.iter().map(|e| e.values()[0]).collect()
        }
    }

    /// A synthetic observed execution: one SeqScan whose self time follows
    /// `slope * rows + intercept`.
    fn executed_scan(rows: f64, slope: f64, intercept: f64) -> qcfe_db::executor::ExecutedQuery {
        let mut node = PlanNode::new(PhysicalOp::SeqScan { table: "t".into() }, vec![]);
        node.est_rows = rows;
        node.actual_rows = rows;
        node.actual_self_ms = slope * rows + intercept;
        qcfe_db::executor::ExecutedQuery {
            total_ms: node.actual_self_ms,
            root: node,
        }
    }

    /// Tentpole (unit scale): streamed labels refit a transferred shard's
    /// snapshot in place, persist it, and promote the provenance
    /// `Transferred → TrainedHere` — without restarting the shard.
    #[test]
    fn feedback_refits_and_promotes_a_transferred_shard() {
        let (_dir, root) = temp_root("refine");
        let neighbour = env_with_overhead(1.05);
        let unseen = env_with_overhead(1.051);
        let gateway = QcfeGateway::builder(&root)
            .with_model(
                ModelKey::new(
                    BenchmarkKind::Sysbench,
                    EstimatorKind::Mscn,
                    unseen.fingerprint(),
                ),
                Arc::new(SnapshotSlope),
            )
            .refinement(RefinementConfig {
                refit_threshold: 8,
                buffer_capacity: 64,
            })
            .build()
            .unwrap();
        gateway
            .publish_snapshot(BenchmarkKind::Sysbench, &neighbour, &tiny_snapshot(0.002))
            .unwrap();

        let transferred = gateway.estimate(mscn_request(&unseen, 500.0)).unwrap();
        assert!(transferred.provenance.snapshot_origin.is_transferred());
        assert!(!transferred.provenance.refined);

        // The environment's real behaviour is 10x steeper than the
        // neighbour's snapshot claims.
        let mut refits = 0;
        let mut promotions = 0;
        for i in 0..8 {
            let outcome = gateway
                .record_execution(
                    BenchmarkKind::Sysbench,
                    &unseen,
                    &executed_scan((i + 1) as f64 * 40.0, 0.02, 0.25),
                )
                .unwrap();
            assert_eq!(outcome.samples, 1);
            assert_eq!(outcome.shards, 1);
            refits += outcome.refits;
            promotions += outcome.promotions;
        }
        assert_eq!(refits, 1, "the 8th sample triggers exactly one refit");
        assert_eq!(promotions, 1);
        let stats = gateway.stats();
        assert_eq!(stats.refits, 1);
        assert_eq!(stats.promotions, 1);
        assert_eq!(stats.labels_recorded, 8);

        // The shard now serves its own fitted coefficients, live.
        let promoted = gateway.estimate(mscn_request(&unseen, 500.0)).unwrap();
        assert_eq!(
            promoted.provenance.snapshot_origin,
            SnapshotOrigin::TrainedHere
        );
        assert!(promoted.provenance.refined);
        assert!(
            !promoted.provenance.cold_start,
            "the swap must not restart the shard"
        );
        let persisted = gateway
            .store()
            .load(BenchmarkKind::Sysbench, unseen.fingerprint())
            .unwrap()
            .expect("refit snapshot persisted under the shard's own fingerprint");
        assert!(persisted.refined);
        assert_eq!(
            promoted.cost_ms.to_bits(),
            persisted
                .predict(OperatorKind::SeqScan, 500.0, 0.0)
                .to_bits(),
            "served estimates must come from the persisted refit snapshot"
        );
        let c = persisted.coefficients(OperatorKind::SeqScan);
        assert!((c[0] - 0.02).abs() < 1e-9, "refit slope {}", c[0]);
        // The refined environment is now a transfer candidate itself.
        assert!(gateway
            .store()
            .load_vector(BenchmarkKind::Sysbench, unseen.fingerprint())
            .unwrap()
            .is_some());
        let metrics = gateway
            .shard_metrics(&promoted.provenance.model_key)
            .expect("resident");
        assert_eq!(metrics.snapshot_swaps, 1);
    }

    /// Labels for an environment nobody is serving are dropped, visibly.
    #[test]
    fn feedback_without_a_resident_shard_is_dropped() {
        let (_dir, root) = temp_root("unrouted");
        let env = DbEnvironment::reference();
        let gateway = QcfeGateway::builder(&root).build().unwrap();
        let outcome = gateway
            .record_execution(
                BenchmarkKind::Sysbench,
                &env,
                &executed_scan(100.0, 0.01, 0.1),
            )
            .unwrap();
        assert_eq!(outcome.samples, 1);
        assert_eq!(outcome.shards, 0, "no owner: labels dropped");
        assert_eq!(gateway.stats().labels_recorded, 0);
    }

    #[test]
    fn shed_load_surfaces_queue_full_as_qcfe_error() {
        let (_dir, root) = temp_root("shed");
        let env = DbEnvironment::reference();
        let key = ModelKey::new(
            BenchmarkKind::Sysbench,
            EstimatorKind::Mscn,
            env.fingerprint(),
        );
        let gateway = Arc::new(
            QcfeGateway::builder(&root)
                .service_config(ServiceConfig {
                    workers: 1,
                    queue_capacity: 1,
                    max_batch: 1,
                    encoding_cache_capacity: 16,
                })
                .with_model(key, Arc::new(TripleRows))
                .build()
                .unwrap(),
        );
        // Saturate the 1-slot queue from background closed-loop clients,
        // then probe open-loop until a shed is observed.
        let mut saw_full = false;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let gateway = Arc::clone(&gateway);
                let env = env.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        gateway
                            .estimate(mscn_request(&env, i as f64 + 1.0))
                            .unwrap();
                    }
                });
            }
            for _ in 0..500 {
                let mut request = mscn_request(&env, 1.0);
                request.options.shed_load = true;
                match gateway.estimate(request) {
                    Err(QcfeError::Service(ServiceError::QueueFull { .. })) => {
                        saw_full = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error {e}"),
                    Ok(_) => {}
                }
            }
        });
        // The probe races real traffic; when it lost every race, the
        // closed-loop work itself still proves the shard survived pressure.
        if saw_full {
            let key_metrics = gateway.shard_metrics(&key).expect("resident");
            assert!(key_metrics.rejected >= 1);
        }
    }
}
