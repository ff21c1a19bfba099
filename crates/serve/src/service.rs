//! The estimation service: a worker-thread pool draining a bounded request
//! queue with micro-batched inference.
//!
//! Requests (physical plans) are pushed by any number of client threads via
//! a cloneable [`ServiceHandle`]. Workers drain up to
//! [`ServiceConfig::max_batch`] queued requests at a time and take every
//! model down one path: each plan's encoding comes from the LRU
//! plan-encoding cache, or from [`CostModel::encode_plan`] on a miss, and
//! the whole drained batch is predicted in one
//! [`CostModel::predict_encoded`] call — one matrix pass for MSCN, staged
//! operator-grouped forwards across every plan for QPPNet.
//!
//! Backpressure: [`ServiceHandle::estimate`] blocks while the queue is at
//! capacity (closed-loop clients). The gateway's shed-load submissions
//! return [`ServiceError::QueueFull`] instead (open-loop clients).
//!
//! # Batch admission
//!
//! Every submission passes one admission check (open, below capacity and,
//! with scheduling enabled, a live deadline budget within the tenant's
//! quota). A single submission may block on capacity; a *batch* submission
//! — the path the gateway's `submit_batch` takes for an event-loop front
//! end — never blocks: it admits every request it can under one queue
//! lock, hands each rejected plan back with its typed error, and wakes one
//! worker per `max_batch` admitted requests (at most the pool). Workers
//! wake blocked submitters only when some are waiting.
//!
//! # Completion hooks
//!
//! A submission may carry a [`CompletionNotify`] hook, which fires exactly
//! once when the request leaves the service, always after its reply
//! channel has closed. A worker answers its whole micro-batch first and
//! drops the jobs after, so every hook of a batch fires once the batch is
//! fully answered — a poller woken by any of them can reap all of them.
//!
//! # Scheduling
//!
//! The queue between submissions and the workers is a
//! [`crate::sched::EdfQueue`] governed by a [`SchedPolicy`]
//! ([`EstimationService::start_with_policy`]). With the default (disabled)
//! policy every request queues FIFO — the original behaviour, bit for bit.
//! With scheduling enabled, submissions pass per-tenant admission control
//! (token-bucket rate + queue share; over-quota requests are rejected
//! immediately with the typed [`ServiceError::QueueFull`], never parked),
//! workers drain micro-batches earliest-deadline-first with a starvation
//! guard for deadline-less requests, and entries whose deadline passed
//! while queued are dropped at pop with the typed
//! [`ServiceError::DeadlineExpired`] instead of wasting inference on them.
//!
//! # Live snapshot swaps
//!
//! The feature snapshot a service serves under is *replaceable at runtime*
//! ([`ServiceHandle::install_snapshot`]) — the mechanism behind the
//! gateway's online refinement, which refits a snapshot from observed
//! labels and swaps it into the running shard without a restart. The swap
//! is torn-read-free: every drained micro-batch reads the snapshot `Arc`
//! exactly once, so a batch is predicted entirely under the old snapshot or
//! entirely under the new one, never a mixture. The plan-encoding cache is
//! epoch-guarded for the same reason — encodings embed snapshot
//! coefficients, so a swap bumps the snapshot epoch and workers neither
//! read nor populate cache entries from another epoch.

use crate::lru::LruCache;
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::sched::{AdmissionControl, EdfEntry, EdfQueue, Popped, SchedPolicy, TenantId};
use qcfe_core::cost_model::{CostModel, PlanEncoding};
use qcfe_core::snapshot::FeatureSnapshot;
use qcfe_db::env::Fnv1a;
use qcfe_db::plan::PlanNode;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one estimation service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue capacity (admission control).
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one inference batch.
    pub max_batch: usize,
    /// Capacity of the LRU plan-encoding cache.
    pub encoding_cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            max_batch: 32,
            encoding_cache_capacity: 4096,
        }
    }
}

/// One answered estimation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Predicted query latency in milliseconds.
    pub cost_ms: f64,
    /// Size of the micro-batch this request was served in.
    pub batch_size: usize,
    /// Whether the plan encoding came from the cache.
    pub encoding_cache_hit: bool,
}

/// Service-side request failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The service is shut down (or shut down while the request was queued).
    Closed,
    /// A load-shedding submission was rejected: the bounded queue was full,
    /// or (with scheduling enabled) the tenant exhausted its quota. Carries
    /// the observed depth and the limit that tripped, so clients can tell
    /// transient pressure from misconfiguration.
    QueueFull {
        /// Queue depth observed at rejection (global for a capacity
        /// rejection, per-tenant for a quota rejection).
        depth: usize,
        /// The configured limit that tripped (queue capacity, tenant queue
        /// share, or token-bucket burst).
        limit: usize,
    },
    /// The request's deadline passed before a worker served it: rejected
    /// at admission with an exhausted budget, or dropped at pop after
    /// expiring in the queue. Only produced with scheduling enabled.
    DeadlineExpired {
        /// How long the request waited in the queue.
        waited: Duration,
        /// The deadline budget the request carried at submission.
        deadline: Duration,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Closed => write!(f, "estimation service is closed"),
            ServiceError::QueueFull { depth, limit } => {
                write!(
                    f,
                    "estimation queue is full ({depth} queued, limit {limit})"
                )
            }
            ServiceError::DeadlineExpired { waited, deadline } => write!(
                f,
                "deadline of {:.3} ms expired in queue after {:.3} ms",
                deadline.as_secs_f64() * 1e3,
                waited.as_secs_f64() * 1e3
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A stable 64-bit key of a plan's cost-relevant structure, used by the
/// encoding cache. Two plans with equal keys encode identically.
pub fn plan_key(root: &PlanNode) -> u64 {
    fn walk(node: &PlanNode, h: &mut Fnv1a) {
        h.write_u64(node.op.kind().index() as u64);
        if let Some(table) = node.op.scanned_table() {
            h.write_bytes(table.as_bytes());
            h.write_bytes(b"\0");
        }
        // The index column is part of the encoder's one-hot blocks, so it
        // must be part of the cache key too.
        if let qcfe_db::plan::PhysicalOp::IndexScan { column, .. } = &node.op {
            h.write_bytes(column.as_bytes());
            h.write_bytes(b"\0");
        }
        h.write_u64(node.est_rows.to_bits());
        h.write_u64(node.est_width.to_bits());
        h.write_u64(node.est_cost.to_bits());
        h.write_u64(node.predicates.len() as u64);
        h.write_u64(node.children.len() as u64);
        for child in &node.children {
            walk(child, h);
        }
    }
    let mut h = Fnv1a::new();
    walk(root, &mut h);
    h.finish()
}

/// A completion hook attached to a submission: invoked exactly once when
/// the request leaves the service, whether it completed normally or was
/// dropped by an abort — for a served request, after every reply of its
/// micro-batch was sent. Used by event-loop front-ends (one reactor thread
/// parking thousands of pending estimates) to wake their poller instead of
/// blocking a thread per request. The hook runs on a worker thread and
/// must be cheap and non-blocking (e.g. a self-pipe write).
pub type CompletionNotify = Arc<dyn Fn() + Send + Sync>;

/// What a worker sends back per request: the estimate, or the typed fault
/// of a request the scheduler dropped (deadline expired in queue).
type Reply = Result<Estimate, ServiceError>;

/// One entry of [`ServiceHandle::submit_batch`]: the plan, its scheduling
/// envelope and its optional completion hook.
pub(crate) type BatchJob = (PlanNode, SubmitSpec, Option<CompletionNotify>);

/// The per-entry result of [`ServiceHandle::submit_batch`]: the ticket, or
/// the admission error with the plan handed back.
pub(crate) type BatchOutcome = Result<PendingEstimate, (ServiceError, PlanNode)>;

struct Job {
    plan: PlanNode,
    /// `Some` until the job leaves the service; [`Job::drop`] takes it so
    /// the channel closes *before* the completion hook runs.
    reply: Option<mpsc::Sender<Reply>>,
    notify: Option<CompletionNotify>,
}

impl Drop for Job {
    /// Fire the completion hook when the job leaves the service — after
    /// [`Shared::complete`] sent the reply (normal path) *and* when an
    /// abort drops queued jobs (their reply senders close, so a subsequent
    /// `try_wait` observes [`ServiceError::Closed`]). Running from `Drop`
    /// makes the notification unconditional: no exit path can strand a
    /// poller waiting for a wakeup that never comes.
    ///
    /// The reply sender is dropped *before* the hook fires. Otherwise a
    /// poller woken by the hook could race ahead of this struct's field
    /// drops and observe the channel still open — `try_wait` returning
    /// "in flight" for a request the service has already abandoned.
    fn drop(&mut self) {
        drop(self.reply.take());
        if let Some(notify) = self.notify.take() {
            notify();
        }
    }
}

struct QueueState {
    jobs: EdfQueue<Job>,
    admission: AdmissionControl,
    closed: bool,
    /// Blocking submitters parked on `not_full`. Workers wake them only
    /// when there are any, so a drain costs no futex call otherwise.
    blocked: usize,
}

/// The swappable serving snapshot plus its epoch. The epoch ties the
/// plan-encoding cache to the snapshot that produced its entries: a swap
/// bumps it, instantly invalidating every cached encoding.
struct SnapshotSlot {
    snapshot: Option<Arc<FeatureSnapshot>>,
    epoch: u64,
}

/// The plan-encoding cache, tagged with the snapshot epoch its entries were
/// encoded under. Workers holding a different epoch treat every probe as a
/// miss and never insert — a stale encoding can neither be served nor
/// poison the cache across a swap.
struct EncodingCache {
    epoch: u64,
    cache: LruCache<u64, Arc<PlanEncoding>>,
}

struct Shared {
    config: ServiceConfig,
    policy: SchedPolicy,
    model: Arc<dyn CostModel>,
    snapshot: RwLock<SnapshotSlot>,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    encoding_cache: Mutex<EncodingCache>,
    metrics: ServiceMetrics,
}

impl Shared {
    /// Whether per-tenant metric lanes are kept for `tenant`: always under
    /// an enabled policy, and for any named tenant even under FIFO (so a
    /// tenant-tagged wire request is observable before scheduling is
    /// turned on). The anonymous tenant under the default policy tracks
    /// nothing — the legacy single-tenant hot path stays lock-free.
    fn lanes_tracked(&self, tenant: TenantId) -> bool {
        self.policy.enabled || !tenant.is_anonymous()
    }

    fn worker_loop(&self) {
        loop {
            let mut expired: Vec<EdfEntry<Job>> = Vec::new();
            let (batch, wake_submitters) = {
                let mut queue = self.queue.lock().expect("service queue poisoned");
                loop {
                    let now = Instant::now();
                    let mut batch: Vec<EdfEntry<Job>> = Vec::new();
                    while batch.len() < self.config.max_batch {
                        match queue.jobs.pop(now, self.policy.age_after) {
                            Some(Popped::Ready(entry)) => {
                                queue.admission.release(entry.tenant);
                                batch.push(entry);
                            }
                            Some(Popped::Expired(entry)) => {
                                queue.admission.release(entry.tenant);
                                expired.push(entry);
                            }
                            None => break,
                        }
                    }
                    if !batch.is_empty() || !expired.is_empty() {
                        if !batch.is_empty() {
                            self.metrics.record_batch(batch.len(), queue.jobs.len());
                            self.record_batch_lanes(&batch, now);
                        }
                        break (batch, queue.blocked > 0);
                    }
                    if queue.closed {
                        return;
                    }
                    queue = self.not_empty.wait(queue).expect("service queue poisoned");
                }
            };
            // Space freed: wake the blocked submitters, if any.
            if wake_submitters {
                self.not_full.notify_all();
            }
            // Expired entries never reach the model: fail them typed, after
            // releasing the lock. Their hooks fire when `expired` drops,
            // after every reply is sent.
            for entry in &mut expired {
                self.fail_expired(entry);
            }
            drop(expired);
            if !batch.is_empty() {
                self.process_batch(batch);
            }
        }
    }

    /// Per-tenant bookkeeping of one drained batch: queue-wait histograms
    /// for every tracked request, plus one `batches_formed` tick per
    /// distinct tenant in the batch.
    fn record_batch_lanes(&self, batch: &[EdfEntry<Job>], now: Instant) {
        let mut tenants: Vec<TenantId> = Vec::new();
        for entry in batch {
            if !self.lanes_tracked(entry.tenant) {
                continue;
            }
            let wait_us = now
                .saturating_duration_since(entry.enqueued_at)
                .as_secs_f64()
                * 1e6;
            self.metrics.record_tenant_wait(entry.tenant, wait_us);
            if !tenants.contains(&entry.tenant) {
                tenants.push(entry.tenant);
            }
        }
        for tenant in tenants {
            self.metrics.record_tenant_batch(tenant);
        }
    }

    /// Drop one entry whose deadline passed while it was queued: reply
    /// with the typed fault instead of serving (or silently dropping) it.
    fn fail_expired(&self, entry: &mut EdfEntry<Job>) {
        if self.lanes_tracked(entry.tenant) {
            self.metrics.record_tenant_shed_deadline(entry.tenant);
        }
        let waited = entry.enqueued_at.elapsed();
        let deadline = entry
            .deadline
            .map(|d| d.saturating_duration_since(entry.enqueued_at))
            .unwrap_or_default();
        if let Some(reply) = entry.item.reply.take() {
            let _ = reply.send(Err(ServiceError::DeadlineExpired { waited, deadline }));
        }
    }

    /// Run one drained micro-batch through the model and complete every
    /// request.
    ///
    /// Every reply is sent before any job drops, so the batch's completion
    /// hooks fire together at the end: an event-loop front end woken by
    /// the first hook finds the whole batch answered.
    fn process_batch(&self, mut batch: Vec<EdfEntry<Job>>) {
        let batch_size = batch.len();
        let (predictions, hits) = self.batched_predictions(&batch);
        // A wrong-length result would otherwise leave the truncated jobs
        // un-replied and their clients blocked forever; panicking drops the
        // whole batch's reply senders and (via the worker's abort-on-panic
        // guard) closes the service, failing every current and future
        // waiter with `Closed` and surfacing the broken model.
        assert_eq!(
            predictions.len(),
            batch_size,
            "{} predict_encoded returned {} predictions for {batch_size} plans",
            self.model.name(),
            predictions.len(),
        );
        for ((job, cost_ms), hit) in batch.iter_mut().zip(predictions).zip(hits) {
            self.complete(
                job,
                Estimate {
                    cost_ms,
                    batch_size,
                    encoding_cache_hit: hit,
                },
            );
        }
        drop(batch);
    }

    /// Batched inference for one drained micro-batch, returning one
    /// prediction and one cache-hit flag per request: each plan's encoding
    /// comes from the LRU plan-encoding cache or is encoded (and cached),
    /// and the model predicts all of them in one call.
    ///
    /// The snapshot slot is read exactly once per batch, so a concurrent
    /// [`Shared::install_snapshot`] can never split a batch across two
    /// snapshots: every prediction in the batch is made under one snapshot,
    /// bit-for-bit.
    fn batched_predictions(&self, batch: &[EdfEntry<Job>]) -> (Vec<f64>, Vec<bool>) {
        let (snapshot, epoch) = {
            let slot = self.snapshot.read().expect("snapshot slot poisoned");
            (slot.snapshot.clone(), slot.epoch)
        };
        let snapshot = snapshot.as_deref();
        // Two lock acquisitions per drained batch (probe, then insert
        // misses), not per request — encoding itself runs unlocked. A cache
        // whose epoch differs from this batch's snapshot belongs to another
        // snapshot: probe nothing, insert nothing. A hit clones an `Arc`.
        let keys: Vec<u64> = batch
            .iter()
            .map(|entry| plan_key(&entry.item.plan))
            .collect();
        let cached: Vec<Option<Arc<PlanEncoding>>> = {
            let mut cache = self.encoding_cache.lock().expect("encoding cache poisoned");
            if cache.epoch == epoch {
                keys.iter()
                    .map(|key| cache.cache.get(key).cloned())
                    .collect()
            } else {
                vec![None; keys.len()]
            }
        };
        let hits: Vec<bool> = cached.iter().map(Option::is_some).collect();
        let mut fresh: Vec<(u64, Arc<PlanEncoding>)> = Vec::new();
        let encodings: Vec<Arc<PlanEncoding>> = cached
            .into_iter()
            .zip(batch)
            .zip(&keys)
            .map(|((cached, entry), &key)| {
                cached.unwrap_or_else(|| {
                    let encoding = Arc::new(self.model.encode_plan(&entry.item.plan, snapshot));
                    fresh.push((key, Arc::clone(&encoding)));
                    encoding
                })
            })
            .collect();
        if !fresh.is_empty() {
            let mut cache = self.encoding_cache.lock().expect("encoding cache poisoned");
            if cache.epoch == epoch {
                for (key, encoding) in fresh {
                    cache.cache.insert(key, encoding);
                }
            }
        }
        for &hit in &hits {
            self.metrics.record_cache(hit);
        }
        let encodings: Vec<&PlanEncoding> = encodings.iter().map(Arc::as_ref).collect();
        (self.model.predict_encoded(&encodings), hits)
    }

    /// Replace the serving snapshot without stopping the service. In-flight
    /// batches finish under the snapshot they already read; every batch
    /// drained after the swap predicts under the new one. The encoding
    /// cache is invalidated by advancing its epoch (cached encodings embed
    /// the old snapshot's coefficients) — the `<` guard keeps a slow
    /// concurrent swapper from rolling a newer epoch back.
    fn install_snapshot(&self, snapshot: Option<Arc<FeatureSnapshot>>) {
        let epoch = {
            let mut slot = self.snapshot.write().expect("snapshot slot poisoned");
            slot.snapshot = snapshot;
            slot.epoch += 1;
            slot.epoch
        };
        let mut cache = self.encoding_cache.lock().expect("encoding cache poisoned");
        if cache.epoch < epoch {
            cache.epoch = epoch;
            cache.cache.clear();
        }
        drop(cache);
        self.metrics.record_snapshot_swap();
    }

    /// The snapshot currently being served (shared, not cloned).
    fn snapshot(&self) -> Option<Arc<FeatureSnapshot>> {
        self.snapshot
            .read()
            .expect("snapshot slot poisoned")
            .snapshot
            .clone()
    }

    fn complete(&self, entry: &mut EdfEntry<Job>, estimate: Estimate) {
        self.metrics
            .record_completion(entry.enqueued_at.elapsed().as_secs_f64() * 1e6);
        // Take the sender out so it closes here, before the job drops and
        // fires the completion hook; a hook-woken poller must find the
        // reply already in the channel (or the channel closed), never a
        // still-open empty channel.
        // A client that gave up (dropped the receiver) is not an error.
        if let Some(reply) = entry.item.reply.take() {
            let _ = reply.send(Ok(estimate));
        }
    }

    /// The one admission check every submission passes, under the queue
    /// lock: the service must be open and below capacity, and — with
    /// scheduling enabled — the request must carry a live deadline budget
    /// and fit its tenant's quota. Returns the queue deadline to stamp on
    /// the entry (none under the FIFO policy). Every rejection is counted
    /// here.
    fn admit(
        &self,
        queue: &mut QueueState,
        spec: SubmitSpec,
        now: Instant,
    ) -> Result<Option<Instant>, ServiceError> {
        if queue.closed {
            self.metrics.record_reject();
            return Err(ServiceError::Closed);
        }
        if queue.jobs.len() >= self.config.queue_capacity {
            self.metrics.record_reject();
            if self.lanes_tracked(spec.tenant) {
                self.metrics.record_tenant_shed_quota(spec.tenant);
            }
            return Err(ServiceError::QueueFull {
                depth: queue.jobs.len(),
                limit: self.config.queue_capacity,
            });
        }
        if !self.policy.enabled {
            // Under the disabled (FIFO) policy every entry queues
            // deadline-less: legacy ordering, no expiry at pop.
            return Ok(None);
        }
        // A budget that is already exhausted can only expire in the
        // queue: reject it up front instead of queuing it.
        if let Some(budget) = spec.deadline {
            if budget.is_zero() {
                self.metrics.record_reject();
                self.metrics.record_tenant_shed_deadline(spec.tenant);
                return Err(ServiceError::DeadlineExpired {
                    waited: Duration::ZERO,
                    deadline: budget,
                });
            }
        }
        let quota = self.policy.quota_for(spec.tenant);
        if let Err(err) = queue.admission.try_admit(spec.tenant, &quota, now) {
            self.metrics.record_reject();
            self.metrics.record_tenant_shed_quota(spec.tenant);
            return Err(ServiceError::QueueFull {
                depth: err.depth(),
                limit: err.limit(),
            });
        }
        Ok(spec.deadline.map(|budget| now + budget))
    }

    /// Queue one admitted job and count it.
    fn push(
        &self,
        queue: &mut QueueState,
        job: Job,
        tenant: TenantId,
        deadline: Option<Instant>,
        now: Instant,
    ) {
        queue.jobs.push(job, tenant, deadline, now);
        self.metrics.record_submit(queue.jobs.len());
        if self.lanes_tracked(tenant) {
            self.metrics.record_tenant_admit(tenant);
        }
    }

    fn close(&self) {
        self.queue.lock().expect("service queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Close the service *and* drop every queued job so their clients
    /// observe [`ServiceError::Closed`] instead of waiting for a worker
    /// that no longer exists. Called when a worker dies on a model panic;
    /// tolerates a poisoned queue lock because it runs during unwinding.
    fn abort(&self) {
        let dropped: Vec<EdfEntry<Job>> = {
            let mut queue = self
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue.closed = true;
            queue.jobs.drain_all()
        };
        self.not_empty.notify_all();
        self.not_full.notify_all();
        // Dropping the jobs drops their reply senders, failing the waiters.
        drop(dropped);
    }
}

/// An in-flight estimation request: the ticket a submission returns.
/// Dropping it abandons the request (the worker's reply is discarded).
#[derive(Debug)]
pub struct PendingEstimate {
    response: mpsc::Receiver<Reply>,
}

impl PendingEstimate {
    /// Block until the estimate is ready. A request the scheduler dropped
    /// (deadline expired in queue) fails with its typed fault.
    pub fn wait(self) -> Result<Estimate, ServiceError> {
        match self.response.recv() {
            Ok(reply) => reply,
            Err(_) => Err(ServiceError::Closed),
        }
    }

    /// Block at most `timeout`; `Ok(None)` when it elapses first. The
    /// request stays in flight — its eventual reply is discarded — so a
    /// deadline-bound caller can stop waiting without wedging the worker.
    pub fn wait_timeout(
        self,
        timeout: std::time::Duration,
    ) -> Result<Option<Estimate>, ServiceError> {
        match self.response.recv_timeout(timeout) {
            Ok(reply) => reply.map(Some),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServiceError::Closed),
        }
    }

    /// Poll without blocking: `Ok(Some)` when the estimate is ready,
    /// `Ok(None)` while it is still in flight, [`ServiceError::Closed`]
    /// once the service dropped the request (shutdown or worker abort),
    /// or the scheduler's typed fault for a request it dropped. The
    /// accessor event-loop front-ends pair with a [`CompletionNotify`]
    /// hook: park the ticket, poll it on wakeup.
    pub fn try_wait(&self) -> Result<Option<Estimate>, ServiceError> {
        match self.response.try_recv() {
            Ok(reply) => reply.map(Some),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(ServiceError::Closed),
        }
    }
}

/// The scheduling envelope of one submission: which tenant it belongs
/// to, how much deadline budget it has left, and whether a full queue
/// blocks it or sheds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SubmitSpec {
    pub tenant: TenantId,
    /// Remaining deadline budget at submission, if the request carries a
    /// deadline. Ignored (FIFO) when the service's policy is disabled.
    pub deadline: Option<Duration>,
    pub block_on_full: bool,
}

impl SubmitSpec {
    /// The legacy single-tenant envelope: anonymous, no deadline.
    pub(crate) fn anonymous(block_on_full: bool) -> Self {
        SubmitSpec {
            tenant: TenantId::ANONYMOUS,
            deadline: None,
            block_on_full,
        }
    }
}

/// A cloneable client handle onto a running [`EstimationService`].
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl ServiceHandle {
    /// Submit a plan and block until its estimate is ready. Applies
    /// backpressure: blocks while the queue is at capacity.
    pub fn estimate(&self, plan: PlanNode) -> Result<Estimate, ServiceError> {
        self.submit(plan, SubmitSpec::anonymous(true), None)?.wait()
    }

    /// Asynchronous submission with explicit admission policy: blocking
    /// backpressure (`block_on_full`) or load shedding, plus the request's
    /// scheduling envelope (tenant, remaining deadline budget).
    ///
    /// Quota rejections are immediate even for blocking submissions — a
    /// request over its tenant's quota is never parked. Only global queue
    /// capacity applies backpressure.
    pub(crate) fn submit(
        &self,
        plan: PlanNode,
        spec: SubmitSpec,
        notify: Option<CompletionNotify>,
    ) -> Result<PendingEstimate, ServiceError> {
        let shared = &self.shared;
        let (reply, response) = mpsc::channel();
        {
            let mut queue = shared.queue.lock().expect("service queue poisoned");
            if spec.block_on_full {
                while queue.jobs.len() >= shared.config.queue_capacity && !queue.closed {
                    queue.blocked += 1;
                    queue = shared.not_full.wait(queue).expect("service queue poisoned");
                    queue.blocked -= 1;
                }
            }
            let now = Instant::now();
            let deadline = shared.admit(&mut queue, spec, now)?;
            let job = Job {
                plan,
                reply: Some(reply),
                notify,
            };
            shared.push(&mut queue, job, spec.tenant, deadline, now);
        }
        shared.not_empty.notify_one();
        Ok(PendingEstimate { response })
    }

    /// Submit many requests under one queue lock, never blocking: each
    /// passes the same admission as [`ServiceHandle::submit`], and a full
    /// queue sheds it whatever its `block_on_full` says. Results come back
    /// in input order; a rejected request hands its plan back with the
    /// typed error, so the caller can park and resubmit it without having
    /// cloned it. Wakes ⌈admitted / `max_batch`⌉ workers, capped at the
    /// pool size — one per micro-batch the submission can fill.
    pub(crate) fn submit_batch(&self, jobs: Vec<BatchJob>) -> Vec<BatchOutcome> {
        let shared = &self.shared;
        let channels: Vec<_> = jobs.iter().map(|_| mpsc::channel()).collect();
        let mut outcomes = Vec::with_capacity(jobs.len());
        let mut admitted = 0usize;
        {
            let mut queue = shared.queue.lock().expect("service queue poisoned");
            let now = Instant::now();
            for ((plan, spec, notify), (reply, response)) in jobs.into_iter().zip(channels) {
                match shared.admit(&mut queue, spec, now) {
                    Ok(deadline) => {
                        let job = Job {
                            plan,
                            reply: Some(reply),
                            notify,
                        };
                        shared.push(&mut queue, job, spec.tenant, deadline, now);
                        admitted += 1;
                        outcomes.push(Ok(PendingEstimate { response }));
                    }
                    Err(error) => outcomes.push(Err((error, plan))),
                }
            }
        }
        let wakes = admitted
            .div_ceil(shared.config.max_batch)
            .min(shared.config.workers);
        for _ in 0..wakes {
            shared.not_empty.notify_one();
        }
        outcomes
    }

    /// Live metrics of the service.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Swap the serving snapshot in place (online refinement). Batches
    /// already drained finish under the old snapshot; later batches predict
    /// under the new one — no torn state in between. Invalidates the
    /// plan-encoding cache, whose entries embed snapshot coefficients.
    pub fn install_snapshot(&self, snapshot: Option<Arc<FeatureSnapshot>>) {
        self.shared.install_snapshot(snapshot);
    }

    /// The snapshot the service currently serves under.
    pub fn snapshot(&self) -> Option<Arc<FeatureSnapshot>> {
        self.shared.snapshot()
    }
}

/// A running estimation service (worker pool + queue + cache + metrics).
///
/// Dropping the service shuts it down: queued requests are drained, new
/// submissions fail with [`ServiceError::Closed`].
pub struct EstimationService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl EstimationService {
    /// Start the worker pool for `model` under `snapshot` with the default
    /// (disabled/FIFO) scheduling policy — the legacy single-tenant
    /// service, unchanged.
    pub fn start(
        model: Arc<dyn CostModel>,
        snapshot: Option<FeatureSnapshot>,
        config: ServiceConfig,
    ) -> Self {
        Self::start_with_policy(model, snapshot, config, SchedPolicy::default())
    }

    /// Start the worker pool with an explicit [`SchedPolicy`] — the
    /// admission-control + EDF pipeline when `policy.enabled`, plain FIFO
    /// otherwise.
    pub fn start_with_policy(
        model: Arc<dyn CostModel>,
        snapshot: Option<FeatureSnapshot>,
        config: ServiceConfig,
        policy: SchedPolicy,
    ) -> Self {
        let shared = Arc::new(Shared {
            config: ServiceConfig {
                workers: config.workers.max(1),
                queue_capacity: config.queue_capacity.max(1),
                max_batch: config.max_batch.max(1),
                encoding_cache_capacity: config.encoding_cache_capacity.max(1),
            },
            policy,
            model,
            snapshot: RwLock::new(SnapshotSlot {
                snapshot: snapshot.map(Arc::new),
                epoch: 0,
            }),
            queue: Mutex::new(QueueState {
                jobs: EdfQueue::new(),
                admission: AdmissionControl::new(),
                closed: false,
                blocked: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            encoding_cache: Mutex::new(EncodingCache {
                epoch: 0,
                cache: LruCache::new(config.encoding_cache_capacity.max(1)),
            }),
            metrics: ServiceMetrics::new(),
        });
        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qcfe-serve-{i}"))
                    .spawn(move || {
                        // If a worker dies (a model panicking inside
                        // inference), close the service and fail queued
                        // requests rather than leaving clients blocked on a
                        // queue nobody drains.
                        struct AbortOnPanic(Arc<Shared>);
                        impl Drop for AbortOnPanic {
                            fn drop(&mut self) {
                                if std::thread::panicking() {
                                    self.0.abort();
                                }
                            }
                        }
                        let _guard = AbortOnPanic(Arc::clone(&shared));
                        shared.worker_loop();
                    })
                    .expect("spawn worker")
            })
            .collect();
        EstimationService { shared, workers }
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Live metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The service configuration in effect.
    pub fn config(&self) -> ServiceConfig {
        self.shared.config
    }

    /// Stop accepting work, drain queued requests and join the workers.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_in_place();
        self.shared.metrics.snapshot()
    }

    fn shutdown_in_place(&mut self) {
        self.shared.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for EstimationService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcfe_db::plan::PhysicalOp;

    /// The encoding most stubs below use: the plan's `est_rows`.
    fn rows_encoding(root: &PlanNode) -> PlanEncoding {
        PlanEncoding::flat(vec![root.est_rows])
    }

    /// Each encoding's first value (`est_rows` for [`rows_encoding`])
    /// times `factor`.
    fn scaled(encodings: &[&PlanEncoding], factor: f64) -> Vec<f64> {
        encodings.iter().map(|e| factor * e.values()[0]).collect()
    }

    /// A deterministic stub: cost = 2 * est_rows. Records the size of every
    /// batch it predicts.
    #[derive(Debug, Default)]
    struct DoubleRows {
        largest_batch: std::sync::atomic::AtomicUsize,
    }

    impl CostModel for DoubleRows {
        fn name(&self) -> &'static str {
            "DoubleRows"
        }

        fn encode_plan(&self, root: &PlanNode, _: Option<&FeatureSnapshot>) -> PlanEncoding {
            rows_encoding(root)
        }

        fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
            self.largest_batch
                .fetch_max(encodings.len(), std::sync::atomic::Ordering::Relaxed);
            scaled(encodings, 2.0)
        }
    }

    fn scan_plan(rows: f64) -> PlanNode {
        let mut node = PlanNode::new(PhysicalOp::SeqScan { table: "t".into() }, vec![]);
        node.est_rows = rows;
        node.est_cost = rows * 0.01;
        node
    }

    fn start(config: ServiceConfig) -> EstimationService {
        EstimationService::start(Arc::new(DoubleRows::default()), None, config)
    }

    /// Distinct plans each miss the cache once and are predicted through
    /// the encoding path.
    #[test]
    fn estimates_flow_through_the_encoded_path() {
        let service = start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        for rows in [1.0, 10.0, 250.0] {
            let estimate = handle.estimate(scan_plan(rows)).unwrap();
            assert_eq!(estimate.cost_ms, 2.0 * rows);
            assert!(estimate.batch_size >= 1);
            assert!(!estimate.encoding_cache_hit, "a new plan misses the cache");
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.completed, 3);
        assert_eq!(metrics.rejected, 0);
        assert_eq!(metrics.cache_hit_rate, 0.0);
    }

    /// The model receives the whole drained micro-batch in one
    /// `predict_encoded` call rather than per-plan calls.
    #[test]
    fn queued_requests_reach_the_model_as_one_batch() {
        let model = Arc::new(DoubleRows::default());
        let service = EstimationService::start(
            Arc::clone(&model) as Arc<dyn CostModel>,
            None,
            ServiceConfig {
                workers: 1,
                queue_capacity: 256,
                max_batch: 64,
                encoding_cache_capacity: 16,
            },
        );
        let handle = service.handle();
        let clients: Vec<_> = (0..32)
            .map(|i| {
                let h = handle.clone();
                std::thread::spawn(move || h.estimate(scan_plan(i as f64 + 1.0)).unwrap())
            })
            .collect();
        for (i, c) in clients.into_iter().enumerate() {
            assert_eq!(c.join().unwrap().cost_ms, 2.0 * (i as f64 + 1.0));
        }
        let metrics = service.shutdown();
        let largest = model
            .largest_batch
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(largest >= 1);
        assert_eq!(
            largest, metrics.max_batch_size,
            "the model must see exactly the drained batches"
        );
    }

    #[test]
    fn repeated_plans_hit_the_encoding_cache() {
        let service = start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        let first = handle.estimate(scan_plan(42.0)).unwrap();
        assert!(!first.encoding_cache_hit, "cold cache");
        for _ in 0..5 {
            let again = handle.estimate(scan_plan(42.0)).unwrap();
            assert!(again.encoding_cache_hit, "warm cache");
        }
        assert!(service.metrics().cache_hit_rate > 0.7);
    }

    /// A model violating the predict_encoded length contract must fail the
    /// affected requests (via the worker panic dropping their reply
    /// senders), not leave clients blocked forever.
    #[test]
    fn wrong_length_predictions_fail_requests_instead_of_hanging() {
        #[derive(Debug)]
        struct ShortBatch;
        impl CostModel for ShortBatch {
            fn name(&self) -> &'static str {
                "ShortBatch"
            }
            fn encode_plan(&self, root: &PlanNode, _: Option<&FeatureSnapshot>) -> PlanEncoding {
                rows_encoding(root)
            }
            fn predict_encoded(&self, _: &[&PlanEncoding]) -> Vec<f64> {
                Vec::new() // always the wrong length
            }
        }
        // One worker: after its panic nobody else could drain the queue, so
        // this also exercises the abort-on-panic guard that closes the
        // service instead of leaving it a zombie.
        let service = EstimationService::start(
            Arc::new(ShortBatch),
            None,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let handle = service.handle();
        assert_eq!(handle.estimate(scan_plan(1.0)), Err(ServiceError::Closed));
        // Subsequent requests must fail fast, not hang on a dead worker.
        assert_eq!(handle.estimate(scan_plan(2.0)), Err(ServiceError::Closed));
        assert_eq!(
            handle
                .submit(scan_plan(3.0), SubmitSpec::anonymous(false), None)
                .and_then(PendingEstimate::wait),
            Err(ServiceError::Closed)
        );
    }

    /// One client submitting a burst asynchronously fills a multi-request
    /// micro-batch on its own — no concurrent clients needed.
    #[test]
    fn async_submission_lets_one_client_fill_a_micro_batch() {
        /// Doubles rows like `DoubleRows`, but holds each batch briefly so
        /// a burst queues behind the first drain.
        #[derive(Debug)]
        struct SlowDoubleRows(std::sync::atomic::AtomicUsize);
        impl CostModel for SlowDoubleRows {
            fn name(&self) -> &'static str {
                "SlowDoubleRows"
            }
            fn encode_plan(&self, root: &PlanNode, _: Option<&FeatureSnapshot>) -> PlanEncoding {
                rows_encoding(root)
            }
            fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
                self.0
                    .fetch_max(encodings.len(), std::sync::atomic::Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(20));
                scaled(encodings, 2.0)
            }
        }
        let model = Arc::new(SlowDoubleRows(std::sync::atomic::AtomicUsize::new(0)));
        let service = EstimationService::start(
            Arc::clone(&model) as Arc<dyn CostModel>,
            None,
            ServiceConfig {
                workers: 1,
                queue_capacity: 64,
                max_batch: 64,
                encoding_cache_capacity: 16,
            },
        );
        let handle = service.handle();
        let pending: Vec<PendingEstimate> = (0..16)
            .map(|i| {
                handle
                    .submit(scan_plan(i as f64 + 1.0), SubmitSpec::anonymous(true), None)
                    .unwrap()
            })
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            let estimate = p.wait().unwrap();
            assert_eq!(estimate.cost_ms, 2.0 * (i as f64 + 1.0));
        }
        drop(service);
        assert!(
            model.0.load(std::sync::atomic::Ordering::Relaxed) >= 2,
            "an async burst must coalesce into multi-request batches"
        );
    }

    /// Satellite acceptance (event-loop front-end contract): `try_wait`
    /// never blocks, the completion hook fires exactly once when the reply
    /// lands, and after the hook a `try_wait` yields the estimate.
    #[test]
    fn try_wait_with_notify_polls_without_blocking() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let service = start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        let fired = Arc::new(AtomicUsize::new(0));
        let hook = Arc::clone(&fired);
        let pending = handle
            .submit(
                scan_plan(21.0),
                SubmitSpec::anonymous(true),
                Some(Arc::new(move || {
                    hook.fetch_add(1, Ordering::SeqCst);
                })),
            )
            .unwrap();
        // Poll until the hook reports completion; every poll must return
        // instantly (None or the result), never block. The reply lands
        // before the hook fires, so a poll in between can already take the
        // estimate; keep it and stop polling the consumed ticket.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let mut estimate = None;
        while fired.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "completion hook never fired");
            if estimate.is_none() {
                estimate = pending.try_wait().unwrap();
            }
            std::thread::yield_now();
        }
        let estimate = estimate
            .or_else(|| pending.try_wait().unwrap())
            .expect("notified ticket must hold its estimate");
        assert_eq!(estimate.cost_ms, 42.0);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "hook fires exactly once");
        // A consumed single-reply ticket reads as closed, not as pending.
        assert_eq!(pending.try_wait(), Err(ServiceError::Closed));
    }

    /// The completion hook must also fire when the service aborts with the
    /// request still queued — the poller wakes and observes `Closed`
    /// instead of waiting forever on a dropped job.
    #[test]
    fn notify_fires_when_an_abort_drops_the_request() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Debug)]
        struct PanickingModel;
        impl CostModel for PanickingModel {
            fn name(&self) -> &'static str {
                "PanickingModel"
            }
            fn encode_plan(&self, root: &PlanNode, _: Option<&FeatureSnapshot>) -> PlanEncoding {
                rows_encoding(root)
            }
            fn predict_encoded(&self, _: &[&PlanEncoding]) -> Vec<f64> {
                panic!("model failure");
            }
        }
        let service = EstimationService::start(
            Arc::new(PanickingModel),
            None,
            ServiceConfig {
                workers: 1,
                max_batch: 1,
                ..ServiceConfig::default()
            },
        );
        let handle = service.handle();
        let fired = Arc::new(AtomicUsize::new(0));
        let hook = Arc::clone(&fired);
        let pending = handle
            .submit(
                scan_plan(1.0),
                SubmitSpec::anonymous(true),
                Some(Arc::new(move || {
                    hook.fetch_add(1, Ordering::SeqCst);
                })),
            )
            .unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while fired.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "abort must fire the hook");
            std::thread::yield_now();
        }
        assert_eq!(pending.try_wait(), Err(ServiceError::Closed));
    }

    /// Regression: the reply channel must already be closed when the abort
    /// notify fires. A poller that polls from inside the wakeup (the
    /// reactor pattern) would otherwise observe a still-open empty channel
    /// — "in flight" — for a request the service has already dropped, and
    /// misreport the abort.
    #[test]
    fn reply_channel_is_closed_before_the_abort_notify_fires() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Mutex;
        /// Panics like `PanickingModel`, but only once the gate opens — so
        /// the test can park the ticket where the hook can reach it before
        /// the worker drops the job.
        #[derive(Debug)]
        struct GatedPanic(Arc<AtomicBool>);
        impl CostModel for GatedPanic {
            fn name(&self) -> &'static str {
                "GatedPanic"
            }
            fn encode_plan(&self, root: &PlanNode, _: Option<&FeatureSnapshot>) -> PlanEncoding {
                rows_encoding(root)
            }
            fn predict_encoded(&self, _: &[&PlanEncoding]) -> Vec<f64> {
                while !self.0.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                panic!("model failure");
            }
        }
        let gate = Arc::new(AtomicBool::new(false));
        let service = EstimationService::start(
            Arc::new(GatedPanic(Arc::clone(&gate))),
            None,
            ServiceConfig {
                workers: 1,
                max_batch: 1,
                ..ServiceConfig::default()
            },
        );
        let handle = service.handle();
        let slot: Arc<Mutex<Option<PendingEstimate>>> = Arc::new(Mutex::new(None));
        type Observed = Result<Option<Estimate>, ServiceError>;
        let seen: Arc<Mutex<Option<Observed>>> = Arc::new(Mutex::new(None));
        let hook_slot = Arc::clone(&slot);
        let hook_seen = Arc::clone(&seen);
        let pending = handle
            .submit(
                scan_plan(1.0),
                SubmitSpec::anonymous(true),
                Some(Arc::new(move || {
                    if let Some(ticket) = hook_slot.lock().unwrap().as_ref() {
                        *hook_seen.lock().unwrap() = Some(ticket.try_wait());
                    }
                })),
            )
            .unwrap();
        *slot.lock().unwrap() = Some(pending);
        gate.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            if let Some(observed) = seen.lock().unwrap().take() {
                assert_eq!(
                    observed,
                    Err(ServiceError::Closed),
                    "the hook must find the reply channel already closed"
                );
                break;
            }
            assert!(Instant::now() < deadline, "hook never ran");
            std::thread::yield_now();
        }
    }

    /// Holds every batch until the test opens the gate, so a test can
    /// place its tickets where the completion hooks can reach them, or
    /// fill the queue, before a worker gets going.
    #[derive(Debug)]
    struct GatedDoubleRows(Arc<std::sync::atomic::AtomicBool>);

    impl CostModel for GatedDoubleRows {
        fn name(&self) -> &'static str {
            "GatedDoubleRows"
        }
        fn encode_plan(&self, root: &PlanNode, _: Option<&FeatureSnapshot>) -> PlanEncoding {
            rows_encoding(root)
        }
        fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
            while !self.0.load(std::sync::atomic::Ordering::SeqCst) {
                std::thread::yield_now();
            }
            scaled(encodings, 2.0)
        }
    }

    fn gated_service(
        config: ServiceConfig,
    ) -> (EstimationService, Arc<std::sync::atomic::AtomicBool>) {
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let service =
            EstimationService::start(Arc::new(GatedDoubleRows(Arc::clone(&gate))), None, config);
        (service, gate)
    }

    /// A worker answers its whole micro-batch before any of the batch's
    /// hooks fire: a poller woken by any hook finds no ticket of the batch
    /// still in flight.
    #[test]
    fn batch_hooks_fire_only_after_every_reply_is_sent() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        const N: usize = 8;
        let (service, gate) = gated_service(ServiceConfig {
            workers: 1,
            max_batch: N,
            ..ServiceConfig::default()
        });
        let tickets: Arc<Mutex<Vec<PendingEstimate>>> = Arc::new(Mutex::new(Vec::new()));
        let fired = Arc::new(AtomicUsize::new(0));
        let in_flight_seen = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<BatchJob> = (0..N)
            .map(|i| {
                let (tickets, fired, in_flight_seen) = (
                    Arc::clone(&tickets),
                    Arc::clone(&fired),
                    Arc::clone(&in_flight_seen),
                );
                let hook: CompletionNotify = Arc::new(move || {
                    for ticket in tickets.lock().unwrap().iter() {
                        if matches!(ticket.try_wait(), Ok(None)) {
                            in_flight_seen.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    fired.fetch_add(1, Ordering::SeqCst);
                });
                (
                    scan_plan(i as f64 + 1.0),
                    SubmitSpec::anonymous(false),
                    Some(hook),
                )
            })
            .collect();
        let outcomes = service.handle().submit_batch(jobs);
        *tickets.lock().unwrap() = outcomes
            .into_iter()
            .map(|outcome| outcome.map_err(|(e, _)| e).unwrap())
            .collect();
        gate.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while fired.load(Ordering::SeqCst) < N {
            assert!(Instant::now() < deadline, "every hook must fire");
            std::thread::yield_now();
        }
        assert_eq!(fired.load(Ordering::SeqCst), N, "each hook fires once");
        assert_eq!(
            in_flight_seen.load(Ordering::SeqCst),
            0,
            "a hook fired while a reply of its batch was still pending"
        );
        assert_eq!(service.shutdown().max_batch_size, N, "one micro-batch");
    }

    /// A batch submission admits up to capacity under one lock and hands
    /// every rejected plan back, in input order, with the typed fault.
    #[test]
    fn batch_submission_hands_rejected_plans_back_in_order() {
        let (service, gate) = gated_service(ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            max_batch: 1,
            encoding_cache_capacity: 16,
        });
        let jobs: Vec<BatchJob> = (0..8)
            .map(|i| (scan_plan(i as f64), SubmitSpec::anonymous(true), None))
            .collect();
        let outcomes = service.handle().submit_batch(jobs);
        let mut tickets = Vec::new();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(ticket) if i < 4 => tickets.push(ticket),
                Err((ServiceError::QueueFull { depth, limit }, plan)) if i >= 4 => {
                    assert_eq!((depth, limit), (4, 4));
                    assert_eq!(plan.est_rows, i as f64, "the submitted plan comes back");
                }
                other => panic!("request {i}: unexpected {other:?}"),
            }
        }
        gate.store(true, std::sync::atomic::Ordering::SeqCst);
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap().cost_ms, 2.0 * i as f64);
        }
        let metrics = service.shutdown();
        assert_eq!((metrics.submitted, metrics.rejected), (4, 4));
    }

    #[test]
    fn submissions_after_shutdown_fail_closed() {
        let service = start(ServiceConfig::default());
        let handle = service.handle();
        assert!(handle.estimate(scan_plan(1.0)).is_ok());
        drop(service);
        assert_eq!(handle.estimate(scan_plan(1.0)), Err(ServiceError::Closed));
        assert_eq!(
            handle
                .submit(scan_plan(1.0), SubmitSpec::anonymous(false), None)
                .and_then(PendingEstimate::wait),
            Err(ServiceError::Closed)
        );
    }

    /// A model whose prediction is read straight off the snapshot: the
    /// SeqScan c1 intercept. Lets swap tests assert *which* snapshot served
    /// a request, bit-for-bit.
    #[derive(Debug)]
    struct SnapshotIntercept;

    impl SnapshotIntercept {
        fn value(snapshot: Option<&FeatureSnapshot>) -> f64 {
            snapshot.map_or(-1.0, |s| {
                s.coefficients(qcfe_db::plan::OperatorKind::SeqScan)[1]
            })
        }
    }

    impl CostModel for SnapshotIntercept {
        fn name(&self) -> &'static str {
            "SnapshotIntercept"
        }
        fn encode_plan(&self, _: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> PlanEncoding {
            PlanEncoding::flat(vec![Self::value(snapshot)])
        }
        fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
            scaled(encodings, 1.0)
        }
    }

    fn intercept_snapshot(intercept: f64) -> FeatureSnapshot {
        use qcfe_core::snapshot::OperatorSample;
        let samples: Vec<OperatorSample> = (1..=10)
            .map(|i| OperatorSample {
                kind: qcfe_db::plan::OperatorKind::SeqScan,
                n1: (i * 100) as f64,
                n2: 0.0,
                self_ms: 0.001 * (i * 100) as f64 + intercept,
            })
            .collect();
        FeatureSnapshot::fit(&samples)
    }

    /// `install_snapshot` takes effect on the running service without a
    /// restart, and the encoding cache never serves an encoding made under
    /// the old snapshot.
    #[test]
    fn installed_snapshots_take_effect_without_restart() {
        let before = intercept_snapshot(2.0);
        let after = intercept_snapshot(8.0);
        let expect_before = SnapshotIntercept::value(Some(&before));
        let expect_after = SnapshotIntercept::value(Some(&after));
        assert_ne!(expect_before.to_bits(), expect_after.to_bits());

        let service = EstimationService::start(
            Arc::new(SnapshotIntercept),
            Some(before),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let handle = service.handle();
        // Warm the encoding cache under the old snapshot.
        for _ in 0..3 {
            let estimate = handle.estimate(scan_plan(42.0)).unwrap();
            assert_eq!(estimate.cost_ms.to_bits(), expect_before.to_bits());
        }
        handle.install_snapshot(Some(Arc::new(after.clone())));
        assert_eq!(service.metrics().snapshot_swaps, 1);
        assert_eq!(
            handle.snapshot().expect("snapshot installed").to_bytes(),
            after.to_bytes()
        );
        // The very same plan — a guaranteed cache key hit before the swap —
        // must now predict under the new snapshot.
        for _ in 0..3 {
            let estimate = handle.estimate(scan_plan(42.0)).unwrap();
            assert_eq!(
                estimate.cost_ms.to_bits(),
                expect_after.to_bits(),
                "stale snapshot served after swap"
            );
        }
    }

    /// Satellite acceptance (deadline gap from the gateway PR): a
    /// [`PendingEstimate`] whose deadline budget is already exhausted
    /// returns promptly — bounded wall-clock — even while the worker is
    /// stuck in slow inference, instead of queuing behind it.
    #[test]
    fn wait_timeout_with_exhausted_budget_returns_promptly() {
        #[derive(Debug)]
        struct SlowModel;
        impl CostModel for SlowModel {
            fn name(&self) -> &'static str {
                "SlowModel"
            }
            fn encode_plan(&self, root: &PlanNode, _: Option<&FeatureSnapshot>) -> PlanEncoding {
                rows_encoding(root)
            }
            fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
                std::thread::sleep(std::time::Duration::from_millis(200) * encodings.len() as u32);
                vec![1.0; encodings.len()]
            }
        }
        let service = EstimationService::start(
            Arc::new(SlowModel),
            None,
            ServiceConfig {
                workers: 1,
                max_batch: 1,
                ..ServiceConfig::default()
            },
        );
        let handle = service.handle();
        // Occupy the single worker, then queue a second request behind it.
        let busy = handle
            .submit(scan_plan(1.0), SubmitSpec::anonymous(true), None)
            .unwrap();
        let stuck = handle
            .submit(scan_plan(2.0), SubmitSpec::anonymous(true), None)
            .unwrap();
        let waited = Instant::now();
        let outcome = stuck.wait_timeout(std::time::Duration::ZERO).unwrap();
        assert_eq!(outcome, None, "an expired budget must not yield a result");
        assert!(
            waited.elapsed() < std::time::Duration::from_millis(100),
            "a zero budget must return promptly, not wait out inference ({:?})",
            waited.elapsed()
        );
        assert!(busy.wait().is_ok(), "the in-flight request still completes");
    }

    #[test]
    fn plan_keys_distinguish_structure_but_not_actuals() {
        let a = scan_plan(10.0);
        let b = scan_plan(10.0);
        assert_eq!(plan_key(&a), plan_key(&b));
        let mut c = scan_plan(10.0);
        c.est_rows = 11.0;
        assert_ne!(plan_key(&a), plan_key(&c));
        let mut d = scan_plan(10.0);
        d.actual_rows = 999.0; // actuals do not exist at serving time
        assert_eq!(plan_key(&a), plan_key(&d));
        // index scans on the same table via different columns encode
        // differently, so they must key differently
        let index_scan = |column: &str| {
            let mut node = PlanNode::new(
                PhysicalOp::IndexScan {
                    table: "t".into(),
                    column: column.into(),
                },
                vec![],
            );
            node.est_rows = 10.0;
            node.est_cost = 0.1;
            node
        };
        assert_ne!(plan_key(&index_scan("a")), plan_key(&index_scan("b")));
        let join = PlanNode::new(
            PhysicalOp::NestedLoop { condition: None },
            vec![scan_plan(10.0), scan_plan(10.0)],
        );
        assert_ne!(plan_key(&a), plan_key(&join));
    }

    #[test]
    fn shed_load_submission_is_rejected_when_the_queue_is_full() {
        // One worker, tiny queue: stall the worker with a burst from
        // background threads, then check a shed-load submission rejects.
        let service = start(ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            max_batch: 1,
            encoding_cache_capacity: 16,
        });
        let handle = service.handle();
        let mut clients = Vec::new();
        for i in 0..64 {
            let h = handle.clone();
            clients.push(std::thread::spawn(move || {
                h.estimate(scan_plan(i as f64)).unwrap()
            }));
        }
        // With 64 closed-loop submissions racing a single worker over a
        // 2-slot queue, an open-loop prober should observe QueueFull at
        // least once.
        let mut saw_full = false;
        for _ in 0..200 {
            match handle
                .submit(scan_plan(5.0), SubmitSpec::anonymous(false), None)
                .and_then(PendingEstimate::wait)
            {
                Err(ServiceError::QueueFull { depth, limit }) => {
                    assert_eq!(limit, 2, "the shed fault names the configured capacity");
                    assert!(depth >= limit, "the shed fault reports the observed depth");
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
                Ok(_) => {}
            }
        }
        for c in clients {
            c.join().unwrap();
        }
        let metrics = service.shutdown();
        assert!(metrics.completed >= 64);
        if saw_full {
            assert!(metrics.rejected >= 1);
        }
    }

    /// With scheduling enabled, a tenant over its token-bucket quota is
    /// rejected immediately with the typed, enriched `QueueFull` — even
    /// though the global queue has plenty of room — and the rejection
    /// lands in the tenant's shed counters.
    #[test]
    fn over_quota_tenants_are_shed_typed_not_parked() {
        use crate::sched::TenantQuota;
        let tenant = TenantId(5);
        let service = EstimationService::start_with_policy(
            Arc::new(DoubleRows::default()),
            None,
            ServiceConfig::default(),
            SchedPolicy::edf().with_quota(tenant, TenantQuota::new(0.0, 2.0, usize::MAX)),
        );
        let handle = service.handle();
        let spec = SubmitSpec {
            tenant,
            deadline: None,
            block_on_full: true,
        };
        // The burst (bucket capacity 2) is admitted...
        let a = handle.submit(scan_plan(1.0), spec, None).unwrap();
        let b = handle.submit(scan_plan(2.0), spec, None).unwrap();
        // ...and the third submission rejects instantly despite
        // `block_on_full`: quota violations never park.
        let started = Instant::now();
        match handle.submit(scan_plan(3.0), spec, None) {
            Err(ServiceError::QueueFull { limit, .. }) => {
                assert_eq!(limit, 2, "the fault names the burst limit");
            }
            other => panic!("expected a typed quota rejection, got {other:?}"),
        }
        assert!(
            started.elapsed() < std::time::Duration::from_millis(100),
            "a quota rejection must be immediate"
        );
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
        let metrics = service.shutdown();
        let lane = metrics
            .tenants
            .iter()
            .find(|lane| lane.tenant == tenant)
            .expect("tenant lane recorded");
        assert_eq!(lane.admitted, 2);
        assert_eq!(lane.shed_quota, 1);
        assert_eq!(lane.shed_deadline, 0);
        assert!(lane.batches_formed >= 1);
    }

    /// A request whose deadline passes while it waits in the queue is
    /// dropped at pop with the typed `DeadlineExpired` fault — it never
    /// reaches the model.
    #[test]
    fn queued_requests_past_their_deadline_are_dropped_typed() {
        #[derive(Debug)]
        struct SlowModel;
        impl CostModel for SlowModel {
            fn name(&self) -> &'static str {
                "SlowModel"
            }
            fn encode_plan(&self, root: &PlanNode, _: Option<&FeatureSnapshot>) -> PlanEncoding {
                rows_encoding(root)
            }
            fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
                std::thread::sleep(std::time::Duration::from_millis(150));
                vec![1.0; encodings.len()]
            }
        }
        let service = EstimationService::start_with_policy(
            Arc::new(SlowModel),
            None,
            ServiceConfig {
                workers: 1,
                max_batch: 1,
                ..ServiceConfig::default()
            },
            SchedPolicy::edf(),
        );
        let handle = service.handle();
        // Occupy the single worker, and wait until it has actually drained
        // the busy job so the deadlined one sits in the queue behind it.
        let busy = handle
            .submit(scan_plan(1.0), SubmitSpec::anonymous(true), None)
            .unwrap();
        let parked = Instant::now();
        while service.metrics().queue_depth > 0 {
            assert!(
                parked.elapsed() < std::time::Duration::from_secs(5),
                "worker never drained the busy job"
            );
            std::thread::yield_now();
        }
        let doomed = handle
            .submit(
                scan_plan(2.0),
                SubmitSpec {
                    tenant: TenantId(9),
                    deadline: Some(Duration::from_millis(1)),
                    block_on_full: true,
                },
                None,
            )
            .unwrap();
        match doomed.wait() {
            Err(ServiceError::DeadlineExpired { waited, deadline }) => {
                assert!(waited >= deadline, "the drop happens after expiry");
                assert_eq!(deadline, Duration::from_millis(1));
            }
            other => panic!("expected a typed deadline drop, got {other:?}"),
        }
        assert!(busy.wait().is_ok(), "the in-flight request still completes");
        let metrics = service.shutdown();
        let lane = metrics
            .tenants
            .iter()
            .find(|lane| lane.tenant == TenantId(9))
            .expect("tenant lane recorded");
        assert_eq!(lane.shed_deadline, 1);
        assert_eq!(
            metrics.completed, 1,
            "the expired request never reached the model"
        );
    }

    /// EDF ordering end to end: with one worker stalled, a later
    /// tight-deadline submission is served before an earlier loose one.
    #[test]
    fn earlier_deadlines_are_served_first() {
        #[derive(Debug)]
        struct Recorder(std::sync::Mutex<Vec<f64>>);
        impl CostModel for Recorder {
            fn name(&self) -> &'static str {
                "Recorder"
            }
            fn encode_plan(&self, root: &PlanNode, _: Option<&FeatureSnapshot>) -> PlanEncoding {
                rows_encoding(root)
            }
            fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
                std::thread::sleep(std::time::Duration::from_millis(30));
                let rows = scaled(encodings, 1.0);
                self.0.lock().unwrap().extend(&rows);
                rows
            }
        }
        let model = Arc::new(Recorder(std::sync::Mutex::new(Vec::new())));
        let service = EstimationService::start_with_policy(
            Arc::clone(&model) as Arc<dyn CostModel>,
            None,
            ServiceConfig {
                workers: 1,
                max_batch: 1,
                ..ServiceConfig::default()
            },
            SchedPolicy::edf(),
        );
        let handle = service.handle();
        // Park the worker on a filler job, then queue loose before tight.
        let filler = handle
            .submit(scan_plan(0.0), SubmitSpec::anonymous(true), None)
            .unwrap();
        let parked = Instant::now();
        while service.metrics().queue_depth > 0 {
            assert!(
                parked.elapsed() < std::time::Duration::from_secs(5),
                "worker never drained the filler job"
            );
            std::thread::yield_now();
        }
        let loose = handle
            .submit(
                scan_plan(1.0),
                SubmitSpec {
                    tenant: TenantId(1),
                    deadline: Some(Duration::from_secs(30)),
                    block_on_full: true,
                },
                None,
            )
            .unwrap();
        let tight = handle
            .submit(
                scan_plan(2.0),
                SubmitSpec {
                    tenant: TenantId(2),
                    deadline: Some(Duration::from_secs(5)),
                    block_on_full: true,
                },
                None,
            )
            .unwrap();
        assert!(filler.wait().is_ok());
        assert!(tight.wait().is_ok());
        assert!(loose.wait().is_ok());
        drop(service);
        let seen = model.0.lock().unwrap();
        let loose_at = seen.iter().position(|&r| r == 1.0).unwrap();
        let tight_at = seen.iter().position(|&r| r == 2.0).unwrap();
        assert!(
            tight_at < loose_at,
            "the tighter deadline must be served first (order {seen:?})"
        );
    }
}
