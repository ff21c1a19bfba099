//! Service observability: throughput, latency percentiles, queue depth,
//! batch sizes and cache hit rate.
//!
//! All global counters are atomics so the hot path never takes a lock for
//! bookkeeping. Latencies land in a 40-bucket power-of-two histogram
//! (microsecond resolution; the top bucket, 2^39 µs, is ~6 days);
//! percentiles are read from the histogram with geometric-midpoint
//! interpolation, which is plenty for a serving dashboard.
//!
//! Per-tenant lanes ([`TenantLane`]) sit behind a small mutex keyed by
//! [`TenantId`]. The service records into them only when scheduling is
//! enabled (or a request names a non-anonymous tenant), so the legacy
//! single-tenant path keeps its lock-free bookkeeping.

use crate::sched::TenantId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of power-of-two latency buckets (public so cross-shard
/// aggregators can carry and merge raw histograms).
pub const BUCKETS: usize = 40;

/// Latency percentile (0–100) from a power-of-two bucket histogram, in
/// microseconds (geometric midpoint of the bucket holding the target
/// rank). The one percentile function of the crate: per-shard snapshots
/// and cross-shard merges both read through it, so a merged histogram
/// and a single-shard histogram with the same counts report the same
/// percentile.
pub fn percentile_from_buckets(counts: &[u64; BUCKETS], p: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (p / 100.0 * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= target {
            // geometric midpoint of bucket [2^i, 2^(i+1))
            return (1u64 << i) as f64 * std::f64::consts::SQRT_2;
        }
    }
    (1u64 << (BUCKETS - 1)) as f64
}

/// Live metrics of one [`crate::service::EstimationService`].
#[derive(Debug)]
pub struct ServiceMetrics {
    started_at: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch: AtomicU64,
    queue_depth: AtomicUsize,
    queue_high_water: AtomicU64,
    snapshot_swaps: AtomicU64,
    latency_sum_us: AtomicU64,
    latency_buckets: [AtomicU64; BUCKETS],
    tenant_lanes: Mutex<HashMap<TenantId, TenantCounters>>,
}

/// Per-tenant scheduling counters (see [`TenantLane`] for the snapshot
/// view).
#[derive(Debug)]
struct TenantCounters {
    admitted: u64,
    shed_quota: u64,
    shed_deadline: u64,
    batches_formed: u64,
    wait_buckets: [u64; BUCKETS],
}

impl Default for TenantCounters {
    fn default() -> Self {
        TenantCounters {
            admitted: 0,
            shed_quota: 0,
            shed_deadline: 0,
            batches_formed: 0,
            wait_buckets: [0; BUCKETS],
        }
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        ServiceMetrics {
            started_at: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            queue_high_water: AtomicU64::new(0),
            snapshot_swaps: AtomicU64::new(0),
            latency_sum_us: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            tenant_lanes: Mutex::new(HashMap::new()),
        }
    }

    fn with_lane(&self, tenant: TenantId, update: impl FnOnce(&mut TenantCounters)) {
        let mut lanes = self.tenant_lanes.lock().expect("tenant lanes poisoned");
        update(lanes.entry(tenant).or_default());
    }

    /// Record a request from `tenant` admitted past the scheduler.
    pub fn record_tenant_admit(&self, tenant: TenantId) {
        self.with_lane(tenant, |lane| lane.admitted += 1);
    }

    /// Record a request from `tenant` shed by admission control (queue
    /// capacity, token bucket or queue share).
    pub fn record_tenant_shed_quota(&self, tenant: TenantId) {
        self.with_lane(tenant, |lane| lane.shed_quota += 1);
    }

    /// Record a request from `tenant` shed for its deadline (exhausted at
    /// admission, or expired while queued).
    pub fn record_tenant_shed_deadline(&self, tenant: TenantId) {
        self.with_lane(tenant, |lane| lane.shed_deadline += 1);
    }

    /// Record that a drained micro-batch contained requests of `tenant`.
    pub fn record_tenant_batch(&self, tenant: TenantId) {
        self.with_lane(tenant, |lane| lane.batches_formed += 1);
    }

    /// Record the queue wait of one of `tenant`'s requests at drain time.
    pub fn record_tenant_wait(&self, tenant: TenantId, wait_us: f64) {
        let us = wait_us.max(0.0).round() as u64;
        let bucket = (64 - us.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.with_lane(tenant, |lane| lane.wait_buckets[bucket] += 1);
    }

    /// Record a request entering the queue.
    pub fn record_submit(&self, queue_depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.store(queue_depth, Ordering::Relaxed);
        self.queue_high_water
            .fetch_max(queue_depth as u64, Ordering::Relaxed);
    }

    /// Record a request rejected at admission (queue full / closed).
    pub fn record_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one drained micro-batch.
    pub fn record_batch(&self, batch_size: usize, queue_depth: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(batch_size as u64, Ordering::Relaxed);
        self.max_batch
            .fetch_max(batch_size as u64, Ordering::Relaxed);
        self.queue_depth.store(queue_depth, Ordering::Relaxed);
    }

    /// Record one completed request with its end-to-end latency.
    pub fn record_completion(&self, latency_us: f64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let us = latency_us.max(0.0).round() as u64;
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        let bucket = (64 - us.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a live snapshot swap (online refinement installing a refit
    /// snapshot into the running service).
    pub fn record_snapshot_swap(&self) {
        self.snapshot_swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an encoding-cache lookup.
    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.latency_buckets[i].load(Ordering::Relaxed));
        let completed = self.completed.load(Ordering::Relaxed);
        let cache_hits = self.cache_hits.load(Ordering::Relaxed);
        let cache_misses = self.cache_misses.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched_requests = self.batched_requests.load(Ordering::Relaxed);
        let elapsed_s = self.started_at.elapsed().as_secs_f64().max(1e-9);
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            throughput_qps: completed as f64 / elapsed_s,
            mean_latency_us: if completed == 0 {
                0.0
            } else {
                self.latency_sum_us.load(Ordering::Relaxed) as f64 / completed as f64
            },
            p50_latency_us: percentile_from_buckets(&counts, 50.0),
            p95_latency_us: percentile_from_buckets(&counts, 95.0),
            p99_latency_us: percentile_from_buckets(&counts, 99.0),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed) as usize,
            snapshot_swaps: self.snapshot_swaps.load(Ordering::Relaxed),
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched_requests as f64 / batches as f64
            },
            max_batch_size: self.max_batch.load(Ordering::Relaxed) as usize,
            cache_hit_rate: if cache_hits + cache_misses == 0 {
                0.0
            } else {
                cache_hits as f64 / (cache_hits + cache_misses) as f64
            },
            tenants: self.tenant_snapshot(),
        }
    }

    /// The per-tenant lanes, sorted by tenant id. Empty unless the
    /// service tracked at least one tenant (scheduling enabled, or a
    /// named tenant submitted).
    fn tenant_snapshot(&self) -> Vec<TenantLane> {
        let lanes = self.tenant_lanes.lock().expect("tenant lanes poisoned");
        let mut tenants: Vec<TenantLane> = lanes
            .iter()
            .map(|(&tenant, counters)| TenantLane {
                tenant,
                admitted: counters.admitted,
                shed_quota: counters.shed_quota,
                shed_deadline: counters.shed_deadline,
                batches_formed: counters.batches_formed,
                p50_wait_us: percentile_from_buckets(&counters.wait_buckets, 50.0).round() as u64,
                p95_wait_us: percentile_from_buckets(&counters.wait_buckets, 95.0).round() as u64,
                p99_wait_us: percentile_from_buckets(&counters.wait_buckets, 99.0).round() as u64,
                wait_buckets: counters.wait_buckets,
            })
            .collect();
        tenants.sort_by_key(|lane| lane.tenant);
        tenants
    }
}

/// Point-in-time scheduling counters of one tenant. Queue-wait
/// percentiles are histogram-interpolated and rounded to whole
/// microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLane {
    /// The tenant the lane belongs to.
    pub tenant: TenantId,
    /// Requests admitted past the scheduler.
    pub admitted: u64,
    /// Requests shed by admission control (queue capacity, token bucket
    /// or queue share).
    pub shed_quota: u64,
    /// Requests shed for their deadline (exhausted at admission or
    /// expired while queued).
    pub shed_deadline: u64,
    /// Drained micro-batches containing at least one of the tenant's
    /// requests.
    pub batches_formed: u64,
    /// Median queue wait (µs).
    pub p50_wait_us: u64,
    /// 95th-percentile queue wait (µs).
    pub p95_wait_us: u64,
    /// 99th-percentile queue wait (µs).
    pub p99_wait_us: u64,
    /// The raw power-of-two queue-wait histogram behind the percentiles.
    /// Carried in the snapshot so cross-shard aggregation can sum
    /// histograms bucket-wise and recompute percentiles over the merged
    /// distribution — taking the max (or average) of per-shard
    /// percentiles is statistically wrong whenever shards see different
    /// latency regimes.
    pub wait_buckets: [u64; BUCKETS],
}

impl TenantLane {
    /// Fold another shard's lane for the same tenant into this one:
    /// counters sum, histograms sum bucket-wise, and the percentiles are
    /// recomputed from the merged histogram.
    pub fn merge_from(&mut self, other: &TenantLane) {
        debug_assert_eq!(self.tenant, other.tenant, "merging lanes across tenants");
        self.admitted += other.admitted;
        self.shed_quota += other.shed_quota;
        self.shed_deadline += other.shed_deadline;
        self.batches_formed += other.batches_formed;
        for (mine, theirs) in self.wait_buckets.iter_mut().zip(other.wait_buckets.iter()) {
            *mine += *theirs;
        }
        self.p50_wait_us = percentile_from_buckets(&self.wait_buckets, 50.0).round() as u64;
        self.p95_wait_us = percentile_from_buckets(&self.wait_buckets, 95.0).round() as u64;
        self.p99_wait_us = percentile_from_buckets(&self.wait_buckets, 99.0).round() as u64;
    }
}

/// Point-in-time replication health of one process, surfaced through
/// `GatewayStats` so an operator can see replication loss (silently
/// dropped ship events) and revival catch-up work at a glance. Filled by
/// the network layer's replicator; a process without replication reports
/// all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationHealth {
    /// Ship frames written to a peer socket.
    pub ships_sent: u64,
    /// Ship frames the peer validated and applied.
    pub ships_acked: u64,
    /// Ship frames the peer rejected (codec validation or store failure
    /// on the far side — the payload was delivered but not applied).
    pub ships_rejected: u64,
    /// Ship events lost: the bounded ship queue overflowed, an event
    /// exceeded the wire cap, or a peer was unreachable for the whole
    /// round. Every drop is replication loss an anti-entropy pass has to
    /// repair later, so a non-zero value is an operator signal to widen
    /// the queue or slow publication.
    pub ships_dropped: u64,
    /// Heartbeat probes that failed to connect or whose catch-up broke
    /// (each marks the peer dead in the shared liveness mask).
    pub probe_failures: u64,
    /// Manifest replies received from revived peers (one per catch-up
    /// handshake round-trip).
    pub manifests_exchanged: u64,
    /// Divergent or missing keys re-shipped during revival catch-up.
    pub keys_reshipped: u64,
    /// Dead→alive transitions fully processed: the peer's manifest was
    /// diffed, divergent keys re-shipped, and the peer promoted back into
    /// the alive mask.
    pub revivals: u64,
}

/// A point-in-time view of [`ServiceMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Completed requests per second since service start.
    pub throughput_qps: f64,
    /// Mean end-to-end latency (µs).
    pub mean_latency_us: f64,
    /// Median end-to-end latency (µs, histogram-interpolated).
    pub p50_latency_us: f64,
    /// 95th-percentile latency (µs).
    pub p95_latency_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_latency_us: f64,
    /// Queue depth at the last event.
    pub queue_depth: usize,
    /// Maximum queue depth observed.
    pub queue_high_water: usize,
    /// Live snapshot swaps performed by online refinement.
    pub snapshot_swaps: u64,
    /// Micro-batches drained (with [`MetricsSnapshot::completed`], the
    /// mean batch over any window of two snapshots).
    pub batches: u64,
    /// Mean requests per drained micro-batch.
    pub mean_batch_size: f64,
    /// Largest micro-batch drained.
    pub max_batch_size: usize,
    /// Encoding-cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Per-tenant scheduling lanes, sorted by tenant id. Empty for a
    /// service that tracked no tenants (the legacy single-tenant case).
    pub tenants: Vec<TenantLane>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_into_snapshot() {
        let m = ServiceMetrics::new();
        m.record_submit(1);
        m.record_submit(2);
        m.record_submit(3);
        m.record_reject();
        m.record_batch(2, 1);
        m.record_cache(true);
        m.record_cache(false);
        m.record_completion(100.0);
        m.record_completion(200.0);
        let s = m.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.completed, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.queue_high_water, 3);
        assert_eq!(s.batches, 1);
        assert_eq!(s.mean_batch_size, 2.0);
        assert_eq!(s.max_batch_size, 2);
        assert_eq!(s.cache_hit_rate, 0.5);
        assert_eq!(s.mean_latency_us, 150.0);
        assert!(s.throughput_qps > 0.0);
    }

    #[test]
    fn percentiles_bracket_recorded_latencies() {
        let m = ServiceMetrics::new();
        // 90 fast requests (~64us) and 10 slow ones (~8192us)
        for _ in 0..90 {
            m.record_completion(64.0);
        }
        for _ in 0..10 {
            m.record_completion(8192.0);
        }
        let s = m.snapshot();
        assert!(
            s.p50_latency_us >= 64.0 && s.p50_latency_us < 256.0,
            "p50 {}",
            s.p50_latency_us
        );
        assert!(s.p99_latency_us >= 8192.0, "p99 {}", s.p99_latency_us);
        assert!(s.p50_latency_us <= s.p95_latency_us);
        assert!(s.p95_latency_us <= s.p99_latency_us);
    }

    #[test]
    fn empty_metrics_snapshot_is_all_zero() {
        let s = ServiceMetrics::new().snapshot();
        assert_eq!(s.completed, 0);
        assert_eq!(s.mean_latency_us, 0.0);
        assert_eq!(s.p50_latency_us, 0.0);
        assert_eq!(s.cache_hit_rate, 0.0);
        assert_eq!(s.mean_batch_size, 0.0);
    }

    #[test]
    fn tenant_lanes_aggregate_and_sort_by_id() {
        let m = ServiceMetrics::new();
        assert!(m.snapshot().tenants.is_empty(), "no lanes until recorded");
        m.record_tenant_admit(TenantId(2));
        m.record_tenant_admit(TenantId(2));
        m.record_tenant_shed_quota(TenantId(2));
        m.record_tenant_batch(TenantId(2));
        m.record_tenant_wait(TenantId(2), 100.0);
        m.record_tenant_wait(TenantId(2), 100.0);
        m.record_tenant_shed_deadline(TenantId(1));
        let s = m.snapshot();
        assert_eq!(s.tenants.len(), 2);
        assert_eq!(s.tenants[0].tenant, TenantId(1));
        assert_eq!(s.tenants[0].shed_deadline, 1);
        let lane = s.tenants[1];
        assert_eq!(lane.tenant, TenantId(2));
        assert_eq!(lane.admitted, 2);
        assert_eq!(lane.shed_quota, 1);
        assert_eq!(lane.batches_formed, 1);
        assert!(
            lane.p50_wait_us >= 64 && lane.p50_wait_us < 256,
            "p50 wait {} brackets the recorded 100us",
            lane.p50_wait_us
        );
        assert!(lane.p99_wait_us >= lane.p50_wait_us);
    }

    #[test]
    fn cross_shard_merge_sums_histograms_in_disjoint_regimes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x51ab);
        let tenant = TenantId(7);
        for case in 0..200 {
            // Two shards in disjoint latency regimes: one entirely fast
            // (µs-scale waits), one entirely slow (tens of ms).
            let fast = ServiceMetrics::new();
            let slow = ServiceMetrics::new();
            let n_fast = rng.gen_range(1..200usize);
            let n_slow = rng.gen_range(1..200usize);
            for _ in 0..n_fast {
                fast.record_tenant_admit(tenant);
                fast.record_tenant_wait(tenant, rng.gen_range(8.0..64.0));
            }
            for _ in 0..n_slow {
                slow.record_tenant_admit(tenant);
                slow.record_tenant_wait(tenant, rng.gen_range(65_536.0..1_048_576.0));
            }
            let fast_lane = fast.snapshot().tenants[0];
            let slow_lane = slow.snapshot().tenants[0];
            let mut merged = fast_lane;
            merged.merge_from(&slow_lane);

            // The merged percentiles must equal percentiles over the
            // bucket-wise pooled histogram — never the max (or average)
            // of per-shard percentiles.
            let mut pooled = [0u64; BUCKETS];
            for (i, bucket) in pooled.iter_mut().enumerate() {
                *bucket = fast_lane.wait_buckets[i] + slow_lane.wait_buckets[i];
            }
            assert_eq!(merged.wait_buckets, pooled, "case {case}");
            assert_eq!(merged.admitted, (n_fast + n_slow) as u64, "case {case}");
            for p in [50.0, 95.0, 99.0] {
                let want = percentile_from_buckets(&pooled, p).round() as u64;
                let got = match p as u64 {
                    50 => merged.p50_wait_us,
                    95 => merged.p95_wait_us,
                    _ => merged.p99_wait_us,
                };
                assert_eq!(got, want, "case {case} p{p}");
            }
            assert!(merged.p50_wait_us <= merged.p95_wait_us, "case {case}");
            assert!(merged.p95_wait_us <= merged.p99_wait_us, "case {case}");

            // The regression shape: a minority slow shard must not drag
            // the merged median into the slow regime, which is exactly
            // what a `.max()` merge of per-shard p50s did.
            if 2 * n_slow < n_fast {
                assert!(
                    merged.p50_wait_us < 1024,
                    "case {case}: median {}µs leaked into the slow regime \
                     (max-style merge would report {}µs)",
                    merged.p50_wait_us,
                    fast_lane.p50_wait_us.max(slow_lane.p50_wait_us)
                );
            }
        }
    }

    #[test]
    fn sub_microsecond_latencies_land_in_the_first_bucket() {
        let m = ServiceMetrics::new();
        m.record_completion(0.0);
        m.record_completion(0.4);
        let s = m.snapshot();
        assert_eq!(s.completed, 2);
        assert!(s.p50_latency_us <= 2.0);
    }
}
