//! Multi-tenant admission control and deadline-aware micro-batch
//! scheduling: the policy layer between [`ServiceHandle`] submission and
//! the worker pool.
//!
//! The subsystem has two halves, both driven by explicit `now: Instant`
//! arguments so every decision is deterministic under test (virtual
//! clocks) and cheap in production (one `Instant::now()` per call site,
//! taken under the queue lock the service already holds):
//!
//! * [`AdmissionControl`] — per-tenant token buckets (sustained rate +
//!   burst) and bounded per-tenant queue shares. Over-quota submissions
//!   are rejected *immediately* with a typed error carrying the observed
//!   depth and the configured limit; they are never parked.
//! * [`EdfQueue`] — earliest-deadline-first ordering for admitted
//!   requests. Deadline-carrying entries pop in `(deadline, seq)` order;
//!   deadline-less entries sort last, FIFO among themselves, but a
//!   starvation guard ages them into the front once they have waited
//!   [`SchedPolicy::age_after`]. Entries whose deadline has already
//!   passed are not served: they surface as [`Popped::Expired`] so the
//!   worker can fail them typed instead of burning inference cycles on
//!   answers nobody can use.
//!
//! Both halves are configured by one [`SchedPolicy`]. The default policy
//! is **disabled**: every entry (even one carrying a deadline) is queued
//! FIFO, no quota is enforced and nothing expires at pop — bit-for-bit
//! the pre-scheduling service behaviour, so existing single-tenant
//! callers are untouched until a deployment opts in via
//! `GatewayBuilder::scheduling`.
//!
//! [`ServiceHandle`]: crate::service::ServiceHandle

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// A tenant identity carried on every request. `0` is the anonymous /
/// default tenant: all pre-scheduling callers land there, and the QCFP
/// wire codec encodes it as "no tenant tag".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The default tenant of every request that does not name one.
    pub const ANONYMOUS: TenantId = TenantId(0);

    /// Whether this is the anonymous/default tenant.
    pub fn is_anonymous(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_anonymous() {
            write!(f, "tenant(anonymous)")
        } else {
            write!(f, "tenant({})", self.0)
        }
    }
}

/// Per-tenant admission limits: a token bucket (sustained `rate_per_s`
/// with `burst` capacity) plus a bound on how many of the tenant's
/// requests may occupy the queue at once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Sustained admissions per second refilled into the bucket.
    /// `f64::INFINITY` disables rate limiting.
    pub rate_per_s: f64,
    /// Bucket capacity: the largest instantaneous burst admitted after an
    /// idle period. `f64::INFINITY` disables rate limiting.
    pub burst: f64,
    /// Maximum queued-but-undrained requests the tenant may hold
    /// (its share of the bounded queue). `usize::MAX` disables the bound.
    pub max_queued: usize,
}

impl TenantQuota {
    /// No limits: every submission is admitted (capacity permitting).
    pub fn unlimited() -> Self {
        TenantQuota {
            rate_per_s: f64::INFINITY,
            burst: f64::INFINITY,
            max_queued: usize::MAX,
        }
    }

    /// A bounded quota.
    pub fn new(rate_per_s: f64, burst: f64, max_queued: usize) -> Self {
        TenantQuota {
            rate_per_s,
            burst,
            max_queued,
        }
    }

    /// The bucket capacity the token bucket actually enforces. A finite
    /// `burst` is used as-is; a non-finite `burst` (infinite or NaN)
    /// combined with a *finite* rate defaults to one second of refill
    /// (at least one request) so the sustained rate still limits — a
    /// tenant must never escape a finite rate by configuring an infinite
    /// burst. Only with the rate non-finite too is the bucket unbounded.
    pub fn effective_burst(&self) -> f64 {
        if self.burst.is_finite() {
            self.burst
        } else if self.rate_per_s.is_finite() {
            self.rate_per_s.max(1.0)
        } else {
            f64::INFINITY
        }
    }

    /// The bucket capacity as a request count, for `QueueFull { limit }`
    /// faults. Well-defined for every quota: non-finite capacities report
    /// `usize::MAX` (unlimited) instead of relying on float-cast
    /// saturation of `ceil()` on infinity or NaN.
    pub fn limit_requests(&self) -> usize {
        let cap = self.effective_burst();
        if cap.is_finite() {
            cap.max(0.0).ceil() as usize
        } else {
            usize::MAX
        }
    }
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota::unlimited()
    }
}

/// The scheduling policy of one estimation service: whether the
/// admission/EDF pipeline is active, the per-tenant quotas, and the
/// starvation guard for deadline-less requests.
#[derive(Debug, Clone)]
pub struct SchedPolicy {
    /// Master switch. Disabled (the default) preserves the original blind
    /// FIFO service: no quotas, no deadline ordering, no expiry at pop.
    pub enabled: bool,
    /// How long a deadline-less entry may wait behind deadline-carrying
    /// entries before the starvation guard ages it into the front.
    pub age_after: Duration,
    /// Per-tenant quotas; a tenant without an entry (the anonymous one
    /// included) is unlimited.
    quotas: Vec<(TenantId, TenantQuota)>,
}

impl SchedPolicy {
    /// The legacy policy: scheduling disabled, plain FIFO.
    pub fn fifo() -> Self {
        SchedPolicy {
            enabled: false,
            age_after: Duration::from_millis(25),
            quotas: Vec::new(),
        }
    }

    /// Admission control + EDF enabled with no quotas configured yet.
    pub fn edf() -> Self {
        SchedPolicy {
            enabled: true,
            ..SchedPolicy::fifo()
        }
    }

    /// Set the quota of one tenant (replacing any earlier entry).
    pub fn with_quota(mut self, tenant: TenantId, quota: TenantQuota) -> Self {
        self.quotas.retain(|(t, _)| *t != tenant);
        self.quotas.push((tenant, quota));
        self
    }

    /// Set the starvation-guard bound for deadline-less entries.
    pub fn with_age_after(mut self, age_after: Duration) -> Self {
        self.age_after = age_after;
        self
    }

    /// The quota governing `tenant`: its own entry, else unlimited.
    pub fn quota_for(&self, tenant: TenantId) -> TenantQuota {
        self.quotas
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(TenantQuota::unlimited(), |(_, q)| *q)
    }
}

impl Default for SchedPolicy {
    fn default() -> Self {
        SchedPolicy::fifo()
    }
}

/// Why admission refused a submission. Both variants carry the observed
/// per-tenant queue depth and the limit that tripped, so the service can
/// surface them through the enriched `QueueFull { depth, limit }` fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The tenant's token bucket is empty: sustained rate exceeded. The
    /// limit reported is the bucket's burst capacity in requests.
    RateExceeded { depth: usize, limit: usize },
    /// The tenant already holds its whole queue share.
    ShareExhausted { depth: usize, limit: usize },
}

impl AdmitError {
    /// The observed per-tenant queue depth at rejection time.
    pub fn depth(self) -> usize {
        match self {
            AdmitError::RateExceeded { depth, .. } | AdmitError::ShareExhausted { depth, .. } => {
                depth
            }
        }
    }

    /// The configured limit that tripped.
    pub fn limit(self) -> usize {
        match self {
            AdmitError::RateExceeded { limit, .. } | AdmitError::ShareExhausted { limit, .. } => {
                limit
            }
        }
    }
}

struct LaneState {
    tokens: f64,
    refilled_at: Instant,
    queued: usize,
}

/// Per-tenant token buckets and queue-share accounting. One instance
/// lives inside the service's queue mutex; `try_admit` runs at submit,
/// `release` when a worker pops the entry (served or expired).
#[derive(Default)]
pub struct AdmissionControl {
    lanes: HashMap<TenantId, LaneState>,
}

impl AdmissionControl {
    pub fn new() -> Self {
        AdmissionControl::default()
    }

    /// Admit one submission from `tenant` under `quota` at time `now`, or
    /// reject it immediately — admission never blocks. A fresh tenant
    /// starts with a full bucket (`quota.burst` tokens).
    pub fn try_admit(
        &mut self,
        tenant: TenantId,
        quota: &TenantQuota,
        now: Instant,
    ) -> Result<(), AdmitError> {
        let cap = quota.effective_burst();
        let lane = self.lanes.entry(tenant).or_insert_with(|| LaneState {
            tokens: if cap.is_finite() { cap } else { f64::MAX },
            refilled_at: now,
            queued: 0,
        });
        if quota.rate_per_s.is_finite() {
            // A finite rate limits regardless of the configured burst:
            // with a non-finite burst the bucket cap merely defaults to
            // one second of refill (`effective_burst`). The old
            // both-finite condition let `rate + infinite burst` pin the
            // bucket at `f64::MAX` and disabled rate limiting entirely.
            let dt = now
                .saturating_duration_since(lane.refilled_at)
                .as_secs_f64();
            lane.tokens = (lane.tokens + dt * quota.rate_per_s).min(cap);
        } else {
            // Unlimited rate: keep the bucket brim-full (finite, so the
            // arithmetic below can never produce NaN).
            lane.tokens = f64::MAX;
        }
        lane.refilled_at = now;
        if lane.queued >= quota.max_queued {
            return Err(AdmitError::ShareExhausted {
                depth: lane.queued,
                limit: quota.max_queued,
            });
        }
        if lane.tokens < 1.0 {
            return Err(AdmitError::RateExceeded {
                depth: lane.queued,
                limit: quota.limit_requests(),
            });
        }
        lane.tokens -= 1.0;
        lane.queued += 1;
        Ok(())
    }

    /// Return one queue slot to `tenant` (its entry left the queue).
    pub fn release(&mut self, tenant: TenantId) {
        if let Some(lane) = self.lanes.get_mut(&tenant) {
            lane.queued = lane.queued.saturating_sub(1);
        }
    }

    /// The tenant's current queued-but-undrained count.
    pub fn queued(&self, tenant: TenantId) -> usize {
        self.lanes.get(&tenant).map_or(0, |lane| lane.queued)
    }
}

/// One queued entry with its scheduling envelope.
#[derive(Debug)]
pub struct EdfEntry<T> {
    pub item: T,
    pub tenant: TenantId,
    /// Absolute deadline; `None` sorts last (FIFO among themselves).
    pub deadline: Option<Instant>,
    pub enqueued_at: Instant,
    /// Global submission sequence number — the FIFO tiebreak.
    pub seq: u64,
}

/// Result of one [`EdfQueue::pop`].
#[derive(Debug)]
pub enum Popped<T> {
    /// The entry should be served.
    Ready(EdfEntry<T>),
    /// The entry's deadline passed while it was queued: drop it with the
    /// typed deadline fault instead of running inference for it.
    Expired(EdfEntry<T>),
}

/// Heap node ordered by `(deadline, seq)`; the payload does not
/// participate in the ordering.
struct Deadlined<T> {
    deadline: Instant,
    entry: EdfEntry<T>,
}

impl<T> Deadlined<T> {
    fn key(&self) -> (Instant, u64) {
        (self.deadline, self.entry.seq)
    }
}

impl<T> PartialEq for Deadlined<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Deadlined<T> {}

impl<T> PartialOrd for Deadlined<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Deadlined<T> {
    /// Reversed so `BinaryHeap` (a max-heap) pops the *earliest*
    /// `(deadline, seq)` first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// The earliest-deadline-first queue. Deadline-carrying entries pop in
/// `(deadline, submission seq)` order; deadline-less entries pop FIFO
/// after them, unless the starvation guard (`age_after` on pop) promotes
/// an old one to the front. All time comes in through `now` parameters —
/// the queue never reads the clock itself.
pub struct EdfQueue<T> {
    deadlined: BinaryHeap<Deadlined<T>>,
    fifo: VecDeque<EdfEntry<T>>,
    next_seq: u64,
}

impl<T> Default for EdfQueue<T> {
    fn default() -> Self {
        EdfQueue::new()
    }
}

impl<T> EdfQueue<T> {
    pub fn new() -> Self {
        EdfQueue {
            deadlined: BinaryHeap::new(),
            fifo: VecDeque::new(),
            next_seq: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.deadlined.len() + self.fifo.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue one entry submitted at `now`. Returns its sequence number.
    pub fn push(
        &mut self,
        item: T,
        tenant: TenantId,
        deadline: Option<Instant>,
        now: Instant,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = EdfEntry {
            item,
            tenant,
            deadline,
            enqueued_at: now,
            seq,
        };
        match deadline {
            Some(deadline) => self.deadlined.push(Deadlined { deadline, entry }),
            None => self.fifo.push_back(entry),
        }
        seq
    }

    /// Pop the next entry to act on at time `now`:
    ///
    /// 1. a deadline-less entry that has waited ≥ `age_after` (the
    ///    starvation guard) — oldest first;
    /// 2. otherwise the earliest-deadline entry, tagged
    ///    [`Popped::Expired`] if its deadline already passed;
    /// 3. otherwise the oldest deadline-less entry.
    pub fn pop(&mut self, now: Instant, age_after: Duration) -> Option<Popped<T>> {
        if let Some(front) = self.fifo.front() {
            let aged = now.saturating_duration_since(front.enqueued_at) >= age_after;
            if aged || self.deadlined.is_empty() {
                return self.fifo.pop_front().map(Popped::Ready);
            }
        }
        if let Some(next) = self.deadlined.pop() {
            if next.deadline <= now {
                return Some(Popped::Expired(next.entry));
            }
            return Some(Popped::Ready(next.entry));
        }
        None
    }

    /// Remove and return every queued entry (shutdown/abort path; order
    /// is unspecified).
    pub fn drain_all(&mut self) -> Vec<EdfEntry<T>> {
        let mut out: Vec<EdfEntry<T>> = self.fifo.drain(..).collect();
        out.extend(self.deadlined.drain().map(|d| d.entry));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Instant {
        Instant::now()
    }

    const AGE: Duration = Duration::from_millis(25);

    #[test]
    fn deadlines_pop_earliest_first_with_seq_tiebreak() {
        let base = t0();
        let mut q = EdfQueue::new();
        q.push(
            "late",
            TenantId(1),
            Some(base + Duration::from_millis(30)),
            base,
        );
        q.push(
            "early",
            TenantId(2),
            Some(base + Duration::from_millis(10)),
            base,
        );
        q.push(
            "tie-a",
            TenantId(3),
            Some(base + Duration::from_millis(20)),
            base,
        );
        q.push(
            "tie-b",
            TenantId(3),
            Some(base + Duration::from_millis(20)),
            base,
        );
        let mut order = Vec::new();
        while let Some(Popped::Ready(e)) = q.pop(base, AGE) {
            order.push(e.item);
        }
        assert_eq!(order, vec!["early", "tie-a", "tie-b", "late"]);
    }

    #[test]
    fn deadline_less_entries_sort_last_fifo() {
        let base = t0();
        let mut q = EdfQueue::new();
        q.push("fifo-1", TenantId::ANONYMOUS, None, base);
        q.push(
            "edf",
            TenantId(1),
            Some(base + Duration::from_secs(1)),
            base,
        );
        q.push("fifo-2", TenantId::ANONYMOUS, None, base);
        let mut order = Vec::new();
        while let Some(Popped::Ready(e)) = q.pop(base, AGE) {
            order.push(e.item);
        }
        assert_eq!(order, vec!["edf", "fifo-1", "fifo-2"]);
    }

    #[test]
    fn starvation_guard_ages_deadline_less_entries_into_the_front() {
        let base = t0();
        let mut q = EdfQueue::new();
        q.push("old-fifo", TenantId::ANONYMOUS, None, base);
        q.push(
            "edf",
            TenantId(1),
            Some(base + Duration::from_secs(5)),
            base,
        );
        // Before the aging bound the deadline entry wins; at the bound the
        // starved FIFO entry jumps ahead of it.
        let now = base + AGE;
        match q.pop(now, AGE) {
            Some(Popped::Ready(e)) => assert_eq!(e.item, "old-fifo"),
            other => panic!("expected the aged FIFO entry, got {other:?}"),
        }
        match q.pop(now, AGE) {
            Some(Popped::Ready(e)) => assert_eq!(e.item, "edf"),
            other => panic!("expected the deadline entry, got {other:?}"),
        }
    }

    #[test]
    fn expired_entries_surface_as_expired_not_ready() {
        let base = t0();
        let mut q = EdfQueue::new();
        q.push(
            "dead",
            TenantId(1),
            Some(base + Duration::from_millis(1)),
            base,
        );
        q.push(
            "alive",
            TenantId(1),
            Some(base + Duration::from_secs(5)),
            base,
        );
        let now = base + Duration::from_millis(2);
        match q.pop(now, AGE) {
            Some(Popped::Expired(e)) => assert_eq!(e.item, "dead"),
            other => panic!("expected an expired pop, got {other:?}"),
        }
        match q.pop(now, AGE) {
            Some(Popped::Ready(e)) => assert_eq!(e.item, "alive"),
            other => panic!("expected a ready pop, got {other:?}"),
        }
    }

    #[test]
    fn token_bucket_admits_burst_then_rate() {
        let base = t0();
        let quota = TenantQuota::new(10.0, 2.0, usize::MAX);
        let mut admission = AdmissionControl::new();
        let tenant = TenantId(7);
        // Full bucket: the burst is admitted.
        assert!(admission.try_admit(tenant, &quota, base).is_ok());
        assert!(admission.try_admit(tenant, &quota, base).is_ok());
        // Bucket empty, no time elapsed: typed rate rejection.
        match admission.try_admit(tenant, &quota, base) {
            Err(AdmitError::RateExceeded { limit, .. }) => assert_eq!(limit, 2),
            other => panic!("expected RateExceeded, got {other:?}"),
        }
        // 100 ms at 10/s refills one token.
        assert!(admission
            .try_admit(tenant, &quota, base + Duration::from_millis(100))
            .is_ok());
    }

    #[test]
    fn queue_share_bounds_queued_entries_and_release_returns_slots() {
        let base = t0();
        let quota = TenantQuota::new(f64::INFINITY, f64::INFINITY, 2);
        let mut admission = AdmissionControl::new();
        let tenant = TenantId(9);
        assert!(admission.try_admit(tenant, &quota, base).is_ok());
        assert!(admission.try_admit(tenant, &quota, base).is_ok());
        match admission.try_admit(tenant, &quota, base) {
            Err(AdmitError::ShareExhausted { depth, limit }) => {
                assert_eq!((depth, limit), (2, 2));
            }
            other => panic!("expected ShareExhausted, got {other:?}"),
        }
        admission.release(tenant);
        assert_eq!(admission.queued(tenant), 1);
        assert!(admission.try_admit(tenant, &quota, base).is_ok());
    }

    #[test]
    fn finite_rate_with_infinite_burst_still_rate_limits() {
        // Regression: the bucket only refilled when *both* rate and burst
        // were finite, and an infinite burst seeded `tokens = f64::MAX` —
        // a finite rate with an infinite burst therefore never rejected.
        let base = t0();
        let quota = TenantQuota::new(5.0, f64::INFINITY, usize::MAX);
        let mut admission = AdmissionControl::new();
        let tenant = TenantId(3);
        // The effective bucket is one second of refill: five admissions.
        for i in 0..5 {
            assert!(
                admission.try_admit(tenant, &quota, base).is_ok(),
                "admission {i} fits the one-second bucket"
            );
        }
        match admission.try_admit(tenant, &quota, base) {
            Err(AdmitError::RateExceeded { limit, .. }) => assert_eq!(limit, 5),
            other => panic!("expected RateExceeded, got {other:?}"),
        }
        // 400 ms at 5/s refills two tokens — and only two.
        let later = base + Duration::from_millis(400);
        assert!(admission.try_admit(tenant, &quota, later).is_ok());
        assert!(admission.try_admit(tenant, &quota, later).is_ok());
        assert!(matches!(
            admission.try_admit(tenant, &quota, later),
            Err(AdmitError::RateExceeded { .. })
        ));
    }

    #[test]
    fn non_finite_burst_limits_are_well_defined() {
        // `limit_requests` replaces the raw `burst.ceil() as usize`,
        // which was ill-defined for infinity and NaN bursts.
        assert_eq!(TenantQuota::new(3.2, f64::INFINITY, 4).limit_requests(), 4);
        assert_eq!(TenantQuota::new(3.2, f64::NAN, 4).limit_requests(), 4);
        assert_eq!(TenantQuota::new(0.4, f64::INFINITY, 4).limit_requests(), 1);
        assert_eq!(TenantQuota::new(f64::INFINITY, 7.5, 1).limit_requests(), 8);
        assert_eq!(TenantQuota::unlimited().limit_requests(), usize::MAX);
        assert!(TenantQuota::unlimited().effective_burst().is_infinite());

        // A NaN burst behaves exactly like an infinite one: the finite
        // rate still limits.
        let base = t0();
        let quota = TenantQuota::new(2.0, f64::NAN, usize::MAX);
        let mut admission = AdmissionControl::new();
        assert!(admission.try_admit(TenantId(4), &quota, base).is_ok());
        assert!(admission.try_admit(TenantId(4), &quota, base).is_ok());
        assert!(matches!(
            admission.try_admit(TenantId(4), &quota, base),
            Err(AdmitError::RateExceeded { limit: 2, .. })
        ));
    }

    #[test]
    fn unlimited_quota_never_rejects() {
        let base = t0();
        let quota = TenantQuota::unlimited();
        let mut admission = AdmissionControl::new();
        for i in 0..10_000 {
            assert!(admission
                .try_admit(TenantId(1), &quota, base + Duration::from_micros(i))
                .is_ok());
        }
    }

    #[test]
    fn policy_quota_lookup_falls_back_to_default() {
        let policy = SchedPolicy::edf().with_quota(TenantId(1), TenantQuota::new(5.0, 5.0, 8));
        assert_eq!(policy.quota_for(TenantId(1)).max_queued, 8);
        // A tenant without an entry, the anonymous one included, is
        // unlimited.
        assert_eq!(policy.quota_for(TenantId(2)), TenantQuota::unlimited());
        assert_eq!(
            policy.quota_for(TenantId::ANONYMOUS),
            TenantQuota::unlimited()
        );
        // Re-setting a tenant replaces its entry.
        let policy = policy.with_quota(TenantId(1), TenantQuota::unlimited());
        assert_eq!(policy.quota_for(TenantId(1)).max_queued, usize::MAX);
    }
}
