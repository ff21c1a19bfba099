//! Acceptance tests of the `qcfe-sched` subsystem: a seeded 1000-case
//! property sweep of the EDF queue + admission control against an
//! independent sorted reference model, the gateway-level multi-tenant
//! pipeline (typed quota sheds, typed deadline expiry, untouched
//! FIFO-default behaviour), and the client's opt-in shed-backoff /
//! reconnect retry loop over live sockets.

use qcfe::core::cost_model::{CostModel, PlanEncoding};
use qcfe::core::encoding::FeatureEncoder;
use qcfe::core::estimators::MscnEstimator;
use qcfe::core::pipeline::{prepare_context, ContextConfig, EstimatorKind, ExperimentContext};
use qcfe::core::snapshot::FeatureSnapshot;
use qcfe::db::env::DbEnvironment;
use qcfe::db::plan::{PhysicalOp, PlanNode};
use qcfe::net::client::{ClientError, QcfeClient, RetryPolicy};
use qcfe::net::server::NetServerBuilder;
use qcfe::net::wire::{self, Frame, WireEstimate, WireFault, WireResponse};
use qcfe::serve::prelude::*;
use qcfe::serve::sched::{AdmissionControl, EdfQueue, Popped};
use qcfe::serve::SnapshotOrigin;
use qcfe::workloads::{run_multi_tenant_mix, BenchmarkKind, SubmitError, TenantLoad};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KIND: BenchmarkKind = BenchmarkKind::Sysbench;

/// Same case count as the `QCFP` and `QCFW` codec sweeps: the acceptance
/// bar for the scheduler is "any interleaving, the reference model's
/// order; any quota, never exceeded; any expiry, typed".
const SCHED_CASES: usize = 1000;

// ---------------------------------------------------------------------------
// Property sweep: EDF pop order + admission shares vs a reference model.
// ---------------------------------------------------------------------------

/// The reference model: plain sorted lists, re-deriving the documented
/// pop contract independently of the heap + ring-buffer implementation.
struct ReferenceQueue {
    /// `(deadline, seq)`-sorted deadline-carrying entries.
    deadlined: Vec<(Duration, u64)>,
    /// seq-ordered deadline-less entries with their enqueue offsets.
    fifo: Vec<(Duration, u64)>,
}

enum ExpectedPop {
    Ready(u64),
    Expired(u64),
    Empty,
}

impl ReferenceQueue {
    fn push(&mut self, seq: u64, deadline: Option<Duration>, at: Duration) {
        match deadline {
            Some(deadline) => {
                self.deadlined.push((deadline, seq));
                self.deadlined.sort();
            }
            None => self.fifo.push((at, seq)),
        }
    }

    /// The documented contract: an aged FIFO entry first, then the
    /// earliest `(deadline, seq)` (expired if its deadline passed), then
    /// the oldest FIFO entry.
    fn pop(&mut self, now: Duration, age_after: Duration) -> ExpectedPop {
        if let Some(&(enqueued_at, seq)) = self.fifo.first() {
            let aged = now.saturating_sub(enqueued_at) >= age_after;
            if aged || self.deadlined.is_empty() {
                self.fifo.remove(0);
                return ExpectedPop::Ready(seq);
            }
        }
        if !self.deadlined.is_empty() {
            let (deadline, seq) = self.deadlined.remove(0);
            if deadline <= now {
                return ExpectedPop::Expired(seq);
            }
            return ExpectedPop::Ready(seq);
        }
        ExpectedPop::Empty
    }
}

/// 1000 seeded interleavings of pushes, pops and quota churn: every pop
/// matches the sorted reference model (EDF order, FIFO-last, aging bound,
/// expired surfaced typed, never served silently), and no tenant's
/// queued share ever exceeds its configured bound.
#[test]
fn edf_queue_and_admission_match_the_reference_model_for_1000_seeded_cases() {
    let mut rng = StdRng::seed_from_u64(0x5CED);
    for case in 0..SCHED_CASES {
        let base = Instant::now();
        let age_after = Duration::from_millis(rng.gen_range(1..=50));
        // Four tenants with random queue shares; rate limiting is exercised
        // separately below (its f64 token arithmetic has no independent
        // integer model).
        let shares: Vec<usize> = (0..4).map(|_| rng.gen_range(0..=5)).collect();
        let quotas: Vec<TenantQuota> = shares
            .iter()
            .map(|&s| TenantQuota::new(f64::INFINITY, f64::INFINITY, s))
            .collect();

        let mut queue: EdfQueue<()> = EdfQueue::new();
        let mut admission = AdmissionControl::new();
        let mut reference = ReferenceQueue {
            deadlined: Vec::new(),
            fifo: Vec::new(),
        };
        let mut queued_by_tenant = [0usize; 4];
        let mut clock = Duration::ZERO;
        let mut tenant_of: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();

        for _ in 0..rng.gen_range(1usize..=40) {
            clock += Duration::from_micros(rng.gen_range(0..=5_000));
            let now = base + clock;
            if rng.gen_bool(0.6) {
                // Push through admission, mirroring the share bound.
                let t = rng.gen_range(0usize..4);
                let admit = admission.try_admit(TenantId(t as u32 + 1), &quotas[t], now);
                if queued_by_tenant[t] >= shares[t] {
                    let err = admit.expect_err("share exhausted must reject");
                    assert_eq!(err.depth(), queued_by_tenant[t], "case {case}");
                    assert_eq!(err.limit(), shares[t], "case {case}");
                    continue;
                }
                admit.expect("under-share submission must admit");
                queued_by_tenant[t] += 1;
                let deadline = rng
                    .gen_bool(0.7)
                    .then(|| clock + Duration::from_micros(rng.gen_range(0..=20_000)));
                let seq = queue.push((), TenantId(t as u32 + 1), deadline.map(|d| base + d), now);
                tenant_of.insert(seq, t);
                reference.push(seq, deadline, clock);
            } else {
                let popped = queue.pop(now, age_after);
                match (popped, reference.pop(clock, age_after)) {
                    (None, ExpectedPop::Empty) => {}
                    (Some(Popped::Ready(e)), ExpectedPop::Ready(seq)) => {
                        assert_eq!(e.seq, seq, "case {case}: pop order diverged");
                        if let Some(deadline) = e.deadline {
                            assert!(deadline > now, "case {case}: expired entry served");
                        }
                        release(&mut admission, &mut queued_by_tenant, &tenant_of, e.seq);
                    }
                    (Some(Popped::Expired(e)), ExpectedPop::Expired(seq)) => {
                        assert_eq!(e.seq, seq, "case {case}: expired order diverged");
                        let deadline = e.deadline.expect("expired entries carry deadlines");
                        assert!(deadline <= now, "case {case}: live entry expired");
                        release(&mut admission, &mut queued_by_tenant, &tenant_of, e.seq);
                    }
                    (got, _) => panic!("case {case}: pop kind diverged from reference: {got:?}"),
                }
            }
            for (t, &queued) in queued_by_tenant.iter().enumerate() {
                assert!(
                    queued <= shares[t] && admission.queued(TenantId(t as u32 + 1)) == queued,
                    "case {case}: tenant {t} share overrun"
                );
            }
        }

        // Drain with the clock far past every deadline and aging bound:
        // queue and reference must agree to the end, and end empty.
        clock += Duration::from_secs(120);
        loop {
            match (
                queue.pop(base + clock, age_after),
                reference.pop(clock, age_after),
            ) {
                (None, ExpectedPop::Empty) => break,
                (Some(Popped::Ready(e)), ExpectedPop::Ready(seq))
                | (Some(Popped::Expired(e)), ExpectedPop::Expired(seq)) => {
                    assert_eq!(e.seq, seq, "case {case}: drain order diverged")
                }
                (got, _) => panic!("case {case}: drain kind diverged: {got:?}"),
            }
        }
        assert!(queue.is_empty(), "case {case}: queue must drain dry");
    }

    // Rate limiting, deterministically: a zero-rate bucket admits exactly
    // its burst, ever, no matter how far the clock advances.
    let base = Instant::now();
    let quota = TenantQuota::new(0.0, 3.0, usize::MAX);
    let mut admission = AdmissionControl::new();
    for i in 0..10u64 {
        let now = base + Duration::from_secs(i);
        let admit = admission.try_admit(TenantId(9), &quota, now);
        if i < 3 {
            admit.expect("burst admissions");
        } else {
            let err = admit.expect_err("empty zero-rate bucket must reject");
            assert_eq!(err.limit(), 3, "limit reports the burst capacity");
        }
    }
}

fn release(
    admission: &mut AdmissionControl,
    queued_by_tenant: &mut [usize; 4],
    tenant_of: &std::collections::HashMap<u64, usize>,
    seq: u64,
) {
    let t = tenant_of[&seq];
    admission.release(TenantId(t as u32 + 1));
    queued_by_tenant[t] -= 1;
}

// ---------------------------------------------------------------------------
// Live-gateway fixtures (same shapes as tests/net_online.rs).
// ---------------------------------------------------------------------------

fn ctx_with_envs(environments: usize) -> ExperimentContext {
    prepare_context(
        KIND,
        &ContextConfig {
            environments,
            queries_per_env: 30,
            template_scale: 1,
            seed: 91,
            data_scale: KIND.quick_scale(),
        },
    )
}

fn train_mscn(ctx: &ExperimentContext) -> Arc<dyn CostModel> {
    let mut rng = StdRng::seed_from_u64(8);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let (model, _) = MscnEstimator::train(
        encoder,
        &ctx.workload,
        Some(&ctx.snapshots_fso),
        None,
        12,
        &mut rng,
    );
    Arc::new(model)
}

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("qcfe-sched-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

/// A gateway under `policy` with every context environment published and
/// `model` registered for it.
fn policied_gateway(
    ctx: &ExperimentContext,
    dir: &PathBuf,
    policy: SchedPolicy,
    model: Arc<dyn CostModel>,
    config: ServiceConfig,
) -> Arc<QcfeGateway> {
    let gateway = Arc::new(
        QcfeGateway::builder(dir)
            .service_config(config)
            .scheduling(policy)
            .build()
            .unwrap(),
    );
    for (env, snapshot) in ctx
        .workload
        .environments
        .iter()
        .zip(ctx.snapshots_fso.iter())
    {
        gateway
            .publish_snapshot(KIND, env, snapshot.as_ref().expect("fitted"))
            .unwrap();
        gateway.register_model(
            ModelKey::new(KIND, EstimatorKind::QcfeMscn, env.fingerprint()),
            Arc::clone(&model),
        );
    }
    gateway
}

fn default_service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        max_batch: 16,
        encoding_cache_capacity: 1024,
    }
}

/// A cost model that serves each plan slowly — queue pressure on demand.
struct SlowModel {
    per_plan: Duration,
}

impl CostModel for SlowModel {
    fn name(&self) -> &'static str {
        "slow"
    }

    fn encode_plan(&self, _root: &PlanNode, _snapshot: Option<&FeatureSnapshot>) -> PlanEncoding {
        PlanEncoding::flat(Vec::new())
    }

    fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
        std::thread::sleep(self.per_plan * encodings.len() as u32);
        vec![1.0; encodings.len()]
    }
}

// ---------------------------------------------------------------------------
// Gateway-level scheduling behaviour.
// ---------------------------------------------------------------------------

/// Tentpole acceptance criterion: under an adversarial mix, a greedy
/// tenant's flood is shed typed by its token-bucket quota — never parked,
/// never hung — while compliant tenants keep full goodput, and the
/// gateway's per-tenant metric lanes attribute every outcome.
#[test]
fn gateway_sheds_the_greedy_tenant_typed_and_keeps_compliant_goodput() {
    const GREEDY: u32 = 7;
    const COMPLIANT: [u32; 2] = [21, 22];

    let ctx = ctx_with_envs(1);
    let dir = temp_path("mix-store");
    // A zero-sustained-rate bucket with burst 4: at most 4 greedy
    // admissions per ~second of wall clock regardless of thread timing,
    // so the 100-request flood must shed.
    let policy =
        SchedPolicy::edf().with_quota(TenantId(GREEDY), TenantQuota::new(1.0, 4.0, usize::MAX));
    let gateway = policied_gateway(
        &ctx,
        &dir,
        policy,
        train_mscn(&ctx),
        default_service_config(),
    );
    let env = Arc::new(ctx.workload.environments[0].clone());
    let db = ctx
        .benchmark
        .build_database(ctx.workload.environments[0].clone());

    let lanes = [
        TenantLoad::greedy(GREEDY, 4, 25),
        TenantLoad::compliant(COMPLIANT[0], 2, 25, Duration::from_secs(10)),
        TenantLoad::compliant(COMPLIANT[1], 2, 25, Duration::from_secs(10)),
    ];
    let mix = run_multi_tenant_mix(&ctx.benchmark, &lanes, 17, |tenant, deadline, query| {
        let plan = db
            .plan(&query)
            .map_err(|e| SubmitError::Other(e.to_string()))?;
        let mut request =
            EstimateRequest::new(KIND, Arc::clone(&env), plan).with_tenant(TenantId(tenant));
        request.options.shed_load = true;
        if let Some(deadline) = deadline {
            request = request.with_deadline(deadline);
        }
        match gateway.estimate(request) {
            Ok(response) => Ok(response.cost_ms),
            Err(QcfeError::Service(ServiceError::QueueFull { limit, .. })) => {
                // Satellite criterion: the shed fault names the limit that
                // tripped (here the bucket's burst capacity).
                assert_eq!(limit, 4, "shed fault must carry the configured limit");
                Err(SubmitError::Shed)
            }
            Err(QcfeError::DeadlineExceeded { .. }) => Err(SubmitError::DeadlineExceeded),
            Err(other) => Err(SubmitError::Other(other.to_string())),
        }
    });

    for lane in &mix.lanes {
        assert_eq!(
            lane.completed + lane.shed + lane.deadline_failures + lane.other_errors,
            lane.attempted,
            "tenant {} lost requests",
            lane.tenant
        );
        assert_eq!(
            lane.other_errors, 0,
            "tenant {} untyped errors",
            lane.tenant
        );
    }
    let greedy = mix.lane(GREEDY).expect("greedy lane reported");
    assert!(greedy.shed > 0, "the greedy flood must shed");
    assert!(greedy.completed > 0, "the greedy burst must be served");
    for tenant in COMPLIANT {
        let lane = mix.lane(tenant).expect("compliant lane reported");
        assert_eq!(
            lane.completed, lane.attempted,
            "compliant tenant {tenant} impeded"
        );
    }

    // The per-tenant metric lanes crossed the gateway merge intact.
    let stats = gateway.stats();
    let greedy_lane = stats
        .tenants
        .iter()
        .find(|lane| lane.tenant == TenantId(GREEDY))
        .expect("greedy tenant lane in gateway stats");
    assert!(greedy_lane.shed_quota >= greedy.shed as u64);
    assert!(greedy_lane.admitted >= greedy.completed as u64);
    assert!(greedy_lane.batches_formed > 0);
    for tenant in COMPLIANT {
        let lane = stats
            .tenants
            .iter()
            .find(|lane| lane.tenant == TenantId(tenant))
            .expect("compliant tenant lane in gateway stats");
        assert_eq!(lane.shed_quota, 0, "compliant tenant {tenant} was shed");
        assert!(
            lane.admitted >= 50,
            "compliant tenant {tenant} undercounted"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deadline that expires while the request is parked behind a slow
/// shard surfaces as the typed `DeadlineExceeded` fault — and the
/// tenant's metric lane records the drop.
#[test]
fn queued_deadline_expiry_is_typed_through_the_gateway() {
    let ctx = ctx_with_envs(1);
    let dir = temp_path("expiry-store");
    let gateway = policied_gateway(
        &ctx,
        &dir,
        SchedPolicy::edf(),
        Arc::new(SlowModel {
            per_plan: Duration::from_millis(80),
        }),
        ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            max_batch: 1,
            encoding_cache_capacity: 16,
        },
    );
    let env = Arc::new(ctx.workload.environments[0].clone());
    let plan = ctx.workload.queries[0].executed.root.clone();

    std::thread::scope(|scope| {
        // Occupy the single worker.
        let blocker = scope.spawn(|| {
            gateway
                .estimate(EstimateRequest::new(KIND, Arc::clone(&env), plan.clone()))
                .expect("the slow request itself succeeds")
        });
        std::thread::sleep(Duration::from_millis(20));
        // Parked behind the blocker with a 5 ms budget: it cannot make it.
        let doomed = EstimateRequest::new(KIND, Arc::clone(&env), plan.clone())
            .with_tenant(TenantId(3))
            .with_deadline(Duration::from_millis(5));
        match gateway.estimate(doomed) {
            Err(QcfeError::DeadlineExceeded { deadline, .. }) => {
                assert_eq!(deadline, Duration::from_millis(5));
            }
            other => panic!("expected a typed deadline fault, got {other:?}"),
        }
        blocker.join().unwrap();
    });

    // The expired entry is popped (not served) shortly after the worker
    // frees up; its drop lands in tenant 3's metric lane.
    let deadline_lane_recorded = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        gateway
            .stats()
            .tenants
            .iter()
            .any(|lane| lane.tenant == TenantId(3) && lane.shed_deadline >= 1)
    });
    assert!(
        deadline_lane_recorded,
        "the expired request must be recorded as a deadline shed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The default (no `scheduling` call) gateway still runs the legacy blind
/// FIFO: anonymous single-tenant callers are served unchanged and no
/// per-tenant metric lanes appear.
#[test]
fn default_fifo_gateway_serves_anonymous_callers_without_tenant_lanes() {
    let ctx = ctx_with_envs(1);
    let dir = temp_path("fifo-store");
    let gateway = policied_gateway(
        &ctx,
        &dir,
        SchedPolicy::default(),
        train_mscn(&ctx),
        default_service_config(),
    );
    let env = Arc::new(ctx.workload.environments[0].clone());
    for query in ctx.workload.queries.iter().take(8) {
        let request = EstimateRequest::new(KIND, Arc::clone(&env), query.executed.root.clone());
        let response = gateway.estimate(request).expect("anonymous FIFO service");
        assert!(response.cost_ms.is_finite() && response.cost_ms > 0.0);
    }
    assert!(
        gateway.stats().tenants.is_empty(),
        "anonymous traffic under the disabled policy must not grow tenant lanes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Client retry loop over live sockets.
// ---------------------------------------------------------------------------

/// `estimate_with_retry` is a drop-in for `estimate` on the happy path,
/// and survives the server restarting under it: the broken connection is
/// transparently re-dialed once and the request re-sent.
#[test]
fn estimate_with_retry_round_trips_and_reconnects_across_a_server_restart() {
    let ctx = ctx_with_envs(1);
    let dir = temp_path("retry-store");
    let gateway = policied_gateway(
        &ctx,
        &dir,
        SchedPolicy::default(),
        train_mscn(&ctx),
        default_service_config(),
    );
    let socket = temp_path("retry.sock");
    let server = NetServerBuilder::new(Arc::clone(&gateway))
        .uds(&socket)
        .start()
        .unwrap();

    let env = ctx.workload.environments[0].clone();
    let plan = ctx.workload.queries[0].executed.root.clone();
    let request = EstimateRequest::new(KIND, env, plan);
    let expected = gateway.estimate(request.clone()).unwrap();

    let mut client = QcfeClient::connect_uds(&socket).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let response = client
        .estimate_with_retry(&request, RetryPolicy::default())
        .expect("happy-path retry wrapper");
    assert_eq!(response.cost_ms.to_bits(), expected.cost_ms.to_bits());

    // Restart the server on the same socket path. The client's old
    // connection is dead; the retry wrapper must re-dial it.
    let stats = server.join().unwrap();
    assert_eq!(stats.responses_ok, 1, "the happy-path retry call");
    let server = NetServerBuilder::new(Arc::clone(&gateway))
        .uds(&socket)
        .start()
        .unwrap();
    let response = client
        .estimate_with_retry(&request, RetryPolicy::default())
        .expect("reconnect across restart");
    assert_eq!(response.cost_ms.to_bits(), expected.cost_ms.to_bits());

    // Reconnect is opt-out: with it disabled, the same broken-socket
    // condition surfaces as the I/O error.
    let stats = server.join().unwrap();
    assert_eq!(stats.responses_ok, 1);
    match client.estimate_with_retry(
        &request,
        RetryPolicy {
            reconnect: false,
            ..RetryPolicy::default()
        },
    ) {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected the raw I/O error with reconnect off, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shed-backoff against a scripted server: two `QueueFull` faults then an
/// estimate yields success (after the backoff sleeps); a persistent flood
/// of `QueueFull` exhausts `max_retries` and surfaces the typed fault
/// with its depth/limit payload intact.
#[test]
fn estimate_with_retry_backs_off_on_queue_full_and_surfaces_the_enriched_fault() {
    let socket = temp_path("backoff.sock");
    let listener = std::os::unix::net::UnixListener::bind(&socket).unwrap();
    let script = std::thread::spawn(move || {
        use std::io::{Read, Write};
        let (mut stream, _) = listener.accept().unwrap();
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 65536];
        for served in 1usize..=7 {
            let frame = loop {
                if let Some(len) = wire::frame_length(&buf).unwrap() {
                    break buf.drain(..len).collect::<Vec<u8>>();
                }
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "client hung up mid-script");
                buf.extend_from_slice(&chunk[..n]);
            };
            let request = match wire::decode_frame(&frame).unwrap() {
                Frame::Request(request) => request,
                other => panic!("expected a request frame, got {other:?}"),
            };
            // Responses 1, 2 shed; 3 answers; 4..=7 shed the second call
            // until its retries run out.
            let outcome = if served == 3 {
                Ok(WireEstimate {
                    cost_ms: 42.5,
                    batch_size: 1,
                    encoding_cache_hit: false,
                    model_from_disk: false,
                    refined: false,
                    cold_start: false,
                    benchmark: KIND,
                    estimator: EstimatorKind::QcfeMscn,
                    fingerprint: 0,
                    origin: SnapshotOrigin::TrainedHere,
                    service_us: 10,
                    total_us: 20,
                })
            } else {
                Err(WireFault::QueueFull { depth: 7, limit: 9 })
            };
            let bytes = wire::encode_response(&WireResponse {
                request_id: request.request_id,
                outcome,
            })
            .unwrap();
            stream.write_all(&bytes).unwrap();
        }
    });

    let request = EstimateRequest::new(
        KIND,
        DbEnvironment::reference(),
        PlanNode::new(
            PhysicalOp::SeqScan {
                table: "sbtest".into(),
            },
            vec![],
        ),
    );
    let policy = RetryPolicy {
        max_retries: 3,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(40),
        reconnect: false,
    };
    let mut client = QcfeClient::connect_uds(&socket).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Call 1: shed, shed, served — with the 5 ms + 10 ms backoffs slept.
    let started = Instant::now();
    let response = client
        .estimate_with_retry(&request, policy)
        .expect("third attempt succeeds");
    assert_eq!(response.cost_ms.to_bits(), 42.5f64.to_bits());
    assert!(
        started.elapsed() >= Duration::from_millis(15),
        "two backoff sleeps must have elapsed"
    );

    // Call 2: four sheds exhaust max_retries; the typed fault surfaces
    // with the wire-carried queue depth and limit.
    match client.estimate_with_retry(&request, policy) {
        Err(ClientError::Fault(WireFault::QueueFull { depth, limit })) => {
            assert_eq!((depth, limit), (7, 9), "enriched payload must survive");
        }
        other => panic!("expected the typed QueueFull fault, got {other:?}"),
    }
    script.join().unwrap();
    let _ = std::fs::remove_file(&socket);
}
