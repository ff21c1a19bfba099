//! Serving-layer throughput benchmark: closed-loop clients against the
//! micro-batching `EstimationService`, swept over client counts and with
//! batching effectively on/off (max_batch 1 vs 32), plus a direct
//! batched-vs-scalar comparison and batch-size sweep of the
//! operator-grouped QPPNet inference engine, a matmul-kernel sweep
//! (scalar vs portable vs AVX2 — direct batch-32 inference and the full
//! service path), a routed-gateway section comparing one `QcfeGateway`
//! front door (1 client per environment across 4 environments) against
//! the equivalent hand-wired per-service setup over alternating rounds,
//! a cold-restart section timing a rebuilt gateway's first estimate
//! served from persisted `QCFW` weights against one forced to retrain,
//! an online-refinement section measuring a cold environment's
//! estimate error under a transferred snapshot vs after refitting from
//! its own streamed labels (gated: refit error ≤ transferred error),
//! a network section driving the same gateway through the `qcfe-net`
//! reactor over a loopback Unix-domain socket — N pipelined remote
//! clients vs the same clients in-process (throughput reported, not
//! gated; the mean micro-batch the shards drained over the UDS window
//! gated; every remote estimate is asserted bit-identical to its
//! in-process twin),
//! a multi-tenant scheduling section replaying one adversarial mix
//! (a greedy deadline-less tenant flooding a throttled single-worker
//! shard next to compliant deadline-carrying tenants) against a
//! default FIFO gateway and one running `SchedPolicy::edf()` with a
//! queue-share quota on the greedy tenant, in alternating rounds over
//! both gateways kept up until each policy's pooled compliant p99 has
//! at least 30 samples above it, and a replication section
//! running three local replicas with rendezvous-sharded keys, killing
//! the owner of the loaded shard mid-run, and reporting the time for
//! the survivors to absorb the dead peer's keys from shipped
//! `QCFS`/`QCFW` state (asserted: the loop keeps completing requests,
//! post-failover estimates are bit-identical, no shipped state is
//! rejected), and a revival section exercising the anti-entropy
//! catch-up handshake: the owner of the loaded shard is killed, its
//! key's snapshot and model are re-published on the failover owner
//! during the outage, and the victim is restarted over its stale store
//! mid-load — reporting the catch-up latency (restart to promotion on
//! every survivor) and gating **zero stale reads** (every networked
//! answer bit-identical to the re-publishing owner's) plus both
//! divergent artifacts re-shipped.
//!
//! Emits the standard report JSON under `target/experiments/` and a
//! machine-readable `BENCH_serve.json` at the workspace root so future PRs
//! can track the serving perf trajectory.
//!
//! The run fails (CI gate) when any of these happens:
//!
//! * batched QPPNet inference falls below the scalar per-plan path;
//! * the AVX2 kernel runs below 1.15x the scalar kernel at batch 32 (on
//!   CPUs that have AVX2);
//! * routed-gateway aggregate throughput falls more than 20% below the
//!   hand-wired per-service baseline (each side's total completions over
//!   its total time across 100 alternating rounds, after a warm-up round);
//! * a cold restart from persisted `QCFW` weights is not faster than one
//!   that retrains;
//! * online refinement leaves the cold environment's mean q-error above
//!   the transferred-snapshot error, or the label stream triggers no
//!   refit or not exactly one promotion;
//! * scheduling fails to cut the compliant tenants' pooled p99 to ≤ 0.5x
//!   the FIFO baseline, a compliant tenant keeps < 80% goodput, or the
//!   greedy tenant is not shed typed (nonzero client-side and
//!   per-tenant-metric shed counters; every request must resolve —
//!   served, shed or deadline-failed — under both policies); each
//!   policy's figures pool its alternating rounds;
//! * after the replication kill, the survivors answer
//!   non-bit-identically, the loop stops completing requests, or a
//!   replica rejects shipped state;
//! * the revived replica serves a stale read before its catch-up
//!   promotes it, serves the re-published state non-bit-identically, a
//!   re-ship is rejected, or the stale snapshot and weights are not both
//!   re-shipped;
//! * the shards' mean micro-batch over the UDS window of the network
//!   section falls below 6 — the reactor handing requests over one at a
//!   time instead of one batch per readable event (a count, not a
//!   timing, so loopback noise cannot trip it).
//!
//! Every section also fails on a dropped request, and the network section
//! on a remote estimate that differs from its in-process twin or a
//! faulted or malformed frame.
//!
//! Usage: `cargo run --release -p qcfe-bench --bin serve_throughput [--quick] [--seed N]`

use qcfe_bench::report::{fmt3, parse_common_args, ExperimentReport, ReportTable};
use qcfe_core::cost_model::CostModel;
use qcfe_core::encoding::FeatureEncoder;
use qcfe_core::estimators::{MscnEstimator, QppNetEstimator};
use qcfe_core::model_codec::PersistedModel;
use qcfe_core::pipeline::{prepare_context, ContextConfig, EstimatorKind, ExperimentContext};
use qcfe_core::snapshot::FeatureSnapshot;
use qcfe_db::plan::PlanNode;
use qcfe_db::DbEnvironment;
use qcfe_net::{NetServerBuilder, QcfeClient, Replicator, ReplicatorConfig, ShardClient};
use qcfe_nn::kernel::{force_kernel, MatmulKernel};
use qcfe_serve::prelude::*;
use qcfe_serve::replica::owner_among;
use qcfe_workloads::{
    run_closed_loop, run_feedback_loop, run_multi_tenant_mix, run_timed_loop, BenchmarkKind,
    ClosedLoopConfig, MultiTenantReport, ObservedEstimate, SubmitError, TenantLoad,
};
use rand::SeedableRng;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The network section's gate: the least mean micro-batch the shards may
/// drain over the UDS window. Per-request hand-off measured 1.7–3.7 and
/// per-turn batching 23.5–29.0 (quick and full mode, 2-vCPU host); the
/// gate sits below a third of the batched runs' lowest value.
const NET_MIN_BATCH_MEAN: f64 = 6.0;

/// Timed rounds of the routed-gateway section: each round runs the
/// hand-wired and the routed side once, in alternating order, over
/// deployments kept up for the whole comparison.
const GATEWAY_ROUNDS: usize = 100;

/// The scheduling section runs alternating FIFO/EDF rounds until each
/// policy's pooled compliant p99 has at least this many samples above it.
/// A host stall delays several compliant requests of one round together
/// (their latencies land within 0.1 ms of each other), so with 10
/// samples above the p99 one or two stalled rounds decided the gate; at
/// 30 it takes several.
const SCHED_TAIL_SAMPLES: usize = 30;

/// Upper bound on the scheduling section's rounds, reached only when
/// compliant requests stop completing (which fails its goodput gate).
const SCHED_MAX_ROUNDS: usize = 40;

/// A cost model that sleeps once per drained micro-batch before
/// delegating. The scheduling section uses it to make queue wait — not
/// inference speed — dominate latency, so the FIFO-vs-EDF comparison
/// measures ordering policy rather than matmul throughput.
struct ThrottledModel {
    inner: Arc<dyn CostModel>,
    delay: Duration,
}

impl CostModel for ThrottledModel {
    fn name(&self) -> &'static str {
        "throttled"
    }

    fn predict_plan(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> f64 {
        std::thread::sleep(self.delay);
        self.inner.predict_plan(root, snapshot)
    }

    fn predict_batch(&self, plans: &[&PlanNode], snapshot: Option<&FeatureSnapshot>) -> Vec<f64> {
        std::thread::sleep(self.delay);
        self.inner.predict_batch(plans, snapshot)
    }
}

/// p99 latency pooled over the given tenants' completed requests, and the
/// number of pooled samples ranked above it.
fn pooled_p99_ms(report: &MultiTenantReport, tenants: &[u32]) -> (f64, usize) {
    let mut pooled: Vec<f64> = report
        .lanes
        .iter()
        .filter(|lane| tenants.contains(&lane.tenant))
        .flat_map(|lane| lane.latencies_ms.iter().copied())
        .collect();
    pooled.sort_by(|a, b| a.total_cmp(b));
    if pooled.is_empty() {
        return (0.0, 0);
    }
    let rank = (0.99 * (pooled.len() - 1) as f64).round() as usize;
    (pooled[rank], pooled.len() - 1 - rank)
}

/// Add one round of a multi-tenant mix into the running pool of its
/// policy (lanes in the same order every round).
fn pool_mix(pool: &mut Option<MultiTenantReport>, round: MultiTenantReport) {
    let Some(pool) = pool else {
        *pool = Some(round);
        return;
    };
    pool.wall_s += round.wall_s;
    for (total, lane) in pool.lanes.iter_mut().zip(round.lanes) {
        total.attempted += lane.attempted;
        total.completed += lane.completed;
        total.shed += lane.shed;
        total.deadline_failures += lane.deadline_failures;
        total.other_errors += lane.other_errors;
        total.latencies_ms.extend(lane.latencies_ms);
    }
}

/// One closed-loop service sweep for a model, appended to `table`.
#[allow(clippy::too_many_arguments)]
fn service_sweep(
    table: &mut ReportTable,
    model_name: &str,
    model: &Arc<dyn CostModel>,
    snapshot: &FeatureSnapshot,
    ctx: &ExperimentContext,
    client_counts: &[usize],
    requests_per_client: usize,
    seed: u64,
) {
    let env = ctx.workload.environments[0].clone();
    let db = ctx.benchmark.build_database(env);
    for &clients in client_counts {
        for max_batch in [1usize, 32] {
            let service = EstimationService::start(
                Arc::clone(model),
                Some(snapshot.clone()),
                ServiceConfig {
                    workers: 2,
                    queue_capacity: 256,
                    max_batch,
                    encoding_cache_capacity: 4096,
                },
            );
            let handle = service.handle();
            let load = ClosedLoopConfig::new(clients, requests_per_client, seed + 100);
            let run = run_closed_loop(&ctx.benchmark, &load, |query| {
                let plan = db.plan(&query).map_err(|e| e.to_string())?;
                Ok(handle.estimate(plan).map_err(|e| e.to_string())?.cost_ms)
            });
            let metrics = service.shutdown();
            assert_eq!(run.errors, 0, "serving must not drop closed-loop requests");
            table.push_row(vec![
                model_name.to_string(),
                clients.to_string(),
                max_batch.to_string(),
                format!("{:.0}", run.throughput_qps()),
                fmt3(run.latency_percentile_ms(50.0)),
                fmt3(run.latency_percentile_ms(99.0)),
                fmt3(metrics.mean_batch_size),
                fmt3(metrics.cache_hit_rate),
            ]);
            eprintln!(
                "[serve] {model_name} clients={clients} max_batch={max_batch}: {:.0} est/s, p99 {:.3} ms, mean batch {:.2}, cache {:.0}%",
                run.throughput_qps(),
                run.latency_percentile_ms(99.0),
                metrics.mean_batch_size,
                100.0 * metrics.cache_hit_rate,
            );
        }
    }
}

fn main() {
    let (quick, seed) = parse_common_args();
    let kind = BenchmarkKind::Sysbench;
    let requests_per_client = if quick { 50 } else { 250 };
    let client_counts: &[usize] = if quick { &[1, 8] } else { &[1, 4, 8, 16, 32] };

    eprintln!("[serve] preparing {} context...", kind.name());
    // 4 environments: the routed-gateway section needs ≥4 distinct
    // fingerprints (the single-service sweeps keep using environment 0).
    let ctx = prepare_context(
        kind,
        &ContextConfig {
            seed,
            environments: 4,
            ..ContextConfig::quick(kind)
        },
    );
    let snapshot = ctx.snapshots_fso[0].clone().expect("snapshot fitted");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    eprintln!("[serve] training QCFE(mscn)...");
    let (mscn, _) = MscnEstimator::train(
        FeatureEncoder::new(&ctx.benchmark.catalog, true),
        &ctx.workload,
        Some(&ctx.snapshots_fso),
        None,
        if quick { 15 } else { 30 },
        &mut rng,
    );
    eprintln!("[serve] training QCFE(qpp)...");
    let mut qpp = QppNetEstimator::new(
        FeatureEncoder::new(&ctx.benchmark.catalog, true),
        None,
        &mut rng,
    );
    qpp.train(
        &ctx.workload,
        Some(&ctx.snapshots_fso),
        if quick { 3 } else { 8 },
        &mut rng,
    );

    let mut report = ExperimentReport::new(
        "serve",
        format!(
            "closed-loop serving throughput + QPPNet batched-vs-scalar, {requests_per_client} requests/client, seed {seed}"
        ),
        quick,
    );

    // ---------------------------------------------------------------
    // Direct (no service) QPPNet inference: scalar vs operator-grouped
    // batched, swept over the plans-per-predict_batch-call batch size.
    // ---------------------------------------------------------------
    let plans: Vec<&PlanNode> = ctx
        .workload
        .queries
        .iter()
        .map(|q| &q.executed.root)
        .collect();
    let passes = if quick { 3 } else { 4 };
    let reps = 9;
    // Warm-up: fills thread-local and per-call scratch buffers.
    let _ = qpp.predict_batch(&plans, Some(&snapshot));

    // Best-of-`reps` timing windows: the shortest window is the least
    // disturbed by transient machine load, the standard microbenchmark
    // defence against noisy neighbours.
    let best_throughput = |f: &dyn Fn()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            for _ in 0..passes {
                f();
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        (passes * plans.len()) as f64 / best
    };

    let scalar_tput = best_throughput(&|| {
        for plan in &plans {
            let _ = qpp.predict_scalar(plan, Some(&snapshot));
        }
    });

    let mut qpp_table = ReportTable::new(
        "QPPNet operator-grouped batching (direct inference)",
        &["batch size", "throughput (plans/s)", "speedup vs scalar"],
    );
    qpp_table.push_row(vec![
        "scalar".into(),
        format!("{scalar_tput:.0}"),
        fmt3(1.0),
    ]);
    let mut batched_best_tput: f64 = 0.0;
    for &batch_size in &[1usize, 8, 32, 128] {
        let tput = best_throughput(&|| {
            for chunk in plans.chunks(batch_size) {
                let _ = qpp.predict_batch(chunk, Some(&snapshot));
            }
        });
        if batch_size > 1 {
            batched_best_tput = batched_best_tput.max(tput);
        }
        qpp_table.push_row(vec![
            batch_size.to_string(),
            format!("{tput:.0}"),
            fmt3(tput / scalar_tput),
        ]);
        eprintln!(
            "[serve] qppnet batch={batch_size}: {tput:.0} plans/s ({:.2}x scalar)",
            tput / scalar_tput
        );
    }
    report.add_table(qpp_table);

    // ---------------------------------------------------------------
    // Matmul kernel sweep: the identical operator-grouped QPPNet batch-32
    // workload driven through each dispatchable kernel (scalar, portable,
    // AVX2 where the CPU has it). `force_kernel` overrides the
    // QCFE_KERNEL-resolved default so one process compares all of them.
    // ---------------------------------------------------------------
    let supported: Vec<MatmulKernel> = MatmulKernel::ALL
        .into_iter()
        .filter(|k| k.is_supported())
        .collect();
    let mut kernel_table = ReportTable::new(
        "Matmul kernel sweep: QPPNet direct inference, batch 32",
        &["kernel", "throughput (plans/s)", "speedup vs scalar"],
    );
    let mut scalar_f64_tput = 0.0_f64;
    let mut avx2_f64_tput = None;
    for &kernel in &supported {
        assert!(force_kernel(Some(kernel)), "{} dispatches", kernel.name());
        let tput = best_throughput(&|| {
            for chunk in plans.chunks(32) {
                let _ = qpp.predict_batch(chunk, Some(&snapshot));
            }
        });
        if kernel == MatmulKernel::Scalar {
            scalar_f64_tput = tput;
        }
        if kernel == MatmulKernel::Avx2 {
            avx2_f64_tput = Some(tput);
        }
        kernel_table.push_row(vec![
            kernel.name().into(),
            format!("{tput:.0}"),
            fmt3(tput / scalar_f64_tput),
        ]);
        eprintln!(
            "[serve] kernel={}: {tput:.0} plans/s ({:.2}x scalar)",
            kernel.name(),
            tput / scalar_f64_tput
        );
    }
    force_kernel(None);
    report.add_table(kernel_table);

    // The same sweep through the full EstimationService path: micro-batched
    // closed-loop clients, one service per kernel choice.
    let sweep_db = ctx
        .benchmark
        .build_database(ctx.workload.environments[0].clone());
    let mscn_sweep_model: Arc<dyn CostModel> = Arc::new(mscn.clone());
    let mut svc_kernel_table = ReportTable::new(
        "Matmul kernel sweep: EstimationService path (QCFE(mscn), 8 clients, max_batch 32)",
        &["kernel", "throughput (est/s)"],
    );
    for &kernel in &supported {
        assert!(force_kernel(Some(kernel)), "{} dispatches", kernel.name());
        let service = EstimationService::start(
            Arc::clone(&mscn_sweep_model),
            Some(snapshot.clone()),
            ServiceConfig {
                workers: 2,
                queue_capacity: 256,
                max_batch: 32,
                encoding_cache_capacity: 4096,
            },
        );
        let handle = service.handle();
        let load = ClosedLoopConfig::new(8, requests_per_client, seed + 500);
        let run = run_closed_loop(&ctx.benchmark, &load, |query| {
            let plan = sweep_db.plan(&query).map_err(|e| e.to_string())?;
            Ok(handle.estimate(plan).map_err(|e| e.to_string())?.cost_ms)
        });
        let _ = service.shutdown();
        assert_eq!(run.errors, 0, "kernel-sweep serving must not fail");
        let tput = run.throughput_qps();
        svc_kernel_table.push_row(vec![kernel.name().into(), format!("{tput:.0}")]);
        eprintln!("[serve] service kernel={}: {tput:.0} est/s", kernel.name());
    }
    force_kernel(None);
    report.add_table(svc_kernel_table);

    // ---------------------------------------------------------------
    // Service-side closed-loop sweeps for both model families.
    // ---------------------------------------------------------------
    let mut table = ReportTable::new(
        "EstimationService throughput",
        &[
            "model",
            "clients",
            "max_batch",
            "throughput (est/s)",
            "client p50 (ms)",
            "client p99 (ms)",
            "mean batch",
            "cache hit rate",
        ],
    );
    // The cold-restart section persists and retrains this exact model.
    let mscn_for_restart = mscn.clone();
    let mscn_model: Arc<dyn CostModel> = Arc::new(mscn);
    service_sweep(
        &mut table,
        "QCFE(mscn)",
        &mscn_model,
        &snapshot,
        &ctx,
        client_counts,
        requests_per_client,
        seed,
    );
    let qpp_model: Arc<dyn CostModel> = Arc::new(qpp);
    let qpp_clients: &[usize] = if quick { &[8] } else { &[8, 32] };
    service_sweep(
        &mut table,
        "QCFE(qpp)",
        &qpp_model,
        &snapshot,
        &ctx,
        qpp_clients,
        requests_per_client,
        seed,
    );
    report.add_table(table);

    // ---------------------------------------------------------------
    // Routed gateway vs hand-wired per-service baseline: 1 closed-loop
    // client per environment across all 4 environments. Same models,
    // same snapshots, same per-shard service configuration — the only
    // difference is whether requests go through the typed front door.
    // ---------------------------------------------------------------
    let env_count = ctx.workload.environments.len();
    let shard_config = ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        max_batch: 32,
        encoding_cache_capacity: 4096,
    };
    let dbs: Vec<_> = ctx
        .workload
        .environments
        .iter()
        .map(|env| ctx.benchmark.build_database(env.clone()))
        .collect();
    let snapshots: Vec<FeatureSnapshot> = (0..env_count)
        .map(|i| ctx.snapshots_fso[i].clone().expect("snapshot fitted"))
        .collect();

    // Hand-wired: one EstimationService per environment, assembled by the
    // caller exactly as pre-gateway code did.
    let services: Vec<EstimationService> = snapshots
        .iter()
        .map(|snapshot| {
            EstimationService::start(
                Arc::clone(&mscn_model),
                Some(snapshot.clone()),
                shard_config,
            )
        })
        .collect();
    let service_handles: Vec<ServiceHandle> = services.iter().map(|s| s.handle()).collect();
    let handwired = |i: usize, plan: PlanNode| -> Result<f64, String> {
        Ok(service_handles[i]
            .estimate(plan)
            .map_err(|e| e.to_string())?
            .cost_ms)
    };

    // Routed: one QcfeGateway owning everything; clients submit typed
    // requests naming only their environment.
    let gw_root = std::env::temp_dir().join(format!(
        "qcfe-serve-bench-gateway-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&gw_root);
    let gateway = QcfeGateway::builder(&gw_root)
        .service_config(shard_config)
        .build()
        .expect("gateway builds");
    for (env, snapshot) in ctx.workload.environments.iter().zip(&snapshots) {
        gateway
            .publish_snapshot(kind, env, snapshot)
            .expect("snapshot published");
        gateway.register_model(
            ModelKey::new(kind, EstimatorKind::QcfeMscn, env.fingerprint()),
            Arc::clone(&mscn_model),
        );
    }
    // Shared per client: each request clones the pointer, not the
    // knob/hardware structs.
    let routed_envs: Vec<Arc<DbEnvironment>> = ctx
        .workload
        .environments
        .iter()
        .map(|env| Arc::new(env.clone()))
        .collect();
    let routed = |i: usize, plan: PlanNode| -> Result<f64, String> {
        let request = EstimateRequest::new(kind, Arc::clone(&routed_envs[i]), plan);
        Ok(gateway
            .estimate(request)
            .map_err(|e| e.to_string())?
            .cost_ms)
    };

    // One round of one side: a closed-loop client per environment, each
    // issuing `requests_per_client` requests; returns (completions,
    // seconds). Both sides of a round draw the same queries.
    let run_round = |estimate: &(dyn Fn(usize, PlanNode) -> Result<f64, String> + Sync),
                     round: usize|
     -> (usize, f64) {
        let started = Instant::now();
        let completed: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..env_count)
                .map(|i| {
                    let db = &dbs[i];
                    let benchmark = &ctx.benchmark;
                    let client_seed = seed + 300 + (round * env_count + i) as u64;
                    scope.spawn(move || {
                        let load = ClosedLoopConfig::new(1, requests_per_client, client_seed);
                        let run = run_closed_loop(benchmark, &load, |query| {
                            estimate(i, db.plan(&query).map_err(|e| e.to_string())?)
                        });
                        assert_eq!(run.errors, 0, "gateway-section serving must not fail");
                        run.completed
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        (completed, started.elapsed().as_secs_f64())
    };
    // Both deployments stay up for the whole comparison. An untimed
    // warm-up round starts the gateway's shards (the hand-wired services
    // are already running), then the two sides alternate (hand-wired first
    // in odd rounds, routed first in even ones), so host drift lands on
    // both sides instead of on whichever ran second. Each side's
    // throughput is its total completions over its total time.
    run_round(&handwired, 0);
    run_round(&routed, 0);
    let mut totals = [(0usize, 0.0f64); 2];
    for round in 1..=GATEWAY_ROUNDS {
        for side in [1 - round % 2, round % 2] {
            let (completed, secs) = if side == 0 {
                run_round(&handwired, round)
            } else {
                run_round(&routed, round)
            };
            totals[side].0 += completed;
            totals[side].1 += secs;
        }
    }
    let [handwired_tput, gateway_tput] = totals.map(|(completed, secs)| completed as f64 / secs);
    drop(services);
    let gateway_stats = gateway.stats();
    assert_eq!(
        gateway_stats.shard_starts as usize, env_count,
        "each environment must start exactly one shard"
    );
    let _ = std::fs::remove_dir_all(&gw_root);

    let mut gw_table = ReportTable::new(
        "Routed gateway vs hand-wired services (QCFE(mscn), 1 client per environment)",
        &[
            "setup",
            "environments",
            "clients",
            "aggregate throughput (est/s)",
            "ratio vs hand-wired",
        ],
    );
    gw_table.push_row(vec![
        "hand-wired per-service".into(),
        env_count.to_string(),
        env_count.to_string(),
        format!("{handwired_tput:.0}"),
        fmt3(1.0),
    ]);
    gw_table.push_row(vec![
        "routed QcfeGateway".into(),
        env_count.to_string(),
        env_count.to_string(),
        format!("{gateway_tput:.0}"),
        fmt3(gateway_tput / handwired_tput),
    ]);
    report.add_table(gw_table);
    eprintln!(
        "[serve] routed gateway across {env_count} envs: {gateway_tput:.0} est/s vs hand-wired {handwired_tput:.0} est/s ({:.2}x)",
        gateway_tput / handwired_tput
    );

    // ---------------------------------------------------------------
    // Cold restart: time-to-first-estimate of a gateway rebuilt on a
    // store directory holding persisted QCFW weights (disk load) vs one
    // that must retrain the same model through its provider. Both serve
    // the same environment and plan.
    // ---------------------------------------------------------------
    let env0 = ctx.workload.environments[0].clone();
    let restart_plan = dbs[0]
        .plan(&ctx.benchmark.random_query(&mut rng))
        .expect("plannable");
    let restart_key = ModelKey::new(kind, EstimatorKind::QcfeMscn, env0.fingerprint());

    let disk_root = std::env::temp_dir().join(format!(
        "qcfe-serve-bench-restart-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&disk_root);
    {
        // First life: publish snapshot + weights, then "exit".
        let gateway = QcfeGateway::builder(&disk_root)
            .service_config(shard_config)
            .build()
            .expect("gateway builds");
        gateway
            .publish_snapshot(kind, &env0, &snapshot)
            .expect("snapshot published");
        gateway
            .publish_model(restart_key, PersistedModel::Mscn(mscn_for_restart.clone()))
            .expect("weights published");
    }
    let started = Instant::now();
    let gateway = QcfeGateway::builder(&disk_root)
        .service_config(shard_config)
        .build()
        .expect("gateway rebuilds");
    let disk_response = gateway
        .estimate(EstimateRequest::new(
            kind,
            env0.clone(),
            restart_plan.clone(),
        ))
        .expect("disk-load estimate");
    let disk_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        disk_response.provenance.snapshot_origin.is_from_disk(),
        "cold restart must serve from persisted weights, got {:?}",
        disk_response.provenance.snapshot_origin
    );
    drop(gateway);
    let _ = std::fs::remove_dir_all(&disk_root);

    let retrain_root = std::env::temp_dir().join(format!(
        "qcfe-serve-bench-retrain-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&retrain_root);
    let train_iterations = if quick { 15 } else { 30 };
    let trainer_workload = ctx.workload.clone();
    let trainer_snapshots = ctx.snapshots_fso.clone();
    let trainer_catalog = ctx.benchmark.catalog.clone();
    let started = Instant::now();
    let gateway = QcfeGateway::builder(&retrain_root)
        .service_config(shard_config)
        .model_provider(move |_, _| {
            // The pre-QCFW boot path: rebuild the model from the labeled
            // workload, exactly as the offline phase trained it.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (retrained, _) = MscnEstimator::train(
                FeatureEncoder::new(&trainer_catalog, true),
                &trainer_workload,
                Some(&trainer_snapshots),
                None,
                train_iterations,
                &mut rng,
            );
            Some(Arc::new(retrained) as Arc<dyn CostModel>)
        })
        .build()
        .expect("gateway builds");
    gateway
        .publish_snapshot(kind, &env0, &snapshot)
        .expect("snapshot published");
    let retrain_response = gateway
        .estimate(EstimateRequest::new(kind, env0, restart_plan))
        .expect("retrain estimate");
    let retrain_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        !retrain_response.provenance.snapshot_origin.is_from_disk(),
        "the retrain baseline must not find persisted weights"
    );
    drop(gateway);
    let _ = std::fs::remove_dir_all(&retrain_root);

    let mut restart_table = ReportTable::new(
        "Cold restart: time-to-first-estimate (QCFE(mscn))",
        &["boot path", "time to first estimate (ms)", "speedup"],
    );
    restart_table.push_row(vec![
        "retrain via model provider".into(),
        fmt3(retrain_ms),
        fmt3(1.0),
    ]);
    restart_table.push_row(vec![
        "QCFW disk load".into(),
        fmt3(disk_ms),
        fmt3(retrain_ms / disk_ms),
    ]);
    report.add_table(restart_table);
    eprintln!(
        "[serve] cold restart: disk load {disk_ms:.3} ms vs retrain {retrain_ms:.3} ms ({:.1}x faster)",
        retrain_ms / disk_ms
    );

    // ---------------------------------------------------------------
    // Online refinement: a cold environment warm-starts from env 0's
    // published snapshot (Transferred), its estimate error against
    // observed executions is measured, its executions then stream through
    // record_execution (refit + promotion to TrainedHere), and the same
    // seeded query stream is re-measured. The paper's Table VII loop,
    // online, with a CI gate: refit error ≤ transferred error.
    // ---------------------------------------------------------------
    let env_a = ctx.workload.environments[0].clone();
    // The coldest plausible start: the environment farthest from env 0 in
    // knob space borrows env 0's snapshot.
    let refine_index = (1..env_count)
        .max_by(|&i, &j| {
            env_a
                .distance_to(&ctx.workload.environments[i])
                .total_cmp(&env_a.distance_to(&ctx.workload.environments[j]))
        })
        .expect("≥2 environments");
    let env_b = Arc::new(ctx.workload.environments[refine_index].clone());
    let db_b = ctx.benchmark.build_database((*env_b).clone());
    let refine_root = std::env::temp_dir().join(format!(
        "qcfe-serve-bench-refine-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&refine_root);
    let gateway = QcfeGateway::builder(&refine_root)
        .service_config(shard_config)
        .refinement(RefinementConfig {
            refit_threshold: 64,
            min_drift: 0.0,
            buffer_capacity: 16384,
        })
        .with_model(
            ModelKey::new(kind, EstimatorKind::QcfeMscn, env_b.fingerprint()),
            Arc::clone(&mscn_model),
        )
        .build()
        .expect("gateway builds");
    gateway
        .publish_snapshot(kind, &env_a, &snapshot)
        .expect("neighbour published");

    // One closed feedback loop, reused for both measurement phases: plan,
    // estimate through the gateway, execute on the simulator for the
    // observed label. One client and identical query + execution-noise
    // seeds make the two phases submit identical queries against identical
    // observed labels, so the error delta is the refinement effect and
    // nothing else (in particular, the refit-≤-transferred gate below
    // cannot flake on execution noise).
    let measure_seed = seed + 700;
    let measure = |expect_refined: bool| {
        let exec_rng =
            std::sync::Mutex::new(rand::rngs::StdRng::seed_from_u64(measure_seed ^ 0x0b5e));
        run_feedback_loop(
            &ctx.benchmark,
            &ClosedLoopConfig::new(1, 2 * requests_per_client, measure_seed),
            |query| {
                let plan = db_b.plan(&query).map_err(|e| e.to_string())?;
                let response = gateway
                    .estimate(EstimateRequest::new(kind, Arc::clone(&env_b), plan))
                    .map_err(|e| e.to_string())?;
                assert_eq!(
                    response.provenance.refined, expect_refined,
                    "refinement provenance must match the phase"
                );
                let executed = db_b
                    .execute(&query, &mut *exec_rng.lock().expect("rng lock"))
                    .map_err(|e| e.to_string())?;
                Ok(ObservedEstimate {
                    estimate_ms: response.cost_ms,
                    observed_ms: executed.total_ms,
                })
            },
        )
    };
    let transferred_run = measure(false);
    assert_eq!(
        transferred_run.errors, 0,
        "transferred serving must not fail"
    );

    // Feedback phase: stream fresh executed queries as labels while
    // estimates keep flowing — the online loop, not a maintenance window.
    let feedback_rng = std::sync::Mutex::new(rand::rngs::StdRng::seed_from_u64(seed + 800));
    let feedback_run = run_feedback_loop(
        &ctx.benchmark,
        &ClosedLoopConfig::new(2, requests_per_client.max(60), seed + 900),
        |query| {
            let executed = db_b
                .execute(&query, &mut *feedback_rng.lock().expect("rng lock"))
                .map_err(|e| e.to_string())?;
            let response = gateway
                .estimate(EstimateRequest::new(
                    kind,
                    Arc::clone(&env_b),
                    executed.root.clone(),
                ))
                .map_err(|e| e.to_string())?;
            gateway
                .record_execution(kind, &env_b, &executed)
                .map_err(|e| e.to_string())?;
            Ok(ObservedEstimate {
                estimate_ms: response.cost_ms,
                observed_ms: executed.total_ms,
            })
        },
    );
    assert_eq!(feedback_run.errors, 0, "feedback serving must not fail");
    let refine_stats = gateway.stats();
    assert!(
        refine_stats.refits >= 1,
        "the label stream must trigger a refit"
    );
    assert_eq!(
        refine_stats.promotions, 1,
        "the transferred shard must be promoted exactly once"
    );

    let refined_run = measure(true);
    assert_eq!(refined_run.errors, 0, "refined serving must not fail");
    let _ = std::fs::remove_dir_all(&refine_root);

    let mut refine_table = ReportTable::new(
        "Online refinement: estimate error on a cold environment (QCFE(mscn))",
        &[
            "phase",
            "snapshot",
            "mean q-error",
            "median q-error",
            "refits",
            "promotions",
        ],
    );
    refine_table.push_row(vec![
        "before feedback".into(),
        "transferred from nearest".into(),
        fmt3(transferred_run.mean_q_error()),
        fmt3(transferred_run.median_q_error()),
        "0".into(),
        "0".into(),
    ]);
    refine_table.push_row(vec![
        "after feedback".into(),
        "refit from own labels".into(),
        fmt3(refined_run.mean_q_error()),
        fmt3(refined_run.median_q_error()),
        refine_stats.refits.to_string(),
        refine_stats.promotions.to_string(),
    ]);
    report.add_table(refine_table);
    eprintln!(
        "[serve] refinement: mean q-error {:.3} (transferred) -> {:.3} (refit) over {} labels, {} refits",
        transferred_run.mean_q_error(),
        refined_run.mean_q_error(),
        refine_stats.labels_recorded,
        refine_stats.refits,
    );

    // ---------------------------------------------------------------
    // Network front end: the qcfe-net reactor serving the same routed
    // gateway over a loopback Unix-domain socket. N remote clients each
    // pipeline their whole request batch through one connection; the
    // baseline is the same N clients calling `gateway.estimate`
    // in-process. Throughput is reported, not gated — loopback syscall
    // cost is machine noise — but the mean micro-batch the shards drain
    // over each window is a count, and the UDS one is gated at the end.
    // Every remote estimate is asserted bit-identical to its in-process
    // twin first.
    // ---------------------------------------------------------------
    let net_root = std::env::temp_dir().join(format!(
        "qcfe-serve-bench-net-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&net_root);
    let gateway = Arc::new(
        QcfeGateway::builder(&net_root)
            .service_config(shard_config)
            .build()
            .expect("gateway builds"),
    );
    for (env, snapshot) in ctx.workload.environments.iter().zip(&snapshots) {
        gateway
            .publish_snapshot(kind, env, snapshot)
            .expect("snapshot published");
        gateway.register_model(
            ModelKey::new(kind, EstimatorKind::QcfeMscn, env.fingerprint()),
            Arc::clone(&mscn_model),
        );
    }
    let net_clients = if quick { 8 } else { 16 };
    let query_plans: Vec<PlanNode> = ctx
        .workload
        .queries
        .iter()
        .map(|q| q.executed.root.clone())
        .collect();
    let net_requests: Vec<Vec<EstimateRequest>> = (0..net_clients)
        .map(|c| {
            let env = Arc::new(ctx.workload.environments[c % env_count].clone());
            (0..requests_per_client)
                .map(|r| {
                    EstimateRequest::new(
                        kind,
                        Arc::clone(&env),
                        query_plans[(c + r) % query_plans.len()].clone(),
                    )
                })
                .collect()
        })
        .collect();

    let socket = std::env::temp_dir().join(format!(
        "qcfe-serve-bench-net-{}-{seed}.sock",
        std::process::id()
    ));
    let server = NetServerBuilder::new(Arc::clone(&gateway))
        .uds(&socket)
        .max_connections(net_clients + 4)
        .start()
        .expect("net server starts");

    // Bit-identity sanity (also warms every environment's shard before
    // either timing window): one request per client batch, remote vs
    // in-process.
    {
        let mut client = QcfeClient::connect_uds(&socket).expect("client connects");
        for batch in &net_requests {
            let request = &batch[0];
            let expected = gateway.estimate(request.clone()).expect("in-process");
            let remote = client.estimate(request).expect("remote");
            assert_eq!(
                remote.cost_ms.to_bits(),
                expected.cost_ms.to_bits(),
                "remote estimate must be bit-identical to in-process"
            );
        }
    }

    // (completed, drained micro-batches) summed over the resident shards:
    // the deltas across a timing window give its mean micro-batch.
    let batch_totals = |gateway: &QcfeGateway| {
        gateway
            .resident_shards()
            .iter()
            .filter_map(|key| gateway.shard_metrics(key))
            .fold((0u64, 0u64), |(completed, batches), m| {
                (completed + m.completed, batches + m.batches)
            })
    };
    let mean_batch = |before: (u64, u64), after: (u64, u64)| {
        (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
    };

    let before = batch_totals(&gateway);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for batch in &net_requests {
            let gateway = &gateway;
            scope.spawn(move || {
                for request in batch {
                    gateway.estimate(request.clone()).expect("in-process");
                }
            });
        }
    });
    let inproc_tput = (net_clients * requests_per_client) as f64 / started.elapsed().as_secs_f64();
    let inproc_batch_mean = mean_batch(before, batch_totals(&gateway));

    let before = batch_totals(&gateway);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for batch in &net_requests {
            let socket = &socket;
            scope.spawn(move || {
                let mut client = QcfeClient::connect_uds(socket).expect("client connects");
                for request in batch {
                    client.send(request).expect("send");
                }
                for _ in 0..batch.len() {
                    let response = client.recv().expect("recv");
                    response.outcome.expect("remote estimate");
                }
            });
        }
    });
    let net_tput = (net_clients * requests_per_client) as f64 / started.elapsed().as_secs_f64();
    let net_batch_mean = mean_batch(before, batch_totals(&gateway));

    let net_stats = server.join().expect("clean reactor shutdown");
    assert_eq!(
        net_stats.responses_ok as usize,
        net_clients + net_clients * requests_per_client,
        "every remote request must be answered"
    );
    assert_eq!(net_stats.responses_fault, 0, "no remote request may fault");
    assert_eq!(net_stats.protocol_errors, 0, "no frame may be malformed");
    let _ = std::fs::remove_dir_all(&net_root);

    let mut net_table = ReportTable::new(
        "Network front end: loopback UDS reactor vs in-process gateway (QCFE(mscn))",
        &[
            "path",
            "clients",
            "requests/client",
            "aggregate throughput (est/s)",
            "ratio vs in-process",
            "mean micro-batch",
        ],
    );
    net_table.push_row(vec![
        "in-process QcfeGateway".into(),
        net_clients.to_string(),
        requests_per_client.to_string(),
        format!("{inproc_tput:.0}"),
        fmt3(1.0),
        format!("{inproc_batch_mean:.2}"),
    ]);
    net_table.push_row(vec![
        "qcfe-net UDS reactor (pipelined)".into(),
        net_clients.to_string(),
        requests_per_client.to_string(),
        format!("{net_tput:.0}"),
        fmt3(net_tput / inproc_tput),
        format!("{net_batch_mean:.2}"),
    ]);
    report.add_table(net_table);
    eprintln!(
        "[serve] network front end: {net_clients} pipelined UDS clients {net_tput:.0} est/s vs in-process {inproc_tput:.0} est/s ({:.2}x); mean micro-batch {net_batch_mean:.2} over UDS, {inproc_batch_mean:.2} in process",
        net_tput / inproc_tput
    );

    // ---------------------------------------------------------------
    // Multi-tenant scheduling: the same adversarial mix replayed against
    // a blind-FIFO gateway and one running `SchedPolicy::edf()` with a
    // 2-slot queue share on the greedy tenant. A greedy tenant floods a
    // single-worker, throttled shard (1 ms per micro-batch, max_batch 2)
    // with deadline-less traffic from 16 closed-loop clients while two
    // compliant tenants (2 clients each) submit deadline-carrying
    // requests; the throttle makes queue wait dominate latency, so the
    // comparison measures ordering policy, not inference speed. Both
    // gateways stay up and the mix runs in alternating FIFO/EDF rounds
    // (one seed per round, replayed on both), pooling each policy's
    // lanes until its compliant p99 has `SCHED_TAIL_SAMPLES` samples
    // above it.
    // ---------------------------------------------------------------
    const GREEDY_TENANT: u32 = 7;
    const COMPLIANT_TENANTS: [u32; 2] = [21, 22];
    let sched_requests = if quick { 40 } else { 120 };
    let sched_lanes = [
        TenantLoad::greedy(GREEDY_TENANT, 16, sched_requests),
        TenantLoad::compliant(
            COMPLIANT_TENANTS[0],
            2,
            sched_requests,
            Duration::from_secs(5),
        ),
        TenantLoad::compliant(
            COMPLIANT_TENANTS[1],
            2,
            sched_requests,
            Duration::from_secs(5),
        ),
    ];
    let sched_config = ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        max_batch: 2,
        encoding_cache_capacity: 1024,
    };
    let throttled_model: Arc<dyn CostModel> = Arc::new(ThrottledModel {
        inner: Arc::clone(&mscn_model),
        delay: Duration::from_millis(1),
    });
    let sched_env = Arc::new(ctx.workload.environments[0].clone());
    let sched_db = &dbs[0];
    let run_mix = |gateway: &QcfeGateway, round_seed: u64| {
        run_multi_tenant_mix(
            &ctx.benchmark,
            &sched_lanes,
            round_seed,
            |tenant, deadline, query| {
                let plan = sched_db
                    .plan(&query)
                    .map_err(|e| SubmitError::Other(e.to_string()))?;
                let mut request = EstimateRequest::new(kind, Arc::clone(&sched_env), plan)
                    .with_tenant(TenantId(tenant));
                request.options.shed_load = true;
                if let Some(deadline) = deadline {
                    request = request.with_deadline(deadline);
                }
                match gateway.estimate(request) {
                    Ok(response) => Ok(response.cost_ms),
                    Err(QcfeError::Service(ServiceError::QueueFull { .. })) => {
                        Err(SubmitError::Shed)
                    }
                    Err(QcfeError::DeadlineExceeded { .. }) => Err(SubmitError::DeadlineExceeded),
                    Err(other) => Err(SubmitError::Other(other.to_string())),
                }
            },
        )
    };
    let start_gateway = |tag: &str, policy: SchedPolicy| {
        let root = std::env::temp_dir().join(format!(
            "qcfe-serve-bench-sched-{tag}-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let gateway = QcfeGateway::builder(&root)
            .service_config(sched_config)
            .scheduling(policy)
            .build()
            .expect("gateway builds");
        gateway
            .publish_snapshot(kind, &ctx.workload.environments[0], &snapshots[0])
            .expect("snapshot published");
        gateway.register_model(
            ModelKey::new(
                kind,
                EstimatorKind::QcfeMscn,
                ctx.workload.environments[0].fingerprint(),
            ),
            Arc::clone(&throttled_model),
        );
        // Warm the shard so neither policy pays model load on its first
        // timed request.
        gateway
            .estimate(EstimateRequest::new(
                kind,
                Arc::clone(&sched_env),
                ctx.workload.queries[0].executed.root.clone(),
            ))
            .expect("warm-up estimate");
        (gateway, root)
    };
    eprintln!("[serve] multi-tenant scheduling: adversarial mix vs FIFO baseline...");
    let (fifo_gateway, fifo_root) = start_gateway("fifo", SchedPolicy::fifo());
    let (edf_gateway, edf_root) = start_gateway(
        "edf",
        SchedPolicy::edf()
            .with_age_after(Duration::from_millis(50))
            .with_quota(
                TenantId(GREEDY_TENANT),
                TenantQuota::new(f64::INFINITY, f64::INFINITY, 2),
            ),
    );
    let (mut fifo_pool, mut edf_pool) = (None, None);
    let tail_samples = |pool: &Option<MultiTenantReport>| {
        pool.as_ref()
            .map_or(0, |mix| pooled_p99_ms(mix, &COMPLIANT_TENANTS).1)
    };
    let mut sched_rounds = 0;
    while sched_rounds < SCHED_MAX_ROUNDS
        && (tail_samples(&fifo_pool) < SCHED_TAIL_SAMPLES
            || tail_samples(&edf_pool) < SCHED_TAIL_SAMPLES)
    {
        let round_seed = seed + 700 + sched_rounds as u64;
        if sched_rounds % 2 == 0 {
            pool_mix(&mut fifo_pool, run_mix(&fifo_gateway, round_seed));
            pool_mix(&mut edf_pool, run_mix(&edf_gateway, round_seed));
        } else {
            pool_mix(&mut edf_pool, run_mix(&edf_gateway, round_seed));
            pool_mix(&mut fifo_pool, run_mix(&fifo_gateway, round_seed));
        }
        sched_rounds += 1;
    }
    let edf_stats = edf_gateway.stats();
    drop((fifo_gateway, edf_gateway));
    let _ = std::fs::remove_dir_all(&fifo_root);
    let _ = std::fs::remove_dir_all(&edf_root);
    let fifo_mix = fifo_pool.expect("at least one scheduling round");
    let edf_mix = edf_pool.expect("at least one scheduling round");

    let mut sched_table = ReportTable::new(
        "Multi-tenant scheduling: adversarial mix on a throttled shard, FIFO vs EDF+quota",
        &[
            "policy",
            "tenant",
            "attempted",
            "completed",
            "shed",
            "p50 (ms)",
            "p99 (ms)",
            "goodput",
        ],
    );
    for (label, mix) in [
        ("FIFO (default)", &fifo_mix),
        ("EDF + greedy quota", &edf_mix),
    ] {
        for lane in &mix.lanes {
            // Every request must resolve typed — served, shed or deadline
            // -failed — in both runs; nothing may hang or error opaquely.
            assert_eq!(
                lane.completed + lane.shed + lane.deadline_failures + lane.other_errors,
                lane.attempted,
                "{label}: tenant {} lost requests",
                lane.tenant
            );
            assert_eq!(
                lane.other_errors, 0,
                "{label}: tenant {} hit untyped errors",
                lane.tenant
            );
            sched_table.push_row(vec![
                label.to_string(),
                if lane.tenant == GREEDY_TENANT {
                    format!("{} (greedy)", lane.tenant)
                } else {
                    format!("{} (deadline 5s)", lane.tenant)
                },
                lane.attempted.to_string(),
                lane.completed.to_string(),
                lane.shed.to_string(),
                fmt3(lane.latency_percentile_ms(50.0)),
                fmt3(lane.latency_percentile_ms(99.0)),
                fmt3(lane.goodput()),
            ]);
        }
    }
    report.add_table(sched_table);

    let (fifo_p99, fifo_tail) = pooled_p99_ms(&fifo_mix, &COMPLIANT_TENANTS);
    let (edf_p99, edf_tail) = pooled_p99_ms(&edf_mix, &COMPLIANT_TENANTS);
    eprintln!(
        "[serve] scheduling: compliant p99 {fifo_p99:.3} ms (FIFO) -> {edf_p99:.3} ms (EDF) over {sched_rounds} alternating rounds ({fifo_tail} and {edf_tail} samples above p99), greedy shed {} of {}",
        edf_mix.lane(GREEDY_TENANT).map_or(0, |l| l.shed),
        edf_mix.lane(GREEDY_TENANT).map_or(0, |l| l.attempted),
    );

    // CI regression gate: with scheduling on, the compliant tenants'
    // pooled p99 must be at most half the FIFO baseline and every
    // compliant lane must keep >= 80% of its fair share (its whole
    // closed-loop demand) as goodput, despite the greedy flood.
    assert!(
        edf_p99 <= 0.5 * fifo_p99,
        "scheduling did not cut compliant p99 in half: {edf_p99:.3} ms vs FIFO {fifo_p99:.3} ms"
    );
    for tenant in COMPLIANT_TENANTS {
        let lane = edf_mix.lane(tenant).expect("compliant lane reported");
        assert!(
            lane.goodput() >= 0.8,
            "compliant tenant {tenant} goodput fell below fair share: {:.3}",
            lane.goodput()
        );
    }

    // CI regression gate: the greedy tenant is shed typed — nonzero shed
    // counters both client-side and in the gateway's per-tenant metrics
    // lane — and still gets residual service (backfill), never a hang.
    let greedy_lane = edf_mix.lane(GREEDY_TENANT).expect("greedy lane reported");
    assert!(
        greedy_lane.shed > 0,
        "greedy tenant was never shed despite a 2-slot queue share"
    );
    assert!(
        greedy_lane.completed > 0,
        "greedy tenant must still be backfilled within its share"
    );
    let greedy_metrics = edf_stats
        .tenants
        .iter()
        .find(|lane| lane.tenant == TenantId(GREEDY_TENANT))
        .expect("greedy tenant lane in gateway stats");
    assert!(
        greedy_metrics.shed_quota > 0,
        "gateway metrics must attribute the greedy tenant's sheds to its quota"
    );
    assert!(
        greedy_metrics.admitted > 0 && greedy_metrics.batches_formed > 0,
        "gateway metrics must show the greedy tenant's admitted share being served"
    );

    // ---------------------------------------------------------------
    // Replication: three local replicas with rendezvous-sharded keys,
    // closed-loop load on one shard, owner killed mid-run. Reported:
    // throughput across the kill and the time for the survivors to
    // absorb the dead peer's keys from shipped QCFS/QCFW state.
    // Asserted: the loop keeps completing requests, post-failover
    // estimates are bit-identical, no shipped state is rejected.
    // ---------------------------------------------------------------
    const REPLICAS: usize = 3;
    eprintln!("[serve] replication: {REPLICAS} local replicas, kill-one-mid-load...");
    let repl_peers: Vec<String> = {
        let listeners: Vec<TcpListener> = (0..REPLICAS)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
            .collect();
        listeners
            .iter()
            .map(|l| l.local_addr().expect("local addr").to_string())
            .collect()
    };
    let mut repl_roots = Vec::new();
    let mut repl_replicators = Vec::new();
    let mut repl_gateways = Vec::new();
    let mut repl_servers = Vec::new();
    for (i, addr) in repl_peers.iter().enumerate() {
        let set = Arc::new(ReplicaSet::new(repl_peers.clone(), i).expect("replica set"));
        let replicator = Replicator::start(
            Arc::clone(&set),
            ReplicatorConfig {
                heartbeat: Duration::from_millis(100),
                connect_timeout: Duration::from_millis(100),
                ..ReplicatorConfig::default()
            },
        );
        let root = std::env::temp_dir().join(format!(
            "qcfe-serve-bench-repl-{i}-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let gateway = Arc::new(
            QcfeGateway::builder(&root)
                .service_config(shard_config)
                .replication(Arc::clone(&set), replicator.sink())
                .build()
                .expect("replica gateway builds"),
        );
        let server = NetServerBuilder::new(Arc::clone(&gateway))
            .tcp(addr.clone())
            .replica(set)
            .max_connections(64)
            .start()
            .expect("replica server starts");
        repl_roots.push(root);
        repl_replicators.push(Some(replicator));
        repl_gateways.push(gateway);
        repl_servers.push(Some(server));
    }

    // Publish every environment through its rendezvous owner only; the
    // replicators ship the persisted bytes to the other two.
    let repl_keys: Vec<ModelKey> = ctx
        .workload
        .environments
        .iter()
        .map(|env| ModelKey::new(kind, EstimatorKind::QcfeMscn, env.fingerprint()))
        .collect();
    for ((env, snapshot), key) in ctx
        .workload
        .environments
        .iter()
        .zip(&snapshots)
        .zip(&repl_keys)
    {
        let owner = owner_among(&repl_peers, key).expect("placed");
        repl_gateways[owner]
            .publish_snapshot(kind, env, snapshot)
            .expect("snapshot published");
        repl_gateways[owner]
            .publish_model(*key, PersistedModel::Mscn(mscn_for_restart.clone()))
            .expect("weights published");
    }
    let converge_deadline = Instant::now() + Duration::from_secs(30);
    while !repl_gateways.iter().all(|g| {
        repl_keys.iter().all(|key| {
            g.store().contains(kind, key.fingerprint)
                && g.store()
                    .contains_model(key.benchmark, key.estimator, key.fingerprint)
        })
    }) {
        assert!(
            Instant::now() < converge_deadline,
            "replication did not converge within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let repl_client = || {
        ShardClient::new(Arc::new(
            ReplicaSet::client_view(repl_peers.clone()).expect("client view"),
        ))
        .read_timeout(Some(Duration::from_secs(5)))
        .attempt_backoff(Duration::from_millis(50))
    };
    // The load targets environment 0's shard; its owner is the victim,
    // so in-flight requests are mid-failover when it dies.
    let victim = owner_among(&repl_peers, &repl_keys[0]).expect("placed");
    let repl_env = Arc::new(ctx.workload.environments[0].clone());
    let probe_request = EstimateRequest::new(
        kind,
        Arc::clone(&repl_env),
        ctx.workload.queries[0].executed.root.clone(),
    );
    let probe_bits = repl_client()
        .estimate(&probe_request)
        .expect("pre-kill probe")
        .cost_ms
        .to_bits();

    let repl_load_clients = if quick { 2 } else { 4 };
    let load_duration = Duration::from_millis(if quick { 1500 } else { 3000 });
    let kill_after = load_duration / 3;
    let victim_server = Mutex::new(repl_servers[victim].take());
    let victim_replicator = Mutex::new(repl_replicators[victim].take());
    // The victim owns environment 0's key, and rendezvous placement can
    // hand it every other key too: count its ships before it goes.
    let victim_ships = AtomicU64::new(0);
    let absorb_ms = Mutex::new(0.0f64);
    let repl_db = &dbs[0];
    let pool = Mutex::new(
        (0..repl_load_clients)
            .map(|_| repl_client())
            .collect::<Vec<_>>(),
    );
    let repl_run = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(kill_after);
            if let Some(handle) = victim_server.lock().expect("victim lock").take() {
                handle.join().expect("victim drains");
            }
            if let Some(replicator) = victim_replicator.lock().expect("replicator lock").take() {
                victim_ships.store(replicator.stats().ships_sent, Ordering::Relaxed);
            }
            // Absorb latency: from the victim being fully gone to a
            // survivor answering for its keys, redirects and liveness
            // discovery included.
            let killed = Instant::now();
            let mut prober = repl_client();
            loop {
                if let Ok(response) = prober.estimate(&probe_request) {
                    assert_eq!(
                        response.cost_ms.to_bits(),
                        probe_bits,
                        "absorbed shard must answer bit-identically"
                    );
                    break;
                }
            }
            *absorb_ms.lock().expect("absorb lock") = killed.elapsed().as_secs_f64() * 1e3;
        });
        run_timed_loop(
            &ctx.benchmark,
            repl_load_clients,
            load_duration,
            seed + 1100,
            |query| {
                let plan = repl_db.plan(&query).map_err(|e| e.to_string())?;
                let request = EstimateRequest::new(kind, Arc::clone(&repl_env), plan);
                let mut client = pool
                    .lock()
                    .expect("pool lock")
                    .pop()
                    .expect("pooled client");
                let result = client.estimate(&request);
                pool.lock().expect("pool lock").push(client);
                result.map(|r| r.cost_ms).map_err(|e| e.to_string())
            },
        )
    });
    let absorb_ms = *absorb_ms.lock().expect("absorb lock");
    assert!(
        repl_run.completed > 0,
        "the timed loop must keep completing requests across the kill"
    );
    let post_bits = repl_client()
        .estimate(&probe_request)
        .expect("post-failover probe")
        .cost_ms
        .to_bits();
    assert_eq!(
        post_bits, probe_bits,
        "post-failover estimates must be bit-identical"
    );
    let repl_shipped: u64 = repl_replicators
        .iter()
        .flatten()
        .map(|r| r.stats().ships_sent)
        .sum::<u64>()
        + victim_ships.load(Ordering::Relaxed);
    assert!(repl_shipped > 0, "owners must have shipped state to peers");
    for (i, server) in repl_servers.iter_mut().enumerate() {
        if let Some(handle) = server.take() {
            let stats = handle.join().expect("replica drains");
            assert_eq!(
                stats.ships_rejected, 0,
                "replica {i} must not reject shipped state"
            );
        }
    }
    drop(repl_replicators);
    drop(repl_gateways);
    for root in &repl_roots {
        let _ = std::fs::remove_dir_all(root);
    }

    let mut repl_table = ReportTable::new(
        "Replication: kill-one-of-three mid-load (QCFE(mscn), rendezvous-sharded)",
        &[
            "replicas",
            "load clients",
            "wall (s)",
            "completed",
            "errors",
            "throughput (est/s)",
            "absorb latency (ms)",
        ],
    );
    repl_table.push_row(vec![
        format!("{REPLICAS} (1 killed)"),
        repl_load_clients.to_string(),
        fmt3(repl_run.wall_s),
        repl_run.completed.to_string(),
        repl_run.errors.to_string(),
        format!("{:.0}", repl_run.throughput_qps()),
        fmt3(absorb_ms),
    ]);
    report.add_table(repl_table);
    eprintln!(
        "[serve] replication: {:.0} est/s across the kill ({} completed, {} errors), absorb latency {absorb_ms:.1} ms",
        repl_run.throughput_qps(),
        repl_run.completed,
        repl_run.errors,
    );

    // ---------------------------------------------------------------
    // Revival: the anti-entropy drill. Three store-backed replicas
    // converge; the owner of the loaded shard is killed; while it is
    // down, its key's snapshot and model are re-published on the
    // failover owner, leaving the victim's disk stale; the victim is
    // restarted over that stale store mid-load. Reported: catch-up
    // latency (restart -> promoted on every survivor) and keys
    // re-shipped. Asserted: zero stale reads (every networked answer
    // bit-identical to the re-publishing owner's at that moment),
    // promotion on every survivor, the divergent snapshot + weights
    // both re-shipped, and the revived server answering manifests.
    // ---------------------------------------------------------------
    eprintln!("[serve] revival: re-publish during outage, revive mid-load...");
    let rev_peers: Vec<String> = {
        let listeners: Vec<TcpListener> = (0..REPLICAS)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
            .collect();
        listeners
            .iter()
            .map(|l| l.local_addr().expect("local addr").to_string())
            .collect()
    };
    let rev_roots: Vec<_> = (0..REPLICAS)
        .map(|i| {
            let root = std::env::temp_dir().join(format!(
                "qcfe-serve-bench-rev-{i}-{}-{seed}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            root
        })
        .collect();
    // One node = liveness set + store-backed (anti-entropy) replicator +
    // gateway + server; the victim is revived through the same
    // constructor, over the same (now stale) directory.
    let start_rev_node = |i: usize| {
        let set = Arc::new(ReplicaSet::new(rev_peers.clone(), i).expect("replica set"));
        let replicator = Replicator::with_store(
            Arc::clone(&set),
            ReplicatorConfig {
                heartbeat: Duration::from_millis(100),
                connect_timeout: Duration::from_millis(100),
                ..ReplicatorConfig::default()
            },
            SnapshotStore::open(&rev_roots[i]).expect("store opens"),
        );
        let gateway = Arc::new(
            QcfeGateway::builder(&rev_roots[i])
                .service_config(shard_config)
                .replication(Arc::clone(&set), replicator.sink())
                .build()
                .expect("replica gateway builds"),
        );
        let server = NetServerBuilder::new(Arc::clone(&gateway))
            .tcp(rev_peers[i].clone())
            .replica(Arc::clone(&set))
            .max_connections(64)
            .start()
            .expect("replica server starts");
        (set, replicator, gateway, server)
    };
    let mut rev_sets = Vec::new();
    let mut rev_replicators = Vec::new();
    let mut rev_gateways = Vec::new();
    let mut rev_servers: Vec<Option<_>> = Vec::new();
    for i in 0..REPLICAS {
        let (set, replicator, gateway, server) = start_rev_node(i);
        rev_sets.push(set);
        rev_replicators.push(Some(replicator));
        rev_gateways.push(gateway);
        rev_servers.push(Some(server));
    }

    // One loaded key is enough: publish environment 0 through its owner
    // and wait until every store holds snapshot + weights.
    let rev_key = repl_keys[0];
    let rev_victim = owner_among(&rev_peers, &rev_key).expect("placed");
    let rev_survivors: Vec<usize> = (0..REPLICAS).filter(|&i| i != rev_victim).collect();
    let rev_heir = {
        let survivor_addrs: Vec<String> = rev_survivors
            .iter()
            .map(|&s| rev_peers[s].clone())
            .collect();
        rev_survivors[owner_among(&survivor_addrs, &rev_key).expect("placed")]
    };
    rev_gateways[rev_victim]
        .publish_snapshot(kind, &ctx.workload.environments[0], &snapshots[0])
        .expect("snapshot published");
    rev_gateways[rev_victim]
        .publish_model(rev_key, PersistedModel::Mscn(mscn_for_restart.clone()))
        .expect("weights published");
    let converge_deadline = Instant::now() + Duration::from_secs(30);
    while !rev_gateways.iter().all(|g| {
        g.store().contains(kind, rev_key.fingerprint)
            && g.store()
                .contains_model(rev_key.benchmark, rev_key.estimator, rev_key.fingerprint)
    }) {
        assert!(
            Instant::now() < converge_deadline,
            "revival setup did not converge within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let rev_client = || {
        ShardClient::new(Arc::new(
            ReplicaSet::client_view(rev_peers.clone()).expect("client view"),
        ))
        .read_timeout(Some(Duration::from_secs(5)))
        .attempt_backoff(Duration::from_millis(50))
    };
    let rev_env = Arc::new(ctx.workload.environments[0].clone());
    let rev_probe = EstimateRequest::new(
        kind,
        Arc::clone(&rev_env),
        ctx.workload.queries[0].executed.root.clone(),
    );
    let stale_probe_bits = rev_client()
        .estimate(&rev_probe)
        .expect("pre-kill probe")
        .cost_ms
        .to_bits();

    // The weights re-published during the outage: the same model family
    // trained from a different seed, so its sidecar is byte-divergent from
    // what the victim's store still holds.
    let mut divergent_rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
    let (divergent_mscn, _) = MscnEstimator::train(
        FeatureEncoder::new(&ctx.benchmark.catalog, true),
        &ctx.workload,
        Some(&ctx.snapshots_fso),
        None,
        if quick { 15 } else { 30 },
        &mut divergent_rng,
    );

    // Kill the victim and wait until every survivor's heartbeat agrees.
    rev_servers[rev_victim]
        .take()
        .expect("victim running")
        .join()
        .expect("victim drains");
    rev_replicators[rev_victim].take();
    let dead_deadline = Instant::now() + Duration::from_secs(30);
    while rev_survivors
        .iter()
        .any(|&s| rev_sets[s].is_alive(rev_victim))
    {
        assert!(
            Instant::now() < dead_deadline,
            "survivors did not notice the kill within 30s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Re-publish during the outage: a different fitted snapshot and the
    // divergent weights under the same key.
    rev_gateways[rev_heir]
        .publish_snapshot(kind, &ctx.workload.environments[0], &snapshots[1])
        .expect("re-published snapshot");
    rev_gateways[rev_heir]
        .publish_model(rev_key, PersistedModel::Mscn(divergent_mscn))
        .expect("re-published weights");
    let converge_deadline = Instant::now() + Duration::from_secs(30);
    while rev_gateways[rev_survivors[0]]
        .store()
        .manifest()
        .expect("manifest")
        != rev_gateways[rev_survivors[1]]
            .store()
            .manifest()
            .expect("manifest")
    {
        assert!(
            Instant::now() < converge_deadline,
            "survivors did not converge on the re-published state within 30s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let fresh_probe_bits = rev_gateways[rev_heir]
        .estimate(rev_probe.clone())
        .expect("fresh reference")
        .cost_ms
        .to_bits();
    assert_ne!(
        stale_probe_bits, fresh_probe_bits,
        "the re-publish must change the served estimates"
    );

    // Mid-load revival. Every networked answer is compared bit-for-bit
    // against the heir's in-process answer: only a pre-catch-up victim
    // can diverge, so any mismatch is a stale read.
    let rev_duration = Duration::from_millis(if quick { 1500 } else { 3000 });
    let revive_after = rev_duration / 3;
    let rev_pool = Mutex::new(
        (0..repl_load_clients)
            .map(|_| rev_client())
            .collect::<Vec<_>>(),
    );
    let stale_reads = AtomicU64::new(0);
    let catch_up_ms = Mutex::new(f64::NAN);
    let revived = Mutex::new(None);
    let rev_run = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(revive_after);
            let restarted = Instant::now();
            let node = start_rev_node(rev_victim);
            let deadline = Instant::now() + Duration::from_secs(30);
            while !rev_survivors
                .iter()
                .all(|&s| rev_sets[s].is_alive(rev_victim) && !rev_sets[s].is_reviving(rev_victim))
            {
                assert!(
                    Instant::now() < deadline,
                    "survivors did not promote the revived victim within 30s"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            *catch_up_ms.lock().expect("latency lock") = restarted.elapsed().as_secs_f64() * 1e3;
            *revived.lock().expect("revived lock") = Some(node);
        });
        run_timed_loop(
            &ctx.benchmark,
            repl_load_clients,
            rev_duration,
            seed + 1200,
            |query| {
                let plan = repl_db.plan(&query).map_err(|e| e.to_string())?;
                let request = EstimateRequest::new(kind, Arc::clone(&rev_env), plan);
                let expected = rev_gateways[rev_heir]
                    .estimate(request.clone())
                    .map_err(|e| e.to_string())?;
                let mut client = rev_pool
                    .lock()
                    .expect("pool lock")
                    .pop()
                    .expect("pooled client");
                let result = client.estimate(&request);
                rev_pool.lock().expect("pool lock").push(client);
                let response = result.map_err(|e| e.to_string())?;
                if response.cost_ms.to_bits() != expected.cost_ms.to_bits() {
                    stale_reads.fetch_add(1, Ordering::Relaxed);
                }
                Ok(response.cost_ms)
            },
        )
    });
    let catch_up_ms = *catch_up_ms.lock().expect("latency lock");
    let (rev_set2, rev_replicator2, rev_gateway2, rev_server2) = revived
        .into_inner()
        .expect("revived lock")
        .expect("revival thread ran");
    assert!(
        rev_run.completed > 0,
        "the timed loop must keep completing requests across the revival"
    );
    assert_eq!(
        stale_reads.load(Ordering::Relaxed),
        0,
        "no request may ever see pre-outage bits: the reviving victim must \
         stay out of placement until its catch-up drains"
    );
    // The revived owner now serves the re-published state bit-identically.
    let post_bits = rev_client()
        .estimate(&rev_probe)
        .expect("post-revival probe")
        .cost_ms
        .to_bits();
    assert_eq!(
        post_bits, fresh_probe_bits,
        "the revived owner must serve the re-published state bit-identically"
    );
    let mut rev_reshipped = 0u64;
    let mut rev_manifests = 0u64;
    for &s in &rev_survivors {
        let stats = rev_replicators[s]
            .as_ref()
            .expect("survivor replicator")
            .stats();
        assert!(
            stats.revivals >= 1,
            "survivor {s} must have completed a revival"
        );
        assert!(
            stats.manifests_exchanged >= 1,
            "survivor {s} must have interrogated the revived peer"
        );
        assert_eq!(stats.ships_rejected, 0, "no re-ship may be rejected");
        rev_reshipped += stats.keys_reshipped;
        rev_manifests += stats.manifests_exchanged;
    }
    assert!(
        rev_reshipped >= 2,
        "the stale snapshot and weights must both have been re-shipped, got {rev_reshipped}"
    );
    drop(rev_replicator2);
    let rev_server_stats = rev_server2.join().expect("revived server drains");
    assert!(
        rev_server_stats.manifests_served >= 1,
        "the revived server must have answered manifest requests"
    );
    assert_eq!(
        rev_server_stats.ships_rejected, 0,
        "the revived server must accept every catch-up re-ship"
    );
    drop(rev_set2);
    drop(rev_gateway2);
    for server in rev_servers.iter_mut() {
        if let Some(handle) = server.take() {
            handle.join().expect("replica drains");
        }
    }
    drop(rev_replicators);
    drop(rev_gateways);
    for root in &rev_roots {
        let _ = std::fs::remove_dir_all(root);
    }

    let mut rev_table = ReportTable::new(
        "Revival: re-publish during outage, revive mid-load (anti-entropy catch-up)",
        &[
            "replicas",
            "load clients",
            "completed",
            "errors",
            "stale reads",
            "manifests exchanged",
            "keys re-shipped",
            "catch-up latency (ms)",
        ],
    );
    rev_table.push_row(vec![
        format!("{REPLICAS} (1 revived)"),
        repl_load_clients.to_string(),
        rev_run.completed.to_string(),
        rev_run.errors.to_string(),
        "0".to_string(),
        rev_manifests.to_string(),
        rev_reshipped.to_string(),
        format!("{catch_up_ms:.1}"),
    ]);
    report.add_table(rev_table);
    eprintln!(
        "[serve] revival: {} completed / {} errors across the revival, 0 stale reads, \
         {rev_reshipped} keys re-shipped, catch-up latency {catch_up_ms:.1} ms",
        rev_run.completed, rev_run.errors,
    );

    println!("{}", report.render());
    if let Some(path) = report.save_json() {
        eprintln!("[serve] report saved to {}", path.display());
    }
    if let Some(path) = report.save_bench_json() {
        eprintln!("[serve] bench trajectory saved to {}", path.display());
    }

    // CI regression gate: operator-grouped batching must never fall below
    // the scalar per-plan path.
    assert!(
        batched_best_tput >= scalar_tput,
        "batched QPPNet regressed below scalar: {batched_best_tput:.0} < {scalar_tput:.0} plans/s"
    );
    eprintln!(
        "[serve] QPPNet batched/scalar speedup: {:.2}x",
        batched_best_tput / scalar_tput
    );

    // CI regression gate: the AVX2 kernel must keep a real lead over the
    // scalar kernel on the batch-32 QPPNet path — same process, same
    // plans, same run. Skipped (loudly) on CPUs without AVX2, where the
    // sweep only exercised the scalar/portable pair.
    match avx2_f64_tput {
        Some(avx2) => {
            assert!(
                avx2 >= 1.15 * scalar_f64_tput,
                "AVX2 kernel regressed below 1.15x scalar: {avx2:.0} vs {scalar_f64_tput:.0} plans/s"
            );
            eprintln!(
                "[serve] AVX2/scalar kernel speedup at batch 32: {:.2}x",
                avx2 / scalar_f64_tput
            );
        }
        None => eprintln!("[serve] AVX2 gate skipped: CPU does not support AVX2+FMA"),
    }

    // CI regression gate: routing through the gateway must stay within 20%
    // of the equivalent hand-wired per-service setup (the front door adds
    // fingerprint hashing and one shard-map lookup per request, nothing
    // that should cost real throughput).
    assert!(
        gateway_tput >= 0.8 * handwired_tput,
        "routed gateway regressed below 80% of hand-wired: {gateway_tput:.0} vs {handwired_tput:.0} est/s"
    );

    // CI regression gate: a cold restart that loads persisted QCFW weights
    // must reach its first estimate faster than one that retrains.
    assert!(
        disk_ms < retrain_ms,
        "disk-loaded restart ({disk_ms:.3} ms) must beat retraining ({retrain_ms:.3} ms)"
    );

    // CI regression gate: online refinement must not make a cold
    // environment worse — after refit from its own labels, estimate error
    // is at most the transferred-snapshot error.
    assert!(
        refined_run.mean_q_error() <= transferred_run.mean_q_error(),
        "refit error regressed above transferred error: {:.4} > {:.4}",
        refined_run.mean_q_error(),
        transferred_run.mean_q_error()
    );

    // CI regression gate: the reactor must hand pipelined requests to the
    // shards in batches. A count, not a timing, so loopback noise cannot
    // trip it: the mean micro-batch over the UDS window stays at or above
    // NET_MIN_BATCH_MEAN (one hand-off per request gives about 2).
    assert!(
        net_batch_mean >= NET_MIN_BATCH_MEAN,
        "the UDS reactor's mean micro-batch fell to {net_batch_mean:.2} (gate {NET_MIN_BATCH_MEAN})"
    );
}
