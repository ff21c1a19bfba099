//! Integration tests of the online estimation layer through the serving
//! front door: train → publish through one gateway → simulated restart →
//! identical estimates, plus a concurrent closed-loop smoke test against
//! the routed gateway.

use qcfe::core::cost_model::CostModel;
use qcfe::core::encoding::FeatureEncoder;
use qcfe::core::estimators::{MscnEstimator, QppNetEstimator};
use qcfe::core::pipeline::{prepare_context, ContextConfig, EstimatorKind, ExperimentContext};
use qcfe::serve::prelude::*;
use qcfe::workloads::{run_closed_loop, BenchmarkKind, ClosedLoopConfig};
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

fn quick_ctx() -> ExperimentContext {
    let kind = BenchmarkKind::Sysbench;
    let cfg = ContextConfig {
        environments: 2,
        queries_per_env: 50,
        template_scale: 1,
        seed: 21,
        data_scale: kind.quick_scale(),
    };
    prepare_context(kind, &cfg)
}

fn train_mscn(ctx: &ExperimentContext) -> MscnEstimator {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let (model, _) = MscnEstimator::train(
        encoder,
        &ctx.workload,
        Some(&ctx.snapshots_fso),
        None,
        20,
        &mut rng,
    );
    model
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qcfe-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Acceptance criterion: an environment published through one gateway is
/// served — from disk, with identical estimates — by a *fresh* gateway
/// over the same store root (a simulated restart).
#[test]
fn published_snapshot_survives_restart_with_identical_estimates() {
    let ctx = quick_ctx();
    let kind = BenchmarkKind::Sysbench;
    let env = ctx.workload.environments[0].clone();
    let snapshot = ctx.snapshots_fso[0].clone().expect("fitted");
    let model = Arc::new(train_mscn(&ctx));
    let key = ModelKey::new(kind, EstimatorKind::QcfeMscn, env.fingerprint());
    let dir = temp_dir("restart");

    // "Process 1": publish the environment and record direct estimates.
    let before: Vec<f64> = {
        let gateway = QcfeGateway::builder(&dir).build().unwrap();
        gateway.publish_snapshot(kind, &env, &snapshot).unwrap();
        ctx.workload
            .queries
            .iter()
            .take(20)
            .map(|q| model.predict_plan(&q.executed.root, Some(&snapshot)))
            .collect()
    };

    // "Process 2" (after restart): a fresh gateway over the same root. The
    // model is re-registered (weights are not persisted yet — see
    // ROADMAP), the snapshot comes from disk.
    let gateway = QcfeGateway::builder(&dir)
        .with_model(key, model.clone() as Arc<dyn CostModel>)
        .build()
        .unwrap();
    for (q, expected) in ctx.workload.queries.iter().take(20).zip(&before) {
        let response = gateway
            .estimate(EstimateRequest::new(
                kind,
                env.clone(),
                q.executed.root.clone(),
            ))
            .unwrap();
        assert_eq!(
            response.cost_ms.to_bits(),
            expected.to_bits(),
            "reloaded snapshot must give bit-identical estimates"
        );
        assert_eq!(
            response.provenance.snapshot_origin,
            SnapshotOrigin::TrainedHere,
            "own fingerprint must not transfer"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance criterion: the gateway sustains a closed-loop load test of
/// ≥ 8 concurrent clients with micro-batching enabled, every request
/// getting a finite estimate.
#[test]
fn concurrent_closed_loop_load_with_micro_batching() {
    let ctx = quick_ctx();
    let kind = BenchmarkKind::Sysbench;
    let env = ctx.workload.environments[0].clone();
    let snapshot = ctx.snapshots_fso[0].clone().expect("fitted");
    let model: Arc<dyn CostModel> = Arc::new(train_mscn(&ctx));
    let key = ModelKey::new(kind, EstimatorKind::QcfeMscn, env.fingerprint());
    let dir = temp_dir("closedloop");

    let gateway = QcfeGateway::builder(&dir)
        .service_config(ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 16,
            encoding_cache_capacity: 1024,
        })
        .with_model(key, model)
        .build()
        .unwrap();
    gateway.publish_snapshot(kind, &env, &snapshot).unwrap();
    let db = ctx.benchmark.build_database(env.clone());

    let config = ClosedLoopConfig::new(8, 40, 5);
    let report = run_closed_loop(&ctx.benchmark, &config, |query| {
        let plan = db.plan(&query).map_err(|e| e.to_string())?;
        let request = EstimateRequest::new(kind, env.clone(), plan);
        let response = gateway.estimate(request).map_err(|e| e.to_string())?;
        Ok(response.cost_ms)
    });

    assert_eq!(report.errors, 0, "no request may fail");
    assert_eq!(report.completed, 8 * 40);
    assert!(
        report.estimates.iter().all(|e| e.is_finite() && *e > 0.0),
        "every estimate must be finite and positive"
    );
    let stats = gateway.stats();
    assert_eq!(stats.shard_starts, 1, "one environment, one shard");
    let metrics = gateway.shard_metrics(&key).expect("shard resident");
    assert_eq!(metrics.completed, 320);
    assert!(metrics.throughput_qps > 0.0);
    assert!(metrics.mean_batch_size >= 1.0);
    assert!(metrics.p50_latency_us <= metrics.p99_latency_us);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Routing every model family through the gateway leaves the results
/// unchanged — each served estimate has the bits of the model's direct
/// per-plan prediction (for QPPNet, of its scalar tree walk), for both the
/// flat (MSCN) and the tree-structured (QPPNet) estimator, on a cache miss
/// and again on a cache hit.
#[test]
fn gateway_routing_preserves_direct_predictions() {
    let ctx = quick_ctx();
    let kind = BenchmarkKind::Sysbench;
    let env = ctx.workload.environments[0].clone();
    let snapshot = ctx.snapshots_fso[0].clone().expect("fitted");
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let mut qpp = QppNetEstimator::new(encoder, None, &mut rng);
    qpp.train(&ctx.workload, Some(&ctx.snapshots_fso), 2, &mut rng);
    let scalar: Vec<u64> = ctx
        .workload
        .queries
        .iter()
        .take(40)
        .map(|q| {
            qpp.predict_scalar(&q.executed.root, Some(&snapshot))
                .to_bits()
        })
        .collect();

    let models: Vec<(EstimatorKind, Arc<dyn CostModel>)> = vec![
        (EstimatorKind::QcfeMscn, Arc::new(train_mscn(&ctx))),
        (EstimatorKind::QcfeQpp, Arc::new(qpp)),
    ];
    for (estimator, model) in models {
        let direct: Vec<f64> = ctx
            .workload
            .queries
            .iter()
            .take(40)
            .map(|q| model.predict_plan(&q.executed.root, Some(&snapshot)))
            .collect();
        if estimator == EstimatorKind::QcfeQpp {
            let direct: Vec<u64> = direct.iter().map(|d| d.to_bits()).collect();
            assert_eq!(direct, scalar, "QPPNet direct vs scalar walk");
        }
        let dir = temp_dir(&format!("routing-{estimator:?}"));
        let key = ModelKey::new(kind, estimator, env.fingerprint());
        let gateway = QcfeGateway::builder(&dir)
            .service_config(ServiceConfig {
                workers: 2,
                queue_capacity: 64,
                max_batch: 16,
                encoding_cache_capacity: 1024,
            })
            .with_model(key, Arc::clone(&model))
            .build()
            .unwrap();
        gateway.publish_snapshot(kind, &env, &snapshot).unwrap();
        // The second pass repeats every plan, so it is served from the
        // encoding cache.
        for pass in 0..2 {
            for (q, expected) in ctx.workload.queries.iter().take(40).zip(&direct) {
                let response = gateway
                    .estimate(
                        EstimateRequest::new(kind, env.clone(), q.executed.root.clone())
                            .with_estimator(estimator),
                    )
                    .unwrap();
                assert_eq!(
                    response.cost_ms.to_bits(),
                    expected.to_bits(),
                    "{} pass {pass}: served {} deviates from direct {expected}",
                    model.name(),
                    response.cost_ms
                );
                if pass == 1 {
                    assert!(
                        response.encoding_cache_hit,
                        "{}: a repeated plan must hit the encoding cache",
                        model.name()
                    );
                }
            }
        }
        let metrics = gateway.shard_metrics(&key).expect("shard resident");
        assert_eq!(metrics.completed, 80);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The gateway's owned registry serves models by key and keeps serving
/// after eviction of cold entries, with evictions observable in
/// `GatewayStats`.
#[test]
fn registry_eviction_is_observable_and_survivable() {
    let ctx = quick_ctx();
    let kind = BenchmarkKind::Sysbench;
    let env0 = ctx.workload.environments[0].clone();
    let env1 = ctx.workload.environments[1].clone();
    assert_ne!(
        env0.fingerprint(),
        env1.fingerprint(),
        "sampled environments fingerprint distinctly"
    );
    let model: Arc<dyn CostModel> = Arc::new(train_mscn(&ctx));
    let key0 = ModelKey::new(kind, EstimatorKind::QcfeMscn, env0.fingerprint());
    let key1 = ModelKey::new(kind, EstimatorKind::QcfeMscn, env1.fingerprint());
    let dir = temp_dir("eviction");

    let gateway = QcfeGateway::builder(&dir)
        .registry_capacity(1)
        .build()
        .unwrap();
    gateway
        .publish_snapshot(kind, &env1, &ctx.snapshots_fso[1].clone().expect("fitted"))
        .unwrap();
    assert!(gateway.register_model(key0, Arc::clone(&model)).is_none());
    // Over-capacity insert evicts the first environment's model and
    // reports it — the satellite API under test.
    let evicted = gateway.register_model(key1, Arc::clone(&model));
    assert_eq!(evicted.map(|(k, _)| k), Some(key0));
    assert_eq!(gateway.stats().model_evictions, 1);
    assert_eq!(gateway.stats().registry.evictions, 1);

    // … but the resident one still serves requests.
    let response = gateway
        .estimate(EstimateRequest::new(
            kind,
            env1.clone(),
            ctx.workload.queries[0].executed.root.clone(),
        ))
        .unwrap();
    assert!(response.cost_ms.is_finite() && response.cost_ms > 0.0);
    // The evicted key's model is gone and nothing can provide it.
    match gateway.estimate(EstimateRequest::new(
        kind,
        env0.clone(),
        ctx.workload.queries[0].executed.root.clone(),
    )) {
        Err(QcfeError::ModelMissing { key }) => assert_eq!(key, key0),
        other => panic!("expected ModelMissing, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
