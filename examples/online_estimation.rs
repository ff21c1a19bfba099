//! Online estimation walkthrough through the serving front door: train a
//! QCFE(qpp) estimator (the model Table IV ranks first), publish its
//! environment *and its weights* through the [`QcfeGateway`], serve
//! concurrent typed requests through the shard's plan-encoding cache,
//! watch an *unseen* environment warm-start from the nearest persisted
//! fingerprint (the paper's snapshot-transfer workflow, online), **refine**
//! that transferred shard from its own observed executions until it is
//! promoted `Transferred → TrainedHere` (the full Table VII loop; every
//! refit swaps the snapshot and so invalidates the cached encodings), then
//! simulate a process restart — the rebuilt gateway answers from the
//! persisted `QCFW` weight sidecars and the refit snapshot, bit-identically,
//! without retraining.
//!
//! ```sh
//! cargo run --release --example online_estimation
//! ```

use qcfe::core::encoding::FeatureEncoder;
use qcfe::core::estimators::QppNetEstimator;
use qcfe::core::model_codec::PersistedModel;
use qcfe::core::pipeline::{prepare_context, ContextConfig, EstimatorKind};
use qcfe::serve::prelude::*;
use qcfe::workloads::{
    run_closed_loop, run_feedback_loop, BenchmarkKind, ClosedLoopConfig, ObservedEstimate,
};
use rand::SeedableRng;
use std::sync::Arc;
use std::sync::Mutex;

/// The model every request of the walkthrough asks for.
const ESTIMATOR: EstimatorKind = EstimatorKind::QcfeQpp;

fn main() {
    // The walkthrough's story starts from an empty store: the "unseen"
    // environment must warm-start by *transfer* from its nearest
    // neighbour. A previous run's refinement loop persisted that
    // environment's own refit snapshot here, which would short-circuit
    // the transfer (exact-fingerprint hit, origin TrainedHere, no
    // promotion) — so wipe the directory and make the demo re-runnable.
    let _ = std::fs::remove_dir_all("target/snapshots");

    // 1. Offline phase: label a workload, fit snapshots, train the model.
    let kind = BenchmarkKind::Sysbench;
    println!("== offline phase: preparing {} context ==", kind.name());
    let ctx = prepare_context(kind, &ContextConfig::quick(kind));
    let env = ctx.workload.environments[0].clone();
    let snapshot = ctx.snapshots_fso[0].clone().expect("snapshot fitted");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let mut model = QppNetEstimator::new(encoder, None, &mut rng);
    let stats = model.train(&ctx.workload, Some(&ctx.snapshots_fso), 30, &mut rng);
    println!(
        "trained QCFE(qpp) in {:.2}s (final loss {:.4})",
        stats.train_time_s, stats.final_loss
    );

    // 2. One gateway instead of hand-wired store + registry + service:
    //    publish the environment (snapshot + knob vector) and the trained
    //    model's weights (QCFW sidecar + in-memory registration) under its
    //    serving key.
    let gateway = QcfeGateway::builder("target/snapshots")
        .service_config(ServiceConfig {
            workers: 2,
            queue_capacity: 128,
            max_batch: 16,
            encoding_cache_capacity: 2048,
        })
        // Online refinement: refit a shard's snapshot once 64 observed
        // operator labels accumulate (the demo streams ~200 executions).
        .refinement(RefinementConfig {
            refit_threshold: 64,
            buffer_capacity: 4096,
        })
        .build()
        .expect("gateway builds");
    let fingerprint = env.fingerprint();
    let path = gateway
        .publish_snapshot(kind, &env, &snapshot)
        .expect("snapshot published");
    println!(
        "published environment {fingerprint} (snapshot + knob vector) at {}",
        path.display()
    );
    let key = ModelKey::new(kind, ESTIMATOR, fingerprint);
    let weights_path = gateway
        .publish_model(key, PersistedModel::QppNet(model.clone()))
        .expect("weights published");
    println!(
        "published QCFE(qpp) weights ({} bytes) at {}",
        std::fs::metadata(&weights_path)
            .map(|m| m.len())
            .unwrap_or(0),
        weights_path.display()
    );
    let model: Arc<dyn qcfe::core::cost_model::CostModel> = Arc::new(model);

    // 3. Online phase: 8 closed-loop clients submit typed requests; the
    //    gateway routes them all to the environment's shard.
    let db = ctx.benchmark.build_database(env.clone());
    let report = run_closed_loop(&ctx.benchmark, &ClosedLoopConfig::new(8, 50, 9), |query| {
        let plan = db.plan(&query).map_err(|e| e.to_string())?;
        let request = EstimateRequest::new(kind, env.clone(), plan).with_estimator(ESTIMATOR);
        Ok(gateway
            .estimate(request)
            .map_err(|e| e.to_string())?
            .cost_ms)
    });

    println!("\n== online phase: 8 closed-loop clients x 50 requests ==");
    println!(
        "completed        {} requests ({} errors)",
        report.completed, report.errors
    );
    println!(
        "throughput       {:.0} estimates/s",
        report.throughput_qps()
    );
    println!(
        "client latency   p50 {:.3} ms   p99 {:.3} ms",
        report.latency_percentile_ms(50.0),
        report.latency_percentile_ms(99.0)
    );
    let metrics = gateway.shard_metrics(&key).expect("shard resident");
    println!(
        "shard            mean batch {:.2} (max {}), cache hit rate {:.1}%",
        metrics.mean_batch_size,
        metrics.max_batch_size,
        100.0 * metrics.cache_hit_rate
    );
    println!(
        "shard latency    p50 {:.0} us   p95 {:.0} us   p99 {:.0} us",
        metrics.p50_latency_us, metrics.p95_latency_us, metrics.p99_latency_us
    );
    assert!(
        metrics.cache_hit_rate > 0.0,
        "repeated plans must be served from the encoding cache"
    );

    // 4. Transfer: a machine with a different configuration — an unseen
    //    fingerprint — asks the same gateway. Its shard warm-starts from
    //    the nearest published knob vector. (The 15% OS-overhead gap makes
    //    the borrowed snapshot visibly wrong, which step 5 will fix.)
    let mut unseen = env.clone();
    unseen.os_overhead *= 1.15;
    assert_ne!(unseen.fingerprint(), fingerprint);
    gateway.register_model(ModelKey::new(kind, ESTIMATOR, unseen.fingerprint()), model);
    let plan = db
        .plan(&ctx.benchmark.random_query(&mut rng))
        .expect("plannable");
    let response = gateway
        .estimate(EstimateRequest::new(kind, unseen.clone(), plan).with_estimator(ESTIMATOR))
        .expect("transferred estimate");
    println!("\n== unseen environment {} ==", unseen.fingerprint());
    match response.provenance.snapshot_origin {
        SnapshotOrigin::Transferred { source, distance } => println!(
            "warm-started from nearest fingerprint {source} (knob distance {distance:.4}); \
             estimate {:.3} ms in {} us",
            response.cost_ms, response.provenance.total_us
        ),
        other => println!("unexpected snapshot origin {other:?}"),
    }

    // 5. Refinement: the unseen environment executes queries of its own;
    //    each observed execution streams back through record_execution.
    //    Once enough labels accumulate the gateway refits the shard's
    //    snapshot from them, persists it, swaps it live, and promotes the
    //    provenance Transferred -> TrainedHere — the full Table VII loop.
    let unseen_env = Arc::new(unseen.clone());
    let unseen_db = ctx.benchmark.build_database(unseen.clone());
    let feedback_rng = Mutex::new(rand::rngs::StdRng::seed_from_u64(17));
    let feedback = run_feedback_loop(
        &ctx.benchmark,
        &ClosedLoopConfig::new(2, 100, 21),
        |query| {
            let executed = unseen_db
                .execute(&query, &mut *feedback_rng.lock().expect("rng"))
                .map_err(|e| e.to_string())?;
            let estimate = gateway
                .estimate(
                    EstimateRequest::new(kind, Arc::clone(&unseen_env), executed.root.clone())
                        .with_estimator(ESTIMATOR),
                )
                .map_err(|e| e.to_string())?
                .cost_ms;
            gateway
                .record_execution(kind, &unseen_env, &executed)
                .map_err(|e| e.to_string())?;
            Ok(ObservedEstimate {
                estimate_ms: estimate,
                observed_ms: executed.total_ms,
            })
        },
    );
    let promoted = gateway
        .estimate(
            EstimateRequest::new(
                kind,
                Arc::clone(&unseen_env),
                unseen_db
                    .plan(&ctx.benchmark.random_query(&mut rng))
                    .expect("plannable"),
            )
            .with_estimator(ESTIMATOR),
        )
        .expect("refined estimate");
    let stats = gateway.stats();
    println!(
        "\n== refinement: {} observed executions streamed back ==",
        feedback.completed()
    );
    println!(
        "labels           {} operator samples, {} refits, {} promotion(s)",
        stats.labels_recorded, stats.refits, stats.promotions
    );
    println!(
        "provenance       {:?} (refined: {}) — the transfer loop is closed",
        promoted.provenance.snapshot_origin, promoted.provenance.refined
    );
    assert_eq!(
        promoted.provenance.snapshot_origin,
        SnapshotOrigin::TrainedHere,
        "streamed labels must promote the transferred shard"
    );
    assert!(promoted.provenance.refined);
    assert!(stats.refits >= 1 && stats.promotions == 1);

    println!(
        "\ngateway          {} requests, {} shards started ({} resident), {} transfers",
        stats.requests, stats.shard_starts, stats.shards_resident, stats.snapshot_transfers
    );

    // 6. Restart: drop the gateway (process exit) and rebuild it on the
    //    same store directory with nothing registered. The QCFW weight
    //    sidecar brings the model back — same bits, no retraining.
    let reference_plan = db
        .plan(&ctx.benchmark.random_query(&mut rng))
        .expect("plannable");
    let before_restart = gateway
        .estimate(
            EstimateRequest::new(kind, env.clone(), reference_plan.clone())
                .with_estimator(ESTIMATOR),
        )
        .expect("pre-restart estimate");
    drop(gateway);

    let restarted = QcfeGateway::builder("target/snapshots")
        .build()
        .expect("gateway rebuilds");
    let after_restart = restarted
        .estimate(EstimateRequest::new(kind, env.clone(), reference_plan).with_estimator(ESTIMATOR))
        .expect("post-restart estimate");
    println!("\n== restart: same store directory, empty registry ==");
    println!(
        "pre-restart      {:.6} ms   post-restart {:.6} ms   bit-identical: {}",
        before_restart.cost_ms,
        after_restart.cost_ms,
        before_restart.cost_ms.to_bits() == after_restart.cost_ms.to_bits()
    );
    println!(
        "provenance       {:?} (cold start: {}, {} model loads, zero retrains)",
        after_restart.provenance.snapshot_origin,
        after_restart.provenance.cold_start,
        restarted.stats().model_loads
    );
    assert!(
        after_restart.provenance.snapshot_origin.is_from_disk(),
        "restart must serve from persisted weights"
    );
    assert_eq!(
        before_restart.cost_ms.to_bits(),
        after_restart.cost_ms.to_bits(),
        "persisted weights must reproduce the estimate bit-for-bit"
    );
}
