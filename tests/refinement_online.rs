//! Acceptance tests of the online refinement subsystem — the second half
//! of the paper's Table VII transfer loop, run through the serving front
//! door:
//!
//! * **convergence**: a shard warm-started from a neighbour's snapshot
//!   (`Transferred`) refines itself purely from streamed observed labels,
//!   is promoted to `TrainedHere` exactly once, converges toward a
//!   from-scratch locally-fitted baseline, and survives a gateway restart
//!   bit-identically (`LoadedFromDisk` + `refined`);
//! * **promotion race**: estimate threads racing concurrent feedback
//!   writers never observe a provenance regression or a torn snapshot, and
//!   a trigger refits at most once;
//! * **deadlines**: an effectively-expired deadline fails typed and
//!   promptly even while the shard is wedged in slow inference.

use qcfe::core::cost_model::CostModel;
use qcfe::core::encoding::FeatureEncoder;
use qcfe::core::estimators::MscnEstimator;
use qcfe::core::model_codec::PersistedModel;
use qcfe::core::pipeline::{prepare_context, ContextConfig, EstimatorKind, ExperimentContext};
use qcfe::core::snapshot::FeatureSnapshot;
use qcfe::db::executor::ExecutedQuery;
use qcfe::db::plan::{OperatorKind, PhysicalOp, PlanNode};
use qcfe::db::DbEnvironment;
use qcfe::serve::prelude::*;
use qcfe::workloads::BenchmarkKind;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KIND: BenchmarkKind = BenchmarkKind::Sysbench;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qcfe-refine-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two labeled environments: A (the published neighbour) and B (the cold
/// environment that must refine itself).
fn two_env_ctx() -> ExperimentContext {
    let cfg = ContextConfig {
        environments: 2,
        queries_per_env: 60,
        template_scale: 1,
        seed: 91,
        data_scale: KIND.quick_scale(),
    };
    prepare_context(KIND, &cfg)
}

fn train_mscn(ctx: &ExperimentContext) -> MscnEstimator {
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let (model, _) = MscnEstimator::train(
        encoder,
        &ctx.workload,
        Some(&ctx.snapshots_fso),
        None,
        15,
        &mut rng,
    );
    model
}

/// Mean absolute log-ratio between two prediction vectors (0 = identical).
fn mean_log_gap(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let sum: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x.max(1e-9) / y.max(1e-9)).ln().abs())
        .sum();
    sum / a.len() as f64
}

/// Root-mean-square relative difference between two snapshots'
/// coefficients over the operators both cover.
fn snapshot_gap(a: &FeatureSnapshot, b: &FeatureSnapshot) -> f64 {
    let shared = b.covered_operators();
    let ratios: Vec<f64> = a
        .entries()
        .into_iter()
        .filter(|(kind, _)| shared.contains(kind))
        .flat_map(|(kind, ca)| ca.into_iter().zip(b.coefficients(kind)))
        .filter(|(x, y)| x.abs().max(y.abs()) > 1e-12)
        .map(|(x, y)| ((x - y) / x.abs().max(y.abs())).powi(2))
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().sum::<f64>() / ratios.len() as f64).sqrt()
}

/// Tentpole acceptance: warm-start env B from env A, stream B's executed
/// queries through `record_execution`, and watch the full lifecycle —
/// `Transferred` → refit → `TrainedHere` (exactly one promotion), estimates
/// converging toward a from-scratch B-fitted baseline, and the refit
/// snapshot surviving a gateway restart bit-identically with
/// `LoadedFromDisk` + `refined` provenance.
#[test]
fn transferred_shard_converges_and_survives_restart() {
    let ctx = two_env_ctx();
    let env_a = ctx.workload.environments[0].clone();
    let env_b = ctx.workload.environments[1].clone();
    assert_ne!(env_a.fingerprint(), env_b.fingerprint());
    let snapshot_a = ctx.snapshots_fso[0].clone().expect("A fitted");
    let model = train_mscn(&ctx);
    let key_b = ModelKey::new(KIND, EstimatorKind::QcfeMscn, env_b.fingerprint());

    let dir = temp_dir("converge");
    let gateway = QcfeGateway::builder(&dir)
        .refinement(RefinementConfig {
            // B's 60 labeled queries yield ~108 operator samples: one
            // trigger fires mid-stream, a second cannot.
            refit_threshold: 60,
            buffer_capacity: 8192,
        })
        .build()
        .unwrap();
    gateway.publish_snapshot(KIND, &env_a, &snapshot_a).unwrap();
    // B's weights are persisted (QCFW) so the restarted gateway can serve
    // without retraining; B has no snapshot of its own yet.
    gateway
        .publish_model(key_b, PersistedModel::Mscn(model.clone()))
        .unwrap();

    let b_queries: Vec<_> = ctx
        .workload
        .for_environment(1)
        .iter()
        .map(|q| q.executed.clone())
        .collect();
    assert!(b_queries.len() >= 50, "need a real label stream");
    let eval_plans: Vec<PlanNode> = b_queries.iter().take(20).map(|e| e.root.clone()).collect();

    // The from-scratch baseline: B's snapshot fitted from exactly the
    // labels that will be streamed, and the model's predictions under it.
    let baseline = FeatureSnapshot::fit_from_executions(&b_queries);
    let baseline_preds: Vec<f64> = eval_plans
        .iter()
        .map(|p| model.predict_plan(p, Some(&baseline)))
        .collect();

    // Phase 1: cold environment serves under the transferred snapshot.
    let before: Vec<f64> = eval_plans
        .iter()
        .map(|plan| {
            let response = gateway
                .estimate(EstimateRequest::new(KIND, env_b.clone(), plan.clone()))
                .unwrap();
            match response.provenance.snapshot_origin {
                SnapshotOrigin::Transferred { source, .. } => {
                    assert_eq!(source, env_a.fingerprint())
                }
                other => panic!("expected a transfer, got {other:?}"),
            }
            assert!(!response.provenance.refined);
            response.cost_ms
        })
        .collect();

    // Phase 2: stream B's own observed executions. Provenance must flip
    // exactly once across the whole stream.
    let mut refits = 0;
    let mut promotions = 0;
    for executed in &b_queries {
        let outcome = gateway.record_execution(KIND, &env_b, executed).unwrap();
        assert_eq!(outcome.shards, 1, "the resident shard owns the labels");
        refits += outcome.refits;
        promotions += outcome.promotions;
    }
    assert!(refits >= 1, "the label stream must trigger a refit");
    assert_eq!(promotions, 1, "provenance flips exactly once");
    let stats = gateway.stats();
    assert_eq!(stats.promotions, 1);
    assert_eq!(stats.refits as usize, refits);

    // Phase 3: the same shard — not restarted — now serves refined,
    // locally-fitted estimates.
    let after: Vec<f64> = eval_plans
        .iter()
        .map(|plan| {
            let response = gateway
                .estimate(EstimateRequest::new(KIND, env_b.clone(), plan.clone()))
                .unwrap();
            assert_eq!(
                response.provenance.snapshot_origin,
                SnapshotOrigin::TrainedHere,
                "promoted shard serves as trained-here"
            );
            assert!(response.provenance.refined);
            assert!(!response.provenance.cold_start, "no restart involved");
            response.cost_ms
        })
        .collect();

    // Convergence, in snapshot space: the persisted refit snapshot is
    // closer to the from-scratch baseline than the transferred one was.
    let refit_snapshot = gateway
        .store()
        .load(KIND, env_b.fingerprint())
        .unwrap()
        .expect("refit snapshot persisted under B's own fingerprint");
    assert!(refit_snapshot.refined, "persisted provenance bit");
    let transferred_gap = snapshot_gap(&snapshot_a, &baseline);
    let refined_gap = snapshot_gap(&refit_snapshot, &baseline);
    assert!(
        refined_gap < transferred_gap,
        "refit snapshot must move toward the local baseline \
         (refined gap {refined_gap:.4} vs transferred gap {transferred_gap:.4})"
    );

    // Convergence, in estimate space: post-refit estimates sit closer to
    // the baseline-model predictions than the transferred ones did.
    let before_gap = mean_log_gap(&before, &baseline_preds);
    let after_gap = mean_log_gap(&after, &baseline_preds);
    assert!(
        after_gap < before_gap,
        "estimates must converge toward the from-scratch baseline \
         (after {after_gap:.4} vs before {before_gap:.4})"
    );

    // Phase 4: restart. The rebuilt gateway serves B bit-identically from
    // the persisted refit snapshot + QCFW weights, with the disk-load and
    // refinement provenance intact.
    drop(gateway);
    let restarted = QcfeGateway::builder(&dir).build().unwrap();
    for (plan, &expected) in eval_plans.iter().zip(&after) {
        let response = restarted
            .estimate(EstimateRequest::new(KIND, env_b.clone(), plan.clone()))
            .unwrap();
        assert_eq!(
            response.cost_ms.to_bits(),
            expected.to_bits(),
            "restart must serve the refit snapshot bit-identically"
        );
        assert!(
            response.provenance.snapshot_origin.is_from_disk(),
            "weights and snapshot both come from disk, got {:?}",
            response.provenance.snapshot_origin
        );
        assert!(
            response.provenance.refined,
            "the refined bit must survive the restart"
        );
        assert!(response.provenance.model_from_disk);
    }
    assert_eq!(restarted.stats().model_loads, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deterministic stub whose prediction is the snapshot's SeqScan formula
/// applied to the plan's `est_rows`: the race test can check every served
/// estimate against the only two snapshots that ever existed, bit-exactly.
#[derive(Debug)]
struct SnapshotSlope;

impl CostModel for SnapshotSlope {
    fn name(&self) -> &'static str {
        "SnapshotSlope"
    }
    fn predict_plan(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> f64 {
        snapshot.map_or(-1.0, |s| {
            s.predict(OperatorKind::SeqScan, root.est_rows, 0.0)
        })
    }
}

fn scan_plan(rows: f64) -> PlanNode {
    let mut node = PlanNode::new(PhysicalOp::SeqScan { table: "t".into() }, vec![]);
    node.est_rows = rows;
    node.est_cost = rows * 0.01;
    node
}

fn executed_scan(rows: f64, slope: f64, intercept: f64) -> ExecutedQuery {
    let mut node = scan_plan(rows);
    node.actual_rows = rows;
    node.actual_self_ms = slope * rows + intercept;
    ExecutedQuery {
        total_ms: node.actual_self_ms,
        root: node,
    }
}

fn line_snapshot(slope: f64, intercept: f64) -> FeatureSnapshot {
    let samples: Vec<qcfe::core::snapshot::OperatorSample> = (1..=40)
        .map(|i| qcfe::core::snapshot::OperatorSample {
            kind: OperatorKind::SeqScan,
            n1: (i * 50) as f64,
            n2: 0.0,
            self_ms: slope * (i * 50) as f64 + intercept,
        })
        .collect();
    FeatureSnapshot::fit(&samples)
}

/// A transferred environment has no knob vector of its own until its
/// first refit persists one (`SnapshotStore::save_vector` skips only a file
/// that already holds the same bytes), and from then on it is a transfer
/// candidate: `nearest_environment` finds it for a neighbour closer to it
/// than to the environment it borrowed from.
#[test]
fn first_refit_of_a_transferred_environment_persists_its_knob_vector() {
    let dir = temp_dir("vector");
    let mut neighbour = DbEnvironment::reference();
    neighbour.os_overhead = 1.05;
    let mut cold = DbEnvironment::reference();
    cold.os_overhead = 1.0501;
    let mut probe = DbEnvironment::reference();
    probe.os_overhead = 1.0502;
    let key = ModelKey::new(KIND, EstimatorKind::Mscn, cold.fingerprint());
    let gateway = QcfeGateway::builder(&dir)
        .with_model(key, Arc::new(SnapshotSlope))
        .refinement(RefinementConfig {
            refit_threshold: 16,
            buffer_capacity: 64,
        })
        .build()
        .unwrap();
    gateway
        .publish_snapshot(KIND, &neighbour, &line_snapshot(0.002, 0.25))
        .unwrap();
    let first = gateway
        .estimate(
            EstimateRequest::new(KIND, cold.clone(), scan_plan(50.0))
                .with_estimator(EstimatorKind::Mscn),
        )
        .unwrap();
    assert!(first.provenance.snapshot_origin.is_transferred());

    let store = gateway.store();
    let nearest = |store: &SnapshotStore| {
        store
            .nearest_environment(KIND, &probe.knob_vector(), probe.fingerprint())
            .unwrap()
            .expect("a candidate is persisted")
            .0
    };
    assert_eq!(store.load_vector(KIND, cold.fingerprint()).unwrap(), None);
    assert_eq!(nearest(store), neighbour.fingerprint());

    let refits: usize = (1..=16)
        .map(|i| {
            gateway
                .record_execution(KIND, &cold, &executed_scan(10.0 * i as f64, 0.02, 0.5))
                .unwrap()
                .refits
        })
        .sum();
    assert_eq!(refits, 1, "16 labels reach the threshold once");
    assert_eq!(
        store.load_vector(KIND, cold.fingerprint()).unwrap(),
        Some(cold.knob_vector()),
        "the first refit persists the cold environment's vector"
    );
    assert_eq!(nearest(store), cold.fingerprint());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite acceptance: 8 estimate threads race concurrent feedback
/// writers on one transferred shard. Invariants under the race:
///
/// * provenance never regresses `TrainedHere → Transferred` (per-thread
///   observation order);
/// * no torn snapshot is ever served — every estimate matches the
///   transferred snapshot or the refit snapshot bit-exactly, and once a
///   thread sees the refit snapshot it never sees the old one again;
/// * the single trigger refits at most once (fewer than two thresholds of
///   labels are streamed), and exactly one promotion happens.
#[test]
fn promotion_race_never_regresses_or_serves_torn_snapshots() {
    let dir = temp_dir("race");
    let mut neighbour = DbEnvironment::reference();
    neighbour.os_overhead = 1.05;
    let mut cold = DbEnvironment::reference();
    cold.os_overhead = 1.0501;
    let snapshot_a = line_snapshot(0.002, 0.25);

    const THRESHOLD: usize = 64;
    const WRITERS: usize = 4;
    const EXECUTIONS_PER_WRITER: usize = 24; // 96 samples: one trigger, never two
    const {
        assert!(WRITERS * EXECUTIONS_PER_WRITER >= THRESHOLD);
        assert!(WRITERS * EXECUTIONS_PER_WRITER < 2 * THRESHOLD);
    }

    let key = ModelKey::new(KIND, EstimatorKind::Mscn, cold.fingerprint());
    let gateway = Arc::new(
        QcfeGateway::builder(&dir)
            .with_model(key, Arc::new(SnapshotSlope))
            .refinement(RefinementConfig {
                refit_threshold: THRESHOLD,
                buffer_capacity: 1024,
            })
            .build()
            .unwrap(),
    );
    gateway
        .publish_snapshot(KIND, &neighbour, &snapshot_a)
        .unwrap();

    // Cold-start the shard before the race so every feedback write has an
    // owner.
    let first = gateway
        .estimate(
            EstimateRequest::new(KIND, cold.clone(), scan_plan(50.0))
                .with_estimator(EstimatorKind::Mscn),
        )
        .unwrap();
    assert!(first.provenance.snapshot_origin.is_transferred());

    const ESTIMATORS: usize = 8;
    const ESTIMATES_PER_THREAD: usize = 60;
    // Each estimate thread uses its own fixed plan so its expected
    // predictions under either snapshot are two known constants.
    let thread_rows = |t: usize| (t as f64 + 1.0) * 50.0;

    let observations: Vec<Vec<(bool, u64)>> = std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let gateway = Arc::clone(&gateway);
            let cold = cold.clone();
            scope.spawn(move || {
                for j in 0..EXECUTIONS_PER_WRITER {
                    // Every label sits on one line, at varying cardinality.
                    let n = 10.0 * ((w * EXECUTIONS_PER_WRITER + j) % 37 + 1) as f64;
                    gateway
                        .record_execution(KIND, &cold, &executed_scan(n, 0.02, 0.5))
                        .unwrap();
                }
            });
        }
        let estimators: Vec<_> = (0..ESTIMATORS)
            .map(|t| {
                let gateway = Arc::clone(&gateway);
                let cold = cold.clone();
                scope.spawn(move || {
                    let mut seen = Vec::with_capacity(ESTIMATES_PER_THREAD);
                    for _ in 0..ESTIMATES_PER_THREAD {
                        let response = gateway
                            .estimate(
                                EstimateRequest::new(KIND, cold.clone(), scan_plan(thread_rows(t)))
                                    .with_estimator(EstimatorKind::Mscn),
                            )
                            .unwrap();
                        seen.push((
                            response.provenance.snapshot_origin == SnapshotOrigin::TrainedHere,
                            response.cost_ms.to_bits(),
                        ));
                    }
                    seen
                })
            })
            .collect();
        estimators.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = gateway.stats();
    assert_eq!(stats.refits, 1, "one trigger, at most one refit");
    assert_eq!(stats.promotions, 1, "exactly one promotion");
    assert_eq!(
        stats.labels_recorded as usize,
        WRITERS * EXECUTIONS_PER_WRITER
    );

    // Post-race ground truth: the only two snapshots that ever served.
    let snapshot_b = gateway
        .store()
        .load(KIND, cold.fingerprint())
        .unwrap()
        .expect("refit persisted");
    assert!(snapshot_b.refined);
    let final_estimate = gateway
        .estimate(
            EstimateRequest::new(KIND, cold.clone(), scan_plan(thread_rows(0)))
                .with_estimator(EstimatorKind::Mscn),
        )
        .unwrap();
    assert_eq!(
        final_estimate.provenance.snapshot_origin,
        SnapshotOrigin::TrainedHere
    );
    assert!(final_estimate.provenance.refined);

    for (t, thread) in observations.iter().enumerate() {
        let pred_a = SnapshotSlope
            .predict_plan(&scan_plan(thread_rows(t)), Some(&snapshot_a))
            .to_bits();
        let pred_b = SnapshotSlope
            .predict_plan(&scan_plan(thread_rows(t)), Some(&snapshot_b))
            .to_bits();
        assert_ne!(pred_a, pred_b, "the refit must actually move estimates");
        let mut promoted_seen = false;
        let mut refit_served = false;
        for &(trained_here, bits) in thread {
            assert!(
                bits == pred_a || bits == pred_b,
                "thread {t}: torn estimate {bits:#x} matches neither snapshot"
            );
            if promoted_seen {
                assert!(
                    trained_here,
                    "thread {t}: provenance regressed TrainedHere -> Transferred"
                );
            }
            promoted_seen |= trained_here;
            if refit_served {
                assert_eq!(
                    bits, pred_b,
                    "thread {t}: old snapshot served after the swap"
                );
            }
            refit_served |= bits == pred_b;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite acceptance (deadline gap): a deadline that is effectively
/// already spent fails typed and *promptly* while the shard's only worker
/// is wedged in slow inference — the caller is never queued behind it.
#[test]
fn exhausted_deadline_fails_promptly_while_the_shard_is_wedged() {
    #[derive(Debug)]
    struct SlowModel;
    impl CostModel for SlowModel {
        fn name(&self) -> &'static str {
            "SlowModel"
        }
        fn predict_plan(&self, _: &PlanNode, _: Option<&FeatureSnapshot>) -> f64 {
            std::thread::sleep(Duration::from_millis(400));
            1.0
        }
    }
    let dir = temp_dir("deadline");
    let env = DbEnvironment::reference();
    let key = ModelKey::new(KIND, EstimatorKind::Mscn, env.fingerprint());
    let gateway = Arc::new(
        QcfeGateway::builder(&dir)
            .service_config(ServiceConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 1,
                encoding_cache_capacity: 16,
            })
            .with_model(key, Arc::new(SlowModel))
            .build()
            .unwrap(),
    );
    // Wedge the single worker with a background request.
    let background = {
        let gateway = Arc::clone(&gateway);
        let env = env.clone();
        std::thread::spawn(move || {
            gateway
                .estimate(
                    EstimateRequest::new(KIND, env, scan_plan(1.0))
                        .with_estimator(EstimatorKind::Mscn),
                )
                .unwrap()
        })
    };
    // Give the worker time to pick the background request up.
    std::thread::sleep(Duration::from_millis(50));

    for deadline in [Duration::ZERO, Duration::from_millis(5)] {
        let waited = Instant::now();
        let request = EstimateRequest::new(KIND, env.clone(), scan_plan(2.0))
            .with_estimator(EstimatorKind::Mscn)
            .with_deadline(deadline);
        match gateway.estimate(request) {
            Err(QcfeError::DeadlineExceeded {
                deadline: reported, ..
            }) => assert_eq!(reported, deadline),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            waited.elapsed() < Duration::from_millis(100),
            "deadline {deadline:?} must fail promptly, not queue behind the \
             wedged worker ({:?})",
            waited.elapsed()
        );
    }
    assert_eq!(background.join().unwrap().cost_ms, 1.0);
    let _ = std::fs::remove_dir_all(&dir);
}
