//! The [`CostModel`] trait: a uniform, thread-safe inference interface over
//! every estimator in the workspace.
//!
//! The experiment pipeline trains concrete estimator types
//! ([`MscnEstimator`], [`QppNetEstimator`], [`PgEstimator`]); the serving
//! layer (`qcfe-serve`) holds *any* of them behind `Arc<dyn CostModel>` and
//! drains its request queue through the **uniform batch API**,
//! [`CostModel::predict_batch`]: one call per drained micro-batch, every
//! model free to exploit the batch shape however it can. MSCN-style models
//! coalesce all encodings into one matrix pass; the QPPNet implementation
//! runs staged operator-grouped batching over the union of all plan trees
//! (see [`QppNetEstimator::predict_batch`]); the analytical baseline simply
//! maps over the batch.
//!
//! Models with a *flat* plan encoding additionally expose it via
//! [`CostModel::encode_plan`] / [`CostModel::predict_encoded`] so the
//! service can memoise encodings in its LRU plan-encoding cache and skip
//! the encoding work for repeated plans.

use crate::estimators::{MscnEstimator, PgEstimator, QppNetEstimator};
use crate::snapshot::FeatureSnapshot;
use qcfe_db::plan::PlanNode;

/// A trained cost estimator usable from concurrent serving threads.
pub trait CostModel: Send + Sync {
    /// Display name (matches the paper's table labels).
    fn name(&self) -> &'static str;

    /// Predict the latency (ms) of one physical plan.
    fn predict_plan(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> f64;

    /// Batched inference over a micro-batch of plans: the uniform entry
    /// point the serving layer drains its queue through. Implementations
    /// must return one prediction per plan, in order, and must agree with
    /// per-plan [`CostModel::predict_plan`] results. The default maps the
    /// scalar path over the batch.
    fn predict_batch(&self, plans: &[&PlanNode], snapshot: Option<&FeatureSnapshot>) -> Vec<f64> {
        plans
            .iter()
            .map(|p| self.predict_plan(p, snapshot))
            .collect()
    }

    /// Flat feature encoding of a plan, when the model has one (`None` for
    /// tree-structured models). Used by the serving layer to memoise
    /// encodings in its plan-encoding cache.
    fn encode_plan(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> Option<Vec<f64>> {
        let _ = (root, snapshot);
        None
    }

    /// Batched inference over encodings produced by
    /// [`CostModel::encode_plan`]. The default panics; implementors that
    /// return `Some` encodings must override it.
    fn predict_encoded(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let _ = rows;
        unreachable!("predict_encoded called on a model without a flat encoding")
    }

    /// Whether [`CostModel::encode_plan`] returns `Some` (i.e. the service
    /// can cache this model's plan encodings). Every model batches through
    /// [`CostModel::predict_batch`] regardless of this flag.
    fn has_flat_encoding(&self) -> bool {
        false
    }
}

impl CostModel for MscnEstimator {
    fn name(&self) -> &'static str {
        "MSCN"
    }

    fn predict_plan(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> f64 {
        self.predict(root, snapshot)
    }

    fn predict_batch(&self, plans: &[&PlanNode], snapshot: Option<&FeatureSnapshot>) -> Vec<f64> {
        MscnEstimator::predict_batch(self, plans, snapshot)
    }

    fn encode_plan(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> Option<Vec<f64>> {
        let features = self.encoder().encode_plan(root, snapshot);
        Some(self.mask().iter().map(|&i| features[i]).collect())
    }

    fn predict_encoded(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        self.model()
            .predict_rows(rows)
            .into_iter()
            .map(crate::metrics::floor_ms)
            .collect()
    }

    fn has_flat_encoding(&self) -> bool {
        true
    }
}

impl CostModel for QppNetEstimator {
    fn name(&self) -> &'static str {
        "QPPNet"
    }

    fn predict_plan(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> f64 {
        self.predict(root, snapshot)
    }

    fn predict_batch(&self, plans: &[&PlanNode], snapshot: Option<&FeatureSnapshot>) -> Vec<f64> {
        QppNetEstimator::predict_batch(self, plans, snapshot)
    }
}

impl CostModel for PgEstimator {
    fn name(&self) -> &'static str {
        "PGSQL"
    }

    fn predict_plan(&self, root: &PlanNode, _snapshot: Option<&FeatureSnapshot>) -> f64 {
        self.predict(root)
    }
    // The trait's default predict_batch (map predict_plan over the batch) is
    // already the right batching strategy for the analytical baseline.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect_workload;
    use crate::encoding::FeatureEncoder;
    use crate::estimators::EnvSnapshots;
    use crate::snapshot::FeatureSnapshot;
    use qcfe_db::env::{DbEnvironment, HardwareProfile};
    use qcfe_workloads::BenchmarkKind;
    use rand::SeedableRng;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn estimators_are_thread_safe() {
        assert_send_sync::<MscnEstimator>();
        assert_send_sync::<QppNetEstimator>();
        assert_send_sync::<PgEstimator>();
        assert_send_sync::<std::sync::Arc<dyn CostModel>>();
    }

    /// ≥ 100 random plans across two environments, with fitted snapshots.
    fn equivalence_fixture() -> (
        crate::collect::LabeledWorkload,
        EnvSnapshots,
        FeatureEncoder,
    ) {
        let bench = BenchmarkKind::Sysbench.build(0.0005, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let envs = DbEnvironment::sample_knob_configs(2, HardwareProfile::h1(), &mut rng);
        let workload = collect_workload(&bench, &envs, 60, 17);
        assert!(
            workload.len() >= 100,
            "need ≥100 plans, got {}",
            workload.len()
        );
        let snapshots: EnvSnapshots = (0..envs.len())
            .map(|env_index| {
                let executions: Vec<_> = workload
                    .for_environment(env_index)
                    .iter()
                    .map(|q| q.executed.clone())
                    .collect();
                Some(FeatureSnapshot::fit_from_executions(&executions))
            })
            .collect();
        let encoder = FeatureEncoder::new(&bench.catalog, true);
        (workload, snapshots, encoder)
    }

    /// Satellite acceptance: `predict_batch` matches per-plan `predict`
    /// within 1e-9 for all three estimators, across ≥100 random plans and
    /// multiple snapshots (fitted per environment, plus `None`).
    #[test]
    fn predict_batch_matches_scalar_for_all_estimators() {
        let (workload, snapshots, encoder) = equivalence_fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (mscn, _) = MscnEstimator::train(
            encoder.clone(),
            &workload,
            Some(&snapshots),
            None,
            8,
            &mut rng,
        );
        let qpp = QppNetEstimator::new(encoder, None, &mut rng);
        let models: Vec<Box<dyn CostModel>> =
            vec![Box::new(PgEstimator), Box::new(mscn), Box::new(qpp)];
        let plans: Vec<&qcfe_db::plan::PlanNode> =
            workload.queries.iter().map(|q| &q.executed.root).collect();

        for model in &models {
            let snapshot_cases: Vec<Option<&FeatureSnapshot>> = std::iter::once(None)
                .chain(snapshots.iter().map(|s| s.as_ref()))
                .collect();
            for snapshot in snapshot_cases {
                let batched = model.predict_batch(&plans, snapshot);
                assert_eq!(batched.len(), plans.len(), "{}", model.name());
                for (plan, b) in plans.iter().zip(&batched) {
                    let single = model.predict_plan(plan, snapshot);
                    assert!(
                        (single - b).abs() <= 1e-9,
                        "{}: batched {b} deviates from scalar {single}",
                        model.name()
                    );
                }
            }
            assert!(model.predict_batch(&[], None).is_empty());
        }
    }

    #[test]
    fn batched_and_encoded_inference_agree_for_mscn() {
        let (workload, _, encoder) = equivalence_fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let (mscn, _) = MscnEstimator::train(encoder, &workload, None, None, 10, &mut rng);

        let model: &dyn CostModel = &mscn;
        assert!(model.has_flat_encoding());
        assert_eq!(model.name(), "MSCN");
        let encodings: Vec<Vec<f64>> = workload
            .queries
            .iter()
            .map(|q| {
                model
                    .encode_plan(&q.executed.root, None)
                    .expect("mscn encodes")
            })
            .collect();
        let encoded = model.predict_encoded(&encodings);
        assert_eq!(encoded.len(), workload.len());
        for (q, b) in workload.queries.iter().zip(&encoded) {
            let single = model.predict_plan(&q.executed.root, None);
            assert!(
                (single - b).abs() < 1e-9,
                "encoded {b} deviates from single {single}"
            );
        }
        assert!(model.predict_encoded(&[]).is_empty());
    }

    #[test]
    fn only_flat_models_advertise_encodings() {
        let bench = BenchmarkKind::Sysbench.build(0.0005, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let encoder = FeatureEncoder::new(&bench.catalog, false);
        let qpp = QppNetEstimator::new(encoder, None, &mut rng);
        let model: &dyn CostModel = &qpp;
        assert!(!model.has_flat_encoding());
        assert_eq!(model.name(), "QPPNet");

        let pg: &dyn CostModel = &PgEstimator;
        assert!(!pg.has_flat_encoding());
        let envs = DbEnvironment::sample_knob_configs(1, HardwareProfile::h1(), &mut rng);
        let workload = collect_workload(&bench, &envs, 5, 2);
        for q in &workload.queries {
            assert!(pg.encode_plan(&q.executed.root, None).is_none());
            assert!(pg.predict_plan(&q.executed.root, None) > 0.0);
            assert!(model.predict_plan(&q.executed.root, None) > 0.0);
        }
    }
}
