//! The [`CostModel`] trait: a uniform, thread-safe inference interface over
//! every estimator in the workspace.
//!
//! The experiment pipeline trains concrete estimator types
//! ([`MscnEstimator`], [`QppNetEstimator`], [`PgEstimator`]); the serving
//! layer (`qcfe-serve`) holds *any* of them behind `Arc<dyn CostModel>`.
//! Inference is two steps for every model: [`CostModel::encode_plan`] turns
//! a plan into the model's input, one [`PlanEncoding`], and
//! [`CostModel::predict_encoded`] predicts a whole micro-batch of them. The
//! service memoises encodings in its LRU plan-encoding cache, so a
//! repeated plan skips the first step, and runs the second once per drained
//! batch. An MSCN encoding is its masked plan row (one matrix pass per
//! batch), a QPPNet encoding its flattened plan tree (staged
//! operator-grouped forwards across every plan of the batch), and a
//! PostgreSQL encoding the planner's cost estimate.
//!
//! [`MscnEstimator`]: crate::estimators::MscnEstimator
//! [`QppNetEstimator`]: crate::estimators::QppNetEstimator
//! [`PgEstimator`]: crate::estimators::PgEstimator

use crate::estimators::NodeArena;
use crate::snapshot::FeatureSnapshot;
use qcfe_db::plan::PlanNode;

/// One plan encoded for one model: what the serving layer caches per plan
/// and what [`CostModel::predict_encoded`] consumes. It holds node records
/// (none for a flat model) and one buffer of values: a flat model's feature
/// row, or a tree model's node rows back to back. It carries no label, so
/// two executions of one plan share an encoding.
#[derive(Debug, Clone)]
pub struct PlanEncoding {
    /// A QPPNet encoding's one flattened plan; a flat encoding's row, with
    /// no nodes.
    pub(crate) arena: NodeArena,
}

impl PlanEncoding {
    /// A flat model's encoding: one row of values and no node records.
    pub fn flat(values: Vec<f64>) -> Self {
        PlanEncoding {
            arena: NodeArena::row(values),
        }
    }

    /// The encoding's values: the row of a flat encoding, every node's row
    /// of a tree encoding.
    pub fn values(&self) -> &[f64] {
        self.arena.values()
    }
}

/// A trained cost estimator usable from concurrent serving threads.
///
/// A model implements two methods, [`CostModel::encode_plan`] and
/// [`CostModel::predict_encoded`], and the serving layer calls only those
/// two. [`CostModel::predict_batch`] and [`CostModel::predict_plan`] are
/// provided on top of them and give the same bits. QPPNet overrides
/// `predict_batch` to flatten plans straight into its engine, without an
/// encoding per plan; `predict_plan`, which
/// [`evaluate`](crate::estimators::evaluate) calls, goes through it.
pub trait CostModel: Send + Sync {
    /// Display name (matches the paper's table labels).
    fn name(&self) -> &'static str;

    /// Encode one plan under an (optional) snapshot. The encoding is a
    /// function of the plan's estimates and the snapshot only, so the
    /// service may reuse it for every later request of the same plan
    /// under the same snapshot.
    fn encode_plan(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> PlanEncoding;

    /// Predict the latency (ms) of every encoded plan of a micro-batch, in
    /// order: one prediction per encoding, each made by this model's
    /// [`CostModel::encode_plan`].
    fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64>;

    /// Predict a batch of plans: encode each, then predict the encodings.
    fn predict_batch(&self, plans: &[&PlanNode], snapshot: Option<&FeatureSnapshot>) -> Vec<f64> {
        let encodings: Vec<PlanEncoding> = plans
            .iter()
            .map(|plan| self.encode_plan(plan, snapshot))
            .collect();
        let encodings: Vec<&PlanEncoding> = encodings.iter().collect();
        self.predict_encoded(&encodings)
    }

    /// Predict the latency (ms) of one plan: a batch of one.
    fn predict_plan(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> f64 {
        self.predict_batch(&[root], snapshot)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect_workload;
    use crate::encoding::FeatureEncoder;
    use crate::estimators::{EnvSnapshots, MscnEstimator, PgEstimator, QppNetEstimator};
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
        assert_send_sync::<std::sync::Arc<PlanEncoding>>();
    }

    /// ≥ 100 random plans across two environments, with fitted snapshots,
    /// and one model of each family.
    fn equivalence_fixture() -> (
        crate::collect::LabeledWorkload,
        EnvSnapshots,
        MscnEstimator,
        QppNetEstimator,
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
        (workload, snapshots, mscn, qpp)
    }

    /// `None` plus each environment's fitted snapshot.
    fn snapshot_cases(snapshots: &EnvSnapshots) -> Vec<Option<&FeatureSnapshot>> {
        std::iter::once(None)
            .chain(snapshots.iter().map(|s| s.as_ref()))
            .collect()
    }

    /// `predict_batch` matches per-plan `predict_plan` bit for bit for all
    /// three estimators, across ≥100 random plans and multiple snapshots.
    #[test]
    fn predict_batch_matches_scalar_for_all_estimators() {
        let (workload, snapshots, mscn, qpp) = equivalence_fixture();
        let models: [&dyn CostModel; 3] = [&PgEstimator, &mscn, &qpp];
        let plans: Vec<&PlanNode> = workload.queries.iter().map(|q| &q.executed.root).collect();
        for model in models {
            for snapshot in snapshot_cases(&snapshots) {
                let batched = model.predict_batch(&plans, snapshot);
                assert_eq!(batched.len(), plans.len(), "{}", model.name());
                for (plan, b) in plans.iter().zip(&batched) {
                    let single = model.predict_plan(plan, snapshot);
                    assert_eq!(
                        single.to_bits(),
                        b.to_bits(),
                        "{}: batched {b} deviates from scalar {single}",
                        model.name()
                    );
                }
            }
            assert!(model.predict_batch(&[], None).is_empty());
        }
    }

    /// The one inference path: for every model and snapshot,
    /// `predict_encoded` over `encode_plan` gives `predict_plan`'s bits
    /// (and, for QPPNet, the scalar tree walk's). Flat models encode one
    /// row; QPPNet encodes a row per plan node.
    #[test]
    fn encoded_inference_matches_predict_plan_for_every_model() {
        let (workload, snapshots, mscn, qpp) = equivalence_fixture();
        let models: [&dyn CostModel; 3] = [&PgEstimator, &mscn, &qpp];
        let plans: Vec<&PlanNode> = workload.queries.iter().map(|q| &q.executed.root).collect();
        for model in models {
            for snapshot in snapshot_cases(&snapshots) {
                let encodings: Vec<PlanEncoding> = plans
                    .iter()
                    .map(|plan| model.encode_plan(plan, snapshot))
                    .collect();
                let encoded = model.predict_encoded(&encodings.iter().collect::<Vec<_>>());
                assert_eq!(encoded.len(), plans.len(), "{}", model.name());
                for ((plan, encoding), e) in plans.iter().zip(&encodings).zip(&encoded) {
                    let single = model.predict_plan(plan, snapshot);
                    assert_eq!(single.to_bits(), e.to_bits(), "{}", model.name());
                    let width = match model.name() {
                        "PGSQL" => 1,
                        "MSCN" => mscn.mask().len(),
                        _ => plan.node_count() * qpp.node_dim(),
                    };
                    assert_eq!(encoding.values().len(), width, "{}", model.name());
                    if model.name() == "QPPNet" {
                        let scalar = qpp.predict_scalar(plan, snapshot);
                        assert_eq!(scalar.to_bits(), e.to_bits(), "QPPNet scalar walk");
                    }
                }
            }
            assert!(model.predict_encoded(&[]).is_empty());
        }
        let plan = plans[0];
        assert_eq!(
            PgEstimator.encode_plan(plan, None).values(),
            &[plan.est_cost]
        );
    }
}
