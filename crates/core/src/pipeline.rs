//! End-to-end experiment pipeline: collect labels, fit snapshots, reduce
//! features, train estimators and evaluate — the code path behind every
//! table and figure of the paper.

use crate::collect::{collect_workload, execute_queries, LabeledWorkload};
use crate::encoding::FeatureEncoder;
use crate::estimators::{
    evaluate, EnvSnapshots, MscnEstimator, PgEstimator, QppNetEstimator, TrainStats,
};
use crate::metrics::AccuracyReport;
use crate::reduction::{reduce, ReductionMethod, ReductionOutcome};
use crate::snapshot::FeatureSnapshot;
use crate::templates::{simplified_queries, DataAbstract};
use qcfe_db::env::{DbEnvironment, HardwareProfile};
use qcfe_db::plan::OperatorKind;
use qcfe_nn::{Activation, Dataset, Loss, Mlp, Optimizer, TrainConfig};
use qcfe_workloads::{Benchmark, BenchmarkKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Which snapshot to feed the QCFE variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SnapshotSource {
    /// No snapshot (the plain MSCN/QPPNet baselines).
    None,
    /// Snapshot fitted from the original workload queries (FSO).
    Original,
    /// Snapshot fitted from the simplified templates of Algorithm 1 (FST).
    Template,
}

/// The estimator variants compared in Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum EstimatorKind {
    /// PostgreSQL analytical baseline.
    Pgsql,
    /// Plain MSCN.
    Mscn,
    /// Plain QPPNet.
    QppNet,
    /// QCFE(mscn): snapshot + feature reduction on MSCN.
    QcfeMscn,
    /// QCFE(qpp): snapshot + feature reduction on QPPNet.
    QcfeQpp,
}

impl EstimatorKind {
    /// All variants in the order of Table IV.
    pub const ALL: [EstimatorKind; 5] = [
        EstimatorKind::Pgsql,
        EstimatorKind::QcfeMscn,
        EstimatorKind::QcfeQpp,
        EstimatorKind::Mscn,
        EstimatorKind::QppNet,
    ];

    /// Display name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            EstimatorKind::Pgsql => "PGSQL",
            EstimatorKind::Mscn => "MSCN",
            EstimatorKind::QppNet => "QPPNet",
            EstimatorKind::QcfeMscn => "QCFE(mscn)",
            EstimatorKind::QcfeQpp => "QCFE(qpp)",
        }
    }

    /// Whether the variant uses the feature snapshot + reduction.
    pub fn is_qcfe(&self) -> bool {
        matches!(self, EstimatorKind::QcfeMscn | EstimatorKind::QcfeQpp)
    }
}

/// Everything the experiments need for one benchmark: labeled workload plus
/// per-environment snapshots from both sources.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// The benchmark (schema, data, templates).
    pub benchmark: Benchmark,
    /// The pooled labeled workload across all environments.
    pub workload: LabeledWorkload,
    /// Per-environment snapshots fitted from the original queries.
    pub snapshots_fso: EnvSnapshots,
    /// Per-environment snapshots fitted from the simplified templates.
    pub snapshots_fst: EnvSnapshots,
    /// Summed simulated latency of the FSO labeling queries (ms).
    pub fso_collection_ms: f64,
    /// Summed simulated latency of the FST labeling queries (ms).
    pub fst_collection_ms: f64,
    /// Number of simplified templates Algorithm 1 generated.
    pub simplified_template_count: usize,
}

/// Tunable sizes for context preparation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextConfig {
    /// Data scale factor for the benchmark.
    pub data_scale: f64,
    /// Number of knob configurations (environments).
    pub environments: usize,
    /// Labeled queries collected per environment.
    pub queries_per_env: usize,
    /// `scale` parameter of Algorithm 1 (instances per simplified template).
    pub template_scale: usize,
    /// Base random seed.
    pub seed: u64,
}

impl ContextConfig {
    /// A configuration small enough for CI / `--quick` runs.
    pub fn quick(kind: BenchmarkKind) -> Self {
        ContextConfig {
            data_scale: kind.quick_scale(),
            environments: 3,
            queries_per_env: 60,
            template_scale: 1,
            seed: 42,
        }
    }

    /// The default configuration used by the experiment binaries.
    pub fn full(kind: BenchmarkKind) -> Self {
        ContextConfig {
            data_scale: kind.default_scale(),
            environments: 10,
            queries_per_env: 250,
            template_scale: 2,
            seed: 42,
        }
    }
}

/// Collect labels and fit both snapshot flavours for a benchmark.
pub fn prepare_context(kind: BenchmarkKind, config: &ContextConfig) -> ExperimentContext {
    let benchmark = kind.build(config.data_scale, config.seed);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);
    let environments =
        DbEnvironment::sample_knob_configs(config.environments, HardwareProfile::h1(), &mut rng);
    let workload = collect_workload(
        &benchmark,
        &environments,
        config.queries_per_env,
        config.seed,
    );

    // Original-template SQL for Algorithm 1 and the data abstract.
    let reference_db = benchmark.build_database(DbEnvironment::reference());
    let data_abstract = DataAbstract::from_database(&reference_db);
    let original_sql: Vec<String> = benchmark
        .templates
        .iter()
        .map(|t| t.representative_sql(&mut rng))
        .collect();
    let simplified = simplified_queries(
        &original_sql,
        &data_abstract,
        config.template_scale,
        &mut rng,
    );
    let simplified_template_count = if config.template_scale > 0 {
        simplified.len() / config.template_scale.max(1)
    } else {
        0
    };

    let mut snapshots_fso: EnvSnapshots = Vec::with_capacity(environments.len());
    let mut snapshots_fst: EnvSnapshots = Vec::with_capacity(environments.len());
    let mut fso_collection_ms = 0.0;
    let mut fst_collection_ms = 0.0;
    for (env_index, env) in environments.iter().enumerate() {
        // FSO: fit from this environment's labeled original queries.
        let executions: Vec<_> = workload
            .for_environment(env_index)
            .iter()
            .map(|q| q.executed.clone())
            .collect();
        let fso = FeatureSnapshot::fit_from_executions(&executions);
        fso_collection_ms += fso.collection_cost_ms;
        snapshots_fso.push(Some(fso));

        // FST: execute the simplified queries under this environment.
        let simplified_execs = execute_queries(&benchmark, env, &simplified, config.seed + 1000);
        let fst = FeatureSnapshot::fit_from_executions(&simplified_execs);
        fst_collection_ms += fst.collection_cost_ms;
        snapshots_fst.push(Some(fst));
    }

    ExperimentContext {
        benchmark,
        workload,
        snapshots_fso,
        snapshots_fst,
        fso_collection_ms,
        fst_collection_ms,
        simplified_template_count,
    }
}

/// The result of training/evaluating one estimator variant.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Which variant.
    pub kind: EstimatorKind,
    /// Accuracy on the held-out test split.
    pub accuracy: AccuracyReport,
    /// Training statistics (zeroed for the PGSQL baseline).
    pub train: TrainStats,
    /// Per-operator reduction outcomes (QCFE(qpp) only).
    pub operator_reductions: HashMap<OperatorKind, ReductionOutcome>,
    /// Plan-level reduction outcome (QCFE(mscn) only).
    pub plan_reduction: Option<ReductionOutcome>,
}

/// Tunable knobs for one method run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Number of labeled queries (the paper's "scale").
    pub sample_size: usize,
    /// Training iterations.
    pub iterations: usize,
    /// Which snapshot the QCFE variants use.
    pub snapshot_source: SnapshotSource,
    /// Which reduction method the QCFE variants use.
    pub reduction: ReductionMethod,
    /// Reference-set size for difference propagation.
    pub reference_count: usize,
    /// Random seed.
    pub seed: u64,
}

impl RunConfig {
    /// Defaults mirroring the paper's main configuration.
    pub fn new(sample_size: usize, iterations: usize, seed: u64) -> Self {
        RunConfig {
            sample_size,
            iterations,
            snapshot_source: SnapshotSource::Original,
            reduction: ReductionMethod::DiffProp,
            reference_count: 200,
            seed,
        }
    }
}

/// Train an auxiliary per-operator cost model used to score features during
/// reduction (the "learned cost model M" of the paper's Figure 4).
fn train_auxiliary_model(data: &Dataset, rng: &mut StdRng) -> Mlp {
    let mut mlp = Mlp::new(&[data.dim(), 16, 1], Activation::Relu, rng);
    let cfg = TrainConfig {
        epochs: 40,
        batch_size: 32,
        optimizer: Optimizer::adam(0.01),
        loss: Loss::LogMse,
        shuffle: true,
    };
    mlp.train(data, &cfg, rng);
    mlp
}

/// Run one estimator variant against a prepared context.
pub fn run_method(
    ctx: &ExperimentContext,
    kind: EstimatorKind,
    config: &RunConfig,
) -> MethodResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sample = ctx.workload.subsample(config.sample_size, config.seed);
    let (train, test) = sample.split(0.8, config.seed + 1);

    let snapshots: Option<&EnvSnapshots> = if kind.is_qcfe() {
        match config.snapshot_source {
            SnapshotSource::None => None,
            SnapshotSource::Original => Some(&ctx.snapshots_fso),
            SnapshotSource::Template => Some(&ctx.snapshots_fst),
        }
    } else {
        None
    };

    match kind {
        EstimatorKind::Pgsql => MethodResult {
            kind,
            accuracy: evaluate(&PgEstimator, &test, None),
            train: TrainStats {
                train_time_s: 0.0,
                iterations: 0,
                final_loss: 0.0,
            },
            operator_reductions: HashMap::new(),
            plan_reduction: None,
        },
        EstimatorKind::Mscn | EstimatorKind::QcfeMscn => {
            let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, snapshots.is_some());
            // Feature reduction (QCFE only): score plan-level features with a
            // quickly-trained auxiliary model, then train the real model on
            // the reduced feature set.
            let (mask, plan_reduction) =
                if kind.is_qcfe() && config.reduction != ReductionMethod::None {
                    let full = MscnEstimator::build_dataset(&encoder, &train, snapshots);
                    let aux = train_auxiliary_model(&full, &mut rng);
                    let outcome = reduce(
                        config.reduction,
                        &aux,
                        &full,
                        config.reference_count,
                        &mut rng,
                    );
                    (Some(outcome.kept.clone()), Some(outcome))
                } else {
                    (None, None)
                };
            let (model, stats) = MscnEstimator::train(
                encoder,
                &train,
                snapshots,
                mask,
                config.iterations,
                &mut rng,
            );
            MethodResult {
                kind,
                accuracy: evaluate(&model, &test, snapshots),
                train: stats,
                operator_reductions: HashMap::new(),
                plan_reduction,
            }
        }
        EstimatorKind::QppNet | EstimatorKind::QcfeQpp => {
            let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, snapshots.is_some());
            // Per-operator feature reduction (QCFE only).
            let mut operator_reductions = HashMap::new();
            let masks = if kind.is_qcfe() && config.reduction != ReductionMethod::None {
                let datasets = QppNetEstimator::operator_datasets(&encoder, &train, snapshots);
                let mut masks: HashMap<OperatorKind, Vec<usize>> = HashMap::new();
                for op in OperatorKind::ALL {
                    match datasets.get(&op) {
                        Some(data) if data.len() >= 16 => {
                            let aux = train_auxiliary_model(data, &mut rng);
                            let outcome = reduce(
                                config.reduction,
                                &aux,
                                data,
                                config.reference_count,
                                &mut rng,
                            );
                            masks.insert(op, outcome.kept.clone());
                            operator_reductions.insert(op, outcome);
                        }
                        _ => {
                            masks.insert(op, (0..encoder.node_dim()).collect());
                        }
                    }
                }
                Some(masks)
            } else {
                None
            };
            let mut model = QppNetEstimator::new(encoder, masks, &mut rng);
            let stats = model.train(&train, snapshots, config.iterations, &mut rng);
            MethodResult {
                kind,
                accuracy: evaluate(&model, &test, snapshots),
                train: stats,
                operator_reductions,
                plan_reduction: None,
            }
        }
    }
}

/// The ablation variants of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationVariant {
    /// Snapshot from original queries, no reduction.
    Fso,
    /// Snapshot from simplified templates, no reduction.
    Fst,
    /// FSO + difference-propagation reduction (full QCFE).
    FsoFr,
    /// FSO + gradient reduction.
    FsoGd,
    /// FSO + greedy reduction.
    FsoGreedy,
}

impl AblationVariant {
    /// All variants in the order plotted by Figure 6.
    pub const ALL: [AblationVariant; 5] = [
        AblationVariant::Fso,
        AblationVariant::Fst,
        AblationVariant::FsoFr,
        AblationVariant::FsoGd,
        AblationVariant::FsoGreedy,
    ];

    /// Legend label.
    pub fn name(&self) -> &'static str {
        match self {
            AblationVariant::Fso => "FSO",
            AblationVariant::Fst => "FST",
            AblationVariant::FsoFr => "FSO+FR",
            AblationVariant::FsoGd => "FSO+GD",
            AblationVariant::FsoGreedy => "FSO+Greedy",
        }
    }

    /// The (snapshot source, reduction) pair this variant denotes.
    pub fn config(&self) -> (SnapshotSource, ReductionMethod) {
        match self {
            AblationVariant::Fso => (SnapshotSource::Original, ReductionMethod::None),
            AblationVariant::Fst => (SnapshotSource::Template, ReductionMethod::None),
            AblationVariant::FsoFr => (SnapshotSource::Original, ReductionMethod::DiffProp),
            AblationVariant::FsoGd => (SnapshotSource::Original, ReductionMethod::Gradient),
            AblationVariant::FsoGreedy => (SnapshotSource::Original, ReductionMethod::Greedy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_context() -> ExperimentContext {
        let config = ContextConfig {
            data_scale: 0.0005,
            environments: 2,
            queries_per_env: 40,
            template_scale: 1,
            seed: 5,
        };
        prepare_context(BenchmarkKind::Sysbench, &config)
    }

    #[test]
    fn context_preparation_fits_both_snapshot_kinds() {
        let ctx = tiny_context();
        assert_eq!(ctx.workload.environments.len(), 2);
        assert_eq!(ctx.snapshots_fso.len(), 2);
        assert_eq!(ctx.snapshots_fst.len(), 2);
        assert!(ctx.fso_collection_ms > 0.0);
        assert!(ctx.fst_collection_ms > 0.0);
        assert!(
            ctx.fst_collection_ms < ctx.fso_collection_ms,
            "simplified templates must be cheaper to label: fst {} vs fso {}",
            ctx.fst_collection_ms,
            ctx.fso_collection_ms
        );
        assert!(ctx.simplified_template_count > 0);
        // every environment's FSO covers at least the scan operator
        for snap in ctx.snapshots_fso.iter().flatten() {
            assert!(!snap.covered_operators().is_empty());
        }
    }

    #[test]
    fn run_method_produces_results_for_all_estimators() {
        let ctx = tiny_context();
        let run = RunConfig {
            sample_size: 60,
            iterations: 8,
            ..RunConfig::new(60, 8, 3)
        };
        for kind in [
            EstimatorKind::Pgsql,
            EstimatorKind::Mscn,
            EstimatorKind::QcfeMscn,
        ] {
            let result = run_method(&ctx, kind, &run);
            assert!(result.accuracy.mean_q_error >= 1.0, "{kind:?}");
            assert!(result.accuracy.samples > 0);
            if kind == EstimatorKind::QcfeMscn {
                assert!(result.plan_reduction.is_some());
            }
        }
    }

    #[test]
    fn qcfe_qpp_produces_per_operator_reductions() {
        let ctx = tiny_context();
        let run = RunConfig {
            sample_size: 60,
            iterations: 4,
            ..RunConfig::new(60, 4, 3)
        };
        let result = run_method(&ctx, EstimatorKind::QcfeQpp, &run);
        assert!(!result.operator_reductions.is_empty());
        for outcome in result.operator_reductions.values() {
            assert!(!outcome.kept.is_empty());
        }
        assert!(result.train.train_time_s > 0.0);
    }

    #[test]
    fn ablation_variants_enumerate_configurations() {
        assert_eq!(AblationVariant::ALL.len(), 5);
        assert_eq!(
            AblationVariant::FsoFr.config(),
            (SnapshotSource::Original, ReductionMethod::DiffProp)
        );
        assert_eq!(AblationVariant::Fst.config().0, SnapshotSource::Template);
        assert_eq!(AblationVariant::FsoGreedy.name(), "FSO+Greedy");
    }
}
