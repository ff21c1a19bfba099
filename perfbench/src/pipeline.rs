//! The paper's pipeline on TPCH. `run_config` is the configuration every
//! workload passes to the program's own `run_method` for `train_s`. The rest
//! calls, step by step, the public functions `run_method` calls, in the
//! same order and with the same random streams: the traced run puts a
//! span on each step, the serving workloads need the trained model that
//! `run_method` does not return, and per-estimate latencies need the
//! model too. A test below checks that the steps give `run_method`'s
//! results bit for bit.

use crate::trace::{SpanId, Tracer};
use qcfe_core::collect::LabeledWorkload;
use qcfe_core::encoding::FeatureEncoder;
use qcfe_core::estimators::{EnvSnapshots, MscnEstimator, QppNetEstimator, TrainStats};
use qcfe_core::metrics::q_error;
use qcfe_core::pipeline::{
    ContextConfig, EstimatorKind, ExperimentContext, MethodResult, RunConfig,
};
use qcfe_core::reduction::{reduce, ReductionMethod};
use qcfe_core::snapshot::FeatureSnapshot;
use qcfe_db::plan::OperatorKind;
use qcfe_nn::{Activation, Dataset, Loss, Mlp, Optimizer, TrainConfig};
use qcfe_workloads::BenchmarkKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// The benchmark every workload runs on.
pub const KIND: BenchmarkKind = BenchmarkKind::Tpch;

/// Labeled queries drawn for one training run (the paper's "scale"); 20%
/// of them are held out, which gives 200 test queries.
pub const SAMPLE_SIZE: usize = 1000;
/// Training epochs of QCFE(qpp).
pub const QPP_ITERATIONS: usize = 15;
/// Training epochs of QCFE(mscn): the flat model is ~30× cheaper per
/// epoch and needs more of them for a steady error tail.
pub const MSCN_ITERATIONS: usize = 60;
/// Reference-set size of difference propagation (the paper's default).
pub const REFERENCE_COUNT: usize = 200;
/// Set-ups per untraced run; `setup_s` is their median, and so is
/// `train_s` on the serving workloads (the served model's training inside
/// each set-up).
pub const SETUP_REPEATS: usize = 5;

/// Seed of the TPCH data, environments and labels, and of the served
/// model's training: the deployment under test is the same for every run
/// seed, which drives only the generated traffic and the training split.
/// With the context drawn from the run seed, served q-errors moved 1.14 –
/// 1.73 (median) and 1.5 – 5.0 (p95) across five seeds — the spread of
/// five different deployments, not of the program.
pub const CONTEXT_SEED: u64 = 42;

/// The TPCH context every workload builds: four knob environments, 300
/// labeled queries each.
pub fn context_config() -> ContextConfig {
    ContextConfig {
        data_scale: KIND.quick_scale(),
        environments: 4,
        queries_per_env: 300,
        template_scale: 1,
        seed: CONTEXT_SEED,
    }
}

/// The `run_method` configuration of one QCFE variant: DiffProp
/// reduction over FSO snapshots at the paper's defaults.
pub fn run_config(kind: EstimatorKind, seed: u64) -> RunConfig {
    let iterations = match kind {
        EstimatorKind::QcfeQpp => QPP_ITERATIONS,
        _ => MSCN_ITERATIONS,
    };
    RunConfig {
        reference_count: REFERENCE_COUNT,
        ..RunConfig::new(SAMPLE_SIZE, iterations, seed)
    }
}

/// Features kept by each reduction a `run_method` result ran: one for
/// QCFE(mscn), one per operator with enough samples for QCFE(qpp).
pub fn kept_features(result: &MethodResult) -> Vec<usize> {
    result
        .operator_reductions
        .values()
        .chain(&result.plan_reduction)
        .map(|o| o.kept.len())
        .collect()
}

/// The train/test split `run_method` draws for `seed`.
pub fn split(ctx: &ExperimentContext, seed: u64) -> (LabeledWorkload, LabeledWorkload) {
    ctx.workload
        .subsample(SAMPLE_SIZE, seed)
        .split(0.8, seed + 1)
}

/// The snapshot `run_method` pairs with a labeled query.
pub fn snapshot_for(snapshots: &EnvSnapshots, env_index: usize) -> Option<&FeatureSnapshot> {
    snapshots.get(env_index).and_then(|s| s.as_ref())
}

/// The auxiliary per-operator model `run_method` scores features with.
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

/// Auxiliary model + DiffProp reduction of one dataset; returns the kept
/// feature indices.
fn reduced(
    data: &Dataset,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Vec<usize> {
    let span = tracer.open("core.reduction.aux_model", parent, 0);
    let aux = train_auxiliary_model(data, rng);
    tracer.close(span);
    let span = tracer.open("core.reduction", parent, 0);
    let outcome = reduce(ReductionMethod::DiffProp, &aux, data, REFERENCE_COUNT, rng);
    tracer.close(span);
    outcome.kept
}

/// A trained QCFE model with what its reductions kept.
pub struct Trained<M> {
    pub model: M,
    pub stats: TrainStats,
    /// Features kept by each reduction the model ran (one for QCFE(mscn),
    /// one per operator with enough samples for QCFE(qpp)).
    pub kept: Vec<usize>,
}

impl<M> Trained<M> {
    /// Features kept, summed over the model's reductions.
    pub fn kept_features(&self) -> usize {
        self.kept.iter().sum()
    }
}

/// `run_method(QcfeMscn)` up to (not including) evaluation.
pub fn train_qcfe_mscn(
    ctx: &ExperimentContext,
    train: &LabeledWorkload,
    seed: u64,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Trained<MscnEstimator> {
    let mut rng = StdRng::seed_from_u64(seed);
    let snapshots = Some(&ctx.snapshots_fso);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let span = tracer.open("core.encoding.dataset", parent, 0);
    let full = MscnEstimator::build_dataset(&encoder, train, snapshots);
    tracer.close(span);
    let mask = reduced(&full, &mut rng, tracer, parent);
    let kept = vec![mask.len()];
    let span = tracer.open("core.estimators.train_mscn", parent, 0);
    let (model, stats) = MscnEstimator::train(
        encoder,
        train,
        snapshots,
        Some(mask),
        MSCN_ITERATIONS,
        &mut rng,
    );
    tracer.close(span);
    Trained { model, stats, kept }
}

/// `run_method(QcfeQpp)` up to (not including) evaluation.
pub fn train_qcfe_qpp(
    ctx: &ExperimentContext,
    train: &LabeledWorkload,
    seed: u64,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Trained<QppNetEstimator> {
    let mut rng = StdRng::seed_from_u64(seed);
    let snapshots = Some(&ctx.snapshots_fso);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let span = tracer.open("core.encoding.dataset", parent, 0);
    let datasets = QppNetEstimator::operator_datasets(&encoder, train, snapshots);
    tracer.close(span);
    let mut masks: HashMap<OperatorKind, Vec<usize>> = HashMap::new();
    let mut kept = Vec::new();
    for op in OperatorKind::ALL {
        match datasets.get(&op) {
            Some(data) if data.len() >= 16 => {
                let mask = reduced(data, &mut rng, tracer, parent);
                kept.push(mask.len());
                masks.insert(op, mask);
            }
            _ => {
                masks.insert(op, (0..encoder.node_dim()).collect());
            }
        }
    }
    let mut model = QppNetEstimator::new(encoder, Some(masks), &mut rng);
    let span = tracer.open("core.estimators.train_qpp", parent, 0);
    let stats = model.train(train, snapshots, QPP_ITERATIONS, &mut rng);
    tracer.close(span);
    Trained { model, stats, kept }
}

/// Predictions of one or more models, one labeled query at a time.
pub struct Evaluation {
    /// Per model, one prediction per query (workload order).
    pub predictions: Vec<Vec<f64>>,
    /// Per query, the time all models took to estimate it, µs (median of
    /// the repeats).
    pub latencies_us: Vec<f64>,
    /// Wall time of the whole evaluation, s.
    pub wall_s: f64,
    /// Whether every repeat predicted bit-identically.
    pub repeatable: bool,
}

/// One trained model's prediction function.
pub type Predict<'a> = &'a dyn Fn(&qcfe_db::plan::PlanNode, Option<&FeatureSnapshot>) -> f64;

/// Times each estimate is repeated when its latency is the sample; its
/// median time is kept, so an interrupt landing in one repeat of a ~5 µs
/// estimate does not become a tail sample. The repeats must predict
/// bit-identically.
pub const TIMED_REPEATS: usize = 5;

/// Estimate every query of `queries` with every model, `repeats` times
/// each — the per-query half of the models' `evaluate`.
pub fn evaluate(
    models: &[Predict],
    ctx: &ExperimentContext,
    queries: &LabeledWorkload,
    repeats: usize,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Evaluation {
    let span = tracer.open("core.estimators.evaluate", parent, 0);
    let started = Instant::now();
    let mut predictions = vec![Vec::with_capacity(queries.len()); models.len()];
    let mut latencies_us = Vec::with_capacity(queries.len());
    let mut repeatable = true;
    let mut times = vec![0.0; repeats.max(1)];
    let mut first = vec![0.0; models.len()];
    for q in &queries.queries {
        let snapshot = snapshot_for(&ctx.snapshots_fso, q.env_index);
        for (repeat, time) in times.iter_mut().enumerate() {
            let t0 = Instant::now();
            for (model, p) in models.iter().zip(first.iter_mut()) {
                let prediction = model(&q.executed.root, snapshot);
                if repeat == 0 {
                    *p = prediction;
                } else {
                    repeatable &= prediction.to_bits() == p.to_bits();
                }
            }
            *time = t0.elapsed().as_secs_f64() * 1e6;
        }
        for (out, p) in predictions.iter_mut().zip(&first) {
            out.push(*p);
        }
        latencies_us.push(crate::stats::median(&times).expect("at least one repeat"));
    }
    let wall_s = started.elapsed().as_secs_f64();
    tracer.close(span);
    Evaluation {
        predictions,
        latencies_us,
        wall_s,
        repeatable,
    }
}

/// Q-errors of every model's predictions against `queries`, pooled.
pub fn pooled_q_errors(queries: &LabeledWorkload, eval: &Evaluation) -> Vec<f64> {
    let actuals = queries.actual_costs();
    eval.predictions
        .iter()
        .flat_map(|preds| actuals.iter().zip(preds).map(|(a, p)| q_error(*a, *p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcfe_core::metrics::AccuracyReport;
    use qcfe_core::pipeline::{prepare_context, run_method};

    fn tiny(seed: u64) -> ContextConfig {
        ContextConfig {
            data_scale: 0.0005,
            environments: 2,
            queries_per_env: 40,
            template_scale: 1,
            seed,
        }
    }

    #[test]
    fn step_by_step_training_matches_run_method() {
        let ctx = prepare_context(KIND, &tiny(5));
        let seed = 11;
        let (train, test) = split(&ctx, seed);
        let mut off = Tracer::new(false, Instant::now());
        let qpp = train_qcfe_qpp(&ctx, &train, seed, &mut off, None);
        let mscn = train_qcfe_mscn(&ctx, &train, seed, &mut off, None);
        let eval = evaluate(
            &[&|p, s| qpp.model.predict(p, s), &|p, s| {
                mscn.model.predict(p, s)
            }],
            &ctx,
            &test,
            1,
            &mut off,
            None,
        );
        let actuals = test.actual_costs();
        for (kind, preds, kept) in [
            (EstimatorKind::QcfeQpp, &eval.predictions[0], &qpp.kept),
            (EstimatorKind::QcfeMscn, &eval.predictions[1], &mscn.kept),
        ] {
            let reference = run_method(&ctx, kind, &run_config(kind, seed));
            assert_eq!(
                AccuracyReport::compute(&actuals, preds),
                reference.accuracy,
                "{kind:?}"
            );
            let mut reference_kept = kept_features(&reference);
            let mut kept = kept.clone();
            reference_kept.sort_unstable();
            kept.sort_unstable();
            assert_eq!(kept, reference_kept, "{kind:?}");
        }
        assert_eq!(qpp.stats.iterations, QPP_ITERATIONS);
        assert_eq!(mscn.stats.iterations, MSCN_ITERATIONS);
    }
}
