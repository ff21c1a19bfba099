//! # qcfe-core — QCFE: efficient feature engineering for query cost estimation
//!
//! This crate implements the contribution of *"QCFE: An Efficient Feature
//! Engineering for Query Cost Estimation"* (ICDE 2024) on top of the
//! workspace's database substrate:
//!
//! * [`snapshot`] — the **feature snapshot**: per-operator coefficients of the
//!   logical cost formulas (Table I), fitted by least squares from labeled
//!   operator executions, capturing the influence of knobs / hardware /
//!   storage format ("ignored variables");
//! * [`templates`] — **Algorithm 1**: simplified SQL templates that make
//!   snapshot collection cheap (FST vs FSO);
//! * [`reduction`] — **feature reduction**: the greedy baseline
//!   (Algorithm 2), the gradient baseline, and the paper's
//!   difference-propagation method (Algorithm 3 / Equation 1);
//! * [`encoding`] — the operator/plan encodings shared by the estimators;
//! * [`estimators`] — the PostgreSQL baseline plus MSCN-style and
//!   QPPNet-style learned estimators (and their QCFE variants);
//! * [`cost_model`] — the thread-safe [`CostModel`] inference trait the
//!   online serving layer (`qcfe-serve`) consumes;
//! * [`model_codec`] — the estimator-level payloads of the versioned
//!   `QCFW` weight codec: trained MSCN/QPPNet state persisted bit-exactly
//!   so a restarted serving node answers without retraining;
//! * [`collect`] — labeled-workload collection across environments;
//! * [`metrics`] — q-error, Pearson correlation, percentiles;
//! * [`pipeline`] — the end-to-end experiment driver used by the
//!   reproduction harness (one call per paper table/figure cell).
//!
//! ## Quick start
//!
//! ```no_run
//! use qcfe_core::pipeline::{prepare_context, run_method, ContextConfig, EstimatorKind, RunConfig};
//! use qcfe_workloads::BenchmarkKind;
//!
//! let ctx = prepare_context(BenchmarkKind::Sysbench, &ContextConfig::quick(BenchmarkKind::Sysbench));
//! let run = RunConfig::new(200, 30, 42);
//! let qcfe = run_method(&ctx, EstimatorKind::QcfeMscn, &run);
//! let plain = run_method(&ctx, EstimatorKind::Mscn, &run);
//! println!("QCFE(mscn) q-error {:.3} vs MSCN {:.3}", qcfe.accuracy.mean_q_error, plain.accuracy.mean_q_error);
//! ```

pub mod collect;
pub mod cost_model;
pub mod encoding;
pub mod estimators;
pub mod metrics;
pub mod model_codec;
pub mod pipeline;
pub mod reduction;
pub mod snapshot;
pub mod templates;

pub use collect::{collect_workload, LabeledQuery, LabeledWorkload};
pub use cost_model::CostModel;
pub use encoding::FeatureEncoder;
pub use estimators::{MscnEstimator, PgEstimator, QppNetEstimator, TrainStats};
pub use metrics::AccuracyReport;
pub use model_codec::{ModelCodecError, PersistedModel};
pub use pipeline::{
    prepare_context, run_method, AblationVariant, ContextConfig, EstimatorKind, ExperimentContext,
    MethodResult, RunConfig, SnapshotSource,
};
pub use reduction::{ReductionMethod, ReductionOutcome};
pub use snapshot::{FeatureSnapshot, OperatorSample, SnapshotCodecError, SNAPSHOT_DIM};
