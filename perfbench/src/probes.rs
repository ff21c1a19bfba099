//! Per-layer probes: public calls into single layers, timed on the run's
//! own inputs after its timed phase.

use crate::pipeline::KIND;
use crate::report::Outcome;
use crate::stats::median;
use qcfe_core::collect::{collect_workload, execute_queries};
use qcfe_core::cost_model::CostModel;
use qcfe_core::estimators::MscnEstimator;
use qcfe_core::pipeline::{ContextConfig, ExperimentContext};
use qcfe_core::snapshot::{operator_samples, FeatureSnapshot};
use qcfe_core::templates::{simplified_queries, DataAbstract};
use qcfe_db::executor::ExecutedQuery;
use qcfe_db::DbEnvironment;
use qcfe_net::{
    decode_frame, encode_request, encode_response, WireEstimate, WireRequest, WireResponse,
};
use qcfe_serve::{EstimateRequest, EstimateResponse, SnapshotStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timing passes per probe; the median pass is reported.
const PASSES: usize = 5;
/// Label window of a refit: the gateway's default buffer capacity.
const LABEL_WINDOW: usize = 4096;

/// What the probes run on.
pub struct ProbeInputs<'a> {
    pub ctx: &'a ExperimentContext,
    pub model: &'a MscnEstimator,
    /// Requests of the run (or built from its plans).
    pub requests: &'a [EstimateRequest],
    /// Responses of the run (or built from its estimates).
    pub responses: &'a [EstimateResponse],
    /// Plans per `predict_batch` call: the run's mean micro-batch.
    pub batch: usize,
    /// Executions whose operator samples form the refit label window.
    pub labels: Vec<&'a ExecutedQuery>,
    pub scratch: &'a Path,
}

/// Median over [`PASSES`] of the mean µs per item of `f` over `items`.
fn per_item_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            for item in items {
                f(item);
            }
            started.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64
        })
        .collect();
    median(&passes).expect("PASSES > 0")
}

pub fn run(inputs: &ProbeInputs, out: &mut Outcome) -> std::io::Result<()> {
    let ctx = inputs.ctx;
    let wire_requests: Vec<WireRequest> = inputs
        .requests
        .iter()
        .enumerate()
        .map(|(i, r)| WireRequest::from_estimate_request(i as u64 + 1, r))
        .collect::<Result<_, _>>()
        .map_err(std::io::Error::other)?;
    let request_frames: Vec<Vec<u8>> = wire_requests
        .iter()
        .map(encode_request)
        .collect::<Result<_, _>>()
        .map_err(std::io::Error::other)?;
    let wire_responses: Vec<WireResponse> = inputs
        .responses
        .iter()
        .enumerate()
        .map(|(i, r)| WireResponse {
            request_id: i as u64 + 1,
            outcome: Ok(WireEstimate::from_response(r)),
        })
        .collect();
    let response_frames: Vec<Vec<u8>> = wire_responses
        .iter()
        .map(encode_response)
        .collect::<Result<_, _>>()
        .map_err(std::io::Error::other)?;
    for frame in request_frames.iter().chain(&response_frames) {
        decode_frame(frame).map_err(std::io::Error::other)?;
    }
    let bytes: usize = request_frames.iter().map(Vec::len).sum();
    out.metric(
        "net.wire.request_bytes",
        bytes as f64 / request_frames.len().max(1) as f64,
        "bytes",
    );
    out.metric(
        "net.wire.encode_request_us",
        per_item_us(&wire_requests, |r| {
            black_box(encode_request(r).ok());
        }),
        "us",
    );
    out.metric(
        "net.wire.decode_request_us",
        per_item_us(&request_frames, |f| {
            black_box(decode_frame(f).ok());
        }),
        "us",
    );
    out.metric(
        "net.wire.encode_response_us",
        per_item_us(&wire_responses, |r| {
            black_box(encode_response(r).ok());
        }),
        "us",
    );
    out.metric(
        "net.wire.decode_response_us",
        per_item_us(&response_frames, |f| {
            black_box(decode_frame(f).ok());
        }),
        "us",
    );

    let snapshot = ctx.snapshots_fso[0].as_ref();
    let plans: Vec<&qcfe_db::plan::PlanNode> = inputs.requests.iter().map(|r| &r.plan).collect();
    let batches: Vec<&[&qcfe_db::plan::PlanNode]> = plans.chunks(inputs.batch.max(1)).collect();
    let per_batch = per_item_us(&batches, |b| {
        black_box(CostModel::predict_batch(inputs.model, b, snapshot));
    });
    out.metric(
        "core.estimators.predict_us",
        per_batch * batches.len() as f64 / plans.len().max(1) as f64,
        "us",
    );
    out.metric(
        "core.encoding.encode_us",
        per_item_us(&plans, |p| {
            black_box(CostModel::encode_plan(inputs.model, p, snapshot));
        }),
        "us",
    );

    let snapshot = snapshot.ok_or_else(|| std::io::Error::other("no snapshot"))?;
    let mut window = Vec::with_capacity(LABEL_WINDOW);
    for executed in &inputs.labels {
        if window.len() >= LABEL_WINDOW {
            break;
        }
        window.extend(operator_samples(executed));
    }
    window.truncate(LABEL_WINDOW);
    out.metric(
        "core.snapshot.refit_us",
        per_item_us(&[(); 8], |_| {
            black_box(snapshot.refit_with(&window));
        }),
        "us",
    );

    let store =
        SnapshotStore::open(inputs.scratch.join("probe-store")).map_err(std::io::Error::other)?;
    let env = &ctx.workload.environments[0];
    let mut saved: Result<(), String> = Ok(());
    let save_us = per_item_us(&[(); 32], |_| {
        if let Err(e) = store.save_env(KIND, env, snapshot) {
            saved = Err(e.to_string());
        }
    });
    saved.map_err(std::io::Error::other)?;
    out.metric("serve.store.save_us", save_us, "us");

    let db = ctx.benchmark.build_database(env.clone());
    let mut rng = StdRng::seed_from_u64(0xe8ec);
    let queries = ctx.benchmark.queries_round_robin(66, &mut rng);
    out.metric(
        "db.executor.execute_us",
        per_item_us(&queries, |q| {
            black_box(db.execute(q, &mut rng).ok());
        }),
        "us",
    );
    Ok(())
}

/// The steps of `prepare_context` that carry a per-layer metric, called
/// on the context's own benchmark and environments with the sizes and
/// seed of `config`: label collection, the simplified templates (FST)
/// with their executions, and the snapshot fits.
pub fn setup(ctx: &ExperimentContext, config: &ContextConfig, out: &mut Outcome) {
    let bench = &ctx.benchmark;
    let envs = &ctx.workload.environments;
    let collect_us = per_item_us(&[()], |_| {
        black_box(collect_workload(
            bench,
            envs,
            config.queries_per_env,
            config.seed,
        ));
    });
    out.metric("core.collect.s", collect_us / 1e6, "s");

    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);
    let mut simplified = Vec::new();
    let fst_us = per_item_us(&[()], |_| {
        let reference_db = bench.build_database(DbEnvironment::reference());
        let data_abstract = DataAbstract::from_database(&reference_db);
        let original_sql: Vec<String> = bench
            .templates
            .iter()
            .map(|t| t.representative_sql(&mut rng))
            .collect();
        simplified = simplified_queries(
            &original_sql,
            &data_abstract,
            config.template_scale,
            &mut rng,
        );
        for env in envs {
            black_box(execute_queries(bench, env, &simplified, config.seed + 1000));
        }
    });
    out.metric("core.templates.fst_s", fst_us / 1e6, "s");

    // Per environment: the FSO fit on its labels and the FST fit on its
    // simplified executions.
    let executions: Vec<[Vec<ExecutedQuery>; 2]> = envs
        .iter()
        .enumerate()
        .map(|(e, env)| {
            let fso = ctx
                .workload
                .for_environment(e)
                .iter()
                .map(|q| q.executed.clone())
                .collect();
            [
                fso,
                execute_queries(bench, env, &simplified, config.seed + 1000),
            ]
        })
        .collect();
    out.metric(
        "core.snapshot.fit_us",
        per_item_us(&executions, |[fso, fst]| {
            black_box(FeatureSnapshot::fit_from_executions(fso));
            black_box(FeatureSnapshot::fit_from_executions(fst));
        }),
        "us",
    );
}

/// The label window of workloads that feed back no executions: the
/// context's labeled queries of its first environment.
pub fn context_labels(ctx: &ExperimentContext) -> Vec<&ExecutedQuery> {
    ctx.workload
        .for_environment(0)
        .into_iter()
        .map(|q| &q.executed)
        .collect()
}
